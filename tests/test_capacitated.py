import random

import pytest
from hypothesis import given, settings, strategies as st

from viforge.graphs import Graph, complete_graph, path_graph
from viforge.oracles import oracle_cds, oracle_cvc, verify_cds, verify_cvc
from viforge.solvers.capacitated import cds_vi, cvc_vi

from conftest import BIG_BUDGET, rand_graph, rand_vi_graph, with_caps


def test_cvc_frozen_values():
    g = Graph(3, {(0, 1), (1, 2)}, capacities={0: 1, 1: 2, 2: 1})
    size, cover, assignment = cvc_vi(g)
    assert size == 1 and cover == [1]
    assert verify_cvc(g, cover, assignment)

    unit = Graph(3, {(0, 1), (1, 2)}, capacities={v: 1 for v in range(3)})
    assert cvc_vi(unit)[0] == 2

    k3 = Graph(3, {(0, 1), (1, 2), (0, 2)}, capacities={v: 1 for v in range(3)})
    size, cover, assignment = cvc_vi(k3)
    assert size == 3
    assert verify_cvc(k3, cover, assignment)


def test_cvc_preconditions():
    with pytest.raises(ValueError):
        cvc_vi(path_graph(3))
    with pytest.raises(ValueError):
        cvc_vi(Graph(2, {(0, 1)}, capacities={0: 2, 1: 1}))


def test_cvc_empty_graph():
    assert cvc_vi(Graph(0, capacities={})) == (0, [], {})
    assert cds_vi(Graph(0, capacities={})) == (0, [], {})


def test_cvc_decide():
    unit = Graph(3, {(0, 1), (1, 2)}, capacities={v: 1 for v in range(3)})
    assert cvc_vi(unit)[0] <= 2
    assert not cvc_vi(unit)[0] <= 1


def test_cds_frozen_values():
    star = Graph(4, {(0, 1), (0, 2), (0, 3)},
                 capacities={0: 3, 1: 1, 2: 1, 3: 1})
    size, dset, assignment = cds_vi(star)
    assert size == 1 and dset == [0]
    assert verify_cds(star, dset, assignment)

    tight = Graph(4, {(0, 1), (0, 2), (0, 3)},
                  capacities={0: 2, 1: 1, 2: 1, 3: 1})
    size, dset, assignment = cds_vi(tight)
    assert size == 2
    assert verify_cds(tight, dset, assignment)

    k2 = Graph(2, {(0, 1)}, capacities={0: 1, 1: 1})
    assert cds_vi(k2)[0] == 1


def test_cds_allows_capacity_above_degree():
    k2 = Graph(2, {(0, 1)}, capacities={0: 5, 1: 5})
    assert cds_vi(k2)[0] == 1


def test_cds_isolated_vertices_must_join():
    g = Graph(3, {(0, 1)}, capacities={0: 1, 1: 1, 2: 1})
    size, dset, assignment = cds_vi(g)
    assert 2 in dset and size == 2
    assert verify_cds(g, dset, assignment)


def test_cds_preconditions():
    with pytest.raises(ValueError):
        cds_vi(path_graph(3))


def test_cds_decide():
    tight = Graph(4, {(0, 1), (0, 2), (0, 3)},
                  capacities={0: 2, 1: 1, 2: 1, 3: 1})
    assert cds_vi(tight)[0] <= 2
    assert not cds_vi(tight)[0] <= 1


def test_colors_are_inert():
    # capacity-equal components with different colors stay interchangeable
    g = Graph(3, {(0, 1), (0, 2)},
              capacities={0: 2, 1: 1, 2: 1},
              colors={0: 0, 1: 1, 2: 2})
    size, cover, assign = cvc_vi(g)
    assert size == oracle_cvc(g)[0]
    assert verify_cvc(g, cover, assign)
    size, dset, assign = cds_vi(g)
    assert size == oracle_cds(g)[0]
    assert verify_cds(g, dset, assign)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_cvc_matches_oracle(seed):
    rng = random.Random(seed)
    base = rand_graph(rng, rng.randint(1, 7), p=rng.choice([0.3, 0.5]))
    g = with_caps(rng, base, by_degree=True)
    got = cvc_vi(g)
    want = oracle_cvc(g, budget=BIG_BUDGET)
    if want is None:
        assert got is None
    else:
        assert got is not None and got[0] == want[0]
        assert verify_cvc(g, got[1], got[2])


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_cds_matches_oracle(seed):
    rng = random.Random(seed)
    base = rand_graph(rng, rng.randint(1, 7), p=rng.choice([0.3, 0.5]))
    g = with_caps(rng, base, by_degree=False)
    got = cds_vi(g)
    want = oracle_cds(g, budget=BIG_BUDGET)
    if want is None:
        assert got is None
    else:
        assert got is not None and got[0] == want[0]
        assert verify_cds(g, got[1], got[2])


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_capacitated_on_low_integrity_graphs(seed):
    rng = random.Random(seed)
    base = rand_vi_graph(rng, rng.randint(4, 8), k=3)
    cvc_g = with_caps(rng, base, by_degree=True)
    got = cvc_vi(cvc_g)
    want = oracle_cvc(cvc_g, budget=BIG_BUDGET)
    assert (got is None) == (want is None)
    if got is not None:
        assert got[0] == want[0]
    cds_g = with_caps(rng, base, by_degree=False)
    got = cds_vi(cds_g)
    want = oracle_cds(cds_g, budget=BIG_BUDGET)
    assert (got is None) == (want is None)
    if got is not None:
        assert got[0] == want[0]
