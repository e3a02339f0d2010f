import math
import random
from itertools import permutations
from math import factorial

from hypothesis import given, settings, strategies as st

from viforge.graphs import Graph, complete_graph, cycle_graph, path_graph, star_graph
from viforge.integrity import vertex_integrity
from viforge.lp import lp_bound
from viforge.oracles import oracle_imbalance, verify_imbalance
from viforge.solvers import imbalance
from viforge.solvers.imbalance import imbalance_of, imbalance_vi

from conftest import BIG_BUDGET, rand_graph, rand_vi_graph


def test_frozen_values():
    cases = [
        (path_graph(3), 2),
        (star_graph(3), 4),
        (cycle_graph(4), 4),
        (Graph(4), 0),
        (Graph(2, {(0, 1)}), 2),
    ]
    for g, want in cases:
        val, ordering = imbalance_vi(g)
        assert val == want
        assert verify_imbalance(g, ordering, val)


def test_decorations_are_inert():
    # same-shape components with different colors must still map onto
    # each other; imbalance reads adjacency only
    g = Graph(4, {(0, 1), (0, 2), (0, 3)},
              capacities={0: 3, 1: 1, 2: 1, 3: 1},
              colors={0: 0, 1: 1, 2: 2, 3: 0},
              weights={(0, 1): 5, (0, 2): 1, (0, 3): 2})
    val, ordering = imbalance_vi(g)
    assert val == 4
    assert verify_imbalance(g, ordering, val)


def test_ordering_cost_helper():
    p3 = path_graph(3)
    assert imbalance_of(p3, [0, 1, 2]) == 2
    assert imbalance_of(p3, [1, 0, 2]) == 4


def test_empty_graph():
    assert imbalance_vi(Graph(0)) == (0, [])


def test_complete_graphs():
    for n in range(2, 6):
        val, ordering = imbalance_vi(complete_graph(n))
        want, _ = oracle_imbalance(complete_graph(n))
        assert val == want


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_matches_oracle_on_random_graphs(seed):
    rng = random.Random(seed)
    g = rand_graph(rng, rng.randint(1, 7), p=rng.choice([0.2, 0.4, 0.6]))
    val, ordering = imbalance_vi(g)
    want, _ = oracle_imbalance(g, budget=BIG_BUDGET)
    assert val == want
    assert verify_imbalance(g, ordering, val)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_matches_oracle_on_low_integrity_graphs(seed):
    rng = random.Random(seed)
    g = rand_vi_graph(rng, rng.randint(4, 8), k=rng.randint(2, 4))
    val, ordering = imbalance_vi(g)
    want, _ = oracle_imbalance(g, budget=BIG_BUDGET)
    assert val == want
    assert verify_imbalance(g, ordering, val)


def _full_walk(g):
    """Every order of the separator, in lexicographic order, keeping a
    strictly better answer only."""
    _, vis = vertex_integrity(g)
    best = None
    for sigma in permutations(sorted(vis.separator)):
        got = imbalance._solve_for_order(g, imbalance._order_ip(g, list(sigma)))
        if got is not None and (best is None or got[0] < best[0]):
            best = got
    return best


def _bound_walk(g, orders):
    """The orders a bound-ordered walk solves: by (ceiling of the order
    IP's LP bound, position), until the first order whose bound is above
    the best imbalance so far, or equal to it from a later position."""
    ips = [imbalance._order_ip(g, sigma) for sigma in orders]
    bounds = [math.ceil(lp_bound(ip[3])[0]) for ip in ips]
    solved, top = [], None
    for i in sorted(range(len(ips)), key=lambda i: (bounds[i], i)):
        if top is not None and (bounds[i], i) > top:
            break
        solved.append(orders[i])
        value = imbalance._solve_for_order(g, ips[i])[0]
        assert bounds[i] <= value
        top = min(top or (value, i), (value, i))
    return solved


def test_half_the_separator_orders_give_the_full_walk(monkeypatch):
    # reversing an ordering keeps its imbalance, so the solver skips the
    # orders whose reversal came first, and visits the rest by LP bound;
    # value and ordering stay the same
    rng = random.Random(6)
    real = imbalance._solve_for_order
    tried = []
    monkeypatch.setattr(imbalance, "_solve_for_order",
                        lambda g, guess: tried.append(guess[0]) or real(g, guess))
    checked = wide = skipped = 0
    while checked < 30:
        g = rand_vi_graph(rng, rng.randint(5, 10), k=rng.randint(4, 5))
        _, vis = vertex_integrity(g)
        sep = sorted(vis.separator)
        if len(sep) < 3:
            continue
        want = _full_walk(g)
        half = [list(sigma) for sigma in permutations(sep) if sigma[0] < sigma[-1]]
        assert len(half) == factorial(len(sep)) // 2
        replay = _bound_walk(g, half)
        tried.clear()
        assert imbalance_vi(g) == want
        assert tried == replay
        checked += 1
        wide += len(sep) >= 4
        skipped += len(half) - len(tried)
    assert skipped > 0
    assert wide >= 2
