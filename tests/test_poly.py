import random

import pytest
from hypothesis import given, settings, strategies as st

from viforge import integrity, poly
from viforge.graphs import Graph, complete_graph, cycle_graph, path_graph, star_graph
from viforge.oracles import (
    oracle_mmoo,
    oracle_motif,
    oracle_steiner_forest,
    oracle_usf,
    verify_mmoo,
    verify_motif,
    verify_steiner_forest,
)
from viforge.poly import (
    KernelTrace,
    MotifInstance,
    Orientation,
    PreconditionError,
    SteinerInstance,
    binary_mmoo_vc2,
    degree_constrained_subgraph,
    graph_motif_vi3,
    steiner_forest_xp_vc,
    usf_kernelize,
    usf_solve,
)

from conftest import BIG_BUDGET, rand_graph, rand_vc_graph, rand_vi_graph


def _unit(g: Graph) -> Graph:
    return Graph(g.n, set(g.edges), weights={e: 1 for e in g.edges})


class TestInstanceTypes:
    def test_motif_validate(self):
        g = Graph(2, {(0, 1)}, colors={0: 0, 1: 1})
        MotifInstance(g, {0: 1, 1: 1}).validate()
        MotifInstance(g, {5: 0}).validate()  # zero counts may name any color
        with pytest.raises(ValueError):
            MotifInstance(g, {5: 1}).validate()
        with pytest.raises(ValueError):
            MotifInstance(g, {0: -1}).validate()
        with pytest.raises(ValueError):
            MotifInstance(Graph(2, {(0, 1)}), {0: 1}).validate()

    def test_orientation_outdegree(self):
        g = _unit(path_graph(3))
        o = Orientation({(0, 1): (1, 0), (1, 2): (1, 2)})
        assert o.outdegree(g, 1) == 2
        assert o.outdegree(g, 0) == 0
        assert o.max_outdegree(g) == 2

    def test_steiner_validate(self):
        g = path_graph(4)
        SteinerInstance(g, ((0, 1), (2, 3))).validate()
        with pytest.raises(ValueError):
            SteinerInstance(g, ((0,),)).validate()
        with pytest.raises(ValueError):
            SteinerInstance(g, ((0, 9),)).validate()
        with pytest.raises(ValueError):
            SteinerInstance(g, ((0, 1), (1, 2))).validate()

    def test_unit_weights(self):
        assert SteinerInstance(path_graph(2), ()).unit_weights()
        assert SteinerInstance(_unit(path_graph(2)), ()).unit_weights()
        heavy = Graph(2, {(0, 1)}, weights={(0, 1): 2})
        assert not SteinerInstance(heavy, ()).unit_weights()


class TestDegreeConstrained:
    def test_single_edge(self):
        assert degree_constrained_subgraph([(0, 0)], [1], [1]) == [0]
        assert degree_constrained_subgraph([(0, 0)], [1], [2]) is None

    def test_parallel_edges_keep_lowest_index(self):
        assert degree_constrained_subgraph([(0, 0), (0, 0)], [2], [1]) == [0]

    def test_bipartite_matching(self):
        edges = [(0, 0), (0, 1), (1, 0), (1, 1)]
        got = degree_constrained_subgraph(edges, [1, 1], [1, 1])
        assert got is not None and len(got) == 2
        lefts = sorted(edges[i][0] for i in got)
        rights = sorted(edges[i][1] for i in got)
        assert lefts == [0, 1] and rights == [0, 1]

    def test_validation(self):
        with pytest.raises(ValueError):
            degree_constrained_subgraph([(0, 0)], [-1], [0])
        with pytest.raises(ValueError):
            degree_constrained_subgraph([(0, 2)], [1], [1])


class TestGraphMotif:
    def test_frozen_values(self):
        g = Graph(3, {(0, 1), (1, 2)}, colors={0: 0, 1: 1, 2: 0})
        assert graph_motif_vi3(MotifInstance(g, {0: 1, 1: 1})) in ([0, 1], [1, 2])
        assert graph_motif_vi3(MotifInstance(g, {0: 2})) is None
        assert graph_motif_vi3(MotifInstance(g, {1: 1})) == [1]
        assert graph_motif_vi3(MotifInstance(g, {})) == []

    def test_refuses_high_integrity(self):
        k5 = Graph(5, set(complete_graph(5).edges), colors={v: 0 for v in range(5)})
        with pytest.raises(PreconditionError):
            graph_motif_vi3(MotifInstance(k5, {0: 2}))

    def test_motif_spanning_a_separator(self):
        # two triangles joined through one cut vertex; vi = 3 exactly
        g = Graph(5, {(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)},
                  colors={0: 0, 1: 0, 2: 1, 3: 2, 4: 2})
        got = graph_motif_vi3(MotifInstance(g, {0: 1, 1: 1, 2: 1}))
        assert got is not None
        assert verify_motif(g, {0: 1, 1: 1, 2: 1}, got)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_oracle(self, seed):
        rng = random.Random(seed)
        base = rand_vi_graph(rng, rng.randint(3, 8), k=3)
        g = Graph(base.n, base.edges,
                  colors={v: rng.randrange(3) for v in range(base.n)})
        motif = {}
        for c in sorted(set(g.colors.values())):
            if rng.random() < 0.7:
                motif[c] = rng.randint(1, 2)
        got = graph_motif_vi3(MotifInstance(g, motif))
        want = oracle_motif(g, motif, budget=BIG_BUDGET)
        assert (got is None) == (want is None)
        if got is not None:
            assert verify_motif(g, motif, got)


class TestBinaryOrientation:
    def test_frozen_values(self):
        k2 = Graph(2, {(0, 1)}, weights={(0, 1): 5})
        assert binary_mmoo_vc2(k2, 4) is None
        got = binary_mmoo_vc2(k2, 5)
        assert got is not None and verify_mmoo(k2, 5, got)
        c4 = _unit(cycle_graph(4))
        got = binary_mmoo_vc2(c4, 1)
        assert isinstance(got, Orientation)
        assert got.max_outdegree(c4) <= 1
        p3 = _unit(path_graph(3))
        got = binary_mmoo_vc2(p3, 1)
        assert got is not None and verify_mmoo(p3, 1, got)

    def test_refuses_large_cover(self):
        k33 = Graph(6, {(i, j + 3) for i in range(3) for j in range(3)},
                    weights={(i, j + 3): 1 for i in range(3) for j in range(3)})
        with pytest.raises(PreconditionError):
            binary_mmoo_vc2(k33, 9)

    def test_the_cover_precondition_asks_for_no_cover_above_2(self, monkeypatch):
        # a minimum vertex cover costs time exponential in its size; the
        # precondition only has to know whether one of size 2 exists
        budgets = []
        real = integrity.cover_at_most

        def bounded(edges, k):
            budgets.append(k)
            assert k <= 2, f"asked for a cover of up to {k} vertices"
            return real(edges, k)

        monkeypatch.setattr(integrity, "cover_at_most", bounded)
        monkeypatch.setattr(poly, "cover_at_most", bounded, raising=False)
        rng = random.Random("vc2-precondition")
        edges = {(u, v) for u in range(36) for v in range(u + 1, 36) if rng.random() < 0.25}
        with pytest.raises(PreconditionError):
            binary_mmoo_vc2(Graph(36, edges, weights={e: 1 for e in edges}), 9)
        assert budgets

    def test_input_validation(self):
        with pytest.raises(ValueError):
            binary_mmoo_vc2(path_graph(2), 1)
        with pytest.raises(ValueError):
            binary_mmoo_vc2(_unit(path_graph(2)), -1)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_oracle(self, seed):
        rng = random.Random(seed)
        base = rand_vc_graph(rng, rng.randint(2, 7), k=2)
        g = Graph(base.n, base.edges,
                  weights={e: rng.randint(1, 6) for e in base.edges})
        r = rng.randint(0, 8)
        got = binary_mmoo_vc2(g, r)
        want = oracle_mmoo(g, r, budget=BIG_BUDGET) if g.m else {}
        assert (got is None) == (want is None)
        if got is not None:
            assert verify_mmoo(g, r, got)


class TestSteinerForest:
    def test_frozen_values(self):
        k3 = Graph(3, {(0, 1), (1, 2), (0, 2)},
                   weights={(0, 1): 3, (1, 2): 1, (0, 2): 1})
        weight, edges = steiner_forest_xp_vc(SteinerInstance(k3, ((0, 1),)))
        assert weight == 2 and edges == [(0, 2), (1, 2)]
        p4 = _unit(path_graph(4))
        weight, edges = steiner_forest_xp_vc(SteinerInstance(p4, ((0, 1), (2, 3))))
        assert weight == 2 and edges == [(0, 1), (2, 3)]

    def test_impossible(self):
        g = _unit(Graph(4, {(0, 1), (2, 3)}))
        assert steiner_forest_xp_vc(SteinerInstance(g, ((0, 2),))) is None

    def test_no_terminals(self):
        assert steiner_forest_xp_vc(SteinerInstance(_unit(path_graph(3)), ())) == (0, [])

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_oracle(self, seed):
        rng = random.Random(seed)
        base = rand_graph(rng, rng.randint(2, 6), p=0.5)
        if base.m > 10:
            return
        g = Graph(base.n, base.edges,
                  weights={e: rng.randint(1, 5) for e in base.edges})
        pool = list(range(g.n))
        rng.shuffle(pool)
        terminals = []
        while len(pool) >= 2 and len(terminals) < 2 and rng.random() < 0.8:
            size = rng.randint(2, min(3, len(pool)))
            terminals.append(tuple(sorted(pool[:size])))
            pool = pool[size:]
        si = SteinerInstance(g, tuple(terminals))
        got = steiner_forest_xp_vc(si)
        want = oracle_steiner_forest(g, [set(t) for t in terminals], budget=BIG_BUDGET)
        assert (got is None) == (want is None)
        if got is not None:
            assert got[0] == want[0]
            assert verify_steiner_forest(g, [set(t) for t in terminals],
                                         got[1], got[0])


class TestUnitForestKernel:
    def test_star_drops_spare_leaves(self):
        g = star_graph(5)
        si = SteinerInstance(Graph(g.n, set(g.edges)), ((1, 2),))
        reduced, delta, trace = usf_kernelize(si)
        assert delta == 0
        assert reduced.graph.n == 4
        assert [e[0] for e in trace.events] == ["rule3", "rule3"]
        assert usf_solve(si) == (2, [(0, 1), (0, 2)])

    def test_leaf_terminals_fold_into_budget(self):
        g = star_graph(3)
        si = SteinerInstance(Graph(g.n, set(g.edges)), ((1, 2, 3),))
        reduced, delta, trace = usf_kernelize(si)
        assert delta == 1
        assert [e[0] for e in trace.events] == ["rule1"]
        assert usf_solve(si) == (3, [(0, 1), (0, 2), (0, 3)])

    def test_budget_shifts_with_delta(self):
        g = star_graph(3)
        si = SteinerInstance(Graph(g.n, set(g.edges)), ((1, 2, 3),), budget=5)
        reduced, delta, _ = usf_kernelize(si)
        assert reduced.budget == 5 - delta

    def test_edgeless_terminals_are_infeasible(self):
        assert usf_solve(SteinerInstance(Graph(3), ((0, 1),))) is None
        assert usf_solve(SteinerInstance(Graph(4), ((0, 1), (2, 3)))) is None

    def test_split_terminal_set_collapses_to_witness(self):
        star = star_graph(3)
        g = Graph(5, set(star.edges))  # vertex 4 stays isolated
        si = SteinerInstance(g, ((1, 4),), budget=7)
        reduced, delta, trace = usf_kernelize(si)
        assert trace.events == [("infeasible",)]
        assert delta == 0
        assert reduced.graph.n == 2 and reduced.graph.m == 0
        assert reduced.terminals == ((0, 1),)
        assert reduced.budget == 7
        assert usf_solve(si) is None

    def test_rejects_weighted_input(self):
        heavy = Graph(2, {(0, 1)}, weights={(0, 1): 2})
        with pytest.raises(ValueError):
            usf_kernelize(SteinerInstance(heavy, ((0, 1),)))

    def test_rejects_non_cover(self):
        si = SteinerInstance(path_graph(4), ((0, 3),))
        with pytest.raises(ValueError):
            usf_kernelize(si, cover=[0])

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_kernel_preserves_optimum(self, seed):
        rng = random.Random(seed)
        base = rand_graph(rng, rng.randint(2, 7), p=0.45)
        if base.m > 10:
            return
        pool = list(range(base.n))
        rng.shuffle(pool)
        terminals = []
        while len(pool) >= 2 and len(terminals) < 2 and rng.random() < 0.8:
            size = rng.randint(2, min(3, len(pool)))
            terminals.append(tuple(sorted(pool[:size])))
            pool = pool[size:]
        si = SteinerInstance(base, tuple(terminals))
        got = usf_solve(si)
        want = oracle_usf(base, [set(t) for t in terminals], budget=BIG_BUDGET)
        assert (got is None) == (want is None)
        if got is not None:
            assert got[0] == want[0]
            assert verify_steiner_forest(base, [set(t) for t in terminals],
                                         got[1], got[0])
