import ast
from pathlib import Path

import pytest

import viforge.oracles
from viforge.graphs import Graph, complete_graph, cycle_graph, path_graph, star_graph
from viforge.oracles import (
    OracleBudget,
    OracleBudgetExceeded,
    imbalance_of_ordering,
    oracle_3dm,
    oracle_bandwidth,
    oracle_bin_packing,
    oracle_cds,
    oracle_cvc,
    oracle_ecp,
    oracle_eqcoloring,
    oracle_imbalance,
    oracle_mcis,
    oracle_mcs,
    oracle_mmoo,
    oracle_motif,
    oracle_partition,
    oracle_precoloring,
    oracle_steiner_forest,
    oracle_treedepth,
    oracle_usf,
    oracle_vertex_cover,
    oracle_vertex_integrity,
    verify_3dm,
    verify_bin_packing,
    verify_cds,
    verify_cvc,
    verify_ecp,
    verify_eqcoloring,
    verify_imbalance,
    verify_mcis,
    verify_mcs,
    verify_mmoo,
    verify_motif,
    verify_partition,
    verify_precoloring,
    verify_steiner_forest,
    verify_vi_set,
)

from conftest import BIG_BUDGET


def _weighted(g: Graph, w: int = 1) -> Graph:
    return Graph(g.n, set(g.edges), weights={e: w for e in g.edges})


class TestBudgets:
    def test_vertex_budget(self):
        with pytest.raises(OracleBudgetExceeded):
            oracle_vertex_integrity(path_graph(9))
        assert oracle_vertex_integrity(path_graph(9), budget=BIG_BUDGET)[0] == 5

    def test_ordering_budget(self):
        tight = OracleBudget(max_orderings=2)
        with pytest.raises(OracleBudgetExceeded):
            oracle_imbalance(path_graph(3), budget=tight)

    def test_edge_budget(self):
        tight = OracleBudget(max_edges=2)
        with pytest.raises(OracleBudgetExceeded):
            oracle_mmoo(_weighted(path_graph(4)), 1, budget=tight)

    def test_item_budget(self):
        with pytest.raises(OracleBudgetExceeded):
            oracle_partition([1] * 13)

    def test_subset_budget(self):
        tight = OracleBudget(max_subsets=1)
        with pytest.raises(OracleBudgetExceeded):
            oracle_3dm(2, [(0, 0, 0), (1, 1, 1), (0, 1, 1)], budget=tight)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("VIFORGE_ORACLE_MAX_VERTICES", "11")
        monkeypatch.setenv("VIFORGE_ORACLE_MAX_ITEMS", "3")
        b = OracleBudget.from_env()
        assert b.max_vertices == 11
        assert b.max_items == 3
        assert b.max_edges == OracleBudget().max_edges


class TestParameters:
    def test_integrity(self):
        k, wit = oracle_vertex_integrity(path_graph(7))
        assert k == 4
        assert verify_vi_set(path_graph(7), wit, 4)
        assert oracle_vertex_integrity(complete_graph(4))[0] == 4
        assert oracle_vertex_integrity(star_graph(5))[0] == 2
        assert oracle_vertex_integrity(Graph(0))[0] == 0

    def test_treedepth(self):
        assert oracle_treedepth(Graph(0)) == 0
        assert oracle_treedepth(Graph(3)) == 1
        assert oracle_treedepth(path_graph(2)) == 2
        assert oracle_treedepth(path_graph(7)) == 3
        assert oracle_treedepth(complete_graph(4)) == 4
        assert oracle_treedepth(star_graph(5)) == 2

    def test_vertex_cover(self):
        assert len(oracle_vertex_cover(cycle_graph(5))) == 3
        assert oracle_vertex_cover(star_graph(4)) == [0]
        assert oracle_vertex_cover(Graph(3)) == []


class TestOrderings:
    def test_imbalance_values(self):
        assert oracle_imbalance(path_graph(3))[0] == 2
        assert oracle_imbalance(Graph(4))[0] == 0
        assert oracle_imbalance(cycle_graph(4))[0] == 4
        assert oracle_imbalance(star_graph(3))[0] == 4

    def test_imbalance_witness(self):
        val, ordering = oracle_imbalance(cycle_graph(4))
        assert verify_imbalance(cycle_graph(4), ordering, val)
        assert not verify_imbalance(cycle_graph(4), ordering, val + 1)
        assert imbalance_of_ordering(path_graph(3), [0, 1, 2]) == 2
        with pytest.raises(ValueError):
            imbalance_of_ordering(path_graph(3), [0, 1, 1])

    def test_bandwidth(self):
        for n in (2, 5, 7):
            val, ordering = oracle_bandwidth(path_graph(n))
            assert val == 1
            assert sorted(ordering) == list(range(n))
        assert oracle_bandwidth(cycle_graph(4))[0] == 2
        assert oracle_bandwidth(complete_graph(4))[0] == 3


class TestCommonSubgraph:
    def test_mcs(self):
        k3 = complete_graph(3)
        val, mapping = oracle_mcs(k3, k3)
        assert val == 3 and verify_mcs(k3, k3, mapping, val)
        assert oracle_mcs(path_graph(4), cycle_graph(4))[0] == 3
        assert oracle_mcs(star_graph(3), path_graph(4))[0] == 2
        assert oracle_mcs(Graph(0), k3) == (0, {})

    def test_mcis(self):
        k3 = complete_graph(3)
        for g in (k3, path_graph(4), cycle_graph(5)):
            val, mapping = oracle_mcis(g, g)
            assert val == g.n and verify_mcis(g, g, mapping, val)
        assert oracle_mcis(k3, path_graph(3))[0] == 2
        assert oracle_mcis(k3, Graph(3))[0] == 1


class TestCapacitated:
    def test_cvc(self):
        g = Graph(3, {(0, 1), (1, 2)}, capacities={0: 1, 1: 2, 2: 1})
        size, cover, assignment = oracle_cvc(g)
        assert size == 1 and cover == [1]
        assert verify_cvc(g, cover, assignment)
        unit = Graph(3, {(0, 1), (1, 2)}, capacities={v: 1 for v in range(3)})
        assert oracle_cvc(unit)[0] == 2
        k3 = Graph(3, {(0, 1), (1, 2), (0, 2)}, capacities={v: 1 for v in range(3)})
        assert oracle_cvc(k3)[0] == 3

    def test_cvc_bad_witness(self):
        k3 = Graph(3, {(0, 1), (1, 2), (0, 2)}, capacities={v: 1 for v in range(3)})
        assert not verify_cvc(k3, [0, 1], {(0, 1): 0, (0, 2): 0, (1, 2): 1})

    def test_cds(self):
        star = Graph(4, {(0, 1), (0, 2), (0, 3)},
                     capacities={0: 3, 1: 1, 2: 1, 3: 1})
        size, dset, assignment = oracle_cds(star)
        assert size == 1 and dset == [0]
        assert verify_cds(star, dset, assignment)
        tight = Graph(4, {(0, 1), (0, 2), (0, 3)},
                      capacities={0: 2, 1: 1, 2: 1, 3: 1})
        assert oracle_cds(tight)[0] == 2
        k2 = Graph(2, {(0, 1)}, capacities={0: 1, 1: 1})
        assert oracle_cds(k2)[0] == 1


class TestColoring:
    def test_precoloring(self):
        c4 = cycle_graph(4)
        got = oracle_precoloring(c4, {0: 1, 2: 1}, 2)
        assert got is not None and verify_precoloring(c4, {0: 1, 2: 1}, 2, got)
        assert oracle_precoloring(Graph(2, {(0, 1)}), {0: 1, 1: 1}, 2) is None
        k3 = complete_graph(3)
        got = oracle_precoloring(k3, {0: 2}, 3)
        assert got is not None and verify_precoloring(k3, {0: 2}, 3, got)

    def test_eqcoloring(self):
        k3 = complete_graph(3)
        got = oracle_eqcoloring(k3, 3)
        assert got is not None and verify_eqcoloring(k3, 3, got)
        assert oracle_eqcoloring(star_graph(3), 2) is None
        got = oracle_eqcoloring(cycle_graph(4), 2)
        assert got is not None and verify_eqcoloring(cycle_graph(4), 2, got)

    def test_ecp(self):
        got = oracle_ecp(path_graph(4), 2)
        assert got == [[0, 1], [2, 3]]
        assert verify_ecp(path_graph(4), 2, got)
        assert oracle_ecp(star_graph(3), 2) is None
        got = oracle_ecp(star_graph(3), 4)
        assert got is not None and verify_ecp(star_graph(3), 4, got)

    def test_ecp_bad_witness(self):
        assert not verify_ecp(path_graph(4), 2, [[0, 2], [1, 3]])


class TestMotif:
    def test_motif(self):
        g = Graph(3, {(0, 1), (1, 2)}, colors={0: 0, 1: 1, 2: 0})
        got = oracle_motif(g, {0: 1, 1: 1})
        assert got in ([0, 1], [1, 2])
        assert verify_motif(g, {0: 1, 1: 1}, got)
        assert oracle_motif(g, {0: 2}) is None
        assert oracle_motif(g, {1: 1}) == [1]
        assert oracle_motif(g, {}) == []
        assert not verify_motif(g, {0: 1}, [0, 2])


class TestOrientation:
    def test_mmoo(self):
        k2 = _weighted(Graph(2, {(0, 1)}), 5)
        assert oracle_mmoo(k2, 4) is None
        got = oracle_mmoo(k2, 5)
        assert got is not None and verify_mmoo(k2, 5, got)
        c4 = _weighted(cycle_graph(4))
        got = oracle_mmoo(c4, 1)
        assert got is not None and verify_mmoo(c4, 1, got)
        assert not verify_mmoo(c4, 0, got)


class TestForests:
    def test_steiner_forest(self):
        k3 = Graph(3, {(0, 1), (1, 2), (0, 2)},
                   weights={(0, 1): 3, (1, 2): 1, (0, 2): 1})
        weight, edges = oracle_steiner_forest(k3, [{0, 1}])
        assert weight == 2
        assert verify_steiner_forest(k3, [{0, 1}], edges, weight)
        p4 = _weighted(path_graph(4))
        weight, edges = oracle_usf(p4, [{0, 1}, {2, 3}])
        assert weight == 2 and edges == [(0, 1), (2, 3)]

    def test_disconnected_terminals(self):
        g = _weighted(Graph(4, {(0, 1), (2, 3)}))
        assert oracle_steiner_forest(g, [{0, 2}]) is None


class TestNumeric:
    def test_bin_packing(self):
        got = oracle_bin_packing([1, 1, 1, 1], 2)
        assert got is not None and verify_bin_packing([1, 1, 1, 1], 2, got)
        assert oracle_bin_packing([1, 1, 1], 2) is None
        got = oracle_bin_packing([2, 2, 1, 1], 2)
        assert got is not None and verify_bin_packing([2, 2, 1, 1], 2, got)
        assert oracle_bin_packing([2, 2, 2, 3], 3) is None
        with pytest.raises(ValueError):
            oracle_bin_packing([1, 0], 2)

    def test_partition(self):
        assert oracle_partition([1, 1]) == [0]
        assert oracle_partition([1, 2]) is None
        got = oracle_partition([1, 1, 1, 3])
        assert got is not None and verify_partition([1, 1, 1, 3], got)
        assert oracle_partition([1, 1, 1, 3], balanced=True) is None
        got = oracle_partition([1, 3, 1, 3], balanced=True)
        assert verify_partition([1, 3, 1, 3], got, balanced=True)

    def test_3dm(self):
        assert oracle_3dm(0, []) == []
        assert oracle_3dm(1, [(0, 0, 0)]) == [(0, 0, 0)]
        assert oracle_3dm(1, []) is None
        triples = [(0, 0, 0), (1, 1, 1)]
        got = oracle_3dm(2, triples)
        assert got is not None and verify_3dm(2, triples, got)
        assert oracle_3dm(2, [(0, 0, 0), (0, 1, 1)]) is None
        with pytest.raises(ValueError):
            oracle_3dm(1, [(0, 0, 5)])


def test_oracles_import_only_the_graph_layer_and_kernels():
    # the oracles check the solvers, so they share no solver code: only
    # the graph container, its component splitting and the scan kernels
    tree = ast.parse(Path(viforge.oracles.__file__).read_text(encoding="utf-8"))
    relative = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0}
    absolute = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    absolute += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0]
    assert relative == {"graphs", "_kernels"}
    assert not [name for name in absolute if name.split(".")[0] == "viforge"]
