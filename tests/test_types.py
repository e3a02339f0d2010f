import random

import pytest
from hypothesis import given, settings, strategies as st

from viforge.graphs import Graph, components, path_graph, star_graph
from viforge.integrity import vertex_integrity
from viforge.typesys import (
    MODES,
    classify,
    classify_detailed,
    component_map,
    enumerate_decompositions,
    g_type_of,
    labelled_code,
    subset_pattern_code,
    type_of,
)

from conftest import rand_graph, rand_vi_graph, with_caps, with_colors


def test_star_leaves_collapse_to_one_type():
    g = star_graph(5)
    counts = classify(g, [0])
    assert len(counts) == 1
    (t, n), = counts.items()
    assert n == 5
    assert t.anchor_count == 1 and t.size == 1


def test_two_types_without_separator():
    # three disjoint edges plus two isolated vertices
    g = Graph(8, {(0, 1), (2, 3), (4, 5)})
    counts = classify(g, [])
    assert sorted(counts.values()) == [2, 3]
    sizes = {t.size: n for t, n in counts.items()}
    assert sizes == {2: 3, 1: 2}


def test_detailed_groups_match_counts():
    g = Graph(8, {(0, 1), (2, 3), (4, 5)})
    detailed = classify_detailed(g, [])
    assert [t.code for t, _ in detailed] == sorted(t.code for t, _ in detailed)
    assert {t: len(cs) for t, cs in detailed} == classify(g, [])
    for t, cs in detailed:
        for comp in cs:
            assert comp in components(g)


def test_type_of_rejects_non_components():
    p4 = path_graph(4)
    with pytest.raises(ValueError):
        type_of(p4, [1], [2])  # [2, 3] is the component, not [2]
    with pytest.raises(ValueError):
        type_of(p4, [0, 0], [2, 3])
    with pytest.raises(ValueError):
        type_of(p4, [9], [2, 3])


def test_color_mode_splits_plain_types():
    g = Graph(3, {(0, 1), (0, 2)}, colors={0: 0, 1: 1, 2: 2})
    assert len(classify(g, [0], mode="plain")) == 1
    assert len(classify(g, [0], mode="color")) == 2


def test_capacity_mode_needs_capacities():
    g = path_graph(3)
    with pytest.raises(ValueError):
        classify(g, [0], mode="capacity")
    with pytest.raises(ValueError):
        classify(g, [0], mode="nope")


def test_anchor_order_matters():
    # leaf 1 hangs off anchor 0; swapping the anchor order must change the code
    g = Graph(3, {(0, 2)})
    t_a = type_of(g, [0, 1], [2])
    t_b = type_of(g, [1, 0], [2])
    assert t_a.code != t_b.code


def test_subset_pattern_codes():
    p3 = path_graph(3)
    ends = subset_pattern_code(p3, [], [0, 1, 2], {0})
    other_end = subset_pattern_code(p3, [], [0, 1, 2], {2})
    middle = subset_pattern_code(p3, [], [0, 1, 2], {1})
    assert ends == other_end
    assert ends != middle
    with pytest.raises(ValueError):
        subset_pattern_code(p3, [], [0, 1], {2})


def test_subset_pattern_is_anchor_aware():
    # path 0-1-2 anchored at 0: marking the near vertex differs from the far one
    p3 = path_graph(3)
    near = subset_pattern_code(p3, [0], [1, 2], {1})
    far = subset_pattern_code(p3, [0], [1, 2], {2})
    assert near != far


def test_labelled_codes():
    p3 = path_graph(3)
    a = labelled_code(p3, [], [0, 1, 2], {0: 7, 1: 0, 2: 0})
    b = labelled_code(p3, [], [0, 1, 2], {0: 0, 1: 0, 2: 7})
    c = labelled_code(p3, [], [0, 1, 2], {0: 0, 1: 7, 2: 0})
    assert a == b
    assert a != c
    with pytest.raises(ValueError):
        labelled_code(p3, [], [0, 1, 2], {0: 1})


def test_piece_type_validation():
    g = Graph(3, {(0, 1), (1, 2)})
    with pytest.raises(ValueError):
        g_type_of(g, [0], [0, 1], [])  # piece overlaps the anchor set
    with pytest.raises(ValueError):
        g_type_of(g, [0], [1, 2], [], f=set())  # disconnected through kept edges
    with pytest.raises(ValueError):
        g_type_of(g, [0], [1, 2], [(2, 0)])  # (2,0) is not an edge of g
    pt = g_type_of(g, [0], [1, 2], [(1, 0)])
    assert pt.anchor_count == 1 and pt.size == 2 and pt.n_edges == 2


def test_decomposition_count_pendant_vertex():
    g = Graph(2, {(0, 1)})
    out = enumerate_decompositions(g, [0], [1])
    assert len(out) == 3


def test_decomposition_count_detached_edge():
    g = Graph(3, {(1, 2)})
    out = enumerate_decompositions(g, [0], [1, 2])
    assert len(out) == 4


def test_decomposition_count_empty_component():
    g = Graph(1)
    out = enumerate_decompositions(g, [0], [])
    assert len(out) == 1
    assert list(out) == [()]


def test_decomposition_witnesses_are_valid():
    g = Graph(3, {(0, 1), (1, 2), (0, 2)})
    out = enumerate_decompositions(g, [0], [1, 2])
    for key, pieces in out.items():
        assert len(key) == len(pieces)
        used = set()
        for vs, f, b in pieces:
            assert not (set(vs) & used)
            used |= set(vs)
            assert used <= {1, 2}
            for e in f:
                assert set(e) <= set(vs)
            for (x, r) in b:
                assert x in vs and r == 0


def test_induced_mode_is_coarser():
    g = Graph(3, {(0, 1), (1, 2), (0, 2)})
    full = enumerate_decompositions(g, [0], [1, 2])
    ind = enumerate_decompositions(g, [0], [1, 2], induced_mode=True)
    assert set(ind) <= set(full)
    assert len(ind) < len(full)


def _relabel_with_colors(g: Graph, perm):
    return Graph(
        g.n,
        {(perm[u], perm[v]) for (u, v) in g.edges},
        colors=None if g.colors is None else {perm[v]: c for v, c in g.colors.items()},
    )


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_classification_invariant_under_relabeling(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    g = rand_graph(rng, n)
    mode = "plain"
    if rng.random() < 0.5:
        g = Graph(n, g.edges, colors={v: rng.randrange(2) for v in range(n)})
        mode = "color"
    s = rng.sample(range(n), rng.randint(0, min(2, n)))
    perm = list(range(n))
    rng.shuffle(perm)
    h = _relabel_with_colors(g, perm)
    s2 = [perm[v] for v in s]
    left = sorted((t.code, c) for t, c in classify(g, s, mode=mode).items())
    right = sorted((t.code, c) for t, c in classify(h, s2, mode=mode).items())
    assert left == right


def _nx_anchored(nx, g: Graph, s_list, comp, mode):
    """networkx graph on S + comp; anchors carry their position in S, and
    every vertex carries the attribute ``mode`` types respect."""
    h = nx.Graph()
    attrs = {"capacity": g.capacities, "color": g.colors}.get(mode)
    for v in s_list + comp:
        anchor = s_list.index(v) if v in s_list else -1
        h.add_node(v, key=(anchor, attrs[v] if attrs is not None else 0))
    keep = set(h)
    h.add_edges_from((u, v) for (u, v) in g.edges if u in keep and v in keep)
    return h


def test_component_map_carries_rep_onto_every_component_of_its_type():
    nx = pytest.importorskip("networkx")
    same_key = nx.algorithms.isomorphism.categorical_node_match("key", None)
    mapped = refused = 0
    for seed in range(40):
        rng = random.Random(seed)
        g = rand_vi_graph(rng, rng.randint(4, 11), rng.randint(2, 4))
        g = with_colors(rng, with_caps(rng, g, by_degree=False), 2)
        s_list = sorted(vertex_integrity(g)[1].separator)
        for mode in MODES:
            groups = classify_detailed(g, s_list, mode)
            for gi, (_, comps) in enumerate(groups):
                rep = comps[0]
                for comp in comps:
                    phi = component_map(g, s_list, rep, comp, mode)
                    assert all(phi[s] == s for s in s_list)
                    assert sorted(phi[v] for v in rep) == comp
                    assert set(phi) == set(s_list) | set(rep)
                    for u in phi:
                        for v in phi:
                            assert g.has_edge(u, v) == g.has_edge(phi[u], phi[v])
                    if mode == "capacity":
                        assert all(g.capacities[phi[v]] == g.capacities[v] for v in phi)
                    if mode == "color":
                        assert all(g.colors[phi[v]] == g.colors[v] for v in phi)
                    if comp == rep:
                        assert all(phi[v] == v for v in phi)
                    else:
                        mapped += 1
                for _, others in groups[gi + 1:]:
                    other = others[0]
                    with pytest.raises(RuntimeError):
                        component_map(g, s_list, rep, other, mode)
                    assert not nx.is_isomorphic(_nx_anchored(nx, g, s_list, rep, mode),
                                                _nx_anchored(nx, g, s_list, other, mode),
                                                node_match=same_key)
                    refused += len(rep) == len(other)
    # the seeds must reach non-identity maps and same-size pairs of
    # different types, or the checks above prove little
    assert mapped >= 100 and refused >= 100


def test_component_map_rejects_unknown_mode():
    g = star_graph(2)
    with pytest.raises(ValueError):
        component_map(g, [0], [1], [2], "nope")
