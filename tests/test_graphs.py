import random

import pytest
from hypothesis import given, settings, strategies as st

from viforge.graphs import (
    Graph,
    anchored_isomorphic,
    complete_graph,
    components,
    cycle_graph,
    edge_key,
    induced,
    is_connected_subset,
    path_graph,
    star_graph,
)

from conftest import rand_graph, with_caps, with_colors, with_weights


def test_edge_key_orders_endpoints():
    assert edge_key(3, 1) == (1, 3)
    assert edge_key(1, 3) == (1, 3)


def test_edges_normalised_on_construction():
    g = Graph(3, {(2, 0), (0, 2), (1, 2)})
    assert g.edges == {(0, 2), (1, 2)}
    assert g.m == 2


def test_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph(2, {(0, 0)})
    with pytest.raises(ValueError):
        Graph(2, {(0, 5)})
    with pytest.raises(ValueError):
        Graph(-1, set())
    with pytest.raises(ValueError):
        Graph(2, {(0, 1)}, capacities={0: 1})
    with pytest.raises(ValueError):
        Graph(2, {(0, 1)}, capacities={0: 1, 1: 0})
    with pytest.raises(ValueError):
        Graph(2, {(0, 1)}, colors={0: 1})
    with pytest.raises(ValueError):
        Graph(2, {(0, 1)}, weights={})
    with pytest.raises(ValueError):
        Graph(2, {(0, 1)}, weights={(0, 1): 0})


def test_standard_families():
    p4 = path_graph(4)
    assert p4.edges == {(0, 1), (1, 2), (2, 3)}
    c4 = cycle_graph(4)
    assert c4.edges == {(0, 1), (1, 2), (2, 3), (0, 3)}
    k4 = complete_graph(4)
    assert k4.m == 6
    s3 = star_graph(3)
    assert s3.n == 4 and all(e[0] == 0 for e in s3.edges)


def test_degree_and_neighbors():
    g = star_graph(4)
    assert g.degree(0) == 4
    assert g.degree(1) == 1
    assert g.neighbors(0) == {1, 2, 3, 4}
    assert g.neighbors(2) == {0}


def test_components_sorted_by_smallest_vertex():
    g = Graph(6, {(4, 5), (0, 1)})
    assert components(g) == [[0, 1], [2], [3], [4, 5]]
    assert components(g, removed={0}) == [[1], [2], [3], [4, 5]]


def test_components_of_path_after_cut():
    p7 = path_graph(7)
    assert components(p7, removed={3}) == [[0, 1, 2], [4, 5, 6]]


def test_is_connected_subset():
    p5 = path_graph(5)
    assert is_connected_subset(p5, {1, 2, 3})
    assert not is_connected_subset(p5, {0, 2})
    assert is_connected_subset(p5, {4})
    assert is_connected_subset(p5, set())


def test_induced_renumbers_and_keeps_attributes():
    g = Graph(
        4,
        {(0, 1), (1, 2), (2, 3)},
        capacities={v: v + 1 for v in range(4)},
        colors={v: v % 2 for v in range(4)},
        weights={(0, 1): 5, (1, 2): 6, (2, 3): 7},
    )
    sub, remap = induced(g, {1, 3})
    assert remap == {1: 0, 3: 1}
    assert sub.n == 2 and sub.edges == set()
    assert sub.capacities == {0: 2, 1: 4}
    assert sub.colors == {0: 1, 1: 1}
    assert sub.weights == {}


def test_copy_is_independent():
    g = Graph(3, {(0, 1)}, colors={0: 0, 1: 0, 2: 1})
    h = g.copy()
    h.edges.add((1, 2))
    h.colors[2] = 9
    assert g.edges == {(0, 1)}
    assert g.colors[2] == 1


def test_anchored_isomorphism_path_reversal():
    p3 = path_graph(3)
    assert anchored_isomorphic(p3, p3, [0], [2]) == {0: 2, 1: 1, 2: 0}


def test_anchored_isomorphism_distinguishes_triangle_from_path():
    assert anchored_isomorphic(complete_graph(3), path_graph(3), [0], [0]) is None


def test_anchored_isomorphism_rejects_bad_anchor_lists():
    p3 = path_graph(3)
    with pytest.raises(ValueError):
        anchored_isomorphic(p3, p3, [0, 1], [2])
    with pytest.raises(ValueError):
        anchored_isomorphic(p3, p3, [0, 0], [1, 1])


def test_isomorphism_respects_colors_by_default():
    g1 = Graph(2, {(0, 1)}, colors={0: 0, 1: 1})
    g2 = Graph(2, {(0, 1)}, colors={0: 1, 1: 0})
    got = anchored_isomorphic(g1, g2)
    assert got == {0: 1, 1: 0}
    assert anchored_isomorphic(g1, g2, [0], [0]) is None
    assert anchored_isomorphic(g1, g2, [0], [0], respect_colors=False) is not None


def test_isomorphism_respects_capacities_by_default():
    g1 = Graph(2, {(0, 1)}, capacities={0: 1, 1: 2})
    g2 = Graph(2, {(0, 1)}, capacities={0: 2, 1: 1})
    assert anchored_isomorphic(g1, g2, [0], [0]) is None
    assert anchored_isomorphic(g1, g2, [0], [1]) == {0: 1, 1: 0}


def _relabel(g: Graph, perm: list) -> Graph:
    return Graph(
        g.n,
        {(perm[u], perm[v]) for (u, v) in g.edges},
        colors=None if g.colors is None else {perm[v]: c for v, c in g.colors.items()},
    )


@given(st.integers(0, 10_000), st.integers(1, 7))
@settings(max_examples=60, deadline=None)
def test_isomorphism_found_under_relabeling(seed, n):
    rng = random.Random(seed)
    g = rand_graph(rng, n)
    if rng.random() < 0.5:
        g = Graph(g.n, g.edges, colors={v: rng.randrange(2) for v in range(n)})
    perm = list(range(n))
    rng.shuffle(perm)
    h = _relabel(g, perm)
    got = anchored_isomorphic(g, h)
    assert got is not None
    for (u, v) in g.edges:
        assert h.has_edge(got[u], got[v])
    assert len(set(got.values())) == n
    if g.colors is not None:
        for v in range(n):
            assert g.colors[v] == h.colors[got[v]]


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_nonisomorphic_when_degree_sequences_differ(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    g = rand_graph(rng, n)
    h = rand_graph(random.Random(seed + 1), n)
    deg = lambda x: sorted(x.degree(v) for v in range(x.n))
    if deg(g) != deg(h) or g.m != h.m:
        assert anchored_isomorphic(g, h) is None


def test_adjacency_cache_matches_an_edge_scan():
    rng = random.Random(11)
    for _ in range(200):
        g = rand_graph(rng, rng.randint(0, 12), p=rng.choice([0.2, 0.5]))
        g = with_weights(rng, with_colors(rng, with_caps(rng, g, False), 3))
        scan = [{b if a == v else a for (a, b) in g.edges if v in (a, b)} for v in range(g.n)]
        assert list(g.adjacency()) == scan
        assert [g.neighbors(v) for v in range(g.n)] == scan
        assert [g.degree(v) for v in range(g.n)] == [len(nb) for nb in scan]
        vs = {v for v in range(g.n) if rng.random() < 0.6}
        sub, remap = induced(g, vs)
        kept = [(u, v) for (u, v) in sorted(g.edges) if u in vs and v in vs]
        assert sub.edges == {(remap[u], remap[v]) for (u, v) in kept}
        assert sub.weights == {(remap[u], remap[v]): g.weights[(u, v)] for (u, v) in kept}
        assert sub.capacities == {remap[v]: g.capacities[v] for v in vs}
        assert sub.colors == {remap[v]: g.colors[v] for v in vs}


def test_neighbour_sets_cannot_change_the_graph():
    g = path_graph(3)
    with pytest.raises(AttributeError):
        g.neighbors(1).add(0)
    with pytest.raises(TypeError):
        g.adjacency()[0] = frozenset({2})
    assert g.neighbors(1) == {0, 2} and g.adjacency()[0] == {1}


def test_validate_drops_the_cached_adjacency():
    h = path_graph(3)
    assert h.neighbors(0) == {1} and h.degree(2) == 1
    h.edges.add((0, 2))
    h.validate()
    assert h.neighbors(0) == {1, 2} and h.degree(2) == 2
    assert is_connected_subset(h, {0, 2})
    assert components(h, removed={1}) == [[0, 2]]
