import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from viforge import graphs, typesys
from viforge.graphs import Graph, anchored_isomorphic, components, induced, path_graph, star_graph
from viforge.integrity import vertex_integrity
from viforge.oracles import (
    verify_cds,
    verify_cvc,
    verify_ecp,
    verify_eqcoloring,
    verify_imbalance,
    verify_mcis,
    verify_mcs,
    verify_precoloring,
)
from viforge.solvers.capacitated import cds_vi, cvc_vi
from viforge.solvers.coloring import (
    equitable_coloring_vi,
    equitable_connected_partition_vi,
    precoloring_extension_vi,
)
from viforge.solvers.common_subgraph import mcs_vi, mcis_vi
from viforge.solvers.imbalance import imbalance_vi
from viforge.typesys import (
    MODES,
    classify,
    classify_detailed,
    enumerate_decompositions,
    g_type_of,
    labelled_code,
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


def test_subset_pattern_is_anchor_aware():
    # path 0-1-2 anchored at 0: marking (label 1) the near vertex differs
    # from marking the far one
    p3 = path_graph(3)
    near = labelled_code(p3, [0], [1, 2], {1: 1, 2: 0})
    far = labelled_code(p3, [0], [1, 2], {1: 0, 2: 1})
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
        capacities=None if g.capacities is None else {perm[v]: c for v, c in g.capacities.items()},
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


def _reference_classify_detailed(g: Graph, s_list, mode):
    """classify_detailed with a canonical form computed for every
    component: [(code, anchors, size, member lists, canonical orders)]."""
    groups = {}
    for comp in components(g, set(s_list)):
        code, order = typesys._component_form(g, s_list, comp, mode)
        comps, orders = groups.setdefault(code, ([], []))
        comps.append(comp)
        orders.append(order)
    return [(code, len(s_list), len(comps[0]), comps, tuple(orders))
            for code, (comps, orders) in sorted(groups.items())]


def test_classify_detailed_equals_a_canonical_form_per_component():
    # wide-style graphs: one or two hubs and many small chunks with random
    # hub links, capacities and colors, so many components share a
    # pattern and many share a shape but differ in hub links or
    # attributes; relabelled copies list each pattern in other orders
    rng = random.Random(23)
    components_seen = types_seen = 0
    for _ in range(12):
        g = rand_vi_graph(rng, rng.randint(40, 90), rng.randint(3, 4))
        g = with_colors(rng, with_caps(rng, g, by_degree=False), 2)
        s_list = sorted(vertex_integrity(g)[1].separator)
        rng.shuffle(s_list)
        perm = list(range(g.n))
        rng.shuffle(perm)
        copy = _relabel_with_colors(g, perm)
        for h, anchors in ((g, s_list), (copy, [perm[v] for v in s_list])):
            for mode in MODES:
                got = [(t.code, t.anchor_count, t.size, comps, t.orders)
                       for t, comps in classify_detailed(h, anchors, mode)]
                assert got == _reference_classify_detailed(h, anchors, mode)
                components_seen += sum(len(comps) for *_, comps, _ in got)
                types_seen += len(got)
    assert types_seen >= 500 and components_seen >= 3 * types_seen, (types_seen, components_seen)


def test_a_memo_shared_across_graphs_anchor_orders_and_modes_changes_nothing():
    # one memo for every call: the same edges with capacities and colors
    # drawn again (so anchors keep their adjacency and components often
    # their pattern, while anchor attributes change), other anchor orders
    # (so anchor adjacency moves), and all three modes
    rng = random.Random(31)
    memo = {}
    calls = components_seen = 0
    for _ in range(30):
        base = rand_vi_graph(rng, rng.randint(8, 40), rng.randint(2, 4))
        s_list = sorted(vertex_integrity(base)[1].separator)
        for _ in range(3):
            g = with_colors(rng, with_caps(rng, base, by_degree=False), 2)
            anchors = list(s_list)
            rng.shuffle(anchors)
            for mode in MODES:
                got = [(t.code, t.anchor_count, t.size, comps, t.orders)
                       for t, comps in classify_detailed(g, anchors, mode, memo=memo)]
                assert got == _reference_classify_detailed(g, anchors, mode)
                calls += 1
                components_seen += sum(len(comps) for *_, comps, _ in got)
    forms = sum(len(patterns) for patterns in memo.values())
    # the memo is shared: anchor rows and patterns recur across calls
    assert len(memo) < calls / 2 and forms < components_seen / 4, (len(memo), forms)


def test_classify_detailed_over_given_components_reads_as_on_the_induced_copy():
    # anchors from part of S plus an extension Z, grouped over the
    # components of G - S - Z: the separator vertices left out are as if
    # deleted, so the result is the one on the copy of G without them,
    # mapped back to the labels of G
    rng = random.Random(37)
    skipped_links = 0
    for _ in range(40):
        g = rand_vi_graph(rng, rng.randint(6, 30), rng.randint(2, 4))
        g = with_colors(rng, with_caps(rng, g, by_degree=False), 2)
        sep = sorted(vertex_integrity(g)[1].separator)
        kept = [v for v in sep if rng.random() < 0.5]
        rest = [v for v in range(g.n) if v not in sep]
        z = rng.sample(rest, min(len(rest), rng.randint(0, 2)))
        rho = kept + z
        rng.shuffle(rho)
        comps = components(g, set(sep) | set(z))
        h, o2n = induced(g, rest + kept)
        n2o = {new: old for old, new in o2n.items()}
        for mode in MODES:
            got = [(t.code, t.anchor_count, t.size, members, t.orders)
                   for t, members in classify_detailed(g, rho, mode, comps=comps)]
            want = [(t.code, t.anchor_count, t.size, [[n2o[v] for v in c] for c in members],
                     tuple(tuple(n2o[v] for v in order) for order in t.orders))
                    for t, members in classify_detailed(h, [o2n[v] for v in rho], mode)]
            assert got == want
        left_out = set(sep) - set(kept)
        skipped_links += sum(len(g.neighbors(v) & left_out) for c in comps for v in c)
    assert skipped_links >= 40, skipped_links


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
            for gi, (t, comps) in enumerate(groups):
                rep = comps[0]
                for j, comp in enumerate(comps):
                    phi = t.member_map(s_list, j)
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
                    assert not nx.is_isomorphic(_nx_anchored(nx, g, s_list, rep, mode),
                                                _nx_anchored(nx, g, s_list, other, mode),
                                                node_match=same_key)
                    refused += len(rep) == len(other)
    # the seeds must reach non-identity maps and same-size pairs of
    # different types, or the checks above prove little
    assert mapped >= 100 and refused >= 100


def _reference_isomorphic(g1, g2, anchors1, anchors2, respect_capacities, respect_colors):
    """Anchored isomorphism search over two whole graphs, as it ran on
    induced copies before the search worked in place; the reference for
    ``anchored_isomorphic`` and the maps of ``ComponentType.member_map``."""
    if g1.n != g2.n or g1.m != g2.m:
        return None
    adj1 = g1.adjacency()
    adj2 = g2.adjacency()

    def attr_ok(u, x):
        if respect_capacities and g1.capacities[u] != g2.capacities[x]:
            return False
        if respect_colors and g1.colors[u] != g2.colors[x]:
            return False
        return True

    mapping = {}
    used = set()
    for a, b in zip(anchors1, anchors2):
        if len(adj1[a]) != len(adj2[b]) or not attr_ok(a, b):
            return None
        mapping[a] = b
        used.add(b)
    for i, a in enumerate(anchors1):
        for a2 in anchors1[i + 1:]:
            if g1.has_edge(a, a2) != g2.has_edge(mapping[a], mapping[a2]):
                return None
    free = sorted((v for v in range(g1.n) if v not in mapping), key=lambda v: (-len(adj1[v]), v))

    def extend(idx):
        if idx == len(free):
            return True
        u = free[idx]
        for x in range(g2.n):
            if x in used or len(adj2[x]) != len(adj1[u]) or not attr_ok(u, x):
                continue
            if all((w in adj1[u]) == (img in adj2[x]) for w, img in mapping.items()):
                mapping[u] = x
                used.add(x)
                if extend(idx + 1):
                    return True
                del mapping[u]
                used.discard(x)
        return False

    return dict(mapping) if extend(0) else None


def _check_member_map(g, s_list, rep, comp, phi, mode):
    """``phi`` maps S + rep one-to-one onto S + comp, fixes S pointwise,
    keeps edges and non-edges, and keeps what ``mode`` respects."""
    domain = s_list + rep
    assert sorted(phi) == sorted(domain)
    assert sorted(phi.values()) == sorted(s_list + comp)
    assert all(phi[s] == s for s in s_list)
    assert all(g.has_edge(u, v) == g.has_edge(phi[u], phi[v])
               for i, u in enumerate(domain) for v in domain[i + 1:])
    if mode == "capacity":
        assert all(g.capacities[v] == g.capacities[phi[v]] for v in domain)
    if mode == "color":
        assert all(g.colors[v] == g.colors[phi[v]] for v in domain)


def test_component_maps_are_valid_where_the_search_finds_a_map():
    # The type's map pairs canonical orders, the reference places vertices
    # by falling degree, so the two can pick different maps when S + rep
    # has automorphisms (with S empty, the path 0-2-3-1 against the path
    # 4-7-6-5 is one such pair: the two maps differ by the reversal).  So
    # each map is checked for what makes it a map, and the two must agree
    # on which components have one.
    compared = refused = 0
    for seed in range(60):
        rng = random.Random(seed)
        g = rand_vi_graph(rng, rng.randint(4, 14), rng.randint(2, 5))
        g = with_colors(rng, with_caps(rng, g, by_degree=False), 2)
        s_list = sorted(vertex_integrity(g)[1].separator)
        rng.shuffle(s_list)
        for mode in MODES:
            groups = classify_detailed(g, s_list, mode)
            flags = {"respect_capacities": mode == "capacity", "respect_colors": mode == "color"}
            for t, comps in groups:
                rep = comps[0]
                sub1, m1 = induced(g, s_list + rep)
                anchors1 = [m1[s] for s in s_list]
                # every member of the group (member j at index j), and one
                # component of each other group that no map reaches
                others = [cs[0] for _, cs in groups if cs[0] not in comps]
                for j, comp in enumerate(comps + others):
                    sub2, m2 = induced(g, s_list + comp)
                    anchors2 = [m2[s] for s in s_list]
                    want = _reference_isomorphic(sub1, sub2, anchors1, anchors2, **flags)
                    assert anchored_isomorphic(sub1, sub2, anchors1, anchors2, **flags) == want
                    assert (want is None) == (j >= len(comps))
                    if want is None:
                        refused += 1
                        continue
                    _check_member_map(g, s_list, rep, comp, t.member_map(s_list, j), mode)
                    compared += comp != rep
    assert compared >= 300 and refused >= 300


def test_type_codes_refuse_more_than_255_anchors():
    # the code header holds each count in one byte; 256 anchors must not
    # read as 0
    star = star_graph(256)
    with pytest.raises(ValueError):
        type_of(star, range(1, 257), [0])
    assert type_of(star_graph(255), range(1, 256), [0]).anchor_count == 255


def test_solvers_make_no_isomorphism_search(monkeypatch):
    # Equal codes give the map between the components of one type, so no
    # solver searches for one: every anchored isomorphism search of
    # viforge.graphs raises, at every name in the package that binds it.
    searches = [fn for name, fn in vars(graphs).items()
                if name.startswith("anchored_") and callable(fn)]

    def refuse(*args, **kwargs):
        raise AssertionError("isomorphism search on the solver path")

    for name, module in list(sys.modules.items()):
        if name == "viforge" or name.startswith("viforge."):
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in searches):
                    monkeypatch.setattr(module, attr, refuse)

    for seed in (1, 4, 9, 11):
        rng = random.Random(seed)
        g = rand_vi_graph(rng, 8, 3)
        k = vertex_integrity(g)[0]
        value, order = imbalance_vi(g)
        assert verify_imbalance(g, order, value)
        gc = with_caps(rng, g, by_degree=True)
        got = cvc_vi(gc)
        assert got is not None and verify_cvc(gc, got[1], got[2])
        gd = with_caps(rng, g, by_degree=False)
        got = cds_vi(gd)
        assert got is not None and verify_cds(gd, got[1], got[2])
        # both equitable colouring branches: r <= 2k and r > 2k
        for r in (2, 2 * k + 1):
            got = equitable_coloring_vi(g, r)
            assert got is None or verify_eqcoloring(g, r, got)
        pre = {0: 1}
        got = precoloring_extension_vi(g, pre, 3)
        assert got is None or verify_precoloring(g, pre, 3, got)
        h = rand_vi_graph(rng, 6, 3)
        for solve, verify in ((mcs_vi, verify_mcs), (mcis_vi, verify_mcis)):
            value, mapping = solve(g, h)
            assert verify(g, h, mapping, value)

    # an equitable connected partition with r <= vi < n // r, whose
    # separator splits off a type of two components
    g = rand_vi_graph(random.Random(20), 10, 3)
    k, vis = vertex_integrity(g)
    assert 2 <= k < g.n // 2
    assert 2 in [len(cs) for _, cs in classify_detailed(g, sorted(vis.separator))]
    parts = equitable_connected_partition_vi(g, 2)
    assert parts is not None and verify_ecp(g, 2, parts)
