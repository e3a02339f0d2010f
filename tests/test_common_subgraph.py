import random
from itertools import combinations, permutations
from math import comb
from pathlib import Path

from hypothesis import given, settings, strategies as st

from viforge import graphs
from viforge.graphs import (Graph, complete_graph, components, cycle_graph, induced, path_graph,
                            star_graph)
from viforge.instances import generate, parse_text
from viforge.integrity import vertex_integrity
from viforge.oracles import oracle_mcis, oracle_mcs, verify_mcis, verify_mcs
from viforge.solvers import common_subgraph
from viforge.solvers.common_subgraph import mcis_vi, mcs_vi
from viforge.typesys import classify_detailed

from conftest import BIG_BUDGET, rand_graph, rand_vi_graph


def test_mcs_frozen_values():
    k3 = complete_graph(3)
    val, mapping = mcs_vi(k3, k3)
    assert val == 3 and verify_mcs(k3, k3, mapping, val)

    val, mapping = mcs_vi(path_graph(4), cycle_graph(4))
    assert val == 3 and verify_mcs(path_graph(4), cycle_graph(4), mapping, val)

    val, mapping = mcs_vi(star_graph(3), path_graph(4))
    assert val == 2 and verify_mcs(star_graph(3), path_graph(4), mapping, val)


def test_mcis_frozen_values():
    for g in (complete_graph(3), path_graph(4), star_graph(4)):
        val, mapping = mcis_vi(g, g)
        assert val == g.n
        assert verify_mcis(g, g, mapping, val)

    k3 = complete_graph(3)
    val, mapping = mcis_vi(k3, path_graph(3))
    assert val == 2 and verify_mcis(k3, path_graph(3), mapping, val)

    val, mapping = mcis_vi(k3, Graph(3))
    assert val == 1 and verify_mcis(k3, Graph(3), mapping, val)


def test_degenerate_inputs():
    assert mcs_vi(Graph(0), complete_graph(3)) == (0, {})
    assert mcis_vi(Graph(0), Graph(0)) == (0, {})
    val, mapping = mcs_vi(Graph(1), Graph(1))
    assert val == 0 and len(mapping) <= 1


def test_asymmetric_sizes():
    big = cycle_graph(6)
    small = path_graph(3)
    val, mapping = mcs_vi(small, big)
    assert val == 2 and verify_mcs(small, big, mapping, val)
    val, mapping = mcs_vi(big, small)
    assert val == 2 and verify_mcs(big, small, mapping, val)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_mcs_matches_oracle(seed):
    rng = random.Random(seed)
    g1 = rand_graph(rng, rng.randint(1, 5), p=rng.choice([0.3, 0.5]))
    g2 = rand_graph(rng, rng.randint(1, 6), p=rng.choice([0.3, 0.5]))
    val, mapping = mcs_vi(g1, g2)
    want, _ = oracle_mcs(g1, g2, budget=BIG_BUDGET)
    assert val == want
    assert verify_mcs(g1, g2, mapping, val)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_mcis_matches_oracle(seed):
    rng = random.Random(seed)
    g1 = rand_graph(rng, rng.randint(1, 6), p=rng.choice([0.3, 0.5]))
    g2 = rand_graph(rng, rng.randint(1, 6), p=rng.choice([0.3, 0.5]))
    val, mapping = mcis_vi(g1, g2)
    want, _ = oracle_mcis(g1, g2, budget=BIG_BUDGET)
    assert val == want
    assert verify_mcis(g1, g2, mapping, val)


@given(st.integers(0, 10_000))
@settings(max_examples=12, deadline=None)
def test_mcs_on_low_integrity_pairs(seed):
    rng = random.Random(seed)
    g1 = rand_vi_graph(rng, rng.randint(4, 6), k=3)
    g2 = rand_vi_graph(rng, rng.randint(4, 6), k=3)
    val, mapping = mcs_vi(g1, g2)
    want, _ = oracle_mcs(g1, g2, budget=BIG_BUDGET)
    assert val == want
    assert verify_mcs(g1, g2, mapping, val)


def _reference_match_piece(rho1, piece1, rho2, piece2):
    """Piece matching as it ran before it used an anchored search: the
    vertices of piece 1 in id order, each onto the smallest unused vertex
    of piece 2 with the same anchor links, kept degree and kept adjacency
    to the vertices already placed; the reference for ``_match_piece``."""
    def profile(rho, vs, f, b):
        adj = {v: set() for v in vs}
        for (u, v) in f:
            adj[u].add(v)
            adj[v].add(u)
        link = {v: 0 for v in vs}
        for (v, r) in b:
            link[v] |= 1 << rho.index(r)
        return adj, link

    adj1, link1 = profile(rho1, *piece1)
    adj2, link2 = profile(rho2, *piece2)
    order = sorted(adj1)
    cand = sorted(adj2)
    mapping = {}

    def extend(i):
        if i == len(order):
            return True
        u = order[i]
        for x in cand:
            if x in mapping.values() or link1[u] != link2[x] or len(adj1[u]) != len(adj2[x]):
                continue
            if any((w in adj1[u]) != (img in adj2[x]) for w, img in mapping.items()):
                continue
            mapping[u] = x
            if extend(i + 1):
                return True
            del mapping[u]
        return False

    return dict(mapping) if extend(0) else None


def _blocks(rng, count, most, hubs):
    """Disjoint random connected blocks of 1..``most`` vertices, plus
    ``hubs`` vertices joined to block vertices at random, labelled at
    random: the hubs make small separators, so pieces carry anchor links."""
    sizes = [rng.randint(1, most) for _ in range(count)]
    label = list(range(sum(sizes) + hubs))
    rng.shuffle(label)
    edges, start = set(), 0
    for size in sizes:
        vs = label[start:start + size]
        edges |= {(vs[rng.randrange(i)], vs[i]) for i in range(1, size)}
        edges |= {(vs[i], vs[j]) for i in range(size) for j in range(i + 1, size)
                  if rng.random() < 0.3}
        start += size
    for h in label[start:]:
        edges |= {(h, v) for v in label[:start] if rng.random() < 0.3}
    return Graph(len(label), edges)


def _check_piece_map(got, rho1, piece1, rho2, piece2):
    """``got`` maps piece 1 one-to-one onto piece 2, kept edges onto kept
    edges (so non-edges onto non-edges), and each anchor link onto the
    link to the anchor in the same position."""
    (vs1, f1, b1), (vs2, f2, b2) = piece1, piece2
    assert sorted(got) == sorted(vs1) and sorted(got.values()) == sorted(vs2)
    assert {frozenset((got[u], got[v])) for (u, v) in f1} == {frozenset(e) for e in f2}
    assert {(got[v], rho2[rho1.index(r)]) for (v, r) in b1} == set(b2)


def test_piece_matcher_agrees_with_the_reference_on_which_pieces_match(monkeypatch):
    # The matcher pairs the two pieces' canonical orders, the reference
    # places vertices by id, so the two can pick different maps when a
    # piece has automorphisms (the path 2-1-3-4 against the path 6-7-5-8,
    # no anchors, is one such pair: the two maps differ by the reversal).
    # So each map is checked for what makes it a map, and the two must
    # agree on which pairs of pieces have one: the pairs the solvers
    # match, and pieces of consecutive calls paired across.
    calls = []
    match = common_subgraph._match_piece

    def recorded(*args):
        got = match(*args)
        calls.append((args, got))
        return got

    monkeypatch.setattr(common_subgraph, "_match_piece", recorded)
    for seed in range(100):
        rng = random.Random(seed)
        g1 = _blocks(rng, rng.randint(1, 3), 3, rng.randint(0, 2))
        g2 = _blocks(rng, rng.randint(1, 3), 3, rng.randint(0, 2))
        mcs_vi(g1, g2)
        mcis_vi(g1, g2)
    for args, got in calls:
        assert _reference_match_piece(*args) is not None
        _check_piece_map(got, *args)
    compared = refused = 0
    for ((rho1, piece1, _, _), _), ((_, _, rho2, piece2), _) in zip(calls, calls[1:]):
        if len(rho1) != len(rho2) or len(piece1[0]) != len(piece2[0]):
            continue
        args = (rho1, piece1, rho2, piece2)
        try:
            got = match(*args)
        except RuntimeError:
            got = None
        assert (got is None) == (_reference_match_piece(*args) is None)
        if got is None:
            refused += 1
        else:
            _check_piece_map(got, *args)
            compared += 1
    assert len(calls) >= 400
    assert sum(len(args[1][0]) >= 3 for args, _ in calls) >= 10
    assert sum(len(args[1][0]) >= 2 and bool(args[1][2]) for args, _ in calls) >= 10
    assert compared >= 100 and refused >= 50


def _sides(g1, g2, induced_flag, side_keys=None):
    """Both sides' anchor-guess tables, as one solve builds them."""
    (k1, vis1), (k2, vis2) = vertex_integrity(g1), vertex_integrity(g2)
    s1, s2 = sorted(vis1.separator), sorted(vis2.separator)
    two_k = 2 * max(k1, k2)
    side_keys = side_keys or common_subgraph._side_keys
    memo = {}
    return (side_keys(g1, s1, len(s2), False, induced_flag, two_k, memo),
            side_keys(g2, s2, len(s1), True, induced_flag, two_k, memo))


def _replayed_piece_ips(g1, g2, induced_flag):
    """(every distinct (codes1, codes2) pair of the guesses one solve pairs
    up, the pairs whose piece IP the guess loop solves): guesses are
    visited by falling reach (base plus the smaller side's heaviest piece
    total), ties in canonical order, and the loop ends at the first guess
    whose reach is below the best value so far, or equal to it from a
    later canonical position."""
    side1, side2 = _sides(g1, g2, induced_flag)
    cache = common_subgraph._DECOMP_CACHE

    def reach(codes):
        return sum(max(w for w, _, _ in cache[(code, induced_flag)][1].values())
                   for code in codes)

    guesses = []
    for (sizes1, bits1, codes1) in side1:
        for (sizes2, bits2, codes2) in side2:
            if sizes1 != sizes2 or (induced_flag and bits1 != bits2):
                continue
            base = sum(sizes1) if induced_flag else bin(bits1 & bits2).count("1")
            guesses.append((base + min(reach(codes1), reach(codes2)), base, (codes1, codes2)))
    solved, top = {}, None
    for i in sorted(range(len(guesses)), key=lambda i: (-guesses[i][0], i)):
        most, base, codes = guesses[i]
        if top is not None and (most < top[0] or (most == top[0] and i > top[1])):
            break
        if codes not in solved:
            solved[codes] = common_subgraph._piece_ilp(*codes, induced_flag)[0]
        value = base + solved[codes]
        if top is None or value > top[0] or (value == top[0] and i < top[1]):
            top = value, i
    return {codes for _, _, codes in guesses}, set(solved)


def test_each_piece_ip_is_solved_once(monkeypatch):
    # a solve solves each piece IP it needs once, skips the ones whose
    # bound cannot beat the best value so far, and reads the winner's
    # answer back for the mapping instead of solving it again
    g1, g2 = (parse_text(generate("random-vi", seed=s, n=8, k=3)).graph for s in (1, 2))
    replayed = {flag: _replayed_piece_ips(g1, g2, flag) for flag in (False, True)}
    calls = []
    real = common_subgraph.optimize

    def counting(inst):
        calls.append(inst)
        return real(inst)

    monkeypatch.setattr(common_subgraph, "optimize", counting)
    for solve, verify, induced_flag in ((mcs_vi, verify_mcs, False), (mcis_vi, verify_mcis, True)):
        pairs, needed = replayed[induced_flag]
        solved = len(calls)
        val, mapping = solve(g1, g2)
        assert verify(g1, g2, mapping, val)
        assert len(calls) - solved == len(needed) > 0
        assert len(needed) < len(pairs)
        # a second solve solves them all again: no answer outlives a solve
        solve(g1, g2)
        assert len(calls) - solved == 2 * len(needed)


def _full_side_keys(g, sep, z_max, ordered, induced_flag, two_k, memo):
    """``_side_keys`` with the anchor extension Z drawn from every vertex
    outside the separator; the reference for drawing it from the first
    members of each type."""
    table = {}
    sep = sorted(sep)
    rest = [v for v in range(g.n) if v not in sep]
    for x_size in range(len(sep) + 1):
        for x_set in combinations(sep, x_size):
            left = [v for v in sep if v not in x_set]
            for y_size in range(len(left) + 1):
                for y_set in combinations(left, y_size):
                    kept = sorted(set(rest) | set(x_set) | set(y_set))
                    h, o2n = induced(g, kept)
                    n2o = {n: o for o, n in o2n.items()}
                    xh = [o2n[v] for v in x_set]
                    yh = [o2n[v] for v in y_set]
                    free = [o2n[v] for v in rest]
                    for z_size in range(min(z_max, len(free)) + 1):
                        for z_set in combinations(free, z_size):
                            r_set = set(xh) | set(yh) | set(z_set)
                            if any(len(r_set) + len(c) > two_k for c in components(h, r_set)):
                                continue
                            if ordered:
                                rhos = [bx + bz + bw for bx in permutations(xh)
                                        for bz in permutations(z_set) for bw in permutations(yh)]
                                sizes = (len(xh), len(z_set), len(yh))
                            else:
                                rhos = [tuple(xh) + tuple(yh) + z_set]
                                sizes = (len(xh), len(yh), len(z_set))
                            for rho in rhos:
                                codes = []
                                for t, cs in common_subgraph.classify_detailed(h, list(rho)):
                                    common_subgraph._catalogue(t, h, list(rho), induced_flag)
                                    codes += [t.code] * len(cs)
                                key = (sizes, common_subgraph._anchor_bits(h, rho),
                                       tuple(sorted(codes)))
                                table.setdefault(key, tuple(n2o[v] for v in rho))
    return table


def _repeated_blocks(rng, most_n, most_size, most_copies):
    """A few random blocks of 1..``most_size`` vertices, each with its own
    links to one or two hubs, repeated 1..``most_copies`` times and
    labelled at random, so that components of one type come in groups."""
    hubs = rng.randint(1, 2)
    shapes, n = [], hubs
    while True:
        size, copies = rng.randint(1, most_size), rng.randint(1, most_copies)
        if shapes and n + size * copies > most_n:
            break
        inner = {(rng.randrange(i), i) for i in range(1, size)}
        inner |= {(i, j) for i in range(size) for j in range(i + 1, size) if rng.random() < 0.3}
        links = {(i, h) for i in range(size) for h in range(hubs) if rng.random() < 0.4}
        shapes.append((size, copies, inner, links))
        n += size * copies
    label = list(range(n))
    rng.shuffle(label)
    hub, start, edges = label[:hubs], hubs, set()
    if hubs == 2 and rng.random() < 0.5:
        edges.add((hub[0], hub[1]))
    for size, copies, inner, links in shapes:
        for _ in range(copies):
            vs = label[start:start + size]
            edges |= {(vs[i], vs[j]) for (i, j) in inner}
            edges |= {(vs[i], hub[h]) for (i, h) in links}
            start += size
    return Graph(n, edges)


def _crosscheck_pairs(monkeypatch):
    """The mcs and mcis graph pairs of the benchmark's crosscheck
    workload."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads
    instances, _ = workloads.build("crosscheck", 0)
    return [(inst.problem, *(parse_text(text).graph for text in inst.texts))
            for inst in instances if inst.problem in ("mcs", "mcis")]


def test_anchor_extensions_from_the_first_members_of_each_type_keep_every_value(monkeypatch):
    # Z drawn only from the first min(|group|, z_max) members of each
    # type: the ordered side keeps its key set, every value equals the one
    # with Z drawn from every vertex, and fewer anchor orders are typed.
    # Block graphs stay small for mcs, whose piece IPs grow fast with the
    # number of copies.
    rng = random.Random(12)
    cases = _crosscheck_pairs(monkeypatch)
    for _ in range(12):
        cases.append(("mcs", _repeated_blocks(rng, rng.randint(8, 14), 2, 5),
                      _repeated_blocks(rng, rng.randint(6, 10), 2, 5)))
        cases.append(("mcis", _repeated_blocks(rng, rng.randint(8, 24), 3, 5),
                      _repeated_blocks(rng, rng.randint(6, 10), 3, 5)))
    solvers = {"mcs": (mcs_vi, verify_mcs), "mcis": (mcis_vi, verify_mcis)}
    typed = {common_subgraph._side_keys: 0, _full_side_keys: 0}
    real = common_subgraph.classify_detailed
    for problem, g1, g2 in cases:
        induced_flag = problem == "mcis"
        sides = {}
        for side_keys in typed:
            calls = []
            monkeypatch.setattr(common_subgraph, "classify_detailed",
                                lambda *args, **kw: calls.append(args) or real(*args, **kw))
            sides[side_keys] = _sides(g1, g2, induced_flag, side_keys)
            typed[side_keys] += len(calls)
        monkeypatch.setattr(common_subgraph, "classify_detailed", real)
        assert set(sides[common_subgraph._side_keys][1]) == set(sides[_full_side_keys][1])
        solve, verify = solvers[problem]
        val, mapping = solve(g1, g2)
        assert verify(g1, g2, mapping, val)
        with monkeypatch.context() as patched:
            patched.setattr(common_subgraph, "_side_keys", _full_side_keys)
            want, _ = solve(g1, g2)
        assert val == want
    assert len(cases) == 144 + 24
    assert typed[common_subgraph._side_keys] < 0.8 * typed[_full_side_keys], typed


def _relabeled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, {(perm[u], perm[v]) for (u, v) in g.edges})


def test_values_survive_relabeling_past_oracle_reach():
    # vertex names change neither value, and every mapping still checks
    rng = random.Random("mcs-relabel")
    pairs = [tuple(rand_vi_graph(rng, rng.randint(9, 14), rng.randint(2, 3)) for _ in "12")
             for _ in range(30)]
    pairs += [(_repeated_blocks(rng, rng.randint(8, 12), 2, 4),
               _repeated_blocks(rng, rng.randint(6, 10), 2, 4)) for _ in range(5)]
    for g1, g2 in pairs:
        for solve, verify in ((mcs_vi, verify_mcs), (mcis_vi, verify_mcis)):
            val, mapping = solve(g1, g2)
            assert verify(g1, g2, mapping, val)
            for h1, h2 in ((_relabeled(g1, rng), g2), (g1, _relabeled(g2, rng))):
                got, moved = solve(h1, h2)
                assert got == val
                assert verify(h1, h2, moved, got)


def test_each_extension_set_splits_its_graph_once(monkeypatch):
    # a solve splits G - S - Z once per extension set Z of each side and
    # once per side for the mapping, and builds no induced copy
    g1, g2 = (parse_text(generate("random-vi", seed=s, n=8, k=3)).graph for s in (1, 2))
    s1, s2 = (sorted(vertex_integrity(g)[1].separator) for g in (g1, g2))

    def extension_sets(g, sep, z_max):
        pool = sum(len(c) for _, cs in classify_detailed(g, sep) for c in cs[:z_max])
        return sum(comb(pool, z) for z in range(min(z_max, pool) + 1))

    want = extension_sets(g1, s1, len(s2)) + extension_sets(g2, s2, len(s1)) + 2

    def refuse(*args):
        raise AssertionError("no solver builds an induced copy")

    monkeypatch.setattr(graphs, "induced", refuse)
    assert not hasattr(common_subgraph, "induced")
    calls = []
    real = common_subgraph.components
    monkeypatch.setattr(common_subgraph, "components",
                        lambda *args: calls.append(args) or real(*args))
    for solve, verify in ((mcs_vi, verify_mcs), (mcis_vi, verify_mcis)):
        del calls[:]
        val, mapping = solve(g1, g2)
        assert verify(g1, g2, mapping, val)
        assert len(calls) == want
