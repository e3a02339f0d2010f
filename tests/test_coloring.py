import random
from itertools import combinations
from math import ceil

from hypothesis import given, settings, strategies as st

from viforge.graphs import Graph, complete_graph, components, cycle_graph, path_graph, star_graph
from viforge.integrity import vertex_integrity
from viforge.oracles import (
    oracle_ecp,
    oracle_eqcoloring,
    oracle_precoloring,
    verify_ecp,
    verify_eqcoloring,
    verify_precoloring,
)
from viforge.cli import EXIT_NO, run
from viforge.solvers import coloring
from viforge.solvers.coloring import (
    _connected_sets,
    equitable_coloring_vi,
    equitable_connected_partition_vi,
    precoloring_extension_vi,
)

from conftest import BIG_BUDGET, rand_graph, rand_vi_graph


class TestPrecoloring:
    def test_cycle_with_opposite_seeds(self):
        c4 = cycle_graph(4)
        got = precoloring_extension_vi(c4, {0: 1, 2: 1}, 2)
        assert got is not None
        assert verify_precoloring(c4, {0: 1, 2: 1}, 2, got)

    def test_conflicting_seeds(self):
        assert precoloring_extension_vi(Graph(2, {(0, 1)}), {0: 1, 1: 1}, 2) is None

    def test_triangle(self):
        k3 = complete_graph(3)
        got = precoloring_extension_vi(k3, {0: 2}, 3)
        assert got is not None and got[0] == 2
        assert verify_precoloring(k3, {0: 2}, 3, got)
        assert precoloring_extension_vi(k3, {0: 1}, 2) is None

    def test_no_seeds(self):
        p4 = path_graph(4)
        got = precoloring_extension_vi(p4, {}, 2)
        assert got is not None and verify_precoloring(p4, {}, 2, got)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_oracle(self, seed):
        rng = random.Random(seed)
        g = rand_graph(rng, rng.randint(1, 7), p=rng.choice([0.3, 0.5]))
        r = rng.randint(1, 4)
        pre = {}
        for v in rng.sample(range(g.n), min(g.n, rng.randint(0, 2))):
            pre[v] = rng.randint(1, r)
        got = precoloring_extension_vi(g, pre, r)
        want = oracle_precoloring(g, pre, r, budget=BIG_BUDGET)
        assert (got is None) == (want is None)
        if got is not None:
            assert verify_precoloring(g, pre, r, got)


class TestEquitableColoring:
    def test_frozen_values(self):
        got = equitable_coloring_vi(complete_graph(3), 3)
        assert got is not None and verify_eqcoloring(complete_graph(3), 3, got)
        assert equitable_coloring_vi(star_graph(3), 2) is None
        got = equitable_coloring_vi(cycle_graph(4), 2)
        assert got is not None and verify_eqcoloring(cycle_graph(4), 2, got)

    def test_more_classes_than_vertices(self):
        got = equitable_coloring_vi(path_graph(3), 5)
        assert got is not None and verify_eqcoloring(path_graph(3), 5, got)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_oracle(self, seed):
        rng = random.Random(seed)
        g = rand_graph(rng, rng.randint(1, 7), p=rng.choice([0.3, 0.5]))
        r = rng.randint(1, 4)
        got = equitable_coloring_vi(g, r)
        want = oracle_eqcoloring(g, r, budget=BIG_BUDGET)
        assert (got is None) == (want is None)
        if got is not None:
            assert verify_eqcoloring(g, r, got)

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_matches_oracle_on_low_integrity_graphs(self, seed):
        rng = random.Random(seed)
        g = rand_vi_graph(rng, rng.randint(4, 8), k=3)
        r = rng.randint(2, 4)
        got = equitable_coloring_vi(g, r)
        want = oracle_eqcoloring(g, r, budget=BIG_BUDGET)
        assert (got is None) == (want is None)
        if got is not None:
            assert verify_eqcoloring(g, r, got)


    def test_more_colours_than_twice_the_integrity_match_the_oracle(self):
        # r > 2k: only colours 1..k touch the separator, and the spare
        # colours k + 1..r are dealt round-robin at the end
        rng = random.Random(16)
        checked = spare = multi = 0
        for _ in range(150):
            g = rand_vi_graph(rng, rng.randint(4, 9), k=rng.randint(2, 3))
            k = vertex_integrity(g)[0]
            if k not in (2, 3):
                continue
            for r in range(2 * k + 1, 2 * k + 4):
                got = equitable_coloring_vi(g, r)
                want = oracle_eqcoloring(g, r, budget=BIG_BUDGET)
                assert (got is None) == (want is None)
                checked += 1
                if got is None:
                    continue
                assert verify_eqcoloring(g, r, got)
                b = g.n % r
                # the solver tries every count of big classes among 1..k
                bigs = range(max(0, b - (r - k)), min(k, b) + 1)
                spare += any(c > k for c in got.values())
                multi += len(bigs) >= 2
        assert checked >= 400
        assert spare >= 300
        assert multi >= 250


class TestEquitablePartition:
    def test_path_splits_in_half(self):
        assert equitable_connected_partition_vi(path_graph(4), 2) == [[0, 1], [2, 3]]

    def test_star_cannot_split(self):
        assert equitable_connected_partition_vi(star_graph(3), 2) is None

    def test_star_into_singletons(self):
        got = equitable_connected_partition_vi(star_graph(3), 4)
        assert got is not None and verify_ecp(star_graph(3), 4, got)

    def test_double_star(self):
        # two adjacent centers, three leaves each
        g = Graph(8, {(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)})
        got = equitable_connected_partition_vi(g, 2)
        assert got == [[0, 2, 3, 4], [1, 5, 6, 7]]

    def test_single_class(self):
        c5 = cycle_graph(5)
        assert equitable_connected_partition_vi(c5, 1) == [[0, 1, 2, 3, 4]]
        two_comps = Graph(4, {(0, 1), (2, 3)})
        assert equitable_connected_partition_vi(two_comps, 1) is None

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_oracle(self, seed):
        rng = random.Random(seed)
        g = rand_graph(rng, rng.randint(1, 7), p=rng.choice([0.3, 0.5]))
        r = rng.randint(1, 4)
        got = equitable_connected_partition_vi(g, r)
        want = oracle_ecp(g, r, budget=BIG_BUDGET)
        assert (got is None) == (want is None)
        if got is not None:
            assert verify_ecp(g, r, got)

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_matches_oracle_on_low_integrity_graphs(self, seed):
        rng = random.Random(seed)
        g = rand_vi_graph(rng, rng.randint(4, 8), k=3)
        r = rng.randint(2, 4)
        got = equitable_connected_partition_vi(g, r)
        want = oracle_ecp(g, r, budget=BIG_BUDGET)
        assert (got is None) == (want is None)
        if got is not None:
            assert verify_ecp(g, r, got)


def _connected_sets_by_filter(g, allowed, size, anchor=None, meets=None):
    """Every ``size``-combination of sorted(allowed) that contains the
    anchor, meets ``meets`` and is connected by breadth-first search."""
    adj = {v: set() for v in range(g.n)}
    for (u, v) in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    out = []
    for pick in combinations(sorted(allowed), size):
        part = set(pick)
        if anchor is not None and anchor not in part:
            continue
        if meets is not None and not part & meets:
            continue
        if part:
            seen = {pick[0]}
            frontier = [pick[0]]
            for u in frontier:
                for w in adj[u] & part - seen:
                    seen.add(w)
                    frontier.append(w)
            if seen != part:
                continue
        out.append(part)
    return out


def test_connected_sets_match_filtered_combinations():
    rng = random.Random(7)
    queries = 0
    for _ in range(2000):
        n = rng.randint(0, 11)
        g = rand_graph(rng, n, p=rng.choice([0.15, 0.3, 0.5]))
        everything = set(range(n))
        some = {v for v in range(n) if rng.random() < 0.7}
        outside = everything - some
        for allowed in (everything, some):
            size = rng.randint(0, len(allowed))
            anchor = rng.choice(sorted(allowed)) if allowed else None
            meets = {v for v in range(n) if rng.random() < 0.3}
            calls = [
                {},
                {"anchor": anchor},
                {"meets": meets},
                {"anchor": anchor, "meets": meets},
            ]
            if outside:
                calls.append({"anchor": rng.choice(sorted(outside))})
            for kw in calls:
                for s in (size, 0):
                    want = _connected_sets_by_filter(g, allowed, s, **kw)
                    assert list(_connected_sets(g, allowed, s, **kw)) == want, (g, allowed, s, kw)
                    queries += 1
    assert queries > 30000


def test_ecp_without_a_partition_grows_parts_instead_of_filtering(tmp_path, capsys,
                                                                  monkeypatch):
    # parts of 8-9 vertices, and 11 of the graph's vertices are
    # isolated: none of them can be such a part, so the answer is known
    # before any part through the separator is tried
    assert run(["gen", "random-vi", "--seed", "1", "--n", "26", "--k", "2"]) == 0
    path = tmp_path / "g.txt"
    path.write_text(capsys.readouterr().out)
    calls = {"is_connected_subset": 0, "components": 0, "_ecp_separator_parts": 0}

    def counted(name):
        real = getattr(coloring, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(coloring, name, counted(name))
    assert run(["solve", "ecp", str(path), "--r", "3"]) == EXIT_NO
    assert calls["is_connected_subset"] <= 1000
    assert calls["components"] <= 5
    assert calls["_ecp_separator_parts"] == 0


def _reference_ecp_case2(g, r, s_list, hi, lo, b):
    """ecp with more parts than the separator budget, splitting the whole
    of G - W for every candidate separator part W."""
    for touching in range(min(len(s_list), r) + 1):
        for big in range(0, min(touching, b) + 1):
            if b - big > r - touching or (s_list and touching == 0):
                continue
            sizes = [hi] * big + [lo] * (touching - big)
            for s_parts in coloring._ecp_separator_parts(g, s_list, sizes):
                w = set().union(*s_parts) if s_parts else set()
                comp_opts = []
                for comp in components(g, w):
                    opts = [(p, (len(comp) - p * hi) // lo) for p in range(len(comp) // hi + 1)
                            if (len(comp) - p * hi) % lo == 0
                            and coloring._sized_partition(
                                g, comp, [hi] * p + [lo] * ((len(comp) - p * hi) // lo))
                            is not None]
                    if not opts:
                        break
                    comp_opts.append((comp, opts))
                else:
                    pickings = coloring._pair_dp(comp_opts, (b - big, r - touching - (b - big)))
                    if pickings is None:
                        continue
                    big_parts = [sorted(p) for p in s_parts[:big]]
                    small_parts = [sorted(p) for p in s_parts[big:]]
                    for (comp, _), (p, q) in zip(comp_opts, pickings):
                        got = coloring._sized_partition(g, comp, [hi] * p + [lo] * q)
                        if hi == lo:
                            small_parts.extend(sorted(part) for (_, part) in got)
                        else:
                            big_parts.extend(sorted(part) for (s, part) in got if s == hi)
                            small_parts.extend(sorted(part) for (s, part) in got if s == lo)
                    return big_parts + small_parts
    return None


def test_ecp_case2_equals_splitting_the_whole_graph_for_every_part():
    rng = random.Random(1)
    answered = 0
    for _ in range(130):
        g = rand_vi_graph(rng, rng.randint(4, 16), rng.randint(2, 4))
        k, vis = vertex_integrity(g)
        s_list = sorted(vis.separator)
        for r in range(k + 1, g.n):
            args = (g, r, s_list, ceil(g.n / r), g.n // r, g.n % r)
            got = coloring._ecp_case2(*args)
            assert got == _reference_ecp_case2(*args), (g, r)
            answered += got is not None
    assert answered >= 200


def _ecp_branch(g, r):
    """The branch ``equitable_connected_partition_vi`` dispatches to on
    (g, r), called directly, so without its separator-free check."""
    k, vis = vertex_integrity(g)
    s_list = sorted(vis.separator)
    hi, lo, b = ceil(g.n / r), g.n // r, g.n % r
    if r > k:
        return coloring._ecp_case2(g, r, s_list, hi, lo, b)
    if lo <= k:
        return coloring._ecp_small(g, r)
    return coloring._ecp_case1(g, r, s_list, hi, lo, b)


def _with_small_components(rng, g, sizes):
    """g plus one extra component per size (an isolated vertex, or a
    random connected graph on a spanning path or star), relabelled."""
    n = g.n + sum(sizes)
    edges = set(g.edges)
    start = g.n
    for size in sizes:
        star = rng.random() < 0.5
        for i in range(1, size):
            edges.add((start, start + i) if star else (start + i - 1, start + i))
            for j in range(i - 1):
                if rng.random() < 0.3:
                    edges.add((start + j, start + i))
        start += size
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, {tuple(sorted((perm[u], perm[v]))) for (u, v) in edges})


def test_ecp_separator_free_check_is_exact(monkeypatch):
    # a component of G that holds no separator vertex is a union of
    # whole parts, so when it cannot be cut into parts of lo or hi
    # vertices the answer is None before any branch runs; the oracle
    # (n <= 8) and the branch itself (n <= 18) must agree
    rng = random.Random("ecp-separator-free-components")
    dispatched = []
    for name in ("_ecp_small", "_ecp_case1", "_ecp_case2"):
        real = getattr(coloring, name)
        monkeypatch.setattr(coloring, name,
                            lambda *a, real=real, name=name: dispatched.append(name) or real(*a))
    fired = passed_to_yes = sized = checked = fired_in_oracle_reach = 0
    for _ in range(120):
        base = rand_vi_graph(rng, rng.randint(2, 12), rng.randint(2, 3))
        extra = [rng.choice([1, 1, 2, 3, 4]) for _ in range(rng.randint(1, 3))]
        g = _with_small_components(rng, base, extra)
        if g.n > 18:
            continue
        _, vis = vertex_integrity(g)
        free = [c for c in components(g) if not set(c) & set(vis.separator)]
        for r in range(1, g.n + 1):
            dispatched.clear()
            got = equitable_connected_partition_vi(g, r)
            hi, lo = ceil(g.n / r), g.n // r
            if got is None and not dispatched:
                fired += 1
                fired_in_oracle_reach += g.n <= 8
                # a separator-free component without any (p, q) option
                assert any(not coloring._part_counts(g, c, hi, lo) for c in free), (g, r)
            elif got is not None and free:
                passed_to_yes += 1
                sized += any(len(c) in (hi, lo) and len(c) > 1 for c in free)
            if g.n <= 8:
                want = oracle_ecp(g, r, budget=BIG_BUDGET)
                assert (got is None) == (want is None), (g, r)
                if got is not None:
                    assert verify_ecp(g, r, got), (g, r)
            else:
                assert got == _ecp_branch(g, r), (g, r)
            checked += 1
    assert checked >= 1000
    assert fired >= 400 and fired_in_oracle_reach >= 50
    assert passed_to_yes >= 300 and sized >= 150
