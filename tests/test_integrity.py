import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from viforge import integrity
from viforge.cli import run
from viforge.graphs import Graph, complete_graph, cycle_graph, path_graph, star_graph, components
from viforge.instances import parse_text
from viforge.integrity import ViSet, cover_at_most, vertex_cover_min, vertex_integrity, vi_k_set
from viforge.oracles import oracle_vertex_integrity, oracle_vertex_cover

from conftest import BIG_BUDGET, rand_graph, rand_vi_graph


def test_seven_path_needs_four():
    p7 = path_graph(7)
    assert vi_k_set(p7, 3) is None
    vs = vi_k_set(p7, 4)
    assert vs is not None and vs.check(p7)
    k, wit = vertex_integrity(p7)
    assert k == 4
    assert wit.check(p7)


def test_complete_graph_integrity_is_order():
    for n in range(1, 6):
        kn = complete_graph(n)
        assert vertex_integrity(kn)[0] == n
        if n > 1:
            assert vi_k_set(kn, n - 1) is None
        assert vi_k_set(kn, n).check(kn)


def test_star_integrity_is_two():
    g = star_graph(6)
    vs = vi_k_set(g, 2)
    assert vs is not None and set(vs.separator) == {0}
    assert vertex_integrity(g)[0] == 2


def test_empty_and_edgeless():
    assert vertex_integrity(Graph(0))[0] == 0
    assert vi_k_set(Graph(0), 0) == ViSet((), 0)
    assert vi_k_set(Graph(3), 0) is None
    assert vertex_integrity(Graph(3))[0] == 1


def test_viset_check_rejects_bad_witnesses():
    p7 = path_graph(7)
    assert not ViSet((), 4).check(p7)
    assert not ViSet((0, 1, 2, 3, 4), 4).check(p7)
    assert not ViSet((9,), 4).check(p7)
    assert ViSet((2, 4), 4).check(p7)


def test_cover_frozen_examples():
    assert len(vertex_cover_min(cycle_graph(5))) == 3
    assert vertex_cover_min(Graph(2, {(0, 1)})) in ([0], [1])
    assert len(vertex_cover_min(Graph(2, {(0, 1)}))) == 1
    assert vertex_cover_min(star_graph(4)) == [0]
    assert vertex_cover_min(Graph(4)) == []


def _is_cover(g: Graph, cover) -> bool:
    cs = set(cover)
    return all(u in cs or v in cs for (u, v) in g.edges)


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_cover_matches_oracle(seed):
    rng = random.Random(seed)
    g = rand_graph(rng, rng.randint(1, 8))
    got = vertex_cover_min(g)
    assert _is_cover(g, got)
    assert len(got) == len(oracle_vertex_cover(g, budget=BIG_BUDGET))


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_integrity_matches_oracle_and_threshold(seed):
    rng = random.Random(seed)
    g = rand_graph(rng, rng.randint(1, 8), p=rng.choice([0.2, 0.4, 0.7]))
    k, wit = vertex_integrity(g)
    assert wit.check(g)
    ok, _ = oracle_vertex_integrity(g, budget=BIG_BUDGET)
    assert k == ok
    assert vi_k_set(g, k - 1) is None
    above = vi_k_set(g, min(g.n, k + 1))
    if k < g.n:
        assert above is not None and above.check(g)


def test_witness_components_are_small():
    rng = random.Random(5)
    for _ in range(20):
        g = rand_graph(rng, 10, p=0.25)
        k, wit = vertex_integrity(g)
        s = set(wit.separator)
        assert len(s) <= k
        for comp in components(g, s):
            assert len(s) + len(comp) <= k


def _reference_vi_k_set(g, k, seen=None):
    """The vi(k)-set branching with G - S split afresh at every branch and
    no prunes.  A branch's answer depends on S alone, so the separators
    whose branch failed are remembered and not searched again.  ``seen``
    counts the branches where each of ``vi_k_set``'s prunes would end the
    search."""
    adj = g.adjacency()
    failed = set()

    def probe(comp, s):
        want = k - len(s) + 1
        order = [comp[0]]
        i = 0
        while len(order) < want and i < len(order):
            u = order[i]
            i += 1
            for w in sorted(adj[u]):
                if w in comp and w not in order:
                    order.append(w)
                    if len(order) == want:
                        break
        return order

    def branch(s):
        if frozenset(s) in failed:
            return None
        big = [c for c in components(g, s) if len(s) + len(c) > k]
        if not big:
            return sorted(s)
        if len(s) >= k:
            return None
        if seen is not None:
            room = k - len(s)
            seen["room 1"] += room == 1
            seen["components"] += len(big) >= room
            seen["degrees"] += sum(len(adj[u] - s) >= room for c in big for u in c) >= room
        for v in probe(big[0], s):
            got = branch(s | {v})
            if got is not None:
                return got
        failed.add(frozenset(s))
        return None

    got = branch(set())
    return None if got is None else ViSet(tuple(got), k)


# Forests of two or three sparse trees on shuffled labels where, at some
# branch, more than one component is too big: taking them out of
# smallest-vertex order finds another separator here.
_SEVERAL_OFFENDING = (
    Graph(19, {(0, 13), (1, 5), (1, 14), (2, 5), (3, 14), (3, 18), (4, 12), (5, 18), (6, 10),
               (6, 15), (7, 11), (8, 9), (8, 15), (9, 10), (10, 15), (11, 15), (11, 17),
               (12, 14), (13, 16)}),
    Graph(13, {(0, 1), (0, 5), (0, 10), (1, 2), (1, 3), (3, 5), (3, 6), (4, 12), (6, 10),
               (7, 8), (7, 9), (7, 12), (8, 11)}),
)


def test_vi_k_set_equals_splitting_the_whole_graph_at_every_branch():
    rng = random.Random(11)
    found = 0
    graphs = list(_SEVERAL_OFFENDING)
    for _ in range(150):
        if rng.random() < 0.5:
            graphs.append(rand_vi_graph(rng, rng.randint(1, 30), rng.randint(1, 4)))
        else:
            graphs.append(rand_graph(rng, rng.randint(1, 10), p=rng.choice([0.15, 0.3, 0.5])))
    for g in graphs:
        vi = vertex_integrity(g)[0]
        for k in (vi - 1, vi, vi + 1):
            if k >= 1:
                got = vi_k_set(g, k)
                assert got == _reference_vi_k_set(g, k), (g, k)
                found += got is not None
    assert found >= 250


def test_vi_k_set_equals_the_unpruned_search_for_every_k():
    # stars and paths reach the degree prune, sparse random graphs several
    # too-big components, and every search that gets deep the room-1 case
    rng = random.Random(14)
    graphs = [star_graph(leaves) for leaves in (2, 3, 4, 7, 12, 25, 60)]
    graphs += [path_graph(n) for n in range(1, 16)]
    for _ in range(200):
        graphs.append(rand_vi_graph(rng, rng.randint(1, 30), rng.randint(1, 5)))
        graphs.append(rand_graph(rng, rng.randint(1, 11), p=rng.choice([0.3, 0.5, 0.7])))
    seen = Counter()
    answers = Counter()
    for g in graphs:
        vi = vertex_integrity(g)[0]
        for k in range(vi + 2):
            got = vi_k_set(g, k)
            assert got == _reference_vi_k_set(g, k, seen), (g, k)
            answers[got is not None] += 1
    assert answers[True] >= 700 and answers[False] >= 1200, answers
    assert min(seen[rule] for rule in ("room 1", "components", "degrees")) >= 1000, seen


def test_vi_k_set_splits_little_at_vi_8(capsys, monkeypatch):
    # without its prunes the search makes 238,307 splits here, of
    # components of up to 294 vertices
    assert run(["gen", "random-vi", "--seed", "1", "--n", "300", "--k", "8"]) == 0
    g = parse_text(capsys.readouterr().out).graph
    splits = 0
    real = integrity.split

    def counted(*args):
        nonlocal splits
        splits += 1
        return real(*args)

    monkeypatch.setattr(integrity, "split", counted)
    assert vertex_integrity(g) == (8, ViSet((63, 129, 165, 186, 209, 244), 8))
    assert splits <= 1000


def test_dense_graph_with_vi_9_matches_the_oracle():
    # 12 vertices and 36 edges: every k below 9 is a failed exhaustive
    # search unless branches are pruned
    g = rand_graph(random.Random(1), 12, p=0.5)
    k, wit = vertex_integrity(g)
    assert k == 9 and wit.check(g)
    assert k == oracle_vertex_integrity(g, budget=BIG_BUDGET)[0]
    assert vi_k_set(g, k - 1) is None


def _reference_cover(edges, k):
    """Vertex cover branching that copies the edge set at every pick."""
    if not edges:
        return set()
    if k == 0:
        return None
    (u, v) = min(edges)
    for pick in (u, v):
        got = _reference_cover({e for e in edges if pick not in e}, k - 1)
        if got is not None:
            got.add(pick)
            return got
    return None


def test_cover_at_most_equals_the_copying_recursion():
    rng = random.Random(3)
    covers = 0
    for _ in range(400):
        n = rng.randint(1, 12)
        edges = {(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < rng.choice([0.1, 0.25, 0.5])}
        for k in range(7):
            got = cover_at_most(edges, k)
            assert got == _reference_cover(set(edges), k), (edges, k)
            covers += got is not None
    assert covers >= 1000
