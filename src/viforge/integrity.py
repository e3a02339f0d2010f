"""Vertex integrity and vertex cover primitives.

The central object is a vi(k)-set: a vertex set S such that every component C
of G - S satisfies |S| + |V(C)| <= k.  The solvers delete such a set first
and exploit that what remains splits into pieces of bounded size.
"""

from dataclasses import dataclass

from .graphs import Graph, components, split


@dataclass(frozen=True)
class ViSet:
    separator: tuple
    k: int

    def check(self, g: Graph) -> bool:
        s = set(self.separator)
        if not all(0 <= v < g.n for v in s):
            return False
        if len(s) > self.k:
            return False
        for comp in components(g, s):
            if len(s) + len(comp) > self.k:
                return False
        return True


def vi_k_set(g: Graph, k: int):
    """A vi(k)-set of g, or None when none exists.

    Branching search: while some component C of G - S is too big (the
    first in smallest-vertex order), grow a connected probe T of
    k - |S| + 1 vertices inside C (breadth-first from C's smallest vertex,
    neighbours in index order) and branch on which probe vertex joins S.
    Any vi(k)-set extending S must hit T, so the branching is exhaustive;
    branches die once |S| exceeds k.  G is split once; a branch re-splits
    only the component it took a vertex from.
    """
    if k < 1:
        if g.n == 0 and k == 0:
            return ViSet((), 0)
        return None
    adj = g.adjacency()

    def probe(comp, in_comp, s):
        want = k - len(s) + 1
        start = comp[0]
        order = [start]
        seen = {start}
        i = 0
        while len(order) < want and i < len(order):
            u = order[i]
            i += 1
            for w in sorted(adj[u]):
                if w in in_comp and w not in seen:
                    seen.add(w)
                    order.append(w)
                    if len(order) == want:
                        break
        return order

    def branch(s, comps):
        # comps: the components of G - S, ordered by smallest vertex
        room = k - len(s)
        for at, comp in enumerate(comps):
            if len(comp) > room:
                break
        else:
            return sorted(s)
        if room <= 0:
            return None
        in_comp = set(comp)
        rest = comps[:at] + comps[at + 1:]
        for v in probe(comp, in_comp, s):
            pieces = split(adj, in_comp - {v})
            got = branch(s | {v}, sorted(rest + pieces))
            if got is not None:
                return got
        return None

    got = branch(set(), components(g))
    if got is None:
        return None
    return ViSet(tuple(got), k)


def vertex_integrity(g: Graph):
    """Exact vertex integrity with witness: smallest k with a vi(k)-set.

    k = 0 only for the empty graph.
    """
    if g.n == 0:
        return 0, ViSet((), 0)
    for k in range(1, g.n + 1):
        vs = vi_k_set(g, k)
        if vs is not None:
            return k, vs
    raise AssertionError("vi(n)-set must exist")


def cover_at_most(edges, k):
    """A vertex cover of the edge set ``edges`` with at most k vertices,
    or None: branch on the endpoints of the smallest uncovered edge."""
    order = sorted(edges)
    picks = set()

    def branch(i, budget):
        # every edge before order[i] has an endpoint in picks
        while i < len(order) and (order[i][0] in picks or order[i][1] in picks):
            i += 1
        if i == len(order):
            return True
        if budget == 0:
            return False
        for pick in order[i]:
            picks.add(pick)
            if branch(i + 1, budget - 1):
                return True
            picks.discard(pick)
        return False

    return picks if branch(0, k) else None


def vertex_cover_min(g: Graph) -> list:
    """A minimum vertex cover via bounded edge branching."""
    for k in range(g.n + 1):
        got = cover_at_most(g.edges, k)
        if got is not None:
            return sorted(got)
    raise AssertionError("V itself always covers")
