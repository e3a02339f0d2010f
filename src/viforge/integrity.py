"""Vertex integrity and vertex cover primitives.

The central object is a vi(k)-set: a vertex set S such that every component C
of G - S satisfies |S| + |V(C)| <= k.  The solvers delete such a set first
and exploit that what remains splits into pieces of bounded size.
"""

from dataclasses import dataclass

from .graphs import Graph, components


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

    Branching search: while some component C of G - S is too big, grow a
    connected probe T of k - |S| + 1 vertices inside C (breadth-first from
    C's smallest vertex, neighbours in index order) and branch on which probe
    vertex joins S.  Any vi(k)-set extending S must hit T, so the branching
    is exhaustive; branches die once |S| exceeds k.
    """
    if k < 1:
        if g.n == 0 and k == 0:
            return ViSet((), 0)
        return None
    adj = g.adjacency()

    def offending(s):
        for comp in components(g, s):
            if len(s) + len(comp) > k:
                return comp
        return None

    def probe(comp, s):
        want = k - len(s) + 1
        start = comp[0]
        order = [start]
        seen = {start}
        i = 0
        in_comp = set(comp)
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

    def branch(s):
        comp = offending(s)
        if comp is None:
            return sorted(s)
        if len(s) >= k:
            return None
        for v in probe(comp, s):
            got = branch(s | {v})
            if got is not None:
                return got
        return None

    got = branch(set())
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
    or None: branch on the endpoints of the smallest edge."""
    if not edges:
        return set()
    if k == 0:
        return None
    (u, v) = min(edges)
    for pick in (u, v):
        rest = {e for e in edges if pick not in e}
        got = cover_at_most(rest, k - 1)
        if got is not None:
            got.add(pick)
            return got
    return None


def vertex_cover_min(g: Graph) -> list:
    """A minimum vertex cover via bounded edge branching."""
    for k in range(g.n + 1):
        got = cover_at_most(set(g.edges), k)
        if got is not None:
            return sorted(got)
    raise AssertionError("V itself always covers")
