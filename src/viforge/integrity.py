"""Vertex integrity and vertex cover primitives.

The central object is a vi(k)-set: a vertex set S such that every component C
of G - S satisfies |S| + |V(C)| <= k.  The solvers delete such a set first
and exploit that what remains splits into pieces of bounded size.

``vi_k_set`` branches on which vertex of a too-big component joins S and
prunes every branch that a degree or component count shows cannot be
completed, so it returns the same set as the unpruned search.  The vertex
cover searches start at the size of a greedy maximal matching, a lower
bound on the vertex cover number.
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
    Any vi(k)-set extending S must hit T, so the branching is exhaustive,
    and the search returns the first vi(k)-set it reaches in this order.

    With room = k - |S|, a branch ends at once when no vi(k)-set S'
    extends S.  While some component C is too big, |S| + |C| > k, so G
    has more than k vertices, G - S' is not empty, |S'| <= k - 1, and S'
    adds at most room - 1 vertices to S.  The branch ends when

    - room or more components are too big, since each must lose a
      vertex of its own; with room 1 one too-big component is enough;
    - room or more vertices have at least room neighbours in G - S: a
      vertex u left out of S' lies in a component C of G - S' with
      |S'| + |C| >= |S| + 1 + deg_{G-S}(u), so every such u joins S'.
      Such a u lies in a too-big component, so the count alone shows
      one exists, and at the root this test runs before G is split.
      Degrees in G - S are kept up to date as S grows.

    A branch's outcome depends on S alone, so a separator whose branch
    failed is remembered for the rest of the call and not searched again
    when another order of the same vertices reaches it.  The prunes and
    this memo cut only subtrees that hold no vi(k)-set, so the first set
    found is the one the unpruned search finds.  G is split once and
    a branch re-splits only the component it took a vertex from; a probe
    vertex with one neighbour in that component leaves it connected, so
    its piece is the component minus that vertex, with no split.
    Singleton components are dropped: while room >= 1 they are never too
    big, and branching stops before room reaches 0.
    """
    if k < 1:
        if g.n == 0 and k == 0:
            return ViSet((), 0)
        return None
    adj = g.adjacency()
    deg = [len(nb) for nb in adj]           # degrees in G - S, off S
    failed = set()                          # separators whose branch failed

    def probe(comp, in_comp, room):
        want = room + 1
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
        # comps: the components of G - S with two or more vertices,
        # ordered by smallest vertex
        room = k - len(s)
        big = [comp for comp in comps if len(comp) > room]
        if not big:
            return sorted(s)
        budget = room - 1           # vertices S' may still add
        if len(big) <= budget and \
                sum(deg[u] >= room for comp in big for u in comp) <= budget:
            comp = big[0]
            in_comp = set(comp)
            rest = [c for c in comps if c is not comp]
            for v in probe(comp, in_comp, room):
                t = s | {v}
                if t in failed:
                    continue
                if deg[v] == 1:
                    pieces = [[u for u in comp if u != v]]
                else:
                    pieces = [p for p in split(adj, in_comp - {v}) if len(p) > 1]
                for w in adj[v]:
                    deg[w] -= 1
                got = branch(t, sorted(rest + pieces))
                for w in adj[v]:
                    deg[w] += 1
                if got is not None:
                    return got
        failed.add(s)
        return None

    if sum(d >= k for d in deg) >= k:
        return None
    got = branch(frozenset(), [comp for comp in components(g) if len(comp) > 1])
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


def matching_size(edges) -> int:
    """Size of a greedy maximal matching of the edge set ``edges``, taken
    in sorted order.  Every vertex cover holds an endpoint of each
    matched edge, so this is a lower bound on the vertex cover number."""
    matched = set()
    for (u, v) in sorted(edges):
        if u not in matched and v not in matched:
            matched.add(u)
            matched.add(v)
    return len(matched) // 2


def vertex_cover_min(g: Graph) -> list:
    """A minimum vertex cover via bounded edge branching, trying budgets
    upward from a matching lower bound."""
    for k in range(matching_size(g.edges), g.n + 1):
        got = cover_at_most(g.edges, k)
        if got is not None:
            return sorted(got)
    raise AssertionError("V itself always covers")
