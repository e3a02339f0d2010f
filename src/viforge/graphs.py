"""Small simple-graph container plus the structural primitives the solvers
share: component splitting, induced subgraphs and anchored isomorphism.

``split`` is the one component splitter (``components``,
``is_connected_subset``, typesys pieces, the treedepth oracle).
``anchored_isomorphic`` is a backtracking isomorphism search between two
whole graphs; no solver calls it, because the canonical forms of
``typesys`` already give the maps between components of one type.

Vertices are dense integers 0..n-1.  Optional vertex capacities, vertex
colors and edge weights are total maps when present (every vertex/edge has an
entry or the attribute is absent entirely).  A graph builds its adjacency on
first use and keeps it; ``validate()`` drops it again, so code that edits
``edges`` in place calls ``validate()`` before reading the graph.
"""

from dataclasses import dataclass, field
from typing import Optional


def edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass
class Graph:
    n: int
    edges: set = field(default_factory=set)
    capacities: Optional[dict] = None
    colors: Optional[dict] = None
    weights: Optional[dict] = None
    _adj: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.edges = {edge_key(u, v) for (u, v) in self.edges}
        self.validate()

    def validate(self):
        self._adj = None
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        for (u, v) in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            if u == v:
                raise ValueError(f"self loop at {u}")
        if self.capacities is not None:
            if set(self.capacities) != set(range(self.n)):
                raise ValueError("capacity map must cover every vertex")
            for v, c in self.capacities.items():
                if c <= 0:
                    raise ValueError(f"capacity of {v} must be positive")
        if self.colors is not None:
            if set(self.colors) != set(range(self.n)):
                raise ValueError("color map must cover every vertex")
        if self.weights is not None:
            if set(self.weights) != self.edges:
                raise ValueError("weight map must cover every edge exactly")
            for e, w in self.weights.items():
                if w <= 0:
                    raise ValueError(f"weight of {e} must be positive")

    @property
    def m(self) -> int:
        return len(self.edges)

    def vertices(self):
        return range(self.n)

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edges

    def adjacency(self) -> tuple:
        """Neighbour set of every vertex, built on first use and shared by
        every caller, hence frozen."""
        if self._adj is None:
            adj = [set() for _ in range(self.n)]
            for (u, v) in self.edges:
                adj[u].add(v)
                adj[v].add(u)
            self._adj = tuple(map(frozenset, adj))
        return self._adj

    def degree(self, v: int) -> int:
        return len(self.adjacency()[v])

    def neighbors(self, v: int) -> frozenset:
        return self.adjacency()[v]

    def copy(self) -> "Graph":
        return Graph(
            self.n,
            set(self.edges),
            dict(self.capacities) if self.capacities is not None else None,
            dict(self.colors) if self.colors is not None else None,
            dict(self.weights) if self.weights is not None else None,
        )


def path_graph(n: int) -> Graph:
    return Graph(n, {(i, i + 1) for i in range(n - 1)})


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, {(i, (i + 1) % n) for i in range(n)})


def complete_graph(n: int) -> Graph:
    return Graph(n, {(i, j) for i in range(n) for j in range(i + 1, n)})


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, {(0, i) for i in range(1, leaves + 1)})


def components(g: Graph, removed=()) -> list:
    """Connected components of g minus ``removed``, each a sorted vertex
    list; components are ordered by their smallest vertex."""
    return split(g.adjacency(), set(range(g.n)).difference(removed))


def split(adj, vs) -> list:
    """Connected components of the subgraph that the adjacency ``adj``
    induces on the vertex set ``vs``, in the order of ``components``."""
    left = set(vs)
    out = []
    while left:
        comp = [left.pop()]
        stack = comp[:]
        while stack:
            fresh = adj[stack.pop()] & left
            if fresh:
                left -= fresh
                comp.extend(fresh)
                stack.extend(fresh)
        comp.sort()
        out.append(comp)
    out.sort()
    return out


def is_connected_subset(g: Graph, vs) -> bool:
    """True when the induced subgraph on ``vs`` is connected (empty set and
    singletons count as connected)."""
    vs = set(vs)
    return len(vs) <= 1 or len(split(g.adjacency(), vs)) == 1


def induced(g: Graph, vs) -> tuple[Graph, dict]:
    """Induced subgraph on ``vs`` with vertices renumbered 0..|vs|-1 in
    ascending original order.  Returns (subgraph, old->new map)."""
    keep = sorted(set(vs))
    for v in keep:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    remap = {old: new for new, old in enumerate(keep)}
    adj = g.adjacency()
    kept = set(keep)
    pairs = [(u, v) for u in keep for v in adj[u] & kept if u < v]
    # remap keeps the order, so the renumbered pairs stay (small, large)
    edges = {(remap[u], remap[v]) for (u, v) in pairs}
    caps = {remap[v]: g.capacities[v] for v in keep} if g.capacities is not None else None
    cols = {remap[v]: g.colors[v] for v in keep} if g.colors is not None else None
    wts = None
    if g.weights is not None:
        wts = {(remap[u], remap[v]): g.weights[(u, v)] for (u, v) in pairs}
    return Graph(len(keep), edges, caps, cols, wts), remap


def anchored_isomorphic(
    g1: Graph,
    g2: Graph,
    anchors1=(),
    anchors2=(),
    respect_capacities: Optional[bool] = None,
    respect_colors: Optional[bool] = None,
) -> Optional[dict]:
    """Isomorphism g1 -> g2 mapping anchors1[i] to anchors2[i], or None.

    Present capacity/color maps are respected by default.  Raises ValueError
    when the anchor lists have different lengths or repeat vertices.
    """
    anchors1 = list(anchors1)
    anchors2 = list(anchors2)
    if len(anchors1) != len(anchors2):
        raise ValueError("anchor lists must have equal length")
    if len(set(anchors1)) != len(anchors1) or len(set(anchors2)) != len(anchors2):
        raise ValueError("anchor lists must not repeat vertices")
    if g1.n != g2.n or g1.m != g2.m:
        return None
    if respect_capacities is None:
        respect_capacities = g1.capacities is not None and g2.capacities is not None
    if respect_colors is None:
        respect_colors = g1.colors is not None and g2.colors is not None
    if respect_capacities and (g1.capacities is None or g2.capacities is None):
        raise ValueError("capacities requested but absent")
    if respect_colors and (g1.colors is None or g2.colors is None):
        raise ValueError("colors requested but absent")

    for a, b in zip(anchors1, anchors2):
        if not (0 <= a < g1.n and 0 <= b < g2.n):
            raise ValueError("anchor out of range")

    def attr_ok(u, x):
        if respect_capacities and g1.capacities[u] != g2.capacities[x]:
            return False
        if respect_colors and g1.colors[u] != g2.colors[x]:
            return False
        return True

    adj1 = g1.adjacency()
    adj2 = g2.adjacency()
    mapping = {}
    used = set()
    for a, b in zip(anchors1, anchors2):
        if len(adj1[a]) != len(adj2[b]) or not attr_ok(a, b):
            return None
        mapping[a] = b
        used.add(b)
    # anchors must already induce matching adjacency among themselves
    for i, a in enumerate(anchors1):
        for a2 in anchors1[i + 1:]:
            if (a2 in adj1[a]) != (mapping[a2] in adj2[mapping[a]]):
                return None

    # free vertices by falling degree, ties by id, each onto the smallest
    # unused vertex that passes the degree, attribute and adjacency
    # checks, so the first map found depends only on ids
    free = sorted((v for v in range(g1.n) if v not in mapping), key=lambda v: (-len(adj1[v]), v))
    targets = [x for x in range(g2.n) if x not in used]

    def extend(idx):
        if idx == len(free):
            return True
        u = free[idx]
        for x in targets:
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
