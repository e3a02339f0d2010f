"""Canonical classification of the bounded-size pieces left after deleting a
separator.

A component type is the anchored canonical form of G[S u C]: the adjacency
matrix with the S rows pinned in their given order and the component rows
permuted to make the row-major cell string lexicographically minimal.  Two
components of G - S get the same code exactly when some isomorphism of their
anchored subgraphs fixes S pointwise.  Capacity and color variants append the
attribute vector to the compared string.

Piece types play the same role for pairs (A, B): a connected fragment A
outside the anchor set R together with a kept subset B of its edges into R.
Their codes carry a (|R|, |A|) header so pieces of different shape never
collide, and anchor-anchor cells are excluded (a piece owns only its own
edges).
"""

from array import array
from dataclasses import dataclass
from itertools import combinations

from ._kernels import min_anchored_code
from .graphs import Graph, anchored_isomorphic, components, edge_key, induced

MODES = ("plain", "capacity", "color")


@dataclass(frozen=True)
class ComponentType:
    code: bytes
    anchor_count: int
    size: int

    @property
    def hex(self) -> str:
        return self.code.hex()


@dataclass(frozen=True)
class PieceType:
    code: bytes
    anchor_count: int
    size: int
    n_edges: int

    @property
    def hex(self) -> str:
        return self.code.hex()


def _attr_vector(g: Graph, order, mode):
    if mode == "capacity":
        if g.capacities is None:
            raise ValueError("capacity mode needs capacities")
        return [g.capacities[v] for v in order]
    if mode == "color":
        if g.colors is None:
            raise ValueError("color mode needs colors")
        return [g.colors[v] for v in order]
    if mode != "plain":
        raise ValueError(f"unknown mode {mode!r}")
    return [0] * len(order)


def _adj_matrix(order, edges) -> list:
    """0/1 adjacency matrix over ``order`` of the ``edges`` inside it."""
    idx = {v: i for i, v in enumerate(order)}
    s = len(order)
    adj = [[0] * s for _ in range(s)]
    for (u, v) in edges:
        i = idx.get(u)
        j = idx.get(v)
        if i is not None and j is not None:
            adj[i][j] = adj[j][i] = 1
    return adj


def _canon_code(adj, attrs, n_anchor) -> bytes:
    free = len(adj) - n_anchor
    head = bytes([n_anchor & 0xFF, free & 0xFF])
    return head + array("q", min_anchored_code(adj, attrs, n_anchor)).tobytes()


def _check_anchor_list(g: Graph, s_ordered):
    s_list = list(s_ordered)
    if len(set(s_list)) != len(s_list):
        raise ValueError("anchor order repeats a vertex")
    for v in s_list:
        if not (0 <= v < g.n):
            raise ValueError(f"anchor {v} out of range")
    return s_list


def _component_type(g: Graph, s_list, comp, mode, edges) -> ComponentType:
    """Type of the sorted component ``comp`` of g - S, unvalidated.
    ``edges`` must hold every edge of g inside S + comp."""
    order = s_list + comp
    code = _canon_code(_adj_matrix(order, edges), _attr_vector(g, order, mode), len(s_list))
    return ComponentType(code, len(s_list), len(comp))


def type_of(g: Graph, s_ordered, c, mode="plain") -> ComponentType:
    """Canonical type of component ``c`` of g - set(s_ordered)."""
    s_list = _check_anchor_list(g, s_ordered)
    comp = sorted(c)
    if comp not in components(g, set(s_list)):
        raise ValueError("c is not a component of g minus the anchors")
    return _component_type(g, s_list, comp, mode, g.edges)


def classify_detailed(g: Graph, s_ordered, mode="plain"):
    """Components of g - S grouped by type.

    Returns a list of (ComponentType, [component vertex lists]) sorted by
    code; component lists keep the smallest-vertex order.
    """
    s_list = _check_anchor_list(g, s_ordered)
    s_set = set(s_list)
    adj = g.adjacency()
    s_edges = [(u, v) for u in s_list for v in adj[u] if v in s_set]
    groups = {}
    for comp in components(g, s_set):
        edges = s_edges + [(u, v) for u in comp for v in adj[u]]
        t = _component_type(g, s_list, comp, mode, edges)
        groups.setdefault(t, []).append(comp)
    return sorted(groups.items(), key=lambda kv: kv[0].code)


def component_map(g: Graph, s_list, rep, comp, mode) -> dict:
    """Map of S + ``rep`` onto S + ``comp`` that fixes S pointwise.

    ``rep`` and ``comp`` are components of g - S of one ``mode`` type, so
    the map respects exactly what that type respects: capacities in
    "capacity" mode, colors in "color" mode.  It is the identity when
    ``comp == rep``.  Raises RuntimeError when no such map exists.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    s_list = list(s_list)
    phi = {s: s for s in s_list}
    if comp == rep:
        phi.update((v, v) for v in rep)
        return phi
    sub1, m1 = induced(g, s_list + rep)
    sub2, m2 = induced(g, s_list + comp)
    iso = anchored_isomorphic(sub1, sub2, [m1[s] for s in s_list], [m2[s] for s in s_list],
                              respect_capacities=mode == "capacity",
                              respect_colors=mode == "color")
    if iso is None:
        raise RuntimeError("components of equal type must be isomorphic")
    back = {x: v for v, x in m2.items()}
    phi.update((v, back[iso[m1[v]]]) for v in rep)
    return phi


def classify(g: Graph, s_ordered, mode="plain") -> dict:
    """Map from component type to the number of components of that type."""
    return {t: len(cs) for t, cs in classify_detailed(g, s_ordered, mode)}


def subset_pattern_code(g: Graph, s_ordered, comp, subset) -> bytes:
    """Canonical code of (component, marked vertex subset) with S pinned.

    Two subsets of same-type components get equal codes exactly when an
    S-fixing isomorphism carries one onto the other.
    """
    comp = sorted(comp)
    subset = set(subset)
    if not subset <= set(comp):
        raise ValueError("subset must lie inside the component")
    s_list = list(s_ordered)
    order = s_list + comp
    attrs = [1 if v in subset else 0 for v in order]
    return _canon_code(_adj_matrix(order, g.edges), attrs, len(s_list))


def labelled_code(g: Graph, s_ordered, comp, labels: dict) -> bytes:
    """Canonical code of (component, per-vertex integer label) with S pinned.

    Equal codes exactly when an S-fixing isomorphism carries one
    labelled component onto the other.
    """
    comp = sorted(comp)
    if set(labels) != set(comp):
        raise ValueError("labels must cover exactly the component")
    s_list = list(s_ordered)
    order = s_list + comp
    attrs = [int(labels[v]) if v in labels else 0 for v in order]
    return _canon_code(_adj_matrix(order, g.edges), attrs, len(s_list))


def _connected_via(vertices, edges) -> bool:
    vs = list(vertices)
    if len(vs) <= 1:
        return True
    adj = {v: set() for v in vs}
    for (u, v) in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {vs[0]}
    stack = [vs[0]]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vs)


def g_type_of(g: Graph, r_ordered, a, b, f=None) -> PieceType:
    """Canonical type of the piece (A, B) anchored at R.

    ``a`` is a vertex set outside R, ``b`` a set of (a-vertex, r-vertex)
    edges of g, and ``f`` the kept edges inside A (all induced edges when
    omitted).  A must be connected through ``f``.
    """
    r_list = _check_anchor_list(g, r_ordered)
    a_sorted = sorted(set(a))
    r_set = set(r_list)
    if set(a_sorted) & r_set:
        raise ValueError("piece vertices must avoid the anchors")
    a_set = set(a_sorted)
    if f is None:
        f = {e for e in g.edges if e[0] in a_set and e[1] in a_set}
    f = {edge_key(u, v) for (u, v) in f}
    for (u, v) in f:
        if not (u in a_set and v in a_set) or edge_key(u, v) not in g.edges:
            raise ValueError("kept inner edge not an A-edge of g")
    if not _connected_via(a_sorted, f):
        raise ValueError("piece is not connected through its kept edges")
    b_norm = set()
    for (x, r) in b:
        if x in r_set and r in a_set:
            x, r = r, x
        if x not in a_set or r not in r_set or not g.has_edge(x, r):
            raise ValueError("boundary edge must join the piece to an anchor")
        b_norm.add((x, r))
    order = r_list + a_sorted
    edges = set(f) | {edge_key(x, r) for (x, r) in b_norm}
    code = _canon_code(_adj_matrix(order, edges), [0] * len(order), len(r_list))
    return PieceType(code, len(r_list), len(a_sorted), len(f) + len(b_norm))


def _subsets(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from combinations(items, r)


def enumerate_decompositions(g: Graph, r_ordered, comp, induced_mode=False) -> dict:
    """All multisets of piece types obtainable from one component.

    A decomposition keeps a vertex subset K of the component, a subset F of
    the edges inside K and a subset B of the edges from K to the anchors;
    the pieces are the components of (K, F) with their incident B edges.
    With ``induced_mode`` K alone is chosen: F and B are forced to all
    induced and all boundary edges (the piece is taken as found).

    Returns {sorted piece-code tuple: witness}, each witness a list of
    (piece vertices, kept inner edges, kept boundary edges) in g's labels.
    """
    r_list = _check_anchor_list(g, r_ordered)
    r_set = set(r_list)
    comp = sorted(comp)
    inner_all = {e for e in g.edges if e[0] in comp and e[1] in comp}
    boundary_all = {}
    for (u, v) in g.edges:
        if u in r_set and v in set(comp):
            boundary_all.setdefault(v, set()).add((v, u))
        elif v in r_set and u in set(comp):
            boundary_all.setdefault(u, set()).add((u, v))

    out = {}

    def piece_options(piece_vs, piece_f):
        """Deduped (code -> (b_choice, piece type)) over boundary subsets."""
        bedges = sorted(set().union(*(boundary_all.get(v, set()) for v in piece_vs)))
        if len(bedges) > 16:
            raise ValueError("piece boundary too large to enumerate")
        opts = {}
        for bsub in _subsets(bedges):
            pt = g_type_of(g, r_list, piece_vs, bsub, piece_f)
            if pt.code not in opts:
                opts[pt.code] = (set(bsub), pt)
        return opts

    def record(pieces):
        # pieces: list of (vs, f, b, PieceType)
        key = tuple(sorted(pt.code for (_, _, _, pt) in pieces))
        if key not in out:
            out[key] = [(list(vs), set(f), set(b)) for (vs, f, b, _) in pieces]

    for ksub in _subsets(comp):
        kset = set(ksub)
        kedges = sorted(e for e in inner_all if e[0] in kset and e[1] in kset)
        if induced_mode:
            fsubs = [tuple(kedges)]
        else:
            if len(kedges) > 16:
                raise ValueError("component too dense to enumerate decompositions")
            fsubs = list(_subsets(kedges))
        for fsub in fsubs:
            fset = set(fsub)
            # split K into the components of (K, F)
            adj = {v: set() for v in kset}
            for (u, v) in fset:
                adj[u].add(v)
                adj[v].add(u)
            pieces_vs = []
            seen = set()
            for v in sorted(kset):
                if v in seen:
                    continue
                blob = [v]
                seen.add(v)
                stack = [v]
                while stack:
                    u = stack.pop()
                    for w in adj[u]:
                        if w not in seen:
                            seen.add(w)
                            blob.append(w)
                            stack.append(w)
                pieces_vs.append(sorted(blob))
            per_piece = []
            for vs in pieces_vs:
                pf = {e for e in fset if e[0] in set(vs)}
                if induced_mode:
                    bedges = sorted(set().union(*(boundary_all.get(v, set()) for v in vs)))
                    pt = g_type_of(g, r_list, vs, bedges, pf)
                    per_piece.append([(set(bedges), pt)])
                else:
                    per_piece.append(list(piece_options(vs, pf).values()))
            # cross product of per-piece boundary choices
            def expand(i, acc):
                if i == len(pieces_vs):
                    record(acc)
                    return
                vs = pieces_vs[i]
                pf = {e for e in fset if e[0] in set(vs)}
                for (bsub, pt) in per_piece[i]:
                    expand(i + 1, acc + [(vs, pf, bsub, pt)])
            expand(0, [])
    return out
