"""Canonical classification of the bounded-size pieces left after deleting a
separator.

A component type is the anchored canonical form of G[S u C]: the adjacency
matrix with the S rows pinned in their given order and the component rows
permuted to make the row-major cell string lexicographically minimal.  Two
components of G - S get the same code exactly when some isomorphism of their
anchored subgraphs fixes S pointwise.  Capacity and color variants append the
attribute vector to the compared string.

Equal codes also give that isomorphism: each component's canonical order
(the first permutation reaching the code) lists its vertices so that
pairing two orders position by position, S held fixed, carries one
component onto the other.  ``classify_detailed`` keeps every member's
order, so mapping a representative onto a member is a zip, not a search.

Piece types play the same role for pairs (A, B): a connected fragment A
outside the anchor set R together with a kept subset B of its edges into R.
Their codes carry a (|R|, |A|) header so pieces of different shape never
collide, and anchor-anchor cells are excluded (a piece owns only its own
edges).  ``enumerate_decompositions`` builds its pieces itself, so it
takes each piece's code straight from ``piece_form``.

``type_of``, ``classify``, ``g_type_of`` and ``PieceType`` validate their
input and are public helpers that no solver calls, kept on purpose for
tests, benchmarks and library callers.
"""

from array import array
from dataclasses import dataclass, field
from itertools import combinations

from ._kernels import min_anchored_code
from .graphs import Graph, components, edge_key, split

MODES = ("plain", "capacity", "color")


@dataclass(frozen=True)
class ComponentType:
    code: bytes
    anchor_count: int
    size: int
    # Filled by classify_detailed: each member's vertices in canonical
    # order, aligned with the member list.  Not part of the type.
    orders: tuple = field(default=(), compare=False, repr=False)

    @property
    def hex(self) -> str:
        return self.code.hex()

    def member_map(self, s_list, j) -> dict:
        """Map of S + the representative (member 0) onto S + member j that
        fixes S pointwise; the identity when j is 0."""
        phi = dict(zip(s_list, s_list))
        phi.update(zip(self.orders[0], self.orders[j]))
        return phi


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


def _adj_matrix(order, n_anchor, adj) -> list:
    """0/1 adjacency matrix over ``order``, whose first ``n_anchor``
    vertices are the anchors, read from the neighbour sets ``adj``.

    Only the anchors' sets are tested for the other anchors, and only the
    free vertices' sets are walked, so a high-degree anchor costs nothing
    beyond its anchor pairs.  Neighbours outside ``order`` are ignored.
    """
    idx = {v: i for i, v in enumerate(order)}
    s = len(order)
    m = [[0] * s for _ in range(s)]
    for i in range(n_anchor):
        nb = adj[order[i]]
        for j in range(i):
            if order[j] in nb:
                m[i][j] = m[j][i] = 1
    for i in range(n_anchor, s):
        for v in adj[order[i]]:
            j = idx.get(v)
            if j is not None:
                m[i][j] = m[j][i] = 1
    return m


def _canon_form(order, n_anchor, adj, attrs):
    """(code, free vertices of ``order`` in canonical order)."""
    free = len(order) - n_anchor
    if n_anchor > 0xFF or free > 0xFF:
        raise ValueError("a canonical code holds at most 255 anchors and 255 free vertices")
    cells, perm = min_anchored_code(_adj_matrix(order, n_anchor, adj), attrs, n_anchor)
    code = bytes([n_anchor, free]) + array("q", cells).tobytes()
    return code, tuple(order[p] for p in perm)


def _check_anchor_list(g: Graph, s_ordered):
    s_list = list(s_ordered)
    if len(set(s_list)) != len(s_list):
        raise ValueError("anchor order repeats a vertex")
    for v in s_list:
        if not (0 <= v < g.n):
            raise ValueError(f"anchor {v} out of range")
    return s_list


def _component_form(g: Graph, s_list, comp, mode):
    """(code, canonical order) of the sorted component ``comp`` of g - S,
    unvalidated."""
    order = s_list + comp
    return _canon_form(order, len(s_list), g.adjacency(), _attr_vector(g, order, mode))


def type_of(g: Graph, s_ordered, c, mode="plain") -> ComponentType:
    """Canonical type of component ``c`` of g - set(s_ordered)."""
    s_list = _check_anchor_list(g, s_ordered)
    comp = sorted(c)
    if comp not in components(g, set(s_list)):
        raise ValueError("c is not a component of g minus the anchors")
    code, _ = _component_form(g, s_list, comp, mode)
    return ComponentType(code, len(s_list), len(comp))


def classify_detailed(g: Graph, s_ordered, mode="plain", memo=None, comps=None):
    """Components of g - S grouped by type.

    Returns a list of (ComponentType, [component vertex lists]) sorted by
    code; component lists keep the smallest-vertex order, and the type's
    ``orders`` holds each member's canonical order, aligned with the list.

    ``comps`` gives the components to group, as ``components`` lists
    them; it defaults to those of g - S.  They may be the components of
    g minus a superset R of S: a member's neighbours in R - S are
    skipped, so the result is the one for g with R - S deleted.

    The canonical form is computed once per labelled pattern: for each
    vertex of the sorted component, a link mask (bit i for the i-th
    anchor, bit |S| + j for the j-th vertex of its component) and its
    attribute.  The pattern fixes the matrix and the attribute vector
    that ``_canon_form`` reads over S + C (the anchor rows are the same
    for every component), so components with one pattern get the same
    code and the same canonical positions.

    Without ``memo`` the forms live for one call.  A caller that
    classifies many graphs or anchor orders can pass the same dict to
    each call; it keeps the forms under (mode, anchor count, anchor
    attributes, anchor-anchor adjacency), which fixes the anchor rows,
    and then under the pattern, so each labelled pattern is put in
    canonical form once across all those calls.
    """
    s_list = _check_anchor_list(g, s_ordered)
    adj = g.adjacency()
    if comps is None:
        comps = components(g, set(s_list))
        bit = {}
    else:
        bit = dict.fromkeys(range(g.n), 0)      # R - S adds no link
    bit.update((v, 1 << i) for i, v in enumerate(s_list))
    for comp in comps:
        for j, v in enumerate(comp, len(s_list)):
            bit[v] = 1 << j
    if memo is None:
        forms = {}              # pattern -> (code, canonical positions)
    else:
        s_edges = tuple(w in adj[v] for i, v in enumerate(s_list) for w in s_list[:i])
        anchors = (mode, len(s_list), tuple(_attr_vector(g, s_list, mode)), s_edges)
        forms = memo.setdefault(anchors, {})
    groups = {}
    for comp in comps:
        links = []
        for u in comp:
            mask = 0
            for w in adj[u]:
                mask |= bit[w]
            links.append(mask)
        pattern = (tuple(links), tuple(_attr_vector(g, comp, mode)))
        form = forms.get(pattern)
        if form is None:
            code, order = _component_form(g, s_list, comp, mode)
            at = {v: j for j, v in enumerate(comp)}
            form = forms[pattern] = (code, tuple(at[v] for v in order))
        code, positions = form
        members, orders = groups.setdefault(code, ([], []))
        members.append(comp)
        orders.append(tuple(comp[j] for j in positions))
    return [(ComponentType(code, len(s_list), len(members[0]), tuple(orders)), members)
            for code, (members, orders) in sorted(groups.items())]


def classify(g: Graph, s_ordered, mode="plain") -> dict:
    """Map from component type to the number of components of that type."""
    return {t: len(cs) for t, cs in classify_detailed(g, s_ordered, mode)}


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
    return _canon_form(order, len(s_list), g.adjacency(), attrs)[0]


def _split_via(vertices, edges) -> list:
    """Components of the graph on ``vertices`` whose edges are ``edges``,
    in the order of ``split``."""
    adj = {v: set() for v in vertices}
    for (u, v) in edges:
        adj[u].add(v)
        adj[v].add(u)
    return split(adj, vertices)


def piece_form(r_list, a, edges):
    """(code, canonical order of A) of the piece on the vertices ``a``
    anchored at ``r_list`` whose edges are ``edges`` (kept inner edges
    and kept boundary edges, either way round).  Pieces with equal codes
    over anchor lists of one length are carried onto each other, anchor
    positions fixed, by pairing their orders."""
    r_list = list(r_list)
    order = r_list + sorted(a)
    adj = {v: set() for v in order}
    for (u, v) in edges:
        adj[u].add(v)
        adj[v].add(u)
    return _canon_form(order, len(r_list), adj, [0] * len(order))


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
    if len(_split_via(a_sorted, f)) > 1:
        raise ValueError("piece is not connected through its kept edges")
    b_norm = set()
    for (x, r) in b:
        if x in r_set and r in a_set:
            x, r = r, x
        if x not in a_set or r not in r_set or not g.has_edge(x, r):
            raise ValueError("boundary edge must join the piece to an anchor")
        b_norm.add((x, r))
    code, _ = piece_form(r_list, a_sorted, f | b_norm)
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
    comp_set = set(comp)
    inner_all = {e for e in g.edges if e[0] in comp_set and e[1] in comp_set}
    boundary_all = {}
    for (u, v) in g.edges:
        if u in r_set and v in comp_set:
            boundary_all.setdefault(v, set()).add((v, u))
        elif v in r_set and u in comp_set:
            boundary_all.setdefault(u, set()).add((u, v))

    out = {}

    def piece_options(piece_vs, piece_f):
        """(b_choice, code) for each distinct piece code over boundary subsets."""
        bedges = sorted(set().union(*(boundary_all.get(v, set()) for v in piece_vs)))
        if len(bedges) > 16:
            raise ValueError("piece boundary too large to enumerate")
        opts = {}
        for bsub in _subsets(bedges):
            code, _ = piece_form(r_list, piece_vs, piece_f | set(bsub))
            opts.setdefault(code, set(bsub))
        return [(bsub, code) for code, bsub in opts.items()]

    def record(pieces):
        # pieces: list of (vs, f, b, piece code)
        key = tuple(sorted(code for (_, _, _, code) in pieces))
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
            # per piece: (vertices, kept inner edges, boundary choices)
            pieces = []
            for vs in _split_via(kset, fset):
                vset = set(vs)
                pf = {e for e in fset if e[0] in vset}
                if induced_mode:
                    bedges = sorted(set().union(*(boundary_all.get(v, set()) for v in vs)))
                    options = [(set(bedges), piece_form(r_list, vs, pf | set(bedges))[0])]
                else:
                    options = piece_options(vs, pf)
                pieces.append((vs, pf, options))

            # cross product of per-piece boundary choices
            def expand(i, acc):
                if i == len(pieces):
                    record(acc)
                    return
                vs, pf, options = pieces[i]
                for (bsub, code) in options:
                    expand(i + 1, acc + [(vs, pf, bsub, code)])
            expand(0, [])
    return out
