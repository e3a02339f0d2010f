"""Maximum common subgraph and common induced subgraph solvers.

Both graphs get a separator whose removal leaves small components.  A
common subgraph is split into the part living on the separators plus an
anchor set on each side (guessed, together with the bijection between
them) and piece fragments inside the small components.  Fragments are
grouped by their anchored type, so the per-side choice reduces to "how
many components realise each decomposition", which an integer program
matches across the two sides.

The guessed anchor data is deduplicated per side before sides are
combined: a guess only matters through its anchor adjacency bits and
the multiset of component type codes, so each distinct (bits, codes)
key is solved once and keeps one concrete witness for reconstruction.
Components of G - S with one type are swapped by automorphisms of G
that fix S, so the extension anchors are drawn from the first few
members of each type only.

Work per type is shared across guesses.  One solve puts each labelled
pattern in canonical form once (a ``classify_detailed`` memo).  A type's
decompositions are enumerated once per process, on the first component
of that type seen, and kept with their witnesses in canonical positions
(anchors, then the representative's canonical order), so any component
of the type reads its pieces off its own canonical order.  A guess whose
piece total cannot beat the best answer so far, even if every component
took its heaviest decomposition, skips its piece IP.
"""

from collections import Counter
from itertools import combinations, permutations

from ..graphs import components
from ..ilp import IlpInstance, optimize
from ..integrity import vertex_integrity
from ..typesys import classify_detailed, enumerate_decompositions, g_type_of, piece_form
from .configuration import best

# (type code, induced flag) -> (largest weight, {piece-code multiset:
# (weight, Counter, witness)}).  A weight is the piece edge total for
# common subgraphs and the piece vertex total for the induced variant.
# A witness lists (piece vertices, kept inner edges, kept boundary
# edges) in canonical positions: position i is the i-th vertex of the
# anchors followed by a component's canonical order, which maps it into
# any component of the type.  It outlives a solve on purpose: the
# benchmark's 144 crosscheck mcs/mcis solves, run in one process on a
# 2-CPU machine with Python 3.11.7, took a median 0.12 s with it and
# 0.17 s when it was cleared before each solve (9 fresh processes
# each).  It grows with the number of distinct types seen.
_DECOMP_CACHE = {}


def _catalogue(t, h, rho, induced_flag):
    """Fill the cache entry of type ``t``, anchored at the list ``rho`` in
    h, from its representative when the type is new."""
    if (t.code, induced_flag) in _DECOMP_CACHE:
        return
    at = {v: i for i, v in enumerate(rho + list(t.orders[0]))}
    decomps = {}
    raw = enumerate_decompositions(h, rho, t.orders[0], induced_mode=induced_flag)
    for t_key, pieces in raw.items():
        edges = sum(len(f) + len(b) for (_, f, b) in pieces)
        verts = sum(len(vs) for (vs, _, _) in pieces)
        witness = [([at[v] for v in vs], [(at[u], at[v]) for (u, v) in f],
                    [(at[x], at[r]) for (x, r) in b]) for (vs, f, b) in pieces]
        decomps[t_key] = (verts if induced_flag else edges, Counter(t_key), witness)
    _DECOMP_CACHE[(t.code, induced_flag)] = (max(w for w, _, _ in decomps.values()), decomps)


def _anchor_bits(g, rho):
    return sum(1 << i for i, (u, v) in enumerate(combinations(rho, 2)) if g.has_edge(u, v))


def _side_keys(g, sep, z_max, ordered, induced_flag, two_k, memo):
    """Deduplicated anchor guesses for one side.

    A guess keeps X, Y inside the separator (the rest of the separator
    is deleted), and an anchor extension Z among the remaining vertices.
    The anchor order is sorted X + sorted Y + sorted Z when ``ordered``
    is false; otherwise all segment orders are produced, because the
    second side's anchor order encodes the bijection with the first.
    The components left, those of G - S - Z, depend on Z alone, so G is
    split once per Z and each anchor order is classified over them.

    Z meets at most ``z_max`` components of G - S, and an automorphism
    of G that fixes S carries the ones of each type onto the first
    members of the type, keeping every key; so Z is drawn from the
    first min(|group|, z_max) members of each type.  The ordered side
    keeps its key set exactly; the other side keeps it up to the order
    of Z's anchors, which the ordered side's orders cover.

    Returns {(sizes, bits, codes): the key's first anchor order}, in
    the labels of g; an order is its guess's witness, since X, Y and Z
    are its segments.  ``memo`` is the solve's ``classify_detailed`` memo.
    """
    table = {}
    sep = sorted(sep)
    free = sorted(v for _, cs in classify_detailed(g, sep, memo=memo)
                  for c in cs[:z_max] for v in c)
    splits = []
    for z_size in range(min(z_max, len(free)) + 1):
        for z_set in combinations(free, z_size):
            comps = components(g, {*sep, *z_set})
            splits.append((z_set, comps, max(map(len, comps), default=0)))
    for x_size in range(len(sep) + 1):
        for x_set in combinations(sep, x_size):
            left = [v for v in sep if v not in x_set]
            for y_size in range(len(left) + 1):
                for y_set in combinations(left, y_size):
                    for z_set, comps, largest in splits:
                        if x_size + y_size + len(z_set) + largest > two_k:
                            continue
                        # second side orders anchors as X, Z, Y so the
                        # segment lengths line up with side one's X, Y, Z
                        if ordered:
                            rhos = [bx + bz + bw for bx in permutations(x_set)
                                    for bz in permutations(z_set) for bw in permutations(y_set)]
                            sizes = (x_size, len(z_set), y_size)
                        else:
                            rhos = [x_set + y_set + z_set]
                            sizes = (x_size, y_size, len(z_set))
                        for rho in rhos:
                            codes = []
                            for t, cs in classify_detailed(g, rho, memo=memo, comps=comps):
                                _catalogue(t, g, list(rho), induced_flag)
                                codes.extend([t.code] * len(cs))
                            key = (sizes, _anchor_bits(g, rho), tuple(sorted(codes)))
                            table.setdefault(key, rho)
    return table


def _prune_columns(cols1, cols2):
    """Drop decompositions using piece codes absent from the other side."""
    while True:
        avail1 = set().union(*(set(gam) for (_, _, _, _, gam) in cols1)) if cols1 else set()
        avail2 = set().union(*(set(gam) for (_, _, _, _, gam) in cols2)) if cols2 else set()
        n1 = [c for c in cols1 if set(c[4]) <= avail2]
        n2 = [c for c in cols2 if set(c[4]) <= avail1]
        if len(n1) == len(cols1) and len(n2) == len(cols2):
            return n1, n2
        cols1, cols2 = n1, n2


def _piece_ilp(codes1, codes2, induced_flag):
    """Match piece decompositions across the sides.

    Returns (optimal total, side-1 columns, side-2 columns, point) where
    a column is (type code, decomposition key, count bound).  Piece
    totals are edge counts for common subgraphs and vertex counts for
    the induced variant.
    """
    cols = ([], [])
    for side, codes in enumerate((codes1, codes2)):
        for code, cnt in sorted(Counter(codes).items()):
            for t_key, (weight, gam, _) in sorted(_DECOMP_CACHE[(code, induced_flag)][1].items()):
                cols[side].append((code, t_key, cnt, weight, gam))
    cols1, cols2 = _prune_columns(cols[0], cols[1])

    p = len(cols1) + len(cols2)
    bounds = [(0, c[2]) for c in cols1] + [(0, c[2]) for c in cols2]
    constraints = []
    for side, colset, codes in ((0, cols1, codes1), (1, cols2, codes2)):
        offset = 0 if side == 0 else len(cols1)
        for code, cnt in sorted(Counter(codes).items()):
            row = [0] * p
            hit = False
            for i, c in enumerate(colset):
                if c[0] == code:
                    row[offset + i] = 1
                    hit = True
            if not hit:
                # every decomposition of this type was pruned away, which
                # cannot happen: the empty decomposition survives pruning
                raise RuntimeError("type lost all decompositions")
            constraints.append((tuple(row), "==", cnt))
    gammas = sorted(set().union(*(set(c[4]) for c in cols1)) if cols1 else set())
    for gamma in gammas:
        row = [c[4].get(gamma, 0) for c in cols1]
        row += [-c[4].get(gamma, 0) for c in cols2]
        constraints.append((tuple(row), "==", 0))
    obj = [c[3] for c in cols1] + [0] * len(cols2)

    inst = IlpInstance(tuple(bounds), tuple(constraints), (tuple(obj), "max"))
    got = optimize(inst)
    if got is None:
        raise RuntimeError("piece matching must always admit the empty choice")
    point, value = got
    return value, cols1, cols2, point


def _match_piece(rho1, piece1, rho2, piece2):
    """Concrete map of one piece onto a code-equal piece of the other side:
    kept edges go onto kept edges, and each vertex goes onto one with the
    same links to the anchors (by anchor position).  It pairs the two
    pieces' canonical orders position by position."""
    (code1, order1), (code2, order2) = (piece_form(rho, vs, set(f) | set(b))
                                        for rho, (vs, f, b) in ((rho1, piece1), (rho2, piece2)))
    if code1 != code2:
        raise RuntimeError("code-equal pieces must admit an anchored match")
    return dict(zip(order1, order2))


def _assigned_pieces(g, sep, rho, cols, point, offset, induced_flag, memo):
    """Concrete pieces realising the chosen decomposition counts, each
    read off the cached witness through its component's canonical
    order."""
    rho = list(rho)
    comps = components(g, set(sep).union(rho))
    groups = {t.code: (t, list(range(len(cs))))
              for t, cs in classify_detailed(g, rho, memo=memo, comps=comps)}
    pieces = []
    for i, (code, t_key, _, _, _) in enumerate(cols):
        t, left = groups[code]
        witness = _DECOMP_CACHE[(code, induced_flag)][1][t_key][2]
        for _ in range(point[offset + i]):
            order = rho + list(t.orders[left.pop()])
            for (vs, f, b) in witness:
                vs = [order[p] for p in vs]
                f = {(order[p], order[q]) for (p, q) in f}
                b = {(order[p], order[q]) for (p, q) in b}
                pcode = g_type_of(g, rho, vs, b, f).code
                pieces.append((pcode, (vs, f, b)))
    return pieces


def _reconstruct(g1, g2, s1, s2, rho1, rho2, piece_answer, induced_flag, memo):
    _, cols1, cols2, point = piece_answer
    pieces1 = _assigned_pieces(g1, s1, rho1, cols1, point, 0, induced_flag, memo)
    pieces2 = _assigned_pieces(g2, s2, rho2, cols2, point, len(cols1), induced_flag, memo)
    pieces1.sort(key=lambda pc: pc[0])
    pieces2.sort(key=lambda pc: pc[0])

    mapping = dict(zip(rho1, rho2))
    for (c1, p1), (c2, p2) in zip(pieces1, pieces2):
        if c1 != c2:
            raise RuntimeError("piece code mismatch in matched solution")
        mapping.update(_match_piece(rho1, p1, rho2, p2))
    return mapping


def _common_solve(g1, g2, induced_flag):
    g1.validate()
    g2.validate()
    if g1.n == 0 or g2.n == 0:
        return 0, {}
    k1, vis1 = vertex_integrity(g1)
    k2, vis2 = vertex_integrity(g2)
    two_k = 2 * max(k1, k2)
    s1 = sorted(vis1.separator)
    s2 = sorted(vis2.separator)

    memo = {}
    side1 = _side_keys(g1, s1, len(s2), False, induced_flag, two_k, memo)
    side2 = _side_keys(g2, s2, len(s1), True, induced_flag, two_k, memo)

    def reach(codes):
        # the piece total if every component took its heaviest
        # decomposition; matched pieces have equal codes, so both sides
        # carry the same total and the smaller reach bounds it
        return sum(_DECOMP_CACHE[(code, induced_flag)][0] for code in codes)

    by_sizes = {}
    for key2, wit2 in side2.items():
        by_sizes.setdefault(key2[0], []).append((key2, wit2, reach(key2[2])))

    def guesses():
        for (sizes1, bits1, codes1), wit1 in side1.items():
            reach1 = reach(codes1)
            for (sizes2, bits2, codes2), wit2, reach2 in by_sizes.get(sizes1, ()):
                if induced_flag:
                    if bits1 != bits2:
                        continue
                    base = sizes1[0] + sizes1[1] + sizes1[2]
                else:
                    base = bin(bits1 & bits2).count("1")
                yield base, (codes1, codes2), wit1, wit2, base + min(reach1, reach2)

    # (codes1, codes2) -> _piece_ilp's whole answer, so each piece IP is
    # solved at most once per solve and the winner's is read back for
    # the mapping
    piece_answers = {}

    def solve(guess):
        base, codes, wit1, wit2, _ = guess
        if codes not in piece_answers:
            piece_answers[codes] = _piece_ilp(*codes, induced_flag)
        piece = piece_answers[codes]
        return base + piece[0], wit1, wit2, piece

    value, wit1, wit2, piece = best(guesses(), solve, key=lambda got: -got[0],
                                    bound=lambda guess: -guess[4])
    return value, _reconstruct(g1, g2, s1, s2, wit1, wit2, piece, induced_flag, memo)


def mcs_vi(g1, g2):
    """Largest edge count of a common subgraph, with a vertex mapping
    realising it."""
    return _common_solve(g1, g2, False)


def mcis_vi(g1, g2):
    """Largest vertex count of a common induced subgraph, with a vertex
    mapping realising it."""
    return _common_solve(g1, g2, True)
