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
of that type seen, and kept with their witnesses: each piece's code and
canonical order, in canonical positions (anchors, then the
representative's canonical order).  Any component of the type reads its
pieces and their canonical orders off its own canonical order, and
zipping the orders of two code-equal pieces matches them, so
reconstruction computes no canonical form.  A guess whose piece total
cannot beat the best answer so far, even if every component took its
heaviest decomposition, skips its piece IP.

The piece IP is a configuration IP (``configuration.configuration_ip``)
whose groups are the two sides' type counts and whose extra rows make
each side use every piece code equally often.
"""

from collections import Counter
from itertools import combinations, permutations

from ..graphs import components
from ..ilp import optimize
from ..integrity import vertex_integrity
from ..typesys import classify_detailed, enumerate_decompositions, piece_form
from ..typesys import g_type_of  # noqa: F401  (perfbench wraps this binding)
from .configuration import best, configuration_ip

# (type code, induced flag) -> (largest weight, {piece-code multiset:
# (weight, Counter, witness)}).  A weight is the piece edge total for
# common subgraphs and the piece vertex total for the induced variant.
# A witness lists (piece code, piece vertices in the piece's canonical
# order) for each piece, the vertices as canonical positions: position i
# is the i-th vertex of the anchors followed by a component's canonical
# order, which maps it into any component of the type.  Reconstruction
# reads both off the cache and computes no canonical form.  The cache
# outlives a solve on purpose: the benchmark's 144 crosscheck mcs/mcis
# solves, run in one process on a 2-CPU machine with Python 3.11.7, took
# a median 0.12 s with it and 0.17 s when it was cleared before each
# solve (9 fresh processes each).  It grows with the number of distinct
# types seen.
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
        witness = []
        for (vs, f, b) in pieces:
            pcode, order = piece_form(rho, vs, f | b)
            witness.append((pcode, [at[v] for v in order]))
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
        avail1, avail2 = (set().union(*(gam for _, (_, _, gam, _) in cols))
                          for cols in (cols1, cols2))
        n1 = [c for c in cols1 if c[1][2].keys() <= avail2]
        n2 = [c for c in cols2 if c[1][2].keys() <= avail1]
        if len(n1) == len(cols1) and len(n2) == len(cols2):
            return n1, n2
        cols1, cols2 = n1, n2


def _piece_ilp(codes1, codes2, induced_flag):
    """Match piece decompositions across the sides.

    A group is one side's type code with ``range(count)`` for its count
    of components, side 1's groups first, and a column is (group index,
    (type code, weight, piece-code Counter, witness)), one per surviving
    decomposition of the group's type.
    Returns (optimal total, side-1 columns, side-2 columns, point).
    Piece totals are edge counts for common subgraphs and vertex counts
    for the induced variant.
    """
    groups, sides = [], ([], [])
    for cols, codes in zip(sides, (codes1, codes2)):
        for code, cnt in sorted(Counter(codes).items()):
            decomps = _DECOMP_CACHE[(code, induced_flag)][1]
            cols += [(len(groups), (code, *decomps[t_key])) for t_key in sorted(decomps)]
            groups.append((code, range(cnt)))
    cols1, cols2 = _prune_columns(*sides)

    signed = ([(gam, 1) for _, (_, _, gam, _) in cols1]
              + [(gam, -1) for _, (_, _, gam, _) in cols2])
    gammas = sorted(set().union(*(gam for _, (_, _, gam, _) in cols1)))
    rows = [(tuple(sign * gam[gamma] for gam, sign in signed), "==", 0) for gamma in gammas]
    obj = tuple(weight for _, (_, weight, _, _) in cols1) + (0,) * len(cols2)
    got = optimize(configuration_ip(groups, cols1 + cols2, rows, (obj, "max")))
    if got is None:
        raise RuntimeError("piece matching must always admit the empty choice")
    point, value = got
    return value, cols1, cols2, point


def _assigned_pieces(g, sep, rho, cols, counts, memo):
    """(piece code, piece vertices in canonical order) of every piece
    realising the chosen decomposition counts, each read off the cached
    witness through its component's canonical order."""
    rho = list(rho)
    comps = components(g, set(sep).union(rho))
    groups = {t.code: (t, list(range(len(cs))))
              for t, cs in classify_detailed(g, rho, memo=memo, comps=comps)}
    pieces = []
    for (_, (code, _, _, witness)), count in zip(cols, counts):
        t, left = groups[code]
        for _ in range(count):
            order = rho + list(t.orders[left.pop()])
            pieces += [(pcode, [order[p] for p in at]) for pcode, at in witness]
    return pieces


def _reconstruct(g1, g2, s1, s2, rho1, rho2, piece_answer, memo):
    """The anchor bijection plus, for code-equal pieces paired in code
    order, the zip of their canonical orders: it carries kept edges onto
    kept edges and each vertex onto one with the same anchor links."""
    _, cols1, cols2, point = piece_answer
    pieces1 = _assigned_pieces(g1, s1, rho1, cols1, point[:len(cols1)], memo)
    pieces2 = _assigned_pieces(g2, s2, rho2, cols2, point[len(cols1):], memo)
    pieces1.sort(key=lambda pc: pc[0])
    pieces2.sort(key=lambda pc: pc[0])

    mapping = dict(zip(rho1, rho2))
    for (c1, order1), (c2, order2) in zip(pieces1, pieces2):
        if c1 != c2:
            raise RuntimeError("piece code mismatch in matched solution")
        mapping.update(zip(order1, order2))
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
    return value, _reconstruct(g1, g2, s1, s2, wit1, wit2, piece, memo)


def mcs_vi(g1, g2):
    """Largest edge count of a common subgraph, with a vertex mapping
    realising it."""
    return _common_solve(g1, g2, False)


def mcis_vi(g1, g2):
    """Largest vertex count of a common induced subgraph, with a vertex
    mapping realising it."""
    return _common_solve(g1, g2, True)
