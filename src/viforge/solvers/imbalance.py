"""Minimum imbalance orderings for graphs with a small separator.

The imbalance of a vertex ordering is the sum over all vertices of
|left neighbours - right neighbours|.  After fixing a separator S whose
removal leaves only small components, every ordering splits into an
ordering of S plus, per component, a placement of its vertices into the
gaps between separator vertices.  Components of the same anchored type
admit the same placements, so placements are enumerated once per type,
collapsed to their cost signature, and the number of components using
each signature is chosen by the integer program of
``solvers/configuration.py``.
"""

from itertools import combinations_with_replacement, permutations

from ..graphs import anchored_isomorphic  # noqa: F401  (perfbench wraps this binding)
from ..ilp import optimize
from ..integrity import vertex_integrity
from ..typesys import classify_detailed
from .configuration import configuration_ip, place


def imbalance_of(g, ordering):
    """Total imbalance of ``ordering``.

    Raises ValueError when the ordering is not a permutation of the
    vertices of g.
    """
    order = list(ordering)
    if sorted(order) != list(range(g.n)):
        raise ValueError("ordering must be a permutation of the vertices")
    pos = {v: i for i, v in enumerate(order)}
    total = 0
    for v in range(g.n):
        left = sum(1 for u in g.neighbors(v) if pos[u] < pos[v])
        total += abs(2 * left - g.degree(v))
    return total


def _placements(g, sigma, comp):
    """Cost signatures of all ways to interleave one component with sigma.

    A placement is an order pi of the component vertices plus a
    non-decreasing gap index per vertex (gap j sits right before
    sigma[j], gap len(sigma) is the tail).  Returns
    {(im, l_vec): (pi, gaps)} where im is the imbalance contributed by
    the component vertices and l_vec[j] counts neighbours of sigma[j]
    inside the component placed before sigma[j].
    """
    s_pos = {v: i for i, v in enumerate(sigma)}
    out = {}
    for pi in permutations(comp):
        for gaps in combinations_with_replacement(range(len(sigma) + 1), len(comp)):
            # realise the joint ordering of sigma and the component
            joint = []
            it = 0
            for j in range(len(sigma) + 1):
                while it < len(pi) and gaps[it] == j:
                    joint.append(pi[it])
                    it += 1
                if j < len(sigma):
                    joint.append(sigma[j])
            pos = {v: i for i, v in enumerate(joint)}
            im = 0
            for v in comp:
                left = sum(1 for u in g.neighbors(v) if pos[u] < pos[v])
                im += abs(2 * left - g.degree(v))
            l_vec = tuple(
                sum(1 for u in g.neighbors(s) if u in pos and u not in s_pos and pos[u] < pos[s])
                for s in sigma
            )
            sig = (im, l_vec)
            if sig not in out:
                out[sig] = (pi, gaps)
    return out


def _solve_for_order(g, sigma):
    groups = classify_detailed(g, sigma)
    # one count per (group, placement signature), then y_j >= the
    # imbalance of sigma[j]
    cols = [(gi, placed) for gi, (_, comps) in enumerate(groups)
            for placed in sorted(_placements(g, sigma, comps[0]).items())]
    n_y = len(sigma)
    s_pos = {v: i for i, v in enumerate(sigma)}
    rows = []
    for j, s in enumerate(sigma):
        nbrs = g.neighbors(s)
        # separator neighbours left of sigma[j] minus those right of it
        d0 = sum(1 if s_pos[u] < j else -1 for u in nbrs if u in s_pos)
        diff = [2 * l_vec[j] - len(nbrs & set(groups[gi][1][0]))
                for gi, ((_, l_vec), _) in cols]
        y = tuple(int(i == j) for i in range(n_y))
        # y_j >= d0 + sum(diff * x) and y_j >= -(d0 + sum(diff * x))
        rows.append((tuple(-c for c in diff) + y, ">=", d0))
        rows.append((tuple(diff) + y, ">=", -d0))
    obj = [im for _, ((im, _), _) in cols] + [1] * n_y
    inst = configuration_ip(groups, cols, rows, (obj, "min"), [(0, g.n)] * n_y)
    got = optimize(inst)
    if got is None:
        return None

    buckets = [[] for _ in range(len(sigma) + 1)]
    for _, phi, (_, (pi, gaps)) in place(g, sigma, groups, cols, got[0], "plain"):
        for v, gp in zip(pi, gaps):
            buckets[gp].append(phi[v])

    ordering = []
    for j in range(len(sigma) + 1):
        ordering.extend(buckets[j])
        if j < len(sigma):
            ordering.append(sigma[j])
    return imbalance_of(g, ordering), ordering


def imbalance_vi(g):
    """Minimum imbalance of g and an ordering attaining it."""
    g.validate()
    if g.n == 0:
        return 0, []
    _, vis = vertex_integrity(g)
    sep = sorted(vis.separator)
    best = None
    for sigma in permutations(sep):
        got = _solve_for_order(g, list(sigma))
        if got is not None and (best is None or got[0] < best[0]):
            best = got
    return best
