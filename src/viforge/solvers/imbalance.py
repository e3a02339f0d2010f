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

import math
from itertools import combinations_with_replacement, permutations

from ..graphs import anchored_isomorphic  # noqa: F401  (perfbench wraps this binding)
from ..ilp import optimize
from ..integrity import vertex_integrity
from ..lp import lp_bound
from ..typesys import classify_detailed
from .configuration import best, columns, configuration_ip, place


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
    inside = set(comp)
    comp_nbrs = [(v, g.neighbors(v), g.degree(v)) for v in comp]
    sigma_nbrs = [(s, g.neighbors(s) & inside) for s in sigma]
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
            for v, nbrs, deg in comp_nbrs:
                left = sum(1 for u in nbrs if pos[u] < pos[v])
                im += abs(2 * left - deg)
            l_vec = tuple(sum(1 for u in nbrs if pos[u] < pos[s]) for s, nbrs in sigma_nbrs)
            sig = (im, l_vec)
            if sig not in out:
                out[sig] = (pi, gaps)
    return out


def _order_ip(g, sigma):
    """(sigma, groups, columns, instance): the configuration IP of the
    separator order sigma."""
    groups = classify_detailed(g, sigma)
    # one count per (group, placement signature), then y_j >= the
    # imbalance of sigma[j]
    cols = columns(groups, lambda rep: _placements(g, sigma, rep))
    n_y = len(sigma)
    s_pos = {v: i for i, v in enumerate(sigma)}
    reps = [set(members[0]) for _, members in groups]
    rows = []
    for j, s in enumerate(sigma):
        nbrs = g.neighbors(s)
        # separator neighbours left of sigma[j] minus those right of it
        d0 = sum(1 if s_pos[u] < j else -1 for u in nbrs if u in s_pos)
        diff = [2 * l_vec[j] - len(nbrs & reps[gi])
                for gi, ((_, l_vec), _) in cols]
        y = tuple(int(i == j) for i in range(n_y))
        # y_j >= d0 + sum(diff * x) and y_j >= -(d0 + sum(diff * x))
        rows.append((tuple(-c for c in diff) + y, ">=", d0))
        rows.append((tuple(diff) + y, ">=", -d0))
    obj = [im for _, ((im, _), _) in cols] + [1] * n_y
    inst = configuration_ip(groups, cols, rows, (obj, "min"), [(0, g.n)] * n_y)
    return sigma, groups, cols, inst


def _root_bound(guess):
    """The ceiling of the order IP's exact LP bound, at most its optimum
    and so at most the order's imbalance; inf when the LP proves the IP
    infeasible."""
    bound, _ = lp_bound(guess[3])
    return math.inf if bound is None else math.ceil(bound)


def _solve_for_order(g, guess):
    sigma, groups, cols, inst = guess
    got = optimize(inst)
    if got is None:
        return None

    buckets = [[] for _ in range(len(sigma) + 1)]
    for _, phi, (_, (pi, gaps)) in place(sigma, groups, cols, got[0]):
        for v, gp in zip(pi, gaps):
            buckets[gp].append(phi[v])

    ordering = []
    for j in range(len(sigma) + 1):
        ordering.extend(buckets[j])
        if j < len(sigma):
            ordering.append(sigma[j])
    return imbalance_of(g, ordering), ordering


def imbalance_vi(g):
    """Minimum imbalance of g and an ordering attaining it.

    Reversing an ordering keeps its imbalance, so an order sigma of the
    separator has the same optimum as reversed(sigma).  When
    sigma[0] > sigma[-1], reversed(sigma) comes earlier in lexicographic
    order, and only a strictly better answer replaces the best one, so
    skipping sigma changes no answer.  The orders are visited in the order
    of their IPs' LP bounds (see ``configuration.best``), so an order
    whose bound cannot beat the best imbalance so far is never solved.
    """
    g.validate()
    if g.n == 0:
        return 0, []
    _, vis = vertex_integrity(g)
    ips = (_order_ip(g, list(sigma)) for sigma in permutations(sorted(vis.separator))
           if len(sigma) < 2 or sigma[0] < sigma[-1])
    return best(ips, lambda guess: _solve_for_order(g, guess), key=lambda got: got[0],
                bound=_root_bound)
