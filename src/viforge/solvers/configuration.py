"""The configuration step the separator solvers end with.

Once a separator S is fixed, the components of G - S come in groups of
equal anchored type (``classify_detailed``), and each group's first
component is its representative.  A column is a ``(group index,
payload)`` pair, where the payload is one entry of the representative's
catalogue (a signature and its witness).  Its count variable says how
many components of the group take that payload.  ``configuration_ip``
builds the integer program over the counts, and ``place`` hands every
component its payload with the map that carries the representative onto
it.
"""

from ..ilp import IlpInstance
from ..typesys import component_map


def configuration_ip(groups, cols, rows, objective=None, extra=()):
    """Integer program over one count per column, bounded by (0, |group|),
    followed by variables with the ``extra`` bounds.

    The group-sum rows (each group's counts add up to its size) come
    first, then the caller's ``rows``, whose coefficients cover the
    columns and then the extra variables.
    """
    bounds = [(0, len(groups[gi][1])) for gi, _ in cols] + list(extra)
    pad = (0,) * len(extra)
    sums = [(tuple(int(c == gi) for c, _ in cols) + pad, "==", len(comps))
            for gi, (_, comps) in enumerate(groups)]
    return IlpInstance(tuple(bounds), tuple(sums) + tuple(rows), objective)


def place(g, s_list, groups, cols, counts, mode):
    """Yield (component, phi, payload) for every component.

    Column i takes the next ``counts[i]`` components of its group, in the
    group's order; phi maps S + the representative onto S + the component.
    """
    taken = [0] * len(groups)
    for (gi, payload), count in zip(cols, counts):
        comps = groups[gi][1]
        for comp in comps[taken[gi]:taken[gi] + count]:
            yield comp, component_map(g, s_list, comps[0], comp, mode), payload
        taken[gi] += count
