"""The guess loop and the configuration step the separator solvers share.

Every separator solver fixes a separator S, guesses how the solution
behaves on S, and solves one small problem per guess.  ``best`` is the
one loop over the guesses.  It calls ``solve(guess)`` in guess order and
skips a ``None`` answer.  Without a ``key`` it is a decision: it returns
the first answer and calls ``solve`` no further.  With a ``key`` it
returns the first answer with the smallest key, since only a strictly
better answer replaces the best so far; so the answer is the first
optimum in the solver's canonical guess order.  With a ``bound`` as
well, a lower bound on each guess's key, it visits the guesses in
(bound, canonical index) order and stops at the first one that cannot
win.  The tie rule keeps the answer: an equal key replaces the best one
only from an earlier canonical position, and a guess whose bound equals
the best key is visited only from an earlier one.  ``best`` never calls
the integer program itself: each solver calls ``optimize`` or
``feasible`` through its own module's binding.

Once S is fixed, the components of G - S come in groups of equal
anchored type (``classify_detailed``), and each group's first component
is its representative.  A column is a ``(group index, payload)`` pair,
where the payload is one entry of the representative's catalogue (a
signature and its witness); ``columns`` builds them.  Its count variable
says how many components of the group take that payload.
``configuration_ip`` builds the integer program over the counts, and
``place`` hands every component its payload with the map that carries
the representative onto it.  That map comes from classification: the
group's type keeps each member's canonical order, and pairing the
representative's order with the member's, S held fixed, is the map, so
placing searches nothing.
"""

import math
from itertools import repeat

from ..ilp import IlpInstance


def best(guesses, solve, key=None, bound=None):
    """The first answer of ``solve`` over ``guesses``, or with ``key`` the
    first answer whose key is smallest; None when every answer is None.

    Without a ``key`` the guesses are read lazily, up to the first
    answer.  With one they are listed and visited in (bound, canonical
    index) order, where ``bound(guess)`` must be at most the key of the
    guess's answer (any value for a None answer); without a ``bound``
    every bound is -inf, which is canonical order.  The first guess whose
    (bound, index) is past the best (key, index) so far ends the loop:
    every guess from there on has a bound above the best key, or equal to
    it from a later canonical position, so it cannot win.  An answer
    replaces the best one when its (key, index) is smaller, so the answer
    is still the first optimum in canonical order."""
    if key is None:
        for guess in guesses:
            got = solve(guess)
            if got is not None:
                return got
        return None
    listed = list(guesses)
    bounds = map(bound, listed) if bound is not None else repeat(-math.inf)
    top = top_rank = None
    for rank in sorted(zip(bounds, range(len(listed)))):
        if top is not None and rank > top_rank:
            break
        got = solve(listed[rank[1]])
        if got is None:
            continue
        got_rank = key(got), rank[1]
        if top is None or got_rank < top_rank:
            top, top_rank = got, got_rank
    return top


def columns(groups, catalogue):
    """Every (group index, (signature, witness)) column, each group's
    entries in signature order, where ``catalogue(representative)`` gives a
    group's {signature: witness}; None when a group's catalogue is empty,
    because then no component of that group has a choice."""
    cols = []
    for gi, (_, comps) in enumerate(groups):
        entries = catalogue(comps[0])
        if not entries:
            return None
        cols += [(gi, item) for item in sorted(entries.items())]
    return cols


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


def place(s_list, groups, cols, counts):
    """Yield (component, phi, payload) for every component.

    Column i takes the next ``counts[i]`` components of its group, in the
    group's order; phi maps S + the representative onto S + the component
    and respects what the group's type respects (capacities or colors in
    those modes).
    """
    taken = [0] * len(groups)
    for (gi, payload), count in zip(cols, counts):
        t, comps = groups[gi]
        for j in range(taken[gi], taken[gi] + count):
            yield comps[j], t.member_map(s_list, j), payload
        taken[gi] += count
