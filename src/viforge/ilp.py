"""Exact integer programs over a handful of variables.

Instances carry finite bounds for every variable (callers must supply
them; this module never invents bounds), linear constraints with <=, >=
or ==, and an optional min/max objective.  Every number must be an
integer that ``operator.index`` accepts; any other raises
``IlpInputError``.  Solving is depth-first branch and bound with
interval propagation, so answers are exact and deterministic: variables
branch in model order, values ascend, and for maximisation the first
objective-carrying variable descends.  When that scan ends within its
budget of ``_kernels.SCAN_NODES`` nodes, the certificate is the first
optimum (or feasible point) in that canonical search order.  Past the
budget, an LP-bounded search (``_lp_search``) takes over from the
scan's incumbent, and the certificate is the optimum (or feasible point)
it returns: still exact, because every bound it prunes by is recomputed
in exact arithmetic (see ``lp``), but not always the canonically first.

Propagation at a node visits only the rows whose variables changed (see
``ilp_scan``).  Each row's tightening is monotone and idempotent, so the
box it ends at is the one that sweeping every row until nothing moves
would reach: the nodes, their order and the certificates are the same as
with full sweeps.

Once the search holds an incumbent of value v, the objective is one more
propagated row, c.x <= v - 1 in minimisation units, lowered at each
better point (see ``ilp_scan``).  It prunes every box whose least
objective reaches v, and tightens costed variables past values that
leave no strictly better point.  It can change no answer: it removes
only points no better than the incumbent, leaves are still reached in
canonical order, and only a strictly better point replaces the
incumbent, so the answer is still the first optimum in that order.
"""

import math
import operator
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from ._kernels import ScanBudgetSpent, _propagate, ilp_scan, with_cutoff
from .lp import checked_simplex, constraint_rows

RELATIONS = ("<=", ">=", "==")


class IlpInputError(ValueError):
    pass


def _int(x):
    """``x`` as an int.  A value that is not an integer (2.5, inf, "3")
    raises IlpInputError rather than being truncated."""
    try:
        return operator.index(x)
    except TypeError:
        raise IlpInputError(f"bounds, coefficients and right-hand sides must be "
                            f"integers, got {x!r}") from None


@dataclass(frozen=True)
class IlpInstance:
    bounds: tuple = ()
    constraints: tuple = field(default_factory=tuple)
    objective: Optional[tuple] = None  # (coeffs, "min" | "max")

    def __post_init__(self):
        object.__setattr__(self, "bounds", tuple((_int(a), _int(b)) for (a, b) in self.bounds))
        norm = []
        for (coeffs, rel, rhs) in self.constraints:
            coeffs = tuple(map(_int, coeffs))
            if len(coeffs) != self.p:
                raise IlpInputError("constraint arity mismatch")
            if rel not in RELATIONS:
                raise IlpInputError(f"unknown relation {rel!r}")
            norm.append((coeffs, rel, _int(rhs)))
        object.__setattr__(self, "constraints", tuple(norm))
        if self.objective is not None:
            coeffs, sense = self.objective
            coeffs = tuple(map(_int, coeffs))
            if len(coeffs) != self.p:
                raise IlpInputError("objective arity mismatch")
            if sense not in ("min", "max"):
                raise IlpInputError(f"unknown sense {sense!r}")
            object.__setattr__(self, "objective", (coeffs, sense))

    @property
    def p(self) -> int:
        return len(self.bounds)

    def trivially_infeasible(self) -> bool:
        return any(a > b for (a, b) in self.bounds)


def _rows(inst: IlpInstance):
    """Normalise to A x <= b."""
    rows = []
    for (coeffs, rel, rhs) in inst.constraints:
        if rel in ("<=", "=="):
            rows.append((coeffs, rhs))
        if rel in (">=", "=="):
            rows.append((tuple(-c for c in coeffs), -rhs))
    return rows


def _run(inst: IlpInstance, minimise_coeffs, find_opt: bool):
    if inst.trivially_infeasible():
        return None
    p = inst.p
    rows = _rows(inst)
    if p == 0:
        if any(0 > rhs for (_, rhs) in rows):
            return None
        return (), 0
    sparse = [[(j, a) for j, a in enumerate(coeffs) if a] for (coeffs, _) in rows]
    b = [rhs for (_, rhs) in rows]
    lo = [a for (a, _) in inst.bounds]
    hi = [bnd for (_, bnd) in inst.bounds]
    desc = [False] * p
    if inst.objective is not None and inst.objective[1] == "max":
        for j, cj in enumerate(inst.objective[0]):
            if cj != 0:
                desc[j] = True
                break
    try:
        return ilp_scan(sparse, b, lo, hi, minimise_coeffs, find_opt, desc)
    except ScanBudgetSpent as spent:
        return _lp_search(inst, sparse, b, lo, hi, minimise_coeffs, spent.incumbent)


# an LP value within this of an integer counts as that integer
_INT_TOL = 1e-6


def _lp_search(inst, rows, b, lo, hi, c, best):
    """An optimum of c.x (minimisation) over ``inst``, or None, by
    depth-first branch and bound with LP bounds, from the incumbent
    ``best`` (point, value) or None.

    A node propagates its box against ``rows`` (A x <= b) and the cutoff
    row c.x <= v - 1, as ``ilp_scan`` does, then solves the LP relaxation
    over the box.  It is dropped when the exact Farkas check proves the
    box empty or the ceiling of its exact LP bound reaches the incumbent.
    An LP optimum that rounds to a point meeting every row exactly may
    become the incumbent, and ends the node when it meets the node's
    bound.  Otherwise the box is bisected on the fractional variable
    nearest one half, the child nearer the LP value first; a box without
    one (a float miss) is bisected on its widest variable.  The search
    stops when the incumbent reaches the ceiling of the root node's bound
    (see ``lp.checked_simplex``); a root that propagation narrows to one
    point gives none.  With c = 0 that is the first point found."""
    coeffs, rels, rhs = constraint_rows(inst)
    cost, rows, b, occ = with_cutoff(rows, b, c, lo, hi)
    cut = len(rows) - 1
    if best is not None:
        b[cut] = best[1] - 1
    # the ceiling of the first node's bound, -inf when it gives none
    root = None
    stack = [(list(lo), list(hi), None)]
    while stack:
        lo, hi, warm = stack.pop()
        if not _propagate(rows, b, lo, hi, occ, deque(range(len(rows)))):
            continue
        x = bound = None
        if lo == hi:
            # propagation checked every row at this point, the cutoff too
            point = lo
        else:
            x, bound, _, warm = checked_simplex(coeffs, rels, rhs, c, lo, hi, warm)
            if bound is None:
                continue
            bound = math.ceil(bound)
            if best is not None and bound >= best[1]:
                continue
            point = None if x is None else _rounded(x, lo, hi, rows, b)
        if root is None:
            root = -math.inf if bound is None else bound
        if point is not None:
            best = tuple(point), sum(cj * point[j] for j, cj in cost)
            b[cut] = best[1] - 1
            if best[1] <= root:
                break
            if x is None or best[1] <= bound:
                continue
        j = -1
        for i, v in enumerate(x or ()):
            f = v - math.floor(v)
            if lo[i] < hi[i] and _INT_TOL < f < 1 - _INT_TOL and (
                    j < 0 or abs(f - 0.5) < abs(frac - 0.5)):
                j, frac = i, f
        if j >= 0:
            split = min(max(math.floor(x[j]), lo[j]), hi[j] - 1)
            up_first = frac > 0.5
        else:
            j = max(range(len(lo)), key=lambda i: hi[i] - lo[i])
            split = (lo[j] + hi[j]) // 2
            up_first = False
        down = (lo, hi[:j] + [split] + hi[j + 1:], warm)
        up = (lo[:j] + [split + 1] + lo[j + 1:], hi, warm)
        stack += [down, up] if up_first else [up, down]
    return best


def _rounded(x, lo, hi, rows, b):
    """``x`` rounded to integers when every entry is within _INT_TOL of
    its rounding and the result lies in the box and meets every row
    exactly; else None."""
    point = [round(v) for v in x]
    if all(abs(v - q) <= _INT_TOL and l <= q <= h for v, q, l, h in zip(x, point, lo, hi)) \
            and all(sum(a * point[j] for j, a in row) <= bi for row, bi in zip(rows, b)):
        return point
    return None


def feasible(inst: IlpInstance) -> Optional[tuple]:
    """A feasible point, or None: the first in canonical search order
    when the scan ends within its budget."""
    got = _run(inst, (0,) * inst.p, find_opt=False)
    return got[0] if got is not None else None


def optimize(inst: IlpInstance) -> Optional[tuple]:
    """(point, objective value) for an optimum, or None when infeasible:
    the first optimum in canonical order when the scan ends within its
    budget.  Requires an objective."""
    if inst.objective is None:
        raise IlpInputError("optimize needs an objective")
    coeffs, sense = inst.objective
    mincoeffs = coeffs if sense == "min" else tuple(-c for c in coeffs)
    got = _run(inst, mincoeffs, find_opt=True)
    if got is None:
        return None
    x, val = got
    return x, (val if sense == "min" else -val)

