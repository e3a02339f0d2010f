"""Exact integer programs over a handful of variables.

Instances carry finite bounds for every variable (callers must supply
them; this module never invents bounds), linear constraints with <=, >=
or ==, and an optional min/max objective.  Every number must be an
integer that ``operator.index`` accepts; any other raises
``IlpInputError``.  Solving is depth-first branch and bound with
interval propagation, so answers are exact and deterministic: variables
branch in model order, values ascend, and for maximisation the first
objective-carrying variable descends.  Certificates are the first
optimum in that canonical search order.

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

import operator
from dataclasses import dataclass, field
from typing import Optional

from ._kernels import ilp_scan

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
    return ilp_scan(sparse, b, lo, hi, minimise_coeffs, find_opt, desc)


def feasible(inst: IlpInstance) -> Optional[tuple]:
    """First feasible point in canonical search order, or None."""
    got = _run(inst, (0,) * inst.p, find_opt=False)
    return got[0] if got is not None else None


def optimize(inst: IlpInstance) -> Optional[tuple]:
    """(point, objective value) for the first optimum in canonical order,
    or None when infeasible.  Requires an objective."""
    if inst.objective is None:
        raise IlpInputError("optimize needs an objective")
    coeffs, sense = inst.objective
    mincoeffs = coeffs if sense == "min" else tuple(-c for c in coeffs)
    got = _run(inst, mincoeffs, find_opt=True)
    if got is None:
        return None
    x, val = got
    return x, (val if sense == "min" else -val)

