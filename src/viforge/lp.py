"""Linear-programming bounds for the integer programs of ``ilp``, made
safe in exact arithmetic.

``simplex`` solves min c.x over rows a_i.x (<=, >=, ==) b_i and a finite
box lo <= x <= hi with a bounded-variable primal simplex in floats: two
phases, Bland's rule for the entering and the leaving variable.  Given
the basis of an earlier solve over a wider box, it starts from there
with the dual simplex instead, which is how a branch-and-bound child
re-solves its parent's LP in a few pivots.  It returns the row
multipliers y of its last basis, read off the slack columns' reduced
costs.

Floats only propose y; ``exact_bound`` disposes.  For any y whose signs
suit its rows (y_i <= 0 on a <= row, y_i >= 0 on a >= row, either sign on
an == row), every point x of the box that meets the rows has

    c.x >= y.b + sum over j of min over [lo_j, hi_j] of (c_j - y.A_j) x_j,

because y_i (a_i.x - b_i) >= 0 row by row.  ``exact_bound`` sets a
wrongly signed y_i to 0, rounds the rest to multiples of 2**-_SCALE and
evaluates the sum in integers, so a bad float answer can only weaken the
bound, never make it invalid (Neumaier and Shcherbina, Math. Programming
99, 2004).  With c = 0 the same sum is a Farkas check: when it is
positive, no point of the box meets the rows.
"""

import math
from fractions import Fraction

# multipliers are rounded to multiples of 2**-_SCALE before the exact sum
_SCALE = 40
# pivot, reduced-cost and feasibility tolerances of the float simplex
_TOL = 1e-9
_FEAS_TOL = 1e-7


class Basis:
    """A simplex basis over rows a_i.x rels_i b_i and a box on x, kept as a
    dense tableau: ``tab`` holds the rows of B^-1 [A I] (structural
    columns, then one slack column per row), ``d`` the reduced costs,
    ``basis[i]`` the variable basic in row i (-1 - i for an artificial),
    ``xb`` the basic values, and ``val`` every nonbasic variable's value,
    which sits at one of its bounds ``low`` / ``up``.  A slack s_i =
    b_i - a_i.x lies in [0, inf) on a <= row, (-inf, 0] on a >= row and
    [0, 0] on an == row."""

    __slots__ = ("tab", "d", "basis", "xb", "val", "low", "up")

    def copy(self):
        other = Basis()
        other.tab = [list(row) for row in self.tab]
        other.d, other.basis = list(self.d), list(self.basis)
        other.xb, other.val = list(self.xb), list(self.val)
        other.low, other.up = list(self.low), list(self.up)
        return other

    def _bounds(self, var, art_up):
        return (self.low[var], self.up[var]) if var >= 0 else (0.0, art_up)

    def _pivot(self, r, j, target):
        """Make j basic in row r; the leaving variable goes to ``target``,
        the entering one moves so that the rows still hold."""
        tab, xb = self.tab, self.xb
        step = (xb[r] - target) / tab[r][j]
        for i, row in enumerate(tab):
            if row[j]:
                xb[i] -= step * row[j]
        out = self.basis[r]
        if out >= 0:
            self.val[out] = target
        prow = tab[r]
        piv = prow[j]
        prow = [v / piv for v in prow]
        tab[r] = prow
        for i, row in enumerate(tab):
            f = row[j]
            if i != r and f:
                tab[i] = [u - f * v for u, v in zip(row, prow)]
        f = self.d[j]
        self.d = [u - f * v for u, v in zip(self.d, prow)]
        self.basis[r] = j
        xb[r] = self.val[j] + step

    def primal(self, art_up):
        """Primal simplex with Bland's rule until no variable may enter:
        the least index whose reduced cost improves and whose bounds leave
        it room enters; the least ratio leaves, ties to the least basic
        index (artificials first).  An artificial has bounds 0..art_up and
        never re-enters.  False when the iteration cap or an unbounded ray
        (impossible over a finite box) is hit first."""
        tab, d, low, up, val = self.tab, self.d, self.low, self.up, self.val
        width = len(d)
        free = [low[q] < up[q] for q in range(width)]
        for var in self.basis:
            if var >= 0:
                free[var] = False
        for _ in range(50 * (width + len(tab)) + 100):
            d = self.d
            j = next((q for q in range(width) if free[q] and (
                (d[q] < -_TOL and val[q] < up[q]) or (d[q] > _TOL and val[q] > low[q]))), -1)
            if j < 0:
                return True
            step = 1.0 if d[j] < 0 else -1.0
            t = up[j] - low[j]
            leave, leave_var, target = -1, math.inf, 0.0
            for i, row in enumerate(tab):
                alpha = row[j] * step
                if -_TOL <= alpha <= _TOL:
                    continue
                var = self.basis[i]
                lb, ub = self._bounds(var, art_up)
                end = lb if alpha > 0 else ub
                if end in (math.inf, -math.inf):
                    continue
                ratio = max((self.xb[i] - end) / alpha, 0.0)
                if ratio < t or (ratio == t and leave >= 0 and var < leave_var):
                    t, leave, leave_var, target = ratio, i, var, end
            if t == math.inf:
                return False
            if leave < 0:
                for i, row in enumerate(tab):
                    if row[j]:
                        self.xb[i] -= step * t * row[j]
                val[j] = up[j] if step > 0 else low[j]
                continue
            out = self.basis[leave]
            if out >= 0:
                free[out] = low[out] < up[out]
            free[j] = False
            self._pivot(leave, j, target)
        return False

    def dual(self):
        """Dual simplex from a dual-feasible basis, Bland's rule: the
        least-index basic variable out of its bounds leaves to the bound it
        broke; the least ratio |d_q / alpha_q| among the nonbasic variables
        that can move it there enters, ties to the least index.  True at
        an optimum; False when no variable can enter (the box is
        infeasible) or at the iteration cap."""
        tab, low, up, val = self.tab, self.low, self.up, self.val
        width = len(self.d)
        for _ in range(50 * (width + len(tab)) + 100):
            basic = set(self.basis)
            r, r_var, target = -1, math.inf, 0.0
            for i, var in enumerate(self.basis):
                lb, ub = self._bounds(var, 0.0)
                x = self.xb[i]
                if (x < lb - _TOL or x > ub + _TOL) and var < r_var:
                    r, r_var, target = i, var, lb if x < lb else ub
            if r < 0:
                return True
            # the leaving variable rises to lb when target is lb, so a
            # nonbasic variable helps if moving it off its bound raises it
            rises = target > self.xb[r]
            row, d = tab[r], self.d
            j, best = -1, math.inf
            for q in range(width):
                alpha = row[q]
                if -_TOL <= alpha <= _TOL or low[q] == up[q] or q in basic:
                    continue
                at_low = val[q] == low[q]
                if (alpha < 0) == (at_low == rises):
                    ratio = abs(d[q] / alpha)
                    if ratio < best:
                        j, best = q, ratio
            if j < 0:
                return False
            self._pivot(r, j, target)
        return False

    def point(self, n):
        x = self.val[:n]
        for i, var in enumerate(self.basis):
            if 0 <= var < n:
                x[var] = self.xb[i]
        return x

    def multipliers(self, n):
        # y_i = -(reduced cost of slack i), since that column is e_i
        return [-dq for dq in self.d[n:]]


def _fresh(a, rels, b, c, lo, hi):
    """Phase one from the slack basis, artificials where a slack cannot
    carry its row with x at lo; then phase two.  (x, y, basis), or (None,
    y, None) with y the phase-one multipliers when the rows stay unmet."""
    m, n = len(a), len(lo)
    t = Basis()
    t.low = [float(v) for v in lo] + [-math.inf if r == ">=" else 0.0 for r in rels]
    t.up = [float(v) for v in hi] + [math.inf if r == "<=" else 0.0 for r in rels]
    t.val = t.low[:n] + [0.0] * m
    t.tab, t.basis, t.xb = [], [], []
    for i, (coeffs, rhs) in enumerate(zip(a, b)):
        row = [float(v) for v in coeffs] + [0.0] * m
        row[n + i] = 1.0
        r = float(rhs - sum(aij * x for aij, x in zip(coeffs, lo) if aij))
        if t.low[n + i] <= r <= t.up[n + i]:
            t.basis.append(n + i)
        else:
            # an artificial of the sign of r carries the row; dividing the
            # row by that sign makes its column the unit one
            if r < 0:
                row = [-v for v in row]
            t.basis.append(-1 - i)
        t.tab.append(row)
        t.xb.append(abs(r) if t.basis[-1] < 0 else r)
    t.d = [0.0] * (n + m)
    for i, var in enumerate(t.basis):
        if var < 0:
            t.d = [u - v for u, v in zip(t.d, t.tab[i])]
    finished = t.primal(math.inf)
    if not finished or sum(x for x, var in zip(t.xb, t.basis) if var < 0) > _FEAS_TOL:
        return None, t.multipliers(n), None
    t.d = [float(cj) for cj in c] + [0.0] * m
    for i, var in enumerate(t.basis):
        if 0 <= var < n and c[var]:
            f = float(c[var])
            t.d = [u - f * v for u, v in zip(t.d, t.tab[i])]
    t.primal(0.0)
    return t.point(n), t.multipliers(n), t


def simplex(a, rels, b, c, lo, hi, warm=None):
    """Float LP min c.x over the rows a_i.x rels_i b_i and lo <= x <= hi.

    Returns (x, y, basis): x a final vertex, y its row multipliers and
    basis the final ``Basis``; or (None, y, None) when the rows stay unmet,
    y then a candidate Farkas ray.  Either y is only a proposal for
    ``exact_bound``.  Given ``warm``, a basis from an earlier call over the
    same rows and costs, the call moves its nonbasic variables onto the
    new box, each to the bound its reduced cost prefers, and runs the dual
    simplex from there; ``warm`` itself is left as it was.  Should that
    stop short of an optimum, the call starts afresh.
    """
    n = len(lo)
    if warm is not None:
        t = warm.copy()
        basic = set(t.basis)
        for q in range(n):
            new_lo, new_hi = float(lo[q]), float(hi[q])
            t.low[q], t.up[q] = new_lo, new_hi
            if q in basic:
                continue
            moved = new_hi if t.d[q] < 0 else new_lo
            delta = moved - t.val[q]
            if delta:
                t.val[q] = moved
                for i, row in enumerate(t.tab):
                    if row[q]:
                        t.xb[i] -= delta * row[q]
        if t.dual() and t.primal(0.0):
            return t.point(n), t.multipliers(n), t
    return _fresh(a, rels, b, c, lo, hi)


def exact_bound(a, rels, b, c, lo, hi, y):
    """The exact bound y.b + sum_j min over the box of (c_j - y.A_j) x_j
    on c.x, as a Fraction, after a wrongly signed or non-finite y_i is set
    to 0 and every y_i is rounded to a multiple of 2**-_SCALE."""
    den = 1 << _SCALE
    ys = []
    for v, rel in zip(y, rels):
        iv = v * den
        iv = round(iv) if math.isfinite(iv) else 0
        if (rel == "<=" and iv > 0) or (rel == ">=" and iv < 0):
            iv = 0
        ys.append(iv)
    total = sum(yi * bi for yi, bi in zip(ys, b) if yi)
    live = [(yi, coeffs) for yi, coeffs in zip(ys, a) if yi]
    for j, cj in enumerate(c):
        dj = den * cj - sum(yi * coeffs[j] for yi, coeffs in live)
        total += dj * (lo[j] if dj > 0 else hi[j])
    return Fraction(total, den)


def constraint_rows(inst):
    """(coefficient rows, relations, right-hand sides) of ``inst``."""
    return ([cs for cs, _, _ in inst.constraints], [rel for _, rel, _ in inst.constraints],
            [r for _, _, r in inst.constraints])


def _min_objective(inst):
    """(c, sign): the objective in minimisation form, c = 0 without one,
    and the sign that turns a bound on min c.x back into one on the
    objective."""
    if inst.objective is None:
        return [0] * inst.p, 1
    sign = -1 if inst.objective[1] == "max" else 1
    return [sign * cj for cj in inst.objective[0]], sign


def _box(inst, lo, hi):
    return (list(lo) if lo is not None else [l for l, _ in inst.bounds],
            list(hi) if hi is not None else [h for _, h in inst.bounds])


def lp_bound(inst, lo=None, hi=None):
    """(bound, y) for ``inst`` over the box lo..hi (default: its own).

    ``bound`` is the ``exact_bound`` of the simplex's multipliers y, a
    Fraction at most the min (at least the max) of the objective over
    the integer points, and of the LP, that meet the constraints; an
    instance without an objective reads as c = 0.  When the simplex finds
    the box infeasible and y passes the exact Farkas check, the answer is
    (None, y).  A ray that fails the check falls back to y = 0, whose
    bound is the objective's extreme over the box."""
    coeffs, rels, rhs = constraint_rows(inst)
    c, sign = _min_objective(inst)
    lo, hi = _box(inst, lo, hi)
    if any(l > h for l, h in zip(lo, hi)):
        raise ValueError("empty box")
    x, y, _ = simplex(coeffs, rels, rhs, c, lo, hi)
    if x is None:
        if exact_bound(coeffs, rels, rhs, [0] * inst.p, lo, hi, y) > 0:
            return None, y
        y = [0.0] * len(rels)
    return sign * exact_bound(coeffs, rels, rhs, c, lo, hi, y), y
