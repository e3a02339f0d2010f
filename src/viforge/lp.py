"""Linear-programming bounds for the integer programs of ``ilp``, made
safe in exact arithmetic.

``simplex`` solves min c.x over rows a_i.x (<=, >=, ==) b_i and a finite
box lo <= x <= hi with one algorithm, a bounded-variable dual simplex in
floats with Bland's rule.  A cold solve starts from the slack basis with
each x_j at the bound its cost prefers (lo_j when c_j >= 0, hi_j when
c_j < 0), which is dual feasible because every x_j is boxed.  Given the
basis of an earlier solve over a wider box, it starts from that basis
instead, with the same rule for the nonbasic variables, which is how a
branch-and-bound child re-solves its parent's LP in a few pivots.  At an
optimum it returns the row multipliers y of its basis, read off the
slack columns' reduced costs; when no variable can enter, the row of
B^-1 that stays out of its bounds is a candidate Farkas ray.

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
# pivot, reduced-cost and feasibility tolerance of the float simplex
_TOL = 1e-9


class Basis:
    """A simplex basis over rows a_i.x rels_i b_i and a box on x, kept as a
    dense tableau: ``tab`` holds the rows of B^-1 [A I] (structural
    columns, then one slack column per row), ``d`` the reduced costs,
    ``basis[i]`` the variable basic in row i, ``xb`` the basic values, and
    ``val`` every nonbasic variable's value, which sits at one of its
    bounds ``low`` / ``up``.  A slack s_i = b_i - a_i.x lies in [0, inf)
    on a <= row, (-inf, 0] on a >= row and [0, 0] on an == row."""

    __slots__ = ("tab", "d", "basis", "xb", "val", "low", "up")

    def copy(self):
        other = Basis()
        other.tab = [list(row) for row in self.tab]
        other.d, other.basis = list(self.d), list(self.basis)
        other.xb, other.val = list(self.xb), list(self.val)
        other.low, other.up = list(self.low), list(self.up)
        return other

    def _pivot(self, r, j, target):
        """Make j basic in row r; the leaving variable goes to ``target``,
        the entering one moves so that the rows still hold."""
        tab, xb = self.tab, self.xb
        step = (xb[r] - target) / tab[r][j]
        for i, row in enumerate(tab):
            if row[j]:
                xb[i] -= step * row[j]
        self.val[self.basis[r]] = target
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

    def dual(self):
        """Dual simplex from a dual-feasible basis, Bland's rule: the
        least-index basic variable out of its bounds leaves to the bound it
        broke; the least ratio |d_q / alpha_q| among the nonbasic variables
        that can move it there enters, ties to the least index.  None at
        an optimum.  When no variable can enter, the leaving row r proves
        the box infeasible, and the result is the candidate Farkas ray y,
        row r of B^-1 (the slack columns of tableau row r), negated when
        its basic variable must rise; at the iteration cap it is 0."""
        tab, low, up, val = self.tab, self.low, self.up, self.val
        width = len(self.d)
        for _ in range(50 * (width + len(tab)) + 100):
            basic = set(self.basis)
            r, r_var, target = -1, math.inf, 0.0
            for i, var in enumerate(self.basis):
                x = self.xb[i]
                if (x < low[var] - _TOL or x > up[var] + _TOL) and var < r_var:
                    r, r_var, target = i, var, low[var] if x < low[var] else up[var]
            if r < 0:
                return None
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
                return [-v if rises else v for v in row[width - len(tab):]]
            self._pivot(r, j, target)
        return [0.0] * len(tab)

    def point(self, n):
        x = self.val[:n]
        for i, var in enumerate(self.basis):
            if var < n:
                x[var] = self.xb[i]
        return x

    def multipliers(self, n):
        # y_i = -(reduced cost of slack i), since that column is e_i
        return [-dq for dq in self.d[n:]]


def _slack_basis(a, rels, b, c, lo, hi):
    """The basis of the slack variables, with every x_j nonbasic at lo_j."""
    m, n = len(a), len(lo)
    t = Basis()
    t.low = [float(v) for v in lo] + [-math.inf if r == ">=" else 0.0 for r in rels]
    t.up = [float(v) for v in hi] + [math.inf if r == "<=" else 0.0 for r in rels]
    t.val = t.low[:n] + [0.0] * m
    t.tab = [[float(v) for v in coeffs] + [float(i == k) for k in range(m)]
             for i, coeffs in enumerate(a)]
    t.basis = list(range(n, n + m))
    t.xb = [float(rhs - sum(aij * x for aij, x in zip(coeffs, lo) if aij))
            for coeffs, rhs in zip(a, b)]
    t.d = [float(cj) for cj in c] + [0.0] * m
    return t


def simplex(a, rels, b, c, lo, hi, warm=None):
    """Float LP min c.x over the rows a_i.x rels_i b_i and lo <= x <= hi.

    Returns (x, y, basis): x a final vertex, y its row multipliers and
    basis the final ``Basis``; or (None, y, None) when the rows stay unmet,
    y then a candidate Farkas ray.  Either y is only a proposal for
    ``exact_bound``.  The dual simplex starts from ``warm``, a basis from
    an earlier call over the same rows and costs, or else from the slack
    basis; either way each nonbasic x_j first moves onto the new box, to
    the bound its reduced cost prefers.  ``warm`` itself is left as it
    was.
    """
    n = len(lo)
    t = _slack_basis(a, rels, b, c, lo, hi) if warm is None else warm.copy()
    basic = set(t.basis)
    for q in range(n):
        t.low[q], t.up[q] = float(lo[q]), float(hi[q])
        if q in basic:
            continue
        moved = t.up[q] if t.d[q] < 0 else t.low[q]
        delta = moved - t.val[q]
        if delta:
            t.val[q] = moved
            for i, row in enumerate(t.tab):
                if row[q]:
                    t.xb[i] -= delta * row[q]
    ray = t.dual()
    if ray is not None:
        return None, ray, None
    return t.point(n), t.multipliers(n), t


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


def checked_simplex(a, rels, b, c, lo, hi, warm=None):
    """``simplex`` with its multipliers checked by ``exact_bound``: (x,
    bound, y, basis), bound the Fraction exact_bound of y on min c.x over
    the box lo..hi.  When the simplex finds the box infeasible and y
    passes the exact Farkas check, bound is None: no point of the box
    meets the rows.  A ray that fails the check falls back to y = 0, whose
    bound is the least c.x over the box; x and basis are then None."""
    x, y, basis = simplex(a, rels, b, c, lo, hi, warm)
    if x is None:
        if exact_bound(a, rels, b, [0] * len(c), lo, hi, y) > 0:
            return None, None, y, None
        y = [0.0] * len(rels)
    return x, exact_bound(a, rels, b, c, lo, hi, y), y, basis


def lp_bound(inst, lo=None, hi=None):
    """(bound, y) for ``inst`` over the box lo..hi (default: its own).

    ``bound`` is ``checked_simplex``'s, a Fraction at most the min (at
    least the max) of the objective over the integer points, and of the
    LP, that meet the constraints; an instance without an objective reads
    as c = 0.  When the box is proved infeasible, the answer is (None, y)
    with y the Farkas ray."""
    c, sign = _min_objective(inst)
    lo, hi = _box(inst, lo, hi)
    if any(l > h for l, h in zip(lo, hi)):
        raise ValueError("empty box")
    _, bound, y, _ = checked_simplex(*constraint_rows(inst), c, lo, hi)
    return (None if bound is None else sign * bound), y
