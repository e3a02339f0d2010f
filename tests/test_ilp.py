import itertools
import random
import warnings
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from viforge import _kernels, ilp
from viforge.ilp import IlpInputError, IlpInstance, feasible, optimize


def test_feasible_frozen_example():
    inst = IlpInstance(bounds=((0, 4), (0, 4)), constraints=(((1, 2), "==", 4),))
    assert feasible(inst) == (0, 2)


def test_optimize_frozen_min():
    inst = IlpInstance(
        bounds=((0, 3), (0, 3)),
        constraints=(((1, 2), ">=", 3),),
        objective=((1, 1), "min"),
    )
    assert optimize(inst) == ((0, 2), 2)


def test_optimize_frozen_max():
    inst = IlpInstance(
        bounds=((0, 9),),
        constraints=(((1,), "<=", 7),),
        objective=((1,), "max"),
    )
    point, value = optimize(inst)
    assert value == 7 and point == (7,)


def test_infeasible_cases():
    assert feasible(IlpInstance(bounds=((2, 1),))) is None
    assert feasible(IlpInstance(bounds=((0, 1),), constraints=(((1,), ">=", 5),))) is None
    assert optimize(IlpInstance(bounds=((0, 1),), constraints=(((1,), "==", 9),),
                                objective=((1,), "max"))) is None


def test_zero_variables():
    assert feasible(IlpInstance()) == ()
    assert optimize(IlpInstance(objective=((), "min"))) == ((), 0)
    assert feasible(IlpInstance(constraints=(((), "<=", -1),))) is None


def test_optimize_requires_objective():
    with pytest.raises(IlpInputError):
        optimize(IlpInstance(bounds=((0, 1),)))


def test_input_validation():
    with pytest.raises(IlpInputError):
        IlpInstance(bounds=((0, 1),), constraints=(((1, 2), "<=", 3),))
    with pytest.raises(IlpInputError):
        IlpInstance(bounds=((0, 1),), constraints=(((1,), "<", 3),))
    with pytest.raises(IlpInputError):
        IlpInstance(bounds=((0, 1),), objective=((1,), "maximize"))
    with pytest.raises(IlpInputError):
        IlpInstance(bounds=((0, 1),), objective=((1, 1), "max"))
    # non-integers are refused, not truncated or left to overflow
    with pytest.raises(IlpInputError):
        IlpInstance(bounds=((0, 2.5),))
    with pytest.raises(IlpInputError):
        IlpInstance(bounds=((0, 3),), constraints=(((1.5,), "<=", 2),))
    with pytest.raises(IlpInputError):
        IlpInstance(bounds=((0, float("inf")),))


def _satisfies(point, constraints):
    for coeffs, rel, rhs in constraints:
        lhs = sum(c * x for c, x in zip(coeffs, point))
        if rel == "<=" and not lhs <= rhs:
            return False
        if rel == ">=" and not lhs >= rhs:
            return False
        if rel == "==" and lhs != rhs:
            return False
    return True


def _grid_solve(inst):
    ranges = [range(a, b + 1) for (a, b) in inst.bounds]
    pts = [p for p in itertools.product(*ranges) if _satisfies(p, inst.constraints)]
    if not pts:
        return None
    if inst.objective is None:
        return pts, None
    coeffs, sense = inst.objective
    vals = [sum(c * x for c, x in zip(coeffs, p)) for p in pts]
    return pts, (min(vals) if sense == "min" else max(vals))


@given(st.integers(0, 100_000))
@settings(max_examples=150, deadline=None)
def test_matches_grid_enumeration(seed):
    rng = random.Random(seed)
    p = rng.randint(1, 3)
    bounds = []
    for _ in range(p):
        a = rng.randint(0, 3)
        bounds.append((a, a + rng.randint(0, 3)))
    cons = tuple(
        (tuple(rng.randint(-3, 3) for _ in range(p)), rng.choice(["<=", ">=", "=="]),
         rng.randint(-4, 10))
        for _ in range(rng.randint(0, 3))
    )
    obj = None
    if rng.random() < 0.7:
        obj = (tuple(rng.randint(-3, 3) for _ in range(p)), rng.choice(["min", "max"]))
    inst = IlpInstance(bounds=tuple(bounds), constraints=cons, objective=obj)
    expected = _grid_solve(inst)

    got_point = feasible(inst)
    if expected is None:
        assert got_point is None
        if obj is not None:
            assert optimize(inst) is None
        return
    assert got_point in expected[0]
    if obj is not None:
        point, value = optimize(inst)
        assert point in expected[0]
        assert value == expected[1]
        assert value == sum(c * x for c, x in zip(obj[0], point))


def test_products_past_int64_stay_exact():
    # 4 * x exceeds 2**63 - 1 across the whole box
    x0 = 2 ** 61
    inst = IlpInstance(bounds=((x0, x0 + 3),), constraints=(((4,), ">=", 2 ** 63),),
                       objective=((1,), "min"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert optimize(inst) == ((x0,), x0)
        assert feasible(inst) == (x0,)


def _canonical_points(inst):
    """Box points in search order: lexicographic with ascending values,
    except that under a max objective its first variable with a nonzero
    coefficient descends."""
    ranges = [range(a, b + 1) for (a, b) in inst.bounds]
    if inst.objective is not None and inst.objective[1] == "max":
        j = next((j for j, c in enumerate(inst.objective[0]) if c), None)
        if j is not None:
            ranges[j] = ranges[j][::-1]
    return itertools.product(*ranges)


def test_answers_are_first_in_canonical_order():
    rng = random.Random("ilp-canonical-order")
    for _ in range(400):
        p = rng.randint(1, 4)
        bounds = []
        for _ in range(p):
            a = rng.randint(-2, 3)
            bounds.append((a, a + rng.randint(0, 3)))
        cons = tuple(
            (tuple(rng.randint(-3, 3) for _ in range(p)), rng.choice(["<=", ">=", "=="]),
             rng.randint(-4, 8))
            for _ in range(rng.randint(0, 3))
        )
        obj = (tuple(rng.randint(-2, 2) for _ in range(p)), rng.choice(["min", "max"]))
        inst = IlpInstance(bounds=tuple(bounds), constraints=cons, objective=obj)
        pts = [x for x in _canonical_points(inst) if _satisfies(x, cons)]
        if not pts:
            assert feasible(inst) is None and optimize(inst) is None
            continue
        assert feasible(inst) == pts[0]
        vals = [sum(c * x for c, x in zip(obj[0], pt)) for pt in pts]
        want = min(vals) if obj[1] == "min" else max(vals)
        assert optimize(inst) == (pts[vals.index(want)], want)


def _sweep_propagate(rows, b, lo, hi):
    """Reference propagation: sweep every row until a sweep moves nothing."""
    changed = True
    while changed:
        changed = False
        for row, bi in zip(rows, b):
            mn = 0
            for j, a in row:
                mn += a * (lo[j] if a > 0 else hi[j])
            slack = bi - mn
            if slack < 0:
                return False
            for j, a in row:
                if a > 0:
                    if a * (hi[j] - lo[j]) > slack:
                        hi[j] = lo[j] + slack // a
                        changed = True
                elif -a * (hi[j] - lo[j]) > slack:
                    lo[j] = hi[j] - slack // -a
                    changed = True
    return True


def _sweep_ilp_scan(rows, b, lo, hi, c, find_opt, desc):
    """Reference search: ``_kernels.ilp_scan`` with full-sweep propagation
    at every node, kept to check that the row worklist changes no answer."""
    cost = [(j, cj) for j, cj in enumerate(c) if cj]
    p = len(lo)
    best = None
    best_val = 0
    stack = []
    node = (list(lo), list(hi))
    while True:
        if node is not None:
            lo, hi = node
            node = None
            if _sweep_propagate(rows, b, lo, hi):
                bound = 0
                for j, cj in cost:
                    bound += cj * (lo[j] if cj > 0 else hi[j])
                if best is None or bound < best_val:
                    j = next((j for j in range(p) if lo[j] < hi[j]), -1)
                    if j < 0:
                        best, best_val = tuple(lo), bound
                        if not find_opt:
                            return best, best_val
                    else:
                        stack.append([lo, hi, j, 0])
        if not stack:
            break
        frame = stack[-1]
        lo, hi, j, k = frame
        if k > hi[j] - lo[j]:
            stack.pop()
            continue
        frame[3] = k + 1
        v = hi[j] - k if desc[j] else lo[j] + k
        nlo, nhi = list(lo), list(hi)
        nlo[j] = nhi[j] = v
        node = (nlo, nhi)
    return None if best is None else (best, best_val)


def _configuration_like(rng):
    """Bounds and constraints shaped like a configuration IP: groups of
    count columns that sum to the group size, then a few free variables,
    then mixed-sign coupling rows.  The coupling rows hold at a drawn
    point of the box, except that about one in ten has its right-hand
    side moved, which may leave the IP infeasible.  Draws whose box holds
    more than 2 * 10**5 points that meet the group sums are redrawn, so that
    the exhaustive searches below stay short."""
    while True:
        groups = []
        for _ in range(rng.randint(1, 20)):
            n_cols = rng.choice((1, 1, 1, 2, 3, 4, 5))
            groups.append((rng.randint(1, 20 if n_cols <= 2 else 3), n_cols))
        widths = [rng.randint(0, 20) for _ in range(rng.randint(0, 6))]
        points = prod(comb(size + n_cols - 1, n_cols - 1) for size, n_cols in groups)
        if points * prod(w + 1 for w in widths) <= 2 * 10 ** 5:
            break
    cols = [gi for gi, (_, n_cols) in enumerate(groups) for _ in range(n_cols)]
    bounds = [(0, groups[gi][0]) for gi in cols]
    bounds += [(lo, lo + w) for lo, w in zip((rng.randint(-5, 5) for _ in widths), widths)]
    x0 = [0] * len(cols)
    for gi, (size, _) in enumerate(groups):
        mine = [i for i, c in enumerate(cols) if c == gi]
        for _ in range(size):
            x0[rng.choice(mine)] += 1
    x0 += [rng.randint(lo, hi) for lo, hi in bounds[len(cols):]]
    pad = (0,) * len(widths)
    cons = [(tuple(int(c == gi) for c in cols) + pad, "==", size)
            for gi, (size, _) in enumerate(groups)]
    for _ in range(rng.randint(1, 6)):
        row = [rng.choice((0, 0, rng.randint(-3, 3))) for _ in bounds]
        rel = rng.choice(("<=", ">=", "=="))
        rhs = sum(a * x for a, x in zip(row, x0))
        rhs += {"<=": rng.randint(0, 6), ">=": -rng.randint(0, 6), "==": 0}[rel]
        if rng.random() < 0.1:
            rhs += rng.choice((-1, 1)) * rng.randint(1, 30)
        cons.append((tuple(row), rel, rhs))
    return tuple(bounds), tuple(cons)


def test_worklist_propagation_matches_full_sweeps(monkeypatch):
    rng = random.Random("ilp-worklist-vs-sweep")
    cases = []
    for _ in range(300):
        bounds, cons = _configuration_like(rng)
        obj = tuple(rng.choice((0, 0, rng.randint(-4, 4))) for _ in bounds)
        cases.append([IlpInstance(bounds, cons, (obj, sense)) for sense in ("min", "max")])

    def answers():
        return [(feasible(lo), optimize(lo), optimize(hi)) for lo, hi in cases]

    got = answers()
    monkeypatch.setattr(ilp, "ilp_scan", _sweep_ilp_scan)
    want = answers()
    assert got == want
    assert max(inst.p for inst, _ in cases) >= 30
    assert 20 <= sum(f is None for f, _, _ in want) <= 100


def test_the_cutoff_row_visits_no_more_nodes_than_the_box_bound(monkeypatch):
    """The incumbent's cutoff row only removes points no better than the
    incumbent, so every answer equals the box-bound reference's, no ILP
    visits more nodes (``_propagate`` calls) than the reference, and the
    cutoff pays off somewhere."""
    rng = random.Random("ilp-worklist-vs-sweep")
    insts = []
    for _ in range(300):
        bounds, cons = _configuration_like(rng)
        obj = tuple(rng.choice((0, 0, rng.randint(-4, 4))) for _ in bounds)
        insts += [IlpInstance(bounds, cons, (obj, sense)) for sense in ("min", "max")]
    nodes = [0]

    def counted(propagate):
        def run(*args):
            nodes[0] += 1
            return propagate(*args)
        return run

    monkeypatch.setattr(_kernels, "_propagate", counted(_kernels._propagate))
    monkeypatch.setitem(globals(), "_sweep_propagate", counted(_sweep_propagate))

    def runs():
        out = []
        for inst in insts:
            nodes[0] = 0
            got = (feasible(inst), optimize(inst))
            out.append((got, nodes[0]))
        return out

    got = runs()
    monkeypatch.setattr(ilp, "ilp_scan", _sweep_ilp_scan)
    want = runs()
    assert [a for a, _ in got] == [a for a, _ in want]
    assert all(n <= m for (_, n), (_, m) in zip(got, want))
    assert sum(n for _, n in got) < sum(m for _, m in want)


def _wide_configuration(rng):
    """A configuration-shaped IP whose groups hold 100 to 3000 components:
    up to three single-column groups and one or two two-column groups,
    then up to two narrow free variables and mixed-sign coupling rows that
    hold at a drawn point, except that about one in six has its
    right-hand side moved.  Its box is far past ``_grid_solve``'s reach."""
    groups = [(rng.randint(100, 3000), 1) for _ in range(rng.randint(0, 3))]
    for _ in range(rng.randint(1, 2)):
        groups.insert(rng.randint(0, len(groups)), (rng.randint(100, 3000), 2))
    cols = [gi for gi, (_, n_cols) in enumerate(groups) for _ in range(n_cols)]
    widths = [rng.randint(0, 30) for _ in range(rng.randint(0, 2))]
    bounds = [(0, groups[gi][0]) for gi in cols]
    bounds += [(lo, lo + w) for lo, w in zip((rng.randint(-50, 50) for _ in widths), widths)]
    x0 = []
    for size, n_cols in groups:
        cut = rng.randint(0, size)
        x0 += [size] if n_cols == 1 else [cut, size - cut]
    x0 += [rng.randint(lo, hi) for lo, hi in bounds[len(cols):]]
    pad = (0,) * len(widths)
    cons = [(tuple(int(c == gi) for c in cols) + pad, "==", size)
            for gi, (size, _) in enumerate(groups)]
    for _ in range(rng.randint(1, 3)):
        row = [rng.choice((0, rng.randint(-3, 3))) for _ in bounds]
        rel = rng.choice(("<=", ">=", "=="))
        rhs = sum(a * x for a, x in zip(row, x0))
        rhs += {"<=": rng.randint(0, 50), ">=": -rng.randint(0, 50), "==": 0}[rel]
        if rng.random() < 1 / 6:
            rhs += rng.choice((-1, 1)) * rng.randint(1, 5000)
        cons.append((tuple(row), rel, rhs))
    obj = tuple(rng.randint(-4, 4) for _ in bounds)
    return tuple(bounds), tuple(cons), obj


def _milp_value(inst):
    """The optimum of ``inst`` from scipy's ``milp``, or None when it is
    infeasible.  A zero relative gap makes HiGHS prove optimality rather
    than stop within its default 0.01%."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    coeffs, sense = inst.objective
    a = np.array([c for c, _, _ in inst.constraints], dtype=float)
    lower = [-np.inf if rel == "<=" else rhs for _, rel, rhs in inst.constraints]
    upper = [np.inf if rel == ">=" else rhs for _, rel, rhs in inst.constraints]
    sign = 1 if sense == "min" else -1
    res = milp(sign * np.array(coeffs, dtype=float), integrality=np.ones(inst.p),
               bounds=Bounds(*zip(*inst.bounds)),
               constraints=LinearConstraint(a, lower, upper),
               options={"mip_rel_gap": 0})
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return sign * round(res.fun)


def test_values_match_milp_on_wide_configuration_ips():
    pytest.importorskip("scipy")
    rng = random.Random("ilp-vs-milp")
    infeasible = 0
    boxes = []
    for _ in range(40):
        bounds, cons, obj = _wide_configuration(rng)
        boxes.append(prod(hi - lo + 1 for lo, hi in bounds))
        for sense in ("min", "max"):
            inst = IlpInstance(bounds, cons, (obj, sense))
            want = _milp_value(inst)
            got = optimize(inst)
            point = feasible(inst)
            if want is None:
                infeasible += 1
                assert got is None and point is None
                continue
            assert got is not None and got[1] == want
            assert point is not None and _satisfies(point, cons)
    assert 5 <= infeasible <= 40
    assert max(boxes) >= 10 ** 9
