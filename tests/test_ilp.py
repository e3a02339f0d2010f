import itertools
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

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
