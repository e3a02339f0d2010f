import math
import random

import pytest

from viforge import _kernels, ilp, lp
from viforge.ilp import IlpInstance, feasible, optimize
from viforge.instances import generate, parse_text
from viforge.lp import checked_simplex, constraint_rows, exact_bound, lp_bound
from viforge.oracles import verify_imbalance
from viforge.solvers import imbalance

from test_ilp import _configuration_like, _grid_solve, _milp_value, _satisfies


def _configuration_ips(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        bounds, cons = _configuration_like(rng)
        obj = tuple(rng.choice((0, 0, rng.randint(-4, 4))) for _ in bounds)
        out.append(IlpInstance(bounds, cons, (obj, rng.choice(("min", "max")))))
    return out


def _box(inst, lo, hi):
    return ([a for a, _ in inst.bounds] if lo is None else lo,
            [b for _, b in inst.bounds] if hi is None else hi)


def _objective_bound(inst, y):
    """The exact bound that multipliers y (minimisation form) give on
    inst's objective over its own box, in the objective's own sense."""
    coeffs, sense = inst.objective
    sign = -1 if sense == "max" else 1
    c = [sign * cj for cj in coeffs]
    return sign * exact_bound(*constraint_rows(inst), c, *_box(inst, None, None), y)


def _farkas(inst, y, lo=None, hi=None):
    """The exact Farkas value of y over the box lo..hi: positive proves
    that no point of the box meets inst's rows."""
    return exact_bound(*constraint_rows(inst), [0] * inst.p, *_box(inst, lo, hi), y)


def _below(bound, value, sense):
    return bound <= value if sense == "min" else bound >= value


def test_the_exact_bound_is_at_most_the_scan_optimum():
    tight = rays = 0
    for inst in _configuration_ips("lp-vs-scan", 200):
        bound, y = lp_bound(inst)
        got = optimize(inst)
        if bound is None:
            rays += 1
            assert got is None
            assert _farkas(inst, y) > 0
            continue
        if got is None:
            continue
        assert _below(bound, got[1], inst.objective[1])
        assert _objective_bound(inst, y) == bound
        tight += bound == got[1]
    assert tight >= 100 and rays >= 5


def test_a_perturbed_dual_vector_still_gives_a_valid_bound():
    rng = random.Random("lp-perturbed")
    checked = 0
    for inst in _configuration_ips("lp-perturbed-ips", 120):
        got = optimize(inst)
        bound, y = lp_bound(inst)
        if got is None or bound is None:
            continue
        for _ in range(5):
            noisy = [v * rng.uniform(0.5, 1.5) + rng.gauss(0, 1)
                     if rng.random() < 0.7 else -v for v in y]
            assert _below(_objective_bound(inst, noisy), got[1], inst.objective[1])
            checked += 1
        # wrongly signed, huge and non-finite entries are set to 0
        odd = [rng.choice((1e300, -1e300, math.inf, math.nan, 0.1, -0.1)) for _ in y]
        assert _below(_objective_bound(inst, odd), got[1], inst.objective[1])
    assert checked >= 300


def test_infeasible_boxes_return_a_ray_the_exact_check_accepts():
    # sub-boxes of configuration IPs, some cut below a group's size so
    # that its sum row cannot hold: a ray comes back exactly when the
    # exact check proves the box empty, and then no integer point is in it
    rng = random.Random("lp-rays")
    rays = 0
    for inst in _configuration_ips("lp-ray-ips", 150):
        for _ in range(4):
            lo, hi = [], []
            for a, b in inst.bounds:
                x, z = sorted((rng.randint(a, b), rng.randint(a, b)))
                lo.append(x)
                hi.append(z)
            bound, y = lp_bound(inst, lo, hi)
            boxed = IlpInstance(tuple(zip(lo, hi)), inst.constraints, inst.objective)
            if bound is None:
                rays += 1
                assert _farkas(inst, y, lo, hi) > 0
                assert feasible(boxed) is None
            else:
                got = optimize(boxed)
                assert got is None or _below(bound, got[1], inst.objective[1])
    assert rays >= 100
    # a group of size 3 whose two columns may hold at most 1 each
    inst = IlpInstance(((0, 1), (0, 1)), (((1, 1), "==", 3),), ((1, 1), "min"))
    bound, ray = lp_bound(inst)
    assert bound is None and _farkas(inst, ray) > 0


def test_a_ray_that_fails_the_farkas_check_falls_back_to_the_box_bound(monkeypatch):
    # a simplex that reads every box as infeasible, with rays the exact
    # check rejects: lp_bound then takes y = 0, whose bound is the
    # objective's extreme over the box
    rng = random.Random("lp-fallback")
    rays = [lambda m: [0.0] * m, lambda m: [rng.gauss(0, 1) for _ in range(m)]]
    monkeypatch.setattr(lp, "simplex", lambda a, rels, b, c, lo, hi, warm=None:
                        (None, rng.choice(rays)(len(rels)), None))
    for inst in _configuration_ips("lp-fallback-ips", 60):
        bound, y = lp_bound(inst)
        coeffs, sense = inst.objective
        pick = min if sense == "min" else max
        assert bound is not None and y == [0.0] * len(inst.constraints)
        assert bound == sum(pick(cj * a, cj * b) for cj, (a, b) in zip(coeffs, inst.bounds))


def test_a_warm_solve_agrees_with_a_cold_one_on_sub_boxes():
    # a child's box re-solved from its parent's basis and from the slack
    # basis: the same infeasibility verdict and, since degenerate LPs can
    # end at different optimal bases whose multipliers are rounded to
    # 2**-40, exact bounds within 1e-9 of each other and equal ceilings
    rng = random.Random("lp-warm")
    bounded = empty = 0
    for inst in _configuration_ips("lp-warm-ips", 150):
        rows = constraint_rows(inst)
        c = [cj if inst.objective[1] == "min" else -cj for cj in inst.objective[0]]
        _, _, parent = lp.simplex(*rows, c, *_box(inst, None, None))
        if parent is None:
            continue
        for _ in range(4):
            lo, hi = [], []
            for a, b in inst.bounds:
                cut, side = rng.randint(a, b), rng.randrange(4)
                lo.append(cut if side == 0 else a)
                hi.append(cut if side == 1 else b)
            _, warm, _, _ = checked_simplex(*rows, c, lo, hi, parent)
            _, cold, _, _ = checked_simplex(*rows, c, lo, hi)
            assert (warm is None) == (cold is None)
            if cold is None:
                empty += 1
                continue
            assert abs(warm - cold) <= 1e-9 and math.ceil(warm) == math.ceil(cold)
            bounded += 1
    assert bounded >= 100 and empty >= 100


def test_the_bound_is_within_a_small_tolerance_of_linprog():
    pytest.importorskip("scipy")
    import numpy as np
    from scipy.optimize import linprog

    compared = 0
    for inst in _configuration_ips("lp-vs-linprog", 150):
        coeffs, sense = inst.objective
        sign = 1 if sense == "min" else -1
        a = np.array([c for c, _, _ in inst.constraints], dtype=float)
        rhs = np.array([r for _, _, r in inst.constraints], dtype=float)
        rels = [rel for _, rel, _ in inst.constraints]
        up = [i for i, rel in enumerate(rels) if rel != "=="]
        eq = [i for i, rel in enumerate(rels) if rel == "=="]
        flip = np.array([1.0 if rels[i] == "<=" else -1.0 for i in up])
        res = linprog(sign * np.array(coeffs, dtype=float),
                      A_ub=a[up] * flip[:, None] if up else None,
                      b_ub=rhs[up] * flip if up else None,
                      A_eq=a[eq] if eq else None, b_eq=rhs[eq] if eq else None,
                      bounds=inst.bounds)
        bound, _ = lp_bound(inst)
        if res.status == 2:
            assert bound is None
            continue
        assert res.status == 0 and bound is not None
        assert abs(float(bound) - sign * res.fun) <= 1e-6 * max(1.0, abs(res.fun))
        compared += 1
    assert compared >= 100


def _small_ips(rng, count):
    """Seeded IPs of 1-4 variables over boxes of at most 5 values each,
    small enough to enumerate."""
    for _ in range(count):
        p = rng.randint(1, 4)
        bounds = []
        for _ in range(p):
            a = rng.randint(-2, 3)
            bounds.append((a, a + rng.randint(0, 4)))
        cons = tuple((tuple(rng.randint(-3, 3) for _ in range(p)),
                      rng.choice(["<=", ">=", "=="]), rng.randint(-4, 8))
                     for _ in range(rng.randint(0, 3)))
        obj = (tuple(rng.randint(-3, 3) for _ in range(p)), rng.choice(["min", "max"]))
        yield IlpInstance(tuple(bounds), cons, obj)


def _matches_the_grid(inst):
    """True when ``inst`` is infeasible for both ``feasible`` and
    ``optimize`` and on the grid, or both answer a point meeting its rows
    and the optimum is the grid's; None stands for an infeasible IP."""
    want = _grid_solve(inst)
    point, got = feasible(inst), optimize(inst)
    if want is None:
        assert point is None and got is None
        return None
    assert _satisfies(point, inst.constraints) and _satisfies(got[0], inst.constraints)
    assert got[1] == want[1] == sum(c * x for c, x in zip(inst.objective[0], got[0]))
    return True


def test_the_lp_search_answers_as_grid_enumeration_does(monkeypatch):
    # with the scan's budget at 0 or 3 nodes, every IP goes to the LP
    # search, from no incumbent or from the scan's; values match the grid
    rng = random.Random("lp-search-grid")
    searched = 0
    for budget in (0, 3):
        monkeypatch.setattr(_kernels, "SCAN_NODES", budget)
        searched += sum(bool(_matches_the_grid(inst)) for inst in _small_ips(rng, 150))
    assert searched >= 120


def test_a_root_without_an_lp_bound_does_not_end_the_search_early(monkeypatch):
    # the simplex gives up at each search's first node, as on an iteration
    # cap, with a ray the Farkas check rejects, so the root's bound is the
    # box bound; no later node's bound may stand in for it and stop the
    # search
    real_search, real_simplex = ilp._lp_search, lp.simplex
    at_root = []

    def search(*args):
        at_root.append(True)
        return real_search(*args)

    def simplex(a, rels, b, *rest):
        if at_root:
            at_root.clear()
            return None, [0.0] * len(rels), None
        return real_simplex(a, rels, b, *rest)

    monkeypatch.setattr(ilp, "_lp_search", search)
    monkeypatch.setattr(lp, "simplex", simplex)
    monkeypatch.setattr(_kernels, "SCAN_NODES", 0)
    searched = sum(bool(_matches_the_grid(inst))
                   for inst in _small_ips(random.Random("lp-search-no-root"), 300))
    assert searched >= 120


def test_a_spent_scan_hands_its_incumbent_to_the_lp_search(monkeypatch):
    insts = _configuration_ips("lp-handoff", 40)
    want = [optimize(inst) for inst in insts]
    handed = []
    real = ilp._lp_search

    def search(*args):
        handed.append(args[-1])
        return real(*args)

    monkeypatch.setattr(ilp, "_lp_search", search)
    monkeypatch.setattr(_kernels, "SCAN_NODES", 8)
    got = [optimize(inst) for inst in insts]
    assert [g and g[1] for g in got] == [w and w[1] for w in want]
    assert sum(h is not None for h in handed) >= 5 and None in handed


def _deep_case():
    return parse_text(generate("random-vi", seed=3, n=30, k=5)).graph


def test_the_twelve_order_ips_of_the_deep_imbalance_case(monkeypatch):
    g = _deep_case()
    captured = []
    # an order whose IP has no answer cannot end the loop, so every order
    # is visited, in (root bound, canonical index) order, and its IP
    # captured; in canonical order the roots read 43, 43, 40, 40, 42, 42,
    # 42, 42, 42, 40, 40, 42
    monkeypatch.setattr(imbalance, "optimize", lambda inst: captured.append(inst))
    assert imbalance.imbalance_vi(g) is None
    assert len(captured) == 12 and {inst.p for inst in captured} == {46}
    roots = [math.ceil(lp_bound(inst)[0]) for inst in captured]
    assert roots == [40] * 4 + [42] * 6 + [43] * 2
    # a small scan budget sends each IP to the LP search from the scan's
    # incumbent, which keeps this test short
    monkeypatch.setattr(_kernels, "SCAN_NODES", 50)
    got = [optimize(inst) for inst in captured]
    assert [value for _, value in got] == [40] * 4 + [42] * 6 + [44] * 2
    assert all(_satisfies(point, inst.constraints) for (point, _), inst in zip(got, captured))


def test_the_twelve_order_ip_optima_match_milp(monkeypatch):
    pytest.importorskip("scipy")
    captured = []
    monkeypatch.setattr(imbalance, "optimize", lambda inst: captured.append(inst))
    imbalance.imbalance_vi(_deep_case())
    assert [_milp_value(inst) for inst in captured] == [40] * 4 + [42] * 6 + [44] * 2


def test_the_deep_imbalance_case_answers_40():
    g = _deep_case()
    value, ordering = imbalance.imbalance_vi(g)
    assert value == 40
    assert verify_imbalance(g, ordering, value)
