"""Checks on the benchmark harness itself: tracing must not change what it
measures, and its bookkeeping must add up.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import importlib

import pytest

import harness
import tracing
import workloads


@pytest.fixture
def cases(tmp_path, monkeypatch):
    for name, value in workloads.ORACLE_BUDGET_ENV.items():
        monkeypatch.setenv(name, value)
    instances, _ = workloads.build("crosscheck", 7)
    picked = []
    for problem in workloads.PROBLEMS:
        picked += [inst for inst in instances if inst.problem == problem][3:5]
    return harness.write_cases(picked, str(tmp_path))


def _answers(result):
    """Exit code and record of every solve call, without its own timing."""
    return [(c.solve.status, {k: v for k, v in c.solve.record.items() if k != "wall_time_s"})
            for c in result.cases]


def test_wrappers_are_restored_after_a_traced_pass(cases, tmp_path):
    sites = tracing._sites()
    before = [getattr(importlib.import_module(m), a) for m, a, _, _ in sites]
    tracer = tracing.Tracer()
    with tracer:
        wrapped = [getattr(importlib.import_module(m), a) for m, a, _, _ in sites]
        harness.run_pass(cases, 2.0, True, str(tmp_path), tracer.root)
    after = [getattr(importlib.import_module(m), a) for m, a, _, _ in sites]
    assert all(w is not b for w, b in zip(wrapped, before))
    assert all(a is b for a, b in zip(after, before))


def test_traced_answers_equal_untraced_answers(cases, tmp_path):
    plain = harness.run_pass(cases, 2.0, True, str(tmp_path))
    tracer = tracing.Tracer()
    with tracer:
        traced = harness.run_pass(cases, 2.0, True, str(tmp_path), tracer.root)
    assert all(c.solve.answered and c.wrong is None for c in plain.cases)
    assert _answers(traced) == _answers(plain)


def test_self_times_are_non_negative_and_within_wall_time(cases, tmp_path):
    tracer = tracing.Tracer()
    with tracer:
        got = harness.run_pass(cases, 2.0, True, str(tmp_path), tracer.root)
    totals = tracer.totals()
    assert set(totals) == {"solve", "oracle", "verify"}
    self_ns = [ns for _, self_by_name in totals.values() for ns in self_by_name.values()]
    assert min(self_ns) >= 0
    assert sum(self_ns) <= got.wall_s * 1e9
    layers = tracing.per_layer(tracer)
    assert layers["ilp.optimize_calls"] > 0 and layers["oracles.imbalance_s"] > 0
    assert all(layers[f"solvers.{p}.self_s"] >= 0 for p in tracing.PROBLEMS)


def test_a_call_past_its_deadline_is_a_timeout(tmp_path):
    slow = [inst for inst in workloads.build("deep", 0)[0]
            if inst.label == "imbalance n=30 k=5 seed=3"]
    case = harness.write_cases(slow, str(tmp_path))[0]
    got = harness.run_case(case, 0.2, False, str(tmp_path))
    assert got.solve.status == "timeout"
    assert 0.2 <= got.solve.seconds < 1.0
