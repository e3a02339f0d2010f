"""viforge benchmark: seeded workloads timed through ``viforge.cli.run``.

Run from the repository root:

    python3 perfbench/run.py --workload deep --seed 1 --seconds 40 --trace 0

A run makes passes over the workload's instance set, built from
``--seed``, until another pass would overrun ``--seconds`` (at least one
pass; two with ``--trace 1``).  Each pass runs in a fresh interpreter, one
at a time, and calls the CLI in-process there: the solvers keep
process-wide caches (``common_subgraph._OPT_CACHE`` among them), and a
second pass over the same inputs in one process would time warm caches
that no CLI invocation ever sees.  Every answer is checked; a wrong one
makes the run incorrect.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, from untraced
passes.  With ``--trace 1`` untraced and traced passes alternate and the
metrics are the per-layer ones (medians over the traced passes) plus the
tracing overhead, traced minus untraced ``solve_s``.  ``attempted`` counts
timed calls (solve, and oracle on crosscheck); ``failed`` counts calls
that raised or exited 2 or 3.  A call that reaches its deadline is not an
error: it is charged the time it ran and counted against ``answered_frac``.
Timed-out and failed calls are listed by instance in the report.
"""

import argparse
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "solve_p50_ms": "ms",
    "solve_tail_ms": "ms",
    "check_s": "s",
    "answered_frac": "ratio",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None,
                   help="also write the full run record, with every case, as JSON")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--one-pass", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _child(args, mode, traced=False):
    """Run this script in a fresh interpreter in ``mode`` (--setup-only or
    --one-pass); returns (wall seconds, parsed last stdout line or None)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)), mode]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    got = subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S,
                         stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - start
    lines = got.stdout.strip().splitlines()
    return wall, (json.loads(lines[-1]) if lines else None)


def _setup_sample(args):
    """Wall time of a fresh interpreter that imports ``viforge.cli``, builds
    the instances and writes them: everything before the first timed call."""
    return _child(args, "--setup-only")[0]


def _run_passes(args):
    """(per-pass results, set-up samples).  Each pass runs in a fresh
    interpreter, until another pass would overrun ``--seconds``.  The
    SETUP_REPEATS set-up samples are taken between passes, so that they see
    the machine at different moments of the run.  With tracing, untraced
    and traced passes alternate, starting untraced."""
    passes, setups = [], []
    measured = 0.0
    need = 2 if args.trace else 1
    while True:
        if len(setups) < SETUP_REPEATS:
            setups.append(_setup_sample(args))
        traced = bool(args.trace) and len(passes) % 2 == 1
        wall, got = _child(args, "--one-pass", traced)
        got["traced"] = traced
        passes.append(got)
        measured += wall
        if len(passes) >= need and measured + wall > args.seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(_setup_sample(args))
    return passes, setups


def _outcome_dict(o):
    if o is None:
        return None
    return {"status": o.status, "seconds": o.seconds, "error": o.error}


def _one_pass(workload, seed, traced):
    """Build the instances, solve them all once and return the pass record."""
    import harness
    import tracing
    import workloads

    deadline = workloads.DEADLINE_S[workload]
    tracer = tracing.Tracer() if traced else None
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        instances, rejected = workloads.build(workload, seed)
        cases = harness.write_cases(instances, tmp)
        if tracer is None:
            got = harness.run_pass(cases, deadline, workload == "crosscheck", tmp)
        else:
            with tracer:
                got = harness.run_pass(cases, deadline, workload == "crosscheck", tmp,
                                       tracer.root)
    out = {
        "rejected_draws": rejected,
        "deadline_s": deadline,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cases": [{"label": c.instance.label, "problem": c.instance.problem,
                   "r": c.instance.r, "graphs": c.instance.graphs,
                   "solve": _outcome_dict(res.solve), "oracle": _outcome_dict(res.oracle),
                   "verify_s": res.verify_s, "wrong": res.wrong,
                   "uncertified_no": res.uncertified_no}
                  for c, res in zip(cases, got.cases)],
    }
    if tracer is not None:
        out["per_layer"] = tracing.per_layer(tracer)
        out["missing_sites"] = tracer.missing
    return out


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def _tail(values):
    """(value, percentile): the highest of TAIL_PERCENTILES with at least
    ten samples beyond it, or the maximum when none has (under 40
    samples)."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        index = math.ceil(n * pct / 100.0) - 1
        if n - 1 - index >= 10:
            return ordered[index], pct
    return ordered[-1], 100.0


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return got.stdout.strip()


def _environment(seed):
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "seed": seed,
        "pythonpath": "src",
    }


def _answered(outcome):
    return outcome["status"] in (0, 1)


def _case_seconds(case, what):
    if what == "solve":
        return case["solve"]["seconds"]
    oracle = case["oracle"]["seconds"] if case["oracle"] is not None else 0.0
    return oracle + case["verify_s"]


def _per_case(passes, what):
    """Each case's median over ``passes`` of its solve or check seconds.
    Summing per-case medians, rather than taking the median pass total,
    lets one burst of machine noise spoil only the cases it hit."""
    return [statistics.median(_case_seconds(p["cases"][i], what) for p in passes)
            for i in range(len(passes[0]["cases"]))]


def _summarise(passes, setup_s):
    """End-to-end metrics and the call bookkeeping.  Times come from the
    untraced passes; call counts from every pass."""
    untraced = [p for p in passes if not p["traced"]]
    per_case = _per_case(untraced, "solve")
    tail, pct = _tail(per_case)
    outcomes = [c[kind] for p in passes for c in p["cases"]
                for kind in ("solve", "oracle") if c[kind] is not None]
    attempted = len(outcomes)
    metrics = {
        "setup_s": setup_s,
        "solve_s": sum(per_case),
        "solve_p50_ms": 1000.0 * statistics.median(per_case),
        "solve_tail_ms": 1000.0 * tail,
        "check_s": sum(_per_case(untraced, "check")),
        "answered_frac": sum(map(_answered, outcomes)) / attempted,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
    }
    calls = {
        "attempted": attempted,
        "timeouts": sum(o["status"] == "timeout" for o in outcomes),
        "exit3": sum(o["status"] == 3 for o in outcomes),
        "errors": sum(o["status"] in ("error", 2) for o in outcomes),
        "tail_percentile": pct,
        "tail_n": len(per_case),
    }
    return metrics, calls


def _failures(passes):
    """One entry per (case, call, outcome) that did not answer."""
    out = {}
    for p in passes:
        for c in p["cases"]:
            for kind in ("solve", "oracle"):
                o = c[kind]
                if o is None or _answered(o):
                    continue
                status = o["status"] if isinstance(o["status"], str) else f"exit {o['status']}"
                entry = out.setdefault((c["label"], kind, status), [0, 0.0, o["error"]])
                entry[0] += 1
                entry[1] = max(entry[1], o["seconds"])
    return [{"instance": label, "call": kind, "outcome": status, "passes": n,
             "seconds": round(sec, 3), "error": err}
            for (label, kind, status), (n, sec, err) in sorted(out.items())]


def _print_report(rec, units):
    print(f"perfbench workload={rec['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"passes={rec['passes']} cases={rec['cases']} deadline={rec['deadline_s']} s")
    env = rec["environment"]
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"instances: rejected cvc draws (min-degree rule) = {rec['rejected_draws']}")
    calls = rec["calls"]
    for name, value in rec["end_to_end"].items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {SETUP_REPEATS} fresh interpreters)"
        elif name == "solve_tail_ms":
            note = f"  (p{calls['tail_percentile']:.1f} of N={calls['tail_n']} per-case medians)"
        elif name == "answered_frac":
            failed = calls["timeouts"] + calls["exit3"] + calls["errors"]
            note = (f"  (failed_frac {failed / calls['attempted']:.4f}: "
                    f"{calls['timeouts']} timeouts, {calls['exit3']} exit 3, "
                    f"{calls['errors']} errors of {calls['attempted']} calls)")
        print(f"  {name} = {value:.6g} {units[name]}{note}")
    for name, value in rec.get("per_layer", {}).items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"uncertified no answers: {rec['uncertified_no']}")
    print(f"wrong answers: {len(rec['wrong'])}")
    for w in rec["wrong"]:
        print(f"  WRONG {w}")
    for f in rec["failures"]:
        print(f"  {f['outcome']:8s} {f['call']:6s} {f['instance']}  "
              f"({f['passes']} passes, {f['seconds']} s)")
    if rec.get("missing_sites"):
        print("trace sites absent from this version: " + ", ".join(rec["missing_sites"]))


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "viforge" / "cli.py").is_file():
        print(f"error: no viforge source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.environ.update(workloads.ORACLE_BUDGET_ENV)
    if args.setup_only:
        import harness
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            harness.write_cases(workloads.build(args.workload, args.seed)[0], tmp)
        return 0
    if args.one_pass:
        print(json.dumps(_one_pass(args.workload, args.seed, bool(args.trace))))
        return 0

    passes, setups = _run_passes(args)
    end_to_end, calls = _summarise(passes, statistics.median(setups))
    first = passes[0]
    wrong = [f"{c['label']}: {c['wrong']}" for p in passes for c in p["cases"] if c["wrong"]]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "cases": len(first["cases"]),
        "deadline_s": first["deadline_s"], "rejected_draws": first["rejected_draws"],
        "environment": _environment(args.seed),
        "oracle_budget_env": workloads.ORACLE_BUDGET_ENV,
        "end_to_end": end_to_end, "calls": calls, "wrong": wrong,
        "uncertified_no": sum(c["uncertified_no"] for p in passes for c in p["cases"]),
        "failures": _failures(passes),
    }
    units = dict(END_TO_END_UNITS)
    if args.trace:
        import tracing
        traced = [p for p in passes if p["traced"]]
        per_layer = {name: statistics.median(p["per_layer"][name] for p in traced)
                     for name in traced[0]["per_layer"]}
        per_layer["trace.overhead_s"] = (
            sum(_per_case(traced, "solve")) - end_to_end["solve_s"])
        record["per_layer"] = {name: per_layer[name] for name in tracing.PER_LAYER_UNITS}
        record["missing_sites"] = traced[0]["missing_sites"]
        units.update(tracing.PER_LAYER_UNITS)
    _print_report(record, units)
    if args.out:
        record["pass_records"] = passes
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")

    metrics = record["per_layer"] if args.trace else end_to_end
    result = {
        "correct": not wrong,
        "attempted": calls["attempted"],
        "failed": calls["exit3"] + calls["errors"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
