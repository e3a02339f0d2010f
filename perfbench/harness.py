"""Timed in-process calls into ``viforge.cli.run`` and the answer checks.

Every call goes through the public entry ``viforge.cli.run`` with the
argument list a shell user would type, with stdout captured.  Each call
runs under a deadline delivered by ``SIGALRM``; a call that reaches it is
recorded as a timeout and charged the time it ran, which is the deadline
plus the signal's latency.  Checking (oracle comparison and ``verify``)
happens outside the timed solve calls.
"""

import contextlib
import io
import json
import os
import signal
import time
import traceback
from dataclasses import dataclass, field

from viforge import cli

# Verification is cheap; its deadline only keeps a broken checker from
# hanging the run.  A verify call that does not finish counts as unchecked.
VERIFY_DEADLINE_S = 60.0


class DeadlineExceeded(Exception):
    """Raised from the SIGALRM handler when a call runs past its deadline."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@dataclass
class Outcome:
    """What one CLI call did: exit code or 'timeout'/'error', and its time."""

    status: object
    seconds: float
    record: dict = None
    error: str = None

    @property
    def answered(self) -> bool:
        return self.status in (cli.EXIT_YES, cli.EXIT_NO)


def call(argv, deadline_s, span=None) -> Outcome:
    """Run ``cli.run(argv)`` with a deadline and return its Outcome.

    ``span`` is an optional context manager factory (the tracer's root
    span) entered around the call.
    """
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    scope = span(argv[0]) if span is not None else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
            with scope, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.run(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        status, error = "timeout", None
    except Exception:  # a solver bug must not end the run; it is reported
        status, error = "error", traceback.format_exc()
    else:
        error = err.getvalue() or None
    seconds = time.perf_counter() - start
    signal.signal(signal.SIGALRM, previous)
    record = None
    if status in (cli.EXIT_YES, cli.EXIT_NO) and argv[0] in ("solve", "oracle"):
        record = json.loads(out.getvalue().strip().splitlines()[-1])
    return Outcome(status, seconds, record, error)


@dataclass
class Case:
    """An instance written to disk, with the argument lists that call it."""

    instance: object
    paths: list

    def argv(self, command, *extra_files):
        args = [command, self.instance.problem, *self.paths, *extra_files]
        if command != "verify":
            args.append("--json")
        if self.instance.r is not None:
            args += ["--r", str(self.instance.r)]
        return args


def write_cases(instances, directory):
    """Write every instance file under ``directory``; returns the Cases."""
    cases = []
    for i, inst in enumerate(instances):
        paths = []
        for j, text in enumerate(inst.texts):
            path = os.path.join(directory, f"case{i:04d}_{j}.g")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            paths.append(path)
        cases.append(Case(inst, paths))
    return cases


@dataclass
class CaseResult:
    solve: Outcome
    oracle: Outcome = None
    verify_s: float = 0.0
    wrong: str = None          # why the answer is wrong, when it is
    uncertified_no: bool = False


@dataclass
class PassResult:
    cases: list = field(default_factory=list)
    wall_s: float = 0.0


def _verify(case, record, directory, span):
    """(seconds, None) when ``verify`` accepts the record, else a reason."""
    cert_path = os.path.join(directory, "certificate.json")
    with open(cert_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    got = call(case.argv("verify", cert_path), VERIFY_DEADLINE_S, span)
    if got.status == cli.EXIT_YES:
        return got.seconds, None
    return got.seconds, f"verify said {got.status}"


def run_case(case, deadline_s, with_oracle, directory, span=None) -> CaseResult:
    """Solve one case (and run its oracle), then check the answer."""
    solve = call(case.argv("solve"), deadline_s, span)
    result = CaseResult(solve)
    if with_oracle:
        result.oracle = call(case.argv("oracle"), deadline_s, span)
    if not solve.answered:
        return result
    record = solve.record
    oracle = result.oracle
    if oracle is not None and oracle.answered:
        want = oracle.record
        if record["answer"] != want["answer"] or record["value"] != want["value"]:
            result.wrong = (f"solver said {record['answer']}/{record['value']}, "
                            f"oracle said {want['answer']}/{want['value']}")
            return result
    if record["answer"]:
        result.verify_s, result.wrong = _verify(case, record, directory, span)
    elif oracle is None or not oracle.answered:
        result.uncertified_no = True
    return result


def run_pass(cases, deadline_s, with_oracle, directory, span=None) -> PassResult:
    start = time.perf_counter()
    got = PassResult([run_case(c, deadline_s, with_oracle, directory, span)
                      for c in cases])
    got.wall_s = time.perf_counter() - start
    return got
