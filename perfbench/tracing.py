"""Spans and counters around the public functions of each viforge layer.

The tracer swaps a function for a timing wrapper at the name its callers
bind (``viforge.solvers.imbalance.optimize``, ``viforge.ilp.ilp_scan``,
``viforge.typesys.components``, ...) and puts every original back when it
is closed.  No file of the package changes.

A span holds a name, a start, an end and the index of its parent span; the
spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its direct children.
Functions called too often to span (one call per enumerated subset) are
only counted.

Each CLI call is a root span named ``cli.<command>``.  Layer metrics are
taken from the spans under ``cli.solve`` roots, except the oracle metrics,
which come from ``cli.oracle`` roots.
"""

import contextlib
import functools
import importlib
import math
from collections import Counter
from time import perf_counter_ns

PROBLEMS = ("imbalance", "mcs", "mcis", "cvc", "cds", "prece", "eqcol", "ecp")

_SOLVER_FUNCS = {
    "imbalance": "imbalance_vi", "mcs": "mcs_vi", "mcis": "mcis_vi",
    "cvc": "cvc_vi", "cds": "cds_vi", "prece": "precoloring_extension_vi",
    "eqcol": "equitable_coloring_vi", "ecp": "equitable_connected_partition_vi",
}
_ORACLE_FUNCS = {
    "imbalance": "oracle_imbalance", "mcs": "oracle_mcs", "mcis": "oracle_mcis",
    "cvc": "oracle_cvc", "cds": "oracle_cds", "prece": "oracle_precoloring",
    "eqcol": "oracle_eqcoloring", "ecp": "oracle_ecp",
}
# Names each solver module binds from the ilp, typesys, integrity and
# graphs layers.
_SOLVER_BINDINGS = {
    "imbalance": ("optimize", "classify_detailed", "vertex_integrity", "anchored_isomorphic"),
    "capacitated": ("optimize", "classify_detailed", "vertex_integrity", "anchored_isomorphic"),
    "coloring": ("feasible", "classify_detailed", "vertex_integrity", "anchored_isomorphic",
                 "labelled_code", "components", "is_connected_subset"),
    "common_subgraph": ("optimize", "classify_detailed", "vertex_integrity",
                        "enumerate_decompositions", "g_type_of", "components"),
}
# attribute -> (span name, spanned); unspanned names are only counted
_LAYER_NAMES = {
    "optimize": ("ilp.optimize", True),
    "feasible": ("ilp.feasible", True),
    "classify_detailed": ("typesys.classify", True),
    "enumerate_decompositions": ("typesys.decomp", True),
    "g_type_of": ("typesys.decomp", True),
    "labelled_code": ("typesys.decomp", True),
    "vertex_integrity": ("integrity.vertex_integrity", True),
    "components": ("graphs.components", True),
    "anchored_isomorphic": ("graphs.iso", False),
    "is_connected_subset": ("graphs.connected_subset", False),
}


def _sites():
    """(module, attribute, span name, spanned) for every wrapped name."""
    out = [("viforge.cli", f, f"solvers.{p}", True) for p, f in _SOLVER_FUNCS.items()]
    out += [("viforge.oracles", f, f"oracles.{p}", True) for p, f in _ORACLE_FUNCS.items()]
    out += [("viforge.oracles", f, "oracles.kernel", True)
            for f in ("imbalance_scan", "mcs_scan", "mcis_scan")]
    out += [("viforge.cli", "parse", "instances.parse", True),
            ("viforge.cli", "_bounded_params", "cli.bounded_params", True),
            ("viforge.ilp", "ilp_scan", "ilp.kernel", True),
            ("viforge.typesys", "min_anchored_code", "kernels.min_anchored_code", True),
            ("viforge.typesys", "components", "graphs.components", True),
            ("viforge.integrity", "components", "graphs.components", True),
            ("viforge.integrity", "vi_k_set", "integrity.vi_k_set", False)]
    for mod, attrs in _SOLVER_BINDINGS.items():
        out += [(f"viforge.solvers.{mod}", attr, *_LAYER_NAMES[attr]) for attr in attrs]
    return out


def _ilp_before(stats, args):
    inst = args[0]
    stats["ilp.vars_max"] = max(stats["ilp.vars_max"], inst.p)
    stats["ilp.rows_sum"] += sum(2 if rel == "==" else 1 for (_, rel, _) in inst.constraints)
    stats["ilp.box_log2_sum"] += sum(math.log2(hi - lo + 1)
                                     for (lo, hi) in inst.bounds if hi >= lo)


def _ilp_after(stats, result):
    stats["ilp.infeasible"] += result is None


def _classify_after(stats, result):
    stats["typesys.types_found"] += len(result)
    stats["typesys.components_classified"] += sum(len(comps) for _, comps in result)


def _vi_after(stats, result):
    stats["integrity.separator_sum"] += len(result[1].separator)


_HOOKS = {
    "ilp.optimize": (_ilp_before, _ilp_after),
    "ilp.feasible": (_ilp_before, _ilp_after),
    "typesys.classify": (None, _classify_after),
    "integrity.vertex_integrity": (None, _vi_after),
}


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        # One [name, parent index or -1, start ns, end ns or -1] per
        # span, in start order; appended whole so a deadline cannot leave
        # a half-written span behind.
        self.spans = []
        self.stats = {}                  # root command -> Counter
        self.missing = []                # sites absent from this version
        self._stack = []
        self._stats = None
        self._saved = []

    # ------------------------------------------------------------ spans

    def _open(self, name):
        span = [name, self._stack[-1] if self._stack else -1, perf_counter_ns(), -1]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span):
        span[3] = perf_counter_ns()
        if self._stack and self.spans[self._stack[-1]] is span:
            self._stack.pop()

    @contextlib.contextmanager
    def root(self, command):
        """Root span around one CLI call; resets any span a deadline cut."""
        self._stack.clear()
        self._stats = self.stats.setdefault(command, Counter())
        span = self._open(f"cli.{command}")
        try:
            yield
        finally:
            self._close(span)
            self._stack.clear()
            self._stats = None

    def _count(self, name):
        if self._stats is not None:
            self._stats[name] += 1

    # --------------------------------------------------------- wrapping

    def _wrap(self, fn, name, spanned):
        tracer = self
        before, after = _HOOKS.get(name, (None, None))

        if not spanned:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer._count(name)
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._count(name)
            stats = tracer._stats
            if before is not None and stats is not None:
                before(stats, args)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None and stats is not None:
                after(stats, result)
            return result
        return traced

    def __enter__(self):
        self.missing = []
        for module_name, attr, name, spanned in _sites():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, spanned))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    # ------------------------------------------------------ aggregation

    def totals(self):
        """{root command: (total ns by name, self ns by name)} over closed spans."""
        root_of = []
        child_ns = [0] * len(self.spans)
        for i, (_, parent, start, end) in enumerate(self.spans):
            root_of.append(i if parent < 0 else root_of[parent])
            if end >= 0 and parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for i, (name, _, start, end) in enumerate(self.spans):
            if end < 0:
                continue
            root = self.spans[root_of[i]][0][len("cli."):]
            total, self_ns = out.setdefault(root, (Counter(), Counter()))
            total[name] += end - start
            self_ns[name] += end - start - child_ns[i]
        return out


# Per-layer metrics: name -> unit.  Times are seconds and counts are
# calls, both per pass over the workload.
PER_LAYER_UNITS = {
    "ilp.busy_s": "s",
    "ilp.kernel_s": "s",
    "ilp.optimize_calls": "count",
    "ilp.feasible_calls": "count",
    "ilp.vars_max": "count",
    "ilp.rows_sum": "count",
    "ilp.box_log2_sum": "log2",
    "ilp.infeasible_frac": "ratio",
    "typesys.classify_s": "s",
    "typesys.classify_calls": "count",
    "typesys.components_classified": "count",
    "typesys.types_found": "count",
    "typesys.decomp_s": "s",
    "kernels.min_anchored_code_s": "s",
    "graphs.components_calls": "count",
    "graphs.components_s": "s",
    "graphs.iso_calls": "count",
    "graphs.connected_subset_calls": "count",
    "integrity.vertex_integrity_s": "s",
    "integrity.vi_k_set_calls": "count",
    "integrity.separator_size": "vertices",
    **{f"oracles.{p}_s": "s" for p in PROBLEMS},
    "oracles.kernel_s": "s",
    "cli.self_s": "s",
    "cli.bounded_params_s": "s",
    "instances.parse_s": "s",
    **{f"solvers.{p}.self_s": "s" for p in PROBLEMS},
    "kernels.perm_table_bytes": "B-computed",
    "trace.overhead_s": "s",
}


def perm_table_bytes():
    """Bytes held by the kernels' permutation-table cache, computed from the
    cached arrays' sizes (0 when the cache does not exist)."""
    kernels = importlib.import_module("viforge._kernels")
    tables = getattr(kernels, "_PERM_TABLES", {})
    return sum(int(t.nbytes) for t in tables.values())


def per_layer(tracer):
    """Per-layer metric values for one traced pass; the tracing overhead
    is left to the caller, which also has the untraced passes."""
    spans = tracer.totals()
    solve_total, solve_self = spans.get("solve", (Counter(), Counter()))
    oracle_total, _ = spans.get("oracle", (Counter(), Counter()))
    st = tracer.stats.get("solve", Counter())
    ilp_calls = st["ilp.optimize"] + st["ilp.feasible"]

    def sec(ns):
        return ns / 1e9

    out = {
        "ilp.busy_s": sec(solve_total["ilp.optimize"] + solve_total["ilp.feasible"]),
        "ilp.kernel_s": sec(solve_total["ilp.kernel"]),
        "ilp.optimize_calls": st["ilp.optimize"],
        "ilp.feasible_calls": st["ilp.feasible"],
        "ilp.vars_max": st["ilp.vars_max"],
        "ilp.rows_sum": st["ilp.rows_sum"],
        "ilp.box_log2_sum": st["ilp.box_log2_sum"],
        "ilp.infeasible_frac": st["ilp.infeasible"] / ilp_calls if ilp_calls else 0.0,
        "typesys.classify_s": sec(solve_total["typesys.classify"]),
        "typesys.classify_calls": st["typesys.classify"],
        "typesys.components_classified": st["typesys.components_classified"],
        "typesys.types_found": st["typesys.types_found"],
        "typesys.decomp_s": sec(solve_total["typesys.decomp"]),
        "kernels.min_anchored_code_s": sec(solve_total["kernels.min_anchored_code"]),
        "graphs.components_calls": st["graphs.components"],
        "graphs.components_s": sec(solve_total["graphs.components"]),
        "graphs.iso_calls": st["graphs.iso"],
        "graphs.connected_subset_calls": st["graphs.connected_subset"],
        "integrity.vertex_integrity_s": sec(solve_total["integrity.vertex_integrity"]),
        "integrity.vi_k_set_calls": st["integrity.vi_k_set"],
        "integrity.separator_size": (st["integrity.separator_sum"]
                                     / st["integrity.vertex_integrity"]
                                     if st["integrity.vertex_integrity"] else 0.0),
        "oracles.kernel_s": sec(oracle_total["oracles.kernel"]),
        "cli.self_s": sec(solve_self["cli.solve"]),
        "cli.bounded_params_s": sec(solve_total["cli.bounded_params"]),
        "instances.parse_s": sec(solve_total["instances.parse"]),
        "kernels.perm_table_bytes": perm_table_bytes(),
    }
    for p in PROBLEMS:
        out[f"oracles.{p}_s"] = sec(oracle_total[f"oracles.{p}"])
        out[f"solvers.{p}.self_s"] = sec(solve_self[f"solvers.{p}"])
    return out
