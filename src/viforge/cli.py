"""Command-line front end.

Subcommands: solve, oracle, reduce, gen, params, verify.  Decision
results double as exit codes (0 yes / optimum found, 1 no / infeasible,
2 usage or parse error, 3 precondition violated), so shell harnesses can
branch on them directly.  ``--json`` switches output to one result
record per instance.  Each problem that solve, oracle and verify accept
is one row of ``PROBLEMS``.
"""

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from . import oracles
from .graphs import Graph, edge_key
from .instances import (GraphInstance, ParseError, PartitionInstance, generate,
                        instance_sha256, parse, serialize)
from .integrity import cover_at_most, matching_size, vi_k_set
from .poly import (MotifInstance, PreconditionError, SteinerInstance,
                   binary_mmoo_vc2, graph_motif_vi3, steiner_forest_xp_vc,
                   usf_solve)
from .reductions import (BinPackingInstance, ReductionInputError,
                         ThreeDMInstance, reduce_3dm_to_colorful_motif,
                         reduce_bp_to_bandwidth, reduce_bp_to_unary_mmoo,
                         reduce_partition_to_binary_mmoo)
from .solvers.capacitated import cds_vi, cvc_vi
from .solvers.coloring import (equitable_coloring_vi,
                               equitable_connected_partition_vi,
                               precoloring_extension_vi)
from .solvers.common_subgraph import mcis_vi, mcs_vi
from .solvers.imbalance import imbalance_vi
from .typesys import classify_detailed

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3


class UsageError(ValueError):
    pass


# ------------------------------------------------------------ shared pieces

def _graph_of(inst, path):
    if not isinstance(inst, GraphInstance):
        raise UsageError(f"{path} is not a graph instance")
    return inst


def _graph(inst, path):
    return _graph_of(inst, path).graph


def _unit_weighted(g: Graph) -> Graph:
    if g.weights is not None:
        return g
    return Graph(g.n, set(g.edges), capacities=g.capacities, colors=g.colors,
                 weights={e: 1 for e in g.edges})


def _steiner_of(inst, path, unit=False):
    gi = _graph_of(inst, path)
    g = gi.graph
    if unit and g.weights is not None and any(w != 1 for w in g.weights.values()):
        raise UsageError(f"{path} has non-unit weights")
    si = SteinerInstance(_unit_weighted(g), gi.terminals)
    si.validate()
    return si


def _motif_of(inst, path):
    gi = _graph_of(inst, path)
    if gi.motif is None:
        raise UsageError(f"{path} has no motif (`m`) lines")
    return MotifInstance(gi.graph, gi.motif)


def _source(kind, label):
    """Reader that accepts only a numeric source of class ``kind``."""
    def read(inst, path):
        if not isinstance(inst, kind):
            raise UsageError(f"{path} is not a {label} source")
        return inst
    return read


def _bounded_params(g: Graph, limit=8):
    """vi and vc when they are at most `limit` (and the graph is small
    enough to search), else None for the unknown ones; "vis" holds the
    ViSet that gave vi."""
    report = {"vi": None, "vc": None, "limit": limit, "vis": None}
    if g.n <= 24:
        for k in range(min(g.n, 1), min(limit, g.n) + 1):
            vis = vi_k_set(g, k)
            if vis is not None:
                report["vi"] = k
                report["vis"] = vis
                break
    for k in range(matching_size(g.edges), limit + 1):
        got = cover_at_most(g.edges, k)
        if got is not None:
            report["vc"] = len(got)
            break
    return report


# ------------------------------------------------------- certificate shapes
#
# An encoder turns an answer other than None into (value, certificate);
# the ``verify`` entries below decode what it wrote.

def _str_keys(d):
    return {str(k): v for k, v in sorted(d.items())}


def _int_keys(d):
    return {int(k): v for k, v in d.items()}


def _edge_pairs(edges):
    return [[u, v] for (u, v) in sorted(edges)]


def _tuple_edges(pairs):
    return [edge_key(int(u), int(v)) for (u, v) in pairs]


def _valued(key, form=list):
    """Encoder of a (value, witness) answer, the witness under ``key``."""
    return lambda got: (got[0], {key: form(got[1])})


def _witness(key, form=list):
    """Encoder of a bare witness with no value, under ``key``."""
    return lambda got: (None, {key: form(got)})


def _assigned(key, names):
    """Encoder of a (size, chosen, assignment) answer of the capacitated
    problems; ``names`` gives the assignment JSON keys."""
    return lambda got: (got[0], {key: got[1], "assignment": names(got[2])})


def _edge_names(assignment):
    return {f"{u} {v}": w for (u, v), w in sorted(assignment.items())}


def _arcs(orientation):
    return [list(orientation[e]) for e in sorted(orientation)]


def _lists(tuples):
    return [list(t) for t in tuples]


def _verify_cvc(g, cert, value, opts):
    assignment = {tuple(map(int, key.split())): w
                  for key, w in cert["assignment"].items()}
    if value is not None and len(cert["cover"]) != value:
        return False
    return oracles.verify_cvc(g, cert["cover"], assignment)


def _verify_cds(g, cert, value, opts):
    if value is not None and len(cert["set"]) != value:
        return False
    return oracles.verify_cds(g, cert["set"], _int_keys(cert["assignment"]))


def _verify_mmoo(g, cert, value, opts):
    orientation = {edge_key(t, h): (t, h)
                   for (t, h) in (tuple(map(int, p)) for p in cert["orientation"])}
    return oracles.verify_mmoo(_unit_weighted(g), opts.r, orientation)


def _verify_forest(si, cert, value, opts):
    return oracles.verify_steiner_forest(si.graph, si.terminals,
                                         _tuple_edges(cert["edges"]), value)


# ------------------------------------------------------------ problem table

class Options(NamedTuple):
    """The knobs of one run that table entries read."""
    r: Optional[int]
    balanced: bool


@dataclass(frozen=True)
class Problem:
    """One row of ``PROBLEMS``.

    ``read(instance, path)`` turns each of the ``arity`` parsed instance
    files into an input.  ``solve`` and ``oracle`` take the inputs and the
    ``Options`` and return an answer, None for "no", which ``encode`` turns
    into (value, certificate).  ``verify`` takes the inputs, the
    certificate, the claimed value and the ``Options``.  Entries look up
    the functions they call when called, never before, so a wrapper set on
    ``viforge.cli`` or ``viforge.oracles`` sees every call."""
    read: Callable
    encode: Callable
    solve: Optional[Callable] = None
    oracle: Optional[Callable] = None
    verify: Optional[Callable] = None
    arity: int = 1
    needs_r: bool = False


PROBLEMS = {
    "vi": Problem(
        _graph, _valued("separator", sorted),
        oracle=lambda g, o: oracles.oracle_vertex_integrity(g),
        verify=lambda g, c, value, o: oracles.verify_vi_set(
            g, c["separator"], value)),
    "td": Problem(
        _graph, lambda value: (value, None),
        oracle=lambda g, o: oracles.oracle_treedepth(g)),
    "vc": Problem(
        _graph, lambda cover: (len(cover), {"cover": cover}),
        oracle=lambda g, o: oracles.oracle_vertex_cover(g)),
    "imbalance": Problem(
        _graph, _valued("ordering"),
        solve=lambda g, o: imbalance_vi(g),
        oracle=lambda g, o: oracles.oracle_imbalance(g),
        verify=lambda g, c, value, o: oracles.verify_imbalance(
            g, c["ordering"], value)),
    "bandwidth": Problem(
        _graph, _valued("ordering"),
        oracle=lambda g, o: oracles.oracle_bandwidth(g),
        verify=lambda g, c, value, o: oracles.verify_bandwidth(
            g, c["ordering"], value)),
    "mcs": Problem(
        _graph, _valued("mapping", _str_keys), arity=2,
        solve=lambda g1, g2, o: mcs_vi(g1, g2),
        oracle=lambda g1, g2, o: oracles.oracle_mcs(g1, g2),
        verify=lambda g1, g2, c, value, o: oracles.verify_mcs(
            g1, g2, _int_keys(c["mapping"]), value)),
    "mcis": Problem(
        _graph, _valued("mapping", _str_keys), arity=2,
        solve=lambda g1, g2, o: mcis_vi(g1, g2),
        oracle=lambda g1, g2, o: oracles.oracle_mcis(g1, g2),
        verify=lambda g1, g2, c, value, o: oracles.verify_mcis(
            g1, g2, _int_keys(c["mapping"]), value)),
    "cvc": Problem(
        _graph, _assigned("cover", _edge_names),
        solve=lambda g, o: cvc_vi(g),
        oracle=lambda g, o: oracles.oracle_cvc(g),
        verify=_verify_cvc),
    "cds": Problem(
        _graph, _assigned("set", _str_keys),
        solve=lambda g, o: cds_vi(g),
        oracle=lambda g, o: oracles.oracle_cds(g),
        verify=_verify_cds),
    "prece": Problem(
        _graph_of, _witness("coloring", _str_keys), needs_r=True,
        solve=lambda gi, o: precoloring_extension_vi(
            gi.graph, gi.precolor or {}, o.r),
        oracle=lambda gi, o: oracles.oracle_precoloring(
            gi.graph, gi.precolor or {}, o.r),
        verify=lambda gi, c, value, o: oracles.verify_precoloring(
            gi.graph, gi.precolor or {}, o.r, _int_keys(c["coloring"]))),
    "eqcol": Problem(
        _graph, _witness("coloring", _str_keys), needs_r=True,
        solve=lambda g, o: equitable_coloring_vi(g, o.r),
        oracle=lambda g, o: oracles.oracle_eqcoloring(g, o.r),
        verify=lambda g, c, value, o: oracles.verify_eqcoloring(
            g, o.r, _int_keys(c["coloring"]))),
    "ecp": Problem(
        _graph, _witness("parts"), needs_r=True,
        solve=lambda g, o: equitable_connected_partition_vi(g, o.r),
        oracle=lambda g, o: oracles.oracle_ecp(g, o.r),
        verify=lambda g, c, value, o: oracles.verify_ecp(g, o.r, c["parts"])),
    "motif": Problem(
        _motif_of, _witness("vertices"),
        solve=lambda mi, o: graph_motif_vi3(mi),
        oracle=lambda mi, o: oracles.oracle_motif(mi.graph, mi.motif),
        verify=lambda mi, c, value, o: oracles.verify_motif(
            mi.graph, mi.motif, c["vertices"])),
    # solve needs the file's weights; oracle and verify give every edge
    # weight 1 when the file has none
    "mmoo": Problem(
        _graph, _witness("orientation", _arcs), needs_r=True,
        solve=lambda g, o: binary_mmoo_vc2(g, o.r),
        oracle=lambda g, o: oracles.oracle_mmoo(_unit_weighted(g), o.r),
        verify=_verify_mmoo),
    "sf": Problem(
        _steiner_of, _valued("edges", _edge_pairs),
        solve=lambda si, o: steiner_forest_xp_vc(si),
        oracle=lambda si, o: oracles.oracle_steiner_forest(si.graph, si.terminals),
        verify=_verify_forest),
    "usf": Problem(
        functools.partial(_steiner_of, unit=True), _valued("edges", _edge_pairs),
        solve=lambda si, o: usf_solve(si),
        oracle=lambda si, o: oracles.oracle_usf(si.graph, si.terminals),
        verify=_verify_forest),
    "bp": Problem(
        _source(BinPackingInstance, "bin packing"), _witness("bins"),
        oracle=lambda bp, o: oracles.oracle_bin_packing(bp.items, bp.t),
        verify=lambda bp, c, value, o: oracles.verify_bin_packing(
            bp.items, bp.t, c["bins"])),
    "partition": Problem(
        _source(PartitionInstance, "partition"), _witness("side"),
        oracle=lambda pt, o: oracles.oracle_partition(pt.items, balanced=o.balanced),
        verify=lambda pt, c, value, o: oracles.verify_partition(
            pt.items, c["side"], balanced=o.balanced)),
    "3dm": Problem(
        _source(ThreeDMInstance, "3dm"), _witness("triples", _lists),
        oracle=lambda dm, o: oracles.oracle_3dm(dm.n, dm.triples),
        verify=lambda dm, c, value, o: oracles.verify_3dm(
            dm.n, dm.triples, [tuple(tr) for tr in c["triples"]])),
}


def _problems_with(entry):
    """Names of the problems whose row has ``entry``, in table order."""
    return [name for name, row in PROBLEMS.items() if getattr(row, entry)]


# ------------------------------------------------------------ solve, oracle

def _record_worker(mode, problem, paths, r, balanced):
    """Parse, solve and package one invocation.

    Parse, usage, precondition, budget and ``ValueError`` failures come
    back as ``{"ok": False, ...}`` records with their exit code; any other
    exception a solver raises (a ``RuntimeError`` or ``AssertionError``,
    say) propagates and ends the batch."""
    started = time.perf_counter()
    try:
        insts = [parse(p) for p in paths]
    except (ParseError, OSError) as exc:
        return {"ok": False, "error": str(exc), "code": EXIT_USAGE}
    row = PROBLEMS[problem]
    try:
        inputs = [row.read(inst, path) for inst, path in zip(insts, paths)]
        got = getattr(row, mode)(*inputs, Options(r, balanced))
        answer = got is not None
        value, cert = row.encode(got) if answer else (None, None)
    except UsageError as exc:
        return {"ok": False, "error": str(exc), "code": EXIT_USAGE}
    except PreconditionError as exc:
        return {"ok": False, "error": str(exc), "code": EXIT_PRECONDITION}
    except (ReductionInputError, oracles.OracleBudgetExceeded, ValueError) as exc:
        return {"ok": False, "error": str(exc), "code": EXIT_PRECONDITION}
    elapsed = time.perf_counter() - started
    params = {"k": r}
    graphs = [i.graph for i in insts if isinstance(i, GraphInstance)]
    if graphs:
        reports = [_bounded_params(g) for g in graphs]
        params["vi"] = [rep["vi"] for rep in reports] if len(reports) > 1 else reports[0]["vi"]
        params["vc"] = [rep["vc"] for rep in reports] if len(reports) > 1 else reports[0]["vc"]
    hashes = [instance_sha256(i) for i in insts]
    record = {
        "problem": problem,
        "instance_sha256": hashes if len(hashes) > 1 else hashes[0],
        "answer": answer,
        "value": value,
        "certificate": cert,
        "wall_time_s": round(elapsed, 6),
        "parameters": params,
    }
    return {"ok": True, "record": record, "code": EXIT_YES if answer else EXIT_NO}


def _emit(result, paths, as_json):
    if not result["ok"]:
        print(f"{' '.join(paths)}: error: {result['error']}", file=sys.stderr)
        return
    record = result["record"]
    if as_json:
        print(json.dumps(record))
        return
    label = " ".join(paths)
    if not record["answer"]:
        print(f"{label}: {record['problem']} no")
    elif record["value"] is not None:
        print(f"{label}: {record['problem']} = {record['value']}")
    else:
        print(f"{label}: {record['problem']} yes")


def _run_batch(mode, args):
    problem = args.problem
    row = PROBLEMS[problem]
    if row.needs_r and args.r is None:
        print(f"error: `{problem}` needs --r", file=sys.stderr)
        return EXIT_USAGE
    if row.arity > 1:
        if len(args.files) != row.arity:
            print(f"error: `{problem}` compares exactly {row.arity} instance files",
                  file=sys.stderr)
            return EXIT_USAGE
        jobs = [list(args.files)]
    else:
        jobs = [[p] for p in args.files]
    balanced = getattr(args, "balanced", False)
    if args.threads > 1 and len(jobs) > 1:
        # imported here, so that calls without a pool do not pay for the import
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.threads) as pool:
            results = list(pool.map(_record_worker, [mode] * len(jobs),
                                    [problem] * len(jobs), jobs,
                                    [args.r] * len(jobs),
                                    [balanced] * len(jobs)))
    else:
        results = [_record_worker(mode, problem, job, args.r, balanced)
                   for job in jobs]
    code = EXIT_YES
    for job, result in zip(jobs, results):
        _emit(result, job, args.json)
        code = max(code, result["code"])
    return code


# ------------------------------------------------------------------ reduce

_REDUCTIONS = {
    "unary-mmoo": (BinPackingInstance, "bin packing (`bp`)"),
    "binary-mmoo": (PartitionInstance, "partition (`pt`)"),
    "bandwidth": (BinPackingInstance, "bin packing (`bp`)"),
    "colorful-motif": (ThreeDMInstance, "3-dimensional matching (`dm`)"),
}


def _run_reduce(args):
    try:
        source = parse(args.source)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    want, label = _REDUCTIONS[args.name]
    if not isinstance(source, want):
        print(f"error: `{args.name}` needs a {label} source", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.name == "unary-mmoo":
            g, r, meta = reduce_bp_to_unary_mmoo(
                source, drop_equal_items=args.drop_equal_items)
            out = GraphInstance(g)
        elif args.name == "binary-mmoo":
            g, r, meta = reduce_partition_to_binary_mmoo(source.items)
            out = GraphInstance(g)
        elif args.name == "bandwidth":
            tree, width, meta = reduce_bp_to_bandwidth(source)
            out = GraphInstance(tree)
        else:
            mi, meta = reduce_3dm_to_colorful_motif(source)
            out = GraphInstance(mi.graph, motif=mi.motif)
    except ReductionInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    text = serialize(out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    meta = dict(meta)
    meta["instance_sha256"] = instance_sha256(out)
    if args.meta:
        with open(args.meta, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2)
            fh.write("\n")
    return EXIT_YES


# --------------------------------------------------------------------- gen

def _run_gen(args):
    params = {}
    for key in ("n", "k", "source", "colors", "max_item"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    if args.weights:
        params["weights"] = True
    if args.caps:
        params["caps"] = True
    try:
        text = generate(args.kind, seed=args.seed, **params)
    except (ValueError, ReductionInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_YES


# ------------------------------------------------------------------ params

def _run_params(args):
    if args.max_k < 0:
        print("error: --max-k must be at least 0", file=sys.stderr)
        return EXIT_USAGE
    try:
        inst = parse(args.file)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not isinstance(inst, GraphInstance):
        print("error: params needs a graph instance", file=sys.stderr)
        return EXIT_USAGE
    g = inst.graph
    report = _bounded_params(g, limit=args.max_k)
    out = {
        "n": g.n,
        "m": g.m,
        "vi": report["vi"],
        "vc": report["vc"],
        "search_limit": args.max_k,
        "types": None,
    }
    if report["vis"] is not None:
        sep = sorted(report["vis"].separator)
        out["separator"] = sep
        out["types"] = [
            {"order": len(comps[0]), "count": len(comps)}
            for _, comps in classify_detailed(g, sep)
        ]
    print(json.dumps(out))
    return EXIT_YES


# ------------------------------------------------------------------ verify

def _run_verify(args):
    problem = args.problem
    row = PROBLEMS[problem]
    *instance_paths, cert_path = args.files
    if len(instance_paths) != row.arity:
        print(f"error: verify `{problem}` needs {row.arity} instance file(s) "
              "followed by a certificate", file=sys.stderr)
        return EXIT_USAGE
    try:
        insts = [parse(p) for p in instance_paths]
        with open(cert_path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except (ParseError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        inputs = [row.read(inst, path) for inst, path in zip(insts, instance_paths)]
    except (PreconditionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, UsageError) else EXIT_PRECONDITION
    cert = loaded.get("certificate", loaded) if isinstance(loaded, dict) else loaded
    value = loaded.get("value") if isinstance(loaded, dict) else None
    try:
        r = args.r
        if r is None and isinstance(loaded, dict):
            # a record whose `parameters` is not an object is malformed
            r = loaded.get("parameters", {}).get("k")
        if row.needs_r and r is None:
            raise UsageError(f"`{problem}` needs --r")
        ok = row.verify(*inputs, cert, value, Options(r, args.balanced))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        print(f"invalid: malformed certificate ({exc!r})", file=sys.stderr)
        return EXIT_NO
    if ok:
        print(f"{problem} certificate: valid")
        return EXIT_YES
    print(f"{problem} certificate: INVALID")
    return EXIT_NO


# -------------------------------------------------------------------- main

def _add_batch_options(p, mode):
    p.add_argument("problem", choices=_problems_with(mode))
    p.add_argument("files", nargs="+", help="instance file(s)")
    p.add_argument("--r", type=int, default=None,
                   help="decision parameter (colors, classes or outdegree)")
    p.add_argument("--json", action="store_true", help="emit result records")
    p.add_argument("--threads", type=int, default=1,
                   help="solve multiple instance files in parallel")


def build_parser():
    """A fresh argument parser for the ``viforge`` command line."""
    top = argparse.ArgumentParser(
        prog="viforge",
        description="Exact solvers, enumeration oracles and hardness-instance "
                    "generators for graphs with a small separator.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the structured solver for a problem")
    _add_batch_options(p, "solve")

    p = sub.add_parser("oracle", help="run the brute-force reference solver")
    _add_batch_options(p, "oracle")
    p.add_argument("--balanced", action="store_true",
                   help="partition: require equal-size halves")

    p = sub.add_parser("reduce", help="build a hardness instance from a source")
    p.add_argument("name", choices=sorted(_REDUCTIONS))
    p.add_argument("source", help="source instance file (bp / pt / dm header)")
    p.add_argument("-o", "--out", default=None, help="instance output path")
    p.add_argument("--meta", default=None, help="metadata JSON output path")
    p.add_argument("--drop-equal-items", action="store_true",
                   help="unary-mmoo: drop items that fill a bin exactly")

    p = sub.add_parser("gen", help="generate a seeded instance")
    p.add_argument("kind", choices=["random-vi", "random-vc", "reduction-source"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--source", choices=["bp", "pt", "dm"], default=None)
    p.add_argument("--colors", type=int, default=None)
    p.add_argument("--weights", action="store_true")
    p.add_argument("--caps", action="store_true")
    p.add_argument("--max-item", type=int, default=None, dest="max_item")
    p.add_argument("-o", "--out", default=None)

    p = sub.add_parser("params", help="report structural parameters of a graph")
    p.add_argument("file")
    p.add_argument("--max-k", type=int, default=8, dest="max_k")

    p = sub.add_parser("verify", help="check a certificate produced by solve/oracle")
    p.add_argument("problem", choices=_problems_with("verify"))
    p.add_argument("files", nargs="+",
                   help="instance file(s) followed by the certificate JSON")
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--balanced", action="store_true")
    return top


@functools.cache
def _shared_parser():
    """The parser ``run`` uses, built on the first call and then reused.

    ``parse_args`` does not change a built parser and gives every parse a
    fresh namespace, so one call's options cannot leak into the next."""
    return build_parser()


def run(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    if args.command == "solve":
        return _run_batch("solve", args)
    if args.command == "oracle":
        return _run_batch("oracle", args)
    if args.command == "reduce":
        return _run_reduce(args)
    if args.command == "gen":
        return _run_gen(args)
    if args.command == "params":
        return _run_params(args)
    return _run_verify(args)


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
