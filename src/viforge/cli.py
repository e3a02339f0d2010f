"""Command-line front end.

Subcommands: solve, oracle, reduce, gen, params, verify.  Decision
results double as exit codes (0 yes / optimum found, 1 no / infeasible,
2 usage or parse error, 3 precondition violated), so shell harnesses can
branch on them directly.  ``--json`` switches output to one result
record per instance.
"""

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from . import oracles
from .graphs import Graph, edge_key
from .instances import (GraphInstance, ParseError, PartitionInstance, generate,
                        instance_sha256, parse, serialize)
from .integrity import cover_at_most, vi_k_set
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

_NEEDS_R = {"prece", "eqcol", "ecp", "mmoo"}
_TWO_GRAPH = {"mcs", "mcis"}


class UsageError(ValueError):
    pass


# ------------------------------------------------------------ shared pieces

def _graph_of(inst, path):
    if not isinstance(inst, GraphInstance):
        raise UsageError(f"{path} is not a graph instance")
    return inst


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


def _edge_pairs(edges):
    return [[u, v] for (u, v) in sorted(edges)]


def _bounded_params(g: Graph, limit=8):
    """vi and vc when they are at most `limit` (and the graph is small
    enough to search), else None for the unknown ones."""
    report = {"vi": None, "vc": None, "limit": limit}
    if g.n <= 24:
        for k in range(1, min(limit, max(g.n, 1)) + 1):
            if vi_k_set(g, k) is not None:
                report["vi"] = k
                break
    for k in range(0, limit + 1):
        got = cover_at_most(set(g.edges), k)
        if got is not None:
            report["vc"] = len(got)
            break
    return report


# ------------------------------------------------------------------- solve

def _solve_generic(problem, insts, paths, r):
    """(answer, value, certificate) for one solve invocation."""
    if problem in _TWO_GRAPH:
        g1 = _graph_of(insts[0], paths[0]).graph
        g2 = _graph_of(insts[1], paths[1]).graph
        fn = mcs_vi if problem == "mcs" else mcis_vi
        value, mapping = fn(g1, g2)
        return True, value, {"mapping": {str(u): w for u, w in sorted(mapping.items())}}
    inst = insts[0]
    path = paths[0]
    if problem == "imbalance":
        g = _graph_of(inst, path).graph
        value, ordering = imbalance_vi(g)
        return True, value, {"ordering": ordering}
    if problem == "cvc":
        got = cvc_vi(_graph_of(inst, path).graph)
        if got is None:
            return False, None, None
        size, cover, assignment = got
        return True, size, {
            "cover": cover,
            "assignment": {f"{u} {v}": w for (u, v), w in sorted(assignment.items())},
        }
    if problem == "cds":
        got = cds_vi(_graph_of(inst, path).graph)
        if got is None:
            return False, None, None
        size, chosen, assignment = got
        return True, size, {
            "set": chosen,
            "assignment": {str(v): w for v, w in sorted(assignment.items())},
        }
    if problem == "prece":
        gi = _graph_of(inst, path)
        coloring = precoloring_extension_vi(gi.graph, gi.precolor or {}, r)
        if coloring is None:
            return False, None, None
        return True, None, {"coloring": {str(v): c for v, c in sorted(coloring.items())}}
    if problem == "eqcol":
        coloring = equitable_coloring_vi(_graph_of(inst, path).graph, r)
        if coloring is None:
            return False, None, None
        return True, None, {"coloring": {str(v): c for v, c in sorted(coloring.items())}}
    if problem == "ecp":
        parts = equitable_connected_partition_vi(_graph_of(inst, path).graph, r)
        if parts is None:
            return False, None, None
        return True, None, {"parts": parts}
    if problem == "motif":
        found = graph_motif_vi3(_motif_of(inst, path))
        if found is None:
            return False, None, None
        return True, None, {"vertices": found}
    if problem == "mmoo":
        orientation = binary_mmoo_vc2(_graph_of(inst, path).graph, r)
        if orientation is None:
            return False, None, None
        pairs = [list(orientation[e]) for e in sorted(orientation)]
        return True, None, {"orientation": pairs}
    if problem == "sf":
        got = steiner_forest_xp_vc(_steiner_of(inst, path))
        if got is None:
            return False, None, None
        weight, edges = got
        return True, weight, {"edges": _edge_pairs(edges)}
    if problem == "usf":
        got = usf_solve(_steiner_of(inst, path, unit=True))
        if got is None:
            return False, None, None
        count, edges = got
        return True, count, {"edges": _edge_pairs(edges)}
    raise UsageError(f"unknown problem `{problem}`")


def _oracle_generic(problem, insts, paths, r, balanced):
    if problem in _TWO_GRAPH:
        g1 = _graph_of(insts[0], paths[0]).graph
        g2 = _graph_of(insts[1], paths[1]).graph
        fn = oracles.oracle_mcs if problem == "mcs" else oracles.oracle_mcis
        value, mapping = fn(g1, g2)
        return True, value, {"mapping": {str(u): w for u, w in sorted(mapping.items())}}
    inst = insts[0]
    path = paths[0]
    if problem == "bp":
        if not isinstance(inst, BinPackingInstance):
            raise UsageError(f"{path} is not a bin packing source")
        bins = oracles.oracle_bin_packing(inst.items, inst.t)
        return (True, None, {"bins": bins}) if bins is not None else (False, None, None)
    if problem == "partition":
        if not isinstance(inst, PartitionInstance):
            raise UsageError(f"{path} is not a partition source")
        side = oracles.oracle_partition(inst.items, balanced=balanced)
        return (True, None, {"side": side}) if side is not None else (False, None, None)
    if problem == "3dm":
        if not isinstance(inst, ThreeDMInstance):
            raise UsageError(f"{path} is not a 3dm source")
        chosen = oracles.oracle_3dm(inst.n, inst.triples)
        if chosen is None:
            return False, None, None
        return True, None, {"triples": [list(tr) for tr in chosen]}
    gi = _graph_of(inst, path)
    g = gi.graph
    if problem == "vi":
        value, witness = oracles.oracle_vertex_integrity(g)
        return True, value, {"separator": sorted(witness)}
    if problem == "td":
        return True, oracles.oracle_treedepth(g), None
    if problem == "vc":
        cover = oracles.oracle_vertex_cover(g)
        return True, len(cover), {"cover": cover}
    if problem == "imbalance":
        value, ordering = oracles.oracle_imbalance(g)
        return True, value, {"ordering": ordering}
    if problem == "bandwidth":
        value, ordering = oracles.oracle_bandwidth(g)
        return True, value, {"ordering": ordering}
    if problem == "cvc":
        got = oracles.oracle_cvc(g)
        if got is None:
            return False, None, None
        size, cover, assignment = got
        return True, size, {
            "cover": cover,
            "assignment": {f"{u} {v}": w for (u, v), w in sorted(assignment.items())},
        }
    if problem == "cds":
        got = oracles.oracle_cds(g)
        if got is None:
            return False, None, None
        size, chosen, assignment = got
        return True, size, {
            "set": chosen,
            "assignment": {str(v): w for v, w in sorted(assignment.items())},
        }
    if problem == "prece":
        coloring = oracles.oracle_precoloring(g, gi.precolor or {}, r)
        if coloring is None:
            return False, None, None
        return True, None, {"coloring": {str(v): c for v, c in sorted(coloring.items())}}
    if problem == "eqcol":
        coloring = oracles.oracle_eqcoloring(g, r)
        if coloring is None:
            return False, None, None
        return True, None, {"coloring": {str(v): c for v, c in sorted(coloring.items())}}
    if problem == "ecp":
        parts = oracles.oracle_ecp(g, r)
        if parts is None:
            return False, None, None
        return True, None, {"parts": parts}
    if problem == "motif":
        mi = _motif_of(inst, path)
        found = oracles.oracle_motif(mi.graph, mi.motif)
        if found is None:
            return False, None, None
        return True, None, {"vertices": found}
    if problem == "mmoo":
        orientation = oracles.oracle_mmoo(_unit_weighted(g), r)
        if orientation is None:
            return False, None, None
        pairs = [list(orientation[e]) for e in sorted(orientation)]
        return True, None, {"orientation": pairs}
    if problem == "sf":
        si = _steiner_of(inst, path)
        got = oracles.oracle_steiner_forest(si.graph, si.terminals)
        if got is None:
            return False, None, None
        weight, edges = got
        return True, weight, {"edges": _edge_pairs(edges)}
    if problem == "usf":
        si = _steiner_of(inst, path, unit=True)
        got = oracles.oracle_usf(si.graph, si.terminals)
        if got is None:
            return False, None, None
        count, edges = got
        return True, count, {"edges": _edge_pairs(edges)}
    raise UsageError(f"unknown problem `{problem}`")


def _record_worker(mode, problem, paths, r, balanced):
    """Parse, solve and package one invocation; never raises."""
    started = time.perf_counter()
    try:
        insts = [parse(p) for p in paths]
    except ParseError as exc:
        return {"ok": False, "error": str(exc), "code": EXIT_USAGE}
    except OSError as exc:
        return {"ok": False, "error": str(exc), "code": EXIT_USAGE}
    try:
        if mode == "solve":
            answer, value, cert = _solve_generic(problem, insts, paths, r)
        else:
            answer, value, cert = _oracle_generic(problem, insts, paths, r, balanced)
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
    if problem in _NEEDS_R and args.r is None:
        print(f"error: `{problem}` needs --r", file=sys.stderr)
        return EXIT_USAGE
    if problem in _TWO_GRAPH:
        if len(args.files) != 2:
            print(f"error: `{problem}` compares exactly two instance files",
                  file=sys.stderr)
            return EXIT_USAGE
        jobs = [list(args.files)]
    else:
        jobs = [[p] for p in args.files]
    balanced = getattr(args, "balanced", False)
    if args.threads > 1 and len(jobs) > 1:
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
    if report["vi"] is not None:
        for k in range(1, report["vi"] + 1):
            vis = vi_k_set(g, k)
            if vis is not None:
                break
        sep = sorted(vis.separator)
        out["separator"] = sep
        out["types"] = [
            {"order": len(comps[0]), "count": len(comps)}
            for _, comps in classify_detailed(g, sep)
        ]
    print(json.dumps(out))
    return EXIT_YES


# ------------------------------------------------------------------ verify

def _tuple_edges(pairs):
    return [edge_key(int(u), int(v)) for (u, v) in pairs]


def _int_keys(d):
    return {int(k): v for k, v in d.items()}


def _run_verify(args):
    *instance_paths, cert_path = args.files
    if not instance_paths:
        print("error: verify needs instance file(s) and a certificate",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        insts = [parse(p) for p in instance_paths]
        with open(cert_path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except (ParseError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    cert = loaded.get("certificate", loaded) if isinstance(loaded, dict) else loaded
    value = loaded.get("value") if isinstance(loaded, dict) else None
    r = args.r
    if r is None and isinstance(loaded, dict):
        r = loaded.get("parameters", {}).get("k")
    try:
        ok = _verify_generic(args.problem, insts, instance_paths, cert, value,
                             r, args.balanced)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        print(f"invalid: malformed certificate ({exc!r})", file=sys.stderr)
        return EXIT_NO
    if ok:
        print(f"{args.problem} certificate: valid")
        return EXIT_YES
    print(f"{args.problem} certificate: INVALID")
    return EXIT_NO


def _verify_generic(problem, insts, paths, cert, value, r, balanced):
    if problem in _TWO_GRAPH:
        if len(insts) != 2:
            raise UsageError(f"`{problem}` needs two instance files")
        g1 = _graph_of(insts[0], paths[0]).graph
        g2 = _graph_of(insts[1], paths[1]).graph
        mapping = _int_keys(cert["mapping"])
        fn = oracles.verify_mcs if problem == "mcs" else oracles.verify_mcis
        return fn(g1, g2, mapping, value)
    inst = insts[0]
    path = paths[0]
    if problem == "bp":
        if not isinstance(inst, BinPackingInstance):
            raise UsageError(f"{path} is not a bin packing source")
        return oracles.verify_bin_packing(inst.items, inst.t, cert["bins"])
    if problem == "partition":
        if not isinstance(inst, PartitionInstance):
            raise UsageError(f"{path} is not a partition source")
        return oracles.verify_partition(inst.items, cert["side"], balanced=balanced)
    if problem == "3dm":
        if not isinstance(inst, ThreeDMInstance):
            raise UsageError(f"{path} is not a 3dm source")
        return oracles.verify_3dm(inst.n, inst.triples,
                                  [tuple(tr) for tr in cert["triples"]])
    gi = _graph_of(inst, path)
    g = gi.graph
    if problem == "vi":
        return oracles.verify_vi_set(g, cert["separator"], value)
    if problem == "imbalance":
        return oracles.verify_imbalance(g, cert["ordering"], value)
    if problem == "bandwidth":
        return oracles.verify_bandwidth(g, cert["ordering"], value)
    if problem == "cvc":
        assignment = {tuple(map(int, key.split())): w
                      for key, w in cert["assignment"].items()}
        if value is not None and len(cert["cover"]) != value:
            return False
        return oracles.verify_cvc(g, cert["cover"], assignment)
    if problem == "cds":
        if value is not None and len(cert["set"]) != value:
            return False
        return oracles.verify_cds(g, cert["set"], _int_keys(cert["assignment"]))
    if problem == "prece":
        if r is None:
            raise UsageError("`prece` needs --r")
        return oracles.verify_precoloring(g, gi.precolor or {}, r,
                                          _int_keys(cert["coloring"]))
    if problem == "eqcol":
        if r is None:
            raise UsageError("`eqcol` needs --r")
        return oracles.verify_eqcoloring(g, r, _int_keys(cert["coloring"]))
    if problem == "ecp":
        if r is None:
            raise UsageError("`ecp` needs --r")
        return oracles.verify_ecp(g, r, cert["parts"])
    if problem == "motif":
        mi = _motif_of(inst, path)
        return oracles.verify_motif(mi.graph, mi.motif, cert["vertices"])
    if problem == "mmoo":
        if r is None:
            raise UsageError("`mmoo` needs --r")
        orientation = {edge_key(t, h): (t, h)
                       for (t, h) in (tuple(map(int, p)) for p in cert["orientation"])}
        return oracles.verify_mmoo(_unit_weighted(g), r, orientation)
    if problem == "sf":
        si = _steiner_of(inst, path)
        return oracles.verify_steiner_forest(si.graph, si.terminals,
                                             _tuple_edges(cert["edges"]), value)
    if problem == "usf":
        si = _steiner_of(inst, path, unit=True)
        return oracles.verify_steiner_forest(si.graph, si.terminals,
                                             _tuple_edges(cert["edges"]), value)
    raise UsageError(f"unknown problem `{problem}`")


# -------------------------------------------------------------------- main

_SOLVE_PROBLEMS = ["imbalance", "mcs", "mcis", "cvc", "cds", "prece", "eqcol",
                   "ecp", "motif", "mmoo", "sf", "usf"]
_ORACLE_PROBLEMS = ["vi", "td", "vc", "imbalance", "bandwidth", "mcs", "mcis",
                    "cvc", "cds", "prece", "eqcol", "ecp", "motif", "mmoo",
                    "sf", "usf", "bp", "partition", "3dm"]
_VERIFY_PROBLEMS = ["vi", "imbalance", "bandwidth", "mcs", "mcis", "cvc",
                    "cds", "prece", "eqcol", "ecp", "motif", "mmoo", "sf",
                    "usf", "bp", "partition", "3dm"]


def _add_batch_options(p, problems):
    p.add_argument("problem", choices=problems)
    p.add_argument("files", nargs="+", help="instance file(s)")
    p.add_argument("--r", type=int, default=None,
                   help="decision parameter (colors, classes or outdegree)")
    p.add_argument("--balanced", action="store_true",
                   help="partition: require equal-size halves")
    p.add_argument("--json", action="store_true", help="emit result records")
    p.add_argument("--threads", type=int, default=1,
                   help="solve multiple instance files in parallel")


def build_parser():
    top = argparse.ArgumentParser(
        prog="viforge",
        description="Exact solvers, enumeration oracles and hardness-instance "
                    "generators for graphs with a small separator.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the structured solver for a problem")
    _add_batch_options(p, _SOLVE_PROBLEMS)

    p = sub.add_parser("oracle", help="run the brute-force reference solver")
    _add_batch_options(p, _ORACLE_PROBLEMS)

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
    p.add_argument("problem", choices=_VERIFY_PROBLEMS)
    p.add_argument("files", nargs="+",
                   help="instance file(s) followed by the certificate JSON")
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--balanced", action="store_true")
    return top


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
