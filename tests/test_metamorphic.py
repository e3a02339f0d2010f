"""Checks past oracle reach: answers do not depend on vertex names, an
isolated vertex changes them only as predicted, and every yes record the
command line prints passes its own ``verify``."""

import json
import random

from viforge import cli
from viforge.graphs import Graph, components, edge_key
from viforge.instances import GraphInstance, serialize
from viforge.solvers.capacitated import cds_vi, cvc_vi
from viforge.solvers.coloring import (equitable_coloring_vi, equitable_connected_partition_vi,
                                     precoloring_extension_vi)
from viforge.solvers.imbalance import imbalance_vi

from conftest import rand_vi_graph, with_caps


def _relabel(g: Graph, perm: list) -> Graph:
    caps = g.capacities
    return Graph(g.n, {edge_key(perm[u], perm[v]) for (u, v) in g.edges},
                 capacities=None if caps is None else {perm[v]: c for v, c in caps.items()})


def _answers(g: Graph, gc: Graph) -> dict:
    """What the solvers say on g (imbalance, equitable colouring) and on
    the capacitated gc (cover and dominating set), as answer and value."""
    got = {"imbalance": (True, imbalance_vi(g)[0])}
    for name, fn in (("cvc", cvc_vi), ("cds", cds_vi)):
        res = fn(gc)
        got[name] = (False, None) if res is None else (True, res[0])
    for r in (2, 3):
        got[f"eqcol {r}"] = (equitable_coloring_vi(g, r) is not None, None)
    return got


def _write(tmp_path, name, g, precolor=None):
    path = tmp_path / name
    path.write_text(serialize(GraphInstance(g, precolor=precolor)), encoding="utf-8")
    return str(path)


def _cli_answer(problem, path, extra, tmp_path, capsys) -> tuple:
    """(answer, value) of a ``solve --json`` record; a yes record must pass
    ``verify``."""
    code = cli.run(["solve", problem, path, "--json", *extra])
    rec = json.loads(capsys.readouterr().out)
    assert code == (cli.EXIT_YES if rec["answer"] else cli.EXIT_NO)
    if rec["answer"]:
        cert = tmp_path / "record.json"
        cert.write_text(json.dumps(rec), encoding="utf-8")
        assert cli.run(["verify", problem, path, str(cert)]) == cli.EXIT_YES, (problem, extra)
        capsys.readouterr()
    return rec["answer"], rec["value"]


def _cli_answers(g, gc, tmp_path, capsys) -> dict:
    """The same answers from ``solve --json`` records; each yes record must
    pass ``verify``."""
    plain, capped = _write(tmp_path, "g.txt", g), _write(tmp_path, "gc.txt", gc)
    calls = {"imbalance": ("imbalance", plain, []), "cvc": ("cvc", capped, []),
             "cds": ("cds", capped, []), "eqcol 2": ("eqcol", plain, ["--r", "2"]),
             "eqcol 3": ("eqcol", plain, ["--r", "3"])}
    return {key: _cli_answer(problem, path, extra, tmp_path, capsys)
            for key, (problem, path, extra) in calls.items()}


def test_answers_survive_relabeling_and_records_verify(tmp_path, capsys):
    rng = random.Random("relabel-past-oracle-reach")
    yes = 0
    for _ in range(40):
        g = rand_vi_graph(rng, rng.randint(10, 16), rng.randint(2, 3))
        gc = with_caps(rng, g, by_degree=True)
        perm, perm_c = list(range(g.n)), list(range(gc.n))
        rng.shuffle(perm)
        rng.shuffle(perm_c)
        want = _answers(g, gc)
        got = _cli_answers(_relabel(g, perm), _relabel(gc, perm_c), tmp_path, capsys)
        assert got == want
        yes += sum(answer for answer, _ in got.values())
    assert yes >= 100


def _chained(g: Graph) -> Graph:
    """g with an edge from each component's smallest vertex to the next
    component's, so it is connected."""
    firsts = [comp[0] for comp in components(g)]
    return Graph(g.n, set(g.edges) | {edge_key(u, v) for u, v in zip(firsts, firsts[1:])})


def test_ecp_and_prece_survive_relabeling_and_an_isolated_vertex(tmp_path, capsys):
    # an isolated vertex would be a part of its own, so parts of two or
    # more vertices ((n + 1) // r >= 2, true for every n and r here) rule
    # out every partition; it takes any colour, so it never changes
    # whether a precolouring extends
    rng = random.Random("ecp-prece-past-oracle-reach")
    yes = {"ecp": 0, "prece": 0}
    flipped = 0
    for _ in range(30):
        g = _chained(rand_vi_graph(rng, rng.randint(10, 13), rng.randint(2, 3)))
        perm = list(range(g.n))
        rng.shuffle(perm)
        moved = _relabel(g, perm)
        plus = Graph(g.n + 1, set(g.edges))
        for r in (2, 3, 4):
            pre = {v: rng.randint(1, r) for v in rng.sample(range(g.n), rng.randint(0, 2))}
            ecp = equitable_connected_partition_vi(g, r) is not None
            prece = precoloring_extension_vi(g, pre, r) is not None
            path = _write(tmp_path, "g.txt", moved, {perm[v]: c for v, c in pre.items()})
            extra = ["--r", str(r)]
            assert _cli_answer("ecp", path, extra, tmp_path, capsys)[0] == ecp, (g, r)
            assert _cli_answer("prece", path, extra, tmp_path, capsys)[0] == prece, (g, pre, r)
            yes["ecp"] += ecp
            yes["prece"] += prece
            assert equitable_connected_partition_vi(plus, r) is None, (g, r)
            flipped += ecp
            assert (precoloring_extension_vi(plus, pre, r) is not None) == prece, (g, pre, r)
    assert yes["ecp"] >= 30 and yes["prece"] >= 60 and flipped >= 30
