"""Checks past oracle reach: answers do not depend on vertex names, and
every yes record the command line prints passes its own ``verify``."""

import json
import random

from viforge import cli
from viforge.graphs import Graph, edge_key
from viforge.instances import GraphInstance, serialize
from viforge.solvers.capacitated import cds_vi, cvc_vi
from viforge.solvers.coloring import equitable_coloring_vi
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


def _write(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(serialize(GraphInstance(g)), encoding="utf-8")
    return str(path)


def _cli_answers(g, gc, tmp_path, capsys) -> dict:
    """The same answers from ``solve --json`` records; each yes record must
    pass ``verify``."""
    plain, capped = _write(tmp_path, "g.txt", g), _write(tmp_path, "gc.txt", gc)
    calls = {"imbalance": ("imbalance", plain, []), "cvc": ("cvc", capped, []),
             "cds": ("cds", capped, []), "eqcol 2": ("eqcol", plain, ["--r", "2"]),
             "eqcol 3": ("eqcol", plain, ["--r", "3"])}
    got = {}
    for key, (problem, path, extra) in calls.items():
        code = cli.run(["solve", problem, path, "--json", *extra])
        rec = json.loads(capsys.readouterr().out)
        assert code == (cli.EXIT_YES if rec["answer"] else cli.EXIT_NO)
        got[key] = (rec["answer"], rec["value"])
        if rec["answer"]:
            cert = tmp_path / "record.json"
            cert.write_text(json.dumps(rec), encoding="utf-8")
            assert cli.run(["verify", problem, path, str(cert)]) == cli.EXIT_YES, key
            capsys.readouterr()
    return got


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
