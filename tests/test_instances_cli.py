import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import viforge
from viforge import cli
from viforge.cli import EXIT_NO, EXIT_PRECONDITION, EXIT_USAGE, EXIT_YES, run
from viforge.graphs import Graph
from viforge.oracles import oracle_imbalance
from viforge.instances import (
    GraphInstance,
    ParseError,
    PartitionInstance,
    generate,
    instance_sha256,
    parse,
    parse_text,
    serialize,
)
from viforge.integrity import ViSet, vertex_cover_min, vertex_integrity
from viforge.reductions import BinPackingInstance, ThreeDMInstance


class TestParsing:
    def test_basic_graph(self):
        inst = parse_text("p 2 1\ne 0 1\n")
        assert inst.graph.edges == {(0, 1)}
        assert inst.graph.n == 2

    def test_comments_and_blank_lines(self):
        inst = parse_text("# header comment\np 3 2\n\ne 0 1  # inline\ne 1 2\n")
        assert inst.graph.m == 2

    def test_attributes(self):
        text = (
            "p 3 2\ne 0 1 4\ne 1 2 2\nc 0 1\nc 1 2\nc 2 1\n"
            "col 1 7\ncol 0 7\ncol 2 0\npc 0 1\nt 0 0\nt 0 2\nm 7 2\n"
        )
        inst = parse_text(text)
        g = inst.graph
        assert g.weights == {(0, 1): 4, (1, 2): 2}
        assert g.capacities == {0: 1, 1: 2, 2: 1}
        assert g.colors == {0: 7, 1: 7, 2: 0}
        assert inst.precolor == {0: 1}
        assert inst.terminals == ((0, 2),)
        assert inst.motif == {7: 2}

    def test_numeric_kinds(self):
        bp = parse_text("bp 3 4\na 1\na 1\na 2\na 2\n")
        assert bp == BinPackingInstance((1, 1, 2, 2), 3)
        pt = parse_text("pt 2\na 3\na 3\n")
        assert pt == PartitionInstance((3, 3))
        dm = parse_text("dm 2 2\ntr 0 0 0\ntr 1 1 1\n")
        assert dm == ThreeDMInstance(2, ((0, 0, 0), (1, 1, 1)))

    def test_error_lines(self):
        with pytest.raises(ParseError) as e:
            parse_text("p 2 1\ne 0 0\n")
        assert e.value.line == 2
        assert "line 2" in str(e.value)
        with pytest.raises(ParseError) as e:
            parse_text("p 2 2\ne 0 1\ne 1 0\n")
        assert e.value.line == 3

    def test_structural_errors(self):
        bad = [
            "e 0 1\n",                      # edge before header
            "p 2 1\np 2 1\ne 0 1\n",        # duplicate header
            "p 2 1\ne 0 5\n",               # vertex out of range
            "p 2 1\ne 0\n",                 # wrong arity
            "p 2 2\ne 0 1\n",               # edge count mismatch
            "p 3 2\ne 0 1 4\ne 1 2\n",      # weights must be all or none
            "p 2 1\ne 0 1 0\n",             # weight must be positive
            "p 2 1\ne 0 1\nq 1\n",          # unknown tag
            "p 2 1\ne 0 1\nc 0 0\nc 1 1\n",  # capacity must be positive
            "p 2 1\ne 0 1\npc 0 1\npc 0 2\n",  # duplicate precolor
            "p 3 2\ne 0 1\ne 1 2\nt 1 0\n",    # set ids must start at 0
            "p 2 1\ne 0 1\nm 0 -1\n",       # negative motif count
            "bp 2 2\na 1\n",                # missing item line
            "dm 1 1\ntr 0 0 9\n",           # coordinate out of range
        ]
        for text in bad:
            with pytest.raises(ParseError):
                parse_text(text)

    def test_parse_reads_files(self, tmp_path):
        path = tmp_path / "inst.g"
        path.write_text("p 2 1\ne 0 1\n")
        assert parse(path).graph.m == 1


class TestSerialization:
    def test_round_trip_frozen(self):
        insts = [
            GraphInstance(Graph(3, {(0, 1), (1, 2)},
                                capacities={0: 1, 1: 2, 2: 1},
                                colors={0: 0, 1: 1, 2: 0},
                                weights={(0, 1): 3, (1, 2): 1}),
                          precolor={0: 1}, terminals=((0, 2),), motif={0: 2}),
            GraphInstance(Graph(0)),
            BinPackingInstance((1, 2, 3), 2),
            PartitionInstance((5, 5)),
            ThreeDMInstance(2, ((0, 0, 0), (1, 1, 1))),
            ThreeDMInstance(0, ()),
        ]
        for inst in insts:
            assert parse_text(serialize(inst)) == inst

    def test_serialize_is_canonical(self):
        a = GraphInstance(Graph(3, {(1, 2), (0, 1)}))
        b = GraphInstance(Graph(3, {(0, 1), (1, 2)}))
        assert serialize(a) == serialize(b)
        assert instance_sha256(a) == instance_sha256(b)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_generated(self, seed):
        rng = random.Random(seed)
        kind = rng.choice(["random-vi", "random-vc", "reduction-source"])
        params = {}
        if kind == "reduction-source":
            params["source"] = rng.choice(["bp", "pt", "dm"])
        else:
            params["n"] = rng.randint(1, 10)
            params["colors"] = rng.choice([0, 3])
            params["weights"] = rng.random() < 0.4
            params["caps"] = rng.random() < 0.4
        text = generate(kind, seed=seed, **params)
        inst = parse_text(text)
        assert serialize(inst) == text


class TestGeneration:
    def test_deterministic(self):
        a = generate("random-vi", seed=7, n=9, k=3)
        b = generate("random-vi", seed=7, n=9, k=3)
        assert a == b
        assert a != generate("random-vi", seed=8, n=9, k=3)

    def test_vi_bound_holds(self):
        for seed in range(12):
            inst = parse_text(generate("random-vi", seed=seed, n=8, k=3))
            assert vertex_integrity(inst.graph)[0] <= 3

    def test_vc_bound_holds(self):
        for seed in range(12):
            inst = parse_text(generate("random-vc", seed=seed, n=8, k=2))
            assert len(vertex_cover_min(inst.graph)) <= 2

    def test_sources_meet_preconditions(self):
        for seed in range(8):
            bp = parse_text(generate("reduction-source", seed=seed, source="bp"))
            assert isinstance(bp, BinPackingInstance)
            assert bp.t >= 3 and bp.total % bp.t == 0
            assert all(a < bp.total // bp.t for a in bp.items)
            pt = parse_text(generate("reduction-source", seed=seed, source="pt"))
            assert len(pt.items) % 2 == 0 and len(pt.items) >= 10
            assert sum(pt.items) % 2 == 0
            dm = parse_text(generate("reduction-source", seed=seed, source="dm"))
            assert isinstance(dm, ThreeDMInstance)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate("nope")


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def k2(tmp_path):
    return _write(tmp_path, "k2.g", "p 2 1\ne 0 1\n")


@pytest.fixture
def p4(tmp_path):
    return _write(tmp_path, "p4.g", "p 4 3\ne 0 1\ne 1 2\ne 2 3\n")


@pytest.fixture
def star(tmp_path):
    return _write(tmp_path, "star.g", "p 4 3\ne 0 1\ne 0 2\ne 0 3\n")


class TestCliSolve:
    def test_plain_and_json(self, k2, capsys):
        assert run(["solve", "imbalance", k2]) == EXIT_YES
        capsys.readouterr()
        assert run(["solve", "imbalance", k2, "--json"]) == EXIT_YES
        rec = json.loads(capsys.readouterr().out)
        assert rec["problem"] == "imbalance"
        assert rec["answer"] is True and rec["value"] == 2
        assert rec["certificate"] == {"ordering": [0, 1]}
        assert rec["parameters"]["vi"] == 2 and rec["parameters"]["vc"] == 1
        assert isinstance(rec["wall_time_s"], float)
        assert len(rec["instance_sha256"]) == 64

    def test_decision_problems(self, star, capsys):
        assert run(["solve", "eqcol", star, "--r", "2"]) == EXIT_NO
        assert run(["solve", "eqcol", star, "--r", "4"]) == EXIT_YES
        assert run(["solve", "ecp", star, "--r", "2"]) == EXIT_NO
        capsys.readouterr()

    def test_color_agnostic_problems_accept_colored_files(self, tmp_path,
                                                          capsys):
        path = tmp_path / "colored.g"
        path.write_text(generate("random-vi", seed=3, n=7, k=3, colors=3))
        assert run(["solve", "imbalance", str(path), "--json"]) == EXIT_YES
        rec = json.loads(capsys.readouterr().out)
        g = parse_text(path.read_text()).graph
        bare = Graph(g.n, set(g.edges))
        assert rec["value"] == oracle_imbalance(bare)[0]

    def test_missing_r_is_usage_error(self, star, capsys):
        assert run(["solve", "eqcol", star]) == EXIT_USAGE
        assert run(["solve", "mmoo", star]) == EXIT_USAGE
        capsys.readouterr()

    def test_two_graph_problems(self, k2, p4, capsys):
        assert run(["solve", "mcs", k2]) == EXIT_USAGE
        assert run(["solve", "mcs", k2, p4, "--json"]) == EXIT_YES
        rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert rec["value"] == 1
        assert isinstance(rec["instance_sha256"], list)

    def test_missing_attributes_are_precondition_errors(self, p4, capsys):
        assert run(["solve", "cvc", p4]) == EXIT_PRECONDITION
        assert run(["solve", "mmoo", p4, "--r", "1"]) == EXIT_PRECONDITION
        capsys.readouterr()

    def test_parse_failures_are_usage_errors(self, tmp_path, capsys):
        bad = _write(tmp_path, "bad.g", "p 2 1\ne 0 0\n")
        assert run(["solve", "imbalance", bad]) == EXIT_USAGE
        assert run(["solve", "imbalance", str(tmp_path / "missing.g")]) == EXIT_USAGE
        capsys.readouterr()

    def test_wrong_instance_kind(self, tmp_path, capsys):
        bp = _write(tmp_path, "src.bp", "bp 3 6\na 1\na 1\na 1\na 1\na 1\na 1\n")
        assert run(["solve", "imbalance", bp]) == EXIT_USAGE
        capsys.readouterr()

    def test_weighted_problems(self, tmp_path, capsys):
        heavy = _write(tmp_path, "heavy.g", "p 2 1\ne 0 1 5\n")
        assert run(["solve", "mmoo", heavy, "--r", "4"]) == EXIT_NO
        assert run(["solve", "mmoo", heavy, "--r", "5"]) == EXIT_YES
        sf = _write(tmp_path, "sf.g",
                    "p 3 3\ne 0 1 3\ne 0 2 1\ne 1 2 1\nt 0 0\nt 0 1\n")
        assert run(["solve", "sf", sf, "--json"]) == EXIT_YES
        rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert rec["value"] == 2
        assert rec["certificate"]["edges"] == [[0, 2], [1, 2]]


class TestCliOracle:
    def test_parameter_oracles(self, p4, capsys):
        assert run(["oracle", "vi", p4, "--json"]) == EXIT_YES
        rec = json.loads(capsys.readouterr().out)
        assert rec["value"] == 3
        assert run(["oracle", "td", p4, "--json"]) == EXIT_YES
        rec = json.loads(capsys.readouterr().out)
        assert rec["value"] == 3
        assert run(["oracle", "vc", p4, "--json"]) == EXIT_YES
        rec = json.loads(capsys.readouterr().out)
        assert rec["value"] == 2

    def test_numeric_oracles(self, tmp_path, capsys):
        bp = _write(tmp_path, "src.bp", "bp 3 6\na 1\na 1\na 1\na 1\na 1\na 1\n")
        assert run(["oracle", "bp", bp]) == EXIT_YES
        bad = _write(tmp_path, "odd.bp", "bp 2 3\na 1\na 1\na 1\n")
        assert run(["oracle", "bp", bad]) == EXIT_NO
        pt = _write(tmp_path, "even.pt", "pt 4\na 1\na 1\na 1\na 3\n")
        assert run(["oracle", "partition", pt]) == EXIT_YES
        assert run(["oracle", "partition", pt, "--balanced"]) == EXIT_NO
        dm = _write(tmp_path, "m.dm", "dm 1 1\ntr 0 0 0\n")
        assert run(["oracle", "3dm", dm]) == EXIT_YES
        capsys.readouterr()

    def test_solver_and_oracle_agree(self, star, capsys):
        assert run(["solve", "imbalance", star, "--json"]) == EXIT_YES
        a = json.loads(capsys.readouterr().out)
        assert run(["oracle", "imbalance", star, "--json"]) == EXIT_YES
        b = json.loads(capsys.readouterr().out)
        assert a["value"] == b["value"] == 4

    def test_budget_exceeded_is_precondition(self, tmp_path, capsys):
        lines = [f"e {i} {i + 1}" for i in range(9)]
        big = _write(tmp_path, "p10.g", "p 10 9\n" + "\n".join(lines) + "\n")
        assert run(["oracle", "vi", big]) == EXIT_PRECONDITION
        capsys.readouterr()


class TestCliReduce:
    def test_unary_mmoo_round_trip(self, tmp_path, capsys, monkeypatch):
        src = _write(tmp_path, "src.bp", "bp 3 6\na 1\na 1\na 1\na 1\na 1\na 1\n")
        out = str(tmp_path / "built.g")
        meta_path = str(tmp_path / "meta.json")
        assert run(["reduce", "unary-mmoo", src, "-o", out, "--meta", meta_path]) == EXIT_YES
        capsys.readouterr()
        meta = json.loads(open(meta_path).read())
        assert meta["r"] == 4
        assert len(meta["instance_sha256"]) == 64
        inst = parse(out)
        assert instance_sha256(inst) == meta["instance_sha256"]
        # the built gadget is past the default enumeration budget
        assert run(["oracle", "mmoo", out, "--r", str(meta["r"])]) == EXIT_PRECONDITION
        monkeypatch.setenv("VIFORGE_ORACLE_MAX_EDGES", "31")
        assert run(["oracle", "mmoo", out, "--r", str(meta["r"])]) == EXIT_YES
        capsys.readouterr()

    def test_reduce_to_stdout(self, tmp_path, capsys):
        src = _write(tmp_path, "m.dm", "dm 1 1\ntr 0 0 0\n")
        assert run(["reduce", "colorful-motif", src]) == EXIT_YES
        text = capsys.readouterr().out
        inst = parse_text(text)
        assert inst.motif == {0: 1, 1: 1, 2: 1, 3: 1}
        assert run(["solve", "motif",
                    _write(tmp_path, "built.g", text)]) == EXIT_YES
        capsys.readouterr()

    def test_bandwidth_reduce(self, tmp_path, capsys):
        src = _write(tmp_path, "t.bp", "bp 2 2\na 1\na 1\n")
        out = str(tmp_path / "tree.g")
        meta_path = str(tmp_path / "meta.json")
        assert run(["reduce", "bandwidth", src, "-o", out, "--meta", meta_path]) == EXIT_YES
        meta = json.loads(open(meta_path).read())
        assert meta["width"] == 29 and meta["n_vertices"] == 233
        assert parse(out).graph.n == 233
        capsys.readouterr()

    def test_wrong_source_kind(self, tmp_path, capsys):
        pt = _write(tmp_path, "x.pt", "pt 10\n" + "a 1\n" * 10)
        assert run(["reduce", "unary-mmoo", pt]) == EXIT_USAGE
        assert run(["reduce", "binary-mmoo", pt]) == EXIT_YES
        capsys.readouterr()

    def test_precondition_failures(self, tmp_path, capsys):
        src = _write(tmp_path, "full.bp",
                     "bp 5 8\na 1\na 1\na 1\na 1\na 1\na 1\na 2\na 2\n")
        assert run(["reduce", "unary-mmoo", src]) == EXIT_PRECONDITION
        assert run(["reduce", "unary-mmoo", src, "--drop-equal-items"]) == EXIT_YES
        trivial = _write(tmp_path, "trivial.bp", "bp 3 4\na 1\na 1\na 2\na 2\n")
        assert run(["reduce", "unary-mmoo", trivial,
                    "--drop-equal-items"]) == EXIT_PRECONDITION
        capsys.readouterr()


class TestCliGenParams:
    def test_gen_deterministic(self, tmp_path, capsys):
        a = str(tmp_path / "a.g")
        b = str(tmp_path / "b.g")
        assert run(["gen", "random-vi", "--seed", "5", "--n", "9", "--k", "3",
                    "-o", a]) == EXIT_YES
        assert run(["gen", "random-vi", "--seed", "5", "--n", "9", "--k", "3",
                    "-o", b]) == EXIT_YES
        assert open(a).read() == open(b).read()
        capsys.readouterr()

    @pytest.mark.parametrize("argv, named", [
        (["random-vi", "--n", "5", "--k", "2", "--max-item", "3"], "max_item"),
        (["random-vi", "--source", "bp"], "source"),
        (["reduction-source", "--k", "3"], "k"),
        (["reduction-source", "--source", "pt", "--colors", "2"], "colors"),
        (["reduction-source", "--source", "bp", "--weights"], "weights"),
        (["reduction-source", "--source", "bp", "--caps"], "caps"),
        (["random-vi", "--colors", "-1"], "colors"),
        (["random-vc", "--colors", "-2"], "colors"),
        (["reduction-source", "--source", "bp", "--n", "5"], "n"),
        (["reduction-source", "--n", "5"], "n"),
        (["reduction-source", "--source", "bp", "--max-item", "3"], "max_item"),
        (["reduction-source", "--source", "dm", "--max-item", "3"], "max_item"),
    ])
    def test_gen_rejects_an_option_its_kind_does_not_take(self, argv, named, capsys):
        assert run(["gen", *argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert re.search(rf"\b{named}\b", captured.err)
        assert "Traceback" not in captured.err

    def test_gen_to_stdout_parses(self, capsys):
        assert run(["gen", "reduction-source", "--source", "pt", "--seed", "3"]) == EXIT_YES
        text = capsys.readouterr().out
        assert isinstance(parse_text(text), PartitionInstance)

    def test_params_output(self, p4, capsys):
        assert run(["params", p4]) == EXIT_YES
        rec = json.loads(capsys.readouterr().out)
        assert rec["n"] == 4 and rec["m"] == 3
        assert rec["vi"] == 3 and rec["vc"] == 2
        assert sum(t["count"] for t in rec["types"]) == 2
        assert rec["separator"] is not None

    def test_the_empty_graph_has_vi_0_everywhere(self, tmp_path, capsys):
        path = _write(tmp_path, "empty.txt", "p 0 0\n")
        assert vertex_integrity(parse(path).graph)[0] == 0
        assert run(["params", path]) == EXIT_YES
        assert json.loads(capsys.readouterr().out)["vi"] == 0
        for command in ("solve", "oracle"):
            assert run([command, "imbalance", path, "--json"]) == EXIT_YES
            rec = json.loads(capsys.readouterr().out)
            assert rec["value"] == rec["parameters"]["vi"] == 0

    def test_params_searches_each_k_once(self, tmp_path, capsys, monkeypatch):
        assert run(["gen", "random-vi", "--seed", "4", "--n", "14", "--k", "4"]) == EXIT_YES
        path = _write(tmp_path, "g.txt", capsys.readouterr().out)
        g = parse(path).graph
        calls = []
        real = cli.vi_k_set

        def counted(g, k):
            calls.append(k)
            return real(g, k)

        monkeypatch.setattr(cli, "vi_k_set", counted)
        assert run(["params", path]) == EXIT_YES
        rec = json.loads(capsys.readouterr().out)
        assert rec["vi"] == vertex_integrity(g)[0] >= 3
        assert calls == list(range(1, rec["vi"] + 1))
        assert ViSet(tuple(rec["separator"]), rec["vi"]).check(g)


class TestCliVerify:
    def test_accepts_solver_records(self, k2, tmp_path, capsys):
        assert run(["solve", "imbalance", k2, "--json"]) == EXIT_YES
        rec_path = _write(tmp_path, "rec.json", capsys.readouterr().out)
        assert run(["verify", "imbalance", k2, rec_path]) == EXIT_YES
        capsys.readouterr()

    def test_rejects_tampered_value(self, k2, tmp_path, capsys):
        assert run(["solve", "imbalance", k2, "--json"]) == EXIT_YES
        rec = json.loads(capsys.readouterr().out)
        rec["value"] = 7
        rec_path = _write(tmp_path, "bad.json", json.dumps(rec))
        assert run(["verify", "imbalance", k2, rec_path]) == EXIT_NO
        capsys.readouterr()

    def test_bare_certificate(self, star, tmp_path, capsys):
        assert run(["solve", "ecp", star, "--r", "4", "--json"]) == EXIT_YES
        rec = json.loads(capsys.readouterr().out)
        cert_path = _write(tmp_path, "cert.json", json.dumps(rec["certificate"]))
        assert run(["verify", "ecp", star, cert_path, "--r", "4"]) == EXIT_YES
        capsys.readouterr()

    def test_malformed_certificate(self, k2, tmp_path, capsys):
        rec_path = _write(tmp_path, "junk.json", "{\"certificate\": 5}")
        assert run(["verify", "imbalance", k2, rec_path]) == EXIT_NO
        capsys.readouterr()

    def test_instance_count_must_match_the_problem(self, k2, p4, tmp_path, capsys):
        assert run(["solve", "imbalance", k2, "--json"]) == EXIT_YES
        rec_path = _write(tmp_path, "rec.json", capsys.readouterr().out)
        assert run(["verify", "imbalance", k2, p4, rec_path]) == EXIT_USAGE
        assert run(["verify", "imbalance", rec_path]) == EXIT_USAGE
        assert run(["verify", "mcs", k2, rec_path]) == EXIT_USAGE
        assert "instance file" in capsys.readouterr().err

    @pytest.mark.parametrize("params", [None, [1]])
    def test_parameters_must_be_an_object(self, star, params, tmp_path, capsys):
        assert run(["solve", "imbalance", star, "--json"]) == EXIT_YES
        rec = json.loads(capsys.readouterr().out)
        rec["parameters"] = params
        rec_path = _write(tmp_path, "rec.json", json.dumps(rec))
        assert run(["verify", "imbalance", star, rec_path]) == EXIT_NO
        assert "malformed certificate" in capsys.readouterr().err

    def test_vi_separator_must_fit_the_value(self, tmp_path, capsys):
        tri = _write(tmp_path, "tri.g", "p 3 3\ne 0 1\ne 1 2\ne 0 2\n")
        whole = _write(tmp_path, "whole.json",
                       json.dumps({"certificate": {"separator": [0, 1, 2]}, "value": 0}))
        assert run(["verify", "vi", tri, whole]) == EXIT_NO
        capsys.readouterr()
        assert run(["oracle", "vi", tri, "--json"]) == EXIT_YES
        rec_path = _write(tmp_path, "rec.json", capsys.readouterr().out)
        assert run(["verify", "vi", tri, rec_path]) == EXIT_YES
        capsys.readouterr()

    def test_bad_instance_exits_3_as_under_solve(self, tmp_path, capsys):
        # the only terminal set has one vertex: a precondition, not a
        # certificate, is broken
        sf = _write(tmp_path, "sf.g", "p 3 2\ne 0 1 1\ne 1 2 1\nt 0 0\n")
        cert = _write(tmp_path, "cert.json", json.dumps({"edges": [], "value": 0}))
        assert run(["solve", "sf", sf]) == EXIT_PRECONDITION
        assert run(["verify", "sf", sf, cert]) == EXIT_PRECONDITION
        assert "malformed certificate" not in capsys.readouterr().err

    def test_balanced_is_not_a_solve_option(self, k2, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["solve", "imbalance", k2, "--balanced"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()


def _problem_choices(command):
    """The problems the ``command`` subparser accepts."""
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    return set(next(a for a in sub.choices[command]._actions
                    if a.dest == "problem").choices)


def _tampered(cert):
    """A copy of ``cert`` whose first integer entry, in sorted key order,
    is -1: a vertex, color or item that no instance has."""
    cert = json.loads(json.dumps(cert))
    node = cert
    while True:
        key = min(node) if isinstance(node, dict) else 0
        if isinstance(node[key], int):
            node[key] = -1
            return cert
        node = node[key]


_P4 = "p 4 3\ne 0 1\ne 1 2\ne 2 3\n"
_STAR = "p 4 3\ne 0 1\ne 0 2\ne 0 3\n"
_CAPPED_STAR = _STAR + "c 0 3\nc 1 1\nc 2 1\nc 3 1\n"
_FOREST = "p 4 4\ne 0 1{}\ne 1 2{}\ne 2 3{}\ne 0 3{}\nt 0 0\nt 0 2\n"

# One small yes-instance per problem `verify` accepts: (files, extra argv).
_ROUND_TRIP = {
    "vi": ([generate("random-vi", seed=1, n=7, k=3)], []),
    "imbalance": ([generate("random-vi", seed=2, n=7, k=3)], []),
    "bandwidth": ([generate("random-vi", seed=3, n=7, k=3)], []),
    "mcs": ([_P4, _STAR], []),
    "mcis": ([_P4, _STAR], []),
    "cvc": ([_CAPPED_STAR], []),
    "cds": ([_CAPPED_STAR], []),
    "prece": ([_P4 + "pc 0 2\n"], ["--r", "2"]),
    "eqcol": ([generate("random-vi", seed=4, n=7, k=3)], ["--r", "4"]),
    "ecp": ([_P4], ["--r", "2"]),
    "motif": (["p 3 2\ne 0 1\ne 1 2\ncol 0 1\ncol 1 2\ncol 2 1\nm 1 1\nm 2 1\n"], []),
    "mmoo": (["p 3 2\ne 0 1 2\ne 1 2 1\n"], ["--r", "2"]),
    "sf": ([_FOREST.format(" 3", " 1", " 1", " 4")], []),
    "usf": ([_FOREST.format("", "", "", "")], []),
    "bp": (["bp 3 6\n" + "a 1\n" * 6], []),
    "partition": (["pt 4\na 1\na 1\na 1\na 3\n"], []),
    "3dm": (["dm 2 3\ntr 0 0 0\ntr 0 1 1\ntr 1 1 1\n"], []),
}


class TestCliRoundTrip:
    def test_every_verify_problem_has_a_case(self):
        assert set(_ROUND_TRIP) == _problem_choices("verify")

    @pytest.mark.parametrize("problem", sorted(_ROUND_TRIP))
    def test_records_pass_verify_and_tampered_ones_fail(self, problem, tmp_path,
                                                        capsys):
        texts, extra = _ROUND_TRIP[problem]
        files = [_write(tmp_path, f"in{i}.txt", text) for i, text in enumerate(texts)]
        modes = [m for m in ("solve", "oracle") if problem in _problem_choices(m)]
        assert "oracle" in modes
        for mode in modes:
            assert run([mode, problem, *files, *extra, "--json"]) == EXIT_YES, mode
            rec = json.loads(capsys.readouterr().out)
            assert rec["answer"] is True
            forged = [dict(rec, certificate=_tampered(rec["certificate"]))]
            if rec["value"] is not None:
                forged.append(dict(rec, value=rec["value"] - 1))
            for i, record in enumerate([rec, *forged]):
                path = _write(tmp_path, f"{mode}{i}.json", json.dumps(record))
                want = EXIT_YES if i == 0 else EXIT_NO
                assert run(["verify", problem, *files, path]) == want, (mode, record)
            capsys.readouterr()


def test_calls_reach_the_names_a_tracer_wraps(k2, p4, capsys, monkeypatch):
    # perfbench's tracer swaps these module attributes for timing wrappers;
    # a call that bound the functions earlier would bypass the wrappers.
    calls = []

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("imbalance_vi", "mcs_vi", "parse", "_bounded_params"):
        counting(cli, name)
    counting(cli.oracles, "oracle_imbalance")
    assert run(["solve", "imbalance", k2]) == EXIT_YES
    assert sorted(calls) == ["_bounded_params", "imbalance_vi", "parse"]
    calls.clear()
    assert run(["solve", "mcs", k2, p4]) == EXIT_YES
    assert sorted(calls) == ["_bounded_params"] * 2 + ["mcs_vi"] + ["parse"] * 2
    calls.clear()
    assert run(["oracle", "imbalance", k2]) == EXIT_YES
    assert sorted(calls) == ["_bounded_params", "oracle_imbalance", "parse"]
    capsys.readouterr()


class TestCliParallel:
    def test_threads_match_sequential(self, tmp_path, capsys):
        files = []
        for seed in range(4):
            text = generate("random-vi", seed=seed, n=7, k=3)
            files.append(_write(tmp_path, f"g{seed}.g", text))
        assert run(["solve", "imbalance", *files, "--json"]) == EXIT_YES
        seq = capsys.readouterr().out.strip().splitlines()
        assert run(["solve", "imbalance", *files, "--json", "--threads", "3"]) == EXIT_YES
        par = capsys.readouterr().out.strip().splitlines()
        strip = lambda line: {k: v for k, v in json.loads(line).items()
                              if k != "wall_time_s"}
        assert [strip(x) for x in seq] == [strip(x) for x in par]

    def test_exit_code_is_worst_of_batch(self, star, tmp_path, capsys):
        bad = _write(tmp_path, "bad.g", "p 2 1\ne 0 0\n")
        assert run(["solve", "eqcol", star, bad, "--r", "4",
                    "--threads", "2"]) == EXIT_USAGE
        capsys.readouterr()


def _without_wall_time(text):
    """stdout lines, with ``wall_time_s`` dropped from JSON records."""
    lines = []
    for line in text.splitlines():
        if line.startswith("{"):
            rec = json.loads(line)
            rec.pop("wall_time_s", None)
            line = json.dumps(rec)
        lines.append(line)
    return lines


def _run_each(argvs, capsys):
    """(exit code, stdout lines without wall times, stderr) of run(argv) for
    each argv in turn; a parse failure gives its SystemExit code."""
    got = []
    for argv in argvs:
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        got.append((code, _without_wall_time(out), err))
    return got


class TestCliReuse:
    """``run`` keeps one parser per process; no call may see another's."""

    def test_run_builds_the_parser_once_per_process(self, k2, star, capsys,
                                                    monkeypatch):
        built = []
        real = cli.build_parser

        def counted():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._shared_parser.cache_clear()
        for _ in range(3):
            assert run(["solve", "imbalance", k2, "--json"]) == EXIT_YES
            assert run(["oracle", "eqcol", star, "--r", "4"]) == EXIT_YES
            assert run(["gen", "random-vi", "--seed", "1"]) == EXIT_YES
            with pytest.raises(SystemExit):
                run(["solve", "nope", k2])
        capsys.readouterr()
        assert built == [1]
        assert cli.build_parser() is not cli.build_parser()

    def test_options_do_not_leak_between_calls(self, star, p4, tmp_path,
                                               capsys, monkeypatch):
        # three items: a partition exists, a balanced one cannot
        pt = _write(tmp_path, "pt.txt", "pt 3\na 1\na 1\na 2\n")
        assert run(["oracle", "partition", pt, "--json"]) == EXIT_YES
        side = _write(tmp_path, "side.json", capsys.readouterr().out)
        argvs = [
            ["solve", "eqcol", star, "--r", "2", "--json"],
            ["solve", "imbalance", p4],
            ["oracle", "partition", pt, "--balanced"],
            ["verify", "partition", pt, side],
            ["params", p4, "--max-k", "3"],
            ["gen", "random-vi", "--seed", "2", "--n", "6", "--k", "2"],
            ["solve", "eqcol", star, "--colours", "2"],
            ["solve", "eqcol", star, "--json"],
            ["params", star],
        ]
        shared = _run_each(argvs, capsys)
        monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
        fresh = _run_each(argvs, capsys)
        assert shared == fresh
        assert [code for code, _, _ in shared] == [
            EXIT_NO, EXIT_YES, EXIT_NO, EXIT_YES, EXIT_YES, EXIT_YES,
            EXIT_USAGE, EXIT_USAGE, EXIT_YES]
        assert "needs --r" in shared[7][2]
        assert json.loads(shared[8][1][0])["search_limit"] == 8


def _run_declared_entry_point(*args):
    """Run ``[project.scripts] viforge`` from pyproject.toml in a fresh
    interpreter the way pip's wrapper script does, so no install is needed.

    The child imports the same viforge as this process, never a stale
    installed copy."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        spec = tomllib.load(fh)["project"]["scripts"]["viforge"]
    module, attr = spec.split(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    src = str(Path(viforge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", wrapper, *args],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})


def test_console_script_runs(k2, star):
    got = _run_declared_entry_point("solve", "imbalance", k2, "--json")
    assert got.returncode == 0, got.stderr
    assert json.loads(got.stdout)["value"] == 2, got.stderr
    # A "no" answer must reach the shell as its exit code, not as 0.
    got = _run_declared_entry_point("solve", "eqcol", star, "--r", "2")
    assert got.returncode == EXIT_NO, got.stderr


@pytest.mark.skipif(shutil.which("viforge") is None,
                    reason="viforge console script not on PATH "
                           "(package not installed)")
def test_installed_console_script_runs(k2):
    got = subprocess.run(["viforge", "solve", "imbalance", k2, "--json"],
                         capture_output=True, text=True, timeout=60)
    assert got.returncode == 0, got.stderr
    assert json.loads(got.stdout)["value"] == 2, got.stderr
