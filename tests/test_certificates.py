"""Frozen `solve --json` records for seeded `gen random-vi` instances.

Each instance in ``frozen_certificates.json`` has a type group with at
least two components, so its certificate is assembled through
non-identity component maps: a change in the order the configuration
step hands out signatures, or in the maps it uses, changes these
records.  The eqcol cases cover both branches (r <= 2 vi and r > 2 vi),
and the ecp cases take the separator branch r <= vi < n // r.
"""

import json
from pathlib import Path

import pytest

from viforge.cli import EXIT_YES, run

CASES = json.loads((Path(__file__).parent / "frozen_certificates.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[f"{c['case']}-seed{c['seed']}" for c in CASES])
def test_certificate_is_frozen(case, tmp_path, capsys):
    path = str(tmp_path / "g.txt")
    argv = ["gen", "random-vi", "--seed", str(case["seed"]), "--n", str(case["n"]),
            "--k", str(case["k"]), "-o", path]
    assert run(argv + (["--caps"] if case["caps"] else [])) == EXIT_YES
    want = case["record"]
    argv = ["solve", want["problem"], path, "--json"]
    if case["r"] is not None:
        argv += ["--r", str(case["r"])]
    capsys.readouterr()
    assert run(argv) == EXIT_YES
    got = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    got.pop("wall_time_s")
    assert got == want
