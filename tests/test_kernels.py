"""The list kernels against test-side brute force, frozen canonical codes,
and the import footprint of the command line."""

import os
import random
import struct
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import viforge
from viforge.graphs import Graph, components, path_graph
from viforge.oracles import oracle_imbalance
from viforge.typesys import g_type_of, labelled_code, type_of

from conftest import BIG_BUDGET, rand_graph


def _imbalance_by_scan(g):
    """(least total imbalance, first ordering attaining it) over all
    orderings in lexicographic order."""
    adj = g.adjacency()
    best = None
    for order in permutations(range(g.n)):
        placed = set()
        total = 0
        for u in order:
            total += abs(len(adj[u]) - 2 * len(adj[u] & placed))
            placed.add(u)
        if best is None or total < best[0]:
            best = (total, list(order))
    return best


def test_imbalance_dp_matches_permutation_scan():
    rng = random.Random("imbalance-dp")
    graphs = [Graph(0), Graph(1), Graph(8), path_graph(8),
              Graph(8, {(i, j) for i in range(8) for j in range(i + 1, 8)})]
    graphs += [rand_graph(rng, rng.randint(2, 6), rng.choice([0.2, 0.5, 0.8]))
               for _ in range(60)]
    graphs += [rand_graph(rng, 7, p) for p in (0.3, 0.6)]
    graphs += [rand_graph(rng, 8, 0.45)]
    for g in graphs:
        value, order = oracle_imbalance(g, budget=BIG_BUDGET)
        assert (value, order) == _imbalance_by_scan(g), sorted(g.edges)


def _code_by_scan(g, s_list, comp, attr):
    """Header plus the least row-major cell string and attribute vector
    over all orders of the component, packed as int64 cells."""
    best = None
    for perm in permutations(comp):
        order = list(s_list) + list(perm)
        cells = [int(g.has_edge(u, v)) for u in order for v in order]
        cand = cells + [attr(v) for v in order]
        if best is None or cand < best:
            best = cand
    head = bytes([len(s_list), len(comp)])
    return head + struct.pack(f"={len(best)}q", *best)


def test_canonical_codes_match_brute_force():
    rng = random.Random("canonical-codes")
    for _ in range(60):
        g = rand_graph(rng, rng.randint(1, 8), rng.choice([0.3, 0.5]))
        g.capacities = {v: rng.randint(1, 3) for v in range(g.n)}
        g.colors = {v: rng.randint(0, 1) for v in range(g.n)}
        s_list = rng.sample(range(g.n), rng.randint(0, min(3, g.n)))
        attrs = {"plain": lambda v: 0, "capacity": g.capacities.get, "color": g.colors.get}
        for comp in components(g, set(s_list)):
            if len(comp) > 5:
                continue
            for mode, attr in attrs.items():
                want = _code_by_scan(g, s_list, comp, attr)
                assert type_of(g, s_list, comp, mode).code == want, (g.edges, s_list, comp, mode)


# Codes captured before the kernels moved from numpy arrays to lists.
FROZEN_CODES = {
    "plain": "0102000000000000000000000000000000000100000000000000000000000000000000000000"
             "0000000001000000000000000100000000000000010000000000000000000000000000000000"
             "00000000000000000000000000000000000000000000",
    "capacity": "0102000000000000000000000000000000000100000000000000000000000000000000000000"
                "0000000001000000000000000100000000000000010000000000000000000000000000000100"
                "00000000000001000000000000000200000000000000",
    "color": "0101000000000000000001000000000000000100000000000000000000000000000001000000"
             "000000000200000000000000",
    "labelled": "0102000000000000000000000000000000000100000000000000000000000000000000000000"
                "0000000001000000000000000100000000000000010000000000000000000000000000000000"
                "00000000000000000000000000000200000000000000",
    "piece": "0102000000000000000000000000000000000100000000000000000000000000000000000000"
             "0000000001000000000000000100000000000000010000000000000000000000000000000000"
             "00000000000000000000000000000000000000000000",
}


def test_frozen_canonical_codes():
    g3 = Graph(3, {(0, 1), (1, 2)}, capacities={0: 1, 1: 2, 2: 1}, colors={0: 0, 1: 1, 2: 2})
    tri = Graph(4, {(0, 1), (0, 2), (1, 2), (2, 3)})
    got = {
        "plain": type_of(path_graph(4), [1], [2, 3]).hex,
        "capacity": type_of(g3, [0], [1, 2], mode="capacity").hex,
        "color": type_of(g3, [1], [2], mode="color").hex,
        "labelled": labelled_code(g3, [0], [1, 2], {1: 2, 2: 0}).hex(),
        "piece": g_type_of(tri, [0], [1, 2], [(1, 0)]).hex,
    }
    assert got == FROZEN_CODES


def test_cli_import_loads_no_numpy_or_numba():
    src = str(Path(viforge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = ("import sys, viforge.cli; "
             "print(sorted(m for m in ('numpy', 'numba') if m in sys.modules))")
    got = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert got.returncode == 0, got.stderr
    assert got.stdout.strip() == "[]"


def test_cli_import_loads_no_process_pool():
    src = str(Path(viforge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, viforge.cli; print('concurrent.futures.process' in sys.modules)"
    got = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert got.returncode == 0, got.stderr
    assert got.stdout.strip() == "False"
