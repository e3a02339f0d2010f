"""Instance sets for the three benchmark workloads.

Every instance is built with ``viforge.instances.generate`` and carries the
(kind, seed, params) of each graph it holds, so any single case can be
regenerated with ``viforge gen`` (on ``wide``, followed by the recorded
relabeling).  The same workload seed always gives the same instance set.

Run time per case is heavy-tailed on small and mid-size graphs, so a set
drawn afresh for each seed would make the run time swing from seed to seed
by more than any bound worth checking.  Every workload therefore solves a
fixed set of generated graphs; only ``wide`` uses the workload seed, to
rename the vertices of its graphs.

- ``crosscheck``: oracle-reach streams in the style of
  ``tests/test_acceptance.py`` (random-vi, n <= 8, k <= 4; mcs/mcis pairs
  with n <= 6/7), covering all eight solver problems, drawn from a fixed
  stream seed.  Drawn from the workload seed, five seeds' solve times
  differed by up to 28% after correcting for machine speed: a few
  imbalance and mcs cases cost 0.3-0.7 s against a median of 3 ms.  The
  vertex count cycles through its range instead of being drawn, because
  the oracles' cost grows like n!.
- ``deep``: a fixed ladder of mid-size graphs past oracle reach, where the
  configuration ILP dominates.  A deep case's cost swings 10-100x with the
  graph drawn, and even with a relabeling of one graph (imbalance at
  n = 40, k = 3 took 0.55 s under one vertex permutation and more than 3 s
  under three others), because the separator the solver finds depends on
  the labels.
- ``wide``: large sparse graphs with hundreds of components, and three
  small ecp graphs, each relabeled by a permutation drawn from the
  workload seed.  Their run time barely depends on the labels.
"""

import hashlib
import random
from dataclasses import dataclass, field

from viforge.graphs import Graph
from viforge.instances import GraphInstance, generate, parse_text, serialize

WORKLOADS = ("crosscheck", "deep", "wide")

# The eight problems with a separator-based solver.
PROBLEMS = ("imbalance", "mcs", "mcis", "cvc", "cds", "prece", "eqcol", "ecp")

# Same limits as the acceptance tests' BUDGET, passed to the oracles
# through the environment variables the CLI reads.
ORACLE_BUDGET_ENV = {
    "VIFORGE_ORACLE_MAX_VERTICES": "32",
    "VIFORGE_ORACLE_MAX_EDGES": "40",
    "VIFORGE_ORACLE_MAX_ORDERINGS": "50000",
    "VIFORGE_ORACLE_MAX_SUBSETS": str(10 ** 6),
    "VIFORGE_ORACLE_MAX_ITEMS": "16",
}

# Per-call deadline in seconds.  Every deep and wide case either finished
# in under half its workload's deadline at the seed commit or ran past
# twice it; the ladders leave out draws that fell in between, so that
# machine noise does not flip a case between answer and timeout.
DEADLINE_S = {"crosscheck": 2.0, "deep": 2.5, "wide": 4.0}

CROSSCHECK_PER_PROBLEM = 72

# (problem, n, k, generator seeds): one seed per graph, two for a pair.
# Seed-commit times on a 2-CPU machine, Python 3.11, no numba.  The cheap
# cases balance the ladder so that its median falls inside the cluster of
# 0.23-0.31 s cases rather than in the gap above it, where machine noise
# would swap which cases set the median.
DEEP_LADDER = (
    ("imbalance", 10, 3, (1,)),   # 0.02 s
    ("imbalance", 10, 4, (1,)),   # 0.04 s
    ("imbalance", 30, 3, (1,)),   # 0.1 s
    ("imbalance", 20, 3, (1,)),   # 0.6-0.9 s
    ("imbalance", 30, 3, (2,)),   # 0.21 s
    ("imbalance", 40, 3, (1,)),   # 0.54 s
    ("imbalance", 40, 3, (3,)),   # 0.23 s
    ("imbalance", 20, 4, (3,)),   # 0.24 s
    ("imbalance", 30, 5, (3,)),   # > 100 s
    ("cds", 20, 3, (2,)),         # 0.05 s
    ("cds", 40, 3, (2,)),         # 0.2 s
    ("cds", 40, 4, (1,)),         # 0.27 s
    ("cds", 30, 4, (2,)),         # 0.8-1.1 s
    ("cds", 30, 5, (3,)),         # 0.06 s
    ("cds", 30, 4, (1,)),         # 0.05 s
    ("cds", 30, 4, (3,)),         # 0.04 s
    ("cds", 40, 4, (2,)),         # 0.05 s
    ("mcs", 8, 3, (1, 2)),        # 0.35 s
    ("mcs", 8, 3, (5, 6)),        # 0.52 s
    ("mcs", 12, 3, (1, 2)),       # > 12 s
)

# Seed of the crosscheck streams.
CROSSCHECK_STREAM_SEED = 0

# (problem, n, k, r, generator seed)
WIDE_LADDER = (
    ("eqcol", 600, 2, 3, 1),
    ("eqcol", 1000, 2, 3, 1),
    ("eqcol", 600, 3, 3, 1),
    ("cds", 500, 2, None, 1),
    ("cds", 700, 2, None, 1),
    ("prece", 1000, 2, 3, 1),
    ("prece", 1000, 3, 3, 1),
    ("prece", 1000, 3, 4, 1),
    ("ecp", 18, 2, 3, 1),         # 0.09 s
    ("ecp", 22, 2, 3, 2),         # 0.86 s
    ("ecp", 26, 2, 3, 1),         # > 10 s: C(26, 9) candidate parts
)


@dataclass
class Instance:
    """One solver call: the problem, its instance file texts and --r."""

    problem: str
    texts: tuple
    r: object = None
    graphs: list = field(default_factory=list)  # provenance per file

    @property
    def label(self) -> str:
        g = self.graphs[0]
        seeds = ",".join(str(x["seed"]) for x in self.graphs)
        out = f"{self.problem} n={g['params']['n']} k={g['params']['k']} seed={seeds}"
        if self.r is not None:
            out += f" r={self.r}"
        if g.get("relabel") is not None:
            out += f" relabel={g['relabel']}"
        return out


def derive_seed(*parts) -> int:
    """A 32-bit generator seed derived from a stream name, a seed and a
    case's position."""
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def _draw(seed, n, k, caps=False):
    params = {"n": n, "k": k}
    if caps:
        params["caps"] = True
    text = generate("random-vi", seed=seed, **params)
    return text, {"kind": "random-vi", "seed": seed, "params": params}


def _with_precolor(text, rng, r):
    """Attach the acceptance stream's precoloring: up to two vertices with
    colours in 1..r."""
    g = parse_text(text).graph
    picked = rng.sample(range(g.n), min(g.n, rng.randint(0, 2)))
    pre = {v: rng.randint(1, r) for v in picked}
    return serialize(GraphInstance(g, precolor=pre or None)), pre


def _relabel(text, seed):
    """The same instance with its vertices renamed by a seeded permutation."""
    gi = parse_text(text)
    g = gi.graph
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    caps = None
    if g.capacities is not None:
        caps = {perm[v]: c for v, c in g.capacities.items()}
    pre = None
    if gi.precolor is not None:
        pre = {perm[v]: c for v, c in gi.precolor.items()}
    edges = {(perm[u], perm[v]) for (u, v) in g.edges}
    return serialize(GraphInstance(Graph(g.n, edges, capacities=caps), precolor=pre))


def _min_degree_ok(text):
    g = parse_text(text).graph
    return all(g.degree(v) >= 1 for v in range(g.n))


def _crosscheck():
    """Eight oracle-reach streams; returns (instances, rejected cvc draws).

    cvc draws follow the acceptance stream's minimum-degree rule: the
    generator gives an isolated vertex capacity 1, which ``cvc_vi`` rejects
    as exceeding its degree, so such draws are skipped and counted.
    """
    out = []
    rejected = 0
    for problem in PROBLEMS:
        max_n = {"mcs": 6, "mcis": 7}.get(problem, 8)
        draw = 0
        made = 0
        while made < CROSSCHECK_PER_PROBLEM:
            draw += 1
            rng = random.Random(derive_seed("crosscheck", CROSSCHECK_STREAM_SEED, problem, draw))
            n_graphs = 2 if problem in ("mcs", "mcis") else 1
            texts, graphs = [], []
            for j in range(n_graphs):
                n = 1 + (draw - 1) // max_n ** j % max_n
                k = rng.randint(1, 4)
                gseed = derive_seed("crosscheck", CROSSCHECK_STREAM_SEED, problem, draw, j)
                text, meta = _draw(gseed, n, k, caps=problem in ("cvc", "cds"))
                texts.append(text)
                graphs.append(meta)
            if problem == "cvc" and not _min_degree_ok(texts[0]):
                rejected += 1
                continue
            r = None
            if problem in ("prece", "eqcol", "ecp"):
                r = rng.randint(1, 4)
            if problem == "prece":
                texts[0], pre = _with_precolor(texts[0], rng, r)
                graphs[0]["precolor"] = {str(v): c for v, c in sorted(pre.items())}
            out.append(Instance(problem, tuple(texts), r, graphs))
            made += 1
    return out, rejected


def _deep():
    out = []
    for problem, n, k, gseeds in DEEP_LADDER:
        drawn = [_draw(gseed, n, k, caps=problem == "cds") for gseed in gseeds]
        out.append(Instance(problem, tuple(t for t, _ in drawn), None,
                            [meta for _, meta in drawn]))
    return out, 0


def _wide(seed):
    out = []
    for i, (problem, n, k, r, gseed) in enumerate(WIDE_LADDER):
        text, meta = _draw(gseed, n, k, caps=problem == "cds")
        if problem == "prece":
            rng = random.Random(derive_seed("wide-precolor", i))
            text, pre = _with_precolor(text, rng, r)
            meta["precolor"] = {str(v): c for v, c in sorted(pre.items())}
        meta["relabel"] = derive_seed("wide", seed, i)
        out.append(Instance(problem, (_relabel(text, meta["relabel"]),), r, [meta]))
    return out, 0


def build(workload, seed):
    """(instances, rejected draws) for one workload and seed."""
    if workload == "crosscheck":
        return _crosscheck()
    if workload == "deep":
        return _deep()
    if workload == "wide":
        return _wide(seed)
    raise ValueError(f"unknown workload {workload!r}")
