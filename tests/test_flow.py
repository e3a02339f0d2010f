"""flow.max_flow against networkx's maximum flow on small seeded networks."""

import random

import pytest

from viforge.flow import max_flow

nx = pytest.importorskip("networkx")


def _network(rng):
    """(n, arcs, source, sink): up to 9 vertices, capacities 0..5 with
    zeros common, and parallel and antiparallel copies of some arcs."""
    n = rng.randint(2, 9)
    arcs = []
    for _ in range(rng.randint(0, 3 * n)):
        u, v = rng.sample(range(n), 2)
        arcs.append((u, v, rng.choice([0, 0, 1, 2, 3, 4, 5])))
    for (u, v, _) in list(arcs):
        roll = rng.random()
        if roll < 0.15:
            arcs.append((u, v, rng.randint(0, 5)))
        elif roll < 0.3:
            arcs.append((v, u, rng.randint(0, 5)))
    rng.shuffle(arcs)
    source, sink = rng.sample(range(n), 2)
    return n, arcs, source, sink


def _networkx_value(n, arcs, source, sink):
    d = nx.DiGraph()
    d.add_nodes_from(range(n))
    for (u, v, c) in arcs:
        if d.has_edge(u, v):
            d[u][v]["capacity"] += c
        else:
            d.add_edge(u, v, capacity=c)
    return nx.maximum_flow_value(d, source, sink)


def test_max_flow_matches_networkx():
    rng = random.Random("max-flow-vs-networkx")
    seen = {"parallel": 0, "antiparallel": 0, "zero": 0, "positive value": 0}
    for _ in range(300):
        n, arcs, source, sink = _network(rng)
        value, flows = max_flow(n, arcs, source, sink)
        assert value == _networkx_value(n, arcs, source, sink)

        assert len(flows) == len(arcs)
        net = [0] * n
        for (u, v, c), f in zip(arcs, flows):
            assert 0 <= f <= c
            net[u] -= f
            net[v] += f
        assert all(net[v] == 0 for v in range(n) if v not in (source, sink))
        assert -net[source] == value == net[sink]

        pairs = [(u, v) for (u, v, _) in arcs]
        seen["parallel"] += len(pairs) > len(set(pairs))
        seen["antiparallel"] += any((v, u) in pairs for (u, v) in pairs)
        seen["zero"] += any(c == 0 for (_, _, c) in arcs)
        seen["positive value"] += value > 0
    # the stream must hold every shape _network promises, and real flows
    assert min(seen.values()) >= 50, seen
