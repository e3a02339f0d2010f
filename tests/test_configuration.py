import random

import pytest

from viforge.graphs import Graph, path_graph, star_graph
from viforge.solvers import capacitated, coloring, common_subgraph, imbalance
from viforge.solvers.configuration import best, columns


def _counted(answers):
    """A solve function that returns answers[guess] and records each call."""
    calls = []

    def solve(guess):
        calls.append(guess)
        return answers[guess]

    return solve, calls


def test_best_keeps_the_first_of_equal_keys():
    solve, calls = _counted({0: (5, "a"), 1: (3, "b"), 2: (3, "c"), 3: (4, "d")})
    assert best(range(4), solve, key=lambda got: got[0]) == (3, "b")
    assert calls == [0, 1, 2, 3]


def test_best_skips_none_answers():
    solve, _ = _counted({0: None, 1: (2, "x"), 2: None, 3: (1, "y"), 4: None})
    assert best(range(5), solve, key=lambda got: got[0]) == (1, "y")
    assert best(range(5), solve) == (2, "x")
    solve, calls = _counted({0: None, 1: None})
    assert best(range(2), solve) is None
    assert best(range(2), solve, key=lambda got: got) is None
    assert calls == [0, 1, 0, 1]
    assert best(iter(()), solve) is None


def test_a_decision_stops_at_the_first_yes_and_reads_guesses_lazily():
    pulled = []

    def guesses():
        for i in range(10):
            pulled.append(i)
            yield i

    solve, calls = _counted({i: ("yes" if i >= 3 else None) for i in range(10)})
    assert best(guesses(), solve) == "yes"
    assert calls == [0, 1, 2, 3]
    assert pulled == [0, 1, 2, 3]


def _guess_stream(rng):
    """Seeded answers (or None) whose keys tie often, and bounds at most
    each answer's key, often equal to it (any value for a None answer)."""
    n = rng.randint(0, 12)
    answers = [None if rng.random() < 0.2 else (rng.randint(0, 6), i) for i in range(n)]
    bounds = [rng.randint(-2, 8) if got is None else got[0] - rng.choice((0, 0, 1, 3))
              for got in answers]
    return answers, bounds


def _canonical_with_skipping(answers, bounds):
    """(answer, calls) of the canonical loop that skips a guess whose
    bound is not below the best key so far."""
    top, calls = None, 0
    for got, bound in zip(answers, bounds):
        if top is not None and not bound < top[0]:
            continue
        calls += 1
        if got is not None and (top is None or got[0] < top[0]):
            top = got
    return top, calls


def test_a_bound_skips_only_guesses_that_cannot_strictly_win():
    # a guess is solved only while its (bound, index) is below the best
    # (key, index) held, and the guesses come in (bound, index) order
    skipped = 0
    for seed in range(300):
        answers, bounds = _guess_stream(random.Random(seed))
        n = len(answers)
        held, seen = [], []

        def solve(i):
            assert not held or (bounds[i], i) < min(held)
            seen.append((bounds[i], i))
            if answers[i] is not None:
                held.append((answers[i][0], i))
            return answers[i]

        want = best(range(n), lambda i: answers[i], key=lambda got: got[0])
        assert best(range(n), solve, key=lambda got: got[0], bound=bounds.__getitem__) == want
        assert seen == sorted(seen)
        skipped += n - len(seen)
    assert skipped >= 300


def test_bound_order_keeps_the_canonical_answer_and_solves_no_more():
    # the first optimum in canonical order, with no more solve calls than
    # the canonical loop with skipping; equal keys and bounds equal to the
    # key are common, so dropping either half of the tie rule (visit a
    # bound equal to the best key only from an earlier index; replace an
    # equal key only from an earlier index) changes some answer
    fewer = 0
    for seed in range(2000):
        answers, bounds = _guess_stream(random.Random(f"bound-order-{seed}"))
        want, canonical_calls = _canonical_with_skipping(answers, bounds)
        solve, calls = _counted(dict(enumerate(answers)))
        got = best(range(len(answers)), solve, key=lambda got: got[0], bound=bounds.__getitem__)
        assert got is want
        assert len(calls) <= canonical_calls
        fewer += len(calls) < canonical_calls
    assert fewer >= 200


def test_columns_follow_group_order_then_signature_order():
    groups = [("t0", [[0, 1], [2, 3]]), ("t1", [[4]])]
    catalogue = {0: {(2, 1): "w21", (1, 5): "w15"}, 4: {(0,): "w0"}}
    got = columns(groups, lambda rep: catalogue[rep[0]])
    assert got == [(0, ((1, 5), "w15")), (0, ((2, 1), "w21")), (1, ((0,), "w0"))]
    assert columns([], lambda rep: {}) == []


def test_columns_are_none_when_a_catalogue_is_empty():
    seen = []

    def catalogue(rep):
        seen.append(rep[0])
        return {} if rep[0] == 2 else {(rep[0],): None}

    groups = [("a", [[0]]), ("b", [[2]]), ("c", [[5]])]
    assert columns(groups, catalogue) is None
    # the groups after the empty one are not enumerated
    assert seen == [0, 2]


# Each solver must call the integer program through its own module's name:
# the benchmark's tracer wraps those names, and a solver that reached the
# ILP some other way would read 0 ILP calls in every traced run.
_BINDINGS = ((imbalance, "optimize"), (capacitated, "optimize"),
             (coloring, "feasible"), (common_subgraph, "optimize"))


def _capped(g):
    return Graph(g.n, g.edges, capacities={v: max(1, g.degree(v)) for v in range(g.n)})


@pytest.mark.parametrize("name, call, binding", [
    ("imbalance", lambda: imbalance.imbalance_vi(path_graph(5)), 0),
    ("cvc", lambda: capacitated.cvc_vi(_capped(path_graph(5))), 1),
    ("cds", lambda: capacitated.cds_vi(_capped(star_graph(4))), 1),
    ("eqcol r <= 2k", lambda: coloring.equitable_coloring_vi(path_graph(6), 2), 2),
    ("eqcol r > 2k", lambda: coloring.equitable_coloring_vi(path_graph(6), 7), 2),
    ("ecp", lambda: coloring.equitable_connected_partition_vi(path_graph(14), 2), 2),
    ("mcs", lambda: common_subgraph.mcs_vi(path_graph(4), star_graph(3)), 3),
    ("mcis", lambda: common_subgraph.mcis_vi(path_graph(4), star_graph(3)), 3),
])
def test_each_solver_calls_the_ilp_through_its_own_binding(monkeypatch, name, call, binding):
    counts = [0] * len(_BINDINGS)
    for i, (module, attr) in enumerate(_BINDINGS):
        real = getattr(module, attr)

        def counting(inst, i=i, real=real):
            counts[i] += 1
            return real(inst)

        monkeypatch.setattr(module, attr, counting)
    assert call() is not None
    assert counts[binding] > 0
    assert sum(counts) == counts[binding]
