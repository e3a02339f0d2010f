"""Capacitated vertex cover and dominating set on small-separator graphs.

Both solvers fix a separator S, guess how the solution intersects S,
and enumerate per-component behaviours.  Components of equal
capacity-aware type share their behaviour catalogue, so each behaviour
is collapsed to a cost signature (solution size inside the component
plus the loads it pushes onto separator vertices) and an integer
program (``solvers/configuration.py``) picks how many components of each
type realise each signature.  Only Pareto-minimal signatures are kept.
"""

from itertools import combinations, product

from ..graphs import anchored_isomorphic  # noqa: F401  (perfbench wraps this binding)
from ..graphs import edge_key
from ..ilp import optimize
from ..integrity import vertex_integrity
from ..typesys import classify_detailed
from .configuration import best, columns, configuration_ip, place


def _pareto(signatures, dominates):
    """Keep entries not strictly dominated by another entry."""
    keep = {}
    for sig, wit in sorted(signatures.items()):
        if any(other != sig and dominates(other, sig) for other in signatures):
            continue
        keep[sig] = wit
    return keep


# ---------------------------------------------------------------- cover


def _cvc_signatures(g, s_list, x_s, comp):
    """Cover signatures of one component under separator cover part x_s.

    Every edge inside the component or from it to the separator picks a
    receiver: a component vertex (load capped by its capacity) or an
    x_s vertex (load capped by the full capacity; the residual bound is
    applied by the integer program).  Signature: (number of loaded
    component vertices, loads on x_s in sorted order).
    """
    comp_set = set(comp)
    s_set = set(s_list)
    x_sorted = sorted(x_s)
    edges = []
    for (u, v) in sorted(g.edges):
        if u in comp_set and v in comp_set:
            edges.append((u, v))
        elif u in comp_set and v in s_set:
            edges.append((u, v))
        elif v in comp_set and u in s_set:
            edges.append((v, u))

    out = {}

    def walk(i, load_c, load_s, assign):
        if i == len(edges):
            w = tuple(v for v in sorted(load_c) if load_c[v] > 0)
            sig = (len(w), tuple(load_s[v] for v in x_sorted))
            if sig not in out:
                out[sig] = dict(assign)
            return
        u, v = edges[i]
        # u is always the component endpoint; v may take the edge when it
        # is a component vertex or an x_s vertex
        v_load = load_c if v in comp_set else load_s if v in x_s else None
        for r, load in ((u, load_c), (v, v_load)):
            if load is None or load.get(r, 0) >= g.capacities[r]:
                continue
            load[r] = load.get(r, 0) + 1
            assign[edge_key(u, v)] = r
            walk(i + 1, load_c, load_s, assign)
            load[r] -= 1
            del assign[edge_key(u, v)]

    walk(0, {}, {v: 0 for v in x_sorted}, {})

    def dominates(a, b):
        return a[0] <= b[0] and all(x <= y for x, y in zip(a[1], b[1]))

    return _pareto(out, dominates)


def _with_picks(g, groups, held, choices, catalogue):
    """Yield (picks, cols, res) for every pick from the ``choices`` lists
    whose loads on the ``held`` vertices fit their capacities; res holds
    the residual capacities.  The columns are built at the first such
    pick, and nothing is yielded when a group's catalogue is empty."""
    cols = None
    for picks in product(*choices):
        load = dict.fromkeys(held, 0)
        for v in picks:
            load[v] += 1
        if any(load[v] > g.capacities[v] for v in held):
            continue
        if cols is None:
            cols = columns(groups, catalogue)
            if cols is None:
                return
        yield picks, cols, {v: g.capacities[v] - load[v] for v in held}


def _solve_loads(s_list, groups, cols, res, rows=()):
    """Smallest total of the columns' first signature entries whose loads
    (the second entry, per vertex of sorted ``res``) fit the residual
    capacities ``res`` and meet the extra ``rows``: (value, ``place``'s
    triples), or None."""
    rows = [(tuple(sig[1][j] for _, (sig, _) in cols), "<=", res[v])
            for j, v in enumerate(sorted(res))] + list(rows)
    obj = [sig[0] for _, (sig, _) in cols]
    got = optimize(configuration_ip(groups, cols, rows, (obj, "min")))
    if got is None:
        return None
    point, value = got
    return value, place(s_list, groups, cols, point)


def cvc_vi(g):
    """Minimum capacitated vertex cover.

    Returns (size, cover, assignment) where assignment maps every edge
    to the cover vertex absorbing it, or None when no cover exists.
    Capacities must be present and at most the degree.

    A guess is the cover part x_s of S and, per edge inside S, the x_s
    endpoint that absorbs it.
    """
    g.validate()
    if g.capacities is None:
        raise ValueError("capacitated cover needs vertex capacities")
    for v in range(g.n):
        if g.capacities[v] > g.degree(v):
            raise ValueError(f"capacity of vertex {v} exceeds its degree")
    if g.n == 0:
        return 0, [], {}

    _, vis = vertex_integrity(g)
    s_list = sorted(vis.separator)
    s_set = set(s_list)
    s_edges = sorted(e for e in g.edges if e[0] in s_set and e[1] in s_set)
    groups = classify_detailed(g, s_list, mode="capacity")

    def guesses():
        for x_size in range(len(s_list) + 1):
            for x_s in combinations(s_list, x_size):
                x_set = set(x_s)
                choices = [[w for w in e if w in x_set] for e in s_edges]
                for picks, cols, res in _with_picks(g, groups, x_s, choices, lambda rep: (
                        _cvc_signatures(g, s_list, x_set, rep))):
                    yield x_s, picks, cols, res

    def solve(guess):
        x_s, picks, cols, res = guess
        got = _solve_loads(s_list, groups, cols, res)
        if got is None:
            return None
        inner, placed = got
        cover = set(x_s)
        assign = {}
        for _, phi, (_, wit) in placed:
            for (u, v), r in wit.items():
                assign[edge_key(phi[u], phi[v])] = phi[r]
                if phi[r] not in s_set:
                    cover.add(phi[r])
        assign.update({edge_key(u, v): w for (u, v), w in zip(s_edges, picks)})
        return len(x_s) + inner, sorted(cover), assign

    return best(guesses(), solve, key=lambda got: got[0])


# ------------------------------------------------------------ domination


def _cds_signatures(g, s_list, d_s, b_s, comp):
    """Domination signatures of one component.

    Chooses the dominating vertices inside the component, a dominator
    for every other component vertex (inside the component, loaded, or
    a separator dominator, recorded in the signature loads), and which
    b_s vertices this component dominates.  Signature: (dominators
    inside, loads on d_s, frozenset of dominated b_s vertices).
    """
    d_sorted = sorted(d_s)
    b_sorted = sorted(b_s)
    out = {}
    for d_size in range(len(comp) + 1):
        for d_c in combinations(comp, d_size):
            d_cset = set(d_c)
            rest = [v for v in comp if v not in d_cset]
            opts_rest = []
            for v in rest:
                opts = [("c", u) for u in sorted(g.neighbors(v) & d_cset)]
                opts += [("s", u) for u in sorted(g.neighbors(v) & d_s)]
                opts_rest.append(opts)
            if any(not o for o in opts_rest):
                continue
            opts_b = []
            for b in b_sorted:
                opts = [None] + [u for u in sorted(g.neighbors(b) & d_cset)]
                opts_b.append(opts)
            for pick_rest in product(*opts_rest):
                load_c = dict.fromkeys(d_c, 0)
                load_s = dict.fromkeys(d_sorted, 0)
                for kind, u in pick_rest:
                    (load_c if kind == "c" else load_s)[u] += 1
                if any(load_s[u] > g.capacities[u] for u in d_sorted):
                    continue
                loads = tuple(load_s[u] for u in d_sorted)
                for pick_b in product(*opts_b):
                    load_b = dict(load_c)
                    for u in pick_b:
                        if u is not None:
                            load_b[u] += 1
                    if any(load_b[u] > g.capacities[u] for u in d_c):
                        continue
                    sig = (len(d_c), loads,
                           frozenset(b for b, u in zip(b_sorted, pick_b) if u is not None))
                    if sig not in out:
                        fmap = {v: u for v, (_, u) in zip(rest, pick_rest)}
                        fmap.update((b, u) for b, u in zip(b_sorted, pick_b) if u is not None)
                        out[sig] = (set(d_c), fmap)

    def dominates(a, b):
        return a[0] <= b[0] and all(x <= y for x, y in zip(a[1], b[1])) and a[2] >= b[2]

    return _pareto(out, dominates)


def cds_vi(g):
    """Minimum capacitated dominating set.

    Returns (size, dominating set, dominator map) where the map sends
    every vertex outside the set to the neighbour dominating it, or
    None when no assignment exists.  Needs vertex capacities.

    A guess gives each separator vertex a role (dominator d_s, dominated
    inside S as a_s, or dominated by a component as b_s) and each a_s
    vertex its d_s dominator.
    """
    g.validate()
    if g.capacities is None:
        raise ValueError("capacitated domination needs vertex capacities")
    if g.n == 0:
        return 0, [], {}

    _, vis = vertex_integrity(g)
    s_list = sorted(vis.separator)
    groups = classify_detailed(g, s_list, mode="capacity")

    def guesses():
        for roles in product(range(3), repeat=len(s_list)):
            d_s = {v for v, r in zip(s_list, roles) if r == 0}
            a_s = [v for v, r in zip(s_list, roles) if r == 1]
            b_s = {v for v, r in zip(s_list, roles) if r == 2}
            choices = [sorted(g.neighbors(v) & d_s) for v in a_s]
            for picks, cols, res in _with_picks(g, groups, d_s, choices, lambda rep: (
                    _cds_signatures(g, s_list, d_s, b_s, rep))):
                yield d_s, dict(zip(a_s, picks)), b_s, cols, res

    def solve(guess):
        d_s, a_picks, b_s, cols, res = guess
        # every b_s vertex is dominated by some component
        cover_rows = [(tuple(int(b in sig[2]) for _, (sig, _) in cols), ">=", 1)
                      for b in sorted(b_s)]
        got = _solve_loads(s_list, groups, cols, res, cover_rows)
        if got is None:
            return None
        inner, placed = got
        dom = set(d_s)
        fmap = {}
        remaining = set(b_s)
        for _, phi, ((_, _, covered), (d_c, wit)) in placed:
            dom.update(phi[v] for v in d_c)
            for v, u in wit.items():
                if v in covered:
                    # separator vertex dominated by this component
                    if v in remaining:
                        remaining.discard(v)
                        fmap[v] = phi[u]
                else:
                    fmap[phi[v]] = phi[u]
        if remaining:
            raise RuntimeError("coverage constraint left separator vertices out")
        fmap.update(a_picks)
        return len(d_s) + inner, sorted(dom), fmap

    return best(guesses(), solve, key=lambda got: got[0])
