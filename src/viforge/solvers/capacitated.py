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
from .configuration import configuration_ip, place


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
        # u is always the component endpoint
        if load_c.get(u, 0) < g.capacities[u]:
            load_c[u] = load_c.get(u, 0) + 1
            assign[edge_key(u, v)] = u
            walk(i + 1, load_c, load_s, assign)
            load_c[u] -= 1
            del assign[edge_key(u, v)]
        receiver = None
        if v in comp_set and load_c.get(v, 0) < g.capacities[v]:
            receiver = ("c", v)
        elif v in x_s and load_s[v] < g.capacities[v]:
            receiver = ("s", v)
        if receiver is not None:
            kind, r = receiver
            if kind == "c":
                load_c[r] = load_c.get(r, 0) + 1
            else:
                load_s[r] += 1
            assign[edge_key(u, v)] = r
            walk(i + 1, load_c, load_s, assign)
            if kind == "c":
                load_c[r] -= 1
            else:
                load_s[r] -= 1
            del assign[edge_key(u, v)]

    walk(0, {}, {v: 0 for v in x_sorted}, {})

    def dominates(a, b):
        return a[0] <= b[0] and all(x <= y for x, y in zip(a[1], b[1]))

    return _pareto(out, dominates)


def cvc_vi(g):
    """Minimum capacitated vertex cover.

    Returns (size, cover, assignment) where assignment maps every edge
    to the cover vertex absorbing it, or None when no cover exists.
    Capacities must be present and at most the degree.
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
    s_edges = sorted(e for e in g.edges if e[0] in set(s_list) and e[1] in set(s_list))
    groups = classify_detailed(g, s_list, mode="capacity")

    best = None
    for x_size in range(len(s_list) + 1):
        for x_s in combinations(s_list, x_size):
            x_set = set(x_s)
            choice_sets = []
            for (u, v) in s_edges:
                opts = [w for w in (u, v) if w in x_set]
                choice_sets.append(opts)
            if any(not opts for opts in choice_sets):
                continue
            sig_cache = {}
            for picks in product(*choice_sets):
                load0 = {v: 0 for v in x_s}
                for w in picks:
                    load0[w] += 1
                if any(load0[v] > g.capacities[v] for v in x_s):
                    continue
                res = {v: g.capacities[v] - load0[v] for v in x_s}
                got = _cvc_solve_guess(g, s_list, groups, x_s, res, sig_cache)
                if got is None:
                    continue
                inner, cover_c, assign_c = got
                total = len(x_s) + inner
                if best is None or total < best[0]:
                    f_s = {edge_key(u, v): w for (u, v), w in zip(s_edges, picks)}
                    cover = sorted(x_set | cover_c)
                    assign = dict(assign_c)
                    assign.update(f_s)
                    best = (total, cover, assign)
    return best


def _cvc_solve_guess(g, s_list, groups, x_s, res, sig_cache):
    cols = []
    for gi, (t, comps) in enumerate(groups):
        if t.code not in sig_cache:
            sig_cache[t.code] = _cvc_signatures(g, s_list, set(x_s), comps[0])
        if not sig_cache[t.code]:
            return None
        cols += [(gi, item) for item in sorted(sig_cache[t.code].items())]
    rows = [(tuple(sig[1][j] for _, (sig, _) in cols), "<=", res[v])
            for j, v in enumerate(sorted(x_s))]
    obj = [sig[0] for _, (sig, _) in cols]
    got = optimize(configuration_ip(groups, cols, rows, (obj, "min")))
    if got is None:
        return None
    point, value = got

    s_set = set(s_list)
    cover = set()
    assign = {}
    for _, phi, (_, wit) in place(s_list, groups, cols, point):
        for (u, v), r in wit.items():
            assign[edge_key(phi[u], phi[v])] = phi[r]
            if phi[r] not in s_set:
                cover.add(phi[r])
    return value, cover, assign


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
                for pick_b in product(*opts_b):
                    load_c = {u: 0 for u in d_c}
                    load_s = {u: 0 for u in d_sorted}
                    fmap = {}
                    ok = True
                    for v, (kind, u) in zip(rest, pick_rest):
                        fmap[v] = u
                        if kind == "c":
                            load_c[u] += 1
                            if load_c[u] > g.capacities[u]:
                                ok = False
                                break
                        else:
                            load_s[u] += 1
                    if not ok:
                        continue
                    covered = []
                    for b, u in zip(b_sorted, pick_b):
                        if u is None:
                            continue
                        fmap[b] = u
                        load_c[u] += 1
                        covered.append(b)
                    if any(load_c[u] > g.capacities[u] for u in d_c):
                        continue
                    if any(load_s[u] > g.capacities[u] for u in d_sorted):
                        continue
                    sig = (
                        len(d_c),
                        tuple(load_s[u] for u in d_sorted),
                        frozenset(covered),
                    )
                    if sig not in out:
                        out[sig] = (set(d_c), dict(fmap))

    def dominates(a, b):
        return a[0] <= b[0] and all(x <= y for x, y in zip(a[1], b[1])) and a[2] >= b[2]

    return _pareto(out, dominates)


def cds_vi(g):
    """Minimum capacitated dominating set.

    Returns (size, dominating set, dominator map) where the map sends
    every vertex outside the set to the neighbour dominating it, or
    None when no assignment exists.  Needs vertex capacities.
    """
    g.validate()
    if g.capacities is None:
        raise ValueError("capacitated domination needs vertex capacities")
    if g.n == 0:
        return 0, [], {}

    _, vis = vertex_integrity(g)
    s_list = sorted(vis.separator)
    groups = classify_detailed(g, s_list, mode="capacity")

    best = None
    for roles in product(range(3), repeat=len(s_list)):
        d_s = {v for v, r in zip(s_list, roles) if r == 0}
        a_s = [v for v, r in zip(s_list, roles) if r == 1]
        b_s = {v for v, r in zip(s_list, roles) if r == 2}
        opts = [sorted(g.neighbors(v) & d_s) for v in a_s]
        if any(not o for o in opts):
            continue
        sig_cache = {}
        for picks in product(*opts):
            load0 = {u: 0 for u in d_s}
            ok = True
            for u in picks:
                load0[u] += 1
                if load0[u] > g.capacities[u]:
                    ok = False
                    break
            if not ok:
                continue
            res = {u: g.capacities[u] - load0[u] for u in d_s}
            got = _cds_solve_guess(g, s_list, groups, d_s, b_s, res, sig_cache)
            if got is None:
                continue
            inner, d_comp, fmap_comp = got
            total = len(d_s) + inner
            if best is None or total < best[0]:
                fmap = dict(fmap_comp)
                fmap.update({v: u for v, u in zip(a_s, picks)})
                best = (total, sorted(d_s | d_comp), fmap)
    return best


def _cds_solve_guess(g, s_list, groups, d_s, b_s, res, sig_cache):
    cols = []
    for gi, (t, comps) in enumerate(groups):
        if t.code not in sig_cache:
            sig_cache[t.code] = _cds_signatures(g, s_list, d_s, b_s, comps[0])
        if not sig_cache[t.code]:
            return None
        cols += [(gi, item) for item in sorted(sig_cache[t.code].items())]
    rows = [(tuple(sig[1][j] for _, (sig, _) in cols), "<=", res[u])
            for j, u in enumerate(sorted(d_s))]
    rows += [(tuple(int(b in sig[2]) for _, (sig, _) in cols), ">=", 1)
             for b in sorted(b_s)]
    obj = [sig[0] for _, (sig, _) in cols]
    got = optimize(configuration_ip(groups, cols, rows, (obj, "min")))
    if got is None:
        return None
    point, value = got

    d_comp = set()
    fmap = {}
    remaining = set(b_s)
    for _, phi, ((_, _, covered), (d_c, wit)) in place(s_list, groups, cols, point):
        d_comp.update(phi[v] for v in d_c)
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
    return value, d_comp, fmap
