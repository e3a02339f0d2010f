"""Polynomial special cases at the tractability boundary.

Graph motif for vertex integrity up to 3, binary-weight orientation for
vertex cover up to 2, Steiner forest in XP time for small covers, and a
kernel for the unit-weight variant.  The integrity/cover preconditions
are verified rather than trusted; violations raise PreconditionError.
"""

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Optional

from .flow import max_flow
from .graphs import Graph, edge_key, components, is_connected_subset
from .ilp import IlpInstance, feasible
from .integrity import cover_at_most, vi_k_set, vertex_cover_min


class PreconditionError(Exception):
    """The instance sits on the wrong side of a dichotomy boundary."""


@dataclass(frozen=True)
class MotifInstance:
    """A vertex-colored graph and a multiset of colors to realize."""

    graph: Graph
    motif: dict

    def validate(self):
        g = self.graph
        g.validate()
        if g.colors is None or any(v not in g.colors for v in range(g.n)):
            raise ValueError("every vertex needs a color")
        universe = set(g.colors.values())
        for c, cnt in self.motif.items():
            if int(cnt) < 0:
                raise ValueError("motif counts must be non-negative")
            if cnt > 0 and c not in universe:
                raise ValueError(f"motif color {c} not used in the graph")


class Orientation(dict):
    """Maps each edge key to its (tail, head) pair."""

    def outdegree(self, g: Graph, v: int) -> int:
        w = g.weights or {}
        return sum(
            w.get(e, 1) for e, (tail, _) in self.items() if tail == v
        )

    def max_outdegree(self, g: Graph) -> int:
        return max((self.outdegree(g, v) for v in range(g.n)), default=0)


@dataclass(frozen=True)
class SteinerInstance:
    """Edge-weighted graph with disjoint terminal sets of size >= 2."""

    graph: Graph
    terminals: tuple
    budget: Optional[int] = None

    def validate(self):
        g = self.graph
        g.validate()
        seen = set()
        for tset in self.terminals:
            if len(set(tset)) < 2:
                raise ValueError("terminal sets need at least two vertices")
            for t in tset:
                if not (0 <= t < g.n):
                    raise ValueError(f"terminal {t} out of range")
                if t in seen:
                    raise ValueError(f"terminal {t} in two sets")
                seen.add(t)

    def unit_weights(self) -> bool:
        return self.graph.weights is None or all(
            w == 1 for w in self.graph.weights.values()
        )


# -------------------------------------------- degree constrained subgraph


def degree_constrained_subgraph(edges, at_most, exactly):
    """Edge sub-multiset of a bipartite multigraph meeting degree bounds.

    ``edges`` are (left, right) pairs, possibly repeated.  Left vertex l
    may keep at most ``at_most[l]`` edges; right vertex r must keep
    exactly ``exactly[r]``.  Returns sorted edge indices, or None.  When
    several copies of a pair would do, the lowest indices are kept.
    """
    n_left, n_right = len(at_most), len(exactly)
    if any(x < 0 for x in at_most) or any(x < 0 for x in exactly):
        raise ValueError("degree bounds must be non-negative")
    by_pair = {}
    for idx, (l, r) in enumerate(edges):
        if not (0 <= l < n_left and 0 <= r < n_right):
            raise ValueError("edge endpoint out of range")
        by_pair.setdefault((l, r), []).append(idx)

    pairs = sorted(by_pair)
    source = n_left + n_right
    sink = source + 1
    arcs = [(source, l, at_most[l]) for l in range(n_left)]
    arcs += [(l, n_left + r, len(by_pair[(l, r)])) for (l, r) in pairs]
    arcs += [(n_left + r, sink, exactly[r]) for r in range(n_right)]
    value, flows = max_flow(sink + 1, arcs, source, sink)
    if value != sum(exactly):
        return None
    chosen = []
    for i, (l, r) in enumerate(pairs):
        take = flows[n_left + i]
        chosen.extend(by_pair[(l, r)][:take])
    return sorted(chosen)


# --------------------------------------------------------- graph motif


def graph_motif_vi3(m: MotifInstance):
    """Connected vertex set whose color multiset equals the motif, or
    None.  Requires vertex integrity at most 3."""
    m.validate()
    g = m.graph
    want = Counter({c: k for c, k in m.motif.items() if k > 0})
    vis = vi_k_set(g, 3)
    if vis is None:
        raise PreconditionError("vertex integrity exceeds 3")
    rset = sorted(vis.separator)

    total = sum(want.values())
    if total == 0:
        return []
    if len(rset) >= 2:
        return _motif_cover_fpt(g, want, rset)
    if not rset:
        return _motif_tiny_components(g, want)
    return _motif_one_center(g, want, rset[0])


def _motif_tiny_components(g, want):
    """All components have at most three vertices; scan their subsets."""
    size = sum(want.values())
    for comp in components(g, set()):
        if len(comp) < size:
            continue
        for sub in combinations(comp, size):
            if Counter(g.colors[v] for v in sub) != want:
                continue
            if is_connected_subset(g, sub):
                return sorted(sub)
    return None


def _motif_cover_fpt(g, want, cover):
    """The separator is a vertex cover; classify outside vertices by the
    cover subset they attach to and solve the count matching exactly."""
    total = sum(want.values())
    if total == 1:
        color = next(iter(want))
        for v in range(g.n):
            if g.colors[v] == color:
                return [v]
        return None
    outside = [v for v in range(g.n) if v not in set(cover)]
    options = []
    for size in range(len(cover) + 1):
        options.extend(combinations(cover, size))
    for chosen in options:
        p = list(chosen)
        need = Counter(want)
        need.subtract(Counter(g.colors[v] for v in p))
        if any(k < 0 for k in need.values()):
            continue
        need = Counter({c: k for c, k in need.items() if k > 0})
        if not need:
            if not p:
                continue
            if is_connected_subset(g, p):
                return sorted(p)
            continue
        if not p:
            continue
        classes = {}
        for v in outside:
            mask = frozenset(g.neighbors(v)) & set(p)
            if mask and need[g.colors[v]] > 0:
                classes.setdefault((tuple(sorted(mask)), g.colors[v]), []).append(v)
        masks = sorted({mask for (mask, _) in classes})
        for used_count in range(1, len(masks) + 1):
            for used in combinations(masks, used_count):
                got = _motif_pick(g, p, need, classes, used)
                if got is not None:
                    return got
    return None


def _motif_pick(g, p, need, classes, used):
    if not _quotient_connected(g, p, used):
        return None
    cols = sorted(
        (mask, color) for (mask, color) in classes if mask in set(used)
    )
    if {mask for (mask, _) in cols} != set(used):
        return None
    bounds = [(0, len(classes[c])) for c in cols]
    constraints = []
    for mask in used:
        row = tuple(1 if m == mask else 0 for (m, _) in cols)
        constraints.append((row, ">=", 1))
    for color, k in sorted(need.items()):
        row = tuple(1 if c == color else 0 for (_, c) in cols)
        constraints.append((row, "==", k))
    point = feasible(IlpInstance(tuple(bounds), tuple(constraints)))
    if point is None:
        return None
    picked = list(p)
    for c, z in zip(cols, point):
        picked.extend(classes[c][:z])
    return sorted(picked)


def _quotient_connected(g, p, used):
    """Would the cover part plus one attachment per mask be connected?"""
    parent = {v: v for v in p}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in combinations(p, 2):
        if g.has_edge(u, v):
            parent[find(u)] = find(v)
    for mask in used:
        for v in mask[1:]:
            parent[find(mask[0])] = find(v)
    roots = {find(v) for v in p}
    return len(roots) == 1


def _motif_one_center(g, want, r):
    """Distance layers around the single separator vertex r; solutions of
    three or more vertices must contain r."""
    # solutions of one or two vertices need no structure
    for v in range(g.n):
        if Counter({g.colors[v]: 1}) == want:
            return [v]
    for (u, v) in sorted(g.edges):
        if Counter((g.colors[u], g.colors[v])) == want:
            return sorted((u, v))
    if want[g.colors[r]] == 0:
        return None

    rest = Counter(want)
    rest[g.colors[r]] -= 1
    rest = Counter({c: k for c, k in rest.items() if k > 0})
    d1 = []
    mixed = []  # (d1 vertex, d2 vertex) per two-vertex component
    for comp in components(g, {r}):
        near = [v for v in comp if g.has_edge(v, r)]
        if not near:
            continue
        d1.extend(near)
        if len(comp) == 2 and len(near) == 1:
            far = next(v for v in comp if v != near[0])
            mixed.append((near[0], far))

    q = Counter(g.colors[v] for v in d1)
    lefts = sorted(rest)
    rights = sorted(c for c in rest if rest[c] > q[c])
    lidx = {c: i for i, c in enumerate(lefts)}
    ridx = {c: i for i, c in enumerate(rights)}
    h_edges = []
    h_pairs = []
    for (u, v) in sorted(mixed):
        cu, cv = g.colors[u], g.colors[v]
        if cu in lidx and cv in ridx:
            h_edges.append((lidx[cu], ridx[cv]))
            h_pairs.append((u, v))
    at_most = [rest[c] for c in lefts]
    exactly = [rest[c] - q[c] for c in rights]
    got = degree_constrained_subgraph(h_edges, at_most, exactly)
    if got is None:
        return None

    sol = {r}
    for i in got:
        sol.update(h_pairs[i])
    short = Counter(rest)
    short.subtract(Counter(g.colors[v] for v in sol if v != r))
    for color in sorted(short):
        missing = short[color]
        if missing < 0:
            raise RuntimeError("selected more of a color than the motif")
        pool = [v for v in d1 if g.colors[v] == color and v not in sol]
        if len(pool) < missing:
            raise RuntimeError("first-layer supply cannot fill the motif")
        sol.update(pool[:missing])
    if Counter(g.colors[v] for v in sol) != want:
        raise RuntimeError("lifted motif set has wrong colors")
    if not is_connected_subset(g, sol):
        raise RuntimeError("lifted motif set is disconnected")
    return sorted(sol)


# ------------------------------------------------- binary orientation


def binary_mmoo_vc2(g: Graph, r: int):
    """Orientation with weighted outdegree at most r everywhere, or None.
    Requires vertex cover number at most 2."""
    g.validate()
    if g.weights is None:
        raise ValueError("orientation needs edge weights")
    if r < 0:
        raise ValueError("outdegree bound must be non-negative")
    if cover_at_most(g.edges, 2) is None:
        raise PreconditionError("vertex cover exceeds 2")
    if any(w > r for w in g.weights.values()):
        return None

    orient = Orientation()
    live = {v: set(g.neighbors(v)) for v in range(g.n)}
    # vertices of degree at most one can always point their edge outward
    queue = sorted(v for v in live if len(live[v]) <= 1)
    gone = set()
    while queue:
        v = queue.pop(0)
        if v in gone:
            continue
        gone.add(v)
        for u in sorted(live[v]):
            orient[edge_key(v, u)] = (v, u)
            live[u].discard(v)
            if len(live[u]) <= 1 and u not in gone:
                queue.append(u)
        live[v] = set()
    remaining = [v for v in range(g.n) if v not in gone and live[v]]
    if not remaining:
        return orient

    sub = Graph(g.n, {edge_key(u, v) for u in remaining for v in live[u]})
    p, q = sorted(vertex_cover_min(sub))
    w = lambda a, b: g.weights[edge_key(a, b)]
    middle = [v for v in remaining if v not in (p, q)]
    for v in list(middle):
        if w(v, p) + w(v, q) <= r:
            orient[edge_key(v, p)] = (v, p)
            orient[edge_key(v, q)] = (v, q)
            middle.remove(v)

    heavy = lambda a, b: 2 * w(a, b) > r
    has_pq = sub.has_edge(p, q)
    guesses_p = [None] + [v for v in middle if heavy(p, v)] + (
        [q] if has_pq and heavy(p, q) else [])
    guesses_q = [None] + [v for v in middle if heavy(q, v)] + (
        [p] if has_pq and heavy(p, q) else [])
    for gp, gq in product(guesses_p, guesses_q):
        if gp == q and gq == p:
            continue
        trial = dict(orient)
        if gp is not None:
            trial[edge_key(p, gp)] = (p, gp)
        if gq is not None:
            trial[edge_key(q, gq)] = (q, gq)
        ok = True
        for v in middle:
            vp, vq = edge_key(v, p), edge_key(v, q)
            forced = {}
            if heavy(v, p) and gp != v:
                forced[vp] = (v, p)
                forced[vq] = (q, v)
            if heavy(v, q) and gq != v:
                if vq in forced and forced[vq] != (v, q):
                    ok = False
                    break
                forced[vq] = (v, q)
                forced[vp] = (p, v)
            if not ok:
                break
            trial.update(forced)
            if vp not in trial:
                trial[vp] = (v, p)
            if vq not in trial:
                trial[vq] = (v, q)
        if not ok:
            continue
        pq_options = [None]
        if has_pq and edge_key(p, q) not in trial:
            pq_options = [(p, q), (q, p)]
        for pq in pq_options:
            cand = Orientation(trial)
            if pq is not None:
                cand[edge_key(p, q)] = pq
            if len(cand) != g.m:
                raise RuntimeError("orientation misses an edge")
            if cand.max_outdegree(g) <= r:
                return cand
    return None


# -------------------------------------------------------- steiner forest


def steiner_forest_xp_vc(si: SteinerInstance):
    """(minimum weight, edge list) of a forest keeping every terminal set
    inside one component, or None when some set cannot be connected."""
    si.validate()
    g = si.graph
    if g.weights is None:
        raise ValueError("steiner forest needs edge weights")
    terminals = [sorted(set(t)) for t in si.terminals]
    if not terminals:
        return 0, []
    comp_of = {}
    for comp in components(g, set()):
        for v in comp:
            comp_of[v] = comp[0]
    for tset in terminals:
        if len({comp_of[t] for t in tset}) > 1:
            return None

    s = vertex_cover_min(g)
    outside = [v for v in range(g.n) if v not in set(s)]
    best = None
    for dsize in range(min(len(s), len(outside) + 1)):
        for d in combinations(outside, dsize):
            core = sorted(set(s) | set(d))
            core_edges = sorted(
                e for e in g.edges if e[0] in set(core) and e[1] in set(core)
            )
            for mask in range(1 << len(core_edges)):
                chosen = [core_edges[i] for i in range(len(core_edges))
                          if mask >> i & 1]
                weight = sum(g.weights[e] for e in chosen)
                if best is not None and weight >= best[0]:
                    continue
                got = _finish_forest(g, terminals, core, chosen, weight, best)
                if got is not None:
                    best = got
    if best is None:
        return None
    return best[0], sorted(best[1])


def _finish_forest(g, terminals, core, chosen, weight, best):
    parent = {v: v for v in core}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v) in chosen:
        if find(u) == find(v):
            return None  # cyclic, a forest never needs this guess
        parent[find(u)] = find(v)
    comp_ids = sorted({find(v) for v in core})
    anchored = []
    loose = []
    for i, tset in enumerate(terminals):
        inside = {find(t) for t in tset if t in parent}
        if len(inside) > 1:
            return None
        if inside:
            anchored.append((i, inside.pop()))
        else:
            loose.append(i)
    if loose and not comp_ids:
        return None

    host = {i: c for (i, c) in anchored}
    result = None
    for guess in product(comp_ids, repeat=len(loose)):
        hosts = dict(host)
        hosts.update(zip(loose, guess))
        extra = 0
        attach = []
        ok = True
        for i, tset in enumerate(terminals):
            for u in tset:
                if u in parent:
                    continue
                options = [
                    (g.weights[edge_key(u, v)], v)
                    for v in g.neighbors(u)
                    if v in parent and find(v) == hosts[i]
                ]
                if not options:
                    ok = False
                    break
                wbest, vbest = min(options)
                extra += wbest
                attach.append(edge_key(u, vbest))
            if not ok:
                break
        if not ok:
            continue
        total = weight + extra
        if (best is None or total < best[0]) and (
                result is None or total < result[0]):
            result = (total, chosen + attach)
    return result


# ----------------------------------------------- unit steiner kernel


@dataclass
class KernelTrace:
    """Replayable record of the reductions applied to an instance."""

    events: list = field(default_factory=list)


def usf_kernelize(si: SteinerInstance, cover=None):
    """Shrink a unit-weight instance with three reduction rules.

    Returns (reduced instance, budget delta, trace).  The delta counts
    edges that the removed terminals are guaranteed to need; the trace
    lets usf_solve lift a reduced solution back to the original graph.
    A vertex cover may be passed in; otherwise a minimum one is computed.
    An instance with a terminal set split across two components can never
    be satisfied, so it collapses to a fixed two-vertex witness of that.
    """
    si.validate()
    if not si.unit_weights():
        raise ValueError("kernel applies to unit weights only")
    g = Graph(si.graph.n, set(si.graph.edges))
    terminals = [sorted(set(t)) for t in si.terminals]
    if cover is None:
        cover = vertex_cover_min(g)
    else:
        cover = sorted(set(cover))
        if any(u not in set(cover) and v not in set(cover)
               for (u, v) in g.edges):
            raise ValueError("supplied set is not a vertex cover")
    s = len(cover)
    delta = 0
    trace = KernelTrace()

    comp_of = {}
    for idx, comp in enumerate(components(g)):
        for v in comp:
            comp_of[v] = idx
    if any(len({comp_of[v] for v in tset}) > 1 for tset in terminals):
        trace.events.append(("infeasible",))
        reduced = SteinerInstance(Graph(2, set()), ((0, 1),), si.budget)
        return reduced, 0, trace

    while True:
        if s >= 1 and _usf_rule1(g, terminals, cover, s, trace):
            delta += 1
            continue
        if _usf_rule2(g, terminals, cover, s, trace):
            continue
        fired, g, cover = _usf_rule3(g, terminals, cover, trace)
        if fired:
            continue
        break

    reduced = SteinerInstance(
        g, tuple(tuple(t) for t in terminals),
        None if si.budget is None else si.budget - delta)
    return reduced, delta, trace


def _usf_rule1(g, terminals, cover, s, trace):
    cov = set(cover)
    for i, tset in enumerate(terminals):
        if len(tset) < 3:
            continue
        by_nbhd = {}
        for v in tset:
            if v in cov:
                continue
            by_nbhd.setdefault(frozenset(g.neighbors(v)), []).append(v)
        for nbhd in sorted(by_nbhd, key=sorted):
            mates = by_nbhd[nbhd]
            # the survivors anchor the removed vertex, so keep at least one
            if len(mates) >= max(s, 2):
                victim = max(mates)
                terminals[i] = [v for v in tset if v != victim]
                trace.events.append((
                    "rule1", victim, sorted(g.neighbors(victim)),
                    [v for v in mates if v != victim]))
                return True
    return False


def _usf_rule2(g, terminals, cover, s, trace):
    cov = set(cover)
    profiles = {}
    for i, tset in enumerate(terminals):
        if set(tset) & cov:
            continue
        prof = Counter(frozenset(g.neighbors(v)) for v in tset)
        key = tuple(sorted((tuple(sorted(n)), c) for n, c in prof.items()))
        profiles.setdefault(key, []).append(i)
    for key in sorted(profiles):
        idxs = profiles[key]
        if len(idxs) >= max(s + 1, 2):
            i, j = idxs[0], idxs[1]
            terminals[i] = sorted(set(terminals[i]) | set(terminals[j]))
            del terminals[j]
            trace.events.append(("rule2", i, j))
            return True
    return False


def _usf_rule3(g, terminals, cover, trace):
    cov = set(cover)
    termset = set().union(*map(set, terminals)) if terminals else set()
    by_nbhd = {}
    for v in range(g.n):
        if v in cov or v in termset:
            continue
        by_nbhd.setdefault(frozenset(g.neighbors(v)), []).append(v)
    for nbhd in sorted(by_nbhd, key=sorted):
        twins = by_nbhd[nbhd]
        if len(twins) >= 2:
            victim = max(twins)
            keep = [v for v in range(g.n) if v != victim]
            old_of_new = {i: v for i, v in enumerate(keep)}
            new_of_old = {v: i for i, v in enumerate(keep)}
            g2 = Graph(g.n - 1, {
                edge_key(new_of_old[u], new_of_old[v])
                for (u, v) in g.edges if victim not in (u, v)})
            for i, tset in enumerate(terminals):
                terminals[i] = sorted(new_of_old[v] for v in tset)
            cover2 = sorted(new_of_old[v] for v in cover)
            trace.events.append(
                ("rule3", victim, tuple(old_of_new[i] for i in range(g.n - 1))))
            return True, g2, cover2
    return False, g, cover


def _edge_search(g, terminals):
    """Smallest edge set whose forest keeps each terminal set together."""
    if not terminals:
        return []
    es = sorted(g.edges)
    if not _spans(g.n, es, terminals):
        return None
    for size in range(len(es) + 1):
        for chosen in combinations(es, size):
            if _spans(g.n, chosen, terminals):
                return list(chosen)
    return None


def _spans(n, edges, terminals):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v) in edges:
        parent[find(u)] = find(v)
    return all(len({find(t) for t in tset}) == 1 for tset in terminals)


def usf_solve(si: SteinerInstance):
    """(edge count, edge list) of a minimum unit-weight forest, or None."""
    reduced, delta, trace = usf_kernelize(si)
    edges = _edge_search(reduced.graph, [set(t) for t in reduced.terminals])
    if edges is None:
        return None
    edges = list(edges)
    for event in reversed(trace.events):
        if event[0] == "rule3":
            _, _, old_of_new = event
            edges = [edge_key(old_of_new[u], old_of_new[v]) for (u, v) in edges]
        elif event[0] == "rule1":
            _, victim, nbhd, partners = event
            comp = _forest_component(edges, partners[0])
            hooks = [v for v in nbhd if v in comp]
            if not hooks:
                raise RuntimeError("removed terminal found no anchor")
            edges.append(edge_key(victim, hooks[0]))
    return len(edges), sorted(edges)


def _forest_component(edges, start):
    reach = {start}
    grew = True
    while grew:
        grew = False
        for (u, v) in edges:
            if (u in reach) != (v in reach):
                reach.update((u, v))
                grew = True
    return reach
