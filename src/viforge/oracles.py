"""Brute-force reference oracles and certificate verifiers.

Every oracle answers by exhaustive enumeration (orderings, injections,
subsets, orientations, partitions), or for imbalance by a dynamic program
over vertex subsets, within an explicit budget, refusing loudly when an
instance is too large.  None of this code is shared with the solver
implementations: only the graph container, its component splitting and the
oracles' own scan kernels in ``_kernels`` are imported.  Verifiers are pure
definition checks over certificates.
"""

import math
import os
from dataclasses import dataclass, replace
from itertools import combinations

from ._kernels import bandwidth_scan, imbalance_scan, mcis_scan, mcs_scan, orient_scan
from .graphs import Graph, components, edge_key, is_connected_subset, split


class OracleBudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class OracleBudget:
    max_vertices: int = 8
    max_edges: int = 10
    max_orderings: int = 40320
    max_subsets: int = 200000
    max_items: int = 12

    @classmethod
    def from_env(cls) -> "OracleBudget":
        b = cls()
        fields = {
            "max_vertices": "VIFORGE_ORACLE_MAX_VERTICES",
            "max_edges": "VIFORGE_ORACLE_MAX_EDGES",
            "max_orderings": "VIFORGE_ORACLE_MAX_ORDERINGS",
            "max_subsets": "VIFORGE_ORACLE_MAX_SUBSETS",
            "max_items": "VIFORGE_ORACLE_MAX_ITEMS",
        }
        overrides = {}
        for attr, var in fields.items():
            raw = os.environ.get(var)
            if raw:
                overrides[attr] = int(raw)
        return replace(b, **overrides) if overrides else b


def _resolve(budget) -> OracleBudget:
    return budget if budget is not None else OracleBudget.from_env()


def _need(cond: bool, what: str):
    if not cond:
        raise OracleBudgetExceeded(f"oracle budget exceeded: {what}")


def _check_graph(g: Graph, budget: OracleBudget, orderings=False):
    _need(g.n <= budget.max_vertices, f"{g.n} vertices > {budget.max_vertices}")
    if orderings:
        _need(math.factorial(g.n) <= budget.max_orderings,
              f"{g.n}! orderings > {budget.max_orderings}")


def _adj_matrix(g: Graph) -> list:
    adj = [[0] * g.n for _ in range(g.n)]
    for (u, v) in g.edges:
        adj[u][v] = adj[v][u] = 1
    return adj


def _subsets_by_size(items):
    items = sorted(items)
    for r in range(len(items) + 1):
        yield from combinations(items, r)


# ---------------------------------------------------------------- parameters

def oracle_vertex_integrity(g: Graph, budget=None):
    """(vi(G), first deletion set attaining it) by scanning all subsets."""
    budget = _resolve(budget)
    _check_graph(g, budget)
    if g.n == 0:
        return 0, []
    best = None
    witness = None
    for sub in _subsets_by_size(range(g.n)):
        comps = components(g, set(sub))
        worst = max((len(c) for c in comps), default=0)
        val = len(sub) + worst
        if best is None or val < best:
            best = val
            witness = list(sub)
    return best, witness


def oracle_treedepth(g: Graph, budget=None) -> int:
    """Treedepth by the recursive definition, memoised over vertex sets."""
    budget = _resolve(budget)
    _check_graph(g, budget)
    adj = g.adjacency()
    memo = {}

    def td(vs: frozenset) -> int:
        if not vs:
            return 0
        if vs in memo:
            return memo[vs]
        comps = split(adj, vs)
        if len(comps) > 1:
            got = max(td(frozenset(c)) for c in comps)
        elif len(vs) == 1:
            got = 1
        else:
            got = 1 + min(td(vs - {v}) for v in sorted(vs))
        memo[vs] = got
        return got

    return td(frozenset(range(g.n)))


def oracle_vertex_cover(g: Graph, budget=None):
    """Minimum vertex cover, first witness in (size, lex) subset order."""
    budget = _resolve(budget)
    _check_graph(g, budget)
    for sub in _subsets_by_size(range(g.n)):
        s = set(sub)
        if all(u in s or v in s for (u, v) in g.edges):
            return list(sub)
    raise AssertionError


# ------------------------------------------------------------ ordering costs

def oracle_imbalance(g: Graph, budget=None):
    """(minimum total imbalance, lexicographically first optimal ordering).
    The ordering budget still applies, so the oracle refuses what a scan
    of all orderings would refuse."""
    budget = _resolve(budget)
    _check_graph(g, budget, orderings=True)
    return imbalance_scan(g.adjacency())


def oracle_bandwidth(g: Graph, budget=None):
    """(minimum bandwidth, first optimal ordering)."""
    budget = _resolve(budget)
    _check_graph(g, budget, orderings=True)
    return bandwidth_scan(sorted(g.edges), g.n)


# --------------------------------------------------------- common subgraphs

def oracle_mcs(g1: Graph, g2: Graph, budget=None):
    """Max common subgraph by edges: scan all injections of the smaller
    vertex set into the larger.  Returns (edge count, mapping g1 -> g2)."""
    budget = _resolve(budget)
    _check_graph(g1, budget, orderings=True)
    _check_graph(g2, budget, orderings=True)
    swap = g1.n > g2.n
    a, b = (g2, g1) if swap else (g1, g2)
    if a.n == 0:
        return 0, {}
    val, inj = mcs_scan(sorted(a.edges), _adj_matrix(b), a.n)
    mapping = {x: u for u, x in enumerate(inj)} if swap else dict(enumerate(inj))
    return val, mapping


def oracle_mcis(g1: Graph, g2: Graph, budget=None):
    """Max common induced subgraph by vertices, via depth-first search over
    partial injections.  Returns (vertex count, mapping g1 -> g2)."""
    budget = _resolve(budget)
    _check_graph(g1, budget, orderings=True)
    _check_graph(g2, budget, orderings=True)
    swap = g1.n > g2.n
    a, b = (g2, g1) if swap else (g1, g2)
    if a.n == 0:
        return 0, {}
    val, arr = mcis_scan(_adj_matrix(a), _adj_matrix(b))
    inj = {u: x for u, x in enumerate(arr) if x >= 0}
    mapping = {x: u for u, x in inj.items()} if swap else inj
    return val, mapping


# ------------------------------------------------------- capacitated covers

def oracle_cvc(g: Graph, budget=None):
    """Minimum capacitated vertex cover: (size, cover, edge assignment),
    or None when no capacity-respecting cover exists."""
    budget = _resolve(budget)
    _check_graph(g, budget)
    if g.capacities is None:
        raise ValueError("cvc needs capacities")
    edges = sorted(g.edges)

    def assign(idx, load, cover):
        if idx == len(edges):
            return {}
        (u, v) = edges[idx]
        for w in (u, v):
            if w in cover and load[w] < g.capacities[w]:
                load[w] += 1
                rest = assign(idx + 1, load, cover)
                load[w] -= 1
                if rest is not None:
                    rest[(u, v)] = w
                    return rest
        return None

    for sub in _subsets_by_size(range(g.n)):
        s = set(sub)
        if not all(u in s or v in s for (u, v) in g.edges):
            continue
        got = assign(0, {v: 0 for v in sub}, s)
        if got is not None:
            return len(sub), list(sub), got
    return None


def oracle_cds(g: Graph, budget=None):
    """Minimum capacitated dominating set: (size, set, dominator map),
    or None."""
    budget = _resolve(budget)
    _check_graph(g, budget)
    if g.capacities is None:
        raise ValueError("cds needs capacities")
    adj = g.adjacency()

    for sub in _subsets_by_size(range(g.n)):
        s = set(sub)
        outside = [v for v in range(g.n) if v not in s]
        if any(not (adj[v] & s) for v in outside):
            continue

        def assign(idx, load):
            if idx == len(outside):
                return {}
            v = outside[idx]
            for d in sorted(adj[v] & s):
                if load[d] < g.capacities[d]:
                    load[d] += 1
                    rest = assign(idx + 1, load)
                    load[d] -= 1
                    if rest is not None:
                        rest[v] = d
                        return rest
            return None

        got = assign(0, {v: 0 for v in sub})
        if got is not None:
            return len(sub), list(sub), got
    return None


# ------------------------------------------------------------------ coloring

def oracle_precoloring(g: Graph, precolor: dict, r: int, budget=None):
    """Extend a partial proper coloring to all of g with colors 1..r, or
    None.  Only a bounded palette matters: the used precolors plus at most
    n fresh colors."""
    budget = _resolve(budget)
    _check_graph(g, budget)
    for v, c in precolor.items():
        if not (0 <= v < g.n) or not (1 <= c <= r):
            raise ValueError("bad precoloring entry")
    adj = g.adjacency()
    used = sorted(set(precolor.values()))
    palette = list(used)
    fresh = 1
    while len(palette) < len(used) + g.n and fresh <= r:
        if fresh not in precolor.values():
            palette.append(fresh)
        fresh += 1
    palette = sorted(set(palette))
    coloring = dict(precolor)
    free = [v for v in range(g.n) if v not in coloring]

    def back(idx):
        if idx == len(free):
            return True
        v = free[idx]
        for c in palette:
            if all(coloring.get(w) != c for w in adj[v]):
                coloring[v] = c
                if back(idx + 1):
                    return True
                del coloring[v]
        return False

    for (u, v) in g.edges:
        if u in precolor and v in precolor and precolor[u] == precolor[v]:
            return None
    return dict(coloring) if back(0) else None


def _equitable_sizes(n: int, r: int):
    lo = n // r
    hi = lo + 1
    b = n % r
    return lo, hi, b


def oracle_eqcoloring(g: Graph, r: int, budget=None):
    """Proper coloring with class sizes floor/ceil of n/r, or None."""
    budget = _resolve(budget)
    _check_graph(g, budget)
    if r < 1:
        raise ValueError("need r >= 1")
    lo, hi, b = _equitable_sizes(g.n, r)
    adj = g.adjacency()
    count = [0] * (r + 1)
    coloring = {}

    def back(v, used):
        if v == g.n:
            bigs = sum(1 for c in range(1, r + 1) if count[c] == hi)
            exact = sum(1 for c in range(1, r + 1) if count[c] in (lo, hi))
            return bigs == b and exact == r
        limit = min(r, used + 1)
        for c in range(1, limit + 1):
            if count[c] >= hi or (hi == lo and count[c] >= lo):
                continue
            if any(coloring.get(w) == c for w in adj[v]):
                continue
            count[c] += 1
            coloring[v] = c
            if back(v + 1, max(used, c)):
                return True
            count[c] -= 1
            del coloring[v]
        return False

    if back(0, 0):
        return dict(coloring)
    return None


def oracle_ecp(g: Graph, r: int, budget=None):
    """Partition into r connected classes with near-equal sizes, or None."""
    budget = _resolve(budget)
    _check_graph(g, budget)
    if r < 1:
        raise ValueError("need r >= 1")
    lo, hi, b = _equitable_sizes(g.n, r)
    parts = []

    def back(v):
        if v == g.n:
            if len(parts) > r:
                return False
            sizes = [len(p) for p in parts] + [0] * (r - len(parts))
            bigs = sum(1 for s in sizes if s == hi)
            if not all(s in (lo, hi) for s in sizes):
                return False
            if hi != lo and bigs != b:
                return False
            return all(is_connected_subset(g, p) for p in parts)
        for p in parts:
            if len(p) < hi:
                p.append(v)
                if back(v + 1):
                    return True
                p.pop()
        if len(parts) < r:
            parts.append([v])
            if back(v + 1):
                return True
            parts.pop()
        return False

    if back(0):
        out = [sorted(p) for p in parts]
        out += [[] for _ in range(r - len(out))]
        return out
    return None


# ----------------------------------------------------------------- motif

def _connected_sets_of_size(g: Graph, size: int, budget: OracleBudget):
    """Every connected vertex set of the given size exactly once (grown from
    its minimum vertex), with a budget on enumerated sets."""
    adj = g.adjacency()
    seen_count = 0
    if size == 0:
        yield frozenset()
        return

    def grow(cur, ext, banned, seed):
        nonlocal seen_count
        if len(cur) == size:
            seen_count += 1
            _need(seen_count <= budget.max_subsets,
                  f"more than {budget.max_subsets} connected sets")
            yield frozenset(cur)
            return
        ext = list(ext)
        local_ban = set(banned)
        while ext:
            u = ext.pop(0)
            if u in local_ban:
                continue
            new_ext = sorted(set(ext) | {w for w in adj[u] if w > seed and w not in cur and w not in local_ban and w != u})
            yield from grow(cur | {u}, new_ext, set(local_ban), seed)
            local_ban.add(u)

    for seed in range(g.n):
        yield from grow({seed}, sorted(w for w in adj[seed] if w > seed), set(), seed)


def oracle_motif(g: Graph, motif: dict, budget=None):
    """First connected vertex set whose color multiset equals the motif,
    or None.  Enumerates connected sets of the right size."""
    budget = _resolve(budget)
    if g.colors is None:
        raise ValueError("motif needs vertex colors")
    size = sum(motif.values())
    if any(k < 0 for k in motif.values()):
        raise ValueError("motif counts must be non-negative")
    if size == 0:
        return []
    want = {c: k for c, k in motif.items() if k > 0}
    for vs in _connected_sets_of_size(g, size, budget):
        got = {}
        for v in vs:
            got[g.colors[v]] = got.get(g.colors[v], 0) + 1
        if got == want:
            return sorted(vs)
    return None


# ------------------------------------------------------------- orientations

def oracle_mmoo(g: Graph, r: int, budget=None):
    """Orientation with every weighted outdegree <= r, or None.  Complete
    branch-and-prune search over edge orientations, heaviest edges first."""
    budget = _resolve(budget)
    if g.weights is None:
        raise ValueError("mmoo needs edge weights")
    _need(g.m <= max(budget.max_edges, 0), f"{g.m} edges > {budget.max_edges}")
    es = sorted(g.edges, key=lambda e: (-g.weights[e], e))
    found, orient = orient_scan(es, [g.weights[e] for e in es], g.n, r)
    if not found:
        return None
    out = {}
    for i, e in enumerate(es):
        out[e] = (e[0], e[1]) if orient[i] == 1 else (e[1], e[0])
    return out


# ------------------------------------------------------------ steiner forest

def oracle_steiner_forest(g: Graph, terminals, budget=None):
    """(minimum weight, edge set) connecting each terminal set inside one
    component, by scanning all edge subsets; None when impossible."""
    budget = _resolve(budget)
    _need(g.m <= budget.max_edges, f"{g.m} edges > {budget.max_edges}")
    if g.weights is None:
        raise ValueError("steiner forest needs edge weights")
    for tset in terminals:
        for t in tset:
            if not (0 <= t < g.n):
                raise ValueError("terminal out of range")
    es = sorted(g.edges)
    best = None
    best_set = None
    for mask in range(1 << len(es)):
        chosen = [es[i] for i in range(len(es)) if mask >> i & 1]
        wsum = sum(g.weights[e] for e in chosen)
        if best is not None and wsum >= best:
            continue
        if _forest_connects(g.n, chosen, terminals):
            best = wsum
            best_set = chosen
    if best is None:
        return None
    return best, sorted(best_set)


def _forest_connects(n, chosen, terminals) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v) in chosen:
        parent[find(u)] = find(v)
    for tset in terminals:
        ts = list(tset)
        if ts and any(find(t) != find(ts[0]) for t in ts):
            return False
    return True


def oracle_usf(g: Graph, terminals, budget=None):
    """Unit-weight steiner forest: (edge count, edge set) or None."""
    unit = Graph(g.n, set(g.edges), weights={e: 1 for e in g.edges})
    return oracle_steiner_forest(unit, terminals, budget)


# ------------------------------------------------------- numeric problems

def oracle_bin_packing(items, t: int, budget=None):
    """Pack items into t bins of capacity sum/t (exact fill), or None."""
    budget = _resolve(budget)
    _need(len(items) <= budget.max_items, f"{len(items)} items > {budget.max_items}")
    if t < 1 or any(a <= 0 for a in items):
        raise ValueError("need t >= 1 and positive items")
    total = sum(items)
    if total % t != 0:
        return None
    cap = total // t
    order = sorted(range(len(items)), key=lambda i: (-items[i], i))
    bins = []

    def back(idx):
        if idx == len(order):
            return len(bins) <= t
        i = order[idx]
        for b in bins:
            if b[0] + items[i] <= cap:
                b[0] += items[i]
                b[1].append(i)
                if back(idx + 1):
                    return True
                b[0] -= items[i]
                b[1].pop()
        if len(bins) < t:
            bins.append([items[i], [i]])
            if back(idx + 1):
                return True
            bins.pop()
        return False

    if back(0):
        out = [sorted(b[1]) for b in bins]
        out += [[] for _ in range(t - len(out))]
        return out
    return None


def oracle_partition(items, balanced=False, budget=None):
    """Subset with half the total sum (and half the items when balanced),
    or None."""
    budget = _resolve(budget)
    _need(len(items) <= budget.max_items, f"{len(items)} items > {budget.max_items}")
    n = len(items)
    total = sum(items)
    if total % 2 != 0:
        return None
    if balanced and n % 2 != 0:
        return None
    half = total // 2
    for mask in range(1 << max(n - 1, 0)):
        side = [0] + [i for i in range(1, n) if mask >> (i - 1) & 1] if n else []
        if sum(items[i] for i in side) != half:
            continue
        if balanced and len(side) != n // 2:
            continue
        return side
    return None


def oracle_3dm(n: int, triples, budget=None):
    """Perfect 3-dimensional matching: n disjoint triples covering
    {0..n-1}^3 coordinates, or None."""
    budget = _resolve(budget)
    triples = [tuple(t) for t in triples]
    for (x, y, z) in triples:
        if not (0 <= x < n and 0 <= y < n and 0 <= z < n):
            raise ValueError("triple coordinate out of range")
    if n == 0:
        return []
    count = math.comb(len(triples), n) if len(triples) >= n else 0
    _need(count <= budget.max_subsets, f"{count} candidate matchings > {budget.max_subsets}")
    for chosen in combinations(range(len(triples)), n):
        xs = {triples[i][0] for i in chosen}
        ys = {triples[i][1] for i in chosen}
        zs = {triples[i][2] for i in chosen}
        if len(xs) == len(ys) == len(zs) == n:
            return [triples[i] for i in chosen]
    return None


# ------------------------------------------------------------------ verify

def verify_vi_set(g: Graph, separator, k: int) -> bool:
    s = set(separator)
    if len(s) != len(list(separator)) or not all(0 <= v < g.n for v in s):
        return False
    return len(s) <= k and all(len(s) + len(c) <= k for c in components(g, s))


def _is_permutation(g: Graph, ordering) -> bool:
    return sorted(ordering) == list(range(g.n))


def imbalance_of_ordering(g: Graph, ordering) -> int:
    if not _is_permutation(g, ordering):
        raise ValueError("ordering must be a permutation of the vertices")
    pos = {v: i for i, v in enumerate(ordering)}
    total = 0
    for v in range(g.n):
        left = sum(1 for w in g.neighbors(v) if pos[w] < pos[v])
        right = len(g.neighbors(v)) - left
        total += abs(left - right)
    return total


def verify_imbalance(g: Graph, ordering, value: int) -> bool:
    try:
        return imbalance_of_ordering(g, ordering) == value
    except ValueError:
        return False


def verify_bandwidth(g: Graph, ordering, value: int) -> bool:
    if not _is_permutation(g, ordering):
        return False
    pos = {v: i for i, v in enumerate(ordering)}
    width = max((abs(pos[u] - pos[v]) for (u, v) in g.edges), default=0)
    return width == value


def verify_mcs(g1: Graph, g2: Graph, mapping: dict, value: int) -> bool:
    if len(set(mapping.values())) != len(mapping):
        return False
    if not all(0 <= u < g1.n and 0 <= x < g2.n for u, x in mapping.items()):
        return False
    hit = sum(
        1
        for (u, v) in g1.edges
        if u in mapping and v in mapping and g2.has_edge(mapping[u], mapping[v])
    )
    return hit == value


def verify_mcis(g1: Graph, g2: Graph, mapping: dict, value: int) -> bool:
    if len(mapping) != value or len(set(mapping.values())) != len(mapping):
        return False
    if not all(0 <= u < g1.n and 0 <= x < g2.n for u, x in mapping.items()):
        return False
    items = sorted(mapping.items())
    for i, (u, x) in enumerate(items):
        for (v, y) in items[i + 1:]:
            if g1.has_edge(u, v) != g2.has_edge(x, y):
                return False
    return True


def verify_cvc(g: Graph, cover, assignment: dict) -> bool:
    if g.capacities is None:
        return False
    s = set(cover)
    if not all(0 <= v < g.n for v in s):
        return False
    load = {v: 0 for v in s}
    for e in g.edges:
        w = assignment.get(edge_key(*e))
        if w is None or w not in s or w not in e:
            return False
        load[w] += 1
    return all(load[v] <= g.capacities[v] for v in s)


def verify_cds(g: Graph, dset, assignment: dict) -> bool:
    if g.capacities is None:
        return False
    d = set(dset)
    if not all(0 <= v < g.n for v in d):
        return False
    load = {v: 0 for v in d}
    for v in range(g.n):
        if v in d:
            continue
        dom = assignment.get(v)
        if dom is None or dom not in d or not g.has_edge(v, dom):
            return False
        load[dom] += 1
    return all(load[v] <= g.capacities[v] for v in d)


def _proper(g: Graph, coloring: dict) -> bool:
    if set(coloring) != set(range(g.n)):
        return False
    return all(coloring[u] != coloring[v] for (u, v) in g.edges)


def verify_precoloring(g: Graph, precolor: dict, r: int, coloring: dict) -> bool:
    if not _proper(g, coloring):
        return False
    if not all(1 <= c <= r for c in coloring.values()):
        return False
    return all(coloring[v] == c for v, c in precolor.items())


def verify_eqcoloring(g: Graph, r: int, coloring: dict) -> bool:
    if not _proper(g, coloring):
        return False
    if not all(1 <= c <= r for c in coloring.values()):
        return False
    lo, hi, b = _equitable_sizes(g.n, r)
    sizes = [sum(1 for v in coloring if coloring[v] == c) for c in range(1, r + 1)]
    if not all(s in (lo, hi) for s in sizes):
        return False
    return hi == lo or sum(1 for s in sizes if s == hi) == b


def verify_ecp(g: Graph, r: int, parts) -> bool:
    if len(parts) != r:
        return False
    flat = [v for p in parts for v in p]
    if sorted(flat) != list(range(g.n)):
        return False
    lo, hi, b = _equitable_sizes(g.n, r)
    sizes = [len(p) for p in parts]
    if not all(s in (lo, hi) for s in sizes):
        return False
    if hi != lo and sum(1 for s in sizes if s == hi) != b:
        return False
    return all(is_connected_subset(g, p) for p in parts)


def verify_motif(g: Graph, motif: dict, subset) -> bool:
    if g.colors is None:
        return False
    vs = list(subset)
    if len(set(vs)) != len(vs) or not all(0 <= v < g.n for v in vs):
        return False
    got = {}
    for v in vs:
        got[g.colors[v]] = got.get(g.colors[v], 0) + 1
    want = {c: k for c, k in motif.items() if k > 0}
    return got == want and is_connected_subset(g, vs)


def verify_mmoo(g: Graph, r: int, orientation: dict) -> bool:
    if g.weights is None:
        return False
    load = {v: 0 for v in range(g.n)}
    for e in g.edges:
        arc = orientation.get(edge_key(*e))
        if arc is None or set(arc) != set(e):
            return False
        load[arc[0]] += g.weights[edge_key(*e)]
    return all(load[v] <= r for v in load)


def verify_steiner_forest(g: Graph, terminals, edges, weight=None) -> bool:
    chosen = {edge_key(u, v) for (u, v) in edges}
    if not chosen <= g.edges:
        return False
    if not _forest_connects(g.n, sorted(chosen), terminals):
        return False
    if weight is not None:
        wmap = g.weights if g.weights is not None else {e: 1 for e in g.edges}
        return sum(wmap[e] for e in chosen) == weight
    return True


def verify_bin_packing(items, t: int, bins) -> bool:
    if len(bins) != t:
        return False
    flat = sorted(i for b in bins for i in b)
    if flat != list(range(len(items))):
        return False
    total = sum(items)
    return all(t * sum(items[i] for i in b) <= total for b in bins)


def verify_partition(items, side, balanced=False) -> bool:
    side = list(side)
    if len(set(side)) != len(side) or not all(0 <= i < len(items) for i in side):
        return False
    total = sum(items)
    if total % 2 or sum(items[i] for i in side) * 2 != total:
        return False
    return not balanced or len(side) * 2 == len(items)


def verify_3dm(n: int, triples, chosen) -> bool:
    chosen = [tuple(t) for t in chosen]
    if len(chosen) != n or any(t not in {tuple(x) for x in triples} for t in chosen):
        return False
    xs = {t[0] for t in chosen}
    ys = {t[1] for t in chosen}
    zs = {t[2] for t in chosen}
    return len(xs) == len(ys) == len(zs) == n
