"""Colouring problems on graphs with a small separator.

Three solvers share the same skeleton: fix a separator S, guess the
solution's behaviour on S, and handle the components of G - S either
by direct backtracking (precolouring extension) or by collapsing
per-component choices to count vectors matched up with an integer
program (the equitable variants; see ``solvers/configuration.py``).
"""

from itertools import combinations, product
from math import ceil

from ..graphs import anchored_isomorphic  # noqa: F401  (perfbench wraps this binding)
from ..graphs import components, is_connected_subset
from ..ilp import IlpInstance, feasible
from ..integrity import vertex_integrity
from ..typesys import classify_detailed, component_map, labelled_code
from .configuration import configuration_ip, place


# ------------------------------------------------------- precolouring


def _extend_component(g, comp, lists, col):
    """Backtracking list colouring of one component given fixed neighbours."""
    order = sorted(comp)

    def walk(i):
        if i == len(order):
            return True
        v = order[i]
        for c in lists[v]:
            if any(col.get(u) == c for u in g.neighbors(v)):
                continue
            col[v] = c
            if walk(i + 1):
                return True
            del col[v]
        return False

    return walk(0)


def precoloring_extension_vi(g, precolored, r):
    """Proper colouring with colours 1..r extending ``precolored``.

    Returns a full colouring dict or None.  Precoloured vertices keep
    their colour; a precolour above r makes the instance infeasible.
    """
    g.validate()
    if r < 0:
        raise ValueError("number of colours must be non-negative")
    for v, c in precolored.items():
        if not (0 <= v < g.n):
            raise ValueError(f"precoloured vertex {v} out of range")
        if int(c) < 1:
            raise ValueError("colours are positive integers")
    if any(c > r for c in precolored.values()):
        return None
    for (u, v) in g.edges:
        if u in precolored and v in precolored and precolored[u] == precolored[v]:
            return None
    if g.n == 0:
        return {}

    k, vis = vertex_integrity(g)
    s_set = set(vis.separator)
    u_set = set(precolored)

    lists = {}
    for v in range(g.n):
        if v in u_set:
            continue
        forb = {precolored[u] for u in g.neighbors(v) if u in u_set}
        top = r if v in s_set else min(r, k)
        lists[v] = [c for c in range(1, top + 1) if c not in forb]

    # separator vertices with many allowed colours can always be coloured
    # last: fewer than 2k colours are ever blocked around them
    dropped = [v for v in sorted(s_set) if v not in u_set and len(lists[v]) >= 2 * k]
    alive = [v for v in sorted(s_set) if v not in u_set and v not in set(dropped)]
    removed = u_set | set(dropped)
    comps = components(g, removed | set(alive))

    for picks in product(*[lists[v] for v in alive]):
        col = dict(zip(alive, picks))
        if any(
            g.has_edge(a, b) and col[a] == col[b]
            for i, a in enumerate(alive)
            for b in alive[i + 1:]
        ):
            continue
        ok = True
        for comp in comps:
            if not _extend_component(g, comp, lists, col):
                ok = False
                break
        if not ok:
            continue
        col.update(precolored)
        for v in reversed(dropped):
            taken = {col[u] for u in g.neighbors(v) if u in col}
            free = [c for c in lists[v] if c not in taken]
            if not free:
                raise RuntimeError("delayed separator vertex ran out of colours")
            col[v] = free[0]
        return col
    return None


# -------------------------------------------------- equitable colouring


def _class_targets(n, r, big):
    lo = n // r
    return [lo + 1 if i < big else lo for i in range(r)]


def _eqcol_vectors(g, s_list, assign, comp, classes, free_class):
    """Count vectors of proper class assignments for one component.

    ``assign`` maps separator vertices to their class; ``classes`` are
    the class labels a component vertex may take, ``free_class`` an
    optional extra label without any constraint (vertices deferred to
    the spare colours).  Returns {vector: witness μ}.
    """
    comp = sorted(comp)
    out = {}
    labels = list(classes) + ([free_class] if free_class is not None else [])
    for mu in product(labels, repeat=len(comp)):
        ok = True
        for v, c in zip(comp, mu):
            if free_class is not None and c == free_class:
                continue
            for u in g.neighbors(v):
                if u in assign and assign[u] == c:
                    ok = False
                    break
                if u in set(comp) and mu[comp.index(u)] == c:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        vec = tuple(sum(1 for c in mu if c == cls) for cls in classes)
        if vec not in out:
            out[vec] = dict(zip(comp, mu))
    return out


def _eqcol_classes(g, s_list, groups, cols, rhs):
    """Per-vertex classes of the components, taking per-type vector
    multiplicities that meet the class counts ``rhs``, or None."""
    rows = [(tuple(vec[j] for _, (vec, _) in cols), "==", x) for j, x in enumerate(rhs)]
    point = feasible(configuration_ip(groups, cols, rows))
    if point is None:
        return None
    out = {}
    for _, phi, (_, wit) in place(g, s_list, groups, cols, point, "plain"):
        out.update({phi[v]: c for v, c in wit.items()})
    return out


def equitable_coloring_vi(g, r):
    """Proper colouring with colours 1..r whose class sizes differ by at
    most one, or None."""
    g.validate()
    if r < 1:
        raise ValueError("need at least one colour")
    n = g.n
    if n == 0:
        return {}
    k, vis = vertex_integrity(g)
    s_list = sorted(vis.separator)
    b = n % r
    groups = classify_detailed(g, s_list)

    if r <= 2 * k:
        targets = _class_targets(n, r, b)
        for picks in product(range(1, r + 1), repeat=len(s_list)):
            assign = dict(zip(s_list, picks))
            if any(
                g.has_edge(u, v) and assign[u] == assign[v]
                for i, u in enumerate(s_list)
                for v in s_list[i + 1:]
            ):
                continue
            rhs = [
                targets[i] - sum(1 for v in s_list if assign[v] == i + 1)
                for i in range(r)
            ]
            if any(x < 0 for x in rhs):
                continue
            cols = [(gi, item) for gi, (_, cs) in enumerate(groups) for item in
                    sorted(_eqcol_vectors(g, s_list, assign, cs[0], range(1, r + 1), None).items())]
            classed = _eqcol_classes(g, s_list, groups, cols, rhs)
            if classed is None:
                continue
            col = dict(assign)
            col.update(classed)
            return col
        return None

    # more colours than twice the separator budget: only colours 1..k may
    # touch the separator, the rest are filled round-robin at the end
    spare = r - k
    for picks in product(range(1, k + 1), repeat=len(s_list)):
        assign = dict(zip(s_list, picks))
        if any(
            g.has_edge(u, v) and assign[u] == assign[v]
            for i, u in enumerate(s_list)
            for v in s_list[i + 1:]
        ):
            continue
        cols = [(gi, item) for gi, (_, cs) in enumerate(groups) for item in
                sorted(_eqcol_vectors(g, s_list, assign, cs[0], range(1, k + 1), 0).items())]
        for big in range(max(0, b - spare), min(k, b) + 1):
            targets = _class_targets(n, r, 0)
            head = [n // r + (1 if i < big else 0) for i in range(k)]
            rhs = [
                head[i] - sum(1 for v in s_list if assign[v] == i + 1)
                for i in range(k)
            ]
            if any(x < 0 for x in rhs):
                continue
            classed = _eqcol_classes(g, s_list, groups, cols, rhs)
            if classed is None:
                continue
            col = dict(assign)
            leftovers = []
            for comp in components(g, set(s_list)):
                leftovers.extend(v for v in comp if classed.get(v, 0) == 0)
            col.update({v: c for v, c in classed.items() if c != 0})
            for i, v in enumerate(leftovers):
                col[v] = k + 1 + (i % spare)
            _check_equitable(g, r, col)
            return col
    return None


def _check_equitable(g, r, col):
    sizes = [0] * r
    for v in range(g.n):
        sizes[col[v] - 1] += 1
    lo = g.n // r
    big = g.n % r
    if sorted(sizes, reverse=True) != [lo + 1] * big + [lo] * (r - big):
        raise RuntimeError("colour classes are not balanced")
    for (u, v) in g.edges:
        if col[u] == col[v]:
            raise RuntimeError("colouring is not proper")


# ------------------------------------- equitable connected partition


def _connected_sets(g, allowed, size, anchor=None, meets=None):
    """Connected subsets of ``allowed`` with ``size`` vertices; each must
    contain ``anchor`` (when given) and intersect ``meets`` (when given)."""
    out = []
    pool = sorted(allowed)
    for pick in combinations(pool, size):
        if anchor is not None and anchor not in pick:
            continue
        if meets is not None and not (set(pick) & meets):
            continue
        if is_connected_subset(g, pick):
            out.append(set(pick))
    return out


def _sized_partition(g, region, sizes):
    """Partition of ``region`` into connected parts of the given sizes,
    or None.  ``sizes`` is a descending list."""
    region = set(region)
    if not region:
        return [] if not sizes else None
    if not sizes:
        return None
    v = min(region)
    tried = set()
    for i, s in enumerate(sizes):
        if s in tried:
            continue
        tried.add(s)
        rest_sizes = sizes[:i] + sizes[i + 1:]
        for part in _connected_sets(g, region, s, anchor=v):
            sub = _sized_partition(g, region - part, rest_sizes)
            if sub is not None:
                return [(s, part)] + sub
    return None


def _ecp_small(g, r):
    """Exhaustive search used when parts are no larger than the separator
    budget: grow the part containing the smallest unassigned vertex."""
    n = g.n
    lo, big = n // r, n % r
    sizes = [lo + 1] * big + [lo] * (r - big)
    got = _sized_partition(g, range(n), sizes)
    if got is None:
        return None
    bigs = sorted((sorted(p) for (s, p) in got if s == lo + 1))
    smalls = sorted((sorted(p) for (s, p) in got if s == lo))
    return bigs + smalls


def _ecp_separator_parts(g, s_list, sizes):
    """All ways to pick disjoint connected parts of the given sizes, each
    meeting the separator; equal sizes are kept in min-vertex order."""
    s_set = set(s_list)

    def walk(i, used, acc):
        if i == len(sizes):
            if s_set <= used:
                yield list(acc)
            return
        allowed = set(range(g.n)) - used
        for part in _connected_sets(g, allowed, sizes[i], meets=s_set - used):
            if i > 0 and sizes[i - 1] == sizes[i] and min(part) < min(acc[-1]):
                continue
            acc.append(part)
            yield from walk(i + 1, used | part, acc)
            acc.pop()

    yield from walk(0, set(), [])


def equitable_connected_partition_vi(g, r):
    """Partition into r connected parts with sizes differing by at most
    one, ordered large parts first, or None."""
    g.validate()
    if r < 1:
        raise ValueError("need at least one part")
    n = g.n
    if r > n:
        return [[v] for v in range(n)] + [[] for _ in range(r - n)]
    k, vis = vertex_integrity(g)
    s_list = sorted(vis.separator)
    hi, lo, b = ceil(n / r), n // r, n % r

    if r <= k:
        if lo <= k:
            return _ecp_small(g, r)
        return _ecp_case1(g, r, s_list, hi, lo, b)
    return _ecp_case2(g, r, s_list, hi, lo, b)


def _ecp_case1(g, r, s_list, hi, lo, b):
    # every part is larger than any component, so each part meets the
    # separator and r cannot exceed its size
    if r > len(s_list):
        return None
    groups = classify_detailed(g, s_list)
    targets = [hi] * b + [lo] * (r - b)

    mu_lists = []
    for (t, comps) in groups:
        rep = comps[0]
        seen = {}
        for labels in product(range(1, r + 1), repeat=len(rep)):
            mu = dict(zip(rep, labels))
            code = labelled_code(g, s_list, rep, mu)
            if code not in seen:
                seen[code] = mu
        mu_lists.append([mu for (_, mu) in sorted(seen.items())])

    for picks in product(range(1, r + 1), repeat=len(s_list)):
        assign = dict(zip(s_list, picks))
        s_classes = [{v for v in s_list if assign[v] == i + 1} for i in range(r)]
        if any(not c for c in s_classes):
            continue
        per_type_choices = []
        for (t, comps), mus in zip(groups, mu_lists):
            opts = []
            for take in range(1, min(len(comps), len(mus)) + 1):
                opts.extend(combinations(range(len(mus)), take))
            per_type_choices.append(opts)
        for combo in product(*per_type_choices):
            got = _ecp_try_representation(
                g, s_list, groups, mu_lists, combo, s_classes, targets
            )
            if got is not None:
                return got
    return None


def _ecp_try_representation(g, s_list, groups, mu_lists, combo, s_classes, targets):
    r = len(s_classes)
    # connectivity check on distinct concrete components per chosen pair
    chunks = [set(c) for c in s_classes]
    for (t, comps), mus, chosen in zip(groups, mu_lists, combo):
        for slot, mi in enumerate(chosen):
            phi = component_map(g, s_list, comps[0], comps[slot], "plain")
            for v, c in mus[mi].items():
                chunks[c - 1].add(phi[v])
    if any(not is_connected_subset(g, chunk) for chunk in chunks):
        return None

    cols = [(gi, mu_lists[gi][mi]) for gi, chosen in enumerate(combo) for mi in chosen]
    # every chosen labelling is used at least once, so bounds start at 1
    bounds = [(1, len(groups[gi][1])) for gi, _ in cols]
    constraints = [(tuple(int(c == gi) for c, _ in cols), "==", len(comps))
                   for gi, (_, comps) in enumerate(groups)]
    for i in range(r):
        row = [sum(1 for c in mu.values() if c == i + 1) for _, mu in cols]
        constraints.append((tuple(row), "==", targets[i] - len(s_classes[i])))
    point = feasible(IlpInstance(tuple(bounds), tuple(constraints)))
    if point is None:
        return None

    parts = [set(c) for c in s_classes]
    for _, phi, mu in place(g, s_list, groups, cols, point, "plain"):
        for v, c in mu.items():
            parts[c - 1].add(phi[v])
    return [sorted(p) for p in parts]


def _ecp_case2(g, r, s_list, hi, lo, b):
    for touching in range(min(len(s_list), r) + 1):
        for big in range(0, min(touching, b) + 1):
            if b - big > r - touching:
                continue
            sizes = [hi] * big + [lo] * (touching - big)
            if s_list and touching == 0:
                continue
            for s_parts in _ecp_separator_parts(g, s_list, sizes):
                w = set().union(*s_parts) if s_parts else set()
                comp_opts = []
                feasible_all = True
                for comp in components(g, w):
                    opts = []
                    for p in range(len(comp) // hi + 1):
                        rem = len(comp) - p * hi
                        if rem < 0:
                            continue
                        if lo == 0:
                            if rem:
                                continue
                            q = 0
                        else:
                            if rem % lo:
                                continue
                            q = rem // lo
                        if _sized_partition(g, comp, [hi] * p + [lo] * q) is not None:
                            opts.append((p, q))
                    if not opts:
                        feasible_all = False
                        break
                    comp_opts.append((comp, opts))
                if not feasible_all:
                    continue
                target = (b - big, (r - touching) - (b - big))
                pickings = _pair_dp(comp_opts, target)
                if pickings is None:
                    continue
                big_parts = [sorted(p) for p in s_parts[:big]]
                small_parts = [sorted(p) for p in s_parts[big:]]
                for (comp, _), (p, q) in zip(comp_opts, pickings):
                    got = _sized_partition(g, comp, [hi] * p + [lo] * q)
                    if hi == lo:
                        small_parts.extend(sorted(part) for (_, part) in got)
                    else:
                        big_parts.extend(sorted(part) for (s, part) in got if s == hi)
                        small_parts.extend(sorted(part) for (s, part) in got if s == lo)
                return big_parts + small_parts
    return None


def _pair_dp(comp_opts, target):
    """Choose one (p, q) per component summing to ``target``, or None."""
    states = {(0, 0): []}
    for (comp, opts) in comp_opts:
        nxt = {}
        for (sp, sq), hist in states.items():
            for (p, q) in opts:
                key = (sp + p, sq + q)
                if key[0] > target[0] or key[1] > target[1]:
                    continue
                if key not in nxt:
                    nxt[key] = hist + [(p, q)]
        states = nxt
        if not states:
            return None
    return states.get(target)
