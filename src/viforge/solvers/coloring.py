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
from ..graphs import components, is_connected_subset, split
from ..ilp import feasible
from ..integrity import vertex_integrity
from ..typesys import classify_detailed, labelled_code
from .configuration import best, columns, configuration_ip, place


# ------------------------------------------------------- precolouring


def _proper_on(g, vertices, col):
    """Whether ``col`` gives no two adjacent ``vertices`` the same colour."""
    return not any(g.has_edge(u, v) and col[u] == col[v]
                   for i, u in enumerate(vertices) for v in vertices[i + 1:])


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
    open_s = sorted(s_set - u_set)
    dropped = [v for v in open_s if len(lists[v]) >= 2 * k]
    alive = [v for v in open_s if len(lists[v]) < 2 * k]
    removed = u_set | set(dropped)
    comps = components(g, removed | set(alive))

    def guesses():
        for picks in product(*[lists[v] for v in alive]):
            col = dict(zip(alive, picks))
            if _proper_on(g, alive, col):
                yield col

    def solve(col):
        if not all(_extend_component(g, comp, lists, col) for comp in comps):
            return None
        col.update(precolored)
        for v in reversed(dropped):
            taken = {col[u] for u in g.neighbors(v) if u in col}
            free = [c for c in lists[v] if c not in taken]
            if not free:
                raise RuntimeError("delayed separator vertex ran out of colours")
            col[v] = free[0]
        return col

    return best(guesses(), solve)


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
    pos = {v: i for i, v in enumerate(comp)}
    # per component vertex: the classes of its separator neighbours and
    # the positions of its neighbours inside the component
    taken = [{assign[u] for u in g.neighbors(v) if u in assign} for v in comp]
    inner = [[pos[u] for u in g.neighbors(v) if u in pos] for v in comp]
    out = {}
    labels = list(classes) + ([free_class] if free_class is not None else [])
    for mu in product(labels, repeat=len(comp)):
        if not all(
            c == free_class
            or (c not in taken[i] and all(mu[j] != c for j in inner[i]))
            for i, c in enumerate(mu)
        ):
            continue
        vec = tuple(sum(1 for c in mu if c == cls) for cls in classes)
        if vec not in out:
            out[vec] = dict(zip(comp, mu))
    return out


def _eqcol_classes(s_list, groups, cols, rhs):
    """Per-vertex classes of the components, taking per-type vector
    multiplicities that meet the class counts ``rhs``, or None."""
    rows = [(tuple(vec[j] for _, (vec, _) in cols), "==", x) for j, x in enumerate(rhs)]
    point = feasible(configuration_ip(groups, cols, rows))
    if point is None:
        return None
    out = {}
    for _, phi, (_, wit) in place(s_list, groups, cols, point):
        out.update({phi[v]: c for v, c in wit.items()})
    return out


def equitable_coloring_vi(g, r):
    """Proper colouring with colours 1..r whose class sizes differ by at
    most one, or None.

    A guess colours S and fixes ``big``, the number of classes of size
    n // r + 1 among the c classes that may touch S.  With r <= 2k all r
    classes may, and big = n % r.  With more colours than twice the
    separator budget only colours 1..k touch S: component vertices may
    also take the free class 0, whose vertices are coloured round-robin
    with the r - k spare colours at the end.
    """
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
        c, free, bigs = r, None, [b]
    else:
        c, free, bigs = k, 0, range(max(0, b - (r - k)), min(k, b) + 1)

    def guesses():
        for picks in product(range(1, c + 1), repeat=len(s_list)):
            assign = dict(zip(s_list, picks))
            if not _proper_on(g, s_list, assign):
                continue
            cols = None
            for big in bigs:
                head = _class_targets(n, r, big)[:c]
                rhs = [head[i] - picks.count(i + 1) for i in range(c)]
                if any(x < 0 for x in rhs):
                    continue
                if cols is None:
                    cols = columns(groups, lambda rep: _eqcol_vectors(
                        g, s_list, assign, rep, range(1, c + 1), free))
                    if cols is None:
                        break
                yield assign, cols, rhs

    def solve(guess):
        assign, cols, rhs = guess
        classed = _eqcol_classes(s_list, groups, cols, rhs)
        if classed is None:
            return None
        col = dict(assign)
        col.update({v: cls for v, cls in classed.items() if cls != free})
        if free is not None:
            leftovers = [v for comp in components(g, set(s_list))
                         for v in comp if classed[v] == free]
            for i, v in enumerate(leftovers):
                col[v] = k + 1 + (i % (r - k))
            _check_equitable(g, r, col)
        return col

    return best(guesses(), solve)


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
    contain ``anchor`` (when given) and intersect ``meets`` (when given).

    The sets are grown outward from each root (the anchor, else every
    vertex of ``meets``, else every vertex): pick a vertex next to the
    set, then add it or ban it for the rest of that branch.  A finished
    root is banned too, so every set comes out exactly once.  They are
    yielded in the order of ``combinations(sorted(allowed), size)``.
    """
    allowed = set(allowed)
    if size == 0:
        if anchor is None and meets is None:
            yield set()
        return
    if anchor is not None:
        roots = [anchor] if anchor in allowed else []
    elif meets is not None:
        roots = sorted(allowed & meets)
    else:
        roots = sorted(allowed)
    adj = g.adjacency()
    found = []

    def grow(cur, ext, banned):
        if len(cur) == size:
            if meets is None or cur & meets:
                found.append(tuple(sorted(cur)))
            return
        banned = set(banned)
        while ext:
            v = ext.pop()
            nxt = cur | {v}
            grow(nxt, (ext | (adj[v] & allowed)) - nxt - banned, banned)
            banned.add(v)

    done = set()
    for root in roots:
        grow({root}, (allowed & adj[root]) - done, done)
        done.add(root)
    found.sort()
    for part in found:
        yield set(part)


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
    one, ordered large parts first, or None.

    Parts are connected, so every component of G is a union of whole
    parts of ``hi`` or ``lo`` vertices.  A component that holds no
    separator vertex has at most k vertices, and no choice of the parts
    that meet S touches it.  So when one of them cannot be cut into such
    parts, no partition exists, and the answer is None before any
    branch runs; where a partition exists the check always passes, so
    it changes no yes answer.
    """
    g.validate()
    if r < 1:
        raise ValueError("need at least one part")
    n = g.n
    if r > n:
        return [[v] for v in range(n)] + [[] for _ in range(r - n)]
    k, vis = vertex_integrity(g)
    s_list = sorted(vis.separator)
    hi, lo, b = ceil(n / r), n // r, n % r
    s_set = set(s_list)
    for comp in components(g):
        if s_set.isdisjoint(comp) and not _part_counts(g, comp, hi, lo):
            return None

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

    per_type_choices = [
        [combo for take in range(1, min(len(comps), len(mus)) + 1)
         for combo in combinations(range(len(mus)), take)]
        for (_, comps), mus in zip(groups, mu_lists)]

    def guesses():
        for picks in product(range(1, r + 1), repeat=len(s_list)):
            s_classes = [{v for v, c in zip(s_list, picks) if c == i + 1} for i in range(r)]
            if any(not c for c in s_classes):
                continue
            for combo in product(*per_type_choices):
                yield s_classes, combo

    return best(guesses(), lambda guess: _ecp_try_representation(
        g, s_list, groups, mu_lists, *guess, targets))


def _ecp_try_representation(g, s_list, groups, mu_lists, s_classes, combo, targets):
    r = len(s_classes)
    # connectivity check on distinct concrete components per chosen pair
    chunks = [set(c) for c in s_classes]
    for (t, _), mus, chosen in zip(groups, mu_lists, combo):
        for slot, mi in enumerate(chosen):
            phi = t.member_map(s_list, slot)
            for v, c in mus[mi].items():
                chunks[c - 1].add(phi[v])
    if any(not is_connected_subset(g, chunk) for chunk in chunks):
        return None

    cols = [(gi, mu_lists[gi][mi]) for gi, chosen in enumerate(combo) for mi in chosen]
    rows = [(tuple(sum(1 for c in mu.values() if c == i + 1) for _, mu in cols),
             "==", targets[i] - len(s_classes[i])) for i in range(r)]
    # every chosen labelling is used at least once
    rows += [(tuple(int(j == i) for j in range(len(cols))), ">=", 1) for i in range(len(cols))]
    point = feasible(configuration_ip(groups, cols, rows))
    if point is None:
        return None

    parts = [set(c) for c in s_classes]
    for _, phi, mu in place(s_list, groups, cols, point):
        for v, c in mu.items():
            parts[c - 1].add(phi[v])
    return [sorted(p) for p in parts]


def _part_counts(g, comp, hi, lo):
    """Every (p, q) such that ``comp`` splits into p connected parts of
    ``hi`` vertices and q of ``lo`` (lo >= 1)."""
    out = []
    for p in range(len(comp) // hi + 1):
        q, rem = divmod(len(comp) - p * hi, lo)
        if not rem and _sized_partition(g, comp, [hi] * p + [lo] * q) is not None:
            out.append((p, q))
    return out


def _ecp_case2(g, r, s_list, hi, lo, b):
    # every candidate W holds S, so G - W is G - S with the components
    # W meets split again; the (p, q) options of each component are
    # found once per call
    adj = g.adjacency()
    base = [(tuple(comp), _part_counts(g, comp, hi, lo))
            for comp in components(g, set(s_list))]
    owner = {v: i for i, (comp, _) in enumerate(base) for v in comp}
    counts = {}

    def rest_options(w):
        """(component, options) for G - W in smallest-vertex order, or
        None when a component has no option."""
        touched = {owner[v] for v in w if v in owner}
        out = [item for i, item in enumerate(base) if i not in touched]
        for i in touched:
            for piece in split(adj, set(base[i][0]) - w):
                piece = tuple(piece)
                if piece not in counts:
                    counts[piece] = _part_counts(g, piece, hi, lo)
                out.append((piece, counts[piece]))
        if not all(opts for _, opts in out):
            return None
        out.sort()
        return out

    def guesses():
        for touching in range(min(len(s_list), r) + 1):
            if s_list and touching == 0:
                continue
            for big in range(0, min(touching, b) + 1):
                if b - big > r - touching:
                    continue
                sizes = [hi] * big + [lo] * (touching - big)
                for s_parts in _ecp_separator_parts(g, s_list, sizes):
                    yield touching, big, s_parts

    def solve(guess):
        touching, big, s_parts = guess
        w = set().union(*s_parts) if s_parts else set()
        comp_opts = rest_options(w)
        if comp_opts is None:
            return None
        target = (b - big, (r - touching) - (b - big))
        pickings = _pair_dp(comp_opts, target)
        if pickings is None:
            return None
        big_parts = [sorted(p) for p in s_parts[:big]]
        small_parts = [sorted(p) for p in s_parts[big:]]
        for (comp, _), (p, q) in zip(comp_opts, pickings):
            for size, part in _sized_partition(g, comp, [hi] * p + [lo] * q):
                (big_parts if hi != lo and size == hi else small_parts).append(sorted(part))
        return big_parts + small_parts

    return best(guesses(), solve)


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
