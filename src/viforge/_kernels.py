"""Hot enumeration kernels shared by the oracles, the canonical-form code and
the integer-program search.

Every kernel works on Python lists and ints, so arithmetic never wraps.
Orderings are drawn lazily from ``itertools.permutations``, in lexicographic
order, and a scan keeps the first ordering that attains its optimum.
"""

from collections import deque
from itertools import permutations


def min_anchored_code(adj, attrs, n_anchor):
    """Lexicographically minimal row-major code of ``adj`` with the first
    ``n_anchor`` rows pinned and the remaining rows permuted.

    ``attrs`` (one int per vertex) is appended after the matrix cells so the
    comparison covers attribute vectors as well.  Returns (code, perm): the
    winning code as a list of length s*s + s, and the first permutation of
    the free rows n_anchor..s-1 that attains it.  Two inputs with equal
    codes are carried onto each other by pairing their perms position by
    position, anchors fixed.
    """
    s = len(adj)
    anchors = tuple(range(n_anchor))
    best = best_perm = None
    for perm in permutations(range(n_anchor, s)):
        order = anchors + perm
        cand = [adj[i][j] for i in order for j in order]
        cand += [attrs[i] for i in order]
        if best is None or cand < best:
            best, best_perm = cand, perm
    return best, best_perm


def imbalance_scan(adj):
    """Minimum total imbalance over all vertex orderings, by a subset DP.

    ``adj`` lists each vertex's neighbours.  A vertex's imbalance depends
    only on the set placed before it, so ``rest[S]`` is the least cost of
    ordering the vertices outside S after S.  Walking forward from the
    empty set and taking the smallest vertex that keeps the optimum gives
    the lexicographically first optimal ordering.  Returns (value, order).
    """
    n = len(adj)
    full = (1 << n) - 1
    deg = [len(nb) for nb in adj]
    nbr = [sum(1 << w for w in nb) for nb in adj]

    def cost(u, placed):
        return abs(deg[u] - 2 * (nbr[u] & placed).bit_count())

    rest = [0] * (full + 1)
    for placed in range(full - 1, -1, -1):
        rest[placed] = min(cost(u, placed) + rest[placed | 1 << u]
                           for u in range(n) if not placed >> u & 1)
    order = []
    placed = 0
    while placed != full:
        for u in range(n):
            if not placed >> u & 1 and cost(u, placed) + rest[placed | 1 << u] == rest[placed]:
                order.append(u)
                placed |= 1 << u
                break
    return rest[0], order


def bandwidth_scan(edges, n):
    """Minimum bandwidth (max edge stretch) over all orderings of n
    vertices.  Returns (value, first optimal ordering)."""
    best = None
    best_order = None
    pos = [0] * n
    for perm in permutations(range(n)):
        for i, v in enumerate(perm):
            pos[v] = i
        width = 0
        for (u, v) in edges:
            d = abs(pos[u] - pos[v])
            if d > width:
                width = d
                if best is not None and width >= best:
                    break
        if best is None or width < best:
            best = width
            best_order = list(perm)
    return best, best_order


def mcs_scan(edges1, adj2, n1):
    """Maximum number of g1-edges mapped onto g2-edges over all injections
    of n1 vertices into V(g2), in lexicographic order; requires
    n1 <= len(adj2).  Returns (best, first witness injection)."""
    best = -1
    best_inj = None
    for inj in permutations(range(len(adj2)), n1):
        hit = 0
        for (u, v) in edges1:
            hit += adj2[inj[u]][inj[v]]
        if hit > best:
            best = hit
            best_inj = list(inj)
            if hit == len(edges1):
                break
    return best, best_inj


def mcis_scan(adj1, adj2):
    """Largest common induced subgraph via depth-first search over partial
    injections with a skip option per vertex.

    Each g1-vertex tries every free g2-vertex in turn, then being skipped.
    Returns (best size, mapping list: image vertex or -1 per g1-vertex).
    """
    n1 = len(adj1)
    n2 = len(adj2)
    used = [False] * n2
    applied = [-1] * n1
    best = -1
    best_map = [-1] * n1

    def go(pos, mapped):
        nonlocal best, best_map
        for c in range(n2 + 1):
            if mapped + (n1 - pos) <= best:
                return
            if c < n2:
                if used[c]:
                    continue
                row1, row2 = adj1[pos], adj2[c]
                if any(applied[v] >= 0 and row1[v] != row2[applied[v]] for v in range(pos)):
                    continue
                applied[pos] = c
                used[c] = True
                now = mapped + 1
            else:
                now = mapped
            if pos == n1 - 1:
                if now > best:
                    best = now
                    best_map = list(applied)
            else:
                go(pos + 1, now)
            if c < n2:
                used[c] = False
                applied[pos] = -1

    go(0, 0)
    return best, best_map


def orient_scan(edges, w, n, r):
    """Complete search for an orientation with all weighted outdegrees <= r.

    Edges are explored in the order given; per edge the u->v direction is
    tried first.  A branch dies when some endpoint would exceed r or some
    later edge is no longer placeable either way.  Returns (found flag,
    orientation list: 1 means u->v, 0 means v->u).
    """
    m = len(edges)
    if m == 0:
        return True, []
    load = [0] * n
    applied = [-1] * m
    next_c = [0] * m
    pos = 0
    while pos >= 0:
        u, v = edges[pos]
        if applied[pos] >= 0:
            load[u if applied[pos] else v] -= w[pos]
            applied[pos] = -1
        c = next_c[pos]
        if c >= 2:
            pos -= 1
            continue
        next_c[pos] = c + 1
        tail = u if c == 0 else v
        if load[tail] + w[pos] > r:
            continue
        load[tail] += w[pos]
        applied[pos] = 1 - c
        if any(load[a] + w[q] > r and load[b] + w[q] > r
               for q, (a, b) in enumerate(edges[pos + 1:], pos + 1)):
            continue
        if pos == m - 1:
            return True, applied
        pos += 1
        next_c[pos] = 0
    return False, [0] * m


def _propagate(rows, b, lo, hi, occ, queue):
    """Tighten the box lo..hi against the rows to a fixpoint, in place.

    ``queue`` is a FIFO deque of the rows to visit; ``occ[j]`` lists the
    rows that hold variable j.  Each bound a row moves queues the rows
    holding that variable that are not queued yet, so the loop ends when
    every row has been visited since the last change to any of its
    variables.  The row being visited is not re-queued by its own moves:
    they leave its slack as it was.  Returns False when some row cannot
    hold anywhere in the box.  A row that holds at its minimum over the
    box (slack >= 0) moves each bound by at most the width of its
    interval, so no interval ever empties.
    """
    queued = [False] * len(rows)
    for r in queue:
        queued[r] = True
    while queue:
        r = queue.popleft()
        row = rows[r]
        mn = 0
        for j, a in row:
            mn += a * (lo[j] if a > 0 else hi[j])
        slack = b[r] - mn
        if slack < 0:
            return False
        # a bound moves only when |a| times its interval's width
        # exceeds the slack
        for j, a in row:
            if a > 0:
                if a * (hi[j] - lo[j]) <= slack:
                    continue
                hi[j] = lo[j] + slack // a
            elif -a * (hi[j] - lo[j]) > slack:
                lo[j] = hi[j] - slack // -a
            else:
                continue
            for r2 in occ[j]:
                if not queued[r2]:
                    queued[r2] = True
                    queue.append(r2)
        queued[r] = False
    return True


def with_cutoff(rows, b, c, lo, hi):
    """(cost, rows, b, occ): c's nonzero (j, c_j) pairs, the rows and
    right-hand sides with the cutoff row c.x <= (largest c.x over the box)
    appended last, and ``occ[j]``, the rows that hold variable j."""
    cost = [(j, cj) for j, cj in enumerate(c) if cj]
    rows = rows + [cost]
    b = b + [sum(cj * (hi[j] if cj > 0 else lo[j]) for j, cj in cost)]
    occ = [[] for _ in lo]
    for r, row in enumerate(rows):
        for j, _ in row:
            occ[j].append(r)
    return cost, rows, b, occ


# Nodes (``_propagate`` calls) an ``ilp_scan`` may visit before it gives
# up.  Every IP of the benchmark's workloads ends within a quarter of it:
# the largest takes 1,915 nodes (a deep mcs piece IP).
SCAN_NODES = 8000


class ScanBudgetSpent(Exception):
    """``ilp_scan`` visited SCAN_NODES nodes; ``incumbent`` is its best
    (point, value) so far, or None."""

    def __init__(self, incumbent):
        super().__init__(incumbent)
        self.incumbent = incumbent


def ilp_scan(rows, b, lo, hi, c, find_opt, desc):
    """Depth-first branch and bound over an integer box with interval
    propagation against rows A x <= b.

    ``rows`` holds each row of A sparsely as (j, a) pairs with a != 0, in
    ascending j.  Variables branch in index order, values ascend unless
    ``desc`` flags the variable.  With ``find_opt`` the first optimum of
    c.x (minimisation) in search order is kept; otherwise the first
    feasible point is returned.  Returns (point, value), or None.  The
    box lo..hi must be non-empty.

    Propagation runs from a row worklist: the root visits every row, and
    a child that fixes x_j starts from the rows holding j (its parent's
    box is already a fixpoint).  Each row's tightening is monotone and
    idempotent, so every fair visiting order reaches the same fixpoint
    box, or the same infeasibility, as sweeping all rows until nothing
    moves.  Hence the nodes, their order and the answer do not depend on
    the visiting order.

    The objective is one more row, the cutoff c.x <= v - 1, where v is
    the incumbent's value.  Until there is an incumbent its right-hand
    side is the largest c.x over the root box, so it holds everywhere and
    moves nothing; each new incumbent lowers it.  Every child's worklist
    starts with it, because the incumbent may have improved since its
    parent's fixpoint.  The cutoff fails at a node exactly when the box's
    least c.x reaches v (the box bound), and otherwise it may tighten a
    costed variable past the values that leave no point with c.x < v.
    So it removes only points that are no better than the incumbent.
    Leaves are reached in the canonical order whatever propagation fixes,
    because each variable branches in its own fixed direction, and only a
    strictly better point replaces the incumbent; hence the answer is the
    first optimum in that order, the same point and value as with the box
    bound alone.  With c = 0 the cutoff reads 0 <= -1 once a point is
    found, which ends the search at the first feasible point.

    A frame tests the cutoff itself before it builds the child x_j = v:
    the child's least c.x is the frame's least c.x with x_j's term set to
    c_j.v, which is exactly what the cutoff row reads first at that child,
    so a value that fails it is skipped without a node.  Where c_j = 0 or
    its sign agrees with j's branching direction, that term only grows
    over the later values while the cutoff only drops, so the first
    failing value ends the frame.

    The node after the SCAN_NODES-th raises ScanBudgetSpent.
    """
    cost, rows, b, occ = with_cutoff(rows, b, c, lo, hi)
    cut = len(rows) - 1
    start = [[cut] + [r for r in rs if r != cut] for rs in occ]
    p = len(lo)
    best = None
    stack = []
    node = (list(lo), list(hi), deque(range(len(rows))))
    budget = SCAN_NODES
    while True:
        if node is not None:
            if not budget:
                raise ScanBudgetSpent(best)
            budget -= 1
            lo, hi, queue = node
            node = None
            if _propagate(rows, b, lo, hi, occ, queue):
                j = next((j for j in range(p) if lo[j] < hi[j]), -1)
                if j >= 0:
                    cj = c[j]
                    rest = sum(ci * (lo[i] if ci > 0 else hi[i]) for i, ci in cost if i != j)
                    ends = cj <= 0 if desc[j] else cj >= 0
                    stack.append([lo, hi, j, 0, cj, rest, ends])
                else:
                    best = tuple(lo), sum(cj * lo[j] for j, cj in cost)
                    if not find_opt:
                        return best
                    b[cut] = best[1] - 1
        if not stack:
            break
        frame = stack[-1]
        lo, hi, j, k, cj, rest, ends = frame
        if k > hi[j] - lo[j]:
            stack.pop()
            continue
        frame[3] = k + 1
        v = hi[j] - k if desc[j] else lo[j] + k
        if rest + cj * v > b[cut]:
            if ends:
                stack.pop()
            continue
        nlo, nhi = list(lo), list(hi)
        nlo[j] = nhi[j] = v
        node = (nlo, nhi, deque(start[j]))
    return best
