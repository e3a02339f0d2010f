"""Plain-text instance files and seeded instance generators.

Graph instances use a DIMACS-like header ``p <n> <m>`` followed by
tagged lines (``e``, ``c``, ``col``, ``pc``, ``t``, ``m``); numeric
sources for the hardness constructions use tiny headers of their own
(``bp``, ``pt``, ``dm``).  ``parse`` and ``serialize`` round-trip
exactly, and the sha256 of the canonical serialization identifies an
instance independently of comments or formatting.
"""

import hashlib
import inspect
import random
from dataclasses import dataclass
from typing import Optional

from .graphs import Graph, edge_key
from .reductions import BinPackingInstance, ReductionInputError, ThreeDMInstance


class ParseError(ValueError):
    """Malformed instance file, annotated with the offending line."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


@dataclass
class GraphInstance:
    """A graph plus whatever problem-specific sections the file carried."""

    graph: Graph
    precolor: Optional[dict] = None
    terminals: tuple = ()
    motif: Optional[dict] = None

    def __post_init__(self):
        self.terminals = tuple(tuple(sorted(set(ts))) for ts in self.terminals)
        if self.precolor is not None:
            self.precolor = {int(v): int(c) for v, c in self.precolor.items()}
        if self.motif is not None:
            self.motif = {int(c): int(k) for c, k in self.motif.items()}


@dataclass(frozen=True)
class PartitionInstance:
    """Items to split into two halves of equal size and equal sum."""

    items: tuple

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(int(a) for a in self.items))
        if any(a <= 0 for a in self.items):
            raise ReductionInputError("items must be positive")


# ----------------------------------------------------------------- parsing

def _intfield(text, what, no):
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{what} `{text}` is not an integer", no) from None


def _vertex(text, n, no):
    v = _intfield(text, "vertex", no)
    if not 0 <= v < n:
        raise ParseError(f"vertex {v} out of range for n={n}", no)
    return v


def parse_text(text: str):
    """Typed instance for the given file content; see parse()."""
    stripped = []
    for no, raw in enumerate(text.splitlines(), 1):
        s = raw.split("#", 1)[0].strip()
        if s:
            stripped.append((no, s.split()))
    if not stripped:
        raise ParseError("empty instance file")
    head = stripped[0][1][0]
    if head == "p":
        return _parse_graph(stripped)
    if head in ("bp", "pt", "dm"):
        return _parse_numeric(head, stripped)
    raise ParseError(f"unknown header tag `{head}`", stripped[0][0])


def parse(path):
    """Typed instance from a file: GraphInstance for `p` files,
    BinPackingInstance / PartitionInstance / ThreeDMInstance for the
    numeric source headers."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_text(fh.read())


def _parse_graph(stripped):
    n = m = None
    eset = set()
    weights = {}
    caps, cols, pc, motif = {}, {}, {}, {}
    tsets = {}
    for no, parts in stripped:
        tag = parts[0]
        if tag == "p":
            if n is not None:
                raise ParseError("duplicate `p` header", no)
            if len(parts) != 3:
                raise ParseError("header must be `p <n> <m>`", no)
            n = _intfield(parts[1], "vertex count", no)
            m = _intfield(parts[2], "edge count", no)
            if n < 0 or m < 0:
                raise ParseError("counts must be non-negative", no)
        elif n is None:
            raise ParseError(f"`{tag}` line before the `p` header", no)
        elif tag == "e":
            if len(parts) not in (3, 4):
                raise ParseError("edge line must be `e u v [w]`", no)
            u = _vertex(parts[1], n, no)
            v = _vertex(parts[2], n, no)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", no)
            e = edge_key(u, v)
            if e in eset:
                raise ParseError(f"duplicate edge {e[0]} {e[1]}", no)
            eset.add(e)
            if len(parts) == 4:
                w = _intfield(parts[3], "edge weight", no)
                if w <= 0:
                    raise ParseError("edge weight must be positive", no)
                weights[e] = w
        elif tag == "c":
            if len(parts) != 3:
                raise ParseError("capacity line must be `c v cap`", no)
            v = _vertex(parts[1], n, no)
            if v in caps:
                raise ParseError(f"duplicate capacity for vertex {v}", no)
            cap = _intfield(parts[2], "capacity", no)
            if cap <= 0:
                raise ParseError("capacity must be positive", no)
            caps[v] = cap
        elif tag == "col":
            if len(parts) != 3:
                raise ParseError("color line must be `col v color`", no)
            v = _vertex(parts[1], n, no)
            if v in cols:
                raise ParseError(f"duplicate color for vertex {v}", no)
            cols[v] = _intfield(parts[2], "color", no)
        elif tag == "pc":
            if len(parts) != 3:
                raise ParseError("precolor line must be `pc v color`", no)
            v = _vertex(parts[1], n, no)
            if v in pc:
                raise ParseError(f"duplicate precolor for vertex {v}", no)
            pc[v] = _intfield(parts[2], "precolor", no)
        elif tag == "t":
            if len(parts) != 3:
                raise ParseError("terminal line must be `t setid v`", no)
            sid = _intfield(parts[1], "terminal set id", no)
            if sid < 0:
                raise ParseError("terminal set id must be non-negative", no)
            v = _vertex(parts[2], n, no)
            members = tsets.setdefault(sid, set())
            if v in members:
                raise ParseError(f"vertex {v} already in terminal set {sid}", no)
            members.add(v)
        elif tag == "m":
            if len(parts) != 3:
                raise ParseError("motif line must be `m color count`", no)
            c = _intfield(parts[1], "motif color", no)
            if c in motif:
                raise ParseError(f"duplicate motif color {c}", no)
            k = _intfield(parts[2], "motif count", no)
            if k < 0:
                raise ParseError("motif count must be non-negative", no)
            motif[c] = k
        else:
            raise ParseError(f"unknown line tag `{tag}`", no)
    if n is None:
        raise ParseError("missing `p` header")
    if len(eset) != m:
        raise ParseError(f"header promises {m} edges, file has {len(eset)}")
    if weights and len(weights) != len(eset):
        raise ParseError("either every edge carries a weight or none does")
    if tsets and sorted(tsets) != list(range(len(tsets))):
        raise ParseError("terminal set ids must be contiguous from 0")
    try:
        g = Graph(n, eset, capacities=caps or None, colors=cols or None,
                  weights=weights or None)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    terminals = tuple(tuple(sorted(tsets[i])) for i in range(len(tsets)))
    return GraphInstance(g, precolor=pc or None, terminals=terminals,
                         motif=motif or None)


def _parse_numeric(head, stripped):
    no0, header = stripped[0]
    body = stripped[1:]
    if header[0] != head:
        raise ParseError("numeric header must come first", no0)
    if head == "bp":
        if len(header) != 3:
            raise ParseError("header must be `bp <t> <n-items>`", no0)
        t = _intfield(header[1], "bin count", no0)
        count = _intfield(header[2], "item count", no0)
        items = _item_lines(body, count)
        try:
            return BinPackingInstance(tuple(items), t)
        except ReductionInputError as exc:
            raise ParseError(str(exc), no0) from None
    if head == "pt":
        if len(header) != 2:
            raise ParseError("header must be `pt <n-items>`", no0)
        count = _intfield(header[1], "item count", no0)
        items = _item_lines(body, count)
        try:
            return PartitionInstance(tuple(items))
        except ReductionInputError as exc:
            raise ParseError(str(exc), no0) from None
    if len(header) != 3:
        raise ParseError("header must be `dm <n> <n-triples>`", no0)
    nn = _intfield(header[1], "coordinate range", no0)
    count = _intfield(header[2], "triple count", no0)
    triples = []
    for no, parts in body:
        if parts[0] != "tr" or len(parts) != 4:
            raise ParseError("triple line must be `tr x y z`", no)
        triples.append(tuple(_intfield(p, "coordinate", no) for p in parts[1:]))
    if len(triples) != count:
        raise ParseError(f"header promises {count} triples, file has {len(triples)}")
    try:
        return ThreeDMInstance(nn, tuple(triples))
    except ReductionInputError as exc:
        raise ParseError(str(exc), no0) from None


def _item_lines(body, count):
    items = []
    for no, parts in body:
        if parts[0] != "a" or len(parts) != 2:
            raise ParseError("item line must be `a <value>`", no)
        items.append(_intfield(parts[1], "item", no))
    if len(items) != count:
        raise ParseError(f"header promises {count} items, file has {len(items)}")
    return items


# ------------------------------------------------------------- serializing

def serialize(inst) -> str:
    """Canonical text form; parse_text(serialize(x)) == x."""
    if isinstance(inst, GraphInstance):
        return _serialize_graph(inst)
    if isinstance(inst, BinPackingInstance):
        lines = [f"bp {inst.t} {len(inst.items)}"]
        lines += [f"a {a}" for a in inst.items]
    elif isinstance(inst, PartitionInstance):
        lines = [f"pt {len(inst.items)}"]
        lines += [f"a {a}" for a in inst.items]
    elif isinstance(inst, ThreeDMInstance):
        lines = [f"dm {inst.n} {len(inst.triples)}"]
        lines += [f"tr {x} {y} {z}" for (x, y, z) in inst.triples]
    else:
        raise TypeError(f"cannot serialize {type(inst).__name__}")
    return "\n".join(lines) + "\n"


def _serialize_graph(inst: GraphInstance) -> str:
    g = inst.graph
    lines = [f"p {g.n} {g.m}"]
    for (u, v) in sorted(g.edges):
        if g.weights is not None:
            lines.append(f"e {u} {v} {g.weights[(u, v)]}")
        else:
            lines.append(f"e {u} {v}")
    if g.capacities is not None:
        lines += [f"c {v} {g.capacities[v]}" for v in sorted(g.capacities)]
    if g.colors is not None:
        lines += [f"col {v} {g.colors[v]}" for v in sorted(g.colors)]
    if inst.precolor is not None:
        lines += [f"pc {v} {inst.precolor[v]}" for v in sorted(inst.precolor)]
    for sid, tset in enumerate(inst.terminals):
        lines += [f"t {sid} {v}" for v in tset]
    if inst.motif is not None:
        lines += [f"m {c} {inst.motif[c]}" for c in sorted(inst.motif)]
    return "\n".join(lines) + "\n"


def instance_sha256(inst) -> str:
    return hashlib.sha256(serialize(inst).encode("utf-8")).hexdigest()


# -------------------------------------------------------------- generating

def generate(kind: str, seed: int = 0, **params) -> str:
    """Seeded-deterministic instance text.

    kind `random-vi` (params n, k, colors, weights, caps): a separator of
    at most k vertices plus component blocks of at most k - |S| vertices,
    so the result has vertex integrity at most k by construction.
    kind `random-vc` (params n, k, ...): every edge is incident to a
    fixed set of at most k vertices, so vertex cover at most k.
    kind `reduction-source` (params source: bp | pt | dm; bp takes t,
    pt takes n and max_item, dm takes n): a numeric instance satisfying
    the corresponding construction's preconditions.  A parameter the
    kind, or its source, does not take raises ValueError.
    """
    if kind not in _GENERATORS:
        raise ValueError(f"unknown generator kind `{kind}`")
    make, taken = _GENERATORS[kind]
    where = f"generator kind `{kind}`"
    if kind == "reduction-source":
        source = params.get("source", "bp")
        if source not in _SOURCES:
            raise ValueError(f"unknown source kind `{source}`")
        taken += _SOURCES[source][1]
        where += f" with source `{source}`"
    for key in sorted(params):
        if key not in taken:
            raise ValueError(f"{where} does not take `{key}`")
    rng = random.Random(repr((kind, int(seed), sorted(params.items()))))
    return serialize(make(rng, **params))


def _decorate(rng, n, edges, colors=0, weights=False, caps=False):
    if colors < 0:
        raise ValueError("need colors >= 0")
    cmap = {v: rng.randrange(colors) for v in range(n)} if colors else None
    wmap = {e: rng.randint(1, 9) for e in edges} if weights else None
    capmap = None
    if caps:
        deg = {v: 0 for v in range(n)}
        for (u, v) in edges:
            deg[u] += 1
            deg[v] += 1
        capmap = {v: rng.randint(1, max(deg[v], 1)) for v in range(n)}
    g = Graph(n, edges, capacities=capmap, colors=cmap, weights=wmap)
    return GraphInstance(g)


def _random_vi(rng, n=12, k=3, colors=0, weights=False, caps=False):
    n, k = int(n), int(k)
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    hi = min(k, n) if n <= k else k - 1
    s = rng.randint(min(1, hi), hi)
    order = list(range(n))
    rng.shuffle(order)
    sep, rest = order[:s], order[s:]
    edges = set()
    for i in range(s):
        for j in range(i + 1, s):
            if rng.random() < 0.6:
                edges.add(edge_key(sep[i], sep[j]))
    while rest:
        size = rng.randint(1, k - s)
        chunk, rest = rest[:size], rest[size:]
        for i in range(len(chunk)):
            for j in range(i + 1, len(chunk)):
                if rng.random() < 0.7:
                    edges.add(edge_key(chunk[i], chunk[j]))
            for x in sep:
                if rng.random() < 0.5:
                    edges.add(edge_key(chunk[i], x))
    return _decorate(rng, n, edges, colors, weights, caps)


def _random_vc(rng, n=12, k=2, colors=0, weights=False, caps=False):
    n, k = int(n), int(k)
    if n < 0 or k < 0:
        raise ValueError("need n >= 0 and k >= 0")
    order = list(range(n))
    rng.shuffle(order)
    hi = min(k, n)
    s = rng.randint(min(1, hi), hi)
    cover = order[:s]
    edges = set()
    for i, c in enumerate(cover):
        for j in range(i + 1, len(cover)):
            if rng.random() < 0.6:
                edges.add(edge_key(c, cover[j]))
        for v in order[s:]:
            if rng.random() < 0.5:
                edges.add(edge_key(c, v))
    return _decorate(rng, n, edges, colors, weights, caps)


def _random_bp(rng, t=None):
    bins = int(t) if t is not None else rng.randint(3, 5)
    if bins < 3:
        raise ValueError("bp sources need t >= 3")
    target = rng.randint(2, 5)
    items = []
    remaining = bins * target
    while remaining:
        a = rng.randint(1, min(target - 1, remaining))
        items.append(a)
        remaining -= a
    return BinPackingInstance(tuple(items), bins)


def _random_pt(rng, n=None, max_item=9):
    count = int(n) if n is not None else rng.choice([10, 12])
    if count < 10 or count % 2:
        raise ValueError("pt sources need an even n >= 10")
    items = [rng.randint(1, int(max_item)) for _ in range(count - 1)]
    last = rng.randint(1, int(max_item))
    if (sum(items) + last) % 2:
        last += 1
    return PartitionInstance(tuple(items + [last]))


def _random_dm(rng, n=None):
    nn = int(n) if n is not None else 2
    if nn < 0:
        raise ValueError("dm sources need n >= 0")
    triples = [
        (x, y, z)
        for x in range(nn)
        for y in range(nn)
        for z in range(nn)
        if rng.random() < 0.4
    ]
    return ThreeDMInstance(nn, tuple(triples))


def _random_source(rng, source="bp", **params):
    return _SOURCES[source][0](rng, **params)


def _takes(make):
    """The parameters ``make`` takes after its rng."""
    return tuple(inspect.signature(make).parameters)[1:]


_SOURCES = {source: (make, _takes(make))
            for source, make in (("bp", _random_bp), ("pt", _random_pt), ("dm", _random_dm))}
_GENERATORS = {kind: (make, _takes(make))
               for kind, make in (("random-vi", _random_vi), ("random-vc", _random_vc))}
_GENERATORS["reduction-source"] = (_random_source, ("source",))
