"""Rooted tree instances: vertices, links, requests, paths, coverage.

The tree is stored rooted.  Every non-root vertex has exactly one edge
to its parent, so edges can be addressed two ways: by their input index
(``0..n-2``, the order they appeared in the source) and by their child
endpoint.  Both maps are built once at construction and all path and
coverage queries go through them.

Costs enter as positive rationals and are rounded once: divide by the
minimum raw cost, then round up to the next power of two.  After that
every link cost is an integer ``2**cls``.  Only the raw input costs are
rational (``fractions.Fraction``); the path solvers' duals are exact
ints, and the fractional solver's ``x`` is a float.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import BadInputError


@dataclass(frozen=True)
class Link:
    """An extra edge with a power-of-two cost (``cost == 2**cls``)."""

    u: int
    v: int
    cost: int
    cls: int
    id: int


@dataclass(frozen=True)
class Request:
    """A terminal pair, or a single tree edge when ``edge`` is set."""

    s: Optional[int] = None
    t: Optional[int] = None
    edge: Optional[int] = None

    def is_elementary(self) -> bool:
        return self.edge is not None


@dataclass(frozen=True)
class TreePath:
    """A simple path in the tree: its vertices in order plus edge ids."""

    vertices: tuple
    edges: tuple

    def __len__(self) -> int:
        return len(self.edges)


def round_costs(raw_costs: Sequence[Fraction]) -> list:
    """Normalize by the minimum, then round each cost up to a power of 2.

    Returns one ``(cost, cls)`` pair per input, ``cost == 2**cls`` with
    ``cls >= 0``.  Rejects nonpositive entries.
    """
    if not raw_costs:
        return []
    for c in raw_costs:
        if c <= 0:
            raise BadInputError(f"nonpositive cost {c}; buy zero-cost links up front and drop them")
    lo = min(raw_costs)
    out = []
    for c in raw_costs:
        j = _ceil_pow2_class(Fraction(c, 1) / lo)
        out.append((1 << j, j))
    return out


def _ceil_pow2_class(f: Fraction) -> int:
    # smallest j >= 0 with 2**j >= f, assuming f >= 1
    num, den = f.numerator, f.denominator
    j = max(0, (num // den).bit_length() - 1)
    while (1 << j) * den < num:
        j += 1
    return j


class TreeInstance:
    """Immutable rooted spanning tree with links and a request stream.

    Parameters
    ----------
    n : vertex count; vertices are ``0..n-1``.
    edges : the n-1 tree edges as (u, v) pairs; index = edge id.
    root : root vertex id.
    raw_links : (u, v, raw_cost) triples; costs rounded at construction.
    requests : arrival-ordered terminal pairs.
    """

    def __init__(self, n: int, edges: Sequence, root: int,
                 raw_links: Sequence = (), requests: Sequence = ()):
        if n < 1:
            raise BadInputError("need at least one vertex")
        if not 0 <= root < n:
            raise BadInputError(f"root {root} out of range")
        if len(edges) != n - 1:
            raise BadInputError(f"expected {n - 1} tree edges, got {len(edges)}")
        self.n = n
        self.root = root
        self.edges = [(int(u), int(v)) for u, v in edges]

        adj = [[] for _ in range(n)]
        seen = set()
        for eid, (u, v) in enumerate(self.edges):
            if not (0 <= u < n and 0 <= v < n):
                raise BadInputError(f"edge {eid} endpoint out of range")
            if u == v:
                raise BadInputError(f"edge {eid} is a self-loop")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise BadInputError(f"edge {eid} duplicates an earlier edge")
            seen.add(key)
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        self.adjacency = adj

        parent = [-1] * n
        parent_edge = [-1] * n
        depth = [0] * n
        order = [root]
        reached = [False] * n
        reached[root] = True
        i = 0
        while i < len(order):
            w = order[i]
            i += 1
            for x, eid in adj[w]:
                if not reached[x]:
                    reached[x] = True
                    parent[x] = w
                    parent_edge[x] = eid
                    depth[x] = depth[w] + 1
                    order.append(x)
        if i != n:
            raise BadInputError("edges do not connect all vertices")
        self.parent = parent
        self.depth = depth
        self.edge_of_child = parent_edge          # vertex -> edge id above it
        child_of_edge = [-1] * (n - 1)
        for v in range(n):
            if v != root:
                child_of_edge[parent_edge[v]] = v
        self.child_of_edge = child_of_edge        # edge id -> child endpoint

        self.raw_costs = [Fraction(c) for (_, _, c) in raw_links]
        rounded = round_costs(self.raw_costs)
        self.links = []
        for i, ((u, v, _), (cost, cls)) in enumerate(zip(raw_links, rounded)):
            u, v = int(u), int(v)
            if not (0 <= u < n and 0 <= v < n):
                raise BadInputError(f"link {i} endpoint out of range")
            if u == v:
                raise BadInputError(f"link {i} endpoints must differ")
            self.links.append(Link(u=u, v=v, cost=cost, cls=cls, id=i))

        self.requests = []
        for r in requests:
            if isinstance(r, Request):
                self.requests.append(r)
            else:
                s, t = r
                self.requests.append(Request(s=int(s), t=int(t)))
        for i, r in enumerate(self.requests):
            if r.edge is None and not (0 <= r.s < n and 0 <= r.t < n):
                raise BadInputError(f"request {i} endpoint out of range")

        self._link_edge_sets = None
        self._cov = None

    # -- path primitives ------------------------------------------------

    def lca(self, u: int, v: int) -> int:
        du, dv = self.depth[u], self.depth[v]
        while du > dv:
            u = self.parent[u]
            du -= 1
        while dv > du:
            v = self.parent[v]
            dv -= 1
        while u != v:
            u = self.parent[u]
            v = self.parent[v]
        return u

    def tree_path(self, u: int, v: int) -> TreePath:
        """The unique simple u-v path; a single vertex when u == v."""
        a = self.lca(u, v)
        up_vertices = []
        up_edges = []
        w = u
        while w != a:
            up_vertices.append(w)
            up_edges.append(self.edge_of_child[w])
            w = self.parent[w]
        down_vertices = []
        down_edges = []
        w = v
        while w != a:
            down_vertices.append(w)
            down_edges.append(self.edge_of_child[w])
            w = self.parent[w]
        vertices = up_vertices + [a] + down_vertices[::-1]
        edges = up_edges + down_edges[::-1]
        return TreePath(vertices=tuple(vertices), edges=tuple(edges))

    def link_edges(self, link_id: int) -> frozenset:
        """Edge ids on the tree path between the link's endpoints."""
        if self._link_edge_sets is None:
            self._link_edge_sets = {}
        got = self._link_edge_sets.get(link_id)
        if got is None:
            ln = self.links[link_id]
            got = frozenset(self.tree_path(ln.u, ln.v).edges)
            self._link_edge_sets[link_id] = got
        return got

    def cov(self, edge_id: int) -> frozenset:
        """Ids of links whose tree path contains the edge."""
        if not 0 <= edge_id < self.n - 1:
            raise BadInputError(f"edge id {edge_id} out of range")
        if self._cov is None:
            table = [[] for _ in range(self.n - 1)]
            for ln in self.links:
                for e in self.link_edges(ln.id):
                    table[e].append(ln.id)
            self._cov = [frozenset(ids) for ids in table]
        return self._cov[edge_id]

    def expand_request(self, req: Request) -> list:
        """Edge ids of the request's tree path, ordered from s to t."""
        if req.edge is not None:
            return [req.edge]
        if req.s == req.t:
            return []
        return list(self.tree_path(req.s, req.t).edges)

    # -- serialization ---------------------------------------------------

    def digest(self) -> str:
        return hashlib.sha256(format_instance(self).encode()).hexdigest()


# a cost token may be at most this many characters long, and its
# exponent at most this large in magnitude, so a parsed cost's numerator
# and denominator stay under 2 * MAX_COST_CHARS digits: they format back
# within Python's 4300-digit int-to-str limit, and no short token makes
# Fraction build a huge power of ten
MAX_COST_CHARS = 1000


def _parse_cost(token: str) -> Fraction:
    if len(token) > MAX_COST_CHARS:
        raise ValueError(f"cost longer than {MAX_COST_CHARS} characters")
    exponent = token.lower().partition("e")[2]
    if (exponent.lstrip("+-").isdecimal()
            and abs(int(exponent)) > MAX_COST_CHARS):
        raise ValueError(f"cost exponent beyond {MAX_COST_CHARS}")
    return Fraction(token)


# directive -> the exact shape of its line
_LINE_SHAPES = {
    "n": "n <count> root <vertex>",
    "edge": "edge u v",
    "link": "link u v cost",
    "request": "request s t",
}


def parse_instance(text: str) -> TreeInstance:
    """Parse the line-oriented instance format.

    ``n <count> root <vertex>`` once, then ``edge u v`` lines, then
    ``link u v cost`` lines, then ``request s t`` lines.  ``#`` starts a
    comment; blank lines are skipped.  Costs may be integers, decimals,
    or ``p/q`` rationals, at most ``MAX_COST_CHARS`` characters long and
    with an exponent of at most that magnitude.  A line of the wrong
    shape, a token that does not parse, a second header, a line before
    the header, an endpoint out of range, a self-loop edge or link, a
    duplicate edge, or a nonpositive cost raises ``BadInputError``
    naming the line; a wrong edge count or a disconnected tree names
    the header line.
    """
    n = None
    root = None
    header = None
    edges = []
    edge_line = {}                 # (low, high) endpoint pair -> its line
    raw_links = []
    requests = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        shape = _LINE_SHAPES.get(kind)
        if shape is None:
            raise BadInputError(f"line {lineno}: unknown directive {kind!r}")
        if (len(parts) != len(shape.split())
                or (kind == "n" and parts[2] != "root")):
            raise BadInputError(f"line {lineno}: expected {shape!r}")
        if kind == "n" and n is not None:
            raise BadInputError(f"line {lineno}: second {shape!r} header")
        if kind != "n" and n is None:
            raise BadInputError(
                f"line {lineno}: {kind!r} before the {_LINE_SHAPES['n']!r} header")
        try:
            a = int(parts[1])                  # count, or first endpoint
            b = int(parts[3] if kind == "n" else parts[2])   # root, or second
            cost = _parse_cost(parts[3]) if kind == "link" else None
        except (ValueError, ZeroDivisionError) as exc:
            raise BadInputError(f"line {lineno}: {raw.strip()!r}: {exc}") from exc
        if kind == "n":
            if a < 1:
                raise BadInputError(f"line {lineno}: need at least one vertex")
            if not 0 <= b < a:
                raise BadInputError(f"line {lineno}: root {b} out of range")
            n, root, header = a, b, lineno
            continue
        if not (0 <= a < n and 0 <= b < n):
            raise BadInputError(
                f"line {lineno}: {kind} endpoint out of range 0..{n - 1}")
        if a == b and kind != "request":
            raise BadInputError(f"line {lineno}: {kind} endpoints must differ")
        if kind == "edge":
            first = edge_line.setdefault((min(a, b), max(a, b)), lineno)
            if first != lineno:
                raise BadInputError(
                    f"line {lineno}: edge duplicates the edge on line {first}")
            edges.append((a, b))
        elif kind == "link":
            if cost <= 0:
                raise BadInputError(f"line {lineno}: nonpositive cost {cost}")
            raw_links.append((a, b, cost))
        else:
            requests.append((a, b))
    if n is None:
        raise BadInputError("missing 'n <count> root <vertex>' header")
    try:
        return TreeInstance(n=n, edges=edges, root=root,
                            raw_links=raw_links, requests=requests)
    except BadInputError as exc:
        # every per-line fault is caught above, so what is left is the
        # tree as a whole: its edge count or its connectivity
        raise BadInputError(f"line {header}: {exc}") from exc


def format_instance(inst: TreeInstance) -> str:
    lines = [f"n {inst.n} root {inst.root}"]
    for u, v in inst.edges:
        lines.append(f"edge {u} {v}")
    for ln, raw in zip(inst.links, inst.raw_costs):
        lines.append(f"link {ln.u} {ln.v} {raw}")
    for r in inst.requests:
        if r.edge is not None:
            child = inst.child_of_edge[r.edge]
            lines.append(f"request {inst.parent[child]} {child}")
        else:
            lines.append(f"request {r.s} {r.t}")
    return "\n".join(lines) + "\n"


def load_instance(path: str) -> TreeInstance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_instance(fh.read())
    except OSError as exc:
        raise BadInputError(f"cannot read {path}: {exc}") from exc
