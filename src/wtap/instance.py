"""Rooted tree instances: vertices, links, requests and tree paths.

The tree is stored rooted.  Every non-root vertex has exactly one edge
to its parent, so edges can be addressed two ways: by their input index
(``0..n-2``, the order they appeared in the source) and by their child
endpoint.  Both maps are built once at construction, and a tree path
is the tuple of edge ids that the climb between its ends reads from
them.  The same breadth-first walk keeps the rooted shape every later
stage reads: ``order``, each vertex after its parent, and
``children``, each vertex's children ascending.  The constructor is
the one place that checks an instance's values, and it reads each kind
of entry once, so it takes iterators.  It checks link and request
endpoints in bulk, by ``min``/``max`` over flat lists and one
``map(operator.eq, ...)`` pass for self-loops; only when a bulk check
fails does it go entry by entry, to raise at the first entry at fault
the error an entry-by-entry check would raise first.  The text parser
only tokenizes, into flat endpoint and cost lists with no per-entry
tuple or line number; when the constructor names a ``(kind, index)``
entry, the parser reads the text again to find its line.  A line ends
at ``\\n``, ``\\r\\n`` or ``\\r`` only.  Every endpoint token the parser
has read before maps to the int it made then, so the instance holds
one int object per vertex id, not one per endpoint; the map is dropped
before the constructor runs.  An endpoint, ``n`` or ``root`` token must
be ASCII digits (``int()`` would also read signs, underscores and other
scripts' digits); only a token met for the first time is checked, so
the check costs once per distinct vertex.

Costs enter as positive rationals and are rounded once: divide by the
minimum raw cost, then round up to the next power of two.  After that
every link cost is an integer power of two and is its own cost class.
Only the raw input costs are rational, and the instance holds each one
exactly as an int ratio in two flat lists, numerators and
denominators, not reduced; a denominator of 1 marks a cost given as an
``int``.  The parser passes a digit token on as an ``int`` and an
``a.b`` or ``p/q`` token as the token itself, which the constructor
reads with int arithmetic (``a.b`` as ``int(a + b)`` over a power of
ten); only other tokens (signs, exponents, underscores, a dot at
either end) go through ``Fraction(token)``.  Rounding and
``format_instance`` read the ratios; ``raw_costs``, each cost as an
``int`` or a ``Fraction``, is built on its first read.  The path
solvers' duals are exact ints, and the fractional solver's ``x`` is a
float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count, islice, starmap
from math import gcd
from operator import attrgetter, eq
from typing import Sequence

from .errors import BadInputError


@dataclass(slots=True, unsafe_hash=True)
class Link:
    """An extra edge with a power-of-two cost, which is also its class.

    Immutable by convention: nothing assigns to a link after it is built.
    """

    u: int
    v: int
    cost: int
    id: int


@dataclass(slots=True, unsafe_hash=True)
class Request:
    """A terminal pair; its tree path is the set of edges to cover.

    Immutable by convention: nothing assigns to a request after it is
    built.
    """

    s: int
    t: int


# a cost token may be at most this many characters long, and its
# exponent at most this large in magnitude, so a parsed cost's numerator
# and denominator stay under 10**(2 * MAX_COST_CHARS); TreeInstance
# holds every raw cost to that bound, so each formats back within
# Python's 4300-digit int-to-str limit, and no short token makes
# Fraction build a huge power of ten
MAX_COST_CHARS = 1000
_COST_BOUND = 10 ** (2 * MAX_COST_CHARS)
_TENS = [10 ** k for k in range(32)]   # the denominator of an a.b token


def _cost_ratio(cost) -> tuple:
    """``(num, den)`` with ``num / den`` the exact value of a raw cost,
    not reduced.  ``den == 1`` marks a cost given as an ``int``; any
    other cost has ``den >= 2``, a whole one read as ``(2 * c, 2)``.

    A string ``a.b`` or ``p/q`` of decimal digits is read with int
    arithmetic; anything else is read as ``Fraction(cost)`` reads it.
    """
    if type(cost) is int:
        return cost, 1
    if type(cost) is str:
        whole, dot, digits = cost.partition(".")
        if dot:
            if whole.isdecimal() and digits.isdecimal():
                k = len(digits)
                return int(whole + digits), _TENS[k] if k < 32 else 10 ** k
        else:
            p, slash, q = cost.partition("/")
            if slash and p.isdecimal() and q.isdecimal():
                den = int(q)
                if den:
                    return (int(p), den) if den > 1 else (2 * int(p), 2)
    num, den = Fraction(cost).as_integer_ratio()
    return (num, den) if den > 1 else (2 * num, 2)


def _cost_classes(nums: Sequence, dens: Sequence) -> list:
    """Each cost's class: normalize by the minimum, then round up to a
    power of two ``2**cls``, ``cls >= 0``, by integer arithmetic.

    Cost ``i`` is ``nums[i] / dens[i]``, ``dens[i] >= 1``.  Rejects
    nonpositive entries, naming the ``("link", i)`` entry at fault.
    """
    if not nums:
        return []
    if min(nums) <= 0:
        i = next(i for i, num in enumerate(nums) if num <= 0)
        raise BadInputError(
            f"link {i} cost is not positive; buy zero-cost links up "
            f"front and drop them", ("link", i))
    lo_num, lo_den = nums[0], dens[0]       # the least cost so far
    for num, den in zip(nums, dens):
        if num * lo_den < lo_num * den:
            lo_num, lo_den = num, den
    # with q = ceil(c / lo) >= 1 the class is the bit length of q - 1
    return [(-(-num * lo_den // (den * lo_num)) - 1).bit_length()
            for num, den in zip(nums, dens)]


def _check_ends(n: int, kind: str, i: int, u: int, v: int):
    """Both endpoints in ``0..n-1``, and distinct unless a request."""
    if not (0 <= u < n and 0 <= v < n):
        raise BadInputError(f"{kind} {i} endpoint out of range 0..{n - 1}", (kind, i))
    if u == v and kind != "request":
        raise BadInputError(f"{kind} {i} endpoints must differ", (kind, i))


def _ends_fit(n: int, ends: list) -> bool:
    """Every endpoint in ``0..n-1``, checked in bulk."""
    return not ends or (0 <= min(ends) and max(ends) < n)


def _check_links(n: int, ends: list, nums: list, dens: list):
    """Link by link, what the bulk checks check in aggregate: both ends,
    then the size of the cost in lowest terms; raises at the first link
    at fault.  ``ends`` holds each link's ``u, v`` flat, and may run one
    link past the costs read."""
    for i in range(len(ends) // 2):
        _check_ends(n, "link", i, ends[2 * i], ends[2 * i + 1])
        if i < len(nums):
            g = gcd(nums[i], dens[i])
            if not (-_COST_BOUND < nums[i] // g < _COST_BOUND
                    and dens[i] // g < _COST_BOUND):
                raise BadInputError(f"link {i} cost has a numerator or denominator "
                                    f"over {2 * MAX_COST_CHARS} digits", ("link", i))


class TreeInstance:
    """Immutable rooted spanning tree with links and a request stream.

    Parameters
    ----------
    n : vertex count; vertices are ``0..n-1``.
    edges : the n-1 tree edges as (u, v) pairs; index = edge id.
    root : root vertex id.
    raw_links : (u, v, raw_cost) triples; costs rounded at construction.
        A raw cost is an ``int`` or anything ``Fraction()`` reads; it
        reads back from ``raw_costs`` as an ``int`` if given as one,
        else as a ``Fraction``.
    requests : arrival-ordered terminal pairs.
    """

    def __init__(self, n: int, edges: Sequence, root: int,
                 raw_links: Sequence = (), requests: Sequence = ()):
        if n < 1:
            raise BadInputError("need at least one vertex")
        if not 0 <= root < n:
            raise BadInputError(f"root {root} out of range 0..{n - 1}")
        self.n = n
        self.root = root
        self.edges = [(int(u), int(v)) for u, v in edges]
        edge_id = {}                # low * n + high endpoint -> edge id
        for eid, (u, v) in enumerate(self.edges):
            if not (0 <= u < n and 0 <= v < n) or u == v:
                _check_ends(n, "edge", eid, u, v)
            earlier = edge_id.setdefault(u * n + v if u < v else v * n + u, eid)
            if earlier != eid:
                raise BadInputError(f"edge {eid} duplicates edge {earlier}",
                                    ("edge", eid), ("edge", earlier))
        if len(self.edges) != n - 1:
            raise BadInputError(f"expected {n - 1} tree edges, got {len(self.edges)}")

        # each vertex's neighbours; the walk drops its parent from the
        # list when it reaches the vertex, which leaves its children
        self.children = children = [[] for _ in range(n)]   # children, ascending
        for u, v in self.edges:
            children[u].append(v)
            children[v].append(u)
        self.parent = parent = [-1] * n
        self.edge_of_child = parent_edge = [-1] * n     # vertex -> edge id above it
        self.child_of_edge = child_of_edge = [-1] * (n - 1)  # edge id -> child end
        self.depth = depth = [0] * n
        self.order = order = [root]                     # BFS order, root first
        for w in order:
            kids = children[w]
            if w != root:
                kids.remove(parent[w])
            kids.sort()
            for x in kids:
                if parent[x] >= 0 or x == root:
                    # n - 1 edges closing a cycle leave some vertex out
                    raise BadInputError("edges do not connect all vertices")
                eid = edge_id[w * n + x if w < x else x * n + w]
                parent[x] = w
                parent_edge[x] = eid
                child_of_edge[eid] = x
                depth[x] = depth[w] + 1
                order.append(x)
        if len(order) != n:
            raise BadInputError("edges do not connect all vertices")
        del edge_id                 # freed before the links are read

        # one pass over the links, which may be an iterator, into flat
        # lists that are checked in bulk: ends holds each link's u, v,
        # and link i's raw cost is exactly nums[i] / dens[i], not
        # reduced, with dens[i] == 1 marking a cost given as an int.
        # When a read or a bulk check fails, _check_links goes link by
        # link to raise at the first one at fault.
        ends, nums, dens = [], [], []
        try:
            for u, v, c in raw_links:
                ends += int(u), int(v)
                num, den = _cost_ratio(c)
                nums.append(num)
                dens.append(den)
        except (ArithmeticError, TypeError, ValueError):
            _check_links(n, ends, nums, dens)     # an earlier link may be at fault
            raise
        if not _ends_fit(n, ends) or any(map(eq, islice(ends, 0, None, 2),
                                             islice(ends, 1, None, 2))):
            _check_links(n, ends, nums, dens)
        if nums and not (-_COST_BOUND < min(nums) and max(nums) < _COST_BOUND
                         and max(dens) < _COST_BOUND):
            _check_links(n, ends, nums, dens)     # bounds hold in lowest terms
        self._cost_nums, self._cost_dens = nums, dens
        ends = iter(ends)                         # u, then v, of each link
        self.links = list(map(Link, ends, ends,
                              map((1).__lshift__, _cost_classes(nums, dens)), count()))

        self.requests = [r if isinstance(r, Request) else Request(int(r[0]), int(r[1]))
                         for r in requests]
        if not _ends_fit(n, [*map(attrgetter("s"), self.requests),
                             *map(attrgetter("t"), self.requests)]):
            for i, r in enumerate(self.requests):
                _check_ends(n, "request", i, r.s, r.t)

    @cached_property
    def raw_costs(self) -> list:
        """The raw link costs, by link id: an ``int`` for a cost given as
        one, a ``Fraction`` for any other; built on first read."""
        return [num if den == 1 else Fraction(num, den)
                for num, den in zip(self._cost_nums, self._cost_dens)]

    # -- path primitives ------------------------------------------------

    def tree_path(self, u: int, v: int) -> tuple:
        """Edge ids of the unique u-v path, in order from u; ``()`` when
        u == v.

        One climb: the deeper endpoint steps up until the two meet.
        """
        parent, depth, up = self.parent, self.depth, self.edge_of_child
        edges, down = [], []            # u's side and v's side, upwards
        while u != v:
            if depth[u] >= depth[v]:
                edges.append(up[u])
                u = parent[u]
            else:
                down.append(up[v])
                v = parent[v]
        edges.extend(reversed(down))
        return tuple(edges)

    def cov(self, edge_id: int) -> frozenset:
        """Ids of links whose tree path contains the edge; walks every
        link's path on each call."""
        if not 0 <= edge_id < self.n - 1:
            raise BadInputError(f"edge id {edge_id} out of range")
        return frozenset(ln.id for ln in self.links
                         if edge_id in self.tree_path(ln.u, ln.v))


def _cost_token(token: str) -> int | str | Fraction:
    """A cost token checked, in the form the constructor reads: an
    ``int`` for a digit string, the token itself for decimal digits with
    one dot or one slash, and ``Fraction(token)`` for any other token
    once its length and exponent are within ``MAX_COST_CHARS``."""
    if len(token) > MAX_COST_CHARS:
        raise ValueError(f"cost longer than {MAX_COST_CHARS} characters")
    if token.isdecimal():
        return int(token)
    if token.replace(".", "", 1).isdecimal():       # a.b, or a. or .b
        return token
    p, slash, q = token.partition("/")
    if slash and p.isdecimal() and q.isdecimal():
        if not int(q):
            raise ZeroDivisionError(token)
        return token
    # Fraction reads "_" between digits, so "1e30_000" is a 30000 exponent
    exponent = token.lower().partition("e")[2].replace("_", "")
    digits = exponent[1:] if exponent[:1] in ("+", "-") else exponent
    if digits.isdecimal() and abs(int(exponent)) > MAX_COST_CHARS:
        raise ValueError(f"cost exponent beyond {MAX_COST_CHARS}")
    return Fraction(token)


def _digits(token: str) -> int:
    """The int a token of ASCII digits ``0-9`` spells; any other token
    raises ``ValueError``, where ``int()`` would read signs, underscores
    and other scripts' digits."""
    if not (token.isdigit() and token.isascii()):
        raise ValueError(f"expected digits 0-9, got {token!r}")
    return int(token)


# directive -> the exact shape of its line
_LINE_SHAPES = {
    "n": "n <count> root <vertex>",
    "edge": "edge u v",
    "link": "link u v cost",
    "request": "request s t",
}
_ARITY = {kind: len(shape.split()) for kind, shape in _LINE_SHAPES.items()}


def parse_instance(text: str) -> TreeInstance:
    """Parse the line-oriented instance format.

    ``n <count> root <vertex>`` once, then ``edge u v`` lines, then
    ``link u v cost`` lines, then ``request s t`` lines.  ``#`` starts a
    comment; blank lines are skipped.  Costs may be integers, decimals,
    or ``p/q`` rationals, at most ``MAX_COST_CHARS`` characters long and
    with an exponent of at most that magnitude.  A line of the wrong
    shape, a token that does not parse (a count, root or endpoint that
    is not ASCII digits among them), a second header or a line before
    the header raises ``BadInputError`` naming the line.  ``TreeInstance``
    checks every value; its error is re-raised naming the line of the
    entry at fault (and the line of the earlier edge a duplicate
    repeats), found by reading the text again, or the header line when
    the fault is the tree as a whole.
    """
    n = root = header = None
    edges, links, requests, costs = [], [], [], []     # endpoints flat
    ends_of = {"edge": edges, "link": links, "request": requests}
    for lineno, line in enumerate(_lines(text), start=1):
        if "#" in line:
            line = line.partition("#")[0]
        parts = line.split()
        if not parts:
            continue
        kind = parts[0]
        ends = ends_of.get(kind)
        if ends is None or n is None or len(parts) != _ARITY[kind]:
            # the header, or a line that is no well-formed entry
            if kind not in _ARITY:
                raise BadInputError(f"line {lineno}: unknown directive {kind!r}")
            if len(parts) != _ARITY[kind] or (kind == "n" and parts[2] != "root"):
                raise BadInputError(f"line {lineno}: expected {_LINE_SHAPES[kind]!r}")
            if kind != "n" or n is not None:
                what = "second" if kind == "n" else f"{kind!r} before the"
                raise BadInputError(
                    f"line {lineno}: {what} {_LINE_SHAPES['n']!r} header")
        try:
            if ends is None:
                n, root, header = _digits(parts[1]), _digits(parts[3]), lineno
                # endpoint token -> its int: every entry that names a
                # vertex shares one object, and a repeated token skips
                # _digits()
                ids = {parts[3]: root}
                continue
            u = ids.get(parts[1])
            if u is None:
                u = ids[parts[1]] = _digits(parts[1])
            v = ids.get(parts[2])
            if v is None:
                v = ids[parts[2]] = _digits(parts[2])
            ends.append(u)
            ends.append(v)
            if ends is links:
                costs.append(_cost_token(parts[3]))
        except ValueError as exc:
            raise BadInputError(f"line {lineno}: {exc}") from exc
        except ZeroDivisionError as exc:
            raise BadInputError(f"line {lineno}: cost has a zero denominator") from exc
    if n is None:
        raise BadInputError("missing 'n <count> root <vertex>' header")
    # the instance holds each int from here on, and each flat list is
    # freed once the constructor has read it; request endpoints are ints
    # already, so the parser builds each Request and the constructor
    # keeps it as it is
    del ids, ends_of, ends
    edges, links, requests = iter(edges), iter(links), iter(requests)
    try:
        return TreeInstance(n=n, edges=zip(edges, edges), root=root,
                            raw_links=zip(links, links, costs),
                            requests=starmap(Request, zip(requests, requests)))
    except BadInputError as exc:
        if not exc.items:
            # the tree as a whole: its size, root, edge count or connectivity
            raise BadInputError(f"line {header}: {exc}") from exc
        (kind, i), *earlier = exc.items
        also = "".join(f"; {k} {j} is on line {_entry_line(text, k, j)}"
                       for k, j in earlier)
        raise BadInputError(f"line {_entry_line(text, kind, i)}: {exc}{also}") from exc


def _lines(text: str) -> list:
    """The text's lines, broken at ``\\n``, ``\\r\\n`` and ``\\r`` only;
    ``str.splitlines`` would also break at ``\\x0b``, ``\\x0c``,
    ``\\x1c``-``\\x1e``, ``\\x85``, ``\\u2028`` and ``\\u2029``, even
    inside a comment."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _entry_line(text: str, kind: str, index: int) -> int:
    """The line of entry ``index`` of ``kind`` in a text that parsed."""
    firsts = (line.partition("#")[0].split(None, 1)[:1] for line in _lines(text))
    return [no for no, first in enumerate(firsts, start=1) if first == [kind]][index]


def format_instance(inst: TreeInstance) -> str:
    """The instance in the text format, each raw cost written as
    ``str()`` of its value, from its ratio in lowest terms."""
    lines = [f"n {inst.n} root {inst.root}"]
    lines += (f"edge {u} {v}" for u, v in inst.edges)
    lines += (f"link {ln.u} {ln.v} {_ratio_text(num, den)}" for ln, num, den
              in zip(inst.links, inst._cost_nums, inst._cost_dens))
    lines += (f"request {r.s} {r.t}" for r in inst.requests)
    return "\n".join(lines) + "\n"


def _ratio_text(num: int, den: int) -> str:
    """``num / den`` written as ``str(Fraction(num, den))`` writes it."""
    g = gcd(num, den)
    return f"{num // g}" if den == g else f"{num // g}/{den // g}"


def load_instance(path: str) -> TreeInstance:
    """Parse the instance file at ``path``; a file that cannot be opened
    or is not UTF-8 text raises ``BadInputError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise BadInputError(f"cannot read {path}: {exc}") from exc
    return parse_instance(text)
