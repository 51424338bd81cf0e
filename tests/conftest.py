"""Shared fixtures and independent reference implementations.

The reference helpers here are deliberately written with different
algorithms than the package (BFS instead of parent walks, recursive
subset search instead of bitmask DP, per-request cover lists instead of
the heap sweep, centroid backbones instead of heavy paths, two pruning
stages that each list what they remove instead of one kept/removed
pass, a parser that keeps every entry's tuple and line number instead
of flat endpoint lists and a re-scan on error, a type-3 sweep over
every kept link instead of one edge's coverage list, an adversary
that recomputes each level's block size and takes a keyed minimum
instead of indexing precomputed rows, a path solver that records each
type-1 link's charged edges as it serves instead of a replay of the
serve records, one dict of spans per path filled link by link instead
of one walk over all links and one dedup over global edge slots, a
fractional solver whose optimum DP keeps one entry per requested edge
and reads every covering link instead of one entry per requested
coverage run over its undominated links) so that agreement between the
two actually means something.
"""

import random
import re
from bisect import bisect_left, bisect_right
from collections import deque
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest
from hypothesis import settings

from wtap.adversary import CanonicalWrapper
from wtap.decomposition import project
from wtap.errors import (BadInputError, InfeasibleInstanceError,
                         InvariantViolationError)
from wtap.fractional import FractionalPathSolver
from wtap.instance import (_ARITY, _COST_BOUND, _LINE_SHAPES, MAX_COST_CHARS,
                           Link, Request, _check_ends)
from wtap.oracles import OracleResult
from wtap.path_online import PathSolver, ServeRecord
from wtap.pruning import PathLink

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def PL(left, right, cls, id):
    """PathLink with the cost implied by its class."""
    return PathLink(left=left, right=right, cost=1 << cls, id=id)


def bought_of_type(solver, kind):
    """A path solver's purchases of one type (1, 2 or 3), in order."""
    return [lid for lid, k in solver.bought.items() if k == kind]


def bought_cost_by_type(solver):
    """A path solver's purchase costs of type 1, 2 and 3."""
    by_id = solver.minimal.by_id
    return tuple(sum(by_id[lid].cost for lid in bought_of_type(solver, kind))
                 for kind in (1, 2, 3))


def charge_weighted_total(solver):
    """A path solver's charge-weighted dual summed over every edge."""
    return solver._prefix(solver.m)


def run_sequence(minimal, requests, n_global=None):
    """A path solver that served a whole request sequence."""
    solver = PathSolver(minimal, n_global=n_global)
    for e in requests:
        solver.serve(e)
    return solver


def run_pairs(solver, pairs):
    """A tree solver's report for each (s, t) pair, served in order."""
    return [solver.serve_pair(s, t) for s, t in pairs]


def run_edges(solver, edges):
    """A fractional solver's record for each edge, served in order."""
    return [solver.serve(e) for e in edges]


def bfs_path(n, edges, u, v):
    """Vertex sequence of the unique u-v path, found by plain BFS."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    prev = {u: None}
    q = deque([u])
    while q:
        w = q.popleft()
        if w == v:
            break
        for x in adj[w]:
            if x not in prev:
                prev[x] = w
                q.append(x)
    out = [v]
    while prev[out[-1]] is not None:
        out.append(prev[out[-1]])
    return out[::-1]


def brute_cover(edge_count, links, requested):
    """Minimum cover cost by trying subsets smallest-first; None if infeasible."""
    need = set(requested)
    links = list(links)
    best = None
    for size in range(len(links) + 1):
        for combo in combinations(links, size):
            covered = set()
            for l in combo:
                covered.update(range(l.left, l.right))
            if need <= covered:
                cost = sum(l.cost for l in combo)
                if best is None or cost < best:
                    best = cost
        # cost is not monotone in subset size, so keep scanning all sizes
    return best


def _cover_lists(links, requests):
    """Per requested edge (ascending), the links covering it."""
    by_left = sorted(links, key=lambda l: l.left)
    active = []
    out = []
    ptr = 0
    for r in requests:
        while ptr < len(by_left) and by_left[ptr].left <= r:
            active.append(by_left[ptr])
            ptr += 1
        active = [l for l in active if l.right > r]
        out.append(list(active))
    return out


def reference_opt_path_dp(edge_count, links, requested_edges):
    """The interval-cover DP over explicit per-request cover lists.

    Time grows with the sum, over requested edges, of the links covering
    each; the package's heap sweep must agree with it on the optimum,
    the witness and the error text.
    """
    reqs = sorted(set(requested_edges))
    for r in reqs:
        if not 0 <= r < edge_count:
            raise InfeasibleInstanceError(f"requested edge {r} out of range")
    if not reqs:
        return OracleResult(0, frozenset(), "interval-dp")
    covers = _cover_lists(links, reqs)
    k = len(reqs)
    best = [None] * (k + 1)
    best[k] = (0, None, None)
    for i in range(k - 1, -1, -1):
        r = reqs[i]
        pick = None
        for l in covers[i]:
            j = bisect_left(reqs, l.right)
            cand = l.cost + best[j][0]
            if pick is None or cand < pick[0] or (cand == pick[0] and l.id < pick[1]):
                pick = (cand, l.id, j)
        if pick is None:
            raise InfeasibleInstanceError(f"edge {r} has no covering link")
        best[i] = pick
    witness = set()
    i = 0
    while i < k:
        _, lid, j = best[i]
        witness.add(lid)
        i = j
    return OracleResult(best[0][0], frozenset(witness), "interval-dp")


def _reference_prune_rooted(links):
    """(kept, removed) rooted links, each ascending by id."""
    rooted = [l for l in links if l.rooted]
    order = sorted(rooted, key=lambda l: (l.cost, -l.right, l.id))
    kept = []
    max_right = -1
    for l in order:
        if l.right > max_right:
            kept.append(l)
            max_right = l.right
    kept_ids = {l.id for l in kept}
    removed = [l for l in rooted if l.id not in kept_ids]
    kept.sort(key=lambda l: l.id)
    removed.sort(key=lambda l: l.id)
    return kept, removed


def _reference_prune_class(links):
    """(kept, removed) for one class's minimum interval cover, each
    ascending by id."""
    if not links:
        return [], []
    by_left = sorted(links, key=lambda l: (l.left, -l.right, l.id))
    kept_ids = set()
    i, pos, best = 0, by_left[0].left, None
    while True:
        while i < len(by_left) and by_left[i].left <= pos:
            l = by_left[i]
            i += 1
            if l.right > pos and (best is None or l.right > best.right
                                  or (l.right == best.right and l.id < best.id)):
                best = l
        if best is not None:
            kept_ids.add(best.id)
            pos, best = best.right, None
        elif i < len(by_left):
            pos = by_left[i].left
        else:
            break
    kept = [l for l in links if l.id in kept_ids]
    removed = [l for l in links if l.id not in kept_ids]
    kept.sort(key=lambda l: l.id)
    removed.sort(key=lambda l: l.id)
    return kept, removed


def reference_build_minimal(links, kept_from=None):
    """(kept links, kept_from, removed (link, reason) pairs): each stage
    lists what it removes with the stage's own reason, and the lists
    are merged and sorted by id."""
    kept_rooted, removed_rooted = _reference_prune_rooted(links)
    survivors = kept_rooted + [l for l in links if not l.rooted]
    by_cost = {}
    for l in survivors:
        by_cost.setdefault(l.cost, []).append(l)
    kept = []
    removed = [(l, "dominated-rooted") for l in removed_rooted]
    for cost in sorted(by_cost):
        k, r = _reference_prune_class(by_cost[cost])
        kept.extend(k)
        removed.extend((l, "redundant-cover") for l in r)
    kept.sort(key=lambda l: l.id)
    removed.sort(key=lambda lr: lr[0].id)
    if kept_from is None:
        kept_from = {l.id: l.id for l in kept}
    else:
        kept_from = {l.id: kept_from[l.id] for l in kept}
    return kept, kept_from, removed


def _reference_round_costs(raw_costs):
    """The rounded cost of each raw cost, from one ``(num, den)`` pair
    each."""
    if not raw_costs:
        return []
    pairs = [(c, 1) if type(c) is int else (c.numerator, c.denominator)
             for c in raw_costs]
    lo_num, lo_den = pairs[0]
    for i, (num, den) in enumerate(pairs):
        if num <= 0:
            raise BadInputError(
                f"link {i} cost is not positive; buy zero-cost links up "
                f"front and drop them", ("link", i))
        if num * lo_den < lo_num * den:
            lo_num, lo_den = num, den
    out = []
    for num, den in pairs:
        q = -(-num * lo_den // (den * lo_num))
        j = (q - 1).bit_length()
        out.append(1 << j)
    return out


def reference_instance(n, edges, root, raw_links, requests):
    """The instance fields ``TreeInstance`` must build from the same
    entries, raising the same ``BadInputError`` in the same order:
    edges, tree shape, link ends and sizes, link costs, requests."""
    if n < 1:
        raise BadInputError("need at least one vertex")
    if not 0 <= root < n:
        raise BadInputError(f"root {root} out of range 0..{n - 1}")
    edges = [(int(u), int(v)) for u, v in edges]
    edge_id = {}
    for eid, (u, v) in enumerate(edges):
        _check_ends(n, "edge", eid, u, v)
        earlier = edge_id.setdefault((min(u, v), max(u, v)), eid)
        if earlier != eid:
            raise BadInputError(f"edge {eid} duplicates edge {earlier}",
                                ("edge", eid), ("edge", earlier))
    if len(edges) != n - 1:
        raise BadInputError(f"expected {n - 1} tree edges, got {len(edges)}")
    if len(set(_reachable(n, edges, root))) != n:
        raise BadInputError("edges do not connect all vertices")
    raw_costs = []
    for i, (u, v, c) in enumerate(raw_links):
        _check_ends(n, "link", i, int(u), int(v))
        if type(c) is not int and type(c) is not Fraction:
            c = Fraction(c)
        if max(abs(c.numerator), c.denominator) >= _COST_BOUND:
            raise BadInputError(f"link {i} cost has a numerator or denominator "
                                f"over {2 * MAX_COST_CHARS} digits", ("link", i))
        raw_costs.append(c)
    links = [Link(int(u), int(v), cost, i)
             for i, ((u, v, _), cost)
             in enumerate(zip(raw_links, _reference_round_costs(raw_costs)))]
    out = []
    for i, (s, t) in enumerate(requests):
        r = Request(int(s), int(t))
        _check_ends(n, "request", i, r.s, r.t)
        out.append(r)
    return SimpleNamespace(n=n, root=root, edges=edges, links=links,
                           raw_costs=raw_costs, requests=out)


def _reachable(n, edges, root):
    """The vertices reachable from ``root``, in BFS order."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {root}
    order = [root]
    for w in order:
        for x in adj[w]:
            if x not in seen:
                seen.add(x)
                order.append(x)
    return order


def _reference_digits(token):
    """``int(token)`` for a token that matches ``[0-9]+`` in full."""
    if re.fullmatch("[0-9]+", token) is None:
        raise ValueError(f"expected digits 0-9, got {token!r}")
    return int(token)


def _reference_cost(token):
    """An ``int`` for a digit string, one reduced ``Fraction`` built from
    ints for ``a.b`` or ``p/q``; any other token is ``Fraction(token)``
    once its length and exponent are within ``MAX_COST_CHARS``."""
    if len(token) > MAX_COST_CHARS:
        raise ValueError(f"cost longer than {MAX_COST_CHARS} characters")
    if token.isdecimal():
        return int(token)
    whole, dot, digits = token.partition(".")
    if dot:
        if whole.isdecimal() and digits.isdecimal():
            return Fraction(int(whole + digits), 10 ** len(digits))
    else:
        p, slash, q = token.partition("/")
        if slash and p.isdecimal() and q.isdecimal():
            return Fraction(int(p), int(q))
    # Fraction reads "_" between digits, so "1e30_000" is a 30000 exponent
    exponent = token.lower().partition("e")[2].replace("_", "")
    digits = exponent[1:] if exponent[:1] in ("+", "-") else exponent
    if digits.isdecimal() and abs(int(exponent)) > MAX_COST_CHARS:
        raise ValueError(f"cost exponent beyond {MAX_COST_CHARS}")
    return Fraction(token)


def reference_parse_instance(text):
    """The instance format parsed with one tuple and one line number kept
    per entry, so an error names its line from the stored numbers;
    returns the fields ``parse_instance`` must give, or raises the same
    ``BadInputError`` text."""
    n = root = header = None
    entries = {"edge": [], "link": [], "request": []}
    lines = {"edge": [], "link": [], "request": []}
    # only "\n", "\r\n" and "\r" end a line; other Unicode line
    # boundaries (form feed, "\x85", "\u2028", ...) may sit in a comment
    for lineno, line in enumerate(re.split("\r\n|\r|\n", text), start=1):
        if "#" in line:
            line = line.partition("#")[0]
        parts = line.split()
        if not parts:
            continue
        kind = parts[0]
        arity = _ARITY.get(kind)
        if arity is None:
            raise BadInputError(f"line {lineno}: unknown directive {kind!r}")
        if len(parts) != arity or (kind == "n" and parts[2] != "root"):
            raise BadInputError(f"line {lineno}: expected {_LINE_SHAPES[kind]!r}")
        if kind == "n" and n is not None:
            raise BadInputError(f"line {lineno}: second {_LINE_SHAPES['n']!r} header")
        if kind != "n" and n is None:
            raise BadInputError(
                f"line {lineno}: {kind!r} before the {_LINE_SHAPES['n']!r} header")
        try:
            a = _reference_digits(parts[1])
            b = _reference_digits(parts[3] if kind == "n" else parts[2])
            cost = _reference_cost(parts[3]) if kind == "link" else None
        except ValueError as exc:
            raise BadInputError(f"line {lineno}: {exc}") from exc
        except ZeroDivisionError as exc:
            raise BadInputError(f"line {lineno}: cost has a zero denominator") from exc
        if kind == "n":
            n, root, header = a, b, lineno
            continue
        entries[kind].append((a, b) if cost is None else (a, b, cost))
        lines[kind].append(lineno)
    if n is None:
        raise BadInputError("missing 'n <count> root <vertex>' header")
    try:
        return reference_instance(n, entries["edge"], root, entries["link"],
                                   entries["request"])
    except BadInputError as exc:
        if not exc.items:
            raise BadInputError(f"line {header}: {exc}") from exc
        (kind, i), *earlier = exc.items
        also = "".join(f"; {k} {j} is on line {lines[k][j]}" for k, j in earlier)
        raise BadInputError(f"line {lines[kind][i]}: {exc}{also}") from exc


def tree_arrays(n, edges, root=0):
    """(parent, children, order): children sorted ascending, and the BFS
    order from the root, each vertex after its parent."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * n
    children = [[] for _ in range(n)]
    seen = [False] * n
    seen[root] = True
    order = [root]
    for u in order:
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                parent[w] = u
                children[u].append(w)
                order.append(w)
    for c in children:
        c.sort()
    return parent, children, order


def reference_decompose_arrays(parent, children, order):
    """The recursive balanced caterpillar: per component, the backbone
    from the component's root through its centroid, then down the
    largest child subtree (ties by smallest id) to a leaf; the hanging
    pieces are queued first in, first out.  O(n log n), one centroid
    search per component; the package's heavy-path decomposition must
    return the same ``(paths, pid_above)``.
    """
    n = len(parent)
    root = order[0]
    size = [1] * n
    for w in reversed(order):
        p = parent[w]
        if p >= 0:
            size[p] += size[w]

    paths = []
    pid_above = [-1] * n
    queue = deque()
    queue.append((root, children[root]))
    while queue:
        rc, comp_children = queue.popleft()
        if not comp_children:
            continue
        comp_size = 1
        for c in comp_children:
            comp_size += size[c]

        # centroid: smallest max piece after vertex removal, ties by id
        best_v = rc
        best_f = max(size[c] for c in comp_children)
        stack = list(comp_children)
        while stack:
            u = stack.pop()
            f = comp_size - size[u]
            for c in children[u]:
                if size[c] > f:
                    f = size[c]
                stack.append(c)
            if f < best_f or (f == best_f and u < best_v):
                best_v, best_f = u, f

        # backbone: component root down to centroid, then follow the
        # largest child subtree (ties by smallest id) to a leaf
        up = []
        w = best_v
        while w != rc:
            up.append(w)
            w = parent[w]
        backbone = [rc] + up[::-1]
        w = best_v
        while True:
            ch = comp_children if w == rc else children[w]
            if not ch:
                break
            nxt = ch[0]
            for c in ch[1:]:
                if size[c] > size[nxt]:
                    nxt = c
            backbone.append(nxt)
            w = nxt

        pid = len(paths)
        paths.append(backbone)
        for v in backbone[1:]:
            pid_above[v] = pid
        for i2, w in enumerate(backbone):
            nxt = backbone[i2 + 1] if i2 + 1 < len(backbone) else -1
            ch = comp_children if w == rc else children[w]
            for c in ch:
                if c != nxt:
                    queue.append((w, [c]))
    return paths, pid_above


def pairwise_width(n, edges, pid_above, root=0):
    """Max number of distinct decomposition paths met by any u-v path."""
    parent, _, order = tree_arrays(n, edges, root)
    depth = [0] * n
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
    best = 0
    for u in range(n):
        for v in range(u + 1, n):
            a, b = u, v
            pids = set()
            while a != b:
                if depth[a] < depth[b]:
                    a, b = b, a
                pids.add(pid_above[a])
                a = parent[a]
            best = max(best, len(pids))
    return best


def reference_path_link_sets(inst, decomp):
    """Each path's ``(links, kept_from)``, as the one-walk set-up yields
    them: every link projected on its own, into one dict per path keyed
    by ``(left, right)``, each kept to its cheapest source (the lowest
    id among equal costs), then each path's spans sorted."""
    spans = [dict() for _ in decomp.paths]
    for ln in inst.links:
        for pid, left, right in project(inst, decomp, ln):
            cur = spans[pid].get((left, right))
            if cur is None or ln.cost < cur.cost:
                spans[pid][(left, right)] = ln
    out = []
    for by_span in spans:
        links = []
        kept_from = {}
        for idx, ((left, right), src) in enumerate(sorted(by_span.items())):
            links.append(PathLink(left, right, src.cost, idx))
            kept_from[idx] = src.id
        out.append((links, kept_from))
    return out


class ReferenceSweepSolver(PathSolver):
    """A path solver whose type-3 sweep scans every kept link."""

    def _sweep(self, trig):
        swept = []
        for l in self.minimal.links:
            if (l.id not in self.bought and l.cost < trig.cost
                    and 0 < l.left < trig.right < l.right):
                self._buy(l, 3)
                swept.append(l.id)
        return tuple(swept)


class ReferenceChargeSolver(PathSolver):
    """A path solver that records, as it serves, each type-1 link's
    charged edges in ``charged`` (type-1 id -> edges, in purchase order)
    and derives its hat dual from them."""

    def __init__(self, minimal, n_global=None):
        super().__init__(minimal, n_global=n_global)
        self.charged = {}

    def serve(self, e):
        if not 0 <= e < self.m:
            raise BadInputError(f"edge {e} out of range")
        if self.covered[e]:
            return ServeRecord(e, 0, None, None, (), self.frontier, True)
        cands = self.minimal.cov_ids[e]
        if not cands:
            raise InfeasibleInstanceError(f"edge {e} has no covering link")
        delta = min(self.residual[lid] for lid in cands)
        pick = min((self.minimal.by_id[lid] for lid in cands
                    if self.residual[lid] == delta),
                   key=lambda l: (-l.cost, -l.right, l.id))
        self.y[e] += delta
        for lid in cands:
            self.residual[lid] -= delta
        self._buy(pick, 1)
        charged = []
        for i in range(max(pick.left, self.frontier), pick.right):
            if self.y[i] > 0:
                self.charge[i] += 1
                self._add_product(i, self.y[i])
                charged.append(i)
        self.charged[pick.id] = charged
        trig = None
        for l in reversed(self.rooted_by_right):
            if l.right <= self.frontier:
                break
            if self._prefix(l.right) > l.cost:
                trig = l
                break
        bought2, swept = None, ()
        if trig is not None:
            if trig.id not in self.bought:
                self._buy(trig, 2)
                bought2 = trig.id
                swept = self._sweep(trig)
            self.frontier = trig.right
        return ServeRecord(e, delta, pick.id, bought2, swept, self.frontier)

    def hat_dual(self):
        """Per edge, the dual times the charged sets holding it, counting
        only type-1 links costing at least (max type-1 cost)/n**2."""
        n = self.n_global
        by_id = self.minimal.by_id
        hat = [0] * self.m
        if not self.charged:
            return hat
        cmax = max(by_id[lid].cost for lid in self.charged)
        for lid, edges in self.charged.items():
            if by_id[lid].cost * n * n >= cmax:
                for e in edges:
                    hat[e] += self.y[e]
        return hat


class ReferenceFractionalSolver(FractionalPathSolver):
    """A fractional solver whose optimum DP keeps one entry per requested
    edge and evaluates every link covering it, and whose coverage sums a
    generator."""

    def _note_request(self, e):
        pos = self.requested
        k = bisect_left(pos, e)
        if k < len(pos) and pos[k] == e:
            return
        pos.insert(k, e)
        d = k if self._stale is None else min(self._stale, k)
        cov_ids = self.minimal.cov_ids
        if not self._witness.isdisjoint(cov_ids[e]):
            self._stale = d
            return
        g, choice, g_at, lefts = self._g, self._choice, self._g_at, self._lefts
        cost_of, left_of = self._cost_of, self._left_of
        del g[d + 1:], choice[d + 1:]
        r = bisect_right(lefts, pos[d - 1]) if d else 0
        for j in range(d, len(pos)):
            p = pos[j]
            gj = g[j]
            x = lefts[r]
            while x <= p:
                g_at[x] = gj
                r += 1
                x = lefts[r]
            cov = cov_ids[p]
            best_lid = cov[0]
            best = cost_of[best_lid] + g_at[left_of[best_lid]]
            for lid in cov:
                cand = cost_of[lid] + g_at[left_of[lid]]
                if cand < best:
                    best, best_lid = cand, lid
            g.append(best)
            choice.append(best_lid)
        self._stale = None
        witness = set()
        k = len(pos)
        while k > 0:
            lid = choice[k]
            witness.add(lid)
            k = bisect_left(pos, left_of[lid])
        self._witness = frozenset(witness)

    def coverage(self, e):
        return sum(self.x[lid] for lid in self.minimal.cov_ids[e])


def reference_hierarchy_links(B, k):
    """The adversary's links level by level, ids in build order."""
    links = []
    for j in range(k + 1):
        span = (2 * B) ** j
        for i in range((2 * B) ** k // span):
            links.append(PathLink(left=i * span, right=(i + 1) * span,
                                  cost=B ** j, id=len(links)))
    return links


def _reference_link_at(inst, level, edge):
    return inst.levels[level][edge // (2 * inst.B) ** level]


class ReferenceGreedy:
    """Greedy that lists the unowned covering links and takes the
    minimum by (cost, id)."""

    def __init__(self, inst):
        self.inst = inst
        self.owned = set()

    def serve(self, e):
        cands = [_reference_link_at(self.inst, j, e)
                 for j in range(self.inst.k + 1)]
        cands = [l for l in cands if l.id not in self.owned]
        if not cands:
            raise InvariantViolationError(f"nothing left to buy for edge {e}")
        pick = min(cands, key=lambda l: (l.cost, l.id))
        self.owned.add(pick.id)
        return [pick.id]


class ReferenceWrapper(CanonicalWrapper):
    """The canonical wrapper marking coverage edge by edge and finding
    the lower chain level by level."""

    def _buy(self, link):
        if link.id in self.bought:
            return
        self.bought.add(link.id)
        self.cost += link.cost
        for i in range(link.left, link.right):
            self.covered[i] = True

    def serve(self, e):
        for lid in self.inner.serve(e):
            link = self.inst.links[lid]
            self._buy(link)
            if self.canonical and link.left <= e < link.right:
                for j in range(self.inst.spans.index(link.right - link.left)):
                    self._buy(_reference_link_at(self.inst, j, e))


@pytest.fixture
def rng():
    return random.Random(991)
