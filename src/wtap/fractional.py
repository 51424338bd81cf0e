"""Fractional online covering on minimal path instances.

Serving keeps a fractional unit of coverage over every requested edge.
Each request reads the exact offline optimum OPT_i of everything
requested so far (an integer, by the interval structure), kept by one
incremental prefix DP: over the requested positions in sorted order,
g[k] is the cheapest cover of the first k.  When a covering link of
the new edge is in the current optimal witness, nothing is recomputed:
OPT is monotone in the request set and the witness still covers every
request at cost OPT, so both stand, and only the DP entries right of
the new position go stale.  Otherwise the DP resumes from the leftmost
stale position.  Sorted arrivals extend it by one entry each, and a
repeated edge costs nothing.

The DP reads tables, not searches.  Each link's cost and left end sit
in lists indexed by id, and a per-left table holds g_at[x] =
g[#requested < x] at every link left end x, so a covering link of
position p offers cost + g_at[left] in two list reads.  As the resumed
DP reaches the j-th requested position it rewrites g_at for the left
ends in (pos[j-1], pos[j]] with g[j]; left ends at or left of the last
position before the resume point keep their values, for the same
reason the DP entries up to it stay valid.  The choice behind g[k] is
a link id only, so the witness walk back from the last position makes
one binary search per witness link, to the first position at or right
of that link's left end.

A request an ultra-cheap link can cover (cost * edge_count <= current
optimum) is served by setting that link's variable to 1 outright.
Otherwise the update runs only over the band of links covering the
edge whose cost sits within [opt/edge_count, 2*opt]: each variable
follows the closed form x(t) = (x0 + theta) * exp(t / cost) - theta,
and t grows until the band's (capped) sum reaches 1.  The growth time
is found by bisection; everything else about the run is deterministic.

Variables are floats (nothing here tests equality); optima and phase
indices are exact ints.  theta = 1 / log2(edge_count).  On a single
edge OPT is the cheapest covering cost, so the ultra-cheap rule always
applies and buys that link outright.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional

from .errors import BadInputError, InfeasibleInstanceError, InvariantViolationError
from .oracles import opt_path_dp
from .pruning import MinimalPathInstance

COVERAGE_TOL = 1e-9


@dataclass(slots=True, unsafe_hash=True)
class FracRecord:
    """What serving one edge request fractionally did.

    Immutable by convention: nothing assigns to a record after it is
    built.
    """

    request: int
    opt_i: int
    kind: str                  # "small" | "large" | "skip"
    t_star: float
    incremental_cost: float
    band_size: int


def band_cap(edge_count: int) -> float:
    """Upper bound on the update band: two links per class over the
    cost band, whose width spans log2(2*edge_count) doublings."""
    return 2.0 * (math.log2(2 * edge_count) + 1.0)


def phase_of(i: int, opts) -> Optional[int]:
    """floor(log2(opts[i])), or None before the first positive optimum."""
    v = opts[i]
    if v <= 0:
        return None
    return v.bit_length() - 1


class FractionalPathSolver:
    def __init__(self, minimal: MinimalPathInstance):
        self.minimal = minimal
        m = minimal.edge_count
        self.m = m
        self.theta = 1.0 / math.log2(m) if m >= 2 else None
        self.x = {l.id: 0.0 for l in minimal.links}
        self.total_cost = 0.0
        # per-link tables, indexed by link id
        top = max((l.id for l in minimal.links), default=-1) + 1
        self._cost_of = cost_of = [0] * top
        self._left_of = left_of = [0] * top
        for l in minimal.links:
            cost_of[l.id] = l.cost
            left_of[l.id] = l.left
        # the links' distinct left ends, ascending, closed by a sentinel
        # right of every edge
        self._lefts = sorted({l.left for l in minimal.links}) + [m]
        # the exact optimum of the requests so far, kept incrementally
        self.requested = []        # requested positions, ascending
        self._g = [0]              # _g[k] = optimum over the first k of them
        self._g_at = [0] * m       # _g_at[x] = _g[#requested < x], x a left end
        self._choice = [None]      # id of the last link behind _g[k]
        self._stale = None         # _g[k] is out of date for k > _stale
        self._witness = frozenset()

    # -- offline optimum of the requests so far ---------------------------

    def _note_request(self, e: int):
        pos = self.requested
        k = bisect_left(pos, e)
        if k < len(pos) and pos[k] == e:
            return
        pos.insert(k, e)
        d = k if self._stale is None else min(self._stale, k)
        cov_ids = self.minimal.cov_ids
        if not self._witness.isdisjoint(cov_ids[e]):
            # the witness covers e too, so by monotonicity it stays optimal
            self._stale = d
            return
        g, choice, g_at, lefts = self._g, self._choice, self._g_at, self._lefts
        cost_of, left_of = self._cost_of, self._left_of
        del g[d + 1:], choice[d + 1:]
        # _g_at still holds at the left ends up to pos[d-1]: neither their
        # count of requests left of them nor _g[:d+1] has changed
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
                # ids ascend, so the strict test keeps the lowest id on ties
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

    def current_opt(self) -> int:
        return self._g[-1]

    # -- serving -----------------------------------------------------------

    def coverage(self, e: int) -> float:
        return sum(self.x[lid] for lid in self.minimal.cov_ids[e])

    def serve(self, e: int) -> FracRecord:
        if not 0 <= e < self.m:
            raise BadInputError(f"edge {e} out of range")
        cov = self.minimal.cov_ids[e]
        if not cov:
            raise InfeasibleInstanceError(f"edge {e} has no covering link")
        self._note_request(e)
        opt_i = self.current_opt()
        if self.coverage(e) >= 1.0 - COVERAGE_TOL:
            # (request, opt_i, kind, t_star, incremental_cost, band_size)
            return FracRecord(e, opt_i, "skip", 0.0, 0.0, 0)

        cost_of, x = self._cost_of, self.x
        cheap = [lid for lid in cov if cost_of[lid] * self.m <= opt_i]
        if cheap:
            # ids ascend, so min keeps the lowest id among the cheapest
            lid = min(cheap, key=cost_of.__getitem__)
            inc = cost_of[lid] * (1.0 - x[lid])
            x[lid] = 1.0
            self.total_cost += inc
            return FracRecord(e, opt_i, "small", 0.0, inc, 0)

        band = [lid for lid in cov
                if cost_of[lid] * self.m >= opt_i and cost_of[lid] <= 2 * opt_i]
        if not band:
            raise InvariantViolationError(
                f"no band link for edge {e} at optimum {opt_i}")
        if len(band) > band_cap(self.m) + 1e-9:
            raise InvariantViolationError(
                f"band size {len(band)} exceeds cap {band_cap(self.m):.3f}")

        theta = self.theta
        exp = math.exp
        # (x0 + theta, cost) per band link, in band order
        terms = [(x[lid] + theta, float(cost_of[lid])) for lid in band]

        def f(t: float) -> float:
            s = 0.0
            for a, c in terms:
                v = a * exp(t / c) - theta
                s += v if v < 1.0 else 1.0
            return s

        hi = min(c * math.log((1.0 + theta) / a) for a, c in terms)
        lo = 0.0
        f_hi = f(hi)
        guard = 0
        while f_hi > 1.0 + COVERAGE_TOL:
            mid = 0.5 * (lo + hi)
            f_mid = f(mid)
            if f_mid >= 1.0:
                hi, f_hi = mid, f_mid
            else:
                lo = mid
            guard += 1
            if guard > 200:
                raise InvariantViolationError("growth-time bisection stalled")
        t_star = hi

        inc = 0.0
        for lid, (a, c) in zip(band, terms):
            new = a * exp(t_star / c) - theta
            if new > 1.0:
                new = 1.0
            if new > x[lid]:
                inc += c * (new - x[lid])
                x[lid] = new
        self.total_cost += inc
        if self.coverage(e) < 1.0 - COVERAGE_TOL:
            raise InvariantViolationError(
                f"edge {e} left uncovered after growth step")
        return FracRecord(e, opt_i, "large", t_star, inc, len(band))


def restricted_solution(minimal: MinimalPathInstance, records):
    """Integral certificate rebuilt from the run's phase structure.

    Takes the exact optimum's witness at the end of every phase (the
    time steps sharing floor(log2 OPT_i)) and unions them.  The union
    covers every request (the last witness alone does) and its cost is
    bounded by a geometric sum of per-phase optima, at most 4x the
    final optimum.
    """
    opt_hist = [r.opt_i for r in records]
    boundaries = set()
    for i in range(len(records)):
        if i + 1 == len(records) or phase_of(i + 1, opt_hist) != phase_of(i, opt_hist):
            boundaries.add(i)
    chosen = set()
    per_phase_costs = []
    seen = set()
    for i, r in enumerate(records):
        seen.add(r.request)
        if i in boundaries:
            res = opt_path_dp(minimal.edge_count, minimal.links, seen)
            per_phase_costs.append(res.opt_cost)
            chosen.update(res.witness)
    total = sum(minimal.by_id[lid].cost for lid in chosen)
    return {
        "links": sorted(chosen),
        "cost": total,
        "per_phase_opt": per_phase_costs,
        "final_opt": per_phase_costs[-1] if per_phase_costs else 0,
    }
