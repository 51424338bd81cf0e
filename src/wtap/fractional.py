"""Fractional online covering on minimal path instances.

Serving keeps a fractional unit of coverage over every requested edge.
Each request first recomputes the exact offline optimum of everything
requested so far (an integer, by the interval structure).  A request
an ultra-cheap link can cover (cost * edge_count <= current optimum)
is served by setting that link's variable to 1 outright.  Otherwise
the update runs only over the band of links covering the edge whose
cost sits within [opt/edge_count, 2*opt]: each variable follows the
closed form x(t) = (x0 + theta) * exp(t / cost) - theta, and t grows
until the band's (capped) sum reaches 1.  The growth time is found by
bisection; everything else about the run is deterministic.

Variables are floats (nothing here tests equality); optima and phase
indices are exact ints.  theta = 1 / log2(edge_count); single-edge
paths skip the machinery and buy the cheapest cover exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Optional

from .errors import BadInputError, InfeasibleInstanceError, InvariantViolationError
from .oracles import opt_path_dp
from .pruning import MinimalPathInstance

COVERAGE_TOL = 1e-9


@dataclass(frozen=True)
class FracRecord:
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


def phase_of(i: int, opt_history) -> Optional[int]:
    """floor(log2(OPT_i)), or None before the first positive optimum."""
    v = opt_history[i]
    if v <= 0:
        return None
    return v.bit_length() - 1


class FractionalPathSolver:
    def __init__(self, minimal: MinimalPathInstance):
        self.minimal = minimal
        m = minimal.edge_count
        if m < 1:
            raise BadInputError("need at least one edge")
        self.m = m
        self.theta = 1.0 / math.log2(m) if m >= 2 else None
        self.links = minimal.by_id
        self.x = {l.id: 0.0 for l in minimal.links}
        self.total_cost = 0.0
        self.records = []
        self.opt_history = []
        # incremental optimum bookkeeping: exact while requests arrive
        # in nondecreasing position order, full recompute otherwise
        self.requested = set()
        self._sorted = []
        self._monotone = True
        self._g = [0]              # g[k] = optimum over first k positions
        self._choice = [None]      # (link id, back index) per k

    # -- offline optimum of the requests so far ---------------------------

    def _note_request(self, e: int):
        if e in self.requested:
            return
        if self._sorted and e < self._sorted[-1]:
            self._monotone = False
        self.requested.add(e)
        insort(self._sorted, e)
        if self._monotone:
            best = None
            for lid in self.minimal.cov_ids[e]:
                l = self.links[lid]
                k2 = bisect_left(self._sorted, l.left)
                cand = l.cost + self._g[k2]
                if best is None or cand < best[0] or (cand == best[0] and lid < best[1]):
                    best = (cand, lid, k2)
            if best is None:
                raise InfeasibleInstanceError(f"edge {e} has no covering link")
            self._g.append(best[0])
            self._choice.append((best[1], best[2]))

    def current_opt(self) -> int:
        if not self.requested:
            return 0
        if self._monotone:
            return self._g[-1]
        return opt_path_dp(self.m, self.minimal.links, self.requested).opt_cost

    def opt_witness(self) -> frozenset:
        if not self.requested:
            return frozenset()
        if self._monotone:
            out = set()
            k = len(self._sorted)
            while k > 0:
                lid, back = self._choice[k]
                out.add(lid)
                k = back
            return frozenset(out)
        return opt_path_dp(self.m, self.minimal.links, self.requested).witness

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
        self.opt_history.append(opt_i)
        if self.coverage(e) >= 1.0 - COVERAGE_TOL:
            rec = FracRecord(request=e, opt_i=opt_i, kind="skip",
                             t_star=0.0, incremental_cost=0.0, band_size=0)
            self.records.append(rec)
            return rec

        if self.m == 1:
            lid = min(cov, key=lambda i: (self.links[i].cost, i))
            inc = self.links[lid].cost * (1.0 - self.x[lid])
            self.x[lid] = 1.0
            self.total_cost += inc
            rec = FracRecord(request=e, opt_i=opt_i, kind="small",
                             t_star=0.0, incremental_cost=inc, band_size=0)
            self.records.append(rec)
            return rec

        cheap = [lid for lid in cov
                 if self.links[lid].cost * self.m <= opt_i]
        if cheap:
            lid = min(cheap, key=lambda i: (self.links[i].cost, i))
            inc = self.links[lid].cost * (1.0 - self.x[lid])
            self.x[lid] = 1.0
            self.total_cost += inc
            rec = FracRecord(request=e, opt_i=opt_i, kind="small",
                             t_star=0.0, incremental_cost=inc, band_size=0)
            self.records.append(rec)
            return rec

        band = [lid for lid in cov
                if self.links[lid].cost * self.m >= opt_i
                and self.links[lid].cost <= 2 * opt_i]
        if not band:
            raise InvariantViolationError(
                f"no band link for edge {e} at optimum {opt_i}")
        if len(band) > band_cap(self.m) + 1e-9:
            raise InvariantViolationError(
                f"band size {len(band)} exceeds cap {band_cap(self.m):.3f}")

        theta = self.theta
        x0 = {lid: self.x[lid] for lid in band}
        costs = {lid: float(self.links[lid].cost) for lid in band}

        def f(t: float) -> float:
            s = 0.0
            for lid in band:
                v = (x0[lid] + theta) * math.exp(t / costs[lid]) - theta
                s += v if v < 1.0 else 1.0
            return s

        hi = min(costs[lid] * math.log((1.0 + theta) / (x0[lid] + theta))
                 for lid in band)
        lo = 0.0
        guard = 0
        while f(hi) > 1.0 + COVERAGE_TOL:
            mid = 0.5 * (lo + hi)
            if f(mid) >= 1.0:
                hi = mid
            else:
                lo = mid
            guard += 1
            if guard > 200:
                raise InvariantViolationError("growth-time bisection stalled")
        t_star = hi

        inc = 0.0
        for lid in band:
            new = (x0[lid] + theta) * math.exp(t_star / costs[lid]) - theta
            if new > 1.0:
                new = 1.0
            if new > self.x[lid]:
                inc += costs[lid] * (new - self.x[lid])
                self.x[lid] = new
        self.total_cost += inc
        if self.coverage(e) < 1.0 - COVERAGE_TOL:
            raise InvariantViolationError(
                f"edge {e} left uncovered after growth step")
        rec = FracRecord(request=e, opt_i=opt_i, kind="large",
                         t_star=t_star, incremental_cost=inc,
                         band_size=len(band))
        self.records.append(rec)
        return rec

    def run(self, requests) -> list:
        return [self.serve(e) for e in requests]


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
