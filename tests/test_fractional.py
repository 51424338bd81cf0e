import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from wtap import fractional
from wtap.errors import BadInputError, InfeasibleInstanceError
from wtap.fractional import (
    COVERAGE_TOL,
    FractionalPathSolver,
    band_cap,
    phase_of,
    restricted_solution,
)
from wtap.oracles import opt_path_dp
from wtap.pruning import build_minimal_instance

from checkers import random_minimal_path_instance
from conftest import PL, run_edges


def single_link_path(m=8, cls=0):
    minimal, _ = build_minimal_instance(m, [PL(0, m, cls, 0)])
    return minimal


def test_large_request_growth_time_closed_form():
    """One unit link over eight edges: the growth time is cost*ln((1+t)/t)."""
    sol = FractionalPathSolver(single_link_path())
    rec = sol.serve(3)
    assert rec.kind == "large"
    assert rec.opt_i == 1
    assert rec.band_size == 1
    theta = 1.0 / 3.0  # 1/log2(8)
    assert abs(rec.t_star - math.log((1 + theta) / theta)) < 1e-12
    assert abs(rec.t_star - math.log(4.0)) < 1e-12
    assert sol.x[0] == 1.0
    assert abs(rec.incremental_cost - 1.0) < 1e-12
    assert abs(sol.total_cost - 1.0) < 1e-12


def test_small_request_buys_cheap_link_outright():
    # unit link on edge 0; every other edge only has an expensive cover,
    # so by the time edge 0 arrives the optimum dwarfs the cheap link
    links = [PL(0, 1, 0, 0)] + [PL(e, e + 1, 3, e) for e in range(1, 8)]
    minimal, _ = build_minimal_instance(8, links)
    sol = FractionalPathSolver(minimal)
    for e in range(1, 8):
        sol.serve(e)
    rec = sol.serve(0)
    assert rec.kind == "small"
    assert rec.opt_i == 7 * 8 + 1
    assert sol.x[0] == 1.0
    assert abs(rec.incremental_cost - 1.0) < 1e-12


def test_single_edge_path_is_exact():
    # the expensive parallel link is pruned before the solver ever sees it
    minimal, _ = build_minimal_instance(1, [PL(0, 1, 2, 0), PL(0, 1, 0, 1)])
    assert [l.id for l in minimal.links] == [1]
    sol = FractionalPathSolver(minimal)
    rec = sol.serve(0)
    assert rec.kind == "small"
    assert sol.x[1] == 1.0
    assert sol.total_cost == 1.0
    assert sol.theta is None


def test_covered_request_skips():
    sol = FractionalPathSolver(single_link_path())
    sol.serve(2)
    rec = sol.serve(5)  # same link already saturated
    assert rec.kind == "skip"
    assert rec.incremental_cost == 0.0


def test_serve_rejects_out_of_range():
    with pytest.raises(BadInputError):
        FractionalPathSolver(single_link_path()).serve(99)


def test_serve_rejects_uncovered_edge():
    minimal, _ = build_minimal_instance(3, [PL(0, 1, 0, 0)])
    with pytest.raises(InfeasibleInstanceError):
        FractionalPathSolver(minimal).serve(2)


def test_empty_path_builds_and_rejects_every_edge():
    # a one-vertex instance reduces to a path with no edge: `run-frac`
    # serves nothing on it, as `run-path` and `run-tree` do
    minimal, _ = build_minimal_instance(1, [PL(0, 1, 0, 0)])
    minimal = minimal.__class__(edge_count=0, links=(), kept_from={})
    sol = FractionalPathSolver(minimal)
    assert (sol.current_opt(), sol.total_cost) == (0, 0.0)
    for e in (0, -1):
        with pytest.raises(BadInputError):
            sol.serve(e)


def test_band_cap_grows_with_length():
    assert band_cap(2) == 2 * (math.log2(4) + 1)
    assert band_cap(16) < band_cap(4096)


def test_phase_of_values():
    assert phase_of(0, [1, 5, 0]) == 0
    assert phase_of(1, [1, 5, 0]) == 2
    assert phase_of(2, [1, 5, 0]) is None


def random_fracrun(seed, max_edges=20, max_links=14):
    rng = random.Random(seed)
    minimal, _, _ = random_minimal_path_instance(
        rng, max_edges=max_edges, max_links=max_links, max_cls=4)
    sol = FractionalPathSolver(minimal)
    edges = [rng.randrange(minimal.edge_count)
             for _ in range(minimal.edge_count)]
    records = []
    for e in edges:
        before = dict(sol.x)
        records.append(sol.serve(e))
        for lid, v in sol.x.items():
            assert v >= before[lid] - 1e-15
            assert 0.0 <= v <= 1.0
        assert sol.coverage(e) >= 1.0 - COVERAGE_TOL
    return sol, records


def test_random_runs_monotone_covered_and_accounted():
    for seed in range(25):
        sol, _ = random_fracrun(seed)
        by_id = sol.minimal.by_id
        rebuilt = sum(by_id[lid].cost * v for lid, v in sol.x.items())
        assert abs(rebuilt - sol.total_cost) < 1e-9
        assert sol.total_cost <= sum(l.cost for l in sol.minimal.links) + 1e-9


def test_incremental_optimum_matches_dp_out_of_order():
    for seed in range(25):
        rng = random.Random(seed)
        minimal, _, _ = random_minimal_path_instance(
            rng, max_edges=12, max_links=10, max_cls=3)
        sol = FractionalPathSolver(minimal)
        edges = [rng.randrange(minimal.edge_count) for _ in range(8)]
        for e in edges:
            sol.serve(e)
            want = opt_path_dp(minimal.edge_count, minimal.links,
                               sol.requested).opt_cost
            assert sol.current_opt() == want
            witness = sol._witness
            covered = set()
            for lid in witness:
                l = minimal.by_id[lid]
                covered.update(range(l.left, l.right))
            assert set(sol.requested) <= covered


def test_serve_never_reruns_the_offline_dp(monkeypatch):
    """Sorted, reversed, random and repeated arrivals all keep the optimum
    incrementally: serve makes no call to opt_path_dp."""
    calls = []
    monkeypatch.setattr(fractional, "opt_path_dp",
                        lambda *a: calls.append(a) or opt_path_dp(*a))
    rng = random.Random(7)
    minimal, _, _ = random_minimal_path_instance(
        rng, max_edges=40, max_links=30, max_cls=5)
    m = minimal.edge_count
    shuffled = list(range(m))
    rng.shuffle(shuffled)
    orders = [list(range(m)), list(range(m - 1, -1, -1)), shuffled,
              [rng.randrange(m) for _ in range(3 * m)]]
    for order in orders:
        sol = FractionalPathSolver(minimal)
        run_edges(sol, order)
        want = opt_path_dp(m, minimal.links, order).opt_cost
        assert sol.current_opt() == want
    assert calls == []


def assert_exact_optimum(sol):
    minimal = sol.minimal
    opt = sol.current_opt()
    assert opt == opt_path_dp(minimal.edge_count, minimal.links,
                              sol.requested).opt_cost
    witness = sol._witness
    covered = set()
    for lid in witness:
        covered.update(range(minimal.by_id[lid].left, minimal.by_id[lid].right))
    assert set(sol.requested) <= covered
    assert sum(minimal.by_id[lid].cost for lid in witness) == opt


@settings(max_examples=200)
@given(st.data())
def test_incremental_optimum_is_exact_after_every_serve(data):
    seed = data.draw(st.integers(0, 10 ** 6))
    minimal, _, _ = random_minimal_path_instance(
        random.Random(seed), max_edges=24, max_links=24, max_cls=5)
    m = minimal.edge_count
    arrivals = data.draw(st.lists(st.integers(0, m - 1), min_size=m,
                                  max_size=3 * m))
    sol = FractionalPathSolver(minimal)
    for e in arrivals:
        sol.serve(e)
        assert_exact_optimum(sol)


def test_phases_never_decrease_along_a_run():
    for seed in range(15):
        _, records = random_fracrun(seed + 100)
        hist = [r.opt_i for r in records]
        phases = [phase_of(i, hist) for i in range(len(hist))]
        real = [p for p in phases if p is not None]
        assert real == sorted(real)


def test_restricted_solution_certificate():
    for seed in range(15):
        sol, records = random_fracrun(seed + 300)
        out = restricted_solution(sol.minimal, records)
        covered = set()
        by_id = {l.id: l for l in sol.minimal.links}
        for lid in out["links"]:
            l = by_id[lid]
            covered.update(range(l.left, l.right))
        assert {r.request for r in records} <= covered
        assert out["final_opt"] == sol.current_opt()
        assert out["cost"] <= 4 * out["final_opt"]
        assert out["per_phase_opt"] == sorted(out["per_phase_opt"])


@settings(max_examples=40)
@given(st.integers(0, 10 ** 6))
def test_band_discipline_never_trips(seed):
    # serving never raises the band-size guard on generated instances
    random_fracrun(seed, max_edges=24, max_links=18)


def wide_minimal_instance(rng, m):
    """A minimal path instance of m edges with many short links, so many
    left ends fall between requested positions."""
    raw = [PL(0, m, 6, 0)]
    for i in range(1, rng.randint(m // 2, 2 * m) + 1):
        left = 0 if rng.random() < 0.2 else rng.randrange(m)
        right = rng.randint(left + 1, min(m, left + rng.randint(1, m // 4)))
        raw.append(PL(left, right, rng.randint(0, 6), i))
    minimal, _ = build_minimal_instance(m, raw)
    return minimal


def traced_runs(sol):
    """Wrap sol._note_request; return a list that gets, per new edge,
    (stale position before, insertion index, DP ran, witness size)."""
    events = []
    note = sol._note_request

    def traced(e):
        new = e not in sol.requested
        stale = sol._stale
        note(e)
        if new:
            ran = sol._stale is None
            events.append((stale, sol.requested.index(e), ran,
                           len(sol._witness) if ran else 0))

    sol._note_request = traced
    return events


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_incremental_optimum_is_exact_on_wide_paths(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    m = data.draw(st.integers(60, 150))
    minimal = wide_minimal_instance(rng, m)
    arrivals = data.draw(st.lists(st.integers(0, m - 1), min_size=m // 2,
                                  max_size=2 * m))
    sol = FractionalPathSolver(minimal)
    for e in arrivals:
        sol.serve(e)
        assert_exact_optimum(sol)


def test_dp_resumes_from_a_stale_position():
    """A seeded random-order run in which a DP run starts from a stale
    position strictly left of the new one, so left ends between the two
    are rewritten while those left of the stale position are kept."""
    rng = random.Random(11)
    m = 120
    minimal = wide_minimal_instance(rng, m)
    sol = FractionalPathSolver(minimal)
    events = traced_runs(sol)
    order = list(range(m))
    rng.shuffle(order)
    for e in order:
        sol.serve(e)
        assert_exact_optimum(sol)
    resumed = [ev for ev in events if ev[2] and ev[0] is not None
               and 0 < ev[0] < ev[1]]
    assert resumed


def test_dp_makes_no_search_per_covering_link(monkeypatch):
    """Binary searches: one per request (its membership test, which is
    also a new edge's insertion point) plus, per DP run, one to find the
    resume point among the left ends and one per witness link on the walk
    back."""
    count = [0]

    def counting(search):
        def wrapped(*a):
            count[0] += 1
            return search(*a)
        return wrapped

    monkeypatch.setattr(fractional, "bisect_left",
                        counting(fractional.bisect_left))
    monkeypatch.setattr(fractional, "bisect_right",
                        counting(fractional.bisect_right))
    rng = random.Random(5)
    m = 150
    minimal = wide_minimal_instance(rng, m)
    sol = FractionalPathSolver(minimal)
    events = traced_runs(sol)
    requests = [rng.randrange(m) for _ in range(2 * m)]
    run_edges(sol, requests)
    runs = [ev for ev in events if ev[2]]
    assert len(runs) > 5
    assert count[0] <= len(requests) + sum(w + 1 for _, _, _, w in runs)


@pytest.mark.parametrize("long_id, short_id, want", [
    (0, 2, {0}),        # the long link has the lower id: it alone
    (2, 0, {0, 1}),     # the short one does: it and the link over edge 0
])
def test_dp_tie_breaks_to_the_lower_id(long_id, short_id, want):
    # covering edges 0 and 4 costs 2 either by the long link or by the two
    # unit links; the DP ties at edge 4 and keeps the lower id
    minimal, _ = build_minimal_instance(5, [
        PL(0, 5, 1, long_id), PL(0, 1, 0, 1), PL(4, 5, 0, short_id)])
    sol = FractionalPathSolver(minimal)
    sol.serve(0)
    sol.serve(4)
    assert sol.current_opt() == 2
    assert sol._witness == want
