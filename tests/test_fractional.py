import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from wtap.errors import BadInputError, InfeasibleInstanceError
from wtap.fractional import (
    COVERAGE_TOL,
    FractionalPathSolver,
    band_cap,
    phase_of,
    restricted_solution,
)
from wtap.generators import random_minimal_path_instance
from wtap.oracles import opt_path_dp
from wtap.pruning import build_minimal_instance

from conftest import PL


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


def test_rejects_empty_path():
    minimal, _ = build_minimal_instance(1, [PL(0, 1, 0, 0)])
    minimal = minimal.__class__(edge_count=0, links=(), kept_from={})
    with pytest.raises(BadInputError):
        FractionalPathSolver(minimal)


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
    for e in edges:
        before = dict(sol.x)
        sol.serve(e)
        for lid, v in sol.x.items():
            assert v >= before[lid] - 1e-15
            assert 0.0 <= v <= 1.0
        assert sol.coverage(e) >= 1.0 - COVERAGE_TOL
    return sol


def test_random_runs_monotone_covered_and_accounted():
    for seed in range(25):
        sol = random_fracrun(seed)
        rebuilt = sum(sol.links[lid].cost * v for lid, v in sol.x.items())
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
            witness = sol.opt_witness()
            covered = set()
            for lid in witness:
                l = sol.links[lid]
                covered.update(range(l.left, l.right))
            assert sol.requested <= covered


def test_monotone_arrivals_use_incremental_dp():
    minimal, _ = build_minimal_instance(
        6, [PL(0, 3, 0, 0), PL(3, 6, 0, 1), PL(0, 6, 2, 2)])
    sol = FractionalPathSolver(minimal)
    for e in range(6):
        sol.serve(e)
    assert sol._monotone
    assert sol.current_opt() == 2


def test_phases_never_decrease_along_a_run():
    for seed in range(15):
        sol = random_fracrun(seed + 100)
        hist = sol.opt_history
        phases = [phase_of(i, hist) for i in range(len(hist))]
        real = [p for p in phases if p is not None]
        assert real == sorted(real)


def test_restricted_solution_certificate():
    for seed in range(15):
        sol = random_fracrun(seed + 300)
        out = restricted_solution(sol.minimal, sol.records)
        covered = set()
        by_id = {l.id: l for l in sol.minimal.links}
        for lid in out["links"]:
            l = by_id[lid]
            covered.update(range(l.left, l.right))
        assert {r.request for r in sol.records} <= covered
        assert out["final_opt"] == sol.current_opt()
        assert out["cost"] <= 4 * out["final_opt"]
        assert out["per_phase_opt"] == sorted(out["per_phase_opt"])


@settings(max_examples=40)
@given(st.integers(0, 10 ** 6))
def test_band_discipline_never_trips(seed):
    # serving never raises the band-size guard on generated instances
    random_fracrun(seed, max_edges=24, max_links=18)
