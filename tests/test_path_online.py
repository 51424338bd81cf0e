import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wtap.errors import (BadInputError, InfeasibleInstanceError,
                         InvariantViolationError)
from wtap.generators import random_minimal_path_instance
from wtap.oracles import opt_path_dp, verify_dual_feasible
from wtap.path_online import PathSolver, run_sequence
from wtap.pruning import build_minimal_instance

from conftest import PL


def three_vertex_minimal():
    # rooted unit link, interior unit link, rooted double covering both edges
    links = [PL(0, 1, 0, 0), PL(1, 2, 0, 1), PL(0, 2, 1, 2)]
    minimal, _ = build_minimal_instance(2, links)
    assert len(minimal.links) == 3
    return minimal


def test_three_vertex_trace():
    """Both edges requested in order; every intermediate value is pinned."""
    solver = PathSolver(three_vertex_minimal())

    rec = solver.serve(0)
    assert rec.y_raise == 1
    assert rec.type1 == 0          # the cheap rooted link goes tight first
    assert rec.type2 is None and rec.type3 == ()
    assert rec.frontier_right == 0
    assert solver.y == [1, 0]
    assert solver.charge == [1, 0]

    rec = solver.serve(1)
    assert rec.y_raise == 1
    assert rec.type1 == 2          # tie between both covering links: higher class
    assert rec.type2 is None       # already owned when it triggers
    assert rec.frontier_right == 2
    assert solver.y == [1, 1]
    assert solver.charge == [2, 1]

    assert solver.cost == 3
    assert solver.type1 == [0, 2]
    assert solver.type2 == []
    assert opt_path_dp(2, solver.minimal.links, [0, 1]).opt_cost == 2
    assert solver.full_load(solver.links[2]) == 3  # within 3x its cost of 2


def test_covered_request_is_skipped():
    solver = PathSolver(three_vertex_minimal())
    solver.serve(0)
    rec = solver.serve(0)
    assert rec.skipped
    assert rec.y_raise == 0 and rec.type1 is None
    assert solver.cost == 1


def test_serve_rejects_out_of_range():
    with pytest.raises(BadInputError):
        PathSolver(three_vertex_minimal()).serve(9)


def test_serve_rejects_uncovered_edge():
    minimal, _ = build_minimal_instance(3, [PL(0, 1, 0, 0)])
    with pytest.raises(InfeasibleInstanceError):
        PathSolver(minimal).serve(2)


def test_charge_on_uncovered_edge_is_an_invariant_violation():
    # charges only come from bought spans, so this state is corrupt; the
    # check must hold under python -O too
    solver = PathSolver(three_vertex_minimal())
    solver.charge[1] = 1
    with pytest.raises(InvariantViolationError):
        solver.serve(1)


def test_serve_leaving_its_edge_uncovered_is_an_invariant_violation():
    solver = PathSolver(three_vertex_minimal())
    solver._buy = lambda link: solver.bought.add(link.id)   # covers nothing
    with pytest.raises(InvariantViolationError):
        solver.serve(0)


def test_run_sequence_empty():
    solver = run_sequence(three_vertex_minimal(), [])
    assert solver.cost == 0
    assert solver.records == []


def test_type2_purchase_and_sweep():
    """A rooted link loaded past its cost without going tight is bought
    as type 2 and drags the crossing lower-class link in as type 3."""
    links = [
        PL(0, 5, 3, 0),
        PL(0, 4, 1, 1),            # the eventual trigger
        PL(2, 5, 0, 2),            # crosses the trigger's right endpoint
        PL(1, 5, 1, 3),
        PL(0, 2, 0, 5),
    ]
    minimal, _ = build_minimal_instance(5, links)
    assert len(minimal.links) == 5
    solver = run_sequence(minimal, [1, 0, 3, 2, 4])

    assert solver.type1 == [5, 3]
    assert solver.type2 == [1]
    assert solver.last_type2 == 1
    assert solver.type3 == [2]
    assert solver.frontier == 4
    assert solver.cost == 6
    assert solver.y == [0, 1, 0, 1, 0]
    assert solver.charge == [0, 2, 0, 1, 0]
    # the second and fourth serves were skipped as already covered
    assert [r.skipped for r in solver.records] == [False, True, False, True, True]
    c1, c2, c3 = solver.bought_cost_by_type()
    assert (c1, c2, c3) == (3, 2, 1)
    assert solver.charge_weighted_total() == 3
    lr = solver.links[solver.last_type2]
    assert c2 <= 2 * solver.full_load(lr)
    assert c3 <= 2 * c2


def batch_instances(seed, count, **kw):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        minimal, record, raw = random_minimal_path_instance(rng, **kw)
        edges = list(range(minimal.edge_count))
        rng.shuffle(edges)
        out.append((minimal, record, raw, run_sequence(minimal, edges)))
    return out


BATCH = batch_instances(1234, 50)


def test_batch_dual_always_feasible():
    for minimal, _, _, solver in BATCH:
        ok, bad = verify_dual_feasible(solver.y, minimal.links)
        assert ok, bad


def test_batch_product_identity_and_positivity():
    for minimal, _, _, solver in BATCH:
        for e in range(minimal.edge_count):
            assert solver.product[e] == solver.charge[e] * solver.y[e]
            if solver.y[e] > 0:
                assert e in solver.requested
        # charges come from recorded type-1 spans and nothing else
        recount = [0] * minimal.edge_count
        for lid in solver.type1:
            for e in solver.charged[lid]:
                recount[e] += 1
        assert recount == solver.charge


def test_batch_rooted_loads_within_contract():
    for minimal, _, _, solver in BATCH:
        for l in minimal.links:
            if l.rooted:
                assert solver.full_load(l) <= 3 * l.cost


def test_batch_charge_total_at_most_type1_cost():
    for _, _, _, solver in BATCH:
        c1, c2, c3 = solver.bought_cost_by_type()
        assert solver.charge_weighted_total() <= c1
        assert c3 <= 2 * c2
        if solver.last_type2 is not None:
            lr = solver.links[solver.last_type2]
            assert c2 <= 2 * solver.full_load(lr)
        assert c2 + c3 <= 6 * solver.charge_weighted_total()


def test_batch_hat_dual_supports_type1_cost():
    for _, _, _, solver in BATCH:
        c1, _, _ = solver.bought_cost_by_type()
        hat_total = sum(solver.hat_dual(), Fraction(0))
        assert Fraction(c1) <= 4 * hat_total


def test_batch_frontier_monotone_and_covered():
    for minimal, _, _, solver in BATCH:
        last = 0
        for rec in solver.records:
            assert rec.frontier_right >= last
            last = rec.frontier_right
        assert all(solver.covered[:solver.frontier])
        for e in solver.requested:
            assert solver.covered[e]


def test_batch_type2_strictly_deepens():
    for _, _, _, solver in BATCH:
        rights = [solver.links[i].right for i in solver.type2]
        classes = [solver.links[i].cls for i in solver.type2]
        assert rights == sorted(set(rights))
        assert classes == sorted(set(classes))


def test_batch_purchases_disjoint_by_type():
    for _, _, _, solver in BATCH:
        t1, t2, t3 = set(solver.type1), set(solver.type2), set(solver.type3)
        assert not (t1 & t2) and not (t1 & t3) and not (t2 & t3)
        assert solver.cost == sum(solver.links[i].cost
                                  for i in t1 | t2 | t3)


def test_weak_duality_against_offline_optimum():
    for minimal, _, _, solver in BATCH[:20]:
        opt = opt_path_dp(minimal.edge_count, minimal.links,
                          solver.requested).opt_cost
        assert sum(solver.y, Fraction(0)) <= opt


def test_hat_dual_single_purchase_keeps_the_dual():
    minimal, _ = build_minimal_instance(2, [PL(0, 2, 1, 0)])
    solver = PathSolver(minimal)
    solver.serve(0)
    hat = solver.hat_dual()
    assert hat[0] == solver.y[0] > 0
    assert hat[1] == 0


def test_hat_dual_equal_costs_keep_all_charges():
    minimal, _ = build_minimal_instance(
        2, [PL(0, 1, 0, 0), PL(1, 2, 0, 1), PL(0, 2, 2, 2)])
    solver = run_sequence(minimal, [0, 1])
    hat = solver.hat_dual()
    for e in range(2):
        assert hat[e] == solver.charge[e] * solver.y[e]


def test_hat_dual_floor_drops_tiny_purchases():
    # a cheap unit link next to a huge one, with n_global small enough
    # that cost 1 falls under cmax / n**2
    links = [PL(0, 1, 0, 0), PL(1, 2, 6, 1), PL(0, 2, 7, 2)]
    minimal, _ = build_minimal_instance(2, links)
    solver = run_sequence(minimal, [0, 1], n_global=3)
    assert set(solver.type1) == {0, 1}
    floor = Fraction(max(solver.links[i].cost for i in solver.type1), 9)
    assert solver.links[0].cost < floor
    hat = solver.hat_dual()
    assert solver.product[0] == 1
    assert hat[0] == 0
    assert hat[1] == solver.product[1]


def test_larger_n_global_never_shrinks_hat():
    for _, _, _, solver in BATCH[:10]:
        lo = solver.hat_dual()
        hi = solver.hat_dual(n_global=10 * solver.n_global)
        for a, b in zip(lo, hi):
            assert b >= a


@settings(max_examples=40)
@given(st.data())
def test_serve_keeps_dual_feasible_stepwise(data):
    seed = data.draw(st.integers(0, 10 ** 6))
    rng = random.Random(seed)
    minimal, _, _ = random_minimal_path_instance(rng, max_edges=16, max_links=12)
    solver = PathSolver(minimal)
    count = data.draw(st.integers(1, 12))
    for _ in range(count):
        e = data.draw(st.integers(0, minimal.edge_count - 1))
        solver.serve(e)
        ok, bad = verify_dual_feasible(solver.y, minimal.links)
        assert ok, bad
        assert solver.covered[e]
