import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wtap.adversary import HierarchicalInstance, PathAlgContestant, adversary_drive
from wtap.errors import (BadInputError, InfeasibleInstanceError,
                         InvariantViolationError)
from wtap.oracles import _replay, hat_dual, opt_path_dp, verify_dual_feasible
from wtap.path_online import PathSolver
from wtap.pruning import build_minimal_instance

from checkers import random_minimal_path_instance
from conftest import (PL, ReferenceSweepSolver, bought_cost_by_type, bought_of_type,
                      charge_weighted_total, run_sequence)


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
    assert solver.bought == {0: 1, 2: 1}
    assert opt_path_dp(2, solver.minimal.links, [0, 1]).opt_cost == 2
    assert solver.full_load(solver.minimal.by_id[2]) == 3  # within 3x its cost of 2


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
    def buy_without_covering(link, kind):
        solver.bought[link.id] = kind
    solver._buy = buy_without_covering
    with pytest.raises(InvariantViolationError):
        solver.serve(0)


def test_run_sequence_empty():
    solver = run_sequence(three_vertex_minimal(), [])
    assert solver.cost == 0
    assert solver.bought == {}


def assert_purchase_records_agree(solver, records):
    """``bought`` holds each record's purchases tagged by type, in serve
    order; the replayed charges hold the type-1 ones; the costs add up."""
    want = []
    for rec in records:
        if rec.type1 is not None:
            want.append((rec.type1, 1))
        if rec.type2 is not None:
            want.append((rec.type2, 2))
        want.extend((lid, 3) for lid in rec.type3)
    assert list(solver.bought.items()) == want
    assert [lid for rec in records for lid in rec.purchases] == [
        lid for lid, _ in want]
    charged = _replay(solver.minimal, records)[1]
    assert list(charged) == [lid for lid, kind in want if kind == 1]
    assert sum(bought_cost_by_type(solver)) == solver.cost


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
    solver = PathSolver(minimal)
    records = [solver.serve(e) for e in [1, 0, 3, 2, 4]]

    assert bought_of_type(solver, 1) == [5, 3]
    assert bought_of_type(solver, 2) == [1]
    assert bought_of_type(solver, 3) == [2]
    assert solver.frontier == 4
    assert solver.cost == 6
    assert solver.y == [0, 1, 0, 1, 0]
    assert solver.charge == [0, 2, 0, 1, 0]
    # the second and fourth serves were skipped as already covered
    assert [r.skipped for r in records] == [False, True, False, True, True]
    c1, c2, c3 = bought_cost_by_type(solver)
    assert (c1, c2, c3) == (3, 2, 1)
    assert charge_weighted_total(solver) == 3
    lr = solver.minimal.by_id[bought_of_type(solver, 2)[-1]]
    assert c2 <= 2 * solver.full_load(lr)
    assert c3 <= 2 * c2
    assert_purchase_records_agree(solver, records)


def forced_sweep_run(solver, edges, seed, trig):
    """Serve ``edges`` with the trigger scan's loads drawn at random, then
    sweep once more at the rooted link ``trig``; returns the serve
    records and that last sweep.

    Each rooted link the scan asks about reads as loaded far past any
    cost or as empty, so paid triggers, and the sweeps behind them, are
    common; the last sweep runs as a paid trigger at ``trig`` would.
    """
    draw = random.Random(seed).random
    solver._prefix = lambda k: (1 << 62) if draw() < 0.3 else 0
    records = [solver.serve(e) for e in edges]
    return records, solver._sweep(trig)


SWEEP_SHAPE = dict(max_edges=24, max_links=32, max_cls=8)


@settings(max_examples=120)
@given(st.data())
def test_sweep_matches_the_all_links_scan(data):
    """The sweep over one edge's coverage list buys what a scan of every
    kept link buys, in the same order."""
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    minimal, _, _ = random_minimal_path_instance(rng, **SWEEP_SHAPE)
    edges = data.draw(st.lists(st.integers(0, minimal.edge_count - 1),
                               min_size=1, max_size=16))
    seed = data.draw(st.integers(0, 10 ** 6))
    trig = data.draw(st.sampled_from([l for l in minimal.links if l.rooted]))
    fast, ref = PathSolver(minimal), ReferenceSweepSolver(minimal)
    assert (forced_sweep_run(fast, edges, seed, trig)
            == forced_sweep_run(ref, edges, seed, trig))
    assert list(fast.bought.items()) == list(ref.bought.items())


def test_forced_sweeps_buy_links():
    # without purchases the comparison above would compare empty tuples
    served = last = 0
    for seed in range(200):
        rng = random.Random(seed)
        minimal, _, _ = random_minimal_path_instance(rng, **SWEEP_SHAPE)
        edges = [rng.randrange(minimal.edge_count) for _ in range(12)]
        trig = rng.choice([l for l in minimal.links if l.rooted])
        records, swept = forced_sweep_run(PathSolver(minimal), edges, seed,
                                          trig)
        served += sum(len(r.type3) > 0 for r in records)
        last += len(swept) > 0
    assert served >= 20 and last >= 10


def batch_instances(seed, count, **kw):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        minimal, record, raw = random_minimal_path_instance(rng, **kw)
        edges = list(range(minimal.edge_count))
        rng.shuffle(edges)
        solver = PathSolver(minimal)
        records = [solver.serve(e) for e in edges]
        out.append((minimal, record, raw, solver, records))
    return out


def two_trigger_run():
    """A pinned run whose type-2 step buys link 3, then link 4."""
    raw = [PL(*link) for link in [
        (0, 1, 2, 0), (0, 6, 4, 1), (0, 3, 2, 2), (0, 5, 3, 3), (0, 11, 5, 4),
        (2, 9, 3, 5), (9, 11, 4, 6), (6, 11, 4, 7), (7, 10, 2, 8),
        (5, 9, 1, 9), (8, 10, 4, 10), (5, 7, 2, 11), (5, 8, 3, 12)]]
    minimal, removed = build_minimal_instance(11, raw)
    solver = PathSolver(minimal)
    records = [solver.serve(e) for e in [5, 2, 1, 4, 8, 9, 0, 10, 6, 3, 7]]
    return minimal, removed, raw, solver, records


# the default scale almost never triggers; the dense instances (the
# shape acceptance criterion 2 uses) carry the type-2 purchases, and
# the pinned run buys two of them
BATCH = (batch_instances(1234, 50)
         + batch_instances(1234, 1000, max_edges=16, max_links=16, max_cls=4)
         + [two_trigger_run()])


def test_two_trigger_run_buys_links_3_then_4():
    assert bought_of_type(BATCH[-1][3], 2) == [3, 4]


def test_batch_holds_type2_purchases():
    # without them the type-2 checks below would check nothing, and
    # without a run of two the ordering checks would compare singletons
    assert any(len(bought_of_type(solver, 2)) >= 2
               for _, _, _, solver, _ in BATCH)


def test_batch_dual_always_feasible():
    for minimal, _, _, solver, _ in BATCH:
        ok, bad = verify_dual_feasible(solver.y, minimal.links)
        assert ok, bad


def test_batch_product_identity_and_positivity():
    for minimal, _, _, solver, records in BATCH:
        requested = {r.request for r in records}
        for e in range(minimal.edge_count):
            assert (solver._prefix(e + 1) - solver._prefix(e)
                    == solver.charge[e] * solver.y[e])
            if solver.y[e] > 0:
                assert e in requested
        # charges come from replayed type-1 spans and nothing else
        charged = _replay(minimal, records)[1]
        recount = [0] * minimal.edge_count
        for lid in bought_of_type(solver, 1):
            for e in charged[lid]:
                recount[e] += 1
        assert recount == solver.charge


def test_batch_rooted_loads_within_contract():
    for minimal, _, _, solver, _ in BATCH:
        for l in minimal.links:
            if l.rooted:
                assert solver.full_load(l) <= 3 * l.cost


def test_batch_charge_total_at_most_type1_cost():
    for _, _, _, solver, _ in BATCH:
        c1, c2, c3 = bought_cost_by_type(solver)
        assert charge_weighted_total(solver) <= c1
        assert c3 <= 2 * c2
        type2 = bought_of_type(solver, 2)
        if type2:
            lr = solver.minimal.by_id[type2[-1]]
            assert c2 <= 2 * solver.full_load(lr)
        assert c2 + c3 <= 6 * charge_weighted_total(solver)


def test_batch_hat_dual_supports_type1_cost():
    for minimal, _, _, solver, records in BATCH:
        c1, _, _ = bought_cost_by_type(solver)
        hat_total = sum(hat_dual(minimal, records, solver.n_global),
                        Fraction(0))
        assert Fraction(c1) <= 4 * hat_total


def test_batch_frontier_monotone_and_covered():
    for minimal, _, _, solver, records in BATCH:
        last = 0
        for rec in records:
            assert rec.frontier_right >= last
            last = rec.frontier_right
        assert all(solver.covered[:solver.frontier])
        for rec in records:
            assert solver.covered[rec.request]


def test_batch_type2_strictly_deepens():
    for minimal, _, _, solver, _ in BATCH:
        type2 = [minimal.by_id[i] for i in bought_of_type(solver, 2)]
        rights = [l.right for l in type2]
        costs = [l.cost for l in type2]
        assert rights == sorted(set(rights))
        assert costs == sorted(set(costs))


@settings(max_examples=60)
@given(st.data())
def test_purchase_records_agree(data):
    # triggers and sweeps are rare here; the pinned type-2 trace above
    # runs the same check with both
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    minimal, _, _ = random_minimal_path_instance(rng, max_edges=16,
                                                 max_links=16, max_cls=4)
    edges = data.draw(st.permutations(range(minimal.edge_count)))
    solver = PathSolver(minimal)
    assert_purchase_records_agree(solver, [solver.serve(e) for e in edges])


def test_weak_duality_against_offline_optimum():
    for minimal, _, _, solver, records in BATCH[:20]:
        opt = opt_path_dp(minimal.edge_count, minimal.links,
                          [r.request for r in records]).opt_cost
        assert sum(solver.y, Fraction(0)) <= opt


def test_hat_dual_single_purchase_keeps_the_dual():
    minimal, _ = build_minimal_instance(2, [PL(0, 2, 1, 0)])
    solver = PathSolver(minimal)
    hat = hat_dual(minimal, [solver.serve(0)], solver.n_global)
    assert hat[0] == solver.y[0] > 0
    assert hat[1] == 0


def test_hat_dual_equal_costs_keep_all_charges():
    minimal, _ = build_minimal_instance(
        2, [PL(0, 1, 0, 0), PL(1, 2, 0, 1), PL(0, 2, 2, 2)])
    solver = PathSolver(minimal)
    hat = hat_dual(minimal, [solver.serve(e) for e in [0, 1]], solver.n_global)
    for e in range(2):
        assert hat[e] == solver.charge[e] * solver.y[e]


def test_hat_dual_floor_drops_tiny_purchases():
    # a cheap unit link next to a huge one, with n_global small enough
    # that cost 1 falls under cmax / n**2
    links = [PL(0, 1, 0, 0), PL(1, 2, 6, 1), PL(0, 2, 7, 2)]
    minimal, _ = build_minimal_instance(2, links)
    solver = PathSolver(minimal, n_global=3)
    records = [solver.serve(e) for e in [0, 1]]
    by_id = minimal.by_id
    assert set(bought_of_type(solver, 1)) == {0, 1}
    floor = Fraction(max(by_id[i].cost for i in bought_of_type(solver, 1)), 9)
    assert by_id[0].cost < floor
    hat = hat_dual(minimal, records, solver.n_global)
    assert solver.charge[0] * solver.y[0] == 1
    assert hat[0] == 0
    assert hat[1] == solver.charge[1] * solver.y[1]


def test_larger_n_global_never_shrinks_hat():
    for minimal, _, _, solver, records in BATCH[:10]:
        lo = hat_dual(minimal, records, solver.n_global)
        hi = hat_dual(minimal, records, 10 * solver.n_global)
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


def naive_trigger_frontier(solver, frontier):
    """Frontier after the trigger scan, by a full prefix walk of the
    charge-weighted dual."""
    trig = None
    acc = 0
    idx = 0
    for l in solver.rooted_by_right:
        while idx < l.right:
            acc += solver.charge[idx] * solver.y[idx]
            idx += 1
        if l.right > frontier and acc > l.cost:
            trig = l
    return frontier if trig is None else trig.right


@settings(max_examples=60)
@given(st.data())
def test_fenwick_index_matches_product_after_every_serve(data):
    seed = data.draw(st.integers(0, 10 ** 6))
    rng = random.Random(seed)
    minimal, _, _ = random_minimal_path_instance(rng, max_edges=40,
                                                 max_links=24)
    solver = PathSolver(minimal)
    m = minimal.edge_count
    for e in data.draw(st.lists(st.integers(0, m - 1), min_size=1,
                                max_size=30)):
        before = solver.frontier
        rec = solver.serve(e)
        assert type(rec.y_raise) is int
        assert all(type(v) is int for v in solver.y)
        assert all(type(v) is int for v in solver.charge)
        assert all(type(v) is int for v in solver.residual.values())
        weighted = [solver.charge[i] * solver.y[i] for i in range(m)]
        for k in range(m + 1):
            assert solver._prefix(k) == sum(weighted[:k])
        assert charge_weighted_total(solver) == sum(weighted)
        for l in minimal.links:
            assert solver.full_load(l) == sum(weighted[l.left:l.right])
        assert rec.frontier_right == naive_trigger_frontier(solver, before)


def assert_prefix_queries_bounded(solver, edges):
    """Serve ``edges``; each serve asks ``_prefix`` at most once per rooted
    link right of the frontier it started from, so at most once per
    class, and never on a skip."""
    calls = [0]
    prefix = solver._prefix

    def counted(k):
        calls[0] += 1
        return prefix(k)

    solver._prefix = counted
    rooted = solver.rooted_by_right
    classes = len({l.cost for l in rooted})
    for e in edges:
        ahead = sum(l.right > solver.frontier for l in rooted)
        before = calls[0]
        rec = solver.serve(e)
        made = calls[0] - before
        assert made <= ahead <= classes, (e, made, ahead, classes)
        if rec.skipped:
            assert made == 0, e


def test_serve_asks_one_prefix_per_rooted_link_ahead():
    rng = random.Random(4242)
    for _ in range(200):
        minimal, _, _ = random_minimal_path_instance(rng, max_edges=40,
                                                     max_links=32, max_cls=8)
        edges = list(range(minimal.edge_count)) * 2
        rng.shuffle(edges)
        assert_prefix_queries_bounded(PathSolver(minimal), edges)


def test_alg1_serve_asks_one_prefix_per_rooted_link_ahead():
    # the adversary's own requests, then every edge in random order, most
    # of them skips by then
    rng = random.Random(4243)
    for k in range(1, 7):
        inst = HierarchicalInstance(2, k)
        edges = adversary_drive(inst, "alg1").requests + rng.sample(
            range(inst.n), inst.n)
        assert_prefix_queries_bounded(PathAlgContestant(inst).solver, edges)
