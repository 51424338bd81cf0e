import random
import time
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, strategies as st

from wtap import tree_online
from wtap.errors import (InfeasibleInstanceError, InvariantViolationError,
                         OracleSizeError)
from wtap.generators import gen_random
from wtap.instance import TreeInstance
from wtap.oracles import (
    TREE_ENUM_LINK_CAP,
    _loads,
    _replay,
    hat_dual,
    opt_path_dp,
    opt_tree_enum,
    verify_dual_feasible,
    verify_nice,
)
from wtap.pruning import build_minimal_instance, path_instance_from_tree
from wtap.path_online import PathSolver

from checkers import (PATH_ENUM_LINK_CAP, covers, opt_path_enum,
                      random_minimal_path_instance, sweep_splits)
from conftest import (PL, ReferenceChargeSolver, brute_cover,
                      reference_opt_path_dp)


def random_links(data, m, count, max_cls=3):
    links = []
    for i in range(count):
        left = data.draw(st.integers(0, m - 1))
        right = data.draw(st.integers(left + 1, m))
        cls = data.draw(st.integers(0, max_cls))
        links.append(PL(left, right, cls, i))
    return links


# -- path DP -----------------------------------------------------------------

def test_dp_picks_cheaper_parallel_link():
    links = [PL(0, 1, 2, 0), PL(0, 1, 1, 1)]
    res = opt_path_dp(1, links, [0])
    assert res.opt_cost == 2
    assert res.witness == frozenset({1})
    assert res.method == "interval-dp"


def test_dp_no_requests_is_free():
    res = opt_path_dp(5, [PL(0, 5, 0, 0)], [])
    assert res.opt_cost == 0 and res.witness == frozenset()


def test_dp_tie_takes_smaller_id():
    links = [PL(0, 1, 0, 4), PL(0, 1, 0, 2)]
    assert opt_path_dp(1, links, [0]).witness == frozenset({2})


def test_dp_requires_coverage():
    with pytest.raises(InfeasibleInstanceError):
        opt_path_dp(3, [PL(0, 1, 0, 0)], [2])


def test_dp_rejects_out_of_range_request():
    with pytest.raises(InfeasibleInstanceError):
        opt_path_dp(3, [PL(0, 3, 0, 0)], [7])


def test_dp_combines_disjoint_spans():
    links = [PL(0, 2, 0, 0), PL(2, 4, 0, 1), PL(0, 4, 3, 2)]
    res = opt_path_dp(4, links, [0, 3])
    assert res.opt_cost == 2
    assert res.witness == frozenset({0, 1})


@given(st.data())
def test_dp_matches_enum_and_brute(data):
    m = data.draw(st.integers(min_value=1, max_value=7))
    count = data.draw(st.integers(min_value=1, max_value=7))
    links = random_links(data, m, count)
    reqs = [e for e in range(m) if any(covers(l, e) for l in links)]
    reqs = data.draw(st.sets(st.sampled_from(reqs))) if reqs else set()
    if not reqs:
        return
    a = opt_path_dp(m, links, reqs)
    b = opt_path_enum(m, links, reqs)
    assert a.opt_cost == b.opt_cost
    assert a.opt_cost == brute_cover(m, links, reqs)
    for res in (a, b):
        covered = set()
        for lid in res.witness:
            l = links[lid]
            covered.update(range(l.left, l.right))
        assert reqs <= covered
        assert sum(links[lid].cost for lid in res.witness) == res.opt_cost


@given(st.data())
def test_dp_monotone_in_requests(data):
    m = data.draw(st.integers(min_value=2, max_value=8))
    links = [PL(0, m, 3, 99)] + random_links(data, m, 4)
    small = data.draw(st.sets(st.integers(0, m - 1)))
    extra = data.draw(st.sets(st.integers(0, m - 1)))
    lo = opt_path_dp(m, links, small).opt_cost
    hi = opt_path_dp(m, links, small | extra).opt_cost
    assert lo <= hi


def _dp_outcome(dp, m, links, reqs):
    """(opt, witness, method), or the infeasibility text if dp raises."""
    try:
        res = dp(m, links, reqs)
    except InfeasibleInstanceError as exc:
        return str(exc)
    return res.opt_cost, res.witness, res.method


@given(st.data())
def test_dp_matches_the_cover_list_reference(data):
    # beyond the enumeration cap, with few cost classes so values tie,
    # links past either end of the path or covering no request, and
    # request sets no link covers
    m = data.draw(st.integers(min_value=1, max_value=60))
    count = data.draw(st.integers(min_value=0, max_value=80))
    ids = data.draw(st.permutations(range(count)))
    links = []
    for lid in ids:
        left = data.draw(st.integers(-2, m + 1))
        right = data.draw(st.integers(left, m + 3))
        links.append(PL(left, right, data.draw(st.integers(0, 2)), lid))
    reqs = data.draw(st.lists(st.integers(0, m - 1), max_size=2 * m))
    assert (_dp_outcome(opt_path_dp, m, links, reqs)
            == _dp_outcome(reference_opt_path_dp, m, links, reqs))


def test_dp_keeps_lower_id_among_equal_value_blocks():
    # {0} and {1, 2} both cost 2; so do {3} alone and {4} alone
    links = [PL(0, 2, 1, 5), PL(0, 1, 0, 1), PL(1, 2, 0, 2),
             PL(2, 3, 1, 3), PL(2, 3, 1, 4)]
    for dp in (opt_path_dp, reference_opt_path_dp):
        res = dp(3, links, [0, 1, 2])
        assert res.opt_cost == 4
        assert res.witness == frozenset({1, 2, 3})


def test_dp_reports_the_rightmost_uncovered_edge():
    links = [PL(0, 1, 0, 0), PL(5, 7, 0, 1)]
    for dp in (opt_path_dp, reference_opt_path_dp):
        with pytest.raises(InfeasibleInstanceError,
                           match="^edge 4 has no covering link$"):
            dp(7, links, [0, 2, 4, 6])


def test_dp_stays_near_linear_under_long_links():
    # every link spans the whole path and every edge is requested: the
    # (request, covering link) pairs number 4e6, which the cover-list DP
    # scores one by one (over a second on a 2-vCPU VM, Python 3.11)
    m = 4000
    links = [PL(0, m, i % 3, i) for i in range(1000)]
    start = time.perf_counter()
    res = opt_path_dp(m, links, range(m))
    elapsed = time.perf_counter() - start
    assert res.opt_cost == 1 and res.witness == frozenset({0})
    assert elapsed < 0.5, f"opt_path_dp took {elapsed:.2f} s"


def test_enum_cap():
    links = [PL(0, 1, 0, i) for i in range(PATH_ENUM_LINK_CAP + 1)]
    with pytest.raises(OracleSizeError):
        opt_path_enum(1, links, [0])


# -- tree oracle --------------------------------------------------------------

def line_tree(n, raw_links, requests=()):
    return TreeInstance(n=n, edges=[(i, i + 1) for i in range(n - 1)],
                        root=0, raw_links=raw_links, requests=requests)


def test_tree_enum_single_link():
    inst = line_tree(3, [(0, 2, 1)], requests=[(0, 2)])
    res = opt_tree_enum(inst)
    assert res.opt_cost == 1
    assert res.witness == frozenset({0})


def test_tree_enum_needs_both_halves():
    inst = line_tree(5, [(0, 2, 1), (2, 4, 1), (0, 4, 10)],
                     requests=[(0, 4)])
    res = opt_tree_enum(inst)
    # the two short links cost 2 together; the long one rounds to 16
    assert res.opt_cost == 2
    assert res.witness == frozenset({0, 1})


def test_tree_enum_no_requests():
    inst = line_tree(3, [(0, 2, 1)])
    assert opt_tree_enum(inst).opt_cost == 0


def test_tree_enum_infeasible():
    inst = line_tree(3, [(0, 1, 1)], requests=[(1, 2)])
    with pytest.raises(InfeasibleInstanceError):
        opt_tree_enum(inst)


def test_tree_enum_cap():
    raw_links = [(0, 1, 1)] * (TREE_ENUM_LINK_CAP + 1)
    inst = line_tree(2, raw_links)
    with pytest.raises(OracleSizeError):
        opt_tree_enum(inst)


def test_tree_enum_explicit_requests_override():
    inst = line_tree(4, [(0, 2, 1), (2, 3, 1)], requests=[(0, 2)])
    assert opt_tree_enum(inst).opt_cost == 1


@given(st.data())
def test_tree_enum_matches_path_dp_on_paths(data):
    n = data.draw(st.integers(min_value=2, max_value=7))
    count = data.draw(st.integers(min_value=1, max_value=6))
    raw_links = []
    for _ in range(count):
        u = data.draw(st.integers(0, n - 1))
        v = data.draw(st.integers(0, n - 1))
        if u == v:
            v = (v + 1) % n
        raw_links.append((u, v, data.draw(st.sampled_from([1, 2, 4]))))
    s = data.draw(st.integers(0, n - 1))
    t = data.draw(st.integers(0, n - 1))
    if s == t:
        return
    inst = line_tree(n, raw_links, requests=[(s, t)])
    edge_count, plinks, request_edges = path_instance_from_tree(inst)
    try:
        tree_res = opt_tree_enum(inst)
    except InfeasibleInstanceError:
        with pytest.raises(InfeasibleInstanceError):
            opt_path_dp(edge_count, plinks, request_edges)
        return
    path_res = opt_path_dp(edge_count, plinks, request_edges)
    assert tree_res.opt_cost == path_res.opt_cost


# -- verifiers ----------------------------------------------------------------

def test_dual_feasible_accepts_tight():
    ok, bad = verify_dual_feasible([Fraction(1), Fraction(1)], [PL(0, 2, 1, 0)])
    assert ok and bad == []


def test_dual_feasible_reports_violator():
    ok, bad = verify_dual_feasible([Fraction(1), Fraction(1)], [PL(0, 2, 0, 7)])
    assert not ok and bad == [7]


def test_verify_nice_three_vertex_run():
    """Dual run on the smallest interesting instance, checked end to end."""
    links = [PL(0, 1, 0, 0), PL(1, 2, 0, 1), PL(0, 2, 1, 2)]
    minimal, _ = build_minimal_instance(2, links)
    assert len(minimal.links) == 3
    solver = PathSolver(minimal)
    records = [solver.serve(e) for e in [0, 1]]
    assert solver.cost == 3
    rep = verify_nice(solver, records)
    assert rep.ok
    count, worst, ok = sweep_splits(solver, records)
    assert ok
    assert count == 5
    assert abs(worst - 1.5) < 1e-9
    ids = [c.id for c in rep.conditions]
    assert ids == ["cost-vs-hat-dual", "nonrooted-hat-load",
                   "rooted-full-load"]


def nice_runs(seed, count):
    """(solver, records) for path runs small enough to enumerate."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        minimal, _, _ = random_minimal_path_instance(
            rng, max_edges=16, max_links=12, max_cls=4)
        edges = [rng.randrange(minimal.edge_count) for _ in range(24)]
        solver = PathSolver(minimal)
        out.append((solver, [solver.serve(e) for e in edges]))
    return out


def test_verify_nice_calls_no_solver_method(monkeypatch):
    runs = nice_runs(5, 40)

    def check(solver, records):
        return verify_nice(solver, records), sweep_splits(solver, records)

    want = [check(solver, records) for solver, records in runs]
    assert all(count > 0 for _, (count, _, _) in want)

    def called(*args, **kwargs):
        raise AssertionError("the niceness check called a PathSolver method")

    for name, attr in vars(PathSolver).items():
        if callable(attr) and not name.startswith("__"):
            monkeypatch.setattr(PathSolver, name, called)
    assert [check(solver, records) for solver, records in runs] == want


def test_verify_nice_rejects_records_missing_a_serve():
    for solver, records in nice_runs(6, 20):
        for i, rec in enumerate(records):
            if not rec.skipped:
                with pytest.raises(InvariantViolationError):
                    verify_nice(solver, records[:i] + records[i + 1:])


def assert_replay_matches_recording(ref, records):
    """The replay of ``records`` rebuilds what the recording solver
    ``ref`` stored: charged sets, hat duals and loads."""
    minimal, m = ref.minimal, ref.m
    y, charged = _replay(minimal, records)
    assert y == ref.y
    assert list(charged.items()) == list(ref.charged.items())
    for n in (m + 1, 3, 10 * (m + 1)):
        ref.n_global = n
        assert hat_dual(minimal, records, n) == ref.hat_dual()
    weighted = _loads(minimal, y, charged, m + 1)[0]
    assert weighted == [c * v for c, v in zip(ref.charge, ref.y)]
    prefix = list(accumulate(weighted, initial=0))
    for l in minimal.links:
        assert prefix[l.right] - prefix[l.left] == ref.full_load(l)


@given(st.data())
def test_replay_matches_the_recording_solver(data):
    # every edge twice, in random order: about one run in six has a pick
    # that starts left of the frontier at an edge with positive dual
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    minimal, _, _ = random_minimal_path_instance(rng)
    edges = data.draw(st.permutations(list(range(minimal.edge_count)) * 2))
    solver, ref = PathSolver(minimal), ReferenceChargeSolver(minimal)
    records = [solver.serve(e) for e in edges]
    assert [ref.serve(e) for e in edges] == records
    assert_replay_matches_recording(ref, records)


def recording(serve, records):
    """``serve``, appending each record it returns to ``records``."""
    def wrapped(e):
        rec = serve(e)
        records.append(rec)
        return rec
    return wrapped


@given(st.data())
def test_replay_matches_the_recording_tree_path_solvers(data):
    n = data.draw(st.integers(2, 24))
    inst = gen_random("tree", n, data.draw(st.integers(0, 20)), 16.0,
                      data.draw(st.integers(0, 10 ** 6)), request_count=12)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree_online, "PathSolver", ReferenceChargeSolver)
        solver = tree_online.TreeSolver(inst)
    records = [[] for _ in solver.solvers]
    for ps, recs in zip(solver.solvers, records):
        ps.serve = recording(ps.serve, recs)
    for req in inst.requests:
        solver.serve_pair(req.s, req.t)
    for ps, recs in zip(solver.solvers, records):
        assert_replay_matches_recording(ps, recs)
