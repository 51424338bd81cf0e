import random

import pytest
from hypothesis import given, settings, strategies as st

from wtap.cli import run_report
from wtap.decomposition import project, width
from wtap.errors import InfeasibleInstanceError, InvariantViolationError
from wtap.generators import gen_random, prufer_decode
from wtap.instance import TreeInstance
from wtap.oracles import TREE_ENUM_LINK_CAP, opt_tree_enum
from wtap.pruning import build_minimal_instance
from wtap.tree_online import TreeSolver, path_link_sets

from conftest import reference_path_link_sets, run_pairs


def covered_edges(solver):
    """Per tree edge id, whether a bought link covers it: the edge above
    v is covered exactly when the union-find has moved ``up[v]`` off v."""
    return [solver.up[v] != v for v in solver.inst.child_of_edge]


def test_endpoint_rooted_path_uses_one_solver():
    inst = TreeInstance(n=4, edges=[(0, 1), (1, 2), (2, 3)], root=0,
                        raw_links=[(0, 2, 1), (1, 3, 1)])
    solver = TreeSolver(inst)
    assert len(solver.solvers) == 1
    assert [(l.left, l.right)
            for l in solver.solvers[0].minimal.links] == [(0, 2), (1, 3)]


def test_star_leaf_pair_covers_both_edges_with_one_purchase():
    inst = TreeInstance(n=3, edges=[(0, 1), (0, 2)], root=0,
                        raw_links=[(1, 2, 1)])
    solver = TreeSolver(inst)
    assert len(project(inst, solver.decomp, inst.links[0])) == 2
    report = solver.serve_pair(1, 2)
    assert report.elementary == (0, 1)
    assert report.served == (0,)          # the second edge came along for free
    assert report.bought_sources == (0,)
    assert report.incremental_cost == 1
    assert solver.cost_total == 1
    assert all(covered_edges(solver))


def test_identical_spans_dedup_to_cheapest_source():
    inst = TreeInstance(n=3, edges=[(0, 1), (1, 2)], root=0,
                        raw_links=[(0, 2, 4), (0, 2, 1)])
    solver = TreeSolver(inst)
    report = solver.serve_pair(0, 2)
    assert report.bought_sources == (1,)
    assert solver.cost_total == 1


def test_identical_spans_of_equal_cost_keep_the_lower_id():
    # the second link names its ends the other way round; the third is a
    # repeat of the first: the span keeps link 0 either way
    inst = TreeInstance(n=3, edges=[(0, 1), (1, 2)], root=0,
                        raw_links=[(0, 2, 2), (2, 0, 2), (0, 2, 2)])
    solver = TreeSolver(inst)
    assert [solver.solvers[0].minimal.kept_from[l.id]
            for l in solver.solvers[0].minimal.links] == [0]
    report = solver.serve_pair(0, 2)
    assert report.bought_sources == (0,)
    assert solver.cost_total == inst.links[0].cost


def test_same_vertex_pair_is_a_no_op():
    inst = TreeInstance(n=3, edges=[(0, 1), (1, 2)], root=0,
                        raw_links=[(0, 2, 1)])
    solver = TreeSolver(inst)
    report = solver.serve_pair(1, 1)
    assert report.elementary == ()
    assert report.incremental_cost == 0
    assert solver.cost_total == 0


def test_repeat_pair_costs_nothing():
    inst = TreeInstance(n=4, edges=[(0, 1), (1, 2), (2, 3)], root=0,
                        raw_links=[(0, 3, 1)])
    solver = TreeSolver(inst)
    first = solver.serve_pair(0, 3)
    second = solver.serve_pair(0, 3)
    assert first.incremental_cost == 1
    assert second.incremental_cost == 0
    assert second.served == ()


def test_uncoverable_request_raises():
    inst = TreeInstance(n=3, edges=[(0, 1), (1, 2)], root=0,
                        raw_links=[(0, 1, 1)])
    solver = TreeSolver(inst)
    with pytest.raises(InfeasibleInstanceError):
        solver.serve_pair(0, 2)


def test_edge_left_uncovered_by_its_solver_is_an_invariant_violation(
        monkeypatch):
    # the edge has a covering link, so only a solver defect can leave it
    # uncovered after serving: here, source purchases that buy nothing
    inst = TreeInstance(n=3, edges=[(0, 1), (1, 2)], root=0,
                        raw_links=[(0, 2, 1)])
    solver = TreeSolver(inst)
    monkeypatch.setattr(TreeSolver, "_buy_source", lambda self, link_id: 0)
    with pytest.raises(InvariantViolationError, match="failed to cover"):
        solver.serve_pair(0, 2)


def test_adjacent_pair_buys_a_covering_link():
    inst = TreeInstance(n=3, edges=[(0, 1), (1, 2)], root=0,
                        raw_links=[(1, 2, 1), (0, 2, 8)])
    solver = TreeSolver(inst)
    report = solver.serve_pair(1, 2)
    assert report.bought_sources == (0,)
    assert solver.cost_total == 1


def run_random(seed, n=9, extras=10, pairs=8):
    inst = gen_random("tree", n, extras, 16.0, seed=seed)
    rng = random.Random(seed + 1)
    req = []
    for _ in range(pairs):
        s, t = rng.randrange(n), rng.randrange(n)
        if s != t:
            req.append((s, t))
    solver = TreeSolver(inst)
    return inst, solver, run_pairs(solver, req)


def test_random_runs_cover_requested_paths():
    for seed in range(30):
        inst, solver, reports = run_random(seed)
        covered = covered_edges(solver)
        for r in reports:
            for e in inst.tree_path(r.s, r.t):
                assert covered[e]


def test_random_runs_account_costs_exactly():
    for seed in range(30):
        inst, solver, reports = run_random(seed)
        bought = [src for r in reports for src in r.bought_sources]
        assert len(set(bought)) == len(bought)
        assert set(bought) == solver.bought_sources
        assert solver.cost_total == sum(
            inst.links[i].cost for i in solver.bought_sources)
        assert solver.cost_total == sum(
            r.incremental_cost for r in reports)


def test_source_cost_never_below_path_accounting():
    # every projected purchase pays its source at most once, so the sum
    # of the per-path solver costs can only overcount
    for seed in range(30):
        _, solver, _ = run_random(seed)
        assert solver.cost_total <= solver.path_cost_total()


# (n, seed, pair, kept link, purchase type, source, cost_total,
# path_cost_total): path 0's solver buys a kept link whose source an
# earlier pair already bought, once by a type-3 sweep, once by a type-2
# trigger; each instance is `wtap gen --kind tree --n N --links 2N
# --cost-spread 64 --requests N --seed SEED`
REPEAT_PURCHASES = [
    (21, 1577, 9, 23, 3, 37, 22, 24),
    (40, 3276, 7, 5, 2, 73, 37, 41),
]


@pytest.mark.parametrize(
    "n, seed, pair, kept, kind, src, cost_total, path_cost_total",
    REPEAT_PURCHASES, ids=["type-3-sweep", "type-2-trigger"])
def test_repeat_purchase_of_a_source_costs_nothing(
        n, seed, pair, kept, kind, src, cost_total, path_cost_total):
    inst = gen_random("tree", n, 2 * n, 64.0, seed, request_count=n)
    solver = TreeSolver(inst)
    path0 = solver.solvers[0]
    for req in inst.requests[:pair]:
        solver.serve_pair(req.s, req.t)
    assert src in solver.bought_sources and kept not in path0.bought
    path_cost = solver.path_cost_total()
    req = inst.requests[pair]
    rep = solver.serve_pair(req.s, req.t)
    assert path0.bought[kept] == kind
    assert path0.minimal.kept_from[kept] == src
    assert src not in rep.bought_sources
    assert rep.incremental_cost == sum(
        inst.links[b].cost for b in rep.bought_sources)
    assert rep.incremental_cost == (solver.path_cost_total() - path_cost
                                    - inst.links[src].cost)
    for req in inst.requests[pair + 1:]:
        solver.serve_pair(req.s, req.t)
    assert (solver.cost_total, solver.path_cost_total()) == (
        cost_total, path_cost_total)
    invariant = {r.id: r for r in run_report("tree-online", inst).invariants}
    assert invariant["purchases-not-double-counted"].ok


def test_projection_multiplicity_bounded_by_width():
    for seed in range(20):
        inst, solver, _ = run_random(seed, n=24, extras=20, pairs=4)
        w = max(1, width(inst, solver.decomp))
        for ln in inst.links:
            prs = project(inst, solver.decomp, ln)
            assert len(prs) <= w
            assert sum(1 for _, left, _ in prs if left != 0) <= 1


def test_matches_offline_on_fixed_small_instance():
    inst = TreeInstance(
        n=6,
        edges=[(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)],
        root=0,
        raw_links=[(2, 4, 1), (0, 2, 2), (4, 5, 1), (0, 5, 4)],
        requests=[(2, 4), (4, 5)],
    )
    solver = TreeSolver(inst)
    run_pairs(solver, [(2, 4), (4, 5)])
    covered = covered_edges(solver)
    for pair in [(2, 4), (4, 5)]:
        for e in inst.tree_path(*pair):
            assert covered[e]
    opt = opt_tree_enum(inst).opt_cost
    assert opt <= solver.cost_total


@settings(max_examples=30)
@given(st.integers(0, 10 ** 6), st.integers(5, 12))
def test_random_trees_keep_per_path_duals_feasible(seed, n):
    from wtap.oracles import verify_dual_feasible
    inst, solver, _ = run_random(seed, n=n, extras=8, pairs=6)
    for ps in solver.solvers:
        ok, bad = verify_dual_feasible(ps.y, ps.minimal.links)
        assert ok, bad


# -- the head-jump pipeline against the path-walking design it replaced --


def walked_projection(inst, decomp, link):
    """Spans ``(path_id, left, right)`` read off every edge of the link's
    tree path."""
    by_pid = {}
    for e in inst.tree_path(link.u, link.v):
        child = inst.child_of_edge[e]
        by_pid.setdefault(decomp.pid_above[child], []).append(
            decomp.pos_above[child])
    out = []
    for pid in sorted(by_pid):
        lo, hi = min(by_pid[pid]), max(by_pid[pid])
        assert hi - lo + 1 == len(by_pid[pid])
        out.append((pid, lo - 1, hi))
    return out


def walked_serve(solver, pairs):
    """Serve pairs on a fresh solver's path solvers, expanding every pair
    and every bought link edge by edge.  Returns one
    ``(served, bought, incremental cost)`` triple per pair (or the error
    message that ended the run) and the final covered, purchase order
    and total cost."""
    inst = solver.inst
    covered = [False] * (inst.n - 1)
    order = []
    total = 0
    outcomes = []
    for s, t in pairs:
        served, bought, inc = [], [], 0
        try:
            for e in inst.tree_path(s, t):
                if covered[e]:
                    continue
                child = inst.child_of_edge[e]
                pid = solver.decomp.pid_above[child]
                pos = solver.decomp.pos_above[child] - 1
                if not solver.solvers[pid].minimal.cov_ids[pos]:
                    raise InfeasibleInstanceError(
                        f"request edge {e} has no covering link")
                rec = solver.solvers[pid].serve(pos)
                served.append(e)
                new_ids = [i for i in (rec.type1, rec.type2) if i is not None]
                for plid in new_ids + list(rec.type3):
                    src = solver.solvers[pid].minimal.kept_from[plid]
                    if src in order:
                        continue
                    order.append(src)
                    link = inst.links[src]
                    for f in inst.tree_path(link.u, link.v):
                        covered[f] = True
                    bought.append(src)
                    inc += link.cost
                    total += link.cost
                assert covered[e]
        except InfeasibleInstanceError as exc:
            outcomes.append(str(exc))
            break
        outcomes.append((tuple(served), tuple(bought), inc))
    return outcomes, covered, order, total


@given(st.data())
def test_head_jumps_and_union_find_match_the_walked_paths(data):
    n = data.draw(st.integers(2, 30), label="n")
    seq = data.draw(st.lists(st.integers(0, n - 1), min_size=n - 2,
                             max_size=n - 2), label="prufer")
    vertex = st.integers(0, n - 1)
    ends = data.draw(st.lists(st.tuples(vertex, vertex).filter(
        lambda e: e[0] != e[1]), max_size=2 * n), label="links")
    costs = data.draw(st.lists(st.sampled_from([1, 2, 3, 5, 8]),
                               min_size=len(ends), max_size=len(ends)))
    pairs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=n),
                      label="pairs")
    root = data.draw(vertex, label="root")
    inst = TreeInstance(n=n, edges=prufer_decode(seq, n), root=root,
                        raw_links=[(u, v, c) for (u, v), c in zip(ends, costs)])
    solver = TreeSolver(inst)

    # (a) projection
    for ln in inst.links:
        assert project(inst, solver.decomp, ln) == walked_projection(
            inst, solver.decomp, ln)

    # (b) serving
    expected, covered, order, total = walked_serve(TreeSolver(inst), pairs)
    outcomes = []
    for s, t in pairs:
        try:
            rep = solver.serve_pair(s, t)
        except InfeasibleInstanceError as exc:
            outcomes.append(str(exc))
            break
        outcomes.append((rep.served, rep.bought_sources, rep.incremental_cost))
    assert outcomes == expected
    assert covered_edges(solver) == covered
    # the outcomes hold each pair's purchases in order; the set also
    # counts those of a pair cut short by an uncoverable edge
    assert solver.bought_sources == set(order)
    assert solver.cost_total == total


# -- the one-walk set-up against per-link projection --------------------


@st.composite
def set_up_inputs(draw, shape):
    """``(inst, gap)``: a tree instance whose links stress the span dedup,
    and for ``uncoverable`` the edge no link crosses (else None).

    ``random`` draws any links; ``equal`` draws them from a pool of at
    most three endpoint pairs at two costs, so equal spans of equal cost
    meet; ``leaves`` joins leaves, so most links span several paths;
    ``tiny`` has n = 1 or 2.
    """
    n = draw(st.integers(1, 2) if shape == "tiny" else st.integers(3, 30))
    root = draw(st.integers(0, n - 1))
    if n == 1:
        return TreeInstance(n=1, edges=[], root=0), None
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2,
                        max_size=n - 2))
    tree = TreeInstance(n=n, edges=prufer_decode(seq, n), root=root)
    ends = list(range(n))
    if shape == "leaves":
        ends = [v for v in ends if not tree.children[v]] + [root]
    pair = st.tuples(st.sampled_from(ends), st.sampled_from(ends)).filter(
        lambda e: e[0] != e[1])
    cost = st.sampled_from([1, 2, 3, 5, 8])
    if shape == "equal":
        pair = st.sampled_from(draw(st.lists(pair, min_size=1, max_size=3)))
        cost = st.sampled_from([2, 4])
    raw = draw(st.lists(st.tuples(pair, cost), max_size=3 * n))
    gap = None
    if shape == "uncoverable":
        gap = draw(st.integers(0, n - 2))
        raw = [(e, c) for e, c in raw if gap not in tree.tree_path(*e)]
    inst = TreeInstance(n=n, edges=tree.edges, root=root,
                        raw_links=[(u, v, c) for (u, v), c in raw])
    return inst, gap


@pytest.mark.parametrize("shape",
                         ["random", "equal", "leaves", "tiny", "uncoverable"])
@given(data=st.data())
def test_one_walk_set_up_matches_per_link_projection(shape, data):
    inst, gap = data.draw(set_up_inputs(shape))
    solver = TreeSolver(inst)
    got = list(path_link_sets(inst, solver.decomp))
    want = reference_path_link_sets(inst, solver.decomp)
    assert len(got) == len(want) == len(solver.solvers)
    for pid, ((links, kept_from), (ref_links, ref_from)) in enumerate(
            zip(got, want)):
        assert links == ref_links
        assert list(kept_from.items()) == list(ref_from.items())
        minimal = solver.solvers[pid].minimal
        ref_minimal, _ = build_minimal_instance(
            len(solver.decomp.paths[pid]) - 1, ref_links, ref_from)
        assert minimal == ref_minimal
        assert list(minimal.kept_from.items()) == list(
            ref_minimal.kept_from.items())
        assert minimal.cov_ids == ref_minimal.cov_ids
    if gap is not None:
        child = inst.child_of_edge[gap]
        pid, pos = solver.decomp.pid_above[child], solver.decomp.pos_above[child]
        assert solver.solvers[pid].minimal.cov_ids[pos - 1] == []


def walk(*args, **kwargs):
    raise AssertionError("the run pipeline walked a tree path")


def test_run_pipeline_never_walks_a_tree_path(monkeypatch):
    inst = gen_random("tree", 60, 40, 16.0, seed=3, request_count=60)
    pairs = [(r.s, r.t) for r in inst.requests]
    # above the cap, run_report skips opt_tree_enum, which does walk paths
    assert len(inst.links) > TREE_ENUM_LINK_CAP

    for name in ("tree_path", "cov"):
        monkeypatch.setattr(TreeInstance, name, walk)
    solver = TreeSolver(inst)
    assert len(run_pairs(solver, pairs)) == len(pairs)
    report = run_report("tree-online", inst)
    assert all(r.ok for r in report.invariants)
    assert report.final_cost == str(solver.cost_total)


@pytest.mark.parametrize("algorithm", ["path-online", "fractional"])
def test_path_pipelines_never_walk_a_tree_path(monkeypatch, algorithm):
    inst = gen_random("path", 60, 80, 16.0, seed=4, request_count=40)
    want = run_report(algorithm, inst)
    for name in ("tree_path", "cov"):
        monkeypatch.setattr(TreeInstance, name, walk)
    report = run_report(algorithm, inst)
    assert all(r.ok for r in report.invariants)
    assert report.per_request == want.per_request
    assert report.final_cost == want.final_cost
