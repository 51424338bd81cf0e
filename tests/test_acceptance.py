"""Acceptance gate: desk-scale checks of every quantitative guarantee.

Each test prints one ``criterion N: PASS/FAIL`` line and enforces a wall
clock budget, so a slow regression fails just like a wrong answer.
"""

import math
import random
import time

import pytest

from wtap.adversary import HierarchicalInstance, adversary_drive
from wtap.decomposition import (
    decompose,
    decompose_arrays,
    default_width_bound,
    project,
    width_arrays,
)
from wtap.errors import InfeasibleInstanceError
from wtap.fractional import FractionalPathSolver
from wtap.generators import gen_random, random_tree
from wtap.oracles import opt_path_dp, opt_tree_enum, verify_nice
from wtap.path_online import PathSolver
from wtap.pruning import build_minimal_instance, replacement
from wtap.tree_online import TreeSolver

from checkers import (SPLIT_ENUM_LINK_CAP, enumerate_trees, opt_path_enum,
                      random_minimal_path_instance, sweep_splits, transfer)
from conftest import (PL, bought_cost_by_type, bought_of_type, charge_weighted_total,
                      run_sequence, tree_arrays)

_build_seconds = 0.0


def _line(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def batch():
    """500 online runs shared by criteria 1, 2 and 9.

    Half at the default scale, half small and dense; the dense half is
    what makes unbought triggers (and their sweeps) actually occur.
    """
    global _build_seconds
    start = time.perf_counter()
    rng = random.Random(7001)
    out = []
    scales = [{}] * 250 + [dict(max_edges=16, max_links=16, max_cls=4)] * 250
    for kw in scales:
        minimal, _, raw = random_minimal_path_instance(rng, **kw)
        edges = list(range(minimal.edge_count))
        rng.shuffle(edges)
        out.append((minimal, raw, run_sequence(minimal, edges)))
    _build_seconds = time.perf_counter() - start
    return out


def test_criterion_1_rooted_link_load(batch):
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for minimal, _, solver in batch:
        for link in minimal.links:
            if not link.rooted:
                continue
            load = solver.full_load(link)
            assert load <= 3 * link.cost  # exact rational comparison
            worst = max(worst, float(load) / link.cost)
            checked += 1
    elapsed = _build_seconds + time.perf_counter() - start
    ok = len(batch) >= 500 and checked > 0 and elapsed < 30
    _line(1, ok, f"{checked} rooted links over {len(batch)} runs, "
                 f"worst load/cost {worst:.3f} vs cap 3, {elapsed:.1f}s")


def test_criterion_2_purchase_accounting(batch):
    start = time.perf_counter()
    t2_runs = 0
    t3_runs = 0
    for _, _, solver in batch:
        c1, c2, c3 = bought_cost_by_type(solver)
        paid = charge_weighted_total(solver)
        assert paid <= c1
        type2 = bought_of_type(solver, 2)
        if type2:
            t2_runs += 1
            trigger = solver.minimal.by_id[type2[-1]]
            assert c2 <= 2 * solver.full_load(trigger)
        if bought_of_type(solver, 3):
            t3_runs += 1
            assert c3 <= 2 * c2
    elapsed = _build_seconds + time.perf_counter() - start
    ok = t2_runs >= 1 and elapsed < 30
    _line(2, ok, f"charges within tight cost on {len(batch)}/{len(batch)} runs, "
                 f"unbought triggers in {t2_runs}, sweeps in {t3_runs}, "
                 f"{elapsed:.1f}s")


def test_criterion_3_solution_quality_certificate():
    start = time.perf_counter()
    rng = random.Random(8101)
    worst = 0.0
    total_splits = 0
    count = 150
    for _ in range(count):
        minimal, _, _ = random_minimal_path_instance(
            rng, max_edges=24, max_links=12, max_cls=5)
        edges = list(range(minimal.edge_count))
        rng.shuffle(edges)
        solver = PathSolver(minimal)      # n_global = edge_count + 1
        records = [solver.serve(e) for e in edges]
        rep = verify_nice(solver, records)
        assert len(minimal.links) <= SPLIT_ENUM_LINK_CAP, \
            "instance small enough to sweep exhaustively"
        splits, ratio, ok = sweep_splits(solver, records)
        assert rep.ok and ok, [c for c in rep.conditions if not c.ok]
        assert ratio <= 24
        worst = max(worst, ratio)
        total_splits += splits
    elapsed = time.perf_counter() - start
    ok = elapsed < 120
    _line(3, ok, f"{count} runs, {total_splits} feasible splits swept, "
                 f"worst cost/split bound {worst:.3f} vs cap 24, {elapsed:.1f}s")


def test_criterion_4_tree_competitive_ratio():
    start = time.perf_counter()
    worst = 0.0
    cells = 0
    for n in range(5, 11):
        cap = 8 * math.log2(n)
        for s in range(40):
            seed = 9000 + 977 * n + s
            inst = gen_random("tree", n=n, link_count=20 - (n - 1),
                              cost_spread=16.0, seed=seed, request_count=15)
            solver = TreeSolver(inst)
            for req in inst.requests:
                solver.serve_pair(req.s, req.t)
            opt = opt_tree_enum(inst).opt_cost
            assert opt > 0
            ratio = solver.cost_total / opt
            assert ratio <= cap, (n, seed, ratio)
            worst = max(worst, ratio / cap)
            cells += 1
    elapsed = time.perf_counter() - start
    ok = cells == 240 and elapsed < 300
    _line(4, ok, f"{cells} runs at n=5..10, worst ratio/cap {worst:.3f}, "
                 f"{elapsed:.1f}s")


def test_criterion_5_decomposition_width():
    start = time.perf_counter()
    trees = 0
    for n in range(1, 9):
        bound = default_width_bound(n)
        for edges in enumerate_trees(n):
            parent, children, order = tree_arrays(n, edges)
            paths, pid_above = decompose_arrays(parent, children, order)
            assert width_arrays(parent, children, order, pid_above) <= bound
            trees += 1

    rng = random.Random(5150)
    for _ in range(1000):
        n = rng.randint(2, 512)
        edges = random_tree(n, rng)
        parent, children, order = tree_arrays(n, edges)
        paths, pid_above = decompose_arrays(parent, children, order)
        assert width_arrays(parent, children, order, pid_above) \
            <= default_width_bound(n)

    projected = 0
    for t in range(20):
        inst = gen_random("tree", n=rng.randint(16, 256), link_count=500,
                          cost_spread=8.0, seed=rng.randrange(1 << 30),
                          feasible=False)
        decomp = decompose(inst)
        for link in inst.links:
            projs = project(inst, decomp, link)
            assert sum(left != 0 for _, left, _ in projs) <= 1
            projected += 1
    elapsed = time.perf_counter() - start
    ok = projected == 10000 and elapsed < 60
    _line(5, ok, f"{trees} exhaustive + 1000 random trees within width bound, "
                 f"{projected} projected links, {elapsed:.1f}s")


def test_criterion_6_deterministic_lower_bound():
    start = time.perf_counter()
    ratios = []
    for k in range(1, 7):
        rep = adversary_drive(HierarchicalInstance(2, k), "greedy")
        assert rep.ratio >= k / 2, (k, rep.ratio)
        assert rep.cert_ok
        ratios.append(rep.ratio)
    elapsed = time.perf_counter() - start
    ok = elapsed < 30
    _line(6, ok, f"greedy ratios {ratios} vs floors k/2, certificates hold, "
                 f"{elapsed:.1f}s")


def test_criterion_7_fractional_ratio():
    start = time.perf_counter()
    worst = 0.0
    for k in range(2, 7):
        inst = HierarchicalInstance(2, k)
        minimal, _ = build_minimal_instance(inst.n, inst.links)
        solver = FractionalPathSolver(minimal)
        snapshot = {}
        for e in range(inst.n):
            solver.serve(e)
            if e % 512 == 511 or e == inst.n - 1:
                for lid, val in solver.x.items():
                    assert -1e-12 <= val <= 1 + 1e-12
                    assert val >= snapshot.get(lid, 0.0) - 1e-12
                snapshot = dict(solver.x)
        for e in range(inst.n):
            assert solver.coverage(e) >= 1 - 1e-9
        opt = opt_path_dp(inst.n, inst.links, list(range(inst.n))).opt_cost
        cap = 6 * math.log2(math.log2(inst.n))
        ratio = solver.total_cost / opt
        assert ratio <= cap, (k, ratio, cap)
        worst = max(worst, ratio / cap)
    elapsed = time.perf_counter() - start
    ok = elapsed < 60
    _line(7, ok, f"depths 2..6 with every edge requested, "
                 f"worst ratio/cap {worst:.3f}, {elapsed:.1f}s")


def test_criterion_8_oracle_cross_check():
    start = time.perf_counter()
    rng = random.Random(777)
    cells = 0
    duality_runs = 0
    for link_count in range(1, 13):
        for m in range(1, 9):
            for _ in range(4):
                links = []
                for i in range(link_count):
                    left = rng.randrange(m)
                    right = rng.randint(left + 1, m)
                    links.append(PL(left, right, rng.randint(0, 4), i))
                covered = sorted({e for l in links
                                  for e in range(l.left, l.right)})
                requests = []
                if covered:
                    take = rng.randint(1, min(4, len(covered)))
                    requests = rng.sample(covered, take)
                uncovered = [e for e in range(m) if e not in set(covered)]
                if uncovered and rng.random() < 0.25:
                    requests.append(rng.choice(uncovered))

                try:
                    dp = opt_path_dp(m, links, requests)
                except InfeasibleInstanceError:
                    with pytest.raises(InfeasibleInstanceError):
                        opt_path_enum(m, links, requests)
                    cells += 1
                    continue
                enum = opt_path_enum(m, links, requests)
                assert dp.opt_cost == enum.opt_cost, (m, links, requests)
                cells += 1

                # weak duality of the online payments on the same universe
                minimal, _ = build_minimal_instance(m, links)
                mono = [e for e in requests
                        if any(l.left <= e < l.right for l in minimal.links)]
                if mono:
                    solver = run_sequence(minimal, mono)
                    opt = opt_path_dp(m, list(minimal.links), mono).opt_cost
                    assert sum(solver.y) <= opt
                    duality_runs += 1
    elapsed = time.perf_counter() - start
    ok = cells == 384 and elapsed < 120
    _line(8, ok, f"{cells} grid cells agree across both oracles, "
                 f"weak duality on {duality_runs} runs, {elapsed:.1f}s")


def test_criterion_9_replacement_certificates(batch):
    start = time.perf_counter()
    replacements = 0
    for minimal, raw, _ in batch:
        kept = {l.id for l in minimal.links}
        for link in raw:
            reps = replacement(minimal, link)
            assert 1 <= len(reps) <= 3
            assert {r.id for r in reps} <= kept
            span = {e for r in reps for e in range(r.left, r.right)}
            assert span >= set(range(link.left, link.right))
            replacements += 1

    rng = random.Random(3301)
    transfers = 0
    for minimal, raw, _ in batch[:200]:
        chosen = [l for l in raw if rng.random() < 0.4]
        covered = {e for l in chosen for e in range(l.left, l.right)}
        if covered != set(range(minimal.edge_count)):
            chosen.append(raw[0])  # whole-path link repairs feasibility
        rooted_cover, nonrooted_cover = transfer(minimal, chosen)
        assert (sum(l.cost for l in rooted_cover)
                <= sum(l.cost for l in chosen if l.rooted))
        assert (sum(l.cost for l in nonrooted_cover)
                <= 3 * sum(l.cost for l in chosen if not l.rooted))
        out_span = {e for l in rooted_cover + nonrooted_cover
                    for e in range(l.left, l.right)}
        assert out_span == set(range(minimal.edge_count))
        transfers += 1
    elapsed = _build_seconds + time.perf_counter() - start
    ok = transfers == 200 and elapsed < 30
    _line(9, ok, f"{replacements} replacement certificates, "
                 f"{transfers} solution transfers within cost caps, "
                 f"{elapsed:.1f}s")
