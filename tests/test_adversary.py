import random

import pytest

from wtap import adversary
from wtap.adversary import (
    CONTESTANTS,
    BuyTop,
    CanonicalWrapper,
    GreedyCheapestCover,
    HierarchicalInstance,
    PathAlgContestant,
    adversary_drive,
)
from wtap.errors import BadInputError
from wtap.path_online import PathSolver

from conftest import (ReferenceGreedy, ReferenceSweepSolver, ReferenceWrapper,
                      reference_hierarchy_links)


def links_over(inst, e):
    """The level-j link over edge e for every level j, found by index
    as the package finds it."""
    return [row[e // span] for row, span in zip(inst.levels, inst.spans)]


def level_cover_costs(rep):
    """Cost of each level's links over the requests, recounted by block."""
    return [len({r // (2 * rep.B) ** j for r in rep.requests}) * rep.B ** j
            for j in range(rep.k + 1)]


def test_depth_one_layout():
    inst = HierarchicalInstance(2, 1)
    assert inst.n == 4
    assert len(inst.links) == 5
    assert sorted(l.cost for l in inst.links) == [1, 1, 1, 1, 2]
    assert links_over(inst, 2)[0].left == 2
    assert [l.cost for l in links_over(inst, 3)] == [1, 2]


def test_depth_two_layout():
    inst = HierarchicalInstance(2, 2)
    assert inst.n == 16
    assert len(inst.links) == 21
    by_cost = {}
    for l in inst.links:
        by_cost[l.cost] = by_cost.get(l.cost, 0) + 1
    assert by_cost == {1: 16, 2: 4, 4: 1}


def test_levels_tile_the_path():
    for B, k in [(2, 2), (3, 2), (2, 3)]:
        inst = HierarchicalInstance(B, k)
        # CanonicalWrapper looks links up by id as a list index
        assert [l.id for l in inst.links] == list(range(len(inst.links)))
        for row in inst.levels:
            seen = []
            for l in row:
                seen.extend(range(l.left, l.right))
            assert seen == list(range(inst.n))


def test_constructor_guards():
    with pytest.raises(BadInputError):
        HierarchicalInstance(1, 3)
    with pytest.raises(BadInputError):
        HierarchicalInstance(2, 0)
    with pytest.raises(BadInputError):
        HierarchicalInstance(2, 11)  # path longer than the memory guard


@pytest.mark.parametrize("B", [2, 3, 4])
def test_canonical_wrapper_buys_the_containing_chain(B):
    # a level-2 link below the top: the chain stops at its own level
    inst = HierarchicalInstance(B, 3)
    chain = links_over(inst, 5)[:3]

    class BuyOnce:
        def __init__(self):
            self.fired = False

        def serve(self, e):
            if self.fired:
                return []
            self.fired = True
            return [chain[2].id]

    wrapper = CanonicalWrapper(inst, BuyOnce(), canonical=True)
    wrapper.serve(5)
    # level-2 link cost B^2, plus its level-1 and level-0 links through edge 5
    assert wrapper.cost == B ** 2 + B + 1
    assert wrapper.bought == {l.id for l in chain}
    assert wrapper.covered == [chain[2].left <= i < chain[2].right
                               for i in range(inst.n)]


def test_level_zero_purchase_adds_nothing():
    inst = HierarchicalInstance(2, 2)
    wrapper = CanonicalWrapper(inst, GreedyCheapestCover(inst), canonical=True)
    wrapper.serve(3)
    assert wrapper.cost == 1
    assert wrapper.covered[3] and not wrapper.covered[4]


@pytest.mark.parametrize("B", [2, 3, 4])
def test_canonical_at_most_doubles_the_inner_cost(B):
    inst = HierarchicalInstance(B, 3)
    rng = random.Random(9)

    class RandomBuyer:
        def serve(self, e):
            return [rng.choice(links_over(inst, e)).id]

    wrapper = CanonicalWrapper(inst, RandomBuyer(), canonical=True)
    inner_ids = set()
    for _ in range(40):
        e = rng.randrange(inst.n)
        before = set(wrapper.bought)
        wrapper.serve(e)
        for lid in wrapper.bought - before:
            link = next(l for l in inst.links if l.id == lid)
            if link.left <= e < link.right:
                inner_ids.add(lid)
    # the canonical chain under a purchase is a geometric sum below its cost
    by_id = {l.id: l for l in inst.links}
    inner_cost = sum(by_id[lid].cost for lid in inner_ids)
    assert wrapper.cost <= 2 * inner_cost


def test_greedy_driver_table():
    for k in range(1, 5):
        inst = HierarchicalInstance(2, k)
        rep = adversary_drive(inst, "greedy")
        assert len(rep.requests) == inst.n
        assert rep.alg_cost == inst.n
        assert rep.opt == 2 ** k
        assert rep.ratio == 2.0 ** k
        assert rep.cert_ok


def test_greedy_depth_two_certificate_numbers():
    rep = adversary_drive(HierarchicalInstance(2, 2), "greedy")
    assert level_cover_costs(rep) == [16, 8, 4]
    assert rep.alg_cost == 16 and rep.cert_ok     # 28 <= 2 * 16


def test_top_buyer_stops_after_one_request():
    rep = adversary_drive(HierarchicalInstance(2, 2), "top")
    assert rep.requests == [0]
    assert rep.alg_cost == 4      # uncanonicalized: just the top link
    assert rep.opt == 1
    assert rep.cert_ok


def test_path_solver_contestant_beats_the_trivial_bound():
    for k in range(1, 4):
        rep = adversary_drive(HierarchicalInstance(2, k), "alg1")
        assert rep.ratio >= k / 2
        assert rep.cert_ok
        assert len(rep.requests) <= rep.n


def test_path_solver_contestant_needs_base_two():
    with pytest.raises(BadInputError):
        PathAlgContestant(HierarchicalInstance(3, 2))


def test_unknown_contestant():
    with pytest.raises(BadInputError):
        adversary_drive(HierarchicalInstance(2, 1), "nope")


def test_contestant_registry():
    assert set(CONTESTANTS) == {"greedy", "alg1", "top"}
    assert CONTESTANTS["top"][1] is False  # the baseline runs unwrapped


def test_certificate_holds_across_contestants_and_sizes():
    for algo in CONTESTANTS:
        for k in (1, 2):
            for B in (2, 3):
                if algo == "alg1" and B != 2:
                    continue
                rep = adversary_drive(HierarchicalInstance(B, k), algo)
                assert rep.cert_ok, (algo, B, k)
                assert sum(level_cover_costs(rep)) <= 2 * rep.alg_cost


def drive_fields(rep):
    return rep.requests, rep.alg_cost, rep.opt, rep.cert_ok


def test_drive_matches_the_reference_contestants(monkeypatch):
    """Greedy's lowest-unowned-level pick, the wrapper's indexed chain and
    slice coverage, and the solver's indexed sweep drive the adversary
    exactly as the keyed minimum, the recomputed chain and the all-links
    sweep do."""
    cases = [(algo, B, k) for algo in sorted(CONTESTANTS) for B in (2, 3)
             for k in range(1, 5) if algo != "alg1" or B == 2]
    fast = {}
    for algo, B, k in cases:
        inst = HierarchicalInstance(B, k)
        assert inst.links == reference_hierarchy_links(B, k)
        fast[algo, B, k] = drive_fields(adversary_drive(inst, algo))
    monkeypatch.setattr(adversary, "CanonicalWrapper", ReferenceWrapper)
    monkeypatch.setitem(CONTESTANTS, "greedy", (ReferenceGreedy, True))
    monkeypatch.setattr(adversary, "PathSolver", ReferenceSweepSolver)
    for algo, B, k in cases:
        rep = adversary_drive(HierarchicalInstance(B, k), algo)
        assert drive_fields(rep) == fast[algo, B, k], (algo, B, k)


class NoScan(tuple):
    def __iter__(self):
        raise AssertionError("a serve scanned every kept link")


def test_alg1_serves_without_scanning_every_link(monkeypatch):
    want = [drive_fields(adversary_drive(HierarchicalInstance(2, k), "alg1"))
            for k in range(1, 6)]
    solvers = []

    class Guarded(PathSolver):
        def __init__(self, minimal, **kw):
            super().__init__(minimal, **kw)
            object.__setattr__(minimal, "links", NoScan(minimal.links))
            solvers.append(self)

    monkeypatch.setattr(adversary, "PathSolver", Guarded)
    got = [drive_fields(adversary_drive(HierarchicalInstance(2, k), "alg1"))
           for k in range(1, 6)]
    assert got == want
    # the guard is only worth something if paid triggers ran the sweep;
    # on the aligned blocks no link crosses a trigger's right end, so
    # every sweep comes back empty
    kinds = [kind for s in solvers for kind in s.bought.values()]
    assert kinds.count(2) == 6 and kinds.count(3) == 0
