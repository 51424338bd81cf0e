import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from wtap.adversary import HierarchicalInstance
from wtap.errors import BadInputError, InvariantViolationError
from wtap.instance import TreeInstance
from wtap.pruning import (
    REMOVED_DOMINATED,
    REMOVED_REDUNDANT,
    MinimalPathInstance,
    PathLink,
    build_minimal_instance,
    path_instance_from_tree,
    prune_class,
    prune_rooted,
    replacement,
    replacement_cover,
)

from checkers import check_minimal, covers, transfer
from conftest import PL, reference_build_minimal


def removal_reason(link):
    """The reason ``wtap prune`` prints for a removed link."""
    return REMOVED_DOMINATED if link.rooted else REMOVED_REDUNDANT


def spans(links):
    return sorted((l.left, l.right) for l in links)


def cost(links):
    return sum(l.cost for l in links)


def removed_ids(links, kept_ids):
    """What a stage drops: the complement of what it keeps."""
    return [l.id for l in links if l.id not in kept_ids]


# -- rooted dominance -------------------------------------------------------

def test_rooted_same_class_longer_wins():
    links = [PL(0, 5, 1, 0), PL(0, 3, 1, 1)]
    kept = prune_rooted(links)
    assert [l.id for l in kept] == [0]
    assert removed_ids(links, {l.id for l in kept}) == [1]


def test_rooted_same_span_cheaper_wins():
    links = [PL(0, 4, 2, 0), PL(0, 4, 0, 1)]
    kept = prune_rooted(links)
    assert [l.id for l in kept] == [1]
    assert removed_ids(links, {l.id for l in kept}) == [0]


def test_rooted_ignores_nonrooted():
    assert prune_rooted([PL(1, 4, 0, 0)]) == []


def test_rooted_chain_ascends_by_class():
    links = [PL(0, 6, 3, 0), PL(0, 2, 0, 1), PL(0, 4, 1, 2), PL(0, 3, 2, 3)]
    assert [l.id for l in prune_rooted(links)] == [1, 2, 0]


@given(st.lists(st.tuples(st.integers(1, 20), st.integers(0, 5)),
                min_size=1, max_size=15))
def test_rooted_survivors_strictly_nested(raw):
    links = [PL(0, r, c, i) for i, (r, c) in enumerate(raw)]
    kept = prune_rooted(links)
    for a, b in zip(kept, kept[1:]):
        assert a.cost < b.cost
        assert a.right < b.right
    # every removed link has a kept dominator
    kept_ids = {l.id for l in kept}
    for l in links:
        if l.id not in kept_ids:
            assert any(k.cost <= l.cost and k.right >= l.right for k in kept)


# -- per-class cover --------------------------------------------------------

def test_class_cover_drops_middle():
    links = [PL(0, 2, 0, 0), PL(1, 3, 0, 1), PL(0, 3, 0, 2)]
    kept_ids = prune_class(links)
    assert kept_ids == {2}
    assert removed_ids(links, kept_ids) == [0, 1]


def test_class_cover_keeps_disjoint():
    links = [PL(0, 2, 0, 0), PL(2, 4, 0, 1)]
    kept_ids = prune_class(links)
    assert kept_ids == {0, 1}
    assert removed_ids(links, kept_ids) == []


def test_class_cover_tie_prefers_smaller_id():
    assert prune_class([PL(0, 2, 0, 7), PL(0, 2, 0, 3)]) == {3}


def test_class_cover_empty():
    assert prune_class([]) == set()


@given(st.lists(st.tuples(st.integers(0, 11), st.integers(1, 12)),
                min_size=1, max_size=14))
def test_class_cover_preserves_union_at_depth_two(raw):
    links = []
    for i, (a, b) in enumerate(raw):
        if a >= b:
            a, b = b, a + 1
        links.append(PL(a, b, 0, i))
    kept_ids = prune_class(links)
    union = set()
    for l in links:
        union.update(range(l.left, l.right))
    for e in union:
        depth = sum(1 for l in links if l.id in kept_ids and covers(l, e))
        assert 1 <= depth <= 2


# -- full pipeline ----------------------------------------------------------

def test_build_minimal_validates_inputs():
    with pytest.raises(BadInputError):
        build_minimal_instance(4, [PL(0, 5, 0, 0)])           # right too big
    with pytest.raises(BadInputError):
        build_minimal_instance(4, [PL(2, 2, 0, 0)])           # empty span
    with pytest.raises(BadInputError):
        build_minimal_instance(4, [PL(0, 1, 0, 0), PL(1, 2, 0, 0)])
    with pytest.raises(BadInputError):                        # ids descend
        build_minimal_instance(4, [PL(0, 1, 0, 1), PL(1, 2, 0, 0),
                                   PL(2, 3, 0, 1)])


@pytest.mark.parametrize("cost", [0, 3, 6, -4])
def test_build_minimal_rejects_a_cost_not_a_power_of_two(cost):
    links = [PL(0, 1, 0, 0), PathLink(1, 2, cost, 5)]
    with pytest.raises(BadInputError, match="^link 5 cost is not a power of two$"):
        build_minimal_instance(2, links)


def test_build_minimal_accepts_a_huge_power_of_two():
    links = [PathLink(0, 2, 2 ** 4000, 0), PL(0, 1, 0, 1)]
    minimal, removed = build_minimal_instance(2, links)
    assert minimal.links == tuple(links) and removed == []


def test_build_minimal_records_reasons():
    raw = [PL(0, 4, 1, 0), PL(0, 2, 1, 1), PL(1, 3, 1, 2)]
    minimal, removed = build_minimal_instance(4, raw)
    reasons = {l.id: removal_reason(l) for l in removed}
    assert reasons[1] == REMOVED_DOMINATED
    assert reasons[2] == REMOVED_REDUNDANT
    assert [l.id for l in minimal.links] == [0]


@given(st.data())
def test_build_minimal_shape_and_coverage(data):
    m = data.draw(st.integers(min_value=2, max_value=20))
    count = data.draw(st.integers(min_value=1, max_value=18))
    links = []
    for i in range(count):
        left = data.draw(st.integers(0, m - 1))
        right = data.draw(st.integers(left + 1, m))
        cls = data.draw(st.integers(0, 4))
        links.append(PL(left, right, cls, i))
    minimal, removed = build_minimal_instance(m, links)
    assert check_minimal(minimal) == []
    union_raw = set()
    for l in links:
        union_raw.update(range(l.left, l.right))
    union_kept = set()
    for l in minimal.links:
        union_kept.update(range(l.left, l.right))
    assert union_raw == union_kept
    kept_ids = {l.id for l in minimal.links}
    assert kept_ids <= {l.id for l in links}
    assert minimal.kept_from == {i: i for i in sorted(kept_ids)}
    assert [l.id for l in removed] == sorted({l.id for l in links} - kept_ids)
    for link in links:
        reps = replacement(minimal, link)
        if link.id in kept_ids:
            assert reps == [link]
        elif link.rooted:
            assert len(reps) == 1
            rep = reps[0]
            assert rep in minimal.links and rep.rooted
            assert rep.cost <= link.cost and rep.right >= link.right
        else:
            assert 1 <= len(reps) <= 3
            assert all(r in minimal.links and r.cost == link.cost for r in reps)
            span = {e for r in reps for e in range(r.left, r.right)}
            assert span >= set(range(link.left, link.right))


@st.composite
def pruning_inputs(draw, shape):
    """(edge_count, links, kept_from) with ids shuffled and sparse.

    ``identical`` draws every span from a pool of at most three, so
    equal spans within a class meet the cover's tie rule; ``rooted``
    starts three links in four at 0; ``infeasible`` leaves edge ``gap``
    uncovered.
    """
    m = draw(st.integers(2 if shape == "infeasible" else 1, 12))

    def span(lo, hi):
        # a span within positions lo..hi
        return st.integers(lo, hi - 1).flatmap(
            lambda a: st.tuples(st.just(a), st.integers(a + 1, hi)))

    if shape == "identical":
        pool = draw(st.lists(span(0, m), min_size=1, max_size=3))
        spans = st.sampled_from(pool)
    elif shape == "rooted":
        spans = st.integers(0, 3).flatmap(
            lambda k: span(0, m) if k == 0
            else st.tuples(st.just(0), st.integers(1, m)))
    elif shape == "infeasible":
        gap = draw(st.integers(0, m - 1))
        sides = [s for s in ((0, gap), (gap + 1, m)) if s[0] < s[1]]
        spans = st.sampled_from(sides).flatmap(lambda s: span(*s))
    else:
        spans = span(0, m)
    raw = draw(st.lists(st.tuples(spans, st.integers(0, 3)), max_size=16))
    ids = draw(st.permutations(range(0, 3 * len(raw), 3)))
    links = [PL(a, b, cls, i) for ((a, b), cls), i in zip(raw, ids)]
    kept_from = draw(st.one_of(st.none(), st.just({i: 1000 + i for i in ids})))
    return m, links, kept_from


@pytest.mark.parametrize("shape", ["mixed", "identical", "rooted", "infeasible"])
@given(data=st.data())
def test_build_minimal_matches_the_two_stage_reference(shape, data):
    m, links, kept_from = data.draw(pruning_inputs(shape))
    kept, want_from, want_removed = reference_build_minimal(links, kept_from)
    # shuffled ids are sorted first; ascending ones are taken as they are
    for given_links in (links, sorted(links, key=lambda l: l.id)):
        minimal, removed = build_minimal_instance(m, given_links, kept_from)
        assert minimal.links == tuple(kept)
        assert list(minimal.kept_from.items()) == list(want_from.items())
        assert [(l, removal_reason(l)) for l in removed] == want_removed


@pytest.mark.parametrize("shape", ["mixed", "identical", "rooted", "infeasible"])
@given(data=st.data())
def test_coverage_lists_are_shared_per_run(shape, data):
    # edge e's list holds the ids of the kept links over e, ascending,
    # and neighbouring edges share one list exactly when those agree
    m, links, kept_from = data.draw(pruning_inputs(shape))
    minimal, _ = build_minimal_instance(m, links, kept_from)
    cov = minimal.cov_ids
    assert len(cov) == m
    for e in range(m):
        assert cov[e] == [l.id for l in minimal.links if l.left <= e < l.right]
        assert cov[e] == sorted(set(cov[e]))
        if e:
            assert (cov[e] is cov[e - 1]) == (cov[e] == cov[e - 1])


def test_coverage_lists_of_a_run_are_one_list():
    minimal, _ = build_minimal_instance(
        7, [PL(0, 4, 0, 0), PL(2, 6, 1, 1)])
    cov = minimal.cov_ids
    assert cov == [[0], [0], [0, 1], [0, 1], [1], [1], []]
    assert len({id(ids) for ids in cov}) == 4
    assert cov[0] is cov[1] and cov[2] is cov[3] and cov[4] is cov[5]


# -- replacements and transfer ----------------------------------------------

def test_replacement_of_kept_link_is_itself():
    link = PL(0, 3, 0, 0)
    minimal, _ = build_minimal_instance(3, [link])
    assert replacement(minimal, link) == [minimal.links[0]]


def test_replacement_of_dominated_rooted_is_single_dominator():
    raw = [PL(0, 4, 1, 0), PL(0, 3, 1, 1)]
    minimal, _ = build_minimal_instance(4, raw)
    assert [l.id for l in replacement(minimal, raw[1])] == [0]


def test_replacement_of_redundant_link():
    raw = [PL(0, 4, 1, 0), PL(1, 3, 1, 1)]
    minimal, _ = build_minimal_instance(4, raw)
    assert [l.id for l in replacement(minimal, raw[1])] == [0]


def kept_only(edge_count, kept):
    """A minimal instance holding exactly the given links."""
    return MinimalPathInstance(edge_count, tuple(kept), {})


def test_replacement_chain_of_three():
    link = PL(1, 5, 0, 9)
    kept = [PL(0, 2, 0, 0), PL(2, 4, 0, 1), PL(4, 6, 0, 2), PL(1, 6, 1, 3)]
    assert [l.id for l in replacement_cover(link, kept_only(6, kept))] == [0, 1, 2]


def test_replacement_cover_rejects_gap():
    with pytest.raises(InvariantViolationError):
        replacement_cover(PL(1, 6, 0, 9),
                          kept_only(6, [PL(0, 2, 0, 0), PL(4, 6, 0, 1)]))


def test_replacement_cover_rejects_long_chain():
    kept = [PL(2 * i, 2 * i + 2, 0, i) for i in range(4)]
    with pytest.raises(InvariantViolationError):
        replacement_cover(PL(1, 8, 0, 9), kept_only(8, kept))


def random_universe(rng, m, count):
    links = [PL(0, m, 3, 0)]
    for i in range(1, count):
        left = 0 if rng.random() < 0.3 else rng.randrange(m)
        right = rng.randint(left + 1, m)
        cls = rng.randrange(4)
        links.append(PL(left, right, cls, i))
    return links


def test_transfer_bounds_and_coverage():
    rng = random.Random(42)
    for trial in range(120):
        m = rng.randint(3, 24)
        links = random_universe(rng, m, rng.randint(2, 16))
        minimal, _ = build_minimal_instance(m, links)
        # random feasible solution over the original universe
        star = {l.id: l for l in links if rng.random() < 0.5}
        covered = set()
        for l in star.values():
            covered.update(range(l.left, l.right))
        union = set()
        for l in links:
            union.update(range(l.left, l.right))
        if covered != union:
            star[0] = links[0]  # full-span link repairs feasibility
        star = list(star.values())
        rooted_cover, nonrooted_cover = transfer(minimal, star)
        rooted = [l for l in star if l.rooted]
        if rooted:
            assert len(rooted_cover) == 1
            assert cost(rooted_cover) <= cost(rooted)
        else:
            assert rooted_cover == []
        assert cost(nonrooted_cover) <= 3 * cost(l for l in star if not l.rooted)
        want = set()
        for l in star:
            want.update(range(l.left, l.right))
        got = set()
        for l in rooted_cover + nonrooted_cover:
            got.update(range(l.left, l.right))
        assert want <= got


# -- path-shaped tree instances ----------------------------------------------

def test_path_instance_from_tree_takes_edges_in_any_order():
    inst = TreeInstance(n=4, edges=[(2, 3), (0, 1), (1, 2)], root=0,
                        raw_links=[(3, 0, 1)], requests=[(3, 1)])
    edge_count, plinks, request_edges = path_instance_from_tree(inst)
    assert edge_count == 3
    assert [(l.left, l.right) for l in plinks] == [(0, 3)]
    assert request_edges == [2, 1]


def test_path_instance_from_tree_maps_links_and_requests():
    inst = TreeInstance(n=4, edges=[(0, 1), (1, 2), (2, 3)], root=0,
                        raw_links=[(0, 2, 1), (3, 1, 1)],
                        requests=[(1, 3)])
    edge_count, plinks, request_edges = path_instance_from_tree(inst)
    assert edge_count == 3
    assert [(l.left, l.right) for l in plinks] == [(0, 2), (1, 3)]
    assert request_edges == [1, 2]


@given(n=st.integers(1, 30), seed=st.integers(0, 10 ** 6))
def test_path_request_edges_follow_each_tree_path(n, seed):
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(12)]
    pairs += [(order[0], order[-1]), (order[-1], order[0]), (order[0], order[0])]
    inst = TreeInstance(n=n, edges=list(zip(order, order[1:])), root=order[0],
                        requests=pairs)
    # the path is built from order, so a vertex's position is its index
    pos = {v: i for i, v in enumerate(order)}
    walked = [pos[inst.child_of_edge[e]] - 1
              for r in inst.requests for e in inst.tree_path(r.s, r.t)]
    assert path_instance_from_tree(inst)[2] == walked


def test_path_instance_from_tree_rejects_star():
    star = TreeInstance(n=4, edges=[(0, 1), (0, 2), (0, 3)], root=0)
    with pytest.raises(BadInputError):
        path_instance_from_tree(star)


def test_path_instance_from_tree_rejects_a_path_rooted_inside():
    mid = TreeInstance(n=3, edges=[(0, 1), (1, 2)], root=1)
    with pytest.raises(BadInputError, match="not a path rooted at an endpoint"):
        path_instance_from_tree(mid)


def test_build_minimal_holds_little_beyond_what_it_returns():
    # each link is looked up in its own class's kept ids, not in a union
    # of all of them; tracemalloc counts exactly, so the ratio repeats
    inst = HierarchicalInstance(2, 6)                 # 5,461 links, all kept
    tracemalloc.start()
    try:
        minimal, removed = build_minimal_instance(inst.n, inst.links)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(minimal.links) == len(inst.links) and not removed
    assert peak - retained <= 0.4 * retained, (peak, retained)
