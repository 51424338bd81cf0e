import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wtap.errors import BadInputError
from wtap.generators import gen_random, prufer_decode, random_tree
from wtap.instance import format_instance
from wtap.pruning import replacement

from checkers import check_minimal, enumerate_trees, random_minimal_path_instance


def is_spanning_tree(n, edges):
    if len(edges) != n - 1:
        return False
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def test_prufer_pinned():
    assert prufer_decode((3, 3, 3, 4), 6) == [(0, 3), (1, 3), (2, 3), (3, 4), (4, 5)]
    assert prufer_decode((), 2) == [(0, 1)]


def test_prufer_validation():
    with pytest.raises(BadInputError):
        prufer_decode((0,), 2)  # wrong length
    with pytest.raises(BadInputError):
        prufer_decode((5,), 3)  # label out of range


@given(st.integers(min_value=2, max_value=8), st.data())
def test_prufer_gives_trees(n, data):
    seq = tuple(data.draw(st.integers(min_value=0, max_value=n - 1))
                for _ in range(n - 2))
    assert is_spanning_tree(n, prufer_decode(seq, n))


def test_enumerate_trees_counts():
    # Cayley: n^(n-2) labeled trees
    for n, want in [(2, 1), (3, 3), (4, 16)]:
        trees = list(enumerate_trees(n))
        assert len(trees) == want
        assert len({tuple(t) for t in trees}) == want
        for t in trees:
            assert is_spanning_tree(n, t)


def test_random_tree_is_a_tree():
    rng = random.Random(7)
    for n in (2, 5, 33, 200):
        assert is_spanning_tree(n, random_tree(n, rng))


def test_gen_random_deterministic():
    a = gen_random("tree", n=9, link_count=12, cost_spread=50, seed=4,
                   request_count=5)
    b = gen_random("tree", n=9, link_count=12, cost_spread=50, seed=4,
                   request_count=5)
    assert format_instance(a) == format_instance(b)
    c = gen_random("tree", n=9, link_count=12, cost_spread=50, seed=5,
                   request_count=5)
    assert format_instance(a) != format_instance(c)


def test_gen_random_feasible_layer():
    inst = gen_random("tree", n=8, link_count=6, cost_spread=10, seed=1)
    # one unit link per tree edge, then extras
    unit = inst.links[: inst.n - 1]
    assert sorted(tuple(sorted((l.u, l.v))) for l in unit) == sorted(
        tuple(sorted(e)) for e in inst.edges
    )
    assert all(l.cost == 1 for l in unit)
    assert all(c == 1 for c in inst.raw_costs[: inst.n - 1])
    assert len(inst.links) == (inst.n - 1) + 6


def test_gen_random_infeasible_layer():
    inst = gen_random("tree", n=8, link_count=6, cost_spread=10, seed=1,
                      feasible=False)
    assert len(inst.links) == 6


def test_gen_random_request_stream():
    inst = gen_random("path", n=12, link_count=4, cost_spread=8, seed=3,
                      request_count=7)
    assert len(inst.requests) == 7
    for r in inst.requests:
        assert r.s != r.t
        assert 0 <= r.s < 12 and 0 <= r.t < 12


def test_gen_random_kind_and_size_guards():
    with pytest.raises(BadInputError):
        gen_random("lattice", n=5, link_count=3, cost_spread=4, seed=0)
    with pytest.raises(BadInputError):
        gen_random("tree", n=1, link_count=3, cost_spread=4, seed=0)


def test_gen_random_path_kind_is_a_path():
    inst = gen_random("path", n=6, link_count=3, cost_spread=4, seed=2)
    deg = {}
    for u, v in inst.edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    assert sorted(deg.values()) == [1, 1, 2, 2, 2, 2]


def test_random_minimal_path_instance_shape():
    rng = random.Random(60)
    for _ in range(25):
        mp, _, raw = random_minimal_path_instance(rng)
        assert check_minimal(mp) == []
        assert mp.edge_count <= 64
        assert len(mp.links) <= 40
        assert len(raw) <= 40
        # every raw link must have a replacement inside the kept set
        kept = {l.id for l in mp.links}
        for l in raw:
            assert {x.id for x in replacement(mp, l)} <= kept
        full = [l for l in mp.links if l.left == 0 and l.right == mp.edge_count]
        assert full, "whole-path link must survive pruning"
        for l in mp.links:
            assert l.cost == 1 << l.cost.bit_length() - 1
            assert l.cost <= 1 << 6


def test_random_minimal_respects_custom_bounds():
    rng = random.Random(61)
    for _ in range(10):
        mp, _, _ = random_minimal_path_instance(rng, max_edges=12, max_links=6,
                                                max_cls=3)
        assert mp.edge_count <= 12
        assert len(mp.links) <= 6
        assert all(l.cost <= 1 << 3 for l in mp.links)
