from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wtap.errors import BadInputError
from wtap.instance import (
    Request,
    TreeInstance,
    format_instance,
    parse_instance,
    round_costs,
)

from conftest import bfs_path


# -- cost rounding ----------------------------------------------------------

def test_round_costs_all_equal():
    assert round_costs([Fraction(1)] * 3) == [(1, 0)] * 3


def test_round_costs_single_entry_normalizes_to_one():
    assert round_costs([Fraction(3)]) == [(1, 0)]


def test_round_costs_mixed():
    out = round_costs([Fraction(1), Fraction(3), Fraction(8)])
    assert out == [(1, 0), (4, 2), (8, 3)]


def test_round_costs_empty():
    assert round_costs([]) == []


def test_round_costs_rejects_nonpositive():
    with pytest.raises(BadInputError):
        round_costs([Fraction(0), Fraction(1)])
    with pytest.raises(BadInputError):
        round_costs([Fraction(-2)])


@given(st.lists(st.fractions(min_value=Fraction(1, 1000), max_value=1000,
                             max_denominator=1000),
                min_size=1, max_size=12))
def test_round_costs_within_factor_two(raws):
    lo = min(raws)
    for raw, (cost, cls) in zip(raws, round_costs(raws)):
        norm = raw / lo
        assert cost == 1 << cls
        assert cost >= norm
        assert cost < 2 * norm


# -- tree structure ---------------------------------------------------------

def path3():
    return TreeInstance(n=3, edges=[(0, 1), (1, 2)], root=0,
                        raw_links=[(0, 1, 1), (0, 2, 1)])


def test_tree_path_on_a_path():
    inst = path3()
    p = inst.tree_path(0, 2)
    assert p.vertices == (0, 1, 2)
    assert p.edges == (0, 1)
    assert len(p) == 2


def test_tree_path_single_vertex():
    p = path3().tree_path(1, 1)
    assert p.vertices == (1,)
    assert p.edges == ()


def test_tree_path_through_star_center():
    star = TreeInstance(n=4, edges=[(0, 1), (0, 2), (0, 3)], root=0)
    assert star.tree_path(1, 3).vertices == (1, 0, 3)


def test_tree_path_reverses():
    inst = TreeInstance(n=5, edges=[(0, 1), (1, 2), (1, 3), (3, 4)], root=0)
    for u in range(5):
        for v in range(5):
            fwd = inst.tree_path(u, v)
            rev = inst.tree_path(v, u)
            assert fwd.vertices == rev.vertices[::-1]
            assert fwd.edges == rev.edges[::-1]


@given(st.data())
def test_tree_path_matches_bfs(data):
    n = data.draw(st.integers(min_value=2, max_value=10))
    from wtap.generators import prufer_decode
    seq = data.draw(st.lists(st.integers(0, n - 1), min_size=max(0, n - 2),
                             max_size=max(0, n - 2)))
    edges = prufer_decode(seq, n) if n > 2 else [(0, 1)]
    inst = TreeInstance(n=n, edges=edges, root=0)
    u = data.draw(st.integers(0, n - 1))
    v = data.draw(st.integers(0, n - 1))
    if u != v:
        assert list(inst.tree_path(u, v).vertices) == bfs_path(n, edges, u, v)


@given(st.data())
def test_lca_is_deepest_common_ancestor(data):
    n = data.draw(st.integers(min_value=2, max_value=10))
    from wtap.generators import prufer_decode
    seq = data.draw(st.lists(st.integers(0, n - 1), min_size=max(0, n - 2),
                             max_size=max(0, n - 2)))
    edges = prufer_decode(seq, n) if n > 2 else [(0, 1)]
    inst = TreeInstance(n=n, edges=edges, root=0)
    u = data.draw(st.integers(0, n - 1))
    v = data.draw(st.integers(0, n - 1))
    to_u = bfs_path(n, edges, 0, u)
    to_v = bfs_path(n, edges, 0, v)
    common = [a for a, b in zip(to_u, to_v) if a == b]
    assert inst.lca(u, v) == common[-1]


# -- link coverage ----------------------------------------------------------

def test_cov_on_path():
    inst = path3()
    # link 0 spans edge 0 only, link 1 spans both edges
    assert inst.cov(0) == frozenset({0, 1})
    assert inst.cov(1) == frozenset({1})


def test_cov_rejects_bad_edge():
    with pytest.raises(BadInputError):
        path3().cov(5)


def test_cov_agrees_with_link_edges():
    from wtap.generators import gen_random
    inst, _ = gen_random("tree", 9, 12, 8.0, seed=3)
    for e in range(inst.n - 1):
        for ln in inst.links:
            assert (ln.id in inst.cov(e)) == (e in inst.link_edges(ln.id))
            assert (e in inst.link_edges(ln.id)) == (
                e in inst.tree_path(ln.u, ln.v).edges)


def test_expand_request_orders_edges_from_s():
    inst = TreeInstance(n=4, edges=[(0, 1), (1, 2), (2, 3)], root=0)
    assert inst.expand_request(Request(s=0, t=3)) == [0, 1, 2]
    assert inst.expand_request(Request(s=3, t=0)) == [2, 1, 0]
    assert inst.expand_request(Request(s=1, t=1)) == []
    assert inst.expand_request(Request(edge=1)) == [1]


# -- construction errors ----------------------------------------------------

def test_rejects_wrong_edge_count():
    with pytest.raises(BadInputError):
        TreeInstance(n=3, edges=[(0, 1)], root=0)


def test_rejects_self_loop():
    with pytest.raises(BadInputError):
        TreeInstance(n=3, edges=[(0, 1), (2, 2)], root=0)


def test_rejects_duplicate_edge():
    with pytest.raises(BadInputError):
        TreeInstance(n=3, edges=[(0, 1), (1, 0)], root=0)


def test_rejects_disconnected():
    with pytest.raises(BadInputError):
        TreeInstance(n=4, edges=[(0, 1), (1, 2), (0, 2)], root=0)


def test_rejects_bad_root():
    with pytest.raises(BadInputError):
        TreeInstance(n=2, edges=[(0, 1)], root=2)


def test_rejects_bad_link_endpoint():
    with pytest.raises(BadInputError):
        TreeInstance(n=2, edges=[(0, 1)], root=0, raw_links=[(0, 5, 1)])
    with pytest.raises(BadInputError):
        TreeInstance(n=2, edges=[(0, 1)], root=0, raw_links=[(1, 1, 1)])


def test_rejects_bad_request_endpoint():
    with pytest.raises(BadInputError):
        TreeInstance(n=2, edges=[(0, 1)], root=0, requests=[(0, 9)])


def test_single_vertex_tree():
    inst = TreeInstance(n=1, edges=[], root=0)
    assert inst.parent == [-1]


# -- text format ------------------------------------------------------------

SAMPLE = """\
# three vertices on a path
n 3 root 0
edge 0 1
edge 1 2
link 0 1 1
link 0 2 3/2   # fractional raw cost
request 0 2
"""


def test_parse_sample():
    inst = parse_instance(SAMPLE)
    assert inst.n == 3
    assert inst.root == 0
    assert [l.cost for l in inst.links] == [1, 2]
    assert [l.cls for l in inst.links] == [0, 1]
    assert inst.requests[0].s == 0 and inst.requests[0].t == 2


def test_format_parse_round_trip():
    inst = parse_instance(SAMPLE)
    text = format_instance(inst)
    again = parse_instance(text)
    assert format_instance(again) == text
    assert again.digest() == inst.digest()


def test_digest_changes_with_cost():
    a = parse_instance(SAMPLE)
    b = parse_instance(SAMPLE.replace("3/2", "2"))
    assert a.digest() != b.digest()


def test_parse_missing_header():
    with pytest.raises(BadInputError):
        parse_instance("edge 0 1\n")


def test_parse_unknown_directive():
    with pytest.raises(BadInputError):
        parse_instance("n 2 root 0\nedge 0 1\nfoo 1 2\n")


def test_parse_bad_cost():
    with pytest.raises(BadInputError):
        parse_instance("n 2 root 0\nedge 0 1\nlink 0 1 zero\n")


def test_parse_short_link_line():
    with pytest.raises(BadInputError):
        parse_instance("n 2 root 0\nedge 0 1\nlink 0 1\n")


@pytest.mark.parametrize("text, lineno", [
    ("n 3 root 0\nedge 0 1\nedge 1 2 7 junk\n", 3),   # trailing token
    ("n 3 root 0\nedge 0 1\nedge 1 2\nrequest 0 1 zz\n", 4),
    ("n 3 root 0\nedge 0 1\nedge 1 2\nn 3 root 2\n", 4),  # re-rooting
])
def test_parse_rejects_malformed_line_with_its_number(text, lineno):
    with pytest.raises(BadInputError, match=f"^line {lineno}: "):
        parse_instance(text)
