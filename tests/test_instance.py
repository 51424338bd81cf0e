import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import wtap.instance as instance_module
from wtap.cli import main
from wtap.errors import BadInputError
from wtap.generators import gen_random
from wtap.instance import (
    MAX_COST_CHARS,
    TreeInstance,
    _cost_classes,
    format_instance,
    parse_instance,
)

from conftest import bfs_path, reference_parse_instance


# -- cost rounding ----------------------------------------------------------

def test_round_costs_all_equal():
    assert _cost_classes([Fraction(1)] * 3) == [0] * 3


def test_round_costs_single_entry_normalizes_to_one():
    assert _cost_classes([Fraction(3)]) == [0]


def test_round_costs_mixed():
    out = _cost_classes([Fraction(1), Fraction(3), Fraction(8)])
    assert out == [0, 2, 3]


def test_round_costs_empty():
    assert _cost_classes([]) == []


def test_round_costs_rejects_nonpositive():
    with pytest.raises(BadInputError):
        _cost_classes([Fraction(0), Fraction(1)])
    with pytest.raises(BadInputError):
        _cost_classes([Fraction(-2)])


@given(st.lists(st.fractions(min_value=Fraction(1, 1000), max_value=1000,
                             max_denominator=1000),
                min_size=1, max_size=12))
def test_round_costs_within_factor_two(raws):
    lo = min(raws)
    for raw, cls in zip(raws, _cost_classes(raws)):
        norm = raw / lo
        cost = 1 << cls
        assert cls >= 0
        assert cost >= norm
        assert cost < 2 * norm


def fraction_cost_classes(raws):
    """Reference: smallest j >= 0 with 2**j >= c / lo, in Fractions."""
    lo = min(raws)
    out = []
    for c in raws:
        f = Fraction(c, 1) / lo
        j = 0
        while (1 << j) < f:
            j += 1
        out.append(j)
    return out


positive_costs = st.one_of(
    st.integers(1, 10 ** 30),
    st.fractions(min_value=Fraction(1, 10 ** 12), max_value=10 ** 12,
                 max_denominator=10 ** 12))


@given(st.lists(positive_costs, min_size=1, max_size=12),
       st.lists(st.integers(0, 70), max_size=6))
def test_round_costs_matches_the_fraction_formulation(raws, shifts):
    # power-of-two multiples of the minimum sit on class boundaries; a
    # hair above one must move up a class
    lo = min(raws)
    raws = raws + [lo * (1 << s) + d for s in shifts
                   for d in (0, Fraction(1, 10 ** 40))]
    assert _cost_classes(raws) == fraction_cost_classes(raws)


# -- tree structure ---------------------------------------------------------

def path3():
    return TreeInstance(n=3, edges=[(0, 1), (1, 2)], root=0,
                        raw_links=[(0, 1, 1), (0, 2, 1)])


def bfs_edges(inst, u, v):
    """Edge ids along the plain-BFS vertex sequence from u to v."""
    verts = bfs_path(inst.n, inst.edges, u, v)
    return tuple(inst.edge_of_child[a] if inst.parent[a] == b
                 else inst.edge_of_child[b] for a, b in zip(verts, verts[1:]))


def test_tree_path_on_a_path():
    inst = path3()
    assert inst.tree_path(0, 2) == (0, 1)
    assert inst.tree_path(2, 0) == (1, 0)


def test_tree_path_single_vertex():
    assert path3().tree_path(1, 1) == ()


def test_tree_path_through_star_center():
    star = TreeInstance(n=4, edges=[(0, 1), (0, 2), (0, 3)], root=0)
    assert star.tree_path(1, 3) == (0, 2)


def test_tree_path_reverses():
    inst = TreeInstance(n=5, edges=[(0, 1), (1, 2), (1, 3), (3, 4)], root=0)
    for u in range(5):
        for v in range(5):
            assert inst.tree_path(u, v) == inst.tree_path(v, u)[::-1]


def prufer_tree(data):
    n = data.draw(st.integers(min_value=2, max_value=10))
    from wtap.generators import prufer_decode
    seq = data.draw(st.lists(st.integers(0, n - 1), min_size=max(0, n - 2),
                             max_size=max(0, n - 2)))
    edges = prufer_decode(seq, n) if n > 2 else [(0, 1)]
    return TreeInstance(n=n, edges=edges, root=0)


@given(st.data())
def test_tree_path_matches_bfs(data):
    inst = prufer_tree(data)
    u = data.draw(st.integers(0, inst.n - 1))
    v = data.draw(st.integers(0, inst.n - 1))
    path = inst.tree_path(u, v)
    assert type(path) is tuple
    assert path == bfs_edges(inst, u, v)


@given(st.data())
def test_lca_is_deepest_common_ancestor(data):
    inst = prufer_tree(data)
    n, edges = inst.n, inst.edges
    u = data.draw(st.integers(0, n - 1))
    v = data.draw(st.integers(0, n - 1))
    path = inst.tree_path(u, v)
    # the path turns at the deepest common ancestor: the parent of the
    # child end of its shallowest edge, or u itself on an empty path
    if path:
        child = min((inst.child_of_edge[e] for e in path),
                    key=inst.depth.__getitem__)
        top = inst.parent[child]
    else:
        top = u
    to_u = bfs_path(n, edges, 0, u)
    to_v = bfs_path(n, edges, 0, v)
    common = [a for a, b in zip(to_u, to_v) if a == b]
    assert top == common[-1]


# -- link coverage ----------------------------------------------------------

def test_cov_on_path():
    inst = path3()
    # link 0 spans edge 0 only, link 1 spans both edges
    assert inst.cov(0) == frozenset({0, 1})
    assert inst.cov(1) == frozenset({1})


def test_cov_rejects_bad_edge():
    with pytest.raises(BadInputError):
        path3().cov(5)


def test_cov_agrees_with_tree_path():
    from wtap.generators import gen_random
    inst = gen_random("tree", 9, 12, 8.0, seed=3)
    for e in range(inst.n - 1):
        for ln in inst.links:
            assert (ln.id in inst.cov(e)) == (
                e in bfs_edges(inst, ln.u, ln.v))
            assert (e in bfs_edges(inst, ln.u, ln.v)) == (
                e in inst.tree_path(ln.u, ln.v))


def test_tree_path_orders_request_edges_from_s():
    inst = TreeInstance(n=4, edges=[(0, 1), (1, 2), (2, 3)], root=0,
                        requests=[(0, 3), (3, 0), (1, 1)])
    assert [inst.tree_path(r.s, r.t) for r in inst.requests] == [
        (0, 1, 2), (2, 1, 0), ()]


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
    # the cycle in the root's part of the tree, then away from it
    for edges in ([(0, 1), (1, 2), (0, 2)], [(0, 1), (2, 3), (3, 4), (4, 2)]):
        with pytest.raises(BadInputError, match="do not connect all vertices"):
            TreeInstance(n=len(edges) + 1, edges=edges, root=0)


def test_rejects_bad_root():
    with pytest.raises(BadInputError):
        TreeInstance(n=2, edges=[(0, 1)], root=2)


def test_rejects_bad_link_endpoint():
    with pytest.raises(BadInputError):
        TreeInstance(n=2, edges=[(0, 1)], root=0, raw_links=[(0, 5, 1)])
    with pytest.raises(BadInputError):
        TreeInstance(n=2, edges=[(0, 1)], root=0, raw_links=[(1, 1, 1)])


def test_rejects_bad_request_endpoint():
    with pytest.raises(BadInputError, match="^request 0 endpoint out of range"):
        TreeInstance(n=2, edges=[(0, 1)], root=0, requests=[(0, 9)])


def test_rejects_oversized_cost():
    # numerator and denominator must stay under 10**2000 so that the
    # cost formats back; digest() would otherwise crash in str()
    for cost in (10 ** 5000, Fraction(10 ** 5000), Fraction(1, 10 ** 2000)):
        with pytest.raises(BadInputError, match="^link 0 cost has"):
            TreeInstance(2, [(0, 1)], 0, raw_links=[(0, 1, cost)])


def test_value_errors_name_the_entry_at_fault():
    with pytest.raises(BadInputError) as info:
        TreeInstance(n=3, edges=[(0, 1), (1, 0)], root=0)
    assert info.value.items == (("edge", 1), ("edge", 0))
    with pytest.raises(BadInputError) as info:
        TreeInstance(n=2, edges=[(0, 1)], root=0,
                     raw_links=[(0, 1, 1), (0, 1, -1)])
    assert info.value.items == (("link", 1),)
    with pytest.raises(BadInputError) as info:
        TreeInstance(n=3, edges=[(0, 1)], root=0)
    assert info.value.items == ()


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
    assert inst.requests[0].s == 0 and inst.requests[0].t == 2


def test_format_parse_round_trip():
    inst = parse_instance(SAMPLE)
    text = format_instance(inst)
    again = parse_instance(text)
    assert format_instance(again) == text
    assert format_instance(again) == format_instance(inst)


def test_digest_changes_with_cost():
    a = parse_instance(SAMPLE)
    b = parse_instance(SAMPLE.replace("3/2", "2"))
    assert format_instance(a) != format_instance(b)


def test_parse_missing_header():
    with pytest.raises(BadInputError):
        parse_instance("edge 0 1\n")


def test_parse_unknown_directive():
    with pytest.raises(BadInputError):
        parse_instance("n 2 root 0\nedge 0 1\nfoo 1 2\n")


def test_parse_bad_cost():
    with pytest.raises(BadInputError):
        parse_instance("n 2 root 0\nedge 0 1\nlink 0 1 zero\n")


@pytest.mark.parametrize("token", ["1/0", "0/0", "7/000", "-3/0", "+1/0"])
def test_zero_denominator_cost_says_so(token, tmp_path, capsys):
    # the fast p/q path and Fraction(token) both divide by zero here
    text = f"n 2 root 0\nedge 0 1\n# a comment\nlink 0 1 {token}\n"
    with pytest.raises(BadInputError,
                       match="^line 4: cost has a zero denominator$"):
        parse_instance(text)
    path = tmp_path / "zero.txt"
    path.write_text(text)
    assert main(["run-tree", str(path)]) == 4
    assert capsys.readouterr().err == (
        "error: line 4: cost has a zero denominator\n")


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


def test_parse_duplicate_edge_names_both_lines():
    text = "n 3 root 0\nedge 0 1\n# again\nedge 1 0\n"
    with pytest.raises(BadInputError, match="^line 4: .* line 2$"):
        parse_instance(text)


@pytest.mark.parametrize("text, lineno", [
    ("n 3 root 0\nedge 0 1\nedge 1 5\n", 3),              # endpoint range
    ("n 3 root 0\nedge 0 1\nedge 1 2\nlink 0 2 -1\n", 4),  # cost <= 0
    ("n 3 root 0\nedge 0 1\nedge 1 2\nlink 0 2 1\nrequest 0 9\n", 5),
    ("n 3 root 0\nedge 0 1\nedge 1 0\n", 3),              # duplicate edge
    ("# two edges short\nn 3 root 0\nedge 0 1\n", 2),      # edge count
    ("# cycle\nn 4 root 0\nedge 0 1\nedge 1 2\nedge 2 0\n", 2),  # disconnected
    ("n 3 root 0\nedge 0 1\nedge 2 2\n", 3),              # edge self-loop
    ("n 3 root 0\nedge 0 1\nedge 1 2\nlink 0 1 1\nlink 3 1 1\n", 5),  # link range
    ("n 3 root 0\nedge 0 1\nedge 1 2\nlink 1 1 1\n", 4),  # link self-loop
    ("# root\nn 3 root 3\nedge 0 1\nedge 1 2\n", 2),      # bad root
    ("n 0 root 0\n", 1),                                   # no vertices
    # int() reads each of these as a vertex in range: only ASCII digits
    # name a vertex or a count
    ("n 3 root 0\nedge 0 1\nedge 1 +2\n", 3),
    ("n 3 root 0\nedge 0 1\nedge 1 2\nlink 0 \u0662 1\n", 4),
    ("n 3 root 0\nedge 0 1\nedge 1 2\nrequest 0 0_2\n", 4),
    ("# count\nn \uff13 root 0\nedge 0 1\nedge 1 2\n", 2),
])
def test_parse_names_the_line_of_a_bad_value(text, lineno, tmp_path, capsys):
    with pytest.raises(BadInputError, match=f"^line {lineno}: "):
        parse_instance(text)
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert main(["run-tree", str(path)]) == 4
    assert f"line {lineno}: " in capsys.readouterr().err


@pytest.mark.parametrize("cost", ["1e5000", "7" * 5000, "1e30_000_000"])
def test_huge_cost_exits_4_fast(cost, tmp_path, capsys):
    # each parses to a number too long for str(); the parser rejects them
    # by their size, before it builds the Fraction, and does not echo them
    path = tmp_path / "huge.txt"
    path.write_text(f"n 2 root 0\nedge 0 1\nlink 0 1 {cost}\n")
    start = time.perf_counter()
    assert main(["run-tree", str(path)]) == 4
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "line 3: " in err
    assert len(err) < 200


def test_huge_header_count_exits_4_fast(tmp_path, capsys):
    # nothing is allocated from the header's count before the constructor
    # has checked the edges against it
    path = tmp_path / "huge.txt"
    path.write_text("n 10000000000 root 0\nedge 0 1\n")
    start = time.perf_counter()
    assert main(["run-tree", str(path)]) == 4
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "error: line 1: expected 9999999999 tree edges, got 1\n")


@given(kind=st.sampled_from(["tree", "path"]), n=st.integers(2, 12),
       links=st.integers(0, 10), requests=st.integers(0, 6),
       feasible=st.booleans(), seed=st.integers(0, 10 ** 6))
def test_parse_format_round_trip(kind, n, links, requests, feasible, seed):
    inst = gen_random(kind, n, links, 64.0, seed, feasible=feasible,
                      request_count=requests)
    again = parse_instance(format_instance(inst))
    assert (again.n, again.root) == (inst.n, inst.root)
    assert again.edges == inst.edges
    assert again.links == inst.links            # endpoints, cost, id
    assert again.raw_costs == inst.raw_costs
    assert again.requests == inst.requests


def reference_cost(token):
    """``Fraction(token)`` under the parser's size bounds, or None when
    either rejects the token."""
    if len(token) > MAX_COST_CHARS:
        return None
    exponent = token.lower().partition("e")[2].replace("_", "")
    try:
        # int() rejects an exponent with two signs, as Fraction does
        if (exponent.lstrip("+-").isdecimal()
                and abs(int(exponent)) > MAX_COST_CHARS):
            return None
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        return None


# ASCII, Arabic-Indic, Devanagari and fullwidth decimals, a superscript
# (a digit but not a decimal), and everything Fraction reads around them
_COST_PIECES = st.sampled_from(["0", "00", "1", "7", "9", "\u0663", "\u0967",
                                "\uff18", "\u00b2", ".", "/", "+", "-", "e",
                                "E", "_"])
_COST_TOKENS = st.one_of(
    st.lists(_COST_PIECES, min_size=1, max_size=12).map("".join),
    st.builds(lambda head, k, tail: head + "1" * k + tail,
              st.sampled_from(["", "1.", "1/", "1e"]),
              st.integers(MAX_COST_CHARS - 3, MAX_COST_CHARS + 2),
              st.sampled_from(["", "0", "_1"])))


@given(_COST_TOKENS)
def test_parsed_cost_is_the_fraction_of_its_token(token):
    text = f"n 2 root 0\nedge 0 1\nlink 0 1 {token}\n"
    want = reference_cost(token)
    if want is None or want <= 0:
        with pytest.raises(BadInputError, match="^line 3: "):
            parse_instance(text)
        return
    got = parse_instance(text).raw_costs[0]
    assert type(got) in (int, Fraction)
    assert got == want
    assert str(got) == str(want)


def test_plain_costs_never_parse_a_string_through_fraction(monkeypatch):
    real = Fraction

    def no_strings(*args):
        if any(isinstance(a, str) for a in args):
            raise AssertionError(f"Fraction{args!r}")
        return real(*args)

    text = ("n 3 root 0\nedge 0 1\nedge 1 2\nlink 0 1 3\n"
            "link 0 2 1.3302\nlink 1 2 10/4\nlink 0 2 007\n")
    want = parse_instance(text)
    monkeypatch.setattr(instance_module, "Fraction", no_strings)
    got = parse_instance(text)
    assert got.raw_costs == [3, Fraction(6651, 5000), Fraction(5, 2), 7]
    assert got.links == want.links
    assert format_instance(got) == format_instance(want)


def test_api_and_parsed_costs_agree():
    tokens = ["3", "1.25", "10/4", "007", "2.50"]
    text = "n 3 root 0\nedge 0 1\nedge 1 2\n" + "".join(
        f"link 0 {1 + i % 2} {t}\n" for i, t in enumerate(tokens))
    parsed = parse_instance(text)
    ends = [(ln.u, ln.v) for ln in parsed.links]
    for costs in ([3, Fraction(5, 4), Fraction(5, 2), 7, Fraction(5, 2)],
                  [Fraction(t) for t in tokens],
                  tokens):
        api = TreeInstance(3, [(0, 1), (1, 2)], 0,
                           raw_links=[(u, v, c) for (u, v), c in zip(ends, costs)])
        assert api.links == parsed.links
        assert list(map(str, api.raw_costs)) == list(map(str, parsed.raw_costs))
        assert format_instance(api) == format_instance(parsed)


_TOKENS = st.sampled_from(["n", "root", "edge", "link", "request", "#", "0",
                           "1", "2", "3", "-1", "9", "1/2", "0/1", "1/0",
                           "2.5", "x", ""])


@given(st.one_of(
    st.text(max_size=200),
    st.lists(st.lists(_TOKENS, max_size=5).map(" ".join),
             max_size=8).map("\n".join),
    st.lists(st.lists(_TOKENS, max_size=5).map(" ".join),
             max_size=8).map(lambda ls: "\n".join(["n 4 root 0"] + ls))))
def test_arbitrary_text_parses_or_raises_bad_input(text):
    try:
        inst = parse_instance(text)
    except BadInputError:
        return
    assert isinstance(inst, TreeInstance)


# -- the parser against its reference ---------------------------------------

_COSTS = st.one_of(
    st.integers(1, 10 ** 6).map(str),
    st.builds("{}.{:04d}".format, st.integers(0, 99), st.integers(0, 9999)),
    st.builds("{}/{}".format, st.integers(1, 99), st.integers(1, 99)),
    st.sampled_from(["1e3", "2.5e-2", "+7", "1_000", "07", "3/4"]))
_BAD_TOKENS = st.sampled_from(["zz", "1.5", "0x1f", "foo", "", "7 8", "1/0"])
_FAULTS = [None, "token", "range", "loop", "duplicate edge", "cost",
           "huge cost", "no header", "two headers"]


def _corrupt(data, lines, n, fault):
    """Apply one fault to the instance lines, the header first."""
    edges, links, requests = (
        [i for i, line in enumerate(lines) if line.startswith(kind)]
        for kind in ("edge", "link", "request"))
    if fault == "token":
        i = data.draw(st.integers(0, len(lines) - 1))
        words = lines[i].split()
        words[data.draw(st.integers(0, len(words) - 1))] = data.draw(_BAD_TOKENS)
        lines[i] = " ".join(words)
    elif fault == "range" and (edges or links or requests):
        group = data.draw(st.sampled_from([g for g in (edges, links, requests) if g]))
        i = data.draw(st.sampled_from(group))
        words = lines[i].split()
        words[data.draw(st.integers(1, 2))] = str(data.draw(st.sampled_from([n, -1])))
        lines[i] = " ".join(words)
    elif fault == "loop" and (edges or links):
        i = data.draw(st.sampled_from(edges + links))
        words = lines[i].split()
        words[2] = words[1]
        lines[i] = " ".join(words)
    elif fault == "duplicate edge" and edges:
        u, v = lines[data.draw(st.sampled_from(edges))].split()[1:]
        lines.insert(data.draw(st.integers(1, edges[-1] + 1)), f"edge {v} {u}")
    elif fault in ("cost", "huge cost") and links:
        i = data.draw(st.sampled_from(links))
        cost = data.draw(st.sampled_from(
            ["0", "-3", "0/5", "-1.5", "0.0"] if fault == "cost" else
            ["1e1001", "9" * (MAX_COST_CHARS + 1), "1" * MAX_COST_CHARS, "1e-1001"]))
        lines[i] = " ".join(lines[i].split()[:3] + [cost])
    elif fault == "no header":
        del lines[0]
    elif fault == "two headers":
        lines.insert(data.draw(st.integers(1, len(lines))),
                     f"n {n} root {data.draw(st.integers(0, n - 1))}")


@pytest.mark.parametrize("fault", _FAULTS)
@given(data=st.data())
def test_parse_matches_the_reference_parser(fault, data):
    # the parser keeps no line numbers: an error's line is found by
    # reading the text again, and must be the one the reference names
    n = data.draw(st.integers(1, 7))
    root = data.draw(st.integers(0, n - 1))
    lines = [f"n {n} root {root}"]
    for v in range(1, n):
        u = data.draw(st.integers(0, v - 1))
        lines.append(f"edge {u} {v}" if data.draw(st.booleans()) else f"edge {v} {u}")
    lines[1:] = data.draw(st.permutations(lines[1:]))
    for _ in range(data.draw(st.integers(0, 6)) if n > 1 else 0):
        u = data.draw(st.integers(0, n - 1))
        v = (u + data.draw(st.integers(1, n - 1))) % n
        lines.append(f"link {u} {v} {data.draw(_COSTS)}")
    for _ in range(data.draw(st.integers(0, 5))):
        s, t = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        lines.append(f"request {s} {t}")
    _corrupt(data, lines, n, fault)
    # blank lines, whole-line and trailing comments, CRLF and CR endings
    decorated = []
    for line in lines:
        for _ in range(data.draw(st.integers(0, 2))):
            decorated.append(data.draw(st.sampled_from(["", "  ", "# note", " #"])))
        decorated.append(line + data.draw(st.sampled_from(["", " # why", "#x", "\t"])))
    newline = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(decorated) + data.draw(st.sampled_from(["", newline]))

    try:
        want = reference_parse_instance(text)
    except BadInputError as exc:
        with pytest.raises(BadInputError) as got:
            parse_instance(text)
        assert str(got.value) == str(exc)
        return
    got = parse_instance(text)
    assert (got.n, got.root, got.edges) == (want.n, want.root, want.edges)
    assert got.links == want.links
    assert [(type(c), c) for c in got.raw_costs] == [
        (type(c), c) for c in want.raw_costs]
    assert got.requests == want.requests


def test_parse_keeps_its_peak_memory_near_what_it_returns():
    # no per-entry tuples or line numbers are held while the instance is
    # built; tracemalloc counts exactly, so the ratio is the same on
    # every run
    rng = random.Random(7)
    n = 2000
    lines = [f"n {n} root 0"]
    lines += [f"edge {rng.randrange(v)} {v}" for v in range(1, n)]
    for _ in range(3000):
        u, v = rng.sample(range(n), 2)
        lines.append(f"link {u} {v} {rng.randint(1, 99)}.{rng.randint(0, 9999):04d}")
    lines += [f"request {rng.randrange(n)} {rng.randrange(n)}" for _ in range(1000)]
    text = "\n".join(lines) + "\n"
    assert len(lines) >= 5000
    tracemalloc.start()
    try:
        inst = parse_instance(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(inst.links) == 3000
    assert peak <= 1.3 * retained, (peak, retained)


def test_parse_shares_one_int_per_vertex():
    # a repeated endpoint token reuses the int parsed first, so every
    # field that names a vertex holds one object per vertex id (ints
    # above 256 are not cached by the interpreter)
    n = 600
    inst = gen_random("tree", n, n, 16.0, seed=3, request_count=n)
    text = format_instance(inst).replace("n 600 root 0\n", f"n 600 root {n - 1}\n", 1)
    parsed = parse_instance(text)
    assert parsed.root == n - 1
    named = [v for u_v in parsed.edges for v in u_v]
    named += [v for ln in parsed.links for v in (ln.u, ln.v)]
    named += [v for r in parsed.requests for v in (r.s, r.t)]
    named += [v for v in parsed.parent if v >= 0] + parsed.order
    first = {}
    assert all(first.setdefault(v, v) is v for v in named)
    assert len(first) == n
