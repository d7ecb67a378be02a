import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netio_reference as ref
from privdeg.netio import (EdgeList, ParseError, kept_labels, parse_edges,
                           prune_zero_degree, read_degree_file,
                           serialize_edges, sniff_format)

INT64_MAX = 2**63 - 1


def test_parse_simple_edgelist():
    e = parse_edges("1 2\n2 3\n", "edgelist")
    assert e.n == 3
    assert e.edges.tolist() == [[1, 2], [2, 3]]


def test_parse_edgelist_with_declared_n_and_comments():
    e = parse_edges("# a comment\nn=5\n1 2\n4 5  # trailing\n", "edgelist")
    assert e.n == 5
    assert e.edges.tolist() == [[1, 2], [4, 5]]
    assert list(e.degree_vector()) == [1, 1, 0, 1, 1]


def test_degree_vector_counts_isolated_vertices():
    rng = np.random.default_rng(0)
    n = 30
    pairs = {(int(min(i, j)), int(max(i, j)))
             for i, j in rng.integers(1, n - 5, size=(40, 2)) if i != j}
    e = EdgeList(n, tuple(pairs))
    ref = np.zeros(n, dtype=np.int64)
    for (i, j) in e.edges:
        ref[i - 1] += 1
        ref[j - 1] += 1
    d = e.degree_vector()
    assert d.dtype == np.int64 and np.array_equal(d, ref)
    assert not d[n - 5:].any()
    empty = EdgeList(4, ()).degree_vector()
    assert empty.dtype == np.int64 and np.array_equal(empty, np.zeros(4))


def test_parse_edgelist_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_edges("1 2\n3 3\n", "edgelist")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_edges("1 2\n1 2\n", "edgelist")      # duplicate
    with pytest.raises(ParseError):
        parse_edges("n=2\n1 3\n", "edgelist")      # out of range
    with pytest.raises(ParseError):
        parse_edges("1 two\n", "edgelist")


def test_parse_fullmatrix_symmetry_error():
    text = "dl n=3\nformat = fullmatrix\ndata:\n0 1 0\n0 0 1\n0 1 0\n"
    with pytest.raises(ParseError) as exc:
        parse_edges(text, "ucinet-dl")
    assert "asymmetric" in str(exc.value)


def test_parse_fullmatrix_diag_and_shape_errors():
    with pytest.raises(ParseError):
        parse_edges("dl n=2\nformat = fullmatrix\ndata:\n1 1\n1 0\n", "ucinet-dl")
    with pytest.raises(ParseError):
        parse_edges("dl n=2\nformat = fullmatrix\ndata:\n0 1\n", "ucinet-dl")
    with pytest.raises(ParseError):
        parse_edges("format = fullmatrix\ndata:\n", "ucinet-dl")


def test_parse_fullmatrix_roundtrip():
    text = "dl n=4\nformat = fullmatrix\ndata:\n0 1 0 1\n1 0 1 0\n0 1 0 0\n1 0 0 0\n"
    e = parse_edges(text, "ucinet-dl")
    assert e.n == 4
    assert e.edges.tolist() == [[1, 2], [1, 4], [2, 3]]


def test_tailorshop_fixture_structure(tailorshop_text):
    e = parse_edges(tailorshop_text, "ucinet-dl")
    assert e.n == 39
    d = e.degree_vector()
    assert d[16] == 0 and d[21] == 0          # vertices 17 and 22 isolated
    assert int(np.argmax(d)) == 15            # vertex 16 carries the maximum
    pruned, removed = prune_zero_degree(e)
    assert removed == [17, 22]
    assert pruned.n == 37
    again, removed2 = prune_zero_degree(pruned)
    assert removed2 == [] and again == pruned  # idempotent
    assert kept_labels(e)[15] == 16


def test_prune_noop_without_isolated_vertices():
    e = parse_edges("1 2\n2 3\n1 3\n", "edgelist")
    pruned, removed = prune_zero_degree(e)
    assert removed == [] and pruned == e


def test_prune_everything_leaves_empty():
    e = EdgeList(3, ())
    pruned, removed = prune_zero_degree(e)
    assert removed == [1, 2, 3]
    assert pruned.n == 0 and pruned.edges.shape == (0, 2)


def test_serialize_parse_round_trip():
    e = parse_edges("n=6\n1 2\n2 3\n5 6\n", "edgelist")
    assert parse_edges(serialize_edges(e), "edgelist") == e


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 12), st.data())
def test_round_trip_property(n, data):
    all_pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = data.draw(st.lists(st.sampled_from(all_pairs), unique=True, max_size=12))
    e = EdgeList(n, tuple(chosen))
    assert parse_edges(serialize_edges(e), "edgelist") == e


def test_sniff_format():
    assert sniff_format("dl n=3\n...") == "ucinet-dl"
    assert sniff_format("# x\n1 2\n") == "edgelist"
    # the header counts on the first non-blank line, past any line break
    for text in ("\n  DL n=3", "\x1c\x85 dl n=2", " \t\r\nDl"):
        assert sniff_format(text) == "ucinet-dl"
    for text in ("", "  \n\n", "d\nl", "1 2\ndl n=2"):
        assert sniff_format(text) == "edgelist"


def test_edge_list_validation():
    with pytest.raises(ValueError):
        EdgeList(3, ((1, 1),))
    with pytest.raises(ValueError):
        EdgeList(3, ((1, 4),))
    with pytest.raises(ValueError):
        EdgeList(3, ((1, 2), (1, 2)))
    with pytest.raises(ValueError, match=r"duplicate edge \(1, 3\)"):  # first bad edge
        EdgeList(4, ((2, 3), (1, 3), (1, 2), (1, 3), (4, 4)))
    with pytest.raises(ValueError, match=r"edge \(3, 2\) out of range"):
        EdgeList(4, ((1, 2), (3, 2), (1, 2)))


def test_read_degree_file_single_column():
    d = read_degree_file("3.5\n2\n# c\n1\n")
    assert d == pytest.approx([3.5, 2.0, 1.0])


def test_read_degree_file_two_column_any_order():
    d = read_degree_file("2 7.5\n1 3\n3 4\n")
    assert d == pytest.approx([3.0, 7.5, 4.0])


def test_read_degree_file_errors():
    with pytest.raises(ParseError):
        read_degree_file("1 2 3\n")
    with pytest.raises(ParseError):
        read_degree_file("2 7.5\n3 4\n")   # indices not 1..n
    with pytest.raises(ParseError):
        read_degree_file("")
    with pytest.raises(ParseError) as exc:
        read_degree_file("2 7.5\n2 3\n1 4\n")   # vertex 2 twice
    assert exc.value.line == 2 and "vertex 2 repeated" in str(exc.value)


def test_edges_are_a_read_only_int64_array():
    e = EdgeList(4, [(3, 4), [1, 2]])
    assert e.edges.dtype == np.int64 and e.edges.shape == (2, 2)
    assert e.edges.tolist() == [[1, 2], [3, 4]]
    with pytest.raises(ValueError):
        e.edges[0, 0] = 2
    assert EdgeList(4, ()).edges.shape == (0, 2)
    assert e == EdgeList(4, np.array([[1, 2], [3, 4]]))
    assert e != EdgeList(5, ((1, 2), (3, 4))) and e != EdgeList(4, ((1, 2),))
    with pytest.raises(ValueError):
        EdgeList(4, ((1, 2, 3),))
    with pytest.raises(ValueError):
        EdgeList(3, ((1, 2**70),))


def test_vertex_tokens_are_ascii_integers():
    assert parse_edges("+1 002\n").edges.tolist() == [[1, 2]]
    for body in ("1_000 2", "\uff11 2", "1 2.0"):
        with pytest.raises(ParseError) as exc:
            parse_edges(f"3 4\n{body}\n", "edgelist")
        assert exc.value.line == 2 and "non-integer vertex" in str(exc.value)


def test_index_beyond_int64_is_a_parse_error():
    big = 2**63
    with pytest.raises(ParseError) as exc:
        parse_edges(f"1 2\n1 {big}\n", "edgelist")
    assert exc.value.line == 2 and str(big) in str(exc.value)
    with pytest.raises(ParseError, match=f"edge index {big} exceeds declared n=5"):
        parse_edges(f"n=5\n1 {big}\n", "edgelist")


# ---------------------------------------------------------------------------
# parity with the loop reference (tests/netio_reference.py)
# ---------------------------------------------------------------------------

def _same_result(got: EdgeList, want: ref.EdgeList) -> bool:
    return got.n == want.n and got.edges.tolist() == [list(p) for p in want.edges]


def assert_edgelist_parity(text: str) -> EdgeList | None:
    """parse_edges gives the reference's EdgeList or its exact ParseError."""
    try:
        want = ref._parse_edgelist(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_edges(text, "edgelist")
        assert (str(got.value), got.value.line) == (str(exc), exc.line)
        return None
    if any(j > INT64_MAX for _, j in want.edges):
        with pytest.raises(ParseError, match="does not fit in 64 bits"):
            parse_edges(text, "edgelist")
        return None
    got = parse_edges(text, "edgelist")
    assert _same_result(got, want)
    return got


def _token(draw, v: int) -> str:
    return draw(st.sampled_from([str(v), f"+{v}", f"0{v}"])) if v >= 0 else str(v)


@st.composite
def edge_lines(draw, n: int):
    pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n))
                          .filter(lambda p: p[0] != p[1]),
                          unique_by=lambda p: (min(p), max(p)), max_size=20))
    lines = []
    for i, j in pairs:
        lead = draw(st.sampled_from(["", " ", "\t"]))
        sep = draw(st.sampled_from([" ", "   ", "\t", " \t "]))
        tail = draw(st.sampled_from(["", " ", "  # note", "\t# n=1"]))
        lines.append(f"{lead}{_token(draw, i)}{sep}{_token(draw, j)}{tail}")
    return lines


def _directive(draw, v: int) -> str:
    return draw(st.sampled_from([f"n={v}", f"N = {v}", f" n =\t{v}  # declared"]))


def _insert(draw, lines: list[str], extra: str) -> None:
    lines.insert(draw(st.integers(0, len(lines))), extra)


def _join(draw, lines: list[str]) -> str:
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@st.composite
def valid_edge_files(draw):
    n = draw(st.integers(2, 12))
    lines = draw(edge_lines(n))
    has_edges = bool(lines)
    for extra in draw(st.lists(st.sampled_from(["", "   ", "# comment", "#", "\t"]),
                               max_size=4)):
        _insert(draw, lines, extra)
    if draw(st.booleans()) or not has_edges:
        for v in draw(st.lists(st.integers(0, 20), max_size=2)):   # the last one wins
            _insert(draw, lines, _directive(draw, v))
        lines.append(_directive(draw, draw(st.integers(n, n + 3))))
    return _join(draw, lines)


FAULTS = ["self-loop", "duplicate", "zero", "negative", "out-of-range", "one-token",
          "three-tokens", "non-integer", "overflow", "overflow-self-loop",
          "overflow-duplicate", "negative-overflow", "huge-directive"]


def _fault_line(draw, kind: str, n: int, lines: list[str]) -> str:
    k = draw(st.integers(1, n))
    big = 2**63 + draw(st.integers(0, 2**70))
    data = [x.split("#")[0].split() for x in lines if "=" not in x]
    data = [parts for parts in data if len(parts) == 2]
    if kind == "self-loop":
        return f"{k} {k}" if draw(st.booleans()) else "0 0"
    if kind == "duplicate" and data:
        a, b = data[draw(st.integers(0, len(data) - 1))]
        return f"{b} {a}" if draw(st.booleans()) else f"{a}\t{b}"
    if kind == "zero":
        return draw(st.sampled_from([f"0 {k}", f"{k} 0", f"-0 {k}"]))
    if kind == "negative":
        return f"{k} -{draw(st.integers(1, 5))}"
    if kind == "out-of-range":
        return f"{k} {n + draw(st.integers(1, 5))}"
    if kind == "one-token":
        return str(k)
    if kind == "three-tokens":
        return f"1 2 {k}"
    if kind == "non-integer":
        return draw(st.sampled_from([f"1 x{k}", f"{k}.0 1", "0x1 2", "1e3 4", "- 1", "+-1 2"]))
    if kind == "overflow":
        return f"{k} {big}"
    if kind == "overflow-self-loop":
        return f"{big} {big}"
    if kind == "overflow-duplicate":
        return f"{big} 1\n1 {big}"
    if kind == "negative-overflow":
        return f"{-big} {k}"
    return f"n={big}"                               # huge-directive


@settings(max_examples=150, deadline=None)
@given(valid_edge_files())
def test_edgelist_parity_on_valid_files(text):
    got = assert_edgelist_parity(text)
    assert got is not None
    want = ref._parse_edgelist(text)
    pruned, removed = prune_zero_degree(got)
    want_pruned, want_removed = ref.prune_zero_degree(want)
    assert _same_result(pruned, want_pruned) and removed == want_removed
    assert kept_labels(got) == ref.kept_labels(want)
    assert np.array_equal(got.degree_vector(), want.degree_vector())
    assert serialize_edges(got) == ref.serialize_edges(want)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8), st.data())
def test_edgelist_parity_on_malformed_files(n, data):
    lines = data.draw(edge_lines(n))
    if data.draw(st.booleans()):
        _insert(data.draw, lines, _directive(data.draw, data.draw(st.integers(1, n + 2))))
    for kind in data.draw(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=2,
                                   unique=True)):
        _insert(data.draw, lines, _fault_line(data.draw, kind, n, lines))
    assert_edgelist_parity(_join(data.draw, lines))


@pytest.mark.parametrize("text", ["", "\n\n", "# only a comment\n", "n=0\n",
                                  "n=3\n", "n=3\nn=1\n1 3\n", "1 2\nn=1\n"])
def test_edgelist_parity_without_edges_or_with_overridden_n(text):
    assert_edgelist_parity(text)


@st.composite
def fullmatrix_files(draw):
    n = draw(st.integers(0, 6))
    upper = np.triu(np.array(draw(st.lists(st.integers(0, 1), min_size=n * n,
                                           max_size=n * n)), dtype=int).reshape(n, n), 1)
    A = upper + upper.T
    rows = [[str(v) for v in row] for row in A.tolist()]
    fault = draw(st.sampled_from(["none", "none", "asymmetric", "diagonal", "two",
                                  "short-row", "missing-row", "token", "two-faults"]))
    faults = ["asymmetric", "diagonal"] if fault == "two-faults" else [fault]
    for f in faults:
        if n == 0:
            break
        r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if f == "asymmetric" and r != c:
            rows[r][c] = "1" if rows[r][c] == "0" else "0"
        elif f == "diagonal":
            rows[r][r] = "1"
        elif f == "two":
            rows[r][c] = "2"
        elif f == "short-row":
            rows[r] = rows[r][:-1]
        elif f == "missing-row":
            del rows[r]
        elif f == "token":
            rows[r][c] = "x"
    header = [f"dl n={n}", draw(st.sampled_from(["format = fullmatrix", "FORMAT=FullMatrix"])),
              "data:"]
    body = [draw(st.sampled_from([" ", "  ", "\t"])).join(row) for row in rows]
    if body:
        _insert(draw, body, "")
    return "\n".join(header + body) + "\n"


@settings(max_examples=150, deadline=None)
@given(fullmatrix_files())
def test_fullmatrix_parity(text):
    try:
        want = ref._parse_ucinet_dl(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_edges(text, "ucinet-dl")
        assert (str(got.value), got.value.line) == (str(exc), exc.line)
        return
    got = parse_edges(text, "ucinet-dl")
    assert _same_result(got, want)


# integer spellings that int() reads as 0 or 1 (the last: ARABIC-INDIC ONE)
_SPELLINGS = {0: ["0", "0", "00", "-0", "+0", "0_0"], 1: ["1", "1", "01", "+1", "\u0661"]}
_FAULTY_TOKENS = ["2", "-1", "10", "x", "1.0", "1_", "0x1", "\u0662"]


@st.composite
def fullmatrix_spelling_files(draw):
    n = draw(st.integers(0, 5))
    upper = np.triu(np.array(draw(st.lists(st.integers(0, 1), min_size=n * n,
                                           max_size=n * n)), dtype=int).reshape(n, n), 1)
    rows = [[draw(st.sampled_from(_SPELLINGS[v])) for v in row]
            for row in (upper + upper.T).tolist()]
    for _ in range(draw(st.integers(0, 2))):
        if not rows:
            break
        r = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["token", "extra", "drop", "flip"]))
        if kind == "extra":
            rows[r].append(draw(st.sampled_from(["0", "1", "2"])))
        elif rows[r]:
            c = draw(st.integers(0, len(rows[r]) - 1))
            if kind == "token":
                rows[r][c] = draw(st.sampled_from(_FAULTY_TOKENS))
            elif kind == "drop":
                del rows[r][c]
            else:
                rows[r][c] = "1" if rows[r][c] in _SPELLINGS[0] else "0"
    seps = st.sampled_from([" ", "  ", "\t", " \t", "\u00a0", "\u3000"])
    body = [draw(st.sampled_from(["", " ", "\t"])) + draw(seps).join(row) +
            draw(st.sampled_from(["", " ", "\t"])) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        _insert(draw, body, draw(st.sampled_from(["", "  ", "\t"])))
    return "\n".join([f"dl n={n}", "format = fullmatrix", "data:"] + body) + "\n"


@settings(max_examples=200, deadline=None)
@given(fullmatrix_spelling_files())
def test_fullmatrix_parity_with_token_spellings(text):
    # the data block is read with numpy when every entry is a bare 0 or 1,
    # and one entry at a time otherwise; both agree with the loop reference
    try:
        want = ref._parse_ucinet_dl(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_edges(text, "ucinet-dl")
        assert (str(got.value), got.value.line) == (str(exc), exc.line)
        return
    got = parse_edges(text, "ucinet-dl")
    assert _same_result(got, want)
