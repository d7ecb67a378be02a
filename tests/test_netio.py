import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privdeg.netio import (EdgeList, ParseError, kept_labels, parse_edges,
                           prune_zero_degree, read_degree_file,
                           serialize_edges, sniff_format)


def test_parse_simple_edgelist():
    e = parse_edges("1 2\n2 3\n", "edgelist")
    assert e.n == 3
    assert e.edges == ((1, 2), (2, 3))


def test_parse_edgelist_with_declared_n_and_comments():
    e = parse_edges("# a comment\nn=5\n1 2\n4 5  # trailing\n", "edgelist")
    assert e.n == 5
    assert e.edges == ((1, 2), (4, 5))
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
    assert e.edges == ((1, 2), (1, 4), (2, 3))


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
    assert pruned.n == 0 and pruned.edges == ()


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


def test_edge_list_validation():
    with pytest.raises(ValueError):
        EdgeList(3, ((1, 1),))
    with pytest.raises(ValueError):
        EdgeList(3, ((1, 4),))
    with pytest.raises(ValueError):
        EdgeList(3, ((1, 2), (1, 2)))


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
