"""Network file parsing and serialization.

Two input formats:

* ``edgelist``: whitespace-separated 1-indexed integer pairs, one edge
  per line, ``#`` comments; an optional directive line ``n=<count>``
  declares the vertex count (otherwise the largest index seen is used).
  A vertex token is ASCII digits with an optional sign (``[+-]?[0-9]+``,
  what ``np.loadtxt`` reads as int64); a token that Python's ``int``
  would also take, such as ``1_000`` or non-ASCII digits, is rejected as
  a non-integer vertex. A parse error names the first faulty line in
  file order.
* ``ucinet-dl``: the minimal fullmatrix subset: a ``dl n=<count>``
  header, a ``format = fullmatrix`` line, then ``data:`` followed by an
  n x n 0/1 matrix, which must be symmetric with a zero diagonal.

Vertices are 1-indexed in files and in ``EdgeList.edges``, and 0-indexed
inside degree vectors.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass

import numpy as np

_INT64_MAX = np.iinfo(np.int64).max


class ParseError(ValueError):
    """Malformed network input; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


def _lex_order(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable lexicographic order of the rows (a, b), and a mask of the
    rows that repeat an earlier row."""
    m = a.size
    if np.all((a[1:] > a[:-1]) | ((a[1:] == a[:-1]) & (b[1:] > b[:-1]))):
        return np.arange(m), np.zeros(m, dtype=bool)   # already canonical
    order = np.lexsort((b, a))
    sa, sb = a[order], b[order]
    repeat = np.zeros(m, dtype=bool)
    repeat[order[1:]] = (sa[1:] == sa[:-1]) & (sb[1:] == sb[:-1])
    return order, repeat


@dataclass(frozen=True, eq=False)
class EdgeList:
    """Canonical edge list: n and a read-only (m, 2) int64 array of unique
    1-indexed pairs (i, j) with i < j, rows in lexicographic order.

    The constructor takes any sequence of pairs, including ``()``.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        try:
            e = np.array(self.edges, dtype=np.int64)
        except OverflowError:
            raise ValueError(f"edge index out of range for n={self.n}") from None
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("edges must be (i, j) pairs")
        i, j = e[:, 0], e[:, 1]
        order, repeat = _lex_order(i, j)
        loop = i == j
        out_of_range = ~((1 <= i) & (i < j) & (j <= self.n))
        bad = np.flatnonzero(loop | out_of_range | repeat)
        if bad.size:
            r = bad[0]
            if loop[r]:
                raise ValueError(f"self-loop at vertex {i[r]}")
            if out_of_range[r]:
                raise ValueError(f"edge ({i[r]}, {j[r]}) out of range for n={self.n}")
            raise ValueError(f"duplicate edge ({i[r]}, {j[r]})")
        e = e[order]
        e.flags.writeable = False
        object.__setattr__(self, "edges", e)

    def __eq__(self, other):
        if not isinstance(other, EdgeList):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edges, other.edges)

    def degree_vector(self) -> np.ndarray:
        try:
            d = np.bincount(self.edges.ravel() - 1, minlength=self.n)
        except (MemoryError, OverflowError):
            raise ValueError(f"vertex count n={self.n} is too large "
                             "to hold a degree vector") from None
        return d.astype(np.int64, copy=False)


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0].strip()


_DIRECTIVE = re.compile(r"n\s*=\s*(\d+)", flags=re.IGNORECASE)
_VERTEX = re.compile(r"[+-]?[0-9]+")


def _take_directives(lines: list[str]) -> int | None:
    """Blank the ``n=<count>`` lines in place; the last count, or None."""
    declared_n = None
    joined = "\n".join(lines)
    lineno = pos = 0
    for m in re.finditer("=", joined):        # only directive candidates hold "="
        lineno += joined.count("\n", pos, m.start())
        pos = m.start()
        d = _DIRECTIVE.fullmatch(_strip_comment(lines[lineno]))
        if d:
            declared_n = int(d.group(1))
            lines[lineno] = ""
    return declared_n


def _scan(lines: list[str]) -> tuple[list[tuple[int, int]], list[int], ParseError | None]:
    """Pairs of the data lines and their line numbers, up to the first line
    that is not two vertex tokens, which comes back as the error."""
    rows: list[tuple[int, int]] = []
    where: list[int] = []
    for lineno, line in enumerate(lines, start=1):
        body = _strip_comment(line)
        if not body:
            continue
        parts = body.split()
        if len(parts) != 2:
            return rows, where, ParseError(f"expected two integers, got {body!r}", lineno)
        if not (_VERTEX.fullmatch(parts[0]) and _VERTEX.fullmatch(parts[1])):
            return rows, where, ParseError(f"non-integer vertex in {body!r}", lineno)
        rows.append((int(parts[0]), int(parts[1])))
        where.append(lineno)
    return rows, where, None


def _read_pairs(lines: list[str]) -> tuple[np.ndarray, list[int] | None, ParseError | None]:
    """The data lines' pairs as an (m, 2) array, their line numbers when
    known, and the first line that is not two vertex tokens.

    ``np.loadtxt`` reads a well-formed file in one pass. Otherwise (a bad
    line, an index beyond int64, or no data at all) ``_scan`` reads the
    lines before the first bad one; indices beyond int64 then come back in
    an object array, so that every check still sees the exact values.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")     # loadtxt warns on input without data
            pairs = np.loadtxt(lines, dtype=np.int64, comments="#", ndmin=2)
        if pairs.shape[1] == 2:
            return pairs, None, None
    except (ValueError, Warning):
        pass
    rows, where, bad_line = _scan(lines)
    try:
        pairs = np.array(rows, dtype=np.int64)
    except OverflowError:
        pairs = np.array(rows, dtype=object)
    return pairs.reshape(-1, 2), where, bad_line


def _parse_edgelist(text: str) -> EdgeList:
    lines = text.splitlines()
    declared_n = _take_directives(lines)
    pairs, where, bad_line = _read_pairs(lines)
    i, j = pairs[:, 0], pairs[:, 1]
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    order, repeat = _lex_order(lo, hi)
    faulty = np.flatnonzero((i == j) | (lo < 1) | repeat)
    if faulty.size:
        r = faulty[0]
        line = (where if where is not None else _scan(lines)[1])[r]
        if i[r] == j[r]:
            raise ParseError(f"self-loop at vertex {i[r]}", line)
        if lo[r] < 1:
            raise ParseError(f"vertex index {lo[r]} below 1", line)
        raise ParseError(f"duplicate edge ({lo[r]}, {hi[r]})", line)
    if bad_line is not None:
        raise bad_line
    max_seen = int(hi.max()) if hi.size else 0
    n = declared_n if declared_n is not None else max_seen
    if n == 0:
        raise ParseError("no vertex count declared and no edges found")
    if max_seen > n:
        raise ParseError(f"edge index {max_seen} exceeds declared n={n}")
    if max_seen > _INT64_MAX:
        r = int(np.argmax(hi > _INT64_MAX))
        raise ParseError(f"vertex index {hi[r]} does not fit in 64 bits", where[r])
    return EdgeList(n, np.stack([lo[order], hi[order]], axis=1))


def _parse_ucinet_dl(text: str) -> EdgeList:
    lines = text.splitlines()
    n = None
    data_start = None
    for lineno, line in enumerate(lines, start=1):
        body = line.strip()
        if not body:
            continue
        low = body.lower()
        if low.startswith("dl"):
            m = re.search(r"n\s*=\s*(\d+)", low)
            if not m:
                raise ParseError("dl header without n=<count>", lineno)
            n = int(m.group(1))
        elif low.startswith("format"):
            if "fullmatrix" not in low:
                raise ParseError(f"unsupported format line {body!r}", lineno)
        elif low.startswith("data"):
            data_start = lineno
            break
        elif n is None:
            raise ParseError(f"unexpected line before dl header: {body!r}", lineno)
    if n is None:
        raise ParseError("missing dl n=<count> header")
    if data_start is None:
        raise ParseError("missing data: section")

    # each row as a string of its entries' digits, "0" or "1"; only rows
    # with some other token (or a token longer than one character) are
    # read one entry at a time
    rows: list[str] = []
    widths: list[int] = []
    binary: list[bool] = []
    row_lines: list[int] = []
    for lineno in range(data_start + 1, len(lines) + 1):
        tokens = lines[lineno - 1].split()
        if not tokens:
            continue
        digits = "".join(tokens)
        ok = len(digits) == len(tokens) and not digits.strip("01")
        if not ok:
            try:
                vals = [int(v) for v in tokens]
            except ValueError:
                body = lines[lineno - 1].strip()
                raise ParseError(f"non-integer matrix entry in {body!r}", lineno) from None
            ok = all(v in (0, 1) for v in vals)
            digits = "".join("1" if v else "0" for v in vals) if ok else ""
        rows.append(digits)
        widths.append(len(tokens))
        binary.append(ok)
        row_lines.append(lineno)
    if len(rows) != n:
        raise ParseError(f"expected {n} matrix rows, found {len(rows)}",
                         row_lines[-1] if row_lines else data_start)
    faulty = (np.array(widths) != n) | ~np.array(binary, dtype=bool)
    if faulty.any():
        r = int(np.argmax(faulty))
        if widths[r] != n:
            raise ParseError(f"row {r + 1} has {widths[r]} entries, expected {n}",
                             row_lines[r])
        raise ParseError(f"matrix entries must be 0 or 1 in row {r + 1}", row_lines[r])
    A = (np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8)
         .reshape(n, n) - ord("0"))
    faulty = (A.diagonal() != 0) | np.triu(A != A.T, 1).any(axis=1)
    if faulty.any():
        i = int(np.argmax(faulty))
        if A[i, i]:
            raise ParseError(f"self-loop at vertex {i + 1}", row_lines[i])
        j = i + 1 + int(np.argmax(A[i, i + 1:] != A[i + 1:, i]))
        raise ParseError(f"asymmetric entries at ({i + 1}, {j + 1})", row_lines[i])
    return EdgeList(n, np.argwhere(np.triu(A, 1)) + 1)


def parse_edges(text: str, fmt: str = "edgelist") -> EdgeList:
    """Parse network text in the named format ('edgelist' or 'ucinet-dl')."""
    fmt = fmt.lower()
    if fmt == "edgelist":
        return _parse_edgelist(text)
    if fmt == "ucinet-dl":
        return _parse_ucinet_dl(text)
    raise ValueError(f"unknown format {fmt!r}")


def sniff_format(text: str) -> str:
    """'ucinet-dl' when the first non-blank line is a dl header, else 'edgelist'.

    Every character that ``str.splitlines`` breaks at is whitespace to
    ``str.lstrip``, so the first non-blank line starts the stripped text.
    """
    return "ucinet-dl" if text.lstrip()[:2].lower() == "dl" else "edgelist"


def serialize_edges(e: EdgeList) -> str:
    """Canonical edgelist text; parse_edges() of the output is identity."""
    rows = ("%d %d\n" * len(e.edges)) % tuple(e.edges.ravel().tolist())
    return f"n={e.n}\n" + rows


def prune_zero_degree(e: EdgeList) -> tuple[EdgeList, list[int]]:
    """Drop all zero-degree vertices and relabel contiguously.

    Returns the pruned edge list and the removed original 1-indexed
    labels. Idempotent: a second application removes nothing.
    """
    keep = e.degree_vector() > 0
    if keep.all():
        return e, []
    relabel = np.cumsum(keep)          # new 1-indexed label of each kept vertex
    removed = (np.flatnonzero(~keep) + 1).tolist()
    return EdgeList(int(relabel[-1]), relabel[e.edges - 1]), removed


def kept_labels(e: EdgeList) -> list[int]:
    """Original labels that survive pruning, in pruned order."""
    return (np.flatnonzero(e.degree_vector() > 0) + 1).tolist()


def read_degree_file(text: str) -> np.ndarray:
    """Noisy degree file: either one value per line, or 'vertex value' pairs.

    Pairs may appear in any order; indices must form 1..n exactly.
    """
    singles: list[float] = []
    pairs: dict[int, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = _strip_comment(line)
        if not body:
            continue
        parts = body.split()
        try:
            if len(parts) == 1:
                singles.append(float(parts[0]))
            elif len(parts) == 2:
                vertex, value = int(parts[0]), float(parts[1])
            else:
                raise ValueError
        except ValueError:
            raise ParseError(f"expected 'value' or 'vertex value', got {body!r}",
                             lineno) from None
        if len(parts) == 2:
            if vertex in pairs:
                raise ParseError(f"vertex {vertex} repeated", lineno)
            pairs[vertex] = value
    if singles and pairs:
        raise ParseError("mixed single-column and two-column degree lines")
    if pairs:
        n = len(pairs)
        if sorted(pairs) != list(range(1, n + 1)):
            raise ParseError("two-column degree file must cover vertices 1..n")
        return np.array([pairs[i] for i in range(1, n + 1)], dtype=float)
    if not singles:
        raise ParseError("empty degree file")
    return np.array(singles, dtype=float)
