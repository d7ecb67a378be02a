"""Loop reference for the array-backed ``privdeg.netio``.

These are the per-edge Python loops that ``privdeg.netio`` used before
edges became an ``(m, 2)`` array, kept unchanged as the reference the
parity tests compare against: the edge-list and fullmatrix parsers, the
tuple-backed ``EdgeList`` they build, the zero-degree relabel, the
edge-list serializer, and the upper-triangle edge extraction of
``privdeg sample``. Only ``ParseError`` is shared with the package, so
that messages and line numbers compare directly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain

import numpy as np

from privdeg.netio import ParseError


@dataclass(frozen=True)
class EdgeList:
    """Canonical edge list: n and sorted unique (i, j) pairs with i < j (1-indexed)."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen = set()
        for (i, j) in self.edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (1 <= i < j <= self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    def degree_vector(self) -> np.ndarray:
        ends = np.fromiter(chain.from_iterable(self.edges), dtype=np.int64,
                           count=2 * len(self.edges))
        return np.bincount(ends - 1, minlength=self.n).astype(np.int64, copy=False)


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0].strip()


def _parse_edgelist(text: str) -> EdgeList:
    declared_n = None
    raw_edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    max_seen = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = _strip_comment(line)
        if not body:
            continue
        m = re.fullmatch(r"n\s*=\s*(\d+)", body, flags=re.IGNORECASE)
        if m:
            declared_n = int(m.group(1))
            continue
        parts = body.split()
        if len(parts) != 2:
            raise ParseError(f"expected two integers, got {body!r}", lineno)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer vertex in {body!r}", lineno) from None
        if i == j:
            raise ParseError(f"self-loop at vertex {i}", lineno)
        lo, hi = min(i, j), max(i, j)
        if lo < 1:
            raise ParseError(f"vertex index {lo} below 1", lineno)
        if (lo, hi) in seen:
            raise ParseError(f"duplicate edge ({lo}, {hi})", lineno)
        seen.add((lo, hi))
        raw_edges.append((lo, hi))
        max_seen = max(max_seen, hi)
    n = declared_n if declared_n is not None else max_seen
    if n == 0:
        raise ParseError("no vertex count declared and no edges found")
    if max_seen > n:
        raise ParseError(f"edge index {max_seen} exceeds declared n={n}")
    return EdgeList(n, tuple(raw_edges))


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

    rows: list[list[int]] = []
    row_lines: list[int] = []
    for lineno in range(data_start + 1, len(lines) + 1):
        body = lines[lineno - 1].strip()
        if not body:
            continue
        try:
            vals = [int(v) for v in body.split()]
        except ValueError:
            raise ParseError(f"non-integer matrix entry in {body!r}", lineno) from None
        rows.append(vals)
        row_lines.append(lineno)
    if len(rows) != n:
        raise ParseError(f"expected {n} matrix rows, found {len(rows)}",
                         row_lines[-1] if row_lines else data_start)
    for r, (vals, lineno) in enumerate(zip(rows, row_lines), start=1):
        if len(vals) != n:
            raise ParseError(f"row {r} has {len(vals)} entries, expected {n}", lineno)
        if any(v not in (0, 1) for v in vals):
            raise ParseError(f"matrix entries must be 0 or 1 in row {r}", lineno)
    A = np.array(rows, dtype=np.uint8)
    for i in range(n):
        if A[i, i] != 0:
            raise ParseError(f"self-loop at vertex {i + 1}", row_lines[i])
        for j in range(i + 1, n):
            if A[i, j] != A[j, i]:
                raise ParseError(
                    f"asymmetric entries at ({i + 1}, {j + 1})", row_lines[i])
    edges = tuple((i + 1, j + 1) for i in range(n) for j in range(i + 1, n)
                  if A[i, j])
    return EdgeList(n, edges)


def serialize_edges(e: EdgeList) -> str:
    """Canonical edgelist text; parse_edges() of the output is identity."""
    lines = [f"n={e.n}"]
    lines += [f"{i} {j}" for (i, j) in e.edges]
    return "\n".join(lines) + "\n"


def prune_zero_degree(e: EdgeList) -> tuple[EdgeList, list[int]]:
    """Drop all zero-degree vertices and relabel contiguously.

    Returns the pruned edge list and the removed original 1-indexed
    labels. Idempotent: a second application removes nothing.
    """
    d = e.degree_vector()
    removed = [i + 1 for i in range(e.n) if d[i] == 0]
    if not removed:
        return e, []
    keep = [i + 1 for i in range(e.n) if d[i] > 0]
    relabel = {orig: new for new, orig in enumerate(keep, start=1)}
    edges = tuple((relabel[i], relabel[j]) for (i, j) in e.edges)
    return EdgeList(len(keep), edges), removed


def kept_labels(e: EdgeList) -> list[int]:
    """Original labels that survive pruning, in pruned order."""
    d = e.degree_vector()
    return [i + 1 for i in range(e.n) if d[i] > 0]


def sample_text(adjacency: np.ndarray) -> str:
    """What ``privdeg sample`` wrote for a sampled adjacency matrix."""
    n = adjacency.shape[0]
    iu = np.triu_indices(n, k=1)
    edges = tuple((int(i + 1), int(j + 1))
                  for i, j in zip(*iu) if adjacency[i, j])
    return serialize_edges(EdgeList(n, edges))
