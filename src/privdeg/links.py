"""Edge-probability models for undirected binary graphs.

Three link functions (log, logit, cloglog) relate a pair sum
x = alpha_i + alpha_j to an edge probability p(x). Each link's p and p'
are defined in ``link_values`` and nowhere else; ``edge_prob`` and
``edge_prob_deriv`` put the log link's domain guard (x < 0) around it,
and the estimator's Newton step, ``edge_prob_matrix`` and ``EdgeSampler``
call it directly.

Edges are independent Bernoulli(p_ij) with p_ij = p(alpha_i + alpha_j),
no self-loops. The vertex parameter alpha_i measures the propensity of
vertex i to form edges; the degree d_i = sum_j a_ij is the statistic
released (possibly with noise) downstream. ``EdgeSampler`` draws graphs
over chunks of whole rows, in 8 bytes a pair plus one chunk;
``sample_graph`` returns one as an ``EdgeList``, the package's one graph
type, and ``truth_vector`` gives the scenario grid's alpha*_i = i L / n.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .netio import EdgeList


class DomainError(ValueError):
    """Raised when a pair sum leaves the valid domain of a link function."""


class LinkKind(str, Enum):
    LOG = "log"
    LOGIT = "logit"
    CLOGLOG = "cloglog"

    @classmethod
    def parse(cls, name: str) -> "LinkKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown link {name!r}; expected one of log, logit, cloglog"
            ) from None


# exp() overflows past ~709; pair sums beyond this are clipped before exp
# in the two links that accept the whole real line.
_EXP_CLIP = 690.0


def _check_log_domain(x: np.ndarray) -> None:
    bad = x >= 0
    if np.any(bad):
        worst = float(np.max(np.asarray(x)))
        raise DomainError(
            f"log link requires every pair sum alpha_i + alpha_j < 0; "
            f"largest offending sum is {worst:.6g}"
        )


def link_values(link: LinkKind, X: np.ndarray,
                out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p(X) and p'(X) at an array of pair sums X, which is overwritten.

    The one definition of the three links:

        log:      p = exp(x),                   p' = exp(x)
        logit:    p = exp(x) / (1 + exp(x)),    p' = p(1-p)
        cloglog:  p = 1 - exp(-exp(x)),         p' = exp(x - exp(x))

    There is no log-domain guard here: the log link is its analytic
    extension exp(x) on all of R, which may overflow to +inf without a
    warning. Each link computes p and p' from shared intermediates in
    place: p is written into X and p' into out, a float64 array of X's
    shape that the caller provides, so no array of X's shape (other than
    logit's sign mask) is allocated.
    """
    if link == LinkKind.LOG:
        with np.errstate(over="ignore"):
            P = np.exp(X, out=X)
        np.copyto(out, P)
        D = out
    elif link == LinkKind.LOGIT:
        pos = X >= 0
        e = np.exp(np.negative(np.abs(X, out=X), out=X), out=X)  # exp(-|x|)
        D = np.add(e, 1.0, out=out)
        np.putmask(e, pos, 1.0)                  # numerator 1 where x >= 0
        P = np.divide(e, D, out=e)               # e^x / (1 + e^x), 1 / (1 + e^-x)
        np.multiply(P, np.subtract(1.0, P, out=D), out=D)   # p (1 - p)
    elif link == LinkKind.CLOGLOG:
        Xc = np.minimum(X, _EXP_CLIP, out=out)
        e = np.exp(Xc, out=X)
        D = np.exp(np.subtract(Xc, e, out=Xc), out=Xc)      # exp(x - e^x)
        P = np.negative(np.expm1(np.negative(e, out=e), out=e), out=e)
    else:  # pragma: no cover
        raise ValueError(f"unknown link {link!r}")
    return P, D


def _guarded_values(link: LinkKind, x) -> tuple[np.ndarray, np.ndarray]:
    """``link_values`` at a copy of x (at least 1-d), behind the log-domain guard."""
    X = np.array(x, dtype=float, ndmin=1)
    if link == LinkKind.LOG:
        _check_log_domain(X)
    return link_values(link, X, np.empty_like(X))


def edge_prob(link: LinkKind, x) -> np.ndarray | float:
    """Edge probability p(x) in (0, 1) at a scalar or array of pair sums
    x = alpha_i + alpha_j; DomainError for the log link when any x >= 0
    (p would reach or exceed 1)."""
    P = _guarded_values(link, x)[0]
    return P if np.ndim(x) else float(P[0])


def edge_prob_deriv(link: LinkKind, x) -> np.ndarray | float:
    """Derivative p'(x) of the edge probability at a scalar or array of pair
    sums; DomainError for the log link when any x >= 0."""
    D = _guarded_values(link, x)[1]
    return D if np.ndim(x) else float(D[0])


def link_inverse(link: LinkKind, p) -> np.ndarray | float:
    """Pair sum x with edge_prob(link, x) = p, for p in (0, 1)."""
    pa = np.asarray(p, dtype=float)
    if np.any((pa <= 0) | (pa >= 1)):
        raise ValueError("link inverse requires probabilities strictly in (0, 1)")
    if link == LinkKind.LOG:
        out = np.log(pa)
    elif link == LinkKind.LOGIT:
        out = np.log(pa / (1.0 - pa))
    else:
        out = np.log(-np.log1p(-pa))
    return out if np.ndim(p) else float(out)


def validate_params(link: LinkKind, alpha: np.ndarray) -> np.ndarray:
    """Validate a vertex-parameter vector against the link's domain.

    Checks length >= 2, finiteness, and (log link only) that every pair
    sum alpha_i + alpha_j with i != j is negative.
    """
    a = np.asarray(alpha, dtype=float).reshape(-1)
    if a.size < 2:
        raise ValueError(f"need at least 2 vertices, got {a.size}")
    if not np.all(np.isfinite(a)):
        raise ValueError("vertex parameters must be finite")
    if link == LinkKind.LOG:
        top2 = np.sort(a)[-2:]
        _check_log_domain(np.asarray(top2.sum()))
    return a


def truth_vector(n: int, L: float) -> np.ndarray:
    """Truth used throughout the scenario grid: alpha*_i = i L / n, i = 1..n."""
    if n < 2:
        raise ValueError("need n >= 2")
    try:
        i = np.arange(1, n + 1, dtype=float)
    except (MemoryError, OverflowError, ValueError):
        raise ValueError(f"vertex count n={n} is too large "
                         "to hold a parameter vector") from None
    return i * L / n


def pair_sum_matrix(alpha: np.ndarray) -> np.ndarray:
    """Symmetric matrix X with X[i, j] = alpha_i + alpha_j; a stack of
    vectors (..., n) gives a stack of matrices (..., n, n)."""
    a = np.asarray(alpha, dtype=float)
    return a[..., :, None] + a[..., None, :]


def edge_prob_matrix(link: LinkKind, alpha: np.ndarray) -> np.ndarray:
    """Symmetric edge-probability matrix with zero diagonal.

    Only pair sums alpha_i + alpha_j with i != j reach the link: the
    diagonal 2 alpha_i is no pair, and for the log link it may lie
    outside the domain that ``validate_params`` checks for every pair.
    """
    a = validate_params(link, alpha)
    X = pair_sum_matrix(a)
    np.fill_diagonal(X, -np.inf)  # p(-inf) = +0.0 under every link
    return link_values(link, X, np.empty_like(X))[0]


def expected_degrees(link: LinkKind, alpha: np.ndarray) -> np.ndarray:
    """Expected degree vector, component i equal to sum_{j != i} p_ij."""
    return edge_prob_matrix(link, alpha).sum(axis=1)


# Cells of a chunk of the edge draw's rows, and pairs times generators of a
# batch: 2^16 drew as fast as 2^14 and 2^15 at n = 100 and 400 (2 cores).
_DRAW_BUDGET = 2**16


class EdgeSampler:
    """Independent Bernoulli(p_ij) edges for one (link, alpha), set up once.

    ``p`` holds the n(n-1)/2 pair probabilities in row order (that of
    ``np.triu_indices``): 8 bytes a pair, and nothing else of size n^2.
    The draw stream is defined here and nowhere else: one uniform per pair
    in that order, and a pair is an edge when its uniform is below its p.
    ``_walk`` draws it over chunks of whole rows, one ``rng.random`` call
    per chunk, which consumes a generator as one call for all pairs does;
    ``sample_graph`` lists its edges and ``block_degrees`` sums them.
    """

    def __init__(self, link: LinkKind, alpha: np.ndarray):
        a = validate_params(link, alpha)
        self.n = a.size
        try:
            self.p = np.empty(self.n * (self.n - 1) // 2)
        except (MemoryError, ValueError):
            raise ValueError(f"vertex count n={self.n} is too large "
                             "to hold its vertex pairs") from None
        for lo, X, upper in self._chunks():  # validate_params checked the log domain
            X[:] = (a[lo:lo + len(upper), None] + a[lo + 1:])[upper]
            link_values(link, X, np.empty_like(X))  # writes p into X

    def _chunks(self):
        """(lo, p, upper) per chunk of whole rows lo..lo + len(upper) - 1: their
        pairs' view of p, and their mask in a (rows, n - lo - 1) block (column c
        is vertex lo + 1 + c) of at most max(_DRAW_BUDGET, n - lo - 1) cells."""
        n, lo, start = self.n, 0, 0
        while lo < n - 1:
            w = n - lo - 1
            rows = min(w, max(1, _DRAW_BUDGET // w))
            stop = start + rows * w - rows * (rows - 1) // 2
            yield lo, self.p[start:stop], np.arange(w) >= np.arange(rows)[:, None]
            lo, start = lo + rows, stop

    def _walk(self, rngs):
        """(first, lo, A) per chunk and batch of max(1, _DRAW_BUDGET // pairs)
        generators: A[g], overwritten by the next step, is the uint8 edge block
        of rngs[first + g] in the chunk at row lo. Each fills its own block: one
        mask assignment over the 3-d batch is many times slower."""
        for lo, p, upper in self._chunks():
            g = max(1, min(len(rngs), _DRAW_BUDGET // p.size))
            u, A = np.empty(p.size), np.zeros((g, *upper.shape), dtype=np.uint8)
            for first in range(0, len(rngs), g):
                batch = rngs[first:first + g]
                for r, rng in enumerate(batch):
                    A[r][upper] = rng.random(out=u) < p
                yield first, lo, A[:len(batch)]

    def block_degrees(self, rngs) -> np.ndarray:
        """Degree sequences (B, n) float64 of one graph drawn from each of B
        generators, row r from rngs[r]: the sums of each chunk's rows and
        columns, in the smallest integer type that holds n, so exact."""
        t = np.min_scalar_type(self.n)
        D = np.zeros((len(rngs), self.n), dtype=t)
        for first, lo, A in self._walk(rngs):
            rows = D[first:first + len(A)]
            rows[:, lo:lo + A.shape[1]] += A.sum(axis=2, dtype=t)
            rows[:, lo + 1:] += A.sum(axis=1, dtype=t)
        return D.astype(float)

    def degrees(self, rng: np.random.Generator) -> np.ndarray:
        """Degree sequence (float64) of one drawn graph: a block of one row."""
        return self.block_degrees([rng])[0]


def sample_graph(link: LinkKind, alpha: np.ndarray, rng: np.random.Generator) -> EdgeList:
    """One graph drawn by ``EdgeSampler``; the same generator state yields the
    same graph, its pairs listed chunk by chunk in canonical order."""
    sampler = EdgeSampler(link, alpha)
    return EdgeList(sampler.n, np.concatenate(
        [np.argwhere(A[0]) + (lo + 1, lo + 2) for _, lo, A in sampler._walk([rng])]))


def degrees(g: EdgeList) -> np.ndarray:
    """int64 degrees of g; a name of its own only for perfbench/tracing.py to wrap."""
    return g.degree_vector()
