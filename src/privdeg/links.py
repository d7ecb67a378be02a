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
released (possibly with noise) downstream. ``sample_graph`` returns a
drawn graph as an ``EdgeList``, the package's one graph type.
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


def link_values(link: LinkKind, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p(X) and p'(X) at an array of pair sums X, which is overwritten.

    The one definition of the three links:

        log:      p = exp(x),                   p' = exp(x)
        logit:    p = exp(x) / (1 + exp(x)),    p' = p(1-p)
        cloglog:  p = 1 - exp(-exp(x)),         p' = exp(x - exp(x))

    There is no log-domain guard here: the log link is its analytic
    extension exp(x) on all of R, which may overflow to +inf without a
    warning. Each link computes p and p' from shared intermediates, in
    place where it can, so no more than two arrays of X's shape (and
    logit's sign mask) are live.
    """
    if link == LinkKind.LOG:
        with np.errstate(over="ignore"):
            P = np.exp(X, out=X)
        D = P.copy()
    elif link == LinkKind.LOGIT:
        pos = X >= 0
        e = np.exp(np.negative(np.abs(X, out=X), out=X), out=X)  # exp(-|x|)
        D = np.add(e, 1.0)
        P = np.divide(e, D, out=e)               # e^x / (1 + e^x) for x < 0
        np.divide(1.0, D, out=P, where=pos)      # 1 / (1 + e^-x) for x >= 0
        np.multiply(P, np.subtract(1.0, P, out=D), out=D)   # p (1 - p)
    elif link == LinkKind.CLOGLOG:
        Xc = np.clip(X, None, _EXP_CLIP, out=X)
        e = np.exp(Xc)
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
    return link_values(link, X)


def edge_prob(link: LinkKind, x) -> np.ndarray | float:
    """Edge probability p(x) in (0, 1) at a scalar or array of pair sums
    x = alpha_i + alpha_j; DomainError for the log link when any x >= 0
    (p would reach or exceed 1)."""
    P = _guarded_values(link, x)[0]
    return P if np.ndim(x) else float(P[0])


def edge_prob_deriv(link: LinkKind, x, order: int = 1) -> np.ndarray | float:
    """First or second derivative of the edge probability in the pair sum.

    p' comes from ``link_values``; p'' from p, p' and exp(x):

        log:      p'' = p'
        logit:    p'' = p'(1 - 2p)
        cloglog:  p'' = p'(1 - exp(x))

    Raises DomainError for the log link when any x >= 0, and ValueError
    for an order other than 1 or 2.
    """
    if order not in (1, 2):
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
    P, D = _guarded_values(link, x)
    if order == 2 and link == LinkKind.LOGIT:
        D = D * (1.0 - 2.0 * P)
    elif order == 2 and link == LinkKind.CLOGLOG:
        D = D * (1.0 - np.exp(np.clip(np.asarray(x, dtype=float), None, _EXP_CLIP)))
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
    return link_values(link, X)[0]


def expected_degrees(link: LinkKind, alpha: np.ndarray) -> np.ndarray:
    """Expected degree vector, component i equal to sum_{j != i} p_ij."""
    return edge_prob_matrix(link, alpha).sum(axis=1)


class EdgeSampler:
    """Independent Bernoulli(p_ij) edges for one (link, alpha), set up once.

    The draw stream is defined here and nowhere else: one
    ``rng.random(n(n-1)/2)`` call, one uniform per pair i < j in row
    order (that of ``np.triu_indices``), and pair k is an edge when its
    uniform is below p_k. ``sample_graph`` lists the pairs of the upper
    triangle that ``draw`` fills and ``degrees`` sums it, so both consume
    the same generator state and agree on every degree. The pairs are kept
    as an n x n boolean mask, an eighth of the size of two int64 index
    arrays.
    """

    def __init__(self, link: LinkKind, alpha: np.ndarray):
        a = validate_params(link, alpha)
        self.n = a.size
        try:
            i = np.arange(self.n)
            self.upper = i[:, None] < i
        except MemoryError:
            raise ValueError(f"vertex count n={self.n} is too large "
                             "to hold its vertex pairs") from None
        # validate_params has checked the log domain of every pair
        self.p = link_values(link, pair_sum_matrix(a)[self.upper])[0]

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """Upper triangle (uint8, zero elsewhere) of one drawn adjacency matrix."""
        A = np.zeros((self.n, self.n), dtype=np.uint8)
        A[self.upper] = rng.random(self.p.size) < self.p
        return A

    def degrees(self, rng: np.random.Generator) -> np.ndarray:
        """Degree sequence (float64) of one drawn graph."""
        A = self.draw(rng)
        return A.sum(axis=1, dtype=float) + A.sum(axis=0, dtype=float)


def sample_graph(link: LinkKind, alpha: np.ndarray, rng: np.random.Generator) -> EdgeList:
    """One graph drawn by ``EdgeSampler``; the same generator state yields the
    same graph. ``argwhere`` lists its pairs in canonical (row-major) order."""
    sampler = EdgeSampler(link, alpha)
    return EdgeList(sampler.n, np.argwhere(sampler.draw(rng)) + 1)


def degrees(g: EdgeList) -> np.ndarray:
    """int64 degrees of g; a name of its own only for perfbench/tracing.py to wrap."""
    return g.degree_vector()
