"""Moment-equation estimation of vertex parameters from noisy degrees.

Given a noisy degree sequence dtilde, the estimate alpha_hat solves the
moment system

    F_i(alpha) = dtilde_i - sum_{j != i} p(alpha_i + alpha_j) = 0.

Its root is unique and the system does not change when vertices are
permuted, so vertices with equal released degrees share one alpha.
``solve`` therefore runs damped Newton on the collapsed system over the
k distinct values u_a of dtilde, with multiplicities m_a and class
parameters beta_a:

    G_a(beta) = u_a - sum_b W_ab p(beta_a + beta_b),  W = m[None, :] - I,

where W_ab counts the partners of class b that one vertex of class a
has. Its negated Jacobian is diag(sum_b W_ab D_ab) + W o D with
D_ab = p'(beta_a + beta_b). The result is expanded back to the n
vertices. Without ties W = 1 - I and this is the full n x n system,
operation for operation.

On the full system the negated Jacobian V = -F'(alpha) is symmetric,
has positive off-diagonal entries V_ij = p'(alpha_i + alpha_j), and is
diagonally balanced: V_ii = sum_{j != i} V_ij. Its diagonal doubles as
the plug-in asymptotic precision of alpha_hat_i (variance 1 / V_ii),
which feeds the confidence intervals and the standardized pair
statistic; in the collapsed system it is v_a = sum_b W_ab D_ab.

For the log link the moment function is evaluated through the analytic
extension exp(alpha_i + alpha_j), defined for all real pair sums; see
``moment_residual`` for why.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtri

from .links import _EXP_CLIP, LinkKind, link_inverse, pair_sum_matrix

__all__ = [
    "SolverOptions",
    "EstimateResult",
    "JacobianMatrix",
    "NonexistentEstimateError",
    "moment_residual",
    "jacobian",
    "approx_inverse_s",
    "initial_point",
    "solve",
    "normal_quantile",
    "confidence_interval",
    "xi_statistic",
]


class NonexistentEstimateError(RuntimeError):
    """Raised when a quantity is requested from a nonexistent estimate."""


@dataclass(frozen=True)
class SolverOptions:
    """Newton solver controls.

    tol is relative: convergence requires the sup-norm residual to drop
    below tol * max(1, max|dtilde|). Step halving (at most max_halvings
    per iteration) enforces a monotone decrease of the residual norm.
    """

    tol: float = 1e-8
    max_iter: int = 200
    max_halvings: int = 40


@dataclass(frozen=True)
class EstimateResult:
    """Fit output; alpha_hat and v_hat are None when exists is False."""

    alpha_hat: Optional[np.ndarray]
    v_hat: Optional[np.ndarray]
    converged: bool
    iterations: int
    residual_inf: float
    exists: bool
    reason: Optional[str] = None
    # diagnostic only: sup over pairs of |alpha_i + alpha_j| at the fit,
    # reported so callers can see how far the fit strays from a bounded
    # parameter box (and, for the log link, whether any p exceeds 1)
    max_abs_pair_sum: Optional[float] = None

    @property
    def n(self) -> int:
        if self.alpha_hat is None:
            raise NonexistentEstimateError(self.reason or "estimate does not exist")
        return self.alpha_hat.size


@dataclass(frozen=True)
class JacobianMatrix:
    """Negated moment-system Jacobian V with its off-diagonal range [m, M]."""

    matrix: np.ndarray
    m: float
    M: float


def _weighted_values(link: LinkKind, beta: np.ndarray,
                     m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """W o p(X) and W o p'(X) at X_ab = beta_a + beta_b, W = m[None, :] - I.

    p is evaluated without the log-domain guard (analytic extension for
    log). Each link computes p and p' from shared intermediates, in place
    where it can, so no more than two k x k arrays (and logit's sign
    mask) are live. Diagonal entries with W_aa = 0 are set to zero rather
    than multiplied by it, so an overflowing value there cannot turn a
    row sum into NaN.
    """
    X = pair_sum_matrix(beta)
    if link == LinkKind.LOG:
        P = np.exp(X, out=X)
        D = P.copy()
    elif link == LinkKind.LOGIT:
        pos = X >= 0
        e = np.exp(np.negative(np.abs(X, out=X), out=X), out=X)  # exp(-|x|)
        D = np.add(e, 1.0)
        P = np.divide(e, D, out=e)               # e^x / (1 + e^x) for x < 0
        np.divide(1.0, D, out=P, where=pos)      # 1 / (1 + e^-x) for x >= 0
        np.multiply(P, np.subtract(1.0, P, out=D), out=D)   # p (1 - p)
    else:
        Xc = np.clip(X, None, _EXP_CLIP, out=X)
        e = np.exp(Xc)
        D = np.exp(np.subtract(Xc, e, out=Xc), out=Xc)      # exp(x - e^x)
        P = np.negative(np.expm1(np.negative(e, out=e), out=e), out=e)
    for A in (P, D):
        diag = np.zeros(m.size)
        np.multiply(A.diagonal(), m - 1.0, out=diag, where=m > 1)
        A *= m
        np.fill_diagonal(A, diag)
    return P, D


def _residual_and_slope(link: LinkKind, beta: np.ndarray, u: np.ndarray,
                        m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapsed residual G(beta) and W o p'(beta_a + beta_b), from one
    link evaluation."""
    P, D = _weighted_values(link, beta, m)
    return u - P.sum(axis=1), D


def moment_residual(link: LinkKind, alpha: np.ndarray, dtilde: np.ndarray,
                    counts: Optional[np.ndarray] = None) -> np.ndarray:
    """Residual vector F_i = dtilde_i - sum_{j != i} p(alpha_i + alpha_j).

    With counts m given, alpha and dtilde hold one entry per class of
    tied vertices and the residual is that of the collapsed system,
    G_a = u_a - sum_b (m_b - [a == b]) p(beta_a + beta_b); all-ones
    counts (the default) give the full system above.

    For the log link the sum is evaluated through exp() on all of R, not
    just on pair sums below zero: the moment system itself is smooth
    everywhere, and fits of real release data routinely sit at points
    where a few pair sums are positive (individual p_ij formally above
    one). The strict probability domain is enforced where probabilities
    are consumed as probabilities (sampling, edge_prob); here the
    residual is kept total so the solver and its diagnostics remain
    defined at such fits.
    """
    a = np.asarray(alpha, dtype=float).reshape(-1)
    d = np.asarray(dtilde, dtype=float).reshape(-1)
    if a.size != d.size:
        raise ValueError(f"length mismatch: alpha has {a.size}, dtilde has {d.size}")
    m = np.ones(a.size) if counts is None else np.asarray(counts, dtype=float)
    if m.shape != a.shape:
        raise ValueError(f"counts must have length {a.size}")
    return _residual_and_slope(link, a, d, m)[0]


def jacobian(link: LinkKind, alpha: np.ndarray) -> JacobianMatrix:
    """Negated Jacobian V of the moment system at alpha.

    V_ij = p'(alpha_i + alpha_j) for i != j and V_ii = sum_{j != i} V_ij
    exactly, so the diagonal-balance identity holds by construction.
    """
    a = np.asarray(alpha, dtype=float).reshape(-1)
    V = _weighted_values(link, a, np.ones(a.size))[1]
    off_min = float(V[~np.eye(a.size, dtype=bool)].min())
    off_max = float(V[~np.eye(a.size, dtype=bool)].max())
    np.fill_diagonal(V, V.sum(axis=1))
    return JacobianMatrix(V, off_min, off_max)


def approx_inverse_s(v: JacobianMatrix | np.ndarray) -> np.ndarray:
    """Diagonal approximate inverse S = diag(1 / V_ii)."""
    V = v.matrix if isinstance(v, JacobianMatrix) else np.asarray(v, dtype=float)
    d = np.diag(V)
    if np.any(d == 0) or not np.all(np.isfinite(d)):
        raise np.linalg.LinAlgError("degenerate Jacobian diagonal")
    return np.diag(1.0 / d)


def initial_point(link: LinkKind, dtilde: np.ndarray) -> np.ndarray:
    """Starting point: half the link inverse of the clamped degree ratio.

    alpha0_i = g(clip(dtilde_i / (n-1), delta, 1-delta)) / 2 with
    delta = 1 / (2(n-1)); exact when all entries of dtilde are equal.
    """
    d = np.asarray(dtilde, dtype=float).reshape(-1)
    n = d.size
    delta = 1.0 / (2.0 * (n - 1))
    r = np.clip(d / (n - 1), delta, 1.0 - delta)
    return 0.5 * np.asarray(link_inverse(link, r))


def _nonexistence_reason(link: LinkKind, d: np.ndarray) -> Optional[str]:
    n = d.size
    if np.any(d <= 0):
        return "noisy degree at or below 0"
    if link in (LinkKind.LOGIT, LinkKind.CLOGLOG) and np.any(d >= n - 1):
        return "noisy degree at or above n-1"
    return None


def _classes(d: np.ndarray, x0: Optional[np.ndarray]):
    """Group vertices by released degree (and start, when x0 is given).

    Returns (first, inverse, counts): the first vertex of each class, the
    class of each vertex and the class sizes, with classes in order of
    first occurrence, so untied input keeps its vertex order.
    """
    key = d if x0 is None else np.column_stack((d, x0))
    _, first, inverse, counts = np.unique(key, return_index=True, return_inverse=True,
                                          return_counts=True,
                                          axis=None if x0 is None else 0)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse.reshape(-1)], counts[order].astype(float)


def solve(link: LinkKind, dtilde: np.ndarray,
          options: SolverOptions | None = None,
          x0: Optional[np.ndarray] = None) -> EstimateResult:
    """Solve the moment system for a noisy degree sequence.

    Statistical nonexistence (a boundary degree, a solver breakdown, or
    failure to converge within the iteration budget) is reported through
    ``exists=False`` on the result, never raised: frequencies of this
    event are themselves a quantity of interest. Structural problems
    (wrong lengths, n < 2, non-finite input) do raise. x0 overrides the
    default starting point.

    Newton runs on the collapsed system over distinct released degrees
    (see the module docstring); iterations, residuals and diagnostics are
    those of the full system, whose residual has the same entries.
    """
    opts = options or SolverOptions()
    d = np.asarray(dtilde, dtype=float).reshape(-1)
    if d.size < 2:
        raise ValueError(f"need at least 2 vertices, got {d.size}")
    if not np.all(np.isfinite(d)):
        raise ValueError("noisy degrees must be finite")

    def fail(reason: str, it: int, res: float) -> EstimateResult:
        return EstimateResult(None, None, False, it, res, False, reason)

    reason = _nonexistence_reason(link, d)
    if reason is not None:
        return fail(reason, 0, float("inf"))

    tol = opts.tol * max(1.0, float(np.max(np.abs(d))))
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float).reshape(-1)
        if x0.size != d.size:
            raise ValueError("x0 length must match dtilde")
    first, inverse, m = _classes(d, x0)
    u = d[first]
    b = (x0 if x0 is not None else initial_point(link, d))[first]
    F, V = _residual_and_slope(link, b, u, m)
    res = float(np.max(np.abs(F)))

    # V holds W o p' at b; each accepted trial point brings its own
    for it in range(opts.max_iter + 1):
        v = V.sum(axis=1)
        if res <= tol:
            pair_abs = np.abs(pair_sum_matrix(b))
            alone = np.flatnonzero(m == 1)  # W_aa = 0: no pair within the class
            pair_abs[alone, alone] = 0.0
            return EstimateResult(b[inverse], v[inverse], True, it, res, True, None,
                                  float(pair_abs.max()))
        if it == opts.max_iter:
            break
        V[np.diag_indices(m.size)] += v
        try:
            step = np.linalg.solve(V, F)
        except np.linalg.LinAlgError:
            return fail("singular Jacobian", it, res)
        del V
        if not np.all(np.isfinite(step)):
            return fail("non-finite Newton step", it, res)

        # damping: halve until the sup-norm residual strictly decreases
        scale = 1.0
        for _ in range(opts.max_halvings + 1):
            b_try = b + scale * step
            F_try, V_try = _residual_and_slope(link, b_try, u, m)
            res_try = float(np.max(np.abs(F_try)))
            if np.isfinite(res_try) and res_try < res:
                b, F, res, V = b_try, F_try, res_try, V_try
                break
            del V_try
            scale *= 0.5
        else:
            return fail("step stalled (no residual decrease)", it, res)
    return fail("iteration limit reached", opts.max_iter, res)


def _require(result: EstimateResult) -> None:
    if not result.exists or result.alpha_hat is None:
        raise NonexistentEstimateError(result.reason or "estimate does not exist")


def normal_quantile(level: float) -> float:
    """Two-sided standard normal quantile z with P(|Z| <= z) = level."""
    if not (0 < level < 1):
        raise ValueError("confidence level must be in (0, 1)")
    return float(ndtri(0.5 + level / 2.0))


def confidence_interval(result: EstimateResult, i: int | np.ndarray,
                        j: Optional[int] = None, level: float = 0.95) -> tuple:
    """Normal-theory confidence interval from the fitted precision diagonal.

    With j given (0-based, j != i), the interval is for the difference
    alpha_i - alpha_j:

        (ahat_i - ahat_j) +/- z * sqrt(1/v_ii + 1/v_jj).

    With j omitted, the single-coordinate interval
    ahat_i +/- z / sqrt(v_ii); i may then be an index array, which gives
    arrays of bounds from one quantile evaluation.
    """
    _require(result)
    z = normal_quantile(level)
    a, v = result.alpha_hat, result.v_hat
    if j is None:
        half = z / np.sqrt(v[i])
        lo, hi = a[i] - half, a[i] + half
        return (float(lo), float(hi)) if np.ndim(lo) == 0 else (lo, hi)
    if i == j:
        raise ValueError("difference interval needs two distinct coordinates")
    half = z * np.sqrt(1.0 / v[i] + 1.0 / v[j])
    c = a[i] - a[j]
    return float(c - half), float(c + half)


def xi_statistic(result: EstimateResult, truth: np.ndarray, i: int, j: int) -> float:
    """Standardized pair-sum statistic

        (ahat_i + ahat_j - alpha*_i - alpha*_j) / sqrt(1/v_ii + 1/v_jj),

    asymptotically standard normal at the true parameter. The
    denominator combines the two coordinate precisions; i and j are
    0-based and distinct.
    """
    _require(result)
    if i == j:
        raise ValueError("pair statistic needs two distinct coordinates")
    t = np.asarray(truth, dtype=float).reshape(-1)
    a, v = result.alpha_hat, result.v_hat
    num = (a[i] + a[j]) - (t[i] + t[j])
    return float(num / np.sqrt(1.0 / v[i] + 1.0 / v[j]))
