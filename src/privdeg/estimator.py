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
from typing import Iterator, Optional

import numpy as np

from .links import LinkKind, link_inverse, link_values, pair_sum_matrix

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
    "solve_many",
    "normal_quantile",
    "confidence_interval",
    "xi_statistic",
]


# Element budget of a stack of fits in ``solve_many``: each of its
# (g, k, k) arrays holds at most this many entries, or those of one fit
# when k * k exceeds it, so fits with k > 90 run alone. Larger stacks
# gained no speed at n = 100 and cost memory.
_ELEMENT_BUDGET = 2**14


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

    beta and m are one system (k,) or a stack of systems (g, k); the
    result is (k, k) or (g, k, k), and every entry is computed the same
    way in either shape. p and p' come from ``links.link_values``,
    without the log-domain guard (analytic extension for log). Diagonal
    entries with W_aa = 0 are set to zero rather than multiplied by it,
    so an overflowing value there cannot turn a row sum into NaN.
    """
    P, D = link_values(link, pair_sum_matrix(beta))
    for A in (P, D):
        diag = np.zeros(m.shape)
        np.multiply(A.diagonal(axis1=-2, axis2=-1), m - 1.0, out=diag, where=m > 1)
        A *= m[..., None, :]
        _diagonal(A)[...] = diag
    return P, D


def _diagonal(A: np.ndarray) -> np.ndarray:
    """Writable view of the diagonals of a C-contiguous (..., k, k) array."""
    k = A.shape[-1]
    return A.reshape(*A.shape[:-2], k * k)[..., ::k + 1]


def _residual_and_slope(link: LinkKind, beta: np.ndarray, u: np.ndarray,
                        m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapsed residual G(beta) and W o p'(beta_a + beta_b), from one
    link evaluation."""
    P, D = _weighted_values(link, beta, m)
    return u - P.sum(axis=-1), D


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


def _newton(link: LinkKind, u: np.ndarray, m: np.ndarray, b: np.ndarray,
            tol: np.ndarray, inverses: list, opts: SolverOptions) -> list[EstimateResult]:
    """Damped Newton on a stack of g collapsed systems with k classes each.

    u, m and b (g, k) hold each member's distinct degrees, class sizes and
    start, tol (g,) its absolute tolerance and inverses[j] the class of
    each of its vertices. The members run side by side but apart: each
    has its own residual, step, damping and exit, and the loop does for
    each exactly what it does for a stack of that member alone, so a
    member's result does not depend on the rest of the stack, bit for
    bit. Members stop converged or with one of the reasons that ``solve``
    reports.
    """
    g, k = u.shape
    fits: list[Optional[EstimateResult]] = [None] * g
    rows = np.arange(g)  # member of each running row
    b = np.array(b, dtype=float)

    def stop(gone: np.ndarray, it: int, res: np.ndarray, reason: str) -> None:
        for j, r in zip(rows[gone].tolist(), res[gone].tolist()):
            fits[j] = EstimateResult(None, None, False, it, r, False, reason)

    F, V = _residual_and_slope(link, b, u, m)
    res = np.max(np.abs(F), axis=1)
    # V holds W o p' at b; each accepted trial point brings its own
    for it in range(opts.max_iter + 1):
        v = V.sum(axis=2)
        done = res <= tol
        if done.any():
            pair_abs = pair_sum_matrix(b[done])
            np.abs(pair_abs, out=pair_abs)
            _diagonal(pair_abs)[m[done] == 1] = 0.0  # W_aa = 0: no pair within the class
            for j, r, bj, vj, pm in zip(rows[done].tolist(), res[done].tolist(), b[done],
                                        v[done], pair_abs.max(axis=(1, 2)).tolist()):
                fits[j] = EstimateResult(bj[inverses[j]], vj[inverses[j]], True, it, r,
                                        True, None, pm)
            del pair_abs
            if done.all():
                return fits
            keep = ~done
            rows, u, m, b, tol, F, V, res, v = (
                x[keep] for x in (rows, u, m, b, tol, F, V, res, v))
        if it == opts.max_iter:
            break
        _diagonal(V)[...] += v
        singular = np.zeros(rows.size, dtype=bool)
        try:
            step = np.linalg.solve(V, F[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # find the singular members one by one; the rest keep their steps
            step = np.empty_like(F)
            for r in range(rows.size):
                try:
                    step[r] = np.linalg.solve(V[r:r + 1], F[r:r + 1, :, None])[0, :, 0]
                except np.linalg.LinAlgError:
                    singular[r] = True
        del V
        stop(singular, it, res, "singular Jacobian")
        nonfinite = ~singular & ~np.all(np.isfinite(step), axis=1)
        stop(nonfinite, it, res, "non-finite Newton step")
        if (singular | nonfinite).any():
            keep = ~(singular | nonfinite)
            if not keep.any():
                return fits
            rows, u, m, b, tol, F, res, step = (
                x[keep] for x in (rows, u, m, b, tol, F, res, step))

        # damping: halve until the sup-norm residual strictly decreases;
        # the rows still trying have all been halved alike
        trying = np.arange(rows.size)
        V = None
        scale = 1.0
        for _ in range(opts.max_halvings + 1):
            whole = trying.size == rows.size
            t = slice(None) if whole else trying
            b_try = b[t] + scale * step[t]
            F_try, V_try = _residual_and_slope(link, b_try, u[t], m[t])
            res_try = np.max(np.abs(F_try), axis=1)
            ok = np.isfinite(res_try) & (res_try < res[t])
            if whole and ok.all():
                b, F, res, V = b_try, F_try, res_try, V_try
                trying = trying[:0]
                break
            acc = trying[ok]
            if acc.size:
                b[acc], F[acc], res[acc] = b_try[ok], F_try[ok], res_try[ok]
                if V is None:
                    V = np.empty((rows.size, k, k))
                V[acc] = V_try[ok]
            del F_try, V_try
            trying = trying[~ok]
            if not trying.size:
                break
            scale *= 0.5
        if trying.size:
            stalled = np.zeros(rows.size, dtype=bool)
            stalled[trying] = True
            stop(stalled, it, res, "step stalled (no residual decrease)")
            if stalled.all():
                return fits
            keep = ~stalled
            rows, u, m, b, tol, F, V, res = (
                x[keep] for x in (rows, u, m, b, tol, F, V, res))
    stop(np.ones(rows.size, dtype=bool), opts.max_iter, res, "iteration limit reached")
    return fits


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
    return next(solve_many(link, [dtilde], options, None if x0 is None else [x0]))


def solve_many(link: LinkKind, dtildes, options: SolverOptions | None = None,
               x0s=None) -> Iterator[EstimateResult]:
    """Yield ``solve`` of each noisy degree sequence (and start), in order.

    dtildes may be any iterable, x0s a sequence of starts or None. Fits
    whose collapsed systems have the same number of classes k run stacked
    in one Newton loop (see ``_newton``): a stack runs as soon as it
    holds max(1, _ELEMENT_BUDGET // k^2) fits, the rest at the end. Each
    result is the one ``solve`` gives for its sequence alone, bit for
    bit, and is yielded once it and every result before it are known.
    """
    opts = options or SolverOptions()
    ready: dict[int, EstimateResult] = {}  # results not yet yielded
    waiting: dict[int, list] = {}  # k -> collapsed systems of a stack
    yielded = 0

    def run(stack: list) -> None:
        u, m, b, tol = (np.array([s[c] for s in stack]) for c in (1, 2, 3, 4))
        fits = _newton(link, u, m, b, tol, [s[5] for s in stack], opts)
        ready.update((s[0], fit) for s, fit in zip(stack, fits))

    for f, dtilde in enumerate(dtildes):
        d = np.asarray(dtilde, dtype=float).reshape(-1)
        if d.size < 2:
            raise ValueError(f"need at least 2 vertices, got {d.size}")
        if not np.all(np.isfinite(d)):
            raise ValueError("noisy degrees must be finite")
        reason = _nonexistence_reason(link, d)
        if reason is not None:
            ready[f] = EstimateResult(None, None, False, 0, float("inf"), False, reason)
        else:
            x0 = None if x0s is None else x0s[f]
            if x0 is not None:
                x0 = np.asarray(x0, dtype=float).reshape(-1)
                if x0.size != d.size:
                    raise ValueError("x0 length must match dtilde")
            first, inverse, m = _classes(d, x0)
            b = (x0 if x0 is not None else initial_point(link, d))[first]
            tol = opts.tol * max(1.0, float(np.max(np.abs(d))))
            k = first.size
            stack = waiting.setdefault(k, [])
            stack.append((f, d[first], m, b, tol, inverse))
            if len(stack) >= max(1, _ELEMENT_BUDGET // (k * k)):
                run(waiting.pop(k))
        while yielded in ready:
            yield ready.pop(yielded)
            yielded += 1
    for stack in waiting.values():
        run(stack)
    for f in sorted(ready):
        yield ready[f]


def _require(result: EstimateResult) -> None:
    if not result.exists or result.alpha_hat is None:
        raise NonexistentEstimateError(result.reason or "estimate does not exist")


def normal_quantile(level: float) -> float:
    """Two-sided standard normal quantile z with P(|Z| <= z) = level."""
    from scipy.special import ndtri  # imported here: scipy is slow to load

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
