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

Each Newton step solves J x = G for the step x, with J the collapsed
negated Jacobian. A fit whose stack in ``solve_many`` has one member
(k >= 91, see ``_ELEMENT_BUDGET``) solves it by conjugate gradients
preconditioned by diag(J), the paper's approximate inverse
S = diag(1 / v_ii): at k = 400 that takes about 6 matrix-vector
products instead of an O(k^3) LU factorisation. W scales the columns of
J, so with ties J is not symmetric, but diag(m) J = P^T V P for the
n x k class indicator P is symmetric positive definite, and CG runs on
diag(m) J x = m o G. A stack of several members, and a step that CG
cannot finish (see ``_cg_step``), factors J with ``np.linalg.solve``
instead.

A fit evaluates the link in two (g, k, k) work arrays that it holds for
its lifetime, g the size of its stack: the pair sums, p and p' of every
Newton point are written into them, and no evaluation allocates a k x k
array. ``solve_many`` lends each stack the leading part of one buffer,
grown to its largest stack, so a run of fits reuses the same pages.

For the log link the moment function is evaluated through the analytic
extension exp(alpha_i + alpha_j), defined for all real pair sums; see
``moment_residual`` for why.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import Iterator, Optional

import numpy as np

from .links import LinkKind, link_inverse, link_values

__all__ = [
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


# Newton converges once the sup-norm residual is at most
# _TOL * max(1, max|dtilde|) and gives up after _MAX_ITER steps (the fits
# of the shipped scenarios take 3 to 7). Step halving, at most
# _MAX_HALVINGS per step, makes the residual norm strictly decrease.
_TOL = 1e-8
_MAX_ITER = 200
_MAX_HALVINGS = 40

# A CG Newton step stops once its residual 2-norm is at most
# _CG_RTOL * ||m o G||_2: at 1e-12 the sim_n400_lap report moved in its
# last digits, at 1e-14 it is byte-identical to the LU step's. CG gives
# up, and the step falls back to LU, after min(k, _CG_MAX_ITER)
# iterations. Steps took 5-6 iterations on sim_n400_lap, 6-7 on
# analyze_n2000, at most 12 over sampled cells of all three links at
# n = 100 to 1000 and at most 15 on sequences within 1e-10 of a
# degree-polytope facet, so a step that fails costs at most 50
# matrix-vector products before its LU.
_CG_RTOL = 1e-14
_CG_MAX_ITER = 50


@dataclass(frozen=True)
class EstimateResult:
    """Fit output; alpha_hat and v_hat are None when exists is False."""

    alpha_hat: Optional[np.ndarray]
    v_hat: Optional[np.ndarray]
    iterations: int
    residual_inf: float
    exists: bool
    reason: Optional[str] = None

    @property
    def max_abs_pair_sum(self) -> Optional[float]:
        """Diagnostic: max over pairs i != j of |alpha_i + alpha_j| at the fit.

        It shows how far the fit strays from a bounded parameter box (and,
        for the log link, whether any p exceeds 1). Rounding is monotone,
        so the top two and bottom two sorted entries give the extreme sums.
        """
        if self.alpha_hat is None:
            return None
        a = np.sort(self.alpha_hat)
        return max(float(a[-1] + a[-2]), -float(a[0] + a[1]))


@dataclass(frozen=True)
class JacobianMatrix:
    """Negated moment-system Jacobian V with its off-diagonal range [m, M]."""

    matrix: np.ndarray
    m: float
    M: float


def _weighted_values(link: LinkKind, beta: np.ndarray, m: np.ndarray,
                     out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """W o p(X) and W o p'(X) at X_ab = beta_a + beta_b, W = m[None, :] - I.

    beta and m are one system (k,) or a stack of systems (g, k); the
    result is (k, k) or (g, k, k), and every entry is computed the same
    way in either shape. The two results are written to out[0] and
    out[1] in some order: out is a C-contiguous float64 array of shape
    (2, *beta.shape, k), and nothing else is allocated at the result's
    size. X is formed in out[0] with the elementwise sums of
    ``links.pair_sum_matrix``; p and p' come from ``links.link_values``,
    without the log-domain guard (analytic extension for log). Diagonal
    entries with W_aa = 0 are set to zero rather than multiplied by it,
    so an overflowing value there cannot turn a row sum into NaN. Pair
    sums and weighted values may overflow to inf without a warning: at a
    far Newton trial point they give a non-finite residual, which damping
    rejects.
    """
    with np.errstate(over="ignore"):
        X = np.add(beta[..., :, None], beta[..., None, :], out=out[0])
        P, D = link_values(link, X, out[1])
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
                        m: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapsed residual G(beta) and W o p'(beta_a + beta_b), from one
    link evaluation in the work arrays out (see ``_weighted_values``);
    the slope is one of them."""
    P, D = _weighted_values(link, beta, m, out)
    return u - P.sum(axis=-1), D


def moment_residual(link: LinkKind, alpha: np.ndarray, dtilde: np.ndarray) -> np.ndarray:
    """Residual vector F_i = dtilde_i - sum_{j != i} p(alpha_i + alpha_j).

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
    return _residual_and_slope(link, a, d, np.ones(a.size),
                               np.empty((2, a.size, a.size)))[0]


def jacobian(link: LinkKind, alpha: np.ndarray) -> JacobianMatrix:
    """Negated Jacobian V of the moment system at alpha.

    V_ij = p'(alpha_i + alpha_j) for i != j and V_ii = sum_{j != i} V_ij
    exactly, so the diagonal-balance identity holds by construction.
    """
    a = np.asarray(alpha, dtype=float).reshape(-1)
    V = _weighted_values(link, a, np.ones(a.size), np.empty((2, a.size, a.size)))[1]
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
    """Why no root exists for d, or None when none of the checks fails.

    A logit or cloglog root needs d strictly inside the polytope of
    degree sequences (Rinaldo, Petrovic & Fienberg 2013), whose facets
    are, for disjoint vertex sets S and T,

        sum_S d_i - sum_T d_i <= |S| (n - 1 - |T|).

    For |S| = s the tightest one takes S as the s largest entries and
    T = {i not in S : d_i < s}, so sorting and prefix sums check them all
    in O(n log n). Its excess over the bound is at most
    (n - s)(s - d_min) - s(n - 1 - d_max), whose maximum over s is
    (d_min + d_max + 1)^2 / 4 - n d_min; when that is negative, as for
    most released sequences, no facet can fail and the prefix sums are
    skipped. At n = 2 the polytope is a segment without interior and
    only the single-vertex facets are checked. The log link's p may
    exceed 1, so the polytope does not bound it: it keeps only the check
    d_i > 0.
    """
    n = d.size
    a = np.sort(d)
    d_min, d_max = float(a[0]), float(a[-1])
    if d_min <= 0:
        return "noisy degree at or below 0"
    if link == LinkKind.LOG:
        return None
    if d_max >= n - 1:
        return "noisy degree at or above n-1"
    if n > 2 and (d_min + d_max + 1) ** 2 >= 4 * n * d_min:
        low = np.concatenate(([0.0], a.cumsum()))  # low[c]: sum of the c smallest
        s = np.arange(1, n + 1)
        rest = n - s
        c = np.minimum(a.searchsorted(s), rest)  # |T| for each s
        if (low[n] - low[rest] - low[c] >= s * (n - 1 - c)).any():
            return "noisy degrees on a degree-polytope facet or outside it"
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


def _cg_step(V: np.ndarray, F: np.ndarray, m: np.ndarray) -> Optional[np.ndarray]:
    """Newton step x with V x = F by Jacobi-preconditioned conjugate gradients.

    V is one collapsed system's negated Jacobian (k, k), F its residual
    and m its class sizes. CG runs on diag(m) V x = m o F, which is
    symmetric positive definite (see the module docstring). Returns None
    when a diagonal entry is not positive and finite, on a breakdown, or
    when the residual has not reached _CG_RTOL * ||m o F||_2 within
    min(k, _CG_MAX_ITER) iterations; the caller then factors V.
    """
    diag = V.diagonal() * m
    if not np.all((diag > 0) & (diag < np.inf)):
        return None
    with np.errstate(all="ignore"):  # a breakdown shows as pq <= 0 or NaN
        r = F * m  # the residual at x = 0
        stop = _CG_RTOL * np.sqrt(r @ r)
        if not 0 < stop < np.inf:
            return None
        x = np.zeros_like(r)
        z = r / diag
        p, rz = z, r @ z
        for _ in range(min(r.size, _CG_MAX_ITER)):
            q = V @ p
            q *= m
            pq = p @ q
            if not pq > 0:
                return None
            a = rz / pq
            x += a * p
            r -= a * q
            if np.sqrt(r @ r) <= stop:
                return x
            z = r / diag
            rz, rz_old = r @ z, rz
            p = z + (rz / rz_old) * p
    return None


def _newton(link: LinkKind, u: np.ndarray, m: np.ndarray, b: np.ndarray,
            tol: np.ndarray, inverses: list, work: np.ndarray) -> list[EstimateResult]:
    """Damped Newton on a stack of g collapsed systems with k classes each.

    u, m and b (g, k) hold each member's distinct degrees, class sizes and
    start, tol (g,) its absolute tolerance and inverses[j] the class of
    each of its vertices. The members run side by side but apart: each
    has its own residual, step, damping and exit, and the loop does for
    each exactly what it does for a stack of that member alone, so a
    member's result does not depend on the rest of the stack, bit for
    bit. Members stop converged or with one of the reasons that ``solve``
    reports.

    A member leaves the stack at one point, the top of an iteration: there
    the converged rows record their fits, and they leave together with the
    rows that failed in the iteration before. A row fails on a singular
    Jacobian, a non-finite step or a stalled damping; ``stop`` records its
    fit at once and flags it, and a flagged row takes no part in damping
    and keeps zero rows of V until it leaves. Rows still running after
    _MAX_ITER steps stop at the iteration limit.

    A member with k >= 91 runs alone (see ``solve_many``) and takes its
    steps by ``_cg_step``. The test is on k, not on how many rows are still
    running, so that a member's steps do not depend on its stack.

    work is the fit's pair of (g, k, k) work arrays, a C-contiguous
    (2, g, k, k) float64 array held for the whole fit: each link
    evaluation of n rows writes into its leading slab work[:, :n]. The
    slope V of an accepted point may be such a slab; it is used up before
    the next evaluation, and a compaction or a partial acceptance copies
    it, so no result aliases work.
    """
    g, k = u.shape
    alone = _ELEMENT_BUDGET // (k * k) <= 1  # a stack of one, see solve_many
    fits: list[Optional[EstimateResult]] = [None] * g
    rows = np.arange(g)  # member of each running row
    b = np.array(b, dtype=float)
    failed = np.zeros(g, dtype=bool)  # rows whose fit ``stop`` has recorded

    def stop(gone: np.ndarray, it: int, reason: str) -> None:
        for j, r in zip(rows[gone].tolist(), res[gone].tolist()):
            fits[j] = EstimateResult(None, None, it, r, False, reason)
        failed[gone] = True

    F, V = _residual_and_slope(link, b, u, m, work)
    res = np.max(np.abs(F), axis=1)
    # V holds W o p' at b: a slab of work until a compaction or a partial
    # acceptance copies it, and used up (del V) before work is written again
    for it in range(_MAX_ITER + 1):
        v = V.sum(axis=2)
        done = res <= tol  # never a failed row: it keeps the residual it failed at
        for j, r, bj, vj in zip(rows[done].tolist(), res[done].tolist(), b[done], v[done]):
            fits[j] = EstimateResult(bj[inverses[j]], vj[inverses[j]], it, r, True)
        keep = ~(done | failed)
        if not keep.all():
            rows, u, m, b, tol, F, V, res, v, failed = (
                x[keep] for x in (rows, u, m, b, tol, F, V, res, v, failed))
        if it == _MAX_ITER or not rows.size:
            break
        _diagonal(V)[...] += v
        step = _cg_step(V[0], F[0], m[0]) if alone else None
        if step is not None:
            step = step[None]
        else:
            try:
                step = np.linalg.solve(V, F[..., None])[..., 0]
            except np.linalg.LinAlgError:
                # find the singular members one by one; the rest keep their steps
                step = np.empty_like(F)
                for r in range(rows.size):
                    try:
                        step[r] = np.linalg.solve(V[r:r + 1], F[r:r + 1, :, None])[0, :, 0]
                    except np.linalg.LinAlgError:
                        failed[r] = True
        del V
        stop(failed, it, "singular Jacobian")
        stop(~failed & ~np.all(np.isfinite(step), axis=1), it, "non-finite Newton step")

        # damping: halve until the sup-norm residual strictly decreases;
        # the rows still trying have all been halved alike and evaluate in
        # the leading slab of work; V is taken whole or, once a row is
        # accepted apart from others, copied row by row into zeros, which the
        # rows that stall or failed keep until they leave
        trying = np.flatnonzero(~failed)
        V = None
        scale = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            whole = trying.size == rows.size
            t = slice(None) if whole else trying
            b_try = b[t] + scale * step[t]
            F_try, V_try = _residual_and_slope(link, b_try, u[t], m[t],
                                               work[:, :trying.size])
            res_try = np.max(np.abs(F_try), axis=1)
            ok = np.isfinite(res_try) & (res_try < res[t])
            if whole and ok.all():
                b, F, res, V = b_try, F_try, res_try, V_try
                trying = trying[:0]
                break
            acc = trying[ok]
            if acc.size:
                if V is None:
                    V = np.zeros((rows.size, k, k))
                b[acc], F[acc], res[acc], V[acc] = b_try[ok], F_try[ok], res_try[ok], V_try[ok]
            del F_try, V_try
            trying = trying[~ok]
            if not trying.size:
                break
            scale *= 0.5
        if V is None:
            V = np.zeros((rows.size, k, k))
        stop(trying, it, "step stalled (no residual decrease)")
    stop(np.arange(rows.size), _MAX_ITER, "iteration limit reached")
    return fits


def solve(link: LinkKind, dtilde: np.ndarray,
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
    return next(solve_many(link, [dtilde], None if x0 is None else [x0]))


def solve_many(link: LinkKind, dtildes, x0s=None) -> Iterator[EstimateResult]:
    """Yield ``solve`` of each noisy degree sequence (and start), in order.

    dtildes may be any iterable, x0s a sequence of starts or None. Fits
    whose collapsed systems have the same number of classes k run stacked
    in one Newton loop (see ``_newton``): a stack runs as soon as it
    holds max(1, _ELEMENT_BUDGET // k^2) fits, the rest at the end. Each
    result is the one ``solve`` gives for its sequence alone, bit for
    bit, and is yielded once it and every result before it are known.
    Every stack evaluates in the leading part of one flat work buffer,
    allocated again only when a stack needs more.
    """
    ready: dict[int, EstimateResult] = {}  # results not yet yielded
    waiting: dict[int, list] = {}  # k -> collapsed systems of a stack
    yielded = 0
    work = np.empty(0)  # the work arrays of the largest stack so far, flat

    def run(stack: list) -> None:
        nonlocal work
        u, m, b, tol = (np.array([s[c] for s in stack]) for c in (1, 2, 3, 4))
        g, k = u.shape
        if work.size < 2 * g * k * k:
            work = np.empty(2 * g * k * k)
        fits = _newton(link, u, m, b, tol, [s[5] for s in stack],
                       work[:2 * g * k * k].reshape(2, g, k, k))
        ready.update((s[0], fit) for s, fit in zip(stack, fits))

    for f, dtilde in enumerate(dtildes):
        d = np.asarray(dtilde, dtype=float).reshape(-1)
        if d.size < 2:
            raise ValueError(f"need at least 2 vertices, got {d.size}")
        if not np.all(np.isfinite(d)):
            raise ValueError("noisy degrees must be finite")
        reason = _nonexistence_reason(link, d)
        if reason is not None:
            ready[f] = EstimateResult(None, None, 0, float("inf"), False, reason)
        else:
            x0 = None if x0s is None else x0s[f]
            if x0 is not None:
                x0 = np.asarray(x0, dtype=float).reshape(-1)
                if x0.size != d.size:
                    raise ValueError("x0 length must match dtilde")
            first, inverse, m = _classes(d, x0)
            b = (x0 if x0 is not None else initial_point(link, d))[first]
            tol = _TOL * max(1.0, float(np.max(np.abs(d))))
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
    """Two-sided standard normal quantile z with P(|Z| <= z) = level.

    z comes from ``statistics.NormalDist`` (Wichura's AS241), so no run
    needs scipy. Raises ValueError unless level is in (0, 1) and z is
    finite (a level within an ulp of 1 rounds 0.5 + level / 2 up to 1).
    """
    if not (0 < level < 1):
        raise ValueError("confidence level must be in (0, 1)")
    y = 0.5 + level / 2.0
    if y >= 1.0:  # inv_cdf raises StatisticsError at 1
        raise ValueError(f"confidence level {level!r} is too close to 1: "
                         "its normal quantile is infinite")
    return NormalDist().inv_cdf(y)


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
