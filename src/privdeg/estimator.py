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
operation for operation. ``solve_many`` fits a block of sequences, one
(B, n) array, and returns a list of B results. It screens, collapses and
starts the block in one pass (``_prepare``): one stable sort of each row
gives the facet screen its sorted row and the classes, in order of first
occurrence, with their sizes, and the start is computed from the
distinct degrees alone. ``solve`` is a block of one row.

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

Newton sees each point through an operator: the row sums v, a product
x -> J x and the diagonal of J. A stack's operator is ``_Dense``, J in a
(g, k, k) slope array that ``_evaluate`` allocates and fills: it walks
the rows in blocks of min(k, max(1, _ELEMENT_BUDGET // k)) rows, forms a
block's pair sums and p in a scratch of g x rows x k entries, writes
W o p' into the slope array and reduces the block's rows of G and v
before the next block, so p is never held whole. A lone fit takes
``_Chebyshev`` wherever a grid of T nodes with 3T <= k resolves the
point: every kernel is a function of the pair sum alone, so on T
Chebyshev nodes over the range of beta it is a k x T barycentric basis
times a T x T table times the basis transposed, and G, v and J x cost
O(kT) and T^2 link evaluations, with no k x k array (Berrut & Trefethen
2004, SIAM Review 46). Its other points are dense. Every LU step
factors the dense J of ``_evaluate`` at its point, a grid point
included. Every evaluation allocates its own arrays: a stack's slope
array holds at most _ELEMENT_BUDGET entries, and a lone fit forms a
k x k one only at a point that no grid resolves or for an LU step.

For the log link the moment function is evaluated through the analytic
extension exp(alpha_i + alpha_j), defined for all real pair sums; see
``moment_residual`` for why.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist
from typing import Optional

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


# Element budget of a stack of fits in ``solve_many``: its (g, k, k)
# slope array holds at most this many entries, or those of one fit when
# k * k exceeds it, so fits with k > 90 run alone. Larger stacks gained no
# speed at n = 100 and cost memory. ``_evaluate`` takes blocks of
# min(k, max(1, _ELEMENT_BUDGET // k)) rows, so a stack is one block. A
# lone fit walks row blocks only at the points its Chebyshev grid cannot
# resolve (see ``_chebyshev``) and for an LU step, so the block size is
# left untuned.
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

# The Chebyshev grid of a lone fit's point (see ``_chebyshev``) starts at
# _CHEB_NODES nodes and doubles until the last _CHEB_TAIL_TERMS Chebyshev
# coefficients of p and of p' are at most _CHEB_TAIL times their largest.
# 16 nodes resolved 109 to 126 of 300 random intervals per link at once.
# The rounding floor of that ratio, read at twice the first T that brought
# it under 1e-12 on 900 intervals (widths 0.05 to 10, all three links), had
# a median of 2.4e-15 to 2.8e-15 and a maximum of 7.3e-15: at 2e-15, 25 of
# 300 cloglog intervals never resolved, at 2e-14 all did, and G and v of
# 450 random 600-class points were within 2.2e-15 of the dense row sums,
# relative to their largest. The grid serves only while
# _CHEB_RATIO * T <= k: an evaluation plus six CG products broke even with
# the dense ones at k of about 91 for T = 16, 110-150 for T = 32, 150-178
# for T = 64 and 210-300 for T = 128 (cloglog, one BLAS thread, 2 cores).
_CHEB_NODES = 16
_CHEB_TAIL = 2e-14
_CHEB_TAIL_TERMS = 4
_CHEB_RATIO = 3


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


def _evaluate(link: LinkKind, beta: np.ndarray, u: np.ndarray,
              m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapsed residual G, slope W o p' and its row sums v at beta.

    beta, u and m are a stack of g systems (g, k), W = m[None, :] - I.
    Returns (G, out, v): G = u - sum_b W_ab p(beta_a + beta_b) and
    v = sum_b W_ab p'(beta_a + beta_b), both (g, k), and out, a
    (g, k, k) float64 array holding W o p'. The rows are taken in blocks
    of min(k, max(1, _ELEMENT_BUDGET // k)): a block's pair sums are
    formed in a scratch of g * rows * k entries, where
    ``links.link_values`` turns them into p while it writes p' into the
    block's rows of out; both are weighted and summed into the block's
    rows of G and v before the next block, so p is never held whole.
    Every entry and every row sum has the bits of a whole-matrix
    evaluation, as a block holds whole rows and each row is summed
    alone. Without ties
    W o A is A with a zero diagonal: the weighting multiplies by 1.0.
    Diagonal entries with W_aa = 0 are set to zero rather than multiplied
    by it, so an overflowing value there cannot turn a row sum into NaN.
    Pair sums and weighted values may overflow to inf without a warning:
    at a far Newton trial point they give a non-finite residual, which
    damping rejects.
    """
    g, k = beta.shape
    rows = min(k, max(1, _ELEMENT_BUDGET // k))
    out, scratch = np.empty((g, k, k)), np.empty(g * rows * k)
    G, v = np.empty((g, k)), np.empty((g, k))
    with np.errstate(over="ignore"):
        for lo in range(0, k, rows):
            hi = min(lo + rows, k)
            X = scratch[:g * (hi - lo) * k].reshape(g, hi - lo, k)
            X[...] = beta[:, None, :]
            X += beta[:, lo:hi, None]
            P, D = link_values(link, X, out[:, lo:hi])
            w = m[:, lo:hi]
            for A in (P, D):
                diag = np.einsum("...ii->...i", A[..., lo:hi])  # entry (a, a) of row a
                on_diag = np.zeros(w.shape)
                np.multiply(diag, w - 1.0, out=on_diag, where=w > 1)
                A *= m[:, None, :]
                diag[...] = on_diag
            P.sum(axis=-1, out=G[:, lo:hi])
            D.sum(axis=-1, out=v[:, lo:hi])
    return np.subtract(u, G, out=G), out, v


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
    return _evaluate(link, a[None], d[None], np.ones((1, a.size)))[0][0]


def jacobian(link: LinkKind, alpha: np.ndarray) -> JacobianMatrix:
    """Negated Jacobian V of the moment system at alpha.

    V_ij = p'(alpha_i + alpha_j) for i != j and V_ii = sum_{j != i} V_ij
    exactly, so the diagonal-balance identity holds by construction.
    """
    a = np.asarray(alpha, dtype=float).reshape(-1)
    if a.size < 2:
        raise ValueError(f"need at least 2 vertices, got {a.size}")
    _, V, v = _evaluate(link, a[None], np.zeros((1, a.size)), np.ones((1, a.size)))
    V = V[0]
    # the off-diagonal range, with the diagonal set where it cannot win
    np.fill_diagonal(V, np.inf)
    lo = float(V.min())
    np.fill_diagonal(V, -np.inf)
    hi = float(V.max())
    np.fill_diagonal(V, v[0])
    return JacobianMatrix(V, lo, hi)


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
    if d.size < 2:
        raise ValueError(f"need at least 2 vertices, got {d.size}")
    return _start(link, d, d.size)


def _start(link: LinkKind, d: np.ndarray, n: int) -> np.ndarray:
    """``initial_point`` of degrees d of n-vertex sequences, entry by entry,
    so that it may run on the distinct degrees alone."""
    delta = 1.0 / (2.0 * (n - 1))
    r = np.clip(d / (n - 1), delta, 1.0 - delta)
    return 0.5 * np.asarray(link_inverse(link, r))


def _screen(link: LinkKind, S: np.ndarray) -> list[Optional[str]]:
    """Why no root exists for each row of S (B, n), rows sorted ascending,
    or None for a row when none of the checks fails.

    A logit or cloglog root needs d strictly inside the polytope of
    degree sequences (Rinaldo, Petrovic & Fienberg 2013), whose facets
    are, for disjoint vertex sets S and T,

        sum_S d_i - sum_T d_i <= |S| (n - 1 - |T|).

    For |S| = s the tightest one takes S as the s largest entries and
    T = {i not in S : d_i < s}, so prefix sums of the sorted row check
    them all in O(n log n). Its excess over the bound is at most
    (n - s)(s - d_min) - s(n - 1 - d_max), whose maximum over s is
    (d_min + d_max + 1)^2 / 4 - n d_min; when that is negative, as for
    most released sequences, no facet can fail and the prefix sums are
    skipped. At n = 2 the polytope is a segment without interior and
    only the single-vertex facets are checked. The log link's p may
    exceed 1, so the polytope does not bound it: it keeps only the check
    d_i > 0.
    """
    B, n = S.shape
    d_min, d_max = S[:, 0], S[:, -1]
    reasons: list[Optional[str]] = [None] * B
    for r in np.flatnonzero(d_min <= 0).tolist():
        reasons[r] = "noisy degree at or below 0"
    if link == LinkKind.LOG:
        return reasons
    inside = d_min > 0
    for r in np.flatnonzero(inside & (d_max >= n - 1)).tolist():
        reasons[r] = "noisy degree at or above n-1"
    if n == 2:
        return reasons
    s = np.arange(1, n + 1)
    rest = n - s
    near = inside & (d_max < n - 1) & ((d_min + d_max + 1) ** 2 >= 4 * n * d_min)
    for r in np.flatnonzero(near).tolist():
        a = S[r]
        low = np.concatenate(([0.0], a.cumsum()))  # low[c]: sum of the c smallest
        c = np.minimum(a.searchsorted(s), rest)  # |T| for each s
        if (low[n] - low[rest] - low[c] >= s * (n - 1 - c)).any():
            reasons[r] = "noisy degrees on a degree-polytope facet or outside it"
    return reasons


def _prepare(link: LinkKind, D: np.ndarray, X0: Optional[np.ndarray]):
    """Screen, collapse and start a block of B sequences D (B, n), with
    their starts X0 (B, n) or None, in one pass over the block.

    One stable sort of each row, by d or by the pair (d, x0), groups the
    vertices into classes of equal keys. The sorted rows give the
    ``_screen`` reasons and each row's tolerance; a class's first vertex
    is the one at the head of its run, and classes are numbered in order
    of first occurrence, so untied input keeps its vertex order. Returns
    (reasons, systems): reasons[r] is row r's nonexistence reason or
    None, and systems holds, per class count k, (rows, u, m, b, tol,
    inverse) of the rows whose reason is None: their row indices (g,),
    distinct degrees, class sizes and starts (g, k), tolerances (g,) and
    the class of each vertex (g, n).
    """
    B, n = D.shape
    order = np.argsort(D, axis=1, kind="stable") if X0 is None else np.lexsort((X0, D))
    S = np.take_along_axis(D, order, axis=1)
    reasons = _screen(link, S)
    ok = np.array([r is None for r in reasons], dtype=bool)
    rows = np.flatnonzero(ok)
    if not ok.all():
        D, S, order = D[rows], S[rows], order[rows]
        X0 = None if X0 is None else X0[rows]
    g = rows.size
    # a class starts where the sorted key changes
    step = S[:, 1:] != S[:, :-1]
    if X0 is not None:
        Xs = np.take_along_axis(X0, order, axis=1)
        step |= Xs[:, 1:] != Xs[:, :-1]
        del Xs
    tol = _TOL * np.maximum(1.0, S[:, -1])  # d_min > 0, so max |d| = d_max
    del S
    # per sorted position, the head of its run, then its vertex (the
    # class's first: the sort is stable); scattered back, per vertex
    offset = (np.arange(g) * n)[:, None]
    head = np.zeros((g, n), dtype=np.intp)
    np.multiply(step, np.arange(1, n), out=head[:, 1:])
    np.maximum.accumulate(head, axis=1, out=head)
    head += offset
    np.take(order, head, out=head)
    first = np.empty_like(head)
    np.put_along_axis(first, order, head, axis=1)
    del order, head
    rep = first == np.arange(n)  # the first vertex of each class
    k = rep.sum(axis=1)
    # class number of each representative, then of each vertex
    number = np.cumsum(rep, axis=1)
    number += offset - 1
    first += offset
    inverse = np.take(number, first, out=first)
    del number
    m = np.bincount(inverse.ravel(), minlength=g * n).reshape(g, n)  # class sizes
    inverse -= offset
    u = D[rep]  # the distinct degrees, row after row
    b = _start(link, u, n) if X0 is None else X0[rep]
    lead = np.concatenate(([0], np.cumsum(k)))  # where each row's classes start in u
    systems = {}
    for kk in np.flatnonzero(np.bincount(k)).tolist():  # np.unique would load numpy.ma
        sel = np.flatnonzero(k == kk)
        at = lead[sel][:, None] + np.arange(kk)
        systems[kk] = (rows[sel], u[at], m[sel, :kk].astype(float), b[at], tol[sel],
                       inverse[sel])
    return reasons, systems


@lru_cache(maxsize=None)
def _chebyshev_grid(T: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The T Chebyshev points of the first kind x_j = cos(theta_j),
    theta_j = (j + 1/2) pi / T, their barycentric weights (-1)^j sin(theta_j)
    and the T x T cosine matrix C with C @ f the Chebyshev coefficients of
    the interpolant of values f at the points. Read-only and cached: a fit
    with k classes makes at most log2(k / _CHEB_NODES) grids."""
    theta = (np.arange(T) + 0.5) * (np.pi / T)
    w = np.sin(theta)
    w[1::2] *= -1.0
    C = np.cos(np.outer(np.arange(T), theta)) * (2.0 / T)
    C[0] *= 0.5
    x = np.cos(theta)
    for a in (x, w, C):
        a.setflags(write=False)
    return x, w, C


def _resolved(C: np.ndarray, f: np.ndarray) -> bool:
    """Whether the trailing Chebyshev coefficients of the values f are at
    rounding level (see _CHEB_TAIL)."""
    c = np.abs(C @ f)
    return bool(c[-_CHEB_TAIL_TERMS:].max() <= _CHEB_TAIL * c.max())


class _Dense:
    """Negated Jacobians J (g, k, k) of g systems, formed in the slope
    array that ``_evaluate`` returned, with their row sums v (g, k); the
    product and the diagonal are those of a lone system (g = 1)."""

    def __init__(self, J: np.ndarray, v: np.ndarray):
        self.J, self.v = J, v

    def take(self, keep: np.ndarray) -> "_Dense":
        return _Dense(self.J[keep], self.v[keep])

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.J[0] @ x

    def diagonal(self) -> np.ndarray:
        return self.J[0].diagonal()


class _Chebyshev:
    """Negated Jacobian of one system with k classes through a T-node grid:
    J x = v o x + B D B^T (m o x) - p'(2 beta) o x, with B the k x T
    barycentric basis at beta and D the T x T table of p' at the grid's
    pair sums, so a product costs O(kT) and no k x k array is formed."""

    def __init__(self, B: np.ndarray, D: np.ndarray, m: np.ndarray, v: np.ndarray,
                 d2: np.ndarray):
        self.B, self.D, self.m, self.v, self.d2 = B, D, m, v[None], d2
        self.shift = v - d2  # J = diag(shift) + B D B^T diag(m)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.shift * x + self.B @ (self.D @ (self.m * x @ self.B))

    def diagonal(self) -> np.ndarray:
        return self.v[0] + (self.m - 1.0) * self.d2


def _chebyshev(link: LinkKind, beta: np.ndarray, u: np.ndarray,
               m: np.ndarray) -> Optional[tuple[np.ndarray, _Chebyshev]]:
    """Residual G (1, k) and a ``_Chebyshev`` operator of one system at
    beta, or None when no grid small enough for k resolves the point.

    Every kernel of the moment system is a function of the pair sum, so
    on T Chebyshev nodes s_1..s_T of [min beta, max beta] a kernel f is
    f(beta_a + beta_b) ~ (B F B^T)_ab with F_rs = f(s_r + s_s): the tensor
    interpolant of degree T - 1, exact for every polynomial of degree
    T - 1 in the pair sum. Its values f(2 s_r) are Chebyshev samples of f
    on [2 min beta, 2 max beta], so T doubles from _CHEB_NODES until the
    coefficients of p and p' there have a tail at rounding level. Then

        G = u - (B P B^T m - p(2 beta)),  v = B D B^T m - p'(2 beta)

    with P and D the tables of p and p'. Returns None, for ``_evaluate``
    to take the point, when T would exceed k / _CHEB_RATIO, a sample is
    not finite (an overflowing log link) or G or v is not.
    """
    k = beta.size
    lo, hi = float(beta.min()), float(beta.max())
    T = _CHEB_NODES
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        while True:
            if _CHEB_RATIO * T > k:
                return None
            x, w, C = _chebyshev_grid(T)
            s = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
            P, D = link_values(link, 2.0 * s, np.empty(T))
            if not (np.isfinite(P).all() and np.isfinite(D).all()):
                return None
            if _resolved(C, P) and _resolved(C, D):
                break
            T *= 2
        X = np.add.outer(s, s)
        P, D = link_values(link, X, np.empty_like(X))
        # B_ar = (w_r / (beta_a - s_r)) / sum_r w_r / (beta_a - s_r), and
        # e_r when beta_a is node r (then the sum is not finite)
        B = np.subtract.outer(beta, s)
        np.divide(w, B, out=B)
        den = B.sum(axis=1)
        B /= den[:, None]
        on_node = np.flatnonzero(~np.isfinite(den))
        if on_node.size:
            B[on_node] = 0.0
            B[on_node, np.abs(beta[on_node, None] - s).argmin(axis=1)] = 1.0
        p2, d2 = link_values(link, 2.0 * beta, np.empty(k))
        Bm = m @ B
        G = u - (B @ (P @ Bm) - p2)
        v = B @ (D @ Bm) - d2
        if not (np.isfinite(G).all() and np.isfinite(v).all()):
            return None
    return G[None], _Chebyshev(B, D, m, v, d2)


def _cg_step(matvec, diag: np.ndarray, F: np.ndarray, m: np.ndarray) -> Optional[np.ndarray]:
    """Newton step x with J x = F by Jacobi-preconditioned conjugate gradients.

    matvec is x -> J x for one collapsed system's negated Jacobian J
    (k, k), diag the diagonal of diag(m) J, F the system's residual and m
    its class sizes. CG runs on diag(m) J x = m o F, which is symmetric
    positive definite (see the module docstring). Returns None when a
    diagonal entry is not positive and finite, on a breakdown, or when
    the residual has not reached _CG_RTOL * ||m o F||_2 within
    min(k, _CG_MAX_ITER) iterations; the caller then factors J.
    """
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
            q = matvec(p)
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
            tol: np.ndarray, inverse: np.ndarray) -> list[EstimateResult]:
    """Damped Newton on a stack of g collapsed systems with k classes each.

    u, m and b (g, k) hold each member's distinct degrees, class sizes and
    start, tol (g,) its absolute tolerance and inverse (g, n) the class of
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
    fit at once and flags it, and a flagged row takes no part in damping.
    Rows still running after _MAX_ITER steps stop at the iteration limit.

    Each point gives the residual F and an operator with the row sums v,
    a product x -> J x and the diagonal of J. A stack's operator is
    ``_Dense``, J formed in place in the slope array of ``_evaluate``
    (``dense``). A member with k >= 91 runs alone (see ``solve_many``),
    evaluates each point by ``_chebyshev`` where a grid of at most k / 3
    nodes resolves it, and densely elsewhere, and takes its steps by
    ``_cg_step``. The test is on k, not on how many rows are still
    running, so that a member's steps do not depend on its stack. An LU
    step factors the dense J, which a grid point evaluates densely for
    it. The operator of an accepted point is dropped once the step is
    taken, so a damping trial holds only its own slope array and scratch.
    A stack whose rows were accepted at different damping trials is
    evaluated again at the top of the next iteration; ``_evaluate`` is
    row-independent, so each row gets the bits of its accepted trial.
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

    def dense(b: np.ndarray, u: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, _Dense]:
        F, J, v = _evaluate(link, b, u, m)
        np.einsum("...ii->...i", J)[...] += v
        return F, _Dense(J, v)

    def evaluate(b: np.ndarray, u: np.ndarray, m: np.ndarray):
        point = _chebyshev(link, b[0], u[0], m[0]) if alone else None
        return dense(b, u, m) if point is None else point

    op = None
    for it in range(_MAX_ITER + 1):
        if op is None and not failed.all():  # the start, or a stack accepted in parts
            F, op = evaluate(b, u, m)
            res = np.max(np.abs(F), axis=1)
        done = res <= tol  # never a failed row: it keeps the residual it failed at
        if done.any():
            for j, r, bj, vj in zip(rows[done].tolist(), res[done].tolist(), b[done],
                                    op.v[done]):
                fits[j] = EstimateResult(bj[inverse[j]], vj[inverse[j]], it, r, True)
        keep = ~(done | failed)
        if not keep.all():
            rows, u, m, b, tol, F, res, failed = (
                x[keep] for x in (rows, u, m, b, tol, F, res, failed))
            # a lone fit stays whole or leaves; op is None once every row failed
            op = op.take(keep) if keep.any() else None
        if it == _MAX_ITER or not rows.size:
            break
        step = _cg_step(op.matvec, op.diagonal() * m[0], F[0], m[0]) if alone else None
        if step is not None:
            step = step[None]
        else:
            J = op.J if isinstance(op, _Dense) else dense(b, u, m)[1].J
            try:
                step = np.linalg.solve(J, F[..., None])[..., 0]
            except np.linalg.LinAlgError:
                # find the singular members one by one; the rest keep their steps
                step = np.empty_like(F)
                for r in range(rows.size):
                    try:
                        step[r] = np.linalg.solve(J[r:r + 1], F[r:r + 1, :, None])[0, :, 0]
                    except np.linalg.LinAlgError:
                        failed[r] = True
            del J
        op = None
        stop(failed, it, "singular Jacobian")
        stop(~failed & ~np.all(np.isfinite(step), axis=1), it, "non-finite Newton step")

        # damping: halve until the sup-norm residual strictly decreases;
        # the rows still trying have all been halved alike and evaluate
        # together; a trial accepted whole gives the next operator
        trying = np.flatnonzero(~failed)
        scale = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            if not trying.size:
                break
            whole = trying.size == rows.size
            t = slice(None) if whole else trying
            b_try = b[t] + scale * step[t]
            F_try, op_try = evaluate(b_try, u[t], m[t])
            res_try = np.max(np.abs(F_try), axis=1)
            ok = np.isfinite(res_try) & (res_try < res[t])
            if whole and ok.all():
                b, F, res, op = b_try, F_try, res_try, op_try
            elif ok.any():  # only a stack: a lone row is accepted whole
                b[trying[ok]] = b_try[ok]
            del F_try, op_try  # so that op = None frees an accepted J after its step
            trying = trying[~ok]
            scale *= 0.5
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
    (wrong lengths, n < 2, non-finite degrees or start) do raise. x0
    overrides the default starting point.

    Newton runs on the collapsed system over distinct released degrees
    (see the module docstring); iterations, residuals and diagnostics are
    those of the full system, whose residual has the same entries. This
    is ``solve_many`` of a block of one row.
    """
    D = np.asarray(dtilde, dtype=float).reshape(1, -1)
    return solve_many(link, D, None if x0 is None else np.reshape(x0, (1, -1)))[0]


def solve_many(link: LinkKind, D: np.ndarray,
               X0: Optional[np.ndarray] = None) -> list[EstimateResult]:
    """``solve`` of each row of a block D (B, n) of noisy degree sequences,
    from the starts X0 (B, n), or ``initial_point`` of each row when X0 is
    None; returns the B results in row order.

    ``_prepare`` screens, collapses and starts the block in one pass. Fits
    whose collapsed systems have the same number of classes k run stacked
    in one Newton loop (see ``_newton``), max(1, _ELEMENT_BUDGET // k^2)
    fits to a stack, in row order. Each result is the one ``solve`` gives
    for its row alone, bit for bit.
    """
    D = np.asarray(D, dtype=float)
    if D.ndim != 2:
        raise ValueError(f"noisy degrees must be a 2-d array (B, n), got {D.ndim}-d")
    if D.shape[1] < 2:
        raise ValueError(f"need at least 2 vertices, got {D.shape[1]}")
    if not np.all(np.isfinite(D)):
        raise ValueError("noisy degrees must be finite")
    if X0 is not None:
        X0 = np.asarray(X0, dtype=float)
        if X0.shape != D.shape:
            raise ValueError(f"starts of shape {X0.shape} for degrees of shape {D.shape}")
        if not np.all(np.isfinite(X0)):
            raise ValueError("starts must be finite")
    reasons, systems = _prepare(link, D, X0)
    fits = [None if reason is None else
            EstimateResult(None, None, 0, float("inf"), False, reason) for reason in reasons]
    for k, (rows, u, m, b, tol, inverse) in systems.items():
        size = max(1, _ELEMENT_BUDGET // (k * k))
        for lo in range(0, rows.size, size):
            at = slice(lo, lo + size)
            fits_at = _newton(link, u[at], m[at], b[at], tol[at], inverse[at])
            for r, fit in zip(rows[at].tolist(), fits_at):
                fits[r] = fit
    return fits


def _require(result: EstimateResult, idx) -> None:
    """An existing fit, and every coordinate index in idx within 0..n-1."""
    if not result.exists or result.alpha_hat is None:
        raise NonexistentEstimateError(result.reason or "estimate does not exist")
    k, n = np.asarray(idx), result.alpha_hat.size
    if k.size and not (0 <= k.min() and k.max() < n):
        raise ValueError(f"coordinate index {idx!r} is outside 0..{n - 1}")


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
    _require(result, i if j is None else [i, j])
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
    _require(result, [i, j])
    if i == j:
        raise ValueError("pair statistic needs two distinct coordinates")
    t = np.asarray(truth, dtype=float).reshape(-1)
    a, v = result.alpha_hat, result.v_hat
    if t.size != a.size:
        raise ValueError(f"truth has {t.size} entries, the fit {a.size}")
    num = (a[i] + a[j]) - (t[i] + t[j])
    return float(num / np.sqrt(1.0 / v[i] + 1.0 / v[j]))
