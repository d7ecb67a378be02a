import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import engine_reference
from privdeg import estimator
from privdeg.estimator import (NonexistentEstimateError, _evaluate, _screen,
                               approx_inverse_s,
                               confidence_interval, initial_point, jacobian,
                               moment_residual, normal_quantile, solve,
                               solve_many, xi_statistic)
from privdeg.links import (EdgeSampler, LinkKind, degrees, edge_prob,
                           expected_degrees, link_values, pair_sum_matrix,
                           sample_graph)
from privdeg.noise import ContinuousLaplace, TwoSideHermite, sample

LINKS = [LinkKind.LOG, LinkKind.LOGIT, LinkKind.CLOGLOG]


def rand_alpha(rng, link, n):
    if link == LinkKind.LOG:
        a = rng.uniform(-1.5, -0.2, n)
    else:
        a = rng.uniform(-1.0, 1.0, n)
    return a


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------

def test_residual_exact_root():
    F = moment_residual(LinkKind.LOGIT, np.zeros(3), np.ones(3))
    assert F == pytest.approx([0, 0, 0], abs=1e-15)


def test_residual_reference_value():
    F = moment_residual(LinkKind.LOG, -np.ones(4), np.zeros(4))
    assert F == pytest.approx([-3 * math.exp(-2)] * 4, abs=1e-15)


def test_residual_against_extended_precision_sum():
    rng = np.random.default_rng(0)
    for link in LINKS:
        a = rand_alpha(rng, link, 6)
        d = rng.uniform(0.5, 4.5, 6)
        got = moment_residual(link, a, d)
        for i in range(6):
            acc = np.longdouble(d[i])
            for j in range(6):
                if j == i:
                    continue
                x = np.longdouble(a[i]) + np.longdouble(a[j])
                if link == LinkKind.LOG:
                    acc -= np.exp(x)
                elif link == LinkKind.LOGIT:
                    acc -= 1 / (1 + np.exp(-x))
                else:
                    acc -= -np.expm1(-np.exp(x))
            assert abs(got[i] - float(acc)) < 1e-12


def test_residual_overflowing_self_pair_stays_finite():
    # exp(2 * 400) overflows, but alpha_0 + alpha_0 is not a pair of the system
    with np.errstate(over="ignore"):
        F = moment_residual(LinkKind.LOG, np.array([400.0, 0.0, 0.0]), np.ones(3))
    assert np.all(np.isfinite(F))


def test_log_trial_point_overflow_is_silent():
    # a damped-Newton trial point whose pair sums overflow exp: the residual
    # is infinite, damping rejects the point, and no warning is raised
    d = np.array([3.486, 3.486, 2.826, 2.826, 2.826])
    x0 = np.array([-1.870, 0.124, -6.975, -0.656, -3.738])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = solve(LinkKind.LOG, d, x0=x0)
    assert res.exists
    assert np.max(np.abs(moment_residual(LinkKind.LOG, res.alpha_hat, d))) <= 1e-8 * 3.486


def test_collapsed_residual_matches_full_system():
    rng = np.random.default_rng(9)
    counts = np.array([3, 1, 2])
    for link in LINKS:
        beta = rand_alpha(rng, link, 3)
        u = rng.uniform(0.5, 4.5, 3)
        full = moment_residual(link, np.repeat(beta, counts), np.repeat(u, counts))
        collapsed = _evaluate(link, beta[None], u[None], counts[None].astype(float))[0][0]
        assert np.max(np.abs(np.repeat(collapsed, counts) - full)) < 1e-13


def test_residual_length_mismatch():
    with pytest.raises(ValueError):
        moment_residual(LinkKind.LOGIT, np.zeros(3), np.ones(4))


# ---------------------------------------------------------------------------
# jacobian
# ---------------------------------------------------------------------------

def test_jacobian_reference():
    jac = jacobian(LinkKind.LOGIT, np.zeros(3))
    V = jac.matrix
    off = V[~np.eye(3, dtype=bool)]
    assert off == pytest.approx([0.25] * 6, abs=1e-15)
    assert np.diag(V) == pytest.approx([0.5] * 3, abs=1e-15)
    assert jac.m == pytest.approx(0.25)
    assert jac.M == pytest.approx(0.25)


def test_jacobian_peaks_at_one_matrix_with_the_reference_bits():
    # the off-diagonal range needs no k x k mask or copy of the entries
    k = 2000
    a = np.linspace(-1.0, 1.0, k)
    tracemalloc.start()
    try:
        jac = jacobian(LinkKind.LOGIT, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * 8 * k * k
    ref = engine_reference.jacobian(LinkKind.LOGIT, a)
    assert np.array_equal(jac.matrix, ref.matrix)
    assert (jac.m, jac.M) == (ref.m, ref.M)
    with pytest.raises(ValueError, match="at least 2"):
        jacobian(LinkKind.LOGIT, np.zeros(1))


def test_jacobian_diagonal_balance_is_exact():
    rng = np.random.default_rng(1)
    for link in LINKS:
        for n in (3, 10, 40):
            V = jacobian(link, rand_alpha(rng, link, n)).matrix
            off = V.copy()
            np.fill_diagonal(off, 0.0)
            assert np.array_equal(np.diag(V), off.sum(axis=1))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=12))
def test_jacobian_balance_property(alpha):
    V = jacobian(LinkKind.LOGIT, np.array(alpha)).matrix
    off = V.copy()
    np.fill_diagonal(off, 0.0)
    assert np.array_equal(np.diag(V), off.sum(axis=1))


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(2)
    h = 1e-6
    for link in LINKS:
        a = rand_alpha(rng, link, 7)
        d = np.zeros(7)
        V = jacobian(link, a).matrix
        for j in range(7):
            ap, am = a.copy(), a.copy()
            ap[j] += h
            am[j] -= h
            fd = (moment_residual(link, ap, d) - moment_residual(link, am, d)) / (2 * h)
            # V = -dF/dalpha
            assert np.max(np.abs(-fd - V[:, j])) < 1e-6 * max(1.0, np.max(np.abs(V)))


# ---------------------------------------------------------------------------
# diagonal approximate inverse
# ---------------------------------------------------------------------------

def test_approx_inverse_diagonal():
    V = np.full((3, 3), 1.0)
    np.fill_diagonal(V, 2.0)
    S = approx_inverse_s(V)
    assert np.array_equal(S, 0.5 * np.eye(3))


def test_approx_inverse_rejects_zero_diagonal():
    with pytest.raises(np.linalg.LinAlgError):
        approx_inverse_s(np.zeros((2, 2)))


def _inv3_closed_form(V):
    # explicit adjugate over determinant for a 3x3 matrix
    a, b, c = V[0]
    d, e, f = V[1]
    g, h, i = V[2]
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    adj = np.array([
        [e * i - f * h, c * h - b * i, b * f - c * e],
        [f * g - d * i, a * i - c * g, c * d - a * f],
        [d * h - e * g, b * g - a * h, a * e - b * d],
    ])
    return adj / det


def test_approx_inverse_error_against_3x3_closed_form():
    rng = np.random.default_rng(3)
    a = rng.uniform(-0.8, 0.8, 3)
    jac = jacobian(LinkKind.LOGIT, a)
    Vinv = _inv3_closed_form(jac.matrix)
    S = approx_inverse_s(jac)
    err = np.max(np.abs(Vinv - S))
    assert np.max(np.abs(Vinv @ jac.matrix - np.eye(3))) < 1e-12
    assert 0 < err < np.max(np.abs(Vinv))


def test_approx_inverse_error_decay_rate():
    errs = []
    ns = [20, 40, 80, 160]
    for n in ns:
        jac = jacobian(LinkKind.LOGIT, np.zeros(n))
        err = np.max(np.abs(np.linalg.inv(jac.matrix) - approx_inverse_s(jac)))
        errs.append(err)
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert abs(slope + 2.0) < 0.3


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_exact_root_exchangeable():
    res = solve(LinkKind.LOGIT, np.array([1.0, 1.0, 1.0]))
    assert res.exists
    assert res.alpha_hat == pytest.approx([0, 0, 0], abs=1e-12)
    assert res.v_hat == pytest.approx([0.5] * 3, abs=1e-12)


def test_solve_root_property_random():
    rng = np.random.default_rng(4)
    for link in LINKS:
        for n in (5, 20, 60):
            truth = rand_alpha(rng, link, n)
            d = expected_degrees(link, truth) + rng.uniform(-0.1, 0.1, n)
            res = solve(link, d)
            assert res.exists, res.reason
            tol = 1e-8 * max(1.0, np.max(np.abs(d)))
            assert res.residual_inf <= tol
            assert np.max(np.abs(moment_residual(link, res.alpha_hat, d))) <= tol
            assert np.allclose(res.v_hat,
                               np.diag(jacobian(link, res.alpha_hat).matrix))


def test_solve_recovers_truth_from_expected_degrees():
    rng = np.random.default_rng(5)
    for link in LINKS:
        truth = rand_alpha(rng, link, 12)
        d = expected_degrees(link, truth)
        res = solve(link, d)
        assert res.exists
        assert np.max(np.abs(res.alpha_hat - truth)) < 1e-6


def test_newton_locality_from_truth():
    rng = np.random.default_rng(6)
    truth = rand_alpha(rng, LinkKind.LOGIT, 15)
    d = expected_degrees(LinkKind.LOGIT, truth)
    res = solve(LinkKind.LOGIT, d, x0=truth)
    assert res.exists and res.iterations <= 2
    assert res.residual_inf < 1e-10


def test_solve_permutation_equivariance():
    rng = np.random.default_rng(7)
    d = rng.uniform(1.0, 8.0, 12)
    perm = rng.permutation(12)
    base = solve(LinkKind.LOGIT, d)
    permuted = solve(LinkKind.LOGIT, d[perm])
    assert base.exists and permuted.exists
    assert np.allclose(permuted.alpha_hat, base.alpha_hat[perm], atol=1e-8)


def test_solve_nonexistence_rules():
    # zero degree rejected for every link
    for link in LINKS:
        res = solve(link, np.array([0.0, 2.0, 2.0, 2.0]))
        assert not res.exists and res.alpha_hat is None
        assert "0" in res.reason
    # saturated degree rejected for logit and cloglog only
    d = np.array([3.0, 2.0, 2.0, 1.0])
    for link in (LinkKind.LOGIT, LinkKind.CLOGLOG):
        assert not solve(link, d).exists
    assert solve(LinkKind.LOG, d).exists


FACET = "noisy degrees on a degree-polytope facet or outside it"


def test_boundary_sequence_inside_the_simple_checks_does_not_exist():
    # the 4-path's degrees lie on the facet S = {3, 4}, T = {1, 2}; without
    # the facet check Newton stops at alpha = +-9.18 once the residual
    # falls under tol
    for link in (LinkKind.LOGIT, LinkKind.CLOGLOG):
        res = solve(link, np.array([1.0, 1.0, 2.0, 2.0]))
        assert (res.exists, res.reason, res.iterations) == (False, FACET, 0)
        assert solve(link, np.array([1.0, 1.1, 2.0, 2.0])).exists
    # the log link keeps its single check d_i > 0
    assert solve(LinkKind.LOG, np.array([1.0, 1.0, 2.0, 2.0])).reason is None


def min_facet_slack(d: np.ndarray) -> float:
    """min over disjoint S, T, not both empty, of
    |S| (n - 1 - |T|) - sum_S d_i + sum_T d_i, by enumeration."""
    n = d.size
    best = math.inf
    for labels in itertools.product((0, 1, 2), repeat=n):  # 1: in S, 2: in T
        if any(labels):
            S, T = (np.array(labels) == 1), (np.array(labels) == 2)
            best = min(best, S.sum() * (n - 1 - T.sum()) - d[S].sum() + d[T].sum())
    return best


@st.composite
def half_integer_degrees(draw):
    n = draw(st.integers(3, 7))
    return np.array(draw(st.lists(st.integers(1, 2 * n - 3), min_size=n, max_size=n)),
                    dtype=float) / 2.0


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([LinkKind.LOGIT, LinkKind.CLOGLOG]), half_integer_degrees())
def test_degrees_off_the_open_polytope_do_not_exist(link, d):
    # half-integer degrees in (0, n - 1) keep every slack exact
    slack = min_facet_slack(d)
    reason = _screen(link, np.sort(d)[None])[0]
    assert (reason is not None) == (slack <= 0)
    assert reason == engine_reference._nonexistence_reason(link, d)
    if slack <= 0:
        assert not solve(link, d).exists


def test_solve_nonexistence_is_not_an_error():
    res = solve(LinkKind.LOGIT, np.array([-1.0, 1.0, 1.0]))
    assert not res.exists
    with pytest.raises(NonexistentEstimateError):
        confidence_interval(res, 0, 1)
    with pytest.raises(NonexistentEstimateError):
        xi_statistic(res, np.zeros(3), 0, 1)


def test_solve_structural_errors_do_raise():
    with pytest.raises(ValueError):
        solve(LinkKind.LOGIT, np.array([1.0]))
    with pytest.raises(ValueError):
        solve(LinkKind.LOGIT, np.array([1.0, np.inf, 1.0]))
    d = np.array([1.0, 1.5, 1.2, 2.0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="starts must be finite"):
            solve(LinkKind.LOGIT, d, x0=[bad] * 4)
        X0 = np.zeros((2, 4))
        X0[1, 2] = bad
        with pytest.raises(ValueError, match="starts must be finite"):
            solve_many(LinkKind.LOGIT, np.array([d, d]), X0)


def test_initial_point_needs_two_vertices():
    with pytest.raises(ValueError, match="need at least 2 vertices, got 1"):
        initial_point(LinkKind.LOGIT, [1.0])
    with pytest.raises(ValueError, match="need at least 2 vertices, got 0"):
        initial_point(LinkKind.LOG, [])


def test_log_fit_reports_pair_sum_diagnostic():
    # a release sequence whose fit strays beyond the probability domain
    d = np.array([26.0, 17.0, 16.0, 15.0, 5.0, 3.0, 2.0, 1.0, 6.0, 9.0])
    res = solve(LinkKind.LOG, d)
    assert res.exists
    assert res.max_abs_pair_sum is not None and res.max_abs_pair_sum > 0


def dense_newton(link, d):
    """Reference: damped Newton on the full n x n system, no grouping,
    after the same existence checks as ``solve``."""
    if engine_reference._nonexistence_reason(link, d) is not None:
        return None
    tol = estimator._TOL * max(1.0, np.max(np.abs(d)))
    a = initial_point(link, d)
    F = moment_residual(link, a, d)
    res = np.max(np.abs(F))
    for it in range(estimator._MAX_ITER + 1):
        V = jacobian(link, a).matrix
        if res <= tol:
            return a, np.diag(V), it
        if it == estimator._MAX_ITER:
            return None
        try:
            step = np.linalg.solve(V, F)
        except np.linalg.LinAlgError:
            return None
        scale = 1.0
        for _ in range(estimator._MAX_HALVINGS + 1):
            a_try = a + scale * step
            F_try = moment_residual(link, a_try, d)
            if np.max(np.abs(F_try)) < res:
                a, F, res = a_try, F_try, np.max(np.abs(F_try))
                break
            scale *= 0.5
        else:
            return None


def rounding_bound(link, alpha):
    """Agreement bound for two solves that differ only in rounding.

    cond(V) amplifies rounding differences; it is large near the boundary
    of the degree polytope, where the root drifts off to infinity.
    """
    return max(1e-12, 1e-15 * np.linalg.cond(jacobian(link, alpha).matrix))


@st.composite
def tied_degrees(draw):
    n = draw(st.integers(4, 40))
    pool = draw(st.lists(st.integers(1, n - 2), min_size=1, max_size=4))
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)),
                    dtype=float)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(LINKS), tied_degrees())
def test_tied_solve_matches_dense_newton(link, d):
    res = solve(link, d)
    ref = dense_newton(link, d)
    assert res.exists == (ref is not None)
    if ref is None:
        return
    alpha, v, iterations = ref
    bound = rounding_bound(link, alpha)
    assert np.max(np.abs(res.alpha_hat - alpha)) <= bound
    assert np.max(np.abs(res.v_hat / v - 1.0)) <= bound
    assert res.iterations == iterations
    for value in np.unique(d):
        assert np.unique(res.alpha_hat[d == value]).size == 1


@st.composite
def untied_degrees_and_permutation(draw):
    n = draw(st.integers(3, 30))
    d = draw(st.lists(st.floats(0.5, n - 1.5), min_size=n, max_size=n, unique=True))
    return np.array(d), np.array(draw(st.permutations(range(n))))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(LINKS), untied_degrees_and_permutation())
def test_untied_solve_is_permutation_equivariant(link, case):
    d, perm = case
    base = solve(link, d)
    permuted = solve(link, d[perm])
    assert base.exists == permuted.exists
    if base.exists:
        assert (np.max(np.abs(permuted.alpha_hat - base.alpha_hat[perm]))
                <= rounding_bound(link, base.alpha_hat))
        assert base.iterations == permuted.iterations


# ---------------------------------------------------------------------------
# one link evaluation per Newton point: bitwise parity with the separate
# p and p' evaluators of tests/engine_reference.py
# ---------------------------------------------------------------------------

def _evaluation_cases():
    rng = np.random.default_rng(31)
    for link in LINKS:
        for scale in (0.5, 5.0, 800.0):      # 800: exp overflow and the clip
            for tied in (False, True):
                k = 12
                beta = rng.normal(0.0, scale, k)
                beta[3], beta[7] = 0.0, -0.0
                if link == LinkKind.LOG and scale < 800.0:
                    beta = -np.abs(beta) - 0.1
                m = rng.integers(1, 4, k).astype(float) if tied else np.ones(k)
                yield link, beta, m


@pytest.mark.parametrize("link,beta,m", list(_evaluation_cases()))
def test_fused_evaluator_matches_separate_evaluators(link, beta, m):
    u = np.linspace(1.0, 9.0, beta.size)
    with np.errstate(over="ignore", invalid="ignore"):
        F, D, v = (A[0] for A in _evaluate(link, beta[None], u[None], m[None]))
        P = engine_reference._weighted(engine_reference._pm_extended, link, beta, m)
        assert np.array_equal(D, engine_reference.weighted_slope(link, beta, m),
                              equal_nan=True)
        assert np.array_equal(v, D.sum(axis=1), equal_nan=True)
        assert np.array_equal(F, u - P.sum(axis=1), equal_nan=True)
        assert np.array_equal(F, engine_reference.moment_residual(link, beta, u, m),
                              equal_nan=True)
        if not np.all(m == 1):
            return
        jac, ref = jacobian(link, beta), engine_reference.jacobian(link, beta)
        assert np.array_equal(jac.matrix, ref.matrix, equal_nan=True)
        off = ~np.eye(beta.size, dtype=bool)
        assert np.array_equal(jac.matrix[off], D[off], equal_nan=True)
        assert (jac.m, jac.M) == (ref.m, ref.M) or np.isnan(ref.m)


@pytest.mark.parametrize("link,beta", [case[:2] for case in _evaluation_cases()])
def test_link_values_write_into_the_callers_arrays(link, beta):
    X = pair_sum_matrix(beta)
    with np.errstate(over="ignore", invalid="ignore"):
        p = engine_reference._pm_extended(link, X)
        dp = engine_reference._dpm_extended(link, X)
        Y = np.full_like(X, np.nan)
        P, D = link_values(link, X, out=Y)
    # p is written into X and p' into the caller's array Y
    assert np.shares_memory(P, X) and np.shares_memory(D, Y)
    assert np.array_equal(P, p, equal_nan=True)
    assert np.array_equal(D, dp, equal_nan=True)


@pytest.mark.parametrize("link", LINKS)
def test_solve_matches_two_evaluation_solve_bitwise(link):
    rng = np.random.default_rng(77)
    L = {LinkKind.LOG: -1.5, LinkKind.LOGIT: 0.8, LinkKind.CLOGLOG: 0.4}[link]
    for trial in range(60):
        n = int(rng.integers(2, 60))
        d = degrees(sample_graph(link, np.arange(1, n + 1) * L / n, rng)).astype(float)
        if trial % 3 == 0:
            d = d + rng.normal(0.0, 1.0, n)          # untied
        elif trial % 3 == 1:
            d = d + rng.integers(-2, 3, n)           # tied
        x0 = rng.normal(0.0, 1.0, n) if trial % 10 == 0 else None
        assert_same_fit(solve(link, d, x0=x0), engine_reference.solve(link, d, x0=x0))


def assert_same_fit(got, want):
    """Two fits agree bit for bit (a NaN residual matches a NaN)."""
    assert (got.exists, got.iterations, got.reason) == \
        (want.exists, want.iterations, want.reason)
    assert got.residual_inf == want.residual_inf or np.isnan(want.residual_inf)
    if want.exists:
        assert np.array_equal(got.alpha_hat, want.alpha_hat)
        assert np.array_equal(got.v_hat, want.v_hat)
        assert got.max_abs_pair_sum == want.kxk_max_abs_pair_sum


def _two_class_fits(n_random: int = 48):
    """Degree sequences of five vertices in two classes (k = 2), with and
    without starts, and three that cannot converge: two boundary degrees
    and a start at which the logit and cloglog Jacobians are singular."""
    rng = np.random.default_rng(5)
    ds, x0s = [], []
    for t in range(n_random):
        ds.append(np.repeat(rng.uniform(0.2, 3.8, 2), [2, 3]))
        x0s.append(rng.normal(0.0, 3.0, 5) if t % 2 else None)
    ds += [np.array([0.0, 0.0, 2.0, 2.0, 2.0]), np.array([1.0, 1.0, 4.0, 4.0, 4.0]),
           np.array([1.0, 1.0, 2.0, 2.0, 2.0])]
    return ds, x0s + [None, None, np.full(5, 40.0)]


def _starts(link, ds, x0s) -> np.ndarray:
    """The starts of a block: each row's x0, or its ``initial_point`` when
    x0 is None, which gives the row the classes and start bits it has
    without one."""
    return np.array([initial_point(link, d) if x0 is None else x0
                     for d, x0 in zip(ds, x0s)])


def _rejected_trials(monkeypatch, link, d, x0) -> int:
    """Damping trials that a lone converged fit rejected (0 if it failed)."""
    calls = []
    evaluate = estimator._evaluate
    with monkeypatch.context() as mp:
        mp.setattr(estimator, "_evaluate",
                   lambda *a: calls.append(1) or evaluate(*a))
        res = solve(link, d, x0=x0)
    return len(calls) - 1 - res.iterations if res.exists else 0


@pytest.mark.parametrize("budget", [estimator._ELEMENT_BUDGET, 12])
@pytest.mark.parametrize("max_iter", [estimator._MAX_ITER, 3])
@pytest.mark.parametrize("link", LINKS)
def test_stacked_fits_match_lone_reference_fits_bitwise(link, max_iter, budget,
                                                        monkeypatch):
    # every k = 2 member shares one stack (three per stack at budget 12)
    ds, x0s = _two_class_fits()
    monkeypatch.setattr(estimator, "_MAX_ITER", max_iter)
    with monkeypatch.context() as mp:
        mp.setattr(estimator, "_ELEMENT_BUDGET", budget)
        # at budget 12 the fits split into five classes by their starts run
        # alone, and so would take CG steps; the reference takes LU steps
        mp.setattr(estimator, "_CG_MAX_ITER", 0)
        got = solve_many(link, np.array(ds), _starts(link, ds, x0s))
    want = [engine_reference.solve(link, d, x0=x0) for d, x0 in zip(ds, x0s)]
    for g, w in zip(got, want):
        assert_same_fit(g, w)
    # the stack mixes the ways a member can leave it
    reasons = {w.reason for w in want}
    assert {None, "noisy degree at or below 0"} <= reasons
    if link != LinkKind.LOG:
        assert "noisy degree at or above n-1" in reasons
    if max_iter == 3:
        assert "iteration limit reached" in reasons
        return
    assert len({w.iterations for w in want if w.exists}) >= 4
    assert any(_rejected_trials(monkeypatch, link, d, x0) > 0
               for d, x0 in zip(ds, x0s))
    if link != LinkKind.LOG:
        assert {"singular Jacobian", "step stalled (no residual decrease)"} <= reasons
    if link == LinkKind.CLOGLOG:
        assert got[-1].reason == "singular Jacobian"


@pytest.mark.parametrize("link", LINKS)
def test_stacked_sampled_fits_match_lone_reference_fits_bitwise(link):
    # many same-k members from sampled graphs with tied and untied noise
    rng = np.random.default_rng(31)
    L = {LinkKind.LOG: -1.5, LinkKind.LOGIT: 0.8, LinkKind.CLOGLOG: 0.4}[link]
    for n in (12, 30):
        sampler = EdgeSampler(link, np.arange(1, n + 1) * L / n)
        D = np.empty((60, n))
        for t in range(60):
            noise = rng.integers(-2, 3, n) if t % 2 else rng.normal(0.0, 1.0, n)
            D[t] = sampler.degrees(rng) + noise
        for got, d in zip(solve_many(link, D), D):
            assert_same_fit(got, engine_reference.solve(link, d))


def _mixed_exit_fits():
    """k = 2 members whose starts, from near 0 to +-400, make them converge,
    stall, hit a singular Jacobian or take a non-finite Newton step."""
    rng = np.random.default_rng(11)
    ds, x0s = [], []
    for _ in range(4):
        for s in (0.0, -10.0, 10.0, -355.0, 355.0, -400.0):
            ds.append(np.repeat(rng.uniform(1.0, 3.0, 2), [2, 3]))
            x0s.append(np.repeat(s + rng.normal(0.0, 1.0, 2), [2, 3]))
    return ds, x0s


@pytest.mark.parametrize("budget", [estimator._ELEMENT_BUDGET, 12])
@pytest.mark.parametrize("link", LINKS)
def test_stacked_members_leaving_by_every_exit_match_lone_reference_fits(link, budget,
                                                                        monkeypatch):
    # at budget 12 each stack holds three members; at 2^14 all share one
    ds, x0s = _mixed_exit_fits()
    monkeypatch.setattr(estimator, "_ELEMENT_BUDGET", budget)
    got = solve_many(link, np.array(ds), np.array(x0s))
    with np.errstate(over="ignore"):  # the reference's exp overflows at the far starts
        want = [engine_reference.solve(link, d, x0=x0) for d, x0 in zip(ds, x0s)]
    for g, w in zip(got, want):
        assert_same_fit(g, w)
    assert {None, "singular Jacobian", "non-finite Newton step",
            "step stalled (no residual decrease)"} <= {w.reason for w in want}
    # a member with a non-finite step shares a stack of three with other exits
    newton = [w.reason for d, w in zip(ds, want)
              if engine_reference._nonexistence_reason(link, d) is None]
    assert any("non-finite Newton step" in newton[i:i + 3] and len(set(newton[i:i + 3])) > 1
               for i in range(0, len(newton), 3))


def test_solve_many_validates_each_sequence():
    # one (B, n) block in, a list of B results out
    block = np.array([[1.0, 1.5, 1.2], [1.1, 1.4, 1.2]])
    with pytest.raises(ValueError, match="2-d array"):
        solve_many(LinkKind.LOGIT, block[0])
    with pytest.raises(ValueError):  # a ragged list is no block
        solve_many(LinkKind.LOGIT, [np.array([1.0, 2.0, 1.0]), np.array([1.0, 1.5])])
    with pytest.raises(ValueError, match="finite"):
        solve_many(LinkKind.LOGIT, [[1.0, 2.0, 1.0], [1.0, np.nan, 1.0]])
    with pytest.raises(ValueError, match="need at least 2 vertices"):
        solve_many(LinkKind.LOGIT, np.ones((2, 1)))
    for X0 in (np.zeros(3), np.zeros((2, 2)), np.zeros((1, 3))):
        with pytest.raises(ValueError, match="shape"):
            solve_many(LinkKind.LOGIT, block, X0)
    fits = solve_many(LinkKind.LOGIT, block)
    assert isinstance(fits, list) and len(fits) == 2
    assert solve_many(LinkKind.LOGIT, block[:0]) == []
    assert solve_many(LinkKind.LOGIT, np.empty((0, 5)), np.empty((0, 5))) == []


@st.composite
def blocks(draw):
    """A block (B, n) of released degrees with ties, degrees 0 and n - 1 and
    sequences on a facet (half-integers), some rows with starts."""
    n = draw(st.integers(2, 8))
    B = draw(st.integers(1, 6))
    half = st.integers(0, 2 * (n - 1)).map(lambda h: h / 2.0)
    entry = st.one_of(half, st.floats(0.3 * (n - 1), 0.7 * (n - 1)))
    if draw(st.booleans()):  # a few values per block: rows tie within and across
        entry = st.sampled_from(draw(st.lists(entry, min_size=1, max_size=n)))
    D = np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                               min_size=B, max_size=B)))
    start = st.lists(st.sampled_from([-1.5, -0.25, 0.0, 0.4, 1.0]), min_size=n, max_size=n)
    x0s = draw(st.one_of(st.none(), st.lists(st.one_of(st.none(), start.map(np.array)),
                                             min_size=B, max_size=B)))
    return D, x0s


def assert_same_result(got, want):
    """Two ``EstimateResult``s are equal bit for bit, reasons included."""
    assert (got.exists, got.iterations, got.reason) == \
        (want.exists, want.iterations, want.reason)
    assert got.residual_inf == want.residual_inf or \
        (np.isnan(got.residual_inf) and np.isnan(want.residual_inf))
    for a, b in ((got.alpha_hat, want.alpha_hat), (got.v_hat, want.v_hat)):
        assert (a is None and b is None) or np.array_equal(a, b)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(LINKS), blocks())
def test_block_front_end_gives_each_row_its_lone_result(link, block):
    # one pass screens, collapses and starts the whole block; every row gets
    # what ``solve`` gives it alone, and what the np.unique classes of the
    # reference give it
    D, x0s = block
    starts = x0s or [None] * len(D)
    with np.errstate(all="ignore"):
        got = solve_many(link, D, None if x0s is None else _starts(link, D, x0s))
        assert len(got) == len(D)
        for fit, d, x0 in zip(got, D, starts):
            assert_same_result(fit, solve(link, d, x0=x0))
            assert_same_fit(fit, engine_reference.solve(link, d, x0=x0))


def test_block_of_lone_and_stacked_fits_matches_lone_solves():
    # the two Laplace rows (k >= 91) run alone, by Chebyshev points and CG
    # steps; the herm2 row has ties and runs in a stack
    D = np.array([_cell_degrees(LinkKind.CLOGLOG, 120, noise, seed)
                  for seed, noise in enumerate(["lap", "herm2", "lap"])])
    got = solve_many(LinkKind.CLOGLOG, D)
    assert [np.unique(d).size >= 91 for d in D] == [True, False, True]
    for fit, d in zip(got, D):
        assert fit.exists
        assert_same_result(fit, solve(LinkKind.CLOGLOG, d))


# ---------------------------------------------------------------------------
# conjugate-gradient Newton step of the fits that run alone (k >= 91)
# ---------------------------------------------------------------------------

def _cell_degrees(link, n, noise, seed):
    """Released degrees of one sampled graph whose truth spreads the
    degrees, with Laplace (untied) or herm2 (tied) noise."""
    lo, hi = {LinkKind.LOG: (-1.5, -0.3), LinkKind.LOGIT: (-1.5, 1.5),
              LinkKind.CLOGLOG: (-1.5, 0.5)}[link]
    rng = np.random.default_rng(seed)
    alpha = lo + (hi - lo) * np.arange(1, n + 1) / n
    mech = ContinuousLaplace(1.0) if noise == "lap" else TwoSideHermite(1.0, 0.5)
    return EdgeSampler(link, alpha).degrees(rng) + sample(mech, rng, size=n)


def _spy_cg(monkeypatch) -> list:
    """Record whether each CG step finished (True) or fell back (False)."""
    outcomes = []
    cg = estimator._cg_step

    def spy(*args):
        step = cg(*args)
        outcomes.append(step is not None)
        return step

    monkeypatch.setattr(estimator, "_cg_step", spy)
    return outcomes


def assert_same_estimate(got, want):
    assert ((got.iterations, got.residual_inf, got.exists, got.reason)
            == (want.iterations, want.residual_inf, want.exists, want.reason))
    assert np.array_equal(got.alpha_hat, want.alpha_hat)
    assert np.array_equal(got.v_hat, want.v_hat)


@pytest.mark.parametrize("noise", ["lap", "herm2"])
@pytest.mark.parametrize("n", [100, 400, 2000])
@pytest.mark.parametrize("link", LINKS)
def test_cg_step_roots_match_lu_step_roots(link, n, noise, monkeypatch):
    d = _cell_degrees(link, n, noise, seed=n)
    k = np.unique(d).size
    with monkeypatch.context() as mp:
        mp.setattr(estimator, "_CG_MAX_ITER", 0)  # every step by LU
        lu = solve(link, d)
    outcomes = _spy_cg(monkeypatch)
    cg = solve(link, d)
    assert lu.exists and cg.exists
    assert np.max(np.abs(cg.alpha_hat - lu.alpha_hat)) <= 1e-12
    assert np.max(np.abs(cg.v_hat / lu.v_hat - 1.0)) <= 1e-12
    assert cg.iterations == lu.iterations
    # k >= 91 takes every step by CG, also with ties (the m-scaled system)
    assert outcomes == ([True] * cg.iterations if k >= 91 else [])
    if (n, noise) != (100, "herm2"):
        assert k >= 91 and (k < n) == (noise == "herm2")


def test_lone_cg_fit_has_the_same_bits_inside_a_mixed_input():
    # lone CG fits (k >= 91) at n = 120 and 400, stacked ones at n = 30
    for n, noise, seeds, alone in ((120, "lap", (1, 3), True), (30, "herm2", (2, 4), False),
                                   (400, "herm2", (5,), True)):
        D = np.array([_cell_degrees(LinkKind.LOGIT, n, noise, seed) for seed in seeds])
        assert all((np.unique(d).size >= 91) == alone for d in D)
        for got, d in zip(solve_many(LinkKind.LOGIT, D), D):
            assert got.exists
            assert_same_estimate(got, solve(LinkKind.LOGIT, d))


def assert_close_fit(got, want):
    """Two fits take the same path and agree to about 1e-12 (ROADMAP aim 2)."""
    assert (got.exists, got.iterations, got.reason) == \
        (want.exists, want.iterations, want.reason)
    if want.exists:
        assert np.max(np.abs(got.alpha_hat - want.alpha_hat)) <= 1e-12
        assert np.max(np.abs(got.v_hat / want.v_hat - 1.0)) <= 1e-12


@pytest.mark.parametrize("n, noise", [(100, "lap"), (400, "herm2")])
@pytest.mark.parametrize("link", LINKS)
def test_cg_step_that_cannot_finish_falls_back_to_lu(link, n, noise, monkeypatch):
    # a lone fit (k >= 91) factors the dense J of _evaluate when CG cannot
    # finish, at a grid point too; the reference factors its own dense J
    d = _cell_degrees(link, n, noise, seed=8)
    assert np.unique(d).size >= 91
    monkeypatch.setattr(estimator, "_CG_MAX_ITER", 1)
    outcomes = _spy_cg(monkeypatch)
    got = solve(link, d)
    assert got.exists and outcomes == [False] * got.iterations
    assert_close_fit(got, engine_reference.solve(link, d))


@pytest.mark.parametrize("link", LINKS)
def test_lu_step_at_a_grid_point_factors_one_dense_evaluation(link, monkeypatch):
    # with CG off, every point of this lone fit resolves on its grid and
    # each LU step evaluates its point densely once, for the J it factors
    d = _cell_degrees(link, 400, "lap", seed=8)
    assert np.unique(d).size == 400
    grids, dense = [], []
    chebyshev, evaluate = estimator._chebyshev, estimator._evaluate
    monkeypatch.setattr(estimator, "_CG_MAX_ITER", 0)
    monkeypatch.setattr(estimator, "_chebyshev",
                        lambda *a: grids.append(chebyshev(*a)) or grids[-1])
    monkeypatch.setattr(estimator, "_evaluate", lambda *a: dense.append(1) or evaluate(*a))
    got = solve(link, d)
    assert got.exists and None not in grids
    assert len(dense) == got.iterations
    assert_close_fit(got, engine_reference.solve(link, d))


@pytest.mark.parametrize("link, start, reason", [
    (LinkKind.LOGIT, np.full(100, 40.0), "singular Jacobian"),
    (LinkKind.CLOGLOG, np.full(100, 40.0), "singular Jacobian"),
    (LinkKind.LOG, np.full(100, 400.0), "non-finite Newton step"),
    (LinkKind.LOG, np.full(100, -400.0), "singular Jacobian"),
])
def test_cg_system_without_a_step_keeps_its_reason(link, start, reason, monkeypatch):
    d = np.linspace(10.0, 80.0, 100)
    outcomes = _spy_cg(monkeypatch)
    got = solve(link, d, x0=start)
    assert (got.exists, got.reason, got.iterations) == (False, reason, 0)
    assert outcomes == [False]
    with np.errstate(over="ignore"):  # the reference's exp overflows at the start
        assert_same_fit(got, engine_reference.solve(link, d, x0=start))


# ---------------------------------------------------------------------------
# the (g, k, k) slope array and the scratch block that each Newton fit
# evaluates in
# ---------------------------------------------------------------------------

def _block_cases():
    """Systems that a budget of 3k + 5 entries at k = 13 evaluates in five
    row blocks, the last of one row (a lone system, and a stack of two over
    the budget), or in one block (a stack of four with k = 3), tied and
    untied, with starts near 0 and at +-355, where the log link's pair sums
    overflow exp."""
    rng = np.random.default_rng(17)
    for link in LINKS:
        for g, k in ((1, 13), (2, 13), (4, 3)):
            for tied in (False, True):
                for centre in (0.0, 355.0, -355.0):
                    beta = centre + rng.normal(0.0, 1.0, (g, k))
                    if link == LinkKind.LOG and centre == 0.0:
                        beta = -np.abs(beta) - 0.1
                    m = rng.integers(1, 4, (g, k)).astype(float) if tied else np.ones((g, k))
                    yield link, beta, m


@pytest.mark.parametrize("link,beta,m", list(_block_cases()))
def test_row_blocks_give_the_bits_of_a_whole_matrix_evaluation(link, beta, m, monkeypatch):
    monkeypatch.setattr(estimator, "_ELEMENT_BUDGET", 3 * 13 + 5)
    g, k = beta.shape
    blocks = []  # the shape of every block of pair sums
    link_values_ = estimator.link_values
    monkeypatch.setattr(estimator, "link_values",
                        lambda *a: blocks.append(a[1].shape) or link_values_(*a))
    u = np.linspace(1.0, 9.0, g * k).reshape(g, k)
    F, D, v = _evaluate(link, beta, u, m)  # under the suite's RuntimeWarning gate
    assert blocks == ([(g, 3, 13)] * 4 + [(g, 1, 13)] if k == 13 else [(4, 3, 3)])
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(g):
            assert np.array_equal(D[r], engine_reference.weighted_slope(link, beta[r], m[r]),
                                  equal_nan=True)
            assert np.array_equal(F[r], engine_reference.moment_residual(link, beta[r], u[r],
                                                                         m[r]),
                                  equal_nan=True)
        assert np.array_equal(v, D.sum(axis=2), equal_nan=True)
    if link == LinkKind.LOG and beta.mean() > 0:  # some pair sums overflowed
        assert np.isinf(F).any() and np.isinf(v).any()


@pytest.mark.parametrize("g,k", [(1, 13), (4, 3), (2, 13)])
def test_block_diagonals_are_views_of_the_blocks(g, k, monkeypatch):
    # k = 13 takes 3-row blocks, also in a stack of two over the budget,
    # whose p' blocks are not contiguous; a stack of four with k = 3 is one
    # block. The diagonal of rows lo.. of a block is a view that writes
    # through, contiguous or not
    monkeypatch.setattr(estimator, "_ELEMENT_BUDGET", 3 * 13 + 5)
    blocks = []
    link_values_ = estimator.link_values

    def keep(*args):
        blocks.append(link_values_(*args))
        return blocks[-1]

    monkeypatch.setattr(estimator, "link_values", keep)
    _evaluate(LinkKind.LOGIT, np.zeros((g, k)), np.ones((g, k)), np.ones((g, k)))
    lo = 0
    for P, D in blocks:
        rows = P.shape[1]
        assert D.flags.c_contiguous == (g == 1 or rows == k)
        for A in (P, D):
            diag = np.einsum("...ii->...i", A[..., lo:lo + rows])
            assert np.shares_memory(diag, A) and diag.shape == (g, rows)
            A[...] = 0.0  # the p blocks share the scratch
            diag[...] = -1.0
            assert all(A[s, r, lo + r] == -1.0 for s in range(g) for r in range(rows))
            assert np.count_nonzero(A == -1.0) == g * rows
        lo += rows
    assert lo == k


def test_lone_fit_holds_no_k_by_k_array():
    # a lone cloglog fit at k = 4000 evaluates every point on its Chebyshev
    # grid; one slope array would hold 8 k^2 bytes
    link, k = LinkKind.CLOGLOG, 4000
    alpha = np.linspace(-1.5, 0.5, k)
    expected = np.concatenate([
        edge_prob(link, alpha[lo:lo + 200, None] + alpha).sum(axis=1)
        - edge_prob(link, 2.0 * alpha[lo:lo + 200]) for lo in range(0, k, 200)])
    d = expected + np.random.default_rng(4000).laplace(0.0, 1.0, k)
    assert np.unique(d).size == k
    tracemalloc.start()
    try:
        fit = solve(link, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.exists
    assert peak < 0.05 * 8 * k * k


def test_dense_lone_evaluations_peak_at_one_matrix(monkeypatch):
    # a lone fit at k = 1500 with no grid, and moment_residual, hold one
    # k x k slope array and blocks of rows; 8 k^2 bytes is one such array
    link, k = LinkKind.LOGIT, 1500
    alpha = np.linspace(-1.0, 1.0, k)
    d = -moment_residual(link, alpha, np.zeros(k)) + \
        np.random.default_rng(k).laplace(0.0, 1.0, k)
    assert np.unique(d).size == k
    monkeypatch.setattr(estimator, "_chebyshev", lambda *a: None)
    for run in (lambda: solve(link, d).exists, lambda: moment_residual(link, alpha, d).size):
        tracemalloc.start()
        try:
            assert run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * 8 * k * k


def test_stack_peaks_below_one_more_slope_array():
    # 200 untied n = 40 fits run as 20 blocks of one stack of g = 10 each,
    # so the peak is a stack's, not that of a block's ``_prepare`` arrays.
    # A damping trial holds its slope array and a scratch of g k^2 entries
    # each, and a partial acceptance or a compaction one array more: the
    # peak reads 2.88 slope arrays, and 3.99 when an accepted trial's
    # operator outlives its step
    link, n = LinkKind.LOGIT, 40
    g = estimator._ELEMENT_BUDGET // (n * n)
    alpha = np.linspace(-1.0, 0.5, n)
    expected = -moment_residual(link, alpha, np.zeros(n))
    rng = np.random.default_rng(40)
    D = np.array([expected + rng.laplace(0.0, 1.0, n) for _ in range(200)])
    assert g == 10 and all(np.unique(d).size == n for d in D)
    solve_many(link, D[:g])
    tracemalloc.start()
    try:
        exists = [fit.exists for lo in range(0, len(D), g)
                  for fit in solve_many(link, D[lo:lo + g])]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(exists)
    assert peak < 3.25 * 8 * g * n * n


def test_fit_results_do_not_alias_the_work_arrays_of_later_fits():
    d1, d2 = (_cell_degrees(LinkKind.LOGIT, 120, "lap", seed=s) for s in (1, 3))
    first = solve(LinkKind.LOGIT, d1)
    alpha, v = first.alpha_hat.copy(), first.v_hat.copy()
    assert solve(LinkKind.LOGIT, d2).exists and first.exists
    assert np.array_equal(first.alpha_hat, alpha) and np.array_equal(first.v_hat, v)
    many = solve_many(LinkKind.LOGIT, np.array([d1, d2]))
    assert_same_estimate(many[0], first)


# ---------------------------------------------------------------------------
# the Chebyshev operator of a lone fit against the dense evaluator
# ---------------------------------------------------------------------------

def _operator_points():
    """Points of 400 classes, untied and tied: beta narrow, heavy-tailed
    over [-8, 2] (a grid of 128 nodes), all equal, and at the far starts
    +-355, where exp overflows or p and p' saturate."""
    rng = np.random.default_rng(22)
    k = 400
    for link in LINKS:
        for kind in ("narrow", "heavy", "equal", "far+", "far-"):
            for tied in (False, True):
                if kind == "narrow":
                    beta = rng.uniform(-1.0, 0.5, k)
                elif kind == "heavy":
                    beta = np.r_[-8.0, 2.0, -8.0 + 10.0 * rng.beta(5.0, 1.2, k - 2)]
                elif kind == "equal":
                    beta = np.full(k, -0.7)
                else:
                    beta = (355.0 if kind == "far+" else -355.0) + rng.normal(0.0, 1.0, k)
                m = rng.integers(1, 4, k).astype(float) if tied else np.ones(k)
                yield link, kind, beta, m


@pytest.mark.parametrize("link,kind,beta,m", list(_operator_points()))
def test_chebyshev_operator_matches_the_dense_evaluator(link, kind, beta, m):
    k = beta.size
    u = np.zeros(k)  # G is the negated weighted row sum
    x = np.random.default_rng(7).normal(0.0, 1.0, k)
    point = estimator._chebyshev(link, beta, u, m)  # under the suite's RuntimeWarning gate
    F, J, v = (A[0] for A in _evaluate(link, beta[None], u[None], m[None]))
    J[np.diag_indices(k)] += v
    if (link, kind) == (LinkKind.LOG, "far+"):  # exp overflows: _evaluate takes the point
        assert point is None
        return
    G, op = point
    assert op.D.shape[0] == {"heavy": 64 if link == LinkKind.LOG else 128,
                             "equal": 16}.get(kind, op.D.shape[0])

    def assert_close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    assert_close(G[0], F)
    assert_close(op.v[0], v)
    assert_close(op.matvec(x), J @ x)
    assert_close(op.diagonal(), J.diagonal())


def test_points_no_grid_resolves_take_the_dense_bits(monkeypatch):
    # k = 100 classes whose pair sums span [-12, 6] need more than k / 3
    # nodes, so every point of this lone fit goes through _evaluate
    link = LinkKind.LOGIT
    alpha = np.linspace(-6.0, 3.0, 100)
    d = (-moment_residual(link, alpha, np.zeros(100))
         + np.random.default_rng(1).laplace(0.0, 0.3, 100))
    grids = []
    chebyshev = estimator._chebyshev
    with monkeypatch.context() as mp:
        mp.setattr(estimator, "_chebyshev", lambda *a: grids.append(chebyshev(*a)))
        dense = solve(link, d, x0=alpha)
    got = solve(link, d, x0=alpha)
    assert got.exists and len(grids) > got.iterations
    assert grids == [None] * len(grids)
    assert_same_estimate(got, dense)


@st.composite
def lone_fits(draw):
    """A degree sequence of k >= 91 classes, untied or with classes of up to
    three vertices, around the expected degrees of a random parameter."""
    link = draw(st.sampled_from(LINKS))
    k = draw(st.integers(91, 180))
    lo = draw(st.floats(-3.5, -2.0 if link == LinkKind.LOG else 0.0))
    width = draw(st.floats(0.05, 3.0))
    tied = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    beta = lo + width * rng.random(k)
    m = rng.integers(1, 4, k) if tied else np.ones(k, dtype=int)
    expected = -_evaluate(link, beta[None], np.zeros((1, k)), m[None].astype(float))[0][0]
    u = expected + rng.normal(0.0, draw(st.floats(0.0, 2.0)), k)
    return link, np.repeat(u, m)


@settings(max_examples=40, deadline=None)
@given(lone_fits())
def test_lone_fit_roots_agree_with_an_all_dense_solve(case):
    link, d = case
    got = solve(link, d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimator, "_chebyshev", lambda *a: None)
        want = solve(link, d)
    assert (got.exists, got.iterations, got.reason) == \
        (want.exists, want.iterations, want.reason)
    if want.exists:
        # near a facet of the degree polytope cond(V) amplifies rounding,
        # and the small v of a saturated cloglog class amplifies it further
        # by p''/p' = 1 - e^x, so v is compared against its largest entry
        bound = rounding_bound(link, want.alpha_hat)
        assert np.max(np.abs(got.alpha_hat - want.alpha_hat)) <= bound
        assert np.max(np.abs(got.v_hat - want.v_hat)) <= bound * np.max(want.v_hat)


# ---------------------------------------------------------------------------
# intervals and the pair statistic
# ---------------------------------------------------------------------------

def test_confidence_interval_formula():
    res = solve(LinkKind.LOGIT, np.array([1.0, 1.0, 1.0]))
    # equal fits with v = 0.5: difference CI is +/- z sqrt(4) around 0
    lo, hi = confidence_interval(res, 0, 1, level=0.95)
    z = 1.959963984540054
    assert lo == pytest.approx(-z * 2.0, abs=1e-9)
    assert hi == pytest.approx(z * 2.0, abs=1e-9)
    slo, shi = confidence_interval(res, 0, level=0.95)
    assert shi - slo == pytest.approx(2 * z / math.sqrt(0.5), abs=1e-9)


def test_confidence_interval_index_array_matches_scalar_calls():
    res = solve(LinkKind.LOGIT, np.array([1.0, 2.0, 2.0, 3.0, 1.5]))
    lo, hi = confidence_interval(res, np.arange(5), level=0.9)
    assert [(a, b) for a, b in zip(lo, hi)] == [
        confidence_interval(res, k, level=0.9) for k in range(5)]


def test_confidence_interval_validation():
    res = solve(LinkKind.LOGIT, np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        confidence_interval(res, 1, 1)
    with pytest.raises(ValueError):
        confidence_interval(res, 0, 1, level=1.5)


def test_interval_and_pair_statistic_refuse_indices_outside_the_fit():
    # numpy would wrap -3 to coordinate 1 (the interval of alpha_2 - alpha_2)
    # and refuse 4 with a bare IndexError
    res = solve(LinkKind.LOGIT, np.array([1.0, 1.5, 1.2, 2.0]))
    assert res.exists
    for i, j in ((1, -3), (-1, 3), (0, 4), (4, 0)):
        with pytest.raises(ValueError, match="outside 0..3"):
            confidence_interval(res, i, j)
        with pytest.raises(ValueError, match="outside 0..3"):
            xi_statistic(res, np.zeros(4), i, j)
    for i in (4, -1, np.array([0, 4]), np.array([-1, 2])):
        with pytest.raises(ValueError, match="outside 0..3"):
            confidence_interval(res, i)
    lo, hi = confidence_interval(res, np.arange(4))
    assert lo.shape == hi.shape == (4,)


def test_normal_quantile_is_within_4_ulps_of_scipy():
    from scipy.special import ndtri
    levels = np.array([0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 0.9999, 0.9999999999999998])
    got = np.array([normal_quantile(level) for level in levels.tolist()])
    want = ndtri(0.5 + levels / 2.0)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(want))


def test_normal_quantile_rejects_an_infinite_quantile():
    assert normal_quantile(0.95) == 1.9599639845400536
    assert math.isfinite(normal_quantile(0.9999999999999998))
    # 0.5 + level / 2 rounds to 1: the interval would be infinite
    with pytest.raises(ValueError, match="too close to 1"):
        normal_quantile(0.9999999999999999)
    for level in (0.0, 1.0, 1.5, math.nan):
        with pytest.raises(ValueError, match="in \\(0, 1\\)"):
            normal_quantile(level)


def test_xi_statistic_values():
    res = solve(LinkKind.LOGIT, np.array([1.0, 1.0, 1.0]))
    truth = res.alpha_hat.copy()
    assert xi_statistic(res, truth, 0, 1) == pytest.approx(0.0, abs=1e-10)
    # numerator 1, both precisions 0.5: 1 / sqrt(4) = 0.5
    shifted = truth - 0.5
    assert xi_statistic(res, shifted, 0, 1) == pytest.approx(0.5, abs=1e-9)


def test_xi_statistic_checks_the_length_of_the_truth():
    res = solve(LinkKind.LOGIT, np.array([1.0, 1.5, 1.2, 2.0]))
    assert res.exists
    for truth in (np.zeros(3), np.zeros(5)):
        with pytest.raises(ValueError, match="truth has"):
            xi_statistic(res, truth, 0, 1)


def test_xi_statistic_unit_precision_case():
    # hand-built result with v = 1 and numerator 1 gives 1/sqrt(2)
    from privdeg.estimator import EstimateResult
    res = EstimateResult(np.array([0.5, 0.5]), np.array([1.0, 1.0]), 1, 0.0, True)
    assert xi_statistic(res, np.zeros(2), 0, 1) == pytest.approx(1 / math.sqrt(2))
