import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import engine_reference
from privdeg import estimator
from privdeg.estimator import (NonexistentEstimateError, SolverOptions,
                               _weighted_values, approx_inverse_s,
                               confidence_interval, initial_point, jacobian,
                               moment_residual, solve, solve_many, xi_statistic)
from privdeg.links import (EdgeSampler, LinkKind, degrees, expected_degrees,
                           sample_graph)

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
    assert res.exists and res.converged
    assert np.max(np.abs(moment_residual(LinkKind.LOG, res.alpha_hat, d))) <= 1e-8 * 3.486


def test_collapsed_residual_matches_full_system():
    rng = np.random.default_rng(9)
    counts = np.array([3, 1, 2])
    for link in LINKS:
        beta = rand_alpha(rng, link, 3)
        u = rng.uniform(0.5, 4.5, 3)
        full = moment_residual(link, np.repeat(beta, counts), np.repeat(u, counts))
        collapsed = moment_residual(link, beta, u, counts)
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
    assert res.exists and res.converged
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


def test_log_fit_reports_pair_sum_diagnostic():
    # a release sequence whose fit strays beyond the probability domain
    d = np.array([26.0, 17.0, 16.0, 15.0, 5.0, 3.0, 2.0, 1.0, 6.0, 9.0])
    res = solve(LinkKind.LOG, d)
    assert res.exists
    assert res.max_abs_pair_sum is not None and res.max_abs_pair_sum > 0


def dense_newton(link, d, opts=SolverOptions()):
    """Reference: damped Newton on the full n x n system, no grouping."""
    tol = opts.tol * max(1.0, np.max(np.abs(d)))
    a = initial_point(link, d)
    F = moment_residual(link, a, d)
    res = np.max(np.abs(F))
    for it in range(opts.max_iter + 1):
        V = jacobian(link, a).matrix
        if res <= tol:
            return a, np.diag(V), it
        if it == opts.max_iter:
            return None
        try:
            step = np.linalg.solve(V, F)
        except np.linalg.LinAlgError:
            return None
        scale = 1.0
        for _ in range(opts.max_halvings + 1):
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

    cond(V) amplifies rounding differences; it is large where the root
    drifts off to infinity, e.g. d = [1, 1, 2, 2] under logit stops at
    |alpha| = 9.2 with cond(V) = 5e7.
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
        P, D = _weighted_values(link, beta, m)
        assert P is not D
        assert np.array_equal(
            P, engine_reference._weighted(engine_reference._pm_extended, link, beta, m),
            equal_nan=True)
        assert np.array_equal(D, engine_reference.weighted_slope(link, beta, m),
                              equal_nan=True)
        F = moment_residual(link, beta, u, m)
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
        assert got.max_abs_pair_sum == want.max_abs_pair_sum


def _two_class_fits(n_random: int = 48):
    """Degree sequences of five vertices in two classes (k = 2), with and
    without starts, and three that cannot converge: two boundary degrees
    and a cloglog singular Jacobian."""
    rng = np.random.default_rng(5)
    ds, x0s = [], []
    for t in range(n_random):
        ds.append(np.repeat(rng.uniform(0.2, 3.8, 2), [2, 3]))
        x0s.append(rng.normal(0.0, 3.0, 5) if t % 2 else None)
    ds += [np.array([0.0, 0.0, 2.0, 2.0, 2.0]), np.array([1.0, 1.0, 4.0, 4.0, 4.0]),
           np.array([0.001, 0.001, 3.0, 3.0, 3.0])]
    return ds, x0s + [None] * 3


def _rejected_trials(monkeypatch, link, d, x0, opts) -> int:
    """Damping trials that a lone converged fit rejected (0 if it failed)."""
    calls = []
    evaluate = estimator._residual_and_slope
    monkeypatch.setattr(estimator, "_residual_and_slope",
                        lambda *a: calls.append(1) or evaluate(*a))
    res = solve(link, d, opts, x0=x0)
    monkeypatch.undo()
    return len(calls) - 1 - res.iterations if res.exists else 0


@pytest.mark.parametrize("budget", [estimator._ELEMENT_BUDGET, 12])
@pytest.mark.parametrize("max_iter", [200, 3])
@pytest.mark.parametrize("link", LINKS)
def test_stacked_fits_match_lone_reference_fits_bitwise(link, max_iter, budget,
                                                        monkeypatch):
    # every k = 2 member shares one stack (three per stack at budget 12)
    ds, x0s = _two_class_fits()
    opts = SolverOptions(max_iter=max_iter)
    with monkeypatch.context() as mp:
        mp.setattr(estimator, "_ELEMENT_BUDGET", budget)
        got = list(solve_many(link, ds, opts, x0s))
    want = [engine_reference.solve(link, d, opts, x0=x0) for d, x0 in zip(ds, x0s)]
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
    assert any(_rejected_trials(monkeypatch, link, d, x0, opts) > 0
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
    ds = []
    for n in (12, 30):
        sampler = EdgeSampler(link, np.arange(1, n + 1) * L / n)
        for t in range(60):
            noise = rng.integers(-2, 3, n) if t % 2 else rng.normal(0.0, 1.0, n)
            ds.append(sampler.degrees(rng) + noise)
    for got, d in zip(solve_many(link, ds), ds):
        assert_same_fit(got, engine_reference.solve(link, d))


def test_solve_many_yields_a_lone_fit_before_reading_the_next_sequence():
    # k = 100 fills a stack by itself, so nothing waits in memory
    read = []

    def sequences():
        for t in range(3):
            read.append(t)
            yield np.linspace(10.0, 80.0, 100) + t

    fits = solve_many(LinkKind.LOGIT, sequences())
    assert next(fits).exists and read == [0]
    assert len(list(fits)) == 2 and read == [0, 1, 2]


def test_solve_many_validates_each_sequence():
    with pytest.raises(ValueError, match="finite"):
        list(solve_many(LinkKind.LOGIT, [np.array([1.0, 2.0, 1.0]), np.array([1.0, np.nan])]))
    with pytest.raises(ValueError, match="x0 length"):
        list(solve_many(LinkKind.LOGIT, [np.array([1.0, 1.5, 1.2])], x0s=[np.zeros(2)]))
    assert list(solve_many(LinkKind.LOGIT, [])) == []


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


def test_xi_statistic_values():
    res = solve(LinkKind.LOGIT, np.array([1.0, 1.0, 1.0]))
    truth = res.alpha_hat.copy()
    assert xi_statistic(res, truth, 0, 1) == pytest.approx(0.0, abs=1e-10)
    # numerator 1, both precisions 0.5: 1 / sqrt(4) = 0.5
    shifted = truth - 0.5
    assert xi_statistic(res, shifted, 0, 1) == pytest.approx(0.5, abs=1e-9)


def test_xi_statistic_unit_precision_case():
    # hand-built result with v = 1 and numerator 1 gives 1/sqrt(2)
    from privdeg.estimator import EstimateResult
    res = EstimateResult(np.array([0.5, 0.5]), np.array([1.0, 1.0]),
                         True, 1, 0.0, True)
    assert xi_statistic(res, np.zeros(2), 0, 1) == pytest.approx(1 / math.sqrt(2))
