import math

import numpy as np
import pytest

from privdeg.bounds import (HermiteSumRadius, SubExpNormBound, SubGammaTail,
                            bernstein_from_psi1, max_expectation_bound,
                            mc_survival, psi1_norm, tail_bound)
from privdeg.noise import (CenteredGeometric, DiscreteLaplace, Hermite,
                           SubGammaParams, TwoSideHermite, pmf, sample)


def test_sub_gamma_sum_reference_points():
    spec = SubGammaTail(1.0, 0.0)
    assert tail_bound(spec, 0.0) == 1.0              # capped: 2 exp(0) -> 1
    assert tail_bound(spec, 2.0) == pytest.approx(2 * math.exp(-2), rel=1e-12)


def test_tail_bounds_capped_and_monotone():
    specs = [
        SubExpNormBound(1.3),
        SubGammaTail(4.0, 0.7),
        SubGammaTail(2.0, 0.5),
        SubGammaTail(2.0, 0.5, 25),
    ]
    ts = np.linspace(0, 40, 200)
    for spec in specs:
        vals = [tail_bound(spec, t) for t in ts]
        assert all(0 <= v <= 1 for v in vals)
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_tail_bounds_past_the_square_overflow_stay_finite():
    # t * t overflows above t ~ 1.3e154; the exponent is then taken as
    # (t / 2) / (upsilon / t + c), not as inf / inf capped to 1
    t, c, upsilon = 1e155, 1.2e154, 1.44e308
    exponent = (t / 2.0) / (upsilon / t + c)
    assert tail_bound(SubGammaTail(upsilon, c, 3), t) == \
        pytest.approx(6.0 * math.exp(-exponent), rel=1e-12)
    assert tail_bound(SubGammaTail(upsilon, c, 3), t) == pytest.approx(0.1454, abs=1e-4)
    assert tail_bound(SubGammaTail(upsilon, c), t) == pytest.approx(0.0485, abs=1e-4)
    # the bounds still fall to 0 as t grows, also at t = inf
    for spec in (SubGammaTail(1.0, 2.0), SubGammaTail(1.0, 0.0),
                 SubGammaTail(1.0, 2.0, 5)):
        assert tail_bound(spec, 1e300) == 0.0
        assert tail_bound(spec, math.inf) == 0.0


def test_negative_deviation_rejected():
    with pytest.raises(ValueError):
        tail_bound(SubExpNormBound(1.0), -0.1)


# each argument slot of every spec type and of max_expectation_bound, with
# the values that it must refuse: a scale parameter c may be 0, a count not
_SPEC_SLOTS = [
    ("SubExpNormBound(psi1)", lambda v: SubExpNormBound(v), (math.inf, math.nan, 0.0)),
    ("SubGammaParams(upsilon)", lambda v: SubGammaParams(v, 1.0), (math.inf, math.nan, 0.0)),
    ("SubGammaParams(c)", lambda v: SubGammaParams(1.0, v), (math.inf, math.nan, -1.0)),
    ("SubGammaTail(upsilon)", lambda v: SubGammaTail(v, 1.0, 3), (math.inf, math.nan, 0.0)),
    ("SubGammaTail(c)", lambda v: SubGammaTail(1.0, v, 3), (math.inf, math.nan, -1.0)),
    ("SubGammaTail(count)", lambda v: SubGammaTail(1.0, 1.0, v), (math.inf, math.nan, 0)),
    ("HermiteSumRadius(sigma2)", lambda v: HermiteSumRadius(v, 1.0, 1.0),
     (math.inf, math.nan, 0.0)),
    ("HermiteSumRadius(r)", lambda v: HermiteSumRadius(1.0, v, 1.0), (math.inf, math.nan, 0.0)),
    ("HermiteSumRadius(w)", lambda v: HermiteSumRadius(1.0, 1.0, v), (math.inf, math.nan, 0.0)),
    ("max_expectation_bound(upsilon)", lambda v: max_expectation_bound(v, 1.0, 3),
     (math.inf, math.nan, 0.0)),
    ("max_expectation_bound(c)", lambda v: max_expectation_bound(1.0, v, 3),
     (math.inf, math.nan, -1.0)),
    ("max_expectation_bound(n)", lambda v: max_expectation_bound(1.0, 1.0, v),
     (math.inf, math.nan, 0)),
]


@pytest.mark.parametrize("build, value", [
    pytest.param(build, value, id=f"{name}={value}")
    for name, build, values in _SPEC_SLOTS for value in values])
def test_non_finite_or_out_of_range_spec_parameters_are_refused(build, value):
    # a spec with an infinite scale would bound every tail by the vacuous 1
    with pytest.raises(ValueError):
        build(value)


def test_hermite_radius_closed_form():
    # iid terms with weights 1/n: radius reduces to
    # sqrt(2 x sigma^2 / n) + r x / (3 n)
    n, x = 50, 2.5
    sigma2 = 3.0
    spec = HermiteSumRadius(sigma2=n * sigma2, r=2.0, w=1.0 / n)
    want = math.sqrt(2 * x * sigma2 / n) + 2 * x / (3 * n)
    assert tail_bound(spec, x) == pytest.approx(want, rel=1e-12)


def test_max_expectation_reference_points():
    assert max_expectation_bound(1.0, 0.0, 1) == pytest.approx(
        math.sqrt(2 * math.log(2)), rel=1e-12)
    assert max_expectation_bound(1e-12, 1.0, 4) == pytest.approx(
        math.log(8), abs=1e-5)


def test_max_expectation_dominates_monte_carlo():
    mech = Hermite(1.0, 1.0)
    wit = mech.sub_gamma_witness()
    assert wit.upsilon == pytest.approx(5.0) and wit.c == pytest.approx(2 / 3)
    mean, _ = mech.moments()
    rng = np.random.default_rng(100)
    n, reps = 100, 10_000
    draws = np.abs(np.asarray(sample(mech, rng, size=(reps, n))) - mean)
    emp = draws.max(axis=1).mean()
    assert emp <= max_expectation_bound(wit.upsilon, wit.c, n)


def test_psi1_moment_bound_from_exact_pmf():
    # E|X|^k <= 2 psi1^k k! for k = 1..6, moments taken from the pmf
    mech = CenteredGeometric(0.45)
    psi = psi1_norm(mech)
    K = mech.support_cutoff(1e-16)
    js = np.arange(0, K + 1)
    probs = mech.q * (1 - mech.q) ** js
    absx = np.abs(js - mech.offset)
    for k in range(1, 7):
        mk = float(np.sum(probs * absx ** k))
        assert mk <= 2 * psi ** k * math.factorial(k)

    dl = DiscreteLaplace(0.6)
    psi = psi1_norm(dl)
    K = dl.support_cutoff(1e-16)
    ks = np.arange(-K, K + 1)
    probs = np.array([pmf(dl, int(k)) for k in ks])
    for k in range(1, 7):
        mk = float(np.sum(probs * np.abs(ks.astype(float)) ** k))
        assert mk <= 2 * psi ** k * math.factorial(k)


def test_even_moment_bound_for_hermite_witness():
    mech = TwoSideHermite(1.3, 0.6)
    wit = mech.sub_gamma_witness()
    K = mech.support_cutoff(1e-18)
    ks = np.arange(-K, K + 1)
    probs = np.array([pmf(mech, int(k)) for k in ks])
    for k in (1, 2, 3):
        m2k = float(np.sum(probs * ks.astype(float) ** (2 * k)))
        bound = math.factorial(k) * (8 * wit.upsilon) ** k + \
            math.factorial(2 * k) * (4 * wit.c) ** (2 * k)
        assert m2k <= bound


def test_additivity_of_witnesses():
    # sum of independent mechanisms: (sum upsilon_i, max c_i) still bounds
    # the exact product MGF on the grid
    mechs = [TwoSideHermite(1.0, 0.5), TwoSideHermite(0.5, 0.2), Hermite(2.0, 1.0)]
    wits = [m.sub_gamma_witness() for m in mechs]
    ups = sum(w.upsilon for w in wits)
    c = max(w.c for w in wits)
    ss = np.linspace(-0.9 / c, 0.9 / c, 101)
    ss = ss[ss != 0]
    exact = np.ones_like(ss)
    for m in mechs:
        exact = exact * np.asarray(m.centered_mgf(ss))
    bound = np.exp(ss ** 2 * ups / (2 * (1 - c * np.abs(ss))))
    assert np.all(exact <= bound * (1 + 1e-12))


def test_bernstein_from_psi1_dominates_sum_tail():
    mech = CenteredGeometric(0.5)
    psi = psi1_norm(mech)
    n, reps = 10, 100_000
    spec = bernstein_from_psi1(psi, n)
    rng = np.random.default_rng(5)
    s = np.abs(np.asarray(sample(mech, rng, size=(reps, n))).sum(axis=1))
    ts = np.linspace(0, np.quantile(s, 0.9995), 15)
    emp, se = mc_survival(s, ts)
    for t, p, e in zip(ts, emp, se):
        assert p <= tail_bound(spec, float(t)) + 3 * e


def test_mc_survival_shapes():
    draws = np.array([0.0, 1.0, 2.0, 3.0])
    p, se = mc_survival(draws, np.array([0.5, 2.5]))
    assert p == pytest.approx([0.75, 0.25])
    assert np.all(se >= 0)
