import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from privdeg.noise import (CenteredGeometric, ContinuousLaplace, DiscreteLaplace,
                           Hermite, TwoSideHermite, TwoSidePoisson,
                           abs_exp_moment, bessel_i, centered_mgf,
                           hermite_budget_intensity, mechanism_label, moments,
                           parse_mechanism, pmf, psi1_norm, sample,
                           sub_gamma_witness, support_cutoff)

LAM = hermite_budget_intensity(2.0)

DISCRETE_MECHS = [
    DiscreteLaplace(0.5),
    CenteredGeometric(0.4),
    Hermite(1.2, 0.8),
    TwoSideHermite(4 * LAM / 5, LAM / 5),
    TwoSidePoisson(1.5, 1.0),
]
ALL_MECHS = DISCRETE_MECHS + [ContinuousLaplace(1.3)]
# the two-sided Hermite noise of the benchmark and the demo scenario
BENCH_HERM2 = parse_mechanism("herm2:a1=1.4730777507324677,a2=0.36826943768311693")


# ---------------------------------------------------------------------------
# bessel series
# ---------------------------------------------------------------------------

def test_bessel_at_zero():
    assert bessel_i(0, 0.0) == 1.0
    assert bessel_i(1, 0.0) == 0.0


def test_bessel_generating_identity():
    # sum_n I_n(x) = e^x with I_{-n} = I_n
    x = 2.0
    total = bessel_i(0, x) + 2 * sum(bessel_i(n, x) for n in range(1, 31))
    assert abs(total - math.exp(x)) < 1e-10


def test_bessel_against_scipy():
    from scipy.special import iv
    for n in (0, 1, 3, 8):
        for x in (0.1, 1.0, 4.5, 12.0):
            assert bessel_i(n, x) == pytest.approx(float(iv(n, x)), rel=1e-12)


# ---------------------------------------------------------------------------
# pmf values and identities
# ---------------------------------------------------------------------------

def test_dlap_pmf_at_zero():
    assert pmf(DiscreteLaplace(0.5), 0) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_two_side_poisson_degenerate_is_poisson():
    m = TwoSidePoisson(2.0, 0.0)
    for k in range(0, 8):
        assert pmf(m, k) == pytest.approx(stats.poisson.pmf(k, 2.0), rel=1e-12)
    assert pmf(m, -1) == 0.0
    neg = TwoSidePoisson(0.0, 1.5)
    for k in range(0, 8):
        assert pmf(neg, -k) == pytest.approx(stats.poisson.pmf(k, 1.5), rel=1e-12)


def test_two_side_poisson_matches_brute_convolution():
    m = TwoSidePoisson(1.0, 1.0)
    assert pmf(m, 0) == pytest.approx(math.exp(-2) * bessel_i(0, 2.0), rel=1e-13)
    for k in range(-30, 31):
        brute = sum(stats.poisson.pmf(j, 1.0) * stats.poisson.pmf(j - k, 1.0)
                    for j in range(0, 80))
        assert abs(pmf(m, k) - brute) < 1e-12


def test_two_side_poisson_large_intensities_are_finite():
    # exp(-800) I_0(800) is 0 * inf unless the Bessel factor is scaled
    assert pmf(TwoSidePoisson(400, 400), 0) == pytest.approx(0.0141069, rel=1e-5)
    j = np.arange(0, 2000)
    for lam, mu in ((400.0, 400.0), (400.0, 300.0)):
        m = TwoSidePoisson(lam, mu)
        for k in (-7, 0, 3, 100):
            brute = float(np.sum(stats.poisson.pmf(j + k, lam) * stats.poisson.pmf(j, mu)))
            assert pmf(m, k) == pytest.approx(brute, rel=1e-10)


def test_dlap_equals_geometric_difference():
    p = 0.55
    m = DiscreteLaplace(p)
    # difference of iid counts with P(G = j) = (1-p) p^j
    def geo(j):
        return (1 - p) * p ** j if j >= 0 else 0.0
    for k in range(-30, 31):
        brute = sum(geo(j) * geo(j - k) for j in range(0, 400))
        assert abs(pmf(m, k) - brute) < 1e-12


def test_hermite_pgf_identity():
    a1, a2 = 1.2, 0.8
    m = Hermite(a1, a2)
    K = support_cutoff(m, 1e-18)
    ks = np.arange(0, K + 1)
    ps = np.array([pmf(m, int(k)) for k in ks])
    for s in np.arange(0.1, 0.95, 0.1):
        got = float(np.sum(ps * s ** ks))
        want = math.exp(a1 * (s - 1) + a2 * (s * s - 1))
        assert abs(got - want) < 1e-12


def test_pmf_normalization():
    for m in DISCRETE_MECHS:
        if isinstance(m, CenteredGeometric):
            continue  # support not on the integers unless the offset is
        K = support_cutoff(m, 1e-12)
        total = sum(pmf(m, k) for k in range(-K, K + 1))
        assert total >= 1 - 1e-9
        assert total <= 1 + 1e-12


def test_pmf_symmetry_fixed_cases():
    for m in (DiscreteLaplace(0.3), TwoSidePoisson(2.0, 2.0),
              TwoSideHermite(1.0, 0.5)):
        for k in range(0, 15):
            assert pmf(m, k) == pytest.approx(pmf(m, -k), rel=1e-12, abs=1e-300)


@settings(max_examples=40, deadline=None)
@given(p=st.floats(0.05, 0.9), k=st.integers(0, 25))
def test_dlap_symmetry_property(p, k):
    m = DiscreteLaplace(p)
    assert pmf(m, k) == pytest.approx(pmf(m, -k), rel=1e-12)


def test_pmf_rejected_for_continuous():
    with pytest.raises(TypeError):
        pmf(ContinuousLaplace(1.0), 0)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_exact_moments_reference():
    assert moments(Hermite(1.0, 1.0)) == (3.0, 5.0)
    assert moments(TwoSidePoisson(2.0, 2.0)) == (0.0, 4.0)
    assert moments(DiscreteLaplace(0.5)) == (0.0, pytest.approx(4.0))
    assert moments(CenteredGeometric(0.5)) == (0.0, pytest.approx(2.0))
    assert moments(ContinuousLaplace(1.0)) == (0.0, 2.0)
    a1, a2 = 4 * LAM / 5, LAM / 5
    assert moments(TwoSideHermite(a1, a2)) == (0.0, pytest.approx(2 * (a1 + 4 * a2)))


def test_hermite_sample_mean():
    rng = np.random.default_rng(1)
    a1, a2 = 4 * LAM / 5, LAM / 5
    m = Hermite(a1, a2)
    draws = np.asarray(sample(m, rng, size=100_000))
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - 6 * LAM / 5) < 4 * se


def test_two_side_hermite_sample_mean_zero():
    rng = np.random.default_rng(2)
    m = TwoSideHermite(1.0, 1.0)
    draws = np.asarray(sample(m, rng, size=100_000))
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean()) < 4 * se


@pytest.mark.parametrize("mech", ALL_MECHS, ids=mechanism_label)
def test_mechanism_label_round_trips(mech):
    assert parse_mechanism(mechanism_label(mech)) == mech


@pytest.mark.parametrize("mech", ALL_MECHS, ids=mechanism_label)
def test_empirical_moments_match(mech):
    rng = np.random.default_rng(abs(hash(mechanism_label(mech))) % 2 ** 31)
    mean, var = moments(mech)
    draws = np.asarray(sample(mech, rng, size=1_000_000))
    n = draws.size
    se_mean = draws.std(ddof=1) / math.sqrt(n)
    assert abs(draws.mean() - mean) < 4 * se_mean
    centered = draws - draws.mean()
    m2 = np.mean(centered ** 2)
    m4 = np.mean(centered ** 4)
    se_var = math.sqrt(max(m4 - m2 * m2, 1e-12) / n)
    assert abs(m2 - var) < 4 * se_var


# ---------------------------------------------------------------------------
# sampler correctness (chi-square against the exact pmf)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mech", [m for m in DISCRETE_MECHS
                                  if not isinstance(m, CenteredGeometric)],
                         ids=mechanism_label)
def test_sampler_chi_square(mech):
    rng = np.random.default_rng(abs(hash(("chi", mechanism_label(mech)))) % 2 ** 31)
    draws = np.asarray(sample(mech, rng, size=100_000)).astype(int)
    K = support_cutoff(mech, 1e-9)
    ks = np.arange(-K, K + 1)
    probs = np.array([pmf(mech, int(k)) for k in ks])
    expected = probs * draws.size
    counts = np.array([(draws == k).sum() for k in ks], dtype=float)
    # merge bins until every expected count is at least 5
    keep = expected >= 5
    e = np.concatenate([expected[keep], [expected[~keep].sum() +
                                         draws.size * (1 - probs.sum())]])
    c = np.concatenate([counts[keep], [counts[~keep].sum() +
                                       (np.abs(draws) > K).sum()]])
    e = e * c.sum() / e.sum()
    stat, p = stats.chisquare(c, e)
    assert p > 1e-3, f"chi-square p={p:.2e}"


def test_centered_geometric_sampler_chi_square():
    q = 0.4
    mech = CenteredGeometric(q)
    rng = np.random.default_rng(77)
    raw = np.asarray(sample(mech, rng, size=100_000)) + mech.offset
    draws = np.rint(raw).astype(int)  # underlying failure counts
    kmax = 40
    probs = np.array([q * (1 - q) ** k for k in range(kmax)])
    counts = np.array([(draws == k).sum() for k in range(kmax)], dtype=float)
    e = np.concatenate([probs * draws.size, [draws.size * (1 - probs.sum())]])
    c = np.concatenate([counts, [(draws >= kmax).sum()]])
    stat, p = stats.chisquare(c, e * c.sum() / e.sum())
    assert p > 1e-3


# ---------------------------------------------------------------------------
# sub-Gamma witnesses and the psi1 norm
# ---------------------------------------------------------------------------

def test_hermite_witness_values():
    a1, a2 = 1.7, 0.4
    w = sub_gamma_witness(Hermite(a1, a2))
    assert w.upsilon == pytest.approx(a1 + 4 * a2)
    assert w.c == pytest.approx(2.0 / 3.0)


def test_witness_never_sub_gaussian():
    for m in ALL_MECHS:
        assert sub_gamma_witness(m).c > 0


def test_continuous_laplace_psi1_closed_form():
    # E exp(|X|/t) = t / (t - b), so the norm solves t/(t-b) = 2 at t = 2b
    for b in (0.5, 1.0, 2.5):
        assert psi1_norm(ContinuousLaplace(b)) == pytest.approx(2 * b, rel=1e-9)


def test_psi1_scaling_homogeneity():
    # psi1(2X) = 2 psi1(X): bisect E exp(|2X|/t) = E exp(|X|/(t/2)) directly
    m = DiscreteLaplace(0.5)
    base = psi1_norm(m)
    lo, hi = base, 8 * base
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if abs_exp_moment(m, mid / 2.0) <= 2.0:
            hi = mid
        else:
            lo = mid
    assert hi == pytest.approx(2 * base, rel=1e-7)


def test_psi1_tail_domination_monte_carlo():
    m = DiscreteLaplace(0.5)
    psi = psi1_norm(m)
    rng = np.random.default_rng(10)
    draws = np.abs(np.asarray(sample(m, rng, size=1_000_000)))
    for t in np.linspace(0.5, 12, 12):
        emp = (draws > t).mean()
        se = math.sqrt(max(emp * (1 - emp), 1e-12) / draws.size)
        assert emp <= 2 * math.exp(-t / psi) + 3 * se


@pytest.mark.parametrize("mech", ALL_MECHS, ids=mechanism_label)
def test_mgf_domination_on_grid(mech):
    w = sub_gamma_witness(mech)
    ss = np.linspace(-0.9 / w.c, 0.9 / w.c, 100)
    ss = ss[ss != 0]
    exact = np.asarray(centered_mgf(mech, ss))
    bound = np.asarray(w.mgf_bound(ss))
    assert np.all(np.isfinite(exact))
    assert np.all(exact <= bound * (1 + 1e-12))


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------

def test_grammar_round_trip():
    for text, expect in [
        ("dlap:p=0.5", DiscreteLaplace(0.5)),
        ("lap:b=1.25", ContinuousLaplace(1.25)),
        ("geo:q=0.3", CenteredGeometric(0.3)),
        ("herm2:a1=1.2,a2=0.3", TwoSideHermite(1.2, 0.3)),
        ("tsp:lambda=2,mu=1", TwoSidePoisson(2.0, 1.0)),
        ("DLAP:P=0.5", DiscreteLaplace(0.5)),  # case-insensitive
    ]:
        assert parse_mechanism(text) == expect
    m = TwoSideHermite(4 * LAM / 5, LAM / 5)
    assert parse_mechanism(mechanism_label(m)) == m


def test_grammar_errors():
    for bad in ("nope:x=1", "dlap", "dlap:p=zero", "dlap:q=0.5", "tsp:lambda=1"):
        with pytest.raises(ValueError):
            parse_mechanism(bad)


def test_mechanism_validation():
    with pytest.raises(ValueError):
        DiscreteLaplace(1.0)
    with pytest.raises(ValueError):
        Hermite(0.0, 1.0)
    with pytest.raises(ValueError):
        TwoSidePoisson(0.0, 0.0)
    with pytest.raises(ValueError):
        ContinuousLaplace(-1.0)


# ---------------------------------------------------------------------------
# pinned values
# ---------------------------------------------------------------------------

# psi1, witness, the 1e-12 support cutoff K and the pmf on [-K-3, K+3] of
# each mechanism, keyed by its label, as computed by the implementation
# that preceded the mechanism classes (one isinstance dispatch per part of
# the law)
PINS = json.loads((Path(__file__).parent / "data" / "noise_pins.json").read_text())


def _matches(got: float, want: float) -> bool:
    return got == want if want == 0 else got == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("mech", ALL_MECHS + [BENCH_HERM2],
                         ids=[mechanism_label(m) for m in ALL_MECHS] + ["benchmark-herm2"])
def test_psi1_witness_and_pmf_are_pinned(mech):
    pin = PINS[mechanism_label(mech)]
    assert _matches(psi1_norm(mech), pin["psi1"])
    w = sub_gamma_witness(mech)
    assert _matches(w.upsilon, pin["upsilon"]) and _matches(w.c, pin["c"])
    if "pmf" not in pin:
        with pytest.raises(TypeError):
            pmf(mech, 0)
        return
    K = pin["K"]
    assert support_cutoff(mech) == K
    got = [pmf(mech, k) for k in range(-K - 3, K + 4)]
    assert len(got) == len(pin["pmf"])
    bad = [k - K - 3 for k, (g, want) in enumerate(zip(got, pin["pmf"]))
           if not _matches(g, want)]
    assert not bad, f"pmf differs from the pinned value at k = {bad}"


def test_pmf_table_is_built_once_per_mechanism(monkeypatch):
    # the compound-Poisson E exp(|X|/t) reads a table built at its first
    # call, so the psi1 bisection evaluates the pmf once per support point
    mech = TwoSideHermite(1.4730777507324677, 0.36826943768311693)
    calls = []
    mass = TwoSideHermite.mass
    monkeypatch.setattr(TwoSideHermite, "mass",
                        lambda self, k: calls.append(k) or mass(self, k))
    psi1_norm(mech)
    K = support_cutoff(mech, 1e-16)
    assert sorted(calls) == list(range(-K, K + 1))
