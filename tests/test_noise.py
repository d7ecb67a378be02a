import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from privdeg import noise
from privdeg.noise import (CenteredGeometric, ContinuousLaplace, DiscreteLaplace,
                           Hermite, TwoSideHermite, TwoSidePoisson,
                           hermite_budget_intensity, mechanism_label,
                           parse_mechanism, pmf, psi1_norm, sample)
from privdeg.noise import _MAX_TABLE

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
    from scipy.special import iv
    m = TwoSidePoisson(1.0, 1.0)
    assert pmf(m, 0) == pytest.approx(math.exp(-2) * float(iv(0, 2.0)), rel=1e-13)
    for k in range(-30, 31):
        brute = sum(stats.poisson.pmf(j, 1.0) * stats.poisson.pmf(j - k, 1.0)
                    for j in range(0, 80))
        assert abs(pmf(m, k) - brute) < 1e-12


def test_two_side_poisson_large_intensities_are_finite():
    # e^-800 underflows: no mass may be formed as e^-(lam + mu) times a large factor
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
    K = m.support_cutoff(1e-18)
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
        K = m.support_cutoff(1e-12)
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
    assert Hermite(1.0, 1.0).moments() == (3.0, 5.0)
    assert TwoSidePoisson(2.0, 2.0).moments() == (0.0, 4.0)
    assert DiscreteLaplace(0.5).moments() == (0.0, pytest.approx(4.0))
    assert CenteredGeometric(0.5).moments() == (0.0, pytest.approx(2.0))
    assert ContinuousLaplace(1.0).moments() == (0.0, 2.0)
    a1, a2 = 4 * LAM / 5, LAM / 5
    assert TwoSideHermite(a1, a2).moments() == (0.0, pytest.approx(2 * (a1 + 4 * a2)))


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
    mean, var = mech.moments()
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
    K = mech.support_cutoff(1e-9)
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
    w = Hermite(a1, a2).sub_gamma_witness()
    assert w.upsilon == pytest.approx(a1 + 4 * a2)
    assert w.c == pytest.approx(2.0 / 3.0)


def test_witness_never_sub_gaussian():
    for m in ALL_MECHS:
        assert m.sub_gamma_witness().c > 0


def test_continuous_laplace_psi1_closed_form():
    # E exp(|X|/t) = t / (t - b), so the norm solves t/(t-b) = 2 at t = 2b
    for b in (0.5, 1.0, 2.5):
        assert psi1_norm(ContinuousLaplace(b)) == pytest.approx(2 * b, rel=1e-9)


def test_psi1_of_tiny_laws_is_the_closed_form_or_an_error():
    # at b = 1e-300 the variance 2 b^2 underflows to 0; the norm is still 2 b
    for text, b in (("lap:b=1e-300", 1e-300), ("lap:b=1e-10", 1e-10)):
        assert psi1_norm(parse_mechanism(text)) == pytest.approx(2 * b, rel=1e-9)
    with pytest.raises(ValueError, match=r"^psi1 norm of lap:b=1e-310 is below the least "
                                         r"normal float$"):  # the law by its label
        psi1_norm(ContinuousLaplace(1e-310))


def test_psi1_scaling_homogeneity():
    # psi1(2X) = 2 psi1(X): bisect E exp(|2X|/t) = E exp(|X|/(t/2)) directly
    m = DiscreteLaplace(0.5)
    base = psi1_norm(m)
    lo, hi = base, 8 * base
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if m.abs_exp_moment(mid / 2.0) <= 2.0:
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
    w = mech.sub_gamma_witness()
    ss = np.linspace(-0.9 / w.c, 0.9 / w.c, 100)
    ss = ss[ss != 0]
    exact = np.asarray(mech.centered_mgf(ss))
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
# the law). That implementation truncated the herm2 sum at k = -42..-37;
# those six entries hold the pinned value at +k.
PINS = json.loads((Path(__file__).parent / "data" / "noise_pins.json").read_text())


def _matches(got: float, want: float) -> bool:
    return got == want if want == 0 else got == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("mech", ALL_MECHS + [BENCH_HERM2],
                         ids=[mechanism_label(m) for m in ALL_MECHS] + ["benchmark-herm2"])
def test_psi1_witness_and_pmf_are_pinned(mech):
    pin = PINS[mechanism_label(mech)]
    assert _matches(psi1_norm(mech), pin["psi1"])
    w = mech.sub_gamma_witness()
    assert _matches(w.upsilon, pin["upsilon"]) and _matches(w.c, pin["c"])
    if "pmf" not in pin:
        with pytest.raises(TypeError):
            pmf(mech, 0)
        return
    K = pin["K"]
    assert mech.support_cutoff(1e-12) == K
    got = [pmf(mech, k) for k in range(-K - 3, K + 4)]
    assert len(got) == len(pin["pmf"])
    bad = [k - K - 3 for k, (g, want) in enumerate(zip(got, pin["pmf"]))
           if not _matches(g, want)]
    assert not bad, f"pmf differs from the pinned value at k = {bad}"


def test_pmf_table_is_built_once_per_mechanism(monkeypatch):
    # a compound-Poisson law builds its pmf array at the first call that
    # needs it; psi1 and every later pmf value read that array
    calls = []
    build = TwoSideHermite._pmf_array
    monkeypatch.setattr(TwoSideHermite, "_pmf_array",
                        lambda self, n: calls.append(n) or build(self, n))
    mech = TwoSideHermite(1.4730777507324677, 0.36826943768311693)
    psi1_norm(mech)
    for k in range(-50, 51):
        pmf(mech, k)
    psi1_norm(mech)
    assert len(calls) == 1
    psi1_norm(TwoSideHermite(1.4730777507324677, 0.36826943768311693))
    assert len(calls) == 2  # a second mechanism builds its own


@pytest.mark.parametrize("mech", [BENCH_HERM2, TwoSidePoisson(1.0, 1.0)],
                         ids=mechanism_label)
def test_symmetric_law_pmf_is_symmetric_over_its_table(mech):
    k0, ps = mech._pmf_table
    assert k0 == -(ps.size // 2) and ps.size % 2 == 1
    for k in range(0, -k0 + 1):
        assert _matches(pmf(mech, -k), pmf(mech, k)), k


@pytest.mark.parametrize("q", [0.4, 0.3, 0.05, 0.999999])
def test_geometric_abs_exp_moment_is_the_term_by_term_sum(q):
    mech = CenteredGeometric(q)
    off = mech.offset
    for t in (0.5, 1.0, 3.0, 40.0, 1e3):
        r = 1.0 / t
        if (1 - q) * math.exp(r) >= 1:
            assert mech.abs_exp_moment(t) == math.inf
            continue
        ks = np.arange(0, 20_000)
        want = math.fsum(np.exp(math.log(q) + ks * math.log1p(-q) + np.abs(ks - off) * r))
        assert mech.abs_exp_moment(t) == pytest.approx(want, rel=1e-12)


def test_psi1_guard_is_free_of_scale():
    assert psi1_norm(parse_mechanism("lap:b=1e12")) == pytest.approx(2e12, rel=1e-9)
    assert psi1_norm(parse_mechanism("lap:b=4e11")) == pytest.approx(8e11, rel=1e-9)
    start = time.perf_counter()
    psi = psi1_norm(parse_mechanism("geo:q=1e-12"))
    assert time.perf_counter() - start < 1.0
    assert math.isfinite(psi) and psi > 1e12


def test_psi1_of_an_overflowing_variance_is_finite():
    # the bracket starts at sqrt of the largest float: lap keeps its closed
    # form 2 b, and geo the q psi1 of a law whose variance is finite
    geo = 1e-150 * psi1_norm(parse_mechanism("geo:q=1e-150"))
    for text, want in (("lap:b=1e154", 2e154), ("lap:b=1e300", 2e300),
                       ("geo:q=1e-170", geo / 1e-170), ("geo:q=1e-300", geo / 1e-300)):
        mech = parse_mechanism(text)
        assert mech.moments()[1] == math.inf
        assert psi1_norm(mech) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("text", ["herm:a1=1e6,a2=1e6", "herm2:a1=1e300,a2=1",
                                  "tsp:lambda=1e5,mu=1e5"])
def test_pmf_table_over_the_cap_is_refused(text):
    mech = parse_mechanism(text)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"pmf tables .*over the cap of {_MAX_TABLE}"):
        psi1_norm(mech)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("text", ["herm:a1=1e6,a2=1e6", "tsp:lambda=1.2e10,mu=1.2e10"])
def test_pmf_table_over_the_cap_is_refused_before_the_poisson_walk(text, monkeypatch):
    # n = 2 K + 1 > var / 2 for every compound law, so a variance over
    # 2 x the cap is refused from the variance alone, without the walk
    def walk(lam, tail):
        raise AssertionError("the Poisson tail was walked")
    monkeypatch.setattr(noise, "_poisson_cutoff", walk)
    with pytest.raises(ValueError, match=rf"its variance .* over the cap of {_MAX_TABLE}"):
        pmf(parse_mechanism(text), 0)


# ---------------------------------------------------------------------------
# sums of n draws, each drawn from the n-fold law
# ---------------------------------------------------------------------------

# geo at q = 0.25 has an integer offset (3), so its support is integer
SUM_MECHS = [DiscreteLaplace(0.5), CenteredGeometric(0.25), Hermite(1.2, 0.8),
             TwoSideHermite(4 * LAM / 5, LAM / 5), TwoSidePoisson(1.5, 1.0)]


def _n_fold_pmf(mech, n: int) -> tuple[int, np.ndarray]:
    """(k0, P) with P[i] = P(X_1 + ... + X_n = k0 + i), by n - 1 convolutions
    of the law's pmf on [-K, K], K its 1e-15 support cutoff."""
    K = mech.support_cutoff(1e-15)
    one = np.array([pmf(mech, k) for k in range(-K, K + 1)])
    out = one
    for _ in range(n - 1):
        out = np.convolve(out, one)
    return -n * K, out


@pytest.mark.parametrize("n", [2, 7, 50])
@pytest.mark.parametrize("mech", SUM_MECHS, ids=mechanism_label)
def test_discrete_sum_draw_has_the_n_fold_law(mech, n):
    k0, p = _n_fold_pmf(mech, n)
    draws = np.sort(sample(mech, np.random.default_rng([n, 23]), 40_000, terms=n))
    ks = np.arange(k0, k0 + p.size)
    assert np.array_equal(draws, np.rint(draws)) and ks[0] <= draws[0] <= draws[-1] <= ks[-1]
    ecdf = np.searchsorted(draws, ks, side="right") / draws.size
    # DKW: P(sup |ECDF - F| > eps) <= 2 exp(-2 N eps^2) = 1e-6
    eps = math.sqrt(math.log(2 / 1e-6) / (2 * draws.size))
    assert np.max(np.abs(ecdf - np.cumsum(p))) < eps
    if isinstance(mech, noise.CompoundPoisson):
        # the n-fold pmf is the table of the same law at n x its intensities
        t0, table = mech.sum_law(n)._pmf_table
        lo, hi = min(k0, t0), max(k0 + p.size, t0 + table.size)
        a, b = np.zeros(hi - lo), np.zeros(hi - lo)
        a[k0 - lo:k0 - lo + p.size] = p
        b[t0 - lo:t0 - lo + table.size] = table
        assert np.max(np.abs(a - b)) <= 1e-12


@pytest.mark.parametrize("n", [2, 7, 50])
def test_laplace_sum_draw_matches_term_by_term_sums(n):
    mech = ContinuousLaplace(1.3)
    one = sample(mech, np.random.default_rng([n, 29]), 20_000, terms=n)
    terms = sample(mech, np.random.default_rng([n, 31]), size=(n, 20_000)).sum(axis=0)
    assert stats.ks_2samp(one, terms).pvalue > 1e-6


@pytest.mark.parametrize("text", ["geo:q=1e-12", "dlap:p=0.999999999999",
                                  "tsp:lambda=1e12,mu=0"])
def test_sum_range_is_numpys_own(text):
    # the widest sum law sum_in_range admits is drawn; one term more, numpy refuses
    mech = parse_mechanism(text)
    lo = _widest_sum(mech)
    rng = np.random.default_rng(0)
    assert np.all(np.isfinite(mech.draw_sum(rng, lo, 4)))
    with pytest.raises(ValueError, match="too large"):
        mech.draw_sum(rng, lo + 1, 4)


def _widest_sum(mech) -> int:
    lo, hi = 1, 2**40
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mech.sum_in_range(mid) else (lo, mid)
    return lo


@pytest.mark.parametrize("text", ["herm:a1=1,a2=5e11", "herm2:a1=1,a2=1e12",
                                  "herm2:a1=1e12,a2=1"])
def test_hermite_sum_range_keeps_the_draw_in_int64(text):
    # N1 + 2 N2 of the widest admitted sum law stays near its mean, not wrapped
    # past 2^63; 2^24 terms would put it past, so that sum is out of range
    mech = parse_mechanism(text)
    lo = _widest_sum(mech)
    assert not mech.sum_in_range(2**24)
    mean, var = mech.sum_law(lo).moments()
    y = sample(mech, np.random.default_rng(0), 1000, terms=lo)
    assert np.all(np.abs(y - mean) <= 10 * math.sqrt(var))


# laws one of whose single draws numpy cannot make within int64 or a float: it
# would wrap (herm), saturate at 2^63 - 1 (geo; 4.3e-18 is just past 40 means
# within it), refuse the intensity (herm2, tsp) or overflow (lap)
PAST_THE_RANGE = ["herm:a1=1,a2=5e18", "geo:q=1e-19", "geo:q=4.3e-18",
                  "herm2:a1=1e19,a2=1", "tsp:lambda=1e19,mu=1", "lap:b=inf",
                  "lap:b=1e308"]


@pytest.mark.parametrize("text", PAST_THE_RANGE)
def test_sample_refuses_a_single_draw_out_of_range(text):
    mech = parse_mechanism(text)
    assert not mech.sum_in_range(1)
    label = re.escape(mechanism_label(mech))
    for size in (None, 4, (2, 3)):
        with pytest.raises(ValueError, match=rf"^{label}: a draw is past numpy's range$"):
            sample(mech, np.random.default_rng(0), size)


def test_a_geometric_draw_in_range_is_drawn():
    # mean 2.3e17 failures; a draw reaches the int64 cap with probability e^-40.5
    mech = parse_mechanism("geo:q=4.4e-18")
    assert mech.sum_in_range(1)
    y = sample(mech, np.random.default_rng(0), 1000)
    assert np.all(np.isfinite(y)) and y.max() < 8e18 - mech.offset
    assert abs(y.mean()) <= 10 * math.sqrt(mech.moments()[1] / y.size)


def test_a_laplace_draw_in_range_is_drawn():
    # the largest draw of numpy's laplace is 36.05 b, within a float here
    mech = parse_mechanism("lap:b=1e300")
    assert mech.sum_in_range(1) and not mech.sum_in_range(2**24)
    y = sample(mech, np.random.default_rng(0), 1000)
    assert np.all(np.isfinite(y)) and np.abs(y).max() > 1e300


def test_sample_refuses_a_sum_out_of_range():
    mech = parse_mechanism("herm:a1=1,a2=5e11")
    with pytest.raises(ValueError, match=r"herm:a1=1\.0,a2=500000000000\.0: the law of a sum of "
                                         r"16777216 draws is past numpy's range"):
        sample(mech, np.random.default_rng(0), 4, terms=2**24)
