"""Noise mechanisms for private degree release.

Each mechanism is an immutable value exposing exact moments, a sampler
driven by a caller-supplied generator, a pmf for the discrete laws, and
a sub-Gamma witness (upsilon, c): parameters such that the centered
mechanism satisfies

    log E exp(s X) <= s^2 * upsilon / (2 (1 - c |s|)),   |s| < 1/c.

Witness routes:

* Compound-Poisson mechanisms (Hermite, two-sided Hermite, two-sided
  Poisson) get the analytic witness (variance, r/3), where r is the
  largest jump size of the compound representation.
* Geometric-type mechanisms (discrete Laplace, centered geometric) and
  the continuous Laplace go through the sub-exponential norm
  psi1 = inf{t > 0 : E exp(|X|/t) <= 2}, computed by bisection on the
  exact expectation, with (upsilon, c) = ((2 psi1)^2, 2 psi1).

The mechanism grammar used by the CLI:

    lap:b=1.0   dlap:p=0.5   geo:q=0.5   herm:a1=1.0,a2=0.5
    herm2:a1=1.2,a2=0.3   tsp:lambda=2,mu=2

Keys are case-insensitive.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np


@dataclass(frozen=True)
class SubGammaParams:
    """Variance factor and scale parameter of a sub-Gamma MGF envelope."""

    upsilon: float
    c: float

    def __post_init__(self):
        if not (self.upsilon > 0):
            raise ValueError("upsilon must be positive")
        if self.c < 0:
            raise ValueError("scale parameter c must be nonnegative")

    def mgf_bound(self, s) -> np.ndarray | float:
        """exp(s^2 upsilon / (2 (1 - c|s|))) on |s| < 1/c."""
        sa = np.asarray(s, dtype=float)
        denom = 1.0 - self.c * np.abs(sa)
        if np.any(denom <= 0):
            raise ValueError("MGF envelope only valid for |s| < 1/c")
        out = np.exp(sa * sa * self.upsilon / (2.0 * denom))
        return out if np.ndim(s) else float(out)


@dataclass(frozen=True)
class ContinuousLaplace:
    """Zero-mean Laplace noise with scale b (density exp(-|x|/b) / 2b)."""

    b: float

    def __post_init__(self):
        if not (self.b > 0):
            raise ValueError("Laplace scale b must be positive")


@dataclass(frozen=True)
class DiscreteLaplace:
    """Two-sided geometric law P(X = k) = (1-p)/(1+p) p^|k| on the integers."""

    p: float

    def __post_init__(self):
        if not (0 < self.p < 1):
            raise ValueError("discrete Laplace parameter p must be in (0, 1)")


@dataclass(frozen=True)
class CenteredGeometric:
    """Geometric count of failures before a success, centered at its mean.

    The raw law is P(G = k) = q (1-q)^k for k = 0, 1, 2, ... with mean
    (1-q)/q and variance (1-q)/q^2; samples return G - (1-q)/q.
    """

    q: float

    def __post_init__(self):
        if not (0 < self.q < 1):
            raise ValueError("geometric parameter q must be in (0, 1)")

    @property
    def offset(self) -> float:
        return (1.0 - self.q) / self.q


@dataclass(frozen=True)
class Hermite:
    """Hermite law Y = N1 + 2 N2 with independent Poisson counts.

    a1 and a2 are the raw Poisson intensities of N1 and N2. Mean is
    a1 + 2 a2 and variance a1 + 4 a2; support is the nonnegative
    integers and the largest jump is 2.
    """

    a1: float
    a2: float

    def __post_init__(self):
        if not (self.a1 > 0 and self.a2 > 0):
            raise ValueError("Hermite intensities a1, a2 must be positive")


@dataclass(frozen=True)
class TwoSideHermite:
    """Difference of two independent Hermite(a1, a2) draws (zero mean)."""

    a1: float
    a2: float

    def __post_init__(self):
        if not (self.a1 > 0 and self.a2 > 0):
            raise ValueError("Hermite intensities a1, a2 must be positive")


@dataclass(frozen=True)
class TwoSidePoisson:
    """Difference of independent Poisson(lam) and Poisson(mu) counts."""

    lam: float
    mu: float

    def __post_init__(self):
        if self.lam < 0 or self.mu < 0:
            raise ValueError("two-sided Poisson intensities must be nonnegative")
        if self.lam == 0 and self.mu == 0:
            raise ValueError("two-sided Poisson needs lam > 0 or mu > 0")


NoiseMechanism = Union[
    ContinuousLaplace,
    DiscreteLaplace,
    CenteredGeometric,
    Hermite,
    TwoSideHermite,
    TwoSidePoisson,
]

_DISCRETE = (DiscreteLaplace, Hermite, TwoSideHermite, TwoSidePoisson)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def sample(mech: NoiseMechanism, rng: np.random.Generator, size=None):
    """Draw from a mechanism; integer-valued laws return integer-valued floats."""
    if isinstance(mech, ContinuousLaplace):
        return rng.laplace(0.0, mech.b, size=size)
    if isinstance(mech, DiscreteLaplace):
        # difference of two iid geometric(1-p) failure counts
        g1 = rng.geometric(1.0 - mech.p, size=size)
        g2 = rng.geometric(1.0 - mech.p, size=size)
        return (g1 - g2).astype(float) if size is not None else float(g1 - g2)
    if isinstance(mech, CenteredGeometric):
        g = rng.geometric(mech.q, size=size) - 1  # failures before success
        return g - mech.offset
    if isinstance(mech, Hermite):
        y = rng.poisson(mech.a1, size=size) + 2 * rng.poisson(mech.a2, size=size)
        return y.astype(float) if size is not None else float(y)
    if isinstance(mech, TwoSideHermite):
        y1 = rng.poisson(mech.a1, size=size) + 2 * rng.poisson(mech.a2, size=size)
        y2 = rng.poisson(mech.a1, size=size) + 2 * rng.poisson(mech.a2, size=size)
        return (y1 - y2).astype(float) if size is not None else float(y1 - y2)
    if isinstance(mech, TwoSidePoisson):
        z = rng.poisson(mech.lam, size=size) - rng.poisson(mech.mu, size=size)
        return z.astype(float) if size is not None else float(z)
    raise TypeError(f"unknown mechanism {mech!r}")


def moments(mech: NoiseMechanism) -> tuple[float, float]:
    """Exact (mean, variance)."""
    if isinstance(mech, ContinuousLaplace):
        return 0.0, 2.0 * mech.b ** 2
    if isinstance(mech, DiscreteLaplace):
        return 0.0, 2.0 * mech.p / (1.0 - mech.p) ** 2
    if isinstance(mech, CenteredGeometric):
        return 0.0, (1.0 - mech.q) / mech.q ** 2
    if isinstance(mech, Hermite):
        return mech.a1 + 2.0 * mech.a2, mech.a1 + 4.0 * mech.a2
    if isinstance(mech, TwoSideHermite):
        return 0.0, 2.0 * (mech.a1 + 4.0 * mech.a2)
    if isinstance(mech, TwoSidePoisson):
        return mech.lam - mech.mu, mech.lam + mech.mu
    raise TypeError(f"unknown mechanism {mech!r}")


# ---------------------------------------------------------------------------
# modified Bessel function of the first kind (series form)
# ---------------------------------------------------------------------------

def bessel_i(n: int, x: float) -> float:
    """I_n(x) = sum_k (x/2)^(2k+n) / (k! (k+n)!) for integer n >= 0, x >= 0.

    The series is summed with the term recursion
    t_{k+1} = t_k (x/2)^2 / ((k+1)(k+n+1)) and truncated once a term
    drops below 1e-16 of the running sum. Adequate for the moderate
    arguments used here; no asymptotic branch is provided.
    """
    if n < 0:
        raise ValueError("order n must be a nonnegative integer (use |k| upstream)")
    if x < 0:
        raise ValueError("argument x must be nonnegative")
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    half = 0.5 * x
    # leading term (x/2)^n / n! via logs to dodge overflow at larger n
    term = math.exp(n * math.log(half) - math.lgamma(n + 1))
    total = term
    h2 = half * half
    k = 0
    while True:
        term *= h2 / ((k + 1) * (k + n + 1))
        total += term
        k += 1
        if term < 1e-16 * total or k > 10_000:
            return total


# ---------------------------------------------------------------------------
# exact pmfs
# ---------------------------------------------------------------------------

def _poisson_pmf(lam: float, k: np.ndarray) -> np.ndarray:
    out = np.zeros(k.shape, dtype=float)
    ok = k >= 0
    kk = k[ok]
    if lam == 0.0:
        out[ok] = (kk == 0).astype(float)
    else:
        out[ok] = np.exp(kk * math.log(lam) - lam -
                         np.array([math.lgamma(v + 1) for v in kk]))
    return out


def _poisson_cutoff(lam: float, tail: float = 1e-15) -> int:
    """Smallest K with P(Poisson(lam) > K) below the requested tail mass."""
    if lam == 0.0:
        return 0
    k = int(lam)
    p = math.exp(k * math.log(lam) - lam - math.lgamma(k + 1)) if lam > 0 else 1.0
    # walk the upper tail; terms decay super-geometrically past the mode
    total = 0.0
    while True:
        total += p
        k += 1
        p *= lam / k
        if p < tail * max(total, 1e-300) and k > lam + 10:
            return k


def _hermite_pmf_vec(a1: float, a2: float, kmax: int) -> np.ndarray:
    """pmf of Hermite(a1, a2) on 0..kmax via convolution of N1 and 2*N2."""
    m = np.arange(kmax + 1)
    p1 = _poisson_pmf(a1, m)
    out = np.zeros(kmax + 1)
    j_hi = kmax // 2
    p2 = _poisson_pmf(a2, np.arange(j_hi + 1))
    for j in range(j_hi + 1):
        out[2 * j:] += p2[j] * p1[: kmax + 1 - 2 * j]
    return out


def hermite_support_cutoff(a1: float, a2: float, tail: float = 1e-15) -> int:
    return _poisson_cutoff(a1, tail) + 2 * _poisson_cutoff(a2, tail)


def pmf(mech: NoiseMechanism, k: int) -> float:
    """Exact probability mass at integer k for the discrete mechanisms.

    Raises
    ------
    TypeError
        For the continuous Laplace mechanism, which has no pmf.
    """
    if isinstance(mech, ContinuousLaplace):
        raise TypeError("continuous mechanism has a density, not a pmf")
    if not float(k).is_integer():
        return 0.0
    k = int(k)
    if isinstance(mech, DiscreteLaplace):
        return (1.0 - mech.p) / (1.0 + mech.p) * mech.p ** abs(k)
    if isinstance(mech, CenteredGeometric):
        # support is {j - offset : j = 0, 1, ...}; integer k hits it only
        # when the offset is an integer
        off = mech.offset
        j = k + off
        if abs(j - round(j)) > 1e-12 or round(j) < 0:
            return 0.0
        j = int(round(j))
        return mech.q * (1.0 - mech.q) ** j
    if isinstance(mech, Hermite):
        if k < 0:
            return 0.0
        j_hi = k // 2
        tot = 0.0
        for j in range(j_hi + 1):
            tot += (math.exp((k - 2 * j) * math.log(mech.a1) - mech.a1 -
                             math.lgamma(k - 2 * j + 1)) *
                    math.exp(j * math.log(mech.a2) - mech.a2 - math.lgamma(j + 1)))
        return tot
    if isinstance(mech, TwoSideHermite):
        K = hermite_support_cutoff(mech.a1, mech.a2)
        if abs(k) > K:
            return 0.0
        h = _hermite_pmf_vec(mech.a1, mech.a2, K + abs(k))
        # P(Y1 - Y2 = k) = sum_m P(Y1 = k + m) P(Y2 = m)
        m = np.arange(0, K + 1)
        lead = k + m
        ok = lead >= 0
        return float(np.sum(h[lead[ok]] * h[m[ok]]))
    if isinstance(mech, TwoSidePoisson):
        lam, mu = mech.lam, mech.mu
        if mu == 0.0:
            return 0.0 if k < 0 else math.exp(
                k * math.log(lam) - lam - math.lgamma(k + 1))
        if lam == 0.0:
            return 0.0 if k > 0 else math.exp(
                (-k) * math.log(mu) - mu - math.lgamma(-k + 1))
        from scipy.special import ive  # imported here: scipy is slow to load

        # I_k(x) e^-(lam + mu) as ive(k, x) e^(x - lam - mu): the unscaled
        # I_k(x) overflows where e^-(lam + mu) underflows
        x = 2.0 * math.sqrt(lam * mu)
        return (math.exp(x - lam - mu) * (lam / mu) ** (k / 2.0) *
                float(ive(abs(k), x)))
    raise TypeError(f"unknown mechanism {mech!r}")


def support_cutoff(mech: NoiseMechanism, tail: float = 1e-12) -> int:
    """K such that the mass outside [-K, K] is below the requested tail."""
    if isinstance(mech, DiscreteLaplace):
        # tail mass beyond K is ~ 2 p^(K+1) / (1 + p)
        return max(2, int(math.log(tail / 2.0) / math.log(mech.p)) + 2)
    if isinstance(mech, CenteredGeometric):
        return max(2, int(math.log(tail) / math.log(1.0 - mech.q)) + 2 +
                   int(mech.offset) + 1)
    if isinstance(mech, Hermite):
        return hermite_support_cutoff(mech.a1, mech.a2, tail)
    if isinstance(mech, TwoSideHermite):
        return hermite_support_cutoff(mech.a1, mech.a2, tail)
    if isinstance(mech, TwoSidePoisson):
        return _poisson_cutoff(max(mech.lam, 1e-12), tail) + \
            _poisson_cutoff(max(mech.mu, 1e-12), tail)
    raise TypeError(f"no discrete support for {mech!r}")


# ---------------------------------------------------------------------------
# exact MGFs and the psi1 norm
# ---------------------------------------------------------------------------

def centered_mgf(mech: NoiseMechanism, s) -> np.ndarray | float:
    """Exact E exp(s (X - E X)) where finite; +inf where the MGF diverges."""
    sa = np.asarray(s, dtype=float)
    if isinstance(mech, ContinuousLaplace):
        u = mech.b * sa
        out = np.where(np.abs(u) < 1.0, 1.0 / (1.0 - u * u), np.inf)
    elif isinstance(mech, DiscreteLaplace):
        es, ems = np.exp(sa), np.exp(-sa)
        ok = (mech.p * es < 1.0) & (mech.p * ems < 1.0)
        out = np.where(ok, (1.0 - mech.p) ** 2 /
                       ((1.0 - mech.p * es) * (1.0 - mech.p * ems)), np.inf)
    elif isinstance(mech, CenteredGeometric):
        es = np.exp(sa)
        ok = (1.0 - mech.q) * es < 1.0
        raw = np.where(ok, mech.q / (1.0 - (1.0 - mech.q) * es), np.inf)
        out = np.exp(-sa * mech.offset) * raw
    elif isinstance(mech, Hermite):
        out = np.exp(mech.a1 * (np.exp(sa) - 1.0 - sa) +
                     mech.a2 * (np.exp(2.0 * sa) - 1.0 - 2.0 * sa))
    elif isinstance(mech, TwoSideHermite):
        def g(t):
            return (mech.a1 * (np.exp(t) - 1.0 - t) +
                    mech.a2 * (np.exp(2.0 * t) - 1.0 - 2.0 * t))
        out = np.exp(g(sa) + g(-sa))
    elif isinstance(mech, TwoSidePoisson):
        out = np.exp(mech.lam * (np.exp(sa) - 1.0 - sa) +
                     mech.mu * (np.exp(-sa) - 1.0 + sa))
    else:
        raise TypeError(f"unknown mechanism {mech!r}")
    return out if np.ndim(s) else float(out)


def abs_exp_moment(mech: NoiseMechanism, t: float) -> float:
    """Exact E exp(|X| / t), or +inf when the expectation diverges."""
    if t <= 0:
        return math.inf
    r = 1.0 / t
    if isinstance(mech, ContinuousLaplace):
        return t / (t - mech.b) if t > mech.b else math.inf
    if isinstance(mech, DiscreteLaplace):
        u = mech.p * math.exp(r)
        if u >= 1.0:
            return math.inf
        return (1.0 - mech.p) / (1.0 + mech.p) * (1.0 + 2.0 * u / (1.0 - u))
    if isinstance(mech, CenteredGeometric):
        q, off = mech.q, mech.offset
        u = (1.0 - q) * math.exp(r)
        if u >= 1.0:
            return math.inf
        k0 = int(math.floor(off))
        total = 0.0
        for k in range(k0 + 1):  # below-mean part, finite
            total += q * (1.0 - q) ** k * math.exp((off - k) * r)
        # above-mean geometric tail, closed form from k0+1 upward
        head = q * (1.0 - q) ** (k0 + 1) * math.exp((k0 + 1 - off) * r)
        total += head / (1.0 - u)
        return total
    if isinstance(mech, (Hermite, TwoSideHermite, TwoSidePoisson)):
        K = support_cutoff(mech, tail=1e-16)
        ks = np.arange(-K, K + 1)
        mean, _ = moments(mech)
        ps = np.array([pmf(mech, int(k)) for k in ks])
        return float(np.sum(ps * np.exp(np.abs(ks - mean) * r)))
    raise TypeError(f"unknown mechanism {mech!r}")


def psi1_norm(mech: NoiseMechanism) -> float:
    """Sub-exponential norm inf{t > 0 : E exp(|X|/t) <= 2} by bisection.

    The expectation is exact per mechanism (closed form or a summation
    truncated far below the working precision); 60 bisection steps give
    relative precision well beyond 1e-9.
    """
    _, var = moments(mech)
    hi = max(math.sqrt(var), 1e-6)
    while abs_exp_moment(mech, hi) > 2.0:
        hi *= 2.0
        if hi > 1e12:
            raise ValueError(f"psi1 norm diverges for {mech!r}")
    lo = hi / 2.0
    while abs_exp_moment(mech, lo) <= 2.0:
        lo /= 2.0
        if lo < 1e-12:
            return lo
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if abs_exp_moment(mech, mid) <= 2.0:
            hi = mid
        else:
            lo = mid
    return hi


def sub_gamma_witness(mech: NoiseMechanism) -> SubGammaParams:
    """A (upsilon, c) pair certifying the sub-Gamma MGF envelope.

    Compound-Poisson mechanisms use (variance, r/3) with r the largest
    jump; the remaining mechanisms use the psi1 route
    ((2 psi1)^2, 2 psi1).
    """
    _, var = moments(mech)
    if isinstance(mech, (Hermite, TwoSideHermite)):
        return SubGammaParams(var, 2.0 / 3.0)
    if isinstance(mech, TwoSidePoisson):
        return SubGammaParams(var, 1.0 / 3.0)
    psi = psi1_norm(mech)
    return SubGammaParams((2.0 * psi) ** 2, 2.0 * psi)


# ---------------------------------------------------------------------------
# mechanism grammar
# ---------------------------------------------------------------------------

_GRAMMAR_HELP = "expected e.g. lap:b=1.0, dlap:p=0.5, geo:q=0.5, " \
                "herm:a1=1.0,a2=0.5, herm2:a1=1.2,a2=0.3, tsp:lambda=2,mu=2"


def parse_mechanism(text: str) -> NoiseMechanism:
    """Parse a mechanism grammar string (case-insensitive keys)."""
    m = re.fullmatch(r"\s*([a-zA-Z0-9]+)\s*:\s*(.*?)\s*", text)
    if not m:
        raise ValueError(f"bad mechanism spec {text!r}; {_GRAMMAR_HELP}")
    name = m.group(1).lower()
    kv: dict[str, float] = {}
    for part in m.group(2).split(","):
        if not part.strip():
            continue
        if "=" not in part:
            raise ValueError(f"bad mechanism parameter {part!r} in {text!r}")
        key, val = part.split("=", 1)
        try:
            kv[key.strip().lower()] = float(val)
        except ValueError:
            raise ValueError(f"non-numeric value in {part!r}") from None
    try:
        if name == "lap":
            return ContinuousLaplace(b=kv.pop("b"))
        if name == "dlap":
            return DiscreteLaplace(p=kv.pop("p"))
        if name == "geo":
            return CenteredGeometric(q=kv.pop("q"))
        if name == "herm":
            return Hermite(a1=kv.pop("a1"), a2=kv.pop("a2"))
        if name == "herm2":
            return TwoSideHermite(a1=kv.pop("a1"), a2=kv.pop("a2"))
        if name == "tsp":
            return TwoSidePoisson(lam=kv.pop("lambda"), mu=kv.pop("mu"))
    except KeyError as exc:
        raise ValueError(f"missing parameter {exc} for mechanism {name!r}") from None
    raise ValueError(f"unknown mechanism {name!r}; {_GRAMMAR_HELP}")


def mechanism_label(mech: NoiseMechanism) -> str:
    """Grammar string for a mechanism (round-trips through parse_mechanism)."""
    if isinstance(mech, ContinuousLaplace):
        return f"lap:b={mech.b!r}"
    if isinstance(mech, DiscreteLaplace):
        return f"dlap:p={mech.p!r}"
    if isinstance(mech, CenteredGeometric):
        return f"geo:q={mech.q!r}"
    if isinstance(mech, TwoSideHermite):
        return f"herm2:a1={mech.a1!r},a2={mech.a2!r}"
    if isinstance(mech, TwoSidePoisson):
        return f"tsp:lambda={mech.lam!r},mu={mech.mu!r}"
    if isinstance(mech, Hermite):
        return f"herm:a1={mech.a1!r},a2={mech.a2!r}"
    raise TypeError(f"unknown mechanism {mech!r}")


def hermite_budget_intensity(lambda0: float = 2.0) -> float:
    """Total Hermite intensity used by the standard noise settings.

    Returns 2 exp(-lambda0/2) / (1 - exp(-lambda0/2))^2 for a privacy
    budget lambda0 (default 2).
    """
    e = math.exp(-lambda0 / 2.0)
    return 2.0 * e / (1.0 - e) ** 2
