"""Noise mechanisms for private degree release.

Each mechanism is a frozen dataclass whose methods carry its whole law,
so a law is defined in its class and nowhere else, and callers call
those methods directly. The module keeps ``sample`` (draws as floats),
``pmf`` and ``psi1_norm``, the bisection shared by every law. A law
has a sampler driven by a caller-supplied generator, exact moments, the
centred MGF, E exp(|X|/t), a pmf when it is discrete, and a sub-Gamma
witness (upsilon, c): parameters such that the centered mechanism
satisfies

    log E exp(s X) <= s^2 * upsilon / (2 (1 - c |s|)),   |s| < 1/c.

Witness routes:

* Compound-Poisson mechanisms (Hermite, two-sided Hermite, two-sided
  Poisson; subclasses of ``CompoundPoisson``) get the analytic witness
  (variance, r/3), where r is the class constant ``jump``, the largest
  jump size of the compound representation. Their E exp(|X|/t) sums a
  pmf table over [-K, K] that is built once per mechanism.
* Geometric-type mechanisms (discrete Laplace, centered geometric) and
  the continuous Laplace go through the sub-exponential norm
  psi1 = inf{t > 0 : E exp(|X|/t) <= 2}, computed by bisection on the
  exact expectation, with (upsilon, c) = ((2 psi1)^2, 2 psi1).

A new mechanism is a frozen dataclass subclassing ``NoiseMechanism``
(or ``CompoundPoisson``, setting ``jump``). It sets the grammar ``name``
and ``keys`` (one per field, in field order) and defines
``draw(rng, size)`` (integer laws may return integers), ``moments()`` as
exact (mean, variance), ``centered_mgf(s)`` on a float array and, outside
``CompoundPoisson``, ``abs_exp_moment(t)`` for t > 0. A discrete law adds
``mass(k)`` at an integer k and ``support_cutoff(tail)``. Listing the
class in ``_MECHANISMS`` lets the grammar parse it.

The mechanism grammar used by the CLI:

    lap:b=1.0   dlap:p=0.5   geo:q=0.5   herm:a1=1.0,a2=0.5
    herm2:a1=1.2,a2=0.3   tsp:lambda=2,mu=2

Keys are case-insensitive. Where a release may have no noise (the CLI's
``--noise`` and a scenario file's ``noise`` key), ``none`` says so.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from functools import cached_property
from typing import ClassVar

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


class NoiseMechanism:
    """Base of the mechanism classes (see the module docstring)."""

    name: ClassVar[str]  # grammar name
    keys: ClassVar[tuple[str, ...]]  # grammar key of each field, in field order

    def pmf(self, k) -> float:
        if not float(k).is_integer():
            return 0.0
        return self.mass(int(k))

    def sub_gamma_witness(self) -> SubGammaParams:
        psi = psi1_norm(self)
        return SubGammaParams((2.0 * psi) ** 2, 2.0 * psi)


class CompoundPoisson(NoiseMechanism):
    """A discrete law with a compound-Poisson representation whose largest
    jump is ``jump``: witness (variance, jump / 3), and E exp(|X|/t) from
    a pmf table over the support."""

    jump: ClassVar[float]

    def sub_gamma_witness(self) -> SubGammaParams:
        return SubGammaParams(self.moments()[1], self.jump / 3.0)

    @cached_property
    def _abs_table(self) -> tuple[np.ndarray, np.ndarray]:
        """|k - mean| and pmf(k) for k in [-K, K], K the 1e-16 tail cutoff; a
        zero mass gets deviation 0, so it adds 0 where exp(|k - mean|/t) is inf."""
        K = self.support_cutoff(1e-16)
        ks = np.arange(-K, K + 1)
        ps = np.array([self.pmf(int(k)) for k in ks])
        return np.where(ps > 0, np.abs(ks - self.moments()[0]), 0.0), ps

    def abs_exp_moment(self, t: float) -> float:
        dev, ps = self._abs_table
        with np.errstate(over="ignore"):  # a small t overflows to inf: E = inf
            return float(np.sum(ps * np.exp(dev * (1.0 / t))))


@dataclass(frozen=True)
class ContinuousLaplace(NoiseMechanism):
    """Zero-mean Laplace noise with scale b (density exp(-|x|/b) / 2b)."""

    b: float
    name = "lap"
    keys = ("b",)

    def __post_init__(self):
        if not (self.b > 0):
            raise ValueError("Laplace scale b must be positive")

    def draw(self, rng, size):
        return rng.laplace(0.0, self.b, size=size)

    def moments(self) -> tuple[float, float]:
        return 0.0, 2.0 * self.b ** 2

    def centered_mgf(self, s: np.ndarray) -> np.ndarray:
        u = self.b * s
        return np.where(np.abs(u) < 1.0, 1.0 / (1.0 - u * u), np.inf)

    def abs_exp_moment(self, t: float) -> float:
        return t / (t - self.b) if t > self.b else math.inf

    def pmf(self, k) -> float:
        raise TypeError("continuous mechanism has a density, not a pmf")

    def support_cutoff(self, tail: float) -> int:
        raise TypeError(f"no discrete support for {self!r}")


@dataclass(frozen=True)
class DiscreteLaplace(NoiseMechanism):
    """Two-sided geometric law P(X = k) = (1-p)/(1+p) p^|k| on the integers."""

    p: float
    name = "dlap"
    keys = ("p",)

    def __post_init__(self):
        if not (0 < self.p < 1):
            raise ValueError("discrete Laplace parameter p must be in (0, 1)")

    def draw(self, rng, size):
        # difference of two iid geometric(1-p) failure counts
        return rng.geometric(1.0 - self.p, size=size) - rng.geometric(1.0 - self.p, size=size)

    def moments(self) -> tuple[float, float]:
        return 0.0, 2.0 * self.p / (1.0 - self.p) ** 2

    def centered_mgf(self, s: np.ndarray) -> np.ndarray:
        es, ems = np.exp(s), np.exp(-s)
        ok = (self.p * es < 1.0) & (self.p * ems < 1.0)
        return np.where(ok, (1.0 - self.p) ** 2 /
                        ((1.0 - self.p * es) * (1.0 - self.p * ems)), np.inf)

    def abs_exp_moment(self, t: float) -> float:
        if 1.0 / t >= -math.log(self.p):  # p e^(1/t) >= 1, and exp may overflow
            return math.inf
        u = self.p * math.exp(1.0 / t)
        if u >= 1.0:
            return math.inf
        return (1.0 - self.p) / (1.0 + self.p) * (1.0 + 2.0 * u / (1.0 - u))

    def mass(self, k: int) -> float:
        return (1.0 - self.p) / (1.0 + self.p) * self.p ** abs(k)

    def support_cutoff(self, tail: float) -> int:
        # tail mass beyond K is ~ 2 p^(K+1) / (1 + p)
        return max(2, int(math.log(tail / 2.0) / math.log(self.p)) + 2)


@dataclass(frozen=True)
class CenteredGeometric(NoiseMechanism):
    """Geometric count of failures before a success, centered at its mean.

    The raw law is P(G = k) = q (1-q)^k for k = 0, 1, 2, ... with mean
    (1-q)/q and variance (1-q)/q^2; samples return G - (1-q)/q.
    """

    q: float
    name = "geo"
    keys = ("q",)

    def __post_init__(self):
        if not (0 < self.q < 1):
            raise ValueError("geometric parameter q must be in (0, 1)")

    @property
    def offset(self) -> float:
        return (1.0 - self.q) / self.q

    def draw(self, rng, size):
        g = rng.geometric(self.q, size=size) - 1  # failures before success
        return g - self.offset

    def moments(self) -> tuple[float, float]:
        return 0.0, (1.0 - self.q) / self.q ** 2

    def centered_mgf(self, s: np.ndarray) -> np.ndarray:
        es = np.exp(s)
        ok = (1.0 - self.q) * es < 1.0
        raw = np.where(ok, self.q / (1.0 - (1.0 - self.q) * es), np.inf)
        return np.exp(-s * self.offset) * raw

    def abs_exp_moment(self, t: float) -> float:
        q, off, r = self.q, self.offset, 1.0 / t
        if r >= -math.log1p(-q):  # (1-q) e^r >= 1, and exp may overflow
            return math.inf
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

    def mass(self, k: int) -> float:
        # support is {j - offset : j = 0, 1, ...}; integer k hits it only
        # when the offset is an integer
        j = k + self.offset
        if abs(j - round(j)) > 1e-12 or round(j) < 0:
            return 0.0
        return self.q * (1.0 - self.q) ** int(round(j))

    def support_cutoff(self, tail: float) -> int:
        return max(2, int(math.log(tail) / math.log(1.0 - self.q)) + 2 +
                   int(self.offset) + 1)


@dataclass(frozen=True)
class _HermiteLaw(CompoundPoisson):
    """Shared parts of the one- and two-sided Hermite laws, built on one
    Hermite draw Y = N1 + 2 N2 with Poisson(a1) and Poisson(a2) counts."""

    a1: float
    a2: float
    keys = ("a1", "a2")
    jump = 2.0

    def __post_init__(self):
        if not (self.a1 > 0 and self.a2 > 0):
            raise ValueError("Hermite intensities a1, a2 must be positive")

    def _one_draw(self, rng, size):
        return rng.poisson(self.a1, size=size) + 2 * rng.poisson(self.a2, size=size)

    def _one_cgf(self, s: np.ndarray) -> np.ndarray:
        """log E exp(s (Y - E Y)) of one Hermite draw."""
        return (self.a1 * (np.exp(s) - 1.0 - s) +
                self.a2 * (np.exp(2.0 * s) - 1.0 - 2.0 * s))

    def support_cutoff(self, tail: float) -> int:
        return _poisson_cutoff(self.a1, tail) + 2 * _poisson_cutoff(self.a2, tail)

    @cached_property
    def _one_pmf(self) -> tuple[int, np.ndarray]:
        """Support cutoff K (1e-15 tail) of one Hermite draw and its pmf h on
        0..2K, the convolution of N1 and 2 N2; no entry depends on K."""
        K = self.support_cutoff(1e-15)
        p1 = _poisson_pmf(self.a1, np.arange(2 * K + 1))
        p2 = _poisson_pmf(self.a2, np.arange(K + 1))
        h = np.zeros(2 * K + 1)
        for j in range(K + 1):
            h[2 * j:] += p2[j] * p1[: 2 * K + 1 - 2 * j]
        return K, h


@dataclass(frozen=True)
class Hermite(_HermiteLaw):
    """Hermite law Y = N1 + 2 N2 with independent Poisson counts.

    a1 and a2 are the raw Poisson intensities of N1 and N2. Mean is
    a1 + 2 a2 and variance a1 + 4 a2; support is the nonnegative
    integers and the largest jump is 2.
    """

    name = "herm"

    def draw(self, rng, size):
        return self._one_draw(rng, size)

    def moments(self) -> tuple[float, float]:
        return self.a1 + 2.0 * self.a2, self.a1 + 4.0 * self.a2

    def centered_mgf(self, s: np.ndarray) -> np.ndarray:
        return np.exp(self._one_cgf(s))

    def mass(self, k: int) -> float:
        K, h = self._one_pmf  # past 2K the mass is far below the 1e-15 tail: 0
        return float(h[k]) if 0 <= k <= 2 * K else 0.0


@dataclass(frozen=True)
class TwoSideHermite(_HermiteLaw):
    """Difference of two independent Hermite(a1, a2) draws (zero mean)."""

    name = "herm2"

    def draw(self, rng, size):
        return self._one_draw(rng, size) - self._one_draw(rng, size)

    def moments(self) -> tuple[float, float]:
        return 0.0, 2.0 * (self.a1 + 4.0 * self.a2)

    def centered_mgf(self, s: np.ndarray) -> np.ndarray:
        return np.exp(self._one_cgf(s) + self._one_cgf(-s))

    def mass(self, k: int) -> float:
        K, h = self._one_pmf
        if abs(k) > K:
            return 0.0
        # P(Y1 - Y2 = k) = sum_m P(Y1 = k + m) P(Y2 = m), over m >= 0, k + m >= 0
        m = np.arange(max(0, -k), K + 1)
        return float(np.sum(h[k + m] * h[m]))


@dataclass(frozen=True)
class TwoSidePoisson(CompoundPoisson):
    """Difference of independent Poisson(lam) and Poisson(mu) counts."""

    lam: float
    mu: float
    name = "tsp"
    keys = ("lambda", "mu")
    jump = 1.0

    def __post_init__(self):
        if self.lam < 0 or self.mu < 0:
            raise ValueError("two-sided Poisson intensities must be nonnegative")
        if self.lam == 0 and self.mu == 0:
            raise ValueError("two-sided Poisson needs lam > 0 or mu > 0")

    def draw(self, rng, size):
        return rng.poisson(self.lam, size=size) - rng.poisson(self.mu, size=size)

    def moments(self) -> tuple[float, float]:
        return self.lam - self.mu, self.lam + self.mu

    def centered_mgf(self, s: np.ndarray) -> np.ndarray:
        return np.exp(self.lam * (np.exp(s) - 1.0 - s) +
                      self.mu * (np.exp(-s) - 1.0 + s))

    def mass(self, k: int) -> float:
        lam, mu = self.lam, self.mu
        if lam == 0.0 or mu == 0.0:  # one Poisson count, added or subtracted
            j, rate = (k, lam) if mu == 0.0 else (-k, mu)
            return 0.0 if j < 0 else math.exp(j * math.log(rate) - rate - math.lgamma(j + 1))
        from scipy.special import ive  # imported here: scipy is slow to load

        # I_k(x) e^-(lam + mu) as ive(k, x) e^(x - lam - mu): the unscaled
        # I_k(x) overflows where e^-(lam + mu) underflows
        x = 2.0 * math.sqrt(lam * mu)
        return (math.exp(x - lam - mu) * (lam / mu) ** (k / 2.0) *
                float(ive(abs(k), x)))

    def support_cutoff(self, tail: float) -> int:
        return (_poisson_cutoff(max(self.lam, 1e-12), tail) +
                _poisson_cutoff(max(self.mu, 1e-12), tail))


# grammar name -> mechanism class
_MECHANISMS = {cls.name: cls for cls in (ContinuousLaplace, DiscreteLaplace,
                                         CenteredGeometric, Hermite,
                                         TwoSideHermite, TwoSidePoisson)}


# ---------------------------------------------------------------------------
# Poisson helpers
# ---------------------------------------------------------------------------

def _poisson_pmf(lam: float, k: np.ndarray) -> np.ndarray:
    """Poisson(lam) pmf at nonnegative integers k, for lam > 0."""
    return np.exp(k * math.log(lam) - lam - np.array([math.lgamma(v + 1) for v in k]))


def _poisson_cutoff(lam: float, tail: float) -> int:
    """Smallest K with P(Poisson(lam) > K) below the requested tail mass, lam > 0."""
    k = int(lam)
    p = math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))
    # walk the upper tail; terms decay super-geometrically past the mode
    total = 0.0
    while True:
        total += p
        k += 1
        p *= lam / k
        if p < tail * max(total, 1e-300) and k > lam + 10:
            return k


# ---------------------------------------------------------------------------
# float draws, pmf and the sub-exponential norm of any mechanism
# ---------------------------------------------------------------------------

def sample(mech: NoiseMechanism, rng: np.random.Generator, size=None):
    """Draw from a mechanism; integer-valued laws return integer-valued floats."""
    out = mech.draw(rng, size)
    return np.asarray(out, dtype=float) if size is not None else float(out)


def pmf(mech: NoiseMechanism, k: int) -> float:
    """Exact probability mass at integer k for the discrete mechanisms;
    TypeError for the continuous Laplace mechanism, which has no pmf."""
    return mech.pmf(k)


def psi1_norm(mech: NoiseMechanism) -> float:
    """Sub-exponential norm inf{t > 0 : E exp(|X|/t) <= 2} by bisection.

    The expectation is exact per mechanism (closed form or a summation
    truncated far below the working precision); 60 bisection steps give
    relative precision well beyond 1e-9.
    """
    _, var = mech.moments()
    hi = max(math.sqrt(var), 1e-6)
    while mech.abs_exp_moment(hi) > 2.0:
        hi *= 2.0
        if hi > 1e12:
            raise ValueError(f"psi1 norm diverges for {mech!r}")
    lo = hi / 2.0
    while mech.abs_exp_moment(lo) <= 2.0:
        lo /= 2.0
        if lo < 1e-12:
            return lo
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mech.abs_exp_moment(mid) <= 2.0:
            hi = mid
        else:
            lo = mid
    return hi


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
    cls = _MECHANISMS.get(name)
    if cls is None:
        raise ValueError(f"unknown mechanism {name!r}; {_GRAMMAR_HELP}")
    try:
        return cls(*[kv[key] for key in cls.keys])
    except KeyError as exc:
        raise ValueError(f"missing parameter {exc} for mechanism {name!r}") from None


def parse_release(text: str) -> NoiseMechanism | None:
    """The noise of a release: None (raw degrees) for 'none' or an empty
    string, in any case, else ``parse_mechanism(text)``."""
    return None if text.strip().lower() in ("none", "") else parse_mechanism(text)


def mechanism_label(mech: NoiseMechanism) -> str:
    """Grammar string for a mechanism (round-trips through parse_mechanism)."""
    values = (getattr(mech, f.name) for f in fields(mech))
    return f"{mech.name}:" + ",".join(f"{k}={v!r}" for k, v in zip(mech.keys, values))


def hermite_budget_intensity(lambda0: float = 2.0) -> float:
    """Total Hermite intensity used by the standard noise settings.

    Returns 2 exp(-lambda0/2) / (1 - exp(-lambda0/2))^2 for a privacy
    budget lambda0 (default 2).
    """
    e = math.exp(-lambda0 / 2.0)
    return 2.0 * e / (1.0 - e) ** 2
