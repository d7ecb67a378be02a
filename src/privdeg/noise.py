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
  (variance, r/3), r the class constant ``jump``, the largest jump of the
  compound representation. Each builds its pmf once, as one numpy array.
* The others (discrete and continuous Laplace, centered geometric) go
  through the sub-exponential norm psi1 = inf{t > 0 : E exp(|X|/t) <= 2},
  by bisection on the exact expectation: (upsilon, c) = ((2 psi1)^2, 2 psi1).

A new mechanism is a frozen dataclass subclassing ``NoiseMechanism``
(or ``CompoundPoisson``, setting ``jump``). It sets the grammar ``name``
and ``keys`` (one per field, in field order) and defines
``draw(rng, size)`` (integer laws may return integers), ``moments()`` as
exact (mean, variance), ``centered_mgf(s)`` on a float array and, outside
``CompoundPoisson``, ``abs_exp_moment(t)`` for t > 0. A discrete law adds
``support_cutoff(tail)`` and ``mass(k)`` at an integer k, or in
``CompoundPoisson`` its pmf array ``_pmf_array(n)``. Listing the class in
``_MECHANISMS`` lets the grammar parse it.

A law also defines ``draw_sum(rng, terms, size)``: draws of the sum of
``terms`` iid draws, each one draw of that sum's exact law (Laplace as a
difference of Gamma(terms, b) draws, the geometric laws through
NegBin(terms, .)), with ``sum_in_range(terms)`` false when numpy cannot draw
every such law at once or its value could leave int64 or the float range.
``CompoundPoisson`` defines both once: its sum law is the same class at
``terms`` x every intensity field, all of which must be intensities.
``sample(..., terms=n)`` draws through them, a sum whose law is out of
range as a sum of independent in-range sums of n // p or n // p + 1
terms, p parts as few as can be. It refuses, with a ValueError naming the
law, only a single draw (terms = 1) out of range: there numpy would refuse
the intensity (``herm2:a1=1e19,a2=1``) or return values wrapped
(``herm:a1=1,a2=5e18``) or capped (``geo:q=1e-19``) at the int64 range,
or infinite (``lap:b=inf``). Compound-Poisson laws draw their counts
through ``_poisson``, which keeps the Poisson law where numpy's does not.

The mechanism grammar used by the CLI:

    lap:b=1.0   dlap:p=0.5   geo:q=0.5   herm:a1=1.0,a2=0.5
    herm2:a1=1.2,a2=0.3   tsp:lambda=2,mu=2

Keys are case-insensitive. Where a release may have no noise (the CLI's
``--noise`` and a scenario file's ``noise`` key), ``none`` says so.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import ClassVar

import numpy as np

# points of one Poisson pmf table of a compound-Poisson law; its O(points^2) convolutions
# put a two-sided Hermite psi1 norm at about 10 s at the cap (2-core Xeon, numpy 2.4)
_MAX_TABLE = 160_001
_INT64_MAX = float(np.iinfo(np.int64).max)
# numpy.random's POISSON_LAM_MAX: its poisson refuses a larger intensity, and its
# negative_binomial(n, p) a (1 - p) / p (n + 10 sqrt(n)) above it
_LAM_MAX = _INT64_MAX - math.sqrt(_INT64_MAX) * 10
# numpy's poisson (PTRS) sums float terms of size lam log lam in its acceptance step,
# so its log-pmf errs by about 2e-16 lam log lam: 5e-5 here, 9e3 at lam = 1e18 (from
# 1e16 its draws' variance reads 1.4 to 1.6 lam); above this, ``_poisson`` draws instead
_POISSON_PRECISE = 1e10
# values per draw_sum call of the parts of a split sum (and of the bounds table)
_BLOCK = 2**16


@dataclass(frozen=True)
class SubGammaParams:
    """Variance factor and scale parameter of a sub-Gamma MGF envelope."""

    upsilon: float
    c: float

    def __post_init__(self):
        if not (0 < self.upsilon < math.inf):
            raise ValueError(f"upsilon must be positive and finite, got {self.upsilon!r}")
        if not (0 <= self.c < math.inf):
            raise ValueError(f"scale parameter c must be nonnegative and finite, got {self.c!r}")

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

    def sum_in_range(self, terms: int) -> bool:
        """Whether numpy can draw the law of a sum of ``terms`` draws at once,
        every value within int64."""
        return True

    def sub_gamma_witness(self) -> SubGammaParams:
        psi = psi1_norm(self)
        return SubGammaParams((2.0 * psi) * (2.0 * psi), 2.0 * psi)  # inf, not OverflowError


class CompoundPoisson(NoiseMechanism):
    """A discrete law with a compound-Poisson representation whose largest
    jump is ``jump``: witness (variance, jump / 3). ``_pmf_array(n)`` builds
    its pmf once, as (k0, P) with P[i] = P(X = k0 + i), from Poisson pmf
    tables of n = 2 K + 1 points, K the 1e-15 tail cutoff."""

    jump: ClassVar[float]

    def sub_gamma_witness(self) -> SubGammaParams:
        return SubGammaParams(self.moments()[1], self.jump / 3.0)

    def sum_law(self, terms: int) -> CompoundPoisson:
        """The law of a sum of ``terms`` iid draws: the same law at ``terms`` x
        each intensity (every field is one)."""
        return replace(self, **{f.name: terms * getattr(self, f.name) for f in fields(self)})

    def draw_sum(self, rng, terms, size):
        return self.sum_law(terms).draw(rng, size)

    def sum_in_range(self, terms: int) -> bool:
        return terms * max(getattr(self, f.name) for f in fields(self)) <= _LAM_MAX

    @cached_property
    def _pmf_table(self) -> tuple[int, np.ndarray]:
        var = self.moments()[1]
        if var > 2 * _MAX_TABLE:  # n > var / 2 (each K > mean count), so refuse before the walk
            raise ValueError(f"{self!r}: its variance {var:.3g} puts its pmf tables "
                             f"over the cap of {_MAX_TABLE} support points")
        n = 2 * self.support_cutoff(1e-15) + 1
        if n > _MAX_TABLE:
            raise ValueError(f"{self!r} needs pmf tables of {n} support points, "
                             f"over the cap of {_MAX_TABLE}")
        return self._pmf_array(n)

    def mass(self, k: int) -> float:
        k0, ps = self._pmf_table  # outside the table the mass is below the tail: 0
        return float(ps[k - k0]) if 0 <= k - k0 < ps.size else 0.0

    @cached_property
    def _abs_table(self) -> tuple[np.ndarray, np.ndarray]:
        """|k - mean| (0 at a zero mass, so it adds 0 where exp is inf) and the pmf."""
        k0, ps = self._pmf_table
        dev = np.abs(np.arange(k0, k0 + ps.size) - self.moments()[0])
        return np.where(ps > 0, dev, 0.0), ps

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

    def draw_sum(self, rng, terms, size):
        # a draw is Exp(b) - Exp(b), so a sum of terms draws is Gamma(terms, b) - Gamma(terms, b)
        x = rng.gamma(terms, self.b, size=size)
        x -= rng.gamma(terms, self.b, size=size)
        return x

    def sum_in_range(self, terms: int) -> bool:
        # a numpy laplace draw stays within 36.05 b, and a gamma(terms, b)
        # draw within 60 terms b: at terms = 2 Marsaglia-Tsang returns
        # 59.9 b per term when its uniform is 0 and its normal draw is at
        # its largest, 12.23
        return terms * self.b * 60.0 <= sys.float_info.max

    def moments(self) -> tuple[float, float]:
        return 0.0, 2.0 * self.b * self.b  # inf past b ~ 9.5e153, not OverflowError

    def centered_mgf(self, s: np.ndarray) -> np.ndarray:
        u = self.b * s
        return np.where(np.abs(u) < 1.0, 1.0 / (1.0 - u * u), np.inf)

    def abs_exp_moment(self, t: float) -> float:
        return t / (t - self.b) if t > self.b else math.inf

    def pmf(self, k) -> float:
        raise TypeError("continuous mechanism has a density, not a pmf")


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

    def draw_sum(self, rng, terms, size):
        # terms geometric(1-p) failure counts sum to NegBin(terms, 1-p)
        x = rng.negative_binomial(terms, 1.0 - self.p, size=size)
        x -= rng.negative_binomial(terms, 1.0 - self.p, size=size)
        return x

    def sum_in_range(self, terms: int) -> bool:
        return _negbin_in_range(terms, 1.0 - self.p)

    def moments(self) -> tuple[float, float]:
        return 0.0, 2.0 * self.p / (1.0 - self.p) ** 2

    def centered_mgf(self, s: np.ndarray) -> np.ndarray:
        es, ems = np.exp(s), np.exp(-s)
        ok = (self.p * es < 1.0) & (self.p * ems < 1.0)
        return np.where(ok, (1.0 - self.p) ** 2 /
                        ((1.0 - self.p * es) * (1.0 - self.p * ems)), np.inf)

    def abs_exp_moment(self, t: float) -> float:
        lu = math.log(self.p) + 1.0 / t  # log u, u = p e^(1/t)
        if lu >= 0.0:  # u >= 1, and exp may overflow
            return math.inf
        return (1.0 - self.p) / (1.0 + self.p) * (1.0 + math.exp(lu)) / -math.expm1(lu)

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

    def draw_sum(self, rng, terms, size):
        return rng.negative_binomial(terms, self.q, size=size) - terms * self.offset

    def sum_in_range(self, terms: int) -> bool:
        # numpy's geometric saturates at 2^63 - 1: below 40 means, a single
        # draw reaches it with probability about e^-40
        if terms == 1 and 40.0 * self.offset > _INT64_MAX:
            return False
        return _negbin_in_range(terms, self.q)

    def moments(self) -> tuple[float, float]:
        return 0.0, self.offset / self.q  # inf, not ZeroDivisionError, at tiny q

    def centered_mgf(self, s: np.ndarray) -> np.ndarray:
        es = np.exp(s)
        ok = (1.0 - self.q) * es < 1.0
        raw = np.where(ok, self.q / (1.0 - (1.0 - self.q) * es), np.inf)
        return np.exp(-s * self.offset) * raw

    def abs_exp_moment(self, t: float) -> float:
        # r = 1/t: a finite geometric sum in v = (1-q) e^-r over the k1 values
        # G <= offset, a geometric tail in u = (1-q) e^r above; 1 - v = -expm1(log v)
        q, off, r = self.q, self.offset, 1.0 / t
        lq = math.log1p(-q)
        if r >= -lq:  # u >= 1, and exp may overflow
            return math.inf
        k1 = math.floor(off) + 1
        below = q * math.exp(off * r) * math.expm1(k1 * (lq - r)) / math.expm1(lq - r)
        above = q * math.exp(k1 * lq + (k1 - off) * r) / -math.expm1(lq + r)
        return below + above

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

    def _one_draw(self, rng, size, sign: int = 1, y=0):
        """y + sign * Y for a fresh Hermite draw Y; an array y is updated in
        place, so a two-sided draw holds two arrays of size, not three."""
        y += sign * _poisson(rng, self.a1, size)
        y += (2 * sign) * _poisson(rng, self.a2, size)
        return y

    def sum_in_range(self, terms: int) -> bool:
        # a draw of the sum's law forms N1 + 2 N2 in int64: its mean plus 10 sd
        # (numpy's own Poisson margin) must fit, which keeps each intensity in range
        mean, var = terms * (self.a1 + 2.0 * self.a2), terms * (self.a1 + 4.0 * self.a2)
        return mean + 10.0 * math.sqrt(var) <= _INT64_MAX

    def _one_cgf(self, s: np.ndarray) -> np.ndarray:
        """log E exp(s (Y - E Y)) of one Hermite draw."""
        return (self.a1 * (np.exp(s) - 1.0 - s) +
                self.a2 * (np.exp(2.0 * s) - 1.0 - 2.0 * s))

    def support_cutoff(self, tail: float) -> int:
        return _poisson_cutoff(self.a1, tail) + 2 * _poisson_cutoff(self.a2, tail)

    def _one_pmf(self, n: int) -> np.ndarray:
        """pmf of one draw on 0..n-1: Poisson(a1) convolved with Poisson(a2) on the evens."""
        p2 = np.zeros(n)
        p2[::2] = _poisson_pmf(self.a2, (n + 1) // 2)
        return np.convolve(_poisson_pmf(self.a1, n), p2)[:n]


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

    def _pmf_array(self, n: int) -> tuple[int, np.ndarray]:
        return 0, self._one_pmf(n)


@dataclass(frozen=True)
class TwoSideHermite(_HermiteLaw):
    """Difference of two independent Hermite(a1, a2) draws (zero mean)."""

    name = "herm2"

    def draw(self, rng, size):
        return self._one_draw(rng, size, -1, self._one_draw(rng, size))

    def moments(self) -> tuple[float, float]:
        return 0.0, 2.0 * (self.a1 + 4.0 * self.a2)

    def centered_mgf(self, s: np.ndarray) -> np.ndarray:
        return np.exp(self._one_cgf(s) + self._one_cgf(-s))

    def _pmf_array(self, n: int) -> tuple[int, np.ndarray]:
        # P(Y1 - Y2 = k) = sum_m P(Y1 = k + m) P(Y2 = m), for k = 1-n..n-1
        h = self._one_pmf(n)
        return 1 - n, np.correlate(h, h, "full")


@dataclass(frozen=True)
class TwoSidePoisson(CompoundPoisson):
    """Difference of independent Poisson(lam) and Poisson(mu) counts."""

    lam: float
    mu: float
    name = "tsp"
    keys = ("lambda", "mu")
    jump = 1.0

    def __post_init__(self):
        if self.lam < 0 or self.mu < 0 or self.lam == self.mu == 0:
            raise ValueError("two-sided Poisson intensities must be >= 0, one of them > 0")

    def draw(self, rng, size):
        return _poisson(rng, self.lam, size) - _poisson(rng, self.mu, size)

    def moments(self) -> tuple[float, float]:
        return self.lam - self.mu, self.lam + self.mu

    def centered_mgf(self, s: np.ndarray) -> np.ndarray:
        return np.exp(self.lam * (np.exp(s) - 1.0 - s) +
                      self.mu * (np.exp(-s) - 1.0 + s))

    def _pmf_array(self, n: int) -> tuple[int, np.ndarray]:
        return 1 - n, np.correlate(_poisson_pmf(self.lam, n), _poisson_pmf(self.mu, n), "full")

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

def _poisson(rng, lam: float, size):
    """Poisson(lam) draws: ``rng.poisson``, but between _POISSON_PRECISE and
    _LAM_MAX numpy's PTRS (Hormann 1993) with log P(k) in Stirling form,
    -lam h((k - lam) / lam) - log(2 pi k) / 2 - 1 / (12 k), h(x) = (1 + x)
    log1p(x) - x, whose float error is about 2e-16 |k - lam|. Proposals past
    40 sd (mass below e^-800) or past int64 are rejected."""
    if not _POISSON_PRECISE < lam <= _LAM_MAX:
        return rng.poisson(lam, size=size)
    slam, base = math.sqrt(lam), math.floor(lam)  # k = base + off, off a float
    b = 0.931 + 2.53 * slam
    a = -0.059 + 0.02483 * b
    log_alpha, vr = math.log(1.1239 + 1.1328 / (b - 3.4)), 0.9277 - 3.6224 / (b - 2.0)
    top = min(40.0 * slam, 2**63 - 1 - base)
    out = np.empty(1 if size is None else size, dtype=np.int64)
    flat, todo = out.reshape(-1), np.arange(out.size)
    with np.errstate(divide="ignore", invalid="ignore"):  # us = 0 or v = 0: rejected
        while todo.size:
            u = rng.random(todo.size) - 0.5
            v = rng.random(todo.size)
            us = 0.5 - np.abs(u)
            off = np.floor((2.0 * a / us + b) * u + (lam - base + 0.43))
            ok = (us >= 0.07) & (v <= vr)
            test = ~ok & (np.abs(off) <= top) & ((us >= 0.013) | (v <= us))
            x = (off[test] - (lam - base)) / lam  # (k - lam) / lam
            k = lam * (1.0 + x)
            log_pk = (-lam * ((1.0 + x) * np.log1p(x) - x) - 0.5 * np.log(2.0 * math.pi * k)
                      - 1.0 / (12.0 * k))
            hat = np.log(v[test]) + log_alpha - np.log(a / (us[test] * us[test]) + b)
            ok[test] = hat <= log_pk
            flat[todo[ok]] = off[ok].astype(np.int64) + base
            todo = todo[~ok]
    return out if size is not None else out[0]


def _poisson_pmf(lam: float, n: int) -> np.ndarray:
    """Poisson(lam) pmf on 0..n-1 (a point mass at 0 for lam = 0). Its logs
    are summed outward from the mode m in steps log(lam / j), which do not
    cancel as k log(lam) - lam - lgamma(k + 1) does at large lam."""
    if lam == 0.0:
        return np.eye(1, n).ravel()
    m = min(int(lam), n - 1)
    steps = np.log(lam / np.arange(1.0, n))  # log P(j) - log P(j - 1), j = 1..n-1
    down, up = np.cumsum(steps[:m][::-1])[::-1], np.cumsum(steps[m:])
    log_mode = m * math.log(lam) - lam - math.lgamma(m + 1)
    return np.exp(log_mode + np.concatenate((-down, [0.0], up)))


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


def _negbin_in_range(terms: int, p: float) -> bool:
    """Whether numpy's negative_binomial accepts (terms, p): its own test, in
    the same float operations."""
    return (1.0 - p) / p * (terms + 10.0 * math.sqrt(terms)) <= _LAM_MAX


# ---------------------------------------------------------------------------
# float draws, pmf and the sub-exponential norm of any mechanism
# ---------------------------------------------------------------------------

def sample(mech: NoiseMechanism, rng: np.random.Generator, size=None, terms: int = 1):
    """Draw from a mechanism; integer-valued laws return integer-valued floats.
    With size given the result is a fresh float64 array the caller may write.

    With terms > 1 each value is a draw of the sum of ``terms`` iid draws,
    one ``draw_sum`` of that sum's own law. Where ``mech.sum_in_range(terms)``
    is false, it is the sum of p independent sums, p the fewest parts of at
    most the largest in-range count: p - r sums of q terms, then r of q + 1
    (q, r = divmod(terms, p); at p = 2, terms // 2 and then the rest). The
    parts are drawn by ``draw_sum`` in blocks of max(1, _BLOCK // values)
    parts. ValueError where every part is a single draw (terms = 1
    included) and ``sum_in_range(1)`` is false: numpy would refuse it or
    return values wrapped or capped at the int64 range, or infinite; and
    where a sum of parts leaves the floats (``lap:b=1e306`` at 2^24 terms)."""
    if mech.sum_in_range(terms):
        out = mech.draw(rng, size) if terms == 1 else mech.draw_sum(rng, terms, size)
        return np.asarray(out, dtype=float) if size is not None else float(out)
    lo, hi = 1, terms  # the largest in-range count of terms is in [lo, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mech.sum_in_range(mid) else (lo, mid)
    parts = -(-terms // lo)
    q, r = divmod(terms, parts)
    # no part has more than lo terms, and each law's draw_sum range is monotone
    # in terms: lo >= 2 passed the bisection, and lo = 1, its unchecked start,
    # is checked here. A part of 1 term beside parts of 2 is drawn by draw_sum
    # (for geo a NegBin draw, in range where a single geometric draw may not be).
    if mech.sum_in_range(lo):
        shape = () if size is None else tuple(np.atleast_1d(size))
        out, rows = np.zeros(shape), max(1, _BLOCK // (math.prod(shape) or 1))
        with np.errstate(over="ignore", invalid="ignore"):  # a lap sum past the floats
            for count, part in ((parts - r, q), (r, q + 1)):
                for start in range(0, count, rows):
                    block = mech.draw_sum(rng, part, (min(rows, count - start), *shape))
                    out += block.sum(axis=0, dtype=float)
        if np.all(np.isfinite(out)):
            return out if size is not None else float(out)
    raise ValueError(f"{mechanism_label(mech)}: a draw is past numpy's range")


def pmf(mech: NoiseMechanism, k: int) -> float:
    """Exact probability mass at integer k for the discrete mechanisms;
    TypeError for the continuous Laplace mechanism, which has no pmf."""
    return mech.pmf(k)


def psi1_norm(mech: NoiseMechanism) -> float:
    """Sub-exponential norm inf{t > 0 : E exp(|X|/t) <= 2} by bisection.

    The expectation is exact per mechanism (closed form or a summation
    truncated far below the working precision); 60 bisection steps give
    relative precision well beyond 1e-9. The bracket starts at the
    standard deviation; at sqrt of the largest float when the variance
    overflows (Laplace with b above about 9.5e153, geometric with q below
    about 1e-154), and at the least positive float when it underflows to 0
    (Laplace with b below about 1e-162). Its doublings are bounded by the
    float range, whatever the law's scale: only an overflow means
    divergence. A diverging norm or one below the least normal float
    raises ValueError naming the law.
    """
    _, var = mech.moments()
    hi = math.sqrt(min(var, sys.float_info.max)) or math.ulp(0.0)
    while mech.abs_exp_moment(hi) > 2.0:
        hi *= 2.0
        if hi == math.inf:
            raise ValueError(f"psi1 norm diverges for {mechanism_label(mech)}")
    lo = hi / 2.0
    while lo >= sys.float_info.min and mech.abs_exp_moment(lo) <= 2.0:
        lo /= 2.0
    if lo < sys.float_info.min:
        raise ValueError(f"psi1 norm of {mechanism_label(mech)} is below the least "
                         "normal float")
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
