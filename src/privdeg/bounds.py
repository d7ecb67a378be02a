"""Closed-form concentration bounds and their Monte Carlo verification.

Every bound here is an explicit right-hand side, evaluated and capped at
one; nothing is proved, so the test suite checks domination against
empirical survival frequencies with Monte Carlo slack.

Bound kinds
-----------
SubExpNormBound(psi1)           P(|X| > t)   <= 2 exp(-t / psi1)
BernsteinBound(nu2, kappa)      P(|S_n| >= t) <= 2 exp(-t^2 / (2 nu2 + 2 kappa t))
SubGammaSumBound(upsilon, c)    P(|S_n| >= t) <= 2 exp(-(t^2/2) / (upsilon + c t))
SubGammaMaxBound(upsilon, c, n) P(max_i |X_i| >= t) <= 2 n exp(-(t^2/2)/(upsilon + c t))
HermiteSumRadius(sigma2, r, w)  radius x -> w [ sqrt(2 x sigma2) + r x / 3 ],
                                the deviation of a weighted compound-Poisson sum
                                exceeded with probability at most 2 exp(-x)
                                (inverse form: input is the exponent x, output
                                the radius, not a probability).

The max bound is the union form of the sum bound over n coordinates; its
expectation companion is ``max_expectation_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .noise import psi1_norm  # re-exported

__all__ = [
    "SubExpNormBound",
    "BernsteinBound",
    "SubGammaSumBound",
    "SubGammaMaxBound",
    "HermiteSumRadius",
    "TailBoundSpec",
    "tail_bound",
    "max_expectation_bound",
    "bernstein_from_psi1",
    "psi1_norm",
    "mc_survival",
]


@dataclass(frozen=True)
class SubExpNormBound:
    psi1: float

    def __post_init__(self):
        if not (self.psi1 > 0):
            raise ValueError("psi1 must be positive")


@dataclass(frozen=True)
class BernsteinBound:
    """Moment-growth bound with fluctuation nu2 = sum_i nu_i^2, scale kappa."""

    nu2: float
    kappa: float

    def __post_init__(self):
        if not (0 < self.nu2 < math.inf) or self.kappa < 0:
            raise ValueError("need finite nu2 > 0 and kappa >= 0")


@dataclass(frozen=True)
class SubGammaSumBound:
    """Sum of independent sub-Gamma terms: upsilon = sum_i upsilon_i, c = max_i c_i."""

    upsilon: float
    c: float

    def __post_init__(self):
        if not (0 < self.upsilon < math.inf) or self.c < 0:
            raise ValueError("need finite upsilon > 0 and c >= 0")


@dataclass(frozen=True)
class SubGammaMaxBound:
    upsilon: float
    c: float
    n: int

    def __post_init__(self):
        if not (self.upsilon > 0) or self.c < 0 or self.n < 1:
            raise ValueError("need upsilon > 0, c >= 0, n >= 1")


@dataclass(frozen=True)
class HermiteSumRadius:
    """sigma2 = sum_i var(Y_i), r = largest jump, w = max_i |w_i|."""

    sigma2: float
    r: float
    w: float = 1.0

    def __post_init__(self):
        if not (self.sigma2 > 0) or not (self.r > 0) or not (self.w > 0):
            raise ValueError("need sigma2, r, w all positive")


TailBoundSpec = Union[SubExpNormBound, BernsteinBound, SubGammaSumBound,
                      SubGammaMaxBound, HermiteSumRadius]


def _gamma_exponent(t: float, scale: float, c: float) -> float:
    """(t^2 / 2) / (scale + c t), the exponent of the Bernstein and sub-Gamma
    forms (Bernstein's t^2 / (2 nu2 + 2 kappa t) is the same number, bit for
    bit). Where t * t overflows, past t ~ 1.3e154, it is evaluated as
    (t / 2) / (scale / t + c), which stays finite instead of inf / inf."""
    half_square = t * t / 2.0
    if half_square < math.inf:
        return half_square / (scale + c * t)
    den = scale / t + c  # zero only at t = inf with c = 0
    return (t / 2.0) / den if den else math.inf


def tail_bound(spec: TailBoundSpec, t: float) -> float:
    """Evaluate a bound at deviation t (or exponent x for the radius form)."""
    if t < 0:
        raise ValueError("deviation must be nonnegative")
    if isinstance(spec, SubExpNormBound):
        return min(1.0, 2.0 * math.exp(-t / spec.psi1))
    if isinstance(spec, BernsteinBound):
        return min(1.0, 2.0 * math.exp(-_gamma_exponent(t, spec.nu2, spec.kappa)))
    if isinstance(spec, SubGammaSumBound):
        return min(1.0, 2.0 * math.exp(-_gamma_exponent(t, spec.upsilon, spec.c)))
    if isinstance(spec, SubGammaMaxBound):
        return min(1.0, 2.0 * spec.n * math.exp(-_gamma_exponent(t, spec.upsilon, spec.c)))
    if isinstance(spec, HermiteSumRadius):
        # inverse form: t plays the role of the exponent x
        return spec.w * (math.sqrt(2.0 * t * spec.sigma2) + spec.r * t / 3.0)
    raise TypeError(f"unknown bound spec {spec!r}")


def max_expectation_bound(upsilon: float, c: float, n: int) -> float:
    """E max_i |X_i| <= sqrt(2 upsilon log(2n)) + c log(2n) for independent
    centered sub-Gamma(upsilon_i <= upsilon, c_i <= c) variables."""
    if not (upsilon > 0) or c < 0 or n < 1:
        raise ValueError("need upsilon > 0, c >= 0, n >= 1")
    L = math.log(2.0 * n)
    return math.sqrt(2.0 * upsilon * L) + c * L


def bernstein_from_psi1(psi1: float, n: int = 1) -> BernsteinBound:
    """Bernstein spec implied by the psi1 moment bound E|X|^k <= 2 psi1^k k!.

    Matching against the growth condition E|X|^k <= (1/2) nu^2 kappa^(k-2) k!
    gives nu_i^2 = 4 psi1^2 and kappa = psi1; for a sum of n iid terms
    nu2 = 4 n psi1^2.
    """
    return BernsteinBound(nu2=4.0 * n * (psi1 * psi1), kappa=psi1)  # inf, not OverflowError


def mc_survival(statistic_draws: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical P(stat >= t) on a grid, with binomial standard errors."""
    draws = np.asarray(statistic_draws, dtype=float)
    ts = np.asarray(ts, dtype=float)
    R = draws.size
    p = np.array([(draws >= t).mean() for t in ts])
    se = np.sqrt(p * (1.0 - p) / R)
    return p, se
