"""Closed-form concentration bounds and their Monte Carlo verification.

Every bound here is an explicit right-hand side, evaluated and capped at
one; nothing is proved, so the test suite checks domination against
empirical survival frequencies with Monte Carlo slack.

Bound kinds
-----------
SubExpNormBound(psi1)             P(|X| > t) <= 2 exp(-t / psi1)
SubGammaTail(upsilon, c, count=1) P(max_{i <= count} |X_i| >= t)
                                    <= 2 count exp(-(t^2/2) / (upsilon + c t))
HermiteSumRadius(sigma2, r, w)    radius x -> w [ sqrt(2 x sigma2) + r x / 3 ],
                                  the deviation of a weighted compound-Poisson sum
                                  exceeded with probability at most 2 exp(-x)
                                  (inverse form: input is the exponent x, output
                                  the radius, not a probability).

``SubGammaTail`` is the sub-Gamma tail of Boucheron, Lugosi & Massart
(2013, sec. 2.4) and carries every sub-Gamma bound:

* Bernstein: the growth condition E|X|^k <= (1/2) nu2 kappa^(k-2) k! makes
  X sub-Gamma with (upsilon, c) = (nu2, kappa), and Bernstein's
  t^2 / (2 nu2 + 2 kappa t) is the same exponent; ``bernstein_from_psi1``.
* Sum of n independent terms: upsilon = sum_i upsilon_i, c = max_i c_i.
* Maximum of count terms: the union bound over the coordinates. Its
  expectation companion is ``max_expectation_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .noise import SubGammaParams, psi1_norm  # psi1_norm re-exported

__all__ = [
    "SubExpNormBound",
    "SubGammaTail",
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
        if not (0 < self.psi1 < math.inf):
            raise ValueError(f"psi1 must be positive and finite, got {self.psi1!r}")


@dataclass(frozen=True)
class SubGammaTail(SubGammaParams):
    """Tail of the largest |X_i| of count centered sub-Gamma(upsilon, c) terms;
    count = 1 is the tail of one term or of a sum."""

    count: int = 1

    def __post_init__(self):
        super().__post_init__()
        if not (1 <= self.count < math.inf):
            raise ValueError(f"count must be a finite number >= 1, got {self.count!r}")


@dataclass(frozen=True)
class HermiteSumRadius:
    """sigma2 = sum_i var(Y_i), r = largest jump, w = max_i |w_i|."""

    sigma2: float
    r: float
    w: float = 1.0

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.sigma2, self.r, self.w)):
            raise ValueError("need sigma2, r, w all positive and finite")


TailBoundSpec = Union[SubExpNormBound, SubGammaTail, HermiteSumRadius]


def _gamma_exponent(t: float, scale: float, c: float) -> float:
    """(t^2 / 2) / (scale + c t), the sub-Gamma exponent (Bernstein's
    t^2 / (2 nu2 + 2 kappa t) is the same number, bit for bit). Where t * t
    overflows, past t ~ 1.3e154, it is evaluated as (t / 2) / (scale / t + c),
    which stays finite instead of inf / inf."""
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
    if isinstance(spec, SubGammaTail):
        return min(1.0, 2.0 * spec.count * math.exp(-_gamma_exponent(t, spec.upsilon, spec.c)))
    if isinstance(spec, HermiteSumRadius):
        # inverse form: t plays the role of the exponent x
        return spec.w * (math.sqrt(2.0 * t * spec.sigma2) + spec.r * t / 3.0)
    raise TypeError(f"unknown bound spec {spec!r}")


def max_expectation_bound(upsilon: float, c: float, n: int) -> float:
    """E max_i |X_i| <= sqrt(2 upsilon log(2n)) + c log(2n) for independent
    centered sub-Gamma(upsilon_i <= upsilon, c_i <= c) variables."""
    SubGammaTail(upsilon, c, n)  # validates the arguments
    L = math.log(2.0 * n)
    return math.sqrt(2.0 * upsilon * L) + c * L


def bernstein_from_psi1(psi1: float, n: int = 1) -> SubGammaTail:
    """Bernstein tail of a sum of n iid terms with E|X|^k <= 2 psi1^k k!.

    Matching against the growth condition E|X|^k <= (1/2) nu^2 kappa^(k-2) k!
    gives nu_i^2 = 4 psi1^2 and kappa = psi1, so the sum is sub-Gamma with
    (upsilon, c) = (nu2, kappa) = (4 n psi1^2, psi1).
    """
    return SubGammaTail(4.0 * n * (psi1 * psi1), psi1)  # inf, not OverflowError


def mc_survival(statistic_draws: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical P(stat >= t) on a grid, with binomial standard errors."""
    draws = np.asarray(statistic_draws, dtype=float)
    ts = np.asarray(ts, dtype=float)
    R = draws.size
    p = np.array([(draws >= t).mean() for t in ts])
    se = np.sqrt(p * (1.0 - p) / R)
    return p, se
