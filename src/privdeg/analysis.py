"""End-to-end analysis of one network: degrees -> noise -> fit -> table."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import noise as noise_mod
from .estimator import (EstimateResult, SolverOptions, confidence_interval,
                        normal_quantile, solve)
from .links import LinkKind
from .netio import EdgeList


@dataclass(frozen=True)
class ResultRow:
    """One vertex of the output table (vertex is the original 1-indexed label)."""

    vertex: int
    dtilde: float
    alpha: Optional[float]
    lo: Optional[float]
    hi: Optional[float]
    se: Optional[float]


@dataclass(frozen=True)
class ResultTable:
    rows: tuple[ResultRow, ...]
    exists: bool
    reason: Optional[str]
    result: EstimateResult

    def scatter(self) -> list[tuple[float, float]]:
        """(noisy degree, fitted parameter) pairs for existing fits."""
        return [(r.dtilde, r.alpha) for r in self.rows if r.alpha is not None]


def table_from_degrees(dtilde: np.ndarray, link: LinkKind,
                       labels: Optional[list[int]] = None,
                       level: float = 0.95,
                       options: SolverOptions | None = None) -> ResultTable:
    """Fit a noisy degree sequence and lay out the per-vertex table."""
    d = np.asarray(dtilde, dtype=float).reshape(-1)
    labs = labels if labels is not None else list(range(1, d.size + 1))
    if len(labs) != d.size:
        raise ValueError("label list length must match the degree sequence")
    # checks the level even when the fit will not exist; run before the
    # fit, the first call's scipy import does not compete with BLAS
    # threads still spinning after the fit's linear solves
    normal_quantile(level)
    res = solve(link, d, options)
    if not res.exists:
        rows = tuple(ResultRow(v, float(d[k]), None, None, None, None)
                     for k, v in enumerate(labs))
        return ResultTable(rows, False, res.reason, res)
    lo, hi = confidence_interval(res, np.arange(d.size), None, level)
    se = 1.0 / np.sqrt(res.v_hat)
    rows = tuple(ResultRow(*row) for row in zip(
        labs, d.tolist(), res.alpha_hat.tolist(), lo.tolist(), hi.tolist(), se.tolist()))
    return ResultTable(rows, True, None, res)


def noisy_degrees(e: EdgeList, mech: Optional[noise_mod.NoiseMechanism],
                  seed: int) -> np.ndarray:
    """Degrees of e (float64) plus one iid noise draw per vertex.

    The draw comes from ``np.random.default_rng(seed)``; mech=None is the
    zero-noise override (the raw degrees).
    """
    d = e.degree_vector().astype(float)
    if mech is not None:
        d = d + noise_mod.sample(mech, np.random.default_rng(seed), size=e.n)
    return d


def analyze_dataset(e: EdgeList, link: LinkKind,
                    mech: Optional[noise_mod.NoiseMechanism],
                    seed: int,
                    labels: Optional[list[int]] = None,
                    level: float = 0.95,
                    options: SolverOptions | None = None) -> ResultTable:
    """``noisy_degrees`` of e fitted under link.

    Pass mech=None for the zero-noise override (dtilde = d). The seed
    fixes the noise draw; labels carry original vertex names through
    pruning/relabeling done by the caller.
    """
    return table_from_degrees(noisy_degrees(e, mech, seed), link, labels=labels,
                              level=level, options=options)
