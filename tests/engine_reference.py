"""Reference for the degree-only sampler, the fused link evaluator and
the stacked replicate engine.

These are the replicate-engine functions as they were before the sampler
stopped building a graph, ``solve`` stopped evaluating the link twice
per Newton point and replicates started to run in blocks of stacked
fits, kept unchanged as the reference the parity tests compare against
bit for bit: the dense ``sample_graph``, the separate p and p'
evaluators with ``moment_residual``, ``jacobian`` and a one-fit
``solve`` built on them, and ``replicate_records``, the one-replicate-
at-a-time loop of ``run_scenario``. Everything else comes from the
package. ``solve`` returns a ``ReferenceResult``, which also carries the
pair-sum maximum from the k x k pass that ``solve`` once made, for
comparison with ``EstimateResult.max_abs_pair_sum``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from privdeg import estimator
from privdeg.estimator import (_MAX_HALVINGS, EstimateResult, JacobianMatrix,
                               _classes, _nonexistence_reason, initial_point)
from privdeg import noise as noise_mod
from privdeg.links import (EdgeSampler, LinkKind, edge_prob_matrix,
                           pair_sum_matrix, validate_params)
from privdeg.simulate import Scenario, truth_vector


def sample_graph(link: LinkKind, alpha: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Dense symmetric uint8 adjacency matrix of one drawn graph."""
    a = validate_params(link, alpha)
    n = a.size
    P = edge_prob_matrix(link, a)
    iu = np.triu_indices(n, k=1)
    draws = (rng.random(iu[0].size) < P[iu]).astype(np.uint8)
    A = np.zeros((n, n), dtype=np.uint8)
    A[iu] = draws
    return A + A.T


def _pm_extended(link: LinkKind, X: np.ndarray) -> np.ndarray:
    if link == LinkKind.LOG:
        return np.exp(X)
    if link == LinkKind.LOGIT:
        out = np.empty_like(X)
        pos = X >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-X[pos]))
        e = np.exp(X[~pos])
        out[~pos] = e / (1.0 + e)
        return out
    return -np.expm1(-np.exp(np.clip(X, None, 690.0)))


def _dpm_extended(link: LinkKind, X: np.ndarray) -> np.ndarray:
    if link == LinkKind.LOG:
        return np.exp(X)
    if link == LinkKind.LOGIT:
        p = _pm_extended(link, X)
        return p * (1.0 - p)
    Xc = np.clip(X, None, 690.0)
    return np.exp(Xc - np.exp(Xc))


def _weighted(f, link: LinkKind, beta: np.ndarray, m: np.ndarray) -> np.ndarray:
    out = f(link, pair_sum_matrix(beta))
    diag = np.zeros(m.size)
    np.multiply(out.diagonal(), m - 1.0, out=diag, where=m > 1)
    out *= m
    np.fill_diagonal(out, diag)
    return out


def moment_residual(link: LinkKind, alpha: np.ndarray, dtilde: np.ndarray,
                    counts: Optional[np.ndarray] = None) -> np.ndarray:
    a = np.asarray(alpha, dtype=float).reshape(-1)
    d = np.asarray(dtilde, dtype=float).reshape(-1)
    m = np.ones(a.size) if counts is None else np.asarray(counts, dtype=float)
    return d - _weighted(_pm_extended, link, a, m).sum(axis=1)


def weighted_slope(link: LinkKind, beta: np.ndarray, m: np.ndarray) -> np.ndarray:
    """W o p'(beta_a + beta_b), the matrix ``solve`` built at each iteration."""
    return _weighted(_dpm_extended, link, np.asarray(beta, dtype=float), m)


def jacobian(link: LinkKind, alpha: np.ndarray) -> JacobianMatrix:
    a = np.asarray(alpha, dtype=float).reshape(-1)
    V = _dpm_extended(link, pair_sum_matrix(a))
    np.fill_diagonal(V, 0.0)
    off_min = float(V[~np.eye(a.size, dtype=bool)].min())
    off_max = float(V[~np.eye(a.size, dtype=bool)].max())
    np.fill_diagonal(V, V.sum(axis=1))
    return JacobianMatrix(V, off_min, off_max)


@dataclass(frozen=True)
class ReferenceResult(EstimateResult):
    """A fit with the pair-sum diagnostic from the full k x k pass."""

    kxk_max_abs_pair_sum: Optional[float] = None


def solve(link: LinkKind, dtilde: np.ndarray,
          x0: Optional[np.ndarray] = None) -> ReferenceResult:
    max_iter = estimator._MAX_ITER  # read at call time, as tests patch it
    d = np.asarray(dtilde, dtype=float).reshape(-1)

    def fail(reason: str, it: int, res: float) -> ReferenceResult:
        return ReferenceResult(None, None, it, res, False, reason)

    reason = _nonexistence_reason(link, d)
    if reason is not None:
        return fail(reason, 0, float("inf"))

    tol = estimator._TOL * max(1.0, float(np.max(np.abs(d))))
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float).reshape(-1)
    first, inverse, m = _classes(d, x0)
    u = d[first]
    b = (x0 if x0 is not None else initial_point(link, d))[first]
    F = moment_residual(link, b, u, m)
    res = float(np.max(np.abs(F)))

    for it in range(max_iter + 1):
        V = _weighted(_dpm_extended, link, b, m)
        v = V.sum(axis=1)
        if res <= tol:
            pair_abs = np.abs(pair_sum_matrix(b))
            alone = np.flatnonzero(m == 1)
            pair_abs[alone, alone] = 0.0
            return ReferenceResult(b[inverse], v[inverse], it, res, True, None,
                                   float(pair_abs.max()))
        if it == max_iter:
            break
        V[np.diag_indices(m.size)] += v
        try:
            step = np.linalg.solve(V, F)
        except np.linalg.LinAlgError:
            return fail("singular Jacobian", it, res)
        if not np.all(np.isfinite(step)):
            return fail("non-finite Newton step", it, res)

        scale = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            b_try = b + scale * step
            F_try = moment_residual(link, b_try, u, m)
            res_try = float(np.max(np.abs(F_try)))
            if np.isfinite(res_try) and res_try < res:
                b, F, res = b_try, F_try, res_try
                break
            scale *= 0.5
        else:
            return fail("step stalled (no residual decrease)", it, res)
    return fail("iteration limit reached", max_iter, res)


def replicate_records(scenario: Scenario, z: float) -> list:
    """Per replicate in order: None when the fit does not exist, else one
    (hit, half-length, xi) triple per reported pair."""
    truth = truth_vector(scenario.n, scenario.L)
    sampler = EdgeSampler(scenario.link, truth)
    records = []
    for child in np.random.SeedSequence(scenario.seed).spawn(scenario.replicates):
        rng = np.random.default_rng(child)
        dt = sampler.degrees(rng)
        if scenario.noise is not None:
            dt = dt + np.asarray(
                noise_mod.sample(scenario.noise, rng, size=scenario.n), dtype=float)
        res = solve(scenario.link, dt)
        if not res.exists:
            records.append(None)
            continue
        out = []
        for (i, j) in scenario.pairs:
            a, b = i - 1, j - 1
            half = z * math.sqrt(1.0 / res.v_hat[a] + 1.0 / res.v_hat[b])
            diff = float(res.alpha_hat[a] - res.alpha_hat[b])
            hit = abs(diff - (truth[a] - truth[b])) <= half
            num = (res.alpha_hat[a] + res.alpha_hat[b]) - (truth[a] + truth[b])
            xi = float(num / np.sqrt(1.0 / res.v_hat[a] + 1.0 / res.v_hat[b]))
            out.append((bool(hit), half, xi))
        records.append(out)
    return records
