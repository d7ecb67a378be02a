"""Scenario-grid simulation harness.

One scenario is a cell: (n, link, L, noise mechanism, replicate count,
seed, reported pairs). Each replicate samples a graph at the truth
alpha*_i = i L / n, adds one iid noise draw per vertex, fits the moment
system, and, when the fit exists, records for every reported pair the
confidence-interval hit and length and the standardized pair statistic.

Reproducibility contract: replicate r consumes the r-th child of
SeedSequence(seed) regardless of how replicates are scheduled, and
aggregation runs in replicate order, so the report is a pure function
of the scenario (worker count changes nothing, bit for bit).
"""

from __future__ import annotations

import ctypes
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.special import ndtri

from . import noise as noise_mod
from .estimator import SolverOptions, normal_quantile, solve, xi_statistic
from .links import EdgeSampler, LinkKind, expected_degrees
# Not called here; perfbench/tracing.py wraps these two names in this module.
from .links import degrees, sample_graph  # noqa: F401
from .netio import ParseError

DEFAULT_REPLICATES = 1000


def truth_vector(n: int, L: float) -> np.ndarray:
    """Truth used throughout the scenario grid: alpha*_i = i L / n, i = 1..n."""
    if n < 2:
        raise ValueError("need n >= 2")
    return np.arange(1, n + 1, dtype=float) * L / n


def default_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The three reported pairs: (1,2), (n/2, n/2+1), (n-1, n); 1-indexed."""
    return ((1, 2), (n // 2, n // 2 + 1), (n - 1, n))


@dataclass(frozen=True)
class Scenario:
    """One simulation cell; pairs are 1-indexed vertex pairs to report."""

    link: LinkKind
    n: int
    L: float
    noise: Optional[noise_mod.NoiseMechanism]
    replicates: int = DEFAULT_REPLICATES
    seed: int = 0
    pairs: tuple[tuple[int, int], ...] = ()
    level: float = 0.95
    exact: bool = False  # zero-noise override: dtilde = E d at the truth
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.n < 2:
            raise ValueError("need n >= 2")
        ps = self.pairs or default_pairs(self.n)
        for (i, j) in ps:
            if not (1 <= i <= self.n and 1 <= j <= self.n) or i == j:
                raise ValueError(f"bad pair ({i}, {j}) for n={self.n}")
        object.__setattr__(self, "pairs", tuple(ps))
        # the truth itself must be admissible for the link
        if self.link == LinkKind.LOG and self.L >= 0:
            raise ValueError("log link needs L < 0 so that all pair sums are negative")

    def label(self) -> str:
        noise = noise_mod.mechanism_label(self.noise) if self.noise else "none"
        return f"{self.link.value} n={self.n} L={self.L:g} noise={noise}"


@dataclass(frozen=True)
class PairSummary:
    coverage_percent: float
    mean_ci_length: float
    used: int


@dataclass(frozen=True)
class CoverageReport:
    scenario: Scenario
    per_pair: dict[tuple[int, int], PairSummary]
    nonexistence_percent: float
    xi: dict[tuple[int, int], np.ndarray]  # per pair, in replicate order

    def qq(self, pair: tuple[int, int]) -> list[tuple[float, float]]:
        return qq_export(self, pair)


def qq_export(report: CoverageReport, pair: tuple[int, int]) -> list[tuple[float, float]]:
    """(theoretical, empirical) quantile pairs for one reported pair.

    Empirical quantiles are the sorted pair statistics; theoretical ones
    sit at the plotting positions (k - 0.5) / m. Both coordinates are
    non-decreasing by construction.
    """
    if pair not in report.xi:
        raise LookupError(f"pair {pair} was not reported in this scenario")
    xs = np.sort(report.xi[pair])
    m = xs.size
    if m == 0:
        return []
    theo = ndtri((np.arange(1, m + 1) - 0.5) / m)
    return list(zip(theo.tolist(), xs.tolist()))


# ---------------------------------------------------------------------------
# replicate execution
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _cell_model(link: LinkKind, n: int, L: float) -> tuple[np.ndarray, EdgeSampler]:
    """Truth and edge sampler of the running cell, built once per process.

    Workers build their own copy on first use, so the pair probabilities
    are never pickled with a task. Cells run one after another, so only
    the latest is kept (three arrays of n(n-1)/2 entries).
    """
    truth = truth_vector(n, L)
    truth.flags.writeable = False
    return truth, EdgeSampler(link, truth)


def _one_replicate(scenario: Scenario, z: float, child: np.random.SeedSequence):
    rng = np.random.default_rng(child)
    truth, sampler = _cell_model(scenario.link, scenario.n, scenario.L)
    if scenario.exact:
        dt = expected_degrees(scenario.link, truth)
    else:
        dt = sampler.degrees(rng)
        if scenario.noise is not None:
            dt = dt + np.asarray(
                noise_mod.sample(scenario.noise, rng, size=scenario.n), dtype=float)
    res = solve(scenario.link, dt, scenario.solver)
    if not res.exists:
        return None
    out = []
    for (i, j) in scenario.pairs:
        a, b = i - 1, j - 1
        half = z * math.sqrt(1.0 / res.v_hat[a] + 1.0 / res.v_hat[b])
        diff = float(res.alpha_hat[a] - res.alpha_hat[b])
        hit = abs(diff - (truth[a] - truth[b])) <= half
        xi = xi_statistic(res, truth, a, b)
        out.append((bool(hit), half, xi))
    return out


def _replicate_task(args):
    return _one_replicate(*args)


def _one_blas_thread() -> None:
    """Pool initializer: run numpy's bundled OpenBLAS on one thread.

    A forked worker otherwise keeps one BLAS thread per core, so w workers
    run w times as many threads as there are cores. Does nothing when
    numpy carries no OpenBLAS of its own.
    """
    for path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs")
                       .glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"):
            if hasattr(lib, name):
                set_threads = getattr(lib, name)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                set_threads(1)
                return


def run_scenario(scenario: Scenario, workers: int = 1) -> CoverageReport:
    """Execute a scenario, optionally fanning replicates over processes.

    Per-replicate seeds are pre-assigned (child r of the scenario seed),
    and results are folded in replicate order, so any worker count
    produces an identical report.
    """
    children = np.random.SeedSequence(scenario.seed).spawn(scenario.replicates)
    z = normal_quantile(scenario.level)
    tasks = [(scenario, z, c) for c in children]
    if workers <= 1:
        records = [_replicate_task(t) for t in tasks]
    else:
        chunk = max(1, scenario.replicates // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_one_blas_thread) as pool:
            records = list(pool.map(_replicate_task, tasks, chunksize=chunk))

    hits = {pr: 0 for pr in scenario.pairs}
    length_sums = {pr: 0.0 for pr in scenario.pairs}
    xi_lists: dict[tuple[int, int], list[float]] = {pr: [] for pr in scenario.pairs}
    used = 0
    for rec in records:
        if rec is None:
            continue
        used += 1
        for pr, (hit, half, xi) in zip(scenario.pairs, rec):
            hits[pr] += int(hit)
            length_sums[pr] += half
            xi_lists[pr].append(xi)

    per_pair = {}
    for pr in scenario.pairs:
        cov = 100.0 * hits[pr] / used if used else float("nan")
        mean_len = length_sums[pr] / used if used else float("nan")
        per_pair[pr] = PairSummary(cov, mean_len, used)
    ne = 100.0 * (scenario.replicates - used) / scenario.replicates
    xi = {pr: np.array(v) for pr, v in xi_lists.items()}
    return CoverageReport(scenario, per_pair, ne, xi)


# ---------------------------------------------------------------------------
# scenario files and report CSVs
# ---------------------------------------------------------------------------

def parse_scenario_file(text: str) -> dict:
    """Key-value scenario config.

    One ``key = value`` (or ``key: value``) per line, ``#`` comments.
    Keys: link, n, L (comma list allowed), noise (semicolon list of
    mechanism grammar strings, or 'none'), replicates, seed, pairs
    (e.g. ``1,2; 50,51; 99,100``), level, exact, workers.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        for sep in ("=", ":"):
            if sep in body:
                key, val = body.split(sep, 1)
                break
        else:
            raise ParseError(f"expected key = value, got {body!r}", lineno)
        raw[key.strip().lower()] = val.strip()

    for req in ("link", "n"):
        if req not in raw:
            raise ParseError(f"scenario file is missing the {req!r} key")
    out: dict = {
        "link": LinkKind.parse(raw["link"]),
        "n": int(raw["n"]),
        "L_values": [float(v) for v in raw.get("l", "0").split(",")],
        "replicates": int(raw.get("replicates", DEFAULT_REPLICATES)),
        "seed": int(raw.get("seed", 0)),
        "level": float(raw.get("level", 0.95)),
        "exact": raw.get("exact", "false").lower() in ("1", "true", "yes"),
        "workers": int(raw.get("workers", 1)),
    }
    noise_txt = raw.get("noise", "none")
    out["noise_values"] = [
        None if tok.strip().lower() in ("none", "") else noise_mod.parse_mechanism(tok)
        for tok in noise_txt.split(";")
    ]
    if "pairs" in raw:
        pairs = []
        for tok in raw["pairs"].split(";"):
            tok = tok.strip()
            if not tok:
                continue
            ij = tok.split(",")
            if len(ij) != 2:
                raise ParseError(f"bad pair {tok!r} in scenario pairs")
            pairs.append((int(ij[0]), int(ij[1])))
        out["pairs"] = tuple(pairs)
    else:
        out["pairs"] = default_pairs(out["n"])
    return out


def scenario_grid(cfg: dict) -> list[Scenario]:
    """Expand a parsed scenario config into cells (noise blocks x L columns).

    Every cell runs from the same master seed so that a cell's report
    does not depend on which other cells are in the grid.
    """
    cells = []
    for mech in cfg["noise_values"]:
        for L in cfg["L_values"]:
            cells.append(Scenario(
                link=cfg["link"], n=cfg["n"], L=L, noise=mech,
                replicates=cfg["replicates"], seed=cfg["seed"],
                pairs=cfg["pairs"], level=cfg["level"], exact=cfg["exact"]))
    return cells


def report_csv(reports: list[CoverageReport]) -> str:
    """One row per (pair, L, noise) cell, mirroring the table layout."""
    lines = ["link,n,replicates,noise,L,pair_i,pair_j,"
             "coverage_percent,mean_ci_length,nonexistence_percent"]
    for rep in reports:
        s = rep.scenario
        noise = noise_mod.mechanism_label(s.noise) if s.noise else "none"
        for (i, j) in s.pairs:
            p = rep.per_pair[(i, j)]
            lines.append(
                f"{s.link.value},{s.n},{s.replicates},{noise},{s.L:.17g},"
                f"{i},{j},{p.coverage_percent:.17g},{p.mean_ci_length:.17g},"
                f"{rep.nonexistence_percent:.17g}")
    return "\n".join(lines) + "\n"


def qq_csv(report: CoverageReport, pair: tuple[int, int]) -> str:
    lines = ["theoretical,empirical"]
    lines += [f"{t:.17g},{e:.17g}" for (t, e) in qq_export(report, pair)]
    return "\n".join(lines) + "\n"
