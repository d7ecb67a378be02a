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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np

from . import noise as noise_mod
from .estimator import _ELEMENT_BUDGET, SolverOptions, normal_quantile, solve_many
# Not called here; perfbench/tracing.py wraps these four names in this module.
from .estimator import solve, xi_statistic  # noqa: F401
from .links import EdgeSampler, LinkKind, expected_degrees
from .links import degrees, sample_graph  # noqa: F401
from .netio import ParseError

DEFAULT_REPLICATES = 1000


def truth_vector(n: int, L: float) -> np.ndarray:
    """Truth used throughout the scenario grid: alpha*_i = i L / n, i = 1..n."""
    if n < 2:
        raise ValueError("need n >= 2")
    try:
        i = np.arange(1, n + 1, dtype=float)
    except (MemoryError, OverflowError, ValueError):
        raise ValueError(f"vertex count n={n} is too large "
                         "to hold a parameter vector") from None
    return i * L / n


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
    from scipy.special import ndtri  # imported here: scipy is slow to load

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


def _block(scenario: Scenario, z: float,
           children: list[np.random.SeedSequence]) -> tuple[np.ndarray, ...]:
    """Fit a contiguous block of replicates, one seed child each.

    Each replicate draws its degrees and noise from its own child; the
    block's fits run together in ``solve_many``. Returns (hit, half, xi):
    per reported pair, the interval hit, the interval half-length and the
    pair statistic, one row per replicate whose fit exists, in order.
    """
    link = scenario.link
    truth, sampler = _cell_model(link, scenario.n, scenario.L)

    def draws():
        for child in children:
            rng = np.random.default_rng(child)
            dt = sampler.degrees(rng)
            if scenario.noise is not None:
                dt = dt + noise_mod.sample(scenario.noise, rng, size=scenario.n)
            yield dt

    dts = [expected_degrees(link, truth)] * len(children) if scenario.exact else draws()
    i, j = (np.array(col) - 1 for col in zip(*scenario.pairs))
    ij = np.concatenate((i, j))
    exists = np.zeros(len(children), dtype=bool)
    a, v = np.zeros((len(children), ij.size)), np.zeros((len(children), ij.size))
    for r, fit in enumerate(solve_many(link, dts, scenario.solver)):
        if fit.exists:
            exists[r], a[r], v[r] = True, fit.alpha_hat[ij], fit.v_hat[ij]
    (ai, aj), (vi, vj) = np.hsplit(a[exists], 2), np.hsplit(v[exists], 2)
    se = np.sqrt(1.0 / vi + 1.0 / vj)
    half = z * se
    hit = np.abs((ai - aj) - (truth[i] - truth[j])) <= half
    xi = ((ai + aj) - (truth[i] + truth[j])) / se
    return hit, half, xi


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
    """Execute a scenario, optionally fanning blocks of replicates over processes.

    Per-replicate seeds are pre-assigned (child r of the scenario seed),
    block boundaries depend on n and the replicate index alone, and
    results are folded in replicate order, so any worker count produces
    an identical report.
    """
    children = np.random.SeedSequence(scenario.seed).spawn(scenario.replicates)
    z = normal_quantile(scenario.level)
    size = max(1, _ELEMENT_BUDGET // scenario.n)  # replicates, n degrees each
    tasks = [(scenario, z, children[lo:lo + size])
             for lo in range(0, scenario.replicates, size)]
    if workers <= 1:
        blocks = [_block(*t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_one_blas_thread) as pool:
            blocks = list(pool.map(_block, *zip(*tasks)))

    hit, half, xi_all = (np.concatenate([b[f] for b in blocks]) for f in range(3))
    used = half.shape[0]
    hits = hit.sum(axis=0)
    length_sums = np.zeros(len(scenario.pairs))
    for row in half:  # one replicate at a time, in order: no pairwise summation
        length_sums += row
    per_pair = {}
    for col, pr in enumerate(scenario.pairs):
        cov = 100.0 * int(hits[col]) / used if used else float("nan")
        mean_len = float(length_sums[col]) / used if used else float("nan")
        per_pair[pr] = PairSummary(cov, mean_len, used)
    ne = 100.0 * (scenario.replicates - used) / scenario.replicates
    xi = {pr: xi_all[:, col].copy() for col, pr in enumerate(scenario.pairs)}
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
