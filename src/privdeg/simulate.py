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
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from statistics import NormalDist
from typing import Optional

import numpy as np

from . import noise as noise_mod
from .estimator import _ELEMENT_BUDGET, normal_quantile, solve_many
# Not called here; perfbench/tracing.py wraps these four names in this module.
from .estimator import solve, xi_statistic  # noqa: F401
from .links import EdgeSampler, LinkKind, truth_vector
from .links import degrees, sample_graph  # noqa: F401
from .netio import ParseError


def default_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The three reported pairs: (1,2), (n/2, n/2+1), (n-1, n); 1-indexed.

    At n <= 3 two of them coincide, and the pair is listed once.
    """
    return tuple(dict.fromkeys(((1, 2), (n // 2, n // 2 + 1), (n - 1, n))))


@dataclass(frozen=True)
class Scenario:
    """One simulation cell; pairs are 1-indexed vertex pairs to report."""

    link: LinkKind
    n: int
    L: float
    noise: Optional[noise_mod.NoiseMechanism]
    replicates: int = 1000
    seed: int = 0
    pairs: tuple[tuple[int, int], ...] = ()
    level: float = 0.95

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.n < 2:
            raise ValueError("need n >= 2")
        ps = self.pairs or default_pairs(self.n)
        for at, (i, j) in enumerate(ps):
            if not (1 <= i <= self.n and 1 <= j <= self.n) or i == j:
                raise ValueError(f"bad pair ({i}, {j}) for n={self.n}")
            if (i, j) in ps[:at]:
                raise ValueError(f"pair ({i}, {j}) is listed twice")
        object.__setattr__(self, "pairs", tuple(ps))
        # the truth itself must be admissible for the link
        if self.link == LinkKind.LOG and self.L >= 0:
            raise ValueError("log link needs L < 0 so that all pair sums are negative")


@dataclass(frozen=True)
class PairSummary:
    """Both fields are None when no replicate's fit exists."""

    coverage_percent: Optional[float]
    mean_ci_length: Optional[float]


@dataclass(frozen=True)
class CoverageReport:
    scenario: Scenario
    per_pair: dict[tuple[int, int], PairSummary]
    nonexistence_percent: float
    xi: dict[tuple[int, int], np.ndarray]  # per pair, in replicate order


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
    inv_cdf = NormalDist().inv_cdf
    theo = [inv_cdf((k - 0.5) / m) for k in range(1, m + 1)]
    return list(zip(theo, xs.tolist()))


# ---------------------------------------------------------------------------
# replicate execution
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _cell_model(link: LinkKind, n: int, L: float) -> tuple[np.ndarray, EdgeSampler]:
    """Truth and edge sampler of the running cell, built once per process.

    Workers build their own copy on first use, so the pair probabilities
    are never pickled with a task. Cells run one after another, so only
    the latest is kept: its p, 8 bytes a pair (1.6 GB at n = 20,000), with
    each draw adding one chunk of the sampler's row walk.
    """
    truth = truth_vector(n, L)
    truth.flags.writeable = False
    return truth, EdgeSampler(link, truth)


def _block(scenario: Scenario, z: float,
           children: list[np.random.SeedSequence]) -> tuple[np.ndarray, ...]:
    """Fit a contiguous block of replicates, one seed child each.

    Each replicate draws its degrees and then its noise from its own
    child's generator: the degrees of the whole block come from one
    ``EdgeSampler.block_degrees`` call and the noise is added row by row,
    and the block's (B, n) array goes to ``solve_many`` whole, which
    screens, collapses and starts it in one pass and runs its fits
    stacked. Returns (hit, half, xi): per reported pair, the interval
    hit, the interval half-length and the pair statistic, one row per
    replicate whose fit exists, in order.
    """
    link = scenario.link
    truth, sampler = _cell_model(link, scenario.n, scenario.L)
    rngs = [np.random.default_rng(child) for child in children]
    D = sampler.block_degrees(rngs)
    if scenario.noise is not None:
        for row, rng in zip(D, rngs):
            row += noise_mod.sample(scenario.noise, rng, size=scenario.n)
    del rngs  # done drawing: B generators need not outlive the fits

    i, j = (np.array(col) - 1 for col in zip(*scenario.pairs))
    ij = np.concatenate((i, j))
    exists = np.zeros(len(children), dtype=bool)
    a, v = np.zeros((len(children), ij.size)), np.zeros((len(children), ij.size))
    for r, fit in enumerate(solve_many(link, D)):
        if fit.exists:
            exists[r], a[r], v[r] = True, fit.alpha_hat[ij], fit.v_hat[ij]
    (ai, aj), (vi, vj) = np.hsplit(a[exists], 2), np.hsplit(v[exists], 2)
    se = np.sqrt(1.0 / vi + 1.0 / vj)
    half = z * se
    hit = np.abs((ai - aj) - (truth[i] - truth[j])) <= half
    xi = ((ai + aj) - (truth[i] + truth[j])) / se
    return hit, half, xi


@lru_cache(maxsize=1)
def _openblas_threads():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS,
    or None when numpy carries no OpenBLAS of its own."""
    for path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs")
                       .glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            get, put = (getattr(lib, f"{prefix}{verb}_num_threads{suffix}", None)
                        for verb in ("get", "set"))
            if get and put:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _one_blas_thread() -> Optional[int]:
    """Run numpy's bundled OpenBLAS on one thread and return the count
    before (None, doing nothing, when numpy carries no OpenBLAS of its own).

    Also the pool initializer: a forked worker otherwise keeps one BLAS
    thread per core, so w workers run w times as many threads as cores.
    """
    threads = _openblas_threads()
    if threads is None:
        return None
    before = threads[0]()
    threads[1](1)
    return before


def run_scenario(scenario: Scenario, workers: int = 1) -> CoverageReport:
    """Execute a scenario, optionally fanning blocks of replicates over processes.

    Per-replicate seeds are pre-assigned (child r of the scenario seed),
    block boundaries depend on n and the replicate index alone, every
    block runs on one BLAS thread (multi-threaded LU can round
    differently), and results are folded in replicate order, so any
    worker count produces an identical report.
    """
    children = np.random.SeedSequence(scenario.seed).spawn(scenario.replicates)
    z = normal_quantile(scenario.level)
    size = max(1, _ELEMENT_BUDGET // scenario.n)  # replicates, n degrees each
    tasks = [(scenario, z, children[lo:lo + size])
             for lo in range(0, scenario.replicates, size)]
    workers = min(workers, len(tasks))  # a pool starts all its workers at once
    if workers <= 1:
        before = _one_blas_thread()
        try:
            blocks = [_block(*t) for t in tasks]
        finally:
            if before is not None:
                _openblas_threads()[1](before)
    else:
        # imported here: it loads multiprocessing, which no in-process run needs
        from concurrent.futures import ProcessPoolExecutor
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
        per_pair[pr] = (PairSummary(100.0 * int(hits[col]) / used,
                                    float(length_sums[col]) / used)
                        if used else PairSummary(None, None))
    ne = 100.0 * (scenario.replicates - used) / scenario.replicates
    xi = {pr: xi_all[:, col].copy() for col, pr in enumerate(scenario.pairs)}
    return CoverageReport(scenario, per_pair, ne, xi)


# ---------------------------------------------------------------------------
# scenario files and report CSVs
# ---------------------------------------------------------------------------

def parse_pairs(text: str) -> tuple[tuple[int, int], ...]:
    """Vertex pairs ``i,j`` separated by ``;`` (scenario files, ``qq --pair``)."""
    pairs = []
    for tok in text.split(";"):
        tok = tok.strip()
        if not tok:
            continue
        ij = tok.split(",")
        if len(ij) != 2:
            raise ParseError(f"bad pair {tok!r}; expected i,j")
        pairs.append((int(ij[0]), int(ij[1])))
    return tuple(pairs)


# the parser of each scenario-file key (lower case); L and noise take lists
_KEYS = {
    "link": LinkKind.parse,
    "n": int,
    "l": lambda text: [float(v) for v in text.split(",")],
    "noise": lambda text: [noise_mod.parse_release(tok) for tok in text.split(";")],
    "replicates": int,
    "seed": int,
    "pairs": parse_pairs,
    "level": float,
}


def parse_scenario_file(text: str) -> list[Scenario]:
    """The cells of a key-value scenario file.

    One ``key = value`` (or ``key: value``) per line, ``#`` comments.
    Keys: link, n, L (comma list allowed), noise (semicolon list of
    mechanism grammar strings, or 'none'), replicates, seed, pairs
    (e.g. ``1,2; 50,51; 99,100``) and level. An unknown key, a key given
    twice or a value that does not parse is a ParseError naming its
    line. A key left out takes the ``Scenario`` default. Cells run noise
    blocks x L columns, each from the same master seed, so that a cell's
    report does not depend on which other cells are in the grid.
    """
    given: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        kv = re.split("[=:]", body, maxsplit=1)  # the value may hold "=" or ":"
        if len(kv) != 2:
            raise ParseError(f"expected key = value, got {body!r}", lineno)
        key = kv[0].strip()
        name = key.lower()
        if name not in _KEYS:
            raise ParseError(f"unknown scenario key {key!r}", lineno)
        if name in given:
            raise ParseError(f"scenario key {key!r} given twice", lineno)
        try:
            given[name] = _KEYS[name](kv[1].strip())
        except ValueError as exc:
            raise ParseError(f"bad {key} value: {exc}", lineno) from None

    for req in ("link", "n"):
        if req not in given:
            raise ParseError(f"scenario file is missing the {req!r} key")
    Ls, noises = given.pop("l", [0.0]), given.pop("noise", [None])
    return [Scenario(L=L, noise=mech, **given) for mech in noises for L in Ls]


def report_csv(reports: list[CoverageReport]) -> str:
    """One row per (pair, L, noise) cell, mirroring the table layout.

    Coverage and CI length are left empty when no fit of the cell exists;
    its nonexistence_percent of 100 says why.
    """
    lines = ["link,n,replicates,noise,L,pair_i,pair_j,"
             "coverage_percent,mean_ci_length,nonexistence_percent"]
    for rep in reports:
        s = rep.scenario
        noise = noise_mod.mechanism_label(s.noise) if s.noise else "none"
        for (i, j) in s.pairs:
            p = rep.per_pair[(i, j)]
            fit = ("," if p.coverage_percent is None else
                   f"{p.coverage_percent:.17g},{p.mean_ci_length:.17g}")
            lines.append(
                f"{s.link.value},{s.n},{s.replicates},{noise},{s.L:.17g},"
                f"{i},{j},{fit},{rep.nonexistence_percent:.17g}")
    return "\n".join(lines) + "\n"


def qq_csv(report: CoverageReport, pair: tuple[int, int]) -> str:
    lines = ["theoretical,empirical"]
    lines += [f"{t:.17g},{e:.17g}" for (t, e) in qq_export(report, pair)]
    return "\n".join(lines) + "\n"
