"""Workloads of the privdeg benchmark.

Each workload turns a seed into input files with the benchmark's own
numpy code (never with privdeg itself, so a change to the program cannot
change its own input), names the ``privdeg`` command line that runs on
them, and checks the output that command writes. A check raises
``CheckError``; it never repairs or skips an output.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# two-sided Hermite noise at the default privacy budget (lambda0 = 2):
# a1 = 4I/5, a2 = I/5 with I = hermite_budget_intensity(2.0)
HERM2 = "herm2:a1=1.4730777507324677,a2=0.36826943768311693"
LAP = "lap:b=1.0"
SOLVER_TOL = 1e-8  # the CLI's --tol default, which every workload keeps
Z95 = 1.959963984540054  # standard normal quantile at 0.975


class CheckError(Exception):
    """An output of the program is wrong."""


@dataclass(frozen=True)
class Invocation:
    """One ``privdeg`` command line, its output file and the output's check."""

    argv: tuple[str, ...]
    out: Path
    check: Callable[[str], None]

    def with_workers(self, workers: int) -> "Invocation":
        """The same simulation with another ``--workers`` value."""
        argv = list(self.argv)
        argv[argv.index("--workers") + 1] = str(workers)
        return Invocation(tuple(argv), self.out, self.check)


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int, Path], Invocation]
    # the traced run also times the same simulation at 2 workers
    pool: bool = False


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, *name.encode()])


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _rows(text: str, header: str) -> list[dict[str, str]]:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    if not lines or lines[0] != header:
        raise CheckError(f"header {lines[:1]!r}, expected {header!r}")
    return list(csv.DictReader(io.StringIO("\n".join(lines) + "\n")))


# ---------------------------------------------------------------------------
# simulate: scenario report
# ---------------------------------------------------------------------------

REPORT_HEADER = ("link,n,replicates,noise,L,pair_i,pair_j,"
                 "coverage_percent,mean_ci_length,nonexistence_percent")


def _report_rows(text: str) -> list[dict[str, str]]:
    """Report rows; the noise label may itself hold commas (herm2:a1=..,a2=..)."""
    lines = text.splitlines()
    if not lines or lines[0] != REPORT_HEADER:
        raise CheckError(f"header {lines[:1]!r}, expected {REPORT_HEADER!r}")
    keys = REPORT_HEADER.split(",")
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        if len(f) < len(keys):
            raise CheckError(f"short report row {line!r}")
        rows.append(dict(zip(keys, f[:3] + [",".join(f[3:len(f) - 6])] + f[-6:])))
    return rows


def _expected_half_length(link: str, n: int, L: float, i: int, j: int) -> float:
    """CI half-length z sqrt(1/v_i + 1/v_j) with v from the truth itself."""
    alpha = np.arange(1, n + 1) * L / n
    x = alpha[:, None] + alpha[None, :]
    if link == "logit":
        p = 1.0 / (1.0 + np.exp(-x))
        dp = p * (1.0 - p)
    else:  # cloglog
        dp = np.exp(x - np.exp(x))
    np.fill_diagonal(dp, 0.0)
    v = dp.sum(axis=1)
    return Z95 * math.sqrt(1.0 / v[i - 1] + 1.0 / v[j - 1])


def check_report(text: str, scenario: dict, reference: str | None) -> None:
    """A simulate report: its cells, plausible statistics and, when a
    reference report is given, agreement with it (coverage and
    nonexistence exactly, mean CI length to 1e-9 relative)."""
    rows = _report_rows(text)
    pairs = scenario["pairs"]
    if len(rows) != len(pairs):
        raise CheckError(f"{len(rows)} report rows, expected {len(pairs)}")
    reps = scenario["replicates"]
    for row, (i, j) in zip(rows, pairs):
        cell = (row["link"], int(row["n"]), int(row["replicates"]), row["noise"],
                float(row["L"]), int(row["pair_i"]), int(row["pair_j"]))
        want = (scenario["link"], scenario["n"], reps, scenario["noise"],
                scenario["L"], i, j)
        if cell != want:
            raise CheckError(f"report cell {cell}, expected {want}")
        cov = float(row["coverage_percent"])
        ne = float(row["nonexistence_percent"])
        half = float(row["mean_ci_length"])
        used = round(reps * (1.0 - ne / 100.0))
        if not (0 <= ne < 100 and used >= 1):
            raise CheckError(f"nonexistence {ne}% leaves no fits")
        if not _close(cov * used / 100.0, round(cov * used / 100.0), 1e-9):
            raise CheckError(f"coverage {cov}% is not a count out of {used} fits")
        # at these sizes coverage of a 95% interval stays well above 80%,
        # and the mean half-length within 10% of its value at the truth
        if cov < 80.0:
            raise CheckError(f"pair ({i},{j}) coverage {cov}% below 80%")
        exp_half = _expected_half_length(scenario["link"], scenario["n"],
                                         scenario["L"], i, j)
        if not _close(half, exp_half, 0.10):
            raise CheckError(f"pair ({i},{j}) mean CI half-length {half}, "
                             f"expected about {exp_half}")
    if reference is None:
        return
    ref = _report_rows(reference)
    for row, rrow in zip(rows, ref):
        for key in ("coverage_percent", "nonexistence_percent"):
            if row[key] != rrow[key]:
                raise CheckError(f"{key} {row[key]} differs from reference {rrow[key]}")
        if not _close(float(row["mean_ci_length"]), float(rrow["mean_ci_length"]), 1e-9):
            raise CheckError(f"mean_ci_length {row['mean_ci_length']} differs "
                             f"from reference {rrow['mean_ci_length']}")


def _simulation(name: str, link: str, n: int, L: float, noise: str,
                replicates: int, workers: int) -> Callable[[int, Path], Invocation]:
    def prepare(seed: int, work: Path) -> Invocation:
        pairs = ((1, 2), (n // 2, n // 2 + 1), (n - 1, n))
        scenario = dict(link=link, n=n, L=L, noise=noise, replicates=replicates,
                        seed=int(_rng(seed, name).integers(2**31)), pairs=pairs)
        work.mkdir(parents=True, exist_ok=True)
        path = work / "bench.scenario"
        path.write_text(
            f"link = {link}\nn = {n}\nL = {L!r}\nnoise = {noise}\n"
            f"replicates = {replicates}\nseed = {scenario['seed']}\n"
            "pairs = " + "; ".join(f"{i},{j}" for i, j in pairs) + "\n")
        reference = REFERENCE_DIR / f"{name}.csv" if seed == DEFAULT_SEED else None
        out = work / "report.csv"
        return Invocation(
            ("simulate", str(path), "--workers", str(workers), "--out", str(out)),
            out, lambda text: check_report(
                text, scenario, reference.read_text() if reference else None))
    return prepare


# ---------------------------------------------------------------------------
# analyze: fit table of a generated network
# ---------------------------------------------------------------------------

TABLE_HEADER = "vertex,dtilde,alpha_hat,ci_lo,ci_hi,se"


def logit_graph(seed: int, n: int, L: float) -> np.ndarray:
    """Edges (1-indexed, i < j) of a logit-link graph at alpha_i = i L / n."""
    rng = np.random.default_rng(seed)
    alpha = np.arange(1, n + 1) * L / n
    i, j = np.triu_indices(n, k=1)
    keep = rng.random(i.size) < 1.0 / (1.0 + np.exp(-(alpha[i] + alpha[j])))
    return np.stack([i[keep] + 1, j[keep] + 1], axis=1)


def edge_list_text(n: int, edges: np.ndarray) -> str:
    return f"n={n}\n" + "".join(f"{i} {j}\n" for i, j in edges.tolist())


def check_table(text: str, n: int, edges: np.ndarray) -> None:
    """An analyze table: pruned vertices, integer herm2 noise on the true
    degrees, intervals around alpha_hat, se from the Jacobian diagonal,
    and the moment residual recomputed from dtilde and alpha_hat within
    the solver tolerance."""
    deg = np.bincount(edges.ravel() - 1, minlength=n)
    zero = [v + 1 for v in range(n) if deg[v] == 0]
    first = text.split("\n", 1)[0]
    removed = ([int(v) for v in first.split("=", 1)[1].split(",")]
               if first.startswith("# removed_zero_degree_vertices=") else [])
    if removed != zero:
        raise CheckError(f"removed vertices {removed}, expected {zero}")
    rows = _rows(text, TABLE_HEADER)
    kept = [v + 1 for v in range(n) if deg[v] > 0]
    if [int(r["vertex"]) for r in rows] != kept:
        raise CheckError("table vertices are not the non-isolated vertices in order")
    try:
        cols = {k: np.array([float(r[k]) for r in rows])
                for k in ("dtilde", "alpha_hat", "ci_lo", "ci_hi", "se")}
    except ValueError:
        raise CheckError("table has missing or non-numeric fit columns") from None
    d, a, se = cols["dtilde"], cols["alpha_hat"], cols["se"]
    noise = d - deg[np.array(kept) - 1]
    if not np.array_equal(noise, np.round(noise)):
        raise CheckError("dtilde minus the true degree is not integer-valued")
    if not np.all((cols["ci_lo"] < a) & (a < cols["ci_hi"])):
        raise CheckError("an interval does not contain its alpha_hat")
    if not np.allclose(cols["ci_hi"] - cols["ci_lo"], 2 * Z95 * se, rtol=1e-9, atol=0):
        raise CheckError("interval widths disagree with 2 z se")
    x = a[:, None] + a[None, :]
    p = 0.5 * (1.0 + np.tanh(0.5 * x))  # logistic, written independently
    dp = p * (1.0 - p)
    np.fill_diagonal(p, 0.0)
    np.fill_diagonal(dp, 0.0)
    resid = float(np.max(np.abs(d - p.sum(axis=1))))
    tol = SOLVER_TOL * max(1.0, float(np.max(np.abs(d))))
    if resid > tol:
        raise CheckError(f"moment residual {resid:.3g} exceeds tolerance {tol:.3g}")
    if not np.allclose(se, 1.0 / np.sqrt(dp.sum(axis=1)), rtol=1e-9, atol=0):
        raise CheckError("se disagrees with the Jacobian diagonal at alpha_hat")


def _analyze(name: str, n: int, L: float) -> Callable[[int, Path], Invocation]:
    def prepare(seed: int, work: Path) -> Invocation:
        rng = _rng(seed, name)
        edges = logit_graph(int(rng.integers(2**31)), n, L)
        work.mkdir(parents=True, exist_ok=True)
        path = work / "network.edges"
        path.write_text(edge_list_text(n, edges))
        out = work / "table.csv"
        argv = ("analyze", str(path), "--link", "logit", "--noise", HERM2,
                "--seed", str(int(rng.integers(2**31))), "--out", str(out))
        return Invocation(argv, out, lambda text: check_table(text, n, edges))
    return prepare


# ---------------------------------------------------------------------------
# bounds: tail bound against Monte Carlo survival
# ---------------------------------------------------------------------------

BOUNDS_HEADER = "t,bound,empirical,mc_stderr"


def check_bounds(text: str, reps: int, grid: int) -> None:
    """A bounds table: the grid, a survival curve with its binomial
    standard errors, and every bound >= empirical - 4 mc_stderr."""
    rows = _rows(text, BOUNDS_HEADER)
    if len(rows) != grid:
        raise CheckError(f"{len(rows)} bound rows, expected {grid}")
    t, b, emp, se = (np.array([float(r[k]) for r in rows])
                     for k in ("t", "bound", "empirical", "mc_stderr"))
    if t[0] != 0.0 or np.any(np.diff(t) <= 0):
        raise CheckError("t grid does not rise from 0")
    if np.any(np.diff(emp) > 0) or emp[0] != 1.0:
        raise CheckError("empirical survival is not a non-increasing curve from 1")
    if not np.allclose(se, np.sqrt(emp * (1 - emp) / reps), rtol=1e-12, atol=1e-15):
        raise CheckError("mc_stderr is not the binomial standard error")
    if np.any((b <= 0) | (b > 1)):
        raise CheckError("a bound lies outside (0, 1]")
    low = np.flatnonzero(b < emp - 4 * se)
    if low.size:
        k = int(low[0])
        raise CheckError(f"bound {b[k]} at t={t[k]} is below empirical "
                         f"{emp[k]} - 4 x {se[k]}")


def _bounds(name: str, n: int, reps: int, grid: int) -> Callable[[int, Path], Invocation]:
    def prepare(seed: int, work: Path) -> Invocation:
        work.mkdir(parents=True, exist_ok=True)
        out = work / "bounds.csv"
        argv = ("bounds", "--kind", "bernstein", "--noise", HERM2, "--n", str(n),
                "--reps", str(reps), "--grid", str(grid),
                "--seed", str(int(_rng(seed, name).integers(2**31))), "--out", str(out))
        return Invocation(argv, out, lambda text: check_bounds(text, reps, grid))
    return prepare


# BENCHMARK.json records why each workload is in the set.
WORKLOADS = {w.name: w for w in (
    Workload("sim_n100_herm2",
             _simulation("sim_n100_herm2", "logit", 100, 0.0, HERM2, 1500, 1)),
    Workload("sim_n400_lap",
             _simulation("sim_n400_lap", "cloglog", 400, 0.42342141918867575,
                         LAP, 160, 1), pool=True),
    Workload("analyze_n2000", _analyze("analyze_n2000", 2000, -3.0)),
    Workload("bounds_herm2", _bounds("bounds_herm2", 200, 50_000, 20)),
)}
