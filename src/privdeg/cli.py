"""Command-line surface.

Subcommands: sample, privatize, estimate, analyze, simulate, bounds, qq.
Exit codes: 0 success, 2 input/parse error, 3 estimator nonexistence on
a single-estimate command (estimate, analyze) or in every replicate of a
qq cell.

Each command imports the privdeg modules it runs when it starts, so a run
compiles only those: ``bounds`` loads ``noise`` and ``bounds``, ``analyze``
neither ``simulate`` nor ``bounds``, and ``simulate`` and ``qq`` neither
``bounds`` nor ``analysis``. Importing this module loads numpy and no other
privdeg submodule.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .analysis import ResultTable
    from .links import LinkKind
    from .netio import EdgeList
    from .noise import NoiseMechanism
    from .simulate import CoverageReport, Scenario

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NONEXISTENT = 3

# noise terms one bounds run may draw: --reps x --n, or --reps for subexp. A sum
# kind in numpy's range draws --reps values of the n-term sum's own law, so there
# the cap bounds no time; it stays, so that every refusal stays as it was
_MAX_DRAWS = 2**24
# values per bounds noise.sample call of a table drawn term by term, or --reps if
# larger (one row above 2^15)
_BLOCK = 2**16


# The benchmark's tracer (perfbench/tracing.py) times these five calls by
# replacing them on this module, so each stays a module attribute that a
# command calls, and imports its module at call time.
def parse_edges(text: str, fmt: str) -> EdgeList:
    from . import netio
    return netio.parse_edges(text, fmt)


def prune_zero_degree(e: EdgeList) -> tuple[EdgeList, list[int]]:
    from . import netio
    return netio.prune_zero_degree(e)


def table_from_degrees(dtilde: np.ndarray, link: LinkKind,
                       labels: list[int] | None = None,
                       level: float = 0.95) -> ResultTable:
    from . import analysis
    return analysis.table_from_degrees(dtilde, link, labels=labels, level=level)


def run_scenario(scenario: Scenario, workers: int = 1) -> CoverageReport:
    from . import simulate
    return simulate.run_scenario(scenario, workers=workers)


def report_csv(reports: list[CoverageReport]) -> str:
    from . import simulate
    return simulate.report_csv(reports)


def _write(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _load_edges(path: str) -> EdgeList:
    from .netio import sniff_format
    text = Path(path).read_text()
    return parse_edges(text, sniff_format(text))


def _result_table_csv(table: ResultTable, removed: list[int]) -> str:
    lines = []
    if removed:
        lines.append("# removed_zero_degree_vertices=" +
                     ",".join(str(v) for v in removed))
    lines.append("vertex,dtilde,alpha_hat,ci_lo,ci_hi,se")
    for r in table.rows:
        if r.alpha is None:
            lines.append(f"{r.vertex},{r.dtilde:.17g},,,,")
        else:
            lines.append(f"{r.vertex},{r.dtilde:.17g},{r.alpha:.17g},"
                         f"{r.lo:.17g},{r.hi:.17g},{r.se:.17g}")
    return "\n".join(lines) + "\n"


def _add_common(p: argparse.ArgumentParser, *, link=True, noise=True) -> None:
    p.add_argument("--out", default=None, help="output path (default stdout)")
    if link:
        p.add_argument("--link", default="logit",
                       help="link function: log | logit | cloglog")
    if noise:
        p.add_argument("--seed", type=int, default=0, help="seed of the noise draw")
        p.add_argument("--noise", default=None,
                       help="noise mechanism, e.g. dlap:p=0.5 or herm2:a1=1.2,a2=0.3, "
                            "or none (release raw degrees)")


def _mechanism(args) -> NoiseMechanism | None:
    from .noise import parse_release
    # not argparse's required=True: its SystemExit would bypass main's exit codes
    if args.noise is None:
        raise ValueError("specify a mechanism with --noise, or --noise none")
    return parse_release(args.noise)


def _report_fit(link: LinkKind, table: ResultTable) -> int:
    """Exit code of a single fit; nonexistence and suspect fits go to stderr."""
    from .links import LinkKind
    if not table.result.exists:
        print(f"estimate does not exist: {table.result.reason}", file=sys.stderr)
        return EXIT_NONEXISTENT
    if link == LinkKind.LOG:
        top = float(np.sort(table.result.alpha_hat)[-2:].sum())
        if top >= 0:
            print(f"warning: log-link fit has a pair sum alpha_i + alpha_j = {top:+.3g} "
                  ">= 0, so some fitted edge probabilities exceed 1", file=sys.stderr)
    return EXIT_OK


def cmd_sample(args) -> int:
    from .links import LinkKind, sample_graph
    from .netio import read_degree_file, serialize_edges
    from .simulate import truth_vector
    link = LinkKind.parse(args.link)
    alpha = (read_degree_file(Path(args.alpha_file).read_text())
             if args.alpha_file else truth_vector(args.n, args.L))
    _write(args.out, serialize_edges(sample_graph(link, alpha,
                                                  np.random.default_rng(args.seed))))
    return EXIT_OK


def cmd_privatize(args) -> int:
    from .analysis import noisy_degrees
    e = _load_edges(args.input)
    d = noisy_degrees(e, _mechanism(args), args.seed)
    lines = [f"{i + 1} {v:.17g}" for i, v in enumerate(d)]
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_estimate(args) -> int:
    from .links import LinkKind
    from .netio import read_degree_file
    link = LinkKind.parse(args.link)
    d = read_degree_file(Path(args.input).read_text())
    table = table_from_degrees(d, link, level=args.level)
    _write(args.out, _result_table_csv(table, []))
    return _report_fit(link, table)


def cmd_analyze(args) -> int:
    from .analysis import noisy_degrees
    from .links import LinkKind
    from .netio import kept_labels
    link = LinkKind.parse(args.link)
    e = _load_edges(args.input)
    removed: list[int] = []
    labels = None  # every vertex, 1..n
    if not args.keep_isolated:
        labels = kept_labels(e)
        e, removed = prune_zero_degree(e)
    d = noisy_degrees(e, _mechanism(args), args.seed)
    table = table_from_degrees(d, link, labels=labels, level=args.level)
    _write(args.out, _result_table_csv(table, removed))
    return _report_fit(link, table)


def _scenario_cells(args) -> list:
    """Cells of the scenario file; --seed overrides the file's seed."""
    from .simulate import parse_scenario_file
    cells = parse_scenario_file(Path(args.scenario).read_text())
    if args.seed is not None:
        cells = [replace(cell, seed=args.seed) for cell in cells]
    return cells


def cmd_simulate(args) -> int:
    reports = [run_scenario(cell, workers=args.workers) for cell in _scenario_cells(args)]
    _write(args.out, report_csv(reports))
    return EXIT_OK


def cmd_qq(args) -> int:
    from .simulate import parse_pairs, qq_csv
    cells = _scenario_cells(args)
    if len(cells) != 1:
        raise ValueError("qq needs a single-cell scenario (one L, one noise)")
    cell = cells[0]
    if args.pair is not None:  # checked by Scenario before any replicate runs
        pairs = parse_pairs(args.pair)
        if not pairs:
            raise ValueError(f"--pair {args.pair!r} names no pair")
        cell = replace(cell, pairs=pairs)
    if len(cell.pairs) > 1 and args.out in (None, "-"):
        raise ValueError(f"qq of {len(cell.pairs)} pairs needs --out FILE, one file per pair")
    report = run_scenario(cell, workers=args.workers)
    if not report.xi[cell.pairs[0]].size:
        print("no fit exists in any of the cell's replicates", file=sys.stderr)
        return EXIT_NONEXISTENT
    if len(cell.pairs) > 1:
        base = Path(args.out)
        for pr in cell.pairs:
            path = base.with_name(f"{base.stem}_{pr[0]}_{pr[1]}{base.suffix}")
            path.write_text(qq_csv(report, pr))
    else:
        _write(args.out, qq_csv(report, cell.pairs[0]))
    return EXIT_OK


def _summed_noise(mech, rng, n: int, reps: int) -> np.ndarray:
    """|S - E S| for ``reps`` sums S of n iid draws, each sum one draw of its
    own law (``noise.sample`` with terms=n), centred and folded in place."""
    from . import noise as noise_mod
    draws = noise_mod.sample(mech, rng, reps, terms=n)
    draws -= n * mech.moments()[0]
    return np.abs(draws, out=draws)


def _folded_noise(mech, rng, n: int, reps: int, fold: np.ufunc) -> np.ndarray:
    """|Column sums| (fold np.add) or column maxima of |X - E X| (np.maximum)
    of an (n, reps) table of centred draws, drawn through ``noise.sample`` in
    blocks of max(1, _BLOCK // reps) rows. Each block is centred in place and
    folded in place into the first block's fold; a one-row block is its own
    fold, so a one-row table (subexp) keeps no array but its draw."""
    from . import noise as noise_mod
    mean = mech.moments()[0]
    rows = max(1, _BLOCK // reps)
    acc = None
    for start in range(0, n, rows):
        block = noise_mod.sample(mech, rng, size=(min(rows, n - start), reps))
        block -= mean
        if fold is np.maximum:
            np.abs(block, out=block)
        folded = block[0] if len(block) == 1 else fold.reduce(block, axis=0)
        acc = folded if acc is None else fold(acc, folded, out=acc)
    return np.abs(acc, out=acc)


def cmd_bounds(args) -> int:
    from . import bounds as bounds_mod
    from . import noise as noise_mod
    mech = noise_mod.parse_mechanism(args.noise) if args.noise else \
        noise_mod.TwoSideHermite(1.0, 1.0)
    for flag, value in (("--n", args.n), ("--reps", args.reps), ("--grid", args.grid)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    kind = args.kind.lower()
    reps = args.reps
    n = 1 if kind == "subexp" else args.n  # rows of the draw table
    if reps * n > _MAX_DRAWS:
        count = f"--reps {reps}" + ("" if kind == "subexp" else f" x --n {n}")
        raise ValueError(f"{count} = {reps * n} noise draws exceed the cap of {_MAX_DRAWS}")
    if kind == "subexp":
        spec = bounds_mod.SubExpNormBound(bounds_mod.psi1_norm(mech))
    elif kind == "bernstein":
        spec = bounds_mod.bernstein_from_psi1(bounds_mod.psi1_norm(mech), n)
    elif kind in ("subgamma", "subgammamax"):
        wit = mech.sub_gamma_witness()
        spec = (bounds_mod.SubGammaTail(n * wit.upsilon, wit.c) if kind == "subgamma"
                else bounds_mod.SubGammaTail(wit.upsilon, wit.c, n))
    elif kind == "hermite":
        if not isinstance(mech, noise_mod.CompoundPoisson):
            raise ValueError(f"--kind hermite needs a compound-Poisson law "
                             f"(herm, herm2, tsp), got {noise_mod.mechanism_label(mech)}")
        spec = bounds_mod.HermiteSumRadius(n * mech.moments()[1], mech.jump, 1.0 / n)
    else:
        raise ValueError(f"unknown bound kind {args.kind!r}; expected "
                         "subexp | bernstein | subgamma | subgammamax | hermite")
    rng = np.random.default_rng(args.seed)
    if kind != "subgammamax" and mech.sum_in_range(n):
        draws = _summed_noise(mech, rng, n, reps)
    else:  # the maxima, or sums whose law is past numpy's range: term by term
        draws = _folded_noise(mech, rng, n, reps,
                              np.maximum if kind == "subgammamax" else np.add)
    if kind == "hermite":
        # radius form per grid exponent x: t = radius(x), bound = min(1, 2 e^-x)
        draws /= n
        xs = np.linspace(0.05, 8.0, args.grid)
        ts = [bounds_mod.tail_bound(spec, float(x)) for x in xs]
        bound = [min(1.0, 2 * np.exp(-x)) for x in xs]
    else:
        hi = float(np.quantile(draws, 0.9999)) + 1e-9
        ts = np.linspace(0.0, max(hi, 1.0), args.grid)
        bound = [bounds_mod.tail_bound(spec, float(t)) for t in ts]
    emp, se = bounds_mod.mc_survival(draws, ts)
    lines = ["t,bound,empirical,mc_stderr"] + [
        f"{t:.17g},{b:.17g},{p:.17g},{s:.17g}" for t, b, p, s in zip(ts, bound, emp, se)]
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="privdeg",
        description="Privatize graph degree sequences and fit vertex parameters "
                    "by the moment equations.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample a graph from a link model")
    _add_common(p, noise=False)
    p.add_argument("--seed", type=int, default=0, help="seed of the edge draw")
    p.add_argument("--n", type=int, default=100, help="vertex count")
    p.add_argument("--L", type=float, default=0.0,
                   help="truth scale: alpha_i = i L / n")
    p.add_argument("--alpha-file", default=None,
                   help="file of vertex parameters (one per line) instead of --L")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("privatize", help="degrees of a graph plus one noise draw")
    _add_common(p, link=False)
    p.add_argument("input", help="edge list or UCINET dl file (format sniffed)")
    p.set_defaults(fn=cmd_privatize)

    p = sub.add_parser("estimate", help="fit vertex parameters from noisy degrees")
    _add_common(p, noise=False)
    p.add_argument("input", help="degree file: 'value' or 'vertex value' lines")
    p.add_argument("--level", type=float, default=0.95)
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("analyze", help="end-to-end: network -> noise -> fit table")
    _add_common(p)
    p.add_argument("input", help="edge list or UCINET dl file (format sniffed)")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--keep-isolated", action="store_true",
                   help="do not prune zero-degree vertices first")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("simulate", help="run a scenario file, emit the report CSV")
    p.add_argument("scenario", help="key = value scenario file")
    p.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("qq", help="quantile pairs of the standardized statistic")
    p.add_argument("scenario", help="single-cell scenario file")
    p.add_argument("--pair", default=None,
                   help="override the scenario's pairs: 1,2 or 1,2; 50,51")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_qq)

    p = sub.add_parser("bounds", help="tail bound vs Monte Carlo survival CSV")
    p.add_argument("--kind", default="subgamma",
                   help="subexp | bernstein | subgamma | subgammamax | hermite")
    p.add_argument("--noise", default=None,
                   help="mechanism grammar string (default herm2:a1=1,a2=1)")
    p.add_argument("--n", type=int, default=10, help="terms in the sum / max")
    p.add_argument("--reps", type=int, default=100_000)
    p.add_argument("--grid", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_bounds)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, LookupError, OSError) as exc:  # ParseError and DomainError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
