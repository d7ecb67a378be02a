"""Command-line surface.

Subcommands: sample, privatize, estimate, analyze, simulate, bounds, qq.
Exit codes: 0 success, 2 input/parse error, 3 estimator nonexistence on
a single-estimate command (estimate, analyze).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import noise as noise_mod
from .analysis import ResultTable, noisy_degrees, table_from_degrees
from .estimator import SolverOptions
from .links import DomainError, LinkKind, degrees, sample_graph
from .netio import (EdgeList, ParseError, kept_labels, parse_edges,
                    prune_zero_degree, read_degree_file, serialize_edges,
                    sniff_format)
from .simulate import (Scenario, parse_scenario_file, qq_csv, report_csv,
                       run_scenario, scenario_grid, truth_vector)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NONEXISTENT = 3


def _write(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _load_edges(path: str, fmt: str) -> EdgeList:
    text = Path(path).read_text()
    if fmt == "auto":
        fmt = sniff_format(text)
    return parse_edges(text, fmt)


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
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    if link:
        p.add_argument("--link", default="logit",
                       help="link function: log | logit | cloglog")
    if noise:
        p.add_argument("--noise", default=None,
                       help="noise mechanism, e.g. dlap:p=0.5 or herm2:a1=1.2,a2=0.3")
        p.add_argument("--no-noise", action="store_true",
                       help="zero-noise override (release raw degrees)")


def _mechanism(args) -> noise_mod.NoiseMechanism | None:
    if getattr(args, "no_noise", False):
        return None
    if args.noise is None:
        raise ParseError("specify a mechanism with --noise, or pass --no-noise")
    return noise_mod.parse_mechanism(args.noise)


def _solver_options(args) -> SolverOptions:
    return SolverOptions(tol=args.tol, max_iter=args.max_iter)


def _report_fit(link: LinkKind, table: ResultTable) -> int:
    """Exit code of a single fit; nonexistence and suspect fits go to stderr."""
    if not table.exists:
        print(f"estimate does not exist: {table.reason}", file=sys.stderr)
        return EXIT_NONEXISTENT
    if link == LinkKind.LOG:
        top = float(np.sort(table.result.alpha_hat)[-2:].sum())
        if top >= 0:
            print(f"warning: log-link fit has a pair sum alpha_i + alpha_j = {top:+.3g} "
                  ">= 0, so some fitted edge probabilities exceed 1", file=sys.stderr)
    return EXIT_OK


def cmd_sample(args) -> int:
    link = LinkKind.parse(args.link)
    alpha = (read_degree_file(Path(args.alpha_file).read_text())
             if args.alpha_file else truth_vector(args.n, args.L))
    rng = np.random.default_rng(args.seed)
    g = sample_graph(link, alpha, rng)
    edges = np.argwhere(np.triu(g.adjacency, 1)) + 1
    _write(args.out, serialize_edges(EdgeList(g.n, edges)))
    return EXIT_OK


def cmd_privatize(args) -> int:
    e = _load_edges(args.input, args.format)
    d = noisy_degrees(e, _mechanism(args), args.seed)
    lines = [f"{i + 1} {v:.17g}" for i, v in enumerate(d)]
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_estimate(args) -> int:
    link = LinkKind.parse(args.link)
    d = read_degree_file(Path(args.input).read_text())
    table = table_from_degrees(d, link, level=args.level,
                               options=_solver_options(args))
    _write(args.out, _result_table_csv(table, []))
    return _report_fit(link, table)


def cmd_analyze(args) -> int:
    link = LinkKind.parse(args.link)
    e = _load_edges(args.input, args.format)
    removed: list[int] = []
    labels = None  # every vertex, 1..n
    if not args.keep_isolated:
        labels = kept_labels(e)
        e, removed = prune_zero_degree(e)
    d = noisy_degrees(e, _mechanism(args), args.seed)
    table = table_from_degrees(d, link, labels=labels, level=args.level,
                               options=_solver_options(args))
    _write(args.out, _result_table_csv(table, removed))
    return _report_fit(link, table)


def cmd_simulate(args) -> int:
    cfg = parse_scenario_file(Path(args.scenario).read_text())
    workers = args.workers if args.workers is not None else cfg["workers"]
    if args.seed is not None:
        cfg["seed"] = args.seed
    reports = [run_scenario(cell, workers=workers) for cell in scenario_grid(cfg)]
    _write(args.out, report_csv(reports))
    return EXIT_OK


def cmd_qq(args) -> int:
    cfg = parse_scenario_file(Path(args.scenario).read_text())
    if args.seed is not None:
        cfg["seed"] = args.seed
    cells = scenario_grid(cfg)
    if len(cells) != 1:
        raise ParseError("qq needs a single-cell scenario (one L, one noise)")
    report = run_scenario(cells[0], workers=args.workers or cfg["workers"])
    pairs = cells[0].pairs
    if args.pair:
        i, j = (int(v) for v in args.pair.split(","))
        pairs = ((i, j),)
    if args.out and len(pairs) > 1:
        base = Path(args.out)
        for pr in pairs:
            path = base.with_name(f"{base.stem}_{pr[0]}_{pr[1]}{base.suffix}")
            path.write_text(qq_csv(report, pr))
    else:
        _write(args.out, qq_csv(report, pairs[0]))
    return EXIT_OK


def cmd_bounds(args) -> int:
    mech = noise_mod.parse_mechanism(args.noise) if args.noise else \
        noise_mod.TwoSideHermite(1.0, 1.0)
    rng = np.random.default_rng(args.seed)
    reps = args.reps
    mean, var = noise_mod.moments(mech)
    wit = noise_mod.sub_gamma_witness(mech)
    kind = args.kind.lower()
    if kind == "subexp":
        spec = bounds_mod.SubExpNormBound(bounds_mod.psi1_norm(mech))
        draws = np.abs(noise_mod.sample(mech, rng, size=reps) - mean)
    elif kind in ("bernstein", "subgamma"):
        spec = (bounds_mod.bernstein_from_psi1(bounds_mod.psi1_norm(mech), args.n)
                if kind == "bernstein" else
                bounds_mod.SubGammaSumBound(args.n * wit.upsilon, wit.c))
        draws = np.abs(sum(noise_mod.sample(mech, rng, size=reps) - mean
                           for _ in range(args.n)))
    elif kind == "subgammamax":
        spec = bounds_mod.SubGammaMaxBound(wit.upsilon, wit.c, args.n)
        draws = np.max(np.abs(noise_mod.sample(mech, rng, size=(reps, args.n)) - mean),
                       axis=1)
    elif kind == "hermite":
        # inverse (radius) form over an exponent grid: per row,
        # t = radius(x), bound = 2 exp(-x), empirical = P(|mean dev| >= t)
        spec = bounds_mod.HermiteSumRadius(sigma2=args.n * var, r=2.0, w=1.0 / args.n)
        dev = np.abs(noise_mod.sample(mech, rng, size=(reps, args.n)).mean(axis=1) - mean)
        lines = ["t,bound,empirical,mc_stderr"]
        for x in np.linspace(0.05, 8.0, args.grid):
            radius = bounds_mod.tail_bound(spec, float(x))
            emp = float((dev >= radius).mean())
            se = float(np.sqrt(max(emp * (1 - emp), 1e-12) / reps))
            lines.append(f"{radius:.17g},{2 * np.exp(-x):.17g},{emp:.17g},{se:.17g}")
        _write(args.out, "\n".join(lines) + "\n")
        return EXIT_OK
    else:
        raise ParseError(f"unknown bound kind {args.kind!r}; expected "
                         "subexp | bernstein | subgamma | subgammamax | hermite")
    hi = float(np.quantile(draws, 0.9999)) + 1e-9
    ts = np.linspace(0.0, max(hi, 1.0), args.grid)
    emp, se = bounds_mod.mc_survival(draws, ts)
    lines = ["t,bound,empirical,mc_stderr"]
    for t, p, s in zip(ts, emp, se):
        b = bounds_mod.tail_bound(spec, float(t))
        lines.append(f"{t:.17g},{b:.17g},{p:.17g},{s:.17g}")
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
    p.add_argument("--n", type=int, default=100, help="vertex count")
    p.add_argument("--L", type=float, default=0.0,
                   help="truth scale: alpha_i = i L / n")
    p.add_argument("--alpha-file", default=None,
                   help="file of vertex parameters (one per line) instead of --L")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("privatize", help="degrees of a graph plus one noise draw")
    _add_common(p, link=False)
    p.add_argument("input", help="edge list or UCINET dl file")
    p.add_argument("--format", default="auto",
                   choices=["auto", "edgelist", "ucinet-dl"])
    p.set_defaults(fn=cmd_privatize)

    def _add_solver(pp):
        pp.add_argument("--tol", type=float, default=1e-8,
                        help="relative sup-norm residual tolerance")
        pp.add_argument("--max-iter", type=int, default=200)

    p = sub.add_parser("estimate", help="fit vertex parameters from noisy degrees")
    _add_common(p, noise=False)
    p.add_argument("input", help="degree file: 'value' or 'vertex value' lines")
    p.add_argument("--level", type=float, default=0.95)
    _add_solver(p)
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("analyze", help="end-to-end: network -> noise -> fit table")
    _add_common(p)
    p.add_argument("input", help="edge list or UCINET dl file")
    p.add_argument("--format", default="auto",
                   choices=["auto", "edgelist", "ucinet-dl"])
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--keep-isolated", action="store_true",
                   help="do not prune zero-degree vertices first")
    _add_solver(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("simulate", help="run a scenario file, emit the report CSV")
    p.add_argument("scenario", help="key = value scenario file")
    p.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("qq", help="quantile pairs of the standardized statistic")
    p.add_argument("scenario", help="single-cell scenario file")
    p.add_argument("--pair", default=None, help="which pair, e.g. 1,2")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
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
    except (ParseError, DomainError, ValueError, LookupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
