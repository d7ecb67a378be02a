"""Traced in-process runs of the privdeg CLI.

The tracer wraps the module attributes that ``privdeg.cli`` and the
modules it calls look up at call time (``simulate.solve``,
``noise.sample``, ``numpy.linalg.solve`` and so on), so the program's
source is left untouched. Each wrapped call records a span (name, start,
end, parent) in memory; counters are taken from the results at the same
boundaries. ``installed`` restores every attribute it replaced.
A span's self time is its duration minus the time of its child spans,
which never overlap because the traced run is single-threaded.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a root


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: owner.attr is timed as span ``name``."""

    owner: object
    attr: str
    name: str
    count: Optional[Callable[[Counter, object], None]] = None
    # record only calls made directly under a span of this name
    only_under: Optional[str] = None


def _count_edges(counts: Counter, result) -> None:
    counts["netio.edges"] += len(result.edges)


def _count_draws(counts: Counter, result) -> None:
    counts["noise.draws"] += np.size(result)


def _count_fit(counts: Counter, result) -> None:
    counts["estimator.newton_iters"] += result.iterations
    counts["estimator.exists"] += int(result.exists)


def targets() -> list[Target]:
    """Every call into a layer that the CLI workloads make."""
    import scipy.stats
    from privdeg import analysis, bounds, cli, estimator, netio, noise, simulate
    return [
        Target(cli, "parse_edges", "netio.parse_edges", _count_edges),
        Target(cli, "prune_zero_degree", "netio.prune"),
        Target(netio.EdgeList, "degree_vector", "netio.degree_vector"),
        Target(cli, "table_from_degrees", "analysis.table"),
        Target(cli, "run_scenario", "simulate.run_scenario"),
        Target(cli, "report_csv", "simulate.report_csv"),
        Target(simulate, "sample_graph", "links.sample_graph"),
        Target(simulate, "degrees", "links.degrees"),
        Target(noise, "sample", "noise.sample", _count_draws),
        Target(noise, "pmf", "noise.pmf"),
        Target(simulate, "solve", "estimator.solve", _count_fit),
        Target(analysis, "solve", "estimator.solve", _count_fit),
        Target(estimator, "moment_residual", "estimator.residual"),
        Target(estimator, "jacobian", "estimator.jacobian"),
        Target(np.linalg, "solve", "estimator.linsolve", only_under="estimator.solve"),
        Target(simulate, "xi_statistic", "estimator.ci_xi"),
        Target(analysis, "confidence_interval", "estimator.ci_xi"),
        Target(scipy.stats.norm, "ppf", "estimator.norm_ppf"),
        Target(bounds, "psi1_norm", "bounds.psi1_norm"),
        Target(bounds, "tail_bound", "bounds.tail_bound"),
        Target(bounds, "mc_survival", "bounds.mc_survival"),
    ]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        k = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(k)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[k].end = time.perf_counter()

    def _wrap(self, fn: Callable, t: Target) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if t.only_under is not None and (
                    not self._stack or self.spans[self._stack[-1]].name != t.only_under):
                return fn(*args, **kwargs)
            with self.span(t.name):
                result = fn(*args, **kwargs)
            if t.count is not None:
                t.count(self.counts, result)
            return result
        return wrapper

    @contextmanager
    def installed(self, wrap: list[Target]) -> Iterator["Tracer"]:
        """Wrap each target for the duration of the block, then restore it."""
        saved = []
        try:
            for t in wrap:
                own = vars(t.owner)
                saved.append((t, t.attr in own, own.get(t.attr)))
                setattr(t.owner, t.attr, self._wrap(getattr(t.owner, t.attr), t))
            yield self
        finally:
            for t, had_own, old in reversed(saved):
                if had_own:
                    setattr(t.owner, t.attr, old)
                else:
                    delattr(t.owner, t.attr)


# Per-layer metrics of one traced CLI run: (name, unit, base). Times sum
# every call of one ``cli.main``; each ratio names its denominator.
PER_LAYER = [
    ("cli.main_s", "s", "one in-process cli.main call"),
    ("cli.self_s", "s", "cli.main minus the layer calls it makes"),
    ("netio.parse_edges_s", "s", "all parse_edges calls"),
    ("netio.edges", "count", "edges returned by parse_edges"),
    ("netio.degree_vector_s", "s", "all EdgeList.degree_vector calls"),
    ("netio.degree_vector_calls", "count", "EdgeList.degree_vector calls"),
    ("netio.prune_s", "s", "all prune_zero_degree calls"),
    ("links.sample_graph_s", "s", "all sample_graph calls"),
    ("links.sample_graph_calls", "count", "sample_graph calls"),
    ("links.degrees_s", "s", "all degrees calls"),
    ("noise.sample_s", "s", "all noise.sample calls"),
    ("noise.draws", "count", "values returned by noise.sample"),
    ("noise.pmf_s", "s", "all noise.pmf calls"),
    ("noise.pmf_calls", "count", "noise.pmf calls"),
    ("estimator.solve_s", "s", "all solve calls"),
    ("estimator.solve_calls", "count", "solve calls"),
    ("estimator.solve_self_s", "s", "solve minus residual, linear solve and jacobian"),
    ("estimator.newton_iters", "count", "sum of EstimateResult.iterations"),
    ("estimator.residual_s", "s", "all moment_residual calls"),
    ("estimator.residual_evals", "count", "moment_residual calls"),
    ("estimator.linsolve_s", "s", "numpy.linalg.solve called directly by solve"),
    ("estimator.linsolve_calls", "count", "numpy.linalg.solve calls from solve"),
    ("estimator.jacobian_s", "s", "all jacobian calls"),
    ("estimator.ci_xi_s", "s", "all confidence_interval and xi_statistic calls"),
    ("estimator.norm_ppf_calls", "count", "scipy.stats.norm.ppf calls"),
    ("estimator.step_accept_ratio", "ratio",
     "accepted Newton steps / residual trials (evaluations after each solve's first)"),
    ("estimator.exists_ratio", "ratio", "fits that exist / solve calls"),
    ("bounds.psi1_norm_s", "s", "all psi1_norm calls"),
    ("bounds.tail_bound_s", "s", "all tail_bound calls"),
    ("bounds.mc_survival_s", "s", "all mc_survival calls"),
    ("simulate.run_scenario_s", "s", "all run_scenario calls"),
    ("simulate.self_s", "s", "run_scenario minus the layer calls it makes"),
    ("simulate.report_csv_s", "s", "all report_csv calls"),
    ("simulate.parallel_efficiency", "ratio",
     "median run_scenario time at 1 worker / (2 x its median at 2 workers)"),
    ("analysis.table_self_s", "s", "table_from_degrees minus solve and CI calls"),
    ("trace.overhead_frac", "ratio",
     "(traced - untraced) / untraced in-process cli.main time"),
]


def summarize(tracer: Tracer) -> dict[str, float]:
    """Totals, self times and counts per span name, under metric names."""
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    for k, s in enumerate(spans):
        total[s.name] += s.end - s.start
        own[s.name] += s.end - s.start - child_time[k]
        calls[s.name] += 1
    # the first residual of each solve is its starting point, not a trial
    per_solve = Counter(s.parent for s in spans if s.name == "estimator.residual"
                        and s.parent >= 0 and spans[s.parent].name == "estimator.solve")
    trials = sum(v - 1 for v in per_solve.values())
    c = tracer.counts
    return {
        "cli.main_s": total["cli.main"],
        "cli.self_s": own["cli.main"],
        "netio.parse_edges_s": total["netio.parse_edges"],
        "netio.edges": c["netio.edges"],
        "netio.degree_vector_s": total["netio.degree_vector"],
        "netio.degree_vector_calls": calls["netio.degree_vector"],
        "netio.prune_s": total["netio.prune"],
        "links.sample_graph_s": total["links.sample_graph"],
        "links.sample_graph_calls": calls["links.sample_graph"],
        "links.degrees_s": total["links.degrees"],
        "noise.sample_s": total["noise.sample"],
        "noise.draws": c["noise.draws"],
        "noise.pmf_s": total["noise.pmf"],
        "noise.pmf_calls": calls["noise.pmf"],
        "estimator.solve_s": total["estimator.solve"],
        "estimator.solve_calls": calls["estimator.solve"],
        "estimator.solve_self_s": own["estimator.solve"],
        "estimator.newton_iters": c["estimator.newton_iters"],
        "estimator.residual_s": total["estimator.residual"],
        "estimator.residual_evals": calls["estimator.residual"],
        "estimator.linsolve_s": total["estimator.linsolve"],
        "estimator.linsolve_calls": calls["estimator.linsolve"],
        "estimator.jacobian_s": total["estimator.jacobian"],
        "estimator.ci_xi_s": total["estimator.ci_xi"],
        "estimator.norm_ppf_calls": calls["estimator.norm_ppf"],
        "estimator.step_accept_ratio":
            c["estimator.newton_iters"] / trials if trials else 0.0,
        "estimator.exists_ratio":
            c["estimator.exists"] / calls["estimator.solve"]
            if calls["estimator.solve"] else 0.0,
        "bounds.psi1_norm_s": total["bounds.psi1_norm"],
        "bounds.tail_bound_s": total["bounds.tail_bound"],
        "bounds.mc_survival_s": total["bounds.mc_survival"],
        "simulate.run_scenario_s": total["simulate.run_scenario"],
        "simulate.self_s": own["simulate.run_scenario"],
        "simulate.report_csv_s": total["simulate.report_csv"],
        "analysis.table_self_s": own["analysis.table"],
    }


def traced_main(argv: list[str]) -> tuple[int, Tracer]:
    """Run ``privdeg.cli.main(argv)`` with every target wrapped."""
    from privdeg import cli
    tracer = Tracer()
    with tracer.installed(targets()), tracer.span("cli.main"):
        code = cli.main(argv)
    return code, tracer


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
