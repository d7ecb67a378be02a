"""Tests of the benchmark itself: output checks, inputs, spans.

Run from the root of the repository: python3 -m pytest perfbench/tests
"""

import json
from pathlib import Path

import numpy as np
import pytest

import tracing
from privdeg import cli
from workloads import (DEFAULT_SEED, HERM2, REFERENCE_DIR, WORKLOADS, CheckError,
                       check_bounds, check_table, edge_list_text, logit_graph)

SCENARIO = """link = logit
n = 24
L = 0.3
noise = herm2:a1=1.0,a2=0.5
replicates = 12
seed = 11
"""


def _replace_field(line: str, k: int, value: str) -> str:
    f = line.split(",")
    f[k] = value
    return ",".join(f)


@pytest.fixture
def table(tmp_path):
    """A small analyze run: (output text, n, edges)."""
    n = 60
    edges = logit_graph(5, n, -1.0)
    net = tmp_path / "g.edges"
    net.write_text(edge_list_text(n, edges))
    out = tmp_path / "table.csv"
    assert cli.main(["analyze", str(net), "--link", "logit", "--noise", HERM2,
                     "--seed", "3", "--out", str(out)]) == 0
    return out.read_text(), n, edges


def test_table_check_accepts_the_fit(table):
    check_table(*table)


def test_table_check_rejects_shifted_alpha(table):
    # shift alpha_hat and its interval together, so that only the moment
    # residual recomputed from the table can notice
    text, n, edges = table
    lines = text.splitlines()
    k = next(i for i, ln in enumerate(lines) if ln[:1].isdigit())
    f = lines[k].split(",")
    for c in (2, 3, 4):
        f[c] = repr(float(f[c]) + 1e-4)
    lines[k] = ",".join(f)
    with pytest.raises(CheckError, match="moment residual"):
        check_table("\n".join(lines) + "\n", n, edges)


def test_table_check_rejects_wrong_se(table):
    text, n, edges = table
    lines = text.splitlines()
    k = next(i for i, ln in enumerate(lines) if ln[:1].isdigit())
    lines[k] = _replace_field(lines[k], 5, repr(float(lines[k].split(",")[5]) * 1.01))
    with pytest.raises(CheckError):
        check_table("\n".join(lines) + "\n", n, edges)


@pytest.fixture
def bounds_text(tmp_path):
    out = tmp_path / "bounds.csv"
    assert cli.main(["bounds", "--kind", "bernstein", "--noise", HERM2, "--n", "5",
                     "--reps", "2000", "--grid", "8", "--seed", "1",
                     "--out", str(out)]) == 0
    return out.read_text()


def test_bounds_check_accepts_the_table(bounds_text):
    check_bounds(bounds_text, 2000, 8)


def test_bounds_check_rejects_a_bound_below_empirical(bounds_text):
    lines = bounds_text.splitlines()
    f = lines[3].split(",")
    f[1] = repr(float(f[2]) - 5 * float(f[3]) - 1e-3)
    lines[3] = ",".join(f)
    with pytest.raises(CheckError, match="below empirical"):
        check_bounds("\n".join(lines) + "\n", 2000, 8)


@pytest.mark.parametrize("name", ["sim_n100_herm2", "sim_n400_lap"])
def test_report_check_against_reference(tmp_path, name):
    inv = WORKLOADS[name].prepare(DEFAULT_SEED, tmp_path)
    reference = (REFERENCE_DIR / f"{name}.csv").read_text()
    inv.check(reference)
    lines = reference.splitlines()
    cov = lines[1].split(",")[-3]
    lines[1] = _replace_field(lines[1], -3, repr(float(cov) - 2.5))
    with pytest.raises(CheckError, match="coverage"):
        inv.check("\n".join(lines) + "\n")
    lines = reference.splitlines()
    half = float(lines[2].split(",")[-2])
    lines[2] = _replace_field(lines[2], -2, repr(half * (1 + 1e-8)))
    with pytest.raises(CheckError, match="mean_ci_length"):
        inv.check("\n".join(lines) + "\n")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(tmp_path, name):
    def inputs(seed, sub):
        inv = WORKLOADS[name].prepare(seed, tmp_path / sub)
        files = sorted(p for p in (tmp_path / sub).iterdir())
        argv = [a.replace(str(tmp_path / sub), "") for a in inv.argv]
        return argv, [p.read_bytes() for p in files]

    assert inputs(7, "a") == inputs(7, "b")
    assert inputs(7, "a") != inputs(8, "c")


def test_graph_generator_is_deterministic():
    a = logit_graph(4, 50, -1.0)
    assert np.array_equal(a, logit_graph(4, 50, -1.0))
    assert not np.array_equal(a, logit_graph(5, 50, -1.0))
    assert np.all((a[:, 0] < a[:, 1]) & (a[:, 0] >= 1) & (a[:, 1] <= 50))


def _simulate_argv(tmp_path, workers=1):
    scen = tmp_path / "s.scenario"
    scen.write_text(SCENARIO)
    return ["simulate", str(scen), "--workers", str(workers),
            "--out", str(tmp_path / "report.csv")]


def test_child_spans_nest_within_parents(tmp_path):
    code, tracer = tracing.traced_main(_simulate_argv(tmp_path))
    assert code == 0
    spans = tracer.spans
    assert [s.name for s in spans if s.parent < 0] == ["cli.main"]
    names = {s.name for s in spans}
    assert {"simulate.run_scenario", "estimator.solve", "estimator.residual",
            "estimator.linsolve", "links.sample_graph", "noise.sample"} <= names
    for s in spans:
        assert s.start <= s.end
        if s.parent >= 0:
            p = spans[s.parent]
            assert p.start <= s.start and s.end <= p.end


def _analyze_argv(tmp_path):
    net = tmp_path / "g.edges"
    net.write_text(edge_list_text(60, logit_graph(5, 60, -1.0)))
    return ["analyze", str(net), "--link", "logit", "--noise", HERM2,
            "--seed", "3", "--out", str(tmp_path / "table.csv")]


@pytest.mark.parametrize("make_argv", [_simulate_argv, _analyze_argv])
def test_traced_run_leaves_bytes_and_attributes_unchanged(tmp_path, make_argv):
    before = [(t.owner, t.attr, getattr(t.owner, t.attr)) for t in tracing.targets()]
    argv = make_argv(tmp_path)
    out = Path(argv[-1])
    assert cli.main(argv) == 0
    untraced = out.read_bytes()
    code, tracer = tracing.traced_main(argv)
    assert code == 0
    assert out.read_bytes() == untraced
    m = tracing.summarize(tracer)
    assert m["estimator.solve_calls"] >= 1
    assert 0 < m["estimator.step_accept_ratio"] <= 1
    for owner, attr, fn in before:
        assert getattr(owner, attr) == fn


def test_benchmark_json_matches_the_tables():
    doc = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        [(name, unit) for name, unit, _ in tracing.PER_LAYER]
