"""Every name that the benchmark tracer wraps still exists and is called.

``perfbench/tracing.py`` times the package by replacing module
attributes at run time; a name that the package drops or renames, or
stops calling through the attribute, would otherwise fail only in the
benchmark's own tests. The tracer module is loaded from its file as it
is, without changing it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists(tracing):
    missing = [f"{t.name}: {t.attr}" for t in tracing.targets()
               if not hasattr(t.owner, t.attr)]
    assert missing == []


def test_cli_entry_points_record_their_spans(tracing, tmp_path):
    # cli imports each command's modules when the command runs; the names the
    # tracer wraps on cli must still be the ones the commands call
    cell = tmp_path / "cell.scenario"
    cell.write_text("link = logit\nn = 10\nL = 0.2\nnoise = herm2:a1=0.1,a2=0.05\n"
                    "replicates = 5\nseed = 3\n")
    shop = Path(__file__).parent / "data" / "tailorshop_synthetic.dl"
    out = str(tmp_path / "out.csv")
    for argv, want in (
            (["analyze", str(shop), "--noise", "none", "--out", out],
             {"netio.parse_edges", "netio.prune", "analysis.table"}),
            (["simulate", str(cell), "--out", out],
             {"simulate.run_scenario", "simulate.report_csv"})):
        code, tracer = tracing.traced_main(argv)
        assert code == 0
        assert want <= {s.name for s in tracer.spans}
