"""Every name that the benchmark tracer wraps still exists.

``perfbench/tracing.py`` times the package by replacing module
attributes at run time; a name that the package drops or renames would
otherwise fail only in the benchmark's own tests. The tracer module is
loaded from its file as it is, without changing it.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_exists(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    missing = [f"{t.name}: {t.attr}" for t in tracing.targets()
               if not hasattr(t.owner, t.attr)]
    assert missing == []
