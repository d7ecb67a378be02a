"""The public names of ``privdeg`` and their lazy loading.

``privdeg/__init__.py`` resolves each exported name on first access, so
this pins the names it exports, in order, the object each resolves to,
and that the bare package import loads no submodule.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import privdeg

EXPORTS = {
    "links": ["DomainError", "EdgeSampler", "LinkKind", "degrees", "edge_prob",
              "edge_prob_deriv", "edge_prob_matrix", "expected_degrees",
              "link_inverse", "sample_graph"],
    "noise": ["CenteredGeometric", "ContinuousLaplace", "DiscreteLaplace", "Hermite",
              "NoiseMechanism", "SubGammaParams", "TwoSideHermite", "TwoSidePoisson",
              "hermite_budget_intensity", "mechanism_label", "parse_mechanism", "pmf",
              "sample"],
    "estimator": ["EstimateResult", "JacobianMatrix", "NonexistentEstimateError",
                  "approx_inverse_s", "confidence_interval", "jacobian",
                  "moment_residual", "solve", "solve_many", "xi_statistic"],
    "bounds": ["HermiteSumRadius", "SubExpNormBound", "SubGammaTail",
               "bernstein_from_psi1", "max_expectation_bound", "psi1_norm", "tail_bound"],
    "netio": ["EdgeList", "ParseError", "parse_edges", "prune_zero_degree",
              "serialize_edges"],
    "analysis": ["ResultTable", "table_from_degrees"],
    "simulate": ["CoverageReport", "Scenario", "default_pairs", "qq_export",
                 "run_scenario", "truth_vector"],
}
PAIRS = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_all_lists_every_export_in_order():
    assert privdeg.__all__ == [name for _, name in PAIRS]
    assert set(privdeg.__all__) <= set(dir(privdeg))


def test_each_export_is_the_object_of_its_module():
    wrong = [f"{module}.{name}" for module, name in PAIRS
             if getattr(privdeg, name)
             is not getattr(importlib.import_module(f"privdeg.{module}"), name)]
    assert wrong == []


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        privdeg.no_such_name
    assert not hasattr(privdeg, "no_such_name")


def test_package_import_loads_no_submodule():
    code = ("import sys, privdeg; "
            "print(sorted(m for m in sys.modules if m.startswith('privdeg.')))")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(Path(__file__).parents[1] / "src"),
                                          os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"
