"""privdeg: private degree-sequence release and moment-equation fitting.

Library layout:

* ``links``     edge-probability models (log / logit / cloglog) and sampling
* ``noise``     release-noise mechanisms with exact pmfs and sub-Gamma metadata
* ``estimator`` Newton solver for the moment system, variances, intervals
* ``bounds``    closed-form concentration bounds and Monte Carlo checks: three
                spec types, ``SubExpNormBound``, ``SubGammaTail`` (Bernstein's
                (nu2, kappa) is its sub-Gamma (upsilon, c); sums and maxima) and
                ``HermiteSumRadius``
* ``simulate``  scenario grids: coverage, CI length, nonexistence, QQ data
* ``netio``     edge-list / UCINET-dl parsing, degree files
* ``analysis``  end-to-end dataset analysis tables
* ``cli``       the ``privdeg`` command

``import privdeg`` loads none of these modules. Each name in ``__all__``
is looked up in its module on first access (PEP 562), which imports that
module and the modules it imports, and is then cached here: ``privdeg.solve``
is ``privdeg.estimator.solve``.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "links": ("DomainError", "EdgeSampler", "LinkKind", "degrees", "edge_prob",
              "edge_prob_deriv", "edge_prob_matrix", "expected_degrees",
              "link_inverse", "sample_graph"),
    "noise": ("CenteredGeometric", "ContinuousLaplace", "DiscreteLaplace",
              "Hermite", "NoiseMechanism", "SubGammaParams", "TwoSideHermite",
              "TwoSidePoisson", "hermite_budget_intensity", "mechanism_label",
              "parse_mechanism", "pmf", "sample"),
    "estimator": ("EstimateResult", "JacobianMatrix", "NonexistentEstimateError",
                  "approx_inverse_s", "confidence_interval", "jacobian",
                  "moment_residual", "solve", "solve_many", "xi_statistic"),
    "bounds": ("HermiteSumRadius", "SubExpNormBound", "SubGammaTail",
               "bernstein_from_psi1", "max_expectation_bound", "psi1_norm",
               "tail_bound"),
    "netio": ("EdgeList", "ParseError", "parse_edges", "prune_zero_degree",
              "serialize_edges"),
    "analysis": ("ResultTable", "table_from_degrees"),
    "simulate": ("CoverageReport", "Scenario", "default_pairs", "qq_export",
                 "run_scenario", "truth_vector"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
