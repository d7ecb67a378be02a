"""privdeg: private degree-sequence release and moment-equation fitting.

Library layout:

* ``links``     edge-probability models (log / logit / cloglog) and sampling
* ``noise``     release-noise mechanisms with exact pmfs and sub-Gamma metadata
* ``estimator`` Newton solver for the moment system, variances, intervals
* ``bounds``    closed-form concentration bounds and Monte Carlo checks
* ``simulate``  scenario grids: coverage, CI length, nonexistence, QQ data
* ``netio``     edge-list / UCINET-dl parsing, degree files
* ``analysis``  end-to-end dataset analysis tables
* ``cli``       the ``privdeg`` command
"""

from .links import (DomainError, EdgeSampler, LinkKind, degrees, edge_prob,
                    edge_prob_deriv, edge_prob_matrix, expected_degrees,
                    link_inverse, sample_graph)
from .noise import (CenteredGeometric, ContinuousLaplace, DiscreteLaplace,
                    Hermite, NoiseMechanism, SubGammaParams, TwoSideHermite,
                    TwoSidePoisson, hermite_budget_intensity,
                    mechanism_label, parse_mechanism, pmf, sample)
from .estimator import (EstimateResult, JacobianMatrix,
                        NonexistentEstimateError, approx_inverse_s,
                        confidence_interval, jacobian, moment_residual, solve,
                        solve_many, xi_statistic)
from .bounds import (BernsteinBound, HermiteSumRadius, SubExpNormBound,
                     SubGammaMaxBound, SubGammaSumBound, max_expectation_bound,
                     psi1_norm, tail_bound)
from .netio import EdgeList, ParseError, parse_edges, prune_zero_degree, serialize_edges
from .analysis import ResultTable, table_from_degrees
from .simulate import (CoverageReport, Scenario, default_pairs, qq_export,
                       run_scenario, truth_vector)

__version__ = "0.1.0"
