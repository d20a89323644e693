"""Numerical diagnostics for almost-sure uniqueness of global minimizers.

The package evaluates nonconvex random objectives, checks the
nondegeneracy conditions that rule out tied minimizers, detects and
clusters global minimizers by seeded multistart, and estimates the
probability of multiple global minimizers by Monte Carlo.
"""

__version__ = "0.1.0"

from .domain import (Box, Domain, FDConfig, Objective, box, interval_domain,
                     directional_derivative_t, eval_objective, grad_z)
from .errors import (ConfigError, DegenerateObjective, DiagnosticsError,
                     ExplicitBound, InvalidDirection, KernelNotPSD,
                     NotDistinct, SingularDesign)
from .genericity import (GenericityVerdict, ScanReport, check_triple,
                         objective_gap, scan_grid)
from .globalopt import (ArgminReport, Cluster, MultiplicityEstimate,
                        MultistartConfig, cluster_minimizers,
                        multiplicity_probability, multistart_minimize,
                        sublevel_components, value_function)
from .mixture import (ArgminSet, MixtureModel, MixtureParams, MixtureSample,
                      UnrestrictedParams, argmin_set_expand, fit_mle,
                      mixture_density, mixture_nll, score_gap,
                      score_gap_cleared)
from .penalized import (PenaltySpec, PenalizedModel, RegressionData,
                        enumerate_best_subsets, global_minimize,
                        multistart_global_minimize, partition_domain,
                        penalized_objective, penalty_value)
from .threshold import (GPPath, GPSpec, TrialReport, argmin_uniqueness_trial,
                        limit_objective_path, objective_profile, simulate_path)
from .weakid import (InjectivityReport, LimitComponents, RankConditionReport,
                     WeakIdModel, check_injectivity_condition,
                     check_rank_condition, count_alignment_roots,
                     find_alignment_roots, limit_components, limit_objective,
                     make_example1, make_example2, profile, profile_report)
