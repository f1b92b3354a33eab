"""Monte Carlo simulation of open-entry cohort platform trials with binary
endpoints: flexible Bayesian/frequentist decision rules, cross-cohort data
sharing, platform-level stopping and operating-characteristics aggregation."""

from .config import (BetaPrior, DiscreteDist, EfficacySpec, EndpointModel,
                     PlatformRules, ScenarioSpec, TargetProfile, expand_grid,
                     load_scenario, parse_scenario, validate)
from .efficacy import CohortTruth, apply_effect, classify_truth, draw_cohort_truth
from .engine import Trial, simulate_trial
from .ocs import OperatingCharacteristics, TrialAccumulator
from .runner import derive_rng, run_ocs, run_single_trial
from .stats import (PosteriorBeta, QuadratureError, ci, one_sided_prop_test, point_estimate,
                    prob_exceeds, prob_greater_by_margin)

__version__ = "0.1.0"

__all__ = [
    "BetaPrior", "DiscreteDist", "EfficacySpec", "EndpointModel", "PlatformRules",
    "ScenarioSpec", "TargetProfile", "expand_grid", "load_scenario", "parse_scenario",
    "validate",
    "CohortTruth", "apply_effect", "classify_truth", "draw_cohort_truth",
    "Trial", "simulate_trial",
    "OperatingCharacteristics", "TrialAccumulator",
    "derive_rng", "run_ocs", "run_single_trial",
    "PosteriorBeta", "QuadratureError", "ci", "one_sided_prop_test", "point_estimate",
    "prob_exceeds", "prob_greater_by_margin",
    "__version__",
]
