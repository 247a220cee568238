"""Subgroup and overall treatment effects from right-censored survival
data when the subgroup-defining biomarker is observed through a
diagnostic test with known, imperfect sensitivity and specificity.

The observed test groups follow mixtures of proportional-hazards models
with mixing weights given by the test's predictive values.  The package
estimates the subgroup log hazard ratios, the biomarker prevalence and
the baseline hazard by EM, builds profile-likelihood and simultaneous
confidence intervals, summarizes overall efficacy as concordance odds,
and regenerates the accompanying simulation study at desk scale.
"""

from .em import FitResult, fit
from .errors import (
    ConditioningError,
    ConvergenceError,
    DatasetError,
    DegenerateDataError,
    MixcoxError,
    SeparationError,
)
from .inference import (
    Interval,
    SimultaneousReport,
    bvn_rect_prob,
    concordance_prob,
    fd_profile_information,
    lr_test,
    overall_concordance_report,
    profile_ci,
    profile_loglik,
    simultaneous_cis,
    simultaneous_scale,
    subgroup_cov,
)
from .model import (
    BaselineHazard,
    Dataset,
    DiagnosticModel,
    EffectParams,
    mixture_survival,
)
from .simulate import (
    RenderedTable,
    RngStream,
    ScenarioConfig,
    ScenarioSummary,
    emit_table,
    generate_trial,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineHazard", "ConditioningError", "ConvergenceError", "Dataset",
    "DatasetError", "DegenerateDataError", "DiagnosticModel", "EffectParams",
    "FitResult", "Interval", "MixcoxError",
    "RenderedTable", "RngStream", "ScenarioConfig",
    "ScenarioSummary", "SeparationError", "SimultaneousReport",
    "bvn_rect_prob", "concordance_prob",
    "emit_table",
    "fd_profile_information", "fit", "generate_trial",
    "lr_test", "mixture_survival",
    "overall_concordance_report", "profile_ci", "profile_loglik",
    "run_scenario", "simultaneous_cis", "simultaneous_scale", "subgroup_cov",
]
