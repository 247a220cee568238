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

from .cox import (
    CoxFit,
    RowData,
    breslow_baseline,
    fit_weighted_cox,
    weighted_partial_loglik,
)
from .em import EmConfig, FitResult, fit
from .errors import (
    ConditioningError,
    DatasetError,
    DegenerateDataError,
    MixcoxError,
    SeparationError,
)
from .inference import (
    InferenceConfig,
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
    linear_predictor,
    mixture_survival,
    npv,
    ppv,
)
from .simulate import (
    RenderedTable,
    RngStream,
    ScenarioConfig,
    ScenarioSummary,
    draw_survival_time,
    emit_table,
    generate_trial,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineHazard", "ConditioningError", "CoxFit", "Dataset",
    "DatasetError", "DegenerateDataError", "DiagnosticModel", "EffectParams",
    "EmConfig", "FitResult", "InferenceConfig", "Interval", "MixcoxError",
    "RenderedTable", "RngStream", "RowData", "ScenarioConfig",
    "ScenarioSummary", "SeparationError", "SimultaneousReport",
    "breslow_baseline", "bvn_rect_prob", "concordance_prob",
    "draw_survival_time", "emit_table",
    "fd_profile_information", "fit", "fit_weighted_cox", "generate_trial",
    "linear_predictor", "lr_test", "mixture_survival", "npv",
    "overall_concordance_report", "ppv", "profile_ci", "profile_loglik",
    "run_scenario", "simultaneous_cis", "simultaneous_scale", "subgroup_cov",
    "weighted_partial_loglik",
]
