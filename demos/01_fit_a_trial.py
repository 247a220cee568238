"""Fitting the subgroup model to a single trial.

A two-arm trial stratified by an error-prone biomarker test: the observed
test groups mix the true-status survival distributions, so a plain Cox
fit of (treatment, test, interaction) is biased toward the null.  This
script simulates one trial where the truth is known, fits both the naive
model and the misclassification-corrected model, and compares.

Run:  python demos/01_fit_a_trial.py
"""

import numpy as np

from mixcox import (
    DiagnosticModel,
    EffectParams,
    RngStream,
    ScenarioConfig,
    fit,
    generate_trial,
    mixture_survival,
)

# ground truth: treatment helps the biomarker-positive group (log HR
# -0.6) but not the negative group (log HR 0.1)
truth = EffectParams(beta1=0.1, beta2=0.1, gamma=-0.7)
config = ScenarioConfig(
    theta_true=truth, pi_true=0.3, sens=0.8, spec=0.8,
    n_per_arm=500, replications=1, base_seed=7,
)
data = generate_trial(config, RngStream(7, 0))
print(f"simulated {len(data)} subjects, "
      f"{int(data.event.sum())} events, "
      f"{int((data.test == 1).sum())} observed test-positive")

# naive analysis: pretend the test is perfect
naive = fit(data, DiagnosticModel(1.0, 1.0, 0.3, prevalence_known=False))

# corrected analysis: tell the estimator the true test accuracy and let
# it estimate the prevalence
corrected = fit(data, DiagnosticModel(0.8, 0.8, 0.3, prevalence_known=False))

print(f"\n{'':>14} {'beta1':>8} {'beta2':>8} {'gamma':>8} {'pi':>6}")
print(f"{'truth':>14} {truth.beta1:>8.3f} {truth.beta2:>8.3f} "
      f"{truth.gamma:>8.3f} {0.3:>6.3f}")
for label, res in (("naive", naive), ("corrected", corrected)):
    t = res.theta_hat
    print(f"{label:>14} {t.beta1:>8.3f} {t.beta2:>8.3f} {t.gamma:>8.3f} "
          f"{res.pi_hat:>6.3f}   ({res.iterations} EM iterations)")

# the fitted model predicts group-level survivor curves: mixtures of the
# two latent-status curves weighted by the predictive values
diag_hat = DiagnosticModel(0.8, 0.8, corrected.pi_hat, prevalence_known=True)
print("\npredicted survival at t=10 by arm and observed test result:")
for group, label in ((1, "test-positive"), (0, "test-negative")):
    s_control = mixture_survival(10.0, 0, group, corrected.theta_hat,
                                 corrected.baseline, diag_hat)
    s_treated = mixture_survival(10.0, 1, group, corrected.theta_hat,
                                 corrected.baseline, diag_hat)
    print(f"  {label}: control {s_control:.3f}, treated {s_treated:.3f}")

# posterior probability of true positive status, by observed result
w = corrected.weights
for group, label in ((1, "test-positive"), (0, "test-negative")):
    sel = np.asarray(data.test) == group
    print(f"mean posterior P(true positive | data), {label}: "
          f"{w[sel].mean():.3f}")
