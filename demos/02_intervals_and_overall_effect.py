"""Profile-likelihood intervals, simultaneous intervals and the overall
concordance odds.

Individual confidence intervals invert the profile likelihood-ratio
statistic; the subgroup treatment effects additionally get equicoordinate
simultaneous intervals (familywise coverage), and the overall effect is
summarized as concordance odds, a subgroup-mixable alternative to a
marginal hazard ratio.

Run:  python demos/02_intervals_and_overall_effect.py
"""

import math

from mixcox import (
    DiagnosticModel,
    EffectParams,
    RngStream,
    ScenarioConfig,
    fit,
    generate_trial,
    lr_test,
    overall_concordance_report,
    profile_ci,
    simultaneous_cis,
    simultaneous_scale,
)

config = ScenarioConfig(
    theta_true=EffectParams(-0.5, 0.1, 0.3), pi_true=0.3, sens=0.9, spec=0.9,
    n_per_arm=300, replications=1, base_seed=21,
)
data = generate_trial(config, RngStream(21, 0))
diag = DiagnosticModel(0.9, 0.9, 0.3, prevalence_known=False)
res = fit(data, diag)
print(f"estimates: {res.theta_hat}, pi_hat {res.pi_hat:.3f}")

# individual profile intervals and LR tests; each analysis takes the fit
# alone, which records the data and the diagnostic model it was fitted to
for name in ("beta1", "beta2", "gamma", "pi"):
    ci = profile_ci(res, name)
    line = f"  {name:>6}: ({ci.low: .3f}, {ci.high: .3f})"
    if name != "pi":
        lam, p = lr_test(res, name, 0.0)
        line += f"   LR vs 0: {lam:6.2f}  p = {p:.3f}"
    print(line)

# simultaneous intervals for the two subgroup effects: the common scale
# factor inflates the normal quantile according to the correlation.  One
# profile information of (beta1, beta2, gamma), computed once and kept with
# the fit, gives every standard error and covariance of the analysis
rep2 = simultaneous_cis(res, alpha=0.05)
print(f"\ncorrelation of the subgroup estimates: {rep2.rho:.3f}")
print(f"scale factor xi = {rep2.xi_alpha:.4f} "
      f"(vs 1.9600 univariate, {simultaneous_scale(0.0, 0.05):.4f} independent)")
print(f"  negative group log HR: {rep2.est_neg: .3f} "
      f"({rep2.interval_neg.low: .3f}, {rep2.interval_neg.high: .3f})")
print(f"  positive group log HR: {rep2.est_pos: .3f} "
      f"({rep2.interval_pos.low: .3f}, {rep2.interval_pos.high: .3f})")

# the three-way report adds the overall log concordance odds
rep3 = overall_concordance_report(res)
print(f"\nthree-way simultaneous intervals (xi = {rep3.xi_alpha:.4f}):")
for label, est, ival in (
    ("negative", rep3.est_neg, rep3.interval_neg),
    ("positive", rep3.est_pos, rep3.interval_pos),
    ("overall", rep3.est_overall, rep3.interval_overall),
):
    print(f"  {label:>9}: CO {math.exp(est):5.2f} "
          f"({math.exp(ival.low):.2f}, {math.exp(ival.high):.2f})")
