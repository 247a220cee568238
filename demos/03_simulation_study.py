"""A small version of the simulation study.

Each cell simulates biomarker-stratified trials under a decreasing
Weibull baseline with uniform censoring, fits every replication with the
prevalence treated as unknown, and tabulates bias, SD, simultaneous
coverage of the two subgroup effects, and the rejection rate of the
interaction test.  The headline result: misclassification erodes the
power to detect an interaction, here at the mild-interaction setting
(log HRs -0.5 / -0.2, so hazard ratios about 0.61 and 0.82).

Replications are kept small so the script finishes in a few seconds;
increase `REPS` to tighten the Monte-Carlo error.

Run:  python demos/03_simulation_study.py
"""

from mixcox import EffectParams, ScenarioConfig, emit_table, run_scenario

REPS = 100
theta = EffectParams(-0.5, 0.1, 0.3)

cells = [
    ScenarioConfig(theta_true=theta, pi_true=0.3, sens=1.0, spec=1.0,
                   n_per_arm=500, replications=REPS, base_seed=31),
    ScenarioConfig(theta_true=theta, pi_true=0.3, sens=0.9, spec=0.9,
                   n_per_arm=500, replications=REPS, base_seed=32),
    ScenarioConfig(theta_true=theta, pi_true=0.3, sens=0.8, spec=0.8,
                   n_per_arm=500, replications=REPS, base_seed=33),
]

summaries = []
for cfg in cells:
    print(f"running (sens, spec) = ({cfg.sens:g}, {cfg.spec:g}), "
          f"{cfg.replications} replications ...")
    summaries.append(run_scenario(cfg))

table = emit_table(summaries)
print()
print(table.text)
print("note how the reject column (power for the interaction) falls as "
      "the diagnostic accuracy drops,")
print("while the SD of every coefficient grows.")
