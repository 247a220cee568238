"""Acceptance suite: one test per criterion, run in order of cost.

Each test prints a `[PASS] criterion N` line (visible under `pytest -s`
or in the captured output); the per-test pass/fail status under
`pytest -v` is the authoritative per-criterion verdict.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from helpers import oracle_cox, random_subjects, sim_dataset
from scipy import stats

from mixcox import (
    DiagnosticModel,
    EffectParams,
    ScenarioConfig,
    concordance_prob,
    fit,
    profile_ci,
    profile_loglik,
    run_scenario,
    simultaneous_scale,
)
from mixcox.cli import main as cli_main
from mixcox.cox import RiskSets, RiskSums, _loglik_parts

DATA_DIR = Path(__file__).parent / "data"
CHI2_95 = float(stats.chi2.ppf(0.95, 1))


def ok(n, msg):
    print(f"\n[PASS] criterion {n}: {msg}")


def test_criterion_01_degenerate_model_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(50):
        rng = np.random.default_rng([1000, k])
        theta = tuple(rng.normal(0.0, 0.4, 3))
        data = sim_dataset(int(rng.integers(1 << 31)), n_per_arm=100,
                           theta=theta, pi=float(rng.uniform(0.2, 0.5)),
                           sens=1.0, spec=1.0)
        diag = DiagnosticModel(1.0, 1.0, 0.3, prevalence_known=False)
        res = fit(data, diag)
        x = data.treatment.astype(float)
        v = data.test.astype(float)
        beta_ref, _ = oracle_cox(data.time, data.event,
                                 np.column_stack([x, v, x * v]))
        worst = max(worst, float(np.max(np.abs(res.theta_hat.as_array() - beta_ref))))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-6
    assert elapsed < 60.0
    ok(1, f"50 perfect-test fits match the independent Cox oracle "
          f"(max |delta| = {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_em_monotonicity():
    worst = 0.0
    for k in range(100):
        rng = np.random.default_rng([2000, k])
        theta = tuple(rng.normal(0.0, 0.4, 3))
        sens = float(rng.choice([0.8, 0.9, 1.0]))
        spec = float(rng.choice([0.8, 0.9, 1.0]))
        data = sim_dataset(int(rng.integers(1 << 31)),
                           n_per_arm=int(rng.integers(40, 90)),
                           theta=theta, pi=float(rng.uniform(0.15, 0.6)),
                           sens=sens, spec=spec)
        if k % 2 == 0:
            # knock out some test results to exercise the missing path
            test = np.array(data.test)
            test[rng.random(test.size) < 0.15] = -1
            from mixcox import Dataset
            data = Dataset(data.time, data.event, data.treatment, test)
        known = bool(k % 3 == 0)
        diag = DiagnosticModel(sens, spec, 0.3, prevalence_known=known)
        res = fit(data, diag)
        if res.loglik_trace.size > 1:
            worst = min(worst, float(np.diff(res.loglik_trace).min()))
    assert worst > -1e-9
    ok(2, f"100 fits with nondecreasing observed loglik "
          f"(worst increment = {worst:.2e})")


def test_criterion_03_derivative_correctness():
    worst_g, worst_h = 0.0, 0.0
    for k in range(100):
        rng = np.random.default_rng([3000, k])
        time, event, x, w = random_subjects(rng, n=int(rng.integers(15, 40)))
        sums = RiskSums(RiskSets(time, event, x), w)
        beta = rng.normal(0.0, 0.4, 3)
        value, grad, hess = _loglik_parts(sums, beta)
        h = 1e-6
        for j in range(3):
            up, dn = beta.copy(), beta.copy()
            up[j] += h
            dn[j] -= h
            v_up = _loglik_parts(sums, up)
            v_dn = _loglik_parts(sums, dn)
            fd_g = (v_up[0] - v_dn[0]) / (2 * h)
            rel = abs(grad[j] - fd_g) / max(abs(grad[j]), 1e-4)
            worst_g = max(worst_g, rel)
            fd_h = (v_up[1] - v_dn[1]) / (2 * h)
            rel_h = np.abs(hess[:, j] - fd_h) / np.maximum(np.abs(hess[:, j]), 1e-4)
            worst_h = max(worst_h, float(rel_h.max()))
    assert worst_g < 1e-5
    assert worst_h < 1e-5
    ok(3, f"gradient/Hessian match central differences "
          f"(worst rel err {worst_g:.2e} / {worst_h:.2e})")


def test_criterion_04_concordance_reproduction():
    p = concordance_prob(EffectParams(-0.15, 1.18, -0.53), 0.47)
    co = p / (1 - p)
    assert co == pytest.approx(0.70, abs=0.005)
    ok(4, f"overall concordance odds {co:.4f} within 0.70 +- 0.005")


def test_criterion_05_scaling_factor_bounds():
    z = float(stats.norm.ppf(0.975))
    sidak = float(stats.norm.ppf((1 + math.sqrt(0.95)) / 2))
    assert simultaneous_scale(1.0, 0.05) == pytest.approx(z, abs=1e-4)
    assert simultaneous_scale(-1.0, 0.05) == pytest.approx(z, abs=1e-4)
    assert simultaneous_scale(1.0, 0.05) == pytest.approx(1.95996, abs=1e-4)
    assert simultaneous_scale(0.0, 0.05) == pytest.approx(sidak, abs=1e-4)
    assert simultaneous_scale(0.0, 0.05) == pytest.approx(2.23649, abs=1e-4)
    grid = np.linspace(0.0, 1.0, 21)
    vals = [simultaneous_scale(r, 0.05) for r in grid]
    neg_vals = [simultaneous_scale(-r, 0.05) for r in grid]
    assert np.allclose(vals, neg_vals, atol=1e-6)
    assert np.all(np.diff(vals) <= 1e-6)
    ok(5, "scaling factor hits the univariate and Sidak oracles and is "
          "monotone in |rho| over a 21-point grid")


def test_criterion_06_profile_ci_defining_property():
    worst = 0.0
    for k in range(20):
        rng = np.random.default_rng([6000, k])
        sens = float(rng.choice([0.8, 0.9, 1.0]))
        spec = float(rng.choice([0.8, 0.9, 1.0]))
        data = sim_dataset(int(rng.integers(1 << 31)), n_per_arm=100,
                           theta=(-0.4, 0.2, 0.4), sens=sens, spec=spec)
        diag = DiagnosticModel(sens, spec, 0.3, prevalence_known=False)
        res = fit(data, diag)
        ci = profile_ci(data, diag, "gamma", fit_result=res)
        assert ci.low < res.theta_hat.gamma < ci.high
        for endpoint in (ci.low, ci.high):
            ll = profile_loglik(data, diag, {"gamma": endpoint}, warm=res)
            lam = 2.0 * (res.obs_loglik - ll)
            worst = max(worst, abs(lam - CHI2_95))
    assert worst < 0.02
    ok(6, f"LR statistic at 40 CI endpoints within 0.02 of {CHI2_95:.4f} "
          f"(worst |delta| = {worst:.4f})")


def _cell(theta, sens, spec, seed, reps=500, n_per_arm=500):
    return run_scenario(ScenarioConfig(
        theta_true=EffectParams(*theta), pi_true=0.3, sens=sens, spec=spec,
        n_per_arm=n_per_arm, replications=reps, base_seed=seed,
    ))


def test_criterion_07_null_scenario_desk_scale():
    t0 = time.perf_counter()
    s = _cell((0.0, 0.1, 0.0), 0.8, 0.8, seed=70001)
    elapsed = time.perf_counter() - t0
    assert 0.03 <= s.reject_rate <= 0.07
    assert 0.93 <= s.coverage_simult <= 0.98
    assert elapsed < 900.0
    ok(7, f"null scenario (0.8,0.8): type-I {s.reject_rate:.4f} in [0.03,0.07], "
          f"coverage {s.coverage_simult:.4f} in [0.93,0.98] "
          f"({s.failures} failures, {elapsed:.0f}s)")


def test_criterion_08_strong_interaction_desk_scale():
    s = _cell((0.1, 0.1, -0.7), 1.0, 1.0, seed=80001)
    assert s.reject_rate >= 0.96
    assert 0.1705 * 0.85 <= s.sd[2] <= 0.1705 * 1.15
    ok(8, f"strong interaction (1,1): power {s.reject_rate:.4f} >= 0.96, "
          f"SD(gamma) {s.sd[2]:.4f} within 0.1705 +- 15%")


def test_criterion_09_mild_interaction_power_degradation():
    s_perfect = _cell((-0.5, 0.1, 0.3), 1.0, 1.0, seed=90001)
    s_noisy = _cell((-0.5, 0.1, 0.3), 0.8, 0.8, seed=90002)
    assert abs(s_perfect.reject_rate - 0.4286) <= 0.06
    assert abs(s_noisy.reject_rate - 0.1678) <= 0.06
    assert s_perfect.reject_rate > s_noisy.reject_rate
    ok(9, f"mild interaction power degrades {s_perfect.reject_rate:.4f} -> "
          f"{s_noisy.reject_rate:.4f} under misclassification")


def test_criterion_10_example_analysis_documented_not_reproduced():
    # The published motivating analysis was run on individual-level data
    # reconstructed from survival curves; that dataset is not distributed,
    # so its result tables cannot be regenerated here.  The concordance
    # check (criterion 4) pins the overall-effect arithmetic to the
    # published numbers and the golden-report tests pin the report layout.
    golden = [DATA_DIR / "golden_trial.csv", DATA_DIR / "golden_report.txt",
              DATA_DIR / "golden_report.json"]
    for path in golden:
        assert path.exists()
    ok(10, "example analysis documented as non-reproducible; criterion 4 "
           "and the golden report-layout tests stand in")


def test_criterion_11_simulation_determinism(tmp_path):
    config = [
        {"theta": [0.0, 0.1, 0.0], "pi": 0.3, "sens": 0.9, "spec": 0.9,
         "n_per_arm": 50, "reps": 8, "seed": 1101},
        {"theta": [-0.5, 0.1, 0.3], "pi": 0.3, "sens": 1.0, "spec": 1.0,
         "n_per_arm": 50, "reps": 8, "seed": 1102},
    ]
    cfg = tmp_path / "scenarios.json"
    cfg.write_text(json.dumps(config))
    outputs = {}
    for label, workers in (("a", 1), ("b", 8), ("c", 1)):
        out = tmp_path / label
        rc = cli_main(["simulate", "--config", str(cfg), "--out-dir", str(out),
                       "--workers", str(workers)])
        assert rc == 0
        outputs[label] = {
            name: (out / name).read_bytes()
            for name in ("summary.txt", "summary.csv")
        }
    assert outputs["a"] == outputs["b"] == outputs["c"]
    ok(11, "summary files byte-identical across reruns and 1 vs 8 workers")
