import math
import sys

import numpy as np
import pytest
from scipy import integrate, stats

from mixcox import (
    DatasetError,
    DiagnosticModel,
    EffectParams,
    RngStream,
    ScenarioConfig,
    cox,
    em,
    emit_table,
    generate_trial,
    inference,
    lr_test,
    run_scenario,
    simulate,
)
from mixcox.inference import profile_loglik
from mixcox.simulate import _draw_survival_time, _draw_trial, _replicate


def scenario(**kw):
    base = dict(
        theta_true=EffectParams(0.0, 0.1, 0.0), pi_true=0.3, sens=0.8, spec=0.8,
        n_per_arm=60, replications=4, base_seed=20240811,
    )
    base.update(kw)
    return ScenarioConfig(**base)


class TestScenarioConfig:
    @pytest.mark.parametrize("kw", [dict(n_per_arm=0), dict(alpha=0.0), dict(alpha=1.5),
                                    dict(pi_true=1.3), dict(sens=0.5, spec=0.5),
                                    dict(base_seed=-1)],
                             ids=["n_per_arm", "alpha_zero", "alpha_above_one", "pi",
                                  "uninformative_test", "negative_seed"])
    def test_invalid_cell_rejected(self, kw):
        with pytest.raises(ValueError):
            scenario(**kw)

    def test_builds_the_fitted_diagnostic_model(self):
        cfg = scenario(prevalence_known=True)
        assert cfg.diag == DiagnosticModel(0.8, 0.8, 0.3, prevalence_known=True)


class TestDrawSurvivalTime:
    def test_unit_cumulative_hazard_point(self):
        # survival exp(-1) at t=10 under the null linear predictor
        assert _draw_survival_time(math.exp(-1), 0.0) == pytest.approx(10.0, rel=1e-12)

    def test_hand_value_with_effect(self):
        expected = 10.0 * 0.5 ** 1.25
        assert _draw_survival_time(math.exp(-1), math.log(2)) == pytest.approx(
            expected, rel=1e-12
        )
        assert expected == pytest.approx(4.2045, abs=1e-4)

    def test_distribution_matches_target(self):
        rng = np.random.default_rng(77)
        draws = _draw_survival_time(rng.random(100_000), 0.0)
        ks = stats.kstest(draws, lambda t: 1 - np.exp(-((0.1 * t) ** 0.8)))
        assert ks.statistic < 0.01


class TestGenerateTrial:
    def test_perfect_test_observes_latent_status(self):
        cfg = scenario(sens=1.0, spec=1.0, n_per_arm=500)
        _, _, _, v, z = _draw_trial(cfg, RngStream(1, 0).generator())
        assert np.array_equal(v, z)

    def test_censoring_rate_near_quarter(self):
        cfg = scenario(n_per_arm=5000)
        data = generate_trial(cfg, RngStream(2, 0))
        frac = 1.0 - data.event.mean()
        # quadrature oracle: E[S(C)] mixed over biomarker status
        def surv(t, scale):
            return np.exp(-((0.1 * t) ** 0.8) * scale)
        oracle = integrate.quad(
            lambda t: (0.7 * surv(t, 1.0) + 0.3 * surv(t, math.exp(0.1))) / 20.0,
            5.0, 25.0,
        )[0]
        assert frac == pytest.approx(oracle, abs=0.015)
        assert abs(frac - 0.25) <= 0.03

    def test_observed_positive_fraction(self):
        cfg = scenario(n_per_arm=50_000, sens=0.8, spec=0.8)
        data = generate_trial(cfg, RngStream(3, 0))
        expected = 0.3 * 0.8 + 0.7 * 0.2
        assert np.mean(data.test == 1) == pytest.approx(expected, abs=0.008)

    def test_stratified_allocation_balance(self):
        for seed in range(5):
            cfg = scenario(n_per_arm=137)  # odd strata likely
            data = generate_trial(cfg, RngStream(seed, 0))
            for stratum in (0, 1):
                sel = data.test == stratum
                n1 = int(np.sum(data.treatment[sel] == 1))
                n0 = int(np.sum(sel)) - n1
                assert abs(n1 - n0) <= 1
            assert int(data.treatment.sum()) == cfg.n_per_arm
            assert len(data) == 2 * cfg.n_per_arm

    def test_latent_status_not_in_dataset(self):
        data = generate_trial(scenario(), RngStream(4, 0))
        assert not hasattr(data, "z")
        assert set(data.__slots__) == {"time", "event", "treatment", "test",
                                       "__weakref__"}

    def test_deterministic_given_stream(self):
        cfg = scenario()
        a = generate_trial(cfg, RngStream(5, 3))
        b = generate_trial(cfg, RngStream(5, 3))
        assert np.array_equal(a.time, b.time)
        assert np.array_equal(a.test, b.test)
        c = generate_trial(cfg, RngStream(5, 4))
        assert not np.array_equal(a.time, c.time)


class TestRngStream:
    def test_substreams_differ_and_reproduce(self):
        x1 = RngStream(99, 7).generator().random(4)
        x2 = RngStream(99, 7).generator().random(4)
        x3 = RngStream(99, 8).generator().random(4)
        assert np.array_equal(x1, x2)
        assert not np.array_equal(x1, x3)


class TestRunScenario:
    def test_small_run_summary_fields(self):
        s = run_scenario(scenario(replications=6))
        assert s.replications == 6
        assert s.failures >= 0
        assert s.bias.shape == (3,) and s.sd.shape == (3,)
        assert 0 <= s.coverage_simult <= 1
        assert 0 <= s.reject_rate <= 1

    def test_deterministic_across_workers(self):
        cfg = scenario(replications=6, n_per_arm=50)
        s1 = run_scenario(cfg, workers=1)
        s2 = run_scenario(cfg, workers=2)
        s3 = run_scenario(cfg, workers=1)
        for a, b in ((s1, s2), (s1, s3)):
            assert np.array_equal(a.bias, b.bias)
            assert np.array_equal(a.sd, b.sd)
            assert a.coverage_simult == b.coverage_simult
            assert a.reject_rate == b.reject_rate
            assert a.failures == b.failures

    @pytest.mark.parametrize("workers", [0, -1])
    def test_worker_count_below_one_rejected_before_any_replication(self, monkeypatch,
                                                                    workers):
        ran = []
        monkeypatch.setattr(simulate, "_replicate", lambda *args: ran.append(args))
        with pytest.raises(DatasetError, match="^workers must be at least 1$"):
            run_scenario(scenario(), workers=workers)
        assert ran == []

    def test_single_replication_sd_undefined(self):
        s = run_scenario(scenario(replications=1))
        assert np.all(np.isnan(s.sd))
        table = emit_table([s])
        assert "NA" in table.text
        assert "NA" in table.csv


class TestReplicate:
    # pool cell 70001 of the benchmark's sim-cell workload, and a small cell
    CELLS = [scenario(n_per_arm=500, base_seed=70001), scenario(n_per_arm=40)]

    @pytest.mark.parametrize("cfg", CELLS, ids=["pool_70001", "40_per_arm"])
    def test_fit_and_null_share_one_stack(self, monkeypatch, cfg):
        def record(module, name):
            results = []
            original = getattr(module, name)

            def logged(*args, **kwargs):
                results.append(original(*args, **kwargs))
                return results[-1]

            monkeypatch.setattr(module, name, logged)
            return results

        stacks = record(em, "_fit_lanes")
        statistics = record(inference, "_lr_statistic")
        theta, _, _, ok = _replicate(cfg, 0)
        assert ok and len(stacks) == 1 and len(statistics) == 1
        monkeypatch.undo()

        # the fit's lane is em.fit, bit for bit
        data = generate_trial(cfg, RngStream(cfg.base_seed, 0))
        res = em.fit(data, cfg.diag)
        lane = stacks[0][0]
        assert theta.tobytes() == res.theta_hat.as_array().tobytes()
        assert lane.loglik_trace[-1] == res.obs_loglik
        assert lane.iterations == res.iterations
        # the null's lane is the cold one-lane refit, bit for bit, and
        # agrees with the warm refit of lr_test to the EM's tolerance
        lam = statistics[0][0]
        assert lam == 2.0 * (res.obs_loglik - profile_loglik(data, cfg.diag, {"gamma": 0.0}))
        assert lam == pytest.approx(lr_test(res, "gamma", 0.0)[0], abs=1e-6)

    def test_partial_likelihood_evaluations_are_the_em_steps(self, monkeypatch):
        # a replication refits nothing: its fit and the LR null are the two
        # lanes of one stacked EM, and the null needs no profile slope, so
        # every partial-likelihood evaluation is a Newton step or trial
        # point of that EM
        callers = []
        kernel = cox._loglik_parts

        def logged(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(cox, "_loglik_parts", logged)
        assert _replicate(scenario(n_per_arm=500, base_seed=70001), 0)[3]
        assert callers and set(callers) == {"fit_weighted_cox"}


class TestEmitTable:
    def test_single_summary_layout(self):
        s = run_scenario(scenario(replications=3))
        table = emit_table([s])
        text_lines = table.text.strip().splitlines()
        assert len(text_lines) == 3  # header, rule, one row
        csv_lines = table.csv.strip().splitlines()
        assert len(csv_lines) == 2
        header = csv_lines[0].split(",")
        # keys + replications, then 9 value columns
        assert header[:4] == ["n_per_arm", "sens", "spec", "replications"]
        assert header[4:] == [
            "bias_beta1_x100", "bias_beta2_x100", "bias_gamma_x100",
            "sd_beta1", "sd_beta2", "sd_gamma",
            "coverage_simult", "reject_rate", "failures",
        ]
        assert len(csv_lines[1].split(",")) == 13

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            emit_table([])
