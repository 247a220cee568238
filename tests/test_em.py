import gc
import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from helpers import oracle_cox, sim_dataset
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcox import (
    BaselineHazard,
    Dataset,
    DegenerateDataError,
    DiagnosticModel,
    EffectParams,
    EmConfig,
    SeparationError,
    em,
    fit,
)


def diag(sens=0.8, spec=0.8, pi=0.3, known=True):
    return DiagnosticModel(sens, spec, pi, prevalence_known=known)


def e_step(data, theta, baseline, d):
    return em._posterior(em._Workspace(data), theta, baseline, d)


def m_step(data, w, free_mask=(True, True, True)):
    """One M-step from zero, no offsets; returns (theta, baseline)."""
    ws = em._Workspace(data)
    beta, baseline = em._m_step(ws, w, np.zeros(2 * len(data)), np.array(free_mask))
    return EffectParams.from_array(beta), baseline


def observed_log_likelihood(data, theta, baseline, d):
    return em._obs_loglik(em._Workspace(data), theta, baseline, d)


class TestEStep:
    def test_perfect_test_recovers_observed_status(self):
        data = sim_dataset(1, n_per_arm=40, sens=1.0, spec=1.0)
        res = fit(data, diag(1.0, 1.0))
        w = e_step(data, res.theta_hat, res.baseline, diag(1.0, 1.0))
        assert np.array_equal(w, (data.test == 1).astype(float))

    def test_null_effects_give_prior_weights(self):
        data = Dataset([1.0, 2.0, 3.0], [1, 0, 0], [0, 1, 0], [1, 0, -1])
        d = diag()
        bl = BaselineHazard(np.array([1.0]), np.array([0.2]))
        w = e_step(data, EffectParams(0, 0, 0), bl, d)
        assert w[0] == pytest.approx(0.24 / 0.38, abs=1e-12)       # PPV
        assert w[1] == pytest.approx(1 - 0.56 / 0.62, abs=1e-12)   # 1 - NPV
        assert w[2] == pytest.approx(0.3, abs=1e-12)               # prevalence

    def test_hand_value_censored_positive(self):
        # censored at t=3 with a single event time at 2 and mass 1 there
        # subject 0 is a filler event to satisfy invariants; subject 1 is
        # the one under test
        data = Dataset([2.0, 3.0], [1, 0], [1, 0], [0, 1])
        bl = BaselineHazard(np.array([2.0]), np.array([0.5]))
        theta = EffectParams(0.0, 0.1, 0.0)
        w = e_step(data, theta, bl, diag())
        ppv = 0.24 / 0.38
        num = ppv * math.exp(-math.exp(0.1))
        den = num + (1 - ppv) * math.exp(-1.0)
        assert w[1] == pytest.approx(num / den, rel=1e-12)
        assert w[1] == pytest.approx(0.6068, abs=1e-4)

    def test_weights_in_unit_interval(self):
        data = sim_dataset(2, n_per_arm=60, sens=0.85, spec=0.75)
        res = fit(data, diag(0.85, 0.75, known=False))
        w = res.weights
        assert np.all((w >= 0) & (w <= 1))


class TestMStep:
    def test_degenerate_weights_equal_observed_fit(self):
        data = sim_dataset(4, n_per_arm=60, sens=1.0, spec=1.0)
        w = (data.test == 1).astype(float)
        theta, _ = m_step(data, w)
        x = data.treatment.astype(float)
        v = data.test.astype(float)
        beta_ref, _ = oracle_cox(data.time, data.event,
                                 np.column_stack([x, v, x * v]))
        assert np.max(np.abs(theta.as_array() - beta_ref)) < 1e-7

    def test_fixed_point_at_convergence(self, monkeypatch):
        monkeypatch.setattr(em, "TOL_LOGLIK", 1e-11)
        data = sim_dataset(5, n_per_arm=60, sens=0.9, spec=0.9)
        res = fit(data, diag(0.9, 0.9))
        theta2, _ = m_step(data, res.weights)
        assert np.max(np.abs(theta2.as_array() - res.theta_hat.as_array())) < 1e-8

    def test_uninformative_weights_collapse_to_treatment_fit(self):
        data = sim_dataset(6, n_per_arm=60, sens=0.9, spec=0.9)
        w = np.full(len(data), 0.5)
        theta, _ = m_step(data, w, free_mask=[True, False, False])
        beta_ref, _ = oracle_cox(data.time, data.event,
                                 data.treatment.astype(float))
        assert theta.beta1 == pytest.approx(beta_ref[0], abs=1e-7)
        assert theta.beta2 == 0.0 and theta.gamma == 0.0


class TestPrevalenceUpdate:
    def test_mean(self):
        assert em._update_prevalence(np.full(7, 0.3)) == pytest.approx(0.3)
        assert em._update_prevalence(np.array([0.0, 1.0])) == 0.5

    def test_clipping(self):
        assert em._update_prevalence(np.zeros(10)) == 0.01
        assert em._update_prevalence(np.ones(10)) == 0.99


class TestObservedLoglik:
    def test_reduces_to_component_sum_with_perfect_test(self):
        data = sim_dataset(7, n_per_arm=40, sens=1.0, spec=1.0)
        res = fit(data, diag(1.0, 1.0))
        theta, bl = res.theta_hat, res.baseline
        # independent computation from the jump-form likelihood pieces
        h0 = bl.step_cumulative(data.time)
        logh = np.zeros(len(data))
        ev = data.event == 1
        logh[ev] = np.log(bl.hazard(data.time[ev]))
        z = (data.test == 1).astype(float)
        eta = theta.beta1 * data.treatment + theta.beta2 * z \
            + theta.gamma * data.treatment * z
        expected = float(np.sum(data.event * (logh + eta) - h0 * np.exp(eta)))
        got = observed_log_likelihood(data, theta, bl, diag(1.0, 1.0))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_hand_values_single_censored_subject(self):
        # subject B is censored at t=1, before the only event time, so its
        # survivor factors are exactly 1 under the jump-form evaluation
        data = Dataset([2.0, 1.0], [1, 0], [0, 1], [0, 1])  # A, B
        bl = BaselineHazard(np.array([2.0]), np.array([0.5]))
        theta = EffectParams(0, 0, 0)
        pi, se, sp = 0.3, 0.8, 0.8

        term_a_unknown = math.log((pi * (1 - se) + (1 - pi) * sp) * 0.5) - 1.0
        term_b_unknown = math.log(pi * se + (1 - pi) * (1 - sp))
        got = observed_log_likelihood(data, theta, bl, diag(known=False))
        assert got == pytest.approx(term_a_unknown + term_b_unknown, rel=1e-12)
        assert term_b_unknown == pytest.approx(math.log(0.38), abs=1e-12)
        assert term_b_unknown == pytest.approx(-0.96758, abs=1e-5)

        npv = 0.56 / 0.62
        term_a_known = math.log((npv + (1 - npv)) * 0.5) - 1.0
        term_b_known = 0.0  # log(PPV*1 + (1-PPV)*1)
        got_known = observed_log_likelihood(data, theta, bl, diag(known=True))
        assert got_known == pytest.approx(term_a_known + term_b_known, rel=1e-12)

    def test_missing_subject_contribution(self):
        # columns (time, event, treatment, test) of two subjects, then
        # with a third, untested one censored at t=1
        base = Dataset([2.0, 1.0], [1, 0], [0, 1], [0, 1])
        extended = Dataset([2.0, 1.0, 1.0], [1, 0, 0], [0, 1, 0], [0, 1, -1])
        bl = BaselineHazard(np.array([2.0]), np.array([0.5]))
        theta = EffectParams(0, 0, 0)
        for known in (True, False):
            d = diag(known=known)
            delta = observed_log_likelihood(extended, theta, bl, d) \
                - observed_log_likelihood(base, theta, bl, d)
            # survivor factors are 1 at t=1, so the term is log(pi + (1-pi))
            assert delta == pytest.approx(0.0, abs=1e-12)


class TestFit:
    def test_perfect_test_equals_plain_cox(self):
        data = sim_dataset(8, n_per_arm=80, sens=1.0, spec=1.0)
        res = fit(data, diag(1.0, 1.0))
        x = data.treatment.astype(float)
        v = data.test.astype(float)
        beta_ref, _ = oracle_cox(data.time, data.event,
                                 np.column_stack([x, v, x * v]))
        assert res.converged
        assert np.max(np.abs(res.theta_hat.as_array() - beta_ref)) < 1e-6

    @pytest.mark.parametrize("seed,sens,spec", [
        (11, 0.8, 0.8), (12, 0.9, 0.8), (13, 1.0, 0.9), (14, 0.8, 1.0),
    ])
    def test_monotone_loglik(self, seed, sens, spec):
        data = sim_dataset(seed, n_per_arm=60, sens=sens, spec=spec)
        res = fit(data, diag(sens, spec, known=False))
        assert res.converged
        increments = np.diff(res.loglik_trace)
        assert increments.size == 0 or increments.min() > -1e-9

    def test_prevalence_respected_when_known(self):
        data = sim_dataset(15, n_per_arm=60, sens=0.85, spec=0.85)
        res = fit(data, diag(0.85, 0.85, pi=0.4, known=True))
        assert res.pi_hat == 0.4

    def test_extra_cycle_is_fixed_point(self, monkeypatch):
        # a loglik change below tol bounds the parameter movement at the
        # sqrt scale (quadratic objective near the optimum)
        monkeypatch.setattr(em, "TOL_LOGLIK", 1e-9)
        data = sim_dataset(16, n_per_arm=70, sens=0.85, spec=0.9)
        res = fit(data, diag(0.85, 0.9, known=False))
        res2 = fit(data, diag(0.85, 0.9, known=False), EmConfig(max_iter=1), warm=res)
        delta = np.max(np.abs(res2.theta_hat.as_array() - res.theta_hat.as_array()))
        assert delta < 10 * math.sqrt(em.TOL_LOGLIK)

    def test_initialization_invariance(self):
        data = sim_dataset(17, n_per_arm=80, sens=0.9, spec=0.9)
        d = diag(0.9, 0.9, known=False)
        res_a = fit(data, d)
        seed_state = fit(data, d, EmConfig(max_iter=1))
        perturbed = replace(
            seed_state,
            theta_hat=EffectParams(*(seed_state.theta_hat.as_array()
                                     + np.array([0.05, -0.04, 0.03]))),
        )
        res_b = fit(data, d, warm=perturbed)
        assert np.max(np.abs(res_a.theta_hat.as_array()
                             - res_b.theta_hat.as_array())) < 1e-4

    def test_all_missing_unsupervised_mixture_runs(self):
        base = sim_dataset(18, n_per_arm=50, sens=0.9, spec=0.9)
        data = Dataset(base.time, base.event, base.treatment, np.full(len(base), -1))
        res = fit(data, diag(0.9, 0.9, known=False), EmConfig(max_iter=5000))
        assert res.converged
        assert 0.01 <= res.pi_hat <= 0.99

    def test_max_iter_reported(self):
        data = sim_dataset(19, n_per_arm=50, sens=0.8, spec=0.8)
        res = fit(data, diag(known=False), EmConfig(max_iter=2))
        assert not res.converged
        assert res.iterations == 2

    def test_fixed_parameters_stay_fixed(self):
        data = sim_dataset(20, n_per_arm=60, sens=0.9, spec=0.9)
        res = fit(data, diag(0.9, 0.9), fixed={"gamma": 0.25})
        assert res.theta_hat.gamma == 0.25
        full = fit(data, diag(0.9, 0.9))
        assert res.obs_loglik <= full.obs_loglik + 1e-9


class TestWorkspaceCache:
    def test_fitted_dataset_is_freed(self):
        data = sim_dataset(18, n_per_arm=30, sens=0.9, spec=0.9)
        fit(data, diag(0.9, 0.9))
        ref = weakref.ref(data)
        del data
        gc.collect()
        assert ref() is None


@st.composite
def small_trials(draw, missing_tests=True):
    """Up to 30 subjects per arm, times on five tied values, random
    censoring and (optionally) missing test results."""
    n_arm = (draw(st.integers(2, 30)), draw(st.integers(2, 30)))
    n = sum(n_arm)

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    time = np.array(column(st.integers(1, 5)), dtype=float)
    event = np.array(column(st.integers(0, 1)))
    event[0] = 1
    test = column(st.sampled_from((0, 1, -1) if missing_tests else (0, 1)))
    return Dataset(time, event, np.repeat([0, 1], n_arm), test)


accuracies = st.floats(0.7, 1.0)


class TestProperties:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(small_trials(), accuracies, accuracies, st.floats(0.1, 0.9), st.booleans())
    def test_posteriors_in_unit_interval_and_ascent(self, data, sens, spec, pi, known):
        try:
            res = fit(data, diag(sens, spec, pi, known), EmConfig(max_iter=300))
        except (SeparationError, DegenerateDataError):
            return
        w = res.weights
        assert np.all((w >= 0) & (w <= 1))
        assert np.diff(res.loglik_trace).min(initial=0.0) >= -1e-9

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(small_trials(missing_tests=False), st.floats(0.1, 0.9))
    def test_perfect_test_with_known_prevalence_is_plain_cox(self, data, pi):
        try:
            res = fit(data, diag(1.0, 1.0, pi))
        except (SeparationError, DegenerateDataError):
            return
        x = data.treatment.astype(float)
        v = data.test.astype(float)
        beta_ref, _ = oracle_cox(data.time, data.event, np.column_stack([x, v, x * v]))
        assert np.max(np.abs(res.theta_hat.as_array() - beta_ref)) < 1e-6
