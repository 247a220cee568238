import gc
import math
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    accuracies,
    hazard_level,
    lane_fit,
    one_em_map,
    oracle_cox,
    sim_dataset,
    small_trials,
    step_cumulative,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixcox import (
    BaselineHazard,
    ConvergenceError,
    Dataset,
    DatasetError,
    DegenerateDataError,
    DiagnosticModel,
    EffectParams,
    SeparationError,
    cox,
    em,
    fit,
)
from mixcox.cli import parse_dataset


def diag(sens=0.8, spec=0.8, pi=0.3, known=True):
    return DiagnosticModel(sens, spec, pi, prevalence_known=known)


def state_of(theta, baseline, pi):
    """The EM state (theta, hazard increments, pi) as arrays."""
    return theta.as_array(), baseline.increments, pi


def e_step(data, theta, baseline, d):
    return em._e_pass(em._Workspace(data), state_of(theta, baseline, d.prevalence),
                      d)[1]


def m_step(data, w, free_mask=(True, True, True)):
    """The exact M-step with fixed coefficients at 0: the generalized
    M-step iterated from zero on fixed weights until its step is below
    1e-12 (at most 50 steps); returns (theta, baseline)."""
    ws = em._Workspace(data)
    free = np.array(free_mask)
    beta = np.zeros(3)
    for _ in range(50):
        new, inc, _ = em._m_step(ws, w, beta, free)
        done = np.max(np.abs(new - beta)) < 1e-12
        beta = new
        if done:
            break
    return (EffectParams.from_array(beta),
            BaselineHazard(ws.risk_sets.ets, inc))


def observed_log_likelihood(data, theta, baseline, d):
    return em._e_pass(em._Workspace(data),
                      state_of(theta, baseline, d.prevalence), d)[0]


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

    @pytest.mark.parametrize("known", [True, False])
    def test_perfect_test_fused_pass(self, known):
        # a prior weight of 0 makes A or B -inf for every subject; the
        # loglik stays finite and the posteriors are exactly 0 and 1
        data = sim_dataset(23, n_per_arm=50, sens=1.0, spec=1.0)
        d = diag(1.0, 1.0, known=known)
        res = fit(data, d)
        observed = (data.test == 1).astype(float)
        ll, w = em._e_pass(res._workspace,
                           state_of(res.theta_hat, res.baseline, res.pi_hat), d)
        assert np.isfinite(ll) and np.isfinite(res.loglik_trace).all()
        assert ll == res.obs_loglik
        assert np.array_equal(w, observed)
        assert np.array_equal(res.weights, observed)

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


class TestMStepBaseline:
    def test_increments_are_the_breslow_baseline_at_the_step(self):
        # the M-step takes the Breslow increments from the risk-set totals
        # of the Cox step's last trial point; they must be the baseline at
        # the coefficients it returns, bit for bit, also in a lane that
        # holds every coefficient (no step) and one at its stationary point
        data = sim_dataset(7, n_per_arm=60, sens=0.85, spec=0.8)
        ws = em._Workspace(data)
        rng = np.random.default_rng(7)
        w = rng.uniform(0.05, 0.95, (4, len(data)))
        theta = np.array([[0.0, 0.0, 0.0], [0.3, -0.2, 0.5], [0.1, 0.1, 0.1], [0.0, 0.0, 0.0]])
        free = np.array([[True] * 3, [True, False, True], [False] * 3, [True] * 3])
        # lane 3 starts at its own partial-likelihood maximum
        for _ in range(30):
            theta[3] = cox.fit_weighted_cox(cox.RiskSums(ws.risk_sets, w[3]), theta[3],
                                            free[3]).beta
        beta, inc, errors = em._m_step(ws, w, theta, free)
        assert not errors
        assert np.array_equal(beta[2], theta[2])
        want = cox.breslow_baseline(cox.RiskSums(ws.risk_sets, w), beta)
        assert np.array_equal(inc, want)
        for k in range(4):
            beta_k, inc_k, _ = em._m_step(ws, w[k], theta[k], free[k])
            assert np.array_equal(beta_k, beta[k]) and np.array_equal(inc_k, inc[k])


class TestLogistic:
    def test_expit_and_logit_match_scipy(self):
        from scipy.special import expit, logit

        x = np.concatenate([np.linspace(-700.0, 700.0, 14_001), [-1e308, 1e308, 0.0]])
        got = em._expit(x)
        assert np.all(np.abs(got - expit(x)) <= 1e-15 * expit(x))
        p = np.linspace(1e-6, 1.0 - 1e-6, 10_001)
        assert np.abs(em._logit(p) - logit(p)).max() <= 1e-14
        assert np.abs(em._expit(em._logit(p)) / p - 1.0).max() <= 1e-15
        assert em._expit(-np.inf) == 0.0 and em._expit(np.inf) == 1.0


class TestGeneralizedMStep:
    def test_kernel_calls_per_em_iteration(self, monkeypatch):
        # one derivative evaluation and one value evaluation per M-step
        # when the Newton step needs no halving; a Newton solve to
        # convergence per M-step took ~4 per EM iteration here
        calls = []
        kernel = cox._loglik_parts

        def counted(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(cox, "_loglik_parts", counted)
        data = sim_dataset(111, n_per_arm=500, sens=0.8, spec=0.8)
        res = fit(data, diag(known=False))
        assert len(calls) <= 2.2 * res.iterations

    @pytest.mark.parametrize("known", [False, True])
    def test_stops_near_tightly_converged_fit(self, monkeypatch, known):
        # a slower EM would stop further from the optimum at the same
        # loglik tolerance; the generalized M-step must not
        golden = parse_dataset(Path(__file__).parent / "data" / "golden_trial.csv")
        cases = [(golden, 0.9, 0.85)] + [
            (sim_dataset(seed, n_per_arm=100, sens=0.85, spec=0.8), 0.85, 0.8)
            for seed in (11, 12, 13, 14)
        ]
        for data, sens, spec in cases:
            d = diag(sens, spec, known=known)
            res = fit(data, d)
            with monkeypatch.context() as m:
                m.setattr(em, "TOL_LOGLIK", 1e-13)
                tight = fit(data, d)
            assert np.max(np.abs(res.theta_hat.as_array()
                                 - tight.theta_hat.as_array())) < 1e-4


def plain_em(data, d, state, free):
    """The unaccelerated loop: one EM map per iteration from ``state`` =
    (theta, hazard increments, pi), to the same stop rule and iteration
    cap as ``em.fit``; returns (theta, trace)."""
    ws = em._Workspace(data)
    theta, inc, pi = state
    _, w = em._e_pass(ws, state, d)
    trace = []
    ll_prev = -np.inf
    for _ in range(em.MAX_ITER):
        theta, inc, _ = em._m_step(ws, w, theta, free)
        if not d.prevalence_known:
            pi = em._update_prevalence(w)
        ll, w = em._e_pass(ws, (theta, inc, pi), d)
        trace.append(ll)
        if abs(ll - ll_prev) < em.TOL_LOGLIK:
            break
        ll_prev = ll
    return EffectParams.from_array(theta), np.array(trace)


def refit_trials():
    """(data, diag) for the golden trial and four simulated trials, with
    the prevalence estimated and known."""
    golden = parse_dataset(Path(__file__).parent / "data" / "golden_trial.csv")
    trials = [(golden, 0.9, 0.85)] + [
        (sim_dataset(seed, n_per_arm=100, sens=0.85, spec=0.8), 0.85, 0.8)
        for seed in (11, 12, 13, 14)
    ]
    for known in (False, True):
        for data, sens, spec in trials:
            yield data, diag(sens, spec, known=known)


def refit_cases():
    """(data, diag, unconstrained fit, pins) for each trial: three points
    0.01 and 0.02 from the fit (every coefficient pinned), like a
    finite-difference stencil's, and the gamma = 0 null."""
    h = 0.01
    stencil = [np.array(disp) for disp in ([h, 0, 0], [0, h, h], [0, 0, 2 * h])]
    for data, d in refit_trials():
        base = fit(data, d)
        center = base.theta_hat.as_array()
        pins = [dict(zip(em.PARAM_NAMES, center + disp)) for disp in stencil]
        for fixed in pins + [{"gamma": 0.0}]:
            yield data, d, base, fixed


def fit_cases():
    """(data, diag, warm start or None, pins): each trial's cold fits,
    free and at the gamma = 0 null, then its refits."""
    for data, d in refit_trials():
        for fixed in ({}, {"gamma": 0.0}):
            yield data, d, None, fixed
    yield from refit_cases()


def start_state(data, d, warm, fixed):
    """The state ``em.fit`` starts from: the null start of a cold fit, or
    the warm fit's state with the pins applied."""
    if warm is None:
        return em._initial_state(em._Workspace(data), d, fixed)
    theta = warm.theta_hat.as_array()
    for name, value in fixed.items():
        theta[em.PARAM_NAMES.index(name)] = value
    pi = d.prevalence if d.prevalence_known else warm.pi_hat
    return theta, warm.baseline.increments, pi


class TestAcceleratedRefit:
    """SQUAREM in every fit, cold (null start) and warm (refit)."""

    def test_ascent_accuracy_and_pins(self, monkeypatch):
        for data, d, base, fixed in fit_cases():
            res = lane_fit(data, d, fixed, base)
            with monkeypatch.context() as m:
                m.setattr(em, "TOL_LOGLIK", 1e-13)
                tight = lane_fit(data, d, fixed)
            # ascent up to rounding, as in criterion 2
            assert np.diff(res.loglik_trace).min(initial=0.0) > -1e-9
            assert abs(res.obs_loglik - tight.obs_loglik) < 1e-8
            assert np.max(np.abs(res.theta_hat.as_array()
                                 - tight.theta_hat.as_array())) < 1e-4
            theta = res.theta_hat.as_array()
            for name, value in fixed.items():
                assert theta[em.PARAM_NAMES.index(name)] == value

    @pytest.mark.parametrize("failure",
                             ["separation", "lower_loglik", "hazard_underflow"])
    def test_failed_jumps_are_rejected(self, monkeypatch, failure):
        # every map from an extrapolated point fails: the accepted
        # sequence is then plain EM from the start, cold or warm, and each
        # rejected jump still counts as an iteration.  A failed map
        # reports its lane's exception by lane index; a map from a jump
        # whose hazard increment underflowed must not run at all
        unpack, em_map, sqs3_point = em._unpack, em._em_map, em._sqs3_point
        jumps, plain_lls = [], []

        def underflowing_point(*args):
            # the first log hazard increment so low that exp gives 0.0
            point = sqs3_point(*args)
            point[..., 3] = -1e4
            return point

        def marked_unpack(*args):
            jumps.append(unpack(*args))
            return jumps[-1]

        def failing_map(ws, d, free, held, state, w):
            if not any(state is jump for jump in jumps):
                out = em_map(ws, d, free, held, state, w)
                plain_lls.append(out[2])
                return out
            if failure == "hazard_underflow":
                raise AssertionError("a map ran from a zero hazard increment")
            new, w_new, ll, errors = em_map(ws, d, free, held, state, w)
            if failure == "separation":
                return new, w_new, ll, {0: SeparationError("forced")}
            return new, w_new, plain_lls[-1] - 1e-6, errors

        monkeypatch.setattr(em, "_unpack", marked_unpack)
        monkeypatch.setattr(em, "_em_map", failing_map)
        if failure == "hazard_underflow":
            monkeypatch.setattr(em, "_sqs3_point", underflowing_point)
        for data, d, base, fixed in fit_cases():
            jumps.clear()
            res = lane_fit(data, d, fixed, base)
            free = np.array([name not in fixed for name in em.PARAM_NAMES])
            theta, trace = plain_em(data, d, start_state(data, d, base, fixed),
                                    free)
            assert np.array_equal(res.loglik_trace, trace)
            assert np.array_equal(res.theta_hat.as_array(), theta.as_array())
            assert res.iterations == trace.size + len(jumps)
            if trace.size > 2:
                assert jumps


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
        h0 = step_cumulative(bl, data.time)
        logh = np.zeros(len(data))
        ev = data.event == 1
        logh[ev] = np.log(hazard_level(bl, data.time[ev]))
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
        assert np.max(np.abs(res.theta_hat.as_array() - beta_ref)) < 1e-6

    @pytest.mark.parametrize("seed,sens,spec", [
        (11, 0.8, 0.8), (12, 0.9, 0.8), (13, 1.0, 0.9), (14, 0.8, 1.0),
    ])
    def test_monotone_loglik(self, seed, sens, spec):
        data = sim_dataset(seed, n_per_arm=60, sens=sens, spec=spec)
        res = fit(data, diag(sens, spec, known=False))
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
        res2 = one_em_map(data, diag(0.85, 0.9, known=False), warm=res)
        delta = np.max(np.abs(res2.theta_hat.as_array() - res.theta_hat.as_array()))
        assert delta < 10 * math.sqrt(em.TOL_LOGLIK)

    def test_initialization_invariance(self):
        data = sim_dataset(17, n_per_arm=80, sens=0.9, spec=0.9)
        d = diag(0.9, 0.9, known=False)
        res_a = fit(data, d)
        seed_state = one_em_map(data, d)
        perturbed = replace(
            seed_state,
            theta_hat=EffectParams(*(seed_state.theta_hat.as_array()
                                     + np.array([0.05, -0.04, 0.03]))),
        )
        res_b = lane_fit(data, d, warm=perturbed)
        assert np.max(np.abs(res_a.theta_hat.as_array()
                             - res_b.theta_hat.as_array())) < 1e-4

    def test_all_missing_unsupervised_mixture_runs(self):
        base = sim_dataset(18, n_per_arm=50, sens=0.9, spec=0.9)
        data = Dataset(base.time, base.event, base.treatment, np.full(len(base), -1))
        res = fit(data, diag(0.9, 0.9, known=False), max_iter=5000)
        assert 0.01 <= res.pi_hat <= 0.99

    def test_max_iter_reported(self):
        data = sim_dataset(19, n_per_arm=50, sens=0.8, spec=0.8)
        with pytest.raises(ConvergenceError, match="did not converge within 2 iterations"):
            fit(data, diag(known=False), max_iter=2)

    def test_fit_records_its_cap(self):
        # every analysis of the fit refits under the cap it was fitted with
        data = sim_dataset(19, n_per_arm=50, sens=0.8, spec=0.8)
        assert fit(data, diag(known=False)).max_iter == em.MAX_ITER
        assert fit(data, diag(known=False), max_iter=700).max_iter == 700

    def test_cap_below_two_rejected(self):
        # convergence compares two maps' log-likelihoods, so a cap of 1
        # could only ever fail
        data = sim_dataset(19, n_per_arm=50, sens=0.8, spec=0.8)
        for cap in (0, 1):
            with pytest.raises(DatasetError, match="at least 2"):
                fit(data, diag(known=False), max_iter=cap)

    def test_weights_are_the_posterior_at_the_fit(self):
        # cold fits, pinned ones and warm refits: the weights are the
        # E-step at the returned state, not the one that fed the last
        # M-step (up to ~1e-5 apart), and the log-likelihood is its value
        for data, d, warm, fixed in fit_cases():
            res = lane_fit(data, d, fixed, warm)
            ll, w = em._e_pass(res._workspace,
                               state_of(res.theta_hat, res.baseline, res.pi_hat), d)
            assert np.array_equal(res.weights, w)
            assert ll == res.obs_loglik

    def test_fixed_parameters_stay_fixed(self):
        data = sim_dataset(20, n_per_arm=60, sens=0.9, spec=0.9)
        res = lane_fit(data, diag(0.9, 0.9), {"gamma": 0.25})
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

    def test_warm_refit_reuses_workspace_of_same_dataset_only(self):
        data = sim_dataset(21, n_per_arm=60, sens=0.85, spec=0.8)
        twin = Dataset(data.time, data.event, data.treatment, data.test)
        d = diag(0.85, 0.8, known=False)
        base = fit(data, d)
        fixed = {"gamma": 0.0}
        reused = lane_fit(data, d, fixed, base)
        assert reused._workspace is base._workspace
        # an equal but distinct Dataset object gets its own workspace
        own = lane_fit(twin, d, fixed, base)
        assert own._workspace is not base._workspace
        assert own.data is twin
        fresh = lane_fit(data, d, fixed, replace(base, _workspace=None))
        assert fresh._workspace is not base._workspace
        for res in (own, fresh):
            assert res.iterations == reused.iterations
            assert res.pi_hat == reused.pi_hat
            for got, want in (
                (res.theta_hat.as_array(), reused.theta_hat.as_array()),
                (res.baseline.increments, reused.baseline.increments),
                (res.weights, reused.weights),
                (res.loglik_trace, reused.loglik_trace),
            ):
                assert np.array_equal(got, want)

    def test_result_records_its_data_and_model(self):
        # every analysis of a fit reads the trial and the diagnostic model
        # from it; the Dataset is left out of the repr
        data = sim_dataset(22, n_per_arm=30, sens=0.9, spec=0.9)
        d = diag(0.9, 0.9)
        res = fit(data, d)
        assert res.data is data
        assert res.diag is d
        assert "Dataset" not in repr(res)
        assert repr(d) in repr(res)

    def test_workspace_is_not_part_of_the_result(self):
        data = sim_dataset(22, n_per_arm=30, sens=0.9, spec=0.9)
        res = fit(data, diag(0.9, 0.9))
        assert res._workspace is not None
        assert "_workspace" not in repr(res)
        assert "Workspace" not in repr(res)
        other = fit(Dataset(data.time, data.event, data.treatment, data.test),
                    diag(0.9, 0.9))
        assert replace(res, _workspace=other._workspace) == res
        assert replace(res, _workspace=None) == res


class TestProperties:
    @settings(max_examples=60)
    @given(small_trials(), accuracies, accuracies, st.floats(0.1, 0.9), st.booleans())
    @example(Dataset([1.0] * 5, [1, 0, 0, 0, 1], [0, 0, 0, 1, 1], [-1, 0, 1, 1, 1]),
             1.0, 0.75, 0.5, False).xfail(
        raises=ConvergenceError,
        reason="a known defect (ROADMAP items 1(a), 3): the fit crawls along a "
               "separating ridge for 379 maps and is not flagged as separated")
    def test_posteriors_in_unit_interval_and_ascent(self, data, sens, spec, pi, known):
        try:
            res = fit(data, diag(sens, spec, pi, known), max_iter=300)
        except (SeparationError, DegenerateDataError):
            return
        w = res.weights
        assert np.all((w >= 0) & (w <= 1))
        assert np.diff(res.loglik_trace).min(initial=0.0) >= -1e-9

    @settings(max_examples=40)
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

    @settings(max_examples=60)
    @given(small_trials(), accuracies, accuracies, st.floats(0.1, 0.9), st.booleans())
    def test_accelerated_cold_fit_not_below_plain_em(self, data, sens, spec, pi,
                                                     known):
        # the extrapolation must not carry a cold fit to a lower branch
        # than the one plain EM climbs from the same start
        d = diag(sens, spec, pi, known)
        try:
            res = fit(data, d)
            _, trace = plain_em(data, d, start_state(data, d, None, {}),
                                np.ones(3, dtype=bool))
        except (SeparationError, DegenerateDataError):
            return
        assert res.obs_loglik >= trace[-1] - 1e-8


def stack_lanes(center, pi_held):
    """Lanes of one stack around the fit ``center``: two with pinned
    coefficients, one with the prevalence held at ``pi_held``, the
    gamma = 0 null, and last one pinned far enough out to separate on the
    golden trial."""
    return [{"beta1": center[0] + 0.1},
            {"beta2": center[1] - 0.2, "gamma": center[2] + 0.1},
            {"pi": pi_held},
            {"gamma": 0.0},
            {"beta1": -20.0}]


def lane_values(res):
    """(theta, hazard increments, pi, weights, loglik trace, map count) of
    a lane of ``em._fit_lanes`` or of a FitResult."""
    if isinstance(res, em.FitResult):
        return (res.theta_hat.as_array(), res.baseline.increments, res.pi_hat,
                res.weights, res.loglik_trace, res.iterations)
    return tuple(res[:-1])


def assert_same_lanes(got, want):
    """Each lane bitwise equal: theta, baseline, prevalence, weights,
    trace and map count, or the same exception."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, Exception):
            assert type(a) is type(b) and a.args == b.args
            continue
        for x, y in zip(lane_values(a), lane_values(b)):
            assert np.array_equal(x, y)


class TestLockstepLanes:
    """Refits stacked as lanes of one EM match their one-lane refits bit
    for bit: every reduction of the kernels runs along a lane's own axis
    (a pairwise sum along the last axis, ``np.vecdot`` or a batched matrix
    product per lane), so none needs a tolerance."""

    def test_golden_stack(self):
        data = parse_dataset(Path(__file__).parent / "data" / "golden_trial.csv")
        d = diag(0.9, 0.85, 0.5, known=False)
        base = fit(data, d)
        lanes = stack_lanes(base.theta_hat.as_array(), 0.3)
        stacked = em._fit_lanes(data, d, lanes, warm=base)
        assert isinstance(stacked[-1], SeparationError)
        assert all(isinstance(r, em._Lane) for r in stacked[:-1])
        assert_same_lanes(stacked, [em._fit_lanes(data, d, [lane], warm=base)[0]
                                    for lane in lanes])
        # the separating lane's exit leaves the others as they were
        assert_same_lanes(em._fit_lanes(data, d, lanes[:-1], warm=base), stacked[:-1])
        # a lane that holds the prevalence holds it exactly: it is never
        # round-tripped through its logit
        assert stacked[2].pi == 0.3
        # fit() is the stack of one lane that pins nothing
        assert_same_lanes([fit(data, d)], em._fit_lanes(data, d, [{}]))

    @settings(max_examples=40, deadline=None)
    @given(small_trials(), accuracies, accuracies, st.floats(0.1, 0.9), st.booleans())
    def test_lanes_match_one_lane_refits(self, data, sens, spec, pi, cold):
        d = diag(sens, spec, pi, known=False)
        try:
            base = fit(data, d)
        except (SeparationError, DegenerateDataError):
            return
        lanes = stack_lanes(base.theta_hat.as_array(), pi)
        warm = None if cold else base
        stacked = em._fit_lanes(data, d, lanes, warm=warm)
        assert_same_lanes(stacked, [em._fit_lanes(data, d, [lane], warm=warm)[0]
                                    for lane in lanes])
        assert_same_lanes(em._fit_lanes(data, d, lanes[:-1], warm=warm), stacked[:-1])
