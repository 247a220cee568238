import math

import numpy as np
import pytest
from helpers import (
    expanded_loglik,
    oracle_breslow_cumhaz,
    oracle_cox,
    random_subjects,
    sim_dataset,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixcox import BaselineHazard, SeparationError, cox
from mixcox.cox import (
    GRAD_TOL,
    LOGLIK_RTOL,
    RiskSets,
    RiskSums,
    _loglik_parts,
    breslow_baseline,
    check_separation,
    fit_weighted_cox,
)

ALL_FREE = np.ones(3, dtype=bool)


def loglik(rs, w, theta):
    """(value, gradient, Hessian) of the kernel."""
    return _loglik_parts(RiskSums(rs, w), np.asarray(theta, dtype=float))


def step(rs, w, theta, free):
    """One safeguarded Newton step on weights ``w``; raises the failure
    of a failed step."""
    fit = fit_weighted_cox(RiskSums(rs, w), theta, free)
    if fit.errors:
        raise fit.errors[0]
    return fit


def baseline(rs, w, theta):
    """The Breslow baseline hazard on weights ``w``."""
    return BaselineHazard(rs.ets, breslow_baseline(RiskSums(rs, w), theta))


def random_case(rng, n):
    """A random layout and its weights."""
    time, event, x, w = random_subjects(rng, n)
    return RiskSets(time, event, x), w


def solve(rs, w, theta=(0.0, 0.0, 0.0), free=ALL_FREE):
    """Maximize by repeating the safeguarded Newton step from its own
    output until the gradient max-norm of the free components at the
    returned coefficients is below GRAD_TOL, the loglik changes by at
    most 1e-12 relative, or a step fails (at most 50 steps), then apply
    the separation check to the final free coefficients, as ``em.fit``
    does."""
    free = np.asarray(free, dtype=bool)
    fit = step(rs, w, theta, free)
    for _ in range(49):
        grad = loglik(rs, w, fit.beta)[1]
        if np.max(np.abs(grad[free]), initial=0.0) < GRAD_TOL or not fit.converged:
            break
        prev = fit.loglik
        fit = step(rs, w, fit.beta, free)
        if abs(fit.loglik - prev) <= 1e-12 * (1.0 + abs(prev)):
            break
    check_separation(fit.beta[free])
    return fit


def observed(data):
    """Degenerate weights: 1 for an observed positive test, 0 otherwise;
    equivalent to a plain (x, v, x*v) fit."""
    return (RiskSets(data.time, data.event, data.treatment),
            (data.test == 1).astype(float))


def plain_design(data):
    x = data.treatment.astype(float)
    v = data.test.astype(float)
    return np.column_stack([x, v, x * v])


@st.composite
def weighted_trials(draw):
    """Up to 25 subjects on four tied times with at least one event;
    weights exactly 0 or 1, or anywhere in between; coefficients in
    [-3, 3]."""
    n = draw(st.integers(1, 25))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    time = column(st.integers(1, 4))
    event = column(st.integers(0, 1))
    event[0] = 1
    x = column(st.integers(0, 1))
    w = column(st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)))
    theta = draw(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
    return time, event, x, w, theta


@st.composite
def extreme_trials(draw):
    """Up to 25 subjects on three tied times with at least one event;
    weights exactly 0, exactly 1, 1 - 1e-12 or anywhere in between;
    coefficients in [-20, 20]."""
    n = draw(st.integers(1, 25))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    time = column(st.integers(1, 3))
    event = column(st.integers(0, 1))
    event[0] = 1
    x = column(st.integers(0, 1))
    w = column(st.one_of(st.sampled_from((0.0, 1.0, 1.0 - 1e-12)),
                         st.floats(0.0, 1.0)))
    theta = draw(st.lists(st.floats(-20.0, 20.0), min_size=3, max_size=3))
    return time, event, x, w, theta


class TestPartialLoglik:
    def test_single_event_row_is_zero(self):
        value, _, _ = loglik(RiskSets([1.0], [1], [0]), [1.0], np.zeros(3))
        assert value == 0.0

    def test_two_at_risk_one_event(self):
        value, _, _ = loglik(RiskSets([1.0, 2.0], [1, 0], [1, 0]),
                             [1.0, 1.0], np.zeros(3))
        assert value == pytest.approx(-math.log(2), abs=1e-12)

    def test_ties_share_risk_set(self):
        # a subject whose time equals the event time is at risk there
        value, _, _ = loglik(RiskSets([1.0, 1.0, 1.0], [1, 0, 1], [0, 0, 0]),
                             [1.0, 1.0, 1.0], np.zeros(3))
        assert value == pytest.approx(-2 * math.log(3), abs=1e-12)

    @settings(max_examples=200)
    @given(weighted_trials())
    # heavy ties: every subject at one time
    @example(([2] * 6, [1, 0, 1, 1, 0, 1], [0, 1, 1, 0, 1, 0],
              [0.3, 0.9, 0.1, 0.5, 0.7, 0.2], [0.4, -0.7, 1.1]))
    # weights exactly 0 and 1
    @example(([1, 2, 2, 3, 4, 4], [1, 1, 0, 1, 1, 0], [0, 1, 0, 1, 1, 0],
              [0.0, 1.0, 1.0, 0.0, 1.0, 0.0], [-0.5, 0.8, 0.3]))
    # a single treated subject at risk at the last event time
    @example(([1, 2, 3, 4], [1, 1, 0, 1], [0, 1, 0, 1],
              [0.6, 0.2, 0.9, 0.3], [0.2, 0.5, -1.2]))
    def test_matches_expanded_reference(self, case):
        time, event, x, w, theta = case
        got = loglik(RiskSets(time, event, x), w, theta)
        ref = expanded_loglik(time, event, x, w, theta)
        for g, r in zip(got, ref):
            scale = max(1.0, float(np.max(np.abs(r))))
            assert np.max(np.abs(np.asarray(g) - r)) <= 1e-10 * scale

    @settings(max_examples=300)
    @given(extreme_trials())
    # weights just below 1 where the latent-negative rows carry the risk
    # sets: a count minus a weight sum would cancel there
    @example(([1, 1, 2, 2, 3], [1, 0, 1, 1, 0], [0, 1, 1, 0, 1],
              [1.0 - 1e-12] * 5, [0.0, -20.0, 0.0]))
    @example(([2] * 8, [1, 1, 0, 1, 0, 1, 1, 0], [0, 1, 1, 0, 1, 0, 1, 1],
              [1.0 - 1e-12, 0.0, 1.0, 1.0 - 1e-12, 1.0, 0.0, 0.5, 1.0],
              [20.0, -20.0, 20.0]))
    @example(([1, 2, 3, 3], [1, 1, 1, 0], [1, 1, 0, 0],
              [0.0, 0.0, 1.0, 1.0], [-20.0, 20.0, -20.0]))
    def test_per_arm_sums_match_expanded_reference(self, case):
        # the per-arm kernel against the explicit 2n-row expansion at
        # extreme weights and coefficients, heavy ties included
        time, event, x, w, theta = case
        got = loglik(RiskSets(time, event, x), w, theta)
        ref = expanded_loglik(time, event, x, w, theta)
        for g, r in zip(got, ref):
            scale = max(1.0, float(np.max(np.abs(r))))
            assert np.max(np.abs(np.asarray(g) - r)) <= 1e-10 * scale

    @pytest.mark.parametrize("seed", range(6))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        rs, w = random_case(rng, n=20)
        theta = rng.normal(0, 0.4, 3)
        _, grad, _ = loglik(rs, w, theta)
        h = 1e-6
        for k in range(3):
            up, dn = theta.copy(), theta.copy()
            up[k] += h
            dn[k] -= h
            fd = (loglik(rs, w, up)[0] - loglik(rs, w, dn)[0]) / (2 * h)
            assert grad[k] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("seed", range(4))
    def test_hessian_matches_gradient_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        rs, w = random_case(rng, n=25)
        theta = rng.normal(0, 0.4, 3)
        _, _, hess = loglik(rs, w, theta)
        h = 1e-5
        for k in range(3):
            up, dn = theta.copy(), theta.copy()
            up[k] += h
            dn[k] -= h
            fd = (loglik(rs, w, up)[1] - loglik(rs, w, dn)[1]) / (2 * h)
            assert np.allclose(hess[:, k], fd, rtol=1e-4, atol=1e-6)

    def test_hessian_symmetric_negative_semidefinite(self):
        rng = np.random.default_rng(7)
        rs, w = random_case(rng, n=40)
        _, _, hess = loglik(rs, w, rng.normal(0, 0.5, 3))
        assert np.allclose(hess, hess.T)
        assert np.all(np.linalg.eigvalsh(hess) <= 1e-10)


class TestFit:
    def test_degenerate_weights_match_plain_cox(self):
        data = sim_dataset(3, n_per_arm=80, sens=1.0, spec=1.0)
        fit = solve(*observed(data))
        assert fit.converged
        beta_ref, _ = oracle_cox(data.time, data.event, plain_design(data))
        assert np.max(np.abs(fit.beta - beta_ref)) < 1e-8

    def test_loglik_never_below_init(self):
        rng = np.random.default_rng(11)
        rs, w = random_case(rng, n=60)
        bad_init = np.array([2.0, -2.0, 1.5])
        init_value, _, _ = loglik(rs, w, bad_init)
        fit = step(rs, w, bad_init, ALL_FREE)
        assert fit.loglik >= init_value

    @pytest.mark.parametrize("drop,accepted", [(0.5, True), (4.0, False)])
    def test_rounding_level_drop_is_not_halved(self, monkeypatch, drop, accepted):
        # every trial point reads lower than the start by ``drop`` times
        # the rounding tolerance: within it the first trial is taken as
        # the full Newton step, beyond it every halving fails too
        rng = np.random.default_rng(14)
        rs, w = random_case(rng, n=40)
        theta = solve(rs, w).beta + 1e-3
        ll, grad, hess = loglik(rs, w, theta)
        kernel = cox._loglik_parts
        orders = []

        def lowered(sums, beta, order=2):
            orders.append(order)
            out = kernel(sums, beta, order)
            if order:
                return out
            return ll - drop * LOGLIK_RTOL * (1.0 + abs(ll)), None, None

        monkeypatch.setattr(cox, "_loglik_parts", lowered)
        fit = step(rs, w, theta, ALL_FREE)
        if accepted:
            assert orders == [2, 0]
            assert fit.converged and fit.iterations == 1
            assert np.array_equal(fit.beta, theta + np.linalg.solve(hess, -grad))
        else:
            assert orders == [2] + [0] * (1 + cox.MAX_HALVINGS)
            assert not fit.converged and fit.iterations == 0
            assert np.array_equal(fit.beta, theta)

    def test_risk_set_totals_are_those_of_the_returned_point(self, monkeypatch):
        # the step returns the risk-set totals s0 of each lane's returned
        # coefficients, from which the EM takes its Breslow increments: a
        # lane that steps, one that holds every coefficient and one whose
        # every trial point falls and so keeps its start
        rng = np.random.default_rng(15)
        rs, w1 = random_case(rng, n=40)
        w = np.stack([w1, rng.uniform(0.1, 0.9, w1.size), rng.uniform(0.1, 0.9, w1.size)])
        theta = np.array([[0.2, -0.1, 0.3], [0.5, 0.5, 0.5], [0.1, 0.2, -0.4]])
        free = np.array([[True] * 3, [False] * 3, [True] * 3])
        kernel = cox._loglik_parts

        def third_lane_falls(sums, beta, order=2):
            value, second, third = kernel(sums, beta, order)
            if order == 0:
                value = value - np.array([0.0, 0.0, 1.0])
            return value, second, third

        monkeypatch.setattr(cox, "_loglik_parts", third_lane_falls)
        sums = RiskSums(rs, w)
        fit = fit_weighted_cox(sums, theta, free)
        assert not np.array_equal(fit.beta[0], theta[0])
        assert np.array_equal(fit.beta[1:], theta[1:])
        assert np.array_equal(fit.s0, cox._risk_terms(sums, fit.beta)[1])

    def test_converged_gradient_small(self):
        rng = np.random.default_rng(12)
        rs, w = random_case(rng, n=50)
        fit = solve(rs, w)
        assert fit.converged
        _, grad, _ = loglik(rs, w, fit.beta)
        assert np.max(np.abs(grad)) < 1e-10

    def test_separation_raises(self):
        # events only in the x=0 arm: beta1 runs to -infinity
        rs = RiskSets(np.arange(1.0, 11.0), [1] * 5 + [0] * 5, [0] * 5 + [1] * 5)
        with pytest.raises(SeparationError):
            solve(rs, np.zeros(10), free=[True, False, False])

    def test_profile_with_fixed_gamma_matches_full_fit(self):
        data = sim_dataset(5, n_per_arm=60, sens=0.9, spec=0.9)
        rs, w = observed(data)
        full = solve(rs, w)
        part = solve(rs, w, theta=[0.0, 0.0, full.beta[2]],
                     free=[True, True, False])
        assert part.beta[2] == full.beta[2]
        assert abs(part.loglik - full.loglik) < 1e-8
        assert np.allclose(part.beta[:2], full.beta[:2], atol=1e-7)

    def test_no_free_columns(self):
        rng = np.random.default_rng(13)
        rs, w = random_case(rng, n=30)
        theta = np.array([0.3, -0.2, 0.1])
        fit = step(rs, w, theta, [False, False, False])
        ref, _, _ = loglik(rs, w, theta)
        assert fit.converged
        assert fit.iterations == 0
        assert np.array_equal(fit.beta, theta)
        assert fit.loglik == pytest.approx(ref)


class TestBreslow:
    def test_single_event_unit_risks(self):
        # an event subject at t=2 (w=0.7) and one censored at t=3 (w=0.6):
        # each subject's two rows sum to weight one, so the event count is
        # 1 and the risk sum 2
        bl = baseline(RiskSets([2.0, 3.0], [1, 0], [0, 0]),
                      np.array([0.7, 0.6]), np.zeros(3))
        assert bl.increments[0] == pytest.approx(1.0 / (2.0 * 2.0), abs=1e-12)
        assert bl.cumulative(2.0) == pytest.approx(0.5, abs=1e-12)

    def test_perfect_weights_match_oracle(self):
        data = sim_dataset(8, n_per_arm=70, sens=1.0, spec=1.0)
        rs, w = observed(data)
        fit = solve(rs, w)
        bl = baseline(rs, w, fit.beta)
        ref = oracle_breslow_cumhaz(data.time, data.event, plain_design(data),
                                    fit.beta)
        for tj, h_ref in ref.items():
            assert bl.cumulative(tj) == pytest.approx(h_ref, abs=1e-8)


class TestCumulativeHazard:
    def test_examples(self):
        bl = baseline(RiskSets([2.0, 2.0], [1, 0], [0, 0]),
                      np.ones(2), np.zeros(3))
        assert bl.increments[0] == pytest.approx(0.25)
        assert bl.cumulative(0.0) == 0.0
        assert bl.cumulative(1.0) == pytest.approx(0.25)  # interpolated
        assert bl.cumulative(2.0) == pytest.approx(0.5)
        assert bl.cumulative(50.0) == pytest.approx(0.5)  # flat
