import math

import numpy as np
import pytest
from helpers import oracle_breslow_cumhaz, oracle_cox, random_rows, sim_dataset

from mixcox import (
    RowData,
    SeparationError,
    breslow_baseline,
    fit_weighted_cox,
    weighted_partial_loglik,
)
from mixcox.cox import GRAD_TOL, check_separation


def one_covariate_rows(time, event, weight, cov):
    """A RowData with a single covariate column and no offsets."""
    return RowData(time, event, weight, np.asarray(cov, dtype=float)[:, None])


def solve(rd, free_mask=None):
    """Maximize by repeating the safeguarded Newton step from its own
    output until the gradient max-norm is below GRAD_TOL, the loglik
    changes by at most 1e-12 relative, or a step fails (at most 50
    steps), then apply the separation check to the final coefficients,
    as ``em.fit`` does."""
    fit = fit_weighted_cox(rd, free_mask=free_mask)
    for _ in range(49):
        if fit.gradient_norm < GRAD_TOL or not fit.converged:
            break
        prev = fit.loglik
        fit = fit_weighted_cox(rd, init_beta=fit.beta, free_mask=free_mask)
        if abs(fit.loglik - prev) <= 1e-12 * (1.0 + abs(prev)):
            break
    check_separation(fit.beta)
    return fit


def expand_observed(data):
    """Degenerate expansion: weight 1 on the row matching the observed
    test result, 0 on the other; equivalent to a plain (x, v, x*v) fit."""
    n = len(data)
    x = data.treatment.astype(float)
    v = data.test.astype(float)
    cov = np.zeros((2 * n, 3))
    cov[:n, 0] = x
    cov[:n, 1] = 1.0
    cov[:n, 2] = x
    cov[n:, 0] = x
    return RowData(
        np.concatenate([data.time, data.time]),
        np.concatenate([data.event, data.event]),
        np.concatenate([v, 1.0 - v]),
        cov,
    )


class TestPartialLoglik:
    def test_single_event_row_is_zero(self):
        rows = one_covariate_rows([1.0], [1], [1.0], [0.0])
        value, grad, hess = weighted_partial_loglik(rows, np.zeros(1))
        assert value == 0.0

    def test_two_at_risk_one_event(self):
        rows = one_covariate_rows([1.0, 2.0], [1, 0], [1.0, 1.0], [0.5, -0.5])
        value, _, _ = weighted_partial_loglik(rows, np.zeros(1))
        assert value == pytest.approx(-math.log(2), abs=1e-12)

    def test_ties_share_risk_set(self):
        # a subject whose time equals the event time is at risk there
        rows = one_covariate_rows([1.0, 1.0, 1.0], [1, 0, 1], [1.0, 1.0, 1.0],
                                  [0.0, 0.0, 0.0])
        value, _, _ = weighted_partial_loglik(rows, np.zeros(1))
        assert value == pytest.approx(-2 * math.log(3), abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        rd = random_rows(rng, n=20)
        beta = rng.normal(0, 0.4, 3)
        value, grad, _ = weighted_partial_loglik(rd, beta)
        h = 1e-6
        for k in range(3):
            up, dn = beta.copy(), beta.copy()
            up[k] += h
            dn[k] -= h
            fd = (weighted_partial_loglik(rd, up)[0]
                  - weighted_partial_loglik(rd, dn)[0]) / (2 * h)
            assert grad[k] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("seed", range(4))
    def test_hessian_matches_gradient_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        rd = random_rows(rng, n=25)
        beta = rng.normal(0, 0.4, 3)
        _, _, hess = weighted_partial_loglik(rd, beta)
        h = 1e-5
        for k in range(3):
            up, dn = beta.copy(), beta.copy()
            up[k] += h
            dn[k] -= h
            fd = (weighted_partial_loglik(rd, up)[1]
                  - weighted_partial_loglik(rd, dn)[1]) / (2 * h)
            assert np.allclose(hess[:, k], fd, rtol=1e-4, atol=1e-6)

    def test_hessian_symmetric_negative_semidefinite(self):
        rng = np.random.default_rng(7)
        rd = random_rows(rng, n=40)
        _, _, hess = weighted_partial_loglik(rd, rng.normal(0, 0.5, 3))
        assert np.allclose(hess, hess.T)
        assert np.all(np.linalg.eigvalsh(hess) <= 1e-10)


class TestFit:
    def test_degenerate_weights_match_plain_cox(self):
        data = sim_dataset(3, n_per_arm=80, sens=1.0, spec=1.0)
        rd = expand_observed(data)
        fit = solve(rd)
        assert fit.converged
        x = data.treatment.astype(float)
        v = data.test.astype(float)
        design = np.column_stack([x, v, x * v])
        beta_ref, _ = oracle_cox(data.time, data.event, design)
        assert np.max(np.abs(fit.beta - beta_ref)) < 1e-8

    def test_loglik_never_below_init(self):
        rng = np.random.default_rng(11)
        rd = random_rows(rng, n=60)
        bad_init = np.array([2.0, -2.0, 1.5])
        init_value, _, _ = weighted_partial_loglik(rd, bad_init)
        fit = fit_weighted_cox(rd, init_beta=bad_init)
        assert fit.loglik >= init_value

    def test_converged_gradient_small(self):
        rng = np.random.default_rng(12)
        rd = random_rows(rng, n=50)
        fit = solve(rd)
        assert fit.converged
        assert fit.gradient_norm < 1e-8

    def test_separation_raises(self):
        # events only in the x=0 arm: the coefficient runs to -infinity
        rows = one_covariate_rows(np.arange(1.0, 11.0), [1] * 5 + [0] * 5,
                                  np.ones(10), [0.0] * 5 + [1.0] * 5)
        with pytest.raises(SeparationError):
            solve(rows)

    def test_profile_via_offset_matches_full_fit(self):
        data = sim_dataset(5, n_per_arm=60, sens=0.9, spec=0.9)
        rd = expand_observed(data)
        full = solve(rd)
        gamma_hat = full.beta[2]
        offset_rd = RowData(
            rd.time, rd.event, rd.weight, rd.covariates,
            offset=gamma_hat * rd.covariates[:, 2],
        )
        part = solve(offset_rd, free_mask=[True, True, False])
        assert abs(part.loglik - full.loglik) < 1e-8
        assert np.allclose(part.beta, full.beta[:2], atol=1e-7)

    def test_no_free_columns(self):
        rng = np.random.default_rng(13)
        rd = random_rows(rng, n=30)
        fit = fit_weighted_cox(rd, free_mask=[False, False, False])
        ref, _, _ = weighted_partial_loglik(rd, np.zeros(3))
        assert fit.converged
        assert fit.beta.size == 0
        assert fit.loglik == pytest.approx(ref)


class TestBreslow:
    def test_single_event_unit_risks(self):
        # both latent copies of an event subject carry the event indicator
        rows = one_covariate_rows([2.0, 2.0, 3.0, 3.0], [1, 1, 0, 0],
                                  [0.7, 0.3, 0.6, 0.4], np.zeros(4))
        # pairs sum to one subject each: weighted event count 1, risk sum 2
        bl = breslow_baseline(rows, np.zeros(1))
        assert bl.increments[0] == pytest.approx(1.0 / (2.0 * 2.0), abs=1e-12)
        assert bl.cumulative(2.0) == pytest.approx(0.5, abs=1e-12)

    def test_duplication_invariance(self):
        rng = np.random.default_rng(21)
        rd = random_rows(rng, n=30)
        beta = rng.normal(0, 0.3, 3)
        bl1 = breslow_baseline(rd, beta)
        doubled = RowData(
            np.concatenate([rd.time, rd.time]),
            np.concatenate([rd.event, rd.event]),
            np.concatenate([rd.weight / 2, rd.weight / 2]),
            np.concatenate([rd.covariates, rd.covariates]),
            np.concatenate([rd.offset, rd.offset]),
        )
        bl2 = breslow_baseline(doubled, beta)
        assert np.allclose(bl1.increments, bl2.increments, rtol=1e-12)

    def test_perfect_weights_match_oracle(self):
        data = sim_dataset(8, n_per_arm=70, sens=1.0, spec=1.0)
        rd = expand_observed(data)
        fit = solve(rd)
        beta_full = fit.beta
        bl = breslow_baseline(rd, beta_full)
        x = data.treatment.astype(float)
        v = data.test.astype(float)
        design = np.column_stack([x, v, x * v])
        ref = oracle_breslow_cumhaz(data.time, data.event, design, beta_full)
        for tj, h_ref in ref.items():
            assert bl.cumulative(tj) == pytest.approx(h_ref, abs=1e-8)

    def test_offset_shift_invariance(self):
        rng = np.random.default_rng(22)
        rd = random_rows(rng, n=40)
        beta = rng.normal(0, 0.3, 3)
        shift = 0.8
        shifted = RowData(rd.time, rd.event, rd.weight, rd.covariates,
                          rd.offset + shift)
        bl0 = breslow_baseline(rd, beta)
        bl1 = breslow_baseline(shifted, beta)
        # increments scale by exp(-shift); H0(t) * exp(eta) is invariant
        eta0 = rd.covariates @ beta + rd.offset
        eta1 = eta0 + shift
        prod0 = bl0.cumulative(rd.time) * np.exp(eta0)
        prod1 = bl1.cumulative(rd.time) * np.exp(eta1)
        assert np.allclose(prod0, prod1, rtol=1e-12)


class TestCumulativeHazard:
    def test_examples(self):
        rows = one_covariate_rows([2.0, 2.0], [1, 0], [1.0, 1.0], [0.0, 0.0])
        bl = breslow_baseline(rows, np.zeros(1))
        assert bl.increments[0] == pytest.approx(0.25)
        assert bl.cumulative(0.0) == 0.0
        assert bl.cumulative(1.0) == pytest.approx(0.25)  # interpolated
        assert bl.cumulative(2.0) == pytest.approx(0.5)
        assert bl.cumulative(50.0) == pytest.approx(0.5)  # flat
