"""EM estimation of the mixture-of-Cox subgroup model.

True biomarker status is latent; the E-step computes each subject's
posterior probability of being truly positive given the current parameter
estimates and the observed data, and the M-step fits a weighted Cox model
on the two-row-per-subject expansion followed by the weighted baseline
update.  When the prevalence is unknown it is re-estimated each iteration
as the mean posterior weight, and the predictive values are refreshed
from it.

Likelihood evaluations inside the estimator use the jump-form cumulative
hazard (all of an interval's mass at its event time,
:meth:`BaselineHazard.step_cumulative`).  Under that form the M-step is
the exact joint maximizer of the expected complete-data log-likelihood,
so the observed log-likelihood is nondecreasing across iterations, which
is also the convergence monitor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, logit

from . import cox
from .model import (
    BaselineHazard,
    Dataset,
    DiagnosticModel,
    EffectParams,
    TEST_MISSING,
    npv,
    ppv,
)

__all__ = ["EmConfig", "FitResult", "fit"]

PARAM_NAMES = ("beta1", "beta2", "gamma")
# estimated prevalences are clipped to [floor, 1 - floor]
PREVALENCE_FLOOR = 0.01
# the loop stops once the observed log-likelihood changes by less than this
TOL_LOGLIK = 1e-8


@dataclass(frozen=True)
class EmConfig:
    """EM control knob: the iteration cap."""

    max_iter: int = 2000

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class FitResult:
    """Converged (or stopped) EM state plus diagnostics."""

    theta_hat: EffectParams
    baseline: BaselineHazard
    pi_hat: float
    weights: np.ndarray  # posterior P(true positive) per subject
    obs_loglik: float
    iterations: int
    converged: bool
    loglik_trace: np.ndarray = field(default=None, repr=False)


class _Workspace:
    """Precomputed structures shared by every EM iteration of one fit."""

    def __init__(self, data: Dataset):
        n = self.n = len(data)
        self.t = data.time
        self.d = data.event.astype(float)
        self.x = data.treatment.astype(float)
        self.v = data.test
        # two-row-per-subject expansion: block 0 = latent positive (z=1),
        # block 1 = latent negative (z=0)
        cov = np.zeros((2 * n, 3))
        cov[:n, 0] = self.x
        cov[:n, 1] = 1.0
        cov[:n, 2] = self.x
        cov[n:, 0] = self.x
        self.rowdata = cox.RowData(
            np.concatenate([self.t, self.t]),
            np.concatenate([data.event, data.event]),
            np.full(2 * n, 0.5),
            cov,
        )
        # per-subject lookups into the distinct event times
        ets = self.rowdata.ets
        self.m = ets.size
        self.ev_interval = np.searchsorted(ets, self.t, side="left")
        self.n_events_le = np.searchsorted(ets, self.t, side="right")

    def step_cum(self, baseline: BaselineHazard) -> np.ndarray:
        """Jump-form cumulative hazard at each subject's time."""
        return baseline._cum_at_events[self.n_events_le]

    def log_hazard_at_events(self, baseline: BaselineHazard) -> np.ndarray:
        """log h0(t_i), valid where event == 1 (arbitrary elsewhere)."""
        padded = np.concatenate((baseline.increments, [1.0]))
        return np.log(padded[np.minimum(self.ev_interval, self.m)])

    def etas(self, theta: EffectParams):
        eta1 = theta.beta1 * self.x + theta.beta2 + theta.gamma * self.x
        eta0 = theta.beta1 * self.x
        return eta1, eta0

    def rows(self, w: np.ndarray, offsets: np.ndarray) -> cox.RowData:
        """The expansion weighted by ``w`` (positive block) and ``1 - w``."""
        rd = self.rowdata.with_weights(np.concatenate([w, 1.0 - w]))
        rd.offset = offsets
        return rd


def _prior_logits(ws: _Workspace, diag: DiagnosticModel) -> np.ndarray:
    """logit of the prior positive probability per observed test result."""
    p_pos = ppv(diag)
    p_neg = 1.0 - npv(diag)
    with np.errstate(divide="ignore"):
        return np.where(
            ws.v == 1,
            logit(p_pos),
            np.where(ws.v == 0, logit(p_neg), logit(diag.prevalence)),
        )


def _posterior(ws, theta, baseline, diag) -> np.ndarray:
    """E-step: posterior probability of true positive status per subject.

    The prior odds come from the predictive values (or the prevalence for
    subjects without a test result); the likelihood ratio of the two
    latent-status component likelihoods updates them.  Everything is
    computed on the log-odds scale.
    """
    h0 = ws.step_cum(baseline)
    eta1, eta0 = ws.etas(theta)
    # the h0(t)^delta factor cancels in the likelihood ratio and is omitted
    llr = ws.d * (theta.beta2 + theta.gamma * ws.x) - h0 * (np.exp(eta1) - np.exp(eta0))
    return expit(_prior_logits(ws, diag) + llr)


def _component_logliks(ws, theta, baseline):
    """(log L_pos, log L_neg) per subject, including the hazard factor."""
    h0 = ws.step_cum(baseline)
    logh = ws.log_hazard_at_events(baseline)
    eta1, eta0 = ws.etas(theta)
    la = ws.d * (logh + eta1) - h0 * np.exp(eta1)
    lb = ws.d * (logh + eta0) - h0 * np.exp(eta0)
    return la, lb


def _obs_loglik(ws, theta, baseline, diag) -> float:
    """Marginal log-likelihood of the observed data.

    With known prevalence each subject contributes the log of the mixture
    of component likelihoods weighted by the predictive values,
    conditional on the test result.  With unknown prevalence the test
    result's own probability enters, so the mixture weights become
    ``pi * sensitivity`` etc.  Those without a test result contribute
    the prevalence-weighted mixture either way.
    """
    la, lb = _component_logliks(ws, theta, baseline)
    pi = diag.prevalence
    se, sp = diag.sensitivity, diag.specificity
    with np.errstate(divide="ignore"):
        if diag.prevalence_known:
            p_pos = ppv(diag)
            p_neg = npv(diag)
            wa = np.where(
                ws.v == 1, np.log(p_pos),
                np.where(ws.v == 0, np.log1p(-p_neg), np.log(pi)),
            )
            wb = np.where(
                ws.v == 1, np.log1p(-p_pos),
                np.where(ws.v == 0, np.log(p_neg), np.log1p(-pi)),
            )
        else:
            wa = np.where(
                ws.v == 1, np.log(pi * se),
                np.where(ws.v == 0, np.log(pi * (1 - se)), np.log(pi)),
            )
            wb = np.where(
                ws.v == 1, np.log((1 - pi) * (1 - sp)),
                np.where(ws.v == 0, np.log((1 - pi) * sp), np.log1p(-pi)),
            )
    return float(np.sum(np.logaddexp(wa + la, wb + lb)))


def _update_prevalence(w: np.ndarray) -> float:
    """Mean posterior weight, clipped away from the boundary."""
    return float(np.clip(np.mean(w), PREVALENCE_FLOOR, 1.0 - PREVALENCE_FLOOR))


def _offsets_for(ws, fixed: dict[str, float]) -> np.ndarray:
    off = np.zeros(2 * ws.n)
    for k, name in enumerate(PARAM_NAMES):
        if name in fixed:
            off += fixed[name] * ws.rowdata.covariates[:, k]
    return off


def _m_step(ws, w, offsets, mask, init_beta=None):
    """M-step: weighted Cox fit, then the baseline at the new coefficients.

    Expands each subject into its latent-positive row (posterior weight
    ``w``) and latent-negative row (complement), fits the weighted Cox
    model over the columns selected by ``mask``, and recomputes the
    baseline hazard.  Returns the full coefficient vector with masked
    components 0 (their contribution is in ``offsets``, one value per
    expanded row, positive block first) and the baseline.
    """
    rd = ws.rows(w, offsets)
    cox_fit = cox.fit_weighted_cox(rd, init_beta=init_beta, free_mask=mask)
    beta_full = np.zeros(3)
    beta_full[mask] = cox_fit.beta
    return beta_full, cox.breslow_baseline(rd, beta_full)


def _initial_state(ws, diag, fixed, offsets):
    se, sp = diag.sensitivity, diag.specificity
    if diag.prevalence_known:
        pi = diag.prevalence
    else:
        # method-of-moments inversion of the observed positive fraction
        observed = ws.v != TEST_MISSING
        v_bar = float(np.mean(ws.v[observed] == 1)) if np.any(observed) else 0.5
        pi = float(np.clip((v_bar + sp - 1) / (se + sp - 1),
                           PREVALENCE_FLOOR, 1.0 - PREVALENCE_FLOOR))
    d0 = diag.with_prevalence(pi)
    prior = expit(_prior_logits(ws, d0))
    rd = ws.rows(prior, offsets)
    theta0 = np.zeros(3)
    for k, name in enumerate(PARAM_NAMES):
        theta0[k] = fixed.get(name, 0.0)
    # null baseline: theta at zero apart from the offset contribution
    baseline = cox.breslow_baseline(rd, np.zeros(3))
    return EffectParams.from_array(theta0), baseline, pi


def fit(data: Dataset, diag: DiagnosticModel, config: EmConfig = EmConfig(),
        *, fixed: dict[str, float] | None = None,
        warm: FitResult | None = None) -> FitResult:
    """Run the EM loop to convergence of the observed log-likelihood.

    Parameters
    ----------
    data, diag : the trial and the diagnostic-test model.  When
        ``diag.prevalence_known`` is False the prevalence is estimated.
    config : EmConfig
        Iteration cap.  The loop stops once the observed log-likelihood
        changes by less than TOL_LOGLIK.  An estimated prevalence is
        clipped to [PREVALENCE_FLOOR, 1 - PREVALENCE_FLOOR].
    fixed : mapping, optional
        Coefficients to hold fixed by name ("beta1", "beta2", "gamma"),
        each contributing through row offsets only; this is the profiling
        hook used by the confidence-interval machinery.
    warm : FitResult, optional
        Start from a previous fit's state instead of the default
        deterministic initialization (useful when profiling near the MLE).

    Returns
    -------
    FitResult
        With ``converged`` False when the iteration cap was reached; the
        per-iteration observed log-likelihood is in ``loglik_trace``.
    """
    fixed = dict(fixed) if fixed else {}
    unknown = set(fixed) - set(PARAM_NAMES)
    if unknown:
        raise ValueError(f"unknown fixed parameter(s): {sorted(unknown)}")
    ws = _Workspace(data)
    mask = np.array([name not in fixed for name in PARAM_NAMES])
    off = _offsets_for(ws, fixed)

    if warm is not None:
        theta_arr = warm.theta_hat.as_array()
        for k, name in enumerate(PARAM_NAMES):
            if name in fixed:
                theta_arr[k] = fixed[name]
        theta = EffectParams.from_array(theta_arr)
        baseline = warm.baseline
        pi = warm.pi_hat if not diag.prevalence_known else diag.prevalence
    else:
        theta, baseline, pi = _initial_state(ws, diag, fixed, off)

    trace = []
    ll_prev = -np.inf
    converged = False
    it = 0
    w = None
    for it in range(1, config.max_iter + 1):
        w = _posterior(ws, theta, baseline, diag.with_prevalence(pi))
        beta_full, baseline = _m_step(ws, w, off, mask, theta.as_array()[mask])
        beta_full[~mask] = [fixed[PARAM_NAMES[k]] for k in np.flatnonzero(~mask)]
        theta = EffectParams.from_array(beta_full)
        if not diag.prevalence_known:
            pi = _update_prevalence(w)
        ll = _obs_loglik(ws, theta, baseline, diag.with_prevalence(pi))
        trace.append(ll)
        if abs(ll - ll_prev) < TOL_LOGLIK:
            converged = True
            break
        ll_prev = ll

    return FitResult(
        theta_hat=theta,
        baseline=baseline,
        pi_hat=pi,
        weights=w,
        obs_loglik=trace[-1],
        iterations=it,
        converged=converged,
        loglik_trace=np.array(trace),
    )
