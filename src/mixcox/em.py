"""EM estimation of the mixture-of-Cox subgroup model.

True biomarker status is latent; the E-step computes each subject's
posterior probability of being truly positive given the current parameter
estimates and the observed data, and the M-step takes a Newton step on
the weighted Cox partial likelihood of the two-row-per-subject expansion
followed by the weighted baseline update.  When the prevalence is unknown
it is re-estimated each iteration as the mean posterior weight, and the
predictive values are refreshed from it.

Likelihood evaluations inside the estimator use the jump-form cumulative
hazard (all of an interval's mass at its event time,
:meth:`BaselineHazard.step_cumulative`).  Under that form the expected
complete-data log-likelihood Q, profiled over the baseline, is the
weighted Cox partial log-likelihood, and the Breslow estimator is the
baseline that maximizes Q for fixed coefficients.  The M-step is
generalized (an EM-gradient step, Lange 1995, JRSS-B 57:425): one
safeguarded Newton step on the partial log-likelihood from the current
coefficients, halved until it does not fall, then the Breslow update.
Both parts raise Q or leave it unchanged, so, as for any generalized EM
(Meng & Rubin 1993, Biometrika 80:267), the observed log-likelihood is
nondecreasing across iterations; it is also the convergence monitor.
The EM-gradient algorithm has the same local convergence rate as EM with
the exact M-step, which would cost a Newton solve per iteration.

A warm-started fit (a refit from an earlier fit, as every profile
refit is) is accelerated by SQUAREM (Varadhan & Roland 2008, Scand. J.
Statist. 35:335) on the state vector (theta, log hazard increments,
logit prevalence when it is estimated).  Each cycle takes two EM maps
x0 -> x1 -> x2, jumps to the SqS3 extrapolation x' and takes one EM map
from x'.  That map is kept only if its observed log-likelihood is finite
and not below the one at x2; a jump whose map separates, degenerates or
overflows is rejected too, and the next cycle starts from x2.  The
accepted log-likelihoods are therefore nondecreasing, and a pinned
coefficient never moves.  A warm start already sits in EM's linear-rate
region, where the extrapolation is reliable; a cold fit runs plain EM.

A single step cannot tell a coefficient that has stabilized far out from
one still moving, so the quasi-separation check
(:func:`cox.check_separation`) is applied to the free coefficients at the
end of :func:`fit`; a runaway (beyond ``cox.SEPARATION_BOUND``) is caught
inside the step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, logit

from . import cox
from .errors import DatasetError, DegenerateDataError, SeparationError
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
        self.t = data.time
        self.d = data.event.astype(float)
        self.x = data.treatment.astype(float)
        self.v = data.test
        self.risk_sets = cox.RiskSets(self.t, data.event, self.x)
        # per-subject lookups into the distinct event times
        ets = self.risk_sets.ets
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


def _m_step(ws, w, theta, free):
    """Generalized M-step: one Newton step on the weighted Cox partial
    log-likelihood, then the baseline at the new coefficients.

    Each subject enters as a latent-positive row (posterior weight ``w``)
    and a latent-negative row (complement).  One safeguarded Newton step
    from the full coefficient vector ``theta`` moves the components
    selected by the boolean mask ``free`` (:func:`cox.fit_weighted_cox`:
    the step is halved until the partial log-likelihood does not fall);
    the others keep their values.  The Breslow baseline then maximizes
    the expected complete-data log-likelihood at the new coefficients, so
    the pair never lowers it.  Repeating the step from its own output
    converges to the exact M-step.  Returns the new coefficient vector and
    the baseline.
    """
    beta = cox.fit_weighted_cox(ws.risk_sets, w, theta, free).beta
    return beta, cox.breslow_baseline(ws.risk_sets, w, beta)


def _initial_state(ws, diag, fixed):
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
    # null start: free coefficients at zero, fixed ones at their values
    theta0 = np.array([fixed.get(name, 0.0) for name in PARAM_NAMES], dtype=float)
    baseline = cox.breslow_baseline(ws.risk_sets, prior, theta0)
    return EffectParams.from_array(theta0), baseline, pi


def _em_map(ws, diag, free, state):
    """One EM iteration from ``state`` = (theta, baseline, pi): the
    E-step, the generalized M-step and, when the prevalence is estimated,
    its update.  Returns the new state, the posterior weights it was
    computed from and the observed log-likelihood at the new state."""
    theta, baseline, pi = state
    w = _posterior(ws, theta, baseline, diag.with_prevalence(pi))
    beta, baseline = _m_step(ws, w, theta.as_array(), free)
    theta = EffectParams.from_array(beta)
    if not diag.prevalence_known:
        pi = _update_prevalence(w)
    ll = _obs_loglik(ws, theta, baseline, diag.with_prevalence(pi))
    return (theta, baseline, pi), w, ll


def _pack(state, diag) -> np.ndarray:
    """The EM state as one vector: theta, the log hazard increments and,
    when the prevalence is estimated, its logit."""
    theta, baseline, pi = state
    parts = [theta.as_array(), np.log(baseline.increments)]
    if not diag.prevalence_known:
        parts.append([logit(pi)])
    return np.concatenate(parts)


def _unpack(x, ws, diag):
    """Inverse of :func:`_pack`."""
    baseline = BaselineHazard(ws.risk_sets.ets, np.exp(x[3:3 + ws.m]))
    pi = diag.prevalence if diag.prevalence_known else float(expit(x[-1]))
    return EffectParams.from_array(x[:3]), baseline, pi


def _sqs3_point(x0, x1, x2):
    """SQUAREM extrapolation (Varadhan & Roland 2008, Scand. J. Statist.
    35:335) from two EM maps x0 -> x1 -> x2: x0 - 2 alpha r + alpha^2 v
    with r = x1 - x0, v = x2 - 2 x1 + x0 and the SqS3 step length
    alpha = -|r|/|v| clamped to at most -1 (alpha = -1 gives x2, and is
    used when v = 0).  A component both maps left alone has r = v = 0 and
    keeps its value exactly."""
    r = x1 - x0
    v = (x2 - x1) - r
    norm_v = np.linalg.norm(v)
    alpha = min(-np.linalg.norm(r) / norm_v, -1.0) if norm_v > 0 else -1.0
    return x0 - 2.0 * alpha * r + alpha * alpha * v


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
        Coefficients to hold fixed by name ("beta1", "beta2", "gamma"):
        they keep the given values while the M-step moves the others.
        This is the profiling hook used by the confidence-interval
        machinery.
    warm : FitResult, optional
        Start from a previous fit's state instead of the default
        deterministic initialization (useful when profiling near the MLE).
        A warm fit runs SQUAREM cycles: two EM maps, a jump to the SqS3
        extrapolation (step length -|r|/|v|, clamped to at most -1) and
        one EM map from there.  That map is kept only if its observed
        log-likelihood is finite and at least the one two maps before;
        otherwise, or if it separates, degenerates or overflows, the loop
        continues from the second map.

    Returns
    -------
    FitResult
        With ``converged`` False when the iteration cap was reached.
        ``iterations`` counts every EM map, those from rejected jumps
        included; ``loglik_trace`` holds the observed log-likelihood of
        each accepted map, so it never decreases.  The loop stops when
        two consecutive accepted values differ by less than TOL_LOGLIK.

    Raises
    ------
    SeparationError
        If a free coefficient runs away during a step (|beta| > 50), or
        ends the fit beyond 15 in absolute value: the likelihood appears
        monotone (infinite MLE).
    """
    fixed = dict(fixed) if fixed else {}
    unknown = set(fixed) - set(PARAM_NAMES)
    if unknown:
        raise ValueError(f"unknown fixed parameter(s): {sorted(unknown)}")
    ws = _Workspace(data)
    free = np.array([name not in fixed for name in PARAM_NAMES])

    if warm is not None:
        theta_arr = warm.theta_hat.as_array()
        for k, name in enumerate(PARAM_NAMES):
            if name in fixed:
                theta_arr[k] = fixed[name]
        theta = EffectParams.from_array(theta_arr)
        baseline = warm.baseline
        pi = warm.pi_hat if not diag.prevalence_known else diag.prevalence
    else:
        theta, baseline, pi = _initial_state(ws, diag, fixed)

    trace = []
    ll_prev = -np.inf
    converged = False
    it = 0
    w = None
    state = (theta, baseline, pi)
    # warm fits only: the packed states of the current SQUAREM cycle
    cycle = [_pack(state, diag)] if warm is not None else None
    while it < config.max_iter and not converged:
        it += 1
        if cycle is None or len(cycle) < 3:
            state, w, ll = _em_map(ws, diag, free, state)
        else:
            # the next cycle starts from x2 unless the jump is kept
            x0, x1, x2 = cycle
            cycle = [x2]
            try:
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    jump = _unpack(_sqs3_point(x0, x1, x2), ws, diag)
                    jumped, w_jumped, ll = _em_map(ws, diag, free, jump)
            except (SeparationError, DegenerateDataError, DatasetError,
                    FloatingPointError):
                # DatasetError: a hazard increment underflowed to zero
                continue
            if not (np.isfinite(ll) and ll >= ll_prev):
                continue
            state, w, cycle = jumped, w_jumped, []
        trace.append(ll)
        converged = abs(ll - ll_prev) < TOL_LOGLIK
        ll_prev = ll
        if cycle is not None:
            cycle.append(_pack(state, diag))
    theta, baseline, pi = state

    cox.check_separation(theta.as_array()[free])
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
