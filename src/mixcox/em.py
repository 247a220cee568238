"""EM estimation of the mixture-of-Cox subgroup model.

True biomarker status is latent; the E-step computes each subject's
posterior probability of being truly positive given the current parameter
estimates and the observed data, and the M-step takes a Newton step on
the weighted Cox partial likelihood of the two-row-per-subject expansion
followed by the weighted baseline update.  When the prevalence is unknown
it is re-estimated each iteration as the mean posterior weight, and the
predictive values are refreshed from it.

Likelihood evaluations inside the estimator use the jump-form cumulative
hazard: all of an interval's mass sits at its event time, so a subject's
cumulative hazard is the sum of the hazard jumps (increment times
interval width) at the distinct event times up to its own time, which
:func:`_e_pass` forms from the increments.  Under that form the expected
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

One EM map touches the n subjects twice.  The M-step builds the per-arm
risk-set sums of the posterior weights once (:class:`cox.RiskSums`); the
Newton step, its trial points and the Breslow update all work on those
sums over the distinct event times.  Then one pass over the subjects at
the new state (:func:`_e_pass`) gives both the observed log-likelihood
and the posterior weights of the next E-step.  Per-subject linear
predictors, relative risks and prior log-weights are lookups into small
tables by arm, test group and event indicator.  The loop carries the
state as (theta, hazard increments, pi) arrays and builds the
:class:`BaselineHazard` once, for the result.  The precomputed
structures of a dataset (:class:`_Workspace`) travel with the
:class:`FitResult`, and a warm refit or the profile information
(:func:`inference.fd_profile_information`) on the same Dataset object
reuses them.

Every fit, cold or warm-started, is accelerated by SQUAREM (Varadhan &
Roland 2008, Scand. J. Statist. 35:335) on the state vector (theta, log
hazard increments, logit prevalence when it is estimated).  Each cycle
takes two EM maps x0 -> x1 -> x2, jumps to the SqS3 extrapolation x' and
takes one EM map from x'.  That map is kept only if its observed
log-likelihood is finite and not below the one at x2; a jump whose map
separates, degenerates, overflows or underflows a hazard increment is
rejected too, and the next cycle starts from x2.  The accepted
log-likelihoods are therefore nondecreasing, and a pinned coefficient
never moves.  From the null start of a cold fit, too, it reached the
optima plain EM reaches on every trial measured, in well under half the
maps (see the README's numerical notes).

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
)

__all__ = ["EmConfig", "FitResult", "fit"]

PARAM_NAMES = ("beta1", "beta2", "gamma")
# estimated prevalences are clipped to [floor, 1 - floor]
PREVALENCE_FLOOR = 0.01
# the loop stops once the observed log-likelihood changes by less than this
TOL_LOGLIK = 1e-8
# event indicator values, for the per-class tables of :func:`_e_pass`
_EVENT = np.array([0.0, 1.0])


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
    # posterior P(true positive) per subject from the last E-step: the
    # weights whose M-step gave theta_hat and the baseline
    weights: np.ndarray
    obs_loglik: float
    iterations: int
    converged: bool
    loglik_trace: np.ndarray = field(default=None, repr=False)
    # the fit's precomputed structures; a warm refit on the same Dataset
    # object reuses them.  Not part of the result's value.
    _workspace: "_Workspace | None" = field(default=None, repr=False,
                                            compare=False)


class _Workspace:
    """Precomputed structures of one Dataset, shared by every EM map of a
    fit and by the warm refits started from it on the same object."""

    def __init__(self, data: Dataset):
        self.data = data
        self.v = data.test
        self.arm = data.treatment.astype(np.intp)
        # test group per subject: 0 positive, 1 negative, 2 missing
        self.group = np.where(self.v == 1, 0, np.where(self.v == 0, 1, 2))
        # subject class for table lookups: (test group, arm, event)
        self.cls = (self.group * 2 + self.arm) * 2 + data.event
        self.risk_sets = cox.RiskSets(data.time, data.event, data.treatment)
        self.m = self.risk_sets.ets.size
        # number of distinct event times <= t, per subject
        self.n_events_le = np.searchsorted(self.risk_sets.ets, data.time,
                                           side="right")


def _workspace(data: Dataset, res: "FitResult | None") -> _Workspace:
    """The workspace of fit ``res`` when ``data`` is the Dataset object it
    was fitted to, else a new one."""
    ws = getattr(res, "_workspace", None)
    return ws if ws is not None and ws.data is data else _Workspace(data)


def _log_priors(diag: DiagnosticModel, pi: float) -> np.ndarray:
    """(2, 3) table of prior log-weights: rows truly positive and truly
    negative, columns the test results positive, negative and missing.

    With unknown prevalence the entries are the joint probabilities
    P(status, test result) (``pi * sensitivity`` etc.); with known
    prevalence the test result is conditioned on, so the tested columns
    are divided by P(test result), which gives the predictive values.  An
    untested subject has the prevalence either way.  A perfect test gives
    zeros, whose logs are -inf.
    """
    se, sp = diag.sensitivity, diag.specificity
    probs = np.array([[pi * se, pi * (1 - se), pi],
                      [(1 - pi) * (1 - sp), (1 - pi) * sp, 1 - pi]])
    if diag.prevalence_known:
        probs[:, :2] /= probs[0, :2] + probs[1, :2]
    with np.errstate(divide="ignore"):
        return np.log(probs)


def _e_pass(ws, state, diag):
    """Observed log-likelihood at ``state`` = (theta, hazard increments,
    pi) and the posterior probability of true positive status per subject
    there, which is the next E-step.

    For each subject, A = log prior_pos + log L_pos and B the same for
    negative status, where L is the component likelihood under the
    jump-form cumulative hazard.  The log-likelihood is the sum of
    logaddexp(A, B) and the posterior is expit(A - B).  Both statuses
    share the event's log hazard, so it is summed once over the distinct
    event times and left out of A and B.  A prior weight of 0 (a perfect
    test) gives A or B = -inf, a posterior of exactly 0 or 1 and a finite
    log-likelihood.

    Raises DatasetError if a hazard increment is not positive.
    """
    theta, inc, pi = state
    if not inc.min() > 0:
        raise DatasetError("hazard increments must be positive")
    rs = ws.risk_sets
    h0 = np.concatenate(([0.0], np.cumsum(inc * rs.widths)))[ws.n_events_le]
    b1, b2, g = theta
    # linear predictors by latent status (positive, negative) and arm
    eta = np.array([[b2, b1 + b2 + g], [0.0, b1]])
    # log prior plus the linear predictor if the subject had an event, by
    # latent status and subject class (test group, arm, event)
    const = (_log_priors(diag, pi)[:, :, None, None]
             + eta[:, None, :, None] * _EVENT).reshape(2, -1)
    risk = np.exp(eta)
    a = const[0][ws.cls] - h0 * risk[0][ws.arm]
    b = const[1][ws.cls] - h0 * risk[1][ws.arm]
    diff = a - b
    # logaddexp(a, b) = max(a, b) + log1p(e) and expit(diff), with
    # e = exp(-|diff|) in [0, 1]
    e = np.exp(-np.abs(diff))
    ll = (float(rs.event_counts @ np.log(inc)) + float(np.maximum(a, b).sum())
          + float(np.log1p(e).sum()))
    return ll, np.where(diff >= 0, 1.0, e) / (1.0 + e)


def _update_prevalence(w: np.ndarray) -> float:
    """Mean posterior weight, clipped away from the boundary."""
    return float(min(max(w.mean(), PREVALENCE_FLOOR), 1.0 - PREVALENCE_FLOOR))


def _m_step(ws, w, theta, free):
    """Generalized M-step: one Newton step on the weighted Cox partial
    log-likelihood, then the baseline at the new coefficients.

    Each subject enters as a latent-positive row (posterior weight ``w``)
    and a latent-negative row (complement); both the step and the
    baseline work on the per-arm risk-set sums of these weights
    (:class:`cox.RiskSums`), built once here.  One safeguarded Newton step
    from the full coefficient vector ``theta`` moves the components
    selected by the boolean mask ``free`` (:func:`cox.fit_weighted_cox`:
    the step is halved until the partial log-likelihood does not fall);
    the others keep their values.  The Breslow baseline then maximizes
    the expected complete-data log-likelihood at the new coefficients, so
    the pair never lowers it.  Repeating the step from its own output
    converges to the exact M-step.  Returns the new coefficient vector and
    the hazard increments.
    """
    sums = cox.RiskSums(ws.risk_sets, w)
    beta = cox.fit_weighted_cox(sums, theta, free).beta
    return beta, cox.breslow_baseline(sums, beta)


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
    log_prior = _log_priors(diag, pi)
    prior = expit(log_prior[0] - log_prior[1])[ws.group]
    # null start: free coefficients at zero, fixed ones at their values
    theta0 = np.array([fixed.get(name, 0.0) for name in PARAM_NAMES], dtype=float)
    inc = cox.breslow_baseline(cox.RiskSums(ws.risk_sets, prior), theta0)
    return theta0, inc, pi


def _em_map(ws, diag, free, state, w):
    """One EM iteration from ``state`` = (theta, hazard increments, pi)
    whose posterior weights are ``w``: the generalized M-step and, when
    the prevalence is estimated, its update.  Returns the new state, its
    posterior weights (the next map's E-step) and its observed
    log-likelihood, both from one :func:`_e_pass`."""
    theta, _, pi = state
    beta, inc = _m_step(ws, w, theta, free)
    if not diag.prevalence_known:
        pi = _update_prevalence(w)
    new = (beta, inc, pi)
    ll, w_new = _e_pass(ws, new, diag)
    return new, w_new, ll


def _pack(state, diag) -> np.ndarray:
    """The EM state as one vector: theta, the log hazard increments and,
    when the prevalence is estimated, its logit."""
    theta, inc, pi = state
    parts = [theta, np.log(inc)]
    if not diag.prevalence_known:
        parts.append([logit(pi)])
    return np.concatenate(parts)


def _unpack(x, ws, diag):
    """Inverse of :func:`_pack`."""
    pi = diag.prevalence if diag.prevalence_known else float(expit(x[-1]))
    return x[:3], np.exp(x[3:3 + ws.m]), pi


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
        When ``data`` is the very Dataset object ``warm`` was fitted to,
        the refit reuses that fit's precomputed structures.  It chooses
        only the start: from either start the loop runs SQUAREM cycles of
        two EM maps, a jump to the SqS3 extrapolation (step length
        -|r|/|v|, clamped to at most -1) and one EM map from there.  That
        map is kept only if its observed log-likelihood is finite and at
        least the one two maps before; otherwise, or if it separates,
        degenerates or overflows, the loop continues from the second map.

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
    ws = _workspace(data, warm)
    free = np.array([name not in fixed for name in PARAM_NAMES])

    if warm is not None:
        theta = warm.theta_hat.as_array()
        for k, name in enumerate(PARAM_NAMES):
            if name in fixed:
                theta[k] = fixed[name]
        pi = warm.pi_hat if not diag.prevalence_known else diag.prevalence
        state = (theta, warm.baseline.increments, pi)
    else:
        state = _initial_state(ws, diag, fixed)

    trace = []
    ll_prev = -np.inf
    converged = False
    it = 0
    w = None
    w_next = _e_pass(ws, state, diag)[1]
    # the packed states of the current SQUAREM cycle
    cycle = [_pack(state, diag)]
    while it < config.max_iter and not converged:
        it += 1
        if len(cycle) < 3:
            w = w_next
            state, w_next, ll = _em_map(ws, diag, free, state, w)
        else:
            # the next cycle starts from x2 unless the jump is kept
            x0, x1, x2 = cycle
            cycle = [x2]
            try:
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    jump = _unpack(_sqs3_point(x0, x1, x2), ws, diag)
                    w_jump = _e_pass(ws, jump, diag)[1]
                    jumped, w_jumped, ll = _em_map(ws, diag, free, jump, w_jump)
            except (SeparationError, DegenerateDataError, DatasetError,
                    FloatingPointError):
                # DatasetError: a hazard increment underflowed to zero
                continue
            if not (np.isfinite(ll) and ll >= ll_prev):
                continue
            state, w, w_next, cycle = jumped, w_jump, w_jumped, []
        trace.append(ll)
        converged = abs(ll - ll_prev) < TOL_LOGLIK
        ll_prev = ll
        cycle.append(_pack(state, diag))
    theta, inc, pi = state

    cox.check_separation(theta[free])
    return FitResult(
        theta_hat=EffectParams.from_array(theta),
        baseline=BaselineHazard(ws.risk_sets.ets, inc),
        pi_hat=pi,
        weights=w,
        obs_loglik=trace[-1],
        iterations=it,
        converged=converged,
        loglik_trace=np.array(trace),
        _workspace=ws,
    )
