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
:class:`BaselineHazard` once, for the result.  The :class:`FitResult`
records the Dataset and the diagnostic model it was fitted to, with the
precomputed structures of that Dataset (:class:`_Workspace`); the
profile information (:func:`inference.fd_profile_information`) and a
warm refit on the same Dataset object reuse them.

The loop runs a stack of independent fits in lockstep (:func:`_fit_lanes`):
K *lanes* on the same subjects under one diagnostic model, each with its
own pinned coefficients and, when the prevalence is estimated, either an
estimated prevalence or one held at a profiled value.  A held prevalence
stays in the joint likelihood the estimated one maximizes, the way a
pinned coefficient stays in the partial likelihood, so a lane's
log-likelihood is the profile log-likelihood.  Every array of the state
carries a leading lane axis, and each EM map is one call of each kernel
for the whole stack; :func:`fit` is the stack of one lane.  The profile
refits of an analysis (:mod:`inference`) share one stack, so their maps
cost about as many numpy calls as one refit's.  Everything that decides
a lane's path is per lane: the Newton step's halving, the SQUAREM jump's
acceptance, convergence and failure.  A lane leaves the stack as soon as
it converges, with the posterior weights at its final state, or fails;
reaching the iteration cap is a failure (a ConvergenceError).  A failed
lane takes its exception with it and does not disturb the others.  Each
kernel reduces only along a lane's own axis (a pairwise sum along the
last axis, ``np.vecdot`` or a matrix product per lane), so a lane's
result is the same, bit for bit, in any stack, and the stack of one lane
repeats the arithmetic of the unstacked kernels.

Every fit, cold or warm-started, is accelerated by SQUAREM (Varadhan &
Roland 2008, Scand. J. Statist. 35:335) on the state vector (theta, log
hazard increments, logit prevalence).  A known or held prevalence does
not move, so the extrapolation leaves its logit alone, and the jump takes
the value itself from the lane's state: it never passes through a logit.
Each cycle takes two EM maps x0 -> x1 -> x2, jumps to the SqS3
extrapolation x' and takes one EM map from x'.  That map is kept only if
its observed log-likelihood is finite and not below the one at x2; a
jump whose map separates, degenerates, overflows or underflows a hazard
increment is rejected too, and the next cycle starts from x2.  The step length
-|r|/|v| and the acceptance are per lane, and all lanes of a stack run
their cycles in phase, since a rejected jump also starts a new cycle.
The accepted log-likelihoods are therefore nondecreasing, and a pinned
coefficient never moves.  From the null start of a cold fit, too, it
reached the optima plain EM reaches on every trial measured, in well
under half the maps (see the README's numerical notes).

A single step cannot tell a coefficient that has stabilized far out from
one still moving, so the quasi-separation check
(:func:`cox.check_separation`) is applied to the free coefficients at the
end of each lane; a runaway (beyond ``cox.SEPARATION_BOUND``) is caught
inside the step.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import cox
from .errors import ConvergenceError, DatasetError, SeparationError
from .model import (
    BaselineHazard,
    Dataset,
    DiagnosticModel,
    EffectParams,
    TEST_MISSING,
)

__all__ = ["FitResult", "fit"]

PARAM_NAMES = ("beta1", "beta2", "gamma")
# estimated prevalences are clipped to [floor, 1 - floor]
PREVALENCE_FLOOR = 0.01
# the loop stops once the observed log-likelihood changes by less than this
TOL_LOGLIK = 1e-8
# the default cap on a fit's EM maps
MAX_ITER = 2000
# event indicator values, for the per-class tables of :func:`_e_pass`
_EVENT = np.array([0.0, 1.0])
# the linear predictors by latent status (positive, negative) and arm, as
# indices into ``cox._linear``'s (b1, b2, b1 + b2 + g, 0)
_ETA = np.array([[1, 2], [3, 0]])


def _check_max_iter(max_iter: int) -> None:
    """An iteration cap is at least 2, since convergence compares the
    log-likelihoods of two maps."""
    if max_iter < 2:
        raise DatasetError("max_iter must be at least 2: convergence compares "
                           "the log-likelihoods of two EM maps")


@dataclass
class FitResult:
    """Converged EM state plus diagnostics, and the fit's trial,
    diagnostic model and cap on EM maps: every analysis of the fit
    (:mod:`inference`) reads them here, so its refits share all three."""

    theta_hat: EffectParams
    baseline: BaselineHazard
    pi_hat: float
    # posterior P(true positive) per subject at (theta_hat, baseline,
    # pi_hat): the E-step the next EM map would take
    weights: np.ndarray
    obs_loglik: float
    iterations: int
    data: Dataset = field(repr=False)
    diag: DiagnosticModel
    max_iter: int
    loglik_trace: np.ndarray = field(default=None, repr=False)
    # the precomputed structures of ``data``; a warm refit on the same
    # Dataset object reuses them.  Not part of the result's value.
    _workspace: "_Workspace | None" = field(default=None, repr=False,
                                            compare=False)


class _Lane(NamedTuple):
    """Where one lane of :func:`_fit_lanes` converged: its state (theta,
    hazard increments, pi), the posterior weights at that state, the
    observed log-likelihood of each accepted map, the map count and the
    workspace of the stack."""

    theta: np.ndarray
    increments: np.ndarray
    pi: float
    weights: np.ndarray
    loglik_trace: list
    iterations: int
    workspace: "_Workspace"


class _Workspace:
    """Precomputed structures of one Dataset, shared by every EM map of a
    fit and by the warm refits started from it on the same object."""

    def __init__(self, data: Dataset):
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
    return ws if ws is not None and res.data is data else _Workspace(data)


@functools.lru_cache(maxsize=16)
def _test_probs(sensitivity: float, specificity: float):
    """(2, 3) table of P(test result | status): rows truly positive and
    truly negative, columns positive, negative and missing; and whether
    it holds a zero (a perfect test)."""
    table = np.array([[sensitivity, 1 - sensitivity, 1.0],
                      [1 - specificity, specificity, 1.0]])
    table.flags.writeable = False
    return table, not table.min() > 0


def _log_priors(diag, pi) -> np.ndarray:
    """(..., 2, 3) table of prior log-weights per lane: rows truly positive
    and truly negative, columns the test results positive, negative and
    missing.  ``pi`` is the prevalence of each lane.

    With unknown prevalence the entries are the joint probabilities
    P(status, test result) (``pi * sensitivity`` etc.), also in a lane
    that holds the prevalence at a profiled value; with known prevalence
    the test result is conditioned on, so the tested columns are divided
    by P(test result), which gives the predictive values.  An untested
    subject has the prevalence either way.  A perfect test gives zeros,
    whose logs are -inf.
    """
    table, perfect = _test_probs(diag.sensitivity, diag.specificity)
    pi = np.asarray(pi, dtype=float)[..., None, None]
    probs = np.concatenate((pi, 1 - pi), axis=-2) * table
    if diag.prevalence_known:
        probs[..., :2] /= probs[..., :1, :2] + probs[..., 1:, :2]
    if not perfect:
        return np.log(probs)
    with np.errstate(divide="ignore"):
        return np.log(probs)


def _e_pass(ws, state, diag):
    """Observed log-likelihood at ``state`` = (theta, hazard increments,
    pi) and the posterior probability of true positive status per subject
    there, which is the next E-step; per lane, with the state's arrays
    stacked along leading lane axes.

    For each subject, A = log prior_pos + log L_pos and B the same for
    negative status, where L is the component likelihood under the
    jump-form cumulative hazard.  The log-likelihood is the sum of
    logaddexp(A, B) and the posterior is expit(A - B).  Both statuses
    share the event's log hazard, so it is summed once over the distinct
    event times and left out of A and B.  A prior weight of 0 (a perfect
    test) gives A or B = -inf, a posterior of exactly 0 or 1 and a finite
    log-likelihood.  The hazard increments must be positive; the loop
    (:func:`_fit_lanes`) checks them.
    """
    theta, inc, pi = state
    rs = ws.risk_sets
    lanes = inc.shape[:-1]
    cum = np.zeros(lanes + (ws.m + 1,))
    (inc * rs.widths).cumsum(axis=-1, out=cum[..., 1:])
    h0 = cum.take(ws.n_events_le, axis=-1)[..., None, :]
    # linear predictors by latent status (positive, negative) and arm
    eta = cox._linear(theta).take(_ETA, axis=-1)
    # log prior plus the linear predictor if the subject had an event, by
    # latent status and subject class (test group, arm, event)
    const = (_log_priors(diag, pi)[..., :, :, None, None]
             + eta[..., :, None, :, None] * _EVENT).reshape(lanes + (2, 12))
    ab = const.take(ws.cls, axis=-1) - h0 * np.exp(eta).take(ws.arm, axis=-1)
    a, b = ab[..., 0, :], ab[..., 1, :]
    diff = a - b
    # logaddexp(a, b) = max(a, b) + log1p(e) and expit(diff), with
    # e = exp(-|diff|) in [0, 1]
    e = np.exp(-np.abs(diff))
    ll = (np.vecdot(np.log(inc), rs.event_counts)
          + np.add.reduce(np.maximum(a, b), axis=-1)
          + np.add.reduce(np.log1p(e), axis=-1))
    return ll, np.where(diff >= 0, 1.0, e) / (1.0 + e)


def _expit(x):
    """The logistic function 1 / (1 + exp(-x)), elementwise: 1 / (1 + e)
    for x >= 0 and e / (1 + e) for x < 0, with e = exp(-|x|) <= 1, so it
    never overflows (the posterior of :func:`_e_pass` is the same form)."""
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _logit(p):
    """log(p / (1 - p)), elementwise: the inverse of :func:`_expit`."""
    p = np.asarray(p, dtype=float)
    return np.log(p / (1.0 - p))


def _update_prevalence(w: np.ndarray):
    """Mean posterior weight of each lane, clipped away from the boundary."""
    mean = np.add.reduce(w, axis=-1) / w.shape[-1]
    return np.minimum(np.maximum(mean, PREVALENCE_FLOOR), 1.0 - PREVALENCE_FLOOR)


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
    the expected complete-data log-likelihood at the new coefficients
    (from the risk-set totals the step computed there), so
    the pair never lowers it.  Repeating the step from its own output
    converges to the exact M-step.  Returns the new coefficient vectors,
    the hazard increments and the failed lanes' exceptions (see
    ``cox.CoxFit.errors``).
    """
    step = cox.fit_weighted_cox(cox.RiskSums(ws.risk_sets, w), theta, free)
    return step.beta, cox._breslow(ws.risk_sets, step.s0), step.errors


def _initial_state(ws, diag, fixed):
    se, sp = diag.sensitivity, diag.specificity
    if "pi" in fixed:
        pi = fixed["pi"]
    elif diag.prevalence_known:
        pi = diag.prevalence
    else:
        # method-of-moments inversion of the observed positive fraction
        observed = ws.v != TEST_MISSING
        v_bar = float(np.mean(ws.v[observed] == 1)) if np.any(observed) else 0.5
        pi = float(np.clip((v_bar + sp - 1) / (se + sp - 1),
                           PREVALENCE_FLOOR, 1.0 - PREVALENCE_FLOOR))
    log_prior = _log_priors(diag, pi)
    prior = _expit(log_prior[0] - log_prior[1])[ws.group]
    # null start: free coefficients at zero, fixed ones at their values
    theta0 = np.array([fixed.get(name, 0.0) for name in PARAM_NAMES], dtype=float)
    inc = cox.breslow_baseline(cox.RiskSums(ws.risk_sets, prior), theta0)
    return theta0, inc, pi


def _lane_mask(errors: dict, size: int) -> np.ndarray:
    mask = np.zeros(size, dtype=bool)
    mask[list(errors)] = True
    return mask


def _em_map(ws, diag, free, held, state, w):
    """One EM iteration of every lane from ``state`` = (theta, hazard
    increments, pi) whose posterior weights are ``w``: the generalized
    M-step and the prevalence update, except in the lanes where the
    boolean mask ``held`` is set.  Returns the new state, its posterior
    weights (the next map's E-step), its observed log-likelihood, both
    from one :func:`_e_pass`, and the failed lanes' exceptions by lane
    index; a failed lane keeps its old state."""
    theta, inc, pi = state
    beta, inc_new, errors = _m_step(ws, w, theta, free)
    if not inc_new.min() > 0:
        cox._record(errors, ~(inc_new.min(axis=-1) > 0),
                    DatasetError("hazard increments must be positive"))
    if errors:
        failed = _lane_mask(errors, theta.shape[0])[:, None]
        beta = np.where(failed, theta, beta)
        inc_new = np.where(failed, inc, inc_new)
    new = (beta, inc_new, pi if held.all() else np.where(held, pi, _update_prevalence(w)))
    ll, w_new = _e_pass(ws, new, diag)
    return new, w_new, ll, errors


def _pack(state) -> np.ndarray:
    """The EM state of each lane as one vector: theta, the log hazard
    increments and the logit prevalence."""
    theta, inc, pi = state
    x = np.empty(inc.shape[:-1] + (inc.shape[-1] + 4,))
    x[..., :3] = theta
    np.log(inc, out=x[..., 3:-1])
    x[..., -1] = _logit(pi)
    return x


def _unpack(x, held, pi):
    """Inverse of :func:`_pack`; in the lanes where ``held`` is set the
    prevalence is taken from ``pi``, not round-tripped through its logit."""
    return x[..., :3], np.exp(x[..., 3:-1]), np.where(held, pi, _expit(x[..., -1]))


def _sqs3_point(x0, x1, x2):
    """SQUAREM extrapolation (Varadhan & Roland 2008, Scand. J. Statist.
    35:335) of each lane from two EM maps x0 -> x1 -> x2: x0 - 2 alpha r +
    alpha^2 v with r = x1 - x0, v = x2 - 2 x1 + x0 and the SqS3 step
    length alpha = -|r|/|v| of the lane, clamped to at most -1 (alpha = -1
    gives x2, and is used when v = 0).  A component both maps left alone
    has r = v = 0 and keeps its value exactly."""
    r = x1 - x0
    v = (x2 - x1) - r
    norm_v = np.sqrt(np.vecdot(v, v))
    ratio = np.divide(np.sqrt(np.vecdot(r, r)), norm_v, out=np.zeros_like(norm_v),
                      where=norm_v > 0)
    alpha = -np.maximum(ratio, 1.0)[..., None]
    return x0 - (2.0 * alpha) * r + (alpha * alpha) * v


def _select(kept, new, old):
    """``new`` in the kept lanes and ``old`` elsewhere (arrays or states)."""
    if kept.all():
        return new
    if isinstance(new, tuple):
        return tuple(_select(kept, a, b) for a, b in zip(new, old))
    return np.where(kept.reshape(kept.shape + (1,) * (new.ndim - 1)), new, old)


def _jump(ws, diag, free, held, state, w, cycle, ll_prev):
    """The SQUAREM step of every lane from its cycle x0 -> x1 -> x2 =
    ``state``, whose posterior weights are ``w``: the jump and one EM map
    from it, kept in the lanes where it is finite, no kernel failed and
    its log-likelihood is not below ``ll_prev``.  Returns the kept mask,
    the lanes' states and their posterior weights and the maps'
    log-likelihoods.  An overflow here is the jump's failure, not an
    error (see :func:`_fit_lanes`)."""
    x = _sqs3_point(*cycle)
    jump = _unpack(x, held, state[2])
    inc = jump[1]
    # an overflowed jump, or a hazard increment that under- or
    # overflowed, is rejected without a map
    sane = np.isfinite(x).all(axis=-1)
    if not (sane.all() and inc.min() > 0 and inc.max() < np.inf):
        sane &= (inc.min(axis=-1) > 0) & (inc.max(axis=-1) < np.inf)
        if not sane.any():
            return sane, state, w, ll_prev
        jump = _select(sane, jump, state)
    w_jump = _e_pass(ws, jump, diag)[1]
    jumped, w_jumped, ll, errors = _em_map(ws, diag, free, held, jump, w_jump)
    kept = sane & np.isfinite(ll) & (ll >= ll_prev)
    if errors:
        kept &= ~_lane_mask(errors, kept.size)
    if not kept.any():
        return kept, state, w, ll
    return kept, _select(kept, jumped, state), _select(kept, w_jumped, w), ll


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _fit_lanes(data: Dataset, diag: DiagnosticModel, pins, max_iter: int = MAX_ITER,
               warm: FitResult | None = None) -> list:
    """Fit one lane per mapping ``fixed`` of ``pins`` in lockstep on
    ``data``, all under the diagnostic model ``diag``.

    A lane holds the parameters ``fixed`` names ("beta1", "beta2",
    "gamma", and "pi" when the prevalence is estimated) at the given
    values while the M-step moves the others.  A lane that holds the
    prevalence holds it in the same joint likelihood the estimated
    prevalence maximizes: its log-likelihood is the profile
    log-likelihood at that prevalence.  Every lane starts from the state
    of the fit ``warm``, with its pins applied, or without ``warm`` from
    the null start of a cold fit: free coefficients at zero, pinned ones
    at their values (the lane of :func:`fit` pins nothing).  When
    ``data`` is the very Dataset object ``warm`` was fitted to, the lanes
    reuse that fit's precomputed structures.  From either start a lane
    runs the SQUAREM cycles the module docstring describes, and converges
    once two consecutive accepted log-likelihoods differ by less than
    TOL_LOGLIK.

    Returns, per lane, its :class:`_Lane` or the exception that ended it:
    a kernel failure, the ConvergenceError of a lane still moving after
    ``max_iter`` maps, or the SeparationError of a free coefficient that
    converged beyond ``cox.SEPARATION_FLAG``.  Raises DatasetError if
    ``max_iter`` is below 2, and ValueError if a mapping names an unknown
    parameter, or "pi" while ``diag.prevalence_known`` is set.

    Floating-point overflow, invalid-operation and divide warnings are off
    in the loop.  A state far out along a separating direction -- a warm
    start pinned thousands of units out, or a SQUAREM jump -- overflows
    the relative risks, and each lane's own checks judge the values: an
    overflowed survival factor is 0, a NaN partial log-likelihood fails
    the lane with a DegenerateDataError in the Cox step, a hazard
    increment that is not positive fails it in the map and a non-finite
    jump is rejected.
    """
    _check_max_iter(max_iter)
    fixed = [dict(f) for f in pins]
    unknown = set().union(*fixed) - set(PARAM_NAMES) - {"pi"}
    if unknown:
        raise ValueError(f"unknown fixed parameter(s): {sorted(unknown)}")
    pinned_pi = [f["pi"] for f in fixed if "pi" in f]
    if pinned_pi and diag.prevalence_known:
        raise ValueError("cannot hold pi fixed: the prevalence is already known")
    if not all(0 < pi < 1 for pi in pinned_pi):
        raise DatasetError("prevalence must be in (0, 1)")
    # the lanes whose prevalence the EM leaves alone
    held = np.array([diag.prevalence_known or "pi" in f for f in fixed])
    ws = _workspace(data, warm)
    free = np.array([[name not in f for name in PARAM_NAMES] for f in fixed])
    if warm is not None:
        start = warm.theta_hat.as_array()
        theta = np.array([[f.get(name, start[i]) for i, name in enumerate(PARAM_NAMES)]
                          for f in fixed], dtype=float)
        inc = np.repeat(warm.baseline.increments[None], len(fixed), axis=0)
        pi0 = diag.prevalence if diag.prevalence_known else warm.pi_hat
        pi = np.array([f.get("pi", pi0) for f in fixed], dtype=float)
    else:
        starts = [_initial_state(ws, diag, f) for f in fixed]
        theta, inc, pi = (np.array(part) for part in zip(*starts))
    state = (theta, inc, pi)

    results: list = [None] * len(fixed)
    traces: list[list[float]] = [[] for _ in fixed]
    ids = list(range(len(fixed)))  # the lane of each row of the stack
    ll_prev = [-np.inf] * len(fixed)
    it = 0
    # the posterior weights at each lane's state: the next map's E-step
    w = _e_pass(ws, state, diag)[1]
    # the packed states of the current SQUAREM cycle
    cycle = [_pack(state)]
    while ids:
        it += 1
        if len(cycle) < 3:
            state, w, ll, errors = _em_map(ws, diag, free, held, state, w)
            kept = [k not in errors for k in range(len(ids))]
        else:
            # the next cycle starts from x2 in the lanes whose jump fails;
            # a failed jump ends no lane
            kept, state, w, ll = _jump(ws, diag, free, held, state, w, cycle,
                                       np.array(ll_prev))
            kept = kept.tolist()
            cycle, errors = [], {}
        cycle.append(_pack(state))
        done = []
        for k, value in enumerate(ll.tolist()):
            converged = False
            if kept[k]:
                traces[ids[k]].append(value)
                converged = abs(value - ll_prev[k]) < TOL_LOGLIK
                ll_prev[k] = value
            if converged or it >= max_iter or k in errors:
                done.append(k)
                results[ids[k]] = errors.get(k) or _lane_end(
                    ws, state, w, k, free[k], traces[ids[k]], it, converged)
        if len(done) == len(ids):
            break
        if done:
            keep = np.ones(len(ids), dtype=bool)
            keep[done] = False
            ids = [lane for k, lane in enumerate(ids) if keep[k]]
            ll_prev = [value for k, value in enumerate(ll_prev) if keep[k]]
            free, held = free[keep], held[keep]
            state = tuple(part[keep] for part in state)
            w = w[keep]
            cycle = [x[keep] for x in cycle]
    return results


def _lane_end(ws, state, w, k, free, trace, iterations, converged):
    """The :class:`_Lane` of row ``k`` of the stack; the ConvergenceError
    of a lane that has not converged, or the SeparationError of a free
    coefficient that converged beyond ``cox.SEPARATION_FLAG``."""
    if not converged:
        return ConvergenceError(f"EM did not converge within {iterations} iterations "
                                f"(last log-likelihood {trace[-1]:.6f})")
    theta, inc, pi = state
    try:
        cox.check_separation(theta[k][free])
    except SeparationError as exc:
        return exc
    return _Lane(theta[k], inc[k], float(pi[k]), w[k], trace, iterations, ws)


def fit(data: Dataset, diag: DiagnosticModel, *, max_iter: int = MAX_ITER) -> FitResult:
    """Run the EM loop to convergence of the observed log-likelihood.

    This is the stack of one lane with nothing pinned, from the null
    start (:func:`_fit_lanes`, which describes the loop).

    Parameters
    ----------
    data, diag : the trial and the diagnostic-test model.  When
        ``diag.prevalence_known`` is False the prevalence is estimated,
        clipped to [PREVALENCE_FLOOR, 1 - PREVALENCE_FLOOR].
    max_iter : int
        The cap on EM maps, at least 2.  The loop stops once the observed
        log-likelihood changes by less than TOL_LOGLIK.

    Returns
    -------
    FitResult
        At convergence: two consecutive accepted log-likelihoods differ
        by less than TOL_LOGLIK.  ``iterations`` counts every EM map,
        those from rejected jumps included; ``loglik_trace`` holds the
        observed log-likelihood of each accepted map, so it never
        decreases; ``weights`` is the posterior at the returned state;
        ``data``, ``diag`` and ``max_iter`` are the arguments, which every
        analysis of the fit reads: its refits run under the same cap.

    Raises
    ------
    ConvergenceError
        If the loop has not converged after ``max_iter`` maps.
    SeparationError
        If a free coefficient runs away during a step (|beta| > 50), or
        ends the fit beyond 15 in absolute value: the likelihood appears
        monotone (infinite MLE).
    DatasetError
        If ``max_iter`` is below 2.
    """
    (lane,) = _fit_lanes(data, diag, [{}], max_iter)
    return _fit_result(lane, data, diag, max_iter)


def _fit_result(lane, data: Dataset, diag: DiagnosticModel, max_iter: int) -> FitResult:
    """The FitResult of one :func:`_fit_lanes` result on ``data`` under
    ``diag`` and ``max_iter``; raises the exception that ended the lane."""
    if isinstance(lane, Exception):
        raise lane
    return FitResult(
        theta_hat=EffectParams.from_array(lane.theta),
        baseline=BaselineHazard(lane.workspace.risk_sets.ets, lane.increments),
        pi_hat=lane.pi,
        weights=lane.weights,
        obs_loglik=lane.loglik_trace[-1],
        iterations=lane.iterations,
        data=data,
        diag=diag,
        max_iter=max_iter,
        loglik_trace=np.array(lane.loglik_trace),
        _workspace=lane.workspace,
    )
