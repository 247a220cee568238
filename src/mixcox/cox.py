"""Weighted Cox partial likelihood of the EM's latent-status expansion, and
the baseline hazard estimator that goes with it.

The M-step fits a Cox model in which every subject appears twice, with
its own time and event indicator: as a latent-positive row with weight
``w`` and linear predictor ``eta1 = beta1*x + beta2 + gamma*x``, and as a
latent-negative row with weight ``1 - w`` and ``eta0 = beta1*x``, where
``x`` is the 0/1 treatment.  The design columns are (x, z, x*z) with the
latent status z = 1 on the first row and 0 on the second.  Three facts
let every evaluation for one set of weights run over the m distinct
event times, after one pass over the n subjects, instead of the 2n rows:

- The two rows of a subject share its time, so they enter the same risk
  sets, and the weighted event count at a time is the integer count
  there, because w + (1 - w) = 1.
- x and z are 0/1, so a row's relative risk exp(eta) is one of four
  scalars: 1 and e^beta1 for latent negatives in the control and treated
  arm, e^beta2 and e^(beta1 + beta2 + gamma) for latent positives.  Every
  risk-set sum is therefore a combination of those four scalars with the
  per-arm risk-set sums of w and of 1 - w, which do not depend on the
  coefficients.  :class:`RiskSums` holds these four sums for one set of
  weights, from one cumulative sum over each arm's subjects; ``1 - w`` is
  summed directly, so no count minus weight sum cancels when w is near 1.
- The product of two design columns is again a column: x*x = x,
  z*z = z, and every other product is x*z.  The Hessian's second moments
  are therefore the gradient's first moments.

Coefficients are always the full vector theta = (beta1, beta2, gamma);
holding one fixed means the Newton step leaves that component alone.
Ties follow the Breslow convention: all events at a tied time share one
risk-set denominator.

Every kernel is stacked: weights may carry leading *lane* axes (shape
``(..., n)``, coefficients ``(..., 3)``), and each lane is an independent
problem on the same subjects.  Every reduction runs along the last axis
or inside one lane's own matrix product, so a lane's result does not
depend on the other lanes in its stack; a single problem is simply one
with no lane axes.  A failure is a property of its lane: the Newton step
(:func:`fit_weighted_cox`) reports it per lane in ``CoxFit.errors`` and
raises nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDataError, MixcoxError, SeparationError

__all__ = ["RiskSets", "RiskSums", "CoxFit", "fit_weighted_cox", "breslow_baseline"]

GRAD_TOL = 1e-10
MAX_HALVINGS = 30
# a first trial point whose loglik falls by no more than this times
# (1 + |loglik|) fell by rounding alone (drops of ~1e-12 are seen at
# |loglik| ~ 4,500); it is accepted rather than halved
LOGLIK_RTOL = 256 * np.finfo(float).eps
SEPARATION_BOUND = 50.0
# a monotone likelihood flattens out numerically well before the runaway
# bound; a fit that terminates beyond this is quasi-separated
SEPARATION_FLAG = 15.0
# second moments of the columns (x, z, x*z) as indices into their first
# moments (see the module docstring)
_SECOND = np.array([[0, 2, 2], [2, 1, 2], [2, 2, 2]])
_EYE = np.eye(3)
# the linear predictors (b1, b2, b1 + b2 + g, 0) as rows of coefficients
# on theta = (b1, b2, g)
_LINEAR = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])


class RiskSets:
    """Risk-set layout of n subjects from their times, event indicators
    and 0/1 treatment column.

    It depends on neither the weights nor the coefficients, so one layout
    serves every evaluation on a trial.  The subjects are laid out in four
    blocks, 1 - w and w in the control and the treated arm, each block
    in descending time after one leading zero; a cumulative sum along a
    block then gives every risk-set sum of its arm.
    """

    __slots__ = ("ets", "widths", "event_counts", "_block", "_pos", "_take",
                 "_ev", "_xd", "_treated_events")

    def __init__(self, time, event, treatment):
        time = np.asarray(time, dtype=float)
        event = np.asarray(event) == 1
        x = np.asarray(treatment).astype(np.intp)
        self.ets = np.unique(time[event])
        self.widths = np.diff(self.ets, prepend=0.0)
        self.event_counts = np.bincount(
            np.searchsorted(self.ets, time[event]), minlength=self.ets.size
        ).astype(float)
        # subjects by descending time, and the number of treated ones
        # before each
        order = np.argsort(-time, kind="stable")
        xs = x[order]
        treated = np.concatenate(([0], np.cumsum(xs)))
        self._block = block = max(treated[-1], x.size - treated[-1]) + 1
        # position of each subject's 1 - w in the first two blocks (by arm,
        # after the block's leading zero, at its rank in the arm) and of
        # its w in the last two
        before = treated[:-1]
        pos = np.empty(x.size, dtype=np.intp)
        pos[order] = np.where(xs == 1, block + 1 + before,
                              1 + np.arange(x.size) - before)
        self._pos = np.concatenate((pos, pos + 2 * block))
        # at each distinct event time, the position in each block of the
        # last subject at risk (time >= t): the arm's count at risk, 0 for
        # the leading zero when none is
        at_risk = np.searchsorted(-time[order], -self.ets, side="right")
        treated_at_risk = treated[at_risk]
        take = np.empty((4, self.ets.size), dtype=np.intp)
        take[0] = take[2] = at_risk - treated_at_risk
        take[1] = take[3] = treated_at_risk
        self._take = take + block * np.arange(4)[:, None]
        self._ev = np.flatnonzero(event)
        self._xd = x[self._ev].astype(float)
        self._treated_events = self._xd.sum()


class RiskSums:
    """The per-arm risk-set sums of posterior weights ``w`` (shape
    ``(..., n)``).

    ``arms`` has shape ``(..., 4, m)``: at each distinct event time, the
    sums over the risk set of 1 - w in the control and the treated arm,
    then of w in the control and the treated arm.  Its rows pair with the
    relative risks 1, e^beta1, e^beta2 and e^(beta1 + beta2 + gamma).
    ``events`` (shape ``(..., 3)``) holds the weighted design sums (x, z,
    x*z) over the event rows.
    """

    __slots__ = ("rs", "arms", "events")

    def __init__(self, rs: RiskSets, w):
        w = np.asarray(w, dtype=float)
        lanes = w.shape[:-1]
        blocks = np.zeros(lanes + (4, rs._block))
        flat = blocks.reshape(lanes + (4 * rs._block,))
        flat[..., rs._pos] = np.concatenate((1.0 - w, w), axis=-1)
        blocks.cumsum(axis=-1, out=blocks)
        self.rs = rs
        self.arms = flat.take(rs._take, axis=-1)
        wd = w.take(rs._ev, axis=-1)
        self.events = np.empty(lanes + (3,))
        self.events[..., 0] = rs._treated_events
        self.events[..., 1] = np.add.reduce(wd, axis=-1)
        self.events[..., 2] = np.vecdot(wd, rs._xd)


def _linear(theta):
    """(b1, b2, b1 + b2 + g, 0) of each lane of ``theta`` = (b1, b2, g):
    the linear predictors of the relative risks after the reference, and
    the reference's zero."""
    return np.vecdot(np.asarray(theta, dtype=float)[..., None, :], _LINEAR)


def _risk_terms(sums: RiskSums, theta):
    """(t, s0) at ``theta`` (shape ``(..., 3)``): ``t`` stacks the risk-set
    sums of 1 - w among the treated, of w among the controls and of w
    among the treated, each times its relative risk (e^beta1, e^beta2,
    e^(beta1 + beta2 + gamma)), and s0 holds the total risk-set sums,
    which add the controls' 1 - w.

    A lane in which a risk set containing an event has zero total weight
    gets s0 = NaN throughout, so its log-likelihood is NaN.  The relative
    risks are computed with ``np.exp``, so an overflow gives inf (a
    warning, or an error under ``np.errstate``) and the value a failed
    trial point, never an exception of its own.
    """
    arms = sums.arms
    t = np.exp(_linear(theta)[..., :3, None]) * arms[..., 1:, :]
    s0 = arms[..., 0, :] + t[..., 0, :] + t[..., 1, :] + t[..., 2, :]
    if not s0.min() > 0:
        degenerate = s0.min(axis=-1) <= 0
        s0 = np.where(degenerate[..., None], np.nan, s0)
    return t, s0


def _loglik_parts(sums: RiskSums, theta, order: int = 2):
    """Partial loglik of the expansion weighted as in ``sums`` at the full
    coefficient vector ``theta``, with its gradient and Hessian.  ``order``
    0 skips the derivatives and returns, in place of the gradient, the
    total risk-set sums s0 of :func:`_risk_terms` (the Breslow
    denominators at ``theta``), and None for the Hessian.  The value is
    NaN in a lane whose risk set containing an event has zero total
    weight."""
    counts = sums.rs.event_counts
    t, s0 = _risk_terms(sums, theta)
    value = np.vecdot(sums.events, theta) - np.vecdot(np.log(s0), counts)
    if order == 0:
        return value, s0, None
    # risk-set means of the columns x, z and x*z at each event time
    means = t.copy()
    means[..., :2, :] += t[..., 2:, :]
    means /= s0[..., None, :]
    first = means @ counts
    grad = sums.events - first
    hess = (means * counts) @ np.swapaxes(means, -1, -2) - first[..., _SECOND]
    return value, grad, hess


@dataclass
class CoxFit:
    """Result of one safeguarded Newton step on the weighted partial
    likelihood, per lane."""

    beta: np.ndarray
    loglik: np.ndarray
    # the number of lanes that took a step (1 or 0 for an unstacked call)
    iterations: int
    # False when some lane's ascent failed
    converged: bool
    # the failure of each failed lane, by its flat lane index
    errors: dict[int, MixcoxError] = field(default_factory=dict)
    # the total risk-set sums of :func:`_risk_terms` at ``beta``, from
    # which the Breslow increments there follow (:func:`_breslow`)
    s0: np.ndarray | None = None


def _record(errors: dict, mask, error: MixcoxError) -> None:
    """Record ``error`` for every lane of ``mask`` that has not failed yet."""
    for k in np.flatnonzero(mask).tolist():
        errors.setdefault(k, error)


def _solve(system, rhs, errors: dict):
    """The Newton step system^-1 rhs of every lane; a lane whose matrix is
    singular gets a zero step and a DegenerateDataError."""
    try:
        return np.linalg.solve(system, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    # rare: find the singular lanes one by one
    steps = np.zeros((rhs.size // 3, 3))
    for k, (h, r) in enumerate(zip(system.reshape(-1, 3, 3), rhs.reshape(-1, 3))):
        try:
            steps[k] = np.linalg.solve(h, r)
        except np.linalg.LinAlgError:
            errors.setdefault(k, DegenerateDataError("singular Hessian in Cox fit"))
    return steps.reshape(rhs.shape)


def fit_weighted_cox(sums: RiskSums, theta, free) -> CoxFit:
    """One safeguarded Newton ascent step on the weighted partial likelihood
    of every lane.

    ``sums`` holds the risk-set sums of the posterior weights, ``theta``
    is the full coefficient vector (beta1, beta2, gamma) of each lane and
    the boolean mask ``free`` (broadcast to ``theta``) selects the
    components the step may move; the others keep their values.  A held
    component enters the 3x3 Newton system as an identity row and column
    with a zero gradient entry, so its step is exactly zero.  Per lane,
    the Newton step from ``theta`` is halved until the loglik does not
    decrease (a trial point whose loglik is NaN counts as a decrease).  A
    first trial point that falls by no more than LOGLIK_RTOL * (1 +
    |loglik|) fell by rounding alone, where the value cannot judge the
    step, and is accepted as the full Newton step, as in ``coxph``'s
    relative-loglik convergence test (Therneau & Grambsch 2000, *Modeling
    Survival Data*, ch. 3).  So the loglik at return is never below its
    value at ``theta`` by more than that.  Trial points are evaluated
    value-only, for the whole stack at once: a step that needs no halving
    costs one derivative evaluation and one value evaluation.

    This is the generalized M-step of the EM (:func:`em._m_step`); the
    next E-step moves the weights at once, so solving to convergence buys
    nothing there.  Repeating the step from its own output converges to
    the maximizer of the partial likelihood.

    Returns
    -------
    CoxFit
        ``beta`` (the full vectors), ``loglik`` and the risk-set totals
        ``s0`` after the step; ``s0`` is that of the last trial point,
        which is the returned one in every lane that stepped.  A lane
        whose ascent failed -- the gradient was not below GRAD_TOL, yet no
        trial point kept the loglik from falling -- keeps ``theta`` and
        makes ``converged`` False.  ``errors`` maps each failed lane to
        its exception, and a failed lane keeps ``theta``.

    Failures (per lane)
    -------------------
    SeparationError
        If a free coefficient runs away (|beta| > 50), which signals a
        monotone likelihood / infinite MLE.  One step cannot tell a
        coefficient that has stabilized far out from one still moving;
        :func:`check_separation` tests final coefficients (``em.fit``
        calls it).
    DegenerateDataError
        If an event's risk set has zero total weight at ``theta``, or the
        Hessian of the free components is singular.
    """
    theta = np.asarray(theta, dtype=float)
    free = np.asarray(free, dtype=bool)
    errors: dict[int, MixcoxError] = {}
    ll, grad, hess = _loglik_parts(sums, theta, order=2)
    grad = np.where(free, grad, 0.0)
    # a lane at a stationary point takes no step, nor does one whose
    # loglik is NaN
    stepping = np.abs(grad).max(axis=-1) >= GRAD_TOL
    all_stepping = bool(stepping.all())
    if not all_stepping:
        _record(errors, np.isnan(ll), DegenerateDataError(
            "a risk set containing an event has zero total weight"))
        if not stepping.any():
            return CoxFit(theta, ll, 0, True, errors, _risk_terms(sums, theta)[1])
    moves = free & stepping[..., None]
    system = np.where(moves[..., :, None] & moves[..., None, :], hess, _EYE)
    new = theta + _solve(system, np.where(moves, -grad, 0.0), errors)
    # a step far out along a separating direction can overflow the
    # relative risks; its loglik is then -inf or NaN, a failed step to halve
    with np.errstate(over="ignore", invalid="ignore"):
        ll_new, s0, _ = _loglik_parts(sums, new, order=0)
        # a first trial within rounding of ll (or above it) is not an
        # overshoot; NaN is
        up = ll - ll_new <= LOGLIK_RTOL * (1.0 + np.abs(ll))
        settled = up if all_stepping else up | ~stepping
        all_settled = bool(settled.all())
        halvings = 0
        while not all_settled and halvings < MAX_HALVINGS:
            new = np.where(settled[..., None], new, (theta + new) / 2.0)
            # a settled lane's point does not move, so s0 is always that
            # of the current points
            trial, s0, _ = _loglik_parts(sums, new, order=0)
            ll_new = np.where(settled, ll_new, trial)
            up |= ~settled & (trial >= ll)
            settled = up | ~stepping
            all_settled = bool(settled.all())
            halvings += 1
    # a lane that cannot ascend at numerical precision keeps the old point
    stepped = up & stepping
    all_stepped = all_stepping and all_settled
    if np.abs(new).max() > SEPARATION_BOUND:
        runaway = stepped & (np.abs(np.where(free, new, 0.0)).max(axis=-1)
                             > SEPARATION_BOUND)
        _record(errors, runaway, SeparationError(
            "coefficient exceeded 50 in absolute value; "
            "the partial likelihood appears monotone (infinite MLE)"))
        stepped &= ~runaway
        all_stepped = all_stepped and not runaway.any()
    if not all_stepped:
        new = np.where(stepped[..., None], new, theta)
        ll_new = np.where(stepped, ll_new, ll)
        s0 = np.where(stepped[..., None], s0, _risk_terms(sums, theta)[1])
    steps = stepped.size if all_stepped else int(np.count_nonzero(stepped))
    return CoxFit(new, ll_new, steps, all_settled, errors, s0)


def check_separation(beta) -> None:
    """Raise SeparationError if a final coefficient lies beyond
    SEPARATION_FLAG in absolute value."""
    if np.max(np.abs(beta), initial=0.0) > SEPARATION_FLAG:
        raise SeparationError(
            "a coefficient stabilized beyond 15 in absolute value; "
            "the partial likelihood appears monotone (infinite MLE)"
        )


def breslow_baseline(sums: RiskSums, theta) -> np.ndarray:
    """Breslow hazard increments of the expansion weighted as in ``sums``
    at coefficients ``theta``, one per distinct event time (shape
    ``(..., m)``); NaN in a lane whose risk set containing an event has
    zero total weight.

    The increment on the interval ending at the j-th distinct event time
    is the event count there divided by the interval width times the
    weighted relative-risk sum over the risk set; the piecewise-constant
    hazard is ``BaselineHazard(sums.rs.ets, increments)``.
    """
    return _breslow(sums.rs, _risk_terms(sums, theta)[1])


def _breslow(rs: RiskSets, s0) -> np.ndarray:
    """The Breslow increments from the total risk-set sums ``s0`` (see
    :func:`breslow_baseline`)."""
    return rs.event_counts / (rs.widths * s0)
