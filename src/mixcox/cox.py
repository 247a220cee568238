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
  weights, from one cumulative sum over the subjects; ``1 - w`` is summed
  directly, so no count minus weight sum cancels when w is near 1.
- The product of two design columns is again a column: x*x = x,
  z*z = z, and every other product is x*z.  The Hessian's second moments
  are therefore the gradient's first moments.

Coefficients are always the full vector theta = (beta1, beta2, gamma);
holding one fixed means the Newton step leaves that component alone.
Ties follow the Breslow convention: all events at a tied time share one
risk-set denominator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, SeparationError

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


class RiskSets:
    """Risk-set layout of n subjects from their times, event indicators
    and 0/1 treatment column.

    It depends on neither the weights nor the coefficients, so one layout
    serves every evaluation on a trial.
    """

    __slots__ = ("ets", "widths", "event_counts", "_order", "_last", "_xs",
                 "_ev", "_xd", "_treated_events")

    def __init__(self, time, event, treatment):
        time = np.asarray(time, dtype=float)
        event = np.asarray(event) == 1
        x = np.asarray(treatment, dtype=float)
        self.ets = np.unique(time[event])
        self.widths = np.diff(self.ets, prepend=0.0)
        self.event_counts = np.bincount(
            np.searchsorted(self.ets, time[event]), minlength=self.ets.size
        ).astype(float)
        self._order = np.argsort(-time, kind="stable")
        self._xs = x[self._order]
        # position, in descending-time order, of the last subject at risk
        # (time >= t) at each distinct event time
        self._last = np.searchsorted(-time[self._order], -self.ets, side="right") - 1
        self._ev = np.flatnonzero(event)
        self._xd = x[self._ev]
        self._treated_events = self._xd.sum()


class RiskSums:
    """The per-arm risk-set sums of one set of posterior weights ``w``.

    ``arms`` is a (4, m) array: at each distinct event time, the sums over
    the risk set of 1 - w in the control and the treated arm, then of w in
    the control and the treated arm.  Its rows pair with the relative
    risks 1, e^beta1, e^beta2 and e^(beta1 + beta2 + gamma).  ``events``
    holds the weighted design sums (x, z, x*z) over the event rows.
    """

    __slots__ = ("rs", "arms", "events")

    def __init__(self, rs: RiskSets, w):
        w = np.asarray(w, dtype=float)
        ws = w[rs._order]
        us = 1.0 - ws
        cols = np.empty((4, ws.size))
        cols[1] = us * rs._xs
        cols[0] = us - cols[1]
        cols[3] = ws * rs._xs
        cols[2] = ws - cols[3]
        self.rs = rs
        self.arms = np.take(np.cumsum(cols, axis=1), rs._last, axis=1)
        wd = w[rs._ev]
        self.events = np.array([rs._treated_events, wd.sum(), wd @ rs._xd])


def _risk_terms(sums: RiskSums, theta):
    """(t1, t2, t3, s0) at ``theta``: the risk-set sums of 1 - w among the
    treated, of w among the controls and of w among the treated, each
    times its relative risk (e^beta1, e^beta2, e^(beta1 + beta2 + gamma)),
    and the total risk-set sums s0, which add the controls' 1 - w.

    The relative risks are computed with ``np.exp``, so an overflow gives
    inf (a warning, or an error under ``np.errstate``) and the value a
    failed trial point, never an exception of its own.
    """
    b1, b2, g = theta
    c1, c2, c3 = np.exp(np.array([b1, b2, b1 + b2 + g]))
    arms = sums.arms
    t1 = c1 * arms[1]
    t2 = c2 * arms[2]
    t3 = c3 * arms[3]
    s0 = arms[0] + t1 + t2 + t3
    if s0.min() <= 0:
        raise DegenerateDataError(
            "a risk set containing an event has zero total weight"
        )
    return t1, t2, t3, s0


def _loglik_parts(sums: RiskSums, theta, order: int = 2):
    """Partial loglik of the expansion weighted as in ``sums`` at the full
    coefficient vector ``theta``, with its gradient and Hessian; ``order``
    0 skips the derivatives (returned as None)."""
    counts = sums.rs.event_counts
    t1, t2, t3, s0 = _risk_terms(sums, theta)
    value = float(sums.events @ theta) - float(counts @ np.log(s0))
    if order == 0:
        return value, None, None
    # risk-set means of the columns x, z and x*z at each event time
    means = np.stack((t1 + t3, t2 + t3, t3)) / s0
    m1, m2, m3 = first = means @ counts
    grad = sums.events - first
    second = np.array([[m1, m3, m3], [m3, m2, m3], [m3, m3, m3]])
    hess = (means * counts) @ means.T - second
    return value, grad, hess


@dataclass
class CoxFit:
    """Result of one safeguarded Newton step on the weighted partial
    likelihood."""

    beta: np.ndarray
    loglik: float
    iterations: int
    converged: bool


def fit_weighted_cox(sums: RiskSums, theta, free) -> CoxFit:
    """One safeguarded Newton ascent step on the weighted partial likelihood.

    ``sums`` holds the risk-set sums of the posterior weights, ``theta``
    is the full coefficient vector (beta1, beta2, gamma) and the boolean
    mask ``free`` selects the components the step may move; the others
    keep their values.  The Newton step from ``theta`` is halved until
    the loglik does not decrease (a trial point whose loglik is NaN
    counts as a decrease).  A first trial point that falls by no more than
    LOGLIK_RTOL * (1 + |loglik|) fell by rounding alone, where the value
    cannot judge the step, and is accepted as the full Newton step, as in
    ``coxph``'s relative-loglik convergence test (Therneau & Grambsch 2000,
    *Modeling Survival Data*, ch. 3).  So the loglik at return is never
    below its value at ``theta`` by more than that.  Trial points are
    evaluated value-only: a step that needs no halving costs one
    derivative evaluation and one value evaluation.

    This is the generalized M-step of the EM (:func:`em._m_step`); the
    next E-step moves the weights at once, so solving to convergence buys
    nothing there.  Repeating the step from its own output converges to
    the maximizer of the partial likelihood.

    Returns
    -------
    CoxFit
        ``beta`` (the full vector) and ``loglik`` after the step;
        ``iterations`` 1 if a step was taken, else 0.  ``converged`` is
        False only when the ascent failed: the gradient was not below
        GRAD_TOL, yet no trial point kept the loglik from falling
        (``beta`` is then ``theta``).

    Raises
    ------
    SeparationError
        If a free coefficient runs away (|beta| > 50), which signals a
        monotone likelihood / infinite MLE.  One step cannot tell a
        coefficient that has stabilized far out from one still moving;
        :func:`check_separation` tests final coefficients (``em.fit``
        calls it).
    DegenerateDataError
        If an event's risk set has zero total weight, or the Hessian of
        the free components is singular.
    """
    theta = np.array(theta, dtype=float)
    free = np.asarray(free, dtype=bool)
    ll, grad, hess = _loglik_parts(sums, theta, order=2)
    if np.abs(grad[free]).max(initial=0.0) < GRAD_TOL:
        return CoxFit(theta, ll, 0, True)
    try:
        step = np.linalg.solve(hess[free][:, free], -grad[free])
    except np.linalg.LinAlgError:
        raise DegenerateDataError("singular Hessian in Cox fit") from None
    new = theta.copy()
    new[free] += step
    # a step far out along a separating direction can overflow the
    # relative risks; its loglik is then -inf or NaN, a failed step to halve
    with np.errstate(over="ignore", invalid="ignore"):
        ll_new = _loglik_parts(sums, new, order=0)[0]
        # a first trial within rounding of ll is not an overshoot
        rounding = ll - ll_new <= LOGLIK_RTOL * (1.0 + abs(ll))
        halvings = 0
        while not (ll_new >= ll or rounding) and halvings < MAX_HALVINGS:
            new = (theta + new) / 2.0
            ll_new = _loglik_parts(sums, new, order=0)[0]
            halvings += 1
    if not (ll_new >= ll or rounding):
        # ascent impossible at numerical precision; keep the old point
        return CoxFit(theta, ll, 0, False)
    if np.max(np.abs(new[free])) > SEPARATION_BOUND:
        raise SeparationError(
            "coefficient exceeded 50 in absolute value; "
            "the partial likelihood appears monotone (infinite MLE)"
        )
    return CoxFit(new, ll_new, 1, True)


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
    at coefficients ``theta``, one per distinct event time.

    The increment on the interval ending at the j-th distinct event time
    is the event count there divided by the interval width times the
    weighted relative-risk sum over the risk set; the piecewise-constant
    hazard is ``BaselineHazard(sums.rs.ets, increments)``.
    """
    rs = sums.rs
    return rs.event_counts / (rs.widths * _risk_terms(sums, theta)[3])
