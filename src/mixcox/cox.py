"""Weighted Cox partial likelihood of the EM's latent-status expansion, and
the baseline hazard estimator that goes with it.

The M-step fits a Cox model in which every subject appears twice, with
its own time and event indicator: as a latent-positive row with weight
``w`` and linear predictor ``eta1 = beta1*x + beta2 + gamma*x``, and as a
latent-negative row with weight ``1 - w`` and ``eta0 = beta1*x``, where
``x`` is the 0/1 treatment.  The design columns are (x, z, x*z) with the
latent status z = 1 on the first row and 0 on the second.  Two facts let
every computation run over the n subjects instead of the 2n rows:

- The two rows of a subject share its time, so they enter the same risk
  sets.  Every risk-set sum is a sum over subjects of
  ``r = w*exp(eta1) + (1 - w)*exp(eta0)``, and the weighted event count
  at a time is the integer count there, because w + (1 - w) = 1.
- Every design column is 0/1, so the product of two columns is again a
  column: x*x = x, z*z = z, and every other product is x*z.  The
  Hessian's second moments are therefore the gradient's first moments.

One evaluation thus needs the cumulative sums of r for the value and of
x*r, ``a = w*exp(eta1)`` and x*a for the derivatives.  Coefficients are
always the full vector theta = (beta1, beta2, gamma); holding one fixed
means the Newton step leaves that component alone.  Ties follow the
Breslow convention: all events at a tied time share one risk-set
denominator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, SeparationError
from .model import BaselineHazard

__all__ = ["RiskSets", "CoxFit", "fit_weighted_cox", "breslow_baseline"]

GRAD_TOL = 1e-10
MAX_HALVINGS = 30
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

    __slots__ = ("ets", "widths", "event_counts", "_order", "_pos", "_xs",
                 "_ev", "_xd")

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
        # number of subjects at risk (time >= t) at each distinct event time
        self._pos = np.searchsorted(-time[self._order], -self.ets, side="right")
        self._ev = np.flatnonzero(event)
        self._xd = x[self._ev]


def _risk_set_sums(rs: RiskSets, w: np.ndarray, theta):
    """(a, r, s0): ``a`` and ``r`` per subject in descending-time order,
    and the risk-set totals of r at each distinct event time."""
    b1, b2, g = theta
    ws = w[rs._order]
    eta0 = b1 * rs._xs
    a = ws * np.exp(eta0 + b2 + g * rs._xs)
    r = a + (1.0 - ws) * np.exp(eta0)
    s0 = np.cumsum(r)[rs._pos - 1]
    if np.any(s0 <= 0):
        raise DegenerateDataError(
            "a risk set containing an event has zero total weight"
        )
    return a, r, s0


def _loglik_parts(rs: RiskSets, w: np.ndarray, theta, order: int = 2):
    """Partial loglik of the expansion weighted by ``w`` at the full
    coefficient vector ``theta``, with its gradient and Hessian; ``order``
    0 skips the derivatives (returned as None)."""
    a, r, s0 = _risk_set_sums(rs, w, theta)
    wd = w[rs._ev]
    # weighted design sums over the event rows: (x, z, x*z)
    ev = np.array([rs._xd.sum(), wd.sum(), wd @ rs._xd])
    value = float(ev @ theta) - float(rs.event_counts @ np.log(s0))
    if order == 0:
        return value, None, None
    xs = rs._xs
    # risk-set means of the columns x, z and x*z at each event time
    means = np.cumsum(np.stack((xs * r, a, xs * a)), axis=1)[:, rs._pos - 1] / s0
    m1, m2, m3 = first = means @ rs.event_counts
    grad = ev - first
    second = np.array([[m1, m3, m3], [m3, m2, m3], [m3, m3, m3]])
    hess = (means * rs.event_counts) @ means.T - second
    return value, grad, hess


@dataclass
class CoxFit:
    """Result of one safeguarded Newton step on the weighted partial
    likelihood."""

    beta: np.ndarray
    loglik: float
    iterations: int
    converged: bool


def fit_weighted_cox(rs: RiskSets, w, theta, free) -> CoxFit:
    """One safeguarded Newton ascent step on the weighted partial likelihood.

    ``theta`` is the full coefficient vector (beta1, beta2, gamma) and the
    boolean mask ``free`` selects the components the step may move; the
    others keep their values.  The Newton step from ``theta`` is halved
    until the loglik does not decrease (a trial point whose loglik is NaN
    counts as a decrease), so the loglik at return is never below its
    value at ``theta``.  Trial points are evaluated value-only: a step
    that needs no halving costs one derivative evaluation and one value
    evaluation.

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
        GRAD_TOL, yet no halved step kept the loglik from falling (``beta``
        is then ``theta``).

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
    ll, grad, hess = _loglik_parts(rs, w, theta, order=2)
    if np.max(np.abs(grad[free]), initial=0.0) < GRAD_TOL:
        return CoxFit(theta, ll, 0, True)
    try:
        step = np.linalg.solve(hess[np.ix_(free, free)], -grad[free])
    except np.linalg.LinAlgError:
        raise DegenerateDataError("singular Hessian in Cox fit") from None
    new = theta.copy()
    new[free] += step
    # a step far out along a separating direction can overflow
    # exp(eta); its loglik is then -inf or NaN, a failed step to halve
    with np.errstate(over="ignore", invalid="ignore"):
        ll_new = _loglik_parts(rs, w, new, order=0)[0]
        halvings = 0
        while not ll_new >= ll and halvings < MAX_HALVINGS:
            new = (theta + new) / 2.0
            ll_new = _loglik_parts(rs, w, new, order=0)[0]
            halvings += 1
    if not ll_new >= ll:
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


def breslow_baseline(rs: RiskSets, w, theta) -> BaselineHazard:
    """Piecewise-constant baseline hazard of the expansion weighted by
    ``w`` at coefficients ``theta``.

    The increment on the interval ending at the j-th distinct event time
    is the event count there divided by the interval width times the
    weighted relative-risk sum over the risk set.
    """
    s0 = _risk_set_sums(rs, w, theta)[2]
    return BaselineHazard(rs.ets, rs.event_counts / (rs.widths * s0))
