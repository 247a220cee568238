"""Weighted Cox partial likelihood with per-row offsets, and the baseline
hazard estimator that goes with it.

Rows carry fractional weights in [0, 1] (the EM expands every subject into
a latent-positive and a latent-negative copy whose weights sum to one) and
a fixed additive offset on the log-hazard scale (the profiling mechanism:
a coefficient is held fixed by folding its contribution into the offset
and excluding its column from estimation).  Ties are handled with the
Breslow convention: all events at a tied time share one risk-set
denominator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, SeparationError
from .model import BaselineHazard

__all__ = [
    "RowData",
    "CoxFit",
    "weighted_partial_loglik",
    "fit_weighted_cox",
    "breslow_baseline",
]

GRAD_TOL = 1e-10
LOGLIK_RTOL = 1e-12
MAX_NEWTON_ITER = 50
MAX_HALVINGS = 30
SEPARATION_BOUND = 50.0
# a monotone likelihood flattens out numerically well before the runaway
# bound; a fit that terminates beyond this is quasi-separated
SEPARATION_FLAG = 15.0


class RowData:
    """Columnar row store with the risk-set layout precomputed.

    The layout (sort order, distinct event times, risk-set cut points)
    depends only on times and event indicators, so it is computed once and
    shared across refits that change only weights, e.g. successive EM
    iterations via :meth:`with_weights`.
    """

    __slots__ = (
        "time", "event", "weight", "covariates", "offset",
        "n_rows", "n_cov", "ets", "widths",
        "_order", "_pos", "_ev_rows", "_ev_gid",
    )

    def __init__(self, time, event, weight, covariates, offset=None, _share=None):
        self.time = np.asarray(time, dtype=float)
        self.event = np.asarray(event, dtype=np.int8)
        self.weight = np.asarray(weight, dtype=float)
        cov = np.asarray(covariates, dtype=float)
        if cov.ndim == 1:
            cov = cov[:, None]
        self.covariates = cov
        self.n_rows, self.n_cov = cov.shape
        if offset is None:
            self.offset = np.zeros(self.n_rows)
        else:
            self.offset = np.asarray(offset, dtype=float)
        if _share is not None:
            (self.ets, self.widths, self._order, self._pos,
             self._ev_rows, self._ev_gid) = _share
            return
        if not np.all(self.time > 0):
            raise ValueError("row times must be positive")
        if np.any(self.weight < 0) or np.any(self.weight > 1):
            raise ValueError("row weights must be in [0, 1]")
        self.ets = np.unique(self.time[self.event == 1])
        if self.ets.size == 0:
            raise DegenerateDataError("no event rows")
        self.widths = np.diff(np.concatenate(([0.0], self.ets)))
        self._order = np.argsort(-self.time, kind="stable")
        tdesc = self.time[self._order]
        # number of rows at risk (time >= t) at each distinct event time
        self._pos = np.searchsorted(-tdesc, -self.ets, side="right")
        self._ev_rows = np.flatnonzero(self.event == 1)
        self._ev_gid = np.searchsorted(self.ets, self.time[self._ev_rows])

    def with_weights(self, weight) -> "RowData":
        """Same rows and layout, different weights."""
        return RowData(
            self.time, self.event, weight, self.covariates, self.offset,
            _share=(self.ets, self.widths, self._order, self._pos,
                    self._ev_rows, self._ev_gid),
        )


def _risk_sums(rd: RowData, rel_risk: np.ndarray) -> np.ndarray:
    """Sum of rel_risk over each risk set R_j = {rows with time >= t_(j)}."""
    return np.cumsum(rel_risk[rd._order])[rd._pos - 1]


def _event_weight_sums(rd: RowData) -> np.ndarray:
    """Weighted event count at each distinct event time."""
    return np.bincount(rd._ev_gid, weights=rd.weight[rd._ev_rows],
                       minlength=rd.ets.size)


def _loglik_parts(rd: RowData, beta: np.ndarray, cols: np.ndarray, order: int = 2):
    """Partial loglik over covariate columns ``cols``; ``order`` 0 skips
    the derivatives."""
    X = rd.covariates[:, cols]
    p = X.shape[1]
    eta = X @ beta + rd.offset if p else rd.offset.copy()
    r = rd.weight * np.exp(eta)
    rd_sorted = r[rd._order]
    s0 = np.cumsum(rd_sorted)[rd._pos - 1]
    ew = _event_weight_sums(rd)
    active = ew > 0
    if np.any(s0[active] <= 0):
        raise DegenerateDataError(
            "a risk set containing an event has zero total weight"
        )
    wsum_eta = float(np.sum((rd.weight * eta)[rd._ev_rows]))
    value = wsum_eta - float(np.sum(ew[active] * np.log(s0[active])))
    if order == 0 or p == 0:
        empty = np.zeros((p, p))
        return value, np.zeros(p), empty
    Xd = X[rd._order]
    s1 = np.cumsum(rd_sorted[:, None] * Xd, axis=0)[rd._pos - 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        xbar = np.where(active[:, None], s1 / s0[:, None], 0.0)
    ev_wx = (rd.weight[:, None] * X)[rd._ev_rows]
    grad = ev_wx.sum(axis=0) - (ew[:, None] * xbar).sum(axis=0)
    xx = Xd[:, :, None] * Xd[:, None, :]
    s2 = np.cumsum(rd_sorted[:, None, None] * xx, axis=0)[rd._pos - 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        v = np.where(
            active[:, None, None],
            s2 / s0[:, None, None] - xbar[:, :, None] * xbar[:, None, :],
            0.0,
        )
    hess = -(ew[:, None, None] * v).sum(axis=0)
    return value, grad, hess


@dataclass
class CoxFit:
    """Result of a weighted Cox fit over the free covariate columns."""

    beta: np.ndarray
    loglik: float
    iterations: int
    converged: bool
    gradient_norm: float


def weighted_partial_loglik(rd: RowData, beta):
    """Weighted Breslow-ties partial log-likelihood with derivatives.

    Parameters
    ----------
    rd : RowData
    beta : array of length equal to the number of covariate columns;
        the linear predictor is ``covariates @ beta + offset``.

    Returns
    -------
    (value, gradient, hessian)
        Exact analytic derivatives of the returned value; the Hessian is
        symmetric negative semidefinite.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.size != rd.n_cov:
        raise ValueError(f"beta must have length {rd.n_cov}")
    return _loglik_parts(rd, beta, np.arange(rd.n_cov), order=2)


def fit_weighted_cox(rd: RowData, init_beta=None, free_mask=None) -> CoxFit:
    """Maximize the weighted partial likelihood by Newton ascent.

    ``free_mask`` selects which covariate columns are estimated; excluded
    columns contribute only through the row offsets (the caller folds any
    fixed coefficient times its column into the offsets).  Steps are
    halved until the loglik does not decrease (a trial point whose loglik
    is NaN counts as a decrease), so the loglik at return is never below
    its value at ``init_beta``.

    Raises
    ------
    SeparationError
        If a coefficient runs away (|beta| > 50), which signals a monotone
        likelihood / infinite MLE.
    DegenerateDataError
        If an event's risk set has zero total weight.
    """
    if free_mask is None:
        cols = np.arange(rd.n_cov)
    else:
        cols = np.flatnonzero(np.asarray(free_mask, dtype=bool))
    p = cols.size
    beta = np.zeros(p) if init_beta is None else np.array(init_beta, dtype=float)
    if beta.size != p:
        raise ValueError(f"init_beta must have length {p}")
    ll, grad, hess = _loglik_parts(rd, beta, cols, order=2)
    if p == 0:
        return CoxFit(beta, ll, 0, True, 0.0)
    converged = False
    it = 0
    for it in range(1, MAX_NEWTON_ITER + 1):
        gnorm = float(np.max(np.abs(grad)))
        if gnorm < GRAD_TOL:
            converged = True
            break
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            raise DegenerateDataError("singular Hessian in Cox fit") from None
        new = beta + step
        # a step far out along a separating direction can overflow
        # exp(eta); its loglik is then -inf or NaN, a failed step to halve
        with np.errstate(over="ignore", invalid="ignore"):
            ll_new, g_new, h_new = _loglik_parts(rd, new, cols, order=2)
            halvings = 0
            while not ll_new >= ll and halvings < MAX_HALVINGS:
                new = (beta + new) / 2.0
                ll_new, g_new, h_new = _loglik_parts(rd, new, cols, order=2)
                halvings += 1
        if not ll_new >= ll:
            break  # ascent impossible at numerical precision; keep old point
        if np.max(np.abs(new)) > SEPARATION_BOUND:
            raise SeparationError(
                "coefficient exceeded 50 in absolute value; "
                "the partial likelihood appears monotone (infinite MLE)"
            )
        stalled = abs(ll_new - ll) <= LOGLIK_RTOL * (1.0 + abs(ll))
        beta, ll, grad, hess = new, ll_new, g_new, h_new
        if stalled:
            converged = True
            break
    gnorm = float(np.max(np.abs(grad)))
    if gnorm < GRAD_TOL:
        converged = True
    if np.max(np.abs(beta)) > SEPARATION_FLAG:
        raise SeparationError(
            "a coefficient stabilized beyond 15 in absolute value; "
            "the partial likelihood appears monotone (infinite MLE)"
        )
    return CoxFit(beta, ll, it, converged, gnorm)


def breslow_baseline(rd: RowData, beta) -> BaselineHazard:
    """Piecewise-constant baseline hazard given fitted coefficients.

    The increment on the interval ending at the j-th distinct event time
    is the weighted event count there divided by the interval width times
    the weighted relative-risk sum over the risk set.
    """
    beta = np.asarray(beta, dtype=float)
    eta = rd.covariates @ beta + rd.offset
    s0 = _risk_sums(rd, rd.weight * np.exp(eta))
    ew = _event_weight_sums(rd)
    if np.any(ew <= 0) or np.any(s0 <= 0):
        raise DegenerateDataError(
            "zero weighted event count or empty risk set at an event time"
        )
    return BaselineHazard(rd.ets, ew / (rd.widths * s0))
