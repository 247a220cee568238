"""Profile-likelihood inference and simultaneous confidence intervals.

Confidence intervals invert the profile likelihood-ratio statistic against
its chi-square(1) limit, each endpoint found by rerunning the EM with the
parameter held fixed.  An endpoint search takes Newton steps on the signed
root of the statistic: by the envelope theorem the profile's slope at a
pinned value is the pinned parameter's score at the refit's own state, so
every refit gives the slope with its value, and the search returns the
Newton-corrected point of its last refit.  The endpoint searches and
likelihood-ratio tests of an analysis are independent refits warm-started
from the same fit, so they run in lockstep (:func:`_run_searches`): each
search is a generator that yields its next point and is sent the profile
log-likelihood there, and each round refits every active search's point
as one lane of a single stacked EM (``em._fit_lanes``).  A search follows
the same points as it would alone; only the number of stacked refits
falls, to the longest search's count of points: 3 rounds and 39 stacked
EM maps on the golden trial.  Every standard error, Wald start and
covariance of an analysis comes from one matrix, the 3x3 profile
information of (beta1, beta2, gamma), computed exactly at the EM fixed
point as the Schur complement of the observed-likelihood Hessian over the
nuisance parameters (the baseline hazard jumps and, when it is estimated,
the prevalence); its structure reduces the elimination of the baseline to
one tridiagonal solve.  It is computed once per fit, on first use, and
kept with the fit.  Simultaneous (equicoordinate) intervals for the two
subgroup effects scale the usual normal quantile up to the factor that
gives joint bivariate-normal coverage; adding the overall effect -- the
log concordance odds, a smooth function of the coefficients and the
prevalence -- extends this to a trivariate rectangle, whose probability
is integrated over half of its symmetric range.  Both reports are built
from the fit alone, in one place (:func:`_simultaneous_report`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Mapping, Sequence

import numpy as np

from . import cox, em
from .errors import ConditioningError, DatasetError, DegenerateDataError, SeparationError
from .model import Dataset, DiagnosticModel, EffectParams

__all__ = [
    "Interval",
    "SimultaneousReport",
    "profile_loglik",
    "lr_test",
    "profile_ci",
    "fd_profile_information",
    "bvn_rect_prob",
    "simultaneous_scale",
    "simultaneous_cis",
    "concordance_prob",
    "overall_concordance_report",
]

# the default nominal level of an interval
ALPHA = 0.05
_PARAM_INDEX = {name: i for i, name in enumerate(em.PARAM_NAMES)}
# the subgroup treatment effects (beta1 + gamma, beta1) as rows of
# coefficients on (beta1, beta2, gamma)
_SUBGROUP_ROWS = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
# profile-CI endpoint search: a safeguarded Newton solve of
# sqrt(LR statistic) = sqrt(chi-square quantile) in the distance from the
# estimate.  The signed root of the LR statistic is nearly linear in the
# parameter (Venzon & Moolgavkar 1988), so the solve starts at the Wald
# point and usually stops after 2-3 refits, once the statistic is within
# _LR_TOL of the quantile or the bracket is narrower than _CI_TOL.  An
# endpoint not bracketed within _MAX_REACH_SE profile standard errors, or
# within cox.SEPARATION_BOUND of zero for a coefficient, is returned open.
_MAX_REACH_SE = 4.0 * 2**9
_CI_TOL = 1e-4
_LR_TOL = 1e-4
_SQRT_2PI = math.sqrt(2 * math.pi)  # the normal density's constant
_SQRT_HALF = math.sqrt(0.5)
_STD_NORMAL = NormalDist()
# the normal CDF of an array (_ndtr): Phi(-|x|) = erfc(z) / 2 = exp(-z^2)
# erfcx(z) / 2 with z = |x| / sqrt(2), and erfcx(z) / 2 = 1/2 + v G(s),
# with v = z / (z + 2) and s = 2 v / v_cut - 1 in [-1, 1] for z up to
# _ERFC_CUT (v_cut is v there); G is a polynomial of degree _ERFC_DEGREE
# (_erfcx_polynomial).  Beyond the cut erfcx is held at its value there:
# Phi(-|x|) < 6e-30 there, and it keeps falling as exp(-z^2)
_ERFC_CUT = 8.0
_ERFC_DEGREE = 18
# rectangle and box probabilities (_rectangle, _trivariate_box_prob):
# Gauss-Legendre nodes per smooth piece, the range kept of a coordinate
# integrated against the normal density, fixed breaks, the CDF arguments
# that break a steep strip's ramp and the floor on the Cholesky entries
_TVN_NODES = 12
_TVN_REACH = 8.0
_TVN_BREAKS = np.array([-4.0, -2.0, 0.0, 2.0, 4.0])
_TVN_RAMP_BREAKS = np.array([-6.0, -2.0, 2.0, 6.0])
_TVN_FLOOR = 1e-100
# the equicoordinate scales (_newton_scale) stop once the predicted error
# xi * step**2 of a Newton step is at most _TVN_XTOL, below the box
# probability's own error (~1e-11) over its slope (~0.1).  The trivariate
# scale starts from one sweep of the box probability at _TVN_COARSE_NODES
# nodes per piece over _TVN_SWEEP Chebyshev points of its bracket; from
# there one step on the full box probability usually meets _TVN_XTOL, and
# the result is a root of the full one.
_TVN_XTOL = 1e-10
_TVN_COARSE_NODES = 6
_TVN_SWEEP = 6


def _erfcx_polynomial() -> np.ndarray:
    """The coefficients of G in s (see ``_ERFC_CUT``), highest power first:
    the polynomial interpolating G at the _ERFC_DEGREE + 1 Chebyshev points
    of s, each point's s recomputed from its z as :func:`_ndtr` computes it,
    so the data and the evaluation agree to rounding.  Each value comes
    from erfcx(z) - 1 = erfc(z) expm1(z^2) - erf(z), which does not cancel
    as z -> 0, where G is divided by a small v."""
    cheb = np.polynomial.chebyshev
    v_cut = _ERFC_CUT / (_ERFC_CUT + 2.0)
    v = (cheb.chebpts1(_ERFC_DEGREE + 1) + 1.0) * (0.5 * v_cut)
    z = 2.0 * v / (1.0 - v)
    v = z / (z + 2.0)
    g = [0.5 * (math.erfc(t) * math.expm1(t * t) - math.erf(t)) / u
         for t, u in zip(z.tolist(), v.tolist())]
    coef = np.linalg.solve(cheb.chebvander(v * (2.0 / v_cut) - 1.0, _ERFC_DEGREE), g)
    return cheb.cheb2poly(coef)[::-1].copy()


_ERFCX_POLYNOMIAL = _erfcx_polynomial()
_ERFC_S_SCALE = 2.0 * (_ERFC_CUT + 2.0) / _ERFC_CUT


def _ndtr(x) -> np.ndarray:
    """The standard normal CDF, elementwise, for an array of any shape.

    The smaller tail Phi(-|x|) is exp(-z^2) (1/2 + v G(s)) (see
    ``_ERFC_CUT``), and Phi(x) is that or one minus it.  Against 40-digit
    values on [-40, 40] it errs by at most 1.4e-16, and in the lower tail
    down to x = -11.3 by at most 3e-14 relative, mostly the rounding of
    z^2 (``scipy.special.ndtr``: 1.1e-16 and 1.9e-14).  +-inf give 1 and
    0, and NaN gives NaN.
    """
    x = np.asarray(x, dtype=float)
    # one dimension, so that every step below can work in place on the
    # few arrays it allocates
    flat = x.reshape(-1)
    # Phi(-40) is below the smallest double, and z^2 stays finite
    z = np.abs(flat)
    np.minimum(z, 40.0, out=z)
    z *= _SQRT_HALF
    v = np.minimum(z, _ERFC_CUT)
    s = v + 2.0
    np.divide(v, s, out=v)
    np.multiply(v, _ERFC_S_SCALE, out=s)
    s -= 1.0
    half_erfcx = s * _ERFCX_POLYNOMIAL[0]
    for c in _ERFCX_POLYNOMIAL[1:-1]:
        half_erfcx += c
        half_erfcx *= s
    half_erfcx += _ERFCX_POLYNOMIAL[-1]
    half_erfcx *= v
    half_erfcx += 0.5
    # the tail exp(-z^2) (1/2 + v G(s)), then Phi in z's memory
    np.multiply(z, z, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    half_erfcx *= z
    np.subtract(1.0, half_erfcx, out=z)
    np.copyto(z, half_erfcx, where=flat < 0)
    return z.reshape(x.shape)


def _norm_cdf(x: float) -> float:
    """The standard normal CDF of one number."""
    return 0.5 * math.erfc(-x * _SQRT_HALF)


def _gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * (x + 1.0), 0.5 * w


_GAUSS_LEGENDRE = {n: _gauss_legendre(n) for n in (_TVN_COARSE_NODES, _TVN_NODES)}


def _check_alpha(alpha: float) -> None:
    """The nominal level of an interval or test must lie in (0, 1)."""
    if not 0 < alpha < 1:
        raise DatasetError("alpha must be in (0, 1)")


@dataclass(frozen=True)
class Interval:
    """A confidence interval; an open flag marks an unbracketed endpoint."""

    low: float
    high: float
    open_low: bool = False
    open_high: bool = False

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


@dataclass
class SimultaneousReport:
    """Equicoordinate intervals for the subgroup effects (and optionally
    the overall log concordance odds)."""

    est_pos: float
    est_neg: float
    interval_pos: Interval
    interval_neg: Interval
    xi_alpha: float
    rho: float
    est_overall: float | None = None
    interval_overall: Interval | None = None


def _chi2_sf(x: float) -> float:
    """Chi-square(1) upper tail probability at x >= 0: P(Z^2 > x) =
    erfc(sqrt(x / 2)) for a standard normal Z."""
    return math.erfc(math.sqrt(x / 2.0))


def _chi2_quantile(p: float) -> float:
    """Chi-square(1) quantile at p in [0, 1): the square of the standard
    normal quantile at (1 + p) / 2, taken at its mirror (1 - p) / 2, which
    keeps every digit of 1 - p (``statistics.NormalDist.inv_cdf``, Wichura's
    AS 241, accurate to about 1e-16 relative)."""
    return _STD_NORMAL.inv_cdf((1.0 - p) / 2.0) ** 2


def _pinned_scores(pins: Sequence[Mapping[str, float]], lanes: Sequence) -> list[float]:
    """The score of each lane's one pinned parameter at its converged state
    (``em._Lane``), all coefficients' from one stacked evaluation.

    For a coefficient it is that component of the gradient of the partial
    log-likelihood weighted by the lane's posterior (``cox._loglik_parts``),
    which at an EM fixed point is the observed log-likelihood's.  For a
    held prevalence it is the derivative of the sum of logaddexp(A_i, B_i)
    (:func:`em._e_pass`) in pi, whose prior log-weights are log pi and
    log(1 - pi) plus constants: (sum of w - n pi) / (pi (1 - pi)).
    """
    weights = np.array([lane.weights for lane in lanes])
    sums = cox.RiskSums(lanes[0].workspace.risk_sets, weights)
    grad = cox._loglik_parts(sums, np.array([lane.theta for lane in lanes]))[1]
    scores = []
    for (param,), lane, w, g in zip(pins, lanes, weights, grad.tolist()):
        if param == "pi":
            pi = lane.pi
            scores.append(float((w.sum() - w.size * pi) / (pi * (1.0 - pi))))
        else:
            scores.append(g[_PARAM_INDEX[param]])
    return scores


def profile_loglik(
    data: Dataset,
    diag: DiagnosticModel,
    fixed: Mapping[str, float],
    *,
    max_iter: int = em.MAX_ITER,
    warm: em.FitResult | None = None,
) -> float:
    """Observed log-likelihood maximized with some parameters held fixed.

    ``fixed`` maps names among "beta1", "beta2", "gamma" (and "pi" when
    the prevalence is being estimated) to the values they are pinned at;
    everything else, including the baseline hazard, is profiled out by
    rerunning the EM with the fixed parameters held there: one lane of
    ``em._fit_lanes``, started from the fit ``warm`` when given, else from
    the null start, and capped at ``max_iter`` maps.  A held prevalence
    stays in the joint likelihood of the unconstrained fit, so every value
    is directly comparable with its ``FitResult.obs_loglik``.  The lane's
    exception, such as the ConvergenceError of a refit at the cap, is
    raised.  ``warm`` must have been fitted under ``diag``, else a
    ValueError is raised; ``data`` need not be the Dataset object it was
    fitted to.
    """
    if warm is not None and warm.diag != diag:
        raise ValueError(f"diag {diag} differs from the warm fit's {warm.diag}")
    (lane,) = em._fit_lanes(data, diag, [fixed], max_iter, warm)
    if isinstance(lane, Exception):
        raise lane
    return lane.loglik_trace[-1]


def _run_searches(fit_result: em.FitResult, searches) -> list:
    """Run the profile searches ``searches`` in lockstep; returns each
    one's result, in order.

    A search is a generator that yields the parameter value to pin (a
    ``fixed`` of :func:`profile_loglik` that holds one parameter), is sent
    the profile log-likelihood there and its slope (or the exception its
    refit ended with), and returns its result.  Each round refits every
    active search's point as a lane of one stacked EM warm-started from
    ``fit_result``, on its data, under its diagnostic model and cap
    (``em._fit_lanes``); this is the one place the searches evaluate the
    likelihood.  By the envelope theorem the slope is the pinned
    parameter's score at the refit's own state (:func:`_pinned_scores`).
    A search's sequence of points depends only on its own values, so it
    is the one it would follow alone.
    """
    results = [None] * len(searches)
    pending = {k: next(search) for k, search in enumerate(searches)}
    while pending:
        keys = list(pending)
        pins = [pending[k] for k in keys]
        values = em._fit_lanes(fit_result.data, fit_result.diag, pins,
                               fit_result.max_iter, fit_result)
        done = [i for i, lane in enumerate(values) if not isinstance(lane, Exception)]
        if done:
            scores = _pinned_scores([pins[i] for i in done], [values[i] for i in done])
            for i, score in zip(done, scores):
                values[i] = (values[i].loglik_trace[-1], score)
        for k, value in zip(keys, values):
            try:
                pending[k] = searches[k].send(value)
            except StopIteration as stop:
                results[k] = stop.value
                del pending[k]
    return results


def _refit_failure(exc: Exception, param: str, value: float) -> Exception:
    """``exc``, of the same type, with its message naming the profile
    refit it ended: the parameter and the value it was pinned at."""
    return type(exc)(f"{exc}, in the profile refit at {param} = {value!r}")


def _lr_null(fit_result: em.FitResult, param: str, null_value: float):
    """Search of one point: the likelihood-ratio test of ``param ==
    null_value`` (see :func:`lr_test`)."""
    got = yield {param: null_value}
    if isinstance(got, Exception):
        raise _refit_failure(got, param, null_value) from got
    return _lr_statistic(fit_result.obs_loglik, got[0])


def _lr_statistic(fit_loglik: float, null_loglik: float) -> tuple[float, float]:
    """The likelihood-ratio statistic 2 (``fit_loglik`` - ``null_loglik``),
    clipped at zero, and its chi-square(1) p-value."""
    lam = max(2.0 * (fit_loglik - null_loglik), 0.0)
    return lam, _chi2_sf(lam)


def lr_test(fit_result: em.FitResult, param: str, null_value: float) -> tuple[float, float]:
    """Likelihood-ratio test of ``param == null_value``.

    Returns the statistic (twice the profile log-likelihood drop from the
    unconstrained ``fit_result``, clipped at zero) and its chi-square(1)
    p-value.  The constrained refit, on the fit's own data under its
    diagnostic model, starts from ``fit_result``; one that does not
    converge within the fit's cap (``fit_result.max_iter``) raises its
    ConvergenceError, with the parameter and the null value in its
    message.  (A simulated replication, which fits from scratch anyway,
    refits its gamma = 0 null from the null start instead, beside the fit
    in one stacked EM; the statistic is the same, to the EM's tolerance.)
    """
    # no interval is searched, so the level goes unused
    _, tests = _profile(fit_result, [], ALPHA, tests={param: null_value})
    return tests[param]


def _param_estimate(res: em.FitResult, param: str) -> float:
    if param == "pi":
        return res.pi_hat
    return float(res.theta_hat.as_array()[_PARAM_INDEX[param]])


def _endpoint_search(param: str, direction: int, mle: float, se: float,
                     target: float, fit_loglik: float):
    """Search for the endpoint of ``param``'s profile interval on the side
    ``direction`` (+1 or -1) of its estimate ``mle``: a generator (see
    :func:`_run_searches`) that yields the next point, is sent the profile
    log-likelihood there and returns (endpoint, open flag).

    It solves g(x) = sqrt(lambda(mle + direction * x)) - sqrt(target) = 0
    in the distance x by the safeguarded Newton iteration that
    :func:`profile_ci` describes.  The slope of g comes with each value:
    lambda = 2 (fit_loglik - profile) falls by twice the profile's slope,
    the pinned parameter's score, so g'(x) = -direction * score /
    sqrt(lambda).
    """
    root_target = math.sqrt(target)
    if param == "pi":
        bound = 1.0 - em.PREVALENCE_FLOOR if direction > 0 else em.PREVALENCE_FLOOR
    else:
        bound = min(max(mle + direction * _MAX_REACH_SE * se, -cox.SEPARATION_BOUND),
                    cox.SEPARATION_BOUND)
    reach = abs(bound - mle)

    def at(x: float) -> float:
        return bound if x >= reach else mle + direction * x

    x_in, x_out = 0.0, math.inf  # g(x_in) < 0 <= g(x_out)
    step_last = step_before = math.inf
    x = min(root_target * se, reach)
    while True:
        got = yield {param: at(x)}
        score = None
        if isinstance(got, (SeparationError, DegenerateDataError)):
            # the constrained fit degenerates this far out; certainly
            # outside the confidence region
            lam = math.inf
        elif isinstance(got, Exception):
            raise _refit_failure(got, param, at(x)) from got
        else:
            ll, score = got
            lam = 2.0 * (fit_loglik - ll)
        g = math.sqrt(max(lam, 0.0)) - root_target
        # the Newton step; NaN where no slope is usable
        cand = math.nan
        if score is not None and 0.0 < lam < math.inf:
            slope = -direction * score / math.sqrt(lam)
            if slope > 0:
                cand = x - g / slope
        if g < 0:
            x_in = x
        else:
            x_out = x  # also an infinite or undefined statistic
        if abs(lam - target) < _LR_TOL:
            return at(cand if x_in < cand < x_out and cand <= reach else x), False
        if x_out - x_in < _CI_TOL:
            return at(0.5 * (x_in + x_out)), False
        if math.isinf(x_out):
            if x >= reach:
                return bound, True
            x_new = min(cand if cand > x else 2.0 * x, 2.0 * x, reach)
        elif x_in < cand < x_out and abs(cand - x) < 0.5 * step_before:
            x_new = cand
        else:
            x_new = 0.5 * (x_in + x_out)
        step_before, step_last = step_last, abs(x_new - x)
        x = x_new


def _interval_searches(fit_result: em.FitResult, params: Sequence[str], alpha: float) -> list:
    """The upper and lower endpoint searches of :func:`profile_ci` for each
    of ``params``, in order, at level ``alpha``, with the Wald scales
    :func:`_profile` sets."""
    _check_alpha(alpha)
    for param in params:
        if param not in ("beta1", "beta2", "gamma", "pi"):
            raise ValueError(f"unknown parameter: {param}")
    if any(param != "pi" for param in params):
        variances = np.diag(np.linalg.inv(fd_profile_information(fit_result)))
    target = _chi2_quantile(1.0 - alpha)
    searches = []
    for param in params:
        mle = _param_estimate(fit_result, param)
        if param == "pi":
            se = math.sqrt(max(mle * (1 - mle), 1e-4) / len(fit_result.data))
        else:
            se = math.sqrt(variances[_PARAM_INDEX[param]])
        searches += [_endpoint_search(param, direction, mle, se, target, fit_result.obs_loglik)
                     for direction in (+1, -1)]
    return searches


def profile_ci(fit_result: em.FitResult, param: str, alpha: float = ALPHA) -> Interval:
    """Profile likelihood-ratio confidence interval for one parameter,
    around the unconstrained ``fit_result``, at level 1 - ``alpha``; every
    refit is on the fit's own data under its diagnostic model.

    Each endpoint solves g(x) = sqrt(lambda(estimate +- x)) - sqrt(q) = 0,
    where lambda is the LR statistic, q the chi-square(1) quantile at 1 -
    alpha and x the distance from the estimate, by a safeguarded Newton
    iteration.  The slope of g needs no extra refit: by the envelope
    theorem the profile log-likelihood's slope at a pinned value is the
    pinned parameter's score at the refit's own state, so g' = -(+-score)
    / sqrt(lambda).  The search starts from the Wald point x = sqrt(q) * se
    and takes the Newton step wherever lambda > 0 and g' > 0.  Until g
    changes sign each step grows the distance by at most a factor of 2,
    and without a usable slope it doubles; afterwards the sign change is
    kept as a bracket, and a step that leaves it, that fails to halve the
    step before last or that has no usable slope is replaced by
    bisection.  The search stops when lambda is within 1e-4 of q, and
    returns the Newton-corrected point x - g / g' when that lies inside
    the bracket and the reach (else x); or when the bracket is narrower
    than 1e-4 on the parameter scale, and returns its midpoint.  On the
    golden trial every endpoint then has lambda within 1e-9 of q, after
    2-3 refits.  A constrained fit that separates or degenerates counts as
    lambda = infinity; one that does not converge within the fit's cap
    (``fit_result.max_iter``) raises its ConvergenceError, with the
    parameter and the pinned value in its message.  An endpoint not
    bracketed within 2048 profile standard errors or +-50
    (``cox.SEPARATION_BOUND``), whichever is nearer -- or, for the
    prevalence, within the admissible range -- is returned at that limit
    with its open flag set.

    The two endpoint searches run in lockstep (:func:`_run_searches`): each
    round refits both of their next points as two lanes of one stacked EM.
    """
    intervals, _ = _profile(fit_result, [param], alpha)
    return intervals[param]


def _profile(
    fit_result: em.FitResult,
    params: Sequence[str],
    alpha: float,
    *,
    tests: Mapping[str, float] | None = None,
) -> tuple[dict[str, Interval], dict[str, tuple[float, float]]]:
    """The profile interval of each of ``params`` (:func:`profile_ci`) and
    the likelihood-ratio test of each ``param == null_value`` of ``tests``
    (:func:`lr_test`).

    A coefficient's search starts from its standard error in the fit's
    profile information (:func:`fd_profile_information`), the prevalence's
    from sqrt(pi (1 - pi) / n).  All of the searches run in lockstep
    (:func:`_run_searches`).  For the report of ``mixcox fit`` on
    the golden trial -- eight endpoint searches and three tests -- that is
    three stacked refits (39 EM maps) instead of twenty-three refits one
    after another.
    """
    tests = tests or {}
    searches = _interval_searches(fit_result, params, alpha)
    searches += [_lr_null(fit_result, param, value) for param, value in tests.items()]
    results = _run_searches(fit_result, searches)
    intervals = {}
    for k, param in enumerate(params):
        (high, open_high), (low, open_low) = results[2 * k:2 * k + 2]
        intervals[param] = Interval(low, high, open_low=open_low, open_high=open_high)
    return intervals, dict(zip(tests, results[2 * len(params):]))


def fd_profile_information(fit_result: em.FitResult) -> np.ndarray:
    """Profile information of (beta1, beta2, gamma), exact at the fit: the
    3x3 matrix every standard error and covariance of an analysis is
    derived from.

    The nuisance parameters -- the baseline hazard jumps and, when it is
    estimated and not clipped at ``em.PREVALENCE_FLOOR``, the prevalence --
    are profiled out of the observed log-likelihood.  At the EM fixed
    point ``fit_result`` the observed log-likelihood is stationary in the
    nuisance, so the profile information is the Schur complement of its
    Hessian over the nuisance (Murphy & van der Vaart 2000, JASA 95:449):
    the limit of second differences of the profile log-likelihood as the
    step goes to zero.  It is built in O(n + m) with no refit, on the first
    call for a fit, and kept with the fit (``FitResult._information``,
    read-only): a later call returns the same matrix.

    Subject i contributes logaddexp(A_i, B_i) to the observed
    log-likelihood (:func:`em._e_pass`), with A_i = log prior_pos -
    H_i r_pos + event_i log r_pos and B_i the same for negative status.
    H_i is the sum of the hazard jumps lambda_j up to its K_i-th distinct
    event time, and r_pos, r_neg are its relative risks under either
    status.  With p_i = expit(A_i - B_i), the posterior
    ``fit_result.weights``, the Hessian of logaddexp is
    p A'' + (1 - p) B'' + p (1 - p) (A' - B')(A' - B')^T.  A and B are
    linear in lambda and in the log prior, which is log pi or log(1 - pi)
    plus a constant when the prevalence is estimated; so, in the
    parameters psi = (beta1, beta2, gamma[, pi]) and lambda,

    - H_psipsi is a sum over subjects;
    - H_psilambda = U V, where U is the m x m upper-triangular matrix of
      ones and row k of V sums a per-subject vector over the subjects with
      K_i = k;
    - H_lambdalambda = U diag(C) U^T - D, with C_k the sum of
      p (1 - p) (r_pos - r_neg)^2 over the same subjects and D =
      diag(d_j / lambda_j^2) from the events' sum of d_j log lambda_j.

    Hence H_psilambda H_lambdalambda^-1 H_lambdapsi = V^T (C - T)^-1 V
    with the tridiagonal T = U^-1 D U^-T, one cyclic reduction of the
    tridiagonal C - T (:func:`_tridiagonal_form`).  The prevalence is then
    eliminated from the 4x4 complement.

    Raises
    ------
    ConditioningError
        If C - T meets a zero or non-finite pivot (it is singular), or the
        complement is not positive definite: the fit is not a strict local
        maximum of the likelihood.  Nothing is kept, so every call raises.
    """
    if fit_result._information is not None:
        return fit_result._information
    data = fit_result.data
    ws = em._workspace(data, fit_result)
    rs = ws.risk_sets
    inc, pi = fit_result.baseline.increments, fit_result.pi_hat
    free_pi = (not fit_result.diag.prevalence_known
               and em.PREVALENCE_FLOOR < pi < 1.0 - em.PREVALENCE_FLOOR)
    n_psi = 4 if free_pi else 3
    p = fit_result.weights
    q = p * (1.0 - p)
    jumps = inc * rs.widths
    k = ws.n_events_le
    cum = np.concatenate(([0.0], np.cumsum(jumps)))[k]
    # each subject's relative risk and design row of psi under either
    # status (positive, negative), from the linear predictors by status and
    # arm that em._e_pass uses; the pi slot holds no coefficient
    r_pos, r_neg = np.exp(cox._linear(fit_result.theta_hat.as_array()).take(cox._ETA))[:, ws.arm]
    z_pos, z_neg = np.pad(cox._LINEAR, ((0, 0), (0, n_psi - 3)))[cox._ETA[:, ws.arm]]
    e_pos = data.event - cum * r_pos
    e_neg = data.event - cum * r_neg
    # A' - B' in psi
    diff = z_pos * e_pos[:, None] - z_neg * e_neg[:, None]
    if free_pi:
        diff[:, 3] = 1.0 / (pi * (1.0 - pi))
    hess = ((diff.T * q) @ diff - (z_pos.T * (p * cum * r_pos)) @ z_pos
            - (z_neg.T * ((1.0 - p) * cum * r_neg)) @ z_neg)
    if free_pi:
        hess[3, 3] -= np.sum(p) / pi**2 + np.sum(1.0 - p) / (1.0 - pi)**2
    # per subject: the derivative of the psi score by each jump it has
    # seen (lambda_j, j <= K_i) and its term of C, summed by K_i; a subject
    # with K_i = 0 has seen none
    dr = r_pos - r_neg
    per_subject = np.empty((p.size, n_psi + 1))
    per_subject[:, :n_psi] = (-(p * r_pos)[:, None] * z_pos
                              - ((1.0 - p) * r_neg)[:, None] * z_neg
                              - (q * dr)[:, None] * diff)
    per_subject[:, n_psi] = q * dr * dr
    grouped = np.stack([np.bincount(k, weights=col, minlength=ws.m + 1)[1:]
                        for col in per_subject.T], axis=1)
    v, c = grouped[:, :n_psi], grouped[:, n_psi]
    d = rs.event_counts / jumps**2
    info = _tridiagonal_form(c - d - np.append(d[1:], 0.0), d[1:], v) - hess
    info = 0.5 * (info + info.T)
    _require_positive_definite(info)
    if free_pi:
        info = info[:3, :3] - np.outer(info[:3, 3], info[3, :3]) / info[3, 3]
    info.flags.writeable = False
    fit_result._information = info
    return info


def _tridiagonal_form(diagonal: np.ndarray, off: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v^T A^-1 v for the symmetric tridiagonal m x m matrix A with
    diagonal ``diagonal`` and off-diagonal ``off`` (length m - 1), and v of
    shape (m, k), by odd-even cyclic reduction.

    The even rows of a tridiagonal system are coupled only to the odd
    ones, so with E the even rows and O the odd ones v^T A^-1 v = v_E^T
    A_EE^-1 v_E + w^T S^-1 w, where A_EE is diagonal, w = v_O - A_OE
    A_EE^-1 v_E and the Schur complement S = A_OO - A_OE A_EE^-1 A_EO is
    again tridiagonal, of half the size.  Each level adds the even rows'
    term and passes (S, w) on, until one row is left: log2(m) levels of
    O(m) array operations, with no back substitution.  The system is first
    padded to 2^L - 1 rows with decoupled identity rows, so every odd row
    has both neighbours at every level.

    There is no pivoting: the pivots are the diagonals of the successive
    Schur complements, which stay negative for a negative definite A (a
    strict local maximum), where the reduction is stable.

    Raises
    ------
    ConditioningError
        If a pivot is zero or not finite: A is singular.
    """
    m = diagonal.size
    size = (1 << m.bit_length()) - 1
    d = np.ones(size)
    d[:m] = diagonal
    # the negated off-diagonal, which saves a negation per level
    f = np.zeros(size - 1)
    f[:m - 1] = -off
    r = np.zeros((size, v.shape[1]))
    r[:m] = v
    rows, scaled, pivots = [], [], []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            piv = d[0::2]
            q = 1.0 / piv
            w = r[0::2] * q[:, None]
            rows.append(r[0::2])
            scaled.append(w)
            pivots.append(piv)
            if d.size == 1:
                break
            # each odd row's couplings to the even rows below and above it
            below, above = f[0::2], f[1::2]
            to_below, to_above = below * q[:-1], above * q[1:]
            d = d[1::2] - to_below * below - to_above * above
            f = to_above[:-1] * below[1:]
            r = r[1::2] + below[:, None] * w[:-1] + above[:, None] * w[1:]
    piv = np.concatenate(pivots)
    if not (np.isfinite(piv).all() and piv.all()):
        raise ConditioningError(
            "the observed information of the baseline hazard is singular")
    return np.concatenate(rows).T @ np.concatenate(scaled)


def _require_positive_definite(info: np.ndarray) -> None:
    if np.any(np.linalg.eigvalsh(info) <= 0):
        raise ConditioningError(
            "profile information is not positive definite; the fit is not "
            "a strict local maximum of the likelihood"
        )


def _rectangle(lo1, hi1, lo2, hi2, slope, scale) -> np.ndarray:
    """P(lo1 <= U <= hi1, lo2 <= slope U + scale V <= hi2) for independent
    standard normal U and V, per entry of the arguments (arrays of one
    shape, scale > 0): the integral of phi(u) [Phi((hi2 - slope u) / scale)
    - Phi((lo2 - slope u) / scale)] over u in [lo1, hi1], by piecewise
    Gauss-Legendre quadrature with ``_TVN_NODES`` nodes per piece
    (:func:`_normal_pieces`).

    The pieces break at 0, +-2 and +-4, and |u| > 8 is dropped
    (probability < 1.3e-15).  A strip steeper than the diagonal (|slope| >
    scale) also gets breaks where its CDF arguments are -6, -2, 2 and 6,
    so no piece holds the whole of a CDF's ramp: as scale -> 0 the ramps
    become layers of width scale / |slope| that the pieces then resolve,
    and the probability needs no separate formula there.
    """
    lo2, hi2, slope, scale = (a[..., None] for a in (lo2, hi2, slope, scale))
    cuts = _TVN_BREAKS + np.zeros_like(scale)
    steep = np.abs(slope) > scale
    if steep.any():
        # a gentle strip's ramp breaks fall on 0, already a break
        ramp = np.concatenate([hi2 - scale * _TVN_RAMP_BREAKS, lo2 - scale * _TVN_RAMP_BREAKS],
                              axis=-1) / np.where(steep, slope, np.inf)
        cuts = np.concatenate([ramp, cuts], axis=-1)
    u, w = _normal_pieces(np.maximum(lo1, -_TVN_REACH), np.minimum(hi1, _TVN_REACH), cuts)
    cdf = _ndtr((np.stack((hi2, lo2)) - slope * u) / scale)
    return np.add.reduce(w * (cdf[0] - cdf[1]), axis=-1)


def bvn_rect_prob(xi: float, rho: float) -> float:
    """P(|X1| <= xi and |X2| <= xi) for standard bivariate normal with
    correlation rho: the conditional-normal integral of phi(u) [Phi((xi -
    rho u) / s) - Phi((-xi - rho u) / s)] over |u| <= xi, s = sqrt(1 -
    rho**2), by piecewise Gauss-Legendre quadrature (:func:`_rectangle`).

    Its pieces break on the integrand's boundary layers of width s at u =
    +-xi as |rho| -> 1, so only |rho| = 1 itself is a special case.  It
    agrees with adaptive quadrature (``scipy.integrate.quad``, with the
    layers integrated on their own for 1 - |rho| < 1e-5) to 4.9e-13 for
    xi in [0.3, 4.5] and rho in [-0.99, 0.99] or within 1e-5 of +-1.
    """
    if not xi > 0:
        raise ValueError("xi must be positive")
    if not -1.0 <= rho <= 1.0:
        raise ValueError("rho must be in [-1, 1]")
    r = abs(rho)
    if r == 1.0:
        return math.erf(xi * _SQRT_HALF)
    s = math.sqrt((1.0 - r) * (1.0 + r))
    return float(_rectangle(*np.array([-xi, xi, -xi, xi, rho, s])[:, None])[0])


def _bvn_rect_slope(xi: float, rho: float) -> float:
    """d/dxi of :func:`bvn_rect_prob`: the density on the four edges of
    the square, 4 phi(xi) [Phi(xi (1 - rho) / s) - Phi(-xi (1 + rho) / s)]
    with s = sqrt(1 - rho**2), that is 4 phi(xi) P(|X2| <= xi | X1 = xi)."""
    density = math.exp(-0.5 * xi * xi) / _SQRT_2PI
    if abs(rho) == 1.0:
        return 2.0 * density
    return 4.0 * density * (_norm_cdf(xi * math.sqrt((1.0 - rho) / (1.0 + rho)))
                            - _norm_cdf(-xi * math.sqrt((1.0 + rho) / (1.0 - rho))))


def _newton_scale(coverage, slope, target: float, lo: float, hi: float,
                  x: float, tol: float = _TVN_XTOL) -> float:
    """The xi in [lo, hi] with ``coverage(xi) = target``, by Newton's
    method from ``x`` with the derivative ``slope``.

    The coverage is increasing and concave on the equicoordinate brackets,
    so Newton's method from the left end never overshoots, and |P''/P'|
    is at most about xi there: a step delta leaves an error below xi *
    delta**2 / 2.  The solve stops once xi * delta**2 <= ``tol`` and
    returns the point after that step.  Each value narrows the bracket
    [lo, hi]; a step that would leave it, that meets a slope not positive
    or that fails to halve the Newton step before it is replaced by
    bisection, which stops when the bracket is narrower than ``tol``.
    """
    last = math.inf
    while True:
        p = coverage(x)
        if p < target:
            lo = x
        else:
            hi = x
        d = slope(x)
        step = (target - p) / d if d > 0 else math.nan
        if lo <= x + step <= hi and abs(step) <= 0.5 * last:
            if x * step * step <= tol:
                return x + step
            last = abs(step)
            x += step
        else:
            x = 0.5 * (lo + hi)
            if hi - lo <= tol:
                return x


def _scale_bracket(alpha: float, dims: int) -> tuple[float, float]:
    """The bracket of an equicoordinate scale in ``dims`` dimensions: from
    the univariate normal quantile (perfect correlation) to the Sidak
    quantile (independence), widened by 1e-9 and 1e-6."""
    lo = _STD_NORMAL.inv_cdf(1.0 - alpha / 2) - 1e-9
    hi = _STD_NORMAL.inv_cdf(0.5 * (1.0 + (1.0 - alpha) ** (1.0 / dims))) + 1e-6
    return lo, hi


def simultaneous_scale(rho: float, alpha: float) -> float:
    """Equicoordinate scaling factor: the xi with joint bivariate-normal
    coverage 1 - alpha at correlation rho.

    The coverage (:func:`bvn_rect_prob`) is smooth, increasing and concave
    in xi on the bracket from the univariate normal quantile (|rho| = 1) to
    the Sidak-corrected quantile (rho = 0).  Newton's method with the
    closed-form slope (:func:`_newton_scale`) solves it from the left end
    until the predicted error is below 1e-10: 4-5 rectangle probabilities,
    with a coverage error below 1e-11.  The result always lies in the
    bracket.
    """
    _check_alpha(alpha)
    lo, hi = _scale_bracket(alpha, 2)
    return _newton_scale(lambda xi: bvn_rect_prob(xi, rho),
                         lambda xi: _bvn_rect_slope(xi, rho), 1.0 - alpha, lo, hi, lo)


# the four latent-status pairings (positive-positive, negative-negative
# and the two mixed ones) of concordance_prob: each pairing's expit
# argument as a row of coefficients on (beta1, beta2, gamma); the first
# two are the subgroup effects
_CONCORDANCE_ARGS = np.vstack([_SUBGROUP_ROWS, [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]]])


def _concordance_terms(theta_arr: np.ndarray, pi: float) -> tuple[np.ndarray, np.ndarray]:
    """The prevalence weights of the four pairings and their expit terms."""
    mix = np.array([pi * pi, (1 - pi) * (1 - pi), pi * (1 - pi), pi * (1 - pi)])
    return mix, em._expit(_CONCORDANCE_ARGS @ theta_arr)


def concordance_prob(theta: EffectParams, pi: float) -> float:
    """Probability that a random control subject outlives a random treated
    subject, mixing the four latent-status pairings by prevalence:
    pi^2 expit(beta1 + gamma) + (1 - pi)^2 expit(beta1)
    + pi (1 - pi) [expit(beta1 + beta2 + gamma) + expit(beta1 - beta2)]."""
    if not 0 < pi < 1:
        raise ValueError("pi must be in (0, 1)")
    mix, s = _concordance_terms(theta.as_array(), pi)
    return float(sum(mix * s))


def _log_concordance_odds(theta_arr: np.ndarray, pi: float) -> float:
    return float(em._logit(concordance_prob(EffectParams.from_array(theta_arr), pi)))


def _log_concordance_odds_grad(theta_arr: np.ndarray, pi: float) -> np.ndarray:
    """Gradient of logit P in (beta1, beta2, gamma), P = concordance_prob:
    P' / (P (1 - P)), where each expit term s has derivative s (1 - s)."""
    mix, s = _concordance_terms(theta_arr, pi)
    prob = mix @ s
    return (mix * s * (1.0 - s)) @ _CONCORDANCE_ARGS / (prob * (1.0 - prob))


def _trivariate_factor(corr: np.ndarray) -> tuple[float, ...]:
    """Lower Cholesky factor (l11, l21, l31, l22, l32, l33) of a 3x3
    correlation matrix, reordered and sign-flipped for the box probability.

    The least correlated pair comes first, which keeps l22 as large as it
    can be, so a near-singular matrix shows up in l33 alone.  The third
    coordinate's sign is chosen to make l32 >= 0; |Z3| is unchanged.  l22,
    l32 and l33 are floored at a tiny positive value and l32 is held to its
    Cauchy-Schwarz bound, so a singular or slightly indefinite matrix gives
    a usable factor.
    """
    i, j = min(((0, 1), (0, 2), (1, 2)), key=lambda pair: abs(corr[pair]))
    order = [i, j, 3 - i - j]
    c = corr[np.ix_(order, order)]
    l11 = math.sqrt(c[0, 0])
    l21 = c[1, 0] / l11
    l31 = c[2, 0] / l11
    l22 = math.sqrt(max(c[1, 1] - l21 * l21, _TVN_FLOOR**2))
    rest3 = max(c[2, 2] - l31 * l31, 0.0)
    cross = c[2, 1] - l31 * l21
    l32 = min(abs(cross) / l22, math.sqrt(rest3))
    if cross < 0:
        l31 = -l31
    l33 = math.sqrt(max(rest3 - l32 * l32, _TVN_FLOOR**2))
    return l11, l21, l31, l22, max(l32, _TVN_FLOOR), l33


def _normal_pieces(lo, hi, cuts, nodes: int = _TVN_NODES):
    """Nodes and weights for the integral of phi(y) f(y) dy over [lo, hi]:
    Gauss-Legendre with ``nodes`` nodes on every piece between the sorted
    ``cuts`` inside (lo, hi); a cut outside or NaN would only make a piece
    of zero width.  ``lo`` and ``hi`` have the shape of ``cuts`` without
    its last axis, and so do the leading axes of the results, whose rows
    all have as many pieces as the fullest: the others' last pieces lie at
    ``hi``, with weight 0."""
    gl_nodes, gl_weights = _GAUSS_LEGENDRE[nodes]
    lo, hi = lo[..., None], hi[..., None]
    cuts = np.sort(np.where((cuts > lo) & (cuts < hi), cuts, hi), axis=-1)
    inside = np.max(np.sum(cuts < hi, axis=-1))
    ends = np.concatenate([lo, cuts[..., :inside], hi], axis=-1)
    start = ends[..., :-1, None]
    width = ends[..., 1:, None] - start
    y = (start + width * gl_nodes).reshape(*ends.shape[:-1], -1)
    w = (width * gl_weights).reshape(y.shape) * np.exp(-0.5 * y * y) / _SQRT_2PI
    return y, w


def _trivariate_box_prob(xi, corr: np.ndarray, nodes: int = _TVN_NODES):
    """P(|Z_k| <= xi, k = 1, 2, 3) for a trivariate standard normal with
    correlation ``corr``, by piecewise Gauss-Legendre quadrature with
    ``nodes`` nodes per piece, in one evaluation at every entry of ``xi``.

    With Z = L Y (Y standard normal, L from :func:`_trivariate_factor`)
    the probability is E[Q(Y3)], where Q(y3) is the bivariate normal mass
    of the polygon the three strips |Z_k| <= xi cut out of the (y1, y2)
    plane.  Y -> -Y maps the box to itself, so Q is even and the
    probability is twice the integral over y3 >= 0.  Q is integrated over
    y1 with y2 in closed form (a difference of normal CDFs between the
    tightest strip limits).  Every kink of the integrands is a break
    between pieces: in y1, where an edge of the Z3 strip crosses an edge
    of the Z2 strip; in y3, where a Z3 edge passes a vertex of the |Z1|,
    |Z2| <= xi parallelogram.  Fixed breaks (in y1 at 0, +-2 and +-4, in
    y3 at 2 and 4) keep the pieces of both short.  A strip whose edges
    are steeper than the diagonal of the (y1, y2) plane also gets y1
    breaks where its CDF argument is -6, -2, 2 and 6, so that no piece
    holds the whole of that CDF's ramp.  Each piece is then smooth, and a
    near-singular matrix (l33 -> 0: the overall contrast nearly a
    combination of the subgroup effects, as is usual) costs no accuracy.
    |y3| > 8 is dropped (probability < 1.3e-15).
    """
    l11, l21, l31, l22, l32, l33 = _trivariate_factor(np.asarray(corr, dtype=float))
    xi = np.asarray(xi, dtype=float)
    # xi against one further axis, and against two
    x1, x2 = xi[..., None], xi[..., None, None]
    sign = np.array([-1.0, 1.0])
    y1_vertex = sign[:, None] * x2 / l11
    y2_vertex = (sign * x2 - l21 * y1_vertex) / l22
    m_vertex = (l31 * y1_vertex + l32 * y2_vertex).reshape(xi.shape + (4,))
    # Q is even, and the vertices come in pairs m, -m, so the kinks at y3
    # >= 0 are the |(xi - m) / l33|
    breaks3 = np.broadcast_to(_TVN_BREAKS[_TVN_BREAKS > 0], xi.shape + (2,))
    cuts3 = np.concatenate([np.abs((x1 - m_vertex) / l33), breaks3], axis=-1)
    y3, w3 = _normal_pieces(np.zeros(xi.shape), np.full(xi.shape, _TVN_REACH), cuts3, nodes)
    w3 *= 2.0
    # the Z3 strip at y3: l31 y1 + l32 y2 in [lo3, hi3]
    lo3 = -x1 - l33 * y3
    hi3 = x1 - l33 * y3
    det = l31 * l22 - l21 * l32
    # parallel edges (det = 0) do not cross: their cut is not finite
    with np.errstate(divide="ignore", invalid="ignore"):
        cuts1 = [np.stack([(edge3 * l22 - edge2 * l32) / det
                           for edge3 in (lo3, hi3) for edge2 in (-x1, x1)], axis=-1),
                 np.broadcast_to(_TVN_BREAKS, y3.shape + _TVN_BREAKS.shape)]
    ramp = _TVN_RAMP_BREAKS
    if abs(l21) > l22:
        z2_ramp = np.concatenate([(-x1 - l22 * ramp) / l21, (x1 - l22 * ramp) / l21], axis=-1)
        cuts1.append(np.broadcast_to(z2_ramp[..., None, :], y3.shape + z2_ramp.shape[-1:]))
    if abs(l31) > l32:
        cuts1.append(np.concatenate([lo3[..., None] - l32 * ramp,
                                     hi3[..., None] - l32 * ramp], axis=-1) / l31)
    lo1 = np.broadcast_to(-x1 / l11, y3.shape)
    y1, w1 = _normal_pieces(lo1, -lo1, np.concatenate(cuts1, axis=-1), nodes)
    lo2 = np.maximum((-x2 - l21 * y1) / l22, (lo3[..., None] - l31 * y1) / l32)
    hi2 = np.minimum((x2 - l21 * y1) / l22, (hi3[..., None] - l31 * y1) / l32)
    cdf = _ndtr(np.stack((hi2, lo2)))
    inner = np.maximum(cdf[0] - cdf[1], 0.0)
    return np.vecdot(w3, np.sum(w1 * inner, axis=-1))


def _box_slope(xi: float, corr: np.ndarray) -> float:
    """d/dxi of :func:`_trivariate_box_prob`: the density on the six faces
    of the box, 2 phi(xi) sum_k P(|Z_i| <= xi, |Z_j| <= xi | Z_k = xi),
    the faces Z_k = -xi mirroring Z_k = xi.

    Given Z_k = xi, (Z_i, Z_j) is normal with means rho_ik xi and rho_jk
    xi, variances 1 - rho_ik**2 and 1 - rho_jk**2 and covariance c =
    rho_ij - rho_ik rho_jk, so each term is a noncentral rectangle
    (:func:`_rectangle`, the three in one call): Z_i = mean + sd_i U with
    i the coordinate of larger variance, and Z_j = mean + (c / sd_i) U +
    t V.  The standard deviations are floored at a tiny positive value, so
    a singular matrix gives a usable, if not always exact, slope.
    """
    lo1, hi1, lo2, hi2, slope, scale = (np.empty(3) for _ in range(6))
    for k in range(3):
        i, j = sorted((n for n in range(3) if n != k), key=lambda n: abs(corr[n, k]))
        sd_i = math.sqrt(max(1.0 - corr[i, k] ** 2, _TVN_FLOOR**2))
        slope[k] = (corr[i, j] - corr[i, k] * corr[j, k]) / sd_i
        scale[k] = math.sqrt(max(1.0 - corr[j, k] ** 2 - slope[k] ** 2, _TVN_FLOOR**2))
        lo1[k] = (-xi - corr[i, k] * xi) / sd_i
        hi1[k] = (xi - corr[i, k] * xi) / sd_i
        lo2[k] = -xi - corr[j, k] * xi
        hi2[k] = xi - corr[j, k] * xi
    faces = _rectangle(lo1, hi1, lo2, hi2, slope, scale)
    return 2.0 * math.exp(-0.5 * xi * xi) / _SQRT_2PI * float(np.sum(faces))


def _equicoordinate_scale_mvn(corr: np.ndarray, alpha: float) -> float:
    """Equicoordinate quantile of a trivariate standard normal with the
    given correlation matrix: the xi with P(|Z_k| <= xi for all k) = 1 -
    alpha for the box probability of :func:`_trivariate_box_prob`.

    The bracket runs from the univariate normal quantile (perfect
    correlation) to the Sidak quantile (independence).  One call evaluates
    the box probability at ``_TVN_COARSE_NODES`` nodes per piece on the
    ``_TVN_SWEEP`` Chebyshev points of the bracket, ends included.  Newton's
    method with the closed-form slope (:func:`_box_slope`,
    :func:`_newton_scale`) starts from the root of their Chebyshev
    interpolant between the two points where the sweep crosses 1 - alpha
    (the left end if there is none) and steps on the full box probability
    to 1e-10, so the result is a root of the full one and the sweep only
    saves time.  On both golden analyses, and on 200 random correlation
    matrices at alpha = 0.01, 0.05 and 0.2, that is one sweep, 1 full box
    probability and 1 slope.  The result is never below the univariate
    quantile.  The box probability agrees with the same quadrature at 40
    nodes per piece to 1e-11 on 1,000 random (matrix, xi) pairs,
    near-singular and near rank-1 matrices included, and with a 1024 x
    1024 tensor grid to 3e-15 on the golden trial's.
    """
    corr = np.asarray(corr, dtype=float)
    target = 1.0 - alpha
    lo, hi = _scale_bracket(alpha, 3)
    cheb = np.polynomial.chebyshev
    t = cheb.chebpts2(_TVN_SWEEP)
    gap = _trivariate_box_prob(lo + (hi - lo) * 0.5 * (t + 1.0), corr,
                               nodes=_TVN_COARSE_NODES) - target
    # the root between the two sweep points where the coarse gap changes sign
    k = min(max(int(np.searchsorted(gap, 0.0)), 1), _TVN_SWEEP - 1)
    roots = cheb.chebroots(np.linalg.solve(cheb.chebvander(t, _TVN_SWEEP - 1), gap))
    roots = roots.real[(roots.imag == 0) & (roots.real >= t[k - 1]) & (roots.real <= t[k])]
    x = lo + (hi - lo) * 0.5 * (roots[0] + 1.0) if roots.size else lo
    return float(_newton_scale(lambda xi: _trivariate_box_prob(xi, corr),
                               lambda xi: _box_slope(xi, corr), target, lo, hi, x))


def _simultaneous_report(fit_result: em.FitResult, alpha: float,
                         overall: bool) -> SimultaneousReport:
    """Equicoordinate intervals at joint level 1 - ``alpha`` for the effects
    of :func:`simultaneous_cis`, or with ``overall`` of
    :func:`overall_concordance_report`, from the fit alone.

    Each effect is a row of coefficients on (beta1, beta2, gamma): the two
    subgroup effects (``_SUBGROUP_ROWS``) and, for the overall effect, the
    gradient of the log concordance odds at the estimate.  Their covariance
    is the delta method on the fit's profile information
    (:func:`fd_profile_information`), rows I^-1 rows^T, symmetrized; the
    common scale is the bivariate (:func:`simultaneous_scale`) or trivariate
    (``_equicoordinate_scale_mvn``) equicoordinate quantile of its
    correlation.
    """
    _check_alpha(alpha)
    center, pi = fit_result.theta_hat.as_array(), fit_result.pi_hat
    rows, est = _SUBGROUP_ROWS, list(_SUBGROUP_ROWS @ center)
    if overall:
        rows = np.vstack([rows, _log_concordance_odds_grad(center, pi)])
        est.append(_log_concordance_odds(center, pi))
    sigma = rows @ np.linalg.inv(fd_profile_information(fit_result)) @ rows.T
    sigma = 0.5 * (sigma + sigma.T)
    sds = np.sqrt(np.diag(sigma))
    corr = sigma / np.outer(sds, sds)
    rho = float(corr[0, 1])
    xi = _equicoordinate_scale_mvn(corr, alpha) if overall else simultaneous_scale(rho, alpha)
    intervals = [Interval(e - xi * sd, e + xi * sd) for e, sd in zip(est, sds)]
    return SimultaneousReport(est[0], est[1], intervals[0], intervals[1], xi, rho,
                              *est[2:], *intervals[2:])


def simultaneous_cis(fit_result: em.FitResult, alpha: float = ALPHA) -> SimultaneousReport:
    """Equicoordinate intervals for the treatment effect in the
    biomarker-positive (beta1 + gamma) and -negative (beta1) groups of the
    unconstrained ``fit_result``, at joint bivariate-normal coverage 1 -
    ``alpha`` (:func:`_simultaneous_report`)."""
    return _simultaneous_report(fit_result, alpha, overall=False)


def overall_concordance_report(fit_result: em.FitResult,
                               alpha: float = ALPHA) -> SimultaneousReport:
    """Three-way simultaneous intervals for the unconstrained ``fit_result``:
    both subgroup effects plus the overall log concordance odds
    (:func:`_simultaneous_report`), with the overall effect's gradient in
    closed form.

    The prevalence is held at its estimate, so its sampling uncertainty is
    not propagated into the overall effect.  The common scale ``xi_alpha``
    is a root of the deterministic trivariate box probability to 1e-10 at
    joint coverage 1 - ``alpha``: one coarse sweep of the bracket, then
    Newton's method with the closed-form slope on the full box probability
    (see ``_equicoordinate_scale_mvn``).
    """
    return _simultaneous_report(fit_result, alpha, overall=True)
