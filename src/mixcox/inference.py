"""Profile-likelihood inference and simultaneous confidence intervals.

Confidence intervals invert the profile likelihood-ratio statistic against
its chi-square(1) limit; the curvature of the profile log-likelihood is
approximated with one-sided second differences of profiled evaluations,
each obtained by rerunning the EM with the relevant coefficients held
fixed through offsets.  Simultaneous (equicoordinate) intervals for the
two subgroup effects scale the usual normal quantile up to the factor
that gives joint bivariate-normal coverage; adding the overall effect --
the log concordance odds, a smooth function of the coefficients and the
prevalence -- extends this to a trivariate rectangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy import integrate, stats
from scipy.special import expit, logit, ndtr

from . import em
from .errors import ConditioningError, DegenerateDataError, SeparationError
from .model import Dataset, DiagnosticModel, EffectParams

__all__ = [
    "InferenceConfig",
    "Interval",
    "SimultaneousReport",
    "profile_loglik",
    "lr_test",
    "profile_ci",
    "fd_profile_information",
    "subgroup_cov",
    "bvn_rect_prob",
    "simultaneous_scale",
    "simultaneous_cis",
    "concordance_prob",
    "overall_concordance_report",
]

_PARAM_INDEX = {"beta1": 0, "beta2": 1, "gamma": 2}
# profile-CI endpoint search: a safeguarded secant solve of
# sqrt(LR statistic) = sqrt(chi-square quantile) in the distance from the
# estimate.  The signed root of the LR statistic is nearly linear in the
# parameter (Venzon & Moolgavkar 1988), so the solve starts at the Wald
# point and usually stops after 3-4 refits, once the statistic is within
# _LR_TOL of the quantile or the bracket is narrower than _CI_TOL.  An
# endpoint not bracketed within _MAX_REACH_SE profile standard errors is
# returned open.
_MAX_REACH_SE = 4.0 * 2**9
_CI_TOL = 1e-4
_LR_TOL = 1e-4
_SQRT_2PI = math.sqrt(2 * math.pi)  # equals scipy.stats' normal-density constant
# trivariate box probability (_trivariate_box_prob): Gauss-Legendre nodes
# per smooth piece, the |y3| range kept, fixed breaks, the CDF arguments
# that break a steep strip's ramp, the floor on the Cholesky entries, and
# the bisection tolerance of the scale solve
_TVN_NODES = 12
_TVN_REACH = 8.0
_TVN_BREAKS = np.array([-4.0, -2.0, 0.0, 2.0, 4.0])
_TVN_RAMP_BREAKS = np.array([-6.0, -2.0, 2.0, 6.0])
_TVN_FLOOR = 1e-100
_TVN_TOL = 1e-9
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_TVN_NODES)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)  # on [0, 1]
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS


@dataclass(frozen=True)
class InferenceConfig:
    """Knobs for interval construction.

    ``alpha`` is the nominal level; ``fd_step`` is the perturbation used
    in the second-difference approximation of the profile information.
    """

    alpha: float = 0.05
    fd_step: float = 0.01

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if not self.fd_step > 0:
            raise ValueError("fd_step must be positive")


@dataclass(frozen=True)
class Interval:
    """A confidence interval; an open flag marks an unbracketed endpoint."""

    low: float
    high: float
    open_low: bool = False
    open_high: bool = False

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high

    def width(self) -> float:
        return self.high - self.low


@dataclass
class SimultaneousReport:
    """Equicoordinate intervals for the subgroup effects (and optionally
    the overall log concordance odds)."""

    est_pos: float
    est_neg: float
    interval_pos: Interval
    interval_neg: Interval
    xi_alpha: float
    sigma: np.ndarray
    rho: float
    est_overall: float | None = None
    interval_overall: Interval | None = None


def _v_marginal_loglik(data: Dataset, diag: DiagnosticModel, pi: float) -> float:
    """Log-probability of the observed test results under prevalence pi."""
    se, sp = diag.sensitivity, diag.specificity
    n_pos = int(np.sum(data.test == 1))
    n_neg = int(np.sum(data.test == 0))
    return n_pos * math.log(pi * se + (1 - pi) * (1 - sp)) + n_neg * math.log(
        pi * (1 - se) + (1 - pi) * sp
    )


def profile_loglik(
    data: Dataset,
    diag: DiagnosticModel,
    fixed: Mapping[str, float],
    *,
    em_config: em.EmConfig = em.EmConfig(),
    warm: em.FitResult | None = None,
) -> float:
    """Observed log-likelihood maximized with some parameters held fixed.

    ``fixed`` maps names among "beta1", "beta2", "gamma" (and "pi" when
    the prevalence is being estimated) to the values they are pinned at;
    everything else, including the baseline hazard, is profiled out by
    rerunning the EM with the fixed coefficients as offsets.  Values are
    on the scale of the full marginal likelihood, so they are directly
    comparable with the unconstrained ``FitResult.obs_loglik``.
    """
    fixed = dict(fixed)
    pi0 = fixed.pop("pi", None)
    if pi0 is None:
        res = em.fit(data, diag, em_config, fixed=fixed, warm=warm)
        return res.obs_loglik
    if diag.prevalence_known:
        raise ValueError("cannot profile over pi: the prevalence is already fixed")
    d_fixed = DiagnosticModel(
        diag.sensitivity, diag.specificity, pi0, prevalence_known=True
    )
    res = em.fit(data, d_fixed, em_config, fixed=fixed, warm=warm)
    # put the conditional-likelihood value back on the marginal scale
    return res.obs_loglik + _v_marginal_loglik(data, diag, pi0)


def lr_test(
    data: Dataset,
    diag: DiagnosticModel,
    param: str,
    null_value: float,
    *,
    fit_result: em.FitResult,
    em_config: em.EmConfig = em.EmConfig(),
) -> tuple[float, float]:
    """Likelihood-ratio test of ``param == null_value``.

    Returns the statistic (twice the profile log-likelihood drop from the
    unconstrained ``fit_result``, clipped at zero) and its chi-square(1)
    p-value.
    """
    ll0 = profile_loglik(data, diag, {param: null_value}, em_config=em_config,
                         warm=fit_result)
    lam = max(2.0 * (fit_result.obs_loglik - ll0), 0.0)
    return lam, float(stats.chi2.sf(lam, 1))


def _param_estimate(res: em.FitResult, param: str) -> float:
    if param == "pi":
        return res.pi_hat
    return float(res.theta_hat.as_array()[_PARAM_INDEX[param]])


def profile_ci(
    data: Dataset,
    diag: DiagnosticModel,
    param: str,
    config: InferenceConfig = InferenceConfig(),
    *,
    fit_result: em.FitResult,
    em_config: em.EmConfig = em.EmConfig(),
    se: float | None = None,
) -> Interval:
    """Profile likelihood-ratio confidence interval for one parameter,
    around the unconstrained ``fit_result``.

    Each endpoint solves g(x) = sqrt(lambda(estimate +- x)) - sqrt(q) = 0,
    where lambda is the LR statistic, q the chi-square(1) quantile and x
    the distance from the estimate, by a safeguarded secant iteration.  It
    starts from the Wald point x = sqrt(q) * se, with the secant through
    g(0) = -sqrt(q).  Until g changes sign each step grows the distance by
    at most a factor of 2; afterwards the sign change is kept as a bracket
    and a step that leaves it, or that fails to halve the step before
    last, is replaced by bisection.  The search stops when lambda is within
    1e-4 of q or the bracket is narrower than 1e-4 on the parameter scale.
    A constrained fit that separates or degenerates counts as lambda =
    infinity.  An endpoint not bracketed within 2048 profile standard
    errors -- or, for the prevalence, within the admissible range -- is
    returned at that limit with its open flag set.
    """
    if param not in ("beta1", "beta2", "gamma", "pi"):
        raise ValueError(f"unknown parameter: {param}")
    mle = _param_estimate(fit_result, param)
    target = float(stats.chi2.ppf(1.0 - config.alpha, 1))
    root_target = math.sqrt(target)
    if se is None:
        if param == "pi":
            se = math.sqrt(max(mle * (1 - mle), 1e-4) / len(data))
        else:
            info = fd_profile_information(
                data, diag, ("beta1", "beta2", "gamma"), config,
                fit_result=fit_result, em_config=em_config,
            )
            se = math.sqrt(np.linalg.inv(info)[_PARAM_INDEX[param],
                                               _PARAM_INDEX[param]])
    elif not 0 < se < math.inf:
        raise ValueError("se must be positive and finite")

    def lam_at(value: float) -> float:
        try:
            ll = profile_loglik(data, diag, {param: value}, em_config=em_config,
                                warm=fit_result)
        except (SeparationError, DegenerateDataError):
            # the constrained fit degenerates this far out; certainly
            # outside the confidence region
            return math.inf
        return 2.0 * (fit_result.obs_loglik - ll)

    def solve(direction: int) -> tuple[float, bool]:
        if param == "pi":
            bound = 1.0 - em.PREVALENCE_FLOOR if direction > 0 else em.PREVALENCE_FLOOR
        else:
            bound = mle + direction * _MAX_REACH_SE * se
        reach = abs(bound - mle)

        def at(x: float) -> float:
            return bound if x >= reach else mle + direction * x

        x_in, x_out = 0.0, math.inf  # g(x_in) < 0 <= g(x_out)
        x_prev, g_prev = 0.0, -root_target
        step_last = step_before = math.inf
        x = min(root_target * se, reach)
        while True:
            lam = lam_at(at(x))
            if abs(lam - target) < _LR_TOL:
                return at(x), False
            g = math.sqrt(max(lam, 0.0)) - root_target
            if g < 0:
                x_in = x
            else:
                x_out = x  # also an infinite or undefined statistic
            if x_out - x_in < _CI_TOL:
                return at(0.5 * (x_in + x_out)), False
            cand = _secant_step(x_prev, g_prev, x, g)
            x_prev, g_prev = x, g
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

    high, open_high = solve(+1)
    low, open_low = solve(-1)
    return Interval(low, high, open_low=open_low, open_high=open_high)


def _secant_step(x0: float, g0: float, x1: float, g1: float) -> float:
    """Root of the line through (x0, g0) and (x1, g1); NaN when that line
    is undefined or flat."""
    if not (math.isfinite(g0) and math.isfinite(g1)) or g0 == g1:
        return math.nan
    return x1 - g1 * (x1 - x0) / (g1 - g0)


def _fd_information(fun, k: int, h: float) -> np.ndarray:
    """One-sided second-difference curvature matrix of ``-fun``.

    ``fun`` maps a length-``k`` displacement vector (from the expansion
    point) to a scalar; exact for quadratics at any step size.
    """
    cache: dict[tuple, float] = {}

    def ev(*disp):
        key = tuple(disp)
        if key not in cache:
            vec = np.zeros(k)
            for idx, d in enumerate(disp):
                vec[idx] = d
            cache[key] = fun(vec)
        return cache[key]

    info = np.zeros((k, k))
    f0 = ev(*([0.0] * k))
    hh = h * h
    for a in range(k):
        d1 = [0.0] * k
        d1[a] = h
        d2 = [0.0] * k
        d2[a] = 2 * h
        info[a, a] = -(ev(*d2) - 2 * ev(*d1) + f0) / hh
        for b in range(a + 1, k):
            dab = [0.0] * k
            dab[a] = h
            dab[b] = h
            db = [0.0] * k
            db[b] = h
            info[a, b] = info[b, a] = -(ev(*dab) - ev(*db) - ev(*d1) + f0) / hh
    return 0.5 * (info + info.T)


def fd_profile_information(
    data: Dataset,
    diag: DiagnosticModel,
    params: Sequence[str],
    config: InferenceConfig = InferenceConfig(),
    *,
    fit_result: em.FitResult,
    em_config: em.EmConfig = em.EmConfig(),
) -> np.ndarray:
    """Profile information matrix over ``params`` by finite differences.

    Evaluates the profile log-likelihood on one-sided stencils around the
    maximum ``fit_result`` (step ``fd_step``), profiling out all remaining
    parameters and the baseline through the EM, and symmetrizes the result.

    Raises
    ------
    ConditioningError
        If the assembled matrix is not positive definite; try a different
        ``fd_step``.
    """
    params = tuple(params)
    for p in params:
        if p not in _PARAM_INDEX:
            raise ValueError(f"unknown parameter: {p}")
    center = fit_result.theta_hat.as_array()

    def lp(disp: np.ndarray) -> float:
        if not np.any(disp):
            return fit_result.obs_loglik
        fixed = {
            p: center[_PARAM_INDEX[p]] + disp[i] for i, p in enumerate(params)
        }
        return profile_loglik(data, diag, fixed, em_config=em_config, warm=fit_result)

    info = _fd_information(lp, len(params), config.fd_step)
    _require_positive_definite(info)
    return info


def _require_positive_definite(info: np.ndarray) -> None:
    if np.any(np.linalg.eigvalsh(info) <= 0):
        raise ConditioningError(
            "finite-difference profile information is not positive definite; "
            "try a different fd_step"
        )


def subgroup_cov(information: np.ndarray) -> np.ndarray:
    """Covariance of (beta1 + gamma, beta1) from the (beta1, gamma)
    profile information, by the delta method."""
    a = np.array([[1.0, 1.0], [1.0, 0.0]])
    sigma = a @ np.linalg.inv(information) @ a.T
    return 0.5 * (sigma + sigma.T)


def bvn_rect_prob(xi: float, rho: float) -> float:
    """P(|X1| <= xi and |X2| <= xi) for standard bivariate normal with
    correlation rho, by one-dimensional adaptive quadrature of the
    conditional-normal representation (absolute error well below 1e-9).

    The integrand calls ``scipy.special.ndtr`` and the closed-form density
    exp(-u**2 / 2) / sqrt(2 pi) directly: the same arithmetic as
    ``scipy.stats.norm.cdf``/``pdf``, so results are bit-identical, without
    their per-call argument checking.
    """
    if not xi > 0:
        raise ValueError("xi must be positive")
    if not -1.0 <= rho <= 1.0:
        raise ValueError("rho must be in [-1, 1]")
    if abs(rho) >= 1.0 - 1e-12:
        return 2.0 * ndtr(xi) - 1.0
    s = math.sqrt(1.0 - rho * rho)

    def integrand(u):
        # np.exp, not math.exp: scipy's norm.pdf uses np.exp, and the two
        # are not guaranteed to round alike
        return np.exp(-u**2 / 2.0) / _SQRT_2PI * (
            ndtr((xi - rho * u) / s) - ndtr((-xi - rho * u) / s)
        )

    val, _ = integrate.quad(integrand, -xi, xi, epsabs=1e-12, epsrel=1e-12, limit=200)
    return float(val)


def simultaneous_scale(rho: float, alpha: float) -> float:
    """Equicoordinate scaling factor: the xi with joint bivariate-normal
    coverage 1 - alpha at correlation rho, found by bisection to 1e-6.

    Always lies between the univariate normal quantile (|rho| = 1) and the
    Sidak-corrected quantile (rho = 0).
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    target = 1.0 - alpha
    lo = float(stats.norm.ppf(1.0 - alpha / 2)) - 1e-9
    hi = float(stats.norm.ppf(0.5 * (1.0 + math.sqrt(target)))) + 1e-6
    return _bisect_coverage(lambda xi: bvn_rect_prob(xi, rho), target, lo, hi, 1e-6)


def _bisect_coverage(coverage, target: float, lo: float, hi: float, tol: float) -> float:
    """Bisection for the xi in [lo, hi] at which the nondecreasing
    ``coverage(xi)`` reaches ``target``; returns the midpoint of the final
    bracket, once it is narrower than ``tol``."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if coverage(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def simultaneous_cis(
    theta_hat: EffectParams, sigma: np.ndarray, alpha: float = 0.05
) -> SimultaneousReport:
    """Equicoordinate intervals for the treatment effect in the
    biomarker-positive (beta1 + gamma) and -negative (beta1) groups."""
    sigma = np.asarray(sigma, dtype=float)
    sd_pos = math.sqrt(sigma[0, 0])
    sd_neg = math.sqrt(sigma[1, 1])
    rho = float(sigma[0, 1] / (sd_pos * sd_neg))
    xi = simultaneous_scale(rho, alpha)
    est_pos = theta_hat.beta1 + theta_hat.gamma
    est_neg = theta_hat.beta1
    return SimultaneousReport(
        est_pos=est_pos,
        est_neg=est_neg,
        interval_pos=Interval(est_pos - xi * sd_pos, est_pos + xi * sd_pos),
        interval_neg=Interval(est_neg - xi * sd_neg, est_neg + xi * sd_neg),
        xi_alpha=xi,
        sigma=sigma,
        rho=rho,
    )


def concordance_prob(theta: EffectParams, pi: float) -> float:
    """Probability that a random control subject outlives a random treated
    subject, mixing the four latent-status pairings by prevalence."""
    if not 0 < pi < 1:
        raise ValueError("pi must be in (0, 1)")
    b1, b2, g = theta.beta1, theta.beta2, theta.gamma
    return float(
        pi * pi * expit(b1 + g)
        + (1 - pi) * (1 - pi) * expit(b1)
        + pi * (1 - pi) * expit(b1 + b2 + g)
        + pi * (1 - pi) * expit(b1 - b2)
    )


def _log_concordance_odds(theta_arr: np.ndarray, pi: float) -> float:
    return float(logit(concordance_prob(EffectParams.from_array(theta_arr), pi)))


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


def _normal_pieces(lo, hi, cuts):
    """Nodes and weights for the integral of phi(y) f(y) dy over [lo, hi]:
    Gauss-Legendre with ``_TVN_NODES`` nodes on every piece between the
    sorted ``cuts`` (clipped to the range).  ``lo`` and ``hi`` have the
    shape of ``cuts`` without its last axis, and so do the leading axes of
    the results."""
    inner = np.clip(np.sort(cuts, axis=-1), lo[..., None], hi[..., None])
    ends = np.concatenate([lo[..., None], inner, hi[..., None]], axis=-1)
    width = np.diff(ends, axis=-1)[..., None]
    y = (ends[..., :-1, None] + width * _GL_NODES).reshape(*ends.shape[:-1], -1)
    w = (width * _GL_WEIGHTS).reshape(y.shape) * np.exp(-0.5 * y * y) / _SQRT_2PI
    return y, w


def _trivariate_box_prob(xi: float, corr: np.ndarray) -> float:
    """P(|Z_k| <= xi, k = 1, 2, 3) for a trivariate standard normal with
    correlation ``corr``, by piecewise Gauss-Legendre quadrature.

    With Z = L Y (Y standard normal, L from :func:`_trivariate_factor`)
    the probability is E[Q(Y3)], where Q(y3) is the bivariate normal mass
    of the polygon the three strips |Z_k| <= xi cut out of the (y1, y2)
    plane.  Q is integrated over y1 with y2 in closed form (a difference
    of normal CDFs between the tightest strip limits).  Every kink of the
    integrands is a break between pieces: in y1, where an edge of the Z3
    strip crosses an edge of the Z2 strip; in y3, where a Z3 edge passes a
    vertex of the |Z1|, |Z2| <= xi parallelogram.  Fixed breaks at 0, +-2
    and +-4 keep the pieces of both short.  A strip whose edges are
    steeper than the diagonal of the (y1, y2) plane also gets y1 breaks
    where its CDF argument is -6, -2, 2 and 6, so that no piece holds the
    whole of that CDF's ramp.  Each piece is then smooth, and a
    near-singular matrix (l33 -> 0: the overall contrast nearly a
    combination of the subgroup effects, as is usual) costs no accuracy.
    |y3| > 8 is dropped (probability < 1.3e-15).
    """
    l11, l21, l31, l22, l32, l33 = _trivariate_factor(np.asarray(corr, dtype=float))
    sign = np.array([-1.0, 1.0])
    y1_vertex = sign[:, None] * xi / l11
    y2_vertex = (sign[None, :] * xi - l21 * y1_vertex) / l22
    m_vertex = (l31 * y1_vertex + l32 * y2_vertex).ravel()
    cuts3 = np.concatenate([
        ((sign[:, None] * xi - m_vertex[None, :]) / l33).ravel(), _TVN_BREAKS,
    ])
    y3, w3 = _normal_pieces(np.array(-_TVN_REACH), np.array(_TVN_REACH), cuts3)
    # the Z3 strip at y3: l31 y1 + l32 y2 in [lo3, hi3]
    lo3 = -xi - l33 * y3
    hi3 = xi - l33 * y3
    det = l31 * l22 - l21 * l32
    with np.errstate(divide="ignore", invalid="ignore"):
        cuts1 = np.stack([(edge3 * l22 - edge2 * l32) / det
                          for edge3 in (lo3, hi3) for edge2 in (-xi, xi)], axis=-1)
    cuts1 = [np.where(np.isfinite(cuts1), cuts1, 0.0),  # parallel edges: no crossing
             np.broadcast_to(_TVN_BREAKS, y3.shape + _TVN_BREAKS.shape)]
    ramp = _TVN_RAMP_BREAKS
    if abs(l21) > l22:
        z2_ramp = np.concatenate([(-xi - l22 * ramp) / l21, (xi - l22 * ramp) / l21])
        cuts1.append(np.broadcast_to(z2_ramp, y3.shape + z2_ramp.shape))
    if abs(l31) > l32:
        cuts1.append(np.concatenate([lo3[:, None] - l32 * ramp,
                                     hi3[:, None] - l32 * ramp], axis=-1) / l31)
    lo1 = np.full(y3.shape, -xi / l11)
    y1, w1 = _normal_pieces(lo1, -lo1, np.concatenate(cuts1, axis=-1))
    lo2 = np.maximum((-xi - l21 * y1) / l22, (lo3[:, None] - l31 * y1) / l32)
    hi2 = np.minimum((xi - l21 * y1) / l22, (hi3[:, None] - l31 * y1) / l32)
    inner = np.maximum(ndtr(hi2) - ndtr(lo2), 0.0)
    return float(w3 @ np.sum(w1 * inner, axis=1))


def _equicoordinate_scale_mvn(corr: np.ndarray, alpha: float) -> float:
    """Equicoordinate quantile of a trivariate standard normal with the
    given correlation matrix: the xi with P(|Z_k| <= xi for all k) = 1 -
    alpha, found by bisection to 1e-9 on the box probability of
    :func:`_trivariate_box_prob`.

    The bracket runs from the univariate normal quantile (perfect
    correlation) to the Sidak quantile (independence), so the result is
    never below the univariate quantile.  The box probability agrees with
    the same quadrature at 40 nodes per piece to 1e-11 on 1,000 random
    (matrix, xi) pairs, near-singular and near rank-1 matrices included,
    and with a 1024 x 1024 tensor grid to 3e-15 on the golden trial's.
    """
    target = 1.0 - alpha
    lo = float(stats.norm.ppf(1.0 - alpha / 2)) - 1e-9
    hi = float(stats.norm.ppf(0.5 * (1.0 + target ** (1.0 / 3.0)))) + 1e-6
    return _bisect_coverage(lambda xi: _trivariate_box_prob(xi, corr), target, lo, hi,
                            _TVN_TOL)


def overall_concordance_report(
    data: Dataset,
    diag: DiagnosticModel,
    fit_result: em.FitResult,
    config: InferenceConfig = InferenceConfig(),
    *,
    em_config: em.EmConfig = em.EmConfig(),
    information: np.ndarray | None = None,
) -> SimultaneousReport:
    """Three-way simultaneous intervals: both subgroup effects plus the
    overall log concordance odds.

    The covariance of (beta1 + gamma, beta1, overall) comes from the
    3x3 profile information over the coefficients and the delta method,
    with the overall effect's derivatives taken by central differences
    (step ``fd_step``).  The prevalence is held at its estimate, so its
    sampling uncertainty is not propagated into the overall effect.  The
    common scale ``xi_alpha`` is the equicoordinate quantile of the
    trivariate normal with that covariance's correlation, computed by
    deterministic quadrature and bisection to 1e-9 (see
    ``_equicoordinate_scale_mvn``).  ``information`` short-circuits the
    profile information when the caller already computed it.
    """
    info = information
    if info is None:
        info = fd_profile_information(
            data, diag, ("beta1", "beta2", "gamma"), config,
            fit_result=fit_result, em_config=em_config,
        )
    cov_theta = np.linalg.inv(info)
    center = fit_result.theta_hat.as_array()
    pi = fit_result.pi_hat
    h = config.fd_step
    grad = np.zeros(3)
    for k in range(3):
        up = center.copy()
        dn = center.copy()
        up[k] += h
        dn[k] -= h
        grad[k] = (_log_concordance_odds(up, pi) - _log_concordance_odds(dn, pi)) / (2 * h)
    b = np.array([[1.0, 0.0, 1.0], [1.0, 0.0, 0.0], grad])
    sigma3 = b @ cov_theta @ b.T
    sigma3 = 0.5 * (sigma3 + sigma3.T)
    sds = np.sqrt(np.diag(sigma3))
    corr = sigma3 / np.outer(sds, sds)
    xi = _equicoordinate_scale_mvn(corr, config.alpha)
    est_pos = center[0] + center[2]
    est_neg = center[0]
    est_all = _log_concordance_odds(center, pi)
    return SimultaneousReport(
        est_pos=est_pos,
        est_neg=est_neg,
        interval_pos=Interval(est_pos - xi * sds[0], est_pos + xi * sds[0]),
        interval_neg=Interval(est_neg - xi * sds[1], est_neg + xi * sds[1]),
        xi_alpha=xi,
        sigma=sigma3[:2, :2],
        rho=float(corr[0, 1]),
        est_overall=est_all,
        interval_overall=Interval(est_all - xi * sds[2], est_all + xi * sds[2]),
    )
