"""Shared test utilities: independent references and dataset builders.

The references deliberately use a different formulation from the package
(dense O(n^2) risk-set matrices over explicit design matrices, a
quasi-Newton optimizer, and a dense numeric Hessian of the observed
log-likelihood) so that agreement is meaningful.
"""

import math
from pathlib import Path

import numpy as np
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import expit, logit

from mixcox import (BaselineHazard, Dataset, DiagnosticModel, EffectParams,
                    ScenarioConfig, em)
from mixcox.cli import DATASET_COLUMNS
from mixcox.model import TEST_MISSING
from mixcox.simulate import RngStream, generate_trial


def oracle_cox(time, event, X):
    """Unweighted Cox PH fit with Breslow ties; returns (beta, loglik)."""
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    at_risk = time[None, :] >= time[:, None]  # row i: the risk set at t_i

    def negll(beta):
        eta = X @ beta
        r = np.exp(eta)
        s0 = at_risk @ r
        s1 = at_risk @ (r[:, None] * X)
        ll = float(np.sum(event * (eta - np.log(s0))))
        grad = (event[:, None] * (X - s1 / s0[:, None])).sum(axis=0)
        return -ll, -grad

    res = minimize(negll, np.zeros(X.shape[1]), jac=True, method="BFGS",
                   options={"gtol": 1e-11, "maxiter": 500})
    return res.x, -float(res.fun)


def oracle_breslow_cumhaz(time, event, X, beta):
    """Cumulative baseline hazard at each distinct event time (dict)."""
    time = np.asarray(time, dtype=float)
    event = np.asarray(event)
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    r = np.exp(X @ np.asarray(beta, dtype=float))
    out = {}
    cum = 0.0
    for tj in np.unique(time[event == 1]):
        dj = int(np.sum((time == tj) & (event == 1)))
        cum += dj / float(r[time >= tj].sum())
        out[float(tj)] = cum
    return out


def hazard_level(baseline, t):
    """Hazard of the piecewise-constant ``baseline`` (a BaselineHazard) at
    time ``t``: the increment of the interval holding ``t``, 0 beyond the
    last event time."""
    idx = np.searchsorted(baseline.event_times, np.asarray(t, dtype=float), side="left")
    out = np.append(baseline.increments, 0.0)[idx]
    return out if out.ndim else float(out)


def step_cumulative(baseline, t):
    """Cumulative hazard of ``baseline`` at time ``t`` with all of an
    interval's mass placed at its event time: the jump form the EM's
    likelihoods use."""
    ets = baseline.event_times
    at_events = np.concatenate(([0.0], np.cumsum(baseline.increments
                                                 * np.diff(ets, prepend=0.0))))
    out = at_events[np.searchsorted(ets, np.asarray(t, dtype=float), side="right")]
    return out if out.ndim else float(out)


def sim_dataset(seed, n_per_arm=100, theta=(-0.5, 0.1, 0.3), pi=0.3,
                sens=0.8, spec=0.8) -> Dataset:
    cfg = ScenarioConfig(
        theta_true=EffectParams(*theta), pi_true=pi, sens=sens, spec=spec,
        n_per_arm=n_per_arm, replications=1, base_seed=seed,
    )
    return generate_trial(cfg, RngStream(seed, 0))


def write_dataset(data: Dataset, path) -> None:
    """Write a dataset in the format ``cli.parse_dataset`` reads, times at
    full precision."""
    lines = [",".join(DATASET_COLUMNS)]
    for t, d, x, v in zip(data.time, data.event, data.treatment, data.test):
        test = "NA" if v == TEST_MISSING else str(int(v))
        lines.append(f"{float(t)!r},{int(d)},{int(x)},{test}")
    Path(path).write_text("\n".join(lines) + "\n")


def lane_fit(data, diag, fixed=None, warm=None) -> em.FitResult:
    """The one lane of ``em._fit_lanes`` as a FitResult: the fit with the
    parameters of ``fixed`` held at their values, started from the state
    of the fit ``warm`` when given, else from the null start.  Raises the
    exception that ended the lane."""
    (lane,) = em._fit_lanes(data, diag, [fixed or {}], warm=warm)
    return em._fit_result(lane, data, diag, em.MAX_ITER)


def one_em_map(data, diag, warm=None) -> em.FitResult:
    """The state after a single EM map (``em._em_map``), every coefficient
    free, as a FitResult: from the state of the fit ``warm``, or from the
    null start of a cold fit.  Its ``weights`` are the posterior there."""
    ws = em._Workspace(data)
    if warm is None:
        theta, inc, pi = em._initial_state(ws, diag, {})
    else:
        theta, inc = warm.theta_hat.as_array(), warm.baseline.increments
        pi = diag.prevalence if diag.prevalence_known else warm.pi_hat
    state = (theta[None], inc[None], np.array([pi]))
    held = np.array([diag.prevalence_known])
    w = em._e_pass(ws, state, diag)[1]
    (theta, inc, pi), w, ll, errors = em._em_map(ws, diag, np.ones((1, 3), dtype=bool),
                                                 held, state, w)
    assert not errors
    return em.FitResult(
        theta_hat=EffectParams.from_array(theta[0]),
        baseline=BaselineHazard(ws.risk_sets.ets, inc[0]),
        pi_hat=float(pi[0]), weights=w[0], obs_loglik=float(ll[0]), iterations=1,
        data=data, diag=diag, max_iter=em.MAX_ITER, loglik_trace=ll.copy(),
        _workspace=ws,
    )


@st.composite
def small_trials(draw, missing_tests=True):
    """Up to 30 subjects per arm, times on five tied values, random
    censoring and (optionally) missing test results."""
    n_arm = (draw(st.integers(2, 30)), draw(st.integers(2, 30)))
    n = sum(n_arm)

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    time = np.array(column(st.integers(1, 5)), dtype=float)
    event = np.array(column(st.integers(0, 1)))
    event[0] = 1
    test = column(st.sampled_from((0, 1, -1) if missing_tests else (0, 1)))
    return Dataset(time, event, np.repeat([0, 1], n_arm), test)


accuracies = st.floats(0.7, 1.0)


def conditional_profile_loglik(data, diag, pi0, warm=None):
    """Profile log-likelihood at prevalence ``pi0`` built from the
    known-prevalence likelihood, which conditions on the test results:
    the log-likelihood of a fit with the prevalence known at ``pi0``, plus
    the test results' log-probability n_pos log P(+) + n_neg log P(-)
    under ``pi0``.  At ``pi0`` the joint likelihood is that sum, and its
    EM maps are the conditional ones."""
    se, sp = diag.sensitivity, diag.specificity
    known = DiagnosticModel(se, sp, pi0, prevalence_known=True)
    res = lane_fit(data, known, warm=warm)
    n_pos = int(np.sum(data.test == 1))
    n_neg = int(np.sum(data.test == 0))
    return (res.obs_loglik + n_pos * math.log(pi0 * se + (1 - pi0) * (1 - sp))
            + n_neg * math.log(pi0 * (1 - se) + (1 - pi0) * sp))


def expanded_loglik(time, event, x, w, theta):
    """Weighted Breslow partial loglik of the explicit 2n-row expansion,
    with its gradient and Hessian.

    Row i is subject i as latent positive (design (x, 1, x), weight w_i)
    and row n + i the same subject as latent negative (design (x, 0, 0),
    weight 1 - w_i); both carry the subject's time and event indicator.
    """
    time = np.asarray(time, dtype=float)
    event = np.asarray(event, dtype=float)
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    n = time.size
    X = np.zeros((2 * n, 3))
    X[:, 0] = np.concatenate([x, x])
    X[:n, 1] = 1.0
    X[:n, 2] = x
    t2 = np.concatenate([time, time])
    dw = np.concatenate([event * w, event * (1.0 - w)])  # weighted events
    eta = X @ np.asarray(theta, dtype=float)
    r = np.concatenate([w, 1.0 - w]) * np.exp(eta)
    at_risk = (t2[None, :] >= t2[:, None]).astype(float)  # row k: risk set at t_k
    s0 = at_risk @ r
    xbar = (at_risk @ (r[:, None] * X)) / s0[:, None]
    s2 = np.einsum("kj,j,ja,jb->kab", at_risk, r, X, X) / s0[:, None, None]
    value = float(np.sum(dw * (eta - np.log(s0))))
    grad = (dw[:, None] * (X - xbar)).sum(axis=0)
    hess = -(dw[:, None, None]
             * (s2 - xbar[:, :, None] * xbar[:, None, :])).sum(axis=0)
    return value, grad, hess


def random_subjects(rng, n=20):
    """Random (time, event, treatment, weight) columns for n subjects:
    continuous times, about 60% events (at least one), 0/1 treatment and
    weights uniform on [0, 1]."""
    time = rng.uniform(0.5, 20.0, n)
    event = (rng.random(n) < 0.6).astype(int)
    if not event.any():
        event[0] = 1
    x = (rng.random(n) < 0.5).astype(float)
    return time, event, x, rng.random(n)


def dense_profile_information(data, diag, res, free_pi, keep=(0, 1, 2), h=1e-3):
    """Profile information of the coefficients ``keep`` (indices into
    (beta1, beta2, gamma)) at the fit ``res``: the Schur complement, over
    everything else, of a dense central-difference Hessian of the observed
    log-likelihood.

    The log-likelihood is ``em._e_pass``'s value, as a function of theta,
    the log hazard increments and, when ``free_pi``, the logit of the
    prevalence (otherwise held at ``res.pi_hat``).  Each Hessian entry is
    a four-point central difference with step ``h``; the complement is
    -(H_kk - H_kr H_rr^-1 H_rk) by a dense solve, r the other indices.
    At a stationary point of the other parameters the complement does not
    depend on how they are parametrized, so ``res`` should be converged
    tightly.
    """
    ws = em._Workspace(data)
    m = ws.m
    x0 = np.concatenate([res.theta_hat.as_array(), np.log(res.baseline.increments),
                         [logit(res.pi_hat)] if free_pi else []])

    def loglik(x):
        pi = float(expit(x[-1])) if free_pi else res.pi_hat
        return em._e_pass(ws, (x[:3], np.exp(x[3:3 + m]), pi), diag)[0]

    k = x0.size
    steps = h * np.eye(k)
    hess = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            hess[i, j] = hess[j, i] = (
                loglik(x0 + steps[i] + steps[j]) - loglik(x0 + steps[i] - steps[j])
                - loglik(x0 - steps[i] + steps[j]) + loglik(x0 - steps[i] - steps[j])
            ) / (4.0 * h * h)
    keep = list(keep)
    rest = [i for i in range(k) if i not in keep]
    a = hess[np.ix_(keep, keep)]
    b = hess[np.ix_(keep, rest)]
    c = hess[np.ix_(rest, rest)]
    return -(a - b @ np.linalg.solve(c, b.T))
