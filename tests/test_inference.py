import math
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    accuracies,
    conditional_profile_loglik,
    dense_profile_information,
    lane_fit,
    sim_dataset,
    small_trials,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, linalg, stats
from scipy.special import expit, logit, ndtr

from mixcox import (
    ConditioningError,
    ConvergenceError,
    Dataset,
    DatasetError,
    DegenerateDataError,
    DiagnosticModel,
    EffectParams,
    MixcoxError,
    ScenarioConfig,
    SeparationError,
    bvn_rect_prob,
    concordance_prob,
    cox,
    em,
    fd_profile_information,
    fit,
    inference,
    lr_test,
    overall_concordance_report,
    profile_ci,
    profile_loglik,
    simultaneous_cis,
    simultaneous_scale,
    subgroup_cov,
)
from mixcox.cli import AnalysisRequest, parse_dataset, run_fit


@pytest.fixture(scope="module")
def golden():
    """The golden trial as ``mixcox fit`` analyses it (prevalence
    estimated, starting at 0.5), its fit and the correlation matrix of its
    trivariate simultaneous scale."""
    data = parse_dataset(Path(__file__).parent / "data" / "golden_trial.csv")
    diag = DiagnosticModel(0.9, 0.85, 0.5, prevalence_known=False)
    res = fit(data, diag)
    seen = []
    scale = inference._equicoordinate_scale_mvn
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inference, "_equicoordinate_scale_mvn",
                   lambda corr, alpha: seen.append(corr) or scale(corr, alpha))
        overall_concordance_report(data, diag, res)
    (corr,) = seen
    return data, diag, res, corr


@pytest.fixture(scope="module")
def golden_analysis():
    """``mixcox fit``'s analysis of the golden trial (``run_fit``) and the
    pins of each call of the profile searches' evaluation seam."""
    rounds = []
    evaluate = inference._profile_logliks

    def logged(data, diag, pins, **kwargs):
        rounds.append(list(pins))
        return evaluate(data, diag, pins, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inference, "_profile_logliks", logged)
        path = Path(__file__).parent / "data" / "golden_trial.csv"
        report = run_fit(AnalysisRequest(str(path), 0.9, 0.85))
    return report, rounds


@pytest.fixture(scope="module")
def fitted():
    data = sim_dataset(101, n_per_arm=150, theta=(-0.4, 0.3, 0.5),
                       sens=0.9, spec=0.85)
    diag = DiagnosticModel(0.9, 0.85, 0.3, prevalence_known=False)
    return data, diag, fit(data, diag)


class TestProfileLoglik:
    def test_at_mle_equals_maximum(self, fitted):
        data, diag, res = fitted
        theta = res.theta_hat
        val = profile_loglik(
            data, diag,
            {"beta1": theta.beta1, "beta2": theta.beta2, "gamma": theta.gamma},
            warm=res,
        )
        assert val == pytest.approx(res.obs_loglik, abs=1e-6)

    def test_away_from_mle_is_below(self, fitted):
        data, diag, res = fitted
        for eps in (-0.05, 0.05):
            val = profile_loglik(
                data, diag, {"gamma": res.theta_hat.gamma + eps}, warm=res
            )
            assert val < res.obs_loglik - 1e-4

    def test_pi_profile_comparable_scale(self, fitted):
        data, diag, res = fitted
        val = profile_loglik(data, diag, {"pi": res.pi_hat}, warm=res)
        assert val == pytest.approx(res.obs_loglik, abs=1e-4)
        assert profile_loglik(data, diag, {"pi": 0.6}, warm=res) < val


class TestHeldPrevalence:
    """A pinned prevalence is held in the joint likelihood the fit
    maximizes.  The reference (``helpers.conditional_profile_loglik``)
    builds the same profile from the known-prevalence likelihood plus the
    test results' log-probability; from the same start both run the same
    EM maps up to rounding."""

    @staticmethod
    def assert_matches_reference(data, diag, res, v):
        try:
            ref_warm = conditional_profile_loglik(data, diag, v, warm=res)
        except (SeparationError, DegenerateDataError) as exc:
            with pytest.raises(type(exc)):
                profile_loglik(data, diag, {"pi": v}, warm=res)
        else:
            got = profile_loglik(data, diag, {"pi": v}, warm=res)
            assert abs(got - ref_warm) <= 1e-9
        try:
            ref_cold = conditional_profile_loglik(data, diag, v)
        except (SeparationError, DegenerateDataError) as exc:
            with pytest.raises(type(exc)):
                lane_fit(data, diag, {"pi": v})
        else:
            cold = lane_fit(data, diag, {"pi": v})
            assert cold.pi_hat == v
            assert abs(cold.obs_loglik - ref_cold) <= 1e-9

    def test_golden_trial(self):
        data = parse_dataset(Path(__file__).parent / "data" / "golden_trial.csv")
        diag = DiagnosticModel(0.9, 0.85, 0.5, prevalence_known=False)
        res = fit(data, diag)
        for v in (0.01, res.pi_hat, 0.99, 0.137, 0.62):
            self.assert_matches_reference(data, diag, res, v)

    @settings(max_examples=40, deadline=None)
    @given(small_trials(), accuracies, accuracies,
           st.one_of(st.sampled_from([0.01, 0.99, None]), st.floats(0.01, 0.99)))
    def test_small_trials(self, data, sens, spec, v):
        diag = DiagnosticModel(sens, spec, 0.5, prevalence_known=False)
        try:
            res = fit(data, diag)
        except (SeparationError, DegenerateDataError):
            return
        self.assert_matches_reference(data, diag, res, res.pi_hat if v is None else v)

    def test_known_prevalence_cannot_be_held(self, fitted):
        data, _, _ = fitted
        known = DiagnosticModel(0.9, 0.85, 0.3)
        res = fit(data, known)
        match = "the prevalence is already known"
        with pytest.raises(ValueError, match=match):
            lane_fit(data, known, {"pi": 0.4})
        with pytest.raises(ValueError, match=match):
            profile_loglik(data, known, {"pi": 0.4}, warm=res)
        with pytest.raises(ValueError, match=match):
            profile_ci(data, known, "pi", fit_result=res)

    def test_held_value_must_be_a_prevalence(self, fitted):
        data, diag, res = fitted
        for v in (0.0, 1.0):
            with pytest.raises(ValueError, match="prevalence must be in"):
                profile_loglik(data, diag, {"pi": v}, warm=res)


class TestLrTest:
    def test_null_at_mle(self, fitted):
        data, diag, res = fitted
        lam, p = lr_test(data, diag, "gamma", res.theta_hat.gamma, fit_result=res)
        assert lam == pytest.approx(0.0, abs=1e-6)
        assert p == pytest.approx(1.0, abs=1e-3)

    def test_chi2_mapping(self):
        assert stats.chi2.sf(3.8415, 1) == pytest.approx(0.05, abs=1e-4)

    def test_nonnegative_statistic(self, fitted):
        data, diag, res = fitted
        for null in (0.0, 0.3, -0.2):
            lam, p = lr_test(data, diag, "gamma", null, fit_result=res)
            assert lam >= 0.0
            assert 0.0 <= p <= 1.0


class TestProfileCi:
    def test_endpoints_solve_lr_equation(self, fitted):
        data, diag, res = fitted
        target = stats.chi2.ppf(0.95, 1)
        ci = profile_ci(data, diag, "gamma", fit_result=res)
        assert ci.low < res.theta_hat.gamma < ci.high
        for endpoint in (ci.low, ci.high):
            ll = profile_loglik(data, diag, {"gamma": endpoint}, warm=res)
            lam = 2 * (res.obs_loglik - ll)
            assert lam == pytest.approx(target, abs=0.02)

    def test_individual_within_simultaneous(self, fitted):
        data, diag, res = fitted
        ci_b1 = profile_ci(data, diag, "beta1", fit_result=res)
        info = fd_profile_information(data, diag, fit_result=res)
        report = simultaneous_cis(res.theta_hat, subgroup_cov(info))
        assert report.interval_neg.low <= ci_b1.low
        assert report.interval_neg.high >= ci_b1.high

    def test_pi_interval(self, fitted):
        data, diag, res = fitted
        ci = profile_ci(data, diag, "pi", fit_result=res)
        assert ci.low < res.pi_hat < ci.high
        assert 0.01 <= ci.low and ci.high <= 0.99

    def test_refit_at_the_cap_fails_the_search(self, golden):
        # a refit stopped by the iteration cap has too low a likelihood;
        # it must fail the interval and the test, not narrow or inflate them
        data, diag, res, _ = golden
        # the message names the refit: the parameter and its pinned value
        with pytest.raises(ConvergenceError, match=r"did not converge within 3 .*"
                           r", in the profile refit at gamma = -?[0-9.]+$"):
            profile_ci(data, diag, "gamma", fit_result=res, max_iter=3)
        with pytest.raises(ConvergenceError, match=r"did not converge within 3 .*"
                           r", in the profile refit at gamma = 0\.0$"):
            lr_test(data, diag, "gamma", 0.0, fit_result=res, max_iter=3)


class TestOneCheckPerSetting:
    """Each setting is checked in one place, so every entry point that
    takes it rejects a bad value with the same error and message."""

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, math.nan])
    def test_alpha(self, fitted, alpha):
        data, diag, res = fitted
        calls = [
            lambda: profile_ci(data, diag, "gamma", alpha, fit_result=res),
            lambda: overall_concordance_report(data, diag, res, alpha),
            lambda: simultaneous_cis(res.theta_hat, np.array([[1.0, 0.5], [0.5, 1.0]]),
                                     alpha),
            lambda: simultaneous_scale(0.5, alpha),
            lambda: ScenarioConfig(theta_true=res.theta_hat, pi_true=0.3, sens=0.9,
                                   spec=0.85, n_per_arm=10, replications=1, base_seed=1,
                                   alpha=alpha),
            lambda: AnalysisRequest("never-read.csv", 0.9, 0.85, alpha=alpha),
        ]
        for call in calls:
            with pytest.raises(DatasetError, match=r"^alpha must be in \(0, 1\)$"):
                call()

    def test_max_iter(self, fitted):
        data, diag, res = fitted
        calls = [
            lambda: fit(data, diag, max_iter=1),
            lambda: profile_loglik(data, diag, {"gamma": 0.0}, max_iter=1, warm=res),
            lambda: profile_ci(data, diag, "gamma", fit_result=res, max_iter=1),
            lambda: lr_test(data, diag, "gamma", 0.0, fit_result=res, max_iter=1),
            lambda: AnalysisRequest("never-read.csv", 0.9, 0.85, em_max_iter=1),
        ]
        for call in calls:
            with pytest.raises(DatasetError, match=r"^max_iter must be at least 2: "):
                call()


def _fake_value(res, lam, dlam, distance):
    """The evaluation seam's entry for a profile whose LR statistic is
    ``lam(distance)``, with derivative ``dlam``: the profile
    log-likelihood and its slope, or the exception ``lam`` raises."""
    try:
        return res.obs_loglik - 0.5 * lam(distance), -0.5 * dlam(distance)
    except MixcoxError as exc:
        return exc


def _fake_profile(monkeypatch, res, param, lam_of_distance, slope_of_distance):
    """Replace the profile searches' evaluation seam
    (``inference._profile_logliks``) by a profile whose LR statistic is
    ``lam_of_distance(value - estimate)``, with the derivative
    ``slope_of_distance``; a lane whose statistic raises ends with that
    exception.  Returns the estimate and the list of values the profile is
    evaluated at."""
    mle = res.pi_hat if param == "pi" else getattr(res.theta_hat, param)
    calls = []

    def fake(data, diag, pins, **kwargs):
        values = []
        for fixed in pins:
            (value,) = fixed.values()
            calls.append(value)
            values.append(_fake_value(res, lam_of_distance, slope_of_distance,
                                      value - mle))
        return values

    monkeypatch.setattr(inference, "_profile_logliks", fake)
    return mle, calls


def _coefficient_ci(data, diag, res, param, se):
    """:func:`profile_ci` of a coefficient with its search started from the
    Wald scale ``se``: every coefficient's standard error in the profile
    information the searches are given."""
    intervals, _ = inference._profile(data, diag, [param], inference.ALPHA, fit_result=res,
                                      max_iter=em.MAX_ITER, information=np.eye(3) / se**2)
    return intervals[param]


# an LR statistic that rises towards 1, never reaching the chi-square(1)
# quantile, and its derivative
FLAT = (lambda d: 1.0 - math.exp(-abs(d)), lambda d: math.copysign(math.exp(-abs(d)), d))


class TestProfileCiOpenEndpoints:
    def test_flat_profile_is_open_at_maximum_reach(self, fitted, monkeypatch):
        data, diag, res = fitted
        # rises towards 1, never reaching the chi-square(1) quantile
        mle, _ = _fake_profile(monkeypatch, res, "gamma", *FLAT)
        # 2048 standard errors out, when that is within +-50
        se = 0.01
        ci = _coefficient_ci(data, diag, res, "gamma", se)
        assert ci.open_low and ci.open_high
        reach = 4.0 * 2**9 * se
        assert abs(mle) + reach < cox.SEPARATION_BOUND
        assert ci.low == pytest.approx(mle - reach, rel=1e-12)
        assert ci.high == pytest.approx(mle + reach, rel=1e-12)
        # +-50 on the coefficient scale, when that is nearer
        ci = _coefficient_ci(data, diag, res, "gamma", 0.2)
        assert ci.open_low and ci.open_high
        assert (ci.low, ci.high) == (-cox.SEPARATION_BOUND, cox.SEPARATION_BOUND)

    def test_separation_region_is_bracketed_and_closed(self, fitted, monkeypatch):
        data, diag, res = fitted
        sd = 0.2
        target = stats.chi2.ppf(0.95, 1)

        def lam(d):
            if abs(d) > 2.5 * sd:
                raise SeparationError("constrained fit diverges")
            return (d / sd) ** 2

        mle, calls = _fake_profile(monkeypatch, res, "gamma", lam,
                                   lambda d: 2.0 * d / sd**2)
        # a standard error three times too large puts the first trial
        # points inside the separation region
        ci = _coefficient_ci(data, diag, res, "gamma", 3 * sd)
        assert not (ci.open_low or ci.open_high)
        assert any(abs(v - mle) > 2.5 * sd for v in calls)
        half = math.sqrt(target) * sd
        assert ci.low == pytest.approx(mle - half, abs=2e-4)
        assert ci.high == pytest.approx(mle + half, abs=2e-4)

    def test_pi_open_at_admissible_range(self, fitted, monkeypatch):
        data, diag, res = fitted
        _fake_profile(monkeypatch, res, "pi", *FLAT)
        ci = profile_ci(data, diag, "pi", fit_result=res)
        assert ci.open_low and ci.open_high
        assert ci.low == em.PREVALENCE_FLOOR
        assert ci.high == 1.0 - em.PREVALENCE_FLOOR


CHI2_95 = float(stats.chi2.ppf(0.95, 1))


# asymmetric fake profiles, one per parameter, each an LR statistic and
# its derivative: a statistic that rises faster on one side, one that
# flattens out (an open endpoint) and one whose refits separate beyond a
# distance
FAKE_PROFILES = {
    "beta1": (lambda d: (d / 0.2) ** 2 * (1.0 + 0.8 * d),
              lambda d: 2.0 * d / 0.2**2 * (1.0 + 0.8 * d) + 0.8 * (d / 0.2) ** 2),
    "beta2": FLAT,
    "gamma": (lambda d: _raise(SeparationError("diverges")) if abs(d) > 1.5
              else (d / 0.25) ** 2,
              lambda d: 2.0 * d / 0.25**2),
    "pi": (lambda d: (d / 0.05) ** 2 * (1.0 - 2.0 * d),
           lambda d: 2.0 * d / 0.05**2 * (1.0 - 2.0 * d) - 2.0 * (d / 0.05) ** 2),
}
# the profile information behind the fake profiles' Wald scales: standard
# errors 0.3, 0.1 and 1.0 for beta1, beta2 and gamma
FAKE_INFORMATION = np.diag([1 / 0.3**2, 1 / 0.1**2, 1.0])


def _raise(exc):
    raise exc


def _fake_profiles(monkeypatch, res, rounds):
    """Replace the evaluation seam by FAKE_PROFILES, and the profile
    information by FAKE_INFORMATION; each call of the seam appends its
    list of pinned values to ``rounds``."""
    def fake(data, diag, pins, **kwargs):
        rounds.append([dict(fixed) for fixed in pins])
        values = []
        for fixed in pins:
            ((param, value),) = fixed.items()
            mle = res.pi_hat if param == "pi" else getattr(res.theta_hat, param)
            values.append(_fake_value(res, *FAKE_PROFILES[param], value - mle))
        return values

    monkeypatch.setattr(inference, "_profile_logliks", fake)
    monkeypatch.setattr(inference, "fd_profile_information",
                        lambda data, diag, *, fit_result: FAKE_INFORMATION)


def _logged(search, points):
    """``search``, appending each point it yields to ``points``."""
    point = next(search)
    while True:
        points.append(point)
        try:
            point = search.send((yield point))
        except StopIteration as stop:
            return stop.value


class TestLockstepSearches:
    def test_each_search_follows_its_own_sequence(self, fitted, monkeypatch):
        # every search of a lockstep run evaluates exactly the values it
        # evaluates alone, one point per round, all of a round's points in
        # one evaluation
        data, diag, res = fitted
        rounds = []
        _fake_profiles(monkeypatch, res, rounds)

        def searches():
            out = []
            for param in FAKE_PROFILES:
                out += inference._interval_searches(data, diag, [param], 0.05, res, None)
                if param != "pi":
                    out.append(inference._lr_null(res, param, 0.0))
            return out

        alone = []
        for search in searches():
            alone.append([])
            inference._run_searches(data, diag, [_logged(search, alone[-1])],
                                    fit_result=res, max_iter=em.MAX_ITER, slopes=True)
        rounds.clear()
        together = [[] for _ in alone]
        results = inference._run_searches(
            data, diag, [_logged(search, log) for search, log in zip(searches(), together)],
            fit_result=res, max_iter=em.MAX_ITER, slopes=True)
        assert together == alone
        gamma_hat = res.theta_hat.gamma
        assert any(abs(point["gamma"] - gamma_hat) > 1.5
                   for log in together for point in log if "gamma" in point)
        assert len(rounds) == max(map(len, alone)) >= 3
        for k, pins in enumerate(rounds):
            assert pins == [log[k] for log in together if len(log) > k]
        # the separating refits are bracketed and the flat side stays open
        nulls = {param: 0.0 for param in FAKE_PROFILES if param != "pi"}
        intervals, tests = inference._profile(
            data, diag, list(FAKE_PROFILES), inference.ALPHA, fit_result=res,
            max_iter=em.MAX_ITER, tests=nulls)
        assert intervals["beta2"].open_low and intervals["beta2"].open_high
        assert not (intervals["gamma"].open_low or intervals["gamma"].open_high)
        # and the combined run gives each interval and test alone
        for param in FAKE_PROFILES:
            assert intervals[param] == profile_ci(data, diag, param, fit_result=res)
        for param, value in nulls.items():
            assert tests[param] == lr_test(data, diag, param, value, fit_result=res)
        assert len(results) == len(alone)

    def test_one_information_per_run(self, fitted, monkeypatch):
        # the coefficients' searches take their Wald scales from one profile
        # information, computed only when a coefficient interval is asked
        # for and not given
        data, diag, res = fitted
        _fake_profiles(monkeypatch, res, [])
        calls = []

        def counting(data, diag, *, fit_result):
            calls.append(fit_result)
            return FAKE_INFORMATION

        monkeypatch.setattr(inference, "fd_profile_information", counting)
        inference._profile(data, diag, ["beta1", "beta2", "gamma"], inference.ALPHA,
                           fit_result=res, max_iter=em.MAX_ITER)
        assert calls == [res]
        inference._profile(data, diag, ["pi"], inference.ALPHA, fit_result=res,
                           max_iter=em.MAX_ITER, tests={"gamma": 0.0})
        inference._profile(data, diag, ["beta1", "gamma"], inference.ALPHA, fit_result=res,
                           max_iter=em.MAX_ITER, information=FAKE_INFORMATION)
        assert calls == [res]


def _lr_at(data, diag, res, param, value):
    return 2.0 * (res.obs_loglik - profile_loglik(data, diag, {param: value}, warm=res))


class TestProfileCiSolve:
    def test_golden_analysis_takes_three_rounds(self, golden_analysis):
        # 8 endpoint searches and 3 LR nulls; the Newton steps from each
        # refit's own slope end every search after its third refit
        _, rounds = golden_analysis
        assert [len(pins) for pins in rounds] == [11, 8, 4]

    def test_golden_endpoints_solve_lr_equation(self, golden, golden_analysis):
        # each endpoint is the Newton-corrected point of the last refit,
        # far inside the 1e-4 stopping tolerance on lambda
        data, diag, res, _ = golden
        report, _ = golden_analysis
        for row in report.parameters:
            for value, is_open in ((row.ci.low, row.ci.open_low),
                                   (row.ci.high, row.ci.open_high)):
                assert not is_open
                assert abs(_lr_at(data, diag, res, row.name, value) - CHI2_95) <= 1e-8

    @pytest.mark.parametrize("param, offset", [("gamma", 0.6), ("beta2", -0.5),
                                               ("pi", 0.08), ("pi", -0.1)])
    def test_slopes_match_differences_of_the_profile(self, golden, monkeypatch,
                                                     param, offset):
        # the seam's slope is the pinned parameter's score at the refit's
        # state.  At the default tolerance that state is ~1e-5 from the
        # pinned optimum in score, and so are the refits the differences
        # take; converged tightly, both must agree with the profile's
        # derivative
        data, diag, res, _ = golden
        monkeypatch.setattr(em, "TOL_LOGLIK", 1e-12)
        value = inference._param_estimate(res, param) + offset
        ((ll, slope),) = inference._profile_logliks(
            data, diag, [{param: value}], max_iter=em.MAX_ITER, warm=res, slopes=True)
        assert ll == profile_loglik(data, diag, {param: value}, warm=res)
        h = 1e-4
        diff = (profile_loglik(data, diag, {param: value + h}, warm=res)
                - profile_loglik(data, diag, {param: value - h}, warm=res)) / (2 * h)
        assert abs(slope) > 1.0
        assert slope == pytest.approx(diff, abs=1e-5)

    def test_slopes_only_when_asked(self, golden):
        data, diag, res, _ = golden
        pins = [{"gamma": 0.0}, {"pi": 0.3}]
        values = inference._profile_logliks(data, diag, pins, max_iter=em.MAX_ITER,
                                            warm=res)
        assert [slope for _, slope in values] == [None, None]

    def test_refit_budget_and_accuracy_on_golden_trial(self, monkeypatch):
        data = parse_dataset(Path(__file__).parent / "data" / "golden_trial.csv")
        diag = DiagnosticModel(0.9, 0.85, 0.5, prevalence_known=False)
        res = fit(data, diag)
        calls = []
        evaluate = inference._profile_logliks

        def counting(data, diag, pins, **kwargs):
            calls.extend(pins)
            return evaluate(data, diag, pins, **kwargs)

        monkeypatch.setattr(inference, "_profile_logliks", counting)
        cis = {name: profile_ci(data, diag, name, fit_result=res)
               for name in ("beta1", "beta2", "gamma", "pi")}
        monkeypatch.undo()
        assert len(calls) <= 5 * 2 * len(cis)
        for name, ci in cis.items():
            for value, is_open in ((ci.low, ci.open_low), (ci.high, ci.open_high)):
                assert not is_open
                assert abs(_lr_at(data, diag, res, name, value) - CHI2_95) <= 1e-3

    @settings(max_examples=8)
    @given(st.integers(0, 2**31 - 1), st.integers(20, 60),
           st.floats(0.8, 1.0), st.floats(0.8, 1.0))
    @example(0, 20, 1.0, 0.875)  # a profile that jumps across the quantile
    def test_interval_contains_estimate(self, seed, n_per_arm, sens, spec):
        data = sim_dataset(seed, n_per_arm=n_per_arm, theta=(-0.4, 0.2, 0.4),
                           sens=sens, spec=spec)
        diag = DiagnosticModel(sens, spec, 0.3, prevalence_known=False)
        try:
            res = fit(data, diag)
        except (SeparationError, DegenerateDataError):
            return

        def lam(param, value):
            try:
                return _lr_at(data, diag, res, param, value)
            except (SeparationError, DegenerateDataError):
                return math.inf

        for param, estimate in (("gamma", res.theta_hat.gamma), ("pi", res.pi_hat)):
            ci = profile_ci(data, diag, param, fit_result=res)
            assert ci.low < estimate < ci.high
            for value, is_open, out in ((ci.low, ci.open_low, -1), (ci.high, ci.open_high, 1)):
                if is_open or abs(lam(param, value) - CHI2_95) <= 1e-3:
                    continue
                # small trials can have profiles that jump across the
                # quantile (in the explicit example lambda is 0.63 at
                # gamma = 5.5 and 10.4 at 5.6); there the endpoint must
                # sit on the jump, within the 1e-4 bracket tolerance
                assert lam(param, value - out * 1e-4) < CHI2_95 <= lam(param, value + out * 1e-4)


def _information_case(name):
    """(data, diag, prevalence free) for one exact-information case."""
    if name == "golden":
        data = parse_dataset(Path(__file__).parent / "data" / "golden_trial.csv")
        return data, DiagnosticModel(0.9, 0.85, 0.5, prevalence_known=False), True
    if name == "pi_clipped":
        # nearly everyone truly positive: the estimate sits at 1 - floor
        data = sim_dataset(4, n_per_arm=100, pi=0.999, sens=0.99, spec=0.99)
        return data, DiagnosticModel(0.99, 0.99, 0.3, prevalence_known=False), False
    sens = 1.0 if name == "perfect_test" else 0.85
    data = sim_dataset(11, n_per_arm=100, sens=sens, spec=0.8)
    if name == "ties":
        data = Dataset(np.ceil(data.time), data.event, data.treatment, data.test)
    known = name == "pi_known"
    return data, DiagnosticModel(sens, 0.8, 0.3, prevalence_known=known), not known


class TestFdInformation:
    @pytest.mark.parametrize("case", ["golden", "sim", "pi_known", "ties",
                                      "perfect_test", "pi_clipped"])
    def test_matches_dense_numeric_schur_complement(self, case, monkeypatch):
        data, diag, free_pi = _information_case(case)
        # a tight fit, so that the nuisance score is zero and the
        # complement does not depend on the nuisance parametrization
        monkeypatch.setattr(em, "TOL_LOGLIK", 1e-13)
        res = fit(data, diag)
        if case == "pi_clipped":
            assert res.pi_hat == 1.0 - em.PREVALENCE_FLOOR
        if case == "perfect_test":
            assert np.any(res.weights == 0.0)
        info = fd_profile_information(data, diag, fit_result=res)
        ref = dense_profile_information(data, diag, res, free_pi)
        assert np.abs(info - ref).max() <= 1e-5 * np.abs(ref).max()

    def test_subgroup_cov_profiles_out_beta2(self, monkeypatch):
        # the subgroup covariance from the 3x3 information is the delta
        # method on the complement with beta2 profiled out as well
        data, diag, free_pi = _information_case("golden")
        monkeypatch.setattr(em, "TOL_LOGLIK", 1e-13)
        res = fit(data, diag)
        sigma = subgroup_cov(fd_profile_information(data, diag, fit_result=res))
        ref = dense_profile_information(data, diag, res, free_pi, keep=(0, 2))
        a = np.array([[1.0, 1.0], [1.0, 0.0]])
        want = a @ np.linalg.inv(ref) @ a.T
        assert np.abs(sigma - want).max() <= 1e-5 * np.abs(want).max()

    def test_profile_information_positive_definite(self, fitted):
        data, diag, res = fitted
        info = fd_profile_information(data, diag, fit_result=res)
        assert np.allclose(info, info.T)
        assert np.all(np.linalg.eigvalsh(info) > 0)

    def test_nonconcave_surface_rejected(self):
        from mixcox.inference import _require_positive_definite

        info = np.array([[2.0, 0.0], [0.0, -1.0]])  # indefinite
        with pytest.raises(ConditioningError, match="not positive definite") as err:
            _require_positive_definite(info)
        assert "fd_step" not in str(err.value)


def _negative_definite_tridiagonal(rng, m):
    """Diagonal and off-diagonal of a random negative definite symmetric
    tridiagonal m x m matrix (strictly diagonally dominant, some rows
    nearly not), scaled over several orders of magnitude."""
    off = rng.uniform(0.1, 1.0, m - 1) * 10.0 ** rng.uniform(-3, 3, m - 1)
    margin = rng.uniform(1e-3, 1.0, m) * np.where(rng.random(m) < 0.2, 1e-6, 1.0)
    diag = -(np.append(off, 0.0) + np.append(0.0, off) + 1e-3) * (1.0 + margin)
    return diag, off


class TestTridiagonalForm:
    @pytest.mark.parametrize("m", [1, 2, 3, 77, 731, 2048])
    def test_matches_banded_solve(self, m):
        rng = np.random.default_rng(m)
        for _ in range(3):
            diag, off = _negative_definite_tridiagonal(rng, m)
            v = rng.normal(size=(m, 5))
            bands = np.array([np.append(0.0, off), diag, np.append(off, 0.0)])
            want = v.T @ linalg.solve_banded((1, 1), bands, v)
            got = inference._tridiagonal_form(diag, off, v)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("diag, off", [
        ([0.0], []),
        ([-1.0, -1.0], [1.0]),
        ([-2.0, 0.0, -3.0], [0.0, 0.0]),
        ([-1.0, -2.0, -2.0, -2.0, -1.0], [1.0, 1.0, 1.0, 1.0]),
        ([-1.0, np.nan, -1.0], [0.5, 0.5]),
        ([-1.0, -np.inf], [0.5]),
    ])
    def test_singular_system_raises(self, diag, off):
        # a zero row, singular second differences and non-finite entries
        v = np.ones((len(diag), 2))
        with pytest.raises(ConditioningError, match="singular"):
            inference._tridiagonal_form(np.array(diag), np.array(off), v)


class TestNormalCdf:
    def test_matches_scipy_on_dense_grid(self):
        x = np.concatenate([np.linspace(-40.0, 40.0, 400_001), [-0.0, 5e-324, -5e-324]])
        assert np.abs(inference._ndtr(x) - ndtr(x)).max() <= 1e-15

    def test_lower_tail_relative_error(self):
        # the tail keeps its relative accuracy down to the cut, where it
        # is below 6e-30, and keeps falling beyond it
        x = np.linspace(-11.3, 0.0, 20_001)
        assert np.abs(inference._ndtr(x) / ndtr(x) - 1.0).max() <= 1e-13
        deep = inference._ndtr(np.array([-11.4, -20.0, -30.0, -38.0, -39.0]))
        assert np.all(deep[:4] > 0) and deep[-1] == 0.0 and np.all(np.diff(deep) <= 0)
        assert np.all(deep < 6e-30)

    def test_special_values_and_shapes(self):
        got = inference._ndtr(np.array([-np.inf, np.inf, np.nan, 0.0]))
        assert got[0] == 0.0 and got[1] == 1.0 and np.isnan(got[2]) and got[3] == 0.5
        scalar = inference._ndtr(np.array(1.3))
        assert scalar.shape == () and abs(float(scalar) - ndtr(1.3)) <= 1e-16
        assert inference._ndtr(np.empty((0, 3))).shape == (0, 3)
        block = np.linspace(-3.0, 3.0, 24).reshape(2, 3, 4)
        assert np.array_equal(inference._ndtr(block), inference._ndtr(block.ravel()).reshape(2, 3, 4))

    @settings(max_examples=200)
    @given(st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=40))
    def test_agrees_with_scipy_and_is_symmetric(self, values):
        x = np.array(values)
        got = inference._ndtr(x)
        assert np.abs(got - ndtr(x)).max() <= 1e-15
        assert np.abs(got + inference._ndtr(-x) - 1.0).max() <= 2.3e-16

    def test_scalar_cdf(self):
        x = np.linspace(-38.0, 38.0, 7_601)
        got = np.array([inference._norm_cdf(v) for v in x])
        assert np.abs(got - ndtr(x)).max() <= 1e-15


class TestChiSquareAndQuantiles:
    # scipy.stats.chi2 is itself up to 3.1e-14 (sf) and 2.2e-14 (ppf)
    # from 40-digit values here, so it is matched to 5e-14; the normal
    # forms of the same quantities are matched to 1e-14
    def test_chi2_sf(self):
        x = np.concatenate([np.linspace(0.0, 60.0, 6_001), np.geomspace(1e-12, 1.0, 200)])
        got = np.array([inference._chi2_sf(v) for v in x])
        assert np.abs(got / stats.chi2.sf(x, 1) - 1.0).max() <= 5e-14
        near = x <= 40.0
        assert np.abs(got[near] / (2.0 * stats.norm.sf(np.sqrt(x[near]))) - 1.0).max() <= 1e-14
        assert inference._chi2_sf(0.0) == 1.0 and inference._chi2_sf(math.inf) == 0.0

    def test_chi2_quantile(self):
        p = np.concatenate([np.linspace(0.01, 1.0 - 1e-12, 10_001), 1.0 - np.geomspace(1e-15, 0.5, 300)])
        got = np.array([inference._chi2_quantile(v) for v in p])
        assert np.abs(got / stats.chi2.ppf(p, 1) - 1.0).max() <= 5e-14
        assert np.abs(got / stats.norm.isf((1.0 - p) / 2.0) ** 2 - 1.0).max() <= 1e-14
        assert inference._chi2_quantile(0.0) == 0.0
        assert inference._chi2_quantile(0.95) == pytest.approx(3.841458820694124, rel=1e-15)

    @pytest.mark.parametrize("dims", [2, 3])
    def test_scale_bracket_normal_quantiles(self, dims):
        for alpha in (1e-6, 0.01, 0.05, 0.1, 0.5, 0.9):
            lo, hi = inference._scale_bracket(alpha, dims)
            assert lo + 1e-9 == pytest.approx(stats.norm.ppf(1 - alpha / 2), rel=1e-14)
            sidak = stats.norm.ppf(0.5 * (1.0 + (1.0 - alpha) ** (1.0 / dims)))
            assert hi - 1e-6 == pytest.approx(sidak, rel=1e-14)


class TestSubgroupCov:
    def test_identity_information(self):
        sigma = subgroup_cov(np.eye(3))
        assert np.allclose(sigma, [[2.0, 1.0], [1.0, 1.0]])

    def test_diagonal_information(self):
        # beta2's information does not enter the subgroup effects
        a, b = 4.0, 2.5
        sigma = subgroup_cov(np.diag([a, 7.0, b]))
        assert np.allclose(sigma, [[1 / a + 1 / b, 1 / a], [1 / a, 1 / a]])

    def test_positive_definite(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(3, 3))
        info = m @ m.T + np.eye(3)
        sigma = subgroup_cov(info)
        assert np.all(np.linalg.eigvalsh(sigma) > 0)


class TestBvnRect:
    def test_independent(self):
        for xi in (0.5, 1.96, 3.0):
            expected = (2 * stats.norm.cdf(xi) - 1) ** 2
            assert bvn_rect_prob(xi, 0.0) == pytest.approx(expected, abs=1e-9)

    def test_perfectly_correlated(self):
        for rho in (1.0, -1.0):
            assert bvn_rect_prob(1.95996, rho) == pytest.approx(
                2 * stats.norm.cdf(1.95996) - 1, abs=1e-9
            )

    def test_intermediate_rho_against_mc_oracle(self):
        # frozen from a 1e7-draw Monte-Carlo oracle: 0.90927 +- 0.00009
        val = bvn_rect_prob(1.95996, 0.5)
        assert val == pytest.approx(0.90927, abs=3e-4)
        lo = bvn_rect_prob(1.95996, 0.0)
        hi = 2 * stats.norm.cdf(1.95996) - 1
        assert lo < val < hi  # strictly between the rho=0 and |rho|=1 values

    @settings(max_examples=50)
    @given(xi=st.floats(0.01, 6.0), dxi=st.floats(0.0, 3.0),
           rho=st.floats(-1.0, 1.0))
    def test_properties(self, xi, dxi, rho):
        p = bvn_rect_prob(xi, rho)
        assert 0.0 <= p <= 1.0
        # quadrature noise is ~1e-15; 1e-12 allows it and nothing more
        assert bvn_rect_prob(xi + dxi, rho) >= p - 1e-12
        assert bvn_rect_prob(xi, 0.0) - 1e-12 <= p <= bvn_rect_prob(xi, 1.0) + 1e-12


def _reference_bvn_rect_prob(xi, rho):
    """The rectangle probability by adaptive quadrature (``quad``) of the
    scipy.stats formulation of the integrand, integrating the boundary
    layers on their own for 1 - |rho| < 1e-5."""
    r = abs(rho)
    if r == 1.0:
        return 2.0 * stats.norm.cdf(xi) - 1.0
    s = math.sqrt((1.0 - r) * (1.0 + r))
    if r > 1.0 - 1e-5:
        def layer(u):
            return stats.norm.pdf(u) * stats.norm.cdf((r * u - xi) / s)

        tail, _ = integrate.quad(layer, max(-xi, xi - 40.0 * s), xi,
                                 epsabs=1e-13, epsrel=1e-12, limit=200)
        return float(2.0 * stats.norm.cdf(xi) - 1.0 - 2.0 * tail)

    def integrand(u):
        return stats.norm.pdf(u) * (
            stats.norm.cdf((xi - rho * u) / s) - stats.norm.cdf((-xi - rho * u) / s)
        )

    val, _ = integrate.quad(integrand, -xi, xi, epsabs=1e-12, epsrel=1e-12, limit=200)
    return float(val)


def _trivariate_reference_bvn(xi, rho):
    """bvn_rect_prob through the trivariate box with an independent first
    coordinate, which resolves the |rho| -> 1 boundary layers."""
    corr = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, rho], [0.0, rho, 1.0]])
    return inference._trivariate_box_prob(xi, corr) / (2 * stats.norm.cdf(xi) - 1)


class TestBvnRectReference:
    RHO_GRID = [*np.linspace(-0.99, 0.99, 23), -1.0, 1.0, 1 - 1e-5, -1 + 1e-5,
                1 - 1e-7, 1 - 1e-10, 1 - 1e-12]

    def test_matches_adaptive_quadrature_on_grid(self):
        for xi in (0.01, 0.05, *np.linspace(0.3, 4.5, 8)):
            for rho in self.RHO_GRID:
                assert bvn_rect_prob(xi, rho) == pytest.approx(
                    _reference_bvn_rect_prob(xi, rho), abs=1e-12), (xi, rho)
            for rho in (-1 + 1e-7, 1 - 1e-6, 1 - 1e-9):
                assert bvn_rect_prob(xi, rho) == pytest.approx(
                    _trivariate_reference_bvn(xi, rho), abs=1e-9)

    @pytest.mark.parametrize("gap", [5e-6, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11])
    def test_near_unit_correlation(self, gap):
        for xi in (0.05, 0.7, 1.0, 1.95996, 3.5):
            for rho in (1 - gap, -1 + gap):
                assert bvn_rect_prob(xi, rho) == pytest.approx(
                    _trivariate_reference_bvn(xi, rho), abs=1e-9)

    def test_scale_matches_adaptive_quadrature(self, monkeypatch):
        grid = np.linspace(-0.99, 0.99, 9)
        new = [simultaneous_scale(float(r), 0.05) for r in grid]
        monkeypatch.setattr(inference, "bvn_rect_prob", _reference_bvn_rect_prob)
        ref = [simultaneous_scale(float(r), 0.05) for r in grid]
        assert new == pytest.approx(ref, abs=1e-10)


class TestSimultaneousScale:
    def test_sidak_at_independence(self):
        sidak = stats.norm.ppf((1 + math.sqrt(0.95)) / 2)
        assert simultaneous_scale(0.0, 0.05) == pytest.approx(sidak, abs=1e-4)
        assert simultaneous_scale(0.0, 0.05) == pytest.approx(2.23649, abs=1e-4)

    def test_univariate_at_full_correlation(self):
        z = stats.norm.ppf(0.975)
        for rho in (1.0, -1.0):
            assert simultaneous_scale(rho, 0.05) == pytest.approx(z, abs=1e-4)
            assert simultaneous_scale(rho, 0.05) == pytest.approx(1.95996, abs=1e-4)

    def test_monotone_and_bounded(self):
        z = stats.norm.ppf(0.975)
        sidak = stats.norm.ppf((1 + math.sqrt(0.95)) / 2)
        grid = np.linspace(0, 1, 11)
        vals = [simultaneous_scale(r, 0.05) for r in grid]
        assert all(z - 1e-6 <= v <= sidak + 1e-6 for v in vals)
        assert np.all(np.diff(vals) <= 1e-5)  # nonincreasing in |rho|
        # continuous up to the perfectly-correlated limit (steep but no jump)
        assert simultaneous_scale(0.99999, 0.05) == pytest.approx(
            simultaneous_scale(1.0, 0.05), abs=0.005
        )

    # 0 is the Sidak end of the bracket, +-1 the univariate end, and at
    # 1 - |rho| = 1e-7 the rectangle's integrand has boundary layers
    RHO_GRID = sorted({0.0, 1.0, -1.0, 1 - 1e-7, -1 + 1e-7, 1 - 1e-5, -1 + 1e-5,
                       *np.round(np.linspace(-0.99, 0.99, 23), 6)})

    def test_rectangle_probabilities_per_solve(self, monkeypatch):
        calls = []
        rect = inference.bvn_rect_prob
        monkeypatch.setattr(inference, "bvn_rect_prob",
                            lambda xi, rho: calls.append(xi) or rect(xi, rho))
        for rho in self.RHO_GRID:
            calls.clear()
            simultaneous_scale(float(rho), 0.05)
            assert len(calls) <= 5, rho

    def test_coverage_error(self):
        for rho in self.RHO_GRID:
            xi = simultaneous_scale(float(rho), 0.05)
            assert abs(bvn_rect_prob(xi, float(rho)) - 0.95) <= 1e-10, rho

    @pytest.mark.parametrize("solver", ["bivariate", "trivariate"])
    def test_last_bit_jitter_stays_in_the_bracket(self, monkeypatch, solver):
        # quadrature noise can break monotonicity in the last bits; the
        # bracketed solve must still end between the two quantiles
        rng = np.random.default_rng(7)
        name = "bvn_rect_prob" if solver == "bivariate" else "_trivariate_box_prob"
        exact = getattr(inference, name)
        monkeypatch.setattr(inference, name, lambda xi, arg, **kw: exact(xi, arg, **kw) * (
            1.0 + 4e-16 * rng.integers(-4, 5)))
        z = stats.norm.ppf(0.975)
        dim = 2 if solver == "bivariate" else 3
        sidak = stats.norm.ppf(0.5 * (1 + 0.95 ** (1 / dim)))
        for rho in (-1.0, -0.5, 0.0, 0.5, 1.0):
            if solver == "bivariate":
                xi = simultaneous_scale(rho, 0.05)
            else:  # equicorrelated at |rho|
                corr = np.full((3, 3), abs(rho)) + (1.0 - abs(rho)) * np.eye(3)
                xi = inference._equicoordinate_scale_mvn(corr, 0.05)
            assert z - 1e-9 <= xi <= sidak + 1e-6


def _central_difference(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2 * h)


def _random_correlation(entries, noise):
    """Correlation of Z = A u, with the third column of the 3 x 3 matrix
    ``entries`` scaled by ``noise``: near-singular as ``noise`` -> 0."""
    a = np.array(entries).reshape(3, 3)
    a[:, 2] *= noise
    cov = a @ a.T + 1e-6 * np.eye(3)
    sd = np.sqrt(np.diag(cov))
    return cov / np.outer(sd, sd)


class TestScaleSlopes:
    @settings(max_examples=60)
    @given(xi=st.floats(0.5, 4.0),
           rho=st.one_of(st.floats(-0.999, 0.999),
                         st.sampled_from([1 - 1e-6, -1 + 1e-6, 1 - 1e-9, 1.0, -1.0])))
    def test_bivariate_slope_matches_central_difference(self, xi, rho):
        fd = _central_difference(lambda x: bvn_rect_prob(x, rho), xi)
        assert inference._bvn_rect_slope(xi, rho) == pytest.approx(fd, rel=1e-6, abs=1e-9)

    @settings(max_examples=60)
    @given(entries=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
           noise=st.one_of(st.floats(0.0, 1.0), st.sampled_from([1e-2, 1e-3, 1e-4])),
           xi=st.floats(1.5, 3.5))
    def test_trivariate_slope_matches_central_difference(self, entries, noise, xi):
        corr = _random_correlation(entries, noise)
        fd = _central_difference(lambda x: inference._trivariate_box_prob(x, corr), xi)
        assert inference._box_slope(xi, corr) == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_coverage_is_concave_with_bounded_curvature(self, golden):
        # Newton's method from the left never overshoots, and a step delta
        # leaves an error of at most xi * delta**2 / 2: -P'' / P' in [0, xi]
        lo, hi = inference._scale_bracket(0.05, 3)
        h = 1e-4
        rng = np.random.default_rng(11)
        slopes = [lambda x, rho=rho: inference._bvn_rect_slope(x, rho)
                  for rho in (-1 + 1e-9, -0.9, -0.5, 0.0, 0.3, 0.8, 0.99, 1 - 1e-7)]
        for corr in (golden[3], _near_combination(0.01), _near_combination(0.3),
                     *(_random_correlation(rng.uniform(-1, 1, 9), rng.uniform(0, 1))
                       for _ in range(10))):
            slopes.append(lambda x, corr=corr: inference._box_slope(x, corr))
        for slope in slopes:
            for xi in np.linspace(lo, hi, 9):
                curvature = -_central_difference(slope, xi, h) / slope(xi)
                assert 0.0 < curvature <= xi, xi


def _near_combination(eps):
    """Correlation of (Z1, Z2, Z3) with Z3 a combination of Z1 and Z2 plus
    independent noise of variance eps**2: the usual shape of the overall
    contrast against the two subgroup effects."""
    lower = np.array([[1.0, 0.0, 0.0], [0.2, math.sqrt(0.96), 0.0], [0.6, 0.8, 0.0]])
    lower[2, :2] *= math.sqrt(1 - eps**2) / np.linalg.norm(lower[2, :2])
    lower[2, 2] = eps
    return lower @ lower.T


def _tensor_box_prob(xi, corr, n=1024):
    """Reference box probability: an n x n tensor Gauss-Legendre grid on
    the separation-of-variables form, a different discretization from the
    package's piecewise one (accurate to ~1e-9 while l33 >= 0.01)."""
    chol = np.linalg.cholesky(corr)
    x, w = np.polynomial.legendre.leggauss(n)
    t, w = 0.5 * (x + 1.0), 0.5 * w
    ndtr, ndtri = stats.norm.cdf, stats.norm.ppf
    a1, b1 = ndtr(-xi / chol[0, 0]), ndtr(xi / chol[0, 0])
    y1 = ndtri(a1 + t * (b1 - a1))
    a2 = ndtr((-xi - chol[1, 0] * y1) / chol[1, 1])
    b2 = ndtr((xi - chol[1, 0] * y1) / chol[1, 1])
    y2 = ndtri(a2[:, None] + t[None, :] * (b2 - a2)[:, None])
    m3 = chol[2, 0] * y1[:, None] + chol[2, 1] * y2
    e3 = ndtr((xi - m3) / chol[2, 2]) - ndtr((-xi - m3) / chol[2, 2])
    return float((b1 - a1) * (w @ ((b2 - a2)[:, None] * e3) @ w))


class TestTrivariateScale:
    UNIVARIATE = stats.norm.ppf(0.975)
    SIDAK = stats.norm.ppf(0.5 * (1 + 0.95 ** (1 / 3)))
    SOBOL_GOLDEN = 2.327385926387351  # the former 2^22-point Sobol estimate

    def test_identity_is_sidak(self):
        xi = inference._equicoordinate_scale_mvn(np.eye(3), 0.05)
        assert (2 * stats.norm.cdf(xi) - 1) ** 3 == pytest.approx(0.95, abs=1e-9)

    def test_block_diagonal_factorizes(self):
        corr = np.array([[1.0, 0.6, 0.0], [0.6, 1.0, 0.0], [0.0, 0.0, 1.0]])
        expected = bvn_rect_prob(2.2, 0.6) * (2 * stats.norm.cdf(2.2) - 1)
        assert inference._trivariate_box_prob(2.2, corr) == pytest.approx(
            expected, abs=1e-9)

    def test_all_ones_is_univariate(self):
        xi = inference._equicoordinate_scale_mvn(np.ones((3, 3)), 0.05)
        assert xi == pytest.approx(self.UNIVARIATE, abs=1e-8)

    @pytest.mark.parametrize("rho", [0.3, -0.5])
    def test_rank_two_and_its_perturbation(self, rho):
        # rho23 = 1: the overall contrast coincides with one subgroup's
        corr = np.array([[1.0, rho, rho], [rho, 1.0, 1.0], [rho, 1.0, 1.0]])
        near = corr.copy()
        near[1, 2] = near[2, 1] = 1.0 - 1e-12
        xis = [inference._equicoordinate_scale_mvn(c, 0.05) for c in (corr, near)]
        for xi in xis:
            assert math.isfinite(xi)
            assert self.UNIVARIATE - 1e-9 <= xi <= self.SIDAK + 1e-6
        assert xis[0] == pytest.approx(xis[1], abs=1e-6)
        # with Z3 = Z2 the box is the bivariate one
        assert inference._trivariate_box_prob(2.2, corr) == pytest.approx(
            bvn_rect_prob(2.2, rho), abs=1e-9)

    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.3])
    def test_near_combination_against_tensor_grid(self, eps):
        corr = _near_combination(eps)
        assert inference._trivariate_box_prob(2.3, corr) == pytest.approx(
            _tensor_box_prob(2.3, corr), abs=1e-8)

    def test_golden_trial_correlation(self, monkeypatch, golden):
        data, diag, res, corr = golden
        rep = overall_concordance_report(data, diag, res)
        assert rep.xi_alpha == pytest.approx(self.SOBOL_GOLDEN, abs=1e-4)
        box = inference._trivariate_box_prob
        full = inference._TVN_NODES
        calls = []
        monkeypatch.setattr(inference, "_trivariate_box_prob",
                            lambda xi, c, nodes=full: calls.append(nodes) or box(xi, c, nodes))
        assert rep.xi_alpha == inference._equicoordinate_scale_mvn(corr, 0.05)
        # full-accuracy box probabilities; a coarse one costs about a quarter
        assert calls.count(full) <= 2
        assert len(calls) <= 6
        # reference: bisection of the same box probability to 1e-13
        assert rep.xi_alpha == pytest.approx(self.bisection(corr), abs=1e-10)

    def bisection(self, corr):
        """The root of the full box probability, bisected to 1e-13."""
        lo, hi = self.UNIVARIATE, self.SIDAK
        while hi - lo > 1e-13:
            mid = 0.5 * (lo + hi)
            below = inference._trivariate_box_prob(mid, corr) < 0.95
            lo, hi = (mid, hi) if below else (lo, mid)
        return 0.5 * (lo + hi)

    @pytest.mark.parametrize("case", ["near combination", "rank two 0.3", "rank two -0.5"])
    def test_matches_fine_bisection(self, case):
        # the golden trial's correlation is checked above
        if case == "near combination":
            corr = _near_combination(0.01)
        else:
            rho = float(case.split()[-1])
            corr = np.array([[1.0, rho, rho], [rho, 1.0, 1.0], [rho, 1.0, 1.0]])
        xi = inference._equicoordinate_scale_mvn(corr, 0.05)
        assert xi == pytest.approx(self.bisection(corr), abs=1e-10)

    @settings(max_examples=40)
    @given(entries=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
           noise=st.floats(0.0, 1.0), xi=st.floats(0.5, 3.5))
    def test_between_pairwise_bounds(self, entries, noise, xi):
        # Z = A u with a rank-2 A plus noise of scale `noise`; the ridge
        # keeps |rho| <= 1 - 1e-5, where bvn_rect_prob is still exact
        a = np.array(entries).reshape(3, 3)
        a[:, 2] *= noise
        cov = a @ a.T + 1e-4 * np.eye(3)
        sd = np.sqrt(np.diag(cov))
        corr = cov / np.outer(sd, sd)
        p = inference._trivariate_box_prob(xi, corr)
        marginal = 2 * stats.norm.cdf(xi) - 1
        pairs = [bvn_rect_prob(xi, float(np.clip(corr[i, j], -1, 1)))
                 for i, j in ((0, 1), (0, 2), (1, 2))]
        # no more than any pair; no less than a pair times the third
        # marginal (the Gaussian correlation inequality)
        assert p <= min(pairs) + 1e-9
        assert p >= max(pairs) * marginal - 1e-9


class TestSimultaneousCis:
    def test_symmetric_case(self):
        theta = EffectParams(-0.3, 0.2, 0.4)
        sigma = np.array([[0.04, 0.0], [0.0, 0.04]])
        rep = simultaneous_cis(theta, sigma, 0.05)
        assert rep.rho == 0.0
        w_pos = rep.interval_pos.high - rep.interval_pos.low
        w_neg = rep.interval_neg.high - rep.interval_neg.low
        assert w_pos == pytest.approx(w_neg, rel=1e-12)
        assert w_pos == pytest.approx(2 * rep.xi_alpha * 0.2, rel=1e-12)
        assert rep.interval_pos.contains(0.1)
        assert rep.interval_neg.contains(-0.3)


class TestConcordance:
    def test_null_is_half(self):
        assert concordance_prob(EffectParams(0, 0, 0), 0.3) == pytest.approx(0.5)

    def test_identical_subgroups(self):
        for b1 in (-0.7, 0.2, 1.1):
            got = concordance_prob(EffectParams(b1, 0.0, 0.0), 0.42)
            assert got == pytest.approx(expit(b1), rel=1e-12)

    def test_reported_overall_example(self):
        p = concordance_prob(EffectParams(-0.15, 1.18, -0.53), 0.47)
        assert p == pytest.approx(0.4114, abs=5e-4)
        co = p / (1 - p)
        assert co == pytest.approx(0.70, abs=0.005)

    def test_sign_flip_involution_without_prognostic_effect(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            b1, g = rng.normal(0, 1, 2)
            pi = rng.uniform(0.05, 0.95)
            p = concordance_prob(EffectParams(b1, 0.0, g), pi)
            p_flip = concordance_prob(EffectParams(-b1, 0.0, -g), pi)
            assert p_flip == pytest.approx(1 - p, rel=1e-10)

    def test_all_terms_below_half_bounds_overall(self):
        rng = np.random.default_rng(10)
        found = 0
        while found < 20:
            b1, b2, g = rng.normal(-0.5, 0.5, 3)
            pi = rng.uniform(0.1, 0.9)
            terms = [b1 + g, b1, b1 + b2 + g, b1 - b2]
            if all(expit(t) < 0.5 for t in terms):
                assert concordance_prob(EffectParams(b1, b2, g), pi) < 0.5
                found += 1


class TestOverallReport:
    def test_derivatives_without_modification(self):
        # at beta2 = gamma = 0 the overall log concordance odds equals
        # beta1, with gradient (1, 0, pi)
        pi = 0.37
        h = 0.01
        center = np.array([-0.4, 0.0, 0.0])

        def f(vec):
            return logit(concordance_prob(EffectParams(*vec), pi))

        assert f(center) == pytest.approx(center[0], abs=1e-12)
        grad = np.zeros(3)
        for k in range(3):
            up, dn = center.copy(), center.copy()
            up[k] += h
            dn[k] -= h
            grad[k] = (f(up) - f(dn)) / (2 * h)
        assert grad[0] == pytest.approx(1.0, abs=1e-4)
        assert grad[1] == pytest.approx(0.0, abs=1e-4)
        assert grad[2] == pytest.approx(pi * pi + pi * (1 - pi), abs=1e-4)

    def test_closed_form_gradient(self):
        rng = np.random.default_rng(12)
        h = 1e-6
        for _ in range(20):
            theta = rng.normal(0.0, 1.0, 3)
            pi = rng.uniform(0.02, 0.98)
            numeric = np.zeros(3)
            for k in range(3):
                step = np.zeros(3)
                step[k] = h
                up = logit(concordance_prob(EffectParams(*(theta + step)), pi))
                dn = logit(concordance_prob(EffectParams(*(theta - step)), pi))
                numeric[k] = (up - dn) / (2 * h)
            got = inference._log_concordance_odds_grad(theta, pi)
            assert np.allclose(got, numeric, rtol=1e-7, atol=1e-8)

    def test_three_way_report(self, fitted):
        data, diag, res = fitted
        rep = overall_concordance_report(data, diag, res)
        assert rep.interval_overall is not None
        assert rep.interval_overall.contains(rep.est_overall)
        assert rep.interval_pos.contains(rep.est_pos)
        assert rep.interval_neg.contains(rep.est_neg)
        assert rep.xi_alpha >= stats.norm.ppf(0.975) - 1e-9
        expected = logit(concordance_prob(res.theta_hat, res.pi_hat))
        assert rep.est_overall == pytest.approx(expected, rel=1e-10)

    def test_perfect_diagnosis_contains_plain_estimates(self):
        data = sim_dataset(55, n_per_arm=120, theta=(-0.3, 0.4, -0.5),
                           sens=1.0, spec=1.0)
        diag = DiagnosticModel(1.0, 1.0, 0.3, prevalence_known=False)
        res = fit(data, diag)
        rep = overall_concordance_report(data, diag, res)
        theta = res.theta_hat
        assert rep.interval_pos.contains(theta.beta1 + theta.gamma)
        assert rep.interval_neg.contains(theta.beta1)
        assert rep.interval_overall.contains(
            logit(concordance_prob(theta, res.pi_hat))
        )
