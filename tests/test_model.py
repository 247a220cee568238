import math

import numpy as np
import pytest
from helpers import hazard_level, step_cumulative

from mixcox import (
    BaselineHazard,
    Dataset,
    DatasetError,
    DiagnosticModel,
    EffectParams,
    mixture_survival,
)
from mixcox.model import _linear_predictor, _npv, _ppv


# columns (time, event, treatment, test) of a valid three-subject trial;
# each invalid case replaces the last subject's value in one column, where
# a silent cast to int8 would leave a valid trial
VALID = {"time": [1.0, 2.0, 3.0], "event": [1, 0, 1],
         "treatment": [0, 1, 1], "test": [1, 0, -1]}
INVALID = [
    ("time", 0.0, "follow-up times"),
    ("time", -1.0, "follow-up times"),
    ("time", math.inf, "follow-up times"),
    ("time", math.nan, "follow-up times"),
    ("event", 2, "event indicators"),
    ("event", 0.5, "event indicators"),
    ("event", 256, "event indicators"),
    ("treatment", 3, "treatment indicators"),
    ("treatment", 0.7, "treatment indicators"),
    ("test", 2, "test results"),
    ("test", -1.5, "test results"),
]


class TestTypes:
    @pytest.mark.parametrize("column,value,message", INVALID,
                             ids=[f"{c}={v}" for c, v, _ in INVALID])
    def test_dataset_rejects_invalid_value(self, column, value, message):
        columns = {name: list(values) for name, values in VALID.items()}
        columns[column][-1] = value
        with pytest.raises(DatasetError, match=message):
            Dataset(**columns)

    def test_dataset_columns_are_equal_length_vectors(self):
        with pytest.raises(DatasetError, match="one-dimensional"):
            Dataset(np.ones((2, 2)), [1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 1, 1])
        with pytest.raises(DatasetError, match="lengths"):
            Dataset([1.0, 2.0], [1, 0], [0, 1], [1])

    def test_dataset_requires_event_and_both_arms(self):
        with pytest.raises(DatasetError):
            Dataset([1.0, 2.0], [0, 0], [0, 1], [1, 0])
        with pytest.raises(DatasetError):
            Dataset([1.0, 2.0], [1, 1], [1, 1], [1, 0])
        data = Dataset([1.0, 2.0], [1, 0], [0, 1], [1, -1])
        assert len(data) == 2
        assert data.test[1] == -1
        assert data.event.dtype == np.int8

    def test_dataset_immutable(self):
        data = Dataset([1.0, 2.0], [1, 0], [0, 1], [1, 0])
        with pytest.raises(AttributeError):
            data.time = np.array([1.0])
        with pytest.raises(ValueError):
            data.time[0] = 3.0

    def test_diagnostic_model_validation(self):
        DiagnosticModel(1.0, 1.0, 0.5)
        with pytest.raises(DatasetError):
            DiagnosticModel(0.5, 0.5, 0.3)  # uninformative
        with pytest.raises(DatasetError):
            DiagnosticModel(0.8, 0.8, 0.0)
        with pytest.raises(DatasetError):
            DiagnosticModel(0.0, 1.0, 0.3)

    def test_effect_params(self):
        theta = EffectParams(-0.5, 0.1, 0.3)
        assert np.allclose(theta.as_array(), [-0.5, 0.1, 0.3])
        with pytest.raises(DatasetError):
            EffectParams(np.inf, 0.0, 0.0)

    def test_baseline_validation(self):
        BaselineHazard(np.array([1.0, 2.0]), np.array([0.5, 0.25]))
        with pytest.raises(DatasetError):
            BaselineHazard(np.array([2.0, 1.0]), np.array([0.5, 0.25]))
        with pytest.raises(DatasetError):
            BaselineHazard(np.array([1.0]), np.array([0.0]))
        # the cumulative hazard is derived from the two arrays, never given
        with pytest.raises(TypeError):
            BaselineHazard(np.array([1.0]), np.array([0.5]), np.array([0.0, 0.5]))


class TestPredictiveValues:
    def test_ppv_hand_values(self):
        assert _ppv(DiagnosticModel(0.8, 0.8, 0.3)) == pytest.approx(0.24 / 0.38, abs=1e-12)
        assert _ppv(DiagnosticModel(0.95, 0.90, 0.47)) == pytest.approx(
            0.4465 / 0.4995, abs=1e-12
        )

    def test_npv_hand_values(self):
        assert _npv(DiagnosticModel(0.8, 0.8, 0.3)) == pytest.approx(0.56 / 0.62, abs=1e-12)
        assert _npv(DiagnosticModel(0.95, 0.90, 0.47)) == pytest.approx(
            0.477 / 0.5005, abs=1e-12
        )

    @pytest.mark.parametrize("pi", [0.05, 0.3, 0.7, 0.95])
    def test_perfect_test(self, pi):
        diag = DiagnosticModel(1.0, 1.0, pi)
        assert _ppv(diag) == 1.0
        assert _npv(diag) == 1.0

    def test_monotone_in_prevalence(self):
        grid = np.linspace(0.01, 0.99, 50)
        ppvs = [_ppv(DiagnosticModel(0.9, 0.85, p)) for p in grid]
        npvs = [_npv(DiagnosticModel(0.9, 0.85, p)) for p in grid]
        assert np.all(np.diff(ppvs) > 0)
        assert np.all(np.diff(npvs) < 0)
        assert all(0 < v <= 1 for v in ppvs + npvs)


class TestLinearPredictor:
    def test_zero_effects(self):
        assert _linear_predictor(EffectParams(0, 0, 0), 1, 1) == 0.0

    def test_scenario_sum(self):
        theta = EffectParams(-0.5, 0.1, 0.3)
        assert _linear_predictor(theta, 1, 1) == pytest.approx(-0.1)
        # treated biomarker-negative: hazard ratio exp(-0.5) ~ 0.61
        assert _linear_predictor(theta, 1, 0) == pytest.approx(-0.5)
        assert math.exp(-0.5) == pytest.approx(0.61, abs=0.005)

    def test_vectorized(self):
        theta = EffectParams(1.0, 2.0, 4.0)
        out = _linear_predictor(theta, np.array([0, 1, 1]), np.array([1, 0, 1]))
        assert np.allclose(out, [2.0, 1.0, 7.0])


class TestMixtureSurvival:
    theta = EffectParams(-0.5, 0.1, 0.3)
    diag = DiagnosticModel(0.8, 0.8, 0.3)
    # cumulative hazard 1 at t=2
    baseline = BaselineHazard(np.array([2.0]), np.array([0.5]))

    def test_degenerate_mixture(self):
        perfect = DiagnosticModel(1.0, 1.0, 0.3)
        got = mixture_survival(2.0, 0, 1, self.theta, self.baseline, perfect)
        s_pos = math.exp(-1.0 * math.exp(0.1))
        assert got == pytest.approx(s_pos, rel=1e-12)

    def test_null_effects_collapse(self):
        theta0 = EffectParams(0, 0, 0)
        for group in (1, 0, None):
            got = mixture_survival(2.0, 1, group, theta0, self.baseline, self.diag)
            assert got == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_hand_value_positive_group(self):
        w = 0.24 / 0.38
        expected = w * math.exp(-math.exp(0.1)) + (1 - w) * math.exp(-1.0)
        got = mixture_survival(2.0, 0, 1, self.theta, self.baseline, self.diag)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.3448, abs=1e-3)

    def test_between_components_and_monotone(self):
        ts = np.linspace(0.05, 6.0, 40)
        vals = [
            mixture_survival(t, 1, 0, self.theta, self.baseline, self.diag) for t in ts
        ]
        assert np.all(np.diff(vals) <= 1e-15)
        for t, v in zip(ts, vals):
            h0t = self.baseline.cumulative(t)
            s1 = math.exp(-h0t * math.exp(_linear_predictor(self.theta, 1, 1)))
            s0 = math.exp(-h0t * math.exp(_linear_predictor(self.theta, 1, 0)))
            assert min(s0, s1) - 1e-12 <= v <= max(s0, s1) + 1e-12
        assert mixture_survival(1e-12, 1, 0, self.theta, self.baseline, self.diag) == (
            pytest.approx(1.0, abs=1e-9)
        )


class TestBaselineEvaluation:
    baseline = BaselineHazard(np.array([1.0, 3.0]), np.array([0.4, 0.1]))

    def test_cumulative_piecewise_linear(self):
        assert self.baseline.cumulative(0.0) == 0.0
        assert self.baseline.cumulative(0.5) == pytest.approx(0.2)
        assert self.baseline.cumulative(1.0) == pytest.approx(0.4)
        assert self.baseline.cumulative(2.0) == pytest.approx(0.5)
        assert self.baseline.cumulative(3.0) == pytest.approx(0.6)
        # flat beyond the last event time
        assert self.baseline.cumulative(10.0) == pytest.approx(0.6)

    def test_hazard_levels(self):
        assert hazard_level(self.baseline, 0.5) == pytest.approx(0.4)
        assert hazard_level(self.baseline, 1.0) == pytest.approx(0.4)
        assert hazard_level(self.baseline, 2.0) == pytest.approx(0.1)
        assert hazard_level(self.baseline, 3.5) == 0.0

    def test_step_form_masses_at_event_times(self):
        assert step_cumulative(self.baseline, 0.99) == 0.0
        assert step_cumulative(self.baseline, 1.0) == pytest.approx(0.4)
        assert step_cumulative(self.baseline, 2.9) == pytest.approx(0.4)
        assert step_cumulative(self.baseline, 3.0) == pytest.approx(0.6)
        assert step_cumulative(self.baseline, 99.0) == pytest.approx(0.6)
