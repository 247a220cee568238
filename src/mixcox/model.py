"""Core statistical primitives for mixture-of-Cox subgroup models.

A trial records, for each subject, a right-censored follow-up time, a
treatment indicator and the result of a diagnostic test for a binary
biomarker.  The test has known sensitivity and specificity, so the true
biomarker status is latent and the survivor function in each observed test
group is a two-component mixture of proportional-hazards models.  This
module holds the value types shared by the estimator, the inference
routines and the simulator, together with the diagnostic-accuracy algebra
(predictive values), the linear predictor and the mixture survivor
function.

All types are immutable after construction and all functions are pure, so
everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DatasetError

__all__ = [
    "Dataset",
    "DiagnosticModel",
    "EffectParams",
    "BaselineHazard",
    "mixture_survival",
]

# Sentinel used for a missing diagnostic-test result.
TEST_MISSING = -1


class Dataset:
    """Immutable column store for a trial's subjects.

    Validates every value before storing it: follow-up times finite and
    positive, event and treatment indicators 0 or 1, test results 1, 0 or
    -1 (missing).  Also checks that the data can identify anything at all:
    at least one observed event and at least one subject in each arm.
    """

    __slots__ = ("time", "event", "treatment", "test", "__weakref__")

    def __init__(self, time, event, treatment, test):
        time = np.array(time, dtype=float)
        event, treatment, test = (np.asarray(c) for c in (event, treatment, test))
        columns = (time, event, treatment, test)
        if any(c.ndim != 1 for c in columns):
            raise DatasetError("columns must be one-dimensional")
        n = time.size
        if any(c.size != n for c in columns):
            raise DatasetError("column lengths differ")
        if n == 0:
            raise DatasetError("dataset is empty")
        # checked on the raw values: a cast to int8 would truncate 0.5 to 0
        # and wrap or reject out-of-range integers
        if not np.all(np.isfinite(time) & (time > 0)):
            raise DatasetError("all follow-up times must be positive and finite")
        if not np.all(np.isin(event, (0, 1))):
            raise DatasetError("event indicators must be 0 or 1")
        if not np.all(np.isin(treatment, (0, 1))):
            raise DatasetError("treatment indicators must be 0 or 1")
        if not np.all(np.isin(test, (0, 1, TEST_MISSING))):
            raise DatasetError("test results must be 0, 1 or -1 (missing)")
        event, treatment, test = (c.astype(np.int8) for c in (event, treatment, test))
        if not np.any(event == 1):
            raise DatasetError("dataset has no observed events")
        if len(np.unique(treatment)) < 2:
            raise DatasetError("both treatment arms must be present")
        for name, arr in (
            ("time", time), ("event", event), ("treatment", treatment), ("test", test)
        ):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.time.size

    def __setattr__(self, name, value):
        raise AttributeError("Dataset is immutable")


@dataclass(frozen=True)
class DiagnosticModel:
    """Accuracy of the biomarker test and the biomarker prevalence.

    Parameters
    ----------
    sensitivity : float
        Probability of a positive test given true positive status; (0, 1].
    specificity : float
        Probability of a negative test given true negative status; (0, 1].
    prevalence : float
        Marginal probability of true positive status; (0, 1).  When
        ``prevalence_known`` is False this is only a nominal value and the
        estimator replaces it with a data-driven estimate.
    prevalence_known : bool
        Whether ``prevalence`` is to be trusted rather than estimated.
    """

    sensitivity: float
    specificity: float
    prevalence: float
    prevalence_known: bool = True

    def __post_init__(self):
        if not 0 < self.sensitivity <= 1:
            raise DatasetError("sensitivity must be in (0, 1]")
        if not 0 < self.specificity <= 1:
            raise DatasetError("specificity must be in (0, 1]")
        if not self.sensitivity + self.specificity > 1:
            raise DatasetError("test must be informative: sensitivity + specificity > 1")
        if not 0 < self.prevalence < 1:
            raise DatasetError("prevalence must be in (0, 1)")


@dataclass(frozen=True)
class EffectParams:
    """Log-hazard-scale regression effects.

    ``beta1`` is the treatment effect in the biomarker-negative group,
    ``beta2`` the effect of positive biomarker status under control, and
    ``gamma`` the treatment-by-biomarker interaction, so the treatment
    log hazard ratio is ``beta1`` for negatives and ``beta1 + gamma`` for
    positives.
    """

    beta1: float
    beta2: float
    gamma: float

    def __post_init__(self):
        for name in ("beta1", "beta2", "gamma"):
            if not np.isfinite(getattr(self, name)):
                raise DatasetError(f"{name} must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.beta1, self.beta2, self.gamma], dtype=float)

    @classmethod
    def from_array(cls, arr) -> "EffectParams":
        b1, b2, g = (float(v) for v in arr)
        return cls(b1, b2, g)


@dataclass(frozen=True)
class BaselineHazard:
    """Piecewise-constant baseline hazard on inter-event intervals.

    The hazard equals ``increments[j]`` on the interval
    ``(event_times[j-1], event_times[j]]`` (with ``event_times[-1]``
    read as 0) and 0 beyond the last event time, so the cumulative hazard
    is continuous, piecewise linear, and flat after the last event.
    """

    event_times: np.ndarray
    increments: np.ndarray

    def __post_init__(self):
        ets = np.array(self.event_times, dtype=float)
        inc = np.array(self.increments, dtype=float)
        if ets.size != inc.size:
            raise DatasetError("event_times and increments must have equal length")
        if ets.size and not np.all(ets > 0):
            raise DatasetError("event times must be positive")
        if ets.size and not np.all(np.diff(ets) > 0):
            raise DatasetError("event times must be strictly increasing")
        if inc.size and not np.all(inc > 0):
            raise DatasetError("hazard increments must be positive")
        ets.flags.writeable = False
        inc.flags.writeable = False
        object.__setattr__(self, "event_times", ets)
        object.__setattr__(self, "increments", inc)

    def cumulative(self, t):
        """Cumulative hazard at ``t``: piecewise linear, flat past the end."""
        t = np.asarray(t, dtype=float)
        if np.any(t < 0):
            raise DatasetError("cumulative hazard requires t >= 0")
        m = self.event_times.size
        idx = np.searchsorted(self.event_times, t, side="left")
        left = np.where(idx > 0, self.event_times[np.minimum(idx, m) - 1], 0.0)
        part = np.where(idx < m, t - left, 0.0)
        widths = np.diff(np.concatenate(([0.0], self.event_times)))
        cum_at_events = np.concatenate(([0.0], np.cumsum(self.increments * widths)))
        padded = np.concatenate((self.increments, [0.0]))
        out = cum_at_events[idx] + padded[idx] * part
        return out if out.ndim else float(out)


def _ppv(diag: DiagnosticModel) -> float:
    """Positive predictive value: P(true positive | test positive)."""
    pi, se, sp = diag.prevalence, diag.sensitivity, diag.specificity
    return pi * se / (pi * se + (1 - pi) * (1 - sp))


def _npv(diag: DiagnosticModel) -> float:
    """Negative predictive value: P(true negative | test negative)."""
    pi, se, sp = diag.prevalence, diag.sensitivity, diag.specificity
    return (1 - pi) * sp / (pi * (1 - se) + (1 - pi) * sp)


def _linear_predictor(theta: EffectParams, x, z):
    """Log relative hazard ``beta1*x + beta2*z + gamma*x*z``."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    out = theta.beta1 * x + theta.beta2 * z + theta.gamma * x * z
    return out if out.ndim else float(out)


def mixture_survival(
    t: float,
    x: int,
    group: int | None,
    theta: EffectParams,
    baseline: BaselineHazard,
    diag: DiagnosticModel,
) -> float:
    """Survivor probability at ``t`` for a subject in a test-result group.

    ``group`` is the observed test result (1 positive, 0 negative, None
    missing).  The result is the two-component mixture of the latent-status
    survivor functions ``exp(-H0(t) exp(eta))`` with mixing weight PPV,
    1 - NPV or the prevalence, respectively.  Computed on the log scale.
    """
    if group == 1:
        w = _ppv(diag)
    elif group == 0:
        w = 1.0 - _npv(diag)
    elif group is None:
        w = diag.prevalence
    else:
        raise DatasetError(f"group must be 0, 1 or None, got {group}")
    h0t = baseline.cumulative(t)
    log_s1 = -h0t * np.exp(_linear_predictor(theta, x, 1))
    log_s0 = -h0t * np.exp(_linear_predictor(theta, x, 0))
    if w == 1.0:
        return float(np.exp(log_s1))
    if w == 0.0:
        return float(np.exp(log_s0))
    return float(np.exp(np.logaddexp(np.log(w) + log_s1, np.log1p(-w) + log_s0)))
