"""Exception types raised by the estimation machinery."""


class MixcoxError(Exception):
    """Base class for estimation failures."""


class DegenerateDataError(MixcoxError):
    """A risk set containing an event has zero total weight."""


class SeparationError(MixcoxError):
    """Monotone partial likelihood: a coefficient diverges (infinite MLE)."""


class ConditioningError(MixcoxError):
    """A profile information matrix is not positive definite."""


class IntervalError(MixcoxError):
    """A computed confidence interval excludes its own point estimate."""


class DatasetError(ValueError):
    """Invalid subject-level data (parsing or domain violations)."""
