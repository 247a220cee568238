"""Trial simulator and scenario runner.

Generates biomarker-stratified two-arm trials with a decreasing Weibull
baseline hazard, misclassified biomarker status and uniform censoring,
then fits each replication and summarizes bias, spread, simultaneous
coverage and the interaction test's rejection rate.  A replication's fit
and the gamma = 0 null of its interaction test are the two lanes of one
stacked EM, both from the null start.  Replication ``rep``
draws from its own deterministic stream ``RngStream(base_seed, rep)``, so
results are bitwise reproducible regardless of how many workers run them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import em, inference
from .errors import DatasetError, MixcoxError
from .model import Dataset, DiagnosticModel, EffectParams, _linear_predictor

__all__ = [
    "ScenarioConfig",
    "ScenarioSummary",
    "RngStream",
    "generate_trial",
    "run_scenario",
    "emit_table",
    "RenderedTable",
]

# Baseline hazard used throughout: h0(t) = 0.8 * 0.1^0.8 * t^-0.2, i.e.
# cumulative hazard (0.1 t)^0.8.
WEIBULL_SHAPE = 0.8
WEIBULL_SCALE = 10.0


@dataclass(frozen=True)
class ScenarioConfig:
    """One cell of the simulation study.  Construction builds the
    diagnostic model its replications fit with, so that model's checks
    also validate the cell before any replication runs."""

    theta_true: EffectParams
    pi_true: float
    sens: float
    spec: float
    n_per_arm: int
    replications: int
    base_seed: int
    alpha: float = inference.ALPHA
    prevalence_known: bool = False
    censor_low: float = 5.0
    censor_high: float = 25.0
    diag: DiagnosticModel = field(init=False, repr=False)

    def __post_init__(self):
        if self.n_per_arm < 1:
            raise ValueError("n_per_arm must be at least 1")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be non-negative, got {self.base_seed}")
        inference._check_alpha(self.alpha)
        if not 0 < self.censor_low < self.censor_high:
            raise ValueError("need 0 < censor_low < censor_high")
        object.__setattr__(self, "diag", DiagnosticModel(
            self.sens, self.spec, self.pi_true, prevalence_known=self.prevalence_known))


@dataclass
class ScenarioSummary:
    """Aggregated results over the converged replications of one cell."""

    n_per_arm: int
    sens: float
    spec: float
    replications: int
    bias: np.ndarray        # mean(theta_hat - theta_true), per coefficient
    sd: np.ndarray          # empirical SD of theta_hat, per coefficient
    coverage_simult: float  # both simultaneous intervals cover the truth
    reject_rate: float      # interaction LR test significant at alpha
    failures: int

    def __post_init__(self):
        for rate in (self.coverage_simult, self.reject_rate):
            if np.isfinite(rate) and not 0 <= rate <= 1:
                raise ValueError("rates must lie in [0, 1]")


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream: (seed, counter) feeds a seed sequence,
    so stream ``counter`` of a given seed is the same on every run and every
    worker."""

    seed: int
    counter: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence((self.seed, self.counter)))


def _draw_survival_time(u, eta):
    """Invert the Weibull survivor function: the time with survival
    probability ``u`` given log relative hazard ``eta``."""
    u = np.asarray(u, dtype=float)
    eta = np.asarray(eta, dtype=float)
    out = WEIBULL_SCALE * (-np.log(u) * np.exp(-eta)) ** (1.0 / WEIBULL_SHAPE)
    return out if out.ndim else float(out)


def _draw_trial(config: ScenarioConfig, rng: np.random.Generator):
    """All per-subject draws, including the latent status (kept internal;
    the public dataset never carries it)."""
    n = 2 * config.n_per_arm
    z = (rng.random(n) < config.pi_true).astype(np.int8)
    u_test = rng.random(n)
    v = np.where(z == 1, u_test < config.sens, u_test >= config.spec).astype(np.int8)
    # 1:1 treatment allocation within each observed stratum: alternate in
    # arrival order, then shuffle within the stratum.  When both strata are
    # odd-sized the leftover subjects go to opposite arms, keeping the arm
    # totals exactly equal.
    x = np.zeros(n, dtype=np.int8)
    start = 1
    for stratum in (1, 0):
        idx = np.flatnonzero(v == stratum)
        pattern = np.resize(np.array([start, 1 - start], dtype=np.int8), idx.size)
        rng.shuffle(pattern)
        x[idx] = pattern
        if idx.size % 2 == 1:
            start = 1 - start
    eta = _linear_predictor(config.theta_true, x, z)
    t_latent = _draw_survival_time(rng.random(n), eta)
    censor = rng.uniform(config.censor_low, config.censor_high, n)
    time = np.minimum(t_latent, censor)
    event = (t_latent <= censor).astype(np.int8)
    return time, event, x, v, z


def generate_trial(config: ScenarioConfig, stream: RngStream) -> Dataset:
    """Simulate one trial of ``2 * n_per_arm`` subjects from ``stream``."""
    time, event, x, v, _ = _draw_trial(config, stream.generator())
    return Dataset(time, event, x, v)


def _replicate(config: ScenarioConfig, rep: int):
    """Run one replication; returns (theta_hat(3), covered, reject, ok).

    The fit and the gamma = 0 null of the interaction test are two lanes
    of one stacked EM (``em._fit_lanes``), both from the null start.  The
    fit's lane is :func:`em.fit`'s, bit for bit.  The null's lane replaces
    the refit :func:`inference.lr_test` would start from the fit: that
    start saves no maps, and a second lane costs a fraction of a second
    EM run.  A failed lane fails the replication.
    """
    try:
        data = generate_trial(config, RngStream(config.base_seed, rep))
        fit_lane, null_lane = em._fit_lanes(data, config.diag, [{}, {"gamma": 0.0}])
        res = em._fit_result(fit_lane, data, config.diag, em.MAX_ITER)
        info = inference.fd_profile_information(res)
        report = inference.simultaneous_cis(
            res.theta_hat, inference.subgroup_cov(info), config.alpha
        )
        truth = config.theta_true
        covered = report.interval_pos.contains(truth.beta1 + truth.gamma) \
            and report.interval_neg.contains(truth.beta1)
        if isinstance(null_lane, Exception):
            raise null_lane
        lam, _ = inference._lr_statistic(res.obs_loglik, null_lane.loglik_trace[-1])
        reject = lam > inference._chi2_quantile(1.0 - config.alpha)
        return res.theta_hat.as_array(), covered, reject, True
    except (MixcoxError, DatasetError):
        return np.full(3, np.nan), False, False, False


def run_scenario(config: ScenarioConfig, workers: int = 1) -> ScenarioSummary:
    """Run all replications of one cell and aggregate.

    Failed replications (an estimation failure such as non-convergence,
    separation or degenerate data) are counted and excluded; a warning is
    issued if they exceed 1% of the total.
    Results are identical for any ``workers`` because every replication
    has its own seeded stream and aggregation is in replication order.
    Raises DatasetError, before any replication runs, if ``workers`` is
    below 1.
    """
    if workers < 1:
        raise DatasetError("workers must be at least 1")
    reps = range(config.replications)
    if workers > 1:
        # imported here, so that neither the package import nor a
        # workers=1 run pays for importing the process pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replicate, [config] * config.replications, reps,
                                    chunksize=max(1, config.replications // (8 * workers))))
    else:
        results = [_replicate(config, r) for r in reps]

    thetas = np.array([r[0] for r in results])
    covered = np.array([r[1] for r in results])
    reject = np.array([r[2] for r in results])
    ok = np.array([r[3] for r in results])
    failures = int(np.sum(~ok))
    if failures > 0.01 * config.replications:
        warnings.warn(
            f"{failures}/{config.replications} replications failed and were "
            "excluded from the summary",
            stacklevel=2,
        )
    n_ok = int(np.sum(ok))
    truth = config.theta_true.as_array()
    if n_ok == 0:
        bias = np.full(3, np.nan)
        sd = np.full(3, np.nan)
        cov_rate = np.nan
        rej_rate = np.nan
    else:
        good = thetas[ok]
        bias = good.mean(axis=0) - truth
        sd = good.std(axis=0, ddof=1) if n_ok > 1 else np.full(3, np.nan)
        cov_rate = float(np.mean(covered[ok]))
        rej_rate = float(np.mean(reject[ok]))
    return ScenarioSummary(
        n_per_arm=config.n_per_arm,
        sens=config.sens,
        spec=config.spec,
        replications=config.replications,
        bias=bias,
        sd=sd,
        coverage_simult=cov_rate,
        reject_rate=rej_rate,
        failures=failures,
    )


@dataclass(frozen=True)
class RenderedTable:
    """Human-readable text plus machine-readable CSV of the same rows."""

    text: str
    csv: str


_CSV_COLUMNS = (
    "n_per_arm", "sens", "spec", "replications",
    "bias_beta1_x100", "bias_beta2_x100", "bias_gamma_x100",
    "sd_beta1", "sd_beta2", "sd_gamma",
    "coverage_simult", "reject_rate", "failures",
)


def _fmt(value, places=4):
    if value is None or (isinstance(value, float) and not np.isfinite(value)):
        return "NA"
    return f"{value:.{places}f}"


def emit_table(summaries) -> RenderedTable:
    """Render scenario summaries as an aligned text table and as CSV.

    Rows are keyed by (N per arm, sensitivity, specificity); the value
    columns are the per-coefficient bias (x100) and SD, the simultaneous
    coverage, the rejection rate of the interaction test, and the failure
    count.
    """
    summaries = list(summaries)
    if not summaries:
        raise ValueError("no summaries to render")
    header = (
        f"{'N':>5} {'(sens,spec)':>12} "
        f"{'bias_b1':>8} {'bias_b2':>8} {'bias_g':>8} "
        f"{'sd_b1':>7} {'sd_b2':>7} {'sd_g':>7} "
        f"{'cover':>7} {'reject':>7} {'fail':>5}"
    )
    rule = "-" * len(header)
    lines = [header, rule]
    csv_lines = [",".join(_CSV_COLUMNS)]
    for s in summaries:
        b = [100.0 * v for v in s.bias]
        lines.append(
            f"{s.n_per_arm:>5} {f'({s.sens:g},{s.spec:g})':>12} "
            f"{_fmt(b[0]):>8} {_fmt(b[1]):>8} {_fmt(b[2]):>8} "
            f"{_fmt(s.sd[0]):>7} {_fmt(s.sd[1]):>7} {_fmt(s.sd[2]):>7} "
            f"{_fmt(s.coverage_simult):>7} {_fmt(s.reject_rate):>7} "
            f"{s.failures:>5}"
        )
        fields = [
            repr(s.n_per_arm), repr(float(s.sens)), repr(float(s.spec)),
            repr(s.replications),
            *(("NA" if not np.isfinite(v) else repr(float(v))) for v in b),
            *(("NA" if not np.isfinite(v) else repr(float(v))) for v in s.sd),
            "NA" if not np.isfinite(s.coverage_simult) else repr(float(s.coverage_simult)),
            "NA" if not np.isfinite(s.reject_rate) else repr(float(s.reject_rate)),
            repr(s.failures),
        ]
        csv_lines.append(",".join(fields))
    return RenderedTable(text="\n".join(lines) + "\n", csv="\n".join(csv_lines) + "\n")
