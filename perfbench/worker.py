"""One benchmark workload, run in a fresh process by ``run.py``.

    python3 perfbench/worker.py --workload fit-golden --seed 1 --seconds 50 --trace 0
    python3 perfbench/worker.py --workload fit-golden --seed 1 --setup-only

``run.py`` pins the BLAS thread pools before starting this process.  The
last line of standard output is one JSON object with the run's results.

Workloads (closed loop, one client, ``workers=1``):

fit-golden  ``mixcox fit`` on tests/data/golden_trial.csv (120 subjects,
            prevalence estimated); operations alternate text and
            structured output, checked against the golden report files.
fit-large   ``mixcox fit --prev 0.3`` on a 2,000-subject trial with ~10%
            missing tests, generated here from a fixed data seed; the run
            seed permutes the rows, which must not change the estimates.
sim-cell    ``simulate.run_scenario`` on one-replication cells at 500 per
            arm, sens = spec = 0.8; operation k runs pool cell
            (seed + k) mod POOL_SIZE, checked against stored results.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DATA = ROOT / "tests" / "data"
WORK = ROOT / ".perfbench_work"
REFERENCES = BENCH / "references.json"
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402  (benchmark-local module)

ALPHA = 0.05
# Relative-or-absolute tolerance for every number in the golden structured
# report: item 2 of the roadmap allows movement at the 1e-4 level.
GOLDEN_JSON_TOL = 1e-4
# fit-large: estimates converge to the EM tolerance; interval endpoints are
# bisected to ci_tol = 1e-4, and a different root finder may land anywhere
# in the final bracket.
ESTIMATE_TOL = 1e-4
CI_ENDPOINT_TOL = 5e-4
# sim-cell: per-replication coefficient estimates.
SIM_THETA_TOL = 1e-4

LARGE_DATA_SEED = 20170801
LARGE_N_PER_ARM = 1000
LARGE_THETA = (0.0, 0.1, -0.4)
LARGE_PI = 0.3
LARGE_SENS = LARGE_SPEC = 0.8
LARGE_MISSING_FRAC = 0.1

SIM_THETA = (0.0, 0.1, 0.0)
SIM_PI = 0.3
SIM_SENS = SIM_SPEC = 0.8
SIM_N_PER_ARM = 500
POOL_BASE_SEED = 70001
POOL_SIZE = 64
RHO_GRID = (-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9)
# The tail percentile is fixed so that it is the same on every commit.  p90
# is the highest with ten samples beyond it in a 50-second sim-cell run
# (~110 replications); a fit run holds too few fits for that, so there it is
# interpolated between the slowest fits.
TAIL_PERCENTILE = 90.0

FIT_LAYERS = (
    "cli.parse_dataset", "cli.render", "inference.profile_ci",
    "inference.profile_loglik", "inference.lr_test",
    "inference.fd_profile_information", "inference.overall_concordance_report",
    "em.fit", "cox.fit_weighted_cox", "cox.breslow_baseline", "cox.loglik",
)
SIM_LAYERS = (
    "simulate.run_scenario", "simulate.generate_trial",
    "inference.fd_profile_information", "inference.profile_loglik",
    "inference.lr_test", "inference.simultaneous_scale",
    "inference.bvn_rect_prob", "em.fit", "cox.fit_weighted_cox",
    "cox.breslow_baseline", "cox.loglik",
)


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def compare_json(got, want, tol: float, where: str = "") -> list[str]:
    """Differences between two parsed JSON documents; floats within tol."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where or '/'}: keys differ"]
        out = []
        for key in sorted(want):
            out += compare_json(got[key], want[key], tol, f"{where}/{key}")
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: lengths differ"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += compare_json(g, w, tol, f"{where}/{i}")
        return out
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        return [] if close(float(got), want, tol) else [f"{where}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{where}: {got!r} != {want!r}"]
    return []


def rect_prob(xi: float, rho: float) -> float:
    """P(|X1| <= xi, |X2| <= xi) for a standard bivariate normal with
    correlation rho, by quadrature of the conditional-normal form."""
    from scipy import integrate
    from scipy.special import ndtr

    s = math.sqrt(1.0 - rho * rho)

    def integrand(u):
        return math.exp(-0.5 * u * u) / math.sqrt(2 * math.pi) * (
            ndtr((xi - rho * u) / s) - ndtr((-xi - rho * u) / s))

    val, _ = integrate.quad(integrand, -xi, xi, epsabs=1e-14, epsrel=1e-13, limit=400)
    return val


class FitWorkload:
    """``mixcox fit`` through ``cli.main``; one operation is one fit."""

    count_ops = 1
    expected_layers = FIT_LAYERS

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.csv = workdir / "trial.csv"
        self.last_structured = None

    def argv(self, k: int) -> list[str]:
        argv = ["fit", str(self.csv), "--sens", repr(self.sens), "--spec", repr(self.spec)]
        if self.prev is not None:
            argv += ["--prev", repr(self.prev)]
        fmt = self.format_for(k)
        out = self.workdir / f"report{k % 2}.{'json' if fmt == 'structured' else 'txt'}"
        return argv + ["--format", fmt, "--out", str(out)]

    def op(self, k: int):
        from mixcox import cli

        argv = self.argv(k)
        rc = cli.main(argv)
        out = Path(argv[-1])
        return rc, self.format_for(k), (out.read_bytes() if rc == 0 else b"")

    def check(self, k: int, result) -> list[str]:
        rc, fmt, body = result
        if rc != 0:
            return [f"op {k}: mixcox fit exited with {rc}"]
        if fmt == "text":
            return self.check_text(k, body)
        doc = json.loads(body)
        self.last_structured = doc
        return self.check_structured(k, doc)

    def accuracy(self) -> dict:
        """Profile log-likelihood at each closed reported CI endpoint."""
        from scipy import stats
        from mixcox import cli, em, inference
        from mixcox.model import DiagnosticModel

        if self.last_structured is None:  # every structured operation failed
            return {"interval_err": 1.0, "ci_lr_err": None, "endpoints": 0}
        data = cli.parse_dataset(self.csv)
        estimated = self.prev is None
        diag = DiagnosticModel(self.sens, self.spec, 0.5 if estimated else self.prev,
                               prevalence_known=not estimated)
        res = em.fit(data, diag)
        q = float(stats.chi2.ppf(1.0 - ALPHA, 1))
        lr_err = prob_err = 0.0
        endpoints = 0
        for row in self.last_structured["parameters"]:
            for side in ("low", "high"):
                if row[f"ci_open_{side}"]:
                    continue
                ll = inference.profile_loglik(
                    data, diag, {row["name"]: row[f"ci_{side}"]}, warm=res)
                lam = 2.0 * (res.obs_loglik - ll)
                lr_err = max(lr_err, abs(lam - q))
                prob_err = max(prob_err, abs(float(stats.chi2.cdf(lam, 1)) - (1 - ALPHA)))
                endpoints += 1
        return {"interval_err": prob_err, "ci_lr_err": lr_err, "endpoints": endpoints}


class GoldenFit(FitWorkload):
    name = "fit-golden"
    min_ops = 2  # at least one text and one structured report
    sens, spec, prev = 0.9, 0.85, None

    def prepare(self) -> None:
        # the golden trial is the latency workload itself, so the seed does
        # not alter it
        self.csv.write_bytes((DATA / "golden_trial.csv").read_bytes())
        self.golden_text = (DATA / "golden_report.txt").read_bytes()
        self.golden_json = json.loads((DATA / "golden_report.json").read_text())

    @staticmethod
    def format_for(k: int) -> str:
        return "text" if k % 2 == 0 else "structured"

    def check_text(self, k, body) -> list[str]:
        if body != self.golden_text:
            return [f"op {k}: text report differs from golden_report.txt"]
        return []

    def check_structured(self, k, doc) -> list[str]:
        return [f"op {k}: {d}" for d in compare_json(doc, self.golden_json, GOLDEN_JSON_TOL)]


def large_trial():
    """Columns (time, event, treatment, test) of the fit-large trial; test
    is None where missing.  Independent of the package's own simulator."""
    import numpy as np

    rng = np.random.default_rng(LARGE_DATA_SEED)
    n = 2 * LARGE_N_PER_ARM
    z = rng.random(n) < LARGE_PI
    u = rng.random(n)
    test = np.where(z, u < LARGE_SENS, u >= LARGE_SPEC).astype(int)
    x = rng.permutation(np.repeat([0, 1], LARGE_N_PER_ARM))
    b1, b2, g = LARGE_THETA
    eta = b1 * x + b2 * z + g * x * z
    t_event = 10.0 * (-np.log(rng.random(n)) * np.exp(-eta)) ** (1 / 0.8)
    censor = rng.uniform(5.0, 25.0, n)
    missing = rng.random(n) < LARGE_MISSING_FRAC
    rows = []
    for i in range(n):
        rows.append((float(min(t_event[i], censor[i])), int(t_event[i] <= censor[i]),
                     int(x[i]), None if missing[i] else int(test[i])))
    return rows


class LargeFit(FitWorkload):
    name = "fit-large"
    min_ops = 1
    sens, spec, prev = LARGE_SENS, LARGE_SPEC, LARGE_PI

    def prepare(self) -> None:
        import numpy as np

        rows = large_trial()
        self.write_csv(rows, np.random.default_rng(self.seed).permutation(len(rows)))
        self.reference = load_references()[self.name]

    def write_csv(self, rows, order) -> None:
        lines = ["time,event,treatment,biomarker_test"]
        for i in order:
            t, d, x, v = rows[i]
            lines.append(f"{t!r},{d},{x},{'NA' if v is None else v}")
        self.csv.write_text("\n".join(lines) + "\n")

    @staticmethod
    def format_for(k: int) -> str:
        return "structured"

    def check_structured(self, k, doc) -> list[str]:
        errors = []
        if not doc["diagnostics"]["converged"]:
            errors.append(f"op {k}: EM did not converge")
        got = {row["name"]: row for row in doc["parameters"]}
        if set(got) != set(self.reference):
            return errors + [f"op {k}: parameters {sorted(got)} != {sorted(self.reference)}"]
        for name, ref in self.reference.items():
            row = got[name]
            for key, tol in (("estimate", ESTIMATE_TOL), ("ci_low", CI_ENDPOINT_TOL),
                             ("ci_high", CI_ENDPOINT_TOL)):
                if not close(row[key], ref[key], tol):
                    errors.append(f"op {k}: {name}.{key} {row[key]!r} != {ref[key]!r}")
            for key in ("ci_open_low", "ci_open_high"):
                if row[key] != ref[key]:
                    errors.append(f"op {k}: {name}.{key} {row[key]} != {ref[key]}")
        return errors

    @staticmethod
    def reference_entry(doc) -> dict:
        return {row["name"]: {key: row[key] for key in (
            "estimate", "ci_low", "ci_high", "ci_open_low", "ci_open_high")}
            for row in doc["parameters"]}


class SimCell:
    """One-replication cells through ``simulate.run_scenario``."""

    name = "sim-cell"
    min_ops = 10
    count_ops = 10
    expected_layers = SIM_LAYERS

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    @staticmethod
    def pool():
        from mixcox import simulate
        from mixcox.model import EffectParams

        return [simulate.ScenarioConfig(
            theta_true=EffectParams(*SIM_THETA), pi_true=SIM_PI, sens=SIM_SENS,
            spec=SIM_SPEC, n_per_arm=SIM_N_PER_ARM, replications=1,
            base_seed=POOL_BASE_SEED + i) for i in range(POOL_SIZE)]

    def prepare(self) -> None:
        self.configs = self.pool()
        self.reference = load_references()[self.name]

    def config_for(self, k: int):
        return self.configs[(self.seed + k) % POOL_SIZE]

    def op(self, k: int):
        from mixcox import simulate

        return simulate.run_scenario(self.config_for(k))

    @staticmethod
    def summary_entry(summary) -> dict:
        return {
            "theta_hat": [float(b) + t for b, t in zip(summary.bias, SIM_THETA)],
            "covered": float(summary.coverage_simult),
            "rejected": float(summary.reject_rate),
            "failures": int(summary.failures),
        }

    def check(self, k: int, summary) -> list[str]:
        cfg = self.config_for(k)
        got = self.summary_entry(summary)
        ref = self.reference[str(cfg.base_seed)]
        if got["failures"]:
            return [f"op {k} (seed {cfg.base_seed}): replication failed"]
        errors = []
        for i, (g, w) in enumerate(zip(got["theta_hat"], ref["theta_hat"])):
            if not abs(g - w) <= SIM_THETA_TOL:
                errors.append(f"op {k} (seed {cfg.base_seed}): theta_hat[{i}] {g!r} != {w!r}")
        for key in ("covered", "rejected"):
            if got[key] != ref[key]:
                errors.append(f"op {k} (seed {cfg.base_seed}): {key} {got[key]} != {ref[key]}")
        return errors

    def accuracy(self) -> dict:
        """Coverage error of the bivariate simultaneous scale on a fixed
        correlation grid, against this module's own quadrature."""
        from mixcox import inference

        err = max(abs(rect_prob(inference.simultaneous_scale(rho, ALPHA), rho) - (1 - ALPHA))
                  for rho in RHO_GRID)
        return {"interval_err": err, "rho_grid": list(RHO_GRID)}


WORKLOADS = {w.name: w for w in (GoldenFit, LargeFit, SimCell)}


def safe_op(workload, k: int):
    """Run one operation; an exception is a failed operation, not a crash."""
    try:
        return workload.op(k), None
    except Exception:  # noqa: BLE001 - the loop must go on and count it
        return None, traceback.format_exc(limit=3)


def keep_going(n_ops: int, elapsed: float, durations: list[float], workload,
               seconds: float) -> bool:
    """Closed loop: start another operation unless it would end more than
    half an operation past the measuring window."""
    if n_ops < workload.min_ops:
        return True
    return elapsed + 0.5 * statistics.median(durations) < seconds


def tail(durations: list[float], percentile: float) -> float:
    """Latency at ``percentile`` (linear interpolation between samples)."""
    if percentile >= 100.0 or len(durations) < 2:
        return max(durations)
    return statistics.quantiles(durations, n=100, method="inclusive")[round(percentile) - 1]


def run_untraced(workload, seconds: float):
    durations, errors = [], []
    start = time.perf_counter()
    k = 0
    results = []
    while True:
        t0 = time.perf_counter()
        result, exc = safe_op(workload, k)
        durations.append(time.perf_counter() - t0)
        results.append((k, result, exc))
        k += 1
        if not keep_going(k, time.perf_counter() - start, durations, workload, seconds):
            break
    failed = 0
    for k, result, exc in results:
        problems = [f"op {k}: {exc}"] if exc else workload.check(k, result)
        failed += bool(problems)
        errors += problems
    return durations, failed, errors


def run_traced(workload, seconds: float):
    """Pairs of untraced and traced runs of the same operation, in
    alternating order; counters come from the first ``count_ops`` traced
    operations, times are averaged over all of them."""
    tracer = tracing.Tracer()
    plain, traced, errors = [], [], []
    counts = None
    first_spans = []
    failed = attempted = 0
    start = time.perf_counter()
    k = 0
    while True:
        for traced_run in ((False, True) if k % 2 == 0 else (True, False)):
            if traced_run:
                tracer.install()
            t0 = time.perf_counter()
            result, exc = safe_op(workload, k)
            (traced if traced_run else plain).append(time.perf_counter() - t0)
            if traced_run:
                tracer.uninstall()
                spans = tracer.take_spans()
                if k == 0:
                    first_spans = [(s[0], s[1], s[2] - t0, s[3] - t0) for s in spans]
                if k + 1 == workload.count_ops:
                    counts = tracer.snapshot()
            problems = [f"op {k}: {exc}"] if exc else workload.check(k, result)
            attempted += 1
            failed += bool(problems)
            errors += problems
        k += 1
        pairs = [a + b for a, b in zip(plain, traced)]
        if not keep_going(k, time.perf_counter() - start, pairs, workload, seconds):
            break
    n = len(traced)
    scale = workload.count_ops / n
    metrics = {}
    for layer in tracing.LAYER_NAMES:
        calls = counts[f"{layer}.calls"]
        seconds_ = tracer.seconds[layer] * scale
        self_s = tracer.self_seconds[layer] * scale
        if layer == "cox.loglik":
            metrics.update({"cox.loglik_evals": (calls, "count"), "cox.loglik_s": (seconds_, "s"),
                            "cox.loglik_self_s": (self_s, "s")})
        else:
            metrics.update({f"{layer}.calls": (calls, "count"), f"{layer}.s": (seconds_, "s"),
                            f"{layer}.self_s": (self_s, "s")})
    newton = counts["cox.newton_iterations"]
    fits = counts["cox.fit_weighted_cox.calls"]
    evals = counts["cox.loglik.calls"]
    ci_calls = counts["inference.profile_ci.calls"]
    silent = [layer for layer in workload.expected_layers if not counts[f"{layer}.calls"]]
    metrics.update({
        "cox.newton_iterations": (newton, "count"),
        "cox.step_accept_ratio": (newton / (evals - fits) if evals > fits else 0.0, "ratio"),
        "cox.not_converged": (counts["cox.not_converged"], "count"),
        "em.iterations": (counts["em.iterations"], "count"),
        "em.not_converged": (counts["em.not_converged"], "count"),
        "inference.refits_per_endpoint": (
            counts["inference.profile_ci_refits"] / (2 * ci_calls) if ci_calls else 0.0, "count"),
        "simulate.failures": (counts["simulate.failures"], "count"),
        "trace_overhead_frac": (sum(traced) / sum(plain) - 1.0, "frac"),
        "trace.absent_layers": (len(tracer.absent), "count"),
        "trace.silent_layers": (len(silent), "count"),
    })
    details = {
        "traced_ops": n,
        "count_window_ops": workload.count_ops,
        "absent_layers": tracer.absent,
        "silent_layers": silent,
        "spans_file": str(write_spans(workload, first_spans)),
    }
    return metrics, attempted, failed, errors, details


def write_spans(workload, spans) -> Path:
    path = WORK / f"spans-{workload.name}.json"
    path.write_text(json.dumps([
        {"name": name, "parent": parent, "start": start, "end": end}
        for name, parent, start, end in spans]))
    return path


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def setup(name: str, seed: int):
    """Import the CLI and prepare the workload's inputs; returns the
    workload and the seconds it took."""
    t0 = time.perf_counter()
    import mixcox.cli  # noqa: F401  (the import is part of what is timed)

    workdir = WORK / name
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, workdir)
    workload.prepare()
    return workload, time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload, setup_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    details = {"env": environment(args.seed), "setup_s_this_process": setup_s}
    if args.trace:
        metrics, attempted, failed, errors, extra = run_traced(workload, args.seconds)
        details.update(extra)
    else:
        durations, failed, errors = run_untraced(workload, args.seconds)
        attempted = len(durations)
        acc = workload.accuracy()
        tail_s = tail(durations, TAIL_PERCENTILE)
        metrics = {
            "latency_p50_s": (statistics.median(durations), "s"),
            "latency_tail_s": (tail_s, "s"),
            "ops_per_s": (attempted / sum(durations), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "success_frac": ((attempted - failed) / attempted, "frac"),
            "interval_err": (acc.pop("interval_err"), "prob"),
        }
        details.update({"samples": attempted, "tail_percentile": TAIL_PERCENTILE,
                        "samples_beyond_tail": sum(d > tail_s for d in durations),
                        "durations_s": durations, "accuracy": acc})
    details["errors"] = errors[:20]
    print(json.dumps({
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
