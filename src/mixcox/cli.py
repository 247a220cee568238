"""Command-line interface: fit a dataset or run a simulation study.

``mixcox fit DATA.csv --sens 0.95 --spec 0.90`` estimates the subgroup
model on a delimited dataset and prints the coefficient table (estimates,
profile confidence intervals, likelihood-ratio p-values) followed by the
concordance-odds table with simultaneous intervals.  ``mixcox simulate
--config scenarios.json --out-dir out/`` runs each configured scenario
and writes summary tables.

Exit codes: 0 success, 1 validation error, 2 convergence or estimation
failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time as _time
from dataclasses import dataclass, field
from pathlib import Path

from . import em, inference, simulate
from .errors import DatasetError, IntervalError, MixcoxError
from .model import Dataset, DiagnosticModel, EffectParams, TEST_MISSING

__all__ = [
    "AnalysisRequest",
    "AnalysisReport",
    "parse_dataset",
    "run_fit",
    "run_simulation",
    "main",
]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONVERGENCE = 2
EXIT_IO = 3

DATASET_COLUMNS = ("time", "event", "treatment", "biomarker_test")


@dataclass(frozen=True)
class AnalysisRequest:
    """Validated inputs of the ``fit`` subcommand.

    Construction builds the diagnostic model from the inputs and checks
    the level and the iteration cap, so the request is validated before
    the dataset is read.
    """

    dataset_path: str
    sensitivity: float
    specificity: float
    prevalence: float | None = None  # None: estimate from the data
    alpha: float = inference.ALPHA
    output_format: str = "text"
    em_max_iter: int = em.MAX_ITER
    diag: DiagnosticModel = field(init=False, repr=False)

    def __post_init__(self):
        if self.output_format not in ("text", "structured"):
            raise DatasetError("format must be 'text' or 'structured'")
        estimated = self.prevalence is None
        diag = DiagnosticModel(self.sensitivity, self.specificity,
                               0.5 if estimated else self.prevalence,
                               prevalence_known=not estimated)
        object.__setattr__(self, "diag", diag)
        em._check_max_iter(self.em_max_iter)
        inference._check_alpha(self.alpha)


@dataclass
class ParamRow:
    name: str
    label: str
    estimate: float
    ci: inference.Interval
    p_value: float | None


@dataclass
class AnalysisReport:
    """Everything the ``fit`` subcommand reports.  It is built from a
    converged fit only (``em.fit`` raises at the iteration cap), so both
    renderings state ``converged: True``."""

    parameters: list[ParamRow]
    subgroups: inference.SimultaneousReport
    alpha: float
    prevalence_estimated: bool
    pi_hat: float
    iterations: int
    obs_loglik: float

    def __post_init__(self):
        for row in self.parameters:
            if not row.ci.contains(row.estimate):
                raise IntervalError(
                    f"internal error: interval for {row.name} excludes the estimate"
                )

    def to_text(self) -> str:
        pct = f"{100 * (1 - self.alpha):g}%"
        lines = [
            "Parameter estimates (profile likelihood)",
            f"{'parameter':<28}{'estimate':>9}  {pct + ' CI':<18}{'p-value':>8}",
        ]
        for row in self.parameters:
            ci = f"({row.ci.low:.2f}, {row.ci.high:.2f})"
            if row.ci.open_low or row.ci.open_high:
                ci += " *"
            p = _fmt_p(row.p_value) if row.p_value is not None else "-"
            lines.append(f"{row.label:<28}{row.estimate:>9.2f}  {ci:<18}{p:>8}")
        if any(r.ci.open_low or r.ci.open_high for r in self.parameters):
            lines.append("  * endpoint not bracketed; interval open")
        lines.append("")
        lines.append(f"Concordance odds (simultaneous {pct} CIs)")
        lines.append(f"{'group':<22}{'CO':>6}  {'CI':<16}")
        sg = self.subgroups
        for label, est, ival in (
            ("biomarker-negative", sg.est_neg, sg.interval_neg),
            ("biomarker-positive", sg.est_pos, sg.interval_pos),
            ("overall", sg.est_overall, sg.interval_overall),
        ):
            co = math.exp(est)
            lines.append(
                f"{label:<22}{co:>6.2f}  "
                f"({math.exp(ival.low):.2f}, {math.exp(ival.high):.2f})"
            )
        lines.append("")
        lines.append(
            f"converged: True after {self.iterations} EM iterations; "
            f"log-likelihood {self.obs_loglik:.4f}"
        )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "parameters": [
                {
                    "name": row.name,
                    "estimate": row.estimate,
                    "ci_low": row.ci.low,
                    "ci_high": row.ci.high,
                    "ci_open_low": row.ci.open_low,
                    "ci_open_high": row.ci.open_high,
                    "p_value": row.p_value,
                }
                for row in self.parameters
            ],
            "concordance_odds": {
                "xi_alpha": self.subgroups.xi_alpha,
                "groups": {
                    "biomarker_negative": _co_entry(
                        self.subgroups.est_neg, self.subgroups.interval_neg
                    ),
                    "biomarker_positive": _co_entry(
                        self.subgroups.est_pos, self.subgroups.interval_pos
                    ),
                    "overall": _co_entry(
                        self.subgroups.est_overall, self.subgroups.interval_overall
                    ),
                },
            },
            "alpha": self.alpha,
            "prevalence": {
                "estimated": self.prevalence_estimated,
                "value": self.pi_hat,
            },
            "diagnostics": {
                "converged": True,
                "em_iterations": self.iterations,
                "log_likelihood": self.obs_loglik,
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _co_entry(log_co, interval):
    return {
        "co": math.exp(log_co),
        "ci_low": math.exp(interval.low),
        "ci_high": math.exp(interval.high),
        "log_co": log_co,
    }


def _fmt_p(p: float) -> str:
    if p < 0.001:
        return "<0.001"
    return f"{p:.3f}" if p < 0.01 else f"{p:.2f}"


def parse_dataset(path) -> Dataset:
    """Read a delimited dataset with header columns time, event,
    treatment, biomarker_test (biomarker_test: 0, 1, NA or empty).

    The delimiter is the first of comma, semicolon and tab that the header
    line contains (a comma if it holds none); fields may be quoted."""
    lines = Path(path).read_text().splitlines()
    header_line = next((line for line in lines if line.strip()), "")
    delimiter = next((d for d in ",;\t" if d in header_line), ",")
    reader = csv.reader(lines, delimiter=delimiter, skipinitialspace=True)
    rows = [row for row in reader if row and any(field.strip() for field in row)]
    if not rows:
        raise DatasetError(f"{path}: file has no rows")
    header = [h.strip().lower() for h in rows[0]]
    if sorted(header) != sorted(DATASET_COLUMNS):
        raise DatasetError(
            f"{path}: header must contain exactly {', '.join(DATASET_COLUMNS)}; "
            f"got {', '.join(header)}"
        )
    col = {name: header.index(name) for name in DATASET_COLUMNS}
    time_v, event_v, treat_v, test_v = [], [], [], []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DatasetError(f"{path}:{line_no}: expected {len(header)} fields")
        time_v.append(_parse_time(row[col["time"]], path, line_no))
        event_v.append(_parse_binary(row[col["event"]], "event", path, line_no))
        treat_v.append(_parse_binary(row[col["treatment"]], "treatment", path, line_no))
        test_v.append(_parse_test(row[col["biomarker_test"]], path, line_no))
    try:
        return Dataset(time_v, event_v, treat_v, test_v)
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from None


def _parse_time(token, path, line_no) -> float:
    try:
        value = float(token)
    except ValueError:
        raise DatasetError(f"{path}:{line_no}: column time: not a number: {token!r}") from None
    if not 0 < value < math.inf:
        raise DatasetError(
            f"{path}:{line_no}: column time: must be positive and finite, got {value}"
        )
    return value


def _parse_binary(token, name, path, line_no) -> int:
    token = token.strip()
    if token not in ("0", "1"):
        raise DatasetError(f"{path}:{line_no}: column {name}: must be 0 or 1, got {token!r}")
    return int(token)


def _parse_test(token, path, line_no) -> int:
    token = token.strip()
    if token == "" or token.lower() == "na":
        return TEST_MISSING
    if token in ("0", "1"):
        return int(token)
    raise DatasetError(
        f"{path}:{line_no}: column biomarker_test: must be 0, 1 or NA, got {token!r}"
    )


def run_fit(request: AnalysisRequest) -> AnalysisReport:
    """Fit, build all intervals and tests, and assemble the report."""
    data = parse_dataset(request.dataset_path)
    diag = request.diag
    estimated = not diag.prevalence_known
    res = em.fit(data, diag, max_iter=request.em_max_iter)
    info = inference.fd_profile_information(data, diag, fit_result=res)
    labels = {
        "beta1": "treatment (beta1)",
        "beta2": "biomarker positive (beta2)",
        "gamma": "interaction (gamma)",
    }
    # every interval and likelihood-ratio test of the report in one
    # lockstep run of their profile searches
    names = em.PARAM_NAMES
    intervals, tests = inference._profile(
        data, diag, [*names, "pi"] if estimated else names, request.alpha, fit_result=res,
        max_iter=request.em_max_iter, information=info, tests=dict.fromkeys(names, 0.0),
    )
    theta = res.theta_hat.as_array()
    rows = [ParamRow(name, labels[name], float(theta[i]), intervals[name], tests[name][1])
            for i, name in enumerate(names)]
    if estimated:
        rows.append(ParamRow("pi", "prevalence (pi)", res.pi_hat, intervals["pi"], None))
    subgroups = inference.overall_concordance_report(
        data, diag, res, request.alpha, information=info
    )
    return AnalysisReport(
        parameters=rows,
        subgroups=subgroups,
        alpha=request.alpha,
        prevalence_estimated=estimated,
        pi_hat=res.pi_hat,
        iterations=res.iterations,
        obs_loglik=res.obs_loglik,
    )


def _scenario_from_dict(entry: dict, reps_override, seed_override) -> simulate.ScenarioConfig:
    try:
        theta = entry["theta"]
        cfg = simulate.ScenarioConfig(
            theta_true=EffectParams(float(theta[0]), float(theta[1]), float(theta[2])),
            pi_true=float(entry["pi"]),
            sens=float(entry["sens"]),
            spec=float(entry["spec"]),
            n_per_arm=int(entry["n_per_arm"]),
            replications=int(reps_override if reps_override is not None else entry["reps"]),
            base_seed=int(seed_override if seed_override is not None else entry["seed"]),
            alpha=float(entry.get("alpha", inference.ALPHA)),
            prevalence_known=bool(entry.get("prevalence_known", False)),
            censor_low=float(entry.get("censor_low", 5.0)),
            censor_high=float(entry.get("censor_high", 25.0)),
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise DatasetError(f"invalid scenario entry {entry!r}: {exc}") from None
    return cfg


def run_simulation(config_path, out_dir, reps_override=None, seed_override=None,
                   workers: int = 1) -> list[Path]:
    """Run every scenario in a JSON config and write summary tables.

    The config is either a list of scenario objects or ``{"scenarios":
    [...]}``; each object has keys theta (3 numbers), pi, sens, spec,
    n_per_arm, reps, seed, and optionally alpha, prevalence_known,
    censor_low, censor_high.  Writes ``summary.txt`` and ``summary.csv``
    to ``out_dir``; both are byte-stable for a fixed config and seed.
    """
    raw = Path(config_path).read_text()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{config_path}: invalid JSON: {exc}") from None
    entries = doc["scenarios"] if isinstance(doc, dict) else doc
    if not isinstance(entries, list) or not entries:
        raise DatasetError(f"{config_path}: expected a non-empty list of scenarios")
    configs = [_scenario_from_dict(e, reps_override, seed_override) for e in entries]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summaries = []
    for i, cfg in enumerate(configs, start=1):
        t0 = _time.perf_counter()
        print(
            f"scenario {i}/{len(configs)}: N={cfg.n_per_arm}/arm "
            f"(sens,spec)=({cfg.sens:g},{cfg.spec:g}) reps={cfg.replications} ...",
            flush=True,
        )
        summaries.append(simulate.run_scenario(cfg, workers=workers))
        print(f"  done in {_time.perf_counter() - t0:.1f}s", flush=True)
    table = simulate.emit_table(summaries)
    txt = out / "summary.txt"
    csv_path = out / "summary.csv"
    txt.write_text(table.text)
    csv_path.write_text(table.csv)
    return [txt, csv_path]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse's own exit through our codes
        raise DatasetError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mixcox", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a dataset")
    p_fit.add_argument("data", help="dataset file (time,event,treatment,biomarker_test)")
    p_fit.add_argument("--sens", type=float, required=True, help="test sensitivity")
    p_fit.add_argument("--spec", type=float, required=True, help="test specificity")
    p_fit.add_argument("--prev", type=float, default=None,
                       help="known prevalence (omit to estimate)")
    p_fit.add_argument("--alpha", type=float, default=inference.ALPHA)
    p_fit.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_fit.add_argument("--format", choices=("text", "structured"), default="text")
    p_fit.add_argument("--max-em-iter", type=int, default=em.MAX_ITER)

    p_sim = sub.add_parser("simulate", help="run a simulation study")
    p_sim.add_argument("--config", required=True, help="JSON scenario config")
    p_sim.add_argument("--reps", type=int, default=None, help="override replications")
    p_sim.add_argument("--seed", type=int, default=None, help="override base seed")
    p_sim.add_argument("--out-dir", required=True)
    p_sim.add_argument("--workers", type=int, default=1)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "fit":
            request = AnalysisRequest(
                dataset_path=args.data,
                sensitivity=args.sens,
                specificity=args.spec,
                prevalence=args.prev,
                alpha=args.alpha,
                output_format=args.format,
                em_max_iter=args.max_em_iter,
            )
            report = run_fit(request)
            structured = request.output_format == "structured"
            rendered = report.to_json() if structured else report.to_text()
            if args.out:
                Path(args.out).write_text(rendered)
            else:
                sys.stdout.write(rendered)
        else:
            run_simulation(args.config, args.out_dir, reps_override=args.reps,
                           seed_override=args.seed, workers=args.workers)
        return EXIT_OK
    except MixcoxError as exc:
        print(f"error: estimation failed: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except DatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
