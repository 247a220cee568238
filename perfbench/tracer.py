"""Span tracer for the benchmark's traced runs.

It times calls into the package's layers from outside the package: each
traced function is rebound on its module (or class) to a pass-through
wrapper that opens a span on entry and closes it on exit.  Callers inside
the package look these names up at call time, so internal calls are seen
too.  ``uninstall`` puts the original functions back, so untraced
operations run the unmodified code.

A span records its name, start, end and the span open when it started.
A layer's self time is its spans' durations minus the time covered by
their child spans.  A name that does not exist (a later version renamed
or removed it) is reported as absent rather than failing the run.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

# (layer name, module, attribute path).  Layers that share a name are
# accumulated together.  ``cox._loglik_parts`` is private, but it is the
# partial-likelihood kernel and has no public entry point on the hot path.
LAYERS = (
    ("cli.parse_dataset", "mixcox.cli", "parse_dataset"),
    ("cli.render", "mixcox.cli", "AnalysisReport.to_text"),
    ("cli.render", "mixcox.cli", "AnalysisReport.to_json"),
    ("simulate.run_scenario", "mixcox.simulate", "run_scenario"),
    ("simulate.generate_trial", "mixcox.simulate", "generate_trial"),
    ("inference.profile_ci", "mixcox.inference", "profile_ci"),
    ("inference.profile_loglik", "mixcox.inference", "profile_loglik"),
    ("inference.lr_test", "mixcox.inference", "lr_test"),
    ("inference.fd_profile_information", "mixcox.inference", "fd_profile_information"),
    ("inference.overall_concordance_report", "mixcox.inference", "overall_concordance_report"),
    ("inference.simultaneous_scale", "mixcox.inference", "simultaneous_scale"),
    ("inference.bvn_rect_prob", "mixcox.inference", "bvn_rect_prob"),
    ("em.fit", "mixcox.em", "fit"),
    ("cox.fit_weighted_cox", "mixcox.cox", "fit_weighted_cox"),
    ("cox.breslow_baseline", "mixcox.cox", "breslow_baseline"),
    ("cox.loglik", "mixcox.cox", "_loglik_parts"),
)

LAYER_NAMES = tuple(dict.fromkeys(name for name, _, _ in LAYERS))


def _on_cox_fit(tracer: "Tracer", fit) -> None:
    tracer.counts["cox.newton_iterations"] += int(getattr(fit, "iterations", 0))
    if not getattr(fit, "converged", True):
        tracer.counts["cox.not_converged"] += 1


def _on_em_fit(tracer: "Tracer", res) -> None:
    tracer.counts["em.iterations"] += int(getattr(res, "iterations", 0))
    if not getattr(res, "converged", True):
        tracer.counts["em.not_converged"] += 1


def _on_profile_loglik(tracer: "Tracer", _value) -> None:
    if tracer.open_names["inference.profile_ci"]:
        tracer.counts["inference.profile_ci_refits"] += 1


def _on_run_scenario(tracer: "Tracer", summary) -> None:
    tracer.counts["simulate.failures"] += int(getattr(summary, "failures", 0))


ON_RESULT = {
    "cox.fit_weighted_cox": _on_cox_fit,
    "em.fit": _on_em_fit,
    "inference.profile_loglik": _on_profile_loglik,
    "simulate.run_scenario": _on_run_scenario,
}


def _resolve(module_name: str, path: str):
    """(owner, attribute, function) for ``module.path``, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    if not callable(fn):
        return None
    return owner, attr, fn


class Tracer:
    """Spans and counters for one traced operation at a time."""

    def __init__(self):
        self.spans: list[list] = []       # [name, parent index, start, end]
        self.calls: Counter = Counter()
        self.seconds: Counter = Counter()
        self.self_seconds: Counter = Counter()
        self.counts: Counter = Counter()
        self.open_names: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._child_time: list[float] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        absent = []
        for name, module_name, path in LAYERS:
            found = _resolve(module_name, path)
            if found is None:
                absent.append(f"{name} ({module_name}.{path})")
                continue
            owner, attr, fn = found
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, ON_RESULT.get(name)))
        self.absent = absent

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def take_spans(self) -> list[list]:
        """The spans recorded since the last call; call between operations."""
        spans, self.spans = self.spans, []
        return spans

    def snapshot(self) -> Counter:
        """Call counts and derived counters accumulated so far."""
        snap = Counter({f"{name}.calls": n for name, n in self.calls.items()})
        snap.update(self.counts)
        return snap

    def _wrap(self, name, fn, on_result):
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if on_result is not None:
                on_result(tracer, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, parent, time.perf_counter(), 0.0])
        self._stack.append(index)
        self._child_time.append(0.0)
        self.open_names[name] += 1
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        span = self.spans[index]
        span[3] = end
        self._stack.pop()
        child = self._child_time.pop()
        duration = end - span[2]
        if self._child_time:
            self._child_time[-1] += duration
        name = span[0]
        self.open_names[name] -= 1
        self.calls[name] += 1
        # a layer re-entered inside itself counts its outer span only
        if not self.open_names[name]:
            self.seconds[name] += duration
        self.self_seconds[name] += duration - child
