"""Benchmark entry point.

    python3 perfbench/run.py --workload fit-golden --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

Run from the repository root.  Each workload runs in its own fresh Python
process (``worker.py``) with the BLAS and OpenMP thread pools pinned to
one thread.  With ``--trace 0`` the result holds the end-to-end metrics;
``setup_s`` is the median over fresh processes that only import
``mixcox.cli`` and prepare the workload's inputs.  With ``--trace 1`` it
holds the per-layer metrics from a traced run.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("fit-golden", "fit-large", "sim-cell")
SETUP_PROBES = 5
# every run, set-up probes included, ends within this many seconds
DEADLINE_S = 170.0
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """A workload process failed; no result is printed."""


def _worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting " + " ".join(args))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=ROOT, env={**os.environ, **PINNED_THREADS},
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} exceeded {timeout:.0f}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"worker {' '.join(args)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    base = ["--workload", name, "--seed", str(seed)]
    result = _worker(base + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    details = result.pop("details")
    if not trace:
        setups = [_worker(base + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            **result["metrics"],
        }
        details["setup_s_samples"] = setups
    _print_details(name, trace, result, details)
    return result


def _print_details(name, trace, result, details) -> None:
    print(f"== {name}  trace={trace}  env={json.dumps(details.pop('env'))}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<44} {entry['value']:.6g} {entry['unit']}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}")
    errors = details.pop("errors")
    details.pop("durations_s", None)
    print(f"  details {json.dumps(details)}")
    for line in errors:
        print(f"  FAILED {line.strip().splitlines()[-1]}")
    for layer in details.get("absent_layers", []):
        print(f"  ABSENT layer {layer}: not found in this version")
    for layer in details.get("silent_layers", []):
        print(f"  SILENT layer {layer}: expected on {name} but recorded no calls")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mixcox" / "__init__.py").is_file():
        print(f"error: no mixcox sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    start = time.monotonic()
    results = {}
    try:
        for i, name in enumerate(names, start=1):
            # each workload gets its own share of the time limit
            deadline = start + DEADLINE_S * i
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": entry for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps({"correct": final["failed"] == 0, **final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
