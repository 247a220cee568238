"""Count determinism check for the traced runs.

    python3 perfbench/check_counts.py --seed 1 --seconds 5

Runs each workload's traced run twice at the same seed and requires every
count (calls, EM and Newton iterations, loglik evaluations, bvn calls,
non-convergence and failure counts) to repeat exactly; exits 1 if any
differs.  For fit-golden it also compares the counts with the baseline
measured when the benchmark was defined (ROADMAP.md); a change that cuts
refits or iterations is expected to differ there, so that comparison is
reported but does not fail the check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("fit-golden", "fit-large", "sim-cell")
GOLDEN_BASELINE = {
    "em.fit.calls": 129,
    "cox.fit_weighted_cox.calls": 2068,
    "cox.loglik_evals": 8440,
    "inference.refits_per_endpoint": 14.5,
}


def traced_counts(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    ok = True
    for workload in args.workloads.split(","):
        first = traced_counts(workload, args.seed, args.seconds)
        second = traced_counts(workload, args.seed, args.seconds)
        differ = sorted(k for k in first if first[k] != second.get(k))
        ok &= not differ
        print(f"{workload}: {len(first)} counts, "
              + ("repeat exactly" if not differ else f"DIFFER: {differ}"))
        if workload == "fit-golden":
            off = {k: (first.get(k), v) for k, v in GOLDEN_BASELINE.items() if first.get(k) != v}
            print("  baseline counts: " + ("match" if not off else f"differ {off}"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
