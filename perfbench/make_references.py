"""Regenerate perfbench/references.json, the stored outputs that the
fit-large and sim-cell workloads are checked against.

    OPENBLAS_NUM_THREADS=1 python3 perfbench/make_references.py

Run from the repository root, and only when a change is meant to move
these outputs; say so in CHANGES.md.  fit-large is fitted with its rows in
generated order (benchmark runs permute them); sim-cell records every
cell of the pool.
"""

from __future__ import annotations

import json

import worker


def main() -> None:
    from mixcox import cli, simulate

    workdir = worker.WORK / "references"
    workdir.mkdir(parents=True, exist_ok=True)
    large = worker.LargeFit(seed=0, workdir=workdir)
    rows = worker.large_trial()
    large.write_csv(rows, range(len(rows)))
    argv = large.argv(0)
    if cli.main(argv) != 0:
        raise SystemExit("fit-large: mixcox fit failed")
    doc = json.loads(open(argv[-1]).read())
    refs = {"fit-large": large.reference_entry(doc), "sim-cell": {}}
    for config in worker.SimCell.pool():
        entry = worker.SimCell.summary_entry(simulate.run_scenario(config))
        if entry["failures"]:
            print(f"warning: pool cell {config.base_seed} failed")
        refs["sim-cell"][str(config.base_seed)] = entry
    worker.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {worker.REFERENCES}")


if __name__ == "__main__":
    main()
