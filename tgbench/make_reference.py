"""Pin the reference outputs the checks compare against.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tgbench/make_reference.py

Runs every workload once at `checks.REFERENCE_SEED`, plus the density
sweep at `TRACE_DIST_SEEDS` further seeds for the seed-to-seed spread of
its trace distance, and writes ``tgbench/reference.json``.  The file in the tree was made at the commit that
introduced the benchmark; regenerate it only when a change is meant to move
the reference values, and say so with the change.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile

import checks
import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
TRACE_DIST_SEEDS = 20


def trace_dist_spread() -> dict:
    """Mean and standard deviation over seeds of each tau's trace_dist.

    The CSV's own trace_dist_stderr is a jackknife over the MC shards, and
    1e5 samples make two shards: one degree of freedom, too few for a gate."""
    rows = [workloads.experiments.exp_density_convergence(
                workloads.experiments.ExperimentConfig(
                    seed=workloads.derive_seed(checks.REFERENCE_SEED, f"spread{i}")))
            for i in range(TRACE_DIST_SEEDS)]
    by_tau = list(zip(*rows))
    return {"n": TRACE_DIST_SEEDS,
            "tau": [col[0]["tau"] for col in by_tau],
            "mean": [statistics.fmean(r["trace_dist"] for r in col) for col in by_tau],
            "sd": [statistics.stdev(r["trace_dist"] for r in col) for col in by_tau]}


def main() -> int:
    ref = {}
    with tempfile.TemporaryDirectory() as out_dir:
        for name in run.WORKLOADS:
            ref[name] = workloads.run(name, checks.REFERENCE_SEED, out_dir)
            ref[name].pop("csv_sha256", None)
    ref["quantum-sweep"]["trace_dist_spread"] = trace_dist_spread()
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
