"""Self-tests of the benchmark harness.

    python3 -m pytest -q tgbench/check_counts.py     (about two minutes)
    python3 tgbench/check_counts.py                  (the same, without pytest)

The file name keeps these tests out of the package's own test run: they
start traced workload passes, which take minutes, not seconds.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run
import spans

# Counts a later change may cite as counts: they must repeat exactly for a seed.
EXACT = (
    "linalg.eigh.n3_sum",
    "fock.enumerate_sector.states",
    "fock.assemble_interaction.states",
    "cgibbs.sample_free_fields.rows",
    "cgibbs.hartree_energy_batch.rows",
    "cgibbs.local_energy_batch.rows",
    "cgibbs.live_frac",
    *(f"cgibbs.{est}.relvar" for est in spans.ESTIMATORS),
    "semiclassics.sample_husimi.proposals",
)


def _traced_pass(workload: str, seed: int) -> dict:
    with tempfile.TemporaryDirectory(dir=run.OUT) as work_dir:
        return run.Runner(workload, seed, work_dir).child("pass", trace=1)


def test_exact_counts_repeat():
    os.makedirs(run.OUT, exist_ok=True)
    for workload in run.WORKLOADS:
        first, second = (_traced_pass(workload, 7) for _ in range(2))
        for result in (first, second):
            assert "error" not in result, result.get("error")
            failed = [name for name, ok in result["checks"] if not ok]
            assert not failed, f"{workload}: {failed}"
        for name in EXACT:
            assert first["layers"].get(name, 0) == second["layers"].get(name, 0), (
                workload, name)


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        per_layer = json.load(fh)["per_layer"]
    expected = [{k: spec[k] for k in ("name", "unit", "better")} for spec in spans.METRICS]
    assert per_layer == expected


def test_pool_thread_spans_have_estimator_parent():
    sys.path.insert(0, run.SRC)
    from torusgibbs import cgibbs, model

    tracer = spans.Tracer()
    tracer.install()
    params = model.ModelParams(tau=20.0, eps=0.5, eta=0.1, K=0.6, k_max=1, n_max=7)
    cutoff = model.CutoffProfile.smooth(0.6, 0.1)
    serial = cgibbs.partition_ratio(params, "hartree", cutoff, 3 << 16, 5, threads=1)
    pooled = cgibbs.partition_ratio(params, "hartree", cutoff, 3 << 16, 5, threads=2)
    assert (serial.value, serial.stderr) == (pooled.value, pooled.stderr)
    draws = [i for i, name in enumerate(tracer.names) if name == "cgibbs.sample_free_fields"]
    assert len(draws) == 6
    assert all(tracer.names[tracer.parents[i]] == "cgibbs.partition_ratio" for i in draws)
    metrics = tracer.layer_metrics()
    assert metrics["cgibbs.partition_ratio.calls"] == 2
    assert metrics["cgibbs.sample_free_fields.rows"] == 6 << 16


if __name__ == "__main__":
    for test in (test_benchmark_json_lists_every_metric,
                 test_pool_thread_spans_have_estimator_parent, test_exact_counts_repeat):
        test()
        print(f"ok {test.__name__}")
