"""Library names the benchmark harness binds.

`tgbench/spans.py` wraps every function its `WRAPPED` table lists by module
and attribute name, and it patches `cgibbs._map_shards`,
`semiclassics._tensor_power_coeffs`, `semiclassics.sample_husimi` and
`model.CutoffProfile.smooth` by name, calling the first two with positional
arguments.  A traced benchmark
run crashes when one of them is renamed, so each must resolve here first.
Its estimator counters read the call arguments and results, so they must
accept what the estimators take and return, and the estimators must look the
energy batches up in `cgibbs` at each call, so the rebound wrappers count
their rows.  Its generator proxy counts the rows of sized `uniform` calls as
the sampler's product-form draws; the sampler draws every sample by
rejection and makes no such call, so its acceptance ratio counts every draw.
The harness source is read and executed in memory; nothing under tgbench/
is written.
"""

import functools
import importlib
import inspect
import os
import types

import numpy as np
import pytest

from torusgibbs import cgibbs, qgibbs, semiclassics
from torusgibbs.model import CutoffProfile, ModelParams

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tgbench", "spans.py")


def _harness() -> types.ModuleType:
    module = types.ModuleType("tgbench_spans")
    with open(SPANS, encoding="utf-8") as fh:
        exec(compile(fh.read(), SPANS, "exec"), module.__dict__)
    return module


HARNESS = _harness()
BOUND = [(mod, attr) for mod, attr, *_ in HARNESS.WRAPPED] + [
    ("cgibbs", "_map_shards"),
    ("semiclassics", "_tensor_power_coeffs"),
    ("semiclassics", "sample_husimi"),
    ("model", "CutoffProfile.smooth"),
]


@pytest.mark.parametrize("module,attr", BOUND, ids=[f"{m}.{a}" for m, a in BOUND])
def test_bound_name_resolves(module, attr):
    target = functools.reduce(getattr, attr.split("."),
                              importlib.import_module(f"torusgibbs.{module}"))
    assert callable(target)


def test_patched_helpers_take_the_harness_arguments():
    # the harness calls map_shards(seed, n_samples, fn, threads) and
    # tensor_power(occupations, v)
    inspect.signature(cgibbs._map_shards).bind(0, 1, None, 1)
    inspect.signature(semiclassics._tensor_power_coeffs).bind(None, None)


def test_moment_matrix_counter_reads_the_call():
    # the relvar counter takes n_samples from args[4] and divides the squared
    # stderr matrix by the squared moment matrix
    params = ModelParams(tau=10.0, eps=0.5, eta=0.1, K=0.6, k_max=1, n_max=3)
    args = (params, "hartree", CutoffProfile.smooth(0.6, 0.1), 1, 3000, 5)
    counts = HARNESS._relvar(args, {}, cgibbs.classical_moment_matrix(*args))
    assert np.isfinite(counts["relvar"]) and counts["relvar"] > 0.0


# estimators that score rows by an energy batch, with the batch they must reach
ENERGY_CALLERS = {
    "classical_partition_local": ("local_energy_batch", lambda p, cut: (
        cgibbs.classical_partition(p, "local", cut, 3000, 5))),
    "capped_partition": ("hartree_energy_batch", lambda p, cut: (
        cgibbs.capped_partition(p, 6.0, cut, 3000, 5))),
    "subcritical_moment": ("local_energy_batch", lambda p, cut: (
        cgibbs.subcritical_moment(p, 0.6, 0.0, 3000, 5))),
}


@pytest.mark.parametrize("estimator", sorted(ENERGY_CALLERS))
def test_energies_reached_through_module_attributes(estimator, monkeypatch):
    # the tracer rebinds cgibbs.local_energy_batch and cgibbs.hartree_energy_batch;
    # an estimator holding its own reference would hide its rows from the spans
    attr, call = ENERGY_CALLERS[estimator]
    rows = {name: 0 for name in ("local_energy_batch", "hartree_energy_batch")}

    def counting(name, original):
        def wrapper(coeffs, *args):
            rows[name] += len(coeffs)
            return original(coeffs, *args)
        return wrapper

    for name in rows:
        monkeypatch.setattr(cgibbs, name, counting(name, getattr(cgibbs, name)))
    call(ModelParams(tau=10.0, eps=0.5, eta=0.1, K=0.6, k_max=1, n_max=3),
         CutoffProfile.sharp(0.6))
    assert rows[attr] > 0
    assert all(count == 0 for name, count in rows.items() if name != attr)


def test_phase_rows_count_product_form_draws(monkeypatch):
    # accept_ratio = (draws - product-form draws) / proposals, the harness
    # counting the returned rows as draws and one proposal per kernel call
    # inside the sampler: the sampler makes no sized uniform call, so every
    # draw is a rejection draw
    params = ModelParams(tau=20.0, eps=0.5, eta=0.05, K=0.6, k_max=1, n_max=7)
    blocks = qgibbs.build_gibbs(params, True, CutoffProfile.smooth(0.6, 0.05))
    tracer = HARNESS.Tracer()
    sampler = tracer.wrap(semiclassics.sample_husimi, "semiclassics.sample_husimi",
                          lambda args, kwargs, result: {"draws": len(result)})
    kernel, calls = semiclassics._tensor_power_coeffs, []

    def counted(occ, v):
        calls.append(1)
        tracer.count(tracer.enclosing("semiclassics.sample_husimi"), "proposals")
        return kernel(occ, v)

    monkeypatch.setattr(semiclassics, "_tensor_power_coeffs", counted)
    sampler(blocks, 0.05, 400, HARNESS._PhaseCountingRng(tracer, np.random.default_rng(9)))
    metrics = tracer.layer_metrics()
    assert metrics["semiclassics.sample_husimi.product_draws"] == 0
    assert len(calls) > 1
    assert metrics["semiclassics.sample_husimi.accept_ratio"] == 400 / len(calls)
