"""Library names the benchmark harness binds.

`tgbench/spans.py` wraps every function its `WRAPPED` table lists by module
and attribute name, and it patches `cgibbs._map_shards`,
`semiclassics._tensor_power_coeffs`, `semiclassics.sample_husimi` and
`model.CutoffProfile.smooth` by name, calling the first two with positional
arguments.  A traced benchmark
run crashes when one of them is renamed, so each must resolve here first.
The harness source is read and executed in memory; nothing under tgbench/
is written.
"""

import functools
import importlib
import inspect
import os
import types

import pytest

from torusgibbs import cgibbs, semiclassics

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tgbench", "spans.py")


def _harness_table() -> list:
    module = types.ModuleType("tgbench_spans")
    with open(SPANS, encoding="utf-8") as fh:
        exec(compile(fh.read(), SPANS, "exec"), module.__dict__)
    return [(mod, attr) for mod, attr, *_ in module.WRAPPED]


BOUND = _harness_table() + [("cgibbs", "_map_shards"),
                            ("semiclassics", "_tensor_power_coeffs"),
                            ("semiclassics", "sample_husimi"),
                            ("model", "CutoffProfile.smooth")]


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
