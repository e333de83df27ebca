"""Outside-in layer tracing for the benchmark.

`Tracer.install()` replaces the public functions of the torusgibbs layers, and
numpy's and scipy's dense eigensolvers, with wrappers that record one span per
call: name, start, end and parent span, plus counts taken from the arguments
or the result.  Every module namespace that binds a wrapped object gets the
wrapper (``semiclassics`` imports ``build_gibbs`` by name, ``experiments``
imports ``soliton``), so no call slips past.  The package source is not
touched.  Spans stay in memory until `layer_metrics()` folds them into the
per-layer metrics of `METRICS`.

Metric names are ``<module>.<function>[.<variant>].<stat>``:

- ``calls``: number of spans; ``s``: inclusive seconds, summed over spans not
  nested in a span of the same name; ``self_s``: inclusive seconds minus the
  time covered by direct child spans.
- Counts: ``states`` (basis states produced or assembled), ``rows`` (field
  rows drawn or scored), ``points``, ``bytes``, ``draws`` and ``proposals``
  (tensor-power evaluations made inside the Husimi sampler).
- ``linalg.eigh.n3_sum`` is computed, not measured: the sum of n^3 over the
  matrix sizes n passed to eigh.
- Derived: ``cgibbs.live_frac`` = energy rows / drawn rows;
  ``cgibbs.samples_per_s`` = drawn rows / estimator seconds;
  ``cgibbs.<estimator>.relvar`` = n (stderr/value)^2, mean over the calls;
  ``semiclassics.sample_husimi.accept_ratio`` = rejection draws / proposals.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import threading
import time
from collections import defaultdict

import numpy as np

QS, LS, MC = "quantum-sweep", "lower-symbol", "classical-mc"
ALL = (QS, LS, MC)
ESTIMATORS = ("partition_ratio", "classical_moment_matrix", "capped_partition",
              "subcritical_moment")


def _m(name, unit, better, required=()):
    return {"name": name, "unit": unit, "better": better, "required": required}


def _timed(span, required, stats=("calls", "s")):
    units = {"calls": ("count", "lower"), "s": ("s", "lower"), "self_s": ("s", "lower")}
    return [_m(f"{span}.{st}", *units[st], required) for st in stats]


# Every per-layer metric, with the workloads on which its span must record at
# least one call (the tracer self-check).  A wrapper that misses a binding then
# fails the run instead of reading as zero.
METRICS = [
    *_timed("fock.enumerate_sector", (QS, LS)),
    _m("fock.enumerate_sector.states", "count", "lower", (QS, LS)),
    *_timed("fock.assemble_interaction", (QS, LS)),
    _m("fock.assemble_interaction.states", "count", "lower", (QS, LS)),
    *_timed("linalg.eigh", (QS, LS)),
    _m("linalg.eigh.dim_max", "count", "lower", (QS, LS)),
    _m("linalg.eigh.n3_sum", "computed_n3", "lower", (QS, LS)),
    *_timed("linalg.eigvalsh", (QS, LS)),
    *_timed("qgibbs.build_gibbs", (QS, LS), ("calls", "s", "self_s")),
    *_timed("fock.annihilation_map", (LS,)),
    *_timed("fock.apply_annihilation", (LS,)),
    *_timed("fock.apply_creation", (LS,)),
    *_timed("fock.one_body_matrix", (QS, LS)),
    *_timed("qgibbs.reduced_density_matrix.k1", (QS, LS), ("s",)),
    *_timed("qgibbs.reduced_density_matrix.k2", (LS,), ("s",)),
    *_timed("semiclassics.definetti_gap.k1", (LS,), ("s", "self_s")),
    *_timed("semiclassics.definetti_gap.k2", (LS,), ("s", "self_s")),
    *_timed("qgibbs.relative_entropy", (LS,), ("s",)),
    *_timed("semiclassics.sample_husimi", (LS,), ("s",)),
    _m("semiclassics.sample_husimi.draws", "count", "higher", (LS,)),
    _m("semiclassics.sample_husimi.proposals", "count", "lower", (LS,)),
    _m("semiclassics.sample_husimi.accept_ratio", "1", "higher", (LS,)),
    *_timed("semiclassics.husimi_density_batch", (LS,), ("s",)),
    _m("semiclassics.husimi_density_batch.points", "count", "higher", (LS,)),
    *_timed("semiclassics.berezin_lieb_check", (LS,), ("s",)),
    *_timed("semiclassics.tail_moment", (QS,), ("s",)),
    *(metric for est in ESTIMATORS for metric in _timed(
        f"cgibbs.{est}", (QS, MC) if est in ESTIMATORS[:2] else (MC,))),
    *_timed("cgibbs.sample_free_fields", (QS, MC), ("s",)),
    _m("cgibbs.sample_free_fields.rows", "count", "lower", (QS, MC)),
    *_timed("cgibbs.hartree_energy_batch", (QS, MC), ("s",)),
    _m("cgibbs.hartree_energy_batch.rows", "count", "lower", (QS, MC)),
    *_timed("cgibbs.local_energy_batch", (MC,), ("s",)),
    _m("cgibbs.local_energy_batch.rows", "count", "lower", (MC,)),
    _m("cgibbs.live_frac", "1", "higher", (QS, MC)),
    _m("cgibbs.samples_per_s", "1/s", "higher", (QS, MC)),
    *(_m(f"cgibbs.{est}.relvar", "1", "lower") for est in ESTIMATORS),
    *_timed("cgibbs.mass_density_charfn", (MC,), ("s",)),
    _m("cgibbs.mass_density_charfn.points", "count", "higher", (MC,)),
    *_timed("experiments.exp_partition_convergence", (QS,), ("s",)),
    *_timed("experiments.exp_density_convergence", (QS,), ("s",)),
    *_timed("experiments.exp_tail_decay", (QS,), ("s",)),
    *_timed("experiments.write_csv", (QS,), ("s",)),
    _m("experiments.write_csv.bytes", "B", "lower", (QS,)),
    *_timed("model.soliton", ALL, ("s",)),
    *_timed("model.CutoffProfile.smooth", ALL, ("s",)),
    _m("trace.overhead_s", "s", "lower"),
]

# Layers the classical-mc workload must never enter: it has no Fock space.
FORBIDDEN = {MC: ("fock.", "linalg.eigh")}


def _rows(args, kwargs, result):
    return {"rows": int(np.atleast_2d(args[0]).shape[0])}


def _relvar(args, kwargs, result):
    if isinstance(result, tuple):  # classical_moment_matrix: (M, M_err, ...)
        n = args[4] if len(args) > 4 else kwargs["n_samples"]
        rel_sq = float(np.sum(np.abs(result[1]) ** 2) / np.sum(np.abs(result[0]) ** 2))
    else:
        n = result.n_samples
        rel_sq = (result.stderr / result.value) ** 2
    return {"relvar": n * rel_sq}


def _variant(prefix, pos, key):
    return lambda args, kwargs: (
        f"{prefix}.k{args[pos] if len(args) > pos else kwargs[key]}")


# (module, attribute, span name or naming function, counter)
WRAPPED = [
    ("fock", "enumerate_sector", "fock.enumerate_sector",
     lambda a, kw, r: {"states": r.dim}),
    ("fock", "assemble_interaction", "fock.assemble_interaction",
     lambda a, kw, r: {"states": a[0].dim}),
    ("fock", "annihilation_map", "fock.annihilation_map", None),
    ("fock", "apply_annihilation", "fock.apply_annihilation", None),
    ("fock", "apply_creation", "fock.apply_creation", None),
    ("fock", "one_body_matrix", "fock.one_body_matrix", None),
    ("qgibbs", "build_gibbs", "qgibbs.build_gibbs", None),
    ("qgibbs", "reduced_density_matrix", _variant("qgibbs.reduced_density_matrix", 1, "k"),
     None),
    ("qgibbs", "relative_entropy", "qgibbs.relative_entropy", None),
    ("semiclassics", "definetti_gap", _variant("semiclassics.definetti_gap", 2, "k"), None),
    ("semiclassics", "husimi_density_batch", "semiclassics.husimi_density_batch",
     lambda a, kw, r: {"points": int(np.shape(r)[0])}),
    ("semiclassics", "berezin_lieb_check", "semiclassics.berezin_lieb_check", None),
    ("semiclassics", "tail_moment", "semiclassics.tail_moment", None),
    *(("cgibbs", est, f"cgibbs.{est}", _relvar) for est in ESTIMATORS),
    ("cgibbs", "sample_free_fields", "cgibbs.sample_free_fields",
     lambda a, kw, r: {"rows": int(r.shape[0])}),
    ("cgibbs", "hartree_energy_batch", "cgibbs.hartree_energy_batch", _rows),
    ("cgibbs", "local_energy_batch", "cgibbs.local_energy_batch", _rows),
    ("cgibbs", "mass_density_charfn", "cgibbs.mass_density_charfn",
     lambda a, kw, r: {"points": int(np.size(r))}),
    ("experiments", "exp_partition_convergence", "experiments.exp_partition_convergence",
     None),
    ("experiments", "exp_density_convergence", "experiments.exp_density_convergence", None),
    ("experiments", "exp_tail_decay", "experiments.exp_tail_decay", None),
    ("experiments", "write_csv", "experiments.write_csv",
     lambda a, kw, r: {"bytes": os.path.getsize(a[0])}),
    ("model", "soliton", "model.soliton", None),
]


class Tracer:
    """Span registry of one traced pass.  Each thread keeps its own stack of
    open spans; a new span's parent is the top of that stack.

    Spans are kept as parallel lists of names, start and end times and parent
    indices (-1 for none), so a pass's hundred thousand spans add no objects
    for the garbage collector to walk; counts live in a dict keyed by span."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = defaultdict(dict)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def enclosing(self, name: str):
        """Innermost open span named `name` on this thread, or None."""
        for idx in reversed(self._stack()):
            if self.names[idx] == name:
                return idx
        return None

    def count(self, idx: int, key: str, amount: float = 1) -> None:
        counts = self.counts[idx]
        counts[key] = counts.get(key, 0) + amount

    def wrap(self, func, name, counter=None):
        """Wrapper opening one span per call.  `name` is a string or a function
        of the call arguments; `counter(args, kwargs, result)` gives counts."""
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                idx = len(tracer.names)
                tracer.names.append(name if isinstance(name, str) else name(args, kwargs))
                tracer.parents.append(stack[-1] if stack else -1)
                tracer.starts.append(0.0)
                tracer.ends.append(0.0)
            stack.append(idx)
            tracer.starts[idx] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                if counter is not None:
                    tracer.counts[idx].update(counter(args, kwargs, result))
                return result
            finally:
                tracer.ends[idx] = time.perf_counter()
                stack.pop()
        return traced

    def adopt(self, parent, fn):
        """fn run under span `parent` on whichever thread calls it, so spans a
        pool thread opens inside fn have `parent` as their parent."""
        if parent is None:
            return fn

        @functools.wraps(fn)
        def adopted(*args, **kwargs):
            stack = self._stack()
            if stack:
                return fn(*args, **kwargs)
            stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
        return adopted

    def install(self) -> None:
        """Wrap every layer of the imported torusgibbs package in place."""
        import scipy.linalg
        from torusgibbs import cgibbs, model, semiclassics

        package = [mod for key, mod in sorted(sys.modules.items())
                   if key == "torusgibbs" or key.startswith("torusgibbs.")]

        def rebind(namespaces, original, replacement):
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, replacement)

        for module, attr, name, counter in WRAPPED:
            original = getattr(sys.modules[f"torusgibbs.{module}"], attr)
            rebind(package, original, self.wrap(original, name, counter))
        for ns in (np.linalg, scipy.linalg):
            for attr, counter in (("eigh", _eigh_counts), ("eigvalsh", None)):
                original = getattr(ns, attr)
                rebind([ns, *package], original, self.wrap(original, f"linalg.{attr}", counter))

        smooth = model.CutoffProfile.smooth
        model.CutoffProfile.smooth = staticmethod(
            self.wrap(smooth, "model.CutoffProfile.smooth"))

        map_shards = cgibbs._map_shards

        def traced_map_shards(seed, n_samples, fn, threads=1):
            return map_shards(seed, n_samples, self.adopt(self.current(), fn), threads)
        rebind(package, map_shards, traced_map_shards)

        sampler = "semiclassics.sample_husimi"
        tensor_power = semiclassics._tensor_power_coeffs

        def counted_tensor_power(basis, v):
            idx = self.enclosing(sampler)
            if idx is not None:
                self.count(idx, "proposals")
            return tensor_power(basis, v)
        rebind(package, tensor_power, counted_tensor_power)

        traced_sample = self.wrap(semiclassics.sample_husimi, sampler,
                                  lambda a, kw, r: {"draws": int(r.shape[0])})

        def sample_husimi(blocks, varsigma, n_samples, rng, *args, **kwargs):
            return traced_sample(blocks, varsigma, n_samples, _PhaseCountingRng(self, rng),
                                 *args, **kwargs)
        rebind(package, semiclassics.sample_husimi, sample_husimi)

    def layer_metrics(self) -> dict:
        """Every stat the spans support, keyed by metric name."""
        durations = [t1 - t0 for t0, t1 in zip(self.starts, self.ends)]
        child_time = defaultdict(float)
        for parent, dur in zip(self.parents, durations):
            if parent >= 0:
                child_time[parent] += dur
        m = defaultdict(float)
        relvar = defaultdict(list)
        for idx, (name, dur) in enumerate(zip(self.names, durations)):
            m[f"{name}.calls"] += 1
            if not self._nested_in_same(idx):
                m[f"{name}.s"] += dur
            m[f"{name}.self_s"] += dur - child_time[idx]
            for key, val in self.counts.get(idx, {}).items():
                if key == "dim":
                    m[f"{name}.dim_max"] = max(m[f"{name}.dim_max"], val)
                elif key == "relvar":
                    relvar[name].append(val)
                else:
                    m[f"{name}.{key}"] += val

        drawn = m["cgibbs.sample_free_fields.rows"]
        scored = m["cgibbs.hartree_energy_batch.rows"] + m["cgibbs.local_energy_batch.rows"]
        m["cgibbs.live_frac"] = scored / drawn if drawn else 0.0
        est_s = sum(m[f"cgibbs.{est}.s"] for est in ESTIMATORS)
        m["cgibbs.samples_per_s"] = drawn / est_s if est_s else 0.0
        for est in ESTIMATORS:
            vals = relvar[f"cgibbs.{est}"]
            m[f"cgibbs.{est}.relvar"] = statistics.fmean(vals) if vals else 0.0
        sampler = "semiclassics.sample_husimi"
        proposals = m[f"{sampler}.proposals"]
        rejection_draws = m[f"{sampler}.draws"] - m[f"{sampler}.product_draws"]
        m[f"{sampler}.accept_ratio"] = rejection_draws / proposals if proposals else 0.0
        return dict(m)

    def _nested_in_same(self, idx) -> bool:
        name, parent = self.names[idx], self.parents[idx]
        while parent >= 0:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False


def _eigh_counts(args, kwargs, result):
    n = int(np.shape(args[0])[-1])
    return {"n3_sum": float(n) ** 3, "dim": n}


class _PhaseCountingRng:
    """Generator proxy handed to the Husimi sampler.  A product-form draw takes
    one row of uniform phases through ``uniform(..., size=...)``, a rejection
    proposal a scalar ``uniform()``; counting phase rows separates the draws
    that went through rejection from those that did not.  The draws
    themselves are the generator's own."""

    def __init__(self, tracer: Tracer, rng):
        self._tracer = tracer
        self._rng = rng

    def uniform(self, *args, **kwargs):
        size = kwargs.get("size")
        idx = None if size is None else self._tracer.enclosing("semiclassics.sample_husimi")
        if idx is not None:
            shape = np.atleast_1d(size)
            self._tracer.count(idx, "product_draws", int(np.prod(shape[:-1])))
        return self._rng.uniform(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._rng, attr)


def self_check(workload: str, metrics: dict) -> list:
    """(name, ok) per layer: every metric listing this workload is nonzero,
    so its span recorded at least one call, and no forbidden layer ran."""
    checks = [(f"trace:{spec['name']}", metrics.get(spec["name"], 0) > 0)
              for spec in METRICS if workload in spec["required"]]
    for prefix in FORBIDDEN.get(workload, ()):
        calls = sum(v for k, v in metrics.items() if k.startswith(prefix) and k.endswith(".calls"))
        checks.append((f"trace:no_{prefix.rstrip('.')}_calls", calls == 0))
    return checks
