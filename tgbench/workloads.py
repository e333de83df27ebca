"""The three benchmark workloads, each run through the public torusgibbs calls
a user makes.

Every function takes the workload seed and returns a JSON-ready dict of the
outputs the checks in `checks.py` judge.  All library calls go through module
attributes (``experiments.exp_tail_decay``, never a name imported at load
time), so the tracer in `spans.py` sees them once it has patched the modules.

Why these three: each puts most of its time in different layers, so a change
to one layer shows on one workload and predicts no change on another.

- quantum-sweep: Fock-sector assembly and the dense eigensolve.
- lower-symbol: ladder maps between neighbouring sectors, the de Finetti
  grams and the Husimi rejection sampler.
- classical-mc: Monte-Carlo shards and the mass-law inversion; no Fock space.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

from torusgibbs import cgibbs, experiments, model, qgibbs, semiclassics


def derive_seed(seed: int, tag: str) -> int:
    """Library seed for one stream of a workload: a pure function of the
    workload seed and a stream tag, so streams never share draws."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def quantum_sweep(seed: int, out_dir: str) -> dict:
    """The convergence sweep on the default ExperimentConfig (tau 20/40/80,
    k_max=1, 1e5 samples), plus the tail sweep at k_max=2, tau=20; every
    table is written with write_csv."""
    cfg = experiments.ExperimentConfig(seed=derive_seed(seed, "sweep"))
    cfg_k2 = experiments.ExperimentConfig(seed=cfg.seed, k_max=2, tau_values=[20.0])
    tables = {
        "partition": experiments.exp_partition_convergence(cfg),
        "density": experiments.exp_density_convergence(cfg),
        "tail": experiments.exp_tail_decay(cfg),
        "tail_k2": experiments.exp_tail_decay(cfg_k2),
    }
    sha = {}
    for name, rows in tables.items():
        path = os.path.join(out_dir, f"{name}.csv")
        experiments.write_csv(path, rows)
        sha[name] = _sha256(path)
    return {"tables": tables, "csv_sha256": sha}


LOWER_SYMBOL_STATES = ((40.0, 1), (17.0, 2))
LOWER_SYMBOL_DRAWS = 500


def lower_symbol(seed: int) -> dict:
    """The 1- and 2-RDMs, the de Finetti gaps at k = 1, 2 and the Berezin-Lieb check
    (500 lower-symbol draws, free state as reference) of the interacting
    states at (tau=40, k_max=1) and (tau=17, k_max=2)."""
    K, eta, eps = 0.6, 0.1, 0.5
    out = {}
    for tau, k_max in LOWER_SYMBOL_STATES:
        params = model.ModelParams(tau=tau, eps=eps, eta=eta, K=K, k_max=k_max,
                                   n_max=math.floor(K**2 * tau))
        cutoff = model.CutoffProfile.smooth(K, eta)
        blocks = qgibbs.build_gibbs(params, True, cutoff)
        free = qgibbs.build_gibbs(params, False, cutoff)
        varsigma = 1.0 / tau
        key = f"tau{tau:g}_k{k_max}"
        rdm1 = qgibbs.reduced_density_matrix(blocks, 1)
        rdm2 = qgibbs.reduced_density_matrix(blocks, 2)
        gaps = {k: semiclassics.definetti_gap(blocks, varsigma, k) for k in (1, 2)}
        est, h_quantum = semiclassics.berezin_lieb_check(
            blocks, free, varsigma, LOWER_SYMBOL_DRAWS, derive_seed(seed, key))
        out[key] = {
            "tau": tau,
            "Z": blocks.Z,
            "Z_free": free.Z,
            "rdm1_trace": float(np.trace(rdm1).real),
            "rdm2_trace": float(np.trace(rdm2)),
            "moment1": qgibbs.particle_moment(blocks, 1),
            "moment2": qgibbs.particle_moment(blocks, 2),
            "definetti_k1": list(gaps[1]),
            "definetti_k2": list(gaps[2]),
            "bl_value": est.value,
            "bl_stderr": est.stderr,
            "h_quantum": h_quantum,
        }
    return out


MC_SAMPLES = 1_000_000
MASS_GRID = (0.0, 0.64, 257)


def _estimate(est) -> list:
    return [est.value, est.stderr]


def classical_mc(seed: int) -> dict:
    """Every MC estimator at 1e6 samples and the k_max=1 mass law on 257
    points of [0, 0.64]."""
    n = MC_SAMPLES
    K, eta = 0.6, 0.1
    smooth = model.CutoffProfile.smooth(K, eta)
    out = {}
    for k_max in (1, 2, 3):
        params = model.ModelParams(tau=40.0, eps=0.5, eta=eta, K=K, k_max=k_max,
                                   n_max=math.floor(K**2 * 40.0))
        out[f"partition_ratio_k{k_max}"] = _estimate(cgibbs.partition_ratio(
            params, "hartree", smooth, n, derive_seed(seed, f"ratio{k_max}")))
        if k_max == 1:
            # the "none" weight is the cutoff itself, so the ratio is exactly 1
            out["partition_ratio_none"] = cgibbs.partition_ratio(
                params, "none", smooth, n // 10, derive_seed(seed, "none")).value
            M, M_err, _, _ = cgibbs.classical_moment_matrix(
                params, "hartree", smooth, 1, n, derive_seed(seed, "moment"))
            out["moment_diag"] = np.real(np.diag(M)).tolist()
            out["moment_diag_stderr"] = np.diag(M_err).tolist()
        sub = model.ModelParams(tau=20.0, eps=0.5, eta=eta, K=K, k_max=k_max,
                                n_max=math.floor(K**2 * 20.0))
        out[f"subcritical_k{k_max}"] = _estimate(cgibbs.subcritical_moment(
            sub, K, 0.0, n, derive_seed(seed, f"sub{k_max}")))
    K_cap = 1.8
    cap = model.ModelParams(tau=80.0, eps=0.5, eta=0.2 * K_cap**2, K=K_cap, k_max=1,
                            n_max=math.floor(K_cap**2 * 80.0))
    out["capped"] = _estimate(cgibbs.capped_partition(
        cap, 6.0, model.CutoffProfile.sharp(K_cap), n, derive_seed(seed, "capped")))
    grid = np.linspace(*MASS_GRID)
    out["mass_density"] = cgibbs.mass_density_charfn(1, grid).tolist()
    return out


def run(workload: str, seed: int, out_dir: str) -> dict:
    if workload == "quantum-sweep":
        return quantum_sweep(seed, out_dir)
    if workload == "lower-symbol":
        return lower_symbol(seed)
    if workload == "classical-mc":
        return classical_mc(seed)
    raise ValueError(f"unknown workload {workload!r}")

