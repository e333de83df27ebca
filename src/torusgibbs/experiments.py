"""Desk-scale experiment drivers with seeded determinism and CSV output.

Each driver sweeps parameters, runs the quantum and classical engines, and
returns a list of ordered-dict rows; `write_csv` serializes them with one
header row, '.' decimals, and a sibling stderr column for every stochastic
quantity.  Determinism contract: identical config + seed => byte-identical
CSV.  The classical estimators read only k_max and eps from their params, so
a convergence sweep estimates its classical reference once, for every tau.

Config fields each experiment reads (MC = n_samples seed threads; the
command line reads experiment and out_dir):

    partition, density  tau_values eps_values K eta k_max MC
    tail                tau_values eps_values K eta k_max R_offset
    blowup              tau_values eps_values K K_blowup k_max R_cap MC
    freerate            tau_values K eta k_max
    threshold           K k_max_values varsigma MC
    selftest            seed
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from . import cgibbs, qgibbs, semiclassics
from .errors import InvalidConfigError
from .model import CutoffProfile, ModelParams, eigenvalues, panel_integrals

__all__ = [
    "ExperimentConfig",
    "parse_config",
    "write_csv",
    "write_manifest",
    "exp_partition_convergence",
    "exp_density_convergence",
    "exp_blowup",
    "exp_tail_decay",
    "exp_free_state_rate",
    "exp_threshold_suite",
    "run_selftest",
]

EXPERIMENT_IDS = ("partition", "density", "blowup", "tail", "freerate",
                  "threshold", "selftest")


@dataclass
class ExperimentConfig:
    """Typed mirror of the flat key-value run configuration.

    threads is the MC estimators' pool size, by default every usable core
    (`cgibbs.USABLE_CORES`); their estimates are bit-identical for any
    value, so it changes no CSV."""

    experiment: str = ""
    tau_values: list[float] = field(default_factory=lambda: [20.0, 40.0, 80.0])
    eps_values: list[float] = field(default_factory=lambda: [0.5])
    eta: float = 0.1
    K: float = 0.6
    k_max: int = 1
    k_max_values: list[int] = field(default_factory=lambda: [1, 2, 3])
    n_samples: int = 100000
    seed: int = 20260810
    out_dir: str = "out"
    threads: int = cgibbs.USABLE_CORES
    K_blowup: float = 1.8
    R_cap: float = 6.0
    R_offset: float = 0.5
    varsigma: float = 0.0

    def __post_init__(self):
        if self.experiment and self.experiment not in EXPERIMENT_IDS:
            raise InvalidConfigError(f"unknown experiment id {self.experiment!r}")
        for name in ("tau_values", "eps_values", "k_max_values"):
            if not getattr(self, name):
                raise InvalidConfigError(f"{name} must be a nonempty list")
        if self.k_max < 0:
            raise InvalidConfigError("k_max must be >= 0")
        if not all(math.isfinite(t) and t > 0 for t in self.tau_values):
            raise InvalidConfigError("tau_values must be finite and positive")
        if self.n_samples < 2:
            raise InvalidConfigError("n_samples must be >= 2")
        if self.seed < 0:
            raise InvalidConfigError("seed must be >= 0")
        if self.threads < 1:
            raise InvalidConfigError("threads must be >= 1")
        for name in ("eta", "varsigma"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidConfigError(f"{name} must be finite")
        for name in ("K", "K_blowup"):
            if not math.isfinite(getattr(self, name) * getattr(self, name)):
                raise InvalidConfigError(f"{name} must have a finite square")


def _parse_value(hint, val: str):
    """`val` as the field type `hint`: a scalar type, or list[T] written as
    comma-separated items."""
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return [item(tok.strip()) for tok in val.split(",") if tok.strip()]
    return hint(val)


def parse_config(path: str) -> ExperimentConfig:
    """Parse the flat `key = value` run file.  Keys and their types are the
    fields of ExperimentConfig; unknown keys are errors."""
    types = typing.get_type_hints(ExperimentConfig)
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in types:
            raise InvalidConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _parse_value(types[key], val)
        except ValueError as exc:
            raise InvalidConfigError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return ExperimentConfig(**values)


def config_items(cfg: ExperimentConfig):
    for f in fields(cfg):
        val = getattr(cfg, f.name)
        if isinstance(val, list):
            val = ", ".join(str(v) for v in val)
        yield f.name, val


def write_csv(path: str, rows: list) -> None:
    """RFC-4180-style CSV: header from the first row's keys, repr floats."""
    if not rows:
        raise InvalidConfigError("no rows to write")
    cols = list(rows[0].keys())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            cells = []
            for c in cols:
                v = row[c]
                cells.append(repr(v) if isinstance(v, float) else str(v))
            fh.write(",".join(cells) + "\n")


def write_manifest(path: str, cfg: ExperimentConfig, wall_time: float) -> None:
    import scipy

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# run manifest\n")
        for key, val in config_items(cfg):
            fh.write(f"{key} = {val}\n")
        fh.write(f"numpy_version = {np.__version__}\n")
        fh.write(f"scipy_version = {scipy.__version__}\n")
        fh.write(f"wall_time_s = {wall_time:.3f}\n")


def _params_for(cfg: ExperimentConfig, tau: float, eps: float, eta: float | None = None,
                K: float | None = None, k_max: int | None = None) -> ModelParams:
    """Params at mass K (default cfg.K); eta defaults to 0.2 K^2, for a sharp cutoff."""
    K = cfg.K if K is None else K
    eta = 0.2 * K**2 if eta is None else eta
    k_max = cfg.k_max if k_max is None else k_max
    return ModelParams(tau=tau, eps=eps, eta=eta, K=K, k_max=k_max,
                       n_max=max(1, math.floor(K**2 * tau)))


# ------------------------------------------------------------------
# the experiment drivers
# ------------------------------------------------------------------

def _tau_sweep(cfg: ExperimentConfig, row, reference=None) -> list:
    """One row per tau at the single eps of eps_values, led by its tau:
    `row(params, cutoff, state, ref)` reads the interacting Gibbs state of
    that tau under the smooth cutoff at (K, eta), and `ref =
    reference(params, cutoff)` is evaluated once, at the first tau."""
    if len(cfg.eps_values) > 1:
        raise InvalidConfigError(f"this experiment takes one eps, not eps_values = "
                                 f"{cfg.eps_values}")
    eps = cfg.eps_values[0]
    cutoff = CutoffProfile.smooth(cfg.K, cfg.eta)
    sweep = [_params_for(cfg, tau, eps, cfg.eta) for tau in cfg.tau_values]
    ref = None if reference is None else reference(sweep[0], cutoff)
    return [{"tau": params.tau,
             **row(params, cutoff, qgibbs.build_gibbs(params, True, cutoff), ref)}
            for params in sweep]


def exp_partition_convergence(cfg: ExperimentConfig) -> list:
    """Quantum cutoff-partition ratio Z / Z_0 against the classical reweighted
    normalization, per tau; Z_0 is the cutoff contracted with the free sector
    weights, a product over modes.  Columns: tau, q_ratio, c_value, c_stderr,
    abs_diff; the classical columns are the same on every row."""
    def reference(params, cutoff):
        return cgibbs.partition_ratio(params, "hartree", cutoff, cfg.n_samples,
                                      cfg.seed, threads=cfg.threads)

    def row(params, cutoff, state, c):
        z = qgibbs.free_sector_weights(params.k_max, params.tau, params.n_max)
        q_ratio = state.Z / float(cutoff(np.arange(len(z)) / params.tau) @ z)
        return {"q_ratio": q_ratio, "c_value": c.value, "c_stderr": c.stderr,
                "abs_diff": abs(q_ratio - c.value)}

    return _tau_sweep(cfg, row, reference)


def exp_density_convergence(cfg: ExperimentConfig) -> list:
    """Trace-norm distance between the scaled one-body matrix of the Gibbs
    state and the classical moment matrix, with jackknife error bars.  Both
    are diagonal (one momentum per eigenvector; translation invariance), so
    each distance is the l1 gap of the diagonals, herm_defect_classical is 0
    and min_eig_classical the least diagonal mean."""
    def reference(params, cutoff):
        M, _, group_num, group_den = cgibbs.classical_moment_matrix(
            params, "hartree", cutoff, 1, cfg.n_samples, cfg.seed, threads=cfg.threads)
        # delete-one-group means, for the jackknife stderr of the nonlinear trace norm
        loo = (group_num.sum(axis=0) - group_num) / (group_den.sum() - group_den)[:, None]
        return M, loo

    def row(params, cutoff, state, ref):
        M, loo = ref
        Q1 = qgibbs.reduced_density_matrix(state, 1, scaled=True)
        q = Q1.diagonal()
        dists = np.abs(q - loo).sum(axis=1)
        return {
            "trace_dist": float(np.abs(q - M.diagonal()).sum()),
            "trace_dist_stderr": math.sqrt((len(loo) - 1) * float(np.var(dists))),
            "herm_defect_quantum": float(np.abs(Q1 - Q1.conj().T).max()),
            "herm_defect_classical": float(np.abs(M - M.T).max()),
            "min_eig_quantum": float(np.linalg.eigvalsh(0.5 * (Q1 + Q1.conj().T)).min()),
            "min_eig_classical": float(M.diagonal().min()),
        }

    return _tau_sweep(cfg, row, reference)


def exp_blowup(cfg: ExperimentConfig) -> list:
    """Capped partition values along shrinking interaction range, in the
    supercritical window at K_blowup and at the subcritical control mass K."""
    rows = []
    for label, K in (("super", cfg.K_blowup), ("control", cfg.K)):
        cutoff = CutoffProfile.sharp(K)
        for eps in cfg.eps_values:
            params = _params_for(cfg, max(cfg.tau_values), eps, K=K)
            est = cgibbs.capped_partition(params, cfg.R_cap, cutoff, cfg.n_samples,
                                          cfg.seed, threads=cfg.threads)
            rows.append({"regime": label, "K": K, "eps": eps,
                         "value": est.value, "value_stderr": est.stderr})
    return rows


def exp_tail_decay(cfg: ExperimentConfig) -> list:
    """Deterministic lower-symbol tail moments of the interacting state, and
    their logs, per tau."""
    R = cfg.K**2 + cfg.R_offset

    def row(params, cutoff, state, _):
        tail = semiclassics.tail_moment(state, R)
        return {"R": R, "tail_moment": tail,
                "log_tail": math.log(tail) if tail > 0 else float("-inf")}

    return _tau_sweep(cfg, row)


def exp_free_state_rate(cfg: ExperimentConfig) -> list:
    """Quantum mass-cutoff expectation of the free state against its exact
    classical counterpart, per tau.  Both sides are deterministic: the
    quantum side contracts the cutoff with the geometric sector weights and
    divides by the exact free trace prod_k (1 - e^{-lambda_k/tau})^{-1}, the
    classical side integrates the cutoff against the exact mass density by
    `panel_integrals` on 256 equal panels each side of the ramp's start."""
    cutoff = CutoffProfile.smooth(cfg.K, cfg.eta)
    # the mass law does not depend on tau: integrate once, reuse across the sweep
    lo = cfg.K**2 - cfg.eta
    edges = np.append(np.linspace(0.0, lo, 257), np.linspace(lo, cfg.K**2, 257)[1:])
    cside = float(panel_integrals(
        lambda x: cgibbs.mass_density_charfn(cfg.k_max, x) * cutoff(x), edges).sum())
    rows = []
    for tau in cfg.tau_values:
        n_max = math.floor(cfg.K**2 * tau)
        weights = qgibbs.free_sector_weights(cfg.k_max, tau, n_max)
        qside = (float(cutoff(np.arange(n_max + 1) / tau) @ weights)
                 * float(np.prod(1.0 - np.exp(-eigenvalues(cfg.k_max) / tau))))
        rows.append({"tau": tau, "quantum": qside, "classical": cside,
                     "error": abs(qside - cside)})
    return rows


def exp_threshold_suite(cfg: ExperimentConfig) -> list:
    """The subcritical exponential moment at mass K, per mode window in
    k_max_values: its uniformity across windows is the subcritical side of
    the threshold ||Q||_{L^2}."""
    rows = []
    for k_max in cfg.k_max_values:
        params = _params_for(cfg, 20.0, 0.5, k_max=k_max)
        est = cgibbs.subcritical_moment(params, cfg.K, cfg.varsigma, cfg.n_samples,
                                        cfg.seed, threads=cfg.threads)
        rows.append({"check": f"subcritical_moment_kmax{k_max}",
                     "value": est.value, "value_stderr": est.stderr})
    return rows


# ------------------------------------------------------------------
# selftest: the spot checks behind every inequality and identity
# ------------------------------------------------------------------

def run_selftest(seed: int = 20260810) -> list:
    """Quick structural checks with one pass/fail line each.

    Covers the ladder algebra, interaction positivity, the variational
    identity, the moment-matrix bound, the entropy comparison, and the
    smoothing limits of the classical energies.
    """
    from . import fock

    rng = np.random.default_rng(seed)
    results = []

    def check(name, ok):
        results.append((name, bool(ok)))
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")

    params = ModelParams(tau=10.0, eps=0.5, eta=0.05, K=0.6, k_max=1, n_max=6)
    cutoff = CutoffProfile.smooth(0.6, 0.05)

    # canonical commutators on the k_max = 1, n = 2 sector
    eye = np.eye(fock.sector_dimension(1, 2))
    worst = 0.0
    for i in range(3):
        for j in range(3):
            a_adag = fock.apply_annihilation(fock.apply_creation(eye, 1, 2, j), 1, 3, i)
            adag_a = fock.apply_creation(fock.apply_annihilation(eye, 1, 2, i), 1, 1, j)
            worst = max(worst, float(np.abs(a_adag - adag_a - (i == j) * eye).max()))
    check("ccr_commutators", worst <= 1e-10)

    W3 = fock.assemble_interaction(fock.enumerate_sector(1, 3), 0.5).toarray()
    evals = np.linalg.eigvalsh(W3)
    check("interaction_positive", evals.min() >= -1e-8 * max(1.0, np.abs(W3).max()))

    blocks_int = qgibbs.build_gibbs(params, True, cutoff)
    blocks_free = qgibbs.build_gibbs(params, False, cutoff)
    tau = params.tau
    # sector energies are spec(H_0/tau - W/tau^3): <W>/tau^3 = <H_0>/tau - <E>
    occupations = np.diag(qgibbs.reduced_density_matrix(blocks_int, 1)).real
    mean_energy = sum(float(b.boltzmann @ b.energies) for b in blocks_int.blocks)
    w_expect = float(eigenvalues(1) @ occupations) / tau - mean_energy / blocks_int.Z
    functional = qgibbs.relative_entropy(blocks_int, blocks_free) - w_expect
    target = -math.log(blocks_int.Z / blocks_free.Z)
    check("variational_identity", abs(functional - target) <= 1e-12 * max(1.0, abs(target)))

    lhs1, rhs1 = semiclassics.definetti_gap(blocks_int, 1.0 / tau, 1)
    lhs2, rhs2 = semiclassics.definetti_gap(blocks_int, 1.0 / tau, 2)
    check("definetti_bound", lhs1 <= rhs1 + 1e-10 and lhs2 <= rhs2 + 1e-10)

    small = ModelParams(tau=10.0, eps=0.5, eta=0.05, K=0.6, k_max=0, n_max=8)
    g1 = qgibbs.build_gibbs(small, False, CutoffProfile.smooth(0.6, 0.05))
    g2 = qgibbs.build_gibbs(small, False, CutoffProfile.smooth(0.6, 0.1))
    est, hq = semiclassics.berezin_lieb_check(g1, g2, 1.0 / small.tau, 4000, seed)
    # one-sided at 3 sigma: under the normal approximation a false alarm has
    # probability at most 1.35e-3 per run, reached when the two sides are equal
    check("berezin_lieb", est.value <= hq + 3.0 * est.stderr and hq >= -1e-12)

    # per row, |hartree - local| shrinks with eps and ends within 5% of max(1, local)
    coeffs = cgibbs.sample_free_fields(1, 8, rng, math.inf)
    en_loc = cgibbs.local_energy_batch(coeffs)
    gaps = np.abs([cgibbs.hartree_energy_batch(coeffs, eps_v) - en_loc
                   for eps_v in (0.4, 0.2, 0.1, 0.05)])
    check("hartree_to_local_pathwise", np.all(np.diff(gaps, axis=0) <= 1e-12)
          and np.all(gaps[-1] <= 0.05 * np.maximum(1.0, en_loc)))

    sharp = CutoffProfile.sharp(0.6)
    vals = []
    for eta_v in (0.16, 0.08, 0.04):
        c = cgibbs.classical_partition(params, "local", CutoffProfile.smooth(0.6, eta_v),
                                       40000, seed)
        vals.append(c.value)
    ref = cgibbs.classical_partition(params, "local", sharp, 40000, seed).value
    # one seed, n and support K^2 score the same rows, and f_eta rises pointwise
    # to the sharp indicator as eta falls: rounding keeps the gaps ordered exactly
    gaps = [ref - v for v in vals]
    check("sharp_cutoff_continuity",
          all(0.0 <= b <= a for a, b in zip(gaps, gaps[1:])) and gaps[-1] < gaps[0])

    return results
