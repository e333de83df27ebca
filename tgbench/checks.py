"""Output checks of the benchmark workloads.

Each check returns (name, ok).  Tolerances and false-alarm rates:

- Deterministic quantum values are pinned in ``reference.json`` from the
  seed commit and must match to 1e-10 relative (`REL_TOL`); no false alarms.
  Values that come out of cancellations of O(1) terms (de Finetti norms,
  relative entropies) are held to 1e-10 of max(1, |reference|).
- Monte-Carlo values must lie within 4 sqrt(se^2 + se_ref^2) of the
  reference drawn at `REFERENCE_SEED`, so the gate holds for any seed.  For
  a Gaussian estimate the false-alarm rate is 6.3e-5 per check; a pass has
  about 16 uncorrelated ones, about 1e-3 per seed.  The density sweep's
  trace_dist is the exception: its CSV stderr is a jackknife over two MC
  shards (one degree of freedom), which put 2 of 10 seeds past 4 se at
  tau=80.  It is held instead to 4 sd sqrt(1 + 1/n) of the mean over n
  reference seeds, sd their seed-to-seed standard deviation.
- The Berezin-Lieb inequality (classical relative entropy of the lower
  symbols <= quantum relative entropy) is one-sided at 4 se: 3.2e-5.
- Identities hold to rounding: partition_ratio with interaction "none" is
  exactly 1; twice the trace of the pair-basis (i <= j) 2-RDM is
  <N(N-1)> = tau^2 m2 - tau m1, and the 1-RDM trace is <N> = tau m1;
  the de Finetti bound holds with 1e-10 slack (at k = 1 it is an equality).
- The k_max=1 mass law matches its closed form, Exp(lambda_0) convolved
  with Gamma(2, lambda_1), to 1e-7: the error estimate the charfn inversion
  itself accepts.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import MASS_GRID

REFERENCE_SEED = 20260810
REL_TOL = 1e-10
MC_SIGMAS = 4.0
MASS_LAW_TOL = 1e-7


def _rel(name, got, ref, tol=REL_TOL):
    return name, abs(got - ref) <= tol * abs(ref)


def _scaled(name, got, ref, tol=REL_TOL):
    return name, abs(got - ref) <= tol * max(1.0, abs(ref))


def _mc(name, got, se, ref, se_ref):
    return name, abs(got - ref) <= MC_SIGMAS * math.sqrt(se * se + se_ref * se_ref)


def mass_law_k1(x: np.ndarray) -> np.ndarray:
    """Density of |u_0|^2 + |u_1|^2 + |u_-1|^2 under the free measure, each
    term exponential with rate lambda_k: Exp(lambda_0) * Gamma(2, lambda_1)."""
    l0 = 0.5
    l1 = 0.5 * ((2.0 * math.pi) ** 2 + 1.0)
    d = l1 - l0
    x = np.asarray(x, dtype=float)
    # the convolution integral is int_0^x y e^{-d y} dy = (1 - e^{-dx}(1 + dx)) / d^2
    inner = (-np.expm1(-d * x) - d * x * np.exp(-d * x)) / d**2
    return l0 * l1**2 * np.exp(-l0 * x) * inner


def quantum_sweep(out: dict, ref: dict) -> list:
    checks = []
    tables, rtables = out["tables"], ref["tables"]
    for row, rrow in zip(tables["partition"], rtables["partition"], strict=True):
        tag = f"partition_tau{row['tau']:g}"
        checks.append(_rel(f"{tag}.q_ratio", row["q_ratio"], rrow["q_ratio"]))
        checks.append(_mc(f"{tag}.c_value", row["c_value"], row["c_stderr"],
                          rrow["c_value"], rrow["c_stderr"]))
    spread = ref["trace_dist_spread"]
    for row, rrow, mean, sd in zip(tables["density"], rtables["density"], spread["mean"],
                                   spread["sd"], strict=True):
        tag = f"density_tau{row['tau']:g}"
        checks.append(_rel(f"{tag}.min_eig_quantum", row["min_eig_quantum"],
                           rrow["min_eig_quantum"]))
        checks.append((f"{tag}.trace_dist", abs(row["trace_dist"] - mean)
                       <= MC_SIGMAS * sd * math.sqrt(1.0 + 1.0 / spread["n"])))
    for name in ("tail", "tail_k2"):
        for row, rrow in zip(tables[name], rtables[name], strict=True):
            checks.append(_rel(f"{name}_tau{row['tau']:g}.tail_moment", row["tail_moment"],
                               rrow["tail_moment"]))
    return checks


def lower_symbol(out: dict, ref: dict) -> list:
    checks = []
    for key, st in out.items():
        rst = ref[key]
        tau = st["tau"]
        checks.append(_rel(f"{key}.Z", st["Z"], rst["Z"]))
        checks.append(_rel(f"{key}.Z_free", st["Z_free"], rst["Z_free"]))
        checks.append(_rel(f"{key}.rdm1_trace", st["rdm1_trace"], tau * st["moment1"]))
        pairs = tau**2 * st["moment2"] - tau * st["moment1"]  # <N(N-1)>
        checks.append(_rel(f"{key}.rdm2_trace", 2.0 * st["rdm2_trace"], pairs))
        for k in (1, 2):
            lhs, rhs = st[f"definetti_k{k}"]
            rlhs, rrhs = rst[f"definetti_k{k}"]
            checks.append((f"{key}.definetti_k{k}.bound", lhs <= rhs + 1e-10))
            checks.append(_scaled(f"{key}.definetti_k{k}.lhs", lhs, rlhs))
            checks.append(_scaled(f"{key}.definetti_k{k}.rhs", rhs, rrhs))
        checks.append(_scaled(f"{key}.h_quantum", st["h_quantum"], rst["h_quantum"]))
        checks.append((f"{key}.berezin_lieb",
                       st["bl_value"] <= st["h_quantum"] + MC_SIGMAS * st["bl_stderr"]))
        checks.append(_mc(f"{key}.bl_value", st["bl_value"], st["bl_stderr"],
                          rst["bl_value"], rst["bl_stderr"]))
    if set(out) != set(ref):
        checks.append(("lower_symbol.states", False))
    return checks


def classical_mc(out: dict, ref: dict) -> list:
    checks = []
    for key in ("partition_ratio_k1", "partition_ratio_k2", "partition_ratio_k3",
                "subcritical_k1", "subcritical_k2", "subcritical_k3", "capped"):
        (v, se), (rv, rse) = out[key], ref[key]
        checks.append(_mc(key, v, se, rv, rse))
    for i, (v, se, rv, rse) in enumerate(zip(out["moment_diag"], out["moment_diag_stderr"],
                                             ref["moment_diag"], ref["moment_diag_stderr"],
                                             strict=True)):
        checks.append(_mc(f"moment_diag_{i}", v, se, rv, rse))
    checks.append(("partition_ratio_none", out["partition_ratio_none"] == 1.0))
    exact = mass_law_k1(np.linspace(*MASS_GRID))
    err = float(np.max(np.abs(np.asarray(out["mass_density"]) - exact)))
    checks.append(("mass_law_closed_form", err <= MASS_LAW_TOL))
    return checks


CHECKS = {"quantum-sweep": quantum_sweep, "lower-symbol": lower_symbol,
          "classical-mc": classical_mc}
