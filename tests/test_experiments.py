"""Convergence-sweep drivers: the classical reference is estimated once per
sweep, and the density distance of diagonal matrices is the l1 gap of their
diagonals."""

import numpy as np
import pytest

from torusgibbs import cgibbs, experiments, qgibbs
from torusgibbs.experiments import ExperimentConfig
from torusgibbs.model import CutoffProfile

ESTIMATORS = {"partition": ("partition_ratio", experiments.exp_partition_convergence,
                            ("c_value", "c_stderr")),
              "density": ("classical_moment_matrix", experiments.exp_density_convergence,
                          ("herm_defect_classical", "min_eig_classical"))}


def small_config(taus):
    return ExperimentConfig(tau_values=taus, n_samples=3000, seed=11)


@pytest.mark.parametrize("taus", [[10.0], [5.0, 8.0, 10.0]], ids=["one_tau", "three_taus"])
@pytest.mark.parametrize("sweep", sorted(ESTIMATORS))
def test_classical_reference_runs_once_per_sweep(sweep, taus, monkeypatch):
    name, driver, shared = ESTIMATORS[sweep]
    calls = []
    original = getattr(cgibbs, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cgibbs, name, spy)
    rows = driver(small_config(taus))
    assert len(calls) == 1
    assert [row["tau"] for row in rows] == taus
    for col in shared:
        assert len({row[col] for row in rows}) == 1


def test_diagonal_trace_distance_is_l1_gap(monkeypatch):
    # with a diagonal quantum matrix the trace norm of Q1 - M is the l1 gap
    # of the diagonals; an estimated off-diagonal M entry would add to it
    cfg = small_config([10.0])
    q = np.array([0.02, 0.12, 0.03])
    monkeypatch.setattr(qgibbs, "reduced_density_matrix", lambda *a, **kw: np.diag(q))
    (row,) = experiments.exp_density_convergence(cfg)
    params = experiments._params_for(cfg, 10.0, cfg.eps_values[0], cfg.eta_values[0])
    M, _, _, _ = cgibbs.classical_moment_matrix(
        params, "hartree", CutoffProfile.smooth(cfg.K, cfg.eta_values[0]), 1,
        cfg.n_samples, cfg.seed)
    assert row["trace_dist"] == pytest.approx(float(np.sum(np.abs(q - np.diag(M)))),
                                              rel=0, abs=1e-15)
    assert row["herm_defect_classical"] == 0.0
    assert row["min_eig_classical"] == np.diag(M).min()
