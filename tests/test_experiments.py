"""Convergence-sweep drivers: the classical reference is estimated once per
sweep, each tau's interacting state is built once and no free state at all,
and the density distance of diagonal matrices is the l1 gap of their
diagonals.  The selftest's sharp-cutoff gaps are ordered with no slack, and
freerate's classical side matches adaptive quadrature."""

import math

import numpy as np
import pytest
from scipy import integrate

from torusgibbs import cgibbs, experiments, qgibbs
from torusgibbs.experiments import ExperimentConfig
from torusgibbs.model import CutoffProfile, ModelParams

# sweep: (classical estimator or None, driver, columns shared by every row,
#         the interacting flags of the Gibbs states built per tau, in order)
SWEEPS = {"partition": ("partition_ratio", experiments.exp_partition_convergence,
                        ("c_value", "c_stderr"), [True]),
          "density": ("classical_moment_matrix", experiments.exp_density_convergence,
                      ("herm_defect_classical", "min_eig_classical"), [True]),
          "tail": (None, experiments.exp_tail_decay, ("R",), [True])}


def small_config(taus):
    return ExperimentConfig(tau_values=taus, n_samples=3000, seed=11)


@pytest.mark.parametrize("taus", [[10.0], [5.0, 8.0, 10.0]], ids=["one_tau", "three_taus"])
@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_classical_reference_runs_once_per_sweep(sweep, taus, monkeypatch):
    name, driver, shared, builds = SWEEPS[sweep]
    calls = []

    def spy(module, attr, record):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls.append(record(args))
            return original(*args, **kwargs)
        monkeypatch.setattr(module, attr, wrapper)

    if name is not None:
        spy(cgibbs, name, lambda args: "reference")
    spy(qgibbs, "build_gibbs", lambda args: (args[0].tau, args[1]))
    rows = driver(small_config(taus))
    reference = [] if name is None else ["reference"]
    assert calls == reference + [(tau, flag) for tau in taus for flag in builds]
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
    params = experiments._params_for(cfg, 10.0, cfg.eps_values[0], cfg.eta)
    M, _, _, _ = cgibbs.classical_moment_matrix(
        params, "hartree", CutoffProfile.smooth(cfg.K, cfg.eta), 1,
        cfg.n_samples, cfg.seed)
    assert row["trace_dist"] == pytest.approx(float(np.sum(np.abs(q - np.diag(M)))),
                                              rel=0, abs=1e-15)
    assert row["herm_defect_classical"] == 0.0
    assert row["min_eig_classical"] == np.diag(M).min()


@pytest.mark.parametrize("seed", range(1, 6))
def test_sharp_cutoff_gaps_are_ordered_exactly(seed):
    # the selftest's sharp_cutoff_continuity estimates: one seed, n and support
    # K^2 score the same rows, and f_eta rises pointwise to the sharp indicator
    # as eta falls, so the gaps to the sharp value shrink with no slack
    params = ModelParams(tau=10.0, eps=0.5, eta=0.05, K=0.6, k_max=1, n_max=6)

    def value(cutoff):
        return cgibbs.classical_partition(params, "local", cutoff, 40000, seed).value

    ref = value(CutoffProfile.sharp(0.6))
    gaps = [ref - value(CutoffProfile.smooth(0.6, eta)) for eta in (0.16, 0.08, 0.04)]
    assert 0.0 <= gaps[2] <= gaps[1] <= gaps[0] and gaps[2] < gaps[0]


def bump(t):
    return math.exp(-1.0 / (1.0 - t * t))


def bump_normalized_integral(z0):
    """The normalized bump's integral over (z0, 1), by quad."""
    return (integrate.quad(bump, z0, 1.0, epsabs=1e-15, epsrel=1e-13)[0]
            / integrate.quad(bump, -1.0, 1.0, epsabs=1e-15, epsrel=1e-13)[0])


@pytest.mark.parametrize("K,eta,k_max", [(0.6, 0.1, 1), (1.2, 0.05, 2), (1.8, 0.648, 1)])
def test_freerate_classical_side_matches_quad(K, eta, k_max):
    # oracle: adaptive quadrature of the mass density against the ramp made
    # by its own quadrature of the bump, split where the ramp starts
    def density(x):
        return float(cgibbs.mass_density_charfn(k_max, x))

    def ramp(x):
        return bump_normalized_integral((x - K**2) * 2.0 / eta + 1.0)

    lo = K**2 - eta
    exact = (integrate.quad(density, 0.0, lo, epsabs=0.0, epsrel=1e-13)[0]
             + integrate.quad(lambda x: density(x) * ramp(x), lo, K**2,
                              epsabs=0.0, epsrel=1e-13)[0])
    cfg = ExperimentConfig(K=K, eta=eta, k_max=k_max, tau_values=[10.0])
    assert experiments.exp_free_state_rate(cfg)[0]["classical"] == pytest.approx(exact, rel=1e-13, abs=0.0)
