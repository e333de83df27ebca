"""Coherent states, lower symbols, tail and moment comparisons, and the
entropy inequality."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import sparse, special, stats

from conftest import (GATE_ALPHA, GATE_R, GATE_Z, husimi_dense_scoring_oracle,
                      husimi_density_oracle,
                      random_momentum_eigenvectors, sharp_through, table_cutoff,
                      tensor_power_oracle)
from torusgibbs import fock, qgibbs, semiclassics as sc
from torusgibbs.errors import (InvalidConfigError, QuadratureFailureError,
                               SupportViolationError)
from torusgibbs.model import CutoffProfile, ModelParams, eigenvalues, mode_numbers


def params(tau=10.0, eps=0.5, eta=0.05, K=0.6, k_max=1, n_max=None):
    if n_max is None:
        n_max = max(1, math.floor(K**2 * tau))
    return ModelParams(tau=tau, eps=eps, eta=eta, K=K, k_max=k_max, n_max=n_max)


def vacuum_state(k_max=1):
    p = ModelParams(tau=10.0, eps=0.5, eta=0.004, K=0.1, k_max=k_max, n_max=1)
    return qgibbs.build_gibbs(p, False, CutoffProfile.sharp(0.02))


def interacting_state(tau=20.0, k_max=1):
    p = params(tau=tau, k_max=k_max)
    return qgibbs.build_gibbs(p, True, CutoffProfile.smooth(0.6, 0.05))


def lower_symbol_state(tau, k_max):
    # the interacting states of the benchmark's lower-symbol workload
    return qgibbs.build_gibbs(params(tau=tau, eta=0.1, k_max=k_max), True,
                              CutoffProfile.smooth(0.6, 0.1))


def coherent_amplitudes(occ, v):
    """Sector n's coherent amplitudes e^{-|v|^2/2} v^nu / sqrt(nu!): the
    tensor-power coefficients times the Poisson factor e^{-|v|^2/2}/sqrt(n!)."""
    n = int(occ[0].sum())
    return (math.exp(-0.5 * float(np.sum(np.abs(v) ** 2))) / math.sqrt(math.factorial(n))
            * sc._tensor_power_coeffs(occ, v))


class TestCoherentVector:
    def test_vacuum_target(self):
        occ = fock.enumerate_sector(1, 0).occupations
        assert coherent_amplitudes(occ, np.zeros(3))[0] == 1.0

    def test_poisson_sector_weights(self):
        # the squared norm of sector n is the Poisson(|v|^2) mass at n
        occ = fock.enumerate_sector(0, 3).occupations
        amps = coherent_amplitudes(occ, np.array([math.sqrt(3.0)]))
        w3 = float(np.sum(np.abs(amps) ** 2))
        assert w3 == pytest.approx(math.exp(-3.0) * 27.0 / 6.0, rel=1e-12)
        assert w3 == pytest.approx(0.224042, abs=1e-6)

    def test_resolution_of_identity_mc(self, rng):
        # pi^{-J} int |xi(u)><xi(u)| du = identity, tested entrywise (J = 1)
        S = 200000
        u = (rng.standard_normal(S) + 1j * rng.standard_normal(S)) / math.sqrt(2.0)
        for m in range(5):
            for n in range(m, 5):
                # <m|xi(u)><xi(u)|n> e^{+|u|^2} importance weight against CN(0,1)
                w = (u**m * np.conj(u) ** n) / math.sqrt(
                    math.factorial(m) * math.factorial(n))
                est = np.mean(w)
                sd = np.std(w) / math.sqrt(S)
                target = 1.0 if m == n else 0.0
                # off the diagonal w has a uniform phase: a circular complex mean
                width = GATE_Z if m == n else GATE_R
                assert abs(est - target) <= width * sd + 1e-12


class TestHusimi:
    def test_vacuum_density(self):
        b = vacuum_state()
        u = np.array([0.1 + 0.2j, -0.15, 0.05j])
        vs = 0.3
        got = float(sc.husimi_density_batch(b, vs, u)[0])
        want = (vs * math.pi) ** -3 * math.exp(-float(np.sum(np.abs(u) ** 2)) / vs)
        assert got == pytest.approx(want, rel=1e-12)

    def test_pure_one_particle_density(self):
        p = ModelParams(tau=10.0, eps=0.5, eta=0.004, K=0.45, k_max=0, n_max=2)
        table = table_cutoff([0.0, 0.05, 0.1, 0.15, 0.2], [0.0, 0.5, 1.0, 0.5, 0.0])
        b = qgibbs.build_gibbs(p, False, table)
        assert b.sector_probabilities()[1] == pytest.approx(1.0)
        vs = 0.3
        u = np.array([0.3 - 0.2j])
        r2 = float(np.abs(u[0]) ** 2)
        got = float(sc.husimi_density_batch(b, vs, u)[0])
        want = (vs * math.pi) ** -1 * (r2 / vs) * math.exp(-r2 / vs)
        assert got == pytest.approx(want, rel=1e-12)

    def test_free_state_closed_form_and_bound(self, rng):
        tau = 2.0
        p = ModelParams(tau=tau, eps=0.5, eta=0.1, K=0.6, k_max=1, n_max=80)
        b = qgibbs.build_gibbs(p, False, sharp_through(80, tau))
        lam = eigenvalues(1)
        q = np.exp(-lam / tau)
        us = np.array([(rng.standard_normal(3) + 1j * rng.standard_normal(3)) * 0.4
                       for _ in range(100)])
        for u, dens in zip(us, sc.husimi_density_batch(b, 1.0 / tau, us)):
            closed = float(np.prod(tau * (1 - q) / math.pi
                                   * np.exp(-tau * (1 - q) * np.abs(u) ** 2)))
            assert dens == pytest.approx(closed, rel=1e-7)
            gauss = float(np.prod(lam / math.pi * np.exp(-lam * np.abs(u) ** 2)))
            bound = math.exp(lam.max() ** 2 * float(np.sum(np.abs(u) ** 2)) / tau)
            assert dens <= bound * gauss * (1.0 + 1e-9)

    @pytest.mark.parametrize("state", [
        lambda: interacting_state(tau=20.0, k_max=0),
        lambda: interacting_state(tau=20.0, k_max=1),
        lambda: interacting_state(tau=17.0, k_max=2),
        lambda: interacting_state(tau=12.0, k_max=3),
        lambda: lower_symbol_state(40.0, 1),
        lambda: lower_symbol_state(17.0, 2),
    ], ids=["interacting_k0", "interacting_k1", "interacting_k2", "interacting_k3",
            "lower_symbol_k1", "lower_symbol_k2"])
    def test_density_matches_log_space_oracle(self, rng, state):
        b = state()
        J, tau, n_max = b.params.J, b.params.tau, b.params.n_max
        v = rng.standard_normal((8, J)) + 1j * rng.standard_normal((8, J))
        # |v|^2 from n_max / 4 to 2 n_max, where the state's sectors sit
        v *= np.sqrt(np.linspace(0.25, 2.0, 8) * n_max / np.sum(np.abs(v) ** 2, axis=1))[:, None]
        v[0] = 0.0
        v[1, J // 2] = 0.0  # one exactly-zero mode
        v[2] *= math.sqrt((20 * n_max + 50) / np.sum(np.abs(v[2]) ** 2))  # |v|^2 >> n_max
        us = v / math.sqrt(tau)
        got = sc.husimi_density_batch(b, 1.0 / tau, us)
        want = husimi_density_oracle(b, 1.0 / tau, us)
        assert np.all(want > 0.0)
        assert np.all(np.abs(got - want) <= 1e-12 * want)
        # at u = 0 the coherent state is the vacuum: Z (pi/tau)^J density = f(0)
        assert b.Z * (math.pi / tau) ** J * got[0] == pytest.approx(float(b.cutoff(0.0)),
                                                                    rel=1e-12)

    @pytest.mark.parametrize("k_max", [0, 1, 2, 3])
    def test_tensor_power_recurrence(self, rng, k_max):
        # the sector walk of husimi_density_batch against the log-space kernel
        J = 2 * k_max + 1
        v = rng.standard_normal((4, J)) + 1j * rng.standard_normal((4, J))
        if J > 1:
            v[0, 0] = 0.0  # a zero mode kills exactly the nu_0 >= 1 rows
        d = v / np.linalg.norm(v, axis=1, keepdims=True)
        for n, T in sc._tensor_powers(k_max, d, 12):
            want = sc._tensor_power_coeffs(fock.enumerate_sector(k_max, n).occupations, d)
            assert np.abs(T.T - want).max() <= 1e-13
            assert np.abs(np.sum(np.abs(T) ** 2, axis=0) - 1.0).max() <= 1e-13

    def test_free_single_mode_large_sectors(self):
        """On one mode the free state's sector weights are geometric,
        (1 - q) q^n / (1 - q^{N+1}) for n <= N, so its density at
        r = |v|^2 = tau |u|^2 is the truncated Poisson sum
        (tau/pi) (1 - q) e^{-(1 - q) r} Q(N + 1, q r) / (1 - q^{N+1}),
        Q the regularized upper incomplete Gamma function.  Fields up to
        r = 600 put the coherent state's Poisson weight near and past the
        last sector N = 400, with no overflow or underflow on the way."""
        tau, n_max = 10.0, 400
        p = ModelParams(tau=tau, eps=0.5, eta=0.1, K=0.6, k_max=0, n_max=n_max)
        b = qgibbs.build_gibbs(p, False, sharp_through(n_max, tau))
        q = math.exp(-float(eigenvalues(0)[0]) / tau)
        # at r = 2.425 = tau |0.45 + 0.2i|^2, Q = 1 to rounding, so Z (pi/tau)
        # times the density is the untruncated generating function e^{-(1 - q) r}
        r = np.array([0.0, 1.0, 2.425, 50.0, 200.0, 380.0, 420.0, 450.0, 600.0])
        us = (np.sqrt(r / tau) * np.exp(0.7j))[:, None]
        got = sc.husimi_density_batch(b, 1.0 / tau, us)
        want = (tau / math.pi * (1.0 - q) * np.exp(-(1.0 - q) * r)
                * special.gammaincc(n_max + 1.0, q * r) / (1.0 - q ** (n_max + 1)))
        assert np.all(np.isfinite(got)) and np.all(got > 0.0)
        assert np.all(np.abs(got - want) <= 1e-12 * want)

    def test_normalization_mc(self, rng):
        b = interacting_state()
        S = 60000
        sd = 0.9
        prop = (rng.standard_normal((S, 3)) + 1j * rng.standard_normal((S, 3))) * sd / math.sqrt(2)
        qdens = np.prod(np.exp(-np.abs(prop) ** 2 / sd**2) / (math.pi * sd**2), axis=1)
        w = sc.husimi_density_batch(b, 1.0 / 20.0, prop) / qdens
        assert np.all(w >= 0.0)
        assert np.mean(w) == pytest.approx(1.0, abs=GATE_Z * np.std(w) / math.sqrt(S))

    def test_sampler_matches_density_moments(self, rng):
        """The sampled mass |u|^2 follows its exact law, the mixture
        sum_n P(n) * varsigma * Gamma(n + J) over the sector probabilities.

        The sampler picks an eigenstate with its Gibbs weight, then draws v
        in product form, |v_j|^2 ~ Gamma(nu_j + 1), for one occupation row nu
        of the eigenstate's momentum block.  Every row of sector n gives
        |v|^2 ~ Gamma(n + J), independent of the direction v / |v|, and the
        rejection step reads the direction alone.  So the mass marginal does
        not exercise the rejection step; test_husimi_moment_matches_mc and
        test_pure_eigenstate_anti_normal_moments do.  The mean is gated on
        the exact mean and variance, varsigma^2 (E[n + J] + Var(n)), and the
        whole law by a one-sample KS test against the exact CDF
        F(x) = sum_n P(n) gammainc(n + J, x / varsigma).
        """
        b = interacting_state()
        vs = 1.0 / 20.0
        us = sc.sample_husimi(b, vs, 20000, rng)
        mass = np.sum(np.abs(us) ** 2, axis=1)
        probs = b.sector_probabilities()
        shape = np.array([blk.n for blk in b.blocks]) + b.params.J
        mean_shape = np.dot(probs, shape)
        var = vs**2 * (mean_shape + np.dot(probs, (shape - mean_shape) ** 2))
        assert abs(np.mean(mass) - vs * mean_shape) <= GATE_Z * math.sqrt(var / len(mass))
        cdf = lambda x: special.gammainc(shape, x[:, None] / vs) @ probs
        assert stats.kstest(mass, cdf).pvalue >= GATE_ALPHA


class TestSampler:
    def test_free_draws_match_dense_oracle(self):
        # every column is an occupation state, a block of width 1, whose one
        # proposal is the product-form draw and is always accepted
        b = qgibbs.build_gibbs(params(tau=20.0), False, CutoffProfile.smooth(0.6, 0.05))
        got = sc.sample_husimi(b, 1.0 / 20.0, 3000, np.random.default_rng(17))
        want = husimi_dense_scoring_oracle(b, 1.0 / 20.0, 3000, np.random.default_rng(17))
        assert np.array_equal(got, want)

    def test_signed_permutation_draws_match_dense_oracle(self):
        # eigenvectors that are signed occupation states, listed in a shuffled
        # order, are read off their one stored row whatever its sign and place
        b = qgibbs.build_gibbs(params(tau=20.0), False, CutoffProfile.smooth(0.6, 0.05))
        shuffle = np.random.default_rng(5)
        blocks = []
        for blk in b.blocks:
            dim = blk.basis.dim
            perm = shuffle.permutation(dim)
            signs = shuffle.choice([-1.0, 1.0], size=perm.size)
            vectors = sparse.csc_array((signs, perm, np.arange(perm.size + 1)),
                                       shape=(dim, perm.size))
            blocks.append(qgibbs.SectorBlock(
                n=blk.n, basis=blk.basis, energies=blk.energies[perm], vectors=vectors,
                cutoff_value=blk.cutoff_value))
        shuffled = qgibbs.GibbsStateBlocks(params=b.params, interacting=False,
                                           cutoff=b.cutoff, blocks=tuple(blocks), Z=b.Z)
        assert any(not np.array_equal(blk.vectors.indices, np.arange(blk.basis.dim))
                   for blk in blocks if blk.basis.dim > 1)
        got = sc.sample_husimi(shuffled, 1.0 / 20.0, 3000, np.random.default_rng(17))
        want = husimi_dense_scoring_oracle(shuffled, 1.0 / 20.0, 3000,
                                           np.random.default_rng(17))
        assert np.array_equal(got, want)

    def test_stalled_rejection_raises(self, monkeypatch):
        # k_max = 1: sectors n >= 3 have momentum blocks of several states,
        # whose draws go through rejection, which can never accept
        b = interacting_state(tau=20.0, k_max=1)
        monkeypatch.setattr(sc, "_tensor_power_coeffs",
                            lambda occ, v: np.zeros(np.shape(v)[:-1] + occ.shape[-2:-1]))
        with pytest.raises(QuadratureFailureError):
            sc.sample_husimi(b, 1.0 / 20.0, 50, np.random.default_rng(3))

    @pytest.mark.parametrize("tau,k_max", [(20.0, 1), (17.0, 2), (12.0, 3)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_block_scoring_matches_dense_oracle(self, tau, k_max, seed):
        b = interacting_state(tau=tau, k_max=k_max)
        assert any(np.diff(blk.vectors.indptr).max(initial=0) > 1 for blk in b.blocks)
        got = sc.sample_husimi(b, 1.0 / tau, 300, np.random.default_rng(seed))
        want = husimi_dense_scoring_oracle(b, 1.0 / tau, 300, np.random.default_rng(seed))
        assert np.array_equal(got, want)

    def test_pure_eigenstate_anti_normal_moments(self, rng):
        """Every draw of a pure interacting eigenstate goes through the
        rejection step, here on a momentum block of 6 of the sector's 66
        rows.  The sampled moments of u = sqrt(varsigma) z are the anti-normal
        ones: E|u_i|^2 = varsigma ||adag_i psi||^2 and E|u_i|^2 |u_j|^2 =
        varsigma^2 ||adag_j adag_i psi||^2, with each adag the transpose of
        an annihilation map.  Nine means, each gated at GATE_Z.  Drawing each
        proposal from the wrong row of the block, or accepting without the
        block norm, moves them by more than 20 standard errors."""
        tau, k_max, n = 40.0, 1, 10
        b = interacting_state(tau=tau, k_max=k_max)
        blk = next(blk for blk in b.blocks if blk.n == n)
        col = int(np.argmax(np.diff(blk.vectors.indptr)))
        vector = blk.vectors[:, [col]]
        assert vector.nnz >= 4
        pure = qgibbs.SectorBlock(n=n, basis=blk.basis, energies=np.zeros(1),
                                  vectors=sparse.csc_array(vector), cutoff_value=1.0)
        state = qgibbs.GibbsStateBlocks(params=b.params, interacting=True, cutoff=b.cutoff,
                                        blocks=(pure,), Z=1.0)
        vs = 1.0 / tau
        us = sc.sample_husimi(state, vs, 50000, rng)
        mass = np.abs(us) ** 2
        psi = vector.toarray().ravel()
        up = [fock.annihilation_map(k_max, n + 1, i).T @ psi for i in range(3)]
        for i in range(3):
            pred = vs * np.sum(up[i] ** 2)
            col_i = mass[:, i]
            assert abs(np.mean(col_i) - pred) <= GATE_Z * np.std(col_i) / math.sqrt(len(us))
            for j in range(i, 3):
                pred = vs**2 * np.sum((fock.annihilation_map(k_max, n + 2, j).T @ up[i]) ** 2)
                col_ij = mass[:, i] * mass[:, j]
                assert abs(np.mean(col_ij) - pred) <= GATE_Z * np.std(col_ij) / math.sqrt(len(us))

    def test_mixed_state_anti_normal_moments(self, rng):
        """The whole interacting state at tau=20, k_max=1: its sectors n < 3
        and its 1 x 1 momentum blocks draw at width 1, its other blocks at
        width > 1.  The sampled moments are the anti-normal ones summed over
        the eigenstates psi with their Gibbs weights p: E|u_i|^2 =
        varsigma sum p ||adag_i psi||^2 and E|u_i|^2 |u_j|^2 =
        varsigma^2 sum p ||adag_j adag_i psi||^2, each adag the transpose of
        an annihilation map.  Nine means, each gated at GATE_Z."""
        tau, k_max = 20.0, 1
        b = interacting_state(tau=tau, k_max=k_max)
        widths = np.concatenate([np.diff(blk.vectors.indptr) for blk in b.blocks])
        assert widths.min() == 1 and widths.max() > 1
        vs = 1.0 / tau
        us = sc.sample_husimi(b, vs, 50000, rng)
        mass = np.abs(us) ** 2
        first, second = np.zeros(3), np.zeros((3, 3))
        for blk in b.blocks:
            p = blk.boltzmann / b.Z
            up = [fock.annihilation_map(k_max, blk.n + 1, i).T @ blk.vectors.toarray()
                  for i in range(3)]
            for i in range(3):
                first[i] += p @ np.sum(up[i] ** 2, axis=0)
                for j in range(i, 3):
                    upup = fock.annihilation_map(k_max, blk.n + 2, j).T @ up[i]
                    second[i, j] += p @ np.sum(upup ** 2, axis=0)
        for i in range(3):
            col_i, pred = mass[:, i], vs * first[i]
            assert abs(np.mean(col_i) - pred) <= GATE_Z * np.std(col_i) / math.sqrt(len(us))
            for j in range(i, 3):
                col_ij, pred = mass[:, i] * mass[:, j], vs**2 * second[i, j]
                assert abs(np.mean(col_ij) - pred) <= GATE_Z * np.std(col_ij) / math.sqrt(len(us))

    @pytest.mark.parametrize("tau,k_max", [(20.0, 1), (17.0, 2)])
    def test_proposals_scored_on_one_momentum_block(self, monkeypatch, tau, k_max):
        b = interacting_state(tau=tau, k_max=k_max)
        # the size of each momentum block, per sector; a diagonal sector n < 3
        # solves each occupation row on its own
        sizes = [dict(zip(*np.unique(blk.basis.momenta, return_counts=True)))
                 for blk in b.blocks]
        scored = []
        kernel = sc._tensor_power_coeffs

        def spy(occ, v):
            scored.append(occ)
            return kernel(occ, v)

        class BatchCountingRng:
            # the sampler draws its accept uniforms once per rejection batch
            def __init__(self, rng):
                self.rng, self.batches = rng, 0

            def random(self, *args, **kwargs):
                self.batches += 1
                return self.rng.random(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self.rng, name)

        monkeypatch.setattr(sc, "_tensor_power_coeffs", spy)
        rng = BatchCountingRng(np.random.default_rng(4))
        sc.sample_husimi(b, 1.0 / tau, 200, rng)
        assert scored
        assert len(scored) == rng.batches
        for occ in scored:
            width = occ.shape[1]
            momenta = occ @ mode_numbers(k_max)  # (rows, width)
            assert np.all(momenta == momenta[:, :1])
            ns = occ.sum(axis=-1)
            assert np.all(ns == ns[:, :1])
            # every row of a call has the call's width, its own block's size
            for n, k in zip(ns[:, 0], momenta[:, 0]):
                assert width == (sizes[n][k] if n >= 3 else 1)

    @pytest.mark.parametrize("k_max,n", [(0, 5), (1, 4), (2, 3)])
    def test_batched_tensor_power_coeffs(self, rng, k_max, n):
        basis = fock.enumerate_sector(k_max, n)
        J = 2 * k_max + 1
        v = rng.normal(size=(3, 4, J)) + 1j * rng.normal(size=(3, 4, J))
        v[0, 0, 0] = 0.0  # a vanishing component kills exactly the nu_0 >= 1 rows
        batch = sc._tensor_power_coeffs(basis.occupations, v)
        assert batch.shape == (3, 4, basis.dim)
        stacked = np.array([[sc._tensor_power_coeffs(basis.occupations, x) for x in row]
                            for row in v])
        oracle = np.array([[tensor_power_oracle(basis, x) for x in row] for row in v])
        scale = np.abs(oracle).max()
        assert np.abs(batch - stacked).max() <= 1e-13 * scale
        assert np.abs(batch - oracle).max() <= 1e-13 * scale
        assert np.all(batch[0, 0][basis.occupations[:, 0] > 0] == 0.0)
        # per-row occupations: row r of the fields scored on its own rows
        picked = rng.integers(basis.dim, size=(3, 5))
        occ = basis.occupations[picked]  # (3, 5, J)
        per_row = sc._tensor_power_coeffs(occ, v)
        assert per_row.shape == (3, 4, 5)
        for r in range(3):
            assert np.array_equal(per_row[r], sc._tensor_power_coeffs(occ[r], v[r]))
            assert np.abs(per_row[r] - oracle[r][:, picked[r]]).max() <= 1e-13 * scale


class TestBadInput:
    @pytest.mark.parametrize("call", [
        lambda b: sc.sample_husimi(b, -0.05, 10, np.random.default_rng(0)),
        lambda b: sc.sample_husimi(b, 0.0, 10, np.random.default_rng(0)),
        lambda b: sc.sample_husimi(b, math.nan, 10, np.random.default_rng(0)),
        lambda b: sc.sample_husimi(b, math.inf, 10, np.random.default_rng(0)),
        lambda b: sc.sample_husimi(b, 0.05, -1, np.random.default_rng(0)),
        lambda b: sc.husimi_density_batch(b, -0.05, np.zeros(3)),
        lambda b: sc.husimi_density_batch(b, 0.0, np.zeros(3)),
        lambda b: sc.husimi_density_batch(b, math.inf, np.zeros(3)),
        lambda b: sc.husimi_density_batch(b, 0.05, np.zeros((4, 5))),
        lambda b: sc.husimi_density_batch(b, 0.05, np.zeros((2, 4, 3))),
        lambda b: sc.husimi_density_batch(b, 0.05, np.array([1e200, 0.0, 0.0])),
        lambda b: sc.husimi_density_batch(b, 1e-300, np.array([1e-300, 0.0, 0.0])),
        lambda b: sc.husimi_density_batch(b, 1e300, np.zeros(3)),
        lambda b: sc.berezin_lieb_check(b, b, 0.05, 1, 0),
        lambda b: sc.berezin_lieb_check(b, b, 0.05, 0, 0),
        lambda b: sc.berezin_lieb_check(b, b, 0.0, 100, 0),
        lambda b: sc.husimi_density_batch(b, 0.05, np.array([0.0, math.nan, 0.0])),
        lambda b: sc.husimi_density_batch(b, 0.05, np.array([0.0, 1j, math.inf])),
        lambda b: sc.definetti_gap(b, -0.05, 1),
        lambda b: sc.definetti_gap(b, math.nan, 2),
    ], ids=["sample_negative_varsigma", "sample_zero_varsigma", "sample_nan_varsigma",
            "sample_inf_varsigma", "sample_negative_count", "density_negative_varsigma",
            "density_zero_varsigma", "density_inf_varsigma", "density_wrong_mode_count",
            "density_three_axes", "density_norm_overflow",
            "density_normalization_underflow", "density_normalization_overflow",
            "berezin_lieb_one_sample", "berezin_lieb_no_samples", "berezin_lieb_zero_varsigma",
            "density_nan_field", "density_inf_field", "definetti_negative_varsigma",
            "definetti_nan_varsigma"])
    def test_raises_invalid_config(self, call):
        with pytest.raises(InvalidConfigError):
            call(interacting_state(tau=20.0, k_max=1))

    def test_zero_draws(self):
        us = sc.sample_husimi(interacting_state(), 0.05, 0, np.random.default_rng(0))
        assert us.shape == (0, 3)


def poisson_sides(blocks, u):
    """Z (pi/tau)^J times the lower symbol at varsigma = 1/tau, the Gibbs
    trace against the coherent projector at v = sqrt(tau) u, by the sector
    recurrence of husimi_density_batch and by the direct-power oracle."""
    tau, J = blocks.params.tau, blocks.params.J
    scale = blocks.Z * (math.pi / tau) ** J
    us = np.asarray(u, dtype=complex)[None, :]
    return (scale * float(sc.husimi_density_batch(blocks, 1.0 / tau, us)[0]),
            scale * float(husimi_density_oracle(blocks, 1.0 / tau, us)[0]))


class TestPoissonDecomposition:
    def test_zero_field(self):
        cut = CutoffProfile.smooth(0.6, 0.05)
        b = qgibbs.build_gibbs(params(), True, cut)
        lhs, rhs = poisson_sides(b, np.zeros(3))
        assert rhs == pytest.approx(float(cut(0.0)), rel=1e-12)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_free_single_mode_generating_function(self):
        p = ModelParams(tau=10.0, eps=0.5, eta=0.1, K=0.6, k_max=0, n_max=160)
        b = qgibbs.build_gibbs(p, False, sharp_through(160, 10.0))
        u = np.array([0.45 + 0.2j])
        lhs, rhs = poisson_sides(b, u)
        oracle = math.exp(10.0 * float(np.abs(u[0]) ** 2) * (math.exp(-0.05) - 1.0))
        assert lhs == pytest.approx(oracle, rel=1e-10)
        assert rhs == pytest.approx(oracle, rel=1e-10)


class TestTailMoment:
    def test_vacuum_pinned_value(self):
        b = vacuum_state()
        got = sc.tail_moment(b, 1.0)
        closed = special.gammaincc(6, 10.0) * special.gamma(6.0) / 2000.0
        assert got == pytest.approx(closed, rel=1e-12)

    def test_zero_level_is_full_sixth_moment(self):
        b = interacting_state()
        # R just above K^2, and R -> 0 recovers the unconstrained moment;
        # exercise the identity with the gamma moments directly
        probs = b.sector_probabilities()
        ns = np.array([blk.n for blk in b.blocks])
        a = ns + 3
        full = float(np.dot(probs, a * (a + 1) * (a + 2))) / 20.0**3
        got = sc.tail_moment(b, 0.3601)
        # the tail above R and the complement below it add up to the full moment
        lower = float(np.dot(probs, a * (a + 1) * (a + 2)
                             * special.gammainc(a + 3.0, 0.3601 * 20.0))) / 20.0**3
        assert got + lower == pytest.approx(full, rel=1e-12)

    def test_decay_trend(self):
        tails = []
        for tau in (10.0, 20.0, 40.0):
            b = interacting_state(tau=tau)
            tails.append(sc.tail_moment(b, 0.36 + 0.5))
        logs = np.log(tails)
        assert logs[1] < logs[0] and logs[2] < logs[1]

    def test_support_violation(self):
        # a state charging sectors beyond K^2 tau of its cutoff must be
        # rejected; build_gibbs makes none, so the cutoff is swapped after
        p = ModelParams(tau=10.0, eps=0.5, eta=0.004, K=0.1, k_max=0, n_max=3)
        b = qgibbs.build_gibbs(p, False, sharp_through(3, 10.0))
        b = dataclasses.replace(b, cutoff=CutoffProfile.sharp(0.1))
        with pytest.raises(SupportViolationError):
            sc.tail_moment(b, 1.0)

    def test_level_below_support_rejected(self):
        b = interacting_state()
        with pytest.raises(InvalidConfigError):
            sc.tail_moment(b, 0.2)

    def test_bound_is_the_cutoffs(self):
        # params K = 1.2 is only validated: the state's K^2 is 0.36, its cutoff's
        b = qgibbs.build_gibbs(params(K=1.2), True, CutoffProfile.smooth(0.6, 0.1))
        assert len(b.blocks) == 4
        assert 0.0 < sc.tail_moment(b, 1.0) < sc.tail_moment(b, 0.5)
        with pytest.raises(InvalidConfigError, match="K\\^2 = 0.36"):
            sc.tail_moment(b, 0.3)


class TestDeFinetti:
    def test_vacuum_equality(self):
        b = vacuum_state()
        vs = 0.37
        lhs, rhs = sc.definetti_gap(b, vs, 1)
        assert lhs == pytest.approx(vs * 3.0, rel=1e-12)
        assert rhs == pytest.approx(vs * 3.0, rel=1e-12)

    def test_pure_one_particle_small_case(self):
        # J = 1, state |1>: k=1 and k=2 both saturate the bound
        p = ModelParams(tau=10.0, eps=0.5, eta=0.004, K=0.45, k_max=0, n_max=3)
        table = table_cutoff([0.0, 0.05, 0.1, 0.15, 0.2], [0.0, 0.5, 1.0, 0.5, 0.0])
        b = qgibbs.build_gibbs(p, False, table)
        vs = 0.2
        lhs1, rhs1 = sc.definetti_gap(b, vs, 1)
        assert lhs1 <= rhs1 + 1e-12
        assert lhs1 == pytest.approx(vs, rel=1e-12)       # moment = 2 vs, rdm = 1
        lhs2, rhs2 = sc.definetti_gap(b, vs, 2)
        assert lhs2 == pytest.approx(6.0 * vs**2, rel=1e-10)
        assert rhs2 == pytest.approx(6.0 * vs**2, rel=1e-10)

    def test_husimi_moment_matches_mc(self, rng):
        # the anti-normal moment matrix equals the sampled lower-symbol moment
        b = interacting_state()
        vs = 1.0 / 20.0
        us = sc.sample_husimi(b, vs, 40000, rng)
        emp = np.mean(np.abs(us) ** 2, axis=0)
        A = fock.ladder_gram(b.sector_items(), 1, create=True)
        pred = vs * np.diag(A).real
        for j in range(3):
            col = np.abs(us[:, j]) ** 2
            assert emp[j] == pytest.approx(
                pred[j], abs=GATE_Z * np.std(col) / math.sqrt(len(col)))

    @pytest.mark.parametrize("tau,k_max", [(10.0, 1), (12.0, 2)])
    def test_creation_gram_ccr_oracle(self, tau, k_max):
        # the CCR expand the anti-normal grams into deltas and the 1- and 2-RDMs:
        # a_i adag_j = delta_ij + adag_j a_i, and at order 2
        # a_i1 a_i2 adag_j1 adag_j2 = two delta-delta terms + four delta * adag a
        # terms + adag_j1 adag_j2 a_i1 a_i2
        b = interacting_state(tau=tau, k_max=k_max)
        J = 2 * k_max + 1
        G1 = qgibbs.reduced_density_matrix(b, 1)  # G1[i, j] = Tr(Gamma adag_j a_i)
        A1 = fock.ladder_gram(b.sector_items(), 1, create=True)
        assert np.abs(A1 - (np.eye(J) + G1)).max() <= 1e-12 * max(1.0, np.abs(A1).max())

        # both grams come on the orthonormal pair basis; undo its sqrt(2) on i = j
        pairs = [(i, j) for i in range(J) for j in range(i, J)]
        nu = np.array([math.sqrt(2.0) if i == j else 1.0 for (i, j) in pairs])
        A2 = fock.ladder_gram(b.sector_items(), 2, create=True) * np.outer(nu, nu)
        G2 = qgibbs.reduced_density_matrix(b, 2) * np.outer(nu, nu)
        d = np.eye(J)
        oracle = G2.copy()
        for a, (i1, i2) in enumerate(pairs):
            for c, (j1, j2) in enumerate(pairs):
                oracle[a, c] += (d[i1, j1] * d[i2, j2] + d[i1, j2] * d[i2, j1]
                                 + d[i2, j1] * G1[i1, j2] + d[i1, j1] * G1[i2, j2]
                                 + d[i2, j2] * G1[i1, j1] + d[i1, j2] * G1[i2, j1])
        assert np.abs(A2 - oracle).max() <= 1e-12 * max(1.0, np.abs(A2).max())

    @pytest.mark.parametrize("interacting", [True, False], ids=["interacting", "free"])
    @pytest.mark.parametrize("tau,k_max", [(20.0, 0), (20.0, 1), (17.0, 2), (12.0, 3)])
    def test_closed_form_from_ccr(self, tau, k_max, interacting):
        # the CCR leave only the delta terms of the anti-normal grams, which
        # are positive: lhs_1 = varsigma J and lhs_2 = varsigma^2 (J+1)(J+2<N>),
        # for any state, without a ladder operator
        p = params(tau=tau, k_max=k_max)
        b = qgibbs.build_gibbs(p, interacting, CutoffProfile.smooth(0.6, 0.05))
        J, mean_n = p.J, tau * qgibbs.particle_moment(b, 1)
        for vs in (1.0 / tau, 0.37):
            lhs1, _ = sc.definetti_gap(b, vs, 1)
            lhs2, _ = sc.definetti_gap(b, vs, 2)
            assert lhs1 == pytest.approx(vs * J, rel=1e-12)
            assert lhs2 == pytest.approx(vs**2 * (J + 1) * (J + 2 * mean_n), rel=1e-12)

    def test_sweep_random_states(self, rng):
        # mixed random block states of momentum eigenvectors, as every
        # translation-invariant state has: bound holds with nonnegative slack
        for trial in range(50):
            k_max = int(rng.integers(0, 2))
            J = 2 * k_max + 1
            n_top = int(rng.integers(1, 4))
            blocks = []
            raw = rng.random(n_top + 1) + 0.05
            raw /= raw.sum()
            for n in range(n_top + 1):
                basis = fock.enumerate_sector(k_max, n)
                q = random_momentum_eigenvectors(basis, rng)
                spec_w = rng.random(basis.dim) + 0.05
                spec_w = spec_w / spec_w.sum() * raw[n]
                blocks.append(qgibbs.SectorBlock(
                    n=n, basis=basis, energies=-np.log(spec_w),
                    vectors=sparse.csc_array(q), cutoff_value=1.0))
            pr = ModelParams(tau=1.0, eps=0.5, eta=0.4, K=1.0, k_max=k_max,
                             n_max=n_top + 2)
            state = qgibbs.GibbsStateBlocks(params=pr, interacting=False,
                                            cutoff=sharp_through(n_top, 1.0),
                                            blocks=tuple(blocks), Z=1.0)
            for k in (1, 2):
                lhs, rhs = sc.definetti_gap(state, 0.3, k)
                assert lhs <= rhs + 1e-10


class TestBerezinLieb:
    def test_identical_states(self):
        b = interacting_state()
        est, hq = sc.berezin_lieb_check(b, b, 1.0 / 20.0, 2000, 71)
        assert hq == pytest.approx(0.0, abs=1e-10)
        assert abs(est.value) <= GATE_Z * est.stderr + 1e-10

    def test_two_free_states(self):
        pa = ModelParams(tau=10.0, eps=0.5, eta=0.1, K=0.6, k_max=0, n_max=400)
        pb = ModelParams(tau=20.0, eps=0.5, eta=0.1, K=0.6, k_max=0, n_max=400)
        ga = qgibbs.build_gibbs(pa, False, sharp_through(400, 10.0))
        gb = qgibbs.build_gibbs(pb, False, sharp_through(400, 20.0))
        est, hq = sc.berezin_lieb_check(ga, gb, 1.0 / 10.0, 6000, 73)
        assert hq > 0.0
        assert est.value <= hq + GATE_Z * est.stderr

    def test_diagonal_pair_sweep(self, rng):
        for trial in range(30):
            n_top = 6
            blocks = []
            for which in range(2):
                raw = rng.random(n_top + 1) + 0.02
                raw /= raw.sum()
                blk = []
                for n in range(n_top + 1):
                    basis = fock.enumerate_sector(0, n)
                    blk.append(qgibbs.SectorBlock(
                        n=n, basis=basis, energies=np.array([-math.log(raw[n])]),
                        vectors=sparse.eye_array(1, format="csc"), cutoff_value=1.0))
                pr = ModelParams(tau=1.0, eps=0.5, eta=0.4, K=2.7, k_max=0,
                                 n_max=n_top + 2)
                blocks.append(qgibbs.GibbsStateBlocks(
                    params=pr, interacting=False, cutoff=sharp_through(n_top, 1.0),
                    blocks=tuple(blk), Z=1.0))
            est, hq = sc.berezin_lieb_check(blocks[0], blocks[1], 0.5, 1500,
                                            seed=1000 + trial)
            assert est.value <= hq + GATE_Z * est.stderr
            assert hq >= -1e-12
