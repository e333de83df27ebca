"""Sector bases, ladder algebra, and the second-quantized operators."""

import math

import numpy as np
import pytest
from scipy import sparse

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    embed_symmetric,
    interaction_loop_oracle,
    partial_trace_first,
    random_momentum_eigenvectors,
    three_body_entry_quadrature,
)
from torusgibbs import fock
from torusgibbs.errors import InvalidConfigError
from torusgibbs.model import eigenvalues


class TestEnumeration:
    @pytest.mark.parametrize("k_max,n,size", [(0, 3, 1), (1, 2, 6), (1, 0, 1)])
    def test_sizes(self, k_max, n, size):
        basis = fock.enumerate_sector(k_max, n)
        assert basis.dim == size == fock.sector_dimension(k_max, n)

    def test_lookup_roundtrip(self):
        basis = fock.enumerate_sector(2, 4)
        for i in range(basis.dim):
            assert basis.rank(basis.occupations[i]) == i
        assert np.array_equal(basis.rank(basis.occupations[::-1]), np.arange(basis.dim)[::-1])

    @settings(max_examples=60, deadline=None)
    @given(k_max=st.integers(0, 3), n=st.integers(0, 9))
    def test_rank_is_row_order(self, k_max, n):
        basis = fock.enumerate_sector(k_max, n)
        assert np.array_equal(basis.rank(basis.occupations), np.arange(basis.dim))

    def test_deterministic_order(self):
        a = fock.enumerate_sector(1, 3).occupations
        b = fock.enumerate_sector(1, 3).occupations
        assert np.array_equal(a, b)
        # lexicographic in the stored tuple
        rows = [tuple(r) for r in a]
        assert rows == sorted(rows)

    def test_totals_and_momenta(self):
        basis = fock.enumerate_sector(1, 3)
        assert np.all(basis.occupations.sum(axis=1) == 3)
        assert np.array_equal(basis.momenta, basis.occupations @ np.array([-1, 0, 1]))


class TestLadder:
    def test_create_on_vacuum(self):
        out = fock.apply_creation(np.array([1.0]), 0, 0, 0)
        assert out.shape == (1,) and out[0] == 1.0

    def test_annihilate_sqrt3(self):
        out = fock.apply_annihilation(np.array([1.0]), 0, 3, 0)
        assert out[0] == pytest.approx(math.sqrt(3.0), rel=1e-12)
        assert out[0] == pytest.approx(1.73205, abs=1e-5)

    def test_annihilate_vacuum(self):
        # a_0 on |1, 0, 0>: the k = 0 mode is empty, so the image is zero
        one = fock.enumerate_sector(1, 1)
        e = np.zeros(one.dim)
        e[one.rank((1, 0, 0))] = 1.0
        out = fock.apply_annihilation(e, 1, 1, 1)
        assert out.shape == (1,) and out[0] == 0.0

    @pytest.mark.parametrize("k_max,n", [(0, 3), (1, 3), (2, 2)])
    def test_block_matches_columns(self, rng, k_max, n):
        # a column block goes through exactly as its columns one at a time
        dim = fock.sector_dimension(k_max, n)
        block = rng.normal(size=(dim, 4)) + 1j * rng.normal(size=(dim, 4))
        for p in range(2 * k_max + 1):
            for apply in (fock.apply_annihilation, fock.apply_creation):
                stacked = np.stack([apply(col, k_max, n, p) for col in block.T], axis=1)
                assert np.array_equal(apply(block, k_max, n, p), stacked)
                assert np.array_equal(apply(block.real, k_max, n, p), stacked.real)

    @pytest.mark.parametrize("k_max,n", [(0, 3), (1, 3), (2, 2)])
    def test_annihilation_map_matches_tensor_oracle(self, rng, k_max, n):
        # on dense symmetric tensors a_p psi = sqrt(n) psi[p, ...], and adag_p phi
        # is e_p put on each of the n legs in turn, over sqrt(n); the oracle
        # embeds occupation states by their permutations, not by rank
        basis = fock.enumerate_sector(k_max, n)
        down = fock.enumerate_sector(k_max, n - 1)
        psi = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
        phi = rng.normal(size=down.dim) + 1j * rng.normal(size=down.dim)
        dense, dense_phi = embed_symmetric(basis, psi), embed_symmetric(down, phi)
        for p in range(basis.J):
            a = fock.annihilation_map(k_max, n, p)
            assert a.shape == (down.dim, basis.dim)
            image = embed_symmetric(down, a @ psi)
            assert np.abs(image - math.sqrt(n) * dense[p]).max() <= 1e-12
            created = fock.apply_creation(phi, k_max, n - 1, p)
            assert np.array_equal(a.T @ phi, created)
            leg = np.multiply.outer(np.eye(basis.J)[p], dense_phi)
            oracle = sum(np.moveaxis(leg, 0, k) for k in range(n)) / math.sqrt(n)
            assert np.abs(embed_symmetric(basis, created) - oracle).max() <= 1e-12

    def test_ccr(self):
        # || [a_i, adag_j] - delta_ij || on the k_max = 1, n = 2 sector
        eye = np.eye(fock.sector_dimension(1, 2))
        for i in range(3):
            for j in range(3):
                first = fock.apply_annihilation(fock.apply_creation(eye, 1, 2, j), 1, 3, i)
                second = fock.apply_creation(fock.apply_annihilation(eye, 1, 2, i), 1, 1, j)
                assert np.abs(first - second - float(i == j) * eye).max() <= 1e-10

    def test_creation_gram_past_default_cap(self, rng):
        # sector n = 100 at k_max = 1 has dimension 5151, past the default cap of 5000;
        # the creation gram of a sector-99 block reaches it, and obeys the CCR
        basis = fock.enumerate_sector(1, 99)
        vecs = np.linalg.qr(rng.normal(size=(basis.dim, 3)))[0]
        items = [(basis, np.array([0.5, 0.3, 0.2]), sparse.csc_array(vecs))]
        create = fock.ladder_gram(items, 1, create=True)
        annihilate = fock.ladder_gram(items, 1)
        assert np.abs(create - np.eye(3) - annihilate.T).max() <= 1e-10 * 99


class TestKinetic:
    def test_vacuum(self):
        diag = fock.kinetic_diagonal(fock.enumerate_sector(1, 0))
        assert diag.shape == (1,) and diag[0] == 0.0

    def test_two_particles_one_mode(self):
        diag = fock.kinetic_diagonal(fock.enumerate_sector(0, 2))
        assert diag[0] == pytest.approx(1.0)

    def test_excited_mode(self):
        basis = fock.enumerate_sector(1, 1)
        diag = fock.kinetic_diagonal(basis)
        assert diag[basis.rank((0, 0, 1))] == pytest.approx(20.23921, abs=5e-6)


# (eps, a): a box of half-width a at range eps is the box w = 1 on
# [-1/2, 1/2] at range 2*a*eps.  The half-width 0.3 cases run at 0.18 and
# 0.6; at eps = 0.5 it would repeat the box at 0.3.
LOOP_ORACLE_CASES = [(0.3, 0.5), (0.5, 0.5), (1.0, 0.5), (0.3, 0.3), (1.0, 0.3)]


class TestInteraction:
    def test_below_three_particles(self):
        for n in (0, 1, 2):
            W = fock.assemble_interaction(fock.enumerate_sector(1, n), 0.5).toarray()
            assert np.all(W == 0.0)

    def test_single_mode_three_particles(self):
        W = fock.assemble_interaction(fock.enumerate_sector(0, 3), 0.5).toarray()
        assert W[0, 0] == pytest.approx(1.0, abs=1e-12)
        oracle = three_body_entry_quadrature(fock.enumerate_sector(0, 3), (3,), (3,), 0.5)
        assert W[0, 0] == pytest.approx(oracle.real, abs=1e-8)

    def test_every_entry_vs_quadrature_oracle(self):
        basis = fock.enumerate_sector(1, 3)
        W = fock.assemble_interaction(basis, 0.5).toarray()
        for i in range(basis.dim):
            for j in range(basis.dim):
                oracle = three_body_entry_quadrature(
                    basis, basis.occupations[i], basis.occupations[j], 0.5)
                assert W[i, j] == pytest.approx(oracle.real, abs=1e-8)
                assert abs(oracle.imag) < 1e-10

    def test_hermitian_and_psd(self):
        for n in (3, 4, 5):
            W = fock.assemble_interaction(fock.enumerate_sector(1, n), 0.4).toarray()
            assert np.abs(W - W.T).max() <= 1e-10 * max(1.0, np.abs(W).max())
            evals = np.linalg.eigvalsh(W)
            assert evals.min() >= -1e-8 * max(1.0, np.abs(W).max())

    @pytest.mark.parametrize("eps,a", LOOP_ORACLE_CASES,
                             ids=[f"{eps}-box{a}" for eps, a in LOOP_ORACLE_CASES])
    def test_matches_loop_oracle(self, eps, a):
        sectors = [(k_max, n) for k_max in (0, 1, 2) for n in range(11)]
        sectors += [(3, n) for n in range(6)]
        for k_max, n in sectors:
            basis = fock.enumerate_sector(k_max, n)
            W = fock.assemble_interaction(basis, 2 * a * eps).toarray()
            oracle = interaction_loop_oracle(basis, 2 * a * eps)
            assert np.abs(W - oracle).max() <= 1e-13 * max(1.0, np.abs(oracle).max())

    def test_momentum_conservation(self):
        basis = fock.enumerate_sector(1, 4)
        W = fock.assemble_interaction(basis, 0.5).toarray()
        P = np.diag(basis.momenta.astype(float))
        comm = W @ P - P @ W
        assert np.abs(comm).max() <= 1e-10

    @pytest.mark.parametrize("k_max,n_top", [(1, 8), (2, 6)])
    def test_operator_norm_bound(self, k_max, n_top):
        # per-sector norm against n^3 eps^{-2} ||w||_inf^2, ||w||_inf = 1
        eps = 0.5
        for n in range(3, n_top + 1):
            W = fock.assemble_interaction(fock.enumerate_sector(k_max, n), eps).toarray()
            norm = np.linalg.norm(W, 2)
            assert norm <= n**3 * eps**-2 + 1e-9

    def test_operator_norm_bound_kmax2_n8(self):
        W = fock.assemble_interaction(fock.enumerate_sector(2, 8), 0.5).toarray()
        assert np.linalg.norm(W, 2) <= 8**3 * 0.5**-2 * 1.0 + 1e-9

    def test_quadratic_form_matches_hartree_energy(self, rng):
        # <u^3, W u^3>/3! against the classical smoothed energy, 50 fields
        from torusgibbs.cgibbs import hartree_energy_batch
        from torusgibbs.semiclassics import _tensor_power_coeffs

        basis = fock.enumerate_sector(1, 3)
        W = fock.assemble_interaction(basis, 0.5).toarray()
        for _ in range(50):
            alpha = rng.normal(size=3) + 1j * rng.normal(size=3)
            c = _tensor_power_coeffs(basis.occupations, alpha)
            quad_form = float(np.real(np.conj(c) @ W @ c)) / 6.0
            classical = float(hartree_energy_batch(alpha[None, :], 0.5)[0])
            assert quad_form == pytest.approx(classical, abs=1e-8 * max(1.0, classical))


class TestOneBodyMatrix:
    def test_vacuum(self):
        basis = fock.enumerate_sector(1, 0)
        G = fock.one_body_matrix([(basis, np.array([1.0]), sparse.eye_array(1, format="csc"))])
        assert np.all(G == 0.0)

    def test_pure_one_particle(self):
        basis = fock.enumerate_sector(0, 1)
        G = fock.one_body_matrix([(basis, np.array([1.0]), sparse.eye_array(1, format="csc"))])
        assert G[0, 0] == pytest.approx(1.0)

    def test_duplicate_entries_are_summed(self):
        # an entry stored twice is one amplitude 0.5 + 0.5 = 1, not two of 0.5
        basis = fock.enumerate_sector(0, 2)
        twice = sparse.csc_array((np.array([0.5, 0.5]), np.array([0, 0]), np.array([0, 2])),
                                 shape=(1, 1))
        assert not twice.has_canonical_format
        G = fock.one_body_matrix([(basis, np.array([1.0]), twice)])
        assert G[0, 0] == 2.0
        assert twice.indptr[-1] == 2  # the caller's array is left as it was

    def test_thermal_single_mode(self):
        # geometric-series oracle on the untruncated single-mode free state
        tau, lam = 10.0, float(eigenvalues(0)[0])
        q = math.exp(-lam / tau)
        n_max = 2000
        probs = (1 - q) * q ** np.arange(n_max + 1)
        one = sparse.eye_array(1, format="csc")
        items = [(fock.enumerate_sector(0, n), np.array([probs[n]]), one)
                 for n in range(n_max + 1)]
        G = fock.one_body_matrix(items)
        assert G[0, 0] == pytest.approx(1.0 / (math.exp(lam / tau) - 1.0), abs=1e-6)
        assert G[0, 0] == pytest.approx(19.5042, abs=1e-4)


class TestPartialTraceOracle:
    def test_one_body_matches_partial_trace(self, rng):
        # occupation route vs dense-embedding partial trace on a random mixed
        # state of momentum eigenvectors: random orthonormal columns inside
        # each momentum block, so the oracle also checks the zero off-diagonal
        basis = fock.enumerate_sector(1, 3)
        vecs = random_momentum_eigenvectors(basis, rng)
        probs = rng.dirichlet(np.ones(basis.dim))
        G = fock.one_body_matrix([(basis, probs, sparse.csc_array(vecs))])
        oracle = np.zeros((3, 3), dtype=complex)
        for p, psi in zip(probs, vecs.T):
            dense = embed_symmetric(basis, psi.astype(complex))
            oracle += p * 3 * partial_trace_first(dense, keep=1)
        assert np.abs(G - oracle).max() <= 1e-10

    def test_one_body_rejects_mixed_momentum_column(self):
        # (|3,0,0> + |0,3,0>)/sqrt(2) holds total momenta -3 and 0
        basis = fock.enumerate_sector(1, 3)
        vec = np.zeros((basis.dim, 1))
        vec[basis.rank([[3, 0, 0], [0, 3, 0]]), 0] = math.sqrt(0.5)
        with pytest.raises(InvalidConfigError, match="two total momenta"):
            fock.one_body_matrix([(basis, np.array([1.0]), sparse.csc_array(vec))])

