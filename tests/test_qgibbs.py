"""Gibbs state construction, partition functions, reduced matrices, entropy."""

import math

import numpy as np
import pytest
from scipy import sparse

from conftest import embed_symmetric, partial_trace_first
from torusgibbs import cgibbs, fock, qgibbs, semiclassics
from torusgibbs.errors import (
    InvalidConfigError,
    NumericalFailureError,
    ResourceLimitError,
    SupportMismatchError,
    UnsupportedOrderError,
)
from torusgibbs.model import CutoffProfile, KernelSpec, ModelParams, eigenvalues


def params(tau=10.0, eps=0.5, eta=0.05, K=0.6, k_max=1, n_max=None, **kw):
    if n_max is None:
        n_max = max(1, math.floor(K**2 * tau))
    return ModelParams(tau=tau, eps=eps, eta=eta, K=K, k_max=k_max, n_max=n_max, **kw)


class TestBuild:
    def test_free_single_mode_partition(self):
        p = ModelParams(tau=10.0, eps=0.5, eta=0.1, K=0.6, k_max=0, n_max=400)
        b = qgibbs.build_gibbs(p, False, CutoffProfile.one())
        assert b.Z == pytest.approx(1.0 / (1.0 - math.exp(-0.05)), abs=1e-6)
        assert b.Z == pytest.approx(20.5042, abs=1e-4)

    def test_interaction_free_below_three_particles(self):
        p = params(n_max=2, K=0.45, tau=9.0)
        cut = CutoffProfile.smooth(0.45, 0.05)
        bi = qgibbs.build_gibbs(p, True, cut)
        bf = qgibbs.build_gibbs(p, False, cut)
        assert bi.Z == bf.Z
        for x, y in zip(bi.blocks, bf.blocks):
            assert np.array_equal(x.energies, y.energies)

    def test_free_three_modes_product_formula(self):
        tau = 10.0
        n_max = qgibbs.certified_free_nmax(1, tau, 1e-12)
        z = qgibbs.free_sector_weights(1, tau, n_max)
        prod = float(np.prod(1.0 / (1.0 - np.exp(-eigenvalues(1) / tau))))
        assert np.sum(z) == pytest.approx(prod, rel=1e-10)

    def test_normalized_state(self):
        p = params()
        b = qgibbs.build_gibbs(p, True, CutoffProfile.smooth(0.6, 0.05))
        probs = b.sector_probabilities()
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs >= 0.0)

    def test_exact_truncation(self):
        # bit-identical partition for n_max = floor(K^2 tau) and +10
        cut = CutoffProfile.smooth(0.6, 0.05)
        p1 = params(n_max=math.floor(0.36 * 10.0))
        p2 = params(n_max=math.floor(0.36 * 10.0) + 10)
        z1 = qgibbs.build_gibbs(p1, True, cut).Z
        z2 = qgibbs.build_gibbs(p2, True, cut).Z
        assert z1 == z2

    def test_cap(self):
        # sector n = 40 at k_max = 3 has dimension C(46, 6), past the cap
        p = params(k_max=3, n_max=40, sector_dim_cap=1000)
        with pytest.raises(ResourceLimitError):
            qgibbs.build_gibbs(p, True, CutoffProfile.smooth(0.6, 0.05))

    @pytest.mark.parametrize("tau,k_max", [(40.0, 1), (20.0, 2)])
    def test_blocked_spectrum_matches_dense(self, tau, k_max):
        # per-momentum eigh against eigvalsh of the whole sector Hamiltonian
        p = params(tau=tau, k_max=k_max)
        b = qgibbs.build_gibbs(p, True, CutoffProfile.smooth(0.6, 0.05))
        checked = 0
        for blk in b.blocks:
            if blk.n < 3 or blk.cutoff_value == 0.0:
                continue
            kin = fock.kinetic_diagonal(blk.basis)
            W = fock.assemble_interaction(blk.basis, KernelSpec.box(), p.eps)
            dense = np.linalg.eigvalsh(np.diag(kin / tau) - W / tau**3)
            scale = max(1.0, np.abs(dense).max())
            assert np.abs(np.sort(blk.energies) - dense).max() <= 1e-12 * scale
            V = blk.vectors.toarray()
            assert np.abs(V.T @ V - np.eye(blk.basis.dim)).max() <= 1e-12
            checked += 1
        assert checked >= 3

    def test_perturbed_eigenvector_raises(self, monkeypatch):
        # every eigenpair is checked: one bad vector in one block is enough
        eigh = np.linalg.eigh

        def perturbed(H):
            E, V = eigh(H)
            V = V.copy()
            V[:, -1] += 1e-3 * V[:, 0]
            return E, V
        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(NumericalFailureError):
            qgibbs.build_gibbs(params(), True, CutoffProfile.smooth(0.6, 0.05))

    def test_table_cutoff_blocks_nonnegative(self):
        # a table ending in 0 charges no sector past its last node
        p = ModelParams(tau=10.0, eps=0.5, eta=0.004, K=0.45, k_max=0, n_max=3)
        table = CutoffProfile.from_table(np.array([0.0, 0.05, 0.1, 0.15, 0.2]),
                                         np.array([0.0, 0.5, 1.0, 0.5, 0.0]))
        b = qgibbs.build_gibbs(p, False, table)
        assert b.blocks[3].cutoff_value == 0.0
        assert all(np.all(blk.boltzmann >= 0.0) for blk in b.blocks)


class TestEigenvectorStorage:
    # one sparse eigenvector array per sector, interacting or free
    @pytest.mark.parametrize("interacting", [True, False], ids=["interacting", "free"])
    @pytest.mark.parametrize("tau,k_max", [(40.0, 1), (17.0, 2)])
    def test_block_sparse_columns(self, tau, k_max, interacting):
        p = params(tau=tau, k_max=k_max, eta=0.1)
        b = qgibbs.build_gibbs(p, interacting, CutoffProfile.smooth(0.6, 0.1))
        for blk in b.blocks:
            V = blk.vectors
            assert isinstance(V, sparse.csc_array)
            if blk.cutoff_value == 0.0:
                assert V.shape == (blk.basis.dim, 0)
                continue
            assert V.shape == (blk.basis.dim, blk.basis.dim) == (blk.basis.dim, len(blk.energies))
            assert np.abs((V.T @ V).toarray() - np.eye(blk.basis.dim)).max() <= 1e-12
            # the stored rows of each column share one total momentum
            momenta = blk.basis.momenta[V.indices]
            for lo, hi in zip(V.indptr[:-1], V.indptr[1:]):
                assert hi > lo and np.all(momenta[lo:hi] == momenta[lo])
            if not interacting or blk.n < 3:
                identity = sparse.eye_array(blk.basis.dim, format="csc")
                assert np.array_equal(V.indptr, identity.indptr)
                assert np.array_equal(V.indices, identity.indices)
                assert np.array_equal(V.data, identity.data)


class TestRelativePartition:
    # the block build's Z against the cutoff-free free partition function
    def test_free_no_cutoff_is_one(self):
        p = ModelParams(tau=5.0, eps=0.5, eta=0.1, K=0.6, k_max=0, n_max=600)
        z = qgibbs.build_gibbs(p, False, CutoffProfile.one()).Z
        free = qgibbs.FreeProductState.build(0, 5.0, CutoffProfile.one())
        assert z / free.partition_product_formula == pytest.approx(1.0, abs=1e-10)

    def test_sharp_cutoff_no_interaction(self):
        # with at most 2 particles the attraction is identically zero
        p = ModelParams(tau=5.0, eps=0.5, eta=0.02, K=0.7, k_max=1, n_max=2)
        free = qgibbs.FreeProductState.build(1, 5.0, CutoffProfile.one())
        ratio = qgibbs.build_gibbs(p, True, CutoffProfile.sharp(0.7)).Z / free.partition
        z = qgibbs.free_sector_weights(1, 5.0, 2)   # sectors n = 0, 1, 2 survive
        assert 0.0 < ratio < 1.0
        assert ratio == pytest.approx(np.sum(z) / free.partition, rel=1e-12)


class TestFreeProductState:
    def test_cutoff_expectation_matches_dense(self):
        tau = 10.0
        cut = CutoffProfile.smooth(0.6, 0.05)
        fp = qgibbs.FreeProductState.build(1, tau, cut)
        p = params(tau=tau)
        dense = qgibbs.build_gibbs(p, False, cut)
        assert fp.partition == pytest.approx(dense.Z, rel=1e-12)

    def test_particle_moment(self):
        fp = qgibbs.FreeProductState.build(0, 10.0, CutoffProfile.one())
        assert fp.particle_moment(0) == pytest.approx(1.0, abs=1e-12)
        assert fp.particle_moment(1) == pytest.approx(1.950416, abs=1e-5)

    @pytest.mark.parametrize("k_max,tau", [(1, -1.0), (1, 0.0), (1, math.nan), (1, math.inf),
                                           (-1, 5.0)],
                             ids=["negative_tau", "zero_tau", "nan_tau", "inf_tau",
                                  "negative_k_max"])
    @pytest.mark.parametrize("cutoff", [CutoffProfile.one(), CutoffProfile.smooth(0.6, 0.05)],
                             ids=["unbounded", "bounded"])
    def test_rejects_bad_window(self, k_max, tau, cutoff):
        with pytest.raises(InvalidConfigError):
            qgibbs.FreeProductState.build(k_max, tau, cutoff)
        with pytest.raises(InvalidConfigError):
            qgibbs.certified_free_nmax(k_max, tau)


class TestReducedDensity:
    def test_vacuum_supported(self):
        p = ModelParams(tau=10.0, eps=0.5, eta=0.004, K=0.1, k_max=1, n_max=1)
        b = qgibbs.build_gibbs(p, False, CutoffProfile.sharp(0.02))
        G = qgibbs.reduced_density_matrix(b, 1)
        assert np.all(G == 0.0)

    def test_free_single_mode(self):
        p = ModelParams(tau=10.0, eps=0.5, eta=0.1, K=0.6, k_max=0, n_max=2000)
        b = qgibbs.build_gibbs(p, False, CutoffProfile.one())
        G = qgibbs.reduced_density_matrix(b, 1)
        assert G[0, 0] == pytest.approx(19.5042, abs=1e-4)
        scaled = qgibbs.reduced_density_matrix(b, 1, scaled=True)
        assert scaled[0, 0] == pytest.approx(1.95042, abs=1e-5)
        # classical limit of the scaled occupancy is 1/lambda_0 = 2
        assert abs(scaled[0, 0] - 2.0) < 0.05

    def test_trace_is_mean_particle_number(self):
        p = params()
        b = qgibbs.build_gibbs(p, True, CutoffProfile.smooth(0.6, 0.05))
        G = qgibbs.reduced_density_matrix(b, 1)
        mean_n = qgibbs.particle_moment(b, 1) * p.tau
        assert np.trace(G).real == pytest.approx(mean_n, rel=1e-10)

    def test_one_body_two_routes(self):
        # ladder route vs dense partial-trace route on the full mixed state
        p = params(tau=8.0, K=0.75, n_max=4)
        b = qgibbs.build_gibbs(p, True, CutoffProfile.smooth(0.75, 0.1))
        G = qgibbs.reduced_density_matrix(b, 1)
        oracle = np.zeros((3, 3), dtype=complex)
        for blk in b.blocks:
            if blk.weight == 0.0 or blk.n == 0:
                continue
            probs = blk.boltzmann / b.Z
            vecs = blk.vectors.toarray()
            for w, psi in zip(probs, vecs.T):
                dense = embed_symmetric(blk.basis, psi.astype(complex))
                oracle += w * blk.n * partial_trace_first(dense, keep=1)
        assert np.abs(G - oracle).max() <= 1e-10

    def test_two_body_vs_partial_trace(self):
        p = params(tau=8.0, K=0.75, n_max=4)
        b = qgibbs.build_gibbs(p, True, CutoffProfile.smooth(0.75, 0.1))
        M = qgibbs.reduced_density_matrix(b, 2)
        # dense route: C(n,2) * partial trace, then restrict to the pair basis
        J = 3
        pairs = [(i, j) for i in range(J) for j in range(i, J)]
        nu = np.array([math.sqrt(2.0) if i == j else 1.0 for (i, j) in pairs])
        oracle_full = np.zeros((J * J, J * J), dtype=complex)
        for blk in b.blocks:
            if blk.weight == 0.0 or blk.n < 2:
                continue
            probs = blk.boltzmann / b.Z
            vecs = blk.vectors.toarray()
            for w, psi in zip(probs, vecs.T):
                dense = embed_symmetric(blk.basis, psi.astype(complex))
                oracle_full += w * math.comb(blk.n, 2) * partial_trace_first(dense, keep=2)
        # pair-basis vectors e_(ij) inside C^J tensor C^J
        E = np.zeros((J * J, len(pairs)))
        for a, (i, j) in enumerate(pairs):
            v = np.zeros((J, J))
            if i == j:
                v[i, i] = 1.0
            else:
                v[i, j] = v[j, i] = 1.0 / math.sqrt(2.0)
            E[:, a] = v.reshape(-1)
        oracle = E.T @ oracle_full @ E
        assert np.abs(M - oracle).max() <= 1e-10

    def test_trace_of_two_body(self):
        p = params(tau=8.0, K=0.75, n_max=4)
        b = qgibbs.build_gibbs(p, True, CutoffProfile.smooth(0.75, 0.1))
        M = qgibbs.reduced_density_matrix(b, 2)
        probs = b.sector_probabilities()
        ns = np.array([blk.n for blk in b.blocks])
        assert np.trace(M).real == pytest.approx(
            float(np.dot(probs, ns * (ns - 1) / 2.0)), rel=1e-10)

    def test_unsupported_order(self):
        cut = CutoffProfile.smooth(0.6, 0.05)
        b = qgibbs.build_gibbs(params(), False, cut)
        with pytest.raises(UnsupportedOrderError):
            qgibbs.reduced_density_matrix(b, 3)
        with pytest.raises(UnsupportedOrderError):
            semiclassics.definetti_gap(b, 0.1, 3)
        with pytest.raises(UnsupportedOrderError):
            cgibbs.classical_moment_matrix(params(), "hartree", cut, 2, 100, 1)


class TestParticleMoment:
    def test_zeroth(self):
        b = qgibbs.build_gibbs(params(), True, CutoffProfile.smooth(0.6, 0.05))
        assert qgibbs.particle_moment(b, 0) == pytest.approx(1.0, abs=1e-14)

    def test_vacuum_only(self):
        p = ModelParams(tau=10.0, eps=0.5, eta=0.004, K=0.1, k_max=1, n_max=1)
        b = qgibbs.build_gibbs(p, False, CutoffProfile.sharp(0.02))
        assert qgibbs.particle_moment(b, 1) == 0.0

    def test_free_single_mode(self):
        p = ModelParams(tau=10.0, eps=0.5, eta=0.1, K=0.6, k_max=0, n_max=2000)
        b = qgibbs.build_gibbs(p, False, CutoffProfile.one())
        assert qgibbs.particle_moment(b, 1) == pytest.approx(1.95042, abs=1e-5)

    def test_bounded_by_cutoff_support(self):
        b = qgibbs.build_gibbs(params(), True, CutoffProfile.smooth(0.6, 0.05))
        for ell in (1, 2, 3):
            assert qgibbs.particle_moment(b, ell) <= 0.36**ell + 1e-12


def _two_level_state(p0, p1):
    """Block state on k_max=0 with prescribed sector probabilities."""
    blocks = []
    for n, pn in ((0, p0), (1, p1)):
        basis = fock.enumerate_sector(0, n)
        blocks.append(qgibbs.SectorBlock(
            n=n, basis=basis, energies=np.array([-math.log(pn)]),
            vectors=sparse.eye_array(1, format="csc"), cutoff_value=1.0))
    pr = ModelParams(tau=1.0, eps=0.5, eta=0.1, K=1.5, k_max=0, n_max=2)
    return qgibbs.GibbsStateBlocks(params=pr, interacting=False,
                                   cutoff=CutoffProfile.one(),
                                   blocks=tuple(blocks), Z=1.0)


def _dense_log(rho):
    """Matrix logarithm of a positive sector density through eigh, after
    pulling out its largest eigenvalue so the small ones keep their digits."""
    top = np.linalg.eigvalsh(rho).max()
    w, U = np.linalg.eigh(rho / top)
    return U @ np.diag(np.log(w)) @ U.T + math.log(top) * np.eye(len(w))


def _dense_relative_entropy(state, reference):
    """Tr rho (log rho - log sigma) summed over sectors, with each sector's
    rho = V diag(p) V^T formed densely."""
    total = 0.0
    for a, c in zip(state.blocks, reference.blocks):
        if a.weight == 0.0:
            continue
        rho, sigma = (
            blk.vectors @ np.diag(blk.boltzmann) @ blk.vectors.T / st.Z
            for blk, st in ((a, state), (c, reference)))
        total += float(np.trace(rho @ (_dense_log(rho) - _dense_log(sigma))))
    return total


def _fsum_relative_entropy(state, reference):
    """sum over sectors and all pairs (i, j) of p_i <psi_i, phi_j>^2
    (log p_i - log q_j), on the dense overlap, in one exactly rounded
    math.fsum.  The logs are formed as the library forms them, so only the
    summation is under test."""
    terms = []
    for a, c in zip(state.blocks, reference.blocks):
        if a.weight == 0.0:
            continue
        p = a.boltzmann / state.Z
        logq = -c.energies + math.log(c.cutoff_value) - math.log(reference.Z)
        overlap = (a.vectors.T @ c.vectors).toarray()[p > 0]
        logp = np.log(p[p > 0])
        terms.extend((p[p > 0, None] * overlap**2 * (logp[:, None] - logq)).ravel())
    return math.fsum(terms)


class TestRelativeEntropy:
    def test_identical_states(self):
        b = qgibbs.build_gibbs(params(), True, CutoffProfile.smooth(0.6, 0.05))
        assert abs(qgibbs.relative_entropy(b, b)) <= 1e-10

    def test_two_level_scalar_kl(self):
        a = _two_level_state(0.7, 0.3)
        c = _two_level_state(0.5, 0.5)
        kl = qgibbs.relative_entropy(a, c)
        assert kl == pytest.approx(0.7 * math.log(1.4) + 0.3 * math.log(0.6), rel=1e-12)
        assert kl == pytest.approx(0.082282, abs=1e-6)

    def test_nonnegative(self):
        p = params()
        bi = qgibbs.build_gibbs(p, True, CutoffProfile.smooth(0.6, 0.05))
        bf = qgibbs.build_gibbs(p, False, CutoffProfile.smooth(0.6, 0.05))
        assert qgibbs.relative_entropy(bi, bf) >= -1e-10
        assert qgibbs.relative_entropy(bf, bi) >= -1e-10

    @pytest.mark.parametrize("tau,k_max", [(20.0, 1), (12.0, 2)])
    def test_dense_log_oracle(self, tau, k_max):
        # interacting | free and free | interacting, one dense sector at a time
        p = params(tau=tau, k_max=k_max)
        cut = CutoffProfile.smooth(0.6, 0.05)
        bi = qgibbs.build_gibbs(p, True, cut)
        bf = qgibbs.build_gibbs(p, False, cut)
        for a, c in ((bi, bf), (bf, bi)):
            want = _dense_relative_entropy(a, c)
            assert qgibbs.relative_entropy(a, c) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("tau,k_max", [(40.0, 1), (17.0, 2)])
    def test_fsum_oracle(self, tau, k_max):
        # the entropy here is about 1e-6, while Tr p log p and Tr p log q are O(1)
        p = params(tau=tau, k_max=k_max, eta=0.1)
        cut = CutoffProfile.smooth(0.6, 0.1)
        bi = qgibbs.build_gibbs(p, True, cut)
        bf = qgibbs.build_gibbs(p, False, cut)
        for a, c in ((bi, bf), (bf, bi)):
            want = _fsum_relative_entropy(a, c)
            assert abs(qgibbs.relative_entropy(a, c) - want) <= 1e-12 * abs(want)

    def test_support_mismatch(self):
        p_small = ModelParams(tau=10.0, eps=0.5, eta=0.004, K=0.1, k_max=0, n_max=2)
        tiny = qgibbs.build_gibbs(p_small, False, CutoffProfile.sharp(0.1))
        p_big = ModelParams(tau=10.0, eps=0.5, eta=0.1, K=0.6, k_max=0, n_max=4)
        wide = qgibbs.build_gibbs(p_big, False, CutoffProfile.sharp(0.6))
        # wide state charges n=2 where the tiny cutoff vanishes
        with pytest.raises(SupportMismatchError):
            qgibbs.relative_entropy(wide, tiny)

    def test_variational_identity(self):
        # H(G*, free_ref) - Tr(W_tau G*) = -log(Z_int / Z_free), both with cutoff
        p = params()
        cut = CutoffProfile.smooth(0.6, 0.05)
        bi = qgibbs.build_gibbs(p, True, cut)
        bf = qgibbs.build_gibbs(p, False, cut)
        w_expect = 0.0
        for blk in bi.blocks:
            if blk.weight == 0.0 or blk.n < 3:
                continue
            W = fock.assemble_interaction(blk.basis, KernelSpec.box(), p.eps)
            pr = blk.boltzmann / bi.Z
            V = blk.vectors.toarray()
            quad = np.einsum("ji,jk,ki->i", V, W, V)
            w_expect += float(np.dot(pr, quad)) / p.tau**3
        functional = qgibbs.relative_entropy(bi, bf) - w_expect
        target = -math.log(bi.Z / bf.Z)
        assert functional == pytest.approx(target, abs=1e-8)
