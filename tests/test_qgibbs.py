"""Gibbs state construction, partition functions, reduced matrices, entropy."""

import functools
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import sparse

from conftest import embed_symmetric, partial_trace_first, sharp_through, table_cutoff
from torusgibbs import cgibbs, fock, qgibbs, semiclassics
from torusgibbs.errors import (
    InvalidConfigError,
    NumericalFailureError,
    ResourceLimitError,
    SupportMismatchError,
    UnsupportedOrderError,
)
from torusgibbs.model import CutoffProfile, ModelParams, eigenvalues


def params(tau=10.0, eps=0.5, eta=0.05, K=0.6, k_max=1, n_max=None, **kw):
    if n_max is None:
        n_max = max(1, math.floor(K**2 * tau))
    return ModelParams(tau=tau, eps=eps, eta=eta, K=K, k_max=k_max, n_max=n_max, **kw)


def per_block_eigh(basis, tau, eps):
    """Energies, vector data and row indices of one eigh call per momentum
    block of the dense sector Hamiltonian, blocks in ascending momentum."""
    W, kin = fock.assemble_interaction(basis, eps), fock.kinetic_diagonal(basis)
    H = -W.toarray() / tau**3
    H[np.diag_indices(basis.dim)] += kin / tau
    energies, data, indices = [], [], []
    for k in np.unique(basis.momenta):
        rows = np.flatnonzero(basis.momenta == k)
        e, v = np.linalg.eigh(H[np.ix_(rows, rows)])
        energies.append(e)
        data.append(v.T.ravel())
        indices.append(np.tile(rows, len(rows)))
    return np.concatenate(energies), np.concatenate(data), np.concatenate(indices)


class TestBuild:
    def test_free_single_mode_partition(self):
        p = ModelParams(tau=10.0, eps=0.5, eta=0.1, K=0.6, k_max=0, n_max=400)
        b = qgibbs.build_gibbs(p, False, sharp_through(400, 10.0))
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
        # the slowest mode weight is e^{-1/20}: past n = 1500 the tail is below 1e-25
        z = qgibbs.free_sector_weights(1, tau, 1500)
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

    def test_cap(self, monkeypatch):
        # the cap reads the top charged sector: a cutoff that charges n = 40
        # at k_max = 3, dimension C(46, 6), raises before any sector is built
        enumerated = []
        enumerate_sector = fock.enumerate_sector
        monkeypatch.setattr(fock, "enumerate_sector",
                            lambda *a: enumerated.append(a) or enumerate_sector(*a))
        p = params(k_max=3, n_max=40, sector_dim_cap=1000)
        with pytest.raises(ResourceLimitError, match="n=40"):
            qgibbs.build_gibbs(p, True, sharp_through(40, 10.0))
        assert enumerated == []
        # smooth(0.6, 0.05) at tau = 10 charges n <= 3, whose top sector has
        # dimension 84, however far n_max reaches
        b = qgibbs.build_gibbs(params(k_max=3, n_max=40, sector_dim_cap=84), True,
                               CutoffProfile.smooth(0.6, 0.05))
        assert len(b.blocks) == 4 and b.blocks[-1].basis.dim == 84
        with pytest.raises(ResourceLimitError, match="n=3"):
            qgibbs.build_gibbs(params(k_max=3, n_max=40, sector_dim_cap=83), True,
                               CutoffProfile.smooth(0.6, 0.05))

    def test_builds_the_charged_sectors_only(self):
        # params K = 1.2 put n_max at 14, but smooth(0.6, 0.1) charges n <= 3
        # at tau = 10: both windows build the same four sectors
        cut = CutoffProfile.smooth(0.6, 0.1)
        wide = qgibbs.build_gibbs(params(K=1.2, eta=0.1), True, cut)
        tight = qgibbs.build_gibbs(params(K=0.6, eta=0.1), True, cut)
        assert (wide.params.n_max, tight.params.n_max) == (14, 3)
        assert [b.n for b in wide.blocks] == [b.n for b in tight.blocks] == [0, 1, 2, 3]
        assert wide.Z == tight.Z

    @settings(max_examples=40, deadline=None)
    @given(tau=st.floats(1.0, 40.0), K=st.floats(0.3, 1.5), frac=st.floats(0.01, 0.49),
           sharp=st.booleans(), extra=st.integers(0, 5))
    def test_sector_rule(self, tau, K, frac, sharp, extra):
        # sectors 0..n_top, n_top the last n whose cutoff value is positive
        cut = CutoffProfile.sharp(K) if sharp else CutoffProfile.smooth(K, frac * K**2)
        n_max = max(1, math.floor(K**2 * tau) + extra)
        assume((n_max + 1) / tau > K**2)  # the truncation holds the whole support
        p = ModelParams(tau=tau, eps=0.5, eta=frac * K**2, K=K, k_max=0, n_max=n_max)
        b = qgibbs.build_gibbs(p, False, cut)
        n_top = b.blocks[-1].n
        assert [blk.n for blk in b.blocks] == list(range(n_top + 1))
        fvals = cut(np.arange(n_max + 2) / tau)
        assert fvals[n_top] > 0.0 and not np.any(fvals[n_top + 1:])

    @pytest.mark.parametrize("tau,k_max", [(40.0, 1), (20.0, 2)])
    def test_blocked_spectrum_matches_dense(self, tau, k_max):
        # per-momentum eigh against eigvalsh of the whole sector Hamiltonian
        p = params(tau=tau, k_max=k_max)
        b = qgibbs.build_gibbs(p, True, CutoffProfile.smooth(0.6, 0.05))
        checked = 0
        for blk in b.blocks:
            if blk.n < 3:
                continue
            kin = fock.kinetic_diagonal(blk.basis)
            W = fock.assemble_interaction(blk.basis, p.eps).toarray()
            dense = np.linalg.eigvalsh(np.diag(kin / tau) - W / tau**3)
            scale = max(1.0, np.abs(dense).max())
            assert np.abs(np.sort(blk.energies) - dense).max() <= 1e-12 * scale
            V = blk.vectors.toarray()
            assert np.abs(V.T @ V - np.eye(blk.basis.dim)).max() <= 1e-12
            checked += 1
        assert checked >= 3

    def test_stacked_solve_matches_per_block_eigh(self):
        # one eigh per block size over a batch of two sectors gives each
        # sector, bit for bit, the energies and vectors of one eigh per block
        # in ascending momentum
        tau, bases = 17.0, [fock.enumerate_sector(2, n) for n in (5, 6)]
        sizes = [set(np.unique(b.momenta, return_counts=True)[1]) for b in bases]
        assert len(sizes[0] & sizes[1]) >= 5 and len(sizes[1]) >= 5
        solved = qgibbs._eigendecompose(bases, tau, 0.5)
        assert len(solved) == 2
        for basis, (E, V, _) in zip(bases, solved):
            energies, data, indices = per_block_eigh(basis, tau, 0.5)
            assert np.array_equal(E, energies)
            assert np.array_equal(V.data, data)
            assert np.array_equal(V.indices, indices)

    def test_sector_past_the_batch_cap(self, monkeypatch):
        # a sector past _BATCH_ENTRIES is solved in a batch of its own, with
        # the same bits as inside a batch; each batch makes one eigh call per
        # distinct block size
        tau, bases = 17.0, [fock.enumerate_sector(2, n) for n in (5, 6)]
        sizes = [np.unique(b.momenta, return_counts=True)[1] for b in bases]
        eigh, calls = np.linalg.eigh, []

        def spy(H):
            calls.append(H.shape[-1])
            return eigh(H)
        monkeypatch.setattr(np.linalg, "eigh", spy)
        together = qgibbs._eigendecompose(bases, tau, 0.5)
        assert sorted(calls) == sorted(set(sizes[0]) | set(sizes[1]))
        calls.clear()
        monkeypatch.setattr(qgibbs, "_BATCH_ENTRIES", int(np.sum(sizes[0] ** 2)))
        alone = qgibbs._eigendecompose(bases, tau, 0.5)
        assert len(calls) == len(set(sizes[0])) + len(set(sizes[1]))
        for (E, V, r), (E1, V1, r1) in zip(together, alone):
            assert np.array_equal(E, E1) and r == r1
            for attr in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(V, attr), getattr(V1, attr))

    def test_perturbed_eigenvector_raises(self, monkeypatch):
        # every eigenpair is checked: one bad vector in one block is enough,
        # so only the first stack of blocks with two or more states is touched
        eigh = np.linalg.eigh
        touched = []

        def perturbed(H):
            E, V = eigh(H)
            if H.shape[-1] < 2 or touched:
                return E, V
            touched.append(H.shape)
            V = V.copy()
            V[0, :, -1] += 1e-3 * V[0, :, 0]  # one column of one matrix in the stack
            return E, V
        monkeypatch.setattr(qgibbs, "_SPECTRA", qgibbs._SpectrumCache())
        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(NumericalFailureError):
            qgibbs.build_gibbs(params(), True, CutoffProfile.smooth(0.6, 0.05))
        assert len(touched) == 1 and len(touched[0]) == 3

    def test_perturbed_eigenvector_names_its_sector(self, monkeypatch):
        # the stack of 2 x 2 blocks holds blocks of every sector n = 3..7
        # (k_max = 1); a bad vector in its middle matrix is reported with
        # that matrix's sector and momentum, not the batch's first sector's
        p = params(tau=20.0, eta=0.1)
        stack = [(n, k) for n in range(3, 8)
                 for k, m in zip(*np.unique(fock.enumerate_sector(1, n).momenta,
                                            return_counts=True)) if m == 2]
        j = len(stack) // 2
        assert stack[0][0] == 3 and stack[j][0] > 3
        eigh = np.linalg.eigh

        def perturbed(H):
            E, V = eigh(H)
            if H.shape[-1] != 2:
                return E, V
            assert len(H) == len(stack)
            V = V.copy()
            V[j, :, -1] += 1e-3 * V[j, :, 0]
            return E, V
        monkeypatch.setattr(qgibbs, "_SPECTRA", qgibbs._SpectrumCache())
        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        n, k = stack[j]
        with pytest.raises(NumericalFailureError, match=f"sector n={n}, momentum {k} "):
            qgibbs.build_gibbs(p, True, CutoffProfile.smooth(0.6, 0.1))

    def test_coupling_between_momenta_raises(self, monkeypatch):
        # a triplet joining two momentum blocks raises however small it is;
        # a whole-sector residual would see it only above 1e-9 * scale
        assemble = fock.assemble_interaction

        def leaky(basis, eps):
            W = assemble(basis, eps)
            i, j = (np.flatnonzero(basis.momenta == k)[0] for k in (0, 1))
            return sparse.coo_array((np.append(W.data, 1e-20),
                                     (np.append(W.row, i), np.append(W.col, j))), shape=W.shape)
        monkeypatch.setattr(qgibbs, "_SPECTRA", qgibbs._SpectrumCache())
        monkeypatch.setattr(fock, "assemble_interaction", leaky)
        with pytest.raises(NumericalFailureError, match="momentum blocks"):
            qgibbs.build_gibbs(params(), True, CutoffProfile.smooth(0.6, 0.05))

    def test_coupling_in_a_later_sector_names_it(self, monkeypatch):
        # sectors n = 3..7 share one batch; a leaky triplet in n = 6 alone
        # is reported as n = 6
        assemble = fock.assemble_interaction

        def leaky(basis, eps):
            W = assemble(basis, eps)
            if basis.n != 6:
                return W
            i, j = (np.flatnonzero(basis.momenta == k)[0] for k in (0, 1))
            return sparse.coo_array((np.append(W.data, 1e-20),
                                     (np.append(W.row, i), np.append(W.col, j))), shape=W.shape)
        monkeypatch.setattr(qgibbs, "_SPECTRA", qgibbs._SpectrumCache())
        monkeypatch.setattr(fock, "assemble_interaction", leaky)
        with pytest.raises(NumericalFailureError, match="momentum blocks in sector n=6$"):
            qgibbs.build_gibbs(params(tau=20.0, eta=0.1), True, CutoffProfile.smooth(0.6, 0.1))

    def test_peak_memory_below_one_dense_sector(self, monkeypatch):
        # the build forms no dim x dim array: its peak stays below one dense
        # top-sector matrix (71.4 MB at k_max = 2, tau = 40)
        import tracemalloc

        p = params(tau=40.0, k_max=2, eta=0.1)
        monkeypatch.setattr(qgibbs, "_SPECTRA", qgibbs._SpectrumCache())
        tracemalloc.start()
        try:
            b = qgibbs.build_gibbs(p, True, CutoffProfile.smooth(0.6, 0.1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dim_top = b.blocks[-1].basis.dim
        assert dim_top == fock.sector_dimension(2, 14)
        assert peak < dim_top**2 * 8

    def test_table_cutoff_blocks_nonnegative(self):
        # the table vanishes at n = 0, 2 and 3: sectors past the last charged
        # one, n = 1, are not built, and sector 0 carries zero weight
        p = ModelParams(tau=10.0, eps=0.5, eta=0.004, K=0.45, k_max=0, n_max=3)
        table = table_cutoff([0.0, 0.05, 0.1, 0.15, 0.2], [0.0, 0.5, 1.0, 0.5, 0.0])
        b = qgibbs.build_gibbs(p, False, table)
        assert [blk.n for blk in b.blocks] == [0, 1]
        assert b.blocks[0].weight == 0.0
        assert all(np.all(blk.boltzmann >= 0.0) for blk in b.blocks)


class TestBadInput:
    @pytest.mark.parametrize("cutoff", [CutoffProfile.smooth(1.2, 0.1),
                                        sharp_through(8, 20.0)],
                             ids=["smooth_K1.2", "sharp_through_8"])
    def test_cutoff_positive_past_n_max(self, cutoff):
        # sectors 0..7 of a state the cutoff charges beyond n = 7: smooth(1.2,
        # 0.1) would give a free Z of 15.71, not the 49.28 of n_max = 28
        p = ModelParams(tau=20.0, eps=0.5, eta=0.1, K=0.6, k_max=1, n_max=7)
        with pytest.raises(InvalidConfigError, match="n_max = 7"):
            qgibbs.build_gibbs(p, False, cutoff)


@pytest.fixture()
def spectra(monkeypatch):
    """An empty spectrum cache for one test."""
    cache = qgibbs._SpectrumCache()
    monkeypatch.setattr(qgibbs, "_SPECTRA", cache)
    return cache


@pytest.fixture()
def solves(monkeypatch):
    """Calls made to the interaction assembly and to the dense eigensolver."""
    calls = []
    assemble, eigh = fock.assemble_interaction, np.linalg.eigh

    def spy_assemble(*args):
        calls.append("assemble_interaction")
        return assemble(*args)

    def spy_eigh(*args):
        calls.append("eigh")
        return eigh(*args)
    monkeypatch.setattr(fock, "assemble_interaction", spy_assemble)
    monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
    return calls


def solved_sectors(state):
    return [b for b in state.blocks if b.n >= 3]


def stored_arrays(blk):
    return blk.energies, blk.vectors.data, blk.vectors.indices, blk.vectors.indptr


class TestSpectrumCache:
    # each interacting sector is solved once per (k_max, n, tau, eps)
    def test_second_build_solves_nothing(self, spectra, solves):
        p, cut = params(tau=20.0, eta=0.1), CutoffProfile.smooth(0.6, 0.1)
        first = qgibbs.build_gibbs(p, True, cut)
        assert solves.count("assemble_interaction") == len(solved_sectors(first)) >= 3
        solves.clear()
        second = qgibbs.build_gibbs(p, True, cut)
        assert solves == []
        assert second.Z == first.Z
        for x, y in zip(first.blocks, second.blocks):
            assert np.array_equal(x.energies, y.energies)
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(x.vectors, attr), getattr(y.vectors, attr))
            assert x.residual == y.residual

    def test_one_eigh_per_block_size(self, spectra, solves):
        # a cold build at tau = 80 solves its 26 interacting sectors in one
        # batch: one eigh call per distinct block size, 15 of them
        p = params(tau=80.0, eta=0.1)
        first = qgibbs.build_gibbs(p, True, CutoffProfile.smooth(0.6, 0.1))
        sizes = set()
        for blk in solved_sectors(first):
            sizes |= set(np.unique(blk.basis.momenta, return_counts=True)[1])
        assert len(solved_sectors(first)) == 26 and len(sizes) == 15
        assert solves.count("eigh") == 15
        assert solves.count("assemble_interaction") == 26
        solves.clear()
        qgibbs.build_gibbs(p, True, CutoffProfile.smooth(0.6, 0.1))
        assert solves == []

    def test_vertex_built_once_per_kernel(self, spectra, monkeypatch):
        # the multiset vertex depends on (k_max, eps) alone: a sweep over tau
        # builds it once per pair, whatever the number of sectors
        built, build = [], fock._multiset_vertex.__wrapped__

        def spy(k_max, eps):
            built.append((k_max, eps))
            return build(k_max, eps)
        monkeypatch.setattr(fock, "_multiset_vertex", functools.lru_cache(maxsize=None)(spy))
        for k_max in (1, 2):
            for eps in (0.5, 0.3):
                for tau in (10.0, 20.0):
                    qgibbs.build_gibbs(params(tau=tau, eps=eps, eta=0.1, k_max=k_max), True,
                                       CutoffProfile.smooth(0.6, 0.1))
        assert sorted(built) == [(1, 0.3), (1, 0.5), (2, 0.3), (2, 0.5)]

    def test_cutoffs_share_sectors(self, spectra, solves):
        p = params(tau=20.0, eta=0.1)
        smooth = qgibbs.build_gibbs(p, True, CutoffProfile.smooth(0.6, 0.1))
        solves.clear()
        sharp = qgibbs.build_gibbs(p, True, CutoffProfile.sharp(0.6))
        assert solves == []
        shared = list(zip(solved_sectors(smooth), solved_sectors(sharp)))
        assert len(shared) >= 3 and sharp.Z != smooth.Z
        for x, y in shared:
            assert x.n == y.n and x.energies is y.energies and x.vectors is y.vectors

    def test_cached_arrays_read_only(self, spectra):
        b = qgibbs.build_gibbs(params(tau=20.0), True, CutoffProfile.smooth(0.6, 0.05))
        blk = solved_sectors(b)[-1]
        for array in (blk.energies, blk.vectors.data, blk.vectors.indices,
                      blk.vectors.indptr):
            with pytest.raises(ValueError):
                array[0] = 1
        with pytest.raises(ValueError):
            blk.vectors.data *= 2.0

    def test_cached_arrays_own_their_memory(self, spectra):
        # each sector's arrays are copied out of the batch: none is a view
        # of a larger buffer that would outlive its eviction
        b = qgibbs.build_gibbs(params(tau=40.0, eta=0.1), True, CutoffProfile.smooth(0.6, 0.1))
        for blk in solved_sectors(b):
            for array in stored_arrays(blk):
                assert array.base is None or array.base.nbytes == array.nbytes

    def test_eviction_bounds_stored_bytes(self, spectra, monkeypatch):
        p, cut = params(tau=40.0, eta=0.1), CutoffProfile.smooth(0.6, 0.1)
        full = qgibbs.build_gibbs(p, True, cut)
        sizes = {b.n: b.energies.nbytes + b.vectors.data.nbytes + b.vectors.indices.nbytes
                 + b.vectors.indptr.nbytes for b in solved_sectors(full)}
        budget = max(sizes.values()) - 1  # the largest sector alone is past it
        monkeypatch.setattr(qgibbs, "_CACHE_BYTES", budget)
        small = qgibbs._SpectrumCache()
        monkeypatch.setattr(qgibbs, "_SPECTRA", small)
        b = qgibbs.build_gibbs(p, True, cut)
        assert b.Z == full.Z
        kept = [key[1] for key in small.entries]
        assert 0 < len(kept) < len(sizes)
        assert small.nbytes == sum(sizes[n] for n in kept) <= budget
        assert max(sizes, key=sizes.get) not in kept
        # the most recently solved sectors that fit are the ones kept
        fitting = [n for n in sorted(sizes) if sizes[n] <= budget]
        assert kept == fitting[len(fitting) - len(kept):]
        # all sectors were solved in one batch; once the state is gone, the
        # memory of the evicted ones is freed, that of the kept ones is not
        owners = {blk.n: [weakref.ref(a if a.base is None else a.base)
                          for a in stored_arrays(blk)] for blk in solved_sectors(b)}
        del b
        gc.collect()
        for n, refs in owners.items():
            assert [r() is not None for r in refs] == [n in kept] * 4

    def test_residuals(self, spectra):
        tau = 20.0
        p = params(tau=tau, k_max=2, eta=0.1)
        b = qgibbs.build_gibbs(p, True, CutoffProfile.smooth(0.6, 0.1))
        for blk in b.blocks:
            if blk.n < 3:
                assert blk.residual == 0.0
                continue
            W = fock.assemble_interaction(blk.basis, p.eps).toarray()
            H = np.diag(fock.kinetic_diagonal(blk.basis) / tau) - W / tau**3
            widest = np.unique(blk.basis.momenta, return_counts=True)[1].max()
            bound = 1e-9 * max(1.0, np.abs(H).max()) * math.sqrt(widest)
            assert 0.0 < blk.residual <= bound
        free = qgibbs.build_gibbs(p, False, CutoffProfile.smooth(0.6, 0.1))
        assert all(blk.residual == 0.0 for blk in free.blocks)

    def test_distinct_kernels(self, spectra, monkeypatch):
        # w_eps at two ranges: eps 0.3 is what a box of half-width 0.3 gave at 0.5
        cut = CutoffProfile.smooth(0.6, 0.05)
        states = [params(tau=10.0, eps=eps) for eps in (0.5, 0.3)]
        cached = [qgibbs.build_gibbs(p, True, cut).Z for p in states]
        assert {key[3] for key in spectra.entries} == {0.3, 0.5}
        uncached = []
        for p in states:
            monkeypatch.setattr(qgibbs, "_SPECTRA", qgibbs._SpectrumCache())
            uncached.append(qgibbs.build_gibbs(p, True, cut).Z)
        assert cached == uncached
        assert cached[0] != cached[1]


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


def free_trace(k_max, tau):
    """The cutoff-free free partition function prod_k (1 - e^{-lambda_k/tau})^{-1}."""
    return float(np.prod(1.0 / (1.0 - np.exp(-eigenvalues(k_max) / tau))))


class TestRelativePartition:
    # the block build's Z against the cutoff-free free partition function
    def test_free_no_cutoff_is_one(self):
        p = ModelParams(tau=5.0, eps=0.5, eta=0.1, K=0.6, k_max=0, n_max=600)
        z = qgibbs.build_gibbs(p, False, sharp_through(600, 5.0)).Z
        assert z / free_trace(0, 5.0) == pytest.approx(1.0, abs=1e-10)

    def test_sharp_cutoff_no_interaction(self):
        # with at most 2 particles the attraction is identically zero
        p = ModelParams(tau=5.0, eps=0.5, eta=0.02, K=0.7, k_max=1, n_max=2)
        ratio = qgibbs.build_gibbs(p, True, CutoffProfile.sharp(0.7)).Z / free_trace(1, 5.0)
        z = qgibbs.free_sector_weights(1, 5.0, 2)   # sectors n = 0, 1, 2 survive
        assert 0.0 < ratio < 1.0
        assert ratio == pytest.approx(np.sum(z) / free_trace(1, 5.0), rel=1e-12)


class TestFreeProductState:
    # the free state as a product over modes: sector weights, no bases
    # k_max = 2 at tau = 80 charges a sector past the cap
    @pytest.mark.parametrize("k_max,tau", [(k, t) for k in (0, 1, 2) for t in (20.0, 40.0, 80.0)
                                           if (k, t) != (2, 80.0)],
                             ids=lambda v: f"{v:g}")
    def test_cutoff_expectation_matches_dense(self, k_max, tau):
        cut = CutoffProfile.smooth(0.6, 0.05)
        p = params(tau=tau, k_max=k_max)
        z = qgibbs.free_sector_weights(k_max, tau, p.n_max)
        dense = qgibbs.build_gibbs(p, False, cut)
        assert float(cut(np.arange(p.n_max + 1) / tau) @ z) == pytest.approx(dense.Z, rel=1e-12)

    def test_particle_moment(self):
        # single mode: the sector weights are q^n, and the exact trace normalizes them
        z = qgibbs.free_sector_weights(0, 10.0, 2000)
        ns = np.arange(2001) / 10.0
        assert float(np.sum(z)) / free_trace(0, 10.0) == pytest.approx(1.0, abs=1e-12)
        assert float(ns @ z) / free_trace(0, 10.0) == pytest.approx(1.950416, abs=1e-5)

    @pytest.mark.parametrize("k_max,tau", [(1, -1.0), (1, 0.0), (1, math.nan), (1, math.inf),
                                           (-1, 5.0)],
                             ids=["negative_tau", "zero_tau", "nan_tau", "inf_tau",
                                  "negative_k_max"])
    @pytest.mark.parametrize("n_max", [4, 2000], ids=["bounded", "unbounded"])
    def test_rejects_bad_window(self, k_max, tau, n_max):
        # a short sector window and one long enough for a cutoff-free trace
        with pytest.raises(InvalidConfigError):
            qgibbs.free_sector_weights(k_max, tau, n_max)

    def test_rejects_negative_n_max(self):
        with pytest.raises(InvalidConfigError):
            qgibbs.free_sector_weights(1, 5.0, -1)
        # the sector enumerator rejects a negative sector or window the same way
        for k_max, n in ((1, -1), (-1, 2)):
            with pytest.raises(InvalidConfigError):
                fock.enumerate_sector(k_max, n)


class TestReducedDensity:
    def test_vacuum_supported(self):
        p = ModelParams(tau=10.0, eps=0.5, eta=0.004, K=0.1, k_max=1, n_max=1)
        b = qgibbs.build_gibbs(p, False, CutoffProfile.sharp(0.02))
        G = qgibbs.reduced_density_matrix(b, 1)
        assert np.all(G == 0.0)

    def test_free_single_mode(self):
        p = ModelParams(tau=10.0, eps=0.5, eta=0.1, K=0.6, k_max=0, n_max=2000)
        b = qgibbs.build_gibbs(p, False, sharp_through(2000, 10.0))
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

    @pytest.mark.parametrize("interacting", [True, False], ids=["interacting", "free"])
    @pytest.mark.parametrize("tau,k_max", [(40.0, 0), (40.0, 1), (17.0, 2)])
    def test_one_body_matches_ladder_gram(self, tau, k_max, interacting):
        # diagonal occupation route vs the order-1 annihilator gram, transposed
        b = qgibbs.build_gibbs(params(tau=tau, k_max=k_max, eta=0.1), interacting,
                               CutoffProfile.smooth(0.6, 0.1))
        G = qgibbs.reduced_density_matrix(b, 1)
        gram = fock.ladder_gram(b.sector_items(), 1).T
        assert G.shape == gram.shape == (2 * k_max + 1,) * 2
        assert np.abs(G - gram).max() <= 1e-12 * np.abs(gram).max()

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
        b = qgibbs.build_gibbs(p, False, sharp_through(2000, 10.0))
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
                                   cutoff=sharp_through(2, 1.0),
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

    def test_reference_sector_with_zero_cutoff(self):
        # the reference holds n = 1 with cutoff value 0, where the state has weight
        ref_p = ModelParams(tau=10.0, eps=0.5, eta=0.004, K=0.5, k_max=0, n_max=2)
        ref = qgibbs.build_gibbs(ref_p, False, table_cutoff([0, .1, .2, .25], [1, 0, 1, 0]))
        assert [blk.cutoff_value for blk in ref.blocks] == [1.0, 0.0, 1.0]
        state_p = ModelParams(tau=10.0, eps=0.5, eta=0.004, K=0.44, k_max=0, n_max=2)
        state = qgibbs.build_gibbs(state_p, False, CutoffProfile.sharp(0.44))
        assert state.blocks[1].weight > 0.0
        with pytest.raises(SupportMismatchError, match="n=1"):
            qgibbs.relative_entropy(state, ref)

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
            W = fock.assemble_interaction(blk.basis, p.eps).toarray()
            pr = blk.boltzmann / bi.Z
            V = blk.vectors.toarray()
            quad = np.einsum("ji,jk,ki->i", V, W, V)
            w_expect += float(np.dot(pr, quad)) / p.tau**3
        functional = qgibbs.relative_entropy(bi, bf) - w_expect
        target = -math.log(bi.Z / bf.Z)
        assert functional == pytest.approx(target, abs=1e-8)
