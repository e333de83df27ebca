"""Grand-canonical Gibbs states on the truncated Fock space.

A state is block-diagonal over particle sectors because the Hamiltonian
commutes with the number operator.  Each block is stored through its
eigendecomposition; Gibbs weights are exp(-E) * cutoff(n/tau) with E the
spectrum of H_tau = H_0/tau - W/tau^3 restricted to the sector.  H_tau also
conserves total momentum, so each sector is diagonalized on its momentum
blocks, and its eigenvectors are stored as one sparse array whose columns
hold their block's rows only.  Every eigenvector then has one total
momentum, which makes the one-body matrix diagonal.

A build solves the interacting sectors n >= 3 it misses in the cache
together: their blocks go into batches of at most _BATCH_ENTRIES = 2^16
packed entries, each with one eigh call per distinct block size (15 for
the 26 sectors at k_max = 1, tau = 80).

Each interacting sector n >= 3 is solved once per process.  Its spectrum
depends only on (k_max, n, tau, eps), not on the cutoff or n_max,
so solved sectors are kept in an LRU cache under that key: a hit skips the
assembly, the eigensolve and the residual check, and returns the energies,
vectors and residual measured when the sector was solved.  The cache holds
at most _CACHE_BYTES = 256 MiB of stored arrays (energies plus the vectors'
data, indices and indptr), each owning its memory, and evicts the least
recently used sectors past that; a sector larger than the whole budget is
returned uncached.  The arrays are shared between states, so they are
read-only: writing to them raises ValueError.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import fock
from .errors import (
    InvalidConfigError,
    NumericalFailureError,
    ResourceLimitError,
    SupportMismatchError,
    UnsupportedOrderError,
)
from .model import CutoffProfile, ModelParams, eigenvalues

__all__ = [
    "GibbsStateBlocks",
    "build_gibbs",
    "reduced_density_matrix",
    "particle_moment",
    "relative_entropy",
    "free_sector_weights",
]


@dataclass(frozen=True)
class SectorBlock:
    """Eigendecomposition of one sector Hamiltonian plus its Gibbs weight.

    vectors is a real column-orthonormal scipy.sparse.csc_array whose
    column i is the eigenvector of energies[i], stored on the rows of its
    total-momentum block in ascending order.  Sectors diagonal in the
    occupation basis (free Hamiltonians, and n < 3 with the interaction)
    carry the identity, with energies in basis order.  residual is the largest
    eigenpair residual ||H v - e v||, on the eigenpair's momentum block, measured
    when the sector was solved, 0 for the sectors that need no eigensolve.
    """

    n: int
    basis: fock.SectorBasis
    energies: np.ndarray
    vectors: sparse.csc_array
    cutoff_value: float
    residual: float = 0.0

    @property
    def boltzmann(self) -> np.ndarray:
        return np.exp(-self.energies) * self.cutoff_value

    @property
    def weight(self) -> float:
        return float(np.sum(self.boltzmann))


@dataclass(frozen=True)
class GibbsStateBlocks:
    """Normalized block-diagonal Gibbs state with cached spectral data; blocks
    holds the sectors n = 0..n_top its cutoff charges, so blocks[n].n == n."""

    params: ModelParams
    interacting: bool
    cutoff: CutoffProfile
    blocks: tuple
    Z: float  # Tr( e^{-H_tau} f(N/tau) ) over the retained sectors

    def sector_probabilities(self) -> np.ndarray:
        """Probability of each particle sector n = 0..n_top."""
        return np.array([b.weight for b in self.blocks]) / self.Z

    def sector_items(self):
        """Iterate (basis, spectral probabilities, vectors) over the blocks."""
        for b in self.blocks:
            yield b.basis, b.boltzmann / self.Z, b.vectors


_BATCH_ENTRIES = 1 << 16  # packed block entries of the sectors one batch solves


def _eigendecompose(bases, tau: float, eps: float) -> list:
    """(energies, vectors, residual) of each sector's Hamiltonian
    kinetic/tau - W/tau^3, solved on its total-momentum blocks only.

    The sectors go in order into batches of at most _BATCH_ENTRIES packed
    block entries, a larger sector into a batch of its own.  A batch sums
    each sector's triplets W in turn, in order, by one bincount into a
    packed array of its blocks' m x m matrices, which is divided by -tau^3
    before kinetic/tau is added on the block diagonals: a dense sector
    matrix's operations, so the same floats.  Its blocks of one size m,
    whatever their sector, form a (B, m, m) stack, one eigh call per stack
    (LAPACK still runs once per matrix).  The vectors keep each sector's
    blocks in ascending momentum, each block's eigenvectors as columns
    stored on the block's rows, and residual is the sector's largest.  A
    batch of several sectors is copied out, so that every array owns its
    memory.  A triplet joining two blocks, or an eigenpair whose residual
    on its block is past 1e-9 * scale * sqrt(m), scale the largest entry of
    its sector's matrix, raises NumericalFailureError naming the sector.
    """
    solved, batch, entries = [], [], 0
    for basis in bases:
        size = int(np.sum(np.bincount(basis.momenta - basis.momenta.min()) ** 2))
        if batch and entries + size > _BATCH_ENTRIES:
            solved, batch, entries = solved + _solve_batch(batch, tau, eps), [], 0
        batch, entries = batch + [basis], entries + size
    return solved + _solve_batch(batch, tau, eps) if batch else solved


def _solve_batch(bases, tau: float, eps: float) -> list:
    """One batch of `_eigendecompose`, its rows the sectors' rows in turn."""
    offset = np.cumsum([0] + [basis.dim for basis in bases])  # each sector's first row
    sector = np.repeat(np.arange(len(bases)), np.diff(offset))  # of each row
    momenta = np.concatenate([basis.momenta for basis in bases])
    key = sector * (2 * int(np.abs(momenta).max()) + 1) + momenta  # (sector, momentum)
    order = np.argsort(key, kind="stable")  # rows by sector, then ascending momentum
    starts = np.flatnonzero(np.diff(key[order], prepend=key[order[0]] - 1))
    sizes = np.diff(starts, append=len(order))
    # block b holds energies [starts[b], +m), matrix and vectors [entries[b], +m^2)
    entries = np.cumsum(sizes**2) - sizes**2
    block, local = np.empty_like(order), np.empty_like(order)  # each row's block, place in it
    block[order] = np.repeat(np.arange(len(sizes)), sizes)
    local[order] = np.arange(len(order)) - np.repeat(starts, sizes)
    first = entries[block] + local * sizes[block]  # packed index of each row's first entry
    bounds = np.searchsorted(starts, offset)  # each sector's first block, and the end
    ends = np.append(entries, np.sum(sizes**2))[bounds]  # its first packed entry, and the end
    packed = []
    for s, basis in enumerate(bases):
        W = fock.assemble_interaction(basis, eps)
        own = slice(*offset[s:s + 2])  # the sector's rows, indexed by its triplets
        if np.any(block[own][W.row] != block[own][W.col]):
            raise NumericalFailureError(
                f"interaction couples two momentum blocks in sector n={basis.n}")
        packed.append(np.bincount(first[own][W.row] + local[own][W.col] - ends[s],
                                  W.data, minlength=ends[s + 1] - ends[s]))
        del W  # one sector's triplets at a time
    packed = np.concatenate(packed)
    packed /= -tau**3
    packed[first + local] += np.concatenate([fock.kinetic_diagonal(b) for b in bases]) / tau
    scale = np.maximum(1.0, np.maximum(np.maximum.reduceat(packed, ends[:-1]),
                                       -np.minimum.reduceat(packed, ends[:-1])))
    energies, data = np.empty(len(order)), np.empty(len(packed))
    indices = np.empty(len(data), dtype=np.int64)
    residuals = np.zeros(len(bases))
    for m in np.unique(sizes):
        same = np.flatnonzero(sizes == m)  # the B blocks of size m
        rows = order[starts[same][:, None] + np.arange(m)]  # (B, m)
        owner = sector[rows[:, 0]]
        at = entries[same][:, None] + np.arange(m * m)
        H = packed[at].reshape(len(same), m, m)
        e, v = np.linalg.eigh(H)
        res = np.linalg.norm(H @ v - v * e[:, None, :], axis=1).max(axis=1)
        tol = 1e-9 * scale[owner] * math.sqrt(m)
        worst = int(np.argmax(res - tol))  # past its tolerance if any block is
        if res[worst] > tol[worst]:
            raise NumericalFailureError(
                f"eigensolve residual {res[worst]:.2e} in sector n={bases[owner[worst]].n}, "
                f"momentum {momenta[rows[worst, 0]]} (scale {scale[owner[worst]]:.2e})")
        np.maximum.at(residuals, owner, res)
        energies[starts[same][:, None] + np.arange(m)] = e
        data[at] = np.swapaxes(v, 1, 2).reshape(len(same), -1)  # column by column
        indices[at] = np.tile(rows - offset[owner][:, None], m)  # on the block's m rows
    del packed
    keep = np.copy if len(bases) > 1 else np.asarray  # each sector's arrays own their memory
    out = []
    for s, basis in enumerate(bases):
        span, w = slice(*ends[s:s + 2]), sizes[slice(*bounds[s:s + 2])]
        V = sparse.csc_array((keep(data[span]), keep(indices[span]),
                              np.append(0, np.cumsum(np.repeat(w, w)))), shape=(basis.dim,) * 2)
        out.append((keep(energies[slice(*offset[s:s + 2])]), V, float(residuals[s])))
    return out


_CACHE_BYTES = 256 << 20  # stored bytes of solved sectors kept per process


class _SpectrumCache:
    """Solved interacting sectors, least recently used first, keyed by
    (k_max, n, tau, eps); `nbytes` counts the stored arrays and
    stays within _CACHE_BYTES.  The sectors one call misses are solved
    together, by one `_eigendecompose` call."""

    def __init__(self):
        self.entries = OrderedDict()  # key -> (energies, vectors, residual, nbytes)
        self.nbytes = 0

    def spectra(self, bases, tau: float, eps: float) -> list:
        """(energies, vectors, residual) of each sector, in the order given."""
        keys = [(basis.k_max, basis.n, tau, eps) for basis in bases]
        found = {key: self.entries[key][:3] for key in keys if key in self.entries}
        missing = {key: basis for key, basis in zip(keys, bases) if key not in found}
        found.update(zip(missing, _eigendecompose(list(missing.values()), tau, eps)))
        for key in keys:
            if key in self.entries:
                self.entries.move_to_end(key)
                continue
            E, V, residual = found[key]
            arrays = (E, V.data, V.indices, V.indptr)
            for a in arrays:
                a.flags.writeable = False
            size = sum(a.nbytes for a in arrays)
            if size <= _CACHE_BYTES:
                self.entries[key] = (E, V, residual, size)
                self.nbytes += size
                while self.nbytes > _CACHE_BYTES:
                    self.nbytes -= self.entries.popitem(last=False)[1][3]
        return [found[key] for key in keys]


_SPECTRA = _SpectrumCache()


def build_gibbs(params: ModelParams, interacting: bool,
                cutoff: CutoffProfile) -> GibbsStateBlocks:
    """Assemble and diagonalize the sectors the cutoff charges, then normalize.

    Sector energies are spec((H_0 - W/tau^2)/tau); the interaction is
    omitted in the free case.  The cutoff is evaluated once, on the grid
    n/tau for n = 0..n_max + 1, and the state is built on the sectors
    0..n_top, n_top the last n with cutoff(n/tau) > 0.  Cutoffs are
    non-increasing, so every one of those sectors is charged.  Raises,
    before any sector is built, InvalidConfigError when the cutoff is still
    positive at (n_max + 1)/tau, the one point that shows a truncation
    dropping weight, and ResourceLimitError when sector n_top is bigger
    than `params.sector_dim_cap`.

    Interacting sectors n >= 3 come from the per-process spectrum cache,
    keyed by (k_max, n, tau, eps): a second state at the same tau and eps,
    whatever its cutoff or n_max, re-solves none of the sectors it shares
    with the first.  The sectors the cache misses are solved together, in
    batches with one eigh call per block size (see `_eigendecompose`).
    Their energies and vectors are read-only and shared between the
    states; the cache keeps at most 256 MiB of them (see the module
    docstring).
    """
    tau = params.tau
    fvals = cutoff(np.arange(params.n_max + 2) / tau)
    if fvals[-1] > 0.0:
        raise InvalidConfigError(
            f"cutoff is {float(fvals[-1])} > 0 at (n_max + 1)/tau; "
            f"n_max = {params.n_max} at tau = {tau} would drop weight")
    n_top = int(np.max(np.flatnonzero(fvals > 0.0), initial=0))
    dim_top = fock.sector_dimension(params.k_max, n_top)
    if dim_top > params.sector_dim_cap:
        raise ResourceLimitError(
            f"sector (k_max={params.k_max}, n={n_top}) has dimension {dim_top} "
            f"> cap {params.sector_dim_cap}"
        )
    bases = [fock.enumerate_sector(params.k_max, n) for n in range(n_top + 1)]
    diagonal = 3 if interacting else len(bases)  # the sectors the occupation basis diagonalizes
    spectra = [(fock.kinetic_diagonal(b) / tau, sparse.eye_array(b.dim, format="csc"), 0.0)
               for b in bases[:diagonal]] + _SPECTRA.spectra(bases[diagonal:], tau, params.eps)
    blocks = [SectorBlock(n=n, basis=basis, energies=E, vectors=V, cutoff_value=float(fvals[n]),
                          residual=residual)
              for n, (basis, (E, V, residual)) in enumerate(zip(bases, spectra))]
    Z = sum(blk.weight for blk in blocks)
    if not Z > 0:
        raise NumericalFailureError("Gibbs normalization vanished; check the cutoff")
    return GibbsStateBlocks(params=params, interacting=interacting, cutoff=cutoff,
                            blocks=tuple(blocks), Z=Z)


# ------------------------------------------------------------------
# free reference state: a product over modes, no sector enumeration
# ------------------------------------------------------------------

def free_sector_weights(k_max: int, tau: float, n_max: int) -> np.ndarray:
    """Z_n = sum over occupations with total n of prod_k e^{-lambda_k n_k / tau},
    for n = 0..n_max.

    One geometric series q_k^n, q_k = e^{-lambda_k/tau} < 1, per mode,
    convolved and truncated: the free trace is a product over modes.  The
    cutoff-free total is prod_k (1 - q_k)^{-1}, so a free trace needs no
    truncated tail.  Raises InvalidConfigError for a tau that is not finite
    and positive, or a negative k_max or n_max.
    """
    if not (math.isfinite(tau) and tau > 0.0 and k_max >= 0 and n_max >= 0):
        raise InvalidConfigError(
            f"need finite tau > 0, k_max >= 0 and n_max >= 0, got {tau}, {k_max}, {n_max}")
    n = np.arange(n_max + 1)
    z = (n == 0).astype(float)
    for qk in np.exp(-eigenvalues(k_max) / tau):
        z = np.convolve(z, qk**n)[: n_max + 1]
    return z


def reduced_density_matrix(blocks: GibbsStateBlocks, k: int, scaled: bool = False):
    """k-particle reduced density matrix (k = 1 or 2) of a block state.

    Unscaled entries follow Tr(adag... a... Gamma); `scaled` multiplies by
    k!/tau^k, the normalization under which the classical moment matrices
    appear in the semiclassical limit.  The k = 1 matrix is diagonal, the
    mean occupations <n_i>, since every eigenvector carries one total
    momentum (see `fock.one_body_matrix`).  The k = 2 matrix is expressed in
    the orthonormal pair basis (i <= j) of the two-particle symmetric
    space.
    """
    if k not in (1, 2):
        raise UnsupportedOrderError(f"reduced density matrices support k in {{1,2}}, got {k}")
    tau = blocks.params.tau
    if k == 1:
        G = fock.one_body_matrix(blocks.sector_items())
        return (math.factorial(1) / tau) * G if scaled else G

    # M[(i,j),(k,l)] = <a_i a_j psi, a_k a_l psi> on the pair basis (i <= j)
    M = fock.ladder_gram(blocks.sector_items(), 2)
    return (math.factorial(2) / tau**2) * M if scaled else M


def particle_moment(blocks: GibbsStateBlocks, ell: int) -> float:
    """Mean of (N/tau)^ell under the normalized state."""
    if ell < 0:
        raise UnsupportedOrderError(f"moment order must be >= 0, got {ell}")
    probs = blocks.sector_probabilities()
    ns = np.array([b.n for b in blocks.blocks], dtype=float)
    return float(np.dot((ns / blocks.params.tau) ** ell, probs))


def relative_entropy(state: GibbsStateBlocks, reference: GibbsStateBlocks) -> float:
    """Tr[ Gamma (log Gamma - log Gamma') ] for block states on one window.

    Each sector adds sum_ij p_i |O_ij|^2 (log p_i - log q_j) over the
    stored entries of the overlap O_ij = <psi_i, phi_j>, one term per
    entry, so the small differences of nearly equal logs never cancel
    against O(1) sums.  This relies on each side's columns spanning its
    sector, so that sum_j |O_ij|^2 = 1.  A sector the state carries weight
    on and the reference does not hold, or holds with cutoff value 0 (it lies
    past the reference cutoff's support), raises SupportMismatchError; sectors
    where the state itself has zero weight are skipped (0 log 0 = 0).
    """
    if state.params.k_max != reference.params.k_max:
        raise SupportMismatchError("states live on different mode windows")
    ref_by_n = {b.n: b for b in reference.blocks}
    total = 0.0
    for b in state.blocks:
        if b.weight == 0.0:
            continue
        rb = ref_by_n.get(b.n)
        if rb is None or rb.cutoff_value == 0.0:
            raise SupportMismatchError(
                f"state charges sector n={b.n} outside the reference support"
            )
        p = b.boltzmann / state.Z
        logp = np.log(np.where(p > 0, p, 1.0))
        logq = -rb.energies + math.log(rb.cutoff_value) - math.log(reference.Z)
        overlap = (b.vectors.T @ rb.vectors).tocoo()  # <psi_i, phi_j>, block-sparse
        i, j = overlap.row, overlap.col
        total += float(np.sum(p[i] * overlap.data**2 * (logp[i] - logq[j])))
    return total
