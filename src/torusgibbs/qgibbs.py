"""Grand-canonical Gibbs states on the truncated Fock space.

A state is block-diagonal over particle sectors because the Hamiltonian
commutes with the number operator.  Each block is stored through its
eigendecomposition; Gibbs weights are exp(-E) * cutoff(n/tau) with E the
spectrum of H_tau = H_0/tau - W/tau^3 restricted to the sector.  H_tau also
conserves total momentum, so each sector is diagonalized one momentum block
at a time, and its eigenvectors are stored as one sparse array whose
columns hold their block's rows only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from . import fock
from .errors import (
    NumericalFailureError,
    ResourceLimitError,
    SupportMismatchError,
    UnsupportedOrderError,
)
from .model import CutoffProfile, KernelSpec, ModelParams, eigenvalues

__all__ = [
    "GibbsStateBlocks",
    "FreeProductState",
    "build_gibbs",
    "reduced_density_matrix",
    "particle_moment",
    "relative_entropy",
    "free_sector_weights",
    "certified_free_nmax",
]


@dataclass(frozen=True)
class SectorBlock:
    """Eigendecomposition of one sector Hamiltonian plus its Gibbs weight.

    vectors is a real column-orthonormal scipy.sparse.csc_array whose
    column i is the eigenvector of energies[i], stored on the rows of its
    total-momentum block in ascending order.  Sectors diagonal in the
    occupation basis (free Hamiltonians, and n < 3 with the interaction)
    carry the identity, with energies in basis order; sectors outside the
    cutoff support carry an empty (dim, 0) array.
    """

    n: int
    basis: fock.SectorBasis
    energies: np.ndarray
    vectors: sparse.csc_array
    cutoff_value: float

    @property
    def boltzmann(self) -> np.ndarray:
        return np.exp(-self.energies) * self.cutoff_value

    @property
    def weight(self) -> float:
        return float(np.sum(self.boltzmann))


@dataclass(frozen=True)
class GibbsStateBlocks:
    """Normalized block-diagonal Gibbs state with cached spectral data."""

    params: ModelParams
    interacting: bool
    cutoff: CutoffProfile
    blocks: tuple
    Z: float  # Tr( e^{-H_tau} f(N/tau) ) over the retained sectors

    def sector_probabilities(self) -> np.ndarray:
        """Probability of each particle sector n = 0..n_max."""
        return np.array([b.weight for b in self.blocks]) / self.Z

    def sector_items(self):
        """Iterate (basis, spectral probabilities, vectors) over the blocks."""
        for b in self.blocks:
            yield b.basis, b.boltzmann / self.Z, b.vectors

    @property
    def max_charged_sector(self) -> int:
        idx = [b.n for b in self.blocks if b.weight > 0.0]
        return max(idx) if idx else 0


def _eigendecompose(H: np.ndarray, momenta: np.ndarray,
                    n: int) -> tuple[np.ndarray, sparse.csc_array]:
    """Eigenpairs of a sector Hamiltonian that conserves total momentum:
    one dense eigh per momentum block, blocks in ascending momentum.  Each
    block's eigenvectors become columns stored on the block's rows.

    Every eigenpair is checked against the whole sector matrix, so a
    coupling between blocks would show as a residual too.
    """
    order = np.argsort(momenta, kind="stable")  # rows grouped by ascending momentum
    blocks = np.split(order, np.flatnonzero(np.diff(momenta[order])) + 1)
    energies, data = [], []
    scale = max(1.0, float(H.max()), -float(H.min()))
    for rows in blocks:
        H_rows = H[rows]
        e, v = np.linalg.eigh(H_rows[:, rows])
        R = H_rows.T @ v  # H is symmetric: the block's columns of the whole sector
        R[rows] -= v * e
        res = float(np.linalg.norm(R, axis=0).max())
        if res > 1e-9 * scale * math.sqrt(len(rows)):
            raise NumericalFailureError(
                f"eigensolve residual {res:.2e} in sector n={n}, "
                f"momentum {momenta[rows[0]]} (scale {scale:.2e})"
            )
        energies.append(e)
        data.append(v.T.ravel())  # column by column
    # a block of m states has m columns, each stored on the block's m rows
    sizes = [len(rows) for rows in blocks]
    indptr = np.concatenate(([0], np.cumsum(np.repeat(sizes, sizes))))
    indices = np.concatenate([rows for rows in blocks for _ in rows])
    V = sparse.csc_array((np.concatenate(data), indices, indptr), shape=H.shape)
    return np.concatenate(energies), V


def build_gibbs(
    params: ModelParams,
    interacting: bool,
    cutoff: CutoffProfile,
    kernel: KernelSpec | None = None,
) -> GibbsStateBlocks:
    """Assemble and diagonalize every retained sector, then normalize.

    Sector energies are spec((H_0 - W/tau^2)/tau); the interaction is
    omitted in the free case.  Sectors whose cutoff value is exactly zero
    carry no spectral data (they are outside the state's support).  Raises
    ResourceLimitError, before any work, when the largest sector n_max is
    bigger than `params.sector_dim_cap`.
    """
    if kernel is None:
        kernel = KernelSpec.box()
    tau = params.tau
    dim_top = fock.sector_dimension(params.k_max, params.n_max)
    if dim_top > params.sector_dim_cap:
        raise ResourceLimitError(
            f"sector (k_max={params.k_max}, n={params.n_max}) has dimension {dim_top} "
            f"> cap {params.sector_dim_cap}"
        )
    blocks = []
    Z = 0.0
    for n in range(params.n_max + 1):
        fval = float(cutoff(n / tau))
        basis = fock.enumerate_sector(params.k_max, n)
        if fval == 0.0:
            blocks.append(SectorBlock(n=n, basis=basis, energies=np.empty(0),
                                      vectors=sparse.csc_array((basis.dim, 0)),
                                      cutoff_value=0.0))
            continue
        kin = fock.kinetic_diagonal(basis)
        if interacting and n >= 3:
            H = fock.assemble_interaction(basis, kernel, params.eps)
            H /= -tau**3
            H[np.diag_indices(basis.dim)] += kin / tau
            E, V = _eigendecompose(H, basis.momenta, n)
        else:
            E, V = kin / tau, sparse.eye_array(basis.dim, format="csc")
        blk = SectorBlock(n=n, basis=basis, energies=E, vectors=V, cutoff_value=fval)
        blocks.append(blk)
        Z += blk.weight
    if not Z > 0:
        raise NumericalFailureError("Gibbs normalization vanished; check the cutoff")
    return GibbsStateBlocks(params=params, interacting=interacting, cutoff=cutoff,
                            blocks=tuple(blocks), Z=Z)


# ------------------------------------------------------------------
# free reference state: product structure, no sector enumeration
# ------------------------------------------------------------------

def free_sector_weights(k_max: int, tau: float, n_max: int) -> np.ndarray:
    """Z_n = sum over occupations with total n of prod_k e^{-lambda_k n_k / tau}.

    Sequential convolution with one geometric series per mode, run as an
    IIR filter; O(J * n_max) and numerically benign since all q_k < 1.
    """
    from scipy.signal import lfilter

    q = np.exp(-eigenvalues(k_max) / tau)
    z = np.zeros(n_max + 1)
    z[0] = 1.0
    for qk in q:
        z = lfilter([1.0], [1.0, -qk], z)
    return z


def certified_free_nmax(k_max: int, tau: float, tol: float = 1e-12) -> int:
    """Smallest n_max whose neglected free tail is provably below tol * Z.

    Tail bound: Z_n <= C(n+J-1, J-1) * q0^n with q0 the slowest mode weight;
    the geometric-with-polynomial tail is summed in closed bound form.
    """
    J = 2 * k_max + 1
    q0 = math.exp(-0.5 / tau)
    Z_exact = float(np.prod(1.0 / (1.0 - np.exp(-eigenvalues(k_max) / tau))))
    n = max(8, int(tau))
    while True:
        ratio = q0 * (n + 1 + J) / (n + 2)
        if ratio < 1.0:
            head = math.comb(n + J, J - 1) * q0 ** (n + 1)
            tail = head / (1.0 - ratio)
            if tail <= tol * Z_exact:
                return n
        n = int(1.3 * n) + 8
        if n > 10**9:
            raise NumericalFailureError("free tail certification did not converge")


@dataclass(frozen=True)
class FreeProductState:
    """Free Gibbs state in product form: sector weights only, no bases.

    Scales to huge n_max (tau up to 1e6) because nothing is enumerated;
    per-sector weights come from geometric-series convolutions.
    """

    k_max: int
    tau: float
    cutoff: CutoffProfile
    n_max: int
    sector_weights: np.ndarray = field(repr=False, default=None)

    @staticmethod
    def build(k_max: int, tau: float, cutoff: CutoffProfile | None = None,
              n_max: int | None = None) -> "FreeProductState":
        if cutoff is None:
            cutoff = CutoffProfile.one()
        if n_max is None:
            bound = cutoff.support_bound
            if bound is not None:
                n_max = int(math.floor(bound * tau))
            else:
                n_max = certified_free_nmax(k_max, tau)
        z = free_sector_weights(k_max, tau, n_max)
        return FreeProductState(k_max=k_max, tau=tau, cutoff=cutoff,
                                n_max=n_max, sector_weights=z)

    @property
    def partition(self) -> float:
        """Tr( e^{-H_{tau,0}} f(N/tau) ) over the retained sectors."""
        f = self.cutoff(np.arange(self.n_max + 1) / self.tau)
        return float(np.dot(f, self.sector_weights))

    @property
    def partition_product_formula(self) -> float:
        """Closed form prod_k (1 - e^{-lambda_k/tau})^{-1}, cutoff-free."""
        return float(np.prod(1.0 / (1.0 - np.exp(-eigenvalues(self.k_max) / self.tau))))

    def particle_moment(self, ell: int) -> float:
        ns = np.arange(self.n_max + 1)
        f = self.cutoff(ns / self.tau)
        return float(np.dot((ns / self.tau) ** ell * f, self.sector_weights) / self.partition)


def reduced_density_matrix(blocks: GibbsStateBlocks, k: int, scaled: bool = False):
    """k-particle reduced density matrix (k = 1 or 2) of a block state.

    Unscaled entries follow Tr(adag... a... Gamma); `scaled` multiplies by
    k!/tau^k, the normalization under which the classical moment matrices
    appear in the semiclassical limit.  The k = 2 matrix is expressed in
    the orthonormal pair basis (i <= j) of the two-particle symmetric
    space.
    """
    if k not in (1, 2):
        raise UnsupportedOrderError(f"reduced density matrices support k in {{1,2}}, got {k}")
    tau = blocks.params.tau
    if k == 1:
        G = fock.one_body_matrix(blocks.sector_items())
        return (math.factorial(1) / tau) * G if scaled else G

    J = blocks.params.J
    pairs = [(i, j) for i in range(J) for j in range(i, J)]
    nu = np.array([math.sqrt(2.0) if i == j else 1.0 for (i, j) in pairs])
    # M[(i,j),(k,l)] = <a_k a_l psi, a_i a_j psi>, normalized to the pair basis
    M = fock.ladder_gram(blocks.sector_items(), pairs) / np.outer(nu, nu)
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
    sector, so that sum_j |O_ij|^2 = 1.  Sectors where the reference
    cutoff vanishes while the state carries weight raise
    SupportMismatchError; sectors where the state itself has zero weight
    are skipped (0 log 0 = 0).
    """
    if state.params.k_max != reference.params.k_max:
        raise SupportMismatchError("states live on different mode windows")
    ref_by_n = {b.n: b for b in reference.blocks}
    total = 0.0
    for b in state.blocks:
        if b.cutoff_value == 0.0 or b.weight == 0.0:
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
