"""Grand-canonical Gibbs states on the truncated Fock space.

A state is block-diagonal over particle sectors because the Hamiltonian
commutes with the number operator.  Each block is stored through its
eigendecomposition; Gibbs weights are exp(-E) * cutoff(n/tau) with E the
spectrum of H_tau = H_0/tau - W/tau^3 restricted to the sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter

from . import fock
from .errors import (
    NumericalFailureError,
    SupportMismatchError,
    UnsupportedOrderError,
)
from .model import CutoffProfile, KernelSpec, ModelParams, eigenvalues

__all__ = [
    "GibbsStateBlocks",
    "FreeProductState",
    "build_gibbs",
    "relative_partition",
    "reduced_density_matrix",
    "particle_moment",
    "relative_entropy",
    "free_sector_weights",
    "certified_free_nmax",
]


@dataclass(frozen=True)
class SectorBlock:
    """Eigendecomposition of one sector Hamiltonian plus its Gibbs weight.

    vectors is None for blocks that are diagonal in the occupation basis
    (free Hamiltonians); energies are then the diagonal itself.
    """

    n: int
    basis: fock.SectorBasis
    energies: np.ndarray
    vectors: np.ndarray | None
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


def _eigendecompose(H: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    E, V = np.linalg.eigh(H)
    # spot-check residuals on a few eigenpairs
    dim = H.shape[0]
    scale = max(1.0, float(np.abs(H).max()))
    picks = np.linspace(0, dim - 1, num=min(5, dim), dtype=int)
    for i in picks:
        res = np.linalg.norm(H @ V[:, i] - E[i] * V[:, i])
        if res > 1e-9 * scale * math.sqrt(dim):
            raise NumericalFailureError(
                f"eigensolve residual {res:.2e} in sector n={n} (scale {scale:.2e})"
            )
    return E, V


def build_gibbs(
    params: ModelParams,
    interacting: bool,
    cutoff: CutoffProfile,
    kernel: KernelSpec | None = None,
) -> GibbsStateBlocks:
    """Assemble and diagonalize every retained sector, then normalize.

    Sector energies are spec((H_0 - W/tau^2)/tau); the interaction is
    omitted in the free case.  Sectors whose cutoff value is exactly zero
    carry no spectral data (they are outside the state's support).
    """
    if kernel is None:
        kernel = KernelSpec.box()
    tau = params.tau
    blocks = []
    Z = 0.0
    for n in range(params.n_max + 1):
        fval = float(cutoff(n / tau))
        basis = fock.enumerate_sector(params.k_max, n, params.sector_dim_cap)
        if fval == 0.0:
            blocks.append(SectorBlock(n=n, basis=basis, energies=np.empty(0),
                                      vectors=None, cutoff_value=0.0))
            continue
        kin = fock.kinetic_diagonal(basis)
        if interacting and n >= 3:
            W = fock.assemble_interaction(basis, kernel, params.eps)
            H = np.diag(kin / tau) - W / tau**3
            E, V = _eigendecompose(H, n)
        else:
            E, V = kin / tau, None
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
    q = np.exp(-eigenvalues(k_max) / tau)
    z = np.zeros(n_max + 1)
    z[0] = 1.0
    for qk in q:
        z = lfilter([1.0], [1.0, -qk], z)
    return z


def free_mode_weighted_sums(k_max: int, tau: float, n_max: int) -> np.ndarray:
    """W[k, n] = sum over occupations with total n of n_k * prod e^{-lambda n / tau}.

    Used for one-body occupancies of the free state under a mass cutoff:
    the generating function gains one extra geometric factor in mode k.
    """
    q = np.exp(-eigenvalues(k_max) / tau)
    z = free_sector_weights(k_max, tau, n_max)
    out = np.zeros((len(q), n_max + 1))
    for i, qk in enumerate(q):
        extra = lfilter([1.0], [1.0, -qk], z)
        out[i, 1:] = qk * extra[:-1]
    return out


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
              n_max: int | None = None, tail_tol: float = 1e-12) -> "FreeProductState":
        if cutoff is None:
            cutoff = CutoffProfile.one()
        if n_max is None:
            bound = cutoff.support_bound
            if bound is not None:
                n_max = int(math.floor(bound * tau))
            else:
                n_max = certified_free_nmax(k_max, tau, tail_tol)
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

    def cutoff_expectation(self) -> float:
        """Tr( Gamma_{tau,0} f(N/tau) ) with the cutoff-free normalization."""
        return self.partition / self.partition_product_formula

    def one_body_diagonal(self) -> np.ndarray:
        """Diagonal of Tr(adag_k a_k Gamma) under the cutoff-reweighted state."""
        f = self.cutoff(np.arange(self.n_max + 1) / self.tau)
        W = free_mode_weighted_sums(self.k_max, self.tau, self.n_max)
        return (W @ f) / self.partition

    def particle_moment(self, ell: int) -> float:
        ns = np.arange(self.n_max + 1)
        f = self.cutoff(ns / self.tau)
        return float(np.dot((ns / self.tau) ** ell * f, self.sector_weights) / self.partition)


def relative_partition(
    params: ModelParams,
    cutoff: CutoffProfile,
    interacting: bool = True,
    kernel: KernelSpec | None = None,
) -> float:
    """Partition function of the (cutoff, possibly interacting) state divided
    by the cutoff-free free partition function at the same mode window.

    The denominator is summed over sectors up to a certified geometric
    tail < 1e-12 and cross-checked against the closed product formula.
    """
    num = build_gibbs(params, interacting, cutoff, kernel).Z
    free = FreeProductState.build(params.k_max, params.tau, CutoffProfile.one(),
                                  tail_tol=1e-12)
    denom = free.partition
    exact = free.partition_product_formula
    if abs(denom - exact) > 1e-9 * exact:
        raise NumericalFailureError(
            f"free partition sum {denom!r} disagrees with product formula {exact!r}"
        )
    return num / denom


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

    Sectors where the reference cutoff vanishes while the state carries
    weight raise SupportMismatchError; sectors where the state itself has
    zero weight are skipped (0 log 0 = 0).
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
        logq = -rb.energies + math.log(rb.cutoff_value) - math.log(reference.Z)
        total += float(np.dot(p, np.log(np.where(p > 0, p, 1.0))))
        if b.vectors is None and rb.vectors is None:
            total -= float(np.dot(p, logq))
        else:
            V = b.vectors if b.vectors is not None else np.eye(b.basis.dim)
            U = rb.vectors if rb.vectors is not None else np.eye(rb.basis.dim)
            overlap_sq = np.abs(V.T.conj() @ U) ** 2  # |<psi_i, phi_j>|^2
            total -= float(p @ overlap_sq @ logq)
    return total
