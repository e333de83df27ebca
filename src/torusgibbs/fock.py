"""Occupation-number bases and second-quantized operators on truncated sectors.

A sector is the n-particle symmetric subspace over the 2*k_max+1 retained
plane-wave modes.  States are occupation vectors (n_{-k_max}, ..., n_{k_max});
operators are dense real-symmetric matrices in the sector basis ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ResourceLimitError
from .model import KernelSpec, eigenvalues, kernel_fourier_table, mode_numbers

__all__ = [
    "SectorBasis",
    "SectorOperator",
    "sector_dimension",
    "enumerate_sector",
    "ladder_matrix_element",
    "kinetic_diagonal",
    "assemble_interaction",
    "one_body_matrix",
]


def sector_dimension(k_max: int, n: int) -> int:
    """Number of occupation states: C(n + J - 1, J - 1) with J = 2*k_max + 1."""
    J = 2 * k_max + 1
    return math.comb(n + J - 1, J - 1)


@dataclass(frozen=True)
class SectorBasis:
    """Deterministically ordered occupation basis of one particle sector.

    occupations : (dim, J) int array, rows in lexicographic order.
    index       : occupation tuple -> row position.
    """

    k_max: int
    n: int
    occupations: np.ndarray
    index: dict = field(repr=False, compare=False, default_factory=dict)

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]

    @property
    def J(self) -> int:
        return 2 * self.k_max + 1

    @property
    def modes(self) -> np.ndarray:
        return mode_numbers(self.k_max)

    @property
    def momenta(self) -> np.ndarray:
        """Total momentum sum_k k*n_k of every basis state."""
        return self.occupations @ self.modes

    def lookup(self, occ) -> int:
        return self.index[tuple(int(m) for m in occ)]


@dataclass(frozen=True)
class SectorOperator:
    """Hermitian matrix on one particle sector, in SectorBasis ordering."""

    n: int
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def hermiticity_defect(self) -> float:
        m = self.matrix
        scale = max(1.0, float(np.abs(m).max()))
        return float(np.abs(m - m.conj().T).max()) / scale


@lru_cache(maxsize=None)
def enumerate_sector(k_max: int, n: int, dim_cap: int = 5000) -> SectorBasis:
    """All occupation vectors with total n over modes |k| <= k_max.

    Raises ResourceLimitError when the stars-and-bars count exceeds dim_cap.
    """
    if n < 0:
        raise ValueError(f"sector index must be >= 0, got {n}")
    J = 2 * k_max + 1
    dim = sector_dimension(k_max, n)
    if dim > dim_cap:
        raise ResourceLimitError(
            f"sector (k_max={k_max}, n={n}) has dimension {dim} > cap {dim_cap}"
        )
    rows = np.empty((dim, J), dtype=np.int64)
    row = 0

    def rec(prefix, remaining, slots):
        nonlocal row
        if slots == 1:
            rows[row, : len(prefix)] = prefix
            rows[row, -1] = remaining
            row += 1
            return
        for m in range(remaining + 1):
            rec(prefix + [m], remaining - m, slots - 1)

    if J == 1:
        rows[0, 0] = n
    else:
        rec([], n, J)
    index = {tuple(int(v) for v in r): i for i, r in enumerate(rows)}
    return SectorBasis(k_max=k_max, n=n, occupations=rows, index=index)


def ladder_matrix_element(state, mode_pos: int, kind: str):
    """Apply one creation/annihilation operator to an occupation vector.

    `mode_pos` indexes the mode window (0 .. J-1), not the physical k.
    Returns (new_occupations or None, amplitude); annihilating an empty
    mode returns (None, 0.0).
    """
    occ = np.asarray(state)
    if kind == "create":
        amp = math.sqrt(occ[mode_pos] + 1.0)
        out = occ.copy()
        out[mode_pos] += 1
        return out, amp
    if kind == "annihilate":
        if occ[mode_pos] == 0:
            return None, 0.0
        amp = math.sqrt(occ[mode_pos])
        out = occ.copy()
        out[mode_pos] -= 1
        return out, amp
    raise ValueError(f"kind must be 'create' or 'annihilate', got {kind!r}")


def kinetic_diagonal(basis: SectorBasis) -> np.ndarray:
    """Diagonal of the free energy sum_k lambda_k * n_k in the sector basis."""
    return basis.occupations @ eigenvalues(basis.k_max)


def assemble_interaction(basis: SectorBasis, spec: KernelSpec, eps: float) -> SectorOperator:
    """Second-quantized three-body attraction on one sector.

    Normal-ordered accumulation of
        (1/3!) * sum  V * adag_{k1} adag_{k2} adag_{k3} a_{k4} a_{k5} a_{k6}
    over ordered mode sextuples with k1+k2+k3 = k4+k5+k6 and momentum-space
    vertex V = w_hat(eps*(k5-k2)) * w_hat(eps*(k6-k3)).  The vertex formula
    is locked to a position-space quadrature oracle in the test suite; do
    not retune factors against anything else.
    """
    n, J = basis.n, basis.J
    dim = basis.dim
    if n < 3:
        return SectorOperator(n=n, matrix=np.zeros((dim, dim)))

    k_max = basis.k_max
    wtab = kernel_fourier_table(spec, eps, 2 * k_max)  # index by m + 2*k_max
    off = 2 * k_max
    H = np.zeros((dim, dim))
    occs = basis.occupations
    index = basis.index

    for col in range(dim):
        base = occs[col]
        # ordered annihilation triples (positions p4, p5, p6)
        for p6 in range(J):
            n6 = base[p6]
            if n6 == 0:
                continue
            a6 = math.sqrt(n6)
            s6 = base.copy()
            s6[p6] -= 1
            for p5 in range(J):
                n5 = s6[p5]
                if n5 == 0:
                    continue
                a5 = a6 * math.sqrt(n5)
                s5 = s6.copy()
                s5[p5] -= 1
                for p4 in range(J):
                    n4 = s5[p4]
                    if n4 == 0:
                        continue
                    amp_a = a5 * math.sqrt(n4)
                    s4 = s5.copy()
                    s4[p4] -= 1
                    ksum = (p4 + p5 + p6) - 3 * k_max  # total annihilated momentum
                    # ordered creation triples with momentum conservation
                    for p1 in range(J):
                        k1 = p1 - k_max
                        for p2 in range(J):
                            k2 = p2 - k_max
                            k3 = ksum - k1 - k2
                            if k3 < -k_max or k3 > k_max:
                                continue
                            v = wtab[(p5 - p2) + off] * wtab[(p6 - k3 - k_max) + off]
                            if v == 0.0:
                                continue
                            p3 = k3 + k_max
                            t = s4.copy()
                            t[p3] += 1
                            b3 = math.sqrt(t[p3])
                            t[p2] += 1
                            b2 = math.sqrt(t[p2])
                            t[p1] += 1
                            b1 = math.sqrt(t[p1])
                            row = index[tuple(t)]
                            H[row, col] += v * amp_a * b1 * b2 * b3 / 6.0

    return SectorOperator(n=n, matrix=H)


def annihilation_map(basis: SectorBasis, basis_down: SectorBasis, mode_pos: int):
    """Sparse action of a_{mode} : sector n -> sector n-1.

    Returns (rows_down, cols, amps) triplets for the nonzero entries.
    """
    occs = basis.occupations
    keep = occs[:, mode_pos] > 0
    cols = np.nonzero(keep)[0]
    amps = np.sqrt(occs[cols, mode_pos].astype(float))
    lowered = occs[cols].copy()
    lowered[:, mode_pos] -= 1
    rows = np.fromiter(
        (basis_down.index[tuple(r)] for r in lowered), dtype=np.int64, count=len(cols)
    )
    return rows, cols, amps


def apply_annihilation(vec: np.ndarray, basis: SectorBasis, basis_down: SectorBasis,
                       mode_pos: int) -> np.ndarray:
    """a_{mode} applied to a sector-n coefficient vector."""
    rows, cols, amps = annihilation_map(basis, basis_down, mode_pos)
    out = np.zeros(basis_down.dim, dtype=vec.dtype)
    np.add.at(out, rows, amps * vec[cols])
    return out


def apply_creation(vec: np.ndarray, basis: SectorBasis, basis_up: SectorBasis,
                   mode_pos: int) -> np.ndarray:
    """adag_{mode} applied to a sector-n coefficient vector."""
    rows, cols, amps = annihilation_map(basis_up, basis, mode_pos)
    out = np.zeros(basis_up.dim, dtype=vec.dtype)
    # adag is the transpose of the a map one sector up
    np.add.at(out, cols, amps * vec[rows])
    return out


def one_body_matrix(sector_items) -> np.ndarray:
    """One-body matrix G_{ij} = Tr(adag_j a_i  Gamma) of a block state.

    `sector_items` iterates over (basis, probs, vectors) with `probs` the
    spectral weights of the sector block and `vectors` the matching
    orthonormal columns (None means the occupation basis itself).  The
    result is PSD with trace equal to the mean particle number.
    """
    G = None
    for basis, probs, vectors in sector_items:
        J = basis.J
        if G is None:
            G = np.zeros((J, J), dtype=complex)
        if basis.n == 0 or not np.any(probs):
            continue
        down = enumerate_sector(basis.k_max, basis.n - 1)
        maps = [annihilation_map(basis, down, p) for p in range(J)]
        if vectors is None:
            # occupation-diagonal block: G is diagonal with <n_i>
            G += np.diag(probs @ basis.occupations)
            continue
        for w, psi in zip(probs, vectors.T):
            if w == 0.0:
                continue
            lowered = np.zeros((down.dim, J), dtype=complex)
            for p, (rows, cols, amps) in enumerate(maps):
                np.add.at(lowered[:, p], rows, amps * psi[cols])
            # G_{ij} = <a_j psi, a_i psi>  ->  (L^H L) transposed
            G += w * (lowered.conj().T @ lowered).T
    if G is None:
        return np.zeros((0, 0))
    if np.abs(G.imag).max() < 1e-13 * max(1.0, np.abs(G.real).max()):
        return np.ascontiguousarray(G.real)
    return G
