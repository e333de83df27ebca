"""Occupation-number bases and second-quantized operators on truncated sectors.

A sector is the n-particle symmetric subspace over the 2*k_max+1 retained
plane-wave modes.  States are occupation vectors (n_{-k_max}, ..., n_{k_max})
in lexicographic order, and `SectorBasis.rank` finds the row of any of them
by counting, with no lookup table.  Operators act in that row order: the
interaction is a dense real-symmetric matrix, and the ladder operators are
cached sparse arrays, one `annihilation_map` per (k_max, n, mode) whose
transpose is the creator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import sparse

from .model import KernelSpec, eigenvalues, kernel_fourier_table, mode_numbers

__all__ = [
    "SectorBasis",
    "sector_dimension",
    "enumerate_sector",
    "kinetic_diagonal",
    "assemble_interaction",
    "ladder_gram",
    "one_body_matrix",
]


def sector_dimension(k_max: int, n: int) -> int:
    """Number of occupation states: C(n + J - 1, J - 1) with J = 2*k_max + 1."""
    J = 2 * k_max + 1
    return math.comb(n + J - 1, J - 1)


def _lex_rank(n: int, J: int, shape: tuple, tail) -> np.ndarray:
    """Rows, in the lexicographic basis of sector n over J modes, of the
    occupation vectors x whose tail sums x_i + ... + x_{J-1} are tail(i).

    A vector y comes after x exactly when, at the first position i - 1 where
    the two differ, y is larger, so that its tail from position i holds
    fewer than R_i = tail(i) particles.  There are C(R_i + k - 1, k) such
    tails over the last k = J - i modes, and the row of x is dim - 1 minus
    their sum over i = 1..J-1 (the combinatorial number system).
    """
    rank = np.full(shape, math.comb(n + J - 1, J - 1) - 1, dtype=np.int64)
    for i in range(1, J):
        k = J - i
        fewer = np.array([math.comb(R + k - 1, k) for R in range(n + 1)], dtype=np.int64)
        rank -= fewer[tail(i)]
    return rank


@dataclass(frozen=True)
class SectorBasis:
    """Deterministically ordered occupation basis of one particle sector.

    occupations : (dim, J) int array, rows in lexicographic order; `rank`
                  maps occupation vectors back to their rows.
    """

    k_max: int
    n: int
    occupations: np.ndarray

    @property
    def dim(self) -> int:
        return self.occupations.shape[0]

    @property
    def J(self) -> int:
        return 2 * self.k_max + 1

    @property
    def momenta(self) -> np.ndarray:
        """Total momentum sum_k k*n_k of every basis state."""
        return self.occupations @ mode_numbers(self.k_max)

    def rank(self, occupations) -> np.ndarray:
        """Row of each occupation vector of this sector (last axis over the
        J modes, total n), vectorized over the leading axes."""
        occ = np.asarray(occupations)
        tails = np.cumsum(occ[..., ::-1], axis=-1)[..., ::-1]
        return _lex_rank(self.n, self.J, occ.shape[:-1], lambda i: tails[..., i])


@lru_cache(maxsize=None)
def enumerate_sector(k_max: int, n: int) -> SectorBasis:
    """All occupation vectors with total n over modes |k| <= k_max.

    The dimension budget is the caller's: `build_gibbs` checks
    `ModelParams.sector_dim_cap` before it enumerates anything.
    """
    if n < 0:
        raise ValueError(f"sector index must be >= 0, got {n}")
    J = 2 * k_max + 1
    # stars and bars: the J - 1 bar positions among n + J - 1 slots, in
    # lexicographic order, are the occupation vectors in lexicographic order
    bars = np.array(list(itertools.combinations(range(n + J - 1), J - 1)), dtype=np.int64)
    occupations = np.diff(bars.reshape(len(bars), J - 1), axis=1, prepend=-1,
                          append=n + J - 1) - 1
    return SectorBasis(k_max=k_max, n=n, occupations=occupations)


def kinetic_diagonal(basis: SectorBasis) -> np.ndarray:
    """Diagonal of the free energy sum_k lambda_k * n_k in the sector basis."""
    return basis.occupations @ eigenvalues(basis.k_max)


def assemble_interaction(basis: SectorBasis, spec: KernelSpec, eps: float) -> np.ndarray:
    """Second-quantized three-body attraction on one sector, as a dense
    real-symmetric matrix in the basis ordering.

    W = (1/3!) sum V adag_{k1} adag_{k2} adag_{k3} a_{k4} a_{k5} a_{k6} over
    ordered mode sextuples with k1+k2+k3 = k4+k5+k6 and momentum-space
    vertex V = w_hat(eps*(k5-k2)) * w_hat(eps*(k6-k3)).  The vertex formula
    is locked to a position-space quadrature oracle in the test suite; do
    not retune factors against anything else.

    Grouped by 3-mode multisets m (the rows of the n = 3 basis), W is
    sum C[m, m'] A_m^dag A_m' with A_m = prod_{k in m} a_k and
    C = S^T V S / 3!, S the ordered-triple-to-multiset map.  For each state
    r of sector n - 3, W[r+m, r+m'] += C[m, m'] amp(r, m) amp(r, m') with
    amp(r, m) = prod_k sqrt((r_k + 1) ... (r_k + m_k)); one bincount sums
    these over r and the nonzero C[m, m'] in a fixed order.
    """
    n, J, dim, k_max = basis.n, basis.J, basis.dim, basis.k_max
    if n < 3:
        return np.zeros((dim, dim))
    triples = enumerate_sector(k_max, 3)
    wtab = kernel_fourier_table(spec, eps, 2 * k_max)  # index by m + 2*k_max
    pos = np.indices((J, J, J)).reshape(3, -1)  # ordered triples of mode positions
    V = (wtab[pos[1][None, :] - pos[1][:, None] + 2 * k_max]
         * wtab[pos[2][None, :] - pos[2][:, None] + 2 * k_max])
    total = pos.sum(axis=0)
    V[total[:, None] != total[None, :]] = 0.0  # momentum conservation
    triple_occ = np.eye(J, dtype=np.int64)[pos].sum(axis=0)  # occupations of each triple
    S = np.eye(triples.dim)[triples.rank(triple_occ)]  # ordered triple -> multiset
    C = S.T @ V @ S / 6.0
    C = 0.5 * (C + C.T)  # exactly symmetric, whatever the BLAS summation order
    m, mp = np.nonzero(C)
    lower = enumerate_sector(k_max, n - 3).occupations  # states r
    multi = triples.occupations
    # rising[x, c] = (x + 1) ... (x + c): the squared amplitude of c raisings
    rising = np.cumprod(np.arange(n + 1.0)[:, None] + np.arange(1, 4), axis=1)
    rising = np.hstack([np.ones((n + 1, 1)), rising])
    amp_sq = np.ones((len(lower), len(multi)))
    for k in range(J):
        amp_sq *= rising[lower[:, k, None], multi[None, :, k]]
    amp = np.sqrt(amp_sq)
    # rows of r + m, from the tail sums of r and m without forming r + m
    r_tails = np.cumsum(lower[:, ::-1], axis=1)[:, ::-1]
    m_tails = np.cumsum(multi[:, ::-1], axis=1)[:, ::-1]
    up = _lex_rank(n, J, amp.shape, lambda i: r_tails[:, i, None] + m_tails[None, :, i])
    flat = (up[:, m] * dim + up[:, mp]).ravel()
    vals = (amp[:, m] * amp[:, mp] * C[m, mp]).ravel()
    return np.bincount(flat, vals, minlength=dim * dim).reshape(dim, dim)


@lru_cache(maxsize=None)
def annihilation_map(k_max: int, n: int, mode_pos: int) -> sparse.csr_array:
    """a_{mode} : sector n -> sector n-1 as a (dim_{n-1}, dim_n) csr_array.

    A partial permutation scaled by sqrt(n_mode): every row and column holds
    at most one entry.  Its transpose is adag_{mode} : sector n-1 -> sector n.
    """
    occs = enumerate_sector(k_max, n).occupations
    cols = np.flatnonzero(occs[:, mode_pos])
    amps = np.sqrt(occs[cols, mode_pos].astype(float))
    lowered = occs[cols].copy()
    lowered[:, mode_pos] -= 1
    rows = enumerate_sector(k_max, n - 1).rank(lowered)
    return sparse.csr_array((amps, (rows, cols)),
                            shape=(sector_dimension(k_max, n - 1), len(occs)))


def apply_annihilation(vec: np.ndarray, k_max: int, n: int, mode_pos: int) -> np.ndarray:
    """a_{mode} applied to a sector-n coefficient vector or column block."""
    return annihilation_map(k_max, n, mode_pos) @ vec


def apply_creation(vec: np.ndarray, k_max: int, n: int, mode_pos: int) -> np.ndarray:
    """adag_{mode} applied to a sector-n coefficient vector or column block."""
    return annihilation_map(k_max, n + 1, mode_pos).T @ vec


_BLOCK_ENTRIES = 1 << 18  # entries of the stacked ladder images held at once


def ladder_gram(sector_items, order: int, create: bool = False) -> np.ndarray:
    """Gram matrix of the order-fold ladder words on the orthonormal basis
    of the order-particle symmetric space.

    The words are the mode-position tuples a = (p_1, ..., p_order) with
    p_1 <= ... <= p_order, in lexicographic order.  X_a is the product of
    the annihilators (creators if `create`) they name, and
    nu_a = sqrt(prod_p m_p!) over the multiplicities m_p of the positions
    in a is the norm of adag_{p_1} ... adag_{p_order} |0>.  `sector_items`
    iterates over (basis, probs, vectors) as in `one_body_matrix`; with the
    weighted eigenvector block W = vectors * sqrt(probs) of each sector,

        G[a, b] = sum over sectors <X_a W, X_b W>_F / (nu_a nu_b)
                = Tr(Gamma X_a^dag X_b) / (nu_a nu_b).

    W is densified once per sector and contracted in column blocks, and
    images shared by words with a common suffix are computed once per block.
    """
    items = list(sector_items)
    if not items:
        return np.zeros((0, 0))
    step, apply = (1, apply_creation) if create else (-1, apply_annihilation)
    words = list(itertools.combinations_with_replacement(range(items[0][0].J), order))
    G = np.zeros((len(words), len(words)))
    for basis, probs, vectors in items:
        k_max, n = basis.k_max, basis.n
        if n + step * order < 0 or not np.any(probs):
            continue
        W = vectors.toarray() * np.sqrt(probs)
        width = max(1, _BLOCK_ENTRIES // (len(words) * sector_dimension(k_max, n + step * order)))
        for start in range(0, W.shape[1], width):
            # images[suffix] = X_suffix W_block, built one letter at a time
            images = {(): W[:, start:start + width]}
            for d in range(1, order + 1):
                for suffix in sorted({word[order - d:] for word in words}):
                    images[suffix] = apply(images[suffix[1:]], k_max, n + step * (d - 1),
                                           suffix[0])
            S = np.stack([images[word] for word in words]).reshape(len(words), -1)
            G = G + S.conj() @ S.T
    nu = np.array([math.sqrt(math.prod(math.factorial(word.count(p)) for p in set(word)))
                   for word in words])
    return G / np.outer(nu, nu)


def one_body_matrix(sector_items) -> np.ndarray:
    """One-body matrix G_{ij} = Tr(adag_j a_i  Gamma) of a block state.

    `sector_items` iterates over (basis, probs, vectors) with `probs` the
    spectral weights of the sector block and `vectors` the matching
    orthonormal columns, a scipy.sparse array (the identity for the
    occupation basis itself).  The result is PSD with trace equal to the
    mean particle number.
    """
    # G_{ij} = <a_j psi, a_i psi>: the order-1 gram, transposed
    return np.ascontiguousarray(ladder_gram(sector_items, 1).T)
