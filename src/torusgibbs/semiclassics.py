"""Coherent states and the quantum-classical dictionary.

Everything here rides on one structure: testing a block state against the
coherent family xi(u) at scale varsigma produces a classical probability
density (the lower symbol), whose moments, tails, and relative entropies
mirror the quantum ones up to explicitly computable corrections.

The sector-n part of the coherent state xi(v) = e^{-|v|^2/2} e^{v.adag}|0>
is a Poisson(|v|^2) amplitude times the n-th tensor power of d = v/|v|,
which is n^{-1/2} (d.adag) applied to the (n-1)-th: `husimi_density_batch`
walks the sectors upward on that recurrence and weighs each by its Poisson
mass, exponentiated from its logarithm.  The sampler scores the tensor-power
coefficients directly, assembled in log space on an array of occupation rows.
Eigenvectors are stored as one sparse array per sector and contracted on
the state's own sectors: no coherent vector is built or truncated.
`sample_husimi` draws by one rejection path.  A proposal is the
product-form draw of one row of its eigenvector's total-momentum block, so
it is accepted with probability 1/width of that block, not 1/dim of the
sector, and always for an occupation eigenstate, a block of width 1.  The
draws of one width are batched, and a batch is one kernel call.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np
from scipy import sparse, special

from . import fock
from .errors import (
    InvalidConfigError,
    QuadratureFailureError,
    SupportViolationError,
    UnsupportedOrderError,
)
from .cgibbs import MCEstimate
from .qgibbs import GibbsStateBlocks, reduced_density_matrix, relative_entropy

__all__ = [
    "sample_husimi",
    "tail_moment",
    "definetti_gap",
    "berezin_lieb_check",
]


def _check_varsigma(varsigma: float) -> None:
    if not (math.isfinite(varsigma) and varsigma > 0.0):
        raise InvalidConfigError(f"varsigma must be finite and > 0, got {varsigma}")


def _tensor_power_coeffs(occ: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Coefficients of v^{tensor n} on occupation rows occ (..., D, J) of
    sector n, sqrt(n!/prod nu!) * prod v_j^{nu_j}: for one field (J,) a
    (D,) vector, for fields (..., S, J) an (..., S, D) array, the leading
    axes of occ and v broadcast.

    Assembled in log space and exponentiated once; bounded by ||v||^n, so no
    overflow for unit directions in any sector.
    """
    v = np.asarray(v, dtype=complex)
    n = occ.sum(axis=-1)
    # log k! by table lookup: the same values as gammaln(k + 1.0)
    logfac = special.gammaln(np.arange(n.max(initial=0) + 1.0) + 1.0)
    with np.errstate(divide="ignore"):
        logv = np.log(np.atleast_2d(v))  # (..., S, J): log|v| + i arg v
    # a zero coefficient must kill coefficients with nu_j >= 1 but leave
    # nu_j = 0 untouched; a huge negative stand-in does both through 0 * x = 0
    logv = np.where(np.isfinite(logv), logv, -1e300)
    expo = logv @ np.swapaxes(occ, -1, -2)  # (..., S, D)
    expo += 0.5 * (logfac[n] - logfac[occ].sum(axis=-1))[..., None, :]
    coeffs = np.exp(expo)
    return coeffs.reshape(v.shape[:-1] + coeffs.shape[-1:])


@lru_cache(maxsize=None)
def _lowered_rows(k_max: int, n: int):
    """For each occupation row nu of sector n >= 1: its first occupied mode
    j, the row of nu - e_j in sector n - 1, and sqrt(n / nu_j)."""
    occ = fock.enumerate_sector(k_max, n).occupations
    rows = np.arange(len(occ))
    first = np.argmax(occ > 0, axis=1)
    lowered = occ.copy()
    lowered[rows, first] -= 1
    parent = fock.enumerate_sector(k_max, n - 1).rank(lowered)
    return first, parent, np.sqrt(n / occ[rows, first])


def _tensor_powers(k_max: int, d: np.ndarray, n_top: int):
    """Yield (n, T_n) for n = 0..n_top: T_n (dim_n, S) holds the
    coefficients sqrt(n!/prod nu!) * prod d^nu of the tensor powers of the
    S directions d (S, J) on sector n's occupation rows, built upward by
    T_n[nu] = T_{n-1}[nu - e_j] * d_j * sqrt(n / nu_j), j the first
    occupied mode of nu."""
    T = np.ones((1, len(d)), dtype=complex)
    for n in range(n_top + 1):
        if n:
            first, parent, scale = _lowered_rows(k_max, n)
            T = T[parent] * d.T[first] * scale[:, None]
        yield n, T


def husimi_density_batch(blocks: GibbsStateBlocks, varsigma: float,
                         us: np.ndarray) -> np.ndarray:
    """Lower-symbol densities of a normalized block state for a batch of
    fields: (varsigma*pi)^{-J} <xi(u/sqrt(varsigma)), Gamma xi(...)>.

    With v = u/sqrt(varsigma), r = |v|^2 and d = v/|v| (0 at v = 0), the
    sector-n part of xi(v) is sqrt(pmf_n(r)) T_n, pmf_n(r) = e^{-r} r^n/n!
    and T_n[nu] = sqrt(n!/prod nu!) prod d^nu.  T_{n-1}[nu - e_j] times
    d_j sqrt(n/nu_j) is exactly T_n[nu], so `_tensor_powers` builds each
    T_n from the last with one gather and one multiply.  Each sector of the
    state adds pmf_n(r) |V^T T_n|^2 @ p, V its eigenvectors and p their Gibbs
    weights.  T_n has unit norm and pmf_n is exponentiated from its
    logarithm, so neither overflows in any sector.
    Raises InvalidConfigError for a varsigma that is not finite and
    positive, and for fields that are not one field (J,) or a batch (S, J)
    of the state's J modes, that hold a non-finite coefficient, or whose
    squared norm r is not finite.  It also raises InvalidConfigError for a
    varsigma whose normalization (varsigma*pi)^J is not a normal positive
    float, which would turn the densities into inf or 0."""
    _check_varsigma(varsigma)
    us = np.atleast_2d(np.asarray(us, dtype=complex))
    J = blocks.params.J
    try:
        norm = (varsigma * math.pi) ** J
    except OverflowError:
        norm = math.inf
    if not sys.float_info.min <= norm < math.inf:
        raise InvalidConfigError(f"(varsigma*pi)^J = ({varsigma:g}*pi)^{J} is out of range")
    if us.ndim > 2 or us.shape[-1] != J:
        raise InvalidConfigError(f"fields need shape ({J},) or (S, {J}), got {us.shape}")
    if not np.all(np.isfinite(us)):
        raise InvalidConfigError("fields hold a non-finite mode coefficient")
    with np.errstate(over="ignore"):
        vs = us / math.sqrt(varsigma)
        r = np.sum(np.abs(vs) ** 2, axis=1)
    if not np.all(np.isfinite(r)):
        raise InvalidConfigError("fields have a squared norm |u|^2/varsigma that is not finite")
    d = vs / np.sqrt(np.where(r > 0.0, r, 1.0))[:, None]
    out = np.zeros(len(us))
    powers = _tensor_powers(blocks.params.k_max, d, blocks.blocks[-1].n)
    for b, (n, T) in zip(blocks.blocks, powers):
        pmf = np.exp(special.xlogy(n, r) - r - special.gammaln(n + 1.0))
        out += pmf * ((b.boltzmann / blocks.Z) @ np.abs(b.vectors.T @ T) ** 2)
    return out / norm


# amplitude entries one rejection batch may score, and the proposals one
# draw may spend, in units of its block width, before the sampler gives up:
# with acceptance 1/width a working kernel spends that many with
# probability (1 - 1/width)^(100 width) < e^-100
_PROPOSAL_ENTRIES = 1 << 16
_MAX_WIDTHS = 100


def sample_husimi(blocks: GibbsStateBlocks, varsigma: float, n_samples: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Exact draws from the lower symbol of a block state.

    Every draw picks an eigenstate psi with its Gibbs weight, then samples
    by rejection from psi's total-momentum block B, the w rows its column
    stores.  A proposal picks a row nu of B uniformly and draws v in product
    form, |v_j|^2 ~ Gamma(nu_j + 1) with a uniform phase; it is accepted with
    probability a(v) = |sum_B psi_nu c_nu(v)|^2 / sum_B |c_nu(v)|^2, c_nu(v)
    the coherent amplitudes, and then u = sqrt(varsigma) v.  The proposal
    density q is the mean of pi^{-J} |c_nu|^2 over B, the target is
    p = w a q, and a <= 1 by Cauchy-Schwarz, so this is exact and accepts
    with probability 1/w.  A column with one stored entry (an occupation
    state) has |psi_nu| = 1, so a = 1 and its draw is the product form.  The
    ratio a is homogeneous of degree 0 in v and is scored on the direction
    v/|v|, independent of the radius |v|^2 ~ Gamma(n + J).  The draws of one
    width w go in batches, w proposals each, of which a draw keeps the first
    accepted, and a batch is one kernel call.
    Raises InvalidConfigError for a varsigma that is not finite and
    positive or a negative n_samples, and QuadratureFailureError when a
    draw stalls, having spent _MAX_WIDTHS times its block width in proposals.
    """
    _check_varsigma(varsigma)
    if n_samples < 0:
        raise InvalidConfigError(f"n_samples must be >= 0, got {n_samples}")
    J = blocks.params.J
    sectors = blocks.blocks
    # every eigenvector as one column, on the sectors' rows stacked
    V = sparse.block_diag([b.vectors for b in sectors], format="csc")
    occupations = np.concatenate([b.basis.occupations for b in sectors])
    probs = np.concatenate([b.boltzmann for b in sectors]) / blocks.Z
    column = rng.choice(len(probs), size=n_samples, p=probs / probs.sum())
    width = np.diff(V.indptr)[column]
    out = np.empty((n_samples, J), dtype=complex)
    tries = np.zeros(n_samples, dtype=np.int64)
    for w in np.unique(width):
        pending = np.flatnonzero(width == w)
        while pending.size:
            rows = pending[:max(1, _PROPOSAL_ENTRIES // w**2)]
            at = V.indptr[column[rows], None] + np.arange(w)  # each column's stored entries
            pick = at[:, :1] + rng.integers(w, size=(rows.size, w))
            radii_sq = rng.gamma(shape=occupations[V.indices[pick]] + 1.0)
            uniform = rng.random((rows.size, w, J + 1))  # J phases and the accept draw
            v = np.sqrt(radii_sq) * np.exp(2j * np.pi * uniform[..., :J])
            coeffs = _tensor_power_coeffs(occupations[V.indices[at]],
                                          v / np.linalg.norm(v, axis=-1, keepdims=True))
            overlap = np.einsum("rql,rl->rq", coeffs, V.data[at])
            norm_sq = np.sum(np.abs(coeffs) ** 2, axis=-1)
            accept = uniform[..., J] * norm_sq < np.abs(overlap) ** 2
            hit = accept.any(axis=1)
            out[rows[hit]] = math.sqrt(varsigma) * v[hit, accept.argmax(axis=1)[hit]]
            tries[rows] += w
            missed = rows[~hit]
            if np.any(tries[missed] >= _MAX_WIDTHS * w):
                raise QuadratureFailureError("husimi rejection sampler stalled")
            pending = np.concatenate((pending[rows.size:], missed))
    return out


def tail_moment(blocks: GibbsStateBlocks, R: float) -> float:
    """Third mass moment of the lower symbol beyond the level R:
    sum over sectors of P(n) * E[(Y_n/tau)^3 1_{Y_n > R tau}],
    Y_n ~ Gamma(n + J, 1), at the state's own tau.

    Deterministic via regularized upper incomplete Gamma functions.  K^2
    is the support bound of the state's cutoff.  Raises InvalidConfigError
    unless R > K^2, and SupportViolationError if the state charges sectors
    beyond K^2 tau.
    """
    params = blocks.params
    tau = params.tau
    bound = blocks.cutoff.support_bound
    if not R > bound:
        raise InvalidConfigError(f"need R > K^2 = {bound}, got {R}")
    n_top = blocks.blocks[-1].n
    if n_top > bound * tau + 1e-9:
        raise SupportViolationError(f"state charges sector {n_top} beyond K^2*tau")
    J = params.J
    probs = blocks.sector_probabilities()
    ns = np.array([b.n for b in blocks.blocks])
    a = ns + J
    geo = (a * (a + 1.0) * (a + 2.0)) / tau**3
    tails = special.gammaincc(a + 3.0, R * tau)
    return float(np.dot(probs, geo * tails))


# ------------------------------------------------------------------
# quantitative de Finetti gap
# ------------------------------------------------------------------

def definetti_gap(blocks: GibbsStateBlocks, varsigma: float, k: int):
    """Trace-norm distance between k! varsigma^k Gamma^{(k)} and the k-th
    moment matrix of the lower symbol, against its combinatorial bound.

    The moment matrix is evaluated exactly through anti-normally ordered
    ladder traces (no sampling).  Returns (lhs_trace_norm, rhs_bound).
    Raises InvalidConfigError for a varsigma that is not finite and
    positive, and UnsupportedOrderError for k not in {1, 2}.
    """
    _check_varsigma(varsigma)
    if k not in (1, 2):
        raise UnsupportedOrderError(f"de Finetti gap supports k in {{1,2}}, got {k}")
    J = blocks.params.J
    # the moment matrix is k! varsigma^k A, A the anti-normal gram
    # Tr(Gamma a_i1 .. a_ik adag_j1 .. adag_jk) on the RDM's basis i1 <= .. <= ik
    A = fock.ladder_gram(blocks.sector_items(), k, create=True)
    D = math.factorial(k) * varsigma**k * (A - reduced_density_matrix(blocks, k))
    lhs = float(np.sum(np.abs(np.linalg.eigvalsh(0.5 * (D + D.conj().T)))))

    probs = blocks.sector_probabilities()
    ns = np.array([b.n for b in blocks.blocks], dtype=float)
    rhs = 0.0
    for ell in range(k):
        moment_ell = float(np.dot(probs, ns**ell))
        rhs += (math.comb(k, ell) ** 2
                * math.factorial(k - ell + J - 1) / math.factorial(J - 1)
                * moment_ell)
    rhs *= varsigma**k
    return lhs, rhs


def berezin_lieb_check(state: GibbsStateBlocks, reference: GibbsStateBlocks,
                       varsigma: float, n_samples: int, seed: int):
    """Classical relative entropy of the two lower symbols (sampled from the
    first, densities exact) against the quantum relative entropy.

    Returns (MCEstimate for the classical side, quantum value); the
    classical side must not exceed the quantum one beyond noise.  Raises
    InvalidConfigError for fewer than two samples, which give no stderr,
    and, through the sampler, for a varsigma that is not finite and
    positive.
    """
    if n_samples < 2:
        raise InvalidConfigError(f"n_samples must be >= 2 for a stderr, got {n_samples}")
    h_quantum = relative_entropy(state, reference)
    rng = np.random.default_rng(seed)
    us = sample_husimi(state, varsigma, n_samples, rng)
    p = husimi_density_batch(state, varsigma, us)
    q = husimi_density_batch(reference, varsigma, us)
    if np.any(p <= 0.0) or np.any(q <= 0.0):
        raise QuadratureFailureError("lower-symbol density vanished at a sample")
    logs = np.log(p) - np.log(q)
    mean = float(np.mean(logs))
    stderr = float(np.std(logs, ddof=1) / math.sqrt(n_samples))
    return MCEstimate(value=mean, stderr=stderr, n_samples=n_samples, seed=seed), h_quantum
