"""Coherent states and the quantum-classical dictionary.

Everything here rides on one structure: testing a block state against the
coherent family xi(u) at scale varsigma produces a classical probability
density (the lower symbol), whose moments, tails, and relative entropies
mirror the quantum ones up to explicitly computable corrections.

The coherent amplitudes have one kernel, assembled in log space on an
array of occupation rows; the tensor-power coefficients are the same
amplitudes with their Poisson prefactor divided out.  Every block state
stores its eigenvectors as one sparse array per sector, so each quantity
below contracts them on one path, on the state's own sectors: no coherent
vector is built or truncated.  The lower symbol is `husimi_density_batch`,
and `poisson_decomposition_check` compares it with a second route, the
Poisson average of tensor-power Rayleigh quotients.  `sample_husimi` draws
in product form for eigenstates that are single occupation states and by
batched rejection for the others.  A rejection proposal is the product-form
draw of one row of its eigenvector's total-momentum block, so it is accepted
with probability 1/width of that block, not 1/dim of the sector, and a
batch is one kernel call over the block width.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse, special

from . import fock
from .errors import (
    InvalidConfigError,
    QuadratureFailureError,
    SupportViolationError,
    UnsupportedOrderError,
)
from .model import CutoffProfile, KernelSpec, ModelParams
from .cgibbs import MCEstimate
from .qgibbs import GibbsStateBlocks, build_gibbs, reduced_density_matrix, relative_entropy

__all__ = [
    "sample_husimi",
    "poisson_decomposition_check",
    "tail_moment",
    "definetti_gap",
    "berezin_lieb_check",
]


def _check_varsigma(varsigma: float) -> None:
    if not (math.isfinite(varsigma) and varsigma > 0.0):
        raise InvalidConfigError(f"varsigma must be finite and > 0, got {varsigma}")


def _coherent_amplitude_matrix(occ: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Coherent amplitudes of fields vs (..., S, J) on occupation rows
    occ (..., D, J), the two broadcast along their leading axes:
    A[..., s, d] = e^{-||v_s||^2/2} * prod_j v_s,j^{nu_d,j} / sqrt(prod nu_d,j!).

    Assembled in log space; bounded by the square root of a Poisson mass,
    so no overflow for any sector.
    """
    vs = np.atleast_2d(np.asarray(vs, dtype=complex))
    # log nu! by table lookup: the same values as gammaln(occ + 1.0)
    logfac = special.gammaln(np.arange(occ.max(initial=0) + 1.0) + 1.0)[occ].sum(axis=-1)
    with np.errstate(divide="ignore"):
        logv = np.log(vs)  # (..., S, J): log|v| + i arg v
    # a zero coefficient must kill amplitudes with nu_j >= 1 but leave
    # nu_j = 0 untouched; a huge negative stand-in does both through 0 * x = 0
    logv = np.where(np.isfinite(logv), logv, -1e300)
    expo = logv @ np.swapaxes(occ, -1, -2)  # (..., S, D)
    expo -= 0.5 * logfac[..., None, :] + 0.5 * np.sum(np.abs(vs) ** 2, axis=-1)[..., None]
    return np.exp(expo)


def _tensor_power_coeffs(occ: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Coefficients of v^{tensor n} on occupation rows occ (..., D, J) of
    sector n, sqrt(n!/prod nu!) * prod v_j^{nu_j}: for one field (J,) a
    (D,) vector, for fields (..., S, J) an (..., S, D) array, the leading
    axes broadcast as in `_coherent_amplitude_matrix`.

    These are the coherent amplitudes with their Poisson prefactor
    e^{-||v||^2/2}/sqrt(n!) divided back out, which is exact while ||v||^2
    stays far inside the exponent range, as it does for unit directions.
    """
    v = np.asarray(v, dtype=complex)
    scale = np.exp(0.5 * (special.gammaln(occ.sum(axis=-1) + 1.0)[..., None, :]
                          + np.sum(np.abs(v) ** 2, axis=-1)[..., None]))
    coeffs = _coherent_amplitude_matrix(occ, v) * scale
    return coeffs.reshape(v.shape[:-1] + coeffs.shape[-1:])


def husimi_density_batch(blocks: GibbsStateBlocks, varsigma: float,
                         us: np.ndarray) -> np.ndarray:
    """Lower-symbol densities of a normalized block state for a batch of
    fields: (varsigma*pi)^{-J} <xi(u/sqrt(varsigma)), Gamma xi(...)>.
    Raises InvalidConfigError for a varsigma that is not finite and
    positive or fields whose last axis is not the state's J modes or that
    hold a non-finite coefficient."""
    _check_varsigma(varsigma)
    us = np.atleast_2d(np.asarray(us, dtype=complex))
    J = blocks.params.J
    if us.shape[-1] != J:
        raise InvalidConfigError(f"fields need {J} modes, got {us.shape[-1]}")
    if not np.all(np.isfinite(us)):
        raise InvalidConfigError("fields hold a non-finite mode coefficient")
    vs = us / math.sqrt(varsigma)
    out = np.zeros(us.shape[0])
    for b in blocks.blocks:
        if b.weight == 0.0:
            continue
        overlaps = _coherent_amplitude_matrix(b.basis.occupations, vs) @ b.vectors
        out += np.abs(overlaps) ** 2 @ (b.boltzmann / blocks.Z)
    return out / (varsigma * math.pi) ** J


# amplitude entries one rejection batch may score, and the proposals one
# draw may spend, in units of its block width, before the sampler gives up:
# with acceptance 1/width a working kernel spends that many with
# probability (1 - 1/width)^(100 width) < e^-100
_PROPOSAL_ENTRIES = 1 << 16
_MAX_WIDTHS = 100


def _block_diagonal(vectors) -> sparse.csc_array:
    """sparse.block_diag of csc arrays, format="csc", in one pass: each
    array's indptr, indices and data concatenated with entry and row
    offsets."""
    rows = np.cumsum([0] + [v.shape[0] for v in vectors])
    entries = np.cumsum([0] + [v.indptr[-1] for v in vectors])
    indptr = np.concatenate([[0]] + [v.indptr[1:] + e for v, e in zip(vectors, entries)])
    indices = np.concatenate([v.indices + r for v, r in zip(vectors, rows)])
    data = np.concatenate([v.data for v in vectors])
    return sparse.csc_array((data, indices, indptr), shape=(rows[-1], len(indptr) - 1))


def sample_husimi(blocks: GibbsStateBlocks, varsigma: float, n_samples: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Exact draws from the lower symbol of a block state.

    Every draw first picks an eigenstate with its Gibbs weight, all picks at
    once; within a sector the eigenstates are listed by their first stored
    row, which is basis order for occupation eigenstates.  An eigenstate
    whose column has one stored entry is an occupation state nu (all of the
    free state, the sectors n < 3 of an interacting one, and its 1 x 1
    momentum blocks).  Those picks sample in product form, all in one step:
    each |v_j|^2 is Gamma(nu_j + 1) with a uniform phase, and
    u = sqrt(varsigma) v.

    The other picks sample by rejection from their eigenvector psi's
    total-momentum block B, the w rows its column stores.  A proposal picks
    a row nu of B uniformly and draws v in the product form above; it is
    accepted with probability a(v) = |sum_B psi_nu c_nu(v)|^2 / sum_B
    |c_nu(v)|^2, c_nu(v) = e^{-|v|^2/2} v^nu / sqrt(nu!) the coherent
    amplitudes, and then u = sqrt(varsigma) v.  This is exact: the proposal
    density is q = w^{-1} sum_B pi^{-J} |c_nu(v)|^2, the target is
    p = pi^{-J} |<psi, xi(v)>|^2 = w a q, and a <= 1 by Cauchy-Schwarz, so
    a proposal is accepted with probability 1/w.  Numerator and denominator
    of a are homogeneous of the same degree in v, so a is scored on the
    direction v/|v| with the tensor-power coefficients; under every row's
    product form the radius |v|^2 ~ Gamma(n + J) is independent of that
    direction, so the accepted draws keep the target's mass law.  Each
    pending draw of a sector gets as many proposals at a time as the widest
    block among the sector's pending draws, and keeps its first accepted
    one.  A batch pads its blocks to that width, (rows, L) amplitudes on
    (rows, L, J) occupations, and is scored by one kernel call.  The
    columns and rows are those of one block-diagonal array of all live
    sectors' eigenvectors.
    Raises InvalidConfigError for a varsigma that is not finite and
    positive or a negative n_samples, and QuadratureFailureError when a
    draw stalls, having spent _MAX_WIDTHS times its block width in proposals.
    """
    _check_varsigma(varsigma)
    if n_samples < 0:
        raise InvalidConfigError(f"n_samples must be >= 0, got {n_samples}")
    J = blocks.params.J
    live = [b for b in blocks.blocks if b.weight != 0.0]
    # every live eigenvector as one column, on the live sectors' rows stacked
    V = _block_diagonal([b.vectors for b in live])
    occupations = np.concatenate([b.basis.occupations for b in live])
    ptr, stored = V.indptr, np.diff(V.indptr)
    head = V.indices[ptr[:-1]]  # first stored row of each column
    order = np.argsort(head, kind="stable")
    probs = np.concatenate([b.boltzmann for b in live])[order] / blocks.Z
    probs = probs / probs.sum()
    column = order[rng.choice(len(probs), size=n_samples, p=probs)]
    sector = np.repeat(np.arange(len(live)), [b.vectors.shape[1] for b in live])[column]
    out = np.empty((n_samples, J), dtype=complex)

    single = stored[column] == 1
    nu = occupations[head[column[single]]]
    radii_sq = rng.gamma(shape=nu + 1.0)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=nu.shape)
    out[single] = np.sqrt(varsigma * radii_sq) * np.exp(1j * phases)

    tries = np.zeros(n_samples, dtype=np.int64)
    for k in range(len(live)):
        pending = np.flatnonzero((sector == k) & ~single)
        while pending.size:
            # a proposal is accepted with probability 1/width, so each draw
            # gets as many proposals as the sector's widest pending block has rows
            width = stored[column[pending]].max()
            rows = pending[:max(1, _PROPOSAL_ENTRIES // width**2)]
            cols = column[rows]
            shape = (rows.size, width)
            # each column's stored rows, padded to the widest with zero
            # amplitudes on its last row, so every row stays in its block
            inside = np.arange(width) < stored[cols, None]
            at = ptr[cols, None] + np.minimum(np.arange(width), stored[cols, None] - 1)
            psi = np.where(inside, V.data[at], 0.0)
            pick = ptr[cols, None] + rng.integers(stored[cols, None], size=shape)
            radii_sq = rng.gamma(shape=occupations[V.indices[pick]] + 1.0)
            uniform = rng.random(shape + (J + 1,))  # J phases and the accept draw
            v = np.sqrt(radii_sq) * np.exp(2j * np.pi * uniform[..., :J])
            coeffs = _tensor_power_coeffs(occupations[V.indices[at]],
                                          v / np.linalg.norm(v, axis=-1, keepdims=True))
            overlap = np.einsum("rql,rl->rq", coeffs, psi)
            norm_sq = np.einsum("rql,rl->rq", np.abs(coeffs) ** 2, inside.astype(float))
            accept = uniform[..., J] * norm_sq < np.abs(overlap) ** 2
            hit = accept.any(axis=1)
            first = accept.argmax(axis=1)[hit]
            out[rows[hit]] = math.sqrt(varsigma) * v[hit, first]
            tries[rows] += width
            missed = rows[~hit]
            if np.any(tries[missed] >= _MAX_WIDTHS * stored[column[missed]]):
                raise QuadratureFailureError("husimi rejection sampler stalled")
            pending = np.concatenate((pending[rows.size:], missed))
    return out


def poisson_decomposition_check(params: ModelParams, cutoff: CutoffProfile, u,
                                interacting: bool = True,
                                kernel: KernelSpec | None = None,
                                blocks: GibbsStateBlocks | None = None):
    """Two routes to <xi(sqrt(tau) u), e^{-H_tau} f(N/tau) xi(sqrt(tau) u)>.

    Route one is the lower symbol itself: Z (pi/tau)^J times the Husimi
    density at u and varsigma = 1/tau, from `husimi_density_batch`.  Route
    two expands the same quantity as a Poisson(tau*||u||^2) average of
    normalized tensor-power Rayleigh quotients weighted by the cutoff.
    Returns (lhs, rhs).  Raises InvalidConfigError for a u that does not
    have params.J modes or has a non-finite one.
    """
    u = np.asarray(u, dtype=complex)
    if len(u) != params.J:
        raise InvalidConfigError(f"u needs {params.J} modes, got {len(u)}")
    if not np.all(np.isfinite(u)):
        raise InvalidConfigError("u has a non-finite mode coefficient")
    tau = params.tau
    mass = float(np.sum(np.abs(u) ** 2))
    if cutoff.support_bound is None and interacting:
        raise InvalidConfigError("interacting trace needs a bounded mass cutoff")
    if blocks is None:
        blocks = build_gibbs(params, interacting, cutoff, kernel)

    lhs = blocks.Z * (math.pi / tau) ** params.J * float(
        husimi_density_batch(blocks, 1.0 / tau, u)[0])

    if mass == 0.0:
        rhs = float(cutoff(0.0))
        return lhs, rhs

    rhs = 0.0
    direction = u / math.sqrt(mass)
    mean = tau * mass
    for b in blocks.blocks:
        if b.cutoff_value == 0.0:
            continue
        pmf = np.exp(special.xlogy(b.n, mean) - special.gammaln(b.n + 1) - mean)
        if pmf == 0.0:
            continue
        # normalized tensor power of the unit direction, in the sector basis
        rot = b.vectors.T @ _tensor_power_coeffs(b.basis.occupations, direction)
        rhs += pmf * b.cutoff_value * float(np.sum(np.exp(-b.energies) * np.abs(rot) ** 2))
    return lhs, rhs


def tail_moment(blocks: GibbsStateBlocks, R: float, tau: float | None = None) -> float:
    """Third mass moment of the lower symbol beyond the level R:
    sum over sectors of P(n) * E[(Y_n/tau)^3 1_{Y_n > R tau}],
    Y_n ~ Gamma(n + J, 1).

    Deterministic via regularized upper incomplete Gamma functions; raises
    SupportViolationError if the state charges sectors beyond K^2 tau.
    """
    params = blocks.params
    tau = params.tau if tau is None else tau
    if not R > params.K**2:
        raise InvalidConfigError(f"need R > K^2 = {params.K ** 2}, got {R}")
    if blocks.max_charged_sector > params.K**2 * tau + 1e-9:
        raise SupportViolationError(
            f"state charges sector {blocks.max_charged_sector} beyond K^2*tau"
        )
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
