"""Coherent states and the quantum-classical dictionary.

Everything here rides on one structure: testing a block state against the
coherent family xi(u) at scale varsigma produces a classical probability
density (the lower symbol), whose moments, tails, and relative entropies
mirror the quantum ones up to explicitly computable corrections.

The coherent amplitudes have one kernel, assembled in log space on an
array of occupation rows; the tensor-power coefficients are the same
amplitudes with their Poisson prefactor divided out.  Every block state
stores its eigenvectors as one sparse array per sector, so each quantity
below contracts them on one path.  `sample_husimi` draws in product form
for eigenstates that are single occupation states and by batched
rejection for the others; a rejection proposal is scored on its
eigenvector's total-momentum block, padded to the widest in its batch, so
a batch is one kernel call over that width, not over the sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, sparse, special

from . import fock
from .errors import (
    InvalidConfigError,
    QuadratureFailureError,
    SupportViolationError,
    UnsupportedOrderError,
)
from .model import CutoffProfile, KernelSpec, ModelParams
from .cgibbs import MCEstimate, _mc_estimate
from .qgibbs import GibbsStateBlocks, build_gibbs, reduced_density_matrix, relative_entropy

__all__ = [
    "CoherentVector",
    "coherent_vector",
    "poisson_truncation",
    "sample_husimi",
    "poisson_decomposition_check",
    "antiwick_radial_scalar",
    "antiwick_radial_scalar_mc",
    "tail_moment",
    "definetti_gap",
    "berezin_lieb_check",
]


def poisson_truncation(mean: float, tol: float = 1e-12) -> int:
    """Smallest N whose Poisson(mean) tail mass beyond N is < tol.  Raises
    InvalidConfigError for a mean that is not finite."""
    if not math.isfinite(mean):
        raise InvalidConfigError(f"Poisson mean must be finite, got {mean}")
    if mean <= 0:
        return 0
    n = max(8, int(mean))
    while special.pdtrc(n, mean) >= tol:
        n = int(1.5 * n) + 8
    # walk back down to the boundary
    while n > 0 and special.pdtrc(n - 1, mean) < tol:
        n -= 1
    return n


@dataclass(frozen=True)
class CoherentVector:
    """Sector-truncated coherent state targeting field u at scale varsigma.

    The sector-n amplitude block is e^{-||u||^2/(2 varsigma)}
    (u/sqrt(varsigma))^{tensor n} / sqrt(n!); its squared norm is the
    Poisson(||u||^2/varsigma) mass at n, so `deficit` is the truncated
    Poisson tail.
    """

    u: np.ndarray
    varsigma: float
    N_trunc: int
    amps: tuple
    deficit: float


def _check_varsigma(varsigma: float) -> None:
    if not (math.isfinite(varsigma) and varsigma > 0.0):
        raise InvalidConfigError(f"varsigma must be finite and > 0, got {varsigma}")


def coherent_vector(u: np.ndarray, varsigma: float, N_trunc: int | None = None,
                    tol: float = 1e-12) -> CoherentVector:
    """The coherent vector of field u (2k_max+1 mode coefficients) at scale
    varsigma, truncated at N_trunc or where the Poisson tail drops below
    tol.  Raises InvalidConfigError for a varsigma that is not finite and
    positive or a u of even length or with a non-finite coefficient."""
    _check_varsigma(varsigma)
    u = np.asarray(u, dtype=complex)
    if len(u) % 2 == 0:
        raise InvalidConfigError(f"u needs 2k_max+1 mode coefficients, got {len(u)}")
    if not np.all(np.isfinite(u)):
        raise InvalidConfigError("u has a non-finite mode coefficient")
    k_max = (len(u) - 1) // 2
    v = u / math.sqrt(varsigma)
    if N_trunc is None:
        N_trunc = poisson_truncation(float(np.sum(np.abs(v) ** 2)), tol)
    amps = tuple(_coherent_amplitude_matrix(fock.enumerate_sector(k_max, n).occupations,
                                            v)[0] for n in range(N_trunc + 1))
    total = sum(float(np.sum(np.abs(a) ** 2)) for a in amps)
    return CoherentVector(u=u, varsigma=varsigma, N_trunc=N_trunc,
                          amps=amps, deficit=max(0.0, 1.0 - total))


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


# amplitude entries a sector's rejection batch would cover at full sector
# width (the batch size is this over the sector dimension), and the
# proposals one draw may spend before the sampler gives up
_PROPOSAL_ENTRIES = 1 << 16
_MAX_TRIES = 200000


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
    u = sqrt(varsigma) v.  For the other picks u = sqrt(varsigma s) omega
    with s ~ Gamma(n + J) and a unit direction omega accepted with
    probability |<psi_i, omega^{tensor n}>|^2, whose mean is the reciprocal
    sector dimension.  Each pending draw gets a batch of proposals at a
    time and keeps its first accepted one.  A proposal is scored on the
    rows its eigenvector stores, one total-momentum block; a batch pads
    these to its widest block, (rows, L) amplitudes on (rows, L, J)
    occupations, and is scored by one kernel call.  The columns and rows
    are those of one block-diagonal array of all live sectors' eigenvectors.
    Raises InvalidConfigError for a varsigma that is not finite and
    positive or a negative n_samples, and QuadratureFailureError when a
    draw stalls.
    """
    _check_varsigma(varsigma)
    if n_samples < 0:
        raise InvalidConfigError(f"n_samples must be >= 0, got {n_samples}")
    J = blocks.params.J
    live = [b for b in blocks.blocks if b.weight != 0.0]
    # every live eigenvector as one column, on the live sectors' rows stacked
    V = sparse.block_diag([b.vectors for b in live], format="csc")
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
    for k, b in enumerate(live):
        pending = np.flatnonzero((sector == k) & ~single)
        budget = max(1, _PROPOSAL_ENTRIES // b.basis.dim)
        while pending.size:
            per_row = max(1, budget // pending.size)
            rows = pending[:budget // per_row]
            shape = (rows.size, per_row)
            g = rng.standard_normal(shape + (J,)) + 1j * rng.standard_normal(shape + (J,))
            omega = g / np.linalg.norm(g, axis=-1, keepdims=True)
            s_rad = rng.gamma(shape=b.n + J, size=shape)
            # each column's stored rows, padded to the widest with zero
            # amplitudes on its last row, so every row stays in its block
            cols = column[rows]
            width = np.arange(stored[cols].max())
            at = ptr[cols, None] + np.minimum(width, stored[cols, None] - 1)
            psi = np.where(width < stored[cols, None], V.data[at], 0.0)
            overlap = np.einsum("rqd,rd->rq",
                                _tensor_power_coeffs(occupations[V.indices[at]], omega), psi)
            accept = rng.random(shape) < np.abs(overlap) ** 2
            hit = accept.any(axis=1)
            first = accept.argmax(axis=1)[hit]
            out[rows[hit]] = (np.sqrt(varsigma * s_rad[hit, first])[:, None]
                              * omega[hit, first])
            tries[rows] += per_row
            if tries[rows[~hit]].max(initial=0) >= _MAX_TRIES:
                raise QuadratureFailureError("husimi rejection sampler stalled")
            pending = np.concatenate((pending[rows.size:], rows[~hit]))
    return out


def poisson_decomposition_check(params: ModelParams, cutoff: CutoffProfile, u,
                                interacting: bool = True,
                                kernel: KernelSpec | None = None,
                                blocks: GibbsStateBlocks | None = None):
    """Two routes to <xi(sqrt(tau) u), e^{-H_tau} f(N/tau) xi(sqrt(tau) u)>.

    Route one contracts the coherent amplitudes directly with the sector
    propagators.  Route two expands the same quantity as a Poisson(
    tau*||u||^2) average of normalized tensor-power Rayleigh quotients
    weighted by the cutoff.  Returns (lhs, rhs).  Raises
    InvalidConfigError for a u that does not have params.J modes or has a
    non-finite one.
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

    coh = coherent_vector(u * math.sqrt(tau), 1.0, N_trunc=blocks.params.n_max)
    lhs = 0.0
    for b in blocks.blocks:
        if b.cutoff_value == 0.0 or b.n > coh.N_trunc:
            continue
        rot = b.vectors.T @ coh.amps[b.n]
        lhs += b.cutoff_value * float(np.sum(np.exp(-b.energies) * np.abs(rot) ** 2))

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


# ------------------------------------------------------------------
# radial anti-Wick calculus
# ------------------------------------------------------------------

def antiwick_radial_scalar(G, n: int, J: int, tau: float,
                           breakpoints: tuple = ()) -> float:
    """Sector-n scalar of the anti-Wick quantization of a radial weight:
    E[ G(Y/tau) ] with Y ~ Gamma(n + J, 1).

    `G` maps mass values to reals; `breakpoints` lists mass values where G
    jumps so the quadrature can split there.
    """
    a = n + J

    def pdf(y):
        return np.exp(special.xlogy(a - 1.0, y) - y - special.gammaln(a))

    points = sorted(tau * b for b in breakpoints)
    lo = 0.0
    total = 0.0
    err = 0.0
    for b in points + [np.inf]:
        val, e = integrate.quad(lambda y: G(y / tau) * pdf(y), lo, b, limit=400)
        total += val
        err += e
        lo = b
    if err > 1e-8 * max(1.0, abs(total)):
        raise QuadratureFailureError(f"anti-Wick quadrature error {err:.2e} too large")
    return total


def antiwick_radial_scalar_mc(G, n: int, J: int, tau: float, n_samples: int,
                              seed: int) -> MCEstimate:
    """Independent coherent-state route to the same sector scalar.

    Writes the scalar as a Gaussian integral against the coherent family
    (trace of the quantized weight over the sector, divided by the sector
    dimension) and estimates it by direct sampling on the shared MC core.
    """
    D = math.comb(n + J - 1, n)
    logfac_n = special.gammaln(n + 1.0)

    def draw(size, rng):
        g = rng.standard_normal((size, J)) + 1j * rng.standard_normal((size, J))
        s = np.sum(np.abs(g) ** 2, axis=1) / (2.0 * tau)
        return np.array([G(x) for x in s]) * np.exp(n * np.log(tau * s) - logfac_n) / D, None

    return _mc_estimate(seed, n_samples, draw, threads=1)


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
