"""Coherent states and the quantum-classical dictionary.

Everything here rides on one structure: testing a block state against the
coherent family xi(u) at scale varsigma produces a classical probability
density (the lower symbol), whose moments, tails, and relative entropies
mirror the quantum ones up to explicitly computable corrections.

The coherent amplitudes have one kernel, assembled in log space; the
tensor-power coefficients are the same amplitudes with their Poisson
prefactor divided out.  Every block state stores its eigenvectors as one
sparse array per sector, so each quantity below contracts them on one path.
`sample_husimi` draws in product form for eigenstates that are single
occupation states and by batched rejection for the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special, stats

from . import fock
from .errors import (
    InvalidConfigError,
    QuadratureFailureError,
    SupportViolationError,
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
    """Smallest N whose Poisson(mean) tail mass beyond N is < tol."""
    if mean <= 0:
        return 0
    n = max(8, int(mean))
    while stats.poisson.sf(n, mean) >= tol:
        n = int(1.5 * n) + 8
    # walk back down to the boundary
    while n > 0 and stats.poisson.sf(n - 1, mean) < tol:
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


def coherent_vector(u: np.ndarray, varsigma: float, N_trunc: int | None = None,
                    tol: float = 1e-12) -> CoherentVector:
    u = np.asarray(u, dtype=complex)
    k_max = (len(u) - 1) // 2
    v = u / math.sqrt(varsigma)
    if N_trunc is None:
        N_trunc = poisson_truncation(float(np.sum(np.abs(v) ** 2)), tol)
    amps = tuple(_coherent_amplitude_matrix(fock.enumerate_sector(k_max, n), v)[0]
                 for n in range(N_trunc + 1))
    total = sum(float(np.sum(np.abs(a) ** 2)) for a in amps)
    return CoherentVector(u=u, varsigma=varsigma, N_trunc=N_trunc,
                          amps=amps, deficit=max(0.0, 1.0 - total))


def _coherent_amplitude_matrix(basis: fock.SectorBasis, vs: np.ndarray) -> np.ndarray:
    """Rows of sector-n coherent amplitudes for a batch of fields v:
    A[s, nu] = e^{-||v_s||^2/2} * prod_j v_s,j^{nu_j} / sqrt(prod nu_j!).

    Assembled in log space; bounded by the square root of a Poisson mass,
    so no overflow for any sector.
    """
    vs = np.atleast_2d(np.asarray(vs, dtype=complex))
    occ = basis.occupations  # (D, J)
    logfac = special.gammaln(occ + 1.0).sum(axis=1)  # (D,)
    with np.errstate(divide="ignore"):
        logv = np.log(vs)  # (S, J): log|v| + i arg v
    # a zero coefficient must kill amplitudes with nu_j >= 1 but leave
    # nu_j = 0 untouched; a huge negative stand-in does both through 0 * x = 0
    logv = np.where(np.isfinite(logv), logv, -1e300)
    expo = logv @ occ.T  # (S, D)
    expo -= 0.5 * logfac[None, :] + 0.5 * np.sum(np.abs(vs) ** 2, axis=1)[:, None]
    return np.exp(expo)


def _tensor_power_coeffs(basis: fock.SectorBasis, v: np.ndarray) -> np.ndarray:
    """Coefficients of v^{tensor n} in the occupation basis,
    sqrt(n!/prod nu!) * prod v_j^{nu_j}, for one field or for fields along
    any leading batch axes (the result gains a trailing sector axis).

    These are the coherent amplitudes with their Poisson prefactor
    e^{-||v||^2/2}/sqrt(n!) divided back out, which is exact while ||v||^2
    stays far inside the exponent range, as it does for unit directions.
    """
    v = np.asarray(v, dtype=complex)
    flat = v.reshape(-1, v.shape[-1])
    scale = np.exp(0.5 * (special.gammaln(basis.n + 1.0) + np.sum(np.abs(flat) ** 2, axis=1)))
    coeffs = _coherent_amplitude_matrix(basis, flat) * scale[:, None]
    return coeffs.reshape(v.shape[:-1] + (basis.dim,))


def husimi_density_batch(blocks: GibbsStateBlocks, varsigma: float,
                         us: np.ndarray) -> np.ndarray:
    """Lower-symbol densities of a normalized block state for a batch of
    fields: (varsigma*pi)^{-J} <xi(u/sqrt(varsigma)), Gamma xi(...)>."""
    us = np.atleast_2d(np.asarray(us, dtype=complex))
    J = blocks.params.J
    vs = us / math.sqrt(varsigma)
    out = np.zeros(us.shape[0])
    for b in blocks.blocks:
        if b.weight == 0.0:
            continue
        overlaps = _coherent_amplitude_matrix(b.basis, vs) @ b.vectors
        out += np.abs(overlaps) ** 2 @ (b.boltzmann / blocks.Z)
    return out / (varsigma * math.pi) ** J


# amplitude entries scored per rejection batch, and the proposals one draw
# may spend before the sampler gives up
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
    time and keeps its first accepted one.  Raises QuadratureFailureError
    when a draw stalls.
    """
    J = blocks.params.J
    live = [b for b in blocks.blocks if b.weight != 0.0]
    heads = [b.vectors.indices[b.vectors.indptr[:-1]] for b in live]  # first stored rows
    order = [np.argsort(h, kind="stable") for h in heads]
    probs = np.concatenate([b.boltzmann[o] / blocks.Z for b, o in zip(live, order)])
    probs = probs / probs.sum()
    picks = rng.choice(len(probs), size=n_samples, p=probs)
    starts = np.cumsum([0] + [b.basis.dim for b in live])
    which = np.searchsorted(starts, picks, side="right") - 1
    column = np.concatenate(order)[picks]
    out = np.empty((n_samples, J), dtype=complex)

    single = np.concatenate([np.diff(b.vectors.indptr)[o] == 1
                             for b, o in zip(live, order)])[picks]
    nu = np.concatenate([b.basis.occupations[h[o]]
                         for b, h, o in zip(live, heads, order)])[picks[single]]
    radii_sq = rng.gamma(shape=nu + 1.0)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=nu.shape)
    out[single] = np.sqrt(varsigma * radii_sq) * np.exp(1j * phases)

    tries = np.zeros(n_samples, dtype=np.int64)
    for k, b in enumerate(live):
        pending = np.flatnonzero((which == k) & ~single)
        V = b.vectors.toarray()
        budget = max(1, _PROPOSAL_ENTRIES // b.basis.dim)
        while pending.size:
            per_row = max(1, budget // pending.size)
            rows = pending[:budget // per_row]
            shape = (rows.size, per_row)
            g = rng.standard_normal(shape + (J,)) + 1j * rng.standard_normal(shape + (J,))
            omega = g / np.linalg.norm(g, axis=-1, keepdims=True)
            s_rad = rng.gamma(shape=b.n + J, size=shape)
            overlap = np.einsum("rqd,dr->rq", _tensor_power_coeffs(b.basis, omega),
                                V[:, column[rows]])
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
    weighted by the cutoff.  Returns (lhs, rhs).
    """
    u = np.asarray(u, dtype=complex)
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
        pmf = stats.poisson.pmf(b.n, mean)
        if pmf == 0.0:
            continue
        # normalized tensor power of the unit direction, in the sector basis
        rot = b.vectors.T @ _tensor_power_coeffs(b.basis, direction)
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
    pdf = stats.gamma(a).pdf
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

def _creation_gram(blocks: GibbsStateBlocks, order: int):
    """Gram matrix of order-fold creations: for order 1,
    A[i,j] = Tr(Gamma a_i adag_j); for order 2 over unordered pairs,
    A[(i1,i2),(j1,j2)] = Tr(Gamma a_{i1} a_{i2} adag_{j1} adag_{j2}).
    Returns A and its index words ((i,) or (i1, i2))."""
    J = blocks.params.J
    words = ([(p,) for p in range(J)] if order == 1
             else [(i, j) for i in range(J) for j in range(i, J)])
    return fock.ladder_gram(blocks.sector_items(), words, create=True), words


def definetti_gap(blocks: GibbsStateBlocks, varsigma: float, k: int):
    """Trace-norm distance between k! varsigma^k Gamma^{(k)} and the k-th
    moment matrix of the lower symbol, against its combinatorial bound.

    The moment matrix is evaluated exactly through anti-normally ordered
    ladder traces (no sampling).  Returns (lhs_trace_norm, rhs_bound).
    """
    if k not in (1, 2):
        raise InvalidConfigError(f"de Finetti gap supports k in {{1,2}}, got {k}")
    J = blocks.params.J
    A, cols = _creation_gram(blocks, k)
    if k == 1:
        moment = varsigma * A
        rdm = reduced_density_matrix(blocks, 1)
        D = moment - varsigma * rdm
    else:
        nu = np.array([math.sqrt(2.0) if i == j else 1.0 for (i, j) in cols])
        c = math.sqrt(2.0) / nu
        moment = varsigma**2 * np.outer(c, c) * A
        rdm = reduced_density_matrix(blocks, 2)
        D = moment - 2.0 * varsigma**2 * rdm
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
    classical side must not exceed the quantum one beyond noise.
    """
    h_quantum = relative_entropy(state, reference)
    rng = np.random.default_rng(seed)
    us = sample_husimi(state, varsigma, n_samples, rng)
    p = husimi_density_batch(state, varsigma, us)
    q = husimi_density_batch(reference, varsigma, us)
    if np.any(p <= 0.0) or np.any(q <= 0.0):
        raise QuadratureFailureError("lower-symbol density vanished at a sample")
    logs = np.log(p) - np.log(q)
    mean = float(np.mean(logs))
    stderr = float(np.std(logs, ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return MCEstimate(value=mean, stderr=stderr, n_samples=n_samples, seed=seed), h_quantum
