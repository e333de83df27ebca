"""Coherent states and the quantum-classical dictionary.

Everything here rides on one structure: testing a block state against the
coherent family xi(u) at scale varsigma produces a classical probability
density (the lower symbol), whose moments, tails, and relative entropies
mirror the quantum ones up to explicitly computable corrections.
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
from .cgibbs import MCEstimate
from .qgibbs import GibbsStateBlocks, build_gibbs, reduced_density_matrix, relative_entropy

__all__ = [
    "CoherentVector",
    "coherent_vector",
    "poisson_truncation",
    "husimi_density",
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


def _tensor_power_coeffs(basis: fock.SectorBasis, v: np.ndarray) -> np.ndarray:
    """Coefficients of v^{tensor n} in the occupation basis:
    sqrt(n!/prod nu!) * prod v_j^{nu_j}."""
    occ = basis.occupations
    n = basis.n
    logfac = special.gammaln(np.arange(n + 1) + 1.0)
    amp = np.exp(0.5 * (logfac[n] - logfac[occ].sum(axis=1)))
    with np.errstate(divide="ignore", invalid="ignore"):
        powers = np.where(occ > 0, v[None, :] ** occ, 1.0)
    return amp * np.prod(powers, axis=1)


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
    mean = float(np.sum(np.abs(v) ** 2))
    if N_trunc is None:
        N_trunc = poisson_truncation(mean, tol)
    pref = math.exp(-0.5 * mean)
    amps = []
    total = 0.0
    logfac = special.gammaln(np.arange(N_trunc + 1) + 1.0)
    for n in range(N_trunc + 1):
        basis = fock.enumerate_sector(k_max, n)
        block = pref * _tensor_power_coeffs(basis, v) * math.exp(-0.5 * logfac[n])
        amps.append(block)
        total += float(np.sum(np.abs(block) ** 2))
    return CoherentVector(u=u, varsigma=varsigma, N_trunc=N_trunc,
                          amps=tuple(amps), deficit=max(0.0, 1.0 - total))


def _coherent_amplitude_matrix(basis: fock.SectorBasis, vs: np.ndarray) -> np.ndarray:
    """Rows of sector-n coherent amplitudes for a batch of fields v:
    A[s, nu] = e^{-||v_s||^2/2} * prod_j v_s,j^{nu_j} / sqrt(prod nu_j!).

    Assembled in log space; bounded by the square root of a Poisson mass,
    so no overflow for any sector.
    """
    vs = np.atleast_2d(vs)
    occ = basis.occupations  # (D, J)
    logfac = special.gammaln(occ + 1.0).sum(axis=1)  # (D,)
    with np.errstate(divide="ignore"):
        logmag = np.log(np.abs(vs))  # (S, J)
    # a zero coefficient must kill amplitudes with nu_j >= 1 but leave
    # nu_j = 0 untouched; a huge negative stand-in does both through 0 * x = 0
    logmag = np.where(np.isfinite(logmag), logmag, -1e300)
    phase = np.angle(vs)
    expo = logmag @ occ.T  # (S, D)
    expo = expo - 0.5 * logfac[None, :] - 0.5 * np.sum(np.abs(vs) ** 2, axis=1)[:, None]
    theta = phase @ occ.T
    return np.exp(expo) * np.exp(1j * theta)


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
        A = _coherent_amplitude_matrix(b.basis, vs)
        probs = b.boltzmann / blocks.Z
        if b.vectors is None:
            out += np.abs(A) ** 2 @ probs
        else:
            overlaps = A @ b.vectors.conj()
            out += np.abs(overlaps) ** 2 @ probs
    return out / (varsigma * math.pi) ** J


def husimi_density(blocks: GibbsStateBlocks, varsigma: float, u) -> float:
    """Lower-symbol density at a single field u."""
    return float(husimi_density_batch(blocks, varsigma, np.asarray(u)[None, :])[0])


def _is_occupation_diagonal(blocks: GibbsStateBlocks) -> bool:
    return all(b.vectors is None for b in blocks.blocks)


def sample_husimi(blocks: GibbsStateBlocks, varsigma: float, n_samples: int,
                  rng: np.random.Generator, max_tries: int = 200000) -> np.ndarray:
    """Exact draws from the lower symbol of a block state.

    Occupation-diagonal states sample in product form: conditionally on the
    occupation vector nu, each |v_j|^2 is Gamma(nu_j + 1) with uniform
    phase, and u = sqrt(varsigma) v.  General blocks fall back to per-
    eigenstate rejection against the radial envelope, whose acceptance
    rate is the reciprocal sector dimension.
    """
    J = blocks.params.J
    out = np.empty((n_samples, J), dtype=complex)

    if _is_occupation_diagonal(blocks):
        atoms = []
        weights = []
        for b in blocks.blocks:
            if b.weight == 0.0:
                continue
            p = b.boltzmann / blocks.Z
            atoms.append(b.basis.occupations)
            weights.append(p)
        occs = np.concatenate(atoms, axis=0)
        probs = np.concatenate(weights)
        probs = probs / probs.sum()
        choice = rng.choice(len(probs), size=n_samples, p=probs)
        nu = occs[choice]
        radii_sq = rng.gamma(shape=nu + 1.0)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=nu.shape)
        out[:] = np.sqrt(varsigma * radii_sq) * np.exp(1j * phases)
        return out

    # general block state: mixture over eigenstates + rejection
    entries = []
    probs = []
    for bi, b in enumerate(blocks.blocks):
        if b.weight == 0.0:
            continue
        p = b.boltzmann / blocks.Z
        for i in range(len(p)):
            if p[i] > 0:
                entries.append((bi, i))
                probs.append(p[i])
    probs = np.asarray(probs)
    probs = probs / probs.sum()
    picks = rng.choice(len(probs), size=n_samples, p=probs)
    for s, pick in enumerate(picks):
        bi, i = entries[pick]
        b = blocks.blocks[bi]
        n = b.n
        basis = b.basis
        if b.vectors is None:
            # occupation eigenstate: per-mode radial Gamma, uniform phases
            nu = basis.occupations[i]
            radii_sq = rng.gamma(shape=nu + 1.0)
            phases = rng.uniform(0.0, 2.0 * np.pi, size=J)
            out[s] = np.sqrt(varsigma * radii_sq) * np.exp(1j * phases)
            continue
        psi = b.vectors[:, i]
        for _ in range(max_tries):
            g = rng.standard_normal(J) + 1j * rng.standard_normal(J)
            omega = g / np.linalg.norm(g)
            s_rad = rng.gamma(shape=n + J)
            # acceptance |<psi, omega^{tensor n}>|^2 <= 1; mean rate 1/dim
            accept = abs(np.vdot(psi, _tensor_power_coeffs(basis, omega))) ** 2
            if rng.uniform() < accept:
                out[s] = math.sqrt(varsigma * s_rad) * omega
                break
        else:
            raise QuadratureFailureError("husimi rejection sampler stalled")
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
        amp = coh.amps[b.n]
        if b.vectors is None:
            lhs += b.cutoff_value * float(np.sum(np.exp(-b.energies) * np.abs(amp) ** 2))
        else:
            rot = b.vectors.conj().T @ amp
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
        t = _tensor_power_coeffs(b.basis, direction)
        if b.vectors is None:
            quad = float(np.sum(np.exp(-b.energies) * np.abs(t) ** 2))
        else:
            rot = b.vectors.conj().T @ t
            quad = float(np.sum(np.exp(-b.energies) * np.abs(rot) ** 2))
        rhs += pmf * b.cutoff_value * quad
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
    dimension) and estimates it by direct sampling.
    """
    D = math.comb(n + J - 1, n)
    rng = np.random.default_rng(seed)
    logfac_n = special.gammaln(n + 1.0)
    tot = tot_sq = 0.0
    chunk = 1 << 15
    left = n_samples
    while left > 0:
        m = min(chunk, left)
        v = (rng.standard_normal((m, J)) + 1j * rng.standard_normal((m, J))) / math.sqrt(2.0 * tau)
        s = np.sum(np.abs(v) ** 2, axis=1)
        w = np.array([G(x) for x in s]) * np.exp(n * np.log(tau * s) - logfac_n)
        tot += float(np.sum(w))
        tot_sq += float(np.sum(w * w))
        left -= m
    mean = tot / n_samples
    var = max(tot_sq / n_samples - mean**2, 0.0)
    return MCEstimate(value=mean / D, stderr=math.sqrt(var / n_samples) / D,
                      n_samples=n_samples, seed=seed)


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
