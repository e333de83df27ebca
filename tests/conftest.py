"""Shared independent oracles and the statistical gate budget for the
test suite.

The oracles deliberately avoid the library's own code paths: position-space
quadrature for the three-body kernel, dense tensor embeddings for partial
traces, and brute-force summation for spectral quantities.

Seeded statistical gates share one false-alarm budget.  The whole suite may
go red by chance with probability at most SUITE_ALPHA = 1e-3.  The budget is
split over the N_GATES gate evaluations of one run by Bonferroni, which
needs no independence between them (they mostly share one seeded stream),
so each evaluation gets GATE_ALPHA = SUITE_ALPHA / N_GATES.  A Gaussian z
passes when |z| <= GATE_Z = norm.isf(GATE_ALPHA / 2).  A one-sided gate
(the Berezin-Lieb bound) uses the same GATE_Z and so spends only half its
share.  A circular complex Gaussian mean Z, scaled so that E|Z|^2 = 1, has
|Z|^2 ~ Exp(1) and passes when |Z| <= GATE_R = sqrt(ln(1 / GATE_ALPHA)).
A test whose null law is fully specified (a KS test against an exact CDF)
passes when its p-value is at least GATE_ALPHA.

Gate evaluations per run, by test:

    test_cgibbs.py
        TestSampler::test_moments                                    5
            (1 mean |a_0|^2, 3 complex means on GATE_R, 1 mean mass)
        TestSampler::test_gated_rows_contract                        2
            (1 KS against the exact CDF, 1 circular mean on GATE_R)
        TestClassicalPartition::test_mass_probability_vs_inverted_cdf 1
        TestClassicalPartition::test_local_regression_baseline       1
        TestPartitionRatio::test_single_mode_quadrature_oracle       1
        TestMomentMatrix::test_free_measure_diagonal                 3
            (3 diagonal; the 6 off-diagonal entries are exact zeros)
        TestMassDensity::test_histogram_agreement                   40
        TestCappedPartition::test_large_cap_matches_uncapped         1
    test_semiclassics.py
        TestCoherentVector::test_resolution_of_identity_mc          15
            (5 real diagonal, 10 complex off-diagonal on GATE_R)
        TestHusimi::test_normalization_mc                            1
        TestHusimi::test_sampler_matches_density_moments             2
            (exact mean and variance, KS against the exact CDF)
        TestSampler::test_pure_eigenstate_anti_normal_moments        9
            (3 means of |u_i|^2, 6 of |u_i|^2 |u_j|^2 with i <= j)
        TestDeFinetti::test_husimi_moment_matches_mc                 3
        TestBerezinLieb::test_identical_states                       1
        TestBerezinLieb::test_two_free_states (one-sided)            1
        TestBerezinLieb::test_diagonal_pair_sweep (one-sided)       30
                                                                   ---
                                                                   116

Adding a seeded gate, or changing how often one is evaluated, means updating
N_GATES and this tally in the same change; the gate widths then follow.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.stats import norm

from torusgibbs import semiclassics as sc
from torusgibbs.model import kernel_fourier_table

SUITE_ALPHA = 1e-3
N_GATES = 116
GATE_ALPHA = SUITE_ALPHA / N_GATES
GATE_Z = float(norm.isf(GATE_ALPHA / 2.0))
GATE_R = math.sqrt(math.log(1.0 / GATE_ALPHA))


def table_cutoff(x, values):
    """A mass cutoff read off a table: piecewise linear through the nodes
    (x, values), and 0 beyond the last node."""
    return lambda s: np.interp(s, x, values, right=0.0)


def box_periodized(x, eps, a=0.5):
    """Periodized box kernel, evaluated directly from its definition."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for m in range(-2, 3):
        y = (x + m) / eps
        out += (np.abs(y) <= a) / (2.0 * a * eps)
    return out


def three_body_entry_quadrature(basis, vi, vj, eps, a=0.5, n_gl=24, n_c=16):
    """<v_i| W |v_j> by position-space quadrature with the coordinates
    changed so the kernel support is resolved exactly.

    For each of the three kernel terms, the 'center' coordinate is
    integrated on a uniform grid (exact for trig polynomials) and the two
    difference coordinates on Gauss-Legendre nodes inside the kernel
    support, where the box kernel is constant.
    """
    modes = list(range(-basis.k_max, basis.k_max + 1))

    def sym_state(occ, X, Y, Z):
        ks = []
        for k, m in zip(modes, occ):
            ks += [k] * int(m)
        psi = np.zeros(np.broadcast(X, Y, Z).shape, dtype=complex)
        for p in set(itertools.permutations(ks)):
            psi += np.exp(2j * np.pi * (p[0] * X + p[1] * Y + p[2] * Z))
        norm = np.prod([math.factorial(int(m)) for m in occ])
        return norm / math.sqrt(math.factorial(3) * norm) * psi

    gl_x, gl_w = np.polynomial.legendre.leggauss(n_gl)
    s_nodes = gl_x * (eps * a)
    s_w = gl_w * (eps * a)
    c_nodes = np.arange(n_c) / n_c
    S, T, C = np.meshgrid(s_nodes, s_nodes, c_nodes, indexing="ij")
    WS = (s_w[:, None, None] * s_w[None, :, None] / n_c) / (2.0 * a * eps) ** 2

    def term(Xs, Ys, Zs):
        return np.sum(WS * np.conj(sym_state(vi, Xs, Ys, Zs)) * sym_state(vj, Xs, Ys, Zs))

    tot = term(C, C - S, C - T) + term(C - S, C, C - T) + term(C - S, C - T, C)
    return tot / 3.0


def interaction_loop_oracle(basis, spec, eps):
    """The three-body interaction on one sector by its defining sum, one
    ordered mode sextuple at a time:

        (1/3!) sum V adag_{k1} adag_{k2} adag_{k3} a_{k4} a_{k5} a_{k6}

    over k1+k2+k3 = k4+k5+k6, with V = w_hat(eps*(k5-k2)) * w_hat(eps*(k6-k3)).
    Each term is applied to each basis state by explicit ladder steps, and
    the image is found by a tuple lookup, not by the library's rank.
    """
    n, J, k_max = basis.n, basis.J, basis.k_max
    W = np.zeros((basis.dim, basis.dim))
    if n < 3:
        return W
    wtab = kernel_fourier_table(spec, eps, 2 * k_max).tolist()
    off = 2 * k_max
    # ordered creation triples (p1, p2, p3) by their total, momentum conserved
    creations = {}
    for p1, p2, p3 in itertools.product(range(J), repeat=3):
        creations.setdefault(p1 + p2 + p3, []).append((p1, p2, p3))
    states = [tuple(int(v) for v in row) for row in basis.occupations]
    index = {state: i for i, state in enumerate(states)}
    for col, base in enumerate(states):
        image = {}  # row -> W[row, col], summed in loop order
        for p6 in range(J):  # ordered annihilation triples (p4, p5, p6)
            if base[p6] == 0:
                continue
            s6 = list(base)
            a6 = math.sqrt(s6[p6])
            s6[p6] -= 1
            for p5 in range(J):
                if s6[p5] == 0:
                    continue
                s5 = list(s6)
                a5 = a6 * math.sqrt(s5[p5])
                s5[p5] -= 1
                for p4 in range(J):
                    if s5[p4] == 0:
                        continue
                    s4 = list(s5)
                    amp_a = a5 * math.sqrt(s4[p4])
                    s4[p4] -= 1
                    for p1, p2, p3 in creations[p4 + p5 + p6]:
                        v = wtab[p5 - p2 + off] * wtab[p6 - p3 + off]
                        if v == 0.0:
                            continue
                        t = list(s4)
                        t[p3] += 1
                        b3 = math.sqrt(t[p3])
                        t[p2] += 1
                        b2 = math.sqrt(t[p2])
                        t[p1] += 1
                        b1 = math.sqrt(t[p1])
                        row = index[tuple(t)]
                        image[row] = image.get(row, 0.0) + v * amp_a * b1 * b2 * b3 / 6.0
        for row, val in image.items():
            W[row, col] = val
    return W


def embed_symmetric(basis, coeffs):
    """Dense tensor embedding of a sector-n coefficient vector into
    (C^J)^{tensor n}."""
    J = basis.J
    n = basis.n
    modes = range(J)
    dense = np.zeros((J,) * n, dtype=complex)
    for c, occ in zip(coeffs, basis.occupations):
        ks = []
        for pos, m in zip(modes, occ):
            ks += [pos] * int(m)
        perms = set(itertools.permutations(ks))
        amp = c / math.sqrt(math.factorial(n) * np.prod([math.factorial(int(m)) for m in occ]))
        amp *= np.prod([math.factorial(int(m)) for m in occ])
        for p in perms:
            dense[p] += amp
    return dense


def partial_trace_first(dense, keep=1):
    """Trace out all but the first `keep` legs of |psi><psi| built from a
    dense symmetric tensor."""
    n = dense.ndim
    J = dense.shape[0]
    psi = dense.reshape(J**keep, J ** (n - keep))
    return psi @ psi.conj().T


@pytest.fixture()
def rng():
    # function-scoped: every test sees the same fresh deterministic stream
    return np.random.default_rng(20260810)


def husimi_product_form_oracle(blocks, varsigma, n_samples, rng):
    """Lower-symbol draws of an occupation-diagonal block state in product
    form alone: pick an occupation vector nu with its Gibbs weight, then per
    mode a Gamma(nu_j + 1) squared radius and a uniform phase.  The sampler
    must reproduce these draws bit for bit on such states."""
    atoms, weights = [], []
    for b in blocks.blocks:
        if b.weight == 0.0:
            continue
        atoms.append(b.basis.occupations)
        weights.append(b.boltzmann / blocks.Z)
    occs = np.concatenate(atoms, axis=0)
    probs = np.concatenate(weights)
    probs = probs / probs.sum()
    nu = occs[rng.choice(len(probs), size=n_samples, p=probs)]
    radii_sq = rng.gamma(shape=nu + 1.0)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=nu.shape)
    return np.sqrt(varsigma * radii_sq) * np.exp(1j * phases)


def tensor_power_oracle(basis, v):
    """Coefficients sqrt(n!/prod nu!) * prod v_j^{nu_j} of v^{tensor n}, one
    complex power and one product per basis state."""
    out = np.empty(basis.dim, dtype=complex)
    for row, occ in enumerate(basis.occupations):
        amp = math.sqrt(math.factorial(basis.n)
                        / math.prod(math.factorial(int(m)) for m in occ))
        out[row] = amp * math.prod(complex(x) ** int(m) for x, m in zip(v, occ))
    return out


def husimi_eigenstate_picks(blocks, n_samples, rng):
    """The sampler's first draw: an eigenstate per sample with its Gibbs
    weight, each sector's eigenstates listed by their first stored row.
    Returns, per sample, the index of its sector among the live ones and its
    column there, whether that column has one stored entry, and, for those
    that do, the occupation row it stores."""
    live = [b for b in blocks.blocks if b.weight != 0.0]
    heads = [b.vectors.indices[b.vectors.indptr[:-1]] for b in live]
    order = [np.argsort(h, kind="stable") for h in heads]
    probs = np.concatenate([b.boltzmann[o] / blocks.Z for b, o in zip(live, order)])
    probs = probs / probs.sum()
    picks = rng.choice(len(probs), size=n_samples, p=probs)
    starts = np.cumsum([0] + [b.basis.dim for b in live])
    which = np.searchsorted(starts, picks, side="right") - 1
    column = np.concatenate(order)[picks]
    single = np.concatenate([np.diff(b.vectors.indptr)[o] == 1
                             for b, o in zip(live, order)])[picks]
    nu = np.concatenate([b.basis.occupations[h[o]]
                         for b, h, o in zip(live, heads, order)])[picks[single]]
    return which, column, single, nu


def husimi_dense_scoring_oracle(blocks, varsigma, n_samples, rng):
    """Lower-symbol draws of any block state, each rejection proposal read
    off its eigenvector's momentum block B, the rows of the sector whose
    total momentum is the eigenvector's.  A proposal picks a row nu of B
    uniformly, draws v with |v_j|^2 ~ Gamma(nu_j + 1) and a uniform phase,
    and is accepted with probability |<psi, c(v)>|^2 / sum_B |c_nu(v)|^2.
    The numerator is contracted over all dim amplitudes of the sector,
    through the dense eigenvector matrix, and the denominator is summed over
    the rows of B found from basis.momenta.  It consumes the generator
    exactly as the sampler does, so the sampler, which reads B off its
    sparse layout, must reproduce these draws bit for bit.  The amplitudes
    come from the library's kernel, which test_batched_tensor_power_coeffs
    holds to tensor_power_oracle."""
    J = blocks.params.J
    live = [b for b in blocks.blocks if b.weight != 0.0]
    which, column, single, nu = husimi_eigenstate_picks(blocks, n_samples, rng)
    out = np.empty((n_samples, J), dtype=complex)
    radii_sq = rng.gamma(shape=nu + 1.0)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=nu.shape)
    out[single] = np.sqrt(varsigma * radii_sq) * np.exp(1j * phases)

    for k, b in enumerate(live):
        pending = np.flatnonzero((which == k) & ~single)
        V = b.vectors.toarray()
        # each column's block: the rows whose total momentum is that of its
        # largest amplitude, listed first in basis order
        in_block = b.basis.momenta == b.basis.momenta[np.argmax(np.abs(V), axis=0)][:, None]
        block_rows = np.argsort(~in_block, axis=1, kind="stable")
        while pending.size:
            width = in_block[column[pending]].sum(axis=1).max()
            rows = pending[:max(1, sc._PROPOSAL_ENTRIES // width**2)]
            cols = column[rows]
            shape = (rows.size, width)
            pick = rng.integers(in_block[cols].sum(axis=1)[:, None], size=shape)
            nu = b.basis.occupations[np.take_along_axis(block_rows[cols], pick, axis=1)]
            radii_sq = rng.gamma(shape=nu + 1.0)
            uniform = rng.random(shape + (J + 1,))
            v = np.sqrt(radii_sq) * np.exp(2j * np.pi * uniform[..., :J])
            coeffs = sc._tensor_power_coeffs(b.basis.occupations,
                                             v / np.linalg.norm(v, axis=-1, keepdims=True))
            overlap = np.einsum("rqd,dr->rq", coeffs, V[:, cols])
            norm_sq = np.einsum("rqd,rd->rq", np.abs(coeffs) ** 2, in_block[cols].astype(float))
            accept = uniform[..., J] * norm_sq < np.abs(overlap) ** 2
            hit = accept.any(axis=1)
            first = accept.argmax(axis=1)[hit]
            out[rows[hit]] = math.sqrt(varsigma) * v[hit, first]
            pending = np.concatenate((pending[rows.size:], rows[~hit]))
    return out
