"""Shared independent oracles and the statistical gate budget for the
test suite.

The oracles deliberately avoid the library's own code paths: position-space
quadrature for the three-body kernel, dense tensor embeddings for partial
traces, brute-force summation for spectral quantities, and ODE shooting
for the norms of the quintic ground state.

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
from scipy import special
from scipy.integrate import solve_ivp
from scipy.stats import norm

from torusgibbs import semiclassics as sc
from torusgibbs.cgibbs import _GROUPS, _SHARD
from torusgibbs.model import CutoffProfile

SUITE_ALPHA = 1e-3
N_GATES = 116
GATE_ALPHA = SUITE_ALPHA / N_GATES
GATE_Z = float(norm.isf(GATE_ALPHA / 2.0))
GATE_R = math.sqrt(math.log(1.0 / GATE_ALPHA))


def table_cutoff(x, values):
    """A mass cutoff read off a table: piecewise linear through the nodes
    (x, values), and 0 beyond the last node."""
    return lambda s: np.interp(s, x, values, right=0.0)


def sharp_through(n_max, tau):
    """The sharp cutoff that keeps sectors 0..n_max at tau and no more:
    K^2 tau = n_max + 1/2."""
    return CutoffProfile.sharp(math.sqrt((n_max + 0.5) / tau))


def box_periodized(x, eps):
    """Periodized box kernel w_eps, w = 1 on [-1/2, 1/2], evaluated directly
    from its definition."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for m in range(-2, 3):
        y = (x + m) / eps
        out += (np.abs(y) <= 0.5) / eps
    return out


def three_body_entry_quadrature(basis, vi, vj, eps, n_gl=24, n_c=16):
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
    s_nodes = gl_x * (eps / 2.0)
    s_w = gl_w * (eps / 2.0)
    c_nodes = np.arange(n_c) / n_c
    S, T, C = np.meshgrid(s_nodes, s_nodes, c_nodes, indexing="ij")
    WS = (s_w[:, None, None] * s_w[None, :, None] / n_c) / eps**2

    def term(Xs, Ys, Zs):
        return np.sum(WS * np.conj(sym_state(vi, Xs, Ys, Zs)) * sym_state(vj, Xs, Ys, Zs))

    tot = term(C, C - S, C - T) + term(C - S, C, C - T) + term(C - S, C - T, C)
    return tot / 3.0


def interaction_loop_oracle(basis, eps):
    """The three-body interaction on one sector by its defining sum, one
    ordered mode sextuple at a time:

        (1/3!) sum V adag_{k1} adag_{k2} adag_{k3} a_{k4} a_{k5} a_{k6}

    over k1+k2+k3 = k4+k5+k6, with V = w_hat(eps*(k5-k2)) * w_hat(eps*(k6-k3))
    and w_hat = sinc, the transform of the box w = 1 on [-1/2, 1/2].
    Each term is applied to each basis state by explicit ladder steps, and
    the image is found by a tuple lookup, not by the library's rank.
    """
    n, J, k_max = basis.n, basis.J, basis.k_max
    W = np.zeros((basis.dim, basis.dim))
    if n < 3:
        return W
    wtab = np.sinc(eps * np.arange(-2 * k_max, 2 * k_max + 1)).tolist()
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


def random_momentum_eigenvectors(basis, rng):
    """Random orthonormal basis of a sector made of momentum eigenvectors:
    a Haar-like orthogonal matrix on the rows of each total-momentum block,
    zero elsewhere, as a dense (dim, dim) array."""
    vecs = np.zeros((basis.dim, basis.dim))
    for k in np.unique(basis.momenta):
        rows = np.flatnonzero(basis.momenta == k)
        vecs[np.ix_(rows, rows)] = np.linalg.qr(rng.normal(size=(len(rows), len(rows))))[0]
    return vecs


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


def husimi_density_oracle(blocks, varsigma, us):
    """Lower-symbol densities (varsigma*pi)^{-J} <xi(v), Gamma xi(v)> at
    v = u/sqrt(varsigma), each sector's coherent amplitudes
    e^{-|v|^2/2} prod_j v_j^{nu_j} / sqrt(nu_j!) formed whole by direct
    complex powers, then contracted with the sector's eigenvectors and
    weighed with their Gibbs weights.  It shares no code with the library's
    tensor-power kernel or with the sector recurrence of
    husimi_density_batch."""
    vs = np.atleast_2d(np.asarray(us, dtype=complex)) / math.sqrt(varsigma)
    poisson = np.exp(-0.5 * np.sum(np.abs(vs) ** 2, axis=1))[:, None]
    out = np.zeros(len(vs))
    for b in blocks.blocks:
        occ = b.basis.occupations
        powers = vs[:, None, :] ** occ / np.sqrt(special.factorial(occ))  # (S, dim, J)
        amps = poisson * np.prod(powers, axis=-1)
        out += np.abs(amps @ b.vectors) ** 2 @ (b.boltzmann / blocks.Z)
    return out / (varsigma * math.pi) ** blocks.params.J


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


def full_row_mc_ratio(seed, n, draw):
    """The MC estimator core summed over every drawn row, zero rows included.

    Each shard's (rows, a, b) from draw(size, rng) is scattered into arrays
    over all `size` rows, a = b = 0 on the rows not listed (b = 1 on every
    row for b None), and each row group sums all of its rows.  Returns
    (ratio, stderr, group sums of a, group sums of b), or None when the mean
    b is 0.
    """
    sizes = [min(_SHARD, n - start) for start in range(0, n, _SHARD)]
    seqs = np.random.SeedSequence(seed).spawn(len(sizes))
    sums = []
    for size, seq in zip(sizes, seqs):
        rows, a, b = draw(size, np.random.default_rng(seq))
        A = np.zeros((size,) + a.shape[1:], dtype=a.dtype)
        A[rows] = a
        B = np.ones(size) if b is None else np.zeros(size)
        B[rows] = 1.0 if b is None else b
        g = min(_GROUPS, size)
        starts = np.arange(g) * size // g
        sums.append([np.add.reduceat(x, starts, axis=0)
                     for x in (A, A * A, B, B * B, (A.T * B).T)])
    ga, gaa, gb, gbb, gab = (np.concatenate(parts) for parts in zip(*sums))
    ma, maa, mb, mbb, mab = (x.sum(axis=0) / n for x in (ga, gaa, gb, gbb, gab))
    if mb == 0.0:
        return None
    r = ma / mb
    var_a, var_b = np.maximum(maa - ma * ma, 0.0), max(mbb - mb * mb, 0.0)
    var = np.maximum(var_a - 2.0 * r * (mab - ma * mb) + r * r * var_b, 0.0)
    return r, np.sqrt(var / n) / mb, ga, gb


def _shoot(A: float, x_end: float = 20.0):
    """Integrate Q'' = Q - Q^5 from Q(0)=A, Q'(0)=0; classify the escape.

    The conserved energy is p^2/2 - q^2/2 + q^6/6; the separatrix through
    the origin is the decaying profile.  Above it the trajectory crosses
    zero (A too large, +1); below it Q turns around while still positive
    (A too small, -1).
    """
    def rhs(x, y):
        q, p = y
        return [p, q - q**5]

    def cross_zero(x, y):
        return y[0]
    cross_zero.terminal = True
    cross_zero.direction = -1

    def turn_up(x, y):
        return y[1]
    turn_up.terminal = True
    turn_up.direction = 1

    sol = solve_ivp(rhs, (0.0, x_end), [A, 0.0], rtol=1e-12, atol=1e-14,
                    events=(cross_zero, turn_up), method="DOP853")
    if sol.t_events[0].size:
        return +1
    if sol.t_events[1].size:
        return -1
    return -1 if sol.y[0, -1] > 0 else +1


def shooting_norms(x_cut: float = 12.0):
    """Oracle for the closed forms of `model.soliton`, from the ODE alone:
    bisect the even ground state's height, then accumulate its L^2,
    H^1-seminorm, and L^6 integrals along the orbit.  Returns (height,
    ||Q||^2, ||Q'||^2, ||Q||_6^6)."""
    lo, hi = 1.2, 1.4
    if _shoot(lo) != -1 or _shoot(hi) != +1:
        raise AssertionError("shooting bracket does not straddle the ground state")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if _shoot(mid) == +1:
            hi = mid
        else:
            lo = mid
    A = 0.5 * (lo + hi)

    def rhs(x, y):
        q, p = y[0], y[1]
        return [p, q - q**5, q * q, p * p, q**6]

    sol = solve_ivp(rhs, (0.0, x_cut), [A, 0.0, 0.0, 0.0, 0.0],
                    rtol=1e-12, atol=1e-14, method="DOP853")
    q2, p2, q6 = (float(v) for v in sol.y[2:, -1])
    return A, 2.0 * q2, 2.0 * p2, 2.0 * q6  # even reflection
