"""Classical side: Gaussian free field on the mode window, interaction
energies, importance-sampling estimators, and the exact mass law.

The free measure factorizes over modes: |a_k|^2 ~ Exp(lambda_k) with an
independent uniform phase, i.e. Re and Im of a_k are independent centered
Gaussians with variance 1/(2*lambda_k).  Every estimator scores the weight
e^{E(u)} f(||u||^2), f a cutoff that vanishes above its K^2 (sharp at K_s
for the subcritical moment).  Its draw takes |a_0|^2 first and completes only
the rows whose zero mode alone stays within K^2; a row above K^2 scores
exactly 0 unevaluated.  Only the rows within K^2 go on: the draw gathers
them once and hands the estimator core (rows, a, b), their indices in the
shard and their per-row numerator and denominator, and the core sums each
row group of the shard over those rows alone, every other row counting as
a = b = 0 (b = 1 where the denominator is the plain count).  The rows that
carry weight are exact free draws, so error bars are honest, and
reproducibility is bit-exact for a fixed (seed, n_samples, params).

The shards run on min(threads, full shards) threads, the caller's among
them, `threads` defaulting to every usable core (USABLE_CORES); the pool
lives for one call, and a call of at most one full shard runs serially.  Each shard's generator
is spawned from the seed and the shards are merged in order, so every
estimate is bit-identical for any thread count.

Both sextic energies are trigonometric polynomials of degree 6*k_max in x,
so the mean over M = 6*k_max + 1 grid points integrates them exactly.  The
smeared density w_eps * |u|^2 on that grid is |u|^2 times a real M x M
circulant built from w_hat(eps*m) = sinc(eps*m), the box kernel's
coefficients at range eps, at the 4*k_max + 1 modes of |u|^2.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, NumericalFailureError, UnsupportedOrderError
from .model import CutoffProfile, ModelParams, eigenvalues, kernel_fourier, mode_numbers

__all__ = [
    "MCEstimate",
    "sample_free_fields",
    "local_energy_batch",
    "hartree_energy_batch",
    "classical_partition",
    "partition_ratio",
    "classical_moment_matrix",
    "mass_density_charfn",
    "capped_partition",
    "subcritical_moment",
]

# the cores this process may run on: the default pool size of every estimator
USABLE_CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)


@dataclass(frozen=True)
class MCEstimate:
    """Monte-Carlo value with standard error; the return type of every
    stochastic estimator here."""

    value: float
    stderr: float
    n_samples: int
    seed: int


def sample_free_fields(k_max: int, n_samples: int, rng: np.random.Generator,
                       max_mass: float) -> np.ndarray:
    """Draw (n_samples, J) coefficient rows of the free Gaussian measure,
    complete wherever the mass can be at most `max_mass` (math.inf:
    everywhere).

    One standard_exponential call draws every row's r_0 = |a_0|^2 ~
    Exp(lambda_0) and stores the real a_0 = sqrt(r_0).  The rows with
    a_0^2 <= max_mass then take all J modes from one standard_normal call
    (Re and Im of each mode interleaved, scaled to variance 1/(2 lambda_k)),
    and their a_0 is rescaled to modulus sqrt(r_0); a complex Gaussian's
    phase is uniform and independent of its modulus, so these rows are
    exact free draws.  Every other row is zero but for its real a_0, and its
    mass a_0^2, exactly what a caller recomputes from the row, exceeds
    max_mass.  So the mean of any weight that vanishes above max_mass is
    that of the plain free draw.  Raises InvalidConfigError for k_max < 0,
    n_samples < 0 or a NaN max_mass.
    """
    if k_max < 0 or n_samples < 0 or np.isnan(max_mass):
        raise InvalidConfigError(
            f"need k_max >= 0, n_samples >= 0 and a non-NaN max_mass, got "
            f"k_max={k_max}, n_samples={n_samples}, max_mass={max_mass}")
    lam = eigenvalues(k_max)
    a0 = rng.standard_exponential(n_samples)
    a0 /= lam[k_max]
    np.sqrt(a0, out=a0)
    rows = np.flatnonzero(a0 * a0 <= max_mass)
    full = rng.standard_normal((len(rows), 2 * len(lam)))
    full *= np.repeat(1.0 / np.sqrt(2.0 * lam), 2)
    full = full.view(complex)
    scale = a0[rows]
    np.divide(scale, np.abs(full[:, k_max]), out=scale)
    full[:, k_max] *= scale
    out = np.zeros((n_samples, len(lam)), dtype=complex)
    out[:, k_max] = a0
    out[rows] = full
    return out


# ------------------------------------------------------------------
# interaction energies (exact quadrature for trigonometric polynomials)
# ------------------------------------------------------------------

_ENERGY_ROWS = 4096  # rows per block of _sextic_energy: bounds each thread's working set


def _sextic_energy(coeffs: np.ndarray, w_hat=None) -> np.ndarray:
    """(1/6) * mean over M grid points of conv^2 * rho, rho = |u|^2, with
    conv = rho @ C, C[x, y] = (1/M) sum_{|m| <= 2k_max} w_hat(m) cos(2 pi m (x - y)).

    The rows are evaluated in blocks of _ENERGY_ROWS, each row by itself.
    w_hat=None is w_hat = 1, for which conv = rho.  Raises InvalidConfigError
    unless coeffs is one row or a stack of rows of 2k_max+1 mode coefficients.
    """
    coeffs = np.atleast_2d(coeffs)
    if coeffs.ndim > 2:
        raise InvalidConfigError(f"need one row or a stack of rows, got shape {coeffs.shape}")
    if coeffs.shape[1] % 2 == 0:
        raise InvalidConfigError(f"rows need 2k_max+1 coefficients, got {coeffs.shape[1]}")
    k_max = (coeffs.shape[1] - 1) // 2
    M = 6 * k_max + 1
    x = np.arange(M) / M
    waves = np.exp(2j * np.pi * np.outer(mode_numbers(k_max), x))
    circ = None
    if w_hat is not None:
        m = np.arange(-2 * k_max, 2 * k_max + 1)
        circ = np.cos(2.0 * np.pi * np.subtract.outer(x, x)[..., None] * m) @ w_hat(m) / M
    out = np.empty(len(coeffs))
    for lo in range(0, len(coeffs), _ENERGY_ROWS):
        u = coeffs[lo:lo + _ENERGY_ROWS] @ waves
        rho = u.real**2 + u.imag**2
        conv = rho if circ is None else rho @ circ
        out[lo:lo + _ENERGY_ROWS] = np.einsum("ij,ij,ij->i", conv, conv, rho)
    return out / (6.0 * M)


def local_energy_batch(coeffs: np.ndarray) -> np.ndarray:
    """(1/6) * integral of |u|^6, exact on the default grid."""
    return _sextic_energy(coeffs)


def hartree_energy_batch(coeffs: np.ndarray, eps: float) -> np.ndarray:
    """(1/6) * integral of (w_eps * |u|^2)^2 |u|^2 by one real circulant product.

    |u|^2 has the 4k_max+1 modes |m| <= 2k_max, so convolving it with the
    periodized box kernel of range eps is a per-mode multiplication by
    w_hat(eps*m) = sinc(eps*m); on the grid that is a product with a real
    M x M circulant, M = 6k_max+1, the fewest points that integrate the
    degree-6k_max result.
    """
    return _sextic_energy(coeffs, lambda m: kernel_fourier(eps * m))


# ------------------------------------------------------------------
# importance-sampling machinery
# ------------------------------------------------------------------

_SHARD = 1 << 16
_GROUPS = 16  # row groups per shard, the jackknife's deletion units


def _map_shards(seed: int, n_samples: int, fn, threads: int = 1) -> list:
    """Run fn(size, rng) over shards of at most _SHARD rows, each with its
    own generator spawned from `seed`.

    The shards run on min(threads, full shards) threads, and serially in
    this thread when that is at most one: a single full shard leaves a
    second thread nothing to overlap.  This thread is one of them and takes
    shards from the same queue as a pool of the others that lives for this
    call only; its malloc arena is warm from before the call, where a pool
    thread's grows a shard's arrays anew.  Results come back in shard order
    whatever the execution order, so the merged estimate is bit-identical
    for any thread count.
    """
    full, rem = divmod(n_samples, _SHARD)
    sizes = [_SHARD] * full + ([rem] if rem else [])
    seqs = np.random.SeedSequence(seed).spawn(len(sizes))
    jobs = [(size, np.random.default_rng(sq)) for size, sq in zip(sizes, seqs)]
    workers = min(threads, full)
    if workers <= 1:
        return [fn(size, rng) for size, rng in jobs]
    results, pending, lock = [None] * len(jobs), iter(range(len(jobs))), threading.Lock()

    def work():
        while True:
            with lock:
                i = next(pending, None)
            if i is None:
                return
            results[i] = fn(*jobs[i])

    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        helpers = [pool.submit(work) for _ in range(workers - 1)]
        work()
        for helper in helpers:
            helper.result()
    return results


def _interaction_energy(interaction: str, eps: float):
    """Energy of coefficient rows under a named interaction (None for "none"),
    looked up in this module at each call, so a rebound attribute sees it."""
    energies = {"none": None, "hartree": lambda coeffs: hartree_energy_batch(coeffs, eps),
                "local": lambda coeffs: local_energy_batch(coeffs)}
    if interaction not in energies:
        raise InvalidConfigError(f"unknown interaction {interaction!r}")
    return energies[interaction]


def _weight(coeffs, w, f):
    """Score of a plain weighted mean: a = w, b = 1."""
    return w, None


def _weighted_draw(k_max: int, energy, cutoff: CutoffProfile, score=_weight):
    """draw(size, rng) for _mc_ratio: free rows weighted by w = e^{energy} * f,
    f = cutoff(mass), scored by score(coeffs, w, f) -> (a, b).

    Rows are drawn gated at cutoff.support_bound.  The rows whose mass is at
    most that bound are gathered once, and f, the energy, the weight and the
    score see those rows only; every other row has f = w = 0, and its energy,
    which can overflow exp, is never formed.  The draw returns (rows, a, b):
    the gathered rows' indices among the `size` drawn, in increasing order,
    and the score on them.  score must vanish with w and f, so that every
    other row has a = b = 0 (b = 1 for b None).  energy None is the weight f.
    """
    bound = cutoff.support_bound

    def draw(size, rng):
        coeffs = sample_free_fields(k_max, size, rng, bound)
        x = coeffs.view(float)
        mass = np.einsum("ij,ij->i", x, x)
        rows = np.flatnonzero(mass <= bound)
        # the energy and the score are the draw's memory peaks: hold no
        # full-size row array over either
        live = coeffs[rows]
        del coeffs, x
        f = cutoff(mass[rows])
        del mass
        w = f if energy is None else np.exp(energy(live)) * f
        return (rows, *score(live, w, f))

    return draw


def _group_sums(x: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Sums of x over the runs x[starts[i]:starts[i+1]], the last run ending
    at len(x); an empty run sums to exactly 0."""
    out = np.zeros((len(starts),) + x.shape[1:], dtype=x.dtype)
    full = starts < np.append(starts[1:], len(x))
    if full.any():
        # reduceat repeats x[i] for an empty run and rejects i == len(x):
        # sum over the nonempty runs' starts, which end where the next begins
        out[full] = np.add.reduceat(x, starts[full], axis=0)
    return out


def check_n_samples(n, least: int) -> None:
    """Raise InvalidConfigError unless the sample count n is an int (or a
    numpy integer) of at least `least`."""
    if not isinstance(n, (int, np.integer)):
        raise InvalidConfigError(f"n_samples must be an integer, got {n!r}")
    if n < least:
        raise InvalidConfigError(f"n_samples must be >= {least}, got {n}")


def _mc_ratio(seed: int, n: int, draw, threads: int):
    """The estimator core: derived-seed shards -> row-group sums -> delta method.

    draw(size, rng) returns (rows, a, b) for `size` of the n free-field rows:
    rows indexes, in increasing order, the rows that may carry weight; a is
    their real per-row numerator, shape (len(rows),) or (len(rows), J); b is
    their real per-row denominator, shape (len(rows),), or None for b = 1 on
    every row.  Every other row has a = 0 and b = 0 (b = 1 for None).  Each
    shard is cut into _GROUPS contiguous row groups (fewer for a short
    shard), and each group sums over its listed rows only.

    Returns the ratio of means E[a] / E[b], its delta-method standard error
    (entrywise for array a), and the sums of a and of b over each row group
    of each shard, in shard order, for callers that jackknife.  Every sum is
    the same elementwise product summed the same way, so a == b gives a
    ratio of exactly 1 and a standard error of exactly 0.  Raises
    InvalidConfigError for a non-integer n, n < 2 or threads < 1, and
    NumericalFailureError for a zero mean b.
    """
    check_n_samples(n, 2)
    if not threads >= 1:
        raise InvalidConfigError(f"threads must be >= 1, got {threads}")

    def shard(size, rng):
        rows, a, b = draw(size, rng)
        g = min(_GROUPS, size)
        edges = np.arange(g) * size // g
        starts = np.searchsorted(rows, edges)
        ga, gaa = _group_sums(a, starts), _group_sums(a * a, starts)
        if b is None:
            counts = np.diff(edges, append=size).astype(float)
            return ga, gaa, counts, counts, ga
        return (ga, gaa, *(_group_sums(x, starts) for x in (b, b * b, (a.T * b).T)))

    parts = _map_shards(seed, n, shard, threads)
    ga, gaa, gb, gbb, gab = (np.concatenate([p[i] for p in parts]) for i in range(5))
    sa, saa, sb, sbb, sab = (g.sum(axis=0) for g in (ga, gaa, gb, gbb, gab))
    ma, mb = sa / n, sb / n
    if not mb > 0.0:
        raise NumericalFailureError(f"mean weight {mb}: no sample carried weight")
    r = ma / mb
    var_a = np.maximum(saa / n - ma * ma, 0.0)
    var_b = max(sbb / n - mb * mb, 0.0)
    cov_ab = sab / n - ma * mb
    var_r = np.maximum(var_a - 2.0 * r * cov_ab + r * r * var_b, 0.0)
    return r, np.sqrt(var_r / n) / mb, ga, gb


def _mc_estimate(seed: int, n_samples: int, draw, threads: int) -> MCEstimate:
    value, stderr, _, _ = _mc_ratio(seed, n_samples, draw, threads)
    return MCEstimate(value=float(value), stderr=float(stderr),
                      n_samples=n_samples, seed=seed)


def classical_partition(params: ModelParams, interaction: str, cutoff: CutoffProfile,
                        n_samples: int, seed: int, threads: int = USABLE_CORES) -> MCEstimate:
    """Importance-sampling estimate of E_mu0[ e^{energy} * cutoff(mass) ].

    interaction: "none" (weight e^0), "hartree" (range-eps energy), or
    "local" (sextic energy).  Every cutoff vanishes above K^2, which keeps
    the focusing weights integrable.
    """
    draw = _weighted_draw(params.k_max, _interaction_energy(interaction, params.eps), cutoff)
    return _mc_estimate(seed, n_samples, draw, threads)


def partition_ratio(params: ModelParams, interaction: str, cutoff: CutoffProfile,
                    n_samples: int, seed: int, threads: int = USABLE_CORES) -> MCEstimate:
    """Normalized partition value E[e^W f] / E[f] on shared samples.

    This is the classical quantity matched by the quantum ratio of
    cutoff partition functions; the standard error comes from the delta
    method for a ratio of correlated means.
    """
    draw = _weighted_draw(params.k_max, _interaction_energy(interaction, params.eps), cutoff,
                          lambda coeffs, w, f: (w, f))
    return _mc_estimate(seed, n_samples, draw, threads)


def classical_moment_matrix(params: ModelParams, interaction: str,
                            cutoff: CutoffProfile, k: int, n_samples: int,
                            seed: int, threads: int = USABLE_CORES):
    """First moment matrix M[i,j] = E_mu[ alpha_i * conj(alpha_j) ] of the
    reweighted measure, which is invariant under the translations
    alpha_k -> e^{2 pi i k y} alpha_k: M is diagonal, its off-diagonal
    entries exactly 0, and each row is scored by its mode masses only.

    Returns (M, M_stderr, group_nums, group_dens): the real diagonal J x J
    ratio of weighted mode-mass means to the weight mean, its diagonal
    delta-method error, and the mode-mass sums, shape (G, J), and weight
    sums, shape (G,), over each row group, so callers can jackknife
    nonlinear functionals (trace norms) of M.  Only k = 1 is supported.
    """
    if k != 1:
        raise UnsupportedOrderError(f"moment matrices support k = 1, got {k}")
    draw = _weighted_draw(params.k_max, _interaction_energy(interaction, params.eps), cutoff,
                          lambda coeffs, w, f: (w[:, None] * (coeffs.real**2 + coeffs.imag**2), w))
    M, M_err, group_nums, group_dens = _mc_ratio(seed, n_samples, draw, threads)
    return np.diag(M), np.diag(M_err), group_nums, group_dens


# ------------------------------------------------------------------
# exact mass law of the free measure
# ------------------------------------------------------------------

_EXP_UNDERFLOW = 1075 * np.log(2.0)  # e^{-y} rounds to 0 for every y above this


def mass_density_charfn(k_max: int, x_grid: np.ndarray) -> np.ndarray:
    """Density of the field mass on the mode window under the free measure.

    The mass is a sum of independent exponentials, rate lambda_0 once and
    each lambda_k (k >= 1) twice, so its characteristic function
    prod_j (r_j/(r_j - i t))^{m_j} splits into partial fractions and the
    density is sum_j e^{-r_j x} (a_j + b_j x) on x >= 0.  With
    c_j = r_j^{m_j} prod_{i != j} (r_i/(r_i - r_j))^{m_i}: a_0 = c_0, b_0 = 0
    at the simple pole, and b_j = c_j, a_j = -c_j sum_{i != j} m_i/(r_i - r_j)
    at the double ones.  The density is exactly 0 where e^{-lambda_0 x}
    underflows, x = inf included.  Raises InvalidConfigError for k_max < 0
    and for a NaN point.
    """
    if k_max < 0:
        raise InvalidConfigError(f"k_max must be >= 0, got {k_max}")
    x = np.asarray(x_grid, dtype=float)
    if np.isnan(x).any():
        raise InvalidConfigError("mass density evaluated at a NaN point")
    r = eigenvalues(k_max)[k_max:]  # lambda_0, lambda_1, ..., lambda_{k_max}
    m = np.full(len(r), 2.0)
    m[0] = 1.0
    off = ~np.eye(len(r), dtype=bool)
    d = r[None, :] - r[:, None] + ~off  # d[j, i] = r_i - r_j, 1 on the diagonal
    c = r**m * np.prod(np.where(off, r / d, 1.0) ** m, axis=1)
    a = c * np.where(m == 2.0, -np.sum(off * m / d, axis=1), 1.0)
    b = np.where(m == 2.0, c, 0.0)
    live = (x >= 0) & (r[0] * x <= _EXP_UNDERFLOW)
    xc = np.where(live, x, 0.0)[..., None]
    dens = np.sum(np.exp(-r * xc) * (a + b * xc), axis=-1) * live
    # the partial fractions cancel to rounding near x = 0
    return np.clip(dens, 0.0, None)


# ------------------------------------------------------------------
# capped and subcritical estimators
# ------------------------------------------------------------------

def capped_partition(params: ModelParams, R_cap: float, cutoff: CutoffProfile,
                     n_samples: int, seed: int, threads: int = USABLE_CORES) -> MCEstimate:
    """E_mu0[ e^{min(hartree energy, R_cap)} * cutoff(mass) ].

    A monotone-in-R_cap lower bound for the uncapped partition value; the
    cap keeps the importance weights bounded by e^{R_cap} even above the
    mass threshold.  Raises InvalidConfigError unless R_cap >= 0.
    """
    if not R_cap >= 0:
        raise InvalidConfigError(f"R_cap must be >= 0, got {R_cap}")
    draw = _weighted_draw(
        params.k_max, lambda coeffs: np.minimum(hartree_energy_batch(coeffs, params.eps), R_cap),
        cutoff)
    return _mc_estimate(seed, n_samples, draw, threads)


def subcritical_moment(params: ModelParams, K_s: float, varsigma: float,
                       n_samples: int, seed: int, threads: int = USABLE_CORES) -> MCEstimate:
    """E_mu0[ exp((1+varsigma)/6 * ||u||_L6^6) * 1_{mass <= K_s^2} ] on the
    mode window; finite uniformly in the window size when K_s is below the
    mass threshold.  The weight is (1+varsigma) times the local energy under
    the sharp cutoff at K_s, so K_s <= 0 raises InvalidConfigError, as do
    a K_s not below the threshold and a non-finite varsigma."""
    from .model import critical_mass

    if not np.isfinite(varsigma):
        raise InvalidConfigError(f"varsigma must be finite, got {varsigma}")
    if not K_s < critical_mass():
        raise InvalidConfigError(
            f"K_s = {K_s} is not below the threshold {critical_mass():.6f}"
        )
    draw = _weighted_draw(
        params.k_max, lambda coeffs: (1.0 + varsigma) * local_energy_batch(coeffs),
        CutoffProfile.sharp(K_s))
    return _mc_estimate(seed, n_samples, draw, threads)
