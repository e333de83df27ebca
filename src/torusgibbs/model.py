"""Physical parameters, one-body spectrum, interaction kernel, cutoffs, soliton.

The one-body Hamiltonian is fixed as h = (1/2)(-d^2/dx^2 + 1) on the unit
torus, diagonal in the plane-wave basis e^{2*pi*i*k*x}.  The three-body
kernel is w_eps = eps^{-1} w(./eps) with w = 1 on [-1/2, 1/2], so its range
eps is its only parameter, and a state's mass bound is the support of the
`CutoffProfile` it is built with.  Everything downstream (Fock sectors,
Gibbs weights, Gaussian field samplers) consumes the data defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigError

__all__ = [
    "ModelParams",
    "CutoffProfile",
    "SolitonProfile",
    "eigenvalues",
    "kernel_fourier",
    "soliton",
    "critical_mass",
]


def mode_numbers(k_max: int) -> np.ndarray:
    """Integer modes retained by the truncation, ordered -k_max..k_max."""
    return np.arange(-k_max, k_max + 1)


def eigenvalues(k_max: int) -> np.ndarray:
    """Eigenvalues of h on the retained modes e^{2*pi*i*k*x}, in
    `mode_numbers` order: (1/2)((2*pi*k)^2 + 1)."""
    return 0.5 * ((2.0 * np.pi * mode_numbers(k_max)) ** 2 + 1.0)


@dataclass(frozen=True)
class ModelParams:
    """All physical and numerical knobs in one validated, immutable record.

    tau    : inverse semiclassical parameter; typical particle number ~ tau.
    eps    : interaction range of the smoothed three-body kernel, in (0, 1].
    eta    : smoothing width of the mass cutoff, in (0, K^2/2).
    K      : mass-cutoff level.
    k_max  : Fourier mode cutoff; retained one-body space has dimension
             J = 2*k_max + 1.
    n_max  : truncation bound, at least floor(K^2*tau); `build_gibbs`
             raises unless its cutoff vanishes at (n_max + 1)/tau.
    sector_dim_cap : bound on the top charged sector's dimension (`ladder_gram`
             densifies its dim x dim eigenvectors); `build_gibbs` raises
             ResourceLimitError before it builds anything.

    K and eta are only validated here.  A state's mass bound, and so its
    sectors, is the `CutoffProfile` passed to `build_gibbs`.
    """

    tau: float
    eps: float
    eta: float
    K: float
    k_max: int
    n_max: int
    sector_dim_cap: int = 5000

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise InvalidConfigError(f"tau must be finite and positive, got {self.tau}")
        if not 0 < self.eps <= 1:
            raise InvalidConfigError(f"eps must lie in (0, 1], got {self.eps}")
        if not (math.isfinite(self.K * self.K) and self.K > 0):
            raise InvalidConfigError(f"K must be positive with K^2 finite, got {self.K}")
        if not 0 < self.eta < 0.5 * self.K**2:
            raise InvalidConfigError(
                f"eta must lie in (0, K^2/2) = (0, {0.5 * self.K ** 2}), got {self.eta}"
            )
        if self.k_max < 0:
            raise InvalidConfigError(f"k_max must be >= 0, got {self.k_max}")
        if self.n_max < 1:
            raise InvalidConfigError(f"n_max must be >= 1, got {self.n_max}")
        if self.n_max < math.floor(self.K**2 * self.tau):
            raise InvalidConfigError(
                f"n_max = {self.n_max} is below floor(K^2*tau) = "
                f"{math.floor(self.K ** 2 * self.tau)}; truncation would be inexact"
            )

    @property
    def J(self) -> int:
        """Dimension of the retained one-body space."""
        return 2 * self.k_max + 1


# ------------------------------------------------------------------
# mass-cutoff profiles
# ------------------------------------------------------------------

# integral of exp(-1/(1 - t^2)) over (-1, 1), as scipy.integrate.quad returns it
_BUMP_NORM = 0.44399381616807865


def _bump(t: np.ndarray) -> np.ndarray:
    """Standard normalized bump on (-1, 1)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2)) / _BUMP_NORM
    return out


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Integral of the samples y from x[0] to each x[i] (0 at i = 0), by the
    unequal-interval Simpson rule of scipy.integrate.cumulative_simpson in
    its operation order, so the table is the same to the bit: each interval
    is integrated over the quadratic through it and its right neighbour,
    every second one through its left neighbour instead, and the last one
    that way too."""
    def first_intervals(y, dx):
        x21, x32 = dx[:-1], dx[1:]
        x21_x31 = x21 / (x21 + x32)
        x21x21_x31x32 = x21_x31 * (x21 / x32)
        return x21 / 6 * ((3 - x21_x31) * y[:-2] + (3 + x21x21_x31x32 + x21_x31) * y[1:-1]
                          - x21x21_x31x32 * y[2:])

    dx = np.diff(x)
    left, right = first_intervals(y, dx), first_intervals(y[::-1], dx[::-1])[::-1]
    parts = np.empty(len(dx))
    parts[:-1:2], parts[1::2], parts[-1] = left[::2], right[::2], right[-1]
    return np.concatenate(([0.0], np.cumsum(parts)))


def _pchip_edge_slope(h0, h1, m0, m1) -> float:
    """PCHIP's one-sided three-point end slope, cut to keep the data's shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_coeffs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(4, len(x) - 1) coefficients, constant term first, of the monotone
    cubic Hermite interpolant through (x, y): scipy.interpolate's
    PchipInterpolator in its operation order.  Inner slopes are the weighted
    harmonic mean of the neighbouring secants, 0 where they change sign or
    one vanishes."""
    h = np.diff(x)
    m = np.diff(y) / h
    sm = np.sign(m)
    flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    d = np.zeros_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d[1:-1][~flat] = 1.0 / whmean[~flat]
    d[0] = _pchip_edge_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_edge_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack((y[:-1], d[:-1], (m - d[:-1]) / h - t, t / h))


@dataclass(frozen=True)
class CutoffProfile:
    """Mass-cutoff weight f applied as f(n/tau) quantum-side, f(||u||^2)
    classically.

    kind = "smooth":  f = 1 on [0, K^2 - eta], f = 0 above K^2, and a
        mollified monotone ramp in between, tabulated on 4096 points by a
        cumulative Simpson rule and read off by monotone cubic (PCHIP)
        interpolation, both numpy copies of scipy's that give its values to
        the bit.  The ramp is the convolution of the step
        1_{(-inf, K^2 - eta/2]} with a bump of width eta/2, so all
        derivative bounds scale like powers of 1/eta.
    kind = "sharp":   indicator of [0, K^2].

    Both kinds are non-increasing and vanish above K^2.

    Equality and hashing read (kind, K, eta); the smooth ramp's table is a
    function of (K, eta) alone.
    """

    kind: str
    K: float | None = None
    eta: float | None = None
    # the smooth ramp: its nodes and their _pchip_coeffs
    _ramp: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("smooth", "sharp"):
            raise InvalidConfigError(f"unknown cutoff kind {self.kind!r}")
        if not (self.K is not None and math.isfinite(self.K * self.K) and self.K > 0):
            raise InvalidConfigError(
                f"{self.kind} cutoff needs K > 0 with K^2 finite, got {self.K}")
        if self.kind != "smooth":
            return
        K, eta = self.K, self.eta
        if eta is None or not 0 < eta < 0.5 * K**2:
            raise InvalidConfigError(f"need 0 < eta < K^2/2, got eta={eta}, K={K}")
        # f(x) = 1 - Theta(z), z = 2(x - K^2)/eta + 1, Theta the bump CDF on [-1, 1].
        z = np.linspace(-1.0, 1.0, 4096)
        cdf = _cumulative_simpson(_bump(z), z)
        cdf /= cdf[-1]  # kill the ~1e-14 quadrature residue so endpoints are exact
        x = K**2 + 0.5 * eta * (z - 1.0)
        object.__setattr__(self, "_ramp", (x, _pchip_coeffs(x, 1.0 - cdf)))

    @staticmethod
    def smooth(K: float, eta: float) -> "CutoffProfile":
        return CutoffProfile(kind="smooth", K=K, eta=eta)

    @staticmethod
    def sharp(K: float) -> "CutoffProfile":
        return CutoffProfile(kind="sharp", K=K)

    @property
    def support_bound(self) -> float:
        """Upper edge of the support, K^2."""
        return self.K**2

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        if self.kind == "sharp":
            out = (s <= self.K**2).astype(float)
        else:  # smooth
            out = np.ones_like(s)
            lo, hi = self.K**2 - self.eta, self.K**2
            out[s > hi] = 0.0
            mid = (s > lo) & (s <= hi)
            x, c = self._ramp
            s = s[mid]
            i = np.clip(np.searchsorted(x, s, side="right") - 1, 0, len(x) - 2)
            t = s - x[i]
            c = c[:, i]
            # the powers of t summed in the order of scipy's PPoly evaluation
            out[mid] = np.clip(c[0] + c[1] * t + c[2] * (t * t) + c[3] * (t * t * t), 0.0, 1.0)
        return float(out[0]) if scalar else out


# ------------------------------------------------------------------
# interaction kernel
# ------------------------------------------------------------------

def kernel_fourier(xi) -> np.ndarray:
    """Fourier transform on the line of the box w = 1 on [-1/2, 1/2]:
    w_hat(xi) = sinc(xi).  The periodized w_eps has coefficients
    w_hat(eps*m), and eps <= 1 keeps its support inside one period."""
    return np.sinc(np.asarray(xi, dtype=float))


# ------------------------------------------------------------------
# quintic ground state and mass threshold
# ------------------------------------------------------------------

@dataclass(frozen=True)
class SolitonProfile:
    """Ground state Q(x) = (3 sech^2(2x))^(1/4) of Q'' - Q + Q^5 = 0 on the
    line, with its norms (see `soliton`).
    """

    l2_sq: float
    deriv_l2_sq: float
    l6_pow6: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return (3.0 / np.cosh(2.0 * x) ** 2) ** 0.25

    @property
    def gns_constant(self) -> float:
        """Sharp sextic interpolation constant 3*||Q||_{L^2}^{-4}."""
        return 3.0 / self.l2_sq**2


def soliton() -> SolitonProfile:
    """Ground-state profile with its norms in closed form.

    Q^2 = sqrt(3) sech(2x), Q'^2 = Q^2 tanh^2(2x) and Q^6 = 3 sqrt(3) sech^3(2x),
    and sech, sech^3 integrate to pi, pi/2 on the line, so ||Q||^2 =
    sqrt(3) pi/2, ||Q'||^2 = sqrt(3) pi/4 and ||Q||_6^6 = 3 sqrt(3) pi/4.
    """
    root3_pi = math.sqrt(3.0) * math.pi
    return SolitonProfile(l2_sq=root3_pi / 2.0, deriv_l2_sq=root3_pi / 4.0,
                          l6_pow6=3.0 * root3_pi / 4.0)


def critical_mass() -> float:
    """L^2 norm of the ground state: the normalizability threshold."""
    return math.sqrt(soliton().l2_sq)
