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
from scipy import integrate
from scipy.interpolate import PchipInterpolator

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

_BUMP_NORM = integrate.quad(lambda t: math.exp(-1.0 / (1.0 - t * t)), -1, 1)[0]


def _bump(t: np.ndarray) -> np.ndarray:
    """Standard normalized bump on (-1, 1)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2)) / _BUMP_NORM
    return out


@dataclass(frozen=True)
class CutoffProfile:
    """Mass-cutoff weight f applied as f(n/tau) quantum-side, f(||u||^2)
    classically.

    kind = "smooth":  f = 1 on [0, K^2 - eta], f = 0 above K^2, and a
        mollified monotone ramp in between, tabulated on 4096 points with
        monotone cubic interpolation.  The ramp is the convolution of the
        step 1_{(-inf, K^2 - eta/2]} with a bump of width eta/2, so all
        derivative bounds scale like powers of 1/eta.
    kind = "sharp":   indicator of [0, K^2].

    Both kinds are non-increasing and vanish above K^2.

    Equality and hashing read (kind, K, eta); the smooth ramp's interpolant
    is a function of (K, eta) alone.
    """

    kind: str
    K: float | None = None
    eta: float | None = None
    _interp: object = field(default=None, init=False, repr=False, compare=False)

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
        cdf = integrate.cumulative_simpson(_bump(z), x=z, initial=0.0)
        cdf /= cdf[-1]  # kill the ~1e-14 quadrature residue so endpoints are exact
        x = K**2 + 0.5 * eta * (z - 1.0)
        object.__setattr__(self, "_interp", PchipInterpolator(x, 1.0 - cdf))

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
            out[mid] = np.clip(self._interp(s[mid]), 0.0, 1.0)
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
