"""Physical parameters, one-body spectrum, interaction kernels, cutoffs, soliton.

The one-body Hamiltonian is fixed as h = (1/2)(-d^2/dx^2 + 1) on the unit
torus, diagonal in the plane-wave basis e^{2*pi*i*k*x}.  Everything downstream
(Fock sectors, Gibbs weights, Gaussian field samplers) consumes the data
defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import integrate
from scipy.interpolate import PchipInterpolator

from .errors import InvalidConfigError, NumericalFailureError

__all__ = [
    "ModelParams",
    "CutoffProfile",
    "KernelSpec",
    "SolitonProfile",
    "eigenvalue",
    "trace_h_inverse",
    "soliton",
    "critical_mass",
]


def eigenvalue(k: int) -> float:
    """Eigenvalue of h on the mode e^{2*pi*i*k*x}: (1/2)((2*pi*k)^2 + 1)."""
    return 0.5 * ((2.0 * np.pi * k) ** 2 + 1.0)


def mode_numbers(k_max: int) -> np.ndarray:
    """Integer modes retained by the truncation, ordered -k_max..k_max."""
    return np.arange(-k_max, k_max + 1)


def eigenvalues(k_max: int) -> np.ndarray:
    """Eigenvalues on the retained modes, in `mode_numbers` order."""
    return 0.5 * ((2.0 * np.pi * mode_numbers(k_max)) ** 2 + 1.0)


def trace_h_inverse(k_max: int | None = None) -> float:
    """Trace of h^{-1}, either truncated to |k| <= k_max or over all modes.

    The full sum has the closed form coth(1/2): with lambda_k =
    ((2*pi*k)^2 + 1)/2 the sum over k of 1/lambda_k telescopes through
    sum_k (a^2 + k^2)^{-1} = pi*coth(pi*a)/a at a = 1/(2*pi).
    """
    if k_max is None:
        return 1.0 / math.tanh(0.5)
    return float(np.sum(1.0 / eigenvalues(k_max)))


@dataclass(frozen=True)
class ModelParams:
    """All physical and numerical knobs in one validated, immutable record.

    tau    : inverse semiclassical parameter; typical particle number ~ tau.
    eps    : interaction range of the smoothed three-body kernel, in (0, 1].
    eta    : smoothing width of the mass cutoff, in (0, K^2/2).
    K      : mass-cutoff level; cutoff profiles are supported in [0, K^2].
    k_max  : Fourier mode cutoff; retained one-body space has dimension
             J = 2*k_max + 1.
    n_max  : largest particle sector retained.  With a cutoff supported in
             [0, K^2] the truncation at floor(K^2*tau) is exact, so n_max
             must be at least that.
    sector_dim_cap : dense-eigensolver budget; sector dimensions beyond this
             raise ResourceLimitError at assembly time.
    """

    tau: float
    eps: float
    eta: float
    K: float
    k_max: int
    n_max: int
    sector_dim_cap: int = 5000

    def __post_init__(self):
        if not self.tau > 0:
            raise InvalidConfigError(f"tau must be positive, got {self.tau}")
        if not 0 < self.eps <= 1:
            raise InvalidConfigError(f"eps must lie in (0, 1], got {self.eps}")
        if not self.K > 0:
            raise InvalidConfigError(f"K must be positive, got {self.K}")
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

    def admissible_scale(self, kernel_sup_norm: float = 1.0) -> bool:
        """Diagnostic only: whether eps >= M*(log tau)^(-1/2) with
        M = (2*||w||_inf^2 + 1)*(K^2 + 4)^3.

        The asymptotic admissibility constraint is unreachable at desk
        scale, so it is reported rather than enforced.
        """
        if self.tau <= 1.0:
            return False
        M = (2.0 * kernel_sup_norm**2 + 1.0) * (self.K**2 + 4.0) ** 3
        return self.eps >= M / math.sqrt(math.log(self.tau))


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
    kind = "one":     constant 1 (no mass cutoff).
    kind = "table":   user-supplied grid/value table, interpolated.
    """

    kind: str
    K: float | None = None
    eta: float | None = None
    _interp: object = field(default=None, repr=False, compare=False)

    @staticmethod
    def smooth(K: float, eta: float, table_size: int = 4096) -> "CutoffProfile":
        if not 0 < eta < 0.5 * K**2:
            raise InvalidConfigError(f"need 0 < eta < K^2/2, got eta={eta}, K={K}")
        # f(x) = 1 - Theta(z), z = 2(x - K^2)/eta + 1, Theta the bump CDF on [-1, 1].
        z = np.linspace(-1.0, 1.0, table_size)
        cdf = integrate.cumulative_simpson(_bump(z), x=z, initial=0.0)
        cdf /= cdf[-1]  # kill the ~1e-14 quadrature residue so endpoints are exact
        x = K**2 + 0.5 * eta * (z - 1.0)
        interp = PchipInterpolator(x, 1.0 - cdf)
        return CutoffProfile(kind="smooth", K=K, eta=eta, _interp=interp)

    @staticmethod
    def sharp(K: float) -> "CutoffProfile":
        return CutoffProfile(kind="sharp", K=K)

    @staticmethod
    def one() -> "CutoffProfile":
        return CutoffProfile(kind="one")

    @staticmethod
    def from_table(x: np.ndarray, values: np.ndarray) -> "CutoffProfile":
        x = np.asarray(x, dtype=float)
        values = np.asarray(values, dtype=float)
        if x.ndim != 1 or x.shape != values.shape or len(x) < 2:
            raise InvalidConfigError("table cutoff needs matching 1-d x/value arrays")
        if np.any(values < 0) or np.any(values > 1):
            raise InvalidConfigError("cutoff values must lie in [0, 1]")
        interp = PchipInterpolator(x, values)
        sup = float(x[-1]) if values[-1] == 0.0 else None
        K = math.sqrt(sup) if sup is not None else None
        return CutoffProfile(kind="table", K=K, _interp=interp)

    @property
    def support_bound(self) -> float | None:
        """Upper edge of the support (K^2), or None for unbounded profiles."""
        if self.kind in ("smooth", "sharp"):
            return self.K**2
        if self.kind == "table" and self.K is not None:
            return self.K**2
        return None

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        scalar = s.ndim == 0
        s = np.atleast_1d(s)
        if self.kind == "one":
            out = np.ones_like(s)
        elif self.kind == "sharp":
            out = (s <= self.K**2).astype(float)
        elif self.kind == "smooth":
            out = np.ones_like(s)
            lo, hi = self.K**2 - self.eta, self.K**2
            out[s > hi] = 0.0
            mid = (s > lo) & (s <= hi)
            out[mid] = np.clip(self._interp(s[mid]), 0.0, 1.0)
        else:  # table
            xs = self._interp.x
            # beyond the last node the (clipped) end value holds
            out = np.clip(self._interp(np.clip(s, xs[0], xs[-1])), 0.0, 1.0)
        return float(out[0]) if scalar else out


# ------------------------------------------------------------------
# interaction kernels
# ------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """Even, nonnegative, compactly supported interaction profile w with
    unit integral.

    The default is the box w = 1_{[-1/2, 1/2]}.  A general box(a) is
    1/(2a) on [-a, a] (a <= 1/2 keeps the eps-scaled support inside one
    period for all eps <= 1).  Custom profiles are normalized at
    construction and transformed by quadrature.
    """

    shape: str
    a: float | None = None
    _profile: object = field(default=None, repr=False, compare=False)
    _support: float | None = field(default=None, repr=False, compare=False)
    _norm: float = field(default=1.0, repr=False, compare=False)

    @staticmethod
    def box(a: float = 0.5) -> "KernelSpec":
        if not 0 < a <= 0.5:
            raise InvalidConfigError(f"box half-width must lie in (0, 1/2], got {a}")
        return KernelSpec(shape="box", a=a)

    @staticmethod
    def from_profile(profile, support: float) -> "KernelSpec":
        """Custom even nonnegative profile supported in [-support, support]."""
        if not 0 < support <= 0.5:
            raise InvalidConfigError("custom kernel support must lie in (0, 1/2]")
        norm = integrate.quad(profile, -support, support, limit=200)[0]
        if norm <= 0:
            raise InvalidConfigError("kernel profile must have positive integral")
        return KernelSpec(shape="custom", _profile=profile, _support=support, _norm=norm)

    @property
    def sup_norm(self) -> float:
        if self.shape == "box":
            return 1.0 / (2.0 * self.a)
        xs = np.linspace(-self._support, self._support, 4097)
        return float(np.max(self._profile(xs)) / self._norm)

    @property
    def support(self) -> float:
        return self.a if self.shape == "box" else self._support

    def line_fourier(self, xi) -> np.ndarray:
        """Fourier transform of w on the real line at frequency xi."""
        xi = np.asarray(xi, dtype=float)
        if self.shape == "box":
            return np.sinc(2.0 * self.a * xi)
        out = np.empty(xi.shape)
        for idx, x in np.ndenumerate(xi):
            out[idx] = integrate.quad(
                lambda y: self._profile(y) * math.cos(2.0 * math.pi * x * y),
                -self._support, self._support, limit=200,
            )[0] / self._norm
        return out

    def periodized(self, x, eps: float) -> np.ndarray:
        """The eps-scaled kernel wrapped onto the torus: sum_m w((x+m)/eps)/eps."""
        x = np.asarray(x, dtype=float)
        reach = int(math.ceil(eps * self.support)) + 1
        out = np.zeros_like(x)
        for m in range(-reach, reach + 1):
            y = (x + m) / eps
            if self.shape == "box":
                out += (np.abs(y) <= self.a) / (2.0 * self.a * eps)
            else:
                inside = np.abs(y) <= self._support
                if np.any(inside):
                    vals = np.asarray(self._profile(y[inside]), dtype=float)
                    out[inside] += vals / (self._norm * eps)
        return out


def kernel_fourier_table(spec: KernelSpec, eps: float, m_max: int) -> np.ndarray:
    """w_hat(eps*m) for m = -m_max..m_max, as a lookup array."""
    return spec.line_fourier(eps * np.arange(-m_max, m_max + 1))


# ------------------------------------------------------------------
# quintic ground state and mass threshold
# ------------------------------------------------------------------

@dataclass(frozen=True)
class SolitonProfile:
    """Ground state Q of Q'' - Q + Q^5 = 0 on the line, with cached norms.

    The closed form Q(x) = (3 sech^2(2x))^(1/4) is certified at
    construction against an ODE-shooting oracle (see `soliton`).
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


def _shoot(A: float, x_end: float = 20.0):
    """Integrate Q'' = Q - Q^5 from Q(0)=A, Q'(0)=0; classify the escape.

    The conserved energy is p^2/2 - q^2/2 + q^6/6; the separatrix through
    the origin is the decaying profile.  Above it the trajectory crosses
    zero (A too large, +1); below it Q turns around while still positive
    (A too small, -1).
    """
    from scipy.integrate import solve_ivp

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


def _shooting_norms(x_cut: float = 12.0):
    """Independent oracle: bisect the even ground state's height, then
    accumulate its L^2, H^1-seminorm, and L^6 integrals along the orbit."""
    from scipy.integrate import solve_ivp

    lo, hi = 1.2, 1.4
    if _shoot(lo) != -1 or _shoot(hi) != +1:
        raise NumericalFailureError("shooting bracket does not straddle the ground state")
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
    q2, p2, q6 = sol.y[2, -1], sol.y[3, -1], sol.y[4, -1]
    return A, 2.0 * q2, 2.0 * p2, 2.0 * q6  # even reflection


@lru_cache(maxsize=2)
def soliton(validate: bool = True) -> SolitonProfile:
    """Ground-state profile with certified norms.

    Norms of the closed form are computed by quadrature; when `validate`
    is set (the default) they are checked against the shooting oracle to
    1e-6 and a NumericalFailureError is raised on disagreement.
    """
    prof_eval = lambda x: (3.0 / np.cosh(2.0 * x) ** 2) ** 0.25
    l2 = integrate.quad(lambda x: prof_eval(x) ** 2, 0, 40, limit=200)[0] * 2.0
    l6 = integrate.quad(lambda x: prof_eval(x) ** 6, 0, 40, limit=200)[0] * 2.0

    def dq(x):
        # d/dx (3 sech^2(2x))^(1/4) = -(3 sech^2(2x))^(1/4) * tanh(2x) / 2... via chain rule
        return prof_eval(x) * (-np.tanh(2.0 * x))

    h1 = integrate.quad(lambda x: dq(x) ** 2, 0, 40, limit=200)[0] * 2.0
    prof = SolitonProfile(l2_sq=l2, deriv_l2_sq=h1, l6_pow6=l6)

    if validate:
        A, s_l2, s_h1, s_l6 = _shooting_norms()
        checks = [
            ("height", A, 3.0**0.25),
            ("l2", s_l2, l2),
            ("h1", s_h1, h1),
            ("l6", s_l6, l6),
        ]
        for name, got, ref in checks:
            if abs(got - ref) > 1e-6:
                raise NumericalFailureError(
                    f"soliton {name}: shooting {got!r} vs closed form {ref!r}"
                )
    return prof


def critical_mass() -> float:
    """L^2 norm of the ground state: the normalizability threshold."""
    return math.sqrt(soliton().l2_sq)
