"""Spectrum, cutoff profiles, kernels, and the quintic ground state."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from conftest import shooting_norms
from torusgibbs.errors import InvalidConfigError
from torusgibbs.model import (
    CutoffProfile,
    ModelParams,
    critical_mass,
    eigenvalues,
    kernel_fourier,
    panel_integrals,
    soliton,
)


class TestEigenvalues:
    # eigenvalues(k_max) lists modes -k_max..k_max, so mode k sits at index k + k_max
    def test_k0(self):
        assert eigenvalues(0)[0] == 0.5

    def test_k1(self):
        lam1 = eigenvalues(1)[2]
        assert lam1 == pytest.approx(0.5 * (4 * math.pi**2 + 1), rel=0, abs=1e-12)
        assert lam1 == pytest.approx(20.23921, abs=5e-6)

    def test_even(self):
        lam = eigenvalues(8)
        assert np.array_equal(lam, lam[::-1])

    def test_strictly_increasing(self):
        vals = eigenvalues(64)[64:]
        assert np.all(np.diff(vals) > 0)

    def test_symbol_oracle(self):
        # independent route: apply (1/2)(-d^2/dx^2 + 1) symbolically
        import sympy as sp

        x = sp.symbols("x", real=True)
        lam_all = eigenvalues(64)
        for k in range(-64, 65, 8):
            u = sp.exp(2 * sp.pi * sp.I * k * x)
            lam = sp.simplify((-sp.diff(u, x, 2) + u) / (2 * u))
            assert lam_all[k + 64] == pytest.approx(float(lam), rel=1e-14)


class TestModelParams:
    def test_valid(self):
        p = ModelParams(tau=10.0, eps=0.5, eta=0.1, K=0.6, k_max=1, n_max=4)
        assert p.J == 3

    @pytest.mark.parametrize("kwargs", [
        dict(tau=-1.0, eps=0.5, eta=0.1, K=0.6, k_max=1, n_max=4),
        dict(tau=10.0, eps=1.5, eta=0.1, K=0.6, k_max=1, n_max=4),
        dict(tau=10.0, eps=0.5, eta=0.2, K=0.6, k_max=1, n_max=4),   # eta >= K^2/2
        dict(tau=10.0, eps=0.5, eta=0.1, K=0.6, k_max=1, n_max=2),   # below K^2*tau
        dict(tau=10.0, eps=0.0, eta=0.1, K=0.6, k_max=1, n_max=4),
        # floor(K^2 tau) has no value at an infinite tau or K
        dict(tau=math.inf, eps=0.5, eta=0.1, K=0.6, k_max=1, n_max=4),
        dict(tau=math.nan, eps=0.5, eta=0.1, K=0.6, k_max=1, n_max=4),
        dict(tau=10.0, eps=0.5, eta=0.1, K=math.inf, k_max=1, n_max=4),
        dict(tau=10.0, eps=0.5, eta=math.inf, K=0.6, k_max=1, n_max=4),
        # finite, but K^2 overflows
        dict(tau=10.0, eps=0.5, eta=0.1, K=1e200, k_max=1, n_max=4),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidConfigError):
            ModelParams(**kwargs)


def bump_integrand(t):
    return math.exp(-1.0 / (1.0 - t * t))


BUMP_TOTAL = integrate.quad(bump_integrand, -1, 1, epsabs=1e-15, epsrel=1e-13)[0]


def ramp_oracle(K, eta, s):
    """Direct quadrature of the mollification that defines the ramp: the
    normalized bump's integral from z(s) to 1."""
    z0 = (s - K**2) * 2.0 / eta + 1.0
    return integrate.quad(bump_integrand, z0, 1.0, epsabs=1e-15, epsrel=1e-13)[0] / BUMP_TOTAL


class TestPanelRule:
    def test_exact_to_degree_seven(self):
        # the panels of unequal width against the monomials' antiderivatives
        edges = np.array([-1.0, -0.2, 0.3, 1.0, 2.5])
        for k in range(8):
            exact = np.diff(edges ** (k + 1)) / (k + 1)
            assert np.allclose(panel_integrals(lambda x: x**k, edges), exact,
                               rtol=1e-14, atol=1e-15), k


class TestCutoff:
    def test_plateau_and_zero(self):
        prof = CutoffProfile.smooth(1.0, 0.2)
        assert prof(0.5) == 1.0
        assert prof(1.1) == 0.0
        assert prof(0.8) == 1.0   # exact at K^2 - eta
        assert prof(1.0) == 0.0   # exact at K^2

    def test_ramp_matches_convolution_quadrature(self):
        # 50 midpoints across the ramp at each of five (K, eta); the oracle
        # shares no code with the table
        for K, eta in [(0.6, 0.1), (0.6, 0.05), (1.0, 0.2), (1.8, 0.648), (1.2, 0.05)]:
            s = K**2 - eta * (np.arange(50) + 0.5) / 50
            err = CutoffProfile.smooth(K, eta)(s) - [ramp_oracle(K, eta, v) for v in s]
            assert np.abs(err).max() <= 1e-12, (K, eta)

    def test_monotone_on_dense_grid(self):
        # rounding may lift a step by an ulp of 1, never more; near K^2, where
        # the bump outgrows the node spacing, no step rises at all
        K, eta = 1.0, 0.2
        prof = CutoffProfile.smooth(K, eta)
        s = np.linspace(K**2 - eta, K**2, 4000001)
        steps = np.diff(prof(s))
        assert steps.max() <= 2.3e-16
        assert np.all(steps[s[1:] > K**2 - 0.015 * eta] <= 0.0)

    def test_memory_of_one_call_is_its_input_and_output(self):
        # the points are evaluated in fixed-size blocks: one call on the
        # 4,000,001-point ramp holds its input, its output and a bounded
        # working set, not a dozen full-length temporaries
        import tracemalloc

        prof = CutoffProfile.smooth(1.0, 0.2)
        tracemalloc.start()
        try:
            s = np.linspace(0.8, 1.0, 4000001)
            out = prof(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= s.nbytes + out.nbytes + (8 << 20)

    @pytest.mark.parametrize("prof", [CutoffProfile.smooth(0.6, 0.1), CutoffProfile.sharp(0.6)],
                             ids=["smooth", "sharp"])
    @pytest.mark.parametrize("s", [math.nan, np.array([0.1, math.nan, 0.5])],
                             ids=["scalar", "array"])
    def test_nan_mass_rejected(self, prof, s):
        with pytest.raises(InvalidConfigError, match="NaN"):
            prof(s)

    def test_monotone_everywhere(self):
        prof = CutoffProfile.smooth(1.0, 0.2)
        s = np.linspace(0.0, 1.2, 20001)
        vals = prof(s)
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    @settings(max_examples=60, deadline=None)
    @given(K=st.floats(0.1, 3.0), frac=st.floats(0.01, 0.49), sharp=st.booleans(),
           grid=st.lists(st.floats(0.0, 1.5), min_size=2, max_size=40))
    def test_shape_at_any_parameters(self, K, frac, sharp, grid):
        # the premise of build_gibbs's sector rule: non-increasing, in [0, 1],
        # exactly 0 above K^2 and exactly 1 up to the start of the ramp
        eta = frac * K**2
        prof = CutoffProfile.sharp(K) if sharp else CutoffProfile.smooth(K, eta)
        s = np.sort(grid) * K**2
        vals = prof(s)
        assert np.all(np.diff(vals) <= 0.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert np.all(vals[s > K**2] == 0.0)
        assert np.all(vals[s <= (K**2 if sharp else K**2 - eta)] == 1.0)

    def test_derivative_scale(self):
        # |f'| <= C/eta with a C that is stable across eta
        cs = []
        for eta in (0.05, 0.1, 0.2):
            prof = CutoffProfile.smooth(1.0, eta)
            s = np.linspace(1.0 - eta, 1.0, 4001)
            deriv = np.gradient(prof(s), s)
            cs.append(np.abs(deriv).max() * eta)
        assert max(cs) - min(cs) < 0.05 * max(cs)

    def test_sharp(self):
        sharp = CutoffProfile.sharp(0.6)
        assert sharp(0.36) == 1.0 and sharp(0.361) == 0.0
        assert sharp.support_bound == pytest.approx(0.36)
        assert CutoffProfile.smooth(0.6, 0.1).support_bound == sharp.support_bound

    def test_equality_reads_kind_and_parameters(self):
        smooth = CutoffProfile.smooth(0.6, 0.1)
        twin = CutoffProfile.smooth(0.6, 0.1)
        assert smooth == twin and hash(smooth) == hash(twin)
        assert smooth != CutoffProfile.smooth(0.6, 0.05)
        assert smooth != CutoffProfile.sharp(0.6)

    @pytest.mark.parametrize("kwargs,match", [
        (dict(kind="table"), "unknown cutoff kind"),
        (dict(kind="sharp"), "needs K > 0"),
        (dict(kind="sharp", K=0.0), "needs K > 0"),
        (dict(kind="smooth", K=0.6), "eta"),
        (dict(kind="smooth", K=math.inf, eta=0.1), "needs K > 0"),
        (dict(kind="sharp", K=math.nan), "needs K > 0"),
        (dict(kind="smooth", K=0.6, eta=math.inf), "eta"),
        (dict(kind="sharp", K=1e200), "K\\^2 finite"),
    ], ids=["table", "sharp_without_K", "sharp_K0", "smooth_without_eta", "smooth_K_inf",
            "sharp_K_nan", "smooth_eta_inf", "sharp_K_square_overflows"])
    def test_constructor_rejects(self, kwargs, match):
        with pytest.raises(InvalidConfigError, match=match):
            CutoffProfile(**kwargs)

    # "one" is a sharp bound past every grid point, so it is 1 on the whole grid
    @pytest.mark.parametrize("prof", [CutoffProfile.smooth(0.6, 0.05),
                                      CutoffProfile.smooth(0.6, 0.1),
                                      CutoffProfile.sharp(0.6), CutoffProfile.sharp(4.0)],
                             ids=["smooth_eta0.05", "smooth_eta0.1", "sharp", "one"])
    @pytest.mark.parametrize("tau", [8.0, 10.0, 17.0, 20.0, 40.0, 80.0, 160.0])
    def test_array_matches_scalar_bitwise(self, prof, tau):
        # build_gibbs evaluates the n/tau grid in one call: each entry must be
        # the scalar value bit for bit, past the support edge too
        n_max = math.floor(0.36 * tau) + 10
        grid = prof(np.arange(n_max + 1) / tau)
        assert np.array_equal(grid, [prof(n / tau) for n in range(n_max + 1)])

    def test_plain_constructor_builds_the_ramp(self):
        s = np.linspace(0.2, 0.4, 41)
        assert np.array_equal(CutoffProfile(kind="smooth", K=0.6, eta=0.1)(s),
                              CutoffProfile.smooth(0.6, 0.1)(s))


class TestKernel:
    def test_normalization_mode(self):
        # unit integral: w_hat(eps*0) = 1 at every range
        assert kernel_fourier(0.0) == 1.0

    def test_box_examples(self):
        # w_hat(eps*m) for m = -2..2
        table = kernel_fourier(0.5 * np.arange(-2, 3))
        assert table[3] == pytest.approx(0.636620, abs=1e-6)
        assert table[4] == pytest.approx(0.0, abs=1e-14)

    def test_even_in_k(self):
        table = kernel_fourier(0.3 * np.arange(-5, 6))
        assert np.array_equal(table, table[::-1])

    @pytest.mark.parametrize("eps", [0.25, 0.5, 1.0])
    def test_matches_position_space_quadrature(self, eps):
        # oracle: integrate the periodized kernel against plane waves directly
        a_edge = 0.5 * eps
        table = kernel_fourier(eps * np.arange(-32, 33))
        for k in range(0, 33, 4):
            re, _ = integrate.quad(
                lambda x: (abs(x) <= a_edge) / eps * math.cos(2 * math.pi * k * x),
                -0.5, 0.5, points=[-a_edge, a_edge], limit=200)
            assert table[32 + k] == pytest.approx(re, abs=1e-10)


class TestSoliton:
    def test_norms(self):
        prof = soliton()
        assert prof.l2_sq == pytest.approx(math.sqrt(3.0) * math.pi / 2.0, abs=1e-6)
        assert prof.l2_sq == pytest.approx(2.720699, abs=1e-6)
        assert prof.deriv_l2_sq == pytest.approx(1.360350, abs=1e-6)
        assert prof.l6_pow6 == pytest.approx(3.0 * prof.deriv_l2_sq, abs=1e-6)

    def test_shooting_oracle(self):
        # the ODE alone, with the bound the closed form is held to
        A, l2_sq, deriv_l2_sq, l6_pow6 = shooting_norms()
        prof = soliton()
        assert A == pytest.approx(3.0**0.25, abs=1e-6)
        assert l2_sq == pytest.approx(prof.l2_sq, abs=1e-6)
        assert deriv_l2_sq == pytest.approx(prof.deriv_l2_sq, abs=1e-6)
        assert l6_pow6 == pytest.approx(prof.l6_pow6, abs=1e-6)

    def test_gns_constant(self):
        assert soliton().gns_constant == pytest.approx(4.0 / math.pi**2, abs=1e-6)
        assert soliton().gns_constant == pytest.approx(0.405285, abs=1e-6)

    def test_critical_mass(self):
        assert critical_mass() == pytest.approx(math.sqrt(math.sqrt(3.0) * math.pi / 2.0), abs=1e-7)

    def test_profile_shape(self):
        prof = soliton()
        xs = np.linspace(0.0, 5.0, 200)
        vals = prof(xs)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)          # decaying on the right half
        assert prof(0.0) == pytest.approx(3.0**0.25, rel=1e-12)
        assert prof(np.array([-1.3])) == pytest.approx(prof(np.array([1.3])))
