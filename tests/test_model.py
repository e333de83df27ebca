"""Spectrum, cutoff profiles, kernels, and the quintic ground state."""

import math

import numpy as np
import pytest
from scipy import integrate

from torusgibbs.errors import InvalidConfigError, NumericalFailureError
from torusgibbs.model import (
    CutoffProfile,
    KernelSpec,
    ModelParams,
    _shooting_norms,
    critical_mass,
    eigenvalues,
    kernel_fourier_table,
    soliton,
    trace_h_inverse,
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


class TestTraceHInverse:
    def test_k0(self):
        assert trace_h_inverse(0) == pytest.approx(2.0, abs=1e-14)

    def test_k1(self):
        assert trace_h_inverse(1) == pytest.approx(2.09882, abs=5e-6)

    def test_full_sum_closed_form(self):
        # brute-force partial sums up to |k| = 1e6
        ks = np.arange(1, 10**6 + 1)
        partial = 2.0 + np.sum(2.0 / (0.5 * ((2 * np.pi * ks) ** 2 + 1.0)))
        assert trace_h_inverse() == pytest.approx(1.0 / math.tanh(0.5), rel=1e-14)
        assert trace_h_inverse() == pytest.approx(partial, abs=2e-7)


class TestModelParams:
    def test_valid(self):
        p = ModelParams(tau=10.0, eps=0.5, eta=0.1, K=0.6, k_max=1, n_max=4)
        assert p.J == 3

    @pytest.mark.parametrize("kwargs", [
        dict(tau=-1.0, eps=0.5, eta=0.1, K=0.6, k_max=1, n_max=4),
        dict(tau=10.0, eps=1.5, eta=0.1, K=0.6, k_max=1, n_max=4),
        dict(tau=10.0, eps=0.5, eta=0.2, K=0.6, k_max=1, n_max=4),   # eta >= K^2/2
        dict(tau=10.0, eps=0.5, eta=0.1, K=0.6, k_max=1, n_max=2),   # below K^2*tau
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidConfigError):
            ModelParams(**kwargs)


class TestCutoff:
    def test_plateau_and_zero(self):
        prof = CutoffProfile.smooth(1.0, 0.2)
        assert prof(0.5) == 1.0
        assert prof(1.1) == 0.0
        assert prof(0.8) == 1.0   # exact at K^2 - eta
        assert prof(1.0) == 0.0   # exact at K^2

    def test_ramp_matches_convolution_quadrature(self):
        # oracle: direct quadrature of the mollification that defines the ramp
        K, eta = 1.0, 0.2
        prof = CutoffProfile.smooth(K, eta)
        c = integrate.quad(lambda t: math.exp(-1.0 / (1.0 - t * t)), -1, 1)[0]

        def oracle(s):
            z0 = (s - K**2) * 2.0 / eta + 1.0
            val, _ = integrate.quad(
                lambda t: math.exp(-1.0 / (1.0 - t * t)) / c, z0, 1.0)
            return val

        for s in (0.85, 0.9, 0.95, 0.99):
            assert prof(s) == pytest.approx(oracle(s), abs=1e-9)

    def test_monotone_everywhere(self):
        prof = CutoffProfile.smooth(1.0, 0.2)
        s = np.linspace(0.0, 1.2, 20001)
        vals = prof(s)
        assert np.all(np.diff(vals) <= 1e-15)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_derivative_scale(self):
        # |f'| <= C/eta with a C that is stable across eta
        cs = []
        for eta in (0.05, 0.1, 0.2):
            prof = CutoffProfile.smooth(1.0, eta)
            s = np.linspace(1.0 - eta, 1.0, 4001)
            deriv = np.gradient(prof(s), s)
            cs.append(np.abs(deriv).max() * eta)
        assert max(cs) - min(cs) < 0.05 * max(cs)

    def test_sharp_and_one(self):
        sharp = CutoffProfile.sharp(0.6)
        assert sharp(0.36) == 1.0 and sharp(0.361) == 0.0
        assert sharp.support_bound == pytest.approx(0.36)
        one = CutoffProfile.one()
        assert one(123.0) == 1.0 and one.support_bound is None

    def test_table_zero_beyond_last_node(self):
        # past a last node of value 0 the table is exactly 0, as support_bound says
        table = CutoffProfile.from_table(np.array([0.0, 0.05, 0.1, 0.15, 0.2]),
                                         np.array([0.0, 0.5, 1.0, 0.5, 0.0]))
        assert table.support_bound == pytest.approx(0.2)
        assert table(0.3) == 0.0
        assert np.all(table(np.array([0.2, 0.2001, 0.3, 5.0])) == 0.0)

    @pytest.mark.parametrize("x", [[0.0, 0.1, 0.1, 0.2], [0.0, 0.2, 0.1, 0.3]],
                             ids=["repeated", "decreasing"])
    def test_table_needs_increasing_x(self, x):
        with pytest.raises(InvalidConfigError, match="strictly increasing"):
            CutoffProfile.from_table(np.array(x), np.array([1.0, 0.8, 0.4, 0.0]))


class TestKernel:
    def test_normalization_mode(self):
        for spec in (KernelSpec.box(), KernelSpec.box(0.25)):
            assert kernel_fourier_table(spec, 0.7, 0)[0] == pytest.approx(1.0, abs=1e-14)

    def test_box_examples(self):
        # w_hat(eps*m) for m = -2..2
        table = kernel_fourier_table(KernelSpec.box(0.5), 0.5, 2)
        assert table[3] == pytest.approx(0.636620, abs=1e-6)
        assert table[4] == pytest.approx(0.0, abs=1e-14)

    def test_even_in_k(self):
        table = kernel_fourier_table(KernelSpec.box(0.5), 0.3, 5)
        assert np.array_equal(table, table[::-1])

    @pytest.mark.parametrize("eps", [0.25, 0.5, 1.0])
    def test_matches_position_space_quadrature(self, eps):
        # oracle: integrate the periodized kernel against plane waves directly
        spec = KernelSpec.box(0.5)
        a_edge = 0.5 * eps
        table = kernel_fourier_table(spec, eps, 32)
        for k in range(0, 33, 4):
            re, _ = integrate.quad(
                lambda x: (abs(x) <= a_edge) / eps * math.cos(2 * math.pi * k * x),
                -0.5, 0.5, points=[-a_edge, a_edge], limit=200)
            assert table[32 + k] == pytest.approx(re, abs=1e-10)

    def test_custom_profile(self):
        tri = KernelSpec.from_profile(lambda x: np.clip(1.0 - np.abs(4.0 * x), 0.0, None), 0.25)
        assert kernel_fourier_table(tri, 0.5, 0)[0] == pytest.approx(1.0, abs=1e-9)
        # triangle transform is sinc^2
        got = kernel_fourier_table(tri, 0.8, 3)[6]
        assert got == pytest.approx(np.sinc(0.8 * 3 / 4.0) ** 2, abs=1e-9)

    def test_periodized_integrates_to_one(self):
        spec = KernelSpec.box(0.5)
        x = (np.arange(4096) + 0.5) / 4096
        for eps in (0.25, 0.5, 1.0):
            assert np.mean(spec.periodized(x, eps)) == pytest.approx(1.0, abs=1e-10)


class TestSoliton:
    def test_norms(self):
        prof = soliton()
        assert prof.l2_sq == pytest.approx(math.sqrt(3.0) * math.pi / 2.0, abs=1e-6)
        assert prof.l2_sq == pytest.approx(2.720699, abs=1e-6)
        assert prof.deriv_l2_sq == pytest.approx(1.360350, abs=1e-6)
        assert prof.l6_pow6 == pytest.approx(3.0 * prof.deriv_l2_sq, abs=1e-6)

    def test_shooting_oracle(self):
        # the ODE alone, with the bound the closed form is held to
        A, l2_sq, deriv_l2_sq, l6_pow6 = _shooting_norms()
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
