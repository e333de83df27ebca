"""Free-field sampler, interaction energies, estimators, and the mass law."""

import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from conftest import GATE_ALPHA, GATE_R, GATE_Z, box_periodized
from torusgibbs import cgibbs
from torusgibbs.errors import InvalidConfigError, NumericalFailureError
from torusgibbs.model import (
    CutoffProfile,
    ModelParams,
    eigenvalues,
)


def params(tau=10.0, eps=0.5, eta=0.05, K=0.6, k_max=1, n_max=4):
    return ModelParams(tau=tau, eps=eps, eta=eta, K=K, k_max=k_max, n_max=n_max)


# a mass bound of 100 that no free draw reaches: |a_0|^2 ~ Exp(1/2) passes it
# with probability e^{-50} per row, so this cutoff is 1 on every row drawn
UNREACHED = CutoffProfile.sharp(10.0)


def truncated_trace_h_inverse(k_max):
    """Sum of the symbol 1/lambda_k = 2/((2 pi k)^2 + 1) over |k| <= k_max."""
    return sum(2.0 / ((2.0 * math.pi * k) ** 2 + 1.0) for k in range(-k_max, k_max + 1))


class TestSampler:
    def test_moments(self, rng):
        coeffs = cgibbs.sample_free_fields(1, 400000, rng, math.inf)
        n = coeffs.shape[0]
        # E|a_0|^2 = 1/lambda_0 = 2, with stderr of |a|^2 ~ its mean
        m0 = np.abs(coeffs[:, 1]) ** 2
        assert np.mean(m0) == pytest.approx(2.0, abs=GATE_Z * np.std(m0) / math.sqrt(n))
        # the complex mean m_k is CN(0, 1/(n lambda_k)): n lambda_k |m_k|^2 ~ Exp(1)
        mean = coeffs.mean(axis=0)
        assert np.all(np.abs(mean) <= GATE_R / np.sqrt(n * eigenvalues(1)))
        mass = np.sum(np.abs(coeffs) ** 2, axis=1)
        assert np.mean(mass) == pytest.approx(
            truncated_trace_h_inverse(1), abs=GATE_Z * np.std(mass) / math.sqrt(n))

    @pytest.mark.parametrize("k_max", [0, 1, 2, 3])
    def test_draws_match_product_expression(self, k_max):
        # bit-identical to the gated draw written out from the same calls:
        # every |a_0|^2, the Gaussian rows at or below the bound, then a_0's rescale
        n, J = 1000, 2 * k_max + 1
        lam = eigenvalues(k_max)
        for max_mass in (math.inf, 0.36):
            got = cgibbs.sample_free_fields(k_max, n, np.random.default_rng(7), max_mass)
            rng = np.random.default_rng(7)
            a0 = np.sqrt(rng.standard_exponential(n) / lam[k_max])
            keep = a0 * a0 <= max_mass
            g = rng.standard_normal((np.count_nonzero(keep), J, 2))
            z = (g[..., 0] + 1j * g[..., 1]) * (1.0 / np.sqrt(2.0 * lam))
            z[:, k_max] *= a0[keep] / np.abs(z[:, k_max])
            want = np.zeros((n, J), dtype=complex)
            want[:, k_max] = a0
            want[keep] = z
            assert np.array_equal(got, want)
            assert keep.all() if max_mass == math.inf else 0 < keep.sum() < n

    def test_gated_rows_contract(self, rng):
        n, bound = 200000, 0.36
        coeffs = cgibbs.sample_free_fields(1, n, rng, bound)
        a0 = coeffs[:, 1]
        full = np.all(coeffs != 0.0, axis=1)
        partial = (np.all(coeffs[:, [0, 2]] == 0.0, axis=1) & (a0.imag == 0.0)
                   & (a0.real**2 > bound))
        assert np.all(full ^ partial)
        assert np.all(np.abs(a0[full]) ** 2 <= bound * (1.0 + 1e-14))
        # the masses at or below the bound follow the free law, the rate-lambda_0
        # exponential convolved with Gamma(2, lambda_1), truncated to [0, bound]
        l0, l1 = eigenvalues(1)[1:]
        d = l1 - l0

        def cdf(x):
            inner = (-np.expm1(-d * x) - d * x * np.exp(-d * x)) / d**2
            return special.gammainc(2, l1 * x) - l1**2 * np.exp(-l0 * x) * inner

        mass = np.sum(np.abs(coeffs) ** 2, axis=1)
        low = mass[mass <= bound]
        assert stats.kstest(low, lambda x: cdf(x) / cdf(bound)).pvalue >= GATE_ALPHA
        # a_0's phase on the full rows is uniform: a circular mean
        phase = a0[full] / np.abs(a0[full])
        assert abs(phase.mean()) * math.sqrt(len(phase)) <= GATE_R


class TestEnergies:
    def test_constant_field(self):
        u = np.array([[0.0, 2.0, 0.0]], dtype=complex)
        assert cgibbs.local_energy_batch(u)[0] == pytest.approx(2.0**6 / 6.0, rel=1e-12)
        assert cgibbs.hartree_energy_batch(u, 0.5)[0] == pytest.approx(2.0**6 / 6.0, rel=1e-12)

    def test_unimodular_field(self):
        u = np.array([[0.0, 0.0, 1.0]], dtype=complex)
        assert cgibbs.local_energy_batch(u)[0] == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert cgibbs.hartree_energy_batch(u, 0.5)[0] == pytest.approx(1.0 / 6.0, rel=1e-12)

    def test_hartree_vs_position_quadrature(self, rng):
        # 3d quadrature of the defining triple integral, eps-aligned panels
        eps = 0.5
        gl_x, gl_w = np.polynomial.legendre.leggauss(24)
        s_nodes = gl_x * (eps * 0.5)
        s_w = gl_w * (eps * 0.5)
        nc = 32
        c_nodes = np.arange(nc) / nc
        S, T, C = np.meshgrid(s_nodes, s_nodes, c_nodes, indexing="ij")
        WS = s_w[:, None, None] * s_w[None, :, None] / nc

        def field(alpha, x):
            out = np.zeros_like(x, dtype=complex)
            for a, k in zip(alpha, (-1, 0, 1)):
                out = out + a * np.exp(2j * np.pi * k * x)
            return out

        for _ in range(5):
            alpha = rng.normal(size=3) + 1j * rng.normal(size=3)
            rho = lambda x: np.abs(field(alpha, x)) ** 2
            kern = box_periodized(S, eps) * box_periodized(T, eps)
            oracle = np.sum(WS * kern * rho(C) * rho(C - S) * rho(C - T)) / 6.0
            got = cgibbs.hartree_energy_batch(alpha[None, :], eps)[0]
            assert got == pytest.approx(oracle, abs=1e-8 * max(1.0, abs(oracle)))

    @pytest.mark.parametrize("J", [2, 4])
    def test_even_mode_count_rejected(self, J):
        # a row of 2k_max+1 coefficients always has odd length
        u = np.ones((1, J), dtype=complex)
        with pytest.raises(InvalidConfigError):
            cgibbs.local_energy_batch(u)
        with pytest.raises(InvalidConfigError):
            cgibbs.hartree_energy_batch(u, 0.5)

    @pytest.mark.parametrize("k_max", [1, 2, 3])
    @pytest.mark.parametrize("kernel_id", ["box", "box0.3", "local"])
    def test_fourier_triple_sum_oracle(self, k_max, kernel_id, rng):
        # (1/6) sum over m1 + m2 + m3 = 0 of w(m1) w(m2) rho(m1) rho(m2) rho(m3),
        # with rho_hat(m) = sum_j a_{j+m} conj(a_j) and w(m) = w_hat(eps*m) in
        # closed form (w = 1 for the local energy); no grid, no circulant.  A
        # box of half-width 0.3 at range 0.5 is the box at range 2 * 0.3 * 0.5
        eps, w_hat = {
            "local": (0.5, lambda xi: 1.0),
            "box": (0.5, lambda xi: np.sinc(xi)),
            "box0.3": (0.3, lambda xi: np.sinc(xi)),
        }[kernel_id]
        J = 2 * k_max + 1
        coeffs = rng.normal(size=(4, J)) + 1j * rng.normal(size=(4, J))
        if kernel_id == "local":
            got = cgibbs.local_energy_batch(coeffs)
        else:
            got = cgibbs.hartree_energy_batch(coeffs, eps)
        for alpha, value in zip(coeffs, got):
            rho_hat = {m: sum(alpha[j + m] * np.conj(alpha[j])
                              for j in range(J) if 0 <= j + m < J)
                       for m in range(-2 * k_max, 2 * k_max + 1)}
            oracle = sum(w_hat(eps * m1) * w_hat(eps * m2)
                         * rho_hat[m1] * rho_hat[m2] * rho_hat[-m1 - m2]
                         for m1 in rho_hat for m2 in rho_hat
                         if -m1 - m2 in rho_hat) / 6.0
            assert abs(oracle.imag) < 1e-12 * abs(oracle)
            assert value == pytest.approx(oracle.real, rel=1e-12)

    def test_hartree_to_local_pathwise(self, rng):
        for _ in range(8):
            alpha = (rng.normal(size=3) + 1j * rng.normal(size=3)) * 0.5
            loc = cgibbs.local_energy_batch(alpha[None, :])[0]
            gaps = [abs(cgibbs.hartree_energy_batch(alpha[None, :], e)[0] - loc)
                    for e in (0.4, 0.2, 0.1, 0.05)]
            assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


class TestClassicalPartition:
    def test_unit_weight(self):
        est = cgibbs.classical_partition(params(), "none", UNREACHED, 20000, 3)
        assert est.value == 1.0 and est.stderr == 0.0

    def test_reproducible(self):
        a = cgibbs.classical_partition(params(), "local", CutoffProfile.sharp(0.6),
                                       50000, 11)
        b = cgibbs.classical_partition(params(), "local", CutoffProfile.sharp(0.6),
                                       50000, 11)
        assert a == b

    def test_mass_probability_vs_inverted_cdf(self):
        # two independent routes to mu_0(mass <= K^2)
        est = cgibbs.classical_partition(params(), "none", CutoffProfile.sharp(0.6),
                                         400000, 17)
        grid = np.linspace(0.0, 0.36, 1025)
        dens = cgibbs.mass_density_charfn(1, grid)
        cdf = integrate.simpson(dens, x=grid)
        assert est.value == pytest.approx(cdf, abs=GATE_Z * est.stderr)

    def test_focusing_needs_bounded_cutoff(self):
        # every profile vanishes above its K^2: an unbounded one cannot be built
        with pytest.raises(InvalidConfigError, match="unknown cutoff kind"):
            CutoffProfile(kind="one")

    def test_local_regression_baseline(self):
        # frozen after the first certified run of this estimator
        est = cgibbs.classical_partition(params(), "local", CutoffProfile.sharp(0.6),
                                         200000, 99)
        assert est.value == pytest.approx(0.122655, abs=GATE_Z * est.stderr + 1e-6)
        assert est.value > cgibbs.classical_partition(
            params(), "none", CutoffProfile.sharp(0.6), 200000, 99).value


class TestPartitionRatio:
    @pytest.mark.parametrize("n_samples", [100000, 1000000])
    def test_free_weight_is_exactly_one(self, n_samples):
        # with interaction "none" numerator and denominator are the same rows
        est = cgibbs.partition_ratio(params(), "none", CutoffProfile.smooth(0.6, 0.05),
                                     n_samples, 19)
        assert (est.value, est.stderr) == (1.0, 0.0)

    def test_equals_quotient_of_partitions(self):
        # the same seed draws the same rows in both estimators
        cut = CutoffProfile.smooth(0.6, 0.05)
        ratio = cgibbs.partition_ratio(params(), "hartree", cut, 100000, 59)
        num = cgibbs.classical_partition(params(), "hartree", cut, 100000, 59)
        den = cgibbs.classical_partition(params(), "none", cut, 100000, 59)
        assert ratio.value == pytest.approx(num.value / den.value, rel=1e-14)

    def test_single_mode_quadrature_oracle(self):
        # k_max = 0: the mass s = |a_0|^2 is Exp(lambda_0 = 1/2) under the free
        # measure, and a constant field has Hartree energy s^3/6 for any kernel
        K, eta = 1.5, 0.2
        cut = CutoffProfile.smooth(K, eta)
        p = params(tau=10.0, eta=eta, K=K, k_max=0, n_max=math.floor(K**2 * 10.0))
        lam0 = 0.5

        def moment(g):
            return integrate.quad(lambda s: lam0 * math.exp(-lam0 * s) * g(s) * cut(s),
                                  0.0, K**2, points=[K**2 - eta], limit=200,
                                  epsabs=1e-13, epsrel=1e-12)[0]

        oracle = moment(lambda s: math.exp(s**3 / 6.0)) / moment(lambda s: 1.0)
        est = cgibbs.partition_ratio(p, "hartree", cut, 200000, 12345)
        assert est.value == pytest.approx(oracle, abs=GATE_Z * est.stderr)


class TestMomentMatrix:
    def test_free_measure_diagonal(self):
        M, M_err, _, _ = cgibbs.classical_moment_matrix(
            params(), "none", UNREACHED, 1, 400000, 23)
        lam = np.array([0.5 * ((2 * np.pi * k) ** 2 + 1) for k in (-1, 0, 1)])
        for i in range(3):
            assert M[i, i].real == pytest.approx(1.0 / lam[i], abs=GATE_Z * M_err[i, i])
            for j in range(3):
                if i != j:
                    # translation invariance makes the off-diagonal means exactly 0
                    assert M[i, j] == 0.0 and M_err[i, j] == 0.0

    def test_hermitian_psd(self):
        M, _, _, _ = cgibbs.classical_moment_matrix(
            params(), "local", CutoffProfile.sharp(0.6), 1, 100000, 29)
        assert np.abs(M - M.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(M).min() > 0.0

    def test_trace_bounded_by_cutoff(self):
        M, _, _, _ = cgibbs.classical_moment_matrix(
            params(), "local", CutoffProfile.sharp(0.6), 1, 100000, 29)
        assert np.trace(M).real <= 0.36

    def test_diagonal_matches_outer_product_draw(self):
        # the full (rows, J, J) outer-product estimate, scored on the same
        # weighted draws, has the mode-mass estimate as its diagonal
        p, cut = params(), CutoffProfile.smooth(0.6, 0.1)

        def outer(coeffs, w, f):
            return w[:, None, None] * (coeffs[:, :, None] * np.conj(coeffs[:, None, :])), w

        outer_draw = cgibbs._weighted_draw(
            p.k_max, lambda coeffs: cgibbs.hartree_energy_batch(coeffs, p.eps), cut, outer)
        n, seed = 70000, 59  # two shards
        full, full_err, full_num, full_den = cgibbs._mc_ratio(seed, n, outer_draw, 1)
        M, M_err, group_num, group_den = cgibbs.classical_moment_matrix(
            p, "hartree", cut, 1, n, seed)
        assert M.dtype == M_err.dtype == np.float64
        assert group_num.shape == (len(group_den), 3)
        assert np.array_equal(group_den, full_den)
        off = ~np.eye(3, dtype=bool)
        assert np.all(M[off] == 0.0) and np.all(M_err[off] == 0.0)
        np.testing.assert_allclose(np.diag(M), np.diag(full).real, rtol=1e-14, atol=0)
        np.testing.assert_allclose(np.diag(M_err), np.diag(full_err), rtol=1e-14, atol=0)
        np.testing.assert_allclose(group_num, np.diagonal(full_num, axis1=1, axis2=2).real,
                                   rtol=1e-14, atol=0)


# every estimator on the shared MC core, as a function of (n_samples, seed)
MC_ESTIMATORS = {
    "classical_partition": lambda n, s, threads=1: cgibbs.classical_partition(
        params(), "hartree", CutoffProfile.smooth(0.6, 0.1), n, s, threads=threads),
    "partition_ratio": lambda n, s, threads=1: cgibbs.partition_ratio(
        params(), "hartree", CutoffProfile.smooth(0.6, 0.1), n, s, threads=threads),
    "classical_moment_matrix": lambda n, s, threads=1: cgibbs.classical_moment_matrix(
        params(), "hartree", CutoffProfile.smooth(0.6, 0.1), 1, n, s, threads=threads),
    "capped_partition": lambda n, s, threads=1: cgibbs.capped_partition(
        params(), 6.0, CutoffProfile.sharp(0.6), n, s, threads=threads),
    "subcritical_moment": lambda n, s, threads=1: cgibbs.subcritical_moment(
        params(), 0.6, 0.0, n, s, threads=threads),
}


class TestMCCore:
    @pytest.mark.parametrize("n_samples", [-3, 0, 1])
    @pytest.mark.parametrize("estimator", sorted(MC_ESTIMATORS))
    def test_too_few_samples(self, estimator, n_samples):
        with pytest.raises(InvalidConfigError):
            MC_ESTIMATORS[estimator](n_samples, 7)

    @pytest.mark.parametrize("estimator", sorted(MC_ESTIMATORS))
    def test_threads_bit_identical(self, estimator):
        n = 2 * cgibbs._SHARD + 1000  # three shards
        one, three = (MC_ESTIMATORS[estimator](n, 7, threads=t) for t in (1, 3))
        if isinstance(one, cgibbs.MCEstimate):
            assert one == three
        else:
            assert all(np.array_equal(a, b) for a, b in zip(one, three, strict=True))

    @pytest.mark.parametrize("estimator", sorted(MC_ESTIMATORS))
    def test_cutoff_evaluated_only_within_support(self, estimator, monkeypatch):
        # rows above the support bound score 0 without a cutoff evaluation;
        # subcritical_moment builds its own sharp cutoff, so spy on the class
        seen = []
        call = CutoffProfile.__call__

        def spy(self, s):
            seen.append((self.support_bound, np.max(s, initial=-np.inf), np.size(s)))
            return call(self, s)

        monkeypatch.setattr(CutoffProfile, "__call__", spy)
        MC_ESTIMATORS[estimator](20000, 7)
        assert sum(size for _, _, size in seen) > 0
        assert all(top <= bound for bound, top, _ in seen)

    @pytest.mark.parametrize("estimator", ["partition_ratio", "classical_moment_matrix"])
    def test_zero_mean_weight(self, estimator):
        # a cutoff support far below the typical free mass: no draw carries weight
        order = (1,) if estimator == "classical_moment_matrix" else ()
        with pytest.raises(NumericalFailureError):
            getattr(cgibbs, estimator)(params(K=0.05, eta=0.001), "hartree",
                                       CutoffProfile.smooth(0.05, 0.001), *order, 10, 7)


class TestMassDensity:
    def test_single_mode_closed_form(self):
        xs = np.array([0.0, 0.5, 2.0, 7.3])
        dens = cgibbs.mass_density_charfn(0, xs)
        assert np.abs(dens - 0.5 * np.exp(-0.5 * xs)).max() <= 1e-8
        assert dens[0] == pytest.approx(0.5, abs=1e-8)

    def test_three_modes_closed_form(self):
        # Exp(lambda_0) * Gamma(2, lambda_1), convolved by hand:
        # int_0^x y e^{-d y} dy = (1 - e^{-dx}(1 + dx)) / d^2
        l1, l0, _ = eigenvalues(1)
        d = l1 - l0
        xs = np.linspace(0.0, 6.0, 97)
        exact = l0 * l1**2 * np.exp(-l0 * xs) * (-np.expm1(-d * xs)
                                                 - d * xs * np.exp(-d * xs)) / d**2
        assert np.abs(cgibbs.mass_density_charfn(1, xs) - exact).max() <= 1e-12

    @pytest.mark.parametrize("s", [0.3, 3.0])
    @pytest.mark.parametrize("k_max", range(5))
    def test_laplace_transform(self, k_max, s):
        # E[e^{-s mass}] is the product of the per-mode exponential laws;
        # quadrature reaches it without the partial fractions
        lam = eigenvalues(k_max)
        val, _ = integrate.quad(
            lambda x: math.exp(-s * x) * cgibbs.mass_density_charfn(k_max, np.array([x]))[0],
            0.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=200)
        assert val == pytest.approx(float(np.prod(lam / (lam + s))), abs=1e-10)

    @pytest.mark.parametrize("k_max", range(5))
    def test_mean_is_trace_h_inverse(self, k_max):
        val, _ = integrate.quad(
            lambda x: x * cgibbs.mass_density_charfn(k_max, np.array([x]))[0],
            0.0, np.inf, epsabs=1e-14, epsrel=1e-13, limit=200)
        assert val == pytest.approx(truncated_trace_h_inverse(k_max), abs=1e-10)

    def test_three_modes_vanishes_at_zero(self):
        val = cgibbs.mass_density_charfn(1, np.array([0.0]))[0]
        assert val == pytest.approx(0.0, abs=1e-8)

    def test_integrates_to_one(self):
        x1 = np.linspace(0.0, 2.0, 257)
        x2 = np.linspace(2.0, 40.0, 257)
        d1 = cgibbs.mass_density_charfn(1, x1)
        d2 = cgibbs.mass_density_charfn(1, x2)
        total = integrate.simpson(d1, x=x1) + integrate.simpson(d2, x=x2)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_histogram_agreement(self, rng):
        coeffs = cgibbs.sample_free_fields(1, 100000, rng, math.inf)
        mass = np.sum(np.abs(coeffs) ** 2, axis=1)
        n_bins, per_bin = 40, 24
        edges = np.linspace(0.0, 6.0, n_bins + 1)
        counts, _ = np.histogram(mass, bins=edges)
        n = len(mass)
        grid = np.linspace(0.0, 6.0, n_bins * per_bin + 1)
        dens = cgibbs.mass_density_charfn(1, grid)
        for b in range(n_bins):
            lo = b * per_bin
            p = integrate.simpson(dens[lo:lo + per_bin + 1], x=grid[lo:lo + per_bin + 1])
            sigma = math.sqrt(max(p * (1 - p) / n, 1e-12))
            assert counts[b] / n == pytest.approx(p, abs=GATE_Z * sigma + 2e-4)


class TestCappedPartition:
    def test_zero_cap_is_mass_probability(self):
        cut = CutoffProfile.sharp(0.6)
        capped = cgibbs.capped_partition(params(), 0.0, cut, 100000, 31)
        plain = cgibbs.classical_partition(params(), "none", cut, 100000, 31)
        assert capped.value == pytest.approx(plain.value, rel=1e-12)

    def test_large_cap_matches_uncapped(self):
        cut = CutoffProfile.sharp(0.6)
        capped = cgibbs.capped_partition(params(), 50.0, cut, 200000, 37)
        full = cgibbs.classical_partition(params(), "hartree", cut, 200000, 41)
        sigma = math.hypot(capped.stderr, full.stderr)
        assert capped.value == pytest.approx(full.value, abs=GATE_Z * sigma)

    def test_nan_cap_rejected(self):
        with pytest.raises(InvalidConfigError, match="R_cap"):
            cgibbs.capped_partition(params(), math.nan, CutoffProfile.sharp(0.6), 100, 1)

    def test_monotone_in_cap(self):
        cut = CutoffProfile.sharp(0.6)
        vals = [cgibbs.capped_partition(params(), R, cut, 100000, 43).value
                for R in (0.0, 0.05, 0.2, 1.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestSubcriticalMoment:
    def test_dominates_mass_probability(self):
        est = cgibbs.subcritical_moment(params(), 0.6, 0.0, 100000, 47)
        base = cgibbs.classical_partition(params(), "none", CutoffProfile.sharp(0.6),
                                          100000, 47)
        assert est.value >= base.value - 1e-12

    def test_small_ball_bounded_by_one(self):
        est = cgibbs.subcritical_moment(params(), 0.05, 0.0, 100000, 53)
        # tiny support: weight is e^{o(1)} there, so the value is < 1
        assert 0.0 <= est.value < 1.0

    def test_rejects_supercritical_level(self):
        with pytest.raises(InvalidConfigError):
            cgibbs.subcritical_moment(params(), 1.7, 0.0, 100, 1)

    @pytest.mark.parametrize("K_s", [-0.6, 0.0])
    def test_rejects_nonpositive_level(self, K_s):
        # the bound is the sharp cutoff's K_s^2, which would hide the sign
        with pytest.raises(InvalidConfigError):
            cgibbs.subcritical_moment(params(), K_s, 0.0, 100, 1)
