import numpy as np
import pytest
from scipy.integrate import simpson

from conftest import random_hermitian
from oracles import coarse_grained_L_quadrature, pv_gaussian_quadrature
from cglind.coarsegrain import (
    CoarseGrainSchedule,
    T_of_lambda,
    coarse_grained_L,
    lamb_shift,
    pv_gaussian,
    pv_shift_eigenbasis,
)
from cglind.linalg import hermitian_eig, max_abs
from cglind.subsystem import build_projection, sector_family

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


class TestSchedule:
    @pytest.mark.parametrize("lam, xi, t_ref, expected", [
        (1.0, 0.7, 2.0, 2.0),
        (0.1, 1.0, 1.0, 10.0),
        (0.01, 0.5, 3.0, 30.0),
    ])
    def test_power_law(self, lam, xi, t_ref, expected):
        assert T_of_lambda(CoarseGrainSchedule(lam, xi, t_ref)) == pytest.approx(
            expected, rel=1e-14)

    def test_zero_coupling_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            T_of_lambda(CoarseGrainSchedule(0.0, 1.0, 1.0))

    @pytest.mark.parametrize("xi", [0.0, 2.0, 2.5, -0.3])
    def test_xi_range(self, xi):
        with pytest.raises(ValueError, match="xi"):
            CoarseGrainSchedule(0.1, xi, 1.0)

    def test_t_ref_positive(self):
        with pytest.raises(ValueError, match="T_ref"):
            CoarseGrainSchedule(0.1, 1.0, 0.0)


class TestCoarseGrainedL:
    def test_free_hamiltonian_zero(self, rng):
        Hp = random_hermitian(rng, 3)
        T = 1.7
        eig = hermitian_eig(np.zeros((3, 3)))
        L = coarse_grained_L(eig, Hp, T, 0.0)
        expected = np.sqrt(2.0) * np.pi ** 0.25 * np.sqrt(T) * Hp
        np.testing.assert_allclose(L, expected, atol=1e-12)
        quad = coarse_grained_L_quadrature(eig, Hp, T, 0.0)
        np.testing.assert_allclose(L, quad, atol=1e-10)

    def test_qubit_closed_form_entries(self):
        # level spacing 2, window T = 1: off-diagonals sqrt(2) pi^(1/4) e^-2
        eig = hermitian_eig(SZ)
        L = coarse_grained_L(eig, SX, 1.0, 0.0)
        val = np.sqrt(2.0) * np.pi ** 0.25 * np.exp(-2.0)
        np.testing.assert_allclose(np.diag(L), [0.0, 0.0], atol=1e-15)
        assert abs(L[0, 1] - val) < 1e-12
        assert abs(L[1, 0] - val) < 1e-12

    def test_quadrature_agreement_random(self, rng):
        H0 = random_hermitian(rng, 4)
        Hp = random_hermitian(rng, 4)
        eig = hermitian_eig(H0)
        for omega in (0.0, 0.6, -1.1):
            closed = coarse_grained_L(eig, Hp, 1.3, omega)
            quad = coarse_grained_L_quadrature(eig, Hp, 1.3, omega)
            assert max_abs(closed - quad) < 1e-8

    @staticmethod
    def quadrature_loop_reference(eig, Hp, T, omega, n_points=3200):
        """The per-frequency trapezoid rule on the combined phase
        exp(i (w - D_mn) t - t^2 / 2T^2), one frequency at a time."""
        U = eig.vectors
        delta = np.subtract.outer(eig.values, eig.values)
        Hp_eig = U.conj().T @ Hp @ U
        ts = np.linspace(-8.0 * T, 8.0 * T, n_points)
        phase = np.exp(1j * (omega - delta)[..., None] * ts
                       - ts ** 2 / (2.0 * T * T))
        L_eig = np.trapezoid(phase, ts, axis=-1) * Hp_eig \
            / np.sqrt(np.sqrt(np.pi) * T)
        return U @ L_eig @ U.conj().T

    def test_frequency_array_matches_scalar_loop(self, rng):
        eig = hermitian_eig(random_hermitian(rng, 4))
        Hp = random_hermitian(rng, 4)
        omegas = np.array([-2.3, -0.4, 0.0, 0.7, 5.0])
        stacked = coarse_grained_L_quadrature(eig, Hp, 1.3, omegas)
        assert stacked.shape == (len(omegas), 4, 4)
        for omega, got in zip(omegas, stacked):
            ref = self.quadrature_loop_reference(eig, Hp, 1.3, omega)
            single = coarse_grained_L_quadrature(eig, Hp, 1.3, omega)
            # one product e^{iwt} e^{-iDt - t^2/2T^2} per node in place of
            # one exponential: a few ulps per node, summed over 3200 nodes
            bound = 1e-12 * (1.0 + max_abs(ref))
            assert max_abs(got - ref) <= bound
            assert max_abs(single - ref) <= bound

    def test_frequency_reflection_is_adjoint(self, rng):
        eig = hermitian_eig(random_hermitian(rng, 4))
        Hp = random_hermitian(rng, 4)
        for omega in (0.3, 1.7, -0.9):
            Lp = coarse_grained_L(eig, Hp, 0.8, omega)
            Lm = coarse_grained_L(eig, Hp, 0.8, -omega)
            assert max_abs(Lm - Lp.conj().T) < 1e-10

    def test_zero_frequency_hermitian(self, rng):
        eig = hermitian_eig(random_hermitian(rng, 5))
        L = coarse_grained_L(eig, random_hermitian(rng, 5), 1.1, 0.0)
        assert max_abs(L - L.conj().T) < 1e-10

    def test_linear_in_perturbation(self, rng):
        eig = hermitian_eig(random_hermitian(rng, 3))
        Hp = random_hermitian(rng, 3)
        L1 = coarse_grained_L(eig, Hp, 1.0, 0.4)
        L2 = coarse_grained_L(eig, 2.5 * Hp, 1.0, 0.4)
        np.testing.assert_allclose(L2, 2.5 * L1, atol=1e-12)

    def test_large_window_limit(self):
        # off-diagonal entries decay like exp(-T^2 D^2 / 2), diagonal grows
        # like sqrt(T)
        eig = hermitian_eig(SZ)
        Hp = SX + 0.5 * SZ
        L1 = coarse_grained_L(eig, Hp, 2.0, 0.0)
        L2 = coarse_grained_L(eig, Hp, 4.0, 0.0)
        ratio_offdiag = abs(L2[0, 1]) / abs(L1[0, 1])
        # amplitude ratio sqrt(T2/T1) * exp(-(T2^2 - T1^2) * 4 / 2)
        expected = np.sqrt(2.0) * np.exp(-(16.0 - 4.0) * 2.0)
        assert ratio_offdiag == pytest.approx(expected, rel=1e-10)
        diag_ratio = abs(L2[0, 0]) / abs(L1[0, 0])
        assert diag_ratio == pytest.approx(np.sqrt(2.0), rel=1e-10)

    def test_projected_part_stays_in_image(self, rng):
        sub = build_projection(sector_family([1, 1]))
        eig = hermitian_eig(SZ)
        for omega in (0.0, 0.8):
            L = coarse_grained_L(eig, random_hermitian(rng, 2), 1.0, omega)
            mean = sub.project(L)
            assert max_abs(sub.project(mean) - mean) < 1e-12

    def test_rejects_bad_window(self, rng):
        eig = hermitian_eig(random_hermitian(rng, 2))
        with pytest.raises(ValueError, match="positive"):
            coarse_grained_L(eig, SX, -1.0, 0.0)


class TestPvGaussian:
    def test_odd_origin(self):
        assert pv_gaussian(0.0, 1.0) == 0.0

    def test_antisymmetry(self):
        mus = np.array([0.3, 1.0, 2.7, 5.0])
        np.testing.assert_allclose(pv_gaussian(-mus, 1.4),
                                   -pv_gaussian(mus, 1.4), atol=1e-15)

    @pytest.mark.parametrize("mu, a", [
        (1.0, 1.0), (0.25, 3.0), (-1.8, 0.6), (3.5, 2.2), (0.05, 1.0),
    ])
    def test_dual_method_agreement(self, mu, a):
        dawson = float(pv_gaussian(mu, a))
        quad = pv_gaussian_quadrature(mu, a)
        assert abs(dawson - quad) <= 1e-8 * max(1e-3, abs(dawson))

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError, match="positive"):
            pv_gaussian(1.0, 0.0)
        with pytest.raises(ValueError, match="positive"):
            pv_gaussian_quadrature(1.0, -1.0)


class TestPvShiftKernel:
    @staticmethod
    def loop_reference(eps, V, T, omega):
        # one (n, q) entry at a time, each a 1-d sum over m
        d = len(eps)
        a = T * T
        pref_gap = np.exp(-0.25 * a * np.subtract.outer(eps, eps) ** 2)
        S = np.zeros((d, d), dtype=complex)
        for n in range(d):
            for q in range(d):
                col = np.conj(V[:, n]) * V[:, q]
                if not np.any(col):
                    continue
                mid = eps - 0.5 * (eps[n] + eps[q]) - omega
                S[n, q] = (T / np.sqrt(np.pi)) * pref_gap[q, n] \
                    * np.sum(col * pv_gaussian(mid, a))
        return S

    @pytest.mark.parametrize("d, omega", [(1, 0.0), (3, 0.7), (8, 0.0),
                                          (27, -0.4)])
    def test_matches_loop_exactly(self, rng, d, omega):
        eps = np.sort(rng.standard_normal(d))
        V = random_hermitian(rng, d)
        V[:, 0] = 0.0  # an all-zero column is skipped by the loop
        T = 1.7
        got = pv_shift_eigenbasis(eps, V, T, omega)
        assert np.array_equal(got, self.loop_reference(eps, V, T, omega))


def lamb_pv_oracle(eig, Hp, T, sub, n=1501, delta=4e-3):
    """Direct principal-value frequency quadrature of the shift, with
    the coarse-grained operators built by time quadrature.  Symmetric
    exclusion of (-delta, delta), Simpson on the grid, Richardson
    extrapolation in delta."""
    eps = eig.values
    R = 2.0 * float(eps.max() - eps.min()) + 12.0 / T

    def centered(omegas):
        return [L - sub.project(L)
                for L in coarse_grained_L_quadrature(eig, Hp, T, omegas)]

    def excluded(dlt):
        xs = np.linspace(dlt, R, n)
        vals = np.array([(Cp.conj().T @ Cp - Cm.conj().T @ Cm) / w
                         for w, Cp, Cm in zip(xs, centered(xs), centered(-xs))])
        integ = simpson(vals, x=xs, axis=0)
        return sub.project(integ) / (2.0 * np.pi)

    coarse = excluded(delta)
    fine = excluded(delta / 2.0)
    return 2.0 * fine - coarse


class TestLambShift:
    def test_zero_when_perturbation_in_image(self):
        sub = build_projection(sector_family([1, 1]))
        eig = hermitian_eig(SZ)
        shift = lamb_shift(eig, SZ, 1.0, sub)
        assert max_abs(shift) < 1e-14

    def test_matches_pv_quadrature_oracle(self):
        sub = build_projection(sector_family([1, 1]))
        eig = hermitian_eig(SZ)
        T = 1.0
        closed = lamb_shift(eig, SX, T, sub)
        oracle = lamb_pv_oracle(eig, SX, T, sub)
        assert max_abs(closed - oracle) < 1e-6

    def test_matches_oracle_on_blocks(self, rng):
        sub = build_projection(sector_family([1, 2]))
        H0 = np.diag([0.2, 0.9, 1.3]).astype(complex)
        Hp = random_hermitian(rng, 3)
        eig = hermitian_eig(H0)
        closed = lamb_shift(eig, Hp, 0.9, sub)
        oracle = lamb_pv_oracle(eig, Hp, 0.9, sub)
        assert max_abs(closed - oracle) < 1e-6

    def test_hermitian_and_in_image(self, rng):
        sub = build_projection(sector_family([2, 2]))
        H0 = np.diag([0.0, 0.3, 1.0, 1.4]).astype(complex)
        Hp = random_hermitian(rng, 4)
        shift = lamb_shift(hermitian_eig(H0), Hp, 1.2, sub)
        assert max_abs(shift - shift.conj().T) < 1e-12
        assert max_abs(sub.project(shift) - shift) < 1e-10

    def test_quadratic_scaling(self, rng):
        sub = build_projection(sector_family([1, 1]))
        eig = hermitian_eig(SZ)
        Hp = random_hermitian(rng, 2)
        s1 = lamb_shift(eig, Hp, 1.0, sub)
        s2 = lamb_shift(eig, 3.0 * Hp, 1.0, sub)
        np.testing.assert_allclose(s2, 9.0 * s1, atol=1e-12)
