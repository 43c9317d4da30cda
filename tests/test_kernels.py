import numpy as np
import pytest

from besovlab.errors import InvalidParameter, QuadratureInaccurate
from besovlab.kernels import (
    MOMENT_TOL,
    build_lp_pair,
    build_mollifier,
    kernel_space_norm,
    moment,
    verify_lp_conditions,
)
from oracles import kernel_space_samples


class TestMollifier:
    def test_mass_is_one(self, moll32):
        assert moment(moll32, 0) == pytest.approx(1.0, abs=1e-10)

    def test_first_moment_vanishes(self, moll32):
        assert abs(moment(moll32, 1)) < 1e-10

    def test_high_moment_vanishes(self, moll32):
        assert abs(moment(moll32, 8)) < 1e-8

    def test_odd_symmetry(self, moll32):
        assert abs(moment(moll32, 3)) < 1e-10

    @pytest.mark.parametrize("sigma", [16.0, 32.0, 64.0, 128.0])
    def test_vanishing_moment_sweep(self, sigma):
        K = build_mollifier(sigma)
        for a in range(1, 11):
            assert abs(moment(K, a)) < 1e-8, (sigma, a)

    def test_rejects_bad_sigma(self):
        with pytest.raises(InvalidParameter):
            build_mollifier(0.0)
        with pytest.raises(InvalidParameter):
            build_mollifier(-3.0)


class TestLpKernel:
    def test_zero_mass(self, pair32):
        assert abs(moment(pair32[1], 0)) < 1e-10

    @pytest.mark.parametrize("sigma,eta", [(32.0, 0.5), (64.0, 0.25), (64.0, 0.75)])
    def test_vanishing_moment_sweep(self, sigma, eta):
        _, psi = build_lp_pair(sigma, eta)
        for a in range(0, 11):
            assert abs(moment(psi, a)) < 1e-8, (sigma, eta, a)

    def test_rejects_bad_eta(self):
        with pytest.raises(InvalidParameter):
            build_lp_pair(32.0, 0.0)
        with pytest.raises(InvalidParameter):
            build_lp_pair(32.0, 1.0)


class TestSpectralSupports:
    def test_mollifier_profile_exact(self, moll32):
        assert moll32.profile(0.0) == 1.0
        assert np.all(moll32.profile(np.linspace(0, 16.0, 50)) == 1.0)
        assert np.all(moll32.profile(np.linspace(32.001, 200.0, 50)) == 0.0)
        mid = moll32.profile(np.linspace(16.5, 31.5, 50))
        assert np.all((mid > 0.0) & (mid < 1.0 + 1e-15))

    def test_lp_profile_exact(self, pair32):
        _, psi = pair32
        assert np.all(psi.profile(np.linspace(0, 8.0, 50)) == 0.0)  # eta sigma / 2
        assert np.all(psi.profile(np.linspace(16.0, 32.0, 50)) == 1.0)
        assert np.all(psi.profile(np.linspace(40.001, 300.0, 50)) == 0.0)

    def test_phi_of_pair_covers_ball(self, pair32):
        phi, _ = pair32
        assert np.all(phi.profile(np.linspace(0.0, 32.0, 100)) == 1.0)


class TestVerifyConditions:
    def test_canonical_pair_passes(self, pair32):
        diag = verify_lp_conditions(pair32, 3)
        assert diag.passed, diag.failures

    def test_moment_orders_checked(self, pair32):
        diag = verify_lp_conditions(pair32, 7.9)
        assert diag.passed
        assert [a for a, _ in diag.moments] == list(range(8))  # floor(7.9) = 7

    def test_negative_order_checks_no_moments(self, pair32):
        diag = verify_lp_conditions(pair32, -2)
        assert diag.passed
        assert diag.moments == []

    def test_mollifier_self_pair_negative_order(self, moll32):
        # the fixed mollifier with itself is a valid pair for any s < 0
        diag = verify_lp_conditions((moll32, moll32), -1)
        assert diag.passed, diag.failures

    def test_mollifier_self_pair_fails_at_zero(self, moll32):
        diag = verify_lp_conditions((moll32, moll32), 0)
        assert not diag.passed
        assert any("moment 0" in f for f in diag.failures)

    def test_mollifier_self_pair_fails_positive(self, moll32):
        assert not verify_lp_conditions((moll32, moll32), 1).passed

    def test_uncertifiable_moments_fail_without_raising(self):
        diag = verify_lp_conditions(build_lp_pair(16.0, 0.25), 10)
        assert not diag.passed
        assert [a for a, _ in diag.moments] == list(range(7))
        assert [f.split(" not certifiable")[0] for f in diag.failures] == [
            f"moment {a} of psi" for a in range(7, 11)
        ]

    @pytest.mark.parametrize(
        "sigma,eta",
        [(32.0, 0.5), (64.0, 0.25), (64.0, 0.5), (64.0, 0.75), (128.0, 0.5)],
    )
    @pytest.mark.parametrize("s", [-2.0, 0.0, 3.0, 7.5, 10.0])
    def test_parameter_sweep(self, sigma, eta, s):
        assert verify_lp_conditions(build_lp_pair(sigma, eta), s).passed


class TestMomentOp:
    def test_order_cap(self, moll32):
        with pytest.raises(InvalidParameter):
            moment(moll32, 17)
        with pytest.raises(InvalidParameter):
            moment(moll32, -1)
        with pytest.raises(InvalidParameter):
            moment(moll32, 1.5)  # not read as order 1

    def test_narrow_transition_raises(self):
        _, psi = build_lp_pair(16.0, 0.25)
        with pytest.raises(QuadratureInaccurate):
            moment(psi, 10)

    def test_2d_inherits_1d_certification(self):
        # every profile is flat at 0, so this moment is exactly zero; the
        # order-10 1-d quadrature cannot certify it, nor can the 2-d one
        _, psi = build_lp_pair(8.0, 0.5)
        with pytest.raises(QuadratureInaccurate):
            moment(psi, (10, 0))

    def test_2d_narrow_kernel(self):
        _, psi = build_lp_pair(16.0, 0.25)
        assert abs(moment(psi, (2, 2))) < MOMENT_TOL

    def test_2d_mass(self, moll32):
        assert moment(moll32, (0, 0)) == pytest.approx(1.0, rel=1e-6)

    def test_2d_odd_vanishes(self, moll32):
        assert moment(moll32, (1, 2)) == 0.0

    def test_2d_even_vanishes(self, moll32):
        assert abs(moment(moll32, (2, 2))) < 1e-6


class TestSpaceNorms:
    def test_peak_matches_direct_synthesis(self, moll32):
        direct = kernel_space_samples(moll32, np.array([0.0]))[0]
        assert kernel_space_norm(moll32, "inf") == pytest.approx(direct, rel=1e-9)

    def test_l1_of_mollifier_bounded(self, moll32):
        # oscillating sinc-like kernel: ||K||_1 exceeds the unit mass a bit
        l1 = kernel_space_norm(moll32, 1)
        assert 1.0 <= l1 < 2.5
