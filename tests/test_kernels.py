import dataclasses
import math

import numpy as np
import pytest

from besovlab.errors import InvalidParameter
from besovlab.kernels import (
    MOMENT_TOL,
    Kernel,
    build_lp_pair,
    build_mollifier,
    moment,
    verify_lp_conditions,
)
from oracles import kernel_space_norm, kernel_space_samples


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


class TestKernelGlue:
    @pytest.mark.parametrize(
        "inner,plateau,outer",
        [
            (0.0, (5.0, 10.0), 15.0),  # jumps from 0 to 1 at xi = 5: no moments exist
            (5.0, (5.0, 10.0), 15.0),
            (6.0, (5.0, 10.0), 15.0),
            (1.0, (5.0, 4.0), 15.0),
            (1.0, (5.0, 15.0), 15.0),
            (0.0, (0.0, 0.0), 0.0),
        ],
    )
    def test_pieces_that_do_not_glue_rejected(self, inner, plateau, outer):
        with pytest.raises(InvalidParameter, match="glue"):
            Kernel(inner_support=inner, outer_support=outer, plateau=plateau)


class TestDerivedPieces:
    """kind and the witness radii are derived from the profile pieces."""

    def test_fields_are_the_pieces(self, pair32):
        names = [f.name for f in dataclasses.fields(pair32[1])]
        assert names == ["inner_support", "outer_support", "plateau", "label"]
        for name in ("kind", "positive_from", "positive_up_to"):
            assert isinstance(vars(Kernel)[name], property)
            with pytest.raises(AttributeError):
                setattr(pair32[1], name, 1.0)

    @pytest.mark.parametrize("sigma", [8.0, 16.0, 32.0, 64.0, 128.0])
    @pytest.mark.parametrize("eta", [0.25, 0.5, 0.75])
    def test_kind_and_witness_radii(self, sigma, eta):
        # the radii the builders used to declare, bitwise: smoothstep midpoints
        phi, psi = build_lp_pair(sigma, eta)
        moll = build_mollifier(sigma)
        assert (moll.kind, phi.kind, psi.kind) == ("mollifier", "mollifier", "lp")
        assert (moll.positive_from, moll.positive_up_to) == (0.0, 0.75 * sigma)
        assert (phi.positive_from, phi.positive_up_to) == (0.0, sigma * 1.125)
        assert (psi.positive_from, psi.positive_up_to) == (0.75 * eta * sigma, sigma * 1.125)
        for kernel in (moll, phi, psi):
            assert kernel.profile(kernel.positive_up_to) == 0.5
        assert psi.profile(psi.positive_from) == 0.5

    def test_witness_radii_within_an_ulp_off_powers_of_two(self):
        phi, psi = build_lp_pair(3.7, 0.5)
        assert abs(phi.positive_up_to - 3.7 * 1.125) <= math.ulp(3.7 * 1.125)
        assert abs(psi.positive_from - 0.75 * 0.5 * 3.7) <= math.ulp(0.75 * 0.5 * 3.7)

    def test_minimum_is_the_smaller_end_value(self, moll32):
        # witness ranges [0, 24] and [12, 24] of the self-pair, against a dense scan
        diag = verify_lp_conditions((moll32, moll32), -1)
        assert (diag.sigma_witness, diag.eta_witness) == (24.0, 0.5)
        assert diag.min_phi == diag.min_psi == 0.5
        scan = moll32.profile(np.linspace(0.0, 24.0, 4097))
        assert scan.min() == 0.5


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


# real pairs that fail: phi's roll-off ends far inside psi's rise, and an
# annular phi, which vanishes at 0
_MISMATCHED = (build_lp_pair(8.0, 0.5)[0], build_lp_pair(64.0, 0.75)[1])
_ANNULAR_PHI = (build_lp_pair(32.0, 0.5)[1],) * 2


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

    def test_narrow_pair_passes_at_order_10(self):
        diag = verify_lp_conditions(build_lp_pair(16.0, 0.25), 10)
        assert diag.passed, diag.failures
        assert diag.moments == [(a, 0.0) for a in range(11)]

    @pytest.mark.parametrize("sigma", [8.0, 16.0, 32.0, 64.0, 128.0])
    @pytest.mark.parametrize("eta", [0.25, 0.5, 0.75])
    def test_every_built_pair_passes_at_order_16(self, sigma, eta):
        diag = verify_lp_conditions(build_lp_pair(sigma, eta), 16)
        assert diag.passed, diag.failures
        assert (diag.min_phi, diag.min_psi) == (0.5, 0.5)  # exact minima at the range ends

    @pytest.mark.parametrize("s", [17, 40])
    def test_orders_above_16_pass(self, pair32, s):
        diag = verify_lp_conditions(pair32, s)
        assert diag.passed, diag.failures
        assert diag.moments == [(a, 0.0) for a in range(s + 1)]

    @pytest.mark.parametrize("s", [math.inf, math.nan, "2"])
    def test_non_finite_or_non_numeric_order_fails_without_raising(self, pair32, s):
        diag = verify_lp_conditions(pair32, s)
        assert not diag.passed
        assert diag.moments == []
        assert [f for f in diag.failures if "finite real number" in f], diag.failures

    @pytest.mark.parametrize(
        "pair,fragment",
        [
            pytest.param(_MISMATCHED, "no admissible annulus", id="no admissible annulus"),
            pytest.param(_ANNULAR_PHI, "phi profile vanishes", id="phi profile vanishes"),
            pytest.param(_MISMATCHED, "psi profile vanishes", id="psi profile vanishes"),
        ],
    )
    def test_failure_branches(self, pair, fragment):
        diag = verify_lp_conditions(pair, 3)
        assert not diag.passed
        assert [f for f in diag.failures if fragment in f], diag.failures

    @pytest.mark.parametrize(
        "sigma,eta",
        [(32.0, 0.5), (64.0, 0.25), (64.0, 0.5), (64.0, 0.75), (128.0, 0.5)],
    )
    @pytest.mark.parametrize("s", [-2.0, 0.0, 3.0, 7.5, 10.0])
    def test_parameter_sweep(self, sigma, eta, s):
        assert verify_lp_conditions(build_lp_pair(sigma, eta), s).passed


class TestMomentOp:
    def test_order_cap(self, moll32):
        assert moment(moll32, 17) == 0.0
        with pytest.raises(InvalidParameter):
            moment(moll32, -1)
        with pytest.raises(InvalidParameter):
            moment(moll32, 1.5)  # not read as order 1

    def test_three_index_alpha_refused(self, moll32):
        with pytest.raises(InvalidParameter, match="d = 1 or d = 2"):
            moment(moll32, (0, 0, 0))

    def test_narrow_transition_exact(self):
        _, psi = build_lp_pair(16.0, 0.25)
        assert moment(psi, 10) == 0.0

    def test_2d_moment_exact(self):
        # every profile is flat at 0, so this moment is exactly zero
        _, psi = build_lp_pair(8.0, 0.5)
        assert moment(psi, (10, 0)) == 0.0

    def test_runs_no_fft(self, pair32, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("moment ran an FFT")

        for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
            monkeypatch.setattr(np.fft, name, refuse)
        phi, psi = pair32
        assert [moment(phi, 0), moment(psi, 0), moment(psi, 16)] == [1.0, 0.0, 0.0]
        assert [moment(phi, (0, 0)), moment(phi, (2, 4))] == [1.0, 0.0]
        assert verify_lp_conditions(pair32, 16).passed

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
    @pytest.mark.parametrize("oversample", [256, 2, 1])
    def test_l2_norm_settled_from_oversample_1(self, moll32, oversample):
        assert kernel_space_norm(moll32, 2, oversample=oversample) == pytest.approx(2.67567, abs=5e-6)

    @pytest.mark.parametrize("oversample", [0.5, 0.1])
    def test_aliasing_oversample_refused(self, moll32, oversample):
        # the parent read 2.25676 and 1.00925: K's own samples alias below 1
        with pytest.raises(InvalidParameter, match="oversample"):
            kernel_space_norm(moll32, 2, oversample=oversample)

    def test_peak_matches_direct_synthesis(self, moll32):
        direct = kernel_space_samples(moll32, np.array([0.0]))[0]
        assert kernel_space_norm(moll32, "inf") == pytest.approx(direct, rel=1e-9)

    def test_l1_of_mollifier_bounded(self, moll32):
        # oscillating sinc-like kernel: ||K||_1 exceeds the unit mass a bit
        l1 = kernel_space_norm(moll32, 1)
        assert 1.0 <= l1 < 2.5
