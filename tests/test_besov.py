import math

import numpy as np
import pytest

from besovlab.besov import (
    besov_norm,
    default_grid,
    detect_regularity,
    detect_smooth,
    embed,
    localize,
)
from besovlab.errors import AliasingRisk, InvalidPair, InvalidParameter
from besovlab.kernels import build_lp_pair, kernel_space_norm
from besovlab.scales import ScaleGrid
from besovlab.signals import bump, constant, dirac, heaviside, kink, lacunary, sine
from besovlab.spectral import (
    SpectralFunction,
    Torus,
    dft_synthesize,
    lp_norm,
    sobolev_norm,
)
from oracles import kernel_space_samples, second_difference_exponent


@pytest.fixture(scope="module")
def pair512():
    return build_lp_pair(512.0, 0.5)


class TestLocalize:
    def test_unit_window_is_identity(self, torus1k):
        T = heaviside(torus1k)
        out = localize(T, constant(torus1k, 1.0))
        np.testing.assert_allclose(out.coefficients, T.coefficients, atol=1e-15)

    def test_constant_input_returns_window(self, torus1k):
        w = bump(torus1k, center=0.4, halfwidth=0.1)
        out = localize(constant(torus1k, 1.0), w)
        np.testing.assert_allclose(out.coefficients, w.coefficients, atol=1e-15)

    def test_dirac_outside_window_support(self, torus1k, moll32):
        # Dirac at 0; window centered at 0.5 decays far below 1e-14 there
        w = bump(torus1k, center=0.5, halfwidth=0.04)
        out = localize(dirac(torus1k), w)
        assert lp_norm(out, "inf") < 1e-10
        assert lp_norm(out, 2) < 1e-10

    def test_function_aliasing_guard(self, torus1k):
        m = torus1k.modes()
        c = (1.0 / (1.0 + np.abs(m))).astype(complex)
        broad = SpectralFunction(torus1k, c, "function")
        with pytest.raises(AliasingRisk):
            localize(broad, bump(torus1k, center=0.3, halfwidth=0.05))

    def test_window_range_check(self, torus1k):
        w = 2.0 * bump(torus1k, center=0.3, halfwidth=0.1)  # peaks at 2
        with pytest.raises(InvalidParameter):
            localize(heaviside(torus1k), w)


class TestEmbed:
    def test_smooth_input_gives_constant_net(self, torus1k, pair32):
        T = constant(torus1k, 1.0)
        net = embed(T, pair32[0])
        for eps in (0.9, 0.3, 0.05):
            np.testing.assert_allclose(
                net(eps).coefficients, T.coefficients, atol=1e-15
            )

    def test_dirac_net_is_scaled_mollifier(self, torus1k, pair32):
        phi = pair32[0]
        net = embed(dirac(torus1k), phi)
        xi = torus1k.frequencies()
        for eps in (0.2, 0.05):
            np.testing.assert_allclose(
                net(eps).coefficients, phi.profile(eps * xi), rtol=1e-14
            )

    def test_heaviside_gradient_growth(self, torus16k, pair32):
        # d/dx (H * phi_eps) = phi_eps - 1/L: sup ~ phi(0) / eps
        phi = pair32[0]
        net = embed(heaviside(torus16k), phi)
        phi_at_zero = float(kernel_space_samples(phi, np.array([0.0]))[0])
        for eps in (0.05, 0.02, 0.01):
            got = sobolev_norm(net(eps), 1, "inf")
            assert got == pytest.approx(phi_at_zero / eps, rel=0.1)

    def test_rejects_annular_kernel(self, torus1k, pair32):
        with pytest.raises(InvalidParameter):
            embed(dirac(torus1k), pair32[1])

    def test_domain_guard(self, torus1k, pair32):
        grid = ScaleGrid(0.01, 0.5, 16)
        net = embed(dirac(torus1k), pair32[0], grid)
        with pytest.raises(InvalidParameter):
            net(0.001)


class TestBesovNorm:
    def test_zero_input(self, torus1k, pair32):
        z = SpectralFunction(torus1k, np.zeros(1025, dtype=complex))
        grid = ScaleGrid(0.02, 0.5, 16)
        assert besov_norm(z, 0.5, 2, 2, pair32, grid) == 0.0

    def test_dirac_negative_order_sup(self, torus16k, pair512):
        # s = -1, p = q = inf: the weight cancels the dilation growth and the
        # value collapses to ||phi||_inf + ||psi||_inf
        phi, psi = pair512
        ref = kernel_space_norm(phi, "inf") + kernel_space_norm(psi, "inf")
        grid = ScaleGrid(0.0131, 0.1, 24)
        got = besov_norm(dirac(torus16k), -1.0, "inf", "inf", pair512, grid)
        assert got == pytest.approx(ref, abs=1e-6)

    def test_dirac_zero_order_diverges_with_truncation(self, torus16k, pair512):
        phi, _ = pair512
        first = kernel_space_norm(phi, "inf")
        v1 = besov_norm(dirac(torus16k), 0.0, "inf", "inf", pair512, ScaleGrid(0.0262, 0.1, 24))
        v2 = besov_norm(dirac(torus16k), 0.0, "inf", "inf", pair512, ScaleGrid(0.0131, 0.1, 24))
        assert (v2 - first) / (v1 - first) == pytest.approx(2.0, rel=0.05)

    def test_invalid_pair_rejected(self, torus1k, moll32):
        grid = ScaleGrid(0.02, 0.5, 16)
        with pytest.raises(InvalidPair):
            besov_norm(heaviside(torus1k), 1.0, 2, 2, (moll32, moll32), grid)


class TestDetectRegularity:
    @pytest.mark.parametrize(
        "maker,p,want",
        [
            (dirac, "inf", -1.0),
            (dirac, 2.0, -0.5),
            (heaviside, 2.0, 0.5),
            (heaviside, "inf", 0.0),
            (kink, "inf", 1.0),
        ],
    )
    def test_classical_exponents(self, torus4k, pair32, maker, p, want):
        rep = detect_regularity(maker(torus4k), p, "inf", "auto", pair32)
        assert rep.verdict == "besov"
        assert rep.r_hat == pytest.approx(want, abs=0.1)
        assert rep.k_used > rep.r_hat + 1.0

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_lacunary_exponents(self, torus4k, pair32, alpha):
        W = lacunary(torus4k, alpha)
        # independent sampled-oscillation check of the corpus exponent:
        # lags start above the band-limit smoothing scale (top mode N/4)
        osc = second_difference_exponent(dft_synthesize(W, 2).real, 1.0, min_lag=32)
        assert osc == pytest.approx(alpha, abs=0.1)
        rep = detect_regularity(W, "inf", "inf", "auto", pair32)
        assert rep.r_hat == pytest.approx(alpha, abs=0.07)

    def test_starting_k_above_smoothness_is_kept(self, torus4k, pair32):
        rep = detect_regularity(heaviside(torus4k), 2.0, "inf", 3, pair32)
        assert rep.k_used == 3
        assert rep.escalations == 0

    def test_derivative_shift(self, torus4k, pair32):
        for T, p in [(heaviside(torus4k), 2.0), (lacunary(torus4k, 0.7), "inf")]:
            base = detect_regularity(T, p, "inf", "auto", pair32).r_hat
            shifted = detect_regularity(T.derivative(1), p, "inf", "auto", pair32).r_hat
            assert shifted == pytest.approx(base - 1.0, abs=0.1)

    def test_dilation_invariance(self, torus4k, pair32):
        for T in (heaviside(torus4k), kink(torus4k), lacunary(torus4k, 0.5)):
            r1 = detect_regularity(T, "inf", "inf", "auto", pair32).r_hat
            r2 = detect_regularity(T.dilate(2), "inf", "inf", "auto", pair32).r_hat
            assert abs(r1 - r2) < 0.05

    def test_negative_k_rejected(self, torus4k, pair32):
        with pytest.raises(InvalidParameter):
            detect_regularity(dirac(torus4k), 2, "inf", -1, pair32)

    @pytest.mark.parametrize("p,want", [("inf", -2.0), (2.0, -1.0)])
    def test_dirac_2d(self, pair32, p, want):
        # the Dirac in d dimensions has Besov exponent -d + d/p
        rep = detect_regularity(dirac(Torus(2, 1.0, 128)), p, "inf", "auto", pair32)
        assert rep.verdict == "besov"
        assert rep.r_hat == pytest.approx(want, abs=0.1)
        assert rep.k_used > rep.r_hat + 1.0


class TestDetectSmooth:
    def test_bandlimited_inputs_are_smooth(self, torus4k, pair32):
        for T in (sine(torus4k, 3), bump(torus4k, 0.5, 0.05)):
            ev = detect_smooth(T, "inf", "inf", pair32)
            assert ev.smooth
            assert ev.growth_rate < 0.1

    def test_singular_inputs_are_not_smooth(self, torus4k, pair32):
        for T in (dirac(torus4k), heaviside(torus4k), lacunary(torus4k, 0.5)):
            ev = detect_smooth(T, "inf", "inf", pair32)
            assert not ev.smooth
            assert ev.growth_rate > 0.9

    def test_p_independence(self, torus4k, pair32):
        members = [
            sine(torus4k, 3),
            bump(torus4k, 0.5, 0.05),
            dirac(torus4k),
            heaviside(torus4k),
            kink(torus4k),
            lacunary(torus4k, 0.5),
        ]
        for T in members:
            verdicts = {p: detect_smooth(T, p, "inf", pair32).smooth for p in (2.0, "inf")}
            assert verdicts[2.0] == verdicts["inf"]

    def test_k_max_floor(self, torus4k, pair32):
        with pytest.raises(InvalidParameter):
            detect_smooth(sine(torus4k, 3), 2, "inf", pair32, k_max=2)


class TestPairIndependence:
    def test_exponents_agree_across_pairs(self, torus4k, pair32):
        # the kink member needs the wider scale range of the 2^14 grid to
        # match this tightly; the acceptance suite covers it there
        pair_b = build_lp_pair(16.0, 0.25)
        for T in (heaviside(torus4k), lacunary(torus4k, 0.5)):
            r1 = detect_regularity(T, "inf", "inf", "auto", pair32).r_hat
            r2 = detect_regularity(T, "inf", "inf", "auto", pair_b).r_hat
            assert abs(r1 - r2) < 0.05
