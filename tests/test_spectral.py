import dataclasses
import math
import os
import subprocess
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besovlab import spectral
from besovlab.association import association_verdict, bump_battery
from besovlab.besov import besov_norm, default_grid, detect_regularity, detect_smooth, embed
from besovlab.errors import AliasingRisk, InvalidParameter, QuadratureInaccurate, ScaleOutOfRange
from besovlab.kernels import Kernel, build_lp_pair, build_mollifier
from besovlab.nets import classify_moderate, classify_negligible, constant_net, perturbed_net
from besovlab.scales import ScaleGrid, convergence_verdict, q_integral, sweep
from besovlab.signals import bump, constant, cosine, dirac, heaviside, kink, lacunary, sine
from besovlab.spectral import (
    SpectralFunction,
    Torus,
    convolve_scaled,
    dft_analyze,
    dft_synthesize,
    localize,
    lp_norm,
    min_scale,
    pairing,
    real_parameter,
    sobolev_norm,
    sobolev_table,
)
from oracles import (
    antiderivative_lp,
    direct_mode_sum,
    kernel_space_norm,
    padded_zero_places,
    synthetic_profile,
    trigonometric_l1,
)


def _complex_quadrature(f, p, oversample):
    """Reference norm: complex ifftn of the full folded spectrum, then the
    rectangle rule (grid sup at p = inf)."""
    t = f.torus
    n = t.grid_size * oversample
    a = np.zeros((n,) * t.dimension, dtype=complex)
    idx = np.arange(-t.mode_max, t.mode_max + 1) % n
    np.add.at(a, np.ix_(*[idx] * t.dimension), f.coefficients)
    mags = np.abs(np.fft.ifftn(a) * n**t.dimension)
    if p == "inf":
        return float(mags.max())
    return float((np.sum(mags**p) * (t.length / n) ** t.dimension) ** (1.0 / p))


def _real_coefficients(rng, torus):
    """Random conjugate-symmetric coefficients: a real-valued object."""
    shape = torus.coeff_shape()
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    flip = tuple(slice(None, None, -1) for _ in shape)
    return SpectralFunction(torus, (z + np.conj(z[flip])) / 2)


class TestTorus:
    def test_invariants(self):
        with pytest.raises(InvalidParameter):
            Torus(1, 1.0, 100)  # not a power of two
        with pytest.raises(InvalidParameter):
            Torus(1, 1.0, 4)  # below minimum
        with pytest.raises(InvalidParameter):
            Torus(1, -1.0, 64)
        with pytest.raises(InvalidParameter):
            Torus(3, 1.0, 64)
        with pytest.raises(InvalidParameter):
            Torus(1, 1.0, 64.0)  # not an integer
        with pytest.raises(InvalidParameter):
            Torus(1, math.inf, 64)  # nyquist would be 0
        with pytest.raises(InvalidParameter):
            Torus(2.0, 1.0, 64)  # not an integer dimension

    def test_a_torus_is_never_equal_to_another_type(self):
        t = Torus(1, 1.0, 8)
        assert (t == "x") is False and (t != "x") is True
        assert t.__eq__("x") is NotImplemented

    def test_nyquist(self):
        t = Torus(1, 2.0, 64)
        assert t.nyquist == pytest.approx(np.pi * 64 / 2.0)

    def test_radial_layout(self):
        t = Torus(2, 2.0, 8)
        m = np.abs(t.modes())
        np.testing.assert_array_equal(t.band_index(), np.maximum.outer(m, m))
        np.testing.assert_allclose(t.frequency_radius(), np.hypot.outer(m, m) * np.pi, rtol=1e-15)
        line = Torus(1, 2.0, 8)
        np.testing.assert_array_equal(line.band_index(), m)
        np.testing.assert_array_equal(line.frequency_radius(), np.abs(line.frequencies()))
        # built once per torus and read-only
        assert t.frequency_radius() is Torus(2, 2.0, 8).frequency_radius()
        with pytest.raises(ValueError):
            t.frequency_radius()[0, 0] = 1.0


def _nyquist_window(torus):
    """1/2 + cos(pi N x / L) / 2: values in [0, 1], band at Nyquist."""
    c = np.zeros(torus.coeff_shape(), dtype=complex)
    c[torus.mode_max] = 0.5
    c[[0, -1]] = 0.25
    return SpectralFunction(torus, c)


_T8 = Torus(1, 1.0, 8)
_TYPED_ERRORS = {  # case -> (error class, message fragment, call)
    "wrong shape": (InvalidParameter, "shape", lambda: SpectralFunction(_T8, np.zeros(8))),
    "non-finite": (InvalidParameter, "finite", lambda: SpectralFunction(_T8, np.full(9, np.inf))),
    "unknown tag": (InvalidParameter, "tag", lambda: SpectralFunction(_T8, np.zeros(9), "x")),
    "different toruses": (InvalidParameter, "toruses", lambda: sine(_T8) + sine(Torus(1, 2.0, 8))),
    "multi-index length": (InvalidParameter, "multi-index", lambda: sine(_T8).derivative((1, 0))),
    "analyze shape": (InvalidParameter, "sample shape", lambda: dft_analyze(np.zeros(16), _T8)),
    "analyze non-numeric": (
        InvalidParameter, "numeric", lambda: dft_analyze(np.array(["a"] * 8), _T8)
    ),
    "window at Nyquist": (
        AliasingRisk, "Nyquist", lambda: localize(sine(_T8), _nyquist_window(_T8))
    ),
}


@pytest.mark.parametrize("case", sorted(_TYPED_ERRORS))
def test_typed_errors(case):
    error, fragment, call = _TYPED_ERRORS[case]
    with pytest.raises(error, match=fragment):
        call()


class TestSynthesize:
    def test_constant_spectrum_gives_constant(self, torus64):
        vals = dft_synthesize(constant(torus64, 1.0))
        np.testing.assert_allclose(vals.real, 1.0, atol=1e-13)
        np.testing.assert_allclose(vals.imag, 0.0, atol=1e-13)

    def test_cosine_euler(self, torus64):
        c = np.zeros(65, dtype=complex)
        c[32 + 1] = 0.5
        c[32 - 1] = 0.5
        f = SpectralFunction(torus64, c)
        x = torus64.grid()
        np.testing.assert_allclose(
            dft_synthesize(f).real, np.cos(2 * np.pi * x), atol=1e-13
        )

    def test_dirac_dirichlet_frozen(self):
        # direct summation of sum_{|m|<=4} exp(2 pi i m j / 8), L = 1
        t = Torus(1, 1.0, 8)
        d = dirac(t)
        expected = np.array([9.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        got = dft_synthesize(d)
        np.testing.assert_allclose(got.real, expected, atol=1e-12)
        oracle = direct_mode_sum(d.coefficients, 1.0, t.grid())
        np.testing.assert_allclose(got, oracle, atol=1e-12)

    def test_roundtrip_samples(self, torus64):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(64)
        back = dft_synthesize(dft_analyze(v, torus64))
        np.testing.assert_allclose(back.real, v, rtol=0, atol=1e-12)
        np.testing.assert_allclose(back.imag, 0.0, atol=1e-13)

    def test_roundtrip_coefficients(self, torus64):
        f = heaviside(torus64)
        again = dft_analyze(dft_synthesize(f), torus64)
        np.testing.assert_allclose(
            again.coefficients, f.coefficients, rtol=0, atol=1e-14
        )

    def test_oversampled_grid_interpolates(self, torus64):
        f = sine(torus64, 3)
        x = torus64.grid(oversample=4)
        np.testing.assert_allclose(
            dft_synthesize(f, oversample=4).real, np.sin(6 * np.pi * x), atol=1e-12
        )

    def test_2d_roundtrip(self):
        t = Torus(2, 1.0, 16)
        rng = np.random.default_rng(5)
        v = rng.standard_normal((16, 16))
        back = dft_synthesize(dft_analyze(v, t))
        np.testing.assert_allclose(back.real, v, atol=1e-12)

    @pytest.mark.parametrize("oversample", [1, 2, 3])
    def test_nyquist_slots_on_the_grid(self, oversample):
        # at oversample 1 the +-N/2 slots share the one Nyquist bin (summed);
        # at 2 and 3 (a grid of 24, not a power of two) they are distinct
        # modes.  Unbalanced complex values tell apart.
        t = Torus(1, 1.0, 8)
        c = np.zeros(9, dtype=complex)
        c[0], c[-1], c[5] = 1.0 + 2.0j, -0.5j, 0.25
        f = SpectralFunction(t, c)
        x = t.grid(oversample)
        np.testing.assert_allclose(
            dft_synthesize(f, oversample), direct_mode_sum(c, 1.0, x), atol=1e-13
        )

    def test_2d_nyquist_fold_against_direct_sum(self):
        t = Torus(2, 1.0, 8)
        rng = np.random.default_rng(8)
        c = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        x = t.grid()
        e = np.exp(1j * np.outer(x, t.frequencies()))
        want = e @ c @ e.T  # sum_{m1,m2} c e^{i xi_m1 x1} e^{i xi_m2 x2}
        got = dft_synthesize(SpectralFunction(t, c), 1)
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("real", [True, False])
    def test_n_point_grid_is_the_even_points_of_the_2n_grid(self, d, real):
        # N points cannot part the +-N/2 modes; unbalanced end slots (a real
        # field's are conjugates) sum onto the one Nyquist point there
        t = Torus(d, 1.0, 8)
        rng = np.random.default_rng(11)
        c = rng.standard_normal(t.coeff_shape()) + 1j * rng.standard_normal(t.coeff_shape())
        if real:
            c = c + np.conj(np.flip(c))
        f = SpectralFunction(t, c)
        assert f.is_real() is real and c[0].ravel()[0] != c[-1].ravel()[0]
        got = dft_synthesize(f, 1)
        assert got.shape == (8,) * d and got.flags.c_contiguous
        np.testing.assert_array_equal(got, dft_synthesize(f, 2)[(slice(None, None, 2),) * d].copy())


class TestLpNorm:
    def test_constant_l2(self, torus64):
        assert lp_norm(constant(torus64), 2) == pytest.approx(1.0, abs=1e-12)

    def test_sine_l2(self, torus1k):
        assert lp_norm(sine(torus1k), 2) == pytest.approx(np.sqrt(0.5), abs=1e-10)

    def test_half_indicator_l1(self, torus1k):
        # spectrally truncated indicator of [0, 1/2): closed-form integral 0.5,
        # Gibbs truncation limits the match to a couple percent
        mmax = torus1k.mode_max
        m = np.arange(-mmax, mmax + 1)
        c = np.zeros(torus1k.grid_size + 1, dtype=complex)
        odd = m % 2 != 0
        c[odd] = (1 - (-1.0) ** m[odd]) / (2j * np.pi * m[odd])
        c[mmax] = 0.5
        f = SpectralFunction(torus1k, c)
        assert lp_norm(f, 1) == pytest.approx(0.5, abs=0.02)

    def test_sup_norm(self, torus64):
        assert lp_norm(sine(torus64), "inf") == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("p", [1, 1.5, 2, "inf"])
    def test_every_path_returns_a_python_float(self, torus64, p):
        rng = np.random.default_rng(5)
        complex_1d = SpectralFunction(torus64, rng.standard_normal(65) + 1j * rng.standard_normal(65))
        fields = [kink(torus64), complex_1d, _real_coefficients(rng, Torus(2, 1.0, 16)), constant(torus64, 0.0)]
        assert [type(lp_norm(f, p)) for f in fields] == [float] * 4

    def test_parseval(self, torus1k):
        rng = np.random.default_rng(11)
        v = rng.standard_normal(1024)
        f = dft_analyze(v, torus1k)
        lhs = lp_norm(f, 2) ** 2
        rhs = torus1k.length * np.sum(np.abs(f.coefficients) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_parseval_2d(self):
        t = Torus(2, 1.0, 16)
        rng = np.random.default_rng(12)
        f = dft_analyze(rng.standard_normal((16, 16)), t)
        lhs = lp_norm(f, 2) ** 2
        rhs = np.sum(np.abs(f.coefficients) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("d,n", [(1, 1024), (2, 32)])
    def test_parseval_matches_2x_rule(self, d, n):
        t = Torus(d, 1.5, n)
        rng = np.random.default_rng(21)
        shape = t.coeff_shape()
        for f in (
            _real_coefficients(rng, t),
            SpectralFunction(t, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)),
        ):
            assert lp_norm(f, 2) == pytest.approx(_complex_quadrature(f, 2, 2), rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([1, 2]),
        log_n=st.integers(3, 6),
        p=st.sampled_from([1.0, 3.0, "inf"]),
    )
    def test_half_spectrum_matches_complex_path(self, seed, d, log_n, p):
        t = Torus(d, 1.0, 2**log_n)
        f = _real_coefficients(np.random.default_rng(seed), t)
        assert f.is_real()
        over = 2 if p == "inf" else 16
        if d == 1 and p == 1.0:
            # the corrected rule of _l1_norm: never less accurate than the
            # 16x rectangle rule, against the exact value
            exact = trigonometric_l1(f.coefficients, t.length)
            rectangle_error = abs(_complex_quadrature(f, p, over) - exact)
            assert abs(lp_norm(f, p) - exact) <= rectangle_error + 1e-12 * exact
            return
        assert lp_norm(f, p) == pytest.approx(_complex_quadrature(f, p, over), rel=1e-12)

    def test_transform_follows_is_real(self, torus64, monkeypatch):
        calls = []

        def spy(name):
            fn = getattr(np.fft, name)

            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapped

        for name in ("irfft", "ifftn"):
            monkeypatch.setattr(np.fft, name, spy(name))
        lp_norm(sine(torus64), 1)
        c = np.zeros(65, dtype=complex)
        c[33] = 1.0
        lp_norm(SpectralFunction(torus64, c), 1)
        assert calls == ["irfft", "ifftn"]

    def test_one_p1_sweep_decides_realness_once(self, torus1k, pair32, monkeypatch):
        calls = []
        original = spectral._is_conjugate_symmetric

        def spy(c):
            calls.append(c.shape)
            return original(c)

        monkeypatch.setattr(spectral, "_is_conjugate_symmetric", spy)
        sweep(heaviside(torus1k), pair32[1], ScaleGrid(0.02, 0.2, 16), k=3, p=1)
        assert calls == [(1025,)]
        # a complex input's construction, convolution and derivative each
        # compare once; with mode 8 alone, all stay complex
        c = np.zeros(1025, dtype=complex)
        c[520] = 1.0
        f = convolve_scaled(SpectralFunction(torus1k, c), pair32[0], 0.02).derivative(1)
        assert not f.is_real()
        assert len(calls) == 4

    def test_single_complex_mode_keeps_modulus(self):
        # e^{i xi_1 x} has modulus 1; its real part cos would give
        # a sup of 1 but an L^1 norm of 2L/pi
        t = Torus(1, 2.0, 64)
        c = np.zeros(65, dtype=complex)
        c[33] = 1.0
        f = SpectralFunction(t, c)
        assert not f.is_real()
        assert lp_norm(f, "inf") == pytest.approx(1.0, rel=1e-12)
        assert lp_norm(f, 1) == pytest.approx(2.0, rel=1e-12)
        assert lp_norm(f, 3) == pytest.approx(2.0 ** (1 / 3), rel=1e-12)

    def test_distribution_aliasing_guard(self, torus64):
        with pytest.raises(AliasingRisk):
            lp_norm(dirac(torus64), 2)
        # sup of the truncated object is still well-defined
        assert lp_norm(dirac(torus64), "inf") > 0

    def test_invalid_p(self, torus64):
        with pytest.raises(InvalidParameter):
            lp_norm(constant(torus64), 0.5)


class TestCosetSup:
    """Every sup is one routine, _sup: a real 1-d field of band B reads the
    2x grid from the cosets of its band, transforms of the power of two
    above 2B, at least 256 and at most the grid, and equals the sup over
    the full 2x grid."""

    @staticmethod
    def _field(rng, torus, band, shift):
        """A random real field with modes -band..band, all nonzero, moved by shift."""
        m = torus.mode_max
        z = np.zeros(torus.coeff_shape(), dtype=complex)
        z[m - band : m + band + 1] = rng.standard_normal(2 * band + 1) + 1j * rng.standard_normal(2 * band + 1)
        z *= np.exp(-1j * torus.frequencies() * shift)
        return SpectralFunction(torus, _symmetric_part(z))

    @staticmethod
    def _grid_sup(f):
        """The max of |f| over the one 2N-point synthesis of the 2x grid."""
        return float(np.max(np.abs(spectral._synthesize(f, 2 * f.torus.grid_size, True))))

    @pytest.mark.parametrize("cells", [0.0, 0.37], ids=["on-grid", "sub-cell"])
    @pytest.mark.parametrize("n", [64, 1024, 4096])
    def test_cosets_give_the_full_grid_sup(self, monkeypatch, n, cells):
        t = Torus(1, 1.7, n)
        rng = np.random.default_rng(n)
        # for each power of two M up to N the last band it holds, M/2 - 1,
        # and the first it does not, M/2: bands 0 and 1 among them
        sizes = [1 << j for j in range(1, n.bit_length())]
        bands = sorted({b for size in sizes for b in (size // 2 - 1, size // 2)})
        used, synthesized = [], []
        sup, synthesize = spectral._sup, spectral._synthesize
        monkeypatch.setattr(spectral, "_sup", lambda f: used.append(f._band) or sup(f))
        monkeypatch.setattr(
            spectral, "_synthesize", lambda f, *a, **k: synthesized.append(f._band) or synthesize(f, *a, **k)
        )
        for band in bands:
            shift = (cells + rng.integers(2 * n)) * t.length / (2 * n)
            f = self._field(rng, t, band, shift)
            assert f.is_real() and f._band == band
            want = _allocating_norm(f, "inf")
            assert abs(lp_norm(f, "inf") - want) <= 1e-14 * want
        # every band, the full one too, takes _sup's cosets: no grid synthesis
        assert used == bands and synthesized == []

    @pytest.mark.parametrize("kind", ["random", "dirac"])
    @pytest.mark.parametrize("n", [64, 1024, 4096])
    def test_a_full_band_is_one_coset_of_the_full_grid(self, n, kind):
        t = Torus(1, 1.7, n)
        rng = np.random.default_rng(n)
        shift = (0.37 + rng.integers(2 * n)) * t.length / (2 * n)
        if kind == "random":
            f = self._field(rng, t, n // 2, shift)
        else:
            z = dirac(t).coefficients * np.exp(-1j * t.frequencies() * shift)
            f = SpectralFunction(t, _symmetric_part(z), "distribution")
        assert f.is_real() and f._band == n // 2
        assert lp_norm(f, "inf") == self._grid_sup(f)

    @pytest.mark.parametrize("n", [8, 64, 128])
    def test_every_band_of_a_short_torus_is_one_coset(self, n):
        t = Torus(1, 1.7, n)
        rng = np.random.default_rng(n)
        for band in range(n // 2 + 1):
            shift = (0.37 + rng.integers(2 * n)) * t.length / (2 * n)
            f = self._field(rng, t, band, shift)
            assert f.is_real() and f._band == band
            assert lp_norm(f, "inf") == self._grid_sup(f)

    @pytest.mark.parametrize("d,n", [(1, 64), (1, 4096), (2, 16)])
    def test_band_is_the_exact_active_bandwidth(self, d, n):
        # complex fields of one to three nonzero modes anywhere, a real or an
        # imaginary part alone, down to the smallest subnormal
        t = Torus(d, 1.0, n)
        rng = np.random.default_rng(d * n)
        size = math.prod(t.coeff_shape())
        fields = [SpectralFunction(t, np.zeros(t.coeff_shape())), _real_coefficients(rng, t)]
        for _ in range(60):
            z = np.zeros(size, dtype=complex)
            z[rng.integers(size, size=rng.integers(1, 4))] = rng.choice([1.0, -2j, 5e-324, 5e-324j])
            fields.append(SpectralFunction(t, z.reshape(t.coeff_shape())))
        assert [f._band for f in fields] == [f.active_bandwidth(rtol=0.0) for f in fields]

    @pytest.mark.parametrize("n", [64, 1024, 4096])
    def test_constant_and_zero_fields(self, n):
        t = Torus(1, 1.7, n)
        assert lp_norm(constant(t, -2.5), "inf") == 2.5
        assert lp_norm(constant(t, 0.0), "inf") == 0.0


def _allocating_norm(f, p):
    """lp_norm's synthesized quadrature from allocating numpy calls: the
    scaled modes folded into fresh zero arrays, irfftn (real f, half
    spectrum) or ifftn, then the grid sup or the rectangle rule."""
    t = f.torus
    d, m = t.dimension, t.mode_max
    n = t.grid_size * (2 if p == "inf" else 16)
    real = f.is_real()
    a = f.coefficients * n**d
    if real:
        a = a[..., m:]
    for axis in range(d - 1 if real else d):
        folded = np.zeros(a.shape[:axis] + (n,) + a.shape[axis + 1 :], dtype=complex)
        dst, src = np.moveaxis(folded, axis, 0), np.moveaxis(a, axis, 0)
        dst[: m + 1] = src[m:]
        dst[n - m :] = src[:m]
        a = folded
    axes = tuple(range(d))
    mags = np.abs(np.fft.irfftn(a, s=(n,) * d, axes=axes) if real else np.fft.ifftn(a, axes=axes))
    if p == "inf":
        return float(mags.max())
    if p != 1:
        mags = mags**p
    return float((np.sum(mags) * (t.length / n) ** d) ** (1.0 / p))


def _fine_dirac_fields(d, n, pair32, count=4):
    """The count finest-scale fields of the Dirac net on Torus(d, 1, n)."""
    T = dirac(Torus(d, 1.0, n))
    scales = sorted(default_grid(T.torus, pair32[0]).values())[:count]
    return [convolve_scaled(T, pair32[0], y) for y in scales]


class TestStatelessNorms:
    """Norms keep no state between calls: the grid sup and the rectangle
    rules give the answers of allocating numpy calls, in any order of calls
    and threads, and leave the samples handed out before them to the
    caller, as they were."""

    def test_bitwise_equal_to_allocating_calls_when_interleaved(self):
        rng = np.random.default_rng(13)
        fields = []
        for d, n in [(1, 64), (2, 16), (1, 64), (2, 16), (1, 128), (2, 8)]:
            t = Torus(d, 1.0, n)
            shape = t.coeff_shape()
            fields.append(_real_coefficients(rng, t))
            z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            fields.append(SpectralFunction(t, z))
        cases = [
            (f, p) for p in ("inf", 1, 3) for f in fields
            # the kink-corrected p = 1 rule of real 1-d inputs synthesizes apart
            if not (p == 1 and f.torus.dimension == 1 and f.is_real())
        ]
        expected = [_allocating_norm(f, p) for f, p in cases]
        # each pass alternates shapes, dimensions and realness, so a norm
        # often follows one of another field of its shape
        order = list(range(len(cases)))
        for i in order + order[::-1] + order[1::2] + order[::2]:
            f, p = cases[i]
            assert lp_norm(f, p) == expected[i]

    def test_synthesized_samples_are_the_callers(self, torus64, pair32):
        f = _real_coefficients(np.random.default_rng(5), torus64)
        samples = [dft_synthesize(f, over) for over in (1, 2, 16)]
        kept = [s.copy() for s in samples]
        g = SpectralFunction(torus64, f.coefficients * 1j)
        for h in (f, g, convolve_scaled(dirac(torus64), pair32[0], 0.25)):
            for p in ("inf", 1, 3):
                lp_norm(h, p)
        for s, k in zip(samples, kept):
            assert np.array_equal(s, k)

    def test_threads_get_their_serial_answers(self, pair32):
        # more threads than cores, each with its own fields of one 2-d shape,
        # so that any sample grid shared between threads would mix answers
        workers = min((os.cpu_count() or 1) + 1, 8)
        rng = np.random.default_rng(8)
        base = _fine_dirac_fields(2, 128, pair32)
        shares = [
            [f + _real_coefficients(rng, f.torus) * (1e-3 * k) for f in base] for k in range(workers)
        ]
        serial = [[lp_norm(f, "inf") for f in share] for share in shares]
        start = threading.Barrier(workers)
        seen = [[] for _ in shares]

        def loop(share, out):
            start.wait()
            for _ in range(25):
                out.append([lp_norm(f, "inf") for f in share])

        threads = [threading.Thread(target=loop, args=args) for args in zip(shares, seen)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for values, expected in zip(seen, serial):
            assert values == [expected] * 25


def _exponent_entry_points():
    """Every public function taking an exponent p or q, as exponent -> result."""
    torus = Torus(1, 1.0, 1024)
    pair = build_lp_pair(32.0, 0.5)
    power = synthetic_profile(ScaleGrid(1e-3, 1.0, 32), lambda y: y**0.5)
    grid = ScaleGrid(0.02, 0.5, 16)
    battery = bump_battery(torus, count=4, seed=7)
    growth = constant_net(lambda e: e**-2.0, "e^-2", lambda e: -2.0 * math.log(e))
    return {
        "lp_norm": lambda p: lp_norm(sine(torus), p),
        "kernel_space_norm": lambda p: kernel_space_norm(pair[0], p),
        "q_integral": lambda q: q_integral(power, 0.0, q),
        # slope = s: borderline at finite q, convergent at q = inf
        "convergence_verdict": lambda q: convergence_verdict(power, 0.5, q),
        "besov_norm": lambda q: besov_norm(heaviside(torus), -0.5, 2, q, pair, grid),
        # the reports carry the parsed exponents, so aliases give equal reports
        "detect_regularity.p": lambda p: detect_regularity(heaviside(torus), p, 2, 3, pair),
        "detect_regularity.q": lambda q: detect_regularity(heaviside(torus), 2, q, 3, pair),
        "detect_smooth.p": lambda p: detect_smooth(heaviside(torus), p, 2, pair, k_max=4),
        "detect_smooth.q": lambda q: detect_smooth(heaviside(torus), 2, q, pair, k_max=4),
        "association_verdict": lambda q: association_verdict(
            heaviside(torus), embed(heaviside(torus), pair[0], grid), battery, q, grid
        ),
        "classify_moderate": lambda q: classify_moderate(growth, q),
        "classify_negligible": lambda q: classify_negligible(growth, q),
    }


class TestExponentParsing:
    @pytest.mark.parametrize(
        "entry",
        [
            "lp_norm",
            "kernel_space_norm",
            "q_integral",
            "convergence_verdict",
            "besov_norm",
            "detect_regularity.p",
            "detect_regularity.q",
            "detect_smooth.p",
            "detect_smooth.q",
            "association_verdict",
            "classify_moderate",
            "classify_negligible",
        ],
    )
    def test_one_rule_at_every_entry_point(self, entry):
        # a number >= 1, "inf", or None read as inf; anything else raises
        call = _exponent_entry_points()[entry]
        for bad in (0, -1, 0.5, math.nan, "-inf", "two", "", [2]):
            with pytest.raises(InvalidParameter):
                call(bad)
        want = call(math.inf)
        for alias in ("inf", "Infinity", "INF", None):
            assert call(alias) == want
        assert call("2") == call(2) == call(2.0)


class TestAlgebra:
    def test_fields_compare_and_hash_by_identity(self):
        t = Torus(1, 1.0, 8)
        f, g = sine(t), sine(t)
        assert np.array_equal(f.coefficients, g.coefficients)
        assert f == f and not f != f
        assert f != g and not f == g
        assert len({f, g}) == 2 and hash(f) == hash(f)

    def test_sum_and_difference_tags(self):
        f, g = sine(_T8), dirac(_T8)
        assert (f + g).tag == (g - f).tag == "distribution"
        assert (f - f).tag == "function" and not np.any((f - f).coefficients)
        np.testing.assert_array_equal((f + g).coefficients, f.coefficients + g.coefficients)

    def test_operands_on_different_grids_refused(self):
        # the torus is checked before the coefficients are combined
        for op in (lambda a, b: a + b, lambda a, b: a - b):
            with pytest.raises(InvalidParameter, match="toruses"):
                op(sine(_T8), sine(Torus(1, 1.0, 16)))


class TestRealParameter:
    @pytest.mark.parametrize("x", [0.25, np.float64(0.25), np.float32(0.25), np.array(0.25)], ids=repr)
    def test_reals_read_as_floats(self, x):
        got = real_parameter(x, "x", 0.0, 1.0)
        assert type(got) is float and got == 0.25

    def test_integers_read_as_ints(self):
        assert real_parameter(3, "x", at_least=1) == 3.0
        got = real_parameter(np.int64(3), "n", at_least=1, integer=True)
        assert type(got) is int and got == 3

    @pytest.mark.parametrize(
        "x",
        ["0.25", None, 1j, np.complex128(0.25), np.array([0.25]), np.array([0.25, 0.5]), [0.25],
         math.nan, math.inf, -math.inf, 10**400],
        ids=repr,
    )
    def test_non_reals_and_non_finite_values_raise(self, x):
        with pytest.raises(InvalidParameter, match=r"^x must be finite and real, got "):
            real_parameter(x, "x")

    @pytest.mark.parametrize(
        "x,bounds,text",
        [
            (0.0, {"above": 0.0}, "positive and finite"),
            (1.0, {"above": 0.0, "below": 1.0}, "in (0, 1)"),
            (1.5, {"above": 0.0, "at_most": 1.0}, "in (0, 1]"),
            (0.5, {"at_least": 1.0}, "in [1, inf)"),
            (3.0, {"at_least": 1, "at_most": 2, "integer": True}, "an integer in [1, 2]"),
            (2.0, {"at_least": 1, "integer": True}, "an integer in [1, inf)"),
        ],
    )
    def test_range_ends_and_message(self, x, bounds, text):
        with pytest.raises(InvalidParameter) as caught:
            real_parameter(x, "x", **bounds)
        assert str(caught.value) == f"x must be {text}, got {x!r}"
        ends = {"above": 0.0, "at_most": 1.0}
        assert real_parameter(1.0, "x", **ends) == 1.0  # a closed end belongs to the range

    def test_error_class_is_the_callers(self):
        with pytest.raises(ScaleOutOfRange, match="scale must be positive and finite"):
            real_parameter(None, "scale", 0.0, error=ScaleOutOfRange)


class TestFinitenessCheck:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf), complex(np.nan, 1.0)])
    def test_inf_or_nan_raises(self, bad):
        c = np.ones(9, dtype=complex)
        c[4] = bad
        with pytest.raises(InvalidParameter, match="finite"):
            SpectralFunction(_T8, c)

    @pytest.mark.parametrize("values", [[1e308] * 9, [1e308, -1e308] * 4 + [1e308]])
    def test_finite_modes_whose_sum_overflows_accepted(self, values):
        f = SpectralFunction(_T8, np.asarray(values, dtype=complex))
        assert np.all(f.coefficients.real == values)


_HUGE = SpectralFunction(Torus(1, 1.0, 64), np.full(65, 1e308 + 0j))


class TestOverflowingArithmetic:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: (sine(Torus(1, 1.0, 64)) * 1e300).derivative(60),
            lambda: sine(Torus(1, 1.0, 64)) * 1e308 * 10.0,
            lambda: _HUGE + _HUGE,
            lambda: _HUGE - _HUGE * -1.0,
            lambda: _HUGE + SpectralFunction(Torus(1, 1.0, 64), np.full(65, 1e308 + 1j)),
        ],
        ids=["derivative", "mul", "add", "sub", "add asymmetric"],
    )
    def test_finite_inputs_overflowing_raise_invalid_parameter(self, make):
        # finite operands, infinite result: the typed error, not numpy's warning
        with pytest.raises(InvalidParameter, match="coefficients must be finite"):
            make()


class TestOverflowGuard:
    # the order whose multiplier peaks near 1e299 on the N = 64 torus
    ORDER = 130

    def _top_mode_at_the_guard(self, torus, margin):
        """A function of the top mode alone, whose order-ORDER derivative has
        the modulus bound margin * _NO_OVERFLOW, and that multiplier."""
        mult, peak = spectral._derivative_multiplier(torus, self.ORDER)
        c = np.zeros(torus.coeff_shape(), dtype=complex)
        c[-1] = margin * spectral._NO_OVERFLOW / peak
        return SpectralFunction(torus, c), mult, peak

    @pytest.mark.parametrize("margin", [1.0 - 1e-9, 1.0 + 1e-9])
    def test_derivative_at_the_guard_is_the_guarded_product(self, torus64, margin):
        # the product reaches about half the float range, with no warning
        g, mult, peak = self._top_mode_at_the_guard(torus64, margin)
        inside = math.sqrt(g._sum_sq) * peak < spectral._NO_OVERFLOW
        assert inside == (margin < 1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            want = g.coefficients * mult
        got = g.derivative(self.ORDER).coefficients
        np.testing.assert_array_equal(got, want)
        assert np.abs(got).max() == pytest.approx(margin * spectral._NO_OVERFLOW, rel=1e-12)

    def test_errstate_only_where_the_bound_allows_overflow(self, torus64, monkeypatch):
        g, _, _ = self._top_mode_at_the_guard(torus64, 1.0 - 1e-9)
        f = sine(torus64)
        huge = SpectralFunction(torus64, np.full(65, 1e200 + 0j))  # sum |c|^2 overflows
        f.derivative(1)  # the multiplier cached before counting
        entered = []
        errstate = np.errstate
        monkeypatch.setattr(np, "errstate", lambda **kw: entered.append(kw) or errstate(**kw))
        for make in (lambda: f.derivative(1), lambda: f * 2.0, lambda: f + f, lambda: f - f,
                     lambda: g.derivative(self.ORDER)):
            make()
        assert entered == []
        for make in (lambda: huge.derivative(1), lambda: huge * 1.0, lambda: huge - huge):
            make()
        assert len(entered) == 3


class TestKeptSumOfSquares:
    """Every SpectralFunction keeps sum |c|^2, and lp_norm at p = 2 reads it."""

    _T1, _T2 = Torus(1, 2.5, 256), Torus(2, 1.5, 64)
    ROUTES = {
        "constant": lambda pair, t: constant(t, 3.0),
        "heaviside": lambda pair, t: heaviside(t),
        "kink": lambda pair, t: kink(t),
        "sine": lambda pair, t: sine(t, 3),
        "cosine": lambda pair, t: cosine(t, 7),
        "lacunary": lambda pair, t: lacunary(t, 0.5),
        "bump": lambda pair, t: bump(t, 0.3, 0.1),
        "dft_analyze": lambda pair, t: dft_analyze(np.cos(2 * np.pi * t.grid() / t.length) ** 3, t),
        "convolve_scaled": lambda pair, t: convolve_scaled(dirac(t), pair[0], 0.2),
        "derivative": lambda pair, t: kink(t).derivative(2),
        "add": lambda pair, t: kink(t) + sine(t, 3),
        "sub": lambda pair, t: kink(t) - sine(t, 3),
        "mul": lambda pair, t: 1.7 * kink(t),
        "localize": lambda pair, t: localize(sine(t, 3), bump(t, 0.5, 0.2)),
    }

    def _assert_kept(self, f):
        c, t = f.coefficients, f.torus
        assert f._sum_sq == np.vdot(c, c).real
        assert lp_norm(f, 2) == float(np.sqrt(t.length**t.dimension * np.vdot(c, c).real))

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_1d_routes(self, pair32, route):
        self._assert_kept(self.ROUTES[route](pair32, self._T1))

    @pytest.mark.parametrize("size", [8, 16, 32])
    def test_2d_band_restriction_slice(self, pair32, size):
        rng = np.random.default_rng(size)
        shape = self._T2.coeff_shape()
        T = SpectralFunction(self._T2, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        phi = pair32[0]
        y = phi.outer_support * self._T2.length / (math.pi * size)
        band = spectral._band_restrict(T, spectral._band_torus(phi, self._T2, y))
        assert band.torus.grid_size == size and not band.coefficients.flags.c_contiguous
        for f in (band, convolve_scaled(band, phi, y), band.derivative((1, 2))):
            self._assert_kept(f)

    def test_2d_signals_and_convolution(self, pair32):
        self._assert_kept(dft_analyze(np.ones((64, 64)), self._T2))
        self._assert_kept(convolve_scaled(dirac(self._T2), pair32[0], 0.4))


class TestSobolevTable:
    @pytest.mark.parametrize("d", [1, 2])
    def test_each_column_is_the_max_over_its_order(self, d):
        t = Torus(d, 1.0, 16)
        rng = np.random.default_rng(8)
        shape = t.coeff_shape()
        f = SpectralFunction(t, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        orders = [[(0, 0)], [(1, 0), (0, 1)], [(2, 0), (1, 1), (0, 2)]]
        if d == 1:
            orders = [[(0,)], [(1,)], [(2,)]]
        want = [max(lp_norm(f.derivative(a), "inf") for a in order) for order in orders]
        table = sobolev_table([f, 2.0 * f], range(3), "inf")
        assert table.shape == (2, 3)
        assert table[0].tobytes() == np.array(want).tobytes()
        np.testing.assert_allclose(table[1], 2.0 * table[0], rtol=1e-14)
        # the columns of orders <= 1 are a prefix; a later order is a suffix
        assert sobolev_table([f], range(2), "inf")[0].tobytes() == table[0, :2].tobytes()
        assert sobolev_table([f], [2], "inf")[0].tobytes() == table[0, 2:].tobytes()

    def test_generator_fields_are_held_one_at_a_time(self, torus64):
        made = []

        def track(f):
            made.append(weakref.ref(f))
            return f

        def fields():
            for mode in (1, 2, 3):
                assert all(ref() is None for ref in made)
                yield track(sine(torus64, mode))

        table = sobolev_table(fields(), range(2), 2)
        np.testing.assert_allclose(
            table[:, 1], 2 * np.pi * np.arange(1, 4) / np.sqrt(2), rtol=1e-12
        )

    def test_one_row_per_field_one_column_per_order(self, torus64):
        assert sobolev_table([], [0, 1], 2).shape == (0, 2)
        assert sobolev_table([], [], "inf").shape == (0, 0)
        assert sobolev_table([sine(torus64)] * 3, [], 1).shape == (3, 0)

    def test_rejects_bad_orders(self, torus64):
        for bad in (-1, 1.5, "1"):
            with pytest.raises(InvalidParameter):
                sobolev_table([sine(torus64)], [bad], 2)


def _real_trigonometric_polynomial(rng, torus, degree):
    """A random real field whose modes |m| <= degree per axis are nonzero."""
    shape = torus.coeff_shape()
    z = np.zeros(shape, dtype=complex)
    band = (slice(torus.mode_max - degree, torus.mode_max + degree + 1),) * torus.dimension
    z[band] = rng.standard_normal(z[band].shape) + 1j * rng.standard_normal(z[band].shape)
    return SpectralFunction(torus, _symmetric_part(z))


class TestTopOrderBound:
    """On a torus of length L, ||D^j g||_p <= (L/4) ||D^(j+1) g||_p for j >= 1
    (Young's inequality with the sawtooth, whose L^1 norm is L/4): an order
    column past 0 is bounded by the next one when L <= 4."""

    @pytest.mark.parametrize("p", [1, 1.5, "inf"])
    @pytest.mark.parametrize("d,length", [(1, 1.0), (1, 3.0), (2, 1.0)])
    def test_each_order_column_is_bounded_by_the_next(self, d, length, p):
        rng = np.random.default_rng(11)
        t = Torus(d, length, 64 if d == 1 else 32)
        for _ in range(4):
            g = _real_trigonometric_polynomial(rng, t, 6)
            table = sobolev_table([g], range(4), p)[0]
            for j in (1, 2):
                assert table[j] <= length / 4 * table[j + 1]
            if d == 1:
                c0 = abs(g.coefficients[t.mode_max])
                assert table[0] <= c0 * length ** (1 / spectral.parse_exponent(p)) + length / 4 * table[1]

    @pytest.mark.parametrize("p", [1, 1.5, "inf"])
    def test_order_zero_can_be_the_max(self, p):
        # where L > 4 or the mean dominates, order 0 exceeds the top order
        # and sets the W^{3,p} norm
        long_torus, unit = Torus(1, 8.0, 64), Torus(1, 1.0, 64)
        for f in (sine(long_torus, 1), constant(unit) + 1e-3 * sine(unit, 1)):
            table = sobolev_table([f], range(4), p)[0]
            assert table[0] > table[3]
            assert sobolev_norm(f, 3, p) == table[0]


class TestSobolevNorm:
    def test_constant_all_orders(self, torus64):
        for p in (1, 2, "inf"):
            assert sobolev_norm(constant(torus64), 3, p) == pytest.approx(1.0, abs=1e-10)

    def test_sine_first_derivative_sup(self, torus1k):
        got = sobolev_norm(sine(torus1k), 1, "inf")
        assert got == pytest.approx(2 * np.pi, abs=1e-8)

    def test_sine_second_derivative_l2(self, torus1k):
        got = sobolev_norm(sine(torus1k), 2, 2)
        assert got == pytest.approx((2 * np.pi) ** 2 / np.sqrt(2), abs=1e-8)

    def test_derivative_commutes_with_convolution(self, torus1k, moll32):
        f = heaviside(torus1k)
        for k in (1, 2):
            a = convolve_scaled(f, moll32, 0.05).derivative(k)
            b = convolve_scaled(f.derivative(k), moll32, 0.05)
            np.testing.assert_allclose(
                a.coefficients, b.coefficients, rtol=1e-13, atol=1e-16
            )

    def test_rejects_negative_order(self, torus64):
        with pytest.raises(InvalidParameter):
            sobolev_norm(constant(torus64), -1, 2)

    def test_derivative_multiplier_orders(self, torus1k):
        rng = np.random.default_rng(4)
        c = rng.standard_normal(1025) + 1j * rng.standard_normal(1025)
        f = SpectralFunction(torus1k, c)
        ixi = 1j * torus1k.frequencies()
        for a in range(14):
            np.testing.assert_allclose(
                f.derivative(a).coefficients, c * ixi**a, rtol=1e-13, atol=0
            )

    def test_derivative_order_must_be_integer(self, torus64):
        f = sine(torus64)
        np.testing.assert_array_equal(f.derivative(2.0).coefficients, f.derivative(2).coefficients)
        for bad in (-1, 0.5):
            with pytest.raises(InvalidParameter):
                f.derivative(bad)

    def test_overflowing_derivative_order_raises_a_typed_error(self, torus64):
        # (i xi)^a overflows at this torus's top mode from a = 134 on: the
        # error names the order, and no numpy RuntimeWarning comes first
        with pytest.raises(InvalidParameter, match="order 200"):
            sine(torus64).derivative(200)
        with pytest.raises(InvalidParameter, match="order 134"):
            detect_regularity(heaviside(torus64), 2, 2, 140, build_lp_pair(8.0, 0.5))

    @pytest.mark.parametrize("order", [200_000, 10**300, 1e300])
    def test_an_order_far_past_overflow_raises_at_once(self, order):
        # max |xi|^a is inf: raised after one pow per mode, whatever a
        start = time.perf_counter()
        with pytest.raises(InvalidParameter, match="overflows"):
            sine(Torus(1, 1.0, 64)).derivative(order)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "length,order",
        [pytest.param(1000.0, a, id=str(a)) for a in (10**6, 10**300)]  # max |xi| 0.025
        + [
            pytest.param(length, a, id=f"{top}-{name}")
            for length, top in ((8 * math.pi / 0.75, 0.75), (8 * math.pi, 1.0))
            for a, name in ((10**7, "1e7"), (10**300, "1e300"), (10**300 + 1, "1e300+1"), (10**5000, "1e5000"))
        ],
    )
    def test_an_order_far_past_underflow_is_zero_at_once(self, length, order):
        # sine's |xi| is max |xi| / 4: (i xi)^a is exactly 0 there, one pow
        # per mode whatever a
        start = time.perf_counter()
        f = sine(Torus(1, length, 8)).derivative(order)
        assert time.perf_counter() - start < 1.0
        assert not f.coefficients.any() and f.is_real()

    @pytest.mark.parametrize(
        "order",
        [pytest.param(a, id=str(a)) for a in range(1, 6)]
        + [pytest.param(10**300 + r, id=f"1e300+{r}") for r in range(4)],
    )
    def test_a_unit_frequency_keeps_its_modulus_at_any_order(self, order):
        # max |xi| = 1 exactly: the +-N/2 modes keep modulus 1/2, turned by
        # (i sgn xi)^a, whatever a
        c = np.zeros(9, dtype=complex)
        c[0] = c[-1] = 0.5  # xi = -1 and +1
        start = time.perf_counter()
        got = SpectralFunction(Torus(1, 8 * math.pi, 8), c).derivative(order).coefficients
        assert time.perf_counter() - start < 1.0
        turn = (1, 1j, -1, -1j)[order % 4]
        np.testing.assert_array_equal(got[[0, -1]], [0.5 * turn * (-1) ** (order % 2), 0.5 * turn])
        assert not got[1:-1].any()

    @pytest.mark.parametrize("length", [1000.0, 16 * math.pi])  # max |xi| 0.025 and 1/2
    def test_an_underflowing_multiplier_is_the_repeated_product(self, length):
        t = Torus(1, length, 8)
        xi = t.frequencies()
        # the first order whose a ln(max |xi|) is more than 1 below ln(ulp(0))
        first = math.floor((math.log(math.ulp(0.0)) - 1.0) / math.log(t.nyquist)) + 1
        for a in (first - 1, first, first + 1):
            power = xi
            for _ in range(a - 1):
                power = power * xi
            mult, peak = spectral._derivative_multiplier(t, a)
            np.testing.assert_array_equal(mult, power * (1j**a))
            assert peak == np.abs(power).max()
        assert peak == 0.0

    def test_derivative_multi_index_2d(self):
        t = Torus(2, 1.0, 16)
        rng = np.random.default_rng(6)
        c = rng.standard_normal((17, 17)) + 1j * rng.standard_normal((17, 17))
        ixi = 1j * t.frequencies()
        for a, b in ((0, 0), (1, 0), (0, 3), (2, 5)):
            want = c * ixi[:, None] ** a * ixi[None, :] ** b
            got = SpectralFunction(t, c).derivative((a, b)).coefficients
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


class TestConvolveScaled:
    def test_dirac_gives_scaled_kernel(self, torus1k, moll32):
        out = convolve_scaled(dirac(torus1k), moll32, 0.05)
        xi = torus1k.frequencies()
        np.testing.assert_allclose(
            out.coefficients, moll32.profile(0.05 * xi) / torus1k.length, rtol=1e-14
        )

    def test_mean_zero_kernel_annihilates_constants(self, torus1k, pair32):
        _, psi = pair32
        out = convolve_scaled(constant(torus1k), psi, 0.05)
        assert np.max(np.abs(out.coefficients)) == 0.0

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_heaviside_antiderivative_oracle(self, torus16k, pair32, p):
        # around the unit jump, H * psi_y looks like Psi(x/y) with Psi the
        # antiderivative of psi, so the norm is y^(1/p) ||Psi||_p
        _, psi = pair32
        ref = antiderivative_lp(psi, p)
        for y in (0.01, 0.02):
            got = lp_norm(convolve_scaled(heaviside(torus16k), psi, y), p)
            assert got == pytest.approx(y ** (1.0 / p) * ref, rel=0.02)

    def test_scale_guard(self, torus64, moll32):
        with pytest.raises(ScaleOutOfRange):
            convolve_scaled(dirac(torus64), moll32, min_scale(moll32, torus64) / 2)
        with pytest.raises(ScaleOutOfRange):
            convolve_scaled(dirac(torus64), moll32, -1.0)
        for y in (math.inf, math.nan):
            with pytest.raises(ScaleOutOfRange, match="positive and finite"):
                convolve_scaled(dirac(torus64), moll32, y)

    def test_array_scale_is_a_cache_key(self, torus1k, moll32):
        want = convolve_scaled(dirac(torus1k), moll32, 0.05).coefficients
        got = convolve_scaled(dirac(torus1k), moll32, np.array(0.05)).coefficients
        np.testing.assert_array_equal(got, want)

    def test_overflowing_scale_keeps_only_the_mean(self, pair32):
        # y |xi| overflows to inf for every nonzero mode, where the profile
        # is exactly 0; phi passes the mean and psi removes it
        T = dirac(Torus(1, 1.0, 256))
        phi, psi = pair32
        out = convolve_scaled(T, phi, 1e308).coefficients
        assert out[128] == T.coefficients[128] and np.count_nonzero(out) == 1
        assert not np.any(convolve_scaled(T, psi, 1e308).coefficients)

    @pytest.mark.parametrize("which", [0, 1], ids=["phi", "psi"])
    @pytest.mark.parametrize("d,n", [(1, 4096), (2, 128)])
    def test_cached_multiplier_is_the_profile(self, monkeypatch, pair32, which, d, n):
        # bit for bit, on T's torus and on every band torus of the grid; a
        # scale whose kernel box (the b of _kernel_multiplier) is narrower
        # than half the torus multiplies only the box, and that never on a
        # band torus: the box route alone hands _derived a support
        kernel = pair32[which]
        t = Torus(d, 1.0, n)
        T = SpectralFunction(t, np.random.default_rng(5).standard_normal(t.coeff_shape()))
        boxed = []
        derived = SpectralFunction._derived

        def spy(self, c, *args, support=None, **kwargs):
            if support is not None:
                boxed.append((self.torus, support.shape))
            return derived(self, c, *args, support=support, **kwargs)

        monkeypatch.setattr(SpectralFunction, "_derived", spy)
        grid = default_grid(t, pair32[0]).values()
        for y in grid:
            for S in (T, spectral._band_restrict(T, spectral._band_torus(kernel, t, y))):
                want = S.coefficients * kernel.profile(y * S.torus.frequency_radius())
                out = convolve_scaled(S, kernel, y)
                np.testing.assert_array_equal(out.coefficients, want)
                outside = np.ones(S.torus.coeff_shape(), dtype=bool)
                outside[spectral._central(S.torus, spectral._kernel_multiplier(kernel, S.torus, y)[1])] = False
                assert not out.coefficients[outside].any()
                rounding = want.size * np.finfo(float).eps
                assert out._sum_sq == pytest.approx(float(np.vdot(want, want).real), rel=rounding)
        wide = [y < 2 * spectral._scale_floor(kernel, t) for y in grid]
        assert any(wide) and not all(wide)
        boxes = [2 * spectral._kernel_multiplier(kernel, t, y)[1] + 1 for y, w in zip(grid, wide) if not w]
        assert boxed == [(t, (side,) * d) for side in boxes]

    @pytest.mark.parametrize("which", [0, 1], ids=["phi", "psi"])
    @pytest.mark.parametrize("d,n", [(1, 4096), (2, 128)])
    def test_kernel_box_is_tight(self, pair32, which, d, n):
        # b is the largest max_i |m_i| over the nonzero modes of a Dirac's
        # convolution, whose coefficients are all nonzero: not merely a box
        # that holds them
        kernel = pair32[which]
        t = Torus(d, 1.0, n)
        for y in default_grid(t, pair32[0]).values():
            out = convolve_scaled(dirac(t), kernel, y).coefficients
            assert spectral._kernel_multiplier(kernel, t, y)[1] == t.band_index()[out != 0].max()

    @pytest.mark.parametrize("y", [0.2, 1e308])
    def test_2d_multiplier_holds_one_value_per_distinct_radius(self, pair32, y):
        # up to the first radius past the support, where the profile is 0
        t = Torus(2, 1.0, 128)
        radii = spectral._distinct_radii(t)[0]
        assert radii.shape == (1782,) and np.all(np.diff(radii) > 0)
        with np.errstate(over="ignore"):
            want = pair32[0].profile(y * radii)
        got = spectral._kernel_multiplier(pair32[0], t, y)[0]
        np.testing.assert_array_equal(got, want[: np.flatnonzero(want)[-1] + 2])

    def test_result_is_function_tagged(self, torus1k, moll32):
        out = convolve_scaled(dirac(torus1k), moll32, 0.05)
        assert out.tag == "function"
        assert lp_norm(out, 2) > 0  # no aliasing guard fires


# On Torus(1, 1.0, 8) the p = 1 rule starts from the grid of step h = 1/64,
# so a zero in (1 - h, 1) sits in the wrap cell, between the last node and
# the first: the offsets put the zeros of a sine inside an interior cell and
# the wrap cell, the centres a zero pair inside the first cell, the last
# interior cell and the wrap cell.
_CELL_OFFSETS = [0.3 + 1.0 / 192, 1.0 - 1.0 / 192]
_PAIR_CENTRES = [1.0 / 128, 1.0 - 1.5 / 64, -1.0 / 128]


def _shifted_sine(x0):
    """sin(2 pi (x - x0)) on Torus(1, 1.0, 8): zeros at x0 and x0 - 1/2."""
    c = np.zeros(9, dtype=complex)
    c[5] = -0.5j * np.exp(-2j * math.pi * x0)
    c[3] = np.conj(c[5])
    return SpectralFunction(Torus(1, 1.0, 8), c)


def _zero_pair(centre):
    """cos(2 pi delta) - cos(2 pi (x - centre)) on Torus(1, 1.0, 8), delta =
    0.3 / 64: zeros at centre +- delta, with no sample of step 1/64 between."""
    c = np.zeros(9, dtype=complex)
    c[4] = math.cos(2 * math.pi * 0.3 / 64)
    c[5] = -0.5 * np.exp(-2j * math.pi * centre)
    c[3] = np.conj(c[5])
    return SpectralFunction(Torus(1, 1.0, 8), c)


class TestL1Rule:
    """p = 1 on real 1-d inputs: the kink-corrected rule against exact values."""

    @pytest.mark.parametrize("k", [0, 1, 3])
    @pytest.mark.parametrize("signal", [dirac, heaviside, kink], ids=lambda s: s.__name__)
    def test_mollified_nets(self, torus1k, pair32, signal, k):
        phi = pair32[0]
        lo = min_scale(phi, torus1k)
        for y in (1.05 * lo, 2.0 * lo, 0.05, 0.2):
            f = convolve_scaled(signal(torus1k), phi, y).derivative(k)
            exact = trigonometric_l1(f.coefficients, torus1k.length)
            assert lp_norm(f, 1) == pytest.approx(exact, rel=1e-6)

    def test_grid_sized_by_bandwidth_then_refined(self, torus1k, pair32, monkeypatch):
        sizes = []
        irfft = np.fft.irfft

        def spy(*args, **kwargs):
            sizes.append(kwargs["n"])
            return irfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", spy)
        # band 318: 8 times the smallest power of two > 2 * 318
        f = convolve_scaled(dirac(torus1k), pair32[0], 0.02).derivative(1)
        assert f.active_bandwidth(rtol=0.0) == 318
        lp_norm(f, 1)
        assert sizes == [8 * 1024]
        # band 64 (a lacunary series): the grid is sized above 2 * 64, so its
        # top mode stays off the band edge and one synthesis suffices
        sizes.clear()
        f = convolve_scaled(lacunary(torus1k, 0.5), pair32[0], 0.05).derivative(3)
        exact = trigonometric_l1(f.coefficients, torus1k.length)
        assert lp_norm(f, 1) == pytest.approx(exact, rel=1e-8)
        assert sizes == [8 * 256]

    def test_missed_target_raises(self, torus1k, pair32, monkeypatch):
        # no estimate reaches 0, so the rule refines to the 16x grid and gives up
        monkeypatch.setattr(spectral, "_L1_RTOL", 0.0)
        f = convolve_scaled(heaviside(torus1k), pair32[0], 0.05)
        with pytest.raises(QuadratureInaccurate, match=r"16384 points: error estimate \S+ of a norm"):
            lp_norm(f, 1)

    def test_zeros_on_grid_nodes(self, torus64):
        # zeros at x = j/6, among them the nodes x = 0 and 1/2
        assert lp_norm(sine(torus64, 3), 1) == pytest.approx(2.0 / np.pi, rel=1e-6)

    @pytest.mark.parametrize("x0", _CELL_OFFSETS, ids=["interior-cell", "wrap-cell"])
    def test_zero_inside_a_cell(self, x0):
        assert lp_norm(_shifted_sine(x0), 1) == pytest.approx(2.0 / np.pi, rel=1e-9)

    def test_touching_zero_is_no_kink(self):
        t = Torus(1, 2.0, 64)
        assert lp_norm(constant(t) - cosine(t), 1) == pytest.approx(2.0, rel=1e-6)

    def test_band_at_nyquist(self, torus64):
        f = _real_coefficients(np.random.default_rng(3), torus64)
        assert f.active_bandwidth(rtol=0.0) == torus64.mode_max
        exact = trigonometric_l1(f.coefficients, torus64.length)
        assert lp_norm(f, 1) == pytest.approx(exact, rel=1e-6)

    def test_no_crossing(self, torus1k):
        b = bump(torus1k, center=0.3, halfwidth=0.1)
        assert lp_norm(b, 1) == pytest.approx(b.coefficients[torus1k.mode_max].real, rel=1e-12)

    def test_two_zeros_between_samples(self):
        for centre in _PAIR_CENTRES:
            f = _zero_pair(centre)
            exact = trigonometric_l1(f.coefficients, 1.0, density=1024)
            assert lp_norm(f, 1) == pytest.approx(exact, rel=1e-9), centre

    @pytest.mark.parametrize(
        "field",
        [_shifted_sine(x0) for x0 in _CELL_OFFSETS] + [_zero_pair(centre) for centre in _PAIR_CENTRES],
        ids=["interior-cell", "wrap-cell", "pair-first", "pair-last", "pair-wrap"],
    )
    def test_even_rolls_keep_both_values(self, field):
        # a roll by an even k moves the zeros across the wrap cell but keeps
        # the samples and the even samples, so both values of the rule stay
        h = 1.0 / 64
        v = spectral._synthesize(field, 64, real=True)
        want = spectral._l1_rule(v, h)
        for k in range(0, 64, 2):
            np.testing.assert_allclose(spectral._l1_rule(np.roll(v, k), h), want, rtol=1e-13, err_msg=k)


def _zero_place_grids():
    """Grids for _zero_places: seeded ones for n = 8..64, with a sign flip
    across the wrap and low nodes at 0 and n - 1 set on some, and the
    samples of _shifted_sine and _zero_pair on 64 points, rolled."""
    rng = np.random.default_rng(38)
    for n in range(8, 65):
        for _ in range(4):
            v = rng.standard_normal(n)
            yield v
            w = np.abs(v) + 1.0  # one sign: no flip at all
            w[0] = w[-1] = 0.01  # low nodes at 0 and n - 1
            yield w
            yield -w
            w = w.copy()
            w[-1] = -0.01  # a flip across the wrap, next to a low node 0
            yield w
    for field in [_shifted_sine(x0) for x0 in _CELL_OFFSETS] + [_zero_pair(c) for c in _PAIR_CENTRES]:
        v = spectral._synthesize(field, 64, real=True)
        for k in range(0, 64, 7):
            yield np.roll(v, k)


class TestZeroPlaces:
    """_zero_places reads the wrap from scalars; the padded form is the reference."""

    def test_matches_the_padded_form(self):
        wrap_kink = low_ends = 0
        for v in _zero_place_grids():
            m, p = np.abs(v), v > 0
            got, want = spectral._zero_places(m, p), padded_zero_places(m, p)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)
            kinks, lows = got
            wrap_kink += v.size - 1 in kinks
            low_ends += 0 in lows and v.size - 1 in lows
        # the wrap entries were exercised, not only the interior
        assert wrap_kink > 50 and low_ends > 50


class TestLineFieldNorms:
    """2-d p = 1 and p = 4 on a line field f (x) 1, which has the norms of f
    on the unit torus: ||f (x) 1||_p = L^(1/p) ||f||_p."""

    @pytest.mark.parametrize(
        "signal", [heaviside, kink, lambda t: lacunary(t, 0.5)], ids=["heaviside", "kink", "lacunary"]
    )
    def test_against_the_1d_references(self, torus64, moll32, signal):
        f = convolve_scaled(signal(torus64), moll32, 0.2)
        c = np.zeros(Torus(2, 1.0, 64).coeff_shape(), dtype=complex)
        c[:, torus64.mode_max] = f.coefficients  # f on the modes (m, 0)
        line = SpectralFunction(Torus(2, 1.0, 64), c)
        # the 16x rectangle rule reads within 3.9e-6; ROADMAP item 8's
        # band-sized rule should tighten this bound to 1e-6
        exact = trigonometric_l1(f.coefficients, torus64.length)
        assert lp_norm(line, 1) == pytest.approx(exact, rel=1e-5)
        # |f|^4 is a trigonometric polynomial the grid integrates exactly
        assert lp_norm(line, 4) == pytest.approx(lp_norm(f, 4), rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 4.0, "inf"])
    @pytest.mark.parametrize(
        "signal",
        [
            lambda t, moll: sine(t, 3) + 0.5 * cosine(t, 5),
            lambda t, moll: kink(t),
            lambda t, moll: convolve_scaled(heaviside(t), moll, 0.8),
        ],
        ids=["sine-sum", "kink", "heaviside"],
    )
    def test_tensor_with_one_has_the_1d_norm(self, moll32, signal, p):
        # f (x) 1 and 1 (x) f on the unit torus have the 1-d norms of f.  Off
        # p = 1 both sides take the same rule.  At p = 1 the 2-d field takes
        # the 16x rectangle rule and the 1-d one the corrected rule: 1.8e-4
        # apart on the sine sum, which changes sign (ROADMAP item 8's oracle)
        t = Torus(1, 1.0, 16)
        f = signal(t, moll32)
        want = lp_norm(f, p)
        one = constant(t).coefficients
        for c in (np.outer(f.coefficients, one), np.outer(one, f.coefficients)):
            got = lp_norm(SpectralFunction(Torus(2, 1.0, 16), c, f.tag), p)
            assert got == pytest.approx(want, rel=1e-3 if p == 1.0 else 1e-12)


class TestScalingLaw:
    """Dilation identity ||K_y||_p = y^(-d(1-1/p)) ||K||_p against the
    independent real-line reference norm.

    Admissible scales: large enough that the periodized kernel tails are
    negligible, small enough that the documented second-order quadrature
    resolves |K_y|^p; [0.015, 0.04] on the 2^14 grid covers both for the
    p used here, and p in {2, inf} is alias-free over a wider range.
    """

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, "inf"])
    @pytest.mark.parametrize("kname", ["moll", "psi"])
    def test_dirac_dilation(self, torus16k, moll32, pair32, p, kname):
        K = moll32 if kname == "moll" else pair32[1]
        pv = np.inf if p == "inf" else p
        ref = kernel_space_norm(K, p, oversample=1024)
        for y in (0.015, 0.02, 0.03, 0.04):
            got = lp_norm(convolve_scaled(dirac(torus16k), K, y), p)
            want = y ** (-(1.0 - 1.0 / pv)) * ref
            assert got == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("p", [2.0, "inf"])
    def test_wide_range_exact_p(self, torus16k, moll32, p):
        pv = np.inf if p == "inf" else p
        ref = kernel_space_norm(moll32, p, oversample=1024)
        lo = min_scale(moll32, torus16k)
        for y in (2 * lo, 0.005, 0.02):
            got = lp_norm(convolve_scaled(dirac(torus16k), moll32, y), p)
            assert got == pytest.approx(y ** (-(1.0 - 1.0 / pv)) * ref, rel=1e-6)

    def test_dilation_2d_parseval_route(self, moll32):
        t = Torus(2, 1.0, 256)
        d = dirac(t)
        n1 = lp_norm(convolve_scaled(d, moll32, 0.05), 2)
        n2 = lp_norm(convolve_scaled(d, moll32, 0.1), 2)
        # d = 2, p = 2: ||K_y||_2 scales like y^-1
        assert n1 / n2 == pytest.approx(2.0, rel=1e-6)


class TestYoungInequality:
    def test_mollification_contracts(self, torus1k, moll32):
        rng = np.random.default_rng(7)
        c = np.zeros(1025, dtype=complex)
        band = np.arange(-40, 41)
        vals = rng.standard_normal(81) + 1j * rng.standard_normal(81)
        c[band + 512] = vals + np.conj(vals[::-1])  # real-valued f
        f = SpectralFunction(torus1k, c)
        phi_l1 = kernel_space_norm(moll32, 1, oversample=1024)
        for p in (1.0, 2.0, "inf"):
            fn = lp_norm(f, p)
            for eps in (0.01, 0.05, 0.2):
                assert lp_norm(convolve_scaled(f, moll32, eps), p) <= phi_l1 * fn + 1e-9


class TestPairing:
    def test_pairing_matches_quadrature(self, torus1k):
        f = heaviside(torus1k)
        g = bump(torus1k, center=0.3, halfwidth=0.08)
        spectral = pairing(f, g)
        over = 8
        fv = dft_synthesize(f, over).real
        gv = dft_synthesize(g, over).real
        quad = np.sum(fv * gv) * torus1k.length / (1024 * over)
        assert spectral.real == pytest.approx(quad, rel=1e-3)
        assert abs(spectral.imag) < 1e-12

    @pytest.mark.parametrize("d,n", [(1, 64), (2, 16)])
    def test_one_dot_is_the_flipped_product_sum(self, d, n):
        # random non-symmetric complex spectra; g's coefficients a strided view
        rng = np.random.default_rng(3 + d)
        t = Torus(d, 1.7, n)
        shape = t.coeff_shape()
        f = SpectralFunction(t, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        wide = rng.standard_normal((2 * n + 1,) * d) + 1j * rng.standard_normal((2 * n + 1,) * d)
        g = SpectralFunction(t, wide[(slice(None, None, 2),) * d])
        terms = f.coefficients * np.flip(g.coefficients)
        got = pairing(f, g)
        assert abs(got - np.sum(terms) * t.length**d) <= 1e-12 * np.sum(np.abs(terms)) * t.length**d
        assert abs(got - pairing(g, f)) <= 1e-12 * np.sum(np.abs(terms)) * t.length**d

    def test_dirac_pairing_evaluates(self, torus1k):
        g = bump(torus1k, center=0.25, halfwidth=0.1)
        got = pairing(dirac(torus1k), g)
        want = dft_synthesize(g).real[0]  # <delta_0, g> = g(0)
        assert got.real == pytest.approx(want, abs=1e-12)


def _tolerance_scan(c):
    """The entry tolerance by its definition: max |c_m - conj(c_-m)| < 1e-10 max |c|."""
    return bool(np.max(np.abs(c - np.conj(np.flip(c)))) < 1e-10 * np.max(np.abs(c)))


def _symmetric_part(c):
    """(c + conj(flip(c))) / 2: exactly conjugate-symmetric."""
    return (c + np.conj(np.flip(c))) / 2


def _exact(c):
    """c_m == conj(c_-m) for every m, by its definition."""
    return bool(np.all(c == np.conj(np.flip(c))))


_ENTRY_KINDS = [
    "exact", "within", "asymmetric", "nyquist", "signed zeros", "zero", "dft_analyze", "localize"
]


def _entering_field(rng, t, kind):
    """(the outside array, None for dft_analyze and localize, and the field it
    enters as) of one kind of input on the torus t."""
    d, shape = t.dimension, t.coeff_shape()
    if kind == "dft_analyze":  # real samples
        return None, dft_analyze(rng.standard_normal((t.grid_size,) * d), t)
    c = _symmetric_part(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    if kind == "localize":  # a real field times the real window 1/2 + cos(xi_1 x)/2 per axis
        w = np.zeros(t.grid_size + 1, dtype=complex)
        w[t.mode_max - 1 : t.mode_max + 2] = [0.25, 0.5, 0.25]
        window = SpectralFunction(t, w if d == 1 else np.multiply.outer(w, w))
        return None, localize(SpectralFunction(t, c, "distribution"), window)
    corner = (0,) * d
    if kind == "within":  # an asymmetry below the tolerance: made exactly symmetric
        c[corner] += rng.uniform(1e-13, 0.9e-10) * np.max(np.abs(c)) * (1 + 1j) / math.sqrt(2)
    elif kind == "asymmetric":
        c = c + rng.uniform(1e-9, 1.0) * rng.standard_normal(shape)
    elif kind == "nyquist":  # unequal end slots of the last axis
        c[..., 0] += rng.choice([1e-14, 1e-6, 1.0])
    elif kind == "signed zeros":  # -0.0 opposite +0.0 is still symmetric
        c.real[corner] = 0.0
        c.real[(-1,) * d] = -0.0
        c.imag[c.imag == 0.0] = -0.0
    elif kind == "zero":
        c[...] = 0.0
    return c, SpectralFunction(t, c)


class TestExactSymmetry:
    """is_real is exact conjugate symmetry of the stored coefficients, on every route."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.sampled_from([1, 2]),
        log_n=st.integers(3, 5),
        kind=st.sampled_from(_ENTRY_KINDS),
        partner=st.sampled_from(["exact", "asymmetric"]),
        scalar=st.sampled_from([2.5, -1.0, 0.0]),
    )
    def test_is_real_is_the_exact_compare_on_every_route(
        self, pair32, seed, d, log_n, kind, partner, scalar
    ):
        rng = np.random.default_rng(seed)
        t = Torus(d, 1.3, 2**log_n)
        c, f = _entering_field(rng, t, kind)
        if c is None or (not _exact(c) and _tolerance_scan(c)):
            # made exactly symmetric: each coefficient moved by at most half the
            # tolerance, 5e-11 max |c|, plus the rounding of the half sums
            assert f.is_real()
            if c is not None:
                moved = np.max(np.abs(f.coefficients - c))
                assert moved <= (5e-11 + 1e-15) * np.max(np.abs(c))
        else:
            assert f.coefficients.tobytes() == c.tobytes()  # kept bitwise, signed zeros too
        if kind in ("exact", "signed zeros", "zero"):
            assert _exact(c)
        h = _entering_field(rng, t, partner)[1]
        phi = pair32[0]
        routes = [
            f,
            f.derivative(3 if d == 1 else (2, 1)),
            convolve_scaled(f, phi, 2 * min_scale(phi, t)),
            spectral._band_restrict(
                f, spectral._band_torus(phi, t, phi.outer_support * t.length / (math.pi * 8))
            ),
            scalar * f,
            f + h,
            f - h,
            f - f,
        ]
        for g in routes:
            assert g.is_real() == _exact(g.coefficients)

    @pytest.mark.parametrize("top,bottom", [(1.5e308, -1.5e308), (5e-324, 0.0)], ids=["huge", "tiny"])
    def test_an_asymmetry_at_the_ends_of_the_float_range_reads_complex(self, top, bottom):
        # huge: c_5 - conj(c_-5) overflows, the halves of the two do not;
        # tiny: the halves round to 0, yet the array is not symmetric
        c = np.zeros(9, dtype=complex)
        c[5], c[3] = top, bottom
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = SpectralFunction(Torus(1, 1.0, 8), c)
        assert f.is_real() is False
        assert f.coefficients.tobytes() == c.tobytes()

    def test_a_derived_field_reads_as_a_fresh_one(self):
        # sine(1) plus 2e-11 at mode +500 is within the tolerance; its third
        # derivative, whose max |c| is 8 pi^3 times larger, is not, yet is
        # derived from the symmetric part that entered
        t = Torus(1, 1.0, 1024)
        c = sine(t, 1).coefficients.copy()
        c[t.mode_max + 500] += 2e-11
        f = SpectralFunction(t, c).derivative(3)
        fresh = SpectralFunction(t, f.coefficients.copy())
        assert f.is_real() == fresh.is_real()
        for p in ("inf", 1):
            assert lp_norm(f, p) == pytest.approx(lp_norm(fresh, p), rel=1e-12)

    @pytest.mark.parametrize("route", ["dft_analyze 1-d", "dft_analyze 2-d", "localize"])
    def test_real_library_products_enter_exactly_symmetric(self, route):
        rng = np.random.default_rng(5)
        if route == "localize":
            t = Torus(1, 1.0, 256)
            f = localize(dirac(t), bump(t, 0.25, 0.2))
        else:
            t = Torus(1, 1.0, 64) if route.endswith("1-d") else Torus(2, 1.0, 16)
            v = rng.standard_normal((t.grid_size,) * t.dimension)
            f = dft_analyze(v, t)
            np.testing.assert_allclose(dft_synthesize(f).real, v, rtol=0, atol=1e-12)
        assert f.is_real() and _exact(f.coefficients)

    def test_a_real_product_with_a_small_tail_reads_real(self):
        # the product's max |c| is 2.8e-11, below its inputs' FFT rounding
        # times 1e10: no relative tolerance on the product would find it real
        t = Torus(1, 1.0, 256)
        f = localize(dirac(t), bump(t, 0.5, 0.1))
        fresh = SpectralFunction(t, f.coefficients.copy())
        assert f.is_real() and fresh.is_real() and _exact(f.coefficients)
        assert lp_norm(f, 1) == lp_norm(fresh, 1)
        assert lp_norm(f, 1) == pytest.approx(8.81478e-11, rel=1e-5)
        # a complex T gives a complex product, decided by one compare
        g = localize(SpectralFunction(t, 1j * dirac(t).coefficients, "distribution"), bump(t, 0.5, 0.1))
        assert not g.is_real() and not _exact(g.coefficients)

    @pytest.mark.parametrize("d,n", [(1, 256), (2, 32)])
    def test_derived_results_keep_exact_symmetry(self, pair32, d, n):
        # every derived result reads real exactly when a fresh compare of
        # its coefficients finds them symmetric
        t = Torus(d, 1.3, n)
        rng = np.random.default_rng(d)
        shape = t.coeff_shape()
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        real = SpectralFunction(t, _symmetric_part(z))
        other = SpectralFunction(t, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        phi = pair32[0]
        y = phi.outer_support * t.length / (math.pi * 8)  # the band torus of 8 points
        real2 = SpectralFunction(t, _symmetric_part(rng.standard_normal(shape) + 0j))
        orders = [1, 2, 3, 4] if d == 1 else [(1, 0), (0, 3), (2, 1), (3, 4)]
        # arithmetic of two exactly symmetric fields, then of mixed ones
        for T, T2 in ((real, real2), (other, real), (real, other)):
            derived = [T.derivative(a) for a in orders]
            derived.append(convolve_scaled(T, phi, 2 * min_scale(phi, t)))
            derived.append(spectral._band_restrict(T, spectral._band_torus(phi, t, y)))
            derived += [2.5 * T, T + T2, T - T2]
            for f in derived:
                assert f.is_real() == spectral._is_conjugate_symmetric(f.coefficients.copy())
            assert [f.is_real() for f in derived[:-2]] == [T is real] * (len(derived) - 2)
            assert [f.is_real() for f in derived[-2:]] == [T is real and T2 is real2] * 2
        # a mixed difference that cancels is decided on its result
        assert (other - other).is_real() and (other - 1.0 * other).is_real()

    def test_a_perturbed_embed_net_decides_no_symmetry(self, pair32, monkeypatch):
        t = Torus(1, 1.0, 1024)
        T, g = heaviside(t), sine(t, 5)
        net = perturbed_net(embed(T, pair32[0]), g, lambda e: e**2)
        decided = []
        original = spectral._is_conjugate_symmetric
        monkeypatch.setattr(spectral, "_is_conjugate_symmetric",
                            lambda c: decided.append(c.shape) or original(c))
        for eps in (0.02, 0.1, 0.4):
            f = net(eps)
            assert lp_norm(f, "inf") > 0.0 and f.is_real()
        assert decided == []


class TestReadOnlyCoefficients:
    def test_in_place_write_raises_and_keeps_the_facts(self):
        f = sine(Torus(1, 1.0, 64), 3)
        facts = (f.is_real(), lp_norm(f, "inf"), lp_norm(f, 2))
        with pytest.raises(ValueError, match="read-only"):
            f.coefficients[37] += 0.5j
        assert (f.is_real(), lp_norm(f, "inf"), lp_norm(f, 2)) == facts
        assert facts == (True, pytest.approx(1.0, abs=1e-12), pytest.approx(math.sqrt(0.5)))

    def test_every_route_is_read_only(self, pair32):
        t = Torus(1, 1.0, 64)
        routes = [sine(t, 3), dirac(t), dft_analyze(np.ones(64), t), kink(t).derivative(1)]
        routes += [convolve_scaled(dirac(t), pair32[0], 0.4), kink(t) + sine(t), 2.0 * kink(t)]
        assert not any(f.coefficients.flags.writeable for f in routes)

    def test_the_callers_array_stays_writeable(self):
        c = np.zeros(65, dtype=complex)
        SpectralFunction(Torus(1, 1.0, 64), c)
        c[33] = 1.0

    def test_a_read_only_view_of_a_writeable_array_is_copied(self):
        # the view refuses writes, but its base takes them
        c = np.zeros(65, dtype=complex)
        v = c[:]
        v.flags.writeable = False
        f = SpectralFunction(Torus(1, 1.0, 64), v)
        c[33] = 1.0
        assert not np.shares_memory(f.coefficients, c)
        assert (lp_norm(f, 2), lp_norm(f, "inf"), lp_norm(f, 1)) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("layout", ["step-2 view", "Fortran order"])
    def test_answers_do_not_depend_on_the_callers_layout(self, layout, real):
        rng = np.random.default_rng(4)
        if layout == "step-2 view":
            t = Torus(1, 1.3, 64)
            z = rng.standard_normal(129) + 1j * rng.standard_normal(129)
            given = (_symmetric_part(z) if real else z)[::2]
        else:
            t = Torus(2, 1.3, 16)
            z = rng.standard_normal((17, 17)) + 1j * rng.standard_normal((17, 17))
            given = np.asfortranarray(_symmetric_part(z) if real else z)
        assert not given.flags.c_contiguous
        shape = t.coeff_shape()
        h = SpectralFunction(t, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

        def answers(f):
            norms = [lp_norm(f, p) for p in (1, 2, "inf")]
            return norms + [f.is_real(), pairing(f, h), pairing(h, f), pairing(f, f)]

        assert answers(SpectralFunction(t, given)) == answers(SpectralFunction(t, given.copy()))

    @pytest.mark.parametrize("step", [1, 2])
    def test_the_callers_later_writes_do_not_reach_the_object(self, step):
        # the object keeps a C-order copy of the array passed in
        t = Torus(1, 1.0, 64)
        base = np.zeros(64 * step + 1, dtype=complex)
        c = base[::step]
        c[...] = sine(t, 3).coefficients
        f = SpectralFunction(t, c)
        assert f.coefficients.flags.c_contiguous
        c[37] += 0.5j
        assert f.coefficients[37] == sine(t, 3).coefficients[37]
        assert (f.is_real(), lp_norm(f, 2)) == (True, pytest.approx(math.sqrt(0.5)))
        changed = SpectralFunction(t, c.copy())
        assert (changed.is_real(), lp_norm(changed, 2)) == (False, pytest.approx(math.sqrt(0.75)))


class TestDerivedFields:
    """Library-made fields skip the public constructor and equal what it would build."""

    def test_a_warm_p2_analysis_runs_no_public_construction(self, monkeypatch, torus16k, pair32):
        T = dirac(torus16k)
        grid = default_grid(torus16k, pair32[0])
        def run():
            sweep(T, pair32[0], grid, k=1, p=2)
            detect_regularity(T, 2, "inf", 1, pair32)

        run()
        constructions = []
        post_init = SpectralFunction.__post_init__
        counted = lambda self: constructions.append(1) or post_init(self)
        monkeypatch.setattr(SpectralFunction, "__post_init__", counted)
        run()
        assert constructions == []

    ROUTES = {
        "derivative 1-d": lambda t, pair: kink(t).derivative(3),
        "derivative 2-d": lambda t, pair: dirac(t).derivative((2, 1)),
        "derivative of order 0": lambda t, pair: kink(t).derivative(0),
        "convolve_scaled": lambda t, pair: convolve_scaled(dirac(t), pair[0], 0.2),
        "band restriction": lambda t, pair: spectral._band_restrict(
            convolve_scaled(dirac(t), pair[0], 0.2), spectral._band_torus(pair[0], t, 0.2)
        ),
        "scalar multiple": lambda t, pair: 2.0 * kink(t),
        "sum": lambda t, pair: kink(t) + sine(t, 3),
        "difference": lambda t, pair: dirac(t) - sine(t, 3),
        "localize": lambda t, pair: localize(sine(t, 3), bump(t, 0.5, 0.2)),
    }

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_every_route_equals_a_public_construction(self, pair32, route):
        t = Torus(2, 1.0, 64) if route.endswith("2-d") else Torus(1, 1.3, 256)
        f = self.ROUTES[route](t, pair32)
        fresh = SpectralFunction(f.torus, f.coefficients.copy(), f.tag)
        np.testing.assert_array_equal(f.coefficients, fresh.coefficients)
        assert f._sum_sq == fresh._sum_sq
        assert (f.tag, f.torus) == (fresh.tag, fresh.torus)
        assert not f.coefficients.flags.writeable and not fresh.coefficients.flags.writeable
        assert f.is_real() == fresh.is_real()
        assert type(f) is SpectralFunction and vars(f).keys() >= vars(fresh).keys()

    def test_convolution_multiplier_is_complex_and_the_same_product(self, pair32):
        t = Torus(1, 1.0, 1024)
        T = kink(t)
        got = convolve_scaled(T, pair32[0], 0.05).coefficients
        mult = spectral._kernel_multiplier(pair32[0], t, 0.05)[0]
        assert mult.dtype == complex and not mult.imag.any()
        where = spectral._distinct_radii(t)[1]
        np.testing.assert_array_equal(got, T.coefficients * mult.real.take(where, mode="clip"))


_HASH_CHILD = """
import pickle, sys
from besovlab.kernels import build_lp_pair
from besovlab.spectral import Torus, _kernel_multiplier
torus, kernel = pickle.loads(sys.stdin.buffer.read())
fresh_torus, fresh_kernel = Torus(1, 1.0, 64), build_lp_pair(32.0, 0.5)[0]
assert hash(torus) == hash(fresh_torus) and torus == fresh_torus
assert hash(kernel) == hash(fresh_kernel) and kernel == fresh_kernel
_kernel_multiplier(fresh_kernel, fresh_torus, 0.1)
before = _kernel_multiplier.cache_info()
_kernel_multiplier(kernel, torus, 0.1)
after = _kernel_multiplier.cache_info()
assert (after.hits, after.misses) == (before.hits + 1, before.misses), (before, after)
print("ok")
"""


class TestKeptHashes:
    """Tori and kernels hash once, from their numbers only."""

    def test_torus_pieces_of_any_numeric_type(self):
        t = Torus(np.int64(1), 1, 64)
        assert t == Torus(1, 1.0, 64) and hash(t) == hash(Torus(1, 1.0, 64))
        assert [type(v) for v in (t.dimension, t.length, t.grid_size)] == [int, float, int]
        assert t.coeff_shape() == (65,) and t.coeff_shape() is t.coeff_shape()

    def test_kernel_pieces_of_any_numeric_type(self):
        alike = [
            Kernel(16.0, 40.0, (24.0, 32.0), "a"),
            Kernel(np.float64(16), np.float64(40), (np.float64(24), 32), "b"),
            Kernel(np.array(16.0), 40, np.array([24.0, 32.0])),
        ]
        assert len({hash(k) for k in alike}) == 1
        assert alike[1] == dataclasses.replace(alike[0], label="b")

    def test_replace_gives_a_fresh_hash(self):
        t = dataclasses.replace(Torus(1, 1.0, 64), grid_size=128)
        assert t == Torus(1, 1.0, 128) and hash(t) == hash(Torus(1, 1.0, 128))
        assert t.coeff_shape() == (129,)
        k = dataclasses.replace(build_mollifier(32.0), outer_support=40.0)
        assert hash(k) == hash(Kernel(0.0, 40.0, (0.0, 16.0)))

    def test_pickled_objects_hash_alike_in_another_process(self):
        # str hashes differ between the two processes; a kept hash must not
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(spectral.__file__)))
        made = subprocess.run(
            [sys.executable, "-c", "import pickle, sys\n"
             "from besovlab.kernels import build_lp_pair\n"
             "from besovlab.spectral import Torus\n"
             "made = (Torus(1, 1.0, 64), build_lp_pair(32.0, 0.5)[0])\n"
             "sys.stdout.buffer.write(pickle.dumps(made))"],
            env=dict(env, PYTHONHASHSEED="1"), capture_output=True, check=True, timeout=120,
        )
        checked = subprocess.run(
            [sys.executable, "-c", _HASH_CHILD], input=made.stdout,
            env=dict(env, PYTHONHASHSEED="2"), capture_output=True, timeout=120,
        )
        assert checked.returncode == 0 and checked.stdout.strip() == b"ok", checked.stderr.decode()


class TestZeroField:
    @pytest.mark.parametrize("p", [1, 1.5, 2, 4, "inf"])
    @pytest.mark.parametrize("d,tag", [(1, "function"), (2, "function"), (1, "distribution")])
    def test_norm_zero_without_synthesis(self, monkeypatch, p, d, tag):
        calls = []
        monkeypatch.setattr(spectral, "_synthesize", lambda *a, **k: calls.append(1))
        t = Torus(d, 1.7, 32)
        f = SpectralFunction(t, np.zeros(t.coeff_shape(), dtype=complex), tag)
        assert lp_norm(f, p) == 0.0
        assert calls == []

    def test_the_net_difference_of_a_study_is_zero(self, monkeypatch, pair32, torus1k):
        calls = []
        monkeypatch.setattr(spectral, "_synthesize", lambda *a, **k: calls.append(1))
        T = heaviside(torus1k)
        net = embed(T, pair32[0]).minus(embed(T, pair32[0]))
        assert net(0.1)._sum_sq == 0.0
        assert classify_negligible(net, 2).negligible
        assert calls == []

    def test_moduli_that_square_to_zero_are_synthesized(self):
        # |c|^2 underflows to 0 below about 1e-162, so the kept sum is 0 with
        # a nonzero coefficient: lp_norm's entry takes the norms of f * 2**600
        # and divides them by 2**600
        c = np.zeros(65, dtype=complex)
        c[32] = 1e-200
        f = SpectralFunction(Torus(1, 1.0, 64), c)
        assert f._sum_sq == 0.0
        assert lp_norm(f, "inf") == pytest.approx(1e-200, rel=1e-12, abs=0.0)
        assert lp_norm(f, 3) == pytest.approx(1e-200, rel=1e-12, abs=0.0)


_S3 = sine(Torus(1, 1.0, 64), 3)


def _random_fields():
    """Seeded real and complex fields on a 1-d and a 2-d torus, by name."""
    rng = np.random.default_rng(2)
    out = {}
    for d, n in ((1, 64), (2, 16)):
        t = Torus(d, 1.0, n)
        shape = t.coeff_shape()
        out[f"real-{d}d"] = _real_coefficients(rng, t)
        out[f"complex-{d}d"] = SpectralFunction(t, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return out


_RANDOM_FIELDS = _random_fields()


def _two_mode_field(torus, v, real):
    """c_{+-2} = v (real), or c_2 = v and c_{-3} = -v/2 (complex), on the
    last axis through mode 0."""
    c = np.zeros(torus.coeff_shape(), dtype=complex)
    m = torus.mode_max
    row = c[(m,) * (torus.dimension - 1)]
    row[m + 2] = v
    if real:
        row[m - 2] = v
    else:
        row[m - 3] = -v / 2
    return SpectralFunction(torus, c)


class TestFarFromUnitMagnitude:
    """Norms of fields whose kept sum of squares or p-th powers leave the
    float range: lp_norm's entry rescales a field outside its route's range
    by 2**+-600, and the 16x rule divides a power of two near the largest
    modulus out of p-th powers that would leave it."""

    @pytest.mark.parametrize(
        "factor,p",
        [(1e155, 2), (1e-170, 2), (1e4, 100), (1e-4, 100), (1e-120, 3), (1e200, 1)],
    )
    def test_defects_of_the_sine(self, factor, p):
        # inf, 0, inf with an overflow warning, 0, 0 and an overflow warning
        # in the p = 1 rule's quadratic before the scaling
        assert lp_norm(_S3 * factor, p) == pytest.approx(factor * lp_norm(_S3, p), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k", [500, -500, 600, -600])
    @pytest.mark.parametrize("p", [1, 2, 3, 100, "inf"])
    @pytest.mark.parametrize("name", sorted(_RANDOM_FIELDS))
    def test_homogeneity(self, name, p, k):
        f = _RANDOM_FIELDS[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lp_norm(f * 2.0**k, p)
        assert got == pytest.approx(2.0**k * lp_norm(f, p), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k", [1023, -1030, -1070])
    @pytest.mark.parametrize("p", [1, 2, 3, 100, "inf"])
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_two_modes_at_the_ends_of_the_float_range(self, d, real, p, k):
        t = Torus(d, 1.0, 64 if d == 1 else 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = 2.0**k * lp_norm(_two_mode_field(t, 1.0, real), p)
            got = lp_norm(_two_mode_field(t, 2.0**k, real), p)
        # past the float range only the real sup at k = 1023: 2**1024
        assert math.isinf(want) == (real and p == "inf" and k == 1023)
        if math.isinf(want):
            assert got == math.inf
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_normal_sums_keep_the_one_read(self, monkeypatch):
        # a kept sum that is a normal float is the p = 2 norm, with no pass
        # and no rescale; a subnormal one is rescaled by the one multiply
        fields = (_S3, _S3 * 1e150, _S3 * 1e-150)
        tiny = _S3 * 1e-160
        assert 0.0 < tiny._sum_sq < sys.float_info.min
        factors = []
        mul = SpectralFunction.__mul__
        monkeypatch.setattr(SpectralFunction, "__mul__", lambda f, s: factors.append(s) or mul(f, s))
        for f in fields:
            assert lp_norm(f, 2) == math.sqrt(f._sum_sq)
        assert factors == []
        assert lp_norm(tiny, 2) == pytest.approx(1e-160 * lp_norm(_S3, 2), rel=1e-12, abs=0.0)
        assert factors == [2.0**600]


class TestSymmetricPairing:
    """An exactly symmetric g pairs by one vdot over the box of its band; any
    other g by the flipped dot over the same box."""

    @staticmethod
    def _flipped(f, g, band=None):
        """The flipped dot over the modes -band..band per axis (all by default)."""
        box = spectral._central(f.torus, f.torus.mode_max if band is None else band)
        total = np.dot(f.coefficients[box].ravel(), g.coefficients[box].ravel()[::-1])
        return complex(total * f.torus.length**f.torus.dimension)

    @pytest.mark.parametrize(
        "d,n,strided,band",
        [
            # g of full band: ids without a band
            pytest.param(1, 64, False, None, id="1-64-False"),
            pytest.param(1, 4096, False, None, id="1-4096-False"),
            pytest.param(2, 16, False, None, id="2-16-False"),
            pytest.param(2, 16, True, None, id="2-16-True"),
            (1, 64, False, 0),
            (1, 4096, False, 60),
            (2, 16, False, 3),
            (2, 16, True, 3),
        ],
    )
    def test_vdot_is_the_flipped_dot(self, monkeypatch, d, n, strided, band):
        rng = np.random.default_rng(10 * d + strided)
        t = Torus(d, 1.7, n)
        shape = t.coeff_shape()
        f = SpectralFunction(t, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        # the strided g is the band restriction of a 2-d field on twice the grid
        source = Torus(d, t.length, 2 * n) if strided else t
        big = source.coeff_shape()
        wide = rng.standard_normal(big) + 1j * rng.standard_normal(big)
        if band is not None:  # g is band-limited: 0 outside its modes -band..band
            inside = np.zeros(big, dtype=complex)
            box = spectral._central(source, band)
            inside[box] = wide[box]
            wide = inside
        g = SpectralFunction(source, _symmetric_part(wide))
        if strided:
            g = spectral._band_restrict(g, t)
        assert g.torus == t and g.coefficients.flags.c_contiguous != strided
        b = t.mode_max if band is None else band
        assert g._band == b
        as_complex = g._derived(g.coefficients, real=False)
        calls = []
        vdot = np.vdot

        def spy(a, b_):
            calls.append(np.shares_memory(a, g.coefficients) and a.shape == (2 * b + 1,) * d)
            return vdot(a, b_)

        monkeypatch.setattr(np, "vdot", spy)
        got = pairing(f, g)
        assert calls == [True]
        # the same g kept complex takes the flipped dot over the same box: bitwise equal
        assert pairing(f, as_complex) == got
        assert calls == [True]
        terms = np.abs(f.coefficients * np.flip(g.coefficients))
        size = np.sum(terms) * t.length**d
        assert abs(got - self._flipped(f, g, b)) <= 1e-15 * size
        # the full-array dot adds only zeros: equal up to the rounding of the
        # (2b+1)^d terms' sum in another order
        assert abs(got - self._flipped(f, g)) <= (2 * b + 1) ** d * np.finfo(float).eps * size

    @pytest.mark.parametrize("d,n", [(1, 64), (2, 16)])
    def test_asymmetric_g_takes_the_flipped_dot(self, monkeypatch, d, n):
        rng = np.random.default_rng(d)
        t = Torus(d, 1.7, n)
        shape = t.coeff_shape()
        f, g = (
            SpectralFunction(t, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            for _ in "fg"
        )
        # an asymmetry of 2e-9, just past the entry tolerance, stays complex
        barely = SpectralFunction(t, _symmetric_part(g.coefficients) + 1e-9j)
        assert not g.is_real() and not barely.is_real()
        monkeypatch.setattr(np, "vdot", lambda a, b: pytest.fail("vdot on an asymmetric g"))
        for h in (g, barely):
            assert pairing(f, h) == self._flipped(f, h)

    def test_battery_bumps_are_exactly_symmetric(self, torus4k):
        assert all(rho.is_real() for _, rho in bump_battery(torus4k))
