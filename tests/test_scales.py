import math
import tracemalloc

import numpy as np
import pytest

from besovlab import scales, spectral
from besovlab.besov import default_grid, detect_regularity, detect_smooth, embed
from besovlab.errors import DegenerateProfile, InvalidParameter, ScaleOutOfRange
from besovlab.kernels import build_mollifier
from besovlab.nets import net_sobolev_profile
from besovlab.scales import (
    MIN_WINDOW,
    WINDOW_RESIDUAL_TOL,
    ZERO_RTOL,
    ScaleGrid,
    ScaleProfile,
    convergence_verdict,
    critical_exponent,
    q_integral,
    sweep,
    _line_fits,
)
from besovlab.signals import dirac, heaviside, kink, lacunary, sine
from besovlab.spectral import SpectralFunction, Torus, convolve_scaled, sobolev_table
from oracles import (
    antiderivative_lp,
    longest_first_window,
    power_law_q_integral,
    suffix_line_fits,
    synthetic_profile,
)


@pytest.fixture(scope="module")
def heaviside_profile(torus16k, pair32):
    _, psi = pair32
    grid = ScaleGrid(0.003, 0.1, 32)
    return sweep(heaviside(torus16k), psi, grid, k=0, p=2)


class TestScaleGrid:
    def test_geometry(self):
        g = ScaleGrid(0.01, 1.0, 17)
        y = g.values()
        assert y[0] == pytest.approx(1.0)
        assert y[-1] == pytest.approx(0.01)
        np.testing.assert_allclose(y[1:] / y[:-1], g.ratio, rtol=1e-12)

    def test_invariants(self):
        with pytest.raises(InvalidParameter):
            ScaleGrid(0.5, 0.1)  # min above max
        with pytest.raises(InvalidParameter):
            ScaleGrid(0.01, 1.0, 8)  # too few scales
        with pytest.raises(InvalidParameter):
            ScaleGrid(0.0, 1.0)
        with pytest.raises(InvalidParameter):
            ScaleGrid(0.01, 1.0, 16.5)  # not an integer count


class TestSweep:
    def test_dirac_ratio_follows_dilation(self, torus16k, pair32):
        _, psi = pair32
        grid = ScaleGrid(0.002, 0.02, 16)
        prof = sweep(dirac(torus16k), psi, grid, k=0, p=2)
        y = grid.values()
        # N(y) = c y^{-1/2}: adjacent-ratio check
        ratios = prof.norms[1:] / prof.norms[:-1]
        np.testing.assert_allclose(ratios, (y[1:] / y[:-1]) ** -0.5, rtol=1e-6)

    def test_spectral_gap_annihilates_bandlimited(self, torus1k, pair32):
        _, psi = pair32
        # sine mode 40 (frequency 80 pi): psi_y dies once y * 80pi <= eta sigma / 2
        grid = ScaleGrid(0.02, 0.25, 16)
        prof = sweep(sine(torus1k, 40), psi, grid, k=0, p=2)
        y = grid.values()
        dead = y < 8.0 / (80.0 * np.pi)
        assert np.all(prof.norms[dead] == 0.0)
        assert np.any(prof.norms[~dead] > 0.0)

    def test_heaviside_antiderivative_scaling(self, heaviside_profile, pair32):
        ref = antiderivative_lp(pair32[1], 2)
        y = heaviside_profile.grid.values()
        np.testing.assert_allclose(
            heaviside_profile.norms, np.sqrt(y) * ref, rtol=0.02
        )

    def test_scale_guard(self, torus64, moll32):
        with pytest.raises(ScaleOutOfRange):
            sweep(dirac(torus64), moll32, ScaleGrid(0.001, 0.1, 16))

    def test_metadata(self, heaviside_profile):
        assert heaviside_profile.meta["k"] == 0
        assert "lp-psi" in heaviside_profile.meta["kernel"]

    @pytest.mark.parametrize("p,read", [(None, "inf"), ("inf", "inf"), (2.0, "2"), ("1", "1")])
    def test_metadata_carries_p_as_the_reports_do(self, torus1k, pair32, p, read):
        prof = sweep(dirac(torus1k), pair32[0], ScaleGrid(0.02, 0.5, 16), k=0, p=p)
        assert prof.meta["p"] == read == detect_regularity(dirac(torus1k), p, 2, 1, pair32).p

    @pytest.mark.parametrize("p,read", [(None, "inf"), ("inf", "inf"), (2.0, "2"), ("1", "1")])
    def test_net_profile_metadata_carries_p_as_sweep_does(self, p, read):
        net = embed(heaviside(Torus(1, 1.0, 256)), build_mollifier(32.0))
        assert net_sobolev_profile(net, 0, p, eps_grid=ScaleGrid(0.05, 0.5, 16)).meta["p"] == read

    def test_too_fine_grid_gets_the_convolution_message(self, torus64, moll32):
        with pytest.raises(ScaleOutOfRange, match=r"scale .* below minimum .* for this kernel/torus"):
            sweep(dirac(torus64), moll32, ScaleGrid(0.001, 0.1, 16))


def _random_field(torus, seed=7):
    rng = np.random.default_rng(seed)
    shape = torus.coeff_shape()
    return SpectralFunction(torus, rng.normal(size=shape) + 1j * rng.normal(size=shape))


def _oracle(T, kernel, grid, k):
    """The p = 2 profile from convolutions on T's own torus."""
    convs = (convolve_scaled(T, kernel, y) for y in grid.values())
    return sobolev_table(convs, range(k + 1), 2).max(axis=1)


def _boundary_grid(kernel, torus):
    """Scales from outer_support L / (pi * 16) down to min_scale with ratio
    2^(-1/j), at least 16 of them: every j-th sits on the bound of a band
    torus, outer_support L / (pi n) for n = 16, 32, ..., N."""
    doublings = int(math.log2(torus.grid_size // 16))
    j = -(-15 // doublings)
    y_max = kernel.outer_support * torus.length / (math.pi * 16)
    return ScaleGrid(spectral.min_scale(kernel, torus), y_max, j * doublings + 1)


@pytest.fixture
def lp_torus_sizes(monkeypatch):
    """Grid sizes of the fields lp_norm is called on, in call order."""
    sizes = []
    original = spectral.lp_norm

    def spy(f, p):
        sizes.append(f.torus.grid_size)
        return original(f, p)

    monkeypatch.setattr(spectral, "lp_norm", spy)
    return sizes


class TestBandTorus:
    @pytest.mark.parametrize("which", [0, 1])  # phi, psi
    @pytest.mark.parametrize("k", [0, 3])
    @pytest.mark.parametrize("d,n", [(1, 4096), (1, 16384), (2, 128), (2, 256)])
    def test_p2_sweep_matches_full_torus(self, pair32, which, k, d, n):
        T = _random_field(Torus(d, 1.0, n))
        kernel = pair32[which]
        for grid in (default_grid(T.torus, kernel), _boundary_grid(kernel, T.torus)):
            np.testing.assert_allclose(
                sweep(T, kernel, grid, k, 2).norms, _oracle(T, kernel, grid, k), rtol=1e-13, atol=0
            )

    @pytest.mark.parametrize("d,n", [(1, 4096), (2, 128)])
    def test_band_restrict_on_each_bound(self, pair32, d, n):
        T = _random_field(Torus(d, 3.0, n))
        phi = pair32[0]
        sizes = 8 << np.arange(int(math.log2(n // 8)) + 1)
        for size in sizes:
            y = phi.outer_support * T.torus.length / (math.pi * size)
            band = spectral._band_restrict(T, spectral._band_torus(phi, T.torus, y))
            assert band.torus.grid_size == size
            m, h = n // 2, int(size) // 2
            full = convolve_scaled(T, phi, y).coefficients
            inside = (slice(m - h, m + h + 1),) * d
            np.testing.assert_array_equal(convolve_scaled(band, phi, y).coefficients, full[inside])
            outside = full.copy()
            outside[inside] = 0.0
            assert not np.any(outside)
            if size < n:  # just below the bound, the next torus up
                assert spectral._band_torus(phi, T.torus, y * (1.0 - 1e-9)).grid_size == 2 * size

    def test_fields_live_on_band_tori_only_at_p2(self, torus4k, pair32, lp_torus_sizes):
        phi = pair32[0]
        T = dirac(torus4k)
        grid = default_grid(torus4k, phi)
        sweep(T, phi, grid, 1, 2)
        want = [
            max(8, 1 << math.ceil(math.log2(phi.outer_support / (math.pi * y)))) for y in grid.values()
        ]
        assert lp_torus_sizes == [min(4096, w) for w in want for _ in range(2)]
        assert min(lp_torus_sizes) < 4096
        for p in (1, "inf"):
            lp_torus_sizes.clear()
            sweep(T, phi, grid, 1, p)
            assert lp_torus_sizes and set(lp_torus_sizes) == {4096}

    def test_detectors_use_band_tori_only_at_p2(self, torus4k, pair32, lp_torus_sizes):
        T = dirac(torus4k)
        detect_regularity(T, 2, "inf", 1, pair32)
        assert min(lp_torus_sizes) < 4096
        for p in (1, "inf"):
            lp_torus_sizes.clear()
            detect_regularity(T, p, "inf", 1, pair32)
            assert lp_torus_sizes and set(lp_torus_sizes) == {4096}
        two_d = dirac(Torus(2, 1.0, 128))
        lp_torus_sizes.clear()
        detect_regularity(two_d, "inf", "inf", 1, pair32)
        assert lp_torus_sizes and set(lp_torus_sizes) == {128}

    def test_one_restriction_per_band_torus(self, torus4k, torus16k, pair32, monkeypatch):
        phi = pair32[0]
        restricted = []
        original = scales._band_restrict

        def spy(T, band):
            restricted.append(band)
            return original(T, band)

        monkeypatch.setattr(scales, "_band_restrict", spy)
        T = dirac(torus16k)
        grid = default_grid(torus16k, phi)
        bands = {spectral._band_torus(phi, torus16k, y) for y in grid.values()}
        assert len(bands) == 8
        sweep(T, phi, grid, 1, 2)
        assert len(restricted) == 8 and set(restricted) == bands
        restricted.clear()
        detect_regularity(T, 2, "inf", 1, pair32)
        assert len(restricted) == 8 and set(restricted) == bands
        restricted.clear()
        T = dirac(torus4k)
        for p in (1, "inf"):
            sweep(T, phi, default_grid(torus4k, phi), 0, p)
            detect_regularity(T, p, "inf", 1, pair32)
        assert restricted == []

    def test_caches_hold_a_smooth_detection(self, torus16k, pair32):
        T = heaviside(torus16k)
        caches = (
            spectral._derivative_multiplier,
            spectral._radial_layout,
            spectral._distinct_radii,
            spectral._kernel_multiplier,
        )
        detect_smooth(T, 2, "inf", pair32, k_max=8)
        misses = [c.cache_info().misses for c in caches]
        detect_smooth(T, 2, "inf", pair32, k_max=8)
        assert [c.cache_info().misses for c in caches] == misses


def _translated(f, *offsets):
    """f(x - offsets), one offset per axis: coefficients with phases, unlike
    those of a Dirac at 0."""
    phases = [np.exp(-1j * f.torus.frequencies() * offset) for offset in offsets]
    phase = phases[0] if f.torus.dimension == 1 else phases[0][:, None] * phases[1][None, :]
    return SpectralFunction(f.torus, f.coefficients * phase, f.tag)


_ESCALATED = {  # field -> its builder
    "heaviside": lambda: heaviside(Torus(1, 1.0, 256)),
    "translated heaviside": lambda: _translated(heaviside(Torus(1, 1.0, 256)), 0.23),
    "complex": lambda: _random_field(Torus(1, 1.0, 256)),
    "2-d dirac": lambda: _translated(dirac(Torus(2, 1.0, 64)), 0.3, 0.3),
    # no symmetry of its own on either axis, nor under swapping them
    "2-d dirac at (0.3, 0.1)": lambda: _translated(dirac(Torus(2, 1.0, 64)), 0.3, 0.1),
}


@pytest.fixture
def convolutions(monkeypatch):
    """Scales convolved by scales._profiles, in call order."""
    scales_seen = []
    original = scales.convolve_scaled

    def spy(T, kernel, y):
        scales_seen.append(y)
        return original(T, kernel, y)

    monkeypatch.setattr(scales, "convolve_scaled", spy)
    return scales_seen


class TestKeptBoxes:
    """At p != 2 each scale's convolution is kept as the box of its nonzero
    modes, half of it for a real T, and an escalation rebuilds the fields
    from the boxes; at p = 2 the band-torus fields are kept, and an
    escalation reads them again."""

    @pytest.mark.parametrize(
        "field,p",
        [(f, p) for f in ("heaviside", "complex") for p in (1, 1.5, "inf")]
        + [("2-d dirac", "inf")]
        # real fields with phases on every axis, through the half boxes
        + [(f, p) for f in ("translated heaviside", "2-d dirac at (0.3, 0.1)") for p in (1, "inf")]
        + [(f, 2) for f in _ESCALATED],
    )
    def test_escalation_matches_a_one_shot_sweep(self, pair32, convolutions, field, p):
        T = _ESCALATED[field]()
        assert T.is_real() == (field != "complex")
        phi = pair32[0]
        grid = default_grid(T.torus, phi)
        profile_at = scales._profiles(T, phi, grid, p)
        profile_at(1)
        escalated = profile_at(3).norms
        assert len(convolutions) == grid.count  # the escalation convolved nothing
        np.testing.assert_array_equal(escalated, sweep(T, phi, grid, 3, p).norms)

    @pytest.mark.parametrize("field", ["complex at -N/2", *_ESCALATED])
    def test_an_unboxed_field_is_its_convolution(self, pair32, field):
        # real by T._derived's rule: every field of a real T is real, and a
        # complex T's are compared, so that a kernel dropping T's only
        # asymmetric mode (-N/2) gives real fields
        if field == "complex at -N/2":
            T = heaviside(Torus(1, 1.0, 256))
            T = SpectralFunction(T.torus, T.coefficients + np.eye(1, 257)[0])
        else:
            T = _ESCALATED[field]()
        assert T.is_real() == ("complex" not in field)
        phi = pair32[0]
        grid = default_grid(T.torus, phi)
        reals = []
        for (b, box), y in zip(scales._boxes(T, phi, grid), grid.values()):
            f = convolve_scaled(T, phi, y)
            box[...] = f.coefficients[scales._box_index(T.torus, b, T.is_real())]
            unboxed = scales._unbox(T, b, box)
            np.testing.assert_array_equal(unboxed.coefficients, f.coefficients)
            assert (unboxed.tag, unboxed.is_real()) == ("function", f.is_real())
            reals.append(f.is_real())
        assert set(reals) == {field != "complex"}

    @pytest.mark.parametrize("torus", [Torus(1, 1.0, 4096), Torus(2, 1.0, 64)], ids=["1-d", "2-d"])
    def test_boxes_are_a_dirac_convolutions_modes_in_one_array(self, pair32, torus):
        # every mode of a Dirac is nonzero, so each b is the tightest one; a
        # real T's box keeps the last axis's modes 0..b, a complex T's -b..b
        real = dirac(torus)
        complex_ = SpectralFunction(torus, 1j * real.coefficients)
        phi, d = pair32[0], torus.dimension
        grid = default_grid(torus, phi)
        widths = [convolve_scaled(real, phi, y).active_bandwidth(rtol=0.0) for y in grid.values()]
        for T, last in ((real, lambda b: b + 1), (complex_, lambda b: 2 * b + 1)):
            boxes = scales._boxes(T, phi, grid)
            assert [b for b, _ in boxes] == widths
            for b, box in boxes:
                assert box.shape == T.coefficients[scales._box_index(torus, b, T.is_real())].shape
                assert box.size == (2 * b + 1) ** (d - 1) * last(b)
            assert len({id(box.base) for _, box in boxes}) == 1

    def test_2d_dirac_detection_holds_boxes_not_fields(self, pair32):
        # 24 full 128^2 fields are 6.4 MB; their boxes, half of each kept
        # for a real T, 1.37 MB
        T = dirac(Torus(2, 1.0, 128))
        detect_regularity(T, "inf", "inf", 1, pair32)  # warm the caches
        tracemalloc.start()
        try:
            detect_regularity(T, "inf", "inf", 1, pair32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 2**20

    def test_smooth_detection_takes_every_order_in_one_pass(
        self, torus4k, pair32, lp_torus_sizes, convolutions, monkeypatch
    ):
        unboxed = []
        original = scales._unbox
        monkeypatch.setattr(scales, "_unbox", lambda *a: unboxed.append(a) or original(*a))
        grid = default_grid(torus4k, pair32[0])
        detect_smooth(heaviside(torus4k), 1, "inf", pair32, k_max=8)
        assert len(convolutions) == grid.count
        assert len(lp_torus_sizes) == grid.count * 9
        assert unboxed == []


def test_warm_p2_sweep_builds_no_torus(torus4k, pair32, monkeypatch):
    # the band tori are cached per (kernel, torus, y), not built per scale
    T, phi = dirac(torus4k), pair32[0]
    grid = default_grid(torus4k, phi)
    sweep(T, phi, grid, 1, 2)
    built = []
    post_init = Torus.__post_init__
    monkeypatch.setattr(Torus, "__post_init__", lambda self: built.append(self) or post_init(self))
    sweep(T, phi, grid, 1, 2)
    assert built == []


class TestQIntegral:
    def test_linear_profile_unit_integral(self):
        grid = ScaleGrid(1e-4, 1.0, 128)
        prof = synthetic_profile(grid, lambda y: y)
        assert q_integral(prof, 0.0, 1) == pytest.approx(1.0, rel=0.01)

    def test_borderline_grows_logarithmically(self):
        vals = []
        for y_min in (1e-2, 1e-4, 1e-6):
            grid = ScaleGrid(y_min, 1.0, 256)
            prof = synthetic_profile(grid, lambda y: math.sqrt(y))
            vals.append(q_integral(prof, -0.5, 2))
        np.testing.assert_allclose(vals, [math.log(1 / m) for m in (1e-2, 1e-4, 1e-6)], rtol=0.02)

    def test_sup_variant_exact(self):
        grid = ScaleGrid(1e-3, 1.0, 64)
        prof = synthetic_profile(grid, lambda y: math.sqrt(y))
        assert q_integral(prof, 0.5, "inf") == pytest.approx(1.0, abs=1e-12)
        # negative combined exponent: sup sits at the smallest scale
        got = q_integral(prof, -1.0, "inf")
        assert got == pytest.approx(1e-3 ** (-0.5), rel=1e-12)

    @pytest.mark.parametrize("q", [1, 2])
    @pytest.mark.parametrize("a", [0.3, 0.7, 1.2])
    @pytest.mark.parametrize("s", [-0.1, 0.0, 0.4])
    def test_power_law_closed_form(self, q, a, s):
        # every (a + s) q here is at least 0.2 (0.3 - 0.1 rounds just below):
        # on a 64-point grid the sum matches the analytic value
        grid = ScaleGrid(0.01, 1.0, 64)
        prof = synthetic_profile(grid, lambda y: y**a)
        want = power_law_q_integral(a, s, q, grid.y_min)
        assert q_integral(prof, s, q) == pytest.approx(want, rel=0.02)

    def test_monotone_nonincreasing_in_s(self, heaviside_profile):
        for q in (1, 2, "inf"):
            vals = [q_integral(heaviside_profile, s, q) for s in np.linspace(-0.5, 2.0, 11)]
            assert all(v1 >= v2 - 1e-12 for v1, v2 in zip(vals, vals[1:]))

    def test_rejects_bad_q(self, heaviside_profile):
        with pytest.raises(InvalidParameter):
            q_integral(heaviside_profile, 0.0, 0.5)


class TestCriticalExponent:
    def test_dirac_slope(self, torus16k, pair32):
        _, psi = pair32
        prof = sweep(dirac(torus16k), psi, ScaleGrid(0.002, 0.05, 24), k=0, p=2)
        fit = critical_exponent(prof)
        assert fit.slope == pytest.approx(-0.5, abs=0.05)

    def test_heaviside_slope(self, heaviside_profile):
        fit = critical_exponent(heaviside_profile)
        assert fit.slope == pytest.approx(0.5, abs=0.05)
        assert fit.stderr < 0.05

    def test_bandlimited_sentinel(self, torus1k, pair32):
        _, psi = pair32
        prof = sweep(sine(torus1k, 4), psi, ScaleGrid(0.02, 0.25, 16), k=0, p=2)
        fit = critical_exponent(prof)
        assert fit.is_sentinel

    def test_grid_refinement_stability(self, torus16k, pair32):
        _, psi = pair32
        T = heaviside(torus16k)
        coarse = critical_exponent(sweep(T, psi, ScaleGrid(0.004, 0.1, 24), 0, 2))
        fine = critical_exponent(sweep(T, psi, ScaleGrid(0.004, 0.1, 48), 0, 2))
        assert abs(coarse.slope - fine.slope) < max(coarse.stderr, fine.stderr, 1e-6)

    def test_wobbly_profile_uses_long_window(self, torus16k, moll32):
        # log-periodic staircase: the fit must average over many octaves
        W = lacunary(torus16k, 0.5)
        fit = critical_exponent(sweep(W, moll32, ScaleGrid(0.002, 0.25, 48), 2, "inf"))
        assert fit.points >= 40
        assert 2.0 + fit.slope == pytest.approx(0.5, abs=0.05)

    def test_degenerate_profile(self):
        grid = ScaleGrid(1e-3, 1.0, 16)
        norms = np.ones(16)
        norms[[8, 9, 10, 12, 14]] = 0.0  # >half the window underflows, not trailing
        with pytest.raises(DegenerateProfile):
            critical_exponent(ScaleProfile(grid, norms))

    def test_all_zero_profile_sentinel(self):
        grid = ScaleGrid(1e-3, 1.0, 16)
        fit = critical_exponent(ScaleProfile(grid, np.zeros(16)))
        assert fit.is_sentinel


_GRID48 = ScaleGrid(0.002, 0.25, 48)


def _interior_zeros(y):
    n = y**1.5 * (1.0 + 0.01 * np.sin(40.0 * y))
    n[[5, 17, 30, 41]] = 0.0
    return n


_SYNTHETIC = {  # profile -> norms on _GRID48
    # a wobble of 0.3 in log units over every octave: no window is clean
    "log-periodic": lambda y: y**0.5 * np.exp(0.3 * np.sin(2.0 * np.pi * np.log2(y))),
    # bent at the coarse scales: the clean window is a proper suffix
    "bent": lambda y: y ** (-1.0) * (1.0 + 8.0 * y),
    "interior zeros": _interior_zeros,
}

_SWEPT = {
    "dirac": dirac,
    "heaviside": heaviside,
    "kink": kink,
    "lacunary": lambda torus: lacunary(torus, 0.5),
}


class TestLineFits:
    @pytest.mark.parametrize("shortest", [2, 8, 48])
    def test_matches_polyfit_per_suffix(self, shortest):
        rng = np.random.default_rng(11)
        t = np.log(_GRID48.values())
        for b in (1.5 * t + 0.2 * rng.standard_normal(t.size), -3.5 * t + 2.0 + np.sin(5.0 * t)):
            got = np.array(_line_fits(t, b, shortest))
            assert got.shape == (4, t.size - shortest + 1)
            np.testing.assert_allclose(got, suffix_line_fits(t, b, shortest), rtol=0, atol=1e-12)

    @staticmethod
    def _assert_longest_first_window(profile):
        n = profile.norms
        usable = n > ZERO_RTOL * max(1.0, n.max())
        t, b = np.log(profile.grid.values()[usable]), np.log(n[usable])
        w = longest_first_window(t, b, MIN_WINDOW, WINDOW_RESIDUAL_TOL)
        slope, _, maxres, stderr = suffix_line_fits(t, b, MIN_WINDOW)[:, t.size - w]
        fit = critical_exponent(profile)
        assert fit.points == w
        assert fit.window == (np.exp(t[-1]), np.exp(t[-w]))
        assert (fit.slope, fit.stderr, fit.residual) == pytest.approx((slope, stderr, maxres), abs=1e-12)
        return fit, t.size

    @pytest.mark.parametrize("signal", sorted(_SWEPT))
    def test_window_of_the_longest_first_rule_on_sweeps(self, signal, torus16k, pair32):
        _, psi = pair32
        T = _SWEPT[signal](torus16k)
        self._assert_longest_first_window(sweep(T, psi, default_grid(torus16k, psi), k=3, p=2))

    @pytest.mark.parametrize("case", sorted(_SYNTHETIC))
    def test_window_of_the_longest_first_rule_on_synthetic_profiles(self, case):
        fit, usable = self._assert_longest_first_window(
            ScaleProfile(_GRID48, _SYNTHETIC[case](_GRID48.values()))
        )
        if case == "log-periodic":
            assert fit.points == usable and fit.residual > WINDOW_RESIDUAL_TOL
        if case == "bent":
            assert MIN_WINDOW < fit.points < usable
        if case == "interior zeros":
            assert usable == 44


class TestConvergenceVerdict:
    def test_heaviside_thresholds(self, heaviside_profile):
        assert convergence_verdict(heaviside_profile, 0.3, 2) == "convergent"
        assert convergence_verdict(heaviside_profile, 0.7, 2) == "divergent"
        assert convergence_verdict(heaviside_profile, 0.5, 2) == "borderline"

    def test_sup_verdict_includes_critical_index(self, heaviside_profile):
        assert convergence_verdict(heaviside_profile, 0.5, "inf") == "convergent"
        assert convergence_verdict(heaviside_profile, 0.7, "inf") == "divergent"

    def test_sentinel_is_convergent(self, torus1k, pair32):
        _, psi = pair32
        prof = sweep(sine(torus1k, 4), psi, ScaleGrid(0.02, 0.25, 16), k=0, p=2)
        assert convergence_verdict(prof, 25.0, 2) == "convergent"

    def test_embedding_direction(self, heaviside_profile):
        # finiteness at (s1, q1) implies finiteness at (s2, q2) for
        # s2 < s1 - margin and q2 >= q1
        qs = [1, 2, "inf"]
        for s1 in np.linspace(0.0, 1.0, 9):
            for iq, q1 in enumerate(qs):
                if convergence_verdict(heaviside_profile, s1, q1) != "convergent":
                    continue
                for s2 in (s1 - 0.2, s1 - 0.5):
                    for q2 in qs[iq:]:
                        assert (
                            convergence_verdict(heaviside_profile, s2, q2)
                            == "convergent"
                        )


class TestProfileSerialization:
    def test_dict_roundtrip(self, heaviside_profile):
        again = ScaleProfile.from_dict(heaviside_profile.to_dict())
        np.testing.assert_array_equal(again.norms, heaviside_profile.norms)
        assert again.grid == heaviside_profile.grid
        assert again.meta == heaviside_profile.meta

    @pytest.mark.parametrize("count", [24.9, "24"])
    def test_count_is_judged_by_the_grid(self, heaviside_profile, count):
        # as ScaleGrid(0.01, 1.0, count) would be: not truncated or parsed
        d = heaviside_profile.to_dict()
        d["grid"]["count"] = count
        with pytest.raises(InvalidParameter, match="scale count"):
            ScaleProfile.from_dict(d)
