import math

import numpy as np
import pytest

from besovlab import nets
from besovlab.besov import embed
from besovlab.errors import InvalidParameter
from besovlab.kernels import build_lp_pair
from besovlab.nets import (
    CLASSIFY_N_MAX,
    ModerateVerdict,
    NegligibleVerdict,
    NetSpec,
    SpikeNet,
    classify_moderate,
    classify_negligible,
    constant_net,
    function_net,
    net_sobolev_profile,
    perturbed_net,
    spike_integral,
)
from besovlab.scales import ScaleGrid, convergence_verdict, critical_exponent
from besovlab.signals import bump, dirac, heaviside, sine
from besovlab.spectral import Torus, localize
from oracles import direct_mode_sum, periodized_kernel_samples, spike_value_scan


def spike_term_oracle(variant, q_net, power, s, q_test, n):
    """Per-spike log-term recomputed from the published spike formulas."""
    n = np.asarray(n, dtype=float)
    if variant == "remark1":
        log_h = n / q_net - 2.0 * np.log(n)
    else:
        log_h = n / q_net - np.sqrt(n)
    return math.log(2.0) + q_test * power * log_h - n + (1.0 - q_test * s) * np.log(n)


class TestSpikeNetGeometry:
    def test_plateau_and_ramp_values(self):
        net = SpikeNet(q=2.0, variant="remark1")
        n = 6
        c, w = 1.0 / n, math.exp(-n)
        h = n**-2 * math.exp(n / 2.0)
        assert net.value(c) == pytest.approx(h, rel=1e-12)
        assert net.value(c + w / 2.0) == pytest.approx(h, rel=1e-12)
        assert net.value(c + 0.75 * w) == pytest.approx(h / 2.0, rel=1e-12)
        assert net.value(c + w) <= 1e-12 * h  # float-boundary of the ramp
        assert net.value(c + 3.0 * w) == 0.0  # between spikes

    def test_remark2_heights(self):
        net = SpikeNet(q=1.0, variant="remark2")
        n = 9
        assert net.value(1.0 / n) == pytest.approx(math.exp(n - 3.0), rel=1e-12)

    def test_square_doubles_log_heights(self):
        net = SpikeNet(q=2.0, variant="remark1")
        sq = net.squared()
        assert sq.log_height(10) == pytest.approx(2.0 * net.log_height(10))

    def test_continuity_as_net(self):
        net = SpikeNet(q=2.0).as_net()
        assert net(0.5) == 0.0

    def test_q_parsed(self):
        assert SpikeNet(q="2") == SpikeNet(q=2.0)
        assert SpikeNet(q="inf").q == SpikeNet(q=None).q == math.inf
        for bad in (0.5, "two", [2]):
            with pytest.raises(InvalidParameter, match="q must be"):
                SpikeNet(q=bad)

    def test_power_parsed(self):
        assert SpikeNet(q=1, power=True).as_net().label == "spike-remark1(q=1)^1"
        net = SpikeNet(q=2.0, power=np.int64(2))
        assert type(net.power) is int and net.power == 2
        assert net.squared().power == 4 and type(net.squared().power) is int

    def test_rejects_unknown_variant(self):
        with pytest.raises(InvalidParameter):
            SpikeNet(q=2.0, variant="remark9")


class TestSpikeLookup:
    """SpikeNet.value reads the spike at n = round(1/eps); a scan over every
    spike is the reference, compared bitwise."""

    _RNG_EPS = np.random.default_rng(7).uniform(0.0, 1.0, 20_000)
    # 61 points across +-1.5 w_n of every spike, and of its neighbours n = 3, 121..124
    _NEAR_EPS = np.concatenate(
        [1.0 / n + np.linspace(-1.5, 1.5, 61) * math.exp(-n) for n in range(3, 125)]
    )
    _EDGE_EPS = [0.0, -0.0, -0.25, 5e-324, 1e-300, 2.0, math.inf, -math.inf]

    @pytest.mark.parametrize("variant", ["remark1", "remark2"])
    @pytest.mark.parametrize("power", [1, 2, 3])
    def test_lookup_is_the_scan(self, variant, power):
        net = SpikeNet(q=2.0, variant=variant, power=power)
        eps = [*self._NEAR_EPS.tolist(), *self._RNG_EPS.tolist(), *self._EDGE_EPS]
        got = np.array([net.value(e) for e in eps])
        want = np.array([spike_value_scan(net, e) for e in eps])
        np.testing.assert_array_equal(got, want)
        assert np.count_nonzero(got) > 61 * 117 // 2  # the spikes were hit

    def test_nan_raises(self):
        with pytest.raises(InvalidParameter, match="spike eps"):
            SpikeNet(q=2.0).value(math.nan)


class TestSpikeIntegral:
    def test_remark1_log_terms_match_oracle(self):
        net = SpikeNet(q=2.0, variant="remark1")
        n = np.arange(4, 121, dtype=float)
        terms = nets._spike_terms(net, 2.0, n)(0.5)
        np.testing.assert_allclose(
            terms, spike_term_oracle("remark1", 2.0, 1, 0.5, 2.0, n), rtol=1e-12
        )

    def test_remark1_finite_at_own_q(self):
        # terms ~ n^{1-2q}: summable at s = 0 for q = 2
        res = spike_integral(SpikeNet(q=2.0), 0.0, 2.0)
        assert res.finite
        assert res.tail_slope == pytest.approx(-3.0, abs=0.05)

    def test_remark1_harmonic_edge_divergent(self):
        # q = 1, s = 0 gives the harmonic series: divergent
        res = spike_integral(SpikeNet(q=1.0), 0.0, 1.0)
        assert not res.finite
        assert res.tail_slope == pytest.approx(-1.0, abs=0.05)

    def test_squared_remark1_grows_without_ratio_decay(self):
        sq = SpikeNet(q=2.0).squared()
        for s in (0.0, 5.0, 10.0):
            res = spike_integral(sq, s, 2.0, n_max=120)
            assert not res.finite
            assert res.growing
            assert res.last_ratio > 1e-3

    def test_remark2_all_rates_at_own_q(self):
        net = SpikeNet(q=2.0, variant="remark2")
        for s in (-10.0, -3.0, 0.0, 10.0):
            assert spike_integral(net, s, 2.0, n_max=CLASSIFY_N_MAX).finite

    def test_remark2_divergent_at_doubled_q(self):
        net = SpikeNet(q=2.0, variant="remark2")
        for s in (-10.0, 0.0, 10.0):
            res = spike_integral(net, s, 4.0, n_max=CLASSIFY_N_MAX)
            assert not res.finite


class TestSpikeVerdicts:
    """The classifiers read the divergence rule of spike_integral at its eleven spikes."""

    @pytest.mark.parametrize("variant", ["remark1", "remark2"])
    @pytest.mark.parametrize("power", [1, 2])
    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, 4.0])
    def test_verdicts_equal_spike_integral(self, variant, power, q):
        net = SpikeNet(q=q, variant=variant, power=power)
        for q_test in (1.0, 1.5, 2.0, 3.0, 4.0):
            converges = nets._convergence_test(net, q_test, 0, "inf", None)
            for s in range(-10, 11):
                assert converges(s) == spike_integral(net, s, q_test, n_max=CLASSIFY_N_MAX).finite

    @pytest.mark.parametrize("n_max", [5, 12, 13, 14, 120, CLASSIFY_N_MAX])
    def test_rule_terms_are_the_full_terms(self, n_max):
        net = SpikeNet(q=1.5, variant="remark2", power=2)
        for s in (-10.0, 0.5, 7.0):
            n = np.arange(nets.SPIKE_N_MIN, n_max + 1, dtype=float)
            terms = nets._spike_terms(net, 3.0, n)(s)
            rule = nets._rule_spikes(n)
            np.testing.assert_array_equal(nets._spike_terms(net, 3.0, n[rule])(s), terms[rule])
            assert rule[0] == np.searchsorted(n, n[-1] / 2.0)
            assert list(rule[1:]) == list(range(n.size))[-10:]

    def test_classification_sums_no_partial_sums(self, monkeypatch):
        monkeypatch.setattr(nets, "spike_integral", lambda *a, **k: pytest.fail("full spike sum"))
        assert classify_moderate(SpikeNet(q=2.0), 2.0) == ModerateVerdict(True, 0)
        assert classify_negligible(SpikeNet(q=2.0, variant="remark2"), 2.0).negligible


class TestSpikeExponents:
    # the spike sums are built from height^q x width terms: q must be finite
    @pytest.mark.parametrize("q", ["inf", None, math.inf])
    def test_infinite_q_rejected(self, q):
        net = SpikeNet(q=2.0)
        for call in (
            lambda: spike_integral(net, 0.0, q),
            lambda: classify_moderate(net, q),
            lambda: classify_negligible(net, q),
        ):
            with pytest.raises(InvalidParameter, match="finite q"):
                call()

    @pytest.mark.parametrize("q", [0, 0.5, "two"])
    def test_invalid_q_rejected(self, q):
        with pytest.raises(InvalidParameter, match="q must be"):
            spike_integral(SpikeNet(q=2.0), 0.0, q)
        with pytest.raises(InvalidParameter, match="q must be"):
            classify_moderate(SpikeNet(q=2.0), q)

    def test_string_q_reads_as_number(self):
        net = SpikeNet(q=2.0)
        assert spike_integral(net, 0.0, "2") == spike_integral(net, 0.0, 2.0)
        assert classify_moderate(net, "2") == classify_moderate(net, 2.0)


class TestClassifyModerate:
    def test_unit_constant_net(self):
        one = constant_net(lambda e: 1.0, label="one")
        v = classify_moderate(one, 2)
        assert v.moderate and v.s_star == 1

    @pytest.mark.parametrize("q,s_star", [(1.0, 1), (2.0, 0), (4.0, -1)])
    def test_remark1_net_moderate(self, q, s_star):
        v = classify_moderate(SpikeNet(q=q), q)
        assert v.moderate
        assert v.s_star == s_star

    @pytest.mark.parametrize("q", [1.0, 2.0, 4.0])
    def test_remark1_square_not_moderate(self, q):
        assert not classify_moderate(SpikeNet(q=q).squared(), q).moderate

    def test_embedding_net_moderate(self, torus1k, pair32):
        net = embed(dirac(torus1k), pair32[0], ScaleGrid(0.01, 1.0, 48))
        v = classify_moderate(net, 2, k=0, p="inf", eps_grid=ScaleGrid(0.013, 1.0, 48))
        assert v.moderate
        assert v.s_star == 2  # profile ~ eps^-1

    def test_exploding_net_not_moderate(self):
        angry = constant_net(
            lambda e: math.exp(1.0 / e) if e > 1e-3 else math.inf,
            label="exp(1/e)",
            log_magnitude=lambda e: 1.0 / e,
        )
        assert not classify_moderate(angry, 2).moderate


class TestDefaultScaleGrid:
    def test_embedded_net_evaluated_above_its_eps_min(self, torus1k, pair32):
        # the net's eps_min (about 0.0124) lies above the fixed grid's 1e-4
        net = embed(heaviside(torus1k), pair32[0])
        assert classify_moderate(net, 2) == ModerateVerdict(True, 1)
        assert classify_negligible(net, 2) == NegligibleVerdict(False, -10)
        profile = net_sobolev_profile(net, 0, "inf")
        assert profile.grid == ScaleGrid(1.05 * net.eps_min, 1.0, 64)

    def test_nets_without_eps_min_keep_the_fixed_grid(self, torus1k):
        net = function_net(lambda e: sine(torus1k, 3), label="sine")
        assert net_sobolev_profile(net, 0, "inf").grid == ScaleGrid(1e-4, 1.0, 64)


class TestOneFitPerProfile:
    def test_each_classifier_fits_its_profile_once(self, torus1k, pair32, monkeypatch):
        fits = []

        def counting(profile):
            fits.append(profile)
            return critical_exponent(profile)

        monkeypatch.setattr(nets, "critical_exponent", counting)
        net = embed(dirac(torus1k), pair32[0], ScaleGrid(0.01, 1.0, 48))
        grid = ScaleGrid(0.013, 1.0, 48)
        v = classify_moderate(net, 2, k=0, p="inf", eps_grid=grid)
        assert len(fits) == 1
        # the verdict of convergence_verdict, refitted at every s
        profile = net_sobolev_profile(net, 0, "inf", eps_grid=grid)
        scan = [convergence_verdict(profile, -s, 2) == "convergent" for s in range(-10, 11)]
        assert v == ModerateVerdict(True, scan.index(True) - 10)
        fits.clear()
        assert classify_negligible(net, 2, eps_grid=grid) == NegligibleVerdict(False, -10)
        assert len(fits) == 1


class TestClassifyNegligible:
    def test_rapidly_vanishing_net(self):
        tiny = constant_net(lambda e: math.exp(-1.0 / e), label="exp(-1/e)")
        assert classify_negligible(tiny, 2).negligible

    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_remark2_negligible_at_own_q(self, q):
        assert classify_negligible(SpikeNet(q=q, variant="remark2"), q).negligible

    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_remark2_not_negligible_at_doubled_q(self, q):
        v = classify_negligible(SpikeNet(q=q, variant="remark2"), 2 * q)
        assert not v.negligible
        assert v.s_fail is not None

    def test_superpolynomial_growth_not_negligible(self):
        # a net moderate at no s is negligible at none; the scan used to fit
        # a profile too steep to resolve and raise DegenerateProfile
        wild = constant_net(lambda e: math.exp(1.0 / math.sqrt(e)), label="exp(e^-1/2)")
        assert not classify_moderate(wild, 2).moderate
        assert classify_negligible(wild, 2) == NegligibleVerdict(False, -10)

    def test_constant_one_not_negligible(self):
        one = constant_net(lambda e: 1.0, label="one")
        v = classify_negligible(one, 2)
        assert not v.negligible

    def test_inclusion_direction(self):
        # negligible at q' stays negligible at every q <= q'
        battery = [
            SpikeNet(q=2.0, variant="remark2"),
            constant_net(lambda e: math.exp(-1.0 / e), label="exp(-1/e)"),
        ]
        for net in battery:
            if classify_negligible(net, 2.0).negligible:
                assert classify_negligible(net, 1.0).negligible


def _closed_form_net(log_magnitude, label):
    """A constant net classified from its closed-form magnitude alone."""

    def unsampled(eps):
        raise AssertionError(f"{label} sampled at eps={eps}")

    return constant_net(unsampled, label=label, log_magnitude=log_magnitude)


class TestClosedFormClassification:
    def test_rapidly_vanishing_net_negligible(self):
        net = _closed_form_net(lambda e: -1.0 / e, "exp(-1/e)")
        assert classify_negligible(net, 2) == NegligibleVerdict(True)

    def test_power_decay_fails_at_the_most_negative_s(self):
        net = _closed_form_net(lambda e: 3.0 * math.log(e), "e^3")
        assert classify_negligible(net, 2) == NegligibleVerdict(False, -10)

    def test_power_growth_moderate(self):
        net = _closed_form_net(lambda e: -2.0 * math.log(e), "e^-2")
        assert classify_moderate(net, 2) == ModerateVerdict(True, 3)

    def test_sup_norm_verdict_matches_sampled_net(self):
        # sup of eps^(s-2) is finite iff s >= 2; the integral needs s > 2
        net = _closed_form_net(lambda e: -2.0 * math.log(e), "e^-2")
        sampled = constant_net(lambda e: e**-2.0, label="e^-2")
        assert classify_moderate(net, "inf") == ModerateVerdict(True, 2)
        assert classify_moderate(sampled, "inf") == ModerateVerdict(True, 2)


class TestUnrepresentableNets:
    """Nets moderate at no s, refused before any exponent is fitted."""

    @pytest.mark.parametrize(
        "net",
        [
            # math.exp overflows below eps = 1/709.8, inside the default grid
            constant_net(lambda e: math.exp(1.0 / e), label="exp(1/e)"),
            constant_net(lambda e: math.inf, label="inf"),
            constant_net(lambda e: 1.0, label="log inf", log_magnitude=lambda e: math.inf),
        ],
        ids=["overflowing magnitude", "infinite magnitude", "infinite closed form"],
    )
    def test_neither_moderate_nor_negligible(self, net):
        assert classify_moderate(net, 2) == ModerateVerdict(False)
        assert classify_negligible(net, 2) == NegligibleVerdict(False, -nets.S_CAP)

    def test_verdicts_read_as_text(self):
        assert str(ModerateVerdict(True, 3)) == "moderate(s*=3)"
        assert str(ModerateVerdict(False)) == "not-moderate"
        assert str(NegligibleVerdict(True)) == "negligible"
        assert str(NegligibleVerdict(False, -10)) == "not-negligible(s_fail=-10)"


class TestModuleStructure:
    def test_moderate_times_moderate_constant(self, torus1k, pair32):
        grid = ScaleGrid(0.013, 1.0, 32)
        a = embed(heaviside(torus1k), pair32[0], grid)
        c = constant_net(lambda e: 1.0 + 1.0 / math.sqrt(e), label="1+e^-1/2")
        assert classify_moderate(a, 2, eps_grid=grid).moderate
        assert classify_moderate(c, 2).moderate
        assert classify_moderate(a.scaled_by(c), 2, eps_grid=grid).moderate

    def test_negligible_times_moderate_constant(self, torus1k):
        g = sine(torus1k, 3)
        neg = function_net(lambda e: math.exp(-1.0 / e) * g, label="tiny*g")
        c = constant_net(lambda e: 1.0 + 1.0 / e, label="1+1/e")
        grid = ScaleGrid(0.013, 1.0, 32)
        assert classify_negligible(neg, 2, eps_grid=grid).negligible
        assert classify_negligible(neg.scaled_by(c), 2, eps_grid=grid).negligible

    def test_non_algebra_witness(self):
        net = SpikeNet(q=2.0)
        assert classify_moderate(net, 2.0).moderate
        assert not classify_moderate(net.squared(), 2.0).moderate


class TestNetSobolevProfile:
    def test_dirac_net_growth(self, torus1k, pair32):
        grid = ScaleGrid(0.013, 1.0, 32)
        net = embed(dirac(torus1k), pair32[0], grid)
        prof = net_sobolev_profile(net, 0, "inf", eps_grid=grid)
        fit = critical_exponent(prof)
        assert fit.slope == pytest.approx(-1.0, abs=0.05)

    def test_smooth_net_bounded(self, torus1k, pair32):
        grid = ScaleGrid(0.013, 1.0, 32)
        net = embed(sine(torus1k, 2), pair32[0], grid)
        for k in (0, 2):
            prof = net_sobolev_profile(net, k, 2, eps_grid=grid)
            assert prof.norms.max() / prof.norms.min() < 1.01

    def test_heaviside_gradient_l1_bounded(self, torus16k, pair32):
        grid = ScaleGrid(0.005, 0.5, 24)
        net = embed(heaviside(torus16k), pair32[0], grid)
        prof = net_sobolev_profile(net, 1, 1, eps_grid=grid)
        fit = critical_exponent(prof)
        assert abs(fit.slope) < 0.05  # ||phi_eps||_1 is scale-free

    def test_windowed_profile(self, torus1k, pair32):
        grid = ScaleGrid(0.02, 0.5, 16)
        w = bump(torus1k, center=0.5, halfwidth=0.08)
        net = embed(dirac(torus1k), pair32[0], grid)
        localized = function_net(lambda e: localize(net(e), w), net.eps_min)
        prof = net_sobolev_profile(localized, 0, "inf", eps_grid=grid)
        # the flat-top phi is band-limited, not compactly supported: at
        # eps = 0.5 the mollified Dirac is still -0.457 at x = 0.5, so the
        # windowed norms are small only at fine scales.  Check the values
        # against the space domain, sampled on the 2N-point sup grid.
        eps, half = grid.values(), grid.count // 2
        x = np.arange(2 * torus1k.grid_size) * torus1k.length / (2 * torus1k.grid_size)
        chi = direct_mode_sum(w.coefficients, torus1k.length, x).real
        for j in (0, half, grid.count - 1):
            phi_eps = periodized_kernel_samples(pair32[0], eps[j], x, torus1k.length)
            assert prof.norms[j] == pytest.approx(np.max(np.abs(chi * phi_eps)), rel=1e-3)
        # the Dirac sits at 0, far from the window: the localized net decays
        # with acceleration as eps -> 0, while the bare net grows like 1/eps
        t, b = np.log(eps), np.log(prof.norms)
        coarse = np.polyfit(t[:half], b[:half], 1)[0]
        fine = np.polyfit(t[-half:], b[-half:], 1)[0]
        assert fine > coarse + 1.0
        bare = net_sobolev_profile(net, 0, "inf", eps_grid=grid)
        assert prof.norms[-1] / bare.norms[-1] < 1e-8

    def test_rejects_constant_net(self):
        with pytest.raises(InvalidParameter):
            net_sobolev_profile(constant_net(lambda e: 1.0), 0, 2)


class TestNullDescriptionConsistency:
    def test_k0_verdicts_match_k3_verdicts(self, torus1k, pair32):
        """L^p-only negligibility tests agree with derivative-laden ones."""
        grid = ScaleGrid(0.013, 0.9, 32)
        g = sine(torus1k, 3)
        base = embed(heaviside(torus1k), pair32[0], grid)
        battery = [
            ("embed-heaviside", base),
            ("embed-dirac", embed(dirac(torus1k), pair32[0], grid)),
            ("rapid-perturb", function_net(lambda e: math.exp(-1.0 / e) * g, label="r")),
            ("poly-perturb", function_net(lambda e: (e**2) * g, label="p")),
        ]
        for name, net in battery:
            k0 = classify_negligible(net, 2, eps_grid=grid).negligible
            k3 = all(
                convergence_verdict(
                    net_sobolev_profile(net, k, "inf", eps_grid=grid), -s, 2
                )
                == "convergent"
                for k in range(4)
                for s in range(-10, 11)
            )
            assert k0 == k3, name
