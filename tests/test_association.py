import math

import numpy as np
import pytest

from besovlab.association import (
    association_verdict,
    holder_bound,
    pairing_profile,
    bump_battery,
)
from besovlab.besov import default_grid, detect_regularity, embed
from besovlab.errors import InvalidParameter
from besovlab.nets import classify_negligible, function_net, perturbed_net
from besovlab.scales import ScaleGrid, critical_exponent
from besovlab.signals import bump, dirac, heaviside, kink, sine
from besovlab.spectral import Torus, localize, pairing


@pytest.fixture(scope="module")
def setup(torus4k, pair32):
    phi = pair32[0]
    grid = default_grid(torus4k, phi, y_max=0.5, count=32)
    battery = bump_battery(torus4k, count=16, seed=7)
    return torus4k, phi, grid, battery


class TestBattery:
    def test_seeded_reproducibility(self, torus4k):
        a = bump_battery(torus4k, seed=7)
        b = bump_battery(torus4k, seed=7)
        assert [x[0] for x in a] == [x[0] for x in b]
        assert len(a) == 16

    def test_different_seed_differs(self, torus4k):
        a = bump_battery(torus4k, seed=7)
        b = bump_battery(torus4k, seed=8)
        assert [x[0] for x in a] != [x[0] for x in b]


class TestPairingProfile:
    def test_embedding_net_hits_sentinel(self, setup):
        torus, phi, grid, battery = setup
        T = heaviside(torus)
        prof = pairing_profile(T, embed(T, phi, grid), battery[0][1], grid)
        fit = critical_exponent(prof)
        assert fit.is_sentinel

    def test_linear_perturbation_slope(self, setup):
        torus, phi, grid, battery = setup
        T = heaviside(torus)
        g = sine(torus, 5)
        rho = battery[0][1]
        assert abs(pairing(g, rho)) > 1e-12
        net = perturbed_net(embed(T, phi, grid), g, lambda e: e)
        fit = critical_exponent(pairing_profile(T, net, rho, grid))
        assert fit.slope == pytest.approx(1.0, abs=0.05)

    def test_rapid_perturbation_sentinel(self, setup):
        torus, phi, grid, battery = setup
        T = heaviside(torus)
        g = sine(torus, 5)
        net = perturbed_net(embed(T, phi, grid), g, lambda e: math.exp(-1.0 / e))
        fit = critical_exponent(pairing_profile(T, net, battery[0][1], grid))
        assert fit.is_sentinel


class TestAssociationVerdict:
    def test_embedding_is_rapid(self, setup):
        torus, phi, grid, battery = setup
        for T in (dirac(torus), heaviside(torus), kink(torus)):
            rep = association_verdict(T, embed(T, phi, grid), battery, 2, grid, seed=7)
            assert rep.verdict == "rapid"
            assert math.isinf(rep.b_hat)

    @pytest.mark.parametrize("b", [1.0, 2.0, 3.0])
    def test_power_perturbation_recovers_rate(self, setup, b):
        torus, phi, grid, battery = setup
        T = heaviside(torus)
        g = sine(torus, 5)
        net = perturbed_net(embed(T, phi, grid), g, lambda e: e**b)
        rep = association_verdict(T, net, battery, 2, grid, seed=7)
        assert rep.verdict == "strong"
        assert rep.b_hat == pytest.approx(b, abs=0.05)

    def test_non_decaying_perturbation_is_none(self, setup):
        torus, phi, grid, battery = setup
        T = heaviside(torus)
        g = sine(torus, 5)
        net = perturbed_net(embed(T, phi, grid), g, lambda e: 1.0)
        rep = association_verdict(T, net, battery, 2, grid, seed=7)
        assert rep.verdict == "none"

    def test_empty_battery_rejected(self, setup):
        torus, phi, grid, _ = setup
        with pytest.raises(InvalidParameter):
            association_verdict(dirac(torus), embed(dirac(torus), phi, grid), [], 2, grid)

    def test_representative_independence(self, setup):
        # adding a negligible net must not change the verdict
        torus, phi, grid, battery = setup
        T = heaviside(torus)
        g = sine(torus, 5)
        for amp, want in [(lambda e: e**2, "strong"), (None, "rapid")]:
            base = embed(T, phi, grid)
            if amp is not None:
                base = perturbed_net(base, g, amp)
            noisy = perturbed_net(base, sine(torus, 9), lambda e: math.exp(-1.0 / e))
            rep0 = association_verdict(T, base, battery, 2, grid, seed=7)
            rep1 = association_verdict(T, noisy, battery, 2, grid, seed=7)
            assert rep0.verdict == want
            assert rep1.verdict == want

    def test_rapid_implies_negligible_difference(self, setup):
        torus, phi, grid, battery = setup
        T = heaviside(torus)
        g = sine(torus, 9)
        net_a = embed(T, phi, grid)
        net_b = perturbed_net(net_a, g, lambda e: math.exp(-1.0 / e))
        rep = association_verdict(T, net_b, battery, 2, grid, seed=7)
        assert rep.verdict == "rapid"
        eps_grid = ScaleGrid(grid.y_min * 1.001, grid.y_max, grid.count)
        diff = net_a.minus(net_b)
        for window in (None, bump(torus, 0.3, 0.1), bump(torus, 0.7, 0.08)):
            # a localized net is the net of localized fields
            net = diff if window is None else function_net(lambda e: localize(diff(e), window), diff.eps_min)
            assert classify_negligible(net, 2, eps_grid=eps_grid).negligible


class TestSupportPreservationDecay:
    def test_far_pairing_decays_superpolynomially(self, setup):
        torus, phi, grid, battery = setup
        rho = bump(torus, center=0.5, halfwidth=0.05)
        for T in (dirac(torus), heaviside(torus)):
            prof = pairing_profile(T, embed(T, phi, grid), rho, grid)
            fit = critical_exponent(prof)
            assert fit.is_sentinel or fit.slope > 8.0

    def test_mollified_mass_far_from_support(self, setup):
        # <T * phi_eps, rho> for T = delta at 0 and rho supported far away
        torus, phi, grid, _ = setup
        rho = bump(torus, center=0.5, halfwidth=0.05)
        net = embed(dirac(torus), phi, grid)
        vals = np.asarray(
            [abs(pairing(net(e), rho)) for e in grid.values()]
        )
        from besovlab.scales import ScaleProfile

        fit = critical_exponent(ScaleProfile(grid, vals))
        assert fit.is_sentinel or fit.slope > 8.0


class TestHolderBound:
    def test_reference_value(self):
        assert holder_bound(1, 1, 2, 1, 0) == pytest.approx(1.5, abs=1e-15)

    def test_limit_large_b(self):
        assert holder_bound(1.0, 1e9, 2, 1, 0) == pytest.approx(0.0, abs=1e-8)

    def test_simple_arithmetic(self):
        assert holder_bound(2, 2, 0, 1, 0) == pytest.approx(0.5)

    def test_monotonicity(self):
        for s in (0.5, 1.0, 2.0):
            vals = [holder_bound(s, b, 2, 1, 0) for b in (0.5, 1.0, 2.0, 4.0)]
            assert all(a > b for a, b in zip(vals, vals[1:]))
        for b in (0.5, 1.0, 2.0):
            vals = [holder_bound(s, b, 2, 1, 0) for s in (0.5, 1.0, 2.0, 4.0)]
            assert all(a < b2 for a, b2 in zip(vals, vals[1:]))

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameter):
            holder_bound(0.0, 1, 2, 1, 0)
        with pytest.raises(InvalidParameter):
            holder_bound(1, -1, 2, 1, 0)
        with pytest.raises(InvalidParameter):
            holder_bound(1, 1, -2, 1, 0)

    @pytest.mark.parametrize(
        "args",
        [
            (1, 1, np.nan),  # k not a number: was nan
            (np.inf, 1, 2),  # infinite s: was nan
            (1, np.inf, 2),
            (np.nan, 1, 2),
            (1, np.nan, 2),
            ("1", 1, 2),
            (1, 1, 1.5),  # non-integer k: was 1.25
            (1, 1, 2, 1, 0.5),  # non-integer k0
            (1, 1, 2, 1, -1),
            (1, 1, 2, 3),  # d outside {1, 2}, as Torus
            (1, 1, 2, 0),
            (1, 1, 2, 1.5),
        ],
        ids=repr,
    )
    def test_malformed_input_raises(self, args):
        with pytest.raises(InvalidParameter):
            holder_bound(*args)

    def test_integral_float_orders_and_2d(self):
        assert holder_bound(1, 1, 2.0, 2, 1.0) == holder_bound(1, 1, 2, 2, 1) == 2.5

    def test_detector_consistency_on_zygmund_member(self, torus4k, pair32):
        # for the kink (exponent 1) the k = 1 net profile stays bounded, so
        # the Zygmund-criterion conclusion (smoothness up to k) must not
        # contradict the detector's estimate
        T = kink(torus4k)
        rep = detect_regularity(T, "inf", "inf", "auto", pair32)
        grid = default_grid(torus4k, pair32[0])
        from besovlab.nets import net_sobolev_profile

        prof = net_sobolev_profile(embed(T, pair32[0], grid), 1, "inf", eps_grid=grid)
        fit = critical_exponent(prof)
        assert fit.slope > -0.1  # bounded k=1 profile: membership for all s > 0
        assert rep.r_hat >= 1.0 - 0.1
