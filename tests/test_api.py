"""The public surface: each module's __all__, the reports' JSON form, and the
typed errors of the argument checks."""

import importlib
import inspect
import json
import math
import pkgutil

import numpy as np
import pytest

import besovlab
from besovlab.association import AssociationReport, association_verdict, bump_battery, pairing_profile
from besovlab.besov import besov_norm, default_grid, detect_regularity, detect_smooth, embed
from besovlab.errors import BesovlabError, DegenerateProfile, InvalidParameter
from besovlab.kernels import (
    Kernel,
    build_lp_pair,
    build_mollifier,
    moment,
    verify_lp_conditions,
)
from besovlab.nets import (
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
from besovlab.scales import (
    ScaleGrid,
    ScaleProfile,
    convergence_verdict,
    critical_exponent,
    q_integral,
    sweep,
)
from besovlab.signals import bump, constant, cosine, dirac, heaviside, kink, lacunary, sine
from besovlab.spectral import (
    SpectralFunction,
    Torus,
    convolve_scaled,
    dft_analyze,
    derivative_order,
    dft_synthesize,
    localize,
    lp_norm,
    min_scale,
    pairing,
    parse_exponent,
    sobolev_norm,
    sobolev_table,
    to_jsonable,
)
from oracles import synthetic_profile

MODULES = [
    importlib.import_module(f"besovlab.{info.name}")
    for info in pkgutil.iter_modules(besovlab.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_lists_every_public_definition(module):
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{module.__name__} has no __all__"
    assert [name for name in exported if not hasattr(module, name)] == []
    defined = {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == module.__name__
    }
    assert sorted(defined - set(exported)) == []


NORM_SIGNATURES = {
    lp_norm: "(f: besovlab.spectral.SpectralFunction, p)",
    sobolev_table: "(fields, orders, p)",
    sobolev_norm: "(f: besovlab.spectral.SpectralFunction, k, p)",
}


@pytest.mark.parametrize("fn", list(NORM_SIGNATURES), ids=lambda fn: fn.__name__)
def test_norms_take_no_quadrature_options(fn):
    # the quadrature is chosen inside lp_norm; no switch or tolerance leaks out
    assert str(inspect.signature(fn)) == NORM_SIGNATURES[fn]


def _reports():
    """One report of each type, with non-finite values where they can occur."""
    torus = Torus(1, 1.0, 1024)
    pair = build_lp_pair(32.0, 0.5)
    zero = constant(torus, 0.0)  # vanishing profiles: the +inf slope sentinel
    grid = ScaleGrid(1e-3, 1.0, 32)
    return {
        "SpikeIntegral": spike_integral(SpikeNet(q=2.0), 0.0, 2.0),
        "RegularityReport": detect_regularity(heaviside(torus), "inf", "inf", "auto", pair),
        "RegularityReport-sentinel": detect_regularity(zero, "inf", "inf", "auto", pair),
        "SmoothEvidence-sentinel": detect_smooth(zero, "inf", "inf", pair, k_max=4),
        "AssociationReport-rapid": AssociationReport(
            "rapid", math.inf, "2", ["rho00"], [None], [0.0], 0.0, 7
        ),
        "ExponentFit": critical_exponent(synthetic_profile(grid, lambda y: y**0.5)),
        "ExponentFit-sentinel": critical_exponent(synthetic_profile(grid, lambda y: 0.0)),
        "LPDiagnostics": verify_lp_conditions(pair, 1.0),
        "ScaleProfile": synthetic_profile(grid, lambda y: y**0.5, {"k": 0, "p": "inf"}),
        # numpy integers where the library keeps a parsed int
        "ScaleProfile-numpy-count": synthetic_profile(
            ScaleGrid(0.01, 0.5, np.int64(32)), lambda y: y**0.5
        ),
        "ScaleProfile-numpy-k": net_sobolev_profile(
            embed(heaviside(Torus(1, 1.0, 64)), build_mollifier(32.0)),
            np.int64(1),
            2,
            eps_grid=ScaleGrid(0.2, 1.0, 16),
        ),
    }


KEYS = {
    "SpikeIntegral": {"finite", "log_value", "tail_slope", "growing", "last_ratio", "n_used"},
    "RegularityReport": {
        "r_hat", "s_hat", "k_used", "p", "q", "stderr", "window", "points", "residual",
        "verdict", "escalations", "settings",
    },
    "SmoothEvidence": {"smooth", "growth_rate", "s_hat_by_k", "k_max", "s_witness", "threshold"},
    "AssociationReport": {
        "verdict", "b_hat", "q", "rho_ids", "slopes", "stderrs", "margin", "seed",
    },
    "ExponentFit": {"slope", "sentinel", "stderr", "window", "points", "residual"},
    "LPDiagnostics": {
        "passed", "order", "sigma_witness", "eta_witness", "min_phi", "min_psi", "moments",
        "failures",
    },
    "ScaleProfile": {"grid", "norms", "meta"},
}


class TestReportSerialization:
    @pytest.fixture(scope="class")
    def reports(self):
        return _reports()

    @pytest.mark.parametrize(
        "name",
        [
            "SpikeIntegral",
            "RegularityReport",
            "RegularityReport-sentinel",
            "SmoothEvidence-sentinel",
            "AssociationReport-rapid",
            "ExponentFit",
            "ExponentFit-sentinel",
            "LPDiagnostics",
            "ScaleProfile",
            "ScaleProfile-numpy-count",
            "ScaleProfile-numpy-k",
        ],
    )
    def test_strict_json_with_the_documented_keys(self, reports, name):
        report = reports[name]
        d = report.to_dict()
        assert json.loads(json.dumps(d, allow_nan=False)) == d
        assert set(d) == KEYS[type(report).__name__]

    def test_non_finite_values_read_none(self, reports):
        rep = reports["RegularityReport-sentinel"].to_dict()
        assert (rep["r_hat"], rep["s_hat"], rep["verdict"]) == (None, None, "inconclusive")
        assert reports["SmoothEvidence-sentinel"].to_dict()["s_hat_by_k"] == [None] * 5
        assert reports["AssociationReport-rapid"].to_dict()["b_hat"] is None
        fit = reports["ExponentFit-sentinel"].to_dict()
        assert (fit["slope"], fit["sentinel"]) == (None, True)

    def test_containers_and_numpy_values(self, reports):
        profile = reports["ScaleProfile"]
        assert profile.to_dict()["grid"] == {"y_min": 1e-3, "y_max": 1.0, "count": 32}
        assert profile.to_dict()["norms"] == profile.norms.tolist()
        assert reports["LPDiagnostics"].to_dict()["moments"] == [
            [a, v] for a, v in reports["LPDiagnostics"].moments
        ]
        got = to_jsonable({"t": (1, math.inf), "a": np.array([[0.5, np.nan]]), "i": np.arange(2)})
        assert got == {"t": [1, None], "a": [[0.5, None]], "i": [0, 1]}
        assert type(got["i"][1]) is int


_T8 = Torus(1, 1.0, 8)
_G16 = ScaleGrid(0.1, 1.0, 16)
_FLAT = ScaleProfile(_G16, np.ones(16))
_ONE = constant_net(lambda e: 1.0, label="one")
_SINE = function_net(lambda e: sine(_T8), label="sine")
_PAIR = build_lp_pair(32.0, 0.5)
_PHI = _PAIR[0]
_TYPED_ERRORS = {  # case -> (error class, message fragment, call)
    "net kind": (InvalidParameter, "unknown net kind", lambda: NetSpec("x", abs)),
    "minus of a constant net": (InvalidParameter, "two function nets", lambda: _ONE.minus(_SINE)),
    "scaled_by a function net": (InvalidParameter, "constant net", lambda: _SINE.scaled_by(_SINE)),
    "profile length": (InvalidParameter, "profile length", lambda: ScaleProfile(_G16, np.ones(15))),
    "non-finite norms": (
        InvalidParameter, "finite and nonnegative", lambda: ScaleProfile(_G16, np.full(16, np.nan))
    ),
    "too few usable scales": (
        DegenerateProfile,
        "only 7 usable scales",
        lambda: critical_exponent(ScaleProfile(_G16, np.r_[np.zeros(8), 1.0, 0.0, np.ones(6)])),
    ),
    "2-d heaviside": (InvalidParameter, "one-dimensional", lambda: heaviside(Torus(2, 1.0, 8))),
    "sine mode": (InvalidParameter, r"mode must be an integer in \(0, 4\), got 4", lambda: sine(_T8, 4)),
    "cosine mode": (InvalidParameter, r"mode must be an integer in \(0, 4\), got 0", lambda: cosine(_T8, 0)),
    "lacunary exponent": (InvalidParameter, "lacunary exponent", lambda: lacunary(_T8, 1.0)),
    "2-d bump": (InvalidParameter, "bump is one-dimensional", lambda: bump(Torus(2, 1.0, 8))),
    "bump halfwidth": (InvalidParameter, "halfwidth", lambda: bump(_T8, halfwidth=0.0)),
    "pair sigma": (InvalidParameter, "sigma must be positive", lambda: build_lp_pair(0.0, 0.5)),
    "sine non-integer mode": (InvalidParameter, "mode must be an integer", lambda: sine(_T8, 1.5)),
    "cosine non-integer mode": (InvalidParameter, "mode must be an integer", lambda: cosine(_T8, 1.5)),
    "bump infinite halfwidth": (InvalidParameter, "halfwidth", lambda: bump(_T8, halfwidth=math.inf)),
    "bump center": (InvalidParameter, "center", lambda: bump(_T8, center=math.nan)),
    "q_integral nan s": (InvalidParameter, "s must be", lambda: q_integral(_FLAT, math.nan, 2)),
    "q_integral string s": (InvalidParameter, "s must be", lambda: q_integral(_FLAT, "1", 2)),
    "verdict nan s": (InvalidParameter, "s must be", lambda: convergence_verdict(_FLAT, math.nan, 2)),
    "verdict string s": (InvalidParameter, "s must be", lambda: convergence_verdict(_FLAT, "1", 2)),
    "synthesis oversample 0": (InvalidParameter, "oversample", lambda: dft_synthesize(sine(_T8), 0)),
    "synthesis oversample -1": (InvalidParameter, "oversample", lambda: dft_synthesize(sine(_T8), -1)),
    "synthesis oversample 1.5": (
        InvalidParameter, "oversample", lambda: dft_synthesize(sine(_T8), 1.5)
    ),
    "kernel infinite outer support": (
        InvalidParameter,
        "must be finite",
        lambda: Kernel(inner_support=0.0, outer_support=math.inf, plateau=(0.0, 1.0)),
    ),
    "mollifier infinite sigma": (
        InvalidParameter, "positive and finite", lambda: build_mollifier(math.inf)
    ),
    "pair infinite sigma": (
        InvalidParameter, "positive and finite", lambda: build_lp_pair(math.inf, 0.5)
    ),
    "spike nan s": (
        InvalidParameter, "s must be", lambda: spike_integral(SpikeNet(2.0), math.nan, 2.0)
    ),
    "spike n_max 3": (
        InvalidParameter, "n_max", lambda: spike_integral(SpikeNet(2.0), 0.0, 2.0, n_max=3)
    ),
    "spike n_max 4": (
        InvalidParameter, "n_max", lambda: spike_integral(SpikeNet(2.0), 0.0, 2.0, n_max=4)
    ),
    "spike nan n_max": (
        InvalidParameter, "n_max", lambda: spike_integral(SpikeNet(2.0), 0.0, 2.0, n_max=math.nan)
    ),
    "battery negative seed": (InvalidParameter, "seed", lambda: bump_battery(_T8, 1, -1)),
    "verdict string seed": (
        InvalidParameter,
        "battery seed",
        lambda: association_verdict(sine(_T8), _SINE, bump_battery(_T8, 1), 2, _G16, seed="abc"),
    ),
    "spike power 0": (InvalidParameter, "power", lambda: SpikeNet(2.0, power=0)),
    "grid oversample 2.5": (InvalidParameter, "oversample", lambda: _T8.grid(2.5)),
    "grid oversample 0": (InvalidParameter, "oversample", lambda: _T8.grid(0)),
    "active_bandwidth nan rtol": (
        InvalidParameter, "rtol", lambda: sine(_T8).active_bandwidth(math.nan)
    ),
    "active_bandwidth rtol 1": (InvalidParameter, "rtol", lambda: sine(_T8).active_bandwidth(1.0)),
    "active_bandwidth rtol -0.1": (
        InvalidParameter, "rtol", lambda: sine(_T8).active_bandwidth(-0.1)
    ),
    "spike power -1.5": (InvalidParameter, "power", lambda: SpikeNet(2.0, power=-1.5)),
    "derivative None": (InvalidParameter, "derivative order", lambda: sine(_T8).derivative(None)),
    "derivative 0-d array": (
        InvalidParameter, "derivative order", lambda: sine(_T8).derivative(np.array(1))
    ),
    "derivative object": (
        InvalidParameter, "derivative order", lambda: sine(_T8).derivative(object())
    ),
    "SpectralFunction string coefficients": (
        InvalidParameter, "complex numbers", lambda: SpectralFunction(_T8, "abc")
    ),
    "SpectralFunction object coefficients": (
        InvalidParameter, "complex numbers", lambda: SpectralFunction(_T8, np.array([object()] * 9))
    ),
    "SpectralFunction torus": (
        InvalidParameter, "torus must be a Torus", lambda: SpectralFunction("x", np.zeros(9))
    ),
    "add an int": (InvalidParameter, "operand must be a SpectralFunction", lambda: sine(_T8) + 1),
    "subtract None": (
        InvalidParameter, "operand must be a SpectralFunction", lambda: sine(_T8) - None
    ),
    "pairing with None": (
        InvalidParameter, "operand must be a SpectralFunction", lambda: pairing(sine(_T8), None)
    ),
    "localize with None": (
        InvalidParameter, "operand must be a SpectralFunction", lambda: localize(sine(_T8), None)
    ),
    "pairing with None first": (
        InvalidParameter, "operand must be a SpectralFunction", lambda: pairing(None, sine(_T8))
    ),
    "localize with None first": (
        InvalidParameter, "operand must be a SpectralFunction", lambda: localize(None, sine(_T8))
    ),
    "besov_norm string s": (
        InvalidParameter, "s must be", lambda: besov_norm(sine(_T8), "x", 2, 2, _PAIR, _G16)
    ),
    "lp_norm of None": (InvalidParameter, "f must be a SpectralFunction", lambda: lp_norm(None, 2)),
    "convolve_scaled of None": (
        InvalidParameter, "T must be a SpectralFunction", lambda: convolve_scaled(None, _PHI, 0.1)
    ),
    "convolve_scaled with None kernel": (
        InvalidParameter, "kernel must be a Kernel", lambda: convolve_scaled(sine(_T8), None, 0.1)
    ),
    "sweep over a list": (
        InvalidParameter, "grid must be a ScaleGrid", lambda: sweep(sine(_T8), _PHI, [0.1, 0.2])
    ),
    "detect_regularity of None": (
        InvalidParameter, "T must be a SpectralFunction", lambda: detect_regularity(None, 2, 2, 1, _PAIR)
    ),
    "detect_regularity with None pair": (
        InvalidParameter, "pair must be a tuple", lambda: detect_regularity(sine(_T8), 2, 2, 1, None)
    ),
    "detect_smooth of None": (
        InvalidParameter, "T must be a SpectralFunction", lambda: detect_smooth(None, 2, 2, _PAIR)
    ),
    "embed with None kernel": (InvalidParameter, "phi must be a Kernel", lambda: embed(sine(_T8), None)),
    "profile from an empty dict": (
        InvalidParameter, "grid and norms", lambda: ScaleProfile.from_dict({})
    ),
    # object arguments of the wrong type: InvalidParameter, never a raw
    # AttributeError or TypeError from deeper in the call
    "min_scale with None kernel": (
        InvalidParameter, "kernel must be a Kernel", lambda: min_scale(None, _T8)
    ),
    "min_scale on None torus": (InvalidParameter, "torus must be a Torus", lambda: min_scale(_PHI, None)),
    "default_grid with None kernel": (
        InvalidParameter, "kernel must be a Kernel", lambda: default_grid(_T8, None)
    ),
    "default_grid on None torus": (
        InvalidParameter, "torus must be a Torus", lambda: default_grid(None, _PHI)
    ),
    "sobolev_table of None": (
        InvalidParameter, "field must be a SpectralFunction", lambda: sobolev_table([None], [0], 2)
    ),
    "sobolev_table of a field then None": (
        InvalidParameter, "field must be a SpectralFunction", lambda: sobolev_table([sine(_T8), None], [0], 2)
    ),
    "sobolev_norm of None": (
        InvalidParameter, "must be a SpectralFunction", lambda: sobolev_norm(None, 1, 2)
    ),
    "dft_synthesize of None": (
        InvalidParameter, "f must be a SpectralFunction", lambda: dft_synthesize(None)
    ),
    "dft_analyze on None torus": (
        InvalidParameter, "torus must be a Torus", lambda: dft_analyze(np.zeros(8), None)
    ),
    "ScaleProfile on a list grid": (
        InvalidParameter, "grid must be a ScaleGrid", lambda: ScaleProfile([0.1, 0.2], np.ones(2))
    ),
    "critical_exponent of None": (
        InvalidParameter, "profile must be a ScaleProfile", lambda: critical_exponent(None)
    ),
    "q_integral of None": (
        InvalidParameter, "profile must be a ScaleProfile", lambda: q_integral(None, 0.0, 2)
    ),
    "convergence_verdict of None": (
        InvalidParameter, "profile must be a ScaleProfile", lambda: convergence_verdict(None, 0.0, 2)
    ),
    "net_sobolev_profile of None": (
        InvalidParameter, "net must be a NetSpec", lambda: net_sobolev_profile(None, 0, 2)
    ),
    "net_sobolev_profile of a SpikeNet": (
        InvalidParameter, "net must be a NetSpec", lambda: net_sobolev_profile(SpikeNet(2.0), 0, 2)
    ),
    "net_sobolev_profile on a list grid": (
        InvalidParameter,
        "eps_grid must be a ScaleGrid",
        lambda: net_sobolev_profile(_SINE, 0, 2, eps_grid=[0.1, 0.2]),
    ),
    "classify_moderate of None": (
        InvalidParameter, "net must be a NetSpec or SpikeNet", lambda: classify_moderate(None, 2)
    ),
    "classify_negligible of None": (
        InvalidParameter, "net must be a NetSpec or SpikeNet", lambda: classify_negligible(None, 2)
    ),
    "classify_moderate on a list grid": (
        InvalidParameter, "eps_grid must be a ScaleGrid", lambda: classify_moderate(_SINE, 2, eps_grid=[0.1])
    ),
    "classify_negligible on a list grid": (
        InvalidParameter, "eps_grid must be a ScaleGrid", lambda: classify_negligible(_ONE, 2, eps_grid=[0.1])
    ),
    "moment of None": (InvalidParameter, "kernel must be a Kernel", lambda: moment(None, 0)),
    "verify_lp_conditions of None": (
        InvalidParameter, "pair must be a tuple", lambda: verify_lp_conditions(None, 1.0)
    ),
    "verify_lp_conditions of one kernel": (
        InvalidParameter, "pair must be a tuple", lambda: verify_lp_conditions((_PHI,), 1.0)
    ),
    "embed on a list grid": (
        InvalidParameter, "grid must be a ScaleGrid", lambda: embed(sine(_T8), _PHI, [0.1, 0.2])
    ),
    "detect_regularity on a list grid": (
        InvalidParameter,
        "grid must be a ScaleGrid",
        lambda: detect_regularity(sine(_T8), 2, 2, 1, _PAIR, [0.1, 0.2]),
    ),
    # an empty list is not a grid, whatever its truth value
    "detect_regularity on an empty grid": (
        InvalidParameter, "grid must be a ScaleGrid", lambda: detect_regularity(sine(_T8), 2, 2, 1, _PAIR, [])
    ),
    "detect_smooth on an empty grid": (
        InvalidParameter, "grid must be a ScaleGrid", lambda: detect_smooth(sine(_T8), 2, 2, _PAIR, [])
    ),
    "net_sobolev_profile on an empty grid": (
        InvalidParameter, "eps_grid must be a ScaleGrid", lambda: net_sobolev_profile(_SINE, 0, 2, eps_grid=[])
    ),
    "classify_moderate on an empty grid": (
        InvalidParameter, "eps_grid must be a ScaleGrid", lambda: classify_moderate(_ONE, 2, eps_grid=[])
    ),
    "association_verdict on None eps_grid": (
        InvalidParameter,
        "eps_grid must be a ScaleGrid",
        lambda: association_verdict(sine(_T8), _SINE, bump_battery(_T8, 1), 2, None),
    ),
    "association_verdict of None": (
        InvalidParameter,
        "T must be a SpectralFunction",
        lambda: association_verdict(None, _SINE, bump_battery(_T8, 1), 2, _G16),
    ),
    "association_verdict with a plain function net": (
        InvalidParameter,
        "net must be a NetSpec",
        lambda: association_verdict(sine(_T8), sine, bump_battery(_T8, 1), 2, _G16),
    ),
    "pairing_profile on None eps_grid": (
        InvalidParameter, "eps_grid must be a ScaleGrid", lambda: pairing_profile(sine(_T8), _SINE, sine(_T8), None)
    ),
    "spike_integral of None": (
        InvalidParameter, "net must be a SpikeNet", lambda: spike_integral(None, 0.0, 2.0)
    ),
    "minus None": (InvalidParameter, "other must be a NetSpec", lambda: _SINE.minus(None)),
    "scaled_by None": (InvalidParameter, "cnet must be a NetSpec", lambda: _SINE.scaled_by(None)),
    # generator inputs
    **{
        f"{name} on None torus": (InvalidParameter, "torus must be a Torus", lambda make=make: make(None))
        for name, make in {
            "dirac": dirac,
            "constant": constant,
            "heaviside": heaviside,
            "kink": kink,
            "sine": sine,
            "cosine": cosine,
            "lacunary": lambda torus: lacunary(torus, 0.5),
            "bump": bump,
            "bump_battery": bump_battery,
        }.items()
    },
    "perturbed_net by None": (
        InvalidParameter, "g must be a SpectralFunction", lambda: perturbed_net(_SINE, None, lambda e: e)
    ),
    "perturbed_net of None": (
        InvalidParameter, "base must be a NetSpec", lambda: perturbed_net(None, sine(_T8), lambda e: e)
    ),
    # a net's callables, refused when the net is made, not at its first evaluation
    "constant_net of None": (InvalidParameter, "net evaluator must be a Callable", lambda: constant_net(None)),
    "function_net of None": (InvalidParameter, "net evaluator must be a Callable", lambda: function_net(None)),
    "constant_net with a number log_magnitude": (
        InvalidParameter, "log_magnitude must be a Callable or NoneType", lambda: constant_net(abs, log_magnitude=1.0)
    ),
    "perturbed_net by a number amplitude": (
        InvalidParameter, "amplitude must be a Callable", lambda: perturbed_net(_SINE, sine(_T8), 0.1)
    ),
    "association_verdict with a None battery entry": (
        InvalidParameter,
        "battery entry must be a tuple",
        lambda: association_verdict(sine(_T8), _SINE, [None], 2, _G16),
    ),
    "association_verdict with a battery entry of one field": (
        InvalidParameter,
        "battery entry must be a tuple",
        lambda: association_verdict(sine(_T8), _SINE, [sine(_T8)], 2, _G16),
    ),
    "association_verdict with a battery entry of three items": (
        InvalidParameter,
        "battery entry must be a tuple",
        lambda: association_verdict(sine(_T8), _SINE, [("rho", sine(_T8), 1)], 2, _G16),
    ),
    # the battery is taken as a list once: an empty iterator is an empty battery
    "association_verdict with an empty iterator battery": (
        InvalidParameter,
        "test-function battery is empty",
        lambda: association_verdict(sine(_T8), _SINE, iter([]), 2, _G16),
    ),
    "association_verdict with a number battery": (
        InvalidParameter,
        "test-function battery must be a Iterable, got 5",
        lambda: association_verdict(sine(_T8), _SINE, 5, 2, _G16),
    ),
    "association_verdict with a battery entry of a label and None": (
        InvalidParameter,
        "battery entry must be a tuple",
        lambda: association_verdict(sine(_T8), _SINE, [*bump_battery(_T8, 1), ("rho", None)], 2, _G16),
    ),
    # a net's eps_min, checked when the net is made
    "function_net string eps_min": (
        InvalidParameter, r"net eps_min must be in \[0, 1\), got 'x'", lambda: function_net(abs, eps_min="x")
    ),
    "function_net eps_min 2": (InvalidParameter, "net eps_min", lambda: function_net(abs, eps_min=2.0)),
    "function_net eps_min 1": (InvalidParameter, "net eps_min", lambda: function_net(abs, eps_min=1.0)),
    "function_net nan eps_min": (InvalidParameter, "net eps_min", lambda: function_net(abs, eps_min=math.nan)),
    "function_net negative eps_min": (InvalidParameter, "net eps_min", lambda: function_net(abs, eps_min=-0.1)),
    "NetSpec None eps_min": (InvalidParameter, "net eps_min", lambda: NetSpec("function", abs, None)),
    # an int past Python's int-to-string digit limit is shown by its bit length
    "Torus grid size of 5001 digits": (
        InvalidParameter, "grid size must be .*, got a negative int of 16610 bits", lambda: Torus(1, 1.0, -(10**5000))
    ),
    "Torus grid size of 5001 digits not a power of two": (
        InvalidParameter, "power of two >= 8, got an int of 16610 bits", lambda: Torus(1, 1.0, 10**5000)
    ),
    "derivative_order of 5001 digits": (
        InvalidParameter, "got a negative int of 16610 bits", lambda: derivative_order(-(10**5000))
    ),
    "sine mode of 5001 digits": (
        InvalidParameter, "mode must be .*, got an int of 16610 bits", lambda: sine(Torus(1, 1.0, 64), 10**5000)
    ),
    "derivative of 5001 digits": (
        InvalidParameter,
        "order an int of 16610 bits overflows",
        lambda: sine(Torus(1, 1.0, 64)).derivative(10**5000),
    ),
    "lp_norm of an int of 5001 digits": (
        InvalidParameter, "f must be a SpectralFunction, got an int of 16610 bits", lambda: lp_norm(10**5000, 2)
    ),
    "profile dict keys of 5001 digits": (
        InvalidParameter, "got keys a list", lambda: ScaleProfile.from_dict({10**5000: 1})
    ),
    # a number past the float range is not an exponent
    "parse_exponent past the float range": (InvalidParameter, "p must be", lambda: parse_exponent(10**400)),
    "lp_norm p past the float range": (InvalidParameter, "p must be", lambda: lp_norm(sine(_T8), 10**400)),
}


@pytest.mark.parametrize("case", sorted(_TYPED_ERRORS))
def test_typed_errors(case):
    error, fragment, call = _TYPED_ERRORS[case]
    with pytest.raises(error, match=fragment):
        call()


def test_an_order_of_5001_digits_is_a_failed_lp_condition():
    diagnostics = verify_lp_conditions(_PAIR, 10**5000)
    assert diagnostics.passed is False and math.isnan(diagnostics.order)
    assert diagnostics.failures == ["order must be a finite real number, got an int of 16610 bits"]


def test_bump_of_overflowing_halfwidth_is_the_constant_one():
    # (xi h)^2 overflows to inf for every nonzero mode; exp(-inf) = 0 is exact
    c = bump(Torus(1, 1.0, 64), halfwidth=1e200).coefficients
    assert c[32] == 1.0 and np.count_nonzero(c) == 1


def test_bump_of_huge_center_is_reduced_modulo_the_period():
    # xi * 1e306 would overflow; 1e306 is a whole number of periods
    t = Torus(1, 1.0, 4096)
    np.testing.assert_array_equal(bump(t, center=1e306).coefficients, bump(t, center=0.0).coefficients)


# every scalar argument is checked by spectral.real_parameter: junk raises a
# BesovlabError, never numpy's or Python's own TypeError or ValueError
_SCALAR_ARGUMENTS = {  # argument -> (call with the argument set to v, real-valued)
    "Torus length": (lambda v: Torus(1, v, 64), True),
    "ScaleGrid y_min": (lambda v: ScaleGrid(v, 1.0, 16), True),
    "ScaleGrid y_max": (lambda v: ScaleGrid(0.01, v, 16), True),
    "Kernel inner_support": (lambda v: Kernel(v, 40.0, (16.0, 32.0)), True),
    "Kernel plateau start": (lambda v: Kernel(8.0, 40.0, (v, 32.0)), True),
    "Kernel plateau end": (lambda v: Kernel(0.0, 40.0, (0.0, v)), True),
    "Kernel outer_support": (lambda v: Kernel(0.0, v, (0.0, 32.0)), True),
    "build_mollifier sigma": (build_mollifier, True),
    "build_lp_pair sigma": (lambda v: build_lp_pair(v, 0.5), True),
    "build_lp_pair eta": (lambda v: build_lp_pair(32.0, v), True),
    "lacunary alpha": (lambda v: lacunary(_T8, v), True),
    "bump halfwidth": (lambda v: bump(_T8, halfwidth=v), True),
    "bump center": (lambda v: bump(_T8, center=v), True),
    "convolve_scaled y": (lambda v: convolve_scaled(dirac(_T8), _PHI, v), True),
    # on 64 points the net's eps_min is 0.199, so each junk value reaches the eps check
    "NetSpec eps": (lambda v: embed(dirac(Torus(1, 1.0, 64)), _PHI)(v), True),
    "bump_battery count": (lambda v: bump_battery(_T8, v), False),
    "bump_battery seed": (lambda v: bump_battery(_T8, 1, v), False),
    "SpectralFunction scalar factor": (lambda v: sine(_T8) * v, True),
    "constant value": (lambda v: constant(_T8, v), True),
    "Torus.grid oversample": (_T8.grid, False),
    "active_bandwidth rtol": (lambda v: sine(_T8).active_bandwidth(v), True),
}
# id -> junk value; -10**5000 lies below every range, so no call allocates
# or loops on it, and its repr would pass Python's int-to-string digit limit
_JUNK = {repr(v): v for v in ("0.5", None, 1j, np.array([0.5, 0.6]))} | {"-10**5000": -(10**5000)}


@pytest.mark.parametrize(
    "argument,junk",
    [
        pytest.param(argument, junk, id=f"{argument}={name}")
        for argument, (_, real) in _SCALAR_ARGUMENTS.items()
        for name, junk in [*_JUNK.items(), *[("nan", math.nan)] * real]
    ],
)
def test_junk_scalar_raises_a_typed_error(argument, junk):
    call, _ = _SCALAR_ARGUMENTS[argument]
    with pytest.raises(BesovlabError):
        call(junk)


def test_kernel_pieces_are_kept_as_floats():
    kernel = Kernel(np.float64(16), 40, np.array([24.0, 32.0]))
    assert kernel == Kernel(16.0, 40.0, (24.0, 32.0))
    assert [type(v) for v in (kernel.inner_support, kernel.outer_support, *kernel.plateau)] == [float] * 4
    hash(kernel)  # spectral caches multipliers by kernel
    for plateau in (None, 24.0, (24.0,), "ab"):
        with pytest.raises(InvalidParameter, match="plateau"):
            Kernel(16.0, 40.0, plateau)
