"""Nets of functions/constants over the scale parameter, and their classes.

A net is a family eps -> f_eps, continuous in eps, evaluated lazily.  Nets
are classified as moderate (the eps^{qs}-weighted integral of the q-th power
of their norms converges for SOME s) or negligible (for EVERY s).  The "for
every s" quantifier is rendered as signed integers |s| <= S_CAP plus the
fitted-slope certificate; negative s is the binding direction.

Nets compose, as the paper's algebra of nets does: minus, scaled_by and
perturbed_net make new nets, and so does a cutoff.  The net chi * f_eps,
localized by a window chi, is

    function_net(lambda e: localize(net(e), chi), net.eps_min)

whose profiles and verdicts are those of the localized norms.

The two counterexample spike families live here as well: trains of
plateau-with-ramp spikes centered at 1/n with width exp(-n) and heights
n^{-2} exp(n/q) (a net whose square is not moderate) or exp(n/q - sqrt(n))
(a net negligible at q but not at any q' > q).  All of their integral
arithmetic is carried out in log space: the heights overflow double
precision long before n reaches the default cap if handled naively.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidParameter
from .scales import ExponentFit, ScaleGrid, ScaleProfile, _fit_verdict, _line_fits
from .scales import critical_exponent  # by name: tests monkeypatch nets.critical_exponent
from .spectral import (
    SpectralFunction,
    _require,
    _shown,
    derivative_order,
    parse_exponent,
    real_parameter,
    sobolev_table,
    to_jsonable,
)

__all__ = [
    "NetSpec",
    "SpikeNet",
    "SpikeIntegral",
    "ModerateVerdict",
    "NegligibleVerdict",
    "classify_moderate",
    "classify_negligible",
    "spike_integral",
    "net_sobolev_profile",
    "constant_net",
    "function_net",
    "perturbed_net",
]

S_CAP = 10
# signed integer rates tried by the classifiers, the binding direction first
_S_SCAN = range(-S_CAP, S_CAP + 1)
# classification sums run far past the net's own cap so that series peaking
# late (negative-s weights against sqrt-n decay) are resolved
CLASSIFY_N_MAX = 4096
# spikes of a SpikeNet: n = SPIKE_N_MIN .. SPIKE_N_MAX
SPIKE_N_MIN = 4
SPIKE_N_MAX = 120
# the divergence rule of spike sums reads the last this many terms
_RULE_TAIL = 10


@dataclass(frozen=True)
class NetSpec:
    """A lazily evaluated net eps -> constant or eps -> SpectralFunction."""

    kind: str  # "constant" | "function"
    evaluator: object = field(repr=False)
    eps_min: float = 0.0
    log_magnitude: object = None  # optional closed-form eps -> log|f_eps|
    label: str = "net"

    def __post_init__(self):
        if self.kind not in ("constant", "function"):
            raise InvalidParameter(f"unknown net kind {_shown(self.kind)}")
        _require(self.evaluator, Callable, "net evaluator")
        _require(self.log_magnitude, (Callable, type(None)), "log_magnitude")
        eps_min = real_parameter(self.eps_min, "net eps_min", at_least=0.0, below=1.0)
        object.__setattr__(self, "eps_min", eps_min)

    def __call__(self, eps):
        return self.evaluator(real_parameter(eps, "net eps", self.eps_min, at_most=1.0))

    def minus(self, other):
        if self.kind != "function" or _require(other, NetSpec, "other").kind != "function":
            raise InvalidParameter("difference needs two function nets")
        return NetSpec(
            "function",
            lambda e: self(e) - other(e),
            max(self.eps_min, other.eps_min),
            None,
            f"{self.label}-{other.label}",
        )

    def scaled_by(self, cnet):
        """Pointwise product with a constant net (module action)."""
        if _require(cnet, NetSpec, "cnet").kind != "constant":
            raise InvalidParameter("scaled_by takes a constant net")
        return NetSpec(
            self.kind,
            lambda e: cnet(e) * self(e),
            max(self.eps_min, cnet.eps_min),
            None,
            f"{cnet.label}*{self.label}",
        )


def constant_net(fn, label="constant-net", log_magnitude=None):
    return NetSpec("constant", fn, 0.0, log_magnitude, label)


def function_net(fn, eps_min=0.0, label="function-net"):
    return NetSpec("function", fn, eps_min, None, label)


def perturbed_net(base: NetSpec, g: SpectralFunction, amplitude, label=None):
    """f_eps = base(eps) + amplitude(eps) * g."""
    _require(base, NetSpec, "base")
    _require(g, SpectralFunction, "g")
    _require(amplitude, Callable, "amplitude")
    return NetSpec(
        "function",
        lambda e: base(e) + amplitude(e) * g,
        base.eps_min,
        None,
        label or f"{base.label}+a(e)*g",
    )


# ---------------------------------------------------------------------------
# Spike nets (the two counterexample families)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpikeNet:
    """Train of constant-function spikes at eps = 1/n, SPIKE_N_MIN <= n <= SPIKE_N_MAX.

    Each spike occupies [1/n - w_n, 1/n + w_n] with w_n = exp(-n): a plateau
    of height h_n on the inner half, linear ramps to zero on the outer
    halves.  Heights (stored in log space, scaled by `power` for pointwise
    powers of the net):

      remark1: h_n = n^{-2} exp(n/q)
      remark2: h_n = exp(n/q - sqrt(n))
    """

    q: float
    variant: str = "remark1"
    power: int = 1

    def __post_init__(self):
        if self.variant not in ("remark1", "remark2"):
            raise InvalidParameter(f"unknown spike variant {_shown(self.variant)}")
        object.__setattr__(self, "power", real_parameter(self.power, "spike power", at_least=1, integer=True))
        object.__setattr__(self, "q", parse_exponent(self.q, "q"))

    def log_height(self, n):
        n = np.asarray(n, dtype=float)
        if self.variant == "remark1":
            base = n / self.q - 2.0 * np.log(n)
        else:
            base = n / self.q - np.sqrt(n)
        return self.power * base

    def squared(self):
        return replace(self, power=2 * self.power)

    def value(self, eps):
        """Pointwise evaluation (continuous, zero between spikes).

        Only the spike n = round(1/eps) can hold eps: w_n is below half the
        spike spacing for every n >= SPIKE_N_MIN.  A nan eps raises.
        """
        eps = real_parameter(eps, "spike eps", at_least=-math.inf, at_most=math.inf)
        # no spike holds eps <= 1/(2 SPIKE_N_MAX), where 1/eps may be inf
        n = round(1.0 / eps) if 0.5 / SPIKE_N_MAX < eps <= 1.0 else 0
        if not SPIKE_N_MIN <= n <= SPIKE_N_MAX:
            return 0.0
        d, w = abs(eps - 1.0 / n), math.exp(-n)
        if d > w:
            return 0.0
        ramp = 1.0 if d <= w / 2.0 else (w - d) / (w / 2.0)
        lh = float(self.log_height(n))
        return ramp * math.exp(lh) if lh < 700.0 else math.inf

    def as_net(self):
        return constant_net(self.value, label=f"spike-{self.variant}(q={self.q:g})^{self.power}")


@dataclass(frozen=True)
class SpikeIntegral:
    """Outcome of a per-spike log-space summation."""

    finite: bool
    log_value: float  # logsumexp of terms when finite, else partial sum
    tail_slope: float  # d(log term)/d(log n) at the summation horizon
    growing: bool  # log-terms increasing through the horizon
    last_ratio: float  # last-term / partial-sum ratio
    n_used: int

    def to_dict(self):
        return to_jsonable(self)


def _spike_terms(net: SpikeNet, q_test, n):
    """s -> per-spike upper bounds of the eps^{qs}-weighted q-integral at the
    spikes n, in logs.

    Plateau and ramp contributions are both bounded by height^q x width,
    and the dlog measure contributes n * exp(-n) at eps = 1/n:
      term_n <= 2 exp(-n) n^{1-qs} h_n^q.
    All but the s-dependent power n^{-qs} is computed once, and each s
    adds it in the order of the one-line formula, so the terms are the
    same floats for any choice of spikes n.
    """
    if math.isinf(q_test):
        raise InvalidParameter("spike sums need a finite q: their terms are height^q x width")
    rest = math.log(2.0) + q_test * net.log_height(n) - n
    log_n = np.log(n)
    return lambda s: rest + (1.0 - q_test * s) * log_n


def _rule_spikes(n):
    """Indices into the spikes n of those _divergence reads: the one at half
    the horizon, then the last _RULE_TAIL (all of them, if fewer)."""
    half = np.searchsorted(n, n[-1] / 2.0)
    return np.concatenate(([half], np.arange(max(0, n.size - _RULE_TAIL), n.size)))


def _divergence(terms, n):
    """The divergence rule of a spike sum: (divergent, growing, tail_slope)
    from its log terms at the spikes n = _rule_spikes(all spikes).

    growing: the last _RULE_TAIL log terms increase (never with fewer
    spikes than that); tail_slope: d(log term)/d(log n) from half the
    horizon to the horizon.  The sum diverges when its terms are growing
    or their tail power is -1 or above (the series is cleanly
    geometric-versus-polynomial).
    """
    tail = terms[1:]
    growing = tail.size == _RULE_TAIL and bool(np.all(np.diff(tail) > 0))
    tail_slope = float((terms[-1] - terms[0]) / (np.log(n[-1]) - np.log(n[0])))
    return growing or tail_slope >= -1.0 - 1e-9, growing, tail_slope


def spike_integral(net: SpikeNet, s, q_test, n_max=SPIKE_N_MAX):
    """Analytic log-space evaluation of the weighted integral over spikes.

    Divergence is decided by _divergence, the rule classify_moderate and
    classify_negligible also apply, from the shape of the per-spike terms
    at half the horizon and at its last ten spikes.  The partial sums
    (log_value, last_ratio) are diagnostics and do not enter the verdict.
    """
    _require(net, SpikeNet, "net")
    s = real_parameter(s, "s")
    q_test = parse_exponent(q_test, "q")
    n_max = real_parameter(n_max, "n_max", SPIKE_N_MIN, integer=True)
    n = np.arange(SPIKE_N_MIN, n_max + 1, dtype=float)
    terms = _spike_terms(net, q_test, n)(s)
    # running logsumexp for the partial-sum diagnostics
    order = np.maximum.accumulate(terms)
    partial = order + np.log(np.cumsum(np.exp(terms - order)))
    rule = _rule_spikes(n)
    divergent, growing, tail_slope = _divergence(terms[rule], n[rule])
    last_ratio = float(np.exp(terms[-1] - partial[-1]))
    return SpikeIntegral(
        finite=not divergent,
        log_value=float(partial[-1]),
        tail_slope=tail_slope,
        growing=growing,
        last_ratio=last_ratio,
        n_used=int(n[-1]),
    )


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModerateVerdict:
    moderate: bool
    s_star: int | None = None

    def __str__(self):
        return f"moderate(s*={self.s_star})" if self.moderate else "not-moderate"


@dataclass(frozen=True)
class NegligibleVerdict:
    negligible: bool
    s_fail: int | None = None

    def __str__(self):
        return "negligible" if self.negligible else f"not-negligible(s_fail={self.s_fail})"


def net_sobolev_profile(net: NetSpec, k, p, eps_grid=None):
    """Sample ||f_eps||_{W^{k,p}} over eps."""
    if _require(net, NetSpec, "net").kind != "function":
        raise InvalidParameter("net_sobolev_profile needs a function net")
    k, p = derivative_order(k), parse_exponent(p)
    grid = _eps_grid(net, eps_grid)
    norms = sobolev_table((net(e) for e in grid.values()), range(k + 1), p).max(axis=1)
    return ScaleProfile(grid, norms, {"k": k, "p": f"{p:g}", "net": net.label})


def _eps_grid(net: NetSpec, eps_grid):
    """The eps grid of a net: eps_grid, which must be a ScaleGrid, or when it
    is None 64 scales from just above the net's eps_min (at least 1e-4) to 1."""
    if eps_grid is None:
        return ScaleGrid(max(1.05 * net.eps_min, 1e-4), 1.0, 64)
    return _require(eps_grid, ScaleGrid, "eps_grid")


def _magnitude_profile(net: NetSpec, grid):
    """|f_eps| over the grid; None signals unrepresentable growth."""
    vals = []
    for e in grid.values():
        try:
            v = abs(net(e))
        except OverflowError:
            return None
        if not math.isfinite(v):
            return None
        vals.append(v)
    return ScaleProfile(grid, np.asarray(vals), {"net": net.label})


def _analytic_fit(net: NetSpec, grid):
    """Tail-window log-log fit of a closed-form magnitude, with zero stderr
    (its values are exact); None if they are not finite."""
    y = grid.values()
    logs = np.asarray([float(net.log_magnitude(e)) for e in y])
    if not np.all(np.isfinite(logs)):
        return None
    h = y.size // 2
    slope, _, resid, _ = _line_fits(np.log(y[-h:]), logs[-h:], h)
    return ExponentFit(float(slope[0]), 0.0, (float(y[-1]), float(y[-h])), h, float(resid[0]))


def _superpolynomial_growth(profile):
    """Fitted slope diverging under window shrinking marks non-moderate nets."""
    y = profile.grid.values()
    n = profile.norms
    good = n > 0
    if good.sum() < 12:
        return False
    slope = _line_fits(np.log(y[good]), np.log(n[good]), good.sum() // 2)[0]
    full, half = slope[0], slope[-1]
    return half < full - 1.0 and half < -S_CAP


def _convergence_test(net, q, k, p, eps_grid):
    """s -> whether the eps^{qs}-weighted q-integral of the net's norms converges.

    q is parsed first, for every net.  SpikeNet inputs use the divergence
    rule of spike_integral (_divergence) at n_max = CLASSIFY_N_MAX: their
    log terms are built once per classification, and only at the eleven
    spikes that rule reads, so each s costs one short sum and none of the
    partial sums spike_integral reports.  Other nets are fitted once, a
    constant net with a closed-form magnitude from that magnitude and the
    rest from its sampled norm profile, and decided by the exponent test of
    convergence_verdict: the integral at s converges when the decay
    exponent a satisfies a > -s (a >= -s at q = inf).  None when the net is
    moderate at no s: its magnitude overflows, its closed-form magnitude is
    not finite, or its sampled norms grow superpolynomially.
    """
    q = parse_exponent(q, "q")
    if isinstance(_require(net, (NetSpec, SpikeNet), "net"), SpikeNet):
        n = np.arange(SPIKE_N_MIN, CLASSIFY_N_MAX + 1, dtype=float)
        n = n[_rule_spikes(n)]
        terms = _spike_terms(net, q, n)
        return lambda s: not _divergence(terms(s), n)[0]
    grid = _eps_grid(net, eps_grid)
    if net.kind == "constant" and net.log_magnitude is not None:
        fit = _analytic_fit(net, grid)
    else:
        if net.kind == "function":
            profile = net_sobolev_profile(net, k, p, grid)
        else:
            profile = _magnitude_profile(net, grid)
        bad = profile is None or _superpolynomial_growth(profile)
        fit = None if bad else critical_exponent(profile)
    if fit is None:
        return None
    return lambda s: _fit_verdict(fit, -s, q) == "convergent"


def classify_moderate(net, q, k=0, p="inf", eps_grid=None):
    """Smallest integer s, |s| <= S_CAP, making the weighted integral converge."""
    converges = _convergence_test(net, q, k, p, eps_grid)
    if converges is None:
        return ModerateVerdict(False)
    s_star = next((s for s in _S_SCAN if converges(s)), None)
    return ModerateVerdict(s_star is not None, s_star)


def classify_negligible(net, q, p="inf", eps_grid=None):
    """Negligibility: convergence for every signed integer |s| <= S_CAP.

    Only the k = 0 (L^p) profile is consulted: for compactly supported nets
    negligibility of the plain norms already controls all derivative
    orders, so the derivative sweep is redundant.  Borderline verdicts
    count as failures (conservative in the direction of the claim).

    The verdict is limited by grid resolution: the fine half of eps_grid
    must show a slope above S_CAP.  On a 1024-point unit torus, the Dirac
    net localized by chi = bump(center=0.5, halfwidth=0.08),
    function_net(lambda e: localize(net(e), chi), net.eps_min), decays
    faster than any power, yet ScaleGrid(0.02, 0.5, 16) reads
    not-negligible(s_fail=-10): its fine-half slope is only about 6.5.
    """
    converges = _convergence_test(net, q, 0, p, eps_grid)
    if converges is None:
        return NegligibleVerdict(False, -S_CAP)
    s_fail = next((s for s in _S_SCAN if not converges(s)), None)
    return NegligibleVerdict(s_fail is None, s_fail)
