"""Nets of functions/constants over the scale parameter, and their classes.

A net is a family eps -> f_eps, continuous in eps, evaluated lazily.  Nets
are classified as moderate (the eps^{qs}-weighted integral of the q-th power
of their norms converges for SOME s) or negligible (for EVERY s).  The "for
every s" quantifier is rendered as signed integers |s| <= s_max plus the
fitted-slope certificate; negative s is the binding direction.

The two counterexample spike families live here as well: trains of
plateau-with-ramp spikes centered at 1/n with width exp(-n) and heights
n^{-2} exp(n/q) (a net whose square is not moderate) or exp(n/q - sqrt(n))
(a net negligible at q but not at any q' > q).  All of their integral
arithmetic is carried out in log space: the heights overflow double
precision long before n reaches the default cap if handled naively.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateProfile, InvalidParameter
from .scales import (
    ScaleGrid,
    ScaleProfile,
    convergence_verdict,
    critical_exponent,
)
from .spectral import SpectralFunction, sobolev_norm

__all__ = [
    "NetSpec",
    "SpikeNet",
    "SpikeIntegral",
    "classify_moderate",
    "classify_negligible",
    "spike_integral",
    "net_sobolev_profile",
    "constant_net",
    "function_net",
    "perturbed_net",
]

S_CAP = 10
# classification sums run far past the net's own cap so that series peaking
# late (negative-s weights against sqrt-n decay) are resolved
CLASSIFY_N_MAX = 4096


@dataclass(frozen=True)
class NetSpec:
    """A lazily evaluated net eps -> constant or eps -> SpectralFunction."""

    kind: str  # "constant" | "function"
    evaluator: object = field(repr=False)
    continuous: bool = True
    eps_min: float = 0.0
    log_magnitude: object = None  # optional closed-form eps -> log|f_eps|
    label: str = "net"

    def __post_init__(self):
        if self.kind not in ("constant", "function"):
            raise InvalidParameter(f"unknown net kind {self.kind!r}")

    def __call__(self, eps):
        if not (self.eps_min < eps <= 1.0):
            raise InvalidParameter(
                f"net evaluated at eps={eps:.3g} outside ({self.eps_min:.3g}, 1]"
            )
        return self.evaluator(eps)

    def minus(self, other):
        if self.kind != "function" or other.kind != "function":
            raise InvalidParameter("difference needs two function nets")
        return NetSpec(
            "function",
            lambda e: self(e) - other(e),
            self.continuous and other.continuous,
            max(self.eps_min, other.eps_min),
            None,
            f"{self.label}-{other.label}",
        )

    def scaled_by(self, cnet):
        """Pointwise product with a constant net (module action)."""
        if cnet.kind != "constant":
            raise InvalidParameter("scaled_by takes a constant net")
        return NetSpec(
            self.kind,
            lambda e: cnet(e) * self(e),
            self.continuous and cnet.continuous,
            max(self.eps_min, cnet.eps_min),
            None,
            f"{cnet.label}*{self.label}",
        )


def constant_net(fn, label="constant-net", log_magnitude=None):
    return NetSpec("constant", fn, True, 0.0, log_magnitude, label)


def function_net(fn, eps_min=0.0, label="function-net"):
    return NetSpec("function", fn, True, eps_min, None, label)


def perturbed_net(base: NetSpec, g: SpectralFunction, amplitude, label=None):
    """f_eps = base(eps) + amplitude(eps) * g."""
    return NetSpec(
        "function",
        lambda e: base(e) + amplitude(e) * g,
        base.continuous,
        base.eps_min,
        None,
        label or f"{base.label}+a(e)*g",
    )


# ---------------------------------------------------------------------------
# Spike nets (the two counterexample families)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpikeNet:
    """Train of constant-function spikes at eps = 1/n, n >= n_min.

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
    n_min: int = 4
    n_max: int = 120

    def __post_init__(self):
        if self.variant not in ("remark1", "remark2"):
            raise InvalidParameter(f"unknown spike variant {self.variant!r}")
        if not (self.q >= 1):
            raise InvalidParameter("spike net parameter q must be >= 1")

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
        """Pointwise evaluation (continuous, zero between spikes)."""
        for n in range(self.n_min, self.n_max + 1):
            c = 1.0 / n
            w = math.exp(-n)
            if abs(eps - c) > w:
                if eps > c + w:
                    break
                continue
            d = abs(eps - c)
            ramp = 1.0 if d <= w / 2.0 else (w - d) / (w / 2.0)
            lh = float(self.log_height(n))
            return ramp * math.exp(lh) if lh < 700.0 else math.inf
        return 0.0

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
        return {
            "finite": self.finite,
            "log_value": self.log_value,
            "tail_slope": self.tail_slope,
            "growing": self.growing,
            "last_ratio": self.last_ratio,
            "n_used": self.n_used,
        }


def _log_terms(net: SpikeNet, s, q_test, n_max):
    """Per-spike upper bounds of the eps^{qs}-weighted q-integral, in logs.

    Plateau and ramp contributions are both bounded by height^q x width,
    and the dlog measure contributes n * exp(-n) at eps = 1/n:
      term_n <= 2 exp(-n) n^{1-qs} h_n^q.
    """
    n = np.arange(net.n_min, n_max + 1, dtype=float)
    return math.log(2.0) + q_test * net.log_height(n) - n + (1.0 - q_test * s) * np.log(n), n


def spike_integral(net: SpikeNet, s, q_test, n_max=None):
    """Analytic log-space evaluation of the weighted integral over spikes.

    Divergence is decided from the shape of the per-spike terms: log-terms
    still increasing at the horizon, or a tail power d(log term)/d(log n)
    of -1 or above (the series is cleanly geometric-versus-polynomial).
    """
    n_max = n_max or net.n_max
    terms, n = _log_terms(net, s, q_test, n_max)
    # running logsumexp for the partial-sum diagnostics
    order = np.maximum.accumulate(terms)
    partial = order + np.log(np.cumsum(np.exp(terms - order)))
    growing = bool(np.all(np.diff(terms[-10:]) > 0)) if terms.size >= 10 else False
    half = np.searchsorted(n, n[-1] / 2.0)
    tail_slope = float((terms[-1] - terms[half]) / (np.log(n[-1]) - np.log(n[half])))
    last_ratio = float(np.exp(terms[-1] - partial[-1]))
    divergent = growing or tail_slope >= -1.0 - 1e-9
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


def _default_eps_grid():
    return ScaleGrid(1e-4, 1.0, 64)


def net_sobolev_profile(net: NetSpec, k, p, window=None, eps_grid=None):
    """Sample ||f_eps||_{W^{k,p}} (optionally window-localized) over eps.

    A window chi applies besov.localize, the pointwise product chi * f_eps,
    before the norm.  The localized norms become small only once eps is
    small next to the distance between the window and the singular support
    of the net: a band-limited mollifier keeps O(1) values at distances
    comparable to eps.
    """
    if net.kind != "function":
        raise InvalidParameter("net_sobolev_profile needs a function net")
    grid = eps_grid or _default_eps_grid()
    norms = []
    for e in grid.values():
        f = net(e)
        if window is not None:
            from .besov import localize

            f = localize(f, window)
        norms.append(sobolev_norm(f, k, p))
    return ScaleProfile(
        grid, np.asarray(norms), {"k": k, "p": str(p), "net": net.label}
    )


def _magnitude_profile(net: NetSpec, eps_grid):
    """|f_eps| over the grid; None signals unrepresentable growth."""
    grid = eps_grid or _default_eps_grid()
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


def _analytic_slopes(net: NetSpec, eps_grid):
    """Full- and tail-window log-log slopes from a closed-form magnitude."""
    grid = eps_grid or _default_eps_grid()
    t = np.log(grid.values())
    logs = np.asarray([float(net.log_magnitude(e)) for e in grid.values()])
    if not np.all(np.isfinite(logs)):
        return None
    full = float(np.polyfit(t, logs, 1)[0])
    h = t.size // 2
    half = float(np.polyfit(t[-h:], logs[-h:], 1)[0])
    return full, half


def _superpolynomial_growth(profile):
    """Fitted slope diverging under window shrinking marks non-moderate nets."""
    y = profile.grid.values()
    n = profile.norms
    good = n > 0
    if good.sum() < 12:
        return False
    t, b = np.log(y[good]), np.log(n[good])
    full = np.polyfit(t, b, 1)[0]
    halfn = t.size // 2
    half = np.polyfit(t[-halfn:], b[-halfn:], 1)[0]
    return half < full - 1.0 and half < -S_CAP


def _net_profile(net, k, p, window, eps_grid):
    if net.kind == "constant":
        return _magnitude_profile(net, eps_grid)
    return net_sobolev_profile(net, k, p, window, eps_grid)


def classify_moderate(net, q, k=0, p="inf", window=None, eps_grid=None, s_cap=S_CAP):
    """Smallest integer s making the eps^{qs}-weighted integral converge.

    SpikeNet inputs use the analytic per-spike route; function and constant
    nets use the sampled norm profile and the exponent-based verdict.  The
    weighted integral at s converges exactly when the fitted decay exponent
    a satisfies a > -s, so s* is the smallest integer strictly beating -a.
    """
    if isinstance(net, SpikeNet):
        for s in range(-s_cap, s_cap + 1):
            if spike_integral(net, s, q, n_max=CLASSIFY_N_MAX).finite:
                return ModerateVerdict(True, s)
        return ModerateVerdict(False)
    if net.kind == "constant" and net.log_magnitude is not None:
        slopes = _analytic_slopes(net, eps_grid)
        if slopes is None or (slopes[1] < slopes[0] - 1.0 and slopes[1] < -s_cap):
            return ModerateVerdict(False)
        a = slopes[1]
        for s in range(-s_cap, s_cap + 1):
            if a > -s + 1e-9:
                return ModerateVerdict(True, s)
        return ModerateVerdict(False)
    profile = _net_profile(net, k, p, window, eps_grid)
    if profile is None or _superpolynomial_growth(profile):
        return ModerateVerdict(False)
    for s in range(-s_cap, s_cap + 1):
        if convergence_verdict(profile, -s, q) == "convergent":
            return ModerateVerdict(True, s)
    return ModerateVerdict(False)


def classify_negligible(net, q, p="inf", window=None, eps_grid=None, s_max=S_CAP):
    """Negligibility: convergence for every signed integer |s| <= s_max.

    Only the k = 0 (L^p) profile is consulted: for compactly supported nets
    negligibility of the plain norms already controls all derivative
    orders, so the derivative sweep is redundant.  Borderline verdicts
    count as failures (conservative in the direction of the claim).
    """
    scan = [s for s in range(-s_max, s_max + 1)]
    if isinstance(net, SpikeNet):
        for s in scan:
            if not spike_integral(net, s, q, n_max=CLASSIFY_N_MAX).finite:
                return NegligibleVerdict(False, s)
        return NegligibleVerdict(True)
    if net.kind == "constant" and net.log_magnitude is not None:
        slopes = _analytic_slopes(net, eps_grid)
        if slopes is None:
            return NegligibleVerdict(False, -s_max)
        diverging_decay = slopes[1] > slopes[0] + 1.0 and slopes[1] > s_max
        if diverging_decay or slopes[1] > s_max:
            return NegligibleVerdict(True)
        fails = [s for s in scan if not slopes[1] > -s + 1e-9]
        return NegligibleVerdict(False, fails[0] if fails else -s_max)
    profile = _net_profile(net, 0, p, window, eps_grid)
    if profile is None:
        return NegligibleVerdict(False, -s_max)
    for s in scan:
        if convergence_verdict(profile, -s, q) != "convergent":
            return NegligibleVerdict(False, s)
    return NegligibleVerdict(True)
