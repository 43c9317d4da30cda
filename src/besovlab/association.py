"""Association between nets and distributions via test-function pairings.

The observable is the decay of |<T - f_eps, rho>| in eps for a battery of
test functions rho.  A fitted decay slope above b for every rho makes the
eps^{-bq}-weighted pairing integral converge, i.e. the net is strongly
associated at rate b; pairings that all vanish at the smallest eps
(critical_exponent's vanishing sentinel, for every rho) are the rapid
case, which characterizes equality of the classes.

The quantifier "for all test functions" is rendered as a fixed battery of
band-limited bumps with seeded random centers and widths; the seed is part
of the report.
"""

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter
from .nets import NetSpec
from .scales import ScaleGrid, ScaleProfile, critical_exponent
from .signals import bump
from .spectral import SpectralFunction, Torus, _require, _shown, derivative_order, pairing, parse_exponent
from .spectral import real_parameter, to_jsonable

__all__ = [
    "AssociationReport",
    "pairing_profile",
    "association_verdict",
    "holder_bound",
    "bump_battery",
]

DEFAULT_BATTERY_SIZE = 16


def bump_battery(torus, count=DEFAULT_BATTERY_SIZE, seed=7):
    """Seeded battery of band-limited bumps: (label, function) pairs."""
    _require(torus, Torus, "torus")
    rng = np.random.default_rng(real_parameter(seed, "battery seed", at_least=0, integer=True))
    out = []
    for i in range(real_parameter(count, "battery count", at_least=0, integer=True)):
        center = float(rng.uniform(0.0, torus.length))
        halfwidth = float(rng.uniform(0.03, 0.12) * torus.length)
        out.append(
            (
                f"rho{i:02d}(c={center:.3f},h={halfwidth:.3f})",
                bump(torus, center=center, halfwidth=halfwidth),
            )
        )
    return out


def _pairing_profiles(T, net, rhos, eps_grid):
    """One |<T - f_eps, rho>| profile per rho, evaluating the net once per eps."""
    _require(T, SpectralFunction, "T")
    _require(net, NetSpec, "net")
    table = []
    for e in _require(eps_grid, ScaleGrid, "eps_grid").values():
        diff = T - net(e)
        table.append([abs(pairing(diff, rho)) for rho in rhos])
    return [ScaleProfile(eps_grid, col, {"net": net.label}) for col in np.asarray(table).T]


def pairing_profile(T: SpectralFunction, net, rho: SpectralFunction, eps_grid: ScaleGrid):
    """|<T - f_eps, rho>| sampled over the eps grid (spectral pairing)."""
    return _pairing_profiles(T, net, [rho], eps_grid)[0]


@dataclass(frozen=True)
class AssociationReport:
    verdict: str  # "rapid" | "strong" | "none"
    b_hat: float  # min fitted slope (inf for rapid)
    q: str
    rho_ids: list = field(default_factory=list)
    slopes: list = field(default_factory=list)  # None marks the sentinel
    stderrs: list = field(default_factory=list)
    margin: float = 0.0
    seed: int | None = None

    def to_dict(self):
        return to_jsonable(self)


def _battery_entry(entry):
    """entry, when it is a tuple (label, SpectralFunction), else InvalidParameter."""
    if not (isinstance(entry, tuple) and len(entry) == 2 and isinstance(entry[1], SpectralFunction)):
        raise InvalidParameter(f"battery entry must be a tuple (label, SpectralFunction), got {_shown(entry)}")
    return entry


def association_verdict(T, net, battery, q, eps_grid: ScaleGrid, seed=None):
    """Classify the association of a net to T over a test-function battery.

    rapid: every pairing profile hits the vanishing/decay sentinel;
    strong(b_hat): the worst fitted slope b_hat still exceeds the margin
    max(3 * its stderr, 0.05) (the weighted pairing integral at rate b
    converges iff the slope beats b); none: some pairing fails to decay.
    q is parsed like the detectors' exponents and reported; the verdict
    does not depend on it.  A seed, the battery's, must be a nonnegative
    integer, as in bump_battery; it is reported too.
    """
    q = parse_exponent(q, "q")
    if seed is not None:
        seed = real_parameter(seed, "battery seed", at_least=0, integer=True)
    battery = [_battery_entry(entry) for entry in _require(battery, Iterable, "test-function battery")]
    if not battery:
        raise InvalidParameter("test-function battery is empty")
    ids, rhos = map(list, zip(*battery))
    fits = [critical_exponent(profile) for profile in _pairing_profiles(T, net, rhos, eps_grid)]
    slopes = [None if fit.is_sentinel else fit.slope for fit in fits]
    stderrs = [fit.stderr for fit in fits]  # a sentinel's is 0
    worst = min(fits, key=lambda fit: fit.slope)  # a sentinel's slope is +inf
    if worst.is_sentinel:
        return AssociationReport("rapid", np.inf, f"{q:g}", ids, slopes, stderrs, 0.0, seed)
    m = max(3.0 * worst.stderr, 0.05)
    verdict = "strong" if worst.slope > m else "none"
    return AssociationReport(verdict, float(worst.slope), f"{q:g}", ids, slopes, stderrs, m, seed)


def holder_bound(s, b, k, d=1, k0=0):
    """Smoothness loss of the pairing-rate criterion: s0 = s(k+d+k0)/(s+b).

    A net in the k-th scale space at rate s, strongly associated to T at
    rate b with test constants of order k0, certifies T in the Zygmund
    class of order k - s0.  s and b must be positive and finite, k and k0
    nonnegative integers, and d (the dimension) 1 or 2.
    """
    s, b = real_parameter(s, "s", 0.0), real_parameter(b, "b", 0.0)
    k, k0 = derivative_order(k, "k"), derivative_order(k0, "k0")
    d = real_parameter(d, "dimension d", at_least=1, at_most=2, integer=True)
    return s * (k + d + k0) / (s + b)
