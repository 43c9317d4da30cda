"""Association between nets and distributions via test-function pairings.

The observable is the decay of |<T - f_eps, rho>| in eps for a battery of
test functions rho.  A fitted decay slope above b for every rho makes the
eps^{-bq}-weighted pairing integral converge, i.e. the net is strongly
associated at rate b; pairings that vanish identically at small eps (or
decay past every tested rate) are the rapid case, which characterizes
equality of the classes.

The quantifier "for all test functions" is rendered as a fixed battery of
band-limited bumps with seeded random centers and widths; the seed is part
of the report.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter
from .scales import ScaleGrid, ScaleProfile, critical_exponent
from .signals import bump
from .spectral import SpectralFunction, pairing

__all__ = [
    "AssociationReport",
    "pairing_profile",
    "association_verdict",
    "holder_bound",
    "bump_battery",
]

DEFAULT_BATTERY_SIZE = 16
RAPID_SLOPE = 8.0


def bump_battery(torus, count=DEFAULT_BATTERY_SIZE, seed=7):
    """Seeded battery of band-limited bumps: (label, function) pairs."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
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
    table = []
    for e in eps_grid.values():
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
        import math

        return {
            "verdict": self.verdict,
            "b_hat": None if math.isinf(self.b_hat) else self.b_hat,
            "q": self.q,
            "rho_ids": list(self.rho_ids),
            "slopes": self.slopes,
            "stderrs": self.stderrs,
            "margin": self.margin,
            "seed": self.seed,
        }


def association_verdict(T, net, battery, q, eps_grid: ScaleGrid, margin=None, seed=None):
    """Classify the association of a net to T over a test-function battery.

    rapid: every pairing profile hits the vanishing/decay sentinel;
    strong(b_hat): the worst fitted slope still exceeds the margin (the
    weighted pairing integral at rate b converges iff the slope beats b);
    none: some pairing fails to decay.
    """
    if not battery:
        raise InvalidParameter("test-function battery is empty")
    ids, slopes, stderrs = [], [], []
    sentinels = 0
    worst = np.inf
    worst_err = 0.0
    profiles = _pairing_profiles(T, net, [rho for _, rho in battery], eps_grid)
    for (label, _), profile in zip(battery, profiles):
        fit = critical_exponent(profile)
        ids.append(label)
        if fit.is_sentinel:
            sentinels += 1
            slopes.append(None)
            stderrs.append(0.0)
            continue
        slopes.append(fit.slope)
        stderrs.append(fit.stderr)
        if fit.slope < worst:
            worst = fit.slope
            worst_err = fit.stderr
    if sentinels == len(battery):
        return AssociationReport("rapid", np.inf, str(q), ids, slopes, stderrs, 0.0, seed)
    m = margin if margin is not None else max(3.0 * worst_err, 0.05)
    verdict = "strong" if worst > m else "none"
    return AssociationReport(verdict, float(worst), str(q), ids, slopes, stderrs, m, seed)


def holder_bound(s, b, k, d=1, k0=0):
    """Smoothness loss of the pairing-rate criterion: s0 = s(k+d+k0)/(s+b).

    A net in the k-th scale space at rate s, strongly associated to T at
    rate b with test constants of order k0, certifies T in the Zygmund
    class of order k - s0.
    """
    if not (s > 0):
        raise InvalidParameter(f"s must be positive, got {s}")
    if not (b > 0):
        raise InvalidParameter(f"b must be positive, got {b}")
    if k < 0 or d < 1 or k0 < 0:
        raise InvalidParameter("need k >= 0, d >= 1, k0 >= 0")
    return s * (k + d + k0) / (s + b)
