"""Scale sweeps, weighted scale integrals, and power-law exponent fits.

A scale profile N(y) = ||T * K_y||_{W^{k,p}} sampled on a geometric grid is
the raw observable; convergence of the weighted integrals

    integral over (0,1] of (y^s N(y))^q dy/y        (q < inf)
    sup over (0,1] of y^s N(y)                      (q = inf)

is decided from the fitted exponent N(y) ~ y^a rather than from truncated
integral values: finite data cannot certify an improper integral, the
exponent is the observable.  Note the weight convention: q_integral applies
the weight y^(+s) exactly as written in the moderateness estimates, while
convergence_verdict answers the Besov-side question (weight y^(-s)), whose
power-law test is "a > s".
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateProfile, InvalidParameter, ScaleOutOfRange
from .spectral import convolve_scaled, min_scale, sobolev_norm

__all__ = [
    "ScaleGrid",
    "ScaleProfile",
    "ExponentFit",
    "sweep",
    "q_integral",
    "critical_exponent",
    "convergence_verdict",
    "synthetic_profile",
]

# Norms below max(1, profile peak) * this are treated as exact zeros.
ZERO_RTOL = 1e-13
# Longest-suffix window selection: residual tolerance in log units.
WINDOW_RESIDUAL_TOL = 0.05
MIN_WINDOW = 8


@dataclass(frozen=True)
class ScaleGrid:
    """Geometric grid y_j = y_max * rho^j, j = 0..count-1, descending."""

    y_min: float
    y_max: float = 1.0
    count: int = 48

    def __post_init__(self):
        if not (0.0 < self.y_min < self.y_max <= 1.0):
            raise InvalidParameter(
                f"need 0 < y_min < y_max <= 1, got [{self.y_min}, {self.y_max}]"
            )
        if self.count < 16:
            raise InvalidParameter(f"need at least 16 scales, got {self.count}")

    @property
    def ratio(self):
        return (self.y_min / self.y_max) ** (1.0 / (self.count - 1))

    def values(self):
        j = np.arange(self.count)
        return self.y_max * self.ratio**j

    @property
    def log_step(self):
        return math.log(1.0 / self.ratio)


@dataclass(frozen=True)
class ScaleProfile:
    """Sampled per-scale norms with the settings that produced them."""

    grid: ScaleGrid
    norms: np.ndarray = field(repr=False)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = np.asarray(self.norms, dtype=float)
        if n.shape != (self.grid.count,):
            raise InvalidParameter("profile length does not match grid")
        if not np.all(np.isfinite(n)) or np.any(n < 0):
            raise InvalidParameter("profile norms must be finite and nonnegative")
        object.__setattr__(self, "norms", n)

    def to_dict(self):
        return {
            "grid": {
                "y_min": self.grid.y_min,
                "y_max": self.grid.y_max,
                "count": self.grid.count,
            },
            "norms": self.norms.tolist(),
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, d):
        g = d["grid"]
        return cls(
            ScaleGrid(g["y_min"], g["y_max"], int(g["count"])),
            np.asarray(d["norms"], dtype=float),
            dict(d.get("meta", {})),
        )


def sweep(T, kernel, grid: ScaleGrid, k=0, p=2):
    """Profile N(y_j) = ||T * K_{y_j}||_{W^{k,p}} over the grid."""
    lo = min_scale(kernel, T.torus)
    if grid.y_min < lo * (1.0 - 1e-12):
        raise ScaleOutOfRange(
            f"grid bottom {grid.y_min:.3g} below kernel minimum scale {lo:.3g}"
        )
    norms = [sobolev_norm(convolve_scaled(T, kernel, y), k, p) for y in grid.values()]
    return ScaleProfile(
        grid,
        np.asarray(norms),
        {"k": k, "p": str(p), "kernel": kernel.label},
    )


def synthetic_profile(grid: ScaleGrid, fn, meta=None):
    """Profile from a closed-form N(y); used by calibration tests."""
    y = grid.values()
    return ScaleProfile(grid, np.asarray([fn(v) for v in y], dtype=float), meta or {})


def q_integral(profile: ScaleProfile, s, q):
    """Weighted scale integral with weight y^(+s), trapezoid in log y.

    q < inf: sum over the grid of (y^s N(y))^q d(log y) with endpoint
    halving (the plain left-endpoint rule misses the stated 2% quadrature
    target for steep integrands); q = inf: max of y^s N(y).  May return inf
    when the weighted terms overflow.
    """
    y = profile.grid.values()
    n = profile.norms
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.where(n > 0.0, y**s * n, 0.0)
        if q == "inf" or (isinstance(q, float) and math.isinf(q)):
            return float(np.max(terms))
        qv = float(q)
        if qv < 1.0:
            raise InvalidParameter(f"q must be in [1, inf], got {q}")
        powed = terms**qv
    w = np.ones_like(powed)
    w[0] = w[-1] = 0.5
    total = float(np.sum(w * powed) * profile.grid.log_step)
    return total


@dataclass(frozen=True)
class ExponentFit:
    """Tail power-law fit N(y) ~ c y^slope with OLS diagnostics."""

    slope: float
    stderr: float
    window: tuple  # (y_low, y_high) of the fitted suffix
    points: int
    residual: float

    @property
    def is_sentinel(self):
        return math.isinf(self.slope)

    def to_dict(self):
        return {
            "slope": None if self.is_sentinel else self.slope,
            "sentinel": self.is_sentinel,
            "stderr": self.stderr,
            "window": list(self.window),
            "points": self.points,
            "residual": self.residual,
        }


def critical_exponent(profile: ScaleProfile):
    """Fit the small-scale exponent of a profile.

    The window is the longest suffix (smallest scales) whose OLS residual
    stays below WINDOW_RESIDUAL_TOL in log units; ties break toward longer
    windows.  Profiles that are eventually exactly zero report a +inf
    sentinel slope.  Raises DegenerateProfile when more than half of the
    candidate window has underflowed.
    """
    y = profile.grid.values()
    n = profile.norms
    zero_tol = ZERO_RTOL * max(1.0, float(n.max()) if n.size else 1.0)
    nonzero = n > zero_tol

    if not nonzero.any():
        return ExponentFit(math.inf, 0.0, (y[-1], y[0]), n.size, 0.0)
    # eventually-zero profile: trailing zeros at the smallest scales
    trailing_zeros = n.size - 1 - np.max(np.nonzero(nonzero))
    if trailing_zeros >= 2:
        return ExponentFit(math.inf, 0.0, (y[-1], y[-1 - trailing_zeros]), int(trailing_zeros), 0.0)

    candidate = min(n.size, max(MIN_WINDOW, n.size // 2))
    tail_valid = nonzero[-candidate:]
    if np.sum(~tail_valid) > candidate // 2:
        raise DegenerateProfile(
            f"{int(np.sum(~tail_valid))} of the last {candidate} norms underflowed"
        )

    t = np.log(y[nonzero])
    b = np.log(n[nonzero])
    m = t.size
    if m < MIN_WINDOW:
        raise DegenerateProfile(f"only {m} usable scales")

    longest = None
    for w in range(m, MIN_WINDOW - 1, -1):
        tt, bb = t[-w:], b[-w:]
        slope, icept = np.polyfit(tt, bb, 1)
        resid = bb - (slope * tt + icept)
        maxres = float(np.max(np.abs(resid)))
        stderr = _slope_stderr(tt, resid)
        fit = ExponentFit(
            float(slope), stderr, (float(np.exp(tt[-1])), float(np.exp(tt[0]))), w, maxres
        )
        if longest is None:
            longest = fit
        if maxres <= WINDOW_RESIDUAL_TOL:
            return fit
    # no suffix is residual-clean (log-periodic wobble): the longest window
    # averages the wobble out, short ones fit a single staircase tread
    return longest


def _slope_stderr(t, resid):
    w = t.size
    if w <= 2:
        return 0.0
    var = float(np.sum(resid**2)) / (w - 2)
    sxx = float(np.sum((t - t.mean()) ** 2))
    return math.sqrt(var / sxx) if sxx > 0 else math.inf


def convergence_verdict(profile: ScaleProfile, s, q, margin=None):
    """Decide the y^(-s)-weighted integral by the exponent test a vs s.

    Power-law profiles make the q-integral with weight y^(-qs) converge
    exactly when the exponent a exceeds s (q < inf), or a >= s for the
    q = inf supremum.  Within the margin (default 3 * stderr) the verdict
    is "borderline": log corrections at the critical index distinguish
    q < inf from q = inf and finite data cannot resolve them.
    """
    fit = critical_exponent(profile)
    if fit.is_sentinel:
        return "convergent"
    m = margin if margin is not None else max(3.0 * fit.stderr, 1e-9)
    a = fit.slope
    if q == "inf" or (isinstance(q, float) and math.isinf(q)):
        return "convergent" if a >= s - m else "divergent"
    if a > s + m:
        return "convergent"
    if a < s - m:
        return "divergent"
    return "borderline"
