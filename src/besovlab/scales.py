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

from .errors import DegenerateProfile, InvalidParameter
from .kernels import Kernel
from .spectral import (
    SpectralFunction,
    _band_restrict,
    _band_torus,
    _central,
    _kernel_multiplier,
    _require,
    _shown,
    convolve_scaled,
    derivative_order,
    parse_exponent,
    real_parameter,
    sobolev_table,
    to_jsonable,
)

__all__ = [
    "ScaleGrid",
    "ScaleProfile",
    "ExponentFit",
    "sweep",
    "q_integral",
    "critical_exponent",
    "convergence_verdict",
]

# Norms below max(1, profile peak) * this are treated as exact zeros.
ZERO_RTOL = 1e-13
# Longest-suffix window selection: residual tolerance in log units.
WINDOW_RESIDUAL_TOL = 0.05
MIN_WINDOW = 8


@dataclass(frozen=True)
class ScaleGrid:
    """Geometric grid y_j = y_max * rho^j, j = 0..count-1, descending, for
    0 < y_min < y_max <= 1 (kept as floats) and an integer count >= 16
    (kept as an int)."""

    y_min: float
    y_max: float = 1.0
    count: int = 48

    def __post_init__(self):
        y_max = real_parameter(self.y_max, "y_max", 0.0, at_most=1.0)
        object.__setattr__(self, "y_min", real_parameter(self.y_min, "y_min", 0.0, y_max))
        object.__setattr__(self, "y_max", y_max)
        count = real_parameter(self.count, "scale count", at_least=16, integer=True)
        object.__setattr__(self, "count", count)

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
        _require(self.grid, ScaleGrid, "grid")
        n = np.asarray(self.norms, dtype=float)
        if n.shape != (self.grid.count,):
            raise InvalidParameter("profile length does not match grid")
        if not np.all(np.isfinite(n)) or np.any(n < 0):
            raise InvalidParameter("profile norms must be finite and nonnegative")
        object.__setattr__(self, "norms", n)

    def to_dict(self):
        return to_jsonable(self)

    @classmethod
    def from_dict(cls, d):
        """The profile of a to_dict() form (meta optional); anything else
        raises InvalidParameter."""
        _require(d, dict, "profile dict")
        try:
            g, norms = d["grid"], np.asarray(d["norms"], dtype=float)
            bounds = g["y_min"], g["y_max"], g["count"]
            meta = dict(d.get("meta", {}))
        except (KeyError, TypeError, ValueError):
            raise InvalidParameter(
                f"profile dict needs the grid and norms of ScaleProfile.to_dict, got keys {_shown(list(d))}"
            ) from None
        return cls(ScaleGrid(*bounds), norms, meta)


def sweep(T, kernel, grid: ScaleGrid, k=0, p=2):
    """Profile N(y_j) = ||T * K_{y_j}||_{W^{k,p}} over the grid: at each scale
    the max over the order columns 0..k of sobolev_table, from the
    convolutions of _profiles.
    """
    k = derivative_order(k)
    return _profiles(T, kernel, grid, p)(k)


def _profiles(T, kernel, grid: ScaleGrid, p):
    """k -> sweep(T, kernel, grid, k, p), each norm computed once: the engine
    of sweep and of the detectors.

    Each scale is convolved once.  At p = 2 it is convolved on its band
    torus (_band_restrict), and the fields are made first and kept: the
    scales share few band tori (8 for the 24 scales of default_grid at N =
    16384), and T is restricted once to each.  Made one at a time between
    the norms instead, the fields, which grow toward the fine scales, cost
    a warm N = 16384 analysis about 160 minor faults.  Other p keep T's
    torus, on which the grid sup and the rectangle rules sample: the first
    call streams the full-torus fields to sobolev_table, one at a time, and
    keeps the modes of each that can be nonzero, in its box of _boxes: for
    a real T only the half with last-axis modes 0..b, since the other half
    is their conjugate.  A later call rebuilds the fields on T's torus from
    the boxes, one at a time, with the same norms.  The order columns are
    kept in a list; a call for a higher k appends the missing orders in one
    sobolev_table pass, and profile k is the max of columns 0..k.
    """
    _require(T, SpectralFunction, "T")
    _require(kernel, Kernel, "kernel")
    _require(grid, ScaleGrid, "grid")
    p = parse_exponent(p)
    columns = []  # columns[j]: the order-j norms at every scale
    if p == 2.0:
        ys = grid.values()
        bands = [_band_torus(kernel, T.torus, y) for y in ys]
        source = {band: _band_restrict(T, band) for band in dict.fromkeys(bands)}
        convs = [convolve_scaled(source[band], kernel, y) for band, y in zip(bands, ys)]

        def fields():
            return convs
    else:
        boxes = _boxes(T, kernel, grid)

        def keep(b, box, y):
            f = convolve_scaled(T, kernel, y)
            box[...] = f.coefficients[_box_index(T.torus, b, T.is_real())]
            return f

        def fields():
            if columns:
                return (_unbox(T, b, box) for b, box in boxes)
            # a generator: it holds no field between two scales
            return (keep(b, box, y) for (b, box), y in zip(boxes, grid.values()))

    def profile_at(k):
        if k >= len(columns):
            columns.extend(sobolev_table(fields(), range(len(columns), k + 1), p).T)
        meta = {"k": k, "p": f"{p:g}", "kernel": kernel.label}
        return ScaleProfile(grid, np.max(columns[: k + 1], axis=0), meta)

    return profile_at


def _box_index(torus, b, real):
    """The index of the modes a box keeps in torus's coefficient array: -b..b
    on every axis, but 0..b on the last one for a real field, whose modes
    -b..-1 there are the conjugates of the all-axes flip (_unbox)."""
    m = torus.mode_max
    return _central(torus, b)[:-1] + (slice(m if real else m - b, m + b + 1),)


def _boxes(T, kernel, grid):
    """Pairs (b, box), one per scale y of grid: b, the box half-width of
    _kernel_multiplier(kernel, T.torus, y), outside of whose central
    (2b+1)^d modes every mode of convolve_scaled(T, kernel, y) is exactly 0,
    and a view of one new array shaped for the modes of _box_index(T.torus,
    b, T's realness), so _unbox of a filled box gives back the convolution.
    A real T's box holds (2b+1)^(d-1) (b+1) modes, a complex T's (2b+1)^d.

    One array, not one per scale: its size is fixed by the kernel, the grid,
    the torus and T's realness (for default_grid, 1.37 MB at 128^2 and 0.18
    MB at N = 4096 for a real T; 2.72 and 0.36 MB for a complex T).  glibc's
    malloc serves a block that size by mmap the first time and, when it is
    freed, raises its mmap and trim thresholds past it.  The heap then keeps
    the pages of an analysis's transient arrays instead of trimming them
    after each scale and faulting them back in.  Boxes of their own, each
    below the threshold, leave that to the order in which a process happens
    to run its analyses.  The trim threshold is twice the array, which at
    128^2 is less than a 2-d analysis frees at its end: between analyses
    the heap can still be trimmed, and the next 2-d one faults about 340
    pages back in.  The one array carries the 1-d analyses too: over 7
    blocks of the benchmark's detect-lp mix at seed 4711, with one array
    per scale's box the 1-d analyses took 170,521 minor faults against
    390, the host-speed probes after them 241,911 against 382, and their
    median 21.0 against 19.2 ms, so the array stays one.
    """
    bands = [_kernel_multiplier(kernel, T.torus, y)[1] for y in grid.values()]
    shapes = [tuple(s.stop - s.start for s in _box_index(T.torus, b, T.is_real())) for b in bands]
    sizes = [math.prod(shape) for shape in shapes]
    parts = np.split(np.empty(sum(sizes), complex), np.cumsum(sizes)[:-1])
    return [(b, part.reshape(shape)) for b, part, shape in zip(bands, parts, shapes)]


def _unbox(T, b, box):
    """The function-tagged field on T's torus with the modes of a filled box
    (b, box) of _boxes, real by T._derived's rule: with no compare when T is
    real.  For a real T the stored modes are written first, then the last
    axis's modes -b..-1 are the conjugates of the all-axes flip: bitwise the
    convolution's, since its multiplier is even and has a zero imaginary
    part, so the product keeps T's exact symmetry."""
    full = np.zeros(T.torus.coeff_shape(), complex)
    full[_box_index(T.torus, b, T.is_real())] = box
    if T.is_real():
        m = T.torus.mode_max
        full[..., m - b : m] = np.conj(np.flip(full[..., m + 1 : m + b + 1]))
    return T._derived(full, tag="function")


def q_integral(profile: ScaleProfile, s, q):
    """Weighted scale integral with weight y^(+s), trapezoid in log y.

    q < inf: sum over the grid of (y^s N(y))^q d(log y) with endpoint
    halving (the plain left-endpoint rule misses the stated 2% quadrature
    target for steep integrands); q = inf: max of y^s N(y).  May return inf
    when the weighted terms overflow.
    """
    _require(profile, ScaleProfile, "profile")
    s = real_parameter(s, "s")
    q = parse_exponent(q, "q")
    y = profile.grid.values()
    n = profile.norms
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.where(n > 0.0, y**s * n, 0.0)
        if math.isinf(q):
            return float(np.max(terms))
        powed = terms**q
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
        return {**to_jsonable(self), "sentinel": self.is_sentinel}


def critical_exponent(profile: ScaleProfile):
    """Fit the small-scale exponent of a profile.

    The window is the longest suffix (smallest scales) whose OLS residual
    stays below WINDOW_RESIDUAL_TOL in log units; ties break toward longer
    windows.  Profiles that are eventually exactly zero report a +inf
    sentinel slope.  Raises DegenerateProfile when more than half of the
    candidate window has underflowed.
    """
    _require(profile, ScaleProfile, "profile")
    y = profile.grid.values()
    n = profile.norms
    zero_tol = ZERO_RTOL * max(1.0, float(n.max()))
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

    slope, _, maxres, stderr = _line_fits(t, b, MIN_WINDOW)
    # the longest residual-clean suffix, else the longest: under log-periodic
    # wobble it averages the wobble out, short ones fit a single staircase tread
    clean = np.flatnonzero(maxres <= WINDOW_RESIDUAL_TOL)
    i = int(clean[0]) if clean.size else 0
    window = (float(np.exp(t[-1])), float(np.exp(t[i])))
    return ExponentFit(float(slope[i]), float(stderr[i]), window, m - i, float(maxres[i]))


def _line_fits(t, b, shortest):
    """OLS fits b ~ slope t + icept of every suffix of (t, b) with at least
    `shortest` points, longest first: the arrays (slope, icept, maxres,
    stderr), entry i for the suffix t[i:].

    Suffix sums give every window's means, and one (suffixes x points)
    table of window-centred t and b gives every slope, residual and slope
    stderr (0 for two points) at once, with the accuracy of a two-pass fit.
    """
    w = np.arange(t.size, shortest - 1, -1)
    tb = np.stack([t, b])
    mean_t, mean_b = means = np.cumsum(tb[:, ::-1], axis=1)[:, ::-1][:, : w.size] / w
    tw, bw = (tb[:, None, :] - means[:, :, None]) * (np.arange(t.size) >= np.arange(w.size)[:, None])
    sxx = np.einsum("ij,ij->i", tw, tw)
    slope = np.einsum("ij,ij->i", tw, bw) / sxx
    resid = bw - slope[:, None] * tw
    stderr = np.sqrt(np.einsum("ij,ij->i", resid, resid) / np.maximum(w - 2, 1) / sxx) * (w > 2)
    return slope, mean_b - slope * mean_t, np.max(np.abs(resid), axis=1), stderr


def convergence_verdict(profile: ScaleProfile, s, q):
    """Decide the y^(-s)-weighted integral by the exponent test a vs s.

    Power-law profiles make the q-integral with weight y^(-qs) converge
    exactly when the exponent a exceeds s (q < inf), or a >= s for the
    q = inf supremum.  Within the margin of 3 fit stderrs (at least 1e-9)
    the verdict is "borderline": log corrections at the critical index
    distinguish q < inf from q = inf and finite data cannot resolve them.
    """
    s = real_parameter(s, "s")
    q = parse_exponent(q, "q")
    return _fit_verdict(critical_exponent(profile), s, q)


def _fit_verdict(fit: ExponentFit, s, q):
    """The exponent test of convergence_verdict for a fit already made (q parsed)."""
    if fit.is_sentinel:
        return "convergent"
    m = max(3.0 * fit.stderr, 1e-9)
    a = fit.slope
    if math.isinf(q):
        return "convergent" if a >= s - m else "divergent"
    if a > s + m:
        return "convergent"
    if a < s - m:
        return "divergent"
    return "borderline"
