"""Besov norms, the mollifier-net embedding, and the regularity detectors.

The embedding net of a distribution T is eps -> T * phi_eps with phi the
flat-top mollifier; T lies in the Besov class of smoothness r exactly when
the W^{k,p} norms of the net grow no faster than eps^{r-k} (for any integer
k above r), so the fitted slope a of the net's norm profile yields
r_hat = k + a.  The detector escalates k until the estimate is trusted
(k > r_hat + 1), since the criterion is only meaningful for k above the
unknown smoothness.

Smoothness detection renders "some s works for every k" at finite k: the
per-k growth exponents s_hat(k) of a smooth distribution stay bounded,
while any distribution with finite smoothness r has s_hat(k) = k - r
growing at unit rate.  The decision threshold is the growth rate 1/2,
halfway between the two regimes.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter, InvalidPair
from .kernels import Kernel, _pair, verify_lp_conditions
from .nets import NetSpec
from .scales import (
    ScaleGrid,
    _line_fits,
    _profiles,
    critical_exponent,
    q_integral,
    sweep,
)
from .spectral import (
    SpectralFunction,
    _require,
    convolve_scaled,
    derivative_order,
    lp_norm,
    min_scale,
    parse_exponent,
    real_parameter,
    to_jsonable,
)

__all__ = [
    "RegularityReport",
    "SmoothEvidence",
    "besov_norm",
    "embed",
    "detect_regularity",
    "detect_smooth",
    "default_grid",
]

STDERR_CAP = 0.2
Y_FLOOR = 0.002  # smallest scale of default_grid, whatever the torus
K_CAP = 13
SMOOTH_GROWTH_THRESHOLD = 0.5


def default_grid(torus, kernel, y_max=0.25, count=24):
    """Analysis grid: count scales from just above the kernel's minimum scale
    to y_max.

    24 scales read every exponent the tests pin inside its tolerance: 16
    read lacunary series at N = 16384 past theirs, and 48, at twice the
    norms, read them "inconclusive" at N = 1024.  CHANGES.md has the
    per-family scan behind the count.
    """
    lo = max(min_scale(kernel, torus) * 1.05, Y_FLOOR)
    return ScaleGrid(lo, y_max, count)


def embed(T: SpectralFunction, phi, grid: ScaleGrid = None) -> NetSpec:
    """The mollifier net eps -> T * phi_eps, lazily evaluated.

    Continuity in eps holds by construction: the spectral multiplier
    phi_hat(eps xi) is continuous in eps.
    """
    _require(T, SpectralFunction, "T")
    if _require(phi, Kernel, "phi").kind != "mollifier":
        raise InvalidParameter("embedding requires a mollifier-kind kernel")
    eps_min = min_scale(phi, T.torus) if grid is None else _require(grid, ScaleGrid, "grid").y_min
    return NetSpec(
        "function",
        lambda e: convolve_scaled(T, phi, e),
        eps_min * (1.0 - 1e-12),
        None,
        f"embed[{phi.label}]",
    )


def besov_norm(T, s, p, q, pair, grid: ScaleGrid):
    """Truncated two-term norm: ||T * phi||_p plus the weighted psi-profile.

    The psi term integrates (y^{-s} ||T * psi_y||_p)^q against dy/y down to
    grid.y_min (q = inf: the sup).  Exponents, not norm values, carry the
    membership claims; the value is advisory at finite truncation.
    """
    s = real_parameter(s, "s")
    q = parse_exponent(q, "q")
    diag = verify_lp_conditions(pair, s)
    if not diag.passed:
        raise InvalidPair("; ".join(diag.failures))
    phi, psi = pair
    first = lp_norm(convolve_scaled(T, phi, 1.0), p)
    profile = sweep(T, psi, grid, k=0, p=p)
    tail = q_integral(profile, -s, q)
    if math.isinf(q):
        return first + tail
    return first + tail ** (1.0 / q)


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of the exponent detector."""

    r_hat: float  # estimated smoothness (math.inf when profiles vanish)
    s_hat: float
    k_used: int
    p: str
    q: str
    stderr: float
    window: tuple
    points: int
    residual: float
    verdict: str  # "besov" | "smooth" | "inconclusive"
    escalations: int = 0
    settings: dict = field(default_factory=dict)

    def to_dict(self):
        return to_jsonable(self)


def detect_regularity(T, p, q, k, pair, grid: ScaleGrid = None) -> RegularityReport:
    """Estimate the Besov smoothness r_hat of T from its mollifier net.

    Sweeps ||T * phi_eps||_{W^{k,p}} over the grid, fits the decay exponent,
    and reports r_hat = k + slope.  The estimate is only meaningful for
    k above the smoothness, so k escalates by 2 (capped) until
    k > r_hat + 1.  Verdict "inconclusive" when the fit is too noisy
    (stderr above 0.2) or the cap is hit.  The report carries p and q as
    parsed by spectral.parse_exponent ("inf" for None).
    """
    _require(T, SpectralFunction, "T")
    phi = _pair(pair)[0]
    p, q = parse_exponent(p), parse_exponent(q, "q")
    k = 1 if k == "auto" or k is None else derivative_order(k, "derivative order k")
    grid = default_grid(T.torus, phi) if grid is None else _require(grid, ScaleGrid, "grid")
    settings = {
        "kernel": phi.label,
        "grid": [grid.y_min, grid.y_max, grid.count],
    }
    escalations = 0
    profile_at = _profiles(T, phi, grid, p)
    while True:
        fit = critical_exponent(profile_at(k))
        r_hat = k + fit.slope  # inf for the vanishing-profile sentinel
        if fit.is_sentinel or k > r_hat + 1.0 or k + 2 > K_CAP:
            break
        k += 2
        escalations += 1
    trusted = k > r_hat + 1.0 and fit.stderr <= STDERR_CAP
    return RegularityReport(
        r_hat, -fit.slope, k, f"{p:g}", f"{q:g}", fit.stderr, fit.window, fit.points,
        fit.residual, "besov" if trusted else "inconclusive", escalations, settings,
    )


@dataclass(frozen=True)
class SmoothEvidence:
    """Per-order growth exponents and the boundedness decision."""

    smooth: bool
    growth_rate: float
    s_hat_by_k: list
    k_max: int
    s_witness: float
    threshold: float = SMOOTH_GROWTH_THRESHOLD

    def to_dict(self):
        return to_jsonable(self)


def detect_smooth(T, p, q, pair, grid: ScaleGrid = None, k_max=8) -> SmoothEvidence:
    """Boundedness of s_hat(k) over k <= k_max: the finite smoothness test.

    A smooth input keeps every mollifier-net profile bounded, so
    s_hat(k) ~ 0 for all k; finite smoothness r forces s_hat(k) = k - r.
    The growth rate of s_hat against k separates the regimes at 1/2.
    The witness s (a value making every per-k integral converge) is
    reported alongside; the cap k_max is part of the claim.  q is
    validated like every exponent, but no part of SmoothEvidence depends
    on it.

    All k_max + 1 order columns come from one pass over the scales, so
    each scale's convolution is made once and used at once: at p != 2 no
    full-torus field is rebuilt from its kept box (scales._profiles).
    """
    _require(T, SpectralFunction, "T")
    phi = _pair(pair)[0]
    p, q = parse_exponent(p), parse_exponent(q, "q")
    k_max = derivative_order(k_max, "k_max")
    if k_max < 4:
        raise InvalidParameter("k_max must be at least 4")
    grid = default_grid(T.torus, phi) if grid is None else _require(grid, ScaleGrid, "grid")
    profile_at = _profiles(T, phi, grid, p)
    profile_at(k_max)  # every column in one pass; the loop reads them
    s_hats = [-critical_exponent(profile_at(k)).slope for k in range(k_max + 1)]  # the sentinel's is -inf
    ks = np.arange(k_max + 1, dtype=float)
    finite = np.isfinite(s_hats)
    if finite.sum() >= 2:
        growth = float(_line_fits(ks[finite], np.asarray(s_hats)[finite], finite.sum())[0][0])
    else:
        growth = 0.0
    witness = max((s for s in s_hats if math.isfinite(s)), default=0.0) + 0.5
    smooth = growth <= SMOOTH_GROWTH_THRESHOLD and witness <= k_max + 1.0
    return SmoothEvidence(smooth, growth, [float(s) for s in s_hats], k_max, witness)
