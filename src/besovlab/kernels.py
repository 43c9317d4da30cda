"""Spectrally-defined convolution kernels: mollifiers and annular pairs.

A kernel is its profile pieces: an inner support, a plateau where the
profile is exactly 1 and an outer support, glued with the standard
C-infinity transition t -> exp(-1/t).  A "mollifier" (inner support 0)
equals 1 near xi = 0, which forces unit mass and makes every moment of
order >= 1 vanish.  An "lp" profile vanishes identically near 0 and sits at
1 on the annulus [eta*sigma, sigma], so all of its moments vanish; the pair
(phi, psi) then satisfies the two compatibility conditions (non-vanishing
of phi_hat on the ball, of psi_hat on the annulus, and the moment
cancellations) with margin, for every order.

The pieces decide the rest.  The kind is read off the inner support, and
the witness radii are the midpoints of the rise and of the roll-off, where
the profile is 1/2.  A profile rises, then falls (Kernel refuses pieces
that do not glue smoothly), so verify_lp_conditions reads its exact minimum
on a range off the two ends.  A moment of order alpha is i^|alpha| times
the alpha-th derivative of the transform at 0, where every profile is
constant: moment reads the mass off profile(0) and returns exactly 0 for
every higher order, with no quadrature.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter
from .spectral import _require, _shown, derivative_order, real_parameter, to_jsonable

__all__ = [
    "Kernel",
    "smoothstep",
    "build_mollifier",
    "build_lp_pair",
    "verify_lp_conditions",
    "LPDiagnostics",
    "moment",
]

MOMENT_TOL = 1e-8
POSITIVITY_TOL = 1e-12

# Fraction of sigma used for the outer roll-off of pair kernels; keeps the
# annulus [eta*sigma, sigma] on the plateau where the profile is exactly 1,
# inside the derived witness range.
_OUTER_PAD = 0.25


def smoothstep(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, exp(-1/t) glue between."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    ga = np.exp(-1.0 / tm)
    gb = np.exp(-1.0 / (1.0 - tm))
    out[mid] = ga / (ga + gb)
    return out if out.shape else float(out)


@dataclass(frozen=True)
class Kernel:
    """A radial spectral profile given by its pieces.

    Fields
    ------
    inner_support, outer_support : float
        The profile is exactly 0 for |xi| <= inner_support and
        |xi| >= outer_support.
    plateau : (float, float)
        Closed interval on which the profile is exactly 1.

    Between them the profile rises (when inner_support > 0) and rolls off
    by smoothstep; kind and the witness radii are derived from the pieces.
    Each piece must be a finite real, and is kept as a float.
    profile must depend only on these frozen fields: spectral caches the
    multipliers it gives by kernel equality.  The hash is computed once,
    from the pieces only, leaving label out: it is the same in every
    process, and a pickled kernel keeps a valid one.
    """

    inner_support: float
    outer_support: float
    plateau: tuple
    label: str = ""

    def __post_init__(self):
        try:
            lo, hi = self.plateau
        except (TypeError, ValueError):
            raise InvalidParameter(f"plateau must be a pair, got {_shown(self.plateau)}") from None
        inner = real_parameter(self.inner_support, "inner_support")
        lo, hi = real_parameter(lo, "plateau"), real_parameter(hi, "plateau")
        outer = real_parameter(self.outer_support, "outer_support")
        if not ((inner == lo == 0.0 or 0.0 < inner < lo) and lo <= hi < outer):
            raise InvalidParameter(
                f"profile pieces must glue smoothly: inner_support {inner}, "
                f"plateau {self.plateau}, outer_support {outer}"
            )
        for name, value in (("inner_support", inner), ("plateau", (lo, hi)), ("outer_support", outer)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_hash", hash((inner, lo, hi, outer)))

    def __hash__(self):
        return self._hash

    def profile(self, xi):
        """Evaluate the spectral profile at |xi| (vectorized, exact pieces):
        the roll-off smoothstep times, when inner_support > 0, the rise."""
        r = np.abs(np.asarray(xi, dtype=float))
        lo, hi = self.plateau
        out = smoothstep((self.outer_support - r) / (self.outer_support - hi))
        if self.inner_support > 0.0:
            out = out * smoothstep((r - self.inner_support) / (lo - self.inner_support))
        return out

    @property
    def kind(self):
        """The kind: "lp" when the profile vanishes near 0, else "mollifier"."""
        return "lp" if self.inner_support > 0.0 else "mollifier"

    @property
    def positive_from(self):
        """Midpoint of the rise, where the profile is 1/2 (0 for a mollifier)."""
        return (self.inner_support + self.plateau[0]) / 2.0 if self.inner_support > 0.0 else 0.0

    @property
    def positive_up_to(self):
        """Midpoint of the roll-off, where the profile is 1/2."""
        return (self.plateau[1] + self.outer_support) / 2.0


def build_mollifier(sigma):
    """Flat-top mollifier: profile 1 on [0, sigma/2], supported in [0, sigma].

    Unit mass and all moments of order >= 1 vanish, by spectral flatness.
    """
    sigma = real_parameter(sigma, "sigma", 0.0)
    return Kernel(
        inner_support=0.0,
        outer_support=sigma,
        plateau=(0.0, sigma / 2.0),
        label=f"mollifier(sigma={sigma:g})",
    )


def build_lp_pair(sigma, eta):
    """Construct a compatible pair (phi, psi) for the given (sigma, eta).

    phi is a wide-plateau mollifier equal to 1 on all of [0, sigma]; psi is
    an annular bump equal to 1 on [eta*sigma, sigma], vanishing identically
    for |xi| <= eta*sigma/2.  Both roll off to zero at (1+pad)*sigma, so the
    annulus [eta*sigma, sigma] sits on both plateaus.

    Being band-limited, phi is not compactly supported in space: its decay
    is superpolynomial but not exponential, and phi_eps keeps O(1) values at
    distances comparable to eps.  For sigma = 32 and eps = 0.5, phi_eps is
    -0.231 at x = 0.5, and its periodization on the unit torus is -0.457.
    """
    sigma = real_parameter(sigma, "sigma", 0.0)
    eta = real_parameter(eta, "eta", 0.0, 1.0)
    outer = (1.0 + _OUTER_PAD) * sigma
    phi = Kernel(
        inner_support=0.0,
        outer_support=outer,
        plateau=(0.0, sigma),
        label=f"lp-phi(sigma={sigma:g})",
    )
    psi = Kernel(
        inner_support=eta * sigma / 2.0,
        outer_support=outer,
        plateau=(eta * sigma, sigma),
        label=f"lp-psi(sigma={sigma:g},eta={eta:g})",
    )
    return phi, psi


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------


def moment(kernel, alpha):
    """Space-domain moment of x^alpha K(x), read off the profile at xi = 0.

    alpha is a nonnegative integer (d = 1) or a 2-multi-index.  The moment
    is i^|alpha| times the alpha-th derivative of the transform at 0, where
    every profile is constant: it is profile(0) for alpha = 0 and exactly 0
    for every |alpha| >= 1, in 1-d and 2-d.
    """
    _require(kernel, Kernel, "kernel")
    idx = tuple(derivative_order(a, "moment order") for a in np.atleast_1d(alpha))
    if len(idx) not in (1, 2):
        raise InvalidParameter("moment supports d = 1 or d = 2 multi-indices")
    return 0.0 if sum(idx) else float(kernel.profile(0.0))


# ---------------------------------------------------------------------------
# Pair verification
# ---------------------------------------------------------------------------


@dataclass
class LPDiagnostics:
    """Outcome of a pair compatibility check."""

    passed: bool
    order: float
    sigma_witness: float
    eta_witness: float
    min_phi: float
    min_psi: float
    moments: list = field(default_factory=list)  # (alpha, value) pairs
    failures: list = field(default_factory=list)

    def to_dict(self):
        return to_jsonable(self)


def _pair(pair):
    """pair, when it is a tuple (phi, psi) of two kernels, else InvalidParameter."""
    if not (isinstance(pair, tuple) and len(pair) == 2 and all(isinstance(k, Kernel) for k in pair)):
        raise InvalidParameter(f"pair must be a tuple (phi, psi) of two Kernels, got {_shown(pair)}")
    return pair


def verify_lp_conditions(pair, s):
    """Check pair compatibility at order s; returns diagnostics, and raises
    only when pair is not two Kernels.

    Non-vanishing is checked exactly: a profile rises, then falls, so its
    minimum on a witness range is the smaller end value.  The ranges are
    phi's [0, sigma_w] and psi's [eta_w sigma_w, sigma_w], from the derived
    radii (sigma_w / 2 for a mollifier psi); built pairs read 1/2.
    Moment cancellation |m_alpha(psi)| < 1e-8 is checked for alpha <=
    floor(s); for s < 0 the moment requirement is empty.  An s that is not
    a finite real number is a failure, with no moments checked.
    """
    phi, psi = _pair(pair)
    failures = []
    try:
        order = real_parameter(s, "order")
    except InvalidParameter:
        order = math.nan
        failures.append(f"order must be a finite real number, got {_shown(s)}")
    sigma_w = min(phi.positive_up_to, psi.positive_up_to)
    inner_w = psi.positive_from if psi.positive_from > 0.0 else 0.5 * sigma_w
    eta_w = inner_w / sigma_w
    if not (0.0 < eta_w < 1.0):
        failures.append(f"no admissible annulus: eta witness {eta_w:.3g}")
        eta_w = min(max(eta_w, 1e-6), 1.0 - 1e-6)
        inner_w = eta_w * sigma_w

    min_phi = float(np.min(np.abs(phi.profile([0.0, sigma_w]))))
    min_psi = float(np.min(np.abs(psi.profile([inner_w, sigma_w]))))
    if min_phi <= POSITIVITY_TOL:
        failures.append(f"phi profile vanishes on [0, {sigma_w:.4g}]: min {min_phi:.3g}")
    if min_psi <= POSITIVITY_TOL:
        failures.append(
            f"psi profile vanishes on [{inner_w:.4g}, {sigma_w:.4g}]: min {min_psi:.3g}"
        )

    moments = []
    if order >= 0:
        for a in range(int(math.floor(order)) + 1):
            val = moment(psi, a)
            moments.append((a, val))
            if abs(val) >= MOMENT_TOL:
                failures.append(f"moment {a} of psi is {val:.3e} (tol {MOMENT_TOL:g})")

    return LPDiagnostics(
        passed=not failures,
        order=order,
        sigma_witness=float(sigma_w),
        eta_witness=float(eta_w),
        min_phi=min_phi,
        min_psi=min_psi,
        moments=moments,
        failures=failures,
    )
