"""Spectrally-defined convolution kernels: mollifiers and annular pairs.

All kernels are closed-form, compactly supported, piecewise-smooth bumps in
the frequency domain, glued with the standard C-infinity transition
t -> exp(-1/t).  A "mollifier" profile equals 1 exactly on a neighborhood of
xi = 0, which forces unit mass and makes every moment of order >= 1 vanish.
An "lp" profile vanishes identically near 0 and sits at 1 on the annulus
[eta*sigma, sigma], so all of its moments vanish; the pair (phi, psi) then
satisfies the two compatibility conditions (non-vanishing of phi_hat on the
ball, of psi_hat on the annulus, and the moment cancellations) with margin,
for every order.

Space-domain quantities (moments, reference norms, sample values) are
computed by synthesizing the kernel on a uniform grid fine enough that the
rectangle rule is alias-free for band-limited integrands, with an adaptive
window sized to the kernel's superpolynomial spatial decay.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter, QuadratureInaccurate

__all__ = [
    "Kernel",
    "build_mollifier",
    "build_lp_pair",
    "verify_lp_conditions",
    "LPDiagnostics",
    "moment",
    "kernel_samples",
    "kernel_space_norm",
]

MOMENT_TOL = 1e-8
POSITIVITY_TOL = 1e-12
MAX_MOMENT_ORDER = 16

# Fraction of sigma used for the outer roll-off of pair kernels; keeps the
# declared annulus [eta*sigma, sigma] on the plateau where the profile is
# exactly 1.
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
    """A radial spectral profile with its support/plateau metadata.

    Fields
    ------
    kind : "mollifier" or "lp"
    sigma : float
        Declared compatibility radius.
    eta : float
        Declared annulus ratio (lp kind; 0 for mollifiers).
    moment_order : float
        Vanishing-moment guarantee: orders 1..moment_order for mollifiers,
        0..moment_order for lp kernels.  inf for both constructions here.
    inner_support, outer_support : float
        The profile is exactly 0 for |xi| <= inner_support and
        |xi| >= outer_support.
    plateau : (float, float)
        Closed interval on which the profile is exactly 1.
    positive_from, positive_up_to : float
        Radii between which the profile is provably >= 1/2 (witness range
        for the non-vanishing checks).
    """

    kind: str
    sigma: float
    eta: float = 0.0
    moment_order: float = math.inf
    inner_support: float = 0.0
    outer_support: float = 0.0
    plateau: tuple = (0.0, 0.0)
    positive_from: float = 0.0
    positive_up_to: float = 0.0
    label: str = ""

    def profile(self, xi):
        """Evaluate the spectral profile at |xi| (vectorized, exact pieces)."""
        r = np.abs(np.asarray(xi, dtype=float))
        lo, hi = self.plateau
        out = np.zeros(r.shape)
        out[(r >= lo) & (r <= hi)] = 1.0
        if self.inner_support > 0.0:
            rise = (r > self.inner_support) & (r < lo)
            out[rise] = smoothstep(
                (r[rise] - self.inner_support) / (lo - self.inner_support)
            )
        fall = (r > hi) & (r < self.outer_support)
        out[fall] = smoothstep((self.outer_support - r[fall]) / (self.outer_support - hi))
        return out if out.shape else float(out)

    @property
    def min_transition(self):
        """Narrowest spectral transition; sets the spatial decay rate."""
        widths = [self.outer_support - self.plateau[1]]
        if self.inner_support > 0.0:
            widths.append(self.plateau[0] - self.inner_support)
        return min(widths)


def build_mollifier(sigma):
    """Flat-top mollifier: profile 1 on [0, sigma/2], supported in [0, sigma].

    Unit mass and all moments of order >= 1 vanish, by spectral flatness.
    """
    if not (sigma > 0):
        raise InvalidParameter(f"sigma must be positive, got {sigma}")
    return Kernel(
        kind="mollifier",
        sigma=float(sigma),
        eta=0.0,
        inner_support=0.0,
        outer_support=float(sigma),
        plateau=(0.0, sigma / 2.0),
        positive_from=0.0,
        positive_up_to=0.75 * sigma,  # smoothstep midpoint of the roll-off
        label=f"mollifier(sigma={sigma:g})",
    )


def build_lp_pair(sigma, eta):
    """Construct a compatible pair (phi, psi) for the given (sigma, eta).

    phi is a wide-plateau mollifier equal to 1 on all of [0, sigma]; psi is
    an annular bump equal to 1 on [eta*sigma, sigma], vanishing identically
    for |xi| <= eta*sigma/2.  Both roll off to zero at (1+pad)*sigma, so the
    declared non-vanishing ranges sit entirely on plateaus.

    Being band-limited, phi is not compactly supported in space: its decay
    is superpolynomial but not exponential, and phi_eps keeps O(1) values at
    distances comparable to eps.  For sigma = 32 and eps = 0.5, phi_eps is
    -0.231 at x = 0.5, and its periodization on the unit torus is -0.457.
    """
    if not (sigma > 0):
        raise InvalidParameter(f"sigma must be positive, got {sigma}")
    if not (0.0 < eta < 1.0):
        raise InvalidParameter(f"eta must lie in (0, 1), got {eta}")
    outer = (1.0 + _OUTER_PAD) * sigma
    phi = Kernel(
        kind="mollifier",
        sigma=float(sigma),
        eta=0.0,
        inner_support=0.0,
        outer_support=outer,
        plateau=(0.0, float(sigma)),
        positive_from=0.0,
        positive_up_to=sigma * (1.0 + _OUTER_PAD / 2.0),
        label=f"lp-phi(sigma={sigma:g})",
    )
    psi = Kernel(
        kind="lp",
        sigma=float(sigma),
        eta=float(eta),
        inner_support=eta * sigma / 2.0,
        outer_support=outer,
        plateau=(eta * sigma, float(sigma)),
        positive_from=0.75 * eta * sigma,
        positive_up_to=sigma * (1.0 + _OUTER_PAD / 2.0),
        label=f"lp-psi(sigma={sigma:g},eta={eta:g})",
    )
    return phi, psi


# ---------------------------------------------------------------------------
# Space-domain synthesis and quadrature
# ---------------------------------------------------------------------------


def kernel_samples(kernel, oversample=2, rel_floor=1e-14, max_doublings=10):
    """Synthesize K(x) on a uniform grid reaching the kernel's decay floor.

    Returns (x, values, dx).  The sample spacing dx <= pi / (oversample *
    outer_support) keeps the rectangle rule alias-free for any integrand
    whose transform is supported in [-outer_support, outer_support].  The
    half-width doubles until |K| at the window edge drops below rel_floor
    of its peak.
    """
    dx = math.pi / (oversample * kernel.outer_support)
    # decay length ~ 1/min_transition; start a few e-foldings out
    half = max(64.0 * dx, 48.0 / kernel.min_transition)
    for _ in range(max_doublings + 1):
        n = 1 << max(8, math.ceil(math.log2(2.0 * half / dx)))
        dxi = 2.0 * math.pi / (n * dx)
        grid_idx = np.arange(n) - n // 2
        xi = grid_idx * dxi
        prof = kernel.profile(xi)
        # F_j = (dxi/2pi) sum_m P_m exp(i xi_m x_j) with centered grids
        phase = np.where(grid_idx % 2 == 0, 1.0, -1.0)
        vals = np.fft.ifft(prof * phase) * n
        vals = (vals * phase).real * (dxi / (2.0 * math.pi))
        x = grid_idx * dx
        mag = np.abs(vals)
        edge = max(2, n // 32)
        tail = max(mag[:edge].max(), mag[-edge:].max())
        if tail <= rel_floor * mag.max():
            return x, vals, dx
        half *= 2.0
    raise QuadratureInaccurate(
        "kernel tail mass did not decay below tolerance within the window budget"
    )


# Gaussian taper steepness for the moment quadrature.  The taper's transform
# concentrates within |xi| <~ sqrt(4 g)/X_soft of zero, far inside the flat
# region of the profile, so tapering leaves a vanishing moment vanishing
# while a genuine moment defect (spectral mass at xi = 0) is measured
# faithfully.  The taper also suppresses the x^alpha amplification of the
# synthesis roundoff floor in the far field.
_TAPER_G = 50.0
_TAPER_SPAN = 220.0  # X_soft = span / narrowest spectral transition


def moment(kernel, alpha):
    """Space-domain moment: quadrature of x^alpha K(x) over a tapered window.

    alpha is a nonnegative integer (d = 1) or a 2-multi-index, limited to
    |alpha| <= 16 where the quadrature accuracy is documented.  The grid
    extends to where the kernel has decayed below 1e-14 of its peak; a
    smooth taper controls both the oscillatory truncation tail and the
    roundoff floor under the x^alpha weight.  For 2-d multi-indices the
    kernel is radial, so the moment reduces to an angular factor times a
    radial integral.
    """
    if np.isscalar(alpha):
        idx = (int(alpha),)
    else:
        idx = tuple(int(a) for a in alpha)
    if any(a < 0 for a in idx) or sum(idx) > MAX_MOMENT_ORDER:
        raise InvalidParameter(f"moment order {alpha} outside [0, {MAX_MOMENT_ORDER}]")
    if len(idx) == 1:
        x, vals, dx = kernel_samples(kernel)
        a = idx[0]
        weighted = x**a * vals
        est = float(np.sum(weighted * _taper(x, kernel)) * dx)
        if a:
            # window-sensitivity estimate: a genuine moment is insensitive to
            # the taper width, truncation/roundoff junk is not
            alt = float(np.sum(weighted * _taper(x, kernel, shrink=0.8)) * dx)
            if abs(est - alt) > _WINDOW_SENSITIVITY_TOL:
                raise QuadratureInaccurate(
                    f"order-{a} moment varies by {abs(est - alt):.2e} under "
                    "window change; kernel spectral transition too narrow"
                )
        return est
    if len(idx) == 2:
        a, b = idx
        if a % 2 or b % 2:
            return 0.0  # radial kernel, odd angular factor
        return _moment_2d(kernel, a, b)
    raise InvalidParameter("moment supports d = 1 or d = 2 multi-indices")


def _moment_2d(kernel, a, b, max_grid=4096):
    """Cartesian 2-d synthesis + rectangle rule (alias-free by band limit)."""
    x1d, _, dx = kernel_samples(kernel)
    n = x1d.size
    if n > max_grid:
        raise QuadratureInaccurate(
            f"2-d moment grid {n} exceeds the {max_grid} budget for this kernel"
        )
    dxi = 2.0 * math.pi / (n * dx)
    gi = np.arange(n) - n // 2
    rad = np.hypot.outer(gi * dxi, gi * dxi)
    prof = kernel.profile(rad)
    phase = np.where(gi % 2 == 0, 1.0, -1.0)
    ph2 = np.outer(phase, phase)
    vals = (np.fft.ifft2(prof * ph2) * n**2 * ph2).real * (dxi / (2.0 * math.pi)) ** 2
    x = gi * dx
    taper = _taper(np.hypot.outer(x, x), kernel)
    wa = x**a
    wb = x**b
    return float(np.einsum("i,j,ij,ij->", wa, wb, vals, taper) * dx * dx)


def _taper(x, kernel, shrink=1.0):
    x_soft = shrink * _TAPER_SPAN / kernel.min_transition
    return np.exp(-_TAPER_G * (x / x_soft) ** 2)


_WINDOW_SENSITIVITY_TOL = 1e-9


def kernel_space_norm(kernel, p, oversample=256):
    """Reference L^p(R) norm of the synthesized kernel (d = 1).

    Used as the scale-free side of dilation identities; the heavy
    oversampling controls the rectangle-rule error at the kinks of |K|^p.
    """
    x, vals, dx = kernel_samples(kernel, oversample=oversample)
    if p == "inf" or (isinstance(p, float) and math.isinf(p)) or p is None:
        return float(np.max(np.abs(vals)))
    p = float(p)
    return float((np.sum(np.abs(vals) ** p) * dx) ** (1.0 / p))


# ---------------------------------------------------------------------------
# Pair verification
# ---------------------------------------------------------------------------


@dataclass
class LPDiagnostics:
    """Outcome of a pair compatibility check (never raises)."""

    passed: bool
    order: float
    sigma_witness: float
    eta_witness: float
    min_phi: float
    min_psi: float
    moments: list = field(default_factory=list)  # (alpha, value) pairs
    failures: list = field(default_factory=list)

    def to_dict(self):
        return {
            "passed": self.passed,
            "order": self.order,
            "sigma_witness": self.sigma_witness,
            "eta_witness": self.eta_witness,
            "min_phi": self.min_phi,
            "min_psi": self.min_psi,
            "moments": [[a, v] for a, v in self.moments],
            "failures": list(self.failures),
        }


def verify_lp_conditions(pair, s, n_samples=64):
    """Check pair compatibility at order s; returns diagnostics, never raises.

    Non-vanishing is sampled on the witness ranges derived from the kernels'
    guaranteed-positive radii (the declared (sigma, eta) ranges of built
    pairs are plateaus, so those pass with margin).  Moment cancellation
    |m_alpha(psi)| < 1e-8 is checked for alpha <= floor(s); for s < 0 the
    moment requirement is empty.
    """
    phi, psi = pair
    failures = []
    sigma_w = min(phi.positive_up_to, psi.positive_up_to)
    if psi.positive_from > 0.0:
        eta_w = psi.positive_from / sigma_w
    else:
        eta_w = 0.5
    if not (0.0 < eta_w < 1.0):
        failures.append(f"no admissible annulus: eta witness {eta_w:.3g}")
        eta_w = min(max(eta_w, 1e-6), 1.0 - 1e-6)

    xs = (np.arange(n_samples) + 0.5) / n_samples
    phi_vals = phi.profile(xs * sigma_w)
    psi_vals = psi.profile(eta_w * sigma_w + xs * (sigma_w - eta_w * sigma_w))
    min_phi = float(np.min(np.abs(phi_vals)))
    min_psi = float(np.min(np.abs(psi_vals)))
    if min_phi <= POSITIVITY_TOL:
        failures.append(f"phi profile vanishes on [0, {sigma_w:.4g}]: min {min_phi:.3g}")
    if min_psi <= POSITIVITY_TOL:
        failures.append(
            f"psi profile vanishes on [{eta_w * sigma_w:.4g}, {sigma_w:.4g}]: min {min_psi:.3g}"
        )

    moments = []
    if s >= 0:
        for a in range(int(math.floor(s)) + 1):
            try:
                val = moment(psi, a)
            except QuadratureInaccurate as exc:
                failures.append(f"moment {a} of psi not certifiable: {exc}")
                continue
            moments.append((a, val))
            if abs(val) >= MOMENT_TOL:
                failures.append(f"moment {a} of psi is {val:.3e} (tol {MOMENT_TOL:g})")

    return LPDiagnostics(
        passed=not failures,
        order=float(s),
        sigma_witness=float(sigma_w),
        eta_witness=float(eta_w),
        min_phi=min_phi,
        min_psi=min_psi,
        moments=moments,
        failures=failures,
    )
