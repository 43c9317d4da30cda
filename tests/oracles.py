"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the package's FFT synthesis and torus
quadrature paths: direct mode summation, direct cosine quadrature of
spectral profiles, space-domain kernel synthesis on R, and sampled
difference quotients.
"""

import math

import numpy as np

from besovlab.errors import QuadratureInaccurate
from besovlab.scales import ScaleProfile
from besovlab.spectral import SpectralFunction, parse_exponent, real_parameter

_SAMPLE_REL_FLOOR = 1e-14  # kernel_samples: |K| at the window edge over its peak
_MAX_DOUBLINGS = 10  # kernel_samples: window doublings allowed to reach that floor


def min_transition(kernel):
    """Narrowest spectral transition of a kernel; sets its spatial decay rate."""
    widths = [kernel.outer_support - kernel.plateau[1]]
    if kernel.inner_support > 0.0:
        widths.append(kernel.plateau[0] - kernel.inner_support)
    return min(widths)


def kernel_samples(kernel, oversample=2):
    """Synthesize K(x) on a uniform grid of R reaching the kernel's decay floor.

    Returns (x, values, dx).  The sample spacing dx = pi / (oversample *
    outer_support), with a finite oversample >= 1, keeps the rectangle rule
    alias-free for any integrand whose transform is supported in
    [-outer_support, outer_support]; a coarser grid aliases K itself.  The
    half-width doubles, at most 10 times, until |K| at the window edge drops
    below 1e-14 of its peak; QuadratureInaccurate is raised otherwise.
    """
    oversample = real_parameter(oversample, "oversample", at_least=1.0)
    dx = math.pi / (oversample * kernel.outer_support)
    # decay length ~ 1/min_transition; start a few e-foldings out
    half = max(64.0 * dx, 48.0 / min_transition(kernel))
    for _ in range(_MAX_DOUBLINGS + 1):
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
        if tail <= _SAMPLE_REL_FLOOR * mag.max():
            return x, vals, dx
        half *= 2.0
    raise QuadratureInaccurate(
        "kernel tail mass did not decay below tolerance within the window budget"
    )


def kernel_space_norm(kernel, p, oversample=256):
    """Reference L^p(R) norm of the synthesized kernel (d = 1).

    The scale-free side of dilation identities; the heavy oversampling
    controls the rectangle-rule error at the kinks of |K|^p.  oversample is
    that of kernel_samples, at least 1.
    """
    p = parse_exponent(p)
    x, vals, dx = kernel_samples(kernel, oversample=oversample)
    if math.isinf(p):
        return float(np.max(np.abs(vals)))
    return float((np.sum(np.abs(vals) ** p) * dx) ** (1.0 / p))


def dilate(f, factor):
    """f(factor x) for a 1-d f and an integer factor >= 1: mode m moves to
    factor * m, and the modes that would leave the torus's range are dropped."""
    mmax = f.torus.mode_max
    out = np.zeros_like(f.coefficients)
    src = np.arange(-(mmax // factor), mmax // factor + 1)
    out[src * factor + mmax] = f.coefficients[src + mmax]
    return SpectralFunction(f.torus, out, f.tag)


def synthetic_profile(grid, fn, meta=None):
    """Profile of a closed-form N(y) over the grid."""
    return ScaleProfile(grid, np.asarray([fn(v) for v in grid.values()], dtype=float), meta or {})


def direct_mode_sum(coeffs, length, points):
    """Brute-force synthesis sum_m c_m exp(i xi_m x) at given x points (d=1)."""
    mmax = (len(coeffs) - 1) // 2
    m = np.arange(-mmax, mmax + 1)
    xi = 2.0 * np.pi * m / length
    return np.array([np.sum(coeffs * np.exp(1j * xi * x)) for x in points])


def trigonometric_l1(coeffs, length, density=64, steps=40):
    """||f||_1 of a real trigonometric polynomial over one period (d=1).

    f(x) = sum_m c_m exp(i xi_m x) is summed directly, by Horner in
    exp(2 pi i x / L) over the modes 1..B up to its top nonzero mode B, on
    density * B points.  Each sign change there is refined by bisection to
    a zero z_k, and the integral is sum_k |F(z_k+1) - F(z_k)| over
    consecutive zeros, F the exact antiderivative.  Zero pairs closer than
    L / (density * B) count as none.
    """
    c = np.asarray(coeffs, dtype=complex)
    mmax = (c.size - 1) // 2
    mean = c[mmax].real
    active = np.flatnonzero(c[mmax + 1 :])
    if active.size == 0:
        return abs(mean) * length
    top = int(active[-1]) + 1
    amp = 2.0 * c[mmax + 1 : mmax + top + 1]  # modes 1..top, with their mirrors
    anti = amp / (2j * np.pi * np.arange(1, top + 1) / length)

    def mode_sum(a, x):
        z = np.exp(2j * np.pi * x / length)
        acc = np.zeros(x.size, dtype=complex)
        for am in a[::-1]:
            acc += am
            acc *= z
        return acc.real

    k = max(256, density * top)
    x = np.arange(k) * (length / k)
    pos = mean + mode_sum(amp, x) > 0
    cells = np.flatnonzero(pos != np.roll(pos, -1))
    if cells.size == 0:
        return abs(mean) * length
    lo, hi = x[cells], x[cells] + length / k
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        same = (mean + mode_sum(amp, mid) > 0) == pos[cells]
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    z = 0.5 * (lo + hi)
    z = np.append(z, z[0] + length)
    return float(np.sum(np.abs(np.diff(mean * z + mode_sum(anti, z)))))


def padded_zero_places(m, p):
    """The kink cells and dip nodes of spectral._zero_places, from |v| = m
    and v > 0 = p, by its first form: both arrays padded with one periodic
    neighbour on either side, so that the wrap is one more interior entry."""
    m, p = (np.concatenate((a[-1:], a, a[:1])) for a in (m, p))
    flips = p[:-1] != p[1:]  # flips[j]: between nodes j - 1 and j
    kinks = np.flatnonzero(flips[1:])
    low = 3.0 * m[1:-1] < m[:-2] + m[2:]
    lows = np.flatnonzero(low > (flips[:-1] | flips[1:]))  # low and no flip
    return kinks, lows


def divmod_even_cells(places):
    """The even-sample stencil indices and offsets of spectral._even_cells,
    by the first form of the p = 1 rule's coarse pass: np.divmod of the
    halved places by 1."""
    nodes, theta = np.divmod(places / 2.0, 1.0)
    return 2 * (nodes.astype(np.intp) + np.arange(-2, 4)[:, None]), theta


def gathered_twists(n, size, b):
    """The twists w^(s m) of spectral._twists, s < n/size and m = 0..b, by the
    first form of the coset sup: the n-th roots of unity exp(2 pi i k / n),
    k < n/2, gathered per call at k = s m."""
    roots = np.exp((2j * np.pi / n) * np.arange(n // 2))
    return roots.take(np.multiply.outer(np.arange(n // size), np.arange(b + 1)))


def kernel_space_samples(kernel, x, resolution=512.0):
    """K(x) by direct cosine quadrature of the spectral profile (even, real)."""
    dxi = min_transition(kernel) / resolution
    xi = np.arange(0.0, kernel.outer_support + dxi, dxi)
    w = np.ones_like(xi)
    w[0] = 0.5
    prof = kernel.profile(xi) * w
    out = np.empty(len(x))
    block = 2048
    x = np.asarray(x, dtype=float)
    for i in range(0, x.size, block):
        out[i : i + block] = np.cos(np.outer(x[i : i + block], xi)) @ prof
    return out * dxi / np.pi


def periodized_kernel_samples(kernel, y, x, length, resolution=512.0):
    """Periodized dilate sum_k K((x - k L)/y) / y at the points x (d=1).

    The mollified unit Dirac on a torus of length L.  Images come in pairs
    +-k and are added until a pair contributes less than 1e-6 of the peak
    K(0)/y; a ValueError is raised if that would take the argument past half
    the alias period of the cosine quadrature in kernel_space_samples.
    """
    x = np.asarray(x, dtype=float)
    peak = abs(kernel_space_samples(kernel, np.zeros(1), resolution)[0]) / y
    alias_free = np.pi * resolution / min_transition(kernel)
    out = kernel_space_samples(kernel, x / y, resolution) / y
    k = 0
    while True:
        k += 1
        u = np.concatenate([(x - k * length) / y, (x + k * length) / y])
        if np.max(np.abs(u)) >= alias_free:
            raise ValueError(f"image {k} at scale {y:g} lies past the alias-free range")
        pair = kernel_space_samples(kernel, u, resolution).reshape(2, -1).sum(axis=0) / y
        out += pair
        if np.max(np.abs(pair)) < 1e-6 * peak:
            return out


def antiderivative_lp(kernel, p, half=12.0, n=48_001):
    """||Psi||_p with Psi(u) = integral of K up to u, by direct quadrature."""
    x = np.linspace(-half, half, n)
    dx = x[1] - x[0]
    k = kernel_space_samples(kernel, x)
    psi_int = np.cumsum(k) * dx
    if np.isinf(p):
        return float(np.max(np.abs(psi_int)))
    return float((np.sum(np.abs(psi_int) ** p) * dx) ** (1.0 / p))


def second_difference_exponent(values, length, min_lag=1, max_octaves=10):
    """Holder exponent from the dyadic second-difference modulus.

    omega2(h) = max_x |f(x+h) - 2 f(x) + f(x-h)| measured at dyadic lags on
    the sample grid; returns the log-log slope.  Standard Zygmund-class
    estimator, independent of any spectral machinery.  min_lag should sit
    above the scale where a band-limited signal turns smooth (a few samples
    per top-frequency oscillation), else the h^2 regime inflates the slope.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    lags, mods = [], []
    k = min_lag
    for _ in range(max_octaves):
        if 2 * k >= n // 4:
            break
        diff = np.roll(v, -k) - 2.0 * v + np.roll(v, k)
        lags.append(k * length / n)
        mods.append(np.max(np.abs(diff)))
        k *= 2
    lo = np.log(np.asarray(lags))
    mo = np.log(np.asarray(mods))
    slope = np.polyfit(lo, mo, 1)[0]
    return float(slope)


def power_law_q_integral(a, s, q, y_min):
    """Closed form of the integral of (y^s * y^a)^q dy/y over [y_min, 1]."""
    c = (a + s) * q
    if c <= 0:
        return np.inf
    return (1.0 - y_min**c) / c


def suffix_line_fits(t, b, shortest):
    """np.polyfit of every suffix t[i:], b[i:] with at least `shortest`
    points, longest first: rows (slope, intercept, max |residual|, slope
    stderr), the stderr 0 for two points."""
    rows = []
    for i in range(t.size - shortest + 1):
        tt, bb = t[i:], b[i:]
        slope, icept = np.polyfit(tt, bb, 1)
        resid = bb - (slope * tt + icept)
        dof = tt.size - 2
        var = np.sum(resid**2) / dof if dof > 0 else 0.0
        rows.append((slope, icept, np.max(np.abs(resid)), np.sqrt(var / np.sum((tt - tt.mean()) ** 2))))
    return np.array(rows).T


def longest_first_window(t, b, shortest, tol):
    """Points of the suffix the longest-first rule fits: one np.polyfit per
    suffix, longest first, stopping at the first whose max |residual| is
    within tol; the longest suffix when none is."""
    for w in range(t.size, shortest - 1, -1):
        tt, bb = t[-w:], b[-w:]
        slope, icept = np.polyfit(tt, bb, 1)
        if np.max(np.abs(bb - (slope * tt + icept))) <= tol:
            return w
    return t.size


def spike_value_scan(net, eps):
    """SpikeNet.value by a scan over its spikes n = 4..120, nearest first.

    The spike supports [1/n - exp(-n), 1/n + exp(-n)] are visited in
    decreasing order of their centers; the scan stops at the first spike
    that lies wholly below eps.
    """
    for n in range(4, 121):
        c = 1.0 / n
        w = math.exp(-n)
        if abs(eps - c) > w:
            if eps > c + w:
                break
            continue
        d = abs(eps - c)
        ramp = 1.0 if d <= w / 2.0 else (w - d) / (w / 2.0)
        lh = float(net.log_height(n))
        return ramp * math.exp(lh) if lh < 700.0 else math.inf
    return 0.0
