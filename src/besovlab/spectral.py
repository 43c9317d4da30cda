"""Periodic grid/spectrum representation with exact scale-dilated convolution.

Functions and distributions on a period-L torus are carried by their
finite discrete spectra: coefficients c_m over the symmetric mode range
m in [-N/2, N/2] (per axis), with frequencies xi_m = 2*pi*m/L.  All
convolutions against spectrally-defined kernels are pointwise
multiplications of coefficients, hence exact.  The L^2 norm is exact as
well, by Parseval; the only quadrature in this module is the rectangle
rule used for the other L^p norms of synthesized samples (the grid sup at
p = inf).  Real-valued inputs are synthesized from the half spectrum.

Conventions
-----------
* Synthesis:  f(x) = sum_m c_m exp(i xi_m x).
* A real-valued object has conjugate-symmetric coefficients.
* "Nyquist-balanced" arrays satisfy c[-N/2] == c[+N/2]; the analysis
  transform always emits balanced arrays (the Nyquist energy is split
  between the two end slots), and synthesis folds the two end slots
  onto the single grid-representable Nyquist mode.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import AliasingRisk, InvalidParameter, ScaleOutOfRange

__all__ = [
    "Torus",
    "SpectralFunction",
    "dft_synthesize",
    "dft_analyze",
    "lp_norm",
    "sobolev_norm",
    "convolve_scaled",
    "min_scale",
    "pairing",
]

# Oversampling of the synthesis grid used by the norm quadratures.  The sup
# at p = inf is taken at 2x (the grid on which |f|^2 is alias-free); other
# finite p != 2 keep the documented second-order rectangle rule but on a grid
# fine enough for kernel-scale oscillations.  p = 2 needs no grid (Parseval).
_QUAD_OVERSAMPLE_P2 = 2
_QUAD_OVERSAMPLE_GEN = 16

# Relative floor below which outer-band coefficients count as decayed.
_BAND_DECAY_RTOL = 1e-12


def _is_pow2(n):
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Torus:
    """Computational domain: a d-dimensional torus with N grid points per axis.

    Parameters
    ----------
    dimension : int
        1 (fully supported) or 2.
    length : float
        Period L in physical units of x.
    grid_size : int
        Points per axis; a power of two, at least 8.
    """

    dimension: int = 1
    length: float = 1.0
    grid_size: int = 4096

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise InvalidParameter(f"dimension must be 1 or 2, got {self.dimension}")
        if not (self.length > 0):
            raise InvalidParameter(f"period must be positive, got {self.length}")
        if self.grid_size < 8 or not _is_pow2(self.grid_size):
            raise InvalidParameter(
                f"grid size must be a power of two >= 8, got {self.grid_size}"
            )

    @property
    def nyquist(self):
        """Largest resolvable angular frequency pi*N/L."""
        return np.pi * self.grid_size / self.length

    @property
    def mode_max(self):
        return self.grid_size // 2

    def modes(self):
        """Symmetric mode indices -N/2 .. N/2 (length N+1)."""
        m = self.mode_max
        return np.arange(-m, m + 1)

    def frequencies(self):
        """Angular frequencies xi_m = 2 pi m / L for the symmetric modes."""
        return 2.0 * np.pi * self.modes() / self.length

    def grid(self, oversample=1):
        """Sample locations of the (oversampled) synthesis grid."""
        n = self.grid_size * oversample
        return np.arange(n) * (self.length / n)

    def coeff_shape(self):
        return (self.grid_size + 1,) * self.dimension


@dataclass(frozen=True)
class SpectralFunction:
    """A function or distribution represented by its truncated spectrum.

    Attributes
    ----------
    torus : Torus
    coefficients : ndarray, complex, shape (N+1,)*d
        c_m over m in [-N/2, N/2] per axis.
    tag : str
        "function" for objects with decayed spectra (norms are safe),
        "distribution" for objects represented by truncation (e.g. Dirac).
    """

    torus: Torus
    coefficients: np.ndarray = field(repr=False)
    tag: str = "function"

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        if c.shape != self.torus.coeff_shape():
            raise InvalidParameter(
                f"coefficient shape {c.shape} does not match torus {self.torus.coeff_shape()}"
            )
        if not np.all(np.isfinite(c)):
            raise InvalidParameter("coefficients must be finite")
        object.__setattr__(self, "coefficients", c)
        if self.tag not in ("function", "distribution"):
            raise InvalidParameter(f"unknown tag {self.tag!r}")

    # -- small algebra, used by nets and perturbations ---------------------

    def __add__(self, other):
        self._check_same_torus(other)
        tag = "distribution" if "distribution" in (self.tag, other.tag) else "function"
        return SpectralFunction(self.torus, self.coefficients + other.coefficients, tag)

    def __sub__(self, other):
        self._check_same_torus(other)
        tag = "distribution" if "distribution" in (self.tag, other.tag) else "function"
        return SpectralFunction(self.torus, self.coefficients - other.coefficients, tag)

    def __mul__(self, scalar):
        return SpectralFunction(self.torus, self.coefficients * scalar, self.tag)

    __rmul__ = __mul__

    def _check_same_torus(self, other):
        if other.torus != self.torus:
            raise InvalidParameter("operands live on different toruses")

    # -- structure queries --------------------------------------------------

    def is_real(self, rtol=1e-10):
        """True when coefficients are conjugate-symmetric (real-valued object).

        lp_norm uses this as its path switch: real objects are synthesized
        by irfftn from the modes 0..N/2 of the last axis, so an asymmetry
        below rtol * max|c| is ignored; other objects keep the complex ifftn.
        """
        c = self.coefficients
        rev = c[tuple(slice(None, None, -1) for _ in range(c.ndim))]
        scale = np.max(np.abs(c)) or 1.0
        return np.max(np.abs(c - np.conj(rev))) <= rtol * scale

    def active_bandwidth(self, rtol=_BAND_DECAY_RTOL):
        """Largest |m| carrying a coefficient above rtol * max|c|."""
        c = np.abs(self.coefficients)
        peak = c.max()
        if peak == 0.0:
            return 0
        modes = self.torus.modes()
        if self.torus.dimension == 1:
            radial = np.abs(modes)
        else:
            radial = np.maximum(np.abs(modes)[:, None], np.abs(modes)[None, :])
        active = c > rtol * peak
        return int(radial[active].max()) if active.any() else 0

    def spectrum_decayed(self, rtol=_BAND_DECAY_RTOL):
        """True when the outer 1/16 of the mode range is below rtol * max|c|."""
        return self.active_bandwidth(rtol) <= self.torus.mode_max * 15 // 16

    def derivative(self, order=1):
        """Spectral derivative: multiply by (i xi)^alpha.

        order is an int for d = 1, or a length-d multi-index.
        """
        d = self.torus.dimension
        alpha = (order,) if np.isscalar(order) else tuple(order)
        if len(alpha) != d:
            raise InvalidParameter(f"multi-index {alpha} does not match dimension {d}")
        c = self.coefficients
        for axis, a in enumerate(alpha):
            if a < 0 or int(a) != a:
                raise InvalidParameter("derivative order must be a nonnegative integer")
            if a:
                shape = [1] * d
                shape[axis] = -1
                c = c * _derivative_multiplier(self.torus, int(a)).reshape(shape)
        return SpectralFunction(self.torus, c, self.tag)

    def dilate(self, factor=2):
        """Reindex to T(factor * x): mode m moves to factor*m, rest truncated."""
        if not (isinstance(factor, (int, np.integer)) and factor >= 1):
            raise InvalidParameter("dilation factor must be a positive integer")
        if self.torus.dimension != 1:
            raise InvalidParameter("dilate is implemented for d = 1")
        mmax = self.torus.mode_max
        out = np.zeros_like(self.coefficients)
        src = np.arange(-(mmax // factor), mmax // factor + 1)
        out[src * factor + mmax] = self.coefficients[src + mmax]
        return SpectralFunction(self.torus, out, self.tag)


@functools.lru_cache(maxsize=32)
def _derivative_multiplier(torus, a):
    """(i xi)^a over the torus's modes, read-only and cached per (torus, a).

    Built as i^a * xi^a with xi^a by repeated real multiplication.
    """
    xi = torus.frequencies()
    power = xi
    for _ in range(a - 1):
        power = power * xi
    out = power * (1j**a)
    out.flags.writeable = False
    return out


def _fold_axis(coeffs, axis, n_out, mode_max):
    """Place symmetric modes -M..M on an FFT layout of length n_out >= 2M.

    Modes 0..M fill bins 0..M and modes -M..-1 bins n_out-M..n_out-1; at
    n_out == 2M the two Nyquist slots are summed onto bin M.
    """
    m = mode_max
    shape = list(coeffs.shape)
    shape[axis] = n_out
    out = np.zeros(shape, dtype=complex)
    dst = np.moveaxis(out, axis, 0)
    src = np.moveaxis(coeffs, axis, 0)
    dst[: m + 1] = src[m:]
    dst[n_out - m :] += src[:m]
    return out


def _synthesize(f: SpectralFunction, oversample, real):
    """Grid samples of f on the oversample*N grid.

    A real f is synthesized by irfftn from modes 0..M of its last axis, which
    irfftn zero-pads to n/2 + 1 bins; mode -M, implied by symmetry, needs a
    bin of its own, so the real path needs oversample >= 2.
    """
    n = f.torus.grid_size * oversample
    d = f.torus.dimension
    axes = tuple(range(d))
    a = f.coefficients * (n**d)  # exact: n is a power of two
    if real:
        a = a[..., f.torus.mode_max :]
    for axis in axes[:-1] if real else axes:
        a = _fold_axis(a, axis, n, f.torus.mode_max)
    if real:
        return np.fft.irfftn(a, s=(n,) * d, axes=axes)
    return np.fft.ifftn(a, axes=axes)


def dft_synthesize(f: SpectralFunction, oversample=1):
    """Sample f on the (oversampled) uniform grid of its torus.

    Returns a complex array of shape (oversample*N,)*d.  Round trip with
    dft_analyze is the identity for Nyquist-balanced coefficients.
    """
    return _synthesize(f, oversample, real=False)


def dft_analyze(values, torus: Torus):
    """Forward transform of grid samples into the symmetric coefficient layout.

    The Nyquist bin is split evenly between the -N/2 and +N/2 slots, so the
    result is Nyquist-balanced (real input yields conjugate-symmetric output).
    """
    v = np.asarray(values)
    if v.shape != (torus.grid_size,) * torus.dimension:
        raise InvalidParameter(
            f"sample shape {v.shape} does not match torus grid {torus.grid_size}^{torus.dimension}"
        )
    a = np.fft.fftn(v) / (torus.grid_size ** torus.dimension)
    mmax = torus.mode_max
    modes = np.arange(-mmax, mmax + 1)
    weights = np.where(np.abs(modes) == mmax, 0.5, 1.0)
    out = a
    for axis in range(torus.dimension):
        out = np.moveaxis(np.moveaxis(out, axis, 0)[modes % torus.grid_size], 0, axis)
        shape = [1] * torus.dimension
        shape[axis] = modes.size
        out = out * weights.reshape(shape)
    return SpectralFunction(torus, out, "function")


def _p_value(p):
    if p == "inf" or p is None:
        return np.inf
    p = float(p)
    if not (p >= 1.0):
        raise InvalidParameter(f"p must be in [1, inf], got {p}")
    return p


def lp_norm(f: SpectralFunction, p):
    """L^p norm over one period.

    p = 2 is exact by Parseval, sqrt(L^d * sum_m |c_m|^2) over all stored
    modes, with no synthesis.  p = inf is the sup over the 2x-oversampled
    grid; other finite p use the rectangle rule on the 16x grid.  Real
    inputs (SpectralFunction.is_real) are synthesized from the half
    spectrum, others by a complex transform.

    Raises AliasingRisk for a distribution-tagged input with p < inf whose
    spectrum has not decayed at the band edge (the norm would be dominated
    by truncation artifacts).
    """
    p = _p_value(p)
    d = f.torus.dimension
    if not np.isinf(p) and f.tag == "distribution" and not f.spectrum_decayed():
        raise AliasingRisk(
            "L^p quadrature of a truncated distribution spectrum (p < inf)"
        )
    if p == 2.0:
        c = f.coefficients.ravel()
        return float(np.sqrt(f.torus.length**d * np.vdot(c, c).real))
    over = _QUAD_OVERSAMPLE_P2 if np.isinf(p) else _QUAD_OVERSAMPLE_GEN
    real = f.is_real()
    vals = _synthesize(f, over, real)
    mags = np.abs(vals, out=vals if real else None)
    if np.isinf(p):
        return float(np.max(mags))
    if p != 1.0:
        mags **= p
    cell = (f.torus.length / (f.torus.grid_size * over)) ** d
    return float((np.sum(mags) * cell) ** (1.0 / p))


def _multi_indices(k, d):
    if d == 1:
        return [(a,) for a in range(k + 1)]
    return [(a, b) for a in range(k + 1) for b in range(k + 1 - a)]


def sobolev_norm(f: SpectralFunction, k, p):
    """W^{k,p} norm: max of lp_norm over spectral derivatives of order <= k."""
    if k < 0 or int(k) != k:
        raise InvalidParameter(f"derivative order k must be a nonnegative integer, got {k}")
    best = 0.0
    for alpha in _multi_indices(int(k), f.torus.dimension):
        g = f.derivative(alpha) if any(alpha) else f
        best = max(best, lp_norm(g, p))
    return best


def min_scale(kernel, torus: Torus):
    """Smallest scale keeping the kernel's spectral support below Nyquist."""
    return kernel.outer_support / torus.nyquist


def convolve_scaled(T: SpectralFunction, kernel, y):
    """Convolve T with the y-dilate of a spectrally-defined kernel.

    The dilate K_y = y^{-d} K(./y) has transform K_hat(y xi), so the result's
    coefficients are c_m * K_hat(y xi_m): exact, no quadrature.  Scales below
    min_scale(kernel, torus) are rejected (the scaled spectrum would extend
    past Nyquist, silently truncating the result).
    """
    if not (y > 0):
        raise ScaleOutOfRange(f"scale must be positive, got {y}")
    lo = min_scale(kernel, T.torus)
    if y < lo * (1.0 - 1e-12):
        raise ScaleOutOfRange(
            f"scale {y:.6g} below minimum {lo:.6g} for this kernel/torus"
        )
    xi = T.torus.frequencies()
    if T.torus.dimension == 1:
        radial = np.abs(xi)
    else:
        radial = np.hypot(xi[:, None], xi[None, :])
    mult = kernel.profile(y * radial)
    return SpectralFunction(T.torus, T.coefficients * mult, "function")


def pairing(f: SpectralFunction, g: SpectralFunction):
    """Distributional pairing <f, g> = integral of f*g over one period.

    Computed as the spectral sum L^d * sum_m f_m g_{-m}; exact for the
    represented truncations.
    """
    f._check_same_torus(g)
    rev = tuple(slice(None, None, -1) for _ in range(g.coefficients.ndim))
    d = f.torus.dimension
    return complex(np.sum(f.coefficients * g.coefficients[rev]) * f.torus.length ** d)
