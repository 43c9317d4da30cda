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
import math
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .errors import AliasingRisk, InvalidParameter, ScaleOutOfRange

__all__ = [
    "Torus",
    "SpectralFunction",
    "dft_synthesize",
    "dft_analyze",
    "parse_exponent",
    "to_jsonable",
    "derivative_order",
    "lp_norm",
    "sobolev_table",
    "sobolev_norm",
    "convolve_scaled",
    "localize",
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
# Relative asymmetry below which coefficients count as conjugate-symmetric.
_REAL_RTOL = 1e-10


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

    def band_index(self):
        """max_i |m_i| over the coefficient layout (read-only, cached)."""
        return _radial_layout(self, False)

    def frequency_radius(self):
        """|xi| over the coefficient layout (read-only, cached)."""
        return _radial_layout(self, True)


@functools.lru_cache(maxsize=32)
def _radial_layout(torus, euclidean):
    """The one place where the 1-d/2-d radial layout is decided."""
    r = np.abs(torus.frequencies() if euclidean else torus.modes())
    if torus.dimension == 2:
        join = np.hypot if euclidean else np.maximum
        r = join(r[:, None], r[None, :])
    r.flags.writeable = False
    return r


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

    def is_real(self):
        """True when coefficients are conjugate-symmetric (real-valued object).

        lp_norm uses this as its path switch: real objects are synthesized
        by irfftn from the modes 0..N/2 of the last axis, so an asymmetry
        below 1e-10 * max|c| is ignored; other objects keep the complex ifftn.
        """
        c = self.coefficients
        rev = c[tuple(slice(None, None, -1) for _ in range(c.ndim))]
        scale = np.max(np.abs(c)) or 1.0
        return np.max(np.abs(c - np.conj(rev))) <= _REAL_RTOL * scale

    def active_bandwidth(self, rtol=_BAND_DECAY_RTOL):
        """Largest |m| carrying a coefficient above rtol * max|c|."""
        c = np.abs(self.coefficients)
        peak = c.max()
        if peak == 0.0:
            return 0
        active = c > rtol * peak
        return int(self.torus.band_index()[active].max()) if active.any() else 0

    def spectrum_decayed(self):
        """True when the outer 1/16 of the mode range is below 1e-12 * max|c|."""
        return self.active_bandwidth() <= self.torus.mode_max * 15 // 16

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
            a = derivative_order(a)
            if a:
                shape = [1] * d
                shape[axis] = -1
                c = c * _derivative_multiplier(self.torus, a).reshape(shape)
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


def _gather_modes(a, mode_max):
    """Symmetric modes -M..M per axis from an FFT-layout array (a copy)."""
    idx = np.arange(-mode_max, mode_max + 1) % a.shape[0]
    return a[np.ix_(*(idx,) * a.ndim)]


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
    out = _gather_modes(np.fft.fftn(v) / (torus.grid_size ** torus.dimension), torus.mode_max)
    for axis in range(torus.dimension):
        np.moveaxis(out, axis, 0)[[0, -1]] *= 0.5
    return SpectralFunction(torus, out, "function")


def parse_exponent(p, name="p"):
    """The exponent p of an L^p norm (or q of a scale integral) as a float.

    A number >= 1, or a string float() reads as one ("inf", "2"), is
    accepted; None reads as inf.  Anything else raises InvalidParameter.
    """
    if p is None:
        return math.inf
    try:
        value = float(p)
    except (TypeError, ValueError):
        value = math.nan
    if not value >= 1.0:
        raise InvalidParameter(f"{name} must be a number in [1, inf] or 'inf', got {p!r}")
    return value


def to_jsonable(obj):
    """obj as JSON data: the one serializer of the reports' to_dict.

    Dataclasses become dicts of their fields, tuples, lists and arrays
    become lists, and non-finite floats become None; dict values are
    converted in the same way.
    """
    if is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, dict):
        return {key: to_jsonable(value) for key, value in obj.items()}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def derivative_order(k, name="derivative order"):
    """A nonnegative integer derivative order; an integral float is accepted."""
    try:
        ok = k >= 0 and int(k) == k
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise InvalidParameter(f"{name} must be a nonnegative integer, got {k!r}")
    return int(k)


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
    p = parse_exponent(p)
    d = f.torus.dimension
    if not math.isinf(p) and f.tag == "distribution" and not f.spectrum_decayed():
        raise AliasingRisk(
            "L^p quadrature of a truncated distribution spectrum (p < inf)"
        )
    if p == 2.0:
        c = f.coefficients.ravel()
        return float(np.sqrt(f.torus.length**d * np.vdot(c, c).real))
    over = _QUAD_OVERSAMPLE_P2 if math.isinf(p) else _QUAD_OVERSAMPLE_GEN
    real = f.is_real()
    vals = _synthesize(f, over, real)
    mags = np.abs(vals, out=vals if real else None)
    if math.isinf(p):
        return float(np.max(mags))
    if p != 1.0:
        mags **= p
    cell = (f.torus.length / (f.torus.grid_size * over)) ** d
    return float((np.sum(mags) * cell) ** (1.0 / p))


def _multi_indices(orders, d):
    """Multi-indices in graded order: all of orders[0], then orders[1], ..."""
    if d == 1:
        return [(j,) for j in orders]
    return [(j - b, b) for j in orders for b in range(j + 1)]


def sobolev_table(fields, orders, p):
    """Table of lp_norm(D^alpha f, p): one row per field, one column per alpha.

    The columns are the multi-indices whose order is in orders, graded as
    in _multi_indices, so the columns for orders 0..k form a prefix of the
    table for orders 0..K >= k.  fields may be a generator; then only one
    field is held at a time.
    """
    orders = [derivative_order(j) for j in orders]
    p = parse_exponent(p)
    rows = []
    for f in fields:
        alphas = _multi_indices(orders, f.torus.dimension)
        rows.append([lp_norm(f.derivative(a) if any(a) else f, p) for a in alphas])
        del f  # released before the next field is made
    return np.asarray(rows, dtype=float)


def sobolev_norm(f: SpectralFunction, k, p):
    """W^{k,p} norm: max of lp_norm over spectral derivatives of order <= k."""
    k = derivative_order(k, "derivative order k")
    return float(sobolev_table([f], range(k + 1), p).max())


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
    mult = kernel.profile(y * T.torus.frequency_radius())
    return SpectralFunction(T.torus, T.coefficients * mult, "function")


def localize(T: SpectralFunction, window: SpectralFunction) -> SpectralFunction:
    """Pointwise product with a smooth band-limited cutoff in [0, 1].

    Computed on a doubly-oversampled grid, so every product coefficient up
    to Nyquist is the exact linear convolution of the stored sequences.
    Modes within the window's bandwidth of Nyquist see only a partial
    convolution against the truncated representation of T; those
    incomputable edge modes are zeroed.  Energy pushed past Nyquist is the
    representation policy for distribution-tagged inputs; for function
    inputs a non-negligible loss raises AliasingRisk.
    """
    T._check_same_torus(window)
    wvals = dft_synthesize(window, 2)
    if np.max(np.abs(wvals.imag)) > 1e-9 or np.min(wvals.real) < -1e-9 or np.max(
        wvals.real
    ) > 1.0 + 1e-9:
        raise InvalidParameter("window must be real-valued with values in [0, 1]")
    tvals = dft_synthesize(T, 2)
    torus = T.torus
    a = np.fft.fftn(tvals * wvals) / ((torus.grid_size * 2) ** torus.dimension)
    complete = torus.mode_max - window.active_bandwidth(rtol=1e-16)
    if complete <= 0:
        raise AliasingRisk("window bandwidth reaches Nyquist; no complete modes")
    kept = np.where(torus.band_index() > complete, 0.0, _gather_modes(a, torus.mode_max))
    if T.tag == "function":
        total = np.sum(np.abs(a) ** 2)
        inside = np.sum(np.abs(kept) ** 2)
        t_energy = np.sum(np.abs(T.coefficients) ** 2)
        if (total - inside) > 1e-14 * max(t_energy, total):
            raise AliasingRisk(
                "product bandwidth exceeds Nyquist; localize would drop "
                f"{float(total - inside):.2e} of squared coefficient mass"
            )
    return SpectralFunction(torus, kept, T.tag)


def pairing(f: SpectralFunction, g: SpectralFunction):
    """Distributional pairing <f, g> = integral of f*g over one period.

    Computed as the spectral sum L^d * sum_m f_m g_{-m}; exact for the
    represented truncations.
    """
    f._check_same_torus(g)
    rev = tuple(slice(None, None, -1) for _ in range(g.coefficients.ndim))
    d = f.torus.dimension
    return complex(np.sum(f.coefficients * g.coefficients[rev]) * f.torus.length ** d)
