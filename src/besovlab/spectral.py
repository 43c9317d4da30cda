"""Periodic grid/spectrum representation with exact scale-dilated convolution.

Functions and distributions on a period-L torus are carried by their
finite discrete spectra: coefficients c_m over the symmetric mode range
m in [-N/2, N/2] (per axis), with frequencies xi_m = 2*pi*m/L.  All
convolutions against spectrally-defined kernels are pointwise
multiplications of coefficients, hence exact.  The L^2 norm is exact as
well, by Parseval.  The other L^p norms are quadratures of synthesized
samples: the grid sup at p = inf, the rectangle rule with closed-form kink
terms at p = 1 for real 1-d inputs, and the plain rectangle rule
otherwise.  Real-valued inputs are synthesized from the half spectrum.

A p = 2 scale sweep convolves each scale on its band torus, the smallest
power-of-two torus holding K_y's support (_band_restrict); other p keep T's
torus, whose size sets the errors of the grid sup and rectangle rules.
There, a scale whose kernel box (every mode of the convolution outside it
is 0) is narrower than half the torus multiplies only the box; on a band
torus the box is never that narrow.

Arrays enter a SpectralFunction by one of two doors.  An outside array
goes through the public constructor, which checks it (a Torus, numbers
that read as complex, the torus's shape, a known tag, every value
finite) and makes one C-order copy of it, which the caller cannot reach.
An array the library made from checked fields goes through
SpectralFunction._derived, which skips the dataclass __init__ and those
checks, and keeps the finiteness check with its kept sum and read-only flag.
Tori and kernels, the keys of every cache below, compute their hash once.

Every SpectralFunction keeps sum_m |c_m|^2, the one BLAS pass of its
finiteness check, so lp_norm at p = 2 is sqrt(L^d * that sum) with no pass
of its own.  Magnitude is decided once, at lp_norm's entry, from that sum:
p = 2 takes it while it is a normal float, and the grid routes while it is
in [2**-1000, 2**1000 / (coefficient count)), which keeps max |f| within
2**+-500.  A nonzero field outside its route's range is multiplied by
2**600 (below) or 2**-600 (above), an exact scaling, and its norm divided
by the same.  The sum also bounds every modulus, |c_m| <= sqrt(sum): the
arithmetic that derives one object from another (derivative, a scalar
multiple, a sum or difference) reads from it whether its result can
overflow, and only if it can runs under np.errstate (_overflow_guarded).
A field also keeps its band, the largest max_i |m_i| over its nonzero
coefficients (_band), computed on first need: the p = inf cosets and the
p = 1 grid of a real 1-d field and the box a pairing reads are sized by
it, so a band-limited field costs its band, not its torus.  A convolution
keeps the half-width of its kernel's box (_box), and so do its derivatives
and multiples, whose zeros are its own: its band scans only the box.

The multipliers K_hat(y |xi|) are cached per (kernel, torus, y), one value
per distinct radius |xi| of the torus, with the half-width of the kernel's
box read in the same lookup (_kernel_multiplier).

A field is real exactly when its coefficients are conjugate-symmetric,
c_m == conj(c_-m) for every m: a bool kept from when it is made.  The
public constructor makes an array within 1e-10 max|c| of symmetry exactly
symmetric, and localize stores the symmetric part of the product of a
real field and a real window.  derivative, convolve_scaled,
_band_restrict and a real multiple keep a real input's symmetry, and so do
a sum and difference of real fields (IEEE rounding is symmetric under a
sign change), with no compare; a field made from a complex one compares its
coefficients once, since a route may drop its asymmetric modes.  A real g
pairs by one np.vdot(g, f) over the box of g's band (contiguous in 1-d),
with no reversed copy of g.  A zero field (sum |c_m|^2 = 0) has norm 0 at
every p, with no synthesis.

Every synthesis (_synthesize) of a complex or 2-d field places the modes
of f into one array allocated per call and transforms it in place (numpy's
out=), unscaled (norm="forward"); that of a real 1-d field is one irfft of
the view of its modes 0..N/2.  lp_norm takes |f| of a real grid in place.
Every sup is one routine, _sup, over the 2N-point grid.  A real 1-d field
of band B reads that grid as 2N/M interleaved M-point irffts of the
twisted half spectrum, M the power of two above 2B, at least 256 and at
most 2N: a full band, or a torus of at most 128 points, is one coset of 2N
points.
Complex and 2-d fields take the one 2N-point synthesis.

Conventions
-----------
* Synthesis:  f(x) = sum_m c_m exp(i xi_m x).
* A real-valued object has exactly conjugate-symmetric coefficients.
* "Nyquist-balanced" arrays satisfy c[-N/2] == c[+N/2]; the analysis
  transform always emits balanced arrays (the Nyquist energy is split
  between the two end slots).  A synthesis grid has more than N points
  on every axis it folds (_synthesize), where the two end slots are
  distinct modes; the N-point grid of dft_synthesize is read off the
  2N-point one, and there the two slots sum onto the single
  grid-representable Nyquist mode.
"""

import functools
import itertools
import math
import numbers
import sys
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .errors import AliasingRisk, InvalidParameter, QuadratureInaccurate, ScaleOutOfRange

__all__ = [
    "Torus",
    "SpectralFunction",
    "dft_synthesize",
    "dft_analyze",
    "parse_exponent",
    "to_jsonable",
    "derivative_order",
    "real_parameter",
    "lp_norm",
    "sobolev_table",
    "sobolev_norm",
    "convolve_scaled",
    "localize",
    "min_scale",
    "pairing",
]

# Oversampling of the synthesis grid used by the norm quadratures.  The sup
# at p = inf is the maximum over the 2x grid (_sup; of a real 1-d field, read
# from the cosets of its band).  That grid misses the peak by up to a sub-cell
# phase, so the grid sup is biased low at the finest scales (a jump's fitted
# exponent is off by up to 0.13 at N = 128); a certified sup is still open.  Other finite p != 2 keep the second-order
# rectangle rule but on a grid fine enough for kernel-scale oscillations.
# p = 1 on a real 1-d field starts instead from 8 nb points, nb the power
# of two above twice its bandwidth (see _l1_norm), and doubles up to the 16x
# grid.  p = 2 needs no grid (Parseval).
_SUP_OVERSAMPLE = 2
# The shortest transform of the p = inf cosets (_sup), unless the 2x grid
# itself is shorter: then the grid is one coset.  Shorter ones mean more of
# them, and numpy's batched irfft and the twist pay per coset: at N = 4096 a
# band of 1-12 took 33-36 us with 256 points against 46-53 us with 16.
_COSET_MIN = 256
_QUAD_OVERSAMPLE_GEN = 16
_L1_OVERSAMPLE = 8
# Relative error the p = 1 rule's estimate must reach by the 16x grid, else
# lp_norm raises QuadratureInaccurate.
_L1_RTOL = 1e-7
# The quintic p through the samples at t = -2..3 around a node t = 0: its
# monomial coefficients a0..a5 (rows _P), those of p' (_DP) and of the
# antiderivative of p divided by t (_PINT), and E(0) = a0/2 + a1/12 -
# a3/120 + a5/252 of _l1_rule (row _E0), as one linear map of the samples.
_KINK_STENCIL = np.arange(-2, 4)
_KINK_FIT = np.linalg.inv(np.vander(_KINK_STENCIL, 6, increasing=True))
_KINK_MAPS = np.vstack([
    _KINK_FIT,
    _KINK_FIT[1:] * np.arange(1, 6)[:, None],
    _KINK_FIT / np.arange(1, 7)[:, None],
    np.array([1 / 2, 1 / 12, 0.0, -1 / 120, 0.0, 1 / 252]) @ _KINK_FIT,
])
_P, _DP, _PINT, _E0 = slice(0, 6), slice(6, 11), slice(11, 17), 17
# The rows the coarse pass of _l1_rule reads, _PINT then _E0: a contiguous view.
_KINK_COARSE = _KINK_MAPS[_PINT.start :]
# The stencil on the even samples, in indices of the grid (_even_cells).
_EVEN_STENCIL = 2 * _KINK_STENCIL[:, None]

# Relative floor below which outer-band coefficients count as decayed.
_BAND_DECAY_RTOL = 1e-12
# Relative asymmetry below which coefficients count as conjugate-symmetric.
_REAL_RTOL = 1e-10
# A result whose moduli are bounded below this cannot overflow.  The bounds
# are products and sums of a few rounded factors, so half the float range
# leaves ample room for their rounding.
_NO_OVERFLOW = sys.float_info.max / 2
# Entries of each per-torus cache (radial layout, distinct radii, band tori,
# derivative and kernel multipliers).  A p = 2 sweep visits up to
# log2(N/8) + 1 band tori, each with one multiplier per derivative order:
# detect_smooth at N = 16384 uses about 8 tori x 8 orders.  A kernel
# multiplier or band torus is one entry per scale: the detect-lp mix needs
# 24 on its 1-d torus and 24 on its 2-d one.  These must stay cached.
# An entry holds at most one array of the torus's coefficient shape (the
# layouts, the radius index, a derivative multiplier); a kernel multiplier
# holds at most one complex value per distinct radius: N/2 + 1 in 1-d, at
# most (N/2 + 1)(N/2 + 2)/2 in 2-d.  A twist table of the p = inf cosets
# (_twists) is per 2x grid size n = 2N and coset size: (n/size) (size/2 + 1)
# complex values, about 8 n bytes, and a grid has at most log2(n/128) coset
# sizes (n = 8192: 6 tables, 385 KiB); every band of a size reads its table.
_TORUS_CACHE_SIZE = 128


@dataclass(frozen=True)
class Torus:
    """Computational domain: a d-dimensional torus with N grid points per axis.

    Parameters
    ----------
    dimension : int
        1 (fully supported) or 2.
    length : float
        Period L in physical units of x; positive and finite, kept as a float.
    grid_size : int
        Points per axis; an integer power of two, at least 8.

    The spectral caches are keyed on tori, so the hash is computed once,
    from the three numbers only: it is the same in every process, and a
    pickled torus keeps a valid one.
    """

    dimension: int = 1
    length: float = 1.0
    grid_size: int = 4096

    def __post_init__(self):
        d = real_parameter(self.dimension, "dimension", at_least=1, at_most=2, integer=True)
        length = real_parameter(self.length, "period", 0.0)
        n = real_parameter(self.grid_size, "grid size", at_least=8, integer=True)
        if n & (n - 1):
            raise InvalidParameter(f"grid size must be a power of two >= 8, got {_shown(n)}")
        key = (d, length, n)
        for name, value in zip(("dimension", "length", "grid_size"), key):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))
        object.__setattr__(self, "_coeff_shape", (n + 1,) * d)
        object.__setattr__(self, "_volume", _normal_power(length, d))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

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
        """Sample locations of the (oversampled) synthesis grid, oversample an integer >= 1."""
        n = self.grid_size * real_parameter(oversample, "oversample", at_least=1, integer=True)
        return np.arange(n) * (self.length / n)

    def coeff_shape(self):
        return self._coeff_shape

    def band_index(self):
        """max_i |m_i| over the coefficient layout (read-only, cached)."""
        return _radial_layout(self, False)

    def frequency_radius(self):
        """|xi| over the coefficient layout (read-only, cached)."""
        return _radial_layout(self, True)


def _normal_power(x, e):
    """x**e for a positive float x when it is a normal float, else 0.0: the
    measure L^d of a torus (Torus._volume) and the cell of the 16x rule, past
    whose range lp_norm applies L^(d/p) as a factor of its own."""
    try:
        power = x**e
    except OverflowError:  # a float ** raises where numpy would warn
        return 0.0
    return power if sys.float_info.min <= power < math.inf else 0.0


@functools.lru_cache(maxsize=_TORUS_CACHE_SIZE)
def _radial_layout(torus, euclidean):
    """The one place where the 1-d/2-d radial layout is decided."""
    r = np.abs(torus.frequencies() if euclidean else torus.modes())
    if torus.dimension == 2:
        join = np.hypot if euclidean else np.maximum
        r = join(r[:, None], r[None, :])
    r.flags.writeable = False
    return r


@functools.lru_cache(maxsize=_TORUS_CACHE_SIZE)
def _distinct_radii(torus):
    """The distinct values of frequency_radius(), ascending, and the index of
    each coefficient's radius among them (read-only, cached)."""
    radii, where = np.unique(torus.frequency_radius(), return_inverse=True)
    where = where.reshape(torus.coeff_shape())
    radii.flags.writeable = where.flags.writeable = False
    return radii, where


@dataclass(frozen=True, eq=False)
class SpectralFunction:
    """A function or distribution represented by its truncated spectrum.

    Fields compare and hash by identity: two objects are equal only if they
    are one.

    Attributes
    ----------
    torus : Torus
    coefficients : ndarray, complex, shape (N+1,)*d
        c_m over m in [-N/2, N/2] per axis, read-only: the object keeps
        facts read from them (sum |c_m|^2, the conjugate symmetry).  The
        array passed in is copied, in C order, so the caller may go on
        writing to it, and equal coefficients give equal answers whatever
        its layout, unless it is within 1e-10 max|c| of conjugate symmetry:
        then its symmetric part is kept (is_real).
    tag : str
        "function" for objects with decayed spectra (norms are safe),
        "distribution" for objects represented by truncation (e.g. Dirac).
    """

    torus: Torus
    coefficients: np.ndarray = field(repr=False)
    tag: str = "function"
    # the half-width b of a box outside of which every coefficient is 0, kept
    # by _derived for _band; None (every field the constructor makes): no box
    _box = None

    def __post_init__(self):
        """The C-order copy of an outside array and its checks (see _derived
        for the arrays the library makes)."""
        if not isinstance(self.torus, Torus):
            raise InvalidParameter(f"torus must be a Torus, got {_shown(self.torus)}")
        try:
            c = np.array(self.coefficients, dtype=complex, order="C")  # the caller cannot reach it
        except (TypeError, ValueError):
            raise InvalidParameter("coefficients must read as complex numbers") from None
        if c.shape != self.torus.coeff_shape():
            raise InvalidParameter(
                f"coefficient shape {c.shape} does not match torus {self.torus.coeff_shape()}"
            )
        if self.tag not in ("function", "distribution"):
            raise InvalidParameter(f"unknown tag {_shown(self.tag)}")
        sum_sq, real = _finite_sum_sq(c), _is_conjugate_symmetric(c)
        if not real:
            # within _REAL_RTOL max |c| of symmetry, c becomes its symmetric part
            # 0.5 c_m + 0.5 conj(c_-m), each coefficient moved by at most 5e-11
            # max |c|; halved before it is added or subtracted, it cannot overflow
            # (a modulus past the float range reads inf, so complex, unwarned)
            half = 0.5 * c
            mirror = np.conj(np.flip(half))
            if np.max(np.abs(half - mirror)) < _REAL_RTOL * np.max(np.abs(half)):
                c, real = np.add(half, mirror, out=half), True
                sum_sq = _finite_sum_sq(c)
        object.__setattr__(self, "_sum_sq", sum_sq)
        object.__setattr__(self, "_real", real)
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)

    def _derived(self, c, torus=None, tag=None, real=None, support=None, box=None):
        """The SpectralFunction of c, an array the library made from self.

        c is complex, of its torus's shape, and no caller holds it writeable,
        so the dataclass __init__ and the checks of __post_init__ that only
        an outside array can fail are skipped.  What a derived array can
        fail or needs is kept: the finiteness check with the kept sum, and
        read-only coefficients.  torus and tag default to self's; real (c
        exactly symmetric) to True for a real self, whose symmetry every
        derived route keeps, else to one compare of c.  support, a view of c
        outside of which c is 0, is the part the sum and the check read.
        box, a half-width b outside of whose central (2b+1)^d modes c is 0,
        is kept for _band, which then scans only those modes.
        """
        out = object.__new__(SpectralFunction)
        state = {
            "torus": self.torus if torus is None else torus,
            "coefficients": c,
            "tag": self.tag if tag is None else tag,
            "_sum_sq": _finite_sum_sq(c if support is None else support),
            "_real": (self._real or _is_conjugate_symmetric(c)) if real is None else real,
            "_box": box,
        }
        c.setflags(write=False)
        object.__setattr__(out, "__dict__", state)
        return out

    # -- small algebra, used by nets and perturbations ---------------------

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def __mul__(self, scalar):
        scalar = real_parameter(scalar, "scalar factor")
        bound = abs(scalar) * math.sqrt(self._sum_sq)
        c = _overflow_guarded(bound, np.multiply, self.coefficients, scalar)
        return self._derived(c, box=self._box)

    __rmul__ = __mul__

    def _combine(self, other, op):
        """op of the two coefficient arrays: a distribution if either operand is."""
        _check_operands(self, other)
        tag = "distribution" if "distribution" in (self.tag, other.tag) else "function"
        bound = math.sqrt(self._sum_sq) + math.sqrt(other._sum_sq)
        c = _overflow_guarded(bound, op, self.coefficients, other.coefficients)
        real = (self._real and other._real) or _is_conjugate_symmetric(c)
        return self._derived(c, tag=tag, real=real)

    # -- structure queries --------------------------------------------------

    def is_real(self):
        """True when the coefficients are exactly conjugate-symmetric, c_m ==
        conj(c_-m) for every m (a real-valued object); an array within 1e-10
        max|c| of symmetry is made so by the public constructor.

        lp_norm's path switch: real objects are synthesized by irfft from
        the modes 0..N/2 of the last axis, others by the complex ifftn.
        """
        return self._real

    def active_bandwidth(self, rtol=_BAND_DECAY_RTOL):
        """Largest |m| carrying a coefficient above rtol * max|c|, rtol in [0, 1)."""
        rtol = real_parameter(rtol, "rtol", below=1.0, at_least=0.0)
        c = np.abs(self.coefficients)
        peak = c.max()
        if peak == 0.0:
            return 0
        active = c > rtol * peak
        return int(self.torus.band_index()[active].max()) if active.any() else 0

    @functools.cached_property
    def _band(self):
        """The largest max_i |m_i| over the nonzero coefficients, the number
        active_bandwidth(rtol=0.0) returns, computed on first need and kept:
        the band the p = inf and p = 1 grids and the pairing box read.  Only
        the modes -b..b per axis are scanned, b the half-width of the box a
        convolution keeps (_box; every mode outside it is 0), else N/2.  In
        2-d the band index is read where the box is nonzero.  In 1-d the
        band is read off the first and last nonzero float of the box's
        (real, imaginary) pairs: on a Xeon host, 7 us for all of N = 4096
        against 10-12 us for a complex compare and gather of the band index,
        a gap worth about 3% of an association study, which reads about 60
        bands.
        """
        b = self.torus.mode_max if self._box is None else self._box
        box = _central(self.torus, b)
        c = self.coefficients[box]
        if c.ndim == 2:
            return int(self.torus.band_index()[box][c != 0.0].max(initial=0))
        nonzero = (np.ascontiguousarray(c).view(float) != 0.0).nonzero()[0]
        return int(max(b - nonzero[0] // 2, nonzero[-1] // 2 - b)) if nonzero.size else 0

    def spectrum_decayed(self):
        """True when the outer 1/16 of the mode range is below 1e-12 * max|c|."""
        return self.active_bandwidth() <= self.torus.mode_max * 15 // 16

    def derivative(self, order=1):
        """Spectral derivative: multiply by (i xi)^alpha.

        order is an int for d = 1, or a length-d multi-index.
        """
        d = self.torus.dimension
        alpha = _multi_index(order)
        if len(alpha) != d:
            raise InvalidParameter(f"multi-index of length {len(alpha)} does not match dimension {d}")
        c, bound = self.coefficients, math.sqrt(self._sum_sq)
        for axis, a in enumerate(alpha):
            a = derivative_order(a)
            if a:
                mult, peak = _derivative_multiplier(self.torus, a)
                if d == 2:
                    mult = mult[:, None] if axis == 0 else mult[None, :]
                bound *= peak
                c = _overflow_guarded(bound, np.multiply, c, mult)
        return self._derived(c, box=self._box)  # a finite multiplier keeps every 0


def _multi_index(order):
    """order as a tuple: itself if a tuple, (order,) if a number or string
    (derivative_order judges it), else the tuple of its entries."""
    if type(order) is tuple:  # sobolev_table's multi-indices
        return order
    if isinstance(order, (numbers.Number, str, np.generic)):
        return (order,)
    try:
        return tuple(order)
    except TypeError:
        raise InvalidParameter(
            f"derivative order must be an integer or a multi-index, got {_shown(order)}"
        ) from None


def _finite_sum_sq(c):
    """sum |c_m|^2, the sum every SpectralFunction keeps: lp_norm at p = 2
    and the overflow bounds read it.

    Any inf or nan makes the sum non-finite: one BLAS pass, with no numpy
    warning, settles a finite sum, and only an overflowing one needs more.
    """
    sq = float(np.vdot(c, c).real)
    if not (math.isfinite(sq) or np.all(np.isfinite(c))):
        raise InvalidParameter("coefficients must be finite")
    return sq


def _shown(x):
    """repr(x), for the message of a refused value.  An int past Python's
    limit on int-to-string digits, whose repr raises ValueError, reads as
    its bit length, and a container of one as its type."""
    try:
        return repr(x)
    except ValueError:
        if isinstance(x, int):
            return f"{'a negative' if x < 0 else 'an'} int of {x.bit_length()} bits"
        return f"a {type(x).__name__}"


def _require(x, cls, name):
    """x when it is an instance of cls (a class or a tuple of classes), else
    InvalidParameter: the entry check of an object argument, so that a wrong
    type never gets as far as a raw AttributeError or TypeError."""
    if not isinstance(x, cls):
        kinds = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
        raise InvalidParameter(f"{name} must be a {kinds}, got {_shown(x)}")
    return x


def _check_operands(f, g):
    """Both operands are fields on one torus, else InvalidParameter."""
    for x in (f, g):
        _require(x, SpectralFunction, "operand")
    if f.torus != g.torus:
        raise InvalidParameter("operands live on different toruses")


def _is_conjugate_symmetric(c):
    """c_m == conj(c_-m) for every m, by one compare of the two half
    spectra: the flat C-order array reversed is the flip on every axis, so
    its entries from the middle on pair with those up to the middle, read
    backwards."""
    flat = c.ravel()
    mid = flat.size // 2
    return bool(np.array_equal(flat[mid:], flat[mid::-1].conj()))


def _overflow_guarded(bound, op, *operands):
    """op(*operands), given a bound on the moduli of its result.

    Below _NO_OVERFLOW the result cannot overflow.  Otherwise (an infinite
    or nan bound too) op runs under np.errstate: an inf it makes is refused
    by SpectralFunction's finiteness check as InvalidParameter, with no
    numpy warning first.
    """
    if bound < _NO_OVERFLOW:
        return op(*operands)
    with np.errstate(over="ignore", invalid="ignore"):
        return op(*operands)


@functools.lru_cache(maxsize=_TORUS_CACHE_SIZE)
def _derivative_multiplier(torus, a):
    """(i xi)^a over the torus's modes, read-only, and its peak max |xi|^a,
    cached per (torus, a).

    Built in closed form, one pow per mode whatever a: |xi|^a, with the
    sign of xi for odd a, times i^(a mod 4).  An order past the float range
    raises |xi| to float max, which reads 0 below 1, 1 at 1 and inf above.
    An order whose multiplier overflows raises InvalidParameter, with no
    warning; one that underflows gives 0 there.
    """
    xi = torus.frequencies()
    with np.errstate(over="ignore", under="ignore"):
        power = np.abs(xi) ** float(min(a, sys.float_info.max))
    if not np.all(np.isfinite(power)):
        raise InvalidParameter(f"derivative of order {_shown(a)} overflows on {torus}")
    out = (np.copysign(power, xi) if a % 2 else power) * 1j ** (a % 4)
    out.flags.writeable = False
    return out, float(power.max())


def _synthesize(f: SpectralFunction, n, real):
    """Grid samples of f on n points per axis, in a new array.

    The modes are placed on the FFT layout in one array: per folded axis,
    modes 0..M fill bins 0..M and modes -M..-1 bins n-M..n-1, with zeros
    between, so n > 2M on every folded axis, where each mode has a bin of
    its own.  A real f is synthesized by irfft from modes 0..M of its last
    axis, zero-padded or cropped to n/2 + 1 bins: that axis is not folded,
    but mode -M, implied by symmetry, needs a bin of its own too, so a real
    f needs n > 2M, or, in 1-d, its modes from n/2 up to be 0 (as
    _l1_norm's are).  A real 1-d f has no folded axis: irfft reads the view
    of its modes 0..M, with no staging copy.  The transforms run with
    norm="forward", the sum of the modes, unscaled, and in place, except
    the real one into a float grid.
    """
    torus = f.torus
    m = torus.mode_max
    axes = tuple(range(torus.dimension))
    folded = axes[:-1] if real else axes
    c = f.coefficients[..., m:] if real else f.coefficients
    if not folded:  # irfft pads or crops the half spectrum itself
        return np.fft.irfft(c, n=n, norm="forward")
    a = np.empty((n,) * len(folded) + c.shape[len(folded) :], complex)
    for axis in folded:
        np.moveaxis(a, axis, 0)[m + 1 : n - m] = 0.0
    segments = ((slice(0, m + 1), slice(m, None)), (slice(n - m, n), slice(0, m)))
    for blocks in itertools.product(segments, repeat=len(folded)):
        dst = tuple(block[0] for block in blocks)
        src = tuple(block[1] for block in blocks)
        a[dst] = c[src]
    if not real:
        return np.fft.ifftn(a, axes=axes, norm="forward", out=a)
    for axis in folded:  # what irfftn does before its irfft, here in place
        np.fft.ifft(a, axis=axis, norm="forward", out=a)
    return np.fft.irfft(a, n=n, norm="forward")


def dft_synthesize(f: SpectralFunction, oversample=1):
    """Sample f on the (oversampled) uniform grid of its torus.

    Returns a complex array of shape (oversample*N,)*d.  Round trip with
    dft_analyze is the identity for Nyquist-balanced coefficients.  The
    N-point grid cannot tell the +-N/2 modes apart: at oversample 1 it is a
    copy of the even points of the 2N-point grid, where they are distinct.
    """
    _require(f, SpectralFunction, "f")
    oversample = real_parameter(oversample, "oversample", at_least=1, integer=True)
    n = oversample * f.torus.grid_size
    if oversample > 1:
        return _synthesize(f, n, real=False)
    return _synthesize(f, 2 * n, real=False)[(slice(None, None, 2),) * f.torus.dimension].copy()


def _gather_modes(a, mode_max):
    """Symmetric modes -M..M per axis from an FFT-layout array (a copy)."""
    idx = np.arange(-mode_max, mode_max + 1) % a.shape[0]
    return a[np.ix_(*(idx,) * a.ndim)]


def dft_analyze(values, torus: Torus):
    """Forward transform of grid samples into the symmetric coefficient layout.

    The Nyquist bin is split evenly between the -N/2 and +N/2 slots, so the
    result is Nyquist-balanced.  Real samples, whose FFT is symmetric up to
    rounding, give an exactly symmetric, real field (the constructor's rule).
    """
    _require(torus, Torus, "torus")
    v = np.asarray(values)
    if v.dtype.kind not in "biufc":
        raise InvalidParameter(f"samples must be numeric, got dtype {v.dtype}")
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
    accepted; None reads as inf.  Anything else, a number past the float
    range too, raises InvalidParameter.
    """
    if p is None:
        return math.inf
    try:
        value = float(p)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not value >= 1.0:
        raise InvalidParameter(f"{name} must be a number in [1, inf] or 'inf', got {_shown(p)}")
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


def real_parameter(x, name, above=-math.inf, below=math.inf, *, at_least=None, at_most=None,
                   integer=False, error=InvalidParameter):
    """x as a float (an int if integer) when it is a real in its range, else error.

    The range is above < x < below, with at_least <= x or x <= at_most in
    place of an open end when given: by default every finite real.  Strings,
    None, complex numbers, arrays other than 0-d, nan, infinities and, if
    integer, non-integer types raise.  Comparing under try costs less than a
    numbers.Real test, on the convolution's hot path.
    """
    try:
        if isinstance(x, (int, np.integer)) if integer else not isinstance(x, np.complexfloating):
            ok = (above < x if at_least is None else at_least <= x) and (
                x < below if at_most is None else x <= at_most
            )
            if ok is True or ok is np.True_:  # an array of one value compares to an array
                return int(x) if integer else float(x)
    except (TypeError, ValueError, OverflowError):  # e.g. strings, None, arrays, 10**400
        pass
    lo = f"({above:g}" if at_least is None else f"[{at_least:g}"
    hi = f"{below:g})" if at_most is None else f"{at_most:g}]"
    span = {"(0, inf)": "positive and finite", "(-inf, inf)": "finite and real"}
    span = span.get(f"{lo}, {hi}", f"in {lo}, {hi}")
    raise error(f"{name} must be {'an integer ' * integer}{span}, got {_shown(x)}")


def derivative_order(k, name="derivative order"):
    """A nonnegative integer derivative order; an integral float is accepted."""
    try:
        ok = k >= 0 and int(k) == k
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise InvalidParameter(f"{name} must be a nonnegative integer, got {_shown(k)}")
    return int(k)


def lp_norm(f: SpectralFunction, p):
    """L^p norm over one period.

    p = 2 is exact by Parseval, sqrt(L^d * sum_m |c_m|^2) over all stored
    modes, with no synthesis: the sum is the one f kept when it was made
    (one BLAS pass, which also checked f finite), so the norm costs no pass
    over f while the sum is a normal float.  Where L^d (or the 16x rule's
    cell, (L/n)^d) leaves the normal float range, the norm on the unit
    torus is multiplied by L^(d/p) instead.  The grid routes below take f
    while the sum is in [2**-1000, 2**1000 / (coefficient count)), so that
    max |f| is within 2**+-500.  Any other f has norm 0 if every
    coefficient is 0, with no synthesis (moduli below 1e-162 square to 0),
    and otherwise the norm of f * 2**600 (sum below the range) or
    f * 2**-600 (above it), divided by that factor: one exact rescale, after
    which f is in range.  p = inf is the sup over the 2x-oversampled grid,
    from _sup: a real 1-d input reads it from the cosets of its band
    B = f._band, every other input from one synthesis of the grid.  p = 1
    on a real 1-d input is the rectangle rule with the kinks of |f|
    corrected in closed form, on a grid sized by f's bandwidth and refined
    until its error estimate is below 1e-7 of the norm, up to the 16x grid
    (_l1_norm).  Other finite p, 2-d and complex inputs use the rectangle
    rule on the 16x grid; where the p-th power of the grid's max |f| would
    leave the normal float range (with room for the sum), the powers are of
    |f| / s, s the power of two of that max.  Real inputs
    (SpectralFunction.is_real) are synthesized from the half spectrum,
    others by a complex transform.

    Raises AliasingRisk for a distribution-tagged input with p < inf whose
    spectrum has not decayed at the band edge (the norm would be dominated
    by truncation artifacts), and QuadratureInaccurate when the p = 1 rule's
    error estimate still exceeds 1e-7 of the norm on the 16x grid.
    """
    _require(f, SpectralFunction, "f")
    p = parse_exponent(p)
    d = f.torus.dimension
    if not math.isinf(p) and f.tag == "distribution" and not f.spectrum_decayed():
        raise AliasingRisk("L^p quadrature of a truncated distribution spectrum (p < inf)")
    if p == 2.0:
        if sys.float_info.min <= f._sum_sq < math.inf:
            if f.torus._volume:
                return math.sqrt(f.torus._volume * f._sum_sq)
            return math.sqrt(f._sum_sq) * f.torus.length ** (d / 2)
    elif 2.0**-1000 <= f._sum_sq < 2.0**1000 / f.coefficients.size:
        if math.isinf(p):
            return _sup(f)
        real = f.is_real()
        if p == 1.0 and real and d == 1:
            return _l1_norm(f)
        vals = _synthesize(f, _QUAD_OVERSAMPLE_GEN * f.torus.grid_size, real)
        mags = np.abs(vals, out=vals) if real else np.abs(vals)
        peak, scale = float(mags.max()), 1.0
        if not sys.float_info.min_exp - 1 < p * math.log2(peak) < sys.float_info.max_exp - math.log2(mags.size):
            scale = _power_of_two(peak)
            mags /= scale
        if p != 1.0:
            mags **= p
        n = f.torus.grid_size * _QUAD_OVERSAMPLE_GEN
        cell = _normal_power(f.torus.length / n, d)
        if cell:
            return scale * float((np.sum(mags) * cell) ** (1.0 / p))
        # L^(d/p) as two factors L^(d/2p), each between L and 1, so in the
        # float range: the product leaves it only where the norm does
        root = f.torus.length ** (d / (2.0 * p))
        return scale * float((np.sum(mags) / n**d) ** (1.0 / p)) * root * root
    if not f.coefficients.any():
        return 0.0
    scale = 2.0**600 if f._sum_sq < 1.0 else 2.0**-600
    return lp_norm(f * scale, p) / scale


def _power_of_two(peak):
    """2**e with peak > 0 in [2**(e-1), 2**e): the divisor of the 16x rule
    where the p-th powers of |f| would leave the float range.  A modulus
    divided by it keeps every bit, and peak becomes 1/2 or more and below 1."""
    return math.ldexp(1.0, math.frexp(peak)[1])


def _sup(f: SpectralFunction):
    """The sup of f over the 2x grid, n = 2N points per axis.

    A 2-d or complex f is synthesized on that grid (_synthesize).  A real
    1-d f is read from r = n/size interleaved size-point transforms (the
    pruned FFT: J. D. Markel, "FFT pruning", 1971), size the power of two
    above twice its band B = f._band, at least _COSET_MIN and at most n:
    its modes -B..B fall in distinct bins, and a full band (B = N/2) or a
    torus of at most _COSET_MIN / 2 points is one coset of n points.
    Grid point r k + s, s < r, is

        f(x_{rk+s}) = sum_m (c_m w^{ms}) exp(2 pi i m k / size),  w = exp(2 pi i / n):

    coset s is the size-point synthesis of the twisted spectrum c_m w^{ms},
    conjugate-symmetric as c is, so one irfft of its modes 0..B.  The twists
    w^{ms} are the columns 0..B of the cached table _twists(n, size), one
    multiply per call.  The r cosets hold the same n values as the full
    grid, computed with n/size-fold shorter transforms.
    """
    n = _SUP_OVERSAMPLE * f.torus.grid_size
    if not f._real or f.torus.dimension == 2:
        vals = _synthesize(f, n, f._real)
        return float(np.max(np.abs(vals, out=vals) if f._real else np.abs(vals)))
    b, m = f._band, f.torus.mode_max
    size = min(n, max(_COSET_MIN, 1 << (2 * b).bit_length()))
    spectra = np.zeros((n // size, size // 2 + 1), complex)
    np.multiply(_twists(n, size)[:, : b + 1], f.coefficients[m : m + b + 1], out=spectra[:, : b + 1])
    vals = np.fft.irfft(spectra, n=size, axis=-1, norm="forward")
    return float(np.max(np.abs(vals, out=vals)))


@functools.lru_cache(maxsize=_TORUS_CACHE_SIZE)
def _twists(n, size):
    """w^(s m), w = exp(2 pi i / n), for the cosets s < n/size of _sup and
    the modes m = 0..size/2, read-only (cached per (n, size)): row s of the
    table twists coset s, and a band B reads its columns 0..B.  Each value
    is the root exp(2 pi i k / n) at k = s m < n/2, gathered from one array
    of those roots."""
    roots = np.exp((2j * np.pi / n) * np.arange(n // 2))
    out = roots.take(np.multiply.outer(np.arange(n // size), np.arange(size // 2 + 1)))
    out.flags.writeable = False
    return out


def _l1_norm(f: SpectralFunction):
    """||f||_1 of a real 1-d f by _l1_rule, on a grid sized by its bandwidth.

    f is a trigonometric polynomial of degree B = f._band,
    so its modes 0..nb/2, nb = min(N, max(8, smallest power of two > 2B)),
    synthesized on n = 8 nb points are exactly its values there.  nb stays
    above 2B: a top mode at nb/2, as a power-of-two band has, would fail
    the error estimate below on the first grid and cost a second synthesis.
    The rule's error is O(h^7), so |I_n - I_{n/2}| / (2^7 - 1), I_{n/2} the
    rule on the even samples at I_n's zeros, estimates it at no extra
    transform; while that exceeds 1e-7 of the norm, n doubles, up to 16 N,
    where an estimate still above it raises QuadratureInaccurate.  The
    rule squares samples (_quadratic_zero); lp_norm's entry has put max |f|
    within 2**-500..2**500, so the squares stay in the float range.
    """
    torus = f.torus
    b = f._band
    nb = min(torus.grid_size, max(8, 1 << (2 * b).bit_length()))
    n = _L1_OVERSAMPLE * nb
    while True:
        vals = _synthesize(f, n, real=True)  # modes above B < n/2 are 0
        norm, coarse = _l1_rule(vals, torus.length / n)
        error = abs(norm - coarse) / 127.0
        if error <= _L1_RTOL * norm:
            return float(norm)
        if n >= _QUAD_OVERSAMPLE_GEN * torus.grid_size:
            raise QuadratureInaccurate(
                f"p = 1 rule on {n} points: error estimate {error:.3g} of a norm of "
                f"{norm:.6g} misses the relative target {_L1_RTOL:g}"
            )
        n *= 2


def _l1_rule(v, h):
    """Integrals of |f| from the samples v of f on a periodic grid of step h
    (I_n) and from its even samples, of step 2h (I_{n/2}).

    Each is the rectangle rule plus closed-form terms for the zeros of f,
    from the quintic p through the six samples j-2..j+3 of its grid around
    each (t in cell units, node j at t = 0).  For a zero theta in the cell
    [j, j+1], the Euler-Maclaurin terms of the kink of |f| there, with
    s = sgn p'(theta) and Bernoulli polynomials B_k, are

        2 s h E(theta),  E(t) = sum_{i=0..5} p^(i)(t) B_{i+1}(1 - t) / (i+1)!

    (the i = 0 term vanishes at the zero).  Since E' = -p, E(theta) =
    E(0) - integral of p over [0, theta]: an error in theta costs only the
    integral of p over the error, so one Newton step suffices from the zero
    of the quadratic with p's values at 0 and 1 and its curvature at 0.
    Two zeros with no sample between them (a dip of f across 0 next to a
    node j where |v| is a low local minimum between samples of its sign)
    are two such terms of opposite signs: together, twice the integral of
    |p| between them.  I_{n/2} takes the zeros found on all the samples,
    each in its cell of the even samples, so that I_n - I_{n/2} reads the
    rules' errors, not where two searches put the zeros.
    """
    mags = np.abs(v)
    kinks, lows = _zero_places(mags, v > 0)
    kink_places, kink_signs, kink_term = _kink_terms(v, kinks)
    dip_places, dip_signs, dip_term = _dip_terms(v, lows)
    stencils, theta = _even_cells(np.concatenate((kink_places, dip_places)))
    maps = _KINK_COARSE @ v.take(stencils, mode="wrap")
    coarse = np.concatenate((kink_signs, dip_signs)) @ _kink_e(maps[-1], maps[:-1], theta)
    fine = h * (float(mags.sum()) + 2.0 * (kink_term + dip_term))
    return fine, 2.0 * h * (float(mags[::2].sum()) + 2.0 * coarse)


def _even_cells(places):
    """Each place (in cells of a grid) in the cells of its even samples: the
    grid indices of the six even samples of its stencil there, and its
    offset theta in [0, 1] in that cell.  One multiply, floor and subtract:
    the split np.divmod(places / 2.0, 1.0) makes, bit for bit (both are
    exact up to the one rounding of the offset, which they share), at a
    fraction of divmod's cost.  places is a new array and becomes theta."""
    places *= 0.5
    nodes = np.floor(places)
    return 2 * nodes.astype(np.intp) + _EVEN_STENCIL, np.subtract(places, nodes, out=places)


def _zero_places(m, p):
    """The kink cells and the dip nodes of a periodic grid, from |v| and
    v > 0, with no padded copy: the interior compares views of the two
    arrays, and the entries across the wrap are set from scalars."""
    flips = np.empty(p.size + 1, bool)  # flips[j]: between nodes j - 1 and j
    np.not_equal(p[:-1], p[1:], out=flips[1:-1])
    flips[0] = flips[-1] = p.item(-1) != p.item(0)
    # the parabola through three samples of one sign crosses 0 only if the
    # outer two add up to more than 10 times the middle one; 3 leaves room
    # for the quintic
    low = np.empty(m.size, bool)
    np.less(3.0 * m[1:-1], m[:-2] + m[2:], out=low[1:-1])
    low[0] = 3.0 * m.item(0) < m.item(-1) + m.item(1)
    low[-1] = 3.0 * m.item(-1) < m.item(-2) + m.item(0)
    either = flips[:-1] | flips[1:]
    np.greater(low, either, out=either)  # low and no flip
    return flips[1:].nonzero()[0], either.nonzero()[0]


def _kink_terms(v, cells):
    """The zero in each kink cell, in cells of v's grid, its sign s and the
    sum of the s E(theta)."""
    s = v.take(cells + _KINK_STENCIL[:, None], mode="wrap")
    maps = _KINK_MAPS @ s
    theta = _newton_step(maps, _quadratic_zero(s[2], s[3], maps[2]), 0.0)
    signs = np.where(s[3] > 0.0, 1.0, -1.0)
    return cells + theta, signs, signs @ _kink_e(maps[_E0], maps[_PINT], theta)


def _kink_e(e0, pint, theta):
    """E(theta) = E(0) - theta * (the antiderivative of p divided by t at
    theta), from the rows E(0) and _PINT of the kink maps."""
    return e0 - theta * _horner(pint, theta)


def _dip_terms(v, nodes):
    """The two zeros next to each dip node where p crosses 0 (a bottom of the
    sign opposite to v_j), in cells of v's grid, their signs and the sum of
    the integrals of |p| between them."""
    if not nodes.size:
        return nodes, nodes, 0.0
    s = v.take(nodes + _KINK_STENCIL[:, None], mode="wrap")
    maps = _KINK_MAPS @ s
    left, mid, right = np.abs(s[1:4])
    curv = maps[2]  # p''(0) / 2, of the sign of v_j at a dip
    dip = (mid < left) & (mid <= right) & (s[2] * curv > 0)
    maps, curv, nodes = maps[:, dip], curv[dip], nodes[dip]
    bottom = -0.5 * maps[1] / curv
    np.maximum(bottom, -1.0, out=bottom)
    np.minimum(bottom, 1.0, out=bottom)
    depth = _horner(maps[_P], bottom)
    half = np.sqrt(np.maximum(-depth / curv, 0.0))  # 0: no zeros
    # the lower zeros lo, then the upper ones hi, each quintic twice: one
    # Newton step and one antiderivative for both
    maps = np.concatenate((maps, maps), axis=1)
    ends = _newton_step(maps, np.concatenate((bottom - half, bottom + half)), -1.0)
    area = ends * _horner(maps[_PINT], ends)
    signs = np.sign(curv)  # f falls through lo and rises through hi where v_j > 0
    k = nodes.size
    places = np.concatenate((nodes, nodes)) + ends
    return places, np.concatenate((-signs, signs)), np.abs(area[k:] - area[:k]).sum()


def _quadratic_zero(v0, v1, curv):
    """The zero in [0, 1] of the quadratic with values v0, v1 at 0, 1 (of
    opposite signs) and t^2-coefficient curv."""
    b = v1 - v0 - curv
    q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(b * b - 4.0 * curv * v0, 0.0)), b))
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = (q / curv, v0 / q)  # the other zero may be infinite
    return np.where(np.abs(roots[0] - 0.5) <= 0.5, roots[0], roots[1])


def _newton_step(maps, t, lowest):
    """One Newton step for a zero of each quintic, kept in [lowest, 1]."""
    slope = _horner(maps[_DP], t)
    slope[slope == 0.0] = np.inf
    step = _horner(maps[_P], t)
    step /= slope
    np.subtract(t, step, out=step)
    np.maximum(step, lowest, out=step)
    return np.minimum(step, 1.0, out=step)


def _horner(coeffs, t):
    """sum_j coeffs[j] * t**j, one polynomial per column of coeffs (at least
    two rows), in one new array: each step multiplies and adds in place."""
    out = coeffs[-1] * t
    for c in coeffs[-2:0:-1]:
        out += c
        out *= t
    out += coeffs[0]
    return out


def _multi_indices(j, d):
    """The multi-indices of order j in d dimensions, (j, 0) first in 2-d."""
    return [(j,)] if d == 1 else [(j - b, b) for b in range(j + 1)]


def sobolev_table(fields, orders, p):
    """Table of the order-j seminorms: one row per field, one column per j in
    orders, the max of lp_norm(D^alpha f, p) over the multi-indices |alpha| = j.

    The W^{k,p} norm is the max of the columns of orders 0..k.  Each
    multi-index costs one lp_norm, taken in the order of _multi_indices.
    fields may be a generator; then only one field is held at a time.
    """
    orders = [derivative_order(j) for j in orders]
    p = parse_exponent(p)
    # per dimension, each order's multi-indices a, each with nz = any(a)
    alphas = {d: [[(a, any(a)) for a in _multi_indices(j, d)] for j in orders] for d in (1, 2)}
    rows = []
    for f in fields:
        d = _require(f, SpectralFunction, "field").torus.dimension
        rows.append([max([lp_norm(f.derivative(a) if nz else f, p) for a, nz in g]) for g in alphas[d]])
        del f  # released before the next field is made
    return np.asarray(rows, dtype=float).reshape(len(rows), len(orders))


def sobolev_norm(f: SpectralFunction, k, p):
    """W^{k,p} norm: max of lp_norm over spectral derivatives of order <= k."""
    k = derivative_order(k, "derivative order k")
    return float(sobolev_table([f], range(k + 1), p).max())


def min_scale(kernel, torus: Torus):
    """Smallest scale keeping the kernel's spectral support below Nyquist."""
    _require(kernel, kernels.Kernel, "kernel")
    return kernel.outer_support / _require(torus, Torus, "torus").nyquist


def _scale_floor(kernel, torus: Torus):
    """The smallest scale convolve_scaled accepts: min_scale less a rounding."""
    return min_scale(kernel, torus) * (1.0 - 1e-12)


def convolve_scaled(T: SpectralFunction, kernel, y):
    """Convolve T with the y-dilate of a spectrally-defined kernel.

    The dilate K_y = y^{-d} K(./y) has transform K_hat(y xi), so the result's
    coefficients are c_m * K_hat(y xi_m): exact, no quadrature.  Scales below
    min_scale(kernel, torus) are rejected (the scaled spectrum would extend
    past Nyquist, silently truncating the result), and so are non-finite
    ones.  The multiplier and the kernel's box, the modes -b..b per axis,
    are read from _kernel_multiplier, and the result keeps b, so its band
    (_band) scans only the box.  At a scale of at least twice the
    smallest, the box (b <= N/4) is narrower than half the torus: only
    its modes are multiplied, and the result's sum of squares is read from
    them, since every mode outside it is exactly 0.  Below that, as on
    every band torus of a p = 2 sweep but the smallest, all modes are.
    """
    _require(T, SpectralFunction, "T")
    _require(kernel, kernels.Kernel, "kernel")
    y = real_parameter(y, "scale", 0.0, error=ScaleOutOfRange)
    floor = _scale_floor(kernel, T.torus)
    if y < floor:
        lo = min_scale(kernel, T.torus)
        raise ScaleOutOfRange(f"scale {y:.6g} below minimum {lo:.6g} for this kernel/torus")
    (table, b), where = _kernel_multiplier(kernel, T.torus, y), _distinct_radii(T.torus)[1]
    # radii past the entry's end take its last value, 0; mult lives until the
    # field is made: freed before, it left detect-lp's peak RSS 0.6 MiB higher
    if y < 2.0 * floor:
        mult = table.take(where, mode="clip")
        return T._derived(T.coefficients * mult, tag="function", box=b)
    box = _central(T.torus, b)
    mult = table.take(where[box], mode="clip")
    c = np.zeros(T.torus.coeff_shape(), complex)
    np.multiply(T.coefficients[box], mult, out=c[box])
    return T._derived(c, tag="function", support=c[box], box=b)


@functools.lru_cache(maxsize=_TORUS_CACHE_SIZE)
def _kernel_multiplier(kernel, torus, y):
    """(table, b), cached per (kernel, torus, y).  table is kernel.profile(y
    |xi|) at the torus's distinct radii (read-only), up to and including the
    first 0 past the last nonzero value: at most N/2 + 1 radii in 1-d, and
    1,782 for the 16,641 modes at 128^2.  Each coefficient reads its value
    through the per-torus index of _distinct_radii.  b, the box half-width,
    is the largest max_i |m_i| over the modes up to that last nonzero
    radius: every mode of convolve_scaled(T, kernel, y) outside the central
    (2b+1)^d box is exactly 0, whatever T.

    Stopping at the support's edge cuts the entries of a default grid on
    T's torus 2.9-fold at 128^2 and 4.5-fold at N = 4096.  A finite y whose
    y |xi| overflows leaves profile(inf) = 0 exactly there.
    """
    radii, where = _distinct_radii(torus)
    with np.errstate(over="ignore"):
        out = kernel.profile(y * radii)
    last = np.flatnonzero(out).max(initial=-1)
    # complex, so that the convolution multiplies complex by complex: the same
    # product as by the float, without casting the float on every call
    out = out[: last + 2].astype(complex)
    out.flags.writeable = False
    return out, int(torus.band_index()[where <= last].max(initial=0))


def _band_restrict(T: SpectralFunction, band):
    """T's central (n+1)^d modes on band, the n-point torus
    _band_torus(kernel, T.torus, y) of the scales it serves.

    Every mode left out, and every kept mode on the band's edge, has
    |xi| >= pi n / L, where K_hat(y xi) is exactly 0, so the convolution on
    the band torus carries exactly the nonzero modes of
    convolve_scaled(T, kernel, y).  Parseval does not see the storage grid,
    so the L^2 norms are those on T's torus up to summation order.  A y
    that no smaller torus accepts has T's own torus as band, and gets T.
    """
    if band == T.torus:
        return T
    return T._derived(T.coefficients[_central(T.torus, band.mode_max)], band)


def _central(torus, b):
    """The index of the modes -b..b on every axis of torus's coefficient array."""
    m = torus.mode_max
    return (slice(m - b, m + b + 1),) * torus.dimension


@functools.lru_cache(maxsize=_TORUS_CACHE_SIZE)
def _band_torus(kernel, torus, y):
    """The first of _band_tori(torus) on which convolve_scaled takes y, else torus."""
    for band in _band_tori(torus):
        if y >= _scale_floor(kernel, band):
            return band
    return torus


@functools.lru_cache(maxsize=_TORUS_CACHE_SIZE)
def _band_tori(torus):
    """Torus(d, L, n) for n = 8, 16, ..., N/2, made once per torus: the
    caches keyed on a band torus then find it by identity, with no __eq__."""
    sizes = (8 << j for j in range(torus.grid_size.bit_length() - 4))
    return tuple(Torus(torus.dimension, torus.length, n) for n in sizes)


def localize(T: SpectralFunction, window: SpectralFunction) -> SpectralFunction:
    """Pointwise product with a smooth band-limited cutoff in [0, 1].

    Computed on a doubly-oversampled grid, so every product coefficient up
    to Nyquist is the exact linear convolution of the stored sequences.
    Modes within the window's bandwidth of Nyquist see only a partial
    convolution against the truncated representation of T; those
    incomputable edge modes are zeroed.  Energy pushed past Nyquist is the
    representation policy for distribution-tagged inputs; for function
    inputs a non-negligible loss raises AliasingRisk.  A real T and window
    give a real product: its coefficients, symmetric up to rounding, are
    stored as their symmetric part 0.5 c_m + 0.5 conj(c_-m).  Any other
    product is real exactly when its coefficients are symmetric.

    Localizing each field of a mollifier net gives a net too (see nets).
    Its norms become small only once eps is small next to the distance
    between the window and the singular support of the net: a band-limited
    mollifier keeps O(1) values at distances comparable to eps.
    """
    _check_operands(T, window)
    wvals = dft_synthesize(window, 2)
    w = wvals.real
    if np.max(np.abs(wvals.imag)) > 1e-9 or w.min() < -1e-9 or w.max() > 1.0 + 1e-9:
        raise InvalidParameter("window must be real-valued with values in [0, 1]")
    tvals = dft_synthesize(T, 2)
    torus = T.torus
    a = np.fft.fftn(tvals * wvals) / ((torus.grid_size * 2) ** torus.dimension)
    complete = torus.mode_max - window.active_bandwidth(rtol=1e-16)
    if complete <= 0:
        raise AliasingRisk("window bandwidth reaches Nyquist; no complete modes")
    edge = torus.band_index() > complete
    c = np.where(edge, 0.0, _gather_modes(a, torus.mode_max))
    if T.is_real() and window.is_real():
        c *= 0.5  # halved before the halves are added: no overflow
        out = T._derived(c + np.conj(np.flip(c)), real=True)
    else:
        out = T._derived(c, real=_is_conjugate_symmetric(c))
    if T.tag == "function":
        total = np.sum(np.abs(a) ** 2)
        if total - out._sum_sq > 1e-14 * max(T._sum_sq, total):
            raise AliasingRisk(
                "product bandwidth exceeds Nyquist; localize would drop "
                f"{float(total - out._sum_sq):.2e} of squared coefficient mass"
            )
    return out


def pairing(f: SpectralFunction, g: SpectralFunction):
    """Distributional pairing <f, g> = integral of f*g over one period.

    Computed as the spectral sum L^d * sum_m f_m g_{-m}; exact for the
    represented truncations.  Only the central box of g's band (the modes
    -b..b per axis, b = g._band, kept by g) is read: every other g_m is 0.
    A real g (g_{-m} == conj(g_m) exactly, SpectralFunction.is_real) pairs
    by one np.vdot(g, f) = sum_m conj(g_m) f_m over the box, contiguous in
    1-d: the same products in the same order as the flipped dot over the
    same box that a complex g takes.
    """
    _check_operands(f, g)
    box = _central(g.torus, g._band)
    f_box, g_box = f.coefficients[box], g.coefficients[box]
    if g._real:
        total = np.vdot(g_box, f_box)
    else:
        # the flat C-order box reversed is its flip on every axis: one dot
        total = np.dot(f_box.ravel(), g_box.ravel()[::-1])
    return complex(total * f.torus.length ** f.torus.dimension)


# kernels imports this module, so it is imported last: by then every name it
# reads from here is defined, whichever of the two is imported first
from . import kernels
