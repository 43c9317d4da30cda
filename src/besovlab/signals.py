"""Built-in test signals with exact closed-form spectra.

These are the objects the detectors are exercised against: the Dirac comb
restricted to one period, a single-jump periodic ramp (the "heaviside"
input), the |sin|-type kink, lacunary cosine series with a prescribed
Holder exponent, and band-limited smooth bumps used as windows and test
functions.  All emit Nyquist-balanced coefficient arrays.
"""

import numpy as np

from .errors import InvalidParameter
from .spectral import SpectralFunction, Torus, real_parameter

__all__ = [
    "dirac",
    "constant",
    "heaviside",
    "kink",
    "sine",
    "cosine",
    "lacunary",
    "bump",
]


def dirac(torus: Torus):
    """Unit Dirac at x = 0: every coefficient equals 1/L^d."""
    c = np.full(torus.coeff_shape(), 1.0 / torus.length**torus.dimension, dtype=complex)
    return SpectralFunction(torus, c, "distribution")


def constant(torus: Torus, value=1.0):
    c = np.zeros(torus.coeff_shape(), dtype=complex)
    c[(torus.mode_max,) * torus.dimension] = real_parameter(value, "constant value")
    return SpectralFunction(torus, c, "function")


def _empty_1d(torus):
    if torus.dimension != 1:
        raise InvalidParameter("this generator is one-dimensional")
    return np.zeros(torus.coeff_shape(), dtype=complex)


def heaviside(torus: Torus):
    """Single-jump periodic ramp: h(x) = 1 - x/L on (0, L), jump +1 at x = 0.

    The linear part is killed by any mean-zero kernel with a vanishing first
    moment, so the only scale-relevant feature is the unit jump.
    """
    c = _empty_1d(torus)
    mmax = torus.mode_max
    m = np.arange(-mmax + 1, mmax)
    nz = m != 0
    c[1:-1][nz] = -1j / (2.0 * np.pi * m[nz])
    c[mmax] = 0.5
    return SpectralFunction(torus, c, "function")


def kink(torus: Torus):
    """|sin(2 pi x / L)|: Lipschitz with kinks, Zygmund exponent exactly 1."""
    c = _empty_1d(torus)
    mmax = torus.mode_max
    c[mmax] = 2.0 / np.pi
    n = np.arange(1, (mmax - 1) // 2 + 1)
    coef = -2.0 / (np.pi * (4.0 * n**2 - 1.0))
    c[mmax + 2 * n] = coef
    c[mmax - 2 * n] = coef
    return SpectralFunction(torus, c, "function")


def sine(torus: Torus, mode=1):
    return _mode_pair(torus, mode, -0.5j, 0.5j)


def cosine(torus: Torus, mode=1):
    return _mode_pair(torus, mode, 0.5, 0.5)


def _mode_pair(torus, mode, plus, minus):
    """Coefficients plus at +mode and minus at -mode, for an integer 0 < mode < mode_max."""
    c = _empty_1d(torus)
    mmax = torus.mode_max
    mode = real_parameter(mode, "mode", 0, mmax, integer=True)
    c[mmax + mode] = plus
    c[mmax - mode] = minus
    return SpectralFunction(torus, c, "function")


def lacunary(torus: Torus, alpha):
    """Weierstrass-type series: sum over n of 2^(-alpha n) cos(2^n 2 pi x / L).

    Holder exponent alpha in (0, 1); dyadic modes capped at N/4 so the top
    term stays well inside the band.
    """
    alpha = real_parameter(alpha, "lacunary exponent", 0.0, 1.0)
    c = _empty_1d(torus)
    mmax = torus.mode_max
    n = 0
    while 2**n <= mmax // 2:
        amp = 0.5 * 2.0 ** (-alpha * n)
        c[mmax + 2**n] += amp
        c[mmax - 2**n] += amp
        n += 1
    return SpectralFunction(torus, c, "function")


def bump(torus: Torus, center=0.5, halfwidth=0.1):
    """Band-limited periodized Gaussian bump, peak value 1, values in [0, 1].

    Coefficients follow the Gaussian transform exp(-(xi h)^2 / 4), scaled to
    sum to 1 (the peak value) and cut once they decay below 1e-18 of the
    top; the result is smooth, effectively supported within a
    few halfwidths of the center, and safely inside the band for
    halfwidth >~ 10/N.  The center is taken modulo L, so a huge one does
    not overflow the phase.
    """
    if torus.dimension != 1:
        raise InvalidParameter("bump is one-dimensional")
    h = real_parameter(halfwidth, "halfwidth", 0.0)
    center = real_parameter(center, "center")
    xi = torus.frequencies()
    with np.errstate(over="ignore"):  # a huge halfwidth: exp(-inf) = 0 is exact
        g = np.exp(-((xi * h) ** 2) / 4.0)
    g[np.abs(g) < 1e-18 * np.max(g)] = 0.0
    g[0] = g[-1] = 0.0
    # positive coefficients: the peak sits exactly at the center
    g = g / np.sum(g)
    c = g * np.exp(-1j * xi * (center % torus.length))
    return SpectralFunction(torus, c, "function")
