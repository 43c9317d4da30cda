"""Exception types shared across the toolkit."""

__all__ = [
    "BesovlabError",
    "InvalidParameter",
    "ScaleOutOfRange",
    "AliasingRisk",
    "QuadratureInaccurate",
    "DegenerateProfile",
    "InvalidPair",
]


class BesovlabError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameter(BesovlabError, ValueError):
    """A numeric parameter is outside its admissible range."""


class ScaleOutOfRange(BesovlabError, ValueError):
    """A convolution scale would push the kernel spectrum past Nyquist."""


class AliasingRisk(BesovlabError, RuntimeError):
    """A grid operation would silently alias out-of-band spectral content."""


class QuadratureInaccurate(BesovlabError, RuntimeError):
    """A space-domain quadrature could not meet its accuracy target."""


class DegenerateProfile(BesovlabError, RuntimeError):
    """Too few usable points remain in a scale profile to fit an exponent."""


class InvalidPair(BesovlabError, ValueError):
    """A kernel pair failed its compatibility verification."""
