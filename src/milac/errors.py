"""Exception types raised by the milac package, and the argument checks
that raise DimensionError."""

import math
import operator

import numpy as np

# True and False are ints to Python, but never a count, a power or an SNR
BOOLS = (bool, np.bool_)


class MilacError(Exception):
    """Base class for all package errors."""


class DimensionError(MilacError, ValueError):
    """Invalid argument: its type, shape, size, index or value."""


class RankDeficientError(MilacError, ValueError):
    """Channel matrix is numerically rank deficient."""


class NotRealizableError(MilacError, ValueError):
    """A network map has no well-conditioned result: the scattering matrix
    has no lossless reciprocal susceptance realization, or I + j z0 B is
    numerically singular."""


class InconsistentSolutionError(MilacError, ValueError):
    """Results that must agree do not: a layer is not lossless reciprocal,
    an objective history decreases, or two evaluations of one value
    differ."""


class NumericalError(MilacError, ArithmeticError):
    """Iteration met a degenerate or non-finite value: a zero matrix or
    channel column to scale onto the power sphere, or a NaN or infinite
    objective."""


def check_positive(name: str, value) -> float:
    """value as a float; DimensionError unless it is finite, positive and
    not a bool."""
    try:
        ok = not isinstance(value, BOOLS) and math.isfinite(value) and value > 0
    except (TypeError, OverflowError):  # not a real number, or past float range
        ok = False
    if not ok:
        raise DimensionError(f"{name} must be finite and positive, got {value!r}")
    return float(value)


def check_count(name: str, value, minimum: int) -> int:
    """value as an int; DimensionError unless it is an integer >= minimum
    and not a bool."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or isinstance(value, BOOLS):
        raise DimensionError(f"{name} must be an integer, got {value!r}")
    if n < minimum:
        raise DimensionError(f"{name} must be >= {minimum}, got {n}")
    return n


def check_type(name: str, value, cls):
    """value; DimensionError naming its type unless it is a cls."""
    if not isinstance(value, cls):
        raise DimensionError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


def check_array(name: str, value, ndim=None, *, real=False, finite=True) -> np.ndarray:
    """value as a complex128 array (float64 when real), not copied if it
    is one; DimensionError naming name for a ragged nesting, a bool,
    string or object dtype, a complex one when real, an ndim other than a
    given one, and, when finite, a NaN or infinite entry."""
    try:
        a = np.asarray(value)
    except ValueError:  # numpy's refusal of a ragged nesting
        raise DimensionError(f"{name} must be a rectangular array, got a ragged nesting") from None
    if a.dtype.kind not in ("iuf" if real else "iufc"):
        kind = "real numbers" if real else "numbers"
        raise DimensionError(f"{name} must hold {kind}, got dtype {a.dtype}")
    if ndim is not None and a.ndim != ndim:
        raise DimensionError(f"{name} must be {ndim}-D, got shape {a.shape}")
    a = a.astype(np.float64 if real else np.complex128, copy=False)
    if finite and not np.isfinite(a).all():
        raise DimensionError(f"{name} has non-finite entries")
    return a


def check_noise(sigma, K: int) -> np.ndarray:
    """sigma as K finite positive noise standard deviations (float64);
    DimensionError otherwise."""
    sigma = check_array("sigma", sigma, real=True, finite=False)
    if sigma.shape != (K,):
        raise DimensionError(f"sigma must have shape ({K},), got {sigma.shape}")
    # on Python floats: this runs on every rate evaluation, where two numpy
    # reductions would cost several times more
    if not all(0.0 < x < math.inf for x in sigma.tolist()):
        raise DimensionError("sigma entries must be positive and finite")
    return sigma
