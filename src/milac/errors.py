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
