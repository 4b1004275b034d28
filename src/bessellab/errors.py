"""Shared exception types and the argument checks that raise DomainError.

Every failure mode that callers are expected to handle gets its own class;
plain ValueError/RuntimeError are reserved for programming errors.

An argument from outside the package is checked by one of four checks for
real values, each returning the converted value:

* ``_check_points(t, lo, hi, name)``: t as a float array whose every entry
  is finite and in [lo, hi]; the error names "finite" or "support";
* ``_as_index(n, lo, hi, name)``: n as an int array whose every entry is an
  integer value in [lo, hi] (integer-valued floats such as 10.0 pass); the
  error names "integer";
* ``_check_number(v, lo, hi, name)``: v as a finite float in [lo, hi],
  with ``math`` only, for scalar parameters on per-call paths;
* ``_as_seed(seed, name)``: seed as a Python int >= 0, with no upper bound,
  since derived seeds fill [0, 2^64) and ``_as_index`` stops at 2^63;

and by ``_check_complex(z, name)``: z as a complex array whose every entry
has finite real and imaginary parts, for the points of the equilibrium
maps; the error names "finite".

Every interval is closed.  An open bound is passed as the nearest float
inside it: ``_POSITIVE`` for "> 0", ``_BELOW_ONE`` for "< 1",
``_ABOVE_ONE`` for "> 1" and ``_ABOVE_MINUS_ONE`` for "> -1".  Neither NaN
nor an infinity passes any check, even against an infinite bound.
"""

import math
import operator

import numpy as np

_POSITIVE = math.ulp(0.0)
_BELOW_ONE = math.nextafter(1.0, 0.0)
_ABOVE_ONE = math.nextafter(1.0, 2.0)
_ABOVE_MINUS_ONE = math.nextafter(-1.0, 0.0)
_FLOAT_MAX = math.nextafter(math.inf, 0.0)
_INT_MAX = math.nextafter(2.0**63, 0.0)


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class ConvergenceFailure(RuntimeError):
    """An iterative solver did not reach its target accuracy."""


class SequenceExhausted(RuntimeError):
    """A finite point sequence is too short for the requested operation."""


class PrecisionFailure(RuntimeError):
    """Floating-point precision was insufficient for a certified result."""


class DiscretizationFailure(RuntimeError):
    """A discretization was too coarse to represent the target operator."""


def _check_points(t, lo, hi, name):
    """t as a float array; DomainError unless every entry is finite and in
    [lo, hi]."""
    t = np.asarray(t, dtype=float)
    # one reduction on the accepted path, the reason worked out only on
    # failure: a comparison with a finite bound is false at NaN and at an
    # infinity beyond it, so with the bounds made finite the two
    # comparisons are the finite check too
    if ((t >= max(lo, -_FLOAT_MAX)) & (t <= min(hi, _FLOAT_MAX))).all():
        return t
    if not np.all(np.isfinite(t)):
        raise DomainError(f"{name} must be finite")
    raise DomainError(f"{name} must lie in the support [{lo!r}, {hi!r}]")


def _as_index(n, lo, hi, name):
    """n as an int array; DomainError unless every entry is an integer value
    in [lo, hi]."""
    # bounds made finite and below 2^63 in size reject NaN and inf and keep
    # the conversion to int exact
    low, high = max(lo, -_INT_MAX), min(hi, _INT_MAX)
    # the common case, without numpy: every one of the 370 calls of a
    # perfbench kernel_limits pass passes a Python int, and this path takes
    # 0.7 us against the numpy path's 4.6 us (1.4 ms a pass, 2 vCPU)
    if type(n) is int and low <= n <= high:
        return np.asarray(n)
    n = np.asarray(n)
    f = n.astype(float)
    if ((f == np.floor(f)) & (f >= low) & (f <= high)).all():
        return n.astype(int)
    raise DomainError(f"{name} must be an integer in [{lo}, {hi}]")


def _check_number(v, lo, hi, name):
    """v as a float; DomainError unless it is finite and in [lo, hi]."""
    v = float(v)
    # math.isfinite stays even with lo <= v <= hi: that lets inf through
    # when hi is inf
    if lo <= v <= hi and math.isfinite(v):
        return v
    raise DomainError(f"{name} must be finite and in [{lo!r}, {hi!r}], got {v!r}")


def _as_seed(seed, name):
    """seed as an int; DomainError unless it is an integer value >= 0."""
    try:
        s = operator.index(seed)  # int and the numpy integers, exactly
    except TypeError:
        f = float(seed)
        s = int(f) if f.is_integer() else -1  # NaN and inf are not integers
    if s >= 0:
        return s
    raise DomainError(f"{name} must be an integer >= 0, got {seed!r}")


def _check_complex(z, name):
    """z as a complex array; DomainError unless both parts of every entry
    are finite."""
    z = np.asarray(z, dtype=complex)
    if np.isfinite(z).all():
        return z
    raise DomainError(f"{name} must be finite")
