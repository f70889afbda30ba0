"""Exception types shared across the package; `_index`, `_real` and
`_points`, the one check of integer arguments, of real arguments and of
arrays of points; and MAX_LATTICE_BYTES, the one memory bound.

The CLI maps these onto its exit-code contract: configuration problems
exit 1, verification failures exit 2, numeric failures exit 3.
"""

import math
import numbers
import operator

import numpy as np

# Largest peak one selection's lattice tables (`estimator._lattice_bytes`),
# an oracle smoothing pass, a packing check or an evaluation grid's mesh
# and values may need; bigger ones are refused by name before they are built.
MAX_LATTICE_BYTES = 2**30


class InvalidParameterError(ValueError):
    """A constructor or operation received an out-of-contract argument."""


def _index(value, name: str, least: int | None = None) -> int:
    """value as an int. Only Python and numpy integers pass, not bools
    and not integral floats, and when least is given only those >= least;
    anything else is refused by name. Every count, size, order, exponent,
    axis and seed goes through here."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise InvalidParameterError(f"{name} must be >= {least}, got {value}")
    return value


def _real(value, name: str, least: float | None = None, *, above: float | None = None,
          finite: bool = True) -> float:
    """value as a float. Only Python and numpy reals pass (integers and
    0-d arrays included), not bools, None, strings, complex numbers or
    nan, and inf only when finite is False; when least is given only
    those >= least, when above is given only those > above. Anything
    else is refused by name. Every real parameter goes through here."""
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value[()]
    try:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError
        value = float(value)
    except (TypeError, OverflowError):
        raise InvalidParameterError(f"{name} must be a real number, got {value!r}") from None
    if math.isnan(value) or (finite and math.isinf(value)):
        raise InvalidParameterError(f"{name} must be {'finite' if finite else 'a number'}, "
                                    f"got {value!r}")
    if least is not None and value < least:
        raise InvalidParameterError(f"{name} must be >= {least:g}, got {value!r}")
    if above is not None and value <= above:
        raise InvalidParameterError(f"{name} must be > {above:g}, got {value!r}")
    return value


def _points(value, name: str, dim: int | None = None, single: bool | None = False
            ) -> np.ndarray:
    """value as a float array of finite points of R^dim: one point of
    shape (dim,) when single, rows of shape (m, dim) when not, and either
    when single is None (the array's shape tells). dim None takes any
    d >= 1 from the rows. Nested lists and integer or float arrays pass
    as float64, so a float64 array is returned as it is; bool, complex,
    string, None and object entries, ragged rows, any other shape and
    nan or inf are refused by name. Rows given as [] are (0, dim).
    Every array of observations or evaluation points goes through here."""
    try:
        arr = np.asarray(value)
    except ValueError:
        raise InvalidParameterError(f"{name} must be an array of points, got ragged rows") from None
    if arr.dtype.kind not in "iuf":
        raise InvalidParameterError(f"{name} must be real numbers, got {arr.dtype} entries")
    arr = arr.astype(float, copy=False)
    if single is None:
        single = arr.ndim == 1
    if single:
        if arr.shape != (dim,):
            raise InvalidParameterError(f"{name} must be of shape ({dim},), got {arr.shape}")
    else:
        if arr.shape == (0,) and dim is not None:
            arr = arr.reshape(0, dim)
        if arr.ndim != 2 or arr.shape[1] < 1 or dim not in (None, arr.shape[1]):
            raise InvalidParameterError(
                f"{name} must be of shape (m, {dim or 'd'}), got {arr.shape}")
    bad = ~np.isfinite(arr)
    if bad.any():
        raise InvalidParameterError(f"{name} must be finite, got {arr[bad][0]}")
    return arr


class ConstructionFailureError(RuntimeError):
    """A randomized construction exhausted its retry budget."""


class EfficiencyError(RuntimeError):
    """A sampler's acceptance rate is below the usable floor."""


class NumericError(ArithmeticError):
    """A numeric routine produced NaN/inf or failed to converge."""


class VerificationError(AssertionError):
    """A self-check that must hold by construction failed."""


class ConfigError(ValueError):
    """An experiment configuration document is malformed."""
