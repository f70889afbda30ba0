"""Exception types shared across the package, and `_index`, the one
check of integer arguments.

The CLI maps these onto its exit-code contract: configuration problems
exit 1, verification failures exit 2, numeric failures exit 3.
"""

import operator


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
