"""Dyadic bandwidth lattice.

Bandwidths are vectors h with h_j = 2**(-k_j) for small non-negative
integer exponents k_j. Carrying the exponents instead of the float
values keeps every lattice operation exact, hashable, and usable as a
cache key; the float values are powers of two, so volume identities
hold to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _cartesian

import numpy as np

from .errors import InvalidParameterError


@dataclass(frozen=True)
class Bandwidth:
    """One lattice point; exponent k_j gives the axis-j scale 2**(-k_j)."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.exponents) == 0:
            raise InvalidParameterError("bandwidth needs at least one axis")
        cleaned = []
        for k in self.exponents:
            if k != int(k) or k < 0:
                raise InvalidParameterError(
                    f"exponents must be non-negative integers, got {self.exponents!r}"
                )
            cleaned.append(int(k))
        object.__setattr__(self, "exponents", tuple(cleaned))

    @property
    def dim(self) -> int:
        return len(self.exponents)

    @property
    def values(self) -> np.ndarray:
        return 2.0 ** -np.asarray(self.exponents, dtype=float)

    @property
    def volume(self) -> float:
        # a single power of two, hence exact
        return 2.0 ** -sum(self.exponents)

    @property
    def sort_key(self) -> tuple:
        """Selector tie-break key: largest volume first, then lexicographic."""
        return (sum(self.exponents), self.exponents)


@dataclass(frozen=True)
class BandwidthGrid:
    """The full lattice {0, ..., max_exponent}^dim, iterated lexicographically."""

    dim: int
    max_exponent: int

    def __post_init__(self):
        for name, low in (("dim", 1), ("max_exponent", 0)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise InvalidParameterError(f"{name} must be >= {low}, got {value}")
            object.__setattr__(self, name, int(value))

    def __len__(self) -> int:
        return (self.max_exponent + 1) ** self.dim

    def __iter__(self):
        for exps in _cartesian(range(self.max_exponent + 1), repeat=self.dim):
            yield Bandwidth(exps)

    def __contains__(self, h: Bandwidth) -> bool:
        return h.dim == self.dim and all(
            0 <= k <= self.max_exponent for k in h.exponents
        )

    def index(self, h: Bandwidth) -> int:
        """Position of h in the lexicographic iteration order."""
        if h not in self:
            raise InvalidParameterError(f"bandwidth {h.exponents} not on this grid")
        idx = 0
        for k in h.exponents:
            idx = idx * (self.max_exponent + 1) + k
        return idx

    def exponent_matrix(self) -> np.ndarray:
        """All exponent vectors as an (len(grid), dim) int array, in order."""
        rows = list(_cartesian(range(self.max_exponent + 1), repeat=self.dim))
        return np.asarray(rows, dtype=np.int64)

    def ratios(self) -> tuple[float, ...]:
        """Every per-axis meet/join ratio realizable on this grid."""
        return tuple(2.0 ** -j for j in range(self.max_exponent + 1))


def build_grid(n: int, dim: int) -> BandwidthGrid:
    """Lattice for sample size n: exponents up to floor(log2 n)."""
    if n != int(n) or n < 2:
        raise InvalidParameterError(f"sample size must be an integer >= 2, got {n!r}")
    return BandwidthGrid(dim=dim, max_exponent=int(n).bit_length() - 1)


def _check_pair(h: Bandwidth, eta: Bandwidth) -> None:
    if h.dim != eta.dim:
        raise InvalidParameterError(
            f"dimension mismatch: {h.dim} vs {eta.dim}"
        )


def join(h: Bandwidth, eta: Bandwidth) -> Bandwidth:
    """Coordinate-wise larger bandwidth (smaller exponent)."""
    _check_pair(h, eta)
    return Bandwidth(tuple(min(a, b) for a, b in zip(h.exponents, eta.exponents)))


def meet(h: Bandwidth, eta: Bandwidth) -> Bandwidth:
    """Coordinate-wise smaller bandwidth (larger exponent)."""
    _check_pair(h, eta)
    return Bandwidth(tuple(max(a, b) for a, b in zip(h.exponents, eta.exponents)))


def geq(h: Bandwidth, eta: Bandwidth) -> bool:
    """True when h_j >= eta_j in every coordinate (as scale values)."""
    _check_pair(h, eta)
    return all(a <= b for a, b in zip(h.exponents, eta.exponents))


def ratio(h: Bandwidth, eta: Bandwidth) -> np.ndarray:
    """Per-axis meet/join ratio, each an exact power of two in (0, 1]."""
    _check_pair(h, eta)
    diffs = np.abs(
        np.asarray(h.exponents, dtype=float) - np.asarray(eta.exponents, dtype=float)
    )
    return 2.0 ** -diffs
