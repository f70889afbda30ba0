"""Kernel construction: cosine base profile, moment-corrected mixtures,
tensor products, pair convolutions, and their shared envelope.

The univariate building block is a raised-cosine bump with unit
integral. Alternating binomial mixtures of its dilates cancel
polynomial moments up to the requested order while keeping the support
inside [-1/2, 1/2] with zero endpoint values. Everything downstream
consumes uniform tabulations with linear interpolation that is exactly
zero outside the support, so estimator sums and quadrature all see one
cheap, consistent representation.

Three types carry all of it: `Tabulated1D` (a uniform table),
`Kernel1D` (an order-ell profile on such a table: the base bump, the
moment-corrected mixture, a pair convolution, or the envelope of pair
convolutions) and `ProductKernel` (one profile repeated across dim
axes, for the kernel K as for the envelope).

Pair convolutions q_r(t) = int k(t - r*u) k(u) du, r in (0, 1], drive
both the two-bandwidth estimators and the envelope kernel.
`convolve_ratio` tabulates one by the trapezoid rule over the
closed-form profile; it keeps no state, and an estimation setup holds
the tables for its lattice ratios. Each mixture term is a shifted
cosine on an interval, so the angle-addition formula turns every table
node into a few prefix-sum differences over the quadrature nodes:
O(m * ell) per table, m the node count.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import InvalidParameterError, _index, _points, _real

DEFAULT_TABLE_SIZE = 4096
MIN_TABLE_SIZE = 64


def _trapezoid_sum(values: np.ndarray, dx: float) -> float:
    return float(dx * (values.sum() - 0.5 * (values[0] + values[-1])))


def _interp_uniform(lo: float, step: float, values: np.ndarray, y) -> np.ndarray:
    """Linear interpolation on a uniform grid, exactly 0 outside the table;
    tables stacked along the leading axes of values share one index and
    fraction computation."""
    y = np.asarray(y)
    if y.dtype.kind not in "iuf":
        raise InvalidParameterError(f"y must be real numbers, got {y.dtype} entries")
    y = y.astype(float, copy=False)
    bad = ~np.isfinite(y)
    if bad.any():
        raise InvalidParameterError(f"y must be finite, got {y[bad][0]}")
    size = values.shape[-1]
    pos = (y - lo) / step
    idx = np.clip(np.floor(pos), 0, size - 2).astype(np.int64)
    frac = pos - idx
    out = values[..., idx] * (1.0 - frac) + values[..., idx + 1] * frac
    return np.where((pos >= 0.0) & (pos <= size - 1.0), out, 0.0)


@dataclass(frozen=True, eq=False)
class Tabulated1D:
    """A function of one variable stored on a uniform node grid.

    Every profile in this package vanishes at its table endpoints, so
    zero extension keeps the interpolant continuous on all of R. A
    writeable array is copied; a read-only one (such as a row of an
    estimation setup's stacked table) is shared.
    """

    lo: float
    hi: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise InvalidParameterError("tabulation needs a 1-d array of >= 2 values")
        if not self.hi > self.lo:
            raise InvalidParameterError(f"empty table interval [{self.lo}, {self.hi}]")
        if vals.flags.writeable:
            vals = vals.copy()
            vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.values.size - 1)

    def __call__(self, y) -> np.ndarray:
        return _interp_uniform(self.lo, self.step, self.values, y)

    def nodes(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.values.size)

    def integral(self) -> float:
        return _trapezoid_sum(self.values, self.step)

    def moment(self, k: int) -> float:
        return _trapezoid_sum(self.nodes() ** _index(k, "k", 0) * self.values, self.step)

    def sup_norm(self) -> float:
        # piecewise linear, so the extremum sits on a node
        return float(np.max(np.abs(self.values)))

    def support(self) -> tuple[float, float]:
        return (self.lo, self.hi)


def _bump_shape(ell: int) -> tuple[int, float, float]:
    """(amplitude, frequency, half-width) of the order-ell base bump
    amplitude * (1 + cos(frequency * y)) on |y| <= half-width."""
    return ell, 2.0 * np.pi * ell, 0.5 / ell


def _mixture_terms(ell: int) -> tuple[tuple[float, int], ...]:
    """(weight, dilation) of each term of the order-ell mixture
    sum_i weight_i * bump(y / dilation_i)."""
    return tuple((comb(ell, i) * (-1.0) ** (i + 1) / i, i) for i in range(1, ell + 1))


def _cosine_bump(ell: int, y) -> np.ndarray:
    """Closed-form base profile of order ell on [-1/(2 ell), 1/(2 ell)]."""
    y = np.asarray(y, dtype=float)
    amp, freq, half = _bump_shape(ell)
    out = amp * (1.0 + np.cos(freq * y))
    return np.where(np.abs(y) <= half, out, 0.0)


def _moment_corrected(ell: int, y) -> np.ndarray:
    """Closed-form alternating binomial mixture of dilated base bumps."""
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.shape, dtype=float)
    for weight, dil in _mixture_terms(ell):
        out += weight * _cosine_bump(ell, y / dil)
    return out


def _check_order_and_table(ell: int, table_size: int) -> tuple[int, int]:
    """The kernel order and table size as ints within their bounds."""
    return _index(ell, "kernel order ell", 1), _index(table_size, "table_size", MIN_TABLE_SIZE)


@dataclass(frozen=True, eq=False)
class Kernel1D:
    """An order-ell profile on a uniform table, zero outside it."""

    ell: int
    profile: Tabulated1D

    @property
    def table_size(self) -> int:
        # subinterval count; table_size + 1 nodes put a node at 0 exactly
        return self.profile.values.size - 1

    @property
    def sup_norm(self) -> float:
        return self.profile.sup_norm()

    def __call__(self, y) -> np.ndarray:
        return self.profile(y)


@dataclass(frozen=True, eq=False)
class ProductKernel:
    """Tensor product of one profile across dim axes: the kernel K, whose
    factor is the composite profile, or the envelope, whose factor is the
    pointwise max of |q_r| over a ratio set."""

    dim: int
    factor: Kernel1D

    def __post_init__(self):
        object.__setattr__(self, "dim", _index(self.dim, "dim", 1))

    @property
    def k_inf(self) -> float:
        # one factor per axis, as in the product itself (not sup ** dim)
        out = 1.0
        for _ in range(self.dim):
            out *= self.factor.sup_norm
        return out

    @property
    def half_width(self) -> float:
        """Per-axis support half-width (profiles are symmetric)."""
        return abs(self.factor.profile.lo)

    @property
    def per_dim_envelope(self) -> tuple[Tabulated1D, ...]:
        # read only by perfbench/worker.py (`table_bytes`); drop it when
        # the benchmark reads `factor` instead
        return (self.factor.profile,) * self.dim

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = _points(pts, "pts", self.dim)
        out = self.factor(pts[:, 0])
        for j in range(1, self.dim):
            out = out * self.factor(pts[:, j])
        return out

    def integral(self) -> float:
        out = 1.0
        for _ in range(self.dim):
            out *= self.factor.profile.integral()
        return out

    def support(self) -> np.ndarray:
        return np.tile(self.factor.profile.support(), (self.dim, 1))


def build_base(ell: int, table_size: int = DEFAULT_TABLE_SIZE) -> Kernel1D:
    """Tabulate the raised-cosine base profile of order ell.

    table_size counts subintervals; the table carries table_size + 1
    nodes so the origin is always a node and per-unit spacing matches
    the convolution tables.
    """
    ell, table_size = _check_order_and_table(ell, table_size)
    half = 0.5 / ell
    nodes = np.linspace(-half, half, table_size + 1)
    return Kernel1D(ell=ell, profile=Tabulated1D(-half, half, _cosine_bump(ell, nodes)))


def build_composite(base: Kernel1D) -> Kernel1D:
    """Mix dilates of the base profile to cancel moments 1..ell-1."""
    nodes = np.linspace(-0.5, 0.5, base.table_size + 1)
    values = _moment_corrected(base.ell, nodes)
    return Kernel1D(ell=base.ell, profile=Tabulated1D(-0.5, 0.5, values))


def build_product(composite: Kernel1D, dim: int) -> ProductKernel:
    """Tensor product of the composite profile across dim axes."""
    return ProductKernel(dim=dim, factor=composite)


def convolve_ratio(composite: Kernel1D, ratio: float) -> Kernel1D:
    """Tabulate q_r(t) = int k(t - r*u) k(u) du on [-1, 1].

    r is the smaller-to-larger bandwidth ratio along one axis. The
    integrand uses the closed-form order-ell profile (the tabulation is
    a faithful rendering of it), integrated by the trapezoid rule on a
    grid matching the composite's per-unit node spacing. Each mixture
    term c * (1 + cos(a*y)) on |y| <= s splits, by
    cos(a(t - r*u)) = cos(a*t) cos(a*r*u) + sin(a*t) sin(a*r*u), into
    three weighted sums over the u-nodes with |t - r*u| <= s. Those
    nodes are contiguous, so each sum is a difference of two prefix
    sums and the table costs O(m * ell) for m nodes. The function keeps
    no state: every call builds a fresh order-ell table on [-1, 1].
    """
    r = _real(ratio, "ratio", above=0.0)
    if r > 1.0:
        raise InvalidParameterError(f"ratio must lie in (0, 1], got {ratio!r}")
    ell = composite.ell
    m = 2 * composite.table_size + 1
    t_nodes = np.linspace(-1.0, 1.0, m)
    u_nodes = np.linspace(-0.5, 0.5, m)
    du = 1.0 / (m - 1)
    weighted_k = _moment_corrected(ell, u_nodes) * du
    weighted_k[0] *= 0.5
    weighted_k[-1] *= 0.5

    # q_r is even, so compute t >= 0 and mirror
    half = m // 2
    tt = t_nodes[half:]
    ru = r * u_nodes  # increasing, so each support window is one index range
    amp, freq, bump_half = _bump_shape(ell)
    pos_vals = np.zeros(half + 1)
    for weight, dil in _mixture_terms(ell):
        a, s = freq / dil, bump_half * dil
        lo = np.searchsorted(ru, tt - s, side="left")
        hi = np.searchsorted(ru, tt + s, side="right")
        for summand, phase in (
            (weighted_k, 1.0),
            (weighted_k * np.cos(a * ru), np.cos(a * tt)),
            (weighted_k * np.sin(a * ru), np.sin(a * tt)),
        ):
            csum = np.concatenate(([0.0], np.cumsum(summand)))
            pos_vals += (weight * amp) * phase * (csum[hi] - csum[lo])
    values = np.concatenate([pos_vals[:0:-1], pos_vals])
    return Kernel1D(ell=ell, profile=Tabulated1D(-1.0, 1.0, values))


def build_envelope(pair_tables, dim: int) -> ProductKernel:
    """Per-axis pointwise max of |q_r| over the given q_r tables.

    The factorized form is exact for product kernels: each axis of a
    pair kernel depends on its own ratio only, and every ratio vector
    in the set's cartesian power is realized by some bandwidth pair.
    """
    if not pair_tables:
        raise InvalidParameterError("ratio_set must be non-empty")
    # a running max, so no (ratios x nodes) stack is ever allocated
    env = np.abs(pair_tables[0].profile.values)
    for q in pair_tables[1:]:
        env = np.maximum(env, np.abs(q.profile.values))
    return ProductKernel(dim=dim, factor=Kernel1D(ell=pair_tables[0].ell,
                                                  profile=Tabulated1D(-1.0, 1.0, env)))


def build_majorant(composite: Kernel1D, ratio_set, dim: int) -> ProductKernel:
    """Envelope of |q_r| over the distinct ratios in ratio_set."""
    ratios = sorted({_real(r, "ratio") for r in ratio_set})
    return build_envelope([convolve_ratio(composite, r) for r in ratios], dim)
