"""Kernel construction: cosine base profile, moment-corrected mixtures,
tensor products, pair convolutions, and their shared envelope.

The univariate building block is a raised-cosine bump with unit
integral. Alternating binomial mixtures of its dilates cancel
polynomial moments up to the requested order while keeping the support
inside [-1/2, 1/2] with zero endpoint values. Everything downstream
consumes uniform tabulations with linear interpolation that is exactly
zero outside the support, so estimator sums and quadrature all see one
cheap, consistent representation.

Pair convolutions q_r(t) = int k(t - r*u) k(u) du, r in (0, 1], drive
both the two-bandwidth estimators and the envelope kernel. They are
tabulated once per (order, table_size, r) by the trapezoid rule over
the closed-form profile and cached for the life of the process. Each
mixture term is a shifted cosine on an interval, so the angle-addition
formula turns every table node into a few prefix-sum differences over
the quadrature nodes: O(m * ell) per table, m the node count.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .bandwidths import Bandwidth
from .errors import InvalidParameterError

DEFAULT_TABLE_SIZE = 4096
MIN_TABLE_SIZE = 64


def _trapezoid_sum(values: np.ndarray, dx: float) -> float:
    return float(dx * (values.sum() - 0.5 * (values[0] + values[-1])))


def _interp_uniform(lo: float, step: float, values: np.ndarray, y) -> np.ndarray:
    """Linear interpolation on a uniform grid, exactly 0 outside the table."""
    pos = (np.asarray(y, dtype=float) - lo) / step
    idx = np.clip(np.floor(pos), 0, values.size - 2).astype(np.int64)
    frac = pos - idx
    out = values[idx] * (1.0 - frac) + values[idx + 1] * frac
    return np.where((pos >= 0.0) & (pos <= values.size - 1.0), out, 0.0)


@dataclass(frozen=True, eq=False)
class Tabulated1D:
    """A function of one variable stored on a uniform node grid.

    Every profile in this package vanishes at its table endpoints, so
    zero extension keeps the interpolant continuous on all of R.
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
        return _trapezoid_sum(self.nodes() ** k * self.values, self.step)

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


def _check_order_and_table(ell: int, table_size: int) -> None:
    if ell != int(ell) or ell < 1:
        raise InvalidParameterError(f"kernel order must be a positive integer, got {ell!r}")
    if table_size != int(table_size) or table_size < MIN_TABLE_SIZE:
        raise InvalidParameterError(
            f"table_size must be an integer >= {MIN_TABLE_SIZE}, got {table_size!r}"
        )


@dataclass(frozen=True, eq=False)
class BaseKernel1D:
    """Raised-cosine bump of order ell, tabulated on its own support."""

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
class CompositeKernel1D:
    """Order-ell mixture with vanishing moments 1..ell-1 on [-1/2, 1/2]."""

    ell: int
    profile: Tabulated1D

    @property
    def table_size(self) -> int:
        return self.profile.values.size - 1

    @property
    def sup_norm(self) -> float:
        return self.profile.sup_norm()

    def __call__(self, y) -> np.ndarray:
        return self.profile(y)


@dataclass(frozen=True, eq=False)
class ConvolvedProfile:
    """Tabulation on [-1, 1] of q_r(t) = int k(t - r*u) k(u) du."""

    ratio: float
    profile: Tabulated1D

    def __call__(self, y) -> np.ndarray:
        return self.profile(y)


@dataclass(frozen=True, eq=False)
class ProductKernel:
    """Tensor product of one composite profile across dim axes."""

    dim: int
    per_dim: tuple[CompositeKernel1D, ...]

    @property
    def k_inf(self) -> float:
        out = 1.0
        for marg in self.per_dim:
            out *= marg.sup_norm
        return out

    @property
    def half_width(self) -> float:
        """Per-axis support half-width (profiles are symmetric)."""
        return max(abs(m.profile.lo) for m in self.per_dim)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise InvalidParameterError(f"expected points of shape (m, {self.dim})")
        out = self.per_dim[0](pts[:, 0])
        for j in range(1, self.dim):
            out = out * self.per_dim[j](pts[:, j])
        return out

    def integral(self) -> float:
        out = 1.0
        for marg in self.per_dim:
            out *= marg.profile.integral()
        return out

    def support(self) -> np.ndarray:
        return np.array([list(m.profile.support()) for m in self.per_dim])


@dataclass(frozen=True, eq=False)
class MajorantKernel:
    """Coordinate-wise envelope of |q_r| over a ratio set, on [-1, 1]^dim."""

    per_dim_envelope: tuple[Tabulated1D, ...]
    ratios: tuple[float, ...]

    @property
    def dim(self) -> int:
        return len(self.per_dim_envelope)

    @property
    def sup_norm(self) -> float:
        out = 1.0
        for env in self.per_dim_envelope:
            out *= env.sup_norm()
        return out

    @property
    def half_width(self) -> float:
        return 1.0

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise InvalidParameterError(f"expected points of shape (m, {self.dim})")
        out = self.per_dim_envelope[0](pts[:, 0])
        for j in range(1, self.dim):
            out = out * self.per_dim_envelope[j](pts[:, j])
        return out

    def support(self) -> np.ndarray:
        return np.tile([-1.0, 1.0], (self.dim, 1))


def build_base(ell: int, table_size: int = DEFAULT_TABLE_SIZE) -> BaseKernel1D:
    """Tabulate the raised-cosine base profile of order ell.

    table_size counts subintervals; the table carries table_size + 1
    nodes so the origin is always a node and per-unit spacing matches
    the convolution tables.
    """
    _check_order_and_table(ell, table_size)
    half = 0.5 / ell
    nodes = np.linspace(-half, half, int(table_size) + 1)
    return BaseKernel1D(ell=int(ell), profile=Tabulated1D(-half, half, _cosine_bump(ell, nodes)))


def build_composite(base: BaseKernel1D) -> CompositeKernel1D:
    """Mix dilates of the base profile to cancel moments 1..ell-1."""
    nodes = np.linspace(-0.5, 0.5, base.table_size + 1)
    values = _moment_corrected(base.ell, nodes)
    return CompositeKernel1D(ell=base.ell, profile=Tabulated1D(-0.5, 0.5, values))


def build_product(composite: CompositeKernel1D, dim: int) -> ProductKernel:
    """Tensor product of the composite profile across dim axes."""
    if dim != int(dim) or dim < 1:
        raise InvalidParameterError(f"dim must be a positive integer, got {dim!r}")
    return ProductKernel(dim=int(dim), per_dim=(composite,) * int(dim))


_CONV_CACHE: dict[tuple[int, int, float], ConvolvedProfile] = {}


def convolve_ratio(composite: CompositeKernel1D, ratio: float) -> ConvolvedProfile:
    """Tabulate q_r(t) = int k(t - r*u) k(u) du on [-1, 1].

    r is the smaller-to-larger bandwidth ratio along one axis. The
    integrand uses the closed-form order-ell profile (the tabulation is
    a faithful rendering of it), integrated by the trapezoid rule on a
    grid matching the composite's per-unit node spacing. Each mixture
    term c * (1 + cos(a*y)) on |y| <= s splits, by
    cos(a(t - r*u)) = cos(a*t) cos(a*r*u) + sin(a*t) sin(a*r*u), into
    three weighted sums over the u-nodes with |t - r*u| <= s. Those
    nodes are contiguous, so each sum is a difference of two prefix
    sums and the table costs O(m * ell) for m nodes. Results are cached
    per (ell, table_size, r) for the process lifetime.
    """
    r = float(ratio)
    if not np.isfinite(r) or not 0.0 < r <= 1.0:
        raise InvalidParameterError(f"ratio must lie in (0, 1], got {ratio!r}")
    key = (composite.ell, composite.table_size, r)
    hit = _CONV_CACHE.get(key)
    if hit is not None:
        return hit

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

    out = ConvolvedProfile(ratio=r, profile=Tabulated1D(-1.0, 1.0, values))
    _CONV_CACHE[key] = out
    return out


def eval_pair_kernel(K: ProductKernel, h: Bandwidth, eta: Bandwidth, t) -> float | np.ndarray:
    """Evaluate the two-bandwidth convolution kernel at offset(s) t.

    This is the kernel whose empirical mean over the offsets X_i - x
    gives the smoothed-pair estimate. It factorizes across axes as a
    volume-scaled product of cached q_r lookups, r the per-axis ratio
    of the two bandwidths. A single point (shape (dim,)) yields a
    float; a batch (m, dim) yields an (m,) array.
    """
    if h.dim != K.dim or eta.dim != K.dim:
        raise InvalidParameterError(
            f"bandwidths must have dim {K.dim}, got {h.dim} and {eta.dim}"
        )
    t = np.asarray(t, dtype=float)
    single = t.ndim == 1
    pts = t[None, :] if single else t
    if pts.ndim != 2 or pts.shape[1] != K.dim:
        raise InvalidParameterError(f"expected offsets of shape (m, {K.dim})")

    big = np.minimum(h.exponents, eta.exponents)  # join exponents
    scale = 2.0 ** -big.astype(float)
    out = np.full(pts.shape[0], 2.0 ** float(big.sum()))  # 1 / V_join
    for j in range(K.dim):
        r = 2.0 ** -abs(h.exponents[j] - eta.exponents[j])
        q = convolve_ratio(K.per_dim[j], r)
        out = out * q(pts[:, j] / scale[j])
    return float(out[0]) if single else out


def build_majorant(
    composite: CompositeKernel1D, ratio_set, dim: int
) -> MajorantKernel:
    """Per-axis pointwise max of |q_r| over the realizable ratio set.

    The factorized form is exact for product kernels: each axis of a
    pair kernel depends on its own ratio only, and every ratio vector
    in the set's cartesian power is realized by some bandwidth pair.
    """
    if dim != int(dim) or dim < 1:
        raise InvalidParameterError(f"dim must be a positive integer, got {dim!r}")
    ratios = tuple(sorted({float(r) for r in ratio_set}))
    if not ratios:
        raise InvalidParameterError("ratio_set must be non-empty")
    tables = [convolve_ratio(composite, r) for r in ratios]
    stacked = np.abs(np.stack([t.profile.values for t in tables]))
    envelope = Tabulated1D(-1.0, 1.0, stacked.max(axis=0))
    return MajorantKernel(per_dim_envelope=(envelope,) * int(dim), ratios=ratios)
