"""Pointwise estimation with data-driven bandwidth selection.

Per evaluation point the procedure needs, over the whole lattice H:
single-bandwidth estimates, empirical absolute-kernel averages for the
product kernel and for the envelope, their empirical error majorants,
and all pairwise two-bandwidth estimates. Everything is assembled from
one candidate set (the data inside the unit-halfwidth box around x,
the widest support any of these kernels can reach) because the
interpolated kernels are exactly zero outside their support; smaller
per-bandwidth range queries would change nothing but the constant.

One internal function, `_select_point`, runs the whole rule at a point
and returns every per-point quantity at once: the raw sums, the
criterion, the selected lattice index and the candidate count. Grid
fits, the risk engine and the oracle lab all read that record.

An `EstimationSetup` owns every table the rule reads: the product
kernel, the q_r table of each lattice ratio 2^0..2^-E (tabulated once,
in `make_setup`), the envelope built from those tables, and the lattice
combinatorics (built on first use). Nothing is cached per process.

Per-axis kernel lookups are cached inside a point's computation: a
lattice of size (E+1)^d has only (E+1) distinct axis scales and
(E+1)(E+2)/2 distinct (scale, ratio) convolution lookups per axis,
while the pair loop touches |H|^2 combinations of them. Points are fitted
one after another on one thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bandwidths import Bandwidth, BandwidthGrid, build_grid
from .errors import InvalidParameterError
from .kernels import (
    DEFAULT_TABLE_SIZE,
    Kernel1D,
    ProductKernel,
    build_base,
    build_composite,
    build_envelope,
    build_product,
    convolve_ratio,
)

# Largest peak the lattice tables and one point's selection may need,
# as estimated by `_lattice_bytes`; make_setup refuses bigger lattices.
MAX_LATTICE_BYTES = 2**30


@dataclass(frozen=True, eq=False)
class Dataset:
    """Observation matrix plus per-axis sorted views for box queries."""

    points: np.ndarray
    order: tuple[np.ndarray, ...]
    sorted_vals: tuple[np.ndarray, ...]

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def box_indices(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Indices of points inside the closed box [lo, hi], deterministic order.

        Binary search picks the axis with the fewest candidates; the
        rest are filtered by masking, so cost is O(d log n + k) for k
        candidates along the thinnest axis.
        """
        if self.n == 0:
            return np.empty(0, dtype=np.int64)
        best = (-1, 0, 0)
        best_count = None
        for j in range(self.dim):
            a = int(np.searchsorted(self.sorted_vals[j], lo[j], side="left"))
            b = int(np.searchsorted(self.sorted_vals[j], hi[j], side="right"))
            if best_count is None or b - a < best_count:
                best_count = b - a
                best = (j, a, b)
        j, a, b = best
        idx = self.order[j][a:b]
        if self.dim == 1 or idx.size == 0:
            return idx
        pts = self.points[idx]
        mask = np.ones(idx.size, dtype=bool)
        for l in range(self.dim):
            if l != j:
                mask &= (pts[:, l] >= lo[l]) & (pts[:, l] <= hi[l])
        return idx[mask]


def build_dataset(points: np.ndarray) -> Dataset:
    """Index an (n, d) observation array for box queries.

    n = 0 is allowed for I/O round-trips; estimation entry points
    require n >= 2.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] < 1:
        raise InvalidParameterError("points must have shape (n, d) with d >= 1")
    if not np.all(np.isfinite(pts)):
        raise InvalidParameterError("points must be finite")
    order = tuple(np.argsort(pts[:, j], kind="stable") for j in range(pts.shape[1]))
    sorted_vals = tuple(pts[order[j], j] for j in range(pts.shape[1]))
    return Dataset(points=pts, order=order, sorted_vals=sorted_vals)


def _theory_floor(d: int, p: float, k_inf: float) -> float:
    return (max(k_inf, 1.0) ** 2) * ((4 * d + 2) * p + 4 * (d + 1))


@dataclass(frozen=True)
class KappaPolicy:
    """Scale constant of the error majorants, with its derivation inputs.

    The guarantee-backed regime needs kappa at or above the theory
    floor; smaller values are legal (the per-realization inequality
    holds for any positive kappa) and useful at small sample sizes,
    where the floor makes the majorants swamp every data term.
    """

    kappa: float
    d: int
    p: float
    k_inf: float

    def __post_init__(self):
        if not np.isfinite(self.kappa) or self.kappa <= 0:
            raise InvalidParameterError(f"kappa must be positive, got {self.kappa!r}")
        if self.d < 1:
            raise InvalidParameterError(f"d must be >= 1, got {self.d!r}")
        if not self.p >= 1:
            raise InvalidParameterError(f"p must be >= 1, got {self.p!r}")
        if not self.k_inf >= 0:
            raise InvalidParameterError(f"k_inf must be >= 0, got {self.k_inf!r}")

    @property
    def theory_floor(self) -> float:
        return _theory_floor(self.d, self.p, self.k_inf)

    @property
    def meets_theory_bound(self) -> bool:
        return self.kappa >= self.theory_floor * (1 - 1e-12)


def kappa_default(d: int, p: float, k_inf: float) -> KappaPolicy:
    """The theory-floor policy for dimension d, norm index p, kernel sup-norm."""
    if d != int(d) or d < 1:
        raise InvalidParameterError(f"d must be a positive integer, got {d!r}")
    if not p >= 1:
        raise InvalidParameterError(f"p must be >= 1, got {p!r}")
    d, p, k_inf = int(d), float(p), float(k_inf)
    return KappaPolicy(kappa=_theory_floor(d, p, k_inf), d=d, p=p, k_inf=k_inf)


@dataclass(frozen=True, eq=False)
class PointwiseFit:
    """Result of the selection rule at one evaluation point."""

    x: np.ndarray
    selected: Bandwidth
    estimate: float
    criterion: dict[tuple[int, ...], float] | None
    counts: int


class _GridTables:
    """Precomputed lattice combinatorics shared by every evaluation point."""

    def __init__(self, grid: BandwidthGrid):
        exp = grid.exponent_matrix()
        self.exp = exp
        self.size = exp.shape[0]
        self.exp_sum = exp.sum(axis=1)
        self.volumes = 2.0 ** -self.exp_sum.astype(float)
        radix = (grid.max_exponent + 1) ** np.arange(grid.dim - 1, -1, -1, dtype=np.int64)
        joint = np.minimum(exp[:, None, :], exp[None, :, :])
        self.join_index = (joint * radix).sum(axis=2)
        # geq[i, j]: candidate eta = row j is >= h = row i coordinate-wise in value
        self.geq = (exp[None, :, :] <= exp[:, None, :]).all(axis=2)


def _lattice_bytes(grid: BandwidthGrid) -> int:
    """Peak bytes of the lattice tables, or of one point's selection.

    _GridTables builds join_index from two (H, H, d) int64 temporaries;
    afterwards join_index (int64) and geq (bool) stay, and a point
    holds about four (H, H) float64 arrays on top of them.
    """
    h2 = len(grid) ** 2
    return h2 * max(16 * grid.dim + 8, 8 + 1 + 4 * 8)


@dataclass(frozen=True, eq=False)
class EstimationSetup:
    """Immutable bundle the selection rule needs besides data and policy.

    pair_tables[k] is the q_r table for the axis ratio r = 2^-k, one for
    each exponent difference k = 0..E the lattice can realize.
    """

    kernel: ProductKernel
    majorant: ProductKernel
    grid: BandwidthGrid
    pair_tables: tuple[Kernel1D, ...]

    def __post_init__(self):
        if self.kernel.dim != self.majorant.dim or self.kernel.dim != self.grid.dim:
            raise InvalidParameterError("kernel, majorant, and grid dims must agree")
        if len(self.pair_tables) != self.grid.max_exponent + 1:
            raise InvalidParameterError(
                f"need one q_r table per lattice ratio ({self.grid.max_exponent + 1}), "
                f"got {len(self.pair_tables)}")

    @property
    def marginal(self) -> Kernel1D:
        return self.kernel.factor

    @cached_property
    def tables(self) -> _GridTables:
        """Lattice combinatorics shared by every point, built on first use."""
        return _GridTables(self.grid)


def make_setup(
    n: int,
    dim: int,
    ell: int = 1,
    table_size: int = DEFAULT_TABLE_SIZE,
    max_exponent: int | None = None,
) -> EstimationSetup:
    """Build kernel, q_r tables, envelope, and lattice for sample size n.

    The lattice comes first: its exponents are checked, and its memory
    estimate against MAX_LATTICE_BYTES, before any table is built. Then
    each lattice ratio 2^0..2^-E is tabulated exactly once; the setup
    keeps those tables, the envelope is their pointwise max, and fits
    and the oracle only read them.
    """
    grid = build_grid(n, dim)
    if max_exponent is not None:
        grid = BandwidthGrid(dim=dim, max_exponent=max_exponent)
    need = _lattice_bytes(grid)
    if need > MAX_LATTICE_BYTES:
        raise InvalidParameterError(
            f"a lattice of {len(grid)} bandwidths in {grid.dim} dimensions needs "
            f"about {need / 2**30:.1f} GiB (MAX_LATTICE_BYTES is "
            f"{MAX_LATTICE_BYTES / 2**30:.1f} GiB); lower max_exponent or the dimension")
    composite = build_composite(build_base(ell, table_size))
    pair_tables = tuple(convolve_ratio(composite, r) for r in grid.ratios())
    return EstimationSetup(kernel=build_product(composite, dim),
                           majorant=build_envelope(pair_tables, dim),
                           grid=grid, pair_tables=pair_tables)


def _m_hat(a_hat, kappa: float, log_n: float, n: int, volume):
    """4 sqrt(A lam) + 4 lam, lam = kappa ln n / (n V); scalars or arrays."""
    lam = kappa * log_n / (n * volume)
    return 4.0 * np.sqrt(a_hat * lam) + 4.0 * lam


def _check_point(x, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise InvalidParameterError(f"evaluation point must have shape ({dim},)")
    if not np.all(np.isfinite(x)):
        raise InvalidParameterError(f"evaluation point must be finite, got {x.tolist()}")
    return x


def _point_tables(data: Dataset, x: np.ndarray, setup: EstimationSetup):
    """Raw empirical sums at one point: estimates, absolute-kernel
    averages for kernel and envelope, and the full pair-estimate matrix."""
    n = data.n
    if n < 2:
        raise InvalidParameterError(f"selection needs n >= 2 observations, got {n}")
    tables = setup.tables
    H = tables.size
    dim = data.dim

    idx = data.box_indices(x - 1.0, x + 1.0)
    offs = data.points[idx] - x

    # per-axis lookup caches; the lattice reuses each scale many times
    marg = setup.kernel.factor
    env = setup.majorant.factor
    k_ax: list[dict[int, np.ndarray]] = [{} for _ in range(dim)]
    e_ax: list[dict[int, np.ndarray]] = [{} for _ in range(dim)]
    q_ax: list[dict[tuple[int, int], np.ndarray]] = [{} for _ in range(dim)]

    def k_axis(j: int, k_exp: int) -> np.ndarray:
        tab = k_ax[j].get(k_exp)
        if tab is None:
            tab = marg(offs[:, j] * 2.0 ** k_exp)
            k_ax[j][k_exp] = tab
        return tab

    def e_axis(j: int, k_exp: int) -> np.ndarray:
        tab = e_ax[j].get(k_exp)
        if tab is None:
            tab = env(offs[:, j] * 2.0 ** k_exp)
            e_ax[j][k_exp] = tab
        return tab

    def q_axis(j: int, join_exp: int, diff: int) -> np.ndarray:
        key = (join_exp, diff)
        tab = q_ax[j].get(key)
        if tab is None:
            tab = setup.pair_tables[diff](offs[:, j] * 2.0 ** join_exp)
            q_ax[j][key] = tab
        return tab

    fhat = np.empty(H)
    a_k = np.empty(H)
    a_q = np.empty(H)
    for i in range(H):
        exps = tables.exp[i]
        inv_nv = 1.0 / (n * tables.volumes[i])
        kv = k_axis(0, exps[0])
        ev = e_axis(0, exps[0])
        for j in range(1, dim):
            kv = kv * k_axis(j, exps[j])
            ev = ev * e_axis(j, exps[j])
        fhat[i] = kv.sum() * inv_nv
        a_k[i] = np.abs(kv).sum() * inv_nv
        a_q[i] = ev.sum() * inv_nv

    pair = np.empty((H, H))
    for i in range(H):
        for l in range(i, H):
            join_exp = np.minimum(tables.exp[i], tables.exp[l])
            pv = q_axis(0, join_exp[0], abs(tables.exp[i, 0] - tables.exp[l, 0]))
            for j in range(1, dim):
                pv = pv * q_axis(j, join_exp[j], abs(tables.exp[i, j] - tables.exp[l, j]))
            val = pv.sum() * 2.0 ** float(join_exp.sum()) / n
            pair[i, l] = val
            pair[l, i] = val
    return fhat, a_k, a_q, pair, int(idx.size)


@dataclass(frozen=True, eq=False)
class _PointRecord:
    """Everything the selection rule computes at one point.

    fhat, a_k and a_q are indexed by lattice row, pair by a pair of rows;
    best is the selected row and counts the size of the candidate set.
    """

    x: np.ndarray
    fhat: np.ndarray
    a_k: np.ndarray
    a_q: np.ndarray
    pair: np.ndarray
    criterion: np.ndarray
    best: int
    selected: Bandwidth
    counts: int

    @property
    def estimate(self) -> float:
        return float(self.fhat[self.best])


def _select_point(data: Dataset, x, policy: KappaPolicy,
                  setup: EstimationSetup) -> _PointRecord:
    """Run the selection rule at x: the single path every caller uses.

    Lattice rows are in lexicographic order, so sorting by (criterion,
    exponent sum, row) gives the documented tie-break.
    """
    x = _check_point(x, setup.grid.dim)
    fhat, a_k, a_q, pair, counts = _point_tables(data, x, setup)
    tables = setup.tables
    n = data.n
    log_n = float(np.log(n))
    m_k = _m_hat(a_k, policy.kappa, log_n, n, tables.volumes)
    m_q = _m_hat(a_q, policy.kappa, log_n, n, tables.volumes)

    bracket = np.abs(pair - fhat[None, :]) - m_q[tables.join_index] - m_k[None, :]
    np.maximum(bracket, 0.0, out=bracket)
    sup_q = np.where(tables.geq, m_q[None, :], -np.inf).max(axis=1)
    criterion = bracket.max(axis=1) + sup_q + m_k
    best = int(np.lexsort((np.arange(tables.size), tables.exp_sum, criterion))[0])
    return _PointRecord(
        x=x, fhat=fhat, a_k=a_k, a_q=a_q, pair=pair, criterion=criterion,
        best=best, selected=Bandwidth(tuple(int(k) for k in tables.exp[best])),
        counts=counts,
    )


def select_and_estimate(
    data: Dataset, x: np.ndarray, policy: KappaPolicy, setup: EstimationSetup,
    keep_criterion: bool = False,
) -> PointwiseFit:
    """Minimize the criterion over the lattice and report the winning fit.

    Ties break toward the largest volume (smallest exponent sum), then
    lexicographically smallest exponents. The estimate is not clipped;
    it may be negative or exceed any density bound.
    """
    rec = _select_point(data, x, policy, setup)
    crit_map = None
    if keep_criterion:
        exp = setup.tables.exp
        crit_map = {tuple(int(k) for k in exp[i]): float(c)
                    for i, c in enumerate(rec.criterion)}
    return PointwiseFit(x=rec.x.copy(), selected=rec.selected, estimate=rec.estimate,
                        criterion=crit_map, counts=rec.counts)


def estimate_on_grid(
    data: Dataset, eval_points, policy: KappaPolicy, setup: EstimationSetup,
    threads: int = 1, keep_criterion: bool = False,
) -> list[PointwiseFit]:
    """Independent per-point fits, in point order.

    threads is accepted for compatibility and ignored: points are
    fitted one after another, so results never depend on it.
    """
    pts = np.asarray(eval_points, dtype=float)
    if pts.size == 0:
        return []
    if pts.ndim != 2 or pts.shape[1] != setup.grid.dim:
        raise InvalidParameterError(f"eval_points must have shape (m, {setup.grid.dim})")
    if not np.all(np.isfinite(pts)):
        raise InvalidParameterError("eval_points must be finite")
    return [select_and_estimate(data, x, policy, setup, keep_criterion) for x in pts]
