"""Pointwise estimation with data-driven bandwidth selection.

Per evaluation point the procedure needs, over the whole lattice H:
single-bandwidth estimates, empirical absolute-kernel averages for the
product kernel and for the envelope, their empirical error majorants,
and all pairwise two-bandwidth estimates. Everything is assembled from
one candidate set (the data inside the unit-halfwidth box around x,
the widest support any of these kernels can reach) because the
interpolated kernels are exactly zero outside their support; smaller
per-bandwidth range queries would change nothing but the constant.

One internal function, `_select_points`, runs the whole rule at the
points of a call, in blocks of points, and yields, per point, the raw
sums, the selected lattice index and the candidate count. It
evaluates the criterion for a whole block at once (`_select_block`),
at every d, only on the (point, row) pairs that a lower bound does not
rule out; `keep_criterion` evaluates every row by the same pass. A
lone point is a block of one. The oracle lab reads the pair estimates
from a record's contracted key sums, in blocks of lattice rows
(`_row_blocks`).

An `EstimationSetup` owns every table the rule reads: the product
kernel, the q_r table of each lattice ratio 2^0..2^-E (tabulated once,
in `make_setup`), the envelope built from those tables, the lattice
combinatorics and the oracle's truth plans (both built on first use).
Nothing is cached per process.

Each per-point quantity is a sum over candidates of a product of
per-axis factors, with only E+1 scales and (E+1)(E+2)/2 (join, ratio)
keys per axis. Each in-support (candidate, scale) entry of an axis
takes one index and fraction into `EstimationSetup.stack`, stored node
by node, and one gather gives all its factors (`_entry_rows`). A block
holds at most _BLOCK_PAIRS contracted key sums, and at least one point.
At d = 1 a block of points takes its entries in passes of at most
_BLOCK_ENTRIES and sums every (point, scale) window with one `bincount`
per pass, bit for bit the one-point sums (`_window_sums`). At d >= 2
each point of a block writes its sums into the block's arrays
(`_point_tables`): per-axis (candidates x columns) matrices, contracted
(outer products, then one GEMM), in chunks of candidates so memory
does not grow with n. A factor of axis j depends only on the
observation and on x_j, so on a tensor grid the points of one grid
line read the same rows: an axis whose coordinate a later point shares
takes its rows from that line's matrix, built once over every
observation within 1 of the coordinate and kept within _LINE_BYTES
(`_Lines`); the point's other axes take one pass over their entries,
as a lone point does.
A pair estimate reads the contracted keys through per-axis
(E+1) x (E+1) tables (`_pair_read`), only for the rows the selection
evaluates. Everything runs on one thread.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce

import numpy as np

from .bandwidths import Bandwidth, BandwidthGrid, build_grid
from .errors import InvalidParameterError, _index, _points, _real
from .kernels import (
    DEFAULT_TABLE_SIZE,
    Kernel1D,
    ProductKernel,
    Tabulated1D,
    _check_order_and_table,
    build_base,
    build_composite,
    build_envelope,
    build_product,
    convolve_ratio,
)

# Largest peak the lattice tables and one point's selection may need,
# as estimated by `_lattice_bytes`; make_setup refuses bigger lattices.
MAX_LATTICE_BYTES = 2**30
# Largest working set of one chunk of candidates in `_point_tables`.
_BLOCK_BYTES = 2**24
# Most bytes of per-axis line matrices `_Lines` keeps at d >= 2.
_LINE_BYTES = 2**22
# Most (row, lattice row) pairs of one chunk of criterion or oracle rows
# (`_select_block`, `_row_blocks`): a few hundred kB each run faster than
# one (H, H) pass at d = 3. Also the most contracted key sums of one block
# of points (`_block_points`).
_BLOCK_PAIRS = 2**16
# Most (candidate, scale) entries one pass of `_window_sums` interpolates
# at d = 1.
_BLOCK_ENTRIES = 2**13


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
        candidates along the thinnest axis. At d = 1 the indices come
        in ascending order of the observations.
        """
        spans = [(int(np.searchsorted(v, lo[j], side="left")),
                  int(np.searchsorted(v, hi[j], side="right")))
                 for j, v in enumerate(self.sorted_vals)]
        j = min(range(self.dim), key=lambda l: spans[l][1] - spans[l][0])
        a, b = spans[j]
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
    pts = _points(points, "points")
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
        object.__setattr__(self, "d", _index(self.d, "d", 1))
        object.__setattr__(self, "p", _real(self.p, "p", 1.0))
        object.__setattr__(self, "k_inf", _real(self.k_inf, "k_inf", 0.0))
        object.__setattr__(self, "kappa", _real(self.kappa, "kappa", above=0.0))

    @property
    def theory_floor(self) -> float:
        return _theory_floor(self.d, self.p, self.k_inf)

    @property
    def meets_theory_bound(self) -> bool:
        return self.kappa >= self.theory_floor * (1 - 1e-12)


def kappa_default(d: int, p: float, k_inf: float) -> KappaPolicy:
    """The theory-floor policy for dimension d, norm index p, kernel sup-norm."""
    checked = KappaPolicy(kappa=1.0, d=d, p=p, k_inf=k_inf)  # the floor reads checked values
    return replace(checked, kappa=checked.theory_floor)


def _kappa_policy(kappa: float | None, d: int, p: float, k_inf: float) -> KappaPolicy:
    """The theory-floor policy when kappa is None, else kappa's policy."""
    if kappa is None:
        return kappa_default(d, p, k_inf)
    return KappaPolicy(kappa=kappa, d=d, p=p, k_inf=k_inf)


@dataclass(frozen=True, eq=False, slots=True)
class PointwiseFit:
    """Result of the selection rule at one evaluation point."""

    x: np.ndarray
    selected: Bandwidth
    estimate: float
    criterion: dict[tuple[int, ...], float] | None
    counts: int


class _GridTables:
    """Precomputed lattice combinatorics shared by every evaluation point.

    On one axis a bandwidth pair reads q_r, r = 2^-k for the exponent
    difference k, at its join exponent a; a + k <= E. Key (a, k) is
    column key_starts[k] + a. pair_axes[j] and join_axes[j] are
    (E+1) x (E+1) tables, by the pair's two exponents on axis j, of its
    key and its join exponent times axis j's stride in the contracted
    key sums and in the lattice (first axis slowest); a pair's flat
    indices are their sums over the axes (`_pair_read`). col_map[a]
    places the stack rows at scale 2^a in a per-axis [kernel | envelope
    | keys | spare] matrix, q_k with a + k > E (read by no pair) in the
    spare.
    """

    def __init__(self, grid: BandwidthGrid):
        E = grid.max_exponent
        exp = grid.exponent_matrix()
        self.exp = exp
        self.size = exp.shape[0]
        self.shape = (E + 1,) * grid.dim
        self.exp_sum = exp.sum(axis=1)
        self.volumes = 2.0 ** -self.exp_sum.astype(float)
        self.bandwidths = tuple(grid)
        self.scales = 2.0 ** np.arange(E + 1)
        self.key_starts = np.concatenate(([0], np.cumsum(np.arange(E + 1, 0, -1))))
        self.n_keys = int(self.key_starts[-1])
        a, b = np.indices((E + 1, E + 1))
        key_of = self.key_starts[np.abs(b - a)] + np.minimum(a, b)  # by (join, larger)
        key_at = np.where(a + b <= E, self.key_starts[b] + a, self.n_keys)  # by (scale, k)
        self.col_map = np.column_stack((a[:, 0], a[:, 0] + E + 1, key_at + 2 * (E + 1)))
        self.width = 2 * (E + 1) + self.n_keys + 1
        # at d = 1 the sums come per (scale, stack row or |kernel|) slot;
        # window_cols reads them as [kernel | |kernel| | envelope | keys]
        slot = a[:, :1] * (E + 4) + np.arange(E + 3)
        src = np.empty(self.width, dtype=np.int64)
        src[self.col_map] = slot
        self.window_cols = np.concatenate((src[:E + 1], slot[:, 0] + E + 3, src[E + 1:-1]))
        strides = range(grid.dim - 1, -1, -1)
        self.pair_axes = [key_of * self.n_keys ** s for s in strides]
        self.join_axes = [np.minimum(a, b) * (E + 1) ** s for s in strides]

    @cached_property
    def every_pair(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The key and join tables' `_per_axis` parts for every lattice
        row, built on first use; the criterion and the oracle read their
        rows of them."""
        return _per_axis(self.pair_axes, self.exp), _per_axis(self.join_axes, self.exp)


def _per_axis(tabs: list[np.ndarray], rows: np.ndarray) -> list[np.ndarray]:
    """tabs[j][rows[:, j]] for every axis j of the exponent rows, shaped
    to broadcast together to (len(rows), c_0, ..., c_{d-1}), c_j =
    tabs[j].shape[1]: each row against every column of the lattice the
    tables span, in C order."""
    d = rows.shape[1]
    return [tab[rows[:, j]].reshape((-1,) + (1,) * j + tab.shape[1:] + (1,) * (d - 1 - j))
            for j, tab in enumerate(tabs)]


def _pair_read(values: np.ndarray, parts: list[np.ndarray], rows=slice(None),
               points: np.ndarray | None = None) -> np.ndarray:
    """values at every pair (row, lattice row) of the given lattice rows
    (all by default), one row each, from the `_per_axis` parts of
    per-axis flat-index tables: a pair's flat index is the sum of its
    parts. With points, values has one row per point of a block and row
    i reads values[points[i]]."""
    parts = [part[rows] for part in parts]
    if points is not None:  # a row's offset joins its first (smallest) part
        parts[0] = parts[0] + (points * values.shape[-1]).reshape((-1,) + (1,) * len(parts))
    # the last axes first: the full-size sums then run along long rows
    flat = reduce(np.add, reversed(parts))
    return values.take(flat).reshape(flat.shape[0], -1)


def _coarser_sup(values: np.ndarray, tables: _GridTables) -> np.ndarray:
    """Per lattice row h, the max of values over the rows eta >= h
    coordinate-wise in value (exponents <= h's): rows are the (E+1)^d
    lattice array in C order, so a running maximum along each axis.
    values may have one leading axis (one row per point)."""
    out = values.reshape((-1,) + tables.shape)
    for axis in range(1, out.ndim):
        out = np.maximum.accumulate(out, axis=axis)
    return out.reshape(values.shape)


def _row_floats(dim: int, max_exponent: int) -> int:
    """Floats one candidate holds in `_point_tables` (d >= 2): up to one
    entry per (axis, scale), each with its stack gathers and index
    temporaries (2(E+3) + 10, above the tracemalloc peak, the scatter
    index included), its per-axis matrix rows, their |kernel| copies and
    two outer-product rows of `_contract`. At d = 1, the floats one
    (candidate, scale) entry holds in a `_window_sums` pass: its weights
    and keys (E+4 each), its two stack gathers and index temporaries."""
    if dim == 1:
        return 4 * (max_exponent + 3) + 12
    cols, keys = max_exponent + 1, (max_exponent + 1) * (max_exponent + 2) // 2
    entries = cols * (2 * (max_exponent + 3) + 10)
    return dim * (entries + 3 * cols + keys + 1) + 2 * keys ** (dim - 1)


def _lattice_bytes(grid: BandwidthGrid) -> int:
    """Peak bytes of one selection (a block of points, `_block_points`);
    the lattice tables, O(H d E) values, are not counted.

    A block holds its points' sums (the P^d contracted key sums and
    three lattice rows each, P = (E+1)(E+2)/2), counted twice since a
    caller may still hold a record of the block before, and either the
    work that fills them or one chunk of criterion or oracle pairs
    (`_row_blocks`): about five 8-byte arrays of max(_BLOCK_PAIRS, H)
    values. No (H, H) array is held. At d >= 2 a point's work is one
    chunk's P^d key sums, the kept line matrices (_LINE_BYTES) and one
    chunk of candidates (_BLOCK_BYTES, or one `_row_floats` row if more;
    building a line takes less). At d = 1 it is one `_window_sums` pass
    of at most _BLOCK_ENTRIES entries, next to the block's (point,
    scale) window sums and their scaled copy. Candidate offsets, a slice
    of the sample, are not counted, so the estimate does not depend on n.
    """
    d, E = grid.dim, grid.max_exponent
    keys = (E + 1) * (E + 2) // 2
    block = _block_points(grid) * (keys ** d + 3 * len(grid))
    pairs = 40 * max(_BLOCK_PAIRS, len(grid))
    if d == 1:
        windows = 2 * _block_points(grid) * (E + 1) * (E + 4)
        return 16 * block + max(8 * (_BLOCK_ENTRIES * _row_floats(1, E) + windows), pairs)
    chunk = max(_BLOCK_BYTES, 8 * _row_floats(d, E), pairs)
    return 8 * (2 * block + keys ** d + 3 * (E + 1) + keys + 1) + _LINE_BYTES + chunk


@dataclass(frozen=True, eq=False)
class EstimationSetup:
    """Immutable bundle the selection rule needs besides data and policy.

    pair_tables[k] is the q_r table for the axis ratio r = 2^-k, one for
    each exponent difference k = 0..E the lattice can realize.

    stack has as rows, on the [-1, 1] grid of the q_r tables (step 1/m),
    the kernel zero-padded (zeros for an odd table size m, whose kernel
    nodes sit half a step off), the envelope and q_0..q_E; the last two
    are read-only views of it, so their values are stored once. It is
    stored node-major (stack.T is C-contiguous), so one gather of a node
    reads every row.

    oracle_plans holds, per quadrature node count, the oracle's
    x-independent truth plan (`oracle._plan`), built on the first
    oracle call at that count and kept with the setup.
    """

    kernel: ProductKernel
    majorant: ProductKernel
    grid: BandwidthGrid
    pair_tables: tuple[Kernel1D, ...]
    stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.kernel.dim != self.majorant.dim or self.kernel.dim != self.grid.dim:
            raise InvalidParameterError("kernel, majorant, and grid dims must agree")
        if len(self.pair_tables) != self.grid.max_exponent + 1:
            raise InvalidParameterError(
                f"need one q_r table per lattice ratio ({self.grid.max_exponent + 1}), "
                f"got {len(self.pair_tables)}")
        m = self.kernel.factor.table_size
        wide = (self.majorant.factor, *self.pair_tables)
        if any(t.profile.support() != (-1.0, 1.0) or t.table_size != 2 * m for t in wide):
            raise InvalidParameterError(
                f"envelope and q_r tables need {2 * m} steps on [-1, 1]")
        kernel = self.kernel.factor.profile.values
        pad = np.zeros(2 * m + 1) if m % 2 else np.pad(kernel, m // 2)
        nodes = np.stack([pad, *(t.profile.values for t in wide)], axis=1)
        nodes.setflags(write=False)
        stack = nodes.T
        rows = [Kernel1D(t.ell, Tabulated1D(-1.0, 1.0, row))
                for t, row in zip(wide, stack[1:])]
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "majorant", ProductKernel(self.majorant.dim, rows[0]))
        object.__setattr__(self, "pair_tables", tuple(rows[1:]))

    @property
    def marginal(self) -> Kernel1D:
        return self.kernel.factor

    @cached_property
    def tables(self) -> _GridTables:
        """Lattice combinatorics shared by every point, built on first use."""
        return _GridTables(self.grid)

    @cached_property
    def oracle_plans(self) -> dict:
        """The oracle's truth plans by node count, filled on first use."""
        return {}


def _checked_grid(n: int, dim: int, ell: int, table_size: int,
                  max_exponent: int | None) -> BandwidthGrid:
    """The lattice of `make_setup`, once every argument and the memory
    estimate (against MAX_LATTICE_BYTES) are checked; builds no table."""
    _check_order_and_table(ell, table_size)
    grid = build_grid(n, dim)
    if max_exponent is not None:
        grid = BandwidthGrid(dim=dim, max_exponent=max_exponent)
    need = _lattice_bytes(grid)
    if need > MAX_LATTICE_BYTES:
        raise InvalidParameterError(
            f"a lattice of {len(grid)} bandwidths in {grid.dim} dimensions needs about "
            f"{need / 2**30:.1f} GiB (MAX_LATTICE_BYTES is "
            f"{MAX_LATTICE_BYTES / 2**30:.1f} GiB); lower max_exponent or the dimension")
    return grid


def make_setup(
    n: int,
    dim: int,
    ell: int = 1,
    table_size: int = DEFAULT_TABLE_SIZE,
    max_exponent: int | None = None,
) -> EstimationSetup:
    """Build kernel, q_r tables, envelope, and lattice for sample size n.

    Every argument is checked first (`_checked_grid`), before any table
    is built. Then each lattice ratio 2^0..2^-E is tabulated exactly
    once; the setup keeps those tables, the envelope is their pointwise
    max, and fits and the oracle only read them.
    """
    grid = _checked_grid(n, dim, ell, table_size, max_exponent)
    composite = build_composite(build_base(ell, table_size))
    return _setup_on(grid, composite, [convolve_ratio(composite, r) for r in grid.ratios()])


def _setup_on(grid: BandwidthGrid, composite: Kernel1D, tables: list[Kernel1D]) -> EstimationSetup:
    """The setup of a checked grid from the composite kernel and the q_r
    tables of the ratios 2^0, 2^-1, ... (at least E+1 of them; the
    first E+1 are read), so one set of tables serves every lattice of
    a sample-size schedule."""
    pair_tables = tuple(tables[:grid.max_exponent + 1])
    return EstimationSetup(kernel=build_product(composite, grid.dim),
                           majorant=build_envelope(pair_tables, grid.dim),
                           grid=grid, pair_tables=pair_tables)


def _m_hat(a_hat: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """4 sqrt(A lam) + 4 lam, lam = kappa ln n / (n V) per lattice row."""
    return 4.0 * np.sqrt(a_hat * lam) + 4.0 * lam


def _contract(mats: list[np.ndarray]) -> np.ndarray:
    """Sum over rows (candidates) of the product of one column per
    matrix, for every choice of columns, first matrix slowest: outer
    products over all matrices but the last, then one GEMM with it."""
    block = mats[0]
    for mat in mats[1:-1]:
        block = (block[:, :, None] * mat[:, None, :]).reshape(
            block.shape[0], block.shape[1] * mat.shape[1])
    return (block.T @ mats[-1]).ravel()


def _entry_rows(ys: np.ndarray, setup: EstimationSetup) -> np.ndarray:
    """Every stack row at the in-support entries ys (|ys| <= 1), shaped
    (entries, rows): one index and one fraction per entry serve all the
    rows, each entry's rows read as one node of the node-major stack."""
    m = setup.marginal.table_size
    pos = (ys + 1.0) * m
    idx = np.minimum(pos.astype(np.int64), 2 * m - 1)
    frac = (pos - idx)[:, None]
    nodes = setup.stack.T
    vals = nodes.take(idx, axis=0)
    vals *= 1.0 - frac
    upper = nodes.take(idx + 1, axis=0)
    upper *= frac
    vals += upper
    if m % 2:  # the kernel's nodes sit half a step off the stack grid
        vals[:, 0] = setup.marginal(ys)
    return vals


def _window_sums(data: Dataset, xs: np.ndarray, setup: EstimationSetup):
    """d = 1: kernel, |kernel|, envelope and key averages at each point
    of xs (points, 1), each shaped (points, columns), and the candidate
    counts.

    The candidates of every point, its `box_indices` in order, are
    taken in one sequence, at most _BLOCK_ENTRIES (candidate, scale)
    entries at a time; candidate y is in support at the scales 2^a with
    |y| 2^a <= 1, a run from a = 0. Each (point, scale) window is summed
    by one `bincount` keyed by (window, stack row), which adds in entry
    order; a window cut by a pass carries its sums into the next one,
    added first, so every window is one sequential sum as if in one
    pass. The 2^a of scale a is applied to the window sums (exact for a
    power of two)."""
    tables = setup.tables
    cols, rows = tables.scales.size, setup.stack.shape[0]
    edges = 1.0 / tables.scales[::-1]
    sv, x = data.sorted_vals[0], xs[:, 0]
    first = np.searchsorted(sv, x - 1.0, side="left")
    counts = np.searchsorted(sv, x + 1.0, side="right") - first
    ends = np.cumsum(counts)
    shift = first - ends + counts  # candidate c of point p is sv[c + shift[p]]
    sums = np.zeros((x.size * cols, rows + 1))  # per window: stack rows, |kernel|
    step = max(1, _BLOCK_ENTRIES // cols)
    for lo in range(0, int(ends[-1]), step):
        c = np.arange(lo, min(lo + step, int(ends[-1])))
        pt = np.searchsorted(ends, c, side="right")
        y = sv[c + shift[pt]] - x[pt]
        inside = cols - np.searchsorted(edges, np.abs(y), side="left")
        cand = np.repeat(np.arange(c.size), inside)
        scale = np.arange(cand.size) - (np.cumsum(inside) - inside)[cand]
        w0 = pt[0] * cols
        carry = sums[w0:(pt[-1] + 1) * cols]
        # the carried sums, then every entry's rows and |kernel|, row by row
        wts = np.empty(carry.size + (rows + 1) * cand.size)
        wts[:carry.size] = carry.ravel()
        vals = wts[carry.size:].reshape(rows + 1, -1)
        vals[:rows] = _entry_rows(y[cand] * tables.scales[scale], setup).T
        np.abs(vals[0], out=vals[rows])
        key = np.empty(wts.size, dtype=np.int64)
        key[:carry.size] = np.arange(carry.size)
        win = ((pt * cols - w0)[cand] + scale) * (rows + 1)
        np.add(win, np.arange(rows + 1)[:, None], out=key[carry.size:].reshape(rows + 1, -1))
        carry[:] = np.bincount(key, wts, minlength=carry.size).reshape(carry.shape)
    sums = sums.reshape(x.size, cols, rows + 1) * tables.scales[:, None]
    avg = sums.reshape(x.size, -1)[:, tables.window_cols] / data.n
    return [avg[:, :cols], avg[:, cols:2 * cols], avg[:, 2 * cols:3 * cols],
            avg[:, 3 * cols:]], counts


def _entries(offs: np.ndarray, rows: np.ndarray | None,
             setup: EstimationSetup) -> tuple[np.ndarray, np.ndarray]:
    """Flat positions and values of the [kernel | envelope | keys | spare]
    row of every offset of offs (axes, candidates), each value times
    the exact 2^a of its scale, in zeros seen as rows of
    `_GridTables.width`: offset i (in C order) goes to row rows[i], or
    row i if rows is None. One pass over the in-support (offset, scale)
    entries; every value depends on its own offset only, so a row is
    the same whatever else is filled."""
    tables = setup.tables
    cols = tables.scales.size
    ys = offs[:, :, None] * tables.scales
    entry = np.flatnonzero(np.abs(ys) <= 1.0)
    scale = entry % cols
    vals = _entry_rows(ys.take(entry), setup)
    vals *= tables.scales[scale][:, None]
    at = tables.col_map.take(scale, axis=0)
    row = entry // cols
    at += ((row if rows is None else rows.take(row)) * tables.width)[:, None]
    return at, vals


def _chunk_sums(offs: np.ndarray, setup: EstimationSetup, lines: list) -> list[np.ndarray]:
    """Kernel, |kernel|, envelope and key sums over one chunk of
    candidate offsets (candidates, d), d >= 2: per-axis matrices,
    contracted. Axis j copies its candidates' rows from lines[j], a
    (line matrix, row of each candidate) pair, or else is filled by
    the chunk's one `_entries` pass over every such axis."""
    tables = setup.tables
    cols, (k, d) = tables.scales.size, offs.shape
    own = [j for j, line in enumerate(lines) if line is None]
    if len(own) == d:
        at, vals = _entries(offs.T, None, setup)
    elif own:
        rows = (np.array(own)[:, None] * k + np.arange(k)).ravel()
        at, vals = _entries(offs.T[own], rows, setup)
    mats = (np.zeros if own else np.empty)((d, k, tables.width))
    for j, line in enumerate(lines):
        if line is not None:  # mode "clip" takes into out without a copy of it
            line[0].take(line[1], axis=0, out=mats[j], mode="clip")
    if own:
        mats.reshape(-1)[at] = vals
    k_ax = mats[:, :, :cols]
    return [_contract(list(m)) for m in (k_ax, np.abs(k_ax), mats[:, :, cols:2 * cols],
                                          mats[:, :, 2 * cols:-1])]


def _chunk_rows(setup: EstimationSetup) -> int:
    """Candidates of one chunk: the working set stays under _BLOCK_BYTES
    whatever the sample size."""
    return max(1, _BLOCK_BYTES // (8 * _row_floats(setup.grid.dim, setup.grid.max_exponent)))


def _point_tables(data: Dataset, x: np.ndarray, setup: EstimationSetup, lines: list,
                  out: list[np.ndarray]) -> int:
    """Empirical averages at one point (d >= 2), written into out (zeros
    on entry): estimates, absolute-kernel averages for kernel and
    envelope, and the contracted key sums that every pair estimate
    reads (`_pair_read`); returns the candidate count.
    Per axis, each (candidate, scale 2^a) entry in support takes one
    index and fraction into the setup's stack, and one gather gives its
    kernel, envelope and key (a, k) (q_r table k at join scale 2^a)
    values, times their exact 2^a; |prod k_j| = prod |k_j| gives the
    kernel's A-hat. An axis with a line (lines[j] not None, see
    `_Lines`) reads those rows from it instead, bit for bit the same."""
    idx = data.box_indices(x - 1.0, x + 1.0)
    offs = data.points[idx] - x
    at = [None if line is None else line.rows(idx) for line in lines]
    rows = _chunk_rows(setup)
    for lo in range(0, max(idx.size, 1), rows):
        part = [None if r is None else (line.mat, r[lo:lo + rows]) for line, r in zip(lines, at)]
        for total, chunk in zip(out, _chunk_sums(offs[lo:lo + rows], setup, part)):
            total += chunk
    for total in out:
        total /= data.n
    return int(idx.size)


@dataclass(eq=False)
class _Line:
    """The rows (`_entries`) of axis j's offsets X_ij - v of the observations
    with |X_ij - v| <= 1, the run data.order[j][start:start + len(mat)];
    next is the next point that reads it."""

    mat: np.ndarray
    start: int
    rank: np.ndarray  # rank[i]: the place of observation i in data.order[j]
    next: int

    def rows(self, idx: np.ndarray) -> np.ndarray:
        return self.rank.take(idx) - self.start


class _Lines:
    """The per-axis line matrices a block of points (d >= 2) shares.

    Every point whose coordinate j is v reads its candidates' axis-j rows
    from the line (j, v), the values its own entry pass would give. A
    line is built only when a later point reads it too, and kept while
    the kept lines fit in _LINE_BYTES; a line that the next point reads
    (the first axis of an `ij` mesh) may drop the kept lines read after
    it, latest first, to make room. A line is dropped after its last
    reader. Axes without a line, and every point that shares no
    coordinate with a later one, take the point's own entry pass.
    """

    def __init__(self, data: Dataset, xs: np.ndarray, setup: EstimationSetup):
        self.data, self.setup = data, setup
        self.coords = xs.tolist()
        # nxt[p][j]: the next point after p whose coordinate j is the same
        last = [{} for _ in range(data.dim)]
        self.nxt = [None] * len(xs)
        for p in range(len(xs) - 1, -1, -1):
            self.nxt[p] = [seen.get(v, -1) for seen, v in zip(last, self.coords[p])]
            for seen, v in zip(last, self.coords[p]):
                seen[v] = p
        self.kept: dict[tuple[int, float], _Line] = {}
        self.ranks: list[np.ndarray] = []

    def read(self, p: int) -> list[_Line | None]:
        """The line of each axis of point p, None where it has none."""
        keys = list(enumerate(self.coords[p]))
        lines = [self.kept.get(key) for key in keys]  # each kept one's next is p
        for j, nxt in enumerate(self.nxt[p]):
            if lines[j] is None and nxt >= 0:
                lines[j] = self._build(*keys[j], p, nxt)
        for key, line, nxt in zip(keys, lines, self.nxt[p]):
            if line is not None:
                line.next = nxt
                if nxt < 0:
                    del self.kept[key]  # p is its last reader
        return lines

    def _build(self, j: int, v: float, p: int, nxt: int) -> _Line | None:
        """The line (j, v) for point p, whose next reader is nxt, or None
        if it does not fit."""
        sv, setup = self.data.sorted_vals[j], self.setup
        lo = int(np.searchsorted(sv, v - 1.0, side="left"))
        size = int(np.searchsorted(sv, v + 1.0, side="right")) - lo
        need = 8 * size * setup.tables.width
        used = sum(line.mat.nbytes for line in self.kept.values())
        if used + need > _LINE_BYTES and nxt == p + 1:
            for key in sorted(self.kept, key=lambda key: self.kept[key].next, reverse=True):
                if used + need <= _LINE_BYTES or self.kept[key].next <= nxt:
                    break
                used -= self.kept.pop(key).mat.nbytes
        if used + need > _LINE_BYTES:
            return None
        if not self.ranks:
            for order in self.data.order:
                rank = np.empty(order.size, dtype=np.int64)
                rank[order] = np.arange(order.size)
                self.ranks.append(rank)
        mat = np.zeros((size, setup.tables.width))
        offs = sv[lo:lo + size] - v
        step = _chunk_rows(setup)
        for row in range(0, size, step):
            at, vals = _entries(offs[None, row:row + step], None, setup)
            mat[row:row + step].reshape(-1)[at] = vals
        self.kept[j, v] = line = _Line(mat, lo, self.ranks[j], p)
        return line


@dataclass(frozen=True, eq=False)
class _PointRecord:
    """Everything the selection rule computes at one point.

    fhat, a_k and a_q are indexed by lattice row, keys holds the
    contracted key sums every pair estimate reads (`_pair_read`); best
    is the selected row and counts the size of the candidate set.
    criterion (of every row) is kept only on request, else None.
    """

    x: np.ndarray
    fhat: np.ndarray
    a_k: np.ndarray
    a_q: np.ndarray
    keys: np.ndarray
    criterion: np.ndarray | None
    best: int
    selected: Bandwidth
    counts: int

    @property
    def estimate(self) -> float:
        return float(self.fhat[self.best])


def _select_block(xs: np.ndarray, sums: list[np.ndarray], counts: np.ndarray | list[int], n: int,
                  policy: KappaPolicy, setup: EstimationSetup,
                  keep_criterion: bool) -> list[_PointRecord]:
    """The selection rule at a block of points from their averages
    (fhat, a_k, a_q, keys, each with one row per point).

    The criterion of row h is fl(fl(b + s) + m): its bracket b >= 0,
    s the sup of m_q over coarser rows and m = m_k. Rounding is
    monotone, so LB = fl(s + m) bounds it from below. Each point first
    evaluates its first row of least LB (one gather over the block's
    (point, row) pairs), then every other row whose LB is at most that
    criterion: any row left out has a criterion strictly above the
    point's minimum, so the minimum and all its ties are evaluated.
    keep_criterion is the same pass with an infinite stop: it evaluates
    every row of every point and keeps the criterion. Pairs are
    evaluated in chunks of at most about _BLOCK_PAIRS (pair, lattice
    row) values, each value by the same arithmetic whatever the block
    and chunk. Per point the least (criterion, exponent sum, row) is
    the documented tie-break, since lattice rows are in lexicographic
    order.
    """
    fhat, a_k, a_q, keys = sums
    tables = setup.tables
    lam = policy.kappa * float(np.log(n)) / (n * tables.volumes)
    m_k = _m_hat(a_k, lam)
    m_q = _m_hat(a_q, lam)
    sup_q = _coarser_sup(m_q, tables)
    key, join = tables.every_pair

    def evaluate(p, r):
        """The criterion at the pairs (point p[i], lattice row r[i])."""
        bracket = _pair_read(keys, key, r, p)
        bracket -= fhat[p]
        np.abs(bracket, out=bracket)
        bracket -= _pair_read(m_q, join, r, p)
        bracket -= m_k[p]
        np.maximum(bracket, 0.0, out=bracket)
        criterion[p, r] = bracket.max(axis=-1) + sup_q[p, r] + m_k[p, r]

    # a row left out stays above its point's least criterion
    criterion = np.full(fhat.shape, np.inf)
    every = np.arange(len(xs))
    lb = sup_q + m_k
    first = lb.argmin(axis=1)
    evaluate(every, first)
    more = lb <= (np.inf if keep_criterion else criterion[every, first][:, None])
    more[every, first] = False
    pts, rows = np.nonzero(more)
    step = max(1, _BLOCK_PAIRS // tables.size)
    for lo in range(0, pts.size, step):
        evaluate(pts[lo:lo + step], rows[lo:lo + step])
    # rows ascend, so the first least exponent sum among the least
    # criteria is the documented choice
    tied = criterion == criterion.min(axis=1, keepdims=True)
    best = np.where(tied, tables.exp_sum, np.inf).argmin(axis=1)
    return [_PointRecord(x=x, fhat=fhat[i], a_k=a_k[i], a_q=a_q[i], keys=keys[i],
                         criterion=criterion[i] if keep_criterion else None, best=int(b),
                         selected=tables.bandwidths[b], counts=int(counts[i]))
            for i, (x, b) in enumerate(zip(xs, best))]


def _row_blocks(tables: _GridTables) -> list[slice]:
    """Consecutive slices of the lattice rows, each of at most about
    _BLOCK_PAIRS (row, lattice row) pairs and at least one row."""
    step = max(1, _BLOCK_PAIRS // tables.size)
    return [slice(lo, lo + step) for lo in range(0, tables.size, step)]


def _block_points(grid: BandwidthGrid) -> int:
    """Points of one block of `_select_points`: their key sums, P^d each
    (P = (E+1)(E+2)/2), at most _BLOCK_PAIRS; at least one point."""
    E = grid.max_exponent
    return max(1, _BLOCK_PAIRS // ((E + 1) * (E + 2) // 2) ** grid.dim)


def _select_points(data: Dataset, xs: np.ndarray, policy: KappaPolicy,
                   setup: EstimationSetup, keep_criterion: bool = False
                   ) -> Iterator[_PointRecord]:
    """Run the selection rule at every row of xs (points, d), checked
    finite, in order, on data of the setup's dimension: the single path
    every caller uses. The records come one block at a time
    (`_block_points`), so a caller that reduces them as they come never
    holds a whole grid's key sums.

    A block's sums come from `_window_sums` at d = 1; at d >= 2 each
    point's `_point_tables` writes them into the block's arrays, reading
    the per-axis line matrices it shares with other points (`_Lines`).
    Then `_select_block` selects the whole block. A point's record does
    not depend on the block it is fitted in.
    """
    n = data.n
    if n < 2:
        raise InvalidParameterError(f"selection needs n >= 2 observations, got {n}")
    tables, dim = setup.tables, setup.grid.dim
    if data.dim != dim:
        raise InvalidParameterError(f"the data have dim {data.dim}, the setup {dim}")
    lines = _Lines(data, xs, setup) if dim > 1 else None
    per = _block_points(setup.grid)
    for lo in range(0, len(xs), per):
        block = xs[lo:lo + per]
        if lines is None:
            sums, counts = _window_sums(data, block, setup)
        else:
            sums = [np.zeros((len(block), size))
                    for size in (tables.size,) * 3 + (tables.n_keys ** dim,)]
            counts = [_point_tables(data, x, setup, lines.read(lo + i), [s[i] for s in sums])
                      for i, x in enumerate(block)]
        yield from _select_block(block, sums, counts, n, policy, setup, keep_criterion)


def _select_point(data: Dataset, x, policy: KappaPolicy,
                  setup: EstimationSetup, keep_criterion: bool = False) -> _PointRecord:
    """`_select_points` at the one point x."""
    x = _points(x, "x", setup.grid.dim, single=True)
    return next(_select_points(data, x[None], policy, setup, keep_criterion))


def _fit(rec: _PointRecord, setup: EstimationSetup, keep_criterion: bool) -> PointwiseFit:
    crit_map = None
    if keep_criterion:
        crit_map = {h.exponents: float(c)
                    for h, c in zip(setup.tables.bandwidths, rec.criterion)}
    return PointwiseFit(x=rec.x.copy(), selected=rec.selected, estimate=rec.estimate,
                        criterion=crit_map, counts=rec.counts)


def select_and_estimate(
    data: Dataset, x: np.ndarray, policy: KappaPolicy, setup: EstimationSetup,
    keep_criterion: bool = False,
) -> PointwiseFit:
    """Minimize the criterion over the lattice and report the winning fit.

    Ties break toward the largest volume (smallest exponent sum), then
    lexicographically smallest exponents. The estimate is not clipped;
    it may be negative or exceed any density bound.
    """
    return _fit(_select_point(data, x, policy, setup, keep_criterion), setup, keep_criterion)


def estimate_on_grid(
    data: Dataset, eval_points, policy: KappaPolicy, setup: EstimationSetup,
    threads: int = 1, keep_criterion: bool = False,
) -> list[PointwiseFit]:
    """Independent per-point fits, in point order, each equal to
    `select_and_estimate` at that point.

    threads, an integer >= 1, is accepted for compatibility and
    ignored: results never depend on it.
    """
    _index(threads, "threads", 1)
    pts = _points(eval_points, "eval_points", setup.grid.dim)
    if not len(pts):
        return []
    return [_fit(rec, setup, keep_criterion)
            for rec in _select_points(data, pts, policy, setup, keep_criterion)]
