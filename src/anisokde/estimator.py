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
by node, and one gather gives all its factors (`_entry_rows`), written
at every d to one [kernel | envelope | keys | spare] row layout
(`_GridTables.col_map`). A block holds at most _BLOCK_PAIRS contracted
key sums, and at least one point. At d = 1 a block of points lays out
its entries in passes of at most _BLOCK_ENTRIES (2^15) and adds them,
in chunks of _CHUNK_ENTRIES (2^11) that stay in L2, in place into each
point's row (`np.add.at`), bit for bit the one-point sums
(`_window_sums`). At d >= 2 each point of a block writes its sums into
the block's arrays (`_point_tables`), in chunks of candidates so memory
does not grow with n: each axis's (candidates x width) rows, written
by one pass over its entries (`_axis_rows`), are contracted (outer
products, then one GEMM). A factor of axis j depends only on the
observation and on x_j, so on a tensor grid the points of one grid
line read the same rows: an axis whose coordinate a later point shares
takes its rows from that line's matrix, written by the same pass over
every observation within 1 of the coordinate and kept, with its map
from observation to row, within _LINE_BYTES (`_Lines`). At d = 2 a line
is kept in its other axis's order, so a point with both lines makes no
box query: its candidates are one slice of one line, read as a view,
and one gather from the other.
A pair estimate reads the contracted keys through per-axis
(E+1) x (E+1) tables (`_pair_read`), only for the rows the selection
evaluates. Everything runs on one thread.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from itertools import repeat

import numpy as np

from .bandwidths import Bandwidth, BandwidthGrid, build_grid
from .errors import MAX_LATTICE_BYTES, InvalidParameterError, _index, _points, _real
from .kernels import (
    DEFAULT_TABLE_SIZE,
    Kernel1D,
    ProductKernel,
    Tabulated1D,
    _check_order_and_table,
    _unit_integral,
    build_base,
    build_composite,
    build_envelope,
    build_product,
    convolve_ratio,
)

# Largest working set of one chunk of candidates in `_point_tables`.
_BLOCK_BYTES = 2**24
# Most bytes of per-axis line matrices `_Lines` keeps at d >= 2.
_LINE_BYTES = 2**22
# Most (row, lattice row) pairs of one chunk of criterion or oracle rows
# (`_select_block`, `_row_blocks`): a few hundred kB each run faster than
# one (H, H) pass at d = 3. Also the most contracted key sums of one block
# of points (`_block_points`).
_BLOCK_PAIRS = 2**16
# Most (candidate, scale) entries of one d = 1 layout pass of `_window_sums`
# (E+1 scales a candidate) and of one of its chunks; sized on risk_d1 (README).
_BLOCK_ENTRIES = 2**15
_CHUNK_ENTRIES = 2**11


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
    (candidate, scale) entry holds in a `_window_sums` chunk: its two
    stack gathers (E+3 each), index temporaries and `np.add.at` buffer;
    its keys, from the key table, take the place of the second gather."""
    if dim == 1:
        return 2 * (max_exponent + 3) + 10
    cols, keys = max_exponent + 1, (max_exponent + 1) * (max_exponent + 2) // 2
    entries = cols * (2 * (max_exponent + 3) + 10)
    return dim * (entries + 3 * cols + keys + 1) + 2 * keys ** (dim - 1)


def _lattice_bytes(grid: BandwidthGrid) -> int:
    """Peak bytes of one selection (a block of points, `_block_points`);
    the lattice tables, O(H d E) values, are not counted.

    A block holds its points' sums and kept criteria (the P^d contracted
    key sums and four lattice rows each, P = (E+1)(E+2)/2), counted
    twice since a caller may still hold a record of the block before,
    and either the work that fills them or the criterion pass: a chunk
    of criterion or oracle pairs (`_row_blocks`, five 8-byte arrays of
    max(_BLOCK_PAIRS, H) values) or the block's records (about 1 KiB
    each) and eight (point, lattice row) arrays. No (H, H) array is
    held. At d >= 2 a point's work is one chunk's P^d key sums, the kept
    line matrices and their maps (_LINE_BYTES) and one chunk of candidates
    (_BLOCK_BYTES, or one `_row_floats` row if more; building a line
    takes less). At d = 1 it is the block's key table, spare column and
    candidate bounds beside the larger of a `_window_sums` layout pass
    (five floats an entry and four a candidate) and a chunk (its
    `_row_floats` rows beside its pass's windows and offsets).
    Candidate offsets, a slice of the sample, are not counted, so the
    estimate does not depend on n.
    """
    d, E = grid.dim, grid.max_exponent
    keys, points = (E + 1) * (E + 2) // 2, _block_points(grid)
    block = points * (keys ** d + 4 * len(grid))
    select = max(40 * max(_BLOCK_PAIRS, len(grid)), points * (1024 + 64 * len(grid)))
    if d == 1:
        layout = 5 * _BLOCK_ENTRIES + 4 * max(1, _BLOCK_ENTRIES // (E + 1))
        chunk = 2 * _BLOCK_ENTRIES + _CHUNK_ENTRIES * _row_floats(1, E)
        work = points * (5 + (E + 1) * (E + 3)) + max(layout, chunk)
        return 16 * block + max(8 * work, select)
    chunk = max(_BLOCK_BYTES, 8 * _row_floats(d, E), select)
    return 8 * (2 * block + keys ** d + 3 * (E + 1) + keys + 1) + _LINE_BYTES + chunk


@dataclass(frozen=True, eq=False)
class EstimationSetup:
    """Immutable bundle the selection rule needs besides data and policy.

    pair_tables[k] is the q_r table for the axis ratio r = 2^-k, one for
    each exponent difference k = 0..E the lattice can realize, each of
    the kernel's order; the majorant's factor is their pointwise max of
    |q_r| (`build_envelope`). Anything else is refused.

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
        m, ell = self.kernel.factor.table_size, self.kernel.factor.ell
        wide = (self.majorant.factor, *self.pair_tables)
        if any(t.profile.support() != (-1.0, 1.0) or t.table_size != 2 * m for t in wide):
            raise InvalidParameterError(
                f"envelope and q_r tables need {2 * m} steps on [-1, 1]")
        names = ("majorant", *(f"pair_tables[{k}]" for k in range(len(self.pair_tables))))
        for name, t in zip(names, wide):
            if t.ell != ell:
                raise InvalidParameterError(f"{name} has kernel order {t.ell}, the kernel {ell}")
        # a max is exact, so the envelope of these tables has these bits
        envelope = map(np.abs, (q.profile.values for q in self.pair_tables))
        if not np.array_equal(self.majorant.factor.profile.values, reduce(np.maximum, envelope)):
            raise InvalidParameterError("majorant must be the pointwise max of |q_r| "
                                        "over pair_tables")
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

    Every argument is checked first (`_checked_grid`), then the kernel's
    integral, before any q_r table is built. Each lattice ratio 2^0..2^-E
    is tabulated exactly once; the setup keeps those tables, the envelope
    is their pointwise max, and fits and the oracle only read them.
    """
    grid = _checked_grid(n, dim, ell, table_size, max_exponent)
    composite = _unit_integral(build_composite(build_base(ell, table_size)))
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
    taken in one sequence, laid out _BLOCK_ENTRIES (candidate, scale)
    entries a pass (the worst case of `cols` scales per candidate);
    candidate y is in support at the scales 2^a with |y| 2^a <= 1, a run
    from a = 0. Each chunk of _CHUNK_ENTRIES entries of a pass adds
    their stack rows straight into the point's `col_map` row of the
    (point, width) sums, and their |kernel| into the (point, scale)
    sums, with `np.add.at`, its keys one `take` of the (window, stack
    row) key table; it adds in index order after the chunks before, so
    every sum is one sequential sum in candidate order from +0.0,
    whatever the cuts. The 2^a of scale a is applied to the sums (exact
    for a power of two)."""
    tables = setup.tables
    cols, width = tables.scales.size, tables.width
    edges = 1.0 / tables.scales[::-1]
    sv, x = data.sorted_vals[0], xs[:, 0]
    first = np.searchsorted(sv, x - 1.0, side="left")
    counts = np.searchsorted(sv, x + 1.0, side="right") - first
    ends = np.cumsum(counts)
    shift = first - ends + counts  # candidate c of point p is sv[c + shift[p]]
    sums, abs_k = np.zeros((x.size, width)), np.zeros(x.size * cols)
    flat = sums.reshape(-1)
    keys = ((np.arange(x.size) * width)[:, None, None] + tables.col_map).reshape(x.size * cols, -1)
    step = max(1, _BLOCK_ENTRIES // cols)
    for lo in range(0, int(ends[-1]), step):
        c = np.arange(lo, min(lo + step, int(ends[-1])))
        pt = np.searchsorted(ends, c, side="right")
        y = sv[c + shift[pt]] - x[pt]
        inside = cols - np.searchsorted(edges, np.abs(y), side="left")
        cand = np.repeat(np.arange(c.size), inside)
        scale = np.arange(cand.size) - (np.cumsum(inside) - inside)[cand]
        win = (pt * cols)[cand] + scale
        ys = y[cand]
        ys *= tables.scales[scale]
        del c, pt, y, inside, cand, scale  # a chunk holds only its layout
        for at in range(0, win.size, _CHUNK_ENTRIES):
            w = win[at:at + _CHUNK_ENTRIES]
            vals = _entry_rows(ys[at:at + _CHUNK_ENTRIES], setup)
            # raveled keys and values take numpy's fast path of `add.at`
            np.add.at(flat, keys.take(w, axis=0).ravel(), vals.ravel())
            np.add.at(abs_k, w, np.abs(vals[:, 0]))
            del vals, w  # not held while the next chunk gathers or pass lays out
        del win, ys  # nor the layout while the next pass lays out
    col_scale = np.empty(width)
    col_scale[tables.col_map] = tables.scales[:, None]
    sums *= col_scale
    sums /= data.n
    abs_k = abs_k.reshape(x.size, cols) * tables.scales / data.n
    return [sums[:, :cols], abs_k, sums[:, cols:2 * cols], sums[:, 2 * cols:-1]], counts


def _axis_rows(offs: np.ndarray, setup: EstimationSetup, out: np.ndarray) -> None:
    """Write the [kernel | envelope | keys | spare] row (`_GridTables.col_map`)
    of every offset of offs (candidates,) on one axis into out
    (candidates, width), C-contiguous zeros on entry: each in-support
    (offset, scale 2^a) entry's stack rows (`_entry_rows`), times the
    exact 2^a. A row depends on its own offset only, so it is the same
    whatever else is filled."""
    tables = setup.tables
    cols = tables.scales.size
    ys = offs[:, None] * tables.scales
    entry = np.flatnonzero(np.abs(ys) <= 1.0)
    scale = entry % cols
    vals = _entry_rows(ys.take(entry), setup)
    vals *= tables.scales[scale][:, None]
    at = tables.col_map.take(scale, axis=0)
    at += (entry // cols * tables.width)[:, None]
    out.reshape(-1)[at] = vals


def _chunk_sums(axes: list, cut: slice, setup: EstimationSetup) -> list[np.ndarray]:
    """Kernel, |kernel|, envelope and key sums over the candidates cut of
    a point, d >= 2. axes[j] gives axis j's rows: (mat, None) reads them
    as a view of mat, (mat, rows) gathers mat's rows, and (None, offs)
    has `_axis_rows` write the rows of the offsets offs; then the
    per-axis matrices are contracted."""
    tables = setup.tables
    cols = tables.scales.size
    mats = []
    for mat, at in axes:
        if mat is None:
            offs = at[cut]
            mat = np.zeros((offs.size, tables.width))
            _axis_rows(offs, setup, mat)
        else:
            mat = mat[cut] if at is None else mat.take(at[cut], axis=0)
        mats.append(mat)
    k_ax = [mat[:, :cols] for mat in mats]
    return [_contract(m) for m in (k_ax, [np.abs(k) for k in k_ax],
                                   [mat[:, cols:2 * cols] for mat in mats],
                                   [mat[:, 2 * cols:-1] for mat in mats])]


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

    A d = 2 point with both lines (see `_Lines`) takes the thinnest axis
    j of `box_indices` (the smaller line, axis 0 on a tie): line 1 - j,
    kept in data.order[j], holds the point's candidates in box order as
    the one slice whose ranks fall in line j's run. Axis 1 - j's rows
    are a view of that slice, and axis j's one gather through line j's
    map. Any other point takes `box_indices`; an axis with a line
    gathers its rows (`_Line.rows`), one without writes the `_axis_rows`
    of its offsets, bit for bit the same rows. The candidates come in
    chunks of `_chunk_rows`, each contracted by `_chunk_sums`;
    |prod k_j| = prod |k_j| gives the kernel's A-hat."""
    if len(lines) == 2 and None not in lines:
        j = int(len(lines[1].mat) < len(lines[0].mat))
        near, far = lines[j], lines[1 - j]
        lo, hi = far.ranks.searchsorted((near.start, near.start + len(near.mat)))
        axes = [None, None]
        axes[1 - j] = far.mat[lo:hi], None
        axes[j] = near.mat, near.pos.take(far.ranks[lo:hi] - near.start)
        count = int(hi - lo)
    else:
        idx = data.box_indices(x - 1.0, x + 1.0)
        offs = data.points[idx] - x
        axes = [(None, offs[:, j]) if line is None else (line.mat, line.rows(idx))
                for j, line in enumerate(lines)]
        count = int(idx.size)
    rows = _chunk_rows(setup)
    for at in range(0, max(count, 1), rows):
        for total, chunk in zip(out, _chunk_sums(axes, slice(at, at + rows), setup)):
            total += chunk
    for total in out:
        total /= data.n
    return count


@dataclass(eq=False)
class _Line:
    """Line (j, v): the rows (`_axis_rows`) of axis j's offsets X_ij - v
    of the observations with |X_ij - v| <= 1, the run
    data.order[j][start:start + len(mat)], kept in data.order[o] for the
    next axis o = (j + 1) mod d (the other axis at d = 2). ranks holds
    the rows' places in data.order[o], ascending, and the map pos the
    row of each observation of the run, by its place in the run; next
    is the next point that reads it."""

    mat: np.ndarray
    start: int
    ranks: np.ndarray
    pos: np.ndarray
    rank: np.ndarray  # rank[i]: the place of observation i in data.order[j]
    next: int

    @property
    def nbytes(self) -> int:
        return self.mat.nbytes + self.ranks.nbytes + self.pos.nbytes

    def rows(self, idx: np.ndarray) -> np.ndarray:
        """The rows of the observations idx, each in the run."""
        return self.pos.take(self.rank.take(idx) - self.start)


class _Lines:
    """The per-axis line matrices a block of points (d >= 2) shares.

    Every point whose coordinate j is v reads its candidates' axis-j rows
    from the line (j, v): one `_axis_rows` pass per chunk of the line's
    offsets writes them, the rows the point's own pass would give. At
    d = 2 each line is kept in its other axis's order, so a point with
    both lines reads one slice of one and one gather from the other
    (`_point_tables`). A line is built only when a later point reads it
    too, and kept while the kept lines and their maps fit in
    _LINE_BYTES; a line that the next point reads (the first axis of an
    `ij` mesh) may drop the kept lines read after it, latest first, to
    make room. A line is dropped after its last reader. Axes without a
    line, and every point that shares no coordinate with a later one,
    take the point's own `_axis_rows` pass.
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
        data, setup = self.data, self.setup
        sv = data.sorted_vals[j]
        lo = int(np.searchsorted(sv, v - 1.0, side="left"))
        size = int(np.searchsorted(sv, v + 1.0, side="right")) - lo
        need = size * (8 * setup.tables.width + 16)  # the matrix, ranks and map
        used = sum(line.nbytes for line in self.kept.values())
        if used + need > _LINE_BYTES and nxt == p + 1:
            for key in sorted(self.kept, key=lambda key: self.kept[key].next, reverse=True):
                if used + need <= _LINE_BYTES or self.kept[key].next <= nxt:
                    break
                used -= self.kept.pop(key).nbytes
        if used + need > _LINE_BYTES:
            return None
        if not self.ranks:
            for order in data.order:
                rank = np.empty(order.size, dtype=np.int64)
                rank[order] = np.arange(order.size)
                self.ranks.append(rank)
        run = self.ranks[(j + 1) % data.dim].take(data.order[j][lo:lo + size])
        perm = run.argsort()
        pos = np.empty(size, dtype=np.int64)
        pos[perm] = np.arange(size)
        mat = np.zeros((size, setup.tables.width))
        offs = sv[lo:lo + size].take(perm) - v
        step = _chunk_rows(setup)
        for row in range(0, size, step):
            _axis_rows(offs[row:row + step], setup, mat[row:row + step])
        self.kept[j, v] = line = _Line(mat, lo, run.take(perm), pos, self.ranks[j], p)
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
    # map holds no record while the next block is summed
    return list(map(_fit, _select_points(data, pts, policy, setup, keep_criterion),
                    repeat(setup), repeat(keep_criterion)))
