"""Ground-truth counterparts of every empirical quantity the selection
rule uses, plus the per-realization error-bound check built from them.

Given the true density, this module computes the estimator's bias, the
maximal (smoothed) bias over the lattice, the true error majorants,
and the two residuals that measure how far the empirical surrogates
drift from their means. Together these assemble a sure inequality:
for every realization, the selected estimate's pointwise error is
bounded by the best lattice bandwidth's bias/majorant budget plus
residual terms.

Every true quantity is a smoothing of f at x: by K_h (single-estimate
means), |K_h| and the envelope (true kernel averages) and q_r at the
join bandwidth (pair means; per axis q_r is K_h * K_eta, so these are
also the double smoothings behind the smoothed bias). Each is f's
values summed against one weight row per axis (trapezoid weights times
a kernel factor on the [-1, 1] nodes u) at a dyadic scale vector 2^-t
(t = 0..E+1; K at 2^-a is t = a+1), so one pass serves them all. Per
axis group of f (`_factors`: one per axis for a product-form density or
a mixture of them, else one group of all axes) `_Pass.tables` calls f
once per block of whole scale vectors, at x + 2^-t u on the group mesh,
and sums each block against every weight row on each node axis in turn:
a dense table T[g, c, t, w_0..w_{k-1}]. A read (`_single`, `_pair`)
names per axis the (scale, weight row) of every entry it wants; its
pass turns these into per-axis keys into the flat table, and
`_Smoothing.read` multiplies the groups' entries and adds the mixture
components in order.

What does not depend on f or x is built once per setup and node count
(`_plan`, kept in `EstimationSetup.oracle_plans`): the nodes, the
weight rows, both reads and, on first use, the pass of each group size
with its scale vectors, mesh and read keys. Per instance `_TrueTables`
evaluates f's tables, reads the single means and takes f(x) and the
majorants.
`_oracle_terms` walks the (H, H) pair means once, in blocks of lattice
rows (`_row_blocks`), and takes the smoothed bias and zeta's pair part
from each block. `bias`, `bias_bar` and `majorant_true` run passes of
their own weight rows, so each equals its entry in the oracle terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

import numpy as np

from .bandwidths import Bandwidth, BandwidthGrid
from .densities import TrueDensity
from .errors import MAX_LATTICE_BYTES, InvalidParameterError, _index, _points, _real
from .estimator import (
    EstimationSetup,
    KappaPolicy,
    _coarser_sup,
    _pair_read,
    _per_axis,
    _PointRecord,
    _row_blocks,
    _select_point,
)
from .kernels import _interp_uniform, convolve_ratio
from .quadrature import DEFAULT_NODES, trapezoid_rule

# Most quadrature points `_Pass.tables` evaluates at once, in blocks of
# whole scale vectors (at least one).
_BLOCK_POINTS = 2**12


def _factors(f: TrueDensity):
    """(weights, groups): f(t) = sum_c weights[c] * prod over the groups
    (cols, fns) of fns[c](t[:, cols]), each fn taking an (m, len(cols))
    array. Product-form densities and mixtures of them have one group per
    axis; any other density is one group of all its axes."""
    def terms(g):  # weighted product components of g, or None
        if g.marginals is not None:
            return [(1.0, g.marginals)]
        subs = [(w, terms(comp)) for w, comp in g.components or ()]
        if g.components is None or any(sub is None for _, sub in subs):
            return None
        return [(w * wi, m) for w, sub in subs for wi, m in sub]
    found = terms(f)
    if found is None:
        return np.ones(1), [(list(range(f.dim)), (f,))]
    groups = [([j], tuple(lambda p, pdf=margs[j].pdf: pdf(p[:, 0]) for _, margs in found))
              for j in range(f.dim)]
    return np.array([w for w, _ in found]), groups


def _node_weights(g, nodes: int):
    """Trapezoid nodes on the per-axis support of kernel g and the node
    weights times g's factor, as one table row. The weights are positive,
    so the row's |.| is exactly the row of |g|."""
    us, wts = trapezoid_rule(-g.half_width, g.half_width, nodes)
    return us, (wts * np.asarray(g.factor(us), dtype=float))[None, :]


def _distinct(values: np.ndarray) -> np.ndarray:
    """np.unique(values) for non-negative integers."""
    return np.flatnonzero(np.bincount(values.ravel()))


def _single(exps: np.ndarray, shifts) -> tuple[list, list]:
    """The read of the smoothing by weight row c at 2^-(a + shifts[c]) on
    each axis, for every channel c and row a of the exponent matrix exps:
    per axis the (scale exponent, weight row) indices, shaped (channels,
    rows)."""
    shifts = np.asarray(shifts)[:, None]
    return [col + shifts for col in exps.T], [np.arange(shifts.size)[:, None]] * exps.shape[1]


def _pair(exp_h: np.ndarray, exp_eta: np.ndarray, first: int) -> tuple[list, list]:
    """The read of the pair estimate's mean for every pair (h, eta) of a
    row of exp_h and a row of exp_eta, whose rows are the full lattice
    {0..max}^d in C order: on each axis q_r, r = 2^-|a - b| (weight row
    first + |a - b|), smoothing f at the join scale 2^-min(a, b). Per axis
    the (scale exponent, weight row) indices, shaped by `_per_axis`."""
    a, b = np.arange(exp_h.max() + 1)[:, None], np.arange(exp_eta.max() + 1)
    d = exp_h.shape[1]
    return (_per_axis([np.minimum(a, b)] * d, exp_h),
            _per_axis([first + np.abs(a - b)] * d, exp_h))


class _Pass(NamedTuple):
    """One smoothing pass over groups of k axes, whatever f and x: the
    C-contiguous weight rows wtab (trapezoid weights times a kernel factor
    on the nodes), the flat codes (base span) and scales 2^-t of the
    scale vectors t its reads need, the group mesh of the nodes, and per
    read and axis the keys of its entries in a flat table (`tables`)."""

    wtab: np.ndarray
    span: int
    codes: np.ndarray
    scales: np.ndarray
    mesh: np.ndarray
    keys: list

    def tables(self, x: np.ndarray, groups) -> np.ndarray:
        """T[g, c, flat (t, w_0, .., w_{k-1})]: component c of group g
        (cols, fns) at x[cols] + 2^-t u, summed over the mesh u against
        weight row w_j on each node axis j in turn; zero at the scale
        vectors no read needs. Each fn is called once per block of whole
        scale vectors."""
        (size, k), nodes, width = self.mesh.shape, self.wtab.shape[1], self.wtab.shape[0]
        out = np.zeros((len(groups), len(groups[0][1]), self.span ** k) + (width,) * k)
        step = max(1, _BLOCK_POINTS // size)
        last = (0, 1, 2, *range(4, k + 3), 3)  # the first node axis left moves to the end
        for lo in range(0, len(self.codes), step):
            offsets = (self.scales[lo:lo + step, None, :] * self.mesh).reshape(-1, k)
            vals = np.empty(out.shape[:2] + (len(offsets),))
            for g, (cols, fns) in enumerate(groups):
                pts = x[cols] + offsets
                for c, fn in enumerate(fns):
                    vals[g, c] = fn(pts)
            vals = vals.reshape(out.shape[:2] + (-1,) + (nodes,) * k)
            for _ in range(k):
                vals = (vals.transpose(last)[..., None, :] * self.wtab).sum(axis=-1)
            out[:, :, self.codes[lo:lo + step]] = vals
        return out.reshape(out.shape[:2] + (-1,))


def _pass(us: np.ndarray, wtab: np.ndarray, k: int, reads) -> _Pass:
    """The pass over groups of k axes on the nodes us for the reads (ts,
    ws): per read and group, every combination of the read's distinct
    scales on the group's axes. An entry's key is the sum over the
    group's axes of their keys. Its tables (per component) and one block
    (points, values and the product with every weight row) must fit in
    MAX_LATTICE_BYTES; that is checked before the mesh is built."""
    span = 1 + max(int(t.max()) for ts, _ in reads for t in ts)
    seen = np.zeros((span,) * k, dtype=bool)
    for ts, _ in reads:
        for lo in range(0, len(ts), k):
            seen[np.ix_(*(_distinct(t) for t in ts[lo:lo + k]))] = True
    size, width = us.size ** k, wtab.shape[0]
    block = min(int(seen.sum()), max(1, _BLOCK_POINTS // size)) * size
    need = 8 * ((span * width) ** k + block * (k + 1 + width))
    if need > MAX_LATTICE_BYTES:
        raise InvalidParameterError(
            f"the smoothing pass holds tables of {span}^{k} scale vectors times "
            f"{width}^{k} weight rows and blocks of {block} mesh points, about "
            f"{need / 2**30:.1f} GiB (MAX_LATTICE_BYTES is "
            f"{MAX_LATTICE_BYTES / 2**30:.1f} GiB); lower nodes")
    # axis j's part of the flat index of (t_0.., w_0..) in a table's row (g, c)
    keys = [[t * (span ** (k - 1 - j % k) * width**k) + w * width ** (k - 1 - j % k)
             for j, (t, w) in enumerate(zip(ts, ws))] for ts, ws in reads]
    mesh = us[np.indices((us.size,) * k).reshape(k, -1).T]
    return _Pass(np.ascontiguousarray(wtab), span, np.flatnonzero(seen),
                 2.0 ** -np.argwhere(seen), mesh, keys)


class _Smoothing:
    """Smoothings of f at x by kernel weight rows at dyadic scales: the
    tables of f's axis groups (one axis each, or all axes) from the pass
    of that group size, given by passes, and reads of them."""

    def __init__(self, f: TrueDensity, x: np.ndarray, passes):
        self.weights, self.groups = _factors(f)
        self.pas = passes(len(self.groups[0][0]))
        self.tabs = self.pas.tables(x, self.groups)

    def read(self, i: int, rows=slice(None)) -> np.ndarray:
        """sum_c weights[c] * prod over groups of their table entries of
        the pass's read i (its rows `rows` along the first axis), the
        components added in order."""
        keys = [key[rows] for key in self.pas.keys[i]]
        out = self.weights
        for tab, (cols, _) in zip(self.tabs, self.groups):
            term = tab.take(reduce(np.add, [keys[j] for j in cols]), axis=1)
            out = out.reshape(out.shape + (1,) * (term.ndim - out.ndim)) * term
        total = out[0]
        for part in out[1:]:
            total = total + part
        return total


def _wide_rows(wide: np.ndarray, nodes: int):
    """The [-1, 1] trapezoid nodes (K at 2^-a reads them at 2^-(a + 1):
    K's own nodes at 2^-a, bit for bit) and the weight rows of the
    equal-size tables on [-1, 1] stacked in wide."""
    us, wts = trapezoid_rule(-1.0, 1.0, nodes)
    return us, wts * _interp_uniform(-1.0, 2.0 / (wide.shape[1] - 1), wide, us)


class _Plan(NamedTuple):
    """What `_TrueTables` reads at one setup and node count, whatever f
    and x: the [-1, 1] nodes, the weight rows (kernel, |kernel|,
    envelope, q_0..q_E), the single read (three channels), the pair
    read and the passes by group size, each built on first use."""

    us: np.ndarray
    wtab: np.ndarray
    single: tuple
    pairs: tuple
    passes: dict

    def pass_of(self, k: int) -> _Pass:
        """The pass over groups of k axes for both reads."""
        if k not in self.passes:
            self.passes[k] = _pass(self.us, self.wtab, k, (self.single, self.pairs))
        return self.passes[k]


def _plan(setup: EstimationSetup, nodes: int) -> _Plan:
    """setup's plan at this node count, built on first use and kept in
    setup.oracle_plans."""
    nodes = _index(nodes, "nodes")
    plan = setup.oracle_plans.get(nodes)
    if plan is None:
        exp = setup.tables.exp
        us, wide = _wide_rows(setup.stack[1:], nodes)
        k_row = _node_weights(setup.kernel, nodes)[1]
        wtab = np.concatenate([k_row, np.abs(k_row), np.abs(wide[:1]), wide[1:]])
        plan = setup.oracle_plans[nodes] = _Plan(us, wtab, _single(exp, (1, 1, 0)),
                                                 _pair(exp, exp, 3), {})
    return plan


def _bias_bar(bias: np.ndarray, smoothed: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Per row h: max(|bias_h|, max over eta of |(K_eta * K_h * f)(x) -
    (K_eta * f)(x)|), from the pair means (row h, column eta) and the eta
    means."""
    return np.maximum(np.abs(bias), np.abs(smoothed - means[None, :]).max(axis=1))


def _majorant(a_true, kappa: float, n: int, volume):
    """sqrt(kappa*A*ln n/(n*V)) + kappa*ln n/(n*V); scalars or arrays."""
    lam = kappa * float(np.log(n)) / (n * volume)
    return np.sqrt(np.maximum(a_true, 0.0) * lam) + lam


def _checked_dims(f: TrueDensity, *parts) -> None:
    """Refuse a kernel, bandwidth or grid of another dimension than f's."""
    for part in parts:
        if part.dim != f.dim:
            raise InvalidParameterError(
                f"{type(part).__name__} has dim {part.dim}, the density {f.dim}")


def _checked_point(f: TrueDensity, x, *parts) -> np.ndarray:
    """x as a finite point of f's dimension; every kernel, bandwidth and
    grid in parts must have that dimension too."""
    _checked_dims(f, *parts)
    return _points(x, "x", f.dim, single=True)


def _at(f: TrueDensity, g, h: Bandwidth, x, nodes: int, absolute: bool = False) -> float:
    """int g_h(t - x) f(t) dt, |g_h| when absolute, on g's own nodes."""
    us, row = _node_weights(g, nodes)
    read = _single(np.asarray(h.exponents, dtype=np.int64)[None, :], (0,))
    wtab = np.abs(row) if absolute else row
    sm = _Smoothing(f, x, lambda k: _pass(us, wtab, k, [read]))
    return float(sm.read(0)[0, 0])


def bias(f: TrueDensity, K, h: Bandwidth, x, nodes: int = DEFAULT_NODES) -> float:
    """Mean of the single-bandwidth estimate minus the truth at x."""
    x = _checked_point(f, x, K, h)
    return float(_at(f, K, h, x, nodes) - f(x))


def bias_bar(f: TrueDensity, K, grid: BandwidthGrid, h: Bandwidth, x,
             nodes: int = DEFAULT_NODES) -> float:
    """Max of |bias| and the largest |lattice-smoothed bias| at x. The
    smoothings K_eta * K_h * f are the pair means, read from q_r tables of
    K's profile for every exponent difference needed, so h may lie off the grid."""
    x = _checked_point(f, x, K, grid, h)
    if K.half_width != 0.5:
        raise InvalidParameterError(
            f"bias_bar needs the kernel K, supported on [-1/2, 1/2] per axis; "
            f"got half-width {K.half_width}")
    exp = grid.exponent_matrix()
    h_exp = np.asarray(h.exponents, dtype=np.int64)[None, :]
    top = max(grid.max_exponent, int(h_exp.max()))
    us, q_rows = _wide_rows(np.stack([convolve_ratio(K.factor, 2.0 ** -k).profile.values
                                      for k in range(top + 1)]), nodes)
    single, pairs = _single(np.concatenate([h_exp, exp]), (1,)), _pair(h_exp, exp, 1)
    wtab = np.concatenate([_node_weights(K, nodes)[1], q_rows])
    sm = _Smoothing(f, x, lambda k: _pass(us, wtab, k, (single, pairs)))
    means = sm.read(0)[0]
    return float(_bias_bar(means[:1] - f(x), sm.read(1).reshape(1, -1), means[1:])[0])


def majorant_true(f: TrueDensity, g, h: Bandwidth, x, policy: KappaPolicy,
                  n: int, nodes: int = DEFAULT_NODES) -> float:
    """True (un-quadrupled) error majorant sqrt(kappa*A*ln n/(n*V)) + kappa*ln n/(n*V)."""
    n = _index(n, "n", 2)
    x = _checked_point(f, x, g, h)
    return float(_majorant(_at(f, g, h, x, nodes, absolute=True), policy.kappa, n, h.volume))


@dataclass(frozen=True, eq=False)
class OracleTerms:
    """Every lattice-indexed term of the pointwise error bound at one x."""

    x: np.ndarray
    exponents: np.ndarray
    bias: np.ndarray
    bias_bar: np.ndarray
    m_k: np.ndarray
    m_q_sup: np.ndarray
    zeta: float
    chi: float
    bound: float
    argmin: tuple[int, ...]


class _TrueTables:
    """Lattice-shaped true means and majorants at one point, all read
    from one smoothing pass over f, and f(x) itself; the (H, H) pair
    means are read a block of rows at a time (`pair_mean`)."""

    def __init__(self, f: TrueDensity, x: np.ndarray, policy: KappaPolicy,
                 setup: EstimationSetup, n: int, nodes: int):
        plan = _plan(setup, nodes)
        self.sm = _Smoothing(f, x, plan.pass_of)
        singles = self.sm.read(0)
        self.mean_f, self.a_k, self.a_q = singles
        self.fx = f(x)
        self.bias = self.mean_f - self.fx
        self.m_k, self.m_q = _majorant(singles[1:], policy.kappa, n, setup.tables.volumes)

    def pair_mean(self, rows: slice) -> np.ndarray:
        """The pair means of the lattice rows `rows` (row h) against every
        lattice row (column eta)."""
        means = self.sm.read(1, rows)
        return means.reshape(len(means), -1)


def _oracle_terms(data, f, x, policy, setup, nodes
                  ) -> tuple[OracleTerms, _PointRecord, int, float]:
    """The bound's terms, the selector's record they were built from,
    the lattice row that minimizes the bound and f at the point."""
    rec = _select_point(data, _checked_point(f, x, setup.grid), policy, setup)
    tables = setup.tables
    truth = _TrueTables(f, rec.x, policy, setup, data.n, nodes)
    xi_single = np.abs(rec.fhat - truth.mean_f) - truth.m_k
    key, join = tables.every_pair
    bars, xi_pair = [], []
    for rows in _row_blocks(tables):  # each block's pair means read once, for both maxima
        means = truth.pair_mean(rows)
        bars.append(_bias_bar(truth.bias[rows], means, truth.mean_f))
        xi_pair.append((np.abs(_pair_read(rec.keys, key, rows) - means)
                        - _pair_read(truth.m_q, join, rows)).max())
    bias_bar = np.concatenate(bars)
    zeta = max(float(np.max(xi_single)), float(np.max(xi_pair)), 0.0)
    chi = max(float(np.max(np.abs(rec.a_k - truth.a_k) - truth.m_k)),
              float(np.max(np.abs(rec.a_q - truth.a_q) - truth.m_q)), 0.0)
    m_q_sup = _coarser_sup(truth.m_q, tables)
    per_h = 4.0 * bias_bar + 60.0 * m_q_sup + 61.0 * truth.m_k
    best = int(np.argmin(per_h))
    terms = OracleTerms(
        x=rec.x.copy(), exponents=tables.exp.copy(), bias=truth.bias,
        bias_bar=bias_bar, m_k=truth.m_k, m_q_sup=m_q_sup, zeta=zeta, chi=chi,
        bound=float(per_h[best] + 7.0 * zeta + 18.0 * chi),
        argmin=tuple(int(k) for k in tables.exp[best]))
    return terms, rec, best, truth.fx


def residual_zeta(data, f: TrueDensity, x, policy: KappaPolicy,
                  setup: EstimationSetup, nodes: int = DEFAULT_NODES) -> float:
    """Largest excess of a centered estimate over its true majorant."""
    return oracle_terms(data, f, x, policy, setup, nodes).zeta


def residual_chi(data, f: TrueDensity, x, policy: KappaPolicy,
                 setup: EstimationSetup, nodes: int = DEFAULT_NODES) -> float:
    """Largest excess of an empirical kernel average over its mean and majorant."""
    return oracle_terms(data, f, x, policy, setup, nodes).chi


def oracle_terms(data, f: TrueDensity, x, policy: KappaPolicy,
                 setup: EstimationSetup, nodes: int = DEFAULT_NODES) -> OracleTerms:
    """Assemble every term of the pointwise bound at x."""
    return _oracle_terms(data, f, x, policy, setup, nodes)[0]


def assert_oracle_inequality(data, f: TrueDensity, x, policy: KappaPolicy,
                             setup: EstimationSetup,
                             nodes: int = DEFAULT_NODES) -> dict:
    """Check the per-realization pointwise bound; returns a JSON-friendly record.

    The selection and estimate come from the same selector pass that
    built the bound's empirical terms.
    """
    terms, rec, best, fx = _oracle_terms(data, f, x, policy, setup, nodes)
    lhs = abs(rec.estimate - fx)
    return {
        "x": [float(v) for v in rec.x],
        "lhs": float(lhs),
        "rhs": float(terms.bound),
        "rhs_terms": {
            "bias_bar": float(terms.bias_bar[best]),
            "mK": float(terms.m_k[best]),
            "mQ": float(terms.m_q_sup[best]),
            "zeta": float(terms.zeta),
            "chi": float(terms.chi),
        },
        "selected": list(rec.selected.exponents),
        "holds": bool(lhs <= terms.bound * (1.0 + 1e-6)),
    }


def check_proportional(a_hat: float, a_true: float, policy: KappaPolicy,
                       v_h: float, n: int) -> dict:
    """Two-sided comparability of the empirical and true majorants.

    With lam = kappa*ln n/(n*v_h), m_check = sqrt(a_hat*lam) + lam and
    m_true = sqrt(a_true*lam) + lam, the excess brackets are controlled
    by the average-error bracket chi_h: [m_check - 5*m_true]_+ <=
    chi_h/2 and [m_true - 4*m_check]_+ <= 2*chi_h.
    """
    a_hat, a_true = _real(a_hat, "a_hat", 0.0), _real(a_true, "a_true", 0.0)
    v_h, n = _real(v_h, "v_h", above=0.0), _index(n, "n", 2)
    m_check = float(_majorant(a_hat, policy.kappa, n, v_h))
    m_true = float(_majorant(a_true, policy.kappa, n, v_h))
    chi_h = max(abs(a_hat - a_true) - m_true, 0.0)
    b1 = max(m_check - 5.0 * m_true, 0.0)
    b2 = max(m_true - 4.0 * m_check, 0.0)
    slack = 1e-12 * max(1.0, m_true)
    return {
        "m_check": m_check,
        "m_true": m_true,
        "chi_h": chi_h,
        "bracket_upper": b1,
        "bracket_lower": b2,
        "holds": bool(b1 <= 0.5 * chi_h + slack and b2 <= 2.0 * chi_h + slack),
    }


@dataclass(frozen=True)
class ScalingReport:
    """Fitted log-log slope of a bias norm against one bandwidth coordinate."""

    slope: float | None
    degenerate: bool
    axis: int
    r: float
    h_values: tuple[float, ...]
    norms: tuple[float, ...]


def bias_norm_scaling(f_family: TrueDensity, K, j: int, r_j: float, h_schedule,
                      nodes: int = DEFAULT_NODES, grid_nodes: int = 257) -> ScalingReport:
    """Slope of log ||bias_h||_r against log h_j, other coordinates pinned.

    The untouched coordinates sit at the finest scheduled value so the
    varied axis dominates the bias. Norms are grid quadratures over
    the density box plus the kernel's reach.
    """
    hs = sorted(_real(v, "h_schedule", above=0.0) for v in h_schedule)
    if len(hs) < 3:
        raise InvalidParameterError("h_schedule needs at least 3 values")
    grid_nodes = _index(grid_nodes, "grid_nodes", 2)
    j = _index(j, "j")
    if not 0 <= j < f_family.dim:
        raise InvalidParameterError(f"axis {j} out of range for dim {f_family.dim}")
    _checked_dims(f_family, K)
    r_j = _real(r_j, "r_j", 1.0, finite=False)
    weights, groups = _factors(f_family)
    if len(groups) < f_family.dim:
        raise InvalidParameterError(
            "bias_norm_scaling needs a product-form density beyond d = 1")

    axes = [np.linspace(lo - 0.5, hi + 0.5, grid_nodes) for lo, hi in f_family.box]
    f_grid = f_family.grid_values(axes)
    wts = [np.gradient(ax) for ax in axes]
    pinned = hs[0]
    us, wrow = _node_weights(K, nodes)

    norms = []
    for hj in hs:
        h_vals = np.full(f_family.dim, pinned)
        h_vals[j] = hj
        # axis l's smoothings at every grid node of axis l, along axis l
        out = weights.reshape((-1,) + (1,) * f_family.dim)
        for l, (ax, (_, fns)) in enumerate(zip(axes, groups)):
            pts = (ax[:, None] + h_vals[l] * us).reshape(-1, 1)
            tab = np.stack([(np.asarray(fn(pts), dtype=float).reshape(ax.size, -1) * wrow)
                            .sum(axis=1) for fn in fns])
            out = out * tab.reshape([len(fns)] + [-1 if m == l else 1 for m in range(len(axes))])
        norms.append(_grid_norm(np.abs(out.sum(axis=0) - f_grid), wts, r_j))

    degenerate = min(norms) < 1e-14
    slope = None if degenerate else float(np.polyfit(np.log(hs), np.log(norms), 1)[0])
    return ScalingReport(slope=slope, degenerate=degenerate, axis=j, r=r_j,
                         h_values=tuple(hs), norms=tuple(norms))


def _grid_norm(abs_vals: np.ndarray, wts: list[np.ndarray], r: float) -> float:
    if r == np.inf:
        return float(abs_vals.max())
    powed = abs_vals**r
    for w in reversed(wts):
        powed = powed @ w if powed.ndim > 1 else float(powed @ w)
    return float(powed) ** (1.0 / r)
