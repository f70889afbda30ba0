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
also the double smoothings behind the smoothed bias). Each quantity is
a family of table rows (`_single_rows`: one per kernel and exponent;
`_pair_rows`: one per per-axis (join, ratio) key), and
`_Smoothing.tables` sums every row of a `_Layout` from one pass: each
of f's factors is called once for all the scale vectors the rows need,
x + 2^-t u on the [-1, 1] trapezoid nodes (t = 0..E+1; K at 2^-a is
t = a+1), and each row is summed on its own from those values. A
product-form density (or a mixture of them) has one group per axis:
E+2 point sets of `nodes` points per axis and component, one call each
while they fit in a block. Any other density is one group of all axes,
(E+2)**dim sets of nodes**dim points, each family's combinations formed
on their own.

What does not depend on f or x is built once per setup and node count
(`_plan`, kept in `EstimationSetup.oracle_plans`): the nodes, the
kernel, envelope and q_r weight rows, both row families and their
one-axis layout with its weight products. Per instance `_TrueTables`
splits f into its factors, evaluates them, sums the rows, reads the
tables and takes f(x) and the majorants. A density without product form
builds its all-axes layout per call, since it grows as nodes**dim.
`_oracle_terms` walks the (H, H) pair means once, in blocks of lattice
rows (`_row_blocks`), each row on its own, and takes the smoothed bias
and zeta's pair part from each block. `bias`, `bias_bar` and
`majorant_true` build the same rows at their bandwidths, so each equals
its entry in the oracle terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bandwidths import Bandwidth, BandwidthGrid
from .densities import TrueDensity
from .errors import InvalidParameterError, _index, _points, _real
from .estimator import (
    MAX_LATTICE_BYTES,
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

# Most quadrature points `_Smoothing` evaluates at once, and most row
# weights it multiplies and sums at once (all the rows of a pass over a
# product-form density at the usual node counts).
_BLOCK_POINTS = 2**12
_BLOCK_WEIGHTS = 2**15


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


def _distinct(values: np.ndarray):
    """np.unique(values, return_inverse=True) for non-negative integers."""
    seen = np.bincount(values.ravel()) > 0
    return seen.nonzero()[0], (seen.cumsum() - 1)[values]


class _Rows(NamedTuple):
    """A family of table rows and how to read it. Key p of channel c is
    the weight row wtab[wid[c, p]] (trapezoid weights times a kernel
    factor on the nodes) at scale 2^-sid[c, p]; per channel, a group's
    rows are every combination of one key per axis of the group. idx[j]
    holds axis j's key positions (broadcasting together), and the read,
    channels first, is reshaped to shape."""

    wtab: np.ndarray
    wid: np.ndarray
    sid: np.ndarray
    idx: list
    shape: tuple


def _single_rows(wtab: np.ndarray, exps: np.ndarray, shifts) -> _Rows:
    """Smoothing by weight row c of wtab at 2^-(a + shifts[c]) on each
    axis, for every channel c and row a of the exponent matrix exps."""
    keys, inv = _distinct(exps)
    wid = np.arange(len(shifts)).repeat(keys.size).reshape(len(shifts), -1)
    return _Rows(wtab, wid, keys + np.array(shifts)[:, None], list(inv.T),
                 (len(shifts), exps.shape[0]))


def _pair_rows(q_rows: np.ndarray, exp_h: np.ndarray, exp_eta: np.ndarray) -> _Rows:
    """Mean of the pair estimate of every pair (h, eta) of a row of exp_h
    and a row of exp_eta, whose rows are the full lattice {0..max}^d in
    C order: on each axis q_r, r = 2^-|a - b| (weight row q_rows[|a -
    b|]), smoothing f at the join scale 2^-min(a, b). Each per-axis
    (join, ratio) key is one row."""
    a, b = np.arange(exp_h.max() + 1)[:, None], np.arange(exp_eta.max() + 1)
    width = max(a.size, b.size)
    code, key = _distinct(np.minimum(a, b) * width + np.abs(a - b))
    return _Rows(q_rows, (code % width)[None], (code // width)[None],
                 _per_axis([key] * exp_h.shape[1], exp_h), (exp_h.shape[0], -1))


class _Layout:
    """Where the rows of some row families read one smoothing pass over
    f's groups of `dim` axes (every group has the same size), on the
    nodes us: the flat codes of the scale vectors the rows need (at most
    span scales per axis), the group mesh of the nodes, each row's code
    position and per-axis weight ids, the blocks of at most
    _BLOCK_POINTS points and _BLOCK_WEIGHTS weights, and each family's
    slice of the summed rows. Nothing in it depends on f or x, only on
    the group size. A one-axis layout is small, (E+2) * nodes points and
    rows * nodes weights, so it keeps its offsets 2^-t u and each
    block's weight products; an all-axes layout forms them block by
    block during the pass, after `_Smoothing._values` has checked its
    size."""

    def __init__(self, us: np.ndarray, dim: int, families):
        self.span = 1 + max(int(fam.sid.max()) for fam in families)
        node = np.indices((us.size,) * dim).reshape(dim, -1)
        self.wtab = np.concatenate([fam.wtab for fam in families])
        wid, need, self.parts, off, lo = [], [], [], 0, 0
        for fam in families:  # (channel, key per axis) of every row, C order
            rows = np.indices(fam.wid.shape[:1] + (fam.wid.shape[1],) * dim).reshape(dim + 1, -1)
            wid.append(fam.wid[rows[0], rows[1:]] + off)
            need.append(np.ravel_multi_index(fam.sid[rows[0], rows[1:]], (self.span,) * dim))
            off += fam.wtab.shape[0]
            self.parts.append((lo, lo + rows.shape[1],
                               fam.wid.shape[:1] + (fam.wid.shape[1],) * dim))
            lo += rows.shape[1]
        self.wid = np.concatenate(wid, axis=1)
        self.codes, self.pos = _distinct(np.concatenate(need))
        self.node, self.mesh = node, us[node.T]
        step = max(1, _BLOCK_WEIGHTS // node.shape[1])
        self.blocks = [slice(lo, lo + step) for lo in range(0, self.pos.size, step)]
        kept = dim == 1
        self.points = list(self._points()) if kept else None
        self.products = [self._products(blk) for blk in self.blocks] if kept else None

    def point_blocks(self):
        """(flat slice, offsets 2^-t u) of each block of mesh points, the
        scale vectors t of the codes in order."""
        return self._points() if self.points is None else self.points

    def weight_blocks(self):
        """(row slice, per row the product over axes of its weight rows on
        the mesh) of each block of rows."""
        if self.products is None:
            return ((blk, self._products(blk)) for blk in self.blocks)
        return zip(self.blocks, self.products)

    def _points(self):
        size, dim = self.mesh.shape
        scales = 2.0 ** -np.array(np.unravel_index(self.codes, (self.span,) * dim)).T
        total = self.codes.size * size
        for lo in range(0, total, _BLOCK_POINTS):
            vec, node = np.divmod(np.arange(lo, min(lo + _BLOCK_POINTS, total)), size)
            yield slice(lo, lo + node.size), scales[vec] * self.mesh[node]

    def _products(self, blk: slice) -> np.ndarray:
        w = self.wtab[self.wid[0, blk, None], self.node[0]]
        for j in range(1, self.node.shape[0]):
            w = w * self.wtab[self.wid[j, blk, None], self.node[j]]
        return w


class _Smoothing:
    """Smoothings of f at x by kernel weight rows at dyadic scales.

    `tables` makes one pass over f's axis groups, which all have the
    same size (one axis each, or all axes), for every row of a `_Layout`
    of that group size: it evaluates each of f's factors once at x +
    2^-t u for every scale vector t any row needs (u the group mesh of
    the nodes), multiplies the values by each block's weight products
    and sums each row on its own, so a row's value does not depend on
    the other rows or families."""

    def __init__(self, f: TrueDensity, x: np.ndarray):
        self.weights, self.groups = _factors(f)
        self.x, self.dim = x, len(self.groups[0][0])

    def _values(self, lay: _Layout) -> np.ndarray:
        """f's factors (groups, components, scale vectors, mesh) at
        x + 2^-t u for the scale vectors t of the layout's codes."""
        codes, mesh = lay.codes, lay.mesh
        need = 8 * len(self.groups) * self.weights.size * codes.size * mesh.shape[0]
        if need > MAX_LATTICE_BYTES:
            raise InvalidParameterError(
                f"the smoothing pass holds f at {codes.size} scale vectors times "
                f"{mesh.shape[0]} mesh points, about {need / 2**30:.1f} GiB "
                f"(MAX_LATTICE_BYTES is {MAX_LATTICE_BYTES / 2**30:.1f} GiB); lower nodes")
        vals = np.empty((len(self.groups), self.weights.size, codes.size * mesh.shape[0]))
        for blk, offsets in lay.point_blocks():
            for g, (cols, fns) in enumerate(self.groups):
                pts = self.x[cols] + offsets
                for c, fn in enumerate(fns):
                    vals[g, c, blk] = fn(pts)
        return vals.reshape(vals.shape[:2] + (codes.size, -1))

    def tables(self, lay: _Layout) -> list:
        """Every family's per-group key tables, channels after the
        components, from one pass over f's groups."""
        vals = self._values(lay)
        sums = np.empty(vals.shape[:2] + lay.pos.shape)
        for blk, w in lay.weight_blocks():
            sums[..., blk] = (vals[:, :, lay.pos[blk]] * w).sum(axis=-1)
        return [[tab[:, lo:hi].reshape((self.weights.size,) + shape) for tab in sums]
                for lo, hi, shape in lay.parts]

    def means(self, us: np.ndarray, *families: _Rows) -> list:
        """Every family's smoothings on the nodes us, from one pass over
        f's groups."""
        return [self.read(tabs, fam.idx).reshape(fam.shape)
                for tabs, fam in zip(self.tables(_Layout(us, self.dim, families)), families)]

    def read(self, tabs: list, idx: list) -> np.ndarray:
        """sum_c weights[c] * prod over groups of tab[c, :][idx[j] for j
        in cols], channels first, the components added in order; idx[j]
        holds axis j's key positions, broadcasting together."""
        out = self.weights
        for tab, (cols, _) in zip(tabs, self.groups):
            term = tab[(slice(None),) * 2 + tuple(idx[j] for j in cols)]
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
    and x: the [-1, 1] nodes, the kernel, |kernel| and envelope rows
    (three channels of one family), the pair rows, and the one-axis
    layout of both families."""

    us: np.ndarray
    single: _Rows
    pairs: _Rows
    layout: _Layout


def _plan(setup: EstimationSetup, nodes: int) -> _Plan:
    """setup's plan at this node count, built on first use and kept in
    setup.oracle_plans."""
    nodes = _index(nodes, "nodes")
    plan = setup.oracle_plans.get(nodes)
    if plan is None:
        exp = setup.tables.exp
        us, wide = _wide_rows(setup.stack[1:], nodes)
        k_row = _node_weights(setup.kernel, nodes)[1]
        single = _single_rows(np.concatenate([k_row, np.abs(k_row), np.abs(wide[:1])]), exp,
                              (1, 1, 0))
        pairs = _pair_rows(wide[1:], exp, exp)
        plan = setup.oracle_plans[nodes] = _Plan(us, single, pairs,
                                                 _Layout(us, 1, (single, pairs)))
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


def _checked_point(f: TrueDensity, x, *parts) -> np.ndarray:
    """x as a finite point of f's dimension; every kernel, bandwidth and
    grid in parts must have that dimension too."""
    for part in parts:
        if part.dim != f.dim:
            raise InvalidParameterError(
                f"{type(part).__name__} has dim {part.dim}, the density {f.dim}")
    return _points(x, "x", f.dim, single=True)


def _at(f: TrueDensity, g, h: Bandwidth, x, nodes: int, absolute: bool = False) -> float:
    """int g_h(t - x) f(t) dt, |g_h| when absolute, on g's own nodes."""
    us, row = _node_weights(g, nodes)
    exps = np.asarray(h.exponents, dtype=np.int64)[None, :]
    rows = _single_rows(np.abs(row) if absolute else row, exps, (0,))
    return float(_Smoothing(f, x).means(us, rows)[0][0, 0])


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
    k_row = _node_weights(K, nodes)[1]
    means, pair_mean = _Smoothing(f, x).means(
        us, _single_rows(k_row, np.concatenate([h_exp, exp]), (1,)),
        _pair_rows(q_rows, h_exp, exp))
    return float(_bias_bar(means[0, :1] - f(x), pair_mean, means[0, 1:])[0])


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
        self.sm = _Smoothing(f, x)
        single, self.pairs = plan.single, plan.pairs
        layout = (plan.layout if self.sm.dim == 1
                  else _Layout(plan.us, self.sm.dim, (single, self.pairs)))
        tabs, self.pair_tabs = self.sm.tables(layout)
        singles = self.sm.read(tabs, single.idx).reshape(single.shape)
        self.mean_f, self.a_k, self.a_q = singles
        self.fx = f(x)
        self.bias = self.mean_f - self.fx
        self.m_k, self.m_q = _majorant(singles[1:], policy.kappa, n, setup.tables.volumes)

    def pair_mean(self, rows: slice) -> np.ndarray:
        """The pair means of the lattice rows `rows` (row h) against every
        lattice row (column eta)."""
        idx = [part[rows] for part in self.pairs.idx]
        return self.sm.read(self.pair_tabs, idx).reshape(idx[0].shape[0], -1)


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
