"""Ground-truth counterparts of every empirical quantity the selection
rule uses, plus the per-realization error-bound check built from them.

Given the true density, this module computes the estimator's bias, the
maximal (smoothed) bias over the lattice, the true error majorants,
and the two residuals that measure how far the empirical surrogates
drift from their means. Together these assemble a sure inequality:
for every realization, the selected estimate's pointwise error is
bounded by the best lattice bandwidth's bias/majorant budget plus
residual terms.

Every true quantity is a smoothing of f at x: the mean of a single
estimate (by K_h), the true kernel and envelope averages (by |K_h| and
the envelope) and the mean of a pair estimate (by q_r at the join
bandwidth). On each axis K_h * K_eta is q_r at the join bandwidth, so
the pair means are also the double smoothings (K_eta * K_h * f)(x)
behind the smoothed bias. Each quantity has one implementation. It
tabulates the smoothing per axis group, one trapezoid sum per distinct
(scale, weight) row in `_quadrature`, and one fancy-indexed product
over (component, group) in `_combine` reads every lattice row or row
pair from those tables. A product-form density (or a mixture of them)
has one group per axis, so its tables are 1-d quadratures at the
E+1 scales of each axis. Any other density is one group of all its
axes: the same code then runs a tensor quadrature of nodes**dim
points per bandwidth and per bandwidth pair, so keep those to small
grids. `bias`, `bias_bar` and `majorant_true` evaluate the same tables
at the bandwidths they are given, so each equals its `_TrueTables`
entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bandwidths import Bandwidth, BandwidthGrid
from .densities import TrueDensity
from .errors import InvalidParameterError
from .estimator import (
    EstimationSetup,
    KappaPolicy,
    _check_point,
    _coarser_sup,
    _PointRecord,
    _select_point,
)
from .kernels import convolve_ratio
from .quadrature import DEFAULT_NODES, mesh_points, trapezoid_rule

# Most quadrature points `_quadrature` evaluates at once.
_BLOCK_POINTS = 2**12


def _product_terms(f: TrueDensity):
    """Decompose f into weighted product components, or None."""
    if f.marginals is not None:
        return [(1.0, f.marginals)]
    if f.components is not None:
        out = []
        for w, comp in f.components:
            sub = _product_terms(comp)
            if sub is None:
                return None
            out.extend((w * wi, m) for wi, m in sub)
        return out
    return None


def _factors(f: TrueDensity):
    """(weights, groups): f(t) = sum_c weights[c] * prod over the groups
    (cols, fns) of fns[c](t[:, cols]), each fn taking an (m, len(cols))
    array. Product-form densities and mixtures of them have one group per
    axis; any other density is one group of all its axes."""
    terms = _product_terms(f)
    if terms is None:
        return np.ones(1), [(list(range(f.dim)), (f,))]
    groups = [([j], tuple(lambda p, pdf=margs[j].pdf: pdf(p[:, 0]) for _, margs in terms))
              for j in range(f.dim)]
    return np.array([w for w, _ in terms]), groups


def _node_weights(g, nodes: int, absolute: bool = False):
    """Trapezoid nodes on the per-axis support of kernel g and the node
    weights times g's factor (|factor| when absolute), as one table row."""
    us, wts = trapezoid_rule(-g.half_width, g.half_width, nodes)
    vals = np.asarray(g.factor(us), dtype=float)
    return us, (wts * (np.abs(vals) if absolute else vals))[None, :]


def _quadrature(fns, centres, scales, wtab, us, widx=None) -> np.ndarray:
    """The one smoothing quadrature: for each fn and row r, the sum over
    the tensor mesh u of the nodes us of prod_j wtab[widx[r, j], u_j] *
    fn(centres[r] + scales[r] * u). widx defaults to table row 0 on every
    axis of every row. Rows go in blocks of at most _BLOCK_POINTS points, and each row
    is summed on its own, so a row's value does not depend on its block."""
    rows, dim = scales.shape
    mesh = mesh_points([us] * dim)
    node = np.indices((us.size,) * dim).reshape(dim, -1)
    out = np.empty((len(fns), rows))
    step = max(1, _BLOCK_POINTS // mesh.shape[0])
    for lo in range(0, rows, step):
        blk = slice(lo, lo + step)
        wi = np.zeros((1, dim), dtype=np.int64) if widx is None else widx[blk]
        w = wtab[wi[:, 0]][:, node[0]]
        for j in range(1, dim):
            w = w * wtab[wi[:, j]][:, node[j]]
        pts = (centres[blk, None, :] + scales[blk, None, :] * mesh).reshape(-1, dim)
        for c, fn in enumerate(fns):
            vals = np.asarray(fn(pts), dtype=float).reshape(-1, mesh.shape[0])
            out[c, blk] = (vals * w).sum(axis=1)
    return out


def _combine(weights: np.ndarray, tabs, idx) -> np.ndarray:
    """sum_c weights[c] * prod_g tabs[g][c][idx[g]]: the per-group tables
    contracted over (component, group), groups multiplied in order, with
    idx[g] a tuple of index arrays that broadcast to the output shape."""
    out = weights
    for tab, ix in zip(tabs, idx):
        term = tab[(slice(None),) + ix]
        out = out.reshape(out.shape + (1,) * (term.ndim - out.ndim)) * term
    return out.sum(axis=0)


def _single(f: TrueDensity, x, g, hs: np.ndarray, nodes: int,
            absolute: bool = False) -> np.ndarray:
    """int g_h(t - x) f(t) dt, |g_h| when absolute, for every row h of the
    bandwidth values hs: single-estimate means and true kernel averages."""
    weights, groups = _factors(f)
    us, wtab = _node_weights(g, nodes, absolute)
    tabs, idx = [], []
    for cols, fns in groups:
        scales, inv = np.unique(hs[:, cols], axis=0, return_inverse=True)
        tabs.append(_quadrature(fns, np.broadcast_to(x[cols], scales.shape), scales,
                                wtab, us))
        idx.append((inv.reshape(-1),))
    return _combine(weights, tabs, idx)


def _pair_means(f: TrueDensity, x, pair_tables, exp_h: np.ndarray, exp_eta: np.ndarray,
                nodes: int) -> np.ndarray:
    """Mean of the pair estimate of every pair (h, eta) of rows of the
    exponent matrices exp_h and exp_eta: on each axis q_r, r = 2^-|a - b|
    (pair_tables[k] for r = 2^-k), smoothing f at the join scale
    2^-min(a, b). Per axis K_h * K_eta is q_r at the join bandwidth, so
    this is also the double smoothing (K_eta * K_h * f)(x)."""
    weights, groups = _factors(f)
    us, wts = trapezoid_rule(-1.0, 1.0, nodes)
    wtab = np.stack([wts * np.asarray(q(us), dtype=float) for q in pair_tables])
    tabs, idx = [], []
    for cols, fns in groups:
        a, ia = np.unique(exp_h[:, cols], axis=0, return_inverse=True)
        b, ib = np.unique(exp_eta[:, cols], axis=0, return_inverse=True)
        join = np.minimum(a[:, None, :], b[None, :, :]).reshape(-1, len(cols))
        ratio = np.abs(a[:, None, :] - b[None, :, :]).reshape(-1, len(cols))
        scales = 2.0 ** -join.astype(float)
        vals = _quadrature(fns, np.broadcast_to(x[cols], scales.shape), scales,
                           wtab, us, ratio)
        tabs.append(vals.reshape(len(fns), a.shape[0], b.shape[0]))
        idx.append((ia.reshape(-1)[:, None], ib.reshape(-1)[None, :]))
    return _combine(weights, tabs, idx)


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
    return _check_point(x, f.dim)


def bias(f: TrueDensity, K, h: Bandwidth, x, nodes: int = DEFAULT_NODES) -> float:
    """Mean of the single-bandwidth estimate minus the truth at x."""
    x = _checked_point(f, x, K, h)
    return float(_single(f, x, K, h.values[None, :], nodes)[0] - f(x))


def bias_bar(f: TrueDensity, K, grid: BandwidthGrid, h: Bandwidth, x,
             nodes: int = DEFAULT_NODES) -> float:
    """Max of |bias| and the largest |lattice-smoothed bias| at x.

    The smoothings K_eta * K_h * f are the pair means, read from q_r
    tables of K's profile for every exponent difference the (h, eta)
    pairs need, so h may lie off the grid."""
    x = _checked_point(f, x, K, grid, h)
    if K.half_width != 0.5:
        raise InvalidParameterError(
            f"bias_bar needs the kernel K, supported on [-1/2, 1/2] per axis; "
            f"got half-width {K.half_width}")
    exp = grid.exponent_matrix()
    h_exp = np.asarray(h.exponents, dtype=np.int64)[None, :]
    pair_tables = [convolve_ratio(K.factor, 2.0 ** -k)
                   for k in range(int(np.abs(exp - h_exp).max()) + 1)]
    b = _single(f, x, K, h.values[None, :], nodes) - f(x)
    return float(_bias_bar(b, _pair_means(f, x, pair_tables, h_exp, exp, nodes),
                           _single(f, x, K, 2.0 ** -exp.astype(float), nodes))[0])


def majorant_true(f: TrueDensity, g, h: Bandwidth, x, policy: KappaPolicy,
                  n: int, nodes: int = DEFAULT_NODES) -> float:
    """True (un-quadrupled) error majorant sqrt(kappa*A*ln n/(n*V)) + kappa*ln n/(n*V)."""
    if n < 2:
        raise InvalidParameterError(f"majorants need n >= 2, got {n}")
    x = _checked_point(f, x, g, h)
    a_true = _single(f, x, g, h.values[None, :], nodes, absolute=True)[0]
    return float(_majorant(a_true, policy.kappa, n, h.volume))


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
    """Lattice-shaped true means and majorants at one point."""

    def __init__(self, f: TrueDensity, x: np.ndarray, policy: KappaPolicy,
                 setup: EstimationSetup, n: int, nodes: int):
        tables = setup.tables
        hs = 2.0 ** -tables.exp.astype(float)
        self.mean_f = _single(f, x, setup.kernel, hs, nodes)
        self.bias = self.mean_f - f(x)
        self.pair_mean = _pair_means(f, x, setup.pair_tables, tables.exp, tables.exp,
                                     nodes)
        self.bias_bar = _bias_bar(self.bias, self.pair_mean, self.mean_f)
        self.a_k = _single(f, x, setup.kernel, hs, nodes, absolute=True)
        self.a_q = _single(f, x, setup.majorant, hs, nodes, absolute=True)
        self.m_k = _majorant(self.a_k, policy.kappa, n, tables.volumes)
        self.m_q = _majorant(self.a_q, policy.kappa, n, tables.volumes)


def _oracle_terms(data, f, x, policy, setup, nodes) -> tuple[OracleTerms, _PointRecord, int]:
    """The bound's terms, the selector's record they were built from, and
    the lattice row that minimizes the bound."""
    rec = _select_point(data, x, policy, setup)
    tables = setup.tables
    truth = _TrueTables(f, rec.x, policy, setup, data.n, nodes)

    xi_single = np.abs(rec.fhat - truth.mean_f) - truth.m_k
    xi_pair = np.abs(rec.pair - truth.pair_mean) - truth.m_q[tables.join_index]
    zeta = max(float(np.max(xi_single)), float(np.max(xi_pair)), 0.0)
    chi = max(
        float(np.max(np.abs(rec.a_k - truth.a_k) - truth.m_k)),
        float(np.max(np.abs(rec.a_q - truth.a_q) - truth.m_q)),
        0.0,
    )
    m_q_sup = _coarser_sup(truth.m_q, tables)
    per_h = 4.0 * truth.bias_bar + 60.0 * m_q_sup + 61.0 * truth.m_k
    best = int(np.argmin(per_h))
    terms = OracleTerms(
        x=rec.x.copy(),
        exponents=tables.exp.copy(),
        bias=truth.bias,
        bias_bar=truth.bias_bar,
        m_k=truth.m_k,
        m_q_sup=m_q_sup,
        zeta=zeta,
        chi=chi,
        bound=float(per_h[best] + 7.0 * zeta + 18.0 * chi),
        argmin=tuple(int(k) for k in tables.exp[best]),
    )
    return terms, rec, best


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
    terms, rec, best = _oracle_terms(data, f, x, policy, setup, nodes)
    lhs = abs(rec.estimate - f(rec.x))
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
    if a_hat < 0 or a_true < 0:
        raise InvalidParameterError("kernel averages must be non-negative")
    if not v_h > 0 or n < 2:
        raise InvalidParameterError("need v_h > 0 and n >= 2")
    lam = policy.kappa * float(np.log(n)) / (n * v_h)
    m_check = float(np.sqrt(a_hat * lam) + lam)
    m_true = float(np.sqrt(a_true * lam) + lam)
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
    hs = sorted(float(v) for v in h_schedule)
    if len(hs) < 3:
        raise InvalidParameterError("h_schedule needs at least 3 values")
    if not 0 <= j < f_family.dim:
        raise InvalidParameterError(f"axis {j} out of range for dim {f_family.dim}")
    if not (r_j == np.inf or r_j >= 1):
        raise InvalidParameterError(f"r must be >= 1 or inf, got {r_j!r}")
    weights, groups = _factors(f_family)
    if len(groups) < f_family.dim:
        raise InvalidParameterError(
            "bias_norm_scaling needs a product-form density beyond d = 1")

    axes = [np.linspace(lo - 0.5, hi + 0.5, grid_nodes) for lo, hi in f_family.box]
    f_grid = f_family.grid_values(axes)
    wts = [np.gradient(ax) for ax in axes]
    pinned = hs[0]
    us, wtab = _node_weights(K, nodes)
    # axis l's table is read along axis l of the grid
    idx = [(np.arange(ax.size).reshape([-1 if m == l else 1 for m in range(len(axes))]),)
           for l, ax in enumerate(axes)]

    norms = []
    for hj in hs:
        h_vals = np.full(f_family.dim, pinned)
        h_vals[j] = hj
        tabs = [_quadrature(fns, ax[:, None], np.full((ax.size, 1), h_vals[l]), wtab, us)
                for l, (ax, (_, fns)) in enumerate(zip(axes, groups))]
        b_grid = _combine(weights, tabs, idx) - f_grid
        norms.append(_grid_norm(np.abs(b_grid), wts, r_j))

    if min(norms) < 1e-14:
        return ScalingReport(slope=None, degenerate=True, axis=j, r=float(r_j),
                             h_values=tuple(hs), norms=tuple(norms))
    slope = float(np.polyfit(np.log(hs), np.log(norms), 1)[0])
    return ScalingReport(slope=slope, degenerate=False, axis=j, r=float(r_j),
                         h_values=tuple(hs), norms=tuple(norms))


def _grid_norm(abs_vals: np.ndarray, wts: list[np.ndarray], r: float) -> float:
    if r == np.inf:
        return float(abs_vals.max())
    powed = abs_vals**r
    for w in reversed(wts):
        powed = powed @ w if powed.ndim > 1 else float(powed @ w)
    return float(powed) ** (1.0 / r)
