"""Ground-truth counterparts of every empirical quantity the selection
rule uses, plus the per-realization error-bound check built from them.

Given the true density, this module computes the estimator's bias, the
maximal (smoothed) bias over the lattice, the true error majorants,
and the two residuals that measure how far the empirical surrogates
drift from their means. Together these assemble a sure inequality:
for every realization, the selected estimate's pointwise error is
bounded by the best lattice bandwidth's bias/majorant budget plus
residual terms.

Product-form densities (and mixtures of them) factor every required
integral into one-dimensional quadratures, which is what makes the
verification batteries cheap at d = 2. Densities without product
structure fall back to tensor quadrature whose cost grows as
nodes**(2*dim) for the smoothed-bias terms; keep those to small grids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bandwidths import Bandwidth, BandwidthGrid
from .densities import TrueDensity
from .errors import InvalidParameterError
from .estimator import EstimationSetup, KappaPolicy, _PointRecord, _select_point
from .quadrature import DEFAULT_NODES, mesh_points, tensor_integral, trapezoid_rule


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


def _smooth_1d(pdf, center: float, scale: float, profile, half_width: float,
               nodes: int) -> float:
    """integral of profile(u) * pdf(center + scale*u) over the profile support."""
    us, wts = trapezoid_rule(-half_width, half_width, nodes)
    return float((wts * np.asarray(profile(us), dtype=float)) @ pdf(center + scale * us))


def bias(f: TrueDensity, K, h: Bandwidth, x, nodes: int = DEFAULT_NODES) -> float:
    """Mean of the single-bandwidth estimate minus the truth at x."""
    return _bias(f, K, h.values, x, nodes)


def _bias(f: TrueDensity, K, h_vals: np.ndarray, x, nodes: int) -> float:
    """bias at per-axis bandwidth values h_vals, on or off the lattice."""
    x = np.asarray(x, dtype=float)
    terms = _product_terms(f)
    if terms is not None:
        mean = 0.0
        for w, margs in terms:
            prod = w
            for j in range(f.dim):
                prod *= _smooth_1d(margs[j].pdf, x[j], h_vals[j], K.factor, 0.5, nodes)
            mean += prod
        return mean - f(x)

    box = np.stack([x - 0.5 * h_vals, x + 0.5 * h_vals], axis=1)

    def integrand(pts):
        return K((pts - x) / h_vals) * f(pts)

    return tensor_integral(integrand, box, nodes) / float(np.prod(h_vals)) - f(x)


def _smoothed_bias_product(terms, dim, K, x, a_exp, b_exp, nodes) -> float:
    """integral of K_eta(t-x) * bias_h(t) dt via nested 1-d quadratures."""
    total = 0.0
    for w, margs in terms:
        double = w
        single = w
        for j in range(dim):
            sa = 2.0 ** -float(a_exp[j])
            sb = 2.0 ** -float(b_exp[j])
            us, wu = trapezoid_rule(-0.5, 0.5, nodes)
            vs, wv = trapezoid_rule(-0.5, 0.5, nodes)
            kj = K.factor
            pts = x[j] + sb * vs[:, None] + sa * us[None, :]
            inner = (wv * kj(vs)) @ np.asarray(margs[j].pdf(pts.ravel()),
                                               dtype=float).reshape(pts.shape) @ (wu * kj(us))
            double *= inner
            single *= _smooth_1d(margs[j].pdf, x[j], sb, kj, 0.5, nodes)
        total += double - single
    return total


def bias_bar(f: TrueDensity, K, grid: BandwidthGrid, h: Bandwidth, x,
             nodes: int = DEFAULT_NODES) -> float:
    """Max of |bias| and the largest |lattice-smoothed bias| at x."""
    x = np.asarray(x, dtype=float)
    b0 = abs(bias(f, K, h, x, nodes))
    terms = _product_terms(f)
    best = b0
    for eta in grid:
        if terms is not None:
            val = _smoothed_bias_product(terms, f.dim, K, x, h.exponents, eta.exponents, nodes)
        else:
            val = _smoothed_bias_generic(f, K, x, h, eta, nodes)
        best = max(best, abs(val))
    return best


def _smoothed_bias_generic(f, K, x, h: Bandwidth, eta: Bandwidth, nodes: int) -> float:
    us = [trapezoid_rule(-0.5, 0.5, nodes) for _ in range(f.dim)]
    t_mesh = mesh_points([x[j] + eta.values[j] * us[j][0] for j in range(f.dim)])
    kw = None
    for j in range(f.dim):
        col = us[j][1] * K.factor(us[j][0])
        kw = col if kw is None else np.multiply.outer(kw, col)
    b_vals = np.array([bias(f, K, h, t, nodes) for t in t_mesh])
    return float(kw.ravel() @ b_vals)


def majorant_true(f: TrueDensity, g, h: Bandwidth, x, policy: KappaPolicy,
                  n: int, nodes: int = DEFAULT_NODES) -> float:
    """True (un-quadrupled) error majorant sqrt(kappa*A*ln n/(n*V)) + kappa*ln n/(n*V)."""
    if n < 2:
        raise InvalidParameterError(f"majorants need n >= 2, got {n}")
    x = np.asarray(x, dtype=float)
    hw = g.half_width
    terms = _product_terms(f)
    if terms is not None:
        a_true = 0.0
        for w, margs in terms:
            prod = w
            for j in range(f.dim):
                prod *= _smooth_1d(margs[j].pdf, x[j], h.values[j],
                                   lambda u: np.abs(g.factor(u)), hw, nodes)
            a_true += prod
    else:
        box = np.stack([x - hw * h.values, x + hw * h.values], axis=1)

        def integrand(pts):
            return np.abs(g((pts - x) / h.values)) * f(pts)

        a_true = tensor_integral(integrand, box, nodes) / h.volume
    lam = policy.kappa * float(np.log(n)) / (n * h.volume)
    return float(np.sqrt(max(a_true, 0.0) * lam) + lam)


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
        E = setup.grid.max_exponent
        terms = _product_terms(f)
        if terms is not None:
            mean_f, a_k, a_q, pair_mean, sm_bias = self._product(
                f, terms, x, setup, tables.exp, E, nodes)
        else:
            mean_f, a_k, a_q, pair_mean, sm_bias = self._generic(f, x, setup, nodes)
        fx = f(x)
        self.mean_f = mean_f
        self.bias = mean_f - fx
        self.pair_mean = pair_mean
        # smoothed bias of h by eta = (K_eta * K_h * f)(x) - (K_eta * f)(x)
        smoothed = sm_bias - mean_f[None, :]
        self.bias_bar = np.maximum(np.abs(self.bias), np.abs(smoothed).max(axis=1))
        lam = policy.kappa * float(np.log(n)) / (n * tables.volumes)
        self.m_k = np.sqrt(np.maximum(a_k, 0.0) * lam) + lam
        self.m_q = np.sqrt(np.maximum(a_q, 0.0) * lam) + lam
        self.a_k = a_k
        self.a_q = a_q

    def _product(self, f, terms, x, setup, exp, E, nodes):
        dim = exp.shape[1]
        C = len(terms)
        sk = np.zeros((C, dim, E + 1))
        sa = np.zeros((C, dim, E + 1))
        se = np.zeros((C, dim, E + 1))
        tq = np.zeros((C, dim, E + 1, E + 1))
        tt = np.zeros((C, dim, E + 1, E + 1))
        kj = setup.kernel.factor
        ej = setup.majorant.factor
        us, wu = trapezoid_rule(-0.5, 0.5, nodes)
        kus = np.asarray(kj(us), dtype=float)
        for c, (_, margs) in enumerate(terms):
            for j in range(dim):
                pdf = margs[j].pdf
                for a in range(E + 1):
                    s = 2.0**-a
                    sk[c, j, a] = _smooth_1d(pdf, x[j], s, kj, 0.5, nodes)
                    sa[c, j, a] = _smooth_1d(pdf, x[j], s,
                                             lambda u, kj=kj: np.abs(kj(u)), 0.5, nodes)
                    se[c, j, a] = _smooth_1d(pdf, x[j], s, ej, 1.0, nodes)
                for a in range(E + 1):
                    for b in range(a, E + 1):
                        q = setup.pair_tables[b - a]
                        tq[c, j, a, b] = tq[c, j, b, a] = _smooth_1d(
                            pdf, x[j], 2.0**-a, q, 1.0, nodes)
                        pts = x[j] + (2.0**-b) * us[:, None] + (2.0**-a) * us[None, :]
                        vals = np.asarray(pdf(pts.ravel()), dtype=float).reshape(pts.shape)
                        tt[c, j, a, b] = tt[c, j, b, a] = (wu * kus) @ vals @ (wu * kus)
        weights = np.array([w for w, _ in terms])
        idx = exp  # (H, dim) exponent indices

        def combine(tab3):  # (C, dim, E+1) -> (H,)
            prod = np.ones((C, idx.shape[0]))
            for j in range(dim):
                prod = prod * tab3[:, j, idx[:, j]]
            return weights @ prod

        mean_f = combine(sk)
        a_k = combine(sa)
        a_q = combine(se)
        H = idx.shape[0]
        pair_mean = np.empty((H, H))
        sm = np.empty((H, H))
        for i in range(H):
            for l in range(i, H):
                pm = weights.copy()
                for j in range(idx.shape[1]):
                    pm = pm * tq[:, j, idx[i, j], idx[l, j]]
                pair_mean[i, l] = pair_mean[l, i] = pm.sum()
        for i in range(H):
            for l in range(H):
                dm = weights.copy()
                for j in range(idx.shape[1]):
                    dm = dm * tt[:, j, idx[i, j], idx[l, j]]
                sm[i, l] = dm.sum()
        return mean_f, a_k, a_q, pair_mean, sm

    def _generic(self, f, x, setup, nodes):
        grid = setup.grid
        H = len(grid)
        mean_f = np.empty(H)
        a_k = np.empty(H)
        a_q = np.empty(H)
        bw = list(grid)
        for i, h in enumerate(bw):
            mean_f[i] = bias(f, setup.kernel, h, x, nodes) + f(x)
            a_k[i] = _a_true_generic(f, setup.kernel, h, x, nodes)
            a_q[i] = _a_true_generic(f, setup.majorant, h, x, nodes)
        pair_mean = np.empty((H, H))
        sm = np.empty((H, H))
        for i, h in enumerate(bw):
            for l, eta in enumerate(bw):
                if l >= i:
                    pair_mean[i, l] = _pair_mean_generic(f, setup, h, eta, x, nodes)
                    pair_mean[l, i] = pair_mean[i, l]
                sm[i, l] = _smoothed_bias_generic(f, setup.kernel, x, h, eta, nodes) \
                    + mean_f[l]
        return mean_f, a_k, a_q, pair_mean, sm

def _a_true_generic(f, g, h: Bandwidth, x, nodes: int) -> float:
    hw = g.half_width
    box = np.stack([x - hw * h.values, x + hw * h.values], axis=1)

    def integrand(pts):
        return np.abs(g((pts - x) / h.values)) * f(pts)

    return tensor_integral(integrand, box, nodes) / h.volume


def _pair_mean_generic(f, setup, h: Bandwidth, eta: Bandwidth, x, nodes: int) -> float:
    join_exp = np.minimum(h.exponents, eta.exponents)
    scale = 2.0 ** -join_exp.astype(float)
    box = np.stack([x - scale, x + scale], axis=1)
    qs = [setup.pair_tables[abs(h.exponents[j] - eta.exponents[j])]
          for j in range(f.dim)]

    def integrand(pts):
        u = (pts - x) / scale
        out = np.ones(pts.shape[0])
        for j, q in enumerate(qs):
            out = out * q(u[:, j])
        return out * f(pts)

    return tensor_integral(integrand, box, nodes) / float(np.prod(scale))


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
    m_q_sup = np.where(tables.geq, truth.m_q[None, :], -np.inf).max(axis=1)
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
    terms = _product_terms(f_family)
    if terms is None and f_family.dim > 1:
        raise InvalidParameterError(
            "bias_norm_scaling needs a product-form density beyond d = 1")

    axes = [np.linspace(lo - 0.5, hi + 0.5, grid_nodes) for lo, hi in f_family.box]
    f_grid = f_family.grid_values(axes)
    wts = [np.gradient(ax) for ax in axes]
    pinned = hs[0]

    norms = []
    for hj in hs:
        h_vals = np.full(f_family.dim, pinned)
        h_vals[j] = hj
        if terms is not None:
            b_grid = None
            for w, margs in terms:
                part = None
                for l in range(f_family.dim):
                    col = _smooth_axis(margs[l].pdf, axes[l], h_vals[l],
                                       K.factor, nodes)
                    part = col if part is None else np.multiply.outer(part, col)
                b_grid = w * part if b_grid is None else b_grid + w * part
            b_grid = b_grid - f_grid
        else:
            b_grid = np.array([
                _bias(f_family, K, h_vals, np.array([t]), nodes)
                for t in axes[0]
            ])
        norms.append(_grid_norm(np.abs(b_grid), wts, r_j))

    if min(norms) < 1e-14:
        return ScalingReport(slope=None, degenerate=True, axis=j, r=float(r_j),
                             h_values=tuple(hs), norms=tuple(norms))
    slope = float(np.polyfit(np.log(hs), np.log(norms), 1)[0])
    return ScalingReport(slope=slope, degenerate=False, axis=j, r=float(r_j),
                         h_values=tuple(hs), norms=tuple(norms))


def _smooth_axis(pdf, ax: np.ndarray, h: float, kj, nodes: int) -> np.ndarray:
    us, wu = trapezoid_rule(-0.5, 0.5, nodes)
    wk = wu * np.asarray(kj(us), dtype=float)
    pts = ax[:, None] + h * us[None, :]
    vals = np.asarray(pdf(pts.ravel()), dtype=float).reshape(pts.shape)
    return vals @ wk


def _grid_norm(abs_vals: np.ndarray, wts: list[np.ndarray], r: float) -> float:
    if r == np.inf:
        return float(abs_vals.max())
    powed = abs_vals**r
    for w in reversed(wts):
        powed = powed @ w if powed.ndim > 1 else float(powed @ w)
    return float(powed) ** (1.0 / r)
