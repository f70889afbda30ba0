"""Scalar reference evaluators of the selector's empirical quantities.

Each function computes one quantity for one bandwidth (or bandwidth
pair) at one point, straight from its definition: a range query, the
kernel at the scaled offsets, and a sum. The package computes the same
quantities for the whole lattice at once (`estimator._select_point`);
the tests compare the two. `eval_double_smoothing` does the same for
the oracle's smoothed bias, by a route the package no longer takes.
`reference_true_tables` builds the oracle's true tables by one
quadrature per quantity, each evaluating f again on its own rows; the
package evaluates f once per smoothing scale and must give the same
bits on product-form densities. `g_lp_norm` is the wiggle profile's
L_p norm, which the hard-density identities are checked against.
"""

from __future__ import annotations

import numpy as np

from anisokde.bandwidths import Bandwidth
from anisokde.densities import g_profile
from anisokde.errors import InvalidParameterError, _index, _real
from anisokde.estimator import select_and_estimate
from anisokde.kernels import ProductKernel, convolve_ratio
from anisokde.quadrature import mesh_points, trapezoid_rule


def _point(x, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise InvalidParameterError(f"evaluation point must have shape ({dim},)")
    return x


def eval_pair_kernel(K: ProductKernel, h: Bandwidth, eta: Bandwidth, t) -> float | np.ndarray:
    """Evaluate the two-bandwidth convolution kernel at offset(s) t.

    This is the kernel whose empirical mean over the offsets X_i - x
    gives the smoothed-pair estimate. It factorizes across axes as a
    volume-scaled product of q_r lookups, r the per-axis ratio of the
    two bandwidths. A single point (shape (dim,)) yields a float; a
    batch (m, dim) yields an (m,) array.
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
        q = convolve_ratio(K.factor, r)
        out = out * q(pts[:, j] / scale[j])
    return float(out[0]) if single else out


def eval_fhat(data, K: ProductKernel, h: Bandwidth, x) -> float:
    """Single-bandwidth kernel estimate at x."""
    x = _point(x, K.dim)
    vals = h.values
    half = vals * K.half_width
    idx = data.box_indices(x - half, x + half)
    if idx.size == 0:
        return 0.0
    kv = K((data.points[idx] - x) / vals)
    return float(kv.sum() / (data.n * h.volume))


def eval_fhat_pair(data, K: ProductKernel, h: Bandwidth, eta: Bandwidth, x) -> float:
    """Two-bandwidth estimate at x, symmetric in the bandwidth pair."""
    x = _point(x, K.dim)
    join_exp = np.minimum(h.exponents, eta.exponents)
    scale = 2.0 ** -join_exp.astype(float)
    idx = data.box_indices(x - scale, x + scale)
    if idx.size == 0:
        return 0.0
    offs = data.points[idx] - x
    vals = np.ones(idx.size)
    for j in range(K.dim):
        r = 2.0 ** -abs(h.exponents[j] - eta.exponents[j])
        vals = vals * convolve_ratio(K.factor, r)(offs[:, j] / scale[j])
    inv_vol = 2.0 ** float(join_exp.sum())
    return float(vals.sum() * inv_vol / data.n)


def eval_A_hat(data, g: ProductKernel, h: Bandwidth, x) -> float:
    """Empirical absolute-kernel average at x for g the kernel or envelope."""
    x = _point(x, g.dim)
    vals = h.values
    half = vals * g.half_width
    idx = data.box_indices(x - half, x + half)
    if idx.size == 0:
        return 0.0
    gv = g((data.points[idx] - x) / vals)
    return float(np.abs(gv).sum() / (data.n * h.volume))


def eval_M_hat(data, g: ProductKernel, h: Bandwidth, x, policy, n: int | None = None) -> float:
    """Empirical error majorant 4 sqrt(A lam) + 4 lam at x, with
    lam = kappa ln n / (n V_h); n defaults to the dataset size."""
    n = data.n if n is None else int(n)
    if n < 2:
        raise InvalidParameterError(f"majorants need n >= 2, got {n}")
    a_hat = eval_A_hat(data, g, h, x)
    lam = policy.kappa * float(np.log(n)) / (n * h.volume)
    return 4.0 * np.sqrt(a_hat * lam) + 4.0 * lam


def eval_criterion(data, x, h: Bandwidth, policy, setup) -> float:
    """Selection criterion of one bandwidth at one point, as the public
    selector reports it."""
    if h not in setup.grid:
        raise InvalidParameterError(f"bandwidth {h.exponents} not on the setup grid")
    fit = select_and_estimate(data, x, policy, setup, keep_criterion=True)
    return fit.criterion[h.exponents]


def eval_double_smoothing(f, K: ProductKernel, h: Bandwidth, eta: Bandwidth, x,
                          nodes: int = 513) -> float:
    """(K_eta * K_h * f)(x) for a product-form density f, by nested
    quadrature: per axis the trapezoid sum over nodes**2 points (u, v) of
    k(u) k(v) f_j(x_j - h_j u - eta_j v), multiplied over the axes."""
    if f.marginals is None:
        raise InvalidParameterError("the double smoothing needs a product-form density")
    x = _point(x, f.dim)
    us, wts = trapezoid_rule(-K.half_width, K.half_width, nodes)
    w = wts * K.factor(us)
    out = 1.0
    for j, marg in enumerate(f.marginals):
        t = x[j] - h.values[j] * us[:, None] - eta.values[j] * us[None, :]
        out *= float(w @ marg.pdf(t) @ w)
    return out


def g_lp_norm(p: float, nodes: int = (1 << 15) + 1) -> float:
    """L_p norm of the wiggle profile by high-resolution trapezoid; p and
    nodes are refused by the package's own scalar rules."""
    p = _real(p, "p", 1.0)
    xs = np.linspace(-2.0, 2.0, _index(nodes, "nodes", 2))
    vals = np.abs(g_profile(xs)) ** p
    return float(np.trapezoid(vals, xs) ** (1.0 / p))


def _ref_factors(f):
    """(weights, groups) of f: one group per axis for a product-form
    density or a mixture of them, else one group of all axes."""
    def terms(g):
        if g.marginals is not None:
            return [(1.0, g.marginals)]
        if g.components is None:
            return None
        out = []
        for w, comp in g.components:
            sub = terms(comp)
            if sub is None:
                return None
            out.extend((w * wi, m) for wi, m in sub)
        return out

    found = terms(f)
    if found is None:
        return np.ones(1), [(list(range(f.dim)), (f,))]
    groups = [([j], tuple(lambda p, pdf=margs[j].pdf: pdf(p[:, 0]) for _, margs in found))
              for j in range(f.dim)]
    return np.array([w for w, _ in found]), groups


def _ref_quadrature(fns, centres, scales, wtab, us, widx=None):
    """Per fn and row r, the tensor-mesh sum of prod_j wtab[widx[r, j]]
    times fn(centres[r] + scales[r] * u), rows in blocks of 4096 points."""
    rows, dim = scales.shape
    mesh = mesh_points([us] * dim)
    node = np.indices((us.size,) * dim).reshape(dim, -1)
    out = np.empty((len(fns), rows))
    step = max(1, 2**12 // mesh.shape[0])
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


def _ref_combine(weights, tabs, idx):
    out = weights
    for tab, ix in zip(tabs, idx):
        term = tab[(slice(None),) + ix]
        out = out.reshape(out.shape + (1,) * (term.ndim - out.ndim)) * term
    return out.sum(axis=0)


def _ref_single(f, x, g, hs, nodes, absolute=False):
    """int g_h(t - x) f(t) dt (|g_h| when absolute) for every row h of hs."""
    weights, groups = _ref_factors(f)
    us, wts = trapezoid_rule(-g.half_width, g.half_width, nodes)
    vals = np.asarray(g.factor(us), dtype=float)
    wtab = (wts * (np.abs(vals) if absolute else vals))[None, :]
    tabs, idx = [], []
    for cols, fns in groups:
        scales, inv = np.unique(hs[:, cols], axis=0, return_inverse=True)
        tabs.append(_ref_quadrature(fns, np.broadcast_to(x[cols], scales.shape), scales,
                                    wtab, us))
        idx.append((inv.reshape(-1),))
    return _ref_combine(weights, tabs, idx)


def _ref_pair_means(f, x, pair_tables, exp_h, exp_eta, nodes):
    """Pair-estimate mean of every (row of exp_h, row of exp_eta): per
    axis q_r, r = 2^-|a - b|, at the join scale 2^-min(a, b)."""
    weights, groups = _ref_factors(f)
    us, wts = trapezoid_rule(-1.0, 1.0, nodes)
    wtab = np.stack([wts * np.asarray(q(us), dtype=float) for q in pair_tables])
    tabs, idx = [], []
    for cols, fns in groups:
        a, ia = np.unique(exp_h[:, cols], axis=0, return_inverse=True)
        b, ib = np.unique(exp_eta[:, cols], axis=0, return_inverse=True)
        join = np.minimum(a[:, None, :], b[None, :, :]).reshape(-1, len(cols))
        ratio = np.abs(a[:, None, :] - b[None, :, :]).reshape(-1, len(cols))
        scales = 2.0 ** -join.astype(float)
        vals = _ref_quadrature(fns, np.broadcast_to(x[cols], scales.shape), scales,
                               wtab, us, ratio)
        tabs.append(vals.reshape(len(fns), a.shape[0], b.shape[0]))
        idx.append((ia.reshape(-1)[:, None], ib.reshape(-1)[None, :]))
    return _ref_combine(weights, tabs, idx)


def reference_true_tables(f, x, policy, setup, n: int, nodes: int) -> dict:
    """The seven lattice-shaped true tables at x, one quadrature per
    quantity: mean_f, a_k, a_q, pair_mean, bias_bar, m_k and m_q."""
    x = _point(x, f.dim)
    exp = setup.tables.exp
    hs = 2.0 ** -exp.astype(float)
    lam = policy.kappa * float(np.log(n)) / (n * setup.tables.volumes)
    out = {
        "mean_f": _ref_single(f, x, setup.kernel, hs, nodes),
        "a_k": _ref_single(f, x, setup.kernel, hs, nodes, absolute=True),
        "a_q": _ref_single(f, x, setup.majorant, hs, nodes, absolute=True),
        "pair_mean": _ref_pair_means(f, x, setup.pair_tables, exp, exp, nodes),
    }
    bias = out["mean_f"] - f(x)
    out["bias_bar"] = np.maximum(
        np.abs(bias), np.abs(out["pair_mean"] - out["mean_f"][None, :]).max(axis=1))
    for name, a in (("m_k", out["a_k"]), ("m_q", out["a_q"])):
        out[name] = np.sqrt(np.maximum(a, 0.0) * lam) + lam
    return out
