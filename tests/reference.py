"""Scalar reference evaluators of the selector's empirical quantities.

Each function computes one quantity for one bandwidth (or bandwidth
pair) at one point, straight from its definition: a range query, the
kernel at the scaled offsets, and a sum. The package computes the same
quantities for the whole lattice at once (`estimator._select_point`);
the tests compare the two. `eval_double_smoothing` does the same for
the oracle's smoothed bias, by a route the package no longer takes.
"""

from __future__ import annotations

import numpy as np

from anisokde.bandwidths import Bandwidth
from anisokde.errors import InvalidParameterError
from anisokde.estimator import select_and_estimate
from anisokde.kernels import ProductKernel, convolve_ratio
from anisokde.quadrature import trapezoid_rule


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
