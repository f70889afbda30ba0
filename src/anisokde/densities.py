"""Synthetic densities for risk experiments and minimax-style stress tests.

Everything is built from one infinitely smooth compactly supported
profile: a normalized exponential bump on [-1, 1]. Its antiderivative
gives a smoothed step, products of smoothed steps give flat-top
densities, and a zero-mean wiggle derived from the same profile gives
binary-indexed perturbation families whose pairwise L_p distances are
known in closed form. A discretized strong maximal operator and its
tail quasi-norm classify how heavy a density's effective support is.

All tabulations are computed from closed forms, the shared bump tables
once per process on first use, so every object here is deterministic
across runs and platforms with the same numpy build.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Callable

import numpy as np

from .errors import (
    MAX_LATTICE_BYTES,
    ConstructionFailureError,
    EfficiencyError,
    InvalidParameterError,
    NumericError,
    VerificationError,
    _index,
    _points,
    _real,
)
from .estimator import Dataset, build_dataset
from .quadrature import GridSpec


def _raw_bump(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out


@cache
def _profile_tables() -> tuple[np.ndarray, float, np.ndarray]:
    """(grid, normalizer, cdf): 2**16 subintervals on [-1, 1], 1 / the
    bump's trapezoid integral on them and its normalized CDF at the
    nodes. Built on first use; only the bump-based densities read it."""
    grid = np.linspace(-1.0, 1.0, (1 << 16) + 1)
    vals = _raw_bump(grid)
    dx = grid[1] - grid[0]
    cdf = np.concatenate([[0.0], np.cumsum((vals[1:] + vals[:-1]) * (0.5 * dx))])
    total = cdf[-1]
    cdf /= total
    grid.setflags(write=False)
    cdf.setflags(write=False)
    return grid, 1.0 / total, cdf


def bump(t) -> np.ndarray:
    """Normalized smooth bump on [-1, 1]: all derivatives vanish at the edges."""
    return _profile_tables()[1] * _raw_bump(t)


def bump_cdf(t) -> np.ndarray:
    """Antiderivative of the bump, 0 left of -1 and 1 right of 1."""
    grid, _, cdf = _profile_tables()
    return np.interp(np.asarray(t, dtype=float), grid, cdf)


def g_profile(t) -> np.ndarray:
    """Odd zero-mean wiggle: the bump smeared over [0,1] minus over [-1,0].

    Supported on [-2, 2], bounded by 1 in absolute value, integral zero.
    """
    t = np.asarray(t, dtype=float)
    return bump_cdf(1.0 - t) - 2.0 * bump_cdf(-t) + bump_cdf(-1.0 - t)


@cache
def _profile_derivative_sups() -> tuple[float, float]:
    # sup|d/dt bump| and sup|d^2/dt^2 bump| from closed forms on the table grid
    t = _profile_tables()[0][1:-1]
    lam = bump(t)
    u = 1.0 - t * t
    d1 = lam * (-2.0 * t / u**2)
    d2 = lam * ((2.0 * t / u**2) ** 2 - 2.0 / u**2 - 8.0 * t * t / u**3)
    return float(np.max(np.abs(d1))), float(np.max(np.abs(d2)))


@dataclass(frozen=True, eq=False)
class Marginal1D:
    """One-dimensional factor of a product density, with an invertible CDF table."""

    pdf: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]
    cdf_x: np.ndarray
    cdf_f: np.ndarray
    icdf_f: np.ndarray = field(repr=False, default=None)
    icdf_x: np.ndarray = field(repr=False, default=None)

    def cdf(self, x) -> np.ndarray:
        return np.interp(np.asarray(x, dtype=float), self.cdf_x, self.cdf_f)

    def icdf(self, u) -> np.ndarray:
        return np.interp(np.asarray(u, dtype=float), self.icdf_f, self.icdf_x)


def _make_marginal(pdf, lo: float, hi: float, nodes: int = 8193,
                   cdf=None) -> Marginal1D:
    xs = np.linspace(lo, hi, nodes)
    if cdf is not None:
        F = np.asarray(cdf(xs), dtype=float)
    else:
        vals = np.asarray(pdf(xs), dtype=float)
        if np.any(vals < -1e-12):
            raise NumericError("marginal pdf negative on its support")
        dx = xs[1] - xs[0]
        F = np.concatenate([[0.0], np.cumsum((vals[1:] + vals[:-1]) * (0.5 * dx))])
    if F[-1] <= 0:
        raise NumericError("marginal has zero mass")
    F = F / F[-1]
    # invert on a strictly increasing subset; flat CDF stretches carry no mass
    Fu, first = np.unique(F, return_index=True)
    return Marginal1D(pdf=pdf, support=(lo, hi), cdf_x=xs, cdf_f=F,
                      icdf_f=Fu, icdf_x=xs[first])


@dataclass(frozen=True, eq=False)
class TrueDensity:
    """Evaluable density with a bounding box, sup bound, and sampling route.

    Exactly one sampling route applies: per-coordinate inverse CDF when
    `marginals` is set (product form), composition when `components`
    is set (finite mixture), otherwise rejection from the uniform
    envelope sup_bound * box.
    """

    label: str
    dim: int
    box: np.ndarray
    sup_bound: float
    pdf_fn: Callable[[np.ndarray], np.ndarray] = field(repr=False, default=None)
    marginals: tuple[Marginal1D, ...] | None = None
    components: tuple[tuple[float, "TrueDensity"], ...] | None = None
    smoothness: dict | None = None

    def __call__(self, x) -> np.ndarray:
        pts = _points(x, "x", self.dim, single=None)
        vals = self._eval(pts.reshape(-1, self.dim))
        return float(vals[0]) if pts.ndim == 1 else vals

    def _eval(self, pts: np.ndarray) -> np.ndarray:
        if self.components is not None:
            out = np.zeros(pts.shape[0])
            for w, comp in self.components:
                out += w * comp._eval(pts)
            return out
        if self.marginals is not None:
            out = np.ones(pts.shape[0])
            for j, marg in enumerate(self.marginals):
                out *= marg.pdf(pts[:, j])
            return out
        return np.asarray(self.pdf_fn(pts), dtype=float)

    def grid_values(self, axes: list[np.ndarray]) -> np.ndarray:
        """Density on a tensor grid, exploiting product / mixture structure.
        Each axis must be a 1-D array of finite reals."""
        if len(axes) != self.dim:
            raise InvalidParameterError(f"need {self.dim} axes")
        axes = [_points([ax], f"axes[{j}]")[0] for j, ax in enumerate(axes)]
        if self.components is not None:
            out = None
            for w, comp in self.components:
                term = w * comp.grid_values(axes)
                out = term if out is None else out + term
            return out
        if self.marginals is not None:
            out = np.asarray(self.marginals[0].pdf(axes[0]), dtype=float)
            for j in range(1, self.dim):
                out = np.multiply.outer(out, self.marginals[j].pdf(axes[j]))
            return out
        from .quadrature import mesh_points

        shape = [len(a) for a in axes]
        return np.asarray(self.pdf_fn(mesh_points(list(axes))), dtype=float).reshape(shape)


def _box(dim: int, lo: float, hi: float) -> np.ndarray:
    return np.tile(np.array([lo, hi], dtype=float), (dim, 1))


def _flat_top_marginal(N: float, kappa_scale: float) -> Marginal1D:
    half = (N / 2.0 + 1.0) / kappa_scale

    def pdf(x, N=N, k=kappa_scale):
        t = np.asarray(x, dtype=float) * k
        return (k / N) * (bump_cdf(N / 2.0 - t) - bump_cdf(-N / 2.0 - t))

    return _make_marginal(pdf, -half, half)


def flat_top_density(N: float, dim: int, kappa_scale: float) -> TrueDensity:
    """Product density with an exact plateau (kappa_scale/N)^dim in the middle.

    The plateau covers [-(N/2-1), N/2-1]^dim / kappa_scale and the
    support is the slightly larger box with +-1 smoothing collars,
    all divided by kappa_scale.
    """
    N, dim = _real(N, "N", above=8.0), _index(dim, "dim", 1)
    kappa_scale = _real(kappa_scale, "kappa_scale", above=0.0)
    label = f"flat_top(N={N}, kappa_scale={kappa_scale})"
    marg = _flat_top_marginal(N, kappa_scale)
    half = (N / 2.0 + 1.0) / kappa_scale
    return TrueDensity(
        label=label,
        dim=dim,
        box=_box(dim, -half, half),
        sup_bound=(kappa_scale / N) ** dim,
        marginals=(marg,) * dim,
    )


@dataclass(frozen=True, eq=False)
class PackingSet:
    """Binary vectors of length m, pairwise Hamming distance >= m/8;
    min_distance is the least pairwise distance, as verified."""

    m: int
    members: np.ndarray
    min_distance: int

    def __len__(self) -> int:
        return self.members.shape[0]


def _hamming(packed: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Hamming distances from one np.packbits row to each row of packed."""
    return np.bitwise_count(packed ^ row).sum(axis=-1)


def _verify_packing(m: int, packed: np.ndarray) -> int:
    """The least pairwise Hamming distance (m for a single member) of the
    np.packbits rows, each compared with the later ones, once the size
    and distance bounds are checked."""
    count = packed.shape[0]
    if count < 2 ** (m / 8.0) - 1e-9:
        raise VerificationError(f"packing has {count} members, needs >= 2^(m/8)")
    least = min((int(_hamming(packed[i + 1:], packed[i]).min()) for i in range(count - 1)),
                default=m)
    if least < m / 8.0:
        raise VerificationError(f"packing pair at Hamming distance {least} < m/8")
    return least


def vg_packing(m: int, rng: np.random.Generator) -> PackingSet:
    """Randomized greedy packing of {0,1}^m at Hamming distance m/8.

    Existence is guaranteed in theory; the greedy draw is a
    construction choice, verified exhaustively before return. Both
    compare members as packed bits, ceil(m/8) bytes each, so an m whose
    member pairs pass MAX_LATTICE_BYTES is refused before any draw.
    """
    m = _index(m, "m", 8)
    with np.errstate(over="ignore"):  # inf from m = 4096 on, and refused
        target = np.ceil(np.exp2(m / 8.0))
        need = target ** 2 * -(-m // 8)
    if need > MAX_LATTICE_BYTES:
        raise InvalidParameterError(
            f"a packing of {{0,1}}^{m} has {target:.0f} members, and checking it needs about "
            f"{need / 2**30:.3g} GiB (MAX_LATTICE_BYTES is {MAX_LATTICE_BYTES / 2**30:.1f} "
            f"GiB); lower m (fewer wiggles)")
    target = int(target)
    min_dist = m / 8.0
    budget = 200 * target
    packed = np.zeros((target, -(-m // 8)), dtype=np.uint8)
    count = draws = 0
    while count < target and draws < budget:
        row = np.packbits(rng.integers(0, 2, size=m, dtype=np.uint8))
        draws += 1
        if _hamming(packed[:count], row).min(initial=m) >= min_dist:
            packed[count] = row
            count += 1
    if count < target:
        raise ConstructionFailureError(
            f"packing stalled at {count}/{target} after {draws} draws; retry with a new seed"
        )
    return PackingSet(m=m, members=np.unpackbits(packed, axis=1, count=m),
                      min_distance=_verify_packing(m, packed))


@dataclass(frozen=True, eq=False)
class PerturbedDensity(TrueDensity):
    """Flat-top base plus a binary-indexed array of zero-mean wiggles."""

    base: TrueDensity = None
    amplitude: float = 0.0
    sigma: tuple[float, ...] = ()
    centers: tuple[np.ndarray, ...] = ()
    counts: tuple[int, ...] = ()
    w: np.ndarray = field(repr=False, default=None)

    def pi(self, m_index) -> int:
        """Flatten a 1-based per-axis bump index to the w position (C order)."""
        idx = tuple(_index(k, "m_index entry", 1) - 1 for k in m_index)
        if len(idx) != self.dim or any(i >= c for i, c in zip(idx, self.counts)):
            raise InvalidParameterError(f"index out of range for counts {self.counts}")
        return int(np.ravel_multi_index(idx, self.counts))

    def perturbation(self, x) -> np.ndarray:
        """The signed perturbation field alone (density minus base)."""
        x = _points(x, "x", self.dim, single=None)
        pts = x.reshape(-1, self.dim)
        gprod = np.full(pts.shape[0], self.amplitude)
        jidx = np.zeros((pts.shape[0], self.dim), dtype=np.int64)
        for l in range(self.dim):
            c = self.centers[l]
            step = 8.0 * self.sigma[l]
            j = np.rint((pts[:, l] - c[0]) / step).astype(np.int64)
            j = np.clip(j, 0, self.counts[l] - 1)
            dist = pts[:, l] - c[j]
            # the wiggle vanishes beyond 2*sigma, so a wrong clipped index is harmless
            gprod = gprod * g_profile(dist / self.sigma[l])
            jidx[:, l] = j
        flat = np.ravel_multi_index(jidx.T, self.counts)
        vals = gprod * self.w[flat]
        return float(vals[0]) if x.ndim == 1 else vals


def _wiggle_counts(N: float, sigma, kappa_scale: float, dim: int) -> tuple[int, ...]:
    """The wiggle counts N/(20*kappa_scale*sigma[l]), one per axis, each a
    positive integer with sigma[l] <= 1/(20*kappa_scale)."""
    if len(sigma) != dim:
        raise InvalidParameterError(f"sigma must have length {dim}, got {len(sigma)}")
    counts = []
    for l, s in enumerate(sigma):
        if s > 1.0 / (20.0 * kappa_scale) + 1e-15:
            raise InvalidParameterError(f"violated: sigma[{l}] <= 1/(20*kappa_scale) (got {s!r})")
        m_real = N / (20.0 * kappa_scale * s)
        m_int = round(m_real)
        if abs(m_real - m_int) > 1e-9 or m_int < 1:
            raise InvalidParameterError(
                f"violated: N/(20*kappa_scale*sigma[{l}]) must be a positive integer (got {m_real!r})"
            )
        counts.append(m_int)
    return tuple(counts)


def build_perturbed(N: float, sigma, A: float, w, dim: int,
                    kappa_scale: float = 1.0) -> PerturbedDensity:
    """Attach a w-indexed grid of wiggles to the flat-top plateau.

    Every feasibility inequality is checked by name; the result is a
    probability density whenever they all hold, which a verification
    grid re-confirms before return.
    """
    dim = _index(dim, "dim", 1)
    N = _real(N, "N", above=8.0)
    kappa_scale = _real(kappa_scale, "kappa_scale", above=0.0)
    sigma = tuple(_real(s, "sigma", above=0.0) for s in (sigma if np.ndim(sigma) else (sigma,)))
    A = _real(A, "A", above=0.0)
    label = f"perturbed(N={N}, A={A}, dim={dim})"
    counts = _wiggle_counts(N, sigma, kappa_scale, dim)
    plateau = (kappa_scale / N) ** dim
    if A > plateau + 1e-15:
        raise InvalidParameterError(
            f"violated: A <= plateau (kappa_scale/N)^dim = {plateau!r} (got A={A!r})"
        )
    try:
        w = np.asarray(w).ravel()
    except ValueError:
        raise InvalidParameterError("w must be a 0/1 vector, got ragged rows") from None
    total = int(np.prod(counts))
    if w.size != total:
        raise InvalidParameterError(f"w must have length prod(counts) = {total}, got {w.size}")
    # each entry as given, before it is stored as a float
    if w.dtype.kind not in "biuf":
        raise InvalidParameterError(f"w must be a 0/1 vector of numbers, got {w.dtype} entries")
    bad = w[(w != 0) & (w != 1)]
    if bad.size:
        raise InvalidParameterError(f"w must be a 0/1 vector, got the entry {bad[0]}")

    centers = []
    lo_plateau = -(N / 2.0 - 1.0) / kappa_scale
    hi_plateau = (N / 2.0 - 1.0) / kappa_scale
    for l, s in enumerate(sigma):
        c = -(N - 4.0) / (4.0 * kappa_scale) + 8.0 * s * np.arange(1, counts[l] + 1)
        if c[0] - 3.0 * s < lo_plateau or c[-1] + 3.0 * s > hi_plateau:
            raise InvalidParameterError(
                f"violated: perturbation boxes along axis {l} must sit inside the plateau"
            )
        centers.append(c)

    base = flat_top_density(N, dim, kappa_scale)
    half = (N / 2.0 + 1.0) / kappa_scale
    dens = PerturbedDensity(
        label=label,
        dim=dim,
        box=_box(dim, -half, half),
        sup_bound=plateau + A,
        pdf_fn=None,
        marginals=None,
        components=None,
        smoothness=None,
        base=base,
        amplitude=A,
        sigma=sigma,
        centers=tuple(centers),
        counts=counts,
        w=w.astype(float),
    )
    object.__setattr__(dens, "pdf_fn", lambda pts: base._eval(pts) + dens.perturbation(pts))
    _verify_perturbed(dens)
    return dens


def _verify_perturbed(dens: PerturbedDensity) -> None:
    # mass: base integrates to 1 (1-d quadrature per axis), each wiggle to 0
    marg = dens.base.marginals[0]
    xs = marg.cdf_x
    base_mass = float(np.trapezoid(marg.pdf(xs), xs)) ** dens.dim
    gs = np.linspace(-2.0, 2.0, 8193)
    g_mass = float(np.trapezoid(g_profile(gs), gs))
    pert_mass = dens.amplitude * float(dens.w.sum())
    for s in dens.sigma:
        pert_mass *= s * g_mass
    total = base_mass + pert_mass
    if abs(total - 1.0) > 1e-6:
        raise VerificationError(f"perturbed density mass {total} deviates from 1")
    # non-negativity on a structured probe set covering every wiggle box
    offsets = np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    axes = [
        np.unique(np.concatenate([
            np.linspace(dens.box[l, 0], dens.box[l, 1], 257),
            (dens.centers[l][:, None] + offsets[None, :] * dens.sigma[l]).ravel(),
        ]))
        for l in range(dens.dim)
    ]
    vals = dens.grid_values(axes)
    if float(vals.min()) < -1e-12:
        raise VerificationError(f"perturbed density negative: min {vals.min()}")


def build_f_theta(N: float, theta: float, dim: int) -> TrueDensity:
    """Two-scale flat-top mixture with a prescribed tail index.

    The plain flat-top (plateau N^-dim) holds 1 - p_N of the mass. The
    rest, p_N = N^(dim*(1-1/theta)), sits on a flat-top narrower by
    s = N^(1/theta-1) per axis and taller by s^dim, so both weighted
    plateaus are about N^-dim. theta = 1 collapses to the plain flat-top.
    """
    theta = _real(theta, "theta", above=0.0)
    if theta > 1:
        raise InvalidParameterError(f"theta must lie in (0, 1], got {theta!r}")
    N, dim = _real(N, "N", above=8.0), _index(dim, "dim", 1)
    label = f"f_theta(N={N}, theta={theta})"
    p_mass = N ** (dim * (1.0 - 1.0 / theta))
    if p_mass > 1.0 + 1e-12:
        raise InvalidParameterError(f"tail mass p_N = {p_mass} exceeds 1; increase N or theta")
    plain = flat_top_density(N, dim, 1.0)
    if theta == 1.0:
        return plain
    scale = N ** (1.0 / theta - 1.0)
    concentrated = flat_top_density(N, dim, scale)
    half = (N / 2.0 + 1.0) / min(1.0, scale)
    return TrueDensity(
        label=label,
        dim=dim,
        box=_box(dim, -half, half),
        sup_bound=(1.0 - p_mass) * plain.sup_bound + p_mass * concentrated.sup_bound,
        components=((1.0 - p_mass, plain), (p_mass, concentrated)),
    )


def _raised_cosine_marginal() -> Marginal1D:
    def pdf(x):
        t = np.asarray(x, dtype=float)
        out = np.zeros_like(t)
        inside = np.abs(t) <= 0.5
        ti = t[inside]
        out[inside] = 1.0 + np.cos(2.0 * np.pi * ti)
        return out

    def cdf(x):
        t = np.clip(np.asarray(x, dtype=float), -0.5, 0.5)
        return t + 0.5 + np.sin(2.0 * np.pi * t) / (2.0 * np.pi)

    return _make_marginal(pdf, -0.5, 0.5, cdf=cdf)


def _smoothed_uniform_marginal(delta: float) -> Marginal1D:
    def pdf(x, d=delta):
        t = np.asarray(x, dtype=float)
        return bump_cdf((t + 0.5) / d) - bump_cdf((t - 0.5) / d)

    return _make_marginal(pdf, -0.5 - delta, 0.5 + delta)


def _bump_mixture_marginal(centers, scales, weights) -> Marginal1D:
    def pdf(x, c=centers, s=scales, w=weights):
        t = np.asarray(x, dtype=float)
        out = np.zeros_like(t)
        for ci, si, wi in zip(c, s, w):
            out += wi * bump((t - ci) / si) / si
        return out

    lo = min(c - s for c, s in zip(centers, scales))
    hi = max(c + s for c, s in zip(centers, scales))
    return _make_marginal(pdf, lo, hi)


def smooth_product_density(kind: str, dim: int, params: dict | None = None) -> TrueDensity:
    """Catalog of smooth product densities with documented class membership.

    Membership metadata (per-axis orders beta, integrability r, sizes
    L, sup bound M) is recorded from the closed forms; the finite
    difference scaling checks in the test-suite spot-verify it.
    """
    dim = _index(dim, "dim", 1)
    params = dict(params or {})

    if kind == "raised_cosine":
        if params:
            raise InvalidParameterError(f"raised_cosine takes no parameters, got {sorted(params)}")
        marg = _raised_cosine_marginal()
        args = ""
        meta = {"beta": (2.0,) * dim, "r": (np.inf,) * dim,
                "L": (4.0 * np.pi**2,) * dim, "M": 2.0**dim}
        sup = 2.0**dim
    elif kind == "smoothed_uniform":
        delta = _real(params.pop("delta", 0.25), "delta", above=0.0)
        if params:
            raise InvalidParameterError(f"unknown smoothed_uniform parameters: {sorted(params)}")
        if delta > 0.5:
            raise InvalidParameterError(f"delta must lie in (0, 1/2], got {delta!r}")
        marg = _smoothed_uniform_marginal(delta)
        args = f", delta={delta!r}"
        meta = {"beta": (2.0,) * dim, "r": (np.inf,) * dim,
                "L": (2.0 * _profile_derivative_sups()[0] / delta**2,) * dim, "M": 1.0}
        sup = 1.0
    elif kind == "bump_mixture":
        centers = tuple(_real(c, "centers") for c in params.pop("centers", (-0.5, 0.5)))
        scales = tuple(_real(s, "scales", above=0.0) for s in params.pop("scales", (0.2, 0.2)))
        weights = tuple(_real(w, "weights", 0.0) for w in params.pop("weights", (0.5, 0.5)))
        if params:
            raise InvalidParameterError(f"unknown bump_mixture parameters: {sorted(params)}")
        if not (len(centers) == len(scales) == len(weights)) or not centers:
            raise InvalidParameterError("centers, scales, weights must have equal positive length")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise InvalidParameterError(f"weights must sum to 1, got {weights!r}")
        marg = _bump_mixture_marginal(centers, scales, weights)
        args = f", centers={centers!r}, scales={scales!r}, weights={weights!r}"
        m1 = sum(w * bump(0.0) / s for w, s in zip(weights, scales))
        d2_sup = _profile_derivative_sups()[1]
        L1 = sum(w * d2_sup / s**3 for w, s in zip(weights, scales))
        meta = {"beta": (2.0,) * dim, "r": (np.inf,) * dim, "L": (float(L1),) * dim,
                "M": float(m1) ** dim}
        sup = float(m1) ** dim
    else:
        raise InvalidParameterError(f"unknown density kind {kind!r}")

    lo, hi = marg.support
    return TrueDensity(
        label=f"{kind}(dim={dim}{args})",
        dim=dim,
        box=_box(dim, lo, hi),
        sup_bound=sup,
        marginals=(marg,) * dim,
        smoothness=meta,
    )


def sample(density: TrueDensity, n: int, rng: np.random.Generator) -> Dataset:
    """Draw n i.i.d. points; identical seeds give identical datasets.

    Product forms invert per-coordinate CDF tables, mixtures sample by
    composition, everything else uses rejection from the uniform
    envelope over the bounding box.
    """
    if not isinstance(rng, np.random.Generator):
        raise InvalidParameterError(f"rng must be a numpy.random.Generator, got {rng!r}")
    return build_dataset(_draw(density, _index(n, "n", 0), rng))


def _draw(density: TrueDensity, n: int, rng: np.random.Generator) -> np.ndarray:
    if n == 0:
        return np.zeros((0, density.dim))
    if density.components is not None:
        weights = np.array([w for w, _ in density.components])
        edges = np.cumsum(weights)
        comp = np.searchsorted(edges, rng.random(n) * edges[-1], side="right")
        comp = np.minimum(comp, len(density.components) - 1)
        out = np.empty((n, density.dim))
        for i, (_, sub) in enumerate(density.components):
            mask = comp == i
            out[mask] = _draw(sub, int(mask.sum()), rng)
        return out
    if density.marginals is not None:
        u = rng.random((n, density.dim))
        cols = [density.marginals[j].icdf(u[:, j]) for j in range(density.dim)]
        return np.stack(cols, axis=1)
    return _draw_rejection(density, n, rng)


def _draw_rejection(density: TrueDensity, n: int, rng: np.random.Generator) -> np.ndarray:
    box = density.box
    width = box[:, 1] - box[:, 0]
    bound = density.sup_bound
    batch = 8192
    kept: list[np.ndarray] = []
    count = 0
    proposals = 0
    while count < n:
        y = box[:, 0] + rng.random((batch, density.dim)) * width
        u = rng.random(batch)
        fv = density._eval(y)
        if np.any(fv > bound * (1.0 + 1e-9)):
            raise NumericError("density exceeds its declared sup bound; envelope invalid")
        acc = y[u * bound <= fv]
        kept.append(acc)
        count += acc.shape[0]
        proposals += batch
        if proposals >= 100_000 and count < max(1, proposals * 1e-4):
            raise EfficiencyError(
                f"rejection acceptance rate {count / proposals:.2e} below 1e-4"
            )
    return np.concatenate(kept, axis=0)[:n]


@dataclass(frozen=True, eq=False)
class MaximalField:
    """Discretized strong maximal function on a tensor grid.

    values[i...] is the largest window average of the density over the
    tested bandwidth combinations centered at that node, floored by
    the point value itself (the vanishing-window limit); a certified
    lower bound on the true maximal function.
    """

    grid: GridSpec
    values: np.ndarray
    h_levels: tuple[float, ...]


def _shift_interp(arr: np.ndarray, axis: int, offset_steps: float) -> np.ndarray:
    """Sample arr at fractional index + offset along axis, clamped at the edges."""
    n = arr.shape[axis]
    i0 = int(np.floor(offset_steps))
    frac = offset_steps - i0
    idx_lo = np.clip(np.arange(n) + i0, 0, n - 1)
    idx_hi = np.clip(np.arange(n) + i0 + 1, 0, n - 1)
    lo = np.take(arr, idx_lo, axis=axis)
    if frac == 0.0:
        return lo
    hi = np.take(arr, idx_hi, axis=axis)
    return (1.0 - frac) * lo + frac * hi


def strong_maximal(density: TrueDensity, grid: GridSpec,
                   h_levels) -> MaximalField:
    """Maximize centered window averages over a dyadic set of box shapes.

    Window integrals come from cumulative trapezoid prefix sums with
    corner values interpolated at x +- h/2, so each of the
    len(h_levels)^dim shapes costs one inclusion-exclusion sweep.
    """
    levels = tuple(sorted(_real(h, "h_levels", above=0.0) for h in h_levels))
    if not levels or levels[-1] > 2.0:
        raise InvalidParameterError("h_levels must lie in (0, 2]")
    if grid.dim != density.dim:
        raise InvalidParameterError("grid dimension must match the density")
    axes = grid.axes()
    vals = density.grid_values(axes)
    steps = [ax[1] - ax[0] for ax in axes]

    prefix = vals
    for j in range(grid.dim):
        moved = np.moveaxis(prefix, j, 0)
        pads = np.zeros((1,) + moved.shape[1:])
        csum = np.cumsum((moved[1:] + moved[:-1]) * (0.5 * steps[j]), axis=0)
        prefix = np.moveaxis(np.concatenate([pads, csum], axis=0), 0, j)

    def rect(arr: np.ndarray, j: int, h: tuple[float, ...]) -> np.ndarray:
        if j == len(h):
            return arr
        half = 0.5 * h[j] / steps[j]
        return rect(_shift_interp(arr, j, half), j + 1, h) - rect(
            _shift_interp(arr, j, -half), j + 1, h
        )

    best = vals.copy()
    from itertools import product as iproduct

    for combo in iproduct(levels, repeat=grid.dim):
        vol = float(np.prod(combo))
        np.maximum(best, rect(prefix, 0, combo) / vol, out=best)
    return MaximalField(grid=grid, values=best, h_levels=levels)


def tail_quasi_norm(field: MaximalField, theta: float) -> float:
    """(integral of field^theta)^(1/theta) over the field's grid."""
    theta = _real(theta, "theta", above=0.0)
    powed = np.maximum(field.values, 0.0) ** theta
    return float(field.grid.integrate_values(powed) ** (1.0 / theta))
