"""Smoothness-class bookkeeping and the risk-rate map.

A class is described by per-axis smoothness orders, per-axis
integrability indices, per-axis sizes, and a sup-norm bound. Three
aggregates drive everything: the harmonic smoothness beta, the
effective index s, and the size product L_beta. The achievable rate
n^(-nu) changes branch as the norm index p crosses two thresholds,
with logarithmic corrections on the boundaries; a tail-dominance
index theta <= 1 widens the first branch. The embedding report maps a
class with small integrability indices into one with indices at least
p, which is what the sparse-zone analysis consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidParameterError, _real

INF = float("inf")

ZONES = (
    "tail",
    "dense",
    "sparse_s_lt1",
    "sparse_s_ge1",
    "boundary_lower",
    "boundary_upper",
)

_REL_TOL = 1e-12


@dataclass(frozen=True)
class ClassSpec:
    """Per-axis smoothness description: orders, integrabilities, sizes, sup bound."""

    beta: tuple[float, ...]
    r: tuple[float, ...]
    L: tuple[float, ...]
    M: float

    def __post_init__(self):
        # r may be infinite (no integrability constraint on that axis)
        object.__setattr__(self, "beta", tuple(_real(b, "beta", above=0.0) for b in self.beta))
        object.__setattr__(self, "r", tuple(_real(v, "r", 1.0, finite=False) for v in self.r))
        object.__setattr__(self, "L", tuple(_real(v, "L", above=0.0) for v in self.L))
        object.__setattr__(self, "M", _real(self.M, "M", above=0.0))
        if not self.beta or not (len(self.beta) == len(self.r) == len(self.L)):
            raise InvalidParameterError("beta, r, L must have equal positive length")

    @property
    def dim(self) -> int:
        return len(self.beta)


@dataclass(frozen=True)
class TailSpec:
    """Tail-dominance parameters: quasi-norm index and radius."""

    theta: float
    R: float

    def __post_init__(self):
        object.__setattr__(self, "theta", _real(self.theta, "theta", above=0.0))
        object.__setattr__(self, "R", _real(self.R, "R", above=0.0))
        if self.theta > 1:
            raise InvalidParameterError(f"theta must lie in (0, 1], got {self.theta!r}")


@dataclass(frozen=True)
class RegimeReport:
    beta_agg: float
    s: float
    L_beta: float
    zone: str
    nu: float
    mu_exponent: float
    alpha_log: bool
    note: str | None = None


class TailClassification(NamedTuple):
    nu_theta: float
    mu_theta_exponent: float


@dataclass(frozen=True)
class EmbeddingReport:
    tau_p: float
    tau_i: tuple[float, ...]
    gamma: tuple[float, ...]
    q: tuple[float, ...]
    gamma_agg: float
    upsilon: float
    L_gamma: float
    valid: bool


def _inv(x: float) -> float:
    return 0.0 if math.isinf(x) else 1.0 / x


def aggregate(spec: ClassSpec) -> tuple[float, float, float]:
    """(harmonic smoothness, effective index, size product)."""
    inv_beta = sum(1.0 / b for b in spec.beta)
    inv_s = sum(_inv(b * r) for b, r in zip(spec.beta, spec.r))
    beta_agg = 1.0 / inv_beta
    s = INF if inv_s == 0.0 else 1.0 / inv_s
    l_beta = 1.0
    for b, l in zip(spec.beta, spec.L):
        l_beta *= l ** (1.0 / b)
    return beta_agg, s, l_beta


def _close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= _REL_TOL * max(1.0, abs(a), abs(b))


def classify(spec: ClassSpec, p: float) -> RegimeReport:
    """Zone, rate exponent, and log corrections for the norm index p."""
    p = _real(p, "p", above=1.0)
    beta_agg, s, l_beta = aggregate(spec)
    inv_beta = 1.0 / beta_agg
    inv_s = _inv(s)
    d = spec.dim
    lower = (2.0 + inv_beta) / (1.0 + inv_s)
    upper = INF if math.isinf(s) else s * (2.0 + inv_beta)

    dense_nu = 1.0 / (2.0 + inv_beta)
    if _close(p, lower):
        zone, nu, mu = "boundary_lower", dense_nu, d / p
    elif _close(p, upper):
        zone, nu, mu = "boundary_upper", dense_nu, 1.0 / p
    elif p < lower:
        zone = "tail"
        nu = (1.0 - 1.0 / p) / (1.0 - inv_s + inv_beta)
        mu = d / p
    elif p < upper:
        zone, nu, mu = "dense", dense_nu, 0.0
    elif s < 1.0:
        zone, nu, mu = "sparse_s_lt1", s / p, 0.0
    else:
        zone = "sparse_s_ge1"
        nu = (1.0 - inv_s + 1.0 / (p * beta_agg)) / (2.0 - 2.0 * inv_s + inv_beta)
        mu = 0.0

    note = None
    if any(r == 1.0 for r in spec.r):
        note = ("some integrability index equals 1: the attainable upper bound "
                "carries an extra (ln n)^d factor not reflected in nu")
    return RegimeReport(
        beta_agg=beta_agg, s=s, L_beta=l_beta, zone=zone, nu=nu,
        mu_exponent=mu, alpha_log=(zone == "sparse_s_ge1"), note=note,
    )


def classify_tail(spec: ClassSpec, p: float, tail: TailSpec) -> TailClassification:
    """Rate exponent under the tail-dominance condition with index theta."""
    p = _real(p, "p", above=1.0)
    beta_agg, s, _ = aggregate(spec)
    inv_beta = 1.0 / beta_agg
    inv_s = _inv(s)
    theta = tail.theta
    upper = INF if math.isinf(s) else s * (2.0 + inv_beta)
    theta_lower = (2.0 + inv_beta) / (1.0 / theta + inv_s)

    if p > upper and not _close(p, upper):
        nu = classify(spec, p).nu
    else:
        nu = max(
            (1.0 - theta / p) / (1.0 - theta * inv_s + inv_beta),
            1.0 / (2.0 + inv_beta),
        )
    mu = 1.0 / p if (_close(p, theta_lower) or _close(p, upper)) else 0.0
    return TailClassification(nu_theta=nu, mu_theta_exponent=mu)


def theta_star(spec: ClassSpec, p: float) -> float | None:
    """Tail index below which the first rate branch disappears; None when undefined."""
    p = _real(p, "p", above=1.0)
    beta_agg, s, _ = aggregate(spec)
    inv_beta = 1.0 / beta_agg
    if math.isinf(s):
        return p / (2.0 + inv_beta)
    denom = s * (2.0 + inv_beta) - p
    if denom <= 0:
        return None
    return p * s / denom


def embedding(spec: ClassSpec, p: float) -> EmbeddingReport:
    """Map the class to one with per-axis integrability at least p."""
    p = _real(p, "p", 1.0, finite=False)
    inv_p = _inv(p)
    tau_p = 1.0 - sum((1.0 / b) * (_inv(r) - inv_p) for b, r in zip(spec.beta, spec.r))
    tau_i = tuple(
        1.0 - sum((1.0 / b) * (_inv(r) - _inv(ri)) for b, r in zip(spec.beta, spec.r))
        for ri in spec.r
    )
    gamma = tuple(
        b * tau_p / ti if r < p else b
        for b, r, ti in zip(spec.beta, spec.r, tau_i)
    )
    q = tuple(max(r, p) for r in spec.r)
    valid = tau_p > 0 and all(t > 0 for t in tau_i)
    inv_gamma = sum(1.0 / g for g in gamma) if all(g != 0 for g in gamma) else INF
    gamma_agg = INF if inv_gamma == 0 else 1.0 / inv_gamma
    inv_upsilon = sum(_inv(g * qi) for g, qi in zip(gamma, q))
    upsilon = INF if inv_upsilon == 0 else 1.0 / inv_upsilon
    l_gamma = 1.0
    for l, g in zip(spec.L, gamma):
        l_gamma *= l ** (1.0 / g) if g > 0 else INF
    return EmbeddingReport(
        tau_p=tau_p, tau_i=tau_i, gamma=gamma, q=q,
        gamma_agg=gamma_agg, upsilon=upsilon, L_gamma=l_gamma, valid=valid,
    )
