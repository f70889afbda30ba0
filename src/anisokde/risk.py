"""Monte-Carlo L_p risk engine.

Runs replicate simulations against a known density, integrates
|estimate - truth|^p on a tensor grid, aggregates risk curves over a
sample-size schedule, fits log-log rates, and compares the selector
against the best fixed bandwidth on the same draws.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass

import numpy as np

from .densities import TrueDensity, sample
from .errors import InvalidParameterError
from .estimator import (
    DEFAULT_TABLE_SIZE,
    EstimationSetup,
    KappaPolicy,
    _select_point,
    kappa_default,
    make_setup,
)
from .quadrature import GridSpec

# Kernel support never exceeds one bandwidth unit and bandwidths top out
# at 1, so estimator mass lives within 1 of the data.
SUPPORT_MARGIN = 1.0


def default_grid(density: TrueDensity, nodes: int) -> GridSpec:
    """Evaluation grid covering the support plus the kernel-reach margin."""
    if nodes < 2:
        raise InvalidParameterError(f"nodes must be >= 2, got {nodes!r}")
    box = tuple(
        (float(lo) - SUPPORT_MARGIN, float(hi) + SUPPORT_MARGIN)
        for lo, hi in np.asarray(density.box, dtype=float)
    )
    return GridSpec(box=box, nodes=(int(nodes),) * density.dim)


@dataclass(frozen=True)
class ExperimentPlan:
    """Declarative description of one risk experiment."""

    density: TrueDensity
    p: float
    n_schedule: tuple[int, ...]
    replicates: int
    grid: GridSpec
    seed: int
    kappa: float | None = None
    ell: int = 1
    table_size: int = DEFAULT_TABLE_SIZE
    max_exponent: int | None = None
    threads: int = 1  # validated, never changes results: replicates run serially
    debug_truth: bool = False

    def __post_init__(self):
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(
            self, "n_schedule", tuple(int(v) for v in self.n_schedule)
        )
        if not (np.isfinite(self.p) and self.p >= 1.0):
            raise InvalidParameterError(f"p must be in [1, inf), got {self.p!r}")
        if not self.n_schedule:
            raise InvalidParameterError("n_schedule must be non-empty")
        if self.n_schedule[0] < 2:
            raise InvalidParameterError("every n must be >= 2")
        if any(b <= a for a, b in zip(self.n_schedule, self.n_schedule[1:])):
            raise InvalidParameterError("n_schedule must be strictly increasing")
        if int(self.replicates) != self.replicates or self.replicates < 2:
            raise InvalidParameterError(
                f"replicates must be an integer >= 2, got {self.replicates!r}"
            )
        if self.grid.dim != self.density.dim:
            raise InvalidParameterError(
                f"grid dim {self.grid.dim} != density dim {self.density.dim}"
            )
        support = np.asarray(self.density.box, dtype=float)
        for j, (lo, hi) in enumerate(self.grid.box):
            if (lo > support[j, 0] - SUPPORT_MARGIN + 1e-12
                    or hi < support[j, 1] + SUPPORT_MARGIN - 1e-12):
                raise InvalidParameterError(
                    f"grid axis {j} must cover the support plus a margin of "
                    f"{SUPPORT_MARGIN} on each side"
                )
        if int(self.seed) != self.seed or self.seed < 0:
            raise InvalidParameterError(
                f"seed must be a non-negative integer, got {self.seed!r}"
            )
        if self.kappa is not None and not (
            np.isfinite(self.kappa) and self.kappa > 0
        ):
            raise InvalidParameterError(f"kappa must be > 0, got {self.kappa!r}")
        if self.threads < 1:
            raise InvalidParameterError("threads must be >= 1")

    def setup_for(self, n: int) -> EstimationSetup:
        return make_setup(
            n,
            self.density.dim,
            ell=self.ell,
            table_size=self.table_size,
            max_exponent=self.max_exponent,
        )

    def policy_for(self, setup: EstimationSetup) -> KappaPolicy:
        if self.kappa is None:
            return kappa_default(self.density.dim, self.p, setup.kernel.k_inf)
        return KappaPolicy(
            kappa=float(self.kappa),
            d=self.density.dim,
            p=self.p,
            k_inf=setup.kernel.k_inf,
        )

    def canonical(self) -> dict:
        """Primitive-field view of the plan; threads is excluded because it
        never changes results, so the hash cannot depend on it."""
        return {
            "density": self.density.label,
            "density_box": np.asarray(self.density.box, dtype=float).tolist(),
            "p": self.p,
            "n_schedule": list(self.n_schedule),
            "replicates": int(self.replicates),
            "grid_box": [list(b) for b in self.grid.box],
            "grid_nodes": list(self.grid.nodes),
            "seed": int(self.seed),
            "kappa": self.kappa,
            "ell": int(self.ell),
            "table_size": int(self.table_size),
            "max_exponent": self.max_exponent,
            "debug_truth": bool(self.debug_truth),
        }

    @property
    def plan_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class RiskRow:
    """One schedule point: sample size and aggregated replicate risks."""

    n: int
    mean_risk_p: float
    stderr: float
    risk: float


@dataclass(frozen=True)
class RiskReport:
    """Risk curve plus provenance; wall_time stays out of payload()."""

    rows: tuple[RiskRow, ...]
    p: float
    plan_hash: str
    seed: int
    wall_time: float

    def payload(self) -> dict:
        """Deterministic content: identical plans give identical payloads
        regardless of thread count or timing."""
        return {
            "p": self.p,
            "plan_hash": self.plan_hash,
            "seed": self.seed,
            "rows": [
                {
                    "n": r.n,
                    "mean_risk_p": r.mean_risk_p,
                    "stderr": r.stderr,
                    "risk": r.risk,
                }
                for r in self.rows
            ],
        }


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (ln n, ln risk)."""

    slope: float
    intercept: float
    residual_stderr: float


@dataclass(frozen=True)
class GapReport:
    """Per-replicate ratios of selector error to best fixed-bandwidth error."""

    ratios: tuple[float, ...]
    median: float
    mean: float
    min: float
    max: float


def lp_norm_on_grid(field_a, field_b, p: float, grid: GridSpec) -> float:
    """(tensor-trapezoid integral of |a - b|^p)^(1/p) over the grid box."""
    if not (np.isfinite(p) and p >= 1.0):
        raise InvalidParameterError(f"p must be in [1, inf), got {p!r}")
    a = _as_grid_field(field_a, grid)
    b = _as_grid_field(field_b, grid)
    return float(grid.integrate_values(np.abs(a - b) ** p) ** (1.0 / p))


def _as_grid_field(field, grid: GridSpec) -> np.ndarray:
    vals = np.asarray(field, dtype=float)
    if vals.shape == grid.shape:
        return vals
    if vals.ndim == 1 and vals.size == int(np.prod(grid.shape)):
        return vals.reshape(grid.shape)
    raise InvalidParameterError(
        f"field shape {vals.shape} does not match grid shape {grid.shape}"
    )


def _truth_on_grid(plan: ExperimentPlan) -> np.ndarray:
    return np.asarray(plan.density.grid_values(plan.grid.axes()), dtype=float)


def risk_replicate(plan: ExperimentPlan, n: int, seed: int) -> float:
    """One Monte-Carlo draw: returns the p-th power error, not its root."""
    return _replicate_value(plan, int(n), int(seed))


def _replicate_value(plan: ExperimentPlan, n: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    data = sample(plan.density, n, rng)
    truth = _truth_on_grid(plan)
    if plan.debug_truth:
        return 0.0
    setup = plan.setup_for(n)
    policy = plan.policy_for(setup)
    selected = np.array([_select_point(data, x, policy, setup).estimate
                         for x in plan.grid.mesh()])
    diff = np.abs(selected.reshape(plan.grid.shape) - truth) ** plan.p
    return float(plan.grid.integrate_values(diff))


def run_plan(plan: ExperimentPlan) -> RiskReport:
    """Risk curve over the schedule.

    Replicate k of the whole run (schedule-major order) is seeded with
    plan.seed + k, so extending the schedule never changes the draws of
    rows already present. Replicates run one after another; plan.threads
    is validated but never changes anything.
    """
    start = time.perf_counter()
    values = []
    for n in plan.n_schedule:
        for _ in range(plan.replicates):
            values.append(_replicate_value(plan, n, plan.seed + len(values)))

    rows = []
    for i, n in enumerate(plan.n_schedule):
        chunk = np.array(values[i * plan.replicates:(i + 1) * plan.replicates])
        mean_p = float(chunk.mean())
        stderr = float(chunk.std(ddof=1) / np.sqrt(chunk.size))
        rows.append(RiskRow(
            n=int(n),
            mean_risk_p=mean_p,
            stderr=stderr,
            risk=float(mean_p ** (1.0 / plan.p)),
        ))
    return RiskReport(
        rows=tuple(rows),
        p=plan.p,
        plan_hash=plan.plan_hash,
        seed=int(plan.seed),
        wall_time=time.perf_counter() - start,
    )


def fit_rate(report: RiskReport) -> RateFit:
    """Slope of ln(risk) against ln(n); needs at least three schedule points."""
    if len(report.rows) < 3:
        raise InvalidParameterError(
            f"rate fit needs >= 3 schedule points, got {len(report.rows)}"
        )
    if any(r.risk <= 0 for r in report.rows):
        raise InvalidParameterError("rate fit needs strictly positive risks")
    x = np.log([r.n for r in report.rows])
    y = np.log([r.risk for r in report.rows])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    dof = len(report.rows) - 2
    stderr = float(np.sqrt((resid @ resid) / dof)) if dof > 0 else 0.0
    return RateFit(slope=float(slope), intercept=float(intercept),
                   residual_stderr=stderr)


def oracle_gap(plan: ExperimentPlan, n: int, replicates: int) -> GapReport:
    """Selector error over best fixed-bandwidth error, same draws.

    The denominator minimizes the grid L_p error over the bandwidth
    lattice the selector searches; one lattice entry makes every ratio
    exactly 1. Selection varies by point, so ratios below 1 can occur.
    """
    n = int(n)
    if n < 2:
        raise InvalidParameterError(f"n must be >= 2, got {n}")
    if int(replicates) != replicates or replicates < 1:
        raise InvalidParameterError(
            f"replicates must be a positive integer, got {replicates!r}"
        )
    setup = plan.setup_for(n)
    policy = plan.policy_for(setup)
    mesh = plan.grid.mesh()
    truth = _truth_on_grid(plan)
    ratios = []
    for k in range(int(replicates)):
        rng = np.random.default_rng(plan.seed + k)
        data = sample(plan.density, n, rng)
        selected = np.empty(mesh.shape[0])
        per_h = np.empty((mesh.shape[0], len(setup.grid)))
        for i, x in enumerate(mesh):
            rec = _select_point(data, x, policy, setup)
            selected[i] = rec.estimate
            per_h[i] = rec.fhat
        num = lp_norm_on_grid(selected, truth, plan.p, plan.grid)
        den = min(
            lp_norm_on_grid(per_h[:, j], truth, plan.p, plan.grid)
            for j in range(per_h.shape[1])
        )
        if den == 0.0:
            ratios.append(1.0 if num == 0.0 else float("inf"))
        else:
            ratios.append(num / den)
    arr = np.array(ratios)
    return GapReport(
        ratios=tuple(float(v) for v in arr),
        median=float(np.median(arr)),
        mean=float(arr.mean()),
        min=float(arr.min()),
        max=float(arr.max()),
    )
