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
from dataclasses import dataclass, field

import numpy as np

from .densities import TrueDensity, sample
from .errors import InvalidParameterError, _index, _real
from .estimator import (
    DEFAULT_TABLE_SIZE,
    EstimationSetup,
    KappaPolicy,
    _checked_grid,
    _kappa_policy,
    _select_points,
    _setup_on,
    make_setup,
)
from .kernels import _check_order_and_table, build_base, build_composite, convolve_ratio
from .quadrature import GridSpec, contract

# Kernel support never exceeds one bandwidth unit and bandwidths top out
# at 1, so estimator mass lives within 1 of the data.
SUPPORT_MARGIN = 1.0


def default_grid(density: TrueDensity, nodes: int) -> GridSpec:
    """Evaluation grid covering the support plus the kernel-reach margin."""
    box = tuple(
        (float(lo) - SUPPORT_MARGIN, float(hi) + SUPPORT_MARGIN)
        for lo, hi in np.asarray(density.box, dtype=float)
    )
    return GridSpec(box=box, nodes=(nodes,) * density.dim)


@dataclass(frozen=True)
class ExperimentPlan:
    """Declarative description of one risk experiment; construction
    checks every input, the setup of the largest n included."""

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

    def __post_init__(self):
        object.__setattr__(self, "p", _real(self.p, "p", 1.0))
        object.__setattr__(
            self, "n_schedule", tuple(_index(v, "n_schedule entry", 2) for v in self.n_schedule)
        )
        if not self.n_schedule:
            raise InvalidParameterError("n_schedule must be non-empty")
        if any(b <= a for a, b in zip(self.n_schedule, self.n_schedule[1:])):
            raise InvalidParameterError("n_schedule must be strictly increasing")
        for name, least in (("replicates", 2), ("seed", 0), ("threads", 1)):
            object.__setattr__(self, name, _index(getattr(self, name), name, least))
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
        if self.kappa is not None:
            object.__setattr__(self, "kappa", _real(self.kappa, "kappa", above=0.0))
        ell, table_size = _check_order_and_table(self.ell, self.table_size)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "table_size", table_size)
        if self.max_exponent is not None:
            object.__setattr__(self, "max_exponent", _index(self.max_exponent, "max_exponent"))
        _checked_grid(self.n_schedule[-1], self.density.dim, self.ell, self.table_size,
                     self.max_exponent)

    def setup_for(self, n: int) -> EstimationSetup:
        return make_setup(
            n,
            self.density.dim,
            ell=self.ell,
            table_size=self.table_size,
            max_exponent=self.max_exponent,
        )

    def policy_for(self, setup: EstimationSetup) -> KappaPolicy:
        return _kappa_policy(self.kappa, self.density.dim, self.p, setup.kernel.k_inf)

    def canonical(self) -> dict:
        """Primitive-field view of the plan; threads is excluded because it
        never changes results, so the hash cannot depend on it."""
        return {
            "density": self.density.label,
            "density_box": np.asarray(self.density.box, dtype=float).tolist(),
            "p": self.p,
            "n_schedule": list(self.n_schedule),
            "replicates": self.replicates,
            "grid_box": [list(b) for b in self.grid.box],
            "grid_nodes": list(self.grid.nodes),
            "seed": self.seed,
            "kappa": self.kappa,
            "ell": self.ell,
            "table_size": self.table_size,
            "max_exponent": self.max_exponent,
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
    """Risk curve plus provenance; wall_time and timings (wall seconds
    per stage: kernel_tables, truth_grid, replicates) stay out of
    payload()."""

    rows: tuple[RiskRow, ...]
    p: float
    plan_hash: str
    seed: int
    wall_time: float
    timings: dict[str, float] = field(default_factory=dict)

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
    p = _real(p, "p", 1.0)
    a, b = grid._field(field_a, "field_a"), grid._field(field_b, "field_b")
    return float(contract(np.abs(a - b) ** p, grid.axis_weights()) ** (1.0 / p))


def _truth_on_grid(plan: ExperimentPlan) -> np.ndarray:
    return np.asarray(plan.density.grid_values(plan.grid.axes()), dtype=float)


def risk_replicate(plan: ExperimentPlan, n: int, seed: int) -> float:
    """One Monte-Carlo draw: returns the p-th power error, not its root."""
    n, seed = _index(n, "n"), _index(seed, "seed", 0)
    setup = plan.setup_for(n)
    return _replicate_value(plan, n, seed, setup, plan.policy_for(setup),
                            _truth_on_grid(plan))


def _replicate_value(plan: ExperimentPlan, n: int, seed: int, setup: EstimationSetup,
                     policy: KappaPolicy, truth: np.ndarray) -> float:
    rng = np.random.default_rng(seed)
    data = sample(plan.density, n, rng)
    selected = np.array([rec.estimate
                         for rec in _select_points(data, plan.grid.mesh(), policy, setup)])
    diff = np.abs(selected.reshape(plan.grid.shape) - truth) ** plan.p
    return float(plan.grid.integrate_values(diff))


def run_plan(plan: ExperimentPlan) -> RiskReport:
    """Risk curve over the schedule.

    Replicate k of the whole run (schedule-major order) is seeded with
    plan.seed + k, so extending the schedule never changes the draws of
    rows already present. Each q_r ratio is tabulated once per plan;
    each n gets one setup (the tables its lattice reads, bit for bit
    `plan.setup_for(n)`) and policy, shared by its replicates, and the
    truth on the grid is computed once per plan. Replicates run one
    after another; plan.threads is validated but never changes anything.
    """
    start = time.perf_counter()
    truth = _truth_on_grid(plan)
    t0 = time.perf_counter()
    grids = [_checked_grid(n, plan.density.dim, plan.ell, plan.table_size, plan.max_exponent)
             for n in plan.n_schedule]
    composite = build_composite(build_base(plan.ell, plan.table_size))
    widest = max(grids, key=lambda grid: grid.max_exponent)
    tables = [convolve_ratio(composite, r) for r in widest.ratios()]
    timings = {"kernel_tables": time.perf_counter() - t0, "truth_grid": t0 - start,
               "replicates": 0.0}
    values = []
    for n, grid in zip(plan.n_schedule, grids):
        t0 = time.perf_counter()
        setup = _setup_on(grid, composite, tables)
        policy = plan.policy_for(setup)
        t1 = time.perf_counter()
        for _ in range(plan.replicates):
            values.append(_replicate_value(plan, n, plan.seed + len(values),
                                           setup, policy, truth))
        timings["kernel_tables"] += t1 - t0
        timings["replicates"] += time.perf_counter() - t1
        del setup  # the next n's stack is built without this n's alive

    rows = []
    for i, n in enumerate(plan.n_schedule):
        chunk = np.array(values[i * plan.replicates:(i + 1) * plan.replicates])
        mean_p = float(chunk.mean())
        stderr = float(chunk.std(ddof=1) / np.sqrt(chunk.size))
        rows.append(RiskRow(
            n=n,
            mean_risk_p=mean_p,
            stderr=stderr,
            risk=float(mean_p ** (1.0 / plan.p)),
        ))
    return RiskReport(
        rows=tuple(rows),
        p=plan.p,
        plan_hash=plan.plan_hash,
        seed=plan.seed,
        wall_time=time.perf_counter() - start,
        timings=timings,
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
    n, replicates = _index(n, "n", 2), _index(replicates, "replicates", 1)
    setup = plan.setup_for(n)
    policy = plan.policy_for(setup)
    mesh = plan.grid.mesh()
    truth = _truth_on_grid(plan)
    selected = np.empty(len(mesh))
    per_h = np.empty((len(mesh), setup.tables.size))
    ratios = []
    for k in range(replicates):
        rng = np.random.default_rng(plan.seed + k)
        data = sample(plan.density, n, rng)
        for i, rec in enumerate(_select_points(data, mesh, policy, setup)):
            selected[i], per_h[i] = rec.estimate, rec.fhat
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
