"""One benchmark run of one workload, in a process of its own.

run.py starts this file with one BLAS/OpenMP thread and `src` on the
import path, so the cold kernel tables and the imports count as set-up,
as they do for every CLI run. The last line of standard output is one
JSON object with the run's timestamps (time.monotonic, comparable with
the parent's), round times, problems found by the checks and, when
traced, the per-layer metrics.

The workloads call the package only through its public functions, in
the order the matching CLI command calls them:

- estimate_d2: `anisokde estimate` at d=2 (build_dataset, make_setup,
  estimate_on_grid), on points drawn here from a two-cluster mixture.
- risk_d1: `anisokde risk` (run_plan) on raised_cosine at d=1.
- oracle_d2: the `anisokde oracle` loop at d=2 (sample, a uniform point,
  assert_oracle_inequality) on raised_cosine.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

import anisokde as ak
from anisokde import kernels

import checks
from spans import Tracer, median_ms, quantile_ms

ELL = 1
P = 2.0
KAPPA = 0.05
RATE_BAND = (-0.55, -0.25)  # acceptance criterion 10
EST_BOX = ((-1.5, 1.5), (-1.5, 1.5))
# Two clusters whose spread puts about a quarter of the n points inside
# each evaluation point's candidate box [x - 1, x + 1]^2.
EST_CENTERS = np.array([[-0.6, -0.4], [0.7, 0.5]])
EST_SCALES = np.array([0.9, 0.7])


@dataclass(frozen=True)
class Scale:
    table_size: int
    est_n: int
    est_nodes: int          # the evaluation grid is est_nodes x est_nodes
    spot_points: int        # points whose criterion argmin is re-derived
    risk_schedule: tuple[int, ...]
    risk_replicates: int
    risk_nodes: int
    rate_rounds: int        # rounds pooled for the rate check
    oracle_n: int
    oracle_instances: int
    oracle_nodes: int
    companion_instances: int


FULL = Scale(table_size=4096, est_n=1024, est_nodes=7, spot_points=3,
             risk_schedule=(256, 512, 1024, 2048), risk_replicates=3,
             risk_nodes=65, rate_rounds=5, oracle_n=256, oracle_instances=10,
             oracle_nodes=65, companion_instances=3)
TOY = Scale(table_size=64, est_n=128, est_nodes=3, spot_points=1,
            risk_schedule=(256, 512, 1024), risk_replicates=2, risk_nodes=17,
            rate_rounds=6, oracle_n=64, oracle_instances=2, oracle_nodes=17,
            companion_instances=1)


def set_up(tracer: Tracer | None, n: int, dim: int, table_size: int):
    """make_setup; traced, its q_r tables are first built one ratio at a
    time, so make_setup's own call then reads them warm."""
    if tracer is None:
        return ak.make_setup(n, dim, ell=ELL, table_size=table_size)
    with tracer.span("estimator.make_setup", item="setup"):
        with tracer.span("kernels.build_composite"):
            composite = kernels.build_composite(kernels.build_base(ELL, table_size))
        for r in ak.build_grid(n, dim).ratios():
            with tracer.span("kernels.convolve_ratio", ratio=r):
                kernels.convolve_ratio(composite, r)
        return ak.make_setup(n, dim, ell=ELL, table_size=table_size)


def policy_for(setup) -> ak.KappaPolicy:
    return ak.KappaPolicy(kappa=KAPPA, d=setup.grid.dim, p=P, k_inf=setup.kernel.k_inf)


def trace_point(tracer: Tracer, data, x, policy, setup):
    """One point's selector call, with the box query it starts from."""
    with tracer.span("estimator.box_query"):
        data.box_indices(x - 1.0, x + 1.0)
    with tracer.span("estimator.select_and_estimate"):
        return ak.select_and_estimate(data, x, policy, setup)


def same_fit(fit, ref) -> bool:
    return (fit.selected == ref.selected and fit.estimate == ref.estimate
            and fit.counts == ref.counts)


def table_bytes(setup) -> int:
    """Bytes of the profile, envelope and q_r tables the setup's lattice uses."""
    composite = setup.marginal
    q = [kernels.convolve_ratio(composite, r).profile.values.nbytes
         for r in setup.grid.ratios()]
    return (composite.profile.values.nbytes
            + setup.majorant.per_dim_envelope[0].values.nbytes + sum(q))


def fit_peak_mb(data, x, policy, setup) -> float:
    tracemalloc.start()
    try:
        ak.select_and_estimate(data, x, policy, setup)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class SpeedProbe:
    """Times a fixed reference job, to follow the machine's speed through
    a run: table lookups over small arrays in a Python loop (as the
    selector does) and cosines over fresh 2 MB arrays (as the kernel
    tables do). It takes about 0.13 s."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.table = np.cos(np.linspace(-np.pi, np.pi, 8193))
        self.pos = rng.random(256) * 8000
        self.big = rng.random(1 << 18)

    def sample(self) -> float:
        a = time.perf_counter()
        for k in range(400):
            pos = self.pos * (1.0 + k * 1e-4)
            idx = np.clip(np.floor(pos), 0, self.table.size - 2).astype(np.int64)
            frac = pos - idx
            (self.table[idx] * (1.0 - frac) + self.table[idx + 1] * frac).sum()
        for k in range(16):
            np.cos(self.big * (1.0 + k)).sum()
        return time.perf_counter() - a


class EstimateD2:
    name = "estimate_d2"
    min_rounds = 1

    def __init__(self, seed: int, scale: Scale):
        self.scale = scale
        rng = np.random.default_rng([seed, 2])
        n = scale.est_n
        comp = (rng.random(n) < 0.5).astype(int)
        z = rng.standard_normal((n, 2))
        self.points = EST_CENTERS[comp] + EST_SCALES[comp][:, None] * z
        self.mesh = ak.GridSpec(box=EST_BOX, nodes=(scale.est_nodes,) * 2).mesh()
        self.items = self.mesh.shape[0]

    def setup(self, tracer=None):
        with (nullcontext() if tracer is None
              else tracer.span("estimator.build_dataset", item="setup")):
            self.data = ak.build_dataset(self.points)
        self.setup_ = set_up(tracer, self.data.n, 2, self.scale.table_size)
        self.policy = policy_for(self.setup_)

    def round(self, r: int):
        return ak.estimate_on_grid(self.data, self.mesh, self.policy, self.setup_, threads=1)

    def same(self, a, b) -> bool:
        return all(same_fit(f, g) for f, g in zip(a, b))

    def check(self, outs, traced=False) -> list[str]:
        fits = outs[0]
        exps = np.array([f.selected.exponents for f in fits])
        est = np.array([f.estimate for f in fits])
        problems = checks.check_lattice(exps, self.setup_.grid.max_exponent)
        problems += checks.check_estimates(self.points, self.mesh, est, exps,
                                           self.scale.table_size)
        spots = np.linspace(0, self.items - 1, self.scale.spot_points).astype(int)
        for i in spots:
            fit = ak.select_and_estimate(self.data, self.mesh[i], self.policy,
                                         self.setup_, keep_criterion=True)
            problems += checks.check_argmin(fit.criterion, fits[i].selected.exponents)
            if not same_fit(fit, fits[i]):
                problems.append(f"point {i}: select_and_estimate differs from "
                                "estimate_on_grid")
        return problems

    def trace(self, tracer: Tracer, ref=None, limit=None) -> list[str]:
        problems = []
        self.traced_fits = []
        for i, x in enumerate(self.mesh[:limit]):
            with tracer.span("estimate.point", item=f"{self.name}/{i}"):
                fit = trace_point(tracer, self.data, x, self.policy, self.setup_)
            self.traced_fits.append(fit)
            if ref is not None and not same_fit(fit, ref[i]):
                problems.append(f"traced point {i} differs from estimate_on_grid")
        return problems

    def own_metrics(self, tracer: Tracer) -> dict:
        return {
            "estimator.index_ms": median_ms(tracer.named("estimator.build_dataset")),
            "estimator.candidates_per_point":
                float(np.mean([f.counts for f in self.traced_fits])),
            "estimator.fit_point_peak_mb":
                fit_peak_mb(self.data, self.mesh[0], self.policy, self.setup_),
        }

    def cli_check(self, fits, out_dir: str) -> list[str]:
        """Run the real `anisokde estimate` on these inputs; its fits.csv
        must equal the library path's digit for digit."""
        work = os.path.join(out_dir, "cli-estimate_d2")
        os.makedirs(work, exist_ok=True)
        data_file = os.path.join(work, "points.txt")
        with open(data_file, "w", encoding="utf-8") as fh:
            fh.writelines(f"{float(a)!r} {float(b)!r}\n" for a, b in self.points)
        config = {"estimate": {"box": [list(b) for b in EST_BOX],
                               "grid_nodes": self.scale.est_nodes},
                  "kernel": {"ell": ELL, "table_size": self.scale.table_size},
                  "estimator": {"p": P, "kappa": KAPPA}}
        config_file = os.path.join(work, "estimate.json")
        with open(config_file, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        run_dir = os.path.join(work, "run")
        proc = subprocess.run(
            [sys.executable, "-m", "anisokde.cli", "estimate", data_file,
             "--config", config_file, "--threads", "1", "--out", run_dir],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            return [f"anisokde estimate exited {proc.returncode}: {proc.stderr.strip()}"]
        with open(os.path.join(run_dir, "fits.csv"), "rb") as fh:
            got = fh.read()
        want = checks.fits_csv(self.mesh, [f.estimate for f in fits],
                               [f.selected.exponents for f in fits])
        return [] if got == want else ["CLI fits.csv differs from the library path"]


class RiskD1:
    name = "risk_d1"

    def __init__(self, seed: int, scale: Scale):
        self.scale = scale
        self.density = ak.smooth_product_density("raised_cosine", 1)
        self.items = len(scale.risk_schedule) * scale.risk_replicates
        self.base_seed = seed * 100_000
        self.min_rounds = scale.rate_rounds

    def plan(self, r: int) -> ak.ExperimentPlan:
        # rounds draw disjoint replicate seeds, so pooled rounds are independent
        return ak.ExperimentPlan(
            density=self.density, p=P, n_schedule=self.scale.risk_schedule,
            replicates=self.scale.risk_replicates,
            grid=ak.default_grid(self.density, self.scale.risk_nodes),
            seed=self.base_seed + r * self.items, kappa=KAPPA, ell=ELL,
            table_size=self.scale.table_size, threads=1)

    def tasks(self, plan):
        """(n, seed) of each replicate, in run_plan's schedule-major order."""
        return [(n, plan.seed + i * plan.replicates + k)
                for i, n in enumerate(plan.n_schedule) for k in range(plan.replicates)]

    def setup(self, tracer=None):
        self.setup_ = set_up(tracer, max(self.scale.risk_schedule), 1,
                             self.scale.table_size)

    def round(self, r: int):
        return ak.run_plan(self.plan(r))

    def same(self, a, b) -> bool:
        return True  # rounds draw different seeds

    def replicate_values(self, plan) -> dict:
        values: dict[int, list[float]] = {n: [] for n in plan.n_schedule}
        for n, seed in self.tasks(plan):
            values[n].append(ak.risk_replicate(plan, n, seed))
        return values

    def check(self, outs, traced=False) -> list[str]:
        """Traced, the replicate values come from the trace and the rate
        check is skipped (it needs rate_rounds rounds)."""
        plan = self.plan(0)
        values = self.values if traced else self.replicate_values(plan)
        problems = checks.check_risk_rows(outs[0].rows, values, P)
        lo, hi = self.density.box[0]
        axis = np.linspace(lo - 1.0, hi + 1.0, self.scale.risk_nodes)
        for i, n in enumerate(plan.n_schedule):
            seed = plan.seed + i * plan.replicates
            data = ak.sample(self.density, n, np.random.default_rng(seed))
            setup = ak.make_setup(n, 1, ell=ELL, table_size=self.scale.table_size)
            fits = ak.estimate_on_grid(data, axis[:, None], policy_for(setup), setup)
            own = checks.replicate_risk(np.array([f.estimate for f in fits]), axis, P)
            problems += checks.check_close(f"replicate n={n}", values[n][0], own)
        if not traced:
            # Three replicates per n leave the slope outside the band on
            # about 2% of seeds; pooling rate_rounds rounds makes that rare.
            ns = np.array([row.n for row in outs[0].rows], dtype=float)
            means = np.mean([[row.mean_risk_p for row in rep.rows]
                             for rep in outs[:self.scale.rate_rounds]], axis=0)
            self.slope = float(np.polyfit(np.log(ns), 0.5 * np.log(means), 1)[0])
            problems += checks.check_rate(ns, means, self.slope, RATE_BAND)
        return problems

    def trace(self, tracer: Tracer, ref=None, limit=None) -> list[str]:
        """Each replicate as one public risk_replicate call, then again as
        its parts: sampling, truth grid, fits and integration."""
        plan = self.plan(0)
        tasks = self.tasks(plan)
        if limit is not None:
            tasks = [tasks[0], tasks[-1]]
        problems = []
        self.values = {n: [] for n in plan.n_schedule}
        self.traced_fits = []
        fitted_n = set()
        for k, (n, seed) in enumerate(tasks):
            with tracer.span("risk.item", item=f"{self.name}/{k}", n=n):
                with tracer.span("risk.risk_replicate", n=n):
                    value = ak.risk_replicate(plan, n, seed)
                with tracer.span("risk.replicate_parts", n=n):
                    with tracer.span("densities.sample"):
                        data = ak.sample(self.density, n, np.random.default_rng(seed))
                    with tracer.span("densities.truth_grid"):
                        truth = self.density.grid_values(plan.grid.axes())
                    setup = plan.setup_for(n)
                    policy = plan.policy_for(setup)
                    mesh = plan.grid.mesh()
                    with tracer.span("risk.fits"):
                        fits = ak.estimate_on_grid(data, mesh, policy, setup)
                    est = np.array([f.estimate for f in fits])
                    with tracer.span("quadrature.integrate_values"):
                        parts = plan.grid.integrate_values(
                            np.abs(est.reshape(plan.grid.shape) - truth) ** plan.p)
                if limit is None and n not in fitted_n:
                    fitted_n.add(n)
                    with tracer.span("estimator.build_dataset"):
                        ak.build_dataset(data.points)
                    for x, ref_fit in zip(mesh, fits):
                        if not same_fit(trace_point(tracer, data, x, policy, setup), ref_fit):
                            problems.append(f"n={n}: a per-point fit differs from "
                                            "estimate_on_grid")
                    self.traced_fits += fits
                    self.first = (data, mesh[mesh.shape[0] // 2], policy, setup)
            self.values[n].append(value)
            if parts != value:
                problems.append(f"replicate n={n} seed={seed}: parts give {parts!r}, "
                                f"risk_replicate {value!r}")
        return problems

    def home_metrics(self, tracer: Tracer) -> dict:
        self_ms = [1e3 * tracer.self_seconds(sp) for sp in tracer.named("risk.replicate_parts")]
        lo, hi = min(self.scale.risk_schedule), max(self.scale.risk_schedule)
        return {
            "densities.truth_grid_ms": median_ms(tracer.named("densities.truth_grid")),
            "quadrature.integrate_ms": median_ms(tracer.named("quadrature.integrate_values")),
            "risk.replicate_ms.n256": median_ms(tracer.named("risk.risk_replicate", n=lo)),
            "risk.replicate_ms.n2048": median_ms(tracer.named("risk.risk_replicate", n=hi)),
            "risk.self_ms": statistics.median(self_ms),
        }

    def own_metrics(self, tracer: Tracer) -> dict:
        data, x, policy, setup = self.first
        return {
            "estimator.index_ms": median_ms(tracer.named("estimator.build_dataset")),
            "estimator.candidates_per_point":
                float(np.mean([f.counts for f in self.traced_fits])),
            "estimator.fit_point_peak_mb": fit_peak_mb(data, x, policy, setup),
        }


class OracleD2:
    name = "oracle_d2"
    min_rounds = 1

    def __init__(self, seed: int, scale: Scale):
        self.scale = scale
        self.density = ak.smooth_product_density("raised_cosine", 2)
        self.box = np.asarray(self.density.box, dtype=float)
        self.base_seed = seed * 100_000
        self.items = scale.oracle_instances

    def setup(self, tracer=None):
        self.setup_ = set_up(tracer, self.scale.oracle_n, 2, self.scale.table_size)
        self.policy = policy_for(self.setup_)

    def instance(self, i: int):
        """Instance i exactly as `anisokde oracle` draws it."""
        rng = np.random.default_rng(self.base_seed + i)
        data = ak.sample(self.density, self.scale.oracle_n, rng)
        return data, rng.uniform(self.box[:, 0], self.box[:, 1])

    def assert_bound(self, data, x) -> dict:
        return ak.assert_oracle_inequality(data, self.density, x, self.policy, self.setup_,
                                           nodes=self.scale.oracle_nodes)

    def round(self, r: int):
        out = []
        for i in range(self.items):
            data, x = self.instance(i)
            out.append((data.points, self.assert_bound(data, x)))
        return out

    def same(self, a, b) -> bool:
        return [rec for _, rec in a] == [rec for _, rec in b]

    def check(self, outs, traced=False) -> list[str]:
        problems = []
        for pts, rec in outs[0]:
            problems += checks.check_oracle_record(rec, pts, self.scale.table_size)
        return problems

    def trace(self, tracer: Tracer, ref=None, limit=None) -> list[str]:
        """Each instance's public calls: sampling, the bound's terms beside
        the full assertion, and the selector call the assertion repeats."""
        problems = []
        self.traced_fits = []
        for i in range(self.items if limit is None else limit):
            with tracer.span("oracle.instance", item=f"{self.name}/{i}"):
                with tracer.span("densities.sample"):
                    data, x = self.instance(i)
                with tracer.span("estimator.build_dataset"):
                    ak.build_dataset(data.points)
                with tracer.span("oracle.oracle_terms"):
                    terms = ak.oracle_terms(data, self.density, x, self.policy, self.setup_,
                                            nodes=self.scale.oracle_nodes)
                with tracer.span("oracle.assert_oracle_inequality"):
                    rec = self.assert_bound(data, x)
                fit = trace_point(tracer, data, x, self.policy, self.setup_)
            self.traced_fits.append(fit)
            if i == 0:
                self.first = (data, x)
            if ref is not None and rec != ref[i][1]:
                problems.append(f"instance {i}: traced record differs from the untraced one")
            if terms.bound != rec["rhs"] or list(fit.selected.exponents) != rec["selected"]:
                problems.append(f"instance {i}: oracle_terms or select_and_estimate "
                                "disagrees with assert_oracle_inequality")
        return problems

    def home_metrics(self, tracer: Tracer) -> dict:
        terms = tracer.named("oracle.oracle_terms")
        asserts = tracer.named("oracle.assert_oracle_inequality")
        return {
            "oracle.terms_ms": median_ms(terms),
            "oracle.assert_ms": median_ms(asserts),
            "oracle.refit_ms": statistics.median(
                1e3 * (a.seconds - t.seconds) for a, t in zip(asserts, terms)),
        }

    def own_metrics(self, tracer: Tracer) -> dict:
        data, x = self.first
        return {
            "estimator.index_ms": median_ms(tracer.named("estimator.build_dataset")),
            "estimator.candidates_per_point":
                float(np.mean([f.counts for f in self.traced_fits])),
            "estimator.fit_point_peak_mb": fit_peak_mb(data, x, self.policy, self.setup_),
        }


WORKLOADS = {cls.name: cls for cls in (EstimateD2, RiskD1, OracleD2)}


def timed_run(wl, seconds: float) -> dict:
    """Set-up, then whole rounds for `seconds`. The speed probe runs three
    times before and three times after set-up, and once after every
    round, so every timed segment has probe samples beside it."""
    probe = SpeedProbe()
    before = [probe.sample() for _ in range(3)]
    wl.setup()
    t_setup = time.monotonic()
    after = [probe.sample() for _ in range(3)]
    flank = after[-1:]
    outs, round_s = [], []
    while True:
        a = time.perf_counter()
        outs.append(wl.round(len(outs)))
        round_s.append(time.perf_counter() - a)
        flank.append(probe.sample())
        if len(outs) >= wl.min_rounds and time.monotonic() - t_setup >= seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    problems = [f"round {r} differs from round 0" for r in range(1, len(outs))
                if not wl.same(outs[r], outs[0])]
    problems += wl.check(outs)
    result = {"t_setup": t_setup, "probe_before_setup_s": sum(before),
              "setup_probe_s": before + after, "round_s": round_s, "round_probe_s": flank,
              "items_per_round": wl.items, "peak_rss_mb": peak_kb / 1024.0,
              "problems": problems}
    if isinstance(wl, RiskD1):
        result["rate_slope"] = wl.slope
    return result


def traced_run(wl, seed: int, scale: Scale, out_dir: str) -> dict:
    tracer = Tracer()
    wl.setup(tracer)
    t_setup = time.monotonic()
    a = time.perf_counter()
    ref = wl.round(0)
    untraced_s = time.perf_counter() - a
    a = time.perf_counter()
    problems = wl.trace(tracer, ref)
    traced_s = time.perf_counter() - a
    problems += wl.check([ref], traced=True)

    converts = tracer.named("kernels.convolve_ratio")
    lattice = len(wl.setup_.grid)
    metrics = {
        "kernels.ratio_tables": float(len(converts)),
        "kernels.convolve_ratio_ms": median_ms(converts),
        "kernels.table_mb": table_bytes(wl.setup_) / 1e6,
        "estimator.make_setup_s": tracer.named("estimator.make_setup")[0].seconds,
        "estimator.lattice_size": float(lattice),
        "estimator.pairs_per_point": float(lattice * (lattice + 1) // 2),
        "estimator.fit_point_ms.p50":
            quantile_ms(tracer.named("estimator.select_and_estimate"), 50),
        "estimator.fit_point_ms.p90":
            quantile_ms(tracer.named("estimator.select_and_estimate"), 90),
        "estimator.box_query_us":
            1e3 * median_ms(tracer.named("estimator.box_query")),
        "trace.overhead_s": traced_s - untraced_s,
    }
    metrics.update(wl.own_metrics(tracer))
    samples = tracer.named("densities.sample")
    tracers = {wl.name: tracer}
    # Layers this workload does not reach are measured on a few items of
    # the workload they belong to, so every traced run reports every metric.
    for cls in (RiskD1, OracleD2):
        if isinstance(wl, cls):
            metrics.update(wl.home_metrics(tracer))
            continue
        comp = cls(seed, scale)
        comp.setup()
        comp_tracer = Tracer()
        problems += comp.trace(comp_tracer, limit=scale.companion_instances)
        metrics.update(comp.home_metrics(comp_tracer))
        tracers[comp.name + "(companion)"] = comp_tracer
        if not samples:
            samples = comp_tracer.named("densities.sample")
    metrics["densities.sample_ms"] = median_ms(samples)
    if isinstance(wl, EstimateD2):
        problems += wl.cli_check(ref, out_dir)

    path = os.path.join(out_dir, f"spans-{wl.name}-seed{seed}.jsonl")
    if os.path.exists(path):
        os.remove(path)
    for label, tr in tracers.items():
        tr.dump(path, label)
    return {"t_setup": t_setup, "round_s": [untraced_s], "items_per_round": wl.items,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "problems": problems, "per_layer": metrics}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "toy"), default="full")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    scale = FULL if args.scale == "full" else TOY
    wl = WORKLOADS[args.workload](args.seed, scale)
    if args.trace:
        result = traced_run(wl, args.seed, scale, args.out)
    else:
        result = timed_run(wl, args.seconds)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
