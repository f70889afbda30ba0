"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Run from the root of a checkout. It shows that every output check
passes on the program's real output and fails on a corrupted copy (a
perturbed estimate, a flipped exponent, a wrong risk row, a false
oracle record), that each workload runs end to end through run.py,
timed and traced, and that run.py fails without printing a result in
a directory that holds only the benchmark. Exits non-zero on any
failure.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [os.path.abspath("src"), HERE]
os.environ["PYTHONPATH"] = os.path.abspath("src")

import numpy as np  # noqa: E402

import checks  # noqa: E402
import worker  # noqa: E402

SEED = 3
OUT = os.path.join(HERE, "out", "selftest")


def expect(ok: bool, what: str, failures: list[str]) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def estimate_checks(failures: list[str]) -> None:
    wl = worker.EstimateD2(SEED, worker.TOY)
    wl.setup()
    fits = wl.round(0)
    expect(wl.check([fits]) == [], "estimate_d2: checks pass on real output", failures)

    # at the toy table size the interpolation tolerance is about 1e-3 per
    # term, so perturb the largest estimate by 1%
    bumped = list(fits)
    i = int(np.argmax([g.estimate for g in fits]))
    bumped[i] = dataclasses.replace(fits[i], estimate=fits[i].estimate * 1.01)
    expect(wl.check([bumped]) != [], "estimate_d2: perturbed estimate is caught", failures)

    exps = np.array([g.selected.exponents for g in fits])
    est = np.array([g.estimate for g in fits])
    flipped = exps.copy()
    flipped[0, 0] = 1 - min(flipped[0, 0], 1)
    expect(checks.check_estimates(wl.points, wl.mesh, est, flipped, wl.scale.table_size) != [],
           "estimate_d2: flipped exponent is caught by the closed-form sum", failures)
    off = exps.copy()
    off[0, 1] = wl.setup_.grid.max_exponent + 1
    expect(checks.check_lattice(off, wl.setup_.grid.max_exponent) != [],
           "estimate_d2: exponent off the lattice is caught", failures)

    fit = worker.ak.select_and_estimate(wl.data, wl.mesh[0], wl.policy, wl.setup_,
                                        keep_criterion=True)
    crit = fit.criterion
    expect(checks.check_argmin(crit, fit.selected.exponents) == [],
           "estimate_d2: argmin check passes on real criterion", failures)
    other = next(k for k in crit if k != fit.selected.exponents)
    expect(checks.check_argmin(crit, other) != [],
           "estimate_d2: a non-minimal selection is caught", failures)
    # ties go to the largest volume (smallest exponent sum), then lexicographic
    tied = {(0, 1): 1.0, (1, 0): 1.0, (1, 1): 1.0, (0, 0): 2.0}
    expect(checks.check_argmin(tied, (0, 1)) == []
           and checks.check_argmin(tied, (1, 0)) != []
           and checks.check_argmin(tied, (1, 1)) != [],
           "estimate_d2: a tie broken the wrong way is caught", failures)

    problems = wl.cli_check(fits, OUT)
    expect(problems == [], f"estimate_d2: CLI fits.csv matches {problems}", failures)
    expect(wl.cli_check(bumped, OUT) != [], "estimate_d2: CLI mismatch is caught", failures)


def risk_checks(failures: list[str]) -> None:
    wl = worker.RiskD1(SEED, worker.TOY)
    wl.setup()
    outs = [wl.round(r) for r in range(wl.min_rounds)]
    problems = wl.check(outs)
    expect(problems == [], f"risk_d1: checks pass on real output {problems}", failures)

    wrong = copy.deepcopy(outs)
    row = wrong[0].rows[1]
    rows = list(wrong[0].rows)
    rows[1] = dataclasses.replace(row, mean_risk_p=row.mean_risk_p * 1.01)
    wrong[0] = dataclasses.replace(wrong[0], rows=tuple(rows))
    expect(wl.check(wrong) != [], "risk_d1: wrong risk row is caught", failures)

    plan = wl.plan(0)
    values = wl.replicate_values(plan)
    n0 = plan.n_schedule[0]
    values[n0][0] *= 1.001
    expect(checks.check_risk_rows(outs[0].rows, values, worker.P) != [],
           "risk_d1: row not the mean of its replicates is caught", failures)
    ns = np.array([256.0, 512.0, 1024.0])
    expect(checks.check_rate(ns, [0.1, 0.05, 0.12], -0.4, worker.RATE_BAND) != [],
           "risk_d1: risk that does not fall is caught", failures)
    expect(checks.check_rate(ns, [0.1, 0.08, 0.05], -0.1, worker.RATE_BAND) != [],
           "risk_d1: slope outside the band is caught", failures)
    expect(checks.check_close("replicate", 1.0 + 1e-6, 1.0) != [],
           "risk_d1: recomputed replicate mismatch is caught", failures)


def oracle_checks(failures: list[str]) -> None:
    wl = worker.OracleD2(SEED, worker.TOY)
    wl.setup()
    out = wl.round(0)
    expect(wl.check([out]) == [], "oracle_d2: checks pass on real output", failures)
    pts, rec = out[0]
    bad_lhs = dict(rec, lhs=rec["lhs"] * 1.01 + 1e-9)
    expect(checks.check_oracle_record(bad_lhs, pts, wl.scale.table_size) != [],
           "oracle_d2: perturbed lhs is caught", failures)
    bad_sel = dict(rec, selected=[1 - min(rec["selected"][0], 1)] + rec["selected"][1:])
    expect(checks.check_oracle_record(bad_sel, pts, wl.scale.table_size) != [],
           "oracle_d2: flipped selected exponent is caught", failures)
    expect(checks.check_oracle_record(dict(rec, holds=False), pts, wl.scale.table_size) != [],
           "oracle_d2: a failed bound is caught", failures)


def end_to_end(failures: list[str]) -> None:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = {0: {m["name"] for m in bench["end_to_end"]},
             1: {m["name"] for m in bench["per_layer"]}}
    for w in bench["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"],
                 "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
                 "--scale", "toy"], capture_output=True, text=True, timeout=600)
            ok = proc.returncode == 0
            if ok:
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                ok = (set(res) == {"correct", "attempted", "failed", "metrics"}
                      and res["correct"] and res["attempted"] >= 1 and res["failed"] == 0
                      and set(res["metrics"]) == names[trace])
            expect(ok, f"{w['name']} --trace {trace}: runs end to end at toy size "
                       f"{proc.stderr.strip()[-300:]}", failures)


def bare_directory_fails(failures: list[str]) -> None:
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(HERE, os.pardir, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "risk_d1",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "run.py fails without a result when src/ is absent", failures)
    shutil.rmtree(bare)


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    failures: list[str] = []
    for part in (estimate_checks, risk_checks, oracle_checks, end_to_end,
                 bare_directory_fails):
        part(failures)
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
