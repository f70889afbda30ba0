"""Benchmark entry point for anisokde.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each run starts perfbench/worker.py in
a fresh process with one BLAS/OpenMP thread and the package's threads=1,
so every run pays the imports and cold kernel tables a CLI run pays.
The last line of standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s,
items_per_s, total_s, peak_rss_mb); with --trace 1 they are the
per-layer ones from a separate traced run. The line before it holds
the machine information. Results and span dumps go to perfbench/out/.
The exit code is non-zero, and no result is printed, when the worker
cannot run (for instance when src/anisokde is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER_TIMEOUT_S = 170.0
# Time of the worker's speed probe at the machine speed the reference
# figures in README.md were taken at; times are reported in these units.
REFERENCE_S = 0.13
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    probe = ("import json, numpy; c = numpy.show_config(mode='dicts'); "
             "b = c.get('Build Dependencies', {}).get('blas', {}); "
             "print(json.dumps({'numpy': numpy.__version__, "
             "'blas': f\"{b.get('name')} {b.get('version')}\"}))")
    info = {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}
    try:
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, timeout=60, env=worker_env())
        info.update(json.loads(out.stdout.strip().splitlines()[-1]))
    except (subprocess.SubprocessError, ValueError, IndexError):
        info.update({"numpy": "unknown", "blas": "unknown"})
    return info


def worker_env() -> dict:
    env = dict(os.environ, **SINGLE_THREAD)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def end_to_end(res: dict, t_spawn: float) -> dict:
    """The end-to-end metrics in reference seconds.

    Each timed segment is scaled by REFERENCE_S over the speed-probe time
    beside it: set-up by the median of the six probes around it, each
    round by the mean of the probes just before and after it. Set-up runs
    from just before the worker starts until its first item can start,
    less the probes before it; total_s is set-up plus one round (the
    CLI-equivalent job), with the round at the median of the run's rounds.
    """
    setup_s = ((res["t_setup"] - t_spawn - res["probe_before_setup_s"])
               * REFERENCE_S / statistics.median(res["setup_probe_s"]))
    flank = res["round_probe_s"]
    round_s = statistics.median(r * REFERENCE_S / (0.5 * (flank[i] + flank[i + 1]))
                                for i, r in enumerate(res["round_s"]))
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "items_per_s": {"value": res["items_per_round"] / round_s, "unit": "1/s"},
        "total_s": {"value": setup_s + round_s, "unit": "s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }


def per_layer_units() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "toy"), default="full",
                    help="toy sizes are for the self-test only")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "anisokde", "__init__.py")):
        print("run from a checkout root: src/anisokde not found", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", args.scale, "--out", out_dir]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), text=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"worker exceeded {WORKER_TIMEOUT_S:.0f} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(stdout.strip().splitlines()[-1])

    if args.trace:
        units = per_layer_units()
        metrics = {k: {"value": float(v), "unit": units[k]}
                   for k, v in sorted(res["per_layer"].items())}
    else:
        metrics = end_to_end(res, t_spawn)
    attempted = res["items_per_round"] * len(res["round_s"])
    result = {"correct": not res["problems"], "attempted": attempted, "failed": 0,
              "metrics": metrics}
    info = machine_info()
    with open(os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({**result, "problems": res["problems"], "machine": info,
                   "wall_setup_s": res["t_setup"] - t_spawn, "round_s": res["round_s"],
                   "setup_probe_s": res.get("setup_probe_s"),
                   "round_probe_s": res.get("round_probe_s"),
                   "rate_slope": res.get("rate_slope")},
                  fh, indent=1)
    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"machine": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
