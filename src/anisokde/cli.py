"""Config-driven command line: estimation, verification suites, regime
classification, hard-density generation, and risk sweeps.

Every run writes its outputs plus a manifest holding the fully resolved
configuration, the seed, and content hashes; feeding a manifest back in
as the config reproduces every output byte for byte; --threads is accepted
and validated but never changes results, and fits run on one thread.
Exit codes: 0 success, 1 usage or configuration, 2 verification failure,
3 numeric failure.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import time

import click
import numpy as np

from . import __version__
from .densities import (
    TrueDensity,
    build_f_theta,
    build_perturbed,
    flat_top_density,
    sample,
    smooth_product_density,
    vg_packing,
)
from .errors import (
    ConfigError,
    ConstructionFailureError,
    EfficiencyError,
    InvalidParameterError,
    NumericError,
    VerificationError,
)
from .estimator import (
    DEFAULT_TABLE_SIZE,
    KappaPolicy,
    build_dataset,
    estimate_on_grid,
    kappa_default,
    make_setup,
)
from .kernels import build_base, build_composite, build_majorant, convolve_ratio
from .oracle import assert_oracle_inequality
from .quadrature import GridSpec
from .regimes import ClassSpec, TailSpec, classify, classify_tail, embedding, theta_star
from .risk import ExperimentPlan, default_grid, fit_rate, run_plan


# ---------------------------------------------------------------------------
# formatting and atomic persistence

def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _atomic_write(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _json_bytes(obj) -> bytes:
    return (json.dumps(_jsonable(obj), sort_keys=True, indent=2,
                       ensure_ascii=False) + "\n").encode("utf-8")


def _csv_bytes(header: list[str], rows, include_header: bool) -> bytes:
    lines = []
    if include_header:
        lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")


def _dat_bytes(rows) -> bytes:
    return ("".join(" ".join(_fmt(v) for v in row) + "\n" for row in rows)
            ).encode("utf-8")


@contextlib.contextmanager
def _stage(timings: dict[str, float], name: str):
    """Record the wall time of the enclosed block as timings[name]."""
    t0 = time.perf_counter()
    yield
    timings[name] = time.perf_counter() - t0


class _Run:
    """Collects output files and wall times, then seals the manifest."""

    def __init__(self, outdir: str, formats: list[str]):
        self.outdir = outdir
        self.formats = formats
        self.outputs: dict[str, str] = {}
        self.timings: dict[str, float] = {}
        os.makedirs(outdir, exist_ok=True)

    def emit(self, rel: str, data: bytes) -> None:
        ext = rel.rsplit(".", 1)[-1]
        if ext not in self.formats:
            return
        path = os.path.join(self.outdir, rel)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        _atomic_write(path, data)
        self.outputs[rel] = hashlib.sha256(data).hexdigest()

    def finish(self, command: str, resolved: dict, seed: int) -> str:
        manifest = {
            "command": command,
            "version": __version__,
            "seed": int(seed),
            "resolved_config": resolved,
            "outputs": self.outputs,
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
        }
        path = os.path.join(self.outdir, "manifest.json")
        _atomic_write(path, _json_bytes(manifest))
        return path


# ---------------------------------------------------------------------------
# configuration schema

_DENSITY_PARAMS = {
    "raised_cosine": {},
    "smoothed_uniform": {"delta": "num"},
    "bump_mixture": {"centers": "list", "scales": "list", "weights": "list"},
    "flat_top": {"N": "num", "kappa_scale": "num"},
    "f_theta": {"N": "num", "theta": "num"},
}

_SCHEMA = {
    "seed": "int",
    "kernel": {"ell": "int", "table_size": "int"},
    "density": {"kind": "str", "dim": "int", "params": "params"},
    "class": {"beta": "list", "r": "list", "L": "list", "M": "num",
              "theta": "num", "R": "num"},
    "estimator": {"p": "num", "kappa": "num", "max_exponent": "int"},
    "estimate": {"box": "list", "grid_nodes": "int", "points": "list"},
    "oracle": {"instances": "int", "n": "int", "nodes": "int"},
    "risk": {"n_schedule": "list", "replicates": "int", "grid_nodes": "int"},
    "lowerbound": {"N": "num", "dim": "int", "sigma": "list",
                   "amplitude": "num", "kappa_scale": "num",
                   "slice_nodes": "int"},
    "output": {"directory": "str", "formats": "list"},
}

_KIND_CHECK = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "num": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "list": lambda v: isinstance(v, list),
}


def _check_leaf(path: str, kind: str, value) -> None:
    if value is None:
        return
    if not _KIND_CHECK[kind](value):
        raise ConfigError(f"config key '{path}' must be {kind}, got {value!r}")


def validate_config(doc: dict) -> None:
    """Reject anything outside the schema, naming the offending key."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    for key, value in doc.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key '{key}'")
        spec = _SCHEMA[key]
        if isinstance(spec, str):
            _check_leaf(key, spec, value)
            continue
        if not isinstance(value, dict):
            raise ConfigError(f"config key '{key}' must be an object")
        for sub, subval in value.items():
            if sub not in spec:
                raise ConfigError(f"unknown config key '{key}.{sub}'")
            if spec[sub] == "params":
                continue
            _check_leaf(f"{key}.{sub}", spec[sub], subval)
    params = (doc.get("density") or {}).get("params")
    if params is not None:
        kind = (doc.get("density") or {}).get("kind")
        allowed = _DENSITY_PARAMS.get(kind)
        if allowed is None:
            raise ConfigError(f"unknown density kind {kind!r}")
        if not isinstance(params, dict):
            raise ConfigError("config key 'density.params' must be an object")
        for sub, subval in params.items():
            if sub not in allowed:
                raise ConfigError(f"unknown config key 'density.params.{sub}'")
            _check_leaf(f"density.params.{sub}", allowed[sub], subval)


def load_config(path: str) -> dict:
    def reject(name: str):
        raise ConfigError(f"config {path!r} holds {name}; numbers must be finite")

    try:
        with open(path, "rb") as fh:
            doc = json.load(fh, parse_constant=reject)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if isinstance(doc, dict) and "resolved_config" in doc:
        doc = doc["resolved_config"]  # a manifest doubles as its own config
    validate_config(doc)
    return doc


def _section(doc: dict, name: str, command: str) -> dict:
    sec = doc.get(name)
    if sec is None:
        raise ConfigError(f"command '{command}' needs config section '{name}'")
    return dict(sec)


def _resolve(doc: dict, seed_flag: int | None) -> dict:
    """Materialize defaults so the manifest records the exact experiment."""
    out = {k: (dict(v) if isinstance(v, dict) else v) for k, v in doc.items()}
    if seed_flag is not None:
        out["seed"] = int(seed_flag)
    out.setdefault("seed", 0)
    kern = out.setdefault("kernel", {})
    kern.setdefault("ell", 1)
    kern.setdefault("table_size", DEFAULT_TABLE_SIZE)
    est = out.setdefault("estimator", {})
    est.setdefault("p", 2.0)
    est.setdefault("kappa", None)
    est.setdefault("max_exponent", None)
    outp = out.setdefault("output", {})
    outp.setdefault("directory", None)
    outp.setdefault("formats", ["csv", "json", "dat"])
    if "density" in out:
        out["density"].setdefault("dim", 1)
        out["density"].setdefault("params", {})
    validate_config(out)
    return out


def _build_density(sec: dict) -> TrueDensity:
    kind = sec.get("kind")
    dim = int(sec.get("dim", 1))
    params = dict(sec.get("params") or {})
    if kind in ("raised_cosine", "smoothed_uniform", "bump_mixture"):
        return smooth_product_density(kind, dim, params or None)
    if kind == "flat_top":
        if "N" not in params:
            raise ConfigError("density.params.N is required for flat_top")
        return flat_top_density(params["N"], dim, params.get("kappa_scale", 1.0))
    if kind == "f_theta":
        for need in ("N", "theta"):
            if need not in params:
                raise ConfigError(f"density.params.{need} is required for f_theta")
        return build_f_theta(params["N"], params["theta"], dim)
    raise ConfigError(f"unknown density kind {kind!r}")


def _policy(est: dict, dim: int, k_inf: float) -> KappaPolicy:
    p = float(est["p"])
    if est.get("kappa") is None:
        return kappa_default(dim, p, k_inf)
    return KappaPolicy(kappa=float(est["kappa"]), d=dim, p=p, k_inf=k_inf)


def _outdir(flag: str | None, resolved: dict, command: str) -> str:
    if flag:
        return flag
    configured = resolved["output"]["directory"]
    return configured if configured else f"run-{command}"


# ---------------------------------------------------------------------------
# commands

@click.group()
def cli() -> None:
    """Data-driven bandwidth selection toolkit."""


_CONFIG_OPT = click.option(
    "--config", "config_path", required=True,
    type=click.Path(exists=True, dir_okay=False),
    help="JSON experiment config (a manifest.json also works).")
_SEED_OPT = click.option("--seed", type=click.IntRange(min=0), default=None,
                         help="Override the config seed.")
_THREADS_OPT = click.option("--threads", type=click.IntRange(min=1),
                            default=1, show_default=True,
                            help="Accepted for compatibility; fits run on one "
                                 "thread and results never depend on it.")
_OUT_OPT = click.option("--out", "out_flag", type=click.Path(file_okay=False),
                        default=None, help="Output directory.")
_HEADER_OPT = click.option("--header/--no-header", default=True,
                           show_default=True, help="CSV header row.")


def _run_options(fn):
    for deco in (_HEADER_OPT, _OUT_OPT, _THREADS_OPT, _SEED_OPT, _CONFIG_OPT):
        fn = deco(fn)
    return fn


@cli.command("kernel-check")
@_run_options
def cmd_kernel_check(config_path, seed, threads, out_flag, header):
    """Verify kernel normalization, moments, and envelope domination."""
    resolved = _resolve(load_config(config_path), seed)
    run = _Run(_outdir(out_flag, resolved, "kernel-check"),
               resolved["output"]["formats"])
    t0 = time.perf_counter()
    ell = int(resolved["kernel"]["ell"])
    table_size = int(resolved["kernel"]["table_size"])
    composite = build_composite(build_base(ell, table_size))
    checks = []

    def record(name, value, bound):
        checks.append({"name": name, "value": float(value),
                       "bound": float(bound), "passed": bool(value <= bound)})

    record("integral_defect", abs(composite.profile.integral() - 1.0), 1e-6)
    for k in range(1, ell):
        record(f"moment_{k}_defect", abs(composite.profile.moment(k)), 1e-5)
    lo, hi = composite.profile.support()
    record("support_halfwidth", max(abs(lo), abs(hi)), 0.5)
    ts = np.linspace(-0.5, 0.5, 2001)
    record("symmetry_defect", np.abs(composite(ts) - composite(-ts)).max(), 1e-12)

    ratios = tuple(2.0 ** -k for k in range(11))
    env = build_majorant(composite, ratios, 1).per_dim_envelope[0]
    record("envelope_sup_excess",
           env.sup_norm() - composite.sup_norm ** 2, 1e-12)
    env_lo, env_hi = env.support()
    record("envelope_halfwidth", max(abs(env_lo), abs(env_hi)), 1.0)
    rng = np.random.default_rng(int(resolved["seed"]))
    tt = np.linspace(-1.0, 1.0, 4001)
    worst = -np.inf
    for _ in range(20):
        ratio = float(ratios[rng.integers(0, len(ratios))])
        conv = convolve_ratio(composite, ratio)
        worst = max(worst, float((np.abs(conv(tt)) - env(tt)).max()))
    record("domination_defect", worst, 1e-10)

    run.timings["checks"] = time.perf_counter() - t0
    passed = all(c["passed"] for c in checks)
    run.emit("kernel_check.json", _json_bytes(
        {"ell": ell, "table_size": table_size, "passed": passed,
         "checks": checks}))
    run.finish("kernel-check", resolved, resolved["seed"])
    if not passed:
        bad = ", ".join(c["name"] for c in checks if not c["passed"])
        raise VerificationError(f"kernel checks failed: {bad}")
    click.echo(f"kernel-check: {len(checks)} checks passed -> {run.outdir}")


def _read_points(path: str) -> np.ndarray:
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split(",") if "," in text else text.split()
            try:
                row = [float(tok) for tok in parts]
            except ValueError as exc:
                raise ConfigError(
                    f"data file {path!r} line {lineno}: {exc}") from exc
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ConfigError(
                    f"data file {path!r} line {lineno}: expected {width} "
                    f"columns, got {len(row)}")
            rows.append(row)
    if not rows:
        raise ConfigError(f"data file {path!r} contains no points")
    return np.asarray(rows, dtype=float)


def _estimate_mesh(sec: dict, dim: int) -> np.ndarray:
    """Evaluation points from estimate.points, or estimate.box and grid_nodes."""
    if sec.get("points") is not None:
        try:
            mesh = np.asarray(sec["points"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"estimate.points must be rows of {dim} coordinates") from exc
        if mesh.size == 0:
            mesh = np.empty((0, dim))
        if mesh.ndim != 2 or mesh.shape[1] != dim:
            raise ConfigError(
                f"estimate.points must be rows of {dim} coordinates")
        if not np.all(np.isfinite(mesh)):
            raise ConfigError("estimate.points must be finite")
    else:
        box = sec.get("box")
        nodes = sec.get("grid_nodes")
        if box is None or nodes is None:
            raise ConfigError(
                "estimate needs either 'points' or 'box' plus 'grid_nodes'")
        if len(box) != dim:
            raise ConfigError(
                f"estimate.box has {len(box)} axes but the data has {dim}")
        mesh = GridSpec(box=tuple((float(a), float(b)) for a, b in box),
                        nodes=(int(nodes),) * dim).mesh()
    return mesh


@cli.command("estimate")
@click.argument("data_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--clamp/--no-clamp", default=False, show_default=True,
              help="Clip negative estimates to zero after selection.")
@_run_options
def cmd_estimate(data_file, clamp, config_path, seed, threads, out_flag, header):
    """Fit the selector on a data file over the configured grid."""
    resolved = _resolve(load_config(config_path), seed)
    sec = _section(resolved, "estimate", "estimate")
    # every input is checked before the output directory exists
    timings: dict[str, float] = {}
    with _stage(timings, "index"):
        data = build_dataset(_read_points(data_file))
    dim = data.dim
    mesh = _estimate_mesh(sec, dim)
    with _stage(timings, "kernel_tables"):
        setup = make_setup(
            data.n, dim, ell=int(resolved["kernel"]["ell"]),
            table_size=int(resolved["kernel"]["table_size"]),
            max_exponent=resolved["estimator"]["max_exponent"])
    policy = _policy(resolved["estimator"], dim, setup.kernel.k_inf)
    run = _Run(_outdir(out_flag, resolved, "estimate"),
               resolved["output"]["formats"])
    run.timings.update(timings)
    with _stage(run.timings, "fit"):
        fits = estimate_on_grid(data, mesh, policy, setup, threads=threads)
    with _stage(run.timings, "write"):
        cols = ([f"x_{j + 1}" for j in range(dim)] + ["fhat"]
                + [f"k_{j + 1}" for j in range(dim)])
        rows = [list(f.x) + [max(f.estimate, 0.0) if clamp else f.estimate]
                + list(f.selected.exponents) for f in fits]
        run.emit("fits.csv", _csv_bytes(cols, rows, header))
    run.finish("estimate", resolved, resolved["seed"])
    click.echo(f"estimate: {len(fits)} fits ({data.n} points) -> {run.outdir}")


@cli.command("oracle")
@_run_options
def cmd_oracle(config_path, seed, threads, out_flag, header):
    """Check the pointwise error bound on seeded sampled instances."""
    resolved = _resolve(load_config(config_path), seed)
    sec = _section(resolved, "oracle", "oracle")
    density = _build_density(_section(resolved, "density", "oracle"))
    instances = int(sec.get("instances", 20))
    n = int(sec.get("n", 256))
    nodes = int(sec.get("nodes", 129))
    if instances < 1:
        raise ConfigError("oracle.instances must be >= 1")
    timings: dict[str, float] = {}
    with _stage(timings, "kernel_tables"):
        setup = make_setup(n, density.dim, ell=int(resolved["kernel"]["ell"]),
                           table_size=int(resolved["kernel"]["table_size"]),
                           max_exponent=resolved["estimator"]["max_exponent"])
    policy = _policy(resolved["estimator"], density.dim, setup.kernel.k_inf)
    run = _Run(_outdir(out_flag, resolved, "oracle"),
               resolved["output"]["formats"])
    run.timings.update(timings)
    box = np.asarray(density.box, dtype=float)
    records = []
    with _stage(run.timings, "instances"):
        for i in range(instances):
            rng = np.random.default_rng(int(resolved["seed"]) + i)
            data = sample(density, n, rng)
            x = rng.uniform(box[:, 0], box[:, 1])
            records.append(assert_oracle_inequality(
                data, density, x, policy, setup, nodes=nodes))
    holds = sum(1 for r in records if r["holds"])
    run.emit("oracle.json", _json_bytes(
        {"instances": instances, "n": n, "holds": holds,
         "all_hold": holds == instances, "records": records}))
    run.finish("oracle", resolved, resolved["seed"])
    if holds != instances:
        raise VerificationError(
            f"oracle inequality failed in {instances - holds}/{instances} "
            "instances")
    click.echo(f"oracle: {holds}/{instances} hold -> {run.outdir}")


@cli.command("regime")
@_run_options
def cmd_regime(config_path, seed, threads, out_flag, header):
    """Classify the rate regime for a smoothness class and norm index."""
    resolved = _resolve(load_config(config_path), seed)
    sec = _section(resolved, "class", "regime")
    for need in ("beta", "r", "L"):
        if sec.get(need) is None:
            raise ConfigError(f"config key 'class.{need}' is required")
    spec = ClassSpec(beta=tuple(sec["beta"]), r=tuple(sec["r"]),
                     L=tuple(sec["L"]), M=float(sec.get("M") or 1.0))
    p = float(resolved["estimator"]["p"])
    report = classify(spec, p)
    doc = {
        "p": p,
        "beta": list(spec.beta), "r": list(spec.r), "L": list(spec.L),
        "M": spec.M,
        "beta_agg": report.beta_agg, "s": report.s, "L_beta": report.L_beta,
        "zone": report.zone, "nu": report.nu,
        "mu_exponent": report.mu_exponent, "alpha_log": report.alpha_log,
        "note": report.note,
    }
    emb = embedding(spec, p)
    doc["embedding"] = {
        "tau_p": emb.tau_p, "tau_i": list(emb.tau_i),
        "gamma": list(emb.gamma), "q": list(emb.q),
        "gamma_agg": emb.gamma_agg, "upsilon": emb.upsilon,
        "L_gamma": emb.L_gamma, "valid": emb.valid,
    }
    if sec.get("theta") is not None:
        tail = TailSpec(theta=float(sec["theta"]),
                        R=float(sec.get("R") or 1.0))
        tc = classify_tail(spec, p, tail)
        doc["tail"] = {"theta": tail.theta, "nu_theta": tc.nu_theta,
                       "mu_theta_exponent": tc.mu_theta_exponent}
    doc["theta_star"] = theta_star(spec, p)
    run = _Run(_outdir(out_flag, resolved, "regime"),
               resolved["output"]["formats"])
    run.emit("regime.json", _json_bytes(doc))
    run.finish("regime", resolved, resolved["seed"])
    click.echo(f"regime: zone={report.zone} nu={report.nu:.6g} -> {run.outdir}")


@cli.command("lowerbound")
@_run_options
def cmd_lowerbound(config_path, seed, threads, out_flag, header):
    """Build a packing and a perturbed hard density; write a slice."""
    resolved = _resolve(load_config(config_path), seed)
    sec = _section(resolved, "lowerbound", "lowerbound")
    for need in ("N", "sigma", "amplitude"):
        if sec.get(need) is None:
            raise ConfigError(f"config key 'lowerbound.{need}' is required")
    run = _Run(_outdir(out_flag, resolved, "lowerbound"),
               resolved["output"]["formats"])
    t0 = time.perf_counter()
    N = float(sec["N"])
    dim = int(sec.get("dim") or 1)
    sigma = tuple(float(v) for v in sec["sigma"])
    amplitude = float(sec["amplitude"])
    kappa_scale = float(sec.get("kappa_scale") or 1.0)
    slice_nodes = int(sec.get("slice_nodes") or 257)
    base = flat_top_density(N, dim, kappa_scale)
    counts = tuple(
        int(round(N / (20.0 * kappa_scale * s))) for s in sigma)
    m = 1
    for c in counts:
        m *= c
    rng = np.random.default_rng(int(resolved["seed"]))
    packing = vg_packing(m, rng)
    w = packing.members[0]
    density = build_perturbed(N, sigma, amplitude, w, dim,
                              kappa_scale=kappa_scale)
    run.timings["build"] = time.perf_counter() - t0

    lo, hi = float(density.box[0, 0]), float(density.box[0, 1])
    xs = np.linspace(lo, hi, slice_nodes)
    pts = np.zeros((slice_nodes, dim))
    pts[:, 0] = xs
    rows = [(x, fv, bv) for x, fv, bv in
            zip(xs, density(pts), base(pts))]
    run.emit("plot/fw_slice.dat", _dat_bytes(rows))
    hamming = _min_hamming(packing.members)
    run.emit("lowerbound.json", _json_bytes({
        "N": N, "dim": dim, "sigma": list(sigma), "amplitude": amplitude,
        "kappa_scale": kappa_scale, "wiggles_per_axis": list(counts),
        "packing": {"m": packing.m, "size": int(packing.members.shape[0]),
                    "min_hamming_distance": hamming},
        "sup_bound": density.sup_bound,
    }))
    run.finish("lowerbound", resolved, resolved["seed"])
    click.echo(
        f"lowerbound: packing {packing.members.shape[0]} members "
        f"(min distance {hamming}) -> {run.outdir}")


def _min_hamming(members: np.ndarray) -> int:
    best = members.shape[1]
    for i in range(members.shape[0]):
        diff = members[i + 1:] != members[i]
        if diff.size:
            best = min(best, int(diff.sum(axis=1).min()))
    return best


@cli.command("risk")
@_run_options
def cmd_risk(config_path, seed, threads, out_flag, header):
    """Monte-Carlo risk curve over the sample-size schedule."""
    resolved = _resolve(load_config(config_path), seed)
    sec = _section(resolved, "risk", "risk")
    density = _build_density(_section(resolved, "density", "risk"))
    for need in ("n_schedule", "replicates"):
        if sec.get(need) is None:
            raise ConfigError(f"config key 'risk.{need}' is required")
    run = _Run(_outdir(out_flag, resolved, "risk"),
               resolved["output"]["formats"])
    t0 = time.perf_counter()
    plan = ExperimentPlan(
        density=density,
        p=float(resolved["estimator"]["p"]),
        n_schedule=tuple(int(v) for v in sec["n_schedule"]),
        replicates=int(sec["replicates"]),
        grid=default_grid(density, int(sec.get("grid_nodes") or 65)),
        seed=int(resolved["seed"]),
        kappa=resolved["estimator"]["kappa"],
        ell=int(resolved["kernel"]["ell"]),
        table_size=int(resolved["kernel"]["table_size"]),
        max_exponent=resolved["estimator"]["max_exponent"],
        threads=threads,
    )
    report = run_plan(plan)
    run.timings["replicates"] = time.perf_counter() - t0
    doc = report.payload()
    if len(report.rows) >= 3 and all(r.risk > 0 for r in report.rows):
        fit = fit_rate(report)
        doc["rate_fit"] = {"slope": fit.slope, "intercept": fit.intercept,
                           "residual_stderr": fit.residual_stderr}
    else:
        doc["rate_fit"] = None
    run.emit("risk.csv", _csv_bytes(
        ["n", "mean_risk_p", "stderr", "risk"],
        [(r.n, r.mean_risk_p, r.stderr, r.risk) for r in report.rows],
        header))
    run.emit("risk.json", _json_bytes(doc))
    run.emit("plot/risk.dat", _dat_bytes(
        [(r.n, r.mean_risk_p, r.stderr) for r in report.rows]))
    run.finish("risk", resolved, resolved["seed"])
    click.echo(f"risk: {len(report.rows)} schedule points -> {run.outdir}")


# ---------------------------------------------------------------------------
# entry point

def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.UsageError as exc:
        exc.show()
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except (ConfigError, InvalidParameterError) as exc:
        click.echo(f"config error: {exc}", err=True)
        return 1
    except VerificationError as exc:
        click.echo(f"verification failure: {exc}", err=True)
        return 2
    except (NumericError, EfficiencyError, ConstructionFailureError) as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        return 3


if __name__ == "__main__":
    sys.exit(main())
