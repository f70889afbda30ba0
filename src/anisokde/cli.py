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
import math
import os
import sys
import time
from dataclasses import asdict
from typing import NamedTuple

import click
import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    ConstructionFailureError,
    EfficiencyError,
    InvalidParameterError,
    NumericError,
    VerificationError,
    _points,
)
from .estimator import (
    DEFAULT_TABLE_SIZE,
    _kappa_policy,
    build_dataset,
    estimate_on_grid,
    make_setup,
)
from .kernels import (
    _check_order_and_table,
    _unit_integral,
    build_base,
    build_composite,
    build_envelope,
    convolve_ratio,
)
from .quadrature import GridSpec


# ---------------------------------------------------------------------------
# formatting and atomic persistence

def _fmt(v) -> str:
    return str(v) if isinstance(v, int) else format(float(v), ".17g")


def _atomic_write(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _json_bytes(doc) -> bytes:
    """doc as sorted, indented JSON. Every output is built from native
    Python values (dict, list, tuple, str, int, float, bool, None), so
    it is dumped as given."""
    return (json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def _table_bytes(rows, sep: str, header: list[str] | None = None) -> bytes:
    """One line per row of int and float cells joined by sep, after the
    header line if one is given."""
    lines = [] if header is None else [sep.join(header)]
    lines += [sep.join(map(_fmt, row)) for row in rows]
    return "".join(line + "\n" for line in lines).encode("utf-8")


@contextlib.contextmanager
def _stage(timings: dict[str, float], name: str):
    """Record the wall time of the enclosed block as timings[name]."""
    t0 = time.perf_counter()
    yield
    timings[name] = time.perf_counter() - t0


class _Run:
    """Collects output files and wall times, then seals the manifest. The
    output directory (--out, else output.directory, else run-<command>)
    is made by the first write, so a run that stops before it leaves no
    directory."""

    def __init__(self, resolved: dict, command: str, flag: str | None):
        self.resolved, self.command = resolved, command
        self.outdir = flag or resolved["output"]["directory"] or f"run-{command}"
        self.formats = resolved["output"]["formats"]
        self.outputs: dict[str, str] = {}
        self.timings: dict[str, float] = {}

    def emit(self, rel: str, data: bytes) -> None:
        ext = rel.rsplit(".", 1)[-1]
        if ext not in self.formats:
            return
        path = os.path.join(self.outdir, rel)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        _atomic_write(path, data)
        self.outputs[rel] = hashlib.sha256(data).hexdigest()

    def finish(self) -> str:
        manifest = {
            "command": self.command,
            "version": __version__,
            "seed": int(self.resolved["seed"]),
            "resolved_config": self.resolved,
            "outputs": self.outputs,
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
        }
        os.makedirs(self.outdir, exist_ok=True)
        path = os.path.join(self.outdir, "manifest.json")
        _atomic_write(path, _json_bytes(manifest))
        return path


# ---------------------------------------------------------------------------
# configuration: one table per section

_REQUIRED = object()  # default of a key that must be given
_UNSET = object()  # default of a key a library constructor defaults itself


class _Key(NamedTuple):
    """A config key: its kind, its default, and for integers its least value."""

    kind: str
    default: object = None
    least: int | None = None


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    # a literal beyond the float range: 1e999 parses to infinity, and a
    # 400-digit integer has no float
    if _is_int(v):
        return abs(v) <= sys.float_info.max
    return isinstance(v, float) and math.isfinite(v)


def _list_of(check):
    return lambda v: isinstance(v, list) and all(check(u) for u in v)


_NUM, _POSITIVE = "finite number", "finite number > 0"
_NUMS, _POSITIVES, _INTS, _ROWS, _PAIRS = (
    "list of finite numbers", "list of finite numbers > 0", "list of integers",
    "list of finite number lists", "list of finite [lo, hi] pairs")
_FORMATS = "list of csv, json, dat"

_DENSITY_PARAMS = {
    "raised_cosine": {},
    "smoothed_uniform": {"delta": _Key(_NUM, _UNSET)},
    "bump_mixture": {"centers": _Key(_NUMS, _UNSET), "scales": _Key(_NUMS, _UNSET),
                     "weights": _Key(_NUMS, _UNSET)},
    "flat_top": {"N": _Key(_NUM, _REQUIRED), "kappa_scale": _Key(_NUM, 1.0)},
    "f_theta": {"N": _Key(_NUM, _REQUIRED), "theta": _Key(_NUM, _REQUIRED)},
}
_DENSITY_KIND = "one of " + ", ".join(_DENSITY_PARAMS)

_KINDS = {
    "int": _is_int,
    _NUM: _is_num,
    _POSITIVE: lambda v: _is_num(v) and v > 0,
    "str": lambda v: isinstance(v, str),
    "object": lambda v: isinstance(v, dict),
    _NUMS: _list_of(_is_num),
    _POSITIVES: _list_of(lambda v: _is_num(v) and v > 0),
    _INTS: _list_of(_is_int),
    _ROWS: _list_of(_list_of(_is_num)),
    _PAIRS: _list_of(lambda v: _list_of(_is_num)(v) and len(v) == 2),
    _FORMATS: _list_of(lambda v: v in ("csv", "json", "dat")),
    _DENSITY_KIND: lambda v: isinstance(v, str) and v in _DENSITY_PARAMS,
}

# Bounds that a library constructor checks (kernel order and table size,
# p, kappa, max_exponent, the density params, the risk plan) are left to it.
_SEED = _Key("int", 0, least=0)
_SECTIONS = {
    "kernel": {"ell": _Key("int", 1), "table_size": _Key("int", DEFAULT_TABLE_SIZE)},
    "density": {"kind": _Key(_DENSITY_KIND, _REQUIRED), "dim": _Key("int", 1),
                "params": _Key("object", {})},
    "class": {"beta": _Key(_NUMS, _REQUIRED), "r": _Key(_NUMS, _REQUIRED),
              "L": _Key(_NUMS, _REQUIRED), "M": _Key(_POSITIVE, 1.0),
              "theta": _Key(_NUM), "R": _Key(_POSITIVE, 1.0)},
    "estimator": {"p": _Key(_NUM, 2.0), "kappa": _Key(_NUM),
                  "max_exponent": _Key("int")},
    "estimate": {"box": _Key(_PAIRS), "grid_nodes": _Key("int", least=2),
                 "points": _Key(_ROWS)},
    "oracle": {"instances": _Key("int", 20, least=1), "n": _Key("int", 256, least=2),
               "nodes": _Key("int", 129, least=2)},
    "risk": {"n_schedule": _Key(_INTS, _REQUIRED), "replicates": _Key("int", _REQUIRED),
             "grid_nodes": _Key("int", 65, least=2)},
    "lowerbound": {"N": _Key(_NUM, _REQUIRED), "dim": _Key("int", 1, least=1),
                   "sigma": _Key(_POSITIVES, _REQUIRED),
                   "amplitude": _Key(_NUM, _REQUIRED),
                   "kappa_scale": _Key(_POSITIVE, 1.0),
                   "slice_nodes": _Key("int", 257, least=2)},
    "output": {"directory": _Key("str"), "formats": _Key(_FORMATS, ["csv", "json", "dat"])},
}

_READS = {
    "kernel-check": ("kernel", "output"),
    "estimate": ("kernel", "estimator", "estimate", "output"),
    "oracle": ("kernel", "estimator", "density", "oracle", "output"),
    "regime": ("estimator", "class", "output"),
    "lowerbound": ("lowerbound", "output"),
    "risk": ("kernel", "estimator", "density", "risk", "output"),
}


def _value(path: str, key: _Key, value, read: bool):
    """A checked value, its default when absent from a section the command
    reads, or _UNSET when it stays absent."""
    if value is None:
        if not read:
            return _UNSET
        if key.default is _REQUIRED:
            raise ConfigError(f"config key '{path}' is required")
        return key.default
    if not _KINDS[key.kind](value):
        raise ConfigError(f"config key '{path}' must be {key.kind}, got {value!r}")
    if key.least is not None and value < key.least:
        raise ConfigError(f"config key '{path}' must be >= {key.least}, got {value}")
    return value


def _table(path: str, table: dict, given: dict, read: bool) -> dict:
    unknown = [k for k in given if k not in table]
    if unknown:
        raise ConfigError(f"unknown config key '{path}.{unknown[0]}'")
    values = {k: _value(f"{path}.{k}", key, given.get(k), read) for k, key in table.items()}
    return {k: v for k, v in values.items() if v is not _UNSET}


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
    return doc


def _resolve(doc, command: str, seed_flag: int | None) -> dict:
    """The checked config of one run. Null means absent. Every given value
    is checked against the tables; the sections the command reads also get
    their required keys checked and every default written in, so the
    manifest records the exact experiment."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    unknown = [k for k in doc if k != "seed" and k not in _SECTIONS]
    if unknown:
        raise ConfigError(f"unknown config key '{unknown[0]}'")
    seed = doc.get("seed") if seed_flag is None else seed_flag
    out = {"seed": _value("seed", _SEED, seed, True)}
    for name, table in _SECTIONS.items():
        given, read = doc.get(name), name in _READS[command]
        if given is None and not read:
            continue
        if given is None and any(k.default is _REQUIRED for k in table.values()):
            raise ConfigError(f"command '{command}' needs config section '{name}'")
        if not isinstance(given, (dict, type(None))):
            raise ConfigError(f"config key '{name}' must be an object")
        out[name] = _table(name, table, given or {}, read)
    density = out.get("density", {})
    if "params" in density:
        if density.get("kind") is None:
            raise ConfigError("config key 'density.params' needs 'density.kind'")
        density["params"] = _table("density.params", _DENSITY_PARAMS[density["kind"]],
                                     density["params"], read="density" in _READS[command])
    return out


def _density(sec: dict):
    """The configured TrueDensity."""
    from .densities import build_f_theta, flat_top_density, smooth_product_density

    params = sec["params"]
    if sec["kind"] == "flat_top":
        return flat_top_density(params["N"], sec["dim"], params["kappa_scale"])
    if sec["kind"] == "f_theta":
        return build_f_theta(params["N"], params["theta"], sec["dim"])
    return smooth_product_density(sec["kind"], sec["dim"], params)


def _kernel_keys(resolved: dict, setup: bool = False) -> tuple[int, int]:
    """kernel.ell and kernel.table_size, checked against the kernel's bounds
    and, for a setup, the composite kernel's integral."""
    ell, table_size = resolved["kernel"]["ell"], resolved["kernel"]["table_size"]
    try:
        if setup:
            _unit_integral(build_composite(build_base(ell, table_size)))
        return _check_order_and_table(ell, table_size)
    except InvalidParameterError as exc:
        raise ConfigError(f"config key 'kernel.ell' or 'kernel.table_size': {exc}") from exc


def _kernel_args(resolved: dict) -> dict:
    ell, table_size = _kernel_keys(resolved, setup=True)
    return {"ell": ell, "table_size": table_size,
            "max_exponent": resolved["estimator"]["max_exponent"]}


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
    resolved = _resolve(load_config(config_path), "kernel-check", seed)
    run = _Run(resolved, "kernel-check", out_flag)
    ell, table_size = _kernel_keys(resolved)
    checks = []

    def record(name, value, bound):
        checks.append({"name": name, "value": float(value),
                       "bound": float(bound), "passed": bool(value <= bound)})

    with _stage(run.timings, "checks"):
        composite = build_composite(build_base(ell, table_size))
        record("integral_defect", abs(composite.profile.integral() - 1.0), 1e-6)
        for k in range(1, ell):
            record(f"moment_{k}_defect", abs(composite.profile.moment(k)), 1e-5)
        lo, hi = composite.profile.support()
        record("support_halfwidth", max(abs(lo), abs(hi)), 0.5)
        ts = np.linspace(-0.5, 0.5, 2001)
        record("symmetry_defect", np.abs(composite(ts) - composite(-ts)).max(), 1e-12)

        tables = [convolve_ratio(composite, 2.0 ** -k) for k in range(11)]
        env = build_envelope(tables, 1).factor.profile
        record("envelope_sup_excess",
               env.sup_norm() - composite.sup_norm ** 2, 1e-12)
        env_lo, env_hi = env.support()
        record("envelope_halfwidth", max(abs(env_lo), abs(env_hi)), 1.0)
        rng = np.random.default_rng(resolved["seed"])
        tt = np.linspace(-1.0, 1.0, 4001)
        worst = -np.inf
        for _ in range(20):
            conv = tables[rng.integers(0, len(tables))]
            worst = max(worst, float((np.abs(conv(tt)) - env(tt)).max()))
        record("domination_defect", worst, 1e-10)
    passed = all(c["passed"] for c in checks)
    run.emit("kernel_check.json", _json_bytes(
        {"ell": ell, "table_size": table_size, "passed": passed,
         "checks": checks}))
    run.finish()
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
    if sec["points"] is not None:
        mesh = _points(sec["points"], "estimate.points", dim)
    else:
        box, nodes = sec["box"], sec["grid_nodes"]
        if box is None or nodes is None:
            raise ConfigError(
                "estimate needs either 'points' or 'box' plus 'grid_nodes'")
        if len(box) != dim:
            raise ConfigError(
                f"estimate.box has {len(box)} axes but the data has {dim}")
        mesh = GridSpec(box=tuple((float(a), float(b)) for a, b in box),
                        nodes=(nodes,) * dim).mesh()
    return mesh


@cli.command("estimate")
@click.argument("data_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--clamp/--no-clamp", default=False, show_default=True,
              help="Clip negative estimates to zero after selection.")
@_run_options
def cmd_estimate(data_file, clamp, config_path, seed, threads, out_flag, header):
    """Fit the selector on a data file over the configured grid."""
    resolved = _resolve(load_config(config_path), "estimate", seed)
    run = _Run(resolved, "estimate", out_flag)
    with _stage(run.timings, "index"):
        data = build_dataset(_read_points(data_file))
    dim = data.dim
    mesh = _estimate_mesh(resolved["estimate"], dim)
    with _stage(run.timings, "kernel_tables"):
        setup = make_setup(data.n, dim, **_kernel_args(resolved))
    est = resolved["estimator"]
    policy = _kappa_policy(est["kappa"], dim, est["p"], setup.kernel.k_inf)
    with _stage(run.timings, "fit"):
        fits = estimate_on_grid(data, mesh, policy, setup, threads=threads)
    with _stage(run.timings, "write"):
        cols = ([f"x_{j + 1}" for j in range(dim)] + ["fhat"]
                + [f"k_{j + 1}" for j in range(dim)])
        rows = [list(f.x) + [max(f.estimate, 0.0) if clamp else f.estimate]
                + list(f.selected.exponents) for f in fits]
        run.emit("fits.csv", _table_bytes(rows, ",", cols if header else None))
    run.finish()
    click.echo(f"estimate: {len(fits)} fits ({data.n} points) -> {run.outdir}")


@cli.command("oracle")
@_run_options
def cmd_oracle(config_path, seed, threads, out_flag, header):
    """Check the pointwise error bound on seeded sampled instances."""
    from .densities import sample
    from .oracle import assert_oracle_inequality

    resolved = _resolve(load_config(config_path), "oracle", seed)
    run = _Run(resolved, "oracle", out_flag)
    sec = resolved["oracle"]
    instances, n, nodes = sec["instances"], sec["n"], sec["nodes"]
    density = _density(resolved["density"])
    with _stage(run.timings, "kernel_tables"):
        setup = make_setup(n, density.dim, **_kernel_args(resolved))
    est = resolved["estimator"]
    policy = _kappa_policy(est["kappa"], density.dim, est["p"], setup.kernel.k_inf)
    box = np.asarray(density.box, dtype=float)
    records = []
    with _stage(run.timings, "instances"):
        for i in range(instances):
            rng = np.random.default_rng(resolved["seed"] + i)
            data = sample(density, n, rng)
            x = rng.uniform(box[:, 0], box[:, 1])
            records.append(assert_oracle_inequality(
                data, density, x, policy, setup, nodes=nodes))
    holds = sum(1 for r in records if r["holds"])
    run.emit("oracle.json", _json_bytes(
        {"instances": instances, "n": n, "holds": holds,
         "all_hold": holds == instances, "records": records}))
    run.finish()
    if holds != instances:
        raise VerificationError(
            f"oracle inequality failed in {instances - holds}/{instances} "
            "instances")
    click.echo(f"oracle: {holds}/{instances} hold -> {run.outdir}")


@cli.command("regime")
@_run_options
def cmd_regime(config_path, seed, threads, out_flag, header):
    """Classify the rate regime for a smoothness class and norm index."""
    from .regimes import ClassSpec, TailSpec, classify, classify_tail, embedding, theta_star

    resolved = _resolve(load_config(config_path), "regime", seed)
    run = _Run(resolved, "regime", out_flag)
    sec = resolved["class"]
    spec = ClassSpec(beta=tuple(sec["beta"]), r=tuple(sec["r"]), L=tuple(sec["L"]), M=sec["M"])
    p = float(resolved["estimator"]["p"])
    report = classify(spec, p)
    # the field names are the JSON keys
    doc = {"p": p, **asdict(spec), **asdict(report), "embedding": asdict(embedding(spec, p))}
    if sec["theta"] is not None:
        tail = TailSpec(theta=sec["theta"], R=sec["R"])
        doc["tail"] = {"theta": tail.theta, **classify_tail(spec, p, tail)._asdict()}
    doc["theta_star"] = theta_star(spec, p)
    run.emit("regime.json", _json_bytes(doc))
    run.finish()
    click.echo(f"regime: zone={report.zone} nu={report.nu:.6g} -> {run.outdir}")


@cli.command("lowerbound")
@_run_options
def cmd_lowerbound(config_path, seed, threads, out_flag, header):
    """Build a packing and a perturbed hard density; write a slice."""
    from .densities import _wiggle_counts, build_perturbed, flat_top_density, vg_packing

    resolved = _resolve(load_config(config_path), "lowerbound", seed)
    run = _Run(resolved, "lowerbound", out_flag)
    sec = resolved["lowerbound"]
    slice_nodes, dim = sec["slice_nodes"], sec["dim"]
    with _stage(run.timings, "build"):
        # lowerbound.json records N and kappa_scale as floats; no constructor returns them
        N, kappa_scale, sigma = float(sec["N"]), float(sec["kappa_scale"]), tuple(sec["sigma"])
        base = flat_top_density(N, dim, kappa_scale)
        counts = _wiggle_counts(N, sigma, kappa_scale, dim)
        rng = np.random.default_rng(resolved["seed"])
        packing = vg_packing(math.prod(counts), rng)
        w = packing.members[0]
        density = build_perturbed(N, sigma, sec["amplitude"], w, dim, kappa_scale=kappa_scale)

    lo, hi = float(density.box[0, 0]), float(density.box[0, 1])
    xs = np.linspace(lo, hi, slice_nodes)
    pts = np.zeros((slice_nodes, dim))
    pts[:, 0] = xs
    run.emit("plot/fw_slice.dat", _table_bytes(zip(xs, density(pts), base(pts)), " "))
    run.emit("lowerbound.json", _json_bytes({
        "N": N, "dim": dim, "sigma": list(density.sigma), "amplitude": density.amplitude,
        "kappa_scale": kappa_scale, "wiggles_per_axis": list(counts),
        "packing": {"m": packing.m, "size": int(packing.members.shape[0]),
                    "min_hamming_distance": packing.min_distance},
        "sup_bound": density.sup_bound,
    }))
    run.finish()
    click.echo(
        f"lowerbound: packing {packing.members.shape[0]} members "
        f"(min distance {packing.min_distance}) -> {run.outdir}")


@cli.command("risk")
@_run_options
def cmd_risk(config_path, seed, threads, out_flag, header):
    """Monte-Carlo risk curve over the sample-size schedule."""
    from .risk import ExperimentPlan, default_grid, fit_rate, run_plan

    resolved = _resolve(load_config(config_path), "risk", seed)
    run = _Run(resolved, "risk", out_flag)
    sec = resolved["risk"]
    density = _density(resolved["density"])
    plan = ExperimentPlan(
        density=density,
        p=resolved["estimator"]["p"],
        n_schedule=tuple(sec["n_schedule"]),
        replicates=sec["replicates"],
        grid=default_grid(density, sec["grid_nodes"]),
        seed=resolved["seed"],
        kappa=resolved["estimator"]["kappa"],
        threads=threads,
        **_kernel_args(resolved),
    )
    report = run_plan(plan)
    run.timings.update(report.timings)
    doc = report.payload()
    if len(report.rows) >= 3 and all(r.risk > 0 for r in report.rows):
        fit = fit_rate(report)
        doc["rate_fit"] = {"slope": fit.slope, "intercept": fit.intercept,
                           "residual_stderr": fit.residual_stderr}
    else:
        doc["rate_fit"] = None
    run.emit("risk.csv", _table_bytes(
        [(r.n, r.mean_risk_p, r.stderr, r.risk) for r in report.rows], ",",
        ["n", "mean_risk_p", "stderr", "risk"] if header else None))
    run.emit("risk.json", _json_bytes(doc))
    run.emit("plot/risk.dat", _table_bytes(
        [(r.n, r.mean_risk_p, r.stderr) for r in report.rows], " "))
    run.finish()
    click.echo(f"risk: {len(report.rows)} schedule points -> {run.outdir}")


# ---------------------------------------------------------------------------
# entry point

def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
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
