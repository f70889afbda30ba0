"""Command line behavior: configs, outputs, exit codes, reproducibility."""

import copy
import json
import math
import os
import time

import numpy as np
import pytest

from anisokde.cli import _DENSITY_PARAMS, _READS, _SECTIONS, _SEED, cli, main
from anisokde.densities import build_dataset, build_f_theta
from anisokde.errors import EfficiencyError
from anisokde.estimator import make_setup, kappa_default, select_and_estimate
from anisokde.regimes import ClassSpec, embedding, theta_star
from anisokde.risk import ExperimentPlan, default_grid


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_json(*parts):
    with open(os.path.join(*parts)) as fh:
        return json.load(fh)


def toy_risk_config(tmp_path, **extra):
    doc = {
        "density": {"kind": "raised_cosine", "dim": 1},
        "estimator": {"kappa": 0.05},
        "risk": {"n_schedule": [4, 8], "replicates": 2, "grid_nodes": 17},
    }
    doc.update(extra)
    return write_config(tmp_path, doc)


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"bogus": {}})
        assert main(["kernel-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "unknown config key 'bogus'" in capsys.readouterr().err

    def test_unknown_nested_key_uses_dotted_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"estimator": {"bogus": 1}})
        assert main(["kernel-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "estimator.bogus" in capsys.readouterr().err

    def test_wrong_leaf_type_reported(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"kernel": {"ell": "two"}})
        assert main(["kernel-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "must be int" in capsys.readouterr().err

    @pytest.mark.parametrize("command, doc, key", [
        pytest.param("lowerbound", {"lowerbound": {"N": 16, "dim": 1, "sigma": ["a"],
                                                   "amplitude": 0.0625}},
                     "lowerbound.sigma", id="sigma-string"),
        pytest.param("lowerbound", {"lowerbound": {"N": 16, "dim": 1, "sigma": [True],
                                                   "amplitude": 0.0625}},
                     "lowerbound.sigma", id="sigma-bool"),
        pytest.param("regime", {"class": {"beta": ["x"], "r": [2.0], "L": [1.0]}},
                     "class.beta", id="beta-string"),
        pytest.param("regime", {"class": {"beta": [2.0], "r": [[2.0]], "L": [1.0]}},
                     "class.r", id="r-nested"),
        pytest.param("regime", {"class": {"beta": [2.0], "r": [2.0], "L": [1.0]},
                                "output": {"formats": [1]}},
                     "output.formats", id="formats-number"),
        pytest.param("risk", {"density": {"kind": "raised_cosine", "dim": 1},
                              "risk": {"n_schedule": [256.5, 512], "replicates": 2}},
                     "risk.n_schedule", id="schedule-float"),
        pytest.param("oracle", {"density": {"kind": "bump_mixture", "dim": 1,
                                            "params": {"centers": [["a"]]}}},
                     "density.params.centers", id="centers-nested"),
    ])
    def test_bad_list_entry_exits_naming_the_key(self, tmp_path, capsys, command, doc, key):
        out = tmp_path / "o"
        assert main([command, "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"config key '{key}'" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("estimate", [{"box": [["a", 1.0]], "grid_nodes": 5},
                                          {"points": [["a"]]}])
    def test_bad_estimate_rows_exit_naming_the_key(self, tmp_path, capsys, estimate):
        data = tmp_path / "d.txt"
        data.write_text("0.1\n0.2\n0.3\n")
        out = tmp_path / "o"
        assert main(["estimate", str(data), "--config",
                     write_config(tmp_path, {"estimate": estimate}), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"config key 'estimate.{next(iter(estimate))}'" in err
        assert not out.exists()

    def test_unknown_density_param(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"density": {"kind": "flat_top", "params": {"frob": 1}}}
        )
        assert main(["kernel-check", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "density.params.frob" in capsys.readouterr().err

    def test_invalid_json_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["regime", "--config", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_rejected(self, tmp_path, capsys, constant):
        path = tmp_path / "config.json"
        path.write_text('{"class": {"beta": [1.0], "r": [2.0], "L": [1.0]}, '
                        '"estimator": {"p": %s}}' % constant)
        assert main(["regime", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and f"holds {constant}" in err
        assert not (tmp_path / "o").exists()

    def test_missing_config_file(self, tmp_path):
        assert main(["regime", "--config", str(tmp_path / "absent.json")]) == 1

    def test_missing_required_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"density": {"kind": "raised_cosine"}})
        assert main(["risk", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "needs config section 'risk'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


# One small, fast config per command; the table-driven tests below change
# one key of it at a time.
TABLE_BASE = {
    "kernel-check": {"kernel": {"ell": 1, "table_size": 256}},
    "estimate": {"kernel": {"table_size": 256},
                 "estimate": {"box": [[-1.0, 1.0]], "grid_nodes": 5}},
    "oracle": {"density": {"kind": "raised_cosine", "dim": 1},
               "kernel": {"table_size": 256},
               "oracle": {"instances": 1, "n": 16, "nodes": 17}},
    "regime": {"class": {"beta": [1.0], "r": [2.0], "L": [1.0], "theta": 1.0}},
    "lowerbound": {"lowerbound": {"N": 16, "dim": 1, "sigma": [0.05],
                                  "amplitude": 0.0625, "slice_nodes": 33}},
    "risk": {"density": {"kind": "raised_cosine", "dim": 1},
             "estimator": {"kappa": 0.05}, "kernel": {"table_size": 256},
             "risk": {"n_schedule": [4, 8], "replicates": 2, "grid_nodes": 17}},
}
DENSITY_BASE_PARAMS = {
    "raised_cosine": {},
    "smoothed_uniform": {"delta": 0.25},
    "bump_mixture": {"centers": [-0.5, 0.5], "scales": [0.2, 0.2], "weights": [0.5, 0.5]},
    "flat_top": {"N": 16, "kappa_scale": 1.0},
    "f_theta": {"N": 16, "theta": 0.3},
}
NUMERIC_KINDS = {"int", "finite number", "finite number > 0", "list of finite numbers",
                 "list of finite numbers > 0", "list of integers",
                 "list of finite number lists", "list of finite [lo, hi] pairs"}
OTHER_KINDS = {"str", "object", "list of csv, json, dat",
               "one of raised_cosine, smoothed_uniform, bump_mixture, flat_top, f_theta"}


def read_keys():
    """(command, dotted key, key spec, base config) for every key each command reads."""
    for command, base in TABLE_BASE.items():
        yield command, "seed", _SEED, base
        for section in _READS[command]:
            for name, key in _SECTIONS[section].items():
                yield command, f"{section}.{name}", key, base
        if "density" in _READS[command]:
            for kind, table in _DENSITY_PARAMS.items():
                doc = copy.deepcopy(base)
                doc["density"] = {"kind": kind, "dim": 1, "params": DENSITY_BASE_PARAMS[kind]}
                for name, key in table.items():
                    yield command, f"density.params.{name}", key, doc


def bad_values(key):
    """Values outside the key's contract: a string or an overflowing literal
    for a number, a fraction and a huge float for an integer, and a value
    below its least."""
    list_kind = key.kind.startswith("list")
    if key.kind in NUMERIC_KINDS:
        yield "string", "2"
        if key.kind.endswith(("lists", "pairs")):
            yield "overflow", [[-1.0, math.inf]]
        else:
            yield "overflow", [math.inf] if list_kind else math.inf
    if key.kind in ("int", "list of integers"):
        for label, v in (("fraction", 1.5), ("huge", 1e308)):
            yield label, [v] if list_kind else v
    if key.least is not None:
        yield "below", key.least - 1
    if key.kind.endswith("> 0"):
        for label, v in (("zero", 0), ("negative", -1.0)):
            yield label, [v] if list_kind else v


def set_key(doc, dotted, value, remove=False):
    doc = copy.deepcopy(doc)
    *path, last = dotted.split(".")
    sec = doc
    for part in path:
        sec = sec.setdefault(part, {})
    if remove:
        sec.pop(last, None)
    else:
        sec[last] = value
    return doc


def run_config(tmp_path, command, doc, name):
    """Run command on doc; (exit code, output directory)."""
    out = tmp_path / name
    config = tmp_path / f"{name}.json"
    # JSON has no literal for infinity; 1e999 overflows to it on parsing
    config.write_text(json.dumps(doc).replace("Infinity", "1e999"))
    args = [command, "--config", str(config), "--out", str(out)]
    if command == "estimate":
        data = tmp_path / "points.txt"
        data.write_text("0.0\n0.25\n0.5\n")
        args.insert(1, str(data))
    return main(args), out


def case_id(command, dotted, base):
    kind = f"-{base['density']['kind']}" if ".params." in dotted else ""
    return f"{command}-{dotted}{kind}"


BAD_CASES = [
    pytest.param(command, dotted, value, base, id=f"{case_id(command, dotted, base)}-{label}")
    for command, dotted, key, base in read_keys()
    for label, value in bad_values(key)
] + [
    pytest.param("estimate", "estimate.box", [[0, 1, 2]], TABLE_BASE["estimate"],
                 id="estimate-estimate.box-triple"),
    pytest.param("estimate", "output.formats", ["xml"], TABLE_BASE["estimate"],
                 id="estimate-output.formats-xml"),
    pytest.param("regime", "output.formats", ["csv", "xml"], TABLE_BASE["regime"],
                 id="regime-output.formats-xml"),
    pytest.param("oracle", "density.kind", "gaussian", TABLE_BASE["oracle"],
                 id="oracle-density.kind-unknown"),
    pytest.param("risk", "density.kind", ["raised_cosine"], TABLE_BASE["risk"],
                 id="risk-density.kind-list"),
]


class TestConfigTable:
    def test_every_kind_is_covered(self):
        kinds = {key.kind for _, _, key, _ in read_keys()}
        assert kinds <= NUMERIC_KINDS | OTHER_KINDS

    @pytest.mark.parametrize("command, dotted, value, base", BAD_CASES)
    def test_bad_value_exits_naming_the_key(self, tmp_path, capsys, command, dotted, value,
                                            base):
        code, out = run_config(tmp_path, command, set_key(base, dotted, value), "o")
        err = capsys.readouterr().err
        assert code == 1
        assert f"config error: config key '{dotted}'" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, dotted, base", [
        pytest.param(command, dotted, base, id=case_id(command, dotted, base))
        for command, dotted, _, base in read_keys()
    ])
    def test_null_is_the_same_as_absent(self, tmp_path, capsys, command, dotted, base):
        code_a, out_a = run_config(tmp_path, command,
                                   set_key(base, dotted, None, remove=True), "absent")
        err_a = capsys.readouterr().err
        code_n, out_n = run_config(tmp_path, command, set_key(base, dotted, None), "null")
        err_n = capsys.readouterr().err
        assert (code_n, err_n) == (code_a, err_a)
        if code_a == 0:
            a = read_json(out_a, "manifest.json")
            b = read_json(out_n, "manifest.json")
            assert a["outputs"] == b["outputs"]
            assert a["resolved_config"] == b["resolved_config"]
        else:
            # a required key, or estimate's points-or-box rule
            assert code_a == 1 and ("required" in err_a or "'points' or 'box'" in err_a)
            assert not out_a.exists() and not out_n.exists()

    @pytest.mark.parametrize("kernel, key", [({"ell": 0}, "kernel.ell"),
                                             ({"table_size": 10}, "kernel.table_size")])
    def test_kernel_bounds_leave_no_directory(self, tmp_path, capsys, kernel, key):
        code, out = run_config(tmp_path, "kernel-check", {"kernel": kernel}, "o")
        err = capsys.readouterr().err
        assert code == 1 and "config error" in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["estimate", "oracle", "risk"])
    def test_kernel_off_unit_integral_names_its_keys(self, tmp_path, capsys, command):
        # the composite kernel of order 30 on 4096 steps integrates to 1 + 3.8e-3
        doc = copy.deepcopy(TABLE_BASE[command])
        doc["kernel"] = {"ell": 30, "table_size": 4096}
        code, out = run_config(tmp_path, command, doc, "o")
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert "config error: config key 'kernel.ell' or 'kernel.table_size'" in err
        assert "integrates to 1 +3.8e-03" in err
        assert not out.exists()

    def test_kernel_check_keeps_its_own_integral_bound(self, tmp_path, capsys):
        # a kernel off unit integral by 3.8e-3, which no setup takes, is
        # still checked and fails verification, not configuration
        code, out = run_config(tmp_path, "kernel-check",
                               {"kernel": {"ell": 30, "table_size": 4096}}, "o")
        assert code == 2 and "verification failure" in capsys.readouterr().err
        doc = read_json(out, "kernel_check.json")
        assert "integral_defect" in {c["name"] for c in doc["checks"] if not c["passed"]}

    @pytest.mark.parametrize("command", ["estimate", "oracle", "risk"])
    def test_kernel_bound_names_its_keys(self, tmp_path, capsys, command):
        doc = copy.deepcopy(TABLE_BASE[command])
        doc["kernel"]["ell"] = 0
        code, out = run_config(tmp_path, command, doc, "o")
        err = capsys.readouterr().err
        assert code == 1
        assert "config error: config key 'kernel.ell' or 'kernel.table_size'" in err
        assert not out.exists()

    def test_defaults_are_written_into_the_manifest(self, tmp_path):
        code, out = run_config(tmp_path, "regime", {"class": {"beta": [1.0], "r": [2.0],
                                                              "L": [1.0]}}, "o")
        assert code == 0
        resolved = read_json(out, "manifest.json")["resolved_config"]
        assert resolved["class"] == {"beta": [1.0], "r": [2.0], "L": [1.0], "M": 1.0,
                                     "theta": None, "R": 1.0}
        assert set(resolved) == {"seed", "estimator", "class", "output"}


class TestRegimeCommand:
    def test_dense_two_axis_values(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "class": {"beta": [1.0, 2.0], "r": [2.0, 2.0], "L": [1.0, 1.0]},
            "estimator": {"p": 3.0},
        })
        out = tmp_path / "run"
        assert main(["regime", "--config", cfg, "--out", str(out)]) == 0
        assert "zone=dense" in capsys.readouterr().out
        doc = read_json(out, "regime.json")
        assert doc["zone"] == "dense"
        assert doc["nu"] == pytest.approx(2.0 / 7.0, rel=1e-12)
        assert doc["mu_exponent"] == 0.0
        assert doc["alpha_log"] is False
        assert doc["beta_agg"] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert doc["s"] == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert "tail" not in doc

        spec = ClassSpec(beta=(1.0, 2.0), r=(2.0, 2.0), L=(1.0, 1.0), M=1.0)
        emb = embedding(spec, 3.0)
        assert doc["embedding"]["tau_p"] == pytest.approx(emb.tau_p, rel=1e-12)
        assert doc["embedding"]["upsilon"] == pytest.approx(emb.upsilon, rel=1e-12)
        assert doc["embedding"]["valid"] == emb.valid
        assert doc["theta_star"] == theta_star(spec, 3.0)

    def test_tail_zone_with_theta_family(self, tmp_path):
        cfg = write_config(tmp_path, {
            "class": {"beta": [1.0], "r": [2.0], "L": [1.0], "theta": 1.0},
            "estimator": {"p": 1.5},
        })
        out = tmp_path / "run"
        assert main(["regime", "--config", cfg, "--out", str(out)]) == 0
        doc = read_json(out, "regime.json")
        assert doc["zone"] == "tail"
        assert doc["nu"] == pytest.approx(2.0 / 9.0, rel=1e-12)
        assert doc["mu_exponent"] == pytest.approx(2.0 / 3.0, rel=1e-12)
        # the theta family is never worse than the plain tail rate
        assert doc["tail"]["theta"] == 1.0
        assert doc["tail"]["nu_theta"] == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert doc["tail"]["mu_theta_exponent"] == 0.0

    def test_class_section_required(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"estimator": {"p": 2.0}})
        assert main(["regime", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "'class'" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, key", [
        ({"M": 0}, "M"), ({"M": -1.0}, "M"), ({"theta": 1.0, "R": 0}, "R"),
        ({"theta": 1.0, "R": -2}, "R"),
    ])
    def test_explicit_bound_at_or_below_zero_is_rejected(self, tmp_path, capsys, extra, key):
        cfg = write_config(tmp_path, {
            "class": {"beta": [1.0], "r": [2.0], "L": [1.0], **extra},
        })
        out = tmp_path / "o"
        assert main(["regime", "--config", cfg, "--out", str(out)]) == 1
        assert f"class.{key}" in capsys.readouterr().err
        assert not out.exists()

    def test_beta_required(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"class": {"r": [2.0], "L": [1.0]}})
        assert main(["regime", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "class.beta" in capsys.readouterr().err

    @pytest.mark.parametrize("directory, expected", [("custom", "custom"), (None, "run-regime")])
    def test_without_out_writes_to_the_configured_directory(self, tmp_path, monkeypatch,
                                                            directory, expected):
        monkeypatch.chdir(tmp_path)
        cls = {"beta": [1.0], "r": [2.0], "L": [1.0]}
        cfg = write_config(tmp_path, {"class": cls, "output": {"directory": directory}})
        assert main(["regime", "--config", cfg]) == 0
        assert sorted(os.listdir(tmp_path)) == ["config.json", expected]
        assert sorted(os.listdir(tmp_path / expected)) == ["manifest.json", "regime.json"]
        # a run that stops at a bad key makes no directory
        bad = write_config(tmp_path, {"class": {**cls, "M": 0}, "output": {"directory": "o"}},
                           name="bad.json")
        assert main(["regime", "--config", bad]) == 1
        assert sorted(os.listdir(tmp_path)) == ["bad.json", "config.json", expected]


class TestEstimateCommand:
    @staticmethod
    def data_file(tmp_path, text, name="points.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_grid_fit_file_layout(self, tmp_path):
        data = self.data_file(
            tmp_path, "# two-dim sample\n\n0.1, 0.2\n0.3 0.4\n-0.2,0.0\n"
        )
        cfg = write_config(tmp_path, {
            "estimate": {"box": [[-1.0, 1.0], [-1.0, 1.0]], "grid_nodes": 5},
        })
        out = tmp_path / "run"
        assert main(["estimate", data, "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "fits.csv").read_text().splitlines()
        assert lines[0] == "x_1,x_2,fhat,k_1,k_2"
        assert len(lines) == 1 + 25
        cells = lines[1].split(",")
        assert len(cells) == 5
        float(cells[2])
        int(cells[3]), int(cells[4])

    def test_no_header_flag(self, tmp_path):
        data = self.data_file(tmp_path, "0.1\n0.4\n")
        cfg = write_config(tmp_path, {
            "estimate": {"box": [[-1.0, 1.0]], "grid_nodes": 7},
        })
        out = tmp_path / "run"
        args = ["estimate", data, "--config", cfg, "--out", str(out), "--no-header"]
        assert main(args) == 0
        lines = (out / "fits.csv").read_text().splitlines()
        assert len(lines) == 7
        float(lines[0].split(",")[0])

    def test_clamp_clips_negative_fits(self, tmp_path):
        # two close points under a sign-changing kernel go negative nearby
        data = self.data_file(tmp_path, "0.3\n0.31\n")
        cfg = write_config(tmp_path, {
            "kernel": {"ell": 2},
            "estimate": {"box": [[-1.5, 1.5]], "grid_nodes": 61},
        })

        def fhat_column(outdir):
            lines = (tmp_path / outdir / "fits.csv").read_text().splitlines()
            return [float(line.split(",")[1]) for line in lines[1:]]

        assert main(["estimate", data, "--config", cfg, "--out",
                     str(tmp_path / "raw")]) == 0
        raw = fhat_column("raw")
        assert min(raw) < 0.0

        assert main(["estimate", data, "--config", cfg, "--out",
                     str(tmp_path / "clamped"), "--clamp"]) == 0
        clamped = fhat_column("clamped")
        assert clamped == [max(v, 0.0) for v in raw]

    def test_explicit_points_match_library_fit(self, tmp_path):
        data = self.data_file(tmp_path, "0.0\n0.5\n")
        cfg = write_config(tmp_path, {"estimate": {"points": [[0.25]]}})
        out = tmp_path / "run"
        assert main(["estimate", data, "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "fits.csv").read_text().splitlines()
        assert len(lines) == 2
        x, fhat, k = lines[1].split(",")

        dataset = build_dataset(np.array([[0.0], [0.5]]))
        setup = make_setup(2, 1)
        policy = kappa_default(1, 2.0, setup.kernel.k_inf)
        fit = select_and_estimate(dataset, np.array([0.25]), policy, setup)
        assert float(x) == 0.25
        assert float(fhat) == pytest.approx(fit.estimate, rel=1e-15)
        assert int(k) == fit.selected.exponents[0]

    def test_empty_points_writes_header_only(self, tmp_path):
        data = self.data_file(tmp_path, "0.0\n0.5\n")
        cfg = write_config(tmp_path, {"estimate": {"points": []}})
        out = tmp_path / "run"
        assert main(["estimate", data, "--config", cfg, "--out", str(out)]) == 0
        assert (out / "fits.csv").read_text() == "x_1,fhat,k_1\n"

    def test_non_finite_point_rejected(self, tmp_path, capsys):
        data = self.data_file(tmp_path, "0.0\n0.5\n")
        # JSON has no literal for infinity; 1e999 overflows to it on parsing
        path = tmp_path / "config.json"
        path.write_text('{"kernel": {"table_size": 64}, '
                        '"estimate": {"points": [[0.25], [1e999]]}}')
        out = tmp_path / "o"
        assert main(["estimate", data, "--config", str(path),
                     "--out", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_lattice_rejected(self, tmp_path, capsys):
        # d=4 at n=4096 is a lattice of 13^4 bandwidths; its tables would
        # need tens of GB, so the run stops before creating anything
        rows = np.random.default_rng(0).uniform(-1, 1, size=(4096, 4))
        data = self.data_file(tmp_path, "".join(
            " ".join(f"{v:.6f}" for v in row) + "\n" for row in rows))
        cfg = write_config(tmp_path, {"estimate": {"points": [[0.0] * 4]}})
        out = tmp_path / "o"
        assert main(["estimate", data, "--config", cfg, "--out", str(out)]) == 1
        assert "MAX_LATTICE_BYTES" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_grid_rejected(self, tmp_path, capsys):
        # a 10^6 x 10^6 mesh would need terabytes: refused by name, no traceback
        data = self.data_file(tmp_path, "0.1 0.2\n-0.3 0.4\n0.5 -0.6\n")
        cfg = write_config(tmp_path, {"estimate": {"box": [[-1.0, 1.0], [-1.0, 1.0]],
                                                   "grid_nodes": 1000000}})
        out = tmp_path / "o"
        assert main(["estimate", data, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: nodes must") and "MAX_LATTICE_BYTES" in err
        assert "Traceback" not in err and not out.exists()

    def test_ragged_points_rejected(self, tmp_path, capsys):
        data = self.data_file(tmp_path, "0.0 0.1\n0.5 0.2\n")
        cfg = write_config(tmp_path, {
            "kernel": {"table_size": 64},
            "estimate": {"points": [[0.25, 0.0], [0.5]]},
        })
        out = tmp_path / "o"
        assert main(["estimate", data, "--config", cfg, "--out", str(out)]) == 1
        assert "estimate.points" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_times_each_stage(self, tmp_path):
        data = self.data_file(tmp_path, "0.0\n0.5\n")
        cfg = write_config(tmp_path, {
            "kernel": {"table_size": 64},
            "estimate": {"points": [[0.25], [0.1]]},
        })
        out = tmp_path / "run"
        assert main(["estimate", data, "--config", cfg, "--out", str(out)]) == 0
        timings = read_json(out, "manifest.json")["timings"]
        assert set(timings) == {"index", "kernel_tables", "fit", "write"}
        assert all(v >= 0.0 for v in timings.values())

    def test_bad_token_reports_line_number(self, tmp_path, capsys):
        data = self.data_file(tmp_path, "0.1\n0.2\nfrog\n")
        cfg = write_config(tmp_path, {"estimate": {"points": [[0.0]]}})
        assert main(["estimate", data, "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_ragged_rows_rejected(self, tmp_path, capsys):
        data = self.data_file(tmp_path, "0.1 0.2\n0.3\n")
        cfg = write_config(tmp_path, {"estimate": {"points": [[0.0, 0.0]]}})
        assert main(["estimate", data, "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "columns" in err

    def test_comment_only_file_rejected(self, tmp_path, capsys):
        data = self.data_file(tmp_path, "# nothing here\n")
        cfg = write_config(tmp_path, {"estimate": {"points": [[0.0]]}})
        assert main(["estimate", data, "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert "no points" in capsys.readouterr().err

    def test_box_axis_count_must_match_data(self, tmp_path, capsys):
        data = self.data_file(tmp_path, "0.1\n0.2\n")
        cfg = write_config(tmp_path, {
            "estimate": {"box": [[0.0, 1.0], [0.0, 1.0]], "grid_nodes": 5},
        })
        assert main(["estimate", data, "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert "2 axes" in capsys.readouterr().err

    def test_needs_points_or_box(self, tmp_path, capsys):
        data = self.data_file(tmp_path, "0.1\n")
        cfg = write_config(tmp_path, {"estimate": {}})
        assert main(["estimate", data, "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert "'points' or 'box'" in capsys.readouterr().err


class TestKernelCheckCommand:
    def test_fine_tables_pass(self, tmp_path):
        cfg = write_config(tmp_path, {"kernel": {"ell": 2}})
        out = tmp_path / "run"
        assert main(["kernel-check", "--config", cfg, "--out", str(out)]) == 0
        doc = read_json(out, "kernel_check.json")
        assert doc["passed"] is True
        names = {c["name"] for c in doc["checks"]}
        assert {"integral_defect", "moment_1_defect", "symmetry_defect",
                "domination_defect"} <= names
        assert all(c["passed"] for c in doc["checks"])

    def test_coarse_tables_fail_verification(self, tmp_path, capsys):
        # 64 subintervals cannot hold the integral defect under 1e-6
        cfg = write_config(tmp_path, {"kernel": {"ell": 3, "table_size": 64}})
        out = tmp_path / "run"
        assert main(["kernel-check", "--config", cfg, "--out", str(out)]) == 2
        assert "verification failure" in capsys.readouterr().err
        doc = read_json(out, "kernel_check.json")
        assert doc["passed"] is False
        failed = {c["name"] for c in doc["checks"] if not c["passed"]}
        assert "integral_defect" in failed
        assert os.path.exists(out / "manifest.json")


class TestOracleCommand:
    def test_small_suite_holds(self, tmp_path):
        cfg = write_config(tmp_path, {
            "density": {"kind": "raised_cosine", "dim": 1},
            "oracle": {"instances": 3, "n": 64, "nodes": 65},
        })
        out = tmp_path / "run"
        assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
        doc = read_json(out, "oracle.json")
        assert doc["holds"] == 3
        assert doc["all_hold"] is True
        assert len(doc["records"]) == 3
        assert all(r["holds"] for r in doc["records"])

    def test_sampling_failure_maps_to_exit_3(self, tmp_path, capsys, monkeypatch):
        def broken_sample(density, n, rng):
            raise EfficiencyError("acceptance rate collapsed")

        monkeypatch.setattr("anisokde.densities.sample", broken_sample)
        cfg = write_config(tmp_path, {
            "density": {"kind": "raised_cosine", "dim": 1},
            "oracle": {"instances": 1, "n": 16, "nodes": 33},
        })
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "numeric failure" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()  # the directory is made by the first write

    def test_f_theta_density(self, tmp_path):
        cfg = write_config(tmp_path, {
            "density": {"kind": "f_theta", "dim": 1, "params": {"N": 16, "theta": 0.5}},
            "kernel": {"table_size": 256},
            "oracle": {"instances": 3, "n": 64, "nodes": 33},
        })
        out = tmp_path / "run"
        assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
        doc = read_json(out, "oracle.json")
        assert doc["holds"] == 3
        # points are drawn on the mixture's box [-9, 9]
        assert 9 / 16 < max(abs(r["x"][0]) for r in doc["records"]) <= 9

    def test_d4_lattice_is_checked(self, tmp_path):
        # d=4 at n=256 is a lattice of 9^4 bandwidths: the oracle admits
        # what make_setup admits, reading its pair terms in row blocks
        cfg = write_config(tmp_path, {
            "density": {"kind": "raised_cosine", "dim": 4},
            "oracle": {"instances": 1, "n": 256, "nodes": 17},
        })
        out = tmp_path / "o"
        assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
        doc = read_json(out, "oracle.json")
        assert doc["holds"] == 1 and doc["all_hold"] and doc["records"][0]["holds"] is True

    def test_bad_instance_count(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "density": {"kind": "raised_cosine", "dim": 1},
            "oracle": {"instances": 0},
        })
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "instances" in capsys.readouterr().err

    @pytest.mark.parametrize("oracle, key, default", [
        ({"instances": 1, "n": None, "nodes": 17}, "n", 256),
        ({"instances": None, "n": 16, "nodes": 17}, "instances", 20),
    ])
    def test_null_count_means_the_default(self, tmp_path, oracle, key, default):
        cfg = write_config(tmp_path, {
            "density": {"kind": "raised_cosine", "dim": 1}, "oracle": oracle,
        })
        out = tmp_path / "run"
        assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
        assert read_json(out, "oracle.json")[key] == default
        assert read_json(out, "manifest.json")["resolved_config"]["oracle"][key] == default

    @pytest.mark.parametrize("nodes", [1, 0])
    def test_bad_node_count_leaves_no_directory(self, tmp_path, capsys, nodes):
        cfg = write_config(tmp_path, {
            "density": {"kind": "raised_cosine", "dim": 1},
            "oracle": {"instances": 1, "n": 16, "nodes": nodes},
        })
        out = tmp_path / "o"
        assert main(["oracle", "--config", cfg, "--out", str(out)]) == 1
        assert "oracle.nodes" in capsys.readouterr().err
        assert not out.exists()


class TestLowerboundCommand:
    CONFIG = {
        "seed": 0,
        "lowerbound": {"N": 16, "dim": 1, "sigma": [0.05], "amplitude": 0.0625,
                       "kappa_scale": 1.0, "slice_nodes": 101},
    }

    def test_packing_and_slice_outputs(self, tmp_path):
        cfg = write_config(tmp_path, self.CONFIG)
        out = tmp_path / "run"
        assert main(["lowerbound", "--config", cfg, "--out", str(out)]) == 0
        doc = read_json(out, "lowerbound.json")
        assert doc["wiggles_per_axis"] == [16]
        assert doc["packing"]["m"] == 16
        assert doc["packing"]["size"] >= 4
        assert doc["packing"]["min_hamming_distance"] >= 2
        assert doc["sup_bound"] > 0
        rows = (out / "plot" / "fw_slice.dat").read_text().splitlines()
        assert len(rows) == 101
        assert all(len(r.split()) == 3 for r in rows)

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, self.CONFIG)
        out = tmp_path / "run"
        assert main(["lowerbound", "--config", cfg, "--out", str(out),
                     "--seed", "5"]) == 0
        manifest = read_json(out, "manifest.json")
        assert manifest["seed"] == 5
        assert manifest["resolved_config"]["seed"] == 5

    @pytest.mark.parametrize("nodes", [1, 0])
    def test_bad_slice_node_count_leaves_no_directory(self, tmp_path, capsys, nodes):
        doc = {"lowerbound": dict(self.CONFIG["lowerbound"], slice_nodes=nodes)}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["lowerbound", "--config", cfg, "--out", str(out)]) == 1
        assert "lowerbound.slice_nodes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("dim", 0), ("dim", -1), ("kappa_scale", 0), ("kappa_scale", -0.5),
        ("sigma", [0.05, 0.0]),
    ])
    def test_explicit_value_at_or_below_zero_is_rejected(self, tmp_path, capsys, key, value):
        doc = {"lowerbound": dict(self.CONFIG["lowerbound"], **{key: value})}
        out = tmp_path / "o"
        assert main(["lowerbound", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 1
        assert f"lowerbound.{key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, default", [("dim", 1), ("kappa_scale", 1.0)])
    def test_null_means_the_default(self, tmp_path, key, default):
        doc = {"lowerbound": dict(self.CONFIG["lowerbound"], **{key: None})}
        out = tmp_path / "run"
        assert main(["lowerbound", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        assert read_json(out, "lowerbound.json")[key] == default
        assert read_json(out, "manifest.json")["resolved_config"]["lowerbound"][key] == default

    def test_rejected_packing_leaves_no_directory(self, tmp_path, capsys):
        doc = {"lowerbound": {"N": 16, "dim": 1, "sigma": [0.5], "amplitude": 1.0}}
        out = tmp_path / "o"
        assert main(["lowerbound", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_packing_too_big_to_check_is_refused_at_once(self, tmp_path, capsys):
        # packings of {0,1}^m with 2^(m/8) members, m = 121, 1024, 729, 4096
        # and 9261; from m = 4096 the pair count leaves the float range
        for N, dim in [(11, 2), (32, 2), (9, 3), (16, 3), (21, 3)]:
            doc = {"lowerbound": {"N": N, "dim": dim, "sigma": [0.05] * dim,
                                  "amplitude": 1e-5, "slice_nodes": 33}}
            out = tmp_path / "o"
            t0 = time.perf_counter()
            code = main(["lowerbound", "--config", write_config(tmp_path, doc),
                         "--out", str(out)])
            assert time.perf_counter() - t0 < 1.0
            err = capsys.readouterr().err
            assert code == 1 and "config error" in err and "MAX_LATTICE_BYTES" in err
            assert not out.exists()

    @pytest.mark.parametrize("N, dim, sigma, rule", [
        # sigma = 0.5 gives 1.6 wiggles, which rounded to a packing of {0,1}^2
        (16, 1, [0.5], "violated: sigma[0] <= 1/(20*kappa_scale)"),
        # 10.42 wiggles on axis 0, refused before a 5793-member packing is drawn
        (10, 2, [0.048, 0.05], "violated: N/(20*kappa_scale*sigma[0]) must be a positive integer"),
    ])
    def test_sigma_is_checked_before_the_packing(self, tmp_path, capsys, monkeypatch,
                                                 N, dim, sigma, rule):
        monkeypatch.setattr("anisokde.densities.vg_packing",
                            lambda *args: pytest.fail("the packing was drawn"))
        doc = {"lowerbound": {"N": N, "dim": dim, "sigma": sigma, "amplitude": 0.001}}
        out = tmp_path / "o"
        code = main(["lowerbound", "--config", write_config(tmp_path, doc), "--out", str(out)])
        assert code == 1 and rule in capsys.readouterr().err
        assert not out.exists()

    def test_largest_checked_packing_at_dim_2_runs(self, tmp_path):
        # N = 10: 10 x 10 wiggles, a packing of {0,1}^100; N = 11 is refused
        doc = {"lowerbound": {"N": 10, "dim": 2, "sigma": [0.05, 0.05],
                              "amplitude": 0.005, "slice_nodes": 33}}
        out = tmp_path / "run"
        assert main(["lowerbound", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        packing = read_json(out, "lowerbound.json")["packing"]
        assert packing == {"m": 100, "size": 5793, "min_hamming_distance": 25}

    # sha256 of each output as written when the packing check compared bytes
    HASHES = {
        1: {"lowerbound.json": "d135ab886cb2961ccac0a8d373496dbca2ae1aad88b774198466b4689394af26",
            "plot/fw_slice.dat": "d951cd40b76fddd1d78b561639ef652dfe797428d8c767d1babbd8cd6ac34ae2"},
        2: {"lowerbound.json": "c568550ed7810054a723a6c3e438139dc798e79a93f8e0b20baac354ba384917",
            "plot/fw_slice.dat": "21f551fed730e3b1de86381702dd3d2e915e913791c281ca01ee7c23d5e60da0"},
    }

    @pytest.mark.parametrize("threads", ["1", "3"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_outputs_keep_their_bytes(self, tmp_path, dim, threads):
        doc = self.CONFIG if dim == 1 else {
            "seed": 0, "lowerbound": {"N": 9, "dim": 2, "sigma": [0.05, 0.05],
                                      "amplitude": 0.01, "slice_nodes": 65}}
        out = tmp_path / "run"
        assert main(["lowerbound", "--config", write_config(tmp_path, doc), "--out", str(out),
                     "--threads", threads]) == 0
        assert read_json(out, "manifest.json")["outputs"] == self.HASHES[dim]

    def test_oversized_sigma_is_a_config_error(self, tmp_path, capsys):
        doc = {"lowerbound": {"N": 16, "dim": 1, "sigma": [0.5],
                              "amplitude": 1.0}}
        cfg = write_config(tmp_path, doc)
        assert main(["lowerbound", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err


class TestRiskCommand:
    @pytest.mark.parametrize("risk, message", [
        ({"n_schedule": [64, 32], "replicates": 2}, "strictly increasing"),
        ({"n_schedule": [4, 8], "replicates": 1}, "replicates"),
    ])
    def test_invalid_plan_rejected_before_output(self, tmp_path, capsys, risk, message):
        cfg = toy_risk_config(tmp_path, risk=risk)
        out = tmp_path / "o"
        assert main(["risk", "--config", cfg, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra, message", [
        pytest.param({"kernel": {"ell": 0}}, "kernel order", id="kernel"),
        pytest.param({"density": {"kind": "raised_cosine", "dim": 4},
                      "risk": {"n_schedule": [4096, 8192], "replicates": 2, "grid_nodes": 3}},
                     "MAX_LATTICE_BYTES", id="lattice"),
        pytest.param({"density": {"kind": "raised_cosine", "dim": 2},
                      "risk": {"n_schedule": [4, 8], "replicates": 2, "grid_nodes": 1000000}},
                     "nodes must keep the mesh", id="grid"),
    ])
    def test_rejected_setup_leaves_no_directory(self, tmp_path, capsys, extra, message):
        cfg = toy_risk_config(tmp_path, **extra)
        out = tmp_path / "o"
        assert main(["risk", "--config", cfg, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_f_theta_density(self, tmp_path):
        cfg = toy_risk_config(
            tmp_path, density={"kind": "f_theta", "dim": 1, "params": {"N": 16, "theta": 0.5}},
            kernel={"table_size": 256},
            risk={"n_schedule": [16, 32], "replicates": 2, "grid_nodes": 33})
        out = tmp_path / "run"
        assert main(["risk", "--config", cfg, "--out", str(out)]) == 0
        doc = read_json(out, "risk.json")
        plan = ExperimentPlan(density=build_f_theta(16, 0.5, 1), p=2.0, n_schedule=(16, 32),
                              replicates=2, grid=default_grid(build_f_theta(16, 0.5, 1), 33),
                              seed=0, kappa=0.05, table_size=256)
        assert doc["plan_hash"] == plan.plan_hash
        assert [r["n"] for r in doc["rows"]] == [16, 32]
        assert all(r["risk"] > 0 for r in doc["rows"])

    @pytest.mark.parametrize("nodes", [1, 0])
    def test_bad_grid_node_count_leaves_no_directory(self, tmp_path, capsys, nodes):
        cfg = toy_risk_config(tmp_path, risk={"n_schedule": [4, 8], "replicates": 2,
                                              "grid_nodes": nodes})
        out = tmp_path / "o"
        assert main(["risk", "--config", cfg, "--out", str(out)]) == 1
        assert "risk.grid_nodes" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_times_each_stage(self, tmp_path):
        cfg = toy_risk_config(tmp_path)
        out = tmp_path / "run"
        assert main(["risk", "--config", cfg, "--out", str(out)]) == 0
        timings = read_json(out, "manifest.json")["timings"]
        assert set(timings) == {"kernel_tables", "truth_grid", "replicates"}
        assert all(v >= 0.0 for v in timings.values())
        assert "timings" not in read_json(out, "risk.json")

    def test_toy_curve_files(self, tmp_path):
        cfg = toy_risk_config(tmp_path)
        out = tmp_path / "run"
        assert main(["risk", "--config", cfg, "--out", str(out),
                     "--threads", "2"]) == 0
        lines = (out / "risk.csv").read_text().splitlines()
        assert lines[0] == "n,mean_risk_p,stderr,risk"
        assert len(lines) == 3
        doc = read_json(out, "risk.json")
        assert [r["n"] for r in doc["rows"]] == [4, 8]
        assert doc["rate_fit"] is None  # two schedule points cannot fit a line
        dat = (out / "plot" / "risk.dat").read_text().splitlines()
        assert len(dat) == 2
        manifest = read_json(out, "manifest.json")
        assert set(manifest["outputs"]) == {"risk.csv", "risk.json",
                                            "plot/risk.dat"}
        for digest in manifest["outputs"].values():
            assert len(digest) == 64

    def test_rate_fit_appears_with_three_points(self, tmp_path):
        cfg = toy_risk_config(tmp_path)
        doc = read_json(cfg)
        doc["risk"]["n_schedule"] = [4, 8, 16]
        cfg = write_config(tmp_path, doc, name="three.json")
        out = tmp_path / "run"
        assert main(["risk", "--config", cfg, "--out", str(out)]) == 0
        fit = read_json(out, "risk.json")["rate_fit"]
        assert set(fit) == {"slope", "intercept", "residual_stderr"}
        assert all(isinstance(v, float) for v in fit.values())

    def test_formats_filter_limits_outputs(self, tmp_path):
        cfg = toy_risk_config(tmp_path, output={"formats": ["json"]})
        out = tmp_path / "run"
        assert main(["risk", "--config", cfg, "--out", str(out)]) == 0
        manifest = read_json(out, "manifest.json")
        assert set(manifest["outputs"]) == {"risk.json"}
        assert not os.path.exists(out / "risk.csv")
        assert not os.path.exists(out / "plot")


class TestReproducibility:
    def rerun_from_manifest(self, tmp_path, command, cfg, files, extra=()):
        first = tmp_path / "first"
        args = [command, *extra, "--config", cfg, "--out", str(first),
                "--threads", "1"]
        assert main(args) == 0
        second = tmp_path / "second"
        args = [command, *extra, "--config", str(first / "manifest.json"),
                "--out", str(second), "--threads", "3"]
        assert main(args) == 0
        for rel in files:
            assert (first / rel).read_bytes() == (second / rel).read_bytes()
        a = read_json(first, "manifest.json")
        b = read_json(second, "manifest.json")
        assert a["outputs"] == b["outputs"]
        assert a["resolved_config"] == b["resolved_config"]

    def test_risk_rerun_from_manifest_is_byte_identical(self, tmp_path):
        cfg = toy_risk_config(tmp_path)
        self.rerun_from_manifest(
            tmp_path, "risk", cfg,
            ["risk.csv", "risk.json", os.path.join("plot", "risk.dat")],
        )

    def test_lowerbound_rerun_from_manifest_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, TestLowerboundCommand.CONFIG)
        self.rerun_from_manifest(
            tmp_path, "lowerbound", cfg,
            ["lowerbound.json", os.path.join("plot", "fw_slice.dat")],
        )

    def test_kernel_check_rerun_from_manifest_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {"seed": 3, "kernel": {"ell": 2, "table_size": 512}})
        self.rerun_from_manifest(tmp_path, "kernel-check", cfg, ["kernel_check.json"])

    def test_oracle_rerun_from_manifest_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {
            "density": {"kind": "smoothed_uniform", "dim": 1},
            "kernel": {"table_size": 512},
            "oracle": {"instances": 2, "n": 32, "nodes": 33},
        })
        self.rerun_from_manifest(tmp_path, "oracle", cfg, ["oracle.json"])

    def test_regime_rerun_from_manifest_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {
            "class": {"beta": [1.0, 2.0], "r": [2.0, 2.0], "L": [1.0, 1.0], "theta": 0.5},
            "estimator": {"p": 3.0},
        })
        self.rerun_from_manifest(tmp_path, "regime", cfg, ["regime.json"])

    def test_estimate_rerun_from_manifest_is_byte_identical(self, tmp_path):
        data = tmp_path / "points.txt"
        data.write_text("0.0\n0.25\n0.5\n")
        cfg = write_config(tmp_path, {
            "estimate": {"box": [[-1.0, 1.5]], "grid_nodes": 21},
        })
        self.rerun_from_manifest(
            tmp_path, "estimate", cfg, ["fits.csv"], extra=[str(data)],
        )


class TestHelp:
    # a statement above a command's docstring leaves the command without
    # help, and --help then lists it with an empty summary
    COMMANDS = ["estimate", "kernel-check", "lowerbound", "oracle", "regime", "risk"]

    def test_group_help_lists_every_command_summary(self, capsys):
        assert main(["--help"]) == 0
        listing = capsys.readouterr().out.split("Commands:\n", 1)[1]
        rows = {line.split()[0]: line.split(None, 1)[1:] for line in listing.splitlines()}
        assert sorted(rows) == self.COMMANDS
        for name, summary in rows.items():
            doc = cli.commands[name].callback.__doc__
            assert doc and summary, name
            assert doc.startswith(summary[0].removesuffix("...")), name

    @pytest.mark.parametrize("name", COMMANDS)
    def test_command_help_prints_its_docstring(self, capsys, name):
        assert main([name, "--help"]) == 0
        doc = cli.commands[name].callback.__doc__
        assert doc and doc in capsys.readouterr().out
