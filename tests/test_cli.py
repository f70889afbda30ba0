"""Command line behavior: configs, outputs, exit codes, reproducibility."""

import json
import math
import os

import numpy as np
import pytest

from anisokde.cli import main
from anisokde.densities import build_dataset
from anisokde.errors import EfficiencyError
from anisokde.estimator import make_setup, kappa_default, select_and_estimate
from anisokde.regimes import ClassSpec, embedding, theta_star


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

    def test_beta_required(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"class": {"r": [2.0], "L": [1.0]}})
        assert main(["regime", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "class.beta" in capsys.readouterr().err


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

        monkeypatch.setattr("anisokde.cli.sample", broken_sample)
        cfg = write_config(tmp_path, {
            "density": {"kind": "raised_cosine", "dim": 1},
            "oracle": {"instances": 1, "n": 16, "nodes": 33},
        })
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_bad_instance_count(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "density": {"kind": "raised_cosine", "dim": 1},
            "oracle": {"instances": 0},
        })
        assert main(["oracle", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "instances" in capsys.readouterr().err


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

    def test_oversized_sigma_is_a_config_error(self, tmp_path, capsys):
        doc = {"lowerbound": {"N": 16, "dim": 1, "sigma": [0.5],
                              "amplitude": 1.0}}
        cfg = write_config(tmp_path, doc)
        assert main(["lowerbound", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 1
        assert "config error" in capsys.readouterr().err


class TestRiskCommand:
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
        doc = json.load(open(cfg))
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

    def test_estimate_rerun_from_manifest_is_byte_identical(self, tmp_path):
        data = tmp_path / "points.txt"
        data.write_text("0.0\n0.25\n0.5\n")
        cfg = write_config(tmp_path, {
            "estimate": {"box": [[-1.0, 1.5]], "grid_nodes": 21},
        })
        self.rerun_from_manifest(
            tmp_path, "estimate", cfg, ["fits.csv"], extra=[str(data)],
        )
