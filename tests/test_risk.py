"""Monte-Carlo risk engine: grid norms, plans, replicates, rate fits."""

import math

import numpy as np
import pytest

from anisokde.densities import sample, smooth_product_density
from anisokde.errors import InvalidParameterError
from anisokde.estimator import estimate_on_grid
from anisokde.quadrature import GridSpec
from anisokde.risk import (
    ExperimentPlan,
    RiskReport,
    RiskRow,
    default_grid,
    fit_rate,
    lp_norm_on_grid,
    oracle_gap,
    risk_replicate,
    run_plan,
)


def small_plan(density, **overrides):
    kwargs = dict(
        density=density,
        p=2.0,
        n_schedule=(4, 8),
        replicates=2,
        grid=default_grid(density, 17),
        seed=11,
    )
    kwargs.update(overrides)
    return ExperimentPlan(**kwargs)


class TestDefaultGrid:
    def test_box_adds_unit_margin_each_side(self, rc1, rc2):
        for density in (rc1, rc2):
            grid = default_grid(density, 9)
            support = np.asarray(density.box, dtype=float)
            assert grid.dim == density.dim
            for j in range(density.dim):
                lo, hi = grid.box[j]
                assert lo == pytest.approx(support[j, 0] - 1.0, abs=1e-15)
                assert hi == pytest.approx(support[j, 1] + 1.0, abs=1e-15)

    def test_same_node_count_on_every_axis(self, rc2):
        assert default_grid(rc2, 33).nodes == (33, 33)

    def test_too_few_nodes_rejected(self, rc1):
        with pytest.raises(InvalidParameterError, match="nodes"):
            default_grid(rc1, 1)

    @pytest.mark.parametrize("nodes", [64.9, 33.0, np.float64(33)], ids=repr)
    def test_non_integer_node_count_is_named(self, rc1, nodes):
        # 64.9 used to give a grid of 64 nodes
        with pytest.raises(InvalidParameterError, match="nodes"):
            default_grid(rc1, nodes)

    def test_numpy_integer_node_count_is_accepted(self, rc2):
        grid = default_grid(rc2, np.int64(33))
        assert grid.nodes == (33, 33) and all(type(k) is int for k in grid.nodes)


class TestLpNormOnGrid:
    def test_linear_integrand_is_exact(self):
        # trapezoid is exact on piecewise-linear data, so no tolerance game
        grid = GridSpec(box=((0.0, 1.0),), nodes=(101,))
        x = grid.axes()[0]
        assert lp_norm_on_grid(x, np.zeros_like(x), 1.0, grid) == pytest.approx(
            0.5, abs=1e-14
        )

    def test_quadratic_converges_at_second_order(self):
        exact = math.sqrt(1.0 / 3.0)
        errs = []
        for nodes in (65, 129):
            grid = GridSpec(box=((0.0, 1.0),), nodes=(nodes,))
            x = grid.axes()[0]
            errs.append(abs(lp_norm_on_grid(x, np.zeros_like(x), 2.0, grid) - exact))
        # halving the step should cut the error by about four
        assert errs[1] < errs[0] / 3.0
        assert errs[1] < 1e-4

    def test_constant_fields_in_two_dims(self):
        grid = GridSpec(box=((0.0, 2.0), (0.0, 3.0)), nodes=(5, 4))
        a = np.full(grid.shape, 5.0)
        b = np.full(grid.shape, 2.0)
        expected = 3.0 * 6.0 ** (1.0 / 3.0)
        assert lp_norm_on_grid(a, b, 3.0, grid) == pytest.approx(expected, rel=1e-14)

    def test_flat_and_shaped_fields_agree(self):
        grid = GridSpec(box=((0.0, 1.0), (0.0, 1.0)), nodes=(7, 5))
        rng = np.random.default_rng(3)
        a = rng.uniform(size=grid.shape)
        b = rng.uniform(size=grid.shape)
        shaped = lp_norm_on_grid(a, b, 2.0, grid)
        flat = lp_norm_on_grid(a.ravel(), b.ravel(), 2.0, grid)
        assert flat == shaped

    def test_symmetric_in_arguments(self):
        grid = GridSpec(box=((0.0, 1.0),), nodes=(33,))
        rng = np.random.default_rng(5)
        a = rng.uniform(size=33)
        b = rng.uniform(size=33)
        assert lp_norm_on_grid(a, b, 1.5, grid) == lp_norm_on_grid(b, a, 1.5, grid)

    def test_shape_mismatch_rejected(self):
        grid = GridSpec(box=((0.0, 1.0),), nodes=(9,))
        with pytest.raises(InvalidParameterError, match="shape"):
            lp_norm_on_grid(np.zeros(8), np.zeros(9), 2.0, grid)

    def test_p_below_one_rejected(self):
        grid = GridSpec(box=((0.0, 1.0),), nodes=(9,))
        for p in (0.5, float("nan")):
            with pytest.raises(InvalidParameterError, match="p must be"):
                lp_norm_on_grid(np.zeros(9), np.zeros(9), p, grid)


class TestExperimentPlan:
    def test_coerces_fields_to_primitives(self, rc1):
        plan = small_plan(rc1, p=2, n_schedule=(np.int64(4), np.int64(8)))
        assert isinstance(plan.p, float)
        assert plan.n_schedule == (4, 8)
        assert all(isinstance(v, int) for v in plan.n_schedule)

    def test_setup_reflects_overrides(self, rc1):
        plan = small_plan(rc1)
        assert len(plan.setup_for(32).grid) == 6
        capped = small_plan(rc1, max_exponent=2)
        assert len(capped.setup_for(32).grid) == 3

    def test_default_policy_uses_quadratic_sup_norm(self, rc1):
        # flat-top kernel peaks at 2, so the scale is 4 * ((4d+2)p + 4(d+1))
        plan = small_plan(rc1)
        setup = plan.setup_for(8)
        assert plan.policy_for(setup).kappa == pytest.approx(80.0)

    def test_explicit_kappa_passes_through(self, rc1):
        plan = small_plan(rc1, kappa=0.25)
        setup = plan.setup_for(8)
        policy = plan.policy_for(setup)
        assert policy.kappa == 0.25
        assert policy.d == 1
        assert policy.p == 2.0

    def test_bad_p_rejected(self, rc1):
        for p in (0.9, float("inf")):
            with pytest.raises(InvalidParameterError, match="p must be"):
                small_plan(rc1, p=p)

    def test_empty_schedule_rejected(self, rc1):
        with pytest.raises(InvalidParameterError, match="non-empty"):
            small_plan(rc1, n_schedule=())

    def test_tiny_sample_size_rejected(self, rc1):
        with pytest.raises(InvalidParameterError, match=">= 2"):
            small_plan(rc1, n_schedule=(1, 4))

    @pytest.mark.parametrize("schedule", [(64.5, 128), (8.0, 16), (float("nan"), 16),
                                          (True, 16)], ids=repr)
    def test_non_integer_schedule_rejected(self, rc1, schedule):
        # (64.5, 128) was stored as (64, 128)
        with pytest.raises(InvalidParameterError, match="n_schedule entry must be an integer"):
            small_plan(rc1, n_schedule=schedule)

    def test_non_increasing_schedule_rejected(self, rc1):
        for schedule in ((8, 8), (8, 4)):
            with pytest.raises(InvalidParameterError, match="strictly increasing"):
                small_plan(rc1, n_schedule=schedule)

    def test_bad_replicates_rejected(self, rc1):
        for replicates in (1, 2.5):
            with pytest.raises(InvalidParameterError, match="replicates"):
                small_plan(rc1, replicates=replicates)

    def test_dimension_mismatch_rejected(self, rc1, rc2):
        with pytest.raises(InvalidParameterError, match="dim"):
            small_plan(rc1, grid=default_grid(rc2, 5))

    def test_grid_must_cover_support_plus_margin(self, rc1):
        (lo, hi), = np.asarray(rc1.box, dtype=float)
        bad = GridSpec(box=((lo - 0.25, hi + 1.0),), nodes=(9,))
        with pytest.raises(InvalidParameterError, match="margin"):
            small_plan(rc1, grid=bad)

    def test_bad_seed_rejected(self, rc1):
        for seed in (-1, 1.5):
            with pytest.raises(InvalidParameterError, match="seed"):
                small_plan(rc1, seed=seed)

    def test_bad_kappa_rejected(self, rc1):
        for kappa in (0.0, float("nan")):
            with pytest.raises(InvalidParameterError, match="kappa"):
                small_plan(rc1, kappa=kappa)

    def test_bad_threads_rejected(self, rc1):
        with pytest.raises(InvalidParameterError, match="threads"):
            small_plan(rc1, threads=0)


class TestPlanHash:
    def test_canonical_excludes_worker_count(self, rc1):
        payload = small_plan(rc1, threads=4).canonical()
        assert "threads" not in payload
        assert payload["n_schedule"] == [4, 8]
        assert payload["seed"] == 11

    def test_hash_is_thread_independent_and_stable(self, rc1):
        a = small_plan(rc1, threads=1)
        b = small_plan(rc1, threads=4)
        assert a.plan_hash == b.plan_hash
        assert a.plan_hash == small_plan(rc1).plan_hash
        assert len(a.plan_hash) == 64
        assert set(a.plan_hash) <= set("0123456789abcdef")

    def test_hash_tracks_content(self, rc1):
        base = small_plan(rc1)
        assert small_plan(rc1, seed=12).plan_hash != base.plan_hash
        assert small_plan(rc1, kappa=0.3).plan_hash != base.plan_hash

    def test_hash_tracks_density_params(self):
        # same support box, so only the density label tells the plans apart
        a = small_plan(smooth_product_density("bump_mixture", 1, {"weights": [0.5, 0.5]}))
        b = small_plan(smooth_product_density("bump_mixture", 1, {"weights": [0.3, 0.7]}))
        assert a.canonical()["density_box"] == b.canonical()["density_box"]
        assert a.plan_hash != b.plan_hash

    def test_raised_cosine_label_is_unchanged(self, rc1):
        # risk.json of raised-cosine plans keeps its bytes
        assert rc1.label == "raised_cosine(dim=1)"


class TestRiskReplicate:
    def test_same_seed_reproduces_exact_value(self, rc1):
        plan = small_plan(rc1, grid=default_grid(rc1, 21))
        first = risk_replicate(plan, 16, 7)
        second = risk_replicate(plan, 16, 7)
        assert first == second
        assert first > 0.0

    def test_different_seeds_differ(self, rc1):
        plan = small_plan(rc1, grid=default_grid(rc1, 21))
        assert risk_replicate(plan, 16, 7) != risk_replicate(plan, 16, 8)

    @pytest.mark.parametrize("n, seed, match", [
        (64.9, 0, "n must be an integer"),
        (float("nan"), 0, "n must be an integer"),
        (64, 0.5, "seed must be an integer"),
        (64, -1, "seed must be >= 0"),
        (True, 0, "n must be an integer"),
        (64, True, "seed must be an integer"),
    ], ids=["n_64.9", "n_nan", "seed_0.5", "seed_-1", "n_True", "seed_True"])
    def test_non_integer_or_negative_arguments_rejected(self, rc1, n, seed, match):
        # n = 64.9 ran at n = 64; seed = -1 ended in a raw numpy ValueError;
        # seed = True ran at seed 1
        with pytest.raises(InvalidParameterError, match=match):
            risk_replicate(small_plan(rc1), n, seed)

    def test_matches_manual_pipeline(self, rc1):
        # same draw, estimate on the mesh, integrate |err|^p; no p-th root
        plan = small_plan(rc1, grid=default_grid(rc1, 21))
        n, seed = 24, 123
        value = risk_replicate(plan, n, seed)

        data = sample(plan.density, n, np.random.default_rng(seed))
        setup = plan.setup_for(n)
        policy = plan.policy_for(setup)
        fits = estimate_on_grid(data, plan.grid.mesh(), policy, setup)
        est = np.array([f.estimate for f in fits]).reshape(plan.grid.shape)
        truth = np.asarray(plan.density.grid_values(plan.grid.axes()))
        manual = plan.grid.integrate_values(np.abs(est - truth) ** plan.p)
        assert value == pytest.approx(manual, rel=1e-12)


class TestRunPlan:
    def test_report_rows_match_replicate_calls(self, rc1):
        plan = small_plan(rc1)
        report = run_plan(plan)
        assert report.p == plan.p
        assert report.plan_hash == plan.plan_hash
        assert report.seed == plan.seed
        assert report.wall_time > 0.0
        assert tuple(r.n for r in report.rows) == plan.n_schedule

        counter = 0
        for row in report.rows:
            chunk = []
            for _ in range(plan.replicates):
                chunk.append(risk_replicate(plan, row.n, plan.seed + counter))
                counter += 1
            chunk = np.array(chunk)
            assert row.mean_risk_p == pytest.approx(chunk.mean(), rel=1e-12)
            assert row.stderr == pytest.approx(
                chunk.std(ddof=1) / np.sqrt(chunk.size), rel=1e-12
            )
            assert row.risk == pytest.approx(
                row.mean_risk_p ** (1.0 / plan.p), rel=1e-15
            )

    def test_rows_equal_replicate_calls_exactly(self, rc1):
        # run_plan shares one setup per n across its replicates; each
        # risk_replicate call builds its own, and the values agree bit for bit
        plan = small_plan(rc1, n_schedule=(4, 8, 16), replicates=3)
        report = run_plan(plan)
        seed = plan.seed
        for row in report.rows:
            chunk = np.array([risk_replicate(plan, row.n, seed + k)
                              for k in range(plan.replicates)])
            seed += plan.replicates
            assert row.mean_risk_p == float(chunk.mean())
            assert row.stderr == float(chunk.std(ddof=1) / np.sqrt(chunk.size))

    @pytest.mark.parametrize("dim, schedule, max_exponent, ratios", [
        (1, (4, 8, 16, 32), None, 6), (2, (4, 16), None, 5), (1, (8, 16), 3, 4)])
    def test_each_ratio_is_tabulated_once(self, monkeypatch, rc1, rc2, dim, schedule,
                                          max_exponent, ratios):
        # one q_r table per distinct ratio of the plan, shared by every n;
        # the rows still equal the means of risk_replicate values, each
        # of which builds its own set-up
        import anisokde.estimator as est
        import anisokde.kernels as kern
        import anisokde.risk as risk

        plan = small_plan(rc1 if dim == 1 else rc2, n_schedule=schedule,
                          max_exponent=max_exponent, table_size=64,
                          grid=default_grid(rc1 if dim == 1 else rc2, 9))
        calls, real = [], kern.convolve_ratio

        def counted(composite, r):
            calls.append(r)
            return real(composite, r)

        for module in (est, kern, risk):
            monkeypatch.setattr(module, "convolve_ratio", counted)
        report = run_plan(plan)
        assert sorted(calls) == sorted(set(calls)) and len(calls) == ratios
        monkeypatch.undo()
        seed = plan.seed
        for row in report.rows:
            chunk = np.array([risk_replicate(plan, row.n, seed + k)
                              for k in range(plan.replicates)])
            seed += plan.replicates
            assert row.mean_risk_p == float(chunk.mean())
            assert row.stderr == float(chunk.std(ddof=1) / np.sqrt(chunk.size))

    def test_payload_identical_across_thread_counts(self, rc1):
        serial = run_plan(small_plan(rc1, threads=1))
        threaded = run_plan(small_plan(rc1, threads=4))
        assert serial.payload() == threaded.payload()

    def test_extending_schedule_preserves_earlier_rows(self, rc1):
        short = run_plan(small_plan(rc1, n_schedule=(4, 8)))
        long = run_plan(small_plan(rc1, n_schedule=(4, 8, 16)))
        assert short.payload()["rows"] == long.payload()["rows"][:2]

    def test_payload_has_no_timing_fields(self, rc1):
        payload = run_plan(small_plan(rc1)).payload()
        assert set(payload) == {"p", "plan_hash", "seed", "rows"}
        for row in payload["rows"]:
            assert set(row) == {"n", "mean_risk_p", "stderr", "risk"}


class TestFitRate:
    @staticmethod
    def power_law_report(risks, ns):
        rows = tuple(
            RiskRow(n=int(n), mean_risk_p=r * r, stderr=0.0, risk=float(r))
            for n, r in zip(ns, risks)
        )
        return RiskReport(rows=rows, p=2.0, plan_hash="0" * 64, seed=0, wall_time=0.0)

    def test_exact_power_law_recovered(self):
        ns = (16, 64, 256, 1024)
        report = self.power_law_report([2.0 * n ** -0.4 for n in ns], ns)
        fit = fit_rate(report)
        assert fit.slope == pytest.approx(-0.4, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(2.0), abs=1e-12)
        assert fit.residual_stderr == pytest.approx(0.0, abs=1e-12)

    def test_noisy_power_law_within_tolerance(self):
        ns = tuple(16 * 4 ** k for k in range(6))
        rng = np.random.default_rng(0)
        risks = [2.0 * n ** -0.4 * math.exp(rng.uniform(-0.02, 0.02)) for n in ns]
        fit = fit_rate(self.power_law_report(risks, ns))
        assert fit.slope == pytest.approx(-0.4, abs=0.03)
        assert fit.residual_stderr > 0.0

    def test_needs_three_rows(self):
        report = self.power_law_report([0.5, 0.25], (16, 64))
        with pytest.raises(InvalidParameterError, match=">= 3"):
            fit_rate(report)

    def test_rejects_nonpositive_risk(self):
        report = self.power_law_report([0.5, 0.0, 0.1], (16, 64, 256))
        with pytest.raises(InvalidParameterError, match="positive"):
            fit_rate(report)


class TestOracleGap:
    def test_single_bandwidth_lattice_gives_unit_ratios(self, rc1):
        # one lattice entry: the selector and the best fixed choice coincide
        plan = small_plan(rc1, max_exponent=0, grid=default_grid(rc1, 21))
        report = oracle_gap(plan, 32, 3)
        assert report.ratios == (1.0, 1.0, 1.0)
        assert report.median == 1.0
        assert report.mean == 1.0
        assert report.min == 1.0
        assert report.max == 1.0

    def test_summaries_match_ratios_and_rerun_is_identical(self, rc1):
        plan = small_plan(rc1, kappa=0.05, grid=default_grid(rc1, 21))
        report = oracle_gap(plan, 32, 4)
        arr = np.array(report.ratios)
        assert len(report.ratios) == 4
        assert np.all(np.isfinite(arr)) and np.all(arr > 0)
        assert report.median == pytest.approx(float(np.median(arr)), rel=1e-15)
        assert report.mean == pytest.approx(float(arr.mean()), rel=1e-15)
        assert report.min == float(arr.min())
        assert report.max == float(arr.max())
        assert oracle_gap(plan, 32, 4).ratios == report.ratios

    def test_bad_arguments_rejected(self, rc1):
        plan = small_plan(rc1)
        with pytest.raises(InvalidParameterError, match="n must be"):
            oracle_gap(plan, 1, 2)
        for replicates in (0, 1.5):
            with pytest.raises(InvalidParameterError, match="replicates"):
                oracle_gap(plan, 16, replicates)

    @pytest.mark.parametrize("n", [64.7, float("nan"), float("inf")], ids=repr)
    def test_non_integer_n_rejected(self, rc1, n):
        # n = 64.7 ran at n = 64
        with pytest.raises(InvalidParameterError, match="n must be an integer"):
            oracle_gap(small_plan(rc1), n, 1)


class TestRiskBehavior:
    def test_quadrature_refinement_changes_little(self, rc1):
        values = []
        for nodes in (65, 129):
            plan = small_plan(rc1, grid=default_grid(rc1, nodes))
            values.append(risk_replicate(plan, 64, 5))
        assert values[1] == pytest.approx(values[0], rel=0.02)

    def test_risk_decreases_with_more_data(self, rc1):
        plan = small_plan(
            rc1,
            kappa=0.05,
            n_schedule=(64, 512),
            replicates=4,
            grid=default_grid(rc1, 33),
        )
        report = run_plan(plan)
        assert report.rows[1].risk < report.rows[0].risk
