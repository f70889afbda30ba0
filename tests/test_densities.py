import numpy as np
import pytest

from anisokde.densities import (
    TrueDensity,
    _hamming,
    _profile_tables,
    _verify_packing,
    build_f_theta,
    build_perturbed,
    bump,
    bump_cdf,
    flat_top_density,
    g_profile,
    sample,
    smooth_product_density,
    strong_maximal,
    tail_quasi_norm,
    vg_packing,
)
from anisokde.errors import (
    ConstructionFailureError,
    EfficiencyError,
    InvalidParameterError,
    NumericError,
    VerificationError,
)
from anisokde.quadrature import GridSpec
from reference import g_lp_norm

KS_99 = 1.627  # one-sample Kolmogorov-Smirnov critical value at the 1% level


def ks_distance(draws: np.ndarray, cdf) -> float:
    xs = np.sort(draws)
    n = xs.size
    F = np.asarray(cdf(xs), dtype=float)
    up = np.max(np.arange(1, n + 1) / n - F)
    down = np.max(F - np.arange(0, n) / n)
    return max(up, down)


class TestBumpProfile:
    def test_unit_mass(self):
        xs = np.linspace(-1, 1, 200001)
        assert np.trapezoid(bump(xs), xs) == pytest.approx(1.0, abs=1e-8)

    def test_normalizer_against_independent_quadrature(self):
        xs = np.linspace(-1, 1, 500001)
        raw = np.exp(-1.0 / (1.0 - xs[1:-1] ** 2))
        total = np.trapezoid(raw, xs[1:-1])
        assert _profile_tables()[1] == pytest.approx(1.0 / total, rel=1e-8)

    def test_support_edges(self):
        assert np.array_equal(bump([-1.0, 1.0, -2.0, 3.0]), np.zeros(4))

    def test_cdf_endpoints_and_monotonicity(self):
        xs = np.linspace(-1.5, 1.5, 1001)
        F = bump_cdf(xs)
        assert F[0] == 0.0 and F[-1] == 1.0
        assert np.all(np.diff(F) >= 0)
        assert bump_cdf(0.0) == pytest.approx(0.5, abs=1e-12)

    def test_lazy_tables_equal_an_eager_build(self):
        from anisokde.densities import _profile_derivative_sups

        grid = np.linspace(-1.0, 1.0, (1 << 16) + 1)
        vals = np.zeros_like(grid)
        inside = np.abs(grid) < 1.0
        vals[inside] = np.exp(-1.0 / (1.0 - grid[inside] ** 2))
        dx = grid[1] - grid[0]
        cdf = np.concatenate([[0.0], np.cumsum((vals[1:] + vals[:-1]) * (0.5 * dx))])
        assert _profile_tables()[1] == 1.0 / cdf[-1]
        ts = np.linspace(-1.2, 1.2, 10001)
        assert np.array_equal(bump_cdf(ts), np.interp(ts, grid, cdf / cdf[-1]))
        t = grid[1:-1]
        lam = (1.0 / cdf[-1]) * vals[1:-1]
        u = 1.0 - t * t
        d1 = lam * (-2.0 * t / u**2)
        d2 = lam * ((2.0 * t / u**2) ** 2 - 2.0 / u**2 - 8.0 * t * t / u**3)
        assert _profile_derivative_sups() == (float(np.max(np.abs(d1))),
                                              float(np.max(np.abs(d2))))

    def test_raised_cosine_work_builds_no_bump_table(self):
        # a fresh process: importing the package and fitting, sampling and
        # bounding a raised-cosine density never reads the bump tables
        import os
        import subprocess
        import sys

        import anisokde

        script = (
            "import numpy as np, anisokde as ak\n"
            "from anisokde import densities\n"
            "f = ak.smooth_product_density('raised_cosine', 2)\n"
            "setup = ak.make_setup(64, 2, table_size=64)\n"
            "policy = ak.kappa_default(2, 2.0, setup.kernel.k_inf)\n"
            "data = ak.sample(f, 64, np.random.default_rng(0))\n"
            "ak.select_and_estimate(data, np.zeros(2), policy, setup)\n"
            "ak.assert_oracle_inequality(data, f, np.zeros(2), policy, setup, nodes=17)\n"
            "print(densities._profile_tables.cache_info().currsize,"
            " densities._profile_derivative_sups.cache_info().currsize)\n"
        )
        src = os.path.dirname(os.path.dirname(anisokde.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.split() == ["0", "0"]


class TestWiggleProfile:
    def test_odd_symmetry(self):
        xs = np.linspace(0, 2.5, 401)
        assert np.max(np.abs(g_profile(xs) + g_profile(-xs))) <= 1e-12

    def test_support_and_bound(self):
        assert np.array_equal(g_profile([-2.0, 2.0, -3.0, 2.5]), np.zeros(4))
        xs = np.linspace(-2, 2, 20001)
        assert np.max(np.abs(g_profile(xs))) <= 1.0 + 1e-12

    def test_zero_mean(self):
        xs = np.linspace(-2, 2, 200001)
        assert np.trapezoid(g_profile(xs), xs) == pytest.approx(0.0, abs=1e-8)

    def test_lp_norm_against_independent_quadrature(self):
        xs = np.linspace(-2, 2, 100001)
        for p in (1.0, 2.0, 3.5):
            brute = np.trapezoid(np.abs(g_profile(xs)) ** p, xs) ** (1 / p)
            assert g_lp_norm(p) == pytest.approx(brute, rel=1e-6)

    def test_norms_ordered(self):
        # on a set of width 4 with values <= 1, higher p means lower norm scale
        assert g_lp_norm(1.0) > g_lp_norm(2.0) > g_lp_norm(4.0) > 0

    def test_p_validation(self):
        with pytest.raises(InvalidParameterError):
            g_lp_norm(0.5)


class TestFlatTop:
    def test_plateau_height_and_flatness(self):
        f = flat_top_density(16.0, 2, 1.0)
        assert f(np.zeros(2)) == pytest.approx((1 / 16) ** 2, rel=1e-12)
        probe = np.array([[0.0, 0.0], [3.0, -2.0], [-6.9, 6.9], [5.0, 0.0]])
        vals = f(probe)
        assert np.max(np.abs(vals - vals[0])) <= 1e-14

    def test_support(self):
        f = flat_top_density(16.0, 1, 2.0)
        half = (8.0 + 1.0) / 2.0
        assert np.allclose(f.box, [[-half, half]])
        assert f(np.array([[half + 0.01]]))[0] == 0.0

    def test_unit_mass(self):
        f = flat_top_density(12.0, 1, 1.0)
        xs = np.linspace(f.box[0, 0], f.box[0, 1], 100001)
        assert np.trapezoid(f(xs[:, None]), xs) == pytest.approx(1.0, abs=1e-8)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            flat_top_density(8.0, 1, 1.0)
        with pytest.raises(InvalidParameterError):
            flat_top_density(16.0, 0, 1.0)
        with pytest.raises(InvalidParameterError):
            flat_top_density(16.0, 1, -1.0)


class TestPacking:
    def test_deterministic_for_a_seed(self):
        a = vg_packing(16, np.random.default_rng(3))
        b = vg_packing(16, np.random.default_rng(3))
        assert np.array_equal(a.members, b.members)

    def test_size_and_distance_guarantees(self):
        for m in (8, 16, 24):
            pack = vg_packing(m, np.random.default_rng(m))
            assert len(pack) >= 2 ** (m / 8.0) - 1e-9
            mem = pack.members
            for i in range(len(pack)):
                for j in range(i + 1, len(pack)):
                    assert (mem[i] != mem[j]).sum() >= m / 8.0

    def test_small_m_rejected(self):
        with pytest.raises(InvalidParameterError):
            vg_packing(7, np.random.default_rng(0))

    @pytest.mark.parametrize("m", [81, 100])
    def test_packed_distances_equal_bytewise_counts(self, m):
        # m is not a multiple of 8, so the last packed byte carries padding
        members = np.random.default_rng(m).integers(0, 2, size=(300, m), dtype=np.uint8)
        packed = np.packbits(members, axis=1)
        for i in range(members.shape[0]):
            assert np.array_equal(_hamming(packed, packed[i]),
                                  (members != members[i]).sum(axis=1))

    def test_packed_check_finds_one_close_pair(self):
        members = vg_packing(40, np.random.default_rng(1)).members.copy()
        assert _verify_packing(40, np.packbits(members, axis=1)) >= 5
        members[7] = members[3]
        members[7, 0] ^= 1  # distance 1 to member 3, and >= 4 to the rest
        with pytest.raises(VerificationError, match="distance 1 < m/8"):
            _verify_packing(40, np.packbits(members, axis=1))

    def test_largest_checked_packing_runs(self):
        # m = 104: 8192 members, 8192^2 * 13 bytes of packed pairs
        pack = vg_packing(104, np.random.default_rng(0))
        assert len(pack) == 8192 and pack.min_distance >= 13

    @pytest.mark.parametrize("m", [105, 121, 512, 4096, 9261])
    def test_packing_too_big_to_check_is_refused_before_drawing(self, m):
        # 2^(105/8) -> 8928 members: 8928^2 pairs of 14 packed bytes, about
        # 1.04 GiB; from m = 4096 the pair count passes the float range, and
        # from m = 8192 the member count too
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(InvalidParameterError, match="MAX_LATTICE_BYTES"):
            vg_packing(m, rng)
        assert rng.bit_generator.state == state


class TestPerturbedDensity:
    # sigma is capped at 1/(20*kappa_scale), so N = 16 needs >= 16 bumps
    def test_zero_vector_recovers_the_base(self):
        sigma = 16.0 / (20.0 * 16)
        f = build_perturbed(16.0, (sigma,), 1e-3, np.zeros(16), 1)
        base = flat_top_density(16.0, 1, 1.0)
        xs = np.linspace(-9, 9, 4001)[:, None]
        assert np.max(np.abs(f(xs) - base(xs))) == 0.0

    def test_perturbation_changes_only_wiggle_boxes(self):
        sigma = 16.0 / (20.0 * 16)
        w = np.zeros(16)
        w[2] = 1.0
        f = build_perturbed(16.0, (sigma,), 1e-3, w, 1)
        c = f.centers[0][2]
        assert f.perturbation(np.array([c + 0.5 * sigma])) > 0.0
        assert f.perturbation(np.array([c - 0.5 * sigma])) < 0.0
        assert f.perturbation(np.array([c + 3.0 * sigma])) == 0.0

    def test_mass_and_nonnegativity_hold_at_full_amplitude(self):
        sigma = 16.0 / (20.0 * 16)
        w = np.ones(16)
        f = build_perturbed(16.0, (sigma,), 1.0 / 16.0, w, 1)
        xs = np.linspace(f.box[0, 0], f.box[0, 1], 200001)
        vals = f(xs[:, None])
        assert np.min(vals) >= -1e-12
        assert np.trapezoid(vals, xs) == pytest.approx(1.0, abs=1e-6)

    def test_pairwise_distance_closed_form(self):
        sigma = 16.0 / (20.0 * 16)
        A = 1.0 / 32.0
        rng = np.random.default_rng(4)
        w1 = rng.integers(0, 2, size=16).astype(float)
        w2 = rng.integers(0, 2, size=16).astype(float)
        fa = build_perturbed(16.0, (sigma,), A, w1, 1)
        fb = build_perturbed(16.0, (sigma,), A, w2, 1)
        hamming = int(np.sum(w1 != w2))
        assert hamming > 0
        for p in (1.0, 2.0):
            xs = np.linspace(-9, 9, 400001)
            num = np.trapezoid(np.abs(fa(xs[:, None]) - fb(xs[:, None])) ** p, xs)
            closed = (A**p) * hamming * sigma * g_lp_norm(p) ** p
            assert num ** (1 / p) == pytest.approx(closed ** (1 / p), rel=1e-2)

    def test_index_map(self):
        sigma = 16.0 / (20.0 * 16)
        f = build_perturbed(16.0, (sigma, sigma), 1e-4, np.zeros(256), 2)
        assert f.pi((1, 1)) == 0
        assert f.pi((1, 2)) == 1
        assert f.pi((2, 1)) == 16
        assert f.pi((16, 16)) == 255
        with pytest.raises(InvalidParameterError):
            f.pi((0, 1))
        with pytest.raises(InvalidParameterError):
            f.pi((17, 1))

    def test_feasibility_violations_named(self):
        ok_sigma = 16.0 / (20.0 * 16)
        with pytest.raises(InvalidParameterError, match="sigma"):
            build_perturbed(16.0, (0.2,), 1e-3, np.zeros(10), 1)
        with pytest.raises(InvalidParameterError, match="integer"):
            build_perturbed(16.0, (0.03,), 1e-3, np.zeros(26), 1)
        with pytest.raises(InvalidParameterError, match="plateau"):
            build_perturbed(16.0, (ok_sigma,), 1.0, np.zeros(16), 1)
        with pytest.raises(InvalidParameterError, match="N must be > 8"):
            build_perturbed(6.0, (ok_sigma,), 1e-3, np.zeros(16), 1)
        with pytest.raises(InvalidParameterError, match="length"):
            build_perturbed(16.0, (ok_sigma,), 1e-3, np.zeros(9), 1)
        with pytest.raises(InvalidParameterError, match="0/1"):
            build_perturbed(16.0, (ok_sigma,), 1e-3, np.full(16, 2.0), 1)

    @pytest.mark.parametrize("entry", [1.5, 257.0, "1", 0.7, float("nan")])
    def test_w_entries_are_checked_as_given(self, entry):
        # a cast to int8 ran first: 1.5, 257.0 and "1" were stored as 1,
        # 0.7 and nan as 0
        w = [0.0] * 16
        w[3] = entry
        with pytest.raises(InvalidParameterError, match="^w must be a 0/1 vector"):
            build_perturbed(16.0, (16.0 / (20.0 * 16),), 1e-3, w, 1)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, bool, float])
    def test_w_of_any_numeric_type_is_stored_as_floats(self, dtype):
        w = np.zeros(16, dtype=dtype)
        w[3] = 1
        f = build_perturbed(16.0, (16.0 / (20.0 * 16),), 1e-3, w, 1)
        assert f.w.dtype == float and f.w.tolist() == w.astype(float).tolist()


class TestTailFamily:
    def test_theta_one_is_the_plain_flat_top(self):
        f = build_f_theta(16.0, 1.0, 1)
        assert f.components is None
        assert f.marginals is not None
        assert f(np.zeros(1)) == pytest.approx(1 / 16, rel=1e-12)

    def test_mixture_weights_and_mass(self):
        f = build_f_theta(16.0, 0.5, 1)
        weights = [w for w, _ in f.components]
        assert weights[0] == pytest.approx(1 - 1 / 16)
        assert weights[1] == pytest.approx(1 / 16)
        xs = np.linspace(f.box[0, 0], f.box[0, 1], 400001)
        assert np.trapezoid(f(xs[:, None]), xs) == pytest.approx(1.0, abs=1e-6)

    def test_concentrated_part_is_narrower_and_taller(self):
        f = build_f_theta(16.0, 0.5, 1)
        narrow_w, narrow = f.components[0]
        tall_w, tall = f.components[1]
        assert tall.sup_bound > narrow.sup_bound
        assert tall.box[0, 1] < narrow.box[0, 1]

    def test_grid_values_equal_pointwise_evaluation(self):
        # the risk truth grid and strong_maximal read a mixture through
        # its components' grid values
        f = build_f_theta(16, 0.5, 2)
        axes = [np.linspace(-9.5, 9.5, 39), np.linspace(-0.75, 0.75, 25)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
        values = f.grid_values(axes)
        assert values.max() > 2 * values[values > 0].min()  # both parts are on the grid
        assert np.array_equal(values, f(mesh).reshape(39, 25))

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            build_f_theta(16.0, 0.0, 1)
        with pytest.raises(InvalidParameterError):
            build_f_theta(16.0, 1.5, 1)
        with pytest.raises(InvalidParameterError):
            build_f_theta(8.0, 0.5, 1)


class TestSampling:
    def test_deterministic_and_sized(self, rc2):
        a = sample(rc2, 64, np.random.default_rng(9))
        b = sample(rc2, 64, np.random.default_rng(9))
        assert np.array_equal(a.points, b.points)
        assert a.n == 64 and a.dim == 2

    def test_empty_draw(self, rc1):
        data = sample(rc1, 0, np.random.default_rng(0))
        assert data.n == 0

    def test_negative_count_rejected(self, rc1):
        with pytest.raises(InvalidParameterError):
            sample(rc1, -1, np.random.default_rng(0))

    def test_seed_for_a_generator_rejected(self, rc1):
        # raised a raw AttributeError: 'int' object has no attribute 'random'
        with pytest.raises(InvalidParameterError, match="^rng must be a numpy.random.Generator"):
            sample(rc1, 10, 5)

    def test_product_sampler_marginals(self, rc2):
        data = sample(rc2, 4096, np.random.default_rng(21))
        marg = rc2.marginals[0]
        for j in range(2):
            d = ks_distance(data.points[:, j], marg.cdf)
            assert d <= KS_99 / np.sqrt(4096)

    def test_mixture_sampler(self):
        f = build_f_theta(16.0, 0.5, 1)

        def cdf(x):
            out = 0.0
            for w, comp in f.components:
                out = out + w * comp.marginals[0].cdf(x)
            return out

        data = sample(f, 4096, np.random.default_rng(33))
        assert ks_distance(data.points[:, 0], cdf) <= KS_99 / np.sqrt(4096)

    def test_rejection_sampler(self, rc1):
        f = TrueDensity(
            label="opaque",
            dim=1,
            box=rc1.box,
            sup_bound=2.0,
            pdf_fn=lambda pts: rc1._eval(pts),
        )
        data = sample(f, 4096, np.random.default_rng(41))
        assert ks_distance(data.points[:, 0], rc1.marginals[0].cdf) <= KS_99 / 64.0

    def test_rejection_efficiency_guard(self, rc1):
        bloated = TrueDensity(
            label="bloated",
            dim=1,
            box=rc1.box,
            sup_bound=1e6,
            pdf_fn=lambda pts: rc1._eval(pts),
        )
        with pytest.raises(EfficiencyError):
            sample(bloated, 512, np.random.default_rng(5))

    def test_rejection_envelope_guard(self, rc1):
        lying = TrueDensity(
            label="lying",
            dim=1,
            box=rc1.box,
            sup_bound=1.0,  # true peak is 2
            pdf_fn=lambda pts: rc1._eval(pts),
        )
        with pytest.raises(NumericError):
            sample(lying, 512, np.random.default_rng(5))


class TestStrongMaximal:
    def test_plateau_value_is_exact(self):
        f = flat_top_density(16.0, 1, 1.0)
        grid = GridSpec(box=((-12.0, 12.0),), nodes=(961,))
        field = strong_maximal(f, grid, (0.25, 0.5, 1.0))
        mid = np.argmin(np.abs(grid.axes()[0]))
        assert field.values[mid] == pytest.approx(1 / 16, rel=1e-9)

    def test_dominates_the_density(self, rc1):
        grid = GridSpec(box=((-1.0, 1.0),), nodes=(801,))
        field = strong_maximal(rc1, grid, (0.25, 1.0))
        dens = rc1.grid_values(grid.axes())
        assert np.all(field.values >= dens - 1e-12)

    def test_positive_beyond_the_support(self, rc1):
        grid = GridSpec(box=((-2.0, 2.0),), nodes=(801,))
        field = strong_maximal(rc1, grid, (2.0,))
        edge = np.argmin(np.abs(grid.axes()[0] - 1.2))
        assert field.values[edge] > 0.0

    def test_bounded_by_sup(self, rc2):
        grid = GridSpec(box=((-1.0, 1.0), (-1.0, 1.0)), nodes=(101, 101))
        field = strong_maximal(rc2, grid, (0.25, 0.5, 1.0))
        assert float(field.values.max()) <= rc2.sup_bound * (1 + 1e-9)

    def test_validation(self, rc1):
        grid = GridSpec(box=((-1.0, 1.0),), nodes=(101,))
        with pytest.raises(InvalidParameterError):
            strong_maximal(rc1, grid, ())
        with pytest.raises(InvalidParameterError):
            strong_maximal(rc1, grid, (3.0,))
        grid2 = GridSpec(box=((-1.0, 1.0), (-1.0, 1.0)), nodes=(11, 11))
        with pytest.raises(InvalidParameterError):
            strong_maximal(rc1, grid2, (1.0,))


class TestTailQuasiNorm:
    def test_lower_bounded_by_density_quasi_norm(self, rc1):
        grid = GridSpec(box=((-1.5, 1.5),), nodes=(601,))
        field = strong_maximal(rc1, grid, (0.5, 1.0))
        theta = 0.5
        dens = rc1.grid_values(grid.axes())
        floor = grid.integrate_values(dens**theta) ** (1 / theta)
        assert tail_quasi_norm(field, theta) >= floor - 1e-9

    def test_theta_validation(self, rc1):
        grid = GridSpec(box=((-1.0, 1.0),), nodes=(101,))
        field = strong_maximal(rc1, grid, (1.0,))
        with pytest.raises(InvalidParameterError):
            tail_quasi_norm(field, 0.0)


class TestCatalog:
    def test_kinds_and_membership_metadata(self):
        rc = smooth_product_density("raised_cosine", 2)
        assert rc.smoothness["beta"] == (2.0, 2.0)
        assert rc.smoothness["M"] == 4.0
        su = smooth_product_density("smoothed_uniform", 1, {"delta": 0.25})
        assert su.sup_bound == 1.0
        bm = smooth_product_density(
            "bump_mixture", 1,
            {"centers": (-0.5, 0.5), "scales": (0.2, 0.2), "weights": (0.5, 0.5)},
        )
        assert bm.dim == 1

    def test_unit_mass_each_kind(self):
        for kind, params in (
            ("raised_cosine", None),
            ("smoothed_uniform", {"delta": 0.3}),
            ("bump_mixture", None),
        ):
            f = smooth_product_density(kind, 1, params)
            xs = np.linspace(f.box[0, 0], f.box[0, 1], 100001)
            assert np.trapezoid(f(xs[:, None]), xs) == pytest.approx(1.0, abs=1e-6)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParameterError):
            smooth_product_density("gaussian", 1)

    def test_unknown_params_rejected(self):
        with pytest.raises(InvalidParameterError):
            smooth_product_density("raised_cosine", 1, {"delta": 0.1})
        with pytest.raises(InvalidParameterError):
            smooth_product_density("smoothed_uniform", 1, {"width": 0.1})

    def test_cdf_icdf_roundtrip(self, rc1):
        marg = rc1.marginals[0]
        xs = np.linspace(-0.45, 0.45, 101)
        assert np.max(np.abs(marg.icdf(marg.cdf(xs)) - xs)) <= 1e-6


class TestNonFiniteParameters:
    # each of these once built a density with an infinite box or a
    # non-finite sup_bound, or ended in a raw OverflowError
    @pytest.mark.parametrize("build, name", [
        (lambda: flat_top_density(np.inf, 1, 1.0), "N"),
        (lambda: flat_top_density(16.0, 1, np.inf), "kappa_scale"),
        (lambda: build_f_theta(np.inf, 0.3, 1), "N"),
        (lambda: smooth_product_density("bump_mixture", 1, {
            "centers": [0.0], "scales": [0.2], "weights": [np.nan]}), "weights"),
        (lambda: smooth_product_density("bump_mixture", 1, {
            "centers": [np.inf], "scales": [0.2], "weights": [1.0]}), "centers"),
        (lambda: smooth_product_density("bump_mixture", 1, {
            "centers": [0.0], "scales": [np.inf], "weights": [1.0]}), "scales"),
        (lambda: build_perturbed(np.inf, (0.05,), 1e-3, np.zeros(16), 1), "N"),
        (lambda: build_perturbed(16.0, (0.05,), 1e-3, np.zeros(16), 1, np.inf), "kappa_scale"),
    ], ids=["flat_top_N", "flat_top_kappa_scale", "f_theta_N", "bump_weights",
            "bump_centers", "bump_scales", "perturbed_N", "perturbed_kappa_scale"])
    def test_refused_by_name(self, build, name):
        with pytest.raises(InvalidParameterError, match=f"^{name} must be finite"):
            build()
