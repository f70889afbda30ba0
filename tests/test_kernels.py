import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisokde.bandwidths import Bandwidth, build_grid
from anisokde.errors import InvalidParameterError
from anisokde.estimator import make_setup
from anisokde.kernels import (
    build_base,
    build_composite,
    build_majorant,
    build_product,
    convolve_ratio,
)
from reference import eval_pair_kernel


class TestBaseKernel:
    def test_value_at_origin(self):
        for ell in (1, 2, 3, 4):
            base = build_base(ell)
            assert base(np.array([0.0]))[0] == pytest.approx(2.0 * ell, abs=1e-14)
            assert base.sup_norm == pytest.approx(2.0 * ell, abs=1e-14)

    def test_support_and_endpoint_zeros(self):
        base = build_base(3)
        lo, hi = base.profile.support()
        assert lo == pytest.approx(-1.0 / 6.0)
        assert hi == pytest.approx(1.0 / 6.0)
        assert base(np.array([lo, hi, lo - 0.01, hi + 0.01])) == pytest.approx(
            [0.0, 0.0, 0.0, 0.0], abs=1e-12
        )

    def test_unit_integral(self):
        for ell in (1, 2, 3):
            assert abs(build_base(ell).profile.integral() - 1.0) <= 1e-8

    def test_integral_is_resolution_stable(self):
        coarse = build_base(2, table_size=512).profile.integral()
        fine = build_base(2, table_size=8192).profile.integral()
        assert abs(coarse - 1.0) <= 1e-8
        assert abs(fine - 1.0) <= 1e-8

    def test_origin_is_a_node(self):
        base = build_base(1, table_size=128)
        assert 0.0 in base.profile.nodes()
        assert base.table_size == 128

    def test_bad_order_rejected(self):
        for ell in (0, -1, 1.5):
            with pytest.raises(InvalidParameterError):
                build_base(ell)

    def test_small_table_rejected(self):
        with pytest.raises(InvalidParameterError):
            build_base(1, table_size=63)


class TestCompositeKernel:
    def test_order_one_equals_base(self):
        base = build_base(1)
        comp = build_composite(base)
        assert np.array_equal(comp.profile.values, base.profile.values)

    def test_order_two_mixture_identity(self):
        # a two-term alternating mixture of the dilated base bump
        base = build_base(2)
        comp = build_composite(base)
        y = comp.profile.nodes()
        expect = 2.0 * base(y) - 0.5 * base(y / 2.0)
        assert np.allclose(comp.profile.values, expect, atol=1e-12)

    def test_support_is_half_unit_box(self):
        for ell in (1, 2, 3):
            comp = build_composite(build_base(ell))
            assert comp.profile.support() == (-0.5, 0.5)
            assert comp(np.array([-0.5, 0.5])) == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_unit_integral(self, composites):
        for comp in composites.values():
            assert abs(comp.profile.integral() - 1.0) <= 1e-8

    def test_vanishing_moments(self, composites):
        for ell, comp in composites.items():
            for k in range(1, ell):
                assert abs(comp.profile.moment(k)) <= 1e-6, (ell, k)

    def test_order_four_moments(self):
        comp = build_composite(build_base(4))
        for k in range(1, 4):
            assert abs(comp.profile.moment(k)) <= 1e-6


class TestConvolvedProfile:
    def test_identity_ratio_at_origin(self, composites):
        # autoconvolution of the order-1 profile at zero offset
        q = convolve_ratio(composites[1], 1.0)
        assert q(np.array([0.0]))[0] == pytest.approx(1.5, abs=1e-8)

    def test_half_ratio_at_origin(self, composites):
        q = convolve_ratio(composites[1], 0.5)
        expect = 1.0 + 8.0 / (3.0 * math.pi)
        assert q(np.array([0.0]))[0] == pytest.approx(expect, abs=1e-8)

    def test_quadrature_oracle(self, composites):
        # independent check of the tabulation at off-node offsets
        comp = composites[2]
        u = np.linspace(-0.5, 0.5, 20001)
        ku = comp(u)
        q = convolve_ratio(comp, 0.25)
        for t in (0.0, 0.1234, -0.51, 0.9):
            brute = np.trapezoid(comp(np.full(u.size, t) - 0.25 * u) * ku, u)
            assert q(np.array([t]))[0] == pytest.approx(brute, abs=1e-5)

    def test_unit_integral(self, composites):
        for ell in (1, 2):
            for r in (1.0, 0.5, 0.125):
                q = convolve_ratio(composites[ell], r)
                assert abs(q.profile.integral() - 1.0) <= 1e-7

    def test_even_symmetry_exact(self, composites):
        q = convolve_ratio(composites[3], 0.25)
        assert np.array_equal(q.profile.values, q.profile.values[::-1])

    def test_small_ratio_approaches_profile(self, composites):
        comp = composites[1]
        q = convolve_ratio(comp, 1.0 / 1024.0)
        t = np.linspace(-0.6, 0.6, 501)
        assert np.max(np.abs(q(t) - comp(t))) <= 1e-2

    def test_vanishes_outside_doubled_support(self, composites):
        q = convolve_ratio(composites[1], 0.5)
        assert q(np.array([-1.2, 1.01, 2.0])) == pytest.approx([0, 0, 0], abs=0)

    def test_bad_ratio_rejected(self, composites):
        for r in (0.0, -0.5, 1.5, float("nan")):
            with pytest.raises(InvalidParameterError):
                convolve_ratio(composites[1], r)

    def test_repeat_calls_give_identical_tables(self, composites):
        # convolve_ratio keeps no state: each call builds a fresh table,
        # and every build of one ratio is the same to the last bit
        a = convolve_ratio(composites[1], 0.75)
        b = convolve_ratio(composites[1], 0.75)
        assert a is not b
        assert np.array_equal(a.profile.values, b.profile.values)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_even_at_arbitrary_offsets(self, t):
        comp = build_composite(build_base(1, table_size=256))
        q = convolve_ratio(comp, 0.5)
        left = q(np.array([-t]))[0]
        right = q(np.array([t]))[0]
        assert left == pytest.approx(right, abs=1e-12)


def _dense_pair_table(ell, table_size, r):
    """The trapezoid sum behind convolve_ratio as a dense (m/2+1) x m
    mat-vec over the closed-form mixture, written out independently."""

    def k(y):
        out = np.zeros_like(y)
        for i in range(1, ell + 1):
            w = math.comb(ell, i) * (-1.0) ** (i + 1) / i * ell
            z = y / i
            out += w * np.where(np.abs(z) <= 0.5 / ell,
                                1.0 + np.cos(2.0 * math.pi * ell * z), 0.0)
        return out

    m = 2 * table_size + 1
    t = np.linspace(-1.0, 1.0, m)
    u = np.linspace(-0.5, 0.5, m)
    wk = k(u) / (m - 1)
    wk[0] *= 0.5
    wk[-1] *= 0.5
    pos = k(t[m // 2:, None] - r * u[None, :]) @ wk
    return np.concatenate([pos[:0:-1], pos])


class TestPrefixSumTabulation:
    @pytest.mark.parametrize("ell", [1, 2, 3])
    @pytest.mark.parametrize("r", [1.0, 0.75, 0.5, 2.0 ** -5, 2.0 ** -10])
    def test_matches_dense_trapezoid(self, ell, r):
        comp = build_composite(build_base(ell, table_size=256))
        vals = convolve_ratio(comp, r).profile.values
        assert np.max(np.abs(vals - _dense_pair_table(ell, 256, r))) <= 1e-12
        assert np.array_equal(vals, vals[::-1])

    def test_cold_table_is_linear_time(self):
        # an O(m^2) tabulation takes seconds at this size, the O(m * ell)
        # one milliseconds; every call builds its table from scratch.
        comp = build_composite(build_base(3, table_size=4096))
        t0 = time.perf_counter()
        convolve_ratio(comp, 0.3)
        assert time.perf_counter() - t0 < 0.5


class TestProductKernel:
    def test_origin_value_two_dims(self, composites):
        K = build_product(composites[1], 2)
        assert K(np.zeros((1, 2)))[0] == pytest.approx(4.0, abs=1e-12)
        assert K.k_inf == pytest.approx(4.0, abs=1e-12)

    def test_zero_outside_support(self, composites):
        K = build_product(composites[2], 2)
        pts = np.array([[0.51, 0.0], [0.0, -0.51], [0.7, 0.7]])
        assert np.array_equal(K(pts), np.zeros(3))

    def test_unit_integral(self, composites):
        for ell in (1, 2, 3):
            K = build_product(composites[ell], 3)
            assert abs(K.integral() - 1.0) <= 3e-8

    def test_support_box(self, composites):
        K = build_product(composites[1], 2)
        assert np.allclose(K.support(), [[-0.5, 0.5], [-0.5, 0.5]])
        assert K.half_width == pytest.approx(0.5)

    def test_shape_validation(self, composites):
        K = build_product(composites[1], 2)
        with pytest.raises(InvalidParameterError):
            K(np.zeros((3, 3)))

    def test_bad_dim_rejected(self, composites):
        with pytest.raises(InvalidParameterError):
            build_product(composites[1], 0)

    def test_k_inf_is_the_per_axis_product(self, composites):
        for ell in (1, 2, 3):
            sup = composites[ell].sup_norm
            assert build_product(composites[ell], 3).k_inf == 1.0 * sup * sup * sup


class TestNonFiniteOffsets:
    # nan raised a raw IndexError after a RuntimeWarning in the cast to an
    # index, and +-inf gave 0.0 after one in the interpolation
    @pytest.fixture(scope="class")
    def tables(self, composites):
        setup = make_setup(64, 2, table_size=64)
        return {"Tabulated1D": composites[1].profile, "Kernel1D": composites[1],
                "setup.marginal": setup.marginal, "K.factor": setup.kernel.factor}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("table", ["Tabulated1D", "Kernel1D", "setup.marginal", "K.factor"])
    def test_refused_by_name(self, tables, table, bad):
        with pytest.raises(InvalidParameterError, match=r"^y must be finite"):
            tables[table](np.array([[0.0, 0.1], [bad, 0.2]]))
        with pytest.raises(InvalidParameterError, match=r"^y must be finite"):
            tables[table](bad)

    def test_finite_offsets_keep_their_shape(self, tables):
        ys = np.linspace(-0.6, 0.6, 12).reshape(3, 4)
        for table in tables.values():
            out = table(ys)
            assert out.shape == (3, 4)
            assert np.array_equal(out.ravel(), table(ys.ravel()))
            assert table(0.25).shape == ()


class TestPairKernel:
    def test_equal_bandwidths_reduce_to_autoconvolution(self, composites):
        K = build_product(composites[1], 1)
        h = Bandwidth((0,))
        q = convolve_ratio(composites[1], 1.0)
        t = np.linspace(-1.0, 1.0, 41)
        got = eval_pair_kernel(K, h, h, t[:, None])
        assert np.allclose(got, q(t), atol=1e-12)

    def test_frozen_mixed_pair_value(self, composites):
        # exponents (1,) and (2,): shared scale 1/2, axis ratio 1/2
        K = build_product(composites[1], 1)
        got = eval_pair_kernel(K, Bandwidth((1,)), Bandwidth((2,)), np.array([0.0]))
        assert got == pytest.approx(2.0 * (1.0 + 8.0 / (3.0 * math.pi)), abs=1e-7)

    def test_symmetric_in_the_two_bandwidths(self, composites):
        K = build_product(composites[2], 2)
        h = Bandwidth((0, 3))
        eta = Bandwidth((2, 1))
        t = np.random.default_rng(5).uniform(-1.0, 1.0, size=(64, 2))
        assert np.array_equal(
            eval_pair_kernel(K, h, eta, t), eval_pair_kernel(K, eta, h, t)
        )

    def test_zero_outside_join_support(self, composites):
        K = build_product(composites[1], 1)
        h, eta = Bandwidth((1,)), Bandwidth((2,))
        # per-axis support half-width is (h_j + eta_j) / 2 = 3/8 here
        got = eval_pair_kernel(K, h, eta, np.array([[0.51], [-0.6], [1.0]]))
        assert np.array_equal(got, np.zeros(3))

    def test_unit_integral(self, composites):
        K = build_product(composites[1], 2)
        h, eta = Bandwidth((1, 0)), Bandwidth((2, 2))
        t = np.linspace(-1.0, 1.0, 1201)
        mesh = np.stack(np.meshgrid(t, t, indexing="ij"), axis=-1).reshape(-1, 2)
        vals = eval_pair_kernel(K, h, eta, mesh).reshape(1201, 1201)
        total = np.trapezoid(np.trapezoid(vals, t, axis=1), t)
        assert total == pytest.approx(1.0, abs=1e-5)

    def test_single_point_returns_float(self, composites):
        K = build_product(composites[1], 2)
        got = eval_pair_kernel(K, Bandwidth((0, 0)), Bandwidth((0, 0)), np.zeros(2))
        assert isinstance(got, float)

    def test_dim_mismatch_rejected(self, composites):
        K = build_product(composites[1], 2)
        with pytest.raises(InvalidParameterError):
            eval_pair_kernel(K, Bandwidth((0,)), Bandwidth((0, 0)), np.zeros((1, 2)))


class TestMajorant:
    def test_dominates_every_ratio_pair(self, composites):
        comp = composites[2]
        grid = build_grid(64, 1)
        Q = build_majorant(comp, grid.ratios(), 1)
        t = np.linspace(-1.0, 1.0, 2001)
        env = Q(t[:, None])
        for r in grid.ratios():
            q = convolve_ratio(comp, r)
            assert np.all(env - np.abs(q(t)) >= -1e-10), r

    def test_exact_domination_at_nodes(self, composites):
        comp = composites[1]
        ratios = (1.0, 0.5, 0.25)
        Q = build_majorant(comp, ratios, 1)
        env_vals = Q.factor.profile.values
        for r in ratios:
            q = convolve_ratio(comp, r)
            assert np.all(env_vals >= np.abs(q.profile.values))

    def test_origin_at_least_autoconvolution(self, composites):
        for d in (1, 2):
            Q = build_majorant(composites[1], (1.0, 0.5), d)
            q0 = convolve_ratio(composites[1], 1.0)(np.array([0.0]))[0]
            assert Q(np.zeros((1, d)))[0] >= q0**d - 1e-12

    def test_sup_norm_below_squared_profile_sup(self, composites):
        for ell in (1, 2, 3):
            comp = composites[ell]
            Q = build_majorant(comp, (1.0, 0.5, 0.25, 0.125), 2)
            assert Q.k_inf <= comp.sup_norm ** (2 * 2) + 1e-12

    def test_support_and_half_width(self, composites):
        Q = build_majorant(composites[1], (1.0,), 3)
        assert np.allclose(Q.support(), np.tile([-1.0, 1.0], (3, 1)))
        assert Q.half_width == 1.0
        pts = np.array([[1.01, 0.0, 0.0]])
        assert Q(pts)[0] == 0.0

    def test_kernel_and_envelope_share_one_type(self, composites):
        K = build_product(composites[2], 2)
        Q = build_majorant(composites[2], (1.0, 0.5), 2)
        assert type(Q) is type(K)
        assert (Q.dim, Q.factor.ell, Q.factor.profile.support()) == (2, 2, (-1.0, 1.0))

    def test_empty_ratio_set_rejected(self, composites):
        with pytest.raises(InvalidParameterError):
            build_majorant(composites[1], (), 1)
