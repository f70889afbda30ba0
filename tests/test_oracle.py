import math
import time
from dataclasses import replace

import numpy as np
import pytest

from anisokde.bandwidths import Bandwidth
from anisokde.densities import (
    TrueDensity,
    build_f_theta,
    flat_top_density,
    sample,
    smooth_product_density,
)
from anisokde.errors import InvalidParameterError
from anisokde.estimator import KappaPolicy, kappa_default, make_setup, select_and_estimate
from anisokde.oracle import (
    assert_oracle_inequality,
    bias,
    bias_bar,
    bias_norm_scaling,
    check_proportional,
    majorant_true,
    oracle_terms,
    residual_chi,
    residual_zeta,
)
from anisokde.quadrature import tensor_integral
from reference import eval_double_smoothing, reference_true_tables


def wrap_non_product(f: TrueDensity) -> TrueDensity:
    """Same density, but stripped of its product structure."""
    return TrueDensity(
        label="wrapped",
        dim=f.dim,
        box=f.box,
        sup_bound=f.sup_bound,
        pdf_fn=lambda pts: f._eval(pts),
    )


TABLE_FIELDS = ("mean_f", "a_k", "a_q", "pair_mean", "m_k", "m_q")


def table_field(truth, name: str) -> np.ndarray:
    """A `_TrueTables` field as an array; the pair means are read for
    every lattice row."""
    return truth.pair_mean(slice(None)) if name == "pair_mean" else getattr(truth, name)


def terms_bias_bar(f, x, policy, setup, nodes, data) -> np.ndarray:
    """The smoothed bias of every lattice row at x, as `oracle_terms`
    gives it; it depends on f, x and the lattice, not on the data."""
    return oracle_terms(data, f, x, policy, setup, nodes).bias_bar


def counting(f: TrueDensity, counts: dict, tag=(), calls: dict | None = None) -> TrueDensity:
    """f whose evaluations add their point counts to counts: each
    marginal pdf under tag + (j,), j its axis and tag its mixture
    component path, and a density without product form under tag. With
    calls, each call also appends its point count to calls[key]."""
    def wrap(fn, key):
        def counted(pts):
            counts[key] = counts.get(key, 0) + len(pts)
            if calls is not None:
                calls.setdefault(key, []).append(len(pts))
            return fn(pts)
        return counted

    if f.marginals is not None:
        return replace(f, marginals=tuple(replace(m, pdf=wrap(m.pdf, tag + (j,)))
                                          for j, m in enumerate(f.marginals)))
    if f.components is not None:
        return replace(f, components=tuple((w, counting(c, counts, tag + (i,), calls))
                                           for i, (w, c) in enumerate(f.components)))
    return replace(f, pdf_fn=wrap(f.pdf_fn, tag))


class TestBias:
    def test_zero_on_a_plateau(self, composites):
        f = flat_top_density(16.0, 1, 1.0)
        setup = make_setup(16, 1)
        got = bias(f, setup.kernel, Bandwidth((0,)), np.zeros(1))
        assert got == pytest.approx(0.0, abs=1e-10)

    def test_matches_independent_quadrature(self, rc1):
        setup = make_setup(16, 1)
        h = Bandwidth((1,))
        x = np.array([0.1])
        ts = np.linspace(x[0] - 0.25, x[0] + 0.25, 40001)
        kern = setup.kernel(((ts - x[0]) / 0.5)[:, None]) / 0.5
        brute = np.trapezoid(kern * rc1(ts[:, None]), ts) - rc1(x)
        got = bias(rc1, setup.kernel, h, x, nodes=513)
        assert got == pytest.approx(brute, abs=1e-6)

    def test_refinement_converges(self, rc2):
        setup = make_setup(16, 2)
        h = Bandwidth((1, 2))
        x = np.array([0.05, -0.1])
        coarse = bias(rc2, setup.kernel, h, x, nodes=129)
        fine = bias(rc2, setup.kernel, h, x, nodes=513)
        assert coarse == pytest.approx(fine, abs=1e-7)

    def test_generic_route_agrees_with_product_route(self, rc1):
        setup = make_setup(8, 1)
        h = Bandwidth((2,))
        x = np.array([0.2])
        prod = bias(rc1, setup.kernel, h, x, nodes=257)
        generic = bias(wrap_non_product(rc1), setup.kernel, h, x, nodes=257)
        assert generic == pytest.approx(prod, abs=1e-9)

    def test_d2_mixture_matches_tensor_quadrature(self):
        # an independent route: the kernel-weighted density on the box
        # x +- h/2, integrated by the tensor trapezoid rule
        f = build_f_theta(16.0, 0.3, 2)
        setup = make_setup(16, 2)
        x = np.array([7.6, -0.3])
        for exps in ((0, 0), (1, 3), (2, 0)):
            h = Bandwidth(exps)
            box = np.stack([x - 0.5 * h.values, x + 0.5 * h.values], axis=1)
            mean = tensor_integral(lambda t: setup.kernel((t - x) / h.values) * f(t),
                                   box, 65) / h.volume
            got = bias(f, setup.kernel, h, x, nodes=65)
            assert got == pytest.approx(mean - f(x), rel=1e-12, abs=1e-15)

    def test_shrinks_with_bandwidth(self, rc1):
        setup = make_setup(64, 1)
        x = np.array([0.0])
        biases = [
            abs(bias(rc1, setup.kernel, Bandwidth((k,)), x)) for k in (0, 2, 4)
        ]
        assert biases[0] > biases[1] > biases[2]


class TestBiasBar:
    def test_dominates_plain_bias(self, rc1):
        setup = make_setup(8, 1)
        x = np.array([0.15])
        for exps in ((0,), (2,)):
            h = Bandwidth(exps)
            bb = bias_bar(rc1, setup.kernel, setup.grid, h, x, nodes=129)
            assert bb >= abs(bias(rc1, setup.kernel, h, x, nodes=129)) - 1e-12

    def test_generic_route_agrees(self, rc1):
        setup = make_setup(4, 1)
        h = Bandwidth((1,))
        x = np.array([0.1])
        prod = bias_bar(rc1, setup.kernel, setup.grid, h, x, nodes=129)
        generic = bias_bar(
            wrap_non_product(rc1), setup.kernel, setup.grid, h, x, nodes=129
        )
        assert generic == pytest.approx(prod, abs=1e-7)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_pair_means_converge_to_the_double_smoothing(self, dim):
        # per axis K_h * K_eta is q_r at the join bandwidth, so the pair
        # means (fine nodes) and the nested double smoothing (fine nodes)
        # are one quantity up to quadrature error
        from anisokde.oracle import _pair, _pass, _Smoothing, _wide_rows

        f = smooth_product_density("raised_cosine", dim)
        setup = make_setup(256, dim, max_exponent=3)
        exp = setup.tables.exp
        x = np.array([0.13, -0.31][:dim])
        us, q_rows = _wide_rows(setup.stack[2:], 1025)
        pairs = _pair(exp, exp, 0)
        means = _Smoothing(f, x, lambda k: _pass(us, q_rows, k, [pairs])).read(0)
        means = means.reshape(len(exp), -1)
        rows = range(len(exp)) if dim == 1 else (0, 5, 9, 15)
        for i in rows:
            for j in rows:
                ref = eval_double_smoothing(f, setup.kernel, Bandwidth(tuple(exp[i])),
                                            Bandwidth(tuple(exp[j])), x, 513)
                assert means[i, j] == pytest.approx(ref, abs=1e-7), (i, j)


class TestTrueMajorant:
    def test_closed_form_on_plateau(self):
        f = flat_top_density(16.0, 1, 1.0)
        setup = make_setup(32, 1)
        policy = kappa_default(1, 2.0, setup.kernel.k_inf)
        h = Bandwidth((1,))
        lam = policy.kappa * math.log(32) / (32 * h.volume)
        plateau = 1.0 / 16.0
        got = majorant_true(f, setup.kernel, h, np.zeros(1), policy, 32)
        assert got == pytest.approx(math.sqrt(plateau * lam) + lam, rel=1e-8)

    def test_reduces_to_lambda_outside_support(self, rc1):
        setup = make_setup(32, 1)
        policy = kappa_default(1, 2.0, setup.kernel.k_inf)
        h = Bandwidth((0,))
        lam = policy.kappa * math.log(32) / 32
        got = majorant_true(rc1, setup.kernel, h, np.array([7.0]), policy, 32)
        assert got == pytest.approx(lam, abs=1e-12)

    def test_envelope_side_dominates(self, rc1):
        setup = make_setup(32, 1)
        policy = kappa_default(1, 2.0, setup.kernel.k_inf)
        h = Bandwidth((2,))
        x = np.array([0.0])
        m_k = majorant_true(rc1, setup.kernel, h, x, policy, 32)
        m_q = majorant_true(rc1, setup.majorant, h, x, policy, 32)
        assert m_q >= m_k - 1e-12

    def test_tiny_samples_rejected(self, rc1):
        setup = make_setup(4, 1)
        policy = kappa_default(1, 2.0, setup.kernel.k_inf)
        with pytest.raises(InvalidParameterError):
            majorant_true(rc1, setup.kernel, Bandwidth((0,)), np.zeros(1), policy, 1)

    @pytest.mark.parametrize("n", [100.5, 100.0, float("nan"), float("inf")], ids=repr)
    def test_non_integer_sample_size_rejected(self, rc1, n):
        # n = 100.5 gave a majorant; nan and inf gave nan
        setup = make_setup(128, 1)
        policy = kappa_default(1, 2.0, setup.kernel.k_inf)
        with pytest.raises(InvalidParameterError, match="n must be an integer"):
            majorant_true(rc1, setup.kernel, Bandwidth((1,)), np.zeros(1), policy, n)


class TestScalarInputs:
    # each of these calls once returned a plausible number
    @pytest.mark.parametrize("call", [
        lambda f, s1, s2, policy: bias(f, s1.kernel, Bandwidth((1,)), [np.nan]),
        lambda f, s1, s2, policy: majorant_true(f, s1.kernel, Bandwidth((1,)), [np.inf],
                                                policy, 32),
        lambda f, s1, s2, policy: majorant_true(f, s1.kernel, Bandwidth((1,)), [0.1, 3.0],
                                                policy, 32),
        lambda f, s1, s2, policy: bias_bar(f, s1.kernel, s2.grid, Bandwidth((1,)), [0.1]),
        lambda f, s1, s2, policy: bias(f, s2.kernel, Bandwidth((1, 1)), [0.1]),
        lambda f, s1, s2, policy: bias_bar(f, s1.majorant, s1.grid, Bandwidth((1,)), [0.1]),
    ], ids=["nan_point", "inf_point", "long_point", "grid_dim", "kernel_and_bandwidth_dim",
            "envelope_as_kernel"])
    def test_rejected(self, rc1, call):
        s1, s2 = make_setup(32, 1), make_setup(32, 2)
        policy = kappa_default(1, 2.0, s1.kernel.k_inf)
        with pytest.raises(InvalidParameterError):
            call(rc1, s1, s2, policy)


class TestDensityDimension:
    # a d=2 density with a d=1 setup ended in a raw IndexError; a d=1
    # density with a d=2 setup ran the selector and the smoothing pass
    # before f(x) refused the point
    @pytest.mark.parametrize("f_dim, setup_dim", [(2, 1), (1, 2)])
    def test_refused_before_any_work(self, f_dim, setup_dim):
        setup = make_setup(64, setup_dim, table_size=64, max_exponent=3)
        policy = kappa_default(setup_dim, 2.0, setup.kernel.k_inf)
        data = sample(smooth_product_density("raised_cosine", setup_dim), 64,
                      np.random.default_rng(1))
        f = smooth_product_density("raised_cosine", f_dim)
        with pytest.raises(InvalidParameterError, match=f"dim {setup_dim}, the density {f_dim}"):
            assert_oracle_inequality(data, f, np.full(setup_dim, 0.1), policy, setup, nodes=17)


class TestResiduals:
    def test_non_negative(self, rc1):
        rng = np.random.default_rng(2)
        setup = make_setup(32, 1, max_exponent=3)
        policy = kappa_default(1, 2.0, setup.kernel.k_inf)
        data = sample(rc1, 32, rng)
        x = np.zeros(1)
        assert residual_zeta(data, rc1, x, policy, setup, nodes=129) >= 0.0
        assert residual_chi(data, rc1, x, policy, setup, nodes=129) >= 0.0

    def test_vanish_when_nothing_is_near(self, rc1):
        from anisokde.estimator import build_dataset

        data = build_dataset(np.full((16, 1), 30.0))
        setup = make_setup(16, 1)
        policy = kappa_default(1, 2.0, setup.kernel.k_inf)
        x = np.array([20.0])
        assert residual_zeta(data, rc1, x, policy, setup, nodes=65) == 0.0
        assert residual_chi(data, rc1, x, policy, setup, nodes=65) == 0.0


class TestOracleInequality:
    def test_terms_assemble_the_bound(self, rc1):
        rng = np.random.default_rng(31)
        setup = make_setup(64, 1, max_exponent=4)
        policy = kappa_default(1, 2.0, setup.kernel.k_inf)
        data = sample(rc1, 64, rng)
        terms = oracle_terms(data, rc1, np.zeros(1), policy, setup, nodes=129)
        per_h = 4.0 * terms.bias_bar + 60.0 * terms.m_q_sup + 61.0 * terms.m_k
        best = int(np.argmin(per_h))
        assert terms.bound == pytest.approx(
            per_h[best] + 7.0 * terms.zeta + 18.0 * terms.chi, rel=1e-12
        )
        assert tuple(terms.exponents[best]) == terms.argmin

    def test_holds_on_a_small_battery(self, rc1):
        setup = make_setup(64, 1)
        policy = kappa_default(1, 2.0, setup.kernel.k_inf)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            data = sample(rc1, 64, rng)
            x = rng.uniform(-0.5, 0.5, size=1)
            rec = assert_oracle_inequality(data, rc1, x, policy, setup, nodes=129)
            assert rec["holds"], rec

    def test_record_is_json_friendly(self, rc1):
        import json

        rng = np.random.default_rng(77)
        setup = make_setup(32, 1, max_exponent=2)
        policy = kappa_default(1, 2.0, setup.kernel.k_inf)
        data = sample(rc1, 32, rng)
        rec = assert_oracle_inequality(data, rc1, np.zeros(1), policy, setup, nodes=65)
        parsed = json.loads(json.dumps(rec))
        assert parsed["lhs"] <= parsed["rhs"]
        assert set(parsed["rhs_terms"]) == {"bias_bar", "mK", "mQ", "zeta", "chi"}


class TestOneSelectorPass:
    @pytest.mark.parametrize("dim, n, seed", [(1, 64, 3), (1, 128, 8),
                                              (2, 32, 5), (2, 64, 12)])
    def test_record_matches_selector_and_terms(self, dim, n, seed):
        f = smooth_product_density("raised_cosine", dim)
        setup = make_setup(n, dim, max_exponent=4)
        policy = kappa_default(dim, 2.0, setup.kernel.k_inf)
        rng = np.random.default_rng(seed)
        data = sample(f, n, rng)
        box = np.asarray(f.box, dtype=float)
        x = rng.uniform(box[:, 0], box[:, 1])
        rec = assert_oracle_inequality(data, f, x, policy, setup, nodes=65)
        fit = select_and_estimate(data, x, policy, setup)
        terms = oracle_terms(data, f, x, policy, setup, nodes=65)
        assert rec["selected"] == list(fit.selected.exponents)
        assert rec["lhs"] == abs(fit.estimate - f(x))
        assert rec["rhs"] == terms.bound


class TestTrueTables:
    @staticmethod
    def assert_routes_agree(f, x, max_exponent, nodes):
        from anisokde.oracle import _TrueTables

        dim = f.dim
        setup = make_setup(32, dim, ell=2, table_size=256, max_exponent=max_exponent)
        policy = KappaPolicy(kappa=0.05, d=dim, p=2.0, k_inf=setup.kernel.k_inf)
        prod = _TrueTables(f, x, policy, setup, 32, nodes)
        generic = _TrueTables(wrap_non_product(f), x, policy, setup, 32, nodes)
        for name in TABLE_FIELDS:
            assert np.allclose(table_field(prod, name), table_field(generic, name),
                               rtol=0.0, atol=1e-12), name
        data = sample(f, 32, np.random.default_rng(1))
        assert np.allclose(terms_bias_bar(f, x, policy, setup, nodes, data),
                           terms_bias_bar(wrap_non_product(f), x, policy, setup, nodes, data),
                           rtol=0.0, atol=1e-12), "bias_bar"

    def test_product_and_generic_paths_agree(self, rc1):
        # one density with and without its product structure: the per-axis
        # tables against the tensor quadratures of every true term, pair
        # means read from the setup's q_r tables included, on the same nodes
        self.assert_routes_agree(rc1, np.array([0.1]), 3, 33)

    def test_mixture_routes_agree_in_two_dimensions(self):
        # two mixture components at d=2: the combine over (component, axis)
        # against one tensor quadrature of the whole density
        self.assert_routes_agree(build_f_theta(16.0, 0.3, 2), np.array([7.6, -8.2]), 2, 9)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_public_scalars_read_the_tables(self, dim):
        from anisokde.oracle import _TrueTables

        f = build_f_theta(16.0, 0.3, dim)
        setup = make_setup(32, dim, ell=2, table_size=256, max_exponent=3)
        policy = KappaPolicy(kappa=0.05, d=dim, p=2.0, k_inf=setup.kernel.k_inf)
        x = np.full(dim, 7.6)
        truth = _TrueTables(f, x, policy, setup, 32, 33)
        bars = terms_bias_bar(f, x, policy, setup, 33, sample(f, 32, np.random.default_rng(2)))
        for row, h in enumerate(setup.grid):
            assert bias(f, setup.kernel, h, x, 33) == truth.bias[row]
            assert bias_bar(f, setup.kernel, setup.grid, h, x, 33) == bars[row]
            assert majorant_true(f, setup.kernel, h, x, policy, 32, 33) == truth.m_k[row]
            assert majorant_true(f, setup.majorant, h, x, policy, 32, 33) == truth.m_q[row]
        # an h with an exponent above E: its pair means are those of a
        # larger lattice, read on the rows of this one
        h = Bandwidth((5,) + (1,) * (dim - 1))
        big = make_setup(32, dim, ell=2, table_size=256, max_exponent=5)
        wide = _TrueTables(f, x, policy, big, 32, 33)
        row = big.grid.index(h)
        sub = (big.tables.exp <= 3).all(axis=1)
        want = max(abs(wide.bias[row]),
                   np.abs(table_field(wide, "pair_mean")[row, sub] - wide.mean_f[sub]).max())
        assert bias_bar(f, setup.kernel, setup.grid, h, x, 33) == want

    @pytest.mark.parametrize("kind, dim, ell, table_size, nodes, max_exponent", [
        pytest.param("raised_cosine", 1, 1, 256, 65, None, id="rc-d1-ell1-m256-n65"),
        pytest.param("raised_cosine", 2, 2, 257, 33, None, id="rc-d2-ell2-m257-n33"),
        pytest.param("raised_cosine", 3, 3, 64, 17, 3, id="rc-d3-ell3-m64-n17"),
        pytest.param("bump_mixture", 2, 1, 4096, 64, None, id="bump-d2-ell1-m4096-n64"),
        pytest.param("smoothed_uniform", 1, 2, 257, 129, None, id="su-d1-ell2-m257-n129"),
        pytest.param("f_theta", 2, 2, 256, 33, 4, id="ftheta-d2-ell2-m256-n33"),
    ])
    def test_tables_equal_the_per_quantity_quadratures(self, kind, dim, ell, table_size,
                                                        nodes, max_exponent):
        # one evaluation of f per smoothing scale gives, bit for bit, the
        # tables of one quadrature per quantity (tests/reference.py)
        from anisokde.oracle import _TrueTables

        f = (build_f_theta(16.0, 0.3, dim) if kind == "f_theta"
             else smooth_product_density(kind, dim))
        setup = make_setup(256, dim, ell=ell, table_size=table_size,
                           max_exponent=max_exponent)
        policy = KappaPolicy(kappa=0.05, d=dim, p=2.0, k_inf=setup.kernel.k_inf)
        box = np.asarray(f.box, dtype=float)
        rng = np.random.default_rng(dim * 100 + ell)
        data = sample(f, 256, np.random.default_rng(ell))
        for x in (rng.uniform(box[:, 0], box[:, 1]), box.mean(axis=1)):
            got = _TrueTables(f, x, policy, setup, 256, nodes)
            want = reference_true_tables(f, x, policy, setup, 256, nodes)
            for name in TABLE_FIELDS:
                assert np.array_equal(table_field(got, name), want[name]), name
            assert np.array_equal(terms_bias_bar(f, x, policy, setup, nodes, data),
                                  want["bias_bar"])

    def test_non_product_tables_match_the_per_quantity_quadratures(self):
        from anisokde.oracle import _TrueTables

        prod = smooth_product_density("raised_cosine", 2)
        f = wrap_non_product(prod)
        setup = make_setup(64, 2, ell=2, table_size=256, max_exponent=3)
        policy = KappaPolicy(kappa=0.05, d=2, p=2.0, k_inf=setup.kernel.k_inf)
        x = np.array([0.1, -0.2])
        got = _TrueTables(f, x, policy, setup, 64, 17)
        want = reference_true_tables(f, x, policy, setup, 64, 17)
        for name in TABLE_FIELDS:
            np.testing.assert_allclose(table_field(got, name), want[name], rtol=1e-13, atol=0.0,
                                       err_msg=name)
        data = sample(prod, 64, np.random.default_rng(3))
        np.testing.assert_allclose(terms_bias_bar(f, x, policy, setup, 17, data),
                                   want["bias_bar"], rtol=1e-13, atol=0.0, err_msg="bias_bar")

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_product_route_evaluates_each_scale_once(self, dim):
        # per axis and mixture component at most E+2 point sets of `nodes`
        # points (scales 2^0..2^-(E+1)), plus the one point f(x)
        from anisokde.oracle import _TrueTables

        counts = {}
        f = counting(build_f_theta(16.0, 0.3, dim), counts)
        setup = make_setup(256, dim, table_size=256, max_exponent=4 if dim == 3 else None)
        policy = KappaPolicy(kappa=0.05, d=dim, p=2.0, k_inf=setup.kernel.k_inf)
        _TrueTables(f, np.full(dim, 7.6), policy, setup, 256, 33)
        assert len(counts) == 2 * dim  # two components, dim axes each
        E = setup.grid.max_exponent
        for key, points in counts.items():
            assert points <= (E + 2) * 33 + 1, key

    def test_non_product_route_evaluates_each_scale_vector_once(self):
        from anisokde.oracle import _TrueTables

        counts = {}
        f = counting(wrap_non_product(smooth_product_density("raised_cosine", 2)), counts)
        setup = make_setup(64, 2, table_size=256)
        policy = KappaPolicy(kappa=0.05, d=2, p=2.0, k_inf=setup.kernel.k_inf)
        _TrueTables(f, np.array([0.1, -0.2]), policy, setup, 64, 17)
        E = setup.grid.max_exponent
        assert counts[()] <= (E + 2) ** 2 * 17 ** 2 + 1

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_one_pass_calls_each_factor_once(self, dim):
        # with (E+2)*nodes <= _BLOCK_POINTS, one call per (component, axis)
        # covers every scale 2^0..2^-(E+1) of every table, in _TrueTables
        # and in bias_bar alike; the other call is f(x), one point
        from anisokde.oracle import _BLOCK_POINTS, _TrueTables

        f0 = build_f_theta(16.0, 0.3, dim)
        setup = make_setup(256, dim, table_size=256, max_exponent=4 if dim == 3 else None)
        policy = KappaPolicy(kappa=0.05, d=dim, p=2.0, k_inf=setup.kernel.k_inf)
        E, x = setup.grid.max_exponent, np.full(dim, 7.6)
        assert (E + 2) * 33 <= _BLOCK_POINTS
        for run in (lambda g: _TrueTables(g, x, policy, setup, 256, 33),
                    lambda g: bias_bar(g, setup.kernel, setup.grid, Bandwidth((1,) * dim), x, 33)):
            calls = {}
            run(counting(f0, {}, calls=calls))
            assert len(calls) == 2 * dim  # two components, dim axes each
            for key, sizes in calls.items():
                assert sorted(sizes) == [1, (E + 2) * 33], key

    def test_non_product_pass_evaluates_in_full_blocks(self):
        from anisokde.oracle import _BLOCK_POINTS, _TrueTables

        calls = {}
        f = counting(wrap_non_product(smooth_product_density("raised_cosine", 2)), {},
                     calls=calls)
        setup = make_setup(64, 2, table_size=256)
        policy = KappaPolicy(kappa=0.05, d=2, p=2.0, k_inf=setup.kernel.k_inf)
        _TrueTables(f, np.array([0.1, -0.2]), policy, setup, 64, 17)
        *blocks, one = calls[()]
        assert one == 1  # f(x)
        assert max(blocks) <= _BLOCK_POINTS
        assert len(blocks) <= math.ceil(sum(blocks) / _BLOCK_POINTS)

    @pytest.mark.parametrize("kind", ["f_theta", "non_product"])
    def test_blocks_of_one_scale_vector_keep_the_bytes(self, monkeypatch, kind):
        # each (scale vector, weight row) entry is summed on its own, so
        # the blocks f is evaluated in do not move a bit
        import anisokde.oracle as orc

        prod = (build_f_theta(16.0, 0.3, 2) if kind == "f_theta"
                else smooth_product_density("raised_cosine", 2))
        f = wrap_non_product(prod) if kind == "non_product" else prod
        setup = make_setup(64, 2, table_size=256)
        policy = KappaPolicy(kappa=0.05, d=2, p=2.0, k_inf=setup.kernel.k_inf)
        x = np.array([7.6, -8.2]) if kind == "f_theta" else np.array([0.1, -0.2])
        whole = orc._TrueTables(f, x, policy, setup, 64, 17)
        monkeypatch.setattr(orc, "_BLOCK_POINTS", 1)
        calls = {}
        one = orc._TrueTables(counting(f, {}, calls=calls), x, policy, setup, 64, 17)
        mesh = 17 if kind == "f_theta" else 17 ** 2
        assert all(sorted(set(sizes)) == [1, mesh] for sizes in calls.values())
        for name in TABLE_FIELDS:
            assert table_field(one, name).tobytes() == table_field(whole, name).tobytes(), name

    def test_non_product_pass_keeps_a_small_peak(self):
        # the pass holds its tables and one block of f's values and
        # their products with the weight rows, not f at every scale vector
        import tracemalloc

        from anisokde.oracle import _TrueTables

        f = wrap_non_product(smooth_product_density("raised_cosine", 2))
        setup = make_setup(256, 2)
        policy = kappa_default(2, 2.0, setup.kernel.k_inf)
        x = np.array([0.1, -0.2])
        _TrueTables(f, x, policy, setup, 256, 65)  # builds the plan and its pass
        tracemalloc.start()
        try:
            _TrueTables(f, x, policy, setup, 256, 65)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    def test_pair_row_blocks_keep_every_term(self, monkeypatch):
        # zeta's pair part and bias_bar are maxima per lattice row, so
        # blocks of four rows give the terms of one block, bit for bit;
        # each block's pair means are read once, for both maxima
        import anisokde.estimator as est
        from anisokde.oracle import _Smoothing
        from dataclasses import fields

        f = build_f_theta(16.0, 0.3, 2)
        setup = make_setup(64, 2, ell=2, table_size=256)
        policy = KappaPolicy(kappa=0.05, d=2, p=2.0, k_inf=setup.kernel.k_inf)
        rng = np.random.default_rng(23)
        data = sample(f, 64, rng)
        box = np.asarray(f.box, dtype=float)
        xs = [rng.uniform(box[:, 0], box[:, 1]) for _ in range(3)] + [data.points[0]]
        whole = [oracle_terms(data, f, x, policy, setup, nodes=33) for x in xs]
        assert len(est._row_blocks(setup.tables)) == 1
        monkeypatch.setattr(est, "_BLOCK_PAIRS", 4 * setup.tables.size)
        assert len(est._row_blocks(setup.tables)) >= 3
        read, pair_reads = _Smoothing.read, []

        def counted(sm, i, rows=slice(None)):  # read 1 is the pair means
            if i == 1:
                pair_reads.append(rows)
            return read(sm, i, rows)
        monkeypatch.setattr(_Smoothing, "read", counted)
        for x, want in zip(xs, whole):
            pair_reads.clear()
            got = oracle_terms(data, f, x, policy, setup, nodes=33)
            assert len(pair_reads) == len(est._row_blocks(setup.tables))
            for field in fields(got):
                assert (np.asarray(getattr(got, field.name)).tobytes()
                        == np.asarray(getattr(want, field.name)).tobytes()), field.name

    def test_non_product_pass_is_bounded(self):
        # without product form, one block of f at 257^3 mesh points and
        # its product with every weight row is about 2.0 GiB: refused
        # before the mesh is built; the product route stays small
        f = smooth_product_density("raised_cosine", 3)
        setup = make_setup(256, 3)
        policy = kappa_default(3, 2.0, setup.kernel.k_inf)
        data = sample(f, 256, np.random.default_rng(5))
        x = np.array([0.1, -0.2, 0.05])
        with pytest.raises(InvalidParameterError, match="MAX_LATTICE_BYTES.*lower nodes"):
            oracle_terms(data, wrap_non_product(f), x, policy, setup, nodes=257)
        assert oracle_terms(data, f, x, policy, setup, nodes=257).bound > 0

    def test_d3_terms_stay_fast(self):
        f = smooth_product_density("raised_cosine", 3)
        setup = make_setup(64, 3, table_size=256)
        policy = kappa_default(3, 2.0, setup.kernel.k_inf)
        data = sample(f, 64, np.random.default_rng(4))
        x = np.array([0.1, -0.2, 0.05])
        oracle_terms(data, f, x, policy, setup, nodes=33)  # warm the lattice tables
        t0 = time.perf_counter()
        oracle_terms(data, f, x, policy, setup, nodes=33)
        assert time.perf_counter() - t0 < 0.5

    def test_d2_non_product_terms_stay_fast(self):
        # one tensor quadrature group of both axes: nodes**2 points per
        # single and per pair mean, none per nested double smoothing
        f = smooth_product_density("raised_cosine", 2)
        setup = make_setup(64, 2, table_size=256)
        policy = kappa_default(2, 2.0, setup.kernel.k_inf)
        data = sample(f, 64, np.random.default_rng(6))
        x = np.array([0.1, -0.2])
        prod = oracle_terms(data, f, x, policy, setup, nodes=33)
        t0 = time.perf_counter()
        generic = oracle_terms(data, wrap_non_product(f), x, policy, setup, nodes=33)
        assert time.perf_counter() - t0 < 2.0
        assert generic.bound == pytest.approx(prod.bound, rel=1e-9)
        assert generic.argmin == prod.argmin


def terms_and_record(data, f, x, policy, setup, nodes):
    """Every `OracleTerms` field as bytes, and the assertion's record."""
    from dataclasses import fields

    terms = oracle_terms(data, f, x, policy, setup, nodes)
    return ([np.asarray(getattr(terms, fl.name)).tobytes() for fl in fields(terms)],
            assert_oracle_inequality(data, f, x, policy, setup, nodes))


def instances(f, n, count, seed):
    """count (data, x) draws from f, as `anisokde oracle` makes them."""
    box = np.asarray(f.box, dtype=float)
    out = []
    for i in range(count):
        rng = np.random.default_rng(seed + i)
        out.append((sample(f, n, rng), rng.uniform(box[:, 0], box[:, 1])))
    return out


class TestTruthPlan:
    """The x-independent part of the true tables (nodes, weight rows,
    reads and the pass of each group size) is built once per setup and
    node count and kept on the setup."""

    @staticmethod
    def count_builders(monkeypatch) -> dict:
        import anisokde.oracle as orc

        counts = {}
        for name in ("_pair", "_single", "_node_weights", "_pass"):
            def counted(*args, _fn=getattr(orc, name), _name=name):
                counts[_name] = counts.get(_name, 0) + 1
                return _fn(*args)
            monkeypatch.setattr(orc, name, counted)
        return counts

    def test_each_builder_runs_once_for_five_instances(self, monkeypatch):
        f = smooth_product_density("raised_cosine", 2)
        setup = make_setup(64, 2, table_size=256)
        policy = kappa_default(2, 2.0, setup.kernel.k_inf)
        draws = instances(f, 64, 5, 41)
        counts = self.count_builders(monkeypatch)
        for data, x in draws:  # one pass per group size: one axis, and both axes
            for g in (f, wrap_non_product(f)):
                assert_oracle_inequality(data, g, x, policy, setup, nodes=33)
        assert counts == {"_pair": 1, "_single": 1, "_node_weights": 1, "_pass": 2}
        assert list(setup.oracle_plans) == [33]

    @pytest.mark.parametrize("kind, dim", [("raised_cosine", 1), ("raised_cosine", 2),
                                           ("raised_cosine", 3), ("f_theta", 2),
                                           ("non_product", 2)])
    def test_a_reused_setup_gives_the_records_of_fresh_setups(self, kind, dim):
        prod = (build_f_theta(16.0, 0.3, dim) if kind == "f_theta"
                else smooth_product_density("raised_cosine", dim))
        f = wrap_non_product(prod) if kind == "non_product" else prod
        args = dict(table_size=256, max_exponent=3 if dim == 3 else None)
        setup = make_setup(64, dim, **args)
        policy = kappa_default(dim, 2.0, setup.kernel.k_inf)
        for data, x in instances(prod, 64, 3, 7 * dim):
            if kind == "f_theta":
                x = np.full(dim, 7.6) if x[0] > 0 else x
            fresh = make_setup(64, dim, **args)
            assert (terms_and_record(data, f, x, policy, setup, 17)
                    == terms_and_record(data, f, x, policy, fresh, 17))
        assert list(setup.oracle_plans) == [17]

    def test_non_product_counts_stay_per_instance(self):
        # the per-instance f evaluations of the non-product route do not
        # change when the setup (and its plan) is reused
        counts = {}
        f = counting(wrap_non_product(smooth_product_density("raised_cosine", 2)), counts)
        setup = make_setup(64, 2, table_size=256)
        policy = KappaPolicy(kappa=0.05, d=2, p=2.0, k_inf=setup.kernel.k_inf)
        from anisokde.oracle import _TrueTables

        seen = []
        for x in ([0.1, -0.2], [0.3, 0.05], [-0.4, 0.2]):
            counts.clear()
            _TrueTables(f, np.array(x), policy, setup, 64, 17)
            seen.append(counts[()])
        E = setup.grid.max_exponent
        assert seen[0] <= (E + 2) ** 2 * 17 ** 2 + 1
        assert seen == seen[:1] * 3

    def test_each_node_count_gets_its_own_plan(self):
        f = smooth_product_density("raised_cosine", 2)
        setup = make_setup(64, 2, table_size=256)
        policy = kappa_default(2, 2.0, setup.kernel.k_inf)
        (data, x), = instances(f, 64, 1, 3)
        plans = []
        for nodes in (33, 65, 33):
            got = terms_and_record(data, f, x, policy, setup, nodes)
            assert got == terms_and_record(data, f, x, policy, make_setup(64, 2, table_size=256),
                                           nodes), nodes
            plans.append(setup.oracle_plans[nodes])
        assert sorted(setup.oracle_plans) == [33, 65]
        assert plans[0] is plans[2] and plans[1] is not plans[0]
        assert plans[0].us.size == 33 and plans[1].us.size == 65

    def test_setups_never_share_a_plan(self):
        # equal n and dim, different table sizes: each setup's plan is
        # read from its own tables, and equal setups build their own too
        from anisokde.oracle import _wide_rows

        f = smooth_product_density("raised_cosine", 2)
        small, large, again = (make_setup(64, 2, table_size=m) for m in (256, 1024, 256))
        (data, x), = instances(f, 64, 1, 5)
        got = {}
        for setup in (small, large, again):
            policy = kappa_default(2, 2.0, setup.kernel.k_inf)
            got[id(setup)] = terms_and_record(data, f, x, policy, setup, 33)
            plan = setup.oracle_plans[33]
            assert np.array_equal(plan.wtab[3:], _wide_rows(setup.stack[1:], 33)[1][1:])
        assert small.oracle_plans[33] is not again.oracle_plans[33]
        assert large.oracle_plans[33] is not small.oracle_plans[33]
        assert not np.array_equal(large.oracle_plans[33].wtab, small.oracle_plans[33].wtab)
        assert got[id(small)] == got[id(again)]

    @pytest.mark.parametrize("components", [2, 3, 12])
    def test_components_add_in_order(self, components):
        # `_Smoothing.read` adds the component slices in order, on every
        # read of the true tables (singles, the whole pair family, a row
        # block). With 2 or 3 components these are the bits of the former
        # `out.sum(axis=0)`. With 12 that sum ran pairwise over the pair
        # reads, whose product holds the components innermost, so a row
        # block could differ from the same rows of a whole read; in order,
        # it cannot.
        from anisokde.oracle import _plan, _Smoothing

        rng = np.random.default_rng(components)
        parts = [flat_top_density(16.0, 2, s) for s in rng.uniform(0.6, 1.4, components)]
        weights = rng.dirichlet(np.ones(components))
        f = TrueDensity(label="mixture", dim=2, box=parts[0].box,
                        sup_bound=sum(w * p.sup_bound for w, p in zip(weights, parts)),
                        components=tuple(zip(weights, parts)))
        setup = make_setup(256, 2, table_size=256)
        plan = _plan(setup, 33)
        sm = _Smoothing(f, np.array([7.6, -8.2]), plan.pass_of)
        assert sm.weights.size == components
        for i, rows in ((0, slice(None)), (1, slice(None)), (1, slice(2, 5))):
            keys = [key[rows] for key in sm.pas.keys[i]]
            out = sm.weights
            for tab, (cols, _) in zip(sm.tabs, sm.groups):
                (key,) = (keys[j] for j in cols)  # one axis a group
                term = tab[:, key]
                out = out.reshape(out.shape + (1,) * (term.ndim - out.ndim)) * term
            want = out[0]
            for part in out[1:]:
                want = want + part
            got = sm.read(i, rows)
            assert got.tobytes() == want.tobytes()
            assert np.abs(got).max() > 0
            if components <= 3:
                assert got.tobytes() == out.sum(axis=0).tobytes()
            else:
                np.testing.assert_allclose(got, out.sum(axis=0), rtol=1e-14, atol=0.0)
        assert sm.read(1, slice(2, 5)).tobytes() == sm.read(1)[2:5].tobytes()


H1 = Bandwidth((1,))


class TestNodeCounts:
    CALLS = {
        "bias": lambda f, s, p, data, nodes: bias(f, s.kernel, H1, [0.1], nodes),
        "bias_bar": lambda f, s, p, data, nodes: bias_bar(f, s.kernel, s.grid, H1,
                                                          [0.1], nodes),
        "majorant_true": lambda f, s, p, data, nodes: majorant_true(
            f, s.majorant, H1, [0.1], p, 32, nodes),
        "oracle_terms": lambda f, s, p, data, nodes: oracle_terms(data, f, [0.1], p, s,
                                                                  nodes).bound,
        "assert_oracle_inequality": lambda f, s, p, data, nodes: assert_oracle_inequality(
            data, f, [0.1], p, s, nodes),
        "tensor_integral": lambda f, s, p, data, nodes: tensor_integral(f, f.box, nodes),
    }

    @staticmethod
    def inputs(rc1):
        setup = make_setup(32, 1, table_size=256)
        return rc1, setup, kappa_default(1, 2.0, setup.kernel.k_inf), sample(
            rc1, 32, np.random.default_rng(2))

    @pytest.mark.parametrize("nodes", [33.5, np.float64(33), "33", True], ids=repr)
    @pytest.mark.parametrize("name", list(CALLS))
    def test_non_integer_counts_are_named(self, rc1, name, nodes):
        # each once raised a raw TypeError from np.linspace; True was taken
        # as 1 node
        with pytest.raises(InvalidParameterError, match="nodes"):
            self.CALLS[name](*self.inputs(rc1), nodes)

    @pytest.mark.parametrize("name", list(CALLS))
    def test_numpy_integers_are_accepted(self, rc1, name):
        args = self.inputs(rc1)
        assert self.CALLS[name](*args, np.int64(33)) == self.CALLS[name](*args, 33)


class TestProportionalBrackets:
    def test_matched_averages(self):
        policy = kappa_default(1, 2.0, 2.0)
        rec = check_proportional(0.7, 0.7, policy, 0.25, 128)
        assert rec["chi_h"] == 0.0
        assert rec["m_check"] == rec["m_true"]
        assert rec["holds"]

    def test_zero_averages(self):
        policy = kappa_default(2, 1.0, 1.0)
        rec = check_proportional(0.0, 0.0, policy, 1.0, 64)
        lam = policy.kappa * math.log(64) / 64
        assert rec["m_true"] == pytest.approx(lam, rel=1e-14)
        assert rec["holds"]

    def test_random_tuples_always_hold(self):
        rng = np.random.default_rng(101)
        policy = kappa_default(1, 2.0, 2.0)
        for _ in range(500):
            a_hat = float(rng.uniform(0, 10))
            a_true = float(rng.uniform(0, 10))
            v = float(2.0 ** -rng.integers(0, 12))
            n = int(rng.integers(2, 1 << 16))
            rec = check_proportional(a_hat, a_true, policy, v, n)
            assert rec["holds"], (a_hat, a_true, v, n)

    def test_validation(self):
        policy = kappa_default(1, 2.0, 1.0)
        with pytest.raises(InvalidParameterError):
            check_proportional(-0.1, 0.5, policy, 1.0, 64)
        with pytest.raises(InvalidParameterError):
            check_proportional(0.1, 0.5, policy, 0.0, 64)
        with pytest.raises(InvalidParameterError):
            check_proportional(0.1, 0.5, policy, 1.0, 1)
        # non-finite inputs and a non-integer sample size; an infinite v_h
        # used to give zero majorants and holds: True
        inf, nan = float("inf"), float("nan")
        for a_hat, a_true, v_h, n in ((0.5, 0.5, inf, 100), (inf, 0.5, 1.0, 64),
                                      (0.5, nan, 1.0, 64), (0.5, 0.5, nan, 64),
                                      (0.5, 0.5, 1.0, 64.5), (0.5, 0.5, 1.0, 64.0)):
            with pytest.raises(InvalidParameterError):
                check_proportional(a_hat, a_true, policy, v_h, n)
        assert check_proportional(0.5, 0.5, policy, 1.0, np.int64(64))["holds"]


class TestBiasNormScaling:
    def test_second_order_density_first_order_kernel(self, rc1):
        # curvature-limited bias shrinks quadratically in the bandwidth
        setup = make_setup(8, 1)
        rep = bias_norm_scaling(
            rc1, setup.kernel, 0, 2.0, (1 / 8, 1 / 16, 1 / 32), nodes=257,
            grid_nodes=129,
        )
        assert not rep.degenerate
        assert rep.slope == pytest.approx(2.0, abs=0.2)

    def test_sup_norm_variant(self, rc1):
        setup = make_setup(8, 1)
        rep = bias_norm_scaling(
            rc1, setup.kernel, 0, np.inf, (1 / 8, 1 / 16, 1 / 32), nodes=257,
            grid_nodes=129,
        )
        assert rep.r == np.inf
        assert rep.slope == pytest.approx(2.0, abs=0.2)

    def test_validation(self, rc1):
        setup = make_setup(8, 1)
        with pytest.raises(InvalidParameterError):
            bias_norm_scaling(rc1, setup.kernel, 0, 2.0, (0.5, 0.25))
        with pytest.raises(InvalidParameterError):
            bias_norm_scaling(rc1, setup.kernel, 1, 2.0, (0.5, 0.25, 0.125))
        with pytest.raises(InvalidParameterError):
            bias_norm_scaling(rc1, setup.kernel, 0, 0.5, (0.5, 0.25, 0.125))

    @pytest.mark.parametrize("h_schedule, grid_nodes, match", [
        ((1 / 8, 1 / 16, float("inf")), 129, "h_schedule"),
        ((1 / 8, 1 / 16, float("nan")), 129, "h_schedule"),
        ((1 / 8, 1 / 16, -1 / 32), 129, "h_schedule"),
        ((1 / 8, 1 / 16, 0.0), 129, "h_schedule"),
        ((1 / 8, 1 / 16, 1 / 32), 1, "grid_nodes must be >= 2"),
        ((1 / 8, 1 / 16, 1 / 32), 2.5, "grid_nodes must be an integer"),
        ((1 / 8, 1 / 16, 1 / 32), True, "grid_nodes must be an integer"),
    ], ids=["h_inf", "h_nan", "h_negative", "h_zero", "grid_nodes_1", "grid_nodes_2.5",
            "grid_nodes_True"])
    def test_bad_schedule_and_grid_nodes_are_named(self, rc1, h_schedule, grid_nodes, match):
        # inf or a negative h ended in numpy's LinAlgError, h = 0 gave a
        # "degenerate" report; grid_nodes 1 and 2.5 raised raw ValueError
        # and TypeError
        setup = make_setup(8, 1)
        with pytest.raises(InvalidParameterError, match=match):
            bias_norm_scaling(rc1, setup.kernel, 0, 2.0, h_schedule, grid_nodes=grid_nodes)
