import math

import numpy as np
import pytest

from anisokde.bandwidths import Bandwidth
from anisokde.densities import (
    TrueDensity,
    flat_top_density,
    sample,
    smooth_product_density,
)
from anisokde.errors import InvalidParameterError
from anisokde.estimator import kappa_default, make_setup, select_and_estimate
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


def wrap_non_product(f: TrueDensity) -> TrueDensity:
    """Same density, but stripped of its product structure."""
    return TrueDensity(
        label="wrapped",
        dim=f.dim,
        box=f.box,
        sup_bound=f.sup_bound,
        pdf_fn=lambda pts: f._eval(pts),
    )


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
    def test_product_and_generic_paths_agree(self, rc1):
        # one density with and without its product structure: the per-axis
        # and the tensor quadratures of every true term, pair means read
        # from the setup's q_r tables included, use the same nodes
        from anisokde.estimator import KappaPolicy
        from anisokde.oracle import _TrueTables

        setup = make_setup(32, 1, ell=2, table_size=256, max_exponent=3)
        policy = KappaPolicy(kappa=0.05, d=1, p=2.0, k_inf=setup.kernel.k_inf)
        x = np.array([0.1])
        prod = _TrueTables(rc1, x, policy, setup, 32, 33)
        generic = _TrueTables(wrap_non_product(rc1), x, policy, setup, 32, 33)
        for name in ("mean_f", "a_k", "a_q", "pair_mean", "bias_bar", "m_k", "m_q"):
            assert np.allclose(getattr(prod, name), getattr(generic, name),
                               rtol=0.0, atol=1e-12), name


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
