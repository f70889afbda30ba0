import math
import time

import numpy as np
import pytest

from anisokde.bandwidths import Bandwidth, geq, join
from anisokde.errors import InvalidParameterError
from anisokde.kernels import convolve_ratio
from anisokde.estimator import (
    KappaPolicy,
    build_dataset,
    estimate_on_grid,
    kappa_default,
    make_setup,
    select_and_estimate,
)
from reference import (
    eval_A_hat,
    eval_criterion,
    eval_fhat,
    eval_fhat_pair,
    eval_M_hat,
    eval_pair_kernel,
)


def far_dataset(n, dim, center=5.0):
    """Observations too far from the origin for any kernel to reach."""
    return build_dataset(np.full((n, dim), center))


class TestKappaPolicy:
    def test_default_values(self):
        assert kappa_default(1, 2.0, 1.0).kappa == pytest.approx(20.0)
        assert kappa_default(2, 2.0, 1.0).kappa == pytest.approx(32.0)

    def test_sub_unit_sup_norm_clamps(self):
        assert kappa_default(1, 2.0, 0.5).kappa == pytest.approx(20.0)

    def test_large_sup_norm_scales_quadratically(self):
        assert kappa_default(1, 2.0, 2.0).kappa == pytest.approx(80.0)

    def test_default_meets_theory_bound(self):
        assert kappa_default(3, 1.5, 1.7).meets_theory_bound

    def test_default_is_exactly_the_theory_floor(self):
        for d, p, k_inf in ((1, 2.0, 1.0), (2, 1.5, 1.7), (3, 3.25, 0.4), (4, 2, 2)):
            pol = kappa_default(d, p, k_inf)
            assert pol.kappa == pol.theory_floor

    def test_small_kappa_is_legal_but_below_floor(self):
        pol = KappaPolicy(kappa=0.05, d=1, p=2.0, k_inf=2.0)
        assert not pol.meets_theory_bound

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            KappaPolicy(kappa=0.0, d=1, p=2.0, k_inf=1.0)
        with pytest.raises(InvalidParameterError):
            KappaPolicy(kappa=1.0, d=0, p=2.0, k_inf=1.0)
        with pytest.raises(InvalidParameterError):
            kappa_default(1, 0.5, 1.0)


class TestDataset:
    def test_shapes_and_counts(self):
        data = build_dataset(np.zeros((10, 3)))
        assert data.n == 10 and data.dim == 3

    def test_empty_dataset_allowed(self):
        data = build_dataset(np.zeros((0, 2)))
        assert data.n == 0
        assert data.box_indices(np.array([-1.0, -1.0]), np.array([1.0, 1.0])).size == 0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            build_dataset(np.zeros(5))
        with pytest.raises(InvalidParameterError):
            build_dataset(np.array([[np.inf]]))

    def test_box_query_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 513))
            pts = rng.uniform(-2, 2, size=(n, d))
            data = build_dataset(pts)
            lo = rng.uniform(-2, 1, size=d)
            hi = lo + rng.uniform(0, 2, size=d)
            got = np.sort(data.box_indices(lo, hi))
            want = np.where(np.all((pts >= lo) & (pts <= hi), axis=1))[0]
            assert np.array_equal(got, want)


class TestPointEstimates:
    def test_single_observation_at_origin(self, composites):
        data = build_dataset(np.zeros((1, 2)))
        setup = make_setup(4, 2)
        h = Bandwidth((0, 0))
        assert eval_fhat(data, setup.kernel, h, np.zeros(2)) == pytest.approx(4.0, abs=1e-12)

    def test_two_symmetric_observations(self):
        data = build_dataset(np.array([[-0.125], [0.125]]))
        setup = make_setup(4, 1)
        got = eval_fhat(data, setup.kernel, Bandwidth((0,)), np.zeros(1))
        expect = 1.0 + math.cos(2 * math.pi * 0.125)
        assert got == pytest.approx(expect, abs=1e-8)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(3)
        for d in (1, 2, 3):
            setup = make_setup(64, d)
            pts = rng.uniform(-1, 1, size=(200, d))
            data = build_dataset(pts)
            for _ in range(12):
                exps = tuple(int(k) for k in rng.integers(0, 4, size=d))
                h = Bandwidth(exps)
                x = rng.uniform(-1, 1, size=d)
                direct = setup.kernel((pts - x) / h.values).sum() / (200 * h.volume)
                assert eval_fhat(data, setup.kernel, h, x) == pytest.approx(
                    direct, abs=1e-12
                )

    def test_far_data_gives_zero(self):
        data = far_dataset(8, 2)
        setup = make_setup(8, 2)
        assert eval_fhat(data, setup.kernel, Bandwidth((0, 0)), np.zeros(2)) == 0.0

    def test_negative_estimates_are_not_clipped(self):
        # order-2 profile has negative lobes
        data = build_dataset(np.array([[0.3], [0.31]]))
        setup = make_setup(4, 1, ell=2)
        got = eval_fhat(data, setup.kernel, Bandwidth((0,)), np.zeros(1))
        assert got < 0.0

    def test_duplicate_observations_count_twice(self):
        base = build_dataset(np.array([[0.1]]))
        doubled = build_dataset(np.array([[0.1], [0.1]]))
        setup = make_setup(4, 1)
        h = Bandwidth((0,))
        a = eval_fhat(base, setup.kernel, h, np.zeros(1))
        b = eval_fhat(doubled, setup.kernel, h, np.zeros(1))
        assert b == pytest.approx(a, abs=1e-14)


class TestPairEstimates:
    def test_symmetric_in_bandwidths(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1, 1, size=(50, 2))
        data = build_dataset(pts)
        setup = make_setup(16, 2)
        h, eta = Bandwidth((0, 3)), Bandwidth((2, 1))
        x = np.array([0.2, -0.1])
        ab = eval_fhat_pair(data, setup.kernel, h, eta, x)
        ba = eval_fhat_pair(data, setup.kernel, eta, h, x)
        assert ab == ba

    def test_matches_direct_pair_kernel_sum(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1, 1, size=(80, 2))
        data = build_dataset(pts)
        setup = make_setup(16, 2)
        h, eta = Bandwidth((1, 2)), Bandwidth((3, 0))
        x = np.array([0.05, 0.15])
        direct = eval_pair_kernel(setup.kernel, h, eta, pts - x).mean()
        got = eval_fhat_pair(data, setup.kernel, h, eta, x)
        assert got == pytest.approx(direct, abs=1e-12)

    def test_far_data_gives_zero(self):
        data = far_dataset(8, 1)
        setup = make_setup(8, 1)
        got = eval_fhat_pair(
            data, setup.kernel, Bandwidth((1,)), Bandwidth((2,)), np.zeros(1)
        )
        assert got == 0.0


class TestMajorants:
    def test_far_data_reduces_to_deterministic_term(self):
        data = far_dataset(21, 1)
        setup = make_setup(21, 1)
        policy = kappa_default(1, 2.0, setup.kernel.k_inf)
        assert policy.kappa == pytest.approx(80.0)  # sup norm 2, so 4 * 20
        h = Bandwidth((2,))
        got = eval_M_hat(data, setup.kernel, h, np.zeros(1), policy)
        assert got == pytest.approx(
            4 * policy.kappa * math.log(21) / (21 * h.volume), rel=1e-14
        )

    def test_matches_formula_with_empirical_average(self):
        rng = np.random.default_rng(19)
        pts = rng.uniform(-0.5, 0.5, size=(21, 1))
        data = build_dataset(pts)
        setup = make_setup(21, 1)
        policy = kappa_default(1, 2.0, setup.kernel.k_inf)
        for exps in ((0,), (1,), (3,)):
            h = Bandwidth(exps)
            a = eval_A_hat(data, setup.kernel, h, np.zeros(1))
            lam = policy.kappa * math.log(21) / (21 * h.volume)
            expect = 4 * math.sqrt(a * lam) + 4 * lam
            got = eval_M_hat(data, setup.kernel, h, np.zeros(1), policy)
            assert got == pytest.approx(expect, rel=1e-13)

    def test_absolute_average_via_direct_sum(self):
        rng = np.random.default_rng(23)
        pts = rng.uniform(-0.6, 0.6, size=(40, 1))
        data = build_dataset(pts)
        setup = make_setup(40, 1, ell=2)
        h = Bandwidth((1,))
        x = np.array([0.1])
        direct = np.abs(setup.kernel((pts - x) / h.values)).sum() / (40 * h.volume)
        assert eval_A_hat(data, setup.kernel, h, x) == pytest.approx(direct, abs=1e-13)

    def test_majorant_grows_with_local_mass(self):
        setup = make_setup(32, 1)
        policy = kappa_default(1, 2.0, setup.kernel.k_inf)
        sparse = build_dataset(np.linspace(-4, 4, 32)[:, None])
        dense = build_dataset(np.linspace(-0.1, 0.1, 32)[:, None])
        h = Bandwidth((0,))
        m_sparse = eval_M_hat(sparse, setup.kernel, h, np.zeros(1), policy)
        m_dense = eval_M_hat(dense, setup.kernel, h, np.zeros(1), policy)
        assert m_dense > m_sparse

    def test_envelope_majorant_dominates_kernel_majorant(self):
        rng = np.random.default_rng(29)
        data = build_dataset(rng.uniform(-1, 1, size=(64, 1)))
        setup = make_setup(64, 1)
        policy = kappa_default(1, 2.0, setup.kernel.k_inf)
        for exps in ((0,), (2,), (5,)):
            h = Bandwidth(exps)
            m_k = eval_M_hat(data, setup.kernel, h, np.zeros(1), policy)
            m_q = eval_M_hat(data, setup.majorant, h, np.zeros(1), policy)
            assert m_q >= m_k - 1e-12

    def test_tiny_samples_rejected(self):
        data = build_dataset(np.zeros((1, 1)))
        setup = make_setup(4, 1)
        policy = kappa_default(1, 2.0, setup.kernel.k_inf)
        with pytest.raises(InvalidParameterError):
            eval_M_hat(data, setup.kernel, Bandwidth((0,)), np.zeros(1), policy)


def naive_criterion(data, x, h, policy, setup):
    """Literal transcription of the selection criterion from its parts."""
    K, Q, grid = setup.kernel, setup.majorant, setup.grid
    m_k = {}
    m_q = {}
    fh = {}
    for eta in grid:
        m_k[eta.exponents] = eval_M_hat(data, K, eta, x, policy)
        m_q[eta.exponents] = eval_M_hat(data, Q, eta, x, policy)
        fh[eta.exponents] = eval_fhat(data, K, eta, x)
    bracket = 0.0
    for eta in grid:
        pair = eval_fhat_pair(data, K, h, eta, x)
        gap = (
            abs(pair - fh[eta.exponents])
            - m_q[join(h, eta).exponents]
            - m_k[eta.exponents]
        )
        bracket = max(bracket, gap)
    coarse = max(m_q[eta.exponents] for eta in grid if geq(eta, h))
    return bracket + coarse + m_k[h.exponents]


class TestCriterionAndSelection:
    def test_matches_naive_assembly(self):
        rng = np.random.default_rng(41)
        for d, n in ((1, 48), (2, 24)):
            setup = make_setup(n, d, max_exponent=2)
            policy = kappa_default(d, 2.0, setup.kernel.k_inf)
            data = build_dataset(rng.uniform(-1, 1, size=(n, d)))
            for _ in range(4):
                exps = tuple(int(k) for k in rng.integers(0, 3, size=d))
                x = rng.uniform(-0.5, 0.5, size=d)
                h = Bandwidth(exps)
                fast = eval_criterion(data, x, h, policy, setup)
                slow = naive_criterion(data, x, h, policy, setup)
                assert fast == pytest.approx(slow, abs=1e-10)

    def test_matches_naive_assembly_with_small_kappa(self):
        # at the theory-floor kappa the majorants swamp every bracket;
        # at 0.05 the pair estimates decide part of the criterion
        rng = np.random.default_rng(89)
        for d, n in ((1, 64), (2, 32)):
            setup = make_setup(n, d, ell=2, table_size=256, max_exponent=3)
            policy = KappaPolicy(kappa=0.05, d=d, p=2.0, k_inf=setup.kernel.k_inf)
            data = build_dataset(rng.uniform(-1, 1, size=(n, d)))
            x = rng.uniform(-0.5, 0.5, size=d)
            for h in setup.grid:
                fast = eval_criterion(data, x, h, policy, setup)
                slow = naive_criterion(data, x, h, policy, setup)
                assert fast == pytest.approx(slow, rel=1e-12, abs=1e-10)

    def test_far_data_criterion_closed_form(self):
        n = 32
        data = far_dataset(n, 1)
        setup = make_setup(n, 1)
        policy = kappa_default(1, 2.0, setup.kernel.k_inf)
        for exps in ((0,), (2,), (4,)):
            h = Bandwidth(exps)
            got = eval_criterion(data, np.zeros(1), h, policy, setup)
            expect = 8 * policy.kappa * math.log(n) / (n * h.volume)
            assert got == pytest.approx(expect, rel=1e-12)

    def test_far_data_selects_widest_bandwidth(self):
        data = far_dataset(32, 2)
        setup = make_setup(32, 2)
        policy = kappa_default(2, 2.0, setup.kernel.k_inf)
        fit = select_and_estimate(data, np.zeros(2), policy, setup)
        assert fit.selected.exponents == (0, 0)
        assert fit.estimate == 0.0
        assert fit.counts == 0

    def test_single_bandwidth_lattice(self):
        rng = np.random.default_rng(43)
        pts = rng.uniform(-0.5, 0.5, size=(16, 1))
        data = build_dataset(pts)
        setup = make_setup(16, 1, max_exponent=0)
        policy = kappa_default(1, 2.0, setup.kernel.k_inf)
        fit = select_and_estimate(data, np.zeros(1), policy, setup)
        assert fit.selected.exponents == (0,)
        assert fit.estimate == pytest.approx(
            eval_fhat(data, setup.kernel, Bandwidth((0,)), np.zeros(1)), abs=1e-14
        )

    def test_selection_is_criterion_argmin(self):
        rng = np.random.default_rng(47)
        for d, n, max_exp in ((1, 64, None), (2, 32, 3), (2, 16, 2)):
            data = build_dataset(rng.uniform(-1, 1, size=(n, d)))
            setup = make_setup(n, d, max_exponent=max_exp)
            policy = kappa_default(d, 2.0, setup.kernel.k_inf)
            for x in (np.zeros(d), rng.uniform(-0.5, 0.5, size=d)):
                fit = select_and_estimate(data, x, policy, setup, keep_criterion=True)
                assert len(fit.criterion) == len(setup.grid)
                best = min(fit.criterion.values())
                assert fit.criterion[fit.selected.exponents] == best
                # tie rule: widest bandwidth first, then lexicographic order
                tied = [e for e, v in fit.criterion.items() if v == best]
                assert fit.selected.exponents == min(tied, key=lambda e: (sum(e), e))

    def test_selection_deterministic_across_calls(self):
        rng = np.random.default_rng(53)
        data = build_dataset(rng.uniform(-1, 1, size=(32, 2)))
        setup = make_setup(32, 2, max_exponent=2)
        policy = kappa_default(2, 2.0, setup.kernel.k_inf)
        x = np.array([0.1, -0.2])
        a = select_and_estimate(data, x, policy, setup)
        b = select_and_estimate(data, x, policy, setup)
        assert a.selected.exponents == b.selected.exponents
        assert a.estimate == b.estimate

    def test_off_grid_bandwidth_rejected(self):
        data = far_dataset(4, 1)
        setup = make_setup(4, 1)
        policy = kappa_default(1, 2.0, setup.kernel.k_inf)
        with pytest.raises(InvalidParameterError):
            eval_criterion(data, np.zeros(1), Bandwidth((9,)), policy, setup)


class TestRecordAgainstReference:
    """Every entry of the selector's lattice-wide record against the
    scalar reference evaluators."""

    @pytest.mark.parametrize("d, n, max_exponent", [(1, 64, None), (2, 48, 3)])
    def test_raw_tables_match_reference(self, d, n, max_exponent):
        from anisokde.estimator import _select_point

        rng = np.random.default_rng(83)
        data = build_dataset(rng.uniform(-1, 1, size=(n, d)))
        setup = make_setup(n, d, ell=2, table_size=256, max_exponent=max_exponent)
        policy = KappaPolicy(kappa=0.05, d=d, p=2.0, k_inf=setup.kernel.k_inf)
        x = rng.uniform(-0.5, 0.5, size=d)
        rec = _select_point(data, x, policy, setup)
        K, Q = setup.kernel, setup.majorant
        grid = list(setup.grid)

        def close(a, b):
            return a == pytest.approx(b, rel=1e-12, abs=1e-12)

        for i, h in enumerate(grid):
            assert close(rec.fhat[i], eval_fhat(data, K, h, x)), h
            assert close(rec.a_k[i], eval_A_hat(data, K, h, x)), h
            assert close(rec.a_q[i], eval_A_hat(data, Q, h, x)), h
            for l, eta in enumerate(grid):
                assert close(rec.pair[i, l], eval_fhat_pair(data, K, h, eta, x)), (h, eta)


class TestGridEstimation:
    def test_empty_point_list(self):
        data = far_dataset(4, 2)
        setup = make_setup(4, 2)
        policy = kappa_default(2, 2.0, setup.kernel.k_inf)
        assert estimate_on_grid(data, np.empty((0, 2)), policy, setup) == []

    def test_thread_count_does_not_change_results(self):
        rng = np.random.default_rng(59)
        data = build_dataset(rng.uniform(-1, 1, size=(48, 1)))
        setup = make_setup(48, 1, max_exponent=3)
        policy = kappa_default(1, 2.0, setup.kernel.k_inf)
        pts = np.linspace(-0.8, 0.8, 9)[:, None]
        serial = estimate_on_grid(data, pts, policy, setup, threads=1)
        parallel = estimate_on_grid(data, pts, policy, setup, threads=4)
        assert [f.estimate for f in serial] == [f.estimate for f in parallel]
        assert [f.selected.exponents for f in serial] == [
            f.selected.exponents for f in parallel
        ]

    def test_matches_pointwise_calls(self):
        rng = np.random.default_rng(61)
        data = build_dataset(rng.uniform(-1, 1, size=(32, 1)))
        setup = make_setup(32, 1, max_exponent=2)
        policy = kappa_default(1, 2.0, setup.kernel.k_inf)
        pts = np.array([[0.0], [0.3]])
        fits = estimate_on_grid(data, pts, policy, setup)
        for row, fit in zip(pts, fits):
            solo = select_and_estimate(data, row, policy, setup)
            assert fit.estimate == solo.estimate
            assert fit.selected.exponents == solo.selected.exponents

    def test_shape_validation(self):
        data = far_dataset(4, 2)
        setup = make_setup(4, 2)
        policy = kappa_default(2, 2.0, setup.kernel.k_inf)
        with pytest.raises(InvalidParameterError):
            estimate_on_grid(data, np.zeros((3, 1)), policy, setup)


NON_FINITE_POINTS = ([np.nan, 0.0], [np.inf, 0.0], [-np.inf, np.nan])


class TestNonFinitePoints:
    @staticmethod
    def fixture():
        rng = np.random.default_rng(67)
        data = build_dataset(rng.uniform(-1, 1, size=(16, 2)))
        setup = make_setup(16, 2, max_exponent=2)
        return data, setup, kappa_default(2, 2.0, setup.kernel.k_inf)

    @pytest.mark.parametrize("x", NON_FINITE_POINTS)
    def test_select_and_estimate_rejects(self, x):
        data, setup, policy = self.fixture()
        with pytest.raises(InvalidParameterError, match="finite"):
            select_and_estimate(data, np.array(x), policy, setup)

    @pytest.mark.parametrize("x", NON_FINITE_POINTS)
    def test_estimate_on_grid_rejects(self, x):
        data, setup, policy = self.fixture()
        pts = np.array([[0.0, 0.0], x])
        with pytest.raises(InvalidParameterError, match="finite"):
            estimate_on_grid(data, pts, policy, setup)


class TestSetup:
    def test_lattice_sized_by_sample(self):
        setup = make_setup(8, 2)
        assert setup.grid.max_exponent == 3
        assert len(setup.grid) == 16

    def test_max_exponent_override(self):
        setup = make_setup(1024, 1, max_exponent=2)
        assert setup.grid.max_exponent == 2

    def test_marginal_accessor(self):
        setup = make_setup(8, 2, ell=2)
        assert setup.marginal.ell == 2

    def test_dim_agreement_enforced(self):
        from anisokde.estimator import EstimationSetup

        a = make_setup(8, 1)
        b = make_setup(8, 2)
        with pytest.raises(InvalidParameterError):
            EstimationSetup(kernel=a.kernel, majorant=b.majorant, grid=a.grid,
                            pair_tables=a.pair_tables)
        with pytest.raises(InvalidParameterError):
            EstimationSetup(kernel=b.kernel, majorant=b.majorant, grid=a.grid,
                            pair_tables=a.pair_tables)
        with pytest.raises(InvalidParameterError):
            EstimationSetup(kernel=a.kernel, majorant=a.majorant, grid=a.grid,
                            pair_tables=a.pair_tables[:-1])


class TestSetupOwnsTables:
    @pytest.mark.parametrize("n, dim, ell", [(64, 1, 1), (256, 2, 2), (16, 3, 3)])
    def test_pair_tables_are_the_lattice_ratio_tables(self, n, dim, ell):
        setup = make_setup(n, dim, ell=ell, table_size=256)
        E = setup.grid.max_exponent
        assert len(setup.pair_tables) == E + 1
        for k, q in enumerate(setup.pair_tables):
            ref = convolve_ratio(setup.marginal, 2.0 ** -k)
            assert np.array_equal(q.profile.values, ref.profile.values), k
        stacked = np.abs(np.stack([q.profile.values for q in setup.pair_tables]))
        assert np.array_equal(setup.majorant.factor.profile.values, stacked.max(axis=0))

    def test_each_lattice_ratio_is_tabulated_once(self, monkeypatch, rc2):
        import anisokde.estimator as est
        import anisokde.kernels as kern
        from anisokde.oracle import oracle_terms

        calls = []

        def counted(composite, ratio):
            calls.append(ratio)
            return convolve_ratio(composite, ratio)

        monkeypatch.setattr(est, "convolve_ratio", counted)
        monkeypatch.setattr(kern, "convolve_ratio", counted)
        setup = est.make_setup(64, 2, table_size=128)
        E = setup.grid.max_exponent
        assert calls == [2.0 ** -k for k in range(E + 1)]
        # fits and the oracle read the setup's tables and build none
        data = build_dataset(np.random.default_rng(3).uniform(-1, 1, size=(64, 2)))
        policy = kappa_default(2, 2.0, setup.kernel.k_inf)
        estimate_on_grid(data, np.array([[0.0, 0.0], [0.3, -0.2]]), policy, setup)
        oracle_terms(data, rc2, np.array([0.1, 0.2]), policy, setup, nodes=17)
        assert len(calls) == E + 1

    def test_setups_built_together_fit_like_setups_built_alone(self):
        configs = [(1, 64), (2, 128), (1, 256), (3, 64)]
        rng = np.random.default_rng(71)
        data = build_dataset(rng.uniform(-1, 1, size=(32, 2)))
        pts = rng.uniform(-0.8, 0.8, size=(3, 2))

        def fits(setup):
            policy = kappa_default(2, 2.0, setup.kernel.k_inf)
            return [(f.selected.exponents, f.estimate)
                    for f in estimate_on_grid(data, pts, policy, setup)]

        alone = []
        for ell, size in configs:
            alone.append(fits(make_setup(32, 2, ell=ell, table_size=size)))
        together = [make_setup(32, 2, ell=ell, table_size=size) for ell, size in configs]
        assert [fits(s) for s in reversed(together)] == alone[::-1]


class TestLatticeMemoryGuard:
    def test_oversized_lattice_refused_before_any_allocation(self, monkeypatch):
        import tracemalloc

        import anisokde.estimator as est

        def no_tables(*args):
            raise AssertionError("a kernel table was built before the check")

        monkeypatch.setattr(est, "convolve_ratio", no_tables)
        monkeypatch.setattr(est, "build_base", no_tables)
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            with pytest.raises(InvalidParameterError, match="MAX_LATTICE_BYTES"):
                est.make_setup(4096, 4)  # H = 13^4 = 28561
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - t0 < 1.0
        assert peak < 2**20

    def test_override_is_checked_too(self):
        with pytest.raises(InvalidParameterError, match="MAX_LATTICE_BYTES"):
            make_setup(4, 4, max_exponent=12)

    def test_d3_n256_still_builds(self):
        setup = make_setup(256, 3, table_size=64)
        assert len(setup.grid) == 729
        assert setup.tables.join_index.shape == (729, 729)
