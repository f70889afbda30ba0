import math
import time

import numpy as np
import pytest

from anisokde.bandwidths import Bandwidth, BandwidthGrid, geq, join
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
from anisokde.densities import sample, smooth_product_density
from anisokde.oracle import assert_oracle_inequality
from anisokde.risk import ExperimentPlan, default_grid, run_plan
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
        # a fractional or boolean dimension, and a non-finite norm index
        for d, p in ((2.5, 2.0), (2.0, 2.0), (True, 2.0), (2, float("inf")), (2, float("nan"))):
            with pytest.raises(InvalidParameterError):
                KappaPolicy(kappa=1.0, d=d, p=p, k_inf=1.0)
            with pytest.raises(InvalidParameterError):
                kappa_default(d, p, 1.0)
        assert KappaPolicy(kappa=1.0, d=np.int64(2), p=2, k_inf=1.0).theory_floor == 32.0


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

    @pytest.mark.parametrize("dim, max_exponent", [(1, 7), (2, 4), (3, 3)])
    def test_coarser_sup_matches_brute_force(self, dim, max_exponent):
        from anisokde.estimator import _coarser_sup, _GridTables

        grid = BandwidthGrid(dim=dim, max_exponent=max_exponent)
        tables = _GridTables(grid)
        rng = np.random.default_rng(dim)
        for values in (rng.standard_normal(len(grid)),
                       rng.integers(0, 3, len(grid)).astype(float)):
            want = [max(values[j] for j, eta in enumerate(grid) if geq(eta, h))
                    for h in grid]
            assert np.array_equal(_coarser_sup(values, tables), want)

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
        for d, n, max_exp in ((1, 64, None), (2, 32, 3), (2, 16, 2), (3, 32, 2)):
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


def full_record_argmin(rec, setup):
    """The documented choice read off a full record: least criterion,
    then smallest exponent sum, then first lattice row."""
    sums = setup.tables.exp_sum
    return min(range(setup.tables.size), key=lambda i: (rec.criterion[i], sums[i], i))


def pair_matrix(rec, setup):
    """The record's (H, H) pair estimates, read from its key sums as the
    oracle reads them."""
    from anisokde.estimator import _pair_read

    return _pair_read(rec.keys, setup.tables.every_pair[0])


def assert_pruned_matches_full(data, x, policy, setup):
    """The pruned selection against the full record's argmin; returns
    the full record."""
    from anisokde.estimator import _select_point

    full = _select_point(data, x, policy, setup, keep_criterion=True)
    pruned = _select_point(data, x, policy, setup)
    assert pruned.criterion is None
    assert pruned.best == full.best == full_record_argmin(full, setup)
    assert pruned.selected is full.selected and pruned.counts == full.counts
    for name in ("fhat", "a_k", "a_q", "keys"):
        assert np.array_equal(getattr(pruned, name), getattr(full, name)), name
    return full


def window_spans(data, pts, setup):
    """Layout passes and chunks that the entries of each d = 1 window of
    `_window_sums` fall in, for the block of points pts (points, 1) at
    the current _BLOCK_ENTRIES and _CHUNK_ENTRIES: two arrays, one value
    per window that holds an entry."""
    import anisokde.estimator as est

    scales, sv = setup.tables.scales, data.sorted_vals[0]
    near = [sv[(sv >= x - 1.0) & (sv <= x + 1.0)] - x for x in pts[:, 0]]
    point = np.repeat(np.arange(len(pts)), [len(y) for y in near])
    # entries in candidate order, each candidate's scales from 0
    cand, scale = np.nonzero(np.abs(np.concatenate(near))[:, None] <= 1.0 / scales)
    passes = cand // max(1, est._BLOCK_ENTRIES // scales.size)
    at = np.arange(cand.size) - np.searchsorted(passes, passes)
    chunks = passes * cand.size + at // est._CHUNK_ENTRIES
    window = point[cand] * scales.size + scale

    def spans(ids):  # distinct ids per window
        return np.unique(np.unique(np.stack([window, ids]), axis=1)[0], return_counts=True)[1]

    return spans(passes), spans(chunks)


def assert_record_matches_reference(data, x, setup):
    policy = KappaPolicy(kappa=0.05, d=data.dim, p=2.0, k_inf=setup.kernel.k_inf)
    rec = assert_pruned_matches_full(data, x, policy, setup)
    K, Q = setup.kernel, setup.majorant
    grid = list(setup.grid)

    def close(a, b):
        return a == pytest.approx(b, rel=1e-12, abs=1e-12)

    pair = pair_matrix(rec, setup)
    for i, h in enumerate(grid):
        assert close(rec.fhat[i], eval_fhat(data, K, h, x)), h
        assert close(rec.a_k[i], eval_A_hat(data, K, h, x)), h
        assert close(rec.a_q[i], eval_A_hat(data, Q, h, x)), h
        for l, eta in enumerate(grid):
            assert close(pair[i, l], eval_fhat_pair(data, K, h, eta, x)), (h, eta)
    return rec


class TestRecordAgainstReference:
    """Every entry of the selector's lattice-wide record against the
    scalar reference evaluators."""

    @pytest.mark.parametrize("d, n, max_exponent, ell, table_size", [
        pytest.param(1, 64, None, 2, 256, id="1-64-None"),
        pytest.param(2, 48, 3, 2, 256, id="2-48-3"),
        pytest.param(3, 32, 2, 1, 256, id="3-32-2-ell1"),
        pytest.param(3, 32, 2, 2, 256, id="3-32-2-ell2"),
        # odd table sizes put the kernel's nodes half a step off the q_r grid
        pytest.param(1, 64, None, 1, 65, id="1-64-None-ell1-m65"),
        pytest.param(2, 48, 3, 2, 65, id="2-48-3-m65"),
        pytest.param(3, 32, 2, 2, 65, id="3-32-2-ell2-m65"),
    ])
    def test_raw_tables_match_reference(self, d, n, max_exponent, ell, table_size):
        rng = np.random.default_rng(83)
        data = build_dataset(rng.uniform(-1, 1, size=(n, d)))
        setup = make_setup(n, d, ell=ell, table_size=table_size, max_exponent=max_exponent)
        assert_record_matches_reference(data, rng.uniform(-0.5, 0.5, size=d), setup)

    @pytest.mark.parametrize("d, ell, table_size", [
        (1, 1, 64), (1, 2, 65), (2, 2, 64), (2, 1, 65), (3, 2, 64), (3, 1, 65),
    ])
    def test_support_edges_and_chunks_match_reference(self, monkeypatch, d, ell, table_size):
        import anisokde.estimator as est

        E = 4 if d == 1 else 2
        x = np.full(d, 0.25)
        # offsets +-2^-a and +-2^-a/2: the edges of the q_r and kernel supports
        edges = np.array([s * 2.0 ** -b for b in range(E + 2) for s in (-1.0, 1.0)] + [0.0])
        rng = np.random.default_rng(89)
        offs = rng.choice(edges, size=(40, d))
        offs[:edges.size, 0] = edges
        data = build_dataset(np.vstack([x + offs, rng.uniform(-1, 1.5, size=(8, d))]))
        assert np.array_equal(data.points[:edges.size, 0] - x[0], edges)
        setup = make_setup(data.n, d, ell=ell, table_size=table_size, max_exponent=E)
        policy = KappaPolicy(kappa=0.05, d=d, p=2.0, k_inf=setup.kernel.k_inf)
        whole = est._select_point(data, x, policy, setup)
        # five candidates per chunk (d >= 2) or layout pass (d = 1), and
        # three entries per d = 1 chunk, so the loops run many times
        monkeypatch.setattr(est, "_BLOCK_BYTES", 8 * 5 * est._row_floats(d, E))
        monkeypatch.setattr(est, "_BLOCK_ENTRIES", 5 * (E + 1))
        monkeypatch.setattr(est, "_CHUNK_ENTRIES", 3)
        rec = assert_record_matches_reference(data, x, setup)
        assert rec.counts > 10
        if d == 1:
            passes, chunks = window_spans(data, x[None], setup)
            assert ((passes >= 3) & (chunks >= 6)).any()
            # each window is one sequential sum, whatever cuts it
            for name in ("fhat", "a_k", "a_q", "keys"):
                assert getattr(rec, name).tobytes() == getattr(whole, name).tobytes(), name
        far = assert_record_matches_reference(data, np.full(d, 9.0), setup)
        assert far.counts == 0 and not pair_matrix(far, setup).any()

    def test_selections_match_recorded_ones(self):
        """Selections on seeded samples are pinned: reordering the table
        arithmetic may move the sums in their last bits, not a choice."""
        recorded = [
            [(4,), (7,), (5,), (8,), (5,), (8,), (8,), (2,)],
            [(1, 3), (3, 3), (1, 2), (3, 1), (2, 4), (6, 3), (3, 2), (2, 2)],
            [(7,), (3,), (6,), (7,), (4,), (6,), (1,), (8,)],
            [(0, 4), (2, 1), (1, 0), (4, 4), (3, 3), (0, 3), (1, 1), (1, 1)],
        ]
        for (d, n, m), want in zip(((1, 512, 4096), (2, 256, 4096), (1, 300, 65),
                                    (2, 200, 65)), recorded):
            rng = np.random.default_rng(113)
            data = build_dataset(rng.normal(0.0, 0.3, size=(n, d)))
            setup = make_setup(n, d, table_size=m)
            policy = KappaPolicy(kappa=0.002, d=d, p=2.0, k_inf=setup.kernel.k_inf)
            fits = estimate_on_grid(data, rng.uniform(-1.0, 1.0, size=(8, d)), policy, setup)
            assert [f.selected.exponents for f in fits] == want, (d, n, m)


def hand_built(sums):
    """A `_point_tables` stand-in that writes the given sums at every
    point and reports no candidates."""
    def point_tables(data, x, setup, lines, out):
        for total, value in zip(out, sums):
            total[...] = value
        return 0

    return point_tables


class TestPrunedSelection:
    """The selector evaluates only the rows whose lower bound
    sup_q + m_k is at most a criterion it has seen, at every d; its
    choice must be the full record's argmin, exact ties and tie-break
    included."""

    @pytest.mark.parametrize("d, n, ell, table_size", [
        (1, 256, 1, 64), (1, 128, 2, 65), (2, 128, 2, 256), (2, 256, 1, 65),
        (3, 64, 1, 64), (3, 48, 2, 65),
    ])
    def test_choice_is_the_full_record_argmin(self, d, n, ell, table_size):
        rng = np.random.default_rng(127)
        data = build_dataset(rng.normal(0.0, 0.4, size=(n, d)))
        setup = make_setup(n, d, ell=ell, table_size=table_size)
        for kappa in (0.002, 0.05, kappa_default(d, 2.0, setup.kernel.k_inf).kappa):
            policy = KappaPolicy(kappa=kappa, d=d, p=2.0, k_inf=setup.kernel.k_inf)
            for x in [*rng.uniform(-1.0, 1.0, size=(4, d)), np.full(d, 9.0)]:
                assert_pruned_matches_full(data, x, policy, setup)

    @pytest.mark.parametrize("n, ell, table_size", [(256, 1, 64), (128, 2, 65)])
    def test_d1_reads_every_pair_only_to_keep_the_criterion(self, monkeypatch, n, ell,
                                                             table_size):
        """At d = 1 the pruned pass reads fewer (point, row) pair estimates
        than points x H, keep_criterion reads all of them, and each choice
        is the full record's argmin."""
        import anisokde.estimator as est

        rng = np.random.default_rng(127)
        data = build_dataset(rng.normal(0.0, 0.4, size=(n, 1)))
        setup = make_setup(n, 1, ell=ell, table_size=table_size)
        policy = KappaPolicy(kappa=0.05, d=1, p=2.0, k_inf=setup.kernel.k_inf)
        pts = np.concatenate([rng.uniform(-1.0, 1.0, size=(8, 1)), [[9.0]]])
        H, pair_read, read = setup.tables.size, est._pair_read, []

        def spy(values, parts, rows=slice(None), points=None):
            if parts is setup.tables.every_pair[0]:  # the pair estimates, not m_q
                read.append(len(points))
            return pair_read(values, parts, rows, points)

        monkeypatch.setattr(est, "_pair_read", spy)
        full = list(est._select_points(data, pts, policy, setup, keep_criterion=True))
        assert sum(read) == len(pts) * H
        read.clear()
        pruned = list(est._select_points(data, pts, policy, setup))
        assert len(pts) <= sum(read) < len(pts) * H
        for rec, ref in zip(pruned, full):
            assert rec.best == ref.best == full_record_argmin(ref, setup)

    def test_rows_tied_by_swapping_axes(self):
        # observations on the diagonal, evaluated on the diagonal: the
        # per-axis matrices are equal, so rows (a, b) and (b, a) tie exactly
        rng = np.random.default_rng(0)
        u = rng.normal(0.0, 0.3, size=64)
        data = build_dataset(np.column_stack((u, u)))
        setup = make_setup(64, 2, table_size=256)
        policy = KappaPolicy(kappa=0.002, d=2, p=2.0, k_inf=setup.kernel.k_inf)
        full = assert_pruned_matches_full(data, np.array([0.3, 0.3]), policy, setup)
        crit = {h.exponents: c for h, c in zip(setup.grid, full.criterion)}
        assert all(crit[(a, b)] == crit[(b, a)] for a, b in crit)
        assert full.selected.exponents == (2, 3)
        assert crit[(2, 3)] == crit[(3, 2)] == min(crit.values())

    @pytest.mark.parametrize("spoil, want", [(0.0, (0, 1)), (10.0, (1, 1))])
    def test_lower_bound_equal_to_the_best_criterion(self, monkeypatch, spoil, want):
        """Hand-built sums (m_hat made the identity, so every term is an
        exact small integer). Row (1, 1) has the least lower bound,
        1 + 1 = 2, and criterion (2 + 1) + 1 = 4. Row (0, 1) has lower
        bound 1 + 3 = 4, exactly that criterion: with an empty bracket it
        ties and wins on exponent sum; spoiling its bracket leaves (1, 1)."""
        import anisokde.estimator as est

        setup = make_setup(8, 2, max_exponent=1)  # rows (0,0) (0,1) (1,0) (1,1)
        keys = np.zeros(setup.tables.n_keys ** 2)
        keys[4] = 4.0  # pair ((1,1), (1,1)): key (join 1, ratio 0) on both axes
        keys[2] = spoil  # pair ((0,1), (0,0)), read by no row of least criterion
        sums = (np.zeros(4), np.array([8.0, 3.0, 8.0, 1.0]), np.ones(4), keys)
        monkeypatch.setattr(est, "_m_hat", lambda a_hat, lam: a_hat)
        monkeypatch.setattr(est, "_point_tables", hand_built(sums))
        policy = KappaPolicy(kappa=1.0, d=2, p=2.0, k_inf=setup.kernel.k_inf)
        full = assert_pruned_matches_full(far_dataset(8, 2), np.zeros(2), policy, setup)
        assert full.criterion[3] == 4.0
        assert full.criterion[1] == (4.0 if spoil == 0.0 else 5.0)
        assert full.selected.exponents == want

    def test_tie_goes_to_the_smaller_exponent_sum_before_row_order(self, monkeypatch):
        """Hand-built sums with every bracket empty and sup_q = 0, so the
        criterion is a_k: rows (0, 2) and (1, 0) tie at 1, and (1, 0)
        wins on exponent sum although (0, 2) comes first."""
        import anisokde.estimator as est

        setup = make_setup(8, 2, max_exponent=2)
        a_k = np.full(9, 5.0)
        a_k[[2, 3]] = 1.0  # rows (0, 2) and (1, 0)
        sums = (np.zeros(9), a_k, np.zeros(9), np.zeros(setup.tables.n_keys ** 2))
        monkeypatch.setattr(est, "_m_hat", lambda a_hat, lam: a_hat)
        monkeypatch.setattr(est, "_point_tables", hand_built(sums))
        policy = KappaPolicy(kappa=1.0, d=2, p=2.0, k_inf=setup.kernel.k_inf)
        full = assert_pruned_matches_full(far_dataset(8, 2), np.zeros(2), policy, setup)
        assert full.criterion[2] == full.criterion[3] == 1.0
        assert full.selected.exponents == (1, 0)


class TestPerAxisEngine:
    def test_criterion_blocks_match_one_block(self, monkeypatch):
        import anisokde.estimator as est

        rng = np.random.default_rng(131)
        data = build_dataset(rng.normal(0.0, 0.4, size=(128, 2)))
        setup = make_setup(128, 2, table_size=64)
        policy = KappaPolicy(kappa=0.002, d=2, p=2.0, k_inf=setup.kernel.k_inf)
        x = np.array([0.1, -0.1])
        whole = est._select_point(data, x, policy, setup, keep_criterion=True)
        # criterion rows evaluated three at a time
        monkeypatch.setattr(est, "_BLOCK_PAIRS", 3 * setup.tables.size)
        blocked = assert_pruned_matches_full(data, x, policy, setup)
        assert np.array_equal(blocked.criterion, whole.criterion)
        assert blocked.best == whole.best

    @pytest.mark.parametrize("d, n", [(1, 512), (2, 128), (3, 32)])
    def test_chunked_blocks_match_one_block(self, monkeypatch, d, n):
        import anisokde.estimator as est

        rng = np.random.default_rng(97)
        data = build_dataset(rng.uniform(-1, 1, size=(n, d)))
        setup = make_setup(n, d, ell=2, table_size=256)
        policy = KappaPolicy(kappa=0.05, d=d, p=2.0, k_inf=setup.kernel.k_inf)
        x = rng.uniform(-0.3, 0.3, size=d)
        whole = est._select_point(data, x, policy, setup, keep_criterion=True)
        # seven candidates per chunk or layout pass, and five entries per
        # d = 1 chunk, so every contraction and window sum is chunked
        monkeypatch.setattr(est, "_BLOCK_BYTES",
                            8 * 7 * est._row_floats(d, setup.grid.max_exponent))
        monkeypatch.setattr(est, "_BLOCK_ENTRIES", 7 * (setup.grid.max_exponent + 1))
        monkeypatch.setattr(est, "_CHUNK_ENTRIES", 5)
        if d == 1:
            passes, chunks = window_spans(data, x[None], setup)
            assert ((passes >= 3) & (chunks >= 6)).any()
        chunked = assert_pruned_matches_full(data, x, policy, setup)
        assert chunked.best == whole.best
        for name in ("fhat", "a_k", "a_q", "keys", "criterion"):
            got, want = getattr(chunked, name), getattr(whole, name)
            assert np.allclose(got, want, rtol=1e-13, atol=1e-13), name
            # at d = 1 each window is one sequential sum, whatever cuts it
            assert d > 1 or got.tobytes() == want.tobytes(), name
        assert np.allclose(pair_matrix(chunked, setup), pair_matrix(whole, setup),
                           rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("n, ell, table_size", [(64, 1, 64), (300, 2, 65), (2048, 1, 64)])
    def test_d1_window_sums_are_the_column_sums_of_axis_rows(self, n, ell, table_size):
        """At d = 1 `_window_sums` adds each entry into the point's
        [kernel | envelope | keys | spare] row, the row `_axis_rows`
        writes for an axis at d >= 2: a point's kernel, |kernel|, envelope
        and key sums are, byte for byte, the column sums of its
        candidates' rows over n, the last point far from every one."""
        import anisokde.estimator as est

        rng = np.random.default_rng(157)
        data = build_dataset(rng.normal(0.0, 0.4, size=(n, 1)))
        setup = make_setup(n, 1, ell=ell, table_size=table_size)
        cols = setup.tables.scales.size
        pts = np.array([[0.1], [-0.35], [0.9], [9.0]])
        sums, counts = est._window_sums(data, pts, setup)
        for i, x in enumerate(pts):
            idx = data.box_indices(x - 1.0, x + 1.0)
            rows = np.zeros((idx.size, setup.tables.width))
            est._axis_rows(data.points[idx, 0] - x[0], setup, rows)
            total = rows.sum(axis=0) / n
            want = (total[:cols], np.abs(rows[:, :cols]).sum(axis=0) / n,
                    total[cols:2 * cols], total[2 * cols:-1])
            assert counts[i] == idx.size and (idx.size > 0) is (i < 3)
            for name, got, ref in zip(("kernel", "|kernel|", "envelope", "keys"), sums, want):
                assert got[i].tobytes() == ref.tobytes(), (name, i)

    def test_fits_share_the_lattice_bandwidths(self):
        rng = np.random.default_rng(101)
        data = build_dataset(rng.uniform(-1, 1, size=(64, 2)))
        setup = make_setup(64, 2, max_exponent=3)
        policy = kappa_default(2, 2.0, setup.kernel.k_inf)
        fits = estimate_on_grid(data, rng.uniform(-0.5, 0.5, size=(4, 2)), policy, setup)
        for fit in fits:
            assert fit.selected is setup.tables.bandwidths[setup.grid.index(fit.selected)]
            assert not hasattr(fit, "__dict__")

    def test_d3_point_under_a_second(self):
        from anisokde.estimator import _select_point

        rng = np.random.default_rng(103)
        data = build_dataset(rng.uniform(-1, 1, size=(256, 3)))
        setup = make_setup(256, 3, table_size=256)
        policy = KappaPolicy(kappa=0.05, d=3, p=2.0, k_inf=setup.kernel.k_inf)
        assert setup.tables.size == 729  # built once per setup, outside the timed call
        t0 = time.perf_counter()
        rec = _select_point(data, np.array([0.1, -0.2, 0.05]), policy, setup,
                            keep_criterion=True)
        assert time.perf_counter() - t0 < 1.0
        assert rec.criterion.shape == (729,) and rec.counts > 0
        assert pair_matrix(rec, setup).shape == (729, 729)


class TestBlockSelection:
    """A grid is selected in blocks of points: at d = 1 each laid out in
    passes of at most _BLOCK_ENTRIES entries (2^15) and summed in chunks
    of at most _CHUNK_ENTRIES (2^11), at d >= 2 point by point, reading
    the grid lines the points share; every record must equal the
    one-point call's, bit for bit, whatever the block, pass, chunk and
    line sizes."""

    @staticmethod
    def fixture():
        rng = np.random.default_rng(139)
        data = build_dataset(rng.normal(0.0, 0.4, size=(300, 1)))
        setup = make_setup(300, 1, ell=2, table_size=65)
        policy = KappaPolicy(kappa=0.05, d=1, p=2.0, k_inf=setup.kernel.k_inf)
        # unsorted, duplicated, on an observation, and far from every one
        pts = np.concatenate([rng.uniform(-1.5, 1.5, 9), [0.3, -0.7, 0.3, 0.3],
                              data.points[:2, 0], [9.0, -9.0, 0.3]])[:, None]
        return data, setup, policy, pts

    @pytest.mark.parametrize("entries, points", [(3, 2), (40, 5), (10**6, 10**6)])
    @pytest.mark.parametrize("keep", [False, True])
    def test_grid_fits_equal_point_fits(self, monkeypatch, entries, points, keep):
        import anisokde.estimator as est

        data, setup, policy, pts = self.fixture()
        solo = [select_and_estimate(data, x, policy, setup, keep_criterion=keep) for x in pts]
        solo_recs = [est._select_point(data, x, policy, setup) for x in pts]
        H = setup.tables.size
        # layout passes of `entries` candidates and chunks of `entries` + 1
        # entries cut every window; blocks of `points` points
        monkeypatch.setattr(est, "_BLOCK_ENTRIES", entries * H)
        monkeypatch.setattr(est, "_CHUNK_ENTRIES", entries + 1)
        monkeypatch.setattr(est, "_BLOCK_PAIRS", points * setup.tables.n_keys)
        assert est._block_points(setup.grid) == points
        fits = estimate_on_grid(data, pts, policy, setup, keep_criterion=keep)
        assert max(f.counts for f in fits) > 2 * entries or entries > 300
        if entries < 300:
            passes, chunks = window_spans(data, pts[:points], setup)
            assert ((passes >= 3) & (chunks >= 3)).any()
        assert fits[-3].counts == fits[-2].counts == 0
        for fit, ref in zip(fits, solo):
            assert fit.selected is ref.selected
            assert fit.estimate == ref.estimate and fit.counts == ref.counts
            assert fit.criterion == ref.criterion and np.array_equal(fit.x, ref.x)
        for rec, ref in zip(est._select_points(data, pts, policy, setup), solo_recs):
            for name in ("fhat", "a_k", "a_q", "keys"):
                assert np.array_equal(getattr(rec, name), getattr(ref, name)), name

    def test_default_passes_give_point_records(self):
        """At the scale of a d = 1 risk replicate (n = 2048, the 65-node
        default grid, table size 4096) and the default pass and chunk
        sizes, some window spans two layout passes or more and three
        chunks or more; every record must equal the one-point call's,
        bit for bit."""
        import anisokde.estimator as est
        from anisokde.densities import sample, smooth_product_density
        from anisokde.risk import default_grid

        density = smooth_product_density("raised_cosine", 1)
        data = sample(density, 2048, np.random.default_rng(151))
        setup = make_setup(2048, 1, ell=1, table_size=4096)
        policy = KappaPolicy(kappa=0.05, d=1, p=2.0, k_inf=setup.kernel.k_inf)
        pts = default_grid(density, 65).mesh()
        recs = list(est._select_points(data, pts, policy, setup))
        assert est._block_points(setup.grid) >= len(pts)  # one block
        passes, chunks = window_spans(data, pts, setup)
        assert ((passes >= 2) & (chunks >= 3)).any()
        for rec, x in zip(recs, pts):
            ref = est._select_point(data, x, policy, setup)
            assert rec.best == ref.best and rec.counts == ref.counts
            for name in ("fhat", "a_k", "a_q", "keys"):
                assert getattr(rec, name).tobytes() == getattr(ref, name).tobytes(), name

    @staticmethod
    def mesh_fixture(d):
        rng = np.random.default_rng(149 + d)
        n = {2: 160, 3: 80}[d]
        data = build_dataset(rng.normal(0.0, 0.5, size=(n, d)))
        setup = make_setup(n, d, ell=2, table_size=65)
        policy = KappaPolicy(kappa=0.05, d=d, p=2.0, k_inf=setup.kernel.k_inf)
        nodes = np.linspace(-1.2, 1.2, {2: 5, 3: 3}[d])
        mesh = np.stack(np.meshgrid(*[nodes] * d, indexing="ij"), axis=-1).reshape(-1, d)
        # an ij mesh, the same mesh shuffled, a repeated point, points off
        # the grid, far from every observation, and on a grid line but far
        pts = np.concatenate([mesh, rng.permutation(mesh), mesh[[3, 3, 3]],
                              rng.uniform(-1.5, 1.5, size=(3, d)), np.full((2, d), 9.0),
                              np.r_[nodes[1], np.full(d - 1, 9.0)][None]])
        return data, setup, policy, pts

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("budget", ["none", "some", "every"])
    @pytest.mark.parametrize("keep", [False, True])
    def test_grid_lines_give_point_fits(self, monkeypatch, d, budget, keep):
        """At d >= 2 a point reads the axes it shares with other points
        from kept line matrices; whatever the line budget, every fit and
        record must equal the one-point call's, bit for bit, with lines
        and points built in chunks of seven candidates."""
        import anisokde.estimator as est

        data, setup, policy, pts = self.mesh_fixture(d)
        monkeypatch.setattr(est, "_BLOCK_BYTES",
                            8 * 7 * est._row_floats(d, setup.grid.max_exponent))
        solo = [select_and_estimate(data, x, policy, setup, keep_criterion=keep) for x in pts]
        solo_recs = [est._select_point(data, x, policy, setup) for x in pts]
        one_line = 8 * setup.tables.width * data.n  # the most one line can hold
        monkeypatch.setattr(est, "_LINE_BYTES", {"none": 0, "some": one_line,
                                                 "every": 2**40}[budget])
        covered = []
        point_tables = est._point_tables

        def spy(data, x, setup, lines, out):
            covered.append(sum(line is not None for line in lines))
            return point_tables(data, x, setup, lines, out)

        monkeypatch.setattr(est, "_point_tables", spy)
        fits = estimate_on_grid(data, pts, policy, setup, keep_criterion=keep)
        assert max(f.counts for f in fits) > 14 and fits[-2].counts == fits[-1].counts == 0
        for fit, ref in zip(fits, solo):
            assert fit.selected is ref.selected
            assert fit.estimate == ref.estimate and fit.counts == ref.counts
            assert fit.criterion == ref.criterion and np.array_equal(fit.x, ref.x)
        for rec, ref in zip(est._select_points(data, pts, policy, setup), solo_recs):
            assert rec.best == ref.best and rec.counts == ref.counts
            for name in ("fhat", "a_k", "a_q", "keys"):
                assert np.array_equal(getattr(rec, name), getattr(ref, name)), name
        # with every line kept, each axis whose coordinate another point
        # shares reads a line; a budget of one full line reads fewer, and
        # none reads only the empty lines of the far points
        shared = sum(int((pts[:, j] == x[j]).sum() > 1) for x in pts for j in range(d))
        used = covered[:len(pts)]
        if budget == "none":
            assert all(c == 0 or f.counts == 0 for c, f in zip(used, fits))
        else:
            assert (0 < sum(used) < shared) if budget == "some" else sum(used) == shared

    @staticmethod
    def spy_box_queries(monkeypatch):
        """Count the `box_indices` calls from here on."""
        import anisokde.estimator as est

        queries, box_indices = [], est.Dataset.box_indices

        def spy(data, lo, hi):
            queries.append(lo)
            return box_indices(data, lo, hi)

        monkeypatch.setattr(est.Dataset, "box_indices", spy)
        return queries

    @pytest.mark.parametrize("budget", ["none", "some", "every"])
    def test_lines_at_box_edges_ties_and_duplicates(self, monkeypatch, budget):
        """A d = 2 point with both lines reads its candidates as a slice
        of one line: observations exactly at x_j +- 1, duplicated
        observations, and symmetric data, on which the two lines tie at
        diagonal points and the thinner one flips across the mesh. Every
        record must equal the one-point call's, bit for bit, with
        candidates in chunks of seven."""
        import anisokde.estimator as est

        rng = np.random.default_rng(163)
        lattice = rng.integers(-6, 7, size=(40, 2)) / 4.0
        half = np.concatenate([lattice, lattice[:12], rng.normal(0.0, 0.5, size=(40, 2))])
        data = build_dataset(np.concatenate([half, half[:, ::-1]]))
        setup = make_setup(data.n, 2, ell=2, table_size=65)
        policy = KappaPolicy(kappa=0.05, d=2, p=2.0, k_inf=setup.kernel.k_inf)
        nodes = np.linspace(-1.0, 1.0, 9)
        mesh = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), axis=-1).reshape(-1, 2)
        pts = np.concatenate([mesh, rng.permutation(mesh)])
        # the node 0.5 has observations at 1.5 and -0.5 on both axes
        assert {1.5, -0.5} <= set(data.points[:, 0]) and {1.5, -0.5} <= set(data.points[:, 1])
        assert len(np.unique(data.points, axis=0)) < data.n
        sv = data.sorted_vals[0]
        size = (np.searchsorted(sv, nodes + 1.0, side="right")
                - np.searchsorted(sv, nodes - 1.0, side="left"))
        assert np.array_equal(size, np.searchsorted(data.sorted_vals[1], nodes + 1.0, "right")
                              - np.searchsorted(data.sorted_vals[1], nodes - 1.0))
        thinner = np.sign(size[:, None] - size[None, :])
        assert {-1, 0, 1} <= set(thinner[~np.eye(nodes.size, dtype=bool)].tolist())
        monkeypatch.setattr(est, "_BLOCK_BYTES",
                            8 * 7 * est._row_floats(2, setup.grid.max_exponent))
        solo = [est._select_point(data, x, policy, setup) for x in pts]
        two_lines = 2 * (8 * setup.tables.width + 16) * data.n
        monkeypatch.setattr(est, "_LINE_BYTES", {"none": 0, "some": two_lines,
                                                 "every": 2**40}[budget])
        queries = self.spy_box_queries(monkeypatch)
        recs = list(est._select_points(data, pts, policy, setup))
        assert max(rec.counts for rec in recs) > 100
        for rec, ref in zip(recs, solo):
            assert rec.best == ref.best and rec.counts == ref.counts
            for name in ("fhat", "a_k", "a_q", "keys"):
                assert getattr(rec, name).tobytes() == getattr(ref, name).tobytes(), name
        want = {"none": len(pts) == len(queries), "some": 0 < len(queries) < len(pts),
                "every": not queries}
        assert want[budget], len(queries)

    def test_points_with_both_lines_make_no_box_query(self, monkeypatch):
        """On an `ij` mesh whose lines all fit, no d = 2 point queries the
        box, and each line is built once."""
        import anisokde.estimator as est

        data, setup, policy, _ = self.mesh_fixture(2)
        nodes = np.linspace(-1.2, 1.2, 5)
        mesh = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), axis=-1).reshape(-1, 2)
        built, build = [], est._Lines._build

        def spy(lines, j, v, p, nxt):
            built.append((j, v))
            return build(lines, j, v, p, nxt)

        monkeypatch.setattr(est._Lines, "_build", spy)
        queries = self.spy_box_queries(monkeypatch)
        recs = list(est._select_points(data, mesh, policy, setup))
        assert len(recs) == len(mesh) and max(rec.counts for rec in recs) > 14
        assert not queries
        assert sorted(built) == [(j, v) for j in range(2) for v in nodes.tolist()]

    @pytest.mark.parametrize("budget", [2**21, 3 * 2**20, None])
    def test_kept_lines_and_their_maps_stay_within_the_budget(self, monkeypatch, budget):
        """On a 33^2 mesh, where the lines do not all fit, the kept line
        matrices with their ranks and maps never pass _LINE_BYTES (None:
        the default)."""
        import anisokde.estimator as est

        if budget is not None:
            monkeypatch.setattr(est, "_LINE_BYTES", budget)
        density = smooth_product_density("raised_cosine", 2)
        data = sample(density, 1024, np.random.default_rng(167))
        setup = make_setup(1024, 2, table_size=64)
        policy = KappaPolicy(kappa=0.05, d=2, p=2.0, k_inf=setup.kernel.k_inf)
        kept, refused, read = [], [], est._Lines.read

        def spy(lines, p):
            got = read(lines, p)
            refused.extend(line is None and nxt >= 0 for line, nxt in zip(got, lines.nxt[p]))
            kept.append(sum(line.mat.nbytes + line.ranks.nbytes + line.pos.nbytes
                            for line in lines.kept.values()))
            return got

        monkeypatch.setattr(est._Lines, "read", spy)
        list(est._select_points(data, default_grid(density, 33).mesh(), policy, setup))
        assert any(refused) and not all(refused)
        assert est._LINE_BYTES / 2 < max(kept) <= est._LINE_BYTES

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("points", [1, 2, 7, None])
    @pytest.mark.parametrize("keep", [False, True])
    @pytest.mark.parametrize("majorants", [True, False])
    def test_blocks_of_points_give_point_records(self, monkeypatch, d, points, keep,
                                                 majorants):
        """At d >= 2 a grid is selected in blocks of `points` points (None:
        the whole grid in one block); every record must equal the one-point
        call's, bit for bit, repeated and far points included. Without
        majorants a far point (no candidates) ties on every row."""
        import anisokde.estimator as est

        data, setup, policy, pts = self.mesh_fixture(d)
        if not majorants:
            monkeypatch.setattr(est, "_m_hat", lambda a_hat, lam: 0.0 * a_hat)
        solo = [est._select_point(data, x, policy, setup, keep) for x in pts]
        monkeypatch.setattr(est, "_BLOCK_PAIRS", (points or len(pts)) * setup.tables.n_keys ** d)
        assert est._block_points(setup.grid) == (points or len(pts))
        recs = list(est._select_points(data, pts, policy, setup, keep))
        assert len(recs) == len(pts) and recs[-2].counts == recs[-1].counts == 0
        if not majorants:
            assert recs[-2].best == 0
            assert not keep or not recs[-2].criterion.any()
        names = ("fhat", "a_k", "a_q", "keys") + (("criterion",) if keep else ())
        for rec, ref in zip(recs, solo):
            assert rec.best == ref.best and rec.counts == ref.counts
            assert rec.selected is ref.selected and np.array_equal(rec.x, ref.x)
            assert (rec.criterion is None) is not keep
            for name in names:
                got, want = getattr(rec, name), getattr(ref, name)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), name

    def test_risk_replicate_integrates_the_point_estimates(self, monkeypatch):
        import anisokde.estimator as est
        from anisokde.densities import sample, smooth_product_density
        from anisokde.risk import ExperimentPlan, default_grid, risk_replicate

        density = smooth_product_density("raised_cosine", 1)
        plan = ExperimentPlan(density=density, p=2.0, n_schedule=(128, 256), replicates=2,
                              grid=default_grid(density, 33), seed=5, kappa=0.05,
                              table_size=64)
        setup = plan.setup_for(256)
        policy = plan.policy_for(setup)
        data = sample(density, 256, np.random.default_rng(17))
        est_pts = [select_and_estimate(data, x, policy, setup).estimate
                   for x in plan.grid.mesh()]
        truth = np.asarray(density.grid_values(plan.grid.axes()), dtype=float)
        want = plan.grid.integrate_values(
            np.abs(np.reshape(est_pts, plan.grid.shape) - truth) ** plan.p)
        # layout passes of five candidates, chunks of seven entries
        monkeypatch.setattr(est, "_BLOCK_ENTRIES", 50)
        monkeypatch.setattr(est, "_CHUNK_ENTRIES", 7)
        monkeypatch.setattr(est, "_BLOCK_PAIRS", 4 * setup.tables.n_keys)
        assert est._block_points(setup.grid) == 4
        mesh = plan.grid.mesh()
        spans = [window_spans(data, mesh[lo:lo + 4], setup) for lo in range(0, len(mesh), 4)]
        assert any(((passes >= 3) & (chunks >= 3)).any() for passes, chunks in spans)
        assert risk_replicate(plan, 256, 17) == want

    def test_d2_risk_replicate_integrates_the_point_estimates(self, monkeypatch):
        """The d = 2 twin: a replicate's mesh points read their candidates
        as line slices, in blocks of four points and chunks of seven
        candidates, and the error integrates the one-point estimates."""
        import anisokde.estimator as est
        from anisokde.densities import sample, smooth_product_density
        from anisokde.risk import ExperimentPlan, default_grid, risk_replicate

        density = smooth_product_density("raised_cosine", 2)
        plan = ExperimentPlan(density=density, p=2.0, n_schedule=(128, 256), replicates=2,
                              grid=default_grid(density, 9), seed=5, kappa=0.05,
                              table_size=64)
        setup = plan.setup_for(256)
        policy = plan.policy_for(setup)
        data = sample(density, 256, np.random.default_rng(17))
        # chunks move d >= 2 sums in their last bits, so the one-point
        # calls take the same chunks
        monkeypatch.setattr(est, "_BLOCK_BYTES",
                            8 * 7 * est._row_floats(2, setup.grid.max_exponent))
        est_pts = [select_and_estimate(data, x, policy, setup).estimate
                   for x in plan.grid.mesh()]
        truth = np.asarray(density.grid_values(plan.grid.axes()), dtype=float)
        want = plan.grid.integrate_values(
            np.abs(np.reshape(est_pts, plan.grid.shape) - truth) ** plan.p)
        monkeypatch.setattr(est, "_BLOCK_PAIRS", 4 * setup.tables.n_keys ** 2)
        assert est._block_points(setup.grid) == 4
        queries = self.spy_box_queries(monkeypatch)
        assert risk_replicate(plan, 256, 17) == want
        assert not queries


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


class TestDataDimension:
    # each direction once returned a plausible number: (k, 1) point
    # offsets broadcast against a d=2 x, or d=1 window sums read axis 0
    @pytest.mark.parametrize("entry", ["select_and_estimate", "estimate_on_grid", "run_plan",
                                       "assert_oracle_inequality"])
    @pytest.mark.parametrize("data_dim, setup_dim", [(1, 2), (2, 1)])
    def test_refused_on_every_path(self, entry, data_dim, setup_dim, monkeypatch):
        f, other = (smooth_product_density("raised_cosine", d) for d in (setup_dim, data_dim))
        data = sample(other, 64, np.random.default_rng(5))
        setup = make_setup(64, setup_dim, table_size=64, max_exponent=3)
        policy = kappa_default(setup_dim, 2.0, setup.kernel.k_inf)
        x = np.full(setup_dim, 0.1)
        refused = f"dim {data_dim}, the setup {setup_dim}"
        with pytest.raises(InvalidParameterError, match=refused):
            if entry == "select_and_estimate":
                select_and_estimate(data, x, policy, setup)
            elif entry == "estimate_on_grid":
                estimate_on_grid(data, x[None], policy, setup)
            elif entry == "assert_oracle_inequality":
                assert_oracle_inequality(data, f, x, policy, setup, nodes=17)
            else:  # run_plan draws its own data: hand it draws of the other dimension
                monkeypatch.setattr("anisokde.risk.sample", lambda _, n, rng: sample(other, n, rng))
                run_plan(ExperimentPlan(density=f, p=2.0, n_schedule=(16, 32), replicates=2,
                                        grid=default_grid(f, 5), seed=1, table_size=64,
                                        max_exponent=3))


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

    @pytest.mark.parametrize("table_size", [64, 65])
    def test_stack_holds_each_table_once(self, table_size):
        setup = make_setup(16, 2, ell=2, table_size=table_size)
        stack, m = setup.stack, table_size
        assert stack.shape == (setup.grid.max_exponent + 3, 2 * m + 1)
        assert not stack.flags.writeable
        assert stack.T.flags.c_contiguous  # node-major: one node's rows are adjacent
        kernel = setup.marginal.profile.values
        if m % 2:
            assert not stack[0].any()
        else:
            assert np.array_equal(stack[0], np.pad(kernel, m // 2))
        tables = (setup.majorant.factor, *setup.pair_tables)
        for row, table in zip(stack[1:], tables):
            assert np.shares_memory(row, table.profile.values)
            assert np.array_equal(row, table.profile.values)

    def test_tables_off_the_kernel_grid_rejected(self):
        from anisokde.estimator import EstimationSetup

        a, b = make_setup(8, 1, table_size=64), make_setup(8, 1, table_size=128)
        with pytest.raises(InvalidParameterError, match="steps on"):
            EstimationSetup(kernel=a.kernel, majorant=b.majorant, grid=a.grid,
                            pair_tables=a.pair_tables)
        with pytest.raises(InvalidParameterError, match="steps on"):
            EstimationSetup(kernel=a.kernel, majorant=a.majorant, grid=a.grid,
                            pair_tables=b.pair_tables)

    def test_tables_of_another_kernel_or_lattice_rejected(self):
        from anisokde.estimator import EstimationSetup

        a = make_setup(64, 1, table_size=64)
        other_order = make_setup(64, 1, ell=2, table_size=64)
        smaller = make_setup(8, 1, table_size=64)
        assert smaller.grid.max_exponent < a.grid.max_exponent
        with pytest.raises(InvalidParameterError, match="majorant has kernel order 2"):
            EstimationSetup(kernel=a.kernel, majorant=other_order.majorant, grid=a.grid,
                            pair_tables=a.pair_tables)
        with pytest.raises(InvalidParameterError, match=r"pair_tables\[0\] has kernel order 2"):
            EstimationSetup(kernel=a.kernel, majorant=a.majorant, grid=a.grid,
                            pair_tables=other_order.pair_tables)
        with pytest.raises(InvalidParameterError, match=r"pointwise max of \|q_r\|"):
            EstimationSetup(kernel=a.kernel, majorant=smaller.majorant, grid=a.grid,
                            pair_tables=a.pair_tables)

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

    @pytest.mark.parametrize("n, dim, admitted", [
        (4096, 3, True), (256, 4, True), (2048, 4, True), (4096, 4, False),
    ])
    def test_admit_and_refuse_boundary(self, n, dim, admitted):
        """Counting a block of points in the estimate moves no lattice
        across MAX_LATTICE_BYTES: d = 4 stops between E = 11 and E = 12."""
        if admitted:
            setup = make_setup(n, dim, table_size=64)
            assert setup.grid.max_exponent == n.bit_length() - 1
        else:
            with pytest.raises(InvalidParameterError, match="MAX_LATTICE_BYTES"):
                make_setup(n, dim, table_size=64)

    def test_override_is_checked_too(self):
        with pytest.raises(InvalidParameterError, match="MAX_LATTICE_BYTES"):
            make_setup(4, 4, max_exponent=12)

    def test_d3_n256_still_builds(self):
        from anisokde.estimator import _select_point

        setup = make_setup(256, 3, table_size=64)
        assert len(setup.grid) == 729
        policy = kappa_default(3, 2.0, setup.kernel.k_inf)
        rec = _select_point(far_dataset(256, 3), np.zeros(3), policy, setup,
                            keep_criterion=True)
        assert pair_matrix(rec, setup).shape == (729, 729)
        # the lattice tables hold no (H, H) array: per-axis (E+1) x (E+1)
        # tables and their rows for each of the H bandwidths, at most H (E+1)
        def arrays(v):
            if isinstance(v, np.ndarray):
                return [v]
            return [a for u in v for a in arrays(u)] if isinstance(v, (list, tuple)) else []

        held = arrays(list(vars(setup.tables).values()))
        assert len(held) > 3 and max(a.size for a in held) <= 729 * 9

    def test_d4_lattice_selects_within_the_estimate(self):
        import tracemalloc

        from anisokde.estimator import _lattice_bytes, _select_point
        from anisokde.oracle import oracle_terms
        from anisokde.densities import smooth_product_density

        # H = 9^4 = 6561: one (H, H) array would be 344 MB, the estimate
        # counts none, and every block of criterion rows stays under it
        setup = make_setup(256, 4, table_size=64)
        assert _lattice_bytes(setup.grid) < 2**27
        data = build_dataset(np.random.default_rng(137).uniform(-1, 1, size=(64, 4)))
        policy = KappaPolicy(kappa=0.05, d=4, p=2.0, k_inf=setup.kernel.k_inf)
        assert setup.tables.size == 6561
        for keep in (False, True):
            tracemalloc.start()
            try:
                rec = _select_point(data, np.zeros(4), policy, setup, keep_criterion=keep)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rec.counts > 0 and peak <= _lattice_bytes(setup.grid)
        assert rec.criterion.shape == (6561,)
        # the oracle reads its (H, H) pair terms in blocks of rows
        tracemalloc.start()
        try:
            terms = oracle_terms(data, smooth_product_density("raised_cosine", 4), np.zeros(4),
                                 policy, setup, nodes=17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert terms.bias_bar.shape == (6561,) and peak <= _lattice_bytes(setup.grid)

    @pytest.mark.parametrize("n, dim", [(2**18, 1), (2**17, 2)])
    def test_default_lattices_of_large_samples_build(self, n, dim):
        setup = make_setup(n, dim, table_size=64)
        assert setup.grid.max_exponent == n.bit_length() - 1

    @pytest.mark.parametrize("n, dim", [(256, 3), (1024, 2), (4096, 1), (2**15, 1), (8192, 1)])
    def test_fit_peak_stays_under_the_estimate(self, n, dim):
        import tracemalloc

        from anisokde.estimator import _lattice_bytes

        rng = np.random.default_rng(107)
        # every observation is a candidate of the point, the largest
        # candidate set a sample of this size can give
        data = build_dataset(rng.uniform(-0.9, 0.9, size=(n, dim)))
        setup = make_setup(n, dim, table_size=64)
        policy = KappaPolicy(kappa=0.05, d=dim, p=2.0, k_inf=setup.kernel.k_inf)
        tracemalloc.start()
        try:
            select_and_estimate(data, np.zeros(dim), policy, setup)  # builds setup.tables too
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < _lattice_bytes(setup.grid)

    @pytest.mark.parametrize("n, dim", [(8192, 1), (256, 3)])
    def test_peak_with_every_entry_in_support_stays_under_the_estimate(self, n, dim):
        import tracemalloc

        from anisokde.estimator import _lattice_bytes, _select_point

        # every observation at the point: each candidate is in support at
        # every scale, the most (candidate, scale) entries a chunk can hold
        data = build_dataset(np.zeros((n, dim)))
        setup = make_setup(n, dim, table_size=64)
        policy = KappaPolicy(kappa=0.05, d=dim, p=2.0, k_inf=setup.kernel.k_inf)
        assert setup.tables.size == len(setup.grid)  # lattice tables built outside
        tracemalloc.start()
        try:
            rec = _select_point(data, np.zeros(dim), policy, setup)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec.counts == n
        assert peak <= _lattice_bytes(setup.grid)

    def test_d1_block_with_every_entry_in_support_stays_under_the_estimate(self):
        import tracemalloc

        from anisokde.estimator import _block_points, _lattice_bytes, _select_points

        # a full block of points on one spot, every observation at it: full
        # layout passes and chunks beside a full block's window sums and
        # (window, stack row) key table, then a second block
        data = build_dataset(np.zeros((128, 1)))
        setup = make_setup(128, 1, table_size=64)
        policy = KappaPolicy(kappa=0.05, d=1, p=2.0, k_inf=setup.kernel.k_inf)
        pts = np.zeros((_block_points(setup.grid) + 2, 1))
        assert setup.tables.size == len(setup.grid)  # lattice tables built outside
        tracemalloc.start()
        try:
            counts = [rec.counts for rec in _select_points(data, pts, policy, setup)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == [128] * len(pts)
        assert peak <= _lattice_bytes(setup.grid)

    @pytest.mark.parametrize("keep", [False, True])
    def test_d1_block_beside_a_held_record_stays_under_the_estimate(self, keep):
        import tracemalloc

        from anisokde.estimator import _block_points, _lattice_bytes, _select_points

        # two full blocks of points on one spot, every observation at it; the
        # caller holds the last record of the first block (its sums, and its
        # criterion when kept) while the second is summed and selected
        data = build_dataset(np.zeros((128, 1)))
        setup = make_setup(128, 1, table_size=64)
        policy = KappaPolicy(kappa=0.05, d=1, p=2.0, k_inf=setup.kernel.k_inf)
        pts = np.zeros((2 * _block_points(setup.grid), 1))
        assert setup.tables.size == len(setup.grid)  # lattice tables built outside
        tracemalloc.start()
        try:
            for rec in _select_points(data, pts, policy, setup, keep):
                pass  # rec holds its block while the next block is summed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec.counts == 128 and (rec.criterion is None) is not keep
        assert peak <= _lattice_bytes(setup.grid)
