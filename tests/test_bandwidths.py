import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisokde.bandwidths import (
    Bandwidth,
    BandwidthGrid,
    build_grid,
    geq,
    join,
    meet,
    ratio,
)
from anisokde.errors import InvalidParameterError


def exps(dim, max_exponent=4):
    return st.tuples(*[st.integers(0, max_exponent)] * dim)


class TestBandwidth:
    def test_values_and_volume(self):
        h = Bandwidth((0, 2, 3))
        assert np.array_equal(h.values, [1.0, 0.25, 0.125])
        assert h.volume == 2.0**-5
        assert h.dim == 3

    def test_volume_is_exact_power_of_two(self):
        h = Bandwidth((10, 10))
        assert h.volume == 2.0**-20

    def test_sort_key_orders_by_total_then_lex(self):
        a = Bandwidth((0, 2))
        b = Bandwidth((1, 1))
        c = Bandwidth((2, 0))
        assert sorted([c, a, b], key=lambda h: h.sort_key) == [a, b, c]

    def test_bad_exponents_rejected(self):
        for bad in ((), (-1,), (0.5,), (1, -2)):
            with pytest.raises(InvalidParameterError):
                Bandwidth(bad)


class TestGrid:
    def test_size_matches_power(self):
        assert len(build_grid(8, 2)) == 16
        assert len(build_grid(2, 3)) == 8

    def test_exponent_range_one_dim(self):
        grid = build_grid(9, 1)
        ks = sorted(h.exponents[0] for h in grid)
        assert ks == [0, 1, 2, 3]

    def test_iteration_is_lexicographic_and_indexable(self):
        grid = build_grid(16, 2)
        seen = list(grid)
        assert len(seen) == len(grid)
        for i, h in enumerate(seen):
            assert grid.index(h) == i
        assert seen[0].exponents == (0, 0)
        assert seen[-1].exponents == (4, 4)

    def test_containment(self):
        grid = build_grid(8, 2)
        assert Bandwidth((3, 0)) in grid
        assert Bandwidth((4, 0)) not in grid
        assert Bandwidth((0,)) not in grid

    def test_index_rejects_off_grid(self):
        grid = build_grid(8, 1)
        with pytest.raises(InvalidParameterError):
            grid.index(Bandwidth((4,)))

    def test_exponent_matrix_shape(self):
        grid = build_grid(8, 2)
        mat = grid.exponent_matrix()
        assert mat.shape == (16, 2)
        assert mat.min() == 0 and mat.max() == 3

    def test_ratios_are_realizable_axis_ratios(self):
        grid = build_grid(8, 1)
        assert sorted(grid.ratios()) == [0.125, 0.25, 0.5, 1.0]

    def test_small_n_rejected(self):
        for n in (1, 0, -4):
            with pytest.raises(InvalidParameterError):
                build_grid(n, 1)

    @pytest.mark.parametrize("dim, max_exponent", [
        (2.0, 2), (True, 2), (1, 2.5), (1, float("nan")), (1, True), (1, "3"),
        (1, 3.0), (np.float64(1.0), 2),
    ])
    def test_non_integer_sizes_rejected(self, dim, max_exponent):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            BandwidthGrid(dim=dim, max_exponent=max_exponent)

    def test_numpy_integer_sizes_accepted(self):
        grid = BandwidthGrid(dim=np.int64(2), max_exponent=np.int32(3))
        assert type(grid.dim) is int and type(grid.max_exponent) is int
        assert grid == BandwidthGrid(dim=2, max_exponent=3)
        assert len(grid) == 16

    @pytest.mark.parametrize("max_exponent", [2.5, float("nan"), True, 2.0])
    def test_make_setup_rejects_non_integer_max_exponent(self, max_exponent, monkeypatch):
        import anisokde.estimator as est

        def no_tables(*args):
            raise AssertionError("a kernel table was built before the check")

        monkeypatch.setattr(est, "convolve_ratio", no_tables)
        monkeypatch.setattr(est, "build_base", no_tables)
        with pytest.raises(InvalidParameterError, match="max_exponent"):
            est.make_setup(64, 1, max_exponent=max_exponent)


class TestLatticeOps:
    def test_worked_pair(self):
        h = Bandwidth((2, 0))  # (1/4, 1)
        eta = Bandwidth((1, 3))  # (1/2, 1/8)
        assert join(h, eta).exponents == (1, 0)  # (1/2, 1)
        assert meet(h, eta).exponents == (2, 3)  # (1/4, 1/8)
        assert np.array_equal(ratio(h, eta), [0.5, 0.125])

    def test_self_ratio_is_ones(self):
        h = Bandwidth((3, 1, 2))
        assert np.array_equal(ratio(h, h), np.ones(3))

    def test_geq_is_componentwise(self):
        assert geq(Bandwidth((1, 0)), Bandwidth((2, 2)))
        assert not geq(Bandwidth((1, 3)), Bandwidth((2, 2)))

    def test_geq_count_on_grid(self):
        # bandwidths at least as coarse as h number prod(k_j + 1)
        grid = build_grid(16, 2)
        h = Bandwidth((2, 3))
        count = sum(1 for eta in grid if geq(eta, h))
        assert count == 3 * 4

    def test_volume_product_identity_exact(self):
        h = Bandwidth((4, 1))
        eta = Bandwidth((2, 5))
        assert join(h, eta).volume * meet(h, eta).volume == h.volume * eta.volume

    def test_dim_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            join(Bandwidth((1,)), Bandwidth((1, 2)))
        with pytest.raises(InvalidParameterError):
            ratio(Bandwidth((1, 2)), Bandwidth((1,)))

    @given(exps(2), exps(2))
    @settings(max_examples=100, deadline=None)
    def test_join_meet_commute(self, a, b):
        h, eta = Bandwidth(a), Bandwidth(b)
        assert join(h, eta).exponents == join(eta, h).exponents
        assert meet(h, eta).exponents == meet(eta, h).exponents

    @given(exps(3), exps(3))
    @settings(max_examples=100, deadline=None)
    def test_absorption_laws(self, a, b):
        h, eta = Bandwidth(a), Bandwidth(b)
        assert meet(h, join(h, eta)).exponents == h.exponents
        assert join(h, meet(h, eta)).exponents == h.exponents

    @given(exps(2), exps(2))
    @settings(max_examples=100, deadline=None)
    def test_join_is_least_upper_bound(self, a, b):
        h, eta = Bandwidth(a), Bandwidth(b)
        up = join(h, eta)
        assert geq(up, h) and geq(up, eta)

    @given(exps(2), exps(2))
    @settings(max_examples=100, deadline=None)
    def test_ratio_bounded_by_one(self, a, b):
        r = ratio(Bandwidth(a), Bandwidth(b))
        assert np.all(r <= 1.0) and np.all(r > 0.0)
