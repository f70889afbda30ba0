import numpy as np
import pytest

from anisokde.errors import InvalidParameterError, NumericError
from anisokde.quadrature import (
    GridSpec,
    contract,
    grid_and_weights,
    mesh_points,
    tensor_integral,
    trapezoid_rule,
)


class TestTrapezoidRule:
    def test_weights_sum_to_length(self):
        _, w = trapezoid_rule(-1.0, 3.0, 9)
        assert w.sum() == pytest.approx(4.0, abs=1e-15)

    def test_endpoint_weights_are_half_interior(self):
        _, w = trapezoid_rule(0.0, 1.0, 5)
        assert w[0] == pytest.approx(w[2] / 2)
        assert w[-1] == pytest.approx(w[2] / 2)

    def test_linear_functions_integrate_exactly(self):
        x, w = trapezoid_rule(-2.0, 5.0, 17)
        # trapezoid is exact on affine integrands
        assert float(w @ (3.0 * x + 1.0)) == pytest.approx(
            1.5 * (25 - 4) + 7.0, rel=1e-14
        )

    @pytest.mark.parametrize("lo, hi", [(2.0, 2.0), (2, 1)])
    def test_degenerate_interval_gives_zero_weight(self, lo, hi):
        x, w = trapezoid_rule(lo, hi, 5)
        assert x.shape == (1,) and x[0] == 2.0
        assert w.shape == (1,) and w[0] == 0.0

    def test_too_few_nodes_rejected(self):
        with pytest.raises(InvalidParameterError):
            trapezoid_rule(0.0, 1.0, 1)

    @pytest.mark.parametrize("nodes", [33.5, np.float64(33), None, True, np.True_], ids=repr)
    def test_non_integer_node_count_is_named(self, nodes):
        with pytest.raises(InvalidParameterError, match="nodes"):
            trapezoid_rule(0.0, 1.0, nodes)

    def test_numpy_integer_node_count_is_accepted(self):
        for got, want in zip(trapezoid_rule(0.0, 1.0, np.int64(9)), trapezoid_rule(0.0, 1.0, 9)):
            assert np.array_equal(got, want)


class TestTensorIntegral:
    def test_product_integrand_factorizes(self):
        got = tensor_integral(
            lambda p: p[:, 0] ** 2 * p[:, 1],
            [(-1.0, 1.0), (0.0, 2.0)],
            nodes=201,
        )
        assert got == pytest.approx((2.0 / 3.0) * 2.0, rel=1e-3)

    def test_constant_integrand_gives_volume(self):
        got = tensor_integral(lambda p: np.ones(p.shape[0]), [(0.0, 3.0), (0.0, 0.5)])
        assert got == pytest.approx(1.5, rel=1e-14)

    def test_empty_axis_gives_zero(self):
        got = tensor_integral(lambda p: np.ones(p.shape[0]), [(0.0, 1.0), (2.0, 2.0)])
        assert got == 0.0

    def test_non_finite_values_raise(self):
        with pytest.raises(NumericError):
            tensor_integral(lambda p: np.full(p.shape[0], np.nan), [(0.0, 1.0)])


class TestHelpers:
    def test_mesh_points_layout(self):
        axes, weights = grid_and_weights([(0.0, 1.0), (0.0, 2.0)], 3)
        mesh = mesh_points(axes)
        assert mesh.shape == (9, 2)
        # first axis varies slowest
        assert np.array_equal(mesh[0], [0.0, 0.0])
        assert np.array_equal(mesh[1], [0.0, 1.0])
        assert np.array_equal(mesh[3], [0.5, 0.0])

    def test_contract_matches_flat_dot(self):
        axes, weights = grid_and_weights([(0.0, 1.0), (0.0, 1.0)], 5)
        rng = np.random.default_rng(0)
        vals = rng.uniform(size=(5, 5))
        expect = float(weights[0] @ vals @ weights[1])
        assert contract(vals, weights) == pytest.approx(expect, rel=1e-14)


class TestGridSpec:
    def test_mesh_shape_and_axes(self):
        g = GridSpec(box=((-1.0, 1.0), (0.0, 2.0)), nodes=(11, 21))
        assert g.dim == 2
        assert g.shape == (11, 21)
        assert g.mesh().shape == (11 * 21, 2)
        axes = g.axes()
        assert axes[0][0] == -1.0 and axes[1][-1] == 2.0

    def test_integrate_ones_gives_volume(self):
        g = GridSpec(box=((-1.0, 1.0), (0.0, 2.0)), nodes=(11, 21))
        assert g.integrate_values(np.ones(11 * 21)) == pytest.approx(4.0, rel=1e-13)

    def test_shaped_values_accepted(self):
        g = GridSpec(box=((0.0, 1.0), (0.0, 1.0)), nodes=(5, 7))
        assert g.integrate_values(np.ones((5, 7))) == pytest.approx(1.0, rel=1e-13)

    def test_mismatched_nodes_rejected(self):
        with pytest.raises(InvalidParameterError):
            GridSpec(box=((0.0, 1.0),), nodes=(5, 5))

    def test_inverted_box_rejected(self):
        with pytest.raises(InvalidParameterError):
            GridSpec(box=((1.0, 0.0),), nodes=(5,))

    def test_single_node_axis_rejected(self):
        with pytest.raises(InvalidParameterError):
            GridSpec(box=((0.0, 1.0),), nodes=(1,))

    @pytest.mark.parametrize("nodes", [3.0, 2.5, np.float64(3), None, True], ids=repr)
    def test_non_integer_node_count_is_named(self, nodes):
        with pytest.raises(InvalidParameterError, match="nodes"):
            GridSpec(box=((0.0, 1.0),), nodes=(nodes,))

    def test_numpy_integer_node_counts_are_stored_as_ints(self):
        g = GridSpec(box=((0.0, 1.0), (0.0, 1.0)), nodes=(np.int64(5), 7))
        assert g.nodes == (5, 7) and all(type(k) is int for k in g.nodes)
        assert g.mesh().shape == (35, 2)

    # (d + 1) floats a node: 2^26 nodes at d = 1 and 322^3 at d = 3 fit
    # in MAX_LATTICE_BYTES (1 GiB); 2^26 + 1 and 323^3 do not
    @pytest.mark.parametrize("nodes", [(2**26 + 1,), (323, 323, 323), (10**6, 10**6)])
    def test_grid_past_the_memory_bound_is_refused_by_name(self, nodes):
        with pytest.raises(InvalidParameterError, match=r"^nodes must .* MAX_LATTICE_BYTES"):
            GridSpec(box=((0.0, 1.0),) * len(nodes), nodes=nodes)

    @pytest.mark.parametrize("nodes", [(2**26,), (322, 322, 322)])
    def test_grid_at_the_memory_bound_is_kept(self, nodes):
        assert GridSpec(box=((0.0, 1.0),) * len(nodes), nodes=nodes).nodes == nodes
