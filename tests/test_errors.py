"""One integer rule (`errors._index`) for every count, size, order,
exponent and seed: Python and numpy integers pass; a bool, any float
(integral or not, finite or not), None or a string is refused with an
InvalidParameterError that names the parameter."""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from anisokde.bandwidths import Bandwidth, BandwidthGrid, build_grid
from anisokde.densities import (
    build_f_theta,
    build_perturbed,
    flat_top_density,
    g_lp_norm,
    sample,
    smooth_product_density,
    vg_packing,
)
from anisokde.errors import InvalidParameterError
from anisokde.estimator import estimate_on_grid, kappa_default, make_setup
from anisokde.kernels import build_base, build_composite, build_majorant, build_product
from anisokde.oracle import bias_norm_scaling
from anisokde.risk import ExperimentPlan, default_grid, oracle_gap

NOT_INTEGERS = [float("nan"), float("inf"), None, 2.0, np.float64(2), True, "3"]


@pytest.fixture(scope="module")
def ctx():
    rc1 = smooth_product_density("raised_cosine", 1)
    setup = make_setup(16, 1, table_size=256)
    plan = dict(density=rc1, p=2.0, n_schedule=(4, 8), replicates=2,
                grid=default_grid(rc1, 9), seed=11)
    return SimpleNamespace(
        rc1=rc1, setup=setup, composite=build_composite(build_base(1, 256)),
        policy=kappa_default(1, 2.0, setup.kernel.k_inf),
        data=sample(rc1, 16, np.random.default_rng(0)),
        plan=lambda **kw: ExperimentPlan(**{**plan, **kw}),
        perturbed=build_perturbed(16.0, (0.05,), 1e-3, np.zeros(16), 1))


# site: (the parameter's name, a call of the site with value v, an accepted value)
SITES = {
    "Bandwidth.exponents": ("exponents", lambda c, v: Bandwidth((v, 1)), 3),
    "BandwidthGrid.dim": ("dim", lambda c, v: BandwidthGrid(dim=v, max_exponent=2), 2),
    "BandwidthGrid.max_exponent": (
        "max_exponent", lambda c, v: BandwidthGrid(dim=1, max_exponent=v), 2),
    "build_grid.n": ("n", lambda c, v: build_grid(v, 1), 8),
    "build_grid.dim": ("dim", lambda c, v: build_grid(8, v), 2),
    "build_base.ell": ("ell", lambda c, v: build_base(v, 256), 2),
    "build_base.table_size": ("table_size", lambda c, v: build_base(1, v), 256),
    "make_setup.n": ("n", lambda c, v: make_setup(v, 1, table_size=256), 16),
    "make_setup.dim": ("dim", lambda c, v: make_setup(16, v, table_size=256), 1),
    "make_setup.ell": ("ell", lambda c, v: make_setup(16, 1, ell=v, table_size=256), 2),
    "make_setup.table_size": ("table_size", lambda c, v: make_setup(16, 1, table_size=v), 256),
    "ProductKernel.dim": ("dim", lambda c, v: build_product(c.composite, v), 2),
    "build_majorant.dim": ("dim", lambda c, v: build_majorant(c.composite, (1.0, 0.5), v), 2),
    "KappaPolicy.d": ("d", lambda c, v: kappa_default(v, 2.0, 1.0), 2),
    "flat_top_density.dim": ("dim", lambda c, v: flat_top_density(16.0, v, 1.0), 2),
    "build_perturbed.dim": (
        "dim", lambda c, v: build_perturbed(16.0, (0.05,), 1e-3, np.zeros(16), v), 1),
    "build_f_theta.dim": ("dim", lambda c, v: build_f_theta(16.0, 0.8, v), 1),
    "smooth_product_density.dim": (
        "dim", lambda c, v: smooth_product_density("raised_cosine", v), 2),
    "vg_packing.m": ("m", lambda c, v: vg_packing(v, np.random.default_rng(0)), 8),
    "sample.n": ("n", lambda c, v: sample(c.rc1, v, np.random.default_rng(0)), 4),
    "ExperimentPlan.replicates": ("replicates", lambda c, v: c.plan(replicates=v), 3),
    "ExperimentPlan.seed": ("seed", lambda c, v: c.plan(seed=v), 3),
    "ExperimentPlan.threads": ("threads", lambda c, v: c.plan(threads=v), 3),
    "oracle_gap.replicates": ("replicates", lambda c, v: oracle_gap(c.plan(), 8, v), 1),
    "bias_norm_scaling.j": ("j", lambda c, v: bias_norm_scaling(
        c.rc1, c.setup.kernel, v, 2.0, (1 / 4, 1 / 8, 1 / 16), nodes=17, grid_nodes=17), 0),
    "estimate_on_grid.threads": ("threads", lambda c, v: estimate_on_grid(
        c.data, [[0.0]], c.policy, c.setup, threads=v), 3),
    "g_lp_norm.nodes": ("nodes", lambda c, v: g_lp_norm(2.0, v), 65),
    "Tabulated1D.moment": ("k", lambda c, v: c.composite.profile.moment(v), 1),
    "PerturbedDensity.pi": ("m_index entry", lambda c, v: c.perturbed.pi((v,)), 1),
}


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("site", list(SITES))
def test_non_integer_is_refused_by_name(ctx, site, value):
    # at most of these sites an integral float was taken, and nan, None or
    # a string raised a raw ValueError, TypeError or OverflowError
    name, call, _ = SITES[site]
    with pytest.raises(InvalidParameterError,
                       match=rf"\b{re.escape(name)}\b.* must be an integer, got "):
        call(ctx, value)


@pytest.mark.parametrize("integer", [np.int64, np.int32, int])
@pytest.mark.parametrize("site", list(SITES))
def test_numpy_and_python_integers_are_accepted(ctx, site, integer):
    _, call, good = SITES[site]
    call(ctx, integer(good))


def test_plan_stores_python_ints(ctx):
    # the plan hash is JSON of the plan's fields; a numpy max_exponent
    # used to make it raise a raw TypeError
    as_numpy = ctx.plan(replicates=np.int64(2), seed=np.int32(11), threads=np.int64(2),
                        ell=np.int64(1), table_size=np.int64(4096),
                        max_exponent=np.int64(2))
    assert as_numpy.plan_hash == ctx.plan(max_exponent=2).plan_hash
    for name in ("replicates", "seed", "threads", "ell", "table_size", "max_exponent"):
        assert type(getattr(as_numpy, name)) is int
