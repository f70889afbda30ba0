"""One integer rule (`errors._index`) for every count, size, order,
exponent and seed: Python and numpy integers pass; a bool, any float
(integral or not, finite or not), None or a string is refused with an
InvalidParameterError that names the parameter.

One real rule (`errors._real`) for every scalar real parameter: Python
and numpy reals (0-d arrays included) pass; a bool, None, a string, a complex number or nan is
refused by name, and so is inf unless the site's contract takes it.

One point-array rule (`errors._points`) for every array of observations
or evaluation points: nested lists and integer or float arrays pass as
float64; bool, complex, string and None entries, ragged rows, a wrong
dimension and nan or inf are refused by name."""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from anisokde.bandwidths import Bandwidth, BandwidthGrid, build_grid
from anisokde.densities import (
    build_f_theta,
    build_perturbed,
    flat_top_density,
    sample,
    smooth_product_density,
    strong_maximal,
    tail_quasi_norm,
    vg_packing,
)
from anisokde.errors import InvalidParameterError
from anisokde.cli import _estimate_mesh
from anisokde.estimator import (
    KappaPolicy,
    build_dataset,
    estimate_on_grid,
    kappa_default,
    make_setup,
    select_and_estimate,
)
from anisokde.kernels import (
    build_base,
    build_composite,
    build_majorant,
    build_product,
    convolve_ratio,
)
from anisokde.oracle import (
    bias,
    bias_bar,
    bias_norm_scaling,
    check_proportional,
    majorant_true,
    oracle_terms,
)
from anisokde.quadrature import GridSpec, trapezoid_rule
from anisokde.regimes import ClassSpec, TailSpec, classify, classify_tail, embedding, theta_star
from anisokde.risk import ExperimentPlan, default_grid, lp_norm_on_grid, oracle_gap
from reference import g_lp_norm

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
        perturbed=build_perturbed(16.0, (0.05,), 1e-3, np.zeros(16), 1),
        spec=ClassSpec(beta=(2.0, 1.0), r=(2.0, 4.0), L=(1.0, 1.0), M=1.0),
        field=strong_maximal(rc1, GridSpec(box=((-1.0, 1.0),), nodes=(9,)), (0.5, 1.0)))


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
    # the reference L_p norm of the wiggle profile takes the package's rules
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


# (ell, table_size, refused): the composite kernel's integral is off 1 by
# 3.8e-3 at (30, 4096) and 0.83 at (40, 4096), which a setup refuses; by
# 2.8e-5 at (20, 4096) and at most 1.7e-4 for ell <= 3 on 64 or 65 steps,
# which it takes
KERNEL_INTEGRALS = [(30, 4096, True), (40, 4096, True), (20, 4096, False),
                    *((ell, m, False) for ell in (1, 2, 3) for m in (64, 65))]


@pytest.mark.parametrize("ell, table_size, refused", KERNEL_INTEGRALS)
def test_setup_kernel_off_unit_integral_is_refused_by_name(ctx, monkeypatch, ell, table_size,
                                                           refused):
    import anisokde.risk as risk

    defect = abs(build_composite(build_base(ell, table_size)).profile.integral() - 1.0)
    assert (defect > 1e-3) is refused
    if not refused:
        assert make_setup(16, 1, ell=ell, table_size=table_size).kernel.factor.ell == ell
        return
    with pytest.raises(InvalidParameterError, match=rf"order {ell} on {table_size} steps "
                                                    r"integrates to 1 \+\d"):
        make_setup(16, 1, ell=ell, table_size=table_size)
    # run_plan builds its own composite, and refuses it before any fit
    monkeypatch.setattr(risk, "_select_points", lambda *a, **k: pytest.fail("fitted"))
    with pytest.raises(InvalidParameterError, match="integrates to 1"):
        risk.run_plan(ctx.plan(ell=ell, table_size=table_size))


def test_plan_stores_python_ints(ctx):
    # the plan hash is JSON of the plan's fields; a numpy max_exponent
    # used to make it raise a raw TypeError
    as_numpy = ctx.plan(replicates=np.int64(2), seed=np.int32(11), threads=np.int64(2),
                        ell=np.int64(1), table_size=np.int64(4096),
                        max_exponent=np.int64(2))
    assert as_numpy.plan_hash == ctx.plan(max_exponent=2).plan_hash
    for name in ("replicates", "seed", "threads", "ell", "table_size", "max_exponent"):
        assert type(getattr(as_numpy, name)) is int


NOT_REALS = [float("nan"), None, "2", True, 1 + 0j]


def _mixture(**kw):
    return smooth_product_density(
        "bump_mixture", 1, {"centers": (0.0, 1.0), "scales": (0.2, 0.2), "weights": (0.5, 0.5),
                            **kw})


# site: (the parameter's name, a call of the site with value v, an accepted
# value, whether inf is in the contract, a value below the least or None
# when the site has no bound)
REAL_SITES = {
    "KappaPolicy.kappa": (
        "kappa", lambda c, v: KappaPolicy(kappa=v, d=1, p=2.0, k_inf=1.0), 2, False, 0.0),
    "KappaPolicy.p": ("p", lambda c, v: KappaPolicy(kappa=1.0, d=1, p=v, k_inf=1.0), 2, False, 0.5),
    "KappaPolicy.k_inf": (
        "k_inf", lambda c, v: KappaPolicy(kappa=1.0, d=1, p=2.0, k_inf=v), 1, False, -1.0),
    "kappa_default.p": ("p", lambda c, v: kappa_default(1, v, 1.0), 2, False, 0.5),
    "kappa_default.k_inf": ("k_inf", lambda c, v: kappa_default(1, 2.0, v), 1, False, -1.0),
    "ExperimentPlan.p": ("p", lambda c, v: c.plan(p=v), 2, False, 0.5),
    "lp_norm_on_grid.p": ("p", lambda c, v: lp_norm_on_grid(
        np.zeros(9), np.zeros(9), v, GridSpec(box=((0.0, 1.0),), nodes=(9,))), 2, False, 0.5),
    "ClassSpec.beta": ("beta", lambda c, v: ClassSpec(beta=(v,), r=(2.0,), L=(1.0,), M=1.0),
                       2, False, 0.0),
    "ClassSpec.r": ("r", lambda c, v: ClassSpec(beta=(2.0,), r=(v,), L=(1.0,), M=1.0),
                    2, True, 0.5),
    "ClassSpec.L": ("L", lambda c, v: ClassSpec(beta=(2.0,), r=(2.0,), L=(v,), M=1.0),
                    1, False, 0.0),
    "ClassSpec.M": ("M", lambda c, v: ClassSpec(beta=(2.0,), r=(2.0,), L=(1.0,), M=v),
                    1, False, 0.0),
    "TailSpec.theta": ("theta", lambda c, v: TailSpec(theta=v, R=1.0), 1, False, 0.0),
    "TailSpec.R": ("R", lambda c, v: TailSpec(theta=0.5, R=v), 2, False, 0.0),
    "classify.p": ("p", lambda c, v: classify(c.spec, v), 3, False, 1.0),
    "classify_tail.p": (
        "p", lambda c, v: classify_tail(c.spec, v, TailSpec(theta=0.5, R=1.0)), 3, False, 1.0),
    "theta_star.p": ("p", lambda c, v: theta_star(c.spec, v), 3, False, 1.0),
    "embedding.p": ("p", lambda c, v: embedding(c.spec, v), 2, True, 0.5),
    "convolve_ratio.ratio": ("ratio", lambda c, v: convolve_ratio(c.composite, v), 1, False, 0.0),
    "build_majorant.ratio": (
        "ratio", lambda c, v: build_majorant(c.composite, (v,), 1), 1, False, 0.0),
    "check_proportional.a_hat": (
        "a_hat", lambda c, v: check_proportional(v, 1.0, c.policy, 0.5, 16), 1, False, -1.0),
    "check_proportional.a_true": (
        "a_true", lambda c, v: check_proportional(1.0, v, c.policy, 0.5, 16), 1, False, -1.0),
    "check_proportional.v_h": (
        "v_h", lambda c, v: check_proportional(1.0, 1.0, c.policy, v, 16), 1, False, 0.0),
    "bias_norm_scaling.r_j": ("r_j", lambda c, v: bias_norm_scaling(
        c.rc1, c.setup.kernel, 0, v, (1 / 4, 1 / 8, 1 / 16), nodes=17, grid_nodes=17),
        2, True, 0.5),
    "bias_norm_scaling.h_schedule": ("h_schedule", lambda c, v: bias_norm_scaling(
        c.rc1, c.setup.kernel, 0, 2.0, (v, 1 / 8, 1 / 16), nodes=17, grid_nodes=17),
        1, False, 0.0),
    "trapezoid_rule.lo": ("lo", lambda c, v: trapezoid_rule(v, 1.0, 5), 0, False, None),
    "trapezoid_rule.hi": ("hi", lambda c, v: trapezoid_rule(0.0, v, 5), 1, False, None),
    "GridSpec.box": ("box", lambda c, v: GridSpec(box=((v, 1.0),), nodes=(5,)), 0, False, None),
    "flat_top_density.N": ("N", lambda c, v: flat_top_density(v, 1, 1.0), 16, False, 8.0),
    "flat_top_density.kappa_scale": (
        "kappa_scale", lambda c, v: flat_top_density(16.0, 1, v), 1, False, 0.0),
    "build_perturbed.N": (
        "N", lambda c, v: build_perturbed(v, (0.05,), 1e-3, np.zeros(16), 1), 16, False, 8.0),
    "build_perturbed.kappa_scale": ("kappa_scale", lambda c, v: build_perturbed(
        16.0, (0.05,), 1e-3, np.zeros(16), 1, v), 1, False, 0.0),
    "build_perturbed.sigma": (
        "sigma", lambda c, v: build_perturbed(16.0, (v,), 1e-3, np.zeros(16), 1, 0.05),
        1, False, 0.0),
    "build_perturbed.A": (
        "A", lambda c, v: build_perturbed(16.0, (1 / 320,), v, np.zeros(16), 1, 16.0),
        1, False, 0.0),
    "build_f_theta.N": ("N", lambda c, v: build_f_theta(v, 0.8, 1), 16, False, 8.0),
    "build_f_theta.theta": ("theta", lambda c, v: build_f_theta(16.0, v, 1), 1, False, 0.0),
    "smoothed_uniform.delta": ("delta", lambda c, v: smooth_product_density(
        "smoothed_uniform", 1, {"delta": v}), 0.25, False, 0.0),
    "bump_mixture.centers": ("centers", lambda c, v: _mixture(centers=(v, 1.0)), 0, False, None),
    "bump_mixture.scales": ("scales", lambda c, v: _mixture(scales=(v, 0.2)), 1, False, 0.0),
    "bump_mixture.weights": (
        "weights", lambda c, v: _mixture(weights=(v, 1.0)), 0, False, -0.5),
    "strong_maximal.h_levels": ("h_levels", lambda c, v: strong_maximal(
        c.rc1, GridSpec(box=((-1.0, 1.0),), nodes=(9,)), (v,)), 1, False, 0.0),
    "tail_quasi_norm.theta": ("theta", lambda c, v: tail_quasi_norm(c.field, v), 1, False, 0.0),
    "g_lp_norm.p": ("p", lambda c, v: g_lp_norm(v, 65), 2, False, 0.5),
    # offsets of any shape; 1j and "a" raised a raw TypeError and ValueError
    "Tabulated1D.__call__": ("y", lambda c, v: c.setup.marginal.profile(v), 0.1, False, None),
}


def _refused(name: str):
    return pytest.raises(InvalidParameterError, match=rf"^{re.escape(name)} must be ")


@pytest.mark.parametrize("value", NOT_REALS, ids=repr)
@pytest.mark.parametrize("site", list(REAL_SITES))
def test_non_real_is_refused_by_name(ctx, site, value):
    # True was taken as 1.0 at most of these sites, "2" as 2.0 where a
    # float() ran first, and None raised a raw TypeError
    name, call, *_ = REAL_SITES[site]
    with _refused(name):
        call(ctx, value)


@pytest.mark.parametrize("site", list(REAL_SITES))
def test_inf_only_where_the_contract_takes_it(ctx, site):
    # KappaPolicy.k_inf, ClassSpec.M, TailSpec.R and trapezoid_rule took inf
    name, call, _, inf_ok, _ = REAL_SITES[site]
    if inf_ok:
        call(ctx, float("inf"))
    else:
        with _refused(name):
            call(ctx, float("inf"))
    with _refused(name):
        call(ctx, float("-inf"))


@pytest.mark.parametrize("site", [s for s in REAL_SITES if REAL_SITES[s][4] is not None])
def test_value_below_the_bound_is_refused_by_name(ctx, site):
    name, call, _, _, low = REAL_SITES[site]
    with _refused(name):
        call(ctx, low)


@pytest.mark.parametrize("site, real", [
    (site, real) for site in REAL_SITES
    for real in (np.float64, np.float32, np.asarray, int, float)
    # no integer is in delta's range (0, 1/2]
    if real is not int or float(REAL_SITES[site][2]).is_integer()])
def test_numpy_and_python_reals_are_accepted(ctx, site, real):
    _, call, good, *_ = REAL_SITES[site]
    call(ctx, real(good))


def test_plan_kappa_is_checked_and_stored_as_a_float(ctx):
    # None means the theory floor; an integer kappa is stored as its float,
    # so kappa=2 and kappa=2.0 are one experiment with one plan hash
    assert ctx.plan(kappa=None).kappa is None
    assert type(ctx.plan(kappa=2).kappa) is float
    assert ctx.plan(kappa=2).plan_hash == ctx.plan(kappa=2.0).plan_hash
    for value in (True, "2", float("nan"), float("inf"), 0.0):
        with _refused("kappa"):
            ctx.plan(kappa=value)


def test_plan_hash_reads_a_numpy_kappa_as_its_python_value(ctx):
    # a float32 kappa was accepted, and then plan_hash raised a raw TypeError
    assert (ctx.plan(kappa=np.float32(0.05)).plan_hash
            == ctx.plan(kappa=float(np.float32(0.05))).plan_hash)
    assert ctx.plan(kappa=np.int64(2)).plan_hash == ctx.plan(kappa=2).plan_hash
    assert ctx.plan(kappa=np.asarray(2.5)).plan_hash == ctx.plan(kappa=2.5).plan_hash


def test_density_labels_read_the_checked_values(ctx):
    # the labels were built from the arguments as given, so an integer N
    # gave a second label, and a second plan hash, for one density
    as_ints, as_floats = flat_top_density(16, 1, 1), flat_top_density(16.0, 1, 1.0)
    assert as_ints.label == as_floats.label == "flat_top(N=16.0, kappa_scale=1.0)"
    assert build_f_theta(16, 1, 1).label == as_floats.label
    assert build_f_theta(16, 0.8, 1).label == build_f_theta(16.0, 0.8, 1).label
    assert (build_perturbed(16, (0.05,), 1e-3, np.zeros(16), 1).label
            == ctx.perturbed.label == "perturbed(N=16.0, A=0.001, dim=1)")
    plan = dict(p=2.0, n_schedule=(4, 8), replicates=2, seed=11)
    hashes = {ExperimentPlan(density=dens, grid=default_grid(dens, 9), **plan).plan_hash
              for dens in (as_ints, as_floats)}
    assert len(hashes) == 1


def test_real_sites_return_floats(ctx):
    policy = KappaPolicy(kappa=np.float32(2), d=1, p=2, k_inf=np.int64(1))
    assert all(type(v) is float for v in (policy.kappa, policy.p, policy.k_inf))
    spec = ClassSpec(beta=(2,), r=(np.float32(2),), L=(1,), M=np.int64(1))
    assert all(type(v) is float for v in spec.beta + spec.r + spec.L + (spec.M,))
    assert type(ctx.plan(p=np.float32(2)).p) is float
    assert GridSpec(box=((0, np.int64(1)),), nodes=(3,)).box == ((0.0, 1.0),)
    pts, w = trapezoid_rule(np.int64(0), 1, 3)
    assert pts.tolist() == [0.0, 0.5, 1.0] and w.tolist() == [0.25, 0.5, 0.25]


@pytest.fixture(scope="module")
def ctx2():
    rc2 = smooth_product_density("raised_cosine", 2)
    setup = make_setup(16, 2, table_size=64, max_exponent=2)
    return SimpleNamespace(
        rc2=rc2, setup=setup, h=Bandwidth((1, 1)),
        policy=kappa_default(2, 2.0, setup.kernel.k_inf),
        data=sample(rc2, 16, np.random.default_rng(0)),
        perturbed=build_perturbed(16.0, (0.05, 0.05), 1e-3, np.zeros(256), 2))


# site: (the argument's name, a call of the site with value v that returns
# something comparable, an accepted float64 value: one point of shape (2,)
# or rows of shape (m, 2))
POINT = np.array([0.25, -0.125])
ROWS = np.array([[0.25, -0.125], [1.5, 0.0], [-2.0, 0.375]])
POINT_SITES = {
    "build_dataset": ("points", lambda c, v: build_dataset(v).points, ROWS),
    "estimate_on_grid": ("eval_points", lambda c, v: [
        (f.estimate, f.selected) for f in estimate_on_grid(c.data, v, c.policy, c.setup)], ROWS),
    "select_and_estimate": ("x", lambda c, v: select_and_estimate(
        c.data, v, c.policy, c.setup).estimate, POINT),
    "TrueDensity.__call__ point": ("x", lambda c, v: c.rc2(v), POINT),
    "TrueDensity.__call__ rows": ("x", lambda c, v: c.rc2(v), ROWS),
    "PerturbedDensity.perturbation point": ("x", lambda c, v: c.perturbed.perturbation(v), POINT),
    "PerturbedDensity.perturbation rows": ("x", lambda c, v: c.perturbed.perturbation(v), ROWS),
    "ProductKernel.__call__": ("pts", lambda c, v: c.setup.kernel(v), ROWS),
    "cli estimate.points": ("estimate.points", lambda c, v: _estimate_mesh({"points": v}, 2),
                            ROWS),
    "bias": ("x", lambda c, v: bias(c.rc2, c.setup.kernel, c.h, v, nodes=17), POINT),
    "bias_bar": ("x", lambda c, v: bias_bar(
        c.rc2, c.setup.kernel, c.setup.grid, c.h, v, nodes=17), POINT),
    "majorant_true": ("x", lambda c, v: majorant_true(
        c.rc2, c.setup.kernel, c.h, v, c.policy, 16, nodes=17), POINT),
    "oracle_terms": ("x", lambda c, v: oracle_terms(
        c.data, c.rc2, v, c.policy, c.setup, nodes=17).bound, POINT),
}

FIVE = GridSpec(box=((0.0, 1.0),), nodes=(5,))

# site: (the argument's name, a call with a bad array); each once returned
# a number or raised a raw error
BAD_ARRAYS = {
    "grid_values nan node": ("axes[0]", lambda c: c.rc2.grid_values([[np.nan, 0.0], [0.0]])),
    "grid_values inf node": ("axes[0]", lambda c: c.rc2.grid_values([[np.inf], [0.0]])),
    "grid_values complex node": ("axes[0]", lambda c: c.rc2.grid_values([[1j], [0.0]])),
    "grid_values ragged axis": ("axes[1]", lambda c: c.rc2.grid_values([[0.0], [[0.0], 1.0]])),
    "build_perturbed ragged w": (
        "w", lambda c: build_perturbed(16.0, (0.05,), 1e-3, [[0] * 8, [0] * 9], 1)),
    # grid fields: complex values lost their imaginary part, strings and
    # bools were cast, None gave nan, and nan or inf passed through
    **{f"integrate_values {kind}": ("values", lambda c, v=v: FIVE.integrate_values(v))
       for kind, v in (("complex", np.full(5, 1 + 1j)), ("strings", ["1"] * 5),
                       ("bools", [True] * 5), ("None entries", [None] * 5),
                       ("nan", [0.0, np.nan, 0.0, 0.0, 0.0]), ("inf", np.full(5, np.inf)),
                       ("ragged", [[0.0], [0.0, 1.0]]))},
    "lp_norm_on_grid complex field_a": ("field_a", lambda c: lp_norm_on_grid(
        np.full(5, 1 + 1j), np.zeros(5), 2.0, FIVE)),
    "lp_norm_on_grid nan field_b": ("field_b", lambda c: lp_norm_on_grid(
        np.zeros(5), [0.0, 0.0, np.nan, 0.0, 0.0], 2.0, FIVE)),
    "lp_norm_on_grid string field_b": ("field_b", lambda c: lp_norm_on_grid(
        np.zeros((5,)), ["0"] * 5, 2.0, FIVE)),
    # a malformed box or nodes raised a raw ValueError or TypeError
    "GridSpec box of triples": ("box", lambda c: GridSpec(box=((0.0, 1.0, 2.0),), nodes=(5,))),
    "GridSpec box of scalars": ("box", lambda c: GridSpec(box=(0.0,), nodes=(5,))),
    "GridSpec None box": ("box", lambda c: GridSpec(box=None, nodes=(5,))),
    "GridSpec scalar nodes": ("nodes", lambda c: GridSpec(box=((0.0, 1.0),), nodes=5)),
    "kernel ragged y": ("y", lambda c: build_composite(build_base(1, 64))([[0.1, 0.2], [0.3]])),
}


@pytest.mark.parametrize("site", list(BAD_ARRAYS))
def test_bad_array_is_refused_by_name(ctx2, site):
    name, call = BAD_ARRAYS[site]
    with _refused(name):
        call(ctx2)


def _entry(good: np.ndarray, entry) -> list:
    """good as nested lists, its first entry replaced by entry."""
    out = good.tolist()
    (out[0] if good.ndim == 2 else out)[0] = entry
    return out


def _ragged(good: np.ndarray) -> list:
    out = good.tolist()
    if good.ndim == 2:
        out[-1] = out[-1][:-1]
    else:
        out[0] = [out[0]]
    return out


def _width(size: int):
    return lambda good: np.zeros(good.shape[:-1] + (size,))


NOT_POINTS = {
    "nan": lambda g: _entry(g, float("nan")),
    "inf": lambda g: _entry(g, float("inf")),
    "-inf in an array": lambda g: np.asarray(_entry(g, -np.inf)),
    "complex entry": lambda g: _entry(g, 0.25 + 1j),
    "string entry": lambda g: _entry(g, "0.25"),
    "None": lambda g: None,
    "None entry": lambda g: _entry(g, None),
    "ragged": _ragged,
    "bool array": lambda g: g != 0,
    "no coordinates": _width(0),
    "wrong dimension": _width(3),
}


@pytest.mark.parametrize("site, bad", [
    (site, bad) for site in POINT_SITES for bad in NOT_POINTS
    # build_dataset takes rows of any d >= 1; a null config key means absent
    if (site, bad) not in {("build_dataset", "wrong dimension"), ("cli estimate.points", "None")}])
def test_bad_point_array_is_refused_by_name(ctx2, site, bad):
    # nan and inf gave a density of 0.0 or nan and a raw IndexError in the
    # kernel, complex and bool entries were cast, strings and ragged rows
    # raised a raw ValueError, and a perturbation of the wrong dimension
    # returned zeros
    name, call, good = POINT_SITES[site]
    with _refused(name):
        call(ctx2, NOT_POINTS[bad](good))


@pytest.mark.parametrize("form", [lambda g: g.tolist(), lambda g: g.astype(np.int64),
                                  lambda g: g.astype(np.float32)],
                         ids=["nested list", "int array", "float32 array"])
@pytest.mark.parametrize("site", list(POINT_SITES))
def test_lists_ints_and_float32_match_float64(ctx2, site, form):
    _, call, good = POINT_SITES[site]
    given = form(good)
    expected = call(ctx2, np.asarray(given, dtype=np.float64))
    got = call(ctx2, given)
    assert type(got) is type(expected)
    np.testing.assert_array_equal(np.asarray(got, dtype=object), np.asarray(expected, dtype=object))


def test_empty_rows_keep_their_dimension(ctx2):
    # an empty (0, 3) sample is a d=3 dataset, and no rows fit to no fits
    assert sample(smooth_product_density("raised_cosine", 3), 0,
                  np.random.default_rng(0)).dim == 3
    assert build_dataset(np.empty((0, 3))).points.shape == (0, 3)
    assert estimate_on_grid(ctx2.data, [], ctx2.policy, ctx2.setup) == []
    assert _estimate_mesh({"points": []}, 2).shape == (0, 2)
    with _refused("points"):
        build_dataset([])
