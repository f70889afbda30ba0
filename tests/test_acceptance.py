"""End-to-end acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line with the measured values and wall time.
Run `pytest -sv tests/test_acceptance.py` to see every line.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from anisokde.cli import main as cli_main
from anisokde.densities import (
    build_perturbed,
    g_lp_norm,
    sample,
    vg_packing,
)
from anisokde.estimator import KappaPolicy, kappa_default, make_setup
from anisokde.kernels import build_majorant, build_product, convolve_ratio
from anisokde.oracle import (
    assert_oracle_inequality,
    bias_norm_scaling,
    check_proportional,
    oracle_terms,
)
from anisokde.quadrature import tensor_integral, trapezoid_rule
from anisokde.regimes import ClassSpec, TailSpec, classify, classify_tail
from anisokde.risk import (
    ExperimentPlan,
    default_grid,
    fit_rate,
    oracle_gap,
    run_plan,
)


def _verdict(num: int, label: str, ok: bool, detail: str, elapsed: float,
             limit: float) -> None:
    state = "PASS" if ok and elapsed < limit else "FAIL"
    line = (f"criterion {num:02d} [{state}] {label}: {detail} "
            f"({elapsed:.1f}s, limit {limit:.0f}s)")
    print(line)
    assert ok, line
    assert elapsed < limit, line


def test_criterion_01_kernel_mass_and_vanishing_moments(composites):
    t0 = time.perf_counter()
    worst_mass = 0.0
    worst_moment = 0.0
    for ell in (1, 2, 3):
        for d, nodes in ((1, 8193), (2, 2049)):
            K = build_product(composites[ell], d)
            box = np.array([[-0.6, 0.6]] * d)
            worst_mass = max(worst_mass, abs(tensor_integral(K, box, nodes) - 1.0))
            for k in itertools.product(range(ell), repeat=d):
                if not 1 <= sum(k) <= ell - 1:
                    continue
                powers = np.array(k, dtype=float)

                def weighted(pts, powers=powers):
                    return K(pts) * np.prod(pts ** powers, axis=1)

                worst_moment = max(
                    worst_moment, abs(tensor_integral(weighted, box, nodes))
                )
    ok = worst_mass <= 1e-6 and worst_moment <= 1e-5
    _verdict(1, "kernel mass and vanishing moments", ok,
             f"|mass-1| <= {worst_mass:.2e}, |moment| <= {worst_moment:.2e}",
             time.perf_counter() - t0, 10.0)


def test_criterion_02_majorant_support_supnorm_domination(composites):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    # every order checks the full ratio set 2^0..2^-10 that kernel-check
    # uses; a cold table costs a few ms, so the budget is far off
    ratio_sets = {ell: tuple(2.0 ** -k for k in range(11)) for ell in (1, 2, 3)}
    worst_excess = -np.inf
    worst_defect = -np.inf
    support_ok = True
    for ell, ratios in ratio_sets.items():
        comp = composites[ell]
        for d in (1, 2):
            Q = build_majorant(comp, ratios, d)
            support_ok &= np.array_equal(Q.support(), np.tile([-1.0, 1.0], (d, 1)))
            outside = np.full((3, d), 0.3)
            outside[:, 0] = (-1.0001, 1.0001, 2.0)
            support_ok &= bool(np.all(Q(outside) == 0.0))
            worst_excess = max(worst_excess,
                               Q.sup_norm - comp.sup_norm ** (2 * d))
            ts = rng.uniform(-1.0, 1.0, size=(200, d))
            env_vals = Q(ts)
            for _ in range(20):
                pair = np.ones(len(ts))
                for j in range(d):
                    r = float(ratios[rng.integers(0, len(ratios))])
                    pair = pair * np.abs(convolve_ratio(comp, r)(ts[:, j]))
                worst_defect = max(worst_defect, float((pair - env_vals).max()))
    ok = support_ok and worst_excess <= 1e-12 and worst_defect <= 1e-10
    _verdict(2, "majorant support, sup-norm, domination", ok,
             f"support ok={support_ok}, sup excess {worst_excess:.2e}, "
             f"domination defect {worst_defect:.2e}",
             time.perf_counter() - t0, 10.0)


def test_criterion_03_pointwise_error_bound_on_every_instance(rc1, rc2):
    t0 = time.perf_counter()
    n = 256
    holds = 0
    total = 0
    worst_ratio = 0.0
    for density, instances, nodes in ((rc1, 200, 65), (rc2, 50, 33)):
        setup = make_setup(n, density.dim)
        policy = kappa_default(density.dim, 2.0, setup.kernel.k_inf)
        box = np.asarray(density.box, dtype=float)
        for i in range(instances):
            rng = np.random.default_rng(300 + i)
            data = sample(density, n, rng)
            x = rng.uniform(box[:, 0], box[:, 1])
            rec = assert_oracle_inequality(data, density, x, policy, setup,
                                           nodes=nodes)
            total += 1
            holds += int(rec["holds"])
            if rec["rhs"] > 0:
                worst_ratio = max(worst_ratio, rec["lhs"] / rec["rhs"])
    ok = holds == total
    _verdict(3, "pointwise error bound, default threshold scale", ok,
             f"{holds}/{total} hold, worst lhs/rhs {worst_ratio:.3f}",
             time.perf_counter() - t0, 600.0)


def test_criterion_04_majorant_comparability_brackets():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    bad = 0
    for i in range(10_000):
        a_hat = 0.0 if i % 17 == 0 else 10.0 ** rng.uniform(-4, 2)
        a_true = 0.0 if i % 23 == 0 else 10.0 ** rng.uniform(-4, 2)
        policy = KappaPolicy(kappa=10.0 ** rng.uniform(-2, 2), d=1, p=2.0,
                             k_inf=2.0)
        v_h = 2.0 ** -int(rng.integers(0, 14))
        n = int(10.0 ** rng.uniform(0.5, 6))
        rec = check_proportional(a_hat, a_true, policy, v_h, max(n, 2))
        bad += int(not rec["holds"])
    ok = bad == 0
    _verdict(4, "empirical/true majorant comparability brackets", ok,
             f"{10_000 - bad}/10000 tuples hold",
             time.perf_counter() - t0, 5.0)


def test_criterion_05_scaled_residual_moments_do_not_grow(rc1):
    # at the default threshold scale the residuals vanish on every sampled
    # instance, so the scaled sequence is identically zero
    t0 = time.perf_counter()
    p = 2.0
    xs, wts = trapezoid_rule(-1.25, 1.25, 17)
    schedule = (64, 256, 1024)
    s_zeta, s_chi = [], []
    for n in schedule:
        setup = make_setup(n, 1)
        policy = kappa_default(1, p, setup.kernel.k_inf)
        zp = np.zeros(len(xs))
        cp = np.zeros(len(xs))
        reps = 12
        for k in range(reps):
            data = sample(rc1, n, np.random.default_rng(5000 + k))
            for i, x in enumerate(xs):
                terms = oracle_terms(data, rc1, np.array([x]), policy, setup,
                                     nodes=65)
                zp[i] += terms.zeta ** p / reps
                cp[i] += terms.chi ** p / reps
        s_zeta.append(n ** (p / 2.0) * float(wts @ zp))
        s_chi.append(n ** (p / 2.0) * float(wts @ cp))
    ok = all(
        seq[i + 1] <= 2.0 * seq[i] + 1e-12
        for seq in (s_zeta, s_chi)
        for i in range(len(seq) - 1)
    )
    fmt = lambda seq: "[" + ", ".join(f"{v:.3g}" for v in seq) + "]"
    _verdict(5, "scaled residual moments non-increasing", ok,
             f"n^(p/2)-scaled centered {fmt(s_zeta)}, averaged {fmt(s_chi)} "
             f"over n={schedule}",
             time.perf_counter() - t0, 600.0)


def test_criterion_06_regime_classifier_cross_checks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    matched_ok = True
    for _ in range(100):
        d = int(rng.integers(1, 4))
        beta = tuple(float(rng.uniform(0.4, 3.0)) for _ in range(d))
        p = float(rng.uniform(1.05, 4.0))
        spec = ClassSpec(beta=beta, r=(p,) * d, L=(1.0,) * d, M=1.0)
        inv_beta = sum(1.0 / b for b in beta)
        if p < 2.0:
            expected = (1.0 - 1.0 / p) / (1.0 - inv_beta / p + inv_beta)
        else:
            expected = 1.0 / (2.0 + inv_beta)
        matched_ok &= classify(spec, p).nu == pytest.approx(expected, rel=1e-12)

    boundary_ok = True
    for _ in range(50):
        d = int(rng.integers(1, 4))
        beta = tuple(float(rng.uniform(0.4, 3.0)) for _ in range(d))
        r = tuple(float(rng.choice([1.5, 2.0, 3.0, 8.0])) for _ in range(d))
        spec = ClassSpec(beta=beta, r=r, L=(1.0,) * d, M=1.0)
        rep = classify(spec, 2.0)
        inv_beta, inv_s = 1.0 / rep.beta_agg, 1.0 / rep.s
        if rep.s <= 1.0:
            continue
        lower = (2.0 + inv_beta) / (1.0 + inv_s)
        upper = rep.s * (2.0 + inv_beta)
        dense = 1.0 / (2.0 + inv_beta)
        tail_at_lower = (1.0 - 1.0 / lower) / (1.0 - inv_s + inv_beta)
        sparse_at_upper = ((1.0 - inv_s + inv_beta / upper)
                           / (2.0 - 2.0 * inv_s + inv_beta))
        boundary_ok &= tail_at_lower == pytest.approx(dense, rel=1e-12)
        boundary_ok &= sparse_at_upper == pytest.approx(dense, rel=1e-12)
        if lower > 1.0:
            boundary_ok &= classify(spec, lower).nu == pytest.approx(
                dense, rel=1e-12)
        boundary_ok &= classify(spec, upper).nu == pytest.approx(
            dense, rel=1e-12)

    theta_ok = True
    checked = 0
    for _ in range(200):
        d = int(rng.integers(1, 4))
        beta = tuple(float(rng.uniform(0.4, 3.0)) for _ in range(d))
        r = tuple(float(rng.choice([1.5, 2.0, 3.0])) for _ in range(d))
        spec = ClassSpec(beta=beta, r=r, L=(1.0,) * d, M=1.0)
        rep2 = classify(spec, 2.0)
        inv_beta, inv_s = 1.0 / rep2.beta_agg, 1.0 / rep2.s
        lower = (2.0 + inv_beta) / (1.0 + inv_s)
        p = lower * float(rng.uniform(0.6, 0.95))
        if p <= 1.01:
            continue
        rep = classify(spec, p)
        if rep.zone != "tail":
            continue
        checked += 1
        first_arg = (1.0 - 1.0 / p) / (1.0 - inv_s + inv_beta)
        theta_ok &= first_arg == pytest.approx(rep.nu, rel=1e-12)
        tc = classify_tail(spec, p, TailSpec(theta=1.0, R=1.0))
        dense = 1.0 / (2.0 + inv_beta)
        theta_ok &= tc.nu_theta == pytest.approx(max(first_arg, dense),
                                                 rel=1e-12)
    theta_ok &= checked >= 50

    ok = matched_ok and boundary_ok and theta_ok
    _verdict(6, "rate regime classifier cross-checks", ok,
             f"matched-index draws ok={matched_ok}, boundary agreement "
             f"ok={boundary_ok}, theta=1 coincidence ok={theta_ok} "
             f"({checked} tail draws)",
             time.perf_counter() - t0, 1.0)


def test_criterion_07_bias_norm_slope_recovers_smoothness(rc1, composites):
    # the edge layer carries the density's order-two feature; the sup norm
    # sees it at every scale, so the high-order kernel fits slope two there
    t0 = time.perf_counter()
    hs = (0.25, 0.125, 0.0625, 0.03125)
    K3 = build_product(composites[3], 1)
    sup_rep = bias_norm_scaling(rc1, K3, 0, np.inf, hs,
                                nodes=513, grid_nodes=1025)
    K1 = build_product(composites[1], 1)
    l2_rep = bias_norm_scaling(rc1, K1, 0, 2.0, hs,
                               nodes=513, grid_nodes=1025)
    ok = (not sup_rep.degenerate and not l2_rep.degenerate
          and abs(sup_rep.slope - 2.0) <= 0.2
          and abs(l2_rep.slope - 2.0) <= 0.2)
    _verdict(7, "bias norm scaling exponent", ok,
             f"high-order kernel sup-norm slope {sup_rep.slope:.3f}, "
             f"order-two kernel L2 slope {l2_rep.slope:.3f}, target 2.0 +- 0.2",
             time.perf_counter() - t0, 60.0)


def test_criterion_08_packing_size_and_distance_exhaustive():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    details = []
    ok = True
    for m in (8, 16, 64):
        packing = vg_packing(m, rng)
        members = packing.members
        size_ok = members.shape[0] >= 2.0 ** (m / 8.0)
        diff = (members[:, None, :] != members[None, :, :]).sum(axis=2)
        off = diff[~np.eye(members.shape[0], dtype=bool)]
        dist_ok = bool(off.min() >= m / 8.0)
        binary_ok = bool(np.isin(members, (0, 1)).all()
                         and members.shape[1] == m)
        ok &= size_ok and dist_ok and binary_ok
        details.append(f"m={m}: {members.shape[0]} members, "
                       f"min distance {int(off.min())}")
    _verdict(8, "packing size and Hamming distance", ok,
             "; ".join(details), time.perf_counter() - t0, 30.0)


def test_criterion_09_hard_density_family_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    N, sigma, amp, p = 16.0, 0.05, 0.0625, 2.0
    ws = []
    while len(ws) < 11:
        w = rng.integers(0, 2, size=16)
        if not any(np.array_equal(w, seen) for seen in ws):
            ws.append(w)
    densities = [build_perturbed(N, (sigma,), amp, w, 1) for w in ws]
    lo, hi = densities[0].box[0]
    xs, wts = trapezoid_rule(float(lo), float(hi), 100_001)
    pts = xs[:, None]

    mass_defect = 0.0
    min_value = np.inf
    pert_mean = 0.0
    for f in densities:
        vals = f(pts)
        mass_defect = max(mass_defect, abs(float(wts @ vals) - 1.0))
        min_value = min(min_value, float(vals.min()))
        pert_mean = max(pert_mean, abs(float(wts @ f.perturbation(pts))))

    g_norm_p = g_lp_norm(p) ** p
    sep_err = 0.0
    for fa, fb, wa, wb in zip(densities, densities[1:], ws, ws[1:]):
        ham = int((wa != wb).sum())
        lhs = float(wts @ np.abs(fa(pts) - fb(pts)) ** p)
        rhs = amp ** p * g_norm_p * sigma * ham
        sep_err = max(sep_err, abs(lhs - rhs) / rhs)

    ok = (mass_defect <= 1e-6 and min_value >= -1e-12
          and pert_mean <= 1e-6 and sep_err <= 0.02)
    _verdict(9, "hard density mass, positivity, separation", ok,
             f"|mass-1| <= {mass_defect:.2e}, min {min_value:.2e}, "
             f"|perturbation mean| <= {pert_mean:.2e}, separation rel err "
             f"<= {sep_err:.2e} over 10 pairs",
             time.perf_counter() - t0, 120.0)


def test_criterion_10_empirical_rate_slope_in_band(rc1):
    t0 = time.perf_counter()
    plan = ExperimentPlan(
        density=rc1,
        p=2.0,
        n_schedule=(256, 512, 1024, 2048, 4096, 8192),
        replicates=20,
        grid=default_grid(rc1, 65),
        seed=20,
        kappa=0.05,
        threads=1,
    )
    fit = fit_rate(run_plan(plan))
    ok = -0.55 <= fit.slope <= -0.25
    _verdict(10, "empirical risk rate slope", ok,
             f"slope {fit.slope:.4f} in [-0.55, -0.25], "
             f"residual stderr {fit.residual_stderr:.3f}",
             time.perf_counter() - t0, 1800.0)


def test_criterion_11_selector_tracks_best_fixed_bandwidth(rc1):
    t0 = time.perf_counter()
    plan = ExperimentPlan(
        density=rc1,
        p=2.0,
        n_schedule=(1024,),
        replicates=2,
        grid=default_grid(rc1, 65),
        seed=0,
        kappa=0.05,
        threads=1,
    )
    gap = oracle_gap(plan, 1024, 50)
    ok = gap.median <= 4.0
    _verdict(11, "selector-to-best-bandwidth gap", ok,
             f"median {gap.median:.3f} <= 4 over 50 replicates "
             f"(mean {gap.mean:.3f}, max {gap.max:.3f})",
             time.perf_counter() - t0, 900.0)


def test_criterion_12_manifest_reruns_are_byte_identical(tmp_path):
    t0 = time.perf_counter()
    cfg = tmp_path / "risk.json"
    cfg.write_text(json.dumps({
        "seed": 9,
        "density": {"kind": "raised_cosine", "dim": 1},
        "estimator": {"kappa": 0.05},
        "risk": {"n_schedule": [16, 32], "replicates": 3, "grid_nodes": 33},
    }))
    data = tmp_path / "points.txt"
    data.write_text("0.0\n0.25\n-0.4\n0.6\n")
    est_cfg = tmp_path / "estimate.json"
    est_cfg.write_text(json.dumps({
        "estimate": {"box": [[-1.5, 1.5]], "grid_nodes": 21},
    }))

    runs = [
        ("risk", [], str(cfg), ("risk.csv", "risk.json", "plot/risk.dat")),
        ("estimate", [str(data)], str(est_cfg), ("fits.csv",)),
    ]
    ok = True
    for command, extra, config, files in runs:
        first = tmp_path / f"{command}-a"
        second = tmp_path / f"{command}-b"
        ok &= cli_main([command, *extra, "--config", config,
                        "--out", str(first), "--threads", "1"]) == 0
        ok &= cli_main([command, *extra, "--config",
                        str(first / "manifest.json"),
                        "--out", str(second), "--threads", "3"]) == 0
        for rel in files:
            ok &= (first / rel).read_bytes() == (second / rel).read_bytes()
        a = json.loads((first / "manifest.json").read_text())
        b = json.loads((second / "manifest.json").read_text())
        ok &= a["outputs"] == b["outputs"]
        ok &= a["resolved_config"] == b["resolved_config"]
    _verdict(12, "manifest reruns byte-identical across thread counts", ok,
             "risk and estimate outputs identical at 1 vs 3 workers",
             time.perf_counter() - t0, 600.0)
