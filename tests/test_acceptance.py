"""Acceptance suite: nine numbered criteria, one test and verdict line each.

Each criterion pins its tolerance inline and prints a `[criterion N] PASS`
or `[criterion N] FAIL` line with the measured numbers (visible with -s or
on failure). Criteria 3 and 4 share one Monte Carlo run of the variance
study, the most expensive fixture here.
"""

import json
import math
import time

import numpy as np
import pytest

from idma import analytic, cli, kernels, levy, simulate, verify

CIN1 = 0.23981174200056472594


def report(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def variance_study():
    # one N=1e5 variance sweep reused by criteria 3 and 4
    return verify.hyperuniformity(
        kernels.signed_ou(), levy.two_point(1.0),
        T_grid=[1.0, 2.0, 5.0, 10.0, 20.0], N=100_000, seed=0)


def test_criterion_1_stationary_cf_closed_form():
    t0 = time.monotonic()
    got = analytic.log_cf_stationary(kernels.signed_ou(), levy.two_point(1.0),
                                     1.0)
    dt = time.monotonic() - t0
    err = abs(got - (-2.0 * CIN1))
    report(1, err < 1e-6 and dt < 1.0,
           f"log-CF(z=1) = {got.real:.12f}, |err| = {err:.2e} "
           f"(tol 1e-6), {dt:.2f}s (limit 1s)")


def test_criterion_2_simulator_matches_window_cf():
    t0 = time.monotonic()
    cfg = simulate.SimConfig(
        measure=levy.two_point(1.0), kernel=kernels.signed_ou(), T=10.0,
        ls=[0.0], eps=1e-3, n_replicates=100_000, seed=0)
    res = simulate.monte_carlo(cfg)
    zs = np.array([0.5, 1.0, 2.0])
    hat = simulate.empirical_cf(res.S[:, 0], zs)
    exact = np.array([np.exp(analytic.log_cf_window(
        cfg.kernel, cfg.measure, analytic.fdd_spec([0.0], [z], 10.0)))
        for z in zs])
    dist = float(np.max(np.abs(hat.values - exact)))
    band = 5.0 / math.sqrt(cfg.n_replicates)
    dt = time.monotonic() - t0
    report(2, dist <= band and dt < 60.0,
           f"sup CF error {dist:.2e} <= 5/sqrt(N) = {band:.2e}, "
           f"{dt:.1f}s (limit 60s)")


def test_criterion_3_variance_curve(variance_study):
    rep = variance_study
    worst_closed = 0.0
    for T, va in zip(rep.T_grid, rep.var_analytic):
        want = 2.0 - 2.0 * math.exp(-T) * (1.0 + T)
        worst_closed = max(worst_closed, abs(va - want))
    ok_closed = worst_closed < 1e-6
    ok_emp = all(abs(ve - va) <= 4.0 * se for ve, va, se in
                 zip(rep.var_empirical, rep.var_analytic, rep.var_se))
    report(3, ok_closed and ok_emp,
           f"max closed-form deviation {worst_closed:.2e} (tol 1e-6), "
           f"empirical within 4 SE at T = {rep.T_grid}: {ok_emp}")


def test_criterion_4_hyperuniformity_contrast(variance_study):
    quad_worst = 0.0
    for k in (kernels.signed_ou(), kernels.gauss_deriv()):
        for m in (levy.two_point(1.0), levy.dickman(),
                  levy.truncated_stable(0.5, 1.0)):
            assert analytic.covariance_integral(k, m) == 0.0
            quad_worst = max(quad_worst,
                             abs(analytic.covariance_integral_quadrature(k, m)))
    rep = variance_study
    slope_ok = abs(rep.control_slope - 1.0) <= 0.10
    plateau_ok = (abs(rep.var_analytic[-1] - rep.var_analytic[-2])
                  <= 0.10 * abs(rep.var_analytic[-2]))
    report(4, quad_worst < 1e-6 and slope_ok and plateau_ok
           and rep.classification == "hyperuniform",
           f"max |quad integral| {quad_worst:.2e} (tol 1e-6), control slope "
           f"{rep.control_slope:.4f} (1 +- 0.1), plateau {plateau_ok}")


def test_criterion_5_conditions_checker():
    rep = analytic.check_conditions(kernels.signed_ou(), levy.dickman())
    ok = (abs(rep.c2) < 1e-6 and abs(rep.c3 - 0.5) < 1e-6 and rep.all_pass)
    report(5, ok, f"c1 = {rep.c1:.2e}, c2 = {rep.c2:.2e}, "
           f"c3 = {rep.c3:.9f} (want 0.5 +- 1e-6), all_pass = {rep.all_pass}")


def test_criterion_6_limit_discrimination():
    # frozen pre-build oracle distances (brute-force quadrature of the
    # 1-d window CF against both candidate limits)
    frozen_claimed = [2.354876e-01, 2.494604e-01, 2.496348e-01, 2.496348e-01]
    frozen_boundary = [1.517974e-02, 1.871779e-04, 1.639365e-08]
    rep = verify.cf_convergence(
        kernels.signed_ou(), levy.two_point(1.0), ls=[0.0],
        T_grid=[5.0, 10.0, 20.0, 40.0],
        z_grid=[round(-5.0 + 0.25 * i, 2) for i in range(41)])
    ok = (rep.winner == "boundary_augmented"
          and rep.dist_boundary[-1] <= 1e-3
          and rep.monotone_boundary
          and np.allclose(rep.dist_claimed, frozen_claimed, rtol=0, atol=1e-6)
          and np.allclose(rep.dist_boundary[:3], frozen_boundary,
                          rtol=0, atol=1e-6)
          and abs(rep.dist_boundary[2] - frozen_boundary[2]) < 5e-9
          and rep.dist_boundary[3] <= 1e-12)
    report(6, ok,
           f"winner = {rep.winner}, boundary distances = "
           f"{['%.3e' % d for d in rep.dist_boundary]} (last <= 1e-3, "
           f"monotone), claimed stalls at "
           f"{rep.dist_claimed[-1]:.3e}; all match frozen oracle")


def test_criterion_7_product_form_and_grid_refinement():
    pk = kernels.ProductKernel((kernels.signed_ou(), kernels.signed_ou()))
    spec = analytic.fdd_spec([[0.0, 0.0]], [1.0], 1.0)
    got = analytic.j_t(pk, spec, [0.0, 0.0])
    want = (math.exp(-1.0) - 1.0) ** 2
    j_err = abs(got - want)

    # one jump placed on a node of every dyadic grid: the trapezoid error
    # from the kink then shrinks at second order
    js = simulate.jump_set([[0.25, 0.375]], [1.0])
    exact = simulate.window_integral(js, pk, 1.0, [0.0, 0.0])
    errs = [abs(simulate.window_integral_grid(js, pk, 1.0, [0.0, 0.0], n=n)[0]
                - exact) for n in (16, 32, 64)]
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    ok_ratio = all(3.2 <= r <= 4.8 for r in ratios)
    report(7, j_err < 1e-12 and ok_ratio,
           f"|J_T - (e^-1 - 1)^2| = {j_err:.2e} (tol 1e-12), grid error "
           f"ratios {ratios[0]:.2f}, {ratios[1]:.2f} (want ~4)")


def test_criterion_8_thread_determinism(tmp_path):
    doc = {"measure": {"kind": "two_point", "lambda": 1.0},
           "kernel": {"kind": "signed_ou"}, "T": 40.0, "N": 100_000,
           "eps": 1e-3, "seed": 0}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    t0 = time.monotonic()
    assert cli.main(["simulate", "--config", str(p), "--threads", "1",
                     "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["simulate", "--config", str(p), "--threads", "4",
                     "--out", str(tmp_path / "b")]) == 0
    dt = time.monotonic() - t0
    a = (tmp_path / "a" / "replicates.csv").read_bytes()
    b = (tmp_path / "b" / "replicates.csv").read_bytes()
    report(8, a == b and dt < 120.0,
           f"replicate CSVs byte-identical across 1 and 4 threads "
           f"({len(a)} bytes), {dt:.1f}s (limit 120s)")


def test_criterion_9_limit_symmetry_identity():
    # -int g(-s) L(ds) and int g(s) L(ds) must share one law: 100 seeded
    # KS comparisons at 1%, at most 5 rejections tolerated; each sample is
    # n replicates of one sample_limit call, drawn key block by key block
    cfg = simulate.SimConfig(
        measure=levy.two_point(1.0), kernel=kernels.signed_ou(), T=0.0,
        ls=[0.0], eps=0.5, window_pad=12.0, n_replicates=10_000, seed=0)
    n = cfg.n_replicates
    rejects = 0
    for r in range(100):
        rng_a = simulate.stream_for(r, 0)
        rng_b = simulate.stream_for(r, 1)
        a = simulate.sample_limit(cfg, rng_a, n=n)[:, 0]
        b = simulate.sample_limit(cfg, rng_b, mirrored=True, n=n)[:, 0]
        if verify.ks_two_sample(a, b).reject:
            rejects += 1
    report(9, rejects <= 5,
           f"{100 - rejects}/100 seeded KS runs accept at 1% (need >= 95)")
