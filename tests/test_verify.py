"""Verification harness: convergence study, MC consistency, KS, variance growth."""

import math

import numpy as np
import pytest

from idma import verify
from idma.errors import NonConvergenceError
from idma.kernels import persistent_control, signed_ou
from idma.levy import two_point
from idma.simulate import SimConfig
from idma.verify import (cf_convergence, hyperuniformity, ks_two_sample,
                         mc_consistency, variance_se)


def test_cf_convergence_identifies_boundary_variant():
    rep = cf_convergence(signed_ou(), two_point(1.0), ls=[0.0],
                         T_grid=[5.0, 10.0, 20.0], z_grid=[0.5, 1.0, 2.0])
    assert rep.winner == "boundary_augmented"
    assert rep.monotone_boundary and not rep.monotone_claimed
    assert rep.dist_boundary[-1] <= 1e-3 < rep.dist_claimed[-1]
    assert list(rep.dist_boundary) == sorted(rep.dist_boundary, reverse=True)
    assert rep.failed_T == ()
    d = rep.to_dict()
    assert d["winner"] == "boundary_augmented"
    # the fields in declaration order, tuples as lists
    assert list(d) == ["T_grid", "dist_claimed", "dist_boundary", "winner",
                       "monotone_claimed", "monotone_boundary", "threshold",
                       "failed_T"]
    assert d["dist_claimed"] == list(rep.dist_claimed) and d["failed_T"] == []


def test_cf_convergence_lists_failed_T(monkeypatch):
    # the window CFs of one T run as one batch; when it raises, that T is
    # listed and its distances are NaN, and the other T are unaffected
    batch = verify._log_cf_rows

    def failing_at_4(kernel, measure, windows=(), corners=(), *, tol):
        if windows and windows[0].T == 4.0:
            raise NonConvergenceError("budget exhausted", evaluations=22,
                                      error_estimate=1.0)
        return batch(kernel, measure, windows=windows, corners=corners, tol=tol)

    args = (signed_ou(), two_point(1.0), [0.0], [2.0, 4.0, 8.0], [0.5, 1.0])
    want = cf_convergence(*args, tol=1e-7)
    monkeypatch.setattr(verify, "_log_cf_rows", failing_at_4)
    rep = cf_convergence(*args, tol=1e-7)
    assert rep.failed_T == (4.0,)
    assert math.isnan(rep.dist_claimed[1]) and math.isnan(rep.dist_boundary[1])
    assert rep.dist_claimed[::2] == want.dist_claimed[::2]
    assert rep.winner == "inconclusive"


def test_cf_convergence_negative_grid_invariance():
    a = cf_convergence(signed_ou(), two_point(1.0), ls=[0.0],
                       T_grid=[5.0, 10.0, 20.0], z_grid=[0.5, 1.0])
    b = cf_convergence(signed_ou(), two_point(1.0), ls=[0.0],
                       T_grid=[5.0, 10.0, 20.0], z_grid=[-1.0, -0.5, 0.5, 1.0])
    assert a.dist_boundary == b.dist_boundary


def test_cf_convergence_inconclusive_and_errors():
    rep = cf_convergence(signed_ou(), two_point(1.0), ls=[0.0],
                         T_grid=[5.0, 10.0, 20.0], z_grid=[1.0],
                         threshold=1e-13)
    assert rep.winner == "inconclusive"
    with pytest.raises(ValueError):
        cf_convergence(signed_ou(), two_point(1.0), ls=[0.0],
                       T_grid=[10.0, 5.0], z_grid=[1.0])


def test_mc_consistency():
    cfg = SimConfig(measure=two_point(1.0), kernel=signed_ou(), T=5.0,
                    ls=[0.0], eps=0.5, n_replicates=10_000, seed=2)
    rep = mc_consistency(cfg, [0.5, 1.0])
    assert rep.all_pass
    assert rep.cf_dist[0] <= rep.cf_band
    assert abs(rep.var_analytic
               - (2.0 - 2.0 * math.exp(-5.0) * 6.0)) < 1e-9
    d = rep.to_dict()
    assert d["cf_pass"] and d["var_pass"] and d["mean_pass"]


def test_mc_consistency_needs_large_n():
    cfg = SimConfig(measure=two_point(1.0), kernel=signed_ou(), T=5.0,
                    ls=[0.0], eps=0.5, n_replicates=100, seed=2)
    with pytest.raises(ValueError):
        mc_consistency(cfg, [1.0])


def test_variance_se():
    rng = np.random.default_rng(5)
    x = rng.normal(size=40_000)
    # Var(s^2) ~ 2 sigma^4 / n for the normal
    assert variance_se(x) == pytest.approx(math.sqrt(2.0 / 40_000), rel=0.05)


def test_ks_two_sample():
    rng = np.random.default_rng(1)
    a = rng.normal(size=2000)
    b = rng.normal(size=2000)
    same = ks_two_sample(a, b)
    assert not same.reject
    assert same.critical_1pct == pytest.approx(
        1.628 * math.sqrt(4000 / (2000 * 2000)))
    shifted = ks_two_sample(a, b + 1.0)
    assert shifted.reject
    assert shifted.statistic > same.statistic
    with pytest.raises(ValueError):
        ks_two_sample(a[:50], b)
    d = same.to_dict()
    assert d == {"statistic": same.statistic,
                 "critical_1pct": same.critical_1pct, "reject": False}
    assert list(d) == ["statistic", "critical_1pct", "reject"]


def test_hyperuniformity_classifies_flat_curve():
    rep = hyperuniformity(signed_ou(), two_point(1.0), [5.0, 10.0, 20.0],
                          N=2000, seed=0, eps=0.5)
    assert rep.classification == "hyperuniform"
    assert rep.control_slope == pytest.approx(1.0, abs=0.15)
    assert rep.var_analytic[-1] == pytest.approx(2.0, abs=1e-3)
    for v, a, se in zip(rep.var_empirical, rep.var_analytic, rep.var_se):
        assert abs(v - a) < 6.0 * se


def test_hyperuniformity_classifies_growing_curve():
    rep = hyperuniformity(persistent_control(), two_point(1.0),
                          [2.0, 4.0, 8.0], N=300, seed=0, eps=0.5)
    assert rep.classification == "persistent"
    assert rep.var_analytic[-1] > rep.var_analytic[-2] * 1.5


def test_hyperuniformity_validation():
    with pytest.raises(ValueError):
        hyperuniformity(signed_ou(), two_point(1.0), [5.0, 10.0], N=100)
    with pytest.raises(ValueError):
        hyperuniformity(signed_ou(), two_point(1.0), [10.0, 5.0, 20.0], N=100)
