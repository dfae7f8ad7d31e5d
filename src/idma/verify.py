"""Verification harness: convergence studies, consistency checks, reports.

The centerpiece is cf_convergence: it measures, on a z-grid, how far the
exact finite-T window CF sits from each candidate limit law ("claimed" and
"boundary_augmented") as T grows, and names a winner only when exactly one
candidate is both below threshold at the largest T and monotonically
improving over the last three T values. Everything else here compares the
simulator against the analytic engine (mc_consistency), tests distributional
identities (ks_two_sample), or summarizes variance growth (hyperuniformity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

# re-exported: callers import log_cf_limits and log_cf_window from here
from .analytic import (_log_cf_rows, fdd_spec, log_cf_limits,  # noqa: F401
                       log_cf_window, variance_window, variance_window_quadrature)
from .errors import NonConvergenceError
from .kernels import ProductKernel, _normalize_ls, as_product, persistent_control
from .simulate import (SimConfig, empirical_cf, monte_carlo,
                       window_integral_sweep)


class _Report:
    """A report whose to_dict lists its fields in order, tuples as lists."""

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in out.items()}


@dataclass(frozen=True)
class ConvergenceReport(_Report):
    T_grid: tuple
    dist_claimed: tuple
    dist_boundary: tuple
    winner: str
    monotone_claimed: bool
    monotone_boundary: bool
    threshold: float
    failed_T: tuple


def _qualifies(dists, threshold):
    ok = [d for d in dists if not math.isnan(d)]
    if len(ok) < 3 or math.isnan(dists[-1]):
        return False, False
    mono = dists[-3] > dists[-2] > dists[-1]
    return mono and dists[-1] <= threshold, mono


def cf_convergence(kernel, measure, ls, T_grid, z_grid, *, zs_base=None,
                   threshold=1e-3, tol=1e-9) -> ConvergenceReport:
    """Sup-distance of the window CF from both candidate limits, per T.

    Each scalar u in z_grid evaluates the joint CF at the argument vector
    u * zs_base (default all-ones), i.e. along a ray of CF arguments; with a
    single l this is just the marginal CF on the grid. By Hermitian symmetry
    phi(-u) = conj(phi(u)), so only |u| matters and the distances are
    invariant under negating the grid.
    """
    pk = as_product(kernel)
    ls = _normalize_ls(ls)
    if zs_base is None:
        zs_base = np.ones(ls.shape[0])
    base = fdd_spec(ls, zs_base, 0.0)
    T_grid = [float(t) for t in T_grid]
    if sorted(T_grid) != T_grid:
        raise ValueError("T_grid must be increasing")
    # np.unique's values, without the numpy.ma import it makes on first use
    us = np.array(sorted({abs(float(z)) for z in z_grid}))

    # one corner integral per |u| gives both limits; every |u| of a law and
    # T is one row of one engine run
    lims = _log_cf_rows(pk, measure, corners=[fdd_spec(base.ls, u * base.zs, 0.0)
                                              for u in us], tol=tol)[2]
    phi_claimed = np.array([np.exp(c) for c, _ in lims])
    phi_boundary = np.array([np.exp(b) for _, b in lims])

    dist_c, dist_b, failed = [], [], []
    for T in T_grid:
        try:
            phi_T = np.array([np.exp(lc) for lc in _log_cf_rows(
                pk, measure, windows=[fdd_spec(base.ls, u * base.zs, T) for u in us],
                tol=tol)[1]])
        except NonConvergenceError:
            failed.append(T)
            dist_c.append(math.nan)
            dist_b.append(math.nan)
            continue
        dist_c.append(float(np.max(np.abs(phi_T - phi_claimed))))
        dist_b.append(float(np.max(np.abs(phi_T - phi_boundary))))

    ok_c, mono_c = _qualifies(dist_c, threshold)
    ok_b, mono_b = _qualifies(dist_b, threshold)
    if ok_c and not ok_b:
        winner = "claimed"
    elif ok_b and not ok_c:
        winner = "boundary_augmented"
    else:
        winner = "inconclusive"
    return ConvergenceReport(
        T_grid=tuple(T_grid), dist_claimed=tuple(dist_c),
        dist_boundary=tuple(dist_b), winner=winner,
        monotone_claimed=mono_c, monotone_boundary=mono_b,
        threshold=float(threshold), failed_T=tuple(failed))


@dataclass(frozen=True)
class McReport(_Report):
    zs: tuple
    cf_dist: tuple          # per l: sup over z of |phi_hat - phi_exact|
    cf_band: float
    var_empirical: tuple
    var_analytic: float
    var_se: tuple
    mean_empirical: tuple
    mean_band: tuple
    cf_pass: bool
    var_pass: bool
    mean_pass: bool

    @property
    def all_pass(self) -> bool:
        return self.cf_pass and self.var_pass and self.mean_pass


def variance_se(samples) -> float:
    """Large-sample standard error of the sample variance."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    xc = x - x.mean()
    v = float(np.mean(xc * xc))
    m4 = float(np.mean(xc ** 4))
    return math.sqrt(max(m4 - v * v, 0.0) / n)


# the empirical CF band of mc_consistency is _MC_BAND_C / sqrt(N)
_MC_BAND_C = 5.0


def mc_consistency(cfg: SimConfig, z_grid) -> McReport:
    """Simulator vs analytic engine: CF on a z-grid, variance, and mean.

    For each window offset l the empirical CF of S must sit within
    _MC_BAND_C/sqrt(N) of exp(log_cf_window), the sample variance within
    4 SE of variance_window, and the sample mean within 4 sqrt(var/N) of
    zero.
    """
    if cfg.n_replicates < 10_000:
        raise ValueError("mc_consistency needs N >= 1e4")
    zs = np.atleast_1d(np.asarray(z_grid, dtype=float))
    res = monte_carlo(cfg)
    exact = np.array([
        [np.exp(lc) for lc in _log_cf_rows(
            cfg.kernel, cfg.measure,
            windows=[fdd_spec(cfg.ls[j], [z], cfg.T) for z in zs])[1]]
        for j in range(cfg.m)])
    band = _MC_BAND_C / math.sqrt(cfg.n_replicates)
    dists, var_emp, ses, means, mean_bands = [], [], [], [], []
    for j in range(cfg.m):
        hat = empirical_cf(res.S[:, j], zs, c=_MC_BAND_C)
        dists.append(float(np.max(np.abs(hat.values - exact[j]))))
        x = res.S[:, j]
        v = float(np.var(x))
        var_emp.append(v)
        ses.append(variance_se(x))
        means.append(float(np.mean(x)))
        mean_bands.append(4.0 * math.sqrt(v / cfg.n_replicates))
    va = variance_window(cfg.kernel, cfg.measure, cfg.T)
    var_pass = all(abs(v - va) <= 4.0 * se for v, se in zip(var_emp, ses))
    return McReport(
        zs=tuple(float(z) for z in zs), cf_dist=tuple(dists), cf_band=band,
        var_empirical=tuple(var_emp), var_analytic=va, var_se=tuple(ses),
        mean_empirical=tuple(means), mean_band=tuple(mean_bands),
        cf_pass=all(d <= band for d in dists), var_pass=var_pass,
        mean_pass=all(abs(mu) <= b for mu, b in zip(means, mean_bands)))


@dataclass(frozen=True)
class KsResult(_Report):
    statistic: float
    critical_1pct: float
    reject: bool


def ks_two_sample(a, b) -> KsResult:
    """Two-sample Kolmogorov-Smirnov with the 1% asymptotic critical value."""
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    n, m = a.size, b.size
    if n < 100 or m < 100:
        raise ValueError("both samples need at least 100 points")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / n
    cdf_b = np.searchsorted(b, pooled, side="right") / m
    stat = float(np.max(np.abs(cdf_a - cdf_b)))
    crit = 1.628 * math.sqrt((n + m) / (n * m))
    return KsResult(statistic=stat, critical_1pct=crit, reject=stat > crit)


@dataclass(frozen=True)
class HyperReport(_Report):
    T_grid: tuple
    var_analytic: tuple
    var_empirical: tuple
    var_se: tuple
    control_var: tuple
    control_slope: float
    classification: str


def hyperuniformity(kernel, measure, T_grid, N, *, seed=0,
                    eps=1e-3, window_pad=None, tol=1e-9) -> HyperReport:
    """Variance growth of window integrals against the persistent control.

    The kernel's variance curve comes from the closed form (or quadrature
    when no antiderivative exists) plus an empirical check with N
    replicates: each draws one cloud on the largest window and evaluates
    every T of the grid on it (window_integral_sweep). The empirical
    columns are correlated across T, and each T keeps its marginal law up
    to the jumps beyond T + pad, whose terms are at most |y| times the
    largest |g| beyond the pad (|y| e^{-pad} for signed_ou). The
    control curve f = e^{-|x|}/2 (tensorized to the kernel's dimension) is
    fitted by least squares to expose its linear growth.
    window_pad pads the simulated window as in SimConfig (None: its
    default from the kernel's decay). tol is the quadrature tolerance of
    every variance curve computed by quadrature.
    Classification is "hyperuniform" when the kernel's curve plateaus (last
    two values within 10%) while the control slope is positive, else
    "persistent".
    """
    pk = as_product(kernel)
    T_grid = [float(t) for t in T_grid]
    if len(T_grid) < 3:
        raise ValueError("need at least 3 T values to classify")
    if sorted(T_grid) != T_grid:
        raise ValueError("T_grid must be increasing")

    if pk.has_g:
        var_a = [variance_window(pk, measure, T) for T in T_grid]
    else:
        var_a = [variance_window_quadrature(pk, measure, T, tol=tol) for T in T_grid]
    cfg = SimConfig(measure=measure, kernel=pk, T=T_grid[-1],
                    ls=np.zeros((1, pk.d)), eps=eps, window_pad=window_pad,
                    n_replicates=N, seed=seed)
    columns = window_integral_sweep(cfg, T_grid)[:, :, 0].T
    var_e = [float(np.var(s)) for s in columns]
    ses = [variance_se(s) for s in columns]

    control = ProductKernel(tuple(persistent_control() for _ in range(pk.d)))
    ctrl_var = [variance_window_quadrature(control, measure, T, tol=tol)
                for T in T_grid]
    slope = float(np.polyfit(T_grid, ctrl_var, 1)[0])

    plateau = abs(var_a[-1] - var_a[-2]) <= 0.1 * abs(var_a[-2])
    classification = "hyperuniform" if (plateau and slope > 0.0) else "persistent"
    return HyperReport(
        T_grid=tuple(T_grid), var_analytic=tuple(var_a),
        var_empirical=tuple(var_e), var_se=tuple(ses),
        control_var=tuple(ctrl_var), control_slope=slope,
        classification=classification)
