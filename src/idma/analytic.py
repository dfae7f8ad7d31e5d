"""Characteristic functions, covariances, and integrability diagnostics.

Everything here is deterministic numerics for the stationary moving
average X(t) = int f(t - x) Lambda(dx) driven by a centered pure-jump
infinitely divisible random measure with Levy measure nu:

* log-CF of the marginal and of finite-dimensional window integrals,
* the two candidate limit laws for the normalized window integral
  S_T = int_{[0,T]^d + l} X(t) dt as T grows ("claimed" keeps only the
  origin-corner boundary layer; "boundary_augmented" also keeps the
  far-corner layer at s ~ T, which carries an independent copy of the
  same functional); log_cf_limits returns both from one box integral,
  and log_cf_limit picks one of them by name,
* second-order quantities (covariance, its integral, window variance),
* the three absolute-integrability conditions that make the window CF
  formula well defined, reported with quadrature error estimates.

Throughout, f must factor over coordinates (ProductKernel); window
integrals need each component's antiderivative g with g(+-inf) = 0.

Every integral over R^d here (the marginal, window and limit log-CFs and
the three conditions) is one _box_integral of one form,
int outer(sum_j coef_j prod_k phi_k(l_jk, s_k)) ds, with outer = K for
the log-CFs. The per-axis factor phi_k is g_k(T + l - s) - g_k(l - s) for
windows, g_k(l - s) for the limit corner, f_k(s) for the marginal and
|f_k(s)| for the conditions (_profile). The box is the windows
[l, l + T]^d padded by a decay radius and broken at every kernel kink
shifted to both window edges: [-r, r]^d broken at the kinks when l = 0
and T = 0.0. Each of its quadrature rows gets MAX_EVALS evaluations, or
check_conditions' budget. _log_cf_rows runs the three log-CFs at every z
of a grid as the top rows of one engine run; each row keeps the bits of
its single-spec function, because K sums the nodes of each slot id (see
quadrature) as a call of their own, however many share its call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotAvailableError
from .kernels import _normalize_ls, as_product
from .quadrature import _box_rows, integrate_line


@dataclass(frozen=True)
class FddSpec:
    """A finite-dimensional evaluation point: sum_j zs[j] * S over window j.

    ls has shape (m, d): the lower-left corner offsets of the m windows.
    zs has shape (m,): real CF arguments. T is the common window side.
    """

    ls: np.ndarray
    zs: np.ndarray
    T: float

    @property
    def m(self) -> int:
        return self.ls.shape[0]

    @property
    def d(self) -> int:
        return self.ls.shape[1]


def fdd_spec(ls, zs, T) -> FddSpec:
    """Normalize shapes: scalars and flat lists describe d = 1."""
    ls = _normalize_ls(ls)
    zs = np.atleast_1d(np.asarray(zs, dtype=float))
    if zs.shape != (ls.shape[0],):
        raise ValueError(f"need one z per window, got {zs.shape} vs {ls.shape}")
    T = float(T)
    if not (T >= 0.0 and math.isfinite(T)):
        raise ValueError("T must be finite and nonnegative")
    if not (np.all(np.isfinite(ls)) and np.all(np.isfinite(zs))):
        raise ValueError("ls and zs must be finite")
    ls.setflags(write=False)
    zs.setflags(write=False)
    return FddSpec(ls=ls, zs=zs, T=T)


def shift_constant(kernel, measure) -> float:
    """Drift a = (int f) * (int_{|y|<=1} y nu(dy)) that centers the field."""
    return as_product(kernel).integral_f * measure.compensator_integral()


# Evaluation budget of every analytic integral but check_conditions', per
# row of each quadrature level (see integrate_box)
MAX_EVALS = 1_000_000


def _radius(pk, measure, zs, tol):
    # kernel tails only matter once |z| * abs_moment * m * |g| drops below tol
    scale = max(1.0, measure.abs_moment() * len(zs)
                * max(float(np.max(np.abs(zs))), 1e-12))
    return pk.decay_radius(tol / scale)


def _require_g(pk):
    if not pk.has_g:
        raise NotAvailableError(
            "operation needs an antiderivative for every kernel component")


def _window_factor(T):
    return lambda c, l, s: c.g(T + l - s) - c.g(l - s)


def _corner_factor(c, l, s):
    return c.g(l - s)


def _f_factor(c, l, s):
    return c.f(s)


def _abs_f_factor(c, l, s):
    return np.abs(c.f(s))


def _profile(comps, ls, coef, factor, prefix, xs):
    """coef @ prod_k factor(comp_k, ls[:, k], s_k) along the last axis.

    The leading coordinates s_k are the (rows, 1) columns in prefix and the
    last one is the (rows, n) array xs. _window_factor(T) gives J_T
    (coef = zs); _corner_factor the limit profile
    sum_j coef[j] prod_k g_k(l_jk - s_k); _f_factor and _abs_f_factor, with
    one row of ls, coef[0] f(s) and coef[0] |f(s)|.
    """
    for i, x in enumerate(prefix):
        coef = coef * factor(comps[i], ls[:, i], x)
    last = factor(comps[-1], ls[:, -1][:, None], xs[:, None, :])
    return (coef[..., None, :] @ last)[..., 0, :]


def _box_integral(pk, groups, outer, tol, budget=MAX_EVALS):
    """int outer(_profile(..., coef, factor, s)) ds for every row of groups.

    A group (ls, T, rs, coefs, factor) has one row per radius r in rs and
    row of coefs. Its axis k spans the windows [l, l + T] padded by r on
    both sides, broken at every kink of component k shifted to both window
    edges. With one row of zeros in ls and T = 0.0 this is [-r, r]^d broken
    at the kinks: 0.0 + x == x, so the T terms add nothing. Every row of
    every group is a top row of one engine run. Returns each group's values
    and errors and the evaluation count of the run.
    """
    comps = pk.components
    boxes, breaks, first = [], [], [0]
    for ls, T, rs, _, _ in groups:
        lo, hi = ls.min(axis=0).tolist(), ls.max(axis=0).tolist()
        brk = [[e + l + p for e in (0.0, T) for l in ls[:, k] for p in comp.nonsmooth]
               for k, comp in enumerate(comps)]
        boxes += [[(a - r, T + b + r) for a, b in zip(lo, hi)] for r in rs]
        breaks += [brk] * len(rs)
        first.append(len(boxes))
    group = np.repeat(np.arange(len(groups)), np.diff(first))

    def integrand(top, slot, prefix, xs):
        # outer(w, slot) may sum each slot's values as a call of their own
        # (LevyMeasure.exponent)
        w, g = np.empty(xs.shape), group[top]
        for i, (ls, T, rs, coefs, factor) in enumerate(groups):
            sel = (g == i).nonzero()[0]
            if sel.size:
                w[sel] = _profile(comps, ls, coefs[top[sel] - first[i]], factor,
                                  tuple(c[sel] for c in prefix), xs[sel])
        return outer(w, slot)

    v, e, n = _box_rows(integrand, boxes, breaks, tol, budget)
    return [(v[a:b], e[a:b]) for a, b in zip(first, first[1:])], n


def _integrals(pk, measure, parts, tol):
    """int K(_profile(spec.zs, factor)) over [l, l + T]^d for every spec.

    parts lists (specs, T, factor); the specs of a part share their
    windows. Each spec with a nonzero z is one top row of one engine run
    for all parts, and None stands for a spec whose every z is 0. Returns
    one list per part.
    """
    groups, rows = [], []
    for specs, T, factor in parts:
        ls = specs[0].ls if specs else None
        for spec in specs:
            if spec.d != pk.d:
                raise ValueError(f"spec has d={spec.d}, kernel has d={pk.d}")
            if not np.array_equal(spec.ls, ls):
                raise ValueError("batched specs must share their windows")
        rows.append([i for i, spec in enumerate(specs) if np.any(spec.zs)])
        if rows[-1]:
            zss = np.array([specs[i].zs for i in rows[-1]])
            groups.append((ls, T, [_radius(pk, measure, zs, tol) for zs in zss],
                           zss, factor))
    values = iter(_box_integral(pk, groups, measure.exponent(), tol)[0]
                  if groups else ())
    out = []
    for (specs, _, _), live in zip(parts, rows):
        out.append([None] * len(specs))
        for i, v in zip(live, next(values)[0].tolist() if live else ()):
            out[-1][i] = v
    return out


def _log_cf_rows(kernel, measure, zs=(), windows=(), corners=(), *, tol=1e-9):
    """Batched log_cf_stationary, log_cf_window and log_cf_limits.

    Returns the stationary log-CF at every z of zs, the window log-CF at
    every spec of windows (one T) and the (claimed, boundary_augmented)
    pair at every spec of corners, as rows of one engine run. A z of 0
    gives exact zeros. Each row refines, and evaluates K, as it would
    alone, so every value keeps the bits of its single-spec function.
    """
    pk = as_product(kernel)
    if windows or corners:
        _require_g(pk)
    T = windows[0].T if windows else 0.0
    if any(spec.T != T for spec in windows):
        raise ValueError("batched specs must share T")
    zs = [float(z) for z in zs]
    flat = np.zeros((1, pk.d))
    stationary = [FddSpec(flat, np.array([z]), 0.0) for z in zs]
    stat, win, corner = _integrals(pk, measure, [
        (stationary, 0.0, _f_factor), (windows, T, _window_factor(T)),
        (corners, 0.0, _corner_factor)], tol)
    a = shift_constant(pk, measure)
    stat = [0.0 + 0.0j if v is None else complex(-1j * z * a + v)
            for z, v in zip(zs, stat)]
    win = [0.0 + 0.0j if v is None else complex(v) for v in win]
    return stat, win, [_limit_laws(pk, measure, spec, I)
                       for spec, I in zip(corners, corner)]


def _limit_laws(pk, measure, spec, I):
    """(claimed, boundary_augmented) from the far-corner integral I."""
    if I is None:
        return 0.0 + 0.0j, 0.0 + 0.0j
    # int K(H) for the origin corner; + 0j keeps the imaginary part of a
    # real I at +0.0
    origin = I if spec.d % 2 == 0 else I.conjugate() + 0j
    int_h = float(np.sum(spec.zs)) * pk.integral_g
    c_nu = measure.compensator_integral()
    # claimed is the origin layer; boundary_augmented adds the far layer to it
    total, laws = 0.0 + 0.0j, []
    for sign, value in ((float((-1) ** spec.d), origin), (1.0, I)):
        total += -1j * c_nu * (sign * int_h)
        total += value
        laws.append(complex(total))
    return tuple(laws)


def log_cf_stationary(kernel, measure, z, *, tol=1e-9) -> complex:
    """log E exp(izX(0)) = -iza + int K(z f(s)) ds over R^d."""
    return _log_cf_rows(kernel, measure, zs=[z], tol=tol)[0][0]


def j_t(kernel, spec: FddSpec, s) -> float:
    """The exact window CF integrand kernel J_T at a single point s."""
    pk = as_product(kernel)
    _require_g(pk)
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if s.shape != (spec.d,):
        raise ValueError(f"point must have shape ({spec.d},)")
    return float(_profile(pk.components, spec.ls, spec.zs, _window_factor(spec.T),
                          tuple(s[:-1].reshape(-1, 1, 1)), s[-1:, None])[0, 0])


def log_cf_window(kernel, measure, spec: FddSpec, *, tol=1e-9) -> complex:
    """Joint log-CF of window integrals: int (e^{iyJ_T(s)} - 1) ds nu(dy).

    No drift term appears: int J_T = 0 exactly because every g vanishes at
    infinity, so the compensator contribution cancels identically.
    """
    return _log_cf_rows(kernel, measure, windows=[spec], tol=tol)[1][0]


def log_cf_limits(kernel, measure, spec: FddSpec, *, tol=1e-9) -> tuple:
    """Log-CFs (claimed, boundary_augmented) of the two candidate limits.

    "claimed" uses H(s) = (-1)^d sum_j z_j prod_k g_k(l_jk - s_k), the
    origin-corner layer. "boundary_augmented" adds the far-corner layer
    H+(u) = sum_j z_j prod_k g_k(l_jk - u_k), an independent copy living at
    the trailing window edge. Both are integrals against the centered
    measure, so each layer carries the compensator drift -i (int H) c_nu;
    for d = 1 the two drifts cancel exactly in the augmented law. One box
    integral I = int K(H+) serves both layers and both laws: H = (-1)^d H+
    and K(-w) = conj K(w), so int K(H) is I at even d and conj(I) at odd d.
    """
    return _log_cf_rows(kernel, measure, corners=[spec], tol=tol)[2][0]


def log_cf_limit(kernel, measure, spec: FddSpec, variant="claimed", *,
                 tol=1e-9) -> complex:
    """log_cf_limits' "claimed" or "boundary_augmented" law, by name."""
    names = ("claimed", "boundary_augmented")
    if variant not in names:
        raise ValueError(f"unknown variant {variant!r}")
    return log_cf_limits(kernel, measure, spec, tol=tol)[names.index(variant)]


# -- second-order quantities -------------------------------------------------

def covariance(kernel, measure, t) -> float:
    """Cov(X(0), X(t)) = (int y^2 nu) * prod_k int f_k(u) f_k(u + t_k) du."""
    pk = as_product(kernel)
    sm = measure.second_moment()
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.shape != (pk.d,):
        raise ValueError(f"lag must have shape ({pk.d},)")
    return sm * math.prod(k.autocorr_f(t[i]) for i, k in enumerate(pk.components))


def covariance_integral(kernel, measure) -> float:
    """int C(t) dt = (int y^2 nu) * (int f)^2; exactly 0 for derivative kernels."""
    pk = as_product(kernel)
    return measure.second_moment() * pk.integral_f ** 2


def covariance_integral_quadrature(kernel, measure, *, tol=1e-9) -> float:
    """Quadrature cross-check of covariance_integral, component by component."""
    pk = as_product(kernel)
    sm = measure.second_moment()
    out = sm
    for comp in pk.components:
        r = 2.0 * comp.decay_radius(1e-8)
        pts = comp.nonsmooth
        if len(pts) <= 32:
            breaks = tuple(sorted(set(p - q for p in pts for q in pts)))
        else:
            breaks = (0.0,)
        h = lambda ts, _c=comp: np.array([_c.autocorr_f(float(t)) for t in ts])
        out *= integrate_line(h, -r, r, tol, breakpoints=breaks).value
    return out


def variance_window(kernel, measure, T) -> float:
    """Var S_T = (int y^2 nu) * prod_k (2 ||g_k||_2^2 - 2 int g_k g_k(.+T))."""
    pk = as_product(kernel)
    _require_g(pk)
    sm = measure.second_moment()
    T = float(T)
    return sm * math.prod(2.0 * k.l2sq_g - 2.0 * k.autocorr_g(T)
                          for k in pk.components)


def variance_window_quadrature(kernel, measure, T, *, tol=1e-9) -> float:
    """Var S_T by quadrature; works without g.

    A component with g integrates its squared window increment
    (g(T - s) - g(-s))^2 over s. One without g uses
    int (int_{-s}^{T-s} f)^2 ds = 2 int_0^T (T - t) autocorr_f(t) dt,
    which needs no inner quadrature per node.
    """
    pk = as_product(kernel)
    sm = measure.second_moment()
    T = float(T)
    out = sm
    for comp in pk.components:
        if comp.has_g:
            h = lambda ss, _c=comp: np.square(_c.g(T - ss) - _c.g(-ss))
            r = comp.decay_radius(1e-10)
            lo, hi = -r, T + r
            pts = [q for p in comp.nonsmooth for q in (-p, T - p)]
        else:
            h = lambda ts, _c=comp: 2.0 * (T - ts) * np.array(
                [_c.autocorr_f(float(t)) for t in ts])
            lo, hi = 0.0, T
            # autocorr_f has its kinks at the differences of f's kinks
            pts = [abs(p - q) for p in comp.nonsmooth for q in comp.nonsmooth]
        out *= integrate_line(h, lo, hi, tol,
                              breakpoints=tuple(sorted(set(pts)))).value
    return out


# -- integrability diagnostics -----------------------------------------------

@dataclass(frozen=True)
class ConditionsReport:
    """The three absolute-integrability diagnostics and their status.

    c1 bounds the compensator mismatch between big and small jumps, c2 the
    jump count where the kernel is large, c3 the small-jump variance load.
    All three finite is what licenses the window CF formula.
    """

    c1: float
    c2: float
    c3: float
    c1_pass: bool
    c2_pass: bool
    c3_pass: bool
    errors: tuple
    evaluations: int

    @property
    def all_pass(self) -> bool:
        return self.c1_pass and self.c2_pass and self.c3_pass

    def to_dict(self) -> dict:
        return {"c1": self.c1, "c2": self.c2, "c3": self.c3,
                "pass": [self.c1_pass, self.c2_pass, self.c3_pass],
                "errors": list(self.errors), "evaluations": self.evaluations}


def check_conditions(kernel, measure, *, quad_tol=1e-9,
                     budget=2_000_000) -> ConditionsReport:
    """Evaluate the three integrability conditions over R^d.

    The integrands are driven by r(s) = 1/|f(s)| and set to 0 where f
    vanishes (the conditions only constrain s with f(s) != 0), and where
    |f(s)| is so small that r overflows: every integrand tends to 0 there.
    """
    pk = as_product(kernel)
    r = pk.decay_radius(1e-12)

    def masked(fn):
        def vec(af, slots):
            out = np.zeros_like(af)
            with np.errstate(divide="ignore", over="ignore"):
                rr = 1.0 / af
            pos = rr < math.inf
            if np.any(pos):
                out[pos] = fn(rr[pos], af[pos])
            return out
        return vec

    # one engine run each: an outer error estimate sums the inner ones by a
    # matrix-vector product, which rounds a row by the rows that share it
    runs = [_box_integral(pk, [(np.zeros((1, pk.d)), 0.0, [r], np.ones((1, 1)),
                                _abs_f_factor)], masked(fn), quad_tol, budget)
            for fn in (
        lambda rr, af: af * np.abs(
            measure.signed_moment_interval(1.0, np.maximum(rr, 1.0))
            - measure.signed_moment_interval(np.minimum(rr, 1.0), 1.0)),
        lambda rr, af: measure.tail_mass(rr),
        lambda rr, af: af * af * measure.small_jump_variance(rr))]
    values = [float(groups[0][0][0]) for groups, _ in runs]
    return ConditionsReport(
        *values, *(math.isfinite(v) for v in values),
        errors=tuple(float(groups[0][1][0]) for groups, _ in runs),
        evaluations=sum(n for _, n in runs))
