"""Characteristic functions, covariances, and integrability diagnostics.

Everything here is deterministic numerics for the stationary moving
average X(t) = int f(t - x) Lambda(dx) driven by a centered pure-jump
infinitely divisible random measure with Levy measure nu:

* log-CF of the marginal and of finite-dimensional window integrals,
* the two candidate limit laws for the normalized window integral
  S_T = int_{[0,T]^d + l} X(t) dt as T grows ("claimed" keeps only the
  origin-corner boundary layer; "boundary_augmented" also keeps the
  far-corner layer at s ~ T, which carries an independent copy of the
  same functional); log_cf_limits returns both from one corner integral,
  and log_cf_limit picks one of them by name,
* second-order quantities (covariance, its integral, window variance),
* the three absolute-integrability conditions that make the window CF
  formula well defined, reported with quadrature error estimates.

Throughout, f must factor over coordinates (ProductKernel); window
integrals need each component's antiderivative g with g(+-inf) = 0.

Every integral over R^d here (the marginal, window and limit log-CFs and
the three conditions) goes through _box_integral, in one form:
int outer(sum_j coef_j prod_k phi_k(l_jk, s_k)) ds, with outer = K for
the log-CFs. The per-axis factor phi_k is g_k(T + l - s) - g_k(l - s) for
windows, g_k(l - s) for the limit corner, f_k(s) for the marginal and
|f_k(s)| for the conditions (_profile). The domain is the windows
[l, l + T]^d, axis k padded by component k's decay radius and broken
where phi_k kinks: at l - p and T + l - p for every kink p of component
k for the g-based factors, which read g_k at l - s, and at p for the
f-based ones, whose domain is [-r_k, r_k] (l = 0, T = 0.0). The axes
on which all windows share l run as a chain of 1-d transforms tabulated
at Chebyshev nodes (_Table), and the other axes, or axis 0 when the
windows share every axis, as a nested box around it; with none left to
tabulate (d = 1, or windows that differ on every axis), and for rows
whose tables do not converge, the box spans all d axes. Each quadrature
row gets MAX_EVALS evaluations, or check_conditions' budget.
_log_cf_rows runs the three log-CFs at every z of a grid as the rows of
one engine run per level; each row keeps the bits of its single-spec
function, because K works element by element and a table is built and
read row by row. The 1-d quadratures of the second-order quantities
(covariance_integral_quadrature, variance_window_quadrature) go through
the same engine: _line_rows runs each component's integral over its own
span and breakpoints as a row of one run at d = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotAvailableError
from .kernels import _normalize_ls, as_product
from .quadrature import _box_rows


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
# row of each quadrature level (see _box_rows)
MAX_EVALS = 1_000_000


def _radius(kernel, measure, zs, tol):
    # kernel tails only matter once |z| * abs_moment * m * |g| drops below tol;
    # a component's radius pads its own axis
    scale = max(1.0, measure.abs_moment() * len(zs)
                * max(float(np.max(np.abs(zs))), 1e-12))
    return kernel.decay_radius(tol / scale)


def _require_g(pk):
    if not pk.has_g:
        raise NotAvailableError(
            "operation needs an antiderivative for every kernel component")


def _factor(sup, sign=1.0):
    """Mark a per-axis factor with sup(c), a bound of |factor| on component
    c, and sign: the factor kinks at s = e + l + sign * p, e in {0, T}, for
    each kink p of c (-1 for a g-based factor, which reads c at e + l - s)."""
    def mark(fn):
        fn.sup, fn.sign = sup, sign
        return fn
    return mark


def _window_factor(T):
    return _factor(lambda c: c.range_g[1] - c.range_g[0], -1.0)(
        lambda c, l, s: c.g(T + l - s) - c.g(l - s))


@_factor(lambda c: max(-c.range_g[0], c.range_g[1]), -1.0)
def _corner_factor(c, l, s):
    return c.g(l - s)


@_factor(lambda c: c.sup_f)
def _f_factor(c, l, s):
    return c.f(s)


@_factor(lambda c: c.sup_f)
def _abs_f_factor(c, l, s):
    return np.abs(c.f(s))


def _profile(comps, ls, coef, factor, prefix, xs):
    """coef @ prod_k factor(comp_k, ls[:, k], s_k) along the last axis.

    The leading coordinates s_k are the (rows, 1) columns in prefix and the
    last one is the (rows, n) array xs. _window_factor(T) gives J_T
    (coef = zs); _corner_factor the limit profile
    sum_j coef[j] prod_k g_k(l_jk - s_k); _f_factor and _abs_f_factor, with
    one row of ls, coef[0] f(s) and coef[0] |f(s)|. One window multiplies;
    + 0.0 turns a -0.0 into the +0.0 of the stacked product, so that both
    give the same bits.
    """
    for i, x in enumerate(prefix):
        coef = coef * factor(comps[i], ls[:, i], x)
    if len(ls) == 1:
        return coef * factor(comps[-1], ls[0, -1], xs) + 0.0
    last = factor(comps[-1], ls[:, -1][:, None], xs[:, None, :])
    return (coef[..., None, :] @ last)[..., 0, :]


def _axes(comps, ls, T, r, sign):
    """Axis ranges and breakpoints of the windows [l, l + T] padded by r.

    Axis k spans the windows padded by r[k] on both sides, broken where the
    factor of mark sign (see _factor) kinks: at e + l + sign * p for every
    kink p of component k and window edge e + l. With one row of zeros in
    ls and T = 0.0 this is [-r, r]^d broken at the kinks: 0.0 + x == x.
    """
    lo, hi = ls.min(axis=0).tolist(), ls.max(axis=0).tolist()
    return ([(a - rk, T + b + rk) for a, b, rk in zip(lo, hi, r)],
            [[e + l + sign * p for e in (0.0, T) for l in ls[:, k]
              for p in comp.nonsmooth] for k, comp in enumerate(comps)])


def _members(g):
    """(label, rows) for every label of the int array g, in label order.

    Labels are found by bincount: np.unique imports numpy.ma on first use,
    which costs a fresh process about 35 ms.
    """
    if g[0] == g.min() == g.max():
        return [(int(g[0]), slice(None))]
    return [(i, (g == i).nonzero()[0]) for i in np.flatnonzero(np.bincount(g)).tolist()]


def _calls(fns, g, w):
    """fns[g[i]](w[i]) for every row i, one call per function."""
    members = [(fns[i], sel) for i, sel in _members(g)]
    if all(fn is members[0][0] for fn, _ in members):
        return members[0][0](w)
    parts = [(sel, fn(w[sel])) for fn, sel in members]
    y = np.empty(w.shape, parts[0][1].dtype)
    for sel, v in parts:
        y[sel] = v
    return y


def _line_rows(fns, spans, breaks, tol):
    """int fns[i] over spans[i], broken at breaks[i], for every i.

    Each integral is a row of one engine run at d = 1 and keeps the bits
    of its lone line integral; fns[i] gets its row's nodes as (rows, 22)
    arrays.
    """
    v, _, _ = _box_rows(lambda top, prefix, xs: (_calls(fns, top, xs), None),
                        [[s] for s in spans], [[b] for b in breaks], tol, MAX_EVALS)
    return v.tolist()


# Chebyshev tables of the chain: the first and the largest node count; the
# smallest tabulated |c| as a share of the largest, per unit of tol; and the
# coefficient tail, per unit of tol, at which a table stops doubling
_CHEB_FIRST, _CHEB_MAX = 48, 192
_CHEB_SPAN = 1e-3
_CHEB_TAIL = 1e-3


def _box_integral(pk, groups, tol, budget=MAX_EVALS):
    """int outer(_profile(..., coef, factor, s)) ds for every row of groups.

    A group (ls, T, rs, coefs, factor, outer) has one row per list r of
    per-axis radii in rs and row of coefs, and spans
    _axes(comps, ls, T, r, factor.sign). Its axes split into D, those on
    which its windows differ (axis 0 when there are none), and S, the rest,
    none when a factor.sup is infinite. The profile is A(s_D) B(s_S), A the
    profile over D and B = prod_{k in S} phi_k(l_k, s_k), so with the axes
    in the order D, S a row's integral is int G_q(A(s_D)) ds_D, q = |D|,
    with G_d = outer and G_p(c) = int G_{p+1}(c phi(s)) ds over the axis at
    position p: a chain of 1-d transforms over S. Each G_p of S is
    tabulated (_Table) on [c_min, c_top], c_top being sum_j |coef_j| times
    the factor.sup of the axes before position p, and all nodes of a
    position, over all rows, are the top rows of one engine run (run). The
    rows of each q are the top rows of one engine run of G_q(A) over D.
    With S empty (d = 1, windows that differ on every axis, or an infinite
    sup) that is the box of all d axes in axis order; a row whose tables do
    not converge joins the box of all d axes, in its order D, S. A table
    returns its error estimate at every argument as the aux of the run
    above it, so a value's error adds the outer error and every table's
    node errors and tail. Returns each group's values and errors and the
    evaluation count of all runs.
    """
    comps, d = pk.components, pk.d
    outers = [grp[5] for grp in groups]
    orders, depth, tops, spans = [], [], [], []
    for ls, T, rs, coefs, factor, _ in groups:
        sup = [factor.sup(c) for c in comps]
        bounded = all(map(math.isfinite, sup))
        ax = [k for k, l in enumerate(ls.T.tolist())
              if min(l) < max(l) or not bounded] or [0]
        depth += [len(ax)] * len(rs)
        ax += [k for k in range(d) if k not in ax]
        orders.append(ax)
        # tops[:, p]: sum_j |coef_j| times the sups of the axes before position p
        tops.append(np.abs(coefs).sum(axis=1)[:, None]
                    * np.cumprod([1.0] + [sup[k] for k in ax[:-1]]))
        for r in rs:
            box, brk = _axes(comps, ls, T, r, factor.sign)
            spans.append(([box[k] for k in ax], [brk[k] for k in ax]))
    ends = np.cumsum([0] + [len(g[2]) for g in groups])
    grp = np.repeat(np.arange(len(groups)), np.diff(ends))
    depth, tops = np.array(depth), np.vstack(tops)
    evals = 0

    def run(rows, pos, cs, inner):
        # rows over the axes at the positions pos of their order, into the
        # table inner or, if None, the group's outer: with the group's
        # windows and coefs, or, given cs, one window and coefficient cs[i]
        nonlocal evals
        g, parts = grp[rows], {}
        for i, _ in _members(g):
            ls, ax = groups[i][0], orders[i][pos]
            parts[i] = [comps[k] for k in ax], (ls if cs is None else ls[:1])[:, ax]

        def integrand(top, prefix, xs):
            w, gt = np.empty(xs.shape), g[top]
            for i, sel in _members(gt):
                coef = (groups[i][3][rows[top[sel]] - ends[i]] if cs is None
                        else cs[top[sel], None])
                w[sel] = _profile(*parts[i], coef, groups[i][4],
                                  tuple(c[sel] for c in prefix), xs[sel])
            return ((_calls(outers, gt, w), None) if inner is None
                    else inner(rows[top], w))

        rl = rows.tolist()
        v, e, n = _box_rows(integrand, [spans[r][0][pos] for r in rl],
                            [spans[r][1][pos] for r in rl], tol, budget)
        evals += n
        return v, e

    live, tables = depth < d, [None] * (d + 1)
    for p in range(d - 1, 0, -1):
        rows = np.flatnonzero(live & (depth <= p))
        if rows.size:
            tables[p] = _Table(lambda rs, cs, p=p, inner=tables[p + 1]:
                               run(rs, slice(p, p + 1), cs, inner),
                               rows, tops[rows, p], tol)
            live[rows[~tables[p].converged]] = False
    depth[~live] = d
    runs = [(rows, *run(rows, slice(0, q), None, tables[q])) for q in range(1, d + 1)
            for rows in [np.flatnonzero(depth == q)] if rows.size]
    values = np.empty(len(grp), np.result_type(*(v for _, v, _ in runs)))
    errors = np.empty(len(grp))
    for rows, v, e in runs:
        values[rows], errors[rows] = v, e
    return [(values[a:b], errors[a:b]) for a, b in zip(ends, ends[1:])], evals


def _cheb_coefs(values):
    """Chebyshev coefficients of the interpolants through each row of values.

    Row i holds F at the extrema x_j = cos(pi j / n), j = 0..n; coefficient
    k is (2 h_k / n) sum_j h_j F(x_j) cos(pi j k / n), h being 1/2 at both
    ends and 1 inside, so that sum_k c_k T_k(x_j) = F(x_j). One product per
    row, as _rule sums panels.
    """
    n = values.shape[1] - 1
    h = np.ones(n + 1)
    h[[0, -1]] = 0.5
    j = np.arange(n + 1)
    m = (2.0 / n) * h[:, None] * h * np.cos(np.pi * (np.outer(j, j) % (2 * n)) / n)
    coef = lambda v: (v[:, None, :] @ m)[:, 0, :]
    if values.dtype.kind == "c":
        return coef(values.real) + 1j * coef(values.imag)
    return coef(values)


def _clenshaw(coef, x):
    """sum_k coef[i, k] T_k(x[i, ...]) for every row i, by Clenshaw's recurrence."""
    b1 = b2 = np.zeros(x.shape, coef.dtype)
    x2 = 2.0 * x
    for k in range(coef.shape[1] - 1, 0, -1):
        b0 = x2 * b1
        b0 -= b2
        b0 += coef[:, k, None]
        b1, b2 = b0, b1
    return x * b1 - b2 + coef[:, :1]


def _interleave(a, b):
    """The columns of a with those of b between them."""
    out = np.empty((len(a), a.shape[1] + b.shape[1]), a.dtype)
    out[:, ::2], out[:, 1::2] = a, b
    return out


class _Table:
    """F(c) tabulated at Chebyshev nodes in t = log c, one row per chain row.

    run(rows, cs) integrates F at the arguments cs of the chain rows rows
    and returns values and errors. Row i tabulates F at the extrema
    x_j = cos(pi j / n) of T_n mapped to t on [log c_min, log c_top[i]],
    where c_min = _CHEB_SPAN * tol * c_top[i]; doubling n keeps every
    node. A row doubles from _CHEB_FIRST until the last quarter of its
    coefficients sums to at most _CHEB_TAIL * tol, or, where the nodes'
    quadrature noise stops their decay, until each of them is at most the
    largest node error; a row still short of that at _CHEB_MAX is not
    converged. Called with chain rows and arguments w, the table returns
    F(w), as F(-c) = conj F(c), and its error estimate: the larger error
    of the two nodes around |w| plus the last quarter's sum. Below c_min
    it returns
    F(c_min) |w| / c_min, and adds 2 |F(c_min)| to the error at c_min,
    both scaled by |w| / c_min.
    """

    def __init__(self, run, rows, tops, tol):
        self.index = np.zeros(int(rows.max()) + 1, dtype=int)
        self.index[rows] = np.arange(len(rows))
        # a top that underflows to 0 still bounds every argument as tiny
        self.hi = np.log(np.maximum(tops, np.finfo(float).tiny))
        self.lo = self.hi + math.log(_CHEB_SPAN * tol)
        self.n, self.tail = np.zeros(len(rows), dtype=int), np.zeros(len(rows))
        self.coef, self.err = {}, {}
        todo, n = np.arange(len(rows)), _CHEB_FIRST
        vals, errs = self._nodes(run, rows, todo, np.arange(n + 1) / n)
        self.low = np.zeros(len(rows), vals.dtype)
        while True:
            a = _cheb_coefs(vals)
            last = np.abs(a[:, 3 * n // 4 + 1:])
            tail = last.sum(axis=1)
            # flat: the last quarter has stopped falling, as in noise
            flat = last[:, n // 8:].max(axis=1) >= 0.25 * last[:, :n // 8].max(axis=1)
            ok = (tail <= _CHEB_TAIL * tol) | (flat & (last.max(axis=1) <= errs.max(axis=1)))
            done = todo[ok]
            self.coef[n] = np.zeros((len(rows), n + 1), a.dtype)
            self.err[n] = np.zeros((len(rows), n + 1))
            self.coef[n][done], self.err[n][done] = a[ok], errs[ok]
            self.n[done], self.tail[done], self.low[done] = n, tail[ok], vals[ok, -1]
            todo, vals, errs = todo[~ok], vals[~ok], errs[~ok]
            if not todo.size or 2 * n > _CHEB_MAX:
                break
            # the nodes of T_2n between those of T_n
            new = self._nodes(run, rows, todo, np.arange(1, 2 * n, 2) / (2 * n))
            vals, errs = (_interleave(old, mid) for old, mid in zip((vals, errs), new))
            n *= 2
        self.converged = self.n > 0

    def _nodes(self, run, rows, todo, fractions):
        # F and its error at x = cos(pi * fractions) of the table rows todo
        x = np.cos(np.pi * fractions)
        t = 0.5 * (self.lo[todo, None] + self.hi[todo, None]
                   + (self.hi[todo, None] - self.lo[todo, None]) * x)
        v, e = run(np.repeat(rows[todo], len(x)), np.exp(t).ravel())
        return v.reshape(t.shape), e.reshape(t.shape)

    def __call__(self, rows, w):
        r = self.index[rows]
        lo, hi = self.lo[r, None], self.hi[r, None]
        aw = np.abs(w)
        with np.errstate(divide="ignore"):
            t = np.log(aw)
        x = (2.0 * t - (lo + hi)) / (hi - lo)
        if (x > 1.0 + 1e-9).any():
            raise ValueError("argument beyond the table; the kernel's sup_f or "
                             "range_g is too narrow")
        below = x < -1.0
        x = np.clip(x, -1.0, 1.0)
        values = np.empty(w.shape, self.low.dtype)
        err = np.empty(w.shape)
        for n, sel in _members(self.n[r]):
            xs, rp = x[sel], r[sel, None]
            values[sel] = _clenshaw(self.coef[n][rp[:, 0]], xs)
            # the nodes around x are j and j + 1, x_j = cos(pi j / n)
            j = np.minimum((np.arccos(xs) * (n / math.pi)).astype(int), n - 1)
            err[sel] = np.maximum(self.err[n][rp, j], self.err[n][rp, j + 1])
        err += self.tail[r, None]
        if below.any():
            # F(c_min) c / c_min, and twice its size added to the error
            scale, low = np.exp(t - lo), self.low[r, None]
            values = np.where(below, low * scale, values)
            err = np.where(below, (err + 2.0 * np.abs(low)) * scale, err)
        neg = w < 0.0
        if neg.any():
            values[neg] = values[neg].conj()
        return values, err


def _integrals(pk, measure, parts, tol):
    """int K(_profile(spec.zs, factor)) over [l, l + T]^d for every spec.

    parts lists (specs, T, factor); the specs of a part share their
    windows. Each spec with a nonzero z is one row of one _box_integral
    for all parts, and None stands for a spec whose every z is 0. Returns
    one list per part.
    """
    groups, rows, kfun = [], [], measure.exponent()
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
            rs = [[_radius(c, measure, zs, tol) for c in pk.components] for zs in zss]
            groups.append((ls, T, rs, zss, factor, kfun))
    values = iter(_box_integral(pk, groups, tol)[0] if groups else ())
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
    pair at every spec of corners, as rows of one engine run per level. A
    z of 0 gives exact zeros. Each row refines, tabulates and evaluates K
    as it would alone, so every value keeps the bits of its single-spec
    function.
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
    """Quadrature cross-check of covariance_integral.

    Each component's int autocorr_f over twice its decay radius, broken at
    the differences of its kinks, is a row of one engine run.
    """
    pk = as_product(kernel)
    spans, breaks = [], []
    for comp in pk.components:
        r = 2.0 * comp.decay_radius(1e-8)
        pts = comp.nonsmooth
        spans.append((-r, r))
        breaks.append([p - q for p in pts for q in pts] if len(pts) <= 32 else [0.0])
    fns = [np.vectorize(c.autocorr_f, otypes=[float]) for c in pk.components]
    return math.prod(_line_rows(fns, spans, breaks, tol), start=measure.second_moment())


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
    which needs no inner quadrature per node. Each component is a row of
    one engine run.
    """
    pk = as_product(kernel)
    T = float(T)
    fns, spans, breaks = [], [], []
    for comp in pk.components:
        if comp.has_g:
            fns.append(lambda ss, _c=comp: np.square(_c.g(T - ss) - _c.g(-ss)))
            r = comp.decay_radius(1e-10)
            spans.append((-r, T + r))
            breaks.append([q for p in comp.nonsmooth for q in (-p, T - p)])
        else:
            acf = np.vectorize(comp.autocorr_f, otypes=[float])
            fns.append(lambda ts, _a=acf: 2.0 * (T - ts) * _a(ts))
            spans.append((0.0, T))
            # autocorr_f has its kinks at the differences of f's kinks
            breaks.append([abs(p - q) for p in comp.nonsmooth for q in comp.nonsmooth])
    return math.prod(_line_rows(fns, spans, breaks, tol), start=measure.second_moment())


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


def _condition_integrands(measure):
    """The three condition integrands as functions of |f(s)| (see check_conditions)."""
    def masked(fn):
        def vec(af):
            out = np.zeros_like(af)
            with np.errstate(divide="ignore", over="ignore"):
                rr = 1.0 / af
            pos = rr < math.inf
            if np.any(pos):
                out[pos] = fn(rr[pos], af[pos])
            return out
        return vec

    return [masked(fn) for fn in (
        lambda rr, af: af * np.abs(
            measure.signed_moment_interval(1.0, np.maximum(rr, 1.0))
            - measure.signed_moment_interval(np.minimum(rr, 1.0), 1.0)),
        lambda rr, af: measure.tail_mass(rr),
        lambda rr, af: af * af * measure.small_jump_variance(rr))]


def check_conditions(kernel, measure, *, quad_tol=1e-9,
                     budget=2_000_000) -> ConditionsReport:
    """Evaluate the three integrability conditions over R^d.

    The integrands are driven by r(s) = 1/|f(s)| and set to 0 where f
    vanishes (the conditions only constrain s with f(s) != 0), and where
    |f(s)| is so small that r overflows: every integrand tends to 0 there.
    The three integrals are the rows of one engine run.
    """
    pk = as_product(kernel)
    r = [c.decay_radius(1e-12) for c in pk.components]
    groups, evals = _box_integral(pk, [
        (np.zeros((1, pk.d)), 0.0, [r], np.ones((1, 1)), _abs_f_factor, outer)
        for outer in _condition_integrands(measure)], quad_tol, budget)
    values = [float(v[0]) for v, _ in groups]
    return ConditionsReport(
        *values, *(math.isfinite(v) for v in values),
        errors=tuple(float(e[0]) for _, e in groups), evaluations=evals)
