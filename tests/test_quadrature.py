"""Quadrature engine: golden integrals, error reporting, boxes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idma import kernels
from idma.analytic import _axes
from idma.errors import NonConvergenceError
from idma.quadrature import _box_rows, integrate_line

# entire cosine integral Cin(1) = int_0^1 (1 - cos u)/u du
CIN1 = 0.23981174200056472594


def test_polynomial_exact():
    r = integrate_line(lambda x: x ** 2, 0.0, 1.0)
    assert abs(r.value - 1.0 / 3.0) < 1e-14
    assert r.error_estimate < 1e-12
    assert r.evaluations > 0


def test_kink_with_breakpoint():
    r = integrate_line(lambda x: np.exp(-2.0 * np.abs(x)), -np.inf, np.inf,
                       breakpoints=(0.0,))
    assert abs(r.value - 1.0) < 1e-12


def test_oscillatory_semiinfinite():
    # int_0^inf (cos(e^{-s}) - 1) ds = -Cin(1)
    r = integrate_line(lambda s: np.cos(np.exp(-s)) - 1.0, 0.0, np.inf)
    assert abs(r.value - (-CIN1)) < 1e-12


def test_error_estimate_bounds_true_error():
    for h, a, b, exact in [
            (lambda x: np.sin(x), 0.0, math.pi, 2.0),
            (lambda x: np.exp(-x * x), -np.inf, np.inf, math.sqrt(math.pi))]:
        r = integrate_line(h, a, b, 1e-10)
        assert abs(r.value - exact) <= max(r.error_estimate, 1e-12)


def test_complex_integrand():
    r = integrate_line(lambda x: np.exp(1j * x), 0.0, 1.0)
    want = math.sin(1.0) + 1j * (1.0 - math.cos(1.0))
    assert abs(r.value - want) < 1e-13
    assert isinstance(r.value, complex)


def test_deterministic():
    h = lambda x: np.abs(x - 0.3) ** 1.5
    a = integrate_line(h, 0.0, 1.0, 1e-12)
    b = integrate_line(h, 0.0, 1.0, 1e-12)
    assert a.value == b.value
    assert a.evaluations == b.evaluations


def test_degenerate_and_inverted_interval():
    assert integrate_line(lambda x: x, 2.0, 2.0).value == 0.0
    with pytest.raises(ValueError):
        integrate_line(lambda x: x, 1.0, 0.0)


def test_nonfinite_integrand_rejected():
    with pytest.raises(ValueError):
        integrate_line(lambda x: np.where(x > 0.5, np.inf, x), 0.0, 1.0)


def test_budget_exhaustion():
    h = lambda x: np.abs(x - 1.0 / 3.0)  # kink not resolved in 200 evaluations
    with pytest.raises(NonConvergenceError, match="budget") as info:
        integrate_line(h, 0.0, 1.0, 1e-12, max_evals=200)
    assert info.value.evaluations <= 200
    assert info.value.error_estimate > 0.0


def test_roundoff_floor_fails_fast():
    # 50 eps * int_0^1 |x - 1/3| dx is about 3e-15: 1e-16 is unattainable
    h = lambda x: np.abs(x - 1.0 / 3.0)
    with pytest.raises(NonConvergenceError, match="roundoff floor") as info:
        integrate_line(h, 0.0, 1.0, 1e-16)
    assert info.value.evaluations == 22
    assert info.value.error_estimate > 1e-16
    # below the floor, a tol that the first panel already meets is not refused
    r = integrate_line(lambda x: x * x, 0.0, 1.0, 1e-16)
    assert r.error_estimate <= 1e-16 and abs(r.value - 1.0 / 3.0) < 1e-15
    # above the floor the same kink converges
    assert integrate_line(h, 0.0, 1.0, 1e-13).error_estimate <= 1e-13


def test_width_floor_freezes_panels():
    # the jump at 1000 + 1/3 sits in a panel that bisection cannot narrow
    # below the width floor, 1e-14 of 1001: that panel is frozen, its error
    # set aside, and the run returns an error above tol that still bounds
    # the true one
    jump = 1000.0 + 1.0 / 3.0
    step = lambda x: np.where(x > jump, 1.0, 0.0)
    r = integrate_line(step, 1000.0, 1001.0, 1e-13)
    assert r.evaluations == 1650
    assert r.error_estimate > 1e-13
    assert abs(r.value - (1001.0 - jump)) <= r.error_estimate
    # as one of two rows of a box run it keeps its bits
    both = lambda top, prefix, xs: (np.where(top[:, None] == 0, step(xs), np.sin(xs)), None)
    v, e, _ = _box_rows(both, [[(1000.0, 1001.0)], [(0.0, 3.0)]], [[()], [()]],
                        1e-13, 1_000_000)
    assert v[0] == r.value and e[0] == r.error_estimate


def test_panel_calls_integrand_once():
    # the first call holds the 22 nodes of every initial panel, and each
    # refinement step one call for both halves of the panel it splits
    sizes = []

    def h(x):
        sizes.append(x.size)
        return np.abs(x - 0.3) ** 1.5

    r = integrate_line(h, 0.0, 1.0, 1e-12, breakpoints=(0.25, 0.5))
    assert sizes[0] == 22 * 3
    assert len(sizes) > 2 and set(sizes[1:]) == {44}
    assert sum(sizes) == r.evaluations


def _nested(last_vec, boxes, breaks, tol, count, prefix=()):
    """A one-box _box_rows as one integrate_line per outer node, counting evaluations."""
    k = len(prefix)
    if k == len(boxes) - 1:
        cols = tuple(np.full((1, 1), p) for p in prefix)
        fn = lambda xs: last_vec(cols, xs[None, :])[0]
    else:
        fn = lambda xs: np.array([_nested(last_vec, boxes, breaks, tol, count,
                                          prefix + (x,)).value for x in xs])
    res = integrate_line(fn, *boxes[k], tol, breakpoints=breaks[k])
    count.append(res.evaluations)
    return res


def _tent(prefix, xs):
    # kinks at the breakpoints 0.1 k - 0.3 of each axis k
    w = np.exp(-3.0 * np.abs(xs - 0.1 * len(prefix) + 0.3)) * (1.5 + np.sin(2.0 * xs))
    for k, c in enumerate(prefix):
        w = w * np.exp(-3.0 * np.abs(c - 0.1 * k + 0.3)) * (1.5 + np.sin(2.0 * c))
    return w


# tolerances at which rows refine by different numbers of steps
@pytest.mark.parametrize("kind, d, tol", [
    ("real", 1, 1e-10), ("real", 2, 1e-9), ("real", 3, 3e-8),
    ("complex", 1, 1e-10), ("complex", 2, 1e-9), ("complex", 3, 1e-5)])
def test_box_matches_nested_line_calls(kind, d, tol):
    if kind == "real":
        last_vec = _tent
    else:
        last_vec = lambda prefix, xs: np.exp(1j * _tent(prefix, xs)) - 1.0
    boxes = [(-2.0, 2.5)] * d
    breaks = [(0.1 * k - 0.3,) for k in range(d)]
    count = []
    want = _nested(last_vec, boxes, breaks, tol, count)
    v, e, n = _box_rows(lambda top, prefix, xs: (last_vec(prefix, xs), None),
                        [boxes], [breaks], tol, 1_000_000)
    assert v[0].item() == want.value
    assert type(v[0].item()) is type(want.value)
    # every level's evaluations, and the outer error plus the inner ones
    assert n == sum(count)
    if d == 1:
        assert e[0] == want.error_estimate
    else:
        assert e[0] > want.error_estimate
        assert len(set(count)) > 1


def test_box_rows_never_evaluate_padded_panels():
    # the second top row has fewer initial panels on each axis, so its edge
    # lists are padded with empty panels at its upper ends; those start no
    # inner run and add no evaluations, and each row runs as it would alone
    boxes = [[(-2.0, 2.5)] * 2, [(-1.0, 1.0)] * 2]
    breaks = [[(-0.3,), (-0.2,)], [(), ()]]
    seen = []

    def last_vec(top, prefix, xs):
        seen.extend(a[top == 1].ravel() for a in (prefix[0], xs))
        return _tent(prefix, xs), None

    v, _, n = _box_rows(last_vec, boxes, breaks, 1e-9, 1_000_000)
    alone = [_box_rows(lambda top, prefix, xs: (_tent(prefix, xs), None), [box], [brk],
                       1e-9, 1_000_000) for box, brk in zip(boxes, breaks)]
    assert v.tolist() == [a[0][0] for a in alone]
    assert n == sum(a[2] for a in alone)
    # Gauss nodes never reach a panel's ends, so 1.0 is only ever an empty panel
    assert not np.isin([-1.0, 1.0], np.concatenate(seen)).any()


def test_box_inner_failures_propagate():
    boxes, breaks = [[(0.0, 1.0)] * 2], [[(), ()]]
    nonfinite = lambda top, prefix, xs: (
        np.where((xs > 0.5) & (prefix[0] > 0.4), np.inf, xs), None)
    with pytest.raises(ValueError, match="non-finite"):
        _box_rows(nonfinite, boxes, breaks, 1e-9, 1_000_000)
    # the outer integrand is constant; each inner row has an unresolved kink
    kink = lambda top, prefix, xs: (np.abs(xs - 1.0 / 3.0) + 0.0 * prefix[0], None)
    with pytest.raises(NonConvergenceError, match="roundoff floor"):
        _box_rows(kink, boxes, breaks, 1e-16, 1_000_000)
    with pytest.raises(NonConvergenceError, match="budget"):
        _box_rows(kink, boxes, breaks, 1e-12, 200)


def test_rules_equal_leggauss():
    # the written-out 15- and 7-node rules are numpy's, bit for bit
    from numpy.polynomial.legendre import leggauss
    from idma import quadrature

    for n, nodes, weights in ((15, quadrature._NODES_HI, quadrature._WEIGHTS_HI),
                              (7, quadrature._NODES_LO, quadrature._WEIGHTS_LO)):
        x, w = leggauss(n)
        assert [v.hex() for v in nodes.tolist()] == [v.hex() for v in x.tolist()]
        assert [v.hex() for v in weights.tolist()] == [v.hex() for v in w.tolist()]


def test_box_rows_errors_independent_of_batch():
    # an outer error adds the inner ones by one product per panel, so each
    # row's error keeps its bits however many rows share the run
    boxes = [[(-2.0, 2.5), (-1.0, 1.5)], [(-1.0, 1.0)] * 2, [(0.0, 3.0), (-2.0, 0.5)]]
    breaks = [[(-0.3,), (0.1,)], [(), ()], [(1.0,), ()]]
    last_vec = lambda top, prefix, xs: (_tent(prefix, xs), None)
    v, e, _ = _box_rows(last_vec, boxes, breaks, 1e-10, 1_000_000)
    alone = [_box_rows(last_vec, [box], [brk], 1e-10, 1_000_000)
             for box, brk in zip(boxes, breaks)]
    assert [x.hex() for x in e.tolist()] == [a[1][0].hex() for a in alone]
    assert v.tolist() == [a[0][0] for a in alone]


def _rows_of(fns):
    """A d = 1 _box_rows integrand that gives row i to fns[i]."""
    def last_vec(top, prefix, xs):
        parts = [(top == i, fn(xs[top == i])) for i, fn in enumerate(fns)]
        y = np.empty(xs.shape, np.result_type(*(v for _, v in parts)))
        for sel, v in parts:
            y[sel] = v
        return y, None
    return last_vec


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_line_rows_match_lone_integrate_line(kind):
    # rows of different spans and breakpoints, one of zero width, refine in
    # one d = 1 run exactly as each integrate_line alone
    fns = [lambda x: np.abs(x - 0.3) ** 1.5, lambda x: np.exp(-2.0 * np.abs(x - 1.0)),
           lambda x: np.sin(3.0 * x), lambda x: x * x]
    if kind == "complex":
        fns = [lambda x, f=f: np.exp(1j * f(x)) - 1.0 for f in fns]
    spans = [(0.0, 1.0), (-4.0, 6.0), (-1.0, 2.5), (2.0, 2.0)]
    breaks = [(0.3,), (1.0, 1.0 + 1e-15), (), (2.0,)]
    v, e, n = _box_rows(_rows_of(fns), [[s] for s in spans], [[b] for b in breaks],
                        1e-12, 1_000_000)
    lone = [integrate_line(f, *s, 1e-12, breakpoints=b)
            for f, s, b in zip(fns, spans, breaks)]
    assert [x.item() for x in v] == [r.value for r in lone]
    assert [x.hex() for x in e.tolist()] == [r.error_estimate.hex() for r in lone]
    assert n == sum(r.evaluations for r in lone)
    assert lone[-1].value == 0.0 and lone[-1].evaluations == 0


def test_infinite_endpoints_map_to_radius():
    h = lambda x: np.exp(-np.abs(x)) * np.cos(x)
    a = integrate_line(h, -np.inf, np.inf, 1e-10, breakpoints=(0.0,), radius=7.5)
    b = integrate_line(h, -7.5, 7.5, 1e-10, breakpoints=(0.0,))
    assert (a.value, a.error_estimate, a.evaluations) == (b.value, b.error_estimate,
                                                          b.evaluations)


_J_KERNELS = [kernels.signed_ou(), kernels.gauss_deriv(),
              kernels.user_table([-1.5, -0.5, 0.0, 0.75, 2.0], [0.0, 0.8, 1.0, -0.4, 0.0])]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.floats(0.0, 40.0), st.floats(-5.0, 5.0))
def test_window_increment_integrates_to_zero(T, l):
    # int J_T ds = int g(T + l - s) - g(l - s) ds = 0 for every g vanishing
    # at infinity: each kernel is a row of one run over _axes' padded span
    spans, breaks = [], []
    for k in _J_KERNELS:
        box, brk = _axes([k], np.array([[l]]), T, [k.decay_radius(1e-15)], -1.0)
        spans.append(box)
        breaks.append(brk)
    fns = [lambda s, k=k: k.g(T + l - s) - k.g(l - s) for k in _J_KERNELS]
    v, e, _ = _box_rows(_rows_of(fns), spans, breaks, 1e-10, 1_000_000)
    assert (np.abs(v) <= e + 1e-12).all(), (v, e)
