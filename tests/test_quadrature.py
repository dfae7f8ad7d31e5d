"""Quadrature engine: golden integrals, error reporting, measure dispatch."""

import math

import numpy as np
import pytest

from idma.errors import NonConvergenceError
from idma.levy import dickman, inner_truncated_stable, truncated_stable, two_point
from idma.quadrature import integrate_levy, integrate_line, integrate_rows

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


def test_panel_calls_integrand_once():
    sizes = []

    def h(x):
        sizes.append(x.size)
        return np.abs(x - 0.3) ** 1.5

    r = integrate_line(h, 0.0, 1.0, 1e-12)
    assert len(sizes) == r.evaluations / 22 > 1
    assert set(sizes) == {22}


def test_rows_match_per_row_quadrature():
    # w = 1 is accepted on the first panel, w = 40 and -2.5 are refined
    ws = np.array([1.0, 40.0, -2.5])
    h = lambda w, x: np.cos(w * x) * np.exp(-x)
    got = integrate_rows(h, ws, 0.0, 3.0, 1e-10)
    for w, v in zip(ws, got):
        assert v == integrate_line(lambda x: h(w, x), 0.0, 3.0, 1e-10).value
    with pytest.raises(ValueError, match="non-finite"):
        integrate_rows(lambda w, x: np.where(x > 0.5, np.inf, w * x), ws, 0.0, 1.0)


def test_levy_two_point_exact():
    r = integrate_levy(lambda y: y ** 2, two_point(1.5))
    assert r.value == 1.5
    assert r.error_estimate == 0.0


def test_levy_dickman_moments():
    # int y * (1/y) dy = 1 and int y^2 * (1/y) dy = 1/2 on (0,1)
    assert abs(integrate_levy(lambda y: y, dickman()).value - 1.0) < 1e-10
    assert abs(integrate_levy(lambda y: y * y, dickman()).value - 0.5) < 1e-10


def test_levy_truncated_stable_second_moment():
    ts = truncated_stable(0.5, 1.0)
    r = integrate_levy(lambda y: y * y, ts)
    assert abs(r.value - ts.second_moment()) < 1e-9


def test_levy_inner_truncated_stable_vs_scipy():
    si = pytest.importorskip("scipy.integrate")
    its = inner_truncated_stable(1.5, 1.0, 0.01)
    h = lambda y: 1.0 - np.exp(-np.square(y))
    got = integrate_levy(h, its, 1e-8, h_sup=1.0)
    want, _ = si.quad(lambda y: (1.0 - math.exp(-y * y)) * 2.0 * y ** -2.5,
                      0.01, np.inf, limit=500)
    assert abs(got.value - want) < 1e-6
