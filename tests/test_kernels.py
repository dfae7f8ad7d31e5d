"""Kernels: norms, antiderivative consistency, tables, products, config."""

import math

import numpy as np
import pytest

from idma.errors import ConfigError, NotAvailableError
from idma.kernels import (ProductKernel, as_product, check_derivative,
                          from_config, gauss_deriv, persistent_control,
                          signed_ou, user_table, user_table_from_csv)

RT_HALF_PI = math.sqrt(0.5 * math.pi)


def test_signed_ou_values_and_norms():
    k = signed_ou()
    x = np.array([-2.0, -0.5, 0.5, 2.0])
    np.testing.assert_allclose(k.f(x), -np.sign(x) * np.exp(-np.abs(x)))
    np.testing.assert_allclose(k.g(x), np.exp(-np.abs(x)))
    assert k.norms() == {"l1_f": 2.0, "l2sq_f": 1.0, "l1_g": 2.0, "l2sq_g": 1.0}
    assert k.integral_f == 0.0
    assert k.integral_g == 2.0
    assert k.nonsmooth == (0.0,)


def test_signed_ou_autocorrelations():
    k = signed_ou()
    for t in (0.0, 0.7, 2.5):
        assert abs(k.autocorr_f(t) - math.exp(-t) * (1.0 - t)) < 1e-14
        assert abs(k.autocorr_g(t) - math.exp(-t) * (1.0 + t)) < 1e-14
        assert k.autocorr_f(-t) == k.autocorr_f(t)


def test_gauss_deriv_norms():
    k = gauss_deriv()
    assert abs(k.l2sq_f - RT_HALF_PI) < 1e-15
    assert abs(k.l2sq_g - RT_HALF_PI) < 1e-15
    assert abs(k.l1_g - math.sqrt(math.pi)) < 1e-15
    assert k.l1_f == 2.0
    assert abs(k.autocorr_f(1.0)) < 1e-15          # (1 - t^2) zero at t = 1
    assert abs(k.autocorr_g(1.0) - RT_HALF_PI * math.exp(-0.5)) < 1e-15


@pytest.mark.parametrize("make", [
    signed_ou, gauss_deriv,
    lambda: user_table([-1.5, -0.5, 0.0, 0.75, 2.0], [0.0, 0.8, 1.0, -0.4, 0.0])])
def test_g_out_matches_g(make):
    # g(x, out=buf) fills and returns buf with g(x)'s bits, aliased or not,
    # and leaves x alone when buf is another array; signed_ou's g is
    # exp(-|x|) bit for bit, at ±0, ±inf, NaN and subnormals too
    g = make().g
    rng = np.random.default_rng(0)
    tiny = np.nextafter(0.0, 1.0)
    x = np.concatenate([[-0.0, 0.0, -1.5, 0.75, 2.0, 40.0, -np.inf, np.inf,
                         np.nan, -np.nan, tiny, -tiny, 1e-310, -1e-310,
                         745.5, -745.5],
                        rng.normal(0.0, 2.0, 40)]).reshape(7, 8)
    keep, want = x.copy(), g(x)
    if make is signed_ou:
        assert np.array_equal(want.view(np.int64),
                              np.exp(-np.abs(x)).view(np.int64))
    buf = np.full_like(x, np.nan)
    assert g(x, out=buf) is buf
    assert np.array_equal(buf.view(np.int64), want.view(np.int64))
    assert np.array_equal(x.view(np.int64), keep.view(np.int64))
    assert g(x, out=x) is x
    assert np.array_equal(x.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("make", [
    signed_ou, gauss_deriv, persistent_control,
    lambda: user_table([-1.5, -0.5, 0.0, 0.75, 2.0], [0.0, 0.8, 1.0, -0.4, 0.0])])
def test_bounds_are_sharp(make):
    # sup_f bounds |f| and range_g holds g on the line, and both are reached
    k = make()
    x = np.concatenate([np.linspace(-6.0, 6.0, 120001), [-1e-300, 1e-300]])
    top = float(np.max(np.abs(k.f(x))))
    assert top <= k.sup_f <= top * (1.0 + 1e-9)
    if k.has_g:
        g = k.g(x)
        assert k.range_g == (min(float(g.min()), 0.0), float(g.max()))
    else:
        assert k.range_g == (-math.inf, math.inf)


def test_check_derivative():
    grid = np.linspace(-3.0, 3.0, 121)
    assert check_derivative(signed_ou(), grid) < 1e-9
    assert check_derivative(gauss_deriv(), grid) < 1e-9
    with pytest.raises(NotAvailableError):
        check_derivative(persistent_control(), grid)


def test_check_derivative_skips_kinks():
    # the straddling difference quotient at 0 would be O(1) wrong
    k = signed_ou()
    assert check_derivative(k, np.array([0.0])) == 0.0
    assert check_derivative(k, np.array([0.0, 1.0])) < 1e-9


def test_decay_radius():
    for k in (signed_ou(), gauss_deriv(), persistent_control()):
        r = k.decay_radius(1e-10)
        assert abs(float(k.f(np.array([r]))[0])) <= 1e-10 * (1.0 + 1e-9)
        assert abs(float(k.f(np.array([2.0 * r]))[0])) <= 1e-10


def test_window_increment():
    k = signed_ou()
    assert abs(k.window_increment(-1.0, 2.0)
               - (math.exp(-2.0) - math.exp(-1.0))) < 1e-14
    pc = persistent_control()          # no g, falls back to quadrature
    want = 0.5 * (1.0 - math.exp(-1.0)) + 0.5 * (1.0 - math.exp(-2.0))
    assert abs(pc.window_increment(-1.0, 2.0) - want) < 1e-10
    with pytest.raises(ValueError):
        k.window_increment(2.0, 1.0)


def test_persistent_control_refuses_g():
    pc = persistent_control()
    assert not pc.has_g
    assert pc.integral_f == 1.0
    with pytest.raises(NotAvailableError):
        pc.autocorr_g(1.0)
    assert abs(pc.autocorr_f(1.0) - 0.25 * math.exp(-1.0) * 2.0) < 1e-14


def test_user_table_triangle():
    k = user_table([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    x = np.array([-1.5, -0.5, 0.5, 1.5])
    np.testing.assert_allclose(k.f(x), [0.0, 1.0, -1.0, 0.0])
    np.testing.assert_allclose(k.g(np.array([-0.25, 0.25])), [0.75, 0.75])
    assert k.l1_f == 2.0
    assert k.l2sq_f == 2.0
    assert abs(k.l1_g - 1.0) < 1e-15
    assert abs(k.l2sq_g - 2.0 / 3.0) < 1e-15
    assert k.integral_f == 0.0
    assert abs(k.integral_g - 1.0) < 1e-15
    assert k.decay_radius(1e-12) == 1.0


def test_user_table_sign_crossing_l1():
    k = user_table([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, -1.0, 0.0])
    # middle segment crosses zero; |g| integrates to 2 * (1/2 * 1/2 * 1)
    xs = np.linspace(0.0, 3.0, 20001)
    dense = np.trapezoid(np.abs(k.g(xs)), xs)
    assert abs(k.l1_g - dense) < 1e-6
    assert abs(k.l1_g - 1.5) < 1e-12


def test_user_table_validation():
    with pytest.raises(ConfigError):
        user_table([0.0, 0.0, 1.0], [0.0, 1.0, 0.0])      # not increasing
    with pytest.raises(ConfigError):
        user_table([0.0, 1.0], [0.5, 0.0])                # edge not zero
    with pytest.raises(ConfigError):
        user_table([0.0], [0.0])
    with pytest.raises(ConfigError):
        user_table([0.0, 1.0], [0.0, math.inf])


def test_user_table_from_csv(tmp_path):
    p = tmp_path / "table.csv"
    p.write_text("x,g\n-1.0,0.0\n0.0,2.0\n1.0,0.0\n")
    k = user_table_from_csv(p)
    assert k.kind == "user_table"
    assert float(k.g(np.array([0.0]))[0]) == 2.0
    q = tmp_path / "short.csv"
    q.write_text("x,g\n0.0,0.0\n")
    with pytest.raises(ConfigError):
        user_table_from_csv(q)


def test_product_kernel():
    pk = ProductKernel((signed_ou(), gauss_deriv()))
    assert pk.d == 2
    assert pk.has_g
    assert pk.integral_f == 0.0
    assert abs(pk.integral_g - 2.0 * math.sqrt(math.pi)) < 1e-14
    assert pk.decay_radius(1e-10) == max(
        signed_ou().decay_radius(1e-10), gauss_deriv().decay_radius(1e-10))
    want = (-math.copysign(math.exp(-0.5), 0.5)) * (-2.0 * 0.3 * math.exp(-0.09))
    assert abs(pk.f_point([0.5, 0.3]) - want) < 1e-14
    with pytest.raises(ValueError):
        pk.f_point([0.5])
    with pytest.raises(ConfigError):
        ProductKernel(())
    mixed = ProductKernel((signed_ou(), persistent_control()))
    assert not mixed.has_g
    with pytest.raises(NotAvailableError):
        mixed.integral_g


def test_as_product():
    k = signed_ou()
    pk = as_product(k)
    assert isinstance(pk, ProductKernel) and pk.d == 1
    assert as_product(pk) is pk
    assert as_product([k, k]).d == 2


def test_from_config(tmp_path):
    assert from_config({"kind": "signed_ou"}).kind == "signed_ou"
    assert from_config({"kind": "gauss_deriv"}).kind == "gauss_deriv"
    pk = from_config({"kind": "product", "components": [
        {"kind": "signed_ou"}, {"kind": "signed_ou"}]})
    assert pk.d == 2
    (tmp_path / "t.csv").write_text("-1,0\n0,1\n1,0\n")
    k = from_config({"kind": "user_table", "file": "t.csv"},
                    base_dir=str(tmp_path))
    assert k.kind == "user_table"
    with pytest.raises(ConfigError):
        from_config({"kind": "product", "components": [
            {"kind": "product", "components": [{"kind": "signed_ou"}]}]})
    with pytest.raises(ConfigError):
        from_config({"kind": "signed_ou", "scale": 2.0})
    with pytest.raises(ConfigError):
        from_config({"kind": "spline"})
    with pytest.raises(ConfigError):
        from_config({"kind": "product", "components": []})
