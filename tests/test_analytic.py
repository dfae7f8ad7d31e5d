"""Analytic layer: characteristic functions, covariances, diagnostics.

Closed-form oracle constants used here:

* Cin(1) = int_0^1 (1 - cos u)/u du = 0.23981174200056472594
* stationary log-CF for the signed exponential kernel with unit two-point
  jumps at z = 1 equals -2 Cin(1)
* window variance 2 - 2 e^{-T}(1 + T) for the same pair
* persistent control window variance
  (1-e^{-T})^2/4 + T - 2(1-e^{-T}) + (1-e^{-2T})/4 + T e^{-T}/2
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idma.analytic import (ConditionsReport, FddSpec, _abs_f_factor,
                           _box_integral, _condition_integrands,
                           _corner_factor, _f_factor, _factor, _integrals,
                           _log_cf_rows, _radius, _window_factor, check_conditions,
                           covariance, covariance_integral,
                           covariance_integral_quadrature, fdd_spec, j_t,
                           log_cf_limit, log_cf_limits, log_cf_stationary,
                           log_cf_window, shift_constant, variance_window,
                           variance_window_quadrature)
from idma.errors import NotAvailableError
from idma.kernels import (ProductKernel, as_product, gauss_deriv,
                          persistent_control, signed_ou, user_table)
from idma.levy import dickman, inner_truncated_stable, truncated_stable, two_point
from idma import analytic, quadrature
from idma.quadrature import _box_rows, integrate_line

CIN1 = 0.23981174200056472594
STAT_DICKMAN = -0.24486805759326125       # frozen independent quadrature
WINDOW_DICKMAN_T5 = -0.4699202811441978   # frozen independent quadrature
STAT_ITS = -4.2562282104549063            # frozen 40-digit evaluation


def test_fdd_spec_normalization():
    s = fdd_spec(0.0, 1.0, 2.0)
    assert s.ls.shape == (1, 1) and s.zs.shape == (1,) and s.m == s.d == 1
    s = fdd_spec([0.0, 1.0], [1.0, -1.0], 2.0)
    assert s.ls.shape == (2, 1) and s.m == 2 and s.d == 1
    s = fdd_spec([[0.0, 0.0]], [1.0], 2.0)
    assert s.d == 2
    with pytest.raises(ValueError):
        fdd_spec([0.0, 1.0], [1.0], 2.0)
    with pytest.raises(ValueError):
        fdd_spec(0.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        fdd_spec(0.0, math.nan, 1.0)


def test_shift_constant():
    assert shift_constant(signed_ou(), dickman()) == 0.0
    assert shift_constant(persistent_control(), dickman()) == 1.0
    assert shift_constant(persistent_control(), two_point(1.0)) == 0.0


def test_stationary_cf_two_point():
    v = log_cf_stationary(signed_ou(), two_point(1.0), 1.0)
    assert abs(v - (-2.0 * CIN1)) < 1e-9
    assert log_cf_stationary(signed_ou(), two_point(1.0), 0.0) == 0.0
    # even in z for a symmetric measure
    vm = log_cf_stationary(signed_ou(), two_point(1.0), -1.0)
    assert abs(v - vm) < 1e-12


def test_stationary_cf_dickman():
    v = log_cf_stationary(signed_ou(), dickman(), 1.0)
    assert abs(v.real - STAT_DICKMAN) < 1e-9
    # the kernel's sign flip cancels the asymmetry of the measure
    assert abs(v.imag) < 1e-9


def test_stationary_cf_inner_truncated_stable():
    v = log_cf_stationary(signed_ou(), inner_truncated_stable(1.5, 1.0, 0.01), 1.0)
    assert abs(v.real - STAT_ITS) < 1e-8
    assert abs(v.imag) < 1e-12


def test_window_cf_frozen_values():
    spec = fdd_spec([0.0], [1.0], 40.0)
    w = log_cf_window(signed_ou(), two_point(1.0), spec)
    assert abs(w - 2.0 * (-2.0 * CIN1)) < 1e-9
    w5 = log_cf_window(signed_ou(), dickman(), fdd_spec([0.0], [1.0], 5.0))
    assert abs(w5 - WINDOW_DICKMAN_T5) < 1e-9


def test_window_cf_stationarity_and_joint_marginal():
    k, tp = signed_ou(), two_point(1.0)
    w0 = log_cf_window(k, tp, fdd_spec([0.0], [1.0], 5.0))
    w3 = log_cf_window(k, tp, fdd_spec([3.0], [1.0], 5.0))
    assert abs(w0 - w3) < 1e-12
    joint = log_cf_window(k, tp, fdd_spec([0.0, 2.0], [1.0, 0.0], 5.0))
    assert abs(joint - w0) < 1e-12
    assert log_cf_window(k, tp, fdd_spec([0.0], [0.0], 5.0)) == 0.0


def test_window_cf_needs_g():
    with pytest.raises(NotAvailableError):
        log_cf_window(persistent_control(), two_point(1.0),
                      fdd_spec([0.0], [1.0], 5.0))


def test_limit_variants_two_point():
    k, tp = signed_ou(), two_point(1.0)
    spec = fdd_spec([0.0], [1.0], 0.0)
    lc = log_cf_limit(k, tp, spec, "claimed")
    lb = log_cf_limit(k, tp, spec, "boundary_augmented")
    assert abs(lc - (-2.0 * CIN1)) < 1e-9
    assert abs(lb - (-4.0 * CIN1)) < 1e-9
    # symmetric measure: the far corner contributes an equal log term
    assert abs(lb - 2.0 * lc) < 1e-9
    with pytest.raises(ValueError):
        log_cf_limit(k, tp, spec, "exact")


def test_limit_variants_dickman_drift():
    # claimed keeps a drift; in the augmented variant the two drifts cancel
    # and the remaining K terms pair into a real sum
    k, d = signed_ou(), dickman()
    spec = fdd_spec([0.0], [1.0], 0.0)
    lc = log_cf_limit(k, d, spec, "claimed")
    lb = log_cf_limit(k, d, spec, "boundary_augmented")
    assert abs(lc.imag) > 1e-3
    assert abs(lb.imag) < 1e-9
    assert abs(lb.real - 2.0 * lc.real) < 1e-9


def _limit_two_integrals(kernel, measure, spec, variant, tol):
    # log_cf_limit as one box integral per corner layer, each with its drift
    c_nu = measure.compensator_integral()
    prod_int_g = as_product(kernel).integral_g
    total = 0.0 + 0.0j
    signs = [float((-1) ** spec.d)]
    if variant == "boundary_augmented":
        signs.append(1.0)
    for sign in signs:
        layer = fdd_spec(spec.ls, sign * spec.zs, 0.0)
        int_h = sign * float(np.sum(spec.zs)) * prod_int_g
        total += -1j * c_nu * int_h
        total += _integrals(as_product(kernel), measure,
                            [([layer], 0.0, _corner_factor)], tol)[0][0]
    return complex(total)


@pytest.mark.parametrize("measure", [two_point(1.0), dickman(),
                                     truncated_stable(0.5, 1.0),
                                     inner_truncated_stable(1.5, 1.0, 0.1)],
                         ids=lambda m: type(m).__name__)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_limit_one_corner_integral_matches_two(measure, d):
    # the origin-corner layer is I or conj(I) of the far-corner integral I,
    # bit for bit, in both variants
    pk = ProductKernel((signed_ou(), gauss_deriv(), signed_ou())[:d])
    ls = [[0.0] * d, [0.5] * d] if d < 3 else [[0.0] * d]
    zs = [0.7, -0.3] if d < 3 else [0.7]
    tol = 1e-7 if d < 3 else 1e-4
    spec = fdd_spec(ls, zs, 0.0)
    pair = log_cf_limits(pk, measure, spec, tol=tol)
    for variant, both in zip(("claimed", "boundary_augmented"), pair):
        want = _limit_two_integrals(pk, measure, spec, variant, tol)
        for got in (log_cf_limit(pk, measure, spec, variant, tol=tol), both):
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(),
                                                        want.imag.hex())


def test_covariance_values():
    k, tp = signed_ou(), two_point(1.0)
    assert abs(covariance(k, tp, 0.0) - 1.0) < 1e-14
    assert abs(covariance(k, tp, 2.0) - (-math.exp(-2.0))) < 1e-14
    assert abs(covariance(gauss_deriv(), tp, 1.0)) < 1e-14
    pk = ProductKernel((signed_ou(), signed_ou()))
    got = covariance(pk, tp, [1.0, 2.0])
    assert abs(got - (0.0 * -math.exp(-2.0))) < 1e-14
    with pytest.raises(ValueError):
        covariance(pk, tp, [1.0])


def test_covariance_integral_antipersistent():
    for k in (signed_ou(), gauss_deriv()):
        for m in (two_point(1.0), dickman(), truncated_stable(0.5, 1.0)):
            assert covariance_integral(k, m) == 0.0
            assert abs(covariance_integral_quadrature(k, m)) < 1e-6


def test_covariance_integral_persistent():
    pc, tp = persistent_control(), two_point(1.0)
    assert covariance_integral(pc, tp) == 1.0
    assert abs(covariance_integral_quadrature(pc, tp) - 1.0) < 1e-6


def test_variance_window_curve():
    k, tp = signed_ou(), two_point(1.0)
    for T in (1.0, 2.0, 5.0, 10.0, 20.0):
        want = 2.0 - 2.0 * math.exp(-T) * (1.0 + T)
        assert abs(variance_window(k, tp, T) - want) < 1e-12
        assert abs(variance_window_quadrature(k, tp, T) - want) < 1e-7


def test_variance_window_gauss_deriv_consistency():
    k, tp = gauss_deriv(), two_point(1.0)
    for T in (1.0, 4.0):
        a = variance_window(k, tp, T)
        b = variance_window_quadrature(k, tp, T)
        assert abs(a - b) < 1e-7


def test_table_autocorrelation_quadrature():
    # a table kernel has no closed-form autocorrelations: variance_window
    # integrates autocorr_g and covariance_integral_quadrature autocorr_f
    k, tp = user_table([-1, -0.3, 0.4, 1.2], [0, 1, -0.6, 0]), two_point(1.0)
    for T in (0.5, 2.0, 5.0):
        want = variance_window_quadrature(k, tp, T, tol=1e-12)
        assert abs(variance_window(k, tp, T) - want) < 1e-14
    assert abs(covariance_integral_quadrature(k, tp)) < 1e-10


def test_variance_window_control():
    pc, tp = persistent_control(), two_point(1.0)
    with pytest.raises(NotAvailableError):
        variance_window(pc, tp, 1.0)

    def closed(T):
        return ((1.0 - math.exp(-T)) ** 2 / 4.0 + T - 2.0 * (1.0 - math.exp(-T))
                + (1.0 - math.exp(-2.0 * T)) / 4.0 + 0.5 * T * math.exp(-T))

    for T in (1.0, 5.0, 20.0):
        assert abs(variance_window_quadrature(pc, tp, T) - closed(T)) < 1e-12


def test_j_t_values():
    spec1 = fdd_spec([0.0], [1.0], 1.0)
    got = j_t(signed_ou(), spec1, [0.0])
    assert abs(got - (math.exp(-1.0) - 1.0)) < 1e-14
    pk = ProductKernel((signed_ou(), signed_ou()))
    spec2 = fdd_spec([[0.0, 0.0]], [1.0], 1.0)
    got2 = j_t(pk, spec2, [0.0, 0.0])
    assert abs(got2 - (math.exp(-1.0) - 1.0) ** 2) < 1e-14
    with pytest.raises(ValueError):
        j_t(pk, spec2, [0.0])


def test_conditions_dickman():
    rep = check_conditions(signed_ou(), dickman())
    assert isinstance(rep, ConditionsReport)
    assert abs(rep.c1) < 1e-9
    assert abs(rep.c2) < 1e-9
    assert abs(rep.c3 - 0.5) < 1e-6
    assert rep.all_pass
    assert rep.evaluations > 0
    d = rep.to_dict()
    assert d["pass"] == [True, True, True]


def test_conditions_dickman_2d():
    # d=2 runs on the chain: one table of the inner axis and the outer
    # level; the evaluation counts cover both, and the error estimates add
    # the table's node errors and tail, integrated over the outer axis
    pk = ProductKernel((signed_ou(), signed_ou()))
    rep = check_conditions(pk, dickman(), quad_tol=1e-6)
    assert abs(rep.c1) < 1e-9
    assert abs(rep.c2) < 1e-9
    assert abs(rep.c3 - 0.5) < 1e-6
    assert rep.all_pass
    assert rep.evaluations == 10120
    assert rep.errors[:2] == (0.0, 0.0)
    assert rep.errors[2] == pytest.approx(7.650945743658673e-06, rel=1e-9)


def test_each_axis_spans_its_own_radius():
    # signed_ou x gauss_deriv: spanning both axes by the slowest component's
    # radius, the gauss_deriv axis's first panel saw its bump only at 0 and
    # +-5.6, and both values below came out near zero
    pk, tp = ProductKernel((signed_ou(), gauss_deriv())), two_point(1.0)
    k, f0, f1 = tp.exponent(), signed_ou().f, gauss_deriv().f
    wide = lambda h: _box_rows(lambda top, p, xs: (h(p, xs), None),
                               [[(-40.0, 40.0), (-9.0, 9.0)]],
                               [[[0.0], [-1.0, 0.0, 1.0]]], 1e-11, 1_000_000)[0][0]
    want = wide(lambda p, xs: k(f0(p[0]) * f1(xs)))
    assert want == pytest.approx(-0.613, abs=1e-3)
    assert abs(log_cf_stationary(pk, tp, 1.0) - want) < 1e-8
    # two-point: c3 = int |f|^2 where |f| < 1, all of R^2 here
    c3 = wide(lambda p, xs: (f0(p[0]) * f1(xs)) ** 2)
    assert c3 == pytest.approx(math.sqrt(0.5 * math.pi), abs=1e-9)
    assert abs(check_conditions(pk, tp).c3 - c3) < 1e-8


def test_window_breaks_where_g_kinks():
    # g(T + l - s) - g(l - s) kinks at s = l - p and T + l - p for each kink
    # p of g; the breakpoints l + p and T + l + p, which miss them for this
    # asymmetric table, took 2 772 evaluations to an error of 4.6e-11
    pk = as_product(user_table([-1, -0.3, 0.4, 1.2], [0, 1, -0.6, 0]))
    tp = two_point(1.0)
    T, tol, z = 3.0, 1e-10, np.array([2.0])
    r = [_radius(c, tp, z, tol) for c in pk.components]
    [(v, e)], n = _box_integral(pk, [(np.array([[0.3]]), T, [r], z[None],
                                      _window_factor(T), tp.exponent())], tol)
    assert n == 176 and e[0] < 1e-12
    assert v[0] == log_cf_window(pk, tp, fdd_spec([0.3], z, T), tol=tol)


def test_conditions_two_point():
    rep = check_conditions(signed_ou(), two_point(1.0))
    assert abs(rep.c1) < 1e-9
    assert abs(rep.c2) < 1e-9
    assert abs(rep.c3 - 1.0) < 1e-6
    assert rep.all_pass


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("measure", [two_point(1.0), truncated_stable(0.5, 1.0)],
                         ids=lambda m: m.kind)
def test_claimed_limit_layer_cake_oracle(measure, d):
    # u -> t = sum_k |u_k| pushes du on R^d forward to 2^d t^(d-1)/(d-1)! dt,
    # so for signed_ou^d the claimed limit is a 1-d integral in t; symmetric
    # nu makes K even and the drift vanish
    z, tol = 0.5, 1e-6
    kfun = measure.exponent()
    dens = 2.0 ** d / math.factorial(d - 1)
    want = integrate_line(lambda t: kfun(z * np.exp(-t)) * dens * t ** (d - 1),
                          0.0, np.inf, 1e-13).value
    pk = ProductKernel((signed_ou(),) * d) if d > 1 else signed_ou()
    got = log_cf_limit(pk, measure, fdd_spec([[0.0] * d], [z], 10.0), tol=tol)
    assert abs(got - want) <= tol


def test_dimension_mismatch():
    pk = ProductKernel((signed_ou(), signed_ou()))
    with pytest.raises(ValueError):
        log_cf_window(pk, two_point(1.0), fdd_spec([0.0], [1.0], 1.0))
    with pytest.raises(ValueError):
        log_cf_limit(pk, two_point(1.0), fdd_spec([0.0], [1.0], 0.0))


def test_product_kernel_window_cf_factorizes():
    # separable windows at z common: log CF in d=2 need not factor, but the
    # d=2 profile at a product point is the product of 1-d profiles, checked
    # through j_t above; here the CF must at least be real for symmetric nu
    pk = ProductKernel((signed_ou(), signed_ou()))
    spec = fdd_spec([[0.0, 0.0]], [0.5], 2.0)
    v = log_cf_window(pk, two_point(1.0), spec, tol=1e-7)
    assert abs(v.imag) < 1e-7
    assert v.real < 0.0


# -- invariants across families (hypothesis) ---------------------------------

PROP_MEASURES = (two_point(1.0), dickman(), truncated_stable(0.5, 1.0),
                 inner_truncated_stable(1.5, 1.0, 0.1))
PROP_COMPONENTS = (signed_ou(), gauss_deriv(),
                   user_table([-1.0, -0.3, 0.4, 1.2], [0.0, 1.0, -0.6, 0.0]))


@st.composite
def cf_cases(draw):
    """(measure, d = 1 or 2 product kernel, spec, tol).

    Up to two windows at d = 1 and one at d = 2, where a user_table
    component's kinks at both edges of two windows make one window CF take
    about a second.
    """
    measure = draw(st.sampled_from(PROP_MEASURES))
    d = draw(st.integers(1, 2))
    pk = ProductKernel(tuple(draw(st.sampled_from(PROP_COMPONENTS))
                             for _ in range(d)))
    m = draw(st.integers(1, 3 - d))
    ls = draw(st.lists(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d),
                       min_size=m, max_size=m))
    zs = draw(st.lists(st.floats(-5.0, 5.0), min_size=m, max_size=m))
    T = draw(st.floats(0.5, 5.0))
    return measure, pk, fdd_spec(ls, zs, T), 1e-9 if d == 1 else 1e-6


@settings(max_examples=12, deadline=None, derandomize=True)
@given(cf_cases())
def test_log_cfs_hermitian_and_bounded(case):
    # phi(-z) = conj phi(z) bit for bit, as K(-w) = conj K(w), and |phi| <= 1
    measure, pk, spec, tol = case
    flip = fdd_spec(spec.ls, -spec.zs, spec.T)
    z = float(spec.zs[0])
    pairs = [(log_cf_stationary(pk, measure, z, tol=tol),
              log_cf_stationary(pk, measure, -z, tol=tol)),
             (log_cf_window(pk, measure, spec, tol=tol),
              log_cf_window(pk, measure, flip, tol=tol))]
    pairs += zip(log_cf_limits(pk, measure, spec, tol=tol),
                 log_cf_limits(pk, measure, flip, tol=tol))
    for v, w in pairs:
        assert w == v.conjugate()
        assert v.real <= 0.0


@settings(max_examples=12, deadline=None, derandomize=True)
@given(cf_cases(), st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2))
def test_window_cf_stationary_in_l(case, shift):
    # one common shift of every window leaves the joint law unchanged. At
    # d = 1 the two values agree within tol, as the panel error estimates
    # overstate the error by orders of magnitude. At d = 2 every inner row
    # converges to the whole tol, so each value may miss by tol per unit
    # length of the outer axis plus the outer tol; two differ by twice that
    measure, pk, spec, tol = case
    moved = fdd_spec(spec.ls + shift[:spec.d], spec.zs, spec.T)
    diff = abs(log_cf_window(pk, measure, moved, tol=tol)
               - log_cf_window(pk, measure, spec, tol=tol))
    if spec.d == 1:
        assert diff <= tol
    else:
        outer = (spec.T + float(np.ptp(spec.ls[:, 0]))
                 + 2.0 * _radius(pk, measure, spec.zs, tol))
        assert diff <= 2.0 * tol * (1.0 + outer)


def _hex(values):
    return [(complex(v).real.hex(), complex(v).imag.hex()) for v in values]


# window layouts: one window, two that differ on both axes, and two that
# share axis 1
BATCH_LAYOUTS = {"1": [[0.0, 0.0]], "2": [[0.0, 0.0], [1.0, -0.5]],
                 "2-shared": [[0.0, 0.0], [1.0, 0.0]]}


@pytest.mark.parametrize("layout", BATCH_LAYOUTS)
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("measure", PROP_MEASURES, ids=lambda m: m.kind)
def test_batched_log_cfs_equal_per_z_calls(measure, d, layout):
    # the three laws at every z of a grid are the rows of one engine run
    # per level, and each row refines, tabulates and evaluates K as it
    # would alone, so every bit matches; z = 0 stays an exact zero, and
    # -0.5 and 0.5 share |z| and so their radius
    pk = ProductKernel((signed_ou(), gauss_deriv())[:d])
    ls = [l[:d] for l in BATCH_LAYOUTS[layout]]
    base = np.array([1.0, -0.5][:len(ls)])
    us = [-1.5, 0.0, 0.5, -0.5, 2.0]
    tol = 1e-9 if d == 1 else 1e-4
    windows = [fdd_spec(ls, u * base, 2.0) for u in us]
    corners = [fdd_spec(ls, u * base, 0.0) for u in us]
    stationary, window, limits = _log_cf_rows(pk, measure, us, windows, corners,
                                              tol=tol)
    assert _hex(stationary) == _hex(
        [log_cf_stationary(pk, measure, u, tol=tol) for u in us])
    assert _hex(window) == _hex(
        [log_cf_window(pk, measure, spec, tol=tol) for spec in windows])
    assert [_hex(p) for p in limits] == [
        _hex(log_cf_limits(pk, measure, spec, tol=tol)) for spec in corners]
    assert _hex([stationary[1], window[1], *limits[1]]) == _hex([0j] * 4)
    # one law alone, as verify.cf_convergence runs them
    assert _log_cf_rows(pk, measure, windows=windows, tol=tol)[1] == window


def test_batched_stationary_cfs_keep_bits_at_large_z():
    # on this grid some rows need 16 or more series terms of K, whose sum a
    # shared BLAS product would round differently from a row's own calls
    us = np.linspace(-10.0, 10.0, 60).tolist()
    pk = ProductKernel((signed_ou(),))
    assert _hex(_log_cf_rows(pk, dickman(), us, tol=1e-9)[0]) == _hex(
        [log_cf_stationary(pk, dickman(), u, tol=1e-9) for u in us])


def test_batched_log_cfs_keep_bits_in_chunks(monkeypatch):
    # rows run in chunks of bounded size; one top row per run changes no bit
    pk = ProductKernel((signed_ou(), signed_ou()))
    us = [0.5, -1.0, 2.0]
    windows = [fdd_spec([[0.0, 0.0]], [u], 3.0) for u in us]
    corners = [fdd_spec([[0.0, 0.0]], [u], 0.0) for u in us]
    flat = lambda res: _hex([*res[0], *res[1], *(v for pair in res[2] for v in pair)])
    want = flat(_log_cf_rows(pk, dickman(), us, windows, corners, tol=1e-4))
    monkeypatch.setattr(quadrature, "_MAX_NODES", 1)
    assert flat(_log_cf_rows(pk, dickman(), us, windows, corners, tol=1e-4)) == want


# -- the chain of tabulated 1-d transforms against the box --------------------

def _chain_group(measure, pk, kind, zs, T, ls, tol):
    """The group of a log-CF or condition integral (see _box_integral).

    The stationary log-CF takes zs[0] alone, and the conditions one window.
    """
    if kind in ("c1", "c2", "c3"):
        r = [c.decay_radius(1e-12) for c in pk.components]
        return (np.zeros((1, pk.d)), 0.0, [r], np.ones((1, 1)), _abs_f_factor,
                _condition_integrands(measure)[int(kind[1]) - 1])
    factor = {"window": _window_factor(T), "corner": _corner_factor,
              "stationary": _f_factor}[kind]
    zs = np.atleast_1d(zs)
    if kind == "stationary":
        ls, T, zs = np.zeros((1, pk.d)), 0.0, zs[:1]
    elif kind == "corner":
        T = 0.0
    r = [_radius(c, measure, zs, tol) for c in pk.components]
    return np.asarray(ls, dtype=float), T, [r], zs[None], factor, measure.exponent()


def _on_box(group):
    # the same integrand on the full box: a factor without a finite bound
    # leaves no axis to tabulate
    ls, T, rs, coefs, factor, outer = group
    unbounded = _factor(lambda c: math.inf, factor.sign)(lambda c, l, s: factor(c, l, s))
    return ls, T, rs, coefs, unbounded, outer


@st.composite
def chain_cases(draw):
    """(measure, product kernel, integral, zs, T, windows, tol) at d = 2 or 3.

    One to three windows, with mixed-sign z, share a random nonempty subset
    of the axes, so that every case tabulates at least one axis. d = 3
    keeps to signed_ou and gauss_deriv, as the box needs seconds for a
    user_table component's kinks there, and to a loose tol.
    """
    d, m = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    zs = draw(st.lists(st.floats(-5.0, 5.0).filter(bool), min_size=m, max_size=m))
    T = draw(st.floats(0.5, 5.0))
    shared = draw(st.lists(st.booleans(), min_size=d, max_size=d).filter(any))
    coord = st.floats(-2.0, 2.0)
    base = draw(st.lists(coord, min_size=d, max_size=d))
    ls = [[b if s else draw(coord) for b, s in zip(base, shared)] for _ in range(m)]
    kind = draw(st.sampled_from(["window", "corner", "stationary", "c1", "c2", "c3"]))
    comps = PROP_COMPONENTS if d == 2 else PROP_COMPONENTS[:2]
    pk = ProductKernel(tuple(draw(st.sampled_from(comps)) for _ in range(d)))
    measure = draw(st.sampled_from(PROP_MEASURES))
    return measure, pk, kind, zs, T, ls, 1e-6 if d == 2 else 1e-3


# a one-window table whose node noise holds its last-quarter coefficients
# flat at about 5e-8: their sum stays above the largest node error, each of
# them below it, so the table stops at 48 nodes instead of running the box
STALLED_TABLE = (inner_truncated_stable(1.5, 1.0, 0.1),
                 ProductKernel((signed_ou(), PROP_COMPONENTS[2])), "window", [1.0],
                 0.9876359484216665, [[0.0, 0.0]], 1e-6)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(chain_cases())
@example(STALLED_TABLE)
def test_chain_agrees_with_box(case):
    # the chain's value and the full box's agree within the sum of their
    # error estimates. Every case tabulates an axis, and its tables
    # converge, except where a condition integrand's jump at |f| = 1 lies
    # inside them (prod sup |f_k| > 1), where the row is left to the box
    pk, kind, tol = case[1], case[2], case[-1]
    group, tables = _chain_group(*case), []

    class Recorded(analytic._Table):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analytic, "_Table", Recorded)
        [(v, e)], _ = _box_integral(pk, [group], tol)
    assert tables
    if not all(t.converged.all() for t in tables):
        assert kind in ("c1", "c2", "c3")
        assert math.prod(c.sup_f for c in pk.components) > 1.0
    [(w, f)], _ = _box_integral(pk, [_on_box(group)], tol)
    assert abs(v[0] - w[0]) <= e[0] + f[0]


@pytest.mark.parametrize("axis", [0, 1])
def test_windows_that_share_axes_tabulate_them(axis):
    # two windows that differ on one axis run the box over it and tables
    # over the two they share, for at most twice the evaluations of one
    # window; on the full box they made 375 times as many
    pk, measure, T, tol = ProductKernel((signed_ou(),) * 3), dickman(), 10.0, 1e-6
    far = np.zeros(3)
    far[axis] = 3.0
    groups = [_chain_group(measure, pk, "window", zs, T, ls, tol)
              for ls, zs in (([np.zeros(3)], [0.5]), ([np.zeros(3), far], [0.5, -0.5]))]
    counts = [_box_integral(pk, [group], tol)[1] for group in groups]
    assert counts[1] <= 2 * counts[0]


@pytest.mark.parametrize("measure", PROP_MEASURES, ids=lambda m: m.kind)
def test_chain_error_bounds_distance_to_tight_value(measure):
    # each reported error at tol = 1e-6 bounds the distance to the value at
    # tol = 1e-12 over the same axes
    pk, ls = ProductKernel((signed_ou(), gauss_deriv())), np.array([[0.3, -0.4]])
    groups = [_chain_group(measure, pk, kind, 1.5, 2.0, ls, 1e-6)
              for kind in ("window", "corner", "stationary", "c1", "c2", "c3")]
    loose, _ = _box_integral(pk, groups, 1e-6)
    tight, _ = _box_integral(pk, groups, 1e-12)
    for (v, e), (w, _) in zip(loose, tight):
        assert abs(v[0] - w[0]) <= e[0]


def test_chain_at_subnormal_z():
    # c_min and the table's top underflow; the values stay the box's zeros
    pk, tp, z = ProductKernel((signed_ou(), gauss_deriv())), two_point(1.0), 5e-324
    assert log_cf_stationary(pk, tp, z) == 0j
    assert log_cf_window(pk, tp, fdd_spec([[0.0, 0.0]], [z], 2.0)) == 0j


def test_conditions_one_run_keeps_each_integral_bits():
    # the three conditions as rows of one engine run equal three runs alone,
    # errors included, at d = 1 (box) and d = 2 (chain)
    for pk in (ProductKernel((signed_ou(),)), ProductKernel((signed_ou(), gauss_deriv()))):
        groups = [_chain_group(truncated_stable(0.5, 1.0), pk, kind, 1.0, 0.0, None, 1e-7)
                  for kind in ("c1", "c2", "c3")]
        together, _ = _box_integral(pk, groups, 1e-7)
        for group, (v, e) in zip(groups, together):
            [(w, f)], _ = _box_integral(pk, [group], 1e-7)
            assert (v[0].hex(), e[0].hex()) == (w[0].hex(), f[0].hex())
