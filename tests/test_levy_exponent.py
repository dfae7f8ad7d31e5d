"""Levy exponent K(w): series and closed forms against independent
references, mpmath at 40 digits among them, and pinned bits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idma.analytic import fdd_spec, log_cf_window
from idma.kernels import signed_ou
from idma.levy import (SERIES_MAX_W, SERIES_W, _expint, dickman,
                       inner_truncated_stable, truncated_stable, two_point)

special = pytest.importorskip("scipy.special")
mp = pytest.importorskip("mpmath")

# 0, both sides of the switches to the continued fraction (|w| = 6, and
# |w| delta = 4 for the inner truncated stable), |w| = 200, and two
# arguments near 8 where the former series-to-quadrature switch lost digits
FIXED_WS = [0.0, 3.0, -3.0, 4.0, -4.0, 6.0, -6.0, 200.0, -200.0, 400.0, -401.0,
            7.806316096946432, 7.7578125]


def _mp_k(measure, w):
    """K(w) at 40 digits from mpmath's expint, E_p(z) = int_1^inf e^{-zt} t^{-p} dt.

    Dickman: -E_1(-iw) - ln w - gamma + i pi/2 for w > 0; truncated stable:
    2C (int_0^inf - int_1^inf) (cos wy - 1) y^{-1-beta} dy; inner truncated
    stable: 2c delta^-alpha int_1^inf (cos xt - 1) t^{-1-alpha} dt, x = |w| delta.
    """
    if w == 0.0:
        return 0j
    with mp.workdps(40):
        aw = abs(mp.mpf(w))
        if measure.kind == "dickman":
            k = -mp.expint(1, -1j * aw) - mp.log(aw) - mp.euler + 0.5j * mp.pi
            return complex(k if w > 0.0 else mp.conj(k))
        if measure.kind == "two_point":
            return complex(measure.lam * (mp.cos(aw) - 1))
        if measure.kind == "truncated_stable":
            b = mp.mpf(measure.beta)
            c_b = mp.pi / (2 * mp.gamma(1 + b) * mp.sin(mp.pi * b / 2))
            return complex(2 * mp.mpf(measure.big_c)
                           * (1 / b - aw ** b * c_b - mp.re(mp.expint(1 + b, -1j * aw))))
        a, delta = mp.mpf(measure.alpha), mp.mpf(measure.delta)
        return complex(2 * mp.mpf(measure.c) * delta ** -a
                       * (mp.re(mp.expint(1 + a, -1j * aw * delta)) - 1 / a))


def _rel_err(got, want):
    return np.abs(got - want) / np.maximum(1.0, np.abs(want))


def _dickman_ref(w):
    """-Cin(|w|) + i Si(w) (Abramowitz & Stegun 5.2.1, 5.2.2) from scipy's sici.

    Below |w| = 1e-4, Cin = gamma + ln|w| - Ci(|w|) would cancel to rounding
    noise of size eps * |ln|w||; there Cin(w) = w^2/4 - w^4/96 to rounding.
    """
    si, ci = special.sici(abs(w))
    if abs(w) < 1e-4:
        cin = w * w / 4.0 - w ** 4 / 96.0
    else:
        cin = np.euler_gamma + math.log(abs(w)) - ci
    return complex(-cin, math.copysign(si, w))


# K(w) of truncated_stable(beta, 1) = 2 int_0^1 (cos wy - 1) y^{-1-beta} dy,
# computed with mpmath at 40 digits (quad and the series agree to 1e-30);
# +-8 lie beyond SERIES_MAX_W, so a call with all of them mixes both forms
SERIES_REF_WS = [1e-8, -3e-3, 0.5, 2.09, 4.0, 8.0, -8.0]
STABLE_REFS = {
    0.1: [-5.263157894736842e-17, -4.73684037449427e-06, -0.13025080921335896,
          -1.9283410764475404, -4.5208186079276205, -5.744487562379574],
    0.5: [-6.666666666666667e-17, -5.99999807142894e-06, -0.1651864370642932,
          -2.497549120779047, -6.26184934604565, -9.938214584018679],
    0.9: [-9.090909090909091e-17, -8.181816004399224e-06, -0.22560110286300475,
          -3.5010337760414934, -9.494453482191691, -19.030261695314753],
}


def _close(got, want):
    return np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("beta", sorted(STABLE_REFS))
def test_series_matches_mpmath_truncated_stable(beta):
    kfun = truncated_stable(beta, 1.0).exponent()
    want = np.array(STABLE_REFS[beta] + STABLE_REFS[beta][-1:])
    # K is elementwise: check alone and together
    alone = np.array([kfun(np.array([w]))[0] for w in SERIES_REF_WS])
    assert _close(alone, want) and _close(kfun(np.array(SERIES_REF_WS)), want)
    assert np.all(kfun(np.array(SERIES_REF_WS)).imag == 0.0)


def test_series_matches_sici_dickman():
    kfun = dickman().exponent()
    want = np.array([_dickman_ref(w) for w in SERIES_REF_WS])
    alone = np.array([kfun(np.array([w]))[0] for w in SERIES_REF_WS])
    assert _close(alone, want) and _close(kfun(np.array(SERIES_REF_WS)), want)


def test_series_term_table():
    # n terms serve |w| <= SERIES_W[n-1]
    assert 1 + np.searchsorted(SERIES_W, 2.1) == 11
    assert 1 + np.searchsorted(SERIES_W, SERIES_MAX_W) == len(SERIES_W) == 19
    assert np.all(np.diff(SERIES_W) > 0.0)


MEASURES = [dickman(), truncated_stable(0.5, 1.0), two_point(1.0),
            inner_truncated_stable(1.5, 1.0, 0.01)]


@pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.kind)
@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(-1e4, 1e4, allow_nan=False), max_size=12))
def test_k_matches_mpmath(measure, extra):
    ws = np.array(FIXED_WS + extra)
    kfun = measure.exponent()
    got = kfun(ws)
    assert got.shape == ws.shape
    want = np.array([_mp_k(measure, float(w)) for w in ws])
    assert np.all(_rel_err(got, want) <= 1e-14)
    scale = 1e-14 * np.maximum(1.0, np.abs(got))
    assert np.all(np.abs(kfun(-ws) - np.conj(got)) <= scale)
    assert np.all(np.real(got) <= 0.0)
    assert got[0] == 0.0


# arguments where K used to fail: truncated_stable(0.9, 1) raised
# NonConvergenceError from |w| ~ 955 and alpha = 1.9 from |w| ~ 174, and the
# head quadrature of alpha = 1.99 overflowed. As alpha -> 2 the near form
# -x^alpha c_alpha - (head series) cancels more: on 4000 random x in [2, 4]
# at delta in {0.01, 1}, the error peaked at 6.9e-14 for alpha = 1.9 and
# 4.7e-13 for alpha = 1.99, under the bounds below.
@pytest.mark.parametrize("measure, ws, bound", [
    (truncated_stable(0.9, 1.0), [1e3, -1e3], 1e-14),
    (inner_truncated_stable(1.9, 1.0, 0.01), [1e3, -1e3, 399.0], 2e-13),
    (inner_truncated_stable(1.99, 1.0, 0.01), [0.5, 50.0, 394.4], 2e-12),
], ids=["truncated_stable_0.9", "inner_1.9", "inner_1.99"])
def test_k_where_quadrature_failed(measure, ws, bound):
    got = measure.exponent()(np.array(ws))
    want = np.array([_mp_k(measure, w) for w in ws])
    assert np.all(np.isfinite(got)) and np.all(_rel_err(got, want) <= bound)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.5, 2.99])
def test_expint_matches_mpmath(p):
    # the far forms need orders 1 (dickman), 1 + beta and 1 + alpha
    xs = np.array([4.0 + 1e-12, 4.5, 7.7578125, 60.0, 1e3, 1e5, -5.0])
    got = _expint(p, xs)
    with mp.workdps(40):
        want = np.array([complex(mp.expint(p, -1j * mp.mpf(x))) for x in xs])
    # a few ulps of |E_p|, which falls like 1/|x|
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


# K(w) at PIN_WS and one log_cf_window value per family, as (real, imag)
# float.hex bits. two_point dates from before the families became classes;
# the others were frozen again when K became closed forms at every w. For
# dickman and truncated_stable, w = 7 and 200 moved to the continued
# fraction of _expint; inner_truncated_stable's head series moved its K
# values to within 2 ulp of mpmath (13 ulp before); no window CF moved. When
# every series came to be summed by Horner's rule with all its terms, K at
# 0.5 moved by 1 ulp for dickman (Re) and truncated_stable, and dickman's
# window CF by 1 ulp (Re, 5.6e-17)
PIN_WS = [-3.0, 0.5, 7.0, 200.0]
PINS = {
    "dickman": (
        [("-0x1.8e6300cbc5bacp+0", "-0x1.d9414ac56ce9bp+0"),
         ("-0x1.fab239fca6434p-5", "0x1.f8f126a7a3cfap-2"),
         ("-0x1.3924a2c2e6540p+1", "0x1.7460719711613p+0"),
         ("-0x1.7850783adae95p+2", "0x1.9181814716457p+0")],
        ("-0x1.ec1453b3b864ep-2", "-0x1.f43adfd9e33c0p-6")),
    "truncated_stable": (
        [("-0x1.1990b9219f843p+2", "0x0.0p+0"),
         ("-0x1.524d444778a16p-3", "0x0.0p+0"),
         ("-0x1.2416fd9f22924p+3", "0x0.0p+0"),
         ("-0x1.0ba0b0599a00fp+6", "0x0.0p+0")],
        ("-0x1.491fbfb082c98p+0", "0x0.0p+0")),
    "two_point": (
        [("-0x1.fd7025f42f2e9p+0", "0x0.0p+0"),
         ("-0x1.f56bfcd241580p-4", "0x0.0p+0"),
         ("-0x1.f8021849b7fa4p-3", "0x0.0p+0"),
         ("-0x1.068f5649a948cp-1", "0x0.0p+0")],
        ("-0x1.e0f5d3a34121ep-1", "0x0.0p+0")),
    "inner_truncated_stable": (
        [("-0x1.f2206aa8b0a59p+3", "0x0.0p+0"),
         ("-0x1.21b2e4498cfd9p+0", "0x0.0p+0"),
         ("-0x1.a0ca1598abca5p+5", "0x0.0p+0"),
         ("-0x1.e733672100cd7p+10", "0x0.0p+0")],
        ("-0x1.00890e053f718p+3", "0x0.0p+0")),
}


def _bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.kind)
def test_exponent_and_window_cf_pinned(measure):
    k_pins, window_pin = PINS[measure.kind]
    assert [_bits(k) for k in measure.exponent()(np.array(PIN_WS))] == k_pins
    spec = fdd_spec([0.0, 2.0], [0.5, -1.0], 3.0)
    assert _bits(log_cf_window(signed_ou(), measure, spec, tol=1e-8)) == window_pin


def _words(a):
    return np.array(a, dtype=complex).view(np.uint64).tolist()


@pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.kind)
@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0, allow_nan=False), max_size=40))
def test_exponent_is_elementwise(measure, fractions):
    # K(ws)[i] depends on ws[i] alone: arguments on both sides of the
    # family's reach give the bits of one call each and of the reversed call
    ws = measure._reach * np.array([0.0, 1.0, -1.0, *fractions])
    k = measure.exponent()
    got = _words(k(ws))
    assert got == [w for v in ws for w in _words(k(np.array([v])))]
    assert got == _words(k(ws[::-1])[::-1])
