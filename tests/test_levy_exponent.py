"""Levy exponent K(w): power series against independent references, batched
quadrature against per-argument quadrature, and pinned bits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idma.analytic import fdd_spec, log_cf_window
from idma.kernels import signed_ou
from idma.levy import (SERIES_MAX_W, SERIES_W, dickman, inner_truncated_stable,
                       truncated_stable, two_point)
from idma.quadrature import integrate_levy, integrate_line

special = pytest.importorskip("scipy.special")

TOL = 1e-9
# 0, a negative w, and |w| = 200, which no family's first panel resolves
FIXED_WS = [0.0, -3.0, 200.0, -200.0]


def _scalar_k(measure, w):
    """K(w) by one adaptive quadrature per argument."""
    if w == 0.0:
        return 0.0
    if measure.kind != "inner_truncated_stable":
        return integrate_levy(lambda ys: np.exp(1j * w * ys) - 1.0,
                              measure, TOL).value
    alpha, c, delta = measure.alpha, measure.c, measure.delta
    stable_const = math.pi / (2.0 * math.gamma(1.0 + alpha)
                              * math.sin(0.5 * math.pi * alpha))
    q = 2.0 / (2.0 - alpha)
    aw = abs(w)
    head = integrate_line(
        lambda ts: -2.0 * q * np.square(np.sin(0.5 * aw * ts ** q))
                   * ts ** (-1.0 - q * alpha),
        0.0, delta ** (1.0 / q), TOL).value
    return 2.0 * c * (-(aw ** alpha) * stable_const - head)


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


def _stable_half_ref(w):
    """K(w) of truncated_stable(0.5, 1) from scipy's Fresnel integral S.

    Integrating by parts, int_0^1 (cos wy - 1) y^{-3/2} dy
    = 2 (1 - cos w) - 2 sqrt(2 pi |w|) S(sqrt(2 |w| / pi)).
    """
    aw = abs(w)
    s, _ = special.fresnel(math.sqrt(2.0 * aw / math.pi))
    return 2.0 * (4.0 * math.sin(0.5 * aw) ** 2 - 2.0 * math.sqrt(2.0 * math.pi * aw) * s)


# K(w) of truncated_stable(beta, 1) = 2 int_0^1 (cos wy - 1) y^{-1-beta} dy,
# computed with mpmath at 40 digits (quad and the series agree to 1e-30)
SERIES_REF_WS = [1e-8, -3e-3, 0.5, 2.09, 4.0, SERIES_MAX_W, -SERIES_MAX_W]
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
    kfun = truncated_stable(beta, 1.0).exponent(TOL)
    want = np.array(STABLE_REFS[beta] + STABLE_REFS[beta][-1:])
    # the term count follows the largest |w| of a call: check alone and together
    alone = np.array([kfun(np.array([w]))[0] for w in SERIES_REF_WS])
    assert _close(alone, want) and _close(kfun(np.array(SERIES_REF_WS)), want)
    assert np.all(kfun(np.array(SERIES_REF_WS)).imag == 0.0)


def test_series_matches_sici_dickman():
    kfun = dickman().exponent(TOL)
    want = np.array([_dickman_ref(w) for w in SERIES_REF_WS])
    alone = np.array([kfun(np.array([w]))[0] for w in SERIES_REF_WS])
    assert _close(alone, want) and _close(kfun(np.array(SERIES_REF_WS)), want)


def test_series_term_table():
    # n terms serve |w| <= SERIES_W[n-1]
    assert 1 + np.searchsorted(SERIES_W, 2.1) == 11
    assert 1 + np.searchsorted(SERIES_W, SERIES_MAX_W) == len(SERIES_W) == 23
    assert np.all(np.diff(SERIES_W) > 0.0)


MEASURES = [dickman(), truncated_stable(0.5, 1.0), two_point(1.0),
            inner_truncated_stable(1.5, 1.0, 0.01)]
# |w| <= SERIES_MAX_W is summed from the series, which the scalar quadrature
# (off by up to 2e-9 there for truncated_stable) cannot check to 1e-14
SERIES_REFS = {"dickman": _dickman_ref, "truncated_stable": _stable_half_ref}


@pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.kind)
@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(-250.0, 250.0, allow_nan=False), max_size=12))
def test_batched_k_matches_scalar_quadrature(measure, extra):
    ws = np.array(FIXED_WS + extra)
    kfun = measure.exponent(TOL)
    got = kfun(ws)
    assert got.shape == ws.shape
    scale = 1e-14 * np.maximum(1.0, np.abs(got))
    ref = SERIES_REFS.get(measure.kind)
    want = np.array([ref(float(w)) if ref and 0.0 < abs(w) <= SERIES_MAX_W
                     else _scalar_k(measure, float(w)) for w in ws])
    assert np.all(np.abs(got - want) <= scale)
    assert np.all(np.abs(kfun(-ws) - np.conj(got)) <= scale)
    assert np.all(np.real(got) <= 0.0)
    assert got[0] == 0.0


# K(w) at PIN_WS and one log_cf_window value per family, as (real, imag)
# float.hex bits. two_point and inner_truncated_stable date from before the
# families became classes; dickman and truncated_stable were frozen again
# when |w| <= 8 moved to the power series (w = 200 kept its bits)
PIN_WS = [-3.0, 0.5, 7.0, 200.0]
PINS = {
    "dickman": (
        [("-0x1.8e6300cbc5bacp+0", "-0x1.d9414ac56ce9cp+0"),
         ("-0x1.fab239fca6434p-5", "0x1.f8f126a7a3cfap-2"),
         ("-0x1.3924a2c2e6540p+1", "0x1.7460719711610p+0"),
         ("-0x1.7850783adae98p+2", "0x1.9181814716457p+0")],
        ("-0x1.ec1453b3b864dp-2", "-0x1.f43adfd9e33c0p-6")),
    "truncated_stable": (
        [("-0x1.1990b9219f843p+2", "0x0.0p+0"),
         ("-0x1.524d444778a17p-3", "0x0.0p+0"),
         ("-0x1.2416fd9f22928p+3", "0x0.0p+0"),
         ("-0x1.0ba0b05999f91p+6", "0x0.0p+0")],
        ("-0x1.491fbfb082c98p+0", "0x0.0p+0")),
    "two_point": (
        [("-0x1.fd7025f42f2e9p+0", "0x0.0p+0"),
         ("-0x1.f56bfcd241580p-4", "0x0.0p+0"),
         ("-0x1.f8021849b7fa4p-3", "0x0.0p+0"),
         ("-0x1.068f5649a948cp-1", "0x0.0p+0")],
        ("-0x1.e0f5d3a34121ep-1", "0x0.0p+0")),
    "inner_truncated_stable": (
        [("-0x1.f2206aa8b0a56p+3", "0x0.0p+0"),
         ("-0x1.21b2e4498cfd9p+0", "0x0.0p+0"),
         ("-0x1.a0ca1598abca1p+5", "0x0.0p+0"),
         ("-0x1.e733672100cc8p+10", "0x0.0p+0")],
        ("-0x1.00890e053f718p+3", "0x0.0p+0")),
}


def _bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.kind)
def test_exponent_and_window_cf_pinned(measure):
    k_pins, window_pin = PINS[measure.kind]
    assert [_bits(k) for k in measure.exponent(TOL)(np.array(PIN_WS))] == k_pins
    spec = fdd_spec([0.0, 2.0], [0.5, -1.0], 3.0)
    assert _bits(log_cf_window(signed_ou(), measure, spec, tol=1e-8)) == window_pin
