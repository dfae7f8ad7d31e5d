"""Levy exponent K(w): batched against per-argument quadrature, and pinned bits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idma.analytic import fdd_spec, log_cf_window
from idma.kernels import signed_ou
from idma.levy import dickman, inner_truncated_stable, truncated_stable, two_point
from idma.quadrature import integrate_levy, integrate_line

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


MEASURES = [dickman(), truncated_stable(0.5, 1.0), two_point(1.0),
            inner_truncated_stable(1.5, 1.0, 0.01)]


@pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.kind)
@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(-250.0, 250.0, allow_nan=False), max_size=12))
def test_batched_k_matches_scalar_quadrature(measure, extra):
    ws = np.array(FIXED_WS + extra)
    kfun = measure.exponent(TOL)
    got = kfun(ws)
    assert got.shape == ws.shape
    scale = 1e-14 * np.maximum(1.0, np.abs(got))
    want = np.array([_scalar_k(measure, float(w)) for w in ws])
    assert np.all(np.abs(got - want) <= scale)
    assert np.all(np.abs(kfun(-ws) - np.conj(got)) <= scale)
    assert np.all(np.real(got) <= 0.0)
    assert got[0] == 0.0


# K(w) at PIN_WS and one log_cf_window value per family, as (real, imag)
# float.hex bits computed before the families became classes
PIN_WS = [-3.0, 0.5, 7.0, 200.0]
PINS = {
    "dickman": (
        [("-0x1.8e6300cbc5baep+0", "-0x1.d9414ac56ce9ap+0"),
         ("-0x1.fab239fca6417p-5", "0x1.f8f126a7a3cfap-2"),
         ("-0x1.3924a2c2e6540p+1", "0x1.7460719711613p+0"),
         ("-0x1.7850783adae98p+2", "0x1.9181814716457p+0")],
        ("-0x1.ec1453b3b864ap-2", "-0x1.f43adfd9e33c0p-6")),
    "truncated_stable": (
        [("-0x1.1990b9219f2f0p+2", "0x0.0p+0"),
         ("-0x1.524d44477368fp-3", "0x0.0p+0"),
         ("-0x1.2416fd9f222d8p+3", "0x0.0p+0"),
         ("-0x1.0ba0b05999f91p+6", "0x0.0p+0")],
        ("-0x1.491fbfb08121ap+0", "0x0.0p+0")),
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
