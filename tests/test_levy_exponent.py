"""Batched Levy exponent K(w) against the per-argument scalar quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idma.analytic import _levy_exponent
from idma.levy import dickman, inner_truncated_stable, truncated_stable
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


MEASURES = [dickman(), truncated_stable(0.5, 1.0),
            inner_truncated_stable(1.5, 1.0, 0.01)]


@pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.kind)
@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(-250.0, 250.0, allow_nan=False), max_size=12))
def test_batched_k_matches_scalar_quadrature(measure, extra):
    ws = np.array(FIXED_WS + extra)
    kfun = _levy_exponent(measure, TOL)
    got = kfun(ws)
    assert got.shape == ws.shape
    scale = 1e-14 * np.maximum(1.0, np.abs(got))
    want = np.array([_scalar_k(measure, float(w)) for w in ws])
    assert np.all(np.abs(got - want) <= scale)
    assert np.all(np.abs(kfun(-ws) - np.conj(got)) <= scale)
    assert np.all(np.real(got) <= 0.0)
    assert got[0] == 0.0
