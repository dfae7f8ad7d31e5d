"""Levy measure families: moments, tails, quantile sampling, config parsing."""

import math

import numpy as np
import pytest

from idma.errors import ConfigError, DivergentMomentError, EmptyTruncationError
from idma.levy import (dickman, from_config, inner_truncated_stable,
                       truncated_stable, two_point)


def test_dickman_moments():
    d = dickman()
    assert d.abs_moment() == 1.0
    assert d.second_moment() == 0.5
    assert d.compensator_integral() == 1.0
    assert not d.symmetric
    assert d.support_bound == 1.0
    assert abs(d.tail_mass(0.01) - math.log(100.0)) < 1e-12
    assert d.tail_mass(1.0) == 0.0
    assert abs(d.small_jump_variance(0.1) - 0.005) < 1e-15
    assert d.small_jump_variance(2.0) == 0.5


def test_truncated_stable_moments():
    ts = truncated_stable(0.5, 1.0)
    assert ts.abs_moment() == 4.0
    assert abs(ts.second_moment() - 4.0 / 3.0) < 1e-15
    assert ts.compensator_integral() == 0.0
    assert ts.symmetric
    assert abs(ts.tail_mass(0.25) - 4.0) < 1e-12
    assert ts.tail_mass(1.0) == 0.0
    assert abs(ts.small_jump_variance(0.1) - 0.0421637021355784) < 1e-14


def test_two_point_moments():
    tp = two_point(1.5)
    assert tp.abs_moment() == 1.5
    assert tp.second_moment() == 1.5
    assert tp.tail_mass(0.5) == 1.5
    assert tp.tail_mass(1.0) == 1.5
    assert tp.tail_mass(1.5) == 0.0
    assert tp.small_jump_variance(0.5) == 0.0
    assert tp.small_jump_variance(2.0) == 1.5


def test_inner_truncated_stable_moments():
    its = inner_truncated_stable(1.5, 1.0, 0.01)
    assert abs(its.abs_moment() - 40.0) < 1e-10
    assert its.support_bound == math.inf
    with pytest.raises(DivergentMomentError):
        its.second_moment()
    with pytest.raises(DivergentMomentError):
        its.small_jump_variance(np.inf)
    # below delta the tail is the whole measure
    assert its.tail_mass(0.001) == its.tail_mass(0.01)
    ex = 0.5
    want = 2.0 * (0.02 ** ex - 0.01 ** ex) / ex
    assert abs(its.small_jump_variance(0.02) - want) < 1e-14


def test_signed_moment_interval():
    d = dickman()
    assert abs(d.signed_moment_interval(0.2, 0.7) - 0.5) < 1e-15
    assert d.signed_moment_interval(0.5, 2.0) == 0.5
    assert d.signed_moment_interval(1.5, 2.0) == 0.0
    out = d.signed_moment_interval([0.0, 0.5], [1.0, 1.0])
    np.testing.assert_allclose(out, [1.0, 0.5])
    for m in (truncated_stable(0.3, 2.0), two_point(1.0),
              inner_truncated_stable(1.2, 1.0, 0.5)):
        assert m.signed_moment_interval(0.1, 3.0) == 0.0


def test_tail_mass_vectorized_and_guarded():
    ts = truncated_stable(0.5, 1.0)
    out = ts.tail_mass(np.array([0.25, 0.5, 2.0]))
    np.testing.assert_allclose(out, [4.0, 4.0 * (2.0 ** 0.5 - 1.0), 0.0])
    with pytest.raises(ValueError):
        ts.tail_mass(0.0)


def test_quantile_matches_tail_ratio():
    # inverse-CDF property: P(|Y| >= q) = 1 - v at magnitude quantile v
    # (for the symmetric families v sits folded at u = 0.5 + v/2)
    for m, eps in [(dickman(), 0.01), (truncated_stable(0.5, 1.0), 0.04),
                   (inner_truncated_stable(1.5, 1.0, 0.01), 0.02)]:
        total = m.tail_mass(eps)
        for v in (0.1, 0.5, 0.9):
            u = 0.5 + 0.5 * v if m.symmetric else v
            q = abs(float(m.jump_quantile(u, eps)))
            assert abs(m.tail_mass(q) / total - (1.0 - v)) < 1e-12


def test_quantile_edges_and_errors():
    d = dickman()
    assert d.jump_quantile(0.0, 0.01) == 0.01
    assert abs(float(d.jump_quantile(0.5, 0.01)) - 0.1) < 1e-15
    with pytest.raises(ValueError):
        d.jump_quantile(0.5, 0.0)
    with pytest.raises(ValueError):
        d.jump_quantile(1.0, 0.01)
    with pytest.raises(EmptyTruncationError):
        two_point(1.0).jump_quantile(0.5, 2.0)
    np.testing.assert_array_equal(
        two_point(1.0).jump_quantile(np.array([0.2, 0.8]), 0.5), [-1.0, 1.0])


# jump_quantile(u, eps) at u = 0.3 and 0.8 as float.hex, frozen from the
# out-of-place quantiles that preceded the in-place ones (there a scalar took
# numpy's scalar power, which can differ by an ulp from the array power; at
# these points the two agree)
QUANTILE_PINS = [
    (dickman(), 0.01, ["0x1.46211ff90ea2ap-5", "0x1.97a967f7524b4p-2"]),
    (truncated_stable(0.5, 1.0), 0.04,
     ["-0x1.6253443526171p-4", "0x1.2ef5657dba51ep-3"]),
    (two_point(1.0), 0.5, ["-0x1.0000000000000p+0", "0x1.0000000000000p+0"]),
    (inner_truncated_stable(1.5, 1.0, 0.01), 0.02,
     ["-0x1.cca06ef2e0cdap-6", "0x1.2dcbbd814f685p-5"]),
]


@pytest.mark.parametrize("m, eps, want", QUANTILE_PINS,
                         ids=[m.kind for m, _, _ in QUANTILE_PINS])
def test_jump_quantile_contract(m, eps, want):
    # a scalar gives a numpy float64 with the pinned bits, as does the same
    # u in an array
    for u, w in zip((0.3, 0.8), want):
        q = m.jump_quantile(u, eps)
        assert type(q) is np.float64 and q.hex() == w
    # an array result has the scalar bits, and the caller's array, a
    # read-only one included, is left as it was
    u = np.array([[0.3, 0.8], [0.8, 0.3]])
    ro = u.copy()
    ro.flags.writeable = False
    for arr in (u, ro):
        got = m.jump_quantile(arr, eps)
        assert np.array_equal(arr, [[0.3, 0.8], [0.8, 0.3]])
        assert [[v.hex() for v in row] for row in got.tolist()] == [want, want[::-1]]
    assert [v.hex() for v in m.jump_quantile([0.3, 0.8], eps).tolist()] == want
    for bad in (math.nan, 1.0, -0.1, [0.5, math.nan], [0.2, 1.0]):
        with pytest.raises(ValueError, match="u must lie"):
            m.jump_quantile(bad, eps)
    empty = m.jump_quantile(np.empty(0), eps)
    assert empty.shape == (0,) and empty.dtype == np.float64


def test_sample_jump_sizes_ranges():
    rng = np.random.default_rng(7)
    ys = dickman().sample_jump_sizes(0.05, 2000, rng)
    assert ys.shape == (2000,)
    assert np.all((ys >= 0.05) & (ys <= 1.0))
    ys = truncated_stable(0.5, 1.0).sample_jump_sizes(0.1, 2000, rng)
    assert np.all((np.abs(ys) >= 0.1) & (np.abs(ys) <= 1.0))
    # symmetric: sign balance within 4 sigma
    assert abs(np.mean(np.sign(ys))) < 4.0 / math.sqrt(2000)
    ys = inner_truncated_stable(1.5, 1.0, 0.01).sample_jump_sizes(0.02, 500, rng)
    assert np.all(np.abs(ys) >= 0.02)


def test_constructor_validation():
    with pytest.raises(ConfigError):
        truncated_stable(1.2, 1.0)
    with pytest.raises(ConfigError):
        truncated_stable(0.5, -1.0)
    with pytest.raises(ConfigError):
        two_point(0.0)
    with pytest.raises(ConfigError):
        inner_truncated_stable(2.5, 1.0, 0.01)
    with pytest.raises(ConfigError):
        inner_truncated_stable(1.5, 1.0, 0.0)
    # every parameter must be a finite number, never a bool
    for bad in (math.nan, math.inf, -math.inf, True, "1.0", None):
        with pytest.raises(ConfigError, match="finite number"):
            two_point(bad)
        with pytest.raises(ConfigError, match="finite number"):
            truncated_stable(0.5, bad)
        with pytest.raises(ConfigError, match="finite number"):
            inner_truncated_stable(1.5, 1.0, bad)
        with pytest.raises(ConfigError, match="'lambda' must be a finite number"):
            from_config({"kind": "two_point", "lambda": bad})


def test_from_config():
    assert from_config({"kind": "dickman"}) == dickman()
    assert from_config({"kind": "dickman"}).kind == "dickman"
    ts = from_config({"kind": "truncated_stable", "beta": 0.5, "C": 2.0})
    assert ts == truncated_stable(0.5, 2.0)
    assert ts.beta == 0.5 and ts.big_c == 2.0
    tp = from_config({"kind": "two_point", "lambda": 3})
    assert tp == two_point(3.0) and tp.lam == 3.0
    its = from_config({"kind": "inner_truncated_stable", "alpha": 1.5,
                       "c": 1.0, "delta": 0.01})
    assert its == inner_truncated_stable(1.5, 1.0, 0.01)
    assert its.alpha == 1.5 and its.c == 1.0 and its.delta == 0.01
    assert ts != two_point(3.0) and two_point(1.0) != two_point(2.0)
    with pytest.raises(ConfigError):
        from_config({"kind": "gaussian"})
    with pytest.raises(ConfigError):
        from_config({"kind": "two_point"})
    with pytest.raises(ConfigError):
        from_config({"kind": "dickman", "beta": 0.5})
    with pytest.raises(ConfigError):
        from_config(["two_point"])
    with pytest.raises(ConfigError):
        from_config({"kind": ["two_point"]})
