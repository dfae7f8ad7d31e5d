"""Shot-noise simulator: streams, jump clouds, functionals, reproducibility."""

import io
import math

import numpy as np
import pytest

from idma import simulate
from idma.errors import EmptyTruncationError, NotAvailableError
from idma.kernels import ProductKernel, persistent_control, signed_ou
from idma.levy import dickman, two_point
from idma.simulate import (CfEvaluation, SimConfig, empirical_cf, eval_field,
                           jump_set, limit_sum, mirrored_limit_sum,
                           monte_carlo, sample_jumps, sample_limit,
                           stream_for, window_integral, window_integral_grid,
                           write_replicates_csv)


def test_stream_for_determinism():
    a = stream_for(3, 17).random(4)
    b = stream_for(3, 17).random(4)
    np.testing.assert_array_equal(a, b)
    c = stream_for(3, 18).random(4)
    assert not np.array_equal(a, c)


def test_sim_config_defaults_and_validation():
    cfg = SimConfig(measure=two_point(1.0), kernel=signed_ou(), T=5.0, ls=[0.0])
    assert cfg.d == 1 and cfg.m == 1
    assert cfg.window_pad == signed_ou().decay_radius(1e-8)
    assert cfg.window_volume == pytest.approx(5.0 + 2.0 * cfg.window_pad)
    with pytest.raises(ValueError):
        SimConfig(measure=two_point(1.0), kernel=signed_ou(), T=-1.0, ls=[0.0])
    with pytest.raises(ValueError):
        SimConfig(measure=two_point(1.0), kernel=signed_ou(), T=1.0, ls=[0.0],
                  eps=0.0)
    with pytest.raises(ValueError):
        SimConfig(measure=two_point(1.0), kernel=signed_ou(), T=1.0, ls=[0.0],
                  n_replicates=0)
    with pytest.raises(ValueError):
        SimConfig(measure=two_point(1.0), kernel=signed_ou(), T=1.0,
                  ls=[[0.0, 0.0]])
    for pad in (-3.0, -1e-3, math.inf, math.nan):
        with pytest.raises(ValueError, match="window_pad"):
            SimConfig(measure=two_point(1.0),
                      kernel=ProductKernel((signed_ou(), signed_ou())), T=2.0,
                      ls=[[0.0, 0.0]], window_pad=pad)


def test_sample_jumps_statistics():
    cfg = SimConfig(measure=dickman(), kernel=signed_ou(), T=2.0, ls=[0.0],
                    eps=0.01, window_pad=4.0, seed=0)
    mean = dickman().tail_mass(0.01) * cfg.window_volume
    counts = [sample_jumps(cfg, stream_for(0, r)).n for r in range(300)]
    assert abs(np.mean(counts) - mean) < 5.0 * math.sqrt(mean / 300.0)
    js = sample_jumps(cfg, stream_for(0, 7))
    assert np.all((js.sizes >= 0.01) & (js.sizes <= 1.0))
    assert np.all((js.locations >= cfg.window_lo)
                  & (js.locations <= cfg.window_hi))


def test_sample_jumps_empty_truncation():
    cfg = SimConfig(measure=two_point(1.0), kernel=signed_ou(), T=1.0,
                    ls=[0.0], eps=2.0)
    with pytest.raises(EmptyTruncationError):
        sample_jumps(cfg, stream_for(0, 0))


def test_eval_field_single_jump():
    js = jump_set([0.5], [2.0], lo=[-10.0], hi=[10.0], pad=3.0)
    k = signed_ou()
    got = eval_field(js, k, 0.3, [0.0])
    want = 2.0 * math.exp(-0.5) - 0.3     # f(-0.5) = +e^{-0.5}
    assert abs(got - want) < 1e-14
    assert eval_field(jump_set(np.empty((0, 1)), []), k, 0.3, [0.0]) == -0.3
    # no jumps: -a exactly, so a = 0 gives -0.0
    empty = eval_field(jump_set(np.empty((0, 1)), []), k, 0.0, [0.0])
    assert empty == 0.0 and math.copysign(1.0, empty) == -1.0


def test_eval_field_pad_warning():
    js = jump_set([0.0], [1.0], lo=[-5.0], hi=[5.0], pad=3.0)
    with pytest.warns(UserWarning):
        eval_field(js, signed_ou(), 0.0, [4.0])


def test_window_integral_single_jump():
    k = signed_ou()
    js = jump_set([1.5], [2.0])
    got = window_integral(js, k, 4.0, [0.0])
    want = 2.0 * (math.exp(-abs(4.0 - 1.5)) - math.exp(-1.5))
    assert abs(got - want) < 1e-14
    # drift shifts by a * T^d
    assert abs(window_integral(js, k, 4.0, [0.0], a=0.25)
               - (want - 0.25 * 4.0)) < 1e-14
    with pytest.raises(NotAvailableError):
        window_integral(js, persistent_control(), 4.0, [0.0])


def test_window_integral_grid_matches_exact():
    k = signed_ou()
    js = jump_set([0.8, -2.0], [1.0, -0.5])
    exact = window_integral(js, k, 3.0, [0.0])
    approx, err = window_integral_grid(js, k, 3.0, [0.0], n=256)
    assert abs(approx - exact) <= max(8.0 * err, 1e-6)
    assert window_integral_grid(js, k, 0.0, [0.0]) == (0.0, 0.0)
    with pytest.raises(ValueError):
        window_integral_grid(js, k, 3.0, [0.0], n=7)


def test_limit_sums_single_jump():
    k = signed_ou()
    js = jump_set([0.7], [2.0])
    assert abs(limit_sum(js, k, [0.0]) - (-2.0 * math.exp(-0.7))) < 1e-14
    assert abs(mirrored_limit_sum(js, k, [0.0]) - 2.0 * math.exp(-0.7)) < 1e-14
    empty = jump_set(np.empty((0, 1)), [])
    # no jumps: +0.0 for both, not (-1)^d * 0.0 = -0.0 at odd d
    for fn in (limit_sum, mirrored_limit_sum):
        got = fn(empty, k, [0.0])
        assert got == 0.0 and math.copysign(1.0, got) == 1.0
    pk2 = ProductKernel((k, k))
    js2 = jump_set([[0.5, -0.25]], [3.0])
    want = (-1.0) ** 2 * 3.0 * math.exp(-0.5) * math.exp(-0.25)
    assert abs(limit_sum(js2, pk2, [0.0, 0.0]) - want) < 1e-14
    with pytest.raises(NotAvailableError):
        limit_sum(js, persistent_control(), [0.0])


def test_sample_limit_centering():
    # dickman jumps are positive; the drift must re-center the samples
    cfg = SimConfig(measure=dickman(), kernel=signed_ou(), T=0.0, ls=[0.0],
                    eps=0.01, window_pad=12.0, n_replicates=1, seed=0)
    ys = np.array([sample_limit(cfg, stream_for(0, r))[0]
                   for r in range(4000)])
    se = ys.std() / math.sqrt(len(ys))
    assert abs(ys.mean()) < 5.0 * se


def test_monte_carlo_thread_determinism():
    cfg = SimConfig(measure=two_point(1.0), kernel=signed_ou(), T=5.0,
                    ls=[0.0, 1.0], eps=0.5, n_replicates=400, seed=11)
    r1 = monte_carlo(cfg, threads=1)
    r4 = monte_carlo(cfg, threads=4)
    np.testing.assert_array_equal(r1.S, r4.S)
    np.testing.assert_array_equal(r1.Y, r4.Y)
    assert r1.S.shape == (400, 2)
    r_other = monte_carlo(SimConfig(measure=two_point(1.0), kernel=signed_ou(),
                                    T=5.0, ls=[0.0, 1.0], eps=0.5,
                                    n_replicates=400, seed=12), threads=1)
    assert not np.array_equal(r1.S, r_other.S)


@pytest.mark.parametrize("block", [None, 5])
def test_monte_carlo_windows_match_single_window_calls(monkeypatch, block):
    # all windows of a replicate are evaluated in one pass, in column blocks
    # of the jumps (block 5 gives 5 // 3 = 1 jump per block); each value must
    # equal the single-window functional bit for bit
    pk = ProductKernel((signed_ou(), signed_ou()))
    ls = [[0.0, 0.0], [1.0, -0.5], [2.5, 1.5]]
    cfg = SimConfig(measure=dickman(), kernel=pk, T=2.0, ls=ls, eps=0.05,
                    window_pad=5.0, n_replicates=30, seed=4)
    a_sim = pk.integral_f * dickman().signed_moment_interval(0.05, 1.0)
    y_drift = pk.integral_g * dickman().signed_moment_interval(0.05, 1.0)
    S, Y = [], []
    for r in range(cfg.n_replicates):
        jumps = sample_jumps(cfg, stream_for(cfg.seed, r))
        S.append([window_integral(jumps, pk, cfg.T, l, a_sim) for l in ls])
        Y.append([limit_sum(jumps, pk, l) - y_drift for l in ls])
    if block is not None:
        monkeypatch.setattr(simulate, "_BLOCK", block)
    res = monte_carlo(cfg)
    assert res.S.shape == res.Y.shape == (30, 3)
    assert np.array_equal(np.array(S).view(np.int64), res.S.view(np.int64))
    assert np.array_equal(np.array(Y).view(np.int64), res.Y.view(np.int64))


def test_monte_carlo_grid_fallback():
    cfg = SimConfig(measure=two_point(1.0), kernel=persistent_control(),
                    T=2.0, ls=[0.0], eps=0.5, n_replicates=20, seed=3,
                    window_pad=8.0)
    res = monte_carlo(cfg)
    assert np.all(np.isnan(res.Y))
    assert np.all(np.isfinite(res.S))


def test_empirical_cf():
    rng = np.random.default_rng(0)
    x = rng.normal(size=1000)
    ev = empirical_cf(x, [0.0, 0.7])
    assert isinstance(ev, CfEvaluation)
    assert ev.values[0] == pytest.approx(1.0)
    want = np.mean(np.exp(1j * 0.7 * x))
    assert abs(ev.values[1] - want) < 1e-12
    assert ev.band == pytest.approx(3.0 / math.sqrt(1000))
    with pytest.raises(ValueError):
        empirical_cf(x[:50], [1.0])


def test_write_replicates_csv_roundtrip():
    cfg = SimConfig(measure=two_point(1.0), kernel=signed_ou(), T=2.0,
                    ls=[0.0], eps=0.5, n_replicates=5, seed=1)
    res = monte_carlo(cfg)
    buf = io.StringIO()
    write_replicates_csv(buf, res, "abc123", 1)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# config_digest=abc123 seed=1"
    assert lines[1] == "replicate,l_index,S_value,Y_value"
    assert len(lines) == 2 + 5
    r, j, s, y = lines[2].split(",")
    assert (int(r), int(j)) == (0, 0)
    assert float(s) == res.S[0, 0]       # %.17g round-trips doubles
    assert float(y) == res.Y[0, 0]
