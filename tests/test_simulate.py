"""Shot-noise simulator: streams, jump clouds, functionals, reproducibility."""

import math

import numpy as np
import pytest

from idma import simulate
from idma.errors import EmptyTruncationError, NotAvailableError
from idma.kernels import (ProductKernel, gauss_deriv, persistent_control,
                          signed_ou, user_table)
from idma.levy import (dickman, inner_truncated_stable, truncated_stable,
                       two_point)
from idma.simulate import (CfEvaluation, SimConfig, empirical_cf, eval_field,
                           jump_set, limit_sum, mirrored_limit_sum,
                           monte_carlo, sample_jumps, sample_limit,
                           stream_for, window_integral, window_integral_grid,
                           window_integral_sweep)


def keyed_jumps(cfg, r):
    # replicate r of monte_carlo and window_integral_sweep, drawn by hand:
    # stream (seed, r // 512) draws the 512 counts of its key block, then
    # each replicate's locations and sizes in turn; the uniforms of the
    # replicates before r are skipped
    rng = stream_for(cfg.seed, r // 512)
    counts = rng.poisson(cfg.tail_mass * cfg.window_volume, 512)
    rng.random(int(counts[:r % 512].sum()) * (cfg.d + 1))
    k = int(counts[r % 512])
    locations = rng.uniform(cfg.window_lo, cfg.window_hi, size=(k, cfg.d))
    sizes = cfg.measure.sample_jump_sizes(cfg.eps, k, rng)
    return jump_set(locations, sizes, cfg.window_lo, cfg.window_hi,
                    cfg.window_pad)


def test_stream_for_determinism():
    a = stream_for(3, 17).random(4)
    b = stream_for(3, 17).random(4)
    np.testing.assert_array_equal(a, b)
    c = stream_for(3, 18).random(4)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_rekeyed_stream_matches_stream_for(seed):
    # _streams makes stream_for's streams, up to the largest 64-bit key
    # word; r = 0 comes back at the end as a fresh stream
    rs = (0, 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1, 0)
    for r, got in zip(rs, simulate._streams(seed, rs)):
        want = stream_for(seed, r)
        assert got.poisson(40.0) == want.poisson(40.0)
        assert np.array_equal(got.random((5, 3)), want.random((5, 3)))
        assert np.array_equal(got.integers(0, 7, 3, dtype=np.uint32),
                              want.integers(0, 7, 3, dtype=np.uint32))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sample_jumps_matches_uniform_draw(d):
    # locations are lo + (hi - lo) * u, bit for bit rng.uniform(lo, hi)
    pk = ProductKernel(tuple(signed_ou() for _ in range(d)))
    cfg = SimConfig(measure=dickman(), kernel=pk, T=1.0, ls=np.zeros((1, d)),
                    eps=0.5, window_pad=1.5, seed=9)
    for r in range(300):
        rng = stream_for(cfg.seed, r)
        n = int(rng.poisson(cfg.tail_mass * cfg.window_volume))
        locations = rng.uniform(cfg.window_lo, cfg.window_hi, size=(n, d))
        sizes = dickman().sample_jump_sizes(cfg.eps, n, rng)
        js = sample_jumps(cfg, stream_for(cfg.seed, r))
        assert js.locations.shape == (n, d)
        assert np.array_equal(js.locations.view(np.int64), locations.view(np.int64))
        assert np.array_equal(js.sizes.view(np.int64), sizes.view(np.int64))


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
    for eps in (math.nan, math.inf, -math.inf):
        # nan used to pass and fail later as an empty truncation
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            SimConfig(measure=two_point(1.0), kernel=signed_ou(), T=1.0,
                      ls=[0.0], eps=eps)
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


def test_jump_sets_keep_their_own_arrays():
    # every block draws into arrays of its own: a JumpSet keeps its jumps
    # after later draws, whether from sample_jumps or a block of _blocks,
    # and a block of several streams draws each as sample_jumps does
    cfg = SimConfig(measure=two_point(1.0), kernel=signed_ou(), T=2.0,
                    ls=[0.0], eps=0.5, window_pad=4.0, n_replicates=40, seed=6)
    first = sample_jumps(cfg, stream_for(cfg.seed, 0))
    kept = first.locations.copy(), first.sizes.copy()
    second = sample_jumps(cfg, stream_for(cfg.seed, 1))
    assert np.array_equal(first.locations, kept[0])
    assert np.array_equal(first.sizes, kept[1])
    assert not np.shares_memory(first.sizes, second.sizes)
    want = [sample_jumps(cfg, stream_for(cfg.seed, r)) for r in range(40)]
    shared = big = False
    for cap in (12, 40):   # about 10 jumps per replicate
        streams = [(stream_for(cfg.seed, r), 1, 1) for r in range(40)]
        blocks = list(simulate._blocks(cfg, streams, cap))
        assert len(blocks) > 5
        rs = iter(want)
        for jumps, starts in blocks:
            shared |= len(starts) > 2
            big |= starts[-1] > cap
            for a, b in zip(starts, starts[1:]):
                one = next(rs)
                assert np.array_equal(jumps.locations[a:b], one.locations)
                assert np.array_equal(jumps.sizes[a:b], one.sizes)
        for (x, _), (y, _) in zip(blocks, blocks[1:]):
            assert not np.shares_memory(x.locations, y.locations)
            assert not np.shares_memory(x.sizes, y.sizes)
    assert shared and big


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


def test_monte_carlo_seed_determinism():
    # the same seed gives the same bits, another seed other values
    def run(seed):
        return monte_carlo(SimConfig(measure=two_point(1.0), kernel=signed_ou(),
                                     T=5.0, ls=[0.0, 1.0], eps=0.5,
                                     n_replicates=400, seed=seed))
    r1, r2, r_other = run(11), run(11), run(12)
    np.testing.assert_array_equal(r1.S, r2.S)
    np.testing.assert_array_equal(r1.Y, r2.Y)
    assert r1.S.shape == (400, 2)
    assert not np.array_equal(r1.S, r_other.S)
    assert not np.array_equal(r1.Y, r_other.Y)


@pytest.mark.parametrize("block", [None, 5])
def test_monte_carlo_windows_match_single_window_calls(monkeypatch, block):
    # all windows of a replicate are evaluated in one pass per block, in the
    # run's one workspace (block 5 makes each replicate a block of its own,
    # so the workspace serves blocks of different sizes); each value must
    # equal the single-window functional bit for bit
    pk = ProductKernel((signed_ou(), signed_ou()))
    ls = [[0.0, 0.0], [1.0, -0.5], [2.5, 1.5]]
    cfg = SimConfig(measure=dickman(), kernel=pk, T=2.0, ls=ls, eps=0.05,
                    window_pad=5.0, n_replicates=30, seed=4)
    a_sim = pk.integral_f * dickman().signed_moment_interval(0.05, 1.0)
    y_drift = pk.integral_g * dickman().signed_moment_interval(0.05, 1.0)
    S, Y = [], []
    for r in range(cfg.n_replicates):
        jumps = keyed_jumps(cfg, r)
        S.append([window_integral(jumps, pk, cfg.T, l, a_sim) for l in ls])
        Y.append([limit_sum(jumps, pk, l) - y_drift for l in ls])
    if block is not None:
        monkeypatch.setattr(simulate, "_BLOCK", block)
    res = monte_carlo(cfg)
    assert res.S.shape == res.Y.shape == (30, 3)
    assert np.array_equal(np.array(S).view(np.int64), res.S.view(np.int64))
    assert np.array_equal(np.array(Y).view(np.int64), res.Y.view(np.int64))


@pytest.mark.parametrize("block", [None, 5])
def test_monte_carlo_keeps_prefix_across_key_blocks(monkeypatch, block):
    # a run of more replicates keeps the first ones bit for bit: 700 and 1100
    # replicates share key block 0 and 188 replicates of key block 1, and the
    # replicates on either side of the boundary are keyed_jumps' clouds (at
    # about 7 jumps each, the default cap puts all 1100 in one block, which
    # draws from all three key blocks; block 5 makes each replicate a block
    # of its own)
    def run(n):
        return monte_carlo(SimConfig(measure=two_point(1.0), kernel=signed_ou(),
                                     T=2.0, ls=[0.0, 1.0], eps=0.5,
                                     window_pad=2.0, n_replicates=n, seed=3))
    if block is not None:
        monkeypatch.setattr(simulate, "_BLOCK", block)
    short, long = run(700), run(1100)
    assert np.array_equal(short.S.view(np.int64), long.S[:700].view(np.int64))
    assert np.array_equal(short.Y.view(np.int64), long.Y[:700].view(np.int64))
    cfg = long.cfg
    a = cfg.kernel.integral_f * simulate._truncated_mean(cfg.measure, cfg.eps)
    drift = simulate._limit_drift(cfg, False)
    for r in (0, 511, 512, 699, 1099):
        jumps = keyed_jumps(cfg, r)
        S = [window_integral(jumps, cfg.kernel, cfg.T, l, a) for l in cfg.ls]
        Y = [limit_sum(jumps, cfg.kernel, l) - drift for l in cfg.ls]
        assert np.array_equal(np.array(S).view(np.int64), long.S[r].view(np.int64))
        assert np.array_equal(np.array(Y).view(np.int64), long.Y[r].view(np.int64))


TABLE = user_table([-1.5, -0.5, 0.0, 0.75, 2.0], [0.0, 0.8, 1.0, -0.4, 0.0])

# S and Y of the seed -> sample mapping as float.hex, frozen when the
# replicates were first keyed by block of 512, and then equal bit for bit to
# the single-window functionals of keyed_jumps
PINNED = {
    "two_point_d1": (
        SimConfig(measure=two_point(1.0), kernel=signed_ou(), T=5.0,
                  ls=[0.0, 1.0], eps=0.5, n_replicates=3, seed=11),
        [["0x1.14cafe299cd71p-8", "0x1.2a2009b590dbap+0"],
         ["0x1.d4bb618970c3fp-1", "0x1.1f01442dc2f06p+1"],
         ["-0x1.25fe047dcae58p+0", "-0x1.d04e67203dc61p-1"]],
        [["-0x1.b53d8f040b70ap-1", "0x1.39317036247d4p-1"],
         ["-0x1.0aacb176b8891p-1", "-0x1.eabaa788ab6c2p-2"],
         ["-0x1.e6afc7f79c7a9p-1", "-0x1.8ea023fa67097p-1"]]),
    "dickman_d2": (
        SimConfig(measure=dickman(),
                  kernel=ProductKernel((signed_ou(), signed_ou())), T=2.0,
                  ls=[[0.0, 0.0], [1.0, -0.5], [2.5, 1.5]], eps=0.05,
                  window_pad=5.0, n_replicates=2, seed=4),
        [["-0x1.b8bbc336c1372p-1", "-0x1.33d4cae12589fp+0", "-0x1.193ba7280d5bdp-1"],
         ["0x1.a2490f7da689fp-2", "-0x1.a3a63b3df24d8p-2", "0x1.b61d8a5796065p-2"]],
        [["0x1.3fc9a6a26b9c0p-1", "0x1.24df8abd42710p-2", "0x1.74fefb74b2ec8p-1"],
         ["-0x1.3a23d53a18be0p-4", "-0x1.a9fda2a7df600p-4", "-0x1.e12a82e3b8fe8p-1"]]),
    # replicates 1 to 3 have no jumps
    "sparse": (
        SimConfig(measure=two_point(0.02), kernel=signed_ou(), T=1.0,
                  ls=[0.0, 2.0], n_replicates=6, seed=5),
        [["0x1.684cc69c4c318p-18", "0x1.86171f1716de6p-21"],
         ["-0x0.0p+0", "-0x0.0p+0"],
         ["-0x0.0p+0", "-0x0.0p+0"],
         ["-0x0.0p+0", "-0x0.0p+0"],
         ["-0x1.dff7e38c4d19ep-10", "-0x1.058c1f660c179p-12"],
         ["-0x1.278c627a832a2p-26", "-0x1.10fa5a75cf7acp-23"]],
        [["0x1.1cfe3726acf1cp-17", "0x1.348e90e578e69p-20"],
         ["0x0.0p+0", "0x0.0p+0"],
         ["0x0.0p+0", "0x0.0p+0"],
         ["0x0.0p+0", "0x0.0p+0"],
         ["-0x1.7b95ce5a4f5aep-9", "-0x1.99f7fcab8e38fp-12"],
         ["0x1.580129bcaddefp-27", "0x1.3dbbcdc2cc4a0p-24"]]),
    # 7031 and 7020 jumps: each replicate is a block of its own, and the
    # second reuses the workspace grown for the first
    "truncated_stable_d1": (
        SimConfig(measure=truncated_stable(0.5, 1.0), kernel=signed_ou(),
                  T=20.0, ls=[0.0], eps=1e-3, n_replicates=2, seed=21),
        [["-0x1.8c75d99a0e663p+0"], ["0x1.d80b977c616b1p+0"]],
        [["-0x1.cdc464d2af0cbp-1"], ["0x1.638f2a50b0e90p+0"]]),
    "inner_truncated_stable_d1": (
        SimConfig(measure=inner_truncated_stable(1.5, 1.0, 0.01),
                  kernel=signed_ou(), T=5.0, ls=[0.0, 1.0], eps=0.1,
                  n_replicates=3, seed=13),
        [["0x1.a716c59444fe6p+2", "0x1.2cbe32abad61fp+2"],
         ["0x1.205476bf8efbfp+2", "0x1.925b8b7dcdd0dp+1"],
         ["0x1.6de903d25b820p+3", "-0x1.314a98d6ed626p-2"]],
        [["0x1.262b5b613433fp+2", "0x1.e15da24dd1eabp-1"],
         ["0x1.17fa5ebe6524fp+3", "0x1.8fa75c050d9a0p+2"],
         ["0x1.69f011aaa6f8cp+2", "-0x1.bc6d6b9e15b61p+1"]]),
    # the other two g-kernels: a Gaussian and a table one ⊗ a Gaussian
    "gauss_deriv_d1": (
        SimConfig(measure=truncated_stable(0.5, 1.0), kernel=gauss_deriv(),
                  T=3.0, ls=[0.0, 1.5], eps=0.05, window_pad=6.0,
                  n_replicates=3, seed=17),
        [["0x1.bb5d94fbb00cbp-4", "-0x1.b5d04b18c94abp+0"],
         ["0x1.bb317aa755c4fp+0", "-0x1.96aabc52cb963p-4"],
         ["0x1.8332e858a0d93p-4", "-0x1.659bc374244fep+0"]],
        [["-0x1.888104c3ab618p-1", "-0x1.1ecbb5fb17ac5p+0"],
         ["0x1.6f1591539b329p+0", "-0x1.1df2ad45a1cadp-1"],
         ["-0x1.29534df4256a5p-3", "-0x1.7bc2597d359ccp-1"]]),
    "user_table_gauss_deriv_d2": (
        SimConfig(measure=dickman(),
                  kernel=ProductKernel((TABLE, gauss_deriv())), T=1.5,
                  ls=[[0.0, 0.0], [0.5, -1.0]], eps=0.05, window_pad=4.0,
                  n_replicates=2, seed=8),
        [["-0x1.a8cea2f095271p-3", "-0x1.693c8ba41c556p-4"],
         ["-0x1.0cb1523b8e623p+0", "0x1.65ea174989d06p+1"]],
        [["0x1.3f48cf26be498p-1", "0x1.5269d5e13c584p-2"],
         ["-0x1.31fdcaa537ae7p+0", "-0x1.23e076cbac8afp-1"]]),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_monte_carlo_pinned_bits(name):
    cfg, S, Y = PINNED[name]
    res = monte_carlo(cfg)
    assert [[v.hex() for v in row] for row in res.S.tolist()] == S
    assert [[v.hex() for v in row] for row in res.Y.tolist()] == Y
    for r in range(cfg.n_replicates):
        if keyed_jumps(cfg, r).n == 0:
            # -shift with shift = a T^d = +0.0, and Y = +0.0 - drift = +0.0
            assert all(math.copysign(1.0, v) == -1.0 for v in res.S[r])
            assert all(math.copysign(1.0, v) == 1.0 for v in res.Y[r])
    if name == "sparse":
        assert keyed_jumps(cfg, 1).n == 0


def test_sample_limit_mirrored_pinned_bits():
    # symmetric jumps folded from one uniform each, frozen as for PINNED
    cfg = SimConfig(measure=truncated_stable(0.5, 1.0), kernel=signed_ou(),
                    T=0.0, ls=[0.0, 0.5], eps=0.05, window_pad=8.0,
                    n_replicates=1)
    ys = sample_limit(cfg, stream_for(7, 0), mirrored=True, n=4)
    assert [[v.hex() for v in row] for row in ys.tolist()] == [
        ["0x1.2e2ea5ad33673p-1", "0x1.02090e9093960p+1"],
        ["0x1.b31599bca0ad9p-1", "0x1.168d580e660abp+0"],
        ["-0x1.bb2caefbad359p-2", "-0x1.0476d558ca694p+0"],
        ["0x1.d6a2034779006p+0", "0x1.da1e37539d692p+0"]]


def test_sample_limit_mirrored_product_pinned_bits():
    # a table kernel ⊗ a Gaussian, frozen as for PINNED
    cfg = SimConfig(measure=two_point(0.7),
                    kernel=ProductKernel((TABLE, gauss_deriv())), T=0.0,
                    ls=[[0.0, 0.0], [0.25, 0.5]], eps=0.5, window_pad=3.0,
                    n_replicates=1)
    ys = sample_limit(cfg, stream_for(5, 0), mirrored=True, n=4)
    assert [[v.hex() for v in row] for row in ys.tolist()] == [
        ["-0x1.28f4a6a5fb11ep-4", "-0x1.0738453a66c5ap+0"],
        ["0x1.cdaf5799a1909p+0", "0x1.38c8ac92b587dp+0"],
        ["0x1.01dacfea0daf6p+0", "0x1.a54783c0471fep-3"],
        ["-0x1.7c54a4f57589bp-3", "0x1.701dd395d7ca8p-2"]]


def test_monte_carlo_checks_before_drawing(monkeypatch):
    # no stream is drawn from before the jump intensity is known to be usable
    def streams(seed, replicates):      # a generator, as _streams is
        pytest.fail("drew a replicate")
        yield
    monkeypatch.setattr(simulate, "_streams", streams)
    empty = SimConfig(measure=two_point(1.0), kernel=signed_ou(), T=1.0,
                      ls=[0.0], eps=2.0, n_replicates=10)
    with pytest.raises(EmptyTruncationError):
        monte_carlo(empty)
    with np.errstate(over="ignore"):
        infinite = SimConfig(measure=inner_truncated_stable(1.9, 1.0, 1e-200),
                             kernel=signed_ou(), T=1.0, ls=[0.0], eps=1e-300,
                             n_replicates=10)
    with pytest.raises(ValueError, match="infinite"):
        monte_carlo(infinite)
    for cfg in (empty, infinite):
        with pytest.raises((EmptyTruncationError, ValueError)):
            sample_limit(cfg, stream_for(0, 0), n=3)


SWEEPS = {
    "truncated_stable_d1": (
        SimConfig(measure=truncated_stable(0.5, 1.0), kernel=signed_ou(),
                  T=6.0, ls=[0.0, 1.0], eps=0.05, n_replicates=8, seed=21),
        [1.0, 2.5, 6.0]),
    "dickman_d2": (
        SimConfig(measure=dickman(),
                  kernel=ProductKernel((signed_ou(), signed_ou())), T=2.0,
                  ls=[[0.0, 0.0], [1.0, -0.5]], eps=0.05, window_pad=5.0,
                  n_replicates=5, seed=4),
        [0.5, 1.25, 2.0]),
    # replicates 1 to 3 have no jumps
    "sparse": (
        SimConfig(measure=two_point(0.02), kernel=signed_ou(), T=1.0,
                  ls=[0.0, 2.0], n_replicates=6, seed=5),
        [0.0, 0.25, 1.0]),
    # no antiderivative: every T through window_integral_grid
    "persistent_control": (
        SimConfig(measure=two_point(1.0), kernel=persistent_control(), T=2.0,
                  ls=[0.0], eps=0.5, window_pad=8.0, n_replicates=4, seed=3),
        [0.5, 2.0]),
}


@pytest.mark.parametrize("block", [None, 5])
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_window_integral_sweep_matches_single_T(monkeypatch, name, block):
    # one cloud per replicate serves every T: the last column is
    # monte_carlo's S, and each column the one-window functional of the
    # cloud drawn at cfg.T, bit for bit (block 5 makes each replicate a
    # block of its own, all evaluated in one reused workspace)
    cfg, T_grid = SWEEPS[name]
    pk = cfg.kernel
    a = pk.integral_f * simulate._truncated_mean(cfg.measure, cfg.eps)
    if block is not None:
        monkeypatch.setattr(simulate, "_BLOCK", block)
    got = window_integral_sweep(cfg, T_grid)
    assert got.shape == (cfg.n_replicates, len(T_grid), cfg.m)
    want = monte_carlo(cfg).S
    assert np.array_equal(got[:, -1].view(np.int64), want.view(np.int64))
    for r in range(cfg.n_replicates):
        jumps = keyed_jumps(cfg, r)
        for j, T in enumerate(T_grid):
            if pk.has_g:
                one = [window_integral(jumps, pk, T, l, a) for l in cfg.ls]
            else:
                one = [window_integral_grid(jumps, pk, T, l, a)[0]
                       for l in cfg.ls]
            assert np.array_equal(np.array(one).view(np.int64),
                                  got[r, j].view(np.int64))
    if name == "sparse":
        assert keyed_jumps(cfg, 1).n == 0
        # -shift with shift = a T^d = +0.0 at every T
        assert all(math.copysign(1.0, v) == -1.0 for v in got[1].ravel())


def test_window_integral_sweep_refuses_T_beyond_window():
    cfg, _ = SWEEPS["sparse"]
    for T_grid in ([0.5, 1.5], [math.nan], [-0.5], []):
        with pytest.raises(ValueError, match="T_grid"):
            window_integral_sweep(cfg, T_grid)


@pytest.mark.parametrize("mirrored", [False, True])
@pytest.mark.parametrize("block", [None, 7])
def test_sample_limit_batch_matches_calls(monkeypatch, mirrored, block):
    # n replicates in one call equal n calls on the same rng, bit for bit,
    # replicates without jumps included (+0.0 before the drift)
    for measure, d in ((two_point(0.3), 1), (dickman(), 2)):
        pk = ProductKernel(tuple(signed_ou() for _ in range(d)))
        cfg = SimConfig(measure=measure, kernel=pk, T=0.0,
                        ls=np.arange(2 * d).reshape(2, d) * 0.25, eps=0.9,
                        window_pad=2.0, n_replicates=1)
        rng = stream_for(3, d)
        want = np.array([sample_limit(cfg, rng, mirrored) for _ in range(40)])
        if block is not None:
            monkeypatch.setattr(simulate, "_BLOCK", block)
        got = sample_limit(cfg, stream_for(3, d), mirrored, n=40)
        monkeypatch.undo()
        assert got.shape == (40, 2) and want.shape == (40, 2)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    with pytest.raises(ValueError):
        sample_limit(cfg, rng, n=0)


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
