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
def test_stream_for_is_spawned_sfc64_child(seed):
    # stream_for(seed, b) is the SFC64 stream of SeedSequence(seed)'s b-th
    # spawned child
    children = np.random.SeedSequence(seed).spawn(4)
    for b, child in enumerate(children):
        got = stream_for(seed, b)
        want = np.random.Generator(np.random.SFC64(child))
        assert got.poisson(40.0) == want.poisson(40.0)
        assert np.array_equal(got.random((5, 3)), want.random((5, 3)))
        assert np.array_equal(got.integers(0, 7, 3, dtype=np.uint32),
                              want.integers(0, 7, 3, dtype=np.uint32))


def test_stream_for_keys_give_distinct_draws():
    keys = [(0, 0), (0, 1), (0, 2 ** 32), (0, 2 ** 63), (2 ** 64 - 1, 0)]
    firsts = {stream_for(seed, b).random() for seed, b in keys}
    assert len(firsts) == len(keys)


def test_stream_for_refuses_keys_beyond_64_bits():
    stream_for(2 ** 64 - 1, 2 ** 64 - 1).random()
    for seed, block in ((2 ** 64, 0), (-1, 0), (0, -1), (0, 2 ** 64)):
        with pytest.raises(ValueError, match="seed and block"):
            stream_for(seed, block)


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

# S and Y of the seed -> sample mapping as float.hex, frozen when the key
# block streams became SeedSequence-spawned SFC64 ones, and then equal bit
# for bit to the single-window functionals of keyed_jumps
PINNED = {
    "two_point_d1": (
        SimConfig(measure=two_point(1.0), kernel=signed_ou(), T=5.0,
                  ls=[0.0, 1.0], eps=0.5, n_replicates=3, seed=11),
        [["0x1.eaf03871a9e06p+0", "0x1.31f60b6fee56bp-1"],
         ["0x1.647693be29aa4p-2", "0x1.2c1bd90e1403fp-1"],
         ["0x1.afd3344ece2ddp+0", "0x1.9822324314da6p-1"]],
        [["0x1.6d7308da795d3p-2", "-0x1.d20566ec11f08p-2"],
         ["-0x1.f17142a087bbbp-2", "-0x1.8615570ad2f94p-2"],
         ["0x1.250da6860281bp-1", "-0x1.15aea3fe6d3bdp-3"]]),
    "dickman_d2": (
        SimConfig(measure=dickman(),
                  kernel=ProductKernel((signed_ou(), signed_ou())), T=2.0,
                  ls=[[0.0, 0.0], [1.0, -0.5], [2.5, 1.5]], eps=0.05,
                  window_pad=5.0, n_replicates=2, seed=4),
        [["0x1.47892bc5a3118p-3", "-0x1.6bed781df28fep-2", "-0x1.2840a1455e0adp+0"],
         ["0x1.4babf5616542ap-1", "-0x1.a715a03a277dfp-3", "0x1.de93a21761516p-3"]],
        [["0x1.cdb0c14a4aa40p-3", "0x1.e09a4bcf4a070p-2", "0x1.412ff98494c40p-3"],
         ["-0x1.c65e7c3745da0p-2", "-0x1.8c35c1a125300p-5", "0x1.22d898c54a188p-1"]]),
    # replicates 1 to 3 have no jumps (asserted below)
    "sparse": (
        SimConfig(measure=two_point(0.02), kernel=signed_ou(), T=1.0,
                  ls=[0.0, 2.0], n_replicates=6, seed=132),
        [["-0x1.0208fe1b2eefap-1", "0x1.2aac5ee961469p-2"],
         ["-0x0.0p+0", "-0x0.0p+0"],
         ["-0x0.0p+0", "-0x0.0p+0"],
         ["-0x0.0p+0", "-0x0.0p+0"],
         ["-0x1.071e11cce245ap-4", "-0x1.e60c237cca0f9p-2"],
         ["-0x1.263b0a46d4d7ap-20", "-0x1.3e8eeb767584ep-23"]],
        [["0x1.2c5743151a11ep-2", "0x1.d87e8688aababp-2"],
         ["0x0.0p+0", "0x0.0p+0"],
         ["0x0.0p+0", "0x0.0p+0"],
         ["0x0.0p+0", "0x0.0p+0"],
         ["0x1.3241a7ac74f83p-5", "0x1.1ade474272039p-2"],
         ["-0x1.d1774b84f1316p-20", "-0x1.f7f3a7cf7e8e8p-23"]]),
    # each replicate is a block of its own (asserted below), and the second
    # reuses the workspace grown for the first
    "truncated_stable_d1": (
        SimConfig(measure=truncated_stable(0.5, 1.0), kernel=signed_ou(),
                  T=20.0, ls=[0.0, 1.0], eps=1e-3, n_replicates=2, seed=21),
        [["0x1.a9a07612b6c31p-2", "-0x1.49adcf3ed9606p-2"],
         ["0x1.3b681bd2c9558p+0", "0x1.9e2be1aed6442p+1"]],
        [["-0x1.2d14bf06b355cp+0", "-0x1.c5989cc6979c9p+0"],
         ["0x1.3ac58f925beb8p+0", "0x1.2544ba7f7019ap+1"]]),
    "inner_truncated_stable_d1": (
        SimConfig(measure=inner_truncated_stable(1.5, 1.0, 0.01),
                  kernel=signed_ou(), T=5.0, ls=[0.0, 1.0], eps=0.1,
                  n_replicates=3, seed=13),
        [["-0x1.36e17186b1147p+1", "-0x1.a3e9baf903d78p+1"],
         ["-0x1.5a168de474477p+3", "-0x1.1c44265cff491p+3"],
         ["-0x1.78af8d90ef490p+2", "-0x1.861366020470cp+1"]],
        [["-0x1.0308332013c16p-2", "-0x1.d104f0e391834p-1"],
         ["-0x1.45e0e11dc95aap+3", "-0x1.99dae4c0dc866p+2"],
         ["-0x1.4f012933141d2p-3", "0x1.63974a07afa4bp+0"]]),
    # the other two g-kernels: a Gaussian and a table one ⊗ a Gaussian
    "gauss_deriv_d1": (
        SimConfig(measure=truncated_stable(0.5, 1.0), kernel=gauss_deriv(),
                  T=3.0, ls=[0.0, 1.5], eps=0.05, window_pad=6.0,
                  n_replicates=3, seed=17),
        [["0x1.4ba9de9b03df0p+1", "-0x1.13255148ce60fp+0"],
         ["-0x1.2105c930386afp-1", "-0x1.a492e058c6111p+1"],
         ["0x1.6af4a4cb59273p-1", "-0x1.d0101f4f49779p-1"]],
        [["0x1.794e3e9c18a73p+0", "-0x1.7bfea9b577309p+0"],
         ["-0x1.c57064e49d9e5p-1", "-0x1.04dd9f1583b61p-1"],
         ["0x1.2f1c4102799c6p+0", "0x1.3300ee78160ffp-1"]]),
    "user_table_gauss_deriv_d2": (
        SimConfig(measure=dickman(),
                  kernel=ProductKernel((TABLE, gauss_deriv())), T=1.5,
                  ls=[[0.0, 0.0], [0.5, -1.0]], eps=0.05, window_pad=4.0,
                  n_replicates=2, seed=8),
        [["-0x1.a2d24eda2899cp-1", "0x1.17fd8ee2cc0f6p+1"],
         ["0x1.1e16956cffde7p+1", "-0x1.3a3ef1739b383p-1"]],
        [["-0x1.81871f8cad3c8p-3", "0x1.2f3e0a94ff2bap-1"],
         ["0x1.9c4d5d311a580p-2", "-0x1.bb361feecf518p-3"]]),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_monte_carlo_pinned_bits(monkeypatch, name):
    cfg, S, Y = PINNED[name]
    blocks, window_sums = [], simulate._window_sums

    def spy(jumps, pk, ls, starts, *args):
        blocks.append(list(starts))
        return window_sums(jumps, pk, ls, starts, *args)
    monkeypatch.setattr(simulate, "_window_sums", spy)
    res = monte_carlo(cfg)
    assert [[v.hex() for v in row] for row in res.S.tolist()] == S
    assert [[v.hex() for v in row] for row in res.Y.tolist()] == Y
    counts = [keyed_jumps(cfg, r).n for r in range(cfg.n_replicates)]
    for r, k in enumerate(counts):
        if k == 0:
            # -shift with shift = a T^d = +0.0, and Y = +0.0 - drift = +0.0
            assert all(math.copysign(1.0, v) == -1.0 for v in res.S[r])
            assert all(math.copysign(1.0, v) == 1.0 for v in res.Y[r])
    if name == "sparse":
        assert counts == [1, 0, 0, 0, 1, 1]
    if name == "truncated_stable_d1":
        assert blocks == [[0, 7179], [0, 7069]]


def test_sample_limit_mirrored_pinned_bits():
    # symmetric jumps folded from one uniform each, frozen as for PINNED
    cfg = SimConfig(measure=truncated_stable(0.5, 1.0), kernel=signed_ou(),
                    T=0.0, ls=[0.0, 0.5], eps=0.05, window_pad=8.0,
                    n_replicates=1)
    ys = sample_limit(cfg, stream_for(7, 0), mirrored=True, n=4)
    assert [[v.hex() for v in row] for row in ys.tolist()] == [
        ["0x1.e89069fd62035p-1", "0x1.250c77d726c5dp+0"],
        ["0x1.4e591b2b472ecp-1", "0x1.71879bce7a238p-2"],
        ["-0x1.404b0749af0aep-1", "-0x1.23cc10217d1f4p+0"],
        ["0x1.82f4bb510c274p+0", "0x1.5143534f1b30fp+0"]]


def test_sample_limit_mirrored_product_pinned_bits():
    # a table kernel ⊗ a Gaussian, frozen as for PINNED
    cfg = SimConfig(measure=two_point(0.7),
                    kernel=ProductKernel((TABLE, gauss_deriv())), T=0.0,
                    ls=[[0.0, 0.0], [0.25, 0.5]], eps=0.5, window_pad=3.0,
                    n_replicates=1)
    ys = sample_limit(cfg, stream_for(5, 0), mirrored=True, n=4)
    assert [[v.hex() for v in row] for row in ys.tolist()] == [
        ["-0x1.61351c7b23d70p-3", "-0x1.4a64d4a90b724p+0"],
        ["0x1.59f126f1881d4p-2", "0x1.8965833c0d8c5p+0"],
        ["0x1.30d0a70f1432cp+0", "0x1.102df66dd5c5dp+0"],
        ["-0x1.873cc7d8f88eap+0", "-0x1.5da56dd5af6aep+0"]]


def test_monte_carlo_checks_before_drawing(monkeypatch):
    # no stream is made before the jump intensity is known to be usable
    def no_stream(seed, block):
        pytest.fail("made a stream")
    monkeypatch.setattr(simulate, "stream_for", no_stream)
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
    # replicates 1 to 3 have no jumps (asserted below)
    "sparse": (
        SimConfig(measure=two_point(0.02), kernel=signed_ou(), T=1.0,
                  ls=[0.0, 2.0], n_replicates=6, seed=132),
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
        assert [keyed_jumps(cfg, r).n for r in range(6)] == [1, 0, 0, 0, 1, 1]
        # -shift with shift = a T^d = +0.0 at every T
        assert all(math.copysign(1.0, v) == -1.0 for v in got[1:4].ravel())


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
