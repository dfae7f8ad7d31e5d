"""Exact shot-noise simulation of the field, window integrals, and limits.

A replicate draws a Poisson cloud of jumps (s_i, y_i) with intensity
ds nu(dy) restricted to |y| >= eps over a padded window, then evaluates

* the field        X(t) = sum_i y_i f(t - s_i) - a,
* window integrals S_{T,l} = sum_i y_i prod_k (g_k(T+l_k-s_ik) - g_k(l_k-s_ik)),
* limit samples    Y_l = (-1)^d sum_i y_i prod_k g_k(l_k - s_ik) - drift,

all in closed form per jump, so the only approximations are the jump-size
truncation (variance deficit small_jump_variance(eps) * ||f||_2^2) and the
finite window (tails of g beyond the pad).

Each is one weighted product over the jumps, sum_i y_i prod_k
factor_k(s_ik). _jump_sums evaluates it for all windows on the stacked
jumps of a block of replicates: one in-place pass per factor row over all
of the block's jumps, in one workspace that every block of the run reuses,
and each replicate summed by the same dot product as a single call.
Replicates are keyed by block: stream_for(seed, b), the SFC64 stream of
SeedSequence(seed)'s b-th spawned child, draws the Poisson counts of
replicates 512 b to 512 b + 511 in one call, then their uniforms,
replicate after replicate, with one random call per key block in each
block of evaluation; two index gathers split them into the block's
locations and sizes, turned into jumps in place. All else runs once per
block, on one thread, so replicate r depends on (seed, r) alone, and a run
of more replicates keeps the first ones bit for bit. One block loop serves
every entry point: window_integral_sweep evaluates several T on each
replicate's one cloud, and monte_carlo is its case of one T; sample_jumps
and sample_limit draw one replicate at a time from the stream they are
given.

The module is numerics only: the command-line front end writes the
replicate matrices of a SimResult to CSV or JSON.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyTruncationError, NotAvailableError
from .kernels import ProductKernel, _normalize_ls, as_product
from .levy import _check_uniforms


def _truncated_mean(measure, eps):
    # mean of the simulated jumps net of the analytic compensator: with only
    # |y| >= eps present, centering needs int_{eps<=|y|<=1} y nu(dy)
    return measure.signed_moment_interval(eps, 1.0)


@dataclass
class SimConfig:
    measure: object
    kernel: object
    T: float
    ls: object
    eps: float = 1e-3
    window_pad: float | None = None
    n_replicates: int = 1000
    seed: int = 0

    def __post_init__(self):
        self.kernel = as_product(self.kernel)
        self.ls = _normalize_ls(self.ls, self.kernel.d)
        self.T = float(self.T)
        self.eps = float(self.eps)
        self.n_replicates = int(self.n_replicates)
        self.seed = int(self.seed)
        if not (self.T >= 0.0 and math.isfinite(self.T)):
            raise ValueError("T must be finite and nonnegative")
        if not (self.eps > 0.0 and math.isfinite(self.eps)):
            raise ValueError("eps must be finite and positive")
        if self.n_replicates < 1:
            raise ValueError("need at least one replicate")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if self.window_pad is None:
            self.window_pad = self.kernel.decay_radius(1e-8)
        self.window_pad = float(self.window_pad)
        if not (self.window_pad >= 0.0 and math.isfinite(self.window_pad)):
            raise ValueError("window_pad must be finite and nonnegative")
        # fixed for the run: every replicate's draw reads them
        self.window_lo = self.ls.min(axis=0) - self.window_pad
        self.window_hi = self.T + self.ls.max(axis=0) + self.window_pad
        self.window_volume = float(np.prod(self.window_hi - self.window_lo))
        self.tail_mass = self.measure.tail_mass(self.eps)

    @property
    def d(self) -> int:
        return self.kernel.d

    @property
    def m(self) -> int:
        return self.ls.shape[0]


@dataclass
class JumpSet:
    """One Poisson cloud: locations (n, d), sizes (n,), and its window."""

    locations: np.ndarray
    sizes: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    pad: float

    @property
    def n(self) -> int:
        return self.sizes.shape[0]


def jump_set(locations, sizes, lo=None, hi=None, pad=0.0) -> JumpSet:
    """Hand-build a JumpSet (mostly for tests and demos)."""
    locations = np.asarray(locations, dtype=float)
    if locations.ndim == 1:
        locations = locations.reshape(-1, 1)
    sizes = np.asarray(sizes, dtype=float)
    d = locations.shape[1] if locations.size else 1
    if lo is None:
        lo = np.full(d, -np.inf)
    if hi is None:
        hi = np.full(d, np.inf)
    return JumpSet(locations=locations, sizes=sizes, lo=np.asarray(lo, float),
                   hi=np.asarray(hi, float), pad=float(pad))


# replicates per key block (see stream_for): part of the seed -> sample
# mapping, so a constant and not an option
_KEY_BLOCK = 512


def stream_for(seed: int, block: int) -> np.random.Generator:
    """The SFC64 stream of SeedSequence(seed)'s block-th spawned child.

    That child is SeedSequence(seed, spawn_key=(block,)), made without
    spawning the ones before it. seed and block must lie in [0, 2^64):
    SeedSequence itself would take a larger seed.

    monte_carlo and window_integral_sweep draw the replicates of key block
    b, replicates b * _KEY_BLOCK to (b + 1) * _KEY_BLOCK - 1, from
    stream_for(seed, b): first all _KEY_BLOCK Poisson counts in one call,
    then each replicate's uniforms in turn, its locations and then its sizes.
    """
    if not (0 <= seed < 2 ** 64 and 0 <= block < 2 ** 64):
        raise ValueError("seed and block must lie in [0, 2^64)")
    key = np.random.SeedSequence(seed, spawn_key=(block,))
    return np.random.Generator(np.random.SFC64(key))


def _keyed_streams(cfg: SimConfig):
    """cfg's replicates as (rng, used, drawn) entries, one per key block."""
    n = cfg.n_replicates
    for b in range(-(-n // _KEY_BLOCK)):
        used = min(_KEY_BLOCK, n - b * _KEY_BLOCK)
        yield stream_for(cfg.seed, b), used, _KEY_BLOCK


def _blocks(cfg: SimConfig, streams, cap: int):
    """Draw the replicates of streams, yield (jumps, starts) per block.

    Each (rng, used, drawn) entry of streams draws drawn Poisson counts in
    one call and then the uniforms of the first used of them, replicate after
    replicate, each its locations (row-major) and then its sizes.
    """
    # a block holds fewer than cap jumps in all, or a single replicate; its
    # replicate i owns jumps starts[i]:starts[i+1]. Each entry draws the
    # uniforms of its replicates in a block with one random call, into the
    # block's one fresh array, so no yielded JumpSet aliases a later one and
    # cap changes no bit
    tm, lo, hi = cfg.tail_mass, cfg.window_lo, cfg.window_hi
    if tm <= 0.0:
        raise EmptyTruncationError(
            f"no jumps with |y| >= {cfg.eps}; lower eps below "
            f"support_bound={cfg.measure.support_bound}")
    if not math.isfinite(tm):
        raise ValueError("jump intensity is infinite; raise eps")
    measure, eps, d, mean = cfg.measure, cfg.eps, cfg.d, tm * cfg.window_volume
    w = d + 1           # uniforms per jump

    def split(u, starts):
        # replicate i's uniforms start at w * starts[i]: its jump j's
        # locations sit at d j + starts[i] on, its size at j + d starts[i+1].
        # The uniforms are turned into jumps in place: (hi - lo) * u + lo is
        # rng.uniform(lo, hi)'s own formula, and _quantile skips
        # jump_quantile's eps and tail mass checks, which SimConfig and the
        # checks above make once per run
        n = starts[-1]
        if len(starts) == 2:
            loc, v = u[:n * d].reshape(n, d), u[n * d:n * w]
        else:
            s = np.array(starts)
            k = np.diff(s)
            loc = u[np.arange(n * d) + np.repeat(s[:-1], k * d)].reshape(n, d)
            v = u[np.arange(n) + d * np.repeat(s[1:], k)]
        loc *= hi - lo
        loc += lo
        _check_uniforms(v)
        jumps = JumpSet(loc, measure._quantile(v, eps), lo, hi, cfg.window_pad)
        return jumps, starts

    flat, starts = None, [0]
    for rng, used, drawn in streams:
        a = starts[-1]      # the entry's first jump in the block
        for k in rng.poisson(mean, drawn)[:used].tolist():
            if len(starts) > 1 and starts[-1] + k >= cap:
                rng.random(out=flat[a * w:starts[-1] * w])
                yield split(flat, starts)
                flat, starts, a = None, [0], 0
            if flat is None:
                # a replicate with more than cap jumps gets its own block
                flat = np.empty(max(cap, k) * w)
            starts.append(starts[-1] + k)
        rng.random(out=flat[a * w:starts[-1] * w])
    yield split(flat, starts)


def sample_jumps(cfg: SimConfig, rng: np.random.Generator) -> JumpSet:
    """Draw the Poisson cloud for one replicate over the padded window."""
    return next(_blocks(cfg, [(rng, 1, 1)], 0))[0]


# _blocks stacks replicates into one block while it holds fewer than
# _BLOCK // (nf m) jumps, so the (nf, m, n) factors of a block of several
# replicates stay within _BLOCK doubles (256 KiB); a replicate with more jumps
# is a block of its own. A block costs a fixed number of numpy calls besides
# its per-jump work, and every block of a run evaluates its factors in the
# run's one _Workspace, which is only replaced to grow; a larger cap saves
# calls but raises the peak memory.
_BLOCK = 32768


class _Workspace:
    """A float buffer reused by every block of a run, grown to the largest."""

    def __init__(self):
        self.buf = np.empty(0)

    def __call__(self, shape):
        size = math.prod(shape)
        if size > self.buf.size:
            self.buf = np.empty(size)
        return self.buf[:size].reshape(shape)


def _jump_sums(jumps: JumpSet, pk, ls, factor, starts, nf: int = 1,
               work=np.empty) -> np.ndarray:
    """sum_i y_i prod_k factor(comp_k, l_k, s_ik) as (replicates, nf, m)."""
    # factor(comp, ls[:, k, None], locations of axis k, rows) is a generator:
    # it writes its nf (m, n) factors into rows[0], rows[1], ... in turn and
    # yields each once written. Axis 0 writes straight into prod (1.0 * x = x
    # exactly); a later axis writes into scratch rows, rows[1:] sharing one,
    # and each row is multiplied into prod before the next is written.
    # work(shape) gives prod and scratch, a run's _Workspace or np.empty;
    # replicates split the jumps at starts as in _blocks, and one without
    # jumps sums to +0.0
    n_scratch = min(nf, 2) if pk.d > 1 else 0
    buf = work((nf + n_scratch, ls.shape[0], jumps.n))
    prod, scratch = buf[:nf], buf[nf:]
    for k, comp in enumerate(pk.components):
        rows = prod if k == 0 else [scratch[0]] + [scratch[-1]] * (nf - 1)
        for p, row in zip(prod, factor(comp, ls[:, k, None],
                                       jumps.locations[:, k], rows)):
            if k:
                p *= row
    # vecdot sums every row by the same dot product as the sizes @ prod of a
    # single window and replicate
    return np.array([np.vecdot(prod[:, :, a:b], jumps.sizes[a:b])
                     for a, b in zip(starts[:-1], starts[1:])])


def _window_sums(jumps: JumpSet, pk, ls, starts, Ts=(), mirrored: bool = False,
                 work=np.empty):
    """(limit_sum, S_{T,l} for each T of Ts) per replicate and row l."""
    # all from one g(l - s): Y is (replicates, m) and S (replicates, len(Ts),
    # m); mirrored gives mirrored_limit_sum instead of limit_sum. No drift:
    # with every g, int f = +0.0, so a = +0.0 and S - a T^d == S bit for bit
    if not pk.has_g:
        raise NotAvailableError(
            "window integrals and limit sums need every component's "
            "antiderivative; use window_integral_grid for kernels without one")

    def factor(c, l, s, rows):
        # g(l - s), then g((T + l) - s) - g(l - s) per T, all in place
        g_ls = rows[0]
        if mirrored:
            np.subtract(s, l, out=g_ls)
        else:
            np.subtract(l, s, out=g_ls)
        yield c.g(g_ls, out=g_ls)
        for T, row in zip(Ts, rows[1:]):
            c.g(np.subtract(T + l, s, out=row), out=row)
            yield np.subtract(row, g_ls, out=row)
    sums = _jump_sums(jumps, pk, ls, factor, starts, 1 + len(Ts), work)
    Y = sums[:, 0] if mirrored else (-1.0) ** pk.d * sums[:, 0]
    S = sums[:, 1:]
    empty = [r for r, (lo, hi) in enumerate(zip(starts, starts[1:])) if lo == hi]
    if empty:
        Y[empty] = 0.0      # +0.0 whatever the sign (-1)^d
        S[empty] = -0.0     # -(a T^d) at a = +0.0
    return Y, S


def _one_window(jumps: JumpSet, kernel, l, **kw):
    """_window_sums of all jumps as one replicate, for the one window l."""
    l = np.atleast_1d(np.asarray(l, dtype=float))
    return _window_sums(jumps, as_product(kernel), l[None, :], (0, jumps.n), **kw)


def eval_field(jumps: JumpSet, kernel, a: float, t) -> float:
    """X(t) = sum_i y_i f(t - s_i) - a at a single point t."""
    pk = as_product(kernel)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if t.shape != (pk.d,):
        raise ValueError(f"point must have shape ({pk.d},)")
    core_lo = jumps.lo + jumps.pad
    core_hi = jumps.hi - jumps.pad
    if np.any(t < core_lo) or np.any(t > core_hi):
        warnings.warn("evaluation point lies in the window pad; nearby jumps "
                      "outside the window are missing (truncation bias)",
                      stacklevel=2)
    if jumps.n == 0:
        return -float(a)

    def factor(c, t, s, rows):
        rows[0][...] = c.f(t - s)
        yield rows[0]
    sums = _jump_sums(jumps, pk, t[None, :], factor, (0, jumps.n))
    return float(sums[0, 0, 0] - a)


def window_integral(jumps: JumpSet, kernel, T: float, l, a: float = 0.0) -> float:
    """S_{T,l}, exact per jump via the antiderivatives g_k.

    The drift contributes a * T^d; a is 0 for derivative kernels, so the
    default covers them. Kernels without g must go through
    window_integral_grid instead.
    """
    T = float(T)
    s = float(_one_window(jumps, kernel, l, Ts=(T,))[1][0, 0, 0])
    return s - float(a) * T ** as_product(kernel).d


def window_integral_grid(jumps: JumpSet, kernel, T: float, l, a: float = 0.0,
                         n: int = 128):
    """Trapezoid-grid S_{T,l} with a Richardson step-error estimate.

    Returns (value, error): value uses n subintervals per axis, error is
    |I_n - I_{n/2}| / 3, the usual second-order extrapolation bound. Works
    for any kernel; it is the fallback when no antiderivative exists.
    """
    pk = as_product(kernel)
    l = np.atleast_1d(np.asarray(l, dtype=float))
    T, n = float(T), int(n)
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    if T == 0.0:
        return 0.0, 0.0

    letters = "".join(chr(97 + k) for k in range(pk.d))
    spec = ",".join("z" + x for x in letters) + ",z->" + letters

    def trap(nodes_per_axis):
        cols = [comp.f(nodes_per_axis[k][None, :] - jumps.locations[:, k][:, None])
                for k, comp in enumerate(pk.components)]
        # the field on the grid; without jumps the empty sum over z is 0
        vals = np.einsum(spec, *cols, jumps.sizes) - a
        for k in range(pk.d - 1, -1, -1):
            vals = np.trapezoid(vals, x=nodes_per_axis[k], axis=k)
        return float(vals)

    fine = [l[k] + np.linspace(0.0, T, n + 1) for k in range(pk.d)]
    v_fine, v_coarse = trap(fine), trap([x[::2] for x in fine])
    return v_fine, abs(v_fine - v_coarse) / 3.0


def limit_sum(jumps: JumpSet, kernel, l) -> float:
    """The bare limit summand (-1)^d sum_i y_i prod_k g_k(l_k - s_ik)."""
    return float(_one_window(jumps, kernel, l)[0][0, 0])


def mirrored_limit_sum(jumps: JumpSet, kernel, l) -> float:
    """sum_i y_i prod_k g_k(s_ik - l_k): the s -> -s substitution of limit_sum."""
    return float(_one_window(jumps, kernel, l, mirrored=True)[0][0, 0])


def _limit_drift(cfg: SimConfig, mirrored: bool) -> float:
    sign = 1.0 if mirrored else (-1.0) ** cfg.d
    return sign * cfg.kernel.integral_g * _truncated_mean(cfg.measure, cfg.eps)


def _replicate_sums(cfg: SimConfig, streams, Ts=(), mirrored: bool = False):
    """Y_l and S_{T,l} - a T^d per replicate: (n, m) and (n, len(Ts), m).

    The one block loop of the Monte Carlo, over the replicates of the
    (rng, used, drawn) entries of streams (see _blocks). Kernels without g
    take S from window_integral_grid per T and replicate, and Y is NaN;
    without any T they reach _window_sums, which refuses them.
    """
    pk, m = cfg.kernel, cfg.m
    if Ts and not pk.has_g:
        a = pk.integral_f * _truncated_mean(cfg.measure, cfg.eps)
        S = [[[window_integral_grid(jumps, pk, T, l, a)[0] for l in cfg.ls]
              for T in Ts] for jumps, _ in _blocks(cfg, streams, 0)]
        return np.full((len(S), m), np.nan), np.array(S)
    cap, work = max(1, _BLOCK // ((1 + len(Ts)) * m)), _Workspace()
    Y, S = zip(*(_window_sums(jumps, pk, cfg.ls, starts, Ts, mirrored, work)
                 for jumps, starts in _blocks(cfg, streams, cap)))
    return np.concatenate(Y) - _limit_drift(cfg, mirrored), np.concatenate(S)


def sample_limit(cfg: SimConfig, rng: np.random.Generator,
                 mirrored: bool = False, n: int | None = None) -> np.ndarray:
    """The limit values Y_l for every l in cfg.ls: one replicate, shape (m,).

    With n, an (n, m) array of n replicates drawn one after another from
    rng, equal bit for bit to n successive calls without n.
    """
    if n is not None and n < 1:
        raise ValueError("n must be at least 1")
    ys = _replicate_sums(cfg, [(rng, 1, 1)] * (n or 1), mirrored=mirrored)[0]
    return ys[0] if n is None else ys


@dataclass
class SimResult:
    """Replicate matrices: S[r, j] and Y[r, j] for window j of replicate r."""

    S: np.ndarray
    Y: np.ndarray
    cfg: SimConfig


def monte_carlo(cfg: SimConfig) -> SimResult:
    """Run cfg.n_replicates independent replicates, keyed by block of 512.

    S uses the exact per-jump window integral when the kernel has
    antiderivatives, else the trapezoid grid fallback. Y needs g; it is NaN
    without one.
    """
    Y, S = _replicate_sums(cfg, _keyed_streams(cfg), (cfg.T,))
    return SimResult(S=S[:, 0], Y=Y, cfg=cfg)


def window_integral_sweep(cfg: SimConfig, T_grid) -> np.ndarray:
    """S_{T,l} - a T^d for every T of T_grid and l of cfg.ls: (N, len(T_grid), m).

    Replicate r draws one cloud from its key block's stream on cfg's window
    and evaluates every T on it, so the column of T = cfg.T is
    monte_carlo(cfg).S bit for bit. A smaller T sees the restriction of
    that cloud, itself a Poisson cloud (Kingman 1993, 2.2): its column
    keeps the law of a run at that T up to the jumps beyond T + pad, whose
    terms are bounded by the kernel's tail beyond the pad. The columns of
    one replicate are correlated.
    """
    Ts = tuple(float(T) for T in T_grid)
    if not Ts or not all(0.0 <= T <= cfg.T for T in Ts):
        raise ValueError(f"T_grid needs one or more T in [0, cfg.T={cfg.T}]")
    return _replicate_sums(cfg, _keyed_streams(cfg), Ts)[1]


@dataclass(frozen=True)
class CfEvaluation:
    """Empirical CF values on a z-grid with a uniform radius band c/sqrt(N)."""

    zs: np.ndarray
    values: np.ndarray
    band: float


def empirical_cf(samples, zs, c: float = 3.0) -> CfEvaluation:
    """phi_hat(z) = mean of e^{izS} over the samples, with band c/sqrt(N)."""
    samples = np.asarray(samples, dtype=float).ravel()
    n = samples.size
    if n < 100:
        raise ValueError("need at least 100 samples")
    zs = np.atleast_1d(np.asarray(zs, dtype=float))
    values = np.exp(1j * zs[:, None] * samples[None, :]).mean(axis=1)
    return CfEvaluation(zs=zs, values=values, band=c / math.sqrt(n))
