"""Exact shot-noise simulation of the field, window integrals, and limits.

A replicate draws a Poisson cloud of jumps (s_i, y_i) with intensity
ds nu(dy) restricted to |y| >= eps over a padded window, then evaluates

* the field        X(t) = sum_i y_i f(t - s_i) - a,
* window integrals S_{T,l} = sum_i y_i prod_k (g_k(T+l_k-s_ik) - g_k(l_k-s_ik)),
* limit samples    Y_l = (-1)^d sum_i y_i prod_k g_k(l_k - s_ik) - drift,

all in closed form per jump, so the only approximations are the jump-size
truncation (variance deficit small_jump_variance(eps) * ||f||_2^2) and the
finite window (tails of g beyond the pad).

Each of these, and the mirrored limit sum, is one weighted product over
the jumps, sum_i y_i prod_k factor_k(s_ik), with its own per-axis factor.
_jump_sums evaluates it for all windows of a replicate in one pass, so
monte_carlo and sample_limit fill a replicate's row at once; each window is
still summed by the same dot product as a single-window call.

Replicate r derives its own counter-based stream from (seed, r), and results
land in preallocated index slots, so monte_carlo output is bit-identical for
any thread count or scheduling order. Within a replicate the draw order is
fixed: Poisson count, then locations (row-major), then jump sizes.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import EmptyTruncationError, NotAvailableError
from .kernels import ProductKernel, _normalize_ls, as_product


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
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")
        if self.n_replicates < 1:
            raise ValueError("need at least one replicate")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if self.window_pad is None:
            self.window_pad = self.kernel.decay_radius(1e-8)
        self.window_pad = float(self.window_pad)
        if not (self.window_pad >= 0.0 and math.isfinite(self.window_pad)):
            raise ValueError("window_pad must be finite and nonnegative")
        # fixed for the run: sample_jumps reads them for every replicate
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
    eps: float
    pad: float

    @property
    def n(self) -> int:
        return self.sizes.shape[0]


def jump_set(locations, sizes, lo=None, hi=None, eps=0.0, pad=0.0) -> JumpSet:
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
                   hi=np.asarray(hi, float), eps=float(eps), pad=float(pad))


def stream_for(seed: int, replicate: int) -> np.random.Generator:
    """The counter-based stream owned by one replicate."""
    key = np.array([seed, replicate], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_jumps(cfg: SimConfig, rng: np.random.Generator) -> JumpSet:
    """Draw the Poisson cloud for one replicate over the padded window."""
    tm = cfg.tail_mass
    if tm <= 0.0:
        raise EmptyTruncationError(
            f"no jumps with |y| >= {cfg.eps}; lower eps below "
            f"support_bound={cfg.measure.support_bound}")
    if not math.isfinite(tm):
        raise ValueError("jump intensity is infinite; raise eps")
    lo, hi = cfg.window_lo, cfg.window_hi
    n = int(rng.poisson(tm * cfg.window_volume))
    locations = rng.uniform(lo, hi, size=(n, cfg.d))
    sizes = cfg.measure.sample_jump_sizes(cfg.eps, n, rng)
    return JumpSet(locations=locations, sizes=sizes, lo=lo, hi=hi,
                   eps=cfg.eps, pad=cfg.window_pad)


# _jump_sums evaluates the factors on column blocks of at most _BLOCK doubles
# (96 KiB): glibc malloc gives temporaries of 128 KiB and more back to the OS
# on free, so larger ones page-fault anew on every call (twice the time at
# 4 windows and 10^4 jumps)
_BLOCK = 12288


def _jump_sums(jumps: JumpSet, pk, ls, factor) -> np.ndarray:
    """sum_i y_i prod_k factor(comp_k, l_k, s_ik) for every row l of ls.

    factor gets the column ls[:, k, None] and the locations of axis k, so
    one pass builds the (m, n) products of all m windows, a column block of
    jumps at a time.
    """
    prod = np.ones((ls.shape[0], jumps.n))
    step = max(1, _BLOCK // ls.shape[0])
    for lo in range(0, jumps.n, step):
        cols = slice(lo, lo + step)
        for k, comp in enumerate(pk.components):
            prod[:, cols] *= factor(comp, ls[:, k, None], jumps.locations[cols, k])
    # as stacked (1 x n) @ (n x 1) products, every row is summed by the same
    # dot product as the sizes @ prod of a single window
    return (prod[:, None, :] @ jumps.sizes[:, None])[:, 0, 0]


def _window_sums(jumps: JumpSet, pk, T: float, ls, a: float) -> np.ndarray:
    """S_{T,l} for every row l of ls; the drift shifts each by a * T^d."""
    if not pk.has_g:
        raise NotAvailableError(
            "window_integral needs every component's antiderivative; "
            "use window_integral_grid for kernels without one")
    shift = float(a) * T ** pk.d
    if jumps.n == 0:
        return np.full(ls.shape[0], -shift)
    return _jump_sums(jumps, pk, ls,
                      lambda c, l, s: c.g(T + l - s) - c.g(l - s)) - shift


def _limit_sums(jumps: JumpSet, pk, ls, mirrored: bool = False) -> np.ndarray:
    """limit_sum, or mirrored_limit_sum, for every row l of ls."""
    if not pk.has_g:
        raise NotAvailableError("limit sums need every component's antiderivative")
    if jumps.n == 0:
        return np.zeros(ls.shape[0])    # +0.0 whatever the sign (-1)^d
    if mirrored:
        return _jump_sums(jumps, pk, ls, lambda c, l, s: c.g(s - l))
    return (-1.0) ** pk.d * _jump_sums(jumps, pk, ls, lambda c, l, s: c.g(l - s))


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
    sums = _jump_sums(jumps, pk, t[None, :], lambda c, t, s: c.f(t - s))
    return float(sums[0] - a)


def window_integral(jumps: JumpSet, kernel, T: float, l, a: float = 0.0) -> float:
    """S_{T,l}, exact per jump via the antiderivatives g_k.

    The drift contributes a * T^d; a is 0 for derivative kernels, so the
    default covers them. Kernels without g must go through
    window_integral_grid instead.
    """
    l = np.atleast_1d(np.asarray(l, dtype=float))
    return float(_window_sums(jumps, as_product(kernel), float(T), l[None, :], a)[0])


def window_integral_grid(jumps: JumpSet, kernel, T: float, l, a: float = 0.0,
                         n: int = 128):
    """Trapezoid-grid S_{T,l} with a Richardson step-error estimate.

    Returns (value, error): value uses n subintervals per axis, error is
    |I_n - I_{n/2}| / 3, the usual second-order extrapolation bound. Works
    for any kernel; it is the fallback when no antiderivative exists.
    """
    pk = as_product(kernel)
    l = np.atleast_1d(np.asarray(l, dtype=float))
    T = float(T)
    n = int(n)
    if n < 2 or n % 2:
        raise ValueError("n must be even and >= 2")
    if T == 0.0:
        return 0.0, 0.0

    def field_grid(nodes_per_axis):
        cols = [comp.f(nodes_per_axis[k][None, :] - jumps.locations[:, k][:, None])
                for k, comp in enumerate(pk.components)]
        if jumps.n == 0:
            grid = np.zeros(tuple(len(x) for x in nodes_per_axis))
        else:
            letters = [chr(97 + k) for k in range(pk.d)]
            sub = ",".join("z" + letters[k] for k in range(pk.d))
            grid = np.einsum(f"{sub},z->{''.join(letters)}",
                             *cols, jumps.sizes)
        return grid - a

    def trap(nodes_per_axis):
        vals = field_grid(nodes_per_axis)
        for k in range(pk.d - 1, -1, -1):
            vals = np.trapezoid(vals, x=nodes_per_axis[k], axis=k)
        return float(vals)

    fine = [l[k] + np.linspace(0.0, T, n + 1) for k in range(pk.d)]
    coarse = [x[::2] for x in fine]
    v_fine = trap(fine)
    v_coarse = trap(coarse)
    return v_fine, abs(v_fine - v_coarse) / 3.0


def limit_sum(jumps: JumpSet, kernel, l) -> float:
    """The bare limit summand (-1)^d sum_i y_i prod_k g_k(l_k - s_ik)."""
    l = np.atleast_1d(np.asarray(l, dtype=float))
    return float(_limit_sums(jumps, as_product(kernel), l[None, :])[0])


def mirrored_limit_sum(jumps: JumpSet, kernel, l) -> float:
    """sum_i y_i prod_k g_k(s_ik - l_k): the s -> -s substitution of limit_sum."""
    l = np.atleast_1d(np.asarray(l, dtype=float))
    return float(_limit_sums(jumps, as_product(kernel), l[None, :], mirrored=True)[0])


def _limit_drift(cfg: SimConfig, mirrored: bool) -> float:
    sign = 1.0 if mirrored else (-1.0) ** cfg.d
    return sign * cfg.kernel.integral_g * _truncated_mean(cfg.measure, cfg.eps)


def sample_limit(cfg: SimConfig, rng: np.random.Generator,
                 mirrored: bool = False) -> np.ndarray:
    """One replicate of the limit values Y_l for every l in cfg.ls."""
    jumps = sample_jumps(cfg, rng)
    return (_limit_sums(jumps, cfg.kernel, cfg.ls, mirrored)
            - _limit_drift(cfg, mirrored))


@dataclass
class SimResult:
    """Replicate matrices: S[r, j] and Y[r, j] for window j of replicate r."""

    S: np.ndarray
    Y: np.ndarray
    cfg: SimConfig


def monte_carlo(cfg: SimConfig, threads: int = 1) -> SimResult:
    """Run cfg.n_replicates independent replicates, each on its own stream.

    S uses the exact per-jump window integral when the kernel has
    antiderivatives, else the trapezoid grid fallback. Y needs g; it is
    filled with NaN for kernels without one.
    """
    pk = cfg.kernel
    N, m = cfg.n_replicates, cfg.m
    S = np.empty((N, m))
    Y = np.full((N, m), np.nan)
    exact = pk.has_g
    a_sim = pk.integral_f * _truncated_mean(cfg.measure, cfg.eps)
    y_drift = _limit_drift(cfg, mirrored=False) if exact else 0.0

    def run_block(lo, hi):
        for r in range(lo, hi):
            rng = stream_for(cfg.seed, r)
            jumps = sample_jumps(cfg, rng)
            if exact:
                S[r] = _window_sums(jumps, pk, cfg.T, cfg.ls, a_sim)
                Y[r] = _limit_sums(jumps, pk, cfg.ls) - y_drift
            else:
                for j in range(m):
                    S[r, j] = window_integral_grid(jumps, pk, cfg.T, cfg.ls[j],
                                                   a_sim)[0]

    threads = max(1, int(threads))
    if threads == 1:
        run_block(0, N)
    else:
        bounds = np.linspace(0, N, threads + 1).astype(int)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futs = [pool.submit(run_block, bounds[i], bounds[i + 1])
                    for i in range(threads)]
            for fut in futs:
                fut.result()
    return SimResult(S=S, Y=Y, cfg=cfg)


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


def write_replicates_csv(fh, result: SimResult, digest: str, seed: int) -> None:
    """Write the replicate matrix as CSV behind a digest+seed comment line.

    Columns: replicate, l_index, S_value, Y_value. Floats use repr-exact
    %.17g, '.' decimals, ',' delimiters, LF endings; output depends only on
    the simulated values, so equal configs give byte-identical files.
    """
    lines = [f"# config_digest={digest} seed={seed}",
             "replicate,l_index,S_value,Y_value"]
    S, Y = result.S, result.Y
    for r in range(S.shape[0]):
        for j in range(S.shape[1]):
            lines.append(f"{r},{j},{S[r, j]:.17g},{Y[r, j]:.17g}")
    fh.write("\n".join(lines) + "\n")
