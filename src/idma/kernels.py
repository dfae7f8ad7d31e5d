"""Kernels f on the line with vanishing integral, and tensor products.

Each 1-d kernel carries its antiderivative g with g(+-inf) = 0 whenever one
exists in closed form; g is what makes window integrals of the shot-noise
field exact. g(x, out=None) may also write its values into a float array
out of x's shape (x itself included) and return it; the Monte Carlo
evaluates it in place that way. The persistent control kernel
f(x) = e^{-|x|}/2 integrates to 1, has no vanishing antiderivative, and
exists to give diagnostics a positive baseline; operations that need g
refuse it. An autocorrelation without a closed form is one row of the
quadrature engine (quadrature._box_rows at d = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NotAvailableError
from .quadrature import _box_rows


@dataclass
class Kernel1D:
    kind: str
    f: callable
    g: callable | None
    nonsmooth: tuple = ()
    l2sq_f: float = math.nan
    l2sq_g: float | None = None
    integral_f: float = math.nan
    integral_g: float | None = None
    sup_f: float = math.inf        # |f| <= sup_f on the line
    range_g: tuple = (-math.inf, math.inf)     # g takes values in this range
    _decay: callable = None
    _acf: callable = None          # closed-form autocorrelation of f, or None
    _acg: callable = None          # closed-form autocorrelation of g, or None

    @property
    def has_g(self) -> bool:
        return self.g is not None

    def decay_radius(self, tol: float) -> float:
        """R with |f| <= tol and |g| <= tol outside [-R, R]."""
        return self._decay(max(float(tol), 1e-300))

    def autocorr_f(self, t: float) -> float:
        """int f(u) f(u + t) du; even in t."""
        t = abs(float(t))
        if self._acf is not None:
            return self._acf(t)
        return self._autocorr_quad(self.f, t)

    def autocorr_g(self, t: float) -> float:
        """int g(u) g(u + t) du; even in t. Needs g."""
        if not self.has_g:
            raise NotAvailableError(f"kernel {self.kind!r} has no antiderivative")
        t = abs(float(t))
        if self._acg is not None:
            return self._acg(t)
        return self._autocorr_quad(self.g, t)

    def _autocorr_quad(self, fn, t):
        # one d = 1 row of the engine over [-r - t, r], broken where either
        # factor kinks
        r = self.decay_radius(1e-14)
        breaks = [*self.nonsmooth, *(p - t for p in self.nonsmooth)]
        h = lambda top, prefix, u: (fn(u) * fn(u + t), None)
        return float(_box_rows(h, [[(-r - t, r)]], [[breaks]], 1e-11, 1_000_000)[0][0])


def check_derivative(kernel: Kernel1D, grid, h: float = 1e-5) -> float:
    """Max over the grid of |central difference of g - f|.

    Points within h of a declared nonsmooth abscissa are skipped: the
    difference quotient straddling a kink cannot converge to either
    one-sided value.
    """
    if not kernel.has_g:
        raise NotAvailableError(f"kernel {kernel.kind!r} has no antiderivative")
    xs = np.atleast_1d(np.asarray(grid, dtype=float))
    keep = np.ones(xs.shape, dtype=bool)
    for p in kernel.nonsmooth:
        keep &= np.abs(xs - p) > h * (1.0 + 1e-9)
    xs = xs[keep]
    if xs.size == 0:
        return 0.0
    diff = (kernel.g(xs + h) - kernel.g(xs - h)) / (2.0 * h)
    return float(np.max(np.abs(diff - kernel.f(xs))))


# -- builtin kernels --------------------------------------------------------

def signed_ou() -> Kernel1D:
    """f(x) = -sgn(x) e^{-|x|}, the derivative of g(x) = e^{-|x|}."""
    f = lambda x: -np.sign(x) * np.exp(-np.abs(x))
    # -|x| in place, bit for bit (NaN keeps its payload); two ufunc passes
    # cost less than one copysign
    g = lambda x, out=None: np.exp(np.negative(np.abs(x, out=out), out=out),
                                   out=out)
    return Kernel1D(
        kind="signed_ou", f=f, g=g, nonsmooth=(0.0,),
        l2sq_f=1.0, l2sq_g=1.0,
        integral_f=0.0, integral_g=2.0, sup_f=1.0, range_g=(0.0, 1.0),
        _decay=lambda tol: max(math.log(1.0 / tol), 1.0),
        _acf=lambda t: math.exp(-t) * (1.0 - t),
        _acg=lambda t: math.exp(-t) * (1.0 + t))


def gauss_deriv() -> Kernel1D:
    """f(x) = -2x e^{-x^2}, the derivative of g(x) = e^{-x^2}."""
    f = lambda x: -2.0 * x * np.exp(-np.square(x))
    g = lambda x, out=None: np.exp(np.negative(np.square(x, out=out), out=out),
                                   out=out)

    def decay(tol):
        r = math.sqrt(max(math.log(1.0 / tol), 1.0))
        for _ in range(8):
            r = math.sqrt(math.log(max(2.0 * r, 1.0) / tol))
        return r

    rt = math.sqrt(0.5 * math.pi)
    return Kernel1D(
        kind="gauss_deriv", f=f, g=g, nonsmooth=(),
        l2sq_f=rt, l2sq_g=rt,
        integral_f=0.0, integral_g=math.sqrt(math.pi),
        # |f| peaks at x = 1/sqrt(2)
        sup_f=math.sqrt(2.0 / math.e), range_g=(0.0, 1.0),
        _decay=decay,
        _acf=lambda t: rt * (1.0 - t * t) * math.exp(-0.5 * t * t),
        _acg=lambda t: rt * math.exp(-0.5 * t * t))


def persistent_control() -> Kernel1D:
    """f(x) = e^{-|x|}/2 with int f = 1; no vanishing antiderivative."""
    f = lambda x: 0.5 * np.exp(-np.abs(x))
    return Kernel1D(
        kind="persistent_control", f=f, g=None, nonsmooth=(0.0,),
        l2sq_f=0.25, integral_f=1.0, sup_f=0.5,
        _decay=lambda tol: max(math.log(0.5 / tol), 1.0),
        _acf=lambda t: 0.25 * math.exp(-t) * (1.0 + t))


def user_table(xs, gs) -> Kernel1D:
    """Piecewise-linear g through (xs, gs); f is its cellwise slope.

    The table must have strictly increasing abscissas and g = 0 at both
    edges, so that g extends by zero and f keeps a vanishing integral.
    """
    xs = np.asarray(xs, dtype=float)
    gs = np.asarray(gs, dtype=float)
    if xs.ndim != 1 or xs.shape != gs.shape or xs.size < 2:
        raise ConfigError("table needs matching 1-d x and g columns, length >= 2")
    if not np.all(np.isfinite(xs)) or not np.all(np.isfinite(gs)):
        raise ConfigError("table entries must be finite")
    if np.any(np.diff(xs) <= 0.0):
        raise ConfigError("table x column must be strictly increasing")
    if abs(gs[0]) > 1e-12 or abs(gs[-1]) > 1e-12:
        raise ConfigError("table g must vanish at both edges")
    slopes = np.diff(gs) / np.diff(xs)

    def f(x):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, slopes.size - 1)
        inside = (x >= xs[0]) & (x < xs[-1])
        return np.where(inside, slopes[idx], 0.0)

    def g(x, out=None):
        y = np.interp(np.asarray(x, dtype=float), xs, gs)
        if out is None:
            return y
        out[...] = y
        return out

    w = np.diff(xs)
    a, b = gs[:-1], gs[1:]
    rmax = float(max(abs(xs[0]), abs(xs[-1])))
    return Kernel1D(
        kind="user_table", f=f, g=g, nonsmooth=tuple(xs),
        l2sq_f=float(np.sum(slopes * slopes * w)),
        l2sq_g=float(np.sum(w * (a * a + a * b + b * b) / 3.0)),
        integral_f=0.0, integral_g=float(np.trapezoid(gs, xs)),
        sup_f=float(np.max(np.abs(slopes))),
        range_g=(float(np.min(gs)), float(np.max(gs))),
        _decay=lambda tol: rmax)


def user_table_from_csv(path) -> Kernel1D:
    """Load a table kernel from a CSV with columns x,g (header optional)."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except (ValueError, IndexError):
                if not rows:
                    continue        # header row
                raise ConfigError(f"bad table row {line!r} in {path}")
    if len(rows) < 2:
        raise ConfigError(f"table {path} has fewer than 2 usable rows")
    data = np.array(rows, dtype=float)
    return user_table(data[:, 0], data[:, 1])


# -- tensor products --------------------------------------------------------

@dataclass
class ProductKernel:
    """Separable kernel f(x) = prod_k f_k(x_k) on R^d."""

    components: tuple

    def __post_init__(self):
        self.components = tuple(self.components)
        if not self.components:
            raise ConfigError("product kernel needs at least one component")

    @property
    def d(self) -> int:
        return len(self.components)

    @property
    def has_g(self) -> bool:
        return all(k.has_g for k in self.components)

    @property
    def integral_f(self) -> float:
        return math.prod(k.integral_f for k in self.components)

    @property
    def integral_g(self) -> float:
        if not self.has_g:
            raise NotAvailableError("a component has no antiderivative")
        return math.prod(k.integral_g for k in self.components)

    def decay_radius(self, tol: float) -> float:
        return max(k.decay_radius(tol) for k in self.components)


def as_product(kernel) -> ProductKernel:
    """Wrap a 1-d kernel or a sequence of them as a product; pass products through."""
    if isinstance(kernel, ProductKernel):
        return kernel
    if isinstance(kernel, (list, tuple)):
        return ProductKernel(tuple(kernel))
    return ProductKernel((kernel,))


def _normalize_ls(ls, d=None) -> np.ndarray:
    """Window offsets as an (m, d) float array; scalars and flat lists describe d = 1."""
    ls = np.asarray(ls, dtype=float)
    if ls.ndim == 0:
        ls = ls.reshape(1, 1)
    elif ls.ndim == 1:
        ls = ls.reshape(-1, 1)
    if d is not None and ls.shape[1] != d:
        raise ValueError(f"l-points have dimension {ls.shape[1]}, kernel has {d}")
    return ls


_SIMPLE_KINDS = {
    "signed_ou": signed_ou,
    "gauss_deriv": gauss_deriv,
    "persistent_control": persistent_control,
}


def from_config(cfg: dict, base_dir: str = "."):
    """Build a kernel from a config dict; products may not nest."""
    return _from_config(cfg, base_dir, allow_product=True)


def _from_config(cfg, base_dir, allow_product):
    import os

    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("kernel config must be a dict with a 'kind' key")
    kind = cfg["kind"]
    extra = set(cfg) - {"kind"}
    if kind in _SIMPLE_KINDS:
        if extra:
            raise ConfigError(f"kernel kind {kind!r} takes no parameters, got {sorted(extra)}")
        return _SIMPLE_KINDS[kind]()
    if kind == "user_table":
        if extra != {"file"}:
            raise ConfigError("user_table takes exactly the key 'file'")
        path = cfg["file"]
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        return user_table_from_csv(path)
    if kind == "product":
        if not allow_product:
            raise ConfigError("product kernels may not nest")
        if extra != {"components"}:
            raise ConfigError("product takes exactly the key 'components'")
        comps = cfg["components"]
        if not isinstance(comps, list) or not comps:
            raise ConfigError("product 'components' must be a non-empty list")
        return ProductKernel(tuple(_from_config(c, base_dir, False) for c in comps))
    raise ConfigError(f"unknown kernel kind {kind!r}")
