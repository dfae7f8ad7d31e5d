"""Levy measures with finite absolute first moment, one class per family.

Four builtin families, all with closed-form moments, tail masses, and
inverse-CDF jump sampling:

* Dickman(): density 1/y on (0, 1), asymmetric, total mass infinite.
* TruncatedStable(beta, big_c): density C |y|^{-1-beta} on 0 < |y| <= 1,
  symmetric, beta in (0, 1).
* TwoPoint(lam): atoms of mass lam/2 at +-1.
* InnerTruncatedStable(alpha, c, delta): density c |y|^{-1-alpha} on
  |y| >= delta, symmetric, alpha in (1, 2). First moment finite, second
  moment divergent.

dickman(), truncated_stable(), two_point() and inner_truncated_stable()
are the same classes under their config names.

LevyMeasure holds what the families share: every parameter must be a
finite number, the eps and u checks, scalar unwrapping, the sign folding
of symmetric jump quantiles, and the evaluator of the Levy exponent K(w).
A new family is a frozen dataclass subclass whose fields are its
parameters. It sets ``kind`` and ``config_keys`` (its config name and
parameter keys, in field order) and, where the defaults do not hold,
``symmetric``, ``support_bound`` and ``finite_mass``; it is entered in
_FAMILIES; and it implements

* _check(): the parameter ranges, raising ConfigError;
* abs_moment() and second_moment();
* _tail(eps), _small_variance(eps) and _magnitude(v, eps): the tail mass,
  the small-jump variance and the quantile of |y| on arrays (_magnitude
  writes into its 1-d argument and returns it);
* _series() and _far(ws): the power-series coefficients of K(w) and K in
  closed form at large |w|, with _near and _reach where K is not its
  series in w, unless it overrides exponent() as TwoPoint does.

K(w) = int (e^{iwy} - 1) nu(dy) is entire for a measure on [-1, 1]. A
family's _series() returns an (N_TERMS + 1, j) array: column 0 holds the
coefficients a_k of w^{2k} in Re K (a_0 = 0), and an asymmetric family adds
column 1, the coefficients b_k of Im K = w * sum_k b_k w^{2k}. The one
evaluator, LevyMeasure.exponent, sums all N_TERMS terms of these series by
Horner's rule in w^2 (_horner) where |w| is at most the family's ``_reach``
(SERIES_MAX_W = 6), and calls _far at the other arguments; either way each
value depends on its own w alone. The far forms rest on the exponential
integral E_p(-ix) = int_1^inf e^{ixt} t^{-p} dt, which _expint computes by
a continued fraction. InnerTruncatedStable has no series in w: its
_near is the full-line stable closed form minus the series of its head
(0, delta), in x = |w| delta, up to x = HEAD_MAX_X (4).

Moments over restricted regions are exposed in vectorized form so that
integrability diagnostics can evaluate them on whole quadrature panels.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .errors import ConfigError, DivergentMomentError, EmptyTruncationError


def _scalar(out):
    return out if out.ndim else float(out)


def _check_uniforms(u):
    """Refuse an array with an entry outside [0, 1), NaN included."""
    if u.size and not (0.0 <= u.min() and u.max() < 1.0):
        raise ValueError("u must lie in [0, 1)")


# K(w) is summed from its power series for |w| <= SERIES_MAX_W. A family's
# coefficients of w^(2k) and w^(2k+1) are at most its scale (1, or 2C) times
# 1/(2k)!, so after n terms the first omitted term is at most the scale times
# p_n(w) = |w|^(2n+2)/(2n+2)!, times |w| in the odd series. SERIES_W[n-1] is
# the largest |w| with p_n(w) <= eps * min(w^2, 1/|w|): eps relative to the
# w^2 size of K while |w| < 1, and eps absolute for the odd series beyond.
# SERIES_W[-1] >= SERIES_MAX_W fixes N_TERMS (19). Past SERIES_MAX_W the
# alternating terms cost digits (45 ulp near |w| = 8 for Dickman), and _far
# takes over; up to 6 the series stays within 3.7e-15 of max(1, |K|), and
# the default cf z grid with signed_ou (|w| <= 5.5) never leaves it.
SERIES_MAX_W = 6.0
# InnerTruncatedStable's head series cancels against its stable term, to
# 1/20 of their size at x = |w| delta = 4 (alpha = 1.5), so it hands over
# to _far at HEAD_MAX_X
HEAD_MAX_X = 4.0
# levels of the continued fraction of _expint: past |x| = HEAD_MAX_X, 60 of
# them reach rounding for every order p in [1, 3] (50 miss it at x = 4)
EXPINT_TERMS = 60


def _series_table(w_max):
    eps, out = np.finfo(float).eps, []
    while not out or out[-1] < w_max:
        n = len(out) + 1
        x = eps * math.factorial(2 * n + 2)
        out.append(min(x ** (1.0 / (2 * n)), x ** (1.0 / (2 * n + 3))))
    return np.array(out)


SERIES_W = _series_table(SERIES_MAX_W)
N_TERMS = len(SERIES_W)


def _horner(coef, x2):
    """sum_k coef[k, i] x2^k over k = 1..N_TERMS at the 1-d x2, as row i.

    Horner's rule, element by element: each value depends on its own x2
    alone, whatever else shares the call. Returns a (j, x2.size) array.
    """
    s = np.zeros((coef.shape[1], x2.size))
    for a in coef[:0:-1, :, None]:
        s *= x2
        s += a
    s *= x2
    return s


def _power_series(p, scale):
    """Coefficients of scale * int_0^1 (cos xt - 1) t^{-1-p} dt in x^{2k}:
    scale (-1)^k / ((2k)! (2k - p)), as a one-column _series() array."""
    return np.array([[scale * (-1) ** k / (math.factorial(2 * k) * (2 * k - p))
                      if k else 0.0] for k in range(N_TERMS + 1)])


def _stable_const(p):
    """c_p with int_0^inf (1 - cos xt) t^{-1-p} dt = c_p |x|^p, p in (0, 2)."""
    # sin(pi p/2) = sin(pi (2 - p)/2), and 2 - p is exact for p >= 1: the
    # small argument keeps sin accurate as p -> 2, where c_p is large
    return math.pi / (2.0 * math.gamma(1.0 + p)
                      * math.sin(0.5 * math.pi * min(p, 2.0 - p)))


def _expint(p, x):
    """E_p(-ix) = int_1^inf e^{ixt} t^{-p} dt at the real x, |x| > HEAD_MAX_X.

    The even contraction of the continued fraction of E_p (DLMF 8.19.17;
    Numerical Recipes 6.3), e^{-z} / (z + p - 1 p / (z + p + 2 - 2 (p + 1) /
    (z + p + 4 - ...))) at z = -ix, cut after EXPINT_TERMS levels. With the
    depth fixed, evaluating it from the bottom up gives the convergent that
    modified Lentz (Lentz 1976) reaches in as many steps, with 2 array
    operations per level instead of 8 and less rounding.
    """
    # the partial denominators z + p + 2k of every level k at once
    b = (p - 1j * x) + 2.0 * np.arange(EXPINT_TERMS + 1)[:, None]
    t = b[-1].copy()
    for i in range(EXPINT_TERMS, 0, -1):
        np.divide(-i * (p - 1.0 + i), t, out=t)
        t += b[i - 1]
    return np.exp(1j * x) / t


@dataclass(frozen=True)
class LevyMeasure:
    """Base of the measure families; see the module docstring."""

    kind: ClassVar[str]
    config_keys: ClassVar[tuple] = ()
    symmetric: ClassVar[bool] = True
    # largest possible jump magnitude (inf when unbounded)
    support_bound: ClassVar[float] = 1.0
    # a finite total mass lets jump_quantile take eps <= 0
    finite_mass: ClassVar[bool] = False

    def __post_init__(self):
        for f, key in zip(fields(self), self.config_keys):
            v = getattr(self, f.name)
            if (isinstance(v, bool) or not isinstance(v, numbers.Real)
                    or not math.isfinite(v)):
                raise ConfigError(
                    f"{self.kind} parameter {key!r} must be a finite number, got {v!r}")
            object.__setattr__(self, f.name, float(v))
        self._check()

    def _check(self):
        pass

    # -- moments ------------------------------------------------------------

    def compensator_integral(self) -> float:
        """int_{|y| <= 1} y nu(dy); zero for the symmetric families."""
        return self.signed_moment_interval(0.0, 1.0)

    def tail_mass(self, eps):
        """nu({|y| >= eps}) for eps > 0; scalar or elementwise on arrays."""
        eps = np.asarray(eps, dtype=float)
        if np.any(eps <= 0.0):
            raise ValueError("eps must be positive (total mass may be infinite)")
        return _scalar(self._tail(eps))

    def small_jump_variance(self, eps):
        """int_{|y| < eps} y^2 nu(dy): what truncation at eps discards."""
        return _scalar(self._small_variance(np.asarray(eps, dtype=float)))

    def signed_moment_interval(self, lo, hi):
        """int_{lo <= |y| <= hi} y nu(dy); elementwise in lo, hi."""
        lo, hi = np.broadcast_arrays(np.asarray(lo, float), np.asarray(hi, float))
        return _scalar(self._signed_moment(lo, hi))

    def _signed_moment(self, lo, hi):
        return np.zeros_like(lo)

    # -- jump sampling ------------------------------------------------------

    def jump_quantile(self, u, eps):
        """Inverse CDF of nu restricted to {|y| >= eps}, normalized.

        For the symmetric families u is folded: the sign comes from u < 1/2
        and |2u - 1| drives the magnitude quantile, so a single uniform per
        jump suffices. u is copied once and left as it was; a scalar u is
        evaluated as a one-element array and returned as a numpy float64.
        """
        u = np.array(u, dtype=float)
        eps = float(eps)
        _check_uniforms(u)
        if eps <= 0.0 and not self.finite_mass:
            raise ValueError("eps must be positive: total mass is infinite")
        if eps > 0.0 and self.tail_mass(eps) <= 0.0:
            raise EmptyTruncationError(f"no jumps with |y| >= {eps}")
        out = self._quantile(u.reshape(-1), eps).reshape(u.shape)
        return out if out.ndim else out[()]

    def _quantile(self, u, eps):
        """jump_quantile on a checked 1-d u, which it may overwrite."""
        if not self.symmetric:
            return self._magnitude(u, eps)
        u *= 2.0
        u -= 1.0
        mag = self._magnitude(np.abs(u), eps)
        return np.copysign(mag, u, out=mag)

    def sample_jump_sizes(self, eps, n, rng):
        """Draw n jump sizes from nu conditioned on {|y| >= eps}."""
        return self.jump_quantile(rng.random(int(n)), eps)

    # -- the Levy exponent ------------------------------------------------

    # K switches from _near to _far where |w| > _reach
    _reach: ClassVar[float] = SERIES_MAX_W

    def exponent(self):
        """K(w) = int (e^{iwy} - 1) nu(dy) as a vectorized callable.

        Closed forms at every w: the family's power series (_near) where
        |w| <= _reach, to rounding, and _far beyond. Every series term
        vanishes at w = 0, so K(0) = 0 exactly. K works element by element:
        each value depends on its own w alone, whatever shares its call.
        """
        coef, reach = self._series(), self._reach

        def kfun(ws):
            ws = np.atleast_1d(np.asarray(ws, dtype=float))
            flat = ws.ravel()
            near = np.abs(flat) <= reach
            if near.all():
                return self._near(coef, flat).reshape(ws.shape)
            out = np.empty(flat.shape, dtype=complex)
            out[near] = self._near(coef, flat[near])
            out[~near] = self._far(flat[~near])
            return out.reshape(ws.shape)

        return kfun

    def _near(self, coef, ws):
        s = _horner(coef, ws * ws)
        if coef.shape[1] == 1:
            return s[0] + 0j
        return s[0] + 1j * ws * (coef[0, 1] + s[1])


@dataclass(frozen=True)
class Dickman(LevyMeasure):
    """Density 1/y on (0, 1)."""

    kind = "dickman"
    symmetric = False

    def abs_moment(self) -> float:
        return 1.0

    def second_moment(self) -> float:
        return 0.5

    def _tail(self, eps):
        return np.where(eps < 1.0, -np.log(np.minimum(eps, 1.0)), 0.0)

    def _small_variance(self, eps):
        return 0.5 * np.clip(eps, 0.0, 1.0) ** 2

    def _signed_moment(self, lo, hi):
        return np.maximum(0.0, np.minimum(hi, 1.0) - np.clip(lo, 0.0, 1.0))

    def _magnitude(self, u, eps):
        np.subtract(1.0, u, out=u)
        return np.power(eps, u, out=u)

    def _series(self):
        # -Cin(w) + i Si(w): a_k = (-1)^k / (2k (2k)!),
        # b_k = (-1)^k / ((2k+1) (2k+1)!)
        return np.array([[(-1) ** k / (2 * k * math.factorial(2 * k)) if k else 0.0,
                          (-1) ** k / ((2 * k + 1) * math.factorial(2 * k + 1))]
                         for k in range(N_TERMS + 1)])

    def _far(self, ws):
        # -Cin(w) + i Si(w) = -E_1(-iw) - ln w - gamma + i pi/2 for w > 0
        # (Abramowitz & Stegun 5.1.41, 5.2.2), and K(-w) = conj K(w)
        aw = np.abs(ws)
        k = 0.5j * np.pi - _expint(1.0, aw) - np.log(aw) - np.euler_gamma
        return np.where(ws < 0.0, k.conj(), k)


@dataclass(frozen=True)
class TruncatedStable(LevyMeasure):
    """Density C |y|^{-1-beta} on 0 < |y| <= 1, beta in (0, 1)."""

    beta: float
    big_c: float
    kind = "truncated_stable"
    config_keys = ("beta", "C")

    def _check(self):
        if not 0.0 < self.beta < 1.0:
            raise ConfigError(f"truncated_stable needs beta in (0,1), got {self.beta}")
        if self.big_c <= 0.0:
            raise ConfigError(f"truncated_stable needs C > 0, got {self.big_c}")

    def abs_moment(self) -> float:
        return 2.0 * self.big_c / (1.0 - self.beta)

    def second_moment(self) -> float:
        return 2.0 * self.big_c / (2.0 - self.beta)

    def _tail(self, eps):
        safe = np.minimum(eps, 1.0)
        return np.where(eps < 1.0,
                        (2.0 * self.big_c / self.beta) * (safe ** -self.beta - 1.0),
                        0.0)

    def _small_variance(self, eps):
        return self.second_moment() * np.clip(eps, 0.0, 1.0) ** (2.0 - self.beta)

    def _magnitude(self, v, eps):
        a = eps ** -self.beta
        v *= a - 1.0
        np.subtract(a, v, out=v)
        return np.power(v, -1.0 / self.beta, out=v)

    def _series(self):
        # 2C int_0^1 (cos wy - 1) y^{-1-beta} dy
        return _power_series(self.beta, 2.0 * self.big_c)

    def _far(self, ws):
        # 2C (int_0^inf - int_1^inf) (cos wy - 1) y^{-1-beta} dy
        beta, aw = self.beta, np.abs(ws)
        return 2.0 * self.big_c * (1.0 / beta - aw ** beta * _stable_const(beta)
                                   - _expint(1.0 + beta, aw).real)


@dataclass(frozen=True)
class TwoPoint(LevyMeasure):
    """Atoms of mass lam/2 at +-1; integrals against it are exact sums."""

    lam: float
    kind = "two_point"
    config_keys = ("lambda",)
    finite_mass = True

    def _check(self):
        if self.lam <= 0.0:
            raise ConfigError(f"two_point needs lambda > 0, got {self.lam}")

    def abs_moment(self) -> float:
        return self.lam

    def second_moment(self) -> float:
        return self.lam

    def _tail(self, eps):
        return np.where(eps <= 1.0, self.lam, 0.0)

    def _small_variance(self, eps):
        return np.where(eps > 1.0, self.lam, 0.0)

    def _magnitude(self, v, eps):
        v.fill(1.0)
        return v

    def exponent(self):
        lam = self.lam
        return lambda ws: lam * (np.cos(ws) - 1.0)


@dataclass(frozen=True)
class InnerTruncatedStable(LevyMeasure):
    """Density c |y|^{-1-alpha} on |y| >= delta, alpha in (1, 2)."""

    alpha: float
    c: float
    delta: float
    kind = "inner_truncated_stable"
    config_keys = ("alpha", "c", "delta")
    support_bound = math.inf
    finite_mass = True

    def _check(self):
        if not 1.0 < self.alpha < 2.0:
            raise ConfigError(
                f"inner_truncated_stable needs alpha in (1,2), got {self.alpha}")
        if self.c <= 0.0 or self.delta <= 0.0:
            raise ConfigError("inner_truncated_stable needs c > 0 and delta > 0")

    def abs_moment(self) -> float:
        return 2.0 * self.c * self.delta ** (1.0 - self.alpha) / (self.alpha - 1.0)

    def second_moment(self) -> float:
        raise DivergentMomentError(
            "inner_truncated_stable has a divergent second moment "
            f"(alpha={self.alpha} < 2 with unbounded support)")

    def _tail(self, eps):
        return (2.0 * self.c / self.alpha) * np.maximum(eps, self.delta) ** -self.alpha

    def _small_variance(self, eps):
        if np.any(np.isinf(eps)):
            raise DivergentMomentError(
                "second moment of inner_truncated_stable is infinite")
        ex = 2.0 - self.alpha
        return np.where(eps <= self.delta, 0.0,
                        2.0 * self.c
                        * (np.maximum(eps, self.delta) ** ex - self.delta ** ex) / ex)

    def _magnitude(self, v, eps):
        np.subtract(1.0, v, out=v)
        np.power(v, -1.0 / self.alpha, out=v)
        v *= max(eps, self.delta)
        return v

    @property
    def _reach(self):
        return HEAD_MAX_X / self.delta

    def _series(self):
        # the head int_0^1 (cos xt - 1) t^{-1-alpha} dt in x = |w| delta
        return _power_series(self.alpha, 1.0)

    def _near(self, coef, ws):
        # 2c delta^-alpha (int_0^inf - int_0^1) (cos xt - 1) t^{-1-alpha} dt;
        # the two cancel (see HEAD_MAX_X)
        alpha, x = self.alpha, np.abs(ws) * self.delta
        head = _horner(coef, np.square(x))[0]
        return (2.0 * self.c * self.delta ** -alpha
                * (-(x ** alpha) * _stable_const(alpha) - head)) + 0j

    def _far(self, ws):
        # 2c delta^-alpha int_1^inf (cos xt - 1) t^{-1-alpha} dt
        alpha = self.alpha
        x = np.abs(ws) * self.delta
        return (2.0 * self.c * self.delta ** -alpha
                * (_expint(1.0 + alpha, x).real - 1.0 / alpha))


# the factory names, as the config spells the kinds
dickman, truncated_stable = Dickman, TruncatedStable
two_point, inner_truncated_stable = TwoPoint, InnerTruncatedStable

_FAMILIES = {cls.kind: cls for cls in (Dickman, TruncatedStable, TwoPoint,
                                       InnerTruncatedStable)}


def from_config(cfg: dict) -> LevyMeasure:
    """Build a measure from a config dict like {"kind": "two_point", "lambda": 1.0}."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("measure config must be a dict with a 'kind' key")
    kind = cfg["kind"]
    cls = _FAMILIES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"unknown measure kind {kind!r}")
    given = set(cfg) - {"kind"}
    if given != set(cls.config_keys):
        raise ConfigError(f"measure kind {kind!r} takes keys "
                          f"{sorted(cls.config_keys)}, got {sorted(given)}")
    return cls(*(cfg[key] for key in cls.config_keys))
