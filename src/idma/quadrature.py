"""Deterministic adaptive quadrature on the line and against Levy measures.

The engine is a fixed-order nested Gauss-Legendre pair (15 against 7 nodes)
with worst-first adaptive bisection. Everything is deterministic: the
refinement order depends only on the panel error estimates and the final sum
runs left to right, so results are bit-stable across runs and thread counts.
Integrands must be elementwise: they accept a numpy array of abscissas and
return an array of values (real or complex) of the same shape. Each panel
calls its integrand once, on all 22 nodes (the 15 nodes, then the 7).

integrate_rows is the batched form for integrals that depend on a
parameter: it applies the first 15/7 panel to every parameter row at once,
as one (rows x 22) array pass, and accepts a row on the same test as
integrate_line (finite values, error estimate <= tol). Only the rows it
does not accept are integrated by integrate_line, one row at a time.

integrate_box is the iterated form over a box in R^d: one integrate_line
per axis, the innermost axis vectorized.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError

_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(15)
_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(7)
_NODES = np.concatenate([_NODES_HI, _NODES_LO])
_N_HI = len(_NODES_HI)
_PANEL_EVALS = len(_NODES)
# QUADPACK's roundoff limit: no refinement gets the error estimate below
# about 50 eps times the summed magnitude of the panel values
_ROUNDOFF = 50.0 * np.finfo(float).eps


@dataclass(frozen=True)
class QuadResult:
    """Value, a posteriori error estimate, and integrand evaluation count."""

    value: complex
    error_estimate: float
    evaluations: int


def _nodes(x0, x1):
    half = 0.5 * (x1 - x0)
    return half, 0.5 * (x0 + x1) + half * _NODES


def _rule(y, half):
    """15-node value and |15-node - 7-node| along the last axis of y."""
    # as stacked (1 x n) @ (n x 1) products, every row of a batch is summed
    # by the same dot product, in the same order, as a single panel
    v_hi = half * (y[..., None, :_N_HI] @ _WEIGHTS_HI[:, None])[..., 0, 0]
    v_lo = half * (y[..., None, _N_HI:] @ _WEIGHTS_LO[:, None])[..., 0, 0]
    return v_hi, abs(v_hi - v_lo)


def _panel(h, x0, x1):
    half, xs = _nodes(x0, x1)
    y = np.asarray(h(xs))
    if not np.all(np.isfinite(y)):
        raise ValueError(f"integrand returned a non-finite value on [{x0}, {x1}]")
    return _rule(y, half)


def integrate_line(h, a, b, tol=1e-9, *, breakpoints=(), radius=60.0,
                   max_evals=1_000_000):
    """Integrate ``h`` over [a, b] by worst-first adaptive bisection.

    Infinite endpoints are truncated to ``-radius`` / ``radius``; callers pick
    the radius from kernel decay so the truncation error stays below ``tol``.
    ``breakpoints`` inside the domain become initial panel edges, which keeps
    kinks and jumps off the Gauss nodes. The panel with the largest error
    estimate is bisected until the summed estimate drops below ``tol``;
    panels narrower than the width floor are frozen as-is (a jump inside one
    contributes at most its width). A ``tol`` that the initial panels miss
    and that lies below the roundoff floor, 50 eps times the sum of their
    absolute values, raises NonConvergenceError at once; so does running out
    of the evaluation budget. Either error carries the running estimate. The
    final sum runs left to right over the surviving panels, so results are
    bit-stable.
    """
    lo = -float(radius) if math.isinf(a) and a < 0 else float(a)
    hi = float(radius) if math.isinf(b) and b > 0 else float(b)
    if hi < lo:
        raise ValueError("inverted interval")
    if hi == lo:
        return QuadResult(0.0, 0.0, 0)
    edges = [lo]
    for p in sorted(set(float(q) for q in breakpoints)):
        if lo < p < hi and p - edges[-1] > 1e-13 * max(1.0, abs(p)):
            edges.append(p)
    edges.append(hi)

    panels = []                 # [x0, x1, value, err, alive]
    heap = []                   # (-err, panel index); index breaks ties
    evals = 0
    is_complex = False

    def add_panel(x0, x1):
        nonlocal evals, is_complex
        v, e = _panel(h, x0, x1)
        evals += _PANEL_EVALS
        is_complex = is_complex or np.iscomplexobj(v)
        heapq.heappush(heap, (-e, len(panels)))
        panels.append([x0, x1, v, e, True])
        return e

    total_err = 0.0
    frozen_err = 0.0
    for i in range(len(edges) - 1):
        total_err += add_panel(edges[i], edges[i + 1])
    floor = _ROUNDOFF * sum(abs(p[2]) for p in panels)
    if total_err > tol and tol < floor:
        raise NonConvergenceError(
            f"tol {tol:.3e} is below the roundoff floor {floor:.3e} of this "
            f"integral (running error {total_err:.3e})",
            evaluations=evals, error_estimate=total_err)

    while heap and total_err > tol:
        neg_e, idx = heapq.heappop(heap)
        x0, x1, _, e, _ = panels[idx]
        if x1 - x0 <= 1e-14 * max(1.0, abs(x0), abs(x1)):
            # cannot refine further; keep its value, move error aside
            total_err -= e
            frozen_err += e
            continue
        if evals + 2 * _PANEL_EVALS > max_evals:
            raise NonConvergenceError(
                f"quadrature budget of {max_evals} evaluations exhausted "
                f"(running error {total_err:.3e}, tol {tol:.3e})",
                evaluations=evals, error_estimate=total_err)
        panels[idx][4] = False
        total_err -= e
        xm = 0.5 * (x0 + x1)
        total_err += add_panel(x0, xm)
        total_err += add_panel(xm, x1)

    alive = sorted((p for p in panels if p[4]), key=lambda p: p[0])
    value = 0.0 + 0.0j
    for p in alive:
        value += p[2]
    out = complex(value) if is_complex else float(value.real)
    return QuadResult(out, total_err + frozen_err, evals)


def integrate_rows(h, rows, a, b, tol=1e-9):
    """Integrate ``h(row, x)`` over the finite [a, b] for every entry of ``rows``.

    ``h(rows[:, None], xs[None, :])`` is called once on the 22 nodes of the
    single panel [a, b] and must return a (len(rows), 22) array. A row whose
    values are finite and whose error estimate is at most ``tol`` takes
    that panel's value, which is what integrate_line returns for it without
    refining. Every other row is integrated by integrate_line on its own, so
    its result, and any error it raises, are those of a per-row call.
    Returns the values as a 1-d array.
    """
    rows = np.asarray(rows, dtype=float)
    half, xs = _nodes(float(a), float(b))
    y = np.asarray(h(rows[:, None], xs[None, :]))
    with np.errstate(invalid="ignore"):
        out, err = _rule(y, half)
    redo = ~((err <= tol) & np.all(np.isfinite(y), axis=1))
    for i in np.flatnonzero(redo):
        out[i] = integrate_line(lambda x, _r=rows[i]: h(_r, x), a, b, tol).value
    return out


def integrate_box(last_vec, boxes, breaks, tol=1e-9, max_evals=1_000_000):
    """Iterated integral over a box; only the innermost axis is vectorized.

    last_vec(prefix, xs) evaluates the integrand at points whose leading
    coordinates are the floats in prefix and whose last coordinate ranges
    over the array xs. Axis k spans boxes[k] with breakpoints breaks[k].
    Every level is an integrate_line call with its own ``max_evals``; an
    inner level passes on its value only, so the returned QuadResult, that
    of the outermost axis, counts neither the inner errors nor their
    evaluations.
    """
    d = len(boxes)

    def rec(level, prefix):
        if level == d - 1:
            fn = lambda xs: last_vec(prefix, xs)
        else:
            fn = lambda xs: np.array([rec(level + 1, prefix + (float(x),)).value
                                      for x in xs])
        lo, hi = boxes[level]
        return integrate_line(fn, lo, hi, tol, breakpoints=breaks[level],
                              max_evals=max_evals)

    return rec(0, ())


def integrate_levy(h, measure, tol=1e-9, *, max_evals=1_000_000, h_sup=2.0):
    """Integrate ``h`` against a Levy measure, handling its singularities.

    Atomic measures are summed exactly. Absolutely continuous ones are
    reduced to a proper integral on a bounded interval first, each family
    by its own substitution (idma.levy). ``h_sup`` is the caller's bound on
    |h| (2 covers any e^{i...}-1 integrand); a measure with unbounded
    support drops its tail once sup|h| times the tail mass is <= tol/2.
    """
    return measure.integrate(h, tol, max_evals=max_evals, h_sup=h_sup)
