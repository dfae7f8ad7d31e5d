"""Deterministic adaptive quadrature on the line and over boxes.

The engine is a fixed-order nested Gauss-Legendre pair (15 against 7 nodes)
with worst-first adaptive bisection. Everything is deterministic: the
refinement order depends only on the panel error estimates and the final sum
runs left to right, so results are bit-stable across runs and thread counts.
Integrands must be elementwise: they accept a numpy array of abscissas and
return an array of values (real or complex) of the same shape.

One engine runs R independent bisections (rows) that share their initial
panel edges, each exactly as integrate_line alone. Each integrand call
evaluates one panel slot of all active rows, as one (rows x 22) array pass on
the 22 nodes (the 15, then the 7): one call per initial panel, then one for
the left and one for the right halves of each step. integrate_line is R = 1;
integrate_box batches a box in R^d by levels, passing the leading
coordinates to the innermost axis as (rows, 1) columns.
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


def _rule(y, half):
    """15-node value and |15-node - 7-node| along the last axis of y."""
    # as stacked (1 x n) @ (n x 1) products, every row of a batch is summed
    # by the same dot product, in the same order, as a single panel
    v_hi = half * (y[..., None, :_N_HI] @ _WEIGHTS_HI[:, None])[..., 0, 0]
    v_lo = half * (y[..., None, _N_HI:] @ _WEIGHTS_LO[:, None])[..., 0, 0]
    return v_hi, abs(v_hi - v_lo)


def _edges(a, b, breakpoints, radius):
    """Initial panel edges of [a, b]; empty when the interval is a point."""
    lo = -float(radius) if math.isinf(a) and a < 0 else float(a)
    hi = float(radius) if math.isinf(b) and b > 0 else float(b)
    if hi < lo:
        raise ValueError("inverted interval")
    edges = [lo]
    for p in sorted(set(float(q) for q in breakpoints)):
        if lo < p < hi and p - edges[-1] > 1e-13 * max(1.0, abs(p)):
            edges.append(p)
    return edges + [hi] if hi > lo else []


def _adapt(h, n, edges, tol, max_evals):
    """n worst-first bisections over the same initial edges, one call per slot.

    h(idx, xs) gets the (rows, 22) nodes of rows idx and returns (values, aux),
    aux None or the per-node error estimates of inner integrals. Each row
    refines as integrate_line does, with its own heap and ``max_evals``.
    Returns per-row values and errors (aux integrated over the surviving
    panels added) and the evaluation count of all rows.
    """
    if not edges:
        return np.zeros(n), np.zeros(n), 0

    def evaluate(idx, spans):
        # one call per slot p; row idx[j] has panel spans[p][j] (spans[p][0] if shared)
        hm = np.array([f for row in spans for a, b in row for f in
                       (0.5 * (b - a), 0.5 * (a + b))]).reshape(len(spans), -1, 2)
        half, xs = hm[..., 0], hm[..., 1:] + hm[..., :1] * _NODES
        xs = xs if xs.shape[1] == len(idx) else xs.repeat(len(idx), 1)
        out = [h(idx, xs[p]) for p in range(len(spans))]
        y = out[0][0][None] if len(out) == 1 else np.array([o[0] for o in out])
        if not np.isfinite(y).all():
            p, j = np.argwhere(~np.isfinite(y).all(axis=-1))[0]
            raise ValueError("integrand returned a non-finite value on "
                             f"{list(spans[p][j % len(spans[p])])}")
        v, e = _rule(y, half)
        if out[0][1] is None:
            return v, e, 0.0 * e
        return v, e, half * (np.array([o[1] for o in out])[..., :_N_HI] @ _WEIGHTS_HI)

    # refining rows: [error, frozen error, panels [x0, x1, v, e|None, aux], heap];
    # a row made 22 evaluations per panel, and a sorted list is a heap
    slots = list(zip(edges[:-1], edges[1:]))
    v, e, aux = evaluate(range(n), [[s] for s in slots])
    # left-to-right sums over the slots, as integrate_line's final sum
    value, err = sum(v[1:], 0.0 + v[0]), sum(e[1:], e[0])
    inner = sum(aux[1:], aux[0].copy())
    evals, rows = n * len(slots) * _PANEL_EVALS, {}
    live = (err > tol).nonzero()[0].tolist()
    sel = live if len(live) < n else slice(None)
    cols = [a[:, sel].T.tolist() for a in (v, e, aux)] if live else ()
    for r, vs, es, auxs in zip(live, *cols):
        floor = _ROUNDOFF * sum(abs(x) for x in vs)
        if tol < floor:
            raise NonConvergenceError(
                f"tol {tol:.3e} is below the roundoff floor {floor:.3e} of this "
                f"integral (running error {err[r]:.3e})",
                evaluations=len(slots) * _PANEL_EVALS, error_estimate=float(err[r]))
        ps = [[*s, *p] for s, p in zip(slots, zip(vs, es, auxs))]
        rows[r] = [float(err[r]), 0.0, ps, sorted((-p[3], i) for i, p in enumerate(ps))]
    while live:
        split = []
        for r in live:
            st = rows[r]
            while st[3] and st[0] > tol:
                p = st[2][heapq.heappop(st[3])[1]]
                x0, x1, e = p[0], p[1], p[3]
                if x1 - x0 <= 1e-14 * max(1.0, abs(x0), abs(x1)):
                    # cannot refine further; keep its value, move error aside
                    st[0] -= e
                    st[1] += e
                    continue
                if _PANEL_EVALS * (len(st[2]) + 2) > max_evals:
                    raise NonConvergenceError(
                        f"quadrature budget of {max_evals} evaluations exhausted "
                        f"(running error {st[0]:.3e}, tol {tol:.3e})",
                        evaluations=_PANEL_EVALS * len(st[2]), error_estimate=st[0])
                p[3] = None
                st[0] -= e
                split.append((r, x0, 0.5 * (x0 + x1), x1))
                break
        live = [s[0] for s in split]
        if not live:
            break
        evals += 2 * _PANEL_EVALS * len(live)
        v, e, aux = evaluate(live, [[s[1:3] for s in split], [s[2:] for s in split]])
        for (r, a, m, b), *new in zip(split, *(c.T.tolist() for c in (v, e, aux))):
            st = rows[r]
            for p in zip((a, m), (m, b), *new):
                st[0] += p[3]
                heapq.heappush(st[3], (-p[3], len(st[2])))
                st[2].append(list(p))
    for r, (running, frozen, ps, _) in rows.items():
        total, aux_sum = 0.0 + 0.0j, 0.0
        for p in sorted((p for p in ps if p[3] is not None), key=lambda p: p[0]):
            total += p[2]
            aux_sum += p[4]
        value[r] = total if value.dtype.kind == "c" else total.real
        err[r], inner[r] = running + frozen, aux_sum
    return value, err + inner, evals


def integrate_line(h, a, b, tol=1e-9, *, breakpoints=(), radius=60.0,
                   max_evals=1_000_000):
    """Integrate ``h`` over [a, b] by worst-first adaptive bisection.

    Infinite endpoints are truncated to ``-radius`` / ``radius``, picked by
    callers from kernel decay. ``breakpoints`` inside the domain become
    initial panel edges, keeping kinks off the Gauss nodes. The worst panel
    is bisected until the summed estimate drops below ``tol``; panels under
    the width floor are frozen as-is. A ``tol`` that the initial panels miss
    and that lies below their roundoff floor (50 eps times the sum of their
    absolute values) raises NonConvergenceError at once, as does exhausting
    the evaluation budget; either carries the running estimate.
    """
    v, e, n = _adapt(lambda idx, xs: (np.asarray(h(xs[0]))[None], None), 1,
                     _edges(a, b, breakpoints, radius), tol, max_evals)
    return QuadResult(v[0].item(), float(e[0]), n)


def integrate_box(last_vec, boxes, breaks, tol=1e-9, max_evals=1_000_000):
    """Iterated integral over a box, batched by levels.

    last_vec(prefix, xs) gets the leading coordinates as (rows, 1) columns
    and the last one as the (rows, 22) array xs. Axis k spans boxes[k] with
    breakpoints breaks[k]; each call of its integrand runs axis k + 1 for all
    outer nodes of one panel slot in one engine run. Every row refines on
    its own ``max_evals``, so values are those of one integrate_line per
    outer node. The error estimate adds the inner ones, integrated by the
    outer 15-node weights over the surviving outer panels, and the
    evaluation count covers every level.
    """
    d, evals = len(boxes), []

    def level(k, prefix, n):
        def h(idx, xs):
            cols = tuple(c[idx] for c in prefix)
            if k == d - 1:
                return last_vec(cols, xs), None
            cols = tuple(np.repeat(c, _PANEL_EVALS, axis=0) for c in cols)
            v, e = level(k + 1, cols + (xs.reshape(-1, 1),), xs.size)
            return v.reshape(xs.shape), e.reshape(xs.shape)

        v, e, ev = _adapt(h, n, _edges(*boxes[k], breaks[k], 60.0), tol, max_evals)
        evals.append(ev)
        return v, e

    v, e = level(0, (), 1)
    return QuadResult(v[0].item(), float(e[0]), sum(evals))

