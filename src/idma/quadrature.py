"""Deterministic adaptive quadrature on the line and over boxes.

The engine is a fixed-order nested Gauss-Legendre pair (15 against 7 nodes)
with worst-first adaptive bisection. Everything is deterministic: the
refinement order depends only on the panel error estimates and the final sum
runs left to right, so results are bit-stable across runs and thread counts.
Integrands must be elementwise: they accept a numpy array of abscissas and
return an array of values (real or complex) of the same shape.

One engine run refines R independent bisections (rows), each from its own
initial panel edges and exactly as integrate_line alone. Each step makes
one integrand call, on the 22 nodes (the 15, then the 7) of every panel the
step evaluates: first every initial panel of every row, then, per step, the
left and the right half of the panel each refining row splits.
integrate_line is R = 1. integrate_box batches a box in R^d by levels,
passing the leading coordinates to the innermost axis as (rows, 1) columns,
so each step of an outer level starts one engine run of the next; _box_rows
does the same for many boxes at once, one top row each.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import NonConvergenceError


def _mirror(nodes, weights):
    """A symmetric rule from its nonnegative nodes, ascending from 0, and weights."""
    return (np.array([-x for x in nodes[:0:-1]] + nodes),
            np.array(weights[:0:-1] + weights))


# the 15- and 7-node Gauss-Legendre rules as numpy's leggauss computes them,
# written out because importing numpy.polynomial costs 5-6 ms
_NODES_HI, _WEIGHTS_HI = _mirror(
    [0.0, 0.20119409399743451, 0.3941513470775634, 0.5709721726085388,
     0.7244177313601701, 0.8482065834104272, 0.9372733924007058,
     0.9879925180204854],
    [0.2025782419255613, 0.1984314853271116, 0.1861610000155622,
     0.16626920581699398, 0.13957067792615444, 0.10715922046717141,
     0.0703660474881084, 0.030753241996117203])
_NODES_LO, _WEIGHTS_LO = _mirror(
    [0.0, 0.4058451513773972, 0.7415311855993945, 0.9491079123427586],
    [0.4179591836734693, 0.3818300505051187, 0.27970539148927687,
     0.12948496616886973])
_NODES = np.concatenate([_NODES_HI, _NODES_LO])
_N_HI = len(_NODES_HI)
_PANEL_EVALS = len(_NODES)
# QUADPACK's roundoff limit: no refinement gets the error estimate below
# about 50 eps times the summed magnitude of the panel values
_ROUNDOFF = 50.0 * np.finfo(float).eps
# node budget of the first innermost integrand call of one _box_rows run
_MAX_NODES = 1 << 17


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
    """Initial panel edges of [a, b]; just [a] when the interval is a point."""
    lo = -float(radius) if math.isinf(a) and a < 0 else float(a)
    hi = float(radius) if math.isinf(b) and b > 0 else float(b)
    if hi < lo:
        raise ValueError("inverted interval")
    edges = [lo]
    for p in sorted(set(float(q) for q in breakpoints)):
        if lo < p < hi and p - edges[-1] > 1e-13 * max(1.0, abs(p)):
            edges.append(p)
    return edges + [hi] if hi > lo else edges


def _adapt(h, edges, tol, max_evals):
    """Worst-first bisections of the rows of ``edges``, one integrand call a step.

    Row r starts from the panels between its initial edges edges[r] (a
    (rows, k) array); a row with fewer panels repeats its last edge, and
    these empty panels add exact zeros and are never evaluated, refined or
    counted. h(rows, xs) gets the nodes of a step as the array xs of shape
    (..., 22), whose leading axes hold the step's panels: the nonempty
    initial panels in one axis, panel by panel and in row order within a
    panel (the (panels, rows) grid when no panel is empty), then the
    (2, rows) left and right halves of each step. rows broadcasts to those
    axes and gives each panel's row. h returns (values, aux) of as many
    elements, aux None or the per-node error estimates of inner integrals.
    Each row refines as integrate_line does, with its own heap and
    ``max_evals``. Returns per-row values and errors (aux integrated over
    the surviving panels added) and the evaluation count of all rows.
    """
    n = len(edges)
    if edges.shape[1] < 2:
        return np.zeros(n), np.zeros(n), 0

    def evaluate(rows, a, b):
        # the panels [a, b] of a step in one call; per panel, its 15-node
        # value and error, and the nodes' inner error estimates or None
        half = 0.5 * (b - a)
        xs = 0.5 * (a + b)[..., None] + half[..., None] * _NODES
        y, aux = h(rows, xs)
        y = y.reshape(xs.shape)
        if not np.isfinite(y).all():
            i = tuple(np.argwhere(~np.isfinite(y).all(axis=-1))[0])
            raise ValueError("integrand returned a non-finite value on "
                             f"{[float(a[i]), float(b[i])]}")
        return (*_rule(y, half), None if aux is None else aux.reshape(xs.shape))

    def inner_errors(a, b, nodes):
        # inner errors integrated by the 15-node weights of the panels [a, b],
        # as _rule sums values: one product per panel, whatever shares it
        if nodes is None:
            return np.zeros(a.shape)
        return 0.5 * (b - a) * (nodes[..., None, :_N_HI] @ _WEIGHTS_HI[:, None])[..., 0, 0]

    # the nonempty initial panels in one call, spread to (panels, rows) arrays
    # with zeros for the empty ones; with none empty, the (panels, rows) grid
    # holds the same panels in the same order
    ends = np.ascontiguousarray(edges.T)
    full = ends[1:] > ends[:-1]
    if full.all():
        v, e, nodes = evaluate(np.arange(n), ends[:-1], ends[1:])
    else:
        pan, row = full.nonzero()

        def spread(c):
            out = np.zeros((*full.shape, *c.shape[1:]), c.dtype)
            out[pan, row] = c
            return out

        v, e, nodes = evaluate(row, ends[pan, row], ends[pan + 1, row])
        v, e, nodes = spread(v), spread(e), None if nodes is None else spread(nodes)
    aux = inner_errors(ends[:-1], ends[1:], nodes)
    # left-to-right sums over the panels, as integrate_line's final sum
    value, err = sum(v[1:], 0.0 + v[0]), sum(e[1:], e[0])
    inner = sum(aux[1:], aux[0].copy())
    # refining rows: [error, frozen error, panels [x0, x1, v, e|None, aux], heap];
    # a row made 22 evaluations per panel, and a sorted list is a heap
    evals, rows = int(np.count_nonzero(full)) * _PANEL_EVALS, {}
    live = (err > tol).nonzero()[0].tolist()
    sel = live if len(live) < n else slice(None)
    cols = [a[:, sel].T.tolist() for a in (v, e, aux)] + [edges[sel].tolist()] if live else ()
    if live:
        # each refining row's floor, summed left to right over its panels
        floor = _ROUNDOFF * sum(abs(v[1:, sel]), abs(v[0, sel]))
        if (floor > tol).any():
            j = int((floor > tol).nonzero()[0][0])
            raise NonConvergenceError(
                f"tol {tol:.3e} is below the roundoff floor {floor[j]:.3e} of this "
                f"integral (running error {err[live[j]]:.3e})",
                evaluations=int(np.count_nonzero(np.diff(edges[live[j]]))) * _PANEL_EVALS,
                error_estimate=float(err[live[j]]))
    for r, vs, es, auxs, x in zip(live, *cols):
        ps = [[*s, *p] for s, p in zip(zip(x[:-1], x[1:]), zip(vs, es, auxs))
              if s[1] > s[0]]
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
        ends = np.array(split)[:, 1:].T
        v, e, nodes = evaluate(np.array(live), ends[:2], ends[1:])
        aux = inner_errors(ends[:2], ends[1:], nodes)
        for (r, a, m, b), *new in zip(split, *(c.T.tolist() for c in (v, e, aux))):
            st = rows[r]
            for p in zip((a, m), (m, b), *new):
                st[0] += p[3]
                heapq.heappush(st[3], (-p[3], len(st[2])))
                st[2].append(list(p))
    for r, (running, frozen, ps, _) in rows.items():
        total, aux_sum = 0.0 + 0.0j, 0.0
        for p in sorted((p for p in ps if p[3] is not None), key=itemgetter(0)):
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
    line = lambda rows, xs: (np.asarray(h(xs.ravel())).reshape(xs.shape), None)
    v, e, n = _adapt(line, np.array([_edges(a, b, breakpoints, radius)]), tol, max_evals)
    return QuadResult(v[0].item(), float(e[0]), n)


def integrate_box(last_vec, boxes, breaks, tol=1e-9, max_evals=1_000_000):
    """Iterated integral over a box, batched by levels.

    last_vec(prefix, xs) gets the leading coordinates as (rows, 1) columns
    and the last one as the (rows, 22) array xs. Axis k spans boxes[k] with
    breakpoints breaks[k]; each engine step of axis k runs axis k + 1 for
    all outer nodes of the step, in all its panels, in one engine run.
    Every row refines on its own ``max_evals``, so values are those of one
    integrate_line per outer node. The error estimate adds the inner ones, integrated by the
    outer 15-node weights over the surviving outer panels, and the
    evaluation count covers every level.
    """
    v, e, n = _box_rows(lambda top, prefix, xs: last_vec(prefix, xs), [boxes],
                        [breaks], tol, max_evals)
    return QuadResult(v[0].item(), float(e[0]), n)


def _box_rows(last_vec, boxes, breaks, tol, max_evals):
    """integrate_box over several boxes at once, one top row each.

    boxes[i] lists the d axis ranges of top row i and breaks[i] their
    breakpoints, one list per axis. last_vec(top, prefix, xs) also gets
    the top row of each of its rows, and may return (values, aux), aux the
    nodes' error estimates of an integral inside them (see _adapt). Every
    row of a level carries its top row's box down,
    its edge list padded to the longest with empty panels, which start no
    inner run (see _adapt). Returns per-row values and errors and the
    evaluation count of all rows and levels.
    """
    d, evals = len(boxes[0]), []
    # per axis, the top rows' initial edges, each padded with its last one;
    # rows of one range and breakpoints share them
    tables, known = [], {}
    for k in range(d):
        per_row = []
        for box, brk in zip(boxes, breaks):
            key = (tuple(box[k]), tuple(brk[k]))
            if key not in known:
                known[key] = _edges(*box[k], brk[k], 60.0)
            per_row.append(known[key])
        width = max(map(len, per_row))
        tables.append(np.array([x + x[-1:] * (width - len(x)) for x in per_row]))

    def level(k, top, prefix):
        def h(row, xs):
            # each panel's row, broadcast to the panels of xs
            row = np.broadcast_to(row, xs.shape[:-1]).ravel()
            rows, cols = top[row], prefix[row]
            xs = xs.reshape(-1, _PANEL_EVALS)
            if k == d - 1:
                out = last_vec(rows, tuple(cols.T[..., None]), xs)
                return out if isinstance(out, tuple) else (out, None)
            rep = lambda c: np.repeat(c, _PANEL_EVALS, axis=0)
            return level(k + 1, rep(rows),
                         np.concatenate([rep(cols), xs.reshape(-1, 1)], axis=1))

        v, e, ev = _adapt(h, tables[k][top], tol, max_evals)
        evals.append(ev)
        return v, e

    # top rows run in chunks whose first innermost call has at most about
    # _MAX_NODES nodes, so memory stays bounded however many rows come
    per_row = math.prod((t.shape[1] - 1) * _PANEL_EVALS for t in tables)
    step = max(1, _MAX_NODES // max(per_row, 1))
    runs = [level(0, top, np.empty((len(top), 0)))
            for top in np.split(np.arange(len(boxes)), range(step, len(boxes), step))]
    return (*map(np.concatenate, zip(*runs)), sum(evals))
