"""Outside-in tracer: spans around the calls into idma's layers.

The tracer edits nothing under src/. While installed, every public function
of the seven layer modules is replaced by a timing wrapper at each place a
caller looks it up: the module's own namespace (which also catches calls
inside the module), every other idma module that imported it by name, and
the package namespace. Public methods of LevyMeasure, Kernel1D and
ProductKernel are wrapped on their classes, and the f/g of every kernel that
kernels.from_config returns are wrapped on the instance. uninstall() puts
every original back.

A span is (id, parent id, function, thread, start, end, aux). Each thread
keeps its own span stack, so spans inside the Monte Carlo thread pool nest
correctly; a span that starts on an empty worker stack is a child of the
innermost span open on the main thread (monte_carlo, which is waiting on the
pool). aux carries the per-call count the layer metrics need: quadrature
evaluations, kernel points, jumps, rows, failed T values, or the process CPU
seconds of a monte_carlo call. Spans stay in memory until the session ends.

Integrand closures that analytic hands to quadrature run inside quadrature
spans; only their calls into wrapped functions (integrate_levy, kernel f/g)
split out as children, so quadrature self time includes analytic's
integrand code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from array import array

import numpy as np

LAYERS = ("cli", "verify", "analytic", "quadrature", "levy", "kernels",
          "simulate")
_CLASSES = {"levy": ("LevyMeasure",), "kernels": ("Kernel1D", "ProductKernel")}
# Gauss-Kronrod-style panel of idma.quadrature: 15 + 7 nodes
PANEL_EVALS = 22


def _jumps_of(args, kwargs):
    return (args[0] if args else kwargs["jumps"]).n


_PROBES = {
    "quadrature.integrate_line": lambda a, k, out: out.evaluations,
    "quadrature.integrate_levy": lambda a, k, out: out.evaluations,
    "levy.LevyMeasure.sample_jump_sizes": lambda a, k, out: np.size(out),
    "kernels.f": lambda a, k, out: np.size(out),
    "kernels.g": lambda a, k, out: np.size(out),
    "simulate.window_integral": lambda a, k, out: _jumps_of(a, k),
    "simulate.write_replicates_csv": lambda a, k, out: a[1].S.size,
    "verify.cf_convergence": lambda a, k, out: len(out.failed_T),
}
_CPU = frozenset({"simulate.monte_carlo"})

# The per-layer metrics layer_metrics returns, with their units.
UNITS = {
    "cli.self_s": "s", "cli.load_config_ms": "ms",
    "verify.self_s": "s", "verify.failed_T": "count",
    "analytic.log_cf_calls": "count",
    "analytic.log_cf_window.ms_per_call": "ms",
    "analytic.log_cf_limit.ms_per_call": "ms",
    "analytic.log_cf_stationary.ms_per_call": "ms",
    "analytic.self_s": "s", "analytic.check_conditions_ms": "ms",
    "analytic.variance_window_quadrature_ms": "ms",
    "quadrature.line_calls": "count", "quadrature.panels": "count",
    "quadrature.self_s": "s", "quadrature.us_per_panel": "us",
    "quadrature.levy_calls": "count", "quadrature.us_per_levy_call": "us",
    "quadrature.panels_per_levy_call": "count",
    "quadrature.nonconverged": "count",
    "levy.jumps_drawn": "count", "levy.sample_ns_per_jump": "ns",
    "levy.tail_mass_calls": "count",
    "kernels.g_calls": "count", "kernels.g_points": "count",
    "kernels.g_ns_per_point": "ns", "kernels.f_calls": "count",
    "kernels.f_points": "count", "kernels.self_s": "s",
    "simulate.replicates": "count", "simulate.jumps_per_replicate": "count",
    "simulate.stream_us_per_replicate": "us",
    "simulate.draw_us_per_replicate": "us", "simulate.loop_self_s": "s",
    "simulate.functional_calls": "count",
    "simulate.functional_ns_per_jump": "ns", "simulate.cpu_per_wall": "1",
    "simulate.rows_written": "count", "simulate.write_us_per_row": "us",
}
# Those that are counts repeat exactly for a fixed seed.
COUNTS = tuple(name for name, unit in UNITS.items() if unit == "count")


class Tracer:
    """Wraps idma's public functions while installed; use as a context manager."""

    def __init__(self):
        self.names = []
        self._index = {}
        self._restore = []
        self._buffers = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self._main_stack = []
        self.nonconverged = []
        self._nce = None

    # -- recording ------------------------------------------------------

    def _thread_state(self):
        buf, stack = array("d"), []
        with self._lock:
            tix = float(len(self._buffers))
            self._buffers.append(buf)
        self._local.state = (buf, stack, tix)
        return self._local.state

    def _wrap(self, fn, name):
        if name not in self._index:
            self._index[name] = float(len(self.names))
            self.names.append(name)
        idx = self._index[name]
        probe, cpu = _PROBES.get(name), name in _CPU
        local, ids, perf, nonconv = self._local, self._ids, time.perf_counter, self.nonconverged
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                buf, stack, tix = local.state
            except AttributeError:
                buf, stack, tix = tracer._thread_state()
            sid = next(ids)
            if stack:
                parent = stack[-1]
            else:
                top = tracer._main_stack[-1:]
                parent = top[0] if top else -1
            stack.append(sid)
            c0 = time.process_time() if cpu else 0.0
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = perf()
                stack.pop()
                aux = 0.0
                # the span that raised first carries the failed evaluations
                if isinstance(exc, tracer._nce) and not any(e is exc for e in nonconv):
                    nonconv.append(exc)
                    aux = float(exc.evaluations or 0)
                buf.extend((sid, parent, idx, tix, t0, t1, aux))
                raise
            t1 = perf()
            stack.pop()
            if cpu:
                aux = time.process_time() - c0
            else:
                aux = float(probe(args, kwargs, out)) if probe else 0.0
            buf.extend((sid, parent, idx, tix, t0, t1, aux))
            return out

        return wrapper

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_kernel(self, kernel):
        for comp in getattr(kernel, "components", (kernel,)):
            for attr in ("f", "g"):
                fn = getattr(comp, attr)
                if fn is not None:
                    self._set(comp, attr, self._wrap(fn, f"kernels.{attr}"))

    # -- install / uninstall --------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer is already installed")
        mods = {layer: importlib.import_module(f"idma.{layer}") for layer in LAYERS}
        self._nce = importlib.import_module("idma.errors").NonConvergenceError
        self._main_stack = self._thread_state()[1]

        wrappers = {}
        for layer, mod in mods.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
        from_config = mods["kernels"].from_config
        traced_from_config = wrappers[from_config]

        @functools.wraps(from_config)
        def kernel_from_config(*args, **kwargs):
            kernel = traced_from_config(*args, **kwargs)
            self._wrap_kernel(kernel)
            return kernel

        wrappers[from_config] = kernel_from_config

        for mod in (importlib.import_module("idma"), *mods.values()):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, name, wrappers[obj])
        for layer, classes in _CLASSES.items():
            for cname in classes:
                cls = getattr(mods[layer], cname)
                for name, obj in list(vars(cls).items()):
                    if inspect.isfunction(obj) and not name.startswith("_"):
                        self._set(cls, name, self._wrap(obj, f"{layer}.{cname}.{name}"))
        return self

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------

    def spans(self) -> np.ndarray:
        """All recorded spans as an (n, 7) array sorted by span id."""
        parts = [np.frombuffer(b, dtype=float) for b in self._buffers if len(b)]
        rows = np.concatenate(parts).reshape(-1, 7) if parts else np.empty((0, 7))
        return rows[np.argsort(rows[:, 0], kind="stable")]

    def save(self, path):
        np.savez_compressed(path, spans=self.spans(), names=np.array(self.names))

    def metrics(self) -> dict:
        return layer_metrics(self.spans(), self.names, len(self.nonconverged))


def _union_length(a, b):
    order = np.argsort(a, kind="stable")
    a, b = a[order], b[order]
    reach = np.maximum.accumulate(b)
    new = np.ones(a.size, dtype=bool)
    new[1:] = a[1:] > reach[:-1]
    starts = np.nonzero(new)[0]
    return float(np.sum(np.maximum.reduceat(b, starts) - a[starts]))


def function_stats(spans: np.ndarray, names: list) -> dict:
    """Per function: calls, total and self seconds, summed aux.

    Self time is a span's duration minus the part of it its child spans
    cover, so recursion (nested integrate_line) is not counted twice.
    """
    sid, parent, fn, thread, t0, t1, aux = spans.T
    fn = fn.astype(int)
    dur = t1 - t0
    covered = np.zeros(sid.size)
    kids = np.nonzero(parent >= 0)[0]
    prow = np.searchsorted(sid, parent[kids])
    same = thread[kids] == thread[prow]
    np.add.at(covered, prow[same], dur[kids[same]])
    for p in np.unique(prow[~same]):
        mine = kids[prow == p]
        covered[p] = _union_length(t0[mine], t1[mine])
    selft = dur - covered
    k = len(names)
    calls = np.bincount(fn, minlength=k)
    total = np.bincount(fn, weights=dur, minlength=k)
    own = np.bincount(fn, weights=selft, minlength=k)
    auxs = np.bincount(fn, weights=aux, minlength=k)
    return {name: {"calls": int(calls[i]), "total": float(total[i]),
                   "self": float(own[i]), "aux": float(auxs[i])}
            for i, name in enumerate(names)}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans: np.ndarray, names: list, nonconverged: int) -> dict:
    """The per-layer metrics of one traced session (times in seconds unless named)."""
    st = function_stats(spans, names)
    zero = {"calls": 0, "total": 0.0, "self": 0.0, "aux": 0.0}
    g = lambda name: st.get(name, zero)
    layer_self = {layer: sum(v["self"] for n, v in st.items()
                             if n.startswith(layer + "."))
                  for layer in LAYERS}

    log_cf = [g(f"analytic.log_cf_{v}") for v in ("window", "limit", "stationary")]
    line, levy_call = g("quadrature.integrate_line"), g("quadrature.integrate_levy")
    panels = line["aux"] / PANEL_EVALS
    draw = g("levy.LevyMeasure.sample_jump_sizes")
    jumps = draw["aux"]
    kf, kg = g("kernels.f"), g("kernels.g")
    mc, stream = g("simulate.monte_carlo"), g("simulate.stream_for")
    wi, ls = g("simulate.window_integral"), g("simulate.limit_sum")
    write = g("simulate.write_replicates_csv")
    reps = stream["calls"]
    out = {
        "cli.self_s": layer_self["cli"],
        "cli.load_config_ms": 1e3 * _ratio(g("cli.load_config")["total"],
                                           g("cli.load_config")["calls"]),
        "verify.self_s": layer_self["verify"],
        "verify.failed_T": g("verify.cf_convergence")["aux"],
        "analytic.log_cf_calls": sum(v["calls"] for v in log_cf),
        "analytic.log_cf_window.ms_per_call": 1e3 * _ratio(log_cf[0]["total"], log_cf[0]["calls"]),
        "analytic.log_cf_limit.ms_per_call": 1e3 * _ratio(log_cf[1]["total"], log_cf[1]["calls"]),
        "analytic.log_cf_stationary.ms_per_call": 1e3 * _ratio(log_cf[2]["total"], log_cf[2]["calls"]),
        "analytic.self_s": layer_self["analytic"],
        "analytic.check_conditions_ms": 1e3 * g("analytic.check_conditions")["total"],
        "analytic.variance_window_quadrature_ms":
            1e3 * g("analytic.variance_window_quadrature")["total"],
        "quadrature.line_calls": line["calls"],
        "quadrature.panels": panels,
        "quadrature.self_s": layer_self["quadrature"],
        "quadrature.us_per_panel": 1e6 * _ratio(layer_self["quadrature"], panels),
        "quadrature.levy_calls": levy_call["calls"],
        "quadrature.us_per_levy_call": 1e6 * _ratio(levy_call["total"], levy_call["calls"]),
        "quadrature.panels_per_levy_call":
            _ratio(levy_call["aux"] / PANEL_EVALS, levy_call["calls"]),
        "quadrature.nonconverged": nonconverged,
        "levy.jumps_drawn": jumps,
        "levy.sample_ns_per_jump": 1e9 * _ratio(draw["total"], jumps),
        "levy.tail_mass_calls": g("levy.LevyMeasure.tail_mass")["calls"],
        "kernels.g_calls": kg["calls"],
        "kernels.g_points": kg["aux"],
        "kernels.g_ns_per_point": 1e9 * _ratio(kg["total"], kg["aux"]),
        "kernels.f_calls": kf["calls"],
        "kernels.f_points": kf["aux"],
        "kernels.self_s": layer_self["kernels"],
        "simulate.replicates": reps,
        "simulate.jumps_per_replicate": _ratio(jumps, reps),
        "simulate.stream_us_per_replicate": 1e6 * _ratio(stream["total"], reps),
        "simulate.draw_us_per_replicate": 1e6 * _ratio(g("simulate.sample_jumps")["total"], reps),
        "simulate.loop_self_s": mc["self"],
        "simulate.functional_calls": wi["calls"] + ls["calls"],
        "simulate.functional_ns_per_jump": 1e9 * _ratio(wi["self"] + ls["self"], wi["aux"]),
        "simulate.cpu_per_wall": _ratio(mc["aux"], mc["total"]),
        "simulate.rows_written": write["aux"],
        "simulate.write_us_per_row": 1e6 * _ratio(write["total"], write["aux"]),
    }
    return {k: float(v) for k, v in out.items()}
