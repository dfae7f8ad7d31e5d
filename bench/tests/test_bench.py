"""Tests of the benchmark itself (not of idma).

    python3 -m pytest -q bench/tests

They run every workload at toy size, feed each output check a deliberately
wrong value, and check that the tracer restores idma and counts repeatably.
"""

from __future__ import annotations

import importlib
import inspect
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 5


def toy_run(tmp, name, trace):
    r = run.Run(name, SEED, size="toy", work=tmp)
    r.loop(0.0, trace, min_sessions=1)
    return r


@pytest.fixture(scope="module")
def toy_outputs(tmp_path_factory):
    """One checked untraced toy session per workload: name -> (run, out dir)."""
    tmp = tmp_path_factory.mktemp("toy")
    return {name: toy_run(tmp, name, False) for name in workloads.NAMES}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_toy_workload_reports_every_metric(tmp_path, name):
    r = toy_run(tmp_path, name, True)
    assert r.failed == 0 and r.attempted == 2 * len(workloads.subcommands(name))
    e2e = r.end_to_end()
    assert set(e2e) == set(run.END_TO_END)
    assert all(v > 0 for v in e2e.values())
    layers = r.per_layer()
    assert set(layers) == set(run.PER_LAYER)
    assert all(math.isfinite(v) and v >= 0 for v in layers.values())
    for sub in set(workloads.subcommands(name)) & set(run.SUBCOMMAND_METRICS):
        assert layers[f"cli.{sub}_s"] > 0


def test_benchmark_json_matches_the_metric_tables():
    import json

    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER


# -- output checks fire on wrong values ------------------------------------

def _copy(toy_outputs, name, tmp_path):
    r = toy_outputs[name]
    assert r.failed == 0
    out = tmp_path / "out"
    shutil.copytree(r.out, out)
    return r, out


def _edit(path, fn):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(fn(lines)) + "\n")


def _edit_column(path, column, fn):
    def edit(lines):
        cols = next(l for l in lines if not l.startswith("#")).split(",")
        j = cols.index(column)
        out, seen_header = [], False
        for line in lines:
            if line.startswith("#") or not seen_header:
                seen_header = seen_header or not line.startswith("#")
                out.append(line)
                continue
            cells = line.split(",")
            cells[j] = repr(fn(float(cells[j]), cells))
            out.append(",".join(cells))
        return out
    _edit(path, edit)


def _fails(r, sub, out):
    return checks.check(sub, out, r.cfg, r.ref)


def test_checks_pass_on_good_outputs(toy_outputs):
    for name, r in toy_outputs.items():
        for sub in r.subs:
            assert _fails(r, sub, r.out) == []


def test_header_and_missing_file_checks_fire(toy_outputs, tmp_path):
    r, out = _copy(toy_outputs, "analytic_d2", tmp_path)
    _edit(out / "cov.csv", lambda ls: [ls[0].replace(f"seed={SEED}", "seed=999")] + ls[1:])
    assert any("header seed" in f for f in _fails(r, "cov", out))
    _edit(out / "cov.csv", lambda ls: ls[1:])
    assert any("header" in f for f in _fails(r, "cov", out))
    (out / "cf_window.csv").unlink()
    assert any("missing" in f for f in _fails(r, "cf", out))


def test_conditions_check_fires(toy_outputs, tmp_path):
    r, out = _copy(toy_outputs, "analytic_d2", tmp_path)
    _edit(out / "conditions.csv", lambda ls: ls[:-1] + [ls[-1].rsplit(",", 1)[0] + ",false"])
    assert _fails(r, "conditions", out)


@pytest.mark.parametrize("shift, words", [(1e-3, "frozen reference"), (1.0, "|cf| > 1")])
def test_cf_check_fires(toy_outputs, tmp_path, shift, words):
    r, out = _copy(toy_outputs, "analytic_d2", tmp_path)
    _edit_column(out / "cf_window.csv", "cf_re", lambda v, _: v + shift)
    assert any(words in f for f in _fails(r, "cf", out))


def test_cov_check_fires(toy_outputs, tmp_path):
    r, out = _copy(toy_outputs, "analytic_d2", tmp_path)
    path = out / "cov.csv"
    _edit(path, lambda ls: [("# integral_quadrature=0.001" if "integral_quadrature" in l
                             else l) for l in ls])
    assert any("integral_quadrature" in f for f in _fails(r, "cov", out))
    _edit(path, lambda ls: [("# integral_exact=0.5" if "integral_exact" in l else l)
                            for l in ls])
    assert any("integral_exact" in f for f in _fails(r, "cov", out))


@pytest.mark.parametrize("fn, words", [
    (lambda v, c: v + (1.0 if c[1] == "0" else 0.0), "mean"),
    (lambda v, c: v * 2.0, "variance"),
])
def test_simulate_checks_fire(toy_outputs, tmp_path, fn, words):
    r, out = _copy(toy_outputs, "simulate_short", tmp_path)
    _edit_column(out / "replicates.csv", "S_value", fn)
    assert any(words in f for f in _fails(r, "simulate", out))


def test_simulate_cf_check_fires_on_a_wrong_reference(toy_outputs):
    r = toy_outputs["simulate_short"]
    ref = dict(r.ref, cf_window=[[z, re + 0.5, im] for z, re, im in r.ref["cf_window"]])
    fails = checks.check("simulate", r.out, r.cfg, ref)
    assert fails and all("empirical CF" in f for f in fails)


def test_converge_checks_fire(toy_outputs, tmp_path):
    r, out = _copy(toy_outputs, "study_long", tmp_path)
    path = out / "convergence.csv"
    _edit(path, lambda ls: [l.replace("winner=boundary_augmented", "winner=claimed") for l in ls])
    assert any("winner" in f for f in _fails(r, "converge", out))
    shutil.copy(r.out / "convergence.csv", path)
    _edit_column(path, "dist_boundary", lambda v, c: 1.0 if c[0] == "40" else v)
    assert any("decreasing" in f for f in _fails(r, "converge", out))
    shutil.copy(r.out / "convergence.csv", path)
    _edit_column(path, "dist_claimed", lambda v, c: v + 1e-5)
    assert any("frozen reference" in f for f in _fails(r, "converge", out))


def test_hyper_checks_fire(toy_outputs, tmp_path):
    r, out = _copy(toy_outputs, "study_long", tmp_path)
    path = out / "hyper.csv"
    _edit(path, lambda ls: [l.replace("=hyperuniform", "=persistent") for l in ls])
    assert any("classification" in f for f in _fails(r, "hyper", out))
    shutil.copy(r.out / "hyper.csv", path)
    _edit_column(path, "var_empirical", lambda v, c: 2.0 * v)
    assert any("4 SE" in f for f in _fails(r, "hyper", out))


# -- tracer ----------------------------------------------------------------

def _snapshot():
    snap = {}
    for mod_name in ("idma", *(f"idma.{layer}" for layer in tracer.LAYERS)):
        mod = importlib.import_module(mod_name)
        snap[mod_name] = {k: v for k, v in vars(mod).items() if callable(v)}
    for layer, classes in tracer._CLASSES.items():
        mod = importlib.import_module(f"idma.{layer}")
        for cname in classes:
            cls = getattr(mod, cname)
            snap[cname] = {k: v for k, v in vars(cls).items() if inspect.isfunction(v)}
    return snap


def test_tracer_restores_idma():
    from idma import analytic, kernels, levy, quadrature, verify

    before = _snapshot()
    with tracer.Tracer() as t:
        original = before["idma.analytic"]["integrate_line"]
        assert analytic.integrate_line.__wrapped__ is original
        assert quadrature.integrate_line is analytic.integrate_line
        assert verify.log_cf_window is analytic.log_cf_window
        k = kernels.from_config({"kind": "signed_ou"})
        traced_g = k.g
        assert traced_g.__wrapped__ is not None
        measure = levy.dickman()
        analytic.log_cf_stationary(k, measure, 0.5, tol=1e-4)
    assert _snapshot() == before
    assert k.g is traced_g.__wrapped__
    m = t.metrics()
    assert m["analytic.log_cf_calls"] == 1 and m["quadrature.levy_calls"] > 0
    assert m["kernels.f_calls"] > 0


def test_self_time_subtracts_nested_and_parallel_children():
    names = ["quadrature.integrate_line", "simulate.monte_carlo", "kernels.g"]
    # id, parent, fn, thread, t0, t1, aux
    spans = np.array([
        [0, -1, 0, 0, 0.0, 10.0, 22],      # outer integrate_line
        [1, 0, 0, 0, 1.0, 4.0, 44],        # nested integrate_line
        [2, 1, 0, 0, 2.0, 3.0, 22],        # nested again
        [3, -1, 1, 0, 20.0, 30.0, 0],      # monte_carlo on the main thread
        [4, 3, 2, 1, 21.0, 27.0, 5],       # worker 1
        [5, 3, 2, 2, 22.0, 28.0, 5],       # worker 2, overlapping worker 1
    ], dtype=float)
    st = tracer.function_stats(spans, names)
    line = st["quadrature.integrate_line"]
    assert line["calls"] == 3 and line["total"] == 14.0
    assert line["self"] == pytest.approx(10.0)        # never more than the wall
    assert line["aux"] == 88.0
    assert st["simulate.monte_carlo"]["self"] == pytest.approx(3.0)  # 10 - union 7


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_counts_repeat_for_one_seed(tmp_path, name):
    a = toy_run(tmp_path / "a", name, True).per_layer()
    b = toy_run(tmp_path / "b", name, True).per_layer()
    assert {k: a[k] for k in tracer.COUNTS} == {k: b[k] for k in tracer.COUNTS}
    named = {"analytic_d2": ("quadrature.panels", "quadrature.levy_calls",
                             "analytic.log_cf_calls"),
             "simulate_short": ("levy.jumps_drawn", "simulate.rows_written"),
             "study_long": ("quadrature.panels", "levy.jumps_drawn")}[name]
    assert all(a[k] > 0 for k in named)


# -- the benchmark refuses to run without the package ---------------------

def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "simulate_short",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
