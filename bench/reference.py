"""Freeze the reference values the output checks compare against.

Run from the repository root with the package on the path:

    PYTHONPATH=src python3 bench/reference.py

It writes bench/reference.json. The committed file was produced from the
seed commit of the package, so the checks hold later versions to the seed's
numbers. Regenerating it is a benchmark change of its own, never part of a
change that claims a speed-up.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from idma import analytic, kernels, levy, verify

import workloads

HERE = Path(__file__).resolve().parent
PATH = HERE / "reference.json"

# CF arguments at which the simulate_short check compares the empirical CF
SIM_ZS = [0.25, 0.5, 1.0]
SIM_TOL = 1e-10
# a tighter tolerance, recorded for information next to the seed values
ANALYTIC_TIGHT_TOL = 1e-9


def _cf_tables(cfg, tol):
    """The four tables `idma cf` writes, computed the way the CLI does."""
    pk = kernels.as_product(kernels.from_config(cfg["kernel"]))
    measure = levy.from_config(cfg["measure"])
    ls = np.asarray(cfg["ls"], dtype=float)
    ones = np.ones(ls.shape[0])
    out = {"cf_stationary": [], "cf_window": [], "cf_limit_claimed": [],
           "cf_limit_boundary": []}
    for u in cfg["z_grid"]:
        at = lambda T: analytic.fdd_spec(ls, u * ones, T)
        logs = {
            "cf_stationary": analytic.log_cf_stationary(pk, measure, u, tol=tol),
            "cf_window": analytic.log_cf_window(pk, measure, at(cfg["T"]), tol=tol),
            "cf_limit_claimed": analytic.log_cf_limit(
                pk, measure, at(0.0), "claimed", tol=tol),
            "cf_limit_boundary": analytic.log_cf_limit(
                pk, measure, at(0.0), "boundary_augmented", tol=tol),
        }
        for stem, lc in logs.items():
            cf = np.exp(lc)
            out[stem].append([u, cf.real, cf.imag])
    return out


def _analytic_d2():
    doc = {}
    for size in workloads.SIZES:
        cfg = workloads.config("analytic_d2", 0, size)
        doc[size] = {"quad_tol": cfg["quad_tol"],
                     "cf": _cf_tables(cfg, cfg["quad_tol"])}
    full = workloads.config("analytic_d2", 0)
    doc["full"]["cf_tight"] = {"tol": ANALYTIC_TIGHT_TOL,
                               "cf": _cf_tables(full, ANALYTIC_TIGHT_TOL)}
    return doc


def _simulate_short():
    cfg = workloads.config("simulate_short", 0)
    pk = kernels.as_product(kernels.from_config(cfg["kernel"]))
    measure = levy.from_config(cfg["measure"])
    T = cfg["T"]
    # window integrals are stationary in l, so one window serves all four
    rows = []
    for z in SIM_ZS:
        spec = analytic.fdd_spec([0.0], [z], T)
        cf = np.exp(analytic.log_cf_window(pk, measure, spec, tol=SIM_TOL))
        rows.append([z, cf.real, cf.imag])
    return {"T": T, "cf_window": rows,
            "variance_window": analytic.variance_window(pk, measure, T)}


def _study_long(size):
    cfg = workloads.config("study_long", 0, size)
    pk = kernels.as_product(kernels.from_config(cfg["kernel"]))
    measure = levy.from_config(cfg["measure"])
    # the CLI's defaults: threshold 1e-3, quad_tol 1e-9
    rep = verify.cf_convergence(pk, measure, [[l] for l in cfg["ls"]],
                                cfg["T_grid"], cfg["z_grid"])
    return {"variance_window": [[T, analytic.variance_window(pk, measure, T)]
                                for T in cfg["T_grid"]],
            "convergence": [list(row) for row in
                            zip(rep.T_grid, rep.dist_claimed, rep.dist_boundary)]}


def main():
    sim = _simulate_short()
    # simulate_short's references do not depend on N, so both sizes share them
    doc = {"analytic_d2": _analytic_d2(),
           "simulate_short": {size: sim for size in workloads.SIZES},
           "study_long": {size: _study_long(size) for size in workloads.SIZES}}
    PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(PATH)


if __name__ == "__main__":
    main()
