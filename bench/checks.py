"""Output checks: is what one `idma` subcommand wrote correct?

Each check reads the files a subcommand wrote into the session's output
directory and returns a list of failure messages (empty when the output is
correct). The Monte Carlo checks are statistical, never byte digests, so a
documented change to the seed-to-sample mapping still passes them.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

FILES = {
    "conditions": ["conditions.csv"],
    "cf": ["cf_stationary.csv", "cf_window.csv", "cf_limit_claimed.csv",
           "cf_limit_boundary.csv"],
    "cov": ["cov.csv"],
    "simulate": ["replicates.csv"],
    "converge": ["convergence.csv"],
    "hyper": ["hyper.csv"],
}

_HEADER = re.compile(r"^# config_digest=([0-9a-f]{64}) seed=(\d+)$")
COV_TOL = 1e-6
# converge runs at the CLI's default quad_tol of 1e-9; its CF distances are
# held to the seed commit's values with room for a changed quadrature
CONVERGE_TOL = 1e-6


class Table:
    """A CLI CSV: its comment lines as key=value pairs, header and cells."""

    def __init__(self, path: Path):
        lines = path.read_text(encoding="utf-8").splitlines()
        self.first = lines[0] if lines else ""
        self.meta = {}
        body = []
        for line in lines:
            if line.startswith("#"):
                key, sep, value = line[1:].strip().partition("=")
                if sep:
                    self.meta[key] = value
            elif line:
                body.append(line.split(","))
        self.columns = body[0] if body else []
        self.rows = body[1:]

    def col(self, name: str) -> np.ndarray:
        j = self.columns.index(name)
        return np.array([float(r[j]) for r in self.rows])


def _load(out_dir: Path, sub: str, seed: int, fails: list) -> dict:
    tables, digests = {}, set()
    for name in FILES[sub]:
        path = out_dir / name
        if not path.is_file():
            fails.append(f"{name}: missing")
            continue
        t = Table(path)
        m = _HEADER.match(t.first)
        if m is None:
            fails.append(f"{name}: first line is not a config_digest/seed header")
        else:
            digests.add(m.group(1))
            if int(m.group(2)) != seed:
                fails.append(f"{name}: header seed {m.group(2)} != {seed}")
        tables[name] = t
    if len(digests) > 1:
        fails.append(f"{sub}: files disagree on the config digest")
    return tables


def _conditions(tables, cfg, ref, fails):
    t = tables["conditions.csv"]
    for name in ("c1_pass", "c2_pass", "c3_pass"):
        j = t.columns.index(name)
        if any(r[j] != "true" for r in t.rows):
            fails.append(f"conditions: {name} is not true")


def _cf(tables, cfg, ref, fails):
    tol = ref["quad_tol"]
    for name, t in tables.items():
        stem = name[:-4]
        cf = t.col("cf_re") + 1j * t.col("cf_im")
        if np.any(np.abs(cf) > 1.0):
            fails.append(f"{stem}: |cf| > 1")
        want = np.array(ref["cf"][stem], dtype=float)
        if t.col("z").shape != want[:, 0].shape or np.any(t.col("z") != want[:, 0]):
            fails.append(f"{stem}: z grid differs from the reference")
            continue
        dev = float(np.max(np.abs(cf - (want[:, 1] + 1j * want[:, 2]))))
        if not dev <= tol:
            fails.append(f"{stem}: {dev:.3e} from the frozen reference "
                         f"(quad_tol {tol:g})")


def _cov(tables, cfg, ref, fails):
    t = tables["cov.csv"]
    exact = float(t.meta.get("integral_exact", "nan"))
    quad = float(t.meta.get("integral_quadrature", "nan"))
    if exact != 0.0:
        fails.append(f"cov: integral_exact={exact!r}, expected 0")
    if not abs(quad - exact) <= COV_TOL:
        fails.append(f"cov: integral_quadrature={quad!r} not within "
                     f"{COV_TOL:g} of integral_exact")


def variance_se(x) -> float:
    """Large-sample standard error of the sample variance."""
    xc = x - x.mean()
    v = float(np.mean(xc * xc))
    return math.sqrt(max(float(np.mean(xc ** 4)) - v * v, 0.0) / x.size)


def _simulate(tables, cfg, ref, fails):
    t = tables["replicates.csv"]
    m, n = len(cfg["ls"]), cfg["N"]
    s = t.col("S_value")
    if s.size != n * m or np.any(t.col("l_index") != np.tile(np.arange(m), n)):
        fails.append(f"simulate: expected {n}x{m} rows in replicate order")
        return
    s = s.reshape(n, m)
    zs = np.array([row[0] for row in ref["cf_window"]])
    phi = np.array([row[1] + 1j * row[2] for row in ref["cf_window"]])
    var_ref = ref["variance_window"]
    for j in range(m):
        x = s[:, j]
        v = float(np.var(x))
        if not abs(float(np.mean(x))) <= 4.0 * math.sqrt(v / n):
            fails.append(f"simulate: window {j} mean {np.mean(x):.4g} beyond 4 SE of 0")
        se = variance_se(x)
        if not abs(v - var_ref) <= 4.0 * se:
            fails.append(f"simulate: window {j} variance {v:.4g} beyond 4 SE "
                         f"({se:.3g}) of {var_ref:.6g}")
        hat = np.exp(1j * zs[:, None] * x[None, :]).mean(axis=1)
        dev = float(np.max(np.abs(hat - phi)))
        if not dev <= 5.0 / math.sqrt(n):
            fails.append(f"simulate: window {j} empirical CF {dev:.3g} from "
                         f"exp(log_cf_window), band {5.0 / math.sqrt(n):.3g}")


def _converge(tables, cfg, ref, fails):
    t = tables["convergence.csv"]
    if t.meta.get("winner") != "boundary_augmented":
        fails.append(f"converge: winner={t.meta.get('winner')}, "
                     "expected boundary_augmented")
    d = t.col("dist_boundary")
    if d.size != len(cfg["T_grid"]) or not np.all(np.diff(d) < 0.0):
        fails.append("converge: dist_boundary is not decreasing in T")
    want = np.array(ref["convergence"], dtype=float)
    got = np.stack([t.col("T"), t.col("dist_claimed"), d], axis=1)
    if got.shape != want.shape or np.any(got[:, 0] != want[:, 0]):
        fails.append("converge: T grid differs from the reference")
    elif not np.all(np.abs(got[:, 1:] - want[:, 1:]) <= CONVERGE_TOL):
        fails.append(f"converge: distances differ from the frozen reference "
                     f"by more than {CONVERGE_TOL:g}")


def _hyper(tables, cfg, ref, fails):
    t = tables["hyper.csv"]
    if t.meta.get("classification") != "hyperuniform":
        fails.append(f"hyper: classification={t.meta.get('classification')}, "
                     "expected hyperuniform")
    want = np.array(ref["variance_window"], dtype=float)
    T = t.col("T")
    if T.shape != want[:, 0].shape or np.any(T != want[:, 0]):
        fails.append("hyper: T grid differs from the reference")
        return
    dev = np.abs(t.col("var_empirical") - want[:, 1])
    bad = dev > 4.0 * t.col("var_se")
    if not np.all(t.col("var_se") > 0.0) or np.any(bad):
        fails.append(f"hyper: empirical variance beyond 4 SE at T={T[bad].tolist()}")


_CHECKS = {"conditions": _conditions, "cf": _cf, "cov": _cov,
           "simulate": _simulate, "converge": _converge, "hyper": _hyper}


def check(sub: str, out_dir, cfg: dict, ref: dict) -> list:
    """Failure messages for the files subcommand `sub` wrote into out_dir.

    cfg is the config document the session ran; ref is the workload's block
    of reference.json at the run's size.
    """
    fails = []
    tables = _load(Path(out_dir), sub, cfg["seed"], fails)
    if len(tables) == len(FILES[sub]):
        try:
            _CHECKS[sub](tables, cfg, ref, fails)
        except (ValueError, IndexError, KeyError) as exc:
            fails.append(f"{sub}: malformed output ({exc!r})")
    return fails
