"""Command-line front end: config ingestion, subcommands, structured output.

One JSON config document drives every subcommand; the flags --seed,
--threads, --out, and --format replace the matching config fields before
any check, so a bad flag value fails exactly like a bad config value. Every
subcommand writes its files through _emit, in the one format the config
names: each CSV starts with a comment line carrying a digest of the
effective config and the seed, and each JSON document carries the same two
values as its first fields. The digest excludes the output directory,
format, and thread count, none of which affect the numbers (the thread
count is accepted and ignored: the Monte Carlo runs on one thread).

Exit codes: 0 success, 2 config or input error, 3 quadrature non-convergence,
4 divergent moment.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
from dataclasses import field, make_dataclass

import numpy as np

from . import analytic, kernels, levy, simulate, verify
from .errors import (ConfigError, DivergentMomentError, EmptyTruncationError,
                     NonConvergenceError, NotAvailableError)

_DEFAULT_Z_GRID = [round(-5.0 + 0.25 * i, 2) for i in range(41)]


def _as_float_list(value, name):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{name} must be a non-empty list of numbers")
    out = []
    for v in value:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{name} must contain only numbers")
        if not math.isfinite(v):
            raise ConfigError(f"{name} must be finite, got {v}")
        out.append(float(v))
    return out


def _as_points(value, name):
    # scalars give d=1 points; lists of lists give d>1 points
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{name} must be a non-empty list")
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
        return [[v] for v in _as_float_list(value, name)]
    if all(isinstance(v, list) for v in value):
        return [_as_float_list(v, name) for v in value]
    raise ConfigError(f"{name} must be all scalars or all lists")


def _number(lo, integer=False, below=None):
    def parse(value, name):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name} must be a number")
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
        # integral floats such as 1e4 are accepted; 10.7 is not cut to 10
        if integer and value != int(value):
            raise ConfigError(f"{name} must be an integer, got {value}")
        if value < lo:
            raise ConfigError(f"{name} must be >= {lo}")
        if below is not None and value >= below:
            raise ConfigError(f"{name} must be < {below}")
        return int(value) if integer else float(value)
    return parse


def _text(value, name):
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string")
    return value


# The config schema: key -> (default, parser, part of the digest). measure
# and kernel are required; their parser is None because they are built by
# levy/kernels.from_config, and RunConfig keeps both the raw dict (the
# <key>_cfg field, which the digest hashes) and the built object.
_SCHEMA = {
    "measure": (None, None, True),
    "kernel": (None, None, True),
    "T": (10.0, _number(0.0), True),
    "T_grid": ([5.0, 10.0, 20.0, 40.0], _as_float_list, True),
    "ls": ([0.0], _as_points, True),
    "zs_base": (None, _as_float_list, True),
    "z_grid": (_DEFAULT_Z_GRID, _as_float_list, True),
    "t_grid": ([0.0, 1.0, 2.0], _as_points, True),
    "eps": (1e-3, _number(0.0), True),
    "N": (10_000, _number(1, integer=True), True),
    "seed": (0, _number(0, integer=True, below=2 ** 64), True),
    "quad_tol": (1e-9, _number(0.0), True),
    "conditions_budget": (2_000_000, _number(1, integer=True), True),
    "threshold": (1e-3, _number(0.0), True),
    "window_pad": (None, _number(0.0), True),
    "threads": (1, _number(1, integer=True), False),
    "out": (".", _text, False),
    "format": ("csv", _text, False),
}

RunConfig = make_dataclass(
    "RunConfig",
    [name for key, (_, parse, _) in _SCHEMA.items()
     for name in ((key,) if parse else (f"{key}_cfg", key))]
    + [("digest", str, field(default=""))],
    namespace={"__module__": __name__,
               "__doc__": "The effective config of one run, fields as in _SCHEMA."})


def load_config(path: str, *, seed=None, threads=None, out=None,
                fmt=None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("measure", "kernel"):
        if key not in raw:
            raise ConfigError(f"config needs a {key!r} entry")
    # flags replace config values before any check, so both pass the same ones
    flags = {"seed": seed, "threads": threads, "out": out, "format": fmt}
    raw.update((k, v) for k, v in flags.items() if v is not None)

    fields = {
        "measure_cfg": raw["measure"], "kernel_cfg": raw["kernel"],
        "measure": levy.from_config(raw["measure"]),
        "kernel": kernels.from_config(raw["kernel"],
                                      base_dir=os.path.dirname(path) or "."),
    }
    for key, (default, parse, _) in _SCHEMA.items():
        if parse is None:
            continue
        value = raw.get(key, default)
        # null is accepted only where it is the default (zs_base, window_pad)
        fields[key] = None if value is None and default is None else parse(value, key)
    cfg = RunConfig(**fields)
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {cfg.format!r}")
    if cfg.eps <= 0.0:
        raise ConfigError("eps must be positive")

    payload = {key: raw[key] if parse is None else fields[key]
               for key, (_, parse, digested) in _SCHEMA.items() if digested}
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    cfg.digest = hashlib.sha256(canon.encode("utf-8")).hexdigest()
    return cfg


# -- output ------------------------------------------------------------------

# rows per CSV write: each chunk is formatted by one % call, and a streamed
# source is held in memory one chunk at a time
_CHUNK = 512


def _emit(cfg: RunConfig, stem: str, columns: list, rows, comments=(),
          doc: dict | None = None) -> str:
    """Write stem.csv, or stem.json when cfg.format is json; return the path.

    The CSV has the digest/seed line, one '# ' line per comment, the header
    and the rows; each column is formatted as its first cell asks: ints and
    strings as they are, bools as true/false, everything else %.17g. The
    JSON has config_digest and seed, then doc (by default the columns and
    rows), with null for a NaN or infinite float, which JSON cannot spell.
    rows is any iterable and is read once; without rows the CSV ends after
    its header.
    """
    os.makedirs(cfg.out, exist_ok=True)
    path = os.path.join(cfg.out, f"{stem}.{cfg.format}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if cfg.format == "json":
            # one dumps and one write: json.dump writes chunk by chunk. JSON
            # has no NaN or infinity: a document with one is dumped, read
            # back with null for each, and dumped again (floats round-trip)
            doc = {"config_digest": cfg.digest, "seed": cfg.seed,
                   **(doc or {"columns": columns, "rows": list(rows)})}
            try:
                text = json.dumps(doc, indent=2, allow_nan=False)
            except ValueError:
                doc = json.loads(json.dumps(doc), parse_constant=lambda c: None)
                text = json.dumps(doc, indent=2, allow_nan=False)
            fh.write(text)
            fh.write("\n")
            return path
        fh.write(f"# config_digest={cfg.digest} seed={cfg.seed}\n")
        fh.writelines(f"# {c}\n" for c in comments)
        fh.write(",".join(columns) + "\n")
        rows, line = iter(rows), None
        for chunk in iter(lambda: list(itertools.islice(rows, _CHUNK)), []):
            if line is None:
                line = ",".join("%s" if isinstance(v, (int, str)) else "%.17g"
                                for v in chunk[0]) + "\n"
                bools = [i for i, v in enumerate(chunk[0])
                         if isinstance(v, bool)]
            if bools:
                chunk = [[("true" if v else "false") if i in bools else v
                          for i, v in enumerate(row)] for row in chunk]
            fh.write((line * len(chunk))
                     % tuple(itertools.chain.from_iterable(chunk)))
    return path


# -- subcommands -------------------------------------------------------------

def _cmd_conditions(cfg: RunConfig) -> list:
    rep = analytic.check_conditions(cfg.kernel, cfg.measure,
                                    quad_tol=cfg.quad_tol,
                                    budget=cfg.conditions_budget)
    return [_emit(cfg, "conditions",
                  ["c1", "c2", "c3", "c1_pass", "c2_pass", "c3_pass"],
                  [[rep.c1, rep.c2, rep.c3, rep.c1_pass, rep.c2_pass,
                    rep.c3_pass]], doc=rep.to_dict())]


def _cmd_cf(cfg: RunConfig) -> list:
    pk = kernels.as_product(cfg.kernel)
    ls = np.asarray(cfg.ls, dtype=float)
    zs_base = (np.ones(ls.shape[0]) if cfg.zs_base is None
               else np.asarray(cfg.zs_base, dtype=float))
    # every spec is checked before any integral runs, and every integral
    # runs before any file is written, so a failure leaves no partial output
    specs = [(u, analytic.fdd_spec(ls, u * zs_base, cfg.T),
              analytic.fdd_spec(ls, u * zs_base, 0.0)) for u in cfg.z_grid]
    # the three laws at every z are the rows of one engine run
    us, windows, corners = zip(*specs)
    stationary, window, limits = analytic._log_cf_rows(
        pk, cfg.measure, us, windows, corners, tol=cfg.quad_tol)
    laws = (stationary, window, *zip(*limits))
    tables = ([], [], [], [])
    for rows, lcs in zip(tables, laws):
        for u, lc in zip(us, lcs):
            cf = np.exp(lc)
            rows.append([u, lc.real, lc.imag, cf.real, cf.imag])
    stems = ("cf_stationary", "cf_window", "cf_limit_claimed",
             "cf_limit_boundary")
    return [_emit(cfg, stem, ["z", "log_re", "log_im", "cf_re", "cf_im"], rows)
            for stem, rows in zip(stems, tables)]


def _cmd_cov(cfg: RunConfig) -> list:
    pk = kernels.as_product(cfg.kernel)
    d = pk.d
    cols = ([f"t_{k}" for k in range(d)] if d > 1 else ["t"]) + ["C"]
    rows = []
    for t in cfg.t_grid:
        if len(t) != d:
            raise ConfigError(f"t_grid entries must have dimension {d}")
        c = analytic.covariance(pk, cfg.measure, t)
        rows.append(list(t) + [c])
    extra = {"integral_exact": analytic.covariance_integral(pk, cfg.measure),
             "integral_quadrature": analytic.covariance_integral_quadrature(
                 pk, cfg.measure, tol=cfg.quad_tol)}
    return [_emit(cfg, "cov", cols, rows,
                  comments=[f"{k}={v}" for k, v in extra.items()],
                  doc={**extra, "columns": cols, "rows": rows})]


def _cmd_simulate(cfg: RunConfig) -> list:
    sim_cfg = simulate.SimConfig(
        measure=cfg.measure, kernel=cfg.kernel, T=cfg.T, ls=cfg.ls,
        eps=cfg.eps, window_pad=cfg.window_pad, n_replicates=cfg.N,
        seed=cfg.seed)
    res = simulate.monte_carlo(sim_cfg)
    # streamed a chunk of replicates at a time, each a zip over tolist()s
    # that _emit reads without a Python frame per row: a list of all N*m
    # rows would raise the peak memory
    n, m = res.S.shape
    step = max(1, _CHUNK // m)

    def chunk(a):
        S, Y = res.S[a:a + step], res.Y[a:a + step]
        return zip(np.arange(a, a + len(S)).repeat(m).tolist(),
                   [*range(m)] * len(S), S.ravel().tolist(),
                   Y.ravel().tolist())
    rows = itertools.chain.from_iterable(map(chunk, range(0, n, step)))
    return [_emit(cfg, "replicates",
                  ["replicate", "l_index", "S_value", "Y_value"], rows)]


def _cmd_converge(cfg: RunConfig) -> list:
    rep = verify.cf_convergence(
        cfg.kernel, cfg.measure, cfg.ls, cfg.T_grid, cfg.z_grid,
        zs_base=cfg.zs_base, threshold=cfg.threshold, tol=cfg.quad_tol)
    return [_emit(cfg, "convergence", ["T", "dist_claimed", "dist_boundary"],
                  zip(rep.T_grid, rep.dist_claimed, rep.dist_boundary),
                  comments=[f"winner={rep.winner}",
                            f"monotone_claimed={rep.monotone_claimed}",
                            f"monotone_boundary={rep.monotone_boundary}",
                            f"threshold={rep.threshold:.17g}"],
                  doc=rep.to_dict())]


def _cmd_hyper(cfg: RunConfig) -> list:
    rep = verify.hyperuniformity(
        cfg.kernel, cfg.measure, cfg.T_grid, cfg.N, seed=cfg.seed, eps=cfg.eps,
        window_pad=cfg.window_pad, tol=cfg.quad_tol)
    return [_emit(cfg, "hyper",
                  ["T", "var_analytic", "var_empirical", "var_se",
                   "control_var"],
                  zip(rep.T_grid, rep.var_analytic, rep.var_empirical,
                      rep.var_se, rep.control_var),
                  comments=[f"classification={rep.classification}",
                            f"control_slope={rep.control_slope:.17g}"],
                  doc=rep.to_dict())]


_COMMANDS = {
    "conditions": _cmd_conditions,
    "cf": _cmd_cf,
    "cov": _cmd_cov,
    "simulate": _cmd_simulate,
    "converge": _cmd_converge,
    "hyper": _cmd_hyper,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="idma",
        description="Infinitely divisible moving-average fields: analytics, "
                    "simulation, and verification reports")
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted and ignored: the Monte Carlo runs on "
                             "one thread")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--format", dest="fmt", choices=["csv", "json"],
                        default=None)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, seed=args.seed, threads=args.threads,
                          out=args.out, fmt=args.fmt)
        paths = _COMMANDS[args.subcommand](cfg)
    except (ConfigError, NotAvailableError, EmptyTruncationError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"quadrature did not converge: {exc}", file=sys.stderr)
        return 3
    except DivergentMomentError as exc:
        print(f"divergent moment: {exc}", file=sys.stderr)
        return 4
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
