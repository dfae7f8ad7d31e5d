"""Command-line interface: configs, outputs, digests, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import idma
from idma import analytic, cli, kernels, levy, verify
from idma.cli import load_config, main
from idma.errors import ConfigError
from idma.simulate import SimConfig, monte_carlo, window_integral_sweep

BASE = {"measure": {"kind": "two_point", "lambda": 1.0},
        "kernel": {"kind": "signed_ou"}}


def write_config(tmp_path, extra=None, name="cfg.json"):
    doc = dict(BASE)
    if extra:
        doc.update(extra)
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def read_csv(path):
    comments, rows = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif line:
                rows.append(line.split(","))
    return comments, rows[0], rows[1:]


def test_load_config_defaults_and_digest(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.T == 10.0 and cfg.seed == 0 and cfg.format == "csv"
    assert len(cfg.digest) == 64
    # same payload, different out dir: digest unchanged
    cfg2 = load_config(write_config(tmp_path, {"out": "elsewhere"},
                                    name="b.json"))
    assert cfg2.digest == cfg.digest
    # flag overrides win and feed the digest through the seed
    cfg3 = load_config(write_config(tmp_path), seed=9)
    assert cfg3.seed == 9 and cfg3.digest != cfg.digest


def test_config_digest_pinned(tmp_path):
    # every key set; the digest covers all but threads, out and format
    doc = {"measure": {"kind": "truncated_stable", "beta": 0.5, "C": 1.0},
           "kernel": {"kind": "product", "components": [
               {"kind": "signed_ou"}, {"kind": "gauss_deriv"}]},
           "T": 7.5, "T_grid": [2.0, 4.0, 8.0], "ls": [[0.0, 0.0], [1.5, -2.0]],
           "zs_base": [1.0, -0.5], "z_grid": [-1.0, 0.25, 2.0],
           "t_grid": [[0.0, 0.0], [1.0, 0.5]], "eps": 0.01, "N": 1234,
           "seed": 42, "quad_tol": 1e-7, "conditions_budget": 500000,
           "threshold": 0.002, "window_pad": 9.0, "threads": 2,
           "out": "somewhere", "format": "json"}
    p = tmp_path / "full.json"
    p.write_text(json.dumps(doc))
    cfg = load_config(str(p))
    assert (cfg.T, cfg.N, cfg.seed, cfg.threads, cfg.out, cfg.format) == (
        7.5, 1234, 42, 2, "somewhere", "json")
    assert cfg.digest == ("68ea8902129e38698cfdeec52cd7458c"
                          "cdbde131f613cb699749b1dc892965c7")
    cfg = load_config(str(p), seed=7, threads=1, out="x", fmt="csv")
    assert (cfg.seed, cfg.threads, cfg.out, cfg.format) == (7, 1, "x", "csv")
    assert cfg.digest == ("f183b53b4be5df55f18af6d06dc5c17d"
                          "8706d02458804b1bf576552b434ea121")


def test_flag_overrides_are_validated(tmp_path, capsys):
    # a bad value is refused the same way from a flag as from the config
    out = tmp_path / "o"
    good = write_config(tmp_path, {"out": str(out)}, name="good.json")
    for key, flag, value in (("seed", "--seed", -1), ("threads", "--threads", 0)):
        bad = write_config(tmp_path, {key: value, "out": str(out)},
                           name=f"bad_{key}.json")
        assert main(["cov", "--config", bad]) == 2
        assert main(["cov", "--config", good, flag, str(value)]) == 2
        assert f"{key} must be >=" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError, match="format"):
        load_config(write_config(tmp_path), fmt="xml")


def test_load_config_rejects_bad_input(tmp_path, capsys):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(p))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"mystery": 1}))
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, {"eps": -1.0}))
    # null stands for the default only where the default is null
    for key in ("T", "eps", "N", "seed", "quad_tol", "conditions_budget",
                "threshold", "threads"):
        with pytest.raises(ConfigError, match=f"{key} must be a number"):
            load_config(write_config(tmp_path, {key: None}))
    # NaN and +-inf (JSON NaN, Infinity) name the key instead of failing later
    for key, value in (("quad_tol", math.nan), ("quad_tol", math.inf),
                       ("N", math.inf), ("T", -math.inf), ("eps", math.nan)):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            load_config(write_config(tmp_path, {key: value}))
    # and in list keys, scalar points and d > 1 points alike
    for key, value in (("z_grid", [math.nan]), ("ls", [math.nan]),
                       ("T_grid", [5.0, math.inf]), ("ls", [[0.0, -math.inf]]),
                       ("t_grid", [0.0, math.nan])):
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            load_config(write_config(tmp_path, {key: value}))
    for key, cmd in (("z_grid", "cf"), ("ls", "simulate")):
        capsys.readouterr()
        assert main([cmd, "--config", write_config(tmp_path, {key: [math.nan]}),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {key} must be finite" in capsys.readouterr().err
    # integer keys refuse fractions instead of truncating them, but take 1e4
    for key, value in (("N", 10.7), ("seed", 7.9), ("threads", 1.5),
                       ("conditions_budget", 1e6 + 0.5)):
        with pytest.raises(ConfigError, match=f"{key} must be an integer"):
            load_config(write_config(tmp_path, {key: value}))
    cfg = load_config(write_config(tmp_path, {"N": 1e4, "seed": 7.0}))
    assert (cfg.N, cfg.seed) == (10_000, 7)
    # a seed keys a 64-bit stream, in every subcommand
    for value in (2 ** 64, 2.0 ** 64):
        with pytest.raises(ConfigError, match=f"seed must be < {2 ** 64}$"):
            load_config(write_config(tmp_path, {"seed": value}))
    cfg = load_config(write_config(tmp_path, {"seed": 2 ** 64 - 1}))
    assert cfg.seed == 2 ** 64 - 1
    for key, value, cmd in (("seed", 2 ** 64, "cf"), ("N", 10.7, "simulate")):
        capsys.readouterr()
        assert main([cmd, "--config", write_config(tmp_path, {key: value}),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {key} must be" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    cfg = load_config(write_config(tmp_path, {"zs_base": None,
                                              "window_pad": None}))
    assert cfg.zs_base is None and cfg.window_pad is None
    for key in ("out", "format"):
        with pytest.raises(ConfigError, match=f"{key} must be a string"):
            load_config(write_config(tmp_path, {key: None}))
    p = tmp_path / "nokernel.json"
    p.write_text(json.dumps({"measure": {"kind": "dickman"}}))
    with pytest.raises(ConfigError):
        load_config(str(p))


@pytest.mark.parametrize("extra, message", [
    ({"z_grid": 0.5}, "z_grid must be a non-empty list of numbers"),
    ({"z_grid": [0.5, "1"]}, "z_grid must contain only numbers"),
    ({"ls": 0.0}, "ls must be a non-empty list"),
    ({"ls": [0.0, [1.0]]}, "ls must be all scalars or all lists"),
    ({"eps": 0}, "eps must be positive"),
    ({"t_grid": [[0.0, 1.0]]}, "t_grid entries must have dimension 1"),
    ({"kernel": "signed_ou"}, "kernel config must be a dict with a 'kind' key"),
    ({"kernel": {"kind": "user_table"}}, "user_table takes exactly the key 'file'"),
    ({"kernel": {"kind": "product"}}, "product takes exactly the key 'components'"),
    ({"kernel": {"kind": "user_table", "file": "bad.csv"}}, "bad table row '0.0,oops'")])
def test_config_errors_exit_2(tmp_path, capsys, extra, message):
    # the table's header row is skipped, the bad row after its data is not
    (tmp_path / "bad.csv").write_text("x,g\n-1.0,0.0\n0.0,oops\n1.0,0.0\n")
    out = tmp_path / "o"
    assert main(["cov", "--config", write_config(tmp_path, dict(extra, out=str(out)))]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_config_not_a_json_object(tmp_path, capsys):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    assert main(["cov", "--config", str(p)]) == 2
    assert "config error: config must be a JSON object" in capsys.readouterr().err


def test_conditions_csv_and_json(tmp_path):
    cfg_path = write_config(tmp_path, {
        "measure": {"kind": "dickman"}, "out": str(tmp_path / "o")})
    assert main(["conditions", "--config", cfg_path]) == 0
    comments, header, rows = read_csv(tmp_path / "o" / "conditions.csv")
    assert comments[0].startswith("# config_digest=")
    assert header == ["c1", "c2", "c3", "c1_pass", "c2_pass", "c3_pass"]
    vals = rows[0]
    assert abs(float(vals[2]) - 0.5) < 1e-6
    assert vals[3:] == ["true", "true", "true"]

    assert main(["conditions", "--config", cfg_path, "--format", "json"]) == 0
    doc = json.loads((tmp_path / "o" / "conditions.json").read_text())
    assert list(doc)[:2] == ["config_digest", "seed"]
    assert doc["pass"] == [True, True, True]


def test_conditions_subnormal_kernel_values(tmp_path):
    # |f| of signed_ou x gauss_deriv is subnormal far out, where 1/|f|
    # overflowed: small_jump_variance(inf) raised and the run exited 4
    cfg_path = write_config(tmp_path, {
        "measure": {"kind": "inner_truncated_stable", "alpha": 1.5, "c": 1.0,
                    "delta": 1.0},
        "kernel": {"kind": "product", "components": [
            {"kind": "signed_ou"}, {"kind": "gauss_deriv"}]},
        "quad_tol": 1e-5, "out": str(tmp_path / "o")})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["conditions", "--config", cfg_path, "--format", "json"]) == 0
    doc = json.loads((tmp_path / "o" / "conditions.json").read_text())
    assert math.isfinite(doc["c3"]) and doc["pass"] == [True, True, True]


def test_cf_outputs(tmp_path):
    cfg_path = write_config(tmp_path, {
        "z_grid": [0.5, 1.0], "T": 5.0, "out": str(tmp_path / "o")})
    assert main(["cf", "--config", cfg_path]) == 0
    names = {p.name for p in (tmp_path / "o").iterdir()}
    assert names == {"cf_stationary.csv", "cf_window.csv",
                     "cf_limit_claimed.csv", "cf_limit_boundary.csv"}
    _, header, rows = read_csv(tmp_path / "o" / "cf_stationary.csv")
    assert header == ["z", "log_re", "log_im", "cf_re", "cf_im"]
    want = analytic.log_cf_stationary(kernels.signed_ou(),
                                      levy.two_point(1.0), 1.0)
    row = [r for r in rows if float(r[0]) == 1.0][0]
    assert abs(float(row[1]) - want.real) < 1e-12
    assert abs(float(row[3]) - np.exp(want).real) < 1e-12


def test_cf_inner_truncated_stable_near_alpha_2(tmp_path):
    # alpha = 1.99: the former head quadrature of K overflowed on this config
    # and the run exited 2 with "integrand returned a non-finite value"
    cfg_path = write_config(tmp_path, {
        "measure": {"kind": "inner_truncated_stable", "alpha": 1.99,
                    "c": 1.0, "delta": 0.01},
        "z_grid": [0.5], "T": 5.0, "out": str(tmp_path / "o")})
    assert main(["cf", "--config", cfg_path]) == 0
    _, _, rows = read_csv(tmp_path / "o" / "cf_window.csv")
    assert all(math.isfinite(float(v)) for row in rows for v in row)


def test_cf_failure_writes_no_file(tmp_path, capsys):
    # every spec and integral is done before the first file is written:
    # zs_base of the wrong length, and d=2 windows for a d=1 kernel
    out = tmp_path / "o"
    for extra in ({"ls": [0.0, 1.0], "zs_base": [1.0]}, {"ls": [[0.0, 0.0]]}):
        capsys.readouterr()
        cfg_path = write_config(tmp_path, dict(extra, z_grid=[0.5],
                                               out=str(out)))
        assert main(["cf", "--config", cfg_path]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


def test_one_engine_run_per_law_and_T(tmp_path, monkeypatch):
    # cf: one engine run for the stationary, window and limit corner
    # integrals, with one top row per law and nonzero z; converge: one limit
    # run for the distinct nonzero |u| plus one window run per T
    runs = []
    engine = analytic._box_rows
    monkeypatch.setattr(analytic, "_box_rows", lambda f, boxes, *a:
                        runs.append(len(boxes)) or engine(f, boxes, *a))
    cfg_path = write_config(tmp_path, {
        "z_grid": [-1.0, 0.0, 0.5, 1.0, 2.0], "T_grid": [2.0, 4.0], "T": 2.0,
        "quad_tol": 1e-6, "out": str(tmp_path / "o")})
    assert main(["cf", "--config", cfg_path]) == 0
    assert runs == [3 * 4]
    runs.clear()
    assert main(["converge", "--config", cfg_path]) == 0
    assert runs == [3, 3, 3]


def test_cov_output(tmp_path):
    cfg_path = write_config(tmp_path, {
        "t_grid": [0.0, 1.0, 2.0], "out": str(tmp_path / "o")})
    assert main(["cov", "--config", cfg_path]) == 0
    comments, header, rows = read_csv(tmp_path / "o" / "cov.csv")
    assert header == ["t", "C"]
    assert any("integral_exact=0" in c for c in comments)
    got = {float(r[0]): float(r[1]) for r in rows}
    assert got[0.0] == pytest.approx(1.0)
    assert got[2.0] == pytest.approx(-np.exp(-2.0))


def test_cov_output_2d(tmp_path):
    cfg_path = write_config(tmp_path, {
        "kernel": {"kind": "product", "components": [
            {"kind": "signed_ou"}, {"kind": "signed_ou"}]},
        "t_grid": [[0.0, 0.0], [1.0, 2.0]], "out": str(tmp_path / "o")})
    assert main(["cov", "--config", cfg_path]) == 0
    _, header, rows = read_csv(tmp_path / "o" / "cov.csv")
    assert header == ["t_0", "t_1", "C"]
    assert len(rows) == 2


def test_simulate_threads_identical(tmp_path):
    cfg_path = write_config(tmp_path, {
        "T": 5.0, "N": 200, "eps": 0.5, "out": str(tmp_path / "a")})
    assert main(["simulate", "--config", cfg_path, "--threads", "1"]) == 0
    assert main(["simulate", "--config", cfg_path, "--threads", "4",
                 "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "replicates.csv").read_bytes()
    b = (tmp_path / "b" / "replicates.csv").read_bytes()
    assert a == b
    text = a.decode()
    assert text.startswith("# config_digest=")
    assert text.splitlines()[1] == "replicate,l_index,S_value,Y_value"
    assert len(text.splitlines()) == 2 + 200


def test_simulate_replicates_csv_and_json(tmp_path):
    extra = {"T": 2.0, "ls": [0.0, 1.5], "N": 7, "eps": 0.5, "seed": 3,
             "out": str(tmp_path / "o")}
    cfg_path = write_config(tmp_path, extra)
    cfg = load_config(cfg_path)
    res = monte_carlo(SimConfig(measure=cfg.measure, kernel=cfg.kernel,
                                T=cfg.T, ls=cfg.ls, eps=cfg.eps,
                                n_replicates=cfg.N, seed=cfg.seed))
    assert main(["simulate", "--config", cfg_path]) == 0
    lines = (tmp_path / "o" / "replicates.csv").read_text().splitlines()
    assert lines[0] == f"# config_digest={cfg.digest} seed=3"
    assert lines[1] == "replicate,l_index,S_value,Y_value"
    assert len(lines) == 2 + 7 * 2
    cells = [line.split(",") for line in lines[2:]]
    assert [(int(r), int(j)) for r, j, _, _ in cells] == [
        (r, j) for r in range(7) for j in range(2)]
    for r, j, s, y in cells:    # %.17g round-trips doubles
        assert float(s) == res.S[int(r), int(j)]
        assert float(y) == res.Y[int(r), int(j)]

    assert main(["simulate", "--config", cfg_path, "--format", "json"]) == 0
    doc = json.loads((tmp_path / "o" / "replicates.json").read_text())
    assert list(doc) == ["config_digest", "seed", "columns", "rows"]
    assert (doc["config_digest"], doc["seed"]) == (cfg.digest, 3)
    assert doc["columns"] == ["replicate", "l_index", "S_value", "Y_value"]
    assert len(doc["rows"]) == 7 * 2
    for r, j, s, y in doc["rows"]:
        assert type(r) is int and type(j) is int
        assert s == res.S[r, j] and y == res.Y[r, j]

    # a kernel without an antiderivative has no limit sum: Y is NaN
    ctrl = write_config(tmp_path, {**extra, "kernel": {"kind": "persistent_control"}},
                        name="ctrl.json")
    assert main(["simulate", "--config", ctrl, "--format", "json"]) == 0
    doc = json.loads((tmp_path / "o" / "replicates.json").read_text())
    assert len(doc["rows"]) == 7 * 2
    assert all(math.isnan(y) and math.isfinite(s) for _, _, s, y in doc["rows"])


# sha256 of every file the six subcommands write for PIN_CONFIG; all but
# replicates.json were computed with the writers that preceded the single
# CLI emitter, which had no JSON form of the replicates. hyper.{csv,json}
# were re-pinned when hyper came to draw one cloud per replicate for all
# T: the T = 8 row kept its bytes, and only var_empirical and var_se moved
# at T = 2 and 4. replicates.{csv,json} and hyper.{csv,json} were re-pinned
# when the replicates were keyed by block of 512 (stream_for(seed, r // 512)),
# and hyper.{csv,json} again when the control curve came to honour quad_tol
# (1e-7 here): control_var at T = 8 moved by 1.8e-15, control_slope by 3.3e-16.
# replicates.{csv,json} and hyper.{csv,json} were re-pinned once more when the
# key block streams became SeedSequence-spawned SFC64 ones: only hyper's
# var_empirical and var_se moved, and its classification stayed hyperuniform
PIN_CONFIG = {"T": 3.0, "T_grid": [2.0, 4.0, 8.0], "z_grid": [-1.0, 0.5, 1.0],
              "t_grid": [0.0, 1.5], "N": 300, "ls": [0.0, 1.0],
              "quad_tol": 1e-7, "seed": 5, "eps": 0.5}
PINS = {
    "cf_limit_boundary.csv": "74c67e2eb38138af0e1847729e1b41457d953bb58a7d0822fca5132bbb896dba",
    "cf_limit_boundary.json": "0638b44d51c96f30d19ca2d4c0e9763e75b09272dc0b9531862ae3a7f2b8432a",
    "cf_limit_claimed.csv": "e24fb1df761be4a8ebcedd15748550aafcd6e7da83cb3e280aea0d55d45f8dc7",
    "cf_limit_claimed.json": "b537673e9969cb412cf9bcfcf5e4e0625bbcd8647aa1d6eaf3d2649c991e30e0",
    "cf_stationary.csv": "0c507de474766a52c1af03b55d2651964673982bab6585a8de0ca9dfe635fc53",
    "cf_stationary.json": "dd961e22f265b0e32e42ac7d955e0c264bde3862fd7ae5a8e3be7f3a6ddf5652",
    "cf_window.csv": "230d2bc5cc3cb2f0e22dfe037a10267cd71c6cb0d4a5e9fda5f91f0f3feca45f",
    "cf_window.json": "337dfef069db354050da2c81a89db422cbb976ef96a45442b6bf2eebc8b515ab",
    "conditions.csv": "1c2dc98b9362421c609ccdd1b8215311fbe93d134c8cadb9e4e50842115c706b",
    "conditions.json": "dd4f0e9ab75008f7f820f136c420d7a1921542caf7f49c931a66d708c4f3745e",
    "convergence.csv": "5cd969d2fea6b553ae060011f0e2379c547fb44c146effa9250494979f2f0b6d",
    "convergence.json": "d3c6b32a435ba5cf2cfcd26ec5a513ae5f2c99f5a12a7dc9c17a6af10b9a0821",
    "cov.csv": "051f6502b101d53f5c225db71cdcf017946dd6a61d1a5b4adf653fa883f0a43e",
    "cov.json": "81ab6b181b1d413881e259ad960f4cd16a3097cc1e6bca0f44b77a08af61f5b7",
    "hyper.csv": "2ee10f41b95925780083d2c8c06f8856e5533af0bfbebe894da203be3dbb0f7e",
    "hyper.json": "60f359bcaf425daf080cfe8cfff6738d021fa973a298c2aefd0b209c17ee07ca",
    "replicates.csv": "1b47b834f7f2f1ee3f1d7ea4f1f48a5f9c8b9fd0bd8c9989913765c1d8b6f9df",
    "replicates.json": "112e147b18fddec8eedb42d27238ac65f0df9b9cd858a298fa947813fad2333d",
}


def test_output_bytes_pinned(tmp_path):
    out = tmp_path / "o"
    cfg_path = write_config(tmp_path, dict(PIN_CONFIG, out=str(out)))
    for sub in ("conditions", "cf", "cov", "simulate", "converge", "hyper"):
        for fmt in ("csv", "json"):
            assert main([sub, "--config", cfg_path, "--format", fmt]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.iterdir()}
    assert got == PINS


# sha256 of the conditions, cf and cov files of a d = 2 config with one
# window and with two. The two-window CF files come from the nested box
# integrator, as computed before the engine evaluated every panel of a step
# in one integrand call; every one-window integral (all "one" files, and the
# conditions and stationary CF of "two") was recomputed when it moved to
# the chain of tabulated 1-d transforms. Every CF file was recomputed when
# K came to sum all its series terms by Horner's rule (largest move of a
# value 4.4e-16); the conditions and cov files did not move
PIN_D2_CONFIG = {"measure": {"kind": "dickman"},
                 "kernel": {"kind": "product", "components": [
                     {"kind": "signed_ou"}, {"kind": "signed_ou"}]},
                 "T": 4.0, "z_grid": [-1.0, 0.0, 0.5],
                 "t_grid": [[0.0, 0.0], [1.0, 0.5]], "quad_tol": 1e-6}
PIN_D2_WINDOWS = {"one": {"ls": [[0.0, 0.0]]},
                  "two": {"ls": [[0.0, 0.0], [1.0, -0.5]], "zs_base": [1.0, -0.5]}}
PINS_D2 = {
    "one": {
        "cf_limit_boundary.csv": "0991b6b2d0be9172663455817ab6e647a74e8ea538ab34b2f35fa3d3cd10a92a",
        "cf_limit_boundary.json": "97a5be446117fc7de47eb7c5affdd7911d6f0df9cea374a6f45fa009cb7f3c69",
        "cf_limit_claimed.csv": "7eb1664c07067a702c65a20264fa285e4838c1720151e6a8a5cd1d4e20634fa9",
        "cf_limit_claimed.json": "c7b3ebd01f73c554d9cb9dfbe23cd468ef962e2c91adfd29ff24cea7b7773ed5",
        "cf_stationary.csv": "53b524518c357dc23b57a0f49daf83dff587ea4b2afb5592441ea7c1b8497fea",
        "cf_stationary.json": "bed939098d5144c59c122394c9a7bfe04e29a19eb7443a973cbc90f37143b72b",
        "cf_window.csv": "09b19b75638f041b4d508013ceceafb991a01935ba5608c176336cc97feac312",
        "cf_window.json": "c7e5a1cd988c36e507758d471fac5d1b001f48c167f2c7cd2312ae77ce7144d2",
        "conditions.csv": "5338e9f4554c94a67ff1e922076b4784c321628e3418baee145d9f213a6202bd",
        "conditions.json": "41670a1e80619d24d7bc2ad0ccd82ae6cc5bc07ac5904932b13dc8231f54fa9e",
        "cov.csv": "bf45325b2ac55046894aa83f0d0db42c71796cc4b05b0c3561278c19fd4b63ab",
        "cov.json": "968feabdf870b52f303aa44f9efcb08c09c011111a5a9dfb6941051d42e6a65c",
    },
    "two": {
        "cf_limit_boundary.csv": "21db1de0755bc1a5674c65e2d816e4dc311bcf7bf2d374c7cb75e424311dc9f4",
        "cf_limit_boundary.json": "c18e157677f1f42983916da2930dd9181a0ec6638beebc24b8e4c277ac2e89d8",
        "cf_limit_claimed.csv": "9c7c681c5bade8aefa998c33344c1dcc8996b83ca782692742200baed7fac5c3",
        "cf_limit_claimed.json": "762be7bb141dd840abbf459d2e2ff6029406ec681c2ae13490f15da30b01986b",
        "cf_stationary.csv": "e43a46f7cc50ec4991fa5955165645f744d0e5fc0e62f329ffd406bd7e1fd65e",
        "cf_stationary.json": "3e5b089240c860d6d373f813e4a9a5ac041d65bbf274061ba85e08893be9ef9a",
        "cf_window.csv": "c1745908f50b46dd327c6ac31de5a1ba57c0a2cc96d446549d908ceb892c6717",
        "cf_window.json": "b067f100662f39f199457b0f01bae1215256b2b598abb0c383287c97ad5e0529",
        "conditions.csv": "e32d9527f6717d216adde220304d3c028619cb14d14a6ed3ba667a4fc7050fcb",
        "conditions.json": "ab2bcb2da69dda9f3d1f0ad08c545e4d7f4e9bef1b9a860f9723e230939fbc9a",
        "cov.csv": "6a7a6f602e551c47ff32469315eb6ae4a82dde0ae6f921ef6897705c400b2b6d",
        "cov.json": "77d8bf7c9af3686228a47bdb2b16d66bf239125c6104909ead5bb5f5b7229188",
    },
}


@pytest.mark.parametrize("windows", sorted(PIN_D2_WINDOWS))
def test_output_bytes_pinned_d2(tmp_path, windows):
    out = tmp_path / "o"
    cfg_path = write_config(tmp_path, dict(PIN_D2_CONFIG, **PIN_D2_WINDOWS[windows],
                                           out=str(out)))
    for sub in ("conditions", "cf", "cov"):
        for fmt in ("csv", "json"):
            assert main([sub, "--config", cfg_path, "--format", fmt]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.iterdir()}
    assert got == PINS_D2[windows]


def test_emit_without_rows(tmp_path):
    cfg = load_config(write_config(tmp_path, {"out": str(tmp_path / "o")}))
    path = tmp_path / "o" / "x.csv"
    assert cli._emit(cfg, "x", ["a", "b"], [], comments=["c=1"]) == str(path)
    assert path.read_text() == (
        f"# config_digest={cfg.digest} seed=0\n# c=1\na,b\n")
    cfg.format = "json"
    cli._emit(cfg, "x", ["a", "b"], iter([]))
    assert json.loads((tmp_path / "o" / "x.json").read_text())["rows"] == []


def test_emit_chunks_match_rows(tmp_path):
    # rows across two chunk boundaries, from a generator, equal the
    # row-at-a-time formatting byte for byte
    cfg = load_config(write_config(tmp_path, {"out": str(tmp_path / "o")}))
    n = 2 * cli._CHUNK + 3
    rows = [[r, f"s{r % 7}", r % 3 == 0, r / 7.0 - 50.0, (r % 5) > 2,
             math.pi * r] for r in range(n)]
    cols = ["i", "s", "b", "x", "c", "y"]
    path = cli._emit(cfg, "x", cols, (row for row in rows))
    line = "%s,%s,%s,%.17g,%s,%.17g\n"
    want = f"# config_digest={cfg.digest} seed=0\n" + ",".join(cols) + "\n"
    for i, s, b, x, c, y in rows:
        want += line % (i, s, "true" if b else "false", x,
                        "true" if c else "false", y)
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == want


def test_converge_output(tmp_path):
    cfg_path = write_config(tmp_path, {
        "T_grid": [5.0, 10.0, 20.0], "z_grid": [0.5, 1.0],
        "out": str(tmp_path / "o")})
    assert main(["converge", "--config", cfg_path]) == 0
    comments, header, rows = read_csv(tmp_path / "o" / "convergence.csv")
    assert header == ["T", "dist_claimed", "dist_boundary"]
    assert any("winner=boundary_augmented" in c for c in comments)
    assert len(rows) == 3
    assert main(["converge", "--config", cfg_path, "--format", "json"]) == 0
    doc = json.loads((tmp_path / "o" / "convergence.json").read_text())
    assert doc["winner"] == "boundary_augmented"


def test_hyper_output(tmp_path):
    cfg_path = write_config(tmp_path, {
        "T_grid": [2.0, 5.0, 10.0], "N": 500, "eps": 0.5,
        "out": str(tmp_path / "o")})
    assert main(["hyper", "--config", cfg_path]) == 0
    comments, header, rows = read_csv(tmp_path / "o" / "hyper.csv")
    assert header == ["T", "var_analytic", "var_empirical", "var_se",
                      "control_var"]
    assert any("classification=hyperuniform" in c for c in comments)
    assert len(rows) == 3


def test_hyper_control_curve_honours_quad_tol(tmp_path):
    cfg_path = write_config(tmp_path, {
        "T_grid": [2.0, 5.0, 10.0], "N": 50, "eps": 0.5, "quad_tol": 1e-4,
        "out": str(tmp_path / "o")})
    assert main(["hyper", "--config", cfg_path, "--format", "json"]) == 0
    doc = json.loads((tmp_path / "o" / "hyper.json").read_text())
    control = kernels.ProductKernel((kernels.persistent_control(),))
    var = lambda T, **tol: analytic.variance_window_quadrature(
        control, levy.two_point(1.0), T, **tol)
    want = [var(T, tol=1e-4) for T in (2.0, 5.0, 10.0)]
    assert doc["control_var"] == want
    assert want != [var(T) for T in (2.0, 5.0, 10.0)]


def test_subcommands_do_not_import_numpy_ma(tmp_path):
    # numpy.ma costs 12-15 ms in every fresh interpreter that imports it,
    # and np.unique does on its first call
    cfg_path = write_config(tmp_path, {
        "T": 2.0, "T_grid": [1.0, 1.5, 2.0], "z_grid": [-0.5, 0.5], "N": 200,
        "eps": 0.5, "out": str(tmp_path / "o")})
    code = ("import sys\n"
            "from idma.cli import main\n"
            "for sub in ('converge', 'hyper', 'simulate'):\n"
            f"    assert main([sub, '--config', {cfg_path!r}]) == 0, sub\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(idma.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("pad", [None, 3.5])
def test_hyper_passes_window_pad(tmp_path, monkeypatch, pad):
    # the one shared cloud gets the configured pad, and null its default
    seen = []

    def capture(cfg, T_grid):
        seen.append((cfg, list(T_grid)))
        return window_integral_sweep(cfg, T_grid)
    monkeypatch.setattr(verify, "window_integral_sweep", capture)
    cfg_path = write_config(tmp_path, {
        "T_grid": [2.0, 5.0, 10.0], "N": 100, "eps": 0.5, "window_pad": pad,
        "out": str(tmp_path / "o")})
    assert main(["hyper", "--config", cfg_path]) == 0
    want = kernels.signed_ou().decay_radius(1e-8) if pad is None else pad
    [(cfg, T_grid)] = seen
    assert T_grid == [2.0, 5.0, 10.0] and cfg.T == T_grid[-1]
    assert cfg.window_pad == want and cfg.n_replicates == 100


def test_exit_codes(tmp_path, capsys):
    assert main(["conditions", "--config",
                 str(tmp_path / "missing.json")]) == 2
    assert "config error" in capsys.readouterr().err

    bad = write_config(tmp_path, {"bogus_key": 1}, name="bad.json")
    assert main(["conditions", "--config", bad]) == 2

    # a NaN measure parameter used to run and write nan for every value
    nan = write_config(tmp_path, {
        "measure": {"kind": "two_point", "lambda": float("nan")},
        "out": str(tmp_path / "o")}, name="nan.json")
    capsys.readouterr()
    assert main(["cov", "--config", nan]) == 2
    assert "'lambda' must be a finite number" in capsys.readouterr().err

    # dickman truncated at eps = 1 leaves no jumps
    empty = write_config(tmp_path, {
        "measure": {"kind": "dickman"}, "eps": 1.0, "N": 10,
        "out": str(tmp_path / "o")}, name="empty.json")
    assert main(["simulate", "--config", empty]) == 2
    assert "config error" in capsys.readouterr().err

    # a window CF needs an antiderivative the persistent control lacks
    no_g = write_config(tmp_path, {
        "kernel": {"kind": "persistent_control"}, "z_grid": [1.0],
        "out": str(tmp_path / "o")}, name="no_g.json")
    assert main(["cf", "--config", no_g]) == 2
    assert "config error: operation needs an antiderivative" in capsys.readouterr().err

    # a T grid out of order reaches cf_convergence's ValueError
    unsorted = write_config(tmp_path, {
        "T_grid": [10.0, 5.0, 20.0], "z_grid": [1.0],
        "out": str(tmp_path / "o")}, name="unsorted.json")
    assert main(["converge", "--config", unsorted]) == 2
    assert "config error: T_grid must be increasing" in capsys.readouterr().err

    # the variance curve of the heavy-tailed family does not exist
    heavy = write_config(tmp_path, {
        "measure": {"kind": "inner_truncated_stable", "alpha": 1.5,
                    "c": 1.0, "delta": 0.01},
        "T_grid": [2.0, 4.0, 8.0], "N": 100, "eps": 0.5,
        "out": str(tmp_path / "o")}, name="heavy.json")
    assert main(["hyper", "--config", heavy]) == 4
    assert "divergent moment" in capsys.readouterr().err


def test_exit_code_nonconvergence(tmp_path, capsys):
    # an unattainable tolerance exhausts the evaluation budget
    cfg_path = write_config(tmp_path, {
        "measure": {"kind": "dickman"}, "z_grid": [1.0],
        "quad_tol": 1e-16, "out": str(tmp_path / "o")})
    assert main(["cf", "--config", cfg_path]) == 3
    assert "did not converge" in capsys.readouterr().err


def test_main_prints_paths(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"out": str(tmp_path / "o")})
    assert main(["conditions", "--config", cfg_path]) == 0
    out = capsys.readouterr().out.strip()
    assert out.endswith("conditions.csv")
