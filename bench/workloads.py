"""The three CLI sessions the benchmark runs, at full and at toy size.

A workload is one JSON config plus the `idma` subcommands one session runs
on it, back to back, in a fresh interpreter. The workload seed goes into the
config's `seed` field and nowhere else. Full sizes are chosen so one session
takes a few seconds on a 2-core machine; toy sizes exist for the
benchmark's own tests.
"""

from __future__ import annotations

import copy

SIGNED_OU = {"kind": "signed_ou"}

_BASE = {
    "analytic_d2": {
        "subcommands": ["conditions", "cf", "cov"],
        "config": {
            "measure": {"kind": "dickman"},
            "kernel": {"kind": "product", "components": [SIGNED_OU, SIGNED_OU]},
            "T": 10.0,
            "ls": [[0.0, 0.0]],
            "z_grid": [0.5],
            "t_grid": [[0.0, 0.0], [1.0, 0.5]],
            "quad_tol": 1e-6,
        },
        "toy": {"z_grid": [0.25], "quad_tol": 1e-4},
    },
    "simulate_short": {
        "subcommands": ["simulate"],
        "config": {
            "measure": {"kind": "two_point", "lambda": 1.0},
            "kernel": SIGNED_OU,
            "T": 40.0,
            "ls": [0.0, 5.0, 10.0, 20.0],
            "eps": 1e-3,
            "N": 5000,
            "threads": 1,
        },
        "toy": {"N": 500},
    },
    "study_long": {
        "subcommands": ["converge", "hyper"],
        "config": {
            "measure": {"kind": "truncated_stable", "beta": 0.5, "C": 1.0},
            "kernel": SIGNED_OU,
            "T_grid": [5.0, 10.0, 20.0, 40.0],
            "ls": [0.0, 3.0],
            "z_grid": [-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0],
            "eps": 1e-3,
            "N": 500,
            "threads": 2,
        },
        "toy": {"z_grid": [1.0], "N": 200},
    },
}

NAMES = tuple(_BASE)
SIZES = ("full", "toy")


def subcommands(name: str) -> list:
    return list(_BASE[name]["subcommands"])


def config(name: str, seed: int, size: str = "full") -> dict:
    """The config document of one workload; `seed` is the only free input."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    cfg = copy.deepcopy(_BASE[name]["config"])
    if size == "toy":
        cfg.update(copy.deepcopy(_BASE[name]["toy"]))
    cfg["seed"] = int(seed)
    return cfg
