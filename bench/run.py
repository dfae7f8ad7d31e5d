"""Run one idma benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: sessions run one after another, each a fresh
interpreter (bench/session.py) that imports idma from this checkout's src/
and runs the workload's subcommands back to back, with no warm-up. Sessions
start until the next one would end after --seconds (at least three, or
three traced/untraced pairs). After every session the outputs are checked
(bench/checks.py); a nonzero exit code or a failed check fails that
subcommand.

--trace 0 prints the end-to-end metrics, each the median over the run's
sessions. --trace 1 alternates untraced and traced sessions and prints the
per-layer metrics: medians over traced sessions, the untraced per-subcommand
times, and the tracing overhead. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
REFERENCE = BENCH / "reference.json"

MIN_SESSIONS = 3
# whatever --seconds says, start no session after HARD_STOP_S and kill one
# still running at KILL_S, so a run always ends inside three minutes
HARD_STOP_S = 120.0
KILL_S = 165.0
SUBCOMMAND_METRICS = ("cf", "simulate", "converge", "hyper")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "ok_ratio": "1"}
PER_LAYER = {"idma.import_ms": "ms",
             **{f"cli.{sub}_s": "s" for sub in SUBCOMMAND_METRICS},
             **tracer.UNITS, "trace.overhead_ratio": "1"}


def machine() -> dict:
    """The machine and code a result was measured on."""
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha}


class Run:
    """The sessions of one run of one workload, with their checked outcomes."""

    def __init__(self, workload: str, seed: int, size: str = "full", work=WORK):
        self.workload, self.size = workload, size
        self.cfg = workloads.config(workload, seed, size)
        self.subs = workloads.subcommands(workload)
        self.ref = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload][size]
        self.dir = Path(work) / workload
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.dir / "config.json"
        self.config_path.write_text(json.dumps(self.cfg, indent=1), encoding="utf-8")
        self.out = self.dir / "out"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.sessions = {False: [], True: []}
        self.attempted = self.failed = 0

    def session(self, traced: bool, timeout: float) -> float:
        """Run one session, check its outputs; return its spawn-to-exit time."""
        shutil.rmtree(self.out, ignore_errors=True)
        plan = {"src": str(SRC), "config": str(self.config_path),
                "out": str(self.out), "subcommands": self.subs,
                "trace": traced, "spans": str(self.dir / "spans.npz")}
        plan_path = self.dir / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        self.attempted += len(self.subs)
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "session.py"), str(plan_path)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"session timed out after {timeout:.0f} s", file=sys.stderr)
            self.failed += len(self.subs)
            return time.monotonic() - t_spawn
        elapsed = time.monotonic() - t_spawn
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"session exited {proc.returncode}:\n{proc.stderr[-2000:]}",
                  file=sys.stderr)
            self.failed += len(self.subs)
            return elapsed
        res = json.loads(lines[-1])
        ok = True
        for sub, rc, _, _ in res["runs"]:
            fails = [f"exit code {rc}"] if rc != 0 else checks.check(
                sub, self.out, self.cfg, self.ref)
            if fails:
                ok = False
                self.failed += 1
                print(f"{self.workload} {sub}: " + "; ".join(fails), file=sys.stderr)
        if not ok and proc.stderr:
            print(proc.stderr[-2000:], file=sys.stderr)
        runs = res["runs"]
        self.sessions[traced].append({
            "setup_s": res["setup_end"] - t_spawn,
            "wall_s": runs[-1][3] - runs[0][2],
            "sub_s": {sub: t1 - t0 for sub, _, t0, t1 in runs},
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
            "import_s": res["import_s"],
            "layers": res.get("layers"),
        })
        return elapsed

    def loop(self, seconds: float, trace: bool, min_sessions: int = MIN_SESSIONS):
        kinds = (False, True) if trace else (False,)
        start = time.monotonic()
        durations = []
        i = 0
        while True:
            remaining = start + KILL_S - time.monotonic()
            durations.append(self.session(kinds[i % len(kinds)],
                                          max(remaining, 1.0)))
            i += 1
            if i % len(kinds):
                continue
            elapsed = time.monotonic() - start
            # time for one more round, from the median session so far
            nxt = len(kinds) * statistics.median(durations)
            if elapsed + nxt > HARD_STOP_S:
                break
            if i >= min_sessions * len(kinds) and elapsed + nxt > seconds:
                break

    def _median(self, traced, key):
        vals = [s[key] for s in self.sessions[traced]]
        return statistics.median(vals) if vals else 0.0

    def _sub_times(self, sub):
        return [s["sub_s"][sub] for s in self.sessions[False] if sub in s["sub_s"]]

    def end_to_end(self) -> dict:
        return {"setup_s": self._median(False, "setup_s"),
                "wall_s": self._median(False, "wall_s"),
                "peak_rss_mb": self._median(False, "peak_rss_mb"),
                "ok_ratio": 1.0 - self.failed / self.attempted}

    def per_layer(self) -> dict:
        traced = [s["layers"] for s in self.sessions[True]]
        out = {}
        for name in tracer.UNITS:
            vals = [t[name] for t in traced]
            out[name] = statistics.median(vals) if vals else 0.0
            if name in tracer.COUNTS and len(set(vals)) > 1:
                print(f"count {name} differs between sessions: {vals}",
                      file=sys.stderr)
        every = self.sessions[False] + self.sessions[True]
        out["idma.import_ms"] = 1e3 * statistics.median(
            [s["import_s"] for s in every]) if every else 0.0
        for sub in SUBCOMMAND_METRICS:
            vals = self._sub_times(sub)
            out[f"cli.{sub}_s"] = statistics.median(vals) if vals else 0.0
        untraced = self._median(False, "wall_s")
        out["trace.overhead_ratio"] = (self._median(True, "wall_s") / untraced
                                       if untraced else 0.0)
        return out

    def summary(self) -> dict:
        """Spread of every untraced timing, for the human-readable lines."""
        rows = {key: [s[key] for s in self.sessions[False]]
                for key in ("setup_s", "wall_s")}
        rows.update((f"{sub}_s", self._sub_times(sub)) for sub in SUBCOMMAND_METRICS)
        return {key: vals for key, vals in rows.items() if vals}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "idma" / "__init__.py").is_file():
        print(f"no idma package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed % 2 ** 32)
    run.loop(args.seconds, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    values = run.per_layer() if args.trace else run.end_to_end()
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "sessions": {"untraced": len(run.sessions[False]),
                                              "traced": len(run.sessions[True])},
            "machine": machine()}
    for key, vals in run.summary().items():
        print(f"{key}: median {statistics.median(vals):.4f} s, min {min(vals):.4f}, "
              f"max {max(vals):.4f} over {len(vals)} untraced sessions")
    print(f"failed_ratio: {run.failed / run.attempted:g} (1) = "
          f"{run.failed} failed / {run.attempted} subcommands attempted")
    for k, m in metrics.items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    print("run " + json.dumps(info))
    raw = {kind: [{k: v for k, v in s.items() if k != "layers"}
                  for s in run.sessions[traced]]
           for kind, traced in (("untraced", False), ("traced", True))}
    (run.dir / f"result_trace{args.trace}.json").write_text(
        json.dumps({**info, "metrics": metrics, "attempted": run.attempted,
                    "failed": run.failed, "session_values": raw}, indent=1),
        encoding="utf-8")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
