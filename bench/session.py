"""One benchmark session: a fresh interpreter runs idma subcommands back to back.

    python3 bench/session.py PLAN.json

The plan names the package source directory, the config, the output
directory, the subcommands and whether to trace. The session imports idma,
loads the config (the end of set-up), runs each subcommand through the
CLI's own entry point, and prints one JSON line of CLOCK_MONOTONIC stamps,
exit codes and peak RSS. A traced session also saves its spans to the
plan's spans path and adds the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    t = time.perf_counter()
    import idma.cli as cli
    import_s = time.perf_counter() - t
    if not Path(cli.__file__).resolve().is_relative_to(Path(plan["src"]).resolve()):
        print(f"idma was imported from {cli.__file__}, not {plan['src']}",
              file=sys.stderr)
        return 2
    cli.load_config(plan["config"])
    setup_end = time.monotonic()

    tracer = None
    if plan["trace"]:
        from tracer import Tracer
        tracer = Tracer().install()
    runs = []
    for sub in plan["subcommands"]:
        t0 = time.monotonic()
        try:
            rc = cli.main([sub, "--config", plan["config"], "--out", plan["out"]])
        except Exception:
            traceback.print_exc()
            rc = -1
        runs.append([sub, rc, t0, time.monotonic()])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"import_s": import_s, "setup_end": setup_end, "runs": runs,
              "peak_rss_kb": peak_kb}
    if tracer is not None:
        tracer.uninstall()
        tracer.save(plan["spans"])
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
