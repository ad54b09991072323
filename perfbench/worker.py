"""One scenario run in a fresh interpreter, as ``phaselab preset NAME`` runs it.

Usage (from ``run.py``): ``python3 perfbench/worker.py JOB`` where JOB is a
JSON object with the checkout ``root``, the workload's ``specs``, the
``index`` of the spec to run, its ``out`` directory, a ``warmup_out``
directory and a ``trace`` flag.

The worker imports phaselab from the checkout's ``src``, generates the
workload's scenarios and prints a ``ready`` line with the system-wide
monotonic clock, which ends the set-up the runner times from launch.  It
then runs the chosen scenario once at n=8 (untimed warm-up), runs it at full
size with artifacts, timed, and prints one JSON line with the time, the
verdict, its peak resident set and, if traced, the span summary.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from spans import Tracer, summarize


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main(job: dict) -> int:
    root = Path(job["root"])
    sys.path.insert(0, str(root / "src"))
    import phaselab
    from phaselab import cli_reporting

    from workloads import WARMUP_N, Spec, make_scenario

    if Path(phaselab.__file__).resolve().parent != (root / "src" / "phaselab").resolve():
        raise RuntimeError(f"imported phaselab from {phaselab.__file__}, not from the checkout")
    specs = [Spec(*s) for s in job["specs"]]
    scenarios = [make_scenario(s) for s in specs]
    _emit({"ready": time.clock_gettime(time.CLOCK_MONOTONIC)})

    spec = specs[job["index"]]
    cli_reporting.run_scenario(make_scenario(spec, n=WARMUP_N), out_dir=job["warmup_out"])

    with (Tracer() if job["trace"] else nullcontext()) as tracer:
        t0 = time.perf_counter()
        res = cli_reporting.run_scenario(scenarios[job["index"]], out_dir=job["out"])
        elapsed = time.perf_counter() - t0
    out = {
        "elapsed": elapsed,
        "expectation_match": bool(res.expectation_match),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["spans"] = summarize(tracer.spans)
        out["installed"] = sorted(tracer.installed)
    _emit(out)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(json.loads(sys.argv[1])))
    except Exception as exc:  # report the failure to the runner, which counts it
        traceback.print_exc()
        _emit({"error": f"{type(exc).__name__}: {exc}"})
        sys.exit(1)
