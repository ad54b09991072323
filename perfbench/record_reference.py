"""Record the diagnostics reference that the benchmark checks outputs against.

Run from the root of a checkout: ``python3 perfbench/record_reference.py``.
It runs every (preset, n, pipeline) of every workload once, unrotated, and
writes each diagnostics row to ``perfbench/reference.json``.  Re-record only
in a change that is meant to alter diagnostics, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from check import read_row
from workloads import WORKLOADS, Spec, make_scenario

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from phaselab import run_scenario

    work = ROOT / ".bench_work"
    specs = sorted({Spec(*s) for w in WORKLOADS.values() for s in w.scenarios}, key=lambda s: s.key)
    reference = {}
    try:
        for spec in specs:
            res = run_scenario(make_scenario(spec), out_dir=work / spec.slug)
            if not res.expectation_match:
                raise SystemExit(f"{spec.key}: expectation not met; not recording it")
            reference[spec.key] = read_row(work / spec.slug / "diagnostics.csv")
            print(spec.key, "recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
