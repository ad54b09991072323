"""phaselab benchmark: time to verdict, memory, and per-layer spans.

Run from the root of a checkout::

    python3 perfbench/run.py --workload elliptic_sweep --seed 1 --seconds 20 --trace 0

``--workload all`` runs the three workloads in turn.  The workloads, and
why each exists, are in ``workloads.py``.

A pass runs the workload's scenarios one at a time, each in a fresh
interpreter (``worker.py``) through the public API: ``build_preset`` ->
``run_scenario(scenario, out_dir=...)``, then ``merge_reports`` in this
process where the workload merges.  Passes repeat until ``--seconds`` have
gone, and at least twice, so that every artifact set can be compared with
the first pass's bytes.

End-to-end metrics (``--trace 0``), all with tracing off:

- ``batch_s``: the timed ``run_scenario`` calls of one pass plus its merge;
  median over passes.  Each call follows an untimed n=8 warm-up run of the
  same scenario in the same process.
- ``slowest_verdict_s``: the longest a ``phaselab preset`` user waits after
  import: each scenario's ``run_scenario`` time is its median over passes, and
  the metric is the largest of these.  Taking the median per scenario first
  keeps one slow call of a shorter scenario from standing in for the slowest.
- ``setup_s``: from launching a fresh interpreter until it has imported
  phaselab and generated the workload's scenarios; median over every worker
  of the run.  The CLI pays this on every call.
- ``peak_rss_mb``: the largest ``ru_maxrss`` (MB of 2**20 bytes) of a worker
  in a pass; median over passes.  One scenario per process keeps it steady:
  heap reuse between scenarios in one process makes the peak vary.
- ``verified_frac``: scenario runs and merges that passed every output check
  (``check.py``), over those attempted.  It stands for ``1 - failed_frac``,
  which is printed too; a metric that is 0 on every good run cannot carry a
  relative bound.

``--trace 1`` makes one untraced pass, then one pass with spans around every
public call (``spans.py``), checks that both produce the same bytes, and
reports per-layer self times and counts over the traced pass, the share of
each module, and the tracing overhead as the traced pass's ``batch_s`` minus
the untraced one's.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from check import artifact_digest, compare, read_row
from spans import MODULES, SPLU, Tracer, merge_summaries, summarize
from workloads import WORKLOADS, plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKER_TIMEOUT_S = 150
MIN_PASSES = 2

END_TO_END = {
    "batch_s": "s",
    "slowest_verdict_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "verified_frac": "ratio",
}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)  # shared with the workers


class Run:
    """One benchmark run of one workload: passes, checks and their tallies."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.specs = plan(workload, seed)
        self.work = work
        self.reference = json.loads((HERE / "reference.json").read_text())
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.setups: list[float] = []

    def _job(self, index: int, out: Path, trace: bool) -> list[str]:
        job = {
            "root": str(ROOT),
            "specs": [[s.preset, s.n, s.pipeline, s.k] for s in self.specs],
            "index": index,
            "out": str(out),
            "warmup_out": str(self.work / "warmup"),
            "trace": trace,
        }
        return [sys.executable, str(HERE / "worker.py"), json.dumps(job)]

    def launch(self, index: int, out: Path, trace: bool) -> dict:
        """Run one worker to completion; returns its last JSON line, or an error."""
        start = _now()
        proc = subprocess.Popen(self._job(index, out, trace), stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"error": f"worker timed out after {WORKER_TIMEOUT_S} s"}
        lines = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
        if not lines or "ready" not in lines[0]:
            return {"error": f"worker exited with {proc.returncode} before it was ready"}
        out = dict(lines[-1])
        out["setup_s"] = lines[0]["ready"] - start
        if proc.returncode != 0 and "error" not in out:
            out["error"] = f"worker exited with {proc.returncode}"
        return out

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"  FAILED {what}", flush=True)

    def run_pass(self, number: int, trace: bool = False) -> dict:
        """One pass over the scenarios, each checked; returns its timings."""
        pass_dir = self.work / f"pass{number}"
        times, rss, rows, spans, sizes, installed = {}, [], {}, [], 0, set()
        for index, spec in enumerate(self.specs):
            out = pass_dir / spec.slug
            res = self.launch(index, out, trace)
            self.attempted += 1
            label = f"pass {number} {spec.key} k={spec.k}"
            if "setup_s" in res:
                self.setups.append(res["setup_s"])
            if "error" in res:
                self.fail(f"{label}: {res['error']}")
                continue
            times[spec.slug] = res["elapsed"]
            rss.append(res["maxrss_kb"] / 1024.0)
            print(f"  {label}: {res['elapsed']:.4f} s, set-up {res['setup_s']:.4f} s, "
                  f"peak {rss[-1]:.1f} MB", flush=True)
            spans.append(res.get("spans", {}))
            installed.update(res.get("installed", ()))
            problems = [] if res["expectation_match"] else ["expectation_match is false"]
            try:
                rows[spec.slug] = read_row(out / "diagnostics.csv")
                digest, size = artifact_digest(out)
            except (OSError, ValueError) as exc:
                self.fail(f"{label}: {exc}")
                continue
            sizes += size
            problems += compare(rows[spec.slug], self.reference[spec.key])
            first = self.digests.setdefault(spec.slug, digest)
            if digest != first:
                problems.append("artifact bytes differ from pass 0")
            if problems:
                self.fail(f"{label}: " + "; ".join(problems))
        merge_s = 0.0
        if self.workload.merge:
            merge_s = self._merge(pass_dir, rows, trace, spans)
        return {
            "batch_s": sum(times.values()) + merge_s,
            "times": times,
            "peak_rss_mb": max(rss, default=0.0),
            "spans": merge_summaries(spans),
            "installed": installed,
            "artifact_bytes": sizes,
            "rows": rows,
        }

    def _merge(self, pass_dir: Path, rows: dict, trace: bool, spans: list) -> float:
        from phaselab import cli_reporting

        self.attempted += 1
        try:
            with (Tracer() if trace else nullcontext()) as tracer:
                t0 = time.perf_counter()
                merged, all_match = cli_reporting.merge_reports(pass_dir)
                elapsed = time.perf_counter() - t0
        except (OSError, ValueError) as exc:
            self.fail(f"merge: {exc}")
            return 0.0
        if tracer is not None:
            spans.append(summarize(tracer.spans))
        lines = Path(merged).read_text().splitlines()
        want = [",".join(rows[slug].values()) for slug in sorted(rows)]
        if not all_match or len(rows) != len(self.specs) or lines[1:] != want:
            self.fail(f"merge: all_match={all_match}, {len(lines) - 1} rows merged")
        return elapsed


def measure(run: Run, seconds: float) -> dict[str, float]:
    """Untraced passes for at least ``seconds`` and MIN_PASSES; end-to-end metrics."""
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(run.run_pass(len(passes)))
    failed_frac = len(run.failures) / run.attempted
    per_scenario = {}
    for p in passes:
        for slug, elapsed in p["times"].items():
            per_scenario.setdefault(slug, []).append(elapsed)
    if not per_scenario:
        raise SystemExit("error: no scenario run completed; see the failures above")
    slowest = max(per_scenario, key=lambda slug: statistics.median(per_scenario[slug]))
    metrics = {
        "batch_s": statistics.median([p["batch_s"] for p in passes]),
        "slowest_verdict_s": statistics.median(per_scenario[slowest]),
        "setup_s": statistics.median(run.setups),
        "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in passes]),
        "verified_frac": 1.0 - failed_frac,
    }
    for key, vals, what in (
        ("batch_s", [p["batch_s"] for p in passes], "passes"),
        ("slowest_verdict_s", per_scenario[slowest], f"passes of {slowest}"),
        ("peak_rss_mb", [p["peak_rss_mb"] for p in passes], "passes"),
    ):
        print(f"  {key:18s} {metrics[key]:12.4f} {END_TO_END[key]:5s}  median of {len(vals)} {what}, "
              f"range {min(vals):.4f}-{max(vals):.4f}")
    print(f"  {'setup_s':18s} {metrics['setup_s']:12.4f} s      median of {len(run.setups)} workers, "
          f"range {min(run.setups, default=0):.4f}-{max(run.setups, default=0):.4f}")
    print(f"  {'failed_frac':18s} {failed_frac:12.4f} ratio  {len(run.failures)} of {run.attempted} "
          f"scenario runs and merges failed")
    return metrics


def _layer_metrics(summary: dict, installed: set[str], traced: dict, untraced: dict) -> dict:
    """Per-layer metrics of the traced pass; None marks a span or counter that is gone."""

    def get(name, key="self_s"):
        """A span's total of ``key``: 0 if it was never called, None if it is gone."""
        if name.split("<")[0] not in installed:
            return None
        return summary.get(name, {}).get(key, 0)

    def ratio(a, b):
        return None if a is None or b is None else (a / b if b else 0.0)

    evolve_s, steps = get("parabolic.evolve"), get("parabolic.evolve", "steps")
    factor = f"{SPLU}<evolve"  # the step factorizations, not the eigen-solver's
    m = {
        "fem2d.solve_elliptic_s": get("fem2d.solve_elliptic"),
        "fem2d.solve_iterations": get("fem2d.solve_elliptic", "solve_iterations"),
        "fem2d.free_dofs": get("fem2d.assemble_system", "free_dofs"),
        "fem2d.stiffness_nnz": get("fem2d.assemble_system", "stiffness_nnz"),
        "fem2d.locate_points_s": get("fem2d.locate_points"),
        "fem2d.located_points": get("fem2d.locate_points", "located_points"),
        "fem2d.circle_sampler_init_s": get("fem2d.CircleSampler.__init__"),
        "fem2d.circle_samplers": get("fem2d.CircleSampler.__init__", "calls"),
        "fem2d.generate_mesh_s": get("fem2d.generate_mesh"),
        "fem2d.assemble_system_s": get("fem2d.assemble_system"),
        "fem2d.recover_boundary_flux_s": get("fem2d.recover_boundary_flux"),
        "fem2d.l2_error_to_radial_s": get("fem2d.l2_error_to_radial"),
        "geometry.validate_configuration_s": get("geometry.validate_configuration"),
        "geometry.region_index_at_s": get("geometry.PhaseConfig.region_index_at"),
        "radial_core.total_s": sum(
            r["self_s"] for name, r in summary.items() if name.startswith("radial_core.")
        ),
        "symmetry_checks.angular_spectrum_s": get("symmetry_checks.angular_spectrum"),
        "symmetry_checks.transmission_residual_s": get("symmetry_checks.transmission_residual"),
        "symmetry_checks.flux_residual_s": get("symmetry_checks.flux_residual"),
        "symmetry_checks.probe_deviation_s": get("symmetry_checks.probe_deviation"),
        "symmetry_checks.probe_deviation_calls": get("symmetry_checks.probe_deviation", "calls"),
        "parabolic.smallest_eigenvalue_s": get("parabolic.smallest_eigenvalue"),
        "parabolic.eigen_factorize_s": get(f"{SPLU}<smallest_eigenvalue"),
        "parabolic.eigen_iterations": get("parabolic.smallest_eigenvalue", "eigen_iterations"),
        "parabolic.evolve_s": evolve_s,
        "parabolic.steps": steps,
        "parabolic.step_s": ratio(evolve_s, steps),
        "parabolic.factorize_s": get(factor),
        "parabolic.factorizations": get(factor, "calls"),
        "parabolic.factor_nnz": get(factor, "factor_nnz"),
        "parabolic.fill_ratio": ratio(get(factor, "factor_nnz"), get(factor, "matrix_nnz")),
        "parabolic.v_error_vs_elliptic_s": get("parabolic.v_error_vs_elliptic"),
        "cli_reporting.run_scenario_s": get("cli_reporting.run_scenario"),
        "cli_reporting.write_artifacts_s": get("cli_reporting.write_artifacts", "total_s"),
        "cli_reporting.artifact_bytes": traced["artifact_bytes"],
        "cli_reporting.merge_reports_s": get("cli_reporting.merge_reports"),
    }
    for module in MODULES:
        own = sum(r["self_s"] for name, r in summary.items() if name.startswith(module + "."))
        m[f"share.{module}"] = ratio(own, traced["batch_s"])
    m["trace.overhead_s"] = traced["batch_s"] - untraced["batch_s"]
    m["trace.spans"] = sum(r["calls"] for r in summary.values())
    return m


# Where a per-layer count comes from: computed from array or file sizes, or
# read from the objects phaselab returns; other counts are counted spans.
COMPUTED = (
    "fem2d.free_dofs",
    "fem2d.stiffness_nnz",
    "fem2d.located_points",
    "parabolic.fill_ratio",
    "cli_reporting.artifact_bytes",
)
RETURNED = (
    "fem2d.solve_iterations",
    "parabolic.eigen_iterations",
    "parabolic.steps",
    "parabolic.factor_nnz",
)


def _layer_unit(name: str) -> str:
    if name.startswith("share.") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "s" if name.endswith("_s") else "count"


def trace_run(run: Run) -> dict[str, float | None]:
    untraced = run.run_pass(0)
    traced = run.run_pass(1, trace=True)
    if traced["rows"] != untraced["rows"]:
        run.fail("traced diagnostics differ from the untraced run's")
    summary = traced["spans"]
    metrics = _layer_metrics(summary, traced["installed"], traced, untraced)
    print(f"  traced pass {traced['batch_s']:.4f} s, untraced {untraced['batch_s']:.4f} s; "
          "self time by span:")
    for name, r in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"    {name:44s} {r['self_s']:9.4f} s {r['self_s'] / traced['batch_s']:7.1%} "
              f"{int(r['calls']):7d} calls")
    for name, value in metrics.items():
        if value is None:
            print(f"  missing: {name} (its function or counter is gone)")
            continue
        unit = _layer_unit(name)
        source = ("computed" if name in COMPUTED else "returned" if name in RETURNED
                  else "counted" if unit == "count" else "measured")
        print(f"  {name:40s} {value:14.6g} {unit:6s} {source}")
    return metrics


def _result(runs: list[tuple[str, Run, dict]], prefix: bool, trace: bool) -> dict:
    metrics = {}
    for name, run, values in runs:
        for key, value in values.items():
            unit = _layer_unit(key) if trace else END_TO_END[key]
            metrics[f"{name}.{key}" if prefix else key] = {"value": value, "unit": unit}
    attempted = sum(run.attempted for _, run, _ in runs)
    failed = sum(len(run.failures) for _, run, _ in runs)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "phaselab" / "__init__.py").is_file():
        print(f"error: no phaselab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = ROOT / ".bench_work"
    runs = []
    try:
        for name in names:
            run = Run(name, args.seed, work / name)
            print(f"workload {name} ({run.workload.why}), seed {args.seed}: "
                  + ", ".join(f"{s.key} k={s.k}" for s in run.specs), flush=True)
            values = trace_run(run) if args.trace else measure(run, args.seconds)
            runs.append((name, run, values))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(_result(runs, prefix=len(names) > 1, trace=bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
