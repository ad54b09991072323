"""Every exported name exists, and every name the benchmark traces is still there.

``perfbench``'s tracer wraps the functions named in each module's ``__all__``
and skips a missing name without a word, so a stale export would otherwise
go unnoticed.  A traced name that is gone turns its per-layer metric into
null, which the benchmark cannot read as a result.
"""

import ast
import importlib
from pathlib import Path

import pytest

import phaselab
from phaselab.cli_reporting import build_preset, run_scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

MODULES = ("geometry", "radial_core", "fem2d", "symmetry_checks", "parabolic", "cli_reporting")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_module_all_exists(name):
    module = importlib.import_module(f"phaselab.{name}")
    assert module.__all__, name
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"phaselab.{name}.__all__ names missing attributes: {missing}"


def test_every_package_export_is_a_module_export():
    # the package re-exports from its modules; each name must be one the
    # module itself exports, bound to the same object
    tree = ast.parse(Path(phaselab.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert {node.module for node in imports} == set(MODULES)
    for node in imports:
        module = importlib.import_module(f"phaselab.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
            assert getattr(phaselab, alias.asname or alias.name) is getattr(module, alias.name)


def test_a_traced_run_leaves_no_benchmark_metric_null(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from run import _layer_metrics
    from spans import Tracer, summarize

    with Tracer() as t:
        run_scenario(build_preset("two_phase_displaced", n=8, pipeline="both"))
    dummy = {"batch_s": 1.0, "artifact_bytes": 0}
    metrics = _layer_metrics(summarize(t.spans), t.installed, dummy, dummy)
    assert [name for name, value in metrics.items() if value is None] == []
    # the heat flow reduces its probe rows through the traced public name
    assert metrics["symmetry_checks.probe_deviation_calls"] > 0
