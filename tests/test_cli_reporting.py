"""Presets, config files, artifact output, merging, and CLI exit codes."""

import filecmp
import json
from dataclasses import replace

import numpy as np
import pytest

from phaselab import cli_reporting, fem2d, symmetry_checks
from phaselab.cli_reporting import (
    DIAG_COLUMNS,
    OUT_ENV_VAR,
    Scenario,
    Tolerances,
    _fmt,
    build_preset,
    load_config_file,
    main,
    merge_reports,
    preset_names,
    run_scenario,
)
from phaselab.geometry import DomainSpec, PhaseConfig

EXPECTED_PRESETS = (
    "one_phase_disk",
    "one_phase_annulus",
    "two_phase_concentric",
    "two_phase_displaced",
    "multiphase_discrete",
    "nested_rings_hypothesis_violation",
)

# diagnostics.csv cells that only the heat flow fills
HEAT_FLOW_COLUMNS = (
    "lambda_min",
    "decay_max_ratio",
    "decay_slope_ratio",
    "decay_ok",
    "monotone_ok",
    "v_rel_error",
    "tail_bound",
    "final_time",
    "steps",
    "probe_dev_u_max",
    "probe_dev_flux_max",
    "verdict_probes_symmetric",
)


def write_config(path, **overrides):
    cfg = {"domain": {"kind": "ball"}, "n": 8}
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def empty_diagnostics_cells(out_dir):
    header, row = (out_dir / "diagnostics.csv").read_text().splitlines()
    return [col for col, cell in zip(header.split(","), row.split(",")) if cell == ""]


def test_preset_names_and_expectations():
    assert preset_names() == EXPECTED_PRESETS
    for name in EXPECTED_PRESETS:
        sc = build_preset(name)
        assert sc.name == name
        assert sc.n == 64
    assert not build_preset("two_phase_displaced").expect_symmetric
    assert not build_preset("multiphase_discrete").expect_symmetric
    assert not build_preset("nested_rings_hypothesis_violation").expect_hypotheses_ok
    assert build_preset("one_phase_annulus").config.domain.kind == "annulus"


def test_build_preset_overrides():
    sc = build_preset("two_phase_concentric", n=24, pipeline="both")
    assert sc.n == 24 and sc.pipeline == "both"
    assert len(build_preset("multiphase_discrete", phase_count=5).config.phases) == 5
    with pytest.raises(ValueError):
        build_preset("one_phase_disk", phase_count=2)
    with pytest.raises(ValueError):
        build_preset("no_such_layout")


def test_scenario_validation_and_probe_default():
    with pytest.raises(ValueError):
        Scenario(name="x", config=PhaseConfig(domain=DomainSpec("ball")), pipeline="spectral")
    sc = Scenario(name="x", config=PhaseConfig(domain=DomainSpec("annulus", inner_radius=0.5)))
    assert sc.resolved_probe_radius() == pytest.approx(0.875)


def test_load_config_round_trip(tmp_path):
    path = write_config(
        tmp_path / "layout.json",
        name="my_case",
        domain={"kind": "annulus", "inner_radius": 0.5},
        phases=[{"shape": "ring", "sigma": 3.0, "r_inner": 0.6, "r_outer": 0.7}],
        pipeline="both",
        probe_radius=0.9,
        source=[0.0, 1.0],
        expect_symmetric=False,
        expect_hypotheses_ok=False,
        tolerances={"probe": 0.05},
    )
    sc = load_config_file(path)
    assert sc.name == "my_case"
    assert sc.config.domain.inner_radius == 0.5
    assert sc.config.phases[0].shape == "ring"
    assert sc.pipeline == "both"
    assert sc.probe_radius == 0.9
    assert sc.source == (0.0, 1.0)
    assert not sc.expect_symmetric and not sc.expect_hypotheses_ok
    assert sc.tolerances == Tolerances(probe=0.05)


def test_load_config_defaults_name_from_stem(tmp_path):
    sc = load_config_file(write_config(tmp_path / "bare_case.json"))
    assert sc.name == "bare_case"
    assert sc.n == 8 and sc.pipeline == "elliptic" and sc.expect_symmetric


@pytest.mark.parametrize(
    "patch",
    [
        {"resolution": 8},
        {"domain": {"kind": "ball", "r": 1.0}},
        {"phases": [{"shape": "disk", "sigma": 2.0, "rad": 0.5}]},
        {"tolerances": {"flux": 1e-2}},
    ],
)
def test_load_config_rejects_unknown_keys(tmp_path, patch):
    path = write_config(tmp_path / "bad.json", **patch)
    with pytest.raises(ValueError, match="unknown key"):
        load_config_file(path)


def test_load_config_requires_domain_and_phase_fields(tmp_path):
    path = tmp_path / "nodomain.json"
    path.write_text(json.dumps({"n": 8}))
    with pytest.raises(ValueError, match="domain"):
        load_config_file(path)
    path2 = write_config(tmp_path / "badphase.json", phases=[{"sigma": 2.0}])
    with pytest.raises(ValueError, match="shape"):
        load_config_file(path2)
    path3 = tmp_path / "list.json"
    path3.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        load_config_file(path3)


def test_run_scenario_writes_all_elliptic_artifacts(tmp_path):
    sc = build_preset("two_phase_concentric", n=8)
    res = run_scenario(sc, out_dir=tmp_path / "out")
    assert res.expectation_match
    names = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert names == [
        "diagnostics.csv",
        "mesh.txt",
        "radial.csv",
        "spectra.csv",
        "summary.txt",
        "u.csv",
    ]
    diag = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
    assert diag[0] == ",".join(DIAG_COLUMNS)
    assert len(diag) == 2
    assert len(diag[1].split(",")) == len(DIAG_COLUMNS)
    assert empty_diagnostics_cells(tmp_path / "out") == list(HEAT_FLOW_COLUMNS)
    # radial dump holds both the layered reference and the auxiliary profile
    fields = {line.split(",")[0] for line in (tmp_path / "out" / "radial.csv").read_text().splitlines()[1:]}
    assert fields == {"reference_u", "auxiliary_q"}


def test_run_scenario_parabolic_adds_timeseries(tmp_path):
    sc = build_preset("one_phase_disk", n=8, pipeline="both")
    res = run_scenario(sc, out_dir=tmp_path / "out")
    assert res.expectation_match
    ts = (tmp_path / "out" / "timeseries.csv").read_text().splitlines()
    assert ts[0] == "t,mass_norm,probe_mean_u,probe_dev_u,probe_mean_flux,probe_dev_flux"
    assert len(ts) == len(res.run.times) + 1
    assert res.eigen is not None and res.decay.ok and res.monotone
    assert empty_diagnostics_cells(tmp_path / "out") == []


def test_run_scenario_rejects_probe_through_inclusion():
    sc = build_preset("two_phase_displaced", n=8, pipeline="parabolic")
    with pytest.raises(ValueError, match="meets the closure"):
        run_scenario(replace(sc, probe_radius=0.4))
    with pytest.raises(ValueError, match="strictly inside"):
        run_scenario(replace(sc, probe_radius=1.2))
    # the elliptic pipeline records placement but never samples, so it runs
    res = run_scenario(replace(sc, probe_radius=0.4, pipeline="elliptic"))
    assert not res.probe_placement_ok


def test_run_scenario_displaced_detects_asymmetry():
    res = run_scenario(build_preset("two_phase_displaced", n=16))
    assert res.asymmetry_detected
    assert res.expectation_match
    assert res.spectrum.dominant_mode == 1
    # no layered reference exists for an off-centre core
    assert res.radial_reference is None and res.fem_vs_radial_l2 is None


def test_run_scenario_artifacts_are_byte_identical(tmp_path):
    sc = build_preset("two_phase_concentric", n=8, pipeline="both")
    run_scenario(sc, out_dir=tmp_path / "a")
    run_scenario(sc, out_dir=tmp_path / "b")
    for p in sorted((tmp_path / "a").iterdir()):
        assert filecmp.cmp(p, tmp_path / "b" / p.name, shallow=False), p.name


def test_artifact_floats_survive_round_trip(tmp_path):
    run_scenario(build_preset("one_phase_disk", n=8), out_dir=tmp_path / "out")
    rows = (tmp_path / "out" / "u.csv").read_text().splitlines()[1:]
    vals = np.array([float(r.split(",")[3]) for r in rows])
    assert vals.max() == pytest.approx(0.25, abs=5e-3)
    # repr floats parse back exactly: no padding, no truncation
    for r in rows[:10]:
        cell = r.split(",")[3]
        assert repr(float(cell)) == cell


def test_merge_reports(tmp_path):
    run_scenario(build_preset("one_phase_disk", n=8), out_dir=tmp_path / "one_phase_disk")
    run_scenario(
        build_preset("two_phase_concentric", n=8), out_dir=tmp_path / "two_phase_concentric"
    )
    merged, all_match = merge_reports(tmp_path)
    assert all_match
    lines = merged.read_text().splitlines()
    assert lines[0] == ",".join(DIAG_COLUMNS)
    assert len(lines) == 3
    assert lines[1].startswith("one_phase_disk,")
    assert lines[2].startswith("two_phase_concentric,")


def test_merge_reports_flags_mismatch(tmp_path):
    # a disk declared asymmetric never fires a detector: expectation_match false
    sc = Scenario(
        name="wrong_claim",
        config=PhaseConfig(domain=DomainSpec("ball")),
        n=8,
        expect_symmetric=False,
    )
    res = run_scenario(sc, out_dir=tmp_path / "wrong_claim")
    assert not res.expectation_match
    _, all_match = merge_reports(tmp_path)
    assert not all_match


def test_merge_reports_error_paths(tmp_path):
    with pytest.raises(ValueError, match="no diagnostics"):
        merge_reports(tmp_path)
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "diagnostics.csv").write_text("some,other,schema\n1,2,3\n")
    with pytest.raises(ValueError, match="schema"):
        merge_reports(tmp_path)


def test_main_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    for name in EXPECTED_PRESETS:
        assert name in out


def test_main_preset_exit_codes(tmp_path, capsys):
    assert main(["preset", "one_phase_disk", "--n", "8", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "expectation_match=true" in out
    assert (tmp_path / "one_phase_disk" / "summary.txt").is_file()
    assert main(["preset", "no_such_layout"]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_main_run_config_and_mismatch_exit(tmp_path, capsys):
    ok = write_config(tmp_path / "disk.json")
    assert main(["run", str(ok), "--out", str(tmp_path / "o1")]) == 0
    capsys.readouterr()
    wrong = write_config(tmp_path / "wrong.json", expect_symmetric=False)
    assert main(["run", str(wrong), "--out", str(tmp_path / "o2")]) == 1
    capsys.readouterr()
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    assert "error:" in capsys.readouterr().err
    bad = write_config(tmp_path / "bad.json", resolution=8)
    assert main(["run", str(bad)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_main_preset_rejects_coarse_resolution_with_exit_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["preset", "two_phase_displaced", "--n", "3", "--out", str(out)]) == 2
    assert "error: resolution n must be at least 4" in capsys.readouterr().err
    assert not out.exists()


def test_main_run_rejects_probe_through_inclusion_with_exit_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "probe.json",
        pipeline="both",
        probe_radius=0.5,
        phases=[{"shape": "disk", "sigma": 2.0, "center": [0.3, 0.0], "radius": 0.3}],
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "meets the closure" in capsys.readouterr().err


def test_main_run_rejects_interface_outside_domain_with_exit_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "outside.json",
        phases=[{"shape": "ring", "sigma": 2.0, "r_inner": 0.5, "r_outer": 1.5}],
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "lies outside the domain" in capsys.readouterr().err


@pytest.mark.parametrize(
    "patch, message",
    [
        ({"domain": "ball"}, "'domain' must be a JSON object"),
        ({"phases": {"shape": "disk", "sigma": 2.0}}, "'phases' must be a JSON array"),
        ({"phases": ["disk"]}, "phase 0 must be a JSON object"),
        ({"tolerances": [1e-2]}, "'tolerances' must be a JSON object"),
        ({"source": 1.0}, "'source' in the config file must be a JSON array of numbers"),
        (
            {"phases": [{"shape": "disk", "sigma": 2.0, "center": 0.3, "radius": 0.2}]},
            "'center' in phase 0 must be a JSON array of two numbers",
        ),
        ({"tolerances": {"probe": None}}, "'probe' in 'tolerances' must be a JSON number"),
        (
            {"expect_symmetric": "false"},
            "'expect_symmetric' in the config file must be a JSON boolean",
        ),
        ({"n": 8.5}, "'n' in the config file must be a JSON integer"),
        (
            {"domain": {"kind": "ball", "outer_radius": True}},
            "'outer_radius' in 'domain' must be a JSON number",
        ),
        (
            {"phases": [{"shape": "disk", "sigma": "2", "radius": 0.2}]},
            "'sigma' in phase 0 must be a JSON number",
        ),
        ({"pipeline": 3}, "'pipeline' in the config file must be a JSON string"),
        ({"name": ""}, "'name' must be a non-empty directory name"),
        ({"name": "."}, "'name' must be a non-empty directory name"),
        ({"name": ".."}, "'name' must be a non-empty directory name"),
        ({"name": "a,b"}, "'name' must be a non-empty directory name"),
        ({"name": "../escaped"}, "'name' must be a non-empty directory name"),
        ({"name": "a\\b"}, "'name' must be a non-empty directory name"),
        ({"name": "a\nb"}, "'name' must be a non-empty directory name"),
        ({"name": "a\rb"}, "'name' must be a non-empty directory name"),
        ({"pipeline": "both", "probe_radius": -0.75}, "'probe_radius' must be positive"),
        ({"probe_radius": 0.0}, "'probe_radius' must be positive"),
        ({"tolerances": {"flux_symmetry": 0.0}}, "tolerance 'flux_symmetry' must be positive"),
        ({"tolerances": {"spectrum": -1e-3}}, "tolerance 'spectrum' must be positive"),
        ({"tolerances": {"transmission": 0}}, "tolerance 'transmission' must be positive"),
        ({"tolerances": {"probe": -2e-2}}, "tolerance 'probe' must be positive"),
        ({"tolerances": {"decay_slack": -0.01}}, "tolerance 'decay_slack' must be non-negative"),
    ],
    ids=[
        "domain",
        "phases",
        "phase",
        "tolerances",
        "source",
        "center",
        "tolerance",
        "expect",
        "n",
        "radius",
        "sigma",
        "pipeline",
        "name-empty",
        "name-dot",
        "name-dotdot",
        "name-comma",
        "name-parent",
        "name-backslash",
        "name-newline",
        "name-return",
        "probe-radius-negative",
        "probe-radius-zero",
        "flux-symmetry-zero",
        "spectrum-negative",
        "transmission-zero",
        "probe-negative",
        "decay-slack-negative",
    ],
)
def test_main_run_rejects_mistyped_node_with_exit_2(tmp_path, capsys, patch, message):
    cfg = write_config(tmp_path / "typed.json", **patch)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "unknown key" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
@pytest.mark.parametrize(
    "patch, message",
    [
        ({"tolerances": {"probe": "@"}}, "'probe' in 'tolerances' must be finite"),
        ({"source": [1.0, "@"]}, "'source' in the config file must be finite"),
        ({"phases": [{"shape": "disk", "sigma": "@", "radius": 0.2}]}, "'sigma' in phase 0"),
    ],
    ids=["tolerance", "source", "sigma"],
)
def test_main_run_rejects_non_finite_number_with_exit_2(tmp_path, capsys, literal, patch, message):
    # json reads NaN, Infinity and 1e400 into floats; the integer must not reach float()
    cfg = write_config(tmp_path / "finite.json", **patch)
    cfg.write_text(cfg.read_text().replace('"@"', literal))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "must be finite" in err
    assert not (tmp_path / "out").exists()


def test_tolerances_accept_zero_decay_slack():
    assert Tolerances(decay_slack=0.0).decay_slack == 0.0


def test_main_report_merge(tmp_path, capsys):
    run_scenario(build_preset("one_phase_disk", n=8), out_dir=tmp_path / "one_phase_disk")
    assert main(["report", "--merge", str(tmp_path)]) == 0
    assert "all rows matched" in capsys.readouterr().out
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", "--merge", str(empty)]) == 2


def test_main_out_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUT_ENV_VAR, str(tmp_path / "envroot"))
    assert main(["preset", "one_phase_disk", "--n", "8"]) == 0
    capsys.readouterr()
    assert (tmp_path / "envroot" / "one_phase_disk" / "diagnostics.csv").is_file()


def test_fmt_rules():
    assert _fmt(None) == ""
    assert _fmt(True) == "true" and _fmt(False) == "false"
    assert _fmt(np.bool_(True)) == "true"
    assert _fmt(7) == "7" and _fmt(np.int64(7)) == "7"
    assert _fmt(0.25) == "0.25"
    assert _fmt(np.float64(1.0 / 3.0)) == "0.3333333333333333"


class _NoSlicing:
    """A full operator that still multiplies but fails the test when sliced."""

    def __init__(self, matrix):
        self.matrix = matrix

    def __matmul__(self, other):
        return self.matrix @ other

    def __getitem__(self, key):
        raise AssertionError("a full operator was sliced after its free block was built")


def test_scenario_derives_geometry_and_free_blocks_once(monkeypatch):
    real_geometry = fem2d._tri_geometry
    calls = []

    def counting_geometry(vertices, triangles):
        calls.append(len(triangles))
        return real_geometry(vertices, triangles)

    # every module that could bind the function, so that no caller escapes the count
    for module in (fem2d, symmetry_checks):
        monkeypatch.setattr(module, "_tri_geometry", counting_geometry, raising=False)

    def assemble_then_guard(*args):
        system = fem2d.assemble_system(*args)
        assert system.Kff.shape == system.Mff.shape  # builds both free blocks
        system.stiffness, system.mass = _NoSlicing(system.stiffness), _NoSlicing(system.mass)
        return system

    monkeypatch.setattr(cli_reporting, "assemble_system", assemble_then_guard)
    res = run_scenario(build_preset("two_phase_displaced", n=8, pipeline="both"))
    assert res.expectation_match and res.run is not None
    assert calls == [res.system.mesh.nt]
