"""Presets, config files, artifact output, merging, and CLI exit codes."""

import copy
import filecmp
import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from phaselab import cli_reporting, fem2d, parabolic, symmetry_checks
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
    write_artifacts,
)
from phaselab.geometry import DomainSpec, PhaseConfig, PhaseRegion

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
    assert res.run.lam_min > 0.0 and res.decay.ok and res.monotone
    assert empty_diagnostics_cells(tmp_path / "out") == []


def test_a_parabolic_run_reports_only_the_probe_verdict(tmp_path):
    # the elliptic detectors did not run, so they claim nothing; their values
    # are written all the same, and here they sit far above the thresholds
    out = tmp_path / "out"
    res = run_scenario(build_preset("multiphase_discrete", n=8, pipeline="parabolic"), out_dir=out)
    assert res.verdicts == {"probes_symmetric": False}
    assert res.asymmetry_detected and res.expectation_match
    assert empty_diagnostics_cells(out) == [
        "fem_vs_radial_l2",  # not a layered layout
        "verdict_flux_symmetric",
        "verdict_radial",
        "verdict_transmission_symmetric",
    ]
    verdict_lines = [line for line in (out / "summary.txt").read_text().splitlines() if "verdicts" in line]
    assert verdict_lines == ["verdicts: probes_symmetric=false"]


def test_a_nan_detector_value_fires_its_detector():
    base = run_scenario(build_preset("two_phase_concentric", n=8, pipeline="both"))
    assert all(base.verdicts.values()) and len(base.verdicts) == 4
    run = copy.copy(base.run)
    run.probe_dev_max = (0.0, math.nan)
    for name, changed in (
        ("flux_symmetric", {"flux_stats": replace(base.flux_stats, rel_deviation=math.nan)}),
        ("radial", {"spectrum": replace(base.spectrum, nonradial_fraction=math.nan)}),
        ("transmission_symmetric", {"transmission": replace(base.transmission, residual=math.nan)}),
        ("probes_symmetric", {"run": run}),
    ):
        res = replace(base, **changed)
        cli_reporting._apply_verdicts(res)
        assert res.verdicts == {**base.verdicts, name: False}, name
        assert res.asymmetry_detected, name


def test_heat_flow_summary_counts_factors_and_lanczos_vectors(tmp_path, capsys, live_factors):
    # both layouts factor the cap step once, by SuperLU or, on a concentric
    # layout, exactly by FFT in angle, and read every step from its Krylov basis
    cases = (("two_phase_displaced", "SuperLU"), ("two_phase_concentric", "angular Fourier"))
    for name, solver in cases:
        out = tmp_path / name
        run = run_scenario(build_preset(name, n=8, pipeline="both"), out_dir=out).run
        assert capsys.readouterr().out == ""  # the counts go to summary.txt, never to stdout
        assert run.step_solver == solver
        # SuperLU factors the displaced cap step; the concentric one is factored in angle
        assert len(live_factors.built) == (solver == "SuperLU")
        live_factors.built.clear()
        assert run.krylov_dim % 8 == 0 and run.krylov_estimate <= 1e-14
        line = (
            f"heat flow: {run.steps} steps to t={run.final_time!r}, "
            f"1 factorization(s) ({solver}), {run.krylov_dim} Lanczos vectors "
            f"(error estimate {run.krylov_estimate:.1e})"
        )
        lines = (out / "summary.txt").read_text().splitlines()
        assert line in lines
        # the eigenvalue of the certificates comes from the same basis, not another solve
        assert f"smallest eigenvalue: {run.lam_min!r} (from the largest Ritz value)" in lines


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


@pytest.mark.parametrize(
    "args",
    [
        ("two_phase_displaced", "--n", "64"),
        ("two_phase_concentric", "--n", "64", "--pipeline", "both"),
    ],
)
def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path, args):
    """``phaselab preset`` writes the same bytes with one BLAS thread as with the default.

    A threaded BLAS reduction sums one partial per thread, so its last bits
    follow the thread count.  On a 1-core machine OpenBLAS runs one thread
    either way, and this test passes without checking anything.
    """
    src = os.path.dirname(os.path.dirname(cli_reporting.__file__))
    unset = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")  # the default: one thread per core
    base = {k: v for k, v in os.environ.items() if k not in unset}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    for label, env in (("default", base), ("one", {**base, "OPENBLAS_NUM_THREADS": "1"})):
        cmd = [sys.executable, "-m", "phaselab", "preset", *args, "--out", str(tmp_path / label)]
        subprocess.run(cmd, env=env, check=True, capture_output=True)
    a, b = tmp_path / "default" / args[0], tmp_path / "one" / args[0]
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert mismatch == [] and errors == []


def test_artifact_floats_survive_round_trip(tmp_path):
    run_scenario(build_preset("one_phase_disk", n=8), out_dir=tmp_path / "out")
    rows = (tmp_path / "out" / "u.csv").read_text().splitlines()[1:]
    vals = np.array([float(r.split(",")[3]) for r in rows])
    assert vals.max() == pytest.approx(0.25, abs=5e-3)
    # repr floats parse back exactly: no padding, no truncation
    for r in rows[:10]:
        cell = r.split(",")[3]
        assert repr(float(cell)) == cell


def _per_row_mesh(mesh) -> str:
    """mesh.txt as the per-row writer first produced it: the format's reference."""
    lines = [f"{mesh.nv} {mesh.nt} {len(mesh.boundary_edges)}\n"]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}\n")
    for (i, j, k), tag in zip(mesh.triangles, mesh.tri_tags):
        lines.append(f"{i} {j} {k} {tag}\n")
    for (i, j), tag in zip(mesh.boundary_edges, mesh.edge_tags):
        lines.append(f"{i} {j} {tag}\n")
    return "".join(lines)


def _per_row_field(mesh, values) -> str:
    """u.csv as the per-row writer first produced it."""
    lines = ["vertex_id,x,y,value\n"]
    for i, ((x, y), v) in enumerate(zip(mesh.vertices, values)):
        lines.append(f"{i},{float(x)!r},{float(y)!r},{float(v)!r}\n")
    return "".join(lines)


def test_block_writers_match_the_per_row_format(tmp_path):
    # awkward floats, and row counts that leave a partial last block
    awkward = [-0.0, 0.0, 5e-324, -5e-324, 1e-05, 1e16, 0.1 + 0.2, 1.0 / 3.0, 2.0**60, 1e308]
    awkward += [math.inf, -math.inf, math.nan]
    sectors = 12
    nv = 1 + sectors * (2 * fem2d._BLOCK_ROWS // sectors + 1)  # a centre, then whole rings
    rng = np.random.default_rng(5)
    vertices = rng.standard_normal((nv, 2)) * 10.0 ** rng.integers(-20, 20, (nv, 2))
    vertices[: len(awkward), 0] = awkward
    vertices[-len(awkward) :, 1] = awkward
    values = rng.standard_normal(nv)
    values[-len(awkward) :] = awkward
    nt = 2 * fem2d._BLOCK_ROWS + 7
    mesh = fem2d.Mesh(
        vertices=vertices,
        triangles=rng.integers(0, nv, (nt, 3)),
        tri_tags=rng.integers(0, 4, nt),
        boundary_edges=rng.integers(0, nv, (fem2d._BLOCK_ROWS, 2)),
        edge_tags=rng.integers(0, 2, fem2d._BLOCK_ROWS),
        sectors=sectors,
        radii=np.zeros(0),  # write_mesh reads no radius
    )
    fem2d.write_mesh(tmp_path / "mesh.txt", mesh, (tmp_path / "u.csv", values))
    assert (tmp_path / "mesh.txt").read_bytes() == _per_row_mesh(mesh).encode()
    assert (tmp_path / "u.csv").read_bytes() == _per_row_field(mesh, values).encode()
    # a mesh without sectors is refused, as assembly refuses it
    with pytest.raises(ValueError, match="polar mesh"):
        fem2d.write_mesh(tmp_path / "none.txt", replace(mesh, sectors=0), (tmp_path / "none.csv", values))


NEG_NAN = np.copysign(np.nan, -1.0)


@settings(deadline=None)
@given(hnp.arrays(np.float64, st.integers(0, 64), elements=st.floats(allow_subnormal=True)))
@example(np.array([0.0, -0.0, math.inf, -math.inf, math.nan, NEG_NAN, 5e-324, -5e-324, 1e16, -1e-5]))
def test_reprs_equal_python_repr(v):
    assert _cell_lines(v) == list(map(repr, v.tolist()))


def _cell_lines(v):
    """The float cells of v as text, one value per line."""
    return fem2d._rows(fem2d._float_cells(v), ",").decode().splitlines()


def _edge_grid():
    """Powers of two and ten over the whole range, their float neighbours, the switch points."""
    values = [math.ldexp(1.0, e) for e in range(-1074, 1024)]
    values += [float(f"1e{e}") for e in range(-323, 309)]
    values += [5e-324, 1e-323, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-4, 1e16]
    values += [2.0**53, 2.0**53 + 2, 9007199254740993.0, 0.1, 0.3, 1 / 3, 123.456, 1e15, 1e17]
    values += [math.nextafter(x, t) for x in values for t in (0.0, math.inf)]
    values += [0.0, -0.0, math.inf, -math.inf, math.nan, NEG_NAN]
    return np.concatenate([values, np.negative(values)])


def test_float_cells_on_the_edge_grid():
    v = _edge_grid()
    assert _cell_lines(v) == list(map(repr, v.tolist()))


def test_float_cells_on_random_bits():
    v = np.random.default_rng(20).integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    assert _cell_lines(v) == list(map(repr, v.tolist()))


@st.composite
def int_columns(draw):
    rows, cols = draw(st.integers(0, 40)), draw(st.integers(1, 5))
    block = draw(hnp.arrays(np.int64, (rows, cols), elements=st.integers(0, 2**62)))
    block[:, draw(hnp.arrays(bool, cols))] = 0  # some all-zero columns
    return list(block.T)


@settings(deadline=None)
@given(int_columns())
@example([np.array([0, 9, 10, 2**62]), np.zeros(4, np.int64)])
def test_int_rows_equal_the_percent_d_rows(columns):
    fmt = " ".join(["%d"] * len(columns)) + "\n"
    want = "".join(fmt % row for row in zip(*(col.tolist() for col in columns)))
    assert fem2d._rows([fem2d._int_column(col) for col in columns], " ").decode() == want


@pytest.mark.parametrize("name", ["one_phase_annulus", "two_phase_displaced"])  # no centre; a centre
def test_write_mesh_matches_the_per_row_format_on_polar_meshes(tmp_path, monkeypatch, name):
    res = run_scenario(build_preset(name, n=16))
    mesh = res.system.mesh
    # blocks of five rings, so the last is partial, and several Schubfach chunks per block
    monkeypatch.setattr(fem2d, "_BLOCK_ROWS", 5 * mesh.sectors)
    monkeypatch.setattr(fem2d, "_CHUNK", 100)
    assert (mesh.nv // mesh.sectors) % (fem2d._BLOCK_ROWS // mesh.sectors)  # a partial last block
    fem2d.write_mesh(tmp_path / "mesh.txt", mesh, (tmp_path / "u.csv", res.solution.u))
    assert (tmp_path / "mesh.txt").read_bytes() == _per_row_mesh(mesh).encode()
    assert (tmp_path / "u.csv").read_bytes() == _per_row_field(mesh, res.solution.u).encode()


def _percent_table(header, fmt, columns) -> str:
    """A table as the per-row writer first produced it: ``fmt % row`` on Python numbers."""
    return header + "".join(fmt % row for row in zip(*(col.tolist() for col in columns)))


@pytest.fixture(scope="module")
def heat_flow_runs():
    runs = {}
    for name in EXPECTED_PRESETS:
        runs[name] = run_scenario(build_preset(name, n=16, pipeline="both"))
    return runs


@pytest.mark.parametrize("name", EXPECTED_PRESETS)
def test_spectra_and_timeseries_match_the_percent_writer(tmp_path, heat_flow_runs, name):
    res = heat_flow_runs[name]
    write_artifacts(res, tmp_path)
    spec = res.spectrum
    modes = spec.cos_coeffs.shape[1]
    columns = (
        np.repeat(spec.radii, modes),
        np.tile(np.arange(modes), len(spec.radii)),
        spec.cos_coeffs.ravel(),
        spec.sin_coeffs.ravel(),
    )
    want = _percent_table("radius,k,a_k,b_k\n", "%r,%d,%r,%r\n", columns)
    assert (tmp_path / "spectra.csv").read_bytes() == want.encode()
    run = res.run
    table = np.column_stack([run.times, run.mass_norms, run.probes])
    header = "t,mass_norm,probe_mean_u,probe_dev_u,probe_mean_flux,probe_dev_flux\n"
    want = _percent_table(header, ",".join(["%r"] * table.shape[1]) + "\n", table.T)
    assert (tmp_path / "timeseries.csv").read_bytes() == want.encode()


def test_artifact_writing_holds_one_block_of_strings(tmp_path):
    res = run_scenario(build_preset("two_phase_displaced", n=64))
    tracemalloc.start()
    try:
        write_artifacts(res, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 49k coordinate strings of the whole mesh would take 3.2 MB at once
    assert peak < 2**20


@pytest.mark.parametrize("name", EXPECTED_PRESETS)
def test_every_preset_meets_its_expectation_with_the_heat_flow(name):
    # the decay certificate follows backward Euler's own rate, so a layout whose
    # lam*dt is large (the annulus: lam ~ 39) is not failed for the scheme's lag
    res = run_scenario(build_preset(name, n=16, pipeline="both"))
    assert res.decay.ok, res.decay.max_ratio
    assert res.expectation_match


def test_only_the_heat_flow_assembles_the_mass_matrix(monkeypatch):
    calls = []

    def counting_assemble(mesh, *args):
        calls.append(mesh.nt)
        return real_assemble(mesh, *args)

    real_assemble = fem2d._assemble
    monkeypatch.setattr(fem2d, "_assemble", counting_assemble)
    res = run_scenario(build_preset("two_phase_displaced", n=8, pipeline="elliptic"))
    assert "mass" not in res.system.__dict__ and len(calls) == 1  # K only
    res = run_scenario(build_preset("two_phase_displaced", n=8, pipeline="both"))
    assert "mass" in res.system.__dict__ and len(calls) == 3  # K, then M once


SCALED_PRESETS = ("two_phase_displaced", "multiphase_discrete", "one_phase_annulus")
VERDICTS = ("verdicts", "asymmetry_detected", "expectation_match")


@pytest.fixture(scope="module")
def unscaled_runs():
    return {name: run_scenario(build_preset(name, n=16)) for name in SCALED_PRESETS}


@settings(derandomize=True, deadline=None, max_examples=30)
@given(name=st.sampled_from(SCALED_PRESETS), k=st.integers(-60, 60))
@example(name="multiphase_discrete", k=-40)  # its flux mean (~4.5e-13) once fell under the guard
def test_scaling_the_source_scales_u_and_keeps_every_verdict(unscaled_runs, name, k):
    # the problem is linear: a power-of-two source scale is exact in floating point
    base = unscaled_runs[name]
    sc = base.scenario
    res = run_scenario(replace(sc, source=tuple(2.0**k * c for c in sc.source)))
    assert np.array_equal(res.solution.u, 2.0**k * base.solution.u)
    flux = fem2d.recover_boundary_flux(res.system, res.solution.u).values
    base_flux = fem2d.recover_boundary_flux(base.system, base.solution.u).values
    assert np.array_equal(flux, 2.0**k * base_flux)
    assert res.solution.iterations == base.solution.iterations
    for verdict in VERDICTS:
        assert getattr(res, verdict) == getattr(base, verdict), verdict
    # the scale-free diagnostics columns stay bitwise the same
    assert res.flux_stats.rel_deviation == base.flux_stats.rel_deviation
    assert res.flux_stats.absolute_fallback == base.flux_stats.absolute_fallback
    assert res.spectrum.nonradial_fraction == base.spectrum.nonradial_fraction
    assert res.transmission.residual == base.transmission.residual


@pytest.fixture(scope="module")
def displaced_runs():
    return {n: run_scenario(build_preset("two_phase_displaced", n=n)) for n in (8, 12, 16)}


def rotated_by_sectors(scenario, k):
    """The scenario with every phase centre turned by k of the mesh's 6n sectors."""
    angle = 2.0 * math.pi * k / (6 * scenario.n)
    c, s = math.cos(angle), math.sin(angle)
    phases = tuple(
        replace(ph, center=(c * ph.center[0] - s * ph.center[1], s * ph.center[0] + c * ph.center[1]))
        for ph in scenario.config.phases
    )
    return replace(scenario, config=replace(scenario.config, phases=phases))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(n=st.sampled_from([8, 12, 16]), k=st.integers(0, 95))
def test_rotating_a_displaced_layout_by_whole_sectors_keeps_every_verdict(displaced_runs, n, k):
    # a turn by whole sectors maps the polar mesh onto itself, so the turned
    # layout is the same discrete problem up to the round-off of the vertices
    base = displaced_runs[n]
    res = run_scenario(rotated_by_sectors(base.scenario, k % (6 * n)))
    assert (res.system.mesh.tri_tags >= 1).sum() == (base.system.mesh.tri_tags >= 1).sum()
    for verdict in VERDICTS:
        assert getattr(res, verdict) == getattr(base, verdict), verdict
    for name, value in (
        ("flux_rel_deviation", lambda r: r.flux_stats.rel_deviation),
        ("transmission_residual", lambda r: r.transmission.residual),
    ):
        assert value(res) == pytest.approx(value(base), rel=1e-10, abs=0.0), name
    # the spectrum samples the vertex angles, so the turn is a cyclic shift of
    # its samples and leaves every mode amplitude in place
    amp, base_amp = (np.hypot(r.spectrum.cos_coeffs, r.spectrum.sin_coeffs) for r in (res, base))
    assert np.max(np.abs(amp - base_amp)) <= 1e-12 * base_amp.max()


@st.composite
def concentric_layouts(draw):
    """A ball or an annulus holding one or two centred disks or rings, and a mesh size."""
    r0 = draw(st.sampled_from([0.0, 0.3]))
    first = draw(st.sampled_from(["disk", "ring"])) if r0 == 0.0 else "ring"  # a disk fills the centre
    shapes = [first] + ["ring"] * draw(st.integers(0, 1))
    # the interface radii, spread by random gaps over (r0, top) with top below the probe circle
    gaps = draw(st.lists(st.floats(0.1, 1.0), min_size=7, max_size=7))
    top = r0 + 0.7 * (1.0 - r0)
    radii = iter(r0 + (top - r0) * np.cumsum(gaps)[:6] / sum(gaps))
    phases = []
    for shape in shapes:
        sigma = draw(st.floats(0.2, 5.0))
        if shape == "disk":
            phases.append(PhaseRegion(shape="disk", sigma=sigma, radius=float(next(radii))))
        else:
            lo, hi = float(next(radii)), float(next(radii))
            phases.append(PhaseRegion(shape="ring", sigma=sigma, r_inner=lo, r_outer=hi))
    kind = "annulus" if r0 > 0.0 else "ball"
    config = PhaseConfig(domain=DomainSpec(kind, inner_radius=r0), phases=tuple(phases))
    return config, draw(st.sampled_from([8, 12]))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(layout=concentric_layouts())
def test_random_concentric_layouts_keep_the_detectors_at_round_off(layout):
    # the transmission residual is left out: it is an O(h^2) quantity, not round-off
    config, n = layout
    res = run_scenario(Scenario(name="concentric", config=config, n=n, pipeline="both"))
    assert res.flux_stats.rel_deviation <= 1e-12
    assert res.spectrum.nonradial_fraction <= 1e-12
    assert res.run.probe_dev_max[0] <= 1e-10
    # the probe's mean flux crosses zero in the first steps, and a deviation
    # relative to a mean near zero reads up to 9.3e-9 on these layouts; so the
    # flux spread is taken unscaled, against the largest mean of the run
    mean, dev = res.run.probes[:, 2], res.run.probes[:, 3]
    spread = dev * np.where(np.abs(mean) < symmetry_checks.MEAN_GUARD, 1.0, np.abs(mean))
    assert spread.max() <= 1e-12 * np.abs(mean).max()
    assert res.decay.ok and res.monotone


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


def test_main_report_on_a_missing_or_plain_file_exits_2(tmp_path, capsys):
    (tmp_path / "file.txt").write_text("not a directory\n")
    for path in (tmp_path / "missing", tmp_path / "file.txt"):
        assert main(["report", "--merge", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_main_report_on_a_truncated_row_exits_2_naming_the_file(tmp_path, capsys):
    run_scenario(build_preset("one_phase_disk", n=8), out_dir=tmp_path / "disk")
    diag = tmp_path / "disk" / "diagnostics.csv"
    header, row = diag.read_text().splitlines()
    diag.write_text(header + "\n" + row.rsplit(",", 3)[0] + "\n")
    assert main(["report", "--merge", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(diag) in err
    assert f"{len(DIAG_COLUMNS) - 3} cells" in err


def test_main_report_on_a_header_only_file_exits_2_naming_the_file(tmp_path, capsys):
    run_scenario(build_preset("one_phase_disk", n=8), out_dir=tmp_path / "disk")
    diag = tmp_path / "disk" / "diagnostics.csv"
    diag.write_text(diag.read_text().splitlines()[0] + "\n")
    assert main(["report", "--merge", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: {diag} has no row" in err
    assert "no diagnostics.csv files found" not in err


def test_main_preset_into_a_plain_file_exits_2(tmp_path, capsys):
    out = tmp_path / "README.md"
    out.write_text("a file, not a directory\n")
    assert main(["preset", "one_phase_disk", "--n", "8", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert out.read_text() == "a file, not a directory\n"


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


def test_a_heat_flow_checks_its_probe_before_meshing(tmp_path, monkeypatch, capsys):
    meshed = []
    real = cli_reporting.generate_mesh
    monkeypatch.setattr(cli_reporting, "generate_mesh", lambda *a: meshed.append(a) or real(*a))
    core = [{"shape": "disk", "sigma": 2.0, "center": [0.2, 0.0], "radius": 0.3}]
    for pipeline in ("parabolic", "both"):
        for radius, message in ((0.25, "meets the closure"), (1.2, "strictly inside")):
            cfg = write_config(
                tmp_path / "probe.json",
                n=128,
                pipeline=pipeline,
                probe_radius=radius,
                phases=core,
            )
            assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
            assert message in capsys.readouterr().err
    assert meshed == []
    # the elliptic pipeline only records where the probe lies
    cfg = write_config(tmp_path / "probe.json", pipeline="elliptic", probe_radius=0.25, phases=core)
    res = run_scenario(load_config_file(cfg))
    assert len(meshed) == 1
    assert res.probe_placement_ok is False


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
        ({"source": []}, "'source' must hold at least one coefficient"),
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
        ({"name": "a\u0000b"}, "'name' must be a non-empty directory name"),
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
        "source-empty",
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
        "name-nul",
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


def test_main_run_rejects_overflowing_source_with_exit_2(tmp_path, capsys):
    for source, message in (
        # finite coefficients whose polynomial overflows at the vertices
        ([1e308, 1e308], "the source must be finite at every mesh vertex"),
        # a finite load whose squares overflow inside the solve (1e154 still solves)
        ([1e155], "the load is too large to solve in double precision"),
        ([1e200], "the load is too large to solve in double precision"),
    ):
        cfg = write_config(tmp_path / "overflow.json", source=source)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2, source
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_main_run_rejects_a_phase_that_tags_no_triangle_with_exit_2(tmp_path, capsys):
    # a disk far below the mesh scale holds no triangle: every detector would read
    # the bare shell and call the layout symmetric; each such phase is named
    tiny = {"shape": "disk", "sigma": 50.0, "center": [0.5, 0.013], "radius": 0.004}
    core = {"shape": "disk", "sigma": 2.0, "center": [-0.3, 0.0], "radius": 0.3}
    specks = [dict(tiny, label="speck"), core, dict(tiny, center=[0.0, -0.6])]
    for phases, unseen in (([tiny], "0 ('disk')"), (specks, "0 ('speck'), 2 ('disk')")):
        cfg = write_config(tmp_path / "unresolved.json", expect_symmetric=True, phases=phases)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2, unseen
        err = capsys.readouterr().err
        assert f"error: no triangle of the n=8 mesh lies in phase {unseen}; refine the mesh" in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("pipeline", ["elliptic", "both"])
def test_main_run_rejects_a_zero_source_with_exit_2(tmp_path, capsys, pipeline):
    # u = 0 and no heat: every detector would read symmetric without seeing anything
    cfg = write_config(tmp_path / "zero.json", source=[0.0], pipeline=pipeline)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "error: the source is zero at every interior vertex" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_main_run_rejects_underflowing_source_with_exit_2(tmp_path, capsys):
    # two_phase_displaced at n=16 with its source scaled down: at 1e-152 CG breaks
    # down on NaN, from 1e-156 the first r @ z underflows, and at 1e-323 every
    # entry of the load does; none may solve to u = 0 and claim symmetry
    displaced = [{"shape": "disk", "sigma": 2.0, "center": [0.2, 0.0], "radius": 0.3}]
    for scale in (1e-152, 1e-156, 1e-160, 1e-300, 1e-323):
        cfg = write_config(tmp_path / "underflow.json", n=16, phases=displaced, source=[scale])
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2, scale
        assert "error: the load is too small to solve in double precision" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_a_cg_at_its_iteration_limit_exits_3_with_one_error_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli_reporting, "solve_elliptic", functools.partial(fem2d.solve_elliptic, maxit=2))
    out = tmp_path / "out"
    assert main(["preset", "two_phase_displaced", "--n", "8", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: conjugate gradient did not converge in 2 iterations (relative residual ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_a_heat_flow_at_its_step_limit_exits_3_with_one_error_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(parabolic, "MAX_STEPS", 5)
    out = tmp_path / "out"
    assert main(["preset", "one_phase_disk", "--n", "8", "--pipeline", "both", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "error: heat flow did not reach the stopping norm\n"
    assert not out.exists()


def test_a_heat_flow_without_scipy_exits_2_before_meshing(tmp_path, monkeypatch, capsys):
    meshed = []
    real = cli_reporting.generate_mesh
    monkeypatch.setattr(cli_reporting, "generate_mesh", lambda *a: meshed.append(a) or real(*a))
    monkeypatch.setitem(sys.modules, "scipy", None)
    out = tmp_path / "out"
    for pipeline in ("parabolic", "both"):
        assert main(["preset", "one_phase_disk", "--n", "8", "--pipeline", pipeline, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the heat flow needs scipy: ") and err.count("\n") == 1
        assert "Traceback" not in err
    assert meshed == [] and not out.exists()


def test_a_run_that_cannot_fit_in_memory_exits_2_before_meshing(tmp_path, monkeypatch, capsys):
    meshed = []
    real = cli_reporting.generate_mesh
    monkeypatch.setattr(cli_reporting, "generate_mesh", lambda *a: meshed.append(a) or real(*a))
    need = cli_reporting.working_set_bytes("ball", 16)
    monkeypatch.setattr(cli_reporting, "_physical_memory", lambda: need - 1)
    out = tmp_path / "out"
    assert main(["preset", "two_phase_displaced", "--n", "16", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a run at n=16 needs about ") and err.count("\n") == 1
    assert err.rstrip().endswith("GiB of physical memory") and "Traceback" not in err
    assert meshed == [] and not out.exists()
    # the memory the estimate asks for is enough, and a system that reports none skips the check
    for have in (need, None):
        monkeypatch.setattr(cli_reporting, "_physical_memory", lambda: have)
        assert main(["preset", "two_phase_displaced", "--n", "16", "--out", str(out)]) == 0
    assert len(meshed) == 2
    # the heat flow adds its Lanczos basis bound, KRYLOV_MAX free-length vectors
    free = 1 + 16 * 96 - 96
    assert cli_reporting.working_set_bytes("ball", 16, "both") - need == parabolic.KRYLOV_MAX * 8 * free
    assert cli_reporting.working_set_bytes("ball", 16, "parabolic") - need == parabolic.KRYLOV_MAX * 8 * free


def test_the_working_set_estimate_tracks_the_peak():
    # below the peak at small n, where buffers of a fixed number of rows or
    # triangles weigh most, and an upper bound from n = 64, within 0.6 .. 1.25
    run_scenario(build_preset("two_phase_displaced", n=8))  # numpy's lazy imports, outside the window
    for name in preset_names():
        for n in (16, 32, 64):
            scenario = build_preset(name, n=n)
            tracemalloc.start()
            try:
                run_scenario(scenario)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            ratio = cli_reporting.working_set_bytes(scenario.config.domain.kind, n) / peak
            assert 0.6 <= ratio <= 1.25 and (ratio >= 1.0 or n < 64), (name, n, ratio)


def test_cg_stop_test_survives_an_underflowing_residual_norm():
    # two_phase_displaced at n=16: from about 1e-151 the load is too small for
    # CG's products.  At 1e-153 the first r @ z still passes, but ||r|| once
    # underflowed to 0 and stopped CG early with a residual of 0; the stop test
    # now compares norms scaled by a power of two, so the breakdown shows.
    sc = build_preset("two_phase_displaced", n=16)
    for scale in (1.0, 1e-150):
        sol = run_scenario(replace(sc, source=(scale,))).solution
        assert sol.iterations == 18 and 0.0 < sol.rel_residual <= 1e-10, scale
    for scale in (1e-151, 1e-152, 1e-153, 1.5e-153):
        with pytest.raises(ValueError, match="the load is too small to solve in double precision"):
            run_scenario(replace(sc, source=(scale,)))


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


def test_scenario_derives_geometry_and_free_blocks_once(monkeypatch):
    real_tri, real_corners, real_geometry = fem2d._tri_geometry, fem2d._band_corners, fem2d._corner_geometry
    calls, blocks, derived, compressed = [], [], [], []

    def counting_tri(vertices, triangles):
        calls.append(np.array(triangles))
        return real_tri(vertices, triangles)

    def counting_corners(mesh, lo, hi, field=None):
        if field is None:  # the vertices' corners; the L2 distance reads u's the same way
            blocks.append((lo, hi))
        return real_corners(mesh, lo, hi, field)

    def counting_geometry(*corners, out=None):
        derived.append(np.size(corners[0]))
        return real_geometry(*corners, out=out)

    real_tocsr = fem2d.PolarOperator.tocsr

    def counting_tocsr(operator):
        compressed.append(operator)
        return real_tocsr(operator)

    # every module that could bind the functions, so that no caller escapes the count
    for module in (fem2d, symmetry_checks):
        monkeypatch.setattr(module, "_tri_geometry", counting_tri, raising=False)
    monkeypatch.setattr(fem2d, "_band_corners", counting_corners)
    monkeypatch.setattr(fem2d, "_corner_geometry", counting_geometry)
    monkeypatch.setattr(fem2d.PolarOperator, "tocsr", counting_tocsr)

    def assembled_in_blocks(mesh):
        # assembly derives every triangle's geometry once, a band block at a time,
        # in order, from ring slices; the mass reuses the areas, and every other
        # derivation is one of the gathers counted in `calls`
        return (
            blocks[0][0] == 0
            and blocks[-1][1] == mesh.sectors // 6
            and all(stop == start for (_, stop), (start, _) in zip(blocks, blocks[1:]))
            and sum(derived) == mesh.nt + sum(len(t) for t in calls)
        )

    # an elliptic run compresses no operator; after assembly it gathers geometry
    # only for the transmission's core
    res = run_scenario(build_preset("two_phase_displaced", n=8))
    mesh = res.system.mesh
    assert res.expectation_match and compressed == []
    assert assembled_in_blocks(mesh)
    assert [t.tobytes() for t in calls] == [mesh.triangles[mesh.tri_tags >= 1].tobytes()]

    for name in ("two_phase_displaced", "two_phase_concentric"):
        calls[:], blocks[:], derived[:], compressed[:] = [], [], [], []
        res = run_scenario(build_preset(name, n=8, pipeline="both"))
        assert res.expectation_match and res.run is not None
        system, mesh = res.system, res.system.mesh
        K, M = system.stiffness, system.mass
        # the heat flow compresses the mass once, for its products, and, where the
        # layout is not rotation-invariant, the cap operator M + DT_MAX K, summed
        # once slot by slot, for SuperLU; never the stiffness
        assert compressed[0] is M and K not in compressed
        assert len(compressed) == 1 + (not system.rotation_invariant), name
        for cap in compressed[1:]:
            assert cap.values.tobytes() == (M.values + parabolic.DT_MAX * K.values).tobytes()
            assert cap.centre.tobytes() == (M.centre + parabolic.DT_MAX * K.centre).tobytes()
        # after assembly, geometry is gathered only for the triangles read: the
        # transmission's core and the probe circle's one triangle per sector
        assert assembled_in_blocks(mesh)
        core = mesh.triangles[mesh.tri_tags >= 1]
        assert [len(t) for t in calls] == [len(core), mesh.sectors], name
        assert np.array_equal(calls[0], core), name


_BLOCK_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
from phaselab.cli_reporting import build_preset, main, preset_names, run_scenario

out = sys.argv[1]
codes = [main(["preset", name, "--n", "16", "--out", out]) for name in preset_names()]
assert not [k for k in sys.modules if k.split(".")[0] == "scipy"]
assert "numpy.ma" not in sys.modules
try:
    run_scenario(build_preset("one_phase_disk", n=8, pipeline="both"))
except ValueError as exc:
    print(codes, exc)
"""


def test_an_elliptic_run_imports_no_scipy(tmp_path):
    # every preset, elliptic, in an interpreter where any scipy import fails
    src = os.path.dirname(os.path.dirname(cli_reporting.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, "-c", _BLOCK_SCIPY, str(tmp_path / "blocked")]
    done = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
    codes = [main(["preset", name, "--n", "16", "--out", str(tmp_path / "free")]) for name in preset_names()]
    # the same exit codes and bytes as a run that may import scipy; the heat flow imports it
    assert done.stdout.splitlines()[-1] == f"{codes} the heat flow needs scipy: scipy is blocked"
    for name in preset_names():
        a, b = tmp_path / "blocked" / name, tmp_path / "free" / name
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        assert mismatch == [] and errors == [], name


@pytest.mark.parametrize("name", ["two_phase_displaced", "two_phase_concentric", "one_phase_annulus"])
def test_an_elliptic_run_peaks_within_its_arrays(name):
    run_scenario(build_preset("two_phase_displaced", n=8))  # numpy's lazy imports, outside the window
    tracemalloc.start()
    try:
        res = run_scenario(build_preset(name, n=64))
        _, peak = tracemalloc.get_traced_memory()
        # the preconditioner keeps its coefficient buffer, L and L^H, each a complex
        # (rings, modes) array, the pivots D at half that, and the views of its sweeps
        system, mesh = res.system, res.system.mesh
        before = tracemalloc.get_traced_memory()[0]
        solve = fem2d._orbit_mean_solver(mesh, system.stiffness)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert "Mff" not in vars(system) and "mass" not in vars(system)
    # the mesh keeps its areas, and no per-triangle float triple such as the edge coefficients
    assert not hasattr(mesh, "geometry")
    floats = [a for a in vars(mesh).values() if isinstance(a, np.ndarray) and a.dtype.kind == "f"]
    assert all(a.shape != (mesh.nt, 3) for a in floats)
    # int32 index tables, and conductivity by tag, not per triangle
    assert mesh.triangles.dtype == mesh.tri_tags.dtype == np.int32
    assert system.sigma_table.shape == (len(res.scenario.config.phases) + 1,)

    def nbytes(*arrays):
        return sum(a.nbytes for a in arrays)

    K = system.stiffness
    assert K.values.shape[0] == 4  # the stored slots; the outward three are their mirrors
    held = (
        nbytes(mesh.vertices, mesh.triangles, mesh.tri_tags, mesh.boundary_edges, mesh.edge_tags)
        + nbytes(mesh.areas, system.load, system.g_vertex, system.free)
        + nbytes(system.boundary, res.solution.u)
        + 2 * nbytes(K.values, K.centre)  # K's slots, and assembly's temporaries
    )
    vector = 8 * len(system.free)
    # the estimate made before meshing counts the same arrays
    assert cli_reporting.working_set_bytes(res.scenario.config.domain.kind, 64) == held + 12 * vector
    # the solve holds CG's x, r, z, p and K p, the product's ghost vector and one block
    # of terms, and the preconditioner's arrays, about eleven free-length vectors with
    # u, of which K's second count takes four; the transmission's blocks of 4096 core
    # triangles peak at about seven on a displaced core.  On a radially layered layout
    # the L2 distance's three floats per triangle and their area factor, about eight,
    # peak beside K's product buffers at about 11.7; the bound allows twelve
    assert peak <= held + 12 * vector
    coefficients = 16 * (mesh.sectors // 6 - 1) * (mesh.sectors // 2 + 1)
    assert kept <= 4 * coefficients
