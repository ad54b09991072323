"""Acceptance criteria for the symmetry-diagnostics pipeline.

One test per criterion, numbered; each consumes the session-cached runs
from conftest.  Thresholds are stated inline next to every assertion.
"""

import filecmp
import math

import numpy as np

from phaselab.cli_reporting import build_preset, run_scenario
from phaselab.fem2d import CircleSampler
from phaselab.geometry import DomainSpec
from phaselab.parabolic import evolve, tail_bound

from conftest import angular_spectrum_of
from oracles import DISK_LAMBDA_EXACT, displaced_disk_flux_spread

SYMMETRIC_PRESETS = ("one_phase_disk", "one_phase_annulus", "two_phase_concentric")
ASYMMETRIC_PRESETS = ("two_phase_displaced", "multiphase_discrete")


def test_c1_interior_values_converge_to_layered_reference(elliptic64, concentric32):
    res = elliptic64["two_phase_concentric"]
    # vertex 0 is the mesh centre; closed-form centre value for sigma=2 core
    assert abs(res.solution.u[0] - 0.21875) < 2e-3
    order = math.log2(concentric32.fem_vs_radial_l2 / res.fem_vs_radial_l2)
    assert order >= 1.8, f"observed L2 order {order:.2f} between n=32 and n=64"
    assert res.elapsed < 30.0


def test_c2_mean_boundary_flux_matches_bulk_identity(elliptic64):
    for name, res in elliptic64.items():
        assert res.flux_identity_rel_error < 1e-2, (
            f"{name}: flux mean {res.flux_stats.mean!r} vs identity {res.flux_identity!r}"
        )
    # unit-strength source on the unit disk pushes exactly -1/2 per unit length
    for name in ("one_phase_disk", "two_phase_concentric", "two_phase_displaced"):
        assert abs(elliptic64[name].flux_identity - (-0.5)) < 1e-15
    assert abs(elliptic64["one_phase_annulus"].flux_identity - (-0.25)) < 1e-15


def test_c3_symmetry_dichotomy_across_layouts(elliptic64, asymmetric96):
    # concentric layouts: every detector stays quiet
    for name in SYMMETRIC_PRESETS:
        res = elliptic64[name]
        assert res.flux_stats.rel_deviation < 1e-2, name
        assert res.spectrum.nonradial_fraction < 1e-3, name
        if res.transmission.defined:
            assert res.transmission.residual < 5e-3, name
        assert not res.asymmetry_detected, name

    # every preset's verdict agrees with its declared expectation
    for name, res in elliptic64.items():
        assert res.asymmetry_detected == (not res.scenario.expect_symmetric), name
        assert res.flags.all_ok == res.scenario.expect_hypotheses_ok, name
        assert res.expectation_match, name

    # off-centre layouts: detectors fire, and stay fired under refinement
    d64 = elliptic64["two_phase_displaced"]
    d96 = asymmetric96["two_phase_displaced"]
    m64 = elliptic64["multiphase_discrete"]
    m96 = asymmetric96["multiphase_discrete"]
    for res in (d64, d96, m64, m96):
        name = res.scenario.name
        assert res.spectrum.dominant_mode == 1, name
        assert not res.verdicts["radial"], name
        assert res.transmission.residual > 5e-2, name
    for a, b in ((d64, d96), (m64, m96)):
        name = a.scenario.name
        for quantity in (
            lambda r: r.flux_stats.rel_deviation,
            lambda r: r.spectrum.nonradial_fraction,
            lambda r: r.transmission.residual,
        ):
            drift = abs(quantity(b) - quantity(a))
            assert drift <= 0.2 * quantity(a), name
    assert m64.flux_stats.rel_deviation > 5e-2
    assert m96.flux_stats.rel_deviation > 5e-2
    # a single off-centre core barely perturbs the boundary flux: the
    # continuum spread is 9.51e-3 (independent conformal-map oracle, whose
    # setting is one disk core in the unit disk with unit source), and the
    # FEM must converge to it from both resolutions
    (core,) = d64.scenario.config.phases
    assert d64.scenario.config.domain == DomainSpec() and d64.scenario.source == (1.0,)
    exact = displaced_disk_flux_spread(core.sigma, core.center, core.radius)
    err64 = abs(d64.flux_stats.rel_deviation - exact) / exact
    err96 = abs(d96.flux_stats.rel_deviation - exact) / exact
    spread = (
        f"displaced-core boundary-flux spread {d64.flux_stats.rel_deviation:.4e} at n=64, "
        f"{d96.flux_stats.rel_deviation:.4e} at n=96, continuum {exact:.4e}"
    )
    assert err64 < 1e-2 and err96 < 1e-2, spread
    assert err96 < err64, spread
    # that is just under the 1e-2 flux threshold, so the flux detector stays
    # quiet and the spectrum, transmission, and probe detectors carry the layout
    for res in (d64, d96):
        assert res.verdicts["flux_symmetric"], res.scenario.n
        assert res.asymmetry_detected, res.scenario.n


def test_c4_angular_transform_resolves_analytic_fields():
    radii = [0.25, 0.5, 0.75]
    radial = angular_spectrum_of(lambda P: 1.0 - np.linalg.norm(P, axis=1) ** 2, radii)
    assert radial.nonradial_fraction < 1e-12
    coord = angular_spectrum_of(lambda P: P[:, 0], radii)
    assert coord.dominant_mode == 1
    for i, r in enumerate(radii):
        assert abs(coord.cos_coeffs[i, 1] - r) < 1e-12
        rest = np.concatenate([coord.cos_coeffs[i, 2:], coord.sin_coeffs[i, 2:]])
        assert np.max(np.abs(rest)) < 1e-12


def test_c5_heat_flow_decays_at_certified_spectral_rate(parabolic64):
    for name, res in parabolic64.items():
        assert res.decay.ok, f"{name}: max ratio {res.decay.max_ratio:.4f}"
        assert res.decay.slack == 0.02
        assert res.elapsed < 120.0, name
    lam = parabolic64["one_phase_disk"].run.lam_min
    assert abs(lam - DISK_LAMBDA_EXACT) / DISK_LAMBDA_EXACT < 1e-2


def test_c6_time_integral_reaches_equilibrium_within_tail(parabolic64):
    for name, res in parabolic64.items():
        assert res.v_rel_error < 2e-2, f"{name}: relative error {res.v_rel_error:.4e}"
    # running on past the stopping norm adds no more than the certified tail,
    # and the reported tail is at least as tight as the domain-area form
    res = parabolic64["one_phase_disk"]
    ext = evolve(res.system, eps=1e-10, probe=CircleSampler(res.system, res.probe_radius))
    free = res.system.free
    gap = res.system.mass_norm(ext.v_field[free] - res.run.v_field[free])
    assert 0.0 < gap <= res.tail, f"gap {gap:.3e} vs tail {res.tail:.3e}"
    area_form = tail_bound(
        math.sqrt(res.system.mesh.areas.sum()), res.run.lam_min, res.run.final_time
    )
    assert res.tail <= area_form


def test_c7_probe_circles_separate_concentric_from_displaced(parabolic64):
    for name in ("one_phase_disk", "two_phase_concentric"):
        dev_u, dev_flux = parabolic64[name].run.probe_dev_max
        assert dev_u < 2e-2, name
        assert dev_flux < 2e-2, name
    dev_u, dev_flux = parabolic64["two_phase_displaced"].run.probe_dev_max
    assert dev_u > 5e-2
    assert dev_flux > 5e-2


def test_c8_mass_norm_never_increases(parabolic64):
    for name, res in parabolic64.items():
        assert np.all(np.diff(res.run.mass_norms) <= 0.0), name


def test_c9_repeated_runs_are_byte_identical(tmp_path):
    sc = build_preset("two_phase_concentric", n=16, pipeline="both")
    run_scenario(sc, out_dir=tmp_path / "first")
    run_scenario(sc, out_dir=tmp_path / "second")
    files = sorted(p.name for p in (tmp_path / "first").iterdir())
    assert files == [
        "diagnostics.csv",
        "mesh.txt",
        "radial.csv",
        "spectra.csv",
        "summary.txt",
        "timeseries.csv",
        "u.csv",
    ]
    for name in files:
        assert filecmp.cmp(
            tmp_path / "first" / name, tmp_path / "second" / name, shallow=False
        ), name
