"""Flux spread, angular spectra, transmission mismatch, probe deviations."""

import math

import numpy as np
import pytest

from phaselab import symmetry_checks
from phaselab.cli_reporting import Scenario, Tolerances, build_preset, run_scenario
from phaselab.fem2d import (
    BoundaryFlux,
    CircleSampler,
    assemble_system,
    generate_mesh,
    recover_boundary_flux,
    solve_elliptic,
)
from phaselab.geometry import DomainSpec, PhaseConfig, PhaseRegion
from phaselab.radial_core import build_auxiliary_profile, solve_radial
from phaselab.symmetry_checks import (
    K_MAX,
    MEAN_GUARD,
    angular_spectrum,
    flux_residual,
    probe_deviation,
    spectrum_from_samples,
    transmission_residual,
)

from conftest import angular_spectrum_of


def synthetic_flux(values, weights=None, component=None):
    values = np.asarray(values, float)
    n = len(values)
    w = np.ones(n) if weights is None else np.asarray(weights, float)
    comp = np.zeros(n, dtype=int) if component is None else np.asarray(component)
    return BoundaryFlux(
        vertex_ids=np.arange(n),
        values=values,
        weights=w,
        component=comp,
        total=float((w * values).sum()),
    )


def test_flux_residual_cosine_example():
    # flux 1 + 0.1 cos(theta): mean 1, weighted std 0.1/sqrt(2)
    th = 2 * np.pi * np.arange(720) / 720
    stats = flux_residual(synthetic_flux(1.0 + 0.1 * np.cos(th)))
    assert abs(stats.mean - 1.0) < 1e-12
    assert abs(stats.rel_deviation - 0.1 / math.sqrt(2)) < 1e-6
    assert not stats.absolute_fallback


def test_flux_residual_zero_mean_guard():
    th = 2 * np.pi * np.arange(64) / 64
    stats = flux_residual(synthetic_flux(0.3 * np.sin(th)))
    assert stats.absolute_fallback
    # reported value is the spread over the flux's RMS, not a ratio against noise;
    # with a zero mean the spread is the RMS, so the scale-free value is 1
    assert abs(stats.rel_deviation - 1.0) < 1e-6
    # the guard is relative: a tiny but clean mean is not mistaken for zero ...
    tiny = flux_residual(synthetic_flux(2.0**-60 * (1.0 + 0.1 * np.cos(th))))
    assert not tiny.absolute_fallback
    assert tiny.rel_deviation == flux_residual(synthetic_flux(1.0 + 0.1 * np.cos(th))).rel_deviation
    # ... and an all-zero flux reports 0
    zero = flux_residual(synthetic_flux(np.zeros(64)))
    assert zero.absolute_fallback and zero.rel_deviation == 0.0


def test_flux_residual_per_component():
    # two loops with different constants: zero spread on each, despite the gap
    vals = np.concatenate([np.full(40, -0.23), np.full(40, -0.29)])
    comp = np.repeat([0, 1], 40)
    stats = flux_residual(synthetic_flux(vals, component=comp))
    assert stats.rel_deviation < 1e-14
    assert stats.component_means == pytest.approx((-0.23, -0.29), abs=1e-14)
    # the overall mean still averages both loops
    assert abs(stats.mean - (-0.26)) < 1e-15


def test_flux_residual_scale_invariant():
    rng = np.random.default_rng(11)
    vals = -0.5 + 0.01 * rng.standard_normal(100)
    s1 = flux_residual(synthetic_flux(vals))
    s2 = flux_residual(synthetic_flux(4 * vals))
    assert s1.rel_deviation == s2.rel_deviation


def test_spectrum_radial_field_is_silent():
    radii = [0.25, 0.5, 0.75]
    spec = angular_spectrum_of(lambda P: 1.0 - np.linalg.norm(P, axis=1) ** 2, radii)
    assert spec.perp_energy < 1e-24
    assert spec.nonradial_fraction < 1e-12
    assert spec.nonradial_fraction < Tolerances().spectrum
    assert spec.dominant_mode in (0, *range(1, 17))  # irrelevant when silent


def test_spectrum_coordinate_field_is_pure_mode_one():
    radii = [0.3, 0.6]
    spec = angular_spectrum_of(lambda P: P[:, 0], radii)
    for i, r in enumerate(radii):
        assert abs(spec.cos_coeffs[i, 1] - r) < 1e-12
        assert abs(spec.sin_coeffs[i, 1]) < 1e-12
        others = np.concatenate([spec.cos_coeffs[i, 2:], spec.sin_coeffs[i, 2:]])
        assert np.max(np.abs(others)) < 1e-12
        assert abs(spec.cos_coeffs[i, 0]) < 1e-12  # zero mean
    assert spec.dominant_mode == 1
    assert not spec.nonradial_fraction < Tolerances().spectrum
    # all energy is non-radial here
    assert abs(spec.nonradial_fraction - 1.0) < 1e-12


def test_spectrum_fraction_hand_computed():
    # f = 2 + cos(3 theta) on one circle of radius 1:
    # E_perp = 1, E_total = 2*4 + 1 = 9, fraction = 1/3
    th = 2 * np.pi * (np.arange(256) + 0.5) / 256
    spec = spectrum_from_samples([1.0], (2.0 + np.cos(3 * th))[None, :])
    assert abs(spec.perp_energy - 1.0) < 1e-12
    assert abs(spec.total_energy - 9.0) < 1e-12
    assert abs(spec.nonradial_fraction - 1.0 / 3.0) < 1e-12
    assert spec.dominant_mode == 3


def test_spectrum_parseval_bound():
    rng = np.random.default_rng(2024)
    for _ in range(5):
        f = rng.standard_normal(256)
        spec = spectrum_from_samples([1.0], f[None, :])
        energy = float(
            (spec.cos_coeffs[0, 1:] ** 2 + spec.sin_coeffs[0, 1:] ** 2).sum()
        )
        assert energy <= 2.0 * float((f**2).mean()) + 1e-12


def test_spectrum_scale_invariance():
    th = 2 * np.pi * (np.arange(256) + 0.5) / 256
    f = 1.0 + 0.01 * np.cos(2 * th) + 0.003 * np.sin(5 * th)
    s1 = spectrum_from_samples([0.5], f[None, :])
    s2 = spectrum_from_samples([0.5], (2 * f)[None, :])
    assert s1.nonradial_fraction == s2.nonradial_fraction
    assert s1.dominant_mode == s2.dominant_mode


def test_spectrum_input_validation():
    with pytest.raises(ValueError):
        spectrum_from_samples([0.5, 0.75], np.ones((1, 64)))
    # modes stop at K_MAX, or below half the sample count when that is smaller
    assert spectrum_from_samples([0.5], np.ones((1, 64))).cos_coeffs.shape == (1, K_MAX + 1)
    assert spectrum_from_samples([0.5], np.ones((1, 16))).cos_coeffs.shape == (1, 8)
    assert spectrum_from_samples([0.5], np.ones((1, 17))).sin_coeffs.shape == (1, 8)


RING_LAYOUTS = {
    "ball": PhaseConfig(domain=DomainSpec("ball")),
    "annulus": PhaseConfig(domain=DomainSpec("annulus", inner_radius=0.3)),
    "nested_rings": PhaseConfig(
        domain=DomainSpec("ball"),
        phases=(
            PhaseRegion(shape="disk", sigma=2.0, radius=0.3),
            PhaseRegion(shape="ring", sigma=3.0, r_inner=0.5, r_outer=0.7),
        ),
    ),
}


@pytest.mark.parametrize("n", [4, 5, 8])
@pytest.mark.parametrize("layout", RING_LAYOUTS)
def test_mesh_spectrum_of_x_is_mode_one_with_coefficient_r(layout, n):
    # x is linear in r along every sector ray, so the ring blend is exact;
    # at n=4 the modes stop at 3n - 1 = 11
    mesh = generate_mesh(RING_LAYOUTS[layout], n)
    r0, R = RING_LAYOUTS[layout].domain.inner_radius, 1.0
    radii = [r0 + f * (R - r0) for f in (0.0, 0.05, 0.25, 0.5, 0.7, 1.0)]
    spec = angular_spectrum(mesh, mesh.vertices[:, 0], radii)
    assert spec.cos_coeffs.shape == (len(radii), min(K_MAX, 3 * n - 1) + 1)
    expect = np.zeros_like(spec.cos_coeffs)
    expect[:, 1] = radii
    assert np.max(np.abs(spec.cos_coeffs - expect)) < 1e-15
    assert np.max(np.abs(spec.sin_coeffs)) < 1e-15


def test_mesh_spectrum_rejects_radii_off_the_mesh():
    ball = generate_mesh(RING_LAYOUTS["ball"], 4)
    annulus = generate_mesh(RING_LAYOUTS["annulus"], 4)
    for mesh, r in ((ball, -0.1), (ball, 1.0 + 1e-9), (annulus, 0.29), (annulus, 1.5), (ball, np.nan)):
        with pytest.raises(ValueError, match="radii must lie in"):
            angular_spectrum(mesh, np.zeros(mesh.nv), [0.5, r])


def test_concentric_disk_spectrum_is_round_off_at_n8():
    # the under-resolved n=8 disk once read a spurious "dominant mode 16" of 2.7e-5
    assert run_scenario(build_preset("one_phase_disk", n=8)).spectrum.nonradial_fraction < 1e-14


def test_mesh_spectrum_concentric_vs_displaced():
    conc = PhaseConfig(
        domain=DomainSpec("ball"), phases=(PhaseRegion(shape="disk", sigma=2.0, radius=0.5),)
    )
    disp = PhaseConfig(
        domain=DomainSpec("ball"),
        phases=(PhaseRegion(shape="disk", sigma=2.0, center=(0.2, 0.0), radius=0.3),),
    )
    radii = [0.25, 0.5, 0.75]
    sys_c = assemble_system(generate_mesh(conc, 16), [1.0, 2.0], 1.0)
    spec_c = angular_spectrum(sys_c.mesh, solve_elliptic(sys_c).u, radii)
    assert spec_c.nonradial_fraction < 1e-3
    sys_d = assemble_system(generate_mesh(disp, 16), [1.0, 2.0], 1.0)
    spec_d = angular_spectrum(sys_d.mesh, solve_elliptic(sys_d).u, radii)
    assert spec_d.nonradial_fraction > 1e-2
    assert spec_d.dominant_mode == 1


def test_transmission_residual_concentric_small_displaced_large():
    g = [1.0]
    aux = build_auxiliary_profile(DomainSpec("ball"), g)
    conc = PhaseConfig(
        domain=DomainSpec("ball"), phases=(PhaseRegion(shape="disk", sigma=2.0, radius=0.5),)
    )
    sys_c = assemble_system(generate_mesh(conc, 16), [1.0, 2.0], 1.0)
    t_c = transmission_residual(sys_c, solve_elliptic(sys_c).u, aux)
    assert t_c.defined
    assert t_c.residual < 5e-3
    assert abs(t_c.core_area - math.pi * 0.25) < 1e-2

    disp = PhaseConfig(
        domain=DomainSpec("ball"),
        phases=(PhaseRegion(shape="disk", sigma=2.0, center=(0.2, 0.0), radius=0.3),),
    )
    sys_d = assemble_system(generate_mesh(disp, 16), [1.0, 2.0], 1.0)
    t_d = transmission_residual(sys_d, solve_elliptic(sys_d).u, aux)
    assert t_d.residual > 0.05


# a concentric ring in an annulus: sigma * grad(u) is the reference gradient plus c/r along the radius
ANNULUS_RING = PhaseConfig(
    domain=DomainSpec("annulus", inner_radius=0.5),
    phases=(PhaseRegion(shape="ring", sigma=2.0, r_inner=0.6, r_outer=0.8),),
)


def transmission_on(cfg, n):
    sys_ = assemble_system(generate_mesh(cfg, n), cfg.sigma_table(), 1.0)
    return transmission_residual(sys_, solve_elliptic(sys_).u, build_auxiliary_profile(cfg.domain, [1.0]))


def test_transmission_residual_on_a_concentric_annulus_converges_at_second_order():
    # the flux through the hole depends on sigma; without fitting c the
    # residual stalls at 2.28e-2, 2.18e-2 and 2.15e-2 here
    res = [transmission_on(ANNULUS_RING, n).residual for n in (32, 64, 128)]
    assert res[0] < 5e-3, res
    for coarse, fine in zip(res, res[1:]):
        assert coarse >= 3.5 * fine, res


def test_transmission_residual_fires_on_a_displaced_disk_in_an_annulus():
    cfg = PhaseConfig(
        domain=DomainSpec("annulus", inner_radius=0.3),
        phases=(PhaseRegion(shape="disk", sigma=2.0, center=(0.6, 0.0), radius=0.15),),
    )
    t = transmission_on(cfg, 64)
    assert t.defined and t.residual > 5e-2


@pytest.mark.parametrize("name", ["two_phase_displaced", "multiphase_discrete", "annulus_ring"])
def test_transmission_blocks_move_no_bit(name, monkeypatch):
    if name == "annulus_ring":  # the fit of c runs over the same blocks; at n=16 7 divides the core
        res = run_scenario(Scenario(name=name, config=ANNULUS_RING, n=12))
    else:
        res = run_scenario(build_preset(name, n=16))
    core = int((res.system.mesh.tri_tags >= 1).sum())
    # the default takes every core triangle in one block, as one array did; 7 leaves a partial block
    default = symmetry_checks._BLOCK_TRIANGLES
    assert core <= default and core % 7
    for block in (1, 7, default):
        monkeypatch.setattr(symmetry_checks, "_BLOCK_TRIANGLES", block)
        got = transmission_residual(res.system, res.solution.u, res.aux_profile)
        assert got.defined and res.transmission.defined
        assert (got.residual, got.core_area) == (res.transmission.residual, res.transmission.core_area)


def test_transmission_residual_vacuous_without_inclusions():
    cfg = PhaseConfig(domain=DomainSpec("ball"))
    sys_ = assemble_system(generate_mesh(cfg, 8), [1.0], 1.0)
    t = transmission_residual(sys_, solve_elliptic(sys_).u, build_auxiliary_profile(cfg.domain, [1.0]))
    assert not t.defined
    assert t.residual == 0.0
    assert t.core_area == 0.0


def test_transmission_residual_scale_invariant():
    conc = PhaseConfig(
        domain=DomainSpec("ball"), phases=(PhaseRegion(shape="disk", sigma=2.0, radius=0.5),)
    )
    sys_ = assemble_system(generate_mesh(conc, 8), [1.0, 2.0], 1.0)
    u = solve_elliptic(sys_).u
    aux1 = build_auxiliary_profile(DomainSpec("ball"), [1.0])
    aux2 = build_auxiliary_profile(DomainSpec("ball"), [2.0])
    r1 = transmission_residual(sys_, u, aux1).residual
    r2 = transmission_residual(sys_, 2 * u, aux2).residual
    assert abs(r1 - r2) < 1e-13


def test_probe_deviation_radial_and_perturbed():
    conc = PhaseConfig(
        domain=DomainSpec("ball"), phases=(PhaseRegion(shape="disk", sigma=2.0, radius=0.5),)
    )
    mesh = generate_mesh(conc, 12)
    sys_ = assemble_system(mesh, [1.0, 2.0], 1.0)
    prof = solve_radial([0.0, 0.5, 1.0], [2.0, 1.0], [1.0])
    u = prof(np.linalg.norm(mesh.vertices, axis=1))
    s = CircleSampler(sys_, 0.75)
    mean_u, dev_u, mean_flux, dev_flux = probe_deviation(s.matrix @ u[s.free])
    assert dev_u < 1e-12
    assert dev_flux < 1e-10
    assert not abs(mean_u) < MEAN_GUARD and not abs(mean_flux) < MEAN_GUARD

    # sup-norm semantics: a mode-one perturbation of relative size eps shows
    # up as a deviation of about eps * r / mean
    eps = 1e-3
    u2 = u + eps * mesh.vertices[:, 0]
    dev_u2 = probe_deviation(s.matrix @ u2[s.free])[1]
    vals = (s.matrix @ u2[sys_.free])[: s.count]
    expect = np.max(np.abs(vals - vals.mean())) / abs(vals.mean())
    assert dev_u2 == expect
    assert dev_u2 > 5 * dev_u


def test_probe_deviation_zero_mean_guard():
    cfg = PhaseConfig(domain=DomainSpec("ball"))
    mesh = generate_mesh(cfg, 8)
    s = CircleSampler(assemble_system(mesh, [1.0], 1.0), 0.75)
    u = mesh.vertices[:, 0].copy()  # odd field: zero angular mean on any circle
    mean_u, dev_u, _, _ = probe_deviation(s.matrix @ u[s.free])
    assert abs(mean_u) < MEAN_GUARD
    # absolute sup, not a ratio; samples sit at half-offset angles, so the
    # largest |x| on the circle is 0.75 cos(pi / sectors)
    assert dev_u == pytest.approx(0.75 * math.cos(math.pi / mesh.sectors), rel=1e-12)
