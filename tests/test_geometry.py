"""Layout construction, hypothesis flags, and probe placement checks."""

import math

import numpy as np
import pytest

from phaselab.geometry import (
    DomainSpec,
    PhaseConfig,
    PhaseRegion,
    surface_separation_ok,
    validate_configuration,
)


def disk(sigma, cx=0.0, cy=0.0, r=0.3):
    return PhaseRegion(shape="disk", sigma=sigma, center=(cx, cy), radius=r)


def test_domain_validation():
    with pytest.raises(ValueError):
        DomainSpec(kind="square")
    with pytest.raises(ValueError):
        DomainSpec(kind="ball", outer_radius=-1.0)
    with pytest.raises(ValueError):
        DomainSpec(kind="ball", inner_radius=0.5)
    with pytest.raises(ValueError):
        DomainSpec(kind="annulus", inner_radius=0.0)
    with pytest.raises(ValueError):
        DomainSpec(kind="annulus", inner_radius=1.5, outer_radius=1.0)
    ann = DomainSpec(kind="annulus", inner_radius=0.5)
    assert (ann.kind, ann.inner_radius, ann.outer_radius) == ("annulus", 0.5, 1.0)


def test_phase_validation():
    with pytest.raises(ValueError):
        PhaseRegion(shape="disk", sigma=2.0, radius=0.0)
    with pytest.raises(ValueError):
        PhaseRegion(shape="ring", sigma=2.0, r_inner=0.7, r_outer=0.5)
    with pytest.raises(ValueError):
        PhaseRegion(shape="blob", sigma=2.0)
    with pytest.raises(ValueError):
        PhaseRegion(shape="disk", sigma=math.nan, radius=0.2)


def test_sigma_lookup_vectorized():
    cfg = PhaseConfig(
        domain=DomainSpec("ball"),
        phases=(disk(2.0, r=0.5), disk(0.25, cx=0.7, r=0.1)),
    )
    pts = np.array([[0.0, 0.0], [0.49, 0.0], [0.7, 0.0], [0.0, 0.9], [0.55, 0.0]])
    np.testing.assert_array_equal(cfg.sigma_at(pts), [2.0, 2.0, 0.25, 1.0, 1.0])
    np.testing.assert_array_equal(cfg.region_index_at(pts), [1, 1, 2, 0, 0])


def test_flags_all_ok_for_sane_layout():
    cfg = PhaseConfig(
        domain=DomainSpec("ball"),
        phases=(disk(2.0, r=0.5),),
    )
    flags = validate_configuration(cfg)
    assert flags.all_ok
    assert flags.notes == ()


def test_containment_flag():
    cfg = PhaseConfig(domain=DomainSpec("ball"), phases=(disk(2.0, cx=0.8, r=0.3),))
    flags = validate_configuration(cfg)
    assert not flags.phases_strictly_inside
    assert not flags.all_ok
    assert any("inside" in n for n in flags.notes)
    # annulus: the disk must clear the inner circle too
    ann = PhaseConfig(
        domain=DomainSpec("annulus", inner_radius=0.5),
        phases=(disk(2.0, cx=0.6, r=0.2),),
    )
    assert not validate_configuration(ann).phases_strictly_inside
    ok = PhaseConfig(
        domain=DomainSpec("annulus", inner_radius=0.5),
        phases=(disk(2.0, cx=0.75, r=0.1),),
    )
    assert validate_configuration(ok).phases_strictly_inside


def test_separation_flag():
    touching = PhaseConfig(
        domain=DomainSpec("ball"),
        phases=(disk(2.0, cx=-0.3, r=0.3), disk(3.0, cx=0.3, r=0.3)),
    )
    assert not validate_configuration(touching).phases_pairwise_separated
    apart = PhaseConfig(
        domain=DomainSpec("ball"),
        phases=(disk(2.0, cx=-0.35, r=0.3), disk(3.0, cx=0.35, r=0.3)),
    )
    assert validate_configuration(apart).phases_pairwise_separated
    # disk overlapping a ring band
    mixed = PhaseConfig(
        domain=DomainSpec("ball"),
        phases=(
            PhaseRegion(shape="ring", sigma=3.0, r_inner=0.5, r_outer=0.7),
            disk(2.0, cx=0.45, r=0.1),
        ),
    )
    assert not validate_configuration(mixed).phases_pairwise_separated


def test_ring_breaks_shell_connectivity():
    cfg = PhaseConfig(
        domain=DomainSpec("ball"),
        phases=(PhaseRegion(shape="ring", sigma=3.0, r_inner=0.5, r_outer=0.7),),
    )
    flags = validate_configuration(cfg)
    assert not flags.shell_connected_and_unique
    assert not flags.all_ok
    # disks never disconnect the background, however many there are
    many = PhaseConfig(
        domain=DomainSpec("ball"),
        phases=tuple(
            disk(2.0, cx=0.6 * math.cos(a), cy=0.6 * math.sin(a), r=0.12)
            for a in np.linspace(0, 2 * math.pi, 8, endpoint=False)
        ),
    )
    assert validate_configuration(many).shell_connected_and_unique


def test_sigma_admissibility_flag():
    assert not validate_configuration(
        PhaseConfig(domain=DomainSpec("ball"), phases=(disk(1.0, r=0.4),))
    ).sigmas_admissible
    assert not validate_configuration(
        PhaseConfig(domain=DomainSpec("ball"), phases=(disk(-0.5, r=0.4),))
    ).sigmas_admissible
    assert validate_configuration(
        PhaseConfig(domain=DomainSpec("ball"), phases=(disk(0.5, r=0.4),))
    ).sigmas_admissible


def test_probe_circle_placement():
    cfg = PhaseConfig(domain=DomainSpec("ball"), phases=(disk(2.0, r=0.5),))
    # r=0.75: distance 0.25 to both the phase and the boundary -- allowed
    assert surface_separation_ok(cfg, 0.75)
    # closer to the inclusion than to the boundary -- rejected
    assert not surface_separation_ok(cfg, 0.6)
    # outside the domain -- rejected outright
    assert not surface_separation_ok(cfg, 1.2)

    displaced = PhaseConfig(domain=DomainSpec("ball"), phases=(disk(2.0, cx=0.2, r=0.3),))
    assert surface_separation_ok(displaced, 0.75)
    assert not surface_separation_ok(displaced, 0.7)


def test_conforming_radii_and_layered_detection():
    cfg = PhaseConfig(
        domain=DomainSpec("ball"),
        phases=(
            disk(2.0, r=0.3),
            PhaseRegion(shape="ring", sigma=3.0, r_inner=0.5, r_outer=0.7),
        ),
    )
    assert cfg.conforming_radii() == (0.3, 0.5, 0.7)
    assert cfg.is_radially_layered()
    off = PhaseConfig(domain=DomainSpec("ball"), phases=(disk(2.0, cx=0.2, r=0.3),))
    assert off.conforming_radii() == ()
    assert not off.is_radially_layered()


def test_distance_to_circle():
    d = disk(2.0, cx=0.2, r=0.3)
    assert abs(d.distance_to_circle(0.75) - 0.25) < 1e-15
    assert d.distance_to_circle(0.4) == 0.0  # circle passes through the disk
    ring = PhaseRegion(shape="ring", sigma=3.0, r_inner=0.5, r_outer=0.7)
    assert abs(ring.distance_to_circle(0.85) - 0.15) < 1e-15
    assert ring.distance_to_circle(0.6) == 0.0
    assert abs(ring.distance_to_circle(0.3) - 0.2) < 1e-15
