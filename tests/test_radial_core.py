"""Layered radial solver against closed forms and the finite-difference oracle."""

import math

import numpy as np
import pytest

from phaselab.geometry import DomainSpec, PhaseConfig, PhaseRegion
from phaselab.radial_core import (
    build_auxiliary_profile,
    mean_flux_identity,
    radial_layers,
    solve_radial,
)

from oracles import fd_radial_bvp

# closed-form anchors, derived by hand and confirmed by the FD oracle:
#   unit disk, sigma=1, g=1:            U(r) = (1 - r^2)/4, so U(0) = 1/4
#   disk, core sigma=2 on r<1/2, g=1:   U(0) = 7/32, U(1/2) = 3/16
#   annulus 1/2<r<1, sigma=1, g=1:      U(r) = (1 - r^2)/4 + A log r,
#                                       A = (3/16)/log 2
ANNULUS_A = 0.1875 / math.log(2.0)


def test_unit_disk_center_value():
    prof = solve_radial([0.0, 1.0], [1.0], [1.0])
    assert abs(prof(0.0) - 0.25) < 1e-15
    assert abs(prof(1.0)) < 1e-15
    r = np.linspace(0, 1, 101)
    assert np.max(np.abs(prof(r) - (1 - r**2) / 4)) < 1e-15


def test_two_phase_concentric_values():
    prof = solve_radial([0.0, 0.5, 1.0], [2.0, 1.0], [1.0])
    assert abs(prof(0.0) - 0.21875) < 1e-15
    assert abs(prof(0.5) - 0.1875) < 1e-15
    assert abs(prof(1.0)) < 1e-15


def test_annulus_log_coefficient_and_values():
    prof = solve_radial([0.5, 1.0], [1.0], [1.0])
    # single layer: U = (1 - r^2)/4 + A log r; alpha is the log coefficient
    assert len(prof.pieces) == 1
    assert abs(prof.pieces[0].alpha - ANNULUS_A) < 1e-14
    assert abs(prof(0.5)) < 1e-15
    assert abs(prof(1.0)) < 1e-15
    exact = (1 - 0.75**2) / 4 + ANNULUS_A * math.log(0.75)
    assert abs(prof(0.75) - exact) < 1e-15


def test_annulus_boundary_fluxes():
    prof = solve_radial([0.5, 1.0], [1.0], [1.0])
    # outward flux: U'(1) on the outer circle, -U'(1/2) on the inner one
    outer, inner = prof.derivative(1.0), -prof.derivative(0.5)
    assert abs(outer - (-0.5 + ANNULUS_A)) < 1e-14
    assert abs(inner - (-(-0.25 + 2 * ANNULUS_A))) < 1e-14
    # divergence theorem: length-weighted mean = -int g / |boundary| = -0.25
    assert abs((1.0 * outer + 0.5 * inner) / 1.5 - (-0.25)) < 1e-14
    assert abs(mean_flux_identity(DomainSpec("annulus", 1.0, 0.5), [1.0]) - (-0.25)) < 1e-15


def test_disk_boundary_flux_is_half():
    assert abs(solve_radial([0.0, 1.0], [1.0], [1.0]).derivative(1.0) - (-0.5)) < 1e-15
    assert abs(mean_flux_identity(DomainSpec("ball"), [1.0]) - (-0.5)) < 1e-15


def test_auxiliary_profile_cubic_source():
    # g(r) = r on the unit disk with sigma = 1: q(r) = (1 - r^3)/9
    q = build_auxiliary_profile(DomainSpec("ball"), [0.0, 1.0])
    r = np.linspace(0, 1, 97)
    assert np.max(np.abs(q(r) - (1 - r**3) / 9)) < 1e-15
    assert abs(q.derivative(0.5) - (-(0.5**2) / 3)) < 1e-15


# the last column is the oracle's dimension: solve_radial is planar
@pytest.mark.parametrize(
    "breaks,sigmas,g,dim",
    [
        ([0.0, 0.3, 0.7, 1.0], [0.4, 3.0, 1.0], [1.0], 2),
        ([0.0, 0.5, 1.0], [2.0, 1.0], [0.5, 0.0, 2.0], 2),
        ([0.25, 0.6, 1.0], [5.0, 1.0], [1.0, 1.0], 2),
    ],
)
def test_matches_fd_oracle(breaks, sigmas, g, dim):
    prof = solve_radial(breaks, sigmas, g)
    r, U = fd_radial_bvp(breaks, sigmas, g, dim=dim, cells_per_unit=20000)
    sub = slice(None, None, 97)
    err = np.max(np.abs(prof(r[sub]) - U[sub]))
    assert err < 5e-8, err


def test_flux_relation_continuous_across_layers():
    prof = solve_radial([0.0, 0.3, 0.7, 1.0], [0.4, 3.0, 1.0], [1.0, 2.0])
    for rho in (0.3, 0.7):
        below = prof.pieces[[p.hi for p in prof.pieces].index(rho)]
        above = prof.pieces[[p.lo for p in prof.pieces].index(rho)]
        # value continuity is built in; check it anyway, then the co-normal flux
        left = np.polynomial.polynomial.polyval(rho, below.poly) + below.alpha * math.log(rho)
        right = np.polynomial.polynomial.polyval(rho, above.poly) + above.alpha * math.log(rho)
        assert abs(left - right) < 1e-14
        dl = np.polynomial.polynomial.polyval(
            rho, np.polynomial.polynomial.polyder(below.poly)
        ) + below.alpha / rho
        dr = np.polynomial.polynomial.polyval(
            rho, np.polynomial.polynomial.polyder(above.poly)
        ) + above.alpha / rho
        assert abs(below.sigma * dl - above.sigma * dr) < 1e-13


def test_doubling_source_doubles_solution_exactly():
    breaks, sigmas = [0.25, 0.4, 0.8, 1.0], [3.0, 0.7, 1.0]
    g = [1.0, -0.25, 0.125]
    p1 = solve_radial(breaks, sigmas, g)
    p2 = solve_radial(breaks, sigmas, [2 * c for c in g])
    for a, b in zip(p1.pieces, p2.pieces):
        assert all(2 * x == y for x, y in zip(a.poly, b.poly))
        assert 2 * a.alpha == b.alpha
    r = np.linspace(0.25, 1.0, 41)
    assert np.all(2 * p1(r) == p2(r))


def test_nonpositive_conductivity_rejected():
    with pytest.raises(ValueError):
        solve_radial([0.0, 0.5, 1.0], [0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        solve_radial([0.0, 1.0], [-2.0], [1.0])


def test_sign_indefinite_source_is_not_fatal():
    prof = solve_radial([0.0, 1.0], [1.0], [1.0, 0.0, -4.0])  # g = 1 - 4 r^2 < 0 near r=1
    # -(r U')' = r g integrates to U = (r^4 - r^2) / 4, zero on the boundary
    r = np.linspace(0.0, 1.0, 11)
    assert np.allclose(prof(r), (r**4 - r**2) / 4, rtol=0, atol=1e-15)


def test_evaluation_outside_domain_rejected():
    prof = solve_radial([0.5, 1.0], [1.0], [1.0])
    with pytest.raises(ValueError):
        prof(0.25)
    with pytest.raises(ValueError):
        prof.derivative(1.5)


def test_malformed_layering_rejected():
    with pytest.raises(ValueError):
        solve_radial([0.0, 1.0], [1.0, 2.0], [1.0])  # layer/conductivity mismatch
    with pytest.raises(ValueError):
        solve_radial([0.0, 0.5, 0.5, 1.0], [1.0, 2.0, 1.0], [1.0])  # zero-width layer
    with pytest.raises(ValueError):
        solve_radial([0.0, 1.0], [1.0], [])  # empty source


def test_radial_layers_from_config():
    cfg = PhaseConfig(
        domain=DomainSpec("ball"),
        phases=(PhaseRegion(shape="disk", sigma=2.0, radius=0.5),),
    )
    breaks, sigmas = radial_layers(cfg)
    assert breaks == [0.0, 0.5, 1.0]
    assert sigmas == [2.0, 1.0]

    nested = PhaseConfig(
        domain=DomainSpec("ball"),
        phases=(
            PhaseRegion(shape="disk", sigma=2.0, radius=0.3),
            PhaseRegion(shape="ring", sigma=3.0, r_inner=0.5, r_outer=0.7),
        ),
    )
    breaks, sigmas = radial_layers(nested)
    assert breaks == [0.0, 0.3, 0.5, 0.7, 1.0]
    assert sigmas == [2.0, 1.0, 3.0, 1.0]

    displaced = PhaseConfig(
        domain=DomainSpec("ball"),
        phases=(PhaseRegion(shape="disk", sigma=2.0, center=(0.2, 0.0), radius=0.3),),
    )
    with pytest.raises(ValueError):
        radial_layers(displaced)

