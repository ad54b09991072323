"""Mesh generation, P1 assembly, the elliptic solve, and flux recovery."""

import math

import numpy as np
import pytest

from phaselab.fem2d import (
    Mesh,
    CircleSampler,
    assemble_system,
    generate_mesh,
    l2_error_to_radial,
    locate_points,
    recover_boundary_flux,
    solve_elliptic,
    tag_triangles,
    write_mesh,
)
from phaselab.geometry import DomainSpec, PhaseConfig, PhaseRegion
from phaselab.radial_core import solve_radial


def ball_config(phases=()):
    return PhaseConfig(domain=DomainSpec("ball"), phases=phases)


CONCENTRIC = ball_config((PhaseRegion(shape="disk", sigma=2.0, radius=0.5),))
DISPLACED = ball_config((PhaseRegion(shape="disk", sigma=2.0, center=(0.2, 0.0), radius=0.3),))
ANNULUS = PhaseConfig(domain=DomainSpec("annulus", inner_radius=0.5))


def test_ball_mesh_counts():
    for n in (4, 8, 13):
        mesh = generate_mesh(ball_config(), n)
        m = 6 * n
        assert mesh.nv == 1 + n * m
        assert mesh.nt == m * (2 * n - 1)
        assert len(mesh.boundary_edges) == m
        assert mesh.sectors == m


def test_annulus_mesh_counts():
    for n in (4, 9):
        mesh = generate_mesh(ANNULUS, n)
        m = 6 * n
        assert mesh.nv == (n + 1) * m
        assert mesh.nt == 2 * n * m
        assert len(mesh.boundary_edges) == 2 * m
        assert set(np.unique(mesh.edge_tags)) == {0, 1}


def test_triangle_and_edge_order_is_fixed():
    # the order is part of mesh.txt: the ball's centre fan, then each quad strip
    # split along its (i,j)-(i+1,j+1) diagonal; the outer loop, then the inner one
    for cfg, first in ((ball_config(), 1), (ANNULUS, 0)):
        mesh = generate_mesh(cfg, 4)
        m = mesh.sectors
        tris = [[0, 1 + j, 1 + (j + 1) % m] for j in range(m)] if first else []
        for a in range(first, mesh.nv - m, m):
            for j in range(m):
                j2 = (j + 1) % m
                tris += [[a + j, a + m + j, a + m + j2], [a + j, a + m + j2, a + j2]]
        np.testing.assert_array_equal(mesh.triangles, tris)
        loops = [mesh.nv - m] + ([] if first else [0])
        edges = [[a + j, a + (j + 1) % m] for a in loops for j in range(m)]
        np.testing.assert_array_equal(mesh.boundary_edges, edges)


def test_conforming_ring_present():
    mesh = generate_mesh(CONCENTRIC, 8)
    radii = np.linalg.norm(mesh.vertices, axis=1)
    assert np.any(np.abs(radii - 0.5) < 1e-14)
    # interface elements are cleanly split: no centroid sits on the circle
    cents = np.linalg.norm(mesh.centroids(), axis=1)
    assert np.all(np.abs(cents - 0.5) > 1e-3)


def test_triangles_counterclockwise():
    for cfg in (ball_config(), ANNULUS, CONCENTRIC):
        mesh = generate_mesh(cfg, 6)
        p = mesh.vertices[mesh.triangles]
        cross = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
            p[:, 1, 1] - p[:, 0, 1]
        ) * (p[:, 2, 0] - p[:, 0, 0])
        assert np.all(cross > 0)


def test_mesh_total_area_converges():
    a8 = assemble_system(generate_mesh(ball_config(), 8), [1.0], 1.0).domain_area
    a16 = assemble_system(generate_mesh(ball_config(), 16), [1.0], 1.0).domain_area
    assert abs(a16 - math.pi) < abs(a8 - math.pi) / 3.5  # ~O(h^2)


def test_resolution_and_interface_guards():
    with pytest.raises(ValueError):
        generate_mesh(ball_config(), 3)
    bad = ball_config((PhaseRegion(shape="disk", sigma=2.0, radius=1.5),))
    with pytest.raises(ValueError):
        generate_mesh(bad, 8)
    bad_ring = PhaseConfig(
        domain=DomainSpec("annulus", inner_radius=0.5),
        phases=(PhaseRegion(shape="ring", sigma=2.0, r_inner=0.3, r_outer=0.8),),
    )
    with pytest.raises(ValueError):
        generate_mesh(bad_ring, 8)


def test_displaced_core_area_from_tags():
    mesh = generate_mesh(DISPLACED, 32)
    sys_ = assemble_system(mesh, [1.0, 2.0], 1.0)
    core_area = sys_.areas[mesh.tri_tags == 1].sum()
    assert abs(core_area - math.pi * 0.09) / (math.pi * 0.09) < 0.02


def test_reference_element_matrices():
    # unit right triangle: classical P1 stiffness and exact mass block
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = Mesh(
        vertices=verts,
        triangles=np.array([[0, 1, 2]]),
        tri_tags=np.array([0]),
        boundary_edges=np.array([[0, 1], [1, 2], [2, 0]]),
        edge_tags=np.array([0, 0, 0]),
        sectors=0,  # one hand-made triangle: assembly reads no sector layout
    )
    sys_ = assemble_system(mesh, [1.0], 1.0)
    K_expect = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    np.testing.assert_allclose(sys_.stiffness.toarray(), K_expect, atol=1e-15)
    M_expect = (0.5 / 12.0) * np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
    np.testing.assert_allclose(sys_.mass.toarray(), M_expect, atol=1e-16)
    np.testing.assert_allclose(sys_.load, np.full(3, 0.5 / 3), atol=1e-16)


def test_stiffness_rows_sum_to_zero():
    sys_ = assemble_system(generate_mesh(CONCENTRIC, 8), [1.0, 2.0], 1.0)
    row_sums = np.asarray(sys_.stiffness.sum(axis=1)).ravel()
    assert np.max(np.abs(row_sums)) < 1e-13


def test_geometry_and_free_blocks_are_cached_read_only():
    mesh = generate_mesh(DISPLACED, 8)
    sys_ = assemble_system(mesh, [1.0, 2.0], 1.0)
    assert mesh.geometry is mesh.geometry and sys_.areas is mesh.geometry[2]
    assert not any(a.flags.writeable for a in mesh.geometry)
    Kff, Mff = sys_.Kff, sys_.Mff
    assert sys_.Kff is Kff and sys_.Mff is Mff
    assert Kff.format == Mff.format == "csc" and Kff.shape == (len(sys_.free),) * 2
    # solve_elliptic multiplies by Kff.T, which is Kff itself only while Kff is exactly symmetric
    assert (Kff != Kff.T).nnz == 0


def test_untagged_or_bad_sigma_rejected():
    mesh = generate_mesh(ball_config(), 4)
    broken = Mesh(
        vertices=mesh.vertices,
        triangles=mesh.triangles,
        tri_tags=np.full(mesh.nt, -1),
        boundary_edges=mesh.boundary_edges,
        edge_tags=mesh.edge_tags,
        sectors=mesh.sectors,
    )
    with pytest.raises(ValueError):
        assemble_system(broken, [1.0], 1.0)
    with pytest.raises(ValueError):
        assemble_system(generate_mesh(CONCENTRIC, 4), [1.0], 1.0)  # tag 1 has no entry
    with pytest.raises(ValueError):
        assemble_system(mesh, [0.0], 1.0)


def test_galerkin_residual_small():
    sys_ = assemble_system(generate_mesh(CONCENTRIC, 16), [1.0, 2.0], 1.0)
    sol = solve_elliptic(sys_)
    assert sol.rel_residual <= 1e-9
    assert sol.iterations > 0
    bn = sys_.boundary
    assert np.all(sol.u[bn] == 0.0)


def test_solver_iteration_cap():
    sys_ = assemble_system(generate_mesh(ball_config(), 16), [1.0], 1.0)
    with pytest.raises(RuntimeError):
        solve_elliptic(sys_, maxit=3)


def test_center_value_against_layered_reference():
    sys_ = assemble_system(generate_mesh(CONCENTRIC, 16), [1.0, 2.0], 1.0)
    sol = solve_elliptic(sys_)
    assert abs(sol.u[0] - 0.21875) < 5e-4


def test_l2_convergence_order():
    prof = solve_radial([0.0, 0.5, 1.0], [2.0, 1.0], [1.0])
    errs = []
    for n in (8, 16):
        sys_ = assemble_system(generate_mesh(CONCENTRIC, n), [1.0, 2.0], 1.0)
        errs.append(l2_error_to_radial(sys_.mesh, solve_elliptic(sys_).u, prof))
    order = math.log2(errs[0] / errs[1])
    assert order > 1.8, (errs, order)


def test_flux_recovery_disk():
    sys_ = assemble_system(generate_mesh(ball_config(), 16), [1.0], 1.0)
    flux = recover_boundary_flux(sys_, solve_elliptic(sys_).u)
    assert abs(flux.weighted_mean - (-0.5)) < 2e-3
    # discrete divergence identity: total flux equals minus the assembled load
    assert abs(flux.total + sys_.load.sum()) <= 1e-10 * abs(sys_.load.sum())


def test_flux_identity_random_sources():
    # the identity is structural: it holds for any source, not just nice ones
    rng = np.random.default_rng(20240817)
    mesh = generate_mesh(DISPLACED, 12)
    for _ in range(4):
        coef = rng.uniform(-2, 2, size=4)
        gv = np.polynomial.polynomial.polyval(
            np.linalg.norm(mesh.vertices, axis=1), coef
        ) + 0.3 * mesh.vertices[:, 0]
        sys_ = assemble_system(mesh, [1.0, 2.0], gv)
        flux = recover_boundary_flux(sys_, solve_elliptic(sys_).u)
        scale = max(abs(sys_.load).sum(), 1e-30)
        assert abs(flux.total + sys_.load.sum()) <= 1e-9 * scale


def test_discrete_rotational_symmetry():
    n = 8
    m = 6 * n
    sys_ = assemble_system(generate_mesh(CONCENTRIC, n), [1.0, 2.0], 1.0)
    u = solve_elliptic(sys_).u
    # rotate by one sector: centre fixed, ring vertices shift by one
    perm = np.zeros(sys_.mesh.nv, dtype=int)
    for i in range(n):
        base = 1 + i * m
        j = np.arange(m)
        perm[base + j] = base + (j + 1) % m
    assert np.max(np.abs(u[perm] - u)) < 1e-12 * np.max(np.abs(u))


def test_write_mesh_records_the_mesh(tmp_path):
    mesh = generate_mesh(CONCENTRIC, 6)
    path = tmp_path / "mesh.txt"
    write_mesh(path, mesh)
    lines = path.read_text().splitlines()
    nv, nt, nb = map(int, lines[0].split())
    assert (nv, nt, nb) == (mesh.nv, mesh.nt, len(mesh.boundary_edges))
    assert len(lines) == 1 + nv + nt + nb
    vertices = np.array([[float(t) for t in line.split()] for line in lines[1 : 1 + nv]])
    tris = np.array([[int(t) for t in line.split()] for line in lines[1 + nv : 1 + nv + nt]])
    edges = np.array([[int(t) for t in line.split()] for line in lines[1 + nv + nt :]])
    assert vertices.tobytes() == mesh.vertices.tobytes()  # repr round-trips bitwise
    np.testing.assert_array_equal(tris[:, :3], mesh.triangles)
    np.testing.assert_array_equal(tris[:, 3], mesh.tri_tags)
    np.testing.assert_array_equal(edges[:, :2], mesh.boundary_edges)
    np.testing.assert_array_equal(edges[:, 2], mesh.edge_tags)


def test_tag_triangles_matches_generator():
    mesh = generate_mesh(DISPLACED, 10)
    tags = tag_triangles(mesh.vertices, mesh.triangles, DISPLACED)
    np.testing.assert_array_equal(tags, mesh.tri_tags)


def _contains(mesh, pts, tol=1e-10):
    """Brute force: (points, triangles) table of barycentric containment."""
    P = mesh.vertices[mesh.triangles]
    e1, e2 = P[:, 1] - P[:, 0], P[:, 2] - P[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    q = pts[:, None, :] - P[None, :, 0]
    a = (q[..., 0] * e2[:, 1] - q[..., 1] * e2[:, 0]) / det
    b = (e1[:, 0] * q[..., 1] - e1[:, 1] * q[..., 0]) / det
    return (a >= -tol) & (b >= -tol) & (a + b <= 1 + tol)


@pytest.mark.parametrize("cfg", [ball_config(), ANNULUS], ids=["ball", "annulus"])
def test_locate_points_roundtrip(cfg):
    mesh = generate_mesh(cfg, 10)
    r0 = cfg.domain.inner_radius
    rng = np.random.default_rng(7)
    r = np.sqrt(rng.uniform(r0**2 + 0.01, 0.97**2, 40))
    th = rng.uniform(0, 2 * math.pi, 40)
    # random interior points, then every vertex (centre and outer boundary included)
    # and the midpoint of every edge: ring chords, quad diagonals and sector rays
    edges = mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    pts = np.vstack(
        [
            np.column_stack([r * np.cos(th), r * np.sin(th)]),
            mesh.vertices,
            mesh.vertices[edges].mean(axis=1),
        ]
    )
    tri, bary = locate_points(mesh, pts)
    assert _contains(mesh, pts)[np.arange(len(pts)), tri].all()
    rebuilt = (mesh.vertices[mesh.triangles[tri]] * bary[:, :, None]).sum(axis=1)
    assert np.max(np.abs(rebuilt - pts)) < 1e-12
    assert np.all(bary > -1e-10) and np.all(bary.sum(axis=1) < 1 + 1e-9)

    # along sector 0's bisector each boundary polygon sits a factor cos(pi/m) inside its circle
    half = math.pi / mesh.sectors
    bisector = np.array([math.cos(half), math.sin(half)])
    outside = [np.array([1.5, 0.0]), np.array([-0.3, -1.2]), (1 + math.cos(half)) / 2 * bisector]
    if r0 > 0:  # the hole: its centre and just inside the inner polygon's chord
        outside += [np.zeros(2), 0.999 * r0 * math.cos(half) * bisector]
    assert not _contains(mesh, np.array(outside)).any()
    for pt in outside:
        with pytest.raises(ValueError, match="not inside the mesh"):
            locate_points(mesh, pt)


@pytest.mark.parametrize(
    "cfg", [ball_config(), ANNULUS, CONCENTRIC], ids=["ball", "annulus", "conforming"]
)
def test_locate_points_finds_each_centroid_in_its_own_triangle(cfg):
    # pins the triangle order of generate_mesh against the layout locate_points assumes
    mesh = generate_mesh(cfg, 7)
    tri, _ = locate_points(mesh, mesh.centroids())
    np.testing.assert_array_equal(tri, np.arange(mesh.nt))


def test_circle_sampler_radial_field():
    mesh = generate_mesh(CONCENTRIC, 12)
    prof = solve_radial([0.0, 0.5, 1.0], [2.0, 1.0], [1.0])
    u = prof(np.linalg.norm(mesh.vertices, axis=1))
    s = CircleSampler(mesh, 0.75)
    vals = s.values(u)
    # aligned samples of a radial nodal field agree to rounding error
    assert np.max(np.abs(vals - vals.mean())) < 1e-13
    flux = s.radial_flux(u)
    # the interpolant's gradient is only O(h) pointwise, but it is angularly uniform
    assert np.max(np.abs(flux - flux.mean())) < 1e-12
    assert abs(flux.mean() - prof.derivative(0.75)) < 0.1 * abs(prof.derivative(0.75))
    assert s.count == mesh.sectors
