"""Mesh generation, P1 assembly, the elliptic solve, and flux recovery."""

import math
import tracemalloc
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from phaselab import fem2d, radial_layers
from phaselab.cli_reporting import build_preset, preset_names, run_scenario
from phaselab.fem2d import (
    Mesh,
    CircleSampler,
    _BLOCK_TRIANGLES,
    _element_mass,
    _element_stiffness,
    _orbit_mean_solver,
    assemble_system,
    generate_mesh,
    l2_error_to_radial,
    locate_points,
    recover_boundary_flux,
    solve_elliptic,
    tag_triangles,
    _tri_geometry,
    write_mesh,
)
from phaselab.geometry import DomainSpec, PhaseConfig, PhaseRegion
from phaselab.radial_core import solve_radial


def ball_config(phases=()):
    return PhaseConfig(domain=DomainSpec("ball"), phases=phases)


CONCENTRIC = ball_config((PhaseRegion(shape="disk", sigma=2.0, radius=0.5),))
DISPLACED = ball_config((PhaseRegion(shape="disk", sigma=2.0, center=(0.2, 0.0), radius=0.3),))
ANNULUS = PhaseConfig(domain=DomainSpec("annulus", inner_radius=0.5))
DISPLACED_IN_ANNULUS = PhaseConfig(
    domain=DomainSpec("annulus", inner_radius=0.5),
    phases=(PhaseRegion(shape="disk", sigma=3.0, center=(0.1, 0.72), radius=0.15),),
)


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
    cents = np.linalg.norm(mesh.vertices[mesh.triangles].mean(axis=1), axis=1)
    assert np.all(np.abs(cents - 0.5) > 1e-3)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(n=st.integers(4, 64), cfg=st.sampled_from([ball_config(), ANNULUS, CONCENTRIC]))
def test_rings_are_mirror_exact(n, cfg):
    mesh = generate_mesh(cfg, n)
    m = mesh.sectors
    first = mesh.nv % m
    assert not np.signbit(mesh.vertices[:first]).any()  # a ball's centre is (+0.0, +0.0)
    j = np.arange(m)
    theta = 2 * np.pi * j / m
    for ring in mesh.vertices[first:].reshape(-1, m, 2):
        x, y = ring.T
        r = x[0]
        # mirror across the x-axis, then across the y-axis: bitwise
        assert (x[-j % m] == x).all() and (y[-j % m] == -y).all()
        assert (x[(m // 2 - j) % m] == -x).all() and (y[(m // 2 - j) % m] == y).all()
        # the points on the axes are exact, and no coordinate is -0.0
        assert (x[0], y[0], x[m // 2], y[m // 2]) == (r, 0.0, -r, 0.0)
        assert not np.signbit(ring[ring == 0.0]).any()
        assert np.abs(x - r * np.cos(theta)).max() <= 2e-15
        assert np.abs(y - r * np.sin(theta)).max() <= 2e-15
        if n % 2 == 0:
            # the diagonal mirror, (0, +-r), and one quarter of the magnitudes
            assert (y == x[(m // 4 - j) % m]).all()
            assert (x[m // 4], y[m // 4], x[3 * m // 4], y[3 * m // 4]) == (0.0, r, 0.0, -r)
            assert len(np.unique(np.abs(ring))) <= m // 4 + 1


def test_triangles_counterclockwise():
    for cfg in (ball_config(), ANNULUS, CONCENTRIC):
        mesh = generate_mesh(cfg, 6)
        p = mesh.vertices[mesh.triangles]
        cross = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
            p[:, 1, 1] - p[:, 0, 1]
        ) * (p[:, 2, 0] - p[:, 0, 0])
        assert np.all(cross > 0)


def test_mesh_total_area_converges():
    a8 = generate_mesh(ball_config(), 8).geometry[2].sum()
    a16 = generate_mesh(ball_config(), 16).geometry[2].sum()
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
    core_area = mesh.geometry[2][mesh.tri_tags == 1].sum()
    assert abs(core_area - math.pi * 0.09) / (math.pi * 0.09) < 0.02


def test_reference_element_matrices():
    # unit right triangle: classical P1 stiffness, exact mass block and area/3 load weights
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    b, c, area = _tri_geometry(verts, np.array([[0, 1, 2]]))
    K_expect = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    np.testing.assert_allclose(_element_stiffness(b, c, area, np.ones(1))[0], K_expect, atol=1e-15)
    M_expect = (0.5 / 12.0) * np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
    np.testing.assert_allclose(_element_mass(area)[0], M_expect, atol=1e-16)
    np.testing.assert_allclose(np.repeat(area / 3, 3), np.full(3, 0.5 / 3), atol=1e-16)
    # a hand-made mesh has no sector layout, and assembly needs one
    mesh = Mesh(
        vertices=verts,
        triangles=np.array([[0, 1, 2]]),
        tri_tags=np.array([0]),
        boundary_edges=np.array([[0, 1], [1, 2], [2, 0]]),
        edge_tags=np.array([0, 0, 0]),
        sectors=0,
    )
    with pytest.raises(ValueError, match="polar mesh"):
        assemble_system(mesh, [1.0], 1.0)


def test_stiffness_rows_sum_to_zero():
    sys_ = assemble_system(generate_mesh(CONCENTRIC, 8), [1.0, 2.0], 1.0)
    row_sums = np.asarray(sys_.stiffness.sum(axis=1)).ravel()
    assert np.max(np.abs(row_sums)) < 1e-13


# a ball with a displaced core, an annulus with a disk in its shell, and a
# ball with three concentric interfaces
ASSEMBLY_LAYOUTS = {
    "ball": DISPLACED,
    "annulus": DISPLACED_IN_ANNULUS,
    "multi": build_preset("nested_rings_hypothesis_violation", n=4).config,
}


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    layout=st.sampled_from(sorted(ASSEMBLY_LAYOUTS)),
    n=st.integers(4, 40),
    block=st.sampled_from([1, 500, 3000, _BLOCK_TRIANGLES]),
)
@example(layout="ball", n=40, block=_BLOCK_TRIANGLES)  # 34 bands, then a partial block of 5
@example(layout="annulus", n=13, block=1000)  # odd n: two blocks of 6 bands, then one of 1
@example(layout="multi", n=9, block=1)  # less than a band: one band per block
def test_blocked_assembly_matches_one_shot_reference(layout, n, block):
    mesh = generate_mesh(ASSEMBLY_LAYOUTS[layout], n)
    with patch.object(fem2d, "_BLOCK_TRIANGLES", block):
        sys_ = assemble_system(mesh, [1.0, 2.0, 3.0], 1.0)
        sys_.mass
    # the reference: every element block at once, one COO matrix per operator
    T, nv = mesh.triangles, mesh.nv
    b, c, area = mesh.geometry
    ij = (np.repeat(T, 3, axis=1).reshape(-1), np.tile(T, (1, 3)).reshape(-1))
    Ke = _element_stiffness(b, c, area, sys_.sigma_e)
    Me = (area[:, None, None] / 12.0) * (np.ones((3, 3)) + np.eye(3))
    for got, blocks in ((sys_.stiffness, Ke), (sys_.mass, Me)):
        ref = sp.coo_matrix((blocks.reshape(-1), ij), shape=(nv, nv)).tocsr()
        assert got.format == "csr" and got.has_canonical_format
        assert got.indices.dtype == got.indptr.dtype == np.int32
        assert abs(got - ref).max() <= 1e-15 * abs(ref).max()
        # the same pattern, except that entries which cancel to exactly 0 may be dropped
        assert got.nnz <= ref.nnz
        got = got.copy()
        for A in (got, ref):
            A.eliminate_zeros()
        assert (got.indptr == ref.indptr).all() and (got.indices == ref.indices).all()


def test_assembly_temporaries_stay_within_twice_the_matrices():
    mesh = generate_mesh(DISPLACED, 64)
    mesh.geometry  # kept by the mesh, not an assembly temporary
    tracemalloc.start()
    try:
        sys_ = assemble_system(mesh, [1.0, 2.0], 1.0)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # only K: the mass matrix is assembled on first use, outside this window
    K = sys_.stiffness
    assert peak - live <= 2 * sum(a.nbytes for a in (K.data, K.indices, K.indptr))


@pytest.mark.parametrize("cfg", [CONCENTRIC, ANNULUS], ids=["ball", "annulus"])
def test_free_vertices_are_the_sorted_complement_of_the_boundary(cfg):
    mesh = generate_mesh(cfg, 8)
    free = assemble_system(mesh, [1.0, 2.0], 1.0).free
    expect = np.setdiff1d(np.arange(mesh.nv), mesh.boundary_vertices())
    assert free.dtype == expect.dtype and np.array_equal(free, expect)


def test_geometry_and_free_blocks_are_cached_read_only():
    mesh = generate_mesh(DISPLACED, 8)
    sys_ = assemble_system(mesh, [1.0, 2.0], 1.0)
    assert mesh.geometry is mesh.geometry
    assert not any(a.flags.writeable for a in mesh.geometry)
    Kff, Mff = sys_.Kff, sys_.Mff
    assert sys_.Kff is Kff and sys_.Mff is Mff
    assert Kff.format == Mff.format == "csc" and Kff.shape == (len(sys_.free),) * 2
    # solve_elliptic multiplies by Kff.T, which is Kff itself only while Kff is exactly symmetric
    assert (Kff != Kff.T).nnz == 0
    # the contiguous slices are bitwise the blocks that the free index array selects
    free = sys_.free
    for got, A in ((Kff, sys_.stiffness), (Mff, sys_.mass)):
        ref = A[free][:, free].tocsc()
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(ref, attr))


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
    # a concentric layout converges in one iteration; the displaced core needs more than 3
    sys_ = assemble_system(generate_mesh(DISPLACED, 16), [1.0, 2.0], 1.0)
    with pytest.raises(RuntimeError):
        solve_elliptic(sys_, maxit=3)


def test_solver_iterations_do_not_grow_with_n():
    for n in (16, 32, 64):
        sol = solve_elliptic(assemble_system(generate_mesh(DISPLACED, n), [1.0, 2.0], 1.0))
        assert sol.iterations <= 50 and sol.rel_residual <= 1e-9, (n, sol)
    for name in preset_names():
        cfg = build_preset(name, n=16).config
        if cfg.is_radially_layered():
            sol = solve_elliptic(assemble_system(generate_mesh(cfg, 16), cfg.sigma_table(), 1.0))
            assert sol.iterations == 1, name


def _orbit_mean_stiffness(system):
    """K̄ff built apart from the solver: one tag per rotation orbit, sigma averaged over it.

    Rotating the polar mesh by a sector keeps every centroid's radius, and no
    two (band, side) classes share one, so rounded centroid radii are the orbits.
    """
    mesh = system.mesh
    radius = np.round(np.linalg.norm(mesh.vertices[mesh.triangles].mean(axis=1), axis=1), 9)
    _, orbit = np.unique(radius, return_inverse=True)
    assert orbit.max() + 1 == mesh.nt // mesh.sectors  # one orbit per (band, side)
    orbits = Mesh(
        vertices=mesh.vertices,
        triangles=mesh.triangles,
        tri_tags=orbit,
        boundary_edges=mesh.boundary_edges,
        edge_tags=mesh.edge_tags,
        sectors=mesh.sectors,
    )
    table = np.bincount(orbit, weights=system.sigma_e) / np.bincount(orbit)
    return assemble_system(orbits, table, 1.0).Kff


@pytest.mark.parametrize("cfg", [DISPLACED, DISPLACED_IN_ANNULUS], ids=["ball", "annulus"])
def test_preconditioner_solves_with_the_orbit_mean_stiffness(cfg):
    mesh = generate_mesh(cfg, 8)
    sys_ = assemble_system(mesh, cfg.sigma_table(), 1.0)
    assert len(np.unique(sys_.sigma_e)) == 2  # the displaced disk is resolved
    Kbar = _orbit_mean_stiffness(sys_)
    r = np.random.default_rng(7).standard_normal(len(sys_.free))
    ref = spsolve(Kbar, r)
    z = _orbit_mean_solver(sys_)(r)
    assert np.linalg.norm(z - ref) <= 1e-10 * np.linalg.norm(ref)
    assert np.linalg.norm(z - spsolve(sys_.Kff, r)) > 1e-3 * np.linalg.norm(ref)  # K̄ is not K


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    kind=st.sampled_from(["ball", "annulus"]),
    n=st.integers(6, 16),
    layers=st.lists(
        st.tuples(st.integers(1, 9), st.floats(0.1, 10.0)),
        min_size=1,
        max_size=3,
        unique_by=lambda layer: layer[0],
    ),
)
def test_concentric_layouts_solve_in_one_iteration(kind, n, layers):
    # nested centred disks, innermost first: every interface is a mesh ring, so K̄ is Kff
    dom = DomainSpec(kind, inner_radius=0.5 if kind == "annulus" else 0.0)
    r0, R = dom.inner_radius, dom.outer_radius
    phases = tuple(
        PhaseRegion(shape="disk", sigma=sigma, radius=r0 + (R - r0) * i / 10)
        for i, sigma in sorted(layers)
    )
    cfg = PhaseConfig(domain=dom, phases=phases)
    sys_ = assemble_system(generate_mesh(cfg, n), cfg.sigma_table(), 1.0)
    assert sys_.rotation_invariant
    sol = solve_elliptic(sys_)
    assert sol.iterations == 1 and sol.rel_residual <= 1e-10


def test_rotation_invariance_needs_sigma_constant_on_every_orbit():
    for name in preset_names():
        cfg = build_preset(name, n=16).config
        sys_ = assemble_system(generate_mesh(cfg, 16), cfg.sigma_table(), 1.0)
        assert sys_.rotation_invariant == cfg.is_radially_layered(), name
    # the displaced core turned by three of the 6n = 96 sectors is still not invariant
    turn = 2 * math.pi * 3 / 96
    center = (0.2 * math.cos(turn), 0.2 * math.sin(turn))
    turned = ball_config((PhaseRegion(shape="disk", sigma=2.0, center=center, radius=0.3),))
    for cfg in (DISPLACED, turned):
        assert not assemble_system(generate_mesh(cfg, 16), cfg.sigma_table(), 1.0).rotation_invariant
    sys_ = assemble_system(generate_mesh(CONCENTRIC, 16), CONCENTRIC.sigma_table(), 1.0)
    assert sys_.rotation_invariant
    sigma_e = sys_.sigma_e.copy()
    sigma_e[sys_.mesh.nt // 2] *= 1.0 + 1e-15
    assert not replace(sys_, sigma_e=sigma_e).rotation_invariant


def test_center_value_against_layered_reference():
    sys_ = assemble_system(generate_mesh(CONCENTRIC, 16), [1.0, 2.0], 1.0)
    sol = solve_elliptic(sys_)
    assert abs(sol.u[0] - 0.21875) < 5e-4


def _l2_error_per_triangle(mesh, u, profile):
    """The three-edge-midpoint rule with the profile evaluated at every triangle's midpoints."""
    T = mesh.triangles
    i, j = T[:, [1, 0, 0]], T[:, [2, 2, 1]]  # the ends of the edge opposite each corner
    r_mid = np.linalg.norm((mesh.vertices[i] + mesh.vertices[j]) / 2, axis=2)
    um = (u[i] + u[j]) / 2
    ref = profile(np.clip(r_mid, profile.r0, profile.R))
    _, _, area = mesh.geometry
    return float(np.sqrt((area[:, None] / 3 * (um - ref) ** 2).sum()))


@pytest.mark.parametrize("n", [8, 13, 32])
def test_l2_error_by_orbit_matches_the_per_triangle_rule(n):
    layered = [name for name in preset_names() if build_preset(name, n=n).config.is_radially_layered()]
    assert len(layered) == 4
    for name in layered:
        scenario = build_preset(name, n=n)
        res = run_scenario(scenario)
        profile = solve_radial(*radial_layers(scenario.config), scenario.source)
        ref = _l2_error_per_triangle(res.system.mesh, res.solution.u, profile)
        got = l2_error_to_radial(res.system.mesh, res.solution.u, profile)
        assert got == res.fem_vs_radial_l2
        assert abs(got - ref) <= 1e-12 * ref, (name, got, ref)


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
    assert abs(flux.total / flux.weights.sum() - (-0.5)) < 2e-3
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
    tri, _ = locate_points(mesh, mesh.vertices[mesh.triangles].mean(axis=1))
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
