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
    _orbit_mean_solver,
    assemble_system,
    generate_mesh,
    l2_error_to_radial,
    locate_points,
    recover_boundary_flux,
    solve_elliptic,
    _tri_geometry,
    write_mesh,
)
from phaselab.geometry import DomainSpec, PhaseConfig, PhaseRegion
from phaselab.radial_core import solve_radial

from oracles import (
    SevenSlotOperator,
    _element_mass,
    _element_stiffness,
    boundary_partition,
    boundary_weights,
    orbit_mean_solve,
    polar_assembly,
    polar_triangles,
    tag_triangles,
    tri_geometry,
)


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


@pytest.mark.parametrize("cfg", [DISPLACED, DISPLACED_IN_ANNULUS], ids=["ball", "annulus"])
def test_triangle_table_matches_the_gathered_reference(cfg):
    for n in range(4, 41):
        mesh = generate_mesh(cfg, n)
        T = polar_triangles(mesh.sectors, mesh.nv % mesh.sectors)
        assert mesh.triangles.dtype == np.int32 and mesh.triangles.tobytes() == T.astype(np.int32).tobytes(), n
        assert mesh.tri_tags.dtype == np.int32, n


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
    # the mesh keeps its ring radii, 0 first on a ball, and every ring sits on its radius
    assert len(mesh.radii) == n + 1 and mesh.radii[0] == cfg.domain.inner_radius
    j = np.arange(m)
    theta = 2 * np.pi * j / m
    for r, ring in zip(mesh.radii[first:], mesh.vertices[first:].reshape(-1, m, 2), strict=True):
        x, y = ring.T
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
    a8 = generate_mesh(ball_config(), 8).areas.sum()
    a16 = generate_mesh(ball_config(), 16).areas.sum()
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
    # 6n (n + 1) vertex ids past the int32 range: refused before anything is allocated
    with pytest.raises(ValueError, match="more vertices than int32 ids can hold"):
        generate_mesh(ball_config(), 20000)


def test_displaced_core_area_from_tags():
    mesh = generate_mesh(DISPLACED, 32)
    core_area = mesh.areas[mesh.tri_tags == 1].sum()
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
        radii=np.zeros(0),
    )
    with pytest.raises(ValueError, match="polar mesh"):
        assemble_system(mesh, [1.0], 1.0)


def test_stiffness_rows_sum_to_zero():
    sys_ = assemble_system(generate_mesh(CONCENTRIC, 8), [1.0, 2.0], 1.0)
    row_sums = sys_.stiffness @ np.ones(sys_.mesh.nv)
    assert np.max(np.abs(row_sums)) < 1e-13


# a ball with a displaced core, an annulus with a disk in its shell, and a
# ball with three concentric interfaces
ASSEMBLY_LAYOUTS = {
    "ball": DISPLACED,
    "annulus": DISPLACED_IN_ANNULUS,
    "multi": build_preset("nested_rings_hypothesis_violation", n=4).config,
}


def assembly_cases(test):
    """The layouts, resolutions and assembly block sizes of the assembly tests."""
    test = example(layout="multi", n=9, block=1)(test)  # less than a band: one band per block
    test = example(layout="annulus", n=13, block=1000)(test)  # odd n: two blocks of 6 bands, then one of 1
    test = example(layout="ball", n=40, block=_BLOCK_TRIANGLES)(test)  # 34 bands, then a partial block of 5
    test = given(
        layout=st.sampled_from(sorted(ASSEMBLY_LAYOUTS)),
        n=st.integers(4, 40),
        block=st.sampled_from([1, 500, 3000, _BLOCK_TRIANGLES]),
    )(test)
    return settings(derandomize=True, deadline=None, max_examples=30)(test)


@assembly_cases
def test_blocked_assembly_matches_one_shot_reference(layout, n, block):
    mesh = generate_mesh(ASSEMBLY_LAYOUTS[layout], n)
    with patch.object(fem2d, "_BLOCK_TRIANGLES", block):
        sys_ = assemble_system(mesh, [1.0, 2.0, 3.0], 1.0)
        sys_.mass
    # the reference: every element block at once, one COO matrix per operator
    T, nv = mesh.triangles, mesh.nv
    b, c, area = _tri_geometry(mesh.vertices, T)
    ij = (np.repeat(T, 3, axis=1).reshape(-1), np.tile(T, (1, 3)).reshape(-1))
    Ke = _element_stiffness(b, c, area, sys_.sigma_table[mesh.tri_tags])
    Me = (area[:, None, None] / 12.0) * (np.ones((3, 3)) + np.eye(3))
    for operator, blocks in ((sys_.stiffness, Ke), (sys_.mass, Me)):
        ref = sp.coo_matrix((blocks.reshape(-1), ij), shape=(nv, nv)).tocsr()
        got = operator.tocsr()
        assert got.nnz == operator.nnz
        assert got.format == "csr" and got.has_canonical_format
        assert got.indices.dtype == got.indptr.dtype == np.int32
        assert abs(got - ref).max() <= 1e-15 * abs(ref).max()
        # the same pattern, except that entries which cancel to exactly 0 may be dropped
        assert got.nnz <= ref.nnz
        got = got.copy()
        for A in (got, ref):
            A.eliminate_zeros()
        assert (got.indptr == ref.indptr).all() and (got.indices == ref.indices).all()


@assembly_cases
def test_assembly_matches_the_gathered_element_blocks_bitwise(layout, n, block):
    # the slice kernel forms each distinct entry once; the reference gathers
    # whole 3x3 blocks and sums all seven slots in the same band-block order
    mesh = generate_mesh(ASSEMBLY_LAYOUTS[layout], n)
    with patch.object(fem2d, "_BLOCK_TRIANGLES", block):
        sys_ = assemble_system(mesh, [1.0, 2.0, 3.0], 1.0)
        sys_.mass
    b, c, area = tri_geometry(mesh.vertices, mesh.triangles)
    assert mesh.areas.tobytes() == area.tobytes()
    K, M = _element_stiffness(b, c, area, sys_.sigma_table[mesh.tri_tags]), _element_mass(area)
    for operator, blocks in ((sys_.stiffness, K), (sys_.mass, M)):
        values, centre = polar_assembly(mesh, blocks, block)
        # the four stored slots, a ring of zeros after them, and the mirrors read from them
        assert operator.values.shape == (4, len(values[0]) + 1, mesh.sectors)
        assert operator.values[:, :-1].tobytes() == values[:4].tobytes()
        assert not operator.values[:, -1].any()
        assert operator.slots().tobytes() == values.tobytes()
        assert operator.centre.tobytes() == centre.tobytes()


@assembly_cases
def test_four_slots_multiply_compress_and_solve_as_seven_bitwise(layout, n, block):
    # the operators that store all seven slots, as the reference sums them
    mesh = generate_mesh(ASSEMBLY_LAYOUTS[layout], n)
    with patch.object(fem2d, "_BLOCK_TRIANGLES", block):
        sys_ = assemble_system(mesh, [1.0, 2.0, 3.0], 1.0)
        sys_.mass
    b, c, area = tri_geometry(mesh.vertices, mesh.triangles)
    K, M = _element_stiffness(b, c, area, sys_.sigma_table[mesh.tri_tags]), _element_mass(area)
    (lo, hi), nv = (sys_.free[0], sys_.free[-1] + 1), mesh.nv
    x = np.random.default_rng(n).standard_normal(nv)
    for operator, blocks in ((sys_.stiffness, K), (sys_.mass, M)):
        seven = SevenSlotOperator(*polar_assembly(mesh, blocks, block))
        assert operator.shape == seven.shape and operator.nnz == seven.nnz
        assert operator.centre.tobytes() == seven.centre.tobytes()
        assert (operator @ x).tobytes() == seven.matvec(x).tobytes()
        assert operator.matvec(x[lo:hi], lo, hi).tobytes() == seven.matvec(x[lo:hi], lo, hi).tobytes()
        got, want = operator.tocsr(), seven.tocsr()
        for part in ("data", "indices", "indptr"):
            assert getattr(got, part).tobytes() == getattr(want, part).tobytes(), part
        solve = _orbit_mean_solver(mesh, operator)
        assert solve(x[lo:hi]).tobytes() == orbit_mean_solve(mesh, seven, x[lo:hi]).tobytes()


def test_an_inverted_triangle_fails_assembly():
    mesh = generate_mesh(DISPLACED, 8)
    m = mesh.sectors
    V = mesh.vertices.copy()
    V[1 + 2 * m : 1 + 3 * m] *= 1.2 * mesh.radii[4] / mesh.radii[3]  # ring 3 beyond ring 4
    with pytest.raises(ValueError, match="inverted or degenerate triangle") as excinfo:
        assemble_system(replace(mesh, vertices=V), [1.0, 2.0], 1.0)
    assert "_assemble" in [entry.name for entry in excinfo.traceback]  # the slice kernel raised


def test_assembly_temporaries_stay_within_twice_the_matrices():
    mesh = generate_mesh(DISPLACED, 64)
    tracemalloc.start()
    try:
        sys_ = assemble_system(mesh, [1.0, 2.0], 1.0)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # only K: the mass matrix is assembled on first use, outside this window; K's
    # CSR form, compressed after the window, is the measure
    K = sys_.stiffness.tocsr()
    assert peak - live <= 2 * sum(a.nbytes for a in (K.data, K.indices, K.indptr))


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [4, 16, 43])
@pytest.mark.parametrize("cfg", [CONCENTRIC, ANNULUS], ids=["ball", "annulus"])
def test_free_vertices_are_the_sorted_complement_of_the_boundary(cfg, n):
    # the polar numbering's index ranges against the vertices the boundary edges touch
    mesh = generate_mesh(cfg, n)
    sys_ = assemble_system(mesh, [1.0, 2.0], 1.0)
    free, boundary = boundary_partition(mesh)
    assert same_bytes(sys_.free, free) and same_bytes(sys_.boundary, boundary)


@pytest.mark.parametrize("n", [4, 7, 16, 43])
@pytest.mark.parametrize("cfg", [DISPLACED, DISPLACED_IN_ANNULUS], ids=["ball", "annulus"])
def test_boundary_weights_and_loop_tags_match_the_edge_scatter(cfg, n):
    # the ring-order weights and tags against each edge's halves scattered to its ends
    sys_ = assemble_system(generate_mesh(cfg, n), cfg.sigma_table(), 1.0)
    flux = recover_boundary_flux(sys_, solve_elliptic(sys_).u)
    weights, component = boundary_weights(sys_.mesh, sys_.boundary)
    assert same_bytes(flux.vertex_ids, sys_.boundary)
    assert same_bytes(flux.weights, weights) and same_bytes(flux.component, component)
    assert set(component) == ({0, 1} if cfg.domain.kind == "annulus" else {0})


def test_geometry_and_free_blocks_are_cached_read_only():
    mesh = generate_mesh(DISPLACED, 8)
    sys_ = assemble_system(mesh, [1.0, 2.0], 1.0)
    # assembly stores the areas it computed on the mesh: the bits a mesh computes alone
    assert mesh.areas is mesh.areas and not mesh.areas.flags.writeable
    assert mesh.areas.tobytes() == generate_mesh(DISPLACED, 8).areas.tobytes()
    assert not hasattr(mesh, "geometry")  # the edge coefficients are not kept
    assert sys_.Mff is sys_.Mff and not hasattr(sys_, "Kff")
    free = sys_.free
    for got, A in ((sys_._free_block(sys_.stiffness), sys_.stiffness), (sys_.Mff, sys_.mass)):
        assert got.format == "csr" and got.shape == (len(free),) * 2
        # the heat flow factors the transposed view as CSC, which is the block only
        # while it is exactly symmetric
        assert (got != got.T).nnz == 0
        # the contiguous slices are bitwise the blocks that the free index array selects
        ref = A.tocsr()[free][:, free]
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(ref, attr))


def test_untagged_or_bad_sigma_rejected():
    mesh = generate_mesh(ball_config(), 4)
    broken = replace(mesh, tri_tags=np.full(mesh.nt, -1))
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


def _free_csr(A, system):
    """The free block of the operator ``A`` in CSR, selected by the free index array."""
    return A.tocsr()[system.free][:, system.free]


def _kff_solve(system, tol=1e-10, maxit=50000):
    """CG on the sliced free block in CSR, a new vector per update, as `solve_elliptic`
    once ran: its reference, bit for bit.  Returns u, the iteration count and the
    relative residual."""
    K, free = _free_csr(system.stiffness, system), system.free
    F = system.load[free]
    precond = _orbit_mean_solver(system.mesh, system.stiffness)
    x, r = np.zeros_like(F), F.copy()
    z = precond(r)
    p = z.copy()
    rz = fem2d._dot(r, z)
    scale = 2.0 ** -max(int(np.frexp(np.abs(F).max())[1]), -1023)
    f0 = fem2d._norm(scale * F)
    for it in range(1, maxit + 1):
        Kp = K @ p
        alpha = rz / fem2d._dot(p, Kp)
        x += alpha * p
        r -= alpha * Kp
        if fem2d._norm(scale * r) <= tol * f0:
            break
        z = precond(r)
        rz_new = fem2d._dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    u = np.zeros(system.mesh.nv)
    u[free] = x
    return u, it, fem2d._norm(K @ x - F) / max(fem2d._norm(F), 1e-300)


@pytest.mark.parametrize("n", [8, 13, 16])
@pytest.mark.parametrize("layout", ["ball", "annulus", "two_phase_displaced", "multiphase_discrete"])
def test_zero_padded_solve_matches_the_free_block_solve_bitwise(layout, n):
    # the in-place CG with the stencil product against the CSR free block; an
    # annulus's boundary columns lead each first-ring row, so its products
    # start with a signed zero
    system = _layout_system(layout, n)
    sol = solve_elliptic(system)
    u, iterations, rel_residual = _kff_solve(system)
    assert sol.iterations == iterations > 1
    assert sol.u.tobytes() == u.tobytes()
    assert sol.rel_residual == rel_residual


def _layout_system(layout, n):
    """A displaced ball, a disk in an annulus's shell, or a preset's system."""
    if layout in ("ball", "annulus"):
        cfg = DISPLACED if layout == "ball" else DISPLACED_IN_ANNULUS
        return assemble_system(generate_mesh(cfg, n), cfg.sigma_table(), 1.0)
    return run_scenario(build_preset(layout, n=n)).system


@pytest.mark.parametrize("n", [8, 13, 16])
@pytest.mark.parametrize("layout", ["ball", "annulus", "two_phase_displaced", "multiphase_discrete"])
def test_stencil_product_matches_the_csr_product_bitwise(layout, n):
    system = _layout_system(layout, n)
    nv, (lo, hi) = system.mesh.nv, (system.free[0], system.free[-1] + 1)
    x = np.random.default_rng(n).standard_normal(nv)
    for operator in (system.stiffness, system.mass):
        A = operator.tocsr()
        assert operator.nnz == A.nnz and operator.shape == A.shape
        # every row: a ball's centre row, and each ring's sectors 0 and m-1, whose
        # columns wrap, in their CSR order
        assert (operator @ x).tobytes() == (A @ x).tobytes()
        # the free block, which the solver multiplies in place
        out = np.empty(hi - lo)
        assert operator.matvec(x[lo:hi], lo, hi, out) is out
        assert out.tobytes() == (A[lo:hi, lo:hi] @ x[lo:hi]).tobytes()
    # every term of every mass row is -0.0 here, and CSR sums them from +0.0
    zeros = np.full(nv, -0.0)
    assert (system.mass @ zeros).tobytes() == (system.mass.tocsr() @ zeros).tobytes()
    assert not np.signbit(system.mass @ zeros).any()


@pytest.mark.parametrize("n", [8, 13, 16])
@pytest.mark.parametrize("cfg", [DISPLACED, DISPLACED_IN_ANNULUS], ids=["ball", "annulus"])
def test_block_geometry_matches_the_gathers_bitwise(cfg, n):
    mesh = generate_mesh(cfg, n)
    m, fan = mesh.sectors, mesh.nv % mesh.sectors
    # a ball's centre fan; every band alone, all bands at once, and three bands
    bands = [(0, 1)][:fan] + [(b, b + 1) for b in range(fan, n)] + [(fan, n), (fan + 1, fan + 4)]
    for lo, hi in bands:
        b, c, area = _tri_geometry(mesh.vertices, mesh.triangles[max(2 * lo - fan, 0) * m : (2 * hi - fan) * m])
        # each side's rows b0, b1, b2, c0, c1, c2, area, laid out (side, row, band, sector)
        want = np.column_stack([b, c, area]).reshape(hi - lo, m, -1, 7).transpose(2, 3, 0, 1)
        sides = fem2d._band_corners(mesh, lo, hi)
        assert len(sides) == want.shape[0] == 2 - (lo < fan)
        for s, corners in enumerate(sides):
            got = fem2d._corner_geometry(*corners)
            assert got.shape == want[s].shape and got.tobytes() == want[s].tobytes(), (lo, hi, s)


ROTATION_INVARIANT_PRESETS = [name for name in preset_names() if build_preset(name, n=16).config.is_radially_layered()]


@pytest.mark.parametrize("n", [13, 16])
@pytest.mark.parametrize("name", ROTATION_INVARIANT_PRESETS)
def test_orbit_mean_solver_matches_the_sparse_solve(name, n):
    # where sigma is constant on every rotation orbit, Ā is the operator itself:
    # the stiffness, which CG solves in one step, and the heat flow's cap matrix
    from phaselab.parabolic import DT_MAX

    cfg = build_preset(name, n=n).config
    system = assemble_system(generate_mesh(cfg, n), cfg.sigma_table(), 1.0)
    assert system.rotation_invariant
    K, M = system.stiffness, system.mass
    cap = fem2d.PolarOperator(M.values + DT_MAX * K.values, M.centre + DT_MAX * K.centre)
    r = np.random.default_rng(3).standard_normal(len(system.free))
    for operator in (K, cap):
        ref = spsolve(_free_csr(operator, system).tocsc(), r)
        z = _orbit_mean_solver(system.mesh, operator)(r)
        assert np.linalg.norm(z - ref) <= 1e-12 * np.linalg.norm(ref)


def test_an_operator_that_is_not_positive_definite_raises():
    system = assemble_system(generate_mesh(CONCENTRIC, 8), CONCENTRIC.sigma_table(), 1.0)
    K = system.stiffness
    negative, coupled = K.values.copy(), K.values.copy()
    negative[3, 3] *= -1.0  # the fourth free ring's diagonal slot, in every sector
    # the couplings between rings from the fourth free ring out, scaled alike on
    # both sides (inward slots 0, 1 from the fifth ring, which the fourth ring's
    # outward slots 5, 6 mirror): every mode's first four pivots stay positive,
    # and the low modes' fifth is negative
    coupled[:2, 4:] *= 10.0
    bad = [
        fem2d.PolarOperator(negative, K.centre),
        # the centre's diagonal zero, then negated: the second leaves the next pivot positive
        fem2d.PolarOperator(K.values, np.concatenate([[0.0], K.centre[1:]])),
        fem2d.PolarOperator(K.values, np.concatenate([-K.centre[:1], K.centre[1:]])),
        fem2d.PolarOperator(coupled, K.centre),
    ]
    for operator in bad:
        assert np.linalg.eigvalsh(_free_csr(operator, system).toarray())[0] < 0  # indefinite
        with pytest.raises(ValueError, match="the angular-mode system is not positive definite"):
            _orbit_mean_solver(system.mesh, operator)
    _orbit_mean_solver(system.mesh, K)  # the stiffness itself factors


def _orbit_mean_stiffness(system):
    """K̄ff built apart from the solver: one tag per rotation orbit, sigma averaged over it.

    Rotating the polar mesh by a sector keeps every centroid's radius, and no
    two (band, side) classes share one, so rounded centroid radii are the orbits.
    """
    mesh = system.mesh
    radius = np.round(np.linalg.norm(mesh.vertices[mesh.triangles].mean(axis=1), axis=1), 9)
    _, orbit = np.unique(radius, return_inverse=True)
    assert orbit.max() + 1 == mesh.nt // mesh.sectors  # one orbit per (band, side)
    orbits = replace(mesh, tri_tags=orbit)
    table = np.bincount(orbit, weights=system.sigma_table[mesh.tri_tags]) / np.bincount(orbit)
    return _free_csr(assemble_system(orbits, table, 1.0).stiffness, system)


@pytest.mark.parametrize("cfg", [DISPLACED, DISPLACED_IN_ANNULUS], ids=["ball", "annulus"])
def test_preconditioner_solves_with_the_orbit_mean_stiffness(cfg):
    mesh = generate_mesh(cfg, 8)
    sys_ = assemble_system(mesh, cfg.sigma_table(), 1.0)
    assert len(np.unique(sys_.sigma_table[mesh.tri_tags])) == 2  # the displaced disk is resolved
    Kbar = _orbit_mean_stiffness(sys_)
    r = np.random.default_rng(7).standard_normal(len(sys_.free))
    ref = spsolve(Kbar, r)
    z = _orbit_mean_solver(mesh, sys_.stiffness)(r)
    assert np.linalg.norm(z - ref) <= 1e-10 * np.linalg.norm(ref)
    K = _free_csr(sys_.stiffness, sys_)
    assert np.linalg.norm(z - spsolve(K, r)) > 1e-3 * np.linalg.norm(ref)  # K̄ is not K


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
    # nested centred disks, innermost first: every interface is a mesh ring, so K̄ is K
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
    # one triangle's conductivity off by 1e-15 relative: a tag of its own
    t, tags = sys_.mesh.nt // 2, sys_.mesh.tri_tags.copy()
    table = np.append(sys_.sigma_table, sys_.sigma_table[tags[t]] * (1.0 + 1e-15))
    tags[t] = len(table) - 1
    assert not replace(sys_, mesh=replace(sys_.mesh, tri_tags=tags), sigma_table=table).rotation_invariant


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
    return float(np.sqrt((mesh.areas[:, None] / 3 * (um - ref) ** 2).sum()))


def _l2_error_gathered(mesh, u, profile):
    """`l2_error_to_radial` with the midpoint values gathered through the triangle table."""
    m, T = mesh.sectors, mesh.triangles
    fan = mesh.nv % m
    ends = ([1, 0, 0], [2, 2, 1])
    V0 = mesh.vertices[T[fem2d._orbits(mesh)[:, 0]]]
    ref = profile(np.clip(np.linalg.norm((V0[:, :, ends[0]] + V0[:, :, ends[1]]) / 2, axis=-1), profile.r0, profile.R))
    err = (u[T[:, ends[0]]] + u[T[:, ends[1]]]) / 2  # column-major, as the gathers leave it
    err[: fan * m] -= ref[0, 0]
    quads = err[fan * m :].reshape(-1, m, 2, 3)
    quads -= ref[fan:, None]
    err **= 2
    err *= mesh.areas[:, None] / 3
    return float(np.sqrt(err.sum()))


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
        assert got == _l2_error_gathered(res.system.mesh, res.solution.u, profile)  # bit for bit
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


def assert_weak_form_identity(system, u):
    """Tested with a sigma-harmonic w, -div(sigma grad u) = g gives
    int g w = -int_boundary sigma du/dnu w.  Discretely, let w extend a trace w_b
    (Kff w_f = -K_fb w_b) and r_f = Kff u_f - F_f be the solve's residual; then
    the recovered boundary residual obeys (K u - F)_b . w_b + F . w = -w_f . r_f
    exactly, for traces cos k theta and sin k theta on each boundary loop apart."""
    flux = recover_boundary_flux(system, u)
    free, bn, F = system.free, flux.vertex_ids, system.load
    K = system.stiffness.tocsr()
    Kff, Kfb = K[free][:, free].tocsc(), K[free][:, bn]
    r_f = Kff @ u[free] - F[free]
    x, y = system.mesh.vertices[bn].T
    theta = np.arctan2(y, x)
    loops = np.unique(flux.component)
    assert len(loops) == (2 if system.mesh.nv % system.mesh.sectors == 0 else 1)
    for loop in loops:
        for k in range(1, 5):
            for trace in (np.cos(k * theta), np.sin(k * theta)):
                w = np.zeros(system.mesh.nv)
                w[bn] = np.where(flux.component == loop, trace, 0.0)
                w[free] = spsolve(Kff, -(Kfb @ w[bn]))
                lhs = (flux.values * flux.weights) @ w[bn] + F @ w
                bound = 1e-13 * np.abs(F).sum() * np.abs(w).max()
                assert abs(lhs + w[free] @ r_f) <= bound, (loop, k)


@pytest.mark.parametrize("n", [16, 24])
@pytest.mark.parametrize("name", preset_names())
def test_weak_form_holds_as_a_discrete_identity(name, n):
    res = run_scenario(build_preset(name, n=n))
    assert_weak_form_identity(res.system, res.solution.u)


@st.composite
def weak_form_layouts(draw):
    """A ball or an annulus with a centred disk, a centred ring or an off-centre disk."""
    r0 = draw(st.sampled_from([0.0, 0.3]))
    domain = DomainSpec("annulus", inner_radius=r0) if r0 else DomainSpec("ball")
    sigma = draw(st.floats(0.2, 5.0))
    kind = draw(st.sampled_from(["ring", "off-centre disk"] + ([] if r0 else ["centred disk"])))
    if kind == "centred disk":
        phase = PhaseRegion(shape="disk", sigma=sigma, radius=draw(st.floats(0.2, 0.8)))
    elif kind == "off-centre disk":
        d, turn = draw(st.floats(0.5, 0.6)), draw(st.floats(-math.pi, math.pi))
        center = (d * math.cos(turn), d * math.sin(turn))
        phase = PhaseRegion(shape="disk", sigma=sigma, center=center, radius=0.15)
    else:
        inner = draw(st.floats(r0 + 0.1, 0.6))
        phase = PhaseRegion(shape="ring", sigma=sigma, r_inner=inner, r_outer=inner + 0.25)
    return PhaseConfig(domain=domain, phases=(phase,)), draw(st.integers(8, 24))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(weak_form_layouts())
def test_weak_form_holds_on_random_layouts(layout):
    cfg, n = layout
    system = assemble_system(generate_mesh(cfg, n), cfg.sigma_table(), 1.0)
    assert_weak_form_identity(system, solve_elliptic(system).u)


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
    write_mesh(path, mesh, (tmp_path / "u.csv", np.zeros(mesh.nv)))
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


@st.composite
def tagged_layouts(draw):
    """Centred disks and rings, off-centre disks turned by whole sectors or by any angle, in a
    ball or annulus."""
    r0 = draw(st.sampled_from([0.0, 0.2, 0.45]))
    domain = DomainSpec("annulus", inner_radius=r0) if r0 else DomainSpec("ball")
    # interfaces on a grid of the free span, so every centred phase fits in the domain
    radii = sorted(draw(st.sets(st.integers(1, 19), min_size=1, max_size=3)))
    n = draw(st.integers(4, 40))  # at least one interval for each of the <= 4 segments
    radius = [r0 + (1 - r0) * k / 20 for k in radii]
    phases = []
    if draw(st.booleans()) and r0 == 0.0:  # a centred disk
        phases.append(PhaseRegion(shape="disk", sigma=2.0, radius=radius.pop(0)))
    while len(radius) >= 2:  # centred rings
        inner, outer = radius.pop(0), radius.pop(0)
        phases.append(PhaseRegion(shape="ring", sigma=3.0, r_inner=inner, r_outer=outer))
    for _ in range(draw(st.integers(0, 2))):  # off-centre disks
        d = draw(st.floats(0.05, 0.9))
        sectors = st.integers(0, 6 * n - 1).map(lambda k: 2 * math.pi * k / (6 * n))
        turn = draw(st.one_of(sectors, st.floats(-math.pi, math.pi)))
        phases.append(
            PhaseRegion(
                shape="disk",
                sigma=5.0,
                center=(d * math.cos(turn), d * math.sin(turn)),
                radius=draw(st.floats(0.01, 0.3)),
            )
        )
    return PhaseConfig(domain=domain, phases=tuple(phases)), n


def _thin_ring(n):
    """A ball whose ring (0.5, b) is one band so thin that a side-1 centroid
    of that band lies on |x| = 0.5 up to round-off, at 6n sectors."""
    c = math.cos(2 * math.pi / (6 * n))
    b = 0.5 * (math.sqrt(c * c + 8) - c - 1)
    return ball_config((PhaseRegion(shape="ring", sigma=3.0, r_inner=0.5, r_outer=b),)), n


# thin bands above an off-centre disk's reach, whose chords dip into it
DIPPING_CHORDS = ball_config(
    (
        PhaseRegion(shape="ring", sigma=3.0, r_inner=0.5, r_outer=0.5001),
        PhaseRegion(shape="ring", sigma=3.0, r_inner=0.5002, r_outer=0.7),
        PhaseRegion(shape="disk", sigma=5.0, center=(0.3, 0.0), radius=0.1999),
    )
)


# off-centre disks whose sector windows hold sector 0, wrap past angle pi, or
# start at the centre: a disk on sector 0's centroids, one across the negative
# x-axis, and one whose rim passes through the centre; each takes precedence
# over the centred ring it overlaps
SECTOR_WINDOWS = ball_config(
    (
        PhaseRegion(shape="disk", sigma=5.0, center=(0.6, 0.0), radius=0.1),
        PhaseRegion(shape="disk", sigma=4.0, center=(-0.6, 1e-3), radius=0.15),
        PhaseRegion(shape="disk", sigma=6.0, center=(0.0, -0.12), radius=0.12),
        PhaseRegion(shape="ring", sigma=3.0, r_inner=0.3, r_outer=0.8),
    )
)


@settings(deadline=None, max_examples=60)
@given(tagged_layouts())
@example((SECTOR_WINDOWS, 8))
@example((DISPLACED, 4))
@example((DISPLACED_IN_ANNULUS, 40))
@example((DIPPING_CHORDS, 5))
@example(_thin_ring(10))
@example(_thin_ring(32))
def test_orbit_tags_match_the_per_centroid_tags(layout):
    # the generator tests centred phases once per rotation orbit and every
    # centroid only in an off-centre disk's sector window or near a centred
    # interface; the tags must be bitwise the per-centroid ones
    config, n = layout
    mesh = generate_mesh(config, n)
    want = tag_triangles(mesh.vertices, mesh.triangles, config)
    np.testing.assert_array_equal(mesh.tri_tags, want)


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
    sys_ = assemble_system(mesh, [1.0, 2.0], 1.0)
    s = CircleSampler(sys_, 0.75)
    vals, flux = np.split(s.matrix @ u[sys_.free], 2)
    # aligned samples of a radial nodal field agree to rounding error
    assert np.max(np.abs(vals - vals.mean())) < 1e-13
    # sigma is 1 in the shell, so the flux rows are the radial derivative
    # the interpolant's gradient is only O(h) pointwise, but it is angularly uniform
    assert np.max(np.abs(flux - flux.mean())) < 1e-12
    assert abs(flux.mean() - prof.derivative(0.75)) < 0.1 * abs(prof.derivative(0.75))
    assert s.count == mesh.sectors
