"""Linear triangular finite elements on structured polar meshes.

Meshes are rings of 6n sectors whose radii conform exactly to every
concentric material interface, so layered conductivities are resolved
without interface error and the mesh inherits the full discrete rotation
group of the layout.  Displaced inclusions are captured by per-element
tagging at centroids instead.

Assembly is the classical piecewise-linear setup: element stiffness from
edge coefficients, exact 3x3 mass blocks, vertex-rule load.  Each derived
fact has one owner that builds it on first use: the mesh its element
geometry, the assembled system its Dirichlet-free blocks.  The linear
solve is a hand-rolled Jacobi-preconditioned conjugate gradient with a
deterministic zero start, and boundary fluxes are recovered variationally
from the residual of the full (uneliminated) operator, which makes the
discrete divergence identity hold to solver precision.

Point location is closed-form on the generated layout: sector, band, one
side test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Mesh",
    "FemSystem",
    "EllipticSolution",
    "BoundaryFlux",
    "CircleSampler",
    "generate_mesh",
    "tag_triangles",
    "assemble_system",
    "solve_elliptic",
    "recover_boundary_flux",
    "locate_points",
    "l2_error_to_radial",
    "write_mesh",
]


@dataclass(frozen=True)
class Mesh:
    vertices: np.ndarray  # (nv, 2)
    triangles: np.ndarray  # (nt, 3), counter-clockwise
    tri_tags: np.ndarray  # (nt,) region tag per element; 0 = shell
    boundary_edges: np.ndarray  # (nb, 2) vertex pairs
    edge_tags: np.ndarray  # (nb,) boundary component: 0 = outer, 1 = inner
    sectors: int  # angular sector count of the generator

    def __post_init__(self) -> None:
        for name in ("vertices", "triangles", "tri_tags", "boundary_edges", "edge_tags"):
            getattr(self, name).setflags(write=False)

    @property
    def nv(self) -> int:
        return len(self.vertices)

    @property
    def nt(self) -> int:
        return len(self.triangles)

    def boundary_vertices(self) -> np.ndarray:
        return np.unique(self.boundary_edges)

    def centroids(self) -> np.ndarray:
        return self.vertices[self.triangles].mean(axis=1)

    @cached_property
    def geometry(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edge coefficients b, c (nt, 3) and areas (nt,) of every triangle, read-only."""
        arrays = _tri_geometry(self.vertices, self.triangles)
        for a in arrays:
            a.setflags(write=False)
        return arrays


def _allocate_intervals(marks: np.ndarray, n: int) -> np.ndarray:
    """Split n radial intervals across segments, largest remainder, min one each."""
    lens = np.diff(marks)
    if len(lens) > n:
        raise ValueError(
            f"resolution n={n} is too small for {len(lens)} concentric segments"
        )
    raw = n * lens / lens.sum()
    base = np.maximum(np.floor(raw).astype(int), 1)
    while base.sum() > n:
        # shrink the most over-allocated segment that can still give one up
        excess = np.where(base > 1, base - raw, -np.inf)
        base[np.argmax(excess)] -= 1
    while base.sum() < n:
        base[np.argmin(base - raw)] += 1
    return base


def _triangle_index(m: int, fan: int, band, sector, side):
    """Triangle number of (band, sector, side): bands count outwards, sectors from angle 0.

    A ball (``fan`` = 1) starts with its centre fan, one triangle per sector;
    every other band's (i,j)-(i+1,j+1) diagonals split it into side 0 at the
    outer ring and side 1 at the inner ring.
    """
    return np.where(band < fan, sector, 2 * (band * m + sector) + side - fan * m)


def generate_mesh(config, n: int) -> Mesh:
    """Structured polar mesh of the layout with 6n sectors and n radial intervals.

    Ring radii conform to every concentric interface of the configuration;
    interfaces of displaced inclusions are *not* meshed and rely on centroid
    tagging.  Counts: a ball gives 1 + n*6n vertices and 6n*(2n - 1)
    triangles; an annulus gives (n + 1)*6n and 2n*6n.
    """
    if n < 4:
        raise ValueError("resolution n must be at least 4")
    dom = config.domain
    r0, R = dom.inner_radius, dom.outer_radius
    for rho in config.conforming_radii():
        if not r0 < rho < R:
            raise ValueError(f"phase interface radius {rho} lies outside the domain")

    m = 6 * n
    fan = int(dom.kind == "ball")  # a ball's centre is one vertex, not a ring
    marks = np.array([r0, *config.conforming_radii(), R])
    counts = _allocate_intervals(marks, n)
    spans = [np.linspace(a, b, k + 1)[1:] for a, b, k in zip(marks, marks[1:], counts)]
    rings = np.concatenate([[r0], *spans])[fan:]

    theta = 2 * np.pi * np.arange(m) / m
    circle = np.column_stack([np.cos(theta), np.sin(theta)])

    V = np.vstack([np.zeros((fan, 2)), *(r * circle for r in rings)])
    # vertex id of ring i at sector j; the ball's centre stands in for ring 0
    ids = np.vstack([np.zeros((fan, m), np.int64), np.arange(fan, len(V)).reshape(-1, m)])

    band, j = np.divmod(np.arange(n * m), m)
    inner, outer = ids[band, j], ids[band + 1, j]
    inner2, outer2 = ids[band, (j + 1) % m], ids[band + 1, (j + 1) % m]
    quad = band >= fan  # a ball's band 0 is the centre fan, one triangle per sector
    T = np.empty((m * (2 * n - fan), 3), dtype=np.int64)
    T[_triangle_index(m, fan, band, j, 0)] = np.column_stack([inner, outer, outer2])
    T[_triangle_index(m, fan, band, j, 1)[quad]] = np.column_stack([inner, outer2, inner2])[quad]

    loops = (ids[-1],) if fan else (ids[-1], ids[0])  # tagged 0 = outer, 1 = inner
    bedges = np.vstack([np.column_stack([ring, np.roll(ring, -1)]) for ring in loops])
    etags = np.repeat(np.arange(len(loops)), m)

    tags = tag_triangles(V, T, config)
    return Mesh(
        vertices=V,
        triangles=T,
        tri_tags=tags,
        boundary_edges=bedges,
        edge_tags=etags,
        sectors=m,
    )


def tag_triangles(vertices: np.ndarray, triangles: np.ndarray, config) -> np.ndarray:
    """Region tag per triangle, decided at the centroid."""
    cents = vertices[triangles].mean(axis=1)
    return config.region_index_at(cents)


def _tri_geometry(vertices: np.ndarray, triangles: np.ndarray):
    """Edge coefficients b, c and areas of all triangles; raises on inverted cells."""
    p = vertices[triangles]
    x, y = p[:, :, 0], p[:, :, 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = 0.5 * (x[:, 0] * b[:, 0] + x[:, 1] * b[:, 1] + x[:, 2] * b[:, 2])
    if not (area > 0).all():
        raise ValueError("mesh contains an inverted or degenerate triangle")
    return b, c, area


@dataclass
class FemSystem:
    """Assembled operators: full (uneliminated) stiffness and mass, plus the load.

    The homogeneous boundary condition is applied by *index partitioning*
    (`free` vs `boundary`), never by rewriting rows, so the full operator
    stays available for variational flux recovery.  Every solver works on
    the free blocks `Kff` and `Mff`, sliced once on first use and kept in
    CSC, the format SuperLU factors.
    """

    mesh: Mesh
    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    load: np.ndarray
    g_vertex: np.ndarray  # nodal source values, also the default initial heat
    sigma_e: np.ndarray  # per-element conductivity
    areas: np.ndarray
    free: np.ndarray
    boundary: np.ndarray

    @property
    def domain_area(self) -> float:
        return float(self.areas.sum())

    @cached_property
    def Kff(self) -> sp.csc_matrix:
        return self.stiffness[self.free][:, self.free].tocsc()

    @cached_property
    def Mff(self) -> sp.csc_matrix:
        return self.mass[self.free][:, self.free].tocsc()

    def mass_norm(self, u_free: np.ndarray) -> float:
        return float(np.sqrt(u_free @ (self.Mff @ u_free)))


def assemble_system(mesh: Mesh, sigma_by_tag, source) -> FemSystem:
    """Assemble stiffness, mass, and load for one conductivity layout.

    ``sigma_by_tag`` maps element tags to conductivities (index 0 = shell).
    ``source`` may be a scalar, a per-vertex array, or a callable on (nv, 2)
    coordinates; the load uses the vertex quadrature rule (area/3 per corner).
    """
    table = np.asarray(sigma_by_tag, float)
    tags = mesh.tri_tags
    if (tags < 0).any() or (tags >= len(table)).any():
        raise ValueError("untagged or out-of-range element tag; cannot assign conductivity")
    if not (table > 0).all() or not np.isfinite(table).all():
        raise ValueError("conductivities must be positive and finite")
    sigma_e = table[tags]

    V, T = mesh.vertices, mesh.triangles
    b, c, area = mesh.geometry
    Ke = (
        (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])
        / (4 * area)[:, None, None]
        * sigma_e[:, None, None]
    )
    ii = np.repeat(T, 3, axis=1).reshape(-1)
    jj = np.tile(T, (1, 3)).reshape(-1)
    nv = len(V)
    K = sp.coo_matrix((Ke.reshape(-1), (ii, jj)), shape=(nv, nv)).tocsr()
    Me = (area[:, None, None] / 12.0) * (np.ones((3, 3)) + np.eye(3))
    M = sp.coo_matrix((Me.reshape(-1), (ii, jj)), shape=(nv, nv)).tocsr()

    if callable(source):
        gv = np.asarray(source(V), float)
    elif np.ndim(source) == 0:
        gv = np.full(nv, float(source))
    else:
        gv = np.asarray(source, float)
        if gv.shape != (nv,):
            raise ValueError("per-vertex source has the wrong length")
    F = np.zeros(nv)
    np.add.at(F, T.reshape(-1), np.repeat(area / 3.0, 3) * gv[T].reshape(-1))

    bn = mesh.boundary_vertices()
    free = np.setdiff1d(np.arange(nv), bn)
    return FemSystem(
        mesh=mesh,
        stiffness=K,
        mass=M,
        load=F,
        g_vertex=gv,
        sigma_e=sigma_e,
        areas=area,
        free=free,
        boundary=bn,
    )


@dataclass(frozen=True)
class EllipticSolution:
    u: np.ndarray  # full vector, zero on the boundary
    iterations: int
    rel_residual: float  # Galerkin residual on the free block, relative to the load


def _pcg(K: sp.csr_matrix, F: np.ndarray, tol: float, maxit: int):
    """Jacobi-preconditioned CG from a zero start; deterministic by construction."""
    d = K.diagonal()
    x = np.zeros_like(F)
    r = F.copy()
    z = r / d
    p = z.copy()
    rz = r @ z
    f0 = np.linalg.norm(F)
    if f0 == 0.0:
        return x, 0
    for it in range(1, maxit + 1):
        Kp = K @ p
        alpha = rz / (p @ Kp)
        x += alpha * p
        r -= alpha * Kp
        if np.linalg.norm(r) <= tol * f0:
            return x, it
        z = r / d
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise RuntimeError(
        f"conjugate gradient did not converge in {maxit} iterations "
        f"(relative residual {np.linalg.norm(r) / f0:.3e})"
    )


def solve_elliptic(system: FemSystem, tol: float = 1e-10, maxit: int = 50000) -> EllipticSolution:
    free = system.free
    K = system.Kff.T  # Kff is exactly symmetric: this is Kff in CSR, whose matvec is faster
    Ff = system.load[free]
    uf, its = _pcg(K, Ff, tol, maxit)
    res = float(np.linalg.norm(K @ uf - Ff) / max(np.linalg.norm(Ff), 1e-300))
    u = np.zeros(system.mesh.nv)
    u[free] = uf
    return EllipticSolution(u=u, iterations=its, rel_residual=res)


@dataclass(frozen=True)
class BoundaryFlux:
    """Variationally recovered outward co-normal flux at boundary vertices.

    ``values[j]`` approximates sigma * du/dnu at ``vertex_ids[j]`` with the
    outward normal; ``weights`` are the half-sums of adjacent boundary edge
    lengths (the mass of each boundary hat function on the boundary), and
    ``component`` is the boundary loop tag of each vertex.  ``total`` is the
    weighted sum; by construction it equals minus the assembled load total up
    to the linear-solver tolerance.
    """

    vertex_ids: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    component: np.ndarray
    total: float

    @property
    def weighted_mean(self) -> float:
        return self.total / float(self.weights.sum())

    def component_mean(self, tag: int) -> float:
        m = self.component == tag
        return float((self.weights[m] * self.values[m]).sum() / self.weights[m].sum())


def recover_boundary_flux(system: FemSystem, u: np.ndarray) -> BoundaryFlux:
    """Flux through the boundary from the residual of the full operator.

    Testing the discrete equation with boundary hat functions gives
    ``(K u - F)_j = integral of the outward co-normal flux against hat j``,
    so dividing by each hat's boundary mass yields a nodal flux density.
    Summing the raw residuals instead gives the exact discrete divergence
    identity (stiffness rows sum to zero), which is what `total` records.
    """
    res = system.stiffness @ u - system.load
    mesh = system.mesh
    w = np.zeros(mesh.nv)
    be = mesh.boundary_edges
    el = np.linalg.norm(mesh.vertices[be[:, 0]] - mesh.vertices[be[:, 1]], axis=1)
    np.add.at(w, be[:, 0], el / 2)
    np.add.at(w, be[:, 1], el / 2)

    vtag = np.zeros(mesh.nv, dtype=np.int64)
    vtag[be[:, 0]] = mesh.edge_tags
    vtag[be[:, 1]] = mesh.edge_tags

    bn = system.boundary
    return BoundaryFlux(
        vertex_ids=bn,
        values=res[bn] / w[bn],
        weights=w[bn],
        component=vtag[bn],
        total=float(res[bn].sum()),
    )


# -- point location and circle sampling -------------------------------------


_CONTAIN_TOL = 1e-10  # barycentric slack: a point on an edge belongs to either side


def _ring_radii(mesh: Mesh) -> np.ndarray:
    """Ring radii, innermost first, with 0 for a ball's centre.

    Vertex 0 of every ring sits at angle 0, and the rings start after a ball's
    one centre vertex, at vertex nv % m, and repeat every m = ``mesh.sectors``.
    """
    first = mesh.nv % mesh.sectors
    return np.concatenate([np.zeros(first), mesh.vertices[first :: mesh.sectors, 0]])


def locate_points(mesh: Mesh, points: np.ndarray):
    """Containing triangles and barycentric coordinates, in closed form on the polar mesh.

    The angle gives the sector.  Every point of ring i's chord projects onto
    the sector bisector at r_i cos(pi/m), so a sorted search gives the band,
    and one side test against the quad diagonal gives the triangle.  The
    barycentric test alone rejects points outside the mesh (or in a hole).
    """
    m = mesh.sectors
    pts = np.atleast_2d(np.asarray(points, float))
    x, y = pts[:, 0], pts[:, 1]
    fan = mesh.nv % m  # a ball's one centre vertex
    radii = _ring_radii(mesh)
    sector = np.floor(np.arctan2(y, x) * (m / (2 * np.pi))).astype(np.int64) % m
    bisector = (sector + 0.5) * (2 * np.pi / m)
    proj = x * np.cos(bisector) + y * np.sin(bisector)
    band = np.clip(np.searchsorted(radii * np.cos(np.pi / m), proj) - 1, 0, len(radii) - 2)

    # side 0 is (inner j, outer j, outer j+1): its corners 0 and 2 span the diagonal
    diag = mesh.vertices[mesh.triangles[_triangle_index(m, fan, band, sector, 0)]]
    d, q = diag[:, 2] - diag[:, 0], pts - diag[:, 0]
    side = (d[:, 0] * q[:, 1] - d[:, 1] * q[:, 0] > 0).astype(np.int64)
    tri_idx = _triangle_index(m, fan, band, sector, side)

    P = mesh.vertices[mesh.triangles[tri_idx]]
    A = np.stack([P[:, 1] - P[:, 0], P[:, 2] - P[:, 0]], axis=2)
    ab = np.linalg.solve(A, (pts - P[:, 0])[:, :, None])[:, :, 0]
    inside = (ab >= -_CONTAIN_TOL).all(axis=1) & (ab.sum(axis=1) <= 1 + _CONTAIN_TOL)
    if not inside.all():
        raise ValueError(f"point {pts[np.argmin(inside)]} is not inside the mesh")
    return tri_idx, np.column_stack([1 - ab.sum(axis=1), ab])


class CircleSampler:
    """Repeated sampling of fields and radial fluxes on one probe circle.

    The sample count defaults to the mesh's sector count with a half-sector
    angular offset, so samples sit identically relative to the mesh pattern
    in every sector: discrete rotational symmetry of the layout then shows
    up as floating-point-level agreement across samples.
    """

    def __init__(self, mesh: Mesh, radius: float, count: int | None = None):
        self.radius = float(radius)
        self.count = int(mesh.sectors if count is None else count)
        th = 2 * np.pi * (np.arange(self.count) + 0.5) / self.count
        pts = radius * np.column_stack([np.cos(th), np.sin(th)])
        self.tri_idx, self.bary = locate_points(mesh, pts)
        self.corners = mesh.triangles[self.tri_idx]
        b, c, area = (a[self.tri_idx] for a in mesh.geometry)
        self.grad_x = b / (2 * area)[:, None]
        self.grad_y = c / (2 * area)[:, None]
        self.radial = np.column_stack([np.cos(th), np.sin(th)])
        self.angles = th

    def values(self, u: np.ndarray) -> np.ndarray:
        return (u[self.corners] * self.bary).sum(axis=1)

    def radial_flux(self, u: np.ndarray, sigma_e: np.ndarray | None = None) -> np.ndarray:
        gx = (u[self.corners] * self.grad_x).sum(axis=1)
        gy = (u[self.corners] * self.grad_y).sum(axis=1)
        flux = gx * self.radial[:, 0] + gy * self.radial[:, 1]
        if sigma_e is not None:
            flux = flux * sigma_e[self.tri_idx]
        return flux


def l2_error_to_radial(mesh: Mesh, u: np.ndarray, profile) -> float:
    """L2 distance between a nodal field and a radial reference profile.

    Uses the three-edge-midpoint rule, which integrates the squared error of
    piecewise-linear data exactly and is second-order for the smooth part.
    """
    T = mesh.triangles
    i, j = T[:, [1, 0, 0]], T[:, [2, 2, 1]]  # the ends of the edge opposite each corner
    r_mid = np.linalg.norm((mesh.vertices[i] + mesh.vertices[j]) / 2, axis=2)
    um = (u[i] + u[j]) / 2
    ref = profile(np.clip(r_mid, profile.r0, profile.R))
    _, _, area = mesh.geometry
    return float(np.sqrt((area[:, None] / 3 * (um - ref) ** 2).sum()))


# -- plain-text mesh output --------------------------------------------------


def write_mesh(path, mesh: Mesh) -> None:
    """ASCII dump: header counts, vertex lines, triangle lines, boundary lines."""
    with open(path, "w") as fh:
        fh.write(f"{mesh.nv} {mesh.nt} {len(mesh.boundary_edges)}\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        for (i, j, k), tag in zip(mesh.triangles, mesh.tri_tags):
            fh.write(f"{i} {j} {k} {tag}\n")
        for (i, j), tag in zip(mesh.boundary_edges, mesh.edge_tags):
            fh.write(f"{i} {j} {tag}\n")

