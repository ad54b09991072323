"""Linear triangular finite elements on structured polar meshes.

Meshes are rings of 6n sectors whose radii conform exactly to every
concentric material interface, so layered conductivities are resolved
without interface error and the mesh inherits the full discrete rotation
group of the layout.  Every ring is one unit circle, built from its first
quadrant, scaled: it is bitwise mirror-exact across both axes.  Displaced
inclusions are captured by per-element tagging at centroids instead.

Assembly is the classical piecewise-linear setup: element stiffness from
edge coefficients (one weight per triangle times two outer products), exact
3x3 mass blocks, vertex-rule load.  It needs a polar mesh: a band block of
triangles at a time, the element blocks are summed straight into the mesh's
seven-slot coupling pattern (ring q, sector j to rings q-1..q+1 at sectors
j-1..j+1), which compresses to CSR with no sort and no merge, and its
temporaries do not grow with the mesh.  Each derived fact has one
owner that builds it on first use: the mesh its element geometry, the
assembled system its mass matrix (only the heat flow reads it) and its
Dirichlet-free blocks, which are one index range on a polar mesh.  Setup
stages read the ring x sector layout too: geometry and centroids are column
gathers, and the L2 distance to a radial profile evaluates the profile
once per rotation orbit.  The linear solve is a hand-rolled
conjugate gradient with a deterministic zero start, preconditioned by an
exact solve with the stiffness whose conductivity is averaged over each
rotation orbit: an FFT in angle and one LAPACK solve over every mode's
tridiagonal radial system, so the iteration count does not grow with n and
a concentric layout converges in one step.  The same angular-Fourier
coefficients (`_AngularModes`) carry the heat flow's state on layouts whose
sigma is constant on every rotation orbit.  Boundary fluxes are recovered
variationally from the residual of the full (uneliminated) operator, which
makes the discrete divergence identity hold to solver precision.  Inner
products and norms of mesh-sized vectors are summed by numpy's own loop
(`_dot`), never by BLAS, so no result depends on the BLAS thread count.

Point location is closed-form on the generated layout: sector, band, one
side test.  Values on a circle at the vertex angles need no location: they
blend the two rings around the circle.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import zpttrf, zpttrs

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


def _orbits(mesh: Mesh) -> np.ndarray:
    """Triangle numbers indexed (band, sector, side); each (band, side) is one rotation orbit.

    The ball's centre fan has no side 1; its side-1 entries repeat side 0.
    """
    m = mesh.sectors
    bands = np.arange(m // 6)[:, None, None]
    return _triangle_index(m, mesh.nv % m, bands, np.arange(m)[:, None], np.arange(2))


def generate_mesh(config, n: int) -> Mesh:
    """Structured polar mesh of the layout with 6n sectors and n radial intervals.

    Ring radii conform to every concentric interface of the configuration;
    interfaces of displaced inclusions are *not* meshed and rely on centroid
    tagging.  Counts: a ball gives 1 + n*6n vertices and 6n*(2n - 1)
    triangles; an annulus gives (n + 1)*6n and 2n*6n.  Every ring scales
    `_unit_circle`, so its vertices are bitwise mirror images across both
    axes and the points on the axes are exact; for even n the ring is also
    mirror-exact across the diagonals and has 6n/4 + 1 distinct coordinate
    magnitudes.
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

    circle = _unit_circle(m)
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


def _unit_circle(m: int) -> np.ndarray:
    """The m points (cos, sin)(2 pi j / m), j < m, as (m, 2), for even m.

    The first quadrant is computed once: cos and sin directly up to pi/4 and
    swapped beyond, with both set to cos(pi/4) on the diagonal.  The other
    quadrants mirror it across both axes, so the circle is bitwise
    mirror-exact, the points on the axes are exact, and its zeros are +0.0.
    """
    j = np.arange(m // 4 + 1)  # 0 <= angle <= pi/2
    near = np.minimum(4 * j, m - 4 * j)  # angle to the nearer axis, in units of pi/(2m)
    c, s = np.cos(np.pi * near / (2 * m)), np.sin(np.pi * near / (2 * m))
    s[8 * j == m] = c[8 * j == m]
    past = 8 * j > m  # past the diagonal: the angle was taken from the y-axis
    c[past], s[past] = s[past], c[past]
    left = m // 2 - m // 4  # the second quadrant's angles, below pi, mirror the first's
    x = np.concatenate([c, -c[:left][::-1]])  # angles 0 .. pi
    y = np.concatenate([s, s[:left][::-1]])
    return np.column_stack([np.concatenate([x, x[-2:0:-1]]), np.concatenate([y, -y[-2:0:-1]])])


def tag_triangles(vertices: np.ndarray, triangles: np.ndarray, config) -> np.ndarray:
    """Region tag per triangle, decided at the centroid."""
    return config.region_index_at(_centroids(vertices, triangles))


def _centroids(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """(nt, 2) centroids by column gathers, bitwise ``vertices[triangles].mean(axis=1)``."""
    cents = vertices[triangles[:, 0]]
    cents += vertices[triangles[:, 1]]
    cents += vertices[triangles[:, 2]]
    cents /= 3
    return cents


def _tri_geometry(vertices: np.ndarray, triangles: np.ndarray):
    """Edge coefficients b, c and areas of all triangles; raises on inverted cells.

    Each corner coordinate is one column gather: the same arithmetic as
    gathering ``vertices[triangles]`` whole, without its (nt, 3, 2) temporary.
    """
    x0, x1, x2 = (vertices[triangles[:, k], 0] for k in range(3))
    y0, y1, y2 = (vertices[triangles[:, k], 1] for k in range(3))
    b = np.stack([y1 - y2, y2 - y0, y0 - y1], axis=1)
    c = np.stack([x2 - x1, x0 - x2, x1 - x0], axis=1)
    area = 0.5 * (x0 * b[:, 0] + x1 * b[:, 1] + x2 * b[:, 2])
    if not (area > 0).all():
        raise ValueError("mesh contains an inverted or degenerate triangle")
    return b, c, area


def _element_stiffness(b, c, area, sigma) -> np.ndarray:
    """P1 element stiffness blocks sigma / (4 area) (b b^T + c c^T), shape (..., 3, 3).

    One weight per triangle scales the sum of two outer products; each
    block is exactly symmetric.
    """
    K = np.einsum("...i,...j->...ij", b, b)
    K += np.einsum("...i,...j->...ij", c, c)
    K *= (sigma / (4 * area))[..., None, None]
    return K


def _element_mass(area) -> np.ndarray:
    """Exact P1 element mass blocks area (1 + I) / 12, shape (..., 3, 3)."""
    return (area / 12.0)[..., None, None] * (np.ones((3, 3)) + np.eye(3))


@dataclass
class FemSystem:
    """Assembled operators: the full (uneliminated) stiffness and the load.

    The homogeneous boundary condition is applied by *index partitioning*
    (`free` vs `boundary`), never by rewriting rows, so the full operator
    stays available for variational flux recovery.  The full mass matrix is
    assembled on first use, so an elliptic run never builds it.  Every solver
    works on the free blocks `Kff` and `Mff`, sliced once on first use and
    kept in CSC, the format SuperLU factors.
    """

    mesh: Mesh
    stiffness: sp.csr_matrix
    load: np.ndarray
    g_vertex: np.ndarray  # nodal source values, also the default initial heat
    sigma_e: np.ndarray  # per-element conductivity
    free: np.ndarray
    boundary: np.ndarray

    @cached_property
    def mass(self) -> sp.csr_matrix:
        area = self.mesh.geometry[2]
        return _assemble(self.mesh, lambda blk: _element_mass(area[blk]))

    @cached_property
    def Kff(self) -> sp.csc_matrix:
        return self._free_block(self.stiffness)

    @cached_property
    def Mff(self) -> sp.csc_matrix:
        return self._free_block(self.mass)

    def _free_block(self, A: sp.csr_matrix) -> sp.csc_matrix:
        # the free vertices of a polar mesh are one range: a ball's before its
        # outer ring, an annulus's between its two rings; A is exactly
        # symmetric, so the transposed view of the CSR slice is its CSC form
        lo, hi = self.free[0], self.free[-1] + 1
        return A[lo:hi, lo:hi].T

    @cached_property
    def rotation_invariant(self) -> bool:
        """Is sigma constant on every rotation orbit of the polar mesh, so that K̄ is Kff?"""
        sigma = self.sigma_e[_orbits(self.mesh)]
        return bool((sigma == sigma[:, :1]).all())

    def mass_norm(self, u_free: np.ndarray) -> float:
        return math.sqrt(_dot(u_free, self.Mff @ u_free))


_BLOCK_TRIANGLES = 16384  # triangles per assembly block, at most
_TOO_SMALL = "the load is too small to solve in double precision"

# The seven couplings of the vertex of ring q, sector j, as (ring, sector)
# offsets in column order: (q-1, j-1) ... (q+1, j+1).
_SLOTS = ((-1, -1), (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, 1))
# The corners of a band's two sides as (ring, sector) offsets from its inner
# ring at sector j: side 0 is (inner j, outer j, outer j+1), side 1 is
# (inner j, outer j+1, inner j+1); a ball's centre fan has side 0 only.
_SIDES = (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1)))
# Slot orders that sort the columns of sectors 0 and m-1, where j-1 or j+1 wraps.
_WRAPPED = ((0, (1, 0, 3, 4, 2, 5, 6)), (-1, (0, 1, 4, 2, 3, 6, 5)))


def _add_bands(A: np.ndarray, E: np.ndarray) -> None:
    """Add the element blocks E (bands, m, sides, 3, 3) of consecutive bands into A.

    A's first axis holds the bands' rings, innermost first, so it is one
    longer than E's; ``A[q, j, k]`` is the coupling of ring q, sector j along
    slot k.  Entry (a, c) of side s at sector j lands in the row of corner a,
    one sector further on where that corner sits at j+1.
    """
    bands = len(E)
    for s in range(E.shape[2]):
        for a, (ra, ja) in enumerate(_SIDES[s]):
            for c, (rc, jc) in enumerate(_SIDES[s]):
                dst = A[ra : ra + bands, :, _SLOTS.index((rc - ra, jc - ja))]
                src = E[:, :, s, a, c]
                if ja:  # shifted adds along the sectors, wrapping at sector 0
                    dst[:, 1:] += src[:, :-1]
                    dst[:, 0] += src[:, -1]
                else:
                    dst += src


def _assemble(mesh: Mesh, element_blocks) -> sp.csr_matrix:
    """Sum ``element_blocks(blk)``, the (len, 3, 3) blocks of triangles ``blk``, into CSR.

    On the polar mesh the vertex of ring q, sector j couples to at most seven
    vertices (`_SLOTS`), and a ball's centre to itself and the first ring.
    Element blocks are summed a band block of at most `_BLOCK_TRIANGLES`
    triangles at a time, by shifted adds along the sectors, into one
    ``(rings, m, 7)`` value array, a ball's centre standing in as ring 0.
    Reordering the slots of sectors 0 and m-1 sorts every row, so the values
    compress straight into canonical CSR with int32 indices: no COO, no sort
    and no merge.  Entries that cancel to exactly 0 are dropped.
    """
    m = mesh.sectors
    fan, n = mesh.nv % m, m // 6
    A = np.zeros((n + 1, m, 7))
    if fan:
        _add_bands(A[:2], element_blocks(slice(0, m)).reshape(1, m, 1, 3, 3))
    step = max(1, _BLOCK_TRIANGLES // (2 * m))  # whole bands per block
    for lo in range(fan, n, step):
        hi = min(lo + step, n)
        blk = slice((2 * lo - fan) * m, (2 * hi - fan) * m)
        _add_bands(A[lo : hi + 1], element_blocks(blk).reshape(hi - lo, m, 2, 3, 3))

    dq, dj = (np.array(d, np.int32) for d in zip(*_SLOTS))
    q = np.arange(n + 1 - fan, dtype=np.int32)[:, None, None]
    j = np.arange(m, dtype=np.int32)[:, None]
    cols = fan + (q + dq) * m + (j + dj) % m
    rows = A[fan:]
    head_vals, head_cols = np.empty(0), np.empty(0, np.int32)  # a ball's centre row
    if fan:  # ring 1 reaches the centre along both inner slots
        rows[0, :, 1] += rows[0, :, 0]
        rows[0, :, 0] = 0.0
        cols[0, :, 1] = 0
        centre = A[0]  # the fan's inner rows: the centre's couplings, sector by sector
        # its diagonal summed a sector at a time, in order, as every other entry is
        diagonal = np.cumsum(centre[:, 3])[-1]
        head_vals = np.concatenate([[diagonal], centre[:, 5] + np.roll(centre[:, 6], 1)])
        head_cols = np.flatnonzero(head_vals).astype(np.int32)
        head_vals = head_vals[head_cols]
    for sector, order in _WRAPPED:
        rows[:, sector] = rows[:, sector, order]
        cols[:, sector] = cols[:, sector, order]
    keep = rows != 0.0
    indptr = np.zeros(mesh.nv + 1, np.int32)
    indptr[fan] = len(head_vals)
    np.cumsum(keep.sum(axis=2).reshape(-1), out=indptr[fan + 1 :])
    indptr[fan + 1 :] += len(head_vals)
    data = np.concatenate([head_vals, rows[keep]])
    indices = np.concatenate([head_cols, cols[keep]])
    return sp.csr_matrix((data, indices, indptr), shape=(mesh.nv, mesh.nv))


def assemble_system(mesh: Mesh, sigma_by_tag, source) -> FemSystem:
    """Assemble the stiffness and the load for one conductivity layout.

    K is summed into the polar mesh's seven-slot CSR pattern a band block at
    a time by `_assemble`; the mass matrix M is assembled the same way on
    first use of `FemSystem.mass`.  The mesh must be a polar mesh from
    `generate_mesh`: a mesh without sectors raises ``ValueError``.

    ``sigma_by_tag`` maps element tags to conductivities (index 0 = shell).
    ``source`` may be a scalar, a per-vertex array, or a callable on (nv, 2)
    coordinates; the load uses the vertex quadrature rule (area/3 per corner).
    """
    if not mesh.sectors:
        raise ValueError("assembly needs a polar mesh from generate_mesh (sectors > 0)")
    table = np.asarray(sigma_by_tag, float)
    tags = mesh.tri_tags
    if (tags < 0).any() or (tags >= len(table)).any():
        raise ValueError("untagged or out-of-range element tag; cannot assign conductivity")
    if not (table > 0).all() or not np.isfinite(table).all():
        raise ValueError("conductivities must be positive and finite")
    sigma_e = table[tags]

    V, T = mesh.vertices, mesh.triangles
    b, c, area = mesh.geometry
    nv = len(V)
    K = _assemble(mesh, lambda blk: _element_stiffness(b[blk], c[blk], area[blk], sigma_e[blk]))

    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
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
    if not np.isfinite(gv).all():
        raise ValueError("the source must be finite at every mesh vertex")
    if not np.isfinite(F).all():
        raise ValueError("the assembled load must be finite")
    if gv.any() and not F.any():  # every vertex's area/3 times its source underflowed
        raise ValueError(_TOO_SMALL)

    bn = mesh.boundary_vertices()
    keep = np.ones(nv, dtype=bool)
    keep[bn] = False
    return FemSystem(
        mesh=mesh,
        stiffness=K,
        load=F,
        g_vertex=gv,
        sigma_e=sigma_e,
        free=np.flatnonzero(keep),
        boundary=bn,
    )


@dataclass(frozen=True)
class EllipticSolution:
    u: np.ndarray  # full vector, zero on the boundary
    iterations: int
    rel_residual: float  # Galerkin residual on the free block, relative to the load


class _AngularModes:
    """Mode-major angular Fourier coefficients of free nodal vectors on a polar mesh.

    A rotation by one sector maps the polar mesh onto itself, so an operator
    summed from element matrices that are constant on every rotation orbit
    is block-circulant in angle: ring r couples only to rings r-1, r, r+1,
    at angular offsets 0 and ±1.  An rfft along every free ring splits it
    into one Hermitian tridiagonal radial system per mode (Swarztrauber,
    SIAM Review 19, 1977).  The coefficients are stored mode by mode, each
    mode's rings innermost first, so the modes' systems lie end to end in
    one tridiagonal chain with zero couplings between them, and one LAPACK
    ``zpttrf`` or ``zpttrs`` call factors or solves them all.  A ball's
    centre couples only to mode 0 of ring 1, so it heads mode 0's stretch,
    scaled by sqrt(m) to keep the chain Hermitian.  ``weights`` give the
    mass-norm by Parseval: ``x^T M y`` is ``Re(sum(weights * conj(X) * MY))``.
    """

    def __init__(self, mesh: Mesh):
        m = self.m = mesh.sectors
        fan = self.fan = mesh.nv % m  # a ball's one centre vertex
        n = m // 6
        self.rings, self.modes = n - 1, m // 2 + 1
        self.root_m = np.sqrt(m)
        # the ball's centre fan has no side 1: its (band, side) blocks are masked out
        self._present = np.arange(n)[:, None] >= fan * np.arange(2)
        V = mesh.triangles[_orbits(mesh)[:, 0]]  # the (band, side) elements of sector 0
        self._ring = (V - fan) // m + fan
        sector = np.where(V < fan, 0, (V - fan) % m)
        self._offset = sector[..., None, :] - sector[..., :, None] + 1
        # symbol of each rfft mode k: sum over offsets d of stencil * exp(2 pi i k d / m);
        # the phases are kept as interleaved real and imaginary parts, so a real sum forms it
        phase = np.exp(2j * np.pi * np.outer([-1, 0, 1], np.arange(self.modes)) / m)
        self._phase = phase.view(float)
        w = np.full((self.modes, self.rings), 2.0 / m)
        w[[0, -1]] = 1.0 / m  # modes 0 and m/2 appear once in the full spectrum
        self.weights = np.concatenate([np.full(fan, 1.0 / m), w.reshape(-1)])

    def symbol(self, blocks: np.ndarray):
        """The chain ``(diagonal, subdiagonal)`` of the operator that sums every
        rotated copy of ``blocks``, the (n, 2, 3, 3) element matrices of sector 0."""
        n, fan = self.rings + 1, self.fan
        # stencil[row ring, column ring, angular offset + 1]: each rotated copy of a
        # sector-0 element adds the same entries one sector further on
        S = np.zeros((n + 1, n + 1, 3))
        where = (self._ring[..., :, None], self._ring[..., None, :], self._offset)
        np.add.at(S, where, blocks * self._present[..., None, None])
        rings = np.arange(1, n)  # the free rings

        def by_mode(stencil):  # (rings, 3) -> (modes, rings); einsum, since @ would call BLAS
            return np.einsum("rd,dk->rk", stencil, self._phase).view(complex).T

        diag = by_mode(S[rings, rings]).real
        sub = np.zeros((self.modes, self.rings), complex)
        sub[:, :-1] = by_mode(S[rings[1:], rings[:-1]])
        # a ball's centre row: its diagonal summed over the m fan elements, and
        # its coupling to every ring-1 vertex, seen by mode 0 as m times one vertex
        centre_d, centre_e = [self.m * S[0, 0].sum()], [self.root_m * S[0, 1].sum()]
        return (
            np.concatenate([centre_d[:fan], diag.reshape(-1)]),
            np.concatenate([centre_e[:fan], sub.reshape(-1)[:-1]]),
        )

    @staticmethod
    def factor(d: np.ndarray, e: np.ndarray):
        """The exact solve by the positive definite chain ``(d, e)``."""
        df, ef, info = zpttrf(d, e)
        if info != 0:
            raise ValueError("the angular-mode system is not positive definite")
        return lambda X: zpttrs(df, ef, X, lower=1)[0]

    def forward(self, v: np.ndarray) -> np.ndarray:
        """Coefficients of the free nodal vector ``v``."""
        fan = self.fan
        X = np.empty(fan + self.modes * self.rings, complex)
        X[:fan] = self.root_m * v[:fan]
        rings = v[fan:].reshape(self.rings, self.m).T  # (sector, ring)
        np.fft.rfft(rings, axis=0, out=X[fan:].reshape(self.modes, self.rings))
        return X

    def inverse(self, X: np.ndarray) -> np.ndarray:
        """Nodal values of coefficients ``X``, shape (..., fan + modes * rings).

        The last axis holds the centre, if any, then mode-major coefficients
        of every free ring or of a subset of rings, innermost first; the
        nodal values follow in the same order, a ring at a time.
        """
        fan, lead = self.fan, X.shape[:-1]
        Y = X[..., fan:].reshape(*lead, self.modes, -1).swapaxes(-1, -2)  # (..., ring, mode)
        v = np.empty(lead + (fan + Y.shape[-2] * self.m,))
        v[..., :fan] = X[..., :fan].real / self.root_m
        np.fft.irfft(Y, n=self.m, axis=-1, out=v[..., fan:].reshape(*Y.shape[:-1], self.m))
        return v


def _sector_blocks(system: FemSystem) -> tuple[np.ndarray, np.ndarray]:
    """Sector 0's mass and orbit-mean stiffness element matrices, (n, 2, 3, 3) each.

    The stiffness weights each (band, side) block with sigma averaged over
    the block's rotation orbit; on a rotation-invariant layout that is sigma.
    """
    orbits = _orbits(system.mesh)
    b, c, area = (a[orbits[:, 0]] for a in system.mesh.geometry)
    sigma_bar = system.sigma_e[orbits].mean(axis=1)
    return _element_mass(area), _element_stiffness(b, c, area, sigma_bar)


def _orbit_mean_solver(system: FemSystem):
    """Exact solve by K̄, the free stiffness with sigma averaged over each rotation orbit.

    K̄ sums rotated copies of sector 0's elements, so it is block-circulant
    in angle and solves mode by mode in `_AngularModes`' coefficients, with
    one LAPACK call over every mode's radial tridiagonal.  K and K̄ sum the
    same element matrices with weights sigma and its orbit mean, so the
    preconditioned condition number is at most (max sigma / min sigma)^2 at
    any n; on a rotation-invariant layout K̄ is K, the solve is exact and CG
    stops after one iteration.
    """
    modes = _AngularModes(system.mesh)
    solve = modes.factor(*modes.symbol(_sector_blocks(system)[1]))
    return lambda r: modes.inverse(solve(modes.forward(r)))


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two vectors, summed by numpy's own loop.

    ``a @ b`` and ``np.linalg.norm`` call BLAS, whose threaded ``ddot`` splits
    a long vector into one partial sum per thread, so its last bits depend on
    the thread count.  This sum does not, and it wakes no thread.
    """
    return float(np.einsum("i,i->", a, b))


def _norm(a: np.ndarray) -> float:
    """2-norm of a vector by `_dot`."""
    return math.sqrt(_dot(a, a))


def _pcg(K: sp.csr_matrix, F: np.ndarray, tol: float, maxit: int, precond):
    """CG from a zero start, preconditioned by ``precond(r)``; deterministic by construction."""
    x = np.zeros_like(F)
    if not F.any():
        return x, 0
    r = F.copy()
    z = precond(r)
    p = z.copy()
    with np.errstate(over="ignore"):  # the check below reports the overflow
        rz = _dot(r, z)
    if not np.isfinite(rz):
        raise ValueError("the load is too large to solve in double precision")
    if rz < np.finfo(float).tiny:
        raise ValueError(_TOO_SMALL)
    # the stop test compares norms scaled by an exact power of two that takes
    # the load near one, so a residual norm cannot underflow to zero; the
    # exponent stops where the power would overflow
    scale = 2.0 ** -max(int(np.frexp(np.abs(F).max())[1]), -1023)
    f0 = _norm(scale * F)
    for it in range(1, maxit + 1):
        Kp = K @ p
        pKp = _dot(p, Kp)
        if not pKp > 0.0:  # K is positive definite: only underflow or NaN gets here
            raise ValueError(_TOO_SMALL)
        alpha = rz / pKp
        x += alpha * p
        r -= alpha * Kp
        if _norm(scale * r) <= tol * f0:
            return x, it
        z = precond(r)
        rz_new = _dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise RuntimeError(
        f"conjugate gradient did not converge in {maxit} iterations "
        f"(relative residual {_norm(scale * r) / f0:.3e})"
    )


def solve_elliptic(system: FemSystem, tol: float = 1e-10, maxit: int = 50000) -> EllipticSolution:
    free = system.free
    K = system.Kff.T  # Kff is exactly symmetric: this is Kff in CSR, whose matvec is faster
    Ff = system.load[free]
    uf, its = _pcg(K, Ff, tol, maxit, _orbit_mean_solver(system))
    res = _norm(K @ uf - Ff) / max(_norm(Ff), 1e-300)
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


def _vertex_angle_values(mesh: Mesh, u: np.ndarray, radii) -> np.ndarray:
    """A nodal field on circles of the given radii at the m vertex angles 2 pi j / m.

    Every sector ray is a mesh edge, so on a circle between rings i and i+1
    the P1 field at those angles is exactly (1 - w) ring_i + w ring_{i+1},
    with w linear in the radius.  Shape (len(radii), m).
    """
    m = mesh.sectors
    rings = _ring_radii(mesh)
    r = np.atleast_1d(np.asarray(radii, float))
    if not ((r >= rings[0]) & (r <= rings[-1])).all():
        raise ValueError(f"circle radii must lie in [{rings[0]}, {rings[-1]}], the mesh's span")
    band = np.clip(np.searchsorted(rings, r) - 1, 0, len(rings) - 2)
    w = (r - rings[band]) / (rings[band + 1] - rings[band])
    first = mesh.nv % m  # a ball's centre vertex stands for its ring 0
    rows = u[first:].reshape(-1, m)

    def ring(i):
        return rows[i - first] if i >= first else np.full(m, u[0])

    return np.vstack([(1 - wi) * ring(i) + wi * ring(i + 1) for i, wi in zip(band, w)])


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

    One sample per sector, at its mid-angle 2 pi (j + 1/2) / m, so samples
    sit identically relative to the mesh pattern in every sector: discrete
    rotational symmetry of the layout then shows up as floating-point-level
    agreement across samples.
    """

    def __init__(self, mesh: Mesh, radius: float):
        self.radius = float(radius)
        self.count = mesh.sectors
        th = 2 * np.pi * (np.arange(self.count) + 0.5) / self.count
        pts = radius * np.column_stack([np.cos(th), np.sin(th)])
        self.tri_idx, self.bary = locate_points(mesh, pts)
        self.corners = mesh.triangles[self.tri_idx]
        b, c, area = (a[self.tri_idx] for a in mesh.geometry)
        self.grad_x = b / (2 * area)[:, None]
        self.grad_y = c / (2 * area)[:, None]
        self.radial = np.column_stack([np.cos(th), np.sin(th)])

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
    A rotation by whole sectors maps the polar mesh onto itself, so the
    profile is evaluated once per (band, side, edge) orbit, at sector 0's
    midpoints; the field's midpoint values and the areas stay per triangle.
    """
    m, T = mesh.sectors, mesh.triangles
    fan = mesh.nv % m  # a ball's centre fan: the first m triangles, side 0 only
    ends = ([1, 0, 0], [2, 2, 1])  # the ends of the edge opposite each corner
    V0 = mesh.vertices[T[_orbits(mesh)[:, 0]]]  # (band, side, corner, xy) of sector 0
    r_mid = np.linalg.norm((V0[:, :, ends[0]] + V0[:, :, ends[1]]) / 2, axis=-1)
    ref = profile(np.clip(r_mid, profile.r0, profile.R))  # (band, side, edge)
    err = (u[T[:, ends[0]]] + u[T[:, ends[1]]]) / 2
    err[: fan * m] -= ref[0, 0]
    quads = err[fan * m :].reshape(-1, m, 2, 3)  # a view: (band, sector, side, edge)
    quads -= ref[fan:, None]
    err **= 2
    err *= mesh.geometry[2][:, None] / 3
    return float(np.sqrt(err.sum()))


# -- plain-text mesh output --------------------------------------------------


# Rows per write block.  A block's strings and digit arrays stay far below a
# MiB, and larger blocks gain no speed: formatting the whole mesh at once
# was slower and raised the peak memory of an n=128 run by half.
_BLOCK_ROWS = 1024


def _write_rows(fh, fmt: str, columns) -> None:
    """Write ``fmt % row`` for every row of equal-length 1-D ``columns``, a block at a time.

    ``.tolist()`` yields Python floats and ints, so ``%r`` writes ``repr(float(x))``
    (the shortest round-trip form) and ``%d`` writes ``str(int(x))``.
    """
    for lo in range(0, len(columns[0]), _BLOCK_ROWS):
        block = [col[lo : lo + _BLOCK_ROWS].tolist() for col in columns]
        values = [x for row in zip(*block) for x in row]
        fh.write((fmt * len(block[0])) % tuple(values))


def _reprs(v: np.ndarray) -> np.ndarray:
    """``repr`` of every float of ``v`` as an object array, each distinct magnitude formatted once.

    Equal to ``list(map(repr, v.tolist()))``: the sign goes in front wherever
    the sign bit is set, except on NaN, which Python prints as ``nan`` whatever
    its sign.
    """
    mags, where = np.unique(np.abs(v), return_inverse=True)
    text = np.array(list(map(repr, mags.tolist())), dtype=object)[where]
    neg = np.signbit(v) & ~np.isnan(v)
    text[neg] = "-" + text[neg]
    return text


def _int_rows(columns) -> str:
    """Rows ``"%d %d ... %d\\n"`` of equal-length non-negative integer ``columns``.

    Each value's decimal digits go right-aligned into a NUL-padded byte array,
    one cell per value and a separator after it; dropping the NULs leaves
    the text.
    """
    rest = np.column_stack(columns).astype(np.uint64)  # unsigned division is the faster
    width = len(str(int(rest.max(initial=0))))
    text = np.zeros(rest.shape + (width + 1,), np.uint8)
    text[..., -1] = ord(" ")
    text[:, -1, -1] = ord("\n")
    text[..., width - 1] = ord("0") + rest % 10
    for k in range(width - 2, -1, -1):
        rest //= 10
        text[..., k] = (ord("0") + rest % 10) * (rest > 0)
    text = text.reshape(-1)
    return text[text != 0].tobytes().decode("ascii")


def write_mesh(path, mesh: Mesh, field=None) -> None:
    """ASCII dump: header counts, vertex lines, triangle lines, boundary lines.

    ``field``, an optional ``(path, values)`` pair, also writes the nodal CSV
    ``vertex_id,x,y,value`` in the same pass.  The output is the same bytes
    as ``repr`` and ``%d`` row by row, with far less work per cell.  Vertices
    go a block of whole rings at a time, after a ball's centre: a polar
    ring repeats its coordinates' magnitudes across the mirror lines, so
    `_reprs` formats each distinct magnitude among a block's x, y and values
    once, and both files share the strings.  Integer rows come from digit
    arrays (`_int_rows`).
    """
    nv, m = mesh.nv, mesh.sectors
    first = nv % m if m else 0  # a ball's centre vertex
    step = m * max(1, _BLOCK_ROWS // m) if m else _BLOCK_ROWS
    edges = sorted({0, *range(first, nv, step), nv})
    with open(path, "w") as fh, (open(field[0], "w") if field else nullcontext()) as csv:
        fh.write(f"{nv} {mesh.nt} {len(mesh.boundary_edges)}\n")
        if csv is not None:
            csv.write("vertex_id,x,y,value\n")
        for lo, hi in zip(edges, edges[1:]):
            cols = [*mesh.vertices[lo:hi].T] + ([field[1][lo:hi]] if csv is not None else [])
            text = _reprs(np.concatenate(cols)).reshape(len(cols), -1)
            xs, ys = text[0].tolist(), text[1].tolist()
            fh.write("".join([f"{x} {y}\n" for x, y in zip(xs, ys)]))
            if csv is not None:
                rows = zip(range(lo, hi), xs, ys, text[2].tolist())
                csv.write("".join([f"{i},{x},{y},{v}\n" for i, x, y, v in rows]))
        for ids, tags in ((mesh.triangles, mesh.tri_tags), (mesh.boundary_edges, mesh.edge_tags)):
            for lo in range(0, len(ids), _BLOCK_ROWS):
                blk = slice(lo, lo + _BLOCK_ROWS)
                fh.write(_int_rows([*ids[blk].T, tags[blk]]))
