"""Linear triangular finite elements on structured polar meshes.

Meshes are rings of 6n sectors whose radii conform exactly to every
concentric material interface, so layered conductivities are resolved
without interface error and the mesh inherits the full discrete rotation
group of the layout.  Every ring is one unit circle, built from its first
quadrant, scaled: it is bitwise mirror-exact across both axes.  Displaced
inclusions are captured by per-element tagging at centroids instead; a
centred phase's tag is decided once per rotation orbit, and centroids are
tested one by one only in the sectors of each band an off-centre disk can
reach.

Assembly is the classical piecewise-linear setup: element stiffness from
edge coefficients, the exact mass, vertex-rule load.  It needs a polar
mesh, whose triangle corners are ring slices of the vertices, as the
generator's triangle table is of the vertex ids: a band block and one side
at a time, each distinct entry of the symmetric element matrix is one array
over the side, summed straight into the mesh's seven-slot coupling pattern
(ring q, sector j to rings q-1..q+1 at sectors j-1..j+1); the temporaries
do not grow with the mesh.  The operators are symmetric, so only the three
inward slots and the diagonal are summed and stored; each outward slot is
read as the inward slot of the vertex it reaches.  The operators stay in
that pattern (`PolarOperator`), which multiplies in place, bitwise as CSR would, and
compresses to CSR with no sort and no merge only for the heat flow: the
mass's free block, and the cap matrix that SuperLU factors.  The mesh keeps
only the areas, which assembly stores as it goes; a later stage gathers the
corners of just the triangles it reads, with the same arithmetic, and its
triangle and tag tables are int32.  Each derived
fact has one owner that builds it on first use: the mesh its areas, the
assembled system its mass matrix and the mass's Dirichlet-free block, one
index range on a polar mesh.  Setup stages read the ring x sector layout
too: centroids are column gathers, and the L2 distance to a radial profile
evaluates the profile once per rotation orbit and reads the field from
ring slices.  The linear solve is a
hand-rolled conjugate gradient with a deterministic zero start and
in-place updates, multiplying by the stiffness's free block in its
seven-slot pattern, preconditioned by an exact solve with the stiffness
whose conductivity is averaged over each rotation orbit: its stencil is
the slot values averaged over the sectors, and an FFT in angle and one
sweep over the rings solve every mode's tridiagonal radial system by its
L D L^H factor, so the iteration count does not grow with n and a
concentric layout converges in one step.  The same solve
(`_orbit_mean_solver`) is the heat flow's exact cap step on layouts whose
sigma is constant on every rotation orbit.  Boundary fluxes
are recovered variationally from the residual of the full (uneliminated)
operator, which makes the discrete divergence identity hold to solver
precision.  Inner products and norms of mesh-sized vectors are summed by
numpy's own loop (`_dot`), never by BLAS, so no result depends on the BLAS
thread count.

An elliptic run needs numpy alone.  The scipy imports are local to the code
that only the heat flow runs (`PolarOperator.tocsr`, `CircleSampler`), so
importing this module, or running the elliptic pipeline, loads no scipy
module, and no second OpenBLAS thread pool starts.

Point location is closed-form on the generated layout: sector, band, one
side test.  Values on a circle at the vertex angles need no location: they
blend the two rings around the circle.

Artifact tables (`write_mesh`, and the spectra and time series through
`_write_table`) are written as bytes with no Python object per cell: floats
become the shortest round-trip digits of ``repr`` by Schubfach in uint64
arithmetic, integers become digit cells, and a row is a gather of cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

__all__ = [
    "Mesh",
    "FemSystem",
    "PolarOperator",
    "EllipticSolution",
    "BoundaryFlux",
    "CircleSampler",
    "generate_mesh",
    "assemble_system",
    "solve_elliptic",
    "recover_boundary_flux",
    "locate_points",
    "l2_error_to_radial",
    "write_mesh",
]


@dataclass(frozen=True)
class Mesh:
    """A polar mesh from `generate_mesh`, read-only.

    The triangle table and the region tags are int32, half the bytes of
    numpy's default integers; `generate_mesh` refuses a resolution whose
    vertex ids would pass 2**31 - 1.  A triangle's conductivity is not stored
    here; it is the system's table read at its tag (`FemSystem.sigma_table`).
    """

    vertices: np.ndarray  # (nv, 2)
    triangles: np.ndarray  # (nt, 3) int32, counter-clockwise
    tri_tags: np.ndarray  # (nt,) int32 region tag per element; 0 = shell
    boundary_edges: np.ndarray  # (nb, 2) vertex pairs
    edge_tags: np.ndarray  # (nb,) boundary component: 0 = outer, 1 = inner
    sectors: int  # angular sector count of the generator
    radii: np.ndarray  # the generator's ring radii, innermost first; 0 for a ball's centre

    def __post_init__(self) -> None:
        for name in ("vertices", "triangles", "tri_tags", "boundary_edges", "edge_tags", "radii"):
            getattr(self, name).setflags(write=False)

    @property
    def nv(self) -> int:
        return len(self.vertices)

    @property
    def nt(self) -> int:
        return len(self.triangles)

    @cached_property
    def areas(self) -> np.ndarray:
        """Area of every triangle, read-only.

        `assemble_system` stores them here as it assembles the stiffness, a
        block of triangles at a time; a mesh read before assembly computes them.
        """
        areas = _tri_geometry(self.vertices, self.triangles)[2]
        areas.setflags(write=False)
        return areas


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
    if (n + 1) * m > np.iinfo(np.int32).max:  # the triangle table holds int32 vertex ids
        raise ValueError(f"resolution n={n} numbers more vertices than int32 ids can hold")
    fan = int(dom.kind == "ball")  # a ball's centre is one vertex, not a ring
    marks = np.array([r0, *config.conforming_radii(), R])
    counts = _allocate_intervals(marks, n)
    spans = [np.linspace(a, b, k + 1)[1:] for a, b, k in zip(marks, marks[1:], counts)]
    radii = np.concatenate([[r0], *spans])

    circle = _unit_circle(m)
    V = np.vstack([np.zeros((fan, 2)), *(r * circle for r in radii[fan:])])
    rings = np.arange(fan, len(V)).reshape(-1, m)  # vertex ids by ring (a ball's from ring 1) and sector
    ids = (rings, np.roll(rings, -1, axis=1))  # at sectors j and j+1

    T = np.empty((m * (2 * n - fan), 3), dtype=np.int32)
    if fan:  # a ball's band 0 is the centre fan, one triangle per sector
        T[:m, 0], T[:m, 1], T[:m, 2] = 0, ids[0][0], ids[1][0]
    quads = T[fan * m :].reshape(-1, m, 2, 3)  # a view: (band, sector, side, corner)
    for s, side in enumerate(_SIDES):
        for k, (dq, dj) in enumerate(side):
            quads[:, :, s, k] = ids[dj][dq : dq + n - fan]

    loops = (-1,) if fan else (-1, 0)  # rings tagged 0 = outer, 1 = inner
    bedges = np.vstack([np.column_stack([ids[0][q], ids[1][q]]) for q in loops])
    etags = np.repeat(np.arange(len(loops)), m)

    tags = _polar_tags(V, T, config, m, radii)
    return Mesh(
        vertices=V,
        triangles=T,
        tri_tags=tags,
        boundary_edges=bedges,
        edge_tags=etags,
        sectors=m,
        radii=radii,
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


def _polar_tags(V: np.ndarray, T: np.ndarray, config, m: int, radii: np.ndarray) -> np.ndarray:
    """Region tag per triangle of the polar mesh with rings at ``radii``, decided at its
    centroid: bitwise a test at every centroid, with fewer point tests.

    A centred phase tests a centroid's norm alone, so its tag is constant on
    each (band, side) rotation orbit up to round-off: ``region_index_at``
    runs once per orbit, at one reference sector per band.  Centroids are
    tested one by one only where an off-centre disk can reach them, and on
    every band where a reference centroid lies within round-off of a centred
    interface.  That can happen on a thin band, because a chord dips below
    its ring: every point of band b has a norm in [radii[b] cos(pi/m),
    radii[b + 1]], and a centroid of sector j an angle in [2 pi j/m, 2 pi
    (j + 1)/m].  A disk's reach is taken with one band and one sector of
    margin on either side, and each band's reference sector lies outside
    every disk's reach, so the orbit tags see only the centred phases.
    """
    n, fan = m // 6, len(V) % m
    bands, sectors = np.arange(n), np.arange(m)
    # the norms of bands b-1 .. b+1: band b's reach, with one band of margin
    lo_r = radii[np.maximum(bands - 1, 0)] * math.cos(math.pi / m)
    hi_r = radii[np.minimum(bands + 2, n)]
    test = np.zeros((n, m), bool)  # the (band, sector)s to test centroid by centroid
    for p in config.phases:
        if p.shape == "disk" and any(p.center):
            d, rho = math.hypot(*p.center), p.radius
            reach = (hi_r > d - rho) & (lo_r < d + rho)
            # the widest angle, seen from the origin, between the centre and a
            # point of the disk at a norm in [lo_r, hi_r]: where the circle of
            # that norm touches the disk, or at the nearer end; all round when
            # the disk covers the circle or the arithmetic fails
            r = np.clip(math.sqrt(max(d * d - rho * rho, 0.0)), lo_r, hi_r)
            with np.errstate(all="ignore"):
                half = np.arccos(np.clip((r * r + d * d - rho * rho) / (2 * r * d), -1.0, 1.0))
            half = np.nan_to_num(half, nan=np.pi) * (m / (2 * math.pi))  # in sectors
            mid = math.atan2(p.center[1], p.center[0]) * (m / (2 * math.pi))
            first = np.floor(mid - half) - 1  # one sector of margin either side
            width = np.floor(mid + half) + 1 - first
            test[reach] |= ((sectors - first[:, None]) % m <= width[:, None])[reach]
    ref = np.argmin(test, axis=1)  # each band's first untested sector
    orbits = _triangle_index(m, fan, bands[:, None], ref[:, None], np.arange(2))
    cents = _centroids(V, T[orbits.reshape(-1)])
    orbit = config.region_index_at(cents).reshape(n, 2)
    tags = np.empty(len(T), np.int32)  # the point test's tags are cast on assignment
    tags[: fan * m] = orbit[0, 0]  # a ball's centre fan, side 0 only
    tags[fan * m :].reshape(-1, m, 2)[...] = orbit[fan:, None]
    norms = np.linalg.norm(cents, axis=1).reshape(n, 2)
    for rho in config.conforming_radii():
        test[(np.abs(norms - rho) <= 1e-9 * rho).any(axis=1)] = True
    band, sector = np.nonzero(test)
    idx = _triangle_index(m, fan, band[:, None], sector[:, None], np.arange(2))
    idx = idx[band[:, None] >= fan * np.arange(2)]  # the centre fan has no side 1
    tags[idx] = config.region_index_at(_centroids(V, T[idx]))
    return tags


def _centroids(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """(nt, 2) centroids by column gathers, bitwise ``vertices[triangles].mean(axis=1)``."""
    cents = vertices[triangles[:, 0]]
    cents += vertices[triangles[:, 1]]
    cents += vertices[triangles[:, 2]]
    cents /= 3
    return cents


def _tri_geometry(vertices: np.ndarray, triangles: np.ndarray):
    """Edge coefficients b, c (..., 3) and areas (...) of the triangles (..., 3); raises on
    inverted cells.

    Each corner is one row gather: the same arithmetic as gathering
    ``vertices[triangles]`` whole, without its (..., 3, 2) temporary.  The
    arithmetic is per triangle, so any subset of a mesh's triangles gets the
    bits the whole mesh would.
    """
    corners = (vertices[triangles[..., k]] for k in range(3))
    bc, area = np.empty((*triangles.shape[:-1], 6)), np.empty(triangles.shape[:-1])  # b, c side by side
    _corner_geometry(*(z for p in corners for z in (p[..., 0], p[..., 1])), out=[*np.moveaxis(bc, -1, 0), area])
    return bc[..., :3], bc[..., 3:], area


def _band_corners(mesh: Mesh, lo: int, hi: int, field: np.ndarray | None = None):
    """The corners (x0, y0, x1, y1, x2, y2) of bands lo..hi-1, or the columns of the
    nodal ``field`` (nv, k) at them likewise, each (bands, m), side by side.

    They are ring slices, not gathers: the columns on rings lo..hi are copied
    once, with sector 0 again as column m, so that sector j+1 is a slice too.
    A band's sides have the corners `_SIDES`; a ball's centre fan is side 0
    with the centre as its inner ring, and has no side 1.
    """
    V, m = mesh.vertices if field is None else field, mesh.sectors
    fan = mesh.nv % m
    xy = np.empty((V.shape[1], hi - lo + 1, m + 1))
    first = max(lo, fan)  # a ball's ring 0 is its centre
    xy[:, first - lo :, :m] = V[fan + (first - fan) * m : fan + (hi + 1 - fan) * m].T.reshape(len(xy), -1, m)
    xy[:, : first - lo, :m] = V[0][:, None, None]
    xy[..., m] = xy[..., 0]
    return [
        tuple(z[dq : dq + hi - lo, dj : dj + m] for dq, dj in side for z in xy)
        for side in _SIDES[: 2 - (lo < fan)]
    ]


def _corner_geometry(x0, y0, x1, y1, x2, y2, out=None) -> np.ndarray:
    """Edge coefficients b0, b1, b2, c0, c1, c2 and the area of the triangles with
    corners (x_k, y_k), in the seven rows ``out``, or in one new (7, ...) array;
    raises on inverted cells.
    """
    g = np.empty((7, *np.shape(x0))) if out is None else out
    b, c, area = g[:3], g[3:6], g[6]
    for row, (p, q) in zip(g, ((y1, y2), (y2, y0), (y0, y1))):
        np.subtract(p, q, out=row)
    # 0.5 (x0 b0 + x1 b1 + x2 b2), each product held in c0's row until c0 is taken
    np.multiply(x0, b[0], out=area)
    area += np.multiply(x1, b[1], out=c[0])
    area += np.multiply(x2, b[2], out=c[0])
    area *= 0.5
    if not (area > 0).all():
        raise ValueError("mesh contains an inverted or degenerate triangle")
    for row, (p, q) in zip(c, ((x2, x1), (x0, x2), (x1, x0))):
        np.subtract(p, q, out=row)
    return g


@dataclass
class FemSystem:
    """Assembled operators: the full (uneliminated) stiffness and the load.

    The homogeneous boundary condition is applied by *index partitioning*
    (`free`, one index range, vs `boundary`, the rings on either side of it,
    from `assemble_system`), never by rewriting rows, so the full operator
    stays available for variational flux recovery.  Both operators are
    `PolarOperator`s; the mass is assembled on first use, from the areas that
    the stiffness's pass stored, so an elliptic run never builds it.  The
    conductivity is held as ``sigma_table``, one value per element tag: a
    triangle's is ``sigma_table[mesh.tri_tags[t]]``, read where it is needed,
    so no per-triangle copy is kept.  Every solver multiplies the stiffness in
    its seven-slot pattern, and
    `_orbit_mean_solver` reads its angular-mode symbol from the slots, so no
    run compresses K.  The heat flow's mass products use `Mff`, the free
    block of M in CSR, sliced once on first use: at n=32 scipy's CSR product
    takes 0.03 ms against 0.07 ms for the slot product, and the Lanczos basis
    takes two per vector.
    """

    mesh: Mesh
    stiffness: PolarOperator
    load: np.ndarray
    g_vertex: np.ndarray  # nodal source values, also the default initial heat
    sigma_table: np.ndarray  # conductivity per element tag
    free: np.ndarray
    boundary: np.ndarray

    @cached_property
    def mass(self) -> PolarOperator:
        return _assemble(self.mesh, self.mesh.areas)

    @cached_property
    def Mff(self):
        return self._free_block(self.mass)

    def _free_block(self, A: PolarOperator):
        """The free rows and columns of ``A`` in CSR.

        The free vertices of a polar mesh are one range: a ball's before its
        outer ring, an annulus's between its two rings.
        """
        lo, hi = self.free[0], self.free[-1] + 1
        return A.tocsr()[lo:hi, lo:hi]

    @cached_property
    def rotation_invariant(self) -> bool:
        """Is sigma constant on every rotation orbit of the polar mesh, so that K̄ is K?"""
        sigma = self.sigma_table[self.mesh.tri_tags[_orbits(self.mesh)]]
        return bool((sigma == sigma[:, :1]).all())

    def mass_norm(self, u_free: np.ndarray) -> float:
        return math.sqrt(_dot(u_free, self.Mff @ u_free))


_BLOCK_TRIANGLES = 16384  # triangles per assembly block of whole bands, at most
_BLOCK_VERTICES = 24576  # rows per block of `PolarOperator.matvec`, at most a whole ring
_TOO_SMALL = "the load is too small to solve in double precision"
_CG_TOL = 1e-10  # the elliptic CG stops at this residual norm relative to the load's

# The seven couplings of the vertex of ring q, sector j, as (ring, sector)
# offsets in column order: (q-1, j-1) ... (q+1, j+1).
_SLOTS = ((-1, -1), (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, 1))
# Where each slot is read from the four that an operator stores, slots 0-3:
# (stored slot, ring offset, sector offset).  The outward slots 4, 5 and 6 of
# ring q, sector j are the inward slots 2, 1 and 0 of the vertex they reach.
_STORED = ((0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0), (2, 0, 1), (1, 1, 0), (0, 1, 1))
# The corners of a band's two sides as (ring, sector) offsets from its inner
# ring at sector j: side 0 is (inner j, outer j, outer j+1), side 1 is
# (inner j, outer j+1, inner j+1); a ball's centre fan has side 0 only.
_SIDES = (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1)))
# The six distinct entries (a, c) of a symmetric element matrix and the row of each
# entry among them; the mass has two, twice area/12 on the diagonal and area/12 off it.
_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
_ENTRY = ((0, 3, 4), (3, 1, 5), (4, 5, 2))
_MASS_ENTRY = ((0, 1, 1), (1, 0, 1), (1, 1, 0))
# Slot orders that sort the columns of sectors 0 and m-1, where j-1 or j+1 wraps.
_WRAPPED = ((0, (1, 0, 3, 4, 2, 5, 6)), (-1, (0, 1, 4, 2, 3, 6, 5)))


class PolarOperator:
    """A symmetric operator on a polar mesh, held in four of the mesh's seven slots.

    ``values[k, q, j]``, k < 4, couples the vertex of ring q, sector j (rings
    counted outwards, a ball's centre not among them) to its neighbour along
    slot k of `_SLOTS`: the three inward couplings, to ring q-1 at sectors j-1
    and j and to ring q at sector j-1, and the diagonal.  A ball's first ring
    reaches the centre along slot 1 alone.  The outward slots 4, 5 and 6 are
    not stored: the operator is symmetric, so each is the inward slot 2, 1 or
    0 of the vertex it reaches (`_STORED`), and an assembly that adds both of
    a mirrored pair from the same entries in the same order makes them
    bitwise equal.  A last ring of zeros pads ``values``, shape (4, rings + 1,
    m), so that the outer ring's outward slots read zeros.  ``centre`` is a
    ball's centre row, its diagonal and then its couplings to the first ring
    in sector order; an annulus has none.

    `matvec` (and ``@``) sums every row in CSR column order from +0.0, as
    scipy's CSR product does: the seven slots in order in the body, the
    mirrors read as flat views of slots 2, 1 and 0 shifted by +1, +m and
    +m+1; the `_WRAPPED` orders at sectors 0 and m-1, whose mirrors are
    gathered once; the centre row one entry at a time.  Every term is the one
    that storing all seven slots gave, and a slot whose value is exactly 0, which
    CSR drops, adds a signed zero, which moves no bit of a sum that starts at
    +0.0, so the product is bitwise the one by `tocsr()`.  `tocsr` compresses
    the seven slots that are not exactly 0, with int32 indices, no sort and
    no merge; it is the only method that imports scipy.
    """

    def __init__(self, values: np.ndarray, centre: np.ndarray):
        self.values, self.centre = values, centre
        self.fan = min(len(centre), 1)
        self.sectors = values.shape[2]
        nv = self.fan + values[0, :-1].size
        self.shape = (nv, nv)

    @cached_property
    def nnz(self) -> int:
        """The entries `tocsr` stores: the seven slots that are not exactly 0."""
        v = self.values  # slot 4 mirrors slot 2 of every ring, slots 5 and 6 slots 1 and 0 past the first
        mirrors = np.count_nonzero(v[2]) + np.count_nonzero(v[:2, 1:])
        return int(np.count_nonzero(v) + mirrors) + int(np.count_nonzero(self.centre))

    def slots(self) -> np.ndarray:
        """All seven slots of every ring, (7, rings, m): the stored four and their mirrors."""
        rings = self.values.shape[1] - 1
        return np.stack([np.roll(self.values[k, dq : dq + rings], -dj, axis=1) for k, dq, dj in _STORED])

    @cached_property
    def _buffers(self):
        rings, m = self.values.shape[1] - 1, self.sectors
        # the ghosts: one flat vector with ring q, sector j at 1 + (q + 1) m + j (a
        # ball's centre stands in for ring -1), so every slot's neighbours of a
        # range of rings are one contiguous slice, right but at sectors 0 and m-1
        ghosts = np.zeros((rings + 2) * m + 2)
        # sectors 0 and m-1 in their wrapped slot orders: values and ghost indices
        sectors = np.array([s % m for s, _ in _WRAPPED])[:, None]
        order = np.array([o for _, o in _WRAPPED]).T[..., None]  # (7, 2, 1)
        dq, dj = (np.array(d)[order] for d in zip(*_SLOTS))
        at = 1 + (np.arange(rings) + 1 + dq) * m + (sectors + dj) % m  # (7, 2, rings)
        k, sq, sj = (np.array(d)[order] for d in zip(*_STORED))
        wrapped = self.values[k, np.arange(rings) + sq, (sectors + sj) % m]
        work = np.empty(min(rings, max(1, _BLOCK_VERTICES // m)) * m)  # one block's terms
        return ghosts, work, wrapped, at, [v.reshape(-1) for v in self.values]

    def matvec(self, x: np.ndarray, lo: int = 0, hi: int | None = None, out=None) -> np.ndarray:
        """The rows and columns [lo, hi) of the operator times ``x``, of length hi - lo.

        The range must hold whole rings, and a ball's centre if it starts at 0:
        the whole mesh, or the free vertices.  The result is bitwise
        ``tocsr()[lo:hi, lo:hi] @ x``.
        """
        m, fan = self.sectors, self.fan
        hi = self.shape[0] if hi is None else hi
        head = fan if lo == 0 else 0  # the centre row leads the range
        a, b = (lo + head - fan) // m, (hi - fan) // m  # its rings
        out = np.empty(hi - lo) if out is None else out
        ghosts, work, wrapped, at, flat = self._buffers
        ghosts[1 + a * m : 1 + (a + 1) * m] = x[0] if head else 0.0  # ring a - 1
        ghosts[1 + (a + 1) * m : 1 + (b + 1) * m] = x[head:]
        ghosts[1 + (b + 1) * m : 1 + (b + 2) * m] = 0.0  # ring b
        y = out[head:]
        step = len(work) // m  # a block of rings at a time, so that its sums stay in cache
        for first in range(a, b, step):
            last = min(first + step, b)
            size = (last - first) * m
            rows, term = y[(first - a) * m : (last - a) * m], work[:size]
            for slot, (dq, dj) in enumerate(_SLOTS):
                k, sq, sj = _STORED[slot]
                start, pos = 1 + (first + 1 + dq) * m + dj, (first + sq) * m + sj
                # slot 6 of the outer ring's sector m-1 lies past the padded slot 0;
                # that row, like every sector m-1, is summed again below
                values = flat[k][pos : pos + size]
                s = len(values)
                column = ghosts[start : start + s]
                if slot:
                    np.add(rows[:s], np.multiply(values, column, out=term[:s]), out=rows[:s])
                else:
                    np.multiply(values, column, out=rows)
            rows += 0.0  # a row whose every term is -0.0 sums to +0.0 from +0.0
        terms = wrapped[..., a:b] * ghosts[at[..., a:b]]
        wrap = terms[0]
        for term in terms[1:]:
            wrap += term
        wrap += 0.0
        y = y.reshape(b - a, m)
        y[:, 0], y[:, -1] = wrap
        if head:  # summed one entry at a time, in column order
            out[0] = np.cumsum(self.centre * x[: 1 + m])[-1] + 0.0
        return out

    __matmul__ = matvec

    def tocsr(self):
        """The operator in canonical CSR, without the entries that are exactly 0."""
        import scipy.sparse as sp  # only the heat flow, and tests, compress the operator

        m, fan = self.sectors, self.fan
        values = self.slots()
        rings = values.shape[1]
        order = np.tile(np.arange(7), (m, 1))
        for sector, o in _WRAPPED:
            order[sector] = o
        dq, dj = (np.array(d, np.int32)[order] for d in zip(*_SLOTS))
        cols = fan + (np.arange(rings, dtype=np.int32)[:, None, None] + dq) * m
        cols += (np.arange(m, dtype=np.int32)[:, None] + dj) % m
        if fan:
            cols[0, :, :2] = 0  # the first ring's inner slots reach the centre
        head_cols = np.flatnonzero(self.centre).astype(np.int32)
        indptr = np.zeros(self.shape[0] + 1, np.int32)
        indptr[fan] = len(head_cols)
        np.cumsum(np.count_nonzero(values, axis=0).reshape(-1), out=indptr[fan + 1 :])
        indptr[fan + 1 :] += len(head_cols)
        data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], np.int32)
        data[: indptr[fan]], indices[: indptr[fan]] = self.centre[head_cols], head_cols
        starts = indptr[fan :: m]  # each ring's first entry: rows are sorted and compressed a ring at a time
        for q, (lo, hi) in enumerate(zip(starts, starts[1:])):
            rows = np.take_along_axis(values[:, q].T, order, axis=1)
            keep = rows != 0.0
            data[lo:hi], indices[lo:hi] = rows[keep], cols[q][keep]
        return sp.csr_matrix((data, indices, indptr), shape=self.shape)


def _assemble(mesh: Mesh, area: np.ndarray, sigma_table: np.ndarray | None = None) -> PolarOperator:
    """The P1 stiffness with the conductivity ``sigma_table[mesh.tri_tags]`` as a
    `PolarOperator`, writing every triangle's area into ``area``; without
    ``sigma_table``, the exact mass, from the areas in ``area``.

    On the polar mesh the vertex of ring q, sector j couples to at most seven
    vertices (`_SLOTS`), and a ball's centre to itself and the first ring.
    A band block of at most `_BLOCK_TRIANGLES` triangles (a ball's centre fan
    alone) and one side at a time, each distinct entry of the symmetric
    element matrix is one (bands, m) array in scratch that every block
    reuses, as Cuvelier, Japhet & Scarella assemble in vector languages (BIT
    56, 2016): the stiffness's six, (b_a b_c + c_a c_c) sigma / (4 area) from
    ring slices (`_band_corners`), the mass's two, area/12 times 2 and 1.
    Entry (a, c) is added, in the order (side, a, c), into the row of corner a
    of one ``(4, rings + 1, m)`` value array by shifted adds along the sectors,
    a ball's centre standing in as ring 0, if its slot is one of the four the
    operator stores: six of the nine entries of a side.  The three skipped
    are the mirrors (c, a) of three added ones, the same array of scratch, so
    each outward slot would get the adds of the inward slot it mirrors, in
    the same order, and the bits `PolarOperator` reads for it.  A ball's
    centre row is its diagonal and the first ring's couplings to it.
    """
    m = mesh.sectors
    fan, n = mesh.nv % m, m // 6
    A = np.zeros((4, n + 2, m))  # the last ring pads the outer ring's outward slots
    step = max(1, _BLOCK_TRIANGLES // (2 * m))  # whole bands per block
    work = np.empty((15, min(step, n) * m))  # entries, geometry, weight, one product
    for lo, hi in [(0, 1)][:fan] + [(b, min(b + step, n)) for b in range(fan, n, step)]:
        g = work[:, : (hi - lo) * m].reshape(15, hi - lo, m)
        tris = slice(max(2 * lo - fan, 0) * m, (2 * hi - fan) * m)
        areas = area[tris].reshape(hi - lo, m, -1)  # (band, sector, side)
        if sigma_table is not None:
            corners = _band_corners(mesh, lo, hi)
            sigma = sigma_table[mesh.tri_tags[tris]].reshape(areas.shape)
        for s in range(areas.shape[2]):
            if sigma_table is None:
                np.multiply(np.divide(areas[..., s], 12.0, out=g[1]), 2.0, out=g[0])
                entry = _MASS_ENTRY
            else:
                geo = _corner_geometry(*corners[s], out=g[6:13])  # b0, b1, b2, c0, c1, c2, area
                areas[..., s] = geo[6]
                w = np.divide(sigma[..., s], np.multiply(geo[6], 4, out=g[13]), out=g[13])
                for e, (a, c) in zip(g, _PAIRS):
                    np.multiply(geo[a], geo[c], out=e)
                    e += np.multiply(geo[3 + a], geo[3 + c], out=g[14])
                    e *= w
                entry = _ENTRY
            for a, (ra, ja) in enumerate(_SIDES[s]):
                for c, (rc, jc) in enumerate(_SIDES[s]):
                    k = _SLOTS.index((rc - ra, jc - ja))
                    if k > 3:  # an outward slot, not stored
                        continue
                    dst, src = A[k, lo + ra : hi + ra], g[entry[a][c]]
                    if ja:  # shifted adds along the sectors, wrapping at sector 0
                        dst[:, 1:] += src[:, :-1]
                        dst[:, 0] += src[:, -1]
                    else:
                        dst += src

    values, centre = A[:, fan:], np.empty(0)
    if fan:  # ring 1 reaches the centre along both inner slots
        values[1, 0] += values[0, 0]
        values[0, 0] = 0.0
        # the centre's diagonal summed a sector at a time, in order, as every other
        # entry is, then its couplings to ring 1: ring 1's to it, the same sums
        centre = np.concatenate([[np.cumsum(A[3, 0])[-1]], values[1, 0]])
    return PolarOperator(values, centre)


def _require_polar(mesh: Mesh) -> None:
    if not mesh.sectors:
        raise ValueError("needs a polar mesh from generate_mesh (sectors > 0)")


def assemble_system(mesh: Mesh, sigma_by_tag, source) -> FemSystem:
    """Assemble the stiffness and the load for one conductivity layout.

    K is summed into the polar mesh's seven-slot pattern, its four stored
    slots, a band block and a side at a time by `_assemble`, the geometry taken from ring slices
    (`_band_corners`); the mass matrix M is assembled the same way, from the
    areas K's pass stored, on first use of `FemSystem.mass`.  The mesh must
    be a polar mesh from `generate_mesh`: a mesh without sectors raises
    ``ValueError``.

    ``sigma_by_tag`` maps element tags to conductivities (index 0 = shell);
    the system keeps it as ``sigma_table``.
    ``source``, a scalar or the nodal values, gives the load by the vertex
    rule (area/3 per corner); one that is not finite, zero at every interior
    vertex, or too small for its load to be represented raises ``ValueError``.
    The mesh numbers its boundary rings first (an annulus's inner ring) and
    last, so ``free`` is the one index range between them.
    """
    _require_polar(mesh)
    table = np.asarray(sigma_by_tag, float)
    tags = mesh.tri_tags
    if (tags < 0).any() or (tags >= len(table)).any():
        raise ValueError("untagged or out-of-range element tag; cannot assign conductivity")
    if not (table > 0).all() or not np.isfinite(table).all():
        raise ValueError("conductivities must be positive and finite")

    T, nv = mesh.triangles, mesh.nv
    area = np.empty(len(T))
    K = _assemble(mesh, area, table)
    area.setflags(write=False)
    area = vars(mesh).setdefault("areas", area)  # `Mesh.areas`, filled in the same pass

    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        if np.ndim(source) == 0:
            gv = np.full(nv, float(source))
        else:
            gv = np.asarray(source, float)
            if gv.shape != (nv,):
                raise ValueError("per-vertex source has the wrong length")
        F = np.zeros(nv)
        for lo in range(0, len(T), _BLOCK_TRIANGLES):  # in triangle order, as one call adds
            blk = slice(lo, lo + _BLOCK_TRIANGLES)
            load = np.repeat(area[blk] / 3.0, 3) * gv[T[blk]].reshape(-1)
            np.add.at(F, T[blk].reshape(-1), load)
    if not np.isfinite(gv).all():
        raise ValueError("the source must be finite at every mesh vertex")
    if not np.isfinite(F).all():
        raise ValueError("the assembled load must be finite")
    if gv.any() and not F.any():  # every vertex's area/3 times its source underflowed
        raise ValueError(_TOO_SMALL)

    m = mesh.sectors
    lo, hi = (0 if nv % m else m), nv - m  # from a ball's centre, or past an annulus's inner ring
    if not gv[lo:hi].any():  # u = 0 and no heat: no detector could see an asymmetry
        raise ValueError("the source is zero at every interior vertex; there is nothing to observe")
    return FemSystem(
        mesh=mesh,
        stiffness=K,
        load=F,
        g_vertex=gv,
        sigma_table=table,
        free=np.arange(lo, hi),
        boundary=np.r_[:lo, hi:nv],
    )


@dataclass(frozen=True)
class EllipticSolution:
    u: np.ndarray  # full vector, zero on the boundary
    iterations: int
    rel_residual: float  # Galerkin residual on the free block, relative to the load


def _orbit_mean_solver(mesh: Mesh, A: PolarOperator):
    """Exact solve by the free block of Ā, ``A`` with its stencil averaged over the
    sectors: ``solve(r, out=None)``.

    A rotation by one sector maps the polar mesh onto itself, so Ā, whose
    stencil is ``A``'s slot values on each free ring averaged over the
    sectors, is block-circulant in angle: ring q couples only to rings q-1,
    q, q+1, at angular offsets 0 and ±1, the same in every sector.  An rfft
    along every free ring splits it into one Hermitian tridiagonal radial
    system per mode (Swarztrauber, SIAM Review 19, 1977), each factored as
    L D L^H.  It reads slots 0 to 4 of the stencil (the inward ones and the
    ring's own three): the four that ``A`` stores, and slot 4 as slot 2
    turned by one sector and materialized, so that its mean over the sectors
    sums the same values in the same order as a stored slot 4 would.
    The coefficients are stored ring by ring, each ring's modes in
    a row, so one sweep over the rings factors or solves every mode's system
    at once.  A ball's centre couples only to mode 0 of the first ring, whose
    coupling to it is sqrt(m) times the mean one, and heads mode 0's system.

    For the stiffness Ā is K̄, the stiffness whose conductivity is averaged
    over each rotation orbit: K and K̄ sum the same element matrices with
    weights sigma and its orbit mean, so the preconditioned condition number
    is at most (max sigma / min sigma)^2 at any n.  On a rotation-invariant
    layout Ā is ``A`` to round-off, so the solve is exact: CG stops after one
    iteration, and the heat flow solves its cap matrix so.  Raises
    ``ValueError`` where a pivot is not positive.  The coefficients live in
    one buffer that every call reuses; its real and imaginary parts, two
    strided views, are each divided by the pivots D, so no copy of D is
    interleaved with them.
    """
    m = mesh.sectors
    fan = mesh.nv % m  # a ball's one centre vertex
    rings, modes, root_m = m // 6 - 1, m // 2 + 1, math.sqrt(m)
    first = 1 - fan  # the first free ring: an annulus's inner ring is not free
    stored = A.values[:, first : first + rings]
    # slots 0 .. 4 averaged over the sectors: slot 4 from its mirror, slot 2 turned by
    # one sector and materialized, elementwise the slot itself
    stencil = np.vstack([stored.mean(axis=2), np.roll(stored[2], -1, axis=1).mean(axis=1)])
    # symbol of each rfft mode k: sum over offsets d of stencil * exp(2 pi i k d / m),
    # the phases kept as interleaved real and imaginary parts, so a real einsum
    # forms it (a complex one is slower, and @ would call BLAS)
    phase = np.exp(2j * np.pi * np.outer([-1, 0, 1], np.arange(modes)) / m).view(float)
    D = np.einsum("dr,dk->rk", stencil[2:5], phase).view(complex).real.copy()  # slots (0, -1..1)
    E = np.einsum("dr,dk->rk", stencil[:2, 1:], phase[:2]).view(complex)  # ring q+1's inward slots
    # a ball's centre: its diagonal and its coupling to mode 0 of the first ring;
    # an annulus has none, and a unit pivot with no coupling stands in for it
    d0, e0 = (A.centre[0], A.centre[1:].sum() / root_m) if fan else (1.0, 0.0)
    E2 = np.square(E.real) + np.square(E.imag)  # |E|^2
    with np.errstate(divide="ignore", invalid="ignore"):  # a bad pivot is reported below
        D[0, 0] -= e0 * e0 / d0
        for q in range(rings - 1):
            D[q + 1] -= E2[q] / D[q]
        if not (d0 > 0 and (D > 0).all()):
            raise ValueError("the angular-mode system is not positive definite")
        L = E * (1.0 / D[:-1])
    l0 = e0 / d0
    Y = np.empty((rings, modes), complex)  # the coefficient buffer
    parts = (Y.real, Y.imag)  # views, each divided by D in one strided pass
    t = np.empty(modes, complex)
    # every ring's view, made once: (ring q, ring q + 1, L[q]) forward, and
    # (ring q + 1, ring q, conj L[q]) from the outermost ring back
    forward = list(zip(Y[:-1], Y[1:], L))
    backward = list(zip(Y[:0:-1], Y[-2::-1], L.conj()[::-1]))
    mul, sub = np.multiply, np.subtract

    def solve(r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        v = np.empty_like(r) if out is None else out
        np.fft.rfft(r[fan:].reshape(rings, m), axis=1, out=Y)
        if fan:  # L y = b along the centre's coupling
            c = root_m * r[0]
            Y[0, 0] -= c * l0
            c /= d0
        for y, b, l in forward:
            sub(b, mul(y, l, t), b)
        for part in parts:
            np.divide(part, D, part)
        for x, b, l in backward:
            sub(b, mul(x, l, t), b)
        if fan:  # L^H x = y along the centre's coupling
            v[0] = (c - l0 * Y[0, 0].real) / root_m
        np.fft.irfft(Y, n=m, axis=1, out=v[fan:].reshape(rings, m))
        return v

    return solve


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


def _pcg(matvec, F: np.ndarray, maxit: int, precond):
    """CG from a zero start for the operator ``matvec(p, out)``, preconditioned by
    ``precond(r, out)``, to a relative residual of `_CG_TOL`; deterministic by
    construction.

    Every update is made in place in one of five vectors, with the arithmetic
    of ``x + alpha * p`` and ``z + beta * p``, so no iteration allocates a
    vector: ``alpha * p`` goes into z, which the preconditioner refills next,
    and ``alpha * Kp`` and the scaled residual into Kp.
    """
    x = np.zeros_like(F)
    if not F.any():
        return x, 0
    r = F.copy()
    z = precond(r)
    p = z.copy()
    Kp = np.empty_like(F)
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
    f0 = _norm(np.multiply(F, scale, out=Kp))
    for it in range(1, maxit + 1):
        matvec(p, Kp)
        pKp = _dot(p, Kp)
        if not pKp > 0.0:  # K is positive definite: only underflow or NaN gets here
            raise ValueError(_TOO_SMALL)
        alpha = rz / pKp
        x += np.multiply(p, alpha, out=z)
        r -= np.multiply(Kp, alpha, out=Kp)
        if _norm(np.multiply(r, scale, out=Kp)) <= _CG_TOL * f0:
            return x, it
        precond(r, z)
        rz_new = _dot(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise RuntimeError(
        f"conjugate gradient did not converge in {maxit} iterations "
        f"(relative residual {_norm(scale * r) / f0:.3e})"
    )


def solve_elliptic(system: FemSystem, maxit: int = 50000) -> EllipticSolution:
    """Preconditioned CG on the free block, multiplied in the stiffness's seven-slot pattern.

    The free vertices are one index range (see `FemSystem._free_block`), and
    `PolarOperator.matvec` multiplies by that block of K in place, bitwise
    the product by its CSR form; no free block is sliced.
    """
    lo, hi = system.free[0], system.free[-1] + 1
    K = system.stiffness

    def matvec(p, out=None):
        return K.matvec(p, lo, hi, out)

    Ff = system.load[lo:hi]
    uf, its = _pcg(matvec, Ff, maxit, _orbit_mean_solver(system.mesh, K))
    res = _norm(matvec(uf) - Ff) / max(_norm(Ff), 1e-300)
    u = np.zeros(system.mesh.nv)
    u[lo:hi] = uf
    return EllipticSolution(u=u, iterations=its, rel_residual=res)


@dataclass(frozen=True)
class BoundaryFlux:
    """Variationally recovered outward co-normal flux at boundary vertices.

    ``values[j]`` approximates sigma * du/dnu at ``vertex_ids[j]`` with the
    outward normal; ``weights`` are the half-sums of adjacent boundary edge
    lengths (the mass of each boundary hat function on the boundary), and
    ``component`` is the boundary loop tag of each vertex, 0 on the outer
    ring and 1 on an annulus's inner ring.  ``total`` is the weighted sum; by
    construction it equals minus the assembled load total up to the
    linear-solver tolerance.
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
    The boundary vertices are whole rings in sector order (`assemble_system`),
    and each edge joins a ring's vertex j to vertex j+1.
    """
    res = system.stiffness @ u - system.load
    m, bn = system.mesh.sectors, system.boundary
    rings = system.mesh.vertices[bn].reshape(-1, m, 2)  # an annulus's inner ring first
    half = np.linalg.norm(rings - np.roll(rings, -1, axis=1), axis=2) / 2
    w = (half + np.roll(half, 1, axis=1)).reshape(-1)  # the edges from and into each vertex
    return BoundaryFlux(
        vertex_ids=bn,
        values=res[bn] / w,
        weights=w,
        component=np.repeat(np.arange(len(rings))[::-1], m),  # outer 0, inner 1
        total=float(res[bn].sum()),
    )


# -- point location and circle sampling -------------------------------------


_CONTAIN_TOL = 1e-10  # barycentric slack: a point on an edge belongs to either side


def _vertex_angle_values(mesh: Mesh, u: np.ndarray, radii) -> np.ndarray:
    """A nodal field on circles of the given radii at the m vertex angles 2 pi j / m.

    Every sector ray is a mesh edge, so on a circle between rings i and i+1
    the P1 field at those angles is exactly (1 - w) ring_i + w ring_{i+1},
    with w linear in the radius.  Shape (len(radii), m).
    """
    m, rings = mesh.sectors, mesh.radii
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
    radii = mesh.radii
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
    """One probe circle as a sparse operator on the free nodal values.

    One sample per sector, at its mid-angle 2 pi (j + 1/2) / m, so samples
    sit identically relative to the mesh pattern in every sector: discrete
    rotational symmetry of the layout then shows up as floating-point-level
    agreement across samples.  ``matrix`` is ``(2*count, free)`` CSR: rows
    ``0..count-1`` interpolate u at the samples, rows ``count..`` give sigma of
    the sample's triangle times u's radial derivative there.  Boundary columns
    are dropped, since u is zero there.
    """

    def __init__(self, system: FemSystem, radius: float):
        mesh = system.mesh
        self.radius = float(radius)
        self.count = mesh.sectors
        self.free = system.free
        th = 2 * np.pi * (np.arange(self.count) + 0.5) / self.count
        radial = np.column_stack([np.cos(th), np.sin(th)])
        tri_idx, bary = locate_points(mesh, radius * radial)
        import scipy.sparse as sp  # only the heat flow samples a circle this way
        b, c, area = _tri_geometry(mesh.vertices, mesh.triangles[tri_idx])
        grad_x, grad_y = b / (2 * area)[:, None], c / (2 * area)[:, None]
        flux = system.sigma_table[mesh.tri_tags[tri_idx]][:, None] * (grad_x * radial[:, :1] + grad_y * radial[:, 1:])
        # the free vertices are one range (see `FemSystem._free_block`)
        cols = np.tile(mesh.triangles[tri_idx], (2, 1)) - self.free[0]
        rows = np.broadcast_to(np.arange(2 * self.count)[:, None], cols.shape)
        keep = (cols >= 0) & (cols < len(self.free))
        self.matrix = sp.csr_matrix(
            (np.vstack([bary, flux])[keep], (rows[keep], cols[keep])),
            shape=(2 * self.count, len(self.free)),
        )


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
    err = np.empty((len(T), 3), order="F")  # summed edge by edge; views: (band, sector, side, edge)
    fans, quads = err[: fan * m].reshape(-1, m, 1, 3), err[fan * m :].reshape(-1, m, 2, 3)
    for lo, view in [(0, fans)][:fan] + [(fan, quads)]:  # u at the midpoints, from ring slices
        for s, corners in enumerate(_band_corners(mesh, lo, lo + len(view), u[:, None])):
            for e, (a, b) in enumerate(zip(*ends)):
                np.add(corners[a], corners[b], out=view[:, :, s, e])
    err /= 2
    fans -= ref[0, 0]
    quads -= ref[fan:, None]
    err **= 2
    err *= mesh.areas[:, None] / 3
    return float(np.sqrt(err.sum()))


# -- plain-text tables ----------------------------------------------------------
#
# Every artifact table is written as bytes: each value becomes a NUL-padded
# text cell in a uint8 array, a row is a gather of its columns' cells with the
# separators between them, and a block of rows drops its NULs once and goes
# out in one write.  The float cells are the shortest round-trip digits that
# ``repr`` prints, computed in uint64 arithmetic by Schubfach (R. Giulietti,
# "The Schubfach way to render doubles", 2020), as the JDK's DoubleToDecimal
# writes it, with two changes for Python: the one-digit-shorter candidate is
# tried from two-digit s up (the JDK starts at three, and prints 4.9E-324
# where Python prints 5e-324), and a subnormal's exponent correction applies
# on every branch.

# Rows per block.  Larger blocks cost fewer numpy calls; at this size a
# block's cells, rows and Schubfach temporaries stay below a MiB.
_BLOCK_ROWS = 3072
# Values per Schubfach call.  Its temporaries take about sixteen words per
# value, so a chunk of this size needs about half a MiB.
_CHUNK = 4096
_CELL = 24  # slots per float cell: the sign, then at most 23 characters

_U64 = np.uint64
_ZERO, _DOT = ord("0"), ord(".")


@cache
def _schubfach_table() -> np.ndarray:
    """32-bit limbs of g1 and g0 for k = -324 .. 292, shape (4, 617), read-only.

    ``g = floor(10**-k * 2**-r) + 1`` with ``r = flog2pow10(-k) - 125`` lies in
    [2**125, 2**126) and splits as ``g1 * 2**63 + g0``.
    """
    table = np.empty((4, 617), np.uint64)
    for i, k in enumerate(range(-324, 293)):
        r = (-k * 913_124_641_741 >> 38) - 125  # floor(log2(10**-k)) - 125
        g = (10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1
        g1, g0 = g >> 63, g & (2**63 - 1)
        table[:, i] = (g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF)
    table.setflags(write=False)
    return table


@cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only lookup tables of the digit layout, built on first use.

    ``quads``: the four decimal digits of 0 .. 9999 as one uint32 each, in
    memory order.  ``pow10``: 10**0 .. 10**18 as uint64.  ``leading``: row k
    is 0xFF over the first k of 18 digit slots and 0 after them.
    """
    rest = np.arange(10**4, dtype=np.uint16)
    digits = np.empty((10**4, 4), np.uint8)
    for k in range(3, -1, -1):
        digits[:, k] = rest % 10 + _ZERO
        rest //= 10
    quads = digits.view(np.uint32)[:, 0]
    pow10 = np.array([10**i for i in range(19)], np.uint64)
    leading = np.where(np.arange(18) < np.arange(19)[:, None], 255, 0).astype(np.uint8)
    for table in (quads, pow10, leading):
        table.setflags(write=False)
    return quads, pow10, leading


def _mulhi(a1, a0, b1, b0):
    """High 64 bits of the products a * b, from their 32-bit limbs (a1, a0) and (b1, b0)."""
    x = a1 * b0
    lo = a0 * b0
    lo >>= _U64(32)
    lo += x & _U64(0xFFFFFFFF)
    x >>= _U64(32)
    y = a0 * b1
    lo += y & _U64(0xFFFFFFFF)
    y >>= _U64(32)
    x += y
    del y
    lo >>= _U64(32)
    x += lo
    del lo
    x += a1 * b1
    return x


def _rop(g, cp):
    """High 64 bits of g * cp / 2**127, rounded to odd (the JDK's ``rop``); cp is consumed.

    ``g`` holds the 32-bit limbs of g1 and g0, where g = g1 * 2**63 + g0.
    """
    g1h, g1l, g0h, g0l = g
    b1, b0 = cp >> _U64(32), cp & _U64(0xFFFFFFFF)
    z = _mulhi(g0h, g0l, b1, b0)
    cp *= g1h << _U64(32) | g1l
    cp >>= _U64(1)
    z += cp
    del cp
    top = _mulhi(g1h, g1l, b1, b0)
    del b1, b0
    top += z >> _U64(63)
    z &= _U64(2**63 - 1)
    z += _U64(2**63 - 1)
    z >>= _U64(63)
    top |= z
    return top


def _shortest(v: np.ndarray):
    """Shortest round-trip ``(f, e)`` with ``repr(v) == f * 10**e``, for finite positive v.

    Of several shortest decimals the one nearest v, ties to even f.  f may
    carry trailing zeros.  Each array lives only as long as it is needed, so
    a chunk's temporaries stay near sixteen words per value.
    """
    bits = v.view(np.uint64)
    cb = bits & _U64(2**52 - 1)
    bq = (bits >> _U64(52)).astype(np.int64)
    irregular = (cb == 0) & (bq > 1)  # a power of two: its lower neighbour is closer
    cb |= (bq > 0).astype(np.uint64) << _U64(52)
    q = np.maximum(bq, 1)
    del bq
    q -= 1075  # v = c * 2**q, with c in cb
    dk = 0
    tiny = cb < 3
    if tiny.any():  # the two smallest subnormals: ten times c, one decimal exponent less
        cb[tiny] *= _U64(10)
        dk = -tiny.astype(np.int64)
    k = q * 661_971_961_083  # floor(log10(2**q)), or of 3/4 2**q if irregular
    k[irregular] -= 274_743_187_321
    k >>= 41
    q += (-k * 913_124_641_741) >> 38  # h = q + floor(log2(10**-k)) + 2 lies in [1, 4]
    q += 2
    h = q.astype(np.uint8)  # the narrow types keep the chunk's memory down
    del q
    g = [np.take(a, k + 324) for a in _schubfach_table()]
    k = k.astype(np.int16)  # in [-324, 292]
    odd = (cb & _U64(1)).astype(bool)  # an odd c excludes the ends of its interval
    cb <<= _U64(2)
    # 4c and the ends of its rounding interval, shifted by h, times g / 2**127
    vb = _rop(g, cb << h)
    vbl = _rop(g, ((cb - _U64(2)) + irregular) << h)
    vbr = _rop(g, (cb + _U64(2)) << h)
    del g, cb, h
    vbl += odd
    vbr -= odd
    s = vb >> _U64(2)
    s4 = s << _U64(2)
    sp = s // _U64(10) * _U64(10)  # the one-digit-shorter candidates sp and sp + 10
    upin = vbl <= sp << _U64(2)
    wpin = (sp + _U64(10)) << _U64(2) <= vbr
    uin = vbl <= s4
    win = s4 + _U64(4) <= vbr
    del vbl, vbr
    s4 += _U64(2)
    f = s + ((vb > s4) | ((vb == s4) & (s & _U64(1) == 1)))  # the nearer of s, s + 1
    f = np.where(uin != win, s + win, f)
    f = np.where((s >= 10) & (upin != wpin), sp + _U64(10) * wpin, f)
    return f, k + dk


def _digits(f: np.ndarray, groups: int = 5) -> np.ndarray:
    """(len, 4 groups) ASCII digits of uint64 integers f < 10**(4 groups), zero-padded on the left.

    Each remainder is taken as f - 10**4 q, not with ``%``, which numpy runs
    several times slower on uint64.
    """
    quads = np.empty((len(f), groups), np.intp)  # four digits each, the last group first
    for j in range(groups - 1, 0, -1):
        q = f // _U64(10**4)
        quads[:, j] = f - q * _U64(10**4)
        f = q
    quads[:, 0] = f
    return np.take(_digit_tables()[0], quads).view(np.uint8).reshape(len(f), 4 * groups)


def _items(a: np.ndarray) -> np.ndarray:
    """The rows of a 2-D uint8 array with contiguous rows as one item each, shape (rows,).

    Copying items moves each row's bytes at once, not a byte at a time.
    """
    return a.view(f"V{a.shape[1]}")[:, 0]


def _fill_cells(cells: np.ndarray, v: np.ndarray) -> None:
    """Write the ``repr`` of the ascending finite positive floats v into cells, sign slot empty.

    v = 0.D * 10**E with D the significant digits.  E rises with v, so
    each E owns a run of rows with one layout, filled by column slices.
    """
    _, pow10, leading = _digit_tables()
    f, e = _shortest(v)
    nd = np.searchsorted(pow10, f, side="right")
    f *= pow10[18 - nd]
    digits = _digits(f)[:, 2:]  # 18 digits, leading digit first, trailing zeros kept
    sig = 18 - np.argmax(digits[:, ::-1] != _ZERO, axis=1)
    exact = digits & np.take(leading, sig, axis=0)  # trailing zeros dropped
    E = e + nd
    lo, hi = np.searchsorted(E, [-3, 17])  # scientific below 1e-4 and from 1e16
    for rows, sign in ((slice(0, lo), "-"), (slice(hi, len(v)), "+")):
        if rows.start == rows.stop:
            continue
        x = np.abs(E[rows] - 1)
        cell = cells[rows]
        cell[:, 1] = digits[rows, 0]
        cell[:, 2] = np.where(sig[rows] > 1, _DOT, 0)
        _items(cell[:, 3:19])[...] = _items(exact[rows, 1:17])
        cell[:, 19:21] = np.frombuffer(("e" + sign).encode(), np.uint8)
        cell[:, 21] = np.where(x >= 100, _ZERO + x // 100, 0)
        cell[:, 22] = _ZERO + x // 10 % 10
        cell[:, 23] = _ZERO + x % 10
    runs = [lo, *(np.flatnonzero(np.diff(E[lo:hi])) + lo + 1), hi] if lo < hi else []
    for a, b in zip(runs, runs[1:]):
        x, cell = int(E[a]), cells[a:b]
        if x <= 0:  # 0.000ddd
            cell[:, 1:3] = (_ZERO, _DOT)
            cell[:, 3 : 3 - x] = _ZERO
            _items(cell[:, 3 - x : 20 - x])[...] = _items(exact[a:b, :17])
        else:  # x digits, the point, then at least one digit: 12.5, 1200.0
            _items(cell[:, 1 : 1 + x])[...] = _items(digits[a:b, :x])
            cell[:, 1 + x] = _DOT
            cell[:, 2 + x] = digits[a:b, x]
            if x < 16:
                _items(cell[:, 3 + x : 19])[...] = _items(exact[a:b, x + 1 : 17])


def _magnitude_cells(mags: np.ndarray) -> np.ndarray:
    """(len, _CELL) cells of the ascending distinct magnitudes ``mags``, sign slot empty."""
    cells = np.zeros((len(mags), _CELL), np.uint8)
    lo = np.searchsorted(mags, 0.0, side="right")  # 0.0, then the finite, inf and nan
    hi = np.searchsorted(mags, np.inf)
    cells[:lo, 1:4] = np.frombuffer(b"0.0", np.uint8)
    for a in range(lo, hi, _CHUNK):
        b = min(a + _CHUNK, hi)
        _fill_cells(cells[a:b], mags[a:b])
    cells[hi:, 1:4] = np.frombuffer(b"inf", np.uint8)
    cells[np.isnan(mags), 1:4] = np.frombuffer(b"nan", np.uint8)
    return cells


def _float_cells(*columns: np.ndarray) -> list:
    """Cell gathers ``(table, index, negative)`` of equal-length float columns.

    The columns share one table, in which each distinct magnitude among them
    is formatted once; the gathers put the sign in front wherever the sign
    bit is set, except on NaN, which Python prints as ``nan`` whatever its
    sign.
    """
    v = np.concatenate(columns)
    negative = np.signbit(v) & ~np.isnan(v)
    mags, where = np.unique(np.abs(v, out=v), return_inverse=True)
    del v
    table = _magnitude_cells(mags)
    shape = (len(columns), -1)
    return [(table, w, neg) for w, neg in zip(where.reshape(shape), negative.reshape(shape))]


def _int_cells(v: np.ndarray) -> np.ndarray:
    """(len, width) decimal cells of integers in [0, 2**63), right-aligned and NUL-padded."""
    width = len(str(int(v.max(initial=0))))
    pow10 = _digit_tables()[1][width - 1 : 0 : -1]  # 10**(width - 1) .. 10
    cells = np.empty((len(v), width), np.uint8)
    groups = -(-width // 4)
    for lo in range(0, len(v), _CHUNK):
        part = v[lo : lo + _CHUNK].astype(np.uint64)
        digits = _digits(part, groups)[:, 4 * groups - width :]
        for k in range(width - 1):  # a leading zero is a NUL
            digits[:, k] *= part >= pow10[k]
        cells[lo : lo + _CHUNK] = digits
    return cells


def _int_column(v: np.ndarray):
    """Cell gather of non-negative integers, from cells of their own."""
    return _int_cells(v), np.arange(len(v)), None


def _rows(columns, sep: str) -> bytearray:
    """Text rows: column j of row i is ``table_j[index_j[i]]``, a minus sign
    in front where ``negative_j[i]``; ``sep`` between columns, a newline after the last.
    """
    widths = [table.shape[1] + 1 for table, _, _ in columns]
    text = bytearray(len(columns[0][1]) * sum(widths))
    buf = np.frombuffer(text, np.uint8).reshape(-1, sum(widths))
    end = 0
    for (table, index, negative), width in zip(columns, widths):
        _items(buf[:, end : end + width - 1])[...] = np.take(_items(table), index)
        if negative is not None:
            buf[:, end][negative] = ord("-")
        end += width
        buf[:, end - 1] = ord(sep)
    buf[:, -1] = ord("\n")
    return text.translate(None, b"\0") if b"\0" in text else text


def _write_table(path, header: str, columns) -> None:
    """Write ``header``, then one comma-separated row per index of equal-length 1-D columns.

    Each block's float columns share one cell table (`_float_cells`);
    integer columns are digit cells (`_int_cells`).  The bytes are those
    of ``repr`` for floats and ``%d`` for integers, row by row.
    """
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for lo in range(0, len(columns[0]), _BLOCK_ROWS):
            block = [col[lo : lo + _BLOCK_ROWS] for col in columns]
            floats = iter(_float_cells(*[col for col in block if col.dtype.kind == "f"]))
            cells = [next(floats) if col.dtype.kind == "f" else _int_column(col) for col in block]
            fh.write(_rows(cells, ","))


def write_mesh(path, mesh: Mesh, field) -> None:
    """ASCII dump: header counts, vertex lines, triangle lines, boundary lines.

    ``field``, a ``(path, values)`` pair, writes the nodal CSV
    ``vertex_id,x,y,value`` in the same pass.  The output is the same bytes
    as ``repr`` and ``%d`` row by row.  Vertices go a block of whole rings at
    a time, after a ball's centre: a polar ring repeats its coordinates'
    magnitudes across the mirror lines, so each distinct magnitude among a
    block's x, y and values is formatted once (`_float_cells`), and both
    files gather the same cells.  Every vertex id is formatted once; the id
    column of the CSV and the triangle and boundary rows gather those cells.
    The mesh must be a polar mesh from `generate_mesh`, as in `assemble_system`.
    """
    _require_polar(mesh)
    nv, m = mesh.nv, mesh.sectors
    first = nv % m  # a ball's centre vertex
    step = m * max(1, _BLOCK_ROWS // m)
    edges = sorted({0, *range(first, nv, step), nv})
    ids = _int_cells(np.arange(nv))
    with open(path, "wb") as fh, open(field[0], "wb") as csv:
        fh.write(f"{nv} {mesh.nt} {len(mesh.boundary_edges)}\n".encode())
        csv.write(b"vertex_id,x,y,value\n")
        for lo, hi in zip(edges, edges[1:]):
            x, y, value = _float_cells(*mesh.vertices[lo:hi].T, field[1][lo:hi])
            fh.write(_rows([x, y], " "))
            csv.write(_rows([(ids, np.arange(lo, hi), None), x, y, value], ","))
            del x, y, value  # so the next block's cells are not built alongside these
        for rows, tags in ((mesh.triangles, mesh.tri_tags), (mesh.boundary_edges, mesh.edge_tags)):
            tag_cells = _int_cells(np.arange(tags.max(initial=0) + 1))
            for lo in range(0, len(rows), _BLOCK_ROWS):
                blk = slice(lo, lo + _BLOCK_ROWS)
                cols = [(ids, col, None) for col in rows[blk].T]
                fh.write(_rows([*cols, (tag_cells, tags[blk], None)], " "))
