"""Independent numerical references used to freeze expected values.

Nothing here shares code with the package: the radial boundary-value oracle
is a flux-form finite-difference scheme on a fine composite grid, and the
annulus eigenvalue oracle is a symmetrized tridiagonal discretization solved
by LAPACK.  Both converge to the same continuum objects the package computes
in closed form, which is what makes them useful as cross-checks.  The
displaced-core flux oracle solves the continuum transmission problem by a
conformal map and a Fourier series, which the package never uses.  The
element tagging oracle tests every triangle's centroid with the layout's own
point test, where the mesh generator tests one centroid per rotation orbit
wherever no off-centre disk can reach.  The triangle table is built by
gathers and scatters, where the generator writes ring slices into a
(band, sector, side, corner) view.  The assembly reference gathers every
triangle's corners and forms its whole 3x3 element blocks, where the package
takes ring slices and forms each distinct entry once; it sums them in the
same order, so the two agree bit for bit.  It keeps all seven slots of the
polar pattern, where the package stores the four inward ones and reads the
outward three as their mirrors; `SevenSlotOperator` and `orbit_mean_solve`
multiply, compress and solve with all seven.  The boundary sets and the
boundary weights and loop tags are read from the mesh's boundary edges by
counts and scatters, where the package reads them from the polar numbering.
"""

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.linalg import eigh_tridiagonal, solve_banded


def fd_radial_bvp(breaks, sigmas, g_coeffs, dim=2, cells_per_unit=40000):
    """Solve -(sigma r^(d-1) U')' = g r^(d-1), U = 0 at the outer ends.

    Nodes are placed on every material interface; conductivities are sampled
    at midpoints between nodes, so no stencil straddles a jump.  On a ball
    the origin carries the natural no-flux condition.  Returns (r, U) on the
    composite grid.
    """
    breaks = [float(b) for b in breaks]
    nodes = [np.array([breaks[0]])]
    sig_mid = []
    for lo, hi, s in zip(breaks, breaks[1:], sigmas):
        n = max(8, int(round((hi - lo) * cells_per_unit)))
        seg = np.linspace(lo, hi, n + 1)
        nodes.append(seg[1:])
        sig_mid.append(np.full(n, float(s)))
    r = np.concatenate(nodes)
    sig_mid = np.concatenate(sig_mid)

    h = np.diff(r)  # h[i] spans r[i] .. r[i+1]
    r_mid = 0.5 * (r[:-1] + r[1:])
    cond = sig_mid * r_mid ** (dim - 1) / h  # face conductances

    ball = breaks[0] == 0.0
    # unknowns: all nodes except the Dirichlet ends (outer always; inner if annulus)
    lo_fixed = 0 if ball else 1
    idx = np.arange(lo_fixed, len(r) - 1)
    n_unk = len(idx)
    main = np.zeros(n_unk)
    upper = np.zeros(n_unk)
    lower = np.zeros(n_unk)
    rhs = np.zeros(n_unk)
    gvals = npoly.polyval(r, np.asarray(g_coeffs, float))
    for row, i in enumerate(idx):
        left = cond[i - 1] if i > 0 else 0.0  # no-flux face at the origin
        right = cond[i]
        main[row] = left + right
        if row > 0:
            lower[row] = -left
        if row < n_unk - 1:
            upper[row] = -right
        w = 0.5 * ((h[i - 1] if i > 0 else 0.0) + h[i])
        rhs[row] = gvals[i] * r[i] ** (dim - 1) * w
    ab = np.zeros((3, n_unk))
    ab[0, 1:] = upper[:-1]
    ab[1] = main
    ab[2, :-1] = lower[1:]
    u_unk = solve_banded((1, 1), ab, rhs)
    U = np.zeros(len(r))
    U[idx] = u_unk
    return r, U


def fd_annulus_eigenvalue(r_inner, r_outer, n=4000):
    """Smallest radial Dirichlet eigenvalue of the annulus, symmetrized FD."""
    h = (r_outer - r_inner) / (n + 1)
    r = r_inner + h * np.arange(1, n + 1)
    rp = r + h / 2
    rm = r - h / 2
    d = (rp + rm) / (h * h * r)
    e = -rp[:-1] / (h * h * np.sqrt(r[:-1] * r[1:]))
    vals = eigh_tridiagonal(d, e, select="i", select_range=(0, 0), eigvals_only=True)
    return float(vals[0])


DISK_LAMBDA_EXACT = 2.404825557695773**2  # squared first root of J0


def displaced_disk_flux_spread(sigma, center, radius, modes=64):
    """Continuum boundary-flux spread of one off-centre disk core in the unit disk.

    Solves -div(s grad u) = 1 with u = 0 on |x| = 1, where s = sigma in the
    core D = {|x - center| < radius} and s = 1 in the shell, and returns the
    RMS deviation of the outward flux on |x| = 1 from its mean, divided by
    |mean| = 1/2 -- the continuum value of ``FluxStats.rel_deviation``.

    Reduction.  Write u = 1/4 - |x|^2/4 + h in the shell and
    u = -|x|^2/(4 sigma) + h in the core.  Then h is harmonic in each region,
    vanishes on |x| = 1, and across the interface
    h_in - h_out = psi = 1/4 - |x|^2/4 + |x|^2/(4 sigma) and
    d_nu h_out = sigma d_nu h_in (the particular fluxes -x.nu/2 cancel).
    The outward flux is -1/2 + d_r h_out on |x| = 1.

    The disk automorphism phi(z) = (z - a)/(1 - a z), with real a chosen so
    that phi(center - radius) = -phi(center + radius), maps the unit disk to
    itself and D onto the centred disk |w| < rho.  Harmonicity, the pointwise
    jump and the flux ratio are all conformally invariant, so in the w-plane
    the problem splits by Fourier mode of Psi = psi o phi^-1 on |w| = rho.
    Mode k >= 1 takes H_in = A r^k, H_out = B (r^k - r^-k); the two interface
    conditions give the outer flux coefficient

        d_r H_out(1) = psi_k * 2 k sigma rho^k / (1 + sigma + (1 - sigma) rho^(2k)),

    and mode 0 carries no flux.  Mapping back multiplies the flux by
    |phi'(z)| = (1 - a^2)/|1 - a z|^2 on |z| = 1.

    Truncation: ``modes`` Fourier modes of Psi, taken from 4 * modes samples
    on |w| = rho, and the RMS is a trapezoidal mean over 8 * modes points
    of |z| = 1.  The multiplier uses rho^k and rho^(2k) only, both at most 1,
    so a high mode underflows to zero and nothing can overflow.
    """
    sigma = float(sigma)
    c = float(np.hypot(*center))
    x1, x2 = c - float(radius), c + float(radius)
    s, p = x1 + x2, 1.0 + x1 * x2
    a = s / (p + np.sqrt(p * p - s * s))  # root of s a^2 - 2 p a + s = 0 in (-1, 1)
    rho = (x2 - a) / (1.0 - a * x2)

    n_psi = 4 * modes
    w = rho * np.exp(2j * np.pi * np.arange(n_psi) / n_psi)
    z = (w + a) / (1.0 + a * w)
    psi = 0.25 + np.abs(z) ** 2 * (1.0 / sigma - 1.0) / 4.0
    coeffs = np.fft.fft(psi)[1 : modes + 1] / n_psi
    k = np.arange(1, modes + 1)
    rho_k = rho**k
    mult = 2.0 * k * sigma * rho_k / (1.0 + sigma + (1.0 - sigma) * rho_k**2)

    n_z = 8 * modes
    z = np.exp(2j * np.pi * np.arange(n_z) / n_z)
    w = (z - a) / (1.0 - a * z)
    wave = np.exp(1j * np.outer(np.angle(w), k))
    dh = 2.0 * np.real(wave @ (mult * coeffs)) * (1.0 - a * a) / np.abs(1.0 - a * z) ** 2
    return float(np.sqrt(np.mean((dh - dh.mean()) ** 2)) / 0.5)


def tag_triangles(vertices, triangles, config):
    """Region tag per triangle, decided at the centroid."""
    return config.region_index_at(vertices[triangles].mean(axis=1))


def boundary_partition(mesh):
    """The free and the boundary vertices, sorted: the vertices no boundary edge
    touches, and those that one does."""
    boundary = np.flatnonzero(np.bincount(mesh.boundary_edges.reshape(-1)))
    keep = np.ones(mesh.nv, dtype=bool)
    keep[boundary] = False
    return np.flatnonzero(keep), boundary


def boundary_weights(mesh, boundary):
    """Each boundary vertex's half-sum of its two edge lengths and its loop tag.

    Each edge adds half its length to both of its ends, edge by edge, and
    tags both with its loop.
    """
    w = np.zeros(mesh.nv)
    be = mesh.boundary_edges
    el = np.linalg.norm(mesh.vertices[be[:, 0]] - mesh.vertices[be[:, 1]], axis=1)
    np.add.at(w, be[:, 0], el / 2)
    np.add.at(w, be[:, 1], el / 2)
    vtag = np.zeros(mesh.nv, dtype=np.int64)
    vtag[be[:, 0]] = mesh.edge_tags
    vtag[be[:, 1]] = mesh.edge_tags
    return w[boundary], vtag[boundary]


# The polar mesh's layout, restated: the seven couplings of the vertex of ring
# q, sector j as (ring, sector) offsets in column order, and the corners of a
# band's two sides as offsets from its inner ring at sector j.
SLOTS = ((-1, -1), (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0), (1, 1))
SIDES = (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1)))


def polar_triangles(m, fan):
    """The triangle table of a polar mesh with m sectors, m/6 bands and ``fan``
    centre vertices, built by fancy indexing: every (band, sector) gathers its
    four vertex ids and scatters each side to its triangle number.
    """
    n = m // 6
    ids = np.vstack([np.zeros((fan, m), np.int64), np.arange(fan, fan + (n + 1 - fan) * m).reshape(-1, m)])
    band, j = np.divmod(np.arange(n * m), m)
    inner, outer = ids[band, j], ids[band + 1, j]
    inner2, outer2 = ids[band, (j + 1) % m], ids[band + 1, (j + 1) % m]
    quad = band >= fan  # a ball's band 0 is the centre fan, one triangle per sector

    def index(side):
        return np.where(band < fan, j, 2 * (band * m + j) + side - fan * m)

    T = np.empty((m * (2 * n - fan), 3), dtype=np.int64)
    T[index(0)] = np.column_stack([inner, outer, outer2])
    T[index(1)[quad]] = np.column_stack([inner, outer2, inner2])[quad]
    return T


def tri_geometry(vertices, triangles):
    """Edge coefficients b, c (nt, 3) and areas (nt,) of the triangles, from gathered corners."""
    (x0, y0), (x1, y1), (x2, y2) = (vertices[triangles[:, k]].T for k in range(3))
    b = np.stack([y1 - y2, y2 - y0, y0 - y1], axis=-1)
    c = np.stack([x2 - x1, x0 - x2, x1 - x0], axis=-1)
    area = 0.5 * (x0 * b[:, 0] + x1 * b[:, 1] + x2 * b[:, 2])
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


def polar_assembly(mesh, blocks, block_triangles):
    """The slot values (7, rings, m) and the centre row of the polar operator that
    sums the element blocks ``blocks`` (nt, 3, 3), in the order of a band-block
    assembly: a ball's centre fan, then blocks of whole bands of at most
    ``block_triangles`` triangles, each block's entries (a, c) of side s added
    in the order (s, a, c), the row of corner a at sector j+1 where it sits.
    """
    m = mesh.sectors
    fan, n = mesh.nv % m, m // 6
    A = np.zeros((7, n + 1, m))  # a ball's centre stands in for ring 0

    def add_bands(A, E):  # E: (bands, m, sides, 3, 3)
        for s in range(E.shape[2]):
            for a, (ra, ja) in enumerate(SIDES[s]):
                for c, (rc, jc) in enumerate(SIDES[s]):
                    dst = A[SLOTS.index((rc - ra, jc - ja)), ra : ra + len(E)]
                    src = E[:, :, s, a, c]
                    if ja:
                        dst[:, 1:] += src[:, :-1]
                        dst[:, 0] += src[:, -1]
                    else:
                        dst += src

    if fan:
        add_bands(A[:, :2], blocks[:m].reshape(1, m, 1, 3, 3))
    step = max(1, block_triangles // (2 * m))
    for lo in range(fan, n, step):
        hi = min(lo + step, n)
        add_bands(A[:, lo : hi + 1], blocks[(2 * lo - fan) * m : (2 * hi - fan) * m].reshape(hi - lo, m, 2, 3, 3))
    values, centre = A[:, fan:], np.empty(0)
    if fan:  # ring 1 reaches the centre along both inner slots; the centre row sums sector by sector
        values[1, 0] += values[0, 0]
        values[0, 0] = 0.0
        inner = A[:, 0]
        centre = np.concatenate([[np.cumsum(inner[3])[-1]], inner[5] + np.roll(inner[6], 1)])
    return values, centre


# Slot orders that sort the columns of sectors 0 and m-1, where j-1 or j+1 wraps.
WRAPPED = ((0, (1, 0, 3, 4, 2, 5, 6)), (-1, (0, 1, 4, 2, 3, 6, 5)))


class SevenSlotOperator:
    """A polar operator that stores all seven slots, (7, rings, m), as
    `polar_assembly` sums them, and its centre row.

    The reference for an operator that stores fewer: the product sums every
    row in CSR column order from +0.0, each slot's values against one
    contiguous slice of a zero-padded copy of x, and sectors 0 and m-1, whose
    columns wrap, from gathers; `tocsr` drops the entries that are exactly 0.
    """

    def __init__(self, values, centre):
        self.values, self.centre = values, centre
        self.fan = min(len(centre), 1)
        self.sectors = values.shape[2]
        nv = self.fan + values[0].size
        self.shape = (nv, nv)

    @property
    def nnz(self):
        return int(np.count_nonzero(self.values)) + int(np.count_nonzero(self.centre))

    def matvec(self, x, lo=0, hi=None):
        """Rows and columns [lo, hi) times x: whole rings, and a ball's centre if lo is 0."""
        m, fan = self.sectors, self.fan
        rings = self.values.shape[1]
        hi = self.shape[0] if hi is None else hi
        head = fan if lo == 0 else 0
        a, b = (lo + head - fan) // m, (hi - fan) // m
        out = np.empty(hi - lo)
        ghosts = np.zeros((rings + 2) * m + 2)  # ring q, sector j at 1 + (q + 1) m + j
        ghosts[1 + a * m : 1 + (a + 1) * m] = x[0] if head else 0.0
        ghosts[1 + (a + 1) * m : 1 + (b + 1) * m] = x[head:]
        y = out[head:]
        for k, (dq, dj) in enumerate(SLOTS):
            start = 1 + (a + 1 + dq) * m + dj
            term = self.values[k, a:b].reshape(-1) * ghosts[start : start + len(y)]
            if k:
                y += term
            else:
                y[...] = term
        y += 0.0
        sectors = np.array([s % m for s, _ in WRAPPED])[:, None]
        order = np.array([o for _, o in WRAPPED]).T[..., None]
        dq, dj = (np.array(d)[order] for d in zip(*SLOTS))
        at = 1 + (np.arange(rings) + 1 + dq) * m + (sectors + dj) % m
        terms = self.values[order, np.arange(rings), sectors][..., a:b] * ghosts[at[..., a:b]]
        wrap = terms[0]
        for term in terms[1:]:
            wrap += term
        wrap += 0.0
        y = y.reshape(b - a, m)
        y[:, 0], y[:, -1] = wrap
        if head:
            out[0] = np.cumsum(self.centre * x[: 1 + m])[-1] + 0.0
        return out

    def tocsr(self):
        """Canonical CSR without the entries that are exactly 0, int32 indices."""
        import scipy.sparse as sp

        m, fan = self.sectors, self.fan
        rings = self.values.shape[1]
        order = np.tile(np.arange(7), (m, 1))
        for sector, o in WRAPPED:
            order[sector] = o
        dq, dj = (np.array(d, np.int32)[order] for d in zip(*SLOTS))
        cols = fan + (np.arange(rings, dtype=np.int32)[:, None, None] + dq) * m
        cols += (np.arange(m, dtype=np.int32)[:, None] + dj) % m
        if fan:
            cols[0, :, :2] = 0
        rows = np.take_along_axis(np.moveaxis(self.values, 0, -1), order[None], axis=2)
        keep = rows != 0.0
        head_cols = np.flatnonzero(self.centre).astype(np.int32)
        indptr = np.zeros(self.shape[0] + 1, np.int32)
        indptr[fan] = len(head_cols)
        np.cumsum(keep.sum(axis=2).reshape(-1), out=indptr[fan + 1 :])
        indptr[fan + 1 :] += len(head_cols)
        data = np.concatenate([self.centre[head_cols], rows[keep]])
        indices = np.concatenate([head_cols, cols[keep]])
        return sp.csr_matrix((data, indices, indptr), shape=self.shape)


def orbit_mean_solve(mesh, A, r):
    """The free block of the seven-slot operator ``A`` with its stencil averaged over
    the sectors, solved for ``r``: an rfft along every free ring, then each mode's
    Hermitian tridiagonal radial system by L D L^H, a ball's centre heading mode 0.
    """
    m = mesh.sectors
    fan = mesh.nv % m
    rings, modes, root_m = m // 6 - 1, m // 2 + 1, np.sqrt(m)
    first = 1 - fan
    stencil = A.values[:, first : first + rings].mean(axis=2)  # (7, rings)
    phase = np.exp(2j * np.pi * np.outer([-1, 0, 1], np.arange(modes)) / m).view(float)
    D = np.einsum("dr,dk->rk", stencil[2:5], phase).view(complex).real.copy()
    E = np.einsum("dr,dk->rk", stencil[:2, 1:], phase[:2]).view(complex)
    d0, e0 = (A.centre[0], A.centre[1:].sum() / root_m) if fan else (1.0, 0.0)
    E2 = np.square(E.real) + np.square(E.imag)
    D[0, 0] -= e0 * e0 / d0
    for q in range(rings - 1):
        D[q + 1] -= E2[q] / D[q]
    L = E * (1.0 / D[:-1])
    l0 = e0 / d0
    Y = np.fft.rfft(r[fan:].reshape(rings, m), axis=1)
    t = np.empty(modes, complex)
    if fan:
        c = root_m * r[0]
        Y[0, 0] -= c * l0
        c /= d0
    for q in range(rings - 1):
        np.subtract(Y[q + 1], np.multiply(Y[q], L[q], t), Y[q + 1])
    Yf = Y.view(float)
    np.divide(Yf, np.repeat(D, 2).reshape(rings, 2 * modes), Yf)
    for q in range(rings - 1, 0, -1):
        np.subtract(Y[q - 1], np.multiply(Y[q], L[q - 1].conj(), t), Y[q - 1])
    v = np.empty_like(r)
    if fan:
        v[0] = (c - l0 * Y[0, 0].real) / root_m
    v[fan:] = np.fft.irfft(Y, n=m, axis=1).reshape(-1)
    return v
