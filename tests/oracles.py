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
same order, so the two agree bit for bit.
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
