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
wherever no off-centre disk can reach.
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
