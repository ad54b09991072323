"""Symmetry diagnostics for composite conductors.

A concentric layout produces an equilibrium whose boundary flux is constant,
whose angular spectrum on interior circles is purely radial, and whose flux
inside each inclusion matches the gradient of the conductivity-one reference
solution (on an annulus, up to a multiple of e_r/r).  Each check here turns
one of those statements into a scalar residual; the detector table in
``cli_reporting`` holds their thresholds, and an off-centre inclusion makes
at least one of them fire.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem2d import BoundaryFlux, FemSystem, Mesh, _centroids, _tri_geometry, _vertex_angle_values

__all__ = [
    "FluxStats",
    "ModeSpectrum",
    "TransmissionStats",
    "flux_residual",
    "angular_spectrum",
    "spectrum_from_samples",
    "transmission_residual",
    "probe_deviation",
]

# Highest angular mode a spectrum reports.  Fewer than 2 * (K_MAX + 1) samples
# cap it at m/2 - 1: 3n - 1 on a mesh of 6n sectors, so below n = 6.
K_MAX = 16

# A mean below MEAN_GUARD times the flux's RMS makes a deviation relative to
# it meaningless.  The probe compares its means with MEAN_GUARD itself (see
# ``probe_deviation``).
MEAN_GUARD = 1e-12

# Core triangles per block of `transmission_residual`: at this size a block's
# temporaries take about a MiB.
_BLOCK_TRIANGLES = 4096


@dataclass(frozen=True)
class FluxStats:
    """Weighted spread of the recovered boundary flux.

    A symmetric layout makes the flux constant *on each boundary loop*, but
    the constants differ between the loops of an annulus, so the spread is
    measured per component and the worst one is reported.  ``mean`` is still
    the weighted mean over the whole boundary -- that is the quantity the
    divergence theorem pins down.  ``rel_deviation`` divides the deviation by
    the component's |mean| unless that mean is essentially zero against the
    component's weighted RMS of the flux; then it is divided by that RMS, so
    it stays free of units and of the source's scale, and
    ``absolute_fallback`` is set.
    """

    mean: float
    deviation: float
    rel_deviation: float
    absolute_fallback: bool
    component_means: tuple[float, ...]
    component_rel_deviations: tuple[float, ...]


def flux_residual(flux: BoundaryFlux) -> FluxStats:
    w = flux.weights
    f = flux.values
    mean = float((w * f).sum() / w.sum())
    comp_means: list[float] = []
    comp_rels: list[float] = []
    worst_dev = 0.0
    worst_rel = 0.0
    fallback = False
    # the loop tags, sorted like np.unique, which would import numpy.ma on ints
    for tag in np.flatnonzero(np.bincount(flux.component)):
        m = flux.component == tag
        wm, fm = w[m], f[m]
        cmean = float((wm * fm).sum() / wm.sum())
        cdev = float(np.sqrt((wm * (fm - cmean) ** 2).sum() / wm.sum()))
        crms = float(np.sqrt((wm * fm**2).sum() / wm.sum()))
        cfall = not abs(cmean) > MEAN_GUARD * crms  # an all-zero flux falls back too
        scale = crms if cfall else abs(cmean)
        crel = cdev / scale if scale > 0.0 else 0.0
        comp_means.append(cmean)
        comp_rels.append(crel)
        worst_dev = max(worst_dev, cdev)
        worst_rel = max(worst_rel, crel)
        fallback = fallback or cfall
    return FluxStats(
        mean=mean,
        deviation=worst_dev,
        rel_deviation=worst_rel,
        absolute_fallback=fallback,
        component_means=tuple(comp_means),
        component_rel_deviations=tuple(comp_rels),
    )


@dataclass(frozen=True)
class ModeSpectrum:
    """Angular Fourier content of a field sampled on concentric circles.

    ``cos_coeffs[i, k]`` and ``sin_coeffs[i, k]`` hold a_k, b_k on the i-th
    circle for the angles 2 pi j / m of the m samples, with row k = 0 storing
    the plain angular mean in ``cos_coeffs``.  Modes run up to K_MAX, or up to
    m/2 - 1 when the samples are fewer.  Energies weight each circle by its
    radius (arc-length measure), count the mean with the squared-norm factor
    2, and the non-radial fraction is the amplitude ratio sqrt(E_perp / E_total).
    """

    radii: tuple[float, ...]
    cos_coeffs: np.ndarray  # (n_radii, k_max + 1)
    sin_coeffs: np.ndarray
    perp_energy: float
    total_energy: float
    nonradial_fraction: float
    dominant_mode: int


def spectrum_from_samples(radii, samples: np.ndarray) -> ModeSpectrum:
    """Build the spectrum from samples at the angles 2 pi j / m, one row per circle."""
    samples = np.atleast_2d(np.asarray(samples, float))
    radii = tuple(float(r) for r in np.atleast_1d(radii))
    if len(radii) != len(samples):
        raise ValueError("one sample row per circle is required")
    m = samples.shape[1]
    c = np.fft.rfft(samples, axis=1)[:, : min(K_MAX, m // 2 - 1) + 1]
    a = (2.0 / m) * c.real
    b = (-2.0 / m) * c.imag
    a[:, 0] = samples.mean(axis=1)
    b[:, 0] = 0.0

    rw = np.asarray(radii)
    mode_energy = (rw[:, None] * (a[:, 1:] ** 2 + b[:, 1:] ** 2)).sum(axis=0)
    perp = float(mode_energy.sum())
    total = float((rw * 2 * a[:, 0] ** 2).sum() + perp)
    if total > 0.0:
        fraction = float(np.sqrt(perp / total))
    else:
        fraction = 0.0
    dominant = int(np.argmax(mode_energy)) + 1 if perp > 0.0 else 0
    return ModeSpectrum(
        radii=radii,
        cos_coeffs=a,
        sin_coeffs=b,
        perp_energy=perp,
        total_energy=total,
        nonradial_fraction=fraction,
        dominant_mode=dominant,
    )


def angular_spectrum(mesh: Mesh, u: np.ndarray, radii) -> ModeSpectrum:
    """Spectrum of a nodal field on circles of the given radii, at the mesh's vertex angles.

    The samples are exact values of the P1 field, so a turn of the field by
    whole sectors is a cyclic shift of them and leaves every amplitude in place.
    """
    return spectrum_from_samples(radii, _vertex_angle_values(mesh, u, radii))


@dataclass(frozen=True)
class TransmissionStats:
    """Inclusion-interior mismatch between sigma * grad(u) and the reference gradient.

    The reference is the radial conductivity-one equilibrium of the same
    domain and source.  On a ball, the co-normal flux of a concentric
    layout's true solution reproduces its gradient inside every inclusion.
    On an annulus the flux through the hole depends on sigma, so it
    reproduces the gradient plus c/r along the radius for one constant c.
    The area-weighted relative mismatch is a symmetry residual.  ``defined``
    is False when the layout has no inclusion elements (nothing to compare).
    """

    residual: float
    defined: bool
    core_area: float


def transmission_residual(system: FemSystem, u: np.ndarray, aux_profile) -> TransmissionStats:
    """Area-weighted mismatch over the inclusion elements (tag >= 1).

    On an annulus, the c of the hole's c/r term is first fitted by
    area-weighted least squares over the same triangles; on a ball it is 0.
    The per-triangle terms are computed a block of at most
    `_BLOCK_TRIANGLES` core triangles at a time into one array per sum, and
    each sum runs once over its whole array: numpy's pairwise sum of the
    same terms, so the block size moves no bit.
    """
    mesh = system.mesh
    core = np.flatnonzero(mesh.tri_tags >= 1)
    if not len(core):
        return TransmissionStats(residual=0.0, defined=False, core_area=0.0)

    def blocks():
        """Per block: its slice, areas, sigma * grad(u), q' and the centroids' e_r and radius."""
        for lo in range(0, len(core), _BLOCK_TRIANGLES):
            blk = slice(lo, lo + _BLOCK_TRIANGLES)
            tri = core[blk]
            corners = mesh.triangles[tri]
            b, c, area = _tri_geometry(mesh.vertices, corners)
            uT = u[corners]
            A2 = (2 * area)[:, None]
            sig = system.sigma_table[mesh.tri_tags[tri]]
            fx = sig * (uT * b / A2).sum(axis=1)
            fy = sig * (uT * c / A2).sum(axis=1)

            cents = _centroids(mesh.vertices, corners)
            r_c = np.linalg.norm(cents, axis=1)
            qp = aux_profile.derivative(np.clip(r_c, aux_profile.r0, aux_profile.R))
            yield blk, area, fx, fy, qp, cents[:, 0] / r_c, cents[:, 1] / r_c, r_c

    c_hole = 0.0
    if aux_profile.r0 > 0.0:
        fit = np.empty((2, len(core)))  # the normal equation's two sums
        for blk, area, fx, fy, qp, ex, ey, r_c in blocks():
            fit[0, blk] = area * (fx * ex + fy * ey - qp) / r_c
            fit[1, blk] = area / r_c**2
        c_hole = float(fit[0].sum() / fit[1].sum())

    terms = np.empty((3, len(core)))  # mismatch, reference and area of each core triangle
    for blk, area, fx, fy, qp, ex, ey, r_c in blocks():
        q = qp + c_hole / r_c  # qp itself on a ball, bit for bit
        terms[0, blk] = area * ((fx - q * ex) ** 2 + (fy - q * ey) ** 2)
        terms[1, blk] = area * qp**2
        terms[2, blk] = area

    num, den, core_area = (float(t.sum()) for t in terms)
    if den <= 0.0:
        return TransmissionStats(residual=0.0, defined=False, core_area=core_area)
    return TransmissionStats(residual=num / den, defined=True, core_area=core_area)


def probe_deviation(samples: np.ndarray) -> np.ndarray:
    """Mean u, deviation of u, mean flux and deviation of the flux, shape (..., 4).

    ``samples`` holds one probe circle's samples along its last axis: u in
    the first half, sigma times u's radial derivative in the second, as
    ``CircleSampler.matrix`` gives them.  Deviations are sup-norm relative to
    the angular mean; a mean below `MEAN_GUARD` leaves its deviation
    unscaled, since a ratio against noise would be meaningless.  The guard is
    absolute: the heat flow's probe flux starts as round-off on a state of
    order one, which a guard relative to the samples would turn into a
    deviation of order one.  Each mean is numpy's pairwise sum of one row
    when the last axis is contiguous, so a block of rows gives the same bits
    as one row at a time.
    """
    count = samples.shape[-1] // 2
    out = []
    for v in (samples[..., :count], samples[..., count:]):
        mean = v.mean(axis=-1)
        dev = np.abs(v - mean[..., None]).max(axis=-1)
        out += [mean, dev / np.where(np.abs(mean) < MEAN_GUARD, 1.0, np.abs(mean))]
    return np.stack(out, axis=-1)
