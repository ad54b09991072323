"""Symmetry diagnostics for composite conductors.

A concentric layout produces an equilibrium whose boundary flux is constant,
whose angular spectrum on interior circles is purely radial, and whose flux
inside each inclusion matches the gradient of the conductivity-one reference
solution.  Each check here turns one of those statements into a scalar
residual with a threshold; an off-centre inclusion makes at least one of
them fire.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem2d import BoundaryFlux, CircleSampler, FemSystem, Mesh, _centroids, _vertex_angle_values

__all__ = [
    "FluxStats",
    "ModeSpectrum",
    "TransmissionStats",
    "ProbeStats",
    "flux_residual",
    "angular_spectrum",
    "spectrum_from_samples",
    "radiality_verdict",
    "transmission_residual",
    "probe_deviation",
]

# Highest angular mode a spectrum reports.  Fewer than 2 * (K_MAX + 1) samples
# cap it at m/2 - 1: 3n - 1 on a mesh of 6n sectors, so below n = 6.
K_MAX = 16

# A mean below MEAN_GUARD times the flux's RMS makes a deviation relative to
# it meaningless.  The probe compares its means with MEAN_GUARD itself: its flux
# starts as round-off on a state of order one (see ``probe_deviation``).
MEAN_GUARD = 1e-12


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
    for tag in np.unique(flux.component):
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


def radiality_verdict(spectrum: ModeSpectrum, tol: float = 1e-3) -> bool:
    """True when the non-radial amplitude fraction stays below the threshold."""
    return spectrum.nonradial_fraction < tol


@dataclass(frozen=True)
class TransmissionStats:
    """Inclusion-interior mismatch between sigma * grad(u) and the reference gradient.

    The reference is the radial conductivity-one equilibrium of the same
    domain and source; for a concentric layout the co-normal flux of the true
    solution reproduces its gradient inside every inclusion, so the
    area-weighted relative mismatch is a symmetry residual.  ``defined`` is
    False when the layout has no inclusion elements (nothing to compare).
    """

    residual: float
    defined: bool
    core_area: float


def transmission_residual(system: FemSystem, u: np.ndarray, aux_profile) -> TransmissionStats:
    mesh = system.mesh
    core = np.flatnonzero(mesh.tri_tags >= 1)
    if not len(core):
        return TransmissionStats(residual=0.0, defined=False, core_area=0.0)
    b, c, a_core = (a[core] for a in mesh.geometry)
    corners = mesh.triangles[core]
    uT = u[corners]
    A2 = (2 * a_core)[:, None]
    gx = (uT * b / A2).sum(axis=1)
    gy = (uT * c / A2).sum(axis=1)
    sig = system.sigma_e[core]

    cents = _centroids(mesh.vertices, corners)
    r_c = np.linalg.norm(cents, axis=1)
    qp = aux_profile.derivative(np.clip(r_c, aux_profile.r0, aux_profile.R))
    ex, ey = cents[:, 0] / r_c, cents[:, 1] / r_c

    num = (a_core * ((sig * gx - qp * ex) ** 2 + (sig * gy - qp * ey) ** 2)).sum()
    den = (a_core * qp**2).sum()
    if den <= 0.0:
        return TransmissionStats(residual=0.0, defined=False, core_area=float(a_core.sum()))
    return TransmissionStats(
        residual=float(num / den), defined=True, core_area=float(a_core.sum())
    )


@dataclass(frozen=True)
class ProbeStats:
    """Angular uniformity of a field and its radial flux on one probe circle.

    Deviations are sup-norm relative to the angular mean; when a mean is
    essentially zero the deviation is reported unscaled with the matching
    ``*_absolute`` flag set (a ratio against noise would be meaningless).
    The guard is absolute: the heat flow's probe flux starts as round-off on
    a state of order one, which a guard relative to the samples would turn
    into a deviation of order one.
    """

    mean_u: float
    dev_u: float
    u_absolute: bool
    mean_flux: float
    dev_flux: float
    flux_absolute: bool


def probe_deviation(sampler: CircleSampler, u: np.ndarray, sigma_e=None) -> ProbeStats:
    return _probe_stats(sampler.values(u), sampler.radial_flux(u, sigma_e))


def _probe_stats(values: np.ndarray, flux: np.ndarray) -> ProbeStats:
    """Means and deviations of the samples of u and of its flux on one probe circle."""
    mu, du, mf, df = _probe_table(values, flux).tolist()
    return ProbeStats(
        mean_u=mu,
        dev_u=du,
        u_absolute=abs(mu) < MEAN_GUARD,
        mean_flux=mf,
        dev_flux=df,
        flux_absolute=abs(mf) < MEAN_GUARD,
    )


def _probe_table(values: np.ndarray, flux: np.ndarray) -> np.ndarray:
    """Mean u, deviation of u, mean flux and deviation of the flux, shape (..., 4).

    ``values`` and ``flux`` hold one probe circle's samples along their last
    axis.  Each mean is numpy's pairwise sum of one row when that axis is
    contiguous, so a block of rows gives the same bits as one row at a time.
    """
    out = []
    for v in (values, flux):
        mean = v.mean(axis=-1)
        dev = np.abs(v - mean[..., None]).max(axis=-1)
        out += [mean, dev / np.where(np.abs(mean) < MEAN_GUARD, 1.0, np.abs(mean))]
    return np.stack(out, axis=-1)
