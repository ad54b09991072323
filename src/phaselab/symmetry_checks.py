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

from .fem2d import BoundaryFlux, CircleSampler, FemSystem, Mesh

__all__ = [
    "FluxStats",
    "ModeSpectrum",
    "TransmissionStats",
    "ProbeStats",
    "flux_residual",
    "angular_spectrum",
    "angular_spectrum_of",
    "spectrum_from_samples",
    "radiality_verdict",
    "transmission_residual",
    "probe_deviation",
]

MEAN_GUARD = 1e-12  # below this the relative scaling of a deviation is meaningless


@dataclass(frozen=True)
class FluxStats:
    """Weighted spread of the recovered boundary flux.

    A symmetric layout makes the flux constant *on each boundary loop*, but
    the constants differ between the loops of an annulus, so the spread is
    measured per component and the worst one is reported.  ``mean`` is still
    the weighted mean over the whole boundary -- that is the quantity the
    divergence theorem pins down.  ``rel_deviation`` divides the deviation by
    the component's |mean| unless that mean is essentially zero, in which
    case the absolute value is reported unscaled and ``absolute_fallback``
    is set.
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
        cfall = abs(cmean) < MEAN_GUARD
        crel = cdev if cfall else cdev / abs(cmean)
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
    circle, with row k = 0 storing the plain angular mean in ``cos_coeffs``.
    Energies weight each circle by its radius (arc-length measure), count the
    mean with the squared-norm factor 2, and the non-radial fraction is the
    amplitude ratio sqrt(E_perp / E_total).
    """

    radii: tuple[float, ...]
    cos_coeffs: np.ndarray  # (n_radii, k_max + 1)
    sin_coeffs: np.ndarray
    perp_energy: float
    total_energy: float
    nonradial_fraction: float
    dominant_mode: int


def spectrum_from_samples(radii, samples: np.ndarray, k_max: int = 16) -> ModeSpectrum:
    """Build the spectrum from uniformly spaced angular samples, one row per circle."""
    samples = np.atleast_2d(np.asarray(samples, float))
    radii = tuple(float(r) for r in np.atleast_1d(radii))
    if len(radii) != len(samples):
        raise ValueError("one sample row per circle is required")
    m = samples.shape[1]
    if k_max >= m // 2:
        raise ValueError("k_max must stay below half the angular sample count")
    j = np.arange(m)
    theta = 2 * np.pi * (j + 0.5) / m
    ks = np.arange(k_max + 1)
    cosm = np.cos(np.outer(ks, theta))
    sinm = np.sin(np.outer(ks, theta))
    a = (2.0 / m) * samples @ cosm.T
    b = (2.0 / m) * samples @ sinm.T
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


def angular_spectrum(
    mesh: Mesh, u: np.ndarray, radii, n_angles: int = 256, k_max: int = 16
) -> ModeSpectrum:
    """Spectrum of a nodal field, interpolated onto circles of the given radii."""
    rows = [CircleSampler(mesh, r, count=n_angles).values(u) for r in np.atleast_1d(radii)]
    return spectrum_from_samples(radii, np.vstack(rows), k_max=k_max)


def angular_spectrum_of(fn, radii, n_angles: int = 256, k_max: int = 16) -> ModeSpectrum:
    """Spectrum of a callable on (n, 2) coordinates; for analytic cross-checks."""
    radii = np.atleast_1d(radii)
    theta = 2 * np.pi * (np.arange(n_angles) + 0.5) / n_angles
    rows = []
    for r in radii:
        pts = r * np.column_stack([np.cos(theta), np.sin(theta)])
        rows.append(np.asarray(fn(pts), float))
    return spectrum_from_samples(radii, np.vstack(rows), k_max=k_max)


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
    core = mesh.tri_tags >= 1
    if not core.any():
        return TransmissionStats(residual=0.0, defined=False, core_area=0.0)
    b, c, area = mesh.geometry
    uT = u[mesh.triangles]
    A2 = (2 * area)[:, None]
    gx = (uT * b / A2).sum(axis=1)[core]
    gy = (uT * c / A2).sum(axis=1)[core]
    sig = system.sigma_e[core]

    cents = mesh.centroids()[core]
    r_c = np.linalg.norm(cents, axis=1)
    qp = aux_profile.derivative(np.clip(r_c, aux_profile.r0, aux_profile.R))
    ex, ey = cents[:, 0] / r_c, cents[:, 1] / r_c

    a_core = area[core]
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
    """

    mean_u: float
    dev_u: float
    u_absolute: bool
    mean_flux: float
    dev_flux: float
    flux_absolute: bool


def probe_deviation(sampler: CircleSampler, u: np.ndarray, sigma_e=None) -> ProbeStats:
    out = []
    vals = sampler.values(u)
    flux = sampler.radial_flux(u, sigma_e)
    for v in (vals, flux):
        mean = float(v.mean())
        dev = float(np.abs(v - mean).max())
        fallback = abs(mean) < MEAN_GUARD
        out.append((mean, dev if fallback else dev / abs(mean), fallback))
    (mu, du, fu), (mf, df, ff) = out
    return ProbeStats(
        mean_u=mu, dev_u=du, u_absolute=fu, mean_flux=mf, dev_flux=df, flux_absolute=ff
    )
