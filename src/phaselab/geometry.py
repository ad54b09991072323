"""Planar composite conductors: round domains holding disk or ring inclusions.

The background material (the "shell") has conductivity one.  Each inclusion
("phase") carries its own constant conductivity.  Structural hypotheses --
strict interior containment, pairwise separation, a connected shell reaching
the boundary, admissible conductivities -- are reported as boolean flags
rather than raised as errors, so deliberately broken layouts can still be
meshed and diagnosed downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DomainSpec",
    "PhaseRegion",
    "PhaseConfig",
    "HypothesisFlags",
    "validate_configuration",
    "surface_separation_ok",
]

_SIGMA_ONE_TOL = 1e-12
_CENTRED_TOL = 1e-14  # a disk centre this close to the origin is the origin
_SEPARATION_TOL = 1e-12  # slack in comparing a probe circle's distances


@dataclass(frozen=True)
class DomainSpec:
    """A round domain centred at the origin: a ball (disk) or an open annulus."""

    kind: str = "ball"
    outer_radius: float = 1.0
    inner_radius: float = 0.0  # positive only for annuli

    def __post_init__(self) -> None:
        if self.kind not in ("ball", "annulus"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if not (math.isfinite(self.outer_radius) and self.outer_radius > 0):
            raise ValueError("outer_radius must be positive and finite")
        if self.kind == "ball":
            if self.inner_radius != 0.0:
                raise ValueError("a ball has no inner radius")
        elif not 0.0 < self.inner_radius < self.outer_radius:
            raise ValueError("annulus requires 0 < inner_radius < outer_radius")

    def circle_to_boundary(self, rho: float) -> float:
        """Distance from the circle |x| = rho to the domain boundary."""
        d = self.outer_radius - rho
        if self.kind == "annulus":
            d = min(d, rho - self.inner_radius)
        return d


@dataclass(frozen=True)
class PhaseRegion:
    """One inclusion: an open disk, or an open ring concentric with the domain.

    Ring bounds and disk geometry are validated eagerly (nonsense geometry is
    an error); whether the region respects the structural hypotheses of a
    particular layout is a separate question answered by
    :func:`validate_configuration`.
    """

    shape: str  # "disk" | "ring"
    sigma: float
    center: tuple[float, float] = (0.0, 0.0)  # disk only
    radius: float = 0.0  # disk only
    r_inner: float = 0.0  # ring only
    r_outer: float = 0.0  # ring only
    label: str = ""

    def __post_init__(self) -> None:
        if not math.isfinite(self.sigma):
            raise ValueError("phase conductivity must be finite")
        if self.shape == "disk":
            if not (math.isfinite(self.radius) and self.radius > 0):
                raise ValueError("disk phase needs a positive radius")
            if not all(math.isfinite(c) for c in self.center):
                raise ValueError("disk centre must be finite")
        elif self.shape == "ring":
            if not 0.0 < self.r_inner < self.r_outer:
                raise ValueError("ring phase requires 0 < r_inner < r_outer")
        else:
            raise ValueError(f"unknown phase shape {self.shape!r}")

    # -- point queries ----------------------------------------------------

    def contains(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, float))
        if self.shape == "disk":
            return np.linalg.norm(pts - np.asarray(self.center), axis=1) < self.radius
        r = np.linalg.norm(pts, axis=1)
        return (r > self.r_inner) & (r < self.r_outer)

    def distance_to_circle(self, rho: float) -> float:
        """Distance from the circle |x| = rho to the closure of this phase."""
        if self.shape == "disk":
            return max(0.0, abs(rho - math.hypot(*self.center)) - self.radius)
        return max(self.r_inner - rho, rho - self.r_outer, 0.0)

    def containment_margin(self, domain: DomainSpec) -> float:
        """How far the phase closure stays inside the domain (negative = sticks out)."""
        if self.shape == "disk":
            c = math.hypot(*self.center)
            m = domain.outer_radius - (c + self.radius)
            if domain.kind == "annulus":
                m = min(m, (c - self.radius) - domain.inner_radius)
            return m
        m = domain.outer_radius - self.r_outer
        if domain.kind == "annulus":
            m = min(m, self.r_inner - domain.inner_radius)
        return m

    def is_centered(self) -> bool:
        """Concentric with the domain (rings always are; disks if centred)."""
        if self.shape == "ring":
            return True
        return math.hypot(*self.center) <= _CENTRED_TOL

    def interface_radii(self) -> tuple[float, ...]:
        """Concentric interface circles this phase contributes, if any."""
        if self.shape == "ring":
            return (self.r_inner, self.r_outer)
        if self.is_centered():
            return (self.radius,)
        return ()


def _separation(a: PhaseRegion, b: PhaseRegion) -> float:
    """Gap between the closures of two phases (negative when they overlap)."""
    if a.shape == "disk" and b.shape == "disk":
        d = math.dist(a.center, b.center)
        return d - a.radius - b.radius
    if a.shape == "ring" and b.shape == "ring":
        return max(b.r_inner - a.r_outer, a.r_inner - b.r_outer)
    disk, ring = (a, b) if a.shape == "disk" else (b, a)
    c = math.hypot(*disk.center)
    band = max(ring.r_inner - c, c - ring.r_outer, 0.0)
    return band - disk.radius


@dataclass(frozen=True)
class PhaseConfig:
    """A domain plus its inclusions.  The shell conductivity is one by convention."""

    domain: DomainSpec = field(default_factory=DomainSpec)
    phases: tuple[PhaseRegion, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "phases", tuple(self.phases))

    def sigma_table(self) -> np.ndarray:
        """Conductivity indexed by region tag: entry 0 is the shell."""
        return np.array([1.0] + [p.sigma for p in self.phases])

    def region_index_at(self, points) -> np.ndarray:
        """Tag per point: 0 for shell, k >= 1 for the k-th phase."""
        pts = np.atleast_2d(np.asarray(points, float))
        tags = np.zeros(len(pts), dtype=np.int64)
        for k, phase in enumerate(self.phases, start=1):
            inside = phase.contains(pts)
            tags[inside & (tags == 0)] = k
        return tags

    def sigma_at(self, points) -> np.ndarray:
        return self.sigma_table()[self.region_index_at(points)]

    def conforming_radii(self) -> tuple[float, ...]:
        """Concentric interface radii a mesh should resolve exactly.

        Only centred features produce these; a displaced disk has no
        concentric interface and is handled by element tagging alone.
        """
        radii: set[float] = set()
        for p in self.phases:
            radii.update(p.interface_radii())
        return tuple(sorted(radii))

    def is_radially_layered(self) -> bool:
        """True when the conductivity depends on |x| only."""
        return all(p.is_centered() for p in self.phases)


@dataclass(frozen=True)
class HypothesisFlags:
    """Outcome of the structural checks, with human-readable notes."""

    phases_strictly_inside: bool
    phases_pairwise_separated: bool
    shell_connected_and_unique: bool
    sigmas_admissible: bool
    notes: tuple[str, ...] = ()

    @property
    def all_ok(self) -> bool:
        return (
            self.phases_strictly_inside
            and self.phases_pairwise_separated
            and self.shell_connected_and_unique
            and self.sigmas_admissible
        )


def validate_configuration(config: PhaseConfig) -> HypothesisFlags:
    """Check the structural hypotheses of a layout.

    Shell connectivity uses a geometric argument rather than meshing: finitely
    many pairwise-disjoint closed disks strictly inside a disk or annulus never
    disconnect it (there is always a path around each one), so the background
    region stays connected and touches the boundary.  A concentric ring phase,
    by contrast, always severs the domain into an inner and an outer part, so
    the background is no longer a single component reaching the boundary.
    """
    notes: list[str] = []

    inside = True
    for k, p in enumerate(config.phases, start=1):
        m = p.containment_margin(config.domain)
        if m <= 0.0:
            inside = False
            notes.append(f"phase {k} is not strictly inside the domain (margin {m:.3g})")

    separated = True
    for i in range(len(config.phases)):
        for j in range(i + 1, len(config.phases)):
            gap = _separation(config.phases[i], config.phases[j])
            if gap <= 0.0:
                separated = False
                notes.append(f"phases {i + 1} and {j + 1} touch or overlap (gap {gap:.3g})")

    shell_ok = True
    for k, p in enumerate(config.phases, start=1):
        if p.shape == "ring":
            shell_ok = False
            notes.append(f"phase {k} is a ring: it cuts the background into nested components")

    sigmas_ok = True
    for k, p in enumerate(config.phases, start=1):
        if not p.sigma > 0.0:
            sigmas_ok = False
            notes.append(f"phase {k} has non-positive conductivity {p.sigma}")
        elif abs(p.sigma - 1.0) <= _SIGMA_ONE_TOL:
            sigmas_ok = False
            notes.append(f"phase {k} matches the shell conductivity; it is not a distinct phase")

    return HypothesisFlags(
        phases_strictly_inside=inside,
        phases_pairwise_separated=separated,
        shell_connected_and_unique=shell_ok,
        sigmas_admissible=sigmas_ok,
        notes=tuple(notes),
    )


def surface_separation_ok(config: PhaseConfig, rho: float) -> bool:
    """Is the circle |x| = rho at least as close to the boundary as to every phase?

    Probe surfaces are only trustworthy in the outer shell: each point should
    see the domain boundary no farther than any inclusion.  For concentric
    circles this reduces to a comparison of a few radii.
    """
    dom = config.domain
    if not dom.inner_radius < rho < dom.outer_radius:
        return False
    d_bdry = dom.circle_to_boundary(rho)
    return all(p.distance_to_circle(rho) >= d_bdry - _SEPARATION_TOL for p in config.phases)
