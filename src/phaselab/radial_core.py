"""Closed-form radial equilibria for layered round conductors.

When the conductivity depends on |x| alone, the equilibrium equation
``-div(sigma grad u) = g`` with zero boundary data reduces to a first-order
relation for the co-normal flux through the circle of radius r:

    sigma(r) * r * U'(r) = c0 - int_{r0}^{r} g(s) s ds.

On a disk c0 = 0 (nothing can flow through the origin); on an annulus c0 is
fixed by the inner Dirichlet condition.  For polynomial g each layer then
integrates in closed form: a polynomial plus a multiple of log(r).  This
module builds that piecewise representation exactly and evaluates it and its
derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = [
    "RadialPiece",
    "RadialProfile",
    "solve_radial",
    "radial_layers",
    "build_auxiliary_profile",
    "mean_flux_identity",
]


@dataclass(frozen=True)
class RadialPiece:
    """One layer of the solution: ``poly(r) + alpha * log(r)`` on [lo, hi].

    ``poly`` holds ascending coefficients.
    """

    lo: float
    hi: float
    sigma: float
    poly: tuple[float, ...]
    alpha: float


@dataclass(frozen=True)
class RadialProfile:
    r0: float
    R: float
    pieces: tuple[RadialPiece, ...]

    # -- evaluation --------------------------------------------------------

    def _piece_index(self, r: np.ndarray) -> np.ndarray:
        lows = np.array([p.lo for p in self.pieces])
        idx = np.searchsorted(lows, r, side="right") - 1
        return np.clip(idx, 0, len(self.pieces) - 1)

    def _check_range(self, r: np.ndarray) -> None:
        tol = 1e-12 * max(1.0, self.R)
        if (r < self.r0 - tol).any() or (r > self.R + tol).any():
            raise ValueError("radius outside the domain of this profile")

    def __call__(self, r) -> np.ndarray:
        rr = np.asarray(r, float)
        flat = np.atleast_1d(rr)
        self._check_range(flat)
        idx = self._piece_index(flat)
        out = np.empty_like(flat)
        # pieces with alpha != 0 never reach r = 0, but guard the log anyway
        spec = np.log(np.maximum(flat, 1e-300))
        for k, piece in enumerate(self.pieces):
            m = idx == k
            if m.any():
                out[m] = npoly.polyval(flat[m], piece.poly) + piece.alpha * spec[m]
        return out.reshape(rr.shape) if rr.shape else float(out[0])

    def derivative(self, r) -> np.ndarray:
        rr = np.asarray(r, float)
        flat = np.atleast_1d(rr)
        self._check_range(flat)
        idx = self._piece_index(flat)
        out = np.empty_like(flat)
        dspec = 1.0 / np.maximum(flat, 1e-300)
        for k, piece in enumerate(self.pieces):
            m = idx == k
            if m.any():
                out[m] = npoly.polyval(flat[m], npoly.polyder(piece.poly)) + piece.alpha * dspec[m]
        return out.reshape(rr.shape) if rr.shape else float(out[0])


def solve_radial(breaks, sigmas, g_coeffs) -> RadialProfile:
    """Solve the layered radial problem exactly.

    ``breaks`` are the layer boundaries ``r0 < r1 < ... < R`` (r0 = 0 for a
    disk); ``sigmas[i]`` is the conductivity on ``(breaks[i], breaks[i+1])``;
    ``g_coeffs`` are ascending polynomial coefficients of the source g(r).

    Each layer's indefinite integral of U' is accumulated outside-in, chaining
    the integration constants so the profile is continuous and vanishes at the
    outer boundary; the co-normal flux ``sigma r U'`` is continuous by
    construction.  All operations are linear in g with scale factors built
    from g-independent quantities, so doubling g doubles every stored
    coefficient exactly in floating point.
    """
    breaks = [float(b) for b in breaks]
    sigmas = [float(s) for s in sigmas]
    if len(breaks) != len(sigmas) + 1:
        raise ValueError("need exactly one conductivity per layer")
    if len(sigmas) == 0:
        raise ValueError("at least one layer is required")
    if any(b2 <= b1 for b1, b2 in zip(breaks, breaks[1:])):
        raise ValueError("layer boundaries must be strictly increasing")
    if breaks[0] < 0.0:
        raise ValueError("layer boundaries must be nonnegative")
    if any(not (s > 0.0 and math.isfinite(s)) for s in sigmas):
        raise ValueError("conductivity must be positive in every layer")
    g = np.asarray(g_coeffs, float)
    if g.ndim != 1 or len(g) == 0:
        raise ValueError("source must be a nonempty coefficient sequence")

    r0, R = breaks[0], breaks[-1]
    if r0 == 0.0:
        pieces = _chain_pieces(breaks, sigmas, g, 0.0)
    else:
        # superposition: particular part (c0 = 0) plus c0 times the
        # source-free unit-flux solution, with c0 matching U(r0) = 0
        part = _chain_pieces(breaks, sigmas, g, 0.0)
        homog = _chain_pieces(breaks, sigmas, np.zeros(1), 1.0)
        c0 = -_eval_pieces(part, r0) / _eval_pieces(homog, r0)
        pieces = _chain_pieces(breaks, sigmas, g, c0)

    return RadialProfile(r0=r0, R=R, pieces=tuple(pieces))


def _chain_pieces(breaks, sigmas, g, c0) -> list[RadialPiece]:
    """Integrate U' layer by layer from the outer boundary inward."""
    # numerator of U': n0 - sum_k Gc_k r**(k+2)  with n0 = c0 + P_G(r0)
    expo = np.arange(len(g)) + 2
    Gc = g / expo
    n0 = c0 + float((Gc * breaks[0] ** expo).sum())

    pieces: list[RadialPiece] = []
    target = 0.0  # value the current layer must take at its upper end
    for i in reversed(range(len(sigmas))):
        lo, hi, sig = breaks[i], breaks[i + 1], sigmas[i]
        poly = np.zeros(len(g) + 2)
        poly[2:] = -Gc / (expo * sig)
        alpha = n0 / sig
        body_hi = npoly.polyval(hi, poly) + alpha * _log(hi)
        poly[0] = target - body_hi
        pieces.append(RadialPiece(lo=lo, hi=hi, sigma=sig, poly=tuple(poly), alpha=alpha))
        target = npoly.polyval(lo, poly) + alpha * _log(lo)
    pieces.reverse()
    return pieces


def _log(r: float) -> float:
    # r = 0 only for the innermost disk layer, where alpha is exactly 0
    return math.log(r) if r > 0.0 else 0.0


def _eval_pieces(pieces, r: float) -> float:
    for p in pieces:
        if p.lo <= r <= p.hi:
            return float(npoly.polyval(r, p.poly)) + p.alpha * _log(r)
    raise ValueError("radius outside the layered range")


def radial_layers(config) -> tuple[list[float], list[float]]:
    """Extract (breaks, sigmas) from a concentric layout.

    Raises if any phase is displaced -- such layouts have no radial reduction.
    """
    dom = config.domain
    if not config.is_radially_layered():
        raise ValueError("layout is not radially layered: a phase is off-centre")
    marks = {dom.inner_radius, dom.outer_radius}
    for p in config.phases:
        marks.update(p.interface_radii())
    breaks = sorted(m for m in marks if dom.inner_radius <= m <= dom.outer_radius)
    mids = [(a + b) / 2 for a, b in zip(breaks, breaks[1:])]
    sigmas = [float(config.sigma_at([(m, 0.0)])[0]) for m in mids]
    return breaks, sigmas


def build_auxiliary_profile(domain, g_coeffs) -> RadialProfile:
    """Reference equilibrium of the same domain with conductivity one everywhere."""
    return solve_radial([domain.inner_radius, domain.outer_radius], [1.0], g_coeffs)


def mean_flux_identity(domain, g_coeffs) -> float:
    """Boundary-average outward co-normal flux forced by the divergence theorem.

    Integrating ``-div(sigma grad u) = g`` gives
    ``mean flux = -int_Omega g / |boundary|`` independent of sigma; for round
    domains the angular factors cancel, leaving moments of g.
    """
    r0, R = domain.inner_radius, domain.outer_radius
    g = np.asarray(g_coeffs, float)
    expo = np.arange(len(g)) + 2
    coef = g / expo  # int_{r0}^{R} g(s) s ds, term by term
    total = float((coef * R**expo).sum()) - float((coef * r0**expo).sum())
    return -total / (R + r0)
