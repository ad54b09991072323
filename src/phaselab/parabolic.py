"""Heat flow on composite conductors, with spectral decay certificates.

The evolution is the implicit theta-scheme (backward Euler by default) for
``M du/dt + K u = 0`` on the Dirichlet-eliminated block, started from the
nodal source values so that the running time integral converges to the
elliptic equilibrium.  Step sizes follow a deterministic schedule: a uniform
warm-up resolving the initial transient, then geometric growth up to a cap.
The schedule never shrinks a step, so only the factorization of the current
step matrix is kept: it is reused while dt stays put and dropped before the
next one is built.

Both pencil matrices, ``K`` and ``M + theta*dt*K``, are symmetric positive
definite.  SuperLU factors them in symmetric mode, without pivoting, under a
minimum-degree ordering of ``A + A^T``, which stores about half the fill of
its default column ordering.

The smallest generalized eigenvalue of (K, M) certifies exponential decay of
the mass norm and bounds the tail of the time integral after truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse.linalg as spla

from .fem2d import CircleSampler, FemSystem
from .symmetry_checks import probe_deviation

__all__ = [
    "EigenResult",
    "Evolution",
    "DecayCheck",
    "smallest_eigenvalue",
    "evolve",
    "decay_certificate",
    "monotone_decay",
    "tail_bound",
    "v_error_vs_elliptic",
]

# SuperLU options for the symmetric positive definite pencil matrices
_SPD_LU = {
    "permc_spec": "MMD_AT_PLUS_A",
    "diag_pivot_thresh": 0.0,
    "options": {"SymmetricMode": True},
}


@dataclass(frozen=True)
class EigenResult:
    value: float
    iterations: int


def smallest_eigenvalue(system: FemSystem, tol: float = 1e-8, maxit: int = 300) -> EigenResult:
    """Smallest eigenvalue of K x = lambda M x on the free block.

    Inverse power iteration with one sparse LU of K, M-normalized iterates,
    the all-ones start vector, and a relative Rayleigh-quotient stopping
    test.  Everything is deterministic.
    """
    Kff, Mff = system.Kff, system.Mff
    lu = spla.splu(Kff, **_SPD_LU)
    x = np.ones(Kff.shape[0])
    lam_old = 0.0
    for it in range(1, maxit + 1):
        y = lu.solve(Mff @ x)
        y /= math.sqrt(y @ (Mff @ y))
        lam = float((y @ (Kff @ y)) / (y @ (Mff @ y)))
        if abs(lam - lam_old) <= tol * lam:
            return EigenResult(value=lam, iterations=it)
        lam_old = lam
        x = y
    raise RuntimeError("inverse power iteration did not converge")


@dataclass
class Evolution:
    """Recorded trajectory of one heat-flow run.

    ``v_field`` is the trapezoidal running time integral of the solution
    (a full nodal vector, zero on the boundary), ``u_final`` the state at
    the stopping time.  ``probes`` has one row per recorded time holding
    the mean u, deviation of u, mean flux and deviation of the flux on the
    ``probe`` circle, in that order; deviations follow the sup-norm
    convention of :func:`phaselab.symmetry_checks.probe_deviation`.  A run
    without a probe has no probe columns.
    """

    times: np.ndarray
    mass_norms: np.ndarray
    probes: np.ndarray  # (len(times), 4), or (len(times), 0) without a probe
    probe: CircleSampler | None
    v_field: np.ndarray
    u_final: np.ndarray
    steps: int
    factorizations: int

    @property
    def initial_norm(self) -> float:
        return float(self.mass_norms[0])

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    @cached_property
    def probe_dev_max(self) -> tuple[float, float]:
        """Largest probe deviation of u and of the flux over the run; zeros without a probe."""
        # reshape gives a probeless run zero rows of four columns
        dev_u, dev_flux = self.probes.reshape(-1, 4)[:, 1::2].max(axis=0, initial=0.0)
        return float(dev_u), float(dev_flux)


def evolve(
    system: FemSystem,
    u0: np.ndarray | None = None,
    *,
    theta: float = 1.0,
    dt0: float = 5e-4,
    uniform_steps: int = 20,
    growth: float = 1.05,
    dt_max: float = 2e-3,
    eps: float = 1e-8,
    max_steps: int = 200_000,
    probe: CircleSampler | None = None,
    resume: Evolution | None = None,
) -> Evolution:
    """Run the theta-scheme until the mass norm falls below ``eps``.

    ``u0`` defaults to the nodal source values of the system.  ``probe``, if
    given, is sampled at every recorded time.  Passing a previous run as
    ``resume`` continues it with a smaller ``eps``: same schedule position,
    running integral and probe carried over, its records extended.  This is
    how a truncation time is extended to audit the certified tail bound.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    if resume is not None and probe is not None:
        raise ValueError("a resumed run keeps its own probe; pass no other")
    free = system.free
    nv = system.mesh.nv
    Kff, Mff = system.Kff, system.Mff

    if resume is not None:
        probe = resume.probe
        u = resume.u_final[free].copy()
        V = resume.v_field[free].copy()
        t = resume.final_time
        k0, nfact = resume.steps, resume.factorizations
        times, norms, rows = list(resume.times), list(resume.mass_norms), list(resume.probes)
    else:
        if u0 is None:
            u = system.g_vertex[free].astype(float).copy()
        else:
            u0 = np.asarray(u0, float)
            u = (u0[free] if u0.shape == (nv,) else u0).copy()
        V = np.zeros(len(free))
        t = 0.0
        k0 = nfact = 0
        times, norms, rows = [0.0], [system.mass_norm(u)], [_probe_row(system, probe, u)]

    Mu = Mff @ u  # carried from step to step: the mass norm and the next rhs
    factor: tuple[float, spla.SuperLU] | None = None  # (rounded dt, its LU)
    k = k0
    dt = dt0
    while norms[-1] > eps:
        if k >= uniform_steps:
            dt = min(dt0 * growth ** (k - uniform_steps + 1), dt_max)
        key = round(dt, 15)
        if factor is None or factor[0] != key:
            factor = None  # free it before the next is built: dt never shrinks
            factor = (key, spla.splu(Mff + theta * dt * Kff, **_SPD_LU))
            nfact += 1
        rhs = Mu if theta == 1.0 else Mu - (1.0 - theta) * dt * (Kff @ u)
        u_new = factor[1].solve(rhs)
        V += dt * (u + u_new) / 2.0
        u = u_new
        t += dt
        k += 1
        times.append(t)
        Mu = Mff @ u
        norms.append(float(np.sqrt(u @ Mu)))
        rows.append(_probe_row(system, probe, u))
        if k - k0 > max_steps:
            raise RuntimeError("heat flow did not reach the stopping norm")

    u_full = np.zeros(nv)
    u_full[free] = u
    v_full = np.zeros(nv)
    v_full[free] = V
    return Evolution(
        times=np.array(times),
        mass_norms=np.array(norms),
        probes=np.array(rows),
        probe=probe,
        v_field=v_full,
        u_final=u_full,
        steps=k,
        factorizations=nfact,
    )


def _probe_row(system: FemSystem, probe: CircleSampler | None, u_free: np.ndarray) -> tuple:
    """Mean u, deviation of u, mean flux and deviation of the flux on the probe; () without one."""
    if probe is None:
        return ()
    z = np.zeros(system.mesh.nv)
    z[system.free] = u_free
    ps = probe_deviation(probe, z, system.sigma_e)
    return ps.mean_u, ps.dev_u, ps.mean_flux, ps.dev_flux


@dataclass(frozen=True)
class DecayCheck:
    """Audit of the spectral decay bound along a recorded trajectory.

    ``max_ratio`` is the largest value of
    ``mass_norm(t) / (mass_norm(0) * exp(-lam * t))`` over the recorded
    times; the certificate holds when it stays within the slack.
    ``slope_ratio`` is the fitted log-norm slope over the second half of the
    run divided by ``-lam`` — near 1 when the trajectory has collapsed onto
    the lowest mode (backward Euler biases it slightly below 1, by about
    ``lam * dt / 2``).
    """

    ok: bool
    max_ratio: float
    lam: float
    slack: float
    slope_ratio: float


def decay_certificate(run: Evolution, lam: float, slack: float = 0.02) -> DecayCheck:
    bound = run.initial_norm * np.exp(-lam * run.times)
    ratio = float((run.mass_norms / bound).max())
    if run.times.size < 2:
        slope = math.nan
    else:
        tail = run.times >= 0.5 * run.final_time
        if tail.sum() < 2:
            tail[-2:] = True
        slope = np.polyfit(run.times[tail], np.log(run.mass_norms[tail]), 1)[0]
    return DecayCheck(
        ok=ratio <= 1.0 + slack,
        max_ratio=ratio,
        lam=lam,
        slack=slack,
        slope_ratio=float(slope / (-lam)),
    )


def monotone_decay(run: Evolution) -> bool:
    """Did the mass norm decrease (weakly) at every recorded step?"""
    return bool(np.all(np.diff(run.mass_norms) <= 0.0))


def tail_bound(norm0: float, lam: float, T: float) -> float:
    """Bound on the mass norm of the discarded tail of the time integral.

    From ``||u(t)|| <= norm0 * exp(-lam t)``:
    ``|| int_T^inf u dt || <= norm0 * exp(-lam T) / lam``.
    """
    return norm0 * math.exp(-lam * T) / lam


def v_error_vs_elliptic(system: FemSystem, run: Evolution, u_elliptic: np.ndarray) -> float:
    """Relative mass-norm distance between the time integral and the equilibrium."""
    free = system.free
    ref = u_elliptic[free]
    return system.mass_norm(run.v_field[free] - ref) / max(system.mass_norm(ref), 1e-300)
