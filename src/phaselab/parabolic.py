"""Heat flow on composite conductors, with spectral decay certificates.

The evolution is backward Euler for ``M du/dt + K u = 0`` on the
Dirichlet-eliminated block, started from the nodal source values so that the
running time integral converges to the elliptic equilibrium.  Step sizes
follow one fixed schedule: a uniform warm-up resolving the initial transient,
then geometric growth up to a cap.  A run to a smaller stopping norm
therefore repeats a shorter run's steps bit for bit, then goes on.

One time-stepping loop serves two bases for the state.  On a
rotation-invariant layout (sigma constant on every rotation orbit of the
polar mesh) M and K are block-circulant in angle, so the run keeps its state
as angular-Fourier ring coefficients (``fem2d._AngularModes``) from start to
finish: a step is one tridiagonal mass product per mode and one LAPACK
solve over every mode's radial tridiagonal, the mass norm comes by
Parseval, and the probe reads only the rings its triangles touch.  Every
step size is factored exactly, in microseconds, and the state goes back to
nodal values once, at the end.  On any other layout the state is the free
nodal vector, and only the two sizes that repeat are factored, by SuperLU:
``M + DT0*K`` for the warm-up and ``M + DT_MAX*K`` for the cap.  Each growth
size serves one step, which is solved by conjugate gradient preconditioned
with the cap factor; the preconditioned spectrum lies in ``[dt/DT_MAX, 1]``,
so a handful of iterations reach round-off.  The schedule never shrinks a
step, so one factor is alive at a time: the warm-up factor is dropped before
the cap factor is built.  Both step matrices and ``K`` are symmetric
positive definite, so SuperLU runs in symmetric mode, without pivoting,
under a minimum-degree ordering of ``A + A^T``, which stores about half the
fill of its default column ordering.  Both bases read the probe through the
columns of ``CircleSampler.matrix`` that their state holds.

The smallest generalized eigenvalue of (K, M) certifies the decay of the
mass norm, at backward Euler's own rate of ``1 / (1 + lam * dt)`` per step,
and bounds the tail of the time integral after truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fem2d import (
    CircleSampler,
    FemSystem,
    _AngularModes,
    _dot,
    _orbit_mean_solver,
    _pcg,
    _sector_blocks,
)
from .symmetry_checks import _probe_table

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

# The step schedule: DT0 for the first WARMUP_STEPS steps, then growth by
# GROWTH per step up to DT_MAX.  A run that takes more than MAX_STEPS steps
# is stopped with an error.
DT0 = 5e-4
WARMUP_STEPS = 20
GROWTH = 1.05
DT_MAX = 2e-3
MAX_STEPS = 200_000
# the first growth level whose step reaches DT_MAX; the exponent stops there
CAP_LEVEL = math.ceil(math.log(DT_MAX / DT0, GROWTH))

# A growth step's CG stops at this residual relative to its right-hand side;
# the preconditioned condition number is at most DT_MAX/DT0 = 4, so CG_MAXIT
# is far beyond the 3-14 iterations a step takes.
CG_TOL = 1e-12
CG_MAXIT = 100

# A step stores only what the probe reads; the rows of PROBE_BLOCK steps are
# reduced together, by one sparse product and vectorised means and maxima.
PROBE_BLOCK = 64


def _factor(system: FemSystem, dt: float | None = None):
    """The solve by ``Mff + dt*Kff``, or by ``Kff`` without ``dt``.

    SuperLU factors it, except ``Kff`` on a rotation-invariant layout, where
    the orbit-mean stiffness is ``Kff`` itself and the FFT-in-angle solve is
    exact.  Heat-flow steps on such a layout never come here: they are taken
    in angular-Fourier coefficients.
    """
    if dt is None and system.rotation_invariant:
        return _orbit_mean_solver(system)
    A = system.Kff if dt is None else system.Mff + dt * system.Kff
    return spla.splu(A, **_SPD_LU).solve


@dataclass(frozen=True)
class EigenResult:
    value: float
    iterations: int


def smallest_eigenvalue(system: FemSystem, tol: float = 1e-8, maxit: int = 300) -> EigenResult:
    """Smallest eigenvalue of K x = lambda M x on the free block.

    Inverse power iteration with one solve by K from `_factor`, M-normalized
    iterates, the all-ones start vector, and a relative Rayleigh-quotient
    stopping test.  Everything is deterministic.
    """
    Kff, Mff = system.Kff, system.Mff
    solve = _factor(system)
    My = Mff @ np.ones(Kff.shape[0])  # the next right-hand side
    lam_old = 0.0
    for it in range(1, maxit + 1):
        y = solve(My)
        y /= math.sqrt(_dot(y, Mff @ y))
        My = Mff @ y
        lam = _dot(y, Kff @ y) / _dot(y, My)
        if abs(lam - lam_old) <= tol * lam:
            return EigenResult(value=lam, iterations=it)
        lam_old = lam
    raise RuntimeError("inverse power iteration did not converge")


@dataclass
class Evolution:
    """Recorded trajectory of one heat-flow run.

    ``v_field`` is the trapezoidal running time integral of the solution
    (a full nodal vector, zero on the boundary), ``u_final`` the state at
    the stopping time.  ``probes`` has one row per recorded time holding
    the mean u, deviation of u, mean flux and deviation of the flux on the
    probe circle, in that order; deviations follow the sup-norm convention
    of :func:`phaselab.symmetry_checks.probe_deviation`.  A run without a
    probe has no probe columns.
    """

    times: np.ndarray
    mass_norms: np.ndarray
    probes: np.ndarray  # (len(times), 4), or (len(times), 0) without a probe
    v_field: np.ndarray
    u_final: np.ndarray
    steps: int
    factorizations: int  # step matrices factored
    cg_iterations: int  # CG iterations over the growth steps; none in angular-Fourier steps
    step_solver: str  # the step basis: "angular Fourier" if rotation-invariant, else "SuperLU"

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


def _step_size(k: int) -> float:
    """Size of step ``k`` (counted from zero) on the fixed schedule.

    The growth exponent stops at the first level whose step reaches
    ``DT_MAX``, so the power cannot overflow however long a run lasts.
    """
    if k < WARMUP_STEPS:
        return DT0
    return min(DT0 * GROWTH ** min(k - WARMUP_STEPS + 1, CAP_LEVEL), DT_MAX)


# The two bases of the heat-flow state.  Each maps free nodal values to its
# state and back, applies the mass matrix, takes the mass norm, factors a step
# size, reads the part of a state the probe samples and turns a block of reads
# into probe rows; `evolve` runs the schedule.


class _NodalSteps:
    """Free nodal state: SuperLU factors of the warm-up and cap sizes, CG for the growth sizes.

    The probe reads the free values its triangles' corners hold.
    """

    label = "SuperLU"
    every_size = False

    def __init__(self, system: FemSystem, probe: CircleSampler | None):
        self.system = system
        self.P, self.support = None, np.empty(0, int)
        if probe is not None:
            self.support = np.unique(probe.matrix.indices)
            self.P = probe.matrix[:, self.support]

    def state(self, u_free: np.ndarray) -> np.ndarray:
        return u_free

    nodal = state

    def mass(self, u: np.ndarray) -> np.ndarray:
        return self.system.Mff @ u

    def norm(self, u: np.ndarray, Mu: np.ndarray) -> float:
        return math.sqrt(_dot(u, Mu))

    def factor(self, size: float):
        return _factor(self.system, size)

    def probe_rows(self, reads: np.ndarray) -> np.ndarray:
        return _probe_rows(self.P, reads)


class _FourierSteps:
    """Angular-Fourier state on a rotation-invariant layout: every step size factored exactly.

    The probe reads the coefficients of the rings its triangles touch (and a
    ball's centre), and its matrix keeps only those rings' columns, so a
    probe row needs the inverse FFT of those rings alone.
    """

    label = "angular Fourier"
    every_size = True

    def __init__(self, system: FemSystem, probe: CircleSampler | None):
        modes = self.modes = _AngularModes(system.mesh)
        self.blocks = _sector_blocks(system)
        self.d_mass, self.e_mass = modes.symbol(self.blocks[0])
        self.e_mass_conj = self.e_mass.conj()
        self.P, self.support = None, np.empty(0, int)
        if probe is not None:
            m, fan, centre = modes.m, modes.fan, np.arange(modes.fan)
            cols = probe.matrix.indices
            rows = np.unique((cols[cols >= fan] - fan) // m)
            ring_cols = fan + rows[:, None] * m + np.arange(m)
            self.P = probe.matrix[:, np.concatenate([centre, ring_cols.ravel()])]
            coeffs = fan + np.arange(modes.modes)[:, None] * modes.rings + rows  # mode-major
            self.support = np.concatenate([centre, coeffs.ravel()])

    def state(self, u_free: np.ndarray) -> np.ndarray:
        return self.modes.forward(u_free)

    def nodal(self, X: np.ndarray) -> np.ndarray:
        return self.modes.inverse(X)

    def mass(self, X: np.ndarray) -> np.ndarray:
        MX = self.d_mass * X
        MX[1:] += self.e_mass * X[:-1]
        MX[:-1] += self.e_mass_conj * X[1:]
        return MX

    def norm(self, X: np.ndarray, MX: np.ndarray) -> float:
        return float(np.sqrt(np.vdot(X, self.modes.weights * MX).real))

    def factor(self, size: float):
        mass, stiffness = self.blocks
        return self.modes.factor(*self.modes.symbol(mass + size * stiffness))

    def probe_rows(self, reads: np.ndarray) -> np.ndarray:
        return _probe_rows(self.P, reads if self.P is None else self.modes.inverse(reads))


def evolve(
    system: FemSystem, *, eps: float = 1e-8, probe: CircleSampler | None = None
) -> Evolution:
    """Run backward Euler from the nodal source values until the mass norm falls below ``eps``.

    ``probe``, if given, is sampled at every recorded time, through the
    columns of ``probe.matrix`` that the state's basis reads; its rows are
    reduced a block of ``PROBE_BLOCK`` steps at a time.  The schedule is
    fixed, so a run to a smaller ``eps`` takes the same steps as a shorter
    run, then goes on.
    """
    free = system.free
    basis = (_FourierSteps if system.rotation_invariant else _NodalSteps)(system, probe)
    u = basis.state(system.g_vertex[free])
    V = np.zeros_like(u)
    Mu = basis.mass(u)  # carried from step to step: the mass norm and the next rhs
    t = 0.0
    k = nfact = cg_its = 0
    times, norms, rows = [0.0], [basis.norm(u, Mu)], []
    reads = [u[basis.support]]  # what the probe reads of each step since its last block of rows

    factor = None  # (factored size, its solve)
    while norms[-1] > eps:
        dt = _step_size(k)
        # a nodal growth step is preconditioned by the cap
        size = dt if basis.every_size or dt == DT0 else DT_MAX
        if factor is None or factor[0] != size:
            factor = None  # free it before the next is built: dt never shrinks
            factor = (size, basis.factor(size))
            nfact += 1
        if dt == size:
            u_new = factor[1](Mu)
        else:
            # the step matrix is exactly symmetric: its transpose is the same matrix in CSR
            u_new, its = _pcg((system.Mff + dt * system.Kff).T, Mu, CG_TOL, CG_MAXIT, factor[1])
            cg_its += its
        V += dt * (u + u_new) / 2.0
        u = u_new
        t += dt
        k += 1
        times.append(t)
        Mu = basis.mass(u)
        norms.append(basis.norm(u, Mu))
        reads.append(u[basis.support])
        if len(reads) == PROBE_BLOCK:
            rows.append(basis.probe_rows(np.array(reads)))
            reads.clear()
        if k > MAX_STEPS:
            raise RuntimeError("heat flow did not reach the stopping norm")

    if reads:
        rows.append(basis.probe_rows(np.array(reads)))
    u_full = np.zeros(system.mesh.nv)
    u_full[free] = basis.nodal(u)
    v_full = np.zeros(system.mesh.nv)
    v_full[free] = basis.nodal(V)
    return Evolution(
        times=np.array(times),
        mass_norms=np.array(norms),
        probes=np.concatenate(rows),
        v_field=v_full,
        u_final=u_full,
        steps=k,
        factorizations=nfact,
        cg_iterations=cg_its,
        step_solver=basis.label,
    )


def _probe_rows(P: sp.csr_matrix | None, nodal: np.ndarray) -> np.ndarray:
    """Probe rows of a block of states: mean u, deviation of u, mean flux, deviation of the flux.

    ``nodal`` holds one state per row, its values at ``P``'s columns; without
    a probe the rows are empty.  The samples are made C-contiguous, so each
    row's means take the same pairwise sums as a single state's would.
    """
    if P is None:
        return np.empty((len(nodal), 0))
    samples = np.ascontiguousarray((P @ nodal.T).T)
    count = P.shape[0] // 2
    return _probe_table(samples[:, :count], samples[:, count:])


@dataclass(frozen=True)
class DecayCheck:
    """Audit of the spectral decay bound along a recorded trajectory.

    ``max_ratio`` is the largest ratio of the mass norm to the bound
    ``mass_norm(0) * prod_j 1 / (1 + lam * dt_j)`` over the recorded times,
    the product running over the steps taken so far; the certificate holds
    when it stays within the slack.  That bound is backward Euler's own
    rate: a step of size dt damps the mode of eigenvalue lam by exactly
    ``1 / (1 + lam * dt)``, which lags ``exp(-lam * dt)``, so the continuous
    bound fails on a layout whose lam*dt is large however exact the run.
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
    damping = np.cumprod(1.0 / (1.0 + lam * np.diff(run.times)))
    bound = run.initial_norm * np.concatenate([[1.0], damping])
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
