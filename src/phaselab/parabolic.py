"""Heat flow on composite conductors, with spectral decay certificates.

The evolution is backward Euler for ``M du/dt + K u = 0`` on the
Dirichlet-eliminated block, started from the nodal source values so that the
running time integral converges to the elliptic equilibrium.  Step sizes
follow one fixed schedule: a uniform warm-up resolving the initial transient,
then geometric growth up to a cap ``DT_MAX``.

Every step is a rational function of the cap step
``B = (M + DT_MAX*K)^-1 M`` on the free block, self-adjoint in the mass inner
product: a step of size dt is ``DT_MAX*B ((DT_MAX - dt)*B + dt)^-1``.  So
the cap matrix is factored once, and Lanczos from the source, in the mass
inner product, each vector orthogonalised against the whole basis, gives a
basis Q and the tridiagonal ``T = Z diag(theta) Z^T`` (Saad, SIAM J. Numer.
Anal. 29, 1992; Hochbruck & Lubich, SIAM J. Numer. Anal. 34, 1997).  Every
recorded state is Q Z times its Ritz coordinates, the start's times the step
functions at theta: the mass norm is their 2-norm, the probe samples are
``P Q Z`` times them, the trapezoidal time integral sums them, and only the
final state and the integral go back to nodal values.  The coordinates of
fast modes decay through the subnormal range, where every product is slow,
so each one below the smallest normal float is flushed to zero: it is below
half an ulp of any sum above 2**-969 that it joins, and the norms, samples
and integrals it would join are far larger, so no output bit moves.  A
flushed coordinate stays zero, and the probe product skips it.  The basis
grows until Saad's error estimate is below ``KRYLOV_TOL`` at every step of
the schedule, whatever the stopping norm, so a run to a smaller stopping
norm repeats a shorter run's record bit for bit, then goes on.

The cap matrix is summed once from M's and K's four stored slots.  It is
symmetric positive definite, so SuperLU factors its free block in
symmetric mode, without pivoting, under a minimum-degree ordering of
``A + A^T``, which stores about half the fill of its default column
ordering.  On a rotation-invariant layout (sigma constant on every rotation
orbit of the polar mesh) it is block-circulant in angle instead: its chain
is read from the same slots, and solved exactly by FFT in angle and one
sweep over the rings that solves every mode's radial tridiagonal.  Every
reduction is summed by numpy's own loops, so no result depends on the BLAS
thread count.

scipy (SuperLU, ``eigh_tridiagonal``, the free blocks in CSR) is imported
inside the functions that call it, so that ``import phaselab``, which
imports this module, loads no scipy, and an elliptic run needs numpy alone;
``run_scenario`` imports it at the start of a run with the heat flow.
SuperLU is still called as ``spla.splu``, through the module, where a
tracer that wraps the module's attribute sees the call.

The largest Ritz value gives the smallest generalized eigenvalue of (K, M),
``lam = (1 - theta) / (DT_MAX * theta)`` (Parlett, *The Symmetric Eigenvalue
Problem*, SIAM, 1998, ch. 11).  It certifies the decay of the mass norm, at
backward Euler's own rate of ``1 / (1 + lam * dt)`` per step, and bounds the
tail of the time integral after truncation.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fem2d import CircleSampler, FemSystem, PolarOperator, _dot, _orbit_mean_solver
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

# The Krylov basis grows KRYLOV_BLOCK vectors at a time until the estimated
# relative error of every step's state is at most KRYLOV_TOL; a basis that
# would need more than KRYLOV_MAX vectors is an error.
KRYLOV_BLOCK = 8
KRYLOV_TOL = 1e-14
KRYLOV_MAX = 400
_NEGLIGIBLE = 60 * math.log(2.0)  # log of a Ritz weight ratio that no longer moves the estimate
_ESTIMATE_CHUNK = 128  # steps of the schedule the estimate evaluates at once
# A three-term step that leaves less than this share of a vector's squared
# mass norm has cancelled so much that the mass product carried through it
# has lost more than two of its digits.
_CANCELLED = 1e-4

# The states of PROBE_BLOCK consecutive recorded times are evaluated
# together, their probe rows by one product and vectorised means and maxima.
PROBE_BLOCK = 64
# Ritz coordinates below this magnitude are flushed to zero: every sum they
# join is far above it, so they move no bit, and subnormal products are slow.
_FLUSH_BELOW = np.finfo(float).tiny

# `smallest_eigenvalue` stops where the Rayleigh quotient moves by at most
# EIGEN_TOL relative, and fails after EIGEN_MAXIT iterations.
EIGEN_TOL = 1e-8
EIGEN_MAXIT = 300


def _factor(system: FemSystem, dt: float | None = None):
    """The solve by the free block of ``M + dt*K``, or of ``K`` without ``dt``.

    The operator is built once, M and K summed slot by slot, as scipy sums
    their free blocks entry by entry.  On a rotation-invariant layout its
    orbit mean is the block itself, and `_orbit_mean_solver`'s FFT in angle
    and L D L^H sweep over the rings is exact; otherwise SuperLU factors the
    free block, compressed once.
    """
    K = A = system.stiffness
    if dt is not None:
        M = system.mass
        A = PolarOperator(M.values + dt * K.values, M.centre + dt * K.centre)
    if system.rotation_invariant:
        return _orbit_mean_solver(system.mesh, A)
    import scipy.sparse.linalg as spla

    # exactly symmetric, so the transposed view of the CSR block is its CSC form
    return spla.splu(system._free_block(A).T, **_SPD_LU).solve


@dataclass(frozen=True)
class EigenResult:
    value: float
    iterations: int


def smallest_eigenvalue(system: FemSystem) -> EigenResult:
    """Smallest eigenvalue of K x = lambda M x on the free block.

    Inverse power iteration with one solve by K from `_factor` and one mass
    product per iteration, M-normalized iterates, the all-ones start vector,
    and a relative Rayleigh-quotient stopping test (`EIGEN_TOL`).  Everything is
    deterministic.  The pipeline reads the eigenvalue from `evolve`'s Lanczos
    basis instead; this iteration is kept as an independent reference for it.
    """
    lo, hi = system.free[0], system.free[-1] + 1
    K, Mff = system.stiffness, system.Mff
    solve = _factor(system)
    My = Mff @ np.ones(hi - lo)  # the next right-hand side
    lam_old = 0.0
    for it in range(1, EIGEN_MAXIT + 1):
        y = solve(My)
        My = Mff @ y
        norm = math.sqrt(_dot(y, My))
        y /= norm
        My /= norm
        lam = _dot(y, K.matvec(y, lo, hi)) / _dot(y, My)
        if abs(lam - lam_old) <= EIGEN_TOL * lam:
            return EigenResult(value=lam, iterations=it)
        lam_old = lam
    raise RuntimeError("inverse power iteration did not converge")


@dataclass
class Evolution:
    """Recorded trajectory of one heat-flow run.

    ``v_field`` is the trapezoidal running time integral of the solution
    (a full nodal vector, zero on the boundary), ``u_final`` the state at
    the stopping time.  ``probes`` has one row per recorded time: the mean
    u, deviation of u, mean flux and deviation of the flux on the probe
    circle, as :func:`phaselab.symmetry_checks.probe_deviation` gives them.
    Every state is read from ``krylov_dim`` Lanczos vectors, with an
    estimated relative error of at most ``krylov_estimate``.
    """

    times: np.ndarray
    mass_norms: np.ndarray
    probes: np.ndarray  # (len(times), 4)
    v_field: np.ndarray
    u_final: np.ndarray
    steps: int
    lam_min: float  # smallest eigenvalue of (K, M), from the largest Ritz value
    krylov_dim: int
    krylov_estimate: float
    step_solver: str  # the cap solve: "angular Fourier" if rotation-invariant, else "SuperLU"

    @property
    def initial_norm(self) -> float:
        return float(self.mass_norms[0])

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    @cached_property
    def probe_dev_max(self) -> tuple[float, float]:
        """Largest probe deviation of u and of the flux over the run."""
        dev_u, dev_flux = self.probes[:, 1::2].max(axis=0)
        return float(dev_u), float(dev_flux)


def _step_size(k: int) -> float:
    """Size of step ``k`` (counted from zero) on the fixed schedule.

    The growth exponent stops at the first level whose step reaches
    ``DT_MAX``, so the power cannot overflow however long a run lasts.
    """
    if k < WARMUP_STEPS:
        return DT0
    return min(DT0 * GROWTH ** min(k - WARMUP_STEPS + 1, CAP_LEVEL), DT_MAX)


@functools.lru_cache(maxsize=1)
def _size_table(*schedule) -> np.ndarray:
    """`_step_size` up to the cap level, built once per ``schedule``: the constants it reads."""
    sizes = np.array([_step_size(j) for j in range(WARMUP_STEPS + CAP_LEVEL)])
    sizes.flags.writeable = False
    return sizes


def _step_sizes(k: np.ndarray) -> np.ndarray:
    """`_step_size` of every step in ``k``, bit for bit (DT_MAX from the cap level on)."""
    sizes = _size_table(DT0, WARMUP_STEPS, GROWTH, DT_MAX, CAP_LEVEL)
    return sizes[np.minimum(k, len(sizes) - 1)]


def _step_factors(theta: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Factors ``1 / (1 + dt*lam)``, shape (len(dt), len(theta)), of steps of sizes ``dt``
    on B's eigenvalues ``theta = 1 / (1 + DT_MAX*lam)``."""
    dt = dt[:, None]
    return DT_MAX * theta / ((DT_MAX - dt) * theta + dt)


def _lanczos(system: FemSystem, u0: np.ndarray, Mu0: np.ndarray, beta0: float, solve):
    """Mass-orthonormal Lanczos basis of B from ``u0``, its tridiagonal's eigenpairs, the estimate.

    ``Mu0`` is ``Mff @ u0`` and ``beta0`` its mass norm.  Each new vector
    takes the three-term step, its mass product carried along with the
    stored products of the last two vectors, then one classical Gram-Schmidt
    pass against the whole basis, whose coefficient on the newest vector joins
    the diagonal.  A second pass runs only where the first one cancelled at
    least half the squared mass norm that the three-term step left (Daniel,
    Gragg, Kaufman & Stewart, Math. Comp. 30, 1976).  So a vector takes two
    products by ``Mff``: the solve's, and the one that gives its mass norm
    and the next right-hand side.  A third is formed only where the
    three-term step cancels down to `_CANCELLED` of the squared norm, as at
    the end of an invariant subspace: the carried product has lost its digits
    there.  The basis, kept as blocks of `KRYLOV_BLOCK` rows, grows a block at
    a time until `_error_estimate` is at most `KRYLOV_TOL`, or stops at a
    zero vector: its space is invariant.
    """
    from scipy.linalg import eigh_tridiagonal

    Mff = system.Mff
    blocks, alpha, beta = [], [], [0.0]  # beta[-1] multiplies the previous vector
    q, Mq = u0 / beta0, Mu0 / beta0
    q_prev = Mq_prev = np.zeros_like(u0)
    while True:
        block = np.empty((KRYLOV_BLOCK, len(u0)))
        block[0] = q
        blocks.append(block)
        for i in range(KRYLOV_BLOCK):
            basis = blocks[:-1] + [block[: i + 1]]
            w = solve(Mq)
            Mw = Mff @ w
            a, full = _dot(q, Mw), _dot(w, Mw)
            w -= a * q + beta[-1] * q_prev  # the three-term step
            Mw -= a * Mq + beta[-1] * Mq_prev
            kept = _dot(w, Mw)  # the squared mass norm the three-term step left
            if kept < _CANCELLED * full:  # the carried product lost its digits: form it afresh
                Mw = Mff @ w
                kept = _dot(w, Mw)
            for _ in range(2):
                for b in basis:
                    h = np.einsum("ij,j->i", b, Mw)
                    w -= np.einsum("ij,i->j", b, h)
                a += h[-1]  # the coefficient on q, the last row of the last block
                Mw = Mff @ w
                norm2 = _dot(w, Mw)
                if norm2 > kept / 2.0:
                    break
            alpha.append(a)
            norm = math.sqrt(norm2)
            beta.append(norm)
            if norm == 0.0:
                blocks[-1] = block[: i + 1]
                break
            q_prev, Mq_prev = q, Mq
            Mq = np.divide(Mw, norm, out=Mw)
            # the next vector, into its row of the basis; a new block copies the last one in
            q = np.divide(w, norm, out=block[i + 1] if i + 1 < KRYLOV_BLOCK else w)
        theta, Z = eigh_tridiagonal(np.array(alpha), np.array(beta[1:-1]))
        estimate = _error_estimate(theta, Z, beta[-1])
        if estimate <= KRYLOV_TOL or beta[-1] == 0.0:
            return blocks, theta, Z, estimate
        if len(alpha) >= KRYLOV_MAX:
            raise RuntimeError(
                f"the heat flow needs more than {KRYLOV_MAX} Lanczos vectors "
                f"(error estimate above {KRYLOV_TOL:g})"
            )


def _error_estimate(theta: np.ndarray, Z: np.ndarray, beta: float) -> float:
    """Largest first-term estimate of a state's relative error over the whole schedule.

    After k steps it is ``beta * |e_r^T f_k(T) e_1| / ||f_k(T) e_1||``, with
    f_k the product of the first k step functions and beta the next
    off-diagonal entry (Saad, 1992), evaluated in log space from Z's first and
    last rows until every Ritz weight trails the one of the largest theta by
    `_NEGLIGIBLE`; from there on it is its limit ``beta * |Z[-1, top]|``.
    The scan stops as soon as the estimate exceeds `KRYLOV_TOL`, so a
    rejected basis gets only a lower bound; an accepted one gets the maximum.
    """
    top = int(np.argmax(theta))
    others = np.arange(len(theta)) != top
    with np.errstate(divide="ignore"):
        log_w = np.log(np.abs(Z[0]))  # the weights of the start: f_0 = 1
    coupling = np.sign(Z[0]) * Z[-1]
    worst = beta * abs(Z[-1, top])
    for k in range(0, MAX_STEPS + 1, _ESTIMATE_CHUNK):
        if worst > KRYLOV_TOL:
            return worst
        steps = np.arange(k, k + _ESTIMATE_CHUNK)
        L = log_w + np.cumsum(np.log(_step_factors(theta, _step_sizes(steps))), axis=0)
        w = np.exp(L - L.max(axis=1, keepdims=True))
        estimate = beta * np.abs(np.einsum("kr,r->k", w, coupling)) / np.sqrt(
            np.einsum("kr,kr->k", w, w)
        )
        settled = (L[:, others] <= L[:, top, None] - _NEGLIGIBLE).all(axis=1)
        if settled.any():
            return max(worst, float(estimate[: settled.argmax() + 1].max()))
        worst = max(worst, float(estimate.max()))
        log_w = L[-1]
    return worst


def evolve(system: FemSystem, *, probe: CircleSampler, eps: float = 1e-8) -> Evolution:
    """Run backward Euler from the nodal source values until the mass norm falls below ``eps``.

    The states are read from the Lanczos basis of the cap step (see the
    module docstring), `PROBE_BLOCK` recorded times at a time, and ``probe``
    is sampled at each through ``probe.matrix``.  Neither the
    schedule nor the basis depends on ``eps``, so a run to a smaller ``eps``
    records a shorter run's times, norms and probe rows, then goes on.
    """
    free = system.free
    u0 = system.g_vertex[free]
    Mu0 = system.Mff @ u0
    beta0 = math.sqrt(_dot(u0, Mu0))
    if not 0.0 < beta0 < math.inf:
        raise ValueError("the initial heat must have a positive, finite mass norm")
    blocks, theta, Z, estimate = _lanczos(system, u0, Mu0, beta0, _factor(system, DT_MAX))
    PQ = np.hstack([probe.matrix @ b.T for b in blocks])
    PZ = np.einsum("sr,rt->st", PQ, Z)  # the probe's samples of the Ritz vectors

    c = beta0 * Z[0]  # Ritz coordinates of the state before each block's first
    V = np.zeros_like(c)
    t, times, norms, rows = 0.0, [], [], []
    for lo in itertools.count(0, PROBE_BLOCK):
        k = np.arange(lo, lo + PROBE_BLOCK)  # the recorded times of this block
        dt = _step_sizes(np.maximum(k - 1, 0))  # the step into each
        if lo == 0:
            dt[0] = 0.0  # the start, whose factor is exactly 1
        C = c * np.cumprod(_step_factors(theta, dt), axis=0)
        live = _flush(C)
        block_norms = np.sqrt(np.einsum("kr,kr->k", C, C))
        below = block_norms <= eps
        n = int(below.argmax()) + 1 if below.any() else PROBE_BLOCK
        if lo + n - 1 > MAX_STEPS:
            raise RuntimeError("heat flow did not reach the stopping norm")
        trapezoid = (np.concatenate([c[None], C[: n - 1]]) + C[:n]) / 2.0
        V += np.einsum("k,kr->r", dt[:n], trapezoid)
        times.append(np.cumsum(np.concatenate([[t], dt[:n]]))[1:])  # adds one step at a time
        t = times[-1][-1]
        norms.append(block_norms[:n])
        rows.append(_probe_rows(PZ[:, live], C[:, live])[:n])
        c = C[n - 1]
        if below.any():
            break

    def nodal(coords):
        y = np.einsum("rt,t->r", Z, coords)
        out = np.zeros(system.mesh.nv)
        starts = range(0, len(y), KRYLOV_BLOCK)
        out[free] = sum(np.einsum("ij,i->j", b, y[j : j + len(b)]) for j, b in zip(starts, blocks))
        return out

    times = np.concatenate(times)
    return Evolution(
        times=times,
        mass_norms=np.concatenate(norms),
        probes=np.concatenate(rows),
        v_field=nodal(V),
        u_final=nodal(c),
        steps=len(times) - 1,
        lam_min=float((1.0 - theta[-1]) / (DT_MAX * theta[-1])),  # theta ascends
        krylov_dim=len(theta),
        krylov_estimate=estimate,
        step_solver="angular Fourier" if system.rotation_invariant else "SuperLU",
    )


def _flush(C: np.ndarray) -> np.ndarray:
    """Flush the coordinates of ``C`` below `_FLUSH_BELOW` to zero, in place; its live columns.

    Every step factor is at most 1, so a coordinate only shrinks: a column
    flushed in one block is zero in every later one, and the probe product
    skips it.
    """
    C[np.abs(C) < _FLUSH_BELOW] *= 0.0  # keeps the sign of a zero
    return C.any(axis=0)


def _probe_rows(PZ: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Probe rows of a block of states: mean u, deviation of u, mean flux, deviation of the flux.

    ``C`` holds one state per row in the coordinates that ``PZ`` maps to the
    probe's samples, which `probe_deviation` reduces.  The samples come out
    C-contiguous, so each row's means take the same pairwise sums as a
    single state's would.
    """
    return probe_deviation(np.einsum("kr,sr->ks", C, PZ))


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
