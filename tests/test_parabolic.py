"""Heat flow: eigenvalue certificates, step schedule, decay, time integrals."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve

from phaselab import parabolic
from phaselab.cli_reporting import build_preset, preset_names, run_scenario
from phaselab.fem2d import (
    CircleSampler,
    assemble_system,
    generate_mesh,
    recover_boundary_flux,
    solve_elliptic,
)
from phaselab.geometry import DomainSpec, PhaseConfig, PhaseRegion
from phaselab.parabolic import (
    _step_size,
    _step_sizes,
    decay_certificate,
    evolve,
    monotone_decay,
    smallest_eigenvalue,
    tail_bound,
    v_error_vs_elliptic,
)
from phaselab.symmetry_checks import MEAN_GUARD, probe_deviation

from oracles import DISK_LAMBDA_EXACT, fd_annulus_eigenvalue

ANNULUS_LAMBDA = 39.01328659015752  # fd_annulus_eigenvalue(0.5, 1.0, n=4000)


def disk_system(n, sigma=None, radius=0.5, center=(0.0, 0.0)):
    if sigma is None:
        cfg = PhaseConfig(domain=DomainSpec("ball"))
        table = [1.0]
    else:
        cfg = PhaseConfig(
            domain=DomainSpec("ball"),
            phases=(PhaseRegion(shape="disk", sigma=sigma, center=center, radius=radius),),
        )
        table = [1.0, sigma]
    return assemble_system(generate_mesh(cfg, n), table, 1.0)


def test_disk_eigenvalue_matches_bessel_root():
    lam = smallest_eigenvalue(disk_system(32)).value
    assert abs(lam - DISK_LAMBDA_EXACT) / DISK_LAMBDA_EXACT < 1e-3
    # conforming elements approach the true value from above
    assert lam > DISK_LAMBDA_EXACT


def test_annulus_eigenvalue_matches_radial_oracle():
    assert abs(fd_annulus_eigenvalue(0.5, 1.0, n=4000) - ANNULUS_LAMBDA) < 1e-10
    cfg = PhaseConfig(domain=DomainSpec("annulus", inner_radius=0.5))
    sys_ = assemble_system(generate_mesh(cfg, 32), [1.0], 1.0)
    lam = smallest_eigenvalue(sys_).value
    assert abs(lam - ANNULUS_LAMBDA) / ANNULUS_LAMBDA < 5e-3
    assert lam > ANNULUS_LAMBDA


def test_eigenvalue_refinement_decreases():
    lams = [smallest_eigenvalue(disk_system(n)).value for n in (8, 16, 32)]
    assert lams[0] > lams[1] > lams[2] > DISK_LAMBDA_EXACT


def test_eigenvalue_scales_exactly_with_conductivity():
    # doubling sigma everywhere doubles the Rayleigh quotient; the iteration
    # follows the same normalized trajectory, so equality is bitwise
    cfg = PhaseConfig(domain=DomainSpec("ball"))
    mesh = generate_mesh(cfg, 12)
    lam1 = smallest_eigenvalue(assemble_system(mesh, [1.0], 1.0)).value
    lam2 = smallest_eigenvalue(assemble_system(mesh, [2.0], 1.0)).value
    assert lam2 == 2.0 * lam1


def test_step_schedule_uniform_then_geometric_then_capped(live_factors):
    sys_ = disk_system(8)
    run = evolve(sys_, eps=1e-6)
    dts = np.diff(run.times)
    assert len(dts) == run.steps
    assert np.allclose(dts[:20], 5e-4, rtol=0, atol=1e-15)
    for k in range(20, min(60, len(dts))):
        expect = min(5e-4 * 1.05 ** (k - 19), 2e-3)
        assert abs(dts[k] - expect) < 1e-15
    assert abs(dts[-1] - 2e-3) < 1e-15
    # every step, of every size, is read from one Krylov basis of the cap step,
    # which this rotation-invariant layout solves by FFT in angle
    assert run.step_solver == "angular Fourier"
    assert live_factors.built == []
    assert run.krylov_dim % parabolic.KRYLOV_BLOCK == 0
    assert 0.0 <= run.krylov_estimate <= parabolic.KRYLOV_TOL
    assert run.mass_norms[-1] <= 1e-6 < run.mass_norms[-2]


def test_step_size_caps_its_exponent_and_keeps_every_earlier_bit():
    # the uncapped power 1.05 ** (k - 19) overflows once k passes about 14,550
    assert _step_size(10**6) == 2e-3
    for k in range(20, 14_000, 7):
        assert _step_size(k) == min(5e-4 * 1.05 ** (k - 19), 2e-3), k
    # the vectorised schedule gives the same bits
    k = np.arange(20_000)
    assert np.array_equal(_step_sizes(k), [_step_size(j) for j in k])
    assert _step_sizes(np.array([10**6]))[0] == 2e-3


def free_blocks(sys_):
    """The free blocks of K and M in CSR, selected by the free index array."""
    free = sys_.free
    return tuple(A.tocsr()[free][:, free] for A in (sys_.stiffness, sys_.mass))


def test_evolve_keeps_one_step_factor_alive(live_factors):
    sys_ = disk_system(8, sigma=2.0, center=(0.2, 0.0), radius=0.3)
    Kff, Mff = free_blocks(sys_)
    full = evolve(sys_, eps=1e-6)
    assert full.step_solver == "SuperLU"
    assert live_factors.peak == 1
    # exactly one factor, the cap's: every step of every size is read from
    # the Krylov basis it builds
    assert len(live_factors.built) == 1
    ((cap, _),) = live_factors.built
    # the stored pattern, which SuperLU's MMD_AT_PLUS_A ordering reads, as well as
    # the values: bitwise scipy's sum of the free blocks
    ref = (Mff + parabolic.DT_MAX * Kff).tocsc()
    assert cap.format == "csc" and cap.shape == ref.shape
    for attr in ("indptr", "indices", "data"):
        got, want = getattr(cap, attr), getattr(ref, attr)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), attr
    assert len({_step_size(k) for k in range(full.steps)}) == 30

    # a rotation-invariant layout solves the cap step and the eigen-solver's
    # Kff by FFT in angle: SuperLU never runs
    concentric = disk_system(8, sigma=2.0)
    run = evolve(concentric, eps=1e-6)
    smallest_eigenvalue(concentric)
    assert run.step_solver == "angular Fourier"
    assert len(live_factors.built) == 1


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("name", preset_names())
def test_a_heat_flow_run_factors_once_and_its_lam_matches_inverse_iteration(live_factors, name, n):
    # the cap step is the run's one factorization: SuperLU on the two displaced
    # presets, the exact FFT-in-angle solve on the concentric ones
    res = run_scenario(build_preset(name, n=n, pipeline="both"))
    displaced = name in ("two_phase_displaced", "multiphase_discrete")
    assert res.system.rotation_invariant != displaced
    assert len(live_factors.built) == int(displaced)
    # the decay certificate and the tail read lam_min from the cap step's Lanczos
    # basis; inverse power iteration by Kff, a second factor, is the reference
    ref = smallest_eigenvalue(res.system).value
    assert abs(res.run.lam_min - ref) <= 1e-9 * ref
    assert res.decay.lam == res.run.lam_min


def ring_system(kind, n=16):
    """A ball, or an annulus of inner radius 0.3, with a concentric ring of sigma 3."""
    domain = DomainSpec("ball") if kind == "ball" else DomainSpec("annulus", inner_radius=0.3)
    ring = PhaseRegion(shape="ring", sigma=3.0, r_inner=0.45, r_outer=0.6)
    cfg = PhaseConfig(domain=domain, phases=(ring,))
    return assemble_system(generate_mesh(cfg, n), cfg.sigma_table(), 1.0)


@pytest.mark.parametrize("kind", ["ball", "annulus"])
@pytest.mark.parametrize("dt", [None, parabolic.DT0, parabolic.DT_MAX, 0.5])
def test_invariant_layout_solves_exactly_by_fft(kind, dt, live_factors):
    sys_ = ring_system(kind)
    assert sys_.rotation_invariant
    u = np.random.default_rng(7).standard_normal(len(sys_.free))
    Kff, Mff = free_blocks(sys_)
    if dt is None:  # the eigen-solver's solve by Kff
        ref = spsolve(Kff, u)
        z = parabolic._factor(sys_)(u)
    else:  # one backward Euler step; the heat flow solves with dt = DT_MAX
        ref = spsolve(Mff + dt * Kff, Mff @ u)
        z = parabolic._factor(sys_, dt)(Mff @ u)
    assert rel(z, ref) <= 1e-12
    assert live_factors.built == []


def factor_every_size(sys_, eps, factor=None, start=None, probe=None):
    """Backward Euler on the same schedule, every step size factored and solved directly.

    ``factor(dt)`` gives the solve by ``Mff + dt*Kff``, SuperLU by default.
    A ``start`` that this returned is carried on from its last state;
    ``probe`` records the probe rows of every state.
    """
    free = sys_.free
    Kff, Mff = free_blocks(sys_)
    if factor is None:
        factor = lambda dt: spla.splu((Mff + dt * Kff).tocsc()).solve
    if start is None:
        u, V = sys_.g_vertex[free], np.zeros(len(free))
        times, norms, samples = [0.0], [sys_.mass_norm(u)], []
    else:
        u, V = start.u.copy(), start.V.copy()
        times, norms, samples = list(start.times), list(start.mass_norms), list(start.samples)
    k = len(times) - 1
    factors = {}
    while True:
        if probe is not None:
            samples.append(probe.matrix @ u)
        if norms[-1] <= eps:
            break
        dt = _step_size(k)
        if dt not in factors:
            factors[dt] = factor(dt)
        u_new = factors[dt](Mff @ u)
        V += dt * (u + u_new) / 2.0
        u = u_new
        k += 1
        times.append(times[-1] + dt)
        norms.append(sys_.mass_norm(u))
    if start is None:
        assert len(factors) == 30
    rows = probe_deviation(np.array(samples)) if probe is not None else None
    return SimpleNamespace(
        steps=k, times=np.array(times), mass_norms=np.array(norms), u=u, V=V,
        samples=samples, probes=rows,
    )


def rel(x, y):
    return np.abs(x - y).max() / np.abs(y).max()


def layout_system(n, displaced):
    """A displaced core of sigma 2 in a ball, or a concentric ring of sigma 3 in a ball."""
    if displaced:
        return disk_system(n, sigma=2.0, center=(0.2, 0.0), radius=0.3)
    return ring_system("ball", n)


@settings(derandomize=True, deadline=None, max_examples=12)
@given(n=st.integers(4, 16), displaced=st.booleans())
@example(n=16, displaced=True)
def test_heat_flow_matches_a_factor_for_every_size(n, displaced):
    # the states read from the Krylov basis of the cap step against backward
    # Euler stepped with a factor of every size: the same steps and times, and
    # u, V and mass norms within round-off
    sys_ = layout_system(n, displaced)
    free = sys_.free
    run = evolve(sys_, eps=1e-8)
    ref = factor_every_size(sys_, eps=1e-8)
    assert run.step_solver == ("SuperLU" if displaced else "angular Fourier")
    assert run.steps == ref.steps
    assert np.array_equal(run.times, ref.times)
    if displaced:
        assert rel(run.u_final[free], ref.u) <= 1e-12
        assert rel(run.v_field[free], ref.V) <= 1e-12
        np.testing.assert_allclose(run.mass_norms, ref.mass_norms, rtol=1e-12, atol=0.0)
    else:  # the bounds of test_fft_steps_match_a_factor_for_every_size
        assert rel(run.u_final[free], ref.u) <= 1e-11
        assert rel(run.v_field[free], ref.V) <= 1e-12
        np.testing.assert_allclose(run.mass_norms, ref.mass_norms, rtol=1e-11, atol=0.0)
    assert run.krylov_estimate <= parabolic.KRYLOV_TOL


def test_fft_steps_match_a_factor_for_every_size(live_factors):
    for kind in ("ball", "annulus"):
        sys_ = ring_system(kind)
        free = sys_.free
        run = evolve(sys_, eps=1e-8)
        assert live_factors.built == []  # the cap step is solved by FFT in angle
        assert run.step_solver == "angular Fourier"
        ref = factor_every_size(sys_, eps=1e-8)
        assert run.steps == ref.steps
        assert np.array_equal(run.times, ref.times)
        # u_final has decayed to 1e-8 of the start, so its round-off is relatively
        # larger: about 8e-13 on the ball and 3e-14 on the annulus
        assert rel(run.u_final[free], ref.u) <= 1e-11, kind
        assert rel(run.v_field[free], ref.V) <= 1e-12, kind
        np.testing.assert_allclose(run.mass_norms, ref.mass_norms, rtol=1e-11, atol=0.0)
        live_factors.built.clear()  # the reference's own factors


@pytest.mark.parametrize("radius", [0.4, 0.97])  # crosses the core; in the boundary band
def test_probe_matrix_matches_the_p1_definition(radius):
    sys_ = disk_system(16, sigma=2.0, center=(0.2, 0.0), radius=0.3)
    mesh = sys_.mesh
    probe = CircleSampler(sys_, radius)
    m = probe.count
    assert probe.matrix.shape == (2 * m, len(sys_.free))
    th = 2 * np.pi * (np.arange(m) + 0.5) / m
    normal = np.column_stack([np.cos(th), np.sin(th)])
    pts = radius * normal
    # each sample's triangle and barycentric weights, found among all triangles
    P = mesh.vertices[mesh.triangles]
    inv = np.linalg.inv(np.stack([P[:, 1] - P[:, 0], P[:, 2] - P[:, 0]], axis=2))
    ab = np.einsum("tij,ptj->pti", inv, pts[:, None] - P[:, 0])
    bary = np.concatenate([1.0 - ab.sum(axis=2, keepdims=True), ab], axis=2)
    tri = bary.min(axis=2).argmax(axis=1)
    bary = bary[np.arange(m), tri]
    assert bary.min() > -1e-12
    sigma = sys_.sigma_e[tri]
    # any state, zero on the boundary: the P1 interpolant, and sigma times its radial slope
    u = np.zeros(mesh.nv)
    u[sys_.free] = 1.0 + np.random.default_rng(7).standard_normal(len(sys_.free))
    corners = u[mesh.triangles[tri]]
    grad = np.einsum("pij,pi->pj", inv[tri], corners[:, 1:] - corners[:, :1])
    samples = probe.matrix @ u[sys_.free]
    np.testing.assert_allclose(samples[:m], (bary * corners).sum(axis=1), rtol=0.0, atol=1e-13)
    flux = sigma * (grad * normal).sum(axis=1)
    np.testing.assert_allclose(samples[m:], flux, rtol=1e-12, atol=1e-11)
    # probe_deviation and the heat flow's rows reduce these samples alike, on
    # both sides of the zero-mean guard
    for scale in (1.0, 1e-14):
        samples = probe.matrix @ (scale * u[sys_.free])
        ps = probe_deviation(samples)
        assert (abs(ps[0]) < MEAN_GUARD, abs(ps[2]) < MEAN_GUARD) == (scale < 1.0, scale < 1.0)
        row = parabolic._probe_rows(samples[:, None], np.ones((1, 1)))[0]
        assert tuple(row) == tuple(ps)
    if radius > 0.9:
        assert np.isin(mesh.triangles[tri], sys_.boundary).any(axis=1).all()
        return
    # no sample's triangle meets the boundary and the circle crosses the core: a
    # linear field's samples are its values and sigma times its radial derivative
    assert not np.isin(mesh.triangles[tri], sys_.boundary).any()
    assert set(sigma) == {1.0, 2.0}
    field = lambda xy: 1.0 + 2.0 * xy[..., 0] - 3.0 * xy[..., 1]
    samples = probe.matrix @ field(mesh.vertices[sys_.free])
    np.testing.assert_allclose(samples[:m], field(pts), rtol=0.0, atol=1e-13)
    radial = 2.0 * normal[:, 0] - 3.0 * normal[:, 1]
    np.testing.assert_allclose(samples[m:], sigma * radial, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("radius", [0.02, 0.4, 0.97])  # in the centre fan; mid-way; by the rim
def test_fourier_probe_rows_match_the_nodal_probe(radius):
    # on a rotation-invariant layout, whose cap step is solved by FFT in angle,
    # the probe read through the Krylov basis against the probe of nodal
    # states; a source that is not radial keeps every deviation well above
    # round-off through the warm-up and the growth of the step
    sys_ = assemble_system(
        disk_system(16, sigma=2.0).mesh, [1.0, 2.0], lambda P: 1.0 + P[:, 0] - 0.5 * P[:, 1] ** 2
    )
    assert sys_.rotation_invariant
    probe = CircleSampler(sys_, radius)
    run = evolve(sys_, eps=1e-3, probe=probe)
    # the first and the last state, read through the probe matrix; the last
    # one's deviations are down to 1e-8 of its means, so only those are compared
    for row, u, cols in (
        (run.probes[0], sys_.g_vertex, slice(0, 4)),
        (run.probes[-1], run.u_final, slice(0, 4, 2)),
    ):
        samples = probe.matrix @ u[sys_.free]
        want = parabolic._probe_rows(samples[:, None], np.ones((1, 1)))[0]
        np.testing.assert_allclose(row[cols], want[cols], rtol=1e-12, atol=0.0)
    # every state to the cap against backward Euler stepped with a factor of
    # every size; near the centre the mean flux is a small difference of
    # samples, so the flux columns are compared only away from it
    ref = factor_every_size(sys_, eps=1e-3, probe=probe)
    early = parabolic.WARMUP_STEPS + parabolic.CAP_LEVEL
    assert ref.probes[:early, 1::2].min() > 1e-3
    cols = slice(0, 4 if radius > 0.1 else 2)
    np.testing.assert_allclose(
        run.probes[:early, cols], ref.probes[:early, cols], rtol=1e-12, atol=0.0
    )


@pytest.mark.parametrize("center", [(0.0, 0.0), (0.2, 0.0)])  # FFT cap solve; SuperLU
def test_probe_rows_of_a_block_match_each_step_bitwise(monkeypatch, center):
    sys_ = disk_system(8, sigma=2.0, center=center, radius=0.3)
    probe = CircleSampler(sys_, 0.75)
    blocks = []
    real = parabolic._probe_rows

    def spy(PZ, C):
        rows = real(PZ, C)
        blocks.append((PZ, C, rows))
        return rows

    monkeypatch.setattr(parabolic, "_probe_rows", spy)
    run = evolve(sys_, eps=1e-6, probe=probe)
    # the run does not end on a whole block, yet every block is evaluated whole
    block = parabolic.PROBE_BLOCK
    assert len(run.times) % block
    assert len(blocks) > 1
    assert [len(C) for _, C, _ in blocks] == [block] * len(blocks)
    rows = np.concatenate([rows for *_, rows in blocks])
    assert np.array_equal(run.probes, rows[: len(run.times)])
    for PZ, C, rows in blocks:
        for c, row in zip(C, rows):
            assert tuple(row) == tuple(probe_deviation(np.einsum("sr,r->s", PZ, c)))
    # the last recorded state is the final state
    PZ, C, _ = blocks[-1]
    last = np.einsum("sr,r->s", PZ, C[(len(run.times) - 1) % block])
    want = probe.matrix @ run.u_final[sys_.free]
    np.testing.assert_allclose(last, want, rtol=0.0, atol=1e-12 * np.abs(want).max())


EVOLUTION_FIELDS = (
    "times",
    "mass_norms",
    "probes",
    "v_field",
    "u_final",
    "steps",
    "krylov_dim",
    "krylov_estimate",
)


def subnormal_count(C):
    return int(((C != 0.0) & (np.abs(C) < np.finfo(float).tiny)).sum())


@pytest.mark.parametrize("center", [(0.0, 0.0), (0.2, 0.0)])  # concentric; displaced
def test_no_subnormal_reaches_the_probe_product(monkeypatch, center):
    # Ritz coordinates that underflow are flushed before any product uses
    # them; every sum they would join is far above them, so no bit moves
    sys_ = disk_system(16, sigma=2.0, center=center, radius=0.3)
    real = parabolic._probe_rows

    def run_with_blocks():
        blocks = []

        def spy(PZ, C):
            blocks.append(C.copy())
            return real(PZ, C)

        monkeypatch.setattr(parabolic, "_probe_rows", spy)
        return evolve(sys_, eps=1e-8, probe=CircleSampler(sys_, 0.75)), blocks

    flushed, blocks = run_with_blocks()
    assert [subnormal_count(C) for C in blocks] == [0] * len(blocks)
    monkeypatch.setattr(parabolic, "_FLUSH_BELOW", 0.0)
    kept, blocks = run_with_blocks()
    assert sum(subnormal_count(C) for C in blocks) > 0  # the flush had work to do
    for name in EVOLUTION_FIELDS:
        a, b = getattr(flushed, name), getattr(kept, name)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name


def full_scan_estimate(theta, Z, beta):
    # the error estimate without its early exit: the maximum over the whole schedule
    top = int(np.argmax(theta))
    others = np.arange(len(theta)) != top
    with np.errstate(divide="ignore"):
        log_w = np.log(np.abs(Z[0]))
    coupling = np.sign(Z[0]) * Z[-1]
    worst = beta * abs(Z[-1, top])
    chunk = parabolic._ESTIMATE_CHUNK
    for k in range(0, parabolic.MAX_STEPS + 1, chunk):
        steps = np.arange(k, k + chunk)
        L = log_w + np.cumsum(
            np.log(parabolic._step_factors(theta, _step_sizes(steps))), axis=0
        )
        w = np.exp(L - L.max(axis=1, keepdims=True))
        estimate = beta * np.abs(np.einsum("kr,r->k", w, coupling)) / np.sqrt(
            np.einsum("kr,kr->k", w, w)
        )
        settled = (L[:, others] <= L[:, top, None] - parabolic._NEGLIGIBLE).all(axis=1)
        if settled.any():
            return max(worst, float(estimate[: settled.argmax() + 1].max()))
        worst = max(worst, float(estimate.max()))
        log_w = L[-1]
    return worst


def annulus_system(n):
    """The one-phase annulus of inner radius 0.5."""
    cfg = PhaseConfig(domain=DomainSpec("annulus", inner_radius=0.5))
    return assemble_system(generate_mesh(cfg, n), cfg.sigma_table(), 1.0)


@pytest.mark.parametrize(
    "layout, tol",
    [
        ("displaced", 1e-14),  # every too-small basis is rejected by its limit alone
        ("annulus", 1e-14),  # the accepted basis's maximum lies inside the schedule
        ("annulus", 1e-15),  # a basis whose limit passes is rejected by the scan
    ],
)
def test_early_exit_keeps_every_krylov_decision(monkeypatch, layout, tol):
    # the estimate stops once it exceeds KRYLOV_TOL: every basis is rejected
    # or accepted as by the full scan, and an accepted one gets its value
    monkeypatch.setattr(parabolic, "KRYLOV_TOL", tol)
    if layout == "displaced":
        sys_ = disk_system(16, sigma=2.0, center=(0.2, 0.0), radius=0.3)
    else:
        sys_ = annulus_system(16)
    real = parabolic._error_estimate
    calls = []

    def spy(theta, Z, beta):
        value = real(theta, Z, beta)
        limit = beta * abs(Z[-1, np.argmax(theta)])
        calls.append((value, full_scan_estimate(theta, Z, beta), limit))
        return value

    monkeypatch.setattr(parabolic, "_error_estimate", spy)
    run = evolve(sys_, eps=1e-8)
    assert len(calls) == run.krylov_dim // parabolic.KRYLOV_BLOCK > 1
    for value, full, _ in calls:
        assert (value > tol) == (full > tol)
        assert value <= full
        if full <= tol:
            assert value == full
    assert calls[-1][0] == run.krylov_estimate <= tol
    if layout == "annulus":
        assert any(value > limit for value, _, limit in calls)


def test_krylov_max_guard(monkeypatch):
    # the displaced core needs more than one block of Lanczos vectors
    monkeypatch.setattr(parabolic, "KRYLOV_MAX", 8)
    sys_ = disk_system(16, sigma=2.0, center=(0.2, 0.0), radius=0.3)
    message = r"more than 8 Lanczos vectors \(error estimate above 1e-14\)"
    with pytest.raises(RuntimeError, match=message):
        evolve(sys_, eps=1e-8)


class CountingProducts:
    """Stands in for ``system.Mff`` and counts its products."""

    def __init__(self, A):
        self.A, self.calls = A, 0

    def __matmul__(self, x):
        self.calls += 1
        return self.A @ x


def mass_gram_error(blocks, Mff):
    """``max |Q^T M Q - I|`` of a basis kept as blocks of rows."""
    Q = np.vstack(blocks)
    return np.abs(Q @ (Mff @ Q.T) - np.eye(len(Q))).max()


def lanczos_from(sys_, u0, solve=None):
    """`parabolic._lanczos` from ``u0``, by the cap step's solve unless another is given."""
    Mu0 = sys_.Mff @ u0
    if solve is None:
        solve = parabolic._factor(sys_, parabolic.DT_MAX)
    return parabolic._lanczos(sys_, u0, Mu0, math.sqrt(Mu0 @ u0), solve)


@pytest.mark.parametrize(
    "name", ["two_phase_displaced", "multiphase_discrete", "two_phase_concentric"]
)
def test_lanczos_basis_is_mass_orthonormal_at_two_mass_products_per_vector(monkeypatch, name):
    # one Gram-Schmidt pass per vector keeps the basis mass-orthonormal to
    # round-off, by SuperLU or by FFT in angle; the start's mass norm takes one
    # product, and each vector two: the solve's, and its norm's
    sys_ = run_scenario(build_preset(name, n=16)).system
    assert sys_.rotation_invariant == (name == "two_phase_concentric")
    Mff = sys_.Mff
    sys_.Mff = counted = CountingProducts(Mff)
    bases = []
    real = parabolic._lanczos

    def spy(*args):
        out = real(*args)
        bases.append(out[0])
        return out

    monkeypatch.setattr(parabolic, "_lanczos", spy)
    run = evolve(sys_, eps=1e-8)
    assert mass_gram_error(bases[0], Mff) <= 1e-13
    if sys_.rotation_invariant:
        # the radial start spans the 16 radial vectors of the n=16 ball, and
        # nothing else: the last three-term step cancels to round-off, and its
        # mass product is formed afresh
        assert run.krylov_dim == 16
        assert counted.calls == 1 + 2 * run.krylov_dim + 1
    else:
        assert counted.calls == 1 + 2 * run.krylov_dim


def test_a_start_in_an_invariant_subspace_keeps_the_basis_orthonormal():
    # three generalized eigenvectors of (K, M) span an invariant subspace of
    # B, so the fourth three-term step cancels to round-off, where the mass
    # product carried through it has no digit left; it is formed afresh, and
    # the vectors after it stay mass-orthogonal to the first three
    sys_ = disk_system(4, sigma=2.0, center=(0.2, 0.0), radius=0.3)
    Kff, Mff = free_blocks(sys_)
    _, X = scipy.linalg.eigh(Kff.toarray(), Mff.toarray())
    sys_.Mff = counted = CountingProducts(Mff)
    blocks, *_ = lanczos_from(sys_, X[:, :3].sum(axis=1))
    dim = sum(map(len, blocks))
    assert counted.calls > 1 + 2 * dim
    assert mass_gram_error(blocks, Mff) <= 1e-13


def test_a_gram_schmidt_pass_that_cancels_most_of_a_vector_is_repeated(monkeypatch):
    # a solve that leans hard on the start vector: the first three-term step
    # takes the lean off with the diagonal entry, cancelling to round-off, so
    # that vector's mass product is formed afresh; every later vector keeps a
    # large component along the start, which one pass cancels, so a second
    # pass runs (Daniel, Gragg, Kaufman & Stewart, 1976).  One pass alone
    # leaves the basis mass-orthogonal to only about 1e-7.
    sys_ = disk_system(8, sigma=2.0, center=(0.2, 0.0), radius=0.3)
    u0 = sys_.g_vertex[sys_.free]
    solve = parabolic._factor(sys_, parabolic.DT_MAX)
    monkeypatch.setattr(parabolic, "_error_estimate", lambda *args: 0.0)  # one block
    Mff = sys_.Mff
    sys_.Mff = counted = CountingProducts(Mff)
    blocks, *_ = lanczos_from(sys_, u0, lambda rhs: solve(rhs) + 1e3 * u0)
    dim = sum(map(len, blocks))
    assert dim == parabolic.KRYLOV_BLOCK
    assert counted.calls == 1 + 2 * dim + 1 + (dim - 1)
    assert mass_gram_error(blocks, Mff) <= 1e-13


@pytest.mark.parametrize("center", [(0.0, 0.0), (0.2, 0.0)])  # concentric; displaced
def test_probe_rows_skip_only_flushed_columns(monkeypatch, center):
    # a Ritz coordinate flushed to zero stays zero in every later block, and the
    # probe samples from the live columns are the samples from all of them
    sys_ = disk_system(16, sigma=2.0, center=center, radius=0.3)
    flushed, products = [], []
    real_flush, real_rows = parabolic._flush, parabolic._probe_rows

    def flush_spy(C):
        live = real_flush(C)
        flushed.append((C.copy(), live))
        return live

    def rows_spy(PZ, C):
        products.append((PZ, C))
        return real_rows(PZ, C)

    monkeypatch.setattr(parabolic, "_flush", flush_spy)
    monkeypatch.setattr(parabolic, "_probe_rows", rows_spy)
    evolve(sys_, eps=1e-8, probe=CircleSampler(sys_, 0.75))
    assert len(flushed) == len(products) > 1
    assert flushed[0][1].all()  # the start has every Ritz coordinate
    PZ = products[0][0]
    for (C, live), (_, prev), (PZ_live, C_live) in zip(flushed[1:], flushed, products[1:]):
        assert not (live & ~prev).any()  # no flushed column comes back
        assert not C[:, ~live].any()
        assert np.array_equal(C_live, C[:, live]) and np.array_equal(PZ_live, PZ[:, live])
        every = np.einsum("kr,sr->ks", C, PZ)
        skipped = np.einsum("kr,sr->ks", C_live, PZ_live)
        assert np.abs(skipped - every).max() <= 1e-13 * np.abs(every).max()
    assert not flushed[-1][1].all()  # the product had columns to skip


def test_step_factor_uses_fill_reducing_ordering(live_factors):
    sys_ = disk_system(32, sigma=2.0, center=(0.2, 0.0), radius=0.3)
    evolve(sys_, eps=0.99 * sys_.mass_norm(sys_.g_vertex[sys_.free]))
    A, lu = live_factors.built[0]
    assert A.shape == (len(sys_.free),) * 2
    default = live_factors.real(A)
    assert lu.L.nnz + lu.U.nnz <= 0.6 * (default.L.nnz + default.U.nnz)


def test_backward_euler_norm_decreases_every_step():
    run = evolve(disk_system(8), eps=1e-6)
    assert monotone_decay(run)
    assert np.all(np.diff(run.mass_norms) < 0.0)  # strict for this data


def test_decay_certificate_disk():
    sys_ = disk_system(16)
    lam = smallest_eigenvalue(sys_).value
    run = evolve(sys_, eps=1e-8)
    check = decay_certificate(run, lam)
    assert check.ok
    # the all-ones start makes the t = 0 ratio exactly one, and the bound
    # stays sharp there
    assert check.max_ratio == pytest.approx(1.0, abs=1e-12)
    # by mid-run the trajectory is pure lowest mode: the fitted log slope
    # recovers the rate (backward Euler bias is about lam * dt / 2 ~ 0.6%)
    assert 0.98 <= check.slope_ratio <= 1.02


def test_decay_slope_ratio_two_phase():
    sys_ = disk_system(16, sigma=2.0)
    lam = smallest_eigenvalue(sys_).value
    check = decay_certificate(evolve(sys_, eps=1e-8), lam)
    assert 0.98 <= check.slope_ratio <= 1.02


def test_decay_certificate_fails_with_inflated_rate():
    sys_ = disk_system(8)
    lam = smallest_eigenvalue(sys_).value
    run = evolve(sys_, eps=1e-6)
    assert not decay_certificate(run, 1.5 * lam).ok


def test_initial_norm_matches_source_interpolant():
    sys_ = disk_system(8)
    run = evolve(sys_, eps=1e-2)
    assert run.initial_norm == pytest.approx(sys_.mass_norm(sys_.g_vertex[sys_.free]))


def test_doubled_start_doubles_everything_exactly():
    # the run starts from the nodal source values, so a source scaled by a
    # power of two scales the start; the Lanczos basis is the same bit for
    # bit, and every output scales exactly
    for center in ((0.0, 0.0), (0.2, 0.0)):  # FFT cap solve; SuperLU
        _check_scaled_start(center)


def _check_scaled_start(center):
    sys_ = disk_system(8, sigma=2.0, center=center, radius=0.3)
    probe = CircleSampler(sys_, 0.75)
    a = evolve(sys_, eps=1e-5, probe=probe)
    for k in (1, 40, -40):
        scaled = assemble_system(sys_.mesh, [1.0, 2.0], 2.0**k)
        b = evolve(scaled, eps=2.0**k * 1e-5, probe=CircleSampler(scaled, 0.75))
        for name in ("steps", "krylov_dim", "krylov_estimate", "lam_min"):
            assert getattr(b, name) == getattr(a, name), name
        assert np.array_equal(b.times, a.times)
        assert np.array_equal(b.v_field, 2.0**k * a.v_field), k
        assert np.array_equal(b.u_final, 2.0**k * a.u_final), k
        assert np.array_equal(b.mass_norms, 2.0**k * a.mass_norms), k
        # the probe means scale too; a deviation is relative to its mean only
        # where the mean clears MEAN_GUARD, so the deviations are not compared
        assert np.array_equal(b.probes[:, ::2], 2.0**k * a.probes[:, ::2]), k


def test_time_integral_approximates_elliptic_solution():
    sys_ = disk_system(16, sigma=2.0)
    run = evolve(sys_, eps=1e-8)
    u = solve_elliptic(sys_).u
    assert v_error_vs_elliptic(sys_, run, u) < 5e-3


def semi_discrete_integral(sys_):
    # the exact limit of the time integral: K V = M u0 on the free block
    Kff, Mff = free_blocks(sys_)
    return spla.splu(Kff.tocsc()).solve(Mff @ sys_.g_vertex[sys_.free])


def test_backward_euler_integral_is_first_order(monkeypatch):
    sys_ = disk_system(12)
    v_star = semi_discrete_integral(sys_)
    free = sys_.free
    coarse = evolve(sys_, eps=1e-9)
    # the same schedule at half the step sizes
    monkeypatch.setattr(parabolic, "DT0", 2.5e-4)
    monkeypatch.setattr(parabolic, "WARMUP_STEPS", 40)
    monkeypatch.setattr(parabolic, "DT_MAX", 1e-3)
    fine = evolve(sys_, eps=1e-9)
    e_coarse = sys_.mass_norm(coarse.v_field[free] - v_star)
    e_fine = sys_.mass_norm(fine.v_field[free] - v_star)
    assert 1.6 < e_coarse / e_fine < 2.4


def test_time_integral_inherits_boundary_flux():
    sys_ = disk_system(16, sigma=2.0)
    run = evolve(sys_, eps=1e-8)
    flux = recover_boundary_flux(sys_, run.v_field)
    assert abs(flux.total / flux.weights.sum() - (-0.5)) < 0.01


def test_max_steps_guard(monkeypatch):
    monkeypatch.setattr(parabolic, "MAX_STEPS", 5)
    with pytest.raises(RuntimeError):
        evolve(disk_system(8), eps=1e-12)


def test_a_longer_run_adds_within_tail_bound():
    sys_ = disk_system(16)
    lam = smallest_eigenvalue(sys_).value
    first = evolve(sys_, eps=1e-5)
    ext = evolve(sys_, eps=1e-8)
    assert ext.steps > first.steps
    assert np.array_equal(ext.times[: len(first.times)], first.times)
    assert monotone_decay(ext)
    # the extra contribution to the time integral obeys the certified tail
    # bound from the truncation point (up to the backward-Euler quadrature
    # factor 1 + lam * dt / 2)
    free = sys_.free
    diff = ext.v_field[free] - first.v_field[free]
    gap = sys_.mass_norm(diff)
    budget = tail_bound(first.mass_norms[-1], lam, 0.0) * (1.0 + lam * 2e-3 / 2.0)
    assert gap <= budget
    assert gap > 0.25 * budget  # the bound is meaningful, not vacuous


@pytest.mark.parametrize("center", [(0.0, 0.0), (0.2, 0.0)])  # angular Fourier; SuperLU
def test_a_longer_run_repeats_the_shorter_run_bitwise(center):
    # the schedule is fixed, so a run to a smaller eps takes the shorter run's steps first
    sys_ = disk_system(8, sigma=2.0, center=center, radius=0.3)
    probe = CircleSampler(sys_, 0.75)
    short = evolve(sys_, eps=1e-4, probe=probe)
    long = evolve(sys_, eps=1e-6, probe=probe)
    assert long.step_solver == ("angular Fourier" if center == (0.0, 0.0) else "SuperLU")
    assert short.steps < long.steps
    # the short run ends inside a block of probe rows that the long run completes
    assert len(short.times) % parabolic.PROBE_BLOCK
    assert long.probes.shape == (len(long.times), 4)
    for name in ("times", "mass_norms", "probes"):
        assert np.array_equal(getattr(long, name)[: len(short.times)], getattr(short, name)), name
    if center != (0.0, 0.0):
        assert long.probe_dev_max[1] > 0.0  # the displaced core shows on the probe


def test_resume_preserves_probe_history():
    # a heat flow carried on to a smaller eps is a fresh run: its first probe
    # rows are the shorter run's history
    sys_ = disk_system(8)
    first = evolve(sys_, eps=1e-4, probe=CircleSampler(sys_, 0.75))
    ext = evolve(sys_, eps=1e-6, probe=CircleSampler(sys_, 0.75))
    old = len(first.times)
    assert ext.probes.shape == (len(ext.times), 4)
    assert np.array_equal(ext.probes[:old, 0], first.probes[:, 0])
    assert np.array_equal(ext.probes[:old, 3], first.probes[:, 3])


def test_resume_on_an_invariant_layout_matches_an_uninterrupted_run():
    # backward Euler stepped by the exact FFT-in-angle solve of every step
    # size, carried on from a stopped run along the schedule, reaches the run
    # to the smaller eps within round-off; the heat flow, whose longer run
    # repeats its shorter run bit for bit, lies within round-off of both
    sys_ = disk_system(8, sigma=2.0)
    free = sys_.free
    fft = lambda dt: parabolic._factor(sys_, dt)
    full = factor_every_size(sys_, eps=1e-6, factor=fft)
    first = factor_every_size(sys_, eps=1e-4, factor=fft)
    resumed = factor_every_size(sys_, eps=1e-6, factor=fft, start=first)
    assert first.steps < resumed.steps == full.steps
    assert np.array_equal(resumed.times, full.times)
    assert rel(resumed.u, full.u) <= 1e-13
    assert rel(resumed.V, full.V) <= 1e-14
    np.testing.assert_allclose(resumed.mass_norms, full.mass_norms, rtol=1e-13, atol=0.0)
    run = evolve(sys_, eps=1e-6)
    assert run.step_solver == "angular Fourier"
    assert run.steps == full.steps and np.array_equal(run.times, full.times)
    assert rel(run.u_final[free], full.u) <= 1e-11
    assert rel(run.v_field[free], full.V) <= 1e-12
    np.testing.assert_allclose(run.mass_norms, full.mass_norms, rtol=1e-11, atol=0.0)


def test_a_run_without_a_probe_records_no_probe_columns():
    run = evolve(disk_system(8), eps=1e-4)
    assert run.probes.shape == (len(run.times), 0)
    assert run.probe_dev_max == (0.0, 0.0)


def test_probe_traces_stay_radial_on_radial_data():
    sys_ = disk_system(12, sigma=2.0)
    run = evolve(sys_, eps=1e-6, probe=CircleSampler(sys_, 0.75))
    assert run.probe_dev_max[0] < 1e-10
    assert run.probe_dev_max[1] < 1e-9
    # means decay with the state
    assert run.probes[0, 0] > run.probes[-1, 0] >= 0.0


def test_tail_bound_formula():
    assert tail_bound(2.0, 4.0, 0.0) == 0.5
    assert tail_bound(1.0, 2.0, 3.0) == pytest.approx(math.exp(-6.0) / 2.0)
