"""Heat flow: eigenvalue certificates, step schedule, decay, time integrals."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import spsolve

from phaselab import parabolic
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
    decay_certificate,
    evolve,
    monotone_decay,
    smallest_eigenvalue,
    tail_bound,
    v_error_vs_elliptic,
)
from phaselab.symmetry_checks import _probe_stats, probe_deviation

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


def test_step_schedule_uniform_then_geometric_then_capped():
    sys_ = disk_system(8)
    run = evolve(sys_, eps=1e-6)
    dts = np.diff(run.times)
    assert len(dts) == run.steps
    assert np.allclose(dts[:20], 5e-4, rtol=0, atol=1e-15)
    for k in range(20, min(60, len(dts))):
        expect = min(5e-4 * 1.05 ** (k - 19), 2e-3)
        assert abs(dts[k] - expect) < 1e-15
    assert abs(dts[-1] - 2e-3) < 1e-15
    # this rotation-invariant layout factors each distinct step size once:
    # the warm-up, the 28 growth sizes and the cap, with no CG
    assert run.step_solver == "angular Fourier"
    assert (run.factorizations, run.cg_iterations) == (30, 0)
    assert run.mass_norms[-1] <= 1e-6 < run.mass_norms[-2]


def test_step_size_caps_its_exponent_and_keeps_every_earlier_bit():
    # the uncapped power 1.05 ** (k - 19) overflows once k passes about 14,550
    assert _step_size(10**6) == 2e-3
    for k in range(20, 14_000, 7):
        assert _step_size(k) == min(5e-4 * 1.05 ** (k - 19), 2e-3), k


@pytest.fixture
def live_factors(monkeypatch):
    """Route ``splu`` through a proxy that counts the factors still referenced.

    ``peak`` is the most factors alive at once; ``built`` lists each factored
    matrix with the factor that was made from it.
    """
    real = spla.splu
    tally = SimpleNamespace(live=0, peak=0, built=[], real=real)

    class Factor:
        def __init__(self, lu):
            self.lu = lu
            tally.live += 1
            tally.peak = max(tally.peak, tally.live)

        def solve(self, rhs):
            return self.lu.solve(rhs)

        def __del__(self):
            tally.live -= 1

    def counting_splu(A, **kwargs):
        lu = real(A, **kwargs)
        tally.built.append((A, lu))
        return Factor(lu)

    monkeypatch.setattr(spla, "splu", counting_splu)
    return tally


def same_matrix(A, B):
    return A.shape == B.shape and abs(A - B).max() == 0.0


def test_evolve_keeps_one_step_factor_alive(live_factors):
    sys_ = disk_system(8, sigma=2.0, center=(0.2, 0.0), radius=0.3)
    Kff, Mff = sys_.Kff, sys_.Mff
    full = evolve(sys_, eps=1e-6)
    assert full.step_solver == "SuperLU"
    assert live_factors.peak == 1
    # exactly two factors: the warm-up size, then the cap that also
    # preconditions the growth steps
    assert full.factorizations == len(live_factors.built) == 2
    (warm, _), (cap, _) = live_factors.built
    assert same_matrix(warm, Mff + parabolic.DT0 * Kff)
    assert same_matrix(cap, Mff + parabolic.DT_MAX * Kff)

    # a rotation-invariant layout steps in angular-Fourier coefficients and
    # solves the eigen-solver's Kff by FFT in angle: SuperLU never runs, no
    # step takes CG, and each distinct step size is factored once
    built = len(live_factors.built)
    concentric = disk_system(8, sigma=2.0)
    run = evolve(concentric, eps=1e-6)
    smallest_eigenvalue(concentric)
    assert run.step_solver == "angular Fourier"
    assert len(live_factors.built) == built
    assert run.cg_iterations == 0
    assert run.factorizations == len({_step_size(k) for k in range(run.steps)}) == 30


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
    if dt is None:  # the eigen-solver's solve by Kff
        ref = spsolve(sys_.Kff, u)
        z = parabolic._factor(sys_)(u)
    else:  # one heat-flow step, taken in angular-Fourier coefficients
        ref = spsolve(sys_.Mff + dt * sys_.Kff, sys_.Mff @ u)
        basis = parabolic._FourierSteps(sys_, None)
        X = basis.state(u)
        MX = basis.mass(X)
        z = basis.nodal(basis.factor(dt)(MX))
        assert rel(basis.nodal(MX), sys_.Mff @ u) <= 1e-13
        assert basis.norm(X, MX) == pytest.approx(sys_.mass_norm(u), rel=1e-14)
    assert rel(z, ref) <= 1e-12
    assert live_factors.built == []


def factor_every_size(sys_, eps):
    """Backward Euler on the same schedule, every step size factored and solved directly."""
    free = sys_.free
    Kff, Mff = sys_.Kff, sys_.Mff
    u = sys_.g_vertex[free]
    V = np.zeros(len(free))
    times, norms = [0.0], [sys_.mass_norm(u)]
    factors = {}
    k = 0
    while norms[-1] > eps:
        dt = _step_size(k)
        if dt not in factors:
            factors[dt] = spla.splu(Mff + dt * Kff)
        u_new = factors[dt].solve(Mff @ u)
        V += dt * (u + u_new) / 2.0
        u = u_new
        k += 1
        times.append(times[-1] + dt)
        norms.append(sys_.mass_norm(u))
    assert len(factors) == 30
    return SimpleNamespace(steps=k, times=np.array(times), mass_norms=np.array(norms), u=u, V=V)


def rel(x, y):
    return np.abs(x - y).max() / np.abs(y).max()


def test_growth_steps_by_cg_match_a_factor_for_every_size():
    sys_ = disk_system(16, sigma=2.0, center=(0.2, 0.0), radius=0.3)
    free = sys_.free
    run = evolve(sys_, eps=1e-8)
    ref = factor_every_size(sys_, eps=1e-8)
    assert run.steps == ref.steps
    assert np.array_equal(run.times, ref.times)
    assert rel(run.u_final[free], ref.u) <= 1e-12
    assert rel(run.v_field[free], ref.V) <= 1e-12
    np.testing.assert_allclose(run.mass_norms, ref.mass_norms, rtol=1e-12, atol=0.0)
    # the cap factor keeps CG short: a handful of iterations per growth step
    assert 28 <= run.cg_iterations <= 28 * 20


def test_fft_steps_match_a_factor_for_every_size(live_factors):
    for kind in ("ball", "annulus"):
        sys_ = ring_system(kind)
        free = sys_.free
        run = evolve(sys_, eps=1e-8)
        assert live_factors.built == []  # no SuperLU factor
        assert run.step_solver == "angular Fourier"
        assert (run.factorizations, run.cg_iterations) == (30, 0)
        ref = factor_every_size(sys_, eps=1e-8)
        assert run.steps == ref.steps
        assert np.array_equal(run.times, ref.times)
        # u_final has decayed to 1e-8 of the start, so its round-off is relatively
        # larger: about 1e-12 on the ball and 4e-14 on the annulus
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
        ps = probe_deviation(probe, scale * u)
        assert (ps.u_absolute, ps.flux_absolute) == (scale < 1.0, scale < 1.0)
        row = parabolic._probe_rows(probe.matrix, scale * u[sys_.free][None])[0]
        assert tuple(row) == (ps.mean_u, ps.dev_u, ps.mean_flux, ps.dev_flux)
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
    # the Fourier basis samples only the rings the probe touches, and a ball's centre
    sys_ = disk_system(16, sigma=2.0)
    probe = CircleSampler(sys_, radius)
    basis = parabolic._FourierSteps(sys_, probe)
    u = 1.0 + np.random.default_rng(7).standard_normal(len(sys_.free))
    got = basis.probe_rows(basis.state(u)[basis.support][None])[0]
    want = parabolic._probe_rows(probe.matrix, u[None])[0]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    rings = (len(basis.support) - 1) // (sys_.mesh.sectors // 2 + 1)
    assert basis.P.shape[1] == 1 + rings * sys_.mesh.sectors < len(sys_.free) // 4


@pytest.mark.parametrize("center", [(0.0, 0.0), (0.2, 0.0)])  # Fourier basis; nodal basis
def test_probe_rows_of_a_block_match_each_step_bitwise(monkeypatch, center):
    sys_ = disk_system(8, sigma=2.0, center=center, radius=0.3)
    probe = CircleSampler(sys_, 0.75)
    blocks = []
    for cls in (parabolic._NodalSteps, parabolic._FourierSteps):

        def spy(self, reads, real=cls.probe_rows):
            rows = real(self, reads)
            blocks.append((self, reads, rows))
            return rows

        monkeypatch.setattr(cls, "probe_rows", spy)
    run = evolve(sys_, eps=1e-6, probe=probe)
    # the run does not end on a whole block
    block = parabolic.PROBE_BLOCK
    assert len(run.times) % block
    assert [len(reads) for _, reads, _ in blocks].count(block) == len(blocks) - 1 > 1
    assert np.array_equal(run.probes, np.concatenate([rows for *_, rows in blocks]))
    for basis, reads, rows in blocks:
        for read, row in zip(reads, rows):
            samples = basis.P @ (basis.modes.inverse(read) if center == (0.0, 0.0) else read)
            ps = _probe_stats(samples[: probe.count], samples[probe.count :])
            assert tuple(row) == (ps.mean_u, ps.dev_u, ps.mean_flux, ps.dev_flux)
    # the last read is the final state
    basis, reads, _ = blocks[-1]
    want = basis.state(run.u_final[sys_.free])[basis.support]
    np.testing.assert_allclose(reads[-1], want, rtol=0.0, atol=1e-12 * np.abs(want).max())


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
    # the run starts from the nodal source values, so a doubled source
    # doubles the start
    mesh = generate_mesh(PhaseConfig(domain=DomainSpec("ball")), 8)
    a = evolve(assemble_system(mesh, [1.0], 1.0), eps=1e-5)
    b = evolve(assemble_system(mesh, [1.0], 2.0), eps=2e-5)
    assert b.steps == a.steps
    assert np.array_equal(b.v_field, 2.0 * a.v_field)
    assert np.array_equal(b.u_final, 2.0 * a.u_final)
    assert np.array_equal(b.mass_norms, 2.0 * a.mass_norms)


def test_time_integral_approximates_elliptic_solution():
    sys_ = disk_system(16, sigma=2.0)
    run = evolve(sys_, eps=1e-8)
    u = solve_elliptic(sys_).u
    assert v_error_vs_elliptic(sys_, run, u) < 5e-3


def semi_discrete_integral(sys_):
    # the exact limit of the time integral: K V = M u0 on the free block
    free = sys_.free
    Kff = sys_.stiffness[free][:, free].tocsc()
    Mff = sys_.mass[free][:, free]
    return spla.splu(Kff).solve(Mff @ sys_.g_vertex[free])


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
    # carrying a stopped run's nodal u and V back into angular-Fourier
    # coefficients and stepping on along the schedule reaches the run to the
    # smaller eps within round-off
    sys_ = disk_system(8, sigma=2.0)
    free = sys_.free
    full = evolve(sys_, eps=1e-6)
    first = evolve(sys_, eps=1e-4)
    assert full.step_solver == first.step_solver == "angular Fourier"
    basis = parabolic._FourierSteps(sys_, None)
    u = basis.state(first.u_final[free])
    V = basis.state(first.v_field[free])
    Mu = basis.mass(u)
    times, norms = list(first.times), list(first.mass_norms)
    k = first.steps
    while norms[-1] > 1e-6:
        dt = _step_size(k)
        u_new = basis.factor(dt)(Mu)
        V += dt * (u + u_new) / 2.0
        u = u_new
        k += 1
        times.append(times[-1] + dt)
        Mu = basis.mass(u)
        norms.append(basis.norm(u, Mu))
    assert first.steps < k == full.steps
    assert np.array_equal(np.array(times), full.times)
    assert rel(basis.nodal(u), full.u_final[free]) <= 1e-13
    assert rel(basis.nodal(V), full.v_field[free]) <= 1e-14
    np.testing.assert_allclose(norms, full.mass_norms, rtol=1e-13, atol=0.0)


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
