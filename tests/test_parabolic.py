"""Heat flow: eigenvalue certificates, step schedule, decay, time integrals."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from phaselab.fem2d import (
    CircleSampler,
    assemble_system,
    generate_mesh,
    recover_boundary_flux,
    solve_elliptic,
)
from phaselab.geometry import DomainSpec, PhaseConfig, PhaseRegion
from phaselab.parabolic import (
    decay_certificate,
    evolve,
    monotone_decay,
    smallest_eigenvalue,
    tail_bound,
    v_error_vs_elliptic,
)

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
    # one factorization per distinct step size
    assert run.factorizations == len({round(float(d), 15) for d in dts})
    assert run.mass_norms[-1] <= 1e-6 < run.mass_norms[-2]


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


def distinct_steps(times):
    return len({round(float(d), 15) for d in np.diff(times)})


def test_evolve_keeps_one_step_factor_alive(live_factors):
    sys_ = disk_system(8)
    full = evolve(sys_, eps=1e-6)
    assert live_factors.peak == 1
    assert full.factorizations == len(live_factors.built) == distinct_steps(full.times)
    assert full.factorizations > 2  # warm-up, growth and cap all took part

    # stop inside the geometric growth, then resume through it to the cap
    first = evolve(sys_, eps=full.mass_norms[30])
    assert 20 < first.steps < 40
    built = len(live_factors.built)
    ext = evolve(sys_, eps=1e-6, resume=first)
    assert live_factors.peak == 1
    new = ext.factorizations - first.factorizations
    assert new == len(live_factors.built) - built
    assert new == distinct_steps(ext.times[first.steps :])
    assert ext.steps == full.steps
    assert np.array_equal(ext.times, full.times)


def test_step_factor_uses_fill_reducing_ordering(live_factors):
    sys_ = disk_system(32)
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
    sys_ = disk_system(8)
    a = evolve(sys_, eps=1e-5)
    b = evolve(sys_, 2.0 * sys_.g_vertex, eps=2e-5)
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


def test_trapezoid_is_exact_for_crank_nicolson():
    # per mode, Crank-Nicolson + trapezoid telescopes to x0/lambda exactly,
    # so V matches the algebraic limit up to the stopped tail (eps / lambda)
    sys_ = disk_system(16)
    v_star = semi_discrete_integral(sys_)
    run = evolve(sys_, theta=0.5, eps=1e-8)
    gap = sys_.mass_norm(run.v_field[sys_.free] - v_star)
    assert gap < 2e-9


def test_backward_euler_integral_is_first_order():
    sys_ = disk_system(12)
    v_star = semi_discrete_integral(sys_)
    free = sys_.free
    coarse = evolve(sys_, eps=1e-9)
    fine = evolve(sys_, eps=1e-9, dt0=2.5e-4, uniform_steps=40, dt_max=1e-3)
    e_coarse = sys_.mass_norm(coarse.v_field[free] - v_star)
    e_fine = sys_.mass_norm(fine.v_field[free] - v_star)
    assert 1.6 < e_coarse / e_fine < 2.4


def test_time_integral_inherits_boundary_flux():
    sys_ = disk_system(16, sigma=2.0)
    run = evolve(sys_, eps=1e-8)
    flux = recover_boundary_flux(sys_, run.v_field)
    assert abs(flux.weighted_mean - (-0.5)) < 0.01


def test_crank_nicolson_also_decays_and_integrates():
    sys_ = disk_system(16)
    run = evolve(sys_, theta=0.5, eps=1e-8)
    assert monotone_decay(run)
    err = v_error_vs_elliptic(sys_, run, solve_elliptic(sys_).u)
    assert err < 1e-2


def test_theta_validation():
    with pytest.raises(ValueError):
        evolve(disk_system(8), theta=0.0)
    with pytest.raises(ValueError):
        evolve(disk_system(8), theta=1.2)


def test_max_steps_guard():
    with pytest.raises(RuntimeError):
        evolve(disk_system(8), eps=1e-12, max_steps=5)


def test_resume_extends_within_tail_bound():
    sys_ = disk_system(16)
    lam = smallest_eigenvalue(sys_).value
    first = evolve(sys_, eps=1e-5)
    ext = evolve(sys_, eps=1e-8, resume=first)
    assert ext.steps > first.steps
    assert np.array_equal(ext.times[: len(first.times)], first.times)
    assert monotone_decay(ext)
    # the extra contribution to the time integral obeys the certified tail
    # bound from the truncation point (up to the theta-scheme quadrature
    # factor 1 + lam * dt / 2)
    free = sys_.free
    diff = ext.v_field[free] - first.v_field[free]
    gap = sys_.mass_norm(diff)
    budget = tail_bound(first.mass_norms[-1], lam, 0.0) * (1.0 + lam * 2e-3 / 2.0)
    assert gap <= budget
    assert gap > 0.25 * budget  # the bound is meaningful, not vacuous


def test_resume_preserves_probe_history():
    sys_ = disk_system(8)
    first = evolve(sys_, eps=1e-4, probe=CircleSampler(sys_.mesh, 0.75))
    ext = evolve(sys_, eps=1e-6, resume=first)
    old = len(first.times)
    assert ext.probes.shape == (len(ext.times), 4)
    assert np.array_equal(ext.probes[:old, 0], first.probes[:, 0])
    assert np.array_equal(ext.probes[:old, 3], first.probes[:, 3])


def test_resume_matches_an_uninterrupted_run_bitwise():
    sys_ = disk_system(8, sigma=2.0, center=(0.2, 0.0), radius=0.3)
    probe = CircleSampler(sys_.mesh, 0.75)
    full = evolve(sys_, eps=1e-6, probe=probe)
    first = evolve(sys_, eps=1e-4, probe=probe)
    ext = evolve(sys_, eps=1e-6, resume=first)
    assert ext.probe is probe
    assert first.steps < ext.steps == full.steps
    for name in ("times", "mass_norms", "probes", "v_field", "u_final"):
        assert np.array_equal(getattr(ext, name), getattr(full, name)), name
    assert full.probe_dev_max[1] > 0.0  # the displaced core shows on the probe
    # a resume builds its current step factor again
    assert ext.factorizations == full.factorizations + 1


def test_probe_with_resume_is_rejected_and_no_probe_records_nothing():
    sys_ = disk_system(8)
    run = evolve(sys_, eps=1e-4)
    assert run.probe is None
    assert run.probes.shape == (len(run.times), 0)
    assert run.probe_dev_max == (0.0, 0.0)
    ext = evolve(sys_, eps=1e-5, resume=run)
    assert ext.probes.shape == (len(ext.times), 0)
    with pytest.raises(ValueError, match="resumed run keeps its own probe"):
        evolve(sys_, eps=1e-5, probe=CircleSampler(sys_.mesh, 0.75), resume=run)


def test_probe_traces_stay_radial_on_radial_data():
    sys_ = disk_system(12, sigma=2.0)
    run = evolve(sys_, eps=1e-6, probe=CircleSampler(sys_.mesh, 0.75))
    assert run.probe_dev_max[0] < 1e-10
    assert run.probe_dev_max[1] < 1e-9
    # means decay with the state
    assert run.probes[0, 0] > run.probes[-1, 0] >= 0.0


def test_tail_bound_formula():
    assert tail_bound(2.0, 4.0, 0.0) == 0.5
    assert tail_bound(1.0, 2.0, 3.0) == pytest.approx(math.exp(-6.0) / 2.0)
