"""Session-cached scenario runs shared by the acceptance suite, a spectrum of analytic fields,
and a count of the SuperLU factors a test makes.

The acceptance checks all consume a handful of canonical runs; caching them
at session scope keeps the suite to one solve per (scenario, resolution)
pair.  Nothing here is random, so the cache cannot hide flakiness.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from phaselab.cli_reporting import build_preset, preset_names, run_scenario
from phaselab.symmetry_checks import spectrum_from_samples


def angular_spectrum_of(fn, radii, m=256):
    """Spectrum of a callable on (n, 2) coordinates at the angles 2 pi j / m; for analytic checks."""
    theta = 2 * np.pi * np.arange(m) / m
    circle = np.column_stack([np.cos(theta), np.sin(theta)])
    rows = [np.asarray(fn(r * circle), float) for r in np.atleast_1d(radii)]
    return spectrum_from_samples(radii, np.vstack(rows))


@pytest.fixture(scope="session")
def elliptic64():
    """Every preset at the reference resolution, elliptic pipeline only."""
    return {name: run_scenario(build_preset(name)) for name in preset_names()}


@pytest.fixture(scope="session")
def concentric32():
    """Coarser concentric run used for the convergence-order estimate."""
    return run_scenario(build_preset("two_phase_concentric", n=32))


@pytest.fixture(scope="session")
def asymmetric96():
    """Finer runs of the off-centre layouts, for resolution-stability checks."""
    names = ("two_phase_displaced", "multiphase_discrete")
    return {name: run_scenario(build_preset(name, n=96)) for name in names}


@pytest.fixture(scope="session")
def parabolic64():
    """Heat-flow runs (full pipeline) on the three canonical layouts."""
    names = ("one_phase_disk", "two_phase_concentric", "two_phase_displaced")
    return {name: run_scenario(build_preset(name, pipeline="both")) for name in names}


@pytest.fixture
def live_factors(monkeypatch):
    """Route ``splu`` through a proxy that counts the factors still referenced.

    ``peak`` is the most factors alive at once; ``built`` lists each factored
    matrix with the factor that was made from it.
    """
    import scipy.sparse.linalg as spla

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
