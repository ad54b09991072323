"""Session-cached scenario runs shared by the acceptance suite, and a spectrum of analytic fields.

The acceptance checks all consume a handful of canonical runs; caching them
at session scope keeps the suite to one solve per (scenario, resolution)
pair.  Nothing here is random, so the cache cannot hide flakiness.
"""

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
