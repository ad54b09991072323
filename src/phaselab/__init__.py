"""Symmetry diagnostics for planar composite conductors.

Layered (concentric) layouts admit exact radial equilibria; off-centre
inclusions do not, and the difference is detectable from the boundary flux,
angular spectra, inclusion-interior flux mismatch, and probe circles of the
associated heat flow.  The subpackages split along those lines:

- :mod:`phaselab.geometry` -- layouts and structural hypothesis flags
- :mod:`phaselab.radial_core` -- closed-form layered radial solutions
- :mod:`phaselab.fem2d` -- conforming polar meshes and P1 finite elements
- :mod:`phaselab.symmetry_checks` -- the symmetry residuals and verdicts
- :mod:`phaselab.parabolic` -- heat flow, eigenvalue and decay certificates
- :mod:`phaselab.cli_reporting` -- presets, artifacts, and the CLI
"""

from .geometry import (
    DomainSpec,
    HypothesisFlags,
    PhaseConfig,
    PhaseRegion,
    surface_separation_ok,
    validate_configuration,
)
from .radial_core import (
    RadialProfile,
    build_auxiliary_profile,
    mean_flux_identity,
    radial_layers,
    solve_radial,
)
from .fem2d import (
    BoundaryFlux,
    CircleSampler,
    FemSystem,
    Mesh,
    assemble_system,
    generate_mesh,
    l2_error_to_radial,
    locate_points,
    recover_boundary_flux,
    solve_elliptic,
    write_mesh,
)
from .symmetry_checks import (
    FluxStats,
    ModeSpectrum,
    TransmissionStats,
    angular_spectrum,
    flux_residual,
    probe_deviation,
    spectrum_from_samples,
    transmission_residual,
)
from .parabolic import (
    DecayCheck,
    EigenResult,
    Evolution,
    decay_certificate,
    evolve,
    monotone_decay,
    smallest_eigenvalue,
    tail_bound,
    v_error_vs_elliptic,
)
from .cli_reporting import (
    Scenario,
    ScenarioResult,
    Tolerances,
    build_preset,
    load_config_file,
    main,
    merge_reports,
    preset_names,
    run_scenario,
    write_artifacts,
)

__version__ = "0.1.0"
