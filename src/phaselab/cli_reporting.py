"""Scenario presets, report generation, and the command-line interface.

A scenario bundles a layout with a resolution, a pipeline selection, probe
settings, tolerances, and the *expected* outcome (symmetric or not, and
whether the structural hypotheses should hold).  Running it produces a set
of plain-text artifacts -- mesh, nodal field, angular spectra, radial
reference profiles, time series, a one-row diagnostics CSV and a human
summary -- plus a verdict: the process exits 0 exactly when every selected
diagnostic agrees with the declared expectation.

All artifact files are deterministic: floats are written with ``repr`` (the
shortest round-trip form), nothing is timestamped, and no randomness exists
anywhere in the pipeline, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as npoly

from .fem2d import (
    CircleSampler,
    FemSystem,
    _write_table,
    assemble_system,
    generate_mesh,
    l2_error_to_radial,
    recover_boundary_flux,
    solve_elliptic,
    write_mesh,
)
from .geometry import (
    DomainSpec,
    HypothesisFlags,
    PhaseConfig,
    PhaseRegion,
    surface_separation_ok,
    validate_configuration,
)
from .parabolic import (
    KRYLOV_MAX,
    decay_certificate,
    evolve,
    monotone_decay,
    tail_bound,
    v_error_vs_elliptic,
)
from .radial_core import (
    build_auxiliary_profile,
    mean_flux_identity,
    radial_layers,
    solve_radial,
)
from .symmetry_checks import (
    angular_spectrum,
    flux_residual,
    transmission_residual,
)

__all__ = [
    "Tolerances",
    "Scenario",
    "ScenarioResult",
    "preset_names",
    "build_preset",
    "load_config_file",
    "run_scenario",
    "write_artifacts",
    "merge_reports",
    "main",
]

OUT_ENV_VAR = "PHASELAB_OUT"


@dataclass(frozen=True)
class Tolerances:
    flux_symmetry: float = 1e-2  # relative boundary-flux deviation
    spectrum: float = 1e-3  # non-radial amplitude fraction
    transmission: float = 5e-3  # inclusion-interior mismatch
    probe: float = 2e-2  # probe-circle sup deviation
    decay_slack: float = 0.02  # allowed excess over the spectral decay bound

    def __post_init__(self) -> None:
        for _, _, name, _ in _DETECTORS:
            if not getattr(self, name) > 0.0:
                raise ValueError(f"tolerance {name!r} must be positive")
        if not self.decay_slack >= 0.0:
            raise ValueError("tolerance 'decay_slack' must be non-negative")


# the detector stages of each pipeline; every pipeline solves the elliptic problem
_PIPELINES = {
    "elliptic": ("elliptic",),
    "parabolic": ("parabolic",),
    "both": ("elliptic", "parabolic"),
}

# the symmetry detectors: verdict name, the stage that runs it, its Tolerances field and the
# values it tests.  A detector is quiet when every value is below its threshold, so NaN fires it.
_DETECTORS = (
    ("flux_symmetric", "elliptic", "flux_symmetry", lambda r: (r.flux_stats.rel_deviation,)),
    ("radial", "elliptic", "spectrum", lambda r: (r.spectrum.nonradial_fraction,)),
    # the residual reads 0.0 where it is undefined: no inclusion element, nothing to compare
    ("transmission_symmetric", "elliptic", "transmission", lambda r: (r.transmission.residual,)),
    ("probes_symmetric", "parabolic", "probe", lambda r: r.run.probe_dev_max),
)


@dataclass(frozen=True)
class Scenario:
    name: str
    config: PhaseConfig
    n: int = 64
    pipeline: str = "elliptic"  # a key of _PIPELINES
    probe_radius: float | None = None
    source: tuple[float, ...] = (1.0,)  # radial polynomial g(|x|), ascending
    expect_symmetric: bool = True
    expect_hypotheses_ok: bool = True
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self) -> None:
        # the name is a directory under the output root and a diagnostics.csv cell
        if self.name in ("", ".", "..") or any(c in ",/\\" or c < " " for c in self.name):
            raise ValueError(
                "'name' must be a non-empty directory name other than '.' and '..', "
                f"without ',', '/', '\\' or control characters; got {self.name!r}"
            )
        if self.pipeline not in _PIPELINES:
            raise ValueError(f"unknown pipeline {self.pipeline!r}")
        if self.probe_radius is not None and not self.probe_radius > 0.0:
            raise ValueError(f"'probe_radius' must be positive, got {self.probe_radius!r}")
        if not self.source:
            raise ValueError("'source' must hold at least one coefficient")

    def resolved_probe_radius(self) -> float:
        if self.probe_radius is not None:
            return self.probe_radius
        dom = self.config.domain
        return dom.inner_radius + 0.75 * (dom.outer_radius - dom.inner_radius)


# -- presets -----------------------------------------------------------------


def _multiphase_config(phase_count: int) -> PhaseConfig:
    """Several small, well-separated disks clustered on one side of a ring.

    The cluster is deliberately lopsided (a fan of 35-degree steps around
    angle zero) and the conductivities deliberately far from one, so every
    asymmetry diagnostic fires with a wide margin at moderate resolution.
    """
    if phase_count < 1:
        raise ValueError("need at least one phase")
    ring, radius = 0.70, 0.14
    step = math.radians(35.0)
    phases = []
    for j in range(phase_count):
        ang = (j - (phase_count - 1) / 2.0) * step
        phases.append(
            PhaseRegion(
                shape="disk",
                sigma=0.10 + 0.02 * j,
                center=(ring * math.cos(ang), ring * math.sin(ang)),
                radius=radius,
                label=f"inclusion_{j}",
            )
        )
    return PhaseConfig(domain=DomainSpec(kind="ball"), phases=tuple(phases))


def _preset_table() -> dict[str, Scenario]:
    ball = DomainSpec(kind="ball")
    return {
        "one_phase_disk": Scenario(
            name="one_phase_disk",
            config=PhaseConfig(domain=ball),
        ),
        "one_phase_annulus": Scenario(
            name="one_phase_annulus",
            config=PhaseConfig(domain=DomainSpec(kind="annulus", inner_radius=0.5)),
        ),
        "two_phase_concentric": Scenario(
            name="two_phase_concentric",
            config=PhaseConfig(
                domain=ball,
                phases=(PhaseRegion(shape="disk", sigma=2.0, radius=0.5, label="core"),),
            ),
        ),
        "two_phase_displaced": Scenario(
            name="two_phase_displaced",
            config=PhaseConfig(
                domain=ball,
                phases=(
                    PhaseRegion(
                        shape="disk", sigma=2.0, center=(0.2, 0.0), radius=0.3, label="core"
                    ),
                ),
            ),
            expect_symmetric=False,
        ),
        "multiphase_discrete": Scenario(
            name="multiphase_discrete",
            config=_multiphase_config(3),
            probe_radius=0.92,
            expect_symmetric=False,
        ),
        "nested_rings_hypothesis_violation": Scenario(
            name="nested_rings_hypothesis_violation",
            config=PhaseConfig(
                domain=ball,
                phases=(
                    PhaseRegion(shape="disk", sigma=2.0, radius=0.3, label="inner_core"),
                    PhaseRegion(shape="ring", sigma=3.0, r_inner=0.5, r_outer=0.7, label="band"),
                ),
            ),
            probe_radius=0.85,
            expect_hypotheses_ok=False,
        ),
    }


def preset_names() -> tuple[str, ...]:
    return tuple(_preset_table())


def build_preset(
    name: str,
    n: int | None = None,
    pipeline: str | None = None,
    phase_count: int | None = None,
) -> Scenario:
    table = _preset_table()
    if name not in table:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(table)}")
    sc = table[name]
    if phase_count is not None:
        if name != "multiphase_discrete":
            raise ValueError("--phases only applies to multiphase_discrete")
        sc = replace(sc, config=_multiphase_config(phase_count))
    if n is not None:
        sc = replace(sc, n=n)
    if pipeline is not None:
        sc = replace(sc, pipeline=pipeline)
    return sc


# -- config files -------------------------------------------------------------


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_numbers(value) -> bool:
    return isinstance(value, list) and all(map(_is_number, value))


def _finite(value) -> bool:
    """No NaN or infinity (``json`` reads 1e400 as inf), no integer past the float range."""
    if isinstance(value, list):
        return all(map(_finite, value))
    if isinstance(value, float):
        return math.isfinite(value)
    return not isinstance(value, int) or abs(value) <= sys.float_info.max


def _float_or_none(value) -> float | None:
    return None if value is None else float(value)


def _floats(value) -> tuple[float, ...]:
    return tuple(float(v) for v in value)


# dataclass field annotation -> (the JSON type it takes, a test of the parsed value, conversion)
_JSON_TYPES = {
    "str": ("string", lambda v: isinstance(v, str), str),
    "bool": ("boolean", lambda v: isinstance(v, bool), bool),
    "int": ("integer", lambda v: _is_number(v) and isinstance(v, int), int),
    "float": ("number", _is_number, float),
    "float | None": ("number or null", lambda v: v is None or _is_number(v), _float_or_none),
    "tuple[float, ...]": ("array of numbers", _is_numbers, _floats),
    "tuple[float, float]": (
        "array of two numbers",
        lambda v: _is_numbers(v) and len(v) == 2,
        _floats,
    ),
}


def _fields_from_json(cls, obj: dict, where: str) -> dict:
    """Type-checked keyword arguments for the dataclass ``cls`` from a JSON object.

    The fields a file can set are those whose annotation has a JSON type; an
    absent key keeps the dataclass default, and any other key is an error.
    Every number must be finite.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    types = {f.name: f.type for f in fields(cls) if f.type in _JSON_TYPES}
    kwargs = {}
    for key, value in obj.items():
        if key not in types:
            raise ValueError(f"unknown key {key!r} in {where}")
        kind, ok, convert = _JSON_TYPES[types[key]]
        if not ok(value):
            raise ValueError(f"{key!r} in {where} must be a JSON {kind}")
        if not _finite(value):
            raise ValueError(f"{key!r} in {where} must be finite")
        kwargs[key] = convert(value)
    return kwargs


def load_config_file(path) -> Scenario:
    """Read a scenario description from a JSON file, rejecting unknown keys and wrong types."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("the config file must be a JSON object")
    nodes = {key: raw.pop(key) for key in ("domain", "phases", "tolerances") if key in raw}
    settings = _fields_from_json(Scenario, raw, "the config file")
    if "domain" not in nodes:
        raise ValueError("config file needs a 'domain' entry")
    domain = DomainSpec(**_fields_from_json(DomainSpec, nodes["domain"], "'domain'"))
    phases = []
    phases_raw = nodes.get("phases", [])
    if not isinstance(phases_raw, list):
        raise ValueError("'phases' must be a JSON array")
    for i, ph in enumerate(phases_raw):
        phase = _fields_from_json(PhaseRegion, ph, f"phase {i}")
        if "shape" not in phase or "sigma" not in phase:
            raise ValueError(f"phase {i} needs 'shape' and 'sigma'")
        phases.append(PhaseRegion(**phase))
    tol_raw = nodes.get("tolerances", {})
    settings.setdefault("name", Path(path).stem)
    return Scenario(
        config=PhaseConfig(domain=domain, phases=tuple(phases)),
        tolerances=Tolerances(**_fields_from_json(Tolerances, tol_raw, "'tolerances'")),
        **settings,
    )


# -- running -------------------------------------------------------------------


@dataclass
class ScenarioResult:
    scenario: Scenario
    flags: HypothesisFlags
    system: FemSystem
    solution: object
    flux_stats: object
    flux_identity: float
    flux_identity_rel_error: float
    spectrum: object
    transmission: object
    radial_reference: object | None
    aux_profile: object
    fem_vs_radial_l2: float | None
    probe_radius: float
    probe_placement_ok: bool
    # parabolic section (None when the pipeline skipped it)
    run: object | None = None
    decay: object | None = None
    monotone: bool | None = None
    v_rel_error: float | None = None
    tail: float | None = None
    # the verdict of each detector the pipeline ran, keyed by its name in _DETECTORS
    verdicts: dict[str, bool] = field(default_factory=dict)
    asymmetry_detected: bool = False
    expectation_match: bool = False
    elapsed: float = 0.0


def _spectrum_radii(domain: DomainSpec) -> tuple[float, ...]:
    r0, R = domain.inner_radius, domain.outer_radius
    return tuple(r0 + f * (R - r0) for f in (0.25, 0.5, 0.75))


# Free-length float vectors that bound every stage's temporaries on top of the
# arrays a run keeps (`working_set_bytes`).
_PEAK_VECTORS = 12


def working_set_bytes(kind: str, n: int, pipeline: str = "elliptic") -> int:
    """The peak heap, in bytes, of a run on a ``kind`` domain ("ball" or
    "annulus") at resolution ``n``, estimated from the sizes of its arrays.

    The arrays a run keeps are counted one by one: the mesh's vertices, its
    int32 triangle and tag tables, its boundary edges and their tags; the
    triangle areas; the load, the source and the solution at the vertices;
    the free and boundary index sets; and the stiffness's four slots and
    centre row twice, once for assembly's temporaries.  Every stage's
    temporaries on top of them fit in `_PEAK_VECTORS` float vectors of the
    free length: CG's vectors, the product's buffers and the
    preconditioner's coefficients; the transmission's blocks; and, on a
    radially layered layout, the L2 distance's three floats per triangle.
    A heat flow adds ``KRYLOV_MAX`` free-length vectors, the bound on its
    Lanczos basis; SuperLU's fill, which the layout decides, is not counted.
    Nor are the buffers of a fixed number of rows or triangles, so at small n
    the estimate falls below the peak.
    """
    m, fan = 6 * n, int(kind == "ball")  # a ball's centre is one vertex
    nv, nt, nb = fan + (n + 1 - fan) * m, m * (2 * n - fan), (2 - fan) * m
    free = nv - nb
    mesh = 8 * 2 * nv + 4 * 3 * nt + 4 * nt + 8 * 2 * nb + 8 * nb
    system = 8 * nt + 3 * 8 * nv + 8 * free + 8 * nb
    stiffness = 8 * 4 * (n + 2 - fan) * m + 8 * fan * (m + 1)
    vectors = _PEAK_VECTORS + KRYLOV_MAX * ("parabolic" in _PIPELINES[pipeline])
    return mesh + system + 2 * stiffness + vectors * 8 * free


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the system does not report them."""
    try:
        size = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):  # no sysconf, or no such name
        return None
    return size if size > 0 else None


def run_scenario(scenario: Scenario, out_dir=None) -> ScenarioResult:
    """Execute the selected pipeline and (optionally) write all artifacts."""
    t_start = time.perf_counter()
    cfg = scenario.config
    tol = scenario.tolerances
    flags = validate_configuration(cfg)
    probe_rho = scenario.resolved_probe_radius()
    heat_flow = "parabolic" in _PIPELINES[scenario.pipeline]
    if heat_flow:
        # probes must ride strictly inside the shell: crossing an inclusion
        # would measure interface jumps, not the symmetry of the layout
        if cfg.domain.circle_to_boundary(probe_rho) <= 0.0:
            raise ValueError(
                f"probe circle r={probe_rho!r} is not strictly inside the domain"
            )
        for ph in cfg.phases:
            if ph.distance_to_circle(probe_rho) <= 0.0:
                raise ValueError(
                    f"probe circle r={probe_rho!r} meets the closure of "
                    f"phase {ph.label or ph.shape!r}"
                )
        # the heat flow's scipy, before the elliptic stage: scipy's OpenBLAS
        # threads spin for tens of milliseconds once loaded, and here they do
        # it beside the elliptic stage instead of the heat flow
        try:
            import scipy.linalg
            import scipy.sparse.linalg
        except ImportError as exc:  # numpy alone runs the elliptic pipeline only
            raise ValueError(f"the heat flow needs scipy: {exc}") from exc

    need, have = working_set_bytes(cfg.domain.kind, scenario.n, scenario.pipeline), _physical_memory()
    if have is not None and need > have:
        raise ValueError(
            f"a run at n={scenario.n} needs about {need / 2**30:.1f} GiB, "
            f"more than the {have / 2**30:.1f} GiB of physical memory"
        )
    mesh = generate_mesh(cfg, scenario.n)
    # every detector reads a phase through its triangles: one with none would pass as symmetric
    tagged = np.bincount(mesh.tri_tags, minlength=len(cfg.phases) + 1)[1:]
    unseen = [f"{i} ({p.label or p.shape!r})" for i, p in enumerate(cfg.phases) if not tagged[i]]
    if unseen:
        raise ValueError(
            f"no triangle of the n={scenario.n} mesh lies in phase {', '.join(unseen)}; "
            "refine the mesh"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # assembly reports the overflow
        g = npoly.polyval(np.linalg.norm(mesh.vertices, axis=1), np.asarray(scenario.source, float))
    system = assemble_system(mesh, cfg.sigma_table(), g)
    sol = solve_elliptic(system)

    bflux = recover_boundary_flux(system, sol.u)
    fstats = flux_residual(bflux)
    identity = mean_flux_identity(cfg.domain, scenario.source)
    ident_err = abs(fstats.mean - identity) / max(abs(identity), 1e-300)

    spectrum = angular_spectrum(mesh, sol.u, _spectrum_radii(cfg.domain))
    aux = build_auxiliary_profile(cfg.domain, scenario.source)
    trans = transmission_residual(system, sol.u, aux)

    radial_ref = None
    l2 = None
    if cfg.is_radially_layered():
        breaks, sigmas = radial_layers(cfg)
        radial_ref = solve_radial(breaks, sigmas, scenario.source)
        l2 = l2_error_to_radial(mesh, sol.u, radial_ref)

    placement_ok = surface_separation_ok(cfg, probe_rho)

    result = ScenarioResult(
        scenario=scenario,
        flags=flags,
        system=system,
        solution=sol,
        flux_stats=fstats,
        flux_identity=identity,
        flux_identity_rel_error=ident_err,
        spectrum=spectrum,
        transmission=trans,
        radial_reference=radial_ref,
        aux_profile=aux,
        fem_vs_radial_l2=l2,
        probe_radius=probe_rho,
        probe_placement_ok=placement_ok,
    )

    if heat_flow:
        run = result.run = evolve(system, probe=CircleSampler(system, probe_rho))
        result.decay = decay_certificate(run, run.lam_min, slack=tol.decay_slack)
        result.monotone = monotone_decay(run)
        result.v_rel_error = v_error_vs_elliptic(system, run, sol.u)
        result.tail = tail_bound(run.initial_norm, run.lam_min, run.final_time)

    _apply_verdicts(result)
    result.elapsed = time.perf_counter() - t_start
    if out_dir is not None:
        write_artifacts(result, out_dir)
    return result


def _apply_verdicts(res: ScenarioResult) -> None:
    """Combine the diagnostics into the declared-expectation contract.

    Only the detectors of the pipeline's stages give a verdict.  A layout
    counts as "asymmetry detected" when at least one of them fires; symmetry
    requires all of them quiet.  (An off-centre layout need not trip every
    detector at a finite resolution -- one firing witness is already
    inconsistent with a concentric layout.)
    """
    sc = res.scenario
    stages = _PIPELINES[sc.pipeline]
    res.verdicts = {
        name: all(v < getattr(sc.tolerances, tol) for v in values(res))
        for name, stage, tol, values in _DETECTORS
        if stage in stages
    }
    res.asymmetry_detected = not all(res.verdicts.values())
    match = res.asymmetry_detected == (not sc.expect_symmetric)
    match = match and (res.flags.all_ok == sc.expect_hypotheses_ok)
    if res.run is not None:
        # the decay certificate is a correctness requirement, not a symmetry test
        match = match and res.decay.ok and res.monotone
    res.expectation_match = match


# -- artifacts -----------------------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _heat(get):
    """A heat-flow column's getter: the cell stays empty when the pipeline skipped it."""
    return lambda res: None if res.run is None else get(res)


# diagnostics.csv, one column per entry: its name and how to read it off a result
_DIAGNOSTICS = (
    ("scenario", lambda r: r.scenario.name),
    ("n", lambda r: r.scenario.n),
    ("pipeline", lambda r: r.scenario.pipeline),
    ("vertices", lambda r: r.system.mesh.nv),
    ("triangles", lambda r: r.system.mesh.nt),
    ("hyp_phases_inside", lambda r: r.flags.phases_strictly_inside),
    ("hyp_phases_separated", lambda r: r.flags.phases_pairwise_separated),
    ("hyp_shell_connected", lambda r: r.flags.shell_connected_and_unique),
    ("hyp_sigmas_admissible", lambda r: r.flags.sigmas_admissible),
    ("expected_symmetric", lambda r: r.scenario.expect_symmetric),
    ("expected_hypotheses_ok", lambda r: r.scenario.expect_hypotheses_ok),
    ("solver_iterations", lambda r: r.solution.iterations),
    ("galerkin_rel_residual", lambda r: r.solution.rel_residual),
    ("flux_mean", lambda r: r.flux_stats.mean),
    ("flux_deviation", lambda r: r.flux_stats.deviation),
    ("flux_rel_deviation", lambda r: r.flux_stats.rel_deviation),
    ("flux_absolute_fallback", lambda r: r.flux_stats.absolute_fallback),
    ("flux_identity_value", lambda r: r.flux_identity),
    ("flux_identity_rel_error", lambda r: r.flux_identity_rel_error),
    ("nonradial_fraction", lambda r: r.spectrum.nonradial_fraction),
    ("dominant_mode", lambda r: r.spectrum.dominant_mode),
    ("transmission_residual", lambda r: r.transmission.residual),
    ("transmission_defined", lambda r: r.transmission.defined),
    ("fem_vs_radial_l2", lambda r: r.fem_vs_radial_l2),
    ("lambda_min", _heat(lambda r: r.run.lam_min)),
    ("decay_max_ratio", _heat(lambda r: r.decay.max_ratio)),
    ("decay_slope_ratio", _heat(lambda r: r.decay.slope_ratio)),
    ("decay_ok", _heat(lambda r: r.decay.ok)),
    ("monotone_ok", lambda r: r.monotone),
    ("v_rel_error", lambda r: r.v_rel_error),
    ("tail_bound", lambda r: r.tail),
    ("final_time", _heat(lambda r: r.run.final_time)),
    ("steps", _heat(lambda r: r.run.steps)),
    ("probe_radius", lambda r: r.probe_radius),
    ("probe_placement_ok", lambda r: r.probe_placement_ok),
    ("probe_dev_u_max", _heat(lambda r: r.run.probe_dev_max[0])),
    ("probe_dev_flux_max", _heat(lambda r: r.run.probe_dev_max[1])),
    *((f"verdict_{name}", lambda r, name=name: r.verdicts.get(name)) for name, *_ in _DETECTORS),
    ("asymmetry_detected", lambda r: r.asymmetry_detected),
    ("expectation_match", lambda r: r.expectation_match),
)
DIAG_COLUMNS = tuple(column for column, _ in _DIAGNOSTICS)


def _diagnostics_row(res: ScenarioResult) -> list[str]:
    return [_fmt(get(res)) for _, get in _DIAGNOSTICS]


def _write_spectra_csv(path: Path, spectrum) -> None:
    a, b = spectrum.cos_coeffs, spectrum.sin_coeffs
    radius = np.repeat(spectrum.radii, a.shape[1])
    k = np.tile(np.arange(a.shape[1]), a.shape[0])
    _write_table(path, "radius,k,a_k,b_k\n", (radius, k, a.ravel(), b.ravel()))


def _write_radial_csv(path: Path, profiles: dict[str, object]) -> None:
    """Long-format dump of piecewise radial profiles: one row per coefficient."""
    with open(path, "w") as fh:
        fh.write("field,piece,lo,hi,sigma,alpha,k,c_k\n")
        for name, prof in profiles.items():
            if prof is None:
                continue
            for pi, piece in enumerate(prof.pieces):
                for k, ck in enumerate(piece.poly):
                    fh.write(
                        f"{name},{pi},{_fmt(piece.lo)},{_fmt(piece.hi)},"
                        f"{_fmt(piece.sigma)},{_fmt(piece.alpha)},{k},{_fmt(ck)}\n"
                    )


def _write_timeseries_csv(path: Path, run) -> None:
    header = "t,mass_norm,probe_mean_u,probe_dev_u,probe_mean_flux,probe_dev_flux\n"
    _write_table(path, header, (run.times, run.mass_norms, *run.probes.T))


def _summary_text(res: ScenarioResult) -> str:
    sc = res.scenario
    lines = [
        f"scenario: {sc.name}",
        f"layout: {sc.config.domain.kind}, {len(sc.config.phases)} phase(s), n={sc.n}, "
        f"pipeline={sc.pipeline}",
        f"mesh: {res.system.mesh.nv} vertices, {res.system.mesh.nt} triangles",
        "hypotheses: inside={0} separated={1} shell={2} sigmas={3}".format(
            *(
                _fmt(b)
                for b in (
                    res.flags.phases_strictly_inside,
                    res.flags.phases_pairwise_separated,
                    res.flags.shell_connected_and_unique,
                    res.flags.sigmas_admissible,
                )
            )
        ),
    ]
    for note in res.flags.notes:
        lines.append(f"  note: {note}")
    lines += [
        f"elliptic solve: {res.solution.iterations} iterations, "
        f"galerkin residual {res.solution.rel_residual:.3e}",
        f"boundary flux: mean {res.flux_stats.mean!r}, "
        f"relative deviation {res.flux_stats.rel_deviation:.6e}"
        + (" (absolute fallback)" if res.flux_stats.absolute_fallback else ""),
        f"flux identity: expected {res.flux_identity!r}, "
        f"relative error {res.flux_identity_rel_error:.3e}",
        f"angular spectrum: non-radial fraction {res.spectrum.nonradial_fraction:.6e}, "
        f"dominant mode {res.spectrum.dominant_mode}",
        f"transmission residual: {res.transmission.residual:.6e}"
        + ("" if res.transmission.defined else " (no inclusion elements; vacuous)"),
    ]
    if res.fem_vs_radial_l2 is not None:
        lines.append(f"distance to layered reference (L2): {res.fem_vs_radial_l2:.6e}")
    if res.run is not None:
        dev_u, dev_flux = res.run.probe_dev_max
        lines += [
            f"smallest eigenvalue: {res.run.lam_min!r} (from the largest Ritz value)",
            f"heat flow: {res.run.steps} steps to t={res.run.final_time!r}, "
            f"1 factorization(s) ({res.run.step_solver}), "  # the cap step's, whatever the layout
            f"{res.run.krylov_dim} Lanczos vectors (error estimate {res.run.krylov_estimate:.1e})",
            f"decay certificate: max ratio {res.decay.max_ratio:.6f} "
            f"(slack {res.decay.slack}), tail slope ratio {res.decay.slope_ratio:.4f}, "
            f"ok={_fmt(res.decay.ok)}, monotone={_fmt(res.monotone)}",
            f"time integral vs equilibrium: relative error {res.v_rel_error:.6e}, "
            f"certified tail {res.tail:.6e}",
            f"probe circle r={res.probe_radius!r} placement_ok={_fmt(res.probe_placement_ok)}: "
            f"max dev u {dev_u:.6e}, max dev flux {dev_flux:.6e}",
        ]
    lines += [
        "verdicts: " + " ".join(f"{name}={_fmt(v)}" for name, v in res.verdicts.items()),
        f"asymmetry_detected={_fmt(res.asymmetry_detected)} "
        f"expected_symmetric={_fmt(sc.expect_symmetric)} "
        f"hypotheses_ok={_fmt(res.flags.all_ok)} "
        f"expected_hypotheses_ok={_fmt(sc.expect_hypotheses_ok)}",
        f"expectation_match={_fmt(res.expectation_match)}",
    ]
    return "\n".join(lines) + "\n"


def write_artifacts(res: ScenarioResult, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_mesh(out / "mesh.txt", res.system.mesh, (out / "u.csv", res.solution.u))
    _write_spectra_csv(out / "spectra.csv", res.spectrum)
    _write_radial_csv(
        out / "radial.csv",
        {"reference_u": res.radial_reference, "auxiliary_q": res.aux_profile},
    )
    if res.run is not None:
        _write_timeseries_csv(out / "timeseries.csv", res.run)
    with open(out / "diagnostics.csv", "w") as fh:
        fh.write(",".join(DIAG_COLUMNS) + "\n")
        fh.write(",".join(_diagnostics_row(res)) + "\n")
    with open(out / "summary.txt", "w") as fh:
        fh.write(_summary_text(res))
    return out


# -- merge ---------------------------------------------------------------------


def merge_reports(root) -> tuple[Path, bool]:
    """Concatenate diagnostics rows found under ``root`` into merged.csv.

    Subdirectories are visited in sorted order.  Returns the merged path and
    whether every row matched its expectation.
    """
    root = Path(root)
    rows: list[str] = []
    all_match = True
    header = ",".join(DIAG_COLUMNS)
    for sub in sorted(p for p in root.iterdir() if p.is_dir()):
        diag = sub / "diagnostics.csv"
        if not diag.is_file():
            continue
        lines = diag.read_text().strip().split("\n")
        if lines[0] != header:
            raise ValueError(f"{diag} does not match the expected diagnostics schema")
        if len(lines) == 1:
            raise ValueError(f"{diag} has no row under its header")
        for line in lines[1:]:
            cells = line.split(",")
            if len(cells) != len(DIAG_COLUMNS):
                raise ValueError(
                    f"{diag} has a row of {len(cells)} cells under a header of {len(DIAG_COLUMNS)}"
                )
            rows.append(line)
            if cells[DIAG_COLUMNS.index("expectation_match")] != "true":
                all_match = False
    if not rows:
        raise ValueError(f"no diagnostics.csv files found under {root}")
    merged = root / "merged.csv"
    with open(merged, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")
    return merged, all_match


# -- command line ----------------------------------------------------------------


def _default_out(name: str, explicit: str | None) -> Path:
    base = Path(explicit) if explicit else Path(os.environ.get(OUT_ENV_VAR, "phaselab_out"))
    return base / name


def _print_result(res: ScenarioResult) -> None:
    sys.stdout.write(_summary_text(res))
    sys.stdout.write(f"elapsed: {res.elapsed:.2f}s\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="phaselab",
        description="Symmetry diagnostics for piecewise-constant composite conductors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario described by a JSON config file")
    p_run.add_argument("config", help="path to the scenario file")
    p_run.add_argument("--out", default=None, help="output directory root")

    p_preset = sub.add_parser("preset", help="run a named built-in scenario")
    p_preset.add_argument("name", help="preset name (see list-presets)")
    p_preset.add_argument("--n", type=int, default=None, help="mesh resolution override")
    p_preset.add_argument("--pipeline", choices=tuple(_PIPELINES), default=None)
    p_preset.add_argument("--out", default=None, help="output directory root")
    p_preset.add_argument(
        "--phases", type=int, default=None, help="inclusion count (multiphase_discrete only)"
    )

    sub.add_parser("list-presets", help="show the built-in scenarios")

    p_rep = sub.add_parser("report", help="merge diagnostics from finished runs")
    p_rep.add_argument("--merge", required=True, help="directory holding run subdirectories")

    args = parser.parse_args(argv)

    if args.command == "list-presets":
        for name, sc in _preset_table().items():
            dom = sc.config.domain
            shape = dom.kind if dom.kind == "ball" else f"annulus({dom.inner_radius})"
            sys.stdout.write(
                f"{name}: {shape}, {len(sc.config.phases)} phase(s), "
                f"expect_symmetric={_fmt(sc.expect_symmetric)}, "
                f"expect_hypotheses_ok={_fmt(sc.expect_hypotheses_ok)}\n"
            )
        return 0

    if args.command == "report":
        try:
            merged, all_match = merge_reports(args.merge)
        except (ValueError, OSError) as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
        sys.stdout.write(f"merged diagnostics written to {merged}\n")
        sys.stdout.write("all rows matched expectations\n" if all_match else "MISMATCHES found\n")
        return 0 if all_match else 1

    try:
        if args.command == "run":
            scenario = load_config_file(args.config)
        else:
            scenario = build_preset(
                args.name, n=args.n, pipeline=args.pipeline, phase_count=args.phases
            )
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    out = _default_out(scenario.name, args.out)
    try:  # only the pipeline raises these: n < 4, a phase with no triangle, an --out file
        res = run_scenario(scenario, out_dir=out)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except RuntimeError as exc:  # a solver stopped at its iteration limit
        sys.stderr.write(f"error: {exc}\n")
        return 3
    _print_result(res)
    sys.stdout.write(f"artifacts: {out}\n")
    return 0 if res.expectation_match else 1


if __name__ == "__main__":
    sys.exit(main())
