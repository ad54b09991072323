"""The benchmark's workloads and the seeded scenario plan of one run.

Every workload is a closed loop: one scenario at a time, each in its own
process, as ``phaselab preset NAME`` runs it, with no threads of its own.
The seed sets the scenario order and rotates the displaced layouts by a
whole number of mesh sectors.  A rotation by whole sectors maps the polar
mesh onto itself, so the rotated layout is an equivalent input: the tagged
element count, the flux spread and the transmission residual agree to
round-off and the verdict is unchanged.  Only the non-radial fraction moves
(by up to about 8e-5 relative), because the spectrum's 256 samples do not
line up with the 6n sectors; the output check allows for that.

This module does not import phaselab; :func:`make_scenario` does, in the
worker process.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

ROTATED = ("two_phase_displaced", "multiphase_discrete")
WARMUP_N = 8  # size of the untimed warm-up run of each scenario


@dataclass(frozen=True)
class Workload:
    why: str  # one line; BENCHMARK.json carries the same text
    scenarios: tuple[tuple[str, int, str], ...]  # (preset, n, pipeline)
    merge: bool  # finish each pass with merge_reports over the outputs


# Listed here rather than read from phaselab, so a new preset does not
# silently change the workload.
ALL_PRESETS = (
    "one_phase_disk",
    "one_phase_annulus",
    "two_phase_concentric",
    "two_phase_displaced",
    "multiphase_discrete",
    "nested_rings_hypothesis_violation",
)

# The comment on each workload gives the self-time share of a pass per layer,
# from the traced run on the seed commit (2-core x86-64 VM, OpenBLAS
# defaults).  A later change states its predicted effect against these.
WORKLOADS = {
    # location ~37% (locate_points 36%) plus spectrum <1%, write_artifacts
    # ~32% (write_mesh 19%), fem2d solve ~17%, mesh and assembly ~11%; about
    # 10 s per pass, 109 MB per scenario process.
    "elliptic_sweep": Workload(
        why="default CLI sweep: all six presets at n=64, elliptic, then merge; "
        "location, spectrum, solver and artifact writing all carry weight",
        scenarios=tuple((name, 64, "elliptic") for name in ALL_PRESETS),
        merge=True,
    ),
    # parabolic ~84% (evolve self 55%, its 30 step factorizations per scenario
    # 28%), location ~7%, probe_deviation ~4% (about 1,620 calls per
    # scenario), write_artifacts ~3%, fem2d solve <1%; about 13.5 s per pass,
    # 254 MB per scenario process.
    "heat_flow": Workload(
        why="heat flow on the three parabolic64 layouts at n=32: evolve does "
        "most of the work and samples a CircleSampler on every step",
        scenarios=tuple(
            (name, 32, "both")
            for name in ("one_phase_disk", "two_phase_concentric", "two_phase_displaced")
        ),
        merge=False,
    ),
    # fem2d solve ~54% (about 2,600-2,700 PCG iterations each), location ~20%,
    # write_artifacts ~19%, mesh and assembly ~5%; about 22 s per pass, 218 MB
    # per scenario process.
    "fine_displaced": Workload(
        why="displaced layouts at n=128 (97.5k free dofs): the elliptic solve "
        "dominates and the working set is largest, so solver and memory show",
        scenarios=(
            ("two_phase_displaced", 128, "elliptic"),
            ("multiphase_discrete", 128, "elliptic"),
        ),
        merge=False,
    ),
}


@dataclass(frozen=True)
class Spec:
    """One scenario of a run: a preset at a size and pipeline, rotated k sectors."""

    preset: str
    n: int
    pipeline: str
    k: int = 0

    @property
    def key(self) -> str:
        """Reference key: rotations share the reference of the unrotated layout."""
        return f"{self.preset}@n{self.n}/{self.pipeline}"

    @property
    def slug(self) -> str:
        return f"{self.preset}_n{self.n}_{self.pipeline}"


def plan(workload: str, seed: int) -> list[Spec]:
    """The seeded scenario list of one run of ``workload``."""
    rng = random.Random(f"{workload}:{seed}")
    specs = []
    for preset, n, pipeline in WORKLOADS[workload].scenarios:
        k = rng.randrange(6 * n) if preset in ROTATED else 0
        specs.append(Spec(preset, n, pipeline, k))
    rng.shuffle(specs)
    return specs


def make_scenario(spec: Spec, n: int | None = None):
    """Build the phaselab Scenario of ``spec``, optionally at another size.

    The rotation angle is 2*pi*k / (6 * spec.n), a whole number of sectors of
    the spec's mesh; at another size it is applied unchanged.
    """
    from dataclasses import replace

    from phaselab import build_preset

    sc = build_preset(spec.preset, n=spec.n if n is None else n, pipeline=spec.pipeline)
    if spec.k == 0:
        return sc
    angle = 2.0 * math.pi * spec.k / (6 * spec.n)
    c, s = math.cos(angle), math.sin(angle)
    phases = tuple(
        replace(ph, center=(c * ph.center[0] - s * ph.center[1], s * ph.center[0] + c * ph.center[1]))
        for ph in sc.config.phases
    )
    return replace(sc, config=replace(sc.config, phases=phases))
