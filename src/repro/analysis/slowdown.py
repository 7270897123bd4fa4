"""Performance-slowdown experiments (paper Figs. 4 and 6).

Methodology mirrors Sec. VI-A: each workload runs (1) on a vanilla
core, (2) under FlexStep dual-core verification, (3) rebuilt with Nzdc
instrumentation, and — trivially — (4) under LockStep, whose
synchronous per-cycle checking adds no main-core stalls (its cost is
the duplicated silicon, charged by :mod:`repro.analysis.power`).
Slowdown is main-core cycles normalised to the vanilla run.

The per-workload measurements are independent co-simulations, so the
``slowdown`` and ``modes`` scenarios (:mod:`repro.scenarios`) fan them
out over the campaign engine: one work unit measures one workload
end-to-end (vanilla + FlexStep + Nzdc for Fig. 4; vanilla + dual +
triple for Fig. 6).  Program generation is fully deterministic from
the profile's own seed, so results are independent of worker count
and cacheable on disk.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

from ..config import SoCConfig, soc_config_from_dict, soc_config_to_dict
from ..errors import VerificationMismatch
from ..flexstep.die import build_verified_die
from ..flexstep.soc import FlexStepSoC
from ..isa.program import Program
from ..sim.stats import geomean
from ..workloads.generator import (
    GeneratorOptions,
    build_program,
    cached_program,
)
from ..workloads.profiles import WorkloadProfile


@dataclass(frozen=True)
class SlowdownRow:
    """One bar group of Fig. 4: a workload's slowdown per scheme."""

    workload: str
    lockstep: float
    flexstep: float
    nzdc: Optional[float]       # None when Nzdc fails to compile


def measure_vanilla_cycles(program: Program,
                           config: SoCConfig | None = None) -> int:
    """Cycles to run ``program`` with checking disabled."""
    soc = FlexStepSoC(config or SoCConfig(num_cores=1))
    soc.load_program(0, program)
    return soc.run().main_cycles[0]


def measure_flexstep(program: Program, *, checkers: int = 1,
                     config: SoCConfig | None = None,
                     ) -> tuple[int, FlexStepSoC]:
    """Cycles for the main core under ``checkers``-way verification.

    Builds one clean group on ``config`` (default: exactly its cores)
    with :func:`~repro.flexstep.die.build_verified_die`.  Returns
    (main-core cycles, the SoC) so callers can inspect segment results
    and unit statistics.  Raises if any segment failed verification
    (there are no faults in this experiment, so a failure is a harness
    bug).
    """
    soc, _ = build_verified_die(program, {"checkers": checkers}, config)
    stats = soc.run()
    if stats.segments_failed:
        failed = [r for r in soc.all_results() if not r.ok]
        raise VerificationMismatch(
            f"fault-free run failed {stats.segments_failed} segments: "
            f"{failed[0].detail}")
    return stats.main_cycles[0], soc


def measure_nzdc_cycles(profile: WorkloadProfile,
                        options: GeneratorOptions,
                        config: SoCConfig | None = None) -> int:
    """Cycles for the Nzdc-instrumented build of ``profile``."""
    nzdc_opts = GeneratorOptions(
        target_instructions=options.target_instructions,
        block_instructions=options.block_instructions, mode="nzdc")
    program = build_program(profile, nzdc_opts)
    return measure_vanilla_cycles(program, config)


def _suite_specs(profiles: Sequence[WorkloadProfile],
                 target_instructions: int,
                 config: SoCConfig | None) -> list[dict]:
    config_spec = soc_config_to_dict(config) if config is not None else None
    return [
        {"profile": dataclasses.asdict(profile),
         "target_instructions": target_instructions,
         "config": config_spec}
        for profile in profiles
    ]


def _unit_setup(spec: dict) -> tuple[WorkloadProfile, GeneratorOptions,
                                     SoCConfig | None]:
    profile = WorkloadProfile(**spec["profile"])
    opts = GeneratorOptions(
        target_instructions=spec["target_instructions"])
    config = (soc_config_from_dict(spec["config"])
              if spec["config"] is not None else None)
    return profile, opts, config


def _fig4_unit(spec: dict, rng_seed: int) -> dict:
    """One work unit: one workload under vanilla, FlexStep and Nzdc."""
    del rng_seed   # program generation is seeded by the profile itself
    profile, opts, config = _unit_setup(spec)
    program = cached_program(profile, opts)
    base = measure_vanilla_cycles(program, config)
    flex_cycles, _soc = measure_flexstep(program, config=config)
    nzdc = None
    if profile.nzdc_compiles:
        nzdc = measure_nzdc_cycles(profile, opts, config) / base
    return {"workload": profile.name,
            "lockstep": 1.0,  # synchronous checking: no main-core stalls
            "flexstep": flex_cycles / base,
            "nzdc": nzdc}


_fig4_unit.campaign_version = "1"


def geomean_row(rows: Sequence[SlowdownRow]) -> SlowdownRow:
    """The 'geomean' bar group of Fig. 4."""
    return SlowdownRow(
        workload="geomean",
        lockstep=geomean([r.lockstep for r in rows]),
        flexstep=geomean([r.flexstep for r in rows]),
        nzdc=geomean([r.nzdc for r in rows if r.nzdc is not None]))


@dataclass(frozen=True)
class ModeRow:
    """One bar group of Fig. 6: dual- vs triple-core mode slowdown."""

    workload: str
    dual: float
    triple: float


def _fig6_unit(spec: dict, rng_seed: int) -> dict:
    """One work unit: one workload in dual- and triple-core mode."""
    del rng_seed
    profile, opts, _config = _unit_setup(spec)
    program = cached_program(profile, opts)
    base = measure_vanilla_cycles(program)
    dual, _ = measure_flexstep(program, checkers=1)
    triple, _ = measure_flexstep(program, checkers=2)
    return {"workload": profile.name,
            "dual": dual / base, "triple": triple / base}


_fig6_unit.campaign_version = "1"


def geomean_mode_row(rows: Sequence[ModeRow]) -> ModeRow:
    return ModeRow(workload="geomean",
                   dual=geomean([r.dual for r in rows]),
                   triple=geomean([r.triple for r in rows]))
