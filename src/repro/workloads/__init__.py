"""Synthetic workloads standing in for Parsec v3 and SPECint CPU2006.

The paper's performance experiments (Figs. 4, 6, 7) depend on workload
*character* — the mix of memory operations, branches, atomics and
syscalls — not on benchmark semantics.  Each paper workload gets a
:class:`~repro.workloads.profiles.WorkloadProfile` with a plausible mix,
and :func:`~repro.workloads.generator.build_program` turns a profile
into a deterministic :class:`~repro.isa.program.Program` for the repro
core, emitted instruction by instruction (no assembly text), optionally
instrumented in the style of Nzdc (duplicated computation + checks).
"""

from .profiles import (
    PARSEC,
    SPECINT,
    WorkloadProfile,
    get_profile,
    resolve_profiles,
)
from .generator import build_program, GeneratorOptions

__all__ = [
    "PARSEC",
    "SPECINT",
    "WorkloadProfile",
    "get_profile",
    "resolve_profiles",
    "build_program",
    "GeneratorOptions",
]
