"""Verified dies: the one builder every armed co-simulated die goes through.

A verified die runs ``pairs`` groups of one main core and ``checkers``
checker cores; group ``p`` is main ``p * (1 + checkers)`` followed by its
checkers.  The builder reads a Fig. 7 unit spec
(:func:`repro.analysis.latency._fig7_specs`), so the catalog's latency
units, the Fig. 4/6 slowdown units, the differential suites and the SoC
bench all build the same die from the same fields.
"""

from __future__ import annotations

import random
from typing import Mapping

from ..config import SoCConfig
from ..isa.program import Program
from .faults import FaultInjector, FaultTarget, install_injector
from .soc import FlexStepSoC


def build_verified_die(
    program: Program,
    spec: Mapping,
    config: SoCConfig | None = None,
) -> tuple[FlexStepSoC, list[FaultInjector]]:
    """Build the die ``spec`` describes and arm every group on ``program``.

    Reads the die's fields of a Fig. 7 unit spec: the topology
    (``pairs`` and ``checkers``, 1 each by default), the FlexStep
    overrides ``dma_spill_entries`` and ``fifo_entries``,
    ``service_pause_cycles``, the fault model (``target``, ``side``,
    ``segment_interval``, ``segment_rate``, ``burst_bits``) and
    ``fault_seed``.  A spec without a ``target`` builds a clean die.
    ``config`` is the base SoC; by default it has exactly the cores the
    layout needs.

    Each group loads ``program`` on its main, is armed by
    :meth:`FlexStepSoC.setup_verification`, gives its checkers the
    service pause and, on a faulted die, gets one injector seeded
    ``fault_seed + 7919 * p``.  Returns the die and its injectors, in
    group order.
    """
    pairs = spec.get("pairs", 1)
    checkers = spec.get("checkers", 1)
    group = 1 + checkers
    config = config or SoCConfig(num_cores=pairs * group)
    if config.num_cores < pairs * group:
        raise ValueError(
            f"{pairs} group(s) of {group} cores need {pairs * group} "
            f"cores, the SoC has {config.num_cores}"
        )
    overrides = {
        key: spec[key]
        for key in ("dma_spill_entries", "fifo_entries")
        if spec.get(key)
    }
    if overrides:
        config = config.with_flexstep(**overrides)
    pause = spec.get("service_pause_cycles", 0)
    soc = FlexStepSoC(config)
    injectors = []
    for p in range(pairs):
        main = p * group
        checker_ids = list(range(main + 1, main + group))
        soc.load_program(main, program)
        soc.setup_verification(main, checker_ids)
        for cid in checker_ids:
            soc.engine_of(cid).segment_service_pause = pause
        if spec.get("target") is not None:
            injector = install_injector(
                soc,
                main,
                side=spec.get("side", "checker"),
                target=FaultTarget(spec["target"]),
                segment_interval=spec["segment_interval"],
                segment_rate=spec.get("segment_rate"),
                burst_bits=spec.get("burst_bits", 1),
                rng=random.Random(spec["fault_seed"] + 7919 * p),
            )
            injectors.append(injector)
    return soc, injectors
