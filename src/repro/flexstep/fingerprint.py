"""Fingerprints of co-simulated dies, for the differential suites.

:func:`soc_fingerprint` folds everything a scheduler or an engine tier
could perturb into one value, so two runs of the same die compare with
``==``: the ``loop`` oracle against the ``heap`` scheduler, and the
``interp`` oracle against the ``decoded`` tier.  The suites build their
dies with :func:`repro.flexstep.die.build_verified_die`, as the catalog
does.
"""

from __future__ import annotations

from typing import Sequence

from ..core.registers import CSR_INSTRET
from .faults import FaultInjector
from .soc import FlexStepSoC, SoCRunStats


def soc_fingerprint(
    soc: FlexStepSoC,
    stats: SoCRunStats,
    injectors: Sequence[FaultInjector] = (),
) -> tuple:
    """Everything a scheduler could perturb, as one comparable value.

    Captures the run stats, every core's final cycle count, each
    checker engine's ordered ``SegmentResult`` stream and counters,
    and each injector's fault records — the identity the differential
    suites (``tests/flexstep/test_soc_sched.py`` and
    ``tests/core/test_differential_engine.py``) assert on.

    It also captures the counters whose value depends on the host
    order of cross-core events even when every cycle count agrees:
    each channel's :class:`~repro.flexstep.dbc.ChannelStats` (a push
    reordered against a pop moves ``max_occupancy``), each adapter's
    stall and packet counters, and the hit/miss/eviction/writeback
    counters of every L1 and the shared L2 (whose LRU order depends on
    the order of accesses), plus the hierarchy's access totals.

    Finally, every core -- checkers included -- contributes all of its
    :class:`~repro.core.core.CoreStats`, its ``instret`` CSR, its final
    ``pc`` and its register file: the bookkeeping a batched execution
    path re-implements instead of inheriting from ``Core.step``.
    """
    segment_rows = []
    for cid, engine in sorted(soc._engines.items()):
        for result in engine.results:
            row = (
                cid,
                result.segment,
                result.ok,
                result.count,
                result.detail,
                result.detect_cycle,
                str(result.close_reason),
            )
            segment_rows.append(row)
        counters = (
            cid,
            engine.stats.segments_checked,
            engine.stats.segments_failed,
            engine.stats.replayed_instructions,
            engine.stats.idle_cycles,
            engine.stats.verified_entries,
        )
        segment_rows.append(counters)
    fault_rows = []
    for injector in injectors:
        for record in injector.records:
            fault_rows.append(tuple(sorted(record.to_dict().items())))
        fault_rows.append(("armed_unfired", injector.armed_unfired))
    channel_rows = []
    for key, channel in sorted(soc.interconnect._channels.items()):
        cs = channel.stats
        channel_rows.append(
            (
                key,
                cs.pushes,
                cs.pops,
                cs.entries_pushed,
                cs.refusals,
                cs.max_occupancy,
            )
        )
    adapter_rows = []
    for cid, adapter in sorted(soc._adapters.items()):
        ad = adapter.stats
        adapter_rows.append(
            (
                cid,
                ad.segments_opened,
                ad.segments_closed,
                ad.mem_packets,
                ad.progress_packets,
                ad.extraction_stall_cycles,
                ad.backpressure_stall_cycles,
            )
        )
    caches = [soc.l2]
    for core in soc.cores:
        caches.append(core.l1i)
        caches.append(getattr(core.port, "l1d", None))
    cache_rows = []
    for cache in caches:
        if cache is not None:
            st = cache.stats
            cache_rows.append(
                (cache.name, st.hits, st.misses, st.evictions, st.writebacks)
            )
    hierarchy = soc.hierarchy.stats
    cache_rows.append(
        ("hierarchy", hierarchy.accesses, hierarchy.total_cycles)
    )
    core_rows = []
    for core in soc.cores:
        cs = core.stats
        core_rows.append(
            (
                core.core_id,
                cs.instructions,
                cs.user_instructions,
                cs.cycles,
                cs.stall_cycles,
                cs.traps,
                cs.memory_ops,
                core.csrs.raw_read(CSR_INSTRET),
                core.pc,
                core.regs.snapshot(),
            )
        )
    return (
        tuple(sorted(stats.main_cycles.items())),
        stats.total_instructions,
        stats.segments_checked,
        stats.segments_failed,
        tuple(segment_rows),
        tuple(fault_rows),
        tuple(channel_rows),
        tuple(adapter_rows),
        tuple(cache_rows),
        tuple(core_rows),
    )
