"""The main core's Memory Access Log fast paths against the reference
paths they shortcut.

Both co-sim schedulers stage packets through ``MainCoreAdapter._stage``
and the heap's fused window skips ``step_entries_bound`` for CPC-only
commits, so the loop-vs-heap differential suite cannot see a fault in
either shortcut: these tests compare each one with its reference.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CoreConfig, FlexStepConfig
from repro.core import Core, DirectPort, MainMemory
from repro.core.registers import ArchSnapshot
from repro.flexstep import Channel
from repro.flexstep.packets import MemPacket, ProgressPacket, ScpPacket
from repro.flexstep.rcpm import MainCoreAdapter
from repro.isa import assemble
from repro.isa.instructions import REG_COUNT

from ..conftest import make_verified_soc


# ---------------------------------------------------------------------
# _stage: direct push against the outbox + try_flush path
# ---------------------------------------------------------------------

def _packet(kind: str, i: int):
    if kind == "mem":
        return MemPacket(1, i, i, "w", 8 * i, i * i)
    if kind == "progress":
        return ProgressPacket(segment=1, push_cycle=i, count=i)
    snapshot = ArchSnapshot(npc=4 * i, regs=(i,) * REG_COUNT, csrs=(0,))
    return ScpPacket(segment=1, push_cycle=i, snapshot=snapshot)


def _reference_stage(adapter, packet):
    """Staging as the adapter did before the direct push."""
    adapter._outbox.append(packet)
    adapter.try_flush()


def _adapter(capacities, taps):
    core = Core(0, CoreConfig(), DirectPort(MainMemory()))
    adapter = MainCoreAdapter(core, FlexStepConfig())
    channels = []
    for index, capacity in enumerate(capacities):
        channel = Channel(0, index + 1, capacity_entries=capacity)
        channel.add_push_tap(
            lambda p, index=index: (taps.append((index, p)), p)[1])
        channels.append(channel)
    adapter.associate(channels)
    return adapter


def _observe(adapter, taps):
    return ([(list(ch.iter_packets()), ch.occupancy, ch.stats)
             for ch in adapter.channels],
            list(adapter._outbox), list(taps))


def _drive(capacities, script):
    """Run ``script`` on a direct-push adapter and on a reference one,
    asserting identical channels, outbox and tap calls after every
    operation; returns how many stages took each path."""
    fast_taps, ref_taps = [], []
    fast = _adapter(capacities, fast_taps)
    ref = _adapter(capacities, ref_taps)
    paths = {"direct": 0, "outbox": 0}
    for i, (op, arg) in enumerate(script):
        if op == "stage":
            packet = _packet(arg, i)
            outbox_before = len(fast._outbox)
            fast._stage(packet)
            _reference_stage(ref, packet)
            went_direct = not outbox_before and not fast._outbox
            paths["direct" if went_direct else "outbox"] += 1
        elif op == "pop":
            for adapter in (fast, ref):
                channel = adapter.channels[arg]
                if len(channel):
                    channel.pop(now=10**9)
        else:
            fast.try_flush()
            ref.try_flush()
        assert _observe(fast, fast_taps) == _observe(ref, ref_taps), i
    return paths


class TestStageEquivalence:
    def test_one_channel_fills_into_the_outbox(self):
        script = ([("stage", "mem")] * 4 + [("pop", 0)]
                  + [("stage", "progress")] + [("pop", 0)] * 3
                  + [("flush", None), ("stage", "mem")])
        paths = _drive((3,), script)
        assert paths["direct"] > 0 and paths["outbox"] > 0

    @pytest.mark.parametrize("full", [0, 1])
    def test_triple_mode_one_full_channel_holds_the_packet(self, full):
        """The packet fits the roomy channel but not the full one, so
        it must wait in the outbox and reach neither channel."""
        roomy = 1 - full
        capacities = (2, 5) if full == 0 else (5, 2)
        script = ([("stage", "mem")] * 3 + [("pop", roomy)]
                  + [("stage", "mem")] * 2
                  + [("pop", full), ("flush", None), ("stage", "mem")])
        paths = _drive(capacities, script)
        assert paths["direct"] > 0 and paths["outbox"] > 0

    def test_snapshot_packets_need_their_entries(self):
        script = ([("stage", "mem")] * 3 + [("stage", "scp")]
                  + [("pop", 0)] * 3 + [("flush", None), ("stage", "scp")])
        paths = _drive((19, 40), script)
        assert paths["direct"] > 0 and paths["outbox"] > 0

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(3,), (2, 5), (5, 2), (19, 20)]),
           st.lists(st.one_of(
               st.tuples(st.just("stage"),
                         st.sampled_from(["mem", "progress", "scp"])),
               st.tuples(st.just("pop"), st.integers(0, 1)),
               st.tuples(st.just("flush"), st.none())),
               max_size=40))
    def test_random_scripts(self, capacities, script):
        script = [(op, arg % len(capacities) if op == "pop" else arg)
                  for op, arg in script]
        _drive(capacities, script)


# ---------------------------------------------------------------------
# run_window: the inline CPC-only shortcut of the shared-step test
# ---------------------------------------------------------------------

#: Second instructions of the probe program, one per kind the window
#: can meet (a halt always ends the window before the test).
SECOND = (
    "addi x7, x7, 1", "mul x7, x7, x7", "div x7, x7, x5",
    "ld x3, 0(x10)", "sd x3, 0(x10)", "lr x3, (x10)",
    "sc x3, x4, (x10)", "amoadd x3, x4, (x10)", "beq x0, x0, next",
    "jal x1, next", "csrrs x3, 0xC02, x0", "ecall",
)

PROBE_SRC = """
.text
main:
    addi x5, x5, 1
    {second}
next:
    addi x6, x6, 1
    halt
"""


class TestEntryFreeShortcut:
    @settings(max_examples=200, deadline=None)
    @given(second=st.sampled_from(SECOND),
           count=st.integers(0, 150),
           since=st.integers(0, 150),
           interval=st.integers(1, 100),
           limit=st.integers(1, 200),
           segment_open=st.booleans())
    def test_shortcut_implies_no_entries(self, second, count, since,
                                         interval, limit, segment_open):
        """Wherever the window's second step skips
        ``step_entries_bound``, the bound at that step is 0."""
        program = assemble(PROBE_SRC.format(second=second), name="probe")
        soc = make_verified_soc(program, segment_limit=limit)
        adapter = soc.adapter_of(0)
        core = soc.cores[0]
        core.regs.write(10, 0x1000)
        core.port.read(0x1000)  # an L1D hit keeps memory steps in
        adapter.progress_interval = interval
        if segment_open:
            adapter.before_step()
            adapter._count = count
            adapter._last_progress = max(0, count - since)
        calls = []
        bound = adapter.step_entries_bound

        def spy(kind):
            calls.append(kind)
            return bound(kind)

        adapter.step_entries_bound = spy
        seen = []
        kernels = core.decoded().kernels
        kernel = kernels[1]

        def probe(c):
            # the state the shared-step test saw: with the segment
            # open, nothing but the test runs between it and here
            seen.append((len(calls), bound(core.decoded().kinds[1])))
            return kernel(c)

        kernels[1] = probe
        try:
            adapter.run_window(0, 2, None, False)
        finally:
            kernels[1] = kernel
        for spied, entries in seen:
            if not spied:
                assert entries == 0
