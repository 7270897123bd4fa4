"""Packet capacity accounting, fault-flip primitive, channels and the
System Interconnect."""

from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from repro.config import FlexStepConfig
from repro.core.registers import ArchSnapshot
from repro.errors import ChannelError, ConfigurationError
from repro.flexstep import Channel, SystemInterconnect
from repro.flexstep.packets import (
    EcpPacket,
    IcPacket,
    MemPacket,
    ProgressPacket,
    ScpPacket,
    flip_bit_in_packet,
)
from repro.isa.instructions import REG_COUNT


def snap(npc=0x40, seed=3):
    return ArchSnapshot(npc=npc,
                        regs=tuple(seed * i for i in range(REG_COUNT)),
                        csrs=(0,))


class TestPackets:
    def test_mem_packet_one_entry(self):
        p = MemPacket(segment=1, push_cycle=0, count=1, kind="r",
                      addr=8, data=9)
        assert p.entries == 1

    def test_snapshot_packet_entries(self):
        p = ScpPacket(segment=1, push_cycle=0, snapshot=snap())
        # 34 words * 8 B / 16 B per entry = 17
        assert p.entries == 17
        e = EcpPacket(segment=1, push_cycle=0, snapshot=snap())
        assert e.entries == 17

    def test_ic_and_progress_single_entry(self):
        assert IcPacket(segment=1, push_cycle=0, count=5).entries == 1
        assert ProgressPacket(segment=1, push_cycle=0, count=5).entries == 1


MEM_FIELDS = {"segment": 3, "push_cycle": 40, "count": 7, "kind": "w",
              "addr": 0x1008, "data": 99}


class TestMemPacket:
    """``MemPacket`` is a slotted record, not a dataclass; it must keep
    the frozen dataclass's value semantics."""

    def test_positional_and_keyword_construction_agree(self):
        assert MemPacket(3, 40, 7, "w", 0x1008, 99) == MemPacket(**MEM_FIELDS)
        assert MemPacket(1, 2) == MemPacket(1, 2, 0, "r", 0, 0)

    @pytest.mark.parametrize("name", sorted(MEM_FIELDS))
    def test_assigning_a_field_raises(self, name):
        p = MemPacket(**MEM_FIELDS)
        with pytest.raises(FrozenInstanceError):
            setattr(p, name, 0)
        with pytest.raises(FrozenInstanceError):
            delattr(p, name)
        assert getattr(p, name) == MEM_FIELDS[name]

    def test_no_new_attributes(self):
        with pytest.raises(AttributeError):
            MemPacket(**MEM_FIELDS).extra = 1

    def test_equal_packets_hash_equal(self):
        p, q = MemPacket(**MEM_FIELDS), MemPacket(**MEM_FIELDS)
        assert p == q and not p != q
        assert hash(p) == hash(q)
        assert len({p, q}) == 1

    @pytest.mark.parametrize("name", sorted(MEM_FIELDS))
    def test_one_field_changed_is_unequal(self, name):
        p = MemPacket(**MEM_FIELDS)
        other = "r" if name == "kind" else MEM_FIELDS[name] + 1
        q = MemPacket(**{**MEM_FIELDS, name: other})
        assert p != q and not p == q
        assert len({p, q}) == 2

    def test_unequal_to_other_types(self):
        p = MemPacket(**MEM_FIELDS)
        assert p != tuple(MEM_FIELDS.values())
        assert p != ProgressPacket(segment=3, push_cycle=40, count=7)

    def test_repr(self):
        assert repr(MemPacket(**MEM_FIELDS)) == (
            "MemPacket(segment=3, push_cycle=40, count=7, kind='w', "
            "addr=4104, data=99)")

    @given(st.integers(0, 1), st.integers(0, 63))
    def test_flip_is_an_involution_on_one_word(self, word, bit):
        p = MemPacket(**MEM_FIELDS)
        flipped = flip_bit_in_packet(p, word, bit)
        assert flipped != p
        assert isinstance(flipped, MemPacket)
        keep = ("count", "kind", "segment", "push_cycle")
        assert [getattr(flipped, n) for n in keep] \
            == [getattr(p, n) for n in keep]
        changed = "addr" if word == 0 else "data"
        unchanged = "data" if word == 0 else "addr"
        assert getattr(flipped, changed) == getattr(p, changed) ^ (1 << bit)
        assert getattr(flipped, unchanged) == getattr(p, unchanged)
        assert flip_bit_in_packet(flipped, word, bit) == p


class TestFlip:
    def test_flip_mem_addr_and_data(self):
        p = MemPacket(segment=1, push_cycle=0, count=1, kind="r",
                      addr=0x10, data=0x20)
        assert flip_bit_in_packet(p, 0, 0).addr == 0x11
        assert flip_bit_in_packet(p, 1, 4).data == 0x30

    def test_flip_snapshot_word(self):
        p = ScpPacket(segment=1, push_cycle=0, snapshot=snap())
        flipped = flip_bit_in_packet(p, 0, 2)     # npc word
        assert flipped.snapshot.npc == p.snapshot.npc ^ 4

    def test_flip_ic_count(self):
        p = IcPacket(segment=1, push_cycle=0, count=8)
        assert flip_bit_in_packet(p, 0, 1).count == 10

    def test_flip_is_involution(self):
        p = MemPacket(segment=1, push_cycle=0, count=1, kind="w",
                      addr=5 * 8, data=77)
        assert flip_bit_in_packet(flip_bit_in_packet(p, 1, 7), 1, 7) == p

    @given(st.integers(0, 33), st.integers(0, 63))
    def test_flip_always_changes_snapshot(self, word, bit):
        p = EcpPacket(segment=1, push_cycle=0, snapshot=snap())
        flipped = flip_bit_in_packet(p, word, bit)
        assert flipped.snapshot.words() != p.snapshot.words()


class TestChannel:
    def test_capacity_enforced(self):
        ch = Channel(0, 1, capacity_entries=2)
        assert ch.push(MemPacket(segment=1, push_cycle=0))
        assert ch.push(MemPacket(segment=1, push_cycle=0))
        assert not ch.push(MemPacket(segment=1, push_cycle=0))
        assert ch.stats.refusals == 1

    def test_large_packet_refused_when_tight(self):
        ch = Channel(0, 1, capacity_entries=10)
        assert not ch.can_push(
            ScpPacket(segment=1, push_cycle=0, snapshot=snap()))

    def test_pop_frees_space(self):
        ch = Channel(0, 1, capacity_entries=1)
        ch.push(MemPacket(segment=1, push_cycle=0))
        ch.pop(now=100)
        assert ch.push(MemPacket(segment=1, push_cycle=0))

    def test_latency_gates_delivery(self):
        ch = Channel(0, 1, capacity_entries=4, latency_cycles=3)
        ch.push(MemPacket(segment=1, push_cycle=10))
        assert ch.head(now=12) is None
        assert ch.head(now=13) is not None

    def test_pop_undelivered_raises(self):
        ch = Channel(0, 1, capacity_entries=4, latency_cycles=5)
        ch.push(MemPacket(segment=1, push_cycle=10))
        with pytest.raises(ChannelError):
            ch.pop(now=11)

    def test_pop_empty_raises(self):
        with pytest.raises(ChannelError):
            Channel(0, 1, capacity_entries=1).pop()

    def test_fifo_order(self):
        ch = Channel(0, 1, capacity_entries=8)
        for i in range(3):
            ch.push(MemPacket(segment=1, push_cycle=0, count=i))
        assert [ch.pop(10).count for _ in range(3)] == [0, 1, 2]

    def test_push_tap_can_replace(self):
        ch = Channel(0, 1, capacity_entries=8)
        ch.add_push_tap(lambda p: flip_bit_in_packet(p, 1, 0))
        ch.push(MemPacket(segment=1, push_cycle=0, data=0))
        assert ch.pop(10).data == 1

    def test_pop_visible(self):
        ch = Channel(0, 1, capacity_entries=8, latency_cycles=2)
        mem = MemPacket(segment=1, push_cycle=10)
        ch.push(mem)
        ch.push(IcPacket(segment=1, push_cycle=10, count=1))
        assert ch.pop_visible(11, MemPacket) is None  # not yet visible
        assert len(ch) == 2
        assert ch.pop_visible(12, MemPacket) is mem
        assert ch.pop_visible(12, MemPacket) is None  # an IC head
        assert (len(ch), ch.occupancy, ch.stats.pops) == (1, 1, 1)
        assert isinstance(ch.pop_visible(12), IcPacket)
        assert ch.pop_visible(12) is None  # empty
        assert (ch.occupancy, ch.stats.pops) == (0, 2)

    def test_max_occupancy_tracked(self):
        ch = Channel(0, 1, capacity_entries=8)
        ch.push(MemPacket(segment=1, push_cycle=0))
        ch.push(MemPacket(segment=1, push_cycle=0))
        ch.pop(10)
        assert ch.stats.max_occupancy == 2


class TestInterconnect:
    def _ic(self, cores=4, **overrides):
        return SystemInterconnect(cores, FlexStepConfig(**overrides))

    def test_one_to_one(self):
        ic = self._ic()
        channels = ic.configure(0, [1])
        assert len(channels) == 1
        assert ic.checkers_of(0) == (1,)
        assert ic.main_of(1) == 0
        assert ic.channel_to(1) is channels[0]

    def test_one_to_two_splits_main_share(self):
        ic = self._ic()
        dual = ic.configure(0, [1])[0].capacity
        ic.release(0)
        triple = ic.configure(0, [1, 2])[0].capacity
        assert triple < dual

    def test_self_check_rejected(self):
        with pytest.raises(ConfigurationError):
            self._ic().configure(0, [0])

    def test_duplicate_checkers_rejected(self):
        with pytest.raises(ConfigurationError):
            self._ic().configure(0, [1, 1])

    def test_mode_limit_enforced(self):
        ic = self._ic(max_checkers_per_main=1)
        with pytest.raises(ConfigurationError):
            ic.configure(0, [1, 2])

    def test_checker_stealing_rejected(self):
        ic = self._ic()
        ic.configure(0, [1])
        with pytest.raises(ConfigurationError):
            ic.configure(2, [1])

    def test_reassociate_same_wiring_preserves_channel(self):
        ic = self._ic()
        before = ic.configure(0, [1])[0]
        before.push(MemPacket(segment=1, push_cycle=0))
        after = ic.configure(0, [1])[0]
        assert after is before
        assert len(after) == 1

    def test_release_frees_checkers(self):
        ic = self._ic()
        ic.configure(0, [1])
        ic.release(0)
        assert ic.channel_to(1) is None
        ic.configure(2, [1])  # now allowed

    def test_out_of_range_core_rejected(self):
        with pytest.raises(ConfigurationError):
            self._ic().configure(0, [9])

    def test_empty_checkers_rejected(self):
        with pytest.raises(ConfigurationError):
            self._ic().configure(0, [])