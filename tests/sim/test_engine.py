"""Event queue tests."""

from repro.sim.engine import EventQueue


class TestEventQueue:
    def test_time_ordering(self):
        q = EventQueue()
        order = []
        q.push(2.0, lambda: order.append("b"))
        q.push(1.0, lambda: order.append("a"))
        while (e := q.pop()) is not None:
            e.callback()
        assert order == ["a", "b"]

    def test_priority_breaks_ties(self):
        q = EventQueue()
        order = []
        q.push(1.0, lambda: order.append("low"), priority=1)
        q.push(1.0, lambda: order.append("high"), priority=0)
        while (e := q.pop()) is not None:
            e.callback()
        assert order == ["high", "low"]

    def test_insertion_order_breaks_remaining_ties(self):
        q = EventQueue()
        order = []
        q.push(1.0, lambda: order.append(1))
        q.push(1.0, lambda: order.append(2))
        while (e := q.pop()) is not None:
            e.callback()
        assert order == [1, 2]

    def test_cancellation(self):
        q = EventQueue()
        fired = []
        event = q.push(1.0, lambda: fired.append(1))
        event.cancel()
        assert q.pop() is None
        assert not fired

    def test_len_excludes_cancelled(self):
        q = EventQueue()
        e = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        e.cancel()
        assert len(q) == 1
        assert bool(q)

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        e = q.push(1.0, lambda: None)
        q.push(5.0, lambda: None)
        e.cancel()
        assert q.peek_time() == 5.0

    def test_priority_then_seq_tie_break(self):
        q = EventQueue()
        order = []
        q.push(1.0, lambda: order.append("p1-first"), priority=1)
        q.push(1.0, lambda: order.append("p0-first"), priority=0)
        q.push(1.0, lambda: order.append("p0-second"), priority=0)
        q.push(1.0, lambda: order.append("p1-second"), priority=1)
        while (e := q.pop()) is not None:
            e.callback()
        assert order == ["p0-first", "p0-second",
                         "p1-first", "p1-second"]

    def test_cancel_before_pop_skips_event(self):
        q = EventQueue()
        first = q.push(1.0, lambda: None, name="first")
        q.push(2.0, lambda: None, name="second")
        first.cancel()
        popped = q.pop()
        assert popped is not None and popped.name == "second"
        assert q.pop() is None

    def test_cancel_after_pop_is_inert(self):
        q = EventQueue()
        event = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        assert q.pop() is event
        event.cancel()             # already delivered: must not corrupt
        assert len(q) == 1         # the remaining event is still live
        assert q.pop() is not None
        assert q.pop() is None

    def test_double_cancel_counts_once(self):
        q = EventQueue()
        event = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert len(q) == 1
        assert bool(q)

    def test_len_is_live_counter_not_scan(self):
        q = EventQueue()
        events = [q.push(float(t), lambda: None) for t in range(50)]
        assert len(q) == 50
        for event in events[10:40]:
            event.cancel()
        assert len(q) == 20
        # compaction may have dropped buried events; order survives
        times = []
        while (e := q.pop()) is not None:
            times.append(e.time)
        assert times == [float(t) for t in (*range(10), *range(40, 50))]
        assert len(q) == 0 and not q

    def test_mass_cancel_compacts_heap(self):
        q = EventQueue()
        events = [q.push(float(t), lambda: None) for t in range(100)]
        for event in events[1:]:
            event.cancel()
        # lazy compaction bounds the buried-dead share of the heap
        assert len(q._heap) < 100
        assert len(q) == 1
        assert q.peek_time() == 0.0
