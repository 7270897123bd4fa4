"""Trace recorder tests."""

from repro.sim import TraceRecorder
from repro.sim.trace import render_gantt


class TestTraceRecorder:
    def _recorder(self):
        rec = TraceRecorder()
        rec.record(1.0, "release", "t1")
        rec.record(2.0, "run", "t1", core=0, data=(5.0,))
        rec.record(3.0, "release", "t2")
        rec.record(4.0, "run", "t2", core=1, data=(6.0,))
        rec.record(5.0, "finish", "t1", core=0)
        return rec

    def test_filter_by_kind(self):
        rec = self._recorder()
        assert len(rec.filter(kind="release")) == 2

    def test_filter_by_subject_and_core(self):
        rec = self._recorder()
        assert len(rec.filter(subject="t1")) == 3
        assert len(rec.filter(core=1)) == 1

    def test_filter_predicate(self):
        rec = self._recorder()
        late = rec.filter(predicate=lambda e: e.time >= 4.0)
        assert len(late) == 2

    def test_first_last_count(self):
        rec = self._recorder()
        assert rec.filter(kind="release")[0].subject == "t1"
        assert rec.filter(kind="release")[-1].subject == "t2"
        assert rec.filter(kind="run", subject="t2")[0].time == 4.0
        assert len(rec.filter(kind="run")) == 2
        assert rec.filter(kind="nothing") == []

    def test_disabled_recorder_drops_events(self):
        rec = TraceRecorder(enabled=False)
        rec.record(1.0, "x")
        assert len(rec) == 0

    def test_render_lines(self):
        rec = self._recorder()
        text = rec.render()
        assert "release" in text and "t2" in text

    def test_iteration(self):
        rec = self._recorder()
        assert len(list(rec)) == 5


class TestGantt:
    def test_rows_marked(self):
        rec = TraceRecorder()
        rec.record(0.0, "run", "t1", core=0, data=(3.0,))
        rec.record(3.0, "run", "t2", core=1, data=(5.0,))
        art = render_gantt(rec, num_cores=2, horizon=6.0)
        lines = art.splitlines()
        assert lines[0].startswith("core 0")
        assert "111" in lines[0]
        assert "22" in lines[1]

    def test_idle_shown_as_dots(self):
        rec = TraceRecorder()
        art = render_gantt(rec, num_cores=1, horizon=4.0)
        assert "...." in art
