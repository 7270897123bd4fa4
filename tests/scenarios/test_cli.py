"""``python -m repro`` CLI behaviour + golden report tables.

The golden files under ``golden/`` pin the exact ``report`` output of
every catalog scenario that co-simulates (at a reduced
``--instructions`` where the default would take long) plus one
schedulability grid, each under both co-sim schedulers: any change to
the simulators, the fault accounting, the spawn-seeding or the
renderers that shifts a single character shows up as a diff here.
"""

from pathlib import Path

import pytest

from repro.__main__ import main
from repro.scenarios import CATALOG

GOLDEN_DIR = Path(__file__).parent / "golden"


def _golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text()


class TestList:
    def test_lists_whole_catalog(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines()[1:] if line.strip()]
        assert len(lines) >= 8
        for name in CATALOG:
            assert name in out


class TestRun:
    def test_requires_scenario_or_all(self, capsys):
        assert main(["run"]) == 2

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            main(["run", "--scenario", "nope", "--no-cache"])

    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        rc = main(["run", "--scenario", "checker-starvation",
                   "--no-cache", "--dry-run",
                   "--report-dir", str(tmp_path)])
        assert rc == 0
        assert list(tmp_path.glob("*.json")) == []
        out = capsys.readouterr().out
        assert "checker-starvation" in out
        assert "Error-detection latency" in out

    def test_run_saves_report(self, tmp_path, capsys):
        rc = main(["run", "--scenario", "mixed-criticality", "--sets",
                   "8", "--no-cache", "--report-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "mixed-criticality.json").exists()


class TestCacheMaintenance:
    def test_fsck_clean_cache_exits_zero(self, tmp_path, capsys):
        from repro.campaign import ResultCache
        cache_dir = tmp_path / "cache"
        ResultCache(cache_dir).put("ab" * 32, {"x": 1})
        rc = main(["cache", "fsck", "--cache-dir", str(cache_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert '"ok": 1' in out

    def test_fsck_corrupt_cache_exits_one(self, tmp_path, capsys):
        from repro.campaign import ResultCache
        cache_dir = tmp_path / "cache"
        cache = ResultCache(cache_dir)
        bad = cache.path_for("cd" * 32)
        bad.parent.mkdir(parents=True)
        bad.write_text("{nope")
        rc = main(["cache", "fsck", "--cache-dir", str(cache_dir)])
        assert rc == 1
        assert not bad.exists()
        assert len(list(cache.quarantine_dir.iterdir())) == 1

    def test_gc_sweeps_aged_tmp(self, tmp_path, capsys):
        import os
        import time
        cache_dir = tmp_path / "cache"
        shard = cache_dir / "ab"
        shard.mkdir(parents=True)
        leaked = shard / f"{'ab' * 32}.tmp.12345"
        leaked.write_text("leaked")
        old = time.time() - 7200
        os.utime(leaked, (old, old))
        rc = main(["cache", "gc", "--cache-dir", str(cache_dir)])
        assert rc == 0
        assert not leaked.exists()
        assert "tmp_removed" in capsys.readouterr().out

    def test_run_with_fault_knobs(self, tmp_path, capsys):
        rc = main(["run", "--scenario", "mixed-criticality", "--sets",
                   "4", "--no-cache", "--dry-run", "--max-retries", "2",
                   "--strict", "--report-dir", str(tmp_path)])
        assert rc == 0


class TestReportGolden:
    def test_no_saved_reports(self, tmp_path, capsys):
        assert main(["report", "--report-dir", str(tmp_path)]) == 1

    def test_missing_name(self, tmp_path, capsys):
        assert main(["report", "nope",
                     "--report-dir", str(tmp_path)]) == 1

    @pytest.mark.parametrize("name,args", [
        ("checker-starvation", []),
        ("mixed-criticality", ["--sets", "8"]),
        ("fig4-parsec", ["--instructions", "4000"]),
        ("fig4-specint", ["--instructions", "4000"]),
        ("fig6-modes", ["--instructions", "4000"]),
        ("fig7-latency", ["--instructions", "10000"]),
        ("burst-faults", ["--instructions", "10000"]),
        ("sparse-faults", ["--instructions", "10000"]),
        ("main-side-faults", ["--instructions", "10000"]),
        ("32core-scaling", ["--instructions", "4000"]),
    ])
    def test_report_matches_golden(self, name, args, tmp_path, capsys):
        for sched in ("loop", "heap"):
            report_dir = tmp_path / sched
            assert main(["run", "--scenario", name, *args, "--no-cache",
                         "--soc-sched", sched,
                         "--report-dir", str(report_dir)]) == 0
            capsys.readouterr()
            assert main(["report", name,
                         "--report-dir", str(report_dir)]) == 0
            out = capsys.readouterr().out
            assert out == _golden(f"report_{name}.txt"), sched
