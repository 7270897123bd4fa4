"""Every script under ``examples/`` runs to completion.

The examples assert their own expected results (detection rates,
checked sums), so a zero exit status is the behavioural check.  Each
runs in a fresh interpreter with its cache and report directories
under ``tmp_path``, so nothing is replayed from an earlier run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script, tmp_path):
    env = {**os.environ,
           "PYTHONPATH": str(ROOT / "src"),
           "REPRO_CACHE_DIR": str(tmp_path / "cache"),
           "REPRO_REPORT_DIR": str(tmp_path / "reports")}
    proc = subprocess.run([sys.executable, str(script)], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
