"""Static-analysis guard: only ``repro.runtime.knobs`` touches the
environment.

The whole point of the registry is that ad-hoc ``os.environ`` parsing
cannot grow back: every ``REPRO_*`` knob resolves through one
precedence rule, one parser set, one typo detector.  This test walks
the AST of every module under ``src/`` and fails on any environment
access outside ``repro/runtime/`` — including reads of non-``REPRO``
names, so a new knob cannot dodge the registry by picking a different
prefix.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

SRC_ROOT = Path(repro.__file__).resolve().parent
ALLOWED = {SRC_ROOT / "runtime" / "knobs.py"}

#: ``os.<attr>`` names that read or write the process environment.
ENVIRON_ATTRS = {"environ", "environb", "getenv", "getenvb", "putenv",
                 "unsetenv"}


def environ_accesses(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
                and node.attr in ENVIRON_ATTRS):
            hits.append(f"{path}:{node.lineno}: os.{node.attr}")
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ENVIRON_ATTRS:
                    hits.append(f"{path}:{node.lineno}: "
                                f"from os import {alias.name}")
    return hits


def test_only_the_knob_registry_reads_the_environment():
    violations = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        if path in ALLOWED:
            continue
        violations.extend(environ_accesses(path))
    assert not violations, (
        "environment access outside repro/runtime/knobs.py — resolve "
        "through the knob registry instead (knobs.value / knobs.resolve "
        "/ knobs.env_override):\n  "
        + "\n  ".join(violations))


def test_the_guard_itself_detects_access(tmp_path):
    """The guard must actually fire — pin its detector on both access
    spellings so a refactor cannot quietly neuter it."""
    sample = tmp_path / "sample.py"
    sample.write_text("import os\n"
                      "x = os.environ.get('REPRO_WORKERS')\n"
                      "y = os.getenv('HOME')\n")
    assert len(environ_accesses(sample)) == 2
    sample.write_text("from os import environ\n")
    assert len(environ_accesses(sample)) == 1
    sample.write_text("import os\nx = os.getcwd()\n")
    assert environ_accesses(sample) == []
