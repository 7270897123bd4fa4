"""Every test directory must run in exactly one CI tier-1 shard.

The ``tests`` job of ``.github/workflows/ci.yml`` runs hand-maintained
``paths:`` lists, one per shard; a new ``tests/`` subdirectory or
top-level test module missing from them would never run in CI.  The
workflow is parsed as text because CI does not install PyYAML.
"""

from __future__ import annotations

from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
CI = REPO_ROOT / ".github" / "workflows" / "ci.yml"


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip(" "))


def _tests_job_shards(text: str) -> list[list[str]]:
    """The path lists of every ``paths:`` key in the ``tests`` job."""
    lines = text.splitlines()
    start = lines.index("  tests:")
    shards: list[list[str]] = []
    i = start + 1
    while i < len(lines) and (not lines[i].strip()
                              or _indent(lines[i]) > 2):
        line = lines[i]
        i += 1
        key, _, rest = line.strip().partition(":")
        if key not in ("paths", "- paths"):
            continue
        words = rest.split()
        if words in ([">-"], [">"], ["|"]):
            words = []
            while i < len(lines) and _indent(lines[i]) > _indent(line):
                words += lines[i].split()
                i += 1
        shards.append(words)
    return shards


def _test_roots() -> list[str]:
    tests = REPO_ROOT / "tests"
    roots = [f"tests/{p.name}" for p in tests.iterdir()
             if p.is_dir() and any(p.rglob("test_*.py"))]
    roots += [f"tests/{p.name}" for p in tests.glob("test_*.py")]
    return sorted(roots)


def test_every_test_root_is_in_exactly_one_shard():
    shards = _tests_job_shards(CI.read_text(encoding="utf-8"))
    assert len(shards) >= 2, shards
    listed = [path.rstrip("/") for shard in shards for path in shard]
    for root in _test_roots():
        assert listed.count(root) == 1, (
            f"{root} appears {listed.count(root)} times in the tests "
            "job's shard paths of .github/workflows/ci.yml")
    for path in listed:
        assert (REPO_ROOT / path).exists(), f"stale shard path {path}"


def test_parser_reads_folded_and_inline_paths():
    text = (
        "jobs:\n"
        "  tests:\n"
        "    strategy:\n"
        "      matrix:\n"
        "        include:\n"
        "          - shard: a\n"
        "            paths: >-\n"
        "              tests/core tests/isa\n"
        "              tests/test_config.py\n"
        "          - shard: b\n"
        "            paths: benchmarks\n"
        "  smoke:\n"
        "    paths: >-\n"
        "      tests/never\n")
    assert _tests_job_shards(text) == [
        ["tests/core", "tests/isa", "tests/test_config.py"],
        ["benchmarks"]]
