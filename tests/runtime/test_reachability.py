"""Static-analysis guard: every public name under ``src/repro`` is used.

A feature stays only if a scenario, a behavioural test or an
end-to-end measurement needs it.  This test walks the AST of every
module under ``src/repro`` and collects each public top-level function
and class, each public module-level constant and each public method.
Every one of them needs at least one reference, outside its own
definition, from ``src/``, ``benchmarks/``, ``examples/`` or
``e2ebench/`` (``tests/`` does not count: code reached only by its own
tests is dead).

A reference is a ``Name``, an ``Attribute.attr``, a ``from ... import``
alias outside a package ``__init__.py``, or an identifier-shaped string
constant (``e2ebench`` names some targets by string).  Re-exports in an
``__init__.py`` and ``__all__`` entries do not count.  Matching is by
name, not by type, so a method is reached by any ``.name`` access; a
bare ``Name`` (a local variable, say) reaches only top-level
definitions, never a method.

The only way past the guard is an ``ALLOWLIST`` entry with a reason.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path

import repro

SRC_ROOT = Path(repro.__file__).resolve().parent
REPO_ROOT = SRC_ROOT.parent.parent
REFERENCE_ROOTS = ("src", "benchmarks", "examples", "e2ebench")

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

#: ``module:qualname`` -> why the name stays although nothing reaches it.
ALLOWLIST: dict[str, str] = {
    "repro.sched.edf:dbf_scan_schedulable":
        "brute-force processor-demand oracle that QPA is "
        "differential-tested against",
    "repro.sched.edf:qpa_judge_partition":
        "exact per-core EDF verdict that tests hold Algorithm 3's "
        "density-accepted partitions to (the only caller of QPA)",
    "repro.sched.result:PartitionResult.validate_disjoint_copies":
        "invariant the partitioner tests assert: no two copies of a task "
        "share a core",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _span(node: ast.AST) -> tuple[int, int]:
    first = min([node.lineno]
                + [d.lineno for d in getattr(node, "decorator_list", ())])
    return first, node.end_lineno


def _constant_names(node: ast.stmt) -> list[str]:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    names = []
    for target in targets:
        elts = target.elts if isinstance(target, ast.Tuple) else [target]
        names.extend(e.id for e in elts if isinstance(e, ast.Name))
    return names


def definitions(path: Path, module: str) -> list[tuple[str, str, tuple]]:
    """``(key, name, (path, first, last))`` for each public definition
    in *path*: top-level functions, classes and constants, and the
    methods of every class at any depth."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []

    def visit_class(cls: ast.ClassDef, prefix: str) -> None:
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _public(node.name):
                    found.append((f"{module}:{prefix}.{node.name}",
                                  node.name, (path, *_span(node))))
            elif isinstance(node, ast.ClassDef):
                visit_class(node, f"{prefix}.{node.name}")

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if _public(node.name):
                found.append((f"{module}:{node.name}", node.name,
                              (path, *_span(node))))
            if isinstance(node, ast.ClassDef):
                visit_class(node, node.name)
        for name in _constant_names(node):
            if _public(name):
                found.append((f"{module}:{name}", name,
                              (path, *_span(node))))
    return found


def references(path: Path) -> list[tuple[str, int, bool]]:
    """``(name, line, bare)`` for every reference in *path*; ``bare``
    marks a ``Name`` load, which cannot reach a method."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    is_init = path.name == "__init__.py"
    exported = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            exported.update(id(c) for c in ast.walk(node.value))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            hits.append((node.id, node.lineno, True))
        elif isinstance(node, ast.Attribute):
            hits.append((node.attr, node.lineno, False))
        elif isinstance(node, ast.ImportFrom) and not is_init:
            hits.extend((a.name, node.lineno, False) for a in node.names)
        elif (isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _IDENTIFIER.match(node.value)
                and id(node) not in exported):
            hits.append((node.value, node.lineno, False))
    return hits


def _module_name(path: Path, src_root: Path) -> str:
    parts = path.relative_to(src_root.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def public_definitions(src_root: Path) -> list[tuple[str, str, tuple]]:
    return [d for path in sorted(src_root.rglob("*.py"))
            for d in definitions(path, _module_name(path, src_root))]


def unreached(src_root: Path, reference_paths: list[Path]) -> list[str]:
    """Keys of the public definitions under *src_root* that no file in
    *reference_paths* references outside the definition itself."""
    refs = defaultdict(list)
    for path in reference_paths:
        for name, line, bare in references(path):
            refs[name].append((path, line, bare))
    return [key for key, name, (def_path, first, last)
            in public_definitions(src_root)
            if not any((p != def_path or not first <= line <= last)
                       and not (bare and _is_method(key))
                       for p, line, bare in refs[name])]


def _is_method(key: str) -> bool:
    return "." in key.partition(":")[2]


def _reference_paths() -> list[Path]:
    return sorted(p for root in REFERENCE_ROOTS
                  for p in (REPO_ROOT / root).rglob("*.py"))


def test_every_public_name_is_reached():
    flagged = [k for k in unreached(SRC_ROOT, _reference_paths())
               if k not in ALLOWLIST]
    assert not flagged, (
        "public names that nothing under src/, benchmarks/, examples/ "
        "or e2ebench/ references — delete them (with the tests whose "
        "only subject they are) or add an ALLOWLIST entry with a "
        "reason:\n  " + "\n  ".join(flagged))


def test_allowlist_is_current_and_explained():
    """A stale entry would let a dead name back in under its key."""
    defined = {key for key, _, _ in public_definitions(SRC_ROOT)}
    assert set(ALLOWLIST) <= defined, sorted(set(ALLOWLIST) - defined)
    flagged = set(unreached(SRC_ROOT, _reference_paths()))
    assert set(ALLOWLIST) <= flagged, (
        "allowlisted names that are reached now — drop their entries: "
        + ", ".join(sorted(set(ALLOWLIST) - flagged)))
    assert all(reason.strip() for reason in ALLOWLIST.values())


def test_the_guard_itself_detects_unreached_names(tmp_path):
    """The guard must actually fire — pin its detector on samples so a
    refactor cannot quietly neuter it."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "from .mod import exported, listed\n"
        "__all__ = ['exported', 'listed']\n")
    (pkg / "mod.py").write_text(
        "LIMIT = 3\n"
        "def dead():\n"
        "    return dead()\n"
        "def exported(): pass\n"
        "def listed(): pass\n"
        "def by_attr(): pass\n"
        "def by_import(): pass\n"
        "def by_string(): pass\n"
        "class Box:\n"
        "    def used(self): pass\n"
        "    def unused(self): pass\n"
        "    def shadowed(self): pass\n"
        "    def _private(self): pass\n")
    user = tmp_path / "user.py"
    user.write_text("import pkg.mod\n"
                    "from pkg.mod import by_import\n"
                    "pkg.mod.by_attr()\n"
                    "getattr(pkg.mod, 'by_string')\n"
                    "pkg.mod.Box().used()\n"
                    "shadowed = 1\n"
                    "print(shadowed)\n"
                    "print('not an identifier: LIMIT + 1')\n")
    paths = sorted(tmp_path.rglob("*.py"))
    assert sorted(unreached(pkg, paths)) == [
        "pkg.mod:Box.shadowed",  # a local variable does not reach it
        "pkg.mod:Box.unused",
        "pkg.mod:LIMIT",
        "pkg.mod:dead",          # a self-reference is not a caller
        "pkg.mod:exported",      # an __init__ re-export is not a caller
        "pkg.mod:listed",        # nor is an __all__ entry
    ]
    user.write_text(user.read_text() + "Box.unused\nx = LIMIT\n"
                    "'exported'\n")
    assert sorted(unreached(pkg, sorted(tmp_path.rglob("*.py")))) == [
        "pkg.mod:Box.shadowed", "pkg.mod:dead", "pkg.mod:listed"]
