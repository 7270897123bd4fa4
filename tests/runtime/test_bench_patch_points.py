"""Every name the benchmark's layer tracer patches still resolves.

``e2ebench/layers.py`` times each layer by replacing a function on its
owner (a module or a class) and reads the original from the owner's
``__dict__``.  A renamed or moved function there fails every traced
benchmark run (``e2ebench/run.py --trace 0`` runs one traced pass),
so the check runs in tier-1.  The benchmark directory is not a
package: the file is loaded by path.
"""

import importlib.util
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[2] / "e2ebench" / "layers.py"


def _load_layers(monkeypatch):
    spec = importlib.util.spec_from_file_location("e2ebench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve string annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_patch_point_resolves(monkeypatch):
    points = _load_layers(monkeypatch).patch_points()
    assert points
    broken = [
        f"{getattr(p.owner, '__name__', p.owner)}.{p.attr}"
        for p in points
        if not callable(vars(p.owner).get(p.attr))
    ]
    assert broken == [], "patch points that no longer resolve"

