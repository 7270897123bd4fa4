"""Multi-backend schedulability engine: registry and selection.

Two backends evaluate batched Fig. 5 work: ``python`` (the scalar
oracle) and ``numpy`` (vectorized arrays, verdict-identical).  Pick one
with, in priority order:

1. an explicit ``backend=`` argument (``get_backend("numpy")``, or the
   ``backend=`` keyword on :func:`repro.scenarios.run_scenario` /
   ``python -m repro run --backend``),
2. the ``REPRO_SCHED_BACKEND`` environment variable,
3. ``auto`` — numpy when importable, the scalar oracle otherwise.

numpy is an optional extra (``pip install repro-flexstep[numpy]``):
``auto`` degrades gracefully to the pure-Python path, and only an
*explicit* ``numpy`` request on a numpy-less host raises
:class:`~repro.errors.SchedBackendError`.

Because both backends are proven verdict-identical (the differential
suite in ``tests/sched/test_backend_differential.py``), backend choice
is an execution knob, not part of experiment identity: campaign spawn
seeds and result-cache digests never include it, and a cached verdict
is valid no matter which backend produced it.
"""

from __future__ import annotations

import importlib.util
from contextlib import contextmanager
from typing import Iterator, Optional

from ...errors import ConfigurationError, SchedBackendError
from ...runtime import knobs
from .base import SchedBackend, TaskSetBatch

#: Names accepted by :func:`get_backend` (and the CLI flag) — declared
#: once, in the runtime knob registry.
BACKEND_CHOICES = knobs.SCHED_BACKEND_CHOICES

_INSTANCES: dict[str, SchedBackend] = {}


def numpy_available() -> bool:
    """Whether the optional numpy extra is importable."""
    try:
        return importlib.util.find_spec("numpy") is not None
    except ImportError:
        return False


def default_backend_name() -> str:
    """The name ``auto`` resolves to on this host."""
    return "numpy" if numpy_available() else "python"


def get_backend(name: Optional[str] = None) -> SchedBackend:
    """Resolve a backend: argument > ``REPRO_SCHED_BACKEND`` > auto."""
    try:
        requested = knobs.value("sched_backend", arg=name)
    except ConfigurationError as exc:
        raise SchedBackendError(str(exc)) from None
    resolved = default_backend_name() if requested == "auto" else requested
    if resolved == "numpy" and not numpy_available():
        raise SchedBackendError(
            "sched backend 'numpy' requested but numpy is not "
            "installed; install the extra (pip install "
            "repro-flexstep[numpy]) or use REPRO_SCHED_BACKEND=python")
    backend = _INSTANCES.get(resolved)
    if backend is None:
        if resolved == "numpy":
            from .numpy_backend import NumpyBackend
            backend = NumpyBackend()
        else:
            from .python_backend import PythonBackend
            backend = PythonBackend()
        _INSTANCES[resolved] = backend
    return backend


@contextmanager
def backend_override(name: Optional[str]) -> Iterator[None]:
    """Temporarily pin ``REPRO_SCHED_BACKEND`` (no-op for ``None``).

    Works through the environment so campaign worker *processes* —
    forked or spawned inside the context — inherit the selection; an
    explicit request is validated eagerly so a missing numpy fails at
    the call site, not in a worker.
    """
    if name is None:
        yield
        return
    get_backend(name)   # validate before fanning out
    with knobs.env_override("sched_backend", name):
        yield


__all__ = [
    "BACKEND_CHOICES",
    "SchedBackend",
    "TaskSetBatch",
    "backend_override",
    "default_backend_name",
    "get_backend",
    "numpy_available",
]
