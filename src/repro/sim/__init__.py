"""Discrete-event simulation substrate used across the library."""

from .engine import Event, EventQueue
from .stats import (
    Histogram,
    geomean,
    percentile,
)
from .trace import TraceEvent, TraceRecorder

__all__ = [
    "Event",
    "EventQueue",
    "Histogram",
    "geomean",
    "percentile",
    "TraceEvent",
    "TraceRecorder",
]
