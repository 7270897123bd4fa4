"""Discrete-event simulation substrate used across the library."""

from .engine import Event, EventQueue
from .stats import (
    Histogram,
    OnlineStats,
    geomean,
    percentile,
    summarize,
)
from .trace import TraceEvent, TraceRecorder

__all__ = [
    "Event",
    "EventQueue",
    "Histogram",
    "OnlineStats",
    "geomean",
    "percentile",
    "summarize",
    "TraceEvent",
    "TraceRecorder",
]
