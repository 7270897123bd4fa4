"""Measurements, typed result rows and analytic models for the paper's
evaluation.

The experiments themselves run as scenarios
(:func:`repro.scenarios.run_scenario`); the two co-simulation modules
here hold their campaign work units and the rows a payload becomes.

* :mod:`slowdown` — Figs. 4(a), 4(b) and 6: performance slowdown of
  LockStep / FlexStep / Nzdc and of FlexStep's dual- vs triple-core
  verification modes.
* :mod:`latency` — Fig. 7: error-detection latency distributions under
  fault injection.
* :mod:`power` — Fig. 8 and Table III: analytic area/power model
  calibrated to the paper's 28 nm synthesis results.
* :mod:`reporting` — table/figure renderers shared by benches.
"""

from .slowdown import (
    SlowdownRow,
    measure_vanilla_cycles,
    measure_flexstep,
    measure_nzdc_cycles,
)
from .latency import (
    LatencyResult,
    merge_latency_units,
)
from .power import PowerAreaModel, PowerAreaPoint, scalability_sweep
from .reporting import (
    format_fault_summary,
    format_fig4,
    format_fig6,
    format_fig8,
    format_table3,
)

__all__ = [
    "SlowdownRow",
    "measure_vanilla_cycles",
    "measure_flexstep",
    "measure_nzdc_cycles",
    "LatencyResult",
    "merge_latency_units",
    "PowerAreaModel",
    "PowerAreaPoint",
    "scalability_sweep",
    "format_fault_summary",
    "format_fig4",
    "format_fig6",
    "format_fig8",
    "format_table3",
]
