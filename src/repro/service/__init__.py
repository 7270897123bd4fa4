"""Resident campaign service: daemon, job table and protocol client.

``python -m repro serve`` keeps one process — warm worker pool, shared
result cache, structured event stream — resident across many scenario
runs, so a sweep campaign pays process spin-up and cache discovery
once instead of per invocation.  See :mod:`repro.service.daemon` for
the wire protocol and :mod:`repro.service.client` for the client used
by ``python -m repro submit``.
"""

from .client import ServiceClient, ServiceUnavailable
from .daemon import SERVICE_MANIFEST_KEY, ReproService, ServiceError
from .jobs import Job, JobTable

__all__ = [
    "Job",
    "JobTable",
    "ReproService",
    "SERVICE_MANIFEST_KEY",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailable",
]
