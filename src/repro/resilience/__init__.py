"""Request-level fault injection and the chaos harness.

The paper's robustness is algorithmic (instance-optimal pull depths);
what can fail around it is the network edge.  This package holds the
injector for that edge and the harness that proves the server rides it:

* :mod:`repro.resilience.faults` — :class:`RequestChaos`, a seeded
  injector of retryable errors and delays on the server's request loop
  (``serve --chaos-*``), behind a no-op default;
* :mod:`repro.resilience.chaos` — the harness behind ``python -m repro
  chaos``: each seed workload streamed off a server under seeded request
  chaos must stay bit-identical to the fault-free run.

The other half of riding a fault is the client's: retry with the server's
``retry_after`` hint and stream-cursor resume live in
:mod:`repro.service.client`.
"""

from repro.resilience.chaos import (
    SEED_WORKLOADS,
    ChaosCase,
    render_report,
    run_chaos_suite,
    seed_instance,
    stream_chaos_run,
)
from repro.resilience.faults import RequestChaos

__all__ = [
    "ChaosCase",
    "RequestChaos",
    "SEED_WORKLOADS",
    "render_report",
    "run_chaos_suite",
    "seed_instance",
    "stream_chaos_run",
]
