"""Suite-wide kernel routing tables.

The two bulk kernel ops take their numpy form from a size threshold up
(:mod:`repro.kernels.dispatch`).  A test forces one form everywhere by
installing a whole table for the duration of a ``with kernel_table(name)``
block; the table that was live before comes back on exit.
"""

from contextlib import contextmanager

from repro import kernels
from repro.kernels.dispatch import NEVER, SHIPPED
from repro.obs.metrics import MetricRegistry

#: name -> threshold overrides: ``auto`` the shipped table, ``python``
#: every call on the loop, ``numpy`` every call on numpy.
KERNEL_TABLES = {
    "auto": {},
    "python": {op: {"numpy": NEVER} for op in SHIPPED},
    "numpy": {op: {"numpy": 0} for op in SHIPPED},
}


@contextmanager
def kernel_table(name):
    previous = kernels.dispatch_thresholds()
    kernels.set_thresholds(KERNEL_TABLES[name])
    try:
        yield
    finally:
        kernels.set_thresholds(previous)


def numpy_calls(call) -> int:
    """``kernel="numpy"`` calls ``call()`` makes under the all-numpy table:
    0 proves the code under test reaches no two-form op."""
    metrics = MetricRegistry()
    kernels.observe(metrics)
    try:
        with kernel_table("numpy"):
            call()
    finally:
        kernels.unobserve()
    return sum(
        counter.value
        for _, labels, counter in metrics.metrics_named("kernel_calls_total")
        if labels["kernel"] == "numpy"
    )
