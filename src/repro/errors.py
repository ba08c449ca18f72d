"""Exception hierarchy for the repro library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class NotSortedError(ReproError):
    """An input violated the decreasing-``S̄`` access-order requirement."""


class InstanceError(ReproError):
    """A rank join instance is malformed (e.g. K exceeds the join size)."""


class WorkloadError(ReproError):
    """A workload description file is missing or malformed.

    Raised by :func:`repro.data.workload.load_workload`; the CLI turns it
    into a clean one-line error and a nonzero exit code.
    """


class QuotaExceeded(ReproError):
    """A tenant's token bucket is empty; the submission was rejected.

    Carries the admission-control backpressure hint: retrying before
    ``retry_after`` seconds have passed is guaranteed to be rejected
    again, so well-behaved clients should wait at least that long.  The
    server surfaces this as a ``retryable`` reject response with a
    ``retry_after`` field.
    """

    def __init__(self, tenant: str, retry_after: float) -> None:
        super().__init__(
            f"tenant {tenant!r} is over its admission quota; "
            f"retry after {retry_after:.3f}s"
        )
        self.tenant = tenant
        self.retry_after = retry_after


class BudgetExhausted(ReproError):
    """A query session spent its pull budget before completing its top-K.

    Operators take no budget: a run is bounded by stepping it, either with
    a ``try_next(max_pulls=q)`` quantum or with a session's ``max_pulls``,
    and both end gracefully.  The session ends with the partial answer it
    had accumulated, and this error is raised only when the caller
    explicitly demands a complete answer.
    """

    def __init__(self, produced: int, requested: int, budget: int) -> None:
        super().__init__(
            f"pull budget {budget} exhausted after {produced} of "
            f"{requested} results"
        )
        self.produced = produced
        self.requested = requested
        self.budget = budget
