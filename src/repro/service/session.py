"""Query sessions: suspendable executions of one top-K query.

A :class:`QuerySession` wraps any resumable operator (the
:class:`~repro.core.stepping.ResumableOperator` contract) and advances it
in bounded *pull-quantum* steps: each :meth:`step` spends at most
``quantum`` pulls, appends any results that became provable, and returns —
leaving the operator suspended mid-query with all state retained.  The
cooperative :class:`~repro.service.scheduler.Scheduler` interleaves many
sessions by calling ``step`` on one session at a time.

Sessions move through a small state machine::

    PENDING ──step──> RUNNING ──┬──> DONE        (k results, output
            │                   │                 exhausted, or budget
            │                   │                 spent: partial answer)
            │                   ├──> FAILED      (operator raised)
            └───────cancel──────┴──> CANCELLED

A per-session *pull budget* caps total pulls; exhausting it ends the
session gracefully in ``DONE`` with ``budget_exhausted`` set and the
partial prefix available.  :meth:`answer` with ``strict=True`` converts
that partial answer into a :class:`~repro.errors.BudgetExhausted` error
for callers that need all-or-nothing semantics.
"""

from __future__ import annotations

import contextlib
import enum
import time
from typing import Any

from repro.core.stepping import PENDING
from repro.errors import BudgetExhausted

#: Default pulls per scheduling quantum: small enough that 20+ concurrent
#: sessions stay responsive, large enough to amortize dispatch overhead.
DEFAULT_QUANTUM = 64


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def check_budget(quantum, max_pulls) -> None:
    """Refuse a quantum or a pull budget no session can honour."""
    if not _is_int(quantum) or quantum < 1:
        raise ValueError(f"quantum must be an integer of at least 1 pull, got {quantum!r}")
    if max_pulls is not None and (not _is_int(max_pulls) or max_pulls < 0):
        raise ValueError(
            f"max_pulls must be None or a non-negative integer, got {max_pulls!r}")


class SessionState(enum.Enum):
    PENDING = "PENDING"
    RUNNING = "RUNNING"
    DONE = "DONE"
    CANCELLED = "CANCELLED"
    FAILED = "FAILED"


#: States a session can never leave.
TERMINAL_STATES = frozenset(
    {SessionState.DONE, SessionState.CANCELLED, SessionState.FAILED}
)


class QuerySession:
    """A suspendable execution of one top-K query.

    Parameters
    ----------
    session_id:
        Identifier assigned by the service (unique per scheduler).
    operator:
        A resumable operator (``try_next``/``pulls``).  May already carry
        retained state — cache prefix-extension hands a continued operator
        plus its previously-emitted ``preloaded`` results.
    k:
        Results requested; the session completes as soon as it holds ``k``.
    quantum:
        Maximum pulls per :meth:`step`.
    max_pulls:
        Optional budget on pulls *charged to this session* (continuations
        are not billed for pulls a previous session already spent).
    preloaded:
        Results already known for this query's prefix (cache reuse).
    """

    def __init__(
        self,
        session_id: str,
        operator: Any,
        k: int,
        *,
        quantum: int = DEFAULT_QUANTUM,
        max_pulls: int | None = None,
        priority: int = 0,
        deadline: float | None = None,
        preloaded: list | None = None,
        cache_key: str | None = None,
        label: str = "",
        tenant: str = "anonymous",
        trace=None,
        clock=time.perf_counter,
    ) -> None:
        check_budget(quantum, max_pulls)
        self.session_id = session_id
        #: Optional :class:`~repro.obs.TraceContext` — the session span
        #: of this query's trace tree; the scheduler emits the timed
        #: span record when the session retires.
        self.trace = trace
        self.operator = operator
        self.k = k
        self.quantum = quantum
        self.max_pulls = max_pulls
        self.priority = priority
        self.deadline = deadline
        self.cache_key = cache_key
        self.label = label
        #: Client id this session is billed to (per-tenant quotas).
        self.tenant = tenant
        self.results: list = list(preloaded) if preloaded else []
        self.state = SessionState.PENDING
        self.error: str | None = None
        self.budget_exhausted = False
        self.deadline_exceeded = False
        self.exhausted = False  # operator output fully enumerated
        self.from_cache = False  # answered without touching the operator
        self._clock = clock
        self.submitted_at = clock()
        #: Release moment of each result, aligned with :attr:`results` —
        #: the clock reading at which the merge gate (or the serial
        #: operator's ``try_next``) proved that result safe to emit.
        #: Preloaded (cache-reused) results are stamped at submission:
        #: they were releasable before the session even started.
        self.released_at: list[float] = [self.submitted_at] * len(self.results)
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self._pulls_at_attach = operator.pulls if operator is not None else 0
        #: What :attr:`pulls` and :meth:`depths` answer once the operator
        #: is gone (:meth:`release_operator`, or a cache hit's None).
        self._final_pulls = 0
        self._final_depths: list[int] = []
        self.steps = 0

    # ------------------------------------------------------------------
    # State predicates
    # ------------------------------------------------------------------
    @property
    def live(self) -> bool:
        return self.state not in TERMINAL_STATES

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def pulls(self) -> int:
        """Pulls charged to this session (excludes inherited prefix work)."""
        if self.operator is None:
            return self._final_pulls
        return self.operator.pulls - self._pulls_at_attach

    @property
    def remaining_budget(self) -> int | None:
        if self.max_pulls is None:
            return None
        return max(0, self.max_pulls - self.pulls)

    @property
    def latency(self) -> float | None:
        """Submit-to-finish wall time, once finished."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at

    @property
    def time_to_first(self) -> float | None:
        """Submit-to-first-released-result wall time (None before then).

        The anytime metric streaming serves: a client riding the
        ``stream`` verb sees the first result after this long, not after
        :attr:`latency`.
        """
        if not self.released_at:
            return None
        return max(0.0, self.released_at[0] - self.submitted_at)

    def bound_gap(self) -> float:
        """Distance from proving the next result: bound minus best buffered.

        Smaller means the next emit is closer; sessions with no buffered
        candidate report ``inf``.  Used by the shortest-remaining-bound-gap
        scheduling policy; every resumable operator answers ``best_buffered``.
        """
        operator = self.operator
        best = float("-inf") if operator is None else operator.best_buffered()
        if best == float("-inf"):
            return float("inf")
        return max(0.0, operator.bound_value - best)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Advance by one pull quantum; True if the session progressed.

        Terminal sessions return False immediately.  A live session spends
        at most ``min(quantum, remaining budget)`` pulls; results that
        became provable are appended to :attr:`results`.  The session
        transitions to a terminal state when it holds ``k`` results, the
        operator output is exhausted, the budget is spent, or the operator
        raises.
        """
        if self.done:
            return False
        if self.state is SessionState.PENDING:
            self.state = SessionState.RUNNING
            self.started_at = self._clock()
        self.steps += 1
        if len(self.results) >= self.k:
            self._finish(SessionState.DONE)
            return True
        budget = self.remaining_budget
        quantum = self.quantum if budget is None else min(self.quantum, budget)
        spent_here = 0
        while len(self.results) < self.k:
            before = self.operator.pulls
            try:
                outcome = self.operator.try_next(max_pulls=quantum - spent_here)
            except Exception as exc:  # noqa: BLE001 - session isolates faults
                self.error = f"{type(exc).__name__}: {exc}"
                self._finish(SessionState.FAILED)
                return True
            spent_here += self.operator.pulls - before
            if outcome is PENDING:
                # No further result is provable within this quantum.  If the
                # whole budget is now spent, nothing will ever be provable:
                # end gracefully with the partial answer.
                if self.remaining_budget == 0:
                    self.budget_exhausted = True
                    self._finish(SessionState.DONE)
                return True
            if outcome is None:
                self.exhausted = True
                self._finish(SessionState.DONE)
                return True
            self.results.append(outcome)
            self.released_at.append(self._clock())
            if spent_here >= quantum:
                break
        if len(self.results) >= self.k:
            self._finish(SessionState.DONE)
        return True

    def run_to_completion(self) -> "QuerySession":
        """Step until terminal (serial execution helper for tests/tools)."""
        while self.live:
            self.step()
        return self

    def cancel(self) -> bool:
        """Cancel a live session; False if it already ended."""
        if self.done:
            return False
        self._finish(SessionState.CANCELLED)
        return True

    def check_deadline(self) -> bool:
        """Expire the session if its deadline has passed; True if it did.

        ``deadline`` is relative seconds from submission.  An expired
        session ends gracefully in ``DONE`` with whatever prefix it has —
        a deadline asks for the best answer available *by* a time, which
        is exactly what the resumable prefix is.
        """
        if self.done or self.deadline is None:
            return False
        if self._clock() - self.submitted_at < self.deadline:
            return False
        self.deadline_exceeded = True
        self._finish(SessionState.DONE)
        return True

    def _finish(self, state: SessionState) -> None:
        self.state = state
        self.finished_at = self._clock()

    def release_operator(self) -> None:
        """Freeze :attr:`pulls` and :meth:`depths` and let the operator go.

        The scheduler calls this once a finished session's operator has
        been offered to the cache: the session keeps its answer and its
        final numbers, while the operator — and everything it buffered —
        is the cache's to keep, extend under a later session, or free.
        """
        self._final_pulls = self.pulls
        # The isolation step() gives try_next: a FAILED session's operator
        # may not answer, and raising here would end the scheduler driver.
        with contextlib.suppress(Exception):
            self._final_depths = self.depths()
        self.operator = None

    # ------------------------------------------------------------------
    # Results access
    # ------------------------------------------------------------------
    def answer(self, *, strict: bool = False) -> list:
        """The results accumulated so far (the full top-K once DONE).

        With ``strict=True``, a budget-exhausted partial answer raises
        :class:`~repro.errors.BudgetExhausted` instead of returning
        silently short.
        """
        if strict and self.budget_exhausted and len(self.results) < self.k:
            raise BudgetExhausted(len(self.results), self.k, self.max_pulls or 0)
        return self.results[: self.k]

    def depths(self) -> list[int]:
        """Per-input depths of the underlying operator."""
        operator = self.operator
        return self._final_depths if operator is None else operator.depths()

    def snapshot(self) -> dict:
        """A JSON-friendly view of the session (the ``poll`` payload)."""
        return {
            "session": self.session_id,
            "state": self.state.value,
            "label": self.label,
            "k": self.k,
            "results": len(self.results),
            "scores": [round(r.score, 6) for r in self.results[: self.k]],
            "pulls": self.pulls,
            "depths": self.depths(),
            "steps": self.steps,
            "complete": len(self.results) >= self.k or self.exhausted,
            "budget_exhausted": self.budget_exhausted,
            "deadline_exceeded": self.deadline_exceeded,
            "from_cache": self.from_cache,
            "error": self.error,
            "latency": self.latency,
            "first_result_latency": self.time_to_first,
            "tenant": self.tenant,
            "trace": self.trace.trace_id if self.trace is not None else None,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuerySession({self.session_id!r}, state={self.state.value}, "
            f"results={len(self.results)}/{self.k}, pulls={self.pulls})"
        )
