"""The resumable execution contract for incremental rank join operators.

PBRJ-family operators are naturally incremental: every ``get_next`` call
performs some number of pulls and either emits one result or proves the
output exhausted.  Cooperative multi-query execution (:mod:`repro.service`)
needs a *bounded* version of that step — advance by at most ``n`` pulls,
then yield control with all operator state retained.  This module defines
the shared vocabulary:

* :data:`PENDING` — the sentinel an operator returns from ``try_next``
  when its pull quantum elapsed before a result could be emitted.  The
  caller is expected to call ``try_next`` again later; no state is lost.
* :class:`ResumableOperator` — the structural protocol the service layer
  programs against.
* :class:`ResumableBase` — the history-retaining half of that protocol
  (``get_next`` / ``top_k`` / ``__iter__`` / ``emitted_results``), written
  once.  :class:`~repro.core.pbrj.PBRJ` (over any chain),
  :class:`~repro.anyk.engine.AnyKRankJoin` and the sharded engine inherit
  it and supply ``try_next``.

The contract in one table, for a call ``op.try_next(max_pulls=n)``:

=============  ====================================================
return value   meaning
=============  ====================================================
a result       the next join result in decreasing score order
``None``       the output is exhausted (terminal; calls stay None)
``PENDING``    ``n`` pulls were spent without reaching an emit;
               call again to continue exactly where it stopped
=============  ====================================================

``try_next(max_pulls=None)`` is equivalent to ``get_next()`` and never
returns :data:`PENDING`.  ``try_next(max_pulls=0)`` performs no pulls but
still emits a result if one is already provable from buffered state —
useful for draining an operator whose pull budget is spent.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Any, Protocol, runtime_checkable


class _Pending:
    """Singleton sentinel: the pull quantum elapsed, call again later."""

    __slots__ = ()
    _instance: "_Pending | None" = None

    def __new__(cls) -> "_Pending":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "PENDING"

    def __bool__(self) -> bool:
        # PENDING is falsy so ``while (r := op.try_next(q)):`` loops read
        # naturally; distinguish from None with ``r is PENDING``.
        return False


#: The quantum-elapsed sentinel returned by ``try_next``.
PENDING = _Pending()


@runtime_checkable
class ResumableOperator(Protocol):
    """Structural interface of a suspendable rank join operator."""

    def try_next(self, max_pulls: int | None = None) -> Any:
        """Advance by at most ``max_pulls`` pulls; result, None, or PENDING."""

    def get_next(self) -> Any:
        """Unbounded step: next result or None (never PENDING)."""

    def top_k(self, k: int) -> list:
        """The first ``k`` results overall (resumable prefix semantics)."""

    @property
    def pulls(self) -> int:
        """Total tuples pulled so far across all calls."""


class ResumableBase:
    """The history-retaining scaffold every resumable operator inherits.

    A subclass implements ``try_next(max_pulls)`` and ``pulls``, and appends
    each result it emits to ``self._history``; everything that only *reads*
    the retained prefix is defined here, once.
    """

    def __init__(self) -> None:
        self._history: list = []

    def try_next(self, max_pulls: int | None = None) -> Any:
        raise NotImplementedError

    def get_next(self) -> Any:
        """The next result in decreasing score order, or ``None`` at the end."""
        result = self.try_next(None)
        assert result is not PENDING
        return result

    def __iter__(self) -> Iterator:
        while True:
            result = self.get_next()
            if result is None:
                return
            yield result

    def top_k(self, k: int) -> list:
        """The first ``k`` results overall, in decreasing score order.

        Resumable: emitted results are retained, so after ``top_k(k)`` a
        later ``top_k(k + m)`` continues from the retained operator state
        instead of restarting — only the ``m`` extra results cost new
        work.  ``top_k(k')`` for ``k' <= k`` is answered from the retained
        prefix with zero pulls.  May return fewer than ``k`` results if the
        join output is smaller.
        """
        while len(self._history) < k:
            if self.get_next() is None:
                break
        return self._history[:k]

    @property
    def emitted_results(self) -> list:
        """All results emitted so far (the retained resumable prefix)."""
        return self._history
