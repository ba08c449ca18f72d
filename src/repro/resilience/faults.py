"""Seeded request-level fault injection for the server loop.

The faults that can still occur in this system live at its sockets: a
request answered with a transient error, a reply that arrives late, a
stream cut mid-way.  :class:`RequestChaos` injects exactly those, from a
seeded RNG so a run replays identically, behind a no-op default.
"""

from __future__ import annotations

import random
import time

from repro.service import wire


class RequestChaos:
    """Seeded request-level chaos for the server loop.

    Installed on :class:`~repro.service.server.RankJoinServer` via its
    ``chaos`` parameter (default ``None`` — a strict no-op).  Each
    intercepted request may, with seeded probability, be answered with a
    retryable transient error or delayed briefly before normal handling.
    Responses carry ``"retryable": true`` so clients can distinguish
    injected turbulence from real errors.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        error_rate: float = 0.0,
        delay_rate: float = 0.0,
        delay: float = 0.002,
        verbs: tuple[str, ...] = ("submit", "poll"),
        sleep=time.sleep,
    ) -> None:
        if not 0.0 <= error_rate <= 1.0 or not 0.0 <= delay_rate <= 1.0:
            raise ValueError("error_rate and delay_rate must be in [0, 1]")
        self._rng = random.Random(seed)
        self.error_rate = error_rate
        self.delay_rate = delay_rate
        self.delay = delay
        self.verbs = tuple(verbs)
        self._sleep = sleep
        self.injected_errors = 0
        self.injected_delays = 0

    def intercept(self, request: dict) -> dict | None:
        """An injected error response, or None to handle the request normally."""
        if request.get("verb") not in self.verbs:
            return None
        draw = self._rng.random()
        if draw < self.error_rate:
            self.injected_errors += 1
            return wire.injected_fault()
        if draw < self.error_rate + self.delay_rate:
            self.injected_delays += 1
            self._sleep(self.delay)
        return None
