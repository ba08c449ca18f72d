"""Shared fixtures for the service-layer tests: small deterministic queries."""

from __future__ import annotations

import threading
from types import SimpleNamespace

import pytest

from repro.core.stepping import PENDING
from repro.data.workload import random_instance
from repro.service import QuerySpec


def make_instance(seed: int = 0, *, n: int = 300, num_keys: int = 30, k: int = 10):
    return random_instance(
        n_left=n, n_right=n, e_left=2, e_right=2,
        num_keys=num_keys, k=k, seed=seed,
    )


def make_spec(seed: int = 0, *, k: int = 10, operator: str = "FRPA", n: int = 300):
    instance = make_instance(seed, n=n, k=k)
    return QuerySpec(
        relations=(instance.left, instance.right), k=k, operator=operator
    )


@pytest.fixture
def spec():
    return make_spec()


def serial_answer(spec: QuerySpec):
    """Reference execution: a fresh operator run to top-k serially."""
    operator = spec.build_operator()
    results = operator.top_k(spec.k)
    return results, operator


class GatedOperator:
    """A resumable operator that proves nothing until ``open`` is set and
    is exhausted from then on.

    A session over one stays live for exactly as long as a test needs —
    no clock, no sleep: hand it to ``service.admit`` *before* the
    server thread starts (the facade is single-threaded), give it
    ``preloaded=[RELEASED]`` so that a ``stream`` on it replays one event
    at once (the client's proof that its handler is attached), then open
    the gate, cancel it, or move its clock.
    """

    pulls = 0

    def __init__(self) -> None:
        self.open = threading.Event()

    def try_next(self, max_pulls=None):
        return None if self.open.is_set() else PENDING

    def depths(self):
        return [0, 0]


#: Stands in for a result released before the stream attached.
RELEASED = SimpleNamespace(score=0.5)
