"""Tests for the exception hierarchy."""

import pytest

from repro.errors import (
    BudgetExhausted,
    InstanceError,
    NotSortedError,
    ReproError,
    WorkloadError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            NotSortedError("x"),
            InstanceError("x"),
            WorkloadError("x"),
            BudgetExhausted(1, 10, 5),
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert isinstance(exc, ReproError)

    def test_catchable_as_library_error(self):
        with pytest.raises(ReproError):
            raise BudgetExhausted(2, 10, 5)


class TestPayloads:
    def test_pull_budget_carries_counts(self):
        exc = BudgetExhausted(produced=3, requested=10, budget=12)
        assert (exc.produced, exc.requested, exc.budget) == (3, 10, 12)
        assert "12" in str(exc) and "3 of 10" in str(exc)
