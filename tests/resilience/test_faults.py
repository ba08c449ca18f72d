"""Unit tests for the request-level fault injector."""

from __future__ import annotations

import pytest

from repro.resilience import RequestChaos


class TestRequestChaos:
    def test_zero_rates_are_a_strict_noop(self):
        chaos = RequestChaos(seed=0)
        for _ in range(50):
            assert chaos.intercept({"verb": "submit"}) is None
        assert chaos.injected_errors == 0

    def test_error_injection_is_retryable_and_seeded(self):
        a = RequestChaos(seed=1, error_rate=0.5, sleep=lambda _: None)
        b = RequestChaos(seed=1, error_rate=0.5, sleep=lambda _: None)
        responses_a = [a.intercept({"verb": "poll"}) for _ in range(40)]
        responses_b = [b.intercept({"verb": "poll"}) for _ in range(40)]
        assert responses_a == responses_b
        injected = [r for r in responses_a if r is not None]
        assert injected and a.injected_errors == len(injected)
        assert all(r["retryable"] and not r["ok"] for r in injected)

    def test_only_configured_verbs_are_intercepted(self):
        chaos = RequestChaos(seed=0, error_rate=1.0)
        assert chaos.intercept({"verb": "shutdown"}) is None
        assert chaos.intercept({"verb": "submit"}) is not None

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            RequestChaos(error_rate=1.5)
