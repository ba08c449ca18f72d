"""Auto-planned QuerySpec: resolution, fingerprints, bit-identity.

The acceptance property: an ``algorithm="auto", shards="auto"`` query
must produce the *bit-identical* result sequence (scores + tuple
identities, in emission order) of a static spec pinned to the same
effective plan — and of the plain serial operator, which is the global
reference for every execution mode in this codebase.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operators import make_operator
from repro.data.workload import random_instance
from repro.exec import result_identity
from repro.obs import Observability
from repro.service.query import QuerySpec
from repro.service.service import QueryService


def auto_spec(instance, **overrides):
    kwargs = dict(
        relations=(instance.left, instance.right),
        k=instance.k,
        scoring=instance.scoring,
        algorithm="auto",
        shards="auto",
    )
    kwargs.update(overrides)
    return QuerySpec(**kwargs)


def emission(results):
    return [(r.score, result_identity(r)) for r in results]


def run_spec(spec):
    operator = spec.build_operator()
    try:
        return emission(operator.top_k(spec.k))
    finally:
        close = getattr(operator, "close", None)
        if callable(close):
            close()


class TestResolution:
    def test_static_spec_resolves_to_itself(self):
        instance = random_instance(
            n_left=60, n_right=60, e_left=1, e_right=1,
            num_keys=6, k=3, seed=0,
        )
        spec = QuerySpec(
            relations=(instance.left, instance.right), k=3, operator="FRPA"
        )
        assert spec.resolve() is spec

    def test_auto_resolves_all_axes(self):
        instance = random_instance(
            n_left=200, n_right=200, e_left=2, e_right=2,
            num_keys=20, k=8, seed=1,
        )
        resolved = auto_spec(instance).resolve()
        assert resolved.algorithm in ("pbrj", "anyk")
        assert isinstance(resolved.shards, int)
        assert resolved.decision is not None
        assert resolved.plan_summary() == resolved.decision.summary()

    def test_resolution_memoized(self):
        instance = random_instance(
            n_left=100, n_right=100, e_left=1, e_right=1,
            num_keys=10, k=5, seed=2,
        )
        spec = auto_spec(instance)
        assert spec.resolve() is spec.resolve()

    def test_describe_marks_planned_specs(self):
        instance = random_instance(
            n_left=60, n_right=60, e_left=1, e_right=1,
            num_keys=6, k=3, seed=3,
        )
        assert "(planned)" in auto_spec(instance).describe()

    def test_pinned_algorithm_survives_auto_shards(self):
        instance = random_instance(
            n_left=150, n_right=150, e_left=2, e_right=2,
            num_keys=15, k=5, seed=4,
        )
        resolved = auto_spec(instance, algorithm="anyk").resolve()
        assert resolved.algorithm == "anyk"


class TestFingerprint:
    def test_auto_fingerprint_equals_resolved_static(self):
        instance = random_instance(
            n_left=150, n_right=150, e_left=2, e_right=2,
            num_keys=15, k=6, seed=5,
        )
        spec = auto_spec(instance)
        resolved = spec.resolve()
        static = QuerySpec(
            relations=spec.relations,
            k=spec.k,
            scoring=spec.scoring,
            operator=resolved.operator,
            algorithm=resolved.algorithm,
            shards=resolved.shards,
            partitioner=resolved.partitioner,
        )
        assert spec.fingerprint() == static.fingerprint()


class TestBitIdentity:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        num_keys=st.integers(min_value=4, max_value=40),
        k=st.integers(min_value=1, max_value=12),
    )
    def test_auto_equals_static_and_serial(self, seed, num_keys, k):
        instance = random_instance(
            n_left=150, n_right=150, e_left=2, e_right=2,
            num_keys=num_keys, k=k, seed=seed,
        )
        spec = auto_spec(instance)
        resolved = spec.resolve()
        auto_results = run_spec(spec)
        # Static spec of the same effective plan (no adaptive wrapper).
        static = QuerySpec(
            relations=spec.relations,
            k=spec.k,
            scoring=spec.scoring,
            operator=resolved.operator,
            algorithm=resolved.algorithm,
            shards=resolved.shards,
            partitioner=resolved.partitioner,
        )
        assert run_spec(static) == auto_results
        # Score agreement with the serial reference operator (identities
        # may differ on exact ties across cores, scores may not).
        serial = make_operator("HRJN*", instance)
        assert [s for s, _ in emission(serial.top_k(k))] == [
            s for s, _ in auto_results
        ]


class TestServiceIntegration:
    def test_submit_auto_spec(self):
        instance = random_instance(
            n_left=150, n_right=150, e_left=2, e_right=2,
            num_keys=15, k=5, seed=7,
        )
        service = QueryService(obs=Observability())
        spec = auto_spec(instance)
        results = service.run_query(spec)
        assert len(results) == 5
        # The decisions counter incremented through the service registry.
        decision = spec.resolve().decision
        assert service.obs.metrics.value(
            "planner_decisions_total",
            algorithm=decision.algorithm,
            shards=str(decision.shards),
        ) >= 1
        service.close()

    def test_session_brief_carries_plan(self):
        instance = random_instance(
            n_left=150, n_right=150, e_left=2, e_right=2,
            num_keys=15, k=5, seed=8,
        )
        service = QueryService(obs=Observability())
        session_id = service.submit(auto_spec(instance))
        briefs = {
            brief["session"]: brief
            for brief in service.stats()["sessions"]
        }
        assert briefs[session_id]["plan"] not in ("?", "auto (unresolved)")
        service.run_until_complete()
        service.close()
