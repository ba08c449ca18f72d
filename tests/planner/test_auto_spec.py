"""Auto-planned QuerySpec: resolution, fingerprints, bit-identity.

The acceptance property: an ``algorithm="auto"`` query must produce the
*bit-identical* result sequence (scores + tuple identities, in emission
order) of a static spec pinned to the same effective plan — and of the
plain serial operator, which is the global reference for every execution
mode in this codebase.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operators import make_operator
from repro.core.pbrj import result_identity
from repro.core.tuples import RankTuple
from repro.data.workload import random_instance
from repro.errors import InstanceError
from repro.obs import Observability
from repro.relation.relation import Relation
from repro.service.query import QuerySpec
from repro.service.service import QueryService


def auto_spec(instance, **overrides):
    kwargs = dict(
        relations=(instance.left, instance.right),
        k=instance.k,
        scoring=instance.scoring,
        algorithm="auto",
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
        assert resolved.decision is not None
        assert resolved.plan_summary() == resolved.decision.summary()

    def test_resolution_memoized(self):
        instance = random_instance(
            n_left=100, n_right=100, e_left=1, e_right=1,
            num_keys=10, k=5, seed=2,
        )
        spec = auto_spec(instance)
        assert spec.resolve() is spec.resolve()

    @pytest.mark.parametrize("algorithm", ["pbrj", "anyk", "auto"])
    def test_missing_chain_attribute_is_an_instance_error(self, algorithm):
        # Every core names the malformed query the same way, the planner
        # included: a client error, never an internal one.
        a, b, c = (Relation(name, [RankTuple(0, (0.5,), payload)]) for name, payload
                   in (("A", {"p": 0}), ("B", {"p": 0, "q": 0}), ("C", {"q": 0})))
        spec = QuerySpec((a, b, c), 1, algorithm=algorithm, join_attrs=("p", "zz"))
        with pytest.raises(InstanceError, match="'zz'"):
            spec.build_operator().top_k(1)

    def test_shards_auto_is_refused(self):
        # A spec has no shards field: any value, "auto" included, is refused.
        instance = random_instance(
            n_left=60, n_right=60, e_left=1, e_right=1,
            num_keys=6, k=3, seed=3,
        )
        with pytest.raises(TypeError, match="shards"):
            auto_spec(instance, shards="auto")


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
        # Static spec of the same effective plan.
        static = QuerySpec(
            relations=spec.relations,
            k=spec.k,
            scoring=spec.scoring,
            operator=resolved.operator,
            algorithm=resolved.algorithm,
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
            "planner_decisions_total", algorithm=decision.algorithm
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


class TestNeverSharded:
    """The four instances the parent planned as ``pbrj/HRJN* x8 hash/serial``
    (1.8–2.6× slower than HRJN* alone, EXPERIMENTS.md) stay unsharded —
    under ``algorithm="pbrj"`` planning and behind ``serve --algorithm auto``."""

    @pytest.mark.parametrize(
        "e, scale", [(1, 0.0005), (1, 0.002), (1, 0.008), (3, 0.0005)]
    )
    def test_pbrj_planning_and_serve_plan_auto(self, monkeypatch, e, scale):
        from repro.__main__ import main
        from repro.planner import Planner
        from repro.service import RankJoinServer, wire

        seen = {}

        def parse_one_submit(server):
            # In place of serving: what would a plain submit resolve to?
            server.ready.set()
            _, request = wire.validate({
                "verb": "submit", "left": "lineitem", "right": "orders", "k": 10,
            })
            seen["relations"] = server.relations
            seen["spec"] = server._parse_spec(request).resolve()

        monkeypatch.setattr(RankJoinServer, "run", parse_one_submit)
        assert main([
            "serve", "--algorithm", "auto", "--e", str(e), "--scale", str(scale),
        ]) == 0
        served = seen["spec"]
        assert not hasattr(served, "shards")
        assert served.plan_summary() == served.decision.summary()
        assert " x" not in served.plan_summary()

        relations = seen["relations"]
        decision = Planner().plan(
            [relations["lineitem"], relations["orders"]], 10, algorithm="pbrj"
        )
        assert decision.summary() == "pbrj/HRJN*"
        assert decision.shards == 1
