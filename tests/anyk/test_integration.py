"""Any-k behind the service layer, with zero changes to that layer.

The tentpole contract: ``QuerySpec(algorithm="anyk")`` routes the session,
scheduler and cache through :class:`AnyKRankJoin` exactly as they drive a
PBRJ operator — same budgets, namespaced cache keys — and the sharded
engine's workers run it with bit-identical answers.
"""

import pytest

from repro.anyk import AnyKRankJoin
from repro.core.operators import ANYK_OPERATOR, make_operator, operator_names
from repro.data.workload import random_instance
from repro.errors import InstanceError
from repro.exec import ExecConfig, ShardedRankJoin
from repro.relation.relation import RankJoinInstance
from repro.service import QuerySession, QuerySpec, SessionState


def make_spec(algorithm="anyk", n=80, k=8, **kwargs):
    instance = random_instance(
        n_left=n, n_right=n, e_left=1, e_right=1,
        num_keys=max(2, n // 10), k=k, seed=kwargs.pop("seed", 0),
    )
    return QuerySpec(
        relations=(instance.left, instance.right),
        k=k,
        algorithm=algorithm,
        **kwargs,
    )


class TestQuerySpec:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(InstanceError, match="unknown algorithm"):
            make_spec(algorithm="lawler")

    def test_anyk_spec_builds_an_anyk_operator(self):
        operator = make_spec().build_operator()
        assert isinstance(operator, AnyKRankJoin)

    def test_effective_operator(self):
        assert make_spec().effective_operator == ANYK_OPERATOR
        assert make_spec(algorithm="pbrj").effective_operator == "FRPA"

    def test_fingerprint_namespaces_the_core(self):
        anyk = make_spec()
        pbrj = make_spec(algorithm="pbrj")
        assert anyk.fingerprint() != pbrj.fingerprint()
        # ... and is stable for equal specs.
        assert anyk.fingerprint() == make_spec().fingerprint()

    def test_pbrj_fingerprints_unchanged_by_the_new_field(self):
        # Default-algorithm specs must keep their pre-anyk digests: the
        # algorithm marker is only appended for non-default cores.
        explicit = make_spec(algorithm="pbrj")
        assert ";algorithm" not in explicit.describe()
        assert explicit.fingerprint() == make_spec(algorithm="pbrj").fingerprint()


class TestOperatorRegistry:
    def test_make_operator_resolves_anyk(self):
        instance = random_instance(
            n_left=30, n_right=30, e_left=1, e_right=1,
            num_keys=3, k=3, seed=0,
        )
        operator = make_operator(ANYK_OPERATOR, instance)
        assert isinstance(operator, AnyKRankJoin)
        assert ANYK_OPERATOR in operator_names()

    def test_unknown_name_lists_both_families(self):
        instance = random_instance(
            n_left=10, n_right=10, e_left=1, e_right=1,
            num_keys=2, k=1, seed=0,
        )
        with pytest.raises(KeyError, match="AnyK"):
            make_operator("NOPE", instance)


class TestQuerySession:
    def test_runs_to_completion_matching_serial(self):
        spec = make_spec(k=10)
        serial = [r.score for r in spec.build_operator().top_k(10)]
        session = QuerySession(
            "s-anyk", spec.build_operator(), spec.k, quantum=16
        ).run_to_completion()
        assert session.state is SessionState.DONE
        assert [r.score for r in session.answer()] == serial

    def test_each_step_spends_at_most_one_quantum_plus_a_tie_batch(self):
        # The documented any-k quantum contract: a step releases at most
        # one result and may overshoot the quantum only by the
        # (indivisible) successor pops of one tie batch; a step that
        # releases nothing and does not exhaust spends exactly the quantum.
        spec = make_spec(k=10, seed=3)
        session = QuerySession("s2", spec.build_operator(), spec.k, quantum=7)
        operator = session.operator

        def pops():
            return 0 if operator._enum is None else operator._enum.pops

        spends = []
        while session.live:
            before, released, popped = session.pulls, len(session.results), pops()
            session.step()
            spent, new = session.pulls - before, len(session.results) - released
            assert new <= 1 and spent <= 7 + (pops() - popped)
            assert new or spent == 7 or session.exhausted
            spends.append((spent, new))
        # The DP ran whole quanta before its first release.
        assert spends[:3] == [(7, 0)] * 3
        assert len(session.results) == session.k

    def test_pending_steps_make_progress(self):
        spec = make_spec(k=5, seed=1)
        session = QuerySession("s3", spec.build_operator(), spec.k, quantum=3)
        steps = 0
        while session.live:
            session.step()
            steps += 1
            assert steps < 100_000
        assert session.state is SessionState.DONE


class TestShardedBitIdentity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_sharded_equals_serial(self, shards):
        spec = make_spec(k=12, n=120, seed=5)
        serial = spec.build_operator().top_k(12)
        engine = ShardedRankJoin(
            RankJoinInstance(*spec.relations, spec.scoring, spec.k),
            ANYK_OPERATOR, config=ExecConfig(shards=shards),
        )
        results = engine.top_k(12)
        assert [r.score for r in results] == [r.score for r in serial]

    def test_sharded_spec_routes_anyk_to_workers(self):
        # A spec can no longer ask for shards; only the engine, built
        # directly, routes the any-k core to its workers.
        with pytest.raises(TypeError):
            make_spec(k=6, n=60, seed=2, shards=2)
        spec = make_spec(k=6, n=60, seed=2)
        engine = ShardedRankJoin(
            RankJoinInstance(*spec.relations, spec.scoring, spec.k),
            ANYK_OPERATOR, config=ExecConfig(shards=2),
        )
        results = engine.top_k(6)
        assert len(results) == 6
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)
