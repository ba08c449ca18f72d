"""Property test: the merge gate stays closed over unknown frontiers.

The resilience invariant leans entirely on one property of
:class:`~repro.exec.merge.GlobalTopKMerger`: a candidate is released only
when **every** live shard's frontier lies strictly below it.  A shard
that is mid-respawn contributes no new outcome, so its frontier is
*unknown* — the gate must keep using the most conservative information it
has (``+inf`` before the shard ever reported, its last reported frontier
after), and never release a candidate such a shard could still beat or
tie.  Hypothesis drives randomized offer/silence schedules against that
invariant.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pbrj import SCORE_EPS
from repro.core.tuples import JoinResult, RankTuple
from repro.exec.merge import GlobalTopKMerger
from repro.exec.worker import AdvanceOutcome


def make_result(score: float, tag: int) -> JoinResult:
    half = score / 2.0
    return JoinResult.combine(
        (RankTuple(key=tag, scores=(half,)), RankTuple(key=tag, scores=(score - half,))),
        score,
    )


def make_outcome(shard: int, scores, frontier: float,
                 exhausted: bool = False) -> AdvanceOutcome:
    return AdvanceOutcome(
        shard=shard,
        results=tuple(make_result(s, i) for i, s in enumerate(scores)),
        pulls=max(1, len(scores)),
        depths=(1, 1),
        frontier=frontier,
        exhausted=exhausted,
    )


scores_strategy = st.lists(
    st.floats(min_value=0.0, max_value=100.0,
              allow_nan=False, allow_infinity=False),
    min_size=0, max_size=5,
)


@settings(max_examples=150, deadline=None)
@given(
    n_shards=st.integers(min_value=2, max_value=5),
    data=st.data(),
)
def test_gate_never_releases_over_an_unknown_frontier(n_shards, data):
    merger = GlobalTopKMerger(list(range(n_shards)))
    # A non-empty subset of shards is "respawning": they never report
    # this round, so their frontier is unknown (still +inf).
    silent = data.draw(
        st.sets(st.integers(0, n_shards - 1), min_size=1, max_size=n_shards),
        label="silent shards",
    )
    for shard in range(n_shards):
        if shard in silent:
            continue
        scores = data.draw(scores_strategy, label=f"scores[{shard}]")
        frontier = data.draw(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            label=f"frontier[{shard}]",
        )
        merger.offer(make_outcome(shard, scores, frontier))
    # Shards that never reported keep frontier = +inf, which dominates
    # every finite candidate: nothing may be released.
    assert merger.pop_ready() is None
    # And every silent shard is required to advance before anything can.
    if merger.pending_candidates:
        assert silent <= set(merger.blocking_shards())


@settings(max_examples=150, deadline=None)
@given(
    n_shards=st.integers(min_value=2, max_value=4),
    data=st.data(),
)
def test_every_release_clears_all_live_frontiers(n_shards, data):
    """Any result the gate does release beats every live frontier."""
    merger = GlobalTopKMerger(list(range(n_shards)))
    rounds = data.draw(st.integers(min_value=1, max_value=4), label="rounds")
    frontiers: dict[int, float] = {}
    for _ in range(rounds):
        for shard in range(n_shards):
            if data.draw(st.booleans(), label=f"advance[{shard}]"):
                scores = data.draw(scores_strategy, label=f"scores[{shard}]")
                new_frontier = data.draw(
                    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                    label=f"frontier[{shard}]",
                )
                # Frontiers are non-increasing in a real run.
                frontier = min(new_frontier, frontiers.get(shard, float("inf")))
                frontiers[shard] = frontier
                merger.offer(make_outcome(shard, scores, frontier))
        while (released := merger.pop_ready()) is not None:
            for shard in range(n_shards):
                if shard not in frontiers:
                    raise AssertionError(
                        f"released score {released.score} while shard {shard} "
                        f"never reported a frontier"
                    )
            live = [
                merger.frontier_of(s) for s in merger.live_shards
            ]
            assert all(f < released.score - SCORE_EPS for f in live), (
                f"released {released.score} although a live frontier "
                f"{max(live)} could still beat or tie it"
            )


def test_last_known_frontier_guards_a_respawning_shard():
    """Mid-respawn, a shard's last reported frontier still gates releases."""
    merger = GlobalTopKMerger([0, 1])
    # Shard 1 reported frontier 50.0, then died; it is respawning and
    # contributes nothing further this round.
    merger.offer(make_outcome(1, [], 50.0))
    # Shard 0 produces a candidate below that stale frontier.
    merger.offer(make_outcome(0, [49.0], 10.0))
    assert merger.pop_ready() is None  # shard 1 could still beat 49.0
    assert merger.blocking_shards() == [1]
    # The respawned shard 1 re-reports (replay gives the same state it
    # died with, then progresses past the candidate).
    merger.offer(make_outcome(1, [], 40.0))
    released = merger.pop_ready()
    assert released is not None and released.score == 49.0
