"""Pipelined physical plans of binary rank join operators (Section 6.2.3).

A plan for ``R1 ⋈ R2 ⋈ … ⋈ Rn`` is left-deep: the output of each binary
rank join feeds the left input of the next.  The crucial observation (from
the HRJN line of work) is that an inner operator's output order — decreasing
``S`` over the concatenated scores so far — *is* the decreasing-``S̄`` order
the outer operator requires, because for additive scoring
``S̄(τ) = S(b(τ)) + (#missing)``.  The plan therefore satisfies Definition
2.1 at every level and the whole pipeline is incremental: asking the top
operator for K results pulls only prefixes of every base relation.

:class:`OperatorSource` adapts a PBRJ operator into a
:class:`~repro.relation.sources.TupleSource`, re-keying each intermediate
result on the next join attribute carried in the tuple payloads.
"""

from __future__ import annotations

from repro.core.operators import make_components
from repro.core.pbrj import PBRJ
from repro.core.scoring import ScoringFunction, SumScore
from repro.core.tuples import JoinResult, RankTuple
from repro.errors import InstanceError
from repro.relation.cost import CostModel
from repro.relation.relation import Relation
from repro.relation.sources import SortedScan, TupleSource, sorted_access
from repro.stats.metrics import TimingBreakdown


class OperatorSource(TupleSource):
    """Adapts a rank join operator's output stream into a tuple source.

    Each :class:`~repro.core.tuples.JoinResult` becomes a
    :class:`~repro.core.tuples.RankTuple` whose score vector is the
    concatenated vector and whose key is drawn from the merged payloads
    (``key_attr``).  Exhaustion is discovered lazily — ``has_next`` stays
    optimistic so the outer operator never forces speculative work on the
    inner one.
    """

    def __init__(
        self,
        operator: PBRJ,
        key_attr: str,
        dimension: int,
        *,
        cost_model: CostModel | None = None,
    ) -> None:
        super().__init__(dimension, cost_model or CostModel.free())
        self.operator = operator
        self.key_attr = key_attr
        self._done = False

    def has_next(self) -> bool:
        return not self._done

    def _advance(self) -> RankTuple:  # pragma: no cover - next() overridden
        raise AssertionError("OperatorSource overrides next()")

    def next(self) -> RankTuple | None:
        if self._done:
            return None
        result = self.operator.get_next()
        if result is None:
            self._done = True
            return None
        self.stats.charge(self.cost_model)
        return self._wrap(result)

    def _wrap(self, result: JoinResult) -> RankTuple:
        payload = result.merged_payload()
        if self.key_attr not in payload:
            raise InstanceError(
                f"intermediate result lacks join attribute {self.key_attr!r}; "
                f"available: {sorted(payload)}"
            )
        return RankTuple(
            key=payload[self.key_attr], scores=result.scores, payload=payload
        )


class Pipeline:
    """A left-deep pipeline of binary rank join operators.

    Parameters
    ----------
    relations:
        The base relations in join order; each must already be keyed
        (via :meth:`repro.data.tpch.Table.to_relation`) on its join
        attribute with the *previous* plan step.
    rekey_attrs:
        For each intermediate result level ``j`` (0-based, between join
        ``j`` and join ``j+1``), the payload attribute to key the
        intermediate tuples on — length ``len(relations) - 2``.
    operator:
        Operator name from :data:`repro.core.operators.OPERATORS`; every
        stage uses the same type, as in the paper's experiments.
    scoring:
        Per-stage scoring must be dimension-agnostic and additive so the
        order-compatibility argument holds; the default (and the paper's
        choice) is :class:`~repro.core.scoring.SumScore`.
    obs:
        Optional :class:`~repro.obs.Observability` pipeline shared by all
        stages; each stage registers its own span tracer (labelled
        ``<operator>#<index>``) so per-stage timings stay separable.
    """

    def __init__(
        self,
        relations: list[Relation],
        rekey_attrs: list[str],
        *,
        operator: str = "a-FRPA",
        scoring: ScoringFunction | None = None,
        cost_model: CostModel | None = None,
        operator_kwargs: dict | None = None,
        obs=None,
    ) -> None:
        if len(relations) < 2:
            raise InstanceError("a pipeline needs at least two relations")
        if len(rekey_attrs) != len(relations) - 2:
            raise InstanceError(
                f"need {len(relations) - 2} rekey attributes for "
                f"{len(relations)} relations, got {len(rekey_attrs)}"
            )
        self.operator_name = operator
        self.scoring = scoring or SumScore()
        cost_model = cost_model or CostModel.clustered_index()
        operator_kwargs = operator_kwargs or {}

        self.base_scans: list[SortedScan] = [
            self._scan(rel, cost_model) for rel in relations
        ]
        self.stages: list[PBRJ] = []
        left: TupleSource = self.base_scans[0]
        for index in range(1, len(relations)):
            bound, strategy = make_components(operator, **operator_kwargs)
            stage = PBRJ(
                (left, self.base_scans[index]),
                self.scoring,
                bound,
                strategy,
                name=f"{operator}#{index}",
                obs=obs,
            )
            self.stages.append(stage)
            if index < len(relations) - 1:
                dimension = left.dimension + relations[index].dimension
                left = OperatorSource(stage, rekey_attrs[index - 1], dimension)
        self.top = self.stages[-1]

    def _scan(self, relation: Relation, cost_model: CostModel) -> SortedScan:
        """Scan a base relation in decreasing own score (≡ decreasing S̄);
        a stage's ``S̄`` depends on its partner, so none is carried."""
        rows, order, _ = sorted_access(
            self.scoring, (relation.dimension,), 0, relation
        )
        return SortedScan(rows, order=order, cost_model=cost_model)

    # ------------------------------------------------------------------
    def get_next(self) -> JoinResult | None:
        """Next result of the full n-way join in decreasing score order."""
        return self.top.get_next()

    def top_k(self, k: int) -> list[JoinResult]:
        return self.top.top_k(k)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def depths(self) -> list[int]:
        """Tuples pulled from each base relation, in join order."""
        return [scan.depth for scan in self.base_scans]

    @property
    def sum_depths(self) -> int:
        """Total base-relation tuples pulled — the paper's plan I/O metric."""
        return sum(self.depths())

    @property
    def io_cost(self) -> float:
        """Total simulated I/O cost across base relations."""
        return sum(scan.cost for scan in self.base_scans)

    def timing(self) -> TimingBreakdown:
        """Pipeline-level breakdown.

        The top stage's ``total`` already encloses all nested work.  Bound
        time sums across stages; base I/O is the innermost stage's I/O plus
        each outer stage's I/O with the enclosed inner-stage total removed.
        """
        total = self.stages[-1].timing().total
        bound = sum(stage.timing().bound for stage in self.stages)
        io = self.stages[0].timing().io
        for index in range(1, len(self.stages)):
            outer_io = self.stages[index].timing().io
            inner_total = self.stages[index - 1].timing().total
            io += max(outer_io - inner_total, 0.0)
        return TimingBreakdown(io=io, bound=bound, total=total)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Pipeline({self.operator_name}, stages={len(self.stages)}, "
            f"sumDepths={self.sum_depths})"
        )
