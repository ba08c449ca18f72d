"""The one query description, and its canonical fingerprint.

A :class:`QuerySpec` is everything needed to evaluate one top-K rank join:
the input relations (two for the binary PBRJ family, more for a chain),
the monotone scoring function, the requested ``k``, and the operator to
run.  The paper's motivating ranking query over a chain of
equi-joins, ``RANK BY w1*R1.s + w2*R2.s + … LIMIT K``, is
``QuerySpec(relations, K, WeightedSum(weights), join_attrs=…)``.  Specs are
the unit of admission into the :class:`~repro.service.service.QueryService`
and the source of the :class:`~repro.service.cache.ResultCache` key.

The cache key deliberately **excludes** ``k``: two queries that differ only
in ``k`` share one cache entry, because a retained top-K prefix answers any
``k' <= k`` request directly; a ``k' > k`` request computes afresh.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from repro.core.operators import (
    ALGORITHMS,
    ANYK_OPERATOR,
    OPERATORS,
    make_operator,
    multiway_rank_join,
)
from repro.core.scoring import ScoringFunction, SumScore, scoring_fingerprint
from repro.errors import InstanceError
from repro.relation.relation import RankJoinInstance, Relation


@dataclass(frozen=True)
class QuerySpec:
    """One top-K rank join query over shared relations.

    A spec carries no kernel form: that is the process-wide threshold
    table's (:mod:`repro.kernels.dispatch`), and the two forms of a kernel
    op are bit-identical by contract, so a cached answer is valid
    whatever form computed it.

    Parameters
    ----------
    relations:
        Two relations for a binary join on the tuple key, or ``n >= 3``
        relations joined along a chain of payload attributes.
    k:
        Number of results requested.
    scoring:
        Monotone aggregate (default :class:`~repro.core.scoring.SumScore`).
    operator:
        Registry name from :data:`~repro.core.operators.OPERATORS`
        (default ``"FRPA"``), checked for every arity; binary joins run it,
        multiway queries always run the multiway HRJN*-style operator.
        Ignored when ``algorithm`` is ``"anyk"``.
    algorithm:
        Evaluation core: ``"pbrj"`` (default, the paper's pull-bounded
        family), ``"anyk"`` (ranked enumeration, :mod:`repro.anyk`), or
        ``"auto"`` — let the cost-based planner (:mod:`repro.planner`)
        choose the core *and* the operator.  Fingerprint-namespaced, so
        cached answers never mix cores.
    join_attrs:
        Chain attributes for multiway queries (``len(relations) - 1``
        entries); must be empty for binary queries.
    """

    relations: tuple[Relation, ...]
    k: int
    scoring: ScoringFunction = field(default_factory=SumScore)
    operator: str = "FRPA"
    algorithm: str = "pbrj"
    join_attrs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "relations", tuple(self.relations))
        object.__setattr__(self, "join_attrs", tuple(self.join_attrs))
        if self.k < 1:
            raise InstanceError("K must be positive")
        if len(self.relations) < 2:
            raise InstanceError("a query needs at least two relations")
        if self.algorithm not in ALGORITHMS + ("auto",):
            raise InstanceError(
                f"unknown algorithm {self.algorithm!r}; "
                f"choose from {ALGORITHMS + ('auto',)}"
            )
        if self.algorithm in ("pbrj", "auto") and self.operator not in OPERATORS:
            raise InstanceError(
                f"unknown operator {self.operator!r}; "
                f"choose from {sorted(OPERATORS)}"
            )
        if len(self.relations) == 2:
            if self.join_attrs:
                raise InstanceError("binary queries join on the tuple key; "
                                    "join_attrs is for 3+ relations")
        elif len(self.join_attrs) != len(self.relations) - 1:
            raise InstanceError(
                f"need {len(self.relations) - 1} join attributes for "
                f"{len(self.relations)} relations, got {len(self.join_attrs)}"
            )

    @property
    def is_multiway(self) -> bool:
        return len(self.relations) > 2

    @property
    def is_auto(self) -> bool:
        """True when the planner is to choose the core and the operator."""
        return self.algorithm == "auto"

    @property
    def effective_operator(self) -> str:
        """The registry name the query actually runs under."""
        if self.algorithm == "auto":
            return "auto"
        return ANYK_OPERATOR if self.algorithm == "anyk" else self.operator

    # ------------------------------------------------------------------
    # Planner resolution
    # ------------------------------------------------------------------
    @property
    def decision(self):
        """The :class:`~repro.planner.PlanDecision` behind a resolved spec."""
        return getattr(self, "_decision", None)

    def resolve(self, *, obs=None, planner=None) -> "QuerySpec":
        """Pin the core and the operator via the cost-based planner.

        Returns ``self`` for static specs.  The resolution is memoized on
        the spec (the join count is content-addressed and the estimators
        seeded, so it is deterministic within a process) and the resulting
        spec carries the full :class:`PlanDecision` on :attr:`decision`
        for explainability.
        """
        if not self.is_auto:
            return self
        cached = getattr(self, "_resolved", None)
        if cached is not None:
            return cached
        from repro.planner import Planner

        if planner is None:
            planner = Planner(obs=obs)
        decision = planner.plan(
            list(self.relations),
            self.k,
            self.scoring,
            join_attrs=self.join_attrs,
        )
        resolved = replace(
            self,
            algorithm=decision.algorithm,
            operator=(
                decision.operator
                if decision.algorithm == "pbrj" and not self.is_multiway
                else self.operator
            ),
        )
        object.__setattr__(resolved, "_decision", decision)
        object.__setattr__(self, "_resolved", resolved)
        return resolved

    def plan_summary(self) -> str:
        """One-line label of the effective plan (for dashboards)."""
        if self.is_auto:
            return "auto (unresolved)"
        if self.decision is not None:
            return self.decision.summary()
        if self.is_multiway:
            return f"{self.algorithm}/multiway"
        return f"{self.algorithm}/{self.effective_operator}"

    def fingerprint(self) -> str:
        """Canonical cache key: relation content + scoring + plan shape.

        Excludes ``k`` (prefix reuse) but includes the operator name so a
        cached answer is byte-identical to what the same query would
        produce when run serially — operators agree on the top-K *set* but
        may order exact score ties differently.

        ``auto`` specs fingerprint as their planner-resolved spec, so an
        auto query and the equivalent static query share one cache entry
        (safe because auto execution is bit-identical to static execution
        of the same effective plan — test-enforced).
        """
        if self.is_auto:
            return self.resolve().fingerprint()
        digest = hashlib.sha256()
        for relation in self.relations:
            digest.update(relation.fingerprint().encode())
            digest.update(b";")
        digest.update(scoring_fingerprint(self.scoring).encode())
        digest.update(b";")
        digest.update(
            self.effective_operator.encode() if not self.is_multiway else b"multiway"
        )
        digest.update(b";")
        digest.update(",".join(self.join_attrs).encode())
        if self.algorithm != "pbrj":
            # Namespace non-default cores: any-k agrees with PBRJ on the
            # top-K set but the cache must never serve one core's exact
            # tie order as the other's.
            digest.update(f";algorithm={self.algorithm}".encode())
        return digest.hexdigest()

    def build_operator(self, *, obs=None):
        """A fresh resumable operator evaluating this query from scratch.

        ``auto`` specs are planner-resolved first.
        """
        if self.is_auto:
            return self.resolve(obs=obs).build_operator(obs=obs)
        if self.algorithm == "anyk":
            # Any-k needs no sorted scans; skip the instance's eager sort.
            from repro.anyk import AnyKQuery, AnyKRankJoin

            query = (
                AnyKQuery(self.relations, self.join_attrs)
                if self.is_multiway
                else AnyKQuery.binary(*self.relations)
            )
            return AnyKRankJoin(query, self.scoring, obs=obs)
        if self.is_multiway:
            return multiway_rank_join(
                list(self.relations),
                list(self.join_attrs),
                self.scoring,
                obs=obs,
            )
        instance = RankJoinInstance(
            self.relations[0], self.relations[1], self.scoring, self.k
        )
        return make_operator(self.operator, instance, obs=obs)

    def describe(self) -> str:
        names = " ⋈ ".join(r.name for r in self.relations)
        return f"{names} top-{self.k} via {self.effective_operator}"
