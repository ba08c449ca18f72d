"""Named rank join operators as PBRJ instantiations.

Each operator the paper studies is one row of :data:`COMPONENTS` — a
bounding scheme and a pulling strategy plugged into the
:class:`~repro.core.pbrj.PBRJ` template.  The factories build an operator
from a :class:`~repro.relation.relation.RankJoinInstance` (fresh scans
every call, so repeated runs are independent).  :func:`multiway_rank_join`
builds the n-ary member over a chain of relations.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.core.afr_bound import AFRBound
from repro.core.bounds import BoundingScheme, CornerBound
from repro.core.corner import CornerRankJoin
from repro.core.feasible import FeasibleRankJoin
from repro.core.fr_bound import FRBound
from repro.core.frstar_bound import FRStarBound
from repro.core.pbrj import PBRJ
from repro.core.pulling import PotentialAdaptive, PullingStrategy, RoundRobin
from repro.core.scoring import ScoringFunction
from repro.obs import Observability
from repro.relation.cost import CostModel
from repro.relation.relation import RankJoinInstance, Relation
from repro.relation.sources import SortedScan, sorted_access

OperatorFactory = Callable[..., PBRJ]

#: The one statement of the six rows: name -> (bounding scheme factory,
#: pulling strategy factory, summary).  :data:`OPERATORS` and
#: :func:`make_components` are both read off it.
COMPONENTS: dict[str, tuple[Callable[..., BoundingScheme], Callable, str]] = {
    "HRJN": (CornerBound, RoundRobin,
             "HRJN: corner bound + round-robin pulling (Ilyas et al.)."),
    "HRJN*": (CornerBound, PotentialAdaptive,
              "HRJN*: corner bound + threshold-adaptive pulling (Ilyas et al.)."),
    "PBRJ_FR^RR": (FRBound, RoundRobin,
                   "PBRJ_FR^RR: exact FR bound + round-robin (Schnaitter & Polyzotis)."),
    "FRPA": (FRStarBound, PotentialAdaptive,
             "FRPA: FR* bound + potential-adaptive pulling (this paper, Section 4)."),
    "FRPA_RR": (FRStarBound, RoundRobin,
                "FR* bound + round-robin: isolates the PA strategy's contribution."),
    "a-FRPA": (AFRBound, PotentialAdaptive,
               "a-FRPA: adaptive feasible-region bound + PA (this paper, Section 5); "
               "takes ``max_cr_size``, ``resolution`` and ``cover_strategy``."),
}

#: Factory keywords that tune the bounding scheme (a-FRPA's cover budget);
#: every other keyword is :func:`build`'s.
BOUND_OPTIONS = ("max_cr_size", "resolution", "cover_strategy")


def build(
    instance: RankJoinInstance,
    bound: BoundingScheme,
    strategy: PullingStrategy,
    *,
    name: str,
    **pbrj_options,
) -> PBRJ:
    """Assemble a PBRJ operator over fresh scans of ``instance``.

    ``pbrj_options`` are :class:`~repro.core.pbrj.PBRJ`'s own keywords
    (``trace``, ``obs``), stated and defaulted there.
    """
    return PBRJ(
        instance.scans(), instance.scoring, bound, strategy, name=name, **pbrj_options
    )


def multiway_rank_join(
    relations: Sequence[Relation],
    join_attrs: Sequence[str],
    scoring: ScoringFunction,
    *,
    cost_model: CostModel | None = None,
    bound: BoundingScheme | None = None,
    name: str = "MW-HRJN*",
    obs: "Observability | None" = None,
) -> PBRJ:
    """The chain ``R_1 ⋈_{a_1} R_2 ⋈ … ⋈_{a_{n-1}} R_n`` under PA pulling
    and ``bound`` (default :class:`~repro.core.bounds.CornerBound`, the
    HRJN*-style member; :class:`~repro.core.afr_bound.AFRBound` is the
    tight one under an additive scoring).

    Each relation is sorted in decreasing order of its score bound
    (1-substitution for every other relation's attributes) and wrapped in a
    fresh single-pass scan.
    """
    cost_model = cost_model or CostModel.clustered_index()
    dims = [rel.dimension for rel in relations]
    sources = []
    for index, rel in enumerate(relations):
        rows, order, bounds = sorted_access(scoring, dims, index, rel)
        sources.append(SortedScan(rows, order=order, bounds=bounds, cost_model=cost_model))
    return PBRJ(sources, scoring, bound or CornerBound(), PotentialAdaptive(),
                join_attrs=join_attrs, name=name, obs=obs)


def make_components(
    name: str, **bound_options
) -> tuple[BoundingScheme, PullingStrategy]:
    """Fresh (bounding scheme, pulling strategy) for an operator name.

    ``bound_options`` go to the bounding scheme's constructor (a-FRPA's
    :data:`BOUND_OPTIONS`).  Used by pipelined plans, which assemble PBRJ
    stages over operator sources rather than over a
    :class:`RankJoinInstance`.
    """
    try:
        bound_factory, strategy_factory, _ = COMPONENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown operator {name!r}; choose from {sorted(COMPONENTS)}"
        ) from None
    return bound_factory(**bound_options), strategy_factory()


def _factory(name: str) -> OperatorFactory:
    """The ``factory(instance, **kwargs) -> PBRJ`` of one table row."""

    def factory(instance: RankJoinInstance, **kwargs) -> PBRJ:
        bound_options = {
            key: kwargs.pop(key) for key in BOUND_OPTIONS if key in kwargs
        }
        bound, strategy = make_components(name, **bound_options)
        # Over prepared arrays, no pull loop: the corner bound, and FR* for
        # an additive scoring.
        if type(bound) is CornerBound:
            return CornerRankJoin(instance, strategy, name=name, **kwargs)
        additive = instance.scoring.row_weights(0, sum(instance.dims)) is not None
        if isinstance(bound, FRStarBound) and additive:
            return FeasibleRankJoin(instance, bound, strategy, name=name, **kwargs)
        return build(instance, bound, strategy, name=name, **kwargs)

    factory.__doc__ = COMPONENTS[name][2]
    return factory


#: Registry used by the experiment harness and the benchmarks.
OPERATORS: dict[str, OperatorFactory] = {name: _factory(name) for name in COMPONENTS}

hrjn = OPERATORS["HRJN"]
hrjn_star = OPERATORS["HRJN*"]
pbrj_fr_rr = OPERATORS["PBRJ_FR^RR"]
frpa = OPERATORS["FRPA"]
frpa_rr = OPERATORS["FRPA_RR"]
a_frpa = OPERATORS["a-FRPA"]

#: Interchangeable evaluation cores selectable via ``QuerySpec.algorithm``
#: and the ``--algorithm`` CLI flag: the paper's pull-bounded family
#: (``"pbrj"``) or ranked enumeration (``"anyk"``, :mod:`repro.anyk`).
ALGORITHMS = ("pbrj", "anyk")

#: Registry name of the any-k core.  Deliberately *not* in
#: :data:`OPERATORS` — that dict enumerates the PBRJ instantiations the
#: paper's experiments sweep (figures, ``repro compare``, parametrized
#: suites), while any-k is a different operator family selected through
#: ``algorithm="anyk"``.  ``make_operator`` resolves both, so the
#: service and the chaos harness build either core by name.
ANYK_OPERATOR = "AnyK"


def operator_names() -> list[str]:
    """Every name ``make_operator`` resolves (PBRJ family + any-k)."""
    return sorted(OPERATORS) + [ANYK_OPERATOR]


def make_operator(name: str, instance: RankJoinInstance, **kwargs):
    """Build any resumable rank join operator by name.

    Resolves the PBRJ registry first, then the any-k core (imported
    lazily — :mod:`repro.anyk` sits above this module).  Both speak the
    :class:`~repro.core.stepping.ResumableOperator` contract, so callers
    (the service layer, the chaos harness) need not care
    which family they got.
    """
    factory = OPERATORS.get(name)
    if factory is None:
        if name == ANYK_OPERATOR:
            from repro.anyk.engine import anyk_operator

            factory = anyk_operator
        else:
            raise KeyError(
                f"unknown operator {name!r}; choose from {operator_names()}"
            )
    return factory(instance, **kwargs)
