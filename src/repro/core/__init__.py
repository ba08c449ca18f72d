"""Core rank join machinery: PBRJ template, bounds, strategies, operators."""

from repro.core.afr_bound import AdaptiveCover, AFRBound
from repro.core.bounds import BoundContext, BoundingScheme, CornerBound, LEFT, RIGHT
from repro.core.fr_bound import FRBound
from repro.core.frstar_bound import FRStarBound
from repro.core.afr_bound import FixedGridCover, FrozenCover
from repro.core.jstar import JStar, jstar_from_instance
from repro.core.naive import full_join, naive_top_k, top_scores
from repro.core.oracle import (
    OracleBound,
    certificate_optimal_sum_depths,
    optimal_sum_depths,
    oracle_operator,
)
from repro.core.operators import (
    OPERATORS,
    a_frpa,
    build,
    frpa,
    frpa_rr,
    hrjn,
    hrjn_star,
    make_operator,
    multiway_rank_join,
    pbrj_fr_rr,
)
from repro.core.pbrj import PBRJ
from repro.core.pulling import (
    FixedSequence,
    PotentialAdaptive,
    PullingStrategy,
    RoundRobin,
)
from repro.core.stepping import PENDING, ResumableOperator
from repro.core.scoring import (
    AverageScore,
    CallableScore,
    MinScore,
    ProductScore,
    ScoringFunction,
    SumScore,
    WeightedSum,
    check_monotone,
)
from repro.core.tuples import JoinResult, RankTuple

__all__ = [
    "AFRBound",
    "AdaptiveCover",
    "AverageScore",
    "BoundContext",
    "BoundingScheme",
    "CallableScore",
    "CornerBound",
    "FRBound",
    "FRStarBound",
    "FixedGridCover",
    "FixedSequence",
    "FrozenCover",
    "JStar",
    "OracleBound",
    "certificate_optimal_sum_depths",
    "multiway_rank_join",
    "optimal_sum_depths",
    "oracle_operator",
    "JoinResult",
    "LEFT",
    "MinScore",
    "OPERATORS",
    "PBRJ",
    "PENDING",
    "PotentialAdaptive",
    "ProductScore",
    "PullingStrategy",
    "RIGHT",
    "RankTuple",
    "ResumableOperator",
    "RoundRobin",
    "ScoringFunction",
    "SumScore",
    "WeightedSum",
    "a_frpa",
    "build",
    "check_monotone",
    "frpa",
    "frpa_rr",
    "full_join",
    "hrjn",
    "hrjn_star",
    "jstar_from_instance",
    "make_operator",
    "naive_top_k",
    "pbrj_fr_rr",
    "top_scores",
]
