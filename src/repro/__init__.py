"""repro — reproduction of *Robust and Efficient Algorithms for Rank Join
Evaluation* (Finger & Polyzotis, SIGMOD 2009).

The library implements the full rank-join stack the paper builds on and
contributes to:

* the PBRJ operator template with pluggable bounding schemes and pulling
  strategies (:mod:`repro.core`);
* the corner, FR, FR* and adaptive aFR bounds, including the skyline and
  grid-tree geometry they rest on (:mod:`repro.geometry`);
* the named operators HRJN, HRJN*, PBRJ_FR^RR, FRPA and a-FRPA;
* sorted single-pass access with simulated I/O costs (:mod:`repro.relation`);
* the paper's synthetic skewed TPC-H workload generator (:mod:`repro.data`);
* pipelined physical plans and a declarative query layer (:mod:`repro.plan`);
* a cost-based planner choosing the evaluation core and the operator
  (:mod:`repro.planner`);
* the complete experimental harness regenerating every evaluation figure
  (:mod:`repro.experiments`).

Quickstart::

    from repro import WorkloadParams, lineitem_orders_instance, frpa

    instance = lineitem_orders_instance(WorkloadParams(e=2, k=10))
    operator = frpa(instance)
    for result in operator.top_k(10):
        print(result.score, result.left.key)
    print(operator.depths())
"""

from repro.anyk import AnyKQuery, AnyKRankJoin
from repro.core import (
    AFRBound,
    CornerBound,
    JStar,
    MultiwayRankJoin,
    certificate_optimal_sum_depths,
    jstar_from_instance,
    multiway_rank_join,
    oracle_operator,
    FRBound,
    FRStarBound,
    JoinResult,
    OPERATORS,
    PBRJ,
    PotentialAdaptive,
    RankTuple,
    RoundRobin,
    ScoringFunction,
    SumScore,
    WeightedSum,
    a_frpa,
    frpa,
    hrjn,
    hrjn_star,
    make_operator,
    naive_top_k,
    pbrj_fr_rr,
)
from repro.data import (
    TPCHConfig,
    WorkloadParams,
    anti_correlated_instance,
    generate_tpch,
    lineitem_orders_instance,
    random_instance,
)
from repro.errors import (
    BudgetExhausted,
    InstanceError,
    NotSortedError,
    PullBudgetExceeded,
    ReproError,
    WorkloadError,
)
from repro.kernels import PointSet, set_thresholds
from repro.plan import Pipeline, QueryInput, RankQuery
from repro.planner import CostCoefficients, PlanDecision, Planner
from repro.relation import CostModel, RankJoinInstance, Relation, SortedScan
from repro.service import (
    QueryService,
    QuerySession,
    QuerySpec,
    RankJoinServer,
    ResultCache,
    Scheduler,
    ServiceClient,
    SessionState,
)
from repro.stats import DepthReport, OperatorStats, TimingBreakdown

__version__ = "1.0.0"

__all__ = [
    "AFRBound",
    "AnyKQuery",
    "AnyKRankJoin",
    "BudgetExhausted",
    "CornerBound",
    "CostCoefficients",
    "CostModel",
    "DepthReport",
    "FRBound",
    "FRStarBound",
    "InstanceError",
    "JStar",
    "JoinResult",
    "MultiwayRankJoin",
    "NotSortedError",
    "OPERATORS",
    "OperatorStats",
    "PBRJ",
    "Pipeline",
    "PlanDecision",
    "Planner",
    "PointSet",
    "PotentialAdaptive",
    "PullBudgetExceeded",
    "QueryInput",
    "QueryService",
    "QuerySession",
    "QuerySpec",
    "RankJoinInstance",
    "RankJoinServer",
    "RankQuery",
    "RankTuple",
    "Relation",
    "ReproError",
    "ResultCache",
    "RoundRobin",
    "Scheduler",
    "ScoringFunction",
    "ServiceClient",
    "SessionState",
    "SortedScan",
    "SumScore",
    "TimingBreakdown",
    "TPCHConfig",
    "WeightedSum",
    "WorkloadError",
    "WorkloadParams",
    "a_frpa",
    "anti_correlated_instance",
    "certificate_optimal_sum_depths",
    "frpa",
    "generate_tpch",
    "hrjn",
    "hrjn_star",
    "jstar_from_instance",
    "lineitem_orders_instance",
    "make_operator",
    "multiway_rank_join",
    "naive_top_k",
    "oracle_operator",
    "pbrj_fr_rr",
    "random_instance",
    "set_thresholds",
    "__version__",
]
