"""Every operator metric family has a reader.

Every operator ``operator_names()`` resolves, plus FRPA in its per-pull
loop form (a non-additive scoring), runs a small instance under one
:class:`~repro.obs.Observability`; the families its registry then holds
must be exactly the keys of :data:`INVENTORY`, which names each family's
reader.  A reader is a file outside ``tests/`` whose text names the
family (a smoke script, the benchmark harness), or the node id of a
behavioural test whose source names it.  A golden or an equivalence test
pins a value without saying what it is for, so it is no reader: a family
only those read is deleted, not listed.  A new operator family without a
reader fails here.  An ``auto`` plan under its own
:class:`~repro.obs.Observability` must register exactly the families of
:data:`PLANNER_INVENTORY`, held to the same rule.

The service's families (``service_*``, ``slo_*``, ``fleet_*``) are
registered per session, not per pull, and are not covered.
"""

import ast
from pathlib import Path

from repro import kernels
from repro.core.operators import make_operator, operator_names
from repro.core.pbrj import PBRJ
from repro.core.scoring import MinScore
from repro.data.workload import WorkloadParams, lineitem_orders_instance
from repro.obs import Observability
from repro.planner import Planner
from repro.relation.relation import RankJoinInstance

ROOT = Path(__file__).resolve().parents[2]

_GRIDTREE = "tests/obs/test_integration.py::TestOperatorMetrics::test_afr_gridtree_metrics"

#: Operator metric family -> its reader.
INVENTORY = {
    "pulls_total": "scripts/metrics_smoke.py",
    "results_emitted_total": "scripts/metrics_smoke.py",
    "anyk_dp_tuples_total": "scripts/metrics_smoke.py",
    "kernel_calls_total": "benchmarks/harness/layers.py",
    "bound_recompute_total":
        "tests/obs/test_integration.py::TestOperatorMetrics"
        "::test_decision_matrix_cache_accounting",
    "gridtree_resolution": _GRIDTREE,
    "gridtree_resolution_drops_total": _GRIDTREE,
    "cover_grid_transfers_total": _GRIDTREE,
}

#: Planner metric family -> its reader.
PLANNER_INVENTORY = {
    "planner_decisions_total":
        "tests/planner/test_planner.py::TestPlanBinary"
        "::test_decision_counter_increments",
}


def _operator_families() -> set[str]:
    instance = lineitem_orders_instance(
        WorkloadParams(e=2, c=0.5, z=0.5, k=5, scale=0.0005, seed=0))
    obs = Observability()
    try:
        for name in operator_names():
            make_operator(name, instance, obs=obs).top_k(instance.k)
        loop = RankJoinInstance(instance.left, instance.right, MinScore(), instance.k)
        loop_form = make_operator("FRPA", loop, obs=obs)
        assert type(loop_form) is PBRJ  # a non-additive S keeps the loop
        loop_form.top_k(loop.k)
    finally:
        kernels.unobserve()  # the operators routed kernel calls to ``obs``
    return {record["name"] for record in obs.metrics.snapshot()}


def _reader_text(reader: str) -> str:
    """The text of a reader file, or the source of a reader test."""
    path, *names = reader.split("::")
    text = (ROOT / path).read_text()
    node = ast.parse(text)
    for name in names:
        node = next(child for child in node.body
                    if getattr(child, "name", None) == name)
    return text if not names else ast.get_source_segment(text, node)


def test_every_operator_family_is_in_the_inventory():
    assert _operator_families() == set(INVENTORY)


def test_every_planner_family_is_in_the_inventory():
    instance = lineitem_orders_instance(
        WorkloadParams(e=2, c=0.5, z=0.5, k=5, scale=0.0005, seed=0))
    obs = Observability()
    Planner(obs=obs).plan([instance.left, instance.right], instance.k)
    families = {record["name"] for record in obs.metrics.snapshot()}
    assert families == set(PLANNER_INVENTORY)


def test_every_reader_names_its_family():
    for family, reader in {**INVENTORY, **PLANNER_INVENTORY}.items():
        path = reader.split("::")[0]
        if path.startswith("tests/"):
            assert "::" in reader, f"{family}: a test reader is one test"
            assert "golden" not in path and "equivalence" not in path, family
        assert family in _reader_text(reader), f"{reader} does not read {family}"
