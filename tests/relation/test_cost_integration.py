"""Cost-model propagation through instances, operators and pipelines."""

import pytest

from repro.core.operators import frpa, hrjn_star
from repro.core.tuples import RankTuple
from repro.data.workload import WorkloadParams, lineitem_orders_instance
from repro.plan.pipeline import Pipeline
from repro.relation.cost import CostModel
from repro.relation.relation import Relation

PARAMS = WorkloadParams(e=1, c=0.5, z=0.5, k=5, scale=0.0005, seed=0)


class TestInstanceCosts:
    def test_default_is_clustered(self):
        instance = lineitem_orders_instance(PARAMS)
        assert instance.cost_model.per_tuple == CostModel.clustered_index().per_tuple

    def test_custom_model_charged(self):
        instance = lineitem_orders_instance(
            PARAMS, cost_model=CostModel(per_tuple=10.0, seek=100.0)
        )
        operator = frpa(instance)
        operator.top_k(PARAMS.k)
        expected = operator.sum_depths * 10.0 + 2 * 100.0  # both seeks paid
        assert operator.stats().io_cost == pytest.approx(expected)

    def test_costlier_access_scales_io_cost_not_depth(self):
        cheap = lineitem_orders_instance(PARAMS, cost_model=CostModel.free())
        costly = lineitem_orders_instance(
            PARAMS, cost_model=CostModel.network_stream()
        )
        op_cheap = frpa(cheap)
        op_costly = frpa(costly)
        op_cheap.top_k(PARAMS.k)
        op_costly.top_k(PARAMS.k)
        assert op_cheap.depths() == op_costly.depths()
        assert op_cheap.stats().io_cost == 0.0
        assert op_costly.stats().io_cost > 0.0

    def test_relative_operator_cost_ordering(self):
        instance = lineitem_orders_instance(
            WorkloadParams(e=1, c=0.25, z=0.5, k=5, scale=0.001, seed=0),
            cost_model=CostModel.unclustered_index(),
        )
        robust = frpa(instance)
        corner = hrjn_star(instance)
        robust.top_k(5)
        corner.top_k(5)
        assert robust.stats().io_cost < corner.stats().io_cost


class TestPipelineCosts:
    def _relations(self):
        def rel(name, attr, n):
            return Relation(
                name,
                [
                    RankTuple(
                        key=i % 4, scores=(1 - i / n,), payload={attr: i % 4}
                    )
                    for i in range(n)
                ],
            )

        return [rel("A", "k", 30), rel("B", "k", 30)]

    def test_pipeline_charges_base_scans(self):
        pipeline = Pipeline(
            self._relations(), [], operator="HRJN*",
            cost_model=CostModel(per_tuple=2.0, seek=0.0),
        )
        pipeline.top_k(3)
        assert pipeline.io_cost == pytest.approx(2.0 * pipeline.sum_depths)

    def test_intermediate_pulls_are_free(self):
        pipeline = Pipeline(
            self._relations(), [], operator="HRJN*",
            cost_model=CostModel.free(),
        )
        pipeline.top_k(3)
        assert pipeline.io_cost == 0.0
