"""The public API surface: everything advertised in __all__ exists and a
typical user journey works through top-level imports only."""

import importlib

import pytest

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.geometry",
            "repro.relation",
            "repro.data",
            "repro.plan",
            "repro.stats",
            "repro.experiments",
            "repro.aggregation",
        ],
    )
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in mod.__all__:
            assert hasattr(mod, name), f"{module}.{name} missing"

    def test_version_string(self):
        assert repro.__version__.count(".") == 2


class TestUserJourney:
    def test_end_to_end_via_top_level_imports(self):
        instance = repro.lineitem_orders_instance(
            repro.WorkloadParams(e=1, k=3, scale=0.0002, seed=0)
        )
        operator = repro.a_frpa(instance)
        results = operator.top_k(3)
        assert len(results) == 3
        expected = repro.naive_top_k(
            instance.left.tuples, instance.right.tuples, instance.scoring, 3
        )
        assert [r.score for r in results] == pytest.approx(
            [r.score for r in expected]
        )
        stats = operator.stats()
        assert stats.sum_depths > 0

    def test_every_registered_operator_buildable(self):
        instance = repro.lineitem_orders_instance(
            repro.WorkloadParams(e=1, k=1, scale=0.0002, seed=0)
        )
        for name in repro.OPERATORS:
            operator = repro.make_operator(name, instance)
            assert operator.top_k(1)

    def test_docstrings_on_public_classes(self):
        for name in [
            "PBRJ", "CornerBound", "FRBound", "FRStarBound", "AFRBound",
            "RankJoinInstance", "Relation", "Pipeline",
            "SumScore", "WorkloadParams",
        ]:
            obj = getattr(repro, name)
            assert obj.__doc__, f"{name} lacks a docstring"
