"""Tests for the operator factory layer."""

import pytest

from repro.core.afr_bound import AFRBound
from repro.core.bounds import CornerBound
from repro.core.fr_bound import FRBound
from repro.core.frstar_bound import FRStarBound
from repro.core.operators import OPERATORS, make_components, make_operator
from repro.core.pulling import PotentialAdaptive, RoundRobin
from repro.data.workload import random_instance


@pytest.fixture(scope="module")
def instance():
    return random_instance(
        n_left=60, n_right=60, e_left=1, e_right=1, num_keys=6, k=2, seed=0
    )


class TestRegistry:
    def test_registry_names(self):
        assert set(OPERATORS) == {
            "HRJN", "HRJN*", "PBRJ_FR^RR", "FRPA", "FRPA_RR", "a-FRPA",
        }

    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_operator_carries_its_name(self, instance, name):
        assert make_operator(name, instance).name == name

    def test_unknown_name_lists_choices(self, instance):
        with pytest.raises(KeyError) as excinfo:
            make_operator("BOGUS", instance)
        assert "FRPA" in str(excinfo.value)


class TestComponents:
    @pytest.mark.parametrize(
        "name,bound_cls,strategy_cls",
        [
            ("HRJN", CornerBound, RoundRobin),
            ("HRJN*", CornerBound, PotentialAdaptive),
            ("PBRJ_FR^RR", FRBound, RoundRobin),
            ("FRPA", FRStarBound, PotentialAdaptive),
            ("FRPA_RR", FRStarBound, RoundRobin),
            ("a-FRPA", AFRBound, PotentialAdaptive),
        ],
    )
    def test_component_mapping(self, name, bound_cls, strategy_cls):
        bound, strategy = make_components(name)
        assert type(bound) is bound_cls
        assert type(strategy) is strategy_cls

    def test_frpa_bound_is_frstar_not_afr(self):
        bound, __ = make_components("FRPA")
        assert not isinstance(bound, AFRBound)

    def test_afrpa_parameters_forwarded(self):
        bound, __ = make_components(
            "a-FRPA", max_cr_size=7, resolution=16, cover_strategy="frozen"
        )
        assert bound.max_cr_size == 7
        assert bound.resolution == 16
        assert bound.cover_strategy == "frozen"

    def test_components_are_fresh_instances(self):
        a, __ = make_components("FRPA")
        b, __ = make_components("FRPA")
        assert a is not b

    def test_unknown_component_name(self):
        with pytest.raises(KeyError):
            make_components("BOGUS")


class TestFactoryKwargs:
    def test_afrpa_kwargs(self, instance):
        operator = make_operator(
            "a-FRPA", instance, max_cr_size=3, resolution=8
        )
        scheme = operator.bound_scheme
        assert scheme.max_cr_size == 3

    @pytest.mark.parametrize("name", ["HRJN*", "FRPA", "AnyK"])
    @pytest.mark.parametrize("keyword, value", [
        ("max_pulls", 5), ("max_seconds", 1.0), ("track_time", False),
    ])
    def test_budget_keywords_refused(self, instance, name, keyword, value):
        # Operators take no budget: ``try_next(max_pulls=q)`` bounds a run.
        with pytest.raises(TypeError, match=keyword):
            make_operator(name, instance, **{keyword: value})
