"""Direct unit tests for the simulated I/O cost model.

``test_cost_integration.py`` covers cost accounting through operators;
these tests pin the :class:`CostModel` / :class:`AccessStats` contract
itself (seek charged exactly once, reset semantics, preset shapes).
"""

import pytest

from repro.relation.cost import AccessStats, CostModel


class TestCostModel:
    def test_defaults(self):
        model = CostModel()
        assert model.per_tuple == 1.0
        assert model.seek == 0.0

    def test_presets_are_ordered_by_access_cost(self):
        clustered = CostModel.clustered_index()
        unclustered = CostModel.unclustered_index()
        network = CostModel.network_stream()
        assert clustered.per_tuple < unclustered.per_tuple < network.per_tuple
        assert network.seek > clustered.seek

    def test_free_charges_nothing(self):
        stats = AccessStats()
        for _ in range(5):
            stats.charge(CostModel.free())
        assert stats.pulls == 5
        assert stats.cost == 0.0

    def test_frozen(self):
        with pytest.raises(AttributeError):
            CostModel().per_tuple = 2.0


class TestAccessStats:
    def test_seek_charged_exactly_once(self):
        model = CostModel(per_tuple=2.0, seek=10.0)
        stats = AccessStats()
        stats.charge(model)
        assert stats.cost == 12.0
        assert stats.touched is True
        stats.charge(model)
        stats.charge(model)
        assert stats.pulls == 3
        assert stats.cost == 10.0 + 3 * 2.0

    def test_no_seek_model(self):
        stats = AccessStats()
        stats.charge(CostModel(per_tuple=1.5, seek=0.0))
        assert stats.cost == 1.5

    def test_reset_clears_everything_including_touched(self):
        model = CostModel(per_tuple=1.0, seek=100.0)
        stats = AccessStats()
        stats.charge(model)
        stats.reset()
        assert (stats.pulls, stats.cost, stats.touched) == (0, 0.0, False)
        # The seek is charged again after a reset — the source was re-opened.
        stats.charge(model)
        assert stats.cost == 101.0

    @pytest.mark.parametrize("preset", [
        CostModel(), CostModel.clustered_index(), CostModel.unclustered_index(),
        CostModel.network_stream(), CostModel.free(),
        CostModel(per_tuple=0.1, seek=0.3),  # fractional: ``cost`` is derived, not summed
    ])
    def test_a_gallop_charges_what_single_reads_charge(self, preset):
        singles, gallop = AccessStats(), AccessStats()
        for _ in range(1000):
            singles.charge(preset)
        gallop.charge(preset, 3)
        gallop.charge(preset, 997)
        assert (gallop.pulls, gallop.cost) == (singles.pulls, singles.cost)

    def test_accumulates_across_models(self):
        # One stats object can be charged under different models (e.g. a
        # source whose cost profile changes); costs simply accumulate.
        stats = AccessStats()
        stats.charge(CostModel(per_tuple=1.0, seek=10.0))
        stats.charge(CostModel(per_tuple=5.0, seek=999.0))  # already touched
        assert stats.pulls == 2
        assert stats.cost == 10.0 + 1.0 + 5.0
