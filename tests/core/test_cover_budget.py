"""A cover budget is checked where it is given, not at the hand-over.

``resolution`` only matters once a cover outgrows ``max_cr_size``, which is
in the middle of a query: a bad value used to construct, answer while the
cover fit, and then die inside ``try_next``.  The bound that takes the pair
(a-FRPA's, at any arity) refuses it in its constructor, in one line naming
the field and the value.
"""

import pytest

from repro.core.afr_bound import AFRBound
from repro.core.operators import make_operator
from repro.data.workload import WorkloadParams, lineitem_orders_instance

BOUNDS = [AFRBound]


@pytest.fixture(scope="module")
def instance():
    return lineitem_orders_instance(
        WorkloadParams(e=2, c=0.5, z=0.5, k=10, scale=0.0005, seed=0))


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("resolution", [100, 3, 0, -2, 64.0, "64", True, None])
def test_resolution_must_be_a_power_of_two(bound, resolution):
    with pytest.raises(ValueError) as refused:
        bound(resolution=resolution)
    assert str(refused.value) == (
        f"resolution must be a positive power of two, got {resolution!r}"
    )


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("max_cr_size", [0, -1, 2.5, "8", True, None])
def test_max_cr_size_must_be_a_positive_integer(bound, max_cr_size):
    with pytest.raises(ValueError) as refused:
        bound(max_cr_size=max_cr_size)
    assert str(refused.value) == (
        f"max_cr_size must be a positive integer, got {max_cr_size!r}"
    )


def test_a_bad_resolution_never_reaches_the_query(instance):
    # With max_cr_size=4 this call used to construct and then raise a bare
    # "resolution must be a positive power of two" from inside try_next.
    with pytest.raises(ValueError, match="resolution .* got 100"):
        make_operator("a-FRPA", instance, max_cr_size=4, resolution=100)


@pytest.mark.parametrize("resolution", [1, 2, 128, 1 << 20])
def test_a_valid_budget_never_raises_at_the_hand_over(instance, resolution):
    operator = make_operator(
        "a-FRPA", instance, max_cr_size=4, resolution=resolution)
    assert len(operator.top_k(instance.k)) == instance.k
    assert operator.bound_scheme.cover_modes == ("grid", "grid")
