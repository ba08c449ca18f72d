"""Golden ``Relation.fingerprint()`` hex values.

Every cache key holds its relations' fingerprints, and so does every file
in a fleet's shared cache tier: a fingerprint that moves turns every file
an older fleet wrote into a miss.  ``fingerprint_golden.json`` holds the
hex digest of each case below, recorded from the commit before the digest
was rebuilt over :func:`~repro.relation.relation.tuple_identity`.

Re-record only from a commit whose fingerprints you trust::

    PYTHONPATH=<that>/src:. python tests/relation/test_fingerprint_golden.py
"""

import json
from pathlib import Path

import pytest

from repro.core.tuples import RankTuple
from repro.data.workload import WorkloadParams, lineitem_orders_instance
from repro.relation.relation import Relation

GOLDEN_PATH = Path(__file__).with_name("fingerprint_golden.json")


def _harness(side):
    """Lineitem or Orders as the harness generates them, at seed 0."""
    def build():
        instance = lineitem_orders_instance(
            WorkloadParams(e=2, c=0.5, z=0.5, k=10, scale=0.0005, seed=0))
        return instance.left if side == 0 else instance.right
    return build


def _rows(rows):
    return lambda: Relation("r", [RankTuple(key, scores, payload)
                                  for key, scores, payload in rows])


CASES = {
    "lineitem": _harness(0),
    "orders": _harness(1),
    "none_payloads": _rows([(1, (0.5, 0.25), None), (2, (1.0, 0.0), None),
                            (1, (0.5, 0.25), None)]),
    "string_keys": _rows([("a", (0.1,), "x"), ("b'c", (0.9,), None),
                          ("", (0.3,), ("t", 1))]),
    "nested_payloads": _rows([
        (7, (0.2, 0.4, 0.6), {"b": {"y": [1, 2], "x": None}, "a": 1.5}),
        (7, (0.2, 0.4, 0.6), {"a": 1.5, "b": {"x": None, "y": [1, 2]}}),
        ((1, "k"), (1 / 3, 0.1, 0.7), {"z": {"deep": {"er": (None,)}}}),
    ]),
    "integer_scores": _rows([(3, (1, 0), None), (4, (0, 1), {"n": 2})]),
    "empty": _rows([]),
}


def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_fingerprint_matches_its_golden(case):
    assert CASES[case]().fingerprint() == golden()[case]


def test_every_case_is_recorded():
    assert sorted(golden()) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {case: CASES[case]().fingerprint() for case in sorted(CASES)},
        indent=1) + "\n")
    print(f"recorded {len(CASES)} fingerprints -> {GOLDEN_PATH}")
