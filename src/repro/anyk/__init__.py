"""Ranked enumeration (any-k) — a second interchangeable rank join core.

Where the PBRJ family (the source paper) pulls from sorted inputs and
maintains score bounds, any-k (Tziavelis et al., "Optimal Join
Algorithms Meet Top-k" / "Ranked Enumeration for Database Queries")
lays the chain query out as its path join tree, runs one bottom-up DP pass, and
then streams results in exact rank order with logarithmic-ish delay —
no K fixed up front, no pull-depth blowup on n-ary joins.

The package splits the construction the way the papers do:

* :mod:`repro.anyk.jointree` — path nodes as columns, additive weights;
* :mod:`repro.anyk.decompose` — the chain query and its path, leaf first;
* :mod:`repro.anyk.dp` — budgeted suffix-optimal DP, one child per node;
* :mod:`repro.anyk.enumerate` — Lawler/REA successor generation, one
  rank per solution;
* :mod:`repro.anyk.engine` — the :class:`AnyKRankJoin` facade speaking
  the :class:`~repro.core.stepping.ResumableOperator` contract, so the
  service and telemetry layers drive it unchanged
  (select it with ``QuerySpec(algorithm="anyk")`` or ``--algorithm``).
"""

from repro.anyk.decompose import AnyKQuery, decompose
from repro.anyk.dp import DPState
from repro.anyk.engine import (
    ANYK_OPERATOR,
    AnyKRankJoin,
    anyk_operator,
)
from repro.anyk.enumerate import Enumerator
from repro.anyk.jointree import KEY_ATTR, JoinTreeNode

__all__ = [
    "ANYK_OPERATOR",
    "AnyKQuery",
    "AnyKRankJoin",
    "DPState",
    "Enumerator",
    "JoinTreeNode",
    "KEY_ATTR",
    "anyk_operator",
    "decompose",
]
