"""Ranked enumeration (any-k) — a second interchangeable rank join core.

Where the PBRJ family (the source paper) pulls from sorted inputs and
maintains score bounds, any-k (Tziavelis et al., "Optimal Join
Algorithms Meet Top-k" / "Ranked Enumeration for Database Queries")
decomposes the query into a join tree, runs one bottom-up DP pass, and
then streams results in exact rank order with logarithmic-ish delay —
no K fixed up front, no pull-depth blowup on n-ary joins.

The package splits the construction the way the papers do:

* :mod:`repro.anyk.jointree` — bags, node tuples, additive weights;
* :mod:`repro.anyk.decompose` — GYO ear removal + GHD bag merges;
* :mod:`repro.anyk.dp` — budgeted suffix-optimal DP;
* :mod:`repro.anyk.enumerate` — Lawler/REA successor generation;
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
    anyk_from_chain,
    anyk_operator,
)
from repro.anyk.enumerate import Enumerator
from repro.anyk.jointree import KEY_ATTR, JoinTree, JoinTreeNode, NodeTuple

__all__ = [
    "ANYK_OPERATOR",
    "AnyKQuery",
    "AnyKRankJoin",
    "DPState",
    "Enumerator",
    "JoinTree",
    "JoinTreeNode",
    "KEY_ATTR",
    "NodeTuple",
    "anyk_from_chain",
    "anyk_operator",
    "decompose",
]
