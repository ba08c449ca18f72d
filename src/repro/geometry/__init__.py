"""Geometric substrate: dominance relations, skylines, covers.

These data structures implement the feasible-region machinery that the FR,
FR* and aFR bounding schemes are built on (Sections 4 and 5 of the paper).
``CoverRegion`` and ``IncrementalSkyline`` are list-native: each is a
:class:`~repro.geometry.antichain.ScoredAntichain`, kept as a sorted
staircase at e=2.  The paper's grid tree
(Section 5.1.2) is a ``CoverRegion`` with a ``resolution``: the same carve
over observations rounded up onto the grid (:mod:`repro.geometry.cover`).
The batch forms of these operations live in :mod:`repro.kernels`.
"""

from repro.geometry.dominance import (
    Point,
    as_point,
    dominates,
    ones,
    strictly_dominates,
    strongly_dominates,
    substitute,
)
from repro.geometry.antichain import ScoredAntichain
from repro.geometry.skyline import IncrementalSkyline, is_skyline, skyline
from repro.geometry.cover import CoverRegion, covers, update_cover

__all__ = [
    "Point",
    "as_point",
    "ones",
    "dominates",
    "strictly_dominates",
    "strongly_dominates",
    "substitute",
    "skyline",
    "is_skyline",
    "IncrementalSkyline",
    "ScoredAntichain",
    "CoverRegion",
    "covers",
    "update_cover",
]
