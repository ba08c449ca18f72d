"""The kernels as plain Python loops over canonical tuples.

Three ops *are* these loops (``cover_carve``, ``dominates_any``,
``skyline_filter``: numpy never won them at any size seen); for the other
two the loop serves the small batches and is the *semantic oracle* of the
numpy form in :mod:`repro.kernels.vectorized`, which must produce
bit-identical results (same rows, same scores) — the property-test suite
enforces it.  ``cover_carve`` is the one op on the FR* pull path, so it is
written for speed on a list of tuples (the sorted 2-D antichain every
e=2 FR* cover is gets carved by FR*'s one side step instead,
:func:`repro.geometry.antichain.staircase_step`); the oracle of both is the
literal pseudo-code loop :func:`repro.geometry.cover.update_cover`.

Floating-point discipline: partial scores are accumulated strictly
left-to-right (``s = 0.0; s += w*x``).  The numpy forms sum the same way
(column at a time), so the two agree bit-for-bit, not just approximately.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import ge

from repro.kernels.pointset import PointSet
from repro.kernels.types import Point, as_point

NEG_INF = float("-inf")


def _rows(points) -> list[Point]:
    """Any supported operand as a list of tuples; a list that already holds
    tuples — what the geometry layer keeps — is handed back uncopied."""
    if type(points) is list and (not points or type(points[0]) is tuple):
        return points
    if isinstance(points, PointSet):
        return points.tuples()
    if hasattr(points, "tolist"):  # numpy array
        return [tuple(row) for row in points.tolist()]
    return [tuple(p) for p in points]


def dominates_any(points, q: Sequence[float]) -> bool:
    """True if some row of ``points`` weakly dominates ``q``."""
    q = tuple(q)
    for row in _rows(points):
        if all(map(ge, row, q)):
            return True
    return False


def skyline_filter(points) -> list[int]:
    """Indices (input order) of the skyline of ``points``.

    A point survives iff no other point strictly dominates it and no
    earlier point equals it (duplicates collapse to their first
    occurrence) — exactly the result of the classic incremental
    insertion loop.
    """
    rows = _rows(points)
    kept: list[int] = []
    for i, point in enumerate(rows):
        for j in kept:
            if all(map(ge, rows[j], point)):
                break
        else:
            # No kept row equals ``point`` here, so ⪰ is already ≻.
            kept = [j for j in kept if not all(map(ge, point, rows[j]))]
            kept.append(i)
    return kept


def cover_corner_scores(
    points, weights: Sequence[float] | None = None
) -> list[float]:
    """Per-row partial score: plain sum, or weighted sum if given."""
    scores: list[float] = []
    if weights is None:
        for row in _rows(points):
            s = 0.0
            for v in row:
                s += v
            scores.append(s)
    else:
        for row in _rows(points):
            s = 0.0
            for w, v in zip(weights, row):
                s += w * v
            scores.append(s)
    return scores


def cross_product_max(left, right) -> float:
    """``max(l + r)`` over the full cross product of two score lists.

    The nested loop is deliberate: this is the combinatorial cost the
    paper ascribes to FR's cover bounds, kept intact for PBRJ_FR^RR
    (only constant-factor acceleration differs between the two forms; FR*
    with an additive ``S`` no longer calls it).  ``-inf`` if either
    side is empty.
    """
    best = NEG_INF
    right_list = [float(r) for r in right]
    if not right_list:
        return best
    for l_val in left:
        l_val = float(l_val)
        for r_val in right_list:
            if l_val + r_val > best:
                best = l_val + r_val
    return best


def cover_carve(
    cover, observed, skyline_mode: bool = False
) -> tuple[list[int], list[Point]]:
    """Carve the regions dominating each observed vector out of ``cover``.

    Returns the carve as a *patch* ``(keep, fresh)``: the ids of the
    cover rows no vector removed (ascending), then the new points in
    sorted order per vector.
    ``skyline_mode`` skylines only the projections: over an antichain
    no survivor compares with one (Lemma, :mod:`repro.geometry.cover`).
    Works on the caller's own row list (no copy of a list of tuples).
    """
    rows = _rows(cover)
    keep = range(len(rows))
    fresh: list[Point] = []
    for raw in observed:
        y = as_point(raw)
        # The rows ⪰ y, narrowed one coordinate at a time: over an
        # antichain the first comparison already drops most of them.
        hit = keep
        for axis, value in enumerate(y):
            hit = [i for i in hit if rows[i][axis] >= value]
        stale = [p for p in fresh if all(map(ge, p, y))]
        if not (hit or stale):
            continue
        removed = [rows[i] for i in hit]
        if hit:
            gone = set(hit)
            keep = [i for i in keep if i not in gone]
        if stale:
            fresh = [p for p in fresh if not all(map(ge, p, y))]
            removed += stale
        # Project each removed point one coordinate down onto y; a
        # projection with a zero coordinate covers nothing.
        projected: set[Point] = set()
        for s in removed:
            for axis, value in enumerate(y):
                candidate = s[:axis] + (value,) + s[axis + 1:]
                if min(candidate) > 0.0:
                    projected.add(candidate)
        # Largest first, a projection can only be dominated by one
        # already seen (a dominator is lexicographically larger): the
        # skyline of distinct points in one sweep, nothing ever evicted.
        new = sorted(projected, reverse=True)
        if skyline_mode:
            top: list[Point] = []
            for p in new:
                for q in top:
                    if all(map(ge, q, p)):
                        break
                else:
                    top.append(p)
            new = top
        new.reverse()
        fresh += new
    return list(keep), fresh
