"""Workload factory: paper-style problem instances from synthetic data.

The paper's binary experiments run Lineitem ⋈ Orders (the two largest
tables) with ``S`` summing all score attributes; the pipeline experiments
(Section 6.2.3) chain L ⋈ O ⋈ C ⋈ P with one score attribute per relation.
This module builds those instances (and arbitrary custom ones) from the
synthetic generator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from repro.core.operators import ALGORITHMS
from repro.core.scoring import ScoringFunction, SumScore
from repro.data.scores import generate_score_vectors
from repro.data.tpch import Table, TPCHConfig, generate_tpch
from repro.errors import WorkloadError
from repro.relation.cost import CostModel
from repro.relation.relation import RankJoinInstance, Relation


@dataclass(frozen=True)
class WorkloadParams:
    """The knobs of Table 2, plus data scale and seed.

    Defaults are the paper's defaults: ``e=2, c=.5, z=.5, K=10``.  A knob
    the generators or the operators cannot run — ``e``, ``k`` or ``seed``
    not an integer, ``e < 1``, ``k < 1``, ``seed < 0``, ``c`` outside
    ``(0, 1]``, ``scale`` not finite and positive, ``z`` or ``join_skew``
    not finite and non-negative, an unknown ``algorithm`` — is a one-line
    :class:`~repro.errors.WorkloadError` naming the field, whether it came
    from a flag or a workload file.
    """

    e: int = 2
    c: float = 0.5
    z: float = 0.5
    k: int = 10
    scale: float = 0.01
    join_skew: float = 0.5
    seed: int = 0
    #: Evaluation core: ``"pbrj"`` (paper default), ``"anyk"``, or
    #: ``"auto"`` (cost-based planner).
    algorithm: str = "pbrj"

    def __post_init__(self) -> None:
        for name in ("e", "k", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise WorkloadError(f"{name} must be an integer, got {value!r}")
        for name, ok, wanted in (
            ("e", self.e >= 1, "at least 1"),
            ("c", 0 < self.c <= 1, "in (0, 1]"),
            ("k", self.k >= 1, "at least 1"),
            ("seed", self.seed >= 0, "non-negative"),
            ("scale", math.isfinite(self.scale) and self.scale > 0,
             "finite and positive"),
            ("z", math.isfinite(self.z) and self.z >= 0,
             "finite and non-negative"),
            ("join_skew", math.isfinite(self.join_skew) and self.join_skew >= 0,
             "finite and non-negative"),
        ):
            if not ok:
                raise WorkloadError(
                    f"{name} must be {wanted}, got {getattr(self, name)!r}"
                )
        if self.algorithm not in ALGORITHMS + ("auto",):
            raise WorkloadError(
                f"unknown algorithm {self.algorithm!r}; "
                f"choose from {list(ALGORITHMS) + ['auto']}"
            )

    def tpch_config(self) -> TPCHConfig:
        return TPCHConfig(
            scale=self.scale,
            num_scores=self.e,
            score_skew=self.z,
            score_cut=self.c,
            join_skew=self.join_skew,
        )


def load_workload(path: str | Path) -> WorkloadParams:
    """Load :class:`WorkloadParams` from a JSON file.

    The file must hold one JSON object whose keys are a subset of the
    ``WorkloadParams`` fields (``e``, ``c``, ``z``, ``k``, ``scale``,
    ``join_skew``, ``seed``, ``algorithm``).  Any problem —
    missing file, invalid JSON, unknown keys, non-numeric values, a knob
    :class:`WorkloadParams` refuses — raises
    :class:`~repro.errors.WorkloadError` with a one-line message suitable
    for direct CLI display (the CLI exits 2), instead of failing deep
    inside engine construction.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise WorkloadError(f"cannot read workload file {path}: {exc.strerror or exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WorkloadError(f"workload file {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise WorkloadError(
            f"workload file {path} must hold a JSON object, got {type(payload).__name__}"
        )
    known = {f.name: f.type for f in fields(WorkloadParams)}
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise WorkloadError(
            f"workload file {path} has unknown keys {unknown}; "
            f"known keys: {sorted(known)}"
        )
    for key, value in payload.items():
        if key == "algorithm":
            continue  # checked, with every range, by WorkloadParams
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise WorkloadError(
                f"workload file {path}: key {key!r} must be a number, "
                f"got {value!r}"
            )
    try:
        return WorkloadParams(**payload)
    except WorkloadError as exc:
        raise WorkloadError(f"workload file {path}: {exc}") from None


def lineitem_orders_instance(
    params: WorkloadParams,
    *,
    scoring: ScoringFunction | None = None,
    cost_model: CostModel | None = None,
) -> RankJoinInstance:
    """The paper's default binary instance: Lineitem ⋈ Orders on orderkey."""
    tables = generate_tpch(params.tpch_config(), seed=params.seed)
    left = tables["lineitem"].to_relation("orderkey")
    right = tables["orders"].to_relation("orderkey")
    return RankJoinInstance(
        left,
        right,
        scoring or SumScore(),
        params.k,
        cost_model=cost_model,
    )


def pipeline_tables(params: WorkloadParams) -> dict[str, Table]:
    """Tables for the pipelined-plan experiments (one score per relation)."""
    config = replace(params.tpch_config(), num_scores=params.e)
    return generate_tpch(config, seed=params.seed)


def anti_correlated_instance(
    *,
    n_left: int,
    n_right: int,
    num_keys: int,
    k: int,
    jitter: float = 0.05,
    seed: int = 0,
    scoring: ScoringFunction | None = None,
) -> RankJoinInstance:
    """An instance with anti-correlated 2-d scores on both inputs.

    Scores hug the diagonal ``x + y ≈ 1``, so nearly every tuple is a
    skyline point and the feasible-region covers keep gaining staircase
    steps — the stress regime for cover maintenance that Section 5 of the
    paper targets (and the one where the naive frozen/fixed-grid cover
    alternatives measurably lose to the adaptive cover).
    """
    rng = np.random.default_rng(seed)

    def side(name: str, n: int) -> Relation:
        first = rng.random(n)
        second = np.clip(1.0 - first + rng.normal(0.0, jitter, n), 0.001, 1.0)
        keys = rng.integers(0, num_keys, size=n)
        scores = np.column_stack([first, second])
        return Relation.from_arrays(name, keys.tolist(), scores)

    return RankJoinInstance(
        side("R1", n_left), side("R2", n_right), scoring or SumScore(), k
    )


def random_instance(
    *,
    n_left: int,
    n_right: int,
    e_left: int,
    e_right: int,
    num_keys: int,
    k: int,
    skew: float = 0.5,
    cut: float = 1.0,
    seed: int = 0,
    scoring: ScoringFunction | None = None,
) -> RankJoinInstance:
    """A fully synthetic instance with independent per-side dimensions.

    Useful for tests and for exploring asymmetric inputs the TPC-H schema
    cannot express (e.g. ``e_left != e_right``).  Keys are uniform over
    ``num_keys`` values, so the expected join size is
    ``n_left * n_right / num_keys``.
    """
    rng = np.random.default_rng(seed)
    left_scores = generate_score_vectors(rng, n_left, e_left, skew=skew, cut=cut)
    right_scores = generate_score_vectors(rng, n_right, e_right, skew=skew, cut=cut)
    left_keys = rng.integers(0, num_keys, size=n_left)
    right_keys = rng.integers(0, num_keys, size=n_right)
    left = Relation.from_arrays("R1", left_keys.tolist(), left_scores)
    right = Relation.from_arrays("R2", right_keys.tolist(), right_scores)
    return RankJoinInstance(left, right, scoring or SumScore(), k)
