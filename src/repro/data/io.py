"""CSV persistence for relations and generated tables.

Lets users export the synthetic workloads for inspection or reuse, and
load their own data into the operators.  Format: one header row; a ``key``
column, ``score_0..score_{e-1}`` columns, and any further columns become
the tuple payload dict (values parsed as int/float when possible).
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from repro.core.tuples import RankTuple
from repro.errors import InstanceError, WorkloadError
from repro.relation.relation import Relation

KEY_COLUMN = "key"
SCORE_PREFIX = "score_"


def _parse_value(text: str):
    """Best-effort typed parsing: int, then float, else string."""
    for parser in (int, float):
        try:
            return parser(text)
        except ValueError:
            continue
    return text


def save_relation_csv(relation: Relation, path) -> None:
    """Write a relation to CSV (key + score columns + payload columns)."""
    path = Path(path)
    payload_columns: list[str] = []
    for tup in relation.tuples:
        if isinstance(tup.payload, dict):
            for column in tup.payload:
                if column not in payload_columns:
                    payload_columns.append(column)
    headers = (
        [KEY_COLUMN]
        + [f"{SCORE_PREFIX}{i}" for i in range(relation.dimension)]
        + payload_columns
    )
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(headers)
        for tup in relation.tuples:
            payload = tup.payload if isinstance(tup.payload, dict) else {}
            writer.writerow(
                [tup.key]
                + list(tup.scores)
                + [payload.get(column, "") for column in payload_columns]
            )


def _score_cell(text: str, path, row_number: int, column: str, error) -> float:
    """A finite score, or a one-line ``path:row: column`` error."""
    try:
        value = float(text)
    except ValueError:
        raise error(
            f"{path}:{row_number}: score column {column!r} holds {text!r}, "
            f"not a number"
        ) from None
    if not math.isfinite(value):
        raise error(
            f"{path}:{row_number}: score column {column!r} must be finite, "
            f"got {text!r}"
        )
    return value


def _read_tuples(path, reader, headers, key_index, score_indexes, error):
    """The CSV row loop both loaders share: ``(row number, tuple)`` per row.

    ``score_indexes`` are header positions in score-dimension order;
    every column that is neither key nor score becomes payload.
    Malformed rows raise ``error`` pinpointing ``path:row``.
    """
    taken = {key_index, *score_indexes}
    payload_indexes = [i for i in range(len(headers)) if i not in taken]
    for row_number, row in enumerate(reader, start=2):
        if len(row) != len(headers):
            raise error(
                f"{path}:{row_number}: expected {len(headers)} cells, "
                f"got {len(row)}"
            )
        payload = {
            headers[i]: _parse_value(row[i])
            for i in payload_indexes
            if row[i] != ""
        }
        yield row_number, RankTuple(
            key=_parse_value(row[key_index]),
            scores=tuple(
                _score_cell(row[i], path, row_number, headers[i], error)
                for i in score_indexes
            ),
            payload=payload or None,
        )


def load_relation_csv(path, name: str | None = None) -> Relation:
    """Read a relation written by :func:`save_relation_csv`.

    Score columns are recognized by the ``score_`` prefix (in index order);
    all other non-key columns become the payload dict.  A ragged row or a
    score cell that is not a finite number raises
    :class:`~repro.errors.InstanceError` pinpointing ``file:row``.
    """
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            headers = next(reader)
        except StopIteration:
            raise InstanceError(f"{path}: empty file") from None
        if KEY_COLUMN not in headers:
            raise InstanceError(f"{path}: no {KEY_COLUMN!r} column")
        score_indexes = [i for __, i in sorted(
            (int(h[len(SCORE_PREFIX):]), i)
            for i, h in enumerate(headers)
            if h.startswith(SCORE_PREFIX) and h[len(SCORE_PREFIX):].isdigit()
        )]
        tuples = [tup for __, tup in _read_tuples(
            path, reader, headers, headers.index(KEY_COLUMN), score_indexes,
            InstanceError,
        )]
    return Relation(name or path.stem, tuples)


def load_csv(
    path,
    score_col: str | list[str] | tuple[str, ...] = "score",
    *,
    key_col: str = KEY_COLUMN,
    name: str | None = None,
) -> Relation:
    """Load user data from an arbitrary CSV into a :class:`Relation`.

    Unlike :func:`load_relation_csv` (the round-trip reader for files this
    library wrote, with its ``score_i`` naming convention), this loader
    ingests *external* data: ``score_col`` names the column(s) holding the
    tuple's base score(s) — a single name or a list for multi-dimensional
    scoring — and ``key_col`` names the join column.  Every other column
    becomes the payload dict, so loaded relations join on any attribute in
    any-k queries or on ``key`` in the binary operators.

    Validation is strict and one-line: a missing file, absent columns,
    ragged rows, or a score that is not a finite number raises
    :class:`~repro.errors.WorkloadError` pinpointing ``file:row``.
    """
    path = Path(path)
    score_cols = [score_col] if isinstance(score_col, str) else list(score_col)
    if not score_cols:
        raise WorkloadError(f"{path}: need at least one score column")
    try:
        handle = path.open(newline="")
    except OSError as exc:
        raise WorkloadError(
            f"cannot read CSV file {path}: {exc.strerror or exc}"
        ) from exc
    with handle:
        reader = csv.reader(handle)
        try:
            headers = next(reader)
        except StopIteration:
            raise WorkloadError(f"{path}: empty file (no header row)") from None
        missing = [c for c in [key_col, *score_cols] if c not in headers]
        if missing:
            raise WorkloadError(
                f"{path}: missing column(s) {missing}; header has {headers}"
            )
        tuples = []
        for row_number, tup in _read_tuples(
            path, reader, headers, headers.index(key_col),
            [headers.index(c) for c in score_cols], WorkloadError,
        ):
            if tup.key == "":
                raise WorkloadError(
                    f"{path}:{row_number}: empty join key in column {key_col!r}"
                )
            tuples.append(tup)
    if not tuples:
        raise WorkloadError(f"{path}: no data rows")
    return Relation(name or path.stem, tuples)


def save_tables_csv(tables: dict, directory) -> list[Path]:
    """Persist generated TPC-H tables (one CSV per table, keyed naturally)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    natural_keys = {
        "customer": "custkey",
        "orders": "orderkey",
        "lineitem": "orderkey",
        "part": "partkey",
    }
    written = []
    for name, table in tables.items():
        key = natural_keys.get(name, next(iter(table.columns)))
        relation = table.to_relation(key)
        target = directory / f"{name}.csv"
        save_relation_csv(relation, target)
        written.append(target)
    return written
