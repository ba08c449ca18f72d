"""CHANGES.md keeps each PR's entry to at most 1 500 characters.

An entry is a top-level ``- `` bullet with its continuation lines; its
change number is the one after ``- PR``.  Entries numbered below
``FIRST_PR`` predate the rule and are exempt.
"""

import re
from pathlib import Path

CHANGES = Path(__file__).resolve().parents[1] / "CHANGES.md"

#: The first change number the rule holds for, and the longest entry it allows.
FIRST_PR, LIMIT = 26, 1500


def entries() -> list[tuple[int, str]]:
    """``(number, text)`` per entry that names its change number, in file order."""
    found = []
    for text in re.split(r"\n(?=- )", CHANGES.read_text().strip()):
        match = re.match(r"- PR (\d+)", text)
        if match:
            found.append((int(match.group(1)), text))
    return found


def test_every_ruled_entry_is_short():
    ruled = [(pr, len(text)) for pr, text in entries() if pr >= FIRST_PR]
    assert ruled, "no CHANGES.md entry is under the rule"
    assert [entry for entry in ruled if entry[1] > LIMIT] == []
