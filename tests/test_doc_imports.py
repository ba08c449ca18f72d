"""Every ``from repro… import …`` line in the python blocks of README.md and
``docs/*.md`` resolves, and so does every reference in their prose: a
backticked dotted ``repro.…`` name (README.md, ``docs/*.md``) and a
backticked ``repro/….py`` path (those and DESIGN.md).  A documented module,
name or file that was renamed or deleted fails here, not in a reader's
session."""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)
IMPORT = re.compile(r"^\s*from (repro[\w.]*) import \(?([^)\n]*)", re.MULTILINE)
DOTTED = re.compile(r"`(repro(?:\.\w+)+)")
PATH = re.compile(r"\brepro/[\w/]+\.py\b")
SPAN = re.compile(r"`([^`\n]+)`")


def documented_imports():
    """``(id, module, names)`` for each import line of each python block."""
    for doc in DOCS:
        text = doc.read_text()
        for block in BLOCK.finditer(text):
            for line in IMPORT.finditer(block.group(1)):
                names = [part.split(" as ")[0].strip()
                         for part in line.group(2).split(",")]
                lineno = text.count("\n", 0, block.start(1) + line.start()) + 1
                yield (f"{doc.name}:{lineno}", line.group(1),
                       [name for name in names if name])


IMPORTS = list(documented_imports())


def test_the_docs_have_imports_to_check():
    assert {case[0].split(":")[0] for case in IMPORTS} >= {"README.md", "TUTORIAL.md"}


@pytest.mark.parametrize(
    "module, names", [case[1:] for case in IMPORTS], ids=[case[0] for case in IMPORTS]
)
def test_documented_import_resolves(module, names):
    imported = importlib.import_module(module)
    for name in names:
        if not hasattr(imported, name):
            importlib.import_module(f"{module}.{name}")  # a submodule


def prose_references(docs, pattern, within=None):
    """``(id, reference)`` for each match of ``pattern`` in ``docs`` — in
    the text, or in each match of ``within`` when given."""
    for doc in docs:
        text = doc.read_text()
        spans = within.finditer(text) if within else [None]
        for span in spans:
            start = span.start(1) if span else 0
            chunk = span.group(1) if span else text
            for match in pattern.finditer(chunk):
                lineno = text.count("\n", 0, start + match.start()) + 1
                reference = match.group(match.lastindex or 0)
                yield f"{doc.name}:{lineno}:{reference}", reference


NAMES = list(prose_references(DOCS, DOTTED))
PATHS = list(prose_references([*DOCS, ROOT / "DESIGN.md"], PATH, within=SPAN))


def test_the_prose_has_references_to_check():
    assert len(NAMES) >= 80 and len(PATHS) >= 25


@pytest.mark.parametrize("name", [case[1] for case in NAMES], ids=[case[0] for case in NAMES])
def test_documented_name_resolves(name):
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):  # the longest importable module
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            found = getattr(found, attribute)
        return


@pytest.mark.parametrize("path", [case[1] for case in PATHS], ids=[case[0] for case in PATHS])
def test_documented_path_exists(path):
    assert (ROOT / "src" / path).is_file()
