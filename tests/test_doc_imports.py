"""Every ``from repro… import …`` line in the python blocks of README.md and
``docs/*.md`` resolves: a documented import of a module or name that was
renamed or deleted fails here, not in a reader's session."""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)
IMPORT = re.compile(r"^\s*from (repro[\w.]*) import \(?([^)\n]*)", re.MULTILINE)


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
