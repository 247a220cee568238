"""The public names the demos and the README rely on must exist.

No test runs the demos, so without this check removing a name from the
package could break them silently.  The scripts are parsed, not run.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import mixcox

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_python_blocks():
    text = (ROOT / "README.md").read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def mixcox_imports(source):
    """(module, name) for every ``from mixcox[.sub] import name``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "mixcox":
            found.extend((node.module, alias.name) for alias in node.names)
    return found


SOURCES = [(path.name, path.read_text()) for path in DEMOS] + [
    (f"README.md python block {i}", block)
    for i, block in enumerate(readme_python_blocks(), start=1)
]


def test_sources_found():
    assert len(DEMOS) >= 3
    assert readme_python_blocks()


@pytest.mark.parametrize("label,source", SOURCES, ids=[label for label, _ in SOURCES])
def test_imported_names_exist(label, source):
    imports = mixcox_imports(source)
    assert imports, f"{label} imports nothing from mixcox"
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), \
            f"{label}: {module} has no {name}"


def test_all_entries_resolve():
    missing = [name for name in mixcox.__all__ if not hasattr(mixcox, name)]
    assert not missing
    assert len(set(mixcox.__all__)) == len(mixcox.__all__)
