"""Every name a module of the package imports is read somewhere in it."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "horocorr").glob("*.py"))


def unused_imports(source):
    """Names that the import statements of source bind and nothing in it reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
    # attribute chains such as np.linalg.norm read their root as a Name
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_sources_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "analysis.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_guard_flags_an_unused_name():
    source = ("import os\nimport numpy as np\nfrom math import pi, tau\n"
              "from a.b import c as d\nx = np.linalg.norm(pi)\n")
    assert unused_imports(source) == ["d", "os", "tau"]
