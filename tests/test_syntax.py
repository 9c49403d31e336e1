"""Every Python file of the package, its tests and its benchmark parses as
Python 3.10, the oldest version that pyproject.toml and CI's matrix name."""

import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SOURCES = sorted(p for d in ("src", "tests", "bench") for p in (_ROOT / d).rglob("*.py"))


def test_the_sources_are_found():
    assert {"numerics.py", "test_syntax.py", "run.py"} <= {p.name for p in _SOURCES}


@pytest.mark.parametrize("path", _SOURCES, ids=lambda p: str(p.relative_to(_ROOT)))
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
