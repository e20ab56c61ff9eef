"""Static checks on the library sources."""

import ast
import importlib
from pathlib import Path

import pytest

import psdnorm

PACKAGE = Path(psdnorm.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_checker_flags_an_unused_name():
    source = "from dataclasses import dataclass, field\nimport numpy as np\n" \
             "x = np.zeros(1)\n@dataclass\nclass A:\n    pass\n"
    assert unused_imports(source) == ["field (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def traced_names() -> list[str]:
    """The ``module.function`` keys of ``TRACED`` in the benchmark's tracer,
    read without importing the benchmark."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "TRACED" for t in targets):
                return [ast.literal_eval(key) for key in node.value.keys]
    raise AssertionError(f"no TRACED mapping in {TRACER}")


@pytest.mark.parametrize("name", traced_names())
def test_benchmark_traced_function_exists(name):
    module, function = name.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(f"psdnorm.{module}"), function, None))
