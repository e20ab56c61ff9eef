"""Static checks on the library sources."""

import ast
import importlib
from pathlib import Path

import pytest

import psdnorm

PACKAGE = Path(psdnorm.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
TOOLS = sorted((ROOT / "tools").glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TOOLS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def two_sided_ffts(source: str) -> list[str]:
    """Calls of ``np.fft.fft`` or ``np.fft.ifft``: every spectrum in the
    library is the one-sided spectrum of a real signal, so it uses
    ``rfft``/``irfft``."""
    return sorted(f"np.fft.{node.func.attr} (line {node.lineno})"
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("fft", "ifft")
                  and isinstance(node.func.value, ast.Attribute)
                  and node.func.value.attr == "fft")


def test_checker_flags_a_two_sided_fft():
    source = "import numpy as np\ny = np.fft.ifft(np.fft.fft(x)).real\n" \
             "z = np.fft.irfft(np.fft.rfft(x))\n"
    assert two_sided_ffts(source) == ["np.fft.fft (line 2)", "np.fft.ifft (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_two_sided_fft(path):
    assert two_sided_ffts(path.read_text()) == []


def callers(source: str, callee: str) -> set[str]:
    """The top-level functions and classes of a module that call ``callee``,
    as a bare name or an attribute (a dotted ``callee``, such as
    ``np.isfinite``, only as written); "<module>" for a call outside them."""
    found = set()
    for node in ast.parse(source).body:
        owner = (node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 else "<module>")
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                func = sub.func
                name = (ast.unparse(func) if "." in callee else
                        func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute) else None)
                if name == callee:
                    found.add(owner)
    return found


def test_checker_finds_the_callers():
    source = "def a():\n    return g(1)\ndef b():\n    return m.g(2)\n" \
             "def c():\n    return g\nx = g(3)\n"
    assert callers(source, "g") == {"a", "b", "<module>"}


def test_checker_finds_a_dotted_callee_as_written():
    source = "def a(x):\n    return np.all(np.isfinite(x))\n" \
             "def b(v):\n    return math.isfinite(v)\n"
    assert callers(source, "np.isfinite") == {"a"}


def test_running_update_is_called_only_by_psdnorm_update():
    """The running barycenter is stepped in one place: every layer, TMA and
    the benchmark reach it through ``psdnorm_update``."""
    owners = set().union(*(callers(p.read_text(), "running_update") for p in MODULES))
    assert owners == {"psdnorm_update"}


def test_rows_come_only_from_the_row_walk():
    """A caller's (..., l) array becomes rows in one place,
    ``spectral._row_chunks``, which copies no batch whole whatever its
    layout: the row means, Welch and the filter read their rows only from
    it."""
    owners = {(p.stem, owner) for p in MODULES
              for owner in callers(p.read_text(), "_row_chunks")}
    assert owners == {("spectral", "_row_means"), ("spectral", "_welch_raw"),
                      ("monge", "_filter")}


def test_signals_are_filtered_only_by_the_one_filter_kernel():
    """One filter kernel, ``monge._filter``, serves the layer, TMA, ``align``
    and the benchmark: ``apply_mapping`` (``align``), the forward's in-place
    pass (the layer and TMA) and ``DomainSpec``'s mapped PSDs are its only
    callers."""
    owners = {(p.stem, owner) for p in MODULES
              for owner in callers(p.read_text(), "_filter")}
    assert owners == {("monge", "apply_mapping"), ("layers", "_forward_in_place"),
                      ("synth", "DomainSpec")}


def test_np_isfinite_is_called_only_by_check_finite():
    """Finiteness has one test, which keeps its masks within BUDGET_BYTES:
    every entry point reaches ``np.isfinite`` through
    ``spectral.check_finite``.  ``math.isfinite`` tests scalars."""
    owners = {(p.stem, owner) for p in MODULES
              for owner in callers(p.read_text(), "np.isfinite")}
    assert owners == {("spectral", "check_finite")}


def test_psds_are_checked_only_where_they_enter():
    """A PSD is checked where it enters the library: a layer's barycenter,
    ``monge_filter``'s operands, a generating or base PSD of the benchmark,
    and the geometry's public operands.  The forward, TMA and
    ``evaluate_alignment`` hand the PSDs they build to private cores, so a
    re-check of one of them would show here."""
    owners = {(p.stem, owner) for p in MODULES for callee in ("check_psd", "check_positive")
              for owner in callers(p.read_text(), callee)}
    assert owners == {("layers", "PsdNormLayer"), ("monge", "monge_filter"),
                      ("synth", "DomainSpec"), ("synth", "make_shifted_domains"),
                      ("spectral", "check_psd"), ("geometry", "bures_distance"),
                      ("geometry", "geodesic_interpolate"), ("geometry", "running_update"),
                      ("geometry", "wasserstein_barycenter")}


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


def error_classes(sources: list[str]) -> dict[str, list[str]]:
    """Each top-level class of the given modules that derives, through the
    classes of those modules, from ``PsdNormError``, with its base names."""
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for source in sources for node in ast.parse(source).body
             if isinstance(node, ast.ClassDef)}
    errors = {"PsdNormError"}
    while grown := {name for name, names in bases.items()
                    if name not in errors and errors.intersection(names)}:
        errors |= grown
    return {name: bases[name] for name in errors if name in bases}


def leaf_error_classes(sources: list[str]) -> list[str]:
    """The error classes of ``sources`` that no other class extends."""
    classes = error_classes(sources)
    extended = {base for names in classes.values() for base in names}
    return sorted(name for name in classes if name not in extended)


def raised_names(source: str) -> set[str]:
    """Names raised as ``raise Name(...)`` or ``raise Name``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_checker_finds_leaf_errors_and_raises():
    errors = "class PsdNormError(Exception):\n    pass\n" \
             "class ShapeError(PsdNormError):\n    pass\n" \
             "class ChannelError(ShapeError):\n    pass\nclass Other:\n    pass\n"
    assert leaf_error_classes([errors]) == ["ChannelError"]
    user = "def f(x):\n    if x:\n        raise ShapeError('no')\n    raise Other\n"
    assert raised_names(user) == {"ShapeError", "Other"}


def test_every_leaf_error_class_is_raised():
    leaves = leaf_error_classes([(PACKAGE / name).read_text()
                                 for name in ("errors.py", "io.py")])
    raised = set().union(*(raised_names(p.read_text()) for p in MODULES))
    assert {"ShapeMismatchError", "StateFileError"} <= set(leaves)  # found any
    assert [name for name in leaves if name not in raised] == []


def exported_names() -> list[str]:
    """Names that ``psdnorm/__init__.py`` imports from its submodules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return sorted(alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  for alias in node.names)


def referenced_names(source: str) -> set[str]:
    """Names a module reads, as bare names or attributes, outside the body
    of the top-level function or class that defines them."""
    names = set()
    for node in ast.parse(source).body:
        own = (node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               else None)
        for sub in ast.walk(node):
            name = (sub.id if isinstance(sub, ast.Name) else
                    sub.attr if isinstance(sub, ast.Attribute) else None)
            if name is not None and name != own:
                names.add(name)
    return names


def test_every_export_is_used_outside_the_tests():
    users = [*MODULES, *TRACER.parent.glob("*.py")]  # the library and perfbench
    used = set().union(*(referenced_names(p.read_text()) for p in users))
    assert [name for name in exported_names() if name not in used] == []


def unused_private_names(sources: list[str]) -> list[str]:
    """Top-level ``_name`` functions, classes and assignments of the given
    modules that no module reads outside the definition itself."""
    defined, read = set(), set()
    for source in sources:
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                own = {t.id for t in targets if isinstance(t, ast.Name)}
            else:
                own = set()
            defined |= {name for name in own
                        if name.startswith("_") and not name.startswith("__")}
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                else:
                    continue
                if name not in own:
                    read.add(name)
    return sorted(defined - read)


def test_checker_flags_an_unused_private_helper():
    first = "_LIMIT = 3\n_SEEN = 0\ndef _used(x):\n    return x + _LIMIT\n" \
            "def _unused(x):\n    return _unused(x - 1)\nclass _Spare:\n    pass\n"
    second = "from .first import _used\n__version__ = '1'\ny = _used(1)\n"
    assert unused_private_names([first, second]) == ["_SEEN", "_Spare", "_unused"]


def test_every_private_helper_is_used():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unused_private_names(sources) == []
