"""The settings in ``pyproject.toml``: warnings are errors, a failing
Hypothesis property still lets every later test report, and every declared
console script exists; every module of ``qunic`` uses what it imports, all
of it from the standard library; and every name that a module of ``qunic``
defines is read somewhere."""

import ast
import collections
import importlib
import pathlib
import subprocess
import sys

import pytest

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY_THEN_PASSING_TEST = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
"""


def test_a_failing_property_lets_later_tests_report(tmp_path):
    (tmp_path / "test_pair.py").write_text(FAILING_PROPERTY_THEN_PASSING_TEST)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
        + ["-c", str(PYPROJECT), str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=300,
    )
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout


def test_every_console_script_is_a_callable():
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


SOURCES = sorted((PYPROJECT.parent / "src" / "qunic").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    # An import marked "# noqa: F401" is kept on purpose for other modules.
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in tree.body:
        future = isinstance(node, ast.ImportFrom) and node.module == "__future__"
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not future:
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in imported.items() if name not in used]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_absolute_import_is_of_the_standard_library(path):
    # pyproject.toml declares no dependency, and no module may need one.
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    stdlib = sys.stdlib_module_names
    outside = sorted(name for name in names if name.partition(".")[0] not in stdlib)
    assert not outside, f"{path.name} imports from outside the standard library: {outside}"


# Defined in qunic but read nowhere yet: ROADMAP item T (the typechecker)
# raises it, with its rule.
_UNREAD_ON_PURPOSE = {("errors.py", "TypeCheckError")}


def _reads(tree) -> collections.Counter:
    """How often each name is read in ``tree``: as a name, or as an attribute
    (``reals.kernel``)."""
    reads = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute):
            reads[node.attr] += 1
    return reads


def test_every_module_level_name_is_read_somewhere():
    # Each function, class and assigned name at the top of a module of qunic
    # is read in src/, tests/ or bench/ outside its own definition, so a
    # leftover table or helper fails here.  A dunder (__version__, a module's
    # __getattr__) is read by Python itself.
    paths = [p for d in ("src", "tests", "bench") for p in (PYPROJECT.parent / d).rglob("*.py")]
    trees = {p: ast.parse(p.read_text()) for p in paths}
    reads = sum((_reads(tree) for tree in trees.values()), collections.Counter())
    unread = set()
    for path in SOURCES:
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            own = _reads(node)
            for name in names:
                if not (name.startswith("__") and name.endswith("__")) and reads[name] == own[name]:
                    unread.add((path.name, name))
    assert unread == _UNREAD_ON_PURPOSE, f"defined but never read: {sorted(unread)}"
