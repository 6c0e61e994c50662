"""The settings in ``pyproject.toml``: warnings are errors, a failing
Hypothesis property still lets every later test report, and every declared
console script exists."""

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
