"""Fixtures shared by the test modules: the recursion limit for a block, and
the depth of the stack."""

import sys
from contextlib import contextmanager

import pytest


@contextmanager
def _at_limit(limit: int):
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(saved)


def _depth() -> int:
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.fixture
def recursion_limit():
    """``recursion_limit(n)``, a context manager that runs its block at the
    interpreter's recursion limit ``n`` and restores the limit after it."""
    return _at_limit


@pytest.fixture
def stack_depth():
    """``stack_depth()``, the number of frames on the stack from its caller's
    down, the caller's included."""
    return _depth
