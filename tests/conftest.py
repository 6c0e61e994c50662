"""Fixtures shared by the test modules: the recursion limit for a block, the
depth of the stack, and a check that every test leaves the cyclic collector
on."""

import gc
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


@pytest.fixture(autouse=True)
def _collector_left_on():
    """Fails a test that ends with the cyclic garbage collector off, and
    turns it on again.  Elaboration and printing pause the collector and must
    turn it on again on every exit: a missing ``finally`` or an early return
    would leave it off for the rest of the process."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test ended with the cyclic garbage collector disabled")
