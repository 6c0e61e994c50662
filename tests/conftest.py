"""Fixtures shared by the test modules: the recursion limit for a block or a
module, the depth of the stack, a fresh interpreter to run, a recorder of a
function's calls, and a check that every test leaves the cyclic collector
on."""

import gc
import os
import pathlib
import subprocess
import sys
from contextlib import contextmanager

import pytest

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


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
def default_recursion_limit():
    """Runs a test at the interpreter's default recursion limit; a module
    takes it for every test with ``pytestmark``."""
    with _at_limit(1000):
        yield


@pytest.fixture
def stack_depth():
    """``stack_depth()``, the number of frames on the stack from its caller's
    down, the caller's included."""
    return _depth


@pytest.fixture
def python(tmp_path):
    """``python(*args, input=None, env={}, path=SRC, shell="", popen=False,
    timeout=60)`` runs ``python -W error *args`` in a fresh interpreter, in
    ``tmp_path``, with ``path`` as its ``PYTHONPATH`` and ``env`` over the
    environment, and returns the ``CompletedProcess``, its text read and
    written as UTF-8, within ``timeout`` seconds; ``popen`` returns the
    running ``Popen`` instead, with pipes of bytes.  A ``shell`` redirection,
    such as ``<&-``, runs the interpreter through ``sh`` with it."""

    def run(*args, input=None, env={}, path=SRC, shell="", popen=False, timeout=60):
        argv = [sys.executable, "-W", "error", *args]
        if shell:
            argv = ["sh", "-c", f'exec "$@" {shell}', "sh", *argv]
        options = {"cwd": tmp_path, "env": {**os.environ, "PYTHONPATH": path, **env}}
        if popen:
            pipe = subprocess.PIPE
            return subprocess.Popen(argv, stdin=pipe, stdout=pipe, stderr=pipe, **options)
        return subprocess.run(
            argv, input=input, capture_output=True, encoding="utf-8", timeout=timeout, **options
        )

    return run


@pytest.fixture
def spy(monkeypatch):
    """``spy(owner, name)`` replaces ``owner.name`` for the test with a
    wrapper that calls through, and returns the list of the argument tuples
    of its calls, a method's ``self`` first.  A call is recorded before it
    runs, so one that raises is recorded too."""

    def install(owner, name):
        fn, calls = getattr(owner, name), []

        def call(*args):
            calls.append(args)
            return fn(*args)

        monkeypatch.setattr(owner, name, call)
        return calls

    return install


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
