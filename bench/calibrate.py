"""A fixed reference workload that measures how fast the machine runs right now.

On a shared machine the CPU can run 1.3 to 1.9 times slower for tens of
seconds at a time, while other tenants load it; the process is not
descheduled, so CPU time slows down just as much as wall time.  The
benchmark therefore times this reference next to every timed op and scales
the op's time by ``REF_MS / reference time``.  The reference is a small
tokenizer and recursive-descent parser that builds and hashes frozen
dataclass nodes, the same kind of work the compiler does, so it slows down
by nearly the same factor; it never imports ``qunic``, so no change to the
compiler moves it.

``REF_MS`` is the reference's time on an idle 2-core x86-64 VM at 2.0 GHz
under CPython 3.11; on such a machine scaled times equal raw times.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

REF_MS = 3.5


@dataclass(frozen=True)
class _Num:
    value: int


@dataclass(frozen=True)
class _Bin:
    op: str
    left: object
    right: object


_TEXT = " ".join(f"({i} + {i % 7} * ({i % 5} - {i % 3}))" for i in range(300))


def _lex(s: str) -> list[tuple[str, str]]:
    toks, i, n = [], 0, len(s)
    while i < n:
        c = s[i]
        if c == " ":
            i += 1
        elif c.isdigit():
            j = i
            while j < n and s[j].isdigit():
                j += 1
            toks.append(("num", s[i:j]))
            i = j
        else:
            toks.append(("op", c))
            i += 1
    return toks


def _parse(toks: list[tuple[str, str]]) -> list:
    pos = 0

    def atom():
        nonlocal pos
        kind, text = toks[pos]
        pos += 1
        if kind == "num":
            return _Num(int(text))
        e = add()
        pos += 1  # ")"
        return e

    def mul():
        nonlocal pos
        e = atom()
        while pos < len(toks) and toks[pos] == ("op", "*"):
            pos += 1
            e = _Bin("*", e, atom())
        return e

    def add():
        nonlocal pos
        e = mul()
        while pos < len(toks) and toks[pos][1] in "+-":
            op = toks[pos][1]
            pos += 1
            e = _Bin(op, e, mul())
        return e

    out = []
    while pos < len(toks):
        out.append(add())
    return out


def reference_seconds() -> float:
    """Time one run of the reference workload."""
    start = time.perf_counter()
    hash(tuple(_parse(_lex(_TEXT))))
    return time.perf_counter() - start


def warm_reference_seconds(runs: int = 5) -> float:
    """Fastest of a few runs, so that a fresh process's first, slower runs do not count."""
    return min(reference_seconds() for _ in range(runs))
