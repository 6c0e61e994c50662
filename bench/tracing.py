"""Spans and counters at the module boundaries of the front end.

Hooks replace module attributes (``parser.tokenize``, ``preprocess.parse_file``
and so on) with wrappers, so nothing under ``src/`` changes.  Only functions
that do not call themselves are wrapped; recursive ones (the core printer,
``hash``, ``==``) are timed around the benchmark's own outer call.  A hook
whose target no longer exists is counted as absent and skipped.

A span records its layer and duration; a layer's self time is the duration
of its spans minus the time of the spans nested inside them.  With
``memory=True`` each span also records the ``tracemalloc`` peak above its
starting level (children included); ``tracemalloc`` must then be running.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import Counter, defaultdict
from fractions import Fraction

from qunic import parser, preprocess

LAYERS = ("lexer", "parser", "preprocess", "reals", "core")


def _bits(q) -> int:
    if isinstance(q, Fraction):
        return max(q.numerator.bit_length(), q.denominator.bit_length())
    return 0


class _CountingMemo(dict):
    """The Elaborator's memo table, counting lookups at instantiation entry."""

    def __init__(self, tracer: "Tracer", items: dict) -> None:
        super().__init__(items)
        self._tracer = tracer

    def __contains__(self, key) -> bool:
        hit = dict.__contains__(self, key)
        if self._tracer.active:
            self._tracer.counts["memo_hits" if hit else "instantiations"] += 1
        return hit


class Tracer:
    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.active = False
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)  # inclusive, by span name
        self.counts: Counter[str] = Counter()  # calls by hooked name, and named counts
        self.peak_b: defaultdict[str, int] = defaultdict(int)
        self.max_bits = 0
        self.failed_layer: str | None = None  # innermost layer an exception left
        self.absent: list[str] = []
        self._stack: list[list] = []  # [layer, name, start, child seconds, base bytes, peak bytes]
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------------

    def enter(self, layer: str, name: str) -> list:
        base = peak = 0
        if self.memory:
            base, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent[5] = max(parent[5], peak)
            tracemalloc.reset_peak()
            peak = base
        span = [layer, name, time.perf_counter(), 0.0, base, peak]
        self._stack.append(span)
        return span

    def exit(self, span: list, failed: bool = False) -> None:
        end = time.perf_counter()
        # Spans above this one were left open by a RecursionError raised in
        # their own bookkeeping; they are dropped.
        while self._stack.pop() is not span:
            pass
        layer, name, start, child, base, peak = span
        dur = end - start
        self.self_s[layer] += dur - child
        self.total_s[name] += dur
        if failed and self.failed_layer is None:
            self.failed_layer = layer
        if self._stack:
            self._stack[-1][3] += dur
        if self.memory:
            peak = max(peak, tracemalloc.get_traced_memory()[1])
            self.peak_b[layer] = max(self.peak_b[layer], peak - base)
            if self._stack:
                self._stack[-1][5] = max(self._stack[-1][5], peak)
            tracemalloc.reset_peak()

    def call(self, layer: str, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span; used for the benchmark's own calls."""
        span = self.enter(layer, name)
        try:
            result = fn(*args)
        except BaseException:
            self.exit(span, failed=True)
            raise
        self.exit(span)
        return result

    # -- hooks ------------------------------------------------------------------

    def _wrap(self, module, attr: str, layer: str, observe=None) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.append(f"{module.__name__}.{attr}")
            return
        counts = self.counts

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            counts[attr] += 1
            # Inlined rather than through call(): one frame fewer on every
            # hooked call, so a RecursionError is raised where it would be
            # without tracing.
            span = self.enter(layer, attr)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.exit(span, failed=True)
                raise
            self.exit(span)
            if observe is not None:
                observe(result)
            return result

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, fn))

    def _observe_tokens(self, tokens) -> None:
        self.counts["tokens"] += len(tokens)

    def _observe_real(self, q) -> None:
        self.max_bits = max(self.max_bits, _bits(q))

    def install(self) -> None:
        self._wrap(parser, "tokenize", "lexer", self._observe_tokens)
        self._wrap(preprocess, "parse_file", "parser")
        self._wrap(preprocess, "load_prelude_defs", "preprocess")
        self._wrap(preprocess, "elaborate_file", "preprocess")
        for attr in ("as_rational", "as_pi_multiple", "evaluate_bool"):
            self._wrap(preprocess, attr, "reals", self._observe_real)
        self._hook_memo()

    def _hook_memo(self) -> None:
        cls = getattr(preprocess, "Elaborator", None)
        if cls is None:
            self.absent.append("preprocess.Elaborator")
            return

        def make(*args, **kwargs):
            el = cls(*args, **kwargs)
            if self.active and type(getattr(el, "_memo", None)) is dict:
                el._memo = _CountingMemo(self, el._memo)
            return el

        preprocess.Elaborator = make
        self._undo.append((preprocess, "Elaborator", cls))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)
