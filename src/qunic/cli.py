"""The ``qunic`` command: compile one Qunity source file.

    qunic FILE|- [--dump-tokens] [--dump-surface] [--dump-core] [--no-prelude] [--stats]

``FILE`` and ``-``, standard input, are read as UTF-8, with a leading
byte-order mark dropped, and every dump and error message is written as
UTF-8, whatever the locale.  Each dump prints one stage of the pipeline, in
pipeline order, when that stage ends, so the stages before one that fails are
still printed:

* ``--dump-tokens``: the tokens of ``FILE`` (not the prelude's), one per
  line, as ``line:col``, kind and text (in quotes) separated by tabs, ending
  with the end-of-input token.  ``FILE`` is tokenized for this only when it
  is asked for;
* ``--dump-surface``: the parsed file, definitions and main expression,
  printed by :func:`~qunic.printer.to_str`, which the parser reads back to an
  equal file;
* ``--dump-core``: the elaborated core.

``--no-prelude`` compiles without the prelude's definitions, and ``--stats``
prints one JSON object as the last line:

* ``parse_ms``, ``elaborate_ms`` and ``print_ms`` (null without
  ``--dump-core``): the milliseconds of each stage.  Parsing includes
  splitting the prelude into its definitions and parsing its ``type``
  definitions, once per process; a prelude definition is parsed when a
  compile first reaches it, which counts in ``elaborate_ms``.
* ``prelude_defs_parsed``: how many of the prelude's definitions this
  process has parsed so far.
* ``instantiations``, against ``unroll_budget``: the definitions instantiated,
  and how many the elaborator allows.
* ``regions_reused``: how many times the elaborator returned the kept core of
  a pattern or closed program that reads no generic parameter, instead of
  elaborating it again.
* ``kernel_hits``: how many evaluations of an integer expression its kernel
  answered, instead of elaborating the expression node by node (see
  :func:`qunic.reals.kernel`).  A kernel is built at an expression's second
  evaluation in the process, and kept, so a later compile of the same
  program in one process counts more.
* ``core_dag_nodes`` and ``core_tree_nodes``: the distinct nodes of the core,
  and the nodes of the tree it stands for, counted over the DAG.
* ``peak_rss_mb``: the peak resident memory of the ``qunic`` process so far,
  in MiB, from ``resource.getrusage`` (``ru_maxrss`` is in KiB on Linux and
  in bytes on macOS); null where the ``resource`` module does not exist.

The exit status is 0 on success, 1 for an error in the program
(:class:`~qunic.errors.QunityError`) or for a reader of the output that
quits before its end (a broken pipe, as in ``qunic --dump-core - | head``),
and 2 for a program too large to compile or to print
(:class:`~qunic.errors.CapacityError`).  Any other exception is an internal
error, and ends the command with its traceback.

Every pass is one structural recursion, as deep as the term, so the pipeline
runs on one worker thread with a stack of ``STACK_BYTES`` and a recursion
limit of ``RECURSION_LIMIT``.  A term nested too deeply even for those raises
:class:`~qunic.errors.CapacityError` in the pass that meets it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from pathlib import Path

try:
    from resource import RUSAGE_SELF, getrusage
except ImportError:  # Windows has no resource module
    getrusage = None

from .core import node_counts
from .errors import CapacityError, QunityError
from .lexer import tokenize
from .parser import parse_file
from .preprocess import UNROLL_BUDGET, Elaborator, _prelude_table, prelude_defs_parsed

STACK_BYTES = 512 * 2**20
RECURSION_LIMIT = 200_000
_MAXRSS_PER_MIB = 2**20 if sys.platform == "darwin" else 2**10  # bytes on macOS, KiB on Linux


def main(argv: list[str] | None = None) -> int:
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):  # not when it is closed, nor a StringIO
            stream.reconfigure(encoding="utf-8", errors=stream.errors)
    ap = argparse.ArgumentParser(prog="qunic", description="Compile a Qunity source file.")
    ap.add_argument("file", metavar="FILE|-", help="the source file, or - for standard input")
    ap.add_argument("--dump-tokens", action="store_true", help="print the tokens of FILE")
    ap.add_argument("--dump-surface", action="store_true", help="print the parsed file")
    ap.add_argument("--dump-core", action="store_true", help="print the elaborated core")
    ap.add_argument("--no-prelude", action="store_true", help="compile without the prelude")
    ap.add_argument("--stats", action="store_true", help="print a JSON record of the compile")
    args = ap.parse_args(argv)
    try:
        if args.file == "-":
            if sys.stdin is None:  # None where the command starts with its input closed
                raise OSError("standard input is closed")
            data = sys.stdin.buffer.read()
        else:
            data = Path(args.file).read_bytes()
        source = data.decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        name = os.fsencode(args.file).decode("utf-8", "backslashreplace")  # by its bytes
        reason = getattr(exc, "strerror", None) or exc  # an OSError's, without the name
        print(f"qunic: cannot read {name}: {reason}", file=sys.stderr)
        return 1
    dumps = {stage for stage in ("tokens", "surface", "core") if getattr(args, f"dump_{stage}")}
    try:
        stats = _on_deep_stack(_compile, source, not args.no_prelude, dumps, args.stats)
        if stats is not None:
            print(json.dumps(stats))
        if sys.stdout is not None:  # None where the command starts with its output closed
            sys.stdout.flush()  # so that a broken pipe is met here, not at exit
    except QunityError as exc:
        print(f"qunic: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, CapacityError) else 1
    except BrokenPipeError:
        # The reader has gone: what is left of the output goes to devnull, so
        # that the interpreter's flush at exit finds no broken pipe either.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


def _compile(source: str, use_prelude: bool, dumps: set[str], stats: bool):
    """Print the stages in ``dumps``, ``"tokens"``, ``"surface"`` and
    ``"core"``, each as its stage ends, so an error in a later stage leaves
    the earlier ones printed; return the ``--stats`` record if ``stats``."""
    if "tokens" in dumps:
        print("\n".join(f"{t.line}:{t.column}\t{t.kind}\t{t.text!r}" for t in tokenize(source)))
    clock = time.perf_counter
    start = clock()
    if use_prelude:
        _prelude_table()  # built here, so that parse_ms counts it
    qf = parse_file(source)
    parse_ms = (clock() - start) * 1e3
    if "surface" in dumps:
        from .printer import to_str  # only a dump loads the printer

        print(to_str(qf).removesuffix("\n"))  # print adds the newline
    start = clock()
    elaborator = Elaborator(qf.defs, use_prelude)
    core = elaborator.elaborate(qf.main)
    elaborate_ms = (clock() - start) * 1e3
    print_ms = None
    if "core" in dumps:
        from .printer import to_str

        start = clock()
        text = to_str(core)
        print_ms = (clock() - start) * 1e3
        print(text)
    if not stats:
        return None
    dag, tree = node_counts(core)
    return {
        "parse_ms": parse_ms,
        "elaborate_ms": elaborate_ms,
        "print_ms": print_ms,
        "instantiations": elaborator.instantiations,
        "regions_reused": elaborator.reused,
        "kernel_hits": elaborator.kernel_hits,
        "prelude_defs_parsed": prelude_defs_parsed(),
        "unroll_budget": UNROLL_BUDGET,
        "core_dag_nodes": dag,
        "core_tree_nodes": tree,
        "peak_rss_mb": getrusage(RUSAGE_SELF).ru_maxrss / _MAXRSS_PER_MIB if getrusage else None,
    }


def _on_deep_stack(fn, *args):
    """``fn(*args)``, run on one new thread with a stack of ``STACK_BYTES`` and
    the recursion limit at ``RECURSION_LIMIT``; what it raises is raised here.

    Both settings are the process's own: they are set before the thread
    starts, and restored after it has ended."""
    outcome = []  # (True, the result) or (False, the exception)

    def run():
        try:
            outcome.append((True, fn(*args)))
        except BaseException as exc:
            outcome.append((False, exc))

    limit = sys.getrecursionlimit()
    size = threading.stack_size(STACK_BYTES)
    try:
        sys.setrecursionlimit(RECURSION_LIMIT)
        worker = threading.Thread(target=run, name="qunic-pipeline")
        worker.start()
        worker.join()
    finally:
        sys.setrecursionlimit(limit)
        threading.stack_size(size)
    ok, value = outcome[0]
    if ok:
        return value
    raise value


if __name__ == "__main__":
    sys.exit(main())
