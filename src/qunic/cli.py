"""The ``qunic`` command: compile one Qunity source file.

    qunic FILE|- [--dump-core] [--no-prelude] [--stats]

``FILE`` is read as UTF-8, and ``-`` reads standard input.  ``--dump-core``
prints the elaborated core, ``--no-prelude`` compiles without the prelude's
definitions, and ``--stats`` prints one JSON object as the last line:

* ``parse_ms``, ``elaborate_ms`` and ``print_ms`` (null without
  ``--dump-core``): the milliseconds of each stage.  Parsing includes the
  prelude, which is parsed once per process.
* ``instantiations``, against ``unroll_budget``: the definitions instantiated,
  and how many the elaborator allows.
* ``core_dag_nodes`` and ``core_tree_nodes``: the distinct nodes of the core,
  and the nodes of the tree it stands for, counted over the DAG.
* ``peak_rss_mb``: the peak resident memory of the ``qunic`` process so far,
  in MiB, from ``resource.getrusage`` (``ru_maxrss`` is in KiB on Linux and
  in bytes on macOS); null where the ``resource`` module does not exist.

The exit status is 0 on success, 1 for an error in the program
(:class:`~qunic.errors.QunityError`) and 2 for a program too large to compile
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
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

try:
    from resource import RUSAGE_SELF, getrusage
except ImportError:  # Windows has no resource module
    getrusage = None

from .core import node_counts, to_str
from .errors import CapacityError, QunityError
from .parser import parse_file
from .preprocess import UNROLL_BUDGET, Elaborator, load_prelude_defs

STACK_BYTES = 512 * 2**20
RECURSION_LIMIT = 200_000
_MAXRSS_PER_MIB = 2**20 if sys.platform == "darwin" else 2**10  # bytes on macOS, KiB on Linux


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="qunic", description="Compile a Qunity source file.")
    ap.add_argument("file", metavar="FILE|-", help="the source file, or - for standard input")
    ap.add_argument("--dump-core", action="store_true", help="print the elaborated core")
    ap.add_argument("--no-prelude", action="store_true", help="compile without the prelude")
    ap.add_argument("--stats", action="store_true", help="print a JSON record of the compile")
    args = ap.parse_args(argv)
    try:
        if args.file == "-":
            source = sys.stdin.read()
        else:
            source = Path(args.file).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"qunic: cannot read {args.file}: {exc}", file=sys.stderr)
        return 1
    try:
        text, stats = _on_deep_stack(
            _compile, source, not args.no_prelude, args.dump_core, args.stats
        )
    except QunityError as exc:
        print(f"qunic: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, CapacityError) else 1
    if text is not None:
        print(text)
    if stats is not None:
        print(json.dumps(stats))
    return 0


def _compile(source: str, use_prelude: bool, dump: bool, stats: bool):
    """The core's text if ``dump``, and the ``--stats`` record if ``stats``."""
    clock = time.perf_counter
    start = clock()
    if use_prelude:
        load_prelude_defs()  # parsed here, so that parse_ms counts it
    qf = parse_file(source)
    parsed = clock()
    elaborator = Elaborator(qf.defs, use_prelude)
    core = elaborator.elaborate(qf.main)
    elaborated = clock()
    text = to_str(core) if dump else None
    printed = clock()
    if not stats:
        return text, None
    dag, tree = node_counts(core)
    return text, {
        "parse_ms": (parsed - start) * 1e3,
        "elaborate_ms": (elaborated - parsed) * 1e3,
        "print_ms": (printed - elaborated) * 1e3 if dump else None,
        "instantiations": elaborator.instantiations,
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
    limit = sys.getrecursionlimit()
    size = threading.stack_size(STACK_BYTES)
    try:
        sys.setrecursionlimit(RECURSION_LIMIT)
        with ThreadPoolExecutor(1, "qunic-pipeline") as worker:
            return worker.submit(fn, *args).result()
    finally:
        sys.setrecursionlimit(limit)
        threading.stack_size(size)


if __name__ == "__main__":
    sys.exit(main())
