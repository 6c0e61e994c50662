"""One run of a workload's op list, in a fresh process.

    python3 bench/worker.py --workload NAME --seed N --seconds S --mode plain|traced

``plain`` times every op in ``PASSES`` passes over the list, with nothing
hooked, and gives the end-to-end figures.  ``traced`` makes one pass with
the span hooks installed, timing each op both with the hooks active and,
just before, with them passing calls straight through, and also times
``hash`` and ``==`` on the result; then it runs every eighth op again under
``tracemalloc`` for the per-layer peaks, and finally the workload's oversized
probes.  Both modes check every op's output (untimed) and print one JSON
object as the last line.  ``qunic`` and this directory must be importable
(``run.py`` puts both on ``PYTHONPATH``).

One process, one thread, one client in a closed loop: the next op starts when
the previous one and its checks are done.  The recursion limit is the
interpreter's default.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import time
import tracemalloc
from collections import Counter

from qunic import core, preprocess

import calibrate
import checks
import workloads
from tracing import LAYERS, Tracer

PASSES = 3
REF_S = calibrate.REF_MS / 1e3


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile by nearest rank; failed ops are +inf and sort last."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def compile_op(op: workloads.Op, tracer: Tracer | None = None):
    """The timed operation: compile, and print the core on the --dump-core path."""
    if tracer is None:
        c = preprocess.core_of_source(op.source)
        return c, core.core_expr_to_str(c) if op.dump else None
    c = tracer.call("preprocess", "core_of_source", preprocess.core_of_source, op.source)
    text = tracer.call("core", "core_expr_to_str", core.core_expr_to_str, c) if op.dump else None
    return c, text


def check_op(op: workloads.Op, c) -> list[str]:
    problems = checks.closure_problems(c)
    if not checks.round_trips(op.source):
        problems.append("source does not survive print -> parse")
    return problems


def preflight(families) -> list[str]:
    """Compare the smallest instance of each family with its hand-written core."""
    problems = []
    for family in families:
        params, expected = checks.EXPECTED[family]
        got = preprocess.core_of_source(workloads.source(family, 1, params))
        if not checks.alpha_equal(got, expected(params)):
            problems.append(f"{family} at n = 1 differs from its hand-written core")
    return problems


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_ops(ops, tracer: Tracer | None, report: dict, shapes=None, refs=None, untraced=None):
    """One timed pass; returns latencies in seconds, +inf for a failed op.

    Without ``shapes``, every output is checked and its shape recorded in
    ``report["shapes"]``; with them, each op must reproduce its recorded
    shape.  With ``refs``, the reference workload is timed before every op
    and once after the last, into ``refs``.  With ``untraced``, each op is
    first compiled with no tracer active, timed into ``untraced``; then
    ``hash`` of the traced result and ``==`` against that independent compile
    are timed, and the two shapes must agree.
    """
    latencies = []
    for i, op in enumerate(ops):
        found = []
        if untraced is not None:
            gc.collect()
            start = time.perf_counter()
            try:
                other = compile_op(op)[0]
                untraced.append(time.perf_counter() - start)
            except Exception:  # the traced compile below records the failure
                other = None
                untraced.append(math.inf)
        # Every op starts from a collected heap, as in a fresh process, so
        # that garbage left by the previous op is not charged to this one.
        gc.collect()
        if refs is not None:
            refs.append(calibrate.reference_seconds())
        if tracer is not None:
            tracer.failed_layer = None
            tracer.active = True
        start = time.perf_counter()
        try:
            c, text = compile_op(op, tracer)
        except Exception as exc:  # the op failed; record it and go on with the next
            latencies.append(math.inf)
            report["failures"][(type(exc).__name__, tracer.failed_layer if tracer else None)] += 1
            if shapes is None:
                report["shapes"].append(None)
            continue
        finally:
            if tracer is not None:
                tracer.active = False
        latencies.append(time.perf_counter() - start)

        shape = checks.core_shape(c)
        if shapes is None:
            found += check_op(op, c)
            report["shapes"].append(shape)
            report["dump_chars"] += len(text) if text is not None else 0
        elif shapes[i] != shape:
            found.append("a second compile gives a different core shape")
        if untraced is not None:
            if other is None or checks.core_shape(other) != shape:
                found.append("an untraced compile gives a different result")
            else:
                _time_hash_eq(c, other, report)
        if found:
            latencies[-1] = math.inf
            report["problems"].extend(f"op {i} ({op.family} n={op.n}): {p}" for p in found)
    if refs is not None:
        gc.collect()
        refs.append(calibrate.reference_seconds())
    return latencies


def _time_hash_eq(c, again, report: dict) -> None:
    """Cost of one hash() of the root, and of == between two independent compiles."""
    try:
        report["hash_s"].append(_timed(lambda: hash(c)))
    except RecursionError:
        report["hash_errors"] += 1
    try:
        report["eq_s"].append(_timed(lambda: c == again))
    except RecursionError:
        report["eq_errors"] += 1


def new_report() -> dict:
    return {
        "problems": [],
        "failures": Counter(),
        "shapes": [],
        "dump_chars": 0,
        "hash_s": [],
        "eq_s": [],
        "hash_errors": 0,
        "eq_errors": 0,
    }


def plain(workload: workloads.Workload, ops) -> dict:
    report = new_report()
    report["problems"] += preflight({op.family for op in ops})
    # Each op runs once in each of PASSES passes over the list, seconds apart,
    # with the reference workload timed on either side of it (calibrate.py).
    # Its latency is taken from the pass in which the machine ran fastest, by
    # the reference, and scaled to the reference speed.  Later passes also
    # check that every op compiles again to the same shape.
    calibrate.warm_reference_seconds()
    samples: list[list[tuple[float, float]]] = []  # per pass: (op time, reference time)
    for p in range(PASSES):
        refs: list[float] = []
        raw = run_ops(ops, None, report, shapes=report["shapes"] if p else None, refs=refs)
        samples.append([(t, (a + b) / 2) for t, a, b in zip(raw, refs, refs[1:])])
    chosen = [
        math.inf if any(t == math.inf for t, _ in per_op) else min(per_op, key=lambda s: s[1])
        for per_op in zip(*samples)
    ]
    latencies = [c if c == math.inf else c[0] * REF_S / c[1] for c in chosen]
    done = [t for t in latencies if t != math.inf]
    metrics = {
        "op_ms.p50": (nearest_rank(latencies, 0.5) * 1e3, "ms"),
        "op_ms.p90": (nearest_rank(latencies, 0.9) * 1e3, "ms"),
        "ops_per_s": (len(done) / sum(done) if done else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "core_dag_nodes": (sum(sh.dag_nodes for sh in report["shapes"] if sh), "count"),
    }
    return _result(ops, latencies, report, metrics)


def traced(workload: workloads.Workload, ops, seed: int) -> dict:
    report = new_report()
    report["problems"] += preflight({op.family for op in ops})
    # Each op also runs untraced just before its traced run, as the base of
    # the tracing overhead; the reference workload shows how fast the machine ran.
    untraced: list[float] = []
    refs: list[float] = []
    tracer = Tracer()
    tracer.install()
    try:
        latencies = run_ops(ops, tracer, report, refs=refs, untraced=untraced)
    finally:
        tracer.uninstall()

    mem = Tracer(memory=True)
    mem.install()
    tracemalloc.start()
    try:
        for op in ops[::8]:
            mem.active = True
            try:
                compile_op(op, mem)
            except Exception:  # counted in the timed pass already
                pass
            finally:
                mem.active = False
    finally:
        tracemalloc.stop()
        mem.uninstall()

    failures = Counter(report["failures"])
    probes = workloads.probe_list(workload, seed)
    if probes:
        probe_tracer = Tracer()
        probe_tracer.install()
        try:
            probe_report = new_report()
            run_ops(probes, probe_tracer, probe_report)
            failures.update(probe_report["failures"])
        finally:
            probe_tracer.uninstall()

    n = len(ops)
    shapes = [sh for sh in report["shapes"] if sh]
    counts = tracer.counts
    per_op = lambda x: x / n  # noqa: E731
    done = [t for t in latencies if t != math.inf]
    mean_ms = lambda xs: 1e3 * sum(xs) / len(xs) if xs else 0.0  # noqa: E731
    metrics = {
        "lexer.self_ms": (per_op(tracer.self_s["lexer"] * 1e3), "ms"),
        "lexer.calls": (per_op(counts["tokenize"]), "count"),
        "lexer.tokens": (per_op(counts["tokens"]), "count"),
        "parser.self_ms": (per_op(tracer.self_s["parser"] * 1e3), "ms"),
        "parser.calls": (per_op(counts["parse_file"]), "count"),
        "prelude.ms": (per_op(tracer.total_s["load_prelude_defs"] * 1e3), "ms"),
        "prelude.loads": (per_op(counts["load_prelude_defs"]), "count"),
        "preprocess.self_ms": (per_op(tracer.self_s["preprocess"] * 1e3), "ms"),
        "preprocess.instantiations": (per_op(counts["instantiations"]), "count"),
        "preprocess.memo_hits": (per_op(counts["memo_hits"]), "count"),
        "reals.self_ms": (per_op(tracer.self_s["reals"] * 1e3), "ms"),
        "reals.calls": (
            per_op(counts["as_rational"] + counts["as_pi_multiple"] + counts["evaluate_bool"]),
            "count",
        ),
        "reals.max_bits": (tracer.max_bits, "bits"),
        "core.dump_ms": (per_op(tracer.total_s["core_expr_to_str"] * 1e3), "ms"),
        "core.dump_chars": (per_op(report["dump_chars"]), "count"),
        "core.tree_nodes": (per_op(sum(sh.tree_nodes for sh in shapes)), "count"),
        "core.share": (
            sum(sh.tree_nodes for sh in shapes) / max(1, sum(sh.dag_nodes for sh in shapes)),
            "ratio",
        ),
        "core.depth": (max((sh.depth for sh in shapes), default=0), "count"),
        "core.hash_ms": (mean_ms(report["hash_s"]), "ms"),
        "core.eq_ms": (mean_ms(report["eq_s"]), "ms"),
        "core.hash_errors": (report["hash_errors"], "count"),
        "core.eq_errors": (report["eq_errors"], "count"),
        **{f"{layer}.peak_kb": (mem.peak_b[layer] / 1024, "KiB") for layer in LAYERS},
        "failed.RecursionError": (_count(failures, "RecursionError"), "count"),
        "failed.CapacityError": (_count(failures, "CapacityError"), "count"),
        "failed.other": (
            sum(k for (cls, _), k in failures.items() if cls not in ("RecursionError", "CapacityError")),
            "count",
        ),
        **{
            f"failed.layer.{layer}": (sum(k for (_, at), k in failures.items() if at == layer), "count")
            for layer in LAYERS
        },
        "trace.op_ms.p50": (nearest_rank(latencies, 0.5) * 1e3, "ms"),
        "trace.overhead_ms": (
            (nearest_rank(latencies, 0.5) - nearest_rank(untraced, 0.5)) * 1e3,
            "ms",
        ),
        "trace.coverage": (sum(tracer.self_s.values()) / sum(done) if done else 0.0, "ratio"),
        "trace.hooks_absent": (len(tracer.absent), "count"),
        "speed.ref_ms": (statistics.median(refs) * 1e3, "ms"),
    }
    return _result(ops, latencies, report, metrics)


def _count(failures: Counter, cls: str) -> int:
    return sum(k for (c, _), k in failures.items() if c == cls)


def _result(ops, latencies, report: dict, metrics: dict) -> dict:
    failed = sum(1 for t in latencies if t == math.inf)
    return {
        "correct": not report["problems"] and failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "problems": report["problems"][:20],
        "failures": [f"{cls} in {at}" for (cls, at) in report["failures"]],
        "metrics": {
            name: {"value": None if v == math.inf else v, "unit": unit}
            for name, (v, unit) in metrics.items()
        },
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("plain", "traced"))
    args = ap.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    ops = workloads.op_list(workload, args.seed, args.seconds)
    if args.mode == "plain":
        result = plain(workload, ops)
    else:
        result = traced(workload, ops, args.seed)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
