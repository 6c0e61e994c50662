"""Tests of the benchmark itself: inputs, checks, tracing hooks and metric names.

Run with ``python3 -m pytest bench``.  They use one round of each workload
(``--seconds 1``), which visits every cell once.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import checks
import run
import worker
import workloads
from qunic import preprocess
from tracing import Tracer

SEED = 1
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_op_list_is_a_function_of_seed_and_seconds():
    for w in workloads.WORKLOADS.values():
        ops = workloads.op_list(w, SEED, 10)
        assert ops == workloads.op_list(w, SEED, 10)
        assert ops != workloads.op_list(w, SEED + 1, 10)
        assert len(ops) == workloads.rounds_for(w, 10) * len(w.cells)
        assert sorted(op.source for op in workloads.op_list(w, SEED, 1)) != sorted(
            op.source for op in workloads.op_list(w, SEED + 1, 1)
        )


def test_every_round_visits_every_cell_once():
    w = workloads.WORKLOADS["small_programs"]
    ops = workloads.op_list(w, SEED, 10)
    per_round = len(w.cells)
    for r in range(0, len(ops), per_round):
        cells = sorted((op.family, op.n) for op in ops[r : r + per_round])
        assert cells == sorted(cell[:2] for cell in w.cells)


@pytest.mark.parametrize("name", ["small_programs", "shor_unroll", "dump_core"])
def test_every_op_passes_its_checks_at_seed(name):
    w = workloads.WORKLOADS[name]
    report = worker.new_report()
    latencies = worker.run_ops(workloads.op_list(w, SEED, 1), None, report)
    assert report["problems"] == []
    assert not report["failures"]
    assert all(math.isfinite(t) for t in latencies)


def test_oversized_probes_fail_only_with_known_limits():
    w = workloads.WORKLOADS["dump_core"]
    report = worker.new_report()
    worker.run_ops(workloads.probe_list(w, SEED), None, report)
    assert report["problems"] == []
    assert {cls for cls, _ in report["failures"]} <= {"RecursionError", "CapacityError"}


def test_smallest_instances_match_hand_written_cores():
    assert worker.preflight(workloads.FAMILIES) == []


def test_alpha_equal_rejects_real_differences():
    params, expected = checks.EXPECTED["qft"]
    core = preprocess.core_of_source(workloads.source("qft", 1, params))
    assert checks.alpha_equal(core, expected(params))
    assert not checks.alpha_equal(core, expected({"v": 0}))  # other input bit
    swapped = checks.app(checks.lam(checks.v("x"), checks.v("y")), checks.UNIT)
    assert not checks.alpha_equal(swapped, checks.app(checks.lam(checks.v("x"), checks.v("x")), checks.UNIT))
    assert checks.alpha_equal(
        checks.lam(checks.pair(checks.v("a"), checks.v("b")), checks.v("a")),
        checks.lam(checks.pair(checks.v("p"), checks.v("q")), checks.v("p")),
    )
    assert not checks.alpha_equal(checks.HAD, checks.NOT)


def test_core_shape_counts_shared_nodes_once():
    leaf = checks.pair(checks.UNIT, checks.UNIT)  # one ExUnit object, twice
    shape = checks.core_shape(checks.pair(leaf, leaf))
    assert shape == checks.Shape(dag_nodes=3, tree_nodes=7, depth=3)


def test_closure_check_finds_a_free_variable():
    open_program = checks.app(checks.lam(checks.v("x"), checks.v("y")), checks.UNIT)
    assert checks.closure_problems(open_program)
    assert checks.closure_problems(checks.v("z"))


def test_a_missing_hook_target_is_reported_absent(monkeypatch):
    monkeypatch.delattr(preprocess, "as_pi_multiple")
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["qunic.preprocess.as_pi_multiple"]
    finally:
        tracer.uninstall()


def test_hooks_are_removed_after_a_traced_pass():
    before = (preprocess.parse_file, preprocess.as_rational, preprocess.Elaborator)
    w = workloads.WORKLOADS["small_programs"]
    worker.traced(w, workloads.op_list(w, SEED, 1)[:3], SEED)
    assert (preprocess.parse_file, preprocess.as_rational, preprocess.Elaborator) == before


def test_emitted_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [
        w.why for w in workloads.WORKLOADS.values()
    ]
    w = workloads.WORKLOADS["dump_core"]
    ops = workloads.op_list(w, SEED, 1)[:2]
    plain = worker.plain(w, ops)["metrics"]
    traced = worker.traced(w, ops, SEED)["metrics"]
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in plain.items()} | {run.SETUP_METRIC: "s"} == end_to_end
    assert {k: v["unit"] for k, v in traced.items()} == per_layer
