"""Compile benchmark for the qunic front end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``qunic`` is imported from ``src``.  The
workload's fixed op list (see ``workloads.py``) runs in a fresh worker
process.  ``--trace 0`` reports the end-to-end metrics, including
``setup_s``: the median, over fresh processes, of the time from
``import qunic`` through the first compile of ``@had(&0)``, scaled to the
reference speed like every end-to-end time (see ``calibrate.py``).  ``--trace 1``
reports the per-layer metrics from a traced worker.  The last line of standard
output is one JSON object; any failure to measure exits non-zero without it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 10
SETUP_METRIC = "setup_s"
DEADLINE_S = 170  # a run must end within 180 s

# Prints the set-up time scaled to the reference speed (see calibrate.py).
SETUP_PROBE = """\
import time
start = time.perf_counter()
import qunic.preprocess
qunic.preprocess.core_of_source("@had(&0)")
elapsed = time.perf_counter() - start
import calibrate
print(elapsed * calibrate.REF_MS / 1e3 / calibrate.warm_reference_seconds())
"""


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def _python(args: list[str], deadline: float) -> str:
    timeout = max(0.1, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=ROOT,
            env=_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchError(f"{args[0]} did not end within the run's deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def setup_samples(k: int, deadline: float) -> list[float]:
    """Set-up time of ``k`` fresh processes, in seconds."""
    return [float(_python(["-c", SETUP_PROBE], deadline)) for _ in range(k)]


def worker(args, mode: str, deadline: float) -> dict:
    out = _python(
        [
            str(HERE / "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--mode", mode,
        ],
        deadline,
    )
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "qunic").is_dir():
        print(f"no qunic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            result = worker(args, "traced", deadline)
        else:
            # The first process is not counted: it may write the bytecode cache.
            # Half the samples come after the worker, so that one burst of
            # interference on a shared machine cannot move the median.
            setup = setup_samples(SETUP_SAMPLES // 2 + 1, deadline)[1:]
            result = worker(args, "plain", deadline)
            setup += setup_samples(SETUP_SAMPLES - len(setup), deadline)
            result["metrics"][SETUP_METRIC] = {"value": statistics.median(setup), "unit": "s"}
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    for line in result.pop("problems") + result.pop("failures"):
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
