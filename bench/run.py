"""Benchmark of the coxsort package on one named workload.

    python3 bench/run.py --workload verify_default --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  The workloads, metrics and bounds are
declared in ``BENCHMARK.json``; the workloads themselves are in
``bench/workloads.py``.  Each worker process runs alone, one after the
other, on a single thread.

With ``--trace 0`` the end-to-end metrics are printed, with ``--trace 1``
the per-layer ones (from ``bench/tracer.py``).  Every metric is printed by
name with its unit, then the last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are in reference seconds, which follow the machine's speed from
step to step (see ``bench/worker.py``); the seconds as measured are
printed alongside.  The exit code is 1 when an output check failed and 2
when the benchmark could not run at all, or when a declared per-layer
metric was never produced because what it traces no longer exists;
nothing JSON is printed in the latter case.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# set-up samples are taken half before and half after the measured run, so
# that one slow spell of a shared machine does not cover all of them
SETUP_SAMPLES = 10
SETUP_TIMEOUT_S = 20
RUN_TIMEOUT_S = 130


class BenchError(Exception):
    pass


def _worker(args: argparse.Namespace, *extra: str, timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {timeout} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {done.returncode}")
    return json.loads(lines[-1])


def _setup_sample(args: argparse.Namespace) -> dict:
    return _worker(args, "--setup-only", timeout=SETUP_TIMEOUT_S)


def _end_to_end(result: dict, setup: list[dict]) -> tuple[dict, list[str]]:
    plain = result.get("plain")
    if plain is None or "peak_alloc_mb" not in result:
        raise BenchError("no iteration completed")
    values = {
        "wall_s": plain["wall_s"],
        "cpu_s": plain["cpu_s"],
        "work_per_s": result["work"] / plain["wall_s"],
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "peak_alloc_mb": result["peak_alloc_mb"],
    }
    notes = [
        f"wall_s, cpu_s: median of {plain['iterations']} iterations, in reference seconds; "
        f"the median iteration took {plain['raw_wall_s']:.6g} s as measured",
        f"work_per_s: {result['work']} work units / wall_s",
        f"setup_s: median of {len(setup)} fresh processes, in reference seconds; "
        f"{statistics.median(s['raw_setup_s'] for s in setup):.6g} s as measured",
        "peak_alloc_mb: tracemalloc peak of one more, untimed iteration",
    ]
    return values, notes


def _per_layer(result: dict) -> tuple[dict, list[str]]:
    if "layers" not in result:
        raise BenchError("no traced iteration completed")
    plain, traced = result["plain"], result["traced"]
    values = dict(result["layers"])
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.overhead_s"] = overhead = traced["wall_s"] - plain["wall_s"]
    note = (f"trace.overhead_s: median of {traced['iterations']} traced minus median of "
            f"{plain['iterations']} untraced iterations")
    noise = max(plain["spread_s"], traced["spread_s"])
    if abs(overhead) <= noise:
        note += f"; unresolved, within the iterations' interquartile range of {noise:.3g} s"
    return values, [note]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="coxsort benchmark")
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "coxsort" / "__init__.py").is_file():
        print(f"bench: no coxsort package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        samples = 0 if args.trace else SETUP_SAMPLES
        setup = [_setup_sample(args) for _ in range(samples // 2)]
        result = _worker(args, timeout=RUN_TIMEOUT_S)
        setup += [_setup_sample(args) for _ in range(samples - len(setup))]
        for problem in result["problems"]:
            print(f"bench: FAILED {problem}", file=sys.stderr)
        if args.trace:
            declared = spec["per_layer"]
            values, notes = _per_layer(result)
        else:
            declared = spec["end_to_end"]
            values, notes = _end_to_end(result, setup)
        missing = [m["name"] for m in declared if m["name"] not in values]
        if missing:
            raise BenchError(f"declared metrics never produced: {', '.join(missing)}")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  fail_ratio = {failed / max(attempted, 1):.6g} "
          f"({failed} failed of {attempted} operations)")
    for note in notes:
        print(f"  ({note})")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
