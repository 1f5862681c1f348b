"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 bench/record.py [--write]

For every workload declared in ``BENCHMARK.json``, runs ``bench/run.py``
for its ``run_seconds`` once per seed 1..10 with tracing off, and prints for each end-to-end metric the median of the run
values and the interquartile range as a share of that median, the
figure the bounds in ``BENCHMARK.json`` are compared with.  With
``--write`` it adds one traced run per workload and writes everything,
with a record of the machine, to ``bench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed")
    return result


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def _machine() -> dict:
    import numpy

    model = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL).stdout.strip()
    except OSError:
        commit = ""
    return {"cpu_count": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit or "unknown"}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"machine": _machine(), "run_seconds": seconds, "runs": RUNS,
              "seeds": f"1..{RUNS} untraced, 0 traced", "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [_run(workload, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            summary[name] = {"median": statistics.median(values), "spread": spread(values),
                             "bound": bound, "values": values}
            flag = "" if summary[name]["spread"] < bound / 3 else "  <-- over a third of bound"
            print(f"{workload:17s} {name:12s} median {summary[name]['median']:12.6g} "
                  f"spread {summary[name]['spread']:.4f} (bound {bound}){flag} "
                  f"{[round(v, 4) for v in values]}", flush=True)
        entry = {"why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
                 "end_to_end": summary}
        if args.write:
            traced = _run(workload, 0, seconds, 1)
            entry["per_layer_seed0"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][workload] = entry
    if args.write:
        (HERE / "baseline.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
