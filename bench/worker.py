"""One benchmark worker process: set up one workload, then time it.

``run.py`` starts this script once per set-up sample (``--setup-only``)
and once for the measured run; it prints one JSON object on stdout.  The
package is imported from ``src/`` of the checkout that holds this file,
never from anywhere else.

Times are given in *reference seconds*: seconds as measured, rescaled to
the speed at which :func:`reference` takes ``REF_S`` seconds.  A shared
virtual machine runs 1.3-1.8x slower than its best in spells of seconds
to minutes, for every process alike; the reference is a fixed piece of
pure-Python work, frozen here and sharing no code with the package, and
it runs right before and after every call into the package (a *step*),
so the rescaling follows the machine's speed from step to step.  A
change to the package moves reference seconds just as it moves seconds.

Timed iterations run until the next one would end after ``--seconds``
(at least three, or one of each kind when tracing); an iteration's time
is the sum of its steps, and the run reports the median iteration.  With
``--trace 1`` untraced and traced iterations alternate, so the tracing
overhead is measured in the same process.  Outputs are fingerprinted
after every iteration and checked in full, against reference values,
once the timed loop is over, so neither the checks nor their reference
data are part of the timings.  One more untimed iteration under
``tracemalloc`` gives the peak memory the workload allocates.
"""

import gc
import time


def reference() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed piece of work: breadth-first search
    of the symmetric group S6 by adjacent transpositions on tuples, which
    hashes, indexes and allocates as the package does.  Garbage collection
    is held off, so the package's heap does not add to it."""
    collecting = gc.isenabled()
    gc.disable()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    n = 6
    gens = [tuple([*range(i), i + 1, i, *range(i + 2, n)]) for i in range(n - 1)]
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        upcoming = []
        for p in frontier:
            for g in gens:
                q = tuple([p[i] for i in g])
                if q not in seen:
                    seen.add(q)
                    upcoming.append(q)
        frontier = upcoming
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    if collecting:
        gc.enable()
    assert len(seen) == 720
    return wall, cpu


# the machine's speed just before the set-up that _START times
_REF_BEFORE = [reference()[0] for _ in range(3)]
_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PLAIN_ITERATIONS = 3
# the time reference() takes at the reference speed: about its median on
# a 2-vCPU Intel Xeon virtual machine running Python 3.11
REF_S = 0.0025


class Steps:
    """Reference seconds of each named step of one iteration, wall and CPU."""

    def __init__(self):
        self.wall: dict[str, float] = {}
        self.cpu: dict[str, float] = {}
        self.raw_wall = 0.0
        self._ref = reference()

    def __call__(self, name: str, fn, *args, **kwargs):
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        ref = reference()
        ref_wall = (self._ref[0] + ref[0]) / 2
        ref_cpu = (self._ref[1] + ref[1]) / 2
        self._ref = ref
        self.wall[name] = self.wall.get(name, 0.0) + wall * REF_S / ref_wall
        self.cpu[name] = self.cpu.get(name, 0.0) + cpu * REF_S / ref_cpu
        self.raw_wall += wall
        return result

    def total(self, clock: str = "wall") -> float:
        return sum(getattr(self, clock).values())


def _median_steps(iterations: list[Steps]) -> dict[str, float]:
    return {name: statistics.median(it.wall.get(name, 0.0) for it in iterations)
            for name in iterations[0].wall}


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def _peak_alloc_mb(workload, plan) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        workload.run(plan, lambda name, fn, *args, **kwargs: fn(*args, **kwargs))
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def measure(workload, plan, seconds: float, trace: bool) -> dict:
    from tracer import Tracer

    kinds = ("plain", "traced") if trace else ("plain",)
    runs = {k: {"steps": [], "digests": [], "layers": [], "outputs": None} for k in kinds}
    minimum = 2 if trace else MIN_PLAIN_ITERATIONS
    problems: list[str] = []
    attempted = failed = 0
    start = time.perf_counter()
    last = {}
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        run = runs[kind]
        run["outputs"] = None
        gc.collect()
        tracer = Tracer() if kind == "traced" else None
        steps = Steps()
        try:
            t0 = time.perf_counter()
            with tracer or contextlib.nullcontext():
                outputs = workload.run(plan, steps)
            last[kind] = time.perf_counter() - t0
        except Exception:  # an operation that raised is a failed operation
            problems.append(traceback.format_exc())
            attempted += 1
            failed += 1
            break
        run["steps"].append(steps)
        run["digests"].append(workload.fingerprint(outputs))
        run["outputs"] = outputs
        if tracer is not None:
            # the tracer's seconds, rescaled as the iteration's steps were
            run["layers"].append(tracer.metrics(steps.total() / steps.raw_wall))
        i += 1
        upcoming = last.get(kinds[i % len(kinds)], last[kind])
        if i >= minimum and time.perf_counter() - start + upcoming > seconds:
            break

    result = {"problems": problems}
    if not failed and not trace:
        result["peak_alloc_mb"] = _peak_alloc_mb(workload, plan)
    expected = workload.expect(plan)
    for kind, run in runs.items():
        if run["outputs"] is None:
            continue
        ops = workload.check(plan, expected, run["outputs"])
        bad = [label for label, ok in ops if not ok]
        drifted = sum(d != run["digests"][-1] for d in run["digests"])
        attempted += len(ops) * len(run["digests"])
        failed += len(bad) + len(ops) * drifted
        problems += [f"{kind}: {label}" for label in bad]
        if drifted:
            problems.append(f"{kind}: {drifted} iterations gave other outputs than the last")
    result.update(work=expected["work"], attempted=attempted, failed=failed)

    for kind, run in runs.items():
        if run["steps"]:
            result[kind] = {
                "wall_s": statistics.median(s.total("wall") for s in run["steps"]),
                "cpu_s": statistics.median(s.total("cpu") for s in run["steps"]),
                "raw_wall_s": statistics.median(s.raw_wall for s in run["steps"]),
                "spread_s": _iqr([s.total("wall") for s in run["steps"]]),
                "iterations": len(run["steps"])}
    if trace and runs["traced"]["layers"] and runs["plain"]["steps"]:
        layers = runs["traced"]["layers"]
        result["layers"] = {name: statistics.median(m[name] for m in layers)
                            for name in layers[0]}
        plain = runs["plain"]
        result["layers"].update(workload.layers(plain["outputs"],
                                                _median_steps(plain["steps"])))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "coxsort" / "__init__.py").is_file():
        print(f"worker: no coxsort package under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS  # imports coxsort

    loaded = Path(sys.modules["coxsort"].__file__).resolve().parent
    if loaded != (SRC / "coxsort").resolve():
        print(f"worker: coxsort was imported from {loaded}, not {SRC}", file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload]
    plan = workload.setup(args.seed)
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        ref = statistics.median(_REF_BEFORE + [reference()[0] for _ in range(3)])
        result = {"setup_s": setup_s * REF_S / ref, "raw_setup_s": setup_s}
    else:
        result = measure(workload, plan, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
