"""Benchmark for egl: one workload per run, checked op by op.

Usage, from the root of a checkout (egl is imported from ``./src``):

    python3 bench/run.py --workload phi-sweep --seed 1 --seconds 25 --trace 0

Untraced (``--trace 0``), a run

1. starts a fresh interpreter several times, each importing ``egl.cli``
   and parsing the workload's first input, and reports the median time to
   that point as ``setup_s``;
2. runs the fixed reference inputs, which also warms up, and compares
   their results with ``bench/reference.json``;
3. runs pools of seeded ops until ``--seconds`` have passed, ending on a
   pool boundary, timing each op alone and checking every result.

``ops_per_s`` is ops completed over the time spent inside ops, so input
generation, parsing outside the op and checks do not count.

Traced (``--trace 1``), a run times the seed's first ``trace_ops`` ops
untraced and then traced, and reports per-layer metrics per op
plus the ratio of the two wall times.  A fixed op count makes the counts
repeat exactly for a given seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 9
#: Child process: interpreter start, ``import egl.cli``, parse the input.
SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import json
import egl.cli
import egl.core
text = open(sys.argv[3], encoding="utf-8").read()
if sys.argv[2] == "family":
    json.loads(text)
else:
    egl.core.load_scenario(text)
print(repr(time.monotonic()))
"""


class Outcome:
    """Attempted and failed ops, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, label: str, failure: str | None) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(f"{label}: {failure}")


def run_op(workload, item, outcome: Outcome, label: str, reference=None,
           on_done=None) -> float:
    """Prepare, time, check and clean up one op; returns the op's seconds.

    ``reference`` holds recorded summary values to compare with, and
    ``on_done`` sees the op's arguments before clean-up.
    """
    args = workload.prepare(item)
    start = time.perf_counter()
    try:
        result = workload.op(args)
    except Exception as exc:  # a raising op is a failed op, not a crash
        elapsed = time.perf_counter() - start
        failure = f"{type(exc).__name__}: {exc}"
    else:
        elapsed = time.perf_counter() - start
        failure = workload.check(args, result)
        if failure is None and reference is not None:
            failure = workload.compare(workload.summary(args, result),
                                       reference)
        if on_done is not None:
            on_done(args)
    workload.cleanup(args)
    outcome.record(label, failure)
    return elapsed


def setup_seconds(workload, src: Path) -> float:
    """Median time from spawning a fresh interpreter to its parsed input."""
    path = workload.work / "setup-input.json"
    path.write_text(workload.setup_text(), encoding="utf-8")
    cmd = [sys.executable, "-c", SETUP_CHILD, str(src), workload.setup_kind,
           str(path)]
    times = []
    for i in range(SETUP_RUNS + 1):
        start = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True,
                              check=True, timeout=120)
        if i:                       # the first run only fills caches
            times.append(float(done.stdout.strip()) - start)
    return statistics.median(times)


def measure(workload, seconds: float, src: Path,
            outcome: Outcome) -> tuple[dict[str, tuple[float, str]], int]:
    setup = setup_seconds(workload, src)
    recorded = json.loads((HERE / "reference.json").read_text())
    for i, (item, want) in enumerate(zip(workload.reference_inputs(),
                                         recorded[workload.name])):
        run_op(workload, item, outcome, f"reference {i}", reference=want)

    latencies: list[float] = []
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        for j, item in enumerate(workload.pool(index)):
            latencies.append(run_op(workload, item, outcome,
                                    f"pool {index} op {j}"))
        index += 1
    return {
        "setup_s": (setup, "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }, len(latencies)


def traced(workload, outcome: Outcome):
    """Run the trace inputs untraced, then traced; returns the tracer and
    the ratio of the two wall times."""
    from tracing import Tracer
    items = workload.trace_inputs()
    untraced = sum(run_op(workload, item, outcome, f"untraced op {j}")
                   for j, item in enumerate(items))
    tracer = Tracer()

    def count_bytes(args):
        tracer.events["cli.bytes_written"] += workload.output_bytes(args)

    tracer.install()
    try:
        wall = sum(run_op(workload, item, outcome, f"traced op {j}",
                          on_done=count_bytes)
                   for j, item in enumerate(items))
    finally:
        tracer.uninstall()
    return tracer, wall / untraced


def import_egl(src: Path) -> str | None:
    """Import egl from ``src`` (the checkout's sources, never an installed
    copy); returns why it failed, or None."""
    if not (src / "egl" / "__init__.py").is_file():
        return f"no egl sources under {src}; run from the repository root"
    sys.path[:0] = [str(HERE), str(src)]
    import egl
    if Path(egl.__file__).resolve().parent != (src / "egl").resolve():
        return f"egl imported from {egl.__file__}, not {src}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    error = import_egl(src)
    if error:
        print(error, file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    outcome = Outcome()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            tracer, overhead = traced(workload, outcome)
            ops = workload.trace_ops
            values = tracer.metrics(ops)
            values["trace.overhead_frac"] = (overhead, "ratio")
        else:
            values, ops = measure(workload, args.seconds, src, outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for message in outcome.messages:
        print(f"FAILED {message}")
    print(f"workload={args.workload} seed={args.seed} ops={ops} "
          f"attempted={outcome.attempted} failed={outcome.failed} "
          f"failed_frac={outcome.failed / max(outcome.attempted, 1):.6g}")
    for name, (value, unit) in values.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
