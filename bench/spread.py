"""Run the benchmark over several seeds and report medians and spreads.

From the repository root:

    python3 bench/spread.py --workloads phi-sweep simulate-cli --seeds 1-10 \
        --out runs.json

Each run is ``bench/run.py`` in its own process, one after another.  For
every end-to-end metric the report gives the median of the runs and the
distance between the first and third quartiles as a share of the median,
which is how run-to-run spread is judged against each metric's bound in
``BENCHMARK.json``.
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


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine() -> dict:
    """Facts that make runs on different machines incomparable."""
    import numpy
    import scipy
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "numpy": numpy.__version__, "scipy": scipy.__version__,
             "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            facts["cpu"] = next(line.split(":", 1)[1].strip()
                                for line in info
                                if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return facts


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"machine": machine(), "run_seconds": args.seconds,
              "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(done.stdout, file=sys.stderr)
                return 1
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            print(workload, seed, json.dumps(runs[-1]), flush=True)
        summary = {}
        for name in runs[0]:
            values = [r[name] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else [median] * 3)
            spread = (q3 - q1) / median if median else 0.0
            summary[name] = {"median": median, "spread": spread,
                             "bound": bounds.get(name)}
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  WIDE"
            print(f"  {workload:16s} {name:28s} median {median:12.6g} "
                  f"spread {spread:7.2%}{flag}", flush=True)
        report["workloads"][workload] = {"seeds": args.seeds, "runs": runs,
                                         "summary": summary}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
