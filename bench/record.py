"""Record the reference values that every benchmark run compares against.

Run from the repository root after a change that is meant to alter egl's
answers, and say why in the commit:

    python3 bench/record.py

It solves each workload's fixed reference inputs (seed-independent, see
``Workload.reference_inputs``), checks them, and writes their summaries to
``bench/reference.json``.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    from run import import_egl
    error = import_egl(Path.cwd() / "src")
    if error:
        print(error, file=sys.stderr)
        return 2
    import workloads

    work = Path.cwd() / ".bench_work" / "record"
    work.mkdir(parents=True, exist_ok=True)
    recorded = {}
    try:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(0, work)
            rows = []
            for item in workload.reference_inputs():
                args = workload.prepare(item)
                result = workload.op(args)
                failure = workload.check(args, result)
                if failure is not None:
                    print(f"{name}: {failure}", file=sys.stderr)
                    return 1
                rows.append(workload.summary(args, result))
                workload.cleanup(args)
            recorded[name] = rows
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)
    (HERE / "reference.json").write_text(
        json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
