"""Time egl's start-up on two source trees in alternating fresh-process pairs.

Usage, from the root of a checkout:

    python3 tools/startup_pairs.py BASE NEW [--pairs 20]

BASE and NEW are checkout roots, each holding ``src/egl``.  Each timed run
is the benchmark's setup child (``SETUP_CHILD`` in ``bench/run.py``): a
fresh interpreter that imports ``egl.cli`` and parses
``scenarios/scarce_growth.json``, timed from spawning it to the parse, as
``setup_s`` is.  Both trees are copied to a temporary directory first, so
their own ``__pycache__`` directories are neither read nor written.  The
pairs run twice:

- with no bytecode cache: egl's modules are compiled from source in every
  run (``PYTHONDONTWRITEBYTECODE=1`` on copies that hold none);
- with a warm cache: one untimed run per tree writes it first.

Within a pair the two trees run back to back, in an order that alternates
from pair to pair, so drift on the host falls on both sides alike.  For
each cache the script prints each side's median and quartiles in ms and
the number of pairs NEW won.  It uses only the standard library.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCENARIO = ROOT / "scenarios" / "scarce_growth.json"


def setup_child() -> str:
    """``SETUP_CHILD`` of ``bench/run.py``, whose top-level imports are all
    standard library, so running the module starts no benchmark; it runs
    from source, so no bytecode is written under ``bench/``."""
    path = ROOT / "bench" / "run.py"
    namespace = {"__name__": "bench_run", "__file__": str(path)}
    exec(compile(path.read_text(encoding="utf-8"), path, "exec"), namespace)
    return namespace["SETUP_CHILD"]


def run_once(child: str, src: Path, env: dict[str, str]) -> float:
    """Seconds from spawning the setup child on ``src`` to its parse."""
    cmd = [sys.executable, "-c", child, str(src), "scenario", str(SCENARIO)]
    start = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          env=env, timeout=120)
    return float(done.stdout.strip()) - start


def pairs(child: str, srcs: tuple[Path, Path], count: int,
          env: dict[str, str]) -> tuple[list[float], list[float]]:
    """``count`` alternating pairs of (base, new) times, after one untimed
    run of each tree."""
    times: tuple[list[float], list[float]] = ([], [])
    for src in srcs:
        run_once(child, src, env)
    for i in range(count):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for side in order:
            times[side].append(run_once(child, srcs[side], env))
    return times


def summary(label: str, times: tuple[list[float], list[float]]) -> str:
    base, new = times

    def quartiles(xs: list[float]) -> str:
        q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        return f"median {median * 1e3:.2f} [{q1 * 1e3:.2f}, {q3 * 1e3:.2f}]"

    wins = sum(n < b for b, n in zip(base, new))
    return (f"{label}, {len(base)} pairs, ms: base {quartiles(base)}; "
            f"new {quartiles(new)}; new faster in {wins} of {len(base)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout root of the base")
    parser.add_argument("new", type=Path, help="checkout root of the change")
    parser.add_argument("--pairs", type=int, default=20)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    child = setup_child()
    with tempfile.TemporaryDirectory(prefix="startup-pairs-") as tmp:
        srcs = (Path(tmp, "base"), Path(tmp, "new"))
        for src, root in zip(srcs, (args.base, args.new)):
            shutil.copytree(root.resolve() / "src", src,
                            ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPYCACHEPREFIX", None)
        cold = pairs(child, srcs, args.pairs, env)
        print(summary("no bytecode cache", cold), flush=True)
        env.pop("PYTHONDONTWRITEBYTECODE")
        warm = pairs(child, srcs, args.pairs, env)
        print(summary("warm bytecode cache", warm))
    return 0


if __name__ == "__main__":
    sys.exit(main())
