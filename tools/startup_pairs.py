"""Time egl's start-up on two source trees in alternating fresh-process pairs.

Usage, from the root of a checkout:

    python3 tools/startup_pairs.py BASE NEW [--pairs 20]

BASE and NEW are checkout roots, each holding ``src/egl``.  Each timed run
is the benchmark's setup child (``SETUP_CHILD`` in ``bench/run.py``): a
fresh interpreter that imports ``egl.cli`` and parses
``scenarios/scarce_growth.json``, timed from spawning it to the parse, as
``setup_s`` is.  Both trees are copied to a temporary directory first, so
their own ``__pycache__`` directories are neither read nor written.  Each
pair also times two interpreter baselines, a fresh ``python -c`` and a
``python -S -c`` child that only print ``time.monotonic()``, timed the same
way; the second skips ``site``, and with it whatever the host's
site-packages run at every start.  The pairs run twice:

- with no bytecode cache: egl's modules are compiled from source in every
  run (``PYTHONDONTWRITEBYTECODE=1`` on copies that hold none);
- with a warm cache: one untimed run per tree writes it first.

Within a pair the two trees run back to back, then the baselines, in an
order that reverses from pair to pair, so drift on the host falls on both
sides alike.  For each cache the script prints three lines: each tree's
median and quartiles in ms and the number of pairs NEW won; the same for
each baseline; and each tree's increment over each baseline, the median of
its per-pair differences.  It uses only the standard library.
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
#: The interpreter baselines: children that start and print the time.
_BARE = "import time; print(repr(time.monotonic()))"
BASELINES = (("python -c", [sys.executable, "-c", _BARE]),
             ("python -S -c", [sys.executable, "-S", "-c", _BARE]))


def setup_child() -> str:
    """``SETUP_CHILD`` of ``bench/run.py``, whose top-level imports are all
    standard library, so running the module starts no benchmark; it runs
    from source, so no bytecode is written under ``bench/``."""
    path = ROOT / "bench" / "run.py"
    namespace = {"__name__": "bench_run", "__file__": str(path)}
    exec(compile(path.read_text(encoding="utf-8"), path, "exec"), namespace)
    return namespace["SETUP_CHILD"]


def run_once(cmd: list[str], env: dict[str, str]) -> float:
    """Seconds from spawning ``cmd`` to the time it prints."""
    start = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          env=env, timeout=120)
    return float(done.stdout.strip()) - start


def pairs(cmds: list[list[str]], count: int,
          env: dict[str, str]) -> list[list[float]]:
    """``count`` rounds of every command's time, in the order of ``cmds``
    and then reversed, alternately, after one untimed run of each."""
    times: list[list[float]] = [[] for _ in cmds]
    for cmd in cmds:
        run_once(cmd, env)
    for i in range(count):
        order = range(len(cmds)) if i % 2 == 0 else range(len(cmds))[::-1]
        for side in order:
            times[side].append(run_once(cmds[side], env))
    return times


def summary(label: str, times: list[list[float]]) -> list[str]:
    """The three lines of one cache's times: the trees, the baselines and
    each tree's increment over each baseline."""
    base, new, *baselines = times

    def quartiles(xs: list[float]) -> str:
        q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        return f"median {median * 1e3:.2f} [{q1 * 1e3:.2f}, {q3 * 1e3:.2f}]"

    def over(xs: list[float], ref: list[float]) -> str:
        return f"{statistics.median(x - r for x, r in zip(xs, ref)) * 1e3:.2f}"

    wins = sum(n < b for b, n in zip(base, new))
    names = [name for name, _ in BASELINES]
    return [
        f"{label}, {len(base)} pairs, ms: base {quartiles(base)}; "
        f"new {quartiles(new)}; new faster in {wins} of {len(base)}",
        f"{label}, interpreter, ms: " + "; ".join(
            f"{name} {quartiles(ref)}" for name, ref in zip(names, baselines)),
        f"{label}, egl increment, ms: " + "; ".join(
            f"over {name} base {over(base, ref)} new {over(new, ref)}"
            for name, ref in zip(names, baselines))]


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
        cmds = []
        for name, root in (("base", args.base), ("new", args.new)):
            src = Path(tmp, name)
            shutil.copytree(root.resolve() / "src", src,
                            ignore=shutil.ignore_patterns("__pycache__"))
            cmds.append([sys.executable, "-c", child, str(src), "scenario",
                         str(SCENARIO)])
        cmds += [cmd for _, cmd in BASELINES]
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env.pop("PYTHONPYCACHEPREFIX", None)
        cold = pairs(cmds, args.pairs, env)
        print("\n".join(summary("no bytecode cache", cold)), flush=True)
        env.pop("PYTHONDONTWRITEBYTECODE")
        warm = pairs(cmds, args.pairs, env)
        print("\n".join(summary("warm bytecode cache", warm)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
