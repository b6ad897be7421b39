"""Fuzz the scenario-document boundary with extreme numeric values.

Usage, from the root of a checkout:

    python3 tools/fuzz_boundary.py [--runs 600] [--seed 1]

Each run loads one shipped scenario (``scenarios/reference.json``,
``scarce_growth.json``, ``shocks.json`` or ``arrivals.json``), sets one to
three of its numeric fields, drawn at random, to one of ``VALUES``, and
calls ``egl.cli.main`` in-process for ``equilibrium`` or
``simulate --horizon 40``.  The script prints the number of runs per exit
code and exits 1 if any run

- raises an exception out of ``cli.main``;
- writes a ``Traceback`` to stderr;
- fails without writing exactly one JSON line to stderr;
- exits 0 with an infinite number in a CSV it wrote;
- exits 0 from ``equilibrium`` with a ``demand.csv`` whose
  |``budget_residual``| exceeds ``SLACK_TOL`` * max(1, ``E``).

Each such run is printed with its scenario, command and edits, so it can be
repeated by hand.  The same seed draws the same runs.  The script uses only
the standard library and imports egl from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import math
import random
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ("reference", "scarce_growth", "shocks", "arrivals")
VALUES = (0.0, 1e-300, -1e-300, 1e308, -1e308, 1e300, 1e17, 1e-9,
          1.0 - 1e-12, 3.0, 0.5, 1e3, 5e-324)
COMMANDS = (["equilibrium"], ["simulate", "--horizon", "40"])


def numeric_paths(node, path=()) -> list[tuple]:
    """Paths of every number (not a bool) in a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        numeric = isinstance(node, (int, float)) and not isinstance(node, bool)
        return [path] if numeric else []
    return [p for key, child in items
            for p in numeric_paths(child, path + (key,))]


def set_path(doc, path: tuple, value: float) -> None:
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def infinite_in_csv(out: Path) -> list[str]:
    """Names of the CSV files under ``out`` that hold an infinite number."""
    found = []
    for csv in sorted(out.rglob("*.csv")):
        text = csv.read_text(encoding="utf-8")
        for cell in text.replace("\n", ",").split(","):
            try:
                if math.isinf(float(cell)):
                    found.append(csv.name)
                    break
            except ValueError:
                pass
    return found


def missed_budget(out: Path) -> str:
    """The budget ``demand.csv`` misses by more than ``SLACK_TOL`` relative
    to max(1, E), or an empty string."""
    from egl.core import SLACK_TOL

    text = (out / "demand.csv").read_text(encoding="utf-8")
    summary = dict(line.split(",", 1) for line in
                   text.partition("\n\n")[2].splitlines())
    energy = float(summary["E"])
    residual = float(summary["budget_residual"])
    if abs(residual) > SLACK_TOL * max(1.0, energy):
        return f"demand.csv misses its budget {energy!r} by {residual!r}"
    return ""


def one_run(main, doc: dict, command: list[str],
            tmp: Path) -> tuple[int | None, str]:
    """Exit code of one ``cli.main`` call on ``doc`` and what went wrong, or
    an empty string; the code is None when ``main`` raised."""
    scenario = tmp / "scenario.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp / "out"
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main([command[0], "--scenario", str(scenario),
                         "--out", str(out), *command[1:]])
    except Exception:
        return None, "raised:\n" + traceback.format_exc()
    stderr = err.getvalue()
    if "Traceback" in stderr:
        return code, "traceback on stderr:\n" + stderr
    if code != 0:
        lines = stderr.splitlines()
        try:
            if len(lines) != 1:
                raise ValueError
            json.loads(lines[0])
        except ValueError:
            return code, "stderr is not one JSON line:\n" + stderr
        return code, ""
    infinite = infinite_in_csv(out) if out.exists() else []
    if infinite:
        return code, f"inf in {', '.join(infinite)}"
    if command[0] == "equilibrium":
        return code, missed_budget(out)
    return code, ""


def fuzz(runs: int, seed: int) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from egl.cli import main

    rng = random.Random(seed)
    docs = {name: json.loads((ROOT / "scenarios" / f"{name}.json").read_text(
        encoding="utf-8")) for name in SCENARIOS}
    codes: collections.Counter = collections.Counter()
    failures = 0
    with tempfile.TemporaryDirectory(prefix="fuzz-boundary-") as tmp:
        for i in range(runs):
            name = rng.choice(SCENARIOS)
            doc = json.loads(json.dumps(docs[name]))
            paths = numeric_paths(doc)
            edits = [(path, rng.choice(VALUES))
                     for path in rng.sample(paths, rng.randint(1, 3))]
            for path, value in edits:
                set_path(doc, path, value)
            command = rng.choice(COMMANDS)
            run_dir = Path(tmp, str(i))
            run_dir.mkdir()
            code, problem = one_run(main, doc, command, run_dir)
            shutil.rmtree(run_dir)
            codes["raised" if code is None else code] += 1
            if problem:
                failures += 1
                shown = "; ".join(".".join(map(str, path)) + f" = {value!r}"
                                  for path, value in edits)
                print(f"run {i}: {name} {' '.join(command)}: {shown}: "
                      f"{problem}", file=sys.stderr)
    print("runs per exit code: " + ", ".join(
        f"{code}: {count}" for code, count in sorted(
            codes.items(), key=lambda item: str(item[0]))))
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=600)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    return fuzz(args.runs, args.seed)


if __name__ == "__main__":
    sys.exit(main())
