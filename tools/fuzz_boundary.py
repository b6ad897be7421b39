"""Fuzz the scenario-document boundary by value, by structure and by text.

Usage, from the root of a checkout:

    python3 tools/fuzz_boundary.py [--runs 600] [--seed 1]

Each run loads one shipped scenario (``scenarios/reference.json``,
``scarce_growth.json``, ``shocks.json`` or ``arrivals.json``), edits it,
writes it to a file and calls ``egl.cli.main`` in-process for
``validate``, ``equilibrium`` or ``simulate --horizon 40`` on that file.
Run ``i`` makes an edit of kind ``KINDS[i % len(KINDS)]``, so every
``len(KINDS)`` runs cover each kind once:

- ``numbers``: set one to three numeric fields to one of ``VALUES``;
- ``delete``, ``copy``, ``rekey``, ``node``: delete one node, copy it
  beside itself (in an array) or over a sibling (in an object), move an
  object entry to another key of the document or to ``"x"``, or set the
  node to one of ``NODES``;
- ``bad_utf8``, ``deep``, ``long_integer``, ``truncate``: write the
  document's text with a byte that is not UTF-8, wrapped in 100,000
  arrays, with a 5,000-digit integer in place of a number, or cut short.

The script prints the number of runs per exit code and exits 1 if any run

- raises an exception out of ``cli.main``;
- writes a ``Traceback`` to stderr;
- fails without writing exactly one JSON line to stderr;
- exits 0 with an infinite number in a CSV it wrote;
- exits 0 from ``equilibrium`` with a ``demand.csv`` whose
  |``budget_residual``| exceeds ``SLACK_TOL`` * max(1, ``E``).

Each such run is printed with its scenario, command and edit, so it can be
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
#: What a ``node`` edit sets a node to, as JSON text.
NODES = ("null", "true", '"x"', "[]", "{}")
KINDS = ("numbers", "delete", "copy", "rekey", "node",
         "bad_utf8", "deep", "long_integer", "truncate")
COMMANDS = (["validate"], ["equilibrium"], ["simulate", "--horizon", "40"])
#: Stands in for the long integer until the document is text.
LONG = "\0long integer\0"


def node_paths(node, path=()) -> list[tuple]:
    """Paths of every node below ``node`` in a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    return [p for key, child in items
            for p in [path + (key,), *node_paths(child, path + (key,))]]


def get_path(doc, path: tuple):
    for key in path:
        doc = doc[key]
    return doc


def numeric_paths(doc) -> list[tuple]:
    """Paths of every number (not a bool) in a JSON document."""
    return [path for path in node_paths(doc)
            if type(get_path(doc, path)) in (int, float)]


def shown(path: tuple) -> str:
    return ".".join(map(str, path))


def edit_structure(rng: random.Random, doc: dict, kind: str) -> str:
    """Make one ``delete``, ``copy``, ``rekey`` or ``node`` edit of ``doc``
    and say what it was."""
    if kind == "rekey":
        paths = [p for p in node_paths(doc)
                 if isinstance(get_path(doc, p[:-1]), dict)]
    else:
        paths = node_paths(doc)
    path = rng.choice(paths)
    parent, key = get_path(doc, path[:-1]), path[-1]
    if kind == "delete":
        del parent[key]
        return f"delete {shown(path)}"
    if kind == "copy":
        copied = json.loads(json.dumps(parent[key]))
        if isinstance(parent, list):
            parent.insert(key, copied)
            return f"copy {shown(path)} beside itself"
        other = rng.choice(sorted(parent))
        parent[other] = copied
        return f"copy {shown(path)} over {shown(path[:-1] + (other,))}"
    if kind == "rekey":
        keys = {p[-1] for p in node_paths(doc) if isinstance(p[-1], str)}
        new = rng.choice(sorted(keys) + ["x"])
        parent[new] = parent.pop(key)
        return f"move {shown(path)} to key {new!r}"
    value = rng.choice(NODES)
    parent[key] = json.loads(value)
    return f"{shown(path)} = {value}"


def edit_text(rng: random.Random, doc: dict, kind: str) -> tuple[bytes, str]:
    """The text of ``doc`` after one ``bad_utf8``, ``deep``,
    ``long_integer`` or ``truncate`` edit, and what it was."""
    if kind == "long_integer":
        path = rng.choice(numeric_paths(doc))
        get_path(doc, path[:-1])[path[-1]] = LONG
        text = json.dumps(doc).replace(json.dumps(LONG), "7" * 5000)
        return text.encode("utf-8"), f"{shown(path)} = a 5,000-digit integer"
    text = json.dumps(doc).encode("utf-8")
    if kind == "deep":
        return (b"[" * 100_000 + text + b"]" * 100_000,
                "wrapped in 100,000 arrays")
    at = rng.randrange(len(text))
    if kind == "bad_utf8":
        return text[:at] + b"\xff" + text[at:], f"byte 0xff at offset {at}"
    return text[:at], f"cut to {at} bytes"


def edit(rng: random.Random, doc: dict, kind: str) -> tuple[bytes, str]:
    """The bytes of ``doc`` after one edit of ``kind``, and what it was."""
    if kind == "numbers":
        edits = [(path, rng.choice(VALUES)) for path in
                 rng.sample(numeric_paths(doc), rng.randint(1, 3))]
        for path, value in edits:
            get_path(doc, path[:-1])[path[-1]] = value
        what = "; ".join(f"{shown(path)} = {value!r}"
                         for path, value in edits)
    elif kind in ("delete", "copy", "rekey", "node"):
        what = edit_structure(rng, doc, kind)
    else:
        return edit_text(rng, doc, kind)
    return json.dumps(doc).encode("utf-8"), what


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


def one_run(main, data: bytes, command: list[str],
            tmp: Path) -> tuple[int | None, str]:
    """Exit code of one ``cli.main`` call on a scenario file holding
    ``data`` and what went wrong, or an empty string; the code is None
    when ``main`` raised."""
    scenario = tmp / "scenario.json"
    scenario.write_bytes(data)
    out = tmp / "out"
    argv = [command[0], "--scenario", str(scenario), *command[1:]]
    if command[0] != "validate":
        argv += ["--out", str(out)]
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
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
    texts = {name: (ROOT / "scenarios" / f"{name}.json").read_text(
        encoding="utf-8") for name in SCENARIOS}
    codes: collections.Counter = collections.Counter()
    failures = 0
    with tempfile.TemporaryDirectory(prefix="fuzz-boundary-") as tmp:
        for i in range(runs):
            kind = KINDS[i % len(KINDS)]
            name = rng.choice(SCENARIOS)
            data, what = edit(rng, json.loads(texts[name]), kind)
            command = rng.choice(COMMANDS)
            run_dir = Path(tmp, str(i))
            run_dir.mkdir()
            code, problem = one_run(main, data, command, run_dir)
            shutil.rmtree(run_dir)
            codes["raised" if code is None else code] += 1
            if problem:
                failures += 1
                print(f"run {i}: {name} {' '.join(command)}: {kind}: "
                      f"{what}: {problem}", file=sys.stderr)
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
