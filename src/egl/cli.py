"""Command-line front end: equilibria, simulations, sweeps, validation.

Exit codes: 0 success, 1 parse/validation/usage, 2 solver infeasibility
or any other egl error, 3 I/O failure.  Errors print one machine-readable
JSON line on stderr.  Verbosity is controlled by the EGL_LOG environment
variable (quiet | info | debug); under the default, quiet, a process that
has not loaded ``logging`` does not import it, since egl emits no record
above INFO.

Each command imports the modules it runs inside its own function, so a
process loads only what its command needs: ``validate`` no solver,
``simulate`` no ``statics`` and ``statics`` no ``svgfig``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import __version__
from .core import (PHI_TOL, Q_RTOL, SLACK_TOL, SS_ACCUM_TOL, SS_ALPHA_TOL,
                   decode_document, effective_multiplier, scenario_digest,
                   scenario_from_dict)
from .errors import (EglError, ScenarioParseError, ScenarioValidationError,
                     SolverError)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_IO = 3

#: The solver tolerances, as each solving command's manifest lists them.
_TOLERANCES = {"tolerances": {
    "phi": PHI_TOL, "q_rtol": Q_RTOL, "slack": SLACK_TOL,
    "ss_accum": SS_ACCUM_TOL, "ss_alpha": SS_ALPHA_TOL}}


class _Stderr:
    """A stream that writes to whatever ``sys.stderr`` is at that moment."""

    def write(self, text: str) -> None:
        sys.stderr.write(text)

    def flush(self) -> None:
        sys.stderr.flush()


@functools.cache
def _log_handler():
    """The one handler of the ``egl`` logger: each record on one line of
    the current ``sys.stderr``."""
    import logging

    handler = logging.StreamHandler(_Stderr())
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    return handler


def _setup_logging():
    """Level the ``egl`` logger from EGL_LOG; the root logger is left alone.

    Under EGL_LOG=quiet, in a process that has not loaded ``logging``,
    nothing is set up: egl emits only INFO and DEBUG records, and
    ``core.logger`` skips them while ``logging`` is not loaded.
    """
    name = os.environ.get("EGL_LOG", "quiet")
    if name not in ("info", "debug") and "logging" not in sys.modules:
        return
    import logging

    logger = logging.getLogger("egl")
    logger.setLevel({"info": logging.INFO, "debug": logging.DEBUG}.get(
        name, logging.WARNING))
    logger.addHandler(_log_handler())       # a no-op once attached


def _error(kind: str, detail: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": kind, "detail": detail},
                                sort_keys=True) + "\n")
    return code


def _read_document(path: str):
    """The JSON document in the file at ``path``, read as UTF-8 text."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(
            f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return decode_document(text)


def _write_outputs(out_dir: str, files: dict[str, str], command: str,
                   digest: str, extra: dict) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        (out / name).write_text(content, encoding="utf-8", newline="")
    manifest = {
        "command": command,
        "scenario_digest": digest,
        "version": __version__,
        "outputs": sorted(files),
    }
    manifest.update(extra)
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        encoding="utf-8", newline="")


def _cmd_validate(args) -> int:
    scenario_from_dict(_read_document(args.scenario))
    print("ok")
    return EXIT_OK


def _cmd_equilibrium(args) -> int:
    from .demand import demand_for_state
    from .embodied import sample_curve
    from .growth import period_zero
    from .reports import demand_csv, equilibrium_csv, meec_curve_csv
    from .surplus import figure1_report, solve_energy_side
    from .svgfig import figure1_svg

    doc = _read_document(args.scenario)
    scenario = scenario_from_dict(doc)
    state = period_zero(scenario)
    solution = solve_energy_side(scenario, state)
    demand = demand_for_state(scenario, state, solution.usable_surplus,
                              solution.employment)
    files = {
        "equilibrium.csv": equilibrium_csv(state, solution),
        "demand.csv": demand_csv(demand),
    }
    for gid, good in state.energy_goods.items():
        data = figure1_report(scenario, state, gid, solution)
        files[f"figure1_{gid}.svg"] = figure1_svg(data)
        points = sample_curve(good.technology, state.movers,
                              data.quantities[-1], samples=200,
                              multiplier=effective_multiplier(good, state))
        files[f"meec_{gid}.csv"] = meec_curve_csv(points)
    _write_outputs(args.out, files, "equilibrium", scenario_digest(doc),
                   _TOLERANCES)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    from .growth import simulate
    from .reports import trajectory_csv
    from .svgfig import figure2_svg

    if args.horizon is not None and args.horizon < 0:
        raise UsageError("--horizon must be >= 0")
    doc = _read_document(args.scenario)
    scenario = scenario_from_dict(doc)
    trajectory = simulate(scenario, horizon=args.horizon)
    files = {
        "trajectory.csv": trajectory_csv(scenario, trajectory),
        "figure2.svg": figure2_svg(trajectory),
    }
    _write_outputs(args.out, files, "simulate", scenario_digest(doc),
                   _TOLERANCES)
    if trajectory.error is not None:
        return _error("solver", trajectory.error, EXIT_SOLVER)
    return EXIT_OK


def _cmd_statics(args) -> int:
    from .reports import failures_csv, sign_table_csv
    from .statics import GENERATOR_NAME, proposition_suite

    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    family = _read_document(args.family)
    tables = proposition_suite(args.seed, args.trials, family)
    files = {
        "sign_table.csv": sign_table_csv(tables),
        "failures.csv": failures_csv(tables),
    }
    _write_outputs(args.out, files, "statics", scenario_digest(family),
                   {"seed": args.seed, "trials": args.trials,
                    "generator": GENERATOR_NAME,
                    "discarded": {key: t.discarded
                                  for key, t in tables.items()}})
    return EXIT_OK


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser, and the class of its sub-parsers, that raises
    each usage error as ``UsageError`` instead of printing and exiting."""

    def error(self, message: str):
        raise UsageError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``main`` call and kept
    for the process: parsing reads it and leaves it unchanged."""
    parser = _Parser(
        prog="egl",
        description="Energy-surplus equilibria and growth simulation")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario document")
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("equilibrium", help="solve the static problem")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_equilibrium)

    p = sub.add_parser("simulate", help="run the accumulation dynamics")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--horizon", type=int, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("statics", help="randomized comparative statics")
    p.add_argument("--family", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_statics)
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit:      # argparse's --help and --version, once printed
        return EXIT_OK
    except UsageError as exc:
        return _error("usage", str(exc), EXIT_USAGE)
    except ScenarioParseError as exc:
        return _error("parse", str(exc), EXIT_USAGE)
    except ScenarioValidationError as exc:
        return _error("validation", str(exc), EXIT_USAGE)
    except SolverError as exc:
        return _error("solver", str(exc), EXIT_SOLVER)
    except EglError as exc:
        # any other failure the package raises on purpose
        return _error("failure", str(exc), EXIT_SOLVER)
    except OSError as exc:
        return _error("io", str(exc), EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
