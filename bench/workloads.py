"""The benchmark workloads: inputs, the timed op, and its checks.

Each workload turns the seed into pools of op inputs.  ``prepare`` does
per-op work that is not part of the op (parsing, picking a fresh output
directory), ``op`` is the timed call into egl, ``check`` tests the result
against the model's own conditions and returns a failure message or None,
and ``summary`` gives the numbers compared with the values recorded in
``reference.json``.  egl is always reached through module attributes
(``egl.surplus.solve_energy_side``) so that a traced run sees the call.
"""

from __future__ import annotations

import csv
import json
import shutil
from pathlib import Path

import numpy as np

import egl.cli
import egl.core
import egl.demand
import egl.growth
import egl.reports
import egl.statics
import egl.surplus
import egl.svgfig
import inputs
from model import CobbDouglas, flat_cost, one_mover_phi, rel_close, transfer

#: Independent re-evaluations of the model's conditions.
#: |delta - gamma - premium| <= FOC_RTOL * delta on interior goods.
FOC_RTOL = 1e-6
#: |E - U| <= SLACK_RTOL * max(1, scale), where scale (income at the
#: interior optimum plus the whole fleet's capacity) bounds the residual at
#: phi = 0 by which egl scales its own slack tolerance of 1e-8.
SLACK_RTOL = 1e-7
#: |spent - E| <= (BUDGET_RTOL + ROOT_XTOL * E / sum(weights)) * max(1, E).
#: egl's root finder stops within an absolute 1e-24 of a root; under
#: Cobb-Douglas preferences with flat costs the budget multiplier is
#: sum(weights) / E, so a huge surplus is only met to that relative
#: precision.  The smoke test reports this defect.
BUDGET_RTOL = 1e-8
ROOT_XTOL = 1e-24
#: Comparisons with closed forms and recorded values.  They allow for a
#: different root finder: Brent and bisection agree on phi to 1.4e-11.
PHI_ATOL = 1e-7
VALUE_RTOL = 1e-6
#: Seed of the fixed inputs whose results reference.json records.
REFERENCE_SEED = 20261017
#: Finite-difference derivatives amplify solver noise by 1 / (2 * step).
DERIVATIVE_RTOL = 1e-4


class Workload:
    name = ""
    pool_size = 0                # ops per pool
    trace_ops = 0                # ops in a traced run
    reference_ops = 0            # fixed ops compared with reference.json
    setup_kind = "scenario"      # what a fresh CLI process parses

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng([abs(self.seed), *key])

    def pool(self, index: int) -> list:
        return self.make_pool(self.rng(index))

    def trace_inputs(self) -> list:
        """The first ``trace_ops`` inputs of the seed's pools."""
        items: list = []
        while len(items) < self.trace_ops:
            items += self.pool(len(items) // self.pool_size)
        return items[:self.trace_ops]

    def reference_inputs(self) -> list:
        """Seed-independent inputs whose summaries reference.json holds."""
        return self.make_pool(np.random.default_rng([REFERENCE_SEED]))[
            :self.reference_ops]

    def setup_text(self) -> str:
        return json.dumps(self.pool(0)[0])

    def prepare(self, item):
        return item

    def cleanup(self, args) -> None:
        pass

    def output_bytes(self, args) -> int:
        return 0

    @staticmethod
    def compare(values: dict, reference: dict) -> str | None:
        """Match recorded values: phi absolute, periods within one,
        derivatives and everything else relative."""
        if sorted(values) != sorted(reference):
            return f"keys {sorted(values)} against {sorted(reference)}"
        for key, want in reference.items():
            got = values[key]
            if key.startswith("phi"):
                ok = abs(got - want) <= PHI_ATOL
            elif key == "periods":
                ok = abs(got - want) <= 1
            elif key.startswith("d_"):
                ok = abs(got - want) <= DERIVATIVE_RTOL * abs(want)
            else:
                ok = rel_close(got, want, VALUE_RTOL, atol=1e-9)
            if not ok:
                return f"{key}={got!r} against recorded {want!r}"
        return None


def _parse(doc: dict):
    scenario = egl.core.scenario_from_dict(doc)
    return doc, scenario, egl.core.initial_state(scenario)


def _budget_failure(doc: dict, bundle: dict, energy: float) -> str | None:
    omega = {m["id"]: transfer(m, doc["period_length"])
             for m in doc["prime_movers"]}
    spent = sum(flat_cost(g, omega, bundle[g["id"]])
                for g in doc["non_energy_goods"])
    rtol = BUDGET_RTOL
    if doc["preferences"]["form"] == "cobb_douglas":
        weights = sum(g["utility_weight"] for g in doc["non_energy_goods"])
        rtol += ROOT_XTOL * energy / weights
    if abs(spent - energy) > rtol * max(1.0, energy):
        return f"budget residual {spent - energy:.3g} at E={energy:.6g}"
    return None


# ---------------------------------------------------------------------------

class PhiSweep(Workload):
    """solve_energy_side then demand_for_state on a parsed scenario."""

    name = "phi-sweep"
    blocks = 32
    pool_size = blocks * len(inputs.PHI_SWEEP_BLOCK)
    trace_ops = 32
    reference_ops = 16

    def make_pool(self, rng):
        return inputs.phi_sweep_docs(rng, self.blocks)

    def prepare(self, doc):
        return _parse(doc)

    def op(self, args):
        _, scenario, state = args
        energy = egl.surplus.solve_energy_side(scenario, state)
        demand = egl.demand.demand_for_state(
            scenario, state, energy.usable_surplus, energy.employment)
        return energy, demand

    def check(self, args, result):
        doc, _, _ = args
        energy, demand = result
        omega = {m["id"]: transfer(m) for m in doc["prime_movers"]}
        eps = {m["id"]: m["power_rate"] for m in doc["prime_movers"]}
        phi = energy.phi
        if not 0.0 <= phi < 1.0:
            return f"phi={phi} outside [0, 1)"
        goods = [(g["id"], CobbDouglas(g, omega)) for g in doc["energy_goods"]]
        income = spent = 0.0
        used = dict.fromkeys(omega, 0.0)
        for gid, cd in goods:
            q = energy.outputs[gid]
            if q <= 0.0:
                continue
            income += cd.delta * q
            spent += cd.cost(q)
            for mid, x in cd.employment(q).items():
                used[mid] += x
            if gid in energy.binding_constraints:
                continue
            foc = cd.delta - cd.marginal(q) - cd.premium(q, phi, eps)
            if abs(foc) > FOC_RTOL * cd.delta:
                return f"FOC residual {foc:.3g} on {gid}"
        e_star = income - spent
        stocks = {m["id"]: m["endowment"] for m in doc["prime_movers"]}
        capacity = sum(eps[m] * max(x - used[m], 0.0)
                       for m, x in stocks.items())
        scale = sum(cd.delta * cd.interior_output() for _, cd in goods) \
            + sum(eps[m] * x for m, x in stocks.items())
        tol = SLACK_RTOL * max(1.0, scale)
        if phi == 0.0 and e_star > capacity + tol:
            return f"phi=0 but E={e_star:.6g} exceeds U={capacity:.6g}"
        if phi > 0.0 and abs(e_star - capacity) > tol:
            return f"slack E-U={e_star - capacity:.3g} at phi={phi}"
        if not rel_close(energy.usable_surplus, e_star, VALUE_RTOL):
            return f"E*={energy.usable_surplus} against {e_star}"
        # one mover: phi in closed form; several movers are all abundant
        expected = one_mover_phi(doc) if len(omega) == 1 else 0.0
        if abs(phi - expected) > PHI_ATOL:
            return f"phi={phi} against closed form {expected}"
        return _budget_failure(doc, demand.bundle, energy.usable_surplus)

    def summary(self, args, result):
        energy, demand = result
        out = {"phi": energy.phi}
        out.update({f"Q.{k}": v for k, v in energy.outputs.items()})
        out.update({f"bundle.{k}": v for k, v in demand.bundle.items()})
        return out


# ---------------------------------------------------------------------------

# ---------------------------------------------------------------------------

class StaticsSweep(Workload):
    """One trial of proposition_suite on the sweep family."""

    name = "statics-sweep"
    setup_kind = "family"
    pool_size = 32
    trace_ops = 32
    reference_ops = 8

    def make_pool(self, rng):
        return inputs.statics_seeds(rng, self.pool_size)

    def setup_text(self):
        return json.dumps(inputs.SWEEP_FAMILY)

    def op(self, seed):
        return egl.statics.proposition_suite(seed, 1, inputs.SWEEP_FAMILY)

    def check(self, seed, tables):
        for key in ("a", "b", "c"):
            table = tables[key]
            if table.discarded or table.trials != 1 \
                    or table.confirmations != table.trials:
                return (f"proposition {key}: {table.confirmations}/"
                        f"{table.trials} confirmed, {table.discarded} "
                        "discarded")
        return None

    def summary(self, seed, tables):
        return {f"d_{key}.{end}": getattr(tables[key], f"{end}_derivative")
                for key in ("a", "b", "c") for end in ("min", "max")}


# ---------------------------------------------------------------------------

_SIMULATE_FILES = ("trajectory.csv", "figure2.svg", "manifest.json")


class SimulateCli(Workload):
    """egl.cli.main(["simulate", ...]) on a scenario file, into a fresh
    directory that is deleted after the check."""

    name = "simulate-cli"
    pairs = 4
    pool_size = 2 * pairs
    trace_ops = 8
    reference_ops = 4

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.count = 0

    def make_pool(self, rng):
        return [self._write(doc) for doc in inputs.growth_docs(rng, self.pairs)]

    def reference_inputs(self):
        docs = [inputs.SCARCE_GROWTH, inputs.SHOCKS] + inputs.growth_docs(
            np.random.default_rng([REFERENCE_SEED]), 1)
        return [self._write(doc) for doc in docs]

    def _write(self, doc: dict):
        self.count += 1
        path = self.work / "inputs" / f"scenario-{self.count}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(doc), encoding="utf-8")
        return doc, path

    def setup_text(self):
        return self.pool(0)[0][1].read_text(encoding="utf-8")

    def prepare(self, item):
        doc, path = item
        self.count += 1
        return doc, path, self.work / "out" / str(self.count)

    def op(self, args):
        _, path, out = args
        return egl.cli.main(["simulate", "--scenario", str(path),
                             "--out", str(out)])

    def check(self, args, code):
        _, _, out = args
        if code != 0:
            return f"exit code {code}"
        missing = [f for f in _SIMULATE_FILES if not (out / f).is_file()]
        if missing:
            return f"missing {missing}"
        rows, notes = _read_trajectory(out / "trajectory.csv")
        if "aborted_period" in notes:
            return f"diagnostic at period {notes['aborted_period']}"
        if float(notes.get("steady_state_period", "nan")) != rows[-1]["t"]:
            return "no steady state before the horizon"
        bad = [row["t"] for row in rows if not 0.0 <= row["phi"] < 1.0]
        if bad:
            return f"phi outside [0, 1) at t={bad[:3]}"
        figure = (out / "figure2.svg").read_text(encoding="utf-8")
        if "<svg" not in figure[:200] or not figure.endswith("</svg>\n"):
            return "figure2 is not a complete SVG document"
        return None

    def summary(self, args, code):
        rows, notes = _read_trajectory(args[2] / "trajectory.csv")
        out = {"periods": len(rows),
               "phi.steady": float(notes["steady_state_phi"])}
        out.update({k: v for k, v in rows[-1].items()
                    if k.startswith(("Q_", "x_"))})
        return out

    def output_bytes(self, args):
        return sum(p.stat().st_size for p in args[2].iterdir())

    def cleanup(self, args):
        shutil.rmtree(args[2], ignore_errors=True)


def _read_trajectory(path: Path):
    """Rows of trajectory.csv as dicts of floats, and its "# name,value"
    summary lines as strings."""
    rows: list[dict[str, float]] = []
    notes: dict[str, str] = {}
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    for row in csv.reader(lines[1:]):
        if row[0].startswith("#"):
            notes[row[0].lstrip("# ")] = ",".join(row[1:])
        else:
            rows.append(dict(zip(header, map(float, row))))
    return rows, notes


WORKLOADS = {w.name: w for w in (PhiSweep, SimulateCli, StaticsSweep)}

