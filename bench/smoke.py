"""Smoke test of the benchmark itself: workload shapes and traced counts.

From the repository root:

    python3 bench/smoke.py

It checks that each workload exercises the paths it exists for, that the
traced counts repeat exactly, and that single solves of the base scenarios
make the counts recorded when the benchmark was written.  It also reports
what share of two-good scarce draws the phi-sweep generator redraws, and
whether two solver defects found while writing the benchmark reproduce.
Exits 1 on any failed check.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

from run import Outcome, import_egl, traced

#: Counts of one period-0 solve and one simulate of the base scenarios,
#: measured when the benchmark was written.
BASE_ROOT_CALLS = {"REFERENCE": 2, "SCARCE_GROWTH": 38, "SHOCKS": 59}
BASE_PERIODS = {"SCARCE_GROWTH": 92, "SHOCKS": 61}

#: A two-good scarce draw (phi* above 0.9998) on which the scan divides by
#: zero instead of returning.
SCAN_DEFECT = {
    "period_length": 1.0,
    "prime_movers": [{"id": "m0", "power_rate": 2.341396113661226,
                      "depreciation": 0.5, "avg_embodied": 0.0,
                      "endowment": 1.644372310181278,
                      "max_accum_rate": 0.1}],
    "energy_goods": [
        {"id": "e0", "energy_content": 48.22729820013046,
         "technology": {"kind": "cobb_douglas", "scale": 1.9165983297862113,
                        "exponents": {"m0": 0.3047422097995877}}},
        {"id": "e1", "energy_content": 2.28513602912426,
         "technology": {"kind": "cobb_douglas", "scale": 0.5132916728034616,
                        "exponents": {"m0": 0.39982096832245584}}}],
    "non_energy_goods": [{"id": "n0", "technology": {
        "kind": "fixed_proportions", "requirements": {"m0": 1.0},
        "curvature": {"c0": 1.0}}, "utility_weight": 1.0}],
    "preferences": {"form": "cobb_douglas"},
    "horizon": 1,
}

#: A one-good scarce draw with a surplus of 6.2e18 J whose demand solve
#: misses its budget by 8.5e-8 relative, far beyond the 1e-10 it asks of
#: the root finder, because the root finder's tolerance is absolute.
BUDGET_DEFECT = {
    "period_length": 1.0,
    "prime_movers": [{"id": "m0", "power_rate": 0.5330928857033648,
                      "depreciation": 0.5, "avg_embodied": 0.0,
                      "endowment": 4.621922785827618e+19,
                      "max_accum_rate": 0.1}],
    "energy_goods": [
        {"id": "e0", "energy_content": 44.339372127471215,
         "technology": {"kind": "cobb_douglas", "scale": 1.7491895539193298,
                        "exponents": {"m0": 0.8957412847401705}}}],
    "non_energy_goods": SCAN_DEFECT["non_energy_goods"],
    "preferences": {"form": "cobb_douglas"},
    "horizon": 1,
}

COUNT_UNITS = ("count/op", "count/call", "B/op", "ratio")


class Checks:
    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            self.failures.append(what)


def traced_counts(workload, outcome: Outcome):
    tracer, _ = traced(workload, outcome)
    metrics = tracer.metrics(workload.trace_ops)
    counts = {k: v for k, (v, unit) in metrics.items()
              if unit in COUNT_UNITS}
    return tracer, metrics, counts


def check_workloads(checks: Checks, work: Path) -> None:
    import workloads
    for name, cls in workloads.WORKLOADS.items():
        outcome = Outcome()
        tracer, metrics, first = traced_counts(cls(1, work), outcome)
        _, _, second = traced_counts(cls(1, work), outcome)
        checks.expect(outcome.failed == 0,
                      f"{name}: {outcome.attempted} traced ops pass their "
                      f"checks {outcome.messages[:1]}")
        checks.expect(first == second,
                      f"{name}: traced counts repeat exactly")
        missing = [m for m in _per_layer_names() if m not in metrics
                   and m != "trace.overhead_frac"]
        checks.expect(not missing, f"{name}: every per-layer metric "
                                   f"reported {missing}")
        value = {k: v for k, (v, _) in metrics.items()}
        if name == "phi-sweep":
            checks.expect(value["surplus.fallback_scans"] > 0,
                          f"{name}: reaches the non-monotone scan")
            checks.expect(value["surplus.phi_positive_frac"] == 0.5,
                          f"{name}: half the solves have phi > 0")
        if name == "statics-sweep":
            checks.expect(value["surplus.phi_positive_frac"] == 0.0
                          and value["surplus.fallback_scans"] == 0.0
                          and value["surplus.usability_rescues"] == 0.0,
                          f"{name}: phi = 0 on every solve, no fallback")
        if name == "simulate-cli":
            checks.expect(
                tracer.events["surplus.fixed_proportions_solves"] > 0,
                f"{name}: solves fixed-proportions energy goods")
            checks.expect(tracer.calls["growth.apply_event"] > 0,
                          f"{name}: applies events")
            checks.expect(value["surplus.fallback_scans"] == 0.0,
                          f"{name}: never reaches the scan")


def _per_layer_names() -> list[str]:
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer"]]


def check_base_counts(checks: Checks) -> None:
    import egl.core
    import egl.growth
    import egl.surplus
    import inputs
    from tracing import Tracer
    for name, want in BASE_ROOT_CALLS.items():
        scenario = egl.core.scenario_from_dict(getattr(inputs, name))
        tracer = Tracer()
        tracer.install()
        try:
            egl.surplus.solve_energy_side(scenario)
        finally:
            tracer.uninstall()
        got = tracer.events["surplus.root_calls"]
        checks.expect(got == want,
                      f"{name}: one solve makes {got} surplus root calls "
                      f"(recorded {want})")
    for name, want in BASE_PERIODS.items():
        scenario = egl.core.scenario_from_dict(getattr(inputs, name))
        got = len(egl.growth.simulate(scenario).records)
        checks.expect(got == want,
                      f"{name}: simulate runs {got} periods "
                      f"(recorded {want})")


def report_defects() -> None:
    import egl.core
    import egl.demand
    import egl.surplus
    import inputs
    from model import one_mover_phi
    rng = np.random.default_rng(0)
    draws = 4000
    redrawn = sum(one_mover_phi(inputs.phi_sweep_draw(rng, "scarce2"))
                  > inputs.PHI_STAR_MAX for _ in range(draws))
    print(f"info phi-sweep redraws {redrawn}/{draws} two-good scarce draws "
          f"with phi* > {inputs.PHI_STAR_MAX}")
    scenario = egl.core.scenario_from_dict(SCAN_DEFECT)
    try:
        egl.surplus.solve_energy_side(scenario)
    except ZeroDivisionError:
        print("info scan defect still reproduces (ZeroDivisionError at "
              "phi = 1); keep the redraw")
    else:
        print("info scan defect fixed: the redraw in inputs.phi_sweep_doc "
              "can go")
    scenario = egl.core.scenario_from_dict(BUDGET_DEFECT)
    state = egl.core.initial_state(scenario)
    energy = egl.surplus.solve_energy_side(scenario, state)
    demand = egl.demand.demand_for_state(scenario, state,
                                         energy.usable_surplus,
                                         energy.employment)
    print(f"info demand budget residual {demand.budget_residual:.3g} at "
          f"E={energy.usable_surplus:.3g} (relative "
          f"{demand.budget_residual / energy.usable_surplus:.2g}; the check "
          "allows for the root finder's absolute tolerance)")


def main() -> int:
    root = Path.cwd()
    error = import_egl(root / "src")
    if error:
        print(error, file=sys.stderr)
        return 2
    work = root / ".bench_work" / "smoke"
    work.mkdir(parents=True, exist_ok=True)
    checks = Checks()
    try:
        check_workloads(checks, work)
        check_base_counts(checks)
        report_defects()
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)
    print(f"{len(checks.failures)} failed")
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
