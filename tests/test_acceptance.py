"""Acceptance suite: one test per criterion, one summary line each.

Run with ``pytest tests/test_acceptance.py -v``; the per-criterion PASS/FAIL
lines are printed in the terminal summary.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from egl import initial_state, load_scenario, scenario_from_dict
from egl.cli import main
from egl.embodied import (average_embodied, cumulative_transfer, elasticity,
                          marginal_embodied)
from egl.growth import normalized_surplus_args, simulate, step_accumulation
from egl.statics import proposition_suite
from egl.surplus import marginal_surplus_at, mover_surplus_rates, \
    scarcity_premium, solve_energy_side

from conftest import (cd1_doc, cd1_scenario, random_energy_doc,
                      record_acceptance, scarce_doc, scarce_scenario)
from oracles import adaptive_simpson
from test_embodied import random_technology


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        record_acceptance(number, title, False)
        raise
    record_acceptance(number, title, True)


def test_criterion_1_reference_closed_form():
    with criterion(1, "reference scenario closed form"):
        scenario = cd1_scenario()
        start = time.perf_counter()
        sol = solve_energy_side(scenario)
        elapsed = time.perf_counter() - start
        assert sol.outputs["e0"] == pytest.approx(5.0, rel=1e-6)
        assert sol.usable_surplus == pytest.approx(25.0, rel=1e-6)
        assert sol.phi == pytest.approx(0.0, abs=1e-6)
        assert sol.meroi["e0"] == pytest.approx(1.0, rel=1e-6)
        assert elapsed < 1.0


def test_criterion_2_first_order_residuals():
    with criterion(2, "first-order residuals on 100 random scenarios"):
        rng = np.random.default_rng(20240817)
        for trial in range(100):
            doc = random_energy_doc(rng, scarce=trial % 2 == 0)
            scenario = scenario_from_dict(doc)
            state = initial_state(scenario)
            sol = solve_energy_side(scenario, state)
            for gid, good in state.energy_goods.items():
                q = sol.outputs[gid]
                if q <= 0.0 or gid in sol.binding_constraints:
                    continue
                # optimality: content = marginal curve + scarcity premium
                premium = scarcity_premium(good, q, sol.phi, state)
                resid = abs(good.energy_content - sol.gamma[gid] - premium)
                assert resid < 1e-6 * good.energy_content
                # exact decomposition and marginal-EROI identity
                alpha = sol.marginal_surplus[gid]
                assert good.energy_content \
                    == pytest.approx(sol.gamma[gid] + alpha, rel=1e-9)
                assert sol.meroi[gid] == pytest.approx(
                    1.0 + alpha / sol.gamma[gid], rel=1e-9)
            for key, resid in sol.foc_mover_residuals.items():
                assert resid < 1e-6


def test_criterion_3_curve_identities():
    with criterion(3, "embodied-energy identities on 1000 draws"):
        rng = np.random.default_rng(555)
        for _ in range(1000):
            tech, movers = random_technology(rng)
            q = float(rng.uniform(0.01, 50.0))
            m = float(rng.uniform(0.5, 2.0))
            gamma = marginal_embodied(tech, movers, q, m)
            avg = average_embodied(tech, movers, q, m)
            eta = elasticity(tech, movers, q, m)
            assert gamma == pytest.approx(avg * (1.0 + eta), rel=1e-8)
            h = 1e-5 * q
            fd = (cumulative_transfer(tech, movers, q + h, m)
                  - cumulative_transfer(tech, movers, q - h, m)) / (2.0 * h)
            assert fd == pytest.approx(gamma, rel=1e-6)


def test_criterion_4_surplus_accounting():
    with criterion(4, "surplus accounting matches quadrature"):
        rng = np.random.default_rng(4096)
        docs = [cd1_doc(), scarce_doc()]
        docs += [random_energy_doc(rng, scarce=i % 2 == 0) for i in range(20)]
        for doc in docs:
            scenario = scenario_from_dict(doc)
            state = initial_state(scenario)
            sol = solve_energy_side(scenario, state)
            direct = 0.0
            quad = 0.0
            for gid, good in state.energy_goods.items():
                q = sol.outputs[gid]
                direct += good.energy_content * q - cumulative_transfer(
                    good.technology, state.movers, q)
                quad += adaptive_simpson(
                    lambda x, g=good: marginal_surplus_at(g, x, state),
                    0.0, q,
                    tol=1e-9 * max(1.0, good.energy_content * q))
            scale = max(1.0, abs(sol.usable_surplus))
            assert abs(sol.usable_surplus - direct) <= 1e-6 * scale
            assert abs(sol.usable_surplus - quad) <= 1e-6 * scale


def test_criterion_5_grid_oracle():
    from test_surplus import TestGridOracle
    with criterion(5, "fixed point bracketed by exhaustive grid"):
        start = time.perf_counter()
        doc = scarce_doc(1.0)
        scenario = scenario_from_dict(doc)
        sol = solve_energy_side(scenario)
        phi_lo, phi_hi, q_lo, q_hi = TestGridOracle.brute_force(
            doc, q_points=100_000, phi_points=1_000)
        elapsed = time.perf_counter() - start
        cell_phi = 1.0 / 1_000
        cell_q = (1.2 * 5.0) / 100_000
        assert phi_lo - cell_phi <= sol.phi <= phi_hi + cell_phi
        assert q_lo - cell_q <= sol.outputs["e0"] <= q_hi + cell_q
        assert elapsed < 30.0


def test_criterion_6_proposition_sweeps():
    with criterion(6, "directional claims confirm on 200-trial sweeps"):
        tables = proposition_suite(42, 200)
        for key in ("a", "b", "c"):
            table = tables[key]
            assert table.applicable
            assert table.trials == 200
            assert table.confirmations == table.trials
            assert table.failures == ()
        assert tables["a"].max_derivative < 0.0
        assert tables["b"].min_derivative > 0.0
        assert tables["c"].min_derivative > 0.0


def test_criterion_7_growth_trajectory_shape():
    with criterion(7, "scarce growth run: monotone shape, steady state"):
        scenario = scarce_scenario()
        start = time.perf_counter()
        traj = simulate(scenario)
        elapsed = time.perf_counter() - start
        assert traj.steady
        assert traj.records[-1].state.period <= 500
        qs = [r.energy.outputs["e0"] for r in traj.records]
        xs = [r.state.stocks["m0"] for r in traj.records]
        alphas = [r.energy.marginal_surplus["e0"] for r in traj.records]
        assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(xs, xs[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(alphas[1:], alphas[2:]))
        final = traj.records[-1]
        assert final.energy.marginal_surplus["e0"] < 1e-6 * 10.0
        drives = normalized_surplus_args(
            mover_surplus_rates(final.energy.phi,
                                initial_state(scenario).movers),
            initial_state(scenario).movers)
        import math
        growth = 0.2 * math.tanh(drives["m0"]) * final.state.stocks["m0"]
        assert growth < 1e-8 * final.state.stocks["m0"] * 10.0
        assert elapsed < 10.0


def test_criterion_8_shock_directions():
    with criterion(8, "efficiency and depletion move the steady state"):
        base = simulate(scarce_scenario())

        shocked_doc = scarce_doc()
        shocked_doc["events"] = [{"period": 10, "kind": "efficiency_shift",
                                  "good": "e0", "multiplier": 0.5}]
        shocked = simulate(load_scenario(json.dumps(shocked_doc)))

        # the curve drops pointwise once the event has applied
        scenario = load_scenario(json.dumps(shocked_doc))
        state = initial_state(scenario)
        from egl.core import effective_multiplier
        from egl.growth import apply_event
        after = apply_event(state, scenario.events[0])
        good = state.energy_goods["e0"]
        for q in (0.1, 1.0, 4.0, 9.0):
            lowered = marginal_embodied(good.technology, after.movers, q,
                                        effective_multiplier(good, after))
            original = marginal_embodied(good.technology, state.movers, q,
                                         effective_multiplier(good, state))
            assert lowered < original

        assert shocked.steady
        assert shocked.records[-1].energy.outputs["e0"] \
            >= base.records[-1].energy.outputs["e0"] - 1e-9

        depleted_doc = scarce_doc()
        depleted_doc["energy_goods"][0]["pes_stock"] = 50.0
        depleted_doc["energy_goods"][0]["depletion_exponent"] = 1.0
        depleted = simulate(load_scenario(json.dumps(depleted_doc)))
        assert depleted.steady
        assert depleted.records[-1].energy.outputs["e0"] \
            <= base.records[-1].energy.outputs["e0"] + 1e-9


def test_criterion_9_accumulation_endpoints():
    with criterion(9, "accumulation endpoints: zero drive, saturated drive"):
        from egl.core import PrimeMoverType
        movers = {"a": PrimeMoverType(
            id="a", power_rate=1.0, period_length=1.0, depreciation=0.5,
            avg_embodied=0.0, endowment=1.0, max_accum_rate=0.17)}
        frozen = step_accumulation({"a": 3.5}, {"a": 0.0}, movers)
        assert frozen["a"] == 3.5                      # exactly unchanged
        for drive in (50.0, 1e6, 1e300):
            grown = step_accumulation({"a": 3.5}, {"a": drive}, movers)
            assert grown["a"] / 3.5 == pytest.approx(1.17, rel=1e-9)


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "repeated runs produce byte-identical outputs"):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(scarce_doc()), encoding="utf-8")
        family_path = tmp_path / "family.json"
        family_path.write_text("{}", encoding="utf-8")

        def run(tag):
            outs = {}
            eq = tmp_path / f"eq-{tag}"
            si = tmp_path / f"si-{tag}"
            st = tmp_path / f"st-{tag}"
            assert main(["equilibrium", "--scenario", str(scenario_path),
                         "--out", str(eq)]) == 0
            assert main(["simulate", "--scenario", str(scenario_path),
                         "--out", str(si)]) == 0
            assert main(["statics", "--family", str(family_path),
                         "--seed", "42", "--trials", "10",
                         "--out", str(st)]) == 0
            for d in (eq, si, st):
                for f in sorted(d.iterdir()):
                    outs[f"{d.name.split('-')[0]}/{f.name}"] = f.read_bytes()
            return outs

        first = run("a")
        second = run("b")
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], name
