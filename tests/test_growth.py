import json
import math
from pathlib import Path

import numpy as np
import pytest

from egl import initial_state, load_scenario, solve_energy_side
from egl.core import PrimeMoverType, activate_due, effective_multiplier
from egl.demand import demand_for_state
from egl.errors import ScenarioValidationError, SolverError
from egl.growth import (apply_event, enter_period, normalized_surplus_args,
                        simulate, step_accumulation)
from egl.reports import trajectory_csv
from egl.surplus import mover_surplus_rates

from conftest import cd1_scenario, scarce_doc, scarce_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def movers(**kw):
    out = {}
    for mid, (eps, rate) in kw.items():
        out[mid] = PrimeMoverType(id=mid, power_rate=eps, period_length=1.0,
                                  depreciation=0.5, avg_embodied=0.0,
                                  endowment=1.0, max_accum_rate=rate)
    return out


class TestMoverSurplusRates:
    def test_zero_share(self):
        rates = mover_surplus_rates(0.0, movers(a=(1.0, 0.1), b=(3.0, 0.1)))
        assert rates == {"a": 0.0, "b": 0.0}

    def test_half_share_unit_energy(self):
        rates = mover_surplus_rates(0.5, movers(a=(1.0, 0.1)))
        assert rates["a"] == pytest.approx(1.0)

    def test_linear_in_direct_energy(self):
        rates = mover_surplus_rates(0.5, movers(a=(1.0, 0.1), b=(3.0, 0.1)))
        assert rates["a"] == pytest.approx(1.0)
        assert rates["b"] == pytest.approx(3.0)

    def test_share_of_one_rejected(self):
        with pytest.raises(ValueError):
            mover_surplus_rates(1.0, movers(a=(1.0, 0.1)))


class TestStepAccumulation:
    def test_zero_drive_keeps_stocks(self):
        ms = movers(a=(1.0, 0.1))
        out = step_accumulation({"a": 10.0}, {"a": 0.0}, ms)
        assert out["a"] == 10.0       # tanh(0) = 0, exactly no growth

    def test_saturated_drive_grows_at_max_rate(self):
        ms = movers(a=(1.0, 0.1))
        out = step_accumulation({"a": 10.0}, {"a": 1e3}, ms)
        assert out["a"] == pytest.approx(11.0, rel=1e-9)

    def test_unit_drive(self):
        ms = movers(a=(1.0, 0.1))
        out = step_accumulation({"a": 10.0}, {"a": 1.0}, ms)
        assert out["a"] == pytest.approx(10.0 * (1.0 + 0.1 * math.tanh(1.0)),
                                         rel=1e-12)
        assert out["a"] == pytest.approx(10.761594155955764, rel=1e-12)

    def test_normalization_is_own_direct_energy(self):
        ms = movers(a=(4.0, 0.1), b=(2.0, 0.1))
        phi_l = mover_surplus_rates(0.5, ms)     # 4 and 2 joules
        args = normalized_surplus_args(phi_l, ms)
        assert args == {"a": 1.0, "b": 1.0}      # phi/(1-phi) for each


class TestEvents:
    def test_efficiency_shift_halves_curve(self):
        sc = cd1_scenario()
        state = initial_state(sc)
        from egl.core import EventSpec, effective_multiplier
        from egl.embodied import marginal_embodied
        ev = EventSpec(period=0, kind="efficiency_shift", good="e0",
                       multiplier=0.5)
        shifted = apply_event(state, ev)
        good = shifted.energy_goods["e0"]
        for q in (0.5, 2.0, 7.0):
            before = marginal_embodied(good.technology, state.movers, q,
                                       effective_multiplier(good, state))
            after = marginal_embodied(good.technology, shifted.movers, q,
                                      effective_multiplier(good, shifted))
            assert after == pytest.approx(0.5 * before, rel=1e-12)

    def test_shifts_compose(self):
        sc = cd1_scenario()
        from egl.core import EventSpec
        state = initial_state(sc)
        state = apply_event(state, EventSpec(period=0, kind="meec_shift",
                                             good="e0", multiplier=2.0))
        state = apply_event(state, EventSpec(period=0, kind="meec_shift",
                                             good="e0", multiplier=3.0))
        assert state.multipliers["e0"] == pytest.approx(6.0)

    def test_new_mover_duplicate_rejected(self):
        # the parser rejects an arrival that reuses a listed mover id
        doc = scarce_doc()
        doc["events"] = [{
            "period": 4, "kind": "new_prime_mover",
            "mover": {"id": "m0", "power_rate": 1.0, "depreciation": 0.5,
                      "avg_embodied": 0.0, "endowment": 1.0}}]
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(json.dumps(doc))
        assert err.value.field == "$.events[0].mover.id"

    def test_unknown_good_rejected(self):
        sc = cd1_scenario()
        from egl.core import EventSpec
        with pytest.raises(ScenarioValidationError):
            apply_event(initial_state(sc),
                        EventSpec(period=0, kind="meec_shift", good="ghost",
                                  multiplier=2.0))

    def test_endowment_shock_applies(self):
        sc = cd1_scenario()
        from egl.core import EventSpec
        state = apply_event(initial_state(sc),
                            EventSpec(period=0, kind="endowment_shock",
                                      mover="m0", delta=-40.0))
        assert state.stocks["m0"] == pytest.approx(60.0)
        with pytest.raises(ScenarioValidationError):
            apply_event(state, EventSpec(period=0, kind="endowment_shock",
                                         mover="m0", delta=-100.0))


class TestSimulate:
    def test_scarce_run_reaches_steady_state(self, cd1_scarce):
        traj = simulate(cd1_scarce)
        assert traj.steady
        assert traj.error is None
        assert len(traj.records) <= 501
        qs = [r.energy.outputs["e0"] for r in traj.records]
        xs = [r.state.stocks["m0"] for r in traj.records]
        alphas = [r.energy.marginal_surplus["e0"] for r in traj.records]
        assert all(b >= a - 1e-12 for a, b in zip(qs, qs[1:]))
        assert all(b >= a - 1e-12 for a, b in zip(xs, xs[1:]))
        assert all(b <= a + 1e-12 for a, b in
                   zip(alphas[1:], alphas[2:]))
        # limit point of the closed-form family: stocks 50, output 5
        assert xs[-1] == pytest.approx(50.0, rel=1e-4)
        assert qs[-1] == pytest.approx(5.0, rel=1e-4)
        final = traj.records[-1]
        assert final.energy.marginal_surplus["e0"] < 1e-6 * 10.0

    def test_abundant_run_is_immediately_steady(self, cd1):
        traj = simulate(cd1)
        assert len(traj.records) == 1
        assert traj.steady
        assert traj.records[-1].state.period == 0

    def test_records_keep_their_period(self):
        # a record holds its state and solutions by reference: nothing that
        # runs after its period may change them
        scenario = load_scenario(
            (SCENARIOS / "scarce_growth.json").read_text())
        traj = simulate(scenario)
        assert len(traj.records) > 2
        assert traj.records[0].state.stocks == {
            m.id: m.endowment for m in scenario.prime_movers}
        for t in (0, 1, len(traj.records) - 1):
            record = traj.records[t]
            assert record.state.period == t
            assert record.energy == solve_energy_side(scenario, record.state)

    def test_failed_period_ends_the_run(self):
        # a good arriving at period 3 whose curve leaves the float range
        doc = scarce_doc()
        doc["events"] = [{
            "period": 3, "kind": "new_energy_good",
            "good": {"id": "coal", "energy_content": 25.0,
                     "technology": {"kind": "cobb_douglas", "scale": 1e-300,
                                    "exponents": {"m0": 0.5}}}}]
        scenario = load_scenario(json.dumps(doc))
        traj = simulate(scenario)
        assert len(traj.records) == 3
        assert not traj.steady
        assert traj.error.startswith("degenerate:")
        assert trajectory_csv(scenario, traj).endswith(
            f"# aborted_period,3\n# error,{traj.error}\n")

    def test_solution_identities_hold_on_every_period(self):
        # E = I - G and E - U = slack, on the periods that produce nothing
        # as on those that do
        doc = json.loads((SCENARIOS / "shocks.json").read_text())
        records = simulate(load_scenario(json.dumps(doc))).records
        assert len(records) == 61
        assert 0 < sum(r.energy.null for r in records) < 61
        for r in records:
            e = r.energy
            assert e.slack_residual == e.usable_surplus - e.usable_capacity
            assert e.usable_surplus == e.gross_income - e.gross_expenditure

    def test_horizon_zero_single_record(self, cd1_scarce):
        traj = simulate(cd1_scarce, horizon=0)
        assert len(traj.records) == 1
        assert not traj.steady

    def test_steady_state_is_a_fixed_point(self, cd1_scarce):
        traj = simulate(cd1_scarce)
        final = traj.records[-1]
        # re-solve statics at the recorded stocks: no drive left
        doc = scarce_doc()
        doc["prime_movers"][0]["endowment"] = final.state.stocks["m0"]
        sc = load_scenario(json.dumps(doc))
        sol = solve_energy_side(sc)
        assert sol.phi < 1e-6
        assert sol.marginal_surplus["e0"] < 1e-5
        stepped = step_accumulation(
            {"m0": final.state.stocks["m0"]},
            normalized_surplus_args(sol.mover_surplus,
                                    initial_state(sc).movers),
            initial_state(sc).movers)
        assert stepped["m0"] == pytest.approx(final.state.stocks["m0"],
                                              rel=1e-6)

    def test_conservation_each_period(self, cd1_scarce):
        traj = simulate(cd1_scarce)
        for e in (r.energy for r in traj.records):
            assert e.gross_income - e.gross_expenditure == e.usable_surplus
            assert e.usable_surplus >= -1e-12

    def test_efficiency_event_renews_growth(self):
        doc = scarce_doc()
        doc["events"] = [{"period": 10, "kind": "efficiency_shift",
                          "good": "e0", "multiplier": 0.5}]
        traj = simulate(load_scenario(json.dumps(doc)))
        base = simulate(scarce_scenario())
        assert traj.steady
        # halved curve: unconstrained optimum moves from 5 to 10
        assert traj.records[-1].energy.outputs["e0"] \
            > base.records[-1].energy.outputs["e0"] * 1.5
        qs = [r.energy.outputs["e0"] for r in traj.records]
        assert max(qs) > 5.0

    def test_meec_shift_lowers_output(self):
        doc = scarce_doc(endowment=100.0)      # abundant, Q = 5 at once
        doc["events"] = [{"period": 1, "kind": "meec_shift", "good": "e0",
                          "multiplier": 2.0}]
        doc["horizon"] = 2
        traj = simulate(load_scenario(json.dumps(doc)))
        assert traj.records[0].energy.outputs["e0"] \
            == pytest.approx(5.0, rel=1e-6)
        assert traj.records[1].energy.outputs["e0"] \
            == pytest.approx(2.5, rel=1e-6)

    def test_new_prime_mover_accumulates(self):
        doc = scarce_doc()
        doc["events"] = [{
            "period": 5, "kind": "new_prime_mover",
            "mover": {"id": "m1", "power_rate": 1.0, "depreciation": 0.5,
                      "avg_embodied": 0.0, "endowment": 0.1,
                      "max_accum_rate": 0.3}}]
        traj = simulate(load_scenario(json.dumps(doc)), horizon=20)
        stocks5 = traj.records[5].state.stocks
        stocks8 = traj.records[8].state.stocks
        assert "m1" not in traj.records[4].state.stocks
        assert stocks5["m1"] == pytest.approx(0.1)
        assert stocks8["m1"] > 0.1     # positive drive while phi > 0

    def test_depletion_lowers_steady_output(self):
        base_doc = scarce_doc()
        traj_free = simulate(load_scenario(json.dumps(base_doc)))
        depleted = scarce_doc()
        depleted["energy_goods"][0]["pes_stock"] = 50.0
        depleted["energy_goods"][0]["depletion_exponent"] = 1.0
        traj_dep = simulate(load_scenario(json.dumps(depleted)))
        assert traj_dep.steady
        assert traj_dep.records[-1].energy.outputs["e0"] \
            <= traj_free.records[-1].energy.outputs["e0"] + 1e-9
        cum = [r.state.cum_extraction["e0"] for r in traj_dep.records]
        assert all(b >= a for a, b in zip(cum, cum[1:]))
        assert cum[-1] <= 50.0 + 1e-9

    def test_new_energy_good_enters_production(self):
        # a discovered good with richer content takes over at its event
        # period; with CES preferences the whole pipeline still solves
        doc = scarce_doc(endowment=30.0)
        doc["preferences"] = {"form": "ces", "elasticity": 1.8}
        doc["events"] = [{
            "period": 3, "kind": "new_energy_good",
            "good": {"id": "coal", "energy_content": 25.0,
                     "technology": {"kind": "cobb_douglas", "scale": 1.0,
                                    "exponents": {"m0": 0.5}}}}]
        traj = simulate(load_scenario(json.dumps(doc)), horizon=30)
        assert "coal" not in traj.records[2].energy.outputs
        assert traj.records[3].energy.outputs["coal"] > 0.0
        # richer content means higher surplus than the pre-event periods
        assert traj.records[3].energy.usable_surplus \
            > traj.records[2].energy.usable_surplus
        for r in traj.records[3:]:
            assert r.demand.lam is not None and r.demand.lam > 0.0

    def test_exhausted_source_ends_production_quietly(self):
        # once the primary source is mined out the energy side returns the
        # empty solution and the run settles instead of erroring out
        doc = scarce_doc(endowment=50.0)
        doc["energy_goods"][0]["pes_stock"] = 12.0
        traj = simulate(load_scenario(json.dumps(doc)))
        assert traj.error is None
        assert traj.steady
        last = traj.records[-1]
        assert last.state.cum_extraction["e0"] \
            == pytest.approx(12.0, abs=1e-9)
        assert last.energy.outputs["e0"] == 0.0
        assert last.energy.usable_surplus == 0.0
        # the steady test passes over a mined-out source's surplus gap
        assert last.energy.marginal_surplus["e0"] == 10.0

    def test_overflowing_stock_fails_its_period(self, cd1):
        # a stock grown past the floats leaves the fleet's power infinite
        state = initial_state(cd1)._replace(stocks={"m0": math.inf})
        with pytest.raises(SolverError, match="aggregate power"):
            enter_period(cd1, state, 1)

    def test_hard_pes_cap_is_respected(self):
        doc = scarce_doc(endowment=100.0)
        doc["energy_goods"][0]["pes_stock"] = 7.0
        doc["energy_goods"][0]["depletion_exponent"] = 0.0
        traj = simulate(load_scenario(json.dumps(doc)), horizon=5)
        cum = [r.state.cum_extraction["e0"] for r in traj.records]
        assert cum[-1] <= 7.0 + 1e-9
        total = cum[-1] + traj.records[-1].energy.outputs["e0"]
        assert total <= 7.0 + 1e-9


def shipped(name: str, seed: int | None = None):
    """A shipped scenario; with a ``seed``, a variant of ``scarce_growth``
    or ``shocks`` whose endowment, accumulation rate and energy content
    (and utility weights, or source stock and shock sizes) are scaled by
    draws of that seed."""
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    if seed is not None:
        rng = np.random.default_rng(seed)
        mover, good = doc["prime_movers"][0], doc["energy_goods"][0]
        mover["endowment"] *= rng.uniform(0.8, 1.25)
        mover["max_accum_rate"] *= rng.uniform(0.9, 1.1)
        good["energy_content"] *= rng.uniform(0.9, 1.1)
        if name == "shocks":
            good["pes_stock"] *= rng.uniform(0.9, 1.1)
            shift, arrival = doc["events"]
            shift["multiplier"] *= rng.uniform(0.95, 1.05)
            arrival["mover"]["endowment"] *= rng.uniform(0.8, 1.25)
        else:
            for other in doc["non_energy_goods"]:
                other["utility_weight"] = rng.uniform(0.3, 0.7)
    return load_scenario(json.dumps(doc))


@pytest.fixture
def builds(monkeypatch):
    """(good technology, multiplier) of every curve kernel built."""
    import egl.embodied
    real = egl.embodied.curve
    log = []

    def counted(tech, movers, multiplier=1.0):
        log.append((tech, multiplier))
        return real(tech, movers, multiplier)

    monkeypatch.setattr(egl.embodied, "curve", counted)
    return log


@pytest.fixture
def plans(monkeypatch):
    """Counts the consumer solve's ``_plan`` derivations."""
    import egl.demand
    real = egl.demand._plan
    count = [0]

    def counted(*args):
        count[0] += 1
        return real(*args)

    monkeypatch.setattr(egl.demand, "_plan", counted)
    return count


class TestKernelReuse:
    """A simulation builds a good's kernel once per technology and
    multiplier, derives the consumer's closed form once per set of kernels,
    and the kernels and memo it reuses change no number."""

    @pytest.mark.parametrize("name, seed", [
        ("reference", None), ("scarce_growth", None), ("shocks", None),
        ("arrivals", None), ("scarce_growth", 1), ("scarce_growth", 2),
        ("shocks", 1), ("shocks", 2)], ids=[
        "reference", "scarce_growth", "shocks", "arrivals",
        "scarce_growth-1", "scarce_growth-2", "shocks-1", "shocks-2"])
    def test_fresh_kernels_give_the_same_solutions(self, name, seed):
        # every solve without a store builds its own kernels
        scenario = shipped(name, seed)
        traj = simulate(scenario)
        assert traj.error is None and len(traj.records) > 0
        for record in traj.records:
            energy = solve_energy_side(scenario, record.state)
            assert energy == record.energy
            assert demand_for_state(
                scenario, record.state, energy.usable_surplus,
                energy.employment) == record.demand

    def test_one_build_per_good_without_changes(self, builds):
        scenario = shipped("scarce_growth")
        traj = simulate(scenario)
        assert len(traj.records) > 50
        goods = scenario.energy_goods + scenario.non_energy_goods
        assert [tech for tech, _ in builds] == [g.technology for g in goods]
        # a second run starts from an empty store
        builds.clear()
        simulate(scenario)
        assert len(builds) == 3

    def test_a_changed_multiplier_rebuilds(self, builds):
        # wood depletes its primary source, and an efficiency shift at
        # period 30 scales its curve: one build per run of equal
        # multipliers; cloth keeps its first kernel
        scenario = shipped("shocks")
        traj = simulate(scenario)
        wood, cloth = scenario.energy_goods[0], scenario.non_energy_goods[0]
        runs = []
        for record in traj.records:
            m = effective_multiplier(record.state.energy_goods["wood"],
                                     record.state)
            if not runs or runs[-1] != m:
                runs.append(m)
        assert 1 < len(runs) < len(traj.records)
        assert [m for tech, m in builds if tech is wood.technology] == runs
        assert [m for tech, m in builds if tech is cloth.technology] == [1.0]

    def test_an_event_rebuilds_its_good_once(self, builds, plans):
        doc = json.loads((SCENARIOS / "scarce_growth.json").read_text())
        doc["events"] = [{"period": 5, "kind": "efficiency_shift",
                          "good": "pots", "multiplier": 0.5}]
        scenario = load_scenario(json.dumps(doc))
        traj = simulate(scenario)
        assert len(traj.records) > 6
        assert [(tech, m) for tech, m in builds[3:]] == [
            (scenario.non_energy_goods[1].technology, 0.5)]
        # the rebuilt kernel needs a new consumer plan
        assert plans[0] == 2

    def test_the_consumer_plan_is_derived_once_per_kernel_set(self, plans):
        # no arrival brings a non-energy good, so ``arrivals`` keeps its
        # first plan; no plan outlives its run
        for name, count in (("scarce_growth", 1), ("scarce_growth", 1),
                            ("arrivals", 1)):
            plans[0] = 0
            simulate(shipped(name))
            assert plans[0] == count, name

    def test_records_are_immutable(self):
        record = simulate(shipped("scarce_growth"), horizon=0).records[0]
        for obj, name in ((record, "state"), (record.energy, "phi"),
                          (record.demand, "lam")):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)

    def test_no_arrival_returns_the_state_itself(self):
        scenario = shipped("arrivals")
        state = enter_period(scenario, initial_state(scenario), 0)
        later = state._replace(period=1)
        assert activate_due(scenario, later, 1) is later
        arrived = activate_due(scenario, state._replace(period=2), 2)
        assert set(arrived.movers) > set(state.movers)


class TestConsumerPass:
    """``simulate`` solves every period's demand after the energy-side
    dynamics, and a failed run ends as a period-by-period loop ends it:
    at the first period, in period order, whose entry or solve fails."""

    @pytest.fixture
    def solves(self, monkeypatch):
        """Logs (side, period) of every solve; ``fail[side]`` is the period
        whose solve on that side raises."""
        import egl.growth
        log, fail = [], {}

        def logged(side, solve):
            def run(scenario, state, *args):
                log.append((side, state.period))
                if fail.get(side) == state.period:
                    raise SolverError("degenerate",
                                      f"{side} fails at {state.period}")
                return solve(scenario, state, *args)
            return run

        monkeypatch.setattr(egl.growth, "solve_energy_side", logged(
            "energy", egl.growth.solve_energy_side))
        monkeypatch.setattr(egl.growth, "demand_for_state", logged(
            "demand", egl.growth.demand_for_state))
        return log, fail

    def test_energy_pass_runs_first(self, solves):
        log, _ = solves
        traj = simulate(shipped("scarce_growth"))
        assert traj.steady and len(traj.records) > 50
        periods = list(range(len(traj.records)))
        sides = [side for side, _ in log]
        first_demand = sides.index("demand")
        assert sides == ["energy"] * first_demand \
            + ["demand"] * (len(log) - first_demand)
        assert [t for _, t in log[:first_demand]] == periods
        assert [t for _, t in log[first_demand:]] == periods

    @pytest.mark.parametrize("fail, reported", [
        ({"demand": 3}, "demand"),
        ({"energy": 5, "demand": 3}, "demand"),
        ({"energy": 3, "demand": 5}, "energy")])
    def test_first_failing_period_ends_the_run(self, solves, fail,
                                               reported):
        solves[1].update(fail)
        scenario = shipped("scarce_growth")
        traj = simulate(scenario)
        assert [r.state.period for r in traj.records] == [0, 1, 2]
        assert not traj.steady
        assert traj.error == f"degenerate: {reported} fails at 3"
        for record in traj.records:
            assert record.demand == demand_for_state(
                scenario, record.state, record.energy.usable_surplus,
                record.energy.employment)

    def test_demand_failure_through_the_cli(self, solves, tmp_path,
                                            capsys):
        import egl.cli
        solves[1]["demand"] = 3
        out = tmp_path / "out"
        assert egl.cli.main(["simulate", "--scenario",
                             str(SCENARIOS / "scarce_growth.json"),
                             "--out", str(out)]) == 2
        assert [json.loads(line)
                for line in capsys.readouterr().err.splitlines()] == [{
                    "error": "solver",
                    "detail": "degenerate: demand fails at 3"}]
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:4]] == ["0", "1", "2"]
        assert rows[4:] == ["# aborted_period,3",
                            "# error,degenerate: demand fails at 3"]
