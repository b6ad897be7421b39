import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from egl import (aggregate_power, direct_energy, initial_state,
                 load_scenario, scenario_digest, scenario_from_dict)
from egl.cli import main
from egl.core import EventSpec, PrimeMoverType, activate_due
from egl.errors import ScenarioParseError, ScenarioValidationError

from conftest import cd1_doc, cd1_scenario


def mover(power=1.0, dt=1.0, dep=0.5, gamma_a=0.0, endow=1.0, rate=0.0,
          intro=0, mid="m"):
    return PrimeMoverType(id=mid, power_rate=power, period_length=dt,
                          depreciation=dep, avg_embodied=gamma_a,
                          endowment=endow, max_accum_rate=rate,
                          intro_period=intro)


class TestDirectEnergy:
    def test_constant_power_integral(self):
        assert direct_energy(2.0, 10.0) == 20.0

    def test_identity_scale(self):
        assert direct_energy(1.0, 1.0) == 1.0

    def test_day_at_half_watt(self):
        # 0.5 W for 86400 s
        assert direct_energy(0.5, 86400.0) == 43200.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            direct_energy(0.0, 1.0)
        with pytest.raises(ValueError):
            direct_energy(1.0, -2.0)


class TestTotalTransfer:
    def test_direct_formula(self):
        m = mover(power=1.0, dt=1.0, dep=0.1, gamma_a=5.0)
        assert m.total_transfer == pytest.approx(1.5)

    def test_vanishing_depreciation(self):
        m = mover(power=1.0, dt=1.0, dep=1e-12, gamma_a=5.0)
        assert m.total_transfer == pytest.approx(1.0, rel=1e-9)

    def test_arithmetic(self):
        m = mover(power=2.0, dt=10.0, dep=0.5, gamma_a=8.0)
        assert m.direct_energy == 20.0
        assert m.total_transfer == 24.0

    def test_stored_derived_fields_recompute_bit_exact(self):
        m = mover(power=0.37, dt=7200.0, dep=0.123, gamma_a=19.5)
        assert m.direct_energy == m.power_rate * m.period_length
        assert m.total_transfer == m.direct_energy \
            + m.depreciation * m.avg_embodied
        assert m.total_transfer >= m.direct_energy > 0.0


class TestAggregatePower:
    def test_weighted_sum(self):
        sc = cd1_scenario()
        state = initial_state(sc)
        movers = {"a": mover(power=2.0, endow=4.0, mid="a"),
                  "b": mover(power=3.0, endow=5.0, mid="b")}
        state = state.__class__(period=0, movers=movers,
                                energy_goods=state.energy_goods,
                                non_energy_goods=state.non_energy_goods,
                                stocks={"a": 4.0, "b": 5.0},
                                cum_extraction={}, multipliers={})
        assert aggregate_power(state) == 23.0

    def test_empty_economy(self):
        sc = cd1_scenario()
        state = initial_state(sc)
        state = state.__class__(period=0, movers=state.movers,
                                energy_goods=state.energy_goods,
                                non_energy_goods=state.non_energy_goods,
                                stocks={"m0": 0.0}, cum_extraction={},
                                multipliers={})
        assert aggregate_power(state) == 0.0

    def test_inactive_mover_excluded(self):
        doc = cd1_doc()
        doc["prime_movers"] = [
            {"id": "a", "power_rate": 2.0, "depreciation": 0.5,
             "avg_embodied": 0.0, "endowment": 4.0, "max_accum_rate": 0.0},
            {"id": "b", "power_rate": 3.0, "depreciation": 0.5,
             "avg_embodied": 0.0, "endowment": 5.0, "max_accum_rate": 0.0,
             "intro_period": 5},
        ]
        doc["energy_goods"][0]["technology"]["exponents"] = {"a": 0.5}
        doc["non_energy_goods"] = [
            {"id": "n0", "technology": {"kind": "fixed_proportions",
                                        "requirements": {"a": 1.0},
                                        "curvature": {"c0": 1.0}},
             "utility_weight": 1.0}]
        sc = load_scenario(json.dumps(doc))
        assert aggregate_power(initial_state(sc)) == 8.0

    @given(st.floats(0.5, 4.0))
    def test_linearity_in_stocks(self, factor):
        sc = cd1_scenario()
        state = initial_state(sc)
        base = aggregate_power(state)
        scaled = state.__class__(
            period=0, movers=state.movers, energy_goods=state.energy_goods,
            non_energy_goods=state.non_energy_goods,
            stocks={k: v * factor for k, v in state.stocks.items()},
            cum_extraction={}, multipliers={})
        assert aggregate_power(scaled) == pytest.approx(base * factor,
                                                        rel=1e-12)


class TestLoadScenario:
    def test_minimal_document_populates_derived_fields(self):
        sc = cd1_scenario(period_length=3.0)
        m = sc.prime_movers[0]
        assert m.direct_energy == 3.0          # p * dt with p = 1 W
        assert m.total_transfer == 3.0

    def test_depreciation_out_of_range(self):
        doc = cd1_doc()
        doc["prime_movers"][0]["depreciation"] = 1.2
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(json.dumps(doc))
        assert "depreciation" in str(err.value)
        assert "(0,1)" in str(err.value)

    def test_unit_returns_to_scale_rejected(self):
        doc = cd1_doc()
        doc["energy_goods"][0]["technology"]["exponents"] = {"m0": 1.0}
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(json.dumps(doc))
        assert "returns to scale must be < 1" in str(err.value)

    def test_parse_error_carries_position(self):
        with pytest.raises(ScenarioParseError) as err:
            load_scenario("{ not json }")
        assert err.value.line == 1
        assert "line 1" in str(err.value)

    def test_unknown_mover_reference(self):
        doc = cd1_doc()
        doc["energy_goods"][0]["technology"]["exponents"] = {"ghost": 0.5}
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(json.dumps(doc))
        assert "ghost" in str(err.value)

    def test_duplicate_ids_rejected(self):
        doc = cd1_doc()
        doc["prime_movers"].append(dict(doc["prime_movers"][0]))
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(json.dumps(doc))
        assert "unique" in str(err.value)

    def test_unbounded_stock_requires_zero_depletion(self):
        doc = cd1_doc()
        doc["energy_goods"][0]["depletion_exponent"] = 0.5
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(json.dumps(doc))
        assert "depletion_exponent" in str(err.value)

    def test_needs_active_goods_at_start(self):
        doc = cd1_doc()
        doc["energy_goods"][0]["intro_period"] = 3
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(json.dumps(doc))
        assert "period 0" in str(err.value)

    def test_ces_elasticity_validated(self):
        doc = cd1_doc()
        doc["preferences"] = {"form": "ces", "elasticity": 1.0}
        with pytest.raises(ScenarioValidationError):
            load_scenario(json.dumps(doc))

    def test_unknown_field_rejected(self):
        doc = cd1_doc()
        doc["prime_movers"][0]["horsepower"] = 3.0
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(json.dumps(doc))
        assert "horsepower" in str(err.value)

    # the tolerances, the Euler step and the drive's normalization are
    # constants, and only force_phi is a solver setting
    @pytest.mark.parametrize("solver", [
        {"tolerances": {"slack": 1e-8}}, {"substeps": 2},
        {"accum_normalization": "own_eps"}, {"seed": 0}])
    def test_unread_solver_settings_rejected(self, solver):
        doc = cd1_doc()
        doc["solver"] = dict(solver, force_phi=0.5)
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(json.dumps(doc))
        assert err.value.field == f"$.solver.{next(iter(solver))}"
        assert "unknown field" in str(err.value)

    @pytest.mark.parametrize("value, parsed", [
        (None, None), (0.0, 0.0), (0.5, 0.5), (1.0, "must be in [0, 1)"),
        (-0.1, "must be in [0, 1)"), ("0.5", "must be a finite number")])
    def test_force_phi(self, value, parsed):
        doc = cd1_doc()
        doc["solver"] = {"force_phi": value}
        if isinstance(parsed, str):
            with pytest.raises(ScenarioValidationError) as err:
                load_scenario(json.dumps(doc))
            assert err.value.field == "$.solver.force_phi"
            assert parsed in str(err.value)
        else:
            assert load_scenario(json.dumps(doc)).force_phi == parsed


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

#: Deletes the value at the row's path instead of replacing it.
_DROP = object()

_SHOCK = {"period": 0, "kind": "endowment_shock", "mover": "workers",
          "delta": 1.0}

#: One edit to a shipped scenario per row: the scenario, the path of the
#: value it replaces and the field the parser must name.  With the tests
#: above, the rows reach each check of the document boundary.
BOUNDARY = [
    ("reference", (), [], "$"),
    ("reference", ("period_length",), 0, "$.period_length"),
    ("reference", ("period_length",), "1", "$.period_length"),
    ("reference", ("horizon",), -1, "$.horizon"),
    ("reference", ("horizon",), True, "$.horizon"),
    ("reference", ("solver",), [], "$.solver"),
    ("reference", ("prime_movers",), [], "$.prime_movers"),
    ("reference", ("prime_movers", 0), 5, "$.prime_movers[0]"),
    ("reference", ("prime_movers", 0, "id"), "", "$.prime_movers[0].id"),
    ("reference", ("prime_movers", 0, "power_rate"), 0.0,
     "$.prime_movers[0].power_rate"),
    ("reference", ("prime_movers", 0, "power_rate"), _DROP,
     "$.prime_movers[0].power_rate"),
    ("reference", ("prime_movers", 0, "avg_embodied"), -1.0,
     "$.prime_movers[0].avg_embodied"),
    ("reference", ("prime_movers", 0, "endowment"), -1.0,
     "$.prime_movers[0].endowment"),
    ("reference", ("prime_movers", 0, "max_accum_rate"), -0.1,
     "$.prime_movers[0].max_accum_rate"),
    ("reference", ("prime_movers", 0, "intro_period"), -1,
     "$.prime_movers[0].intro_period"),
    ("reference", ("prime_movers", 0, "intro_period"), 1.5,
     "$.prime_movers[0].intro_period"),
    ("reference", ("energy_goods",), "grain", "$.energy_goods"),
    ("reference", ("energy_goods", 0), None, "$.energy_goods[0]"),
    ("reference", ("energy_goods", 0, "id"), 3, "$.energy_goods[0].id"),
    ("reference", ("energy_goods", 0, "id"), "cloth", "$.energy_goods"),
    ("reference", ("energy_goods", 0, "energy_content"), 0.0,
     "$.energy_goods[0].energy_content"),
    ("reference", ("energy_goods", 0, "pes_stock"), 0.0,
     "$.energy_goods[0].pes_stock"),
    ("reference", ("energy_goods", 0, "depletion_exponent"), -1.0,
     "$.energy_goods[0].depletion_exponent"),
    ("reference", ("energy_goods", 0, "requirement_multiplier"), 0.0,
     "$.energy_goods[0].requirement_multiplier"),
    ("reference", ("energy_goods", 0, "intro_period"), -1,
     "$.energy_goods[0].intro_period"),
    ("reference", ("energy_goods", 0, "technology"), [],
     "$.energy_goods[0].technology"),
    ("reference", ("energy_goods", 0, "technology", "kind"), "leontief",
     "$.energy_goods[0].technology.kind"),
    ("reference", ("energy_goods", 0, "technology", "scale"), 0.0,
     "$.energy_goods[0].technology.scale"),
    ("reference", ("energy_goods", 0, "technology", "exponents"), {},
     "$.energy_goods[0].technology.exponents"),
    ("reference", ("energy_goods", 0, "technology", "exponents", "workers"),
     -0.5, "$.energy_goods[0].technology.exponents.workers"),
    ("reference", ("energy_goods", 0, "technology", "exponents", "workers"),
     0.0, "$.energy_goods[0].technology.exponents"),
    ("reference", ("non_energy_goods",), [], "$.non_energy_goods"),
    ("reference", ("non_energy_goods", 0), [1, 2], "$.non_energy_goods[0]"),
    ("reference", ("non_energy_goods", 0, "id"), None,
     "$.non_energy_goods[0].id"),
    ("reference", ("non_energy_goods", 0, "utility_weight"), 0.0,
     "$.non_energy_goods[0].utility_weight"),
    ("reference", ("non_energy_goods", 0, "requirement_multiplier"), -1.0,
     "$.non_energy_goods[0].requirement_multiplier"),
    ("reference", ("non_energy_goods", 0, "intro_period"), -1,
     "$.non_energy_goods[0].intro_period"),
    ("arrivals", ("non_energy_goods", 0, "intro_period"), 1,
     "$.non_energy_goods"),
    ("reference", ("non_energy_goods", 0, "technology", "requirements",
                   "workers"), 0.0,
     "$.non_energy_goods[0].technology.requirements"),
    ("reference", ("non_energy_goods", 0, "technology", "curvature"), 3,
     "$.non_energy_goods[0].technology.curvature"),
    ("reference", ("non_energy_goods", 0, "technology", "curvature", "c0"),
     0.0, "$.non_energy_goods[0].technology.curvature.c0"),
    ("reference", ("preferences",), [], "$.preferences"),
    ("reference", ("preferences", "form"), "leontief", "$.preferences.form"),
    ("reference", ("preferences", "weights"), 1, "$.preferences.weights"),
    ("reference", ("preferences", "weights"), {"ghost": 1.0},
     "$.preferences.weights.ghost"),
    ("reference", ("preferences", "weights"), {"cloth": 0.0},
     "$.preferences.weights.cloth"),
    ("reference", ("preferences", "elasticity"), 2.0,
     "$.preferences.elasticity"),
    ("reference", ("events",), {}, "$.events"),
    ("reference", ("events",), [5], "$.events[0]"),
    ("reference", ("events",), [dict(_SHOCK, mover="ghost")],
     "$.events[0].mover"),
    ("reference", ("events",), [dict(_SHOCK, mover=["workers"])],
     "$.events[0].mover"),
    ("reference", ("events",), [dict(_SHOCK, mover={"id": "workers"})],
     "$.events[0].mover"),
    ("reference", ("events",), [dict(_SHOCK, delta="1")],
     "$.events[0].delta"),
    ("shocks", ("energy_goods", 0, "technology", "curvature", "c1"), -1.0,
     "$.energy_goods[0].technology.curvature.c1"),
    ("shocks", ("energy_goods", 0, "technology", "curvature", "tau"), 0.0,
     "$.energy_goods[0].technology.curvature.tau"),
    ("shocks", ("energy_goods", 0, "technology", "curvature", "c2"), -1.0,
     "$.energy_goods[0].technology.curvature.c2"),
    ("shocks", ("energy_goods", 0, "technology", "curvature", "q_s"), 0.0,
     "$.energy_goods[0].technology.curvature.q_s"),
    ("shocks", ("energy_goods", 0, "technology", "curvature", "rho"), 0.5,
     "$.energy_goods[0].technology.curvature.rho"),
    ("shocks", ("events", 0, "kind"), "boom", "$.events[0].kind"),
    ("shocks", ("events", 0, "period"), -1, "$.events[0].period"),
    ("shocks", ("events", 0, "good"), "ghost", "$.events[0].good"),
    ("shocks", ("events", 0, "good"), ["wood"], "$.events[0].good"),
    ("shocks", ("events", 0, "good"), {"id": "wood"}, "$.events[0].good"),
    ("shocks", ("events", 0, "multiplier"), 0.0, "$.events[0].multiplier"),
    ("shocks", ("events", 0, "multiplier"), 1.0, "$.events[0].multiplier"),
    ("shocks", ("events", 0, "kind"), "meec_shift", "$.events[0].multiplier"),
    ("shocks", ("events", 1, "mover"), 5, "$.events[1].mover"),
    ("shocks", ("events", 1, "mover", "power_rate"), -4.0,
     "$.events[1].mover.power_rate"),
    ("arrivals", ("events", 1, "good"), None, "$.events[1].good"),
    ("arrivals", ("events", 1, "good", "technology", "exponents"),
     {"ghost": 0.5}, "$.events[1].good.technology"),
    # a good uses no prime mover before the mover arrives
    ("arrivals", ("prime_movers", 0, "intro_period"), 2,
     "$.energy_goods[0].technology"),
    ("arrivals", ("non_energy_goods", 0, "technology", "requirements"),
     {"engines": 1.0}, "$.non_energy_goods[0].technology"),
    ("arrivals", ("events", 1, "period"), 1, "$.events[1].good.technology"),
]

#: Edits that validate but carry the solve out of the float range; each
#: fails its command with exit 2: (scenario, path, value, command, the
#: detail of the one error line).
_CURVATURE = ("energy_goods", 0, "technology", "curvature")
SOLVER_BOUNDARY = [
    # the profile's power term overflows past q_s on the tangency search
    *[("shocks", (*_CURVATURE, "rho"), 1e300, command,
       "degenerate: requirement profile overflows at output 8")
      for command in ("equilibrium", "simulate")],
    # the output cap h(q) = stock / nu lies past the floats: target / c0 =
    # 1e10 / 1e-300 overflows before the cap's root is sought
    *[("shocks", ("energy_goods", 0, "technology"),
       {"kind": "fixed_proportions", "requirements": {"workers": 1e-10},
        "curvature": {"c0": 1e-300}}, command,
       "degenerate: output cap of 'workers' stock 1 overflows")
      for command in ("equilibrium", "simulate")],
    # 4 W x 1e308 arriving engines: the fleet's power is infinite
    ("arrivals", ("events", 0, "mover", "endowment"), 1e308, "simulate",
     "degenerate: aggregate power of the fleet overflows at period 2"),
    # m (K/B) = 2 times scale ** -2 = 1e308: the curve's prefix overflows
    # by the product, not the power
    ("reference", ("energy_goods", 0, "technology", "scale"), 1e-154,
     "equilibrium",
     "degenerate: Cobb-Douglas curve overflows at returns to scale 0.5"),
    # a subnormal stock caps wood at 5e-324, where h(q) / q underflows to 0
    # in its shutdown threshold
    *[("shocks", ("energy_goods", 0, "pes_stock"), 5e-324, command,
       "degenerate: average requirement profile underflows at output "
       "4.94066e-324")
      for command in ("equilibrium", "simulate")],
    # the arriving coal's output is a subnormal, so beta * q underflows in
    # its marginal requirements
    ("arrivals", ("events", 1, "good", "pes_stock"), 5e-324, "simulate",
     "degenerate: marginal requirements underflow at output 4.94066e-324"),
    # tau * c2 * rho underflows in the dip's bracket, which then keeps
    # max(tau, q_s); past q = 0 the decay term's slope is inf * 0
    *[("shocks", (*_CURVATURE, "tau"), 5e-324, command,
       "degenerate: residual or slope is NaN at x = 4")
      for command in ("equilibrium", "simulate")],
]


#: Documents a fuzz of the shipped scenarios found, which validate but
#: overflow a transfer; each fails its command with exit 2 and writes no
#: infinity: (scenario, edits as (path, value), command, detail).
OVERFLOW_REPROS = [
    # (1 + drawn) ** 1e300 for the arriving coal
    ("arrivals", [(("events", 1, "good", "pes_stock"), 0.999999999999),
                  (("events", 1, "good", "depletion_exponent"), 1e300)],
     "simulate",
     "degenerate: depletion multiplier of 'coal' overflows"),
    # omega = 5e307 J, so gamma(0) = m * omega * h'(0) overflows
    ("shocks", [(("prime_movers", 0, "avg_embodied"), 1e308)], "simulate",
     "degenerate: marginal embodied energy of 'wood' overflows at output 0"),
    # a workers' unit transfers 3 W over 1e308 s
    ("shocks", [(("period_length",), 1e308),
                (("prime_movers", 0, "power_rate"), 3),
                (("events", 1, "mover", "power_rate"), 1e-300)],
     "equilibrium",
     "degenerate: marginal embodied energy of 'wood' overflows at output 0"),
]


#: Documents whose edits leave a prime mover transferring no energy: a
#: subnormal power_rate * period_length rounds to 0 J and the unit embodies
#: none, so every curve on it would divide by zero; each is refused at the
#: field: (scenario, edits as (path, value), field).
TRANSFER_UNDERFLOWS = [
    # 0.5 W over 5e-324 s
    ("scarce_growth", [(("period_length",), 5e-324),
                       (("prime_movers", 0, "power_rate"), 0.5)],
     "$.prime_movers[0].power_rate"),
    # engines arriving in period 2 at 5e-324 W over 0.25 s
    ("arrivals", [(("period_length",), 0.25),
                  (("events", 0, "mover", "power_rate"), 5e-324),
                  (("events", 0, "mover", "avg_embodied"), 0.0)],
     "$.events[0].mover.power_rate"),
]


def edited(name: str, where: tuple, value, *more):
    """The shipped scenario ``name`` with ``value`` at the path ``where``,
    and each further (path, value) pair in ``more``; the empty path
    replaces the whole document."""
    doc = json.loads((SCENARIOS / f"{name}.json").read_text())
    if not where:
        return value
    for path, new in [(where, value), *more]:
        target = doc
        for step in path[:-1]:
            target = target[step]
        if new is _DROP:
            del target[path[-1]]
        else:
            target[path[-1]] = new
    return doc


class TestDocumentBoundary:
    @pytest.mark.parametrize("name, where, value, field", BOUNDARY)
    def test_one_edit_names_one_field(self, tmp_path, capsys, name, where,
                                      value, field):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(edited(name, where, value)),
                        encoding="utf-8")
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(path.read_text(encoding="utf-8"))
        assert err.value.field == field
        # the CLI reports the same error as its one JSON line
        assert main(["validate", "--scenario", str(path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert [json.loads(line) for line in lines] == [
            {"error": "validation", "detail": str(err.value)}]

    @pytest.mark.parametrize("name, where, value, command, detail",
                             SOLVER_BOUNDARY)
    def test_solve_out_of_range_exits_2(self, tmp_path, capsys, name,
                                        where, value, command, detail):
        self.exits_2(tmp_path, capsys, edited(name, where, value), command,
                     detail)

    @pytest.mark.parametrize("name, edits, command, detail",
                             OVERFLOW_REPROS)
    def test_overflowing_transfer_exits_2(self, tmp_path, capsys, name,
                                          edits, command, detail):
        self.exits_2(tmp_path, capsys, edited(name, *edits[0], *edits[1:]),
                     command, detail)

    @pytest.mark.parametrize("name, edits, field", TRANSFER_UNDERFLOWS)
    def test_vanishing_transfer_names_its_field(self, tmp_path, capsys,
                                                name, edits, field):
        doc = edited(name, *edits[0], *edits[1:])
        with pytest.raises(ScenarioValidationError) as err:
            scenario_from_dict(doc)
        assert err.value.field == field
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["simulate", "--scenario", str(path),
                     "--out", str(tmp_path / "out")]) == 1
        assert [json.loads(line)
                for line in capsys.readouterr().err.splitlines()] == [
            {"error": "validation", "detail": str(err.value)}]

    @staticmethod
    def exits_2(tmp_path, capsys, doc, command, detail):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, "--scenario", str(path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [json.loads(line) for line in err.splitlines()] == [
            {"error": "solver", "detail": detail}]
        # a simulation keeps the rows before the failed period, and
        # nothing written holds an infinity
        if command == "simulate":
            assert "# aborted_period," in (out / "trajectory.csv").read_text()
        assert not any("inf" in f.read_text() for f in out.glob("*.csv"))

    # curvatures that put the cap far from 1 and still solve: at
    # c0 = 1e-300 the power term sets the cap, c2 = 1e300 puts it near
    # 1e-100, which a bracket search from [0, 2] did not reach in its
    # iteration cap, and c0 or c1 = 1e300 put it near 1e-300, where the
    # root finder must stop at float resolution
    @pytest.mark.parametrize("key, value", [
        ("c0", 1e-300), ("c0", 1e300), ("c1", 1e300), ("c2", 1e300)])
    @pytest.mark.parametrize("command", ["equilibrium", "simulate"])
    def test_extreme_curvature_solves(self, tmp_path, capsys, key, value,
                                      command):
        doc = edited("shocks", (*_CURVATURE, key), value)
        doc["horizon"] = 40
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, "--scenario", str(path),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert not any("inf" in f.read_text() for f in out.glob("*.csv"))

    # tiny scales that still solve: rho just above 1 puts the profile's
    # dip near 1e-130, far below tau and q_s, where the dip's bracket
    # used to start, and q_s = 1e-300 leaves wood an output of 3.7e-300
    # and a budget of 1.4e-299 J, bought at a multiplier of 1.8e199
    @pytest.mark.parametrize("where, value", [
        (_CURVATURE, {"c0": 1, "c1": 1, "tau": 1, "c2": 1, "q_s": 0.1,
                      "rho": 1.0078125}),
        ((*_CURVATURE, "q_s"), 1e-300)], ids=["dip", "budget"])
    @pytest.mark.parametrize("command", ["equilibrium", "simulate"])
    def test_tiny_scale_solves(self, tmp_path, capsys, where, value,
                               command):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(edited("shocks", where, value)),
                        encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, "--scenario", str(path),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert not any("inf" in f.read_text() for f in out.glob("*.csv"))

    def test_family_that_is_not_json_exits_1(self, tmp_path, capsys):
        family = tmp_path / "family.json"
        family.write_text("{ not json", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["statics", "--family", str(family), "--seed", "1",
                     "--trials", "1", "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "parse"
        assert not out.exists()


class TestRoundTrip:
    def test_round_trip_with_events_and_solver(self):
        doc = cd1_doc()
        doc["events"] = [
            {"period": 3, "kind": "efficiency_shift", "good": "e0",
             "multiplier": 0.5},
            {"period": 4, "kind": "endowment_shock", "mover": "m0",
             "delta": 2.5},
            {"period": 5, "kind": "new_prime_mover",
             "mover": {"id": "m1", "power_rate": 2.0, "depreciation": 0.3,
                       "avg_embodied": 1.0, "endowment": 0.1,
                       "max_accum_rate": 0.4}},
            {"period": 6, "kind": "new_energy_good",
             "good": {"id": "coal", "energy_content": 25.0,
                      "pes_stock": 900.0, "depletion_exponent": 1.5,
                      "technology": {"kind": "cobb_douglas", "scale": 1.0,
                                     "exponents": {"m0": 0.4}}}},
        ]
        doc["solver"] = {"force_phi": 0.25}
        sc = load_scenario(json.dumps(doc))
        # arrivals join the type lists; only the shocks stay events
        assert [ev.kind for ev in sc.events] == [
            "efficiency_shift", "endowment_shock"]
        assert [m.id for m in sc.prime_movers] == ["m0", "m1"]
        assert sc.prime_movers[-1].intro_period == 5
        assert [g.id for g in sc.energy_goods] == ["e0", "coal"]
        assert sc.energy_goods[-1].intro_period == 6
        assert sc.force_phi == 0.25

    def test_digest_stable_under_key_reordering(self):
        doc = cd1_doc()
        forward = json.dumps(doc)
        backward = json.dumps(dict(reversed(list(doc.items()))))
        assert json.loads(forward) == json.loads(backward)
        assert scenario_digest(forward) == scenario_digest(backward)


class TestEventTargets:
    @staticmethod
    def arrivals_doc(shift_period):
        doc = cd1_doc()
        doc["events"] = [
            {"period": 2, "kind": "new_prime_mover",
             "mover": {"id": "m1", "power_rate": 2.0, "depreciation": 0.3,
                       "avg_embodied": 1.0, "endowment": 0.1}},
            {"period": 3, "kind": "new_energy_good",
             "good": {"id": "coal", "energy_content": 25.0,
                      "technology": {"kind": "cobb_douglas", "scale": 1.0,
                                     "exponents": {"m1": 0.4}}}},
            {"period": shift_period, "kind": "efficiency_shift",
             "good": "coal", "multiplier": 0.5},
            {"period": 2, "kind": "endowment_shock", "mover": "m1",
             "delta": 0.2},
        ]
        return doc

    def test_shock_at_or_after_arrival_accepted(self):
        sc = load_scenario(json.dumps(self.arrivals_doc(3)))
        assert [ev.period for ev in sc.events] == [3, 2]

    def test_shift_before_its_good_arrives_rejected(self):
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(json.dumps(self.arrivals_doc(2)))
        assert err.value.field == "$.events[2].period"
        assert "'coal' at period 3" in str(err.value)

    def test_shock_before_listed_mover_arrives_rejected(self):
        doc = cd1_doc()
        doc["prime_movers"].append(
            {"id": "late", "power_rate": 1.0, "depreciation": 0.5,
             "avg_embodied": 0.0, "endowment": 3.0, "intro_period": 4})
        doc["events"] = [{"period": 1, "kind": "endowment_shock",
                          "mover": "late", "delta": 1.0}]
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(json.dumps(doc))
        assert err.value.field == "$.events[0].period"

    @staticmethod
    def oxen_doc(hay_intro):
        """arrivals.json with a listed mover ``oxen`` arriving at period 4
        and a listed energy good ``hay`` on it from ``hay_intro``."""
        doc = json.loads((SCENARIOS / "arrivals.json").read_text())
        doc["prime_movers"].append(
            {"id": "oxen", "power_rate": 2.0, "depreciation": 0.2,
             "avg_embodied": 1.0, "endowment": 0.5, "intro_period": 4})
        doc["energy_goods"].append(
            {"id": "hay", "energy_content": 6.0, "intro_period": hay_intro,
             "technology": {"kind": "cobb_douglas", "scale": 1.0,
                            "exponents": {"oxen": 0.3}}})
        return doc

    def test_good_before_its_mover_arrives_rejected(self):
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(json.dumps(self.oxen_doc(0)))
        assert err.value.field == "$.energy_goods[1].technology"
        assert str(err.value) == (
            "$.energy_goods[1].technology: uses prime mover 'oxen' before "
            "its arrival at period 4")

    def test_good_from_its_movers_arrival_accepted(self, tmp_path):
        # an arrival event is equivalent to a listed record, so a listed
        # good may use a mover that an event brings in
        sc = load_scenario(json.dumps(self.oxen_doc(4)))
        assert sc.energy_goods[1].intro_period == 4
        doc = json.loads((SCENARIOS / "arrivals.json").read_text())
        doc["non_energy_goods"].append(
            {"id": "rails", "utility_weight": 1.0, "intro_period": 2,
             "technology": {"kind": "fixed_proportions",
                            "requirements": {"engines": 1.0},
                            "curvature": {"c0": 1.0}}})
        load_scenario(json.dumps(doc))
        path = tmp_path / "oxen.json"
        path.write_text(json.dumps(self.oxen_doc(4)), encoding="utf-8")
        assert main(["simulate", "--scenario", str(path), "--horizon", "6",
                     "--out", str(tmp_path / "out")]) == 0

    def test_good_on_an_undefined_mover_stays_unknown(self):
        doc = self.oxen_doc(0)
        del doc["prime_movers"][1]
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(json.dumps(doc))
        assert str(err.value) == ("$.energy_goods[1].technology: references "
                                  "unknown prime mover 'oxen'")

    def test_arrival_reusing_listed_good_id_rejected(self):
        doc = self.arrivals_doc(3)
        doc["events"][1]["good"]["id"] = "e0"
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(json.dumps(doc))
        assert err.value.field == "$.events[1].good.id"


class TestActivation:
    def test_intro_period_activation(self):
        doc = cd1_doc()
        doc["prime_movers"].append(
            {"id": "late", "power_rate": 1.0, "depreciation": 0.5,
             "avg_embodied": 0.0, "endowment": 3.0, "max_accum_rate": 0.0,
             "intro_period": 2})
        sc = load_scenario(json.dumps(doc))
        state = initial_state(sc)
        assert "late" not in state.movers
        state = activate_due(sc, state, 2)
        assert state.stocks["late"] == 3.0


def model_types() -> dict[type, object]:
    """One instance of each model type, taken from real solves."""
    from egl.core import CobbDouglas, FixedProportions
    from egl.embodied import MeecPoint, sample_curve
    from egl.growth import Trajectory, simulate
    from egl.statics import SignTable
    from egl.surplus import Figure1Data, figure1_report, solve_energy_side

    scenario = load_scenario((SCENARIOS / "shocks.json").read_text())
    state = initial_state(scenario)
    wood = scenario.energy_goods[0]
    instances = [
        scenario, state, scenario.prime_movers[0], wood, wood.technology,
        scenario.non_energy_goods[0], scenario.preferences,
        scenario.events[0],
        sample_curve(wood.technology, state.movers, 1.0, samples=2)[1],
        simulate(scenario, horizon=0),
        SignTable(proposition="a", trials=1, confirmations=1, failures=(),
                  step=1e-3),
        figure1_report(scenario, state, wood.id,
                       solve_energy_side(scenario, state)),
        cd1_scenario().energy_goods[0].technology,
    ]
    found = {type(obj): obj for obj in instances}
    assert {CobbDouglas, FixedProportions, MeecPoint, Trajectory, SignTable,
            Figure1Data} <= set(found)
    assert len(found) == 13
    return found


class TestModelTypes:
    """The model types are immutable records with typed equality."""

    def test_no_field_can_be_assigned_or_deleted(self):
        for obj in model_types().values():
            for name in (*obj._fields, "unknown"):
                with pytest.raises(AttributeError):
                    setattr(obj, name, None)
                with pytest.raises(AttributeError):
                    delattr(obj, name)

    def test_types_with_equal_field_values_differ(self):
        # a NamedTuple would equal any tuple, or record of another type,
        # holding the same values; ``Kernels.derived`` compares by ``==``
        types = list(model_types())
        for a in types:
            values = tuple(float(i + 1) for i in range(len(a._fields)))
            assert a(*values) == a(*values)
            assert hash(a(*values)) == hash(a(*values))
            assert a(*values) != values
            for b in types:
                if b is not a and len(b._fields) == len(a._fields):
                    assert a(*values) != b(*values), (a, b)

    def test_replace_keeps_every_other_field(self):
        for obj in model_types().values():
            name = obj._fields[0]
            new = obj._replace(**{name: "changed"})
            assert type(new) is type(obj)
            assert getattr(new, name) == "changed"
            assert all(getattr(new, f) is getattr(obj, f)
                       for f in obj._fields[1:])
            assert obj._replace() == obj
            with pytest.raises(TypeError):
                obj._replace(unknown=1)

    @pytest.mark.parametrize("event, changed", [
        (EventSpec(period=0, kind="efficiency_shift", good="wood",
                   multiplier=0.5), "multipliers"),
        (EventSpec(period=0, kind="meec_shift", good="wood", multiplier=2.0),
         "multipliers"),
        (EventSpec(period=0, kind="endowment_shock", mover="workers",
                   delta=1.0), "stocks")])
    def test_an_event_changes_one_field_of_the_state(self, event, changed):
        from egl.growth import apply_event

        scenario = load_scenario((SCENARIOS / "shocks.json").read_text())
        state = initial_state(scenario)
        new = apply_event(state, event)
        assert type(new) is type(state)
        for name in state._fields:
            if name == changed:
                assert getattr(new, name) != getattr(state, name)
            else:
                assert getattr(new, name) is getattr(state, name)

    def test_an_arrival_derives_its_transfers_again(self):
        scenario = load_scenario((SCENARIOS / "arrivals.json").read_text())
        late = [m for m in scenario.prime_movers if m.intro_period > 0]
        assert late
        for m in late:
            fresh = PrimeMoverType(**{f: getattr(m, f) for f in m._fields})
            assert fresh == m
            assert (fresh.direct_energy, fresh.total_transfer) == \
                (m.direct_energy, m.total_transfer)

    def test_copies_and_repr_keep_the_fields(self):
        import copy
        import pickle

        # by repr, which shows every field: NaN fields never compare equal
        for obj in model_types().values():
            assert repr(obj).startswith(f"{type(obj).__name__}(")
            for copied in (copy.deepcopy(obj),
                           pickle.loads(pickle.dumps(obj))):
                assert type(copied) is type(obj)
                assert repr(copied) == repr(obj)
