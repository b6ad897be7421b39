import math

from egl import initial_state, solve_energy_side
from egl.core import aggregate_power
from egl.demand import demand_for_state
from egl.embodied import sample_curve
from egl.growth import PeriodRecord, Trajectory, simulate
from egl.reports import (demand_csv, equilibrium_csv, fmt, meec_curve_csv,
                         trajectory_csv)

from conftest import cd1_scenario, scarce_scenario


class TestNumberFormat:
    def test_twelve_significant_digits(self):
        assert fmt(1.0 / 3.0) == "0.333333333333"
        assert fmt(123456789012345.0) == "1.23456789012e+14"

    def test_short_values_stay_short(self):
        assert fmt(5.0) == "5"
        assert fmt(0.25) == "0.25"
        assert fmt(0) == "0"

    def test_none_is_nan(self):
        assert fmt(None) == "nan"

    def test_strings_pass_through(self):
        assert fmt("endowment:m0") == "endowment:m0"


class TestCsvShape:
    def test_lf_only_line_endings(self):
        sc = cd1_scenario()
        state = initial_state(sc)
        sol = solve_energy_side(sc, state)
        dem = demand_for_state(sc, state, sol.usable_surplus, sol.employment)
        for text in (equilibrium_csv(state, sol), demand_csv(dem),
                     trajectory_csv(sc, simulate(sc))):
            assert "\r" not in text
            assert text.endswith("\n")

    def test_curve_export_columns(self):
        sc = cd1_scenario()
        state = initial_state(sc)
        good = state.energy_goods["e0"]
        points = sample_curve(good.technology, state.movers, 5.0, samples=11)
        text = meec_curve_csv(points)
        lines = text.splitlines()
        assert lines[0] == "Q,gamma,gamma_avg,G,eta"
        assert len(lines) == 12
        # square-cost curve: row at Q = 5 is gamma 10, avg 5, G 25, eta 1
        assert lines[-1] == "5,10,5,25,1"

    def test_trajectory_includes_steady_state_block(self):
        sc = scarce_scenario()
        text = trajectory_csv(sc, simulate(sc))
        assert "# steady_state_period," in text
        assert "# steady_state_Q_e0," in text

    def test_trajectory_rows_read_as_fmt(self):
        # the row template formats every field as ``fmt`` does: None and
        # NaN as nan, the infinities, and the integer period
        sc = scarce_scenario()
        record = simulate(sc, horizon=0).records[0]
        state = record.state._replace(period=7)
        energy = record.energy._replace(
            phi=math.nan, usable_surplus=math.inf, meroi={"e0": None},
            marginal_surplus={"e0": -math.inf})
        demand = record.demand._replace(lam=None)
        odd = Trajectory(records=(PeriodRecord(state, energy, demand),))
        row = [7, math.nan, math.inf, aggregate_power(state), None,
               energy.outputs["e0"], -math.inf, None, state.stocks["m0"],
               energy.mover_surplus["m0"]]
        lines = trajectory_csv(sc, odd).splitlines()
        assert lines[1] == ",".join(fmt(v) for v in row)
        assert lines[1].startswith("7,nan,inf,") and ",-inf,nan," in lines[1]
