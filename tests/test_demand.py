import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from egl import initial_state, scenario_from_dict
from egl.core import (CobbDouglas, FixedProportions, NonEnergyGood,
                      Preferences, PrimeMoverType)
from egl.demand import (demand_for_state, marginal_utility, solve_demands,
                        usability_slack)
from egl.embodied import curve
from egl.errors import SolverError
from egl.surplus import solve_energy_side

from oracles import log_utility, max_utility, tangency_residual


def support_movers(**omegas):
    return {mid: PrimeMoverType(id=mid, power_rate=w, period_length=1.0,
                                depreciation=0.5, avg_embodied=0.0,
                                endowment=100.0, max_accum_rate=0.0)
            for mid, w in omegas.items()}


def constant_good(gid, gamma, omega=1.0):
    from egl.core import NonEnergyGood
    return NonEnergyGood(
        id=gid, utility_weight=1.0,
        technology=FixedProportions(requirements={"m": 1.0},
                                    c0=gamma / omega))


MOVERS = support_movers(m=1.0)


def cobb_prefs(**weights):
    return Preferences(form="cobb_douglas", weights=weights)


class TestSolveDemands:
    def test_symmetric_bundle(self):
        # constant unit curves split the budget by weight: Q_n = a_n E / gamma
        goods = [constant_good("n0", 1.0), constant_good("n1", 1.0)]
        sol = solve_demands(cobb_prefs(n0=0.5, n1=0.5), goods, MOVERS, 18.75)
        assert sol.bundle["n0"] == pytest.approx(9.375, rel=1e-9)
        assert sol.bundle["n1"] == pytest.approx(9.375, rel=1e-9)
        assert sol.lam == pytest.approx(0.5, rel=1e-9)

    def test_asymmetric_curves(self):
        goods = [constant_good("n0", 2.0), constant_good("n1", 1.0)]
        sol = solve_demands(cobb_prefs(n0=0.5, n1=0.5), goods, MOVERS, 18.75)
        assert sol.bundle["n0"] == pytest.approx(4.6875, rel=1e-9)
        assert sol.bundle["n1"] == pytest.approx(9.375, rel=1e-9)
        # marginal utility per joule, identical across goods at the optimum
        assert sol.lam == pytest.approx(math.sqrt(2.0) / 4.0, rel=1e-9)

    def test_single_good_collapses_to_budget_point(self):
        goods = [constant_good("n0", 2.5)]
        sol = solve_demands(cobb_prefs(n0=0.5), goods, MOVERS, 10.0)
        q = 10.0 / 2.5
        assert sol.bundle["n0"] == pytest.approx(q, rel=1e-10)
        assert sol.lam == pytest.approx(0.5 * q ** (-0.5) / 2.5, rel=1e-8)

    def test_zero_budget_empty_bundle(self):
        goods = [constant_good("n0", 1.0)]
        sol = solve_demands(cobb_prefs(n0=1.0), goods, MOVERS, 0.0)
        assert sol.bundle["n0"] == 0.0
        assert sol.lam is None
        assert sol.feasible
        # each null solution holds dicts of its own
        other = solve_demands(cobb_prefs(n0=1.0), goods, MOVERS, 0.0)
        assert other == sol
        assert other.gamma_marginal is not sol.gamma_marginal
        assert other.gamma_average is not sol.gamma_average

    def test_budget_exhaustion(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            goods = [constant_good(f"n{i}", float(rng.uniform(0.5, 5.0)))
                     for i in range(n)]
            weights = {f"n{i}": float(rng.uniform(0.2, 5.0))
                       for i in range(n)}
            e = float(rng.uniform(1.0, 100.0))
            sol = solve_demands(cobb_prefs(**weights), goods, MOVERS, e)
            assert abs(sol.budget_residual) <= 1e-8 * e

    def test_first_order_conditions(self):
        rng = np.random.default_rng(32)
        for form in ("cobb_douglas", "ces"):
            for _ in range(30):
                n = int(rng.integers(2, 5))
                goods = [constant_good(f"n{i}", float(rng.uniform(0.5, 5.0)))
                         for i in range(n)]
                weights = {f"n{i}": float(rng.uniform(0.2, 5.0))
                           for i in range(n)}
                sigma = float(rng.uniform(1.2, 3.0)) if form == "ces" else None
                prefs = Preferences(form=form, weights=weights,
                                    elasticity=sigma)
                e = float(rng.uniform(5.0, 60.0))
                sol = solve_demands(prefs, goods, MOVERS, e)
                for gid in weights:
                    mu = marginal_utility(prefs, sol.bundle, gid)
                    assert mu / sol.lam == pytest.approx(
                        sol.gamma_marginal[gid], rel=1e-6)
                assert tangency_residual(prefs, sol.bundle,
                                         sol.gamma_marginal) < 1e-6

    def test_ces_matches_closed_form(self):
        # constant curves: Q_n = a^sigma gamma^-sigma E / sum a^sigma gamma^(1-sigma)
        sigma = 1.7
        gammas = {"n0": 1.0, "n1": 2.0, "n2": 0.7}
        weights = {"n0": 1.0, "n1": 0.8, "n2": 2.0}
        goods = [constant_good(gid, g) for gid, g in gammas.items()]
        prefs = Preferences(form="ces", weights=weights, elasticity=sigma)
        e = 40.0
        denom = sum(weights[g] ** sigma * gammas[g] ** (1.0 - sigma)
                    for g in gammas)
        sol = solve_demands(prefs, goods, MOVERS, e)
        for gid in gammas:
            expected = weights[gid] ** sigma * gammas[gid] ** (-sigma) \
                * e / denom
            assert sol.bundle[gid] == pytest.approx(expected, rel=1e-8)

    def test_rising_curve_demand(self):
        # gamma(q) = q on a square-cost technology: with one good the budget
        # pins q**2 / 2... cumulative cost q**2 equals E for C(Q) = Q**2
        from egl.core import NonEnergyGood
        good = NonEnergyGood(
            id="n0", utility_weight=1.0,
            technology=CobbDouglas(scale=1.0, exponents={"m": 0.5}))
        sol = solve_demands(cobb_prefs(n0=1.0), [good], MOVERS, 16.0)
        assert sol.bundle["n0"] == pytest.approx(4.0, rel=1e-9)

    def test_homogeneity_in_scale(self):
        # scaling all constant curves and E leaves the bundle, divides lambda
        goods1 = [constant_good("n0", 1.0), constant_good("n1", 3.0)]
        goods2 = [constant_good("n0", 2.0), constant_good("n1", 6.0)]
        prefs = cobb_prefs(n0=1.0, n1=2.0)
        a = solve_demands(prefs, goods1, MOVERS, 10.0)
        b = solve_demands(prefs, goods2, MOVERS, 20.0)
        for gid in ("n0", "n1"):
            assert b.bundle[gid] == pytest.approx(a.bundle[gid], rel=1e-9)
        assert b.lam == pytest.approx(a.lam / 2.0, rel=1e-9)

    def test_engel_aggregation(self):
        goods = [constant_good("n0", 1.3), constant_good("n1", 2.1)]
        prefs = cobb_prefs(n0=1.0, n1=0.7)
        e = 25.0
        h = 1e-4 * e
        spend = {}
        for probe in (e - h, e + h):
            sol = solve_demands(prefs, goods, MOVERS, probe)
            spend[probe] = sum(sol.gamma_average[g] * sol.bundle[g]
                               for g in sol.bundle)
        slope = (spend[e + h] - spend[e - h]) / (2.0 * h)
        assert slope == pytest.approx(1.0, rel=1e-6)


class TestBudgetAtScale:
    def test_huge_surplus_meets_budget_relatively(self):
        # a surplus of 6.2e18 J puts the budget multiplier near 1e-19:
        # the root finder's tolerance must be relative to reach the budget
        scenario = scenario_from_dict({
            "period_length": 1.0,
            "prime_movers": [{"id": "m0",
                              "power_rate": 0.5330928857033648,
                              "depreciation": 0.5, "avg_embodied": 0.0,
                              "endowment": 4.621922785827618e+19,
                              "max_accum_rate": 0.1}],
            "energy_goods": [{"id": "e0",
                              "energy_content": 44.339372127471215,
                              "technology": {
                                  "kind": "cobb_douglas",
                                  "scale": 1.7491895539193298,
                                  "exponents": {"m0": 0.8957412847401705}}}],
            "non_energy_goods": [{"id": "n0", "technology": {
                "kind": "fixed_proportions", "requirements": {"m0": 1.0},
                "curvature": {"c0": 1.0}}, "utility_weight": 1.0}],
            "preferences": {"form": "cobb_douglas"},
            "horizon": 1,
        })
        state = initial_state(scenario)
        energy = solve_energy_side(scenario, state)
        demand = demand_for_state(scenario, state, energy.usable_surplus,
                                  energy.employment)
        assert energy.usable_surplus > 1e18
        assert abs(demand.budget_residual) <= 1e-9 * energy.usable_surplus


class TestPreferences:
    def test_marginal_utilities_positive_at_sampled_bundles(self):
        rng = np.random.default_rng(8)
        for form, sigma in (("cobb_douglas", None), ("ces", 0.6),
                            ("ces", 2.5)):
            weights = {f"n{i}": float(rng.uniform(0.2, 5.0))
                       for i in range(3)}
            prefs = Preferences(form=form, weights=weights,
                                elasticity=sigma)
            for _ in range(50):
                bundle = {g: float(rng.uniform(0.01, 40.0))
                          for g in weights}
                for g in weights:
                    assert marginal_utility(prefs, bundle, g) > 0.0


class TestOwnAndCrossShifts:
    def test_own_shift_lowers_consumption(self):
        # raising one good's whole curve lowers its own demand (all forms)
        rng = np.random.default_rng(44)
        for _ in range(200):
            n = int(rng.integers(2, 4))
            gammas = {f"n{i}": float(rng.uniform(0.5, 5.0)) for i in range(n)}
            weights = {f"n{i}": float(rng.uniform(0.2, 5.0))
                       for i in range(n)}
            sigma = float(rng.uniform(1.2, 3.0))
            prefs = Preferences(form="ces", weights=weights,
                                elasticity=sigma)
            e = float(rng.uniform(5.0, 50.0))
            goods = [constant_good(g, v) for g, v in gammas.items()]
            base = solve_demands(prefs, goods, MOVERS, e)
            shifted_goods = [constant_good("n0", gammas["n0"] * 1.01)] \
                + goods[1:]
            shifted = solve_demands(prefs, shifted_goods, MOVERS, e)
            assert shifted.bundle["n0"] < base.bundle["n0"]
            # substitutes: every other good strictly gains
            for gid in gammas:
                if gid != "n0":
                    assert shifted.bundle[gid] > base.bundle[gid]

    def test_unit_elasticity_has_no_cross_effect(self):
        # Cobb-Douglas spends fixed budget shares, so the cross response to
        # a curve shift is exactly zero; the strict cross-gain needs
        # substitutes (elasticity above one)
        goods = [constant_good("n0", 1.0), constant_good("n1", 1.0)]
        prefs = cobb_prefs(n0=0.5, n1=0.5)
        base = solve_demands(prefs, goods, MOVERS, 10.0)
        shifted = solve_demands(
            prefs, [constant_good("n0", 1.1), goods[1]], MOVERS, 10.0)
        assert shifted.bundle["n1"] == pytest.approx(base.bundle["n1"],
                                                     rel=1e-9)


class TestAllocation:
    # one good at gamma = 1 takes the whole budget: Q = E units, each
    # employing one unit of m

    @staticmethod
    def support(energy, remaining):
        return solve_demands(cobb_prefs(n0=1.0), [constant_good("n0", 1.0)],
                             MOVERS, energy, remaining_endowment=remaining)

    def test_linear_requirement(self):
        sol = self.support(9.375, {"m": 50.0})
        assert sol.support_employment["n0"]["m"] == pytest.approx(9.375)
        assert sol.feasible and not sol.violations

    def test_zero_bundle(self):
        sol = self.support(0.0, {"m": 0.0})
        assert sol.support_employment["n0"] == {}
        assert sol.feasible

    def test_infeasible_names_the_violator(self):
        sol = self.support(9.375, {"m": 5.0})
        assert not sol.feasible
        assert sol.violations == ("m",)
        # requirement untouched, not scaled to fit
        assert sol.support_employment["n0"]["m"] == pytest.approx(9.375)


class TestUsabilitySlack:
    def test_balanced(self):
        emp = {"n0": {"m": 18.75}}
        assert usability_slack(emp, MOVERS, 18.75) == pytest.approx(0.0)

    def test_zero_budget(self):
        emp = {"n0": {"m": 4.0}}
        assert usability_slack(emp, MOVERS, 0.0) == pytest.approx(4.0)

    def test_violation_is_negative(self):
        emp = {"n0": {"m": 10.0}}
        assert usability_slack(emp, MOVERS, 12.0) == pytest.approx(-2.0)

    def test_equality_at_scarce_fixed_point(self, cd1_scarce):
        # at the usability fixed point with zero-embodied movers, the
        # support fleet's direct energy exactly carries the surplus
        from egl import initial_state, solve_energy_side
        from egl.demand import demand_for_state
        sol = solve_energy_side(cd1_scarce)
        dem = demand_for_state(cd1_scarce, initial_state(cd1_scarce),
                               sol.usable_surplus, sol.employment)
        assert abs(dem.usability_slack) <= 1e-7 * max(1.0,
                                                      sol.usable_surplus)
        assert dem.feasible


def smooth_good(gid, returns, weight=1.0):
    from egl.core import NonEnergyGood
    return NonEnergyGood(
        id=gid, utility_weight=weight,
        technology=CobbDouglas(scale=1.0, exponents={"m": returns}))


class TestSolvePaths:
    """Each route through the demand solve, told apart by its root count."""

    def test_one_power_is_closed_form_inside_and_out(self, root_calls):
        prefs = Preferences(form="ces", weights={"n0": 1.0, "n1": 2.0},
                            elasticity=1.7)
        for goods in ([constant_good("n0", 1.5), constant_good("n1", 0.5)],
                      [smooth_good("n0", 0.5), smooth_good("n1", 0.5)]):
            sol = solve_demands(prefs, goods, MOVERS, 40.0)
            assert abs(sol.budget_residual) <= 1e-12 * 40.0
            assert tangency_residual(prefs, sol.bundle,
                                     sol.gamma_marginal) <= 1e-12
        assert sum(root_calls.values()) == 0

    def test_reference_bundle_is_exact(self, root_calls):
        # E = 25 split evenly over two unit constant curves
        sol = solve_demands(cobb_prefs(n0=0.5, n1=0.5),
                            [constant_good("n0", 1.0),
                             constant_good("n1", 1.0)], MOVERS, 25.0)
        assert sol.bundle == {"n0": 12.5, "n1": 12.5}
        assert sol.budget_residual == 0.0
        assert sum(root_calls.values()) == 0

    @pytest.mark.parametrize("energy", [0.05, 1.5, 20.0])
    def test_mixed_powers_take_one_outer_root(self, root_calls, energy):
        # constant curve (k = 0) next to a square-cost curve (k = 1): the
        # inner solves stay closed form, the multiplier needs a root.
        # Spending at multiplier 1 is 1 + 0.5, so the bracket search goes
        # up in the multiplier for 0.05 and down for 20, and 1.5 is met
        # at 1 itself, a root at the bracket's end
        prefs = cobb_prefs(n0=1.0, n1=1.0)
        goods = [constant_good("n0", 1.0), smooth_good("n1", 0.5)]
        sol = solve_demands(prefs, goods, MOVERS, energy)
        assert root_calls == {"egl.demand:newton": 1}
        assert abs(sol.budget_residual) <= 1e-9 * energy
        if energy == 1.5:
            assert sol.bundle["n0"] == 1.0
        assert tangency_residual(prefs, sol.bundle,
                                 sol.gamma_marginal) <= 1e-8

    @pytest.mark.parametrize("energy, detail", [
        (1e-200, "exceeds the budget"),        # multiplier above 1e180
        (1e200, "stays below the budget"),     # multiplier below 1e-180
    ])
    def test_searched_multiplier_out_of_range_is_no_bracket(self, energy,
                                                            detail):
        goods = [constant_good("n0", 1.0), smooth_good("n1", 0.5)]
        with pytest.raises(SolverError) as err:
            solve_demands(cobb_prefs(n0=1.0, n1=1.0), goods, MOVERS, energy)
        assert err.value.kind == "no_bracket"
        assert detail in str(err.value)

    def test_curved_profile_takes_inner_roots(self, root_calls):
        from egl.core import NonEnergyGood
        curved = NonEnergyGood(
            id="n1", utility_weight=1.0,
            technology=FixedProportions(requirements={"m": 1.0}, c0=1.0,
                                        c1=2.0, tau=3.0))
        prefs = cobb_prefs(n0=1.0, n1=1.0)
        sol = solve_demands(prefs, [constant_good("n0", 1.0), curved],
                            MOVERS, 20.0)
        assert root_calls["egl.demand:newton"] > 1
        assert abs(sol.budget_residual) <= 1e-9 * 20.0
        assert tangency_residual(prefs, sol.bundle,
                                 sol.gamma_marginal) <= 1e-8

    def test_each_multiplier_is_solved_once(self, monkeypatch, root_calls):
        # the constant good's closed-form inner solve runs once per
        # multiplier the outer solve evaluates, and so does the curved
        # good's inner root: the bracket search, the bracket's ends in
        # the secant steps and the bundle at the root share them
        import egl.demand
        from egl.core import NonEnergyGood
        targets = []
        solve_power = egl.demand.solve_power

        def recorded(a, k, target):
            targets.append(target)
            return solve_power(a, k, target)

        monkeypatch.setattr(egl.demand, "solve_power", recorded)
        curved = NonEnergyGood(
            id="n1", utility_weight=1.0,
            technology=FixedProportions(requirements={"m": 1.0}, c0=1.0,
                                        c1=2.0, tau=3.0))
        solve_demands(cobb_prefs(n0=1.0, n1=1.0),
                      [constant_good("n0", 1.0), curved], MOVERS, 20.0)
        assert len(targets) == len(set(targets)) > 1
        # one inner root per multiplier, and the outer root
        assert root_calls["egl.demand:newton"] == len(targets) + 1

    @pytest.mark.parametrize("gamma, energy, weight, detail", [
        # quantity above 1e180
        (1e-300, 1.0, 1.0, "demand for 'n0'"),
        # multiplier 1e-200: the quantity 1e200 lies above 1e180
        (1.0, 1e200, 1.0, "lies outside (0, 1e+180]"),
        # multiplier 1e-300 / 1e30 underflows to 0
        (1.0, 1e30, 1e-300, "stays below the budget"),
    ])
    def test_closed_form_out_of_range_is_no_bracket(self, gamma, energy,
                                                    weight, detail):
        with pytest.raises(SolverError) as err:
            solve_demands(cobb_prefs(n0=weight), [constant_good("n0", gamma)],
                          MOVERS, energy)
        assert err.value.kind == "no_bracket"
        assert detail in str(err.value)

    def test_tiny_budget_buys_a_tiny_bundle(self):
        # the multiplier 1e200 lies past the bracket search's range, which
        # the closed form does not need
        sol = solve_demands(cobb_prefs(n0=1.0), [constant_good("n0", 1.0)],
                            MOVERS, 1e-200)
        assert sol.bundle["n0"] == pytest.approx(1e-200, rel=1e-15)
        assert sol.budget_residual == pytest.approx(0.0, abs=1e-214)

    def test_overflowing_marginal_utility_is_degenerate(self):
        prefs = cobb_prefs(n0=50.0, n1=50.0)
        with pytest.raises(SolverError) as err:
            marginal_utility(prefs, {"n0": 1e10, "n1": 1e10}, "n0")
        assert err.value.kind == "degenerate"

    def test_constant_demand_condition_is_degenerate(self):
        # sigma = 1e17 rounds 1 - 1/sigma to 1, so with flat curves
        # q ** (1-r) * gamma is constant and no quantity meets a target
        prefs = Preferences(form="ces", weights={"n0": 1.0, "n1": 1.0},
                            elasticity=1e17)
        with pytest.raises(SolverError) as err:
            solve_demands(prefs, [constant_good("n0", 1.0),
                                  constant_good("n1", 2.0)], MOVERS, 10.0)
        assert err.value.kind == "degenerate"


@st.composite
def economies(draw):
    """Two or three goods on one mover, each a constant profile, a
    Cobb-Douglas technology or a profile curved with c1 <= 3 and tau in
    [0.5, 2]; Cobb-Douglas or CES preferences; and the budget."""
    goods = []
    for i in range(draw(st.integers(2, 3))):
        kind = draw(st.sampled_from(["constant", "smooth", "curved"]))
        if kind == "smooth":
            tech = CobbDouglas(scale=draw(st.floats(0.5, 2.0)),
                               exponents={"m": draw(st.floats(0.3, 0.9))})
        else:
            curvature = {"c0": draw(st.floats(0.5, 3.0))}
            if kind == "curved":
                curvature.update(c1=draw(st.floats(0.0, 3.0)),
                                 tau=draw(st.floats(0.5, 2.0)),
                                 c2=draw(st.floats(0.0, 0.1)),
                                 q_s=4.0, rho=2.0)
            tech = FixedProportions(requirements={"m": 1.0}, **curvature)
        goods.append(NonEnergyGood(id=f"n{i}", utility_weight=1.0,
                                   technology=tech))
    weights = {g.id: draw(st.floats(0.2, 2.0)) for g in goods}
    sigma = draw(st.one_of(st.none(), st.floats(0.5, 0.9),
                           st.floats(1.1, 3.0)))
    prefs = Preferences(form="ces" if sigma else "cobb_douglas",
                        weights=weights, elasticity=sigma)
    return prefs, goods, draw(st.floats(0.5, 500.0))


def condition_rises(prefs, goods) -> bool:
    """Whether each good's demand condition q ** (1-r) * gamma(q) rises
    in q: for a curved profile, (1-r) h'(q) + q h''(q) > 0 on 1,001 points
    of q / tau in [0, 10], around the exponential term's dip at
    q / tau = 2 - r (the power term only adds to it)."""
    r = 0.0 if prefs.form == "cobb_douglas" else 1.0 - 1.0 / prefs.elasticity
    for g in goods:
        tech = g.technology
        if isinstance(tech, FixedProportions) and tech.c1 > 0.0:
            for q in np.linspace(0.0, 10.0 * tech.tau, 1001):
                if (1.0 - r) * tech.marginal_profile(q) \
                        + q * tech.curvature_profile(q) <= 0.0:
                    return False
    return True


# The ROADMAP item 13 grid: a curved good next to a constant one, under
# Cobb-Douglas (sigma None) and CES preferences.  Four rows miss the
# budget, which raises ``inaccurate``, one of them at c1 = 3, and three
# meet it with log U short of the maximum by 0.016 to 0.054.
_STEEP_FAILS = {(3.0, 0.5, 3.0, 5.0), (20.0, 2.0, None, 50.0),
                (100.0, 0.5, None, 50.0), (100.0, 0.5, 0.5, 50.0),
                (20.0, 0.5, 3.0, 50.0), (20.0, 2.0, 3.0, 500.0),
                (100.0, 0.5, 3.0, 500.0)}
_ITEM_13 = "ROADMAP item 13: a curved good takes the wrong demand branch"
_STEEP_ROWS = [
    pytest.param(*row, marks=pytest.mark.xfail(strict=True, reason=_ITEM_13))
    if row in _STEEP_FAILS else row
    for row in itertools.product([3.0, 20.0, 100.0], [0.5, 2.0],
                                 [None, 0.5, 3.0], [0.5, 5.0, 50.0, 500.0])]


class TestUtilityOracle:
    """The bundle is the utility maximum: egl's log U matches
    ``oracles.max_utility``, which searches the split of the budget and
    does not use the demand multiplier."""

    @staticmethod
    def log_gap(prefs, goods, movers, energy):
        """The oracle's log U minus egl's, on the goods' kernels."""
        curves = {g.id: curve(g.technology, movers) for g in goods}
        sol = solve_demands(prefs, goods, movers, energy)
        return max_utility(prefs, curves, energy) \
            - log_utility(prefs, sol.bundle)

    @given(economies())
    @settings(max_examples=20, deadline=None)
    def test_bundle_is_the_maximum(self, economy):
        prefs, goods, energy = economy
        # where a curved good's condition falls over part of its range, its
        # inner solve has several roots (ROADMAP item 13), so a draw can
        # fail even at c1 <= 3: see ``test_falling_condition`` and the
        # grid's c1 = 3 rows
        assume(condition_rises(prefs, goods))
        assert abs(self.log_gap(prefs, goods, MOVERS, energy)) <= 1e-9

    @pytest.mark.xfail(strict=True, raises=SolverError, reason=_ITEM_13)
    def test_falling_condition(self):
        # the property's first draw whose condition falls: at c1 = 3,
        # tau = 1, c2 = 0 and r = 1/2, (1-r) h' + q h'' is -0.17 at
        # q = 1.5, and the bundle spends 8.19 J of 5 J
        curved = NonEnergyGood(id="n0", utility_weight=1.0,
                               technology=FixedProportions(
                                   requirements={"m": 1.0}, c0=1.0, c1=3.0,
                                   tau=1.0, c2=0.0, q_s=4.0, rho=2.0))
        goods = [curved, constant_good("n1", 1.0), constant_good("n2", 1.0)]
        prefs = Preferences(form="ces", elasticity=2.0, weights={
            "n0": 1.0, "n1": 0.5, "n2": 0.203125})
        assert not condition_rises(prefs, goods)
        assert abs(self.log_gap(prefs, goods, MOVERS, 5.0)) <= 1e-9

    @pytest.mark.parametrize("c1, tau, sigma, energy", _STEEP_ROWS)
    def test_steep_curved_good(self, c1, tau, sigma, energy):
        goods = [NonEnergyGood(
            id=gid, utility_weight=0.5, technology=FixedProportions(
                requirements={"workers": 1.0}, **curvature))
            for gid, curvature in (
                ("cloth", {"c0": 1.0, "c1": c1, "tau": tau, "c2": 0.05,
                           "q_s": 4.0, "rho": 2.0}),
                ("pots", {"c0": 1.0}))]
        prefs = Preferences(form="ces" if sigma else "cobb_douglas",
                            weights={"cloth": 0.5, "pots": 0.5},
                            elasticity=sigma)
        gap = self.log_gap(prefs, goods, support_movers(workers=1.0), energy)
        assert abs(gap) <= 1e-9
