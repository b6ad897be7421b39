import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egl import (cumulative_transfer, initial_state, load_scenario,
                 scenario_from_dict)
from egl.core import SLACK_TOL, effective_multiplier
from egl.embodied import sample_curve
from egl.errors import SolverError
from egl.growth import simulate
from egl.surplus import (_PHI_MAX, _bracket_phi, _newton_phi, _Problem,
                         figure1_report, marginal_surplus_at,
                         scarcity_premium, solve_energy_side)

from conftest import (cd1_doc, cd1_scenario, random_energy_doc,
                      scarce_doc, scarce_scenario)
from oracles import adaptive_simpson, max_usable_surplus


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def solve_doc(doc):
    scenario = scenario_from_dict(doc)
    return scenario, solve_energy_side(scenario, initial_state(scenario))


class TestMarginalSurplusAt:
    def test_interior_gap(self, cd1):
        state = initial_state(cd1)
        good = state.energy_goods["e0"]
        # gamma(Q) = 2Q so the gap at Q = 2.5 is 10 - 5
        assert marginal_surplus_at(good, 2.5, state) == pytest.approx(5.0)

    def test_zero_at_unconstrained_optimum(self, cd1):
        state = initial_state(cd1)
        good = state.energy_goods["e0"]
        assert marginal_surplus_at(good, 5.0, state) == pytest.approx(0.0)

    def test_negative_past_intersection(self, cd1):
        state = initial_state(cd1)
        good = state.energy_goods["e0"]
        assert marginal_surplus_at(good, 6.0, state) == pytest.approx(-2.0)


class TestScarcityPremium:
    def test_zero_share_means_zero_premium(self, cd1):
        state = initial_state(cd1)
        good = state.energy_goods["e0"]
        assert scarcity_premium(good, 3.3, 0.0, state) == 0.0

    def test_square_cost_at_half(self, cd1):
        state = initial_state(cd1)
        good = state.energy_goods["e0"]
        # employment x(Q) = Q**2, so g'(2.5) = 2Q = 5; (0.5/0.5) * 5 = 5
        assert scarcity_premium(good, 2.5, 0.5, state) == pytest.approx(5.0)

    def test_square_cost_at_one(self, cd1):
        state = initial_state(cd1)
        good = state.energy_goods["e0"]
        assert scarcity_premium(good, 1.0, 0.5, state) == pytest.approx(2.0)

    def test_share_of_one_rejected(self, cd1):
        state = initial_state(cd1)
        good = state.energy_goods["e0"]
        with pytest.raises(ValueError):
            scarcity_premium(good, 1.0, 1.0, state)


class TestReferenceSolve:
    def test_abundant_interior_optimum(self, cd1):
        sol = solve_energy_side(cd1)
        assert sol.phi == 0.0
        assert sol.outputs["e0"] == pytest.approx(5.0, rel=1e-9)
        assert sol.gross_expenditure == pytest.approx(25.0, rel=1e-9)
        assert sol.gross_income == pytest.approx(50.0, rel=1e-9)
        assert sol.usable_surplus == pytest.approx(25.0, rel=1e-9)
        assert sol.meroi["e0"] == pytest.approx(1.0, rel=1e-9)
        assert sol.marginal_surplus["e0"] == pytest.approx(0.0, abs=1e-8)

    def test_forced_share_diagnostic(self):
        # 10 - 2Q = 2Q at phi = 0.5, so Q = 2.5 and E = 25 - 6.25
        sol = solve_energy_side(cd1_scenario(solver={"force_phi": 0.5}))
        assert sol.phi_forced
        assert sol.outputs["e0"] == pytest.approx(2.5, rel=1e-9)
        assert sol.usable_surplus == pytest.approx(18.75, rel=1e-9)
        assert sol.gamma["e0"] == pytest.approx(5.0, rel=1e-9)

    def test_zero_endowment_infeasible(self):
        doc = cd1_doc()
        doc["prime_movers"][0]["endowment"] = 0.0
        scenario = scenario_from_dict(doc)
        with pytest.raises(SolverError) as err:
            solve_energy_side(scenario)
        assert err.value.kind == "infeasible"

    def test_null_solution_when_content_below_curve(self):
        doc = cd1_doc()
        doc["energy_goods"][0]["technology"] = {
            "kind": "fixed_proportions", "requirements": {"m0": 1.0},
            "curvature": {"c0": 12.0}}          # gamma(0) = 12 > delta = 10
        _, sol = solve_doc(doc)
        assert sol.null
        assert sol.outputs["e0"] == 0.0
        assert sol.usable_surplus == 0.0
        assert sol.meroi["e0"] is None

    def test_scarce_fixed_point_closed_form(self, cd1_scarce):
        # with endowment 1: E = U forces 10Q = 1, so Q* = 0.1,
        # phi* = 1 - 2 * endowment / delta**2 = 0.98, E* = 0.99
        sol = solve_energy_side(cd1_scarce)
        assert sol.outputs["e0"] == pytest.approx(0.1, rel=1e-6)
        assert sol.phi == pytest.approx(0.98, abs=1e-7)
        assert sol.usable_surplus == pytest.approx(0.99, rel=1e-6)
        assert abs(sol.slack_residual) <= 1e-8 * max(1.0, sol.usable_surplus)

    def test_scarce_family_closed_form(self):
        for endow in (0.5, 2.0, 10.0):
            sol = solve_energy_side(scarce_scenario(endow))
            assert sol.outputs["e0"] == pytest.approx(endow / 10.0, rel=1e-6)
            assert sol.phi == pytest.approx(1.0 - 2.0 * endow / 100.0,
                                            abs=1e-6)

    def test_downward_dip_usability_rescue(self):
        # steep initial economies of scale: content minus marginal curve
        # minus premium jumps from the endowment cap straight to zero as
        # the scarcity share rises, so no share balances usability.  The
        # solver then imposes surplus = leftover capacity directly, which
        # pins content * Q = eps * endowment independently of the curve.
        doc = cd1_doc()
        doc["prime_movers"][0]["endowment"] = 1.0
        doc["energy_goods"][0]["technology"] = {
            "kind": "fixed_proportions", "requirements": {"m0": 1.0},
            "curvature": {"c0": 0.5, "c1": 4.0, "tau": 2.0, "c2": 0.4,
                          "q_s": 4.0, "rho": 2.0}}
        _, sol = solve_doc(doc)
        assert sol.outputs["e0"] == pytest.approx(0.1, rel=1e-9)
        assert sol.binding_constraints["e0"] == "usability"
        h_01 = 0.5 * 0.1 + 4.0 * 2.0 * (1.0 - math.exp(-0.05)) \
            + 0.4 * (4.0 / 3.0) * (0.1 / 4.0) ** 3
        assert sol.usable_surplus == pytest.approx(1.0 - h_01, rel=1e-9)
        assert sol.usable_capacity == pytest.approx(sol.usable_surplus,
                                                    rel=1e-6)

    def test_shutdown_when_dip_gain_is_negative(self):
        # at a high premium weight the marginal gain is negative early,
        # positive through the requirement dip, and negative again; when
        # the integrated gain at the crossing is still negative the good
        # shuts down instead of producing through the dip
        from egl.surplus import _Problem
        doc = cd1_doc()
        doc["prime_movers"][0]["endowment"] = 1e6
        doc["energy_goods"][0]["technology"] = {
            "kind": "fixed_proportions", "requirements": {"m0": 1.0},
            "curvature": {"c0": 0.5, "c1": 4.0, "tau": 2.0, "c2": 0.4,
                          "q_s": 4.0, "rho": 2.0}}
        scenario = scenario_from_dict(doc)
        state = initial_state(scenario)
        problem = _Problem(state)
        good = state.energy_goods["e0"]
        # weight 6.67 clears the dip (profile bottoms at about 1.43 near
        # q = 4.4) but the early losses dominate the hump
        q, tag = problem.good_output(good, 5.67)
        assert q == 0.0
        # at zero weight the interior crossing survives: h'(q) = 10
        q0, _ = problem.good_output(good, 0.0)
        assert q0 > 15.0
        assert marginal_surplus_at(good, q0, state) == pytest.approx(
            0.0, abs=1e-7)

    def test_shutdown_weight_once_per_fixed_good_per_solve(self,
                                                           monkeypatch):
        # picking the candidates and the bracket route's shutdown shares
        # read one threshold per capped fixed-proportions good
        import egl.surplus
        calls = []
        real = egl.surplus._shutdown_weight

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(egl.surplus, "_shutdown_weight", counted)
        scenario = load_scenario((SCENARIOS / "shocks.json").read_text())
        solution = solve_energy_side(scenario)
        assert solution.phi > 0.0 and solution.outputs["wood"] > 0.0
        assert len(calls) == 1

    def test_meroi_values(self, cd1):
        sol = solve_energy_side(cd1)
        assert sol.meroi["e0"] == pytest.approx(1.0, rel=1e-9)
        forced = solve_energy_side(
            cd1_scenario(solver={"force_phi": 0.5}))
        assert forced.meroi["e0"] == pytest.approx(2.0, rel=1e-9)
        assert 1.0 + forced.marginal_surplus["e0"] / forced.gamma["e0"] \
            == pytest.approx(2.0, rel=1e-12)

    def test_shared_mover_rationing(self):
        # two identical goods on one mover with stock 8: unconstrained each
        # wants Q = 5 (employment 25 apiece), so the shared endowment is
        # rationed proportionally: 2 * (s Q_cap)**2 = 8 gives Q = 2 each
        doc = cd1_doc()
        doc["prime_movers"][0]["endowment"] = 8.0
        doc["energy_goods"].append(json.loads(json.dumps(
            doc["energy_goods"][0])))
        doc["energy_goods"][1]["id"] = "e1"
        _, sol = solve_doc(dict(doc, solver={"force_phi": 0.0}))
        assert sol.outputs["e0"] == pytest.approx(2.0, rel=1e-9)
        assert sol.outputs["e1"] == pytest.approx(2.0, rel=1e-9)
        assert sol.binding_constraints["e0"] == "endowment:m0"
        total = sol.employment["e0"]["m0"] + sol.employment["e1"]["m0"]
        assert total == pytest.approx(8.0, rel=1e-9)

    def test_shared_mover_usability_fixed_point(self):
        # same economy, full solve: the usability balance 2(10Q - Q**2) =
        # eps (8 - 2 Q**2) pins Q = 0.4 per good
        doc = cd1_doc()
        doc["prime_movers"][0]["endowment"] = 8.0
        doc["energy_goods"].append(json.loads(json.dumps(
            doc["energy_goods"][0])))
        doc["energy_goods"][1]["id"] = "e1"
        _, sol = solve_doc(doc)
        assert sol.outputs["e0"] == pytest.approx(0.4, rel=1e-6)
        assert sol.outputs["e1"] == pytest.approx(0.4, rel=1e-6)
        assert abs(sol.slack_residual) <= 1e-7 * max(1.0,
                                                     sol.usable_surplus)

    def test_determinism_bit_identical(self, cd1_scarce):
        a = solve_energy_side(cd1_scarce)
        b = solve_energy_side(cd1_scarce)
        assert a.outputs == b.outputs
        assert a.phi == b.phi
        assert a.usable_surplus == b.usable_surplus
        assert a.employment == b.employment


def two_good_doc(mover: dict, goods: list) -> dict:
    """One mover shared by Cobb-Douglas energy goods (id, content, scale,
    exponent), as in the acceptance-02 family."""
    return {
        "period_length": 1.0,
        "prime_movers": [{"id": "m0", "depreciation": 0.5,
                          "avg_embodied": 0.0, "max_accum_rate": 0.1,
                          **mover}],
        "energy_goods": [
            {"id": gid, "energy_content": content,
             "technology": {"kind": "cobb_douglas", "scale": scale,
                            "exponents": {"m0": beta}}}
            for gid, content, scale, beta in goods],
        "non_energy_goods": [{"id": "n0", "technology": {
            "kind": "fixed_proportions", "requirements": {"m0": 1.0},
            "curvature": {"c0": 1.0}}, "utility_weight": 1.0}],
        "preferences": {"form": "cobb_douglas"},
        "horizon": 1,
    }


class TestPhiRoot:
    def test_fixed_point_near_one(self):
        # phi* = 1 - 5.9e-5: the bracket grows close to 1 before the root
        # is found, and phi matches the one-mover closed form
        doc = two_good_doc(
            {"power_rate": 2.341396113661226,
             "endowment": 1.644372310181278},
            [("e0", 48.22729820013046, 1.9165983297862113,
              0.3047422097995877),
             ("e1", 2.28513602912426, 0.5132916728034616,
              0.39982096832245584)])
        _, sol = solve_doc(doc)
        assert sol.phi == pytest.approx(0.9999410685661618, abs=1e-7)
        assert "usability" not in sol.binding_constraints.values()
        # the slack tolerance is relative to the residual at phi = 0
        _, at_zero = solve_doc(dict(doc, solver={"force_phi": 0.0}))
        assert abs(sol.slack_residual) <= SLACK_TOL * max(
            1.0, abs(at_zero.slack_residual))
        # the power-law route solves c = phi / (1 - phi) itself, so the
        # slack also meets the tolerance on the usable surplus
        assert abs(sol.slack_residual) <= SLACK_TOL \
            * sol.usable_surplus

    def test_tiny_output_meets_first_order_condition(self):
        # e0 produces about 9e-23 at the fixed point: the output root must
        # be located to relative precision, not to an absolute width
        doc = two_good_doc(
            {"power_rate": 2.68568869296926,
             "endowment": 0.9374182101616292},
            [("e0", 2.660070383772007, 1.1845271502097554,
              0.8988565599180756),
             ("e1", 38.840543814866734, 0.8943924891292641,
              0.3860600243384128)])
        _, sol = solve_doc(doc)
        assert 0.0 < sol.outputs["e0"] < 1e-20
        assert sol.foc_good_residuals["e0"] <= 1e-6


def power_law_doc(movers: list, goods: list) -> dict:
    """The reference document with movers (id, power rate, stock) and
    Cobb-Douglas energy goods (id, content, scale, exponents)."""
    doc = cd1_doc()
    mover = doc["prime_movers"][0]
    doc["prime_movers"] = [
        dict(mover, id=mid, power_rate=rate, endowment=stock)
        for mid, rate, stock in movers]
    doc["energy_goods"] = [
        {"id": gid, "energy_content": content,
         "technology": {"kind": "cobb_douglas", "scale": scale,
                        "exponents": exponents}}
        for gid, content, scale, exponents in goods]
    return doc


@st.composite
def power_law_economies(draw, movers: int = 3, goods: int = 3) -> dict:
    """1 to ``movers`` movers, with or without embodied energy, and 1 to
    ``goods`` Cobb-Douglas goods, each on a subset of the movers;
    log-uniform endowments make most draws scarce."""
    n_movers = draw(st.integers(1, movers))
    embodied = draw(st.booleans())
    doc = two_good_doc({}, [])
    doc["prime_movers"] = [{
        "id": f"m{i}", "power_rate": draw(st.floats(0.5, 5.0)),
        "depreciation": 0.5,
        "avg_embodied": draw(st.floats(0.1, 3.0)) if embodied else 0.0,
        "endowment": 10.0 ** draw(st.floats(-3.0, 1.0)),
        "max_accum_rate": 0.1} for i in range(n_movers)]
    for j in range(draw(st.integers(1, goods))):
        used = draw(st.lists(st.integers(0, n_movers - 1), min_size=1,
                             max_size=n_movers, unique=True))
        betas = [draw(st.floats(0.05, 1.0)) for _ in used]
        returns = draw(st.floats(0.3, 0.9))
        doc["energy_goods"].append({
            "id": f"e{j}", "energy_content": draw(st.floats(2.0, 50.0)),
            "technology": {
                "kind": "cobb_douglas", "scale": draw(st.floats(0.5, 2.0)),
                "exponents": {f"m{i}": b * returns / sum(betas)
                              for i, b in zip(used, betas)}}})
    return doc


class TestReferenceOracle:
    """egl's usable surplus E* is the most the energy side can earn under
    usability: it matches ``oracles.max_usable_surplus``, which maximizes
    E = I - G subject to E <= U and the stocks directly, to 1e-9 relative,
    plus, at a scarce share, the slack residual E* - U it solved to.  The
    slack certificate bounds that residual by SLACK_TOL * max(1, |E - U at
    phi = 0|), an absolute amount, so where E* is small it can pass 1e-9
    relative.  The rows that wait on a ROADMAP item are strict xfails, so
    the fix that closes the gap flips them."""

    @staticmethod
    def gaps(rows) -> list[tuple]:
        """(period, E*, oracle's E) of each (state, solution) row whose
        E* misses the oracle's."""
        missed = []
        for state, sol in rows:
            best = max_usable_surplus(_Problem(state))
            slack = abs(sol.slack_residual) if sol.phi > 0.0 else 0.0
            if abs(sol.usable_surplus - best) > 1e-9 * abs(best) + slack:
                missed.append((state.period, sol.usable_surplus, best))
        return missed

    @pytest.mark.parametrize("endowment, content, slack", [
        (0.001, 2.0, 1.6e-12), (0.01, 10.0, -2.7e-11)])
    def test_the_slack_is_all_the_gap_allowed(self, endowment, content,
                                              slack):
        # E* near 1e-3 and 1e-2, at phi = 1 - 1e-8: E* - U is within the
        # slack tolerance 1e-8 and more than 1e-9 of E*, and E* misses the
        # oracle's E by exactly that much
        doc = two_good_doc({"power_rate": 1.0, "endowment": endowment},
                           [("e0", content, 2.0, 0.3125)])
        scenario, sol = solve_doc(doc)
        assert sol.slack_residual == pytest.approx(slack, rel=0.05)
        best = max_usable_surplus(_Problem(initial_state(scenario)))
        assert abs(sol.usable_surplus - best) > 1e-9 * best
        assert sol.usable_surplus - best == pytest.approx(
            sol.slack_residual, rel=1e-3)

    @staticmethod
    def scarce_periods(name: str):
        traj = simulate(load_scenario(
            (SCENARIOS / f"{name}.json").read_text(encoding="utf-8")))
        return [(r.state, r.energy) for r in traj.records
                if r.energy.phi > 0.0]

    @settings(max_examples=100, deadline=None)
    @given(power_law_economies(movers=1, goods=2))
    def test_one_mover_type(self, doc):
        scenario = scenario_from_dict(doc)
        state = initial_state(scenario)
        try:
            sol = solve_energy_side(scenario, state)
        except SolverError as err:
            # phi* within 1e-12 of 1
            assert err.kind == "degenerate"
            return
        assert self.gaps([(state, sol)]) == []

    @staticmethod
    def drawn_examples(prior: str) -> list[str]:
        """The examples ``test_one_mover_type`` draws in a fresh pytest
        process that runs ``prior`` first: Hypothesis's verbose report,
        less the lines that print an object's address and pytest's timed
        summary line."""
        root = SCENARIOS.parent
        node = ("tests/test_surplus.py::TestReferenceOracle::"
                "test_one_mover_type")
        code = (f"{prior}\nimport sys, pytest\nsys.exit(pytest.main(["
                f"'-q', '-s', '-p', 'no:cacheprovider', "
                f"'--hypothesis-verbosity=verbose', {node!r}]))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(root / "src"), os.environ.get("PYTHONPATH")])))
        env.pop("HYPOTHESIS_PROFILE", None)
        done = subprocess.run([sys.executable, "-c", code], cwd=root,
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, done.stdout + done.stderr
        return [line for line in done.stdout.splitlines()[:-1]
                if " object at 0x" not in line]

    def test_draws_repeat_whatever_loaded_before(self):
        # Hypothesis's constant pool holds the literals of the egl modules
        # loaded when a property runs; with conftest loading them all, a
        # process that loaded more of egl first draws the same examples
        alone = self.drawn_examples("")
        assert sum(line.startswith("Trying example") for line in alone) \
            == 100
        assert self.drawn_examples(
            "import egl.cli, egl.reports, egl.statics, egl.svgfig") == alone

    @pytest.mark.parametrize("name, count", [("scarce_growth", 92),
                                             ("shocks", 35)])
    def test_every_scarce_period(self, name, count):
        rows = self.scarce_periods(name)
        assert len(rows) == count
        assert self.gaps(rows) == []

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3: a Cobb-Douglas "
                       "good's mover mix ignores the mover surplus")
    def test_arrivals_coal_periods_item_3(self):
        # workers and engines: egl's E* falls short by up to 4.5e-6
        # relative, at period 19
        rows = [(state, sol) for state, sol in self.scarce_periods("arrivals")
                if "coal" in state.energy_goods]
        assert len(rows) == 31
        assert self.gaps(rows) == []

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 4: pick which "
                       "usability fixed point is the equilibrium")
    def test_three_crossing_economy_item_4(self):
        # TestNewtonPhi's economy whose residual crosses zero three times:
        # E* = 6.664 at phi = 0.4187 against the oracle's 7.114, the E of
        # the power-law root at phi = 0.9955
        doc = power_law_doc([("m0", 3.0, 2.371373705661655),
                             ("m1", 1.0, 0.01)],
                            [("e0", 2.0, 1.0, {"m1": 0.5}),
                             ("e1", 15.0, 2.0, {"m1": 0.3125}),
                             ("e2", 2.0, 2.0, {"m0": 0.5})])
        scenario = scenario_from_dict(doc)
        state = initial_state(scenario)
        assert self.gaps([(state, solve_energy_side(scenario, state))]) == []


class TestNewtonPhi:
    """With Cobb-Douglas goods only, phi comes from Newton on the
    power-law form of the usability residual, certified by one full
    residual; a share the certificate rejects takes the bracket route."""

    PHI_TOL = 1e-10

    @staticmethod
    def routes(problem):
        """The Newton share (or None), the bracket route's (phi,
        converged) and the slack tolerance, on one problem."""
        rho0 = problem.residual(0.0)
        ftol = SLACK_TOL * max(1.0, abs(rho0))
        return _newton_phi(problem), _bracket_phi(problem, ftol), ftol

    @pytest.mark.parametrize("endowment", [1.0, 10.0])
    def test_scarce_solve_takes_two_residuals_and_one_newton_root(
            self, endowment, residual_calls, root_calls):
        # one mover, no rationing: rho(0) and the certificate are the only
        # residuals, the power-law form's Newton root is the only root, and
        # phi* = 1 - 2 * endowment / delta**2
        _, sol = solve_doc(scarce_doc(endowment))
        assert residual_calls == [0.0, sol.phi]
        assert root_calls == {"egl.surplus:newton": 1}
        assert sol.binding_constraints == {}
        assert sol.phi == pytest.approx(1.0 - endowment / 50.0, rel=1e-15)

    @staticmethod
    def source_capped_doc() -> dict:
        """Two copies of the reference good share 8 movers, and e0 may
        draw only 0.3 from its source."""
        doc = cd1_doc()
        doc["prime_movers"][0]["endowment"] = 8.0
        doc["energy_goods"].append(dict(doc["energy_goods"][0], id="e1"))
        doc["energy_goods"][0]["pes_stock"] = 0.3
        return doc

    @pytest.mark.parametrize("doc, newton_phi, miss, phi, binding", [
        # source: the form puts Q = 0.4 on each good; at phi = 0.9,
        # 10 (0.3 + Q_e1) = 8 balances usability
        (source_capped_doc(), 0.92, -1.0, 0.9, "pes"),
        # mover: e0 on m0 and m1, e1 on m2, no mover shared; m1 caps e0
        (power_law_doc([("m0", 1.0, 2.0), ("m1", 1.0, 0.01),
                        ("m2", 1.0, 2.0)],
                       [("e0", 10.0, 1.0, {"m0": 0.25, "m1": 0.25}),
                        ("e1", 10.0, 1.0, {"m2": 0.5})]),
         0.9465333333333333, -0.3366666666666669, 0.9398, "endowment:m1")],
        ids=["source", "mover"])
    def test_binding_cap_takes_the_bracket_route(self, doc, newton_phi,
                                                 miss, phi, binding):
        # the power-law form has no caps, so its share misses usability
        # by ``miss``; the solve then returns the bracket route's phi,
        # bit for bit, with e0 at its cap
        scenario = scenario_from_dict(doc)
        state = initial_state(scenario)
        problem = _Problem(state)
        newton, (bracket, converged), _ = self.routes(problem)
        assert newton == pytest.approx(newton_phi, rel=1e-12)
        assert problem.residual(newton) == pytest.approx(miss, rel=1e-9)
        sol = solve_energy_side(scenario, state)
        assert converged and sol.phi == bracket
        assert bracket == pytest.approx(phi, rel=1e-9)
        assert sol.binding_constraints == {"e0": binding}

    def test_several_movers_bound_at_zero_take_the_bracket_route(self):
        # m1 (stock 0.01) is rationed between e0 and e1 from phi = 0 to
        # about 0.97 while m0 keeps a leftover, so U > 0 there: the full
        # residual falls through zero at 0.4187, rises, and touches zero
        # again at the power-law root 0.9955, where nothing binds; the
        # solve keeps the bracket route's root
        doc = power_law_doc([("m0", 3.0, 2.371373705661655),
                             ("m1", 1.0, 0.01)],
                            [("e0", 2.0, 1.0, {"m1": 0.5}),
                             ("e1", 15.0, 2.0, {"m1": 0.3125}),
                             ("e2", 2.0, 2.0, {"m0": 0.5})])
        scenario = scenario_from_dict(doc)
        state = initial_state(scenario)
        problem = _Problem(state)
        newton, (phi, converged), ftol = self.routes(problem)
        assert newton is None
        assert abs(problem.residual(0.9955170802068111)) <= ftol
        assert problem.allocation(0.9955170802068111)[3] == {}
        sol = solve_energy_side(scenario, state)
        assert converged and sol.phi == phi
        assert phi == pytest.approx(0.41872826188452267, rel=1e-9)

    def test_slack_met_near_one_without_rescue(self):
        # phi* = 1 - 6.1e-6 with embodied energy (omega = 2.5, eps = 1.5):
        # there a share within the phi tolerance of the root can leave E - U
        # above the slack tolerance 9e-7; the Newton share meets the slack
        # to 6e-12 and needs no rescue, and the bracket route meets it too
        doc = two_good_doc({"power_rate": 1.5, "avg_embodied": 1.0,
                            "endowment": 1.0}, [("e0", 46.0, 2.0, 0.3125)])
        scenario = scenario_from_dict(doc)
        state = initial_state(scenario)
        problem = _Problem(state)
        newton, (phi, converged), ftol = self.routes(problem)
        assert converged and abs(problem.residual(phi)) <= ftol
        assert abs(newton - phi) <= self.PHI_TOL * phi
        sol = solve_energy_side(scenario, state)
        assert sol.phi == newton
        assert abs(sol.slack_residual) <= 1e-11
        assert sol.binding_constraints == {}

    def test_slack_miss_goes_on_to_float_resolution(self, root_calls):
        # phi* = 1 - 5.8e-7: the secant stops within the phi tolerance at a
        # share where E - U = -6.4e-8, short of the slack tolerance 1e-8, so
        # the same steps go on, through the shares already kept, and meet
        # the slack at the Newton share instead of rescuing a share 2.8e-9
        # below the root
        doc = two_good_doc({"power_rate": 1.0, "avg_embodied": 1.0,
                            "endowment": 0.0012409377607517195},
                           [("e0", 2.0, 0.5, 0.30078125)])
        problem = _Problem(initial_state(scenario_from_dict(doc)))
        newton, (phi, converged), ftol = self.routes(problem)
        assert root_calls["egl.surplus:newton"] == 3
        assert abs(problem.residual(0.9999994170786562)) > ftol
        assert converged and abs(problem.residual(phi)) <= ftol
        assert phi == newton

    @settings(max_examples=150, deadline=None)
    @given(power_law_economies())
    def test_newton_matches_bracket_route(self, doc):
        scenario = scenario_from_dict(doc)
        state = initial_state(scenario)
        try:
            sol = solve_energy_side(scenario, state)
        except SolverError as err:
            # phi* within 1e-12 of 1
            assert err.kind == "degenerate"
            return
        problem = _Problem(state)
        rho0 = problem.residual(0.0)
        if rho0 <= 0.0:
            assert sol.phi == 0.0
            return
        ftol = SLACK_TOL * max(1.0, rho0)
        newton = _newton_phi(problem)
        certified = newton is not None \
            and abs(problem.residual(newton)) <= ftol
        # where no cap or rationing binds at phi = 0, none binds at any
        # phi, and the power-law form is exact
        assert certified or problem.allocation(0.0)[3]
        try:
            phi, _ = _bracket_phi(problem, ftol)
        except SolverError:
            # the residual is still positive, within the slack tolerance,
            # at the bracket's last upper end _PHI_MAX
            assert certified and sol.phi == newton and 1.0 - newton < 2e-12
            return
        if not certified:
            assert sol.phi == phi
            return
        # the bracket route may miss the slack tolerance near phi = 1
        # (test_slack_met_near_one_without_rescue), but its phi agrees
        assert sol.phi == newton
        assert abs(newton - phi) <= self.PHI_TOL * phi + 1e-15

    @pytest.mark.parametrize("rate, gives_up", [(1e-6, False),
                                                (1e-160, True)])
    def test_overflowing_form_takes_the_bracket_route(self, rate,
                                                      gives_up):
        # e0 runs on m1 alone and sits at its cap Q = 1 for every phi
        # below 1 - rate, so usability balances at phi = 0.4, where e1
        # makes 3.  The power-law form leaves e0 uncapped at
        # Q = 5 / (rate (1 + c)): at rate 1e-6 its root lies near
        # 1 - 6e-7, which the certificate rejects, and at rate 1e-160 the
        # cost p = Q ** 2 overflows at c = 0, and Newton gives up
        doc = power_law_doc([("m0", 1.0, 40.0), ("m1", rate, 1.0)],
                            [("e0", 10.0, 1.0, {"m1": 0.5}),
                             ("e1", 10.0, 1.0, {"m0": 0.5})])
        scenario = scenario_from_dict(doc)
        state = initial_state(scenario)
        newton, (phi, converged), _ = self.routes(_Problem(state))
        assert (newton is None) == gives_up
        sol = solve_energy_side(scenario, state)
        assert converged and sol.phi == phi
        # e0's cost G = rate at its cap moves the balance by about rate
        assert phi == pytest.approx(0.4, rel=1e-6)
        assert sol.outputs["e1"] == pytest.approx(3.0, rel=1e-6)
        assert sol.binding_constraints == {"e0": "endowment:m1"}

    def test_bracket_route_reaches_the_newton_limit(self):
        # phi* = 1 - 1.807e-12 lies past the bracket's last doubling
        # share 1 - 1.819e-12, so the bracket closes at _PHI_MAX, the
        # largest share Newton returns
        doc = two_good_doc({"power_rate": 1.0, "endowment": 0.001},
                           [("e0", 38.0, 1.0, 0.3)])
        scenario = scenario_from_dict(doc)
        state = initial_state(scenario)
        problem = _Problem(state)
        newton, (phi, _), _ = self.routes(problem)
        assert problem.residual(_PHI_MAX) < 0.0
        assert 1.0 - 2e-12 < phi < newton < _PHI_MAX
        assert solve_energy_side(scenario, state).phi == newton
        assert 1.0 - newton == pytest.approx(1.807e-12, rel=1e-3)

    def test_residual_positive_at_the_limit_is_degenerate(self):
        # half the power: phi* = 1 - 1.8e-13 lies past _PHI_MAX
        doc = two_good_doc({"power_rate": 0.5, "endowment": 0.001},
                           [("e0", 38.0, 1.0, 0.3)])
        scenario = scenario_from_dict(doc)
        state = initial_state(scenario)
        problem = _Problem(state)
        assert _newton_phi(problem) is None
        assert problem.residual(_PHI_MAX) > 0.0
        with pytest.raises(SolverError) as err:
            solve_energy_side(scenario, state)
        assert err.value.kind == "degenerate"
        assert "stays positive as phi approaches 1" in str(err.value)

    @pytest.fixture
    def compared(self, monkeypatch):
        """Runs the bracket route beside every positive phi solve on
        Cobb-Douglas goods; records (phi, Newton share, bracket phi,
        converged, residual at each, slack tolerance)."""
        import egl.surplus
        solve_phi = egl.surplus._solve_phi
        records = []

        def both(problem):
            phi, balanced = solve_phi(problem)
            if phi > 0.0 and not problem.fixed_terms:
                newton, (ref, converged), ftol = self.routes(problem)
                records.append((phi, newton, ref, converged,
                                problem.residual(phi),
                                problem.residual(ref), ftol))
            return phi, balanced

        monkeypatch.setattr(egl.surplus, "_solve_phi", both)
        return records

    def check(self, records) -> int:
        """Checks each record; returns the number of Newton shares."""
        for phi, newton, ref, converged, rho, rho_ref, ftol in records:
            assert converged and abs(rho_ref) <= ftol
            if newton is None:
                assert phi == ref
                continue
            assert phi == newton and abs(rho) <= ftol
            assert abs(phi - ref) <= self.PHI_TOL * ref + 1e-15
        return sum(newton is not None for _, newton, *_ in records)

    @pytest.mark.parametrize("name, solves, newton", [
        ("reference", 0, 0), ("scarce_growth", 92, 92), ("shocks", 0, 0),
        ("arrivals", 34, 18)])
    def test_shipped_scenarios_per_solve(self, compared, name, solves,
                                         newton):
        # shocks has a fixed-proportions good in every period; arrivals
        # rations its workers between grain and coal at phi = 0 in 16
        # periods
        doc = json.loads(SCENARIOS.joinpath(f"{name}.json").read_text())
        simulate(scenario_from_dict(doc))
        assert len(compared) == solves
        assert self.check(compared) == newton

    def test_acceptance_draws_per_solve(self, compared):
        rng = np.random.default_rng(20240817)
        for trial in range(100):
            solve_doc(random_energy_doc(rng, scarce=trial % 2 == 0))
        assert len(compared) == 50
        assert self.check(compared) == 50


class TestSmoothOutputRule:
    def test_underflowing_marginal_requirement_is_degenerate(self):
        # power rate 1e300: q* = 5e-300 and dx/dq = 2 q / omega underflows
        doc = cd1_doc()
        doc["prime_movers"][0]["power_rate"] = 1e300
        with pytest.raises(SolverError) as err:
            solve_doc(doc)
        assert err.value.kind == "degenerate"
        assert "marginal requirement of 'm0'" in str(err.value)

    """The Cobb-Douglas optimum gamma(q*) = delta / (1 + c * kappa)."""

    @staticmethod
    def problem(doc):
        from egl.surplus import _Problem
        scenario = scenario_from_dict(doc)
        state = initial_state(scenario)
        return _Problem(state), state.energy_goods["e0"]

    def test_interior_optimum_is_closed_form(self, root_calls):
        # gamma(q) = 2q and kappa = eps / omega = 1, so q* = 5 / (1 + c)
        problem, good = self.problem(cd1_doc())
        for c in (0.0, 0.25, 3.0):
            q, tag = problem.good_output(good, c)
            assert q == pytest.approx(5.0 / (1.0 + c), rel=1e-15)
            assert tag is None
        assert sum(root_calls.values()) == 0

    def test_optimum_beyond_cap_is_clipped(self, root_calls):
        # one unit of the mover caps output at Q = 1, below q* = 5
        doc = cd1_doc()
        doc["prime_movers"][0]["endowment"] = 1.0
        problem, good = self.problem(doc)
        assert problem.good_output(good, 0.0) == (1.0, "endowment:m0")
        assert sum(root_calls.values()) == 0

    def test_overflowing_power_is_clipped(self, root_calls):
        # returns to scale 0.999: q* = (delta / A) ** 1000 overflows
        doc = cd1_doc()
        good = doc["energy_goods"][0]
        good["energy_content"] = 1000.0
        good["technology"]["exponents"]["m0"] = 0.999
        problem, good = self.problem(doc)
        cap = problem.caps["e0"]
        assert problem.good_output(good, 0.0) == (cap, "endowment:m0")
        assert sum(root_calls.values()) == 0

    def test_underflowing_power_is_degenerate(self):
        # q* = (delta / A) ** 1000 with delta / A near 0.1: never 0 output
        doc = cd1_doc()
        good = doc["energy_goods"][0]
        good.update(energy_content=1.0, requirement_multiplier=10.0)
        good["technology"]["exponents"]["m0"] = 0.999
        with pytest.raises(SolverError) as err:
            solve_doc(doc)
        assert err.value.kind == "degenerate"

    def test_abundant_solve_needs_no_root(self, root_calls):
        scenario, sol = solve_doc(cd1_doc())
        assert sol.outputs["e0"] == 5.0
        assert sum(root_calls.values()) == 0

    def test_vanishing_returns_to_scale_meets_first_order_condition(self):
        # 1/B = 1e9: the gain root stopped at 8.7e-3 of delta from the
        # condition; the closed form meets it
        doc = json.loads(SCENARIOS.joinpath("reference.json").read_text())
        doc["energy_goods"][0]["technology"]["exponents"]["workers"] = 1e-9
        _, sol = solve_doc(doc)
        assert sol.foc_good_residuals["grain"] <= 1e-6


#: the dipping requirement profile of scenarios/shocks.json
DIP = {"c0": 0.5, "c1": 4.0, "tau": 2.0, "c2": 0.4, "q_s": 4.0, "rho": 2.0}


def dip_doc(endowment: float = 1.0) -> dict:
    """The one-mover reference with a dipping fixed-proportions good e0."""
    doc = cd1_doc()
    doc["prime_movers"][0]["endowment"] = endowment
    doc["energy_goods"][0]["technology"] = {
        "kind": "fixed_proportions", "requirements": {"m0": 1.0},
        "curvature": dict(DIP)}
    return doc


def smooth_and_dip_doc(endowment: float, smooth_content: float,
                       dip_content: float, c1: float = 4.0) -> dict:
    """A smooth good e0 and a dipping good wood sharing the one mover."""
    doc = dip_doc(endowment)
    wood = doc["energy_goods"][0]
    wood.update(id="wood", energy_content=dip_content)
    wood["technology"]["curvature"]["c1"] = c1
    doc["energy_goods"].insert(0, {
        "id": "e0", "energy_content": smooth_content,
        "technology": {"kind": "cobb_douglas", "scale": 1.0,
                       "exponents": {"m0": 0.5}}})
    return doc


def problem_of(doc):
    from egl.surplus import _Problem
    scenario = scenario_from_dict(doc)
    return _Problem(initial_state(scenario))


class TestShutdownShares:
    """The phi solve splits its bracket where a fixed-proportions good
    shuts down.  Pinned shares come from the bisecting solve this split
    replaced; each case must stay within ``phi_tol`` of it."""

    PHI_TOL = 1e-10

    def test_certified_jump_takes_four_residuals(self, residual_calls):
        # the rescue of test_downward_dip_usability_rescue: rho(0) and
        # rho(0.5) are positive, and the pair around the shutdown share
        # near 0.5725 certifies the jump (bisecting it took 37 residuals)
        _, sol = solve_doc(dip_doc())
        assert len(residual_calls) <= 4
        assert sol.phi == pytest.approx(0.5724581996248013,
                                        rel=self.PHI_TOL)
        assert sol.outputs["e0"] == pytest.approx(0.1, rel=1e-9)
        assert sol.binding_constraints["e0"] == "usability"
        h_01 = 0.5 * 0.1 + 4.0 * 2.0 * (1.0 - math.exp(-0.05)) \
            + 0.4 * (4.0 / 3.0) * (0.1 / 4.0) ** 3
        assert sol.usable_surplus == pytest.approx(1.0 - h_01, rel=1e-9)

    @staticmethod
    def split_pair(shares: list[float], share: float) -> int:
        """Index of the first residual taken next to the shutdown share."""
        return next(i for i, phi in enumerate(shares)
                    if abs(phi - share) <= 1e-10 * share)

    def test_root_above_share_moves_lower_end(self, residual_calls):
        # wood shuts down at phi = 0.62 with the residual still positive;
        # the smooth good balances usability at phi = 0.8, so the bracket
        # [0.5, 0.875] narrows to [share+, 0.875]
        doc = smooth_and_dip_doc(10.0, 10.0, 6.0)
        share, = problem_of(doc).shutdown_shares()
        assert 0.5 < share < 0.8
        _, sol = solve_doc(doc)
        i = self.split_pair(residual_calls, share)
        right = residual_calls[i + 1]
        assert right > share
        assert all(right <= phi <= 0.875 for phi in residual_calls[i + 1:])
        assert abs(sol.phi - 0.800000000000093) <= self.PHI_TOL * sol.phi
        assert sol.outputs["wood"] == 0.0
        assert "usability" not in sol.binding_constraints.values()

    def test_root_below_share_moves_upper_end(self, residual_calls):
        # a milder dip: wood still produces at the root phi = 0.6086 and
        # shuts down at 0.722; the residual left of that share is already
        # negative, so the bracket narrows to [0.5, share-] and its upper
        # end 0.875 is never evaluated
        doc = smooth_and_dip_doc(20.0, 5.0, 3.0, c1=0.5)
        share, = problem_of(doc).shutdown_shares()
        assert 0.6086 < share < 0.875
        _, sol = solve_doc(doc)
        i = self.split_pair(residual_calls, share)
        left = residual_calls[i]
        assert left < share
        assert all(0.5 <= phi <= left for phi in residual_calls[i:])
        assert 0.875 not in residual_calls
        assert abs(sol.phi - 0.6085737368454629) <= self.PHI_TOL * sol.phi
        assert sol.outputs["wood"] > 5.0
        assert "usability" not in sol.binding_constraints.values()

    @pytest.mark.parametrize("factor", [0.9, 1.1])
    def test_wrong_share_falls_back_to_bisection(self, monkeypatch,
                                                 residual_calls, factor):
        # a share off the jump certifies nothing: the pair narrows the
        # bracket to a piece that still holds the jump, the root finder
        # bisects it, misses the slack tolerance and the rescue follows
        from egl.surplus import _Problem
        true_shares = _Problem.shutdown_shares
        monkeypatch.setattr(
            _Problem, "shutdown_shares",
            lambda self: [s * factor for s in true_shares(self)])
        _, sol = solve_doc(dip_doc())
        assert len(residual_calls) > 20
        assert sol.phi == pytest.approx(0.5724581996248013,
                                        rel=self.PHI_TOL)
        assert sol.outputs["e0"] == pytest.approx(0.1, rel=1e-9)
        assert sol.binding_constraints["e0"] == "usability"

    def test_smooth_goods_solve_as_before(self):
        # no fixed-proportions good, no shutdown share: the power-law route
        # solves phi, bit-identical to the pinned value and within 2e-16 of
        # the one-mover closed form
        doc = two_good_doc(
            {"power_rate": 2.341396113661226,
             "endowment": 1.644372310181278},
            [("e0", 48.22729820013046, 1.9165983297862113,
              0.3047422097995877),
             ("e1", 2.28513602912426, 0.5132916728034616,
              0.39982096832245584)])
        assert problem_of(doc).shutdown_shares() == []
        _, sol = solve_doc(doc)
        assert sol.phi == 0.999941068566162
        assert abs(sol.phi - 0.9999410685661618) <= 1e-14

    def test_profile_geometry_found_once_per_technology(self, root_calls):
        # wood's dip and tangency are one root each for the whole run,
        # through its efficiency shift and the arrival of a second mover
        doc = json.loads(SCENARIOS.joinpath("shocks.json").read_text())
        trajectory = simulate(scenario_from_dict(doc))
        assert len(trajectory.records) == 61
        assert root_calls["egl.core:newton"] == 2


class TestShutdownThresholdOracle:
    """The closed-form shutdown threshold against a grid search of the
    integrated gain delta * q - a * h(q) on [0, cap]."""

    @staticmethod
    def draw(rng) -> dict:
        curvature = {
            "c0": float(rng.uniform(0.2, 2.0)),
            "c1": float(rng.choice([0.0, rng.uniform(0.5, 10.0)])),
            "tau": float(rng.uniform(0.3, 5.0)),
            "c2": float(rng.choice([0.0, rng.uniform(0.05, 2.0)])),
            "q_s": float(rng.uniform(0.5, 10.0)),
            "rho": float(rng.uniform(1.0, 3.0))}
        if rng.uniform() < 0.1:
            curvature["rho"] = 1.0
        return curvature

    @staticmethod
    def grid_max_gain(tech, delta: float, a: float, cap: float) -> float:
        """max of delta * q - a * h(q) over a grid, linear and geometric
        (for maxima just above q = 0), refined around its best point."""
        def gain(q):
            h = tech.c0 * q - tech.c1 * tech.tau * np.expm1(-q / tech.tau)
            h = h + tech.c2 * tech.q_s / (tech.rho + 1.0) \
                * (q / tech.q_s) ** (tech.rho + 1.0)
            return delta * q - a * h

        coarse = np.union1d(np.linspace(0.0, cap, 20001),
                            np.geomspace(1e-12 * cap, cap, 2001))
        values = gain(coarse)
        i = int(np.argmax(values))
        best = coarse[i]
        step = coarse[min(i + 1, coarse.size - 1)] - coarse[max(i - 1, 0)]
        fine = np.linspace(max(best - step, 0.0), min(best + step, cap),
                           20001)
        return float(max(values[i], gain(fine).max()))

    def test_finite_caps(self):
        from egl.surplus import _Problem
        rng = np.random.default_rng(7)
        for _ in range(200):
            curvature = self.draw(rng)
            m = float(rng.uniform(0.5, 2.0))
            doc = dip_doc(float(rng.uniform(0.05, 50.0)))
            good = doc["energy_goods"][0]
            good["technology"]["curvature"] = curvature
            good["requirement_multiplier"] = m
            # content above the curve at 0, so the good is a candidate
            good["energy_content"] = delta = m * (
                curvature["c0"] + curvature["c1"]) * float(
                    rng.uniform(1.05, 5.0))
            scenario = scenario_from_dict(doc)
            state = initial_state(scenario)
            problem = _Problem(state)
            e0 = state.energy_goods["e0"]
            share, = problem.shutdown_shares()
            c_star = share / (1.0 - share)
            cap = problem.caps["e0"]
            # one mover with omega = eps = 1: a = m * (1 + c)
            below, above = c_star * (1.0 - 1e-6), c_star * (1.0 + 1e-6)
            assert self.grid_max_gain(e0.technology, delta,
                                      m * (1.0 + below), cap) > 0.0
            assert self.grid_max_gain(e0.technology, delta,
                                      m * (1.0 + above), cap) <= 0.0
            assert problem.good_output(e0, below)[0] > 0.0
            assert problem.good_output(e0, above)[0] == 0.0

    def test_infinite_caps(self):
        # without a cap the power term must turn the curve up (c2 > 0);
        # past q_up, where h' exceeds delta / a, the gain only falls
        from egl.core import FixedProportions
        from egl.surplus import _shutdown_weight
        rng = np.random.default_rng(11)
        for _ in range(200):
            curvature = self.draw(rng)
            curvature["c2"] = float(rng.uniform(0.05, 2.0))
            tech = FixedProportions(requirements={"m0": 1.0}, **curvature)
            delta = float(rng.uniform(1.0, 50.0))
            a_star = _shutdown_weight(tech, delta, math.inf)
            for a, produces in ((a_star * (1.0 - 1e-6), True),
                                (a_star * (1.0 + 1e-6), False)):
                q_up = tech.q_s * (delta / (a * tech.c2)) ** (1.0 / tech.rho)
                gain = self.grid_max_gain(tech, delta, a, 1.01 * q_up)
                assert (gain > 0.0) == produces


class TestDipBelowGammaZero:
    """A dipping fixed-proportions good can earn a surplus although its
    content is below its curve at q = 0 (delta <= gamma(0)): the closed-form
    shutdown threshold decides, not the curve's value at 0."""

    @staticmethod
    def shocks_doc(content: float, endowment: float) -> dict:
        doc = json.loads(SCENARIOS.joinpath("shocks.json").read_text())
        doc["energy_goods"][0]["energy_content"] = content
        doc["prime_movers"][0]["endowment"] = endowment
        doc["events"] = []
        return doc

    def test_produces_with_content_below_gamma_zero(self):
        # gamma(0) = 4.5 > 4.0 = delta, yet the profile dips to about 1.43,
        # where producing earns; the usability rescale then binds
        _, sol = solve_doc(self.shocks_doc(4.0, 20.0))
        assert sol.gamma["wood"] < 4.0 < 4.5
        assert not sol.null
        assert sol.outputs["wood"] == pytest.approx(5.0, rel=1e-9)
        assert sol.phi == pytest.approx(0.4974222922825888, rel=1e-9)
        assert sol.usable_surplus == pytest.approx(9.115013322324524,
                                                   rel=1e-9)
        assert abs(sol.slack_residual) <= SLACK_TOL \
            * max(1.0, sol.usable_surplus)

    def test_cap_below_the_dip_leaves_nothing_to_earn(self):
        # one worker caps wood before its profile falls below delta: the
        # economy produces nothing, as it did when delta <= gamma(0) ruled
        # the good out
        _, sol = solve_doc(self.shocks_doc(3.0, 1.0))
        assert sol.null
        assert sol.outputs["wood"] == 0.0


class TestOneAllocationPerShare:
    """Each share the phi solve evaluates keeps its allocation, so the
    accepted share is not solved again."""

    def test_accepted_share_is_not_solved_again(self, monkeypatch,
                                                root_calls):
        # the shocks run: wood's interior optimum is a Newton root, which
        # the residual at the accepted share already took; after the phi
        # solve only the usability rescale may call a root finder
        import egl.growth
        import egl.surplus
        marks = []                  # one per solve; phi-solved ones filled
        solve_phi = egl.surplus._solve_phi
        solve = egl.growth.solve_energy_side

        def surplus_roots():
            return root_calls["egl.surplus:newton"]

        def marked_phi(problem):
            phi, balanced = solve_phi(problem)
            marks[-1].update(at_phi=surplus_roots(), balanced=balanced)
            return phi, balanced

        def marked_solve(*args, **kw):
            marks.append({})
            sol = solve(*args, **kw)
            if marks[-1]:
                marks[-1]["extra"] = surplus_roots() - marks[-1]["at_phi"]
            return sol

        monkeypatch.setattr(egl.surplus, "_solve_phi", marked_phi)
        monkeypatch.setattr(egl.growth, "solve_energy_side", marked_solve)
        doc = json.loads(SCENARIOS.joinpath("shocks.json").read_text())
        trajectory = simulate(scenario_from_dict(doc))
        assert len(trajectory.records) == len(marks) == 61
        solved = [mark for mark in marks if mark]
        assert len(solved) == 46
        assert all(mark["extra"] == (0 if mark["balanced"] else 1)
                   for mark in solved)
        # one cap root per period the wood source is not yet exhausted;
        # in surplus, 96 outputs, 10 phi roots and 25 rescales
        assert dict(root_calls) == {"egl.embodied:newton": 46,
                                    "egl.core:newton": 2,
                                    "egl.surplus:newton": 131}


class TestExhaustedSourceCap:
    """A mined-out source does nothing: no cap, no cap root for its
    movers, no candidacy, and its solve ends null."""

    @pytest.fixture
    def cap_calls(self, monkeypatch):
        from egl.embodied import ProfileCurve
        calls = []
        output_cap = ProfileCurve.output_cap

        def spied(kernel, mover_id, stock):
            calls.append(mover_id)
            return output_cap(kernel, mover_id, stock)

        monkeypatch.setattr(ProfileCurve, "output_cap", spied)
        return calls

    @staticmethod
    def problem(doc, drawn):
        from egl.surplus import _Problem
        doc["energy_goods"][0]["pes_stock"] = 3.0
        state = initial_state(scenario_from_dict(doc))
        return _Problem(state._replace(cum_extraction={"e0": drawn}))

    def assert_idle(self, doc, drawn):
        problem = self.problem(doc, drawn)
        assert problem.caps == problem.cap_tags == {}
        assert problem.candidates == problem.uncapped == []
        sol = solve_energy_side(scenario_from_dict(doc), problem.state)
        assert sol.null and sol.outputs == {"e0": 0.0}
        assert sol.employment == {"e0": {}}

    @pytest.mark.parametrize("drawn", [3.0, 5.0])
    def test_exhausted_good_takes_no_root(self, cap_calls, drawn):
        self.assert_idle(dip_doc(), drawn)
        assert cap_calls == []

    def test_source_left_takes_its_root(self, cap_calls):
        problem = self.problem(dip_doc(), 2.0)
        assert cap_calls == ["m0"]
        assert problem.caps["e0"] <= 1.0
        assert [g.id for g in problem.candidates] == ["e0"]
        assert problem.uncapped == []

    def test_exhausted_good_without_stock_has_no_cap(self, cap_calls):
        self.assert_idle(dip_doc(endowment=0.0), 3.0)
        assert cap_calls == []

    def test_exhausted_good_whose_cap_overflows_solves(self):
        # without the power term, h(q) = 1e10 needs q near 1e310 at
        # c0 = 1e-300: the cap overflows while the source is open; a
        # mined-out source never asks for it, so the solve ends null
        doc = dip_doc(endowment=1e10)
        doc["energy_goods"][0]["technology"]["curvature"].update(
            c0=1e-300, c2=0.0)
        with pytest.raises(SolverError, match="overflows"):
            self.problem(doc, 2.0)
        self.assert_idle(doc, 3.0)


class TestUncappedGoods:
    """With no candidate, a good without a cap makes the economy
    infeasible exactly when it would earn without one."""

    def test_unstocked_smooth_good_is_infeasible(self):
        problem = problem_of(scarce_doc(0.0))
        assert [g.id for g in problem.uncapped] == ["e0"]
        assert problem.candidates == []
        with pytest.raises(SolverError) as err:
            solve_doc(scarce_doc(0.0))
        assert err.value.kind == "infeasible"

    def test_unstocked_profile_good_below_its_curve_ends_null(self):
        # gamma(0) = 12 exceeds the content 10, so the good would not earn
        # even without a cap
        doc = dip_doc(endowment=0.0)
        doc["energy_goods"][0]["technology"]["curvature"] = {"c0": 12.0}
        problem = problem_of(doc)
        assert [g.id for g in problem.uncapped] == ["e0"]
        assert problem.candidates == []
        _, sol = solve_doc(doc)
        assert sol.null and sol.outputs == {"e0": 0.0}


class TestOneCurvePerGood:
    """A solve builds each good's curve kernel once: ``curve`` runs once
    per smooth good."""

    @staticmethod
    def draws():
        # the first two acceptance-02 draws: one scarce, one abundant
        rng = np.random.default_rng(20240817)
        return [(random_energy_doc(rng, scarce=scarce), scarce)
                for scarce in (True, False)]

    @pytest.fixture
    def smooth_builds(self, monkeypatch):
        import egl.embodied
        calls = []
        build = egl.embodied.curve

        def counted(tech, movers, multiplier=1.0):
            if tech.kind == "cobb_douglas":
                calls.append(tech)
            return build(tech, movers, multiplier)

        monkeypatch.setattr(egl.embodied, "curve", counted)
        return calls

    def test_energy_side(self, smooth_builds):
        for doc, scarce in self.draws():
            scenario = scenario_from_dict(doc)
            state = initial_state(scenario)
            smooth_builds.clear()
            sol = solve_energy_side(scenario, state)
            assert len(smooth_builds) == len(doc["energy_goods"])
            assert (sol.phi > 0.0) == scarce

    def test_demand(self, smooth_builds):
        from egl.demand import demand_for_state
        for doc, _ in self.draws():
            # one smooth and one fixed-proportions non-energy good
            doc["non_energy_goods"].append(dict(
                doc["non_energy_goods"][0], id="n1"))
            doc["non_energy_goods"][0]["technology"] = {
                "kind": "cobb_douglas", "scale": 1.0,
                "exponents": {"m0": 0.6}}
            scenario = scenario_from_dict(doc)
            state = initial_state(scenario)
            sol = solve_energy_side(scenario, state)
            smooth_builds.clear()
            demand = demand_for_state(scenario, state, sol.usable_surplus,
                                      sol.employment)
            assert len(smooth_builds) == 1
            assert demand.bundle["n0"] > 0.0


class TestSolutionInvariants:
    @staticmethod
    def check(scenario, sol):
        state = initial_state(scenario)
        # surplus equals income minus expenditure, exactly as computed
        assert sol.usable_surplus == sol.gross_income - sol.gross_expenditure
        assert sol.usable_surplus >= -1e-12
        # G per good is the cumulative transfer at its output, and the
        # goods' G add up to the total in goods order, bit for bit
        total = 0.0
        for gid, good in state.energy_goods.items():
            cost = cumulative_transfer(good.technology, state.movers,
                                       sol.outputs[gid],
                                       effective_multiplier(good, state))
            assert sol.expenditure[gid] == cost
            total += cost
        assert total == sol.gross_expenditure
        # phi_l = phi/(1-phi) * eps exactly
        for mid, mover in state.movers.items():
            expected = sol.phi / (1.0 - sol.phi) * mover.direct_energy
            assert sol.mover_surplus[mid] == expected
        # complementary slackness on usability
        if not sol.phi_forced:
            scale = max(1.0, sol.usable_surplus)
            if sol.phi == 0.0:
                assert sol.slack_residual <= 1e-8 * scale
            else:
                assert abs(sol.slack_residual) <= 1e-7 * scale
        # marginal-EROI identity at positive output
        for gid, value in sol.meroi.items():
            if value is None:
                continue
            alpha = sol.marginal_surplus[gid]
            assert value == pytest.approx(1.0 + alpha / sol.gamma[gid],
                                          rel=1e-9)

    def test_reference_scenarios(self, cd1, cd1_scarce):
        self.check(cd1, solve_energy_side(cd1))
        self.check(cd1_scarce, solve_energy_side(cd1_scarce))

    def test_random_family(self):
        rng = np.random.default_rng(2024)
        for trial in range(60):
            doc = random_energy_doc(rng, scarce=trial % 2 == 0)
            scenario, sol = solve_doc(doc)
            self.check(scenario, sol)
            # interior first-order condition residuals
            for gid, resid in sol.foc_good_residuals.items():
                if gid not in sol.binding_constraints:
                    assert resid < 1e-6
            for key, resid in sol.foc_mover_residuals.items():
                assert resid < 1e-6

    def test_surplus_matches_quadrature_of_gap(self, cd1_scarce):
        scenario = cd1_scarce
        state = initial_state(scenario)
        sol = solve_energy_side(scenario)
        total = 0.0
        for gid, good in state.energy_goods.items():
            total += adaptive_simpson(
                lambda q, g=good: marginal_surplus_at(g, q, state),
                0.0, sol.outputs[gid], tol=1e-12)
        assert total == pytest.approx(sol.usable_surplus, rel=1e-6)

    def test_output_rises_with_energy_content(self):
        # interior regime: d(Q*)/d(delta) = 1 / gamma'(Q*) > 0
        rng = np.random.default_rng(77)
        for _ in range(200):
            doc = random_energy_doc(rng, scarce=False)
            _, base = solve_doc(doc)
            bumped = json.loads(json.dumps(doc))
            bumped["energy_goods"][0]["energy_content"] *= 1.01
            _, more = solve_doc(bumped)
            assert more.outputs["e0"] >= base.outputs["e0"] - 1e-12
            assert more.outputs["e0"] > base.outputs["e0"] * (1.0 - 1e-9)


class TestGridOracle:
    @staticmethod
    def brute_force(doc, q_points=100_000, phi_points=1_000):
        """Exhaustive scan over the output grid and the scarcity share grid.

        Independent of the solver: first-order crossings are located by
        sign change on the grid, surpluses by trapezoid sums, and the
        usability fixed point by a sign change of the capacity residual.
        """
        scenario = scenario_from_dict(doc)
        state = initial_state(scenario)
        good = state.energy_goods["e0"]
        mover = state.movers["m0"]
        delta = good.energy_content
        endow = state.stocks["m0"]

        from egl.embodied import curve
        kernel = curve(good.technology, state.movers)
        q_hi = 1.2 * (delta / 2.0)   # past the unconstrained optimum at 5
        qs = np.linspace(0.0, q_hi, q_points)
        gamma = np.array([kernel.marginal(q) for q in qs])
        gprime = np.array([kernel.marginal_requirements(q)["m0"]
                           for q in qs])
        employ = np.array([kernel.requirements(q)["m0"] for q in qs])
        surplus = np.concatenate(
            [[0.0], np.cumsum((delta - gamma[1:]) * np.diff(qs)
                              + 0.5 * np.diff(delta - gamma) * np.diff(qs))])

        cap_idx = int(np.searchsorted(employ, endow))

        def q_index(phi):
            c = phi / (1.0 - phi)
            resid = delta - gamma - c * gprime * mover.direct_energy
            sign_change = np.nonzero(resid <= 0.0)[0]
            idx = sign_change[0] if sign_change.size else q_points - 1
            return min(idx, cap_idx)

        def rho(phi):
            idx = q_index(phi)
            used = employ[idx]
            capacity = mover.direct_energy * max(endow - used, 0.0)
            return surplus[idx] - capacity, idx

        phis = np.linspace(0.0, 1.0, phi_points, endpoint=False)
        rho0, idx0 = rho(0.0)
        if rho0 <= 0.0:
            return 0.0, phis[1], qs[idx0], qs[min(idx0 + 1, q_points - 1)]
        prev = 0.0
        for phi in phis[1:]:
            value, idx = rho(phi)
            if value <= 0.0:
                lo_idx = q_index(phi)
                hi_idx = q_index(prev)
                return prev, phi, qs[max(lo_idx - 1, 0)], \
                    qs[min(hi_idx + 1, q_points - 1)]
            prev = phi
        raise AssertionError("no usability crossing on the grid")

    def test_scarce_instance_bracketed(self):
        from conftest import scarce_doc
        doc = scarce_doc(1.0)
        scenario = scenario_from_dict(doc)
        sol = solve_energy_side(scenario)
        phi_lo, phi_hi, q_lo, q_hi = self.brute_force(
            doc, q_points=20_000, phi_points=400)
        cell_phi = 1.0 / 400
        cell_q = (1.2 * 5.0) / 20_000
        assert phi_lo - cell_phi <= sol.phi <= phi_hi + cell_phi
        assert q_lo - cell_q <= sol.outputs["e0"] <= q_hi + cell_q


class TestFigure1:
    def test_reference_markers(self, cd1):
        sol = solve_energy_side(cd1)
        data = figure1_report(cd1, None, "e0", sol)
        assert data.markers["Q_star"] == pytest.approx(5.0, rel=1e-9)
        assert data.markers["gamma"] == pytest.approx(10.0, rel=1e-9)
        assert data.markers["G"] == pytest.approx(25.0, rel=1e-9)
        assert data.markers["E_good"] == pytest.approx(25.0, rel=1e-9)

    def test_null_solution_empty_markers(self):
        doc = cd1_doc()
        doc["energy_goods"][0]["technology"] = {
            "kind": "fixed_proportions", "requirements": {"m0": 1.0},
            "curvature": {"c0": 12.0}}
        scenario, sol = solve_doc(doc)
        data = figure1_report(scenario, None, "e0", sol)
        assert data.markers == {}
        assert len(data.quantities) == len(data.meec) > 0

    def test_span_ends_where_the_curve_leaves_the_floats(self):
        # 1/B = 1e9: the power overflows just past Q* = 0.99999998, so the
        # bisection ends the span 2 Q* at the last quantity the curve
        # evaluates at; below q = 1 the transfer underflows to 0, where the
        # elasticity is 0/0 and reads nan
        doc = json.loads((SCENARIOS / "reference.json").read_text())
        doc["energy_goods"][0]["technology"]["exponents"]["workers"] = 1e-9
        scenario, sol = solve_doc(doc)
        data = figure1_report(scenario, None, "grain", sol)
        assert sol.outputs["grain"] < data.quantities[-1] < 1.000001
        assert data.saturation_quantity is None
        state = initial_state(scenario)
        points = sample_curve(state.energy_goods["grain"].technology,
                              state.movers, data.quantities[-1])
        assert points[0].elasticity == pytest.approx(1e9 - 1.0)
        assert points[1].cumulative == 0.0
        assert math.isnan(points[1].elasticity)

    def test_saturation_from_endowment(self):
        # direct energy of x(Q) = Q**2 exhausts eps * 9 at Q = 3
        doc = cd1_doc()
        doc["prime_movers"][0]["endowment"] = 9.0
        scenario, sol = solve_doc(doc)
        data = figure1_report(scenario, None, "e0", sol)
        assert data.saturation_quantity == pytest.approx(3.0, rel=1e-9)
