import collections
import copy

import numpy as np
import pytest

import egl.statics
from egl import scenario_from_dict
from egl.core import initial_state, scenario_digest, with_entry_value
from egl.demand import demand_for_state
from egl.errors import ScenarioValidationError, SolverError
from egl.growth import enter_period
from egl.statics import (_locate, draw_scenario, perturb_and_sign,
                         proposition_suite)
from egl.surplus import solve_energy_side

from conftest import cd1_doc, random_energy_doc


class TestPerturbAndSign:
    def test_energy_content_derivative_at_fixed_share(self):
        # with the share pinned at 0.5 the condition is delta = 4Q, so
        # Q = delta / 4 and the derivative is exactly 0.25
        doc = cd1_doc()
        doc["solver"] = {"force_phi": 0.5}
        d, = perturb_and_sign(doc, "energy_goods.e0.energy_content",
                              ["Q_e.e0"], step=0.01)
        assert d == pytest.approx(0.25, rel=1e-6)

    def test_curve_shift_lowers_own_demand(self):
        doc = cd1_doc()
        d, = perturb_and_sign(
            doc, "non_energy_goods.n0.requirement_multiplier", ["Q_n.n0"])
        assert d < 0.0

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            perturb_and_sign(cd1_doc(), "energy_goods.e0.energy_content",
                             ["Q_e.e0"], step=0.0)

    def test_unknown_paths_rejected(self, monkeypatch):
        # both checks come before any solve
        def no_solve(*args, **kw):
            pytest.fail("solved before the paths were checked")

        monkeypatch.setattr(egl.statics, "solve_energy_side", no_solve)
        with pytest.raises(ValueError):
            perturb_and_sign(cd1_doc(), "energy_goods.nope.energy_content",
                             ["Q_e.e0"])
        with pytest.raises(ValueError, match="bogus"):
            perturb_and_sign(cd1_doc(), "energy_goods.e0.energy_content",
                             ["Q_e.e0", "bogus.e0"])
        # a target whose base value is not a number
        for target in ("energy_goods.e0.id", "energy_goods.e0.technology"):
            with pytest.raises(ValueError, match="not a finite number"):
                perturb_and_sign(cd1_doc(), target, ["Q_e.e0"])
        # a key must name an active good of the head's kind, and a scalar
        # head takes none
        for bad in (["Q_n.nope"], ["phi.x"], ["Q_e.n0"], ["Q_n.e0"],
                    ["alpha"], ["Q_e.e0", "lambda.n0"]):
            with pytest.raises(ValueError):
                perturb_and_sign(cd1_doc(),
                                 "energy_goods.e0.energy_content", bad)

    def test_key_must_name_a_good_active_at_period_zero(self, monkeypatch):
        doc = cd1_doc()
        doc["non_energy_goods"][1]["intro_period"] = 3
        monkeypatch.setattr(egl.statics, "solve_energy_side",
                            lambda *a, **kw: pytest.fail("solved"))
        with pytest.raises(ValueError, match="n1"):
            perturb_and_sign(doc, "energy_goods.e0.energy_content",
                             ["Q_n.n1"])

    def test_period_zero_shift_is_part_of_the_economy(self):
        # halving the requirement at period 0 makes gamma(Q) = Q, so
        # Q = delta and the derivative is 1 instead of 1/2
        doc = cd1_doc(events=[{"period": 0, "kind": "efficiency_shift",
                               "good": "e0", "multiplier": 0.5}])
        doc["solver"] = {"force_phi": 0.0}
        d, = perturb_and_sign(doc, "energy_goods.e0.energy_content",
                              ["Q_e.e0"], step=0.01)
        assert d == pytest.approx(1.0, rel=1e-6)

    def test_scalar_responses(self):
        doc = cd1_doc()
        d, = perturb_and_sign(doc, "energy_goods.e0.energy_content",
                              ["E_star"], step=0.01)
        # E(delta) = delta**2 / 4 at the interior optimum, slope delta / 2
        assert d == pytest.approx(5.0, rel=1e-6)


class TestSharedProbeSolves:
    def test_bare_string_rejected(self):
        with pytest.raises(ValueError, match="sequence"):
            perturb_and_sign(cd1_doc(), "energy_goods.e0.energy_content",
                             "Q_e.e0")

    def test_one_call_equals_one_call_per_response(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            doc = draw_scenario(rng)
            responses = ([f"Q_n.{g['id']}" for g in doc["non_energy_goods"]]
                         + ["Q_e.e0", "alpha.e0", "phi", "E_star", "lambda"])
            for target in ("non_energy_goods.n0.requirement_multiplier",
                           "energy_goods.e0.energy_content"):
                together = perturb_and_sign(doc, target, responses)
                alone = [perturb_and_sign(doc, target, [response])[0]
                         for response in responses]
                assert together == alone

    @pytest.mark.parametrize("family, cross", [(None, True),
                                               ({"non_energy": {
                                                   "count": [1, 1]}}, False)])
    def test_suite_trial_solves_each_probe_once(self, monkeypatch, family,
                                                cross):
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kw):
                calls[name] += 1
                return fn(*args, **kw)
            monkeypatch.setattr(egl.statics, name, wrapper)

        for name in ("solve_energy_side", "demand_for_state",
                     "scenario_from_dict"):
            counted(name, getattr(egl.statics, name))
        doc = draw_scenario(np.random.default_rng([5, 0]), family)
        assert (len(doc["non_energy_goods"]) >= 2) == cross
        tables = proposition_suite(5, 1, family)
        assert calls == {"solve_energy_side": 3, "demand_for_state": 2,
                         "scenario_from_dict": 1}
        assert tables["b"].applicable == cross
        assert [tables[key].trials for key in "abc"] \
            == [1, 1 if cross else 0, 1]


def separate_probes(doc, target, responses, step=1e-3):
    """Derivatives from two probe documents, each parsed and solved in
    full: the energy side, then demand."""
    section, index, key = _locate(doc, target)
    base = doc[section][index].get(key, 1.0)
    probes = []
    for sign in (+1.0, -1.0):
        edited = copy.deepcopy(doc)
        edited[section][index][key] = base * (1.0 + sign * step)
        scenario = scenario_from_dict(edited)
        state = enter_period(scenario, initial_state(scenario), 0)
        energy = solve_energy_side(scenario, state)
        demand = demand_for_state(scenario, state, energy.usable_surplus,
                                  energy.employment)
        probes.append([demand.lam if response == "lambda"
                       else demand.bundle[response.partition(".")[2]]
                       for response in responses])
    up, down = probes
    return [(hi - lo) / (2.0 * step * base) for hi, lo in zip(up, down)]


class TestOneEnergySolvePerDemandShift:
    @pytest.fixture
    def energy_solves(self, monkeypatch):
        calls = []

        def counted(*args, **kw):
            calls.append(args)
            return solve_energy_side(*args, **kw)

        monkeypatch.setattr(egl.statics, "solve_energy_side", counted)
        return calls

    def test_non_energy_target_shares_the_energy_solve(self, energy_solves):
        rng = np.random.default_rng(29)
        for _ in range(20):
            doc = draw_scenario(rng)
            responses = [f"Q_n.{g['id']}"
                         for g in doc["non_energy_goods"]] + ["lambda"]
            for target in ("non_energy_goods.n0.requirement_multiplier",
                           "non_energy_goods.n1.utility_weight"):
                energy_solves.clear()
                got = perturb_and_sign(doc, target, responses)
                assert len(energy_solves) == 1
                assert got == separate_probes(doc, target, responses)

    @pytest.mark.parametrize("target", ["energy_goods.e0.energy_content",
                                        "prime_movers.m0.power_rate"])
    def test_other_targets_solve_each_probe(self, energy_solves, target):
        rng = np.random.default_rng(31)
        for _ in range(20):
            doc = draw_scenario(rng)
            energy_solves.clear()
            perturb_and_sign(doc, target, ["Q_n.n0", "Q_e.e0"])
            assert len(energy_solves) == 2

    def test_wrong_sign_records_the_draw_digest(self, monkeypatch):
        digests = []

        def counted(doc):
            digests.append(scenario_digest(doc))
            return digests[-1]

        monkeypatch.setattr(egl.statics, "scenario_digest", counted)
        proposition_suite(42, 3)
        assert digests == []                    # every claim held

        perturb = egl.statics._perturb

        def flipped(doc, target, responses, step, scenario=None):
            derivs = perturb(doc, target, responses, step, scenario)
            return [-d for d in derivs] if target.startswith("energy") \
                else derivs

        monkeypatch.setattr(egl.statics, "_perturb", flipped)
        tables = proposition_suite(42, 3)
        want = [(trial, scenario_digest(
            draw_scenario(np.random.default_rng([42, trial]))))
            for trial in range(3)]
        assert [(trial, digest)
                for trial, digest, _ in tables["c"].failures] == want
        assert all(d < 0.0 for _, _, d in tables["c"].failures)
        assert len(digests) == 3
        assert tables["a"].failures == tables["b"].failures == ()

    def test_unparseable_draw_discards_every_claim(self, monkeypatch):
        def failing(doc):
            raise ScenarioValidationError("$.x", "patched to fail")

        monkeypatch.setattr(egl.statics, "scenario_from_dict", failing)
        tables = proposition_suite(42, 3)
        assert [(tables[key].trials, tables[key].discarded)
                for key in "abc"] == [(0, 3), (0, 3), (0, 3)]


def probe_doc():
    """cd1 with a bounded source, a preference weight override and an
    arrival, so every kind of entry field has a base value."""
    doc = cd1_doc()
    doc["energy_goods"][0].update(pes_stock=1000.0, depletion_exponent=0.5)
    doc["prime_movers"][0]["avg_embodied"] = 0.3
    doc["preferences"]["weights"] = {"n1": 0.8}
    doc["events"] = [
        {"period": 2, "kind": "new_energy_good",
         "good": {"id": "e1", "energy_content": 4.0,
                  "technology": {"kind": "cobb_douglas", "scale": 1.0,
                                 "exponents": {"m0": 0.4}}}}]
    return doc


PROBE_PATHS = [
    "energy_goods.e0.energy_content", "energy_goods.e0.pes_stock",
    "energy_goods.e0.depletion_exponent",
    "energy_goods.e0.requirement_multiplier",
    "non_energy_goods.n0.utility_weight",
    "non_energy_goods.n1.utility_weight",
    "non_energy_goods.n1.requirement_multiplier",
    "prime_movers.m0.power_rate", "prime_movers.m0.depreciation",
    "prime_movers.m0.avg_embodied", "prime_movers.m0.endowment",
    "prime_movers.m0.max_accum_rate",
]


class TestProbeScenario:
    @pytest.mark.parametrize("path", PROBE_PATHS)
    @pytest.mark.parametrize("factor", [0.999, 1.001])
    def test_replaced_config_equals_parsed_document(self, path, factor):
        doc = probe_doc()
        section, index, key = _locate(doc, path)
        value = doc[section][index].get(key, 1.0) * factor
        edited = copy.deepcopy(doc)
        edited[section][index][key] = value
        assert with_entry_value(scenario_from_dict(doc), doc, section,
                                index, key, value) \
            == scenario_from_dict(edited)

    @pytest.mark.parametrize("key, value", [("depreciation", 1.0005),
                                            ("intro_period", 0.5)])
    def test_invalid_value_fails_like_the_document(self, key, value):
        doc = probe_doc()
        edited = copy.deepcopy(doc)
        edited["prime_movers"][0][key] = value
        with pytest.raises(ScenarioValidationError) as want:
            scenario_from_dict(edited)
        with pytest.raises(ScenarioValidationError) as got:
            with_entry_value(scenario_from_dict(doc), doc, "prime_movers", 0,
                             key, value)
        assert str(got.value) == str(want.value)

    def test_sweep_draw_parses_once_and_needs_no_root(self, monkeypatch,
                                                      root_calls):
        parses = []

        def counted(doc):
            parses.append(doc)
            return scenario_from_dict(doc)

        monkeypatch.setattr(egl.statics, "scenario_from_dict", counted)
        doc = draw_scenario(np.random.default_rng([3, 0]))
        for target, response in (
                ("non_energy_goods.n0.requirement_multiplier", "Q_n.n1"),
                ("energy_goods.e0.energy_content", "Q_e.e0")):
            perturb_and_sign(doc, target, [response])
        assert len(parses) == 2
        assert sum(root_calls.values()) == 0


class TestDrawScenario:
    def test_draws_validate_and_solve_interior(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            doc = draw_scenario(rng)
            scenario = scenario_from_dict(doc)
            from egl import solve_energy_side
            sol = solve_energy_side(scenario)
            assert sol.phi == 0.0                 # abundant by construction
            assert sol.outputs["e0"] > 0.0

    def test_family_overrides(self):
        rng = np.random.default_rng(1)
        doc = draw_scenario(rng, {"non_energy": {"count": [5, 5]}})
        assert len(doc["non_energy_goods"]) == 5


#: Family documents the draws could not use, and where each fails.
BAD_FAMILIES = [
    ({"non_energy": {"count": [3, 1]}}, "$.family.non_energy.count"),
    ({"energy": {"delta": [-5, -1]}}, "$.family.energy.delta"),
    ({"energy": {"cd_returns": [1.0, 1.0]}}, "$.family.energy.cd_returns"),
    ({"energy": {"cd_returns": [0.0, 0.5]}}, "$.family.energy.cd_returns"),
    ({"non_energy": {"count": [0, 0]}}, "$.family.non_energy.count"),
    ({"non_energy": {"count": [1.0, 2.0]}}, "$.family.non_energy.count"),
    ({"non_energy": {"count": [1, 10 ** 20]}}, "$.family.non_energy.count"),
    ({"energy": {"delta": "x"}}, "$.family.energy.delta"),
    ({"energy": {"delta": [1.0, float("nan")]}}, "$.family.energy.delta"),
    ({"energy": {"delta": [1.0, 10 ** 400]}}, "$.family.energy.delta"),
    ({"movers": {"omega": [0.0, 1.0]}}, "$.family.movers.omega"),
    ({"preferences": {"sigma": [True, 2.0]}}, "$.family.preferences.sigma"),
    ({"preferences": {"weights": [1.0]}}, "$.family.preferences.weights"),
    ({"preferences": {"form": "leontief"}}, "$.family.preferences.form"),
    ({"preferences": {"gamma": [1.0, 2.0]}}, "$.family.preferences.gamma"),
    ({"labour": {}}, "$.family.labour"),
    ({"energy": [2.0, 50.0]}, "$.family.energy"),
    ([], "$.family"),
]


class TestFamilyValidation:
    @pytest.mark.parametrize("family, field", BAD_FAMILIES)
    def test_rejected_before_any_draw(self, monkeypatch, family, field):
        monkeypatch.setattr(egl.statics, "draw_scenario",
                            lambda *a, **kw: pytest.fail("drew"))
        with pytest.raises(ScenarioValidationError) as err:
            proposition_suite(1, 2, family)
        assert err.value.field == field

    def test_overflowing_draw_is_discarded(self):
        # q* = (delta b / omega) ** (b / (1 - b)) leaves the float range
        tables = proposition_suite(1, 2, {"energy": {"delta": [1e300,
                                                               1e300]}})
        assert [(tables[key].trials, tables[key].discarded)
                for key in "abc"] == [(0, 2), (0, 2), (0, 2)]


class TestPropositionSuite:
    def test_small_sweep_confirms_everything(self):
        tables = proposition_suite(42, 25)
        for key in ("a", "b", "c"):
            t = tables[key]
            assert t.trials == 25
            assert t.confirmations == 25
            assert t.failures == ()
            assert t.discarded == 0
        assert tables["a"].max_derivative < 0.0
        assert tables["b"].min_derivative > 0.0
        assert tables["c"].min_derivative > 0.0

    def test_repeat_run_is_identical(self):
        one = proposition_suite(7, 10)
        two = proposition_suite(7, 10)
        assert one == two

    def test_single_good_makes_cross_check_inapplicable(self):
        tables = proposition_suite(3, 5,
                                   family={"non_energy": {"count": [1, 1]}})
        assert not tables["b"].applicable
        assert tables["a"].trials == 5
        assert tables["a"].confirmations == 5

    def test_sign_stability_under_halved_step(self):
        coarse = proposition_suite(11, 10, step=1e-3)
        fine = proposition_suite(11, 10, step=5e-4)
        for key in ("a", "b", "c"):
            assert coarse[key].confirmations == fine[key].confirmations
            assert np.sign(coarse[key].min_derivative) \
                == np.sign(fine[key].min_derivative)
            assert np.sign(coarse[key].max_derivative) \
                == np.sign(fine[key].max_derivative)

    def test_failed_shift_discards_own_and_cross_checks(self, monkeypatch):
        # (a) and (b) share the curve shift's probes, so a demand solve
        # that fails discards the trial from both; (c) needs no demand
        def failing(*args, **kw):
            raise SolverError("demand", "no demand")

        monkeypatch.setattr(egl.statics, "demand_for_state", failing)
        tables = proposition_suite(42, 3)
        assert [(tables[key].trials, tables[key].discarded)
                for key in "abc"] == [(0, 3), (0, 3), (3, 0)]
        assert tables["c"].confirmations == 3

    def test_trials_required(self):
        with pytest.raises(ValueError):
            proposition_suite(1, 0)

    def test_negative_seed_refused(self):
        # numpy's stream takes no negative seed word, so neither does egl's
        with pytest.raises(ValueError, match="non-negative"):
            proposition_suite(-1, 1)


class TestTangency:
    def test_random_smooth_scenarios(self):
        # energy content over each used mover's marginal product equals
        # its per-unit transfer plus its surplus, omega_l + phi_l, on every
        # interior smooth good; goods sharing a mover then agree on
        # delta / g'_l, so the cross-good condition needs no check of its own
        rng = np.random.default_rng(91)
        checked = 0
        for trial in range(40):
            doc = random_energy_doc(rng, scarce=trial % 2 == 0)
            solution = solve_energy_side(scenario_from_dict(doc))
            residuals = solution.foc_mover_residuals.values()
            assert all(r < 1e-6 for r in residuals)
            checked += len(residuals)
        assert checked > 0
