import collections
import copy

import numpy as np
import pytest

import egl.statics
from egl import scenario_from_dict
from egl.core import with_entry_value
from egl.errors import ScenarioValidationError, SolverError
from egl.statics import (_locate, draw_scenario, perturb_and_sign,
                         proposition_suite, tangency_residuals)

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
        assert calls == {"solve_energy_side": 4, "demand_for_state": 2,
                         "scenario_from_dict": 2}
        assert tables["b"].applicable == cross
        assert [tables[key].trials for key in "abc"] \
            == [1, 1 if cross else 0, 1]


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


class TestTangency:
    def test_random_smooth_scenarios(self):
        # effective per-unit transfer over marginal product equals the
        # energy content for every used mover; across goods sharing a
        # mover the content-weighted marginal products agree
        rng = np.random.default_rng(91)
        for trial in range(40):
            doc = random_energy_doc(rng, scarce=trial % 2 == 0)
            scenario = scenario_from_dict(doc)
            resid = tangency_residuals(scenario)
            assert resid["within_good"] < 1e-6
            assert resid["across_goods"] < 1e-6
