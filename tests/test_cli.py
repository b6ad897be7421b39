import contextlib
import io
import itertools
import json
import logging
import os
import stat
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import egl
import egl.cli
import egl.statics
from egl.cli import main

from conftest import cd1_doc, scarce_doc


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read(path):
    return path.read_bytes()


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def run_python(args, cwd, egl_log=None):
    """Run a fresh interpreter that imports egl from this checkout, with
    EGL_LOG set to ``egl_log`` or, if None, unset."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(egl.__file__).resolve().parents[1]))
    env.pop("EGL_LOG", None)
    if egl_log is not None:
        env["EGL_LOG"] = egl_log
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


class TestValidate:
    def test_valid_scenario(self, tmp_path, capsys):
        path = write_scenario(tmp_path, cd1_doc())
        assert main(["validate", "--scenario", path]) == 0
        assert "ok" in capsys.readouterr().out

    def test_invalid_scenario_exit_1_with_field(self, tmp_path, capsys):
        doc = cd1_doc()
        doc["prime_movers"][0]["depreciation"] = 1.2
        path = write_scenario(tmp_path, doc)
        assert main(["validate", "--scenario", path]) == 1
        err = capsys.readouterr().err
        payload = json.loads(err.strip())
        assert payload["error"] == "validation"
        assert "depreciation" in payload["detail"]

    @pytest.mark.parametrize("key, value", [
        ("tolerances", {"phi": 1e-11}), ("substeps", 2),
        ("accum_normalization", 2.0)])
    def test_removed_solver_setting_exit_1(self, tmp_path, capsys, key,
                                           value):
        doc = cd1_doc()
        doc["solver"] = {key: value}
        path = write_scenario(tmp_path, doc)
        assert main(["validate", "--scenario", path]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "validation"
        assert f"$.solver.{key}" in payload["detail"]
        assert "unknown field" in payload["detail"]

    def test_parse_error_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        assert main(["validate", "--scenario", str(path)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "parse"

    @pytest.mark.parametrize("field", ["period_length", "exponents"])
    def test_out_of_range_integer_exit_1(self, tmp_path, capsys, field):
        # a JSON integer past the float range is not converted to a float
        doc = json.loads((SCENARIOS / "reference.json").read_text())
        if field == "period_length":
            doc["period_length"] = 10 ** 400
        else:
            doc["energy_goods"][0]["technology"]["exponents"]["workers"] \
                = 10 ** 400
        path = write_scenario(tmp_path, doc)
        assert main(["validate", "--scenario", path]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "validation"
        assert field in payload["detail"]

    def test_missing_file_exit_3(self, tmp_path, capsys):
        assert main(["validate", "--scenario",
                     str(tmp_path / "absent.json")]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "io"


class TestEquilibrium:
    def test_reference_outputs(self, tmp_path):
        path = write_scenario(tmp_path, cd1_doc())
        out = tmp_path / "out"
        assert main(["equilibrium", "--scenario", path,
                     "--out", str(out)]) == 0
        eq = (out / "equilibrium.csv").read_text()
        assert "e0,5,10,0,25,1," in eq
        assert "phi,0\n" in eq
        assert "E_total,25\n" in eq
        assert "I,50\n" in eq
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "equilibrium"
        assert manifest["scenario_digest"].startswith("sha256:")
        assert "equilibrium.csv" in manifest["outputs"]
        demand = (out / "demand.csv").read_text()
        assert "lambda," in demand
        curve = (out / "meec_e0.csv").read_text()
        assert curve.splitlines()[0] == "Q,gamma,gamma_avg,G,eta"

    def test_solver_failure_exit_2(self, tmp_path, capsys):
        doc = cd1_doc()
        doc["prime_movers"][0]["endowment"] = 0.0
        path = write_scenario(tmp_path, doc)
        assert main(["equilibrium", "--scenario", path,
                     "--out", str(tmp_path / "o")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "solver"

    def test_unwritable_out_dir_exit_3(self, tmp_path, capsys):
        path = write_scenario(tmp_path, cd1_doc())
        if os.geteuid() != 0:
            locked = tmp_path / "locked"
            locked.mkdir()
            locked.chmod(stat.S_IRUSR | stat.S_IXUSR)
            target = locked / "sub"
        else:
            # permission bits do not bind as root; block mkdir with a file
            target = tmp_path / "blocked"
            target.write_text("in the way", encoding="utf-8")
        code = main(["equilibrium", "--scenario", path,
                     "--out", str(target)])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "io"

    def test_svg_well_formed_and_self_contained(self, tmp_path):
        path = write_scenario(tmp_path, cd1_doc())
        out = tmp_path / "out"
        main(["equilibrium", "--scenario", path, "--out", str(out)])
        svg_path = out / "figure1_e0.svg"
        root = ET.parse(svg_path).getroot()
        assert root.tag.endswith("svg")
        text = svg_path.read_text()
        assert "http://" not in text.replace(
            "http://www.w3.org/2000/svg", "")
        assert "href" not in text

    def test_digest_stable_under_key_order(self, tmp_path):
        doc = cd1_doc()
        p1 = write_scenario(tmp_path, doc, "a.json")
        p2 = tmp_path / "b.json"
        p2.write_text(json.dumps(dict(reversed(list(doc.items())))),
                      encoding="utf-8")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["equilibrium", "--scenario", p1, "--out", str(out1)])
        main(["equilibrium", "--scenario", str(p2), "--out", str(out2)])
        d1 = json.loads((out1 / "manifest.json").read_text())
        d2 = json.loads((out2 / "manifest.json").read_text())
        assert d1["scenario_digest"] == d2["scenario_digest"]


class TestManifest:
    @pytest.mark.parametrize("command", ["equilibrium", "simulate"])
    def test_lists_only_the_settings_solvers_read(self, tmp_path, command):
        path = write_scenario(tmp_path, cd1_doc())
        out = tmp_path / "out"
        assert main([command, "--scenario", path, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["tolerances"]) \
            == {"phi", "q_rtol", "slack", "ss_accum", "ss_alpha"}
        assert "seed" not in manifest


class TestLogging:
    def test_each_main_reads_egl_log(self, tmp_path, monkeypatch, capsys):
        path = write_scenario(tmp_path, scarce_doc())
        out = str(tmp_path / "out")
        logger = logging.getLogger("egl")
        root_handlers = list(logging.getLogger().handlers)
        saved = logger.level, list(logger.handlers)
        try:
            monkeypatch.delenv("EGL_LOG", raising=False)
            assert main(["simulate", "--scenario", path, "--out", out,
                         "--horizon", "0"]) == 0
            assert logger.level == logging.WARNING
            assert capsys.readouterr().err == ""
            monkeypatch.setenv("EGL_LOG", "debug")
            assert main(["simulate", "--scenario", path, "--out", out,
                         "--horizon", "0"]) == 0
            assert logger.level == logging.DEBUG
            assert "DEBUG egl.growth: t=0 " in capsys.readouterr().err
            assert len(logger.handlers) == 1
            assert logging.getLogger().handlers == root_handlers
        finally:
            logger.setLevel(saved[0])
            logger.handlers[:] = saved[1]

    @pytest.mark.parametrize("egl_log, loads, err", [
        (None, False, ""), ("quiet", False, ""),
        ("debug", True, "DEBUG egl.growth: t=0 ")])
    def test_a_fresh_process_loads_logging_only_to_emit(self, tmp_path,
                                                        egl_log, loads, err):
        # egl emits only INFO and DEBUG records, so under the default no
        # command imports ``logging``; under debug a fresh ``egl`` still
        # prints each period
        script = ("import sys\n"
                  "from egl.cli import main\n"
                  "code = main(sys.argv[1:])\n"
                  "print('logging' in sys.modules)\n"
                  "sys.exit(code)\n")
        proc = run_python(
            ["-c", script, "simulate", "--scenario",
             str(SCENARIOS / "scarce_growth.json"), "--out",
             str(tmp_path / "out")], tmp_path, egl_log)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{loads}\n"
        assert proc.stderr.startswith(err)
        assert bool(proc.stderr) == loads


class TestSimulate:
    def test_horizon_zero_single_record(self, tmp_path):
        path = write_scenario(tmp_path, scarce_doc())
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", path, "--out", str(out),
                     "--horizon", "0"]) == 0
        lines = [l for l in (out / "trajectory.csv").read_text().splitlines()
                 if l and not l.startswith("#")]
        assert len(lines) == 2      # header + one record

    def test_scarce_run_trajectory_and_figure(self, tmp_path):
        path = write_scenario(tmp_path, scarce_doc())
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", path, "--out",
                     str(out)]) == 0
        text = (out / "trajectory.csv").read_text()
        assert "# steady_state_period," in text
        header = text.splitlines()[0].split(",")
        assert header[:5] == ["t", "phi", "E_star", "P", "lambda"]
        assert "Q_e0" in header and "x_m0" in header
        ET.parse(out / "figure2.svg")

    def test_rerun_byte_identical(self, tmp_path):
        path = write_scenario(tmp_path, scarce_doc())
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["simulate", "--scenario", path, "--out", str(out1)])
        main(["simulate", "--scenario", path, "--out", str(out2)])
        for name in ("trajectory.csv", "figure2.svg", "manifest.json"):
            assert read(out1 / name) == read(out2 / name)

    def test_shock_that_empties_a_stock_ends_the_run(self, tmp_path, capsys):
        # the document is valid; the shock fails its period like a solve
        doc = json.loads((SCENARIOS / "scarce_growth.json").read_text())
        doc["events"] = [{"period": 3, "kind": "endowment_shock",
                          "mover": "workers", "delta": -50}]
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["validate", "--scenario", path]) == 0
        capsys.readouterr()
        assert main(["simulate", "--scenario", path, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert [json.loads(line) for line in lines] == [{
            "error": "solver",
            "detail": "event.delta: shock drives stock of 'workers' "
                      "below zero"}]
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:4]] == ["0", "1", "2"]
        assert rows[4] == "# aborted_period,3"
        ET.parse(out / "figure2.svg")


class TestArrivalEvents:
    def test_shock_in_the_arrival_period_runs(self, tmp_path, capsys):
        # arrivals activate before the shocks of their period apply
        doc = json.loads((SCENARIOS / "shocks.json").read_text())
        doc["events"].append({"period": 60, "kind": "endowment_shock",
                              "mover": "engines", "delta": 0.1})
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["validate", "--scenario", path]) == 0
        assert main(["simulate", "--scenario", path, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert sorted(f.name for f in out.iterdir()) == [
            "figure2.svg", "manifest.json", "trajectory.csv"]
        rows = (out / "trajectory.csv").read_text().splitlines()
        header = rows[0].split(",")
        at60 = dict(zip(header, rows[61].split(",")))
        assert float(at60["x_engines"]) == pytest.approx(0.15)

    @pytest.mark.parametrize("command", ["equilibrium", "simulate"])
    @pytest.mark.parametrize("at_start", [False, True])
    def test_arrival_event_equals_listed_type(self, tmp_path, command,
                                              at_start):
        doc = json.loads((SCENARIOS / "arrivals.json").read_text())
        if at_start:
            for ev in doc["events"]:
                ev["period"] = 0
        listed = json.loads(json.dumps(doc))
        mover_ev, good_ev, shift = listed["events"]
        listed["prime_movers"].append(
            dict(mover_ev["mover"], intro_period=mover_ev["period"]))
        listed["energy_goods"].append(
            dict(good_ev["good"], intro_period=good_ev["period"]))
        listed["events"] = [shift]
        outs = []
        for name, d in (("events", doc), ("listed", listed)):
            out = tmp_path / name
            assert main([command, "--scenario",
                         write_scenario(tmp_path, d, f"{name}.json"),
                         "--out", str(out)]) == 0
            outs.append({f.name: f.read_bytes() for f in out.iterdir()
                         if f.name != "manifest.json"})
        assert outs[0] == outs[1]

    def test_shift_before_its_good_arrives_fails_validate(self, tmp_path,
                                                          capsys):
        doc = json.loads((SCENARIOS / "arrivals.json").read_text())
        doc["events"].append({"period": 2, "kind": "efficiency_shift",
                              "good": "coal", "multiplier": 0.5})
        path = write_scenario(tmp_path, doc)
        assert main(["validate", "--scenario", path]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "validation"
        assert payload["detail"].startswith("$.events[3].period:")

    def test_event_order_leaves_outputs_unchanged(self, tmp_path):
        # a shift listed before the arrival of its good names a good the
        # parser already knows: every arrival is parsed before any shock
        doc = json.loads((SCENARIOS / "arrivals.json").read_text())
        outs = set()
        for n, events in enumerate(itertools.permutations(doc["events"])):
            path = write_scenario(tmp_path, dict(doc, events=list(events)),
                                  f"order{n}.json")
            files = {}
            for command in ("equilibrium", "simulate"):
                out = tmp_path / f"{command}{n}"
                assert main([command, "--scenario", path,
                             "--out", str(out)]) == 0
                files.update((f"{command}/{f.name}", f.read_bytes())
                             for f in out.iterdir()
                             if f.name != "manifest.json")
            outs.add(tuple(sorted(files.items())))
        assert n == 5 and len(outs) == 1


class TestPeriodZeroEvents:
    @pytest.mark.parametrize("event", [
        {"period": 0, "kind": "efficiency_shift", "good": "grain",
         "multiplier": 0.5},
        {"period": 0, "kind": "endowment_shock", "mover": "workers",
         "delta": -99.0},
    ])
    def test_equilibrium_is_row_0_of_the_simulation(self, tmp_path, event):
        doc = json.loads((SCENARIOS / "reference.json").read_text())
        doc["events"] = [event]
        path = write_scenario(tmp_path, doc)
        assert main(["equilibrium", "--scenario", path,
                     "--out", str(tmp_path / "eq")]) == 0
        assert main(["simulate", "--scenario", path, "--horizon", "0",
                     "--out", str(tmp_path / "sim")]) == 0
        rows = (tmp_path / "eq" / "equilibrium.csv").read_text().splitlines()
        grain = dict(zip(rows[0].split(","), rows[1].split(",")))
        phi = dict(row.split(",") for row in rows[3:])["phi"]
        rows = (tmp_path / "sim" / "trajectory.csv").read_text().splitlines()
        row0 = dict(zip(rows[0].split(","), rows[1].split(",")))
        assert (grain["Q_star"], grain["alpha"], grain["meroi"], phi) == (
            row0["Q_grain"], row0["alpha_grain"], row0["meroi_grain"],
            row0["phi"])
        assert float(grain["Q_star"]) != 5.0    # the unshocked optimum

    def test_library_default_is_the_period_0_economy(self):
        # solve_energy_side and figure1_report without a state solve the
        # economy after the period-0 events, as egl equilibrium does
        doc = json.loads((SCENARIOS / "reference.json").read_text())
        doc["events"] = [{"period": 0, "kind": "efficiency_shift",
                          "good": "grain", "multiplier": 0.5}]
        scenario = egl.load_scenario(json.dumps(doc))
        state = egl.growth.enter_period(scenario,
                                        egl.initial_state(scenario), 0)
        solution = egl.solve_energy_side(scenario)
        assert solution == egl.solve_energy_side(scenario, state)
        assert solution.outputs["grain"] == pytest.approx(10.0)
        assert solution.usable_surplus == pytest.approx(50.0)
        assert egl.figure1_report(scenario, None, "grain", solution) \
            == egl.figure1_report(scenario, state, "grain", solution)


class TestStatics:
    def test_sweep_outputs(self, tmp_path):
        family = tmp_path / "family.json"
        family.write_text("{}", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["statics", "--family", str(family), "--seed", "42",
                     "--trials", "5", "--out", str(out)]) == 0
        table = (out / "sign_table.csv").read_text()
        assert table.splitlines()[0] \
            == "proposition,trials,confirmed,failed,discarded," \
               "min_derivative,max_derivative"
        assert "a,5,5,0,0," in table
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["discarded"] == {"a": 0, "b": 0, "c": 0}
        assert "# generator,numpy-PCG64" in table
        failures = (out / "failures.csv").read_text()
        assert failures.splitlines()[0] \
            == "proposition,trial,digest,derivative"

    def test_discarded_draws_are_counted(self, tmp_path):
        # with energy content 1e-300 every draw fails to parse or to
        # solve, so each trial is discarded from every claim
        family = tmp_path / "family.json"
        family.write_text(json.dumps({"energy": {"delta": [1e-300, 1e-300]}}),
                          encoding="utf-8")
        out = tmp_path / "out"
        assert main(["statics", "--family", str(family), "--seed", "3",
                     "--trials", "2", "--out", str(out)]) == 0
        rows = (out / "sign_table.csv").read_text().splitlines()
        assert rows[1:4] == [f"{key},0,0,0,2,nan,nan" for key in "abc"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["discarded"] == {"a": 2, "b": 2, "c": 2}

    @pytest.mark.parametrize("seed", ["-1", str(-2**40)])
    def test_negative_seed_usage_error(self, tmp_path, capsys, seed):
        out = tmp_path / "o"
        assert main(["statics", "--family",
                     str(SCENARIOS / "sweep_family.json"), "--seed", seed,
                     "--trials", "2", "--out", str(out)]) == 1
        assert [json.loads(line)
                for line in capsys.readouterr().err.splitlines()] == [
            {"error": "usage", "detail": "--seed must be >= 0"}]
        assert not out.exists()

    def test_zero_trials_usage_error(self, tmp_path, capsys):
        family = tmp_path / "family.json"
        family.write_text("{}", encoding="utf-8")
        assert main(["statics", "--family", str(family), "--seed", "1",
                     "--trials", "0", "--out", str(tmp_path / "o")]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "usage"

    def test_same_seed_identical_tables(self, tmp_path):
        family = tmp_path / "family.json"
        family.write_text("{}", encoding="utf-8")
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        for out in (out1, out2):
            main(["statics", "--family", str(family), "--seed", "9",
                  "--trials", "4", "--out", str(out)])
        assert read(out1 / "sign_table.csv") == read(out2 / "sign_table.csv")


    @pytest.mark.parametrize("family", [
        {"non_energy": {"count": [3, 1]}},
        {"energy": {"delta": [-5, -1]}},
        {"energy": {"cd_returns": [1.0, 1.0]}},
        {"non_energy": {"count": [0, 0]}},
        {"non_energy": {"count": [1, 10 ** 20]}},
        {"energy": {"delta": "x"}},
        {"preferences": {"form": "leontief"}},
    ])
    def test_bad_family_exits_1_with_one_json_line(self, tmp_path, capsys,
                                                   family):
        path = write_scenario(tmp_path, family, "family.json")
        out = tmp_path / "out"
        assert main(["statics", "--family", path, "--seed", "1",
                     "--trials", "2", "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "validation"
        assert payload["detail"].startswith(
            f"$.family.{next(iter(family))}.")
        assert not out.exists()


#: Family entries and bounds that probe the document boundary: extreme,
#: swapped, negative, zero and non-numeric bounds, then values that are no
#: range at all, unknown keys and bad forms.  Most ranges are ordered
#: positive pairs, so that most examples draw and solve.
_POSITIVE = st.sampled_from([1e-300, 0.5, 0.999999, 1, 2, 3, 4.0, 50.0,
                             1e300])
_BAD = st.sampled_from([-5, -1.0, 0, 0.0, -1e300, "x", None, True])
_ORDERED = st.lists(_POSITIVE, min_size=2, max_size=2).map(sorted)
_RANGE = st.one_of(*[_ORDERED] * 6,
                   st.lists(st.one_of(_POSITIVE, _BAD), min_size=2,
                            max_size=2),
                   _BAD, st.lists(_POSITIVE, max_size=3))
_COUNTS = st.lists(st.integers(1, 4), min_size=2, max_size=2).map(sorted)
_SHARES = st.lists(st.sampled_from([1e-300, 0.3, 0.5, 0.999999]),
                   min_size=2, max_size=2).map(sorted)
_ENTRY = {
    **{key: _RANGE for key in ("delta", "omega", "gamma", "sigma",
                               "weights")},
    "count": st.one_of(*[_COUNTS] * 3, _RANGE),
    "cd_returns": st.one_of(*[_SHARES] * 3, _RANGE),
    "form": st.sampled_from(["ces", "ces", "cobb_douglas", "leontief", 3]),
}
_RARELY = st.sampled_from([False] * 9 + [True])
_SECTIONS = {
    "energy": ["delta", "cd_returns"], "movers": ["omega"],
    "non_energy": ["count", "gamma"],
    "preferences": ["form", "sigma", "weights"],
}


@st.composite
def families(draw):
    family = {}
    for section in draw(st.lists(st.sampled_from(sorted(_SECTIONS)),
                                 unique=True)):
        keys = draw(st.lists(st.sampled_from(_SECTIONS[section]),
                             unique=True))
        family[section] = {key: draw(_ENTRY[key]) for key in keys}
        if draw(_RARELY):
            family[section]["bogus"] = draw(_RANGE)
    if draw(_RARELY):
        family["bogus"] = {}
    return family


class TestStaticsFamilyBoundary:
    @settings(max_examples=60, deadline=None)
    @given(families())
    def test_exits_cleanly(self, family):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "family.json"
            path.write_text(json.dumps(family), encoding="utf-8")
            out = Path(tmp) / "out"
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["statics", "--family", str(path), "--seed", "3",
                             "--trials", "2", "--out", str(out)])
            assert code in (0, 1)
            if code == 1:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1, err.getvalue()
                assert "Traceback" not in lines[0]
                json.loads(lines[0])
            else:
                assert (out / "sign_table.csv").exists()


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert main([]) == 1

    def test_parser_is_built_once_per_process(self, tmp_path, capsys):
        path = write_scenario(tmp_path, cd1_doc())
        egl.cli._build_parser.cache_clear()
        runs = []
        for _ in range(2):
            code = main(["validate", "--scenario", path])
            runs.append((code, capsys.readouterr()))
        assert egl.cli._build_parser.cache_info().misses == 1
        assert runs[0] == runs[1] == (0, ("ok\n", ""))
        assert main(["simulate", "--bogus"]) == 1
        assert egl.cli._build_parser.cache_info().misses == 1

    def test_unknown_argument(self, capsys):
        assert main(["simulate", "--bogus"]) == 1

    @pytest.mark.parametrize("argv, detail", [
        (["bogus"], "argument command: invalid choice: 'bogus' (choose "
                    "from 'validate', 'equilibrium', 'simulate', 'statics')"),
        (["simulate", "--scenario", "x"],
         "the following arguments are required: --out"),
        (["statics", "--family", "f", "--seed", "abc", "--trials", "1",
          "--out", "o"], "argument --seed: invalid int value: 'abc'"),
        ([], "the following arguments are required: command"),
    ])
    def test_argparse_error_is_one_json_line(self, capsys, argv, detail):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert [json.loads(line) for line in captured.err.splitlines()] \
            == [{"error": "usage", "detail": detail}]

    @pytest.mark.parametrize("argv, first", [
        (["--help"], "usage: egl [-h] [--version]"),
        (["simulate", "-h"],
         "usage: egl simulate [-h] --scenario SCENARIO --out OUT"),
        (["--version"], egl.__version__),
    ])
    def test_help_and_version_exit_0(self, capsys, argv, first):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith(first)

    @pytest.mark.parametrize("horizon", ["-1", "-3"])
    def test_negative_horizon_usage_error(self, tmp_path, capsys, horizon):
        # a document's horizon must be >= 0, and so must the flag's
        path = write_scenario(tmp_path, cd1_doc())
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", path, "--out", str(out),
                     "--horizon", horizon]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "usage",
                                        "detail": "--horizon must be >= 0"}
        assert not out.exists()


class TestSolverFailureReport:
    def test_bare_egl_error_exits_2_with_one_json_line(self, tmp_path,
                                                       monkeypatch, capsys):
        def failing(*args, **kw):
            raise egl.EglError("no subclass")

        monkeypatch.setattr(egl.statics, "proposition_suite", failing)
        path = write_scenario(tmp_path, {}, "family.json")
        assert main(["statics", "--family", path, "--seed", "1",
                     "--trials", "1", "--out", str(tmp_path / "o")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "failure",
                                        "detail": "no subclass"}


    @pytest.mark.parametrize("command", ["equilibrium", "simulate"])
    def test_unreachable_demand_exits_2_with_one_json_line(self, tmp_path,
                                                           command):
        # a near-free good whose demand never reaches its target: the
        # bracket search for the demand root runs out of range
        doc = json.loads((SCENARIOS / "reference.json").read_text())
        doc["non_energy_goods"][0]["technology"]["curvature"]["c0"] = 1e-300
        path = write_scenario(tmp_path, doc)
        proc = run_python(["-m", "egl.cli", command, "--scenario", path,
                           "--out", str(tmp_path / "out")], tmp_path)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        payload = json.loads(lines[0])
        assert payload["error"] == "solver"
        assert payload["detail"].startswith("no_bracket:")

    @pytest.mark.parametrize("command", ["equilibrium", "simulate"])
    @pytest.mark.parametrize("section, good", [
        ("energy_goods", "grain"), ("non_energy_goods", "cloth")])
    @pytest.mark.parametrize("factor", [1e-300, 1e300])
    def test_composed_multiplier_out_of_range_exits_2(
            self, tmp_path, capsys, command, section, good, factor):
        # a static multiplier and a period-0 shift, each valid, whose
        # product underflows to 0 or overflows to inf
        doc = json.loads((SCENARIOS / "reference.json").read_text())
        doc[section][0]["requirement_multiplier"] = factor
        doc["events"] = [{
            "period": 0, "good": good, "multiplier": factor,
            "kind": "efficiency_shift" if factor < 1.0 else "meec_shift"}]
        path = write_scenario(tmp_path, doc)
        assert main([command, "--scenario", path,
                     "--out", str(tmp_path / "out")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "solver"
        assert payload["detail"].startswith("degenerate: requirement "
                                            "multiplier")

    def test_vanishing_returns_to_scale_exits_0(self, tmp_path):
        # 1/B = 1e9: the Cobb-Douglas power overflows just past
        # Q* = 0.99999998, so figure 1 ends at the last quantity the curve
        # evaluates at and drops the fleet-saturation marker, whose search
        # overflows
        doc = json.loads((SCENARIOS / "reference.json").read_text())
        doc["energy_goods"][0]["technology"]["exponents"]["workers"] = 1e-9
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "out"
        proc = run_python(["-m", "egl.cli", "equilibrium", "--scenario",
                           path, "--out", str(out)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        manifest = json.loads((out / "manifest.json").read_text())
        assert all((out / name).is_file() for name in manifest["outputs"])
        grain = next(line for line in
                     (out / "equilibrium.csv").read_text().splitlines()
                     if line.startswith("grain,"))
        q_star = float(grain.split(",")[1])
        assert q_star == pytest.approx(1.0, abs=1e-7)
        curve = (out / "meec_grain.csv").read_text().splitlines()
        assert q_star <= float(curve[-1].split(",")[0]) < 2.0 * q_star
        svg = (out / "figure1_grain.svg").read_text()
        ET.fromstring(svg)
        assert "Q* = 1<" in svg

    @pytest.mark.parametrize("command", ["equilibrium", "simulate"])
    def test_overflowing_curve_constant_exits_2(self, tmp_path, command):
        # scale ** (-1/B) = 1e600: the kernel keeps no prefix, and the
        # first marginal the solve asks for raises
        doc = json.loads((SCENARIOS / "reference.json").read_text())
        doc["energy_goods"][0]["technology"]["scale"] = 1e-300
        path = write_scenario(tmp_path, doc)
        proc = run_python(["-m", "egl.cli", command, "--scenario", path,
                           "--out", str(tmp_path / "out")], tmp_path)
        assert proc.returncode == 2
        assert [json.loads(line) for line in proc.stderr.splitlines()] == [
            {"error": "solver", "detail": "degenerate: Cobb-Douglas curve "
                                          "overflows at returns to scale 0.5"}]


def curved_consumer_doc(c1, tau, preferences):
    """``reference.json`` with E* = 50, a large fleet and a steep curved
    cloth profile: the ROADMAP item 13 repros, whose demand solve returns
    a bundle that misses the budget."""
    doc = json.loads((SCENARIOS / "reference.json").read_text())
    doc["energy_goods"][0]["energy_content"] = 14.142135623730951
    doc["prime_movers"][0]["endowment"] = 1e4
    doc["non_energy_goods"][0]["technology"]["curvature"] = {
        "c0": 1, "c1": c1, "tau": tau, "c2": 0.05, "q_s": 4, "rho": 2}
    doc["preferences"] = preferences
    return doc


class TestBudgetCertificate:
    """A bundle that misses its budget fails the solve as ``inaccurate``
    instead of being written."""

    @pytest.mark.parametrize("c1, tau, preferences, spent", [
        (20, 2, {"form": "cobb_douglas"}, "69.508887"),
        (100, 0.5, {"form": "cobb_douglas"}, "58.7709308"),
        (100, 0.5, {"form": "ces", "elasticity": 0.5}, "48.0469738")])
    def test_missed_budget_exits_2(self, tmp_path, capsys, c1, tau,
                                   preferences, spent):
        path = write_scenario(tmp_path,
                              curved_consumer_doc(c1, tau, preferences))
        assert main(["equilibrium", "--scenario", path,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [json.loads(line) for line in err.splitlines()] == [{
            "error": "solver",
            "detail": f"inaccurate: the bundle spends {spent} J of a "
                      "budget of 50 J"}]

    def test_simulate_aborts_its_first_period(self, tmp_path, capsys):
        path = write_scenario(tmp_path, curved_consumer_doc(
            20, 2, {"form": "cobb_douglas"}))
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", path, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "inaccurate" in json.loads(lines[0])[
            "detail"]
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert rows[1:] == [
            "# aborted_period,0",
            "# error,inaccurate: the bundle spends 69.508887 J of a "
            "budget of 50 J"]


class TestColdStart:
    def test_cli_import_skips_heavy_modules(self, tmp_path):
        family = tmp_path / "family.json"
        family.write_text("{}", encoding="utf-8")
        out = tmp_path / "out"
        script = (
            "import json, sys\n"
            "import egl.cli\n"
            "heavy = sorted(m for m in sys.modules\n"
            "               if m.split('.')[0] in ('scipy', 'numpy')\n"
            "               or m == 'xml.sax' or m.startswith('xml.sax.'))\n"
            "print(json.dumps(heavy))\n"
            f"sys.exit(egl.cli.main(['statics', '--family', {str(family)!r},"
            f" '--seed', '1', '--trials', '1', '--out', {str(out)!r}]))\n")
        proc = run_python(["-c", script], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []
        assert "# generator,numpy-PCG64" in (out / "sign_table.csv").read_text()
