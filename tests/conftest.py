import collections
import copy
import json
import os
import sys

import numpy as np
import pytest
from hypothesis import settings

from egl import load_scenario

# Hypothesis profiles; each test keeps its own ``max_examples``.  ``tier1``,
# the default, draws the same examples on every run, so a failure it finds
# repeats; ``wide`` (``HYPOTHESIS_PROFILE=wide``) draws fresh ones each run.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("wide", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))

# Reference scenario: one energy good with energy content 10 and smooth
# technology Q = x**0.5 on a single mover with per-unit transfer 1 (zero
# embodied energy, so omega = eps = 1).  The minimized energy cost is
# C(Q) = Q**2, the marginal curve gamma(Q) = 2Q, and the interior optimum
# sits at gamma = 10, i.e. Q* = 5 with surplus int_0^5 (10 - 2q) dq = 25.
CD1 = {
    "period_length": 1.0,
    "prime_movers": [{
        "id": "m0", "power_rate": 1.0, "depreciation": 0.5,
        "avg_embodied": 0.0, "endowment": 100.0, "max_accum_rate": 0.2,
    }],
    "energy_goods": [{
        "id": "e0", "energy_content": 10.0,
        "technology": {"kind": "cobb_douglas", "scale": 1.0,
                       "exponents": {"m0": 0.5}},
    }],
    "non_energy_goods": [
        {"id": "n0",
         "technology": {"kind": "fixed_proportions",
                        "requirements": {"m0": 1.0},
                        "curvature": {"c0": 1.0}},
         "utility_weight": 0.5},
        {"id": "n1",
         "technology": {"kind": "fixed_proportions",
                        "requirements": {"m0": 1.0},
                        "curvature": {"c0": 1.0}},
         "utility_weight": 0.5},
    ],
    "preferences": {"form": "cobb_douglas"},
    "horizon": 500,
}


def cd1_doc(**overrides) -> dict:
    doc = copy.deepcopy(CD1)
    doc.update(overrides)
    return doc


def cd1_scenario(**overrides):
    return load_scenario(json.dumps(cd1_doc(**overrides)))


def scarce_doc(endowment: float = 1.0) -> dict:
    doc = copy.deepcopy(CD1)
    doc["prime_movers"][0]["endowment"] = endowment
    return doc


def scarce_scenario(endowment: float = 1.0):
    return load_scenario(json.dumps(scarce_doc(endowment)))


@pytest.fixture
def cd1():
    return cd1_scenario()


@pytest.fixture
def cd1_scarce():
    return scarce_scenario()


@pytest.fixture
def root_calls(monkeypatch):
    """Counts ``newton_root`` calls, keyed by the egl module making them
    plus ``":newton"`` (``"egl.surplus:newton"``).

    Every module that binds the root finder is patched, so a solve that
    falls back to a root shows up in the counts, not only in its time, and
    the sum of the counts is every iterative solve.
    """
    calls = collections.Counter()
    for name, module in list(sys.modules.items()):
        if not name.startswith("egl.") or name == "egl.numerics" \
                or not hasattr(module, "newton_root"):
            continue

        def counted(*args, _key=name + ":newton",
                    _root=module.newton_root, **kw):
            calls[_key] += 1
            return _root(*args, **kw)

        monkeypatch.setattr(module, "newton_root", counted)
    return calls


@pytest.fixture
def residual_calls(monkeypatch):
    """Records the share of every usability residual ``E(phi) - U(phi)``
    evaluated, in call order; its length is the work of the phi solves."""
    from egl.surplus import _Problem
    shares: list[float] = []
    residual = _Problem.residual

    def recorded(self, phi):
        shares.append(phi)
        return residual(self, phi)

    monkeypatch.setattr(_Problem, "residual", recorded)
    return shares


def random_energy_doc(rng: np.random.Generator, scarce: bool) -> dict:
    """Random smooth-technology scenario for solver sweeps.

    Movers carry zero embodied energy (per-unit transfer equals direct
    energy), which keeps the per-mover and per-good optimality conditions
    mutually consistent at any scarcity level.  Abundant draws use one to
    three movers and one or two goods; scarce draws use a single mover
    shared by every good, so at the usability fixed point no individual
    endowment is exhausted.
    """
    n_movers = 1 if scarce else int(rng.integers(1, 4))
    omegas = rng.uniform(0.5, 5.0, size=n_movers)
    movers = [{
        "id": f"m{i}", "power_rate": float(w), "depreciation": 0.5,
        "avg_embodied": 0.0, "endowment": 0.0, "max_accum_rate": 0.1,
    } for i, w in enumerate(omegas)]

    n_goods = int(rng.integers(1, 3))
    goods = []
    for j in range(n_goods):
        if n_movers == 1:
            chosen = [0]
        else:
            size = int(rng.integers(1, n_movers + 1))
            chosen = sorted(rng.choice(n_movers, size=size, replace=False))
        betas = rng.uniform(0.05, 1.0, size=len(chosen))
        betas *= rng.uniform(0.3, 0.9) / betas.sum()
        goods.append({
            "id": f"e{j}",
            "energy_content": float(rng.uniform(2.0, 50.0)),
            "technology": {
                "kind": "cobb_douglas",
                "scale": float(rng.uniform(0.5, 2.0)),
                "exponents": {f"m{i}": float(b)
                              for i, b in zip(chosen, betas)}},
        })

    # size endowments from the interior optimum of each good
    from egl.core import PrimeMoverType
    from egl.embodied import curve, solve_power
    mover_objs = {m["id"]: PrimeMoverType(
        id=m["id"], power_rate=m["power_rate"], period_length=1.0,
        depreciation=0.5, avg_embodied=0.0, endowment=0.0,
        max_accum_rate=0.1) for m in movers}
    need = {m["id"]: 0.0 for m in movers}
    for g in goods:
        from egl.core import CobbDouglas
        tech = CobbDouglas(scale=g["technology"]["scale"],
                           exponents=g["technology"]["exponents"])
        delta = g["energy_content"]

        kernel = curve(tech, mover_objs)
        q_star = solve_power(*kernel.power_law(), delta)
        for mid, x in kernel.requirements(q_star).items():
            need[mid] += x

    factor = float(rng.uniform(0.01, 0.3)) if scarce \
        else float(rng.uniform(4.0, 20.0))
    for m in movers:
        m["endowment"] = max(need[m["id"]] * factor, 1e-6)

    return {
        "period_length": 1.0,
        "prime_movers": movers,
        "energy_goods": goods,
        "non_energy_goods": [{
            "id": "n0",
            "technology": {"kind": "fixed_proportions",
                           "requirements": {"m0": 1.0},
                           "curvature": {"c0": 1.0}},
            "utility_weight": 1.0}],
        "preferences": {"form": "cobb_douglas"},
        "horizon": 1,
    }


# one pass/fail line per acceptance criterion, printed after the run
_ACCEPTANCE_LINES: list[str] = []


def record_acceptance(number: int, title: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    _ACCEPTANCE_LINES.append(f"ACCEPTANCE {number:02d} {status} {title}{suffix}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
