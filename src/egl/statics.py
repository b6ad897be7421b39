"""Finite-difference comparative statics and randomized sign sweeps.

Three directional claims are checked numerically over seeded random
scenario families:

  (a) raising a non-energy good's embodied-energy curve lowers its own
      optimal consumption;
  (b) the same shift raises the consumption of every other non-energy good;
  (c) raising an energy good's energy content raises its optimal output.

Claims (a) and (b) need gross substitutes, so the default family draws CES
preferences with elasticity above one; unit elasticity makes the cross
effect in (b) identically zero.  Claim (c) is checked in the interior
regime (abundant prime movers), where the first-order condition governs
output.  Curve shifts are multiplicative, applied through each good's
requirement multiplier so marginal and average curves move consistently.

Each trial parses its draw once.  Each perturbation is one pair of probe
economies, the target raised and lowered, each solved once; every response
is read from that pair.  Claims (a) and (b) share one pair (the shift of
the first good's curve), whose energy side is solved once for both probes
because it reads no non-energy good, and claim (c) has its own pair, so a
trial costs one parse, three energy solves and two demand solves whatever
the number of goods.  A draw's digest is computed only for a failure.

All draws come from a named 64-bit generator, numpy's PCG64 stream: trial
``t`` draws what ``numpy.random.default_rng([seed, t])`` would, from the
pure-Python copy of that stream in ``egl._pcg64``, so egl needs no numpy to
run.  Every trial is reproducible from (seed, trial index) and identified
by its scenario digest.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ._pcg64 import Generator
from .core import (Immutable, _check_keys, _finite_number, initial_state,
                   scenario_digest, scenario_from_dict, with_entry_value)
from .demand import demand_for_state
from .errors import EglError, ScenarioValidationError
from .growth import period_zero
from .surplus import solve_energy_side

if TYPE_CHECKING:
    from collections.abc import Sequence

    from .core import ScenarioConfig

GENERATOR_NAME = "numpy-PCG64"

#: Most non-energy goods a family draw may hold: far above the default
#: range, and within what ``rng.integers`` draws and a trial solves.
_MAX_GOODS = 1000

#: Documented draw ranges for the default random family.
DEFAULT_FAMILY = {
    "energy": {"delta": [2.0, 50.0], "cd_returns": [0.3, 0.9]},
    "movers": {"omega": [0.5, 5.0]},
    "non_energy": {"count": [2, 4], "gamma": [0.5, 5.0]},
    "preferences": {"form": "ces", "sigma": [1.2, 3.0],
                    "weights": [0.2, 5.0]},
}


class SignTable(Immutable):
    """Outcome of one proposition's sweep."""

    _fields = __slots__ = ("proposition", "trials", "confirmations",
                           "failures",      # (trial, digest, derivative)
                           "step", "discarded", "applicable",
                           "min_derivative", "max_derivative", "generator")
    _defaults = {"discarded": 0, "applicable": True,
                 "min_derivative": math.nan, "max_derivative": math.nan,
                 "generator": GENERATOR_NAME}


# ---------------------------------------------------------------------------
# perturbation harness
# ---------------------------------------------------------------------------

def _locate(doc: dict, path: str) -> tuple[str, int, str]:
    """Section, entry index and key for a dotted parameter path.

    Paths look like ``energy_goods.oil.energy_content``; the middle segment
    selects a list entry by id.
    """
    parts = path.split(".")
    if len(parts) != 3 or parts[0] not in ("energy_goods",
                                           "non_energy_goods",
                                           "prime_movers"):
        raise ValueError(f"unsupported parameter path {path!r}")
    section, ident, fieldname = parts
    for index, entry in enumerate(doc[section]):
        if entry.get("id") == ident:
            return section, index, fieldname
    raise ValueError(f"no {section} entry with id {ident!r}")


#: Each response head: the section whose good ids its keys name (None: a
#: scalar) and whether it reads the consumer's solution rather than the
#: energy side's.
_RESPONSE_HEADS = {"Q_e": ("energy_goods", False),
                   "alpha": ("energy_goods", False),
                   "phi": (None, False), "E_star": (None, False),
                   "Q_n": ("non_energy_goods", True), "lambda": (None, True)}


def _check_responses(scenario: ScenarioConfig,
                     responses: Sequence[str]) -> None:
    """Raise ValueError unless every response path reads a solution value:
    a known head, a key naming a good active in the period-0 economy where
    the head takes one, and no key where it does not."""
    state = initial_state(scenario)
    for response in responses:
        head, dot, key = response.partition(".")
        if head not in _RESPONSE_HEADS:
            raise ValueError(f"unsupported response path {response!r}")
        section = _RESPONSE_HEADS[head][0]
        if section is None:
            if dot:
                raise ValueError(
                    f"response {head!r} takes no key: {response!r}")
        elif key not in getattr(state, section):
            raise ValueError(f"response path {response!r}: no active "
                             f"{section} entry with id {key!r}")


def _read(paths: list[tuple[str, str, str]], energy, demand) -> list[float]:
    """Every response of one probe from its energy and demand solutions."""
    values = []
    for head, _, rest in paths:
        if head == "Q_e":
            values.append(energy.outputs[rest])
        elif head == "alpha":
            values.append(energy.marginal_surplus[rest])
        elif head == "phi":
            values.append(energy.phi)
        elif head == "E_star":
            values.append(energy.usable_surplus)
        elif head == "Q_n":
            values.append(demand.bundle[rest])
        else:                               # lambda
            if demand.lam is None:
                raise EglError("marginal utility undefined at zero surplus")
            values.append(demand.lam)
    return values


def perturb_and_sign(doc: dict, target: str, responses: Sequence[str],
                     step: float = 1e-3) -> list[float]:
    """Central-difference derivatives of ``responses`` along ``target``.

    The document is parsed once, and each of its two probe economies
    (target raised and lowered by ``step``) gets its own period-0 state
    and, if a ``Q_n``/``lambda`` response asks for it, its own demand
    solve; every response is read from that one pair.  The energy side
    reads no non-energy good, so a ``non_energy_goods`` target leaves it
    unchanged and both probes share one energy solve; any other target
    solves it once per probe.  The derivatives come back in the order of
    ``responses``.  ``step`` is relative to the target's base value, which
    must be a finite nonzero number.  Every response path is checked
    against the parsed period-0 economy before either probe is solved.
    """
    return _perturb(doc, target, responses, step)


def _perturb(doc: dict, target: str, responses: Sequence[str], step: float,
             scenario: ScenarioConfig | None = None) -> list[float]:
    """``perturb_and_sign``; ``scenario``, if given, is ``doc`` parsed,
    and otherwise ``doc`` is parsed after the checks that need no parse."""
    if step == 0.0:
        raise ValueError("degenerate step")
    if isinstance(responses, str):
        raise ValueError("responses must be a sequence of paths, "
                         f"not the string {responses!r}")
    section, index, key = _locate(doc, target)
    base = doc[section][index].get(
        key, 1.0 if key == "requirement_multiplier" else None)
    if base is None:
        raise ValueError(f"target {target!r} has no base value")
    if not _finite_number(base):
        raise ValueError(f"target {target!r} is not a finite number")
    if base == 0.0:
        raise ValueError(f"target {target!r} is zero; relative step degenerate")

    if scenario is None:
        scenario = scenario_from_dict(doc)
    _check_responses(scenario, responses)
    paths = [response.partition(".") for response in responses]
    needs_demand = any(_RESPONSE_HEADS[head][1] for head, _, _ in paths)
    energy = demand = None
    probes = []
    # each probe's entry is parsed before any of that probe's solves, so a
    # probe fails with the same error, in the same order, as a full solve
    for sign in (+1.0, -1.0):
        probe = with_entry_value(scenario, doc, section, index, key,
                                 base * (1.0 + sign * step))
        state = period_zero(probe)
        if energy is None or section != "non_energy_goods":
            energy = solve_energy_side(probe, state)
        if needs_demand:
            demand = demand_for_state(probe, state, energy.usable_surplus,
                                      energy.employment)
        probes.append(_read(paths, energy, demand))
    up, down = probes
    return [(hi - lo) / (2.0 * step * base) for hi, lo in zip(up, down)]


# ---------------------------------------------------------------------------
# random scenario family
# ---------------------------------------------------------------------------

def _uniform(rng: Generator, bounds) -> float:
    return float(rng.uniform(bounds[0], bounds[1]))


def draw_scenario(rng: Generator, family: dict | None = None) -> dict:
    """One random scenario document from the (documented) family ranges.

    Single smooth energy good, single mover with zero net depreciation
    effect (per-unit transfer equals direct energy), abundant endowment so
    the interior first-order condition is the binding margin, and
    constant-curve non-energy goods under CES preferences.
    """
    fam = _merge(DEFAULT_FAMILY, family or {})
    delta = _uniform(rng, fam["energy"]["delta"])
    b = _uniform(rng, fam["energy"]["cd_returns"])
    omega = _uniform(rng, fam["movers"]["omega"])

    # interior output for C(Q) = omega * Q ** (1/b): gamma = delta there;
    # past the float range the endowment below is not finite, so the draw
    # fails to parse and its trial is discarded
    try:
        q_star = (delta * b / omega) ** (b / (1.0 - b))
        cost = omega * q_star ** (1.0 / b)
    except OverflowError:
        q_star = cost = math.inf
    employment = cost / omega
    surplus = delta * q_star - cost

    lo, hi = fam["non_energy"]["count"]
    n_goods = int(rng.integers(lo, hi + 1))
    gammas = [_uniform(rng, fam["non_energy"]["gamma"])
              for _ in range(n_goods)]
    weights = [_uniform(rng, fam["preferences"]["weights"])
               for _ in range(n_goods)]

    # endowment covering energy production plus the support fleet, with slack
    endowment = 10.0 * (employment + surplus / omega) + 1.0

    non_energy = []
    for i, (gam, w) in enumerate(zip(gammas, weights)):
        non_energy.append({
            "id": f"n{i}",
            "technology": {"kind": "fixed_proportions",
                           "requirements": {"m0": 1.0},
                           "curvature": {"c0": gam / omega}},
            "utility_weight": w,
        })

    prefs: dict = {"form": fam["preferences"]["form"]}
    if prefs["form"] == "ces":
        prefs["elasticity"] = _uniform(rng, fam["preferences"]["sigma"])

    return {
        "period_length": 1.0,
        "prime_movers": [{
            "id": "m0", "power_rate": omega, "depreciation": 0.5,
            "avg_embodied": 0.0, "endowment": endowment,
            "max_accum_rate": 0.1,
        }],
        "energy_goods": [{
            "id": "e0", "energy_content": delta,
            "technology": {"kind": "cobb_douglas", "scale": 1.0,
                           "exponents": {"m0": b}},
        }],
        "non_energy_goods": non_energy,
        "preferences": prefs,
        "horizon": 1,
    }


def _check_family(family) -> None:
    """Raise ScenarioValidationError at ``$.family.<section>.<key>`` unless
    ``family`` overrides only ``DEFAULT_FAMILY``'s entries, each with a
    value the draws can use: a range is two finite numbers with lo <= hi,
    above zero, with ``cd_returns`` inside (0, 1) and ``count`` integers
    from 1 to ``_MAX_GOODS``; ``form`` is ``ces`` or ``cobb_douglas``."""
    _check_keys(family, set(DEFAULT_FAMILY), "$.family")
    for section, ranges in family.items():
        path = f"$.family.{section}"
        _check_keys(ranges, set(DEFAULT_FAMILY[section]), path)
        for key, value in ranges.items():
            message = _range_error(key, value)
            if message:
                raise ScenarioValidationError(f"{path}.{key}", message)


def _range_error(key: str, value) -> str | None:
    """Why ``value`` cannot be the family entry ``key``, or None."""
    if key == "form":
        return (None if value in ("ces", "cobb_douglas")
                else "must be 'ces' or 'cobb_douglas'")
    kinds = int if key == "count" else (int, float)
    if not (isinstance(value, list) and len(value) == 2
            and all(isinstance(v, kinds) and _finite_number(v)
                    for v in value)):
        return ("must be [lo, hi] of two integers" if key == "count"
                else "must be [lo, hi] of two finite numbers")
    lo, hi = value
    if lo > hi:
        return "lo must not exceed hi"
    if key == "count":
        if hi > _MAX_GOODS:
            return f"must be at most {_MAX_GOODS}"
        return None if lo >= 1 else "must be at least 1"
    if key == "cd_returns" and not (lo > 0.0 and hi < 1.0):
        return "must lie inside (0, 1)"
    return None if lo > 0.0 else "must be above zero"


def _merge(base: dict, override: dict) -> dict:
    out = {}
    for key, value in base.items():
        if isinstance(value, dict):
            out[key] = _merge(value, override.get(key, {}))
        else:
            out[key] = override.get(key, value)
    for key in override:
        if key not in base:
            out[key] = override[key]
    return out


# ---------------------------------------------------------------------------
# proposition sweeps
# ---------------------------------------------------------------------------

def proposition_suite(seed: int, trials: int, family: dict | None = None,
                      step: float = 1e-3) -> dict[str, SignTable]:
    """Randomized strict-sign checks of claims (a), (b), (c).

    ``family`` overrides entries of ``DEFAULT_FAMILY`` and is checked once,
    before any draw.  Trial ``t`` draws numpy's ``default_rng([seed, t])``
    stream, which a negative ``seed`` cannot seed (ValueError), and
    parses the draw once; both of its perturbations run on that parse, as
    in ``perturb_and_sign``.  A draw that fails to parse is discarded from
    every claim, and a perturbation that fails to solve from the claims it
    serves.  A failure records the trial, the digest of its draw and the
    first derivative of the wrong sign.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if family is not None:
        _check_family(family)

    results = {key: {"confirm": 0, "failures": [], "derivs": [],
                     "discard": 0, "applicable": True, "count": 0}
               for key in ("a", "b", "c")}

    for trial in range(trials):
        doc = draw_scenario(Generator([seed, trial]), family)
        non_energy_ids = [g["id"] for g in doc["non_energy_goods"]]
        try:
            scenario = scenario_from_dict(doc)
        except EglError:
            # every claim reads this draw, so each one discards it
            shifted = content = None
        else:
            # (a) and (b) read one shift of the first good's curve: its
            # own consumption first, then every other good's
            shifted = _derivatives(
                scenario, doc,
                f"non_energy_goods.{non_energy_ids[0]}.requirement_multiplier",
                [f"Q_n.{gid}" for gid in non_energy_ids], step)
            content = _derivatives(scenario, doc,
                                   "energy_goods.e0.energy_content",
                                   ["Q_e.e0"], step)
        _record(results["a"], trial, doc,
                None if shifted is None else shifted[:1], -1.0)
        if len(non_energy_ids) < 2:
            results["b"]["applicable"] = False
        else:
            _record(results["b"], trial, doc,
                    None if shifted is None else shifted[1:], +1.0)
        _record(results["c"], trial, doc, content, +1.0)

    tables = {}
    for key, res in results.items():
        derivs = res["derivs"]
        tables[key] = SignTable(
            proposition=key,
            trials=res["count"],
            confirmations=res["confirm"],
            failures=tuple(sorted(res["failures"])),
            step=step,
            discarded=res["discard"],
            applicable=res["applicable"],
            min_derivative=min(derivs) if derivs else float("nan"),
            max_derivative=max(derivs) if derivs else float("nan"),
        )
    return tables


def _derivatives(scenario: ScenarioConfig, doc: dict, target: str,
                 responses: list[str], step: float) -> list[float] | None:
    """``perturb_and_sign`` on the parsed ``doc``, or None if either probe
    fails to solve."""
    try:
        return _perturb(doc, target, responses, step, scenario)
    except EglError:
        return None


def _record(res: dict, trial: int, doc: dict,
            derivs: list[float] | None, want: float):
    """One proposition on one scenario: every derivative must carry the
    sign of ``want``; None discards the trial.  A failure is identified by
    the digest of its draw, which only a failure computes."""
    if derivs is None:
        res["discard"] += 1
        return
    res["count"] += 1
    res["derivs"].extend(derivs)
    offender = next((d for d in derivs if not d * want > 0.0), None)
    if offender is None:
        res["confirm"] += 1
    else:
        res["failures"].append((trial, scenario_digest(doc), offender))

