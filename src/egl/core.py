"""Domain types, derived per-unit energy quantities, and scenario loading.

The model describes a self-sufficient agent whose production is carried out
by *prime movers* (workers, engines, ...) transferring energy into *goods*.
Energy goods carry usable energy content per unit; non-energy goods yield
utility.  Everything downstream (surplus maximization, consumer demands,
accumulation dynamics) operates on the immutable value objects defined here.

All types are ``Immutable`` records and safe to share across threads once
constructed; construction and validation are single-threaded per scenario.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
from functools import partial
from typing import TYPE_CHECKING

from .errors import (ScenarioParseError, ScenarioValidationError,
                     SolverError)
from .numerics import grow_bracket, newton_root

if TYPE_CHECKING:
    from logging import Logger

EVENT_KINDS = ("efficiency_shift", "meec_shift", "new_prime_mover",
               "new_energy_good", "endowment_shock")
ARRIVAL_KINDS = ("new_prime_mover", "new_energy_good")


def logger(name: str) -> Logger | None:
    """The logger ``name`` if the process has loaded ``logging``, else None.

    egl emits only INFO and DEBUG records.  Until something loads
    ``logging`` (``egl.cli`` does when EGL_LOG is info or debug), no
    handler exists and the root logger's WARNING level drops them, so
    skipping them changes nothing a user can see, and no command imports
    ``logging`` for records no one reads.
    """
    logging = sys.modules.get("logging")
    return None if logging is None else logging.getLogger(name)


# ---------------------------------------------------------------------------
# value objects
# ---------------------------------------------------------------------------

#: Sets a slot of an ``Immutable``, which only the type's own code does.
_set = object.__setattr__


class Immutable:
    """Base of the model types: a slotted record no one can assign to.

    A type declares its fields once: ``_fields`` names the constructor's
    parameters in order, and ``_defaults`` maps the last of them, in order,
    to their defaults.  The class compiles its ``__init__`` from the two,
    as ``collections.namedtuple`` does, and that ``__init__`` ends by
    calling ``self._derive()`` when the type defines it.  Records of one
    type with equal fields are equal, and nothing else equals them;
    ``_replace(**changes)`` builds a changed copy.  A field read is a plain
    slot read, which the solvers' inner loops need.  The records a solve
    builds on every call stay ``NamedTuple``s, which build faster.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls):
        fields, defaults, name = cls._fields, cls._defaults, cls.__qualname__
        tail = fields[-len(defaults):] if defaults else ()
        if tuple(defaults) != tail:
            raise TypeError(f"{name}._defaults names {tuple(defaults)}, not "
                            f"the last fields in order, {tail}")
        body = "".join(f" _set(self, {f!r}, {f})\n" for f in fields)
        if hasattr(cls, "_derive"):
            body += " self._derive()\n"
        namespace = {"_set": _set, "__name__": cls.__module__}
        exec(compile(f"def __init__(self, {', '.join(fields)}):\n{body}",
                     f"<{name}.__init__>", "exec"), namespace)
        cls.__init__ = init = namespace["__init__"]
        init.__qualname__ = f"{name}.__init__"
        init.__defaults__ = tuple(defaults.values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def _replace(self, **changes):
        return self.__class__(**dict(zip(self._fields, self._values()),
                                     **changes))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__slots__
                          if not name.startswith("_"))
        return f"{self.__class__.__name__}({shown})"


class PrimeMoverType(Immutable):
    """A class of energy-transferring device or worker.

    ``direct_energy`` is the energy one unit transfers per period at its
    constant power rate; ``total_transfer`` adds the embodied energy amortized
    through depreciation.  Both are derived at construction and never drift
    from the source fields.
    """

    _fields = ("id", "power_rate",      # watts
               "period_length",         # seconds, global
               "depreciation",          # in (0, 1)
               "avg_embodied",          # joules per unit
               "endowment",             # units at the start
               "max_accum_rate",        # per period
               "intro_period")
    _defaults = {"intro_period": 0}
    __slots__ = _fields + ("direct_energy", "total_transfer")

    def _derive(self) -> None:
        energy = direct_energy(self.power_rate, self.period_length)
        _set(self, "direct_energy", energy)             # J / unit / period
        _set(self, "total_transfer",
             energy + self.depreciation * self.avg_embodied)


class CobbDouglas(Immutable):
    """Smooth technology Q = scale * prod(x_l ** beta_l), sum(beta) in (0,1)."""

    _fields = __slots__ = ("scale", "exponents")
    kind = "cobb_douglas"

    @property
    def returns_to_scale(self) -> float:
        return sum(self.exponents.values())

    def used_movers(self) -> list[str]:
        return [m for m, b in self.exponents.items() if b > 0.0]


class FixedProportions(Immutable):
    """Fixed-proportions technology with a curved marginal requirement.

    Producing the Q-th unit takes ``nu_l * h'(Q)`` units of each mover, with

        h'(Q) = c0 + c1 * exp(-Q / tau) + c2 * (Q / q_s) ** rho

    The decay term allows an initially falling requirement (scale economies);
    the power term forces the curve eventually upward (inconvenient sources).
    """

    _fields = ("requirements", "c0", "c1", "tau", "c2", "q_s", "rho")
    _defaults = {"c1": 0.0, "tau": 1.0, "c2": 0.0, "q_s": 1.0, "rho": 1.0}
    __slots__ = _fields + ("_dip", "_tangency")
    kind = "fixed_proportions"

    def _derive(self) -> None:
        _set(self, "_dip", None)            # found on the first read
        _set(self, "_tangency", None)

    def used_movers(self) -> list[str]:
        return [m for m, nu in self.requirements.items() if nu > 0.0]

    def _power(self, q: float, exponent: float) -> float:
        """(q / q_s) ** exponent, inf at q = 0 for a negative exponent;
        ``SolverError("degenerate")`` once it leaves the float range."""
        try:
            return (q / self.q_s) ** exponent
        except OverflowError:
            raise SolverError("degenerate", "requirement profile overflows "
                              f"at output {q:g}") from None
        except ZeroDivisionError:
            return math.inf

    def marginal_profile(self, q: float) -> float:
        """h'(q), strictly positive for q >= 0."""
        out = self.c0
        if self.c1 > 0.0:
            out += self.c1 * math.exp(-q / self.tau)
        if self.c2 > 0.0:
            out += self.c2 * self._power(q, self.rho)
        return out

    def cumulative_profile(self, q: float) -> float:
        """h(q) = integral of h' from 0 to q, in closed form."""
        out = self.c0 * q
        if self.c1 > 0.0:
            out -= self.c1 * self.tau * math.expm1(-q / self.tau)
        if self.c2 > 0.0:
            out += self.c2 * self.q_s / (self.rho + 1.0) \
                * self._power(q, self.rho + 1.0)
        return out

    def curvature_profile(self, q: float) -> float:
        """h''(q), the slope of h'."""
        out = 0.0
        if self.c1 > 0.0:
            out -= (self.c1 / self.tau) * math.exp(-q / self.tau)
        if self.c2 > 0.0:
            out += (self.c2 * self.rho / self.q_s) \
                * self._power(q, self.rho - 1.0)
        return out

    # The profile's geometry depends on the curvature alone, so each
    # technology finds it once, whatever multiplier a period applies.

    @property
    def dip(self) -> float:
        """Location of the minimum of h' (h'' = 0); inf if h' only falls."""
        if self._dip is None:
            _set(self, "_dip", self._find_dip())
        return self._dip

    @property
    def tangency(self) -> float:
        """q_T >= dip with h(q_T) = q_T * h'(q_T), where the average h(q)/q
        is least; 0 without a dip and inf when h' only falls."""
        if self._tangency is None:
            _set(self, "_tangency", self._find_tangency())
        return self._tangency

    def _find_dip(self) -> float:
        if self.c1 <= 0.0:
            return 0.0                      # h' non-decreasing
        if self.c2 <= 0.0:
            return math.inf                 # h' non-increasing
        curvature = self.curvature_profile
        if curvature(0.0) >= 0.0:
            return 0.0
        hi = max(self.tau, self.q_s)
        if self.rho > 1.0:
            # h'' >= 0 at q0, where its power term reaches c1 / tau; for rho
            # just above 1, q0 is tiny, and the dip below it can underflow;
            # q0 = inf when the base overflows or its denominator
            # underflows to 0 (a subnormal tau), and hi stays
            with contextlib.suppress(OverflowError, ZeroDivisionError):
                base = self.c1 * self.q_s / (self.tau * self.c2 * self.rho)
                hi = min(hi, self.q_s * base ** (1 / (self.rho - 1)))
            if hi == 0.0:
                return 0.0
        # the bracket starts at tau at most, so a dip far below q_s (near
        # 1e-297 at tau = 1e-300) is a few doublings away, not 1,000
        # halvings past the root finder's iteration cap
        hi = grow_bracket(curvature, min(hi, self.tau))
        return newton_root(lambda q: (curvature(q), None), 0.0, hi, 0.0,
                           rtol=1e-12)

    def _find_tangency(self) -> float:
        # q * h' - h has derivative q * h'', so it falls from 0 until the
        # dip and rises after it: one root past the dip
        dip = self.dip
        if dip == 0.0 or math.isinf(dip):
            return dip

        def excess(q: float) -> float:
            return q * self.marginal_profile(q) - self.cumulative_profile(q)

        if excess(dip) >= 0.0:
            return dip
        hi = grow_bracket(excess, 2.0 * dip)
        return newton_root(lambda q: (excess(q), None), dip, hi, dip,
                           rtol=1e-12)


Technology = CobbDouglas | FixedProportions


class EnergyGood(Immutable):
    """A good consumed for its energy content (joules per unit)."""

    _fields = __slots__ = ("id", "energy_content", "technology",
                           "pes_stock",     # None: unbounded (renewable)
                           "depletion_exponent", "requirement_multiplier",
                           "intro_period")
    _defaults = {"pes_stock": None, "depletion_exponent": 0.0,
                 "requirement_multiplier": 1.0, "intro_period": 0}


class NonEnergyGood(Immutable):
    """A utility-yielding good; its energy role is purely as a cost."""

    _fields = __slots__ = ("id", "technology", "utility_weight",
                           "requirement_multiplier", "intro_period")
    _defaults = {"requirement_multiplier": 1.0, "intro_period": 0}


class Preferences(Immutable):
    """Cobb-Douglas or CES utility over non-energy goods."""

    _fields = __slots__ = ("form",          # "cobb_douglas" | "ces"
                           "weights",
                           "elasticity")    # CES sigma, > 0 and != 1
    _defaults = {"elasticity": None}


class EventSpec(Immutable):
    """A scheduled shock; exactly the payload fields for its kind are set.

    ``efficiency_shift`` and ``meec_shift`` set ``good`` and ``multiplier``;
    ``endowment_shock`` sets ``mover`` and ``delta``.  Arrival events
    (``new_prime_mover``, ``new_energy_good``) never become an EventSpec: the
    parser appends their type to the scenario with ``intro_period`` set to
    the event period.
    """

    _fields = __slots__ = ("period", "kind", "good", "mover", "multiplier",
                           "delta")
    _defaults = {"good": None, "mover": None, "multiplier": None,
                 "delta": None}


#: Solver tolerances, written to each run's manifest.
PHI_TOL = 1e-10         # relative tolerance of the phi root
Q_RTOL = 1e-10          # relative bracket width for output roots
SLACK_TOL = 1e-8        # |E - U|, relative to max(1, E - U at phi = 0),
                        # and the budget residual, relative to max(1, E)
SS_ACCUM_TOL = 1e-8     # steady state: accumulation, relative to stock
SS_ALPHA_TOL = 1e-6     # steady state: marginal surplus, relative to delta


class ScenarioConfig(Immutable):
    """Validated scenario: types, preferences, events, forced share.

    Types brought in by arrival events are in the type tuples, after the
    listed ones, with ``intro_period`` set; ``events`` holds the shocks.
    ``force_phi`` (``solver.force_phi`` in the document) pins the
    useless-surplus share instead of solving for it, a diagnostic.
    """

    _fields = __slots__ = ("period_length", "prime_movers", "energy_goods",
                           "non_energy_goods", "preferences", "events",
                           "force_phi", "horizon")
    _defaults = {"events": (), "force_phi": None, "horizon": 500}


class EconomyState(Immutable):
    """Dynamic view of the economy at one period.

    Holds the active type sets (per introduction period and events), current
    prime-mover stocks, cumulative extraction per energy good, and the
    event-composed requirement multipliers keyed by good id.
    """

    _fields = __slots__ = ("period", "movers", "energy_goods",
                           "non_energy_goods", "stocks", "cum_extraction",
                           "multipliers")


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------

def direct_energy(power_rate: float, period_length: float) -> float:
    """Energy transferred over one period at a constant power rate."""
    if power_rate <= 0.0 or period_length <= 0.0:
        raise ValueError("power rate and period length must be positive")
    return power_rate * period_length


def aggregate_power(state: EconomyState) -> float:
    """Total power of the active fleet, sum of power_rate * stock."""
    return sum(m.power_rate * state.stocks.get(m.id, 0.0)
               for m in state.movers.values())


def employment_totals(employment: dict[str, dict[str, float]]
                      ) -> dict[str, float]:
    """Units of each mover employed, summed over the goods employing it."""
    totals: dict[str, float] = {}
    for reqs in employment.values():
        for mid, x in reqs.items():
            totals[mid] = totals.get(mid, 0.0) + x
    return totals


def effective_multiplier(good: EnergyGood | NonEnergyGood,
                         state: EconomyState) -> float:
    """Composed requirement multiplier: static * events * depletion, where
    depleting a bounded primary source multiplies by
    (1 + cumulative extraction / stock) ** depletion_exponent."""
    m = good.requirement_multiplier * state.multipliers.get(good.id, 1.0)
    if isinstance(good, EnergyGood) and good.pes_stock is not None \
            and good.depletion_exponent != 0.0:
        drawn = state.cum_extraction.get(good.id, 0.0) / good.pes_stock
        try:
            m *= (1.0 + drawn) ** good.depletion_exponent
        except OverflowError:
            raise SolverError("degenerate", f"depletion multiplier of "
                              f"{good.id!r} overflows") from None
    return m


#: The economy before any type arrives, from which ``initial_state``
#: activates period 0; ``activate_due`` never changes a state it is given.
_EMPTY = EconomyState(period=0, movers={}, energy_goods={},
                      non_energy_goods={}, stocks={}, cum_extraction={},
                      multipliers={})


def initial_state(scenario: ScenarioConfig) -> EconomyState:
    """Economy at period 0: the types introduced at period 0 activated in
    the empty economy, at their endowment stocks."""
    return activate_due(scenario, _EMPTY, 0)


def activate_due(scenario: ScenarioConfig, state: EconomyState,
                 t: int) -> EconomyState:
    """Activate scenario types whose introduction period is ``t``; the
    state itself when none arrives and it is already at period ``t``."""
    new_movers = [m for m in scenario.prime_movers
                  if m.intro_period == t and m.id not in state.movers]
    new_e_goods = [g for g in scenario.energy_goods
                   if g.intro_period == t and g.id not in state.energy_goods]
    new_n_goods = [g for g in scenario.non_energy_goods
                   if g.intro_period == t
                   and g.id not in state.non_energy_goods]
    if not (new_movers or new_e_goods or new_n_goods) and state.period == t:
        return state
    movers = dict(state.movers)
    stocks = dict(state.stocks)
    e_goods = dict(state.energy_goods)
    n_goods = dict(state.non_energy_goods)
    cum = dict(state.cum_extraction)
    for m in new_movers:
        movers[m.id] = m
        stocks[m.id] = m.endowment
    for g in new_e_goods:
        e_goods[g.id] = g
        cum[g.id] = 0.0
    for g in new_n_goods:
        n_goods[g.id] = g
    return EconomyState(period=t, movers=movers, energy_goods=e_goods,
                        non_energy_goods=n_goods, stocks=stocks,
                        cum_extraction=cum,
                        multipliers=dict(state.multipliers))


# ---------------------------------------------------------------------------
# scenario document parsing / validation
# ---------------------------------------------------------------------------

def _fail(field_path: str, message: str):
    raise ScenarioValidationError(field_path, message)


def _finite_number(v) -> bool:
    """Whether a JSON value is a number (not a bool) in the float range.

    ``abs(v) <= max`` also rejects NaN and the infinities, and compares an
    integer of any size without converting it to a float.
    """
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _num(doc: dict, key: str, path: str, *, default=None,
         positive: bool = False, least: float | None = None) -> float:
    """The finite number at ``doc[key]``, or ``default`` when the key is
    absent (required when there is no default).  ``positive`` rejects a
    value <= 0 and ``least`` a value below it."""
    if key not in doc:
        if default is None:
            _fail(f"{path}.{key}", "missing required field")
        return default
    v = doc[key]
    if not _finite_number(v):
        _fail(f"{path}.{key}", "must be a finite number")
    if positive and v <= 0.0:
        _fail(f"{path}.{key}", "must be positive")
    if least is not None and v < least:
        _fail(f"{path}.{key}", f"must be >= {least:g}")
    return float(v)


def _intval(doc: dict, key: str, path: str, default: int = 0) -> int:
    """The integer at ``doc[key]``; every integer of a document is >= 0."""
    v = doc.get(key, default)
    if not isinstance(v, int) or isinstance(v, bool):
        _fail(f"{path}.{key}", "must be an integer")
    if v < 0:
        _fail(f"{path}.{key}", "must be >= 0")
    return v


def _check_keys(doc, allowed: set[str], path: str):
    """Reject a document that is not an object or has unknown keys."""
    if not isinstance(doc, dict):
        _fail(path, "must be an object")
    extra = set(doc) - allowed
    if extra:
        _fail(f"{path}.{sorted(extra)[0]}", "unknown field")


def _entry_id(doc, allowed: set[str], path: str) -> str:
    """A type entry's non-empty id, once its keys are ``allowed``."""
    _check_keys(doc, allowed, path)
    ident = doc.get("id")
    if not isinstance(ident, str) or not ident:
        _fail(f"{path}.id", "must be a non-empty string")
    try:        # an id names output files and columns, written as UTF-8
        ident.encode("utf-8")
    except UnicodeEncodeError:
        _fail(f"{path}.id", "must not hold a lone surrogate")
    return ident


def _entries(doc: dict, key: str, parse) -> tuple:
    """The entries of the non-empty type array ``doc[key]``, each parsed by
    ``parse(entry, path)``."""
    raw = doc.get(key)
    if not isinstance(raw, list) or not raw:
        _fail(f"$.{key}", "must be a non-empty array")
    return tuple(parse(entry, f"$.{key}[{i}]") for i, entry in enumerate(raw))


def _mover_weights(doc: dict, key: str, path: str) -> dict[str, float]:
    """A technology's non-empty map of mover id to a finite number >= 0."""
    raw = doc.get(key)
    if not isinstance(raw, dict) or not raw:
        _fail(f"{path}.{key}", "must be a non-empty object")
    out = {}
    for mover, v in raw.items():
        if not _finite_number(v) or v < 0.0:
            _fail(f"{path}.{key}.{mover}", "must be a finite number >= 0")
        out[str(mover)] = float(v)
    return out


def _parse_technology(doc, path: str) -> Technology:
    if not isinstance(doc, dict):
        _fail(path, "technology must be an object")
    kind = doc.get("kind")
    if kind == "cobb_douglas":
        _check_keys(doc, {"kind", "scale", "exponents"}, path)
        scale = _num(doc, "scale", path, positive=True)
        out = _mover_weights(doc, "exponents", path)
        total = sum(out.values())
        if total <= 0.0:
            _fail(f"{path}.exponents", "at least one exponent must be > 0")
        if total >= 1.0:
            _fail(f"{path}.exponents",
                  f"returns to scale must be < 1 (got {total:g})")
        return CobbDouglas(scale=scale, exponents=out)
    if kind == "fixed_proportions":
        _check_keys(doc, {"kind", "requirements", "curvature"}, path)
        out = _mover_weights(doc, "requirements", path)
        if not any(v > 0.0 for v in out.values()):
            _fail(f"{path}.requirements", "at least one coefficient must be > 0")
        curv = doc.get("curvature", {})
        cpath = f"{path}.curvature"
        _check_keys(curv, {"c0", "c1", "tau", "c2", "q_s", "rho"}, cpath)
        tech = FixedProportions(
            requirements=out, c0=_num(curv, "c0", cpath, positive=True),
            c1=_num(curv, "c1", cpath, default=0.0, least=0.0),
            tau=_num(curv, "tau", cpath, default=1.0, positive=True),
            c2=_num(curv, "c2", cpath, default=0.0, least=0.0),
            q_s=_num(curv, "q_s", cpath, default=1.0, positive=True),
            rho=_num(curv, "rho", cpath, default=1.0, least=1.0))
        # past an infinite slope c1 / tau, h'' is inf * 0 at every q > 0
        if tech.c1 > 0.0 and math.isinf(tech.c1 / tech.tau):
            _fail(f"{cpath}.tau", f"decay slope c1 / tau = {tech.c1:g} / "
                  f"{tech.tau:g} overflows")
        return tech
    _fail(f"{path}.kind",
          "must be 'cobb_douglas' or 'fixed_proportions'")


def _parse_mover(doc, path: str, period_length: float) -> PrimeMoverType:
    mid = _entry_id(doc, {"id", "power_rate", "depreciation",
                          "avg_embodied", "endowment", "max_accum_rate",
                          "intro_period"}, path)
    p = _num(doc, "power_rate", path, positive=True)
    d = _num(doc, "depreciation", path)
    if not 0.0 < d < 1.0:
        _fail(f"{path}.depreciation", f"must be in (0,1) (got {d:g})")
    mover = PrimeMoverType(
        id=mid, power_rate=p, period_length=period_length, depreciation=d,
        avg_embodied=_num(doc, "avg_embodied", path, least=0.0),
        endowment=_num(doc, "endowment", path, least=0.0),
        max_accum_rate=_num(doc, "max_accum_rate", path, default=0.0,
                            least=0.0),
        intro_period=_intval(doc, "intro_period", path))
    # every curve divides by a unit's transfer, which a subnormal
    # power_rate * period_length with no embodied energy rounds to 0
    if mover.total_transfer == 0.0:
        _fail(f"{path}.power_rate",
              f"a unit transfers no energy: power_rate * period_length = "
              f"{p:g} * {period_length:g} underflows to 0")
    return mover


def _parse_energy_good(doc, path: str) -> EnergyGood:
    gid = _entry_id(doc, {"id", "energy_content", "technology",
                          "pes_stock", "depletion_exponent",
                          "requirement_multiplier", "intro_period"}, path)
    delta = _num(doc, "energy_content", path, positive=True)
    pes = doc.get("pes_stock")
    if pes is not None:
        pes = _num(doc, "pes_stock", path)
        if pes <= 0.0:
            _fail(f"{path}.pes_stock", "must be positive or null")
    theta = _num(doc, "depletion_exponent", path, default=0.0, least=0.0)
    if pes is None and theta != 0.0:
        _fail(f"{path}.depletion_exponent",
              "must be 0 when pes_stock is unbounded")
    return EnergyGood(
        id=gid, energy_content=delta, pes_stock=pes, depletion_exponent=theta,
        requirement_multiplier=_num(doc, "requirement_multiplier", path,
                                    default=1.0, positive=True),
        intro_period=_intval(doc, "intro_period", path),
        technology=_parse_technology(doc.get("technology"),
                                     f"{path}.technology"))


def _parse_non_energy_good(doc, path: str) -> NonEnergyGood:
    gid = _entry_id(doc, {"id", "technology", "utility_weight",
                          "requirement_multiplier", "intro_period"}, path)
    return NonEnergyGood(
        id=gid,
        utility_weight=_num(doc, "utility_weight", path, positive=True),
        requirement_multiplier=_num(doc, "requirement_multiplier", path,
                                    default=1.0, positive=True),
        intro_period=_intval(doc, "intro_period", path),
        technology=_parse_technology(doc.get("technology"),
                                     f"{path}.technology"))


def _parse_preferences(doc, path: str,
                       goods: tuple[NonEnergyGood, ...]) -> Preferences:
    _check_keys(doc, {"form", "weights", "elasticity"}, path)
    form = doc.get("form", "cobb_douglas")
    if form not in ("cobb_douglas", "ces"):
        _fail(f"{path}.form", "must be 'cobb_douglas' or 'ces'")
    weights = {g.id: g.utility_weight for g in goods}
    if "weights" in doc:
        given = doc["weights"]
        if not isinstance(given, dict):
            _fail(f"{path}.weights", "must be an object")
        for gid, w in given.items():
            if gid not in weights:
                _fail(f"{path}.weights.{gid}", "unknown non-energy good")
            if not _finite_number(w) or w <= 0.0:
                _fail(f"{path}.weights.{gid}", "must be a positive number")
            weights[gid] = float(w)
    sigma = None
    if form == "ces":
        sigma = _num(doc, "elasticity", path)
        if sigma <= 0.0 or sigma == 1.0:
            _fail(f"{path}.elasticity", "must be > 0 and != 1")
    elif "elasticity" in doc:
        _fail(f"{path}.elasticity", "only valid for CES preferences")
    return Preferences(form=form, weights=weights, elasticity=sigma)


def _parse_event(doc, path: str, period_length: float,
                 known_movers: set[str], known_goods: set[str]
                 ) -> EventSpec | PrimeMoverType | EnergyGood:
    """A shock, or the type an arrival event brings in at its period."""
    if not isinstance(doc, dict):
        _fail(path, "must be an object")
    kind = doc.get("kind")
    if kind not in EVENT_KINDS:
        _fail(f"{path}.kind", f"must be one of {', '.join(EVENT_KINDS)}")
    period = _intval(doc, "period", path)
    if kind in ("efficiency_shift", "meec_shift"):
        _check_keys(doc, {"kind", "period", "good", "multiplier"}, path)
        good = doc.get("good")
        if not isinstance(good, str) or good not in known_goods:
            _fail(f"{path}.good", f"unknown good id {good!r}")
        mult = _num(doc, "multiplier", path, positive=True)
        if kind == "efficiency_shift" and mult >= 1.0:
            _fail(f"{path}.multiplier",
                  "efficiency shift must be < 1 (it lowers requirements)")
        if kind == "meec_shift" and mult <= 1.0:
            _fail(f"{path}.multiplier",
                  "deterioration shift must be > 1 (it raises requirements)")
        return EventSpec(period=period, kind=kind, good=good, multiplier=mult)
    if kind == "endowment_shock":
        _check_keys(doc, {"kind", "period", "mover", "delta"}, path)
        mover = doc.get("mover")
        if not isinstance(mover, str) or mover not in known_movers:
            _fail(f"{path}.mover", f"unknown prime mover id {mover!r}")
        delta = _num(doc, "delta", path)
        return EventSpec(period=period, kind=kind, mover=mover, delta=delta)
    if kind == "new_prime_mover":
        _check_keys(doc, {"kind", "period", "mover"}, path)
        new = _parse_mover(doc.get("mover"), f"{path}.mover", period_length)
        if new.id in known_movers:
            _fail(f"{path}.mover.id", f"duplicate prime mover id {new.id!r}")
        known_movers.add(new.id)
        return new._replace(intro_period=period)
    # new_energy_good
    _check_keys(doc, {"kind", "period", "good"}, path)
    new = _parse_energy_good(doc.get("good"), f"{path}.good")
    if new.id in known_goods:
        _fail(f"{path}.good.id", f"duplicate good id {new.id!r}")
    known_goods.add(new.id)
    return new._replace(intro_period=period)


def _parse_force_phi(doc, path: str) -> float | None:
    _check_keys(doc, {"force_phi"}, path)
    if doc.get("force_phi") is None:
        return None
    force_phi = _num(doc, "force_phi", path)
    if not 0.0 <= force_phi < 1.0:
        _fail(f"{path}.force_phi", "must be in [0, 1)")
    return force_phi


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ScenarioValidationError("$", "scenario must be a JSON object")
    _check_keys(doc, {"period_length", "prime_movers", "energy_goods",
                      "non_energy_goods", "preferences", "events", "solver",
                      "horizon"}, "$")
    dt = _num(doc, "period_length", "$", positive=True)
    movers = _entries(doc, "prime_movers",
                      partial(_parse_mover, period_length=dt))
    mover_ids = [m.id for m in movers]
    if len(set(mover_ids)) != len(mover_ids):
        _fail("$.prime_movers", "prime mover ids must be unique")
    e_goods = _entries(doc, "energy_goods", _parse_energy_good)
    n_goods = _entries(doc, "non_energy_goods", _parse_non_energy_good)

    good_ids = [g.id for g in e_goods] + [g.id for g in n_goods]
    if len(set(good_ids)) != len(good_ids):
        _fail("$.energy_goods", "good ids must be unique across all goods")

    if not any(g.intro_period == 0 for g in e_goods):
        _fail("$.energy_goods", "at least one must be active at period 0")
    if not any(g.intro_period == 0 for g in n_goods):
        _fail("$.non_energy_goods", "at least one must be active at period 0")

    preferences = _parse_preferences(doc.get("preferences", {}),
                                     "$.preferences", n_goods)

    raw_events = doc.get("events", [])
    if not isinstance(raw_events, list):
        _fail("$.events", "must be an array")
    known_goods = set(good_ids)
    known_movers = set(mover_ids)
    shocks: list[tuple[int, EventSpec]] = []
    # every good, listed or arriving, with the path of its entry
    goods_at = ([("$.energy_goods[{}]", i, g) for i, g in enumerate(e_goods)]
                + [("$.non_energy_goods[{}]", i, g)
                   for i, g in enumerate(n_goods)])
    # every arrival is known before any shift or shock names its target,
    # so the order of the events in the document does not matter
    order = sorted(range(len(raw_events)),
                   key=lambda i: not (isinstance(raw_events[i], dict)
                                      and raw_events[i].get("kind")
                                      in ARRIVAL_KINDS))
    for i in order:
        item = _parse_event(raw_events[i], f"$.events[{i}]", dt,
                            known_movers, known_goods)
        if isinstance(item, PrimeMoverType):
            movers += (item,)
        elif isinstance(item, EnergyGood):
            e_goods += (item,)
            goods_at.append(("$.events[{}].good", i, item))
        else:
            shocks.append((i, item))
    # a good uses only movers that are active by its own arrival
    mover_intro = {m.id: m.intro_period for m in movers}
    for path, i, g in goods_at:
        for m in g.technology.used_movers():
            if m not in mover_intro:
                _fail(path.format(i) + ".technology",
                      f"references unknown prime mover {m!r}")
            if g.intro_period < mover_intro[m]:
                _fail(path.format(i) + ".technology",
                      f"uses prime mover {m!r} before its arrival at "
                      f"period {mover_intro[m]}")
    good_intro = {g.id: g.intro_period for g in e_goods + n_goods}
    for i, ev in shocks:
        target, intro = ((ev.mover, mover_intro[ev.mover])
                         if ev.kind == "endowment_shock"
                         else (ev.good, good_intro[ev.good]))
        if ev.period < intro:
            _fail(f"$.events[{i}].period",
                  f"precedes the arrival of {target!r} at period {intro}")

    force_phi = _parse_force_phi(doc.get("solver", {}), "$.solver")
    horizon = _intval(doc, "horizon", "$", default=500)

    return ScenarioConfig(period_length=dt, prime_movers=movers,
                          energy_goods=e_goods, non_energy_goods=n_goods,
                          preferences=preferences,
                          events=tuple(ev for _, ev in shocks),
                          force_phi=force_phi, horizon=horizon)


def with_entry_value(scenario: ScenarioConfig, doc: dict, section: str,
                     index: int, key: str, value) -> ScenarioConfig:
    """``scenario_from_dict`` of ``doc`` with ``doc[section][index][key]``
    set to ``value``, given ``scenario = scenario_from_dict(doc)``.

    Only the edited entry is parsed again, with the same checks and field
    paths; the rest of the scenario is reused through ``_replace``.  A
    utility weight also parses the preferences again, so it moves the
    preference weight it sets unless ``preferences.weights`` overrides it.
    """
    raw = dict(doc[section][index], **{key: value})
    path = f"$.{section}[{index}]"
    if section == "prime_movers":
        entry = _parse_mover(raw, path, scenario.period_length)
    elif section == "energy_goods":
        entry = _parse_energy_good(raw, path)
    else:
        entry = _parse_non_energy_good(raw, path)
    entries = list(getattr(scenario, section))
    entries[index] = entry
    changes = {section: tuple(entries)}
    if key == "utility_weight" and section == "non_energy_goods":
        changes["preferences"] = _parse_preferences(
            doc.get("preferences", {}), "$.preferences", changes[section])
    return scenario._replace(**changes)


def decode_document(text: str):
    """The JSON value ``text`` holds, or ScenarioParseError: malformed
    JSON, nesting past the recursion limit, or an integer past the
    interpreter's digit limit."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(exc.msg, exc.lineno, exc.colno) from exc
    except RecursionError:
        raise ScenarioParseError("document nests too deeply") from None
    except ValueError:      # int() refuses the digits
        raise ScenarioParseError(
            "an integer has more than "
            f"{sys.get_int_max_str_digits()} digits") from None


def load_scenario(text: str) -> ScenarioConfig:
    """Parse and validate a scenario JSON document."""
    return scenario_from_dict(decode_document(text))


def scenario_digest(doc: dict | str) -> str:
    """Content hash of a scenario document, stable under key reordering."""
    import hashlib      # here: ``egl validate`` digests nothing

    if isinstance(doc, str):
        doc = json.loads(doc)
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()
