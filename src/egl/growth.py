"""Prime-mover accumulation dynamics and scenario simulation.

Each period the static problem is solved with the current stocks, the
per-mover marginal surplus phi_l = phi * eps_l / (1 - phi) is computed, and
stocks grow by dx/dt = r_l * tanh(phi_l / eps_l) * x_l over the period in
one forward Euler step.  The tanh argument is normalized by each mover's
own direct energy eps_l so it is dimensionless.  Growth stops at the
steady state: no marginal surplus left on any good and negligible
accumulation on every mover.

At the start of each period, before the solve, the types introduced at
that period activate (new movers and energy sources) and then the
scheduled shocks (efficiency gains, curve deterioration, endowment shocks)
apply; ``simulate`` reads both from a schedule by period that it derives
once per run.

The consumer spends the usable surplus and feeds nothing back: the next
state reads only the energy-side solution.  So ``simulate`` runs in two
passes, the dynamics on the energy side first and then every period's
demand solve, in period order.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .core import (SS_ACCUM_TOL, SS_ALPHA_TOL, EconomyState, Immutable,
                   _set, activate_due, aggregate_power, initial_state,
                   logger)
from .demand import demand_for_state
from .embodied import Kernels
from .errors import EglError, ScenarioValidationError, SolverError
from .surplus import solve_energy_side

if TYPE_CHECKING:
    from logging import Logger

    from .core import EventSpec, PrimeMoverType, ScenarioConfig
    from .demand import DemandSolution
    from .surplus import EnergySideSolution


class PeriodRecord(NamedTuple):
    """One simulated period: the state it solved (pre-accumulation stocks)
    and its two solutions, in an immutable record.  Nothing changes them
    after their period."""

    state: EconomyState
    energy: EnergySideSolution
    demand: DemandSolution


class Trajectory(Immutable):
    """Per-period records; ``steady`` when the last record is the steady
    state, ``error`` when period ``len(records)`` failed to solve."""

    _fields = __slots__ = ("records", "steady", "error")

    def __init__(self, records: tuple[PeriodRecord, ...],
                 steady: bool = False, error: str | None = None) -> None:
        _set(self, "records", records)
        _set(self, "steady", steady)
        _set(self, "error", error)


def step_accumulation(stocks: dict[str, float],
                      surplus_args: dict[str, float],
                      movers: dict[str, PrimeMoverType]) -> dict[str, float]:
    """Advance stocks one period by one Euler step; ``surplus_args`` are
    the dimensionless tanh arguments."""
    out = dict(stocks)
    for mid, mover in movers.items():
        x = out.get(mid, 0.0)
        if x <= 0.0:
            continue
        rate = mover.max_accum_rate * math.tanh(surplus_args.get(mid, 0.0))
        out[mid] = x * (1.0 + rate)
    return out


def normalized_surplus_args(phi_l: dict[str, float],
                            movers: dict[str, PrimeMoverType]
                            ) -> dict[str, float]:
    """Dimensionless accumulation drive per mover: phi_l / eps_l."""
    return {mid: phi_l[mid] / movers[mid].direct_energy for mid in movers}


def apply_event(state: EconomyState, event: EventSpec) -> EconomyState:
    """Apply one shock to the state; multiplicative shifts compose."""
    if event.kind in ("efficiency_shift", "meec_shift"):
        if event.good not in state.energy_goods \
                and event.good not in state.non_energy_goods:
            raise ScenarioValidationError(
                "event.good", f"unknown or inactive good {event.good!r}")
        mult = dict(state.multipliers)
        mult[event.good] = mult.get(event.good, 1.0) * event.multiplier
        return state._replace(multipliers=mult)
    if event.kind == "endowment_shock":
        if event.mover not in state.movers:
            raise ScenarioValidationError(
                "event.mover", f"unknown or inactive mover {event.mover!r}")
        stocks = dict(state.stocks)
        new = stocks.get(event.mover, 0.0) + event.delta
        if new < 0.0:
            raise ScenarioValidationError(
                "event.delta",
                f"shock drives stock of {event.mover!r} below zero")
        stocks[event.mover] = new
        return state._replace(stocks=stocks)
    raise ScenarioValidationError("event.kind",
                                  f"unknown event kind {event.kind!r}")


def _schedule(scenario: ScenarioConfig) -> dict[int, tuple]:
    """What each period that changes the economy brings: whether a type
    arrives, and its shocks in the order of their kinds."""
    schedule = {x.intro_period: (True, []) for x in scenario.prime_movers
                + scenario.energy_goods + scenario.non_energy_goods}
    for ev in sorted(scenario.events, key=lambda e: e.kind):
        schedule.setdefault(ev.period, (False, []))[1].append(ev)
    return schedule


def enter_period(scenario: ScenarioConfig, state: EconomyState, t: int,
                 schedule: dict | None = None) -> EconomyState:
    """State at the start of period ``t``, before that period's solve.

    The types introduced at ``t`` activate, then the shocks dated ``t``
    apply in the order of their kinds, as ``schedule`` (by default the
    scenario's) says.  Raises ``SolverError("degenerate")`` when the
    fleet's aggregate power leaves the float range, as an arriving stock
    or one grown by accumulation can make it.
    """
    if schedule is None:
        schedule = _schedule(scenario)
    arrives, shocks = schedule.get(t, (False, ()))
    if arrives or state.period != t:
        state = activate_due(scenario, state, t)
    for ev in shocks:
        state = apply_event(state, ev)
    if not math.isfinite(aggregate_power(state)):
        raise SolverError("degenerate", "aggregate power of the fleet "
                          f"overflows at period {t}")
    return state


def period_zero(scenario: ScenarioConfig) -> EconomyState:
    """The period-0 economy that ``egl equilibrium`` solves: row 0 of
    ``simulate`` by construction."""
    return enter_period(scenario, initial_state(scenario), 0)


def _is_steady(state: EconomyState, energy: EnergySideSolution,
               stocks: dict[str, float]) -> bool:
    """Whether the period whose accumulation grows ``state.stocks`` to
    ``stocks`` is the steady state."""
    max_stock = max(state.stocks.values(), default=0.0)
    for mid, x in state.stocks.items():
        if stocks[mid] - x >= SS_ACCUM_TOL * max(max_stock, 1e-300):
            return False
    for gid, good in state.energy_goods.items():
        if good.pes_stock is not None:
            if state.cum_extraction.get(gid, 0.0) >= good.pes_stock:
                continue    # exhausted source: the gap is inactionable
            if energy.outputs.get(gid, 0.0) > 0.0:
                return False    # bounded stock still being drawn down
        if energy.marginal_surplus[gid] >= SS_ALPHA_TOL * good.energy_content:
            return False
    return True


def _energy_pass(scenario: ScenarioConfig, horizon: int, kernels: Kernels,
                 log: Logger | None
                 ) -> tuple[list[tuple[EconomyState, EnergySideSolution]],
                            bool, EglError | None]:
    """Run the dynamics: each period's state and energy-side solution, in
    period order, whether the last one is the steady state, and the error
    that stopped the run early, if any; each period is logged at DEBUG on
    ``log`` unless it is None."""
    state = initial_state(scenario)
    schedule = _schedule(scenario)
    # no steady state is declared before the last arrival or shock
    last_change = max(schedule)
    periods: list[tuple[EconomyState, EnergySideSolution]] = []

    for t in range(horizon + 1):
        try:
            state = enter_period(scenario, state, t, schedule)
            energy = solve_energy_side(scenario, state, kernels)
        except EglError as exc:
            return periods, False, exc

        if log is not None:
            log.debug("t=%d phi=%.6g E*=%.6g", t, energy.phi,
                      energy.usable_surplus)
        periods.append((state, energy))
        stocks = step_accumulation(
            state.stocks,
            normalized_surplus_args(energy.mover_surplus, state.movers),
            state.movers)

        if t >= last_change and _is_steady(state, energy, stocks):
            return periods, True, None

        if t == horizon:
            break

        cum = dict(state.cum_extraction)
        for gid, q in energy.outputs.items():
            cum[gid] = cum.get(gid, 0.0) + q
        state = EconomyState(
            period=t + 1, movers=state.movers,
            energy_goods=state.energy_goods,
            non_energy_goods=state.non_energy_goods, stocks=stocks,
            cum_extraction=cum, multipliers=state.multipliers)

    return periods, False, None


def simulate(scenario: ScenarioConfig,
             horizon: int | None = None) -> Trajectory:
    """Run the period loop until the horizon or a detected steady state.

    Two passes: the energy pass runs the dynamics (period entry, the
    energy-side solve, accumulation and the steady test), then the
    consumer pass solves each collected period's demand in period order.
    The consumer side feeds nothing back into the next state, so the
    trajectory is the one an interleaved loop builds: the first period
    whose entry or either solve fails ends it, with the earlier records.

    The goods' curve kernels live in one ``Kernels`` store for the run, so
    a good's kernel is rebuilt only when an arrival, an event or depletion
    changes its technology or multiplier, and the consumer's closed form
    only then; the store and the run's schedule end with the run.
    """
    horizon = scenario.horizon if horizon is None else horizon
    kernels = Kernels()
    log = logger("egl.growth")
    periods, steady, error = _energy_pass(scenario, horizon, kernels, log)
    records: list[PeriodRecord] = []
    for state, energy in periods:
        try:
            demand = demand_for_state(scenario, state, energy.usable_surplus,
                                      energy.employment, kernels)
        except EglError as exc:
            error = exc
            break
        records.append(PeriodRecord(state, energy, demand))

    if error is not None:
        # the failure travels on the trajectory; the CLI reports it
        if log is not None:
            log.info("period %d solve failed: %s", len(records), error)
        return Trajectory(records=tuple(records), error=str(error))
    return Trajectory(records=tuple(records), steady=steady)
