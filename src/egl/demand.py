"""Consumer problem: utility maximization under the energy budget.

Given the usable surplus E from the energy side, the agent picks the bundle
of non-energy goods whose cumulative embodied-energy cost exhausts E, with
each good's marginal utility proportional to its marginal embodied energy.

An inner solve gives each good's quantity at a trial multiplier and an
outer solve drives the budget residual to zero.  Where a good's marginal
curve is a power law A * q^k (smooth technology, or a constant
fixed-proportions profile) its inner solve is closed form; a curved profile
takes a bracketed root.  When every good shares one power k, spending
scales as a power of the multiplier, so the outer solve is closed form too;
otherwise a bracket search and a bracketed root find the multiplier.
Internally the multiplier belongs to an additively separable transform of
the utility (same level sets, hence same demands); the reported marginal
utility of energy is evaluated on the stated utility form at the solution.
Each good's curve is compiled once per solve (``embodied.curve``); the
power laws, inner solves, spending, the curves at the bundle and the
support fleet all read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (EconomyState, NonEnergyGood, Preferences, PrimeMoverType,
                   effective_multiplier, employment_totals)
from .embodied import Curve, curve, solve_power
from .errors import SolverError
from .numerics import bracketed_root

#: Range of quantities and budget multipliers a demand solve accepts;
#: beyond it the budget is treated as unreachable.
_Q_MAX = 1e180
_LAM_MIN, _LAM_MAX = 1e-180, 1e180


@dataclass(frozen=True)
class DemandSolution:
    """Solved consumer side: bundle, shadow value of energy, support fleet."""

    bundle: dict[str, float]                       # Q per non-energy good
    lam: float | None                              # utils per joule
    support_employment: dict[str, dict[str, float]]  # good -> mover -> units
    usability_slack: float                         # joules, < 0 flags Eq-7 gap
    budget_residual: float                         # joules
    feasible: bool
    violations: tuple[str, ...] = ()
    energy_budget: float = 0.0
    gamma_marginal: dict[str, float] = field(default_factory=dict)
    gamma_average: dict[str, float] = field(default_factory=dict)


def _curvature(preferences: Preferences) -> float:
    """Exponent r of the separable transform: 0 for Cobb-Douglas, 1-1/sigma for CES."""
    if preferences.form == "ces":
        return 1.0 - 1.0 / preferences.elasticity
    return 0.0


def marginal_utility(preferences: Preferences, bundle: dict[str, float],
                     good_id: str) -> float:
    """Marginal utility of one good at the bundle, on the stated form."""
    a = preferences.weights[good_id]
    q = bundle[good_id]
    if preferences.form == "cobb_douglas":
        u = 1.0
        for gid, qty in bundle.items():
            u *= qty ** preferences.weights[gid]
        return a * u / q
    r = _curvature(preferences)
    v = sum(preferences.weights[gid] * qty ** r
            for gid, qty in bundle.items())
    return v ** (1.0 / r - 1.0) * a * q ** (r - 1.0)


def _check_multiplier(lam_sep: float, energy: float) -> None:
    """Raise once the budget multiplier leaves [_LAM_MIN, _LAM_MAX]."""
    if lam_sep > _LAM_MAX:
        raise SolverError(
            "no_bracket",
            f"spending exceeds the budget {energy:.6g} J at every "
            f"multiplier up to {_LAM_MAX:g}")
    if lam_sep < _LAM_MIN:
        raise SolverError(
            "no_bracket",
            f"spending stays below the budget {energy:.6g} J at every "
            f"multiplier down to {_LAM_MIN:g}")


def solve_demands(preferences: Preferences,
                  goods: list[NonEnergyGood],
                  movers: dict[str, PrimeMoverType],
                  energy: float,
                  multipliers: dict[str, float] | None = None,
                  remaining_endowment: dict[str, float] | None = None,
                  rtol: float = 1e-10) -> DemandSolution:
    """Optimal non-energy bundle for a usable surplus of ``energy`` joules.

    When ``remaining_endowment`` is given the support prime movers are
    allocated as well and per-type feasibility plus the usability gap are
    reported on the solution.
    """
    if not goods:
        raise ValueError("need at least one non-energy good")
    mult = {g.id: (multipliers or {}).get(g.id, 1.0) for g in goods}

    if energy <= 0.0:
        return _solution({g.id: 0.0 for g in goods}, {}, movers,
                         remaining_endowment, max(energy, 0.0), lam=None,
                         budget_residual=0.0)

    r = _curvature(preferences)
    weights = {g.id: preferences.weights[g.id] for g in goods}
    curves, laws = {}, {}
    for g in goods:
        kernel = curves[g.id] = curve(g.technology, movers, mult[g.id])
        laws[g.id] = kernel.power_law()

    def quantity(good: NonEnergyGood, target: float) -> float:
        """Inner solve: q ** (1-r) * gamma(q) = target."""
        law = laws[good.id]
        if law is not None:
            a, k = law
            q = solve_power(a, 1.0 - r + k, target)
            if not 0.0 < q <= _Q_MAX:
                raise SolverError(
                    "no_bracket",
                    f"demand for {good.id!r} at its target {target:.6g} "
                    f"lies outside (0, {_Q_MAX:g}]")
            return q
        marginal = curves[good.id].marginal

        def gap(q: float) -> float:
            return q ** (1.0 - r) * marginal(q) - target

        hi = 1.0
        while gap(hi) < 0.0:
            hi *= 2.0
            if hi > _Q_MAX:
                raise SolverError(
                    "no_bracket",
                    f"demand for {good.id!r} stays below its target "
                    f"{target:.6g} up to q = {_Q_MAX:g}")
        if gap(hi) == 0.0:
            return hi
        return bracketed_root(gap, 0.0, hi, rtol=rtol)

    def spending(lam_sep: float) -> float:
        total = 0.0
        for g in goods:
            q = quantity(g, weights[g.id] / lam_sep)
            total += curves[g.id].transfer(q)
        return total

    powers = {law[1] if law is not None else None for law in laws.values()}
    if len(powers) == 1 and None not in powers:
        # one power k for every good: spending(lam) is
        # spending(1) * lam ** -p with p = (k+1)/(1-r+k), so the budget
        # holds where energy * lam ** p = spending(1)
        k = powers.pop()
        lam_sep = solve_power(energy, (k + 1.0) / (1.0 - r + k),
                              spending(1.0))
        _check_multiplier(lam_sep, energy)
    else:
        lam_lo = lam_hi = 1.0
        while spending(lam_hi) > energy:
            lam_hi *= 4.0
            _check_multiplier(lam_hi, energy)
        while spending(lam_lo) < energy:
            lam_lo /= 4.0
            _check_multiplier(lam_lo, energy)
        if lam_lo == lam_hi:
            lam_sep = lam_lo          # spending(1.0) hit the budget exactly
        else:
            lam_sep = bracketed_root(lambda lam: spending(lam) - energy,
                                     lam_lo, lam_hi, rtol=rtol)

    bundle = {g.id: quantity(g, weights[g.id] / lam_sep) for g in goods}
    gamma = {gid: curves[gid].marginal(q) for gid, q in bundle.items()}
    gamma_avg = {gid: curves[gid].transfer(q) / q if q > 0.0 else gamma[gid]
                 for gid, q in bundle.items()}
    spent = sum(gamma_avg[gid] * q for gid, q in bundle.items())
    lam = sum(marginal_utility(preferences, bundle, gid) / gamma[gid]
              for gid in bundle) / len(goods)
    return _solution(bundle, curves, movers, remaining_endowment, energy,
                     lam=lam, budget_residual=spent - energy,
                     gamma_marginal=gamma, gamma_average=gamma_avg)


def _solution(bundle: dict[str, float], curves: dict[str, Curve],
              movers: dict[str, PrimeMoverType],
              remaining_endowment: dict[str, float] | None, energy: float,
              **fields) -> DemandSolution:
    """The solution for a bundle, with its support fleet read from the
    goods' curves (only producing goods need one)."""
    employment, feasible, violations = _support(bundle, curves,
                                                remaining_endowment)
    return DemandSolution(
        bundle=bundle, support_employment=employment,
        usability_slack=usability_slack(employment, movers, energy),
        feasible=feasible, violations=tuple(violations),
        energy_budget=energy, **fields)


def _support(quantities: dict[str, float], curves: dict[str, Curve],
             remaining_endowment: dict[str, float] | None):
    """Mover units per good, whether they fit the remaining endowment, and
    the over-committed mover types."""
    employment: dict[str, dict[str, float]] = {}
    for gid, q in quantities.items():
        employment[gid] = {} if q <= 0.0 else curves[gid].requirements(q)
    feasible = True
    violations: list[str] = []
    if remaining_endowment is not None:
        for mid, used in sorted(employment_totals(employment).items()):
            avail = remaining_endowment.get(mid, 0.0)
            if used > avail * (1.0 + 1e-9) + 1e-15:
                feasible = False
                violations.append(mid)
    return employment, feasible, violations


def allocate_support_prime_movers(
        bundle: dict[str, float], goods: list[NonEnergyGood],
        movers: dict[str, PrimeMoverType],
        remaining_endowment: dict[str, float] | None,
        multipliers: dict[str, float] | None = None):
    """Prime movers required to produce the bundle, checked per type.

    Requirements come straight from each good's technology (cost-minimizing
    mix for the smooth kind).  An over-committed mover type is reported,
    never silently scaled away.
    """
    mult = multipliers or {}
    quantities = {g.id: bundle.get(g.id, 0.0) for g in goods}
    curves = {g.id: curve(g.technology, movers, mult.get(g.id, 1.0))
              for g in goods if quantities[g.id] > 0.0}
    return _support(quantities, curves, remaining_endowment)


def usability_slack(employment: dict[str, dict[str, float]],
                    movers: dict[str, PrimeMoverType],
                    energy: float) -> float:
    """Direct energy of the support fleet minus the surplus it must carry.

    Negative values flag a usability violation: the movers producing the
    bundle cannot physically transfer the whole surplus within the period.
    """
    direct = 0.0
    for reqs in employment.values():
        for mid, x in reqs.items():
            direct += movers[mid].direct_energy * x
    return direct - energy


def tangency_residual(preferences: Preferences, bundle: dict[str, float],
                      gamma: dict[str, float]) -> float:
    """Worst relative gap of MU_n / MU_m against gamma_n / gamma_m."""
    ids = [gid for gid, q in bundle.items() if q > 0.0]
    worst = 0.0
    for i, n in enumerate(ids):
        for m in ids[i + 1:]:
            lhs = (marginal_utility(preferences, bundle, n)
                   / marginal_utility(preferences, bundle, m))
            rhs = gamma[n] / gamma[m]
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return worst


def demand_for_state(scenario, state: EconomyState, energy: float,
                     energy_employment: dict[str, dict[str, float]]
                     ) -> DemandSolution:
    """Demand solve wired to a dynamic state: multipliers and leftovers."""
    goods = list(state.non_energy_goods.values())
    mult = {g.id: effective_multiplier(g, state) for g in goods}
    used = employment_totals(energy_employment)
    remaining = {mid: max(state.stocks.get(mid, 0.0) - used.get(mid, 0.0),
                          0.0)
                 for mid in state.movers}
    return solve_demands(scenario.preferences, goods, state.movers, energy,
                         multipliers=mult, remaining_endowment=remaining,
                         rtol=scenario.solver.q_rtol)
