"""Consumer problem: utility maximization under the energy budget.

Given the usable surplus E from the energy side, the agent picks the bundle
of non-energy goods whose cumulative embodied-energy cost exhausts E, with
each good's marginal utility proportional to its marginal embodied energy.

An inner solve gives each good's quantity at a trial multiplier and an
outer solve drives the budget residual to zero.  Where a good's marginal
curve is a power law A * q^k (smooth technology, or a constant
fixed-proportions profile) its inner solve is closed form; a curved profile
takes the secant steps of ``numerics.newton_root``.  When every good shares
one power k, spending scales as a power of the multiplier, so the outer
solve is closed form too; otherwise a bracket search (``grow_bracket``) and
secant steps find the multiplier.
Internally the multiplier belongs to an additively separable transform of
the utility (same level sets, hence same demands); the reported marginal
utility of energy is evaluated on the stated utility form at the solution.
A solve takes each good's curve kernel once from its ``Kernels`` store,
which ``simulate`` keeps across periods, so a kernel is built
(``embodied.curve``) only when the good's technology or multiplier
changes; the power laws, inner solves, spending, the curves at the bundle
and the support fleet all read it.  The store's memo keeps what the
goods' kernels fix (``_plan``: the power laws, and with one power the
common power and spending at multiplier 1), so a run derives them again
only when a good's kernel is rebuilt, and the closed-form bundle is a
power of the budget.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .core import Q_RTOL, effective_multiplier, employment_totals
from .embodied import Kernels, solve_power
from .errors import SolverError
from .numerics import grow_bracket, newton_root

if TYPE_CHECKING:
    from .core import (EconomyState, NonEnergyGood, Preferences,
                       PrimeMoverType)
    from .embodied import Curve

#: Range of quantities a demand solve accepts, and of the multipliers its
#: bracket search tries; beyond it the budget is treated as unreachable.
_Q_MAX = 1e180
_LAM_MIN, _LAM_MAX = 1e-180, 1e180


class DemandSolution(NamedTuple):
    """Solved consumer side: bundle, shadow value of energy, support fleet
    (an immutable record)."""

    bundle: dict[str, float]                       # Q per non-energy good
    lam: float | None                              # utils per joule
    support_employment: dict[str, dict[str, float]]  # good -> mover -> units
    usability_slack: float                         # joules, < 0 flags Eq-7 gap
    budget_residual: float                         # joules
    feasible: bool
    violations: tuple[str, ...]
    energy_budget: float
    gamma_marginal: dict[str, float]
    gamma_average: dict[str, float]


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
    try:
        if preferences.form == "cobb_douglas":
            u = 1.0
            for gid, qty in bundle.items():
                u *= qty ** preferences.weights[gid]
            return a * u / q
        r = _curvature(preferences)
        v = sum(preferences.weights[gid] * qty ** r
                for gid, qty in bundle.items())
        return v ** (1.0 / r - 1.0) * a * q ** (r - 1.0)
    except OverflowError:
        raise SolverError("degenerate", "marginal utility of "
                          f"{good_id!r} overflows") from None


def _check_multiplier(lam_sep: float, energy: float,
                      lam_min: float = _LAM_MIN,
                      lam_max: float = _LAM_MAX) -> None:
    """Raise once the budget multiplier leaves [lam_min, lam_max]."""
    if lam_sep > lam_max:
        raise SolverError(
            "no_bracket",
            f"spending exceeds the budget {energy:.6g} J at every "
            f"multiplier up to {lam_max:g}")
    if lam_sep < lam_min:
        raise SolverError(
            "no_bracket",
            f"spending stays below the budget {energy:.6g} J at every "
            f"multiplier down to {lam_min:g}")


def solve_demands(preferences: Preferences,
                  goods: list[NonEnergyGood],
                  movers: dict[str, PrimeMoverType],
                  energy: float,
                  multipliers: dict[str, float] | None = None,
                  remaining_endowment: dict[str, float] | None = None,
                  kernels: Kernels | None = None) -> DemandSolution:
    """Optimal non-energy bundle for a usable surplus of ``energy`` joules.

    When ``remaining_endowment`` is given the support prime movers are
    allocated as well and per-type feasibility plus the usability gap are
    reported on the solution.  The goods' curve kernels come from
    ``kernels`` (by default a fresh store).
    """
    if not goods:
        raise ValueError("need at least one non-energy good")
    mult = {g.id: (multipliers or {}).get(g.id, 1.0) for g in goods}

    if energy <= 0.0:
        return _solution({g.id: 0.0 for g in goods}, {}, movers,
                         remaining_endowment, max(energy, 0.0), lam=None,
                         budget_residual=0.0, gamma_marginal={},
                         gamma_average={})

    r = _curvature(preferences)
    kernels = Kernels() if kernels is None else kernels
    curves = {g.id: kernels.of(g, movers, mult[g.id]) for g in goods}
    laws, closed = kernels.derived((preferences, *curves.values()),
                                   _plan, preferences, r, curves)
    if closed is None:
        bundle = _searched_bundle(preferences.weights, r, curves, laws, energy)
    else:
        # one power for every good: the budget holds where
        # energy * lam ** exponent = spending(1)
        p, exponent, spent_at_1 = closed
        lam_sep = solve_power(energy, exponent, spent_at_1)
        # ``_power_demand`` bounds the bundle: any positive multiplier will do
        _check_multiplier(lam_sep, energy, math.ulp(0.0), math.inf)
        bundle = {gid: _power_demand(gid, laws[gid][0], p,
                                     preferences.weights[gid] / lam_sep)
                  for gid in curves}
    gamma = {gid: curves[gid].marginal(q) for gid, q in bundle.items()}
    gamma_avg = {gid: curves[gid].transfer(q) / q if q > 0.0 else gamma[gid]
                 for gid, q in bundle.items()}
    spent = sum(gamma_avg[gid] * q for gid, q in bundle.items())
    lam = sum(marginal_utility(preferences, bundle, gid) / gamma[gid]
              for gid in bundle) / len(goods)
    return _solution(bundle, curves, movers, remaining_endowment, energy,
                     lam=lam, budget_residual=spent - energy,
                     gamma_marginal=gamma, gamma_average=gamma_avg)


def _plan(preferences: Preferences, r: float, curves: dict[str, Curve]):
    """What a demand solve derives from its kernels alone: each good's
    power law (A, k) or None, and, when all share one k, the closed form
    (p, exponent, spending(1)): q_g(lam) = (w_g / (lam A_g)) ** (1/p) with
    p = 1 - r + k, so spending(lam) = spending(1) * lam ** -(k+1)/p."""
    laws = {gid: kernel.power_law() for gid, kernel in curves.items()}
    powers = {law[1] if law is not None else None for law in laws.values()}
    if len(powers) != 1 or None in powers:
        return laws, None
    k = powers.pop()
    p = 1.0 - r + k
    if p == 0.0:
        # q ** (1-r) * gamma(q) is the constant a: no quantity meets a
        # target, e.g. CES with 1 - 1/sigma rounded to 1 and flat curves
        # (perfect substitutes at constant cost)
        raise SolverError(
            "degenerate",
            "every good's demand condition is constant in its quantity")
    bundle = {gid: _power_demand(gid, a, p, preferences.weights[gid])
              for gid, (a, _) in laws.items()}
    spent = sum(curves[gid].transfer(q) for gid, q in bundle.items())
    return laws, (p, (k + 1.0) / p, spent)


def _power_demand(good_id: str, a: float, p: float, target: float) -> float:
    """Inner solve on a power law: a * q ** p = target, within _Q_MAX."""
    q = solve_power(a, p, target)
    if not 0.0 < q <= _Q_MAX:
        raise SolverError(
            "no_bracket", f"demand for {good_id!r} at its target "
            f"{target:.6g} lies outside (0, {_Q_MAX:g}]")
    return q


def _searched_bundle(weights: dict, r: float, curves: dict[str, Curve],
                     laws: dict, energy: float) -> dict[str, float]:
    """The bundle whose spending meets the budget, where the goods' powers
    differ or a curve is not a power law: the multiplier is bracketed and
    solved by secant steps, and so is a curved good's quantity."""

    def quantity(gid: str, target: float) -> float:
        """Inner solve: q ** (1-r) * gamma(q) = target."""
        law = laws[gid]
        if law is not None:
            return _power_demand(gid, law[0], 1.0 - r + law[1], target)
        marginal = curves[gid].marginal

        def gap(q: float) -> float:
            return q ** (1.0 - r) * marginal(q) - target

        hi = grow_bracket(gap, 1.0, _Q_MAX)
        if hi is None:
            raise SolverError(
                "no_bracket",
                f"demand for {gid!r} stays below its target "
                f"{target:.6g} up to q = {_Q_MAX:g}")
        return newton_root(lambda q: (gap(q), None), 0.0, hi, 0.0,
                           rtol=Q_RTOL)

    bundles: dict[float, dict[str, float]] = {}

    def bundle_at(lam_sep: float) -> dict[str, float]:
        """The inner solves at one multiplier, run once per multiplier."""
        if lam_sep not in bundles:
            bundles[lam_sep] = {gid: quantity(gid, weights[gid] / lam_sep)
                                for gid in curves}
        return bundles[lam_sep]

    def spending(lam_sep: float) -> float:
        return sum(curves[gid].transfer(q)
                   for gid, q in bundle_at(lam_sep).items())

    # spending falls in lam: the bracket grows up in lam from 1 when
    # spending(1) exceeds the budget, and down in 1/lam otherwise; a
    # search that passes the range reads as infinite
    if spending(1.0) > energy:
        lo, hi = 1.0, grow_bracket(lambda lam: energy - spending(lam),
                                   1.0, _LAM_MAX)
        _check_multiplier(hi or math.inf, energy)
    else:
        inv = grow_bracket(lambda inv: spending(1.0 / inv) - energy, 1.0,
                           1.0 / _LAM_MIN)
        _check_multiplier(1.0 / inv if inv else 0.0, energy)
        lo, hi = 1.0 / inv, 1.0
    return bundle_at(newton_root(lambda lam: (spending(lam) - energy, None),
                                 lo, hi, lo, rtol=Q_RTOL))


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


def demand_for_state(scenario, state: EconomyState, energy: float,
                     energy_employment: dict[str, dict[str, float]],
                     kernels: Kernels | None = None) -> DemandSolution:
    """Demand solve wired to a dynamic state: multipliers and leftovers."""
    goods = list(state.non_energy_goods.values())
    mult = {g.id: effective_multiplier(g, state) for g in goods}
    used = employment_totals(energy_employment)
    remaining = {mid: max(state.stocks.get(mid, 0.0) - used.get(mid, 0.0),
                          0.0)
                 for mid in state.movers}
    return solve_demands(scenario.preferences, goods, state.movers, energy,
                         multipliers=mult, remaining_endowment=remaining,
                         kernels=kernels)
