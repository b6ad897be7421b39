"""Energy-side equilibrium: surplus maximization under mover scarcity.

For each energy good, optimal output equates the marginal energy surplus
(energy content minus marginal embodied energy) with a scarcity premium
proportional to phi / (1 - phi), where phi in [0, 1) is the share of
potential surplus that would be useless given the prime movers left over
for non-energy production.  phi itself is pinned down by complementary
slackness on usability: either phi = 0 and the leftover fleet can absorb
the whole surplus, or the surplus exactly matches the leftover fleet's
direct-energy capacity.

Each good's optimum at a given phi is closed form for the smooth
(Cobb-Douglas) technology, whose marginal curve is a power law; curved
fixed-proportions profiles take a bracketed root, and shut down in one
step once the premium lifts their profile weight past a closed-form
threshold.  The usability residual E(phi) - U(phi) is continuous between
those shutdown shares and crosses zero once.  Two residuals either side
of each shutdown share either certify that the residual jumps across zero
there, and the usability constraint is then imposed by rescaling the
outputs, or narrow the bracket to the continuous piece where one bracketed
root finds the fixed point.  A jump the shares miss leaves that root short
of the slack tolerance and is rescaled the same way.

A solve compiles each good's curve once (``embodied.curve``), and every
step that evaluates it (gamma(0), the caps, the power laws, the residuals,
the rationing, the rescale and the first-order conditions) reads that
kernel.
A residual works on per-mover employment totals, and each share it
evaluates keeps its allocation, so the accepted share is not solved again;
per-good employment is built once, for the solution.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

from .core import (CobbDouglas, EconomyState, EnergyGood, ScenarioConfig,
                   effective_multiplier, initial_state)
from .embodied import (Curve, curve, marginal_embodied, sample_curve,
                       solve_power)
from .errors import SolverError
from .numerics import bracketed_root

log = logging.getLogger("egl.surplus")

_PHI_MAX = 1.0 - 1e-12


@dataclass(frozen=True)
class EnergySideSolution:
    """Solved energy side of one period."""

    outputs: dict[str, float]                    # Q per good
    employment: dict[str, dict[str, float]]      # good -> mover -> units
    phi: float                                   # useless-surplus share
    marginal_surplus: dict[str, float]           # alpha per good at Q*
    mover_surplus: dict[str, float]              # phi_l per mover (joules)
    gamma: dict[str, float]                      # marginal embodied at Q*
    usable_surplus: float                        # E*
    gross_income: float                          # I = sum(delta Q)
    gross_expenditure: float                     # G = sum of expenditure
    expenditure: dict[str, float]                # G per good
    meroi: dict[str, float | None]               # delta / gamma, None at Q=0
    foc_good_residuals: dict[str, float]         # relative, interior goods
    foc_mover_residuals: dict[str, float]        # "good/mover", smooth techs
    binding_constraints: dict[str, str]          # good -> constraint tag
    usable_capacity: float                       # U at the solution
    slack_residual: float                        # E - U at the solution
    phi_forced: bool = False
    null: bool = False


@dataclass(frozen=True)
class Figure1Data:
    """Sampled curves and markers for one good's equilibrium chart."""

    good: str
    quantities: list[float]
    meec: list[float]
    energy_content: float
    saturation_quantity: float | None
    markers: dict[str, float] = field(default_factory=dict)


def marginal_surplus_at(good: EnergyGood, q: float,
                        state: EconomyState) -> float:
    """Vertical gap between energy content and the marginal curve at q."""
    if q < 0.0:
        raise ValueError("quantity must be >= 0")
    m = effective_multiplier(good, state)
    return good.energy_content - marginal_embodied(good.technology,
                                                   state.movers, q, m)


def scarcity_premium(good: EnergyGood, q: float, phi: float,
                     state: EconomyState) -> float:
    """Premium (phi/(1-phi)) * mean over used movers of eps_l * g'_l(q)."""
    if not 0.0 <= phi < 1.0:
        raise ValueError("phi must be in [0, 1)")
    if phi == 0.0:
        return 0.0
    kernel = curve(good.technology, state.movers,
                   effective_multiplier(good, state))
    return _premium(phi, kernel.marginal_requirements(q), state.movers)


def _premium(phi: float, grads: dict[str, float], movers: dict) -> float:
    """(phi/(1-phi)) times the mean of eps_l * g'_l(q) over the good's used
    movers, given their marginal requirements g'_l(q)."""
    if phi == 0.0:
        return 0.0
    total = sum(movers[mid].direct_energy * g for mid, g in grads.items())
    return phi / (1.0 - phi) * (total / len(grads))


def _shutdown_weight(tech, delta: float, cap: float) -> float:
    """Threshold a* of the profile weight a: the gain delta * q - a * h(q)
    is positive somewhere on (0, cap] exactly while a < a*.

    That gain is positive while a is below delta over the least average
    profile h(q)/q on (0, cap], which sits at the tangency q_T with the
    marginal profile or at the cap.  The bounds delta / h'(0) (the gain
    rises from 0) and delta / h'(q_peak) (it rises somewhere) hold by
    construction and keep rounding from breaking them, so below a* the
    marginal gain at the peak is never negative.
    """
    q = min(tech.tangency, cap)
    if q == 0.0 or math.isinf(q):
        least_average = tech.marginal_profile(q)    # its limit at 0 or inf
    else:
        least_average = tech.cumulative_profile(q) / q
    return min(delta / tech.marginal_profile(min(tech.dip, cap)),
               max(delta / tech.marginal_profile(0.0),
                   delta / least_average))


def mover_surplus_rates(phi: float,
                        movers: dict[str, object]) -> dict[str, float]:
    """Per-mover marginal energy surplus phi_l = phi * eps_l / (1 - phi)."""
    if not 0.0 <= phi < 1.0:
        raise ValueError("phi must be in [0, 1)")
    factor = phi / (1.0 - phi)
    return {mid: factor * m.direct_energy for mid, m in movers.items()}


# ---------------------------------------------------------------------------
# solver internals
# ---------------------------------------------------------------------------

class _Problem:
    """Per-good curves and constants for one energy-side solve, and the
    allocation at every share phi evaluated so far."""

    def __init__(self, scenario: ScenarioConfig, state: EconomyState):
        self.state = state
        self.settings = scenario.solver
        self.goods = list(state.energy_goods.values())
        self.mult = {g.id: effective_multiplier(g, state) for g in self.goods}
        self.curves = {}
        self.gamma0 = {}
        for g in self.goods:
            kernel = curve(g.technology, state.movers, self.mult[g.id])
            self.curves[g.id] = kernel
            self.gamma0[g.id] = kernel.marginal(0.0)
        self.producible = {}
        self.caps = {}
        self.cap_tags = {}
        self.exhausted = set()
        for g in self.goods:
            used = g.technology.used_movers()
            ok = all(state.stocks.get(m, 0.0) > 0.0 for m in used)
            self.producible[g.id] = ok
            remaining = math.inf
            if g.pes_stock is not None:
                remaining = max(
                    g.pes_stock - state.cum_extraction.get(g.id, 0.0), 0.0)
                if remaining <= 0.0:
                    self.exhausted.add(g.id)
            if not ok:
                continue
            cap, tag = math.inf, ""
            for mid in used:
                c = self.curves[g.id].output_cap(mid, state.stocks[mid])
                if c < cap:
                    cap, tag = c, f"endowment:{mid}"
            if remaining < cap:
                cap, tag = remaining, "pes"
            self.caps[g.id] = cap
            self.cap_tags[g.id] = tag
        self.candidates = [
            g for g in self.goods
            if self.producible[g.id] and self.caps[g.id] > 0.0
            and self.earns(g, self.caps[g.id])]
        # the curve's power law and premium weight (smooth technology), or
        # the premium weight of the requirement profile, its peak and its
        # shutdown threshold (fixed proportions), are computed once per
        # solve
        self.smooth_terms = {}
        self.fixed_terms = {}
        for g in self.candidates:
            tech = g.technology
            if isinstance(tech, CobbDouglas):
                # g'_l(q) = gamma(q) / omega_l, so the premium factor is
                # gamma(q) * kappa with kappa the mean of eps_l / omega_l
                used = tech.used_movers()
                kappa = sum(state.movers[mid].direct_energy
                            / state.movers[mid].total_transfer
                            for mid in used) / len(used)
                a, k = self.curves[g.id].power_law()
                self.smooth_terms[g.id] = (a, k, kappa)
                continue
            used = [(mid, nu) for mid, nu in tech.requirements.items()
                    if nu > 0.0]
            eps_mean = sum(state.movers[mid].direct_energy * nu
                           for mid, nu in used) / len(used)
            cap = self.caps[g.id]
            self.fixed_terms[g.id] = (
                self.curves[g.id].w, eps_mean, min(tech.dip, cap),
                _shutdown_weight(tech, g.energy_content, cap))
        self.allocations = {}

    def earns(self, good: EnergyGood, cap: float) -> bool:
        """Whether the good earns a surplus on (0, cap] at phi = 0.

        A smooth curve starts at gamma(0) = 0 below any content.  A
        fixed-proportions good earns while its profile weight m * w stays
        below its shutdown threshold, which holds whenever its content
        exceeds gamma(0), and can hold below gamma(0) for a dipping
        profile.
        """
        if isinstance(good.technology, CobbDouglas):
            return good.energy_content > self.gamma0[good.id]
        return self.curves[good.id].mw < _shutdown_weight(
            good.technology, good.energy_content, cap)

    def good_output(self, good: EnergyGood, c: float):
        """Optimal output of one good at premium weight c = phi/(1-phi).

        The marginal gain is F(q) = content - gamma(q) - c * premium(q).
        For the smooth technology the premium is kappa * gamma(q), so F = 0
        at gamma(q) = content / (1 + c * kappa), which inverts the power
        law gamma = A q^k in closed form; the optimum is that q clipped at
        the cap.  For fixed proportions both terms follow the convex
        requirement profile h', so F = content - a * h'(q) with a rising
        in c.  The good produces while a stays below its shutdown threshold
        (``_shutdown_weight``), and then the optimum is the last downward
        crossing of F, found by a bracketed root past the dip.
        """
        cap = self.caps[good.id]
        tag = self.cap_tags[good.id]
        rtol = self.settings.q_rtol
        tech = good.technology
        delta = good.energy_content

        if isinstance(tech, CobbDouglas):
            # F(q) = delta - (1 + c * kappa) * A * q ** k
            a, k, kappa = self.smooth_terms[good.id]
            q = solve_power((1.0 + c * kappa) * a, k, delta)
            if q >= cap:
                return cap, tag
            if q <= 0.0:
                raise SolverError(
                    "degenerate",
                    f"optimal output of {good.id!r} underflows to zero")
            return q, None

        # fixed proportions: F(q) = delta - a * h'(q) with a > 0
        w_total, eps_mean, q_peak, a_star = self.fixed_terms[good.id]
        a = self.mult[good.id] * (w_total + c * eps_mean)
        if a >= a_star:
            return 0.0, None

        def gain(q: float) -> float:
            return delta - a * tech.marginal_profile(q)

        if gain(cap) >= 0.0:
            return cap, tag
        return bracketed_root(gain, q_peak, cap, rtol=rtol), None

    def shutdown_shares(self) -> list[float]:
        """Shares phi at which a fixed-proportions good stops producing,
        ascending: where a = m * (w_total + c * eps_mean) reaches the good's
        shutdown threshold.  The usability residual is continuous between
        them and can jump across them."""
        shares = []
        for gid, (w_total, eps_mean, _, a_star) in self.fixed_terms.items():
            c_star = (a_star / self.mult[gid] - w_total) / eps_mean
            if c_star > 0.0:
                shares.append(c_star / (1.0 + c_star))
        return sorted(shares)

    def allocation(self, phi: float):
        """Outputs, expenditure G per good, mover units employed and binding
        constraints at a candidate phi: the optimal-output rule per good,
        then per-mover rationing when a shared endowment is over-committed.
        Each share is allocated once per solve."""
        if phi not in self.allocations:
            c = phi / (1.0 - phi)
            outputs: dict[str, float] = {g.id: 0.0 for g in self.goods}
            bindings: dict[str, str] = {}
            for g in self.candidates:
                q, tag = self.good_output(g, c)
                outputs[g.id] = q
                if tag is not None:
                    bindings[g.id] = tag
            costs, totals = self._ration(outputs, bindings)
            self.allocations[phi] = outputs, costs, totals, bindings
        return self.allocations[phi]

    def rescale_to_usability(self, outputs: dict[str, float]):
        """Shrink outputs along a common ray until surplus fits capacity.

        Used when the usability residual jumps across zero without a root:
        the premium mechanism cannot price a locally downward-sloping
        requirement curve, so the constraint is imposed directly.
        """
        def excess(scale: float) -> float:
            scaled = {gid: q * scale for gid, q in outputs.items()}
            return self.slack(scaled, *self.load(scaled))

        if excess(1.0) <= 0.0:
            return outputs, False
        scale = bracketed_root(excess, 0.0, 1.0, rtol=1e-13)
        return {gid: q * scale for gid, q in outputs.items()}, True

    def load(self, outputs: dict[str, float]):
        """Expenditure G per good and units employed per mover."""
        costs: dict[str, float] = {}
        totals: dict[str, float] = {}
        for g in self.goods:
            q = outputs[g.id]
            if q <= 0.0:
                costs[g.id] = 0.0
                continue
            kernel = self.curves[g.id]
            costs[g.id], amounts = kernel.load(q)
            for mid, x in zip(kernel.movers, amounts):
                totals[mid] = totals.get(mid, 0.0) + x
        return costs, totals

    def employment(self, outputs: dict[str, float]):
        """Mover units per good and mover at the outputs."""
        return {g.id: {} if outputs[g.id] <= 0.0
                else self.curves[g.id].requirements(outputs[g.id])
                for g in self.goods}

    def _ration(self, outputs, bindings):
        """Scale back goods sharing an over-committed mover type.

        Proportional rationing: all goods employing the worst-violated mover
        shrink by a common factor until its total employment meets the stock.
        Loops at most once per mover type.  Scales ``outputs`` in place,
        tags the rationed goods in ``bindings``, and returns the expenditure
        and mover totals of the final outputs.
        """
        costs, totals = self.load(outputs)
        for _ in range(len(self.state.movers) + 1):
            worst, worst_ratio = None, 1.0 + 1e-12
            for mid, used in sorted(totals.items()):
                stock = self.state.stocks.get(mid, 0.0)
                if stock <= 0.0 and used > 0.0:
                    ratio = math.inf
                else:
                    ratio = used / stock if stock > 0.0 else 1.0
                if ratio > worst_ratio:
                    worst, worst_ratio = mid, ratio
            if worst is None:
                break
            stock = self.state.stocks.get(worst, 0.0)
            # each good employing the worst mover: (id, curve, mover slot)
            users = []
            for g in self.goods:
                kernel, q = self.curves[g.id], outputs[g.id]
                if q > 0.0 and worst in kernel.movers:
                    i = kernel.movers.index(worst)
                    if kernel.load(q)[1][i] > 0.0:
                        users.append((g.id, kernel, i))

            def over(scale: float) -> float:
                tot = 0.0
                for gid, kernel, i in users:
                    tot += kernel.load(outputs[gid] * scale)[1][i]
                return tot - stock

            s = bracketed_root(over, 0.0, 1.0, rtol=1e-13) \
                if over(0.0) < 0.0 else 0.0
            for gid, _, _ in users:
                outputs[gid] = outputs[gid] * s
                bindings[gid] = f"endowment:{worst}"
            costs, totals = self.load(outputs)
        return costs, totals

    def surplus(self, outputs: dict[str, float], costs: dict[str, float]):
        """Gross income I and expenditure G at the outputs."""
        income = 0.0
        spent = 0.0
        for g in self.goods:
            income += g.energy_content * outputs[g.id]
            spent += costs[g.id]
        return income, spent

    def capacity(self, totals: dict[str, float]) -> float:
        """Direct-energy capacity of movers left over for non-energy work."""
        total = 0.0
        for mid, mover in self.state.movers.items():
            leftover = self.state.stocks.get(mid, 0.0) - totals.get(mid, 0.0)
            if leftover > 0.0:
                total += mover.direct_energy * leftover
        return total

    def slack(self, outputs, costs, totals) -> float:
        """Usable surplus E = I - G minus the leftover capacity U."""
        income, spent = self.surplus(outputs, costs)
        return (income - spent) - self.capacity(totals)

    def residual(self, phi: float) -> float:
        outputs, costs, totals, _ = self.allocation(phi)
        return self.slack(outputs, costs, totals)


def _null_solution(problem: _Problem, phi: float = 0.0,
                   forced: bool = False) -> EnergySideSolution:
    state = problem.state
    outputs = {g.id: 0.0 for g in problem.goods}
    alpha = {g.id: g.energy_content - problem.gamma0[g.id]
             for g in problem.goods}
    return EnergySideSolution(
        outputs=outputs,
        employment={g.id: {} for g in problem.goods},
        phi=phi,
        marginal_surplus=alpha,
        mover_surplus=mover_surplus_rates(phi, state.movers),
        gamma={g.id: problem.gamma0[g.id] for g in problem.goods},
        usable_surplus=0.0, gross_income=0.0, gross_expenditure=0.0,
        expenditure={g.id: 0.0 for g in problem.goods},
        meroi={g.id: None for g in problem.goods},
        foc_good_residuals={}, foc_mover_residuals={},
        binding_constraints={},
        usable_capacity=problem.capacity({}),
        slack_residual=0.0, phi_forced=forced, null=True)


def _solve_phi(problem: _Problem) -> tuple[float, bool]:
    """Useless-surplus share: the root of the usability residual E - U.

    The bracket [lo, hi] grows toward phi = 1 until the residual at hi
    turns negative.  The residual is continuous except at the shutdown
    shares of fixed-proportions goods, where it can jump down across zero.
    So before hi is evaluated, two residuals ``phi_tol / 2`` apart around
    each shutdown share inside the bracket either certify such a jump or
    narrow the bracket to the continuous piece that holds the sign change;
    one bracketed root then solves that piece to ``phi_tol`` relative.
    Returns (phi, converged).
    ``converged`` is False when the residual jumps across zero without a
    root: phi is then a share with a positive residual within ``phi_tol``
    of one with a negative residual, and the caller imposes the usability
    constraint directly.  A jump the shares miss is still caught, as a
    root that misses the slack tolerance.
    """
    settings = problem.settings
    residuals: dict[float, float] = {}

    def rho(phi: float) -> float:
        if phi not in residuals:
            residuals[phi] = problem.residual(phi)
        return residuals[phi]

    def jump(phi: float) -> tuple[float, bool]:
        log.info("usability residual jumps at phi=%.6g; "
                 "imposing the constraint directly", phi)
        return phi, False

    rho0 = rho(0.0)
    if rho0 <= 0.0:
        return 0.0, True
    ftol = settings.slack_tol * max(1.0, abs(rho0))

    shares = problem.shutdown_shares()
    lo, hi = 0.0, 0.5
    while True:
        for share in shares:
            if lo < share < hi:
                gap = 0.25 * settings.phi_tol * share
                left, right = max(lo, share - gap), min(hi, share + gap)
                if rho(left) <= 0.0:
                    hi = left
                elif rho(right) >= 0.0:
                    lo = right
                else:
                    return jump(left)
        if rho(hi) <= 0.0:
            break
        lo, hi = hi, 1.0 - (1.0 - hi) / 4.0
        if hi >= _PHI_MAX:
            raise SolverError(
                "degenerate",
                "usability residual stays positive as phi approaches 1")

    # The residual can rise with phi only while rationing keeps the whole
    # fleet employed in energy production; there U = 0 < E, so no root
    # lies there and the residual crosses zero once on [lo, hi].
    phi = bracketed_root(rho, lo, hi, rtol=settings.phi_tol)
    if abs(rho(phi)) > ftol:
        return jump(max(x for x, value in residuals.items() if value > 0.0))
    return phi, True


def solve_energy_side(scenario: ScenarioConfig,
                      state: EconomyState | None = None,
                      force_phi: float | None = None) -> EnergySideSolution:
    """Solve the energy side at the given state (period-0 state by default).

    ``force_phi`` pins the useless-surplus share instead of solving the
    usability fixed point (diagnostic mode; also honored from the scenario's
    solver settings).
    """
    if state is None:
        state = initial_state(scenario)
    problem = _Problem(scenario, state)

    if force_phi is None:
        force_phi = scenario.solver.force_phi
    forced = force_phi is not None

    profitable = [g for g in problem.goods if problem.earns(g, math.inf)]
    if not profitable:
        return _null_solution(problem, force_phi or 0.0, forced)
    if not problem.candidates:
        # a good that would earn either ran its primary source dry or
        # earns nothing below its endowment cap; only one whose movers
        # are missing leaves the economy unable to produce
        if all(g.id in problem.exhausted or problem.caps.get(g.id, 0.0) > 0.0
               for g in profitable):
            return _null_solution(problem, force_phi or 0.0, forced)
        raise SolverError(
            "infeasible",
            "no producible energy good: endowments cannot produce output")

    if forced:
        if not 0.0 <= force_phi < 1.0:
            raise ValueError("forced phi must be in [0, 1)")
        phi, balanced = float(force_phi), True
    else:
        phi, balanced = _solve_phi(problem)

    outputs, costs, totals, bindings = problem.allocation(phi)
    bindings = dict(bindings)
    if not balanced:
        outputs, rescaled = problem.rescale_to_usability(outputs)
        if rescaled:
            costs, totals = problem.load(outputs)
            for gid, q in outputs.items():
                if q > 0.0:
                    bindings[gid] = "usability"
    income, spent = problem.surplus(outputs, costs)
    e_star = income - spent
    capacity = problem.capacity(totals)

    alpha: dict[str, float] = {}
    gamma: dict[str, float] = {}
    meroi_map: dict[str, float | None] = {}
    foc_goods: dict[str, float] = {}
    foc_movers: dict[str, float] = {}
    phi_l = mover_surplus_rates(phi, state.movers)

    for g in problem.goods:
        q = outputs[g.id]
        kernel = problem.curves[g.id]
        gam = kernel.marginal(q)
        gamma[g.id] = gam
        alpha[g.id] = g.energy_content - gam
        meroi_map[g.id] = g.energy_content / gam if q > 0.0 else None
        if q <= 0.0:
            continue
        grads = kernel.marginal_requirements(q)
        premium = _premium(phi, grads, state.movers)
        foc_goods[g.id] = abs(alpha[g.id] - premium) / g.energy_content
        if isinstance(g.technology, CobbDouglas) and g.id not in bindings:
            for mid, gprime in grads.items():
                mover = state.movers[mid]
                resid = (g.energy_content / gprime
                         - mover.total_transfer - phi_l[mid])
                foc_movers[f"{g.id}/{mid}"] = abs(resid) / g.energy_content

    return EnergySideSolution(
        outputs=outputs, employment=problem.employment(outputs), phi=phi,
        marginal_surplus=alpha, mover_surplus=phi_l, gamma=gamma,
        usable_surplus=e_star, gross_income=income, gross_expenditure=spent,
        expenditure=costs, meroi=meroi_map, foc_good_residuals=foc_goods,
        foc_mover_residuals=foc_movers, binding_constraints=bindings,
        usable_capacity=capacity, slack_residual=e_star - capacity,
        phi_forced=forced, null=False)


def figure1_report(scenario: ScenarioConfig, state: EconomyState | None,
                   good_id: str, solution: EnergySideSolution,
                   samples: int = 400) -> Figure1Data:
    """Curve samples and markers for one good's equilibrium rendering."""
    if state is None:
        state = initial_state(scenario)
    good = state.energy_goods[good_id]
    m = effective_multiplier(good, state)
    q_star = solution.outputs.get(good_id, 0.0)

    saturation = _saturation_quantity(
        good, state, curve(good.technology, state.movers, m))
    spans = [1.0]
    if q_star > 0.0:
        spans.append(2.0 * q_star)
    if saturation is not None:
        spans.append(1.25 * saturation)
    q_max = max(spans)

    points = sample_curve(good.technology, state.movers, q_max,
                          samples=samples, multiplier=m)
    markers: dict[str, float] = {}
    if not solution.null and q_star > 0.0:
        markers = {
            "Q_star": q_star,
            "gamma": solution.gamma[good_id],
            "G": solution.expenditure[good_id],
            "E_good": good.energy_content * q_star
            - solution.expenditure[good_id],
            "alpha": solution.marginal_surplus[good_id],
        }
    return Figure1Data(good=good_id,
                       quantities=[p.quantity for p in points],
                       meec=[p.marginal for p in points],
                       energy_content=good.energy_content,
                       saturation_quantity=saturation,
                       markers=markers)


def _saturation_quantity(good: EnergyGood, state: EconomyState,
                         kernel: Curve) -> float | None:
    """Output level whose direct-energy requirement uses the whole fleet.

    The demand ceiling drops vertically here: past this quantity the good's
    energy cannot be transferred by the movers its technology employs.
    """
    used = good.technology.used_movers()
    budget = sum(state.movers[mid].direct_energy
                 * state.stocks.get(mid, 0.0)
                 for mid in used if mid in state.movers)
    if budget <= 0.0:
        return 0.0

    def spent(q: float) -> float:
        return sum(state.movers[mid].direct_energy * x
                   for mid, x in kernel.requirements(q).items())

    hi = 1.0
    while spent(hi) < budget:
        hi *= 2.0
        if hi > 1e12:
            return None
    return bracketed_root(lambda q: spent(q) - budget, 0.0, hi, rtol=1e-12)
