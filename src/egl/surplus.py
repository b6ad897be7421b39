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
fixed-proportions profiles take a Newton root (``numerics.newton_root``)
with the closed-form slope h'', and shut down in one step once the
premium lifts their profile weight past a closed-form threshold.  The
rationing scale is a Newton root too, with the slope of each good's
employment; the phi bracket route and the usability rescale, which have
no closed-form slope, take its secant steps.

When every good that can produce is Cobb-Douglas, the usability residual
E - U is a sum of powers of 1 + c * kappa_g in c = phi / (1 - phi), which
``numerics.newton_root`` solves with its exact derivative.  One full
residual at that share, through the caps and the rationing, certifies it
against the slack tolerance.  The share fails the certificate where a cap
or the rationing binds at it, and is not tried where several mover types
are rationed at phi = 0, since there the residual can cross zero twice.

Otherwise the bracket route solves phi.  The usability residual is
continuous between the shutdown shares of fixed-proportions goods.  Two
residuals either side of each shutdown share either certify that the
residual jumps across zero there, and the usability constraint is then
imposed by rescaling the outputs, or narrow the bracket to the continuous
piece where one bracketed root finds the fixed point.  A jump the shares
miss leaves that root short of the slack tolerance, even at float
resolution, and is rescaled the same way.

A solve takes each good's curve kernel once from its ``Kernels`` store,
which builds it (``embodied.curve``) unless an earlier period of the same
simulation left one for the same technology and multiplier; every step
that evaluates the curve (the caps, the power laws, the residuals, the
rationing, the rescale and the first-order conditions) reads that kernel,
and so does the premium weight of each candidate (kappa or eps_mean),
which the kernel carries.  The usable capacity U is summed in one place,
``_Problem.capacity``, whose per-mover weights the Newton route reads too.
A residual works on per-mover employment totals, and each share it
evaluates keeps its allocation, which both phi routes read, so no share
is solved twice; per-good employment is built once, for the solution.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .core import (PHI_TOL, Q_RTOL, SLACK_TOL, CobbDouglas, Immutable,
                   effective_multiplier, logger)
from .embodied import (Kernels, curve, marginal_embodied, sample_curve,
                       solve_power)
from .errors import SolverError
from .numerics import bisect_predicate, grow_bracket, newton_root

if TYPE_CHECKING:
    from .core import EconomyState, EnergyGood, ScenarioConfig
    from .embodied import Curve

_PHI_MAX = 1.0 - 1e-12
_FIGURE_SAMPLES = 400       # curve samples on each equilibrium chart


class EnergySideSolution(NamedTuple):
    """Solved energy side of one period (an immutable record)."""

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


class Figure1Data(Immutable):
    """Sampled curves and markers for one good's equilibrium chart."""

    _fields = __slots__ = ("good", "quantities", "meec", "energy_content",
                           "saturation_quantity", "markers")


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
        if least_average == 0.0:    # h(q) underflows at a subnormal cap
            raise SolverError("degenerate", "average requirement profile "
                              f"underflows at output {q:g}")
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

    def __init__(self, state: EconomyState, kernels: Kernels | None = None):
        kernels = Kernels() if kernels is None else kernels
        movers, stocks = state.movers, state.stocks
        self.state = state
        self.goods = list(state.energy_goods.values())
        self.curves = {g.id: kernels.of(g, movers,
                                        effective_multiplier(g, state))
                       for g in self.goods}
        # the direct energy one leftover unit of each mover carries into
        # non-energy work: the weights of the usable capacity U
        self.unit_capacity = {mid: mover.direct_energy
                              for mid, mover in movers.items()}
        # one pass decides what each good can do at phi = 0.  A mined-out
        # source does nothing.  A good with an unstocked mover, or whose
        # cap underflows to 0, is uncapped.  Every other good has a cap,
        # and is a candidate when it earns below it: a smooth curve always
        # does (gamma(0) = 0), a fixed-proportions good while its profile
        # weight m * w is below its shutdown threshold a* at the cap, and
        # its terms are its peak and that a*
        self.caps, self.cap_tags, self.uncapped = {}, {}, []
        self.candidates, self.fixed_terms = [], {}
        for g in self.goods:
            kernel = self.curves[g.id]
            remaining = math.inf
            if g.pes_stock is not None:
                remaining = g.pes_stock - state.cum_extraction.get(g.id, 0.0)
                if remaining <= 0.0:
                    continue
            cap, tag = 0.0, ""
            if all(stocks.get(m, 0.0) > 0.0 for m in kernel.movers):
                cap = math.inf
                for mid in kernel.movers:
                    c = kernel.output_cap(mid, stocks[mid])
                    if c < cap:
                        cap, tag = c, f"endowment:{mid}"
                if remaining < cap:
                    cap, tag = remaining, "pes"
            if cap <= 0.0:
                self.uncapped.append(g)
                continue
            self.caps[g.id], self.cap_tags[g.id] = cap, tag
            tech = g.technology
            if not isinstance(tech, CobbDouglas):
                a_star = _shutdown_weight(tech, g.energy_content, cap)
                if kernel.mw >= a_star:
                    continue
                self.fixed_terms[g.id] = (min(tech.dip, cap), a_star)
            self.candidates.append(g)
        # a smooth candidate's power law (A, k); an overflowing curve
        # raises here
        self.power_laws = {g.id: self.curves[g.id].power_law()
                           for g in self.candidates
                           if g.id not in self.fixed_terms}
        self.allocations = {}

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
        crossing of F, found past the dip by Newton with the slope
        -a * h''(q).
        """
        cap = self.caps[good.id]
        tag = self.cap_tags[good.id]
        tech = good.technology
        delta = good.energy_content

        if isinstance(tech, CobbDouglas):
            # F(q) = delta - (1 + c * kappa) * A * q ** k
            a, k = self.power_laws[good.id]
            q = solve_power((1.0 + c * self.curves[good.id].kappa) * a, k,
                            delta)
            if q >= cap:
                return cap, tag
            if q <= 0.0:
                raise SolverError(
                    "degenerate",
                    f"optimal output of {good.id!r} underflows to zero")
            return q, None

        # fixed proportions: F(q) = delta - a * h'(q) with a > 0
        kernel = self.curves[good.id]
        q_peak, a_star = self.fixed_terms[good.id]
        a = kernel.multiplier * (kernel.w + c * kernel.eps_mean)
        if a >= a_star:
            return 0.0, None

        def gain(q: float) -> tuple[float, float]:
            return delta - a * tech.marginal_profile(q), \
                -a * tech.curvature_profile(q)

        # h' >= c0 + c2 (q / q_s) ** rho, so F < 0 past the root q0 of that
        # bound, which is the optimum when c1 = 0: below the cap, F(cap) < 0
        # needs no test
        q0 = math.inf if tech.c2 <= 0.0 else tech.q_s * solve_power(
            tech.c2, tech.rho, max(delta / a - tech.c0, 0.0))
        if q0 >= cap:
            if gain(cap)[0] >= 0.0:
                return cap, tag
            q0 = cap
        return newton_root(gain, q_peak, cap, q0, rtol=Q_RTOL), None

    def shutdown_shares(self) -> list[float]:
        """Shares phi at which a fixed-proportions good stops producing,
        ascending: where a = m * (w + c * eps_mean) reaches the good's
        shutdown threshold.  The usability residual is continuous between
        them and can jump across them."""
        shares = []
        for gid, (_, a_star) in self.fixed_terms.items():
            kernel = self.curves[gid]
            c_star = (a_star / kernel.multiplier - kernel.w) \
                / kernel.eps_mean
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
        requirement curve, so the constraint is imposed directly.  The
        outputs are the allocation of a share whose residual is positive,
        so the common scale lies in [0, 1).
        """
        def excess(scale: float) -> tuple[float, None]:
            scaled = {gid: q * scale for gid, q in outputs.items()}
            return self.slack(scaled, *self.load(scaled)), None

        scale = newton_root(excess, 0.0, 1.0, 0.0, rtol=1e-13)
        return {gid: q * scale for gid, q in outputs.items()}

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

    def _ration(self, outputs, bindings):
        """Scale back goods sharing an over-committed mover type.

        Proportional rationing: all goods employing the worst-violated mover
        shrink by a common factor until its total employment meets the stock,
        found by Newton from the full outputs with the slope
        sum_g q_g * x'_g(scale * q_g).  Loops at most once per mover type.
        Scales ``outputs`` in place, tags the rationed goods in
        ``bindings``, and returns the expenditure and mover totals of the
        final outputs.  Only candidate goods produce, so every mover in the
        totals has a positive stock.
        """
        stocks = self.state.stocks
        costs, totals = self.load(outputs)
        for _ in range(len(self.state.movers) + 1):
            worst, worst_ratio = None, 1.0 + 1e-12
            for mid, used in sorted(totals.items()):
                ratio = used / stocks[mid]
                if ratio > worst_ratio:
                    worst, worst_ratio = mid, ratio
            if worst is None:
                break
            stock = stocks[worst]
            # each good employing the worst mover: (id, curve, mover slot)
            users = []
            for g in self.goods:
                kernel, q = self.curves[g.id], outputs[g.id]
                if q > 0.0 and worst in kernel.movers:
                    i = kernel.movers.index(worst)
                    if kernel.load(q)[1][i] > 0.0:
                        users.append((g.id, kernel, i))

            def over(scale: float) -> tuple[float, float]:
                tot = slope = 0.0
                for gid, kernel, i in users:
                    q = outputs[gid]
                    x, dx = kernel.units(q * scale, i)
                    tot += x
                    slope += q * dx
                return tot - stock, slope

            # zero outputs employ none of the stock and the full outputs
            # over-commit it, so the scale lies in (0, 1)
            s = newton_root(over, 0.0, 1.0, 1.0, rtol=1e-13)
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
        for mid, weight in self.unit_capacity.items():
            leftover = self.state.stocks.get(mid, 0.0) - totals.get(mid, 0.0)
            if leftover > 0.0:
                total += weight * leftover
        return total

    def slack(self, outputs, costs, totals) -> float:
        """Usable surplus E = I - G minus the leftover capacity U."""
        income, spent = self.surplus(outputs, costs)
        return (income - spent) - self.capacity(totals)

    def residual(self, phi: float) -> float:
        outputs, costs, totals, _ = self.allocation(phi)
        return self.slack(outputs, costs, totals)


def _solve_phi(problem: _Problem) -> tuple[float, bool]:
    """Useless-surplus share: the root of the usability residual E - U.

    phi = 0 when the residual there is not positive.  Otherwise, when every
    candidate good is Cobb-Douglas, ``_newton_phi`` solves the power-law
    form of the residual, and one full residual at its share certifies it
    with the slack tolerance; the certified share's allocation is kept, so
    it serves the solution.  A share that fails the certificate (a cap or
    the rationing binds there), and every economy with a fixed-proportions
    good, take the bracket route, ``_bracket_phi``.
    Returns (phi, converged), as ``_bracket_phi`` does.
    """
    rho0 = problem.residual(0.0)
    if rho0 <= 0.0:
        return 0.0, True
    ftol = SLACK_TOL * max(1.0, abs(rho0))
    if not problem.fixed_terms:
        phi = _newton_phi(problem)
        if phi is not None and abs(problem.residual(phi)) <= ftol:
            return phi, True
    return _bracket_phi(problem, ftol)


def _newton_phi(problem: _Problem) -> float | None:
    """The share phi = c / (1 + c) at the root of the power-law form of the
    usability residual, for candidate goods that are all Cobb-Douglas;
    None when the form leaves the float range or phi reaches 1.

    With each good at its interior optimum Q_g(c) (the closed form of
    ``good_output``) and p_g = (Q_g / scale) ** (1/B), the residual is
    rho(c) = sum_g (delta_g Q_g - w_g p_g) - sum_l eps_l s_l, with
    w_g = m K - m (K/B) sum_l eps_l beta_l / omega_l >= 0.  Both Q_g and p_g
    are powers of 1 + c kappa_g, so the derivative is exact, and rho falls
    in c.  ``numerics.newton_root`` solves it from c = 0 on [0, c_max],
    with c_max the weight of ``_PHI_MAX``, to ``PHI_TOL * c`` or float
    resolution, bisecting a step that would leave its sign bracket.  A NaN
    or a non-negative slope in the form, or a form still positive at
    c_max, returns None.

    Caps and rationing are not part of this form: the full residual at the
    share certifies it.  Outputs fall as c rises, so whatever binds
    anywhere binds at phi = 0, and where it binds the full residual lies
    below this form.  A cap holds an output fixed, so the full residual
    still falls, through one root.  Rationing one mover type of one
    employs the whole fleet, and there U = 0 < E.  But rationing one type
    of several can leave the residual negative below a second root, so an
    economy that rations at phi = 0 with several types returns None.
    """
    stocks, weights = problem.state.stocks, problem.unit_capacity
    fleet = [mid for mid in weights if stocks.get(mid, 0.0) > 0.0]
    outputs, _, _, bindings = problem.allocation(0.0)
    # a bound output below its cap was rationed
    if len(fleet) > 1 and any(outputs[gid] < problem.caps[gid]
                              for gid in bindings):
        return None
    terms = []
    for g in problem.candidates:
        kernel = problem.curves[g.id]
        leak = 0.0
        for mid, r in zip(kernel.movers, kernel.ratios):
            leak += weights[mid] * r
        terms.append((g.energy_content, *problem.power_laws[g.id],
                      kernel.kappa, kernel.tech.scale, 1.0 / kernel.b_total,
                      kernel.cost - kernel.coef * leak))
    capacity = problem.capacity({})     # the whole fleet is left over

    def rho(c: float) -> tuple[float, float]:
        value, slope = -capacity, 0.0
        for delta, a, k, kappa, scale, inv_b, w in terms:
            shift = 1.0 + c * kappa
            q = solve_power(shift * a, k, delta)
            try:
                p = (q / scale) ** inv_b
            except OverflowError:
                return math.nan, math.nan
            value += delta * q - w * p
            slope -= kappa / (k * shift) * (delta * q - w * p * inv_b)
        if not (math.isfinite(value) and slope < 0.0):
            return math.nan, math.nan       # newton_root gives up on it
        return value, slope

    try:
        c = newton_root(rho, 0.0, _PHI_MAX / (1 - _PHI_MAX), 0.0, rtol=PHI_TOL)
    except SolverError:
        return None
    phi = c / (1.0 + c)
    return phi if 0.0 < phi < _PHI_MAX else None


def _bracket_phi(problem: _Problem, ftol: float) -> tuple[float, bool]:
    """Root of the usability residual E - U by bracket and secant, given a
    positive residual at phi = 0 and the slack tolerance ``ftol``.

    The bracket [lo, hi] grows toward phi = 1 until the residual at hi
    turns negative; its last upper end is ``_PHI_MAX``, the largest share
    the Newton route returns too.  The residual is continuous except at
    the shutdown shares of fixed-proportions goods, where it can jump down
    across zero.  So before hi is evaluated, two residuals ``PHI_TOL / 2``
    apart around each shutdown share inside the bracket either certify
    such a jump or narrow the bracket to the continuous piece that holds
    the sign change; one bracketed root then solves that piece to
    ``PHI_TOL`` relative, or, retracing those steps on their kept shares,
    to float resolution where that misses the slack tolerance.
    Returns (phi, converged).
    ``converged`` is False when the residual jumps across zero without a
    root: phi is then a share with a positive residual within ``PHI_TOL``
    of one with a negative residual, and the caller imposes the usability
    constraint directly.  A jump the shares miss is still caught, as a
    root that misses the slack tolerance at float resolution, and rescues
    the largest share evaluated with a positive residual.
    """
    rho = problem.residual      # a share's allocation is kept once taken

    def jump(phi: float) -> tuple[float, bool]:
        log = logger("egl.surplus")
        if log is not None:
            log.info("usability residual jumps at phi=%.6g; "
                     "imposing the constraint directly", phi)
        return phi, False

    shares = problem.shutdown_shares()
    lo, hi = 0.0, 0.5
    while True:
        for share in shares:
            if lo < share < hi:
                gap = 0.25 * PHI_TOL * share
                left, right = max(lo, share - gap), min(hi, share + gap)
                if rho(left) <= 0.0:
                    hi = left
                elif rho(right) >= 0.0:
                    lo = right
                else:
                    return jump(left)
        if rho(hi) <= 0.0:
            break
        if hi >= _PHI_MAX:
            raise SolverError(
                "degenerate",
                "usability residual stays positive as phi approaches 1")
        lo, hi = hi, min(1.0 - (1.0 - hi) / 4.0, _PHI_MAX)

    # The residual can rise with phi only while rationing binds.  With one
    # mover type that employs the whole fleet, U = 0 < E, and the residual
    # crosses zero once on [lo, hi]; with several it can cross more than
    # once, and the secant steps return one of those roots.
    for rtol in (PHI_TOL, 0.0):
        phi = newton_root(lambda x: (rho(x), None), lo, hi, lo, rtol=rtol)
        if abs(rho(phi)) <= ftol:
            return phi, True
    return jump(max(x for x in problem.allocations if rho(x) > 0.0))


def solve_energy_side(scenario: ScenarioConfig,
                      state: EconomyState | None = None,
                      kernels: Kernels | None = None) -> EnergySideSolution:
    """Solve the energy side at the given state (by default the period-0
    economy after its events), with the goods' curve kernels taken from
    ``kernels`` (by default a fresh store).

    The scenario's ``solver.force_phi`` pins the useless-surplus share
    instead of solving the usability fixed point (diagnostic mode).
    """
    if state is None:
        from .growth import period_zero     # growth imports this module
        state = period_zero(scenario)
    problem = _Problem(state, kernels)
    forced = scenario.force_phi is not None

    # with no candidate, an uncapped good that would earn without a cap
    # leaves the economy unable to produce; a capped good that earns
    # nothing below its cap, or a mined-out one, does not
    if not problem.candidates and any(
            isinstance(g.technology, CobbDouglas)
            or problem.curves[g.id].mw < _shutdown_weight(
                g.technology, g.energy_content, math.inf)
            for g in problem.uncapped):
        raise SolverError(
            "infeasible",
            "no producible energy good: endowments cannot produce output")

    if forced or not problem.candidates:
        # nothing produces without a candidate, at any share
        phi, balanced = scenario.force_phi or 0.0, True
    else:
        phi, balanced = _solve_phi(problem)

    outputs, costs, totals, bindings = problem.allocation(phi)
    bindings = dict(bindings)
    if not balanced:
        outputs = problem.rescale_to_usability(outputs)
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
    employment: dict[str, dict[str, float]] = {}
    phi_l = mover_surplus_rates(phi, state.movers)

    for g in problem.goods:
        q = outputs[g.id]
        kernel = problem.curves[g.id]
        gam = kernel.marginal(q)
        if gam == math.inf or (gam == 0.0 and q > 0.0):
            way = "overflows" if gam else "underflows"
            raise SolverError("degenerate", f"marginal embodied energy of "
                              f"{g.id!r} {way} at output {q:.6g}")
        gamma[g.id] = gam
        alpha[g.id] = g.energy_content - gam
        meroi_map[g.id] = g.energy_content / gam if q > 0.0 else None
        employment[g.id] = kernel.requirements(q) if q > 0.0 else {}
        if q <= 0.0:
            continue
        grads = kernel.marginal_requirements(q)
        premium = _premium(phi, grads, state.movers)
        foc_goods[g.id] = abs(alpha[g.id] - premium) / g.energy_content
        if isinstance(g.technology, CobbDouglas) and g.id not in bindings:
            for mid, gprime in grads.items():
                if gprime <= 0.0:
                    raise SolverError(
                        "degenerate",
                        f"marginal requirement of {mid!r} in {g.id!r} "
                        "underflows to zero")
                mover = state.movers[mid]
                resid = (g.energy_content / gprime
                         - mover.total_transfer - phi_l[mid])
                foc_movers[f"{g.id}/{mid}"] = abs(resid) / g.energy_content

    return EnergySideSolution(
        outputs=outputs, employment=employment, phi=phi,
        marginal_surplus=alpha, mover_surplus=phi_l, gamma=gamma,
        usable_surplus=e_star, gross_income=income, gross_expenditure=spent,
        expenditure=costs, meroi=meroi_map, foc_good_residuals=foc_goods,
        foc_mover_residuals=foc_movers, binding_constraints=bindings,
        usable_capacity=capacity, slack_residual=e_star - capacity,
        phi_forced=forced, null=not problem.candidates)


def figure1_report(scenario: ScenarioConfig, state: EconomyState | None,
                   good_id: str, solution: EnergySideSolution) -> Figure1Data:
    """Curve samples and markers for one good's equilibrium rendering."""
    if state is None:
        from .growth import period_zero     # growth imports this module
        state = period_zero(scenario)
    good = state.energy_goods[good_id]
    m = effective_multiplier(good, state)
    q_star = solution.outputs.get(good_id, 0.0)

    kernel = curve(good.technology, state.movers, m)
    try:
        saturation = _saturation_quantity(good, state, kernel)
    except SolverError:
        saturation = None       # the curve overflows before the fleet is used
    spans = [1.0]
    if q_star > 0.0:
        spans.append(2.0 * q_star)
    if saturation is not None:
        spans.append(1.25 * saturation)
    q_max = _evaluable_range(kernel, max(spans))

    points = sample_curve(good.technology, state.movers, q_max,
                          samples=_FIGURE_SAMPLES, multiplier=m)
    markers: dict[str, float] = {}
    if q_star > 0.0:
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


def _evaluable_range(kernel: Curve, q_max: float) -> float:
    """``q_max``, or the largest quantity below it where the curve and its
    transfer are finite: a smooth curve's powers overflow past some output
    when its returns to scale are tiny.  Each probe is raised by a margin
    that covers the rounding of an evenly spaced sample grid."""
    def evaluates(q: float) -> bool:
        q *= 1.0 + 1e-12
        try:
            return math.isfinite(kernel.marginal(q) + kernel.transfer(q))
        except SolverError:
            return False

    if evaluates(q_max):
        return q_max
    return bisect_predicate(evaluates, 0.0, q_max, 60)   # to 2**-60 of q_max


def _saturation_quantity(good: EnergyGood, state: EconomyState,
                         kernel: Curve) -> float | None:
    """Output level whose direct-energy requirement uses the whole fleet.

    The demand ceiling drops vertically here: past this quantity the good's
    energy cannot be transferred by the movers its technology employs.
    """
    budget = sum(state.movers[mid].direct_energy
                 * state.stocks.get(mid, 0.0) for mid in kernel.movers)
    if budget <= 0.0:
        return 0.0

    def excess(q: float) -> float:
        return sum(state.movers[mid].direct_energy * x
                   for mid, x in kernel.requirements(q).items()) - budget

    hi = grow_bracket(excess, 1.0, 1e12)
    if hi is None:
        return None
    return newton_root(lambda q: (excess(q), None), 0.0, hi, 0.0,
                       rtol=1e-12)
