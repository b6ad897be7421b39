"""Marginal and average embodied-energy curves for any good's technology.

The marginal curve is the primitive: gamma(Q) is the total energy (direct
plus amortized embodied, valued at each mover's per-unit transfer omega)
needed to produce one more unit at output level Q.  The cumulative transfer
G and average curve follow by integration, so the elasticity identity
gamma = gamma_avg * (1 + eta) holds by construction.

For the smooth technology the curve comes from the cost-minimizing input mix
at input energy prices omega_l; for fixed proportions it is the requirement
profile times the per-unit transfers.  A requirement multiplier m scales
gamma, gamma_avg and G linearly and leaves eta unchanged.

``curve(tech, movers, m)`` compiles one good's curve for fixed movers and
multiplier: every constant that does not depend on the output q is
computed once, and the kernel evaluates gamma, G, the employment x_l and
its slope, the marginal requirements, the power law and the output caps
from them.  A smooth cap is closed form; a fixed-proportions cap solves
h(q) = stock / (m nu_l) by Newton with the slope h', from the closed-form
bound the profile's linear or power term gives.  A kernel also carries
the good's premium weight, which its technology and movers alone fix:
kappa, the mean of eps_l / omega_l, for the smooth technology and
eps_mean, the mean of eps_l nu_l, for fixed proportions.  The solvers
take their kernels from a ``Kernels`` store, which keeps the latest
kernel of each good and rebuilds it only when the good's technology or
multiplier changes: a solve given no store builds one kernel per good,
and ``simulate`` keeps one store for the whole run, so a kernel serves
every period until an arrival, an event or depletion changes it.  The
store also keeps one memo, what the consumer solve derives from its
goods' kernels, until one of them is rebuilt.  The module functions
below build one per call: the marginal, average and cumulative curves
and the elasticity are the oracles the acceptance suite checks the
model's identities on, and ``sample_curve`` samples a curve for export
and plotting.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, NamedTuple

from .core import FixedProportions, Immutable, _set
from .errors import SolverError
from .numerics import XTOL, newton_root

if TYPE_CHECKING:
    from .core import (CobbDouglas, EnergyGood, NonEnergyGood,
                       PrimeMoverType, Technology)


class MeecPoint(Immutable):
    """One sample of a good's embodied-energy curves."""

    _fields = __slots__ = ("quantity", "marginal", "average", "cumulative",
                           "elasticity")

    def __init__(self, quantity: float, marginal: float, average: float,
                 cumulative: float, elasticity: float) -> None:
        _set(self, "quantity", quantity)
        _set(self, "marginal", marginal)        # joules per unit
        _set(self, "average", average)          # joules per unit
        _set(self, "cumulative", cumulative)    # joules
        _set(self, "elasticity", elasticity)    # dimensionless


def _omega(movers: dict[str, PrimeMoverType], mover_id: str) -> float:
    try:
        return movers[mover_id].total_transfer
    except KeyError:
        raise SolverError(
            "infeasible",
            f"technology references absent prime mover {mover_id!r}") from None


def _cd_constants(tech: CobbDouglas,
                  movers: dict[str, PrimeMoverType]) -> tuple[float, float]:
    """Returns-to-scale B and cost constant K for the smooth technology.

    Minimizing sum(omega_l x_l) subject to scale * prod(x^beta) = Q gives the
    energy cost C(Q) = K * (Q / scale) ** (1/B) with
    K = B * prod((omega_l / beta_l) ** (beta_l / B)).
    """
    b_total = tech.returns_to_scale
    k = 1.0
    for mover_id, beta in tech.exponents.items():
        if beta <= 0.0:
            continue
        k *= (_omega(movers, mover_id) / beta) ** (beta / b_total)
    return b_total, b_total * k


def _overflow(b_total: float) -> SolverError:
    """Error for a smooth curve whose 1/B powers leave the float range."""
    return SolverError("degenerate", "Cobb-Douglas curve overflows at "
                       f"returns to scale {b_total:g}")


def _check_quantity(q: float) -> None:
    if q < 0.0:
        raise ValueError("quantity must be >= 0")


class SmoothCurve(NamedTuple):
    """Compiled Cobb-Douglas curve.  With p = (q / scale) ** (1/B):
    G = m K p, x_l = (beta_l / omega_l) * m (K/B) p and
    gamma = m (K/B) scale ** (-1/B) * q ** (1/B - 1)."""

    tech: CobbDouglas
    multiplier: float
    movers: tuple[str, ...]         # used movers, in exponent order
    omegas: dict[str, float]
    ratios: tuple[float, ...]       # beta_l / omega_l
    b_total: float                  # B
    k: float                        # K
    cost: float                     # m K
    coef: float                     # m (K/B)
    prefix: float | None            # m (K/B) scale ** (-1/B); None: not finite
    exponent: float                 # 1/B - 1
    kappa: float                    # mean of eps_l / omega_l: premium weight

    def marginal(self, q: float) -> float:
        """gamma(q): energy transferred to produce one more unit at q."""
        _check_quantity(q)
        if self.prefix is None:
            raise _overflow(self.b_total)
        try:
            return self.prefix * q ** self.exponent
        except OverflowError:
            raise _overflow(self.b_total) from None

    def transfer(self, q: float) -> float:
        """G(q): integral of the marginal curve from 0 to q."""
        _check_quantity(q)
        if q == 0.0:
            return 0.0
        return self.load(q)[0]

    def load(self, q: float) -> tuple[float, list[float]]:
        """G(q) and the units x_l(q) of each mover in ``movers``, q >= 0."""
        try:
            p = (q / self.tech.scale) ** (1.0 / self.b_total)
        except OverflowError:
            raise _overflow(self.b_total) from None
        base = self.coef * p
        return self.cost * p, [r * base for r in self.ratios]

    def requirements(self, q: float) -> dict[str, float]:
        """Units x_l(q) of each used mover, q >= 0."""
        return dict(zip(self.movers, self.load(q)[1]))

    def units(self, q: float, i: int) -> tuple[float, float]:
        """x_l(q) of the mover in slot ``i`` and its slope x_l / (B q)."""
        x = self.load(q)[1][i]
        return x, x / (self.b_total * q) if x > 0.0 else 0.0

    def marginal_requirements(self, q: float) -> dict[str, float]:
        """x_l(q) / (beta_l q): the reciprocal of the marginal products."""
        if q == 0.0:
            # x_l / (beta_l q) -> 0 as q -> 0 since 1/B > 1
            return {m: 0.0 for m in self.movers}
        _check_quantity(q)
        exponents = self.tech.exponents
        try:
            return {m: x / (exponents[m] * q)
                    for m, x in zip(self.movers, self.load(q)[1])}
        except ZeroDivisionError:       # beta_l q underflows
            raise SolverError("degenerate", "marginal requirements "
                              f"underflow at output {q:g}") from None

    def power_law(self) -> tuple[float, float]:
        """(A, k) with gamma(q) = A * q ** k: k = 1/B - 1, A = gamma(1)."""
        return self.marginal(1.0), self.exponent

    def output_cap(self, mover_id: str, stock: float) -> float:
        """Largest output whose employment of mover_id stays within stock."""
        if stock <= 0.0:
            return 0.0
        beta = self.tech.exponents[mover_id]
        denominator = self.multiplier * beta * self.k
        if denominator == 0.0:
            raise SolverError("degenerate", "Cobb-Douglas curve underflows "
                              f"at returns to scale {self.b_total:g}")
        base = stock * self.omegas[mover_id] * self.b_total / denominator
        return self.tech.scale * base ** self.b_total


class ProfileCurve(NamedTuple):
    """Compiled fixed-proportions curve: with the requirement profile h,
    G = m w h(q), x_l = m nu_l h(q) and gamma = m w h'(q), where
    w = sum(omega_l nu_l)."""

    tech: FixedProportions
    multiplier: float
    movers: tuple[str, ...]         # used movers, in requirement order
    weights: tuple[float, ...]      # m nu_l
    w: float                        # sum of omega_l nu_l
    mw: float                       # m w
    eps_mean: float                 # mean of eps_l nu_l: premium weight

    def marginal(self, q: float) -> float:
        """gamma(q): energy transferred to produce one more unit at q."""
        _check_quantity(q)
        return self.mw * self.tech.marginal_profile(q)

    def transfer(self, q: float) -> float:
        """G(q): integral of the marginal curve from 0 to q."""
        _check_quantity(q)
        if q == 0.0:
            return 0.0
        return self.load(q)[0]

    def load(self, q: float) -> tuple[float, list[float]]:
        """G(q) and the units x_l(q) of each mover in ``movers``, q >= 0."""
        h = self.tech.cumulative_profile(q)
        return self.mw * h, [c * h for c in self.weights]

    def requirements(self, q: float) -> dict[str, float]:
        """Units x_l(q) of each used mover, q >= 0."""
        return dict(zip(self.movers, self.load(q)[1]))

    def units(self, q: float, i: int) -> tuple[float, float]:
        """x_l(q) of the mover in slot ``i`` and its slope m nu_l h'(q)."""
        return self.load(q)[1][i], \
            self.weights[i] * self.tech.marginal_profile(q)

    def marginal_requirements(self, q: float) -> dict[str, float]:
        """m nu_l h'(q) per used mover."""
        hp = self.tech.marginal_profile(q)
        return {m: c * hp for m, c in zip(self.movers, self.weights)}

    def power_law(self) -> tuple[float, float] | None:
        """(gamma(1), 0) for a constant profile (c1 = c2 = 0), else None."""
        if self.tech.c1 > 0.0 or self.tech.c2 > 0.0:
            return None
        return self.marginal(1.0), 0.0

    def output_cap(self, mover_id: str, stock: float) -> float:
        """Largest output whose employment of mover_id stays within stock."""
        if stock <= 0.0:
            return 0.0
        tech = self.tech
        target = stock / (self.multiplier * tech.requirements[mover_id])

        def gap(q: float) -> tuple[float, float]:
            return tech.cumulative_profile(q) - target, \
                tech.marginal_profile(q)

        # h(q) >= c0 q and h(q) >= c2 q_s (q / q_s) ** (rho + 1) / (rho + 1),
        # so the cap lies below the root of either bound; Newton starts at
        # the lower one, and twice it closes the bracket whatever the
        # rounding
        start = target / tech.c0
        if tech.c2 > 0.0:
            bound = tech.q_s * solve_power(
                tech.c2, tech.rho + 1.0, (tech.rho + 1.0) * target / tech.q_s)
            if bound > 0.0:         # else it underflowed
                start = min(start, bound)
        if math.isinf(start):
            raise SolverError("degenerate", f"output cap of {mover_id!r} "
                              f"stock {stock:g} overflows")
        hi = min(max(2.0 * start, XTOL), sys.float_info.max)
        return newton_root(gap, 0.0, hi, start, rtol=1e-14)


Curve = SmoothCurve | ProfileCurve


def curve(tech: Technology, movers: dict[str, PrimeMoverType],
          multiplier: float = 1.0) -> Curve:
    """One good's curve kernel for these movers and multiplier.

    Raises ``SolverError("degenerate")`` unless the multiplier is positive
    and finite: factors that are each valid, such as a static multiplier
    and an event shift, can compose to 0 or to infinity.
    """
    if not 0.0 < multiplier < math.inf:
        raise SolverError("degenerate", f"requirement multiplier "
                          f"{multiplier:g} is not positive and finite")
    if isinstance(tech, FixedProportions):
        used = [(m, nu) for m, nu in tech.requirements.items() if nu > 0.0]
        w = sum([_omega(movers, m) * nu for m, nu in used])
        return ProfileCurve(
            tech, multiplier, movers=tuple([m for m, _ in used]),
            weights=tuple([multiplier * nu for _, nu in used]),
            w=w, mw=multiplier * w,
            eps_mean=sum(movers[m].direct_energy * nu
                         for m, nu in used) / len(used))
    b_total, k = _cd_constants(tech, movers)
    omegas = {m: _omega(movers, m)
              for m, beta in tech.exponents.items() if beta > 0.0}
    coef = multiplier * (k / b_total)
    try:
        prefix = coef * tech.scale ** (-1.0 / b_total)
    except OverflowError:
        prefix = math.inf
    return SmoothCurve(
        tech, multiplier, movers=tuple(omegas), omegas=omegas,
        ratios=tuple([tech.exponents[m] / omega
                      for m, omega in omegas.items()]),
        b_total=b_total, k=k, cost=multiplier * k, coef=coef,
        prefix=prefix if prefix < math.inf else None,
        exponent=1.0 / b_total - 1.0,
        kappa=sum(movers[m].direct_energy / omega
                  for m, omega in omegas.items()) / len(omegas))


class Kernels(dict):
    """The latest curve kernel of each good, by good id, and one memo.

    A good's kernel reads the movers only through the omega_l and eps_l
    of the movers its technology uses, which no period changes, and no
    good uses a mover before it arrives.  So within one scenario's run a
    kernel stays valid while its good's technology object and effective
    multiplier stay the same.  ``simulate`` keeps one store for the run; a
    solve given none fills a fresh one.
    """

    memo = None         # (basis, value) of the last ``derived`` call

    def derived(self, basis: tuple, derive, *args):
        """``derive(*args)``, kept while ``basis`` holds the objects it was
        derived from, or equal ones."""
        if self.memo is None or self.memo[0] != basis:
            self.memo = basis, derive(*args)
        return self.memo[1]

    def of(self, good: EnergyGood | NonEnergyGood,
           movers: dict[str, PrimeMoverType], multiplier: float) -> Curve:
        """The good's kernel at this multiplier: the stored one when it was
        built for the good's technology and this multiplier, else a new
        one, which replaces it."""
        kernel = self.get(good.id)
        if kernel is None or kernel.tech is not good.technology \
                or kernel.multiplier != multiplier:
            kernel = self[good.id] = curve(good.technology, movers,
                                           multiplier)
        return kernel


def solve_power(a: float, p: float, y: float) -> float:
    """q with a * q ** p = y, for a, p, y > 0; inf when q overflows."""
    try:
        return (y / a) ** (1.0 / p)
    except (OverflowError, ZeroDivisionError):
        return math.inf


def marginal_embodied(tech: Technology, movers: dict[str, PrimeMoverType],
                      q: float, multiplier: float = 1.0) -> float:
    """gamma(q): energy transferred to produce one more unit at output q."""
    return curve(tech, movers, multiplier).marginal(q)


def cumulative_transfer(tech: Technology, movers: dict[str, PrimeMoverType],
                        q: float, multiplier: float = 1.0) -> float:
    """G(q): integral of the marginal curve from 0 to q, in closed form."""
    return curve(tech, movers, multiplier).transfer(q)


def average_embodied(tech: Technology, movers: dict[str, PrimeMoverType],
                     q: float, multiplier: float = 1.0) -> float:
    """gamma_avg(q) = G(q)/q; at q=0 the continuity limit of the marginal
    (gamma(0) for fixed proportions, 0 for the smooth technology, whose
    exponent 1/B - 1 is positive)."""
    return _point(curve(tech, movers, multiplier), q).average


def elasticity(tech: Technology, movers: dict[str, PrimeMoverType],
               q: float, multiplier: float = 1.0) -> float:
    """Quantity elasticity of the average curve, (gamma - gamma_avg)/gamma_avg."""
    if q <= 0.0:
        raise ValueError("elasticity requires quantity > 0")
    return _point(curve(tech, movers, multiplier), q).elasticity


def _point(kernel: Curve, q: float) -> MeecPoint:
    g = kernel.transfer(q)
    marg = kernel.marginal(q)
    avg = marg if q == 0.0 else g / q
    if q == 0.0:
        # the limit of eta: 1/B - 1 at every q on the smooth curve, and 0
        # where a profile's average meets its marginal
        eta = kernel.exponent if isinstance(kernel, SmoothCurve) else 0.0
    elif avg == 0.0:
        eta = math.nan      # G(q) underflows, so eta is 0/0
    else:
        eta = (marg - avg) / avg
    return MeecPoint(quantity=q, marginal=marg, average=avg, cumulative=g,
                     elasticity=eta)


def sample_curve(tech: Technology, movers: dict[str, PrimeMoverType],
                 q_max: float, samples: int = 200,
                 multiplier: float = 1.0) -> list[MeecPoint]:
    """Evenly spaced curve samples on [0, q_max] for export and plotting."""
    if samples < 2:
        raise ValueError("need at least two samples")
    kernel = curve(tech, movers, multiplier)
    step = q_max / (samples - 1)
    return [_point(kernel, i * step) for i in range(samples)]
