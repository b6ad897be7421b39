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
computed once, and the kernel evaluates gamma, G, the employment x_l, the
marginal requirements, the power law and the output caps from them.  The
solvers build one kernel per good per solve; the module functions below
it are thin wrappers that build one per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .core import CobbDouglas, FixedProportions, PrimeMoverType, Technology
from .errors import SolverError
from .numerics import BRACKET_CEILING, bracketed_root


@dataclass(frozen=True)
class MeecPoint:
    """One sample of a good's embodied-energy curves."""

    quantity: float
    marginal: float       # joules per unit
    average: float        # joules per unit
    cumulative: float     # joules
    elasticity: float     # dimensionless


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


def _check_multiplier(multiplier: float) -> None:
    if multiplier <= 0.0:
        raise ValueError("requirement multiplier must be positive")


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
    prefix: float | None            # m (K/B) scale ** (-1/B); None: overflow

    def marginal(self, q: float) -> float:
        """gamma(q): energy transferred to produce one more unit at q."""
        _check_quantity(q)
        _check_multiplier(self.multiplier)
        if self.prefix is None:
            raise _overflow(self.b_total)
        try:
            return self.prefix * q ** (1.0 / self.b_total - 1.0)
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

    def marginal_requirements(self, q: float) -> dict[str, float]:
        """x_l(q) / (beta_l q): the reciprocal of the marginal products."""
        if q == 0.0:
            # x_l / (beta_l q) -> 0 as q -> 0 since 1/B > 1
            return {m: 0.0 for m in self.movers}
        _check_quantity(q)
        exponents = self.tech.exponents
        return {m: x / (exponents[m] * q)
                for m, x in zip(self.movers, self.load(q)[1])}

    def power_law(self) -> tuple[float, float]:
        """(A, k) with gamma(q) = A * q ** k: k = 1/B - 1, A = gamma(1)."""
        return self.marginal(1.0), 1.0 / self.b_total - 1.0

    def output_cap(self, mover_id: str, stock: float) -> float:
        """Largest output whose employment of mover_id stays within stock."""
        if stock <= 0.0:
            return 0.0
        beta = self.tech.exponents[mover_id]
        base = stock * self.omegas[mover_id] * self.b_total \
            / (self.multiplier * beta * self.k)
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

    def marginal(self, q: float) -> float:
        """gamma(q): energy transferred to produce one more unit at q."""
        _check_quantity(q)
        _check_multiplier(self.multiplier)
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

        def gap(q: float) -> float:
            return tech.cumulative_profile(q) - target

        hi = max(target / tech.c0, 1.0)
        while gap(hi) < 0.0:
            hi *= 2.0
            if hi > BRACKET_CEILING:
                raise SolverError(
                    "no_bracket",
                    f"requirement curve never absorbs the stock of "
                    f"{mover_id!r} below {BRACKET_CEILING:g}")
        if gap(hi) == 0.0:
            return hi
        return bracketed_root(gap, 0.0, hi, rtol=1e-14)


Curve = SmoothCurve | ProfileCurve


def curve(tech: Technology, movers: dict[str, PrimeMoverType],
          multiplier: float = 1.0) -> Curve:
    """One good's curve kernel for these movers and multiplier."""
    if isinstance(tech, FixedProportions):
        used = [(m, nu) for m, nu in tech.requirements.items() if nu > 0.0]
        w = sum([_omega(movers, m) * nu for m, nu in used])
        return ProfileCurve(
            tech, multiplier, movers=tuple([m for m, _ in used]),
            weights=tuple([multiplier * nu for _, nu in used]),
            w=w, mw=multiplier * w)
    b_total, k = _cd_constants(tech, movers)
    omegas = {m: _omega(movers, m)
              for m, beta in tech.exponents.items() if beta > 0.0}
    coef = multiplier * (k / b_total)
    try:
        prefix = coef * tech.scale ** (-1.0 / b_total)
    except OverflowError:
        prefix = None
    return SmoothCurve(
        tech, multiplier, movers=tuple(omegas), omegas=omegas,
        ratios=tuple([tech.exponents[m] / omega
                      for m, omega in omegas.items()]),
        b_total=b_total, k=k, cost=multiplier * k, coef=coef, prefix=prefix)


def power_law(tech: Technology, movers: dict[str, PrimeMoverType],
              multiplier: float = 1.0) -> tuple[float, float] | None:
    """(A, k) with gamma(q) = A * q ** k, or None for a curved profile.

    The smooth technology has k = 1/B - 1 and a constant fixed-proportions
    profile (c1 = c2 = 0) has k = 0; in both A = gamma(1).  Optima on such
    a curve invert the power in closed form instead of searching for a
    root.
    """
    return curve(tech, movers, multiplier).power_law()


def solve_power(a: float, p: float, y: float) -> float:
    """q with a * q ** p = y, for a, p, y > 0; inf when q overflows."""
    try:
        return (y / a) ** (1.0 / p)
    except (OverflowError, ZeroDivisionError):
        return math.inf


def marginal_embodied(tech: Technology, movers: dict[str, PrimeMoverType],
                      q: float, multiplier: float = 1.0) -> float:
    """gamma(q): energy transferred to produce one more unit at output q."""
    _check_quantity(q)
    _check_multiplier(multiplier)
    return curve(tech, movers, multiplier).marginal(q)


def cumulative_transfer(tech: Technology, movers: dict[str, PrimeMoverType],
                        q: float, multiplier: float = 1.0) -> float:
    """G(q): integral of the marginal curve from 0 to q, in closed form."""
    _check_quantity(q)
    if q == 0.0:
        return 0.0
    return curve(tech, movers, multiplier).transfer(q)


def average_embodied(tech: Technology, movers: dict[str, PrimeMoverType],
                     q: float, multiplier: float = 1.0) -> float:
    """gamma_avg(q) = G(q)/q; at q=0 the continuity limit of the marginal."""
    _check_quantity(q)
    if q == 0.0:
        # fixed proportions: gamma(0); smooth: exponent 1/B - 1 > 0 gives 0
        return marginal_embodied(tech, movers, 0.0, multiplier)
    return cumulative_transfer(tech, movers, q, multiplier) / q


def elasticity(tech: Technology, movers: dict[str, PrimeMoverType],
               q: float, multiplier: float = 1.0) -> float:
    """Quantity elasticity of the average curve, (gamma - gamma_avg)/gamma_avg."""
    if q <= 0.0:
        raise ValueError("elasticity requires quantity > 0")
    avg = average_embodied(tech, movers, q, multiplier)
    return (marginal_embodied(tech, movers, q, multiplier) - avg) / avg


def _point(kernel: Curve, q: float) -> MeecPoint:
    g = kernel.transfer(q)
    marg = kernel.marginal(q)
    avg = marg if q == 0.0 else g / q
    eta = 0.0 if q == 0.0 else (marg - avg) / avg
    return MeecPoint(quantity=q, marginal=marg, average=avg, cumulative=g,
                     elasticity=eta)


def meec_point(tech: Technology, movers: dict[str, PrimeMoverType],
               q: float, multiplier: float = 1.0) -> MeecPoint:
    return _point(curve(tech, movers, multiplier), q)


def sample_curve(tech: Technology, movers: dict[str, PrimeMoverType],
                 q_max: float, samples: int = 200,
                 multiplier: float = 1.0) -> list[MeecPoint]:
    """Evenly spaced curve samples on [0, q_max] for export and plotting."""
    if samples < 2:
        raise ValueError("need at least two samples")
    kernel = curve(tech, movers, multiplier)
    step = q_max / (samples - 1)
    return [_point(kernel, i * step) for i in range(samples)]


# ---------------------------------------------------------------------------
# input requirements (employment) along the expansion path
# ---------------------------------------------------------------------------

def input_requirements(tech: Technology, movers: dict[str, PrimeMoverType],
                       q: float, multiplier: float = 1.0) -> dict[str, float]:
    """Mover units employed to produce total output q."""
    _check_quantity(q)
    return curve(tech, movers, multiplier).requirements(q)


def marginal_requirements(tech: Technology,
                          movers: dict[str, PrimeMoverType], q: float,
                          multiplier: float = 1.0) -> dict[str, float]:
    """Marginal input requirement of each mover at output q.

    This is the derivative of the requirement function holding the other
    inputs fixed (the reciprocal of the mover's marginal product for the
    smooth technology, evaluated on the cost-minimizing path).
    """
    return curve(tech, movers, multiplier).marginal_requirements(q)


def output_cap_for_stock(tech: Technology, movers: dict[str, PrimeMoverType],
                         mover_id: str, stock: float,
                         multiplier: float = 1.0) -> float:
    """Largest output producible before mover_id's employment exceeds stock."""
    if stock <= 0.0:
        return 0.0
    return curve(tech, movers, multiplier).output_cap(mover_id, stock)
