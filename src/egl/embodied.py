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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def power_law(tech: Technology, movers: dict[str, PrimeMoverType],
              multiplier: float = 1.0) -> tuple[float, float] | None:
    """(A, k) with gamma(q) = A * q ** k, or None for a curved profile.

    The smooth technology has k = 1/B - 1 and a constant fixed-proportions
    profile (c1 = c2 = 0) has k = 0; in both A = gamma(1).  Optima on such
    a curve invert the power in closed form instead of searching for a
    root.
    """
    if isinstance(tech, FixedProportions):
        if tech.c1 > 0.0 or tech.c2 > 0.0:
            return None
        k = 0.0
    else:
        k = 1.0 / tech.returns_to_scale - 1.0
    return marginal_embodied(tech, movers, 1.0, multiplier), k


def solve_power(a: float, p: float, y: float) -> float:
    """q with a * q ** p = y, for a, p, y > 0; inf when q overflows."""
    try:
        return (y / a) ** (1.0 / p)
    except (OverflowError, ZeroDivisionError):
        return math.inf


def marginal_embodied(tech: Technology, movers: dict[str, PrimeMoverType],
                      q: float, multiplier: float = 1.0) -> float:
    """gamma(q): energy transferred to produce one more unit at output q."""
    if q < 0.0:
        raise ValueError("quantity must be >= 0")
    if multiplier <= 0.0:
        raise ValueError("requirement multiplier must be positive")
    if isinstance(tech, FixedProportions):
        w = sum(_omega(movers, m) * nu
                for m, nu in tech.requirements.items() if nu > 0.0)
        return multiplier * w * tech.marginal_profile(q)
    b_total, k = _cd_constants(tech, movers)
    try:
        return multiplier * (k / b_total) * tech.scale ** (-1.0 / b_total) \
            * q ** (1.0 / b_total - 1.0)
    except OverflowError:
        raise _overflow(b_total) from None


def cumulative_transfer(tech: Technology, movers: dict[str, PrimeMoverType],
                        q: float, multiplier: float = 1.0) -> float:
    """G(q): integral of the marginal curve from 0 to q, in closed form."""
    if q < 0.0:
        raise ValueError("quantity must be >= 0")
    if q == 0.0:
        return 0.0
    if isinstance(tech, FixedProportions):
        w = sum(_omega(movers, m) * nu
                for m, nu in tech.requirements.items() if nu > 0.0)
        return multiplier * w * tech.cumulative_profile(q)
    b_total, k = _cd_constants(tech, movers)
    try:
        return multiplier * k * (q / tech.scale) ** (1.0 / b_total)
    except OverflowError:
        raise _overflow(b_total) from None


def average_embodied(tech: Technology, movers: dict[str, PrimeMoverType],
                     q: float, multiplier: float = 1.0) -> float:
    """gamma_avg(q) = G(q)/q; at q=0 the continuity limit of the marginal."""
    if q < 0.0:
        raise ValueError("quantity must be >= 0")
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


def meec_point(tech: Technology, movers: dict[str, PrimeMoverType],
               q: float, multiplier: float = 1.0) -> MeecPoint:
    g = cumulative_transfer(tech, movers, q, multiplier)
    marg = marginal_embodied(tech, movers, q, multiplier)
    avg = marg if q == 0.0 else g / q
    eta = 0.0 if q == 0.0 else (marg - avg) / avg
    return MeecPoint(quantity=q, marginal=marg, average=avg, cumulative=g,
                     elasticity=eta)


def sample_curve(tech: Technology, movers: dict[str, PrimeMoverType],
                 q_max: float, samples: int = 200,
                 multiplier: float = 1.0) -> list[MeecPoint]:
    """Evenly spaced curve samples on [0, q_max] for export and plotting."""
    if samples < 2:
        raise ValueError("need at least two samples")
    step = q_max / (samples - 1)
    return [meec_point(tech, movers, i * step, multiplier)
            for i in range(samples)]


# ---------------------------------------------------------------------------
# input requirements (employment) along the expansion path
# ---------------------------------------------------------------------------

def input_requirements(tech: Technology, movers: dict[str, PrimeMoverType],
                       q: float, multiplier: float = 1.0) -> dict[str, float]:
    """Mover units employed to produce total output q."""
    if q < 0.0:
        raise ValueError("quantity must be >= 0")
    if isinstance(tech, FixedProportions):
        h = tech.cumulative_profile(q)
        return {m: multiplier * nu * h
                for m, nu in tech.requirements.items() if nu > 0.0}
    b_total, k = _cd_constants(tech, movers)
    try:
        base = multiplier * (k / b_total) * (q / tech.scale) ** (1.0 / b_total)
    except OverflowError:
        raise _overflow(b_total) from None
    return {m: (beta / _omega(movers, m)) * base
            for m, beta in tech.exponents.items() if beta > 0.0}


def marginal_requirements(tech: Technology,
                          movers: dict[str, PrimeMoverType], q: float,
                          multiplier: float = 1.0) -> dict[str, float]:
    """Marginal input requirement of each mover at output q.

    This is the derivative of the requirement function holding the other
    inputs fixed (the reciprocal of the mover's marginal product for the
    smooth technology, evaluated on the cost-minimizing path).
    """
    if isinstance(tech, FixedProportions):
        hp = tech.marginal_profile(q)
        return {m: multiplier * nu * hp
                for m, nu in tech.requirements.items() if nu > 0.0}
    if q == 0.0:
        # x_l / (beta_l q) -> 0 as q -> 0 since 1/B > 1
        return {m: 0.0 for m, b in tech.exponents.items() if b > 0.0}
    reqs = input_requirements(tech, movers, q, multiplier)
    return {m: x / (tech.exponents[m] * q) for m, x in reqs.items()}


def output_cap_for_stock(tech: Technology, movers: dict[str, PrimeMoverType],
                         mover_id: str, stock: float,
                         multiplier: float = 1.0) -> float:
    """Largest output producible before mover_id's employment exceeds stock."""
    if stock <= 0.0:
        return 0.0
    if isinstance(tech, CobbDouglas):
        beta = tech.exponents[mover_id]
        b_total, k = _cd_constants(tech, movers)
        base = stock * _omega(movers, mover_id) * b_total \
            / (multiplier * beta * k)
        return tech.scale * base ** b_total
    nu = tech.requirements[mover_id]
    target = stock / (multiplier * nu)

    def gap(q: float) -> float:
        return tech.cumulative_profile(q) - target

    hi = max(target / tech.c0, 1.0)
    while gap(hi) < 0.0:
        hi *= 2.0
        if hi > BRACKET_CEILING:
            raise SolverError(
                "no_bracket",
                f"requirement curve never absorbs the stock of {mover_id!r} "
                f"below {BRACKET_CEILING:g}")
    if gap(hi) == 0.0:
        return hi
    return bracketed_root(gap, 0.0, hi, rtol=1e-14)
