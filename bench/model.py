"""Closed forms of the model, written independently of egl.

The generators size their inputs with these formulas and the correctness
checks compare egl's answers against them, so neither depends on the code
under test.  Notation follows the egl README: a mover's per-unit transfer
is omega = power_rate * period_length + depreciation * avg_embodied and its
direct energy is eps = power_rate * period_length.

For a Cobb-Douglas good with exponents beta_l (B = sum beta_l) and scale s,
the least energy cost of output Q is C(Q) = K * (Q / s) ** (1 / B) with
K = B * prod((omega_l / beta_l) ** (beta_l / B)); the marginal curve is
gamma(Q) = C(Q) / (B * Q) and mover l is employed at
x_l(Q) = beta_l * C(Q) / (B * omega_l).
"""

from __future__ import annotations

import math


def transfer(mover: dict, period: float = 1.0) -> float:
    """omega: energy one unit of the mover transfers per period."""
    return (mover["power_rate"] * period
            + mover["depreciation"] * mover["avg_embodied"])


def direct(mover: dict, period: float = 1.0) -> float:
    """eps: direct energy of one unit of the mover per period."""
    return mover["power_rate"] * period


class CobbDouglas:
    """Cost, marginal curve and employment of one smooth energy good."""

    def __init__(self, good: dict, omega: dict[str, float]):
        tech = good["technology"]
        self.delta = good["energy_content"]
        self.scale = tech["scale"]
        self.beta = {m: b for m, b in tech["exponents"].items() if b > 0.0}
        self.b_total = sum(self.beta.values())
        k = self.b_total
        for m, b in self.beta.items():
            k *= (omega[m] / b) ** (b / self.b_total)
        self.k = k
        self.omega = omega

    def cost(self, q: float) -> float:
        return self.k * (q / self.scale) ** (1.0 / self.b_total)

    def marginal(self, q: float) -> float:
        return self.cost(q) / (self.b_total * q)

    def employment(self, q: float) -> dict[str, float]:
        c = self.cost(q)
        return {m: b * c / (self.b_total * self.omega[m])
                for m, b in self.beta.items()}

    def interior_output(self) -> float:
        """Q* with gamma(Q*) = delta: (delta B s^(1/B) / K)^(B / (1 - B))."""
        b = self.b_total
        return (self.delta * b * self.scale ** (1.0 / b) / self.k) \
            ** (b / (1.0 - b))

    def premium(self, q: float, phi: float,
                eps: dict[str, float]) -> float:
        """phi / (1 - phi) times the mean of eps_l * dx_l/dQ over movers."""
        emp = self.employment(q)
        mean = sum(eps[m] * emp[m] / (b * q)
                   for m, b in self.beta.items()) / len(self.beta)
        return phi / (1.0 - phi) * mean


def flat_cost(good: dict, omega: dict[str, float], q: float) -> float:
    """Cost of q units of a fixed-proportions good with a flat profile c0."""
    tech = good["technology"]
    w = sum(omega[m] * nu for m, nu in tech["requirements"].items())
    return good.get("requirement_multiplier", 1.0) \
        * tech["curvature"]["c0"] * w * q


def one_mover_phi(doc: dict) -> float:
    """Usability fixed point phi* of a one-mover economy of smooth goods.

    With one mover whose per-unit transfer equals its direct energy
    (avg_embodied = 0), the first-order condition gives
    Q_g(phi) = Q*_g * (1 - phi) ** (B_g / (1 - B_g)), and since the cost
    of output is eps times the movers it employs, usability E = U reads
    sum_g delta_g Q_g(phi) = eps * stock.  The left side falls in phi, so
    bisection on t = 1 - phi pins the root.  Returns 0 when the interior
    optimum already fits.
    """
    (mover,) = doc["prime_movers"]
    omega = {mover["id"]: transfer(mover, doc["period_length"])}
    target = direct(mover, doc["period_length"]) * mover["endowment"]
    terms = []
    for good in doc["energy_goods"]:
        cd = CobbDouglas(good, omega)
        terms.append((cd.delta * cd.interior_output(),
                      cd.b_total / (1.0 - cd.b_total)))

    def income(t: float) -> float:
        return sum(a * t ** p for a, p in terms)

    if income(1.0) <= target:
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if income(mid) > target:
            hi = mid
        else:
            lo = mid
    return 1.0 - 0.5 * (lo + hi)


def rel_close(a: float, b: float, rtol: float, atol: float = 1e-12) -> bool:
    return math.isfinite(a) and abs(a - b) <= atol + rtol * abs(b)
