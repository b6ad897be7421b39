import decimal
import math
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from egl import load_scenario, simulate
from egl.core import (CobbDouglas, FixedProportions, PrimeMoverType,
                      effective_multiplier)
from egl.embodied import (average_embodied, cumulative_transfer, curve,
                          elasticity, marginal_embodied, sample_curve)
from egl.errors import SolverError
from egl.surplus import scarcity_premium

from oracles import adaptive_simpson


def movers_with_omega(**omegas):
    # zero embodied energy makes the per-unit transfer equal the direct one
    return {mid: PrimeMoverType(id=mid, power_rate=w, period_length=1.0,
                                depreciation=0.5, avg_embodied=0.0,
                                endowment=1.0, max_accum_rate=0.0)
            for mid, w in omegas.items()}


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
MOVER1 = movers_with_omega(m=1.0)
SQRT_TECH = CobbDouglas(scale=1.0, exponents={"m": 0.5})   # C(Q) = Q**2
CONST_TECH = FixedProportions(requirements={"m": 1.0}, c0=1.0)
# gamma(q) = 1 + 2q: constant 1 plus linear term
LINEAR_TECH = FixedProportions(requirements={"m": 1.0}, c0=1.0, c2=2.0,
                               q_s=1.0, rho=1.0)
DECAY_TECH = FixedProportions(requirements={"m": 1.0}, c0=1.0, c1=2.0,
                              tau=1.0)


def cumulative_transfer_quadrature(tech, movers, q, multiplier=1.0,
                                   tol=1e-9):
    """G(q) by adaptive quadrature of the marginal curve, an independent
    check of the closed forms; absolute tolerance tol * max(1, estimate)."""
    if q <= 0.0:
        return 0.0
    rough = marginal_embodied(tech, movers, q, multiplier) * q
    return adaptive_simpson(
        lambda x: marginal_embodied(tech, movers, x, multiplier),
        0.0, q, tol=tol * max(1.0, abs(rough)))


class TestMarginal:
    def test_square_cost_curve(self):
        # C(Q) = Q**2 so gamma(2) = 4
        assert marginal_embodied(SQRT_TECH, MOVER1, 2.0) == pytest.approx(4.0)

    def test_constant_requirement(self):
        for q in (0.0, 1.0, 13.7):
            assert marginal_embodied(CONST_TECH, MOVER1, q) == 1.0

    def test_decaying_interval_limits(self):
        # h'(0) = 1 + 2 = 3; h'(q) -> 1 as the decay dies out
        assert marginal_embodied(DECAY_TECH, MOVER1, 0.0) == pytest.approx(3.0)
        assert marginal_embodied(DECAY_TECH, MOVER1, 60.0) == pytest.approx(
            1.0, rel=1e-9)

    def test_downward_then_flat(self):
        g1 = marginal_embodied(DECAY_TECH, MOVER1, 0.5)
        g2 = marginal_embodied(DECAY_TECH, MOVER1, 2.0)
        assert g2 < g1

    def test_negative_quantity_rejected(self):
        with pytest.raises(ValueError):
            marginal_embodied(SQRT_TECH, MOVER1, -1.0)

    def test_absent_mover_rejected(self):
        with pytest.raises(SolverError):
            marginal_embodied(SQRT_TECH, {}, 1.0)

    @pytest.mark.parametrize("multiplier", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("tech", [SQRT_TECH, CONST_TECH])
    def test_multiplier_outside_the_positive_floats_rejected(self, tech,
                                                             multiplier):
        with pytest.raises(SolverError) as err:
            curve(tech, MOVER1, multiplier)
        assert err.value.kind == "degenerate"


class TestCumulative:
    def test_square_cost(self):
        assert cumulative_transfer(SQRT_TECH, MOVER1, 5.0) == pytest.approx(
            25.0)

    def test_empty_integral(self):
        for tech in (SQRT_TECH, CONST_TECH, LINEAR_TECH):
            assert cumulative_transfer(tech, MOVER1, 0.0) == 0.0

    def test_rectangle_area(self):
        assert cumulative_transfer(CONST_TECH, MOVER1, 7.0) == pytest.approx(
            7.0)

    def test_quadrature_matches_closed_form(self):
        for tech in (SQRT_TECH, CONST_TECH, LINEAR_TECH, DECAY_TECH):
            for q in (0.5, 3.0, 11.0):
                closed = cumulative_transfer(tech, MOVER1, q)
                quad = cumulative_transfer_quadrature(tech, MOVER1, q)
                assert quad == pytest.approx(
                    closed, abs=1e-9 * max(1.0, closed))

    @pytest.mark.parametrize("q", [1e-12, 1e-9, 1e-6])
    def test_profile_exact_at_small_quantity(self, q):
        # the shocks scenario's wood profile against a 50-digit evaluation;
        # 1 - exp(-q/tau) cancels to ~1e-4 relative at q = 1e-12
        tech = FixedProportions(requirements={"m": 1.0}, c0=0.5, c1=4.0,
                                tau=2.0, c2=0.4, q_s=4.0, rho=2.0)
        with decimal.localcontext(prec=50):
            x, c0, c1, tau, c2, q_s, rho = map(
                Decimal, (q, 0.5, 4.0, 2.0, 0.4, 4.0, 2.0))
            exact = (c0 * x + c1 * tau * (1 - (-x / tau).exp())
                     + c2 * q_s / (rho + 1) * (x / q_s) ** (rho + 1))
        got = Decimal(tech.cumulative_profile(q))
        assert abs(got - exact) <= Decimal(1e-14) * exact


class TestAverage:
    def test_square_cost(self):
        assert average_embodied(SQRT_TECH, MOVER1, 5.0) == pytest.approx(5.0)

    def test_constant_curve(self):
        for q in (0.3, 1.0, 9.0):
            assert average_embodied(CONST_TECH, MOVER1, q) == pytest.approx(
                1.0)

    def test_linear_curve(self):
        # int_0^1 (1 + 2q) dq = 2 so the average at Q = 1 is 2
        assert average_embodied(LINEAR_TECH, MOVER1, 1.0) == pytest.approx(
            2.0)

    def test_origin_defined_by_continuity(self):
        assert average_embodied(CONST_TECH, MOVER1, 0.0) == 1.0
        assert average_embodied(SQRT_TECH, MOVER1, 0.0) == 0.0


class TestElasticity:
    def test_power_law_constant_elasticity(self):
        # gamma ~ Q**(1/B - 1) gives eta = 1/B - 1 at every Q
        for b in (0.3, 0.5, 0.8):
            tech = CobbDouglas(scale=1.0, exponents={"m": b})
            for q in (0.4, 2.0, 50.0):
                assert elasticity(tech, MOVER1, q) == pytest.approx(
                    1.0 / b - 1.0, abs=1e-10)

    def test_flat_curve(self):
        assert elasticity(CONST_TECH, MOVER1, 4.2) == pytest.approx(0.0,
                                                                    abs=1e-12)

    def test_linear_curve(self):
        # gamma = 3, average = 2 at Q = 1
        assert elasticity(LINEAR_TECH, MOVER1, 1.0) == pytest.approx(0.5)

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            elasticity(SQRT_TECH, MOVER1, 0.0)


def random_technology(rng):
    if rng.random() < 0.5:
        n = int(rng.integers(1, 4))
        betas = rng.uniform(0.05, 0.5, size=n)
        betas *= rng.uniform(0.3, 0.9) / betas.sum()
        movers = movers_with_omega(
            **{f"m{i}": float(w) for i, w in
               enumerate(rng.uniform(0.5, 5.0, size=n))})
        tech = CobbDouglas(scale=float(rng.uniform(0.5, 3.0)),
                           exponents={f"m{i}": float(b)
                                      for i, b in enumerate(betas)})
        return tech, movers
    movers = movers_with_omega(m=float(rng.uniform(0.5, 5.0)))
    tech = FixedProportions(
        requirements={"m": float(rng.uniform(0.2, 3.0))},
        c0=float(rng.uniform(0.1, 2.0)), c1=float(rng.uniform(0.0, 3.0)),
        tau=float(rng.uniform(0.3, 5.0)), c2=float(rng.uniform(0.0, 2.0)),
        q_s=float(rng.uniform(0.5, 10.0)), rho=float(rng.uniform(1.0, 3.0)))
    return tech, movers


class TestCurveIdentities:
    def test_marginal_average_elasticity_identity(self):
        # gamma(Q) = gamma_avg(Q) * (1 + eta(Q)) on 1000 random draws
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            tech, movers = random_technology(rng)
            q = float(rng.uniform(0.01, 50.0))
            m = float(rng.uniform(0.5, 2.0))
            gamma = marginal_embodied(tech, movers, q, m)
            avg = average_embodied(tech, movers, q, m)
            eta = elasticity(tech, movers, q, m)
            assert gamma == pytest.approx(avg * (1.0 + eta), rel=1e-8)

    def test_cumulative_derivative_matches_marginal(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            tech, movers = random_technology(rng)
            q = float(rng.uniform(0.05, 40.0))
            h = 1e-5 * q
            fd = (cumulative_transfer(tech, movers, q + h)
                  - cumulative_transfer(tech, movers, q - h)) / (2.0 * h)
            assert fd == pytest.approx(marginal_embodied(tech, movers, q),
                                       rel=1e-6)

    def test_elasticity_matches_average_finite_difference(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            tech, movers = random_technology(rng)
            q = float(rng.uniform(0.05, 40.0))
            h = 1e-5 * q
            davg = (average_embodied(tech, movers, q + h)
                    - average_embodied(tech, movers, q - h)) / (2.0 * h)
            implied = average_embodied(tech, movers, q) + q * davg
            assert marginal_embodied(tech, movers, q) == pytest.approx(
                implied, rel=1e-6)

    def test_multiplier_scales_curves_linearly(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            tech, movers = random_technology(rng)
            q = float(rng.uniform(0.1, 20.0))
            for m in (0.25, 2.0, 7.5):
                assert marginal_embodied(tech, movers, q, m) \
                    == pytest.approx(m * marginal_embodied(tech, movers, q),
                                     rel=1e-12)
                assert cumulative_transfer(tech, movers, q, m) \
                    == pytest.approx(m * cumulative_transfer(tech, movers, q),
                                     rel=1e-12)
                assert elasticity(tech, movers, q, m) == pytest.approx(
                    elasticity(tech, movers, q), rel=1e-9, abs=1e-12)

    def test_eventually_upward(self):
        tech = FixedProportions(requirements={"m": 1.0}, c0=0.5, c1=4.0,
                                tau=2.0, c2=0.3, q_s=5.0, rho=2.0)
        # beyond q_s * max(1, (c1 * rho)^(1/rho)) the curve must rise
        threshold = tech.q_s * max(1.0, (tech.c1 * tech.rho)
                                   ** (1.0 / tech.rho))
        qs = [threshold * (1.0 + 0.3 * i) for i in range(6)]
        gammas = [marginal_embodied(tech, MOVER1, q) for q in qs]
        assert all(g2 > g1 for g1, g2 in zip(gammas, gammas[1:]))

    def test_cumulative_strictly_increasing(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            tech, movers = random_technology(rng)
            qs = np.sort(rng.uniform(0.01, 30.0, size=6))
            gs = [cumulative_transfer(tech, movers, float(q)) for q in qs]
            assert all(b > a for a, b in zip(gs, gs[1:]))


class TestRequirements:
    def test_square_cost_employment(self):
        # x(Q) = Q**2 for the square-cost technology
        assert curve(SQRT_TECH, MOVER1).requirements(3.0)["m"] \
            == pytest.approx(9.0)

    def test_two_mover_cost_minimizing_mix(self):
        # Q = x1**0.25 * x2**0.25 at transfer prices 1 and 4:
        # K = 0.5 * (1/0.25)**0.5 * (4/0.25)**0.5 = 4, C(Q) = 4 Q**2,
        # x1 = 2 Q**2 and x2 = 0.5 Q**2 (cheaper mover used four times more)
        movers = movers_with_omega(m1=1.0, m2=4.0)
        tech = CobbDouglas(scale=1.0, exponents={"m1": 0.25, "m2": 0.25})
        reqs = curve(tech, movers).requirements(3.0)
        assert reqs["m1"] == pytest.approx(18.0, rel=1e-12)
        assert reqs["m2"] == pytest.approx(4.5, rel=1e-12)
        assert cumulative_transfer(tech, movers, 3.0) == pytest.approx(
            36.0, rel=1e-12)
        assert marginal_embodied(tech, movers, 3.0) == pytest.approx(
            24.0, rel=1e-12)

    def test_employment_cost_consistency(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            tech, movers = random_technology(rng)
            q = float(rng.uniform(0.1, 20.0))
            reqs = curve(tech, movers).requirements(q)
            total = sum(movers[mid].total_transfer * x
                        for mid, x in reqs.items())
            assert total == pytest.approx(
                cumulative_transfer(tech, movers, q), rel=1e-10)

    def test_marginal_requirement_square_cost(self):
        # g'(Q) = x/(beta Q) = 2Q
        assert curve(SQRT_TECH, MOVER1).marginal_requirements(2.5)["m"] \
            == pytest.approx(5.0)

    def test_output_cap_inverts_requirements(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            tech, movers = random_technology(rng)
            mid = tech.used_movers()[0]
            q = float(rng.uniform(0.1, 10.0))
            kernel = curve(tech, movers)
            stock = kernel.requirements(q)[mid]
            cap = kernel.output_cap(mid, stock)
            assert cap == pytest.approx(q, rel=1e-9)

    def test_huge_stock_cap_resolves(self):
        # h(q) >= c0 * q, so a finite stock always yields a finite cap;
        # output is never unbounded once an endowment is in play
        cap = curve(CONST_TECH, MOVER1).output_cap("m", 1e305)
        assert cap == pytest.approx(1e305, rel=1e-9)

    def test_cap_past_a_rounded_first_probe(self):
        # c0 * (1 / c0) rounds below 1, so the first probe q = 1 / c0,
        # already past 5e29, falls one rounding short of the stock and the
        # bracket doubles once
        tech = FixedProportions(requirements={"m": 1.0},
                                c0=1.0000000000000043e-30)
        assert tech.cumulative_profile(1.0 / tech.c0) < 1.0
        cap = curve(tech, MOVER1).output_cap("m", 1.0)
        assert cap == pytest.approx(1.0 / tech.c0, rel=1e-14)

    def test_zero_stock_zero_cap(self):
        assert curve(SQRT_TECH, MOVER1).output_cap("m", 0.0) == 0.0

    @pytest.mark.parametrize("method", ["marginal", "transfer",
                                        "requirements"])
    def test_vanishing_returns_to_scale_overflow(self, method):
        # 1/B = 1e9: every smooth-curve power past q = 1 leaves the floats
        kernel = curve(CobbDouglas(scale=1.0, exponents={"m": 1e-9}), MOVER1)
        with pytest.raises(SolverError) as err:
            getattr(kernel, method)(2.0)
        assert err.value.kind == "degenerate"

    def test_underflowing_curve_constant_fails_the_cap(self):
        # B = beta = omega = 1e-300: m * beta * K underflows to zero
        tech = CobbDouglas(scale=1.0, exponents={"m": 1e-300})
        with pytest.raises(SolverError) as err:
            curve(tech, movers_with_omega(m=1e-300)).output_cap("m", 1.0)
        assert err.value.kind == "degenerate"


class TestSampling:
    def test_sample_curve_identities(self):
        points = sample_curve(LINEAR_TECH, MOVER1, 4.0, samples=9)
        assert len(points) == 9
        assert points[0].quantity == 0.0
        for p in points[1:]:
            assert p.marginal == pytest.approx(
                p.average * (1.0 + p.elasticity), rel=1e-10)

    @pytest.mark.parametrize("tech, eta", [
        (SQRT_TECH, 1.0), (CobbDouglas(scale=2.0, exponents={"m": 0.25}), 3.0),
        (CONST_TECH, 0.0), (LINEAR_TECH, 0.0), (DECAY_TECH, 0.0)])
    def test_elasticity_at_the_origin_is_its_limit(self, tech, eta):
        # 1/B - 1 at every q on the smooth curve; 0 where a profile's
        # average meets its marginal
        first, second = sample_curve(tech, MOVER1, 1e-6, samples=2)
        assert first.elasticity == eta
        assert second.elasticity == pytest.approx(eta, abs=1e-5)

    def test_meec_point_against_quadrature(self):
        p = sample_curve(DECAY_TECH, MOVER1, 2.0, samples=2)[-1]
        assert p.quantity == 2.0
        quad = adaptive_simpson(
            lambda q: marginal_embodied(DECAY_TECH, MOVER1, q), 0.0, 2.0,
            tol=1e-12)
        assert p.cumulative == pytest.approx(quad, rel=1e-9)


class TestPremiumWeights:
    """A kernel carries its good's premium weight: kappa, the mean of
    eps_l / omega_l, on a smooth curve, and eps_mean, the mean of
    eps_l nu_l, on a fixed-proportions one."""

    @pytest.mark.parametrize("name", ["reference", "scarce_growth", "shocks",
                                      "arrivals"])
    def test_weights_match_the_movers(self, name):
        # the last period of a run has every good and mover arrived
        scenario = load_scenario((SCENARIOS / f"{name}.json").read_text())
        state = simulate(scenario).records[-1].state
        movers = state.movers
        goods = [*state.energy_goods.values(),
                 *state.non_energy_goods.values()]
        assert len(goods) == len(scenario.energy_goods) \
            + len(scenario.non_energy_goods)
        for good in goods:
            tech, m = good.technology, effective_multiplier(good, state)
            kernel = curve(tech, movers, m)
            used = tech.used_movers()
            if isinstance(tech, CobbDouglas):
                kappa = sum(movers[mid].direct_energy
                            / movers[mid].total_transfer
                            for mid in used) / len(used)
                assert kernel.kappa == kappa
            else:
                eps_mean = sum(movers[mid].direct_energy
                               * tech.requirements[mid]
                               for mid in used) / len(used)
                assert kernel.eps_mean == eps_mean
            if good.id not in state.energy_goods:
                continue
            # the public premium sums eps_l g'_l(q) over the movers itself
            for q in (0.3, 1.0, 7.0):
                for phi in (0.1, 0.5, 0.9):
                    c = phi / (1.0 - phi)
                    if isinstance(tech, CobbDouglas):
                        expected = c * kernel.kappa * kernel.marginal(q)
                    else:
                        expected = c * m * kernel.eps_mean \
                            * tech.marginal_profile(q)
                    got = scarcity_premium(good, q, phi, state)
                    assert got == pytest.approx(expected, rel=1e-15, abs=0)
