import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from egl.core import FixedProportions, initial_state, scenario_from_dict
from egl.embodied import curve
from egl.errors import SolverError
from egl.numerics import (MAX_ITER, RTOL_FLOOR, XTOL, grow_bracket,
                          newton_root)
from egl.surplus import _Problem

from conftest import cd1_doc


def counting(f):
    """``f`` plus a list whose length is the number of calls made."""
    calls = []

    def wrapped(x):
        calls.append(x)
        return f(x)

    return wrapped, calls


def bisect(f, lo: float, hi: float, steps: int = 300) -> float:
    """Midpoint of the last of ``steps`` halvings of a sign change of f."""
    below = f(lo) < 0.0
    for _ in range(steps):
        mid = 0.5 * lo + 0.5 * hi
        if (f(mid) < 0.0) == below:
            lo = mid
        else:
            hi = mid
    return 0.5 * lo + 0.5 * hi


def value_only(f):
    """``f`` as a residual without a slope, for the secant steps."""
    return lambda x: (f(x), None)


# (residual, lo, hi, rtol); the stopping test reads the last step as the
# error, which holds where the secant converges faster than linearly
SECANT_CASES = {
    "tiny_root": (lambda x: x - 3.7e-23, 0.0, 1.0, 1e-10),
    "huge_root": (lambda x: (x / 6.2e18) ** 2 - 1.0, 1.0, 1e20, 1e-10),
    "steep_tanh": (lambda x: math.tanh(1e6 * (x - 0.3)), 0.0, 1.0, 1e-12),
    "flat_cubic": (lambda x: (x - 0.7) ** 3, 0.0, 2.0, 1e-10),
    "zero_at_endpoint": (lambda x: x * (x + 1.0), -0.5, 0.0, 1e-10),
    "rtol_below_floor": (lambda x: math.exp(x) - 5.0, 0.0, 4.0, 1e-20),
    # log(0) = -inf: the secant through that end is flat, so it bisects
    "infinite_end": (lambda x: math.log(x) if x > 0.0 else -math.inf,
                     0.0, 5.0, 1e-12),
    # 5e21 at the upper end: a secant through it is far steeper than the
    # residual near the root, and its short step must not stop the
    # iteration at the lower end
    "steep_exp": (lambda x: math.exp(50.0 * (x - 1.0)) - 2.0, 1.0, 2.0,
                  1e-10),
    # constant below 0.6: two iterates there give a flat secant
    "flat_tail": (lambda x: max(x - 0.7, -0.1), 0.0, 1.0, 1e-12),
    # slopes 1 and 10 either side of a kink at 0.5, past the root 0.4
    "kinked": (lambda x: x - 0.4 if x < 0.5 else 10.0 * x - 4.9,
               0.0, 3.0, 1e-12),
}


@pytest.mark.parametrize("case", sorted(SECANT_CASES))
@pytest.mark.parametrize("start", ["lo", "hi"])
def test_secant_matches_bisection(case, start):
    f, lo, hi, rtol = SECANT_CASES[case]
    root = newton_root(value_only(f), lo, hi, lo if start == "lo" else hi,
                       rtol=rtol)
    oracle = bisect(f, lo, hi, steps=1100)
    # at a triple root the secant converges only linearly, each step about
    # 0.75 of the last, so the error can be three times the last step
    slack = 3.0 if case == "flat_cubic" else 1.0
    assert abs(root - oracle) <= \
        slack * max(rtol, RTOL_FLOOR) * abs(oracle) + XTOL


def test_secant_step_longer_than_half_the_one_before_last_bisects():
    # the secant lines of a piecewise-linear residual: from 4 to 1 (3
    # long), from 1 to 10/7, and from there a step of 2 that stays inside
    # the bracket [10/7, 4] but is longer than half of 3, so the iterate
    # bisects that bracket instead
    nodes = [(0.0, -1.0), (1.0, -0.5), (10.0 / 7.0, -7.0 / 17.0), (4.0, 3.0)]

    def f(x):
        for (x0, f0), (x1, f1) in zip(nodes, nodes[1:]):
            if x <= x1:
                return f0 + (f1 - f0) * (x - x0) / (x1 - x0)
        return nodes[-1][1]

    mine, calls = counting(value_only(f))
    root = newton_root(mine, 0.0, 4.0, 0.0, rtol=1e-12)
    assert calls[:3] == [0.0, 4.0, 1.0]
    assert calls[3] == pytest.approx(10.0 / 7.0, rel=1e-15)
    assert calls[4] == 0.5 * calls[3] + 0.5 * 4.0
    assert abs(root - bisect(f, 0.0, 4.0)) <= 1e-12 * root


class TestFailures:
    def test_no_sign_change(self):
        f, calls = counting(value_only(lambda x: x * x + 1.0))
        with pytest.raises(SolverError) as err:
            newton_root(f, -1.0, 2.0, -1.0)
        assert err.value.kind == "no_bracket"
        assert calls == [-1.0, 2.0]

    def test_nan_residual(self):
        f, calls = counting(value_only(
            lambda x: math.nan if 0.3 < x < 0.7 else x - 0.5))
        with pytest.raises(SolverError) as err:
            newton_root(f, 0.0, 1.0, 0.0)
        assert err.value.kind == "degenerate"
        assert "NaN" in str(err.value)
        assert len(calls) == 3          # both ends, then the first step

    def test_iteration_cap(self):
        # a jump at 0, where the tolerance is XTOL: bisection alone would
        # need about a thousand halvings to get there
        f, calls = counting(value_only(lambda x: 1.0 if x > 0.0 else -1.0))
        with pytest.raises(SolverError) as err:
            newton_root(f, -1.0, 2.0, -1.0)
        assert err.value.kind == "degenerate"
        assert "did not converge" in str(err.value)
        assert len(calls) == MAX_ITER


class TestGrowBracket:
    def test_first_non_negative_doubling(self):
        f, calls = counting(lambda x: x - 5.0)
        assert grow_bracket(f, 1.0) == 8.0
        assert calls == [1.0, 2.0, 4.0, 8.0]

    def test_exact_zero_at_the_start(self):
        f, calls = counting(lambda x: x - 3.0)
        assert grow_bracket(f, 3.0, ceiling=3.0) == 3.0
        assert calls == [3.0]

    def test_none_past_the_ceiling(self):
        # 16 would pass 10: it is never evaluated
        f, calls = counting(lambda x: x - 100.0)
        assert grow_bracket(f, 1.0, ceiling=10.0) is None
        assert calls == [1.0, 2.0, 4.0, 8.0]

    def test_nan_closes_the_search(self):
        # newton_root then reports the NaN
        assert grow_bracket(lambda x: math.nan, 1.0, ceiling=10.0) == 1.0


def with_slope(f, slope):
    """``f`` and its slope as one Newton residual."""
    return lambda x: (f(x), slope(x))


class TestNewtonRoot:
    def test_convex_from_above(self):
        # exp(x) - 5 is convex and rising: from above, every step stays
        # above the root
        f, calls = counting(with_slope(lambda x: math.exp(x) - 5.0,
                                       math.exp))
        root = newton_root(f, 0.0, 4.0, 4.0, rtol=1e-12)
        assert abs(root - math.log(5.0)) <= 1e-12 * math.log(5.0)
        assert all(x > math.log(5.0) for x in calls)
        assert len(calls) == 8

    def test_concave_overshoot_tests_the_untried_end(self):
        # log(x) - 1 is concave: the first step from 10 lands below 1, so
        # the iterate tests that end, and from there climbs to e
        f, calls = counting(with_slope(lambda x: math.log(x) - 1.0,
                                       lambda x: 1.0 / x))
        root = newton_root(f, 1.0, 10.0, 10.0, rtol=1e-12)
        assert abs(root - math.e) <= 1e-12 * math.e
        assert calls[:2] == [10.0, 1.0]
        assert all(x < math.e for x in calls[1:])

    def test_step_out_of_the_bracket_bisects(self):
        # past the dip of a profile with rho = 0.3, h' rises concavely, so
        # the gain delta - h'(q) is convex: from far above the root the
        # first step overshoots below the dip.  There h'' = 0, the step is
        # infinite, and both ends are known: the iterate bisects
        tech = FixedProportions(requirements={"m": 1.0}, c0=0.5, c1=4.0,
                                tau=2.0, c2=0.4, q_s=4.0, rho=0.3)
        dip = newton_root(value_only(tech.curvature_profile), 0.1, 50.0,
                          0.1, rtol=1e-12)
        delta = 1.2

        def gain(q):
            return (delta - tech.marginal_profile(q),
                    -tech.curvature_profile(q))

        f, calls = counting(gain)
        root = newton_root(f, dip, 1e4, 1e4, rtol=1e-10)
        assert calls[:3] == [1e4, dip, 0.5 * dip + 0.5 * 1e4]
        assert abs(gain(root)[0]) <= 1e-15 * delta
        assert len(calls) < 20

    def test_nan_value(self):
        f, calls = counting(lambda x: (math.nan if x < 0.5 else x - 0.25,
                                       1.0))
        with pytest.raises(SolverError) as err:
            newton_root(f, 0.0, 1.0, 1.0)
        assert err.value.kind == "degenerate"
        assert "NaN" in str(err.value)
        assert calls == [1.0, 0.25]

    def test_nan_slope(self):
        with pytest.raises(SolverError) as err:
            newton_root(lambda x: (x - 0.5, math.nan), 0.0, 1.0, 1.0)
        assert err.value.kind == "degenerate"
        assert "NaN" in str(err.value)

    def test_iteration_cap(self):
        # a jump at 0 with a slope that says nothing: the bracket halves
        # toward 0, where the tolerance is XTOL, and runs out of steps
        f, calls = counting(lambda x: (1.0 if x > 0.0 else -1.0, 1.0))
        with pytest.raises(SolverError) as err:
            newton_root(f, -1.0, 2.0, 2.0)
        assert err.value.kind == "degenerate"
        assert "did not converge" in str(err.value)
        assert len(calls) == MAX_ITER

    def test_root_outside_the_interval(self):
        # x + 1 is positive on [0, 1]: the step toward -1 tests 0, which
        # is still positive
        f, calls = counting(with_slope(lambda x: x + 1.0, lambda x: 1.0))
        with pytest.raises(SolverError) as err:
            newton_root(f, 0.0, 1.0, 0.5)
        assert err.value.kind == "no_bracket"
        assert calls == [0.5, 0.0]

    def test_root_at_the_float_floor_stops(self):
        # the root 7.5e-324 lies between the two smallest subnormals, so
        # no float makes the residual 0; the absolute tolerance ends the
        # iteration at one of them
        f, calls = counting(lambda x: (2.0 * x - 1.5e-323, 2.0))
        root = newton_root(f, 0.0, 1.0, 1.0)
        assert root in (5e-324, 1e-323)
        assert len(calls) <= 3


# -- the Newton call sites against a bisection oracle ----------------------

def log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10 ** e)


@st.composite
def profiles(draw):
    """Fixed-proportions profiles, rho < 1 included.  A profile with
    rho < 1 and a decaying term can dip twice (the document parser asks
    for rho >= 1), so those draw c1 = 0."""
    rho = draw(st.floats(0.2, 4.0))
    c1 = 0.0 if rho < 1.0 or draw(st.booleans()) \
        else draw(log_uniform(1e-3, 100.0))
    c2 = 0.0 if draw(st.integers(0, 4)) == 0 \
        else draw(log_uniform(1e-3, 10.0))
    return FixedProportions(
        requirements={"m0": 1.0}, c0=draw(log_uniform(1e-3, 10.0)), c1=c1,
        tau=draw(log_uniform(0.1, 10.0)), c2=c2,
        q_s=draw(log_uniform(0.1, 10.0)), rho=rho)


def cd1_state():
    return initial_state(scenario_from_dict(cd1_doc()))


def one_good_problem(tech: FixedProportions, delta: float, stock: float):
    """The CD1 economy with energy good e0 on ``tech``, content ``delta``
    and mover stock ``stock``; omega = eps = 1, so a = 1 + c."""
    state = cd1_state()
    good = state.energy_goods["e0"]._replace(technology=tech,
                                              energy_content=delta)
    state = state._replace(energy_goods={"e0": good}, stocks={"m0": stock})
    return _Problem(state), good


class TestNewtonSites:
    @settings(max_examples=200, deadline=None)
    @given(profiles(), log_uniform(1e-6, 1e6), log_uniform(0.5, 2.0))
    def test_output_cap(self, tech, stock, multiplier):
        kernel = curve(tech, cd1_state().movers, multiplier)
        target = stock / multiplier

        def gap(q):
            return tech.cumulative_profile(q) - target

        cap = kernel.output_cap("m0", stock)
        assert abs(gap(cap)) <= 1e-14 * target
        oracle = bisect(gap, 0.0, grow_bracket(gap, 1.0))
        assert abs(cap - oracle) <= 2e-14 * target / \
            tech.marginal_profile(oracle) + 1e-15 * oracle

    @settings(max_examples=200, deadline=None)
    @given(profiles(), log_uniform(1e-3, 1e3), log_uniform(1.01, 100.0),
           st.floats(0.0, 4.0))
    def test_fixed_proportions_output(self, tech, q_star, room, c):
        # the content puts the optimum at q_star when the premium weight c
        # is 0; the stock leaves room above it
        delta = tech.marginal_profile(q_star)
        problem, good = one_good_problem(
            tech, delta, room * tech.cumulative_profile(q_star))
        assume("e0" in problem.fixed_terms)
        a = 1.0 + c
        q_peak = problem.fixed_terms["e0"][0]
        cap = problem.caps["e0"]

        def gain(q):
            return delta - a * tech.marginal_profile(q)

        q, tag = problem.good_output(good, c)
        assume(0.0 < q < cap)
        assert tag is None
        assert abs(gain(q)) <= 1e-14 * delta
        oracle = bisect(gain, q_peak, cap)
        assert abs(q - oracle) <= 2e-14 * delta / \
            (a * tech.curvature_profile(oracle)) + 1e-15 * oracle
