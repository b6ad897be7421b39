"""Test-only oracles: the quadrature, the consumer tangency check and the
energy-side maximizer the suite verifies egl's closed forms and solutions
against.  egl itself calls none of them."""

from __future__ import annotations

import math
from collections.abc import Callable

from egl.core import Preferences
from egl.demand import marginal_utility


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float = 1e-9, max_depth: int = 48) -> float:
    """Integral of ``f`` over ``[a, b]`` by recursive adaptive Simpson.

    ``tol`` is an absolute tolerance; subintervals split it in half, and the
    accepted panel gets a Richardson correction.
    """
    if a == b:
        return 0.0
    if a > b:
        return -adaptive_simpson(f, b, a, tol, max_depth)

    def panel(fa: float, fm: float, fb: float, h: float) -> float:
        return h / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(x0: float, x2: float, f0: float, f1: float, f2: float,
                whole: float, eps: float, depth: int) -> float:
        x1 = 0.5 * (x0 + x2)
        lm = f(0.5 * (x0 + x1))
        rm = f(0.5 * (x1 + x2))
        left = panel(f0, lm, f1, x1 - x0)
        right = panel(f1, rm, f2, x2 - x1)
        err = (left + right - whole) / 15.0
        if depth >= max_depth or abs(err) <= eps:
            return left + right + err
        # an absolute tolerance below the panel's float resolution is
        # unreachable; flooring it keeps the subdivision tree finite
        child_eps = max(eps / 2.0,
                        4e-16 * (abs(left) + abs(right)))
        return (recurse(x0, x1, f0, lm, f1, left, child_eps, depth + 1)
                + recurse(x1, x2, f1, rm, f2, right, child_eps, depth + 1))

    mid = 0.5 * (a + b)
    fa, fm, fb = f(a), f(mid), f(b)
    return recurse(a, b, fa, fm, fb, panel(fa, fm, fb, b - a), tol, 0)


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


def max_usable_surplus(problem) -> float:
    """The most usable surplus E = I - G the energy side can earn at one
    state: the maximum of E over the energy goods' outputs subject to
    E <= U, with U the direct-energy capacity of the movers left over,
    each mover's employment within its stock, and each good's output within
    its remaining primary stock.

    ``problem`` is a ``surplus._Problem``; the maximizer reads its curve
    kernels (through ``load`` and each kernel's marginal curve) and its
    ``capacity``, and none of the phi routes.  Each good produces at most
    ``top``: its largest output, alone, up to where its marginal surplus
    alpha = content - gamma turns negative.  Below every good's top, E rises
    in each output and U falls, so the outputs that meet the constraints
    form a down-set and the maximum lies on its upper boundary.  The first
    good producing takes, by bisection, the largest output that meets them
    given the others' outputs; each other good's output is searched on a
    grid and refined by golden section, one nested level per good.
    Raises ``ValueError`` for a good with gamma(0) above its content, whose
    surplus need not rise from zero output.
    """
    goods = problem.goods
    stocks = problem.state.stocks

    def usable(outputs: dict[str, float]) -> float | None:
        """E at the outputs, or None where they break a constraint."""
        costs, totals = problem.load(outputs)
        if any(x > stocks.get(mid, 0.0) for mid, x in totals.items()):
            return None
        e = sum(g.energy_content * outputs[g.id] for g in goods) \
            - sum(costs[g.id] for g in goods)
        return e if e <= problem.capacity(totals) else None

    def top(good) -> float:
        kernel = problem.curves[good.id]
        remaining = math.inf if good.pes_stock is None else (
            good.pes_stock - problem.state.cum_extraction.get(good.id, 0.0))

        def alone(q: float) -> bool:
            return q <= remaining \
                and kernel.marginal(q) <= good.energy_content \
                and all(x <= stocks.get(mid, 0.0) for mid, x in
                        zip(kernel.movers, kernel.load(q)[1]))

        if kernel.marginal(0.0) > good.energy_content:
            raise ValueError(f"gamma(0) of {good.id!r} exceeds its content")
        if not alone(0.0):
            return 0.0
        hi = 1.0
        while alone(hi):
            hi *= 2.0
        return _last_holding(alone, 0.0, hi)

    tops = {g.id: top(g) for g in goods}
    producing = [g.id for g in goods if tops[g.id] > 0.0]
    outputs = {g.id: 0.0 for g in goods}

    def best(k: int) -> float:
        """Largest E over the outputs of ``producing[:k + 1]``, the other
        outputs as set; -inf where none meets the constraints."""
        gid = producing[k]
        if k == 0:
            def holds(q: float) -> bool:
                outputs[gid] = q
                return usable(outputs) is not None

            if not holds(0.0):
                return -math.inf
            if not holds(tops[gid]):
                outputs[gid] = _last_holding(holds, 0.0, tops[gid])
            return usable(outputs)

        def value(q: float) -> float:
            outputs[gid] = q
            return best(k - 1)

        return _golden_max(value, 0.0, tops[gid])

    return best(len(producing) - 1) if producing else 0.0


def _last_holding(holds: Callable[[float], bool], lo: float,
                  hi: float) -> float:
    """The largest float in [lo, hi) where ``holds``, by bisection, given
    that it holds at ``lo`` and not at ``hi`` and turns false once."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        if holds(mid):
            lo = mid
        else:
            hi = mid


def _golden_max(f: Callable[[float], float], lo: float,
                hi: float) -> float:
    """The largest value of ``f`` on [lo, hi]: the best of 17 even
    samples, refined by golden section between its neighbours until the
    bracket is 1e-11 of the interval wide."""
    grid = 16
    xs = [lo + (hi - lo) * i / grid for i in range(grid + 1)]
    values = [f(x) for x in xs]
    i = max(range(grid + 1), key=values.__getitem__)
    best = values[i]
    if best == -math.inf:
        return best
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, grid)]
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-11 * (hi - lo):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = f(d)
    # each step drops a point no better than one it keeps
    return max(best, fc, fd)
