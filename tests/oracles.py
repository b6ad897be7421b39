"""Test-only oracles: the quadrature, the consumer tangency check, the
consumer-side utility maximizer and the energy-side maximizer the suite
verifies egl's closed forms and solutions against.  egl itself calls none
of them."""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

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


def log_utility(preferences: Preferences,
                bundle: dict[str, float]) -> float:
    """log U at the bundle: sum(w log q) under Cobb-Douglas, and
    log(sum(w q ** r)) / r with r = 1 - 1/sigma under CES."""
    return _log_utility(preferences, sum(
        _term(preferences, preferences.weights[gid], q)
        for gid, q in bundle.items()))


def _exponent(preferences: Preferences) -> float:
    return 0.0 if preferences.form == "cobb_douglas" \
        else 1.0 - 1.0 / preferences.elasticity


def _term(preferences: Preferences, weight: float, q: float) -> float:
    """One good's term of a sum that rises with log U: w log q under
    Cobb-Douglas, sign(r) w q ** r under CES; -inf where q = 0 leaves
    U = 0."""
    r = _exponent(preferences)
    if r > 0.0:
        return weight * q ** r
    if q <= 0.0:
        return -math.inf
    return weight * math.log(q) if r == 0.0 else -weight * q ** r


def _log_utility(preferences: Preferences, total: float) -> float:
    """log U from the sum of the goods' ``_term``s."""
    r = _exponent(preferences)
    if total == -math.inf:
        return -math.inf
    if r == 0.0:
        return total
    return math.log(total if r > 0.0 else -total) / r


def max_utility(preferences: Preferences, curves: dict,
                energy: float) -> float:
    """The most log utility a budget of ``energy`` joules buys: the maximum
    of log U over the split of the budget among the goods, each good's
    quantity the bisected inverse of its kernel's ``transfer`` G at its
    share.  ``curves`` maps each good id to its curve kernel; nothing of
    ``demand`` is used, its multiplier included.

    log U rises with a sum of one term per good (``_term``), so the split
    is searched on 4,000 even steps of the budget: for two goods over
    the first good's share, for three nested, the first good's share
    outside and the split of the rest inside, the goods' terms tabulated
    once per step.  The best split is then refined by golden section
    within three steps of the best share at each level, nested the same
    way.
    """
    ids, grid = list(curves), 4000
    step = energy / grid
    tables = [_quantities(curves[gid].transfer, step, grid) for gid in ids]
    terms = [np.array([_term(preferences, preferences.weights[gid], q)
                       for q in table]) for gid, table in zip(ids, tables)]
    # best[m]: the largest sum of the terms of goods k + 1.. over the
    # splits of m steps; share[k, m]: the steps good k takes in the best
    # split of m steps among goods k..
    best, share = terms[-1], {}
    for k in reversed(range(len(ids) - 1)):
        below, best = best, np.full(grid + 1, -math.inf)
        for m in range(grid + 1) if k else [grid]:
            row = terms[k][:m + 1] + below[m::-1]
            share[k, m] = j = int(np.argmax(row))
            best[m] = row[j]

    def term(k: int, e: float) -> float:
        transfer = curves[ids[k]].transfer
        return _term(preferences, preferences.weights[ids[k]],
                     _inverse(transfer, e))

    def refined(k: int, budget: float) -> float:
        """The largest sum of the terms of goods k.. for ``budget``."""
        if k == len(ids) - 1:
            return term(k, budget)
        j = share[k, min(round(budget / step), grid) if k else grid]
        lo, hi = max(0.0, (j - 3) * step), min(budget, (j + 3) * step)
        return _golden_max(lambda e: term(k, e) + refined(k + 1, budget - e),
                           lo, hi, rtol=1e-6 if k == 0 else 1e-4)

    return _log_utility(preferences, refined(0, energy))


def _quantities(transfer: Callable[[float], float], step: float,
                grid: int) -> list[float]:
    """The inverse of a rising ``transfer`` at the energies 0, step, ...,
    grid * step, each bisected to 1e-8 relative from a bracket around the
    straight line through the two below, widened until it holds."""
    quantities, rise = [0.0, _inverse(transfer, step)], 0.0
    for i in range(2, grid + 1):
        e, q = i * step, quantities[-1]
        rise = q - quantities[-2]
        width = 1e-3 * rise
        lo, hi = q + rise - width, q + rise + width
        while transfer(hi) <= e:
            lo, hi = hi, hi + 2.0 * (hi - lo)
        while lo > q and transfer(lo) > e:
            lo, hi = max(q, lo - 2.0 * (hi - lo)), lo
        quantities.append(_bisect(transfer, e, lo, hi, 1e-8))
    return quantities


def _inverse(transfer: Callable[[float], float], e: float) -> float:
    """The q where a rising ``transfer`` reaches e, by bisection to 1e-14
    relative."""
    if e <= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while transfer(hi) <= e:
        lo, hi = hi, 2.0 * hi
    return _bisect(transfer, e, lo, hi, 1e-14)


def _bisect(transfer: Callable[[float], float], e: float, lo: float,
            hi: float, rtol: float) -> float:
    """The q in [lo, hi] where a rising ``transfer`` reaches e, by
    bisection to ``rtol`` relative."""
    while hi - lo > rtol * hi:
        mid = 0.5 * (lo + hi)
        if transfer(mid) <= e:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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


def _golden_max(f: Callable[[float], float], lo: float, hi: float,
                rtol: float = 1e-11) -> float:
    """The largest value of ``f`` on [lo, hi]: the best of 17 even
    samples, refined by golden section between its neighbours until the
    bracket is ``rtol`` of the interval wide."""
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
    while b - a > rtol * (hi - lo):
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
