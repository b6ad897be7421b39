"""Test-only oracles: the quadrature and the consumer tangency check the
suite verifies egl's closed forms and solutions against.  egl itself
calls neither."""

from __future__ import annotations

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
