"""Shared scalar numerics: bracketed root finding and adaptive Simpson quadrature.

Everything here is deterministic: the same inputs always produce the same
floats, which the solvers rely on for reproducible CSV/SVG output.
"""

from __future__ import annotations

from collections.abc import Callable

from scipy.optimize import brentq

#: Hard ceiling for bracket expansion; beyond this the problem is treated as
#: unbounded rather than silently returning astronomically large roots.
BRACKET_CEILING = 1e30


def bracketed_root(f: Callable[[float], float], lo: float, hi: float,
                   rtol: float = 1e-10) -> float:
    """Root of ``f`` on ``[lo, hi]`` given a sign change at the endpoints.

    The tolerance is relative only: brentq needs a positive ``xtol``, and
    one far below any root egl solves for keeps tiny roots as precise as
    large ones.
    """
    return float(brentq(f, lo, hi, rtol=max(rtol, 8.9e-16), xtol=1e-300,
                        maxiter=200))


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
