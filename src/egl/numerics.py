"""Shared scalar numerics: bracket search, the one root finder and the one
predicate bisection.

``newton_root`` serves every scalar root egl solves, by Newton steps where
the residual has a closed-form slope and by secant steps where it has
none.  The secant steps replaced Brent's method (R. P. Brent 1973), so
those roots agree with the C ``brentq`` to the rtol they ask for, not to
the bit.

Everything here is deterministic: the same inputs always produce the same
floats, which the solvers rely on for reproducible CSV/SVG output.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .errors import SolverError

#: Smallest relative tolerance honoured: four machine epsilons, below which
#: the stopping test could ask for a step shorter than one ulp of the root.
RTOL_FLOOR = 8.9e-16

#: Absolute part of the stopping tolerance, far below any root egl solves
#: for, so tiny roots are found as precisely (relatively) as large ones.
XTOL = 1e-300

#: Iteration cap: hitting it means the residual is not continuous on the
#: bracket, or the tolerance cannot be met.
MAX_ITER = 200


def grow_bracket(f: Callable[[float], float], hi: float,
                 ceiling: float = math.inf) -> float | None:
    """First of ``hi, 2 hi, 4 hi, ...`` where ``f`` is not negative, or
    None once the next value would pass ``ceiling``.

    With ``f`` negative at the lower end, the value returned closes a
    bracket for ``newton_root``.  A NaN counts as not negative, so that
    ``newton_root`` reports it.
    """
    while f(hi) < 0.0:
        hi *= 2.0
        if hi > ceiling:
            return None
    return hi


def newton_root(f: Callable[[float], tuple[float, float | None]],
                lo: float, hi: float, x0: float,
                rtol: float = 1e-10) -> float:
    """Root of ``f`` on ``[lo, hi]`` from ``x0``, where ``f(x)`` returns
    the residual and its slope, or None in place of a slope that has no
    closed form, and changes sign once on the interval.

    A slope at the first iterate tells on which side of the root each
    iterate lies; without one, the far end of ``[lo, hi]`` is tested
    next, and each later step follows the secant through the last two
    iterates.  Every iterate closes one end of a sign bracket.  A step
    that would leave it tests an end no iterate has reached yet, or
    bisects it; so does a secant step longer than half the one before
    last.  The iteration stops once a step is within ``XTOL + rtol * |x|``
    (``rtol`` raised to ``RTOL_FLOOR``) and returns the stepped iterate, or
    for a secant step the last evaluated one; it also stops once the
    bracket or the step reaches float resolution.  A short secant step
    from a bisection or the far-end test can come from a large residual
    at the far iterate, so the iterate moves half the tolerance instead,
    which closes the bracket or makes the next secant local.  Raises
    ``SolverError("no_bracket")`` when an end of ``[lo, hi]`` lies on the
    root's side, and ``SolverError("degenerate")`` when ``f`` returns NaN
    or ``MAX_ITER`` steps do not converge.
    """
    rtol = max(rtol, RTOL_FLOOR)
    start_lo, start_hi = lo, hi = float(lo), float(hi)
    x = min(max(float(x0), lo), hi)
    rising = None               # whether f rises through the root
    lo_seen = hi_seen = False   # whether an iterate closed that end
    xp = fp = None              # the iterate before x, for the secant
    for _ in range(MAX_ITER):
        fx, slope = f(x)
        if fx != fx or slope != slope:
            raise SolverError("degenerate",
                              f"residual or slope is NaN at x = {x:.17g}")
        if fx == 0.0:
            return x
        if slope is None:
            if xp is None:
                # ``last`` is the step into x, ``local`` whether that step
                # was a secant step
                xp, fp, last, local = x, fx, math.inf, False
                x = hi if x - lo < hi - x else lo
                continue
            if rising is None:
                if (fx < 0.0) == (fp < 0.0):
                    raise _no_bracket(x, fx)
                rising = (fp < 0.0) == (xp < x)
                lo, hi = min(x, xp), max(x, xp)
                lo_seen = hi_seen = True
            slope = (fx - fp) / (x - xp)
            before, last = last, abs(x - xp)
            xp, fp = x, fx
            trusted, local = local, True
            # a flat secant, an infinite residual, or a step longer than
            # half the one before last gives no step: the iterate bisects
            if not 0.0 < abs(slope) < math.inf \
                    or abs(fx / slope) > 0.5 * before:
                slope = 0.0
        if rising is None and slope != 0.0:
            rising = slope > 0.0
        if rising is not None:
            if (fx < 0.0) == rising:
                if x == hi and not hi_seen:
                    raise _no_bracket(x, fx)
                lo, lo_seen = x, True
            else:
                if x == lo and not lo_seen:
                    raise _no_bracket(x, fx)
                hi, hi_seen = x, True
        step = -fx / slope if slope != 0.0 else math.inf
        tol = XTOL + rtol * abs(x)
        if abs(step) <= tol:
            if xp is None:
                return min(max(x + step, lo), hi)
            if trusted:
                return x
            step = math.copysign(0.5 * tol, step)
        nxt = x + step
        if not lo < nxt < hi:
            local = False
            if nxt <= lo and not lo_seen:
                nxt = lo
            elif nxt >= hi and not hi_seen:
                nxt = hi
            else:
                nxt = 0.5 * lo + 0.5 * hi
        if nxt == x or (lo_seen and hi_seen and hi - lo <= tol):
            return x
        x = nxt
    raise SolverError(
        "degenerate",
        f"root finder did not converge in {MAX_ITER} iterations "
        f"on [{start_lo:.17g}, {start_hi:.17g}]")


def _no_bracket(x: float, fx: float) -> SolverError:
    return SolverError(
        "no_bracket",
        f"f({x:.17g}) = {fx:.6g} at an end leaves the root outside")


def bisect_predicate(holds: Callable[[float], bool], lo: float, hi: float,
                     steps: int) -> float:
    """``lo`` after ``steps`` bisections of ``[lo, hi]`` that keep
    ``holds`` true at ``lo`` and false at ``hi``, as it is at the start:
    within ``(hi - lo) / 2 ** steps`` of where ``holds`` turns false."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo
