"""Shared scalar numerics: bracket search, two root finders and adaptive
Simpson quadrature.

``bracketed_root`` is Brent's method (R. P. Brent, *Algorithms for
Minimization without Derivatives*, Prentice-Hall 1973, ch. 4): inverse
quadratic or secant steps inside a bracket that always keeps a sign
change, with a bisection whenever the interpolated step does not shrink
the bracket fast enough.  The step sequence is the one of the widely used
C ``brentq`` (the version SciPy ships), so roots and evaluation counts
match it to the bit.  It serves every residual without a closed-form
slope: the phi bracket route, the usability rescale, the demand roots and
the profile geometry.

``newton_root`` is a safeguarded Newton for residuals whose slope is
closed form: the fixed-proportions output caps and outputs, the
rationing scale and the power-law form of the phi residual.  It keeps the
sign bracket its iterates build and bisects any step that would leave it.

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
    bracket for ``bracketed_root``.  A NaN counts as not negative, so that
    ``bracketed_root`` reports it.
    """
    while f(hi) < 0.0:
        hi *= 2.0
        if hi > ceiling:
            return None
    return hi


def bracketed_root(f: Callable[[float], float], lo: float, hi: float,
                   rtol: float = 1e-10) -> float:
    """Root of ``f`` on ``[lo, hi]`` given a sign change at the endpoints.

    The iterate stops once the bracket around it is narrower than
    ``XTOL + rtol * |x|``, with ``rtol`` raised to ``RTOL_FLOOR``.  Raises
    ``SolverError("no_bracket")`` when ``f(lo)`` and ``f(hi)`` share a
    sign, and ``SolverError("degenerate")`` when ``f`` returns NaN or
    ``MAX_ITER`` steps do not converge.
    """
    rtol = max(rtol, RTOL_FLOOR)
    xpre, xcur = float(lo), float(hi)
    fpre = _value(f, xpre)
    fcur = _value(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise SolverError(
            "no_bracket",
            f"f({xpre:.17g}) = {fpre:.6g} and f({xcur:.17g}) = {fcur:.6g} "
            "have the same sign")

    # xcur is the best estimate, xblk the contrapoint (f changes sign
    # between them), xpre the previous estimate; scur/spre are the last
    # two step lengths.
    xblk = fblk = spre = scur = 0.0
    for _ in range(MAX_ITER):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (XTOL + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        bisect = True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant through the estimate and the contrapoint
                num, den = -fcur * (xcur - xpre), fcur - fpre
            else:
                # inverse quadratic through all three points
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                num = -fcur * (fblk * dblk - fpre * dpre)
                den = dblk * dpre * (fblk - fpre)
            # a zero denominator means an infinite step: bisect
            if den != 0.0:
                stry = num / den
                if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                    spre, scur = scur, stry
                    bisect = False
        if bisect:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _value(f, xcur)
    raise SolverError(
        "degenerate",
        f"root finder did not converge in {MAX_ITER} iterations "
        f"on [{lo:.17g}, {hi:.17g}]")


def newton_root(f: Callable[[float], tuple[float, float]], lo: float,
                hi: float, x0: float, rtol: float = 1e-10) -> float:
    """Root of ``f`` on ``[lo, hi]`` by Newton from ``x0``, where ``f(x)``
    returns the residual and its slope and changes sign once on the
    interval.

    The slope at the first iterate tells on which side of the root each
    iterate lies, so every iterate closes one end of a sign bracket.  A
    step that would leave the bracket lands on an end no iterate has
    reached yet, to test it, and otherwise bisects the bracket.  The
    iteration stops once a step is within ``XTOL + rtol * |x|``, with
    ``rtol`` raised to ``RTOL_FLOOR``, and returns the stepped iterate, or
    once the bracket or the step reaches float resolution.  Raises
    ``SolverError("no_bracket")`` when an end of ``[lo, hi]`` lies on the
    root's side of the bracket, and ``SolverError("degenerate")`` when
    ``f`` returns NaN or ``MAX_ITER`` steps do not converge.
    """
    rtol = max(rtol, RTOL_FLOOR)
    start_lo, start_hi = lo, hi = float(lo), float(hi)
    x = min(max(float(x0), lo), hi)
    rising = None               # whether f rises through the root
    lo_seen = hi_seen = False   # whether an iterate closed that end
    for _ in range(MAX_ITER):
        fx, slope = f(x)
        if fx != fx or slope != slope:
            raise SolverError("degenerate",
                              f"residual or slope is NaN at x = {x:.17g}")
        if fx == 0.0:
            return x
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
            return min(max(x + step, lo), hi)
        nxt = x + step
        if not lo < nxt < hi:
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
        f"Newton did not converge in {MAX_ITER} iterations "
        f"on [{start_lo:.17g}, {start_hi:.17g}]")


def _no_bracket(x: float, fx: float) -> SolverError:
    return SolverError(
        "no_bracket",
        f"f({x:.17g}) = {fx:.6g} at an end leaves the root outside")


def _value(f: Callable[[float], float], x: float) -> float:
    fx = f(x)
    if fx != fx:
        raise SolverError("degenerate", f"residual is NaN at x = {x:.17g}")
    return fx


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
