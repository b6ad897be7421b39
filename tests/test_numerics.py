import math

import pytest

from egl.errors import SolverError
from egl.numerics import MAX_ITER, XTOL, bracketed_root, grow_bracket


def counting(f):
    """``f`` plus a list whose length is the number of calls made."""
    calls = []

    def wrapped(x):
        calls.append(x)
        return f(x)

    return wrapped, calls


# (residual, lo, hi, rtol)
PARITY_CASES = {
    "tiny_root": (lambda x: x - 3.7e-23, 0.0, 1.0, 1e-10),
    "huge_root": (lambda x: (x / 6.2e18) ** 2 - 1.0, 1.0, 1e20, 1e-10),
    "steep_tanh": (lambda x: math.tanh(1e6 * (x - 0.3)), 0.0, 1.0, 1e-12),
    "flat_cubic": (lambda x: (x - 0.7) ** 3, 0.0, 2.0, 1e-10),
    "zero_at_endpoint": (lambda x: x * (x + 1.0), 0.0, -0.5, 1e-10),
    "rtol_below_floor": (lambda x: math.exp(x) - 5.0, 0.0, 4.0, 1e-20),
}


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_matches_reference_brent(case):
    optimize = pytest.importorskip("scipy.optimize")
    f, lo, hi, rtol = PARITY_CASES[case]
    mine, calls = counting(f)
    root = bracketed_root(mine, lo, hi, rtol=rtol)
    ref, info = optimize.brentq(f, lo, hi, xtol=XTOL,
                                rtol=max(rtol, 8.9e-16), maxiter=MAX_ITER,
                                full_output=True)
    assert info.converged
    assert root == ref
    assert math.copysign(1.0, root) == math.copysign(1.0, ref)
    assert len(calls) == info.function_calls


class TestFailures:
    def test_no_sign_change(self):
        with pytest.raises(SolverError) as err:
            bracketed_root(lambda x: x * x + 1.0, -1.0, 2.0)
        assert err.value.kind == "no_bracket"

    def test_nan_residual(self):
        f, calls = counting(lambda x: math.nan if 0.3 < x < 0.7 else x - 0.5)
        with pytest.raises(SolverError) as err:
            bracketed_root(f, 0.0, 1.0)
        assert err.value.kind == "degenerate"
        assert "NaN" in str(err.value)
        assert len(calls) == 3          # both ends, then the first step

    def test_iteration_cap(self):
        # a jump at 0, where the tolerance is XTOL: bisection alone would
        # need about a thousand halvings to get there
        f, calls = counting(lambda x: 1.0 if x > 0.0 else -1.0)
        with pytest.raises(SolverError) as err:
            bracketed_root(f, -1.0, 2.0)
        assert err.value.kind == "degenerate"
        assert len(calls) == MAX_ITER + 2


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
        # bracketed_root then reports the NaN
        assert grow_bracket(lambda x: math.nan, 1.0, ceiling=10.0) == 1.0
