"""The bracketed root primitive, integrate.bracketed_root (Chandrupatla's
method), with SciPy's brentq as an independent oracle."""
import math
import sys

import numpy as np
import pytest
from scipy import optimize

from nkshoot.integrate import bracketed_root
from nkshoot.shoot import ROOT_XTOL

EPS = np.finfo(float).eps
# the (xtol, rtol) pairs the package passes, (0, 0) in integrate._root and
# (ROOT_XTOL, 8.9e-16) in find_doubling, and three settings between, the
# first with a tolerance near the 4-ulp floor on the step
TOLERANCES = [(0.0, 0.0), (EPS, 4 * EPS), (1e-15, 8.9e-16),
              (1e-13, 8.9e-16), (ROOT_XTOL, 8.9e-16)]
FUNCTIONS = {
    "cubic": (lambda x: x ** 3 - 2 * x - 5, 2.0, 3.0),
    "cos": (lambda x: math.cos(x) - x, 0.0, 1.0),
    "exp": (lambda x: math.exp(x) - 10.0, 0.0, 5.0),
    "log": (math.log, 0.1, 1e6),
    "steep-tanh": (lambda x: math.tanh(50 * (x - 0.3)), 0.0, 1.0),
    "steep-atan": (lambda x: math.atan(1e4 * (x - 1.2345)), 0.0, 3.0),
    "step": (lambda x: math.copysign(1.0, x - 0.4), 0.0, 1.0),
    "tiny-slope": (lambda x: (x - 1e-3) * 1e-20, 0.0, 1.0),
    "double-root-shift": (lambda x: x * x - 1e-10, 0.0, 1.0),
}


def counted(f):
    """f and the list of the points it is called at."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)
    return g, calls


def check_root(f, lo, hi, xtol, rtol) -> None:
    """bracketed_root on f from (lo, hi) returns a point it evaluated, within
    xtol + rtol |x| of SciPy's brentq at its tightest setting (which lies
    within 4 eps |x| of the sign change), and evaluates f only inside the
    bracket, with at most 10 evaluations more than brentq (without the
    4-ulp floor on each step, the finish to adjacent floats takes 18-45
    more on cubic, exp and double-root-shift); at xtol = rtol = 0 the point
    and one of its float neighbours bracket the sign change."""
    g, calls = counted(f)
    root = bracketed_root(g, lo, hi, g(lo), g(hi), xtol, rtol)
    h, ref_calls = counted(f)
    ref = optimize.brentq(h, lo, hi, xtol=1e-300, rtol=4 * EPS)
    scale = max(abs(root), abs(ref))
    assert abs(root - ref) <= xtol + (rtol + 4 * EPS) * scale
    assert all(min(lo, hi) <= x <= max(lo, hi) for x in calls)
    assert root in calls
    assert len(calls) <= len(ref_calls) + 10
    if xtol == rtol == 0.0:
        assert any(f(x) * f(root) <= 0.0
                   for x in (math.nextafter(root, -math.inf),
                             math.nextafter(root, math.inf)))


@pytest.mark.parametrize("tol", TOLERANCES, ids=str)
@pytest.mark.parametrize("name", FUNCTIONS)
def test_matches_scipy(name, tol):
    f, a, b = FUNCTIONS[name]
    for lo, hi in ((a, b), (b, a)):
        check_root(f, lo, hi, *tol)


def test_matches_scipy_on_random_brackets():
    rng = np.random.default_rng(3)
    checked = 0
    for k in range(400):
        c = rng.normal(size=rng.integers(2, 8))
        f = (lambda c: lambda x: math.tanh(5 * np.polyval(c, x)))(c)
        lo, hi = sorted(rng.uniform(-3.0, 3.0, 2))
        if f(lo) * f(hi) >= 0.0:
            continue
        check_root(f, lo, hi, *TOLERANCES[k % len(TOLERANCES)])
        checked += 1
    assert checked > 100


def test_exact_zero_at_an_end_returns_it():
    for lo, hi in ((1.0, 3.0), (-1.0, 1.0)):
        ours, our_calls = counted(lambda x: x - 1.0)
        assert bracketed_root(ours, lo, hi, ours(lo), ours(hi),
                              EPS, 4 * EPS) == 1.0
        assert len(our_calls) == 2


def test_errors(monkeypatch):
    with pytest.raises(ValueError, match="same sign"):
        bracketed_root(lambda x: x * x + 1.0, -1.0, 1.0, 2.0, 2.0, 0.0, 0.0)
    # a NaN inside the bracket, where the first new point (its middle) lands
    with pytest.raises(ValueError, match=r"f\(0.5\) is NaN"):
        bracketed_root(lambda x: math.nan if x == 0.5 else x - 0.6, 0.0, 1.0,
                       -0.6, 0.4, 0.0, 0.0)
    # cos(x) - x takes 6 new points to adjacent floats
    monkeypatch.setattr(sys.modules["nkshoot.integrate"], "ROOT_MAXITER", 3)
    with pytest.raises(RuntimeError, match="after 3 points"):
        bracketed_root(lambda x: math.cos(x) - x, 0.0, 1.0,
                       1.0, math.cos(1.0) - 1.0, 0.0, 0.0)


def test_end_values_are_not_evaluated_again_and_are_checked():
    # f(lo) and f(hi) come from the caller: f is called only inside the
    # bracket, and a NaN among them is rejected as an evaluated one is
    def f(x):
        return math.cos(x) - x
    ours, calls = counted(f)
    bracketed_root(ours, 0.0, 1.0, f(0.0), f(1.0), 0.0, 0.0)
    assert calls and all(0.0 < x < 1.0 for x in calls)
    for ends in ((math.nan, f(1.0)), (f(0.0), math.nan)):
        with pytest.raises(ValueError, match="NaN"):
            bracketed_root(f, 0.0, 1.0, *ends, 0.0, 0.0)
