"""rootfind: the Brent port against SciPy's brentq, which serves only as the
independent reference here."""
import math

import numpy as np
import pytest
from scipy import optimize

from nkshoot.rootfind import brentq
from nkshoot.shoot import ROOT_XTOL

EPS = np.finfo(float).eps
# the (xtol, rtol) pairs the package passes
TOLERANCES = [(EPS, 4 * EPS), (1e-15, 8.9e-16), (1e-13, 8.9e-16),
              (ROOT_XTOL, 8.9e-16)]
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
    """f and a list whose length is the number of calls made to it."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)
    return g, calls


@pytest.mark.parametrize("tol", TOLERANCES, ids=str)
@pytest.mark.parametrize("name", FUNCTIONS)
def test_matches_scipy(name, tol):
    f, a, b = FUNCTIONS[name]
    xtol, rtol = tol
    for lo, hi in ((a, b), (b, a)):
        ours, our_calls = counted(f)
        ref, ref_calls = counted(f)
        root = brentq(ours, lo, hi, xtol=xtol, rtol=rtol)
        assert root == optimize.brentq(ref, lo, hi, xtol=xtol, rtol=rtol)
        assert our_calls == ref_calls


def test_matches_scipy_on_random_brackets():
    rng = np.random.default_rng(3)
    checked = 0
    for k in range(400):
        c = rng.normal(size=rng.integers(2, 8))
        f = (lambda c: lambda x: math.tanh(5 * np.polyval(c, x)))(c)
        lo, hi = sorted(rng.uniform(-3.0, 3.0, 2))
        if f(lo) * f(hi) >= 0.0:
            continue
        xtol, rtol = TOLERANCES[k % len(TOLERANCES)]
        ours, our_calls = counted(f)
        ref, ref_calls = counted(f)
        assert (brentq(ours, lo, hi, xtol=xtol, rtol=rtol)
                == optimize.brentq(ref, lo, hi, xtol=xtol, rtol=rtol))
        assert our_calls == ref_calls
        checked += 1
    assert checked > 100


def test_exact_zero_at_an_end_returns_it():
    for lo, hi in ((1.0, 3.0), (-1.0, 1.0)):
        ours, our_calls = counted(lambda x: x - 1.0)
        assert brentq(ours, lo, hi, xtol=EPS, rtol=4 * EPS) == 1.0
        assert len(our_calls) == 2


def test_errors():
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=EPS, rtol=4 * EPS)
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0,
               xtol=EPS, rtol=4 * EPS)
    with pytest.raises(ValueError, match="xtol"):
        brentq(lambda x: x, -1.0, 1.0, xtol=0.0, rtol=4 * EPS)
    with pytest.raises(ValueError, match="rtol"):
        brentq(lambda x: x, -1.0, 1.0, xtol=EPS, rtol=EPS)
    # x^9 is too flat at its root for 100 steps to shrink the bracket to eps
    with pytest.raises(RuntimeError, match="100 iterations"):
        brentq(lambda x: x ** 9, -1.0, 0.7, xtol=EPS, rtol=4 * EPS)
    with pytest.raises(RuntimeError):
        optimize.brentq(lambda x: x ** 9, -1.0, 0.7, xtol=EPS, rtol=4 * EPS)
