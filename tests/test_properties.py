"""Property-based checks of contracts that the docstrings of the numerical
core state, on generated inputs. Each property runs derandomized, so every
run of the suite draws the same examples."""
import math

import pytest

from nkshoot.integrate import bracketed_root

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PROPERTY = hypothesis.settings(derandomize=True, deadline=None,
                               database=None, max_examples=100)
EPS = 2.0 ** -52


def _sign_change(kind: int, r: float, a: float, b: float):
    """A function of x whose only sign change is at r, exact in floats:
    x - r is exact in sign and zero only at x = r, and no factor below
    rounds it to zero (a >= 1e-20 and |x - r| >= ulp(r) / 2 with |r| >=
    1e-6; 1 + b >= 1)."""
    if kind == 0:
        return lambda x: a * (x - r) * (1.0 + b * (x - r) ** 2)
    if kind == 1:
        return lambda x: math.tanh((1.0 + b) * (x - r))
    return lambda x: math.copysign(a, x - r) if x != r else 0.0


@st.composite
def bracketed(draw):
    """(f, r, lo, hi, xtol, rtol): f's sign change r inside [lo, hi] (in
    either order), of either sign, and one of the package's tolerances."""
    r = draw(st.floats(1e-6, 10.0)) * draw(st.sampled_from((-1.0, 1.0)))
    lo = r - draw(st.floats(0.0, 10.0))
    hi = r + draw(st.floats(0.0, 10.0))
    kind = draw(st.integers(0, 2))
    a = draw(st.floats(1e-20, 1e20))
    b = draw(st.floats(0.0, 100.0))
    sign = draw(st.sampled_from((-1.0, 1.0)))
    f = _sign_change(kind, r, a, b)
    if draw(st.booleans()):
        lo, hi = hi, lo
    xtol, rtol = draw(st.sampled_from(((0.0, 0.0), (EPS, 4 * EPS),
                                       (1e-14, 8.9e-16), (1e-9, 0.0),
                                       (0.0, 1e-6))))
    return (lambda x: sign * f(x)), r, lo, hi, xtol, rtol


@PROPERTY
@hypothesis.given(bracketed())
def test_bracketed_root_returns_an_evaluated_point_at_the_sign_change(case):
    # a point f was evaluated at (the ends by the caller), inside the
    # bracket, and within xtol + rtol |x| of the sign change or one float
    # from it
    f, r, lo, hi, xtol, rtol = case
    calls = [lo, hi]

    def g(x):
        calls.append(x)
        return f(x)
    x = bracketed_root(g, lo, hi, f(lo), f(hi), xtol, rtol)
    assert x in calls
    assert min(lo, hi) <= x <= max(lo, hi)
    assert (abs(x - r) < xtol + rtol * abs(x)
            or abs(x - r) <= abs(math.nextafter(x, r) - x))


@PROPERTY
@hypothesis.given(bracketed(), st.sampled_from(("lo", "hi", "inside")))
def test_bracketed_root_raises_on_a_nan(case, where):
    # a NaN among the caller's end values or at the first new point
    f, r, lo, hi, xtol, rtol = case
    f_lo, f_hi = f(lo), f(hi)
    # the search evaluates f inside the bracket only if it is not final
    hypothesis.assume(f_lo != 0.0 and f_hi != 0.0
                      and math.nextafter(lo, hi) != hi
                      and abs(hi - lo) >= xtol + rtol * max(abs(lo), abs(hi)))
    if where == "lo":
        f_lo = math.nan
    elif where == "hi":
        f_hi = math.nan
    else:
        f = lambda x: math.nan     # noqa: E731
    with pytest.raises(ValueError, match="NaN"):
        bracketed_root(f, lo, hi, f_lo, f_hi, xtol, rtol)


@PROPERTY
@hypothesis.given(bracketed(), st.floats(1e-300, 1e300),
                  st.sampled_from((-1.0, 1.0)))
def test_bracketed_root_raises_on_ends_of_the_same_sign(case, size, sign):
    f, _, lo, hi, xtol, rtol = case
    with pytest.raises(ValueError, match="same sign"):
        bracketed_root(f, lo, hi, sign * size, sign * size / 3.0, xtol, rtol)
