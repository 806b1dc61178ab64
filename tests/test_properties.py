"""Property-based checks of contracts that the docstrings of the numerical
core state, on generated inputs. Each property runs derandomized, so every
run of the suite draws the same examples."""
import math

import numpy as np
import pytest

from conftest import float_bits
from nkshoot.integrate import bracketed_root
from nkshoot.series import _step_size
from nkshoot.state import (GLUE_MINUS, GLUE_PLUS, State, Symmetry,
                           apply_symmetry, constraints, rhs_vec,
                           transform_derivative)

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


@st.composite
def taylor_rows(draw):
    """(c, tol): coefficient rows c of shape (N + 1, 7), N in 2..40, and a
    step tolerance. Rows 0, N - 1 and N, the ones _step_size reads, hold
    entries of either sign spanning 1e-30..1e30 or 0; the rows between hold
    one such entry throughout."""
    n = draw(st.integers(2, 40))
    entry = st.one_of(st.just(0.0),
                      st.builds(lambda m, e, s: s * m * 10.0 ** e,
                                st.floats(1.0, 10.0), st.integers(-30, 30),
                                st.sampled_from((-1.0, 1.0))))
    c = np.full((n + 1, 7), draw(entry))
    c[[0, n - 1, n]] = np.reshape(draw(st.lists(entry, min_size=21,
                                                max_size=21)), (3, 7))
    tol = draw(st.sampled_from((EPS, 1e-14, 1e-10, 1e-6, 1e-2)))
    return c, tol


def _power_term(c: np.ndarray, h: float, k: int) -> float:
    """max|c_k| h^k, with 0 h^k = 0 at any h (a zero row bounds nothing)."""
    ck = float(np.max(np.abs(c[k])))
    return ck * h ** k if ck else 0.0


@PROPERTY
@hypothesis.given(taylor_rows())
def test_step_size_bounds_the_last_two_terms(case):
    # max|c_N| h^N <= tol s and max|c_(N-1)| h^(N-1) <= tol^((N-1)/N) s,
    # s = max(1, max|c_0|), to the rounding of the powers
    c, tol = case
    n = len(c) - 1
    h = _step_size(c, tol)
    assert h > 0.0
    s = max(1.0, float(np.max(np.abs(c[0]))))
    slack = 1.0 + 8 * n * EPS
    assert _power_term(c, h, n) <= tol * s * slack
    assert _power_term(c, h, n - 1) <= tol ** ((n - 1) / n) * s * slack


@PROPERTY
@hypothesis.given(taylor_rows(), st.data())
def test_step_size_is_nan_or_zero_on_overflowed_rows(case, data):
    # a jet that overflowed at order m has non-finite rows from m on
    c, tol = case
    n = len(c) - 1
    m = data.draw(st.integers(1, n))
    bad = data.draw(st.lists(st.sampled_from((math.inf, -math.inf, math.nan)),
                             min_size=1, max_size=7))
    c[m:, :len(bad)] = bad
    h = _step_size(c, tol)
    assert math.isnan(h) or h == 0.0


#: each generator and the two gluing words, the time-reversing words that
#: glue the two halves of a complete structure
GLUING = (GLUE_PLUS.label, GLUE_MINUS.label)
WORDS = ("tau1", "tau2", "tau3", "tau4", *GLUING)


@st.composite
def states(draw):
    """A State at t in [-4, 4] with components of either sign and of size
    1e-3..1e3, in half the draws made admissible: lambda > 0, |u0| <= |u1|
    (so mu^2 >= u2^2 > 0) and v1, v2 negated where u1 v2 - u2 v1 < 0."""
    t = draw(st.floats(-4.0, 4.0))
    y = [draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-3, 3))
         for _ in range(7)]
    if draw(st.booleans()):
        y[0] = abs(y[0])
        if abs(y[1]) > abs(y[2]):
            y[1], y[2] = y[2], y[1]
        if y[2] * y[6] - y[3] * y[5] < 0.0:
            y[5], y[6] = -y[5], -y[6]
    return State.from_vec(t, y)


def _admissible(s: State) -> bool:
    return s.lam > 0.0 and s.mu2 > 0.0 and s.orient > 0.0


@PROPERTY
@hypothesis.given(states())
def test_symmetry_words_are_involutions(s):
    # each word applied twice, and the doubled word applied once, give back
    # the state bit for bit, time included
    for word in WORDS:
        for back in (apply_symmetry(word, apply_symmetry(word, s)),
                     apply_symmetry(f"{word}.{word}", s)):
            assert float_bits([back.t, *back.vec]) == float_bits(
                [s.t, *s.vec]), word


@PROPERTY
@hypothesis.given(states())
def test_symmetry_words_keep_the_first_integrals(s):
    # |I1| .. |I4| bit for bit: each word only flips signs
    before = float_bits(np.abs(constraints(s).values))
    for word in WORDS:
        after = constraints(apply_symmetry(word, s)).values
        assert float_bits(np.abs(after)) == before, word


@PROPERTY
@hypothesis.given(states())
def test_transform_derivative_is_the_image_flow(s):
    # each word maps solutions to solutions: the derivative pushed through
    # it is the right-hand side at the image, bit for bit
    for word in WORDS:
        sym = Symmetry.from_word(word)
        image = apply_symmetry(sym, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            pushed = transform_derivative(sym, rhs_vec(s.t, s.vec))
            at_image = rhs_vec(image.t, image.vec)
        assert float_bits(pushed) == float_bits(at_image), word


@PROPERTY
@hypothesis.given(states())
def test_only_the_gluing_words_keep_states_admissible(s):
    # lambda > 0, mu^2 > 0 and u1 v2 - u2 v1 > 0 hold at the image of a
    # gluing word exactly where they hold at the state (the word is an
    # involution); a single generator takes every admissible state out
    for word in WORDS:
        image = apply_symmetry(word, s)
        if word in GLUING:
            assert _admissible(image) == _admissible(s), word
        else:
            assert not (_admissible(s) and _admissible(image)), word
