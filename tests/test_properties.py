"""Property-based checks of contracts that the docstrings of the numerical
core state, on generated inputs. Each property runs derandomized, so every
run of the suite draws the same examples."""
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyint, polyval

from conftest import diagonal_toy, float_bits
from nkshoot.errors import ResonanceError
from nkshoot.integrate import DEFAULT_TOL, MAX_VOLUME_EVENT, bracketed_root
from nkshoot.series import (COND_LIMIT, _poly_states, _step_size,
                            poly_integral, solve_singular_ivp)
from nkshoot.shoot import _segments_cross, solve_family
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


@st.composite
def diagonal_toys(draw):
    """(coeffs, order): 1 to 6 coefficients in [-20, 20] and an order in
    1..12; in half the draws one coefficient is moved to within 1e-12..1e-5
    of an integer h in 1..order + 2, or onto it, where the spectral ratio
    at h falls on either side of COND_LIMIT."""
    order = draw(st.integers(1, 12))
    coeffs = draw(st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=6))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(coeffs) - 1))
        coeffs[i] = draw(st.integers(1, order + 2)) + draw(st.sampled_from(
            (-1.0, 0.0, 1.0))) * 10.0 ** draw(st.floats(-12.0, -5.0))
    return coeffs, order


@PROPERTY
@hypothesis.given(diagonal_toys())
def test_solve_singular_ivp_on_diagonal_toys(case):
    # the closed form y_i = t / (1 - c_i) when no h in 1..order has a
    # spectral ratio max|h - c| / min|h - c| above COND_LIMIT; else a
    # ResonanceError naming the first such h and its ratio
    coeffs, order = case
    c = np.array(coeffs)
    gap = np.abs(np.arange(1, order + 1)[:, None] - c)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = gap.max(axis=1) / gap.min(axis=1)
    bad = np.flatnonzero(~(ratio <= COND_LIMIT))
    if bad.size:
        h = int(bad[0])
        with pytest.raises(ResonanceError, match=re.escape(
                f"at h = {h + 1} (cond = {ratio[h]:.3e})")):
            solve_singular_ivp(diagonal_toy(coeffs), order)
        return
    Y, _ = solve_singular_ivp(diagonal_toy(coeffs), order)
    assert Y.shape == (len(c), order + 1)
    assert not Y[:, 0].any() and not Y[:, 2:].any()
    np.testing.assert_allclose(Y[:, 1], 1.0 / (1.0 - c), rtol=4 * EPS,
                               atol=0.0)


SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan)


@st.composite
def polynomials(draw, special=False):
    """(c, taus): coefficient rows c of shape (N + 1, k), N in 0..40 and k
    in 1..7, C-ordered or column-major (as a jet is), and 1..9 offsets.
    Coefficients lie in [-1e3, 1e3] and offsets in [-2, 2], zeros of either
    sign included, so that nothing overflows; with special, 1..3 entries of
    c or taus are +-0.0, +-inf or NaN instead, and N >= 1, the degree of
    every step polynomial: at N = 0 numpy's polyval forms x * 0 and is NaN
    at an offset +-inf or NaN, where _poly_states gives c_0 (x^0 = 1)."""
    n = draw(st.integers(1 if special else 0, 40))
    k = draw(st.integers(1, 7))
    c = np.reshape(draw(st.lists(st.floats(-1e3, 1e3), min_size=(n + 1) * k,
                                 max_size=(n + 1) * k)), (n + 1, k))
    taus = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=9))
    for _ in range(draw(st.integers(1, 3)) if special else 0):
        value = draw(st.sampled_from(SPECIALS))
        if draw(st.booleans()):
            c[draw(st.integers(0, n)), draw(st.integers(0, k - 1))] = value
        else:
            taus[draw(st.integers(0, len(taus) - 1))] = value
    return (np.asfortranarray(c) if draw(st.booleans()) else c), taus


def _integrals(c: np.ndarray, lo: float, hi: float) -> list[tuple]:
    """poly_integral(col, lo, hi) of each column col of c, numpy's
    polyval(hi, P) - polyval(lo, P) with P = polyint(col), and the sum
    over both ends of sum_k |P_k| |x|^k."""
    out = []
    with np.errstate(all="ignore"):
        for col in c.T:
            P = polyint(col)
            out.append((poly_integral(col, lo, hi),
                        polyval(hi, P) - polyval(lo, P),
                        polyval(abs(hi), np.abs(P))
                        + polyval(abs(lo), np.abs(P))))
    return out


@PROPERTY
@hypothesis.given(polynomials())
def test_poly_states_agrees_with_polyval(case):
    # each component within 4 (N + 2) eps of sum_k |c_k| |tau|^k of
    # numpy's Horner evaluation, at one offset and at an array of them
    c, taus = case
    for tau in (taus[0], np.array(taus)):
        got, want = _poly_states(c, tau), polyval(tau, c).T
        scale = polyval(np.abs(tau), np.abs(c)).T
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 4 * (len(c) + 1) * EPS * scale)


@PROPERTY
@hypothesis.given(polynomials(special=True))
def test_poly_states_is_non_finite_where_polyval_is(case):
    c, taus = case
    for tau in (taus[0], np.array(taus)):
        with np.errstate(all="ignore"):
            got, want = _poly_states(c, tau), polyval(tau, c).T
        assert np.array_equal(np.isfinite(got), np.isfinite(want))


@PROPERTY
@hypothesis.given(polynomials())
def test_poly_integral_agrees_with_polyint(case):
    # each column's integral over [lo, hi], lo = 0 (whose end poly_integral
    # skips) included, within 4 (N + 3) eps of the sum over both ends of
    # sum_k |P_k| |x|^k
    c, taus = case
    for lo in (0.0, taus[0]):
        for got, want, scale in _integrals(c, lo, taus[-1]):
            assert abs(got - want) <= 4 * (len(c) + 2) * EPS * scale


@PROPERTY
@hypothesis.given(polynomials(special=True))
def test_poly_integral_is_non_finite_where_polyint_is(case):
    c, taus = case
    for lo in (0.0, -0.0, taus[0]):
        for got, want, _ in _integrals(c, lo, taus[-1]):
            assert math.isfinite(got) == math.isfinite(want)


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


@st.composite
def members(draw):
    """(family, param): alpha in [0.05, 10] or beta in [0.02, 3], drawn
    log-uniformly."""
    family, lo, hi = draw(st.sampled_from((("alpha", 0.05, 10.0),
                                           ("beta", 0.02, 3.0))))
    return family, min(hi, lo * (hi / lo) ** draw(st.floats(0.0, 1.0)))


@hypothesis.settings(PROPERTY, max_examples=48)
@hypothesis.given(members())
def test_step_polynomials_join_and_bracket_the_event(member):
    # at every join t_k each step polynomial meets the next within the
    # per-step tolerance 1e-2 tol max(1, |y|), and the event time T is a
    # zero of the event function on the last step's polynomial to adjacent
    # floats: g(T) = 0 or g changes sign between T and a float neighbour
    traj = solve_family(*member).traj
    starts, coeffs = traj.starts, traj.coeffs
    for k in range(1, len(coeffs)):
        end = _poly_states(coeffs[k - 1], starts[k] - starts[k - 1])
        y = _poly_states(coeffs[k], 0.0)
        assert (np.max(np.abs(end - y))
                <= 1e-2 * DEFAULT_TOL * max(1.0, np.max(np.abs(y)))), k

    def g(t):
        return float(MAX_VOLUME_EVENT.fn_vec(
            t, _poly_states(coeffs[-1], t - starts[-1])))
    T = traj.t_end
    assert g(T) == 0.0 or any(g(T) * g(math.nextafter(T, side)) <= 0.0
                              for side in (-math.inf, math.inf))


@st.composite
def segment_pairs(draw):
    """Endpoints p0, p1, q0, q1, each a float pair in [-1e3, 1e3]; in a
    third of the draws q0 or q1 is p0 or p1, so the segments share an
    endpoint."""
    pts = [np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=2,
                                  max_size=2))) for _ in range(4)]
    if draw(st.integers(0, 2)) == 0:
        pts[draw(st.sampled_from((2, 3)))] = pts[draw(st.integers(0, 1))]
    return pts


def _exact_cross(p0, p1, q0, q1):
    """_segments_cross's s and u in exact rational arithmetic on the same
    floats, or None where the exact denominator is 0."""
    (a0, a1), (b0, b1), (c0, c1), (e0, e1) = (
        map(Fraction, p.tolist()) for p in (p0, p1, q0, q1))
    d1, d2, rel = (b0 - a0, b1 - a1), (e0 - c0, e1 - c1), (c0 - a0, c1 - a1)
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if denom == 0:
        return None
    return ((rel[0] * d2[1] - rel[1] * d2[0]) / denom,
            (rel[0] * d1[1] - rel[1] * d1[0]) / denom)


@PROPERTY
@hypothesis.given(segment_pairs(), st.integers(-700, 700))
@hypothesis.example([np.array(p) for p in ((0.0, 0.0), (1e-200, 0.0),
                                           (5e-201, -1e-200),
                                           (5e-201, 1e-200))], 700)
def test_segments_cross_agrees_with_exact_arithmetic(pts, k):
    # the crossing flag is the exact one wherever the exact s and u lie at
    # least 1e-9 from 0 and 1; a shared start q0 of the second segment is
    # found at its exact parameters (0 or 1 on the first, 0 on the second)
    # unless the float denominator is 0; scaling all four points by 2^k,
    # where that is exact, leaves (flag, s, u) unchanged
    ok, s, u = _segments_cross(*pts)
    scaled = [np.ldexp(p, k) for p in pts]
    if all(np.array_equal(np.ldexp(q, -k), p) for p, q in zip(pts, scaled)):
        assert _segments_cross(*scaled) == (ok, s, u)
    exact = _exact_cross(*pts)
    if exact is None:
        return
    if all(min(abs(x), abs(x - 1)) >= 1e-9 for x in exact):
        assert ok == all(0 < x < 1 for x in exact)
    if any(pts[2] is p for p in pts[:2]):
        assert (ok, s, u) in ((True, *exact), (False, 0.0, 0.0))
