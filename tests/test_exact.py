"""closed_forms: named solutions, Calabi-Yau oracles, rescalings, Legendre."""
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from conftest import SQRT2, SQRT3, named_derivative
from nkshoot.errors import OutOfDomainError
from nkshoot.exact import (NAMED_SOLUTIONS, SMOOTHING, eval_calabi_yau,
                           eval_named, legendre_xi)
from nkshoot.state import constraints, rhs


def test_eval_named_reference_points():
    st = eval_named("sine-cone", math.pi / 2)
    assert np.allclose(st.vec, [1, 0, 0, -1, 0, 1, 0], atol=1e-15)
    st = eval_named("s3s3-homog", 0.0)
    assert np.allclose(st.vec, [1, 0, 0, 0, -2 / 3, 0, 2 / 3], atol=1e-15)
    st = eval_named("cp3-homog", 0.0)
    assert st.lam == 0.0
    assert np.allclose(st.u, [0.75, 0.75, 0.0], atol=1e-15)
    # s6-round is the b = 3/2 member: v0(0) = -(2/3) b^3
    st = eval_named("s6-round", 0.0)
    assert np.allclose(st.vec, [1.5, 0, 0, 0, -2.25, 0, 2.25], atol=1e-15)


def test_out_of_domain():
    with pytest.raises(OutOfDomainError):
        eval_named("sine-cone", 3.5)
    with pytest.raises(OutOfDomainError):
        eval_named("no-such-solution", 0.5)


@pytest.mark.parametrize("name", sorted(NAMED_SOLUTIONS))
def test_vec_on_an_array_is_eval_at_each_point(name):
    # the verify grid, and times offset by +-h and +-2h from every tenth
    # point of it, bit for bit (signs of zero included)
    sol = NAMED_SOLUTIONS[name]
    lo, hi = sol.domain
    grid = np.linspace(lo, hi, 1002)[1:-1]
    h = 1e-5
    fd = grid[::10]
    fd = fd[(fd - 2 * h > lo) & (fd + 2 * h < hi)]
    ts = np.concatenate([grid, fd - 2 * h, fd - h, fd + h, fd + 2 * h,
                         [lo, hi]])
    want = np.array([sol.eval(t).vec for t in ts]).T
    got = sol.vec(ts)
    assert got.shape == (7, ts.size)
    assert (got.view(np.int64) == want.view(np.int64)).all()
    assert (sol.vec(ts[3]).view(np.int64) == want[:, 3].view(np.int64)).all()


@pytest.mark.parametrize("name", sorted(NAMED_SOLUTIONS))
def test_vec_rejects_any_time_outside_the_domain(name):
    sol = NAMED_SOLUTIONS[name]
    lo, hi = sol.domain
    inside = np.linspace(lo, hi, 7)
    for bad in (lo - 1e-12, hi + 1e-12, math.nan, lo - 1e-12 + 1e-20j,
                complex(math.nan, 0.0)):
        with pytest.raises(OutOfDomainError):
            sol.vec(bad)
        with pytest.raises(OutOfDomainError):
            sol.vec(np.append(inside, bad))
        if not isinstance(bad, complex):
            with pytest.raises(OutOfDomainError):
                sol.eval(bad)


@pytest.mark.parametrize("name", sorted(NAMED_SOLUTIONS))
def test_vec_on_complex_times_extends_the_real_evaluator(name):
    # the real part of a complex step is the state to round-off; at the
    # ends the domain check reads the real part
    sol = NAMED_SOLUTIONS[name]
    ts = np.linspace(*sol.domain, 9)
    z = sol.vec(ts + 1e-20j)
    assert z.dtype == complex
    assert np.max(np.abs(z.real - sol.vec(ts))) < 1e-15


@pytest.mark.parametrize("name", sorted(NAMED_SOLUTIONS))
def test_named_solutions_satisfy_system(name):
    # oracle: hand-differentiated closed forms plugged into the polynomial
    # form of the evolution equations
    from conftest import equation_residual
    sol = NAMED_SOLUTIONS[name]
    ts = np.linspace(sol.domain[0], sol.domain[1], 202)[1:-1]
    worst_eq = 0.0
    worst_con = 0.0
    for t in ts:
        st = sol.eval(t)
        worst_eq = max(worst_eq, equation_residual(st, named_derivative(name, t)))
        worst_con = max(worst_con, constraints(st).max_abs)
    assert worst_eq < 1e-12
    assert worst_con < 1e-13


@pytest.mark.parametrize("name", sorted(NAMED_SOLUTIONS))
def test_rhs_matches_closed_form_derivative(name):
    # the solved-for right-hand side agrees with the analytic derivative at
    # interior points (near the singular orbits the solved form amplifies
    # the cancellation in mu^2, so the margins stay away from the ends)
    sol = NAMED_SOLUTIONS[name]
    lo, hi = sol.domain
    span = hi - lo
    for t in np.linspace(lo + 0.1 * span, hi - 0.1 * span, 41):
        st = sol.eval(t)
        ref = named_derivative(name, t)
        err = float(np.max(np.abs(rhs(st) - ref)))
        assert err < 1e-11 * max(1.0, float(np.max(np.abs(ref))))


def test_named_total_volumes_by_quadrature():
    expect = {
        "sine-cone": 16.0 / 15.0,
        "s6-round": 9.0 / 5.0,
        "s3s3-homog": 2 * math.pi / (3 * SQRT3),
        "cp3-homog": 9.0 / 8.0,
    }
    for name, ref in expect.items():
        sol = NAMED_SOLUTIONS[name]
        val, _ = quad(lambda t: sol.eval(t).volume, *sol.domain,
                      epsabs=1e-12, epsrel=1e-11, limit=200)
        assert abs(val - ref) < 1e-9 * ref, name


def test_named_vmax_closed_form():
    # maximize V on a fine grid + golden refinement against the known values
    expect = {
        "sine-cone": 1.0,
        "s6-round": 81 * SQRT3 / (25 * math.sqrt(5)),
        "s3s3-homog": 4.0 / 3.0,
        "cp3-homog": 27 * SQRT2 / 32,
    }
    from scipy.optimize import minimize_scalar
    for name, ref in expect.items():
        sol = NAMED_SOLUTIONS[name]
        lo, hi = sol.domain
        res = minimize_scalar(lambda t: -sol.eval(t).volume,
                              bounds=(lo + 1e-9, hi - 1e-9), method="bounded",
                              options={"xatol": 1e-12})
        assert abs(-res.fun - ref) < 1e-9, name


def test_small_resolution_values():
    comp, resid = eval_calabi_yau("small-resolution", SQRT2)
    assert abs(comp["lam"] - 2 / SQRT3) < 1e-14
    assert abs(comp["mu"] - SQRT3) < 1e-14
    assert resid < 1e-7


def test_small_resolution_asymptotic_rate():
    comp, _ = eval_calabi_yau("small-resolution", 10.0)
    r3 = 1000.0
    assert abs(comp["lam"] * comp["mu"] - r3) / r3 < 2e-4


def test_smoothing_near_origin():
    # mu = 2s + O(s^3) at kappa = 2/3
    for s in (1e-3, 1e-2):
        comp, _ = eval_calabi_yau("smoothing", s)
        assert abs(comp["mu"] / s - 2.0) < 5 * s * s + 1e-10
    comp = SMOOTHING.components(0.0)
    assert comp["lam"] == pytest.approx(1.0, abs=1e-15)
    assert comp["v0"] == pytest.approx(-2 / 3, abs=1e-15)


@pytest.mark.parametrize("s", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 0.05,
                               0.1 - 1e-12, 0.1, 0.1 + 1e-12, 0.2, 1.0])
def test_smoothing_components_against_mpmath(s):
    # f = sinh(3s) cosh(3s) - 3s cancels as s -> 0 (f ~ 18 s^3); below
    # |6s| = 0.6 it comes from its Taylor series. Every component, on both
    # sides of that switch and down to s = 1e-6, lies within 1e-14 relative
    # of a 50-digit evaluation (the cancelling formula gave 2.3e-6 at 1e-6),
    # and for small s the complex-step residual stays at the round-off of
    # the 1/s-sized logarithmic derivatives it differences
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        k, x = mp.mpf(2) / 3, mp.mpf(s)
        sh = mp.sinh(3 * x)
        f = mp.cbrt(sh * mp.cosh(3 * x) - 3 * x)
        want = {"lam": mp.cbrt(k) * sh / f, "mu": mp.cbrt(k) ** 2 * f,
                "v0": -mp.cbrt(k) ** 2 * f / sh,
                "v2": mp.cbrt(k) ** 2 * f / mp.tanh(3 * x)}
        got = SMOOTHING.components(s)
        for name, w in want.items():
            assert abs((got[name] - w) / w) <= 1e-14, name
    if s <= 1e-2:
        assert SMOOTHING.evolution_residual(s) <= 4 * np.finfo(float).eps / s


def test_smoothing_evolution_residual():
    for s in (0.2, 0.5, 1.0):
        _, resid = eval_calabi_yau("smoothing", s)
        assert resid < 1e-7


def test_smoothing_second_order_relation():
    # f'' = 9 f for f in {lambda mu, lambda v2}
    h = 1e-4
    for s in (0.3, 0.7, 1.2):
        for key2 in ("mu", "v2"):
            def f(x):
                c = SMOOTHING.components(x)
                return c["lam"] * c[key2]
            d2 = (f(s - h) - 2 * f(s) + f(s + h)) / (h * h)
            assert abs(d2 - 9 * f(s)) < 1e-6 * max(1.0, abs(9 * f(s)))


@pytest.mark.parametrize("name", ["small-resolution", "smoothing"])
@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_calabi_yau_rejects_non_finite_points(name, x):
    # nan and inf used to give NaN components
    with pytest.raises(OutOfDomainError):
        eval_calabi_yau(name, x)


def test_calabi_yau_residual_needs_an_interior_point():
    for name, x in (("small-resolution", 1.0), ("smoothing", 0.0)):
        with pytest.raises(OutOfDomainError, match="interior point"):
            eval_calabi_yau(name, x)
    with pytest.raises(OutOfDomainError):
        eval_calabi_yau("small-resolution", 0.99)


def test_calabi_yau_rejects_an_unknown_form():
    with pytest.raises(OutOfDomainError, match="unknown Calabi-Yau form"):
        eval_calabi_yau("no-such-form", 1.5)


@pytest.mark.parametrize("t", [0.0, math.pi, 4.0, math.nan, [0.5, 3.5]],
                         ids=["zero", "pi", "above", "nan", "one-outside"])
def test_legendre_xi_needs_t_in_0_pi(t):
    with pytest.raises(OutOfDomainError, match=r"t in \(0, pi\)"):
        legendre_xi(1.0, 1.0, np.asarray(t))


def test_legendre_regular_solution():
    xi, _ = legendre_xi(1.0, 0.0, math.pi / 2)
    assert abs(xi) < 1e-15  # odd polynomial in cos t
    # analytic residual of the equation for the regular branch
    t = 1.0
    s, c = math.sin(t), math.cos(t)
    xi, dxi = legendre_xi(1.0, 0.0, t)
    ddxi = c * (3 - 15 * c * c) + 30 * s * s * c
    resid = c * dxi + s * ddxi + 12 * s * xi
    assert abs(resid) < 1e-12


def test_legendre_singular_solution_residual():
    # FD residual of (sin t xi')' + 12 sin t xi for the log branch
    h = 1e-5
    for t in (0.5, 1.0, 2.0):
        def sxp(tt):
            return math.sin(tt) * legendre_xi(0.0, 1.0, tt)[1]
        d = (sxp(t - 2 * h) - 8 * sxp(t - h) + 8 * sxp(t + h)
             - sxp(t + 2 * h)) / (12 * h)
        assert abs(d + 12 * math.sin(t) * legendre_xi(0.0, 1.0, t)[0]) < 1e-8


def test_legendre_mixed_has_two_zeros_and_negative_min():
    c1, c2 = 0.05, 1.0
    ts = np.linspace(0.05, math.pi / 2 - 1e-9, 4001)
    vals = np.array([legendre_xi(c1, c2, t)[0] for t in ts])
    sign_changes = np.nonzero(np.diff(np.sign(vals)))[0]
    zeros = [brentq(lambda t: legendre_xi(c1, c2, t)[0],
                    ts[i], ts[i + 1]) for i in sign_changes]
    assert len(zeros) == 2
    # past the second zero the solution dips to a negative minimum before
    # pi/2 (the near-origin divergence of the log branch is irrelevant here)
    beyond = ts > zeros[1]
    assert vals[beyond].min() < 0.0
    t_min = ts[beyond][np.argmin(vals[beyond])]
    assert zeros[1] < t_min < math.pi / 2


def test_legendre_derivative_consistency():
    # returned derivative matches finite differences of the value
    h = 1e-6
    for t in (0.4, 1.3, 2.6):
        val_p = legendre_xi(0.3, 0.7, t + h)[0]
        val_m = legendre_xi(0.3, 0.7, t - h)[0]
        assert abs((val_p - val_m) / (2 * h)
                   - legendre_xi(0.3, 0.7, t)[1]) < 1e-8
