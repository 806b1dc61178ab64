"""series_engine: singular-IVP recurrence, family series, printed-coefficient
regressions."""
import math

import numpy as np
import pytest

from conftest import SQRT3
from nkshoot.errors import (OutOfRadiusError, ResonanceError,
                            SeriesConsistencyError)
from nkshoot.exact import eval_named, SMOOTHING
from nkshoot.series import (SingularIVP, eval_series, handoff,
                            recurrence_residuals, s2_problem,
                            s3_bubble_problem, series_bubble_a,
                            series_bubble_b, series_psi_a, series_psi_b,
                            solve_singular_ivp)
from nkshoot.state import apply_symmetry, constraints


# ---------------------------------------------------------------------------
# generic recurrence

def _toy_problem(coeff: float) -> SingularIVP:
    """Scalar y' = (1/t)(coeff * y) + 1, y0 = 0."""
    def rhs(y, x):
        return [coeff * y[0]], [x]
    return SingularIVP(1, np.array([0.0]), rhs, name="toy")


def test_toy_scalar_recurrence():
    # y' = -(2/t) y + 1 has the exact solution y = t/3
    Y, A = solve_singular_ivp(_toy_problem(-2.0), 10)
    assert A[0, 0] == -2.0
    expect = np.zeros(11)
    expect[1] = 1.0 / 3.0
    assert np.allclose(Y[0], expect, atol=1e-16)


def test_resonance_gate():
    # coeff = +2 makes h*Id - dM_-1 singular at h = 2
    with pytest.raises(ResonanceError):
        solve_singular_ivp(_toy_problem(2.0), 10)


def test_resonance_gate_names_first_h_within_order():
    # all orders are checked in one batch before the first solve; the error
    # names the first resonant h, and a resonance beyond the order is not one
    with pytest.raises(ResonanceError, match=r"at h = 2 "):
        solve_singular_ivp(_toy_problem(2.0), 10)
    Y, _ = solve_singular_ivp(_toy_problem(5.0), 4)
    assert np.allclose(Y[0], [0.0, -0.25, 0.0, 0.0, 0.0], atol=1e-16)
    with pytest.raises(ResonanceError, match=r"at h = 5 "):
        solve_singular_ivp(_toy_problem(5.0), 5)


def test_order_below_one_rejected():
    with pytest.raises(ValueError, match="order"):
        solve_singular_ivp(_toy_problem(-2.0), 0)
    with pytest.raises(ValueError, match="order"):
        series_psi_a(0.7, -3)


def test_consistency_gate():
    def rhs(y, x):
        return [-2.0 * y[0] + 1.0], [0.0]
    bad = SingularIVP(1, np.array([0.0]), rhs, name="bad")
    with pytest.raises(SeriesConsistencyError):
        solve_singular_ivp(bad, 5)


@pytest.mark.parametrize("a", [0.3, 0.7, 1.0, 2.5])
def test_s2_determinant_sequence(a):
    # det(h Id - dM_-1) = (h+1)(h+2)^3(h+4)^3 for the S2 substitution
    A = s2_problem(a).linearization()
    for h in range(0, 12):
        det = np.linalg.det(h * np.eye(7) - A)
        expect = (h + 1) * (h + 2) ** 3 * (h + 4) ** 3
        assert abs(det - expect) < 1e-8 * expect


@pytest.mark.parametrize("b", [0.0, 0.4, 1.0, 2.0])
def test_s3_bubble_determinant_sequence(b):
    # det(h Id - dM_-1) = (h+1)^2 (h+2)^4 (h+3)
    A = s3_bubble_problem(b).linearization()
    for h in range(1, 12):
        det = np.linalg.det(h * np.eye(7) - A)
        expect = (h + 1) ** 2 * (h + 2) ** 4 * (h + 3)
        assert abs(det - expect) < 1e-8 * expect


@pytest.mark.parametrize("family,param", [("s2", 0.6), ("s2", 2.0),
                                          ("s3", 0.5), ("s3", 1.3)])
def test_recurrence_exactness(family, param):
    prob = s2_problem(param) if family == "s2" else s3_bubble_problem(param)
    Y, _ = solve_singular_ivp(prob, 40)
    res = recurrence_residuals(prob, Y)
    scale = np.maximum(1.0, np.max(np.abs(Y), axis=0))
    assert float(np.max(res / scale)) < 1e-12


@pytest.mark.parametrize("family,param", [("s2", 0.12), ("s2", 4.0),
                                          ("s3", 0.0), ("s3", 0.12),
                                          ("s3", 1.6)])
def test_sweep_extremes(family, param):
    # the benchmark sweep's parameter extremes: alpha in [0.12, 4], beta in
    # [0.12, 1.6], and the conical bubble limit b = 0
    prob = s2_problem(param) if family == "s2" else s3_bubble_problem(param)
    Y, A = solve_singular_ivp(prob, 40)
    res = recurrence_residuals(prob, Y)
    scale = np.maximum(1.0, np.max(np.abs(Y), axis=0))
    assert float(np.max(res / scale)) < 1e-12
    assert np.array_equal(A, prob.linearization())


# ---------------------------------------------------------------------------
# printed-coefficient regressions

def psi_a_reference(a: float) -> dict[tuple[str, int], float]:
    """Low-order Taylor data of the S2 family."""
    return {
        ("lam", 1): 1.5,
        ("lam", 3): -(2 * a**2 + 3) / (12 * a**2),
        ("lam", 5): (116 * a**4 - 381 * a**2 + 261) / (1440 * a**4),
        ("lam", 7): (5500 * a**6 - 26523 * a**4 + 34209 * a**2 - 13149)
        / (90720 * a**6),
        ("u0", 0): a**2,
        ("u0", 2): -3 * a**2,
        ("u0", 4): (52 * a**2 - 3) / 24,
        ("u0", 6): -(172 * a**4 + 3 * a**2 - 18) / (270 * a**2),
        ("u1", 0): a**2,
        ("u1", 2): -1.5 * (2 * a**2 - 1),
        ("u1", 4): (52 * a**4 - 32 * a**2 - 3) / (24 * a**2),
        ("u1", 6): -(2752 * a**6 - 1688 * a**4 + 93 * a**2 - 261)
        / (4320 * a**4),
        ("u2", 2): -1.5 * SQRT3 * a,
        ("u2", 4): SQRT3 * (16 * a**2 - 3) / (12 * a),
        ("u2", 6): SQRT3 * (-3412 * a**4 + 267 * a**2 + 423) / (8640 * a**3),
        ("v0", 2): 3 * a**2,
        ("v0", 4): -(0.25 + 14 * a**2 / 3),
        ("v0", 6): (5516 * a**4 + 429 * a**2 + 261) / (2160 * a**2),
        ("v1", 2): 3 * a**2,
        ("v1", 4): 2 - 14 * a**2 / 3,
        ("v1", 6): (5516 * a**4 - 2541 * a**2 - 549) / (2160 * a**2),
        ("v2", 2): 1.5 * SQRT3 * a,
        ("v2", 4): -SQRT3 * (34 * a**2 - 3) / (12 * a),
        ("v2", 6): SQRT3 * (13492 * a**4 + 273 * a**2 - 423) / (8640 * a**3),
    }


def bubble_b_reference(b: float) -> dict[tuple[str, int], float]:
    """Low-order Taylor data of the rescaled S3 bubble in s; lam2 entries
    refer to the squared lambda series."""
    return {
        ("lam2", 0): 1.0,
        ("lam2", 2): -1.8 * (b * b - 1),
        ("lam2", 4): (27 / 35) * (b * b - 1) * (2 * b * b - 1),
        ("u0", 1): 2 * b,
        ("u0", 3): -4 * b**3,
        ("u0", 5): (6 / 25) * b**3 * (19 * b * b - 9),
        ("u1", 1): 2.0,
        ("u1", 3): -(2 / 5) * (13 * b * b - 3),
        ("u1", 5): (6 / 175) * (172 * b**4 - 111 * b * b + 9),
        ("u2", 1): -2 * b,
        ("u2", 3): b * (4 * b * b - 3),
        ("u2", 5): -(3 / 100) * b * (152 * b**4 - 192 * b * b + 45),
        ("v0", 0): -2 / 3,
        ("v0", 2): 4 * b * b,
        ("v0", 4): -(2 / 5) * b * b * (19 * b * b - 9),
        ("v1", 2): 4 * b,
        ("v1", 4): -(4 / 5) * b * (11 * b * b - 6),
        ("v2", 0): 2 / 3,
        ("v2", 2): -(4 * b * b - 3),
        ("v2", 4): (1 / 20) * (152 * b**4 - 192 * b * b + 45),
    }


def max_reference_error_a(a: float, order: int = 40) -> float:
    sol = series_psi_a(a, order)
    worst = 0.0
    for (name, k), ref in psi_a_reference(a).items():
        got = sol.coeffs[name][k]
        worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    return worst


def max_reference_error_b(b: float, order: int = 40) -> float:
    sol = series_bubble_b(b, order)
    lam2 = np.convolve(sol.coeffs["lam"], sol.coeffs["lam"])
    worst = 0.0
    for (name, k), ref in bubble_b_reference(b).items():
        got = lam2[k] if name == "lam2" else sol.coeffs[name][k]
        worst = max(worst, abs(got - ref) / max(1.0, abs(ref)))
    return worst


@pytest.mark.parametrize("a", [0.3, 0.75, 1.0, SQRT3, 3.0])
def test_psi_a_printed_coefficients(a):
    assert max_reference_error_a(a) < 1e-10


@pytest.mark.parametrize("b", [0.3, 0.75, 1.0, 1.5, 3.0])
def test_bubble_b_printed_coefficients(b):
    assert max_reference_error_b(b) < 1e-10


# ---------------------------------------------------------------------------
# closed-form comparisons

def test_psi_a_sqrt3_matches_transformed_round_sphere():
    # the a = sqrt(3) member is the round-sphere solution reflected about
    # t = pi/2 and pushed through tau1.tau2.tau3
    sol = series_psi_a(SQRT3, 40)
    for t in np.linspace(0.01, 0.2, 13):
        st, _ = eval_series(sol, t)
        ref = apply_symmetry("tau1.tau2.tau3",
                             eval_named("s6-round", math.pi / 2 - t))
        assert np.max(np.abs(st.vec - ref.vec)) < 1e-10


def test_psi_b_unit_matches_homogeneous_solution():
    sol = series_psi_b(1.0, 40)
    for t in np.linspace(0.0, 0.3, 11):
        s = sol.var_of_time(t)
        st, _ = eval_series(sol, s)
        ref = eval_named("s3s3-homog", t)
        assert abs(st.t - t) < 1e-13
        assert np.max(np.abs(st.vec - ref.vec)) < 1e-10


def test_bubble_b_zero_limit_is_smoothing():
    # b = 0 is the asymptotically conical limit: u0 = u2 = v1 = 0,
    # v0 = -2/3, u1 = 2s + ..., and the whole state matches the smoothing
    # closed form
    sol = series_bubble_b(0.0, 40)
    assert np.max(np.abs(sol.coeffs["u0"])) == 0.0
    assert np.max(np.abs(sol.coeffs["u2"])) == 0.0
    assert np.max(np.abs(sol.coeffs["v1"])) == 0.0
    v0 = sol.coeffs["v0"]
    assert v0[0] == -2.0 / 3.0 and np.max(np.abs(v0[1:])) < 1e-15
    assert abs(sol.coeffs["u1"][1] - 2.0) < 1e-14
    for s in np.linspace(0.02, 0.3, 8):
        st, _ = eval_series(sol, s)
        ref = SMOOTHING.state_components(s)
        assert np.max(np.abs(st.vec - ref)) < 1e-10


def test_eval_series_at_zero_is_initial_data():
    a, b = 0.8, 1.2
    st, _ = eval_series(series_psi_a(a), 0.0)
    assert np.allclose(st.vec, [0, a * a, a * a, 0, 0, 0, 0], atol=0)
    st, _ = eval_series(series_psi_b(b), 0.0)
    assert np.allclose(st.vec, [b, 0, 0, 0, -2 * b**3 / 3, 0, 2 * b**3 / 3],
                       atol=0)


def test_series_state_satisfies_constraints():
    st, _ = eval_series(series_psi_a(1.0, 40), 0.05)
    assert constraints(st).max_abs < 1e-12


def test_order_independence_inside_radius():
    lo = series_bubble_b(0.5, 40)
    hi = series_bubble_b(0.5, 50)
    st_lo, _ = eval_series(lo, 0.1)
    st_hi, _ = eval_series(hi, 0.1)
    assert np.max(np.abs(st_lo.vec - st_hi.vec)) < 1e-13


def test_s2_parity():
    # u, v even and lambda odd: the complementary coefficients vanish
    sol = series_psi_a(1.3, 40)
    for name, arr in sol.coeffs.items():
        if name == "lam":
            assert np.max(np.abs(arr[0::2])) < 1e-13
        else:
            assert np.max(np.abs(arr[1::2])) < 1e-13


def test_constraint_vanishing_order():
    # max |I_i| of the evaluated series decays like x^N as x -> 0; a low
    # truncation order keeps the decay measurable above the roundoff floor
    order = 10
    sol = series_psi_a(1.0, order)
    xs = np.geomspace(0.15, 0.5, 8)
    vals = []
    for x in xs:
        st = sol.components_at(x)
        from nkshoot.state import State
        c = constraints(State.from_vec(x, st))
        vals.append(max(c.max_abs, 1e-300))
    slope = np.polyfit(np.log(xs), np.log(vals), 1)[0]
    assert slope >= order - 2


def test_coefficient_continuity_in_parameter():
    # finite differences in a of each retained coefficient stay bounded
    a, da = 1.0, 1e-6
    lo = series_psi_a(a, 30)
    hi = series_psi_a(a + da, 30)
    for name in lo.coeffs:
        diff = np.abs(hi.coeffs[name] - lo.coeffs[name]) / da
        scale = np.maximum(1.0, np.abs(lo.coeffs[name]))
        assert float(np.max(diff / scale)) < 1e3


def test_handoff_tail_and_cap():
    for family, param in (("alpha", 0.3), ("alpha", 5.0), ("beta", 0.05),
                          ("beta", 1.5)):
        from nkshoot.series import family_series
        sol = family_series(family, param)
        t_star, st = handoff(sol)
        assert t_star <= 0.1 * min(1.0, param) + 1e-15
        assert constraints(st).max_abs < 1e-11


def test_out_of_radius_error():
    sol = series_psi_a(0.3, 40)
    with pytest.raises(OutOfRadiusError):
        eval_series(sol, 2.0)


def test_bubble_a_is_coefficient_rescaling():
    a = 0.7
    base = series_psi_a(a, 30)
    bub = series_bubble_a(a, 30)
    # evaluating the bubble at t~ equals the rescaled base at t = a t~
    t_tilde = 0.05
    st_b, _ = eval_series(bub, t_tilde)
    st, _ = eval_series(base, a * t_tilde)
    expect = st.vec / np.array([a, a * a, a * a, a * a, a**3, a**3, a**3])
    assert np.max(np.abs(st_b.vec - expect)) < 1e-12
