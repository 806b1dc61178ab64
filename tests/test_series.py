"""series_engine: singular-IVP recurrence, family series, printed-coefficient
regressions."""
import math
import re

import numpy as np
import pytest

from conftest import (SQRT3, diagonal_toy, float_bits, mp_reference_solve,
                      plain_dot, reference_advance, reference_horner,
                      reference_poly_integral, reference_residuals,
                      reference_table, s_of_time, s_radius, with_top_lambda)
from nkshoot import series
from nkshoot.errors import (InvalidArgumentError, OutOfRadiusError,
                            ResonanceError, SeriesConsistencyError)
from nkshoot.exact import eval_named, SMOOTHING
from nkshoot.integrate import _order_and_tol
from nkshoot.series import (COND_LIMIT, SingularIVP, _Program, _horner,
                            _poly_states, _step_size, eval_series,
                            family_series, handoff, poly_integral,
                            s2_problem, s3_bubble_problem, s3_problem,
                            series_bubble_a, series_bubble_b, series_psi_a,
                            series_psi_b, solve_singular_ivp)
from nkshoot.state import apply_symmetry, complex_step, constraints


# ---------------------------------------------------------------------------
# generic recurrence

def _toy_problem(coeff: float) -> SingularIVP:
    """Scalar y' = (1/t)(coeff * y) + 1, y0 = 0."""
    def rhs(y, x):
        return [coeff * y[0] + x]
    return SingularIVP(_Program(1, rhs), np.array([0.0]), name="toy")


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


def test_resonance_spectrum_decides_where_the_frobenius_bound_does_not():
    # at h = 3 the matrix is diag(d, 3, 3, 3), whose spectral ratio
    # max|h - eig| / min|h - eig| = 3/d = 7e7 (for a diagonal matrix also
    # its 2-norm condition number) is below COND_LIMIT, while
    # |M|_F |M^-1|_F is about sqrt(3) times that, above it
    coeff = 3.0 - 3.0 / 7e7
    M = np.diag([3.0 - coeff, 3.0, 3.0, 3.0])
    assert np.linalg.cond(M) <= COND_LIMIT
    assert np.linalg.norm(M) * np.linalg.norm(np.linalg.inv(M)) > COND_LIMIT
    Y, _ = solve_singular_ivp(diagonal_toy([coeff, 0.0, 0.0, 0.0]), 6)
    # y_i = t / (1 - coeffs[i])
    assert Y[0, 1] == pytest.approx(1.0 / (1.0 - coeff), rel=1e-15)
    assert (Y[1:, 1] == 1.0).all()


def test_resonance_error_names_the_first_ill_conditioned_h():
    # the spectral ratio 3/d = 2e8 at h = 3 exceeds COND_LIMIT; the error
    # names h = 3 and that ratio, for this diagonal matrix also its 2-norm
    # condition number
    coeff = 3.0 - 3.0 / 2e8
    cond = np.linalg.cond(np.diag([3.0 - coeff, 3.0, 3.0, 3.0]))
    assert cond > COND_LIMIT
    with pytest.raises(ResonanceError, match=re.escape(
            f"at h = 3 (cond = {cond:.3e})")):
        solve_singular_ivp(diagonal_toy([coeff, 0.0, 0.0, 0.0]), 6)


def _linear_toy(A: np.ndarray) -> SingularIVP:
    """y' = (1/t) A y + 1, y0 = 0: h*Id - dM_-1 is h*Id - A."""
    def rhs(y, x):
        return [sum(a * yj for a, yj in zip(row, y) if a) + x
                for row in A]
    return SingularIVP(_Program(len(A), rhs), np.zeros(len(A)),
                       name="linear toy")


@pytest.mark.parametrize("K,lower", [(1e4, False), (1e6, True)])
@pytest.mark.parametrize("f", [0.5, 0.9, 1.1, 2.0])
def test_resonance_is_decided_on_the_spectrum_of_a_non_normal_matrix(
        K, lower, f):
    # a triangular A with off-diagonal terms K and eigenvalues 3 - d, 1/2
    # and -1: cond_2(h*Id - A) exceeds COND_LIMIT at every h, yet the gate
    # raises exactly where the spectral ratio max|h - eig| / min|h - eig|
    # (4/d at h = 3) does, and names that h and that ratio
    d = 4.0 / COND_LIMIT * f
    A = np.array([[3.0 - d, K, 0.0], [0.0, 0.5, K], [0.0, 0.0, -1.0]])
    A = A.T if lower else A
    hs = np.arange(1, 7)
    assert all(np.linalg.cond(h * np.eye(3) - A) > COND_LIMIT for h in hs)
    gap = np.abs(hs[:, None] - np.linalg.eigvals(A))
    ratio = gap.max(axis=1) / gap.min(axis=1)
    bad = np.flatnonzero(ratio > COND_LIMIT)
    if bad.size:
        assert f < 1.0
        with pytest.raises(ResonanceError, match=re.escape(
                f"at h = {hs[bad[0]]} (cond = {ratio[bad[0]]:.3e})")):
            solve_singular_ivp(_linear_toy(A), 6)
    else:
        assert f > 1.0
        _, got = solve_singular_ivp(_linear_toy(A), 6)
        assert np.array_equal(got, A)


def test_order_below_one_rejected():
    with pytest.raises(ValueError, match="order"):
        solve_singular_ivp(_toy_problem(-2.0), 0)
    with pytest.raises(ValueError, match="order"):
        series_psi_a(0.7, -3)
    # S3 is solved to order + 1, so its own check must catch order 0
    with pytest.raises(InvalidArgumentError, match="order"):
        series_psi_b(0.7, 0)


def test_consistency_gate():
    def rhs(y, x):
        return [-2.0 * y[0] + 1.0]
    bad = SingularIVP(_Program(1, rhs), np.array([0.0]), name="bad")
    with pytest.raises(SeriesConsistencyError):
        solve_singular_ivp(bad, 5)


@pytest.mark.parametrize("a", [0.3, 0.7, 1.0, 2.5])
def test_s2_determinant_sequence(a):
    # det(h Id - dM_-1) = (h+1)(h+2)^3(h+4)^3 for the S2 substitution
    _, A = solve_singular_ivp(s2_problem(a), 1)
    for h in range(0, 12):
        det = np.linalg.det(h * np.eye(7) - A)
        expect = (h + 1) * (h + 2) ** 3 * (h + 4) ** 3
        assert abs(det - expect) < 1e-8 * expect


@pytest.mark.parametrize("b", [0.0, 0.4, 1.0, 2.0])
def test_s3_bubble_determinant_sequence(b):
    # det(h Id - dM_-1) = (h+1)^2 (h+2)^4 (h+3)
    _, A = solve_singular_ivp(s3_bubble_problem(b), 1)
    for h in range(1, 12):
        det = np.linalg.det(h * np.eye(7) - A)
        expect = (h + 1) ** 2 * (h + 2) ** 4 * (h + 3)
        assert abs(det - expect) < 1e-8 * expect


@pytest.mark.parametrize("b", [0.3, 0.6, 1.0, 1.7])
def test_s3_program_in_t(b):
    # the S3 closing in t: M_-1(y0) = 0; A has the spectrum
    # {-3, -2, -1, -1, 0, 0, 0}, so no order resonates; the series is even
    # in t; every order satisfies the recurrence to round-off relative to
    # its largest coefficient (they grow like b^-k: absolutely, the
    # residuals reach 4e10 at b = 0.3); and the t-rows of an order-40 build
    # are those of an order-44 build
    prob = s3_problem(b)
    W, const = prob.program.output
    c0, _ = prob.program.gradient(prob.y0, prob.params)
    assert np.max(np.abs(W @ c0 + const)) < 1e-15 * max(
        1.0, np.max(np.abs(prob.y0)))
    Y, A = solve_singular_ivp(prob, 41)
    eig = np.linalg.eigvals(A)
    assert np.allclose(np.sort(eig.real), [-3, -2, -1, -1, 0, 0, 0],
                       rtol=0, atol=1e-12)
    assert not eig.imag.any()
    assert not Y[:, 1::2].any()
    res = reference_residuals(prob, Y)
    scale = np.maximum(1.0, np.max(np.abs(Y), axis=0))
    assert float(np.max(res / scale)) < 1e-12
    lo, hi = series_psi_b(b, 40).t_coeffs, series_psi_b(b, 44).t_coeffs
    assert np.array_equal(lo, hi[:42])


def test_s3_program_builds_at_large_b():
    # at b = 1e5, cond(Id - A) = 6.9e9 comes from the scales b^w of the
    # rows (u0/t, u1/t, u2/t, v0, v1, v2, lambda), w = (1, 0, 1, 2, 1, 2, 0),
    # alone: with D = diag(b^w), every D^-1 (h*Id - A) D has cond <= 13.2,
    # as at b = 1, so no order resonates and the series is built
    b, w = 1e5, np.array([1, 0, 1, 2, 1, 2, 0])
    prob = s3_problem(b)
    Y, A = solve_singular_ivp(prob, 41)
    assert np.linalg.cond(np.eye(7) - A) > COND_LIMIT
    scale = b ** (w[None, :] - w[:, None])      # D^-1 M D
    for h in range(1, 42):
        assert np.linalg.cond((h * np.eye(7) - A) * scale) < 14.0
    # the recurrence holds to 1.1e-10 of each order's largest coefficient,
    # over rows that span ten decades
    res = reference_residuals(prob, Y)
    scale = np.maximum(1.0, np.max(np.abs(Y), axis=0))
    assert float(np.max(res / scale)) < 1e-9
    assert np.isfinite(series_psi_b(b).t_coeffs).all()


def test_family_series_rejects_an_unknown_family():
    with pytest.raises(InvalidArgumentError, match="unknown family 'gamma'"):
        family_series("gamma", 1.0)


@pytest.mark.parametrize("family,param", [("s2", 0.6), ("s2", 2.0),
                                          ("s3", 0.5), ("s3", 1.3)])
def test_recurrence_exactness(family, param):
    prob = s2_problem(param) if family == "s2" else s3_bubble_problem(param)
    Y, _ = solve_singular_ivp(prob, 40)
    res = reference_residuals(prob, Y)
    scale = np.maximum(1.0, np.max(np.abs(Y), axis=0))
    assert float(np.max(res / scale)) < 1e-12


@pytest.mark.parametrize("family,param", [("s2", 0.12), ("s2", 4.0),
                                          ("s3", 0.0), ("s3", 0.12),
                                          ("s3", 1.6)])
def test_sweep_extremes(family, param):
    # the benchmark sweep's parameter extremes: alpha in [0.12, 4], beta in
    # [0.12, 1.6], and the conical bubble limit b = 0
    prob = s2_problem(param) if family == "s2" else s3_bubble_problem(param)
    Y, _ = solve_singular_ivp(prob, 40)
    res = reference_residuals(prob, Y)
    scale = np.maximum(1.0, np.max(np.abs(Y), axis=0))
    assert float(np.max(res / scale)) < 1e-12


@pytest.mark.parametrize("problem, param, h", [
    (s2_problem, 0.6, 16), (s3_problem, 0.6, 24),
    (s3_bubble_problem, 1.3, 10)])
def test_reference_residuals_see_a_planted_coefficient_change(problem, param,
                                                              h):
    # the residual oracle of the tests above reads the table: the largest
    # coefficient of order h raised by 1e-8 relative lifts order h's
    # residual over their 1e-12 threshold, and every order before h stays
    # below it
    prob = problem(param)
    Y, _ = solve_singular_ivp(prob, 40)
    Y[np.argmax(np.abs(Y[:, h])), h] *= 1.0 + 1e-8
    res = reference_residuals(prob, Y)
    scale = np.maximum(1.0, np.max(np.abs(Y), axis=0))
    assert res[h] / scale[h] > 1e-12
    assert float(np.max(res[:h] / scale[:h])) < 1e-12


def test_family_program_shared_across_parameters():
    # the parameter is a row of the table, not a constant of the program
    assert s2_problem(0.3).program is s2_problem(0.7).program
    assert s3_bubble_problem(0.3).program is s3_bubble_problem(0.7).program
    assert s3_problem(0.3).program is s3_problem(0.7).program


def test_solve_family_records_no_program(monkeypatch):
    from nkshoot import series
    from nkshoot.shoot import solve_family
    recorded = []
    init = series._Program.__init__

    def counted_init(self, *args, **kwargs):
        recorded.append(args)
        init(self, *args, **kwargs)
    monkeypatch.setattr(series._Program, "__init__", counted_init)
    solve_family("alpha", 0.6)
    solve_family("beta", 0.6)
    assert recorded == []


_DECADES = [(-20, -10), (-10, 10), (10, 20), (-20, 20)]


@pytest.mark.parametrize(
    "decades, row_major",
    [*((d, False) for d in _DECADES), *((d, True) for d in _DECADES)],
    ids=[*(f"decades{i}" for i in range(4)),
         *(f"decades{i}-row-major" for i in range(4))])
def test_vecdot_on_the_kernel_views_adds_left_to_right(decades, row_major):
    # the relaxed kernel's bits rest on np.vecdot of a row of P[:, 1:h] and
    # a reversed row of Q[:, h-1:0:-1], views of one C-ordered record (a
    # column per order) or of the transpose of a row-major (n + 1, 2m + 7)
    # record (a row per order, the kernel's), adding the products left to
    # right from +0.0 like conftest.plain_dot: at every length 0..48, at
    # magnitudes 1e-20..1e20 of either sign, and with zeros of both signs
    # (a row of -0.0 products sums to +0.0)
    rng = np.random.default_rng(sum(decades) + 40)
    m, n = 18, 49
    T = (rng.choice([-1.0, 1.0], (2 * m + 7, n + 1))
         * 10.0 ** rng.uniform(*decades, (2 * m + 7, n + 1)))
    T[rng.random(T.shape) < 0.1] = 0.0
    T[rng.random(T.shape) < 0.1] = -0.0
    T[0] = -0.0
    if row_major:
        T = np.ascontiguousarray(T.T).T
    P, Q = T[:m], T[m:2 * m]
    for h in range(1, n + 1):
        got = np.vecdot(P[:, 1:h], Q[:, h - 1:0:-1])
        want = np.array([plain_dot(P[i, 1:h].tolist(),
                                   Q[i, h - 1:0:-1].tolist())
                         for i in range(m)])
        assert (np.array_equal(got, want)
                and np.array_equal(np.signbit(got), np.signbit(want))), (
            f"np.vecdot does not add the {h - 1} products of the kernel's "
            f"views left to right (BLAS or fused multiply-adds?); the jets' "
            f"and series' bits depend on it")


def _reference_gradient(problem: SingularIVP, order: int):
    # the table with its order-0 column, and G from order 1 on the unit
    # vectors with x = 0, the plain way
    prog, k = problem.program, problem.program.dim
    C = reference_table(prog, order, problem.params)
    C[:k, 0] = problem.y0
    reference_advance(prog, C, 0)
    G = np.empty((prog.n_rows, k))
    T = np.zeros((prog.n_rows, 2))
    T[:, 0] = C[:, 0]
    for j in range(k):
        T[:, 1] = 0.0
        T[j, 1] = 1.0
        reference_advance(prog, T, 1)
        G[:, j] = T[:, 1]
    return C, G


def _reference_solve(problem: SingularIVP, order: int):
    # solve_singular_ivp's table and A the plain way: the order-0 column,
    # G, the batch inverse, then order by order the relaxed recurrence with
    # y_h = 0 and the update by G y_h
    prog, k = problem.program, problem.program.dim
    W, _ = prog.output
    C, G = _reference_gradient(problem, order)
    A = W @ G
    IW = np.linalg.inv(np.arange(1, order + 1)[:, None, None] * np.eye(k)
                       - A) @ W
    for h in range(1, order + 1):
        reference_advance(prog, C, h)
        C[:, h] += G @ (IW[h - 1] @ C[:, h])
    return C[:k], A


@pytest.mark.parametrize("order", [4, 16, 40])
@pytest.mark.parametrize("problem, param", [
    *((s2_problem, a) for a in (0.01, 0.12, 1.0, 4.0, 50.0)),
    *((s3_problem, b) for b in (0.001, 0.12, 1.0, 1.6, 20.0, 1e5)),
    *((s3_bubble_problem, b) for b in (0.001, 0.12, 1.0, 1.6, 20.0))])
def test_solve_singular_ivp_bits_equal_the_plain_recurrence(problem, param,
                                                            order):
    # bit for bit, signs of zero included, across the three programs'
    # parameter ranges and at orders 4, 16 and 40, whose longest
    # convolution sums add 3, 15 and 39 products left to right
    prob = problem(param)
    Y, A = solve_singular_ivp(prob, order)
    Y_ref, A_ref = _reference_solve(prob, order)
    assert Y.flags.c_contiguous
    assert np.array_equal(Y, Y_ref) and np.array_equal(A, A_ref)
    assert np.array_equal(np.signbit(Y), np.signbit(Y_ref))


@pytest.mark.parametrize("problem, param", [
    *((s2_problem, a) for a in (0.01, 1.0, 50.0)),
    *((s3_problem, b) for b in (0.001, 1.0, 1e5)),
    *((s3_bubble_problem, b) for b in (0.0, 1.0, 20.0))])
def test_gradient_bits_equal_the_plain_recurrence(problem, param):
    # the order-0 column and every row of G, signs of zero included,
    # against order 1 of the plain recurrence on the unit vectors
    prob = problem(param)
    c0, G = prob.program.gradient(prob.y0, prob.params)
    C, G_ref = _reference_gradient(prob, 1)
    assert G.flags.c_contiguous
    for got, want in ((c0, C[:, 0]), (G, G_ref)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("param", [0.12, 0.7, 1.0, 1.7, 4.0])
@pytest.mark.parametrize("problem, rhs", [
    (s2_problem, series._s2_rhs), (s3_problem, series._s3_rhs),
    (s3_bubble_problem, series._s3_bubble_rhs)])
def test_A_is_the_jacobian_of_F_at_x_zero(problem, rhs, param):
    # A = W G, with G from the program's own gradient pass, against the
    # columns of d_y F(0, y) at y0 by complex step on each rhs evaluated on
    # plain complex numbers at x = 0; and F(0, y0) = 0, the consistency
    # that solve_singular_ivp reads off the output's order-0 value
    prob = problem(param)

    def F(z):
        return np.array(rhs([complex(v) for v in z], 0.0, param))
    J = np.column_stack([complex_step(F, prob.y0, e) for e in np.eye(7)])
    _, A = solve_singular_ivp(prob, 1)
    assert np.max(np.abs(A - J)) <= 1e-13 * np.max(np.abs(J))
    scale = 1.0 + np.max(np.abs(prob.y0))
    assert np.max(np.abs(F(prob.y0))) <= 1e-13 * scale


@pytest.mark.parametrize("a", [0.12, 0.5646, SQRT3])
def test_s2_rows_match_a_40_digit_recurrence(a):
    # every row of the order-40 table is within 2e-14 of its largest
    # coefficient of the same recurrence carried to 40 digits
    prob = s2_problem(a)
    Y, _ = solve_singular_ivp(prob, 40)
    for row, ref in zip(Y, mp_reference_solve(prob, 40)):
        ref = np.array([float(v) for v in ref])
        assert np.max(np.abs(row - ref)) <= 2e-14 * np.max(np.abs(ref))


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
    # the t-rows, the S3 series in time
    sol = series_psi_b(1.0, 40)
    for t in np.linspace(0.0, 0.3, 11):
        ref = eval_named("s3s3-homog", t)
        got = _poly_states(sol.t_coeffs, t)
        assert np.max(np.abs(got - ref.vec)) < 1e-10


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
        sol = family_series(family, param)
        t_star, st = handoff(sol)
        assert t_star <= 0.1 * min(1.0, param) + 1e-15
        assert constraints(st).max_abs < 1e-11


@pytest.mark.parametrize("build, param", [
    (series_psi_a, 0.5646), (series_psi_b, 0.6), (series_psi_b, 1.0),
    (series_bubble_a, 0.5646), (series_bubble_b, 0.6)])
def test_stored_coefficients_are_those_of_a_higher_order_build(build, param):
    # every coefficient an order-40 build stores is fixed by the recurrence
    # through order 40, so the order-44 build has the same value, or it is
    # left at 0.0 (the top order of the t-series' lambda, and of S3's v,
    # and the S3 bubble's lambda beyond the orders lambda^2 fixes)
    lo, hi = build(param, 40), build(param, 44)
    for name, c in lo.coeffs.items():
        assert ((c == hi.coeffs[name][:len(c)]) | (c == 0.0)).all(), name
    assert (lo.t_of_var == hi.t_of_var[:len(lo.t_of_var)]).all()


@pytest.mark.parametrize("a", [0.12, 0.5646, 4.0])
def test_s2_t_rows_are_the_stored_coefficients(a):
    sol = series_psi_a(a)
    rows = sol.t_coeffs
    assert rows.shape == (sol.order + 2, 7)
    for i, name in enumerate(("lam", "u0", "u1", "u2", "v0", "v1", "v2")):
        assert np.array_equal(rows[:, i], sol.coeffs[name][:sol.order + 2])


@pytest.mark.parametrize("b", [0.12, 0.4, 1.0, 1.6])
def test_s3_t_rows_are_the_s_series_at_s_of_t(b):
    # the S3 series, solved in t, is the bubble's s-series rescaled:
    # lambda = b lambda~(s), u = b^2 u~(s), v = b^3 v~(s) at t = b t~(s);
    # over [t*, reach], the span of the first integrator step, as far as
    # s_of_time inverts t~(s): its bracket, where the s-series' tail is
    # below 1e-12, ends before reach at b = 1. The reference is an order-50
    # bubble: the order-40 one's truncation reaches 4e-14 near that bracket
    # at b = 1.6, while the t-rows stay within 6e-16 of a 40-digit solve
    sol, bub = series_psi_b(b), series_bubble_b(b, 50)
    rows = sol.t_coeffs
    assert rows.shape == (sol.order + 2, 7)
    _, tol = _order_and_tol(1e-12)
    t_star, _ = handoff(sol)
    t_hi = min(_step_size(rows, tol), b * bub.time_at(s_radius(bub)))
    assert t_hi > t_star
    scale = np.array([b, b * b, b * b, b * b, b ** 3, b ** 3, b ** 3])
    for t in np.linspace(t_star, t_hi, 25):
        want = scale * bub.components_at(s_of_time(bub, t / b))
        got = _poly_states(rows, t)
        assert np.max(np.abs(got - want)) <= 1e-14 * max(
            1.0, np.max(np.abs(want)))


def test_bubble_b_has_no_t_rows():
    # only the variable-t solutions have t-rows
    with pytest.raises(InvalidArgumentError, match="in s"):
        series_bubble_b(0.5).t_coeffs


def test_out_of_radius_error():
    sol = series_psi_a(0.3, 40)
    with pytest.raises(OutOfRadiusError):
        eval_series(sol, 2.0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 1e20])
@pytest.mark.parametrize("build", [series_psi_a, series_bubble_b])
def test_eval_series_raises_where_the_tail_bound_is_not_finite(build, x):
    # 0 * inf is NaN and a NaN must not drop out of the bound; a power that
    # overflows is an infinite bound, not an OverflowError
    sol = build(0.7)
    assert not math.isfinite(sol.tail_estimate(x))
    with pytest.raises(OutOfRadiusError):
        eval_series(sol, x)


@pytest.mark.parametrize("top", [math.inf, math.nan])
@pytest.mark.parametrize("build", [series_psi_a, series_psi_b])
def test_handoff_without_reach_raises(build, top):
    # rows that overflowed have no reach; min(cap, nan) would be the cap
    bad = with_top_lambda(build(0.5), top)
    assert not np.isfinite(bad.t_coeffs[-1]).all()
    with pytest.raises(OutOfRadiusError, match="no finite positive reach"):
        handoff(bad)


@pytest.mark.parametrize("family, lo, hi", [("alpha", 0.05, 10.0),
                                            ("beta", 0.02, 3.0)])
def test_handoff_is_the_cap_at_the_default_order(family, lo, hi):
    # the t-rows reach past 0.1 min(1, parameter) over both ranges, so t*
    # is the cap itself, bit for bit
    for p in np.geomspace(lo, hi, 60):
        t_star, _ = handoff(family_series(family, float(p)))
        assert t_star == 0.1 * min(1.0, float(p))


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


# ---------------------------------------------------------------------------
# polynomial helpers against their numpy-scalar versions (conftest)

_SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan)


def _random_coefficients(rng, special: bool) -> np.ndarray:
    """Random coefficients over sixteen decades, of length 1 to 30; with
    special, a few entries are signed zeros, infinities or NaN."""
    c = rng.normal(size=rng.integers(1, 31)) * 10.0 ** rng.uniform(-8, 8)
    if special:
        for k in rng.integers(0, len(c), rng.integers(1, 4)):
            c[k] = _SPECIAL[rng.integers(len(_SPECIAL))]
    return c


def test_horner_equals_the_numpy_scalar_version():
    # random arrays with and without special entries, at random points and
    # at +-0, +-inf and NaN, as Python and as numpy floats
    rng = np.random.default_rng(3)
    for _ in range(600):
        c = _random_coefficients(rng, special=rng.random() < 0.5)
        for x in (*_SPECIAL, *rng.normal(size=3) * 10.0 ** rng.uniform(-3, 3)):
            for arg in (float(x), np.float64(x)):
                got = _horner(c, arg)
                assert type(got) is float
                assert float_bits([got]) == float_bits(
                    [reference_horner(c, arg)])


def test_poly_integral_from_zero_equals_the_two_horner_version():
    # at lo = 0 the integral skips P(0), which is +0.0 for finite
    # coefficients; a non-finite polynomial still gives a non-finite value
    rng = np.random.default_rng(5)
    for _ in range(300):
        c = _random_coefficients(rng, special=False)
        for hi in (0.0, -0.0, *rng.normal(size=3) * 10.0 ** rng.uniform(-3, 1)):
            for lo in (0.0, -0.0, np.float64(0.0), 0.25 * hi):
                got = poly_integral(c, lo, hi)
                assert float_bits([got]) == float_bits(
                    [reference_poly_integral(c, lo, hi)])
        bad = _random_coefficients(rng, special=True)
        if not np.isfinite(bad).all():
            assert not math.isfinite(poly_integral(bad, 0.0, 0.3))
            assert not math.isfinite(poly_integral(bad, 0.0, 0.0))


def test_poly_states_equals_a_fresh_exponent_product():
    # the exponent vector shared per length gives the same states, scalar
    # and array offsets alike, and stays unchanged by use
    rng = np.random.default_rng(9)
    for n in (1, 2, 25, 42, 25):
        c = rng.normal(size=(n, 7))
        for tau in (0.0, 0.37, np.float64(-0.2), rng.uniform(-1, 1, 8)):
            want = np.power.outer(tau, np.arange(n, dtype=float)) @ c
            assert np.array_equal(_poly_states(c, tau), want)
