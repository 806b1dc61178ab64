"""Shared oracles and sampling helpers.

The second evaluation paths of lambda', of the mean curvature and of
mu mu', and the record validation, are reference implementations that only
the tests compare against; the package computes each quantity once.

The closed-form derivative oracles below are differentiated by hand from the
trigonometric expressions of the four explicit solutions, independently of
the package's right-hand side, so residual tests compare two genuinely
different evaluation paths.
"""
import dataclasses
import math

import numpy as np
import pytest

from nkshoot.errors import BoundViolationError, DegenerateStateError
from nkshoot.state import State, rhs

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def named_derivative(name: str, t: float) -> np.ndarray:
    """d/dt (lambda, u0, u1, u2, v0, v1, v2) of a named solution."""
    s, c = math.sin(t), math.cos(t)
    if name == "sine-cone":
        return np.array([
            c,
            0.0,
            s * (2 * c * c - s * s),
            -3 * s * s * c,
            0.0,
            4 * s ** 3 * c,
            3 * s * s * c * c - s ** 4,
        ])
    if name == "s6-round":
        return np.array([
            -1.5 * s,
            -3 * c + 7.5 * c ** 3 - 15 * s * s * c,
            -3 * c + 6 * c ** 3 - 12 * s * s * c,
            -4.5 * (c ** 3 - 2 * s * s * c),
            -18 * c * s + 45 * c ** 3 * s,
            18 * s * c * (c * c - s * s),
            9 * c * s - 27 * c ** 3 * s,
        ])
    if name == "s3s3-homog":
        x, y = 2 * SQRT3 * t, SQRT3 * t
        return np.array([
            0.0,
            2 * math.cos(x),
            2 * math.cos(x),
            -2 * math.cos(y),
            4 * math.sin(x) / SQRT3,
            4 * math.sin(x) / SQRT3,
            -2 * math.sin(y) / SQRT3,
        ])
    if name == "cp3-homog":
        x = SQRT2 * t
        sx, cx = math.sin(x), math.cos(x)
        return np.array([
            1.5 * cx,
            -2.25 * SQRT2 * cx * sx,
            -0.75 * SQRT2 * sx,
            -2.25 * SQRT2 * sx * cx,
            1.125 * SQRT2 * sx * (2 * cx * cx - sx * sx),
            2.25 * SQRT2 * sx * cx,
            1.125 * SQRT2 * sx * (2 * cx * cx - sx * sx),
        ])
    raise ValueError(name)


def equation_residual(st: State, deriv: np.ndarray) -> float:
    """Max absolute residual of the seven evolution equations in their
    polynomial form, given a state and a candidate time derivative."""
    lam = st.lam
    u0, u1, u2 = st.u
    v0, v1, v2 = st.v
    dlam, du0, du1, du2, dv0, dv1, dv2 = deriv
    mu2 = -u0 * u0 + u1 * u1 + u2 * u2
    eqs = (
        lam * du0 + 3 * v0,
        lam * du1 + 3 * v1 - 2 * lam * lam,
        lam * du2 + 3 * v2,
        dv0 - 4 * lam * u0,
        dv1 - 4 * lam * u1,
        lam * dv2 - 4 * lam * lam * u2 + 3 * u2,
        lam * lam * mu2 * dlam + 2 * lam ** 4 * u1 + 3 * u2 * v2,
    )
    return max(abs(e) for e in eqs)


def lambda_dot_alt(s: State) -> float:
    """Secondary evaluation of lambda': -2 lambda^2 u1/v1 - 3 v2/u2.

    Agrees with rhs()[0] on constraint-satisfying states; needs v1 != 0 and
    u2 != 0.
    """
    if s.v[1] == 0.0:
        raise DegenerateStateError("alternate lambda' path needs v1 != 0")
    if s.u[2] == 0.0:
        raise DegenerateStateError("alternate lambda' path needs u2 != 0")
    return -2.0 * s.lam * s.lam * s.u[1] / s.v[1] - 3.0 * s.v[2] / s.u[2]


def mean_curvature_matrix_form(s: State) -> float:
    """l = 2 x1/y1 - 3 y2/x2 after the change of variables (independent
    evaluation path; exact only on constraint-satisfying states)."""
    from nkshoot.geometry import _require_admissible
    _require_admissible(s)
    mu = s.mu
    x1 = s.u[1] / mu
    y1 = mu / s.lam
    y2 = s.v[2] / (s.lam * mu)
    x2 = -s.lam
    return 2 * x1 / y1 - 3 * y2 / x2


def derivative_consistency(s: State) -> float:
    """|mu mu' - 2 lambda u1| on a state, using the evolution equations
    (vanishes on shell)."""
    dy = rhs(s)
    u0, u1, u2 = s.u
    mu_mu_dot = -u0 * dy[1] + u1 * dy[2] + u2 * dy[3]
    return abs(mu_mu_dot - 2.0 * s.lam * u1)


WEDGE_TOL = 1e-7
HYPERBOLOID_TOL = 1e-8


def validate_record(rec) -> None:
    """Assert a MaxOrbitRecord's wedge membership, hyperboloid
    normalization and the boundary correspondences."""
    from nkshoot.geometry import BOUNDARY_TOL
    if not (rec.mu >= rec.lam - WEDGE_TOL and rec.lam >= 1.0 - WEDGE_TOL):
        raise BoundViolationError(
            f"wedge violation: (lambda, mu) = ({rec.lam}, {rec.mu}) "
            f"for {rec.family}({rec.param})")
    w0, w1, w2 = rec.w
    norm = w0 * w0 - w1 * w1 - w2 * w2
    if abs(norm - 1.0) > HYPERBOLOID_TOL or w0 <= 0:
        raise BoundViolationError(
            f"hyperboloid normalization violated: |w|^2 = {norm}, w0 = {w0}")
    u0_small = abs(rec.state.u[0]) < BOUNDARY_TOL * rec.mu
    if (abs(w2) < BOUNDARY_TOL) != u0_small:
        raise BoundViolationError(
            f"boundary dictionary violated: |w2| = {abs(w2)}, "
            f"|u0|/mu = {abs(rec.state.u[0]) / rec.mu}")
    v0_small = abs(rec.state.v[0]) < BOUNDARY_TOL * rec.mu
    if (abs(w1) < BOUNDARY_TOL) != v0_small:
        raise BoundViolationError(
            f"boundary dictionary violated: |w1| = {abs(w1)}, "
            f"|v0|/mu = {abs(rec.state.v[0]) / rec.mu}")


def s_radius(sol) -> float:
    """Largest s = 0.95^k, k < 400, where a variable-s series' tail estimate
    is below 1e-12."""
    return next(float(s) for s in 0.95 ** np.arange(400)
                if sol.tail_estimate(s) < 1e-12)


def s_of_time(sol, t: float) -> float:
    """The s where a variable-s series' time t(s) equals t: scipy's brentq on
    time_at over [0, s_radius], independent of the series' rows in t."""
    from scipy.optimize import brentq
    return brentq(lambda s: sol.time_at(s) - t, 0.0, s_radius(sol),
                  xtol=1e-15, rtol=8.9e-16)


def with_top_lambda(sol, value: float):
    """A copy of a series solution whose lambda coefficient at order+1, the
    top of its t-rows, is value."""
    coeffs = {name: c.copy() for name, c in sol.coeffs.items()}
    coeffs["lam"][sol.order + 1] = value
    return dataclasses.replace(sol, coeffs=coeffs)


def random_admissible_states(seed: int, n: int) -> list[State]:
    """Synthetic admissible states (lambda > 0, mu^2 > 0, u2 < 0, oriented);
    not constraint-satisfying."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        lam = rng.uniform(0.3, 2.0)
        u0 = rng.uniform(-1.0, 1.0)
        u1 = rng.uniform(-1.5, 1.5)
        u2 = -rng.uniform(0.7, 2.0)
        v0 = rng.uniform(-1.0, 1.0)
        v1 = rng.uniform(0.2, 2.0)
        v2 = rng.uniform(-1.5, 1.5)
        st = State(rng.uniform(0.0, 1.0), lam, (u0, u1, u2), (v0, v1, v2))
        if st.mu2 > 0.1 and st.orient > 0.05:
            out.append(st)
    return out


def diagonal_toy(coeffs):
    """y_i' = (1/t)(coeffs[i] * y_i) + 1, y0 = 0: h*Id - dM_-1 is
    diag(h - coeffs), so its condition number is known exactly, and the
    series solution is y_i = t / (1 - coeffs[i])."""
    from nkshoot.series import SingularIVP, _Program

    def rhs(y, x):
        return [c * yi + x for c, yi in zip(coeffs, y)]
    return SingularIVP(_Program(len(coeffs), rhs), np.zeros(len(coeffs)),
                       name="diagonal toy")


def reference_table(program, order: int, params=()) -> np.ndarray:
    """A recorded program's table up to order (row = series, column =
    order), zero but for the x row and the parameter rows."""
    C = np.zeros((program.n_rows, order + 1))
    if order >= 1:
        C[program.dim, 1] = 1.0
    C[program.dim + 1:program.dim + 1 + program.n_params, 0] = params
    return C


def plain_dot(a, b) -> float:
    """sum_k a[k] * b[k] added left to right from 0.0 in Python floats: the
    summation order the relaxed kernel's np.vecdot sums must have."""
    acc = 0.0
    for x, y in zip(a, b):
        acc += x * y
    return acc


def reference_advance(program, C: np.ndarray, h: int) -> None:
    """Column h of every recorded row of the table C from columns 0..h of
    its operands, the relaxed recurrence done the plain way: each
    convolution sum over orders 1..h-1 by plain_dot on C's rows, then
    program.ops interpreted one by one in the compiled loop's arithmetic
    order. Independent of _Program's kernel, whose bits it must equal."""
    from nkshoot.series import _INV, _LIN, _MUL
    conv = [(a, b if kind == _MUL else out)
            for kind, out, a, b in program.ops if kind != _LIN]
    p = np.array([a for a, _ in conv], dtype=int)
    q = np.array([b for _, b in conv], dtype=int)
    col, c0 = C[:, h].tolist(), C[:, 0].tolist()
    mid = [plain_dot(C[i, 1:h].tolist(), C[k, h - 1:0:-1].tolist())
           for i, k in zip(p, q)]
    j = 0
    for kind, out, a, b in program.ops:
        if kind == _MUL:
            col[out] = (col[a] * col[b] if h == 0 else
                        mid[j] + c0[a] * col[b] + col[a] * c0[b])
            j += 1
        elif kind == _INV:
            col[out] = (1.0 / col[a] if h == 0 else
                        -(mid[j] + col[a] * c0[out]) / c0[a])
            j += 1
        else:
            acc = 0.0
            for row, coef in a:
                acc = acc + coef * col[row]
            col[out] = acc + b if h == 0 else acc
    C[:, h] = col


def reference_residuals(problem, Y: np.ndarray) -> np.ndarray:
    """Per-order residual max_i |h y_h - [x^h] F|_i of a computed table Y
    (dim x order + 1), with [x^h] F from the plain recurrence
    (reference_advance) on Y's rows, not from _Program's kernel; 0 at
    order 0, whose consistency solve_singular_ivp checks."""
    prog, k = problem.program, problem.program.dim
    n1 = Y.shape[1]
    C = reference_table(prog, n1 - 1, problem.params)
    C[:k] = Y
    for h in range(n1):
        reference_advance(prog, C, h)
    res = np.max(np.abs(np.arange(n1) * Y - prog.output[0] @ C), axis=0)
    res[0] = 0.0
    return res


def mp_reference_solve(problem, order: int) -> list[list]:
    """solve_singular_ivp's table Y in mpmath at 40 digits: the recorded
    ops interpreted as reference_advance does in floats, with the same
    gradient G (x = 0 at every order), A = W G and per-order solve
    (h Id - A) y_h = W C[:, h] with y_h = 0, then C[:, h] += G y_h. The
    inputs y0, params and W are read as exact; only the arithmetic is
    carried to 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    from nkshoot.series import _INV, _LIN, _MUL
    prog, k = problem.program, problem.program.dim
    mp = mpmath.mp.clone()
    mp.dps = 40
    W = mp.matrix(prog.output[0].tolist())

    def advance(C, h):
        for kind, out, a, b in prog.ops:
            conv = (0 if h == 0 or kind == _LIN else
                    mp.fsum(C[a][i] * C[b if kind == _MUL else out][h - i]
                            for i in range(1, h)))
            if kind == _MUL:
                C[out][h] = (C[a][0] * C[b][0] if h == 0 else
                             conv + C[a][0] * C[b][h] + C[a][h] * C[b][0])
            elif kind == _INV:
                C[out][h] = (1 / C[a][0] if h == 0 else
                             -(conv + C[a][h] * C[out][0]) / C[a][0])
            else:
                C[out][h] = (mp.fsum(coef * C[row][h] for row, coef in a)
                             + (b if h == 0 else 0))

    C = [[mp.zero] * (order + 1) for _ in range(prog.n_rows)]
    for r, v in enumerate([*problem.y0, 0.0, *problem.params]):
        C[r][0] = mp.mpf(v)
    C[k][1] = mp.one
    advance(C, 0)
    G = mp.matrix(prog.n_rows, k)
    for j in range(k):
        T = [[row[0], mp.zero] for row in C]
        T[j][1] = mp.one
        advance(T, 1)
        for r in range(prog.n_rows):
            G[r, j] = T[r][1]
    A = W * G
    for h in range(1, order + 1):
        advance(C, h)
        col = mp.matrix([C[r][h] for r in range(prog.n_rows)])
        update = G * mp.lu_solve(h * mp.eye(k) - A, W * col)
        for r in range(prog.n_rows):
            C[r][h] += update[r]
    return [C[r] for r in range(k)]


def reference_node_values(events, t, y):
    """The node pass's values and drift computed the array way, at the nodes
    t with states y of shape (7,) or (7, m): the events' fn_vec, the guard's
    three rows and the relative first-integral drift, with numpy's
    reductions over the components, which propagate NaN. The node pass on
    Python floats must equal it bit for bit."""
    from nkshoot.integrate import (COMPONENT_MAGNITUDE_MAX, LAMBDA_MIN,
                                   MU2_MIN)
    from nkshoot.state import _first_integrals
    *integrals, _, lam2mu2, mu2 = _first_integrals(*y)
    drift = np.abs(integrals).max(axis=0) / np.maximum(1.0, lam2mu2)
    return [*(event.fn_vec(t, y) for event in events),
            y[0] - LAMBDA_MIN, mu2 - MU2_MIN,
            COMPONENT_MAGNITUDE_MAX - np.abs(y).max(axis=0)], drift


def reference_crossings(g, vals) -> np.ndarray:
    """Boolean (rows, nodes) array: row i crosses into node j where its
    values, g before the first node and the columns of vals after, fall
    through zero, a zero counting for the interval it ends."""
    V = np.column_stack((g, vals))
    a, b = V[:, :-1], V[:, 1:]
    return (a > 0.0) & (b <= 0.0)


def reference_horner(c, x) -> float:
    """series._horner on numpy scalars, as it was before it ran on Python
    floats: r = r * x + c[k] from the top coefficient down, r = 0.0 first.
    The float version must equal it bit for bit, NaN and infinities
    included."""
    r = 0.0
    with np.errstate(all="ignore"):
        for k in range(len(c) - 1, -1, -1):
            r = r * x + c[k]
    return float(r)


def reference_poly_integral(c, lo, hi) -> float:
    """series.poly_integral as it was: P(hi) - P(lo) by reference_horner,
    P the antiderivative of c with P(0) = 0, evaluated at lo = 0 too."""
    from nkshoot.series import _pint
    P = _pint(c)
    return reference_horner(P, hi) - reference_horner(P, lo)


def reference_step_size(c, tol: float) -> float:
    """series._step_size as it was, with each row's max|c_k| from np.max,
    which propagates NaN. The float version must equal it bit for bit."""
    n = len(c) - 1
    y0, *last = np.max(np.abs(c[[0, n - 1, n]]), axis=1).tolist()
    scale = max(1.0, y0)
    rho = math.inf
    for k, ck in zip((n - 1, n), last):
        ck /= scale
        if ck > 0.0:
            rho = min(rho, ck ** (-1.0 / k))
        elif ck != 0.0:
            return math.nan
    return rho * tol ** (1.0 / n)


def reference_trace_curve(family: str, param_lo: float, param_hi: float,
                          n_samples: int = 15):
    """shoot.trace_curve as it was, at its default order and tolerances:
    every grid member solved first, then the gaps wider than
    CURVE_SPACING_CAP bisected from the left while fewer than
    CURVE_MAX_POINTS samples are held. The constants are read from shoot
    at call time, so a test that patches them patches this too."""
    from nkshoot import shoot
    params = list(np.geomspace(param_lo, param_hi, n_samples))
    recs = {p: shoot.max_orbit(family, p) for p in params}
    i = 0
    while i < len(params) - 1 and len(params) < shoot.CURVE_MAX_POINTS:
        p0, p1 = params[i], params[i + 1]
        gap = np.subtract(recs[p1].h_point, recs[p0].h_point)
        if np.hypot(*gap) > shoot.CURVE_SPACING_CAP:
            mid = math.sqrt(p0 * p1)
            recs[mid] = shoot.max_orbit(family, mid)
            params.insert(i + 1, mid)
        else:
            i += 1
    return shoot.Curve(family=family, params=np.array(params),
                       records=tuple(recs[p] for p in params))


def float_bits(xs) -> list[str]:
    """The floats xs as hex strings, every NaN as 'nan': equal lists mean
    equal bits, signed zeros included, NaN matching NaN."""
    return [x.hex() if x == x else "nan" for x in map(float, xs)]


@pytest.fixture(scope="session")
def beta1_solve():
    """The homogeneous b = 1 family solve, shared across tests."""
    from nkshoot.shoot import solve_family
    return solve_family("beta", 1.0)


@pytest.fixture(scope="session")
def alpha_sqrt3_solve():
    from nkshoot.shoot import solve_family
    return solve_family("alpha", SQRT3)
