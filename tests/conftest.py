"""Shared oracles and sampling helpers.

The closed-form derivative oracles below are differentiated by hand from the
trigonometric expressions of the four explicit solutions, independently of
the package's right-hand side, so residual tests compare two genuinely
different evaluation paths.
"""
import dataclasses
import math

import numpy as np
import pytest

from nkshoot.state import State

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


def reference_node_values(events, lam_sign: float, t, y):
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
            lam_sign * y[0] - LAMBDA_MIN, mu2 - MU2_MIN,
            COMPONENT_MAGNITUDE_MAX - np.abs(y).max(axis=0)], drift


def reference_crossings(events, g, vals) -> np.ndarray:
    """Boolean (rows, nodes) array: row i crosses into node j where its
    values, g before the first node and the columns of vals after, change
    sign in the direction its event allows (each guard row falls), a zero
    counting for the interval it ends."""
    direction = np.array([*(e.direction for e in events), -1, -1, -1])
    V = np.column_stack((g, vals))
    a, b, d = V[:, :-1], V[:, 1:], direction[:, None]
    return ((a < 0.0) & (b >= 0.0) & (d >= 0)) | ((a > 0.0) & (b <= 0.0)
                                                   & (d <= 0))


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
