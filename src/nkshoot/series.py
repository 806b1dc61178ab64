"""Formal power-series solutions of the singular initial value problems at
the two singular orbits.

A singular IVP has the shape

    y' = (1/x) M_-1(y) + M(x, y),        y(0) = y0,

with M_-1(y0) = 0 and h*Id - d_{y0}M_-1 invertible for every integer h >= 1.
Writing y(x) = sum_h y_h x^h, the coefficients satisfy

    (h*Id - A) y_h = [x^h] ( N(y(x)) + x*M(x, y(x)) ),     A = d_{y0}M_-1,

where N collects the beyond-linear part of M_-1; the bracket depends only on
y_1 .. y_{h-1}, so the series is built order by order with one 7x7 solve per
order.

The right-hand side M_-1, x*M is written once, as ordinary arithmetic on
placeholder series, and recorded as a straight-line program whose
intermediates (products, 1/y7, 1/(y2-y1), 1/D, 1/Q, ...) are rows of a
running coefficient table. Order h appends one column: each intermediate's
[x^h] coefficient follows from columns 0..h of its operands (relaxed, or
online, Taylor arithmetic; Jorba & Zou, Exp. Math. 14, 2005), so a build of
order n costs O(n^2) instead of re-evaluating the truncated series at every
order. Each intermediate's [x^h] is affine in y_h with a gradient G that
depends only on the order-0 column, so the bracket is evaluated with
y_h = 0 and, after the solve, one update C[:, h] += G @ y_h completes the
column; the same G gives A exactly. Resonance is checked once, on the
condition numbers of the stacked h*Id - A for h = 1 .. order.

Four solution families are produced:
  S2        u_i(0) = (a^2, a^2, 0), v(0) = 0, lambda ~ (3/2) t; variable t.
  S3        lambda(0) = b, v0(0) = -v2(0) = -(2/3) b^3; stored in the bubble
            variable s with ds/dt = 1/lambda and a t(s) conversion series.
  S2-bubble the epsilon = a rescaling of S2 (coefficient scaling).
  S3-bubble the epsilon = b rescaled solution solved directly in s.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from .errors import (InvalidArgumentError, OutOfRadiusError, ResonanceError,
                     SeriesConsistencyError)
from .state import State

DEFAULT_ORDER = 40
HANDOFF_TAIL_TOL = 1e-12
COND_LIMIT = 1e8

_COMPONENTS = ("lam", "u0", "u1", "u2", "v0", "v1", "v2")


# ---------------------------------------------------------------------------
# truncated power series arithmetic (plain coefficient ndarrays, index=order)

def _pmul(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    return np.convolve(a[:n + 1], b[:n + 1])[:n + 1]


def _psqrt(a: np.ndarray, n: int) -> np.ndarray:
    """sqrt of a series with a[0] > 0."""
    s = np.zeros(n + 1)
    s[0] = np.sqrt(a[0])
    for k in range(1, n + 1):
        acc = np.dot(s[1:k], s[k - 1:0:-1]) if k > 1 else 0.0
        s[k] = ((a[k] if k < len(a) else 0.0) - acc) / (2.0 * s[0])
    return s


def _pint(a: np.ndarray) -> np.ndarray:
    """Antiderivative with zero constant term."""
    out = np.zeros(len(a) + 1)
    out[1:] = a / (np.arange(len(a)) + 1.0)
    return out


def _horner(c: np.ndarray, x: float) -> float:
    r = 0.0
    for k in range(len(c) - 1, -1, -1):
        r = r * x + c[k]
    return float(r)


# ---------------------------------------------------------------------------
# relaxed series arithmetic: a right-hand side recorded as a program over
# the rows of a coefficient table C (row = series, column = order)

_LIN, _MUL, _INV = range(3)


class _Series:
    """Placeholder for const + sum(coef * row) while a right-hand side is
    recorded. Linear operations stay symbolic; series * series and
    1 / series record a new row."""

    __array_ufunc__ = None   # numpy scalars defer to the reflected operators

    def __init__(self, prog: _Program, coefs: dict[int, float],
                 const: float = 0.0):
        self.prog = prog
        self.coefs = coefs
        self.const = const

    def __add__(self, other):
        other = self.prog.lift(other)
        coefs = dict(self.coefs)
        for row, c in other.coefs.items():
            coefs[row] = coefs.get(row, 0.0) + c
        return _Series(self.prog, coefs, self.const + other.const)

    __radd__ = __add__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, numbers.Real):
            return _Series(self.prog,
                           {r: c * other for r, c in self.coefs.items()},
                           self.const * other)
        return self.prog.record(_MUL, self, other)

    __rmul__ = __mul__

    def __rtruediv__(self, other):
        return self.prog.record(_INV, self) * other


class _Program:
    """rhs(y, x) recorded once. Rows 0..dim-1 hold the unknowns y, row dim
    the variable x; every further row is one recorded operation
    (kind, out, a, b): a product of rows a and b, the reciprocal of row a,
    or a linear combination with terms a = ((row, coef), ...) and order-0
    constant b. advance() fills one column (order) of every recorded row;
    Mm1 and W = Mm1 + xM map a column to [x^h] M_-1 and [x^h] (M_-1 + x M),
    and Mm1_const is the constant part of M_-1 at order 0."""

    def __init__(self, dim: int, rhs: Callable):
        self.dim = dim
        self.ops: list[tuple] = []
        self.n_rows = dim + 1
        y = [_Series(self, {i: 1.0}) for i in range(dim)]
        mm1, xm = rhs(y, _Series(self, {dim: 1.0}))
        self.Mm1, self.Mm1_const = self._outputs(mm1)
        self.W = self.Mm1 + self._outputs(xm)[0]
        # operand rows of each op's convolution sum_k C[p, k] C[q, h-k]:
        # (a, b) for a product, (a, out) for a reciprocal; a linear
        # combination has none and points at the x row (the sum is unused)
        self._p = np.array([a if k != _LIN else dim for k, _, a, _ in self.ops],
                           dtype=int)
        self._q = np.array([b if k == _MUL else out if k == _INV else dim
                            for k, out, _, b in self.ops], dtype=int)

    def lift(self, v) -> _Series:
        if isinstance(v, _Series):
            return v
        return _Series(self, {}, float(v))

    def _row(self, s: _Series) -> int:
        """Row holding s, recording a linear combination when needed; s is
        rebound to that row so later uses share it."""
        if s.const == 0.0 and len(s.coefs) == 1:
            (row, c), = s.coefs.items()
            if c == 1.0:
                return row
        row = self._new_row(_LIN, tuple(s.coefs.items()), s.const)
        s.coefs, s.const = {row: 1.0}, 0.0
        return row

    def _new_row(self, kind: int, a, b) -> int:
        row = self.n_rows
        self.n_rows += 1
        self.ops.append((kind, row, a, b))
        return row

    def record(self, kind: int, a: _Series, b=None) -> _Series:
        b = None if b is None else self._row(self.lift(b))
        return _Series(self, {self._new_row(kind, self._row(a), b): 1.0})

    def _outputs(self, exprs) -> tuple[np.ndarray, np.ndarray]:
        """Matrix and order-0 constants of dim linear combinations of rows."""
        M = np.zeros((self.dim, self.n_rows))
        const = np.zeros(self.dim)
        for i, e in enumerate(exprs):
            e = self.lift(e)
            for row, c in e.coefs.items():
                M[i, row] += c
            const[i] = e.const
        return M, const

    def table(self, order: int) -> np.ndarray:
        """Empty table up to the given order, with the x row filled."""
        C = np.zeros((self.n_rows, order + 1))
        if order >= 1:
            C[self.dim, 1] = 1.0
        return C

    def advance(self, C: np.ndarray, h: int) -> None:
        """Column h of every recorded row from columns 0..h of its operands
        (columns 0..h of the unknowns must be filled). The convolution sums
        over orders 1..h-1 of all ops are one vectorised product; the terms
        with an order-h factor follow op by op."""
        col = C[:, h].tolist()
        if h == 0:
            for kind, out, a, b in self.ops:
                if kind == _MUL:
                    col[out] = col[a] * col[b]
                elif kind == _INV:
                    col[out] = 1.0 / col[a]
                else:
                    col[out] = sum(c * col[r] for r, c in a) + b
        else:
            c0 = C[:, 0].tolist()
            mid = (C[self._p, 1:h] * C[self._q, h - 1:0:-1]).sum(axis=1).tolist()
            for (kind, out, a, b), m in zip(self.ops, mid):
                if kind == _MUL:
                    col[out] = m + c0[a] * col[b] + col[a] * c0[b]
                elif kind == _INV:
                    col[out] = -(m + col[a] * c0[out]) / c0[a]
                else:
                    col[out] = sum(c * col[r] for r, c in a)
        C[:, h] = col

    def start(self, y0: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
        """Table with column 0 filled from y0, and the gradient
        G[row, j] = d C[row, h] / d y_h[j], the same for every h >= 1. Column
        1 has no convolution terms, so it is linear in (y_1, x_1) and
        advancing the unit vectors e_j (with x_1 = 0) gives G."""
        C = self.table(order)
        C[:self.dim, 0] = y0
        self.advance(C, 0)
        G = np.empty((self.n_rows, self.dim))
        T = np.zeros((self.n_rows, 2))
        T[:, 0] = C[:, 0]
        for j in range(self.dim):
            T[:, 1] = 0.0
            T[j, 1] = 1.0
            self.advance(T, 1)
            G[:, j] = T[:, 1]
        return C, G


# ---------------------------------------------------------------------------
# generic recurrence

@dataclass(frozen=True)
class SingularIVP:
    """A singular IVP y' = (1/x) M_-1(y) + M(x, y), y(0) = y0.

    rhs(y, x) receives placeholder series for the dim unknowns and for the
    variable x and returns (M_-1, x*M), two lists of dim expressions built
    with +, -, scalar *, series * series and 1 / series. It is called once,
    at construction, to record the program the recurrence runs.
    """

    dim: int
    y0: np.ndarray
    rhs: Callable[[list[_Series], _Series], tuple[list, list]]
    name: str = ""
    program: _Program = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "program", _Program(self.dim, self.rhs))

    def linearization(self) -> np.ndarray:
        """d_{y0}M_-1, the gradient of [x^h] M_-1 in y_h (any h >= 1)."""
        _, G = self.program.start(self.y0, 0)
        return self.program.Mm1 @ G


def solve_singular_ivp(problem: SingularIVP, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient table Y (dim x order+1) of the unique series solution,
    and A = d_{y0}M_-1, by the relaxed recurrence in O(order^2) work.

    Raises InvalidArgumentError if order < 1, SeriesConsistencyError if
    M_-1(y0) != 0, and ResonanceError naming the first h (1 <= h <= order)
    for which h*Id - A is ill conditioned; all h are checked, in one batch,
    before the first solve.
    """
    if order < 1:
        raise InvalidArgumentError(
            f"series order must be at least 1, got {order}")
    prog, k = problem.program, problem.dim
    name = problem.name or "singular IVP"
    C, G = prog.start(problem.y0, order)
    res = float(np.max(np.abs(prog.Mm1 @ C[:, 0] + prog.Mm1_const)))
    if res > 1e-13 * (1.0 + float(np.max(np.abs(problem.y0)))):
        raise SeriesConsistencyError(f"{name}: |M_-1(y0)| = {res:.3e}")
    A = prog.Mm1 @ G
    lhs = np.arange(1, order + 1)[:, None, None] * np.eye(k) - A
    cond = np.linalg.cond(lhs)
    bad = np.flatnonzero(~(cond <= COND_LIMIT))   # also catches inf and nan
    if bad.size:
        h = int(bad[0]) + 1
        raise ResonanceError(
            f"{name}: h*Id - dM_-1 ill conditioned at h = {h} "
            f"(cond = {cond[h - 1]:.3e})")
    # y_h = (h*Id - A)^-1 W C[:, h], with the inverses taken in one batch
    IW = np.linalg.inv(lhs) @ prog.W
    for h in range(1, order + 1):
        prog.advance(C, h)
        C[:, h] += G @ (IW[h - 1] @ C[:, h])
    return C[:k].copy(), A


def recurrence_residuals(problem: SingularIVP, Y: np.ndarray) -> np.ndarray:
    """Per-order residual |h y_h - [x^h](M_-1 + x M)| of a computed table,
    from a fresh evaluation of the recorded right-hand side on Y."""
    prog = problem.program
    k, n1 = Y.shape
    C = prog.table(n1 - 1)
    C[:k] = Y
    for h in range(n1):
        prog.advance(C, h)
    r = np.arange(n1) * Y - prog.W @ C
    res = np.max(np.abs(r), axis=0)
    res[0] = 0.0
    return res


# ---------------------------------------------------------------------------
# family instances

def s2_problem(a: float) -> SingularIVP:
    """Closing on the 2-sphere orbit: substitution u0 = a^2 + t^2 y1,
    u1 = a^2 + t^2 y2, u2 = t^2 y3, v_i = t^2 y_{3+i}, lambda = t y7."""
    if not 0.0 < a < np.inf:
        raise InvalidArgumentError("parameter a must be positive and finite")
    a2 = a * a
    sq3 = np.sqrt(3.0)
    y0 = np.array([-3 * a2, -3 * a2 + 1.5, -1.5 * sq3 * a,
                   3 * a2, 3 * a2, 1.5 * sq3 * a, 1.5])

    def rhs(y, x):
        y1, y2, y3, y4, y5, y6, y7 = y
        x2 = x * x
        r7 = 1 / y7
        d21 = y2 - y1
        rd = 1 / d21
        y77 = y7 * y7
        w = y3 * y6 * (r7 * r7)
        p = y77 * rd + (1.5 / a2) * (w * rd)
        mm1 = [
            -(2 * y1 + 3 * (y4 * r7)),
            -(2 * y2 + 3 * (y5 * r7) - 2 * y7),
            -(2 * y3 + 3 * (y6 * r7)),
            -(2 * y4 - 4 * a2 * y7),
            -(2 * y5 - 4 * a2 * y7),
            -(2 * y6 + 3 * (y3 * r7)),
            -(y7 + p),
        ]
        # x*M rows; D = mu^2 / t^2 = 2 a^2 (y2-y1) + t^2 (y2^2 - y1^2 + y3^2)
        rD = 1 / (2 * a2 * d21 + x2 * (y2 * y2 - y1 * y1 + y3 * y3))
        u1_full = a2 + x2 * y2
        xm = [0.0, 0.0, 0.0,
              4 * (x2 * (y1 * y7)),
              4 * (x2 * (y2 * y7)),
              4 * (x2 * (y3 * y7)),
              p - 2 * (y77 * u1_full * rD) - 3 * (w * rD)]
        return mm1, xm

    return SingularIVP(7, y0, rhs, name="S2")


def s3_bubble_problem(b: float) -> SingularIVP:
    """Closing on the 3-sphere orbit, epsilon = b rescaled, in the variable s
    with ds/dt = 1/lambda: u0 = s y1, u1 = s y2, u2 = b s y3,
    v0 = -2/3 + s^2 y4, v1 = s^2 y5, v2 = 2/3 + s^2 y6, lambda^2 = y7.

    b = 0 is allowed and gives the asymptotically conical limit.
    """
    if not 0.0 <= b < np.inf:
        raise InvalidArgumentError(
            "parameter b must be nonnegative and finite")
    b2 = b * b
    y0 = np.array([2 * b, 2.0, -2.0, 4 * b2, 4 * b, 3 - 4 * b2, 1.0])

    def rhs(y, x):
        y1, y2, y3, y4, y5, y6, y7 = y
        x2 = x * x
        rQ = 1 / (y2 * y2 - y1 * y1 + b2 * (y3 * y3))
        mm1 = [
            -(y1 - 2 * b),
            -(y2 - 2 * y7),
            -(y3 + 2),
            -(2 * y4 - 4 * b * (y1 * y7)),
            -(2 * y5 - 4 * b * (y2 * y7)),
            -(2 * y6 - 4 * b2 * (y3 * y7) + 3 * y3),
            -4 * ((y2 * (y7 * y7) + y3) * rQ),
        ]
        xm = [-3 * b * (x2 * y4),
              -3 * b * (x2 * y5),
              -3 * (x2 * y6),
              0.0, 0.0, 0.0,
              -6 * (x2 * (y3 * y6 * rQ))]
        return mm1, xm

    return SingularIVP(7, y0, rhs, name="S3-bubble")


# ---------------------------------------------------------------------------
# assembled solution families

@dataclass(frozen=True)
class SeriesSolution:
    """Truncated Taylor coefficients of one family member about its singular
    orbit.

    coeffs maps component name -> coefficient array in the solution's own
    variable (t for the S2 family and its bubble, s for the S3 family and
    its bubble). For variable-s solutions t_of_var converts to the time of
    the stored, un-rescaled solution (t = integral of lambda ds); for
    variable-t solutions it is the identity series.
    """

    family: str               # 'S2' | 'S3' | 'S2-bubble' | 'S3-bubble'
    param: float
    var: str                  # 't' | 's'
    order: int
    coeffs: dict[str, np.ndarray]
    t_of_var: np.ndarray = field(repr=False)

    def tail_estimate(self, x: float) -> float:
        """Conservative truncation bound from the last retained coefficients
        of every component (the last four orders cover parity gaps)."""
        ax = abs(x)
        worst = 0.0
        for c in self.coeffs.values():
            n = len(c) - 1
            acc = 0.0
            for k in range(max(0, n - 3), n + 1):
                acc += abs(c[k]) * ax ** k
            worst = max(worst, acc)
        return worst

    def components_at(self, x: float) -> np.ndarray:
        return np.array([_horner(self.coeffs[name], x) for name in _COMPONENTS])

    def time_at(self, x: float) -> float:
        return _horner(self.t_of_var, x)

    def var_of_time(self, t: float) -> float:
        """Invert t(s) for variable-s solutions (monotone near 0)."""
        if self.var == "t":
            return float(t)
        if t == 0.0:
            return 0.0
        s_hi, t_hi = self._conversion_range
        if not 0.0 <= t <= t_hi:
            raise OutOfRadiusError(
                f"t = {t} outside validated conversion range [0, {t_hi:.3g}]")
        return brentq(lambda s: _horner(self.t_of_var, s) - t, 0.0, s_hi,
                      xtol=1e-15, rtol=8.9e-16)

    @cached_property
    def _conversion_range(self) -> tuple[float, float]:
        """(s, t(s)) at the validated radius, where t(s) is inverted."""
        s_hi = self.validated_radius(1.0)
        return s_hi, _horner(self.t_of_var, s_hi)

    @cached_property
    def handoff_point(self) -> tuple[float, float]:
        """(t*, x*): the integrator start, the largest time with tail <
        HANDOFF_TAIL_TOL capped at 0.1 * min(1, parameter), and the same
        point in the solution's own variable; found once per series."""
        cap_t = 0.1 * min(1.0, self.param)
        if self.var == "t":
            x = self.validated_radius(cap_t)
            return x, x
        # variable-s solution: cap applies to t, search in s
        t_star = min(cap_t, 0.999 * self._conversion_range[1])
        return t_star, self.var_of_time(t_star)

    def validated_radius(self, start: float) -> float:
        """Largest x on the grid start * 0.95^k, k < 400, with tail
        estimate < HANDOFF_TAIL_TOL."""
        x = start
        for _ in range(400):
            if self.tail_estimate(x) < HANDOFF_TAIL_TOL:
                return x
            x *= 0.95
        raise OutOfRadiusError(
            f"no evaluation radius below {start} with tail < "
            f"{HANDOFF_TAIL_TOL} for {self.family} family at parameter "
            f"{self.param}")

    def volume_integral(self, x: float) -> float:
        """Exact term-by-term integral of V = lambda mu^2 in time from the
        singular orbit to the point x of the solution's own variable."""
        c = self.coeffs
        n = len(c["lam"]) - 1
        mu2 = (_pmul(c["u1"], c["u1"], n) + _pmul(c["u2"], c["u2"], n)
               - _pmul(c["u0"], c["u0"], n))
        V = _pmul(c["lam"], mu2, n)
        if self.var == "s":
            V = _pmul(c["lam"], V, n)   # dt = lambda ds
        return _horner(_pint(V), x)


def eval_series(sol: SeriesSolution, x: float,
                tol: float = HANDOFF_TAIL_TOL) -> tuple[State, float]:
    """Horner-evaluate all seven components at x (the solution's own
    variable) and return (state, tail bound). Raises OutOfRadiusError when
    the tail bound exceeds tol."""
    tail = sol.tail_estimate(x)
    if tail > tol:
        raise OutOfRadiusError(
            f"tail estimate {tail:.3e} > {tol:.1e} at {sol.var} = {x}")
    y = sol.components_at(x)
    return State.from_vec(sol.time_at(x), y), tail


def series_psi_a(a: float, order: int = DEFAULT_ORDER) -> SeriesSolution:
    """Family closing on the S^2 orbit; leading data lambda = (3/2) t,
    u0(0) = u1(0) = a^2."""
    Y, _ = solve_singular_ivp(s2_problem(a), order)
    n = order + 2
    c = {name: np.zeros(n + 1) for name in _COMPONENTS}
    c["lam"][1:order + 2] = Y[6]
    c["u0"][0] = a * a
    c["u0"][2:order + 3] = Y[0]
    c["u1"][0] = a * a
    c["u1"][2:order + 3] = Y[1]
    c["u2"][2:order + 3] = Y[2]
    c["v0"][2:order + 3] = Y[3]
    c["v1"][2:order + 3] = Y[4]
    c["v2"][2:order + 3] = Y[5]
    return SeriesSolution("S2", a, "t", order, c, np.array([0.0, 1.0]))


def series_bubble_b(b: float, order: int = DEFAULT_ORDER) -> SeriesSolution:
    """Rescaled bubble closing on the S^3 orbit, in the variable s."""
    Y, _ = solve_singular_ivp(s3_bubble_problem(b), order)
    n = order + 2
    c = {name: np.zeros(n + 1) for name in _COMPONENTS}
    lam2 = np.zeros(n + 1)
    lam2[:order + 1] = Y[6]
    c["lam"] = _psqrt(lam2, n)
    c["u0"][1:order + 2] = Y[0]
    c["u1"][1:order + 2] = Y[1]
    c["u2"][1:order + 2] = b * Y[2]
    c["v0"][0] = -2.0 / 3.0
    c["v0"][2:order + 3] = Y[3]
    c["v1"][2:order + 3] = Y[4]
    c["v2"][0] = 2.0 / 3.0
    c["v2"][2:order + 3] = Y[5]
    t_tilde = _pint(c["lam"])[:n + 1]  # dt~/ds = lambda~
    return SeriesSolution("S3-bubble", b, "s", order, c, t_tilde)


def series_psi_b(b: float, order: int = DEFAULT_ORDER) -> SeriesSolution:
    """Family closing on the S^3 orbit, un-rescaled from the bubble via
    lambda = b lambda~(t/b), u = b^2 u~, v = b^3 v~; still a series in s,
    with t(s) = integral of lambda ds."""
    if not 0.0 < b < np.inf:
        raise InvalidArgumentError("parameter b must be positive and finite")
    bub = series_bubble_b(b, order)
    scale = {"l": b, "u": b * b, "v": b ** 3}
    c = {name: scale[name[0]] * bub.coeffs[name] for name in _COMPONENTS}
    t_of_s = _pint(c["lam"])[:len(c["lam"])]
    return SeriesSolution("S3", b, "s", order, c, t_of_s)


def series_bubble_a(a: float, order: int = DEFAULT_ORDER) -> SeriesSolution:
    """Rescaled bubble closing on the S^2 orbit: coefficient scaling of the
    S2 family, lambda~_k = lambda_k a^{k-1}, u~_k = u_k a^{k-2},
    v~_k = v_k a^{k-3}."""
    base = series_psi_a(a, order)
    shift = {"l": 1, "u": 2, "v": 3}
    c = {}
    for name in _COMPONENTS:
        arr = base.coeffs[name]
        c[name] = arr * a ** (np.arange(len(arr), dtype=float) - shift[name[0]])
    return SeriesSolution("S2-bubble", a, "t", order, c, np.array([0.0, 1.0]))


def family_series(family: str, param: float,
                  order: int = DEFAULT_ORDER) -> SeriesSolution:
    """'alpha' -> series_psi_a, 'beta' -> series_psi_b."""
    if family == "alpha":
        return series_psi_a(param, order)
    if family == "beta":
        return series_psi_b(param, order)
    raise InvalidArgumentError(f"unknown family {family!r}")


def handoff(sol: SeriesSolution) -> tuple[float, State]:
    """Integrator start (t*, state) at sol.handoff_point."""
    t_star, x = sol.handoff_point
    st, _ = eval_series(sol, x)
    return t_star, st
