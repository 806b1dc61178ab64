"""Formal power-series solutions of the singular initial value problems at
the two singular orbits.

A singular IVP has the shape

    x y' = F(x, y),        y(0) = y0,

the form y' = (1/x) M_-1(y) + M(x, y) of Eschenburg & Wang (GAFA 10, 2000)
with M_-1 = F(0, .), where F(0, y0) = 0 and h*Id - A, A = d_{y0}F(0, .),
is invertible for every integer h >= 1.
Writing y(x) = sum_h y_h x^h, the coefficients satisfy

    (h*Id - A) y_h = [x^h] F(x, y(x)) - A y_h,

whose right side depends only on y_0 .. y_{h-1}, so the series is built
order by order with one 7x7 solve per order.

The right-hand side F = x y' is written once, as ordinary arithmetic on
placeholder series, and recorded as a straight-line program whose
intermediates (products, 1/y7, 1/D, 1/Q, ...) are rows of a
running coefficient table; the family parameter is a row too, constant in
x, so one program, recorded at import, serves every member. Order h appends
one column: each intermediate's [x^h] coefficient follows from columns 0..h
of its operands (relaxed, or online, Taylor arithmetic; Jorba & Zou, Exp.
Math. 14, 2005), so a build of order n costs O(n^2) instead of
re-evaluating the truncated series at every order. The recorded ops are
compiled to one loop over the orders, run as C where cc builds it and else
as Python, bit for bit: every sum adds in one fixed order, none in BLAS.
The kernel, _Program.fill, takes only the order-0 state. Run on the
regular system as an ODE (_JET), it gives the integrator's jets and steps
(integrate.py). Run on a singular IVP, it builds the series: the loop
evaluates column h, c, with y_h = 0, sums w = W c over the rows W reads,
solves (h*Id - A) y_h = w by Gaussian elimination with partial pivoting
and evaluates column h again with y_h, as a jet does with the unknowns it
takes from its outputs. A = d_{y0}F(0, .), the same sums of W on column h
with y_h = e_j at x = 0, comes from a record-free pass (gradient), whose
order-0 output is F(0, y0). Resonance is decided once, for h = 1 ..
order, on A's spectrum: max|h - eig| / min|h - eig| > COND_LIMIT.

Four solution families are produced:
  S2        u_i(0) = (a^2, a^2, 0), v(0) = 0, lambda ~ (3/2) t; variable t.
  S3        lambda(0) = b, v0(0) = -v2(0) = -(2/3) b^3; variable t.
  S2-bubble the epsilon = a rescaling of S2 (coefficient scaling).
  S3-bubble the epsilon = b rescaling of S3, solved in the variable s with
            ds/dt = 1/lambda and a t(s) conversion series; the only one in s.

eval_series evaluates in the solution's own variable; every use in time (the
handoff, the profile below t*, the series volume, the integrator's first
step) reads the Taylor rows in t of S2 or S3, SeriesSolution.t_coeffs.
"""
from __future__ import annotations

import ctypes
import math
import numbers
import os
import struct
import tempfile
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import (DegenerateStateError, InvalidArgumentError,
                     OutOfRadiusError, ResonanceError, SeriesConsistencyError)
from .state import State, _first_integrals, rhs_vec

DEFAULT_ORDER = 40
HANDOFF_TAIL_TOL = 1e-12
COND_LIMIT = 1e8

_COMPONENTS = ("lam", "u0", "u1", "u2", "v0", "v1", "v2")
_ptr = ctypes.c_double.from_buffer      # a C double * to a float64 array
_P, _N, _D = ctypes.POINTER(ctypes.c_double), ctypes.c_long, ctypes.c_double
#: argument types of the C functions a library may define (each returns int)
_SIGNATURES = {"run": (_P, _N, _P), "poly": (_P, _N, _N, _P, _N, _P),
               "step": (_P, _P, _N, _N, _N, *[_D] * 7, _P)}


# ---------------------------------------------------------------------------
# truncated power series arithmetic (plain coefficient ndarrays, index=order)

def _pmul(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    return np.convolve(a[:n + 1], b[:n + 1])[:n + 1]


def _psqrt(a: np.ndarray, n: int) -> np.ndarray:
    """sqrt, to order n, of a series a with a[0] > 0 and n < len(a)."""
    s = np.zeros(n + 1)
    s[0] = np.sqrt(a[0])
    for k in range(1, n + 1):
        acc = np.dot(s[1:k], s[k - 1:0:-1]) if k > 1 else 0.0
        s[k] = (a[k] - acc) / (2.0 * s[0])
    return s


def _pint(a: np.ndarray) -> np.ndarray:
    """Antiderivative with zero constant term."""
    out = np.zeros(len(a) + 1)
    out[1:] = a / (np.arange(len(a)) + 1.0)
    return out


def _horner(c: np.ndarray, x: float) -> float:
    r, x = 0.0, float(x)
    for ck in reversed(c.tolist()):
        r = r * x + ck
    return r


def _poly_states(c: np.ndarray, tau):
    """Step polynomial with coefficient rows c at offset tau: a vector for a
    scalar tau, a (len(tau), k) array for an array. x^k is a repeated
    product from x^0 = 1 + 0 x (NaN at a non-finite x) and the terms add
    from 0.0, highest order first: C's poly where it loads, else numpy's."""
    c, x = np.asarray(c), np.array(tau, dtype=float, ndmin=1)
    if _JET._compiled and len(c):
        y = np.empty((len(x), c.shape[1]))
        _JET._compiled.poly(_ptr(np.array(c, float, order="C")), len(c) - 1,
                            c.shape[1], _ptr(x), len(x), _ptr(y))
    else:   # vecdot on reversed views adds in a plain loop from 0.0
        P = np.empty((len(x), len(c)))
        with np.errstate(all="ignore"):     # as C, warning of nothing
            P[:, 0], P[:, 1:] = 0.0 * x + 1.0, x[:, None]
            y = np.vecdot(np.multiply.accumulate(P, 1)[:, None, ::-1],
                          c.T[:, ::-1])
    return y if getattr(tau, "ndim", 0) else y[0]


def _step_size(c: np.ndarray, tol: float) -> float:
    """Jorba-Zou step h = rho * tol^(1/N) for the coefficient rows c of a
    Taylor polynomial of degree N (a jet, or a singular orbit's series), with
    rho = min over k in {N-1, N} of (max|c_k| / s)^(-1/k) and s =
    max(1, max|y|): then max|c_N| h^N <= tol s and
    max|c_(N-1)| h^(N-1) <= tol^((N-1)/N) s. NaN or 0 on an overflowed jet.
    It sets every integrator step and, at HANDOFF_TAIL_TOL on a series'
    t-rows, the handoff's reach (see handoff)."""
    n = len(c) - 1
    y0, *last = [math.nan if math.isnan(sum(a)) else max(a) for a in
                 (list(map(abs, c[k].tolist())) for k in (0, n - 1, n))]
    scale = max(1.0, y0)
    rho = math.inf
    for k, ck in zip((n - 1, n), last):
        ck /= scale
        if ck > 0.0:
            rho = min(rho, ck ** (-1.0 / k))
        elif ck != 0.0:
            return math.nan
    return rho * tol ** (1.0 / n)


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

    def __mul__(self, other):
        if isinstance(other, numbers.Real):
            return _Series(self.prog,
                           {r: c * other for r, c in self.coefs.items()},
                           self.const * other)
        return self.prog.record(_MUL, self, other)

    __rmul__ = __mul__

    def __rtruediv__(self, other):
        return self.prog.record(_INV, self) * other

    def __truediv__(self, other):
        return self * self.prog.record(_INV, self.prog.lift(other))


class _Program:
    """rhs(y, x, *params) recorded once. Rows 0..dim-1 hold the unknowns y,
    row dim the variable x and rows dim+1 .. dim+n_params the parameters,
    which are constant series (order 0 only); every further row is one
    recorded operation (kind, out, a, b): a product of rows a and b, the
    reciprocal of row a (recorded once per row a), or a linear combination
    with terms a = ((row, coef), ...) and order-0 constant b. fill()
    computes the orders of every row from the unknowns' order-0 values in
    one loop whose locals hold each row's order-0 and order-h values; each
    order's convolution sums, one np.vecdot in Python, are added left to
    right: the bits rest on that. It runs as a jet (an ODE, below) or a
    build (a singular IVP, which solves for each order's unknowns with
    gradient()'s A), in C (one library per program, so a program is
    recorded once, at import) or in Python. rhs returns a list of dim
    expressions; output = (W, const) maps a column to [x^h] of them, const
    at order 0 only.

    With ode=True the program is an autonomous ODE y' = rhs(y): its output
    must be single recorded rows, and the unknowns' order-h coefficients
    are the output's order h-1 coefficients over h, so fill()
    gives the Taylor jet. tail is C source after run, which it may call
    (_C_STEP)."""

    def __init__(self, dim: int, rhs: Callable, n_params: int = 0,
                 ode: bool = False, tail: str = ""):
        self.dim, self.n_params, self._ode = dim, n_params, ode
        self.ops: list[tuple] = []
        self.n_rows = dim + 1 + n_params
        self._reciprocal: dict[int, int] = {}
        rows = [_Series(self, {i: 1.0}) for i in range(self.n_rows)]
        self.output = self._output(rhs(rows[:dim], *rows[dim:]))
        out_rows = ()
        if ode:
            M, const = self.output
            out_rows = M.argmax(axis=1).tolist()
            if (not np.array_equal(M, np.eye(self.n_rows)[out_rows])
                    or const.any()):
                raise ValueError("an ODE's outputs must be single recorded "
                                 "rows")
        self._run_source = self._compile(out_rows, tail)

    def _compile(self, out_rows, tail: str) -> tuple[list, dict]:
        """The recorded ops as source: fill's Python run(c0, n, A),
        gradient's pass and, but for an ODE with parameters, C (_c_source,
        tail after run; an ODE's defines its record width K).
        Locals a{r}, b{r} hold row r's order-0 and order-h values, s{j} the
        j-th convolution's sum over orders 1..h-1, one np.vecdot of views
        P, Q of the record R, whose row h holds the order-h values sel of
        each convolution's operands and of the unknowns.
        A jet sets its unknowns to its outputs at order h-1 over h (+ 0.0
        turns -0.0 into +0.0). A build sets them to 0.0, evaluates order h,
        solves (h*Id - A) y = wsum, by _C_SOLVE or by substitution in
        _factor's factors, and evaluates order h again with y as its
        unknowns. Literals are repr's, in C exact hex; C returns 1 where a
        reciprocal's operand or a pivot is 0.0, where Python raises
        ZeroDivisionError."""
        first, step, conv, wsum = self._statements(repr)
        m, dim, ode = len(conv), self.dim, bool(out_rows)
        n0, e = dim + 1 + self.n_params, dim + 1
        sel = [*(p for p, _ in conv), *(q for _, q in conv), *range(dim)]
        self._width = K = len(sel)

        def names(v, rows):
            return ", ".join(f"{v}{r}" for r in rows)

        def pack_sel(v, h):
            return f"pack(R, {h} * {8 * K}, {names(v, sel)})"

        def from_outputs(k):
            return f"[{', '.join(f'b{r} / {k} + 0.0' for r in out_rows)}]"
        order0 = [f"[{names('a', range(n0))}] = c0", *first]
        self._gradient_source = [
            "def run(c0, E):", *order0, "A = []",
            *(f"b{r} = 0.0" for r in range(dim, n0)),
            *(f"s{j} = 0.0" for j in range(m)),
            "for e in E:", f"    [{names('b', range(dim))}] = e",
            *("    " + s for s in step),
            f"    A.append([{', '.join(wsum)}])",
            f"return [{names('a', range(self.n_rows))}], A"]

        def record(v, h):
            return " ".join(f"R[{h} * {K} + {i}] = {v}{r};"
                            for i, r in enumerate(sel))
        c_first, c_step, _, c_wsum = self._statements(float.hex)
        zero = [f"a{a} == 0.0" for kind, _, a, _ in self.ops if kind == _INV]
        self._c_source = not (ode and self.n_params) and "\n".join([
            "#include <math.h>",
            f"#define K {K}" if ode else f"#define D {dim}",
            "int run(const double *y, long n, double *R) {",
            f"long h, k; double {names('a', range(self.n_rows))}, "
            f"{names('b', range(self.n_rows))}"
            f"{''.join(f', s{j}' for j in range(m))};",
            *([] if ode else [f"const double *A = y + {n0}; double t;",
                              "double M[D][D + 1], w[D]; long c, i, j, p;"]),
            *(f"a{r} = y[{r}];" for r in range(dim if ode else n0)),
            *([f"a{dim} = 0.0;"] if ode else []),
            *(f"b{r} = 0.0;" for r in range(dim + 1, n0)),
            *(s + ";" for s in c_first),
            f"if ({' || '.join(zero) or '0'}) return 1;", record("a", 0),
            *(f"b{r} = a{r};" for r in out_rows), "for (h = 1; h <= n; h++) {",
            *([*(f"R[h * {K} + {2 * m + i}] = b{r} / h + 0.0;"
                 for i, r in enumerate(out_rows)), "if (h == n) break;",
               *(f"b{i} = R[h * {K} + {2 * m + i}];" for i in range(dim))]
              if ode else [f"b{i} = 0.0;" for i in range(dim)]),
            f"b{dim} = h == 1 ? 1.0 : 0.0;",
            *(f"s{j} = 0.0;" for j in range(m)), "for (k = 1; k < h; k++) {",
            *(f"s{j} += R[k * {K} + {j}] * R[(h - k) * {K} + {m + j}];"
              for j in range(m)), "}", *(s + ";" for s in c_step),
            *([] if ode else [
                "for (i = 0; i < D; i++) for (j = 0; j < D; j++)",
                "    M[i][j] = (i == j ? (double)h : 0.0) - A[i * D + j];",
                *(f"M[{i}][D] = {s};" for i, s in enumerate(c_wsum)),
                _C_SOLVE, *(f"b{i} = w[{i}];" for i in range(dim)),
                *(s + ";" for s in c_step)]),
            record("b", "h"), "}", "return 0;", "}", tail])
        return ([
            "def run(c0, n, A):",
            f"R = empty((n + 1, {K}))",
            *([] if ode else ["F = factor(A, n)"]),
            f"P, Q = R.T[:{m}], R.T[{m}:{2 * m}]",
            *order0, pack_sel("a", 0),
            *(f"b{r} = a{r}" for r in out_rows),
            *(f"b{r} = 0.0" for r in range(dim + 1, n0)),
            f"for h in range(1, {'n' if ode else 'n + 1'}):",
            f"    b{dim} = 1.0 if h == 1 else 0.0",
            f"    [{names('b', range(dim))}] = "
            f"{from_outputs('h') if ode else [0.0] * dim}",
            f"    [{names('s', range(m))}] = vecdot(P[:, 1:h], "
            f"Q[:, h - 1:0:-1]).tolist()",
            *("    " + s for s in step),
            *([] if ode else [
               f"    w, L = [{', '.join(wsum)}], F[h - 1]",
               *(f"    b{i} = w[int(L[{i * e + dim}])]" for i in range(dim)),
               *(f"    b{i} -= L[{i * e + c}] * b{c}" for c in range(dim)
                 for i in range(c + 1, dim)),     # forward, then back
               *(f"    b{i} /= L[{i * e + c}]" if i == c else
                 f"    b{i} -= L[{i * e + c}] * b{c}"
                 for c in reversed(range(dim)) for i in (c, *range(c))),
               *("    " + s for s in step)]),
            f"    {pack_sel('b', 'h')}",
            *([f"if n: R[n, {2 * m}:] = {from_outputs('n')}"] if ode else []),
            f"return R[:, {2 * m}:].T.copy()"], {
            "empty": np.empty, "vecdot": np.vecdot, "factor": _factor,
            "pack": struct.Struct(f"{K}d").pack_into})

    def _statements(self, lit) -> tuple[list, list, list, list]:
        """Each op's statement at order 0 and at order h, coefficients
        written by lit, the operand rows (p, q) of each convolution
        sum_k C[p, k] C[q, h-k], a product's (a, b) or a reciprocal's, and
        wsum: [x^h] of each output, 0.0 + sum_r W[i, r] b{r} over the rows
        that W reads, in row order."""
        def terms(v, a):
            return "".join(f" + {lit(float(c))} * {v}{r}" for r, c in a)
        first, step, conv = [], [], []
        for kind, out, a, b in self.ops:
            j = len(conv)
            if kind == _MUL:
                first.append(f"a{out} = a{a} * a{b}")
                step.append(f"b{out} = s{j} + a{a} * b{b} + b{a} * a{b}")
                conv.append((a, b))
            elif kind == _INV:
                first.append(f"a{out} = 1.0 / a{a}")
                step.append(f"b{out} = -(s{j} + b{a} * a{out}) / a{a}")
                conv.append((a, out))
            else:
                # the leading 0.0 turns a sum of -0.0 terms into +0.0
                first.append(f"a{out} = 0.0{terms('a', a)} + {lit(float(b))}")
                step.append(f"b{out} = 0.0{terms('b', a)}")
        wsum = [f"0.0{terms('b', ((r, c) for r, c in enumerate(row) if c))}"
                for row in self.output[0]]
        return first, step, conv, wsum

    @cached_property
    def _compiled(self) -> ctypes.CDLL | None:
        """_c_source's library, loaded on first use; else false or None."""
        return self._c_source and _load_c(self._c_source)

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
        if kind == _INV:
            a = self._row(a)
            if a not in self._reciprocal:
                self._reciprocal[a] = self._new_row(_INV, a, None)
            return _Series(self, {self._reciprocal[a]: 1.0})
        b = self._row(self.lift(b))
        return _Series(self, {self._new_row(kind, self._row(a), b): 1.0})

    def _output(self, exprs) -> tuple[np.ndarray, np.ndarray]:
        """Matrix and order-0 constants of dim linear combinations of rows."""
        M = np.zeros((self.dim, self.n_rows))
        const = np.zeros(self.dim)
        for i, e in enumerate(exprs):
            e = self.lift(e)
            for row, c in e.coefs.items():
                M[i, row] += c
            const[i] = e.const
        return M, const

    def fill(self, y0, params, n: int, A=None) -> np.ndarray:
        """Orders 0..n of every row (relaxed arithmetic) from the unknowns'
        order-0 values y0, and the unknowns' rows as a C-ordered (dim, n + 1)
        array; x is 1 at order 1, else 0. A jet takes each order's unknowns
        from the output; a build, given gradient's A, solves for them in the
        loop (_compile). C where it loads, else Python."""
        y = np.asarray(y0, dtype=float)
        if (n >= 0 and y.shape == (self.dim,) and len(params) == self.n_params
                and (A is None if self._ode
                     else np.shape(A) == (self.dim,) * 2) and self._compiled):
            R = np.empty((n + 1, self._width))
            y = y if self._ode else np.concatenate(     # c0 and A
                (y, [0.0], params, A), axis=None)
            if self._compiled.run(_ptr(np.array(y)), n, _ptr(R)):
                raise ZeroDivisionError("float division by zero")
            return R[:, -self.dim:].T.copy()
        c0 = [*y.tolist(), 0.0, *np.asarray(params, dtype=float).tolist()]
        return self._run(c0, n, A)

    # fill's Python run and gradient's pass (order 0, then one order per
    # unit vector e of E), compiled on first use: not where C loads, and
    # the pass not for an ODE
    _run = cached_property(lambda self: _define(*self._run_source))
    _gradient_run = cached_property(
        lambda self: _define(self._gradient_source, {}))

    def gradient(self, y0, params) -> tuple[np.ndarray, np.ndarray]:
        """The order-0 column c0 about y0 and params, and A = d_{y0}F(0, .):
        with every convolution sum 0.0 and x = 0, column h with y_h = e_j
        is d C[:, h] / d y_h[j], the same for every h >= 1, and wsum on it
        is A[:, j], in fixed order: no BLAS."""
        c0, A = self._gradient_run(
            [*np.asarray(y0, dtype=float).tolist(), 0.0,
             *np.asarray(params, dtype=float).tolist()],
            np.eye(self.dim).tolist())
        return np.array(c0), np.array(A).T.copy()


def _factor(A: np.ndarray, n: int) -> list:
    """For h = 1 .. n, h*Id - A eliminated as by _C_SOLVE, operation for
    operation, by elementwise numpy on every h at once: flat rows of k + 1,
    the multipliers below the diagonal, U on and above it (a zero pivot
    raises in the substitution) and last the row's place in h*Id - A."""
    k, h = len(A), np.arange(1.0, n + 1)[:, None, None]
    M = np.empty((n, k, k + 1))
    M[..., :k], M[..., k] = h * np.eye(k) - A, range(k)
    for c in range(k):
        a = abs(M[:, c:, c])        # a NaN is a pivot only in row c
        p = c + (a[:, 0] == a[:, 0]) * np.argmax(np.fmax(a, -1.0), 1)
        for i in np.flatnonzero(p != c):
            M[i, [c, p[i]]] = M[i, [p[i], c]]
        L = M[:, c + 1:]            # the rows below the pivot, a view
        L[..., c] /= M[:, c, c, None]
        L[..., c + 1:k] -= L[..., c, None] * M[:, c, None, c + 1:k]
    return M.reshape(n, k * k + k).tolist()


# (h*Id - A) y = w in C, on M = (h*Id - A | w), into w; 1 on a zero pivot
_C_SOLVE = """for (c = 0; c < D; c++) {
    for (p = c, i = c + 1; i < D; i++)
        if (fabs(M[i][c]) > fabs(M[p][c])) p = i;
    for (j = c; j <= D; j++) t = M[c][j], M[c][j] = M[p][j], M[p][j] = t;
    if (M[c][c] == 0.0) return 1;
    for (i = c + 1; i < D; i++)
        for (t = M[i][c] / M[c][c], j = c + 1; j <= D; j++)
            M[i][j] -= t * M[c][j];
}
for (c = D - 1; c >= 0; c--)
    for (w[c] = M[c][D] / M[c][c], i = 0; i < c; i++)
        M[i][D] -= M[i][c] * w[c];"""


def _load_c(source: str, timeout_s: float = 60.0) -> ctypes.CDLL | None:
    """source's library, its functions typed by _SIGNATURES, from the cache
    $XDG_CACHE_HOME/nkshoot (else ~/.cache/nkshoot; mode 0700), loaded if
    the library and the source stored beside it, equal to source, are
    there; else first built by cc in a temporary directory there and moved
    into place by os.replace, library first. None where others own or can
    write the cache, no cc is on PATH, or the compile fails or takes more
    than timeout_s (then its process group is killed)."""
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache",
                 "nkshoot")
    c = cache / f"kernel-{zlib.crc32(source.encode()):08x}.c"
    so = c.with_suffix(".so")
    try:
        cache.mkdir(0o700, parents=True, exist_ok=True)
        if (st := cache.stat()).st_uid != os.getuid() or st.st_mode & 0o022:
            return None
        if not (so.is_file() and c.is_file() and c.read_text() == source):
            import signal
            import subprocess
            with tempfile.TemporaryDirectory(dir=cache) as tmp:
                Path(tmp, "jet.c").write_text(source)
                # no -ffast-math or -march, which move bits; files in tmp
                proc = subprocess.Popen(
                    "cc -O2 -shared -fPIC -ffp-contract=off -o jet.so jet.c"
                    .split(), cwd=tmp, stderr=subprocess.DEVNULL,
                    start_new_session=True, env={**os.environ, "TMPDIR": tmp})
                try:
                    failed = proc.wait(timeout_s)
                except subprocess.TimeoutExpired:
                    failed = os.killpg(proc.pid, signal.SIGKILL) or proc.wait()
                if failed:
                    return None
                os.replace(Path(tmp, "jet.so"), so)
                os.replace(Path(tmp, "jet.c"), c)
        lib = ctypes.CDLL(str(so))
        for name in filter(lambda name: hasattr(lib, name), _SIGNATURES):
            f = getattr(lib, name)
            f.argtypes, f.restype = _SIGNATURES[name], ctypes.c_int
        return lib
    except OSError:
        return None


def _define(lines: list[str], namespace: dict) -> Callable:
    """The function run of the source lines, compiled in namespace, under
    np.errstate(all="ignore"): an overflowing sum or _factor's zero pivot
    warns nothing, as in C."""
    exec(compile("\n    ".join(lines), "<recorded program>", "exec"),
         namespace)
    return np.errstate(all="ignore")(namespace["run"])


class _Expr(str):
    """C source of an expression recorded by Python arithmetic on it, each
    operation parenthesised, so C performs the same ones in the same order."""
    __neg__ = lambda a: _Expr(f"(-{a})")                    # noqa: E731
    __add__, __sub__, __mul__ = (lambda a, b, op=op: _Expr(f"({a} {op} {b})")
                                 for op in "+-*")


# poly (_poly_states) and the integrator's step (integrate._advance): on
# the rows c of degree nc, or with c NULL on the jet of order n through y,
# out gets h, t0 and whether end clamps h, then at the S nodes their times,
# states, guard rows and drift, then a jet's rows; a step whose h is not >=
# fl ends after h. Each operation is _step_size's, integrate._node's or
# state._first_integrals' (I), NaN branches included
_C_STEP = """
int poly(const double *c, long n, long d, const double *x, long m,
         double *y) {
    double p[n + 1], s;
    long i, j, k;
    for (j = 0; j < m; j++) {
        for (p[0] = 0.0 * x[j] + 1.0, k = 1; k <= n; k++)
            p[k] = p[k - 1] * x[j];
        for (i = 0; i < d; y[j * d + i++] = s)
            for (s = 0.0, k = n; k >= 0; k--) s += c[k * d + i] * p[k];
    }
    return 0;
}
#define MAX(m, v) (isnan(m) || isnan(v) ? NAN : fabs(v) > m ? fabs(v) : m)
int step(const double *y, const double *c, long nc, long n, long S, double t,
         double tol, double end, double fl, double lmin, double m2min,
         double big, double *out) {
    double R[(n + 1) * K], m[3], x[S], rho = INFINITY, r, h, t0 = 0.0;
    double *ts = out + 3, *ys = ts + S, *gd = ys + 7 * S, *dr = gd + 3 * S;
    long i, j, k;
    if (!c) {
        if (run(y, n, R)) return 1;
        for (k = 0; k < (n + 1) * 7; k++)
            dr[S + k] = R[k / 7 * K + K - 7 + k %% 7];
        c = dr + S, nc = n, t0 = t;
    }
    for (j = 0; j < 3; j++)
        for (m[j] = 0.0, k = j ? nc - 2 + j : 0, i = 0; i < 7; i++)
            m[j] = MAX(m[j], c[k * 7 + i]);
    for (j = 1; j < 3; j++)
        if ((r = m[j] / (m[0] > 1.0 ? m[0] : 1.0)) > 0.0)
            rho = fmin(rho, pow(r, -1.0 / (nc - 2 + j)));
        else if (r != 0.0) { rho = NAN; break; }
    out[0] = h = rho * pow(tol, 1.0 / nc) - (t - t0), out[1] = t0, out[2] = 0;
    if (!(h >= fl)) return 0;
    if (t + h >= end - fl) out[0] = h = end - t, out[2] = 1.0;
    for (j = 0; j < S; j++)
        x[j] = (ts[j] = j == S - 1 && out[2] ? end
                : t + h * ((j + 1) / (double) S)) - t0;
    poly(c, nc, 7, x, S, ys);
    for (j = 0; j < S; j++) {
        const double *Y = ys + 7 * j;
        double I[7] = {%s}, mag = 0.0, b = 0.0;
        for (i = 0; i < 7; i++) mag = MAX(mag, Y[i]);
        for (i = 0; i < 4; i++) b = MAX(b, I[i]);
        gd[j] = Y[0] - lmin, gd[S + j] = I[6] - m2min;
        gd[2 * S + j] = big - mag, dr[j] = b / (1.0 > I[5] ? 1.0 : I[5]);
    }
    return 0;
}
""" % ", ".join(_first_integrals(*(_Expr(f"Y[{i}]") for i in range(7))))

#: state.rhs_vec recorded once, as the ODE whose jets the integrator takes
_JET = _Program(7, lambda y, t: rhs_vec(t, y), ode=True, tail=_C_STEP)


# ---------------------------------------------------------------------------
# generic recurrence

@dataclass(frozen=True)
class SingularIVP:
    """A singular IVP x y' = F(x, y), y(0) = y0.

    program records rhs(y, x, *params), which returns F as a list of
    program.dim expressions built with +, -, scalar *, series * series and
    1 / series; params are the values of its parameter rows.
    """

    program: _Program = field(repr=False)
    y0: np.ndarray
    params: tuple[float, ...] = ()
    name: str = ""


def solve_singular_ivp(problem: SingularIVP, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient table Y (dim x order+1) of the unique series solution,
    and A = d_{y0}F(0, .), by the relaxed recurrence in O(order^2) work.

    Raises InvalidArgumentError if order < 1, DegenerateStateError if the
    order-0 pass divides by zero or overflows, SeriesConsistencyError if
    F(0, y0) != 0, and, before the first order is built, ResonanceError
    naming the first h (1 <= h <= order) at which max|h - eig| /
    min|h - eig| over A's eigenvalues exceeds COND_LIMIT, and that ratio.
    """
    if order < 1:
        raise InvalidArgumentError(
            f"series order must be at least 1, got {order}")
    prog = problem.program
    name = problem.name or "singular IVP"
    W, const = prog.output
    try:
        c0, A = prog.gradient(problem.y0, problem.params)
    except ZeroDivisionError:
        c0 = A = np.full(1, np.nan)
    if not (np.isfinite(c0).all() and np.isfinite(A).all()):
        raise DegenerateStateError(
            f"{name}: the order-0 terms at parameters {list(problem.params)} "
            f"divide by zero or overflow in floating point")
    res = float(np.max(np.abs(W @ c0 + const)))
    if res > 1e-13 * (1.0 + float(np.max(np.abs(problem.y0)))):
        raise SeriesConsistencyError(f"{name}: |M_-1(y0)| = {res:.3e}")
    gap = np.abs(np.arange(1, order + 1)[:, None] - np.linalg.eigvals(A))
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = gap.max(axis=1) / gap.min(axis=1)
    bad = np.flatnonzero(~(cond <= COND_LIMIT))
    if bad.size:
        h = int(bad[0]) + 1
        raise ResonanceError(
            f"{name}: h*Id - dM_-1 ill conditioned at h = {h} "
            f"(cond = {cond[h - 1]:.3e})")
    return prog.fill(problem.y0, problem.params, order, A), A


# ---------------------------------------------------------------------------
# family instances

# x y' = F(x, y) of s2_problem, s3_problem and s3_bubble_problem with the
# family parameter as a series; each is recorded once, below, and serves
# every member. M_-1 = F(0, .) is not written out: solve_singular_ivp reads
# it at x = 0. The order in which a rhs records its rows is the summation
# order of W @ C, so reordering its expressions can move the last bits.

def _s2_rhs(y, x, a):
    y1, y2, y3, y4, y5, y6, y7 = y
    a2 = a * a
    x2 = x * x
    r7 = 1 / y7
    a2y7 = a2 * y7
    w = y3 * y6 * (r7 * r7)
    # D = mu^2 / t^2 = 2 a^2 (y2-y1) + t^2 (y2^2 - y1^2 + y3^2)
    rD = 1 / (2 * (a2 * (y2 - y1)) + x2 * (y2 * y2 - y1 * y1 + y3 * y3))
    return [
        -(2 * y1 + 3 * (y4 * r7)),
        -(2 * y2 + 3 * (y5 * r7) - 2 * y7),
        -(2 * y3 + 3 * (y6 * r7)),
        4 * (a2y7 + x2 * (y1 * y7)) - 2 * y4,
        4 * (a2y7 + x2 * (y2 * y7)) - 2 * y5,
        4 * (x2 * (y3 * y7)) - 2 * y6 - 3 * (y3 * r7),
        -(y7 + 2 * (y7 * y7 * (a2 + x2 * y2) * rD) + 3 * (w * rD)),
    ]


def _s3_bubble_rhs(y, x, b):
    y1, y2, y3, y4, y5, y6, y7 = y
    b2 = b * b
    x2 = x * x
    rQ = 1 / (y2 * y2 - y1 * y1 + b2 * (y3 * y3))
    v = [4 * (b * (y1 * y7)) - 2 * y4,
         4 * (b * (y2 * y7)) - 2 * y5,
         4 * (b2 * (y3 * y7)) - 2 * y6 - 3 * y3]
    lam = -4 * ((y2 * (y7 * y7) + y3) * rQ)
    return [2 * b - y1 - 3 * (b * (x2 * y4)),
            2 * y7 - y2 - 3 * (b * (x2 * y5)),
            -(y3 + 2) - 3 * (x2 * y6),
            *v, lam - 6 * (x2 * (y3 * y6 * rQ))]


def _s3_rhs(y, x, b):
    y1, y2, y3, y4, y5, y6, y7 = y
    x2 = x * x
    x2y7, r7 = x2 * y7, 1 / y7
    u = [-(y1 + 3 * (y4 * r7)), -(y2 + 3 * (y5 * r7) - 2 * y7),
         -(y3 + 3 * (y6 * r7))]
    lam = -((2 * (y7 * y7 * y2) + 3 * (y3 * y6 * (r7 * r7)))
            / (y2 * y2 - y1 * y1 + y3 * y3))
    return [*u, 4 * (x2y7 * y1), 4 * (x2y7 * y2),
            4 * (x2y7 * y3) - 3 * (x2 * (y3 * r7)), lam]


_S2_PROGRAM = _Program(7, _s2_rhs, n_params=1)
_S3_PROGRAM = _Program(7, _s3_rhs, n_params=1)
_S3_BUBBLE_PROGRAM = _Program(7, _s3_bubble_rhs, n_params=1)


def s2_problem(a: float) -> SingularIVP:
    """Closing on the 2-sphere orbit: substitution u0 = a^2 + t^2 y1,
    u1 = a^2 + t^2 y2, u2 = t^2 y3, v_i = t^2 y_{3+i}, lambda = t y7."""
    if not 0.0 < a < np.inf:
        raise InvalidArgumentError("parameter a must be positive and finite")
    a2 = a * a
    sq3 = np.sqrt(3.0)
    y0 = np.array([-3 * a2, -3 * a2 + 1.5, -1.5 * sq3 * a,
                   3 * a2, 3 * a2, 1.5 * sq3 * a, 1.5])
    return SingularIVP(_S2_PROGRAM, y0, (a,), name="S2")


def s3_problem(b: float) -> SingularIVP:
    """Closing on the 3-sphere orbit in t: u_i = t y_{1+i}, v_i = y_{4+i},
    lambda = y7; b enters through y0 only, and its row names it in errors."""
    if not 0.0 < b < np.inf:
        raise InvalidArgumentError("parameter b must be positive and finite")
    v = 2 * b * b * b / 3
    y0 = np.array([2 * b * b, 2 * b, -2 * b * b, -v, 0.0, v, b])
    return SingularIVP(_S3_PROGRAM, y0, (b,), name="S3")


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
    return SingularIVP(_S3_BUBBLE_PROGRAM, y0, (b,), name="S3-bubble")


# ---------------------------------------------------------------------------
# assembled solution families

@dataclass(frozen=True)
class SeriesSolution:
    """Truncated Taylor coefficients of one family member about its singular
    orbit.

    coeffs maps component name -> coefficient array in the solution's own
    variable (t for both families and the S2 bubble, s for the S3 bubble).
    For the variable-s bubble t_of_var converts to its time (t = integral
    of lambda ds); for variable-t solutions it is the identity series.
    """

    family: str               # 'S2' | 'S3' | 'S2-bubble' | 'S3-bubble'
    param: float
    var: str                  # 't' | 's'
    order: int
    coeffs: dict[str, np.ndarray]
    t_of_var: np.ndarray = field(repr=False)

    def tail_estimate(self, x: float) -> float:
        """Conservative truncation bound from the last retained coefficients
        of every component (the last four orders cover parity gaps); not
        finite where x is not or a power overflows."""
        ax = np.float64(abs(x))
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.max([sum(abs(c[k]) * ax ** k for k in
                                     range(max(0, len(c) - 4), len(c)))
                                 for c in self.coeffs.values()]))

    @cached_property
    def t_coeffs(self) -> np.ndarray:
        """Taylor rows in t of a variable-t solution: row k holds [t^k] of the
        components, k = 0..order+1, the orders the recurrence fixes."""
        if self.var != "t":
            raise InvalidArgumentError(f"the {self.family} series is in s")
        return np.column_stack([self.coeffs[name][:self.order + 2]
                                for name in _COMPONENTS])

    def components_at(self, x: float) -> np.ndarray:
        return np.array([_horner(self.coeffs[name], x) for name in _COMPONENTS])

    def time_at(self, x: float) -> float:
        return _horner(self.t_of_var, x)


def volume_coeffs(lam: np.ndarray, u0: np.ndarray, u1: np.ndarray,
                  u2: np.ndarray) -> np.ndarray:
    """Taylor coefficients of V = lambda mu^2 from those of lambda and u,
    truncated at their order: the one formula of the series part and the
    integrator part of the volume integral."""
    n = len(lam) - 1
    mu2 = _pmul(u1, u1, n) + _pmul(u2, u2, n) - _pmul(u0, u0, n)
    return _pmul(lam, mu2, n)


def poly_integral(c: np.ndarray, lo: float, hi: float) -> float:
    """Exact integral over [lo, hi] of the polynomial with coefficients c;
    at lo = 0, P(hi) alone: P(0) = 0, and a non-finite P is so at hi too."""
    P = _pint(c)
    return _horner(P, hi) - (_horner(P, lo) if lo else 0.0)


def eval_series(sol: SeriesSolution, x: float) -> tuple[State, float]:
    """Horner-evaluate all seven components at x (the solution's own
    variable) and return (state, tail bound). Raises OutOfRadiusError when
    the tail bound is not within HANDOFF_TAIL_TOL (NaN and inf included)."""
    tail = sol.tail_estimate(x)
    if not tail <= HANDOFF_TAIL_TOL:
        raise OutOfRadiusError(f"tail estimate {tail:.3e} not within "
                               f"{HANDOFF_TAIL_TOL:.1e} at {sol.var} = {x}")
    y = sol.components_at(x)
    return State.from_vec(sol.time_at(x), y), tail


def _coefficients(rows, order: int, lead: dict) -> dict[str, np.ndarray]:
    """Coefficient arrays of length order + 3, with the rows (u0, u1, u2,
    v0, v1, v2, lambda) from the power lead[first letter] on."""
    c = {name: np.zeros(order + 3) for name in _COMPONENTS}
    for name, row in zip((*_COMPONENTS[1:], "lam"), rows):
        c[name][lead[name[0]]:lead[name[0]] + len(row)] = row
    return c


def _t_solution(family: str, problem: SingularIVP, order: int,
                lead: dict) -> SeriesSolution:
    """The variable-t family with problem's rows as its _coefficients,
    solved to the order that fixes all of its t-rows 0..order+1."""
    if order < 1:
        raise InvalidArgumentError(
            f"series order must be at least 1, got {order}")
    Y, _ = solve_singular_ivp(problem, order + 1 - lead["l"])
    return SeriesSolution(family, problem.params[0], "t", order,
                          _coefficients(Y, order, lead), np.array([0.0, 1.0]))


def series_psi_a(a: float, order: int = DEFAULT_ORDER) -> SeriesSolution:
    """Family closing on the S^2 orbit; leading data lambda = (3/2) t,
    u0(0) = u1(0) = a^2."""
    sol = _t_solution("S2", s2_problem(a), order, {"l": 1, "u": 2, "v": 2})
    sol.coeffs["u0"][0] = sol.coeffs["u1"][0] = a * a
    return sol


def series_bubble_b(b: float, order: int = DEFAULT_ORDER) -> SeriesSolution:
    """Rescaled bubble closing on the S^3 orbit, in the variable s."""
    Y, _ = solve_singular_ivp(s3_bubble_problem(b), order)
    c = _coefficients((*Y[:2], b * Y[2], *Y[3:6], _psqrt(Y[6], order)), order,
                      {"l": 0, "u": 1, "v": 2})
    c["v0"][0], c["v2"][0] = -2.0 / 3.0, 2.0 / 3.0
    t_tilde = _pint(c["lam"])[:order + 3]  # dt~/ds = lambda~
    return SeriesSolution("S3-bubble", b, "s", order, c, t_tilde)


def series_psi_b(b: float, order: int = DEFAULT_ORDER) -> SeriesSolution:
    """Family closing on the S^3 orbit; leading data lambda(0) = b,
    v0(0) = -v2(0) = -(2/3) b^3. It is the bubble rescaled: lambda =
    b lambda~(s), u = b^2 u~(s), v = b^3 v~(s) at t = b t~(s)."""
    return _t_solution("S3", s3_problem(b), order, {"l": 0, "u": 1, "v": 0})


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
    """Integrator start (t*, state): t* = min(0.1 min(1, parameter), reach),
    with reach = _step_size(sol.t_coeffs, HANDOFF_TAIL_TOL), and the t-rows'
    state there. Raises OutOfRadiusError unless the reach is positive and
    finite (rows that overflowed)."""
    reach = _step_size(sol.t_coeffs, HANDOFF_TAIL_TOL)
    if not 0.0 < reach < math.inf:
        raise OutOfRadiusError(
            f"the t-rows of the {sol.family} family at parameter {sol.param} "
            f"have no finite positive reach ({reach})")
    t_star = min(0.1 * min(1.0, sol.param), reach)
    return t_star, State.from_vec(t_star, _poly_states(sol.t_coeffs, t_star))
