"""Forward integration of the fundamental system by Taylor steps, with dense
output, event location and singularity detection.

The right-hand side state.rhs_vec is recorded once, at import, into the
relaxed-arithmetic program of series._Program (Jorba & Zou, Exp. Math. 14,
2005), which gives the Taylor jet of the solution through any state: the
series engine of the singular orbits, run on the regular system. Each step
takes one jet of order N and advances by h = rho * tol^(1/N), with rho the
radius estimated from the last two jet coefficients; N and the step
tolerance follow from the one integrator tolerance. Every step contributes
its end and STEP_SAMPLES interior points as nodes. One pass over a step's
nodes (_step) gives the events' values, one vectorised call each, and,
node by node on Python floats, the guard's and the first-integral drift.
Every row, event or guard, stops the run where it falls through zero; the
walk stops at the first node where one does, refined on its row's function
alone (an event's fn_vec) by bracketed_root to adjacent floats on the step
polynomial's state; the earliest ends the run. Dense output: the
Trajectory keeps each step's polynomial, its start in starts and its rows
in coeffs, and dense(t) evaluates the step containing t. The drift is
recorded at every node and above 1e-6 aborts the run; drift is monitored,
not projected.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .errors import (ConstraintDriftError, DegenerateStateError,
                     InvalidArgumentError, StepSizeCollapseError)
from .series import _COMPONENTS, _Program, _poly_states, _step_size
from .state import LAMBDA_MIN, MU2_MIN, State, _first_integrals, rhs_vec

DEFAULT_TOL = 1e-12
DEFAULT_ATOL = DEFAULT_TOL  # an alias that perfbench/workloads.py imports
DRIFT_ABORT = 1e-6
COMPONENT_MAGNITUDE_MAX = 1e8
STEP_SAMPLES = 7            # interior nodes per step
_FRAC = np.arange(1, STEP_SAMPLES + 2) / (STEP_SAMPLES + 1)
_EPS = np.finfo(float).eps
ROOT_MAXITER = 100          # new points per bracketed_root

#: rhs_vec recorded once, as the ODE whose jets the steps take
_PROGRAM = _Program(7, lambda y, t: rhs_vec(t, y), ode=True)


def _jet(y: np.ndarray, order: int) -> np.ndarray:
    """Taylor coefficients c[k], k = 0..order, of the solution through y:
    row k of the (order + 1, 7) result is y^(k)(t0) / k!. The result is
    column-major (see _Program)."""
    return _PROGRAM.fill(y, (), order).T


def _order_and_tol(tol: float) -> tuple[int, float]:
    """Jet order N and per-step tolerance: 1e-2 tol, with N growing by 1.7
    per decade of it (24 at the default)."""
    tol = max(1e-2 * tol, _EPS)
    return math.ceil(-1.7 * math.log10(tol)), tol


@dataclass(frozen=True)
class EventSpec:
    """Event function of (t, y7); the event stops the run where fn_vec falls
    through zero (> 0 at one node, <= 0 at the next). To stop at a rising
    zero, negate fn_vec; to stop at a zero either way, pass f and -f as two
    events. The engine calls fn_vec once per step on all its nodes, with t
    of shape (m,) and y of shape (7, m), so it must act elementwise over the
    trailing axis and return shape (m,), and on single nodes (t a float, y
    of shape (7,))."""

    name: str
    fn_vec: Callable[[ArrayLike, np.ndarray], ArrayLike]


def _volume_event_vec(t: ArrayLike, y: np.ndarray) -> ArrayLike:
    lam, u0, u1, u2, v0, v1, v2 = y
    return 2.0 * lam ** 4 * u1 - 3.0 * u2 * v2


#: The flagship event: the maximal-volume orbit, where 2 lambda^4 u1 = 3 u2 v2.
MAX_VOLUME_EVENT = EventSpec("max-volume", fn_vec=_volume_event_vec)


#: the singularity guard's rows, after the events' at each node: lambda -
#: LAMBDA_MIN, mu^2 - MU2_MIN and COMPONENT_MAGNITUDE_MAX - max|y_i|; like
#: an event, each stops the run where it falls through zero
GUARDS = ("guard-lambda", "guard-mu2", "guard-magnitude")


def _values(events, t: float, y: np.ndarray) -> tuple[list, float]:
    """The events' and the guard's values (floats) and the drift at the
    node (t, y), y of shape (7,)."""
    return _node([float(event.fn_vec(t, y)) for event in events], y.tolist())


def _value(events, i: int, t: float, y: np.ndarray) -> float:
    """Row i of _values(events, t, y)[0]; an event's row from its fn_vec
    alone."""
    return (float(events[i].fn_vec(t, y)) if i < len(events)
            else _values(events, t, y)[0][i])


def _node(vals: list, y: list) -> tuple[list, float]:
    """vals, the events' values at the node with the seven floats y, and
    the guard's after them; the drift there (ConstraintVector.rel_drift),
    from one mu^2 and lambda^2 mu^2. A NaN propagates as in np.max."""
    i1, i2, i3, i4, _, lam2mu2, mu2 = _first_integrals(*y)
    mag, big = max(map(abs, y)), max(abs(i1), abs(i2), abs(i3), abs(i4))
    if math.isnan(i1 + i2 + i3 + i4):       # a NaN in y reaches I3
        mag = math.nan if any(map(math.isnan, y)) else mag
        big = math.nan if any(map(math.isnan, (i1, i2, i3, i4))) else big
    return vals + [y[0] - LAMBDA_MIN, mu2 - MU2_MIN,
                   COMPONENT_MAGNITUDE_MAX - mag], big / max(lam2mu2, 1.0)


def _step(events, c: np.ndarray, t0: float, t: float, y: np.ndarray, g,
          h: float, end: float | None = None):
    """The nodes t + h * _FRAC (the last one end, when given) after the node
    (t, y), where the values were g, on the step polynomial c about t0:
    (times, states, drift, values at the last node walked, row of the
    crossing that ends the run or None). Row i crosses into a node where
    it was > 0 at the node before and is <= 0 there, a zero counting for
    the interval it ends; the walk stops at the first node where one does,
    and the earliest refined root there becomes the last node. The drift
    is checked (_check_drift) at the nodes that remain."""
    ts = t + h * _FRAC
    if end is not None:
        ts[-1] = end
    ys = _poly_states(c, ts - t0)
    rows = [np.asarray(e.fn_vec(ts, ys.T)).tolist() for e in events]
    times, drift = [t, *ts.tolist()], []
    for j, (*vals, yj) in enumerate(zip(*rows, ys.tolist())):
        vals, d = _node(vals, yj)
        drift.append(d)
        cross = [i for i, x in enumerate(g) if x > 0.0 >= vals[i]]
        g = vals
        if cross:
            lo, hi = times[j:j + 2]
            t_hit, hit = min((_root(lambda s, i=i: _value(
                events, i, s, _poly_states(c, s - t0)), lo, hi), i)
                for i in cross)
            k = int(np.searchsorted(ts, t_hit))
            y_hit = _poly_states(c, t_hit - t0)
            ts = np.append(ts[:k], t_hit)
            ys = np.vstack((ys[:k], y_hit))
            drift[k:] = [_node([], y_hit.tolist())[1]]
            return ts, ys, _check_drift(ts, ys, drift, t, y), g, hit
    return ts, ys, _check_drift(ts, ys, drift, t, y), g, None


@dataclass(frozen=True)
class Trajectory:
    """Result of one integration: strictly increasing nodes (step ends and
    STEP_SAMPLES interior points per step), the step polynomials, constraint
    drift per node, the termination reason and the name of the event or guard
    whose crossing is the last node (None at horizon). Step i has the Taylor
    polynomial with coefficient rows coeffs[i] about starts[i] and runs to
    the next start (the last to t_end); step 0 may be a singular orbit's
    series, about 0, begun at the handoff t*. dense(t) evaluates the step
    containing t (the later one at a shared end)."""

    times: np.ndarray
    states: np.ndarray                  # shape (n, 7)
    starts: np.ndarray = field(repr=False)
    coeffs: tuple[np.ndarray, ...] = field(repr=False)
    termination: str                    # 'event' | 'singularity' | 'horizon'
    drift: np.ndarray                   # relative max|I_i| per node
    stopped_by: str | None

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def dense(self, t: float) -> np.ndarray:
        i = max(0, int(np.searchsorted(self.starts, t, side="right")) - 1)
        return _poly_states(self.coeffs[i], t - self.starts[i])

    def state_at(self, t: float) -> State:
        if not self.t_start <= t <= self.t_end:
            raise ValueError(f"t = {t} outside trajectory span "
                             f"[{self.t_start}, {self.t_end}]")
        return State.from_vec(t, self.dense(t))


def _check_drift(ts: Sequence[float], ys: Sequence[np.ndarray],
                 drift: list, t_prev: float, y_prev: np.ndarray) -> list:
    """drift, the list of floats at the nodes ts (states ys). Raises
    ConstraintDriftError at the first node above DRIFT_ABORT, with the node
    before it (t_prev, y_prev for the first) as the last good state."""
    for k, d in enumerate(drift):
        if d > DRIFT_ABORT:
            t_good, y_good = (ts[k - 1], ys[k - 1]) if k else (t_prev, y_prev)
            raise ConstraintDriftError(
                f"relative first-integral drift {d:.3e} > {DRIFT_ABORT} "
                f"at t = {ts[k]}", t_bad=float(ts[k]),
                last_state=State.from_vec(t_good, y_good))
    return drift


def bracketed_root(f: Callable[[float], float], lo: float, hi: float,
                   f_lo: float, f_hi: float, xtol: float, rtol: float) -> float:
    """A zero of f between lo and hi (either order), where f changes sign
    (f_lo and f_hi are its values there, which the caller evaluated),
    by Chandrupatla's method (Adv. Eng. Softw. 28, 1997): inverse quadratic
    interpolation through the last three points where it is monotone on the
    bracket, bisection otherwise. Each new point lies max(tol, 4 ulp) / 2 or
    more inside the bracket, tol = xtol + rtol |x| (the ulp of the last
    point, which keeps the finish to adjacent floats from stalling on one
    side), or at its middle where it is narrower than that. The bracket is
    final once narrower than tol or, at xtol = rtol = 0, once its ends are
    adjacent floats; the end with the smaller |f|, a point where f was
    evaluated, is returned. Raises ValueError on a NaN value (f_lo and f_hi
    included) or ends of the same sign, and RuntimeError after ROOT_MAXITER
    new points."""
    def checked(x: float, fx: float) -> float:
        fx = float(fx)
        if math.isnan(fx):
            raise ValueError(f"f({x}) is NaN")
        return fx

    # (x1, f1) the newest point, x2 the other end of the bracket, x3 the
    # point it displaced
    x1, x2 = float(lo), float(hi)
    f1, f2 = checked(x1, f_lo), checked(x2, f_hi)
    if f1 != 0.0 and f2 != 0.0 and (f1 < 0.0) == (f2 < 0.0):
        raise ValueError(f"f has the same sign at {lo} and {hi}")
    x3 = f3 = math.nan
    for _ in range(ROOT_MAXITER + 1):
        xm, fm = (x1, f1) if abs(f1) <= abs(f2) else (x2, f2)
        dx, tol = abs(x2 - x1), xtol + rtol * abs(xm)
        if fm == 0.0 or dx < tol or math.nextafter(x1, x2) == x2:
            return xm
        xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
        t = 0.5
        if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:
            t = (f1 / (f1 - f2) * f3 / (f3 - f2)
                 - (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f2 - f3))
        tl = 0.5 * max(tol, 4.0 * math.ulp(x1)) / dx
        t = min(max(t, tl), 1.0 - tl) if tl < 0.5 else 0.5
        x = x1 + t * (x2 - x1)
        fx = checked(x, f(x))
        if (fx < 0.0) == (f1 < 0.0):
            x3, f3 = x1, f1
        else:
            x3, f3, x2, f2 = x2, f2, x1, f1
        x1, f1 = x, fx
    raise RuntimeError(f"no root to tolerance after {ROOT_MAXITER} points; "
                       f"bracket [{x1}, {x2}]")


def _root(g: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of g on [lo, hi] to adjacent floats (bracketed_root). If
    rounding undoes the bracket the node scan saw, the root is taken at hi,
    the node where the scan saw the sign change."""
    g_lo, g_hi = g(lo), g(hi)
    if (g_lo > 0.0 and g_hi > 0.0) or (g_lo < 0.0 and g_hi < 0.0):
        return hi
    return bracketed_root(g, lo, hi, g_lo, g_hi, 0.0, 0.0)


def integrate(start: State, horizon: float,
              events: Sequence[EventSpec] = (), tol: float = DEFAULT_TOL,
              series: np.ndarray | None = None) -> Trajectory:
    """Integrate forward from start.t to horizon by Taylor steps.

    The first crossing ends the run: the earliest zero that any of events or
    of the singularity guard (lambda < 1e-8, mu^2 < 1e-12 or a component
    above 1e8 in magnitude) falls through is the last node; if none, it ends
    at the horizon. tol sets the jet order and the per-step tolerance 1e-2
    tol. Raises InvalidArgumentError unless start.t < horizon < inf and tol
    is positive and finite, and DegenerateStateError unless start is
    finite, inside every guard (lambda > 1e-8, mu^2 > 1e-12, each component
    below 1e8 in magnitude) and oriented (u1 v2 - u2 v1 > 0); a step below
    16 eps max(1, |t|) raises StepSizeCollapseError. A reverse-time run
    integrates the image under a gluing word (state.GLUE_MINUS).

    series, Taylor rows in t about t = 0 of the solution through start
    (SeriesSolution.t_coeffs), is the first step's polynomial, expanded
    about 0, up to where _step_size says it reaches; if that is less than
    the step floor past start.t, the run starts with a jet. It must match
    start to 1e-12 max(1, |y|) at start.t, else InvalidArgumentError.
    """
    if not start.t < horizon < math.inf:
        raise InvalidArgumentError(
            f"horizon {horizon} is not a finite time after start t = {start.t}")
    if not 0.0 < tol < math.inf:
        raise InvalidArgumentError(f"tolerances must be positive and finite, "
                                   f"got tol = {tol}")
    order, step_tol = _order_and_tol(tol)
    if order < 2:
        raise InvalidArgumentError(f"tol = {tol} >= 25.8 is too loose for a "
                                   f"Taylor step (jet order {order} < 2)")
    for name, x in zip(_COMPONENTS, start.vec.tolist()):
        if not math.isfinite(x):
            raise DegenerateStateError(f"start has {name} = {x}")
    names = [*(event.name for event in events), *GUARDS]
    t, y = start.t, start.vec
    g, drift = _values(events, t, y)
    for name, x in zip(GUARDS, g[len(events):]):
        if not x > 0.0:
            raise DegenerateStateError(f"start has {name} = {x}")
    if start.orient <= 0.0:
        raise DegenerateStateError(
            f"start violates orientation: u1 v2 - u2 v1 = {start.orient}")

    if series is not None:
        gap = np.max(np.abs(_poly_states(series, start.t) - start.vec))
        if not gap <= 1e-12 * max(1.0, np.max(np.abs(start.vec))):
            raise InvalidArgumentError(f"series misses start by {gap:.3e}")
    times, states = [np.array([t])], [y[None, :]]
    drifts = _check_drift([t], [y], [drift], t, y)
    starts, coeffs = [], []
    termination = stopped_by = None
    while termination is None:
        floor = 16 * _EPS * max(1.0, abs(t))
        # step polynomial c about t0: the series if it reaches, else a jet
        h = math.nan if series is None else _step_size(series, step_tol) - t
        t0, c, series = 0.0, series, None
        if not h >= floor:
            # near a singularity the jet can overflow; that ends the run below
            with np.errstate(over="ignore", invalid="ignore"):
                c = _jet(y, order)
            t0, h = t, _step_size(c, step_tol)
        if not h >= floor:
            what = (f"step size {h:.3e} below {floor:.3e}"
                    if np.isfinite(c).all() else "Taylor jet overflowed")
            raise StepSizeCollapseError(f"{what} at t = {t}",
                                        State.from_vec(t, y))
        if t + h >= horizon - floor:
            h, termination = horizon - t, "horizon"
        ts, ys, drift, g, hit = _step(events, c, t0, t, y, g, h,
                                      horizon if termination else None)
        if hit is not None:
            termination = "event" if hit < len(events) else "singularity"
            stopped_by = names[hit]
        drifts += drift
        starts.append(t0)
        coeffs.append(c)
        times.append(ts)
        states.append(ys)
        t, y = float(ts[-1]), ys[-1]

    return Trajectory(times=np.concatenate(times),
                      states=np.concatenate(states),
                      starts=np.array(starts), coeffs=tuple(coeffs),
                      termination=termination,
                      drift=np.array(drifts), stopped_by=stopped_by)
