"""Forward integration of the fundamental system by Taylor steps, with dense
output, event location and singularity detection.

The right-hand side state.rhs_vec is recorded once, at import, into the
relaxed-arithmetic program of series._Program (Jorba & Zou, Exp. Math. 14,
2005), which gives the Taylor jet of the solution through any state: the
series engine of the singular orbits, run on the regular system. Each step
takes one jet of order N and advances by h = rho * tol^(1/N), with rho the
radius estimated from the last two jet coefficients; N and the step
tolerance follow from rtol and atol. Every step contributes its end and
STEP_SAMPLES interior points as nodes. One pass over a step's nodes
(_NodePass) gives the values of the events and the singularity guard and
the first-integral drift. Events and guards are sign changes of their
values over the nodes, refined by brentq on the step polynomial's state,
and the earliest ends the run; the dense output is the step polynomials.
The drift is recorded at every node and above 1e-6 aborts the run; drift is
monitored, not projected.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .errors import (ConstraintDriftError, DegenerateStateError,
                     InvalidArgumentError, StepSizeCollapseError)
from .rootfind import brentq
from .series import _Program, _poly_states, _step_size
from .state import LAMBDA_MIN, MU2_MIN, State, _first_integrals, rhs_vec

DEFAULT_RTOL = 1e-12
DEFAULT_ATOL = 1e-12
DRIFT_ABORT = 1e-6
COMPONENT_MAGNITUDE_MAX = 1e8
STEP_SAMPLES = 7            # interior nodes per step
_FRAC = np.arange(1, STEP_SAMPLES + 2) / (STEP_SAMPLES + 1)
_EPS = np.finfo(float).eps

#: rhs_vec recorded once, as the ODE whose jets the steps take
_PROGRAM = _Program(7, lambda y, t: (rhs_vec(t, y),), ode=True)


def _jet(y: np.ndarray, order: int) -> np.ndarray:
    """Taylor coefficients c[k], k = 0..order, of the solution through y:
    row k of the (order + 1, 7) result is y^(k)(t0) / k!. The result is
    column-major (see _Program)."""
    return _PROGRAM.fill(np.reshape(y, (1, 7)), (), order).T


def _order_and_tol(rtol: float, atol: float) -> tuple[int, float]:
    """Jet order N and per-step tolerance: 1e-2 min(rtol, atol), with N
    growing by 1.7 per decade of it (24 at the defaults)."""
    tol = max(1e-2 * min(rtol, atol), _EPS)
    return math.ceil(-1.7 * math.log10(tol)), tol


@dataclass(frozen=True)
class EventSpec:
    """Event function of (t, y7) with a direction filter (0 any, +1 rising,
    -1 falling); an event stops the run. The engine calls fn_vec on all nodes
    of a step at once, with t of shape (m,) and y of shape (7, m), so it must
    act elementwise over the trailing axis and return shape (m,)."""

    name: str
    fn_vec: Callable[[ArrayLike, np.ndarray], ArrayLike]
    direction: int = 0          # 0 any, +1 rising, -1 falling

    def __call__(self, t: ArrayLike, y: np.ndarray) -> ArrayLike:
        return self.fn_vec(t, y)


def _volume_event_vec(t: ArrayLike, y: np.ndarray) -> ArrayLike:
    lam, u0, u1, u2, v0, v1, v2 = y
    return 2.0 * lam ** 4 * u1 - 3.0 * u2 * v2


#: The flagship event: the maximal-volume orbit, where 2 lambda^4 u1 = 3 u2 v2.
MAX_VOLUME_EVENT = EventSpec("max-volume", fn_vec=_volume_event_vec)


#: the singularity guard's values, in the order _NodePass gives them after
#: the events; each stops the run where it falls through zero
GUARDS = ("guard-lambda", "guard-mu2", "guard-magnitude")


class _NodePass:
    """The work of a run at every node: the values of its events and of the
    singularity guard, the crossing that ends the run, and the relative
    first-integral drift. The guard's values are lam_sign * lambda -
    LAMBDA_MIN, with lam_sign the sign of lambda at the start so that its
    crossing is a sign change, mu^2 - MU2_MIN and COMPONENT_MAGNITUDE_MAX -
    max|y_i|."""

    def __init__(self, events: Sequence[EventSpec], lam_sign: float):
        self.events = tuple(events)
        self.lam_sign = lam_sign
        self.names = [*(event.name for event in events), *GUARDS]
        direction = np.array([*(event.direction for event in events),
                              -1, -1, -1])[:, None]
        self._rising, self._falling = direction >= 0, direction <= 0

    def values(self, t: ArrayLike, y: np.ndarray) -> tuple[list, ArrayLike]:
        """The events' and the guard's values at the nodes t with states y,
        of shape (7,) or (7, m), one entry each, and the drift there
        (ConstraintVector.rel_drift), from one mu^2 and lambda^2 mu^2."""
        *integrals, _, lam2mu2, mu2 = _first_integrals(*y)
        drift = np.abs(integrals).max(axis=0) / np.maximum(1.0, lam2mu2)
        return [*(event.fn_vec(t, y) for event in self.events),
                self.lam_sign * y[0] - LAMBDA_MIN, mu2 - MU2_MIN,
                COMPONENT_MAGNITUDE_MAX - np.abs(y).max(axis=0)], drift

    def step(self, c: np.ndarray, t0: float, t: float, y: np.ndarray, g,
             h: float, end: float | None = None):
        """The nodes t + h * _FRAC (the last one end, when given) after the
        node (t, y), where the values were g, on the step polynomial c about
        t0: (times, states, drift, values at the last node, row of the
        crossing that ends the run or None). Row i crosses where it changes
        sign in the direction its event allows (the guard's fall), a zero
        counting for the interval it ends; the crossings in the earliest
        such interval are refined and the earliest becomes the last node.
        The drift is checked (_check_drift) at the nodes that remain."""
        ts = t + h * _FRAC
        if end is not None:
            ts[-1] = end
        ys = _poly_states(c, ts - t0)
        vals, drift = self.values(ts, ys.T)
        V = np.empty((len(self.names), len(ts) + 1))
        V[:, 0] = g
        V[:, 1:] = vals
        a, b = V[:, :-1], V[:, 1:]
        cross = (((a < 0.0) & (b >= 0.0) & self._rising)
                 | ((a > 0.0) & (b <= 0.0) & self._falling))
        hit = None
        if cross.any():
            j = int(np.flatnonzero(cross.any(axis=0))[0])
            lo, hi = [t, *ts.tolist()][j:j + 2]
            t_hit, hit = min((_root(self._row(i, c, t0), lo, hi), i)
                             for i in np.flatnonzero(cross[:, j]).tolist())
            k = int(np.searchsorted(ts, t_hit))
            y_hit = _poly_states(c, t_hit - t0)
            ts = np.append(ts[:k], t_hit)
            ys = np.vstack((ys[:k], y_hit))
            drift = np.append(drift[:k], self.values(t_hit, y_hit)[1])
        return ts, ys, _check_drift(ts, ys, drift, t, y), V[:, -1], hit

    def _row(self, i: int, c: np.ndarray, t0: float) -> Callable:
        """Row i of the values as a function of t on the step polynomial c
        about t0."""
        if i < len(self.events):
            fn = self.events[i].fn_vec
            return lambda t: float(fn(t, _poly_states(c, t - t0)))
        return lambda t: float(self.values(t, _poly_states(c, t - t0))[0][i])


@dataclass(frozen=True)
class StepPolynomials:
    """Dense output: step i has the Taylor polynomial with coefficient rows
    coeffs[i] about starts[i] and runs to the next start (the last to the
    trajectory's end); calling it evaluates the step containing t (the later
    one at a shared end). Step 0 may be a singular orbit's series, about 0,
    begun at the handoff t*. The last step's polynomial holds the run's
    tolerance up to reach: its planned end, past any event, or the horizon."""

    starts: np.ndarray
    coeffs: tuple[np.ndarray, ...] = field(repr=False)
    reach: float

    def __call__(self, t: float) -> np.ndarray:
        i = max(0, int(np.searchsorted(self.starts, t, side="right")) - 1)
        return _poly_states(self.coeffs[i], t - self.starts[i])


@dataclass(frozen=True)
class Trajectory:
    """Result of one integration: strictly increasing nodes (step ends and
    STEP_SAMPLES interior points per step), the step polynomials as dense
    output, constraint drift per node, the termination reason and the name
    of the event or guard whose crossing is the last node (None at horizon)."""

    times: np.ndarray
    states: np.ndarray                  # shape (n, 7)
    dense: StepPolynomials = field(repr=False)
    termination: str                    # 'event' | 'singularity' | 'horizon'
    drift: np.ndarray                   # relative max|I_i| per node
    stopped_by: str | None

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def state_at(self, t: float) -> State:
        if not self.t_start <= t <= self.t_end:
            raise ValueError(f"t = {t} outside trajectory span "
                             f"[{self.t_start}, {self.t_end}]")
        return State.from_vec(t, self.dense(t))

    def node_states(self) -> list[State]:
        return [State.from_vec(t, y) for t, y in zip(self.times, self.states)]


def _check_drift(ts: np.ndarray, ys: np.ndarray, drift: np.ndarray,
                 t_prev: float, y_prev: np.ndarray) -> np.ndarray:
    """drift at the nodes ts (states ys, shape (m, 7)). Raises
    ConstraintDriftError at the first node above DRIFT_ABORT, with the node
    before it (t_prev, y_prev for the first) as the last good state."""
    bad = np.flatnonzero(drift > DRIFT_ABORT)
    if bad.size:
        k = int(bad[0])
        t_good, y_good = (ts[k - 1], ys[k - 1]) if k else (t_prev, y_prev)
        raise ConstraintDriftError(
            f"relative first-integral drift {drift[k]:.3e} > {DRIFT_ABORT} "
            f"at t = {ts[k]}", t_bad=float(ts[k]),
            last_state=State.from_vec(t_good, y_good))
    return drift


def _root(g: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of g on [lo, hi]: brentq, then bisection of the few-ulp bracket
    it leaves down to adjacent floats, keeping the one with the smaller |g|.
    If rounding undoes the bracket the node scan saw, the root is taken at
    hi, the node where the scan saw the sign change."""
    g_lo, g_hi = g(lo), g(hi)
    if g_lo * g_hi > 0.0:
        return hi
    t = brentq(g, lo, hi, xtol=_EPS, rtol=4 * _EPS)
    width = 2 * _EPS + 8 * _EPS * abs(t)
    a, b = max(lo, t - width), min(hi, t + width)
    g_a, g_b = g(a), g(b)
    if g_a * g_b > 0.0:
        return t
    while g_a != 0.0 and g_b != 0.0 and a < 0.5 * (a + b) < b:
        m = 0.5 * (a + b)
        g_m = g(m)
        if (g_m < 0.0) == (g_a < 0.0):
            a, g_a = m, g_m
        else:
            b, g_b = m, g_m
    return a if abs(g_a) <= abs(g_b) else b


def integrate(start: State, horizon: float,
              events: Sequence[EventSpec] = (),
              rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
              allow_unoriented: bool = False,
              series: np.ndarray | None = None) -> Trajectory:
    """Integrate forward from start.t to horizon by Taylor steps.

    The first event ends the run: the earliest crossing of any of events or
    of the singularity guard (|lambda| < 1e-8, mu^2 < 1e-12 or a component
    above 1e8 in magnitude) is the last node; without one the run ends at
    the horizon (dense.reach is where the last step was planned to end).
    Raises InvalidArgumentError unless start.t < horizon < inf and rtol,
    atol are positive and finite; a step below 16 eps max(1, |t|) raises
    StepSizeCollapseError. allow_unoriented skips the lambda > 0 /
    orientation precondition (symmetry-image runs; mu^2 > 0 is required).

    series, Taylor rows in t about t = 0 of the solution through start
    (SeriesSolution.t_coeffs), is the first step's polynomial, expanded
    about 0, up to where _step_size says it reaches; if that is less than
    the step floor past start.t, the run starts with a jet. It must match
    start to 1e-12 max(1, |y|) at start.t, else InvalidArgumentError.
    """
    if not start.t < horizon < math.inf:
        raise InvalidArgumentError(
            f"horizon {horizon} is not a finite time after start t = {start.t}")
    if not (0.0 < rtol < math.inf and 0.0 < atol < math.inf):
        raise InvalidArgumentError(f"tolerances must be positive and finite, "
                                   f"got rtol = {rtol}, atol = {atol}")
    order, tol = _order_and_tol(rtol, atol)
    if order < 2:
        raise InvalidArgumentError(
            f"rtol = {rtol}, atol = {atol} are too loose for a Taylor step "
            f"(jet order {order} < 2; min(rtol, atol) must be below 25.8)")
    if start.mu2 <= MU2_MIN:
        raise DegenerateStateError(f"start has mu^2 = {start.mu2}")
    if not allow_unoriented:
        if start.lam <= LAMBDA_MIN:
            raise DegenerateStateError(f"start has lambda = {start.lam}")
        if start.orient <= 0.0:
            raise DegenerateStateError(
                f"start violates orientation: u1 v2 - u2 v1 = {start.orient}")

    if series is not None:
        gap = np.max(np.abs(_poly_states(series, start.t) - start.vec))
        if not gap <= 1e-12 * max(1.0, np.max(np.abs(start.vec))):
            raise InvalidArgumentError(f"series misses start by {gap:.3e}")
    nodes = _NodePass(events, 1.0 if start.lam >= 0.0 else -1.0)

    t, y = start.t, start.vec
    g, drift = nodes.values(t, y)
    times, states = [np.array([t])], [y[None, :]]
    drifts = [_check_drift(times[0], states[0], np.array([drift]), t, y)]
    starts, coeffs = [], []
    termination = stopped_by = None
    while termination is None:
        floor = 16 * _EPS * max(1.0, abs(t))
        # step polynomial c about t0: the series if it reaches, else a jet
        h = math.nan if series is None else _step_size(series, tol) - t
        t0, c, series = 0.0, series, None
        if not h >= floor:
            # near a singularity the jet can overflow; that ends the run below
            with np.errstate(over="ignore", invalid="ignore"):
                c = _jet(y, order)
            t0, h = t, _step_size(c, tol)
        if not h >= floor:
            what = (f"step size {h:.3e} below {floor:.3e}"
                    if np.isfinite(c).all() else "Taylor jet overflowed")
            raise StepSizeCollapseError(f"{what} at t = {t}",
                                        State.from_vec(t, y))
        if t + h >= horizon - floor:
            h, termination = horizon - t, "horizon"
        reach = horizon if termination else t + h
        ts, ys, drift, g, hit = nodes.step(c, t0, t, y, g, h,
                                           horizon if termination else None)
        if hit is not None:
            termination = "event" if hit < len(events) else "singularity"
            stopped_by = nodes.names[hit]
        drifts.append(drift)
        starts.append(t0)
        coeffs.append(c)
        times.append(ts)
        states.append(ys)
        t, y = float(ts[-1]), ys[-1]

    return Trajectory(times=np.concatenate(times),
                      states=np.concatenate(states),
                      dense=StepPolynomials(np.array(starts), tuple(coeffs),
                                            reach),
                      termination=termination,
                      drift=np.concatenate(drifts), stopped_by=stopped_by)
