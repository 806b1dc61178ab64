"""Forward integration of the fundamental system by Taylor steps, with dense
output, event location and singularity detection.

The right-hand side state.rhs_vec is recorded once, at import, into the
relaxed-arithmetic program of series._Program (Jorba & Zou, Exp. Math. 14,
2005), which gives the Taylor jet of the solution through any state: the
series engine of the singular orbits, run on the regular system. Each step
takes one jet of order N and advances by h = rho * tol^(1/N), with rho the
radius estimated from the last two jet coefficients; N and the step
tolerance follow from rtol and atol. Every step contributes its end and
STEP_SAMPLES interior points as nodes. Events and guards are sign changes of
their functions over a step's nodes, refined by brentq on the function of
the step polynomial's state, and the earliest ends the run; the dense output
is the step polynomials. First integrals are recorded at every node and a
relative drift above 1e-6 aborts the run; drift is monitored, not projected.
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
from .series import _Program
from .state import LAMBDA_MIN, MU2_MIN, State, rel_drift_vec, rhs_vec

DEFAULT_RTOL = 1e-12
DEFAULT_ATOL = 1e-12
DRIFT_ABORT = 1e-6
COMPONENT_MAGNITUDE_MAX = 1e8
STEP_SAMPLES = 7            # interior nodes per step
_FRAC = np.arange(1, STEP_SAMPLES + 2) / (STEP_SAMPLES + 1)
_EPS = np.finfo(float).eps

#: rhs_vec recorded once; component i of the right-hand side is row _OUT[i]
#: of the table, with unit coefficient and no constant
_PROGRAM = _Program(7, lambda y, t: (rhs_vec(t, y),))
(_F, _F_CONST), = _PROGRAM.outputs
_OUT = _F.argmax(axis=1).tolist()
if not np.array_equal(_F, np.eye(_F.shape[1])[_OUT]) or _F_CONST.any():
    raise ImportError("rhs_vec's outputs are not single recorded rows")


def _jet(y: np.ndarray, order: int) -> np.ndarray:
    """Taylor coefficients c[k], k = 0..order, of the solution through y:
    row k of the (order + 1, 7) result is y^(k)(t0) / k!. (+ 0.0 turns -0.0
    into +0.0, as a product with the output matrix would.)"""
    C = _PROGRAM.table(order)
    C[:7, 0] = y
    c0 = col = C[:, 0].tolist()
    _PROGRAM._first(col)
    for k in range(1, order + 1):
        col = [col[r] / k + 0.0 for r in _OUT] + C[7:, k].tolist()
        if k < order:
            mid = np.add.reduce(C[_PROGRAM._p, 1:k]
                                * C[_PROGRAM._q, k - 1:0:-1], axis=1)
            _PROGRAM._next(col, c0, mid.tolist())
        C[:, k] = col
    return C[:7].T


def _poly_states(c: np.ndarray, tau):
    """Step polynomial with coefficient rows c at offset tau: a 7-vector for
    a scalar tau, a (len(tau), 7) array for an array."""
    return np.power.outer(tau, np.arange(len(c), dtype=float)) @ c


def _order_and_tol(rtol: float, atol: float) -> tuple[int, float]:
    """Jet order N and per-step tolerance: 1e-2 min(rtol, atol), with N
    growing by 1.7 per decade of it (24 at the defaults)."""
    tol = max(1e-2 * min(rtol, atol), _EPS)
    return math.ceil(-1.7 * math.log10(tol)), tol


def _step_size(c: np.ndarray, tol: float) -> float:
    """Jorba-Zou step h = rho * tol^(1/N) for a jet c of order N, with
    rho = min over k in {N-1, N} of (max|c_k| / s)^(-1/k) and s =
    max(1, max|y|): then max|c_N| h^N <= tol s and
    max|c_(N-1)| h^(N-1) <= tol^((N-1)/N) s. NaN or 0 on an overflowed jet."""
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


def _guards(lam_sign: float) -> list[EventSpec]:
    """The singularity guard's events; the lambda one is signed by lam_sign,
    the sign of lambda at the start, so its crossing is a sign change."""
    return [
        EventSpec("guard-lambda", lambda t, y: lam_sign * y[0] - LAMBDA_MIN,
                  direction=-1),
        EventSpec("guard-mu2", lambda t, y: (-y[1] * y[1] + y[2] * y[2]
                                             + y[3] * y[3]) - MU2_MIN,
                  direction=-1),
        EventSpec("guard-magnitude", lambda t, y: COMPONENT_MAGNITUDE_MAX
                  - np.max(np.abs(y), axis=0), direction=-1),
    ]


@dataclass(frozen=True)
class StepPolynomials:
    """Dense output: step i starts at starts[i] and runs to the next start
    (the last to the trajectory's end) with the Taylor polynomial whose
    coefficient rows are coeffs[i]; calling it evaluates the step
    containing t (the later one at a shared end). The last step's polynomial
    holds the run's tolerance up to reach, where that step was planned to
    end: its start plus its jet's step size, past any event, or the horizon."""

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


def _first_crossing(specs: Sequence[EventSpec], direction: np.ndarray,
                    vals: np.ndarray, c: np.ndarray, t0: float, t_first: float,
                    ts: np.ndarray) -> tuple[float, int] | None:
    """(t, i): the earliest crossing, of specs[i], given their values vals at
    the nodes [t_first, *ts] of the step polynomial c from t0; None without
    one. Row i crosses where it changes sign in the direction direction[i]
    allows (0 any, +1 rising, -1 falling), a zero counting for the interval
    it ends; the crossings in the earliest such interval are refined."""
    a, b = vals[:, :-1], vals[:, 1:]
    rising = (a < 0.0) & (b >= 0.0) & (direction[:, None] >= 0)
    falling = (a > 0.0) & (b <= 0.0) & (direction[:, None] <= 0)
    found = np.argwhere(rising | falling)
    if not found.size:
        return None
    j = found[:, 1].min()
    lo, hi = [t_first, *ts.tolist()][j:j + 2]
    return min((_root(specs[i], c, t0, lo, hi), i)
               for i in found[found[:, 1] == j, 0].tolist())


def _root(spec: EventSpec, c: np.ndarray, t0: float, lo: float,
          hi: float) -> float:
    """Root of spec on [lo, hi], evaluated on the step polynomial's state:
    brentq, then bisection of the few-ulp bracket it leaves down to
    adjacent floats, keeping the one with the smaller |g|. If rounding
    undoes the bracket the node scan saw, the root is taken at hi, the node
    where the scan saw the sign change."""
    def g(t):
        return float(spec.fn_vec(t, _poly_states(c, t - t0)))
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


def _node_drift(ts: np.ndarray, ys: np.ndarray, t_prev: float,
                y_prev: np.ndarray) -> np.ndarray:
    """Relative first-integral drift at the nodes ts (states ys, shape
    (m, 7)). Raises ConstraintDriftError at the first node above
    DRIFT_ABORT, with the node before it (t_prev, y_prev for the first) as
    the last good state."""
    drift = rel_drift_vec(ys.T)
    bad = np.flatnonzero(drift > DRIFT_ABORT)
    if bad.size:
        k = int(bad[0])
        t_good, y_good = (ts[k - 1], ys[k - 1]) if k else (t_prev, y_prev)
        raise ConstraintDriftError(
            f"relative first-integral drift {drift[k]:.3e} > {DRIFT_ABORT} "
            f"at t = {ts[k]}", t_bad=float(ts[k]),
            last_state=State.from_vec(t_good, y_good))
    return drift


def integrate(start: State, horizon: float,
              events: Sequence[EventSpec] = (),
              rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
              allow_unoriented: bool = False) -> Trajectory:
    """Integrate forward from start.t to horizon by Taylor steps.

    The first event ends the run: the earliest crossing of any of events or
    of the singularity guard (|lambda| < 1e-8, mu^2 < 1e-12 or a component
    above 1e8 in magnitude) is the last node; without one the run ends at
    the horizon (dense.reach is where the last step was planned to end).
    Raises InvalidArgumentError unless start.t < horizon < inf and rtol,
    atol are positive and finite; a step below 16 eps max(1, |t|) raises
    StepSizeCollapseError. allow_unoriented skips the lambda > 0 /
    orientation precondition (symmetry-image runs; mu^2 > 0 is required).
    """
    if not start.t < horizon < math.inf:
        raise InvalidArgumentError(
            f"horizon {horizon} is not a finite time after start t = {start.t}")
    if not (0.0 < rtol < math.inf and 0.0 < atol < math.inf):
        raise InvalidArgumentError(f"tolerances must be positive and finite, "
                                   f"got rtol = {rtol}, atol = {atol}")
    if start.mu2 <= MU2_MIN:
        raise DegenerateStateError(f"start has mu^2 = {start.mu2}")
    if not allow_unoriented:
        if start.lam <= LAMBDA_MIN:
            raise DegenerateStateError(f"start has lambda = {start.lam}")
        if start.orient <= 0.0:
            raise DegenerateStateError(
                f"start violates orientation: u1 v2 - u2 v1 = {start.orient}")

    specs = [*events, *_guards(1.0 if start.lam >= 0.0 else -1.0)]
    direction = np.array([spec.direction for spec in specs])
    order, tol = _order_and_tol(rtol, atol)

    t, y = start.t, start.vec
    times, states = [np.array([t])], [y[None, :]]
    drifts = [_node_drift(times[0], states[0], t, y)]
    starts, coeffs = [], []
    g_prev = [spec(t, y) for spec in specs]
    termination = stopped_by = None
    while termination is None:
        # near a singularity the jet can overflow; that ends the run below
        with np.errstate(over="ignore", invalid="ignore"):
            c = _jet(y, order)
        h = _step_size(c, tol)
        floor = 16 * _EPS * max(1.0, abs(t))
        if not h >= floor:
            what = (f"step size {h:.3e} below {floor:.3e}"
                    if np.isfinite(c).all() else "Taylor jet overflowed")
            raise StepSizeCollapseError(f"{what} at t = {t}",
                                        State.from_vec(t, y))
        if t + h >= horizon - floor:
            h, termination = horizon - t, "horizon"
        ts = t + h * _FRAC
        if termination:
            ts[-1] = horizon
        reach = float(ts[-1])
        ys = _poly_states(c, ts - t)

        # the earliest crossing of an event or guard ends the run
        vals = np.column_stack((g_prev, [spec(ts, ys.T) for spec in specs]))
        g_prev = vals[:, -1]
        hit = _first_crossing(specs, direction, vals, c, t, t, ts)
        if hit:
            t_root, i = hit
            end = int(np.searchsorted(ts, t_root))
            ts = np.append(ts[:end], t_root)
            ys = np.vstack((ys[:end], _poly_states(c, t_root - t)))
            termination = "event" if i < len(events) else "singularity"
            stopped_by = specs[i].name

        drifts.append(_node_drift(ts, ys, t, y))
        starts.append(t)
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
