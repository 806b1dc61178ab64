"""Forward adaptive integration of the fundamental system with dense output,
event location and singularity detection.

Thin layer over scipy's DOP853 via solve_ivp: the right-hand side, the guard
events and all monitoring are ours; scipy supplies the embedded pair, its
dense interpolants and the bracketed event refinement. This module is the
only reader of scipy's event and interpolant objects: other modules see a
trajectory through its nodes, its event hits and Trajectory.state_at. First
integrals are recorded at every accepted node and a relative drift above
1e-6 aborts the run; drift is monitored, never projected out.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (ConstraintDriftError, DegenerateStateError,
                     InvalidArgumentError, StepSizeCollapseError)
from .state import (LAMBDA_MIN, MU2_MIN, State, constraints, rhs_vec)

DEFAULT_RTOL = 1e-12
DEFAULT_ATOL = 1e-12
DRIFT_ABORT = 1e-6
COMPONENT_MAGNITUDE_MAX = 1e8


@dataclass(frozen=True)
class EventSpec:
    """Scalar event function of (t, y7) with a direction filter; solve_ivp
    calls it and reads its terminal and direction fields."""

    name: str
    fn_vec: Callable[[float, np.ndarray], float]
    direction: int = 0          # 0 any, +1 rising, -1 falling
    terminal: bool = False

    def __call__(self, t: float, y: np.ndarray) -> float:
        return self.fn_vec(t, y)


def _volume_event_vec(t: float, y: np.ndarray) -> float:
    lam, u0, u1, u2, v0, v1, v2 = y
    return 2.0 * lam ** 4 * u1 - 3.0 * u2 * v2


#: The flagship event: the maximal-volume orbit, where 2 lambda^4 u1 = 3 u2 v2.
MAX_VOLUME_EVENT = EventSpec("max-volume", fn_vec=_volume_event_vec,
                             direction=0, terminal=True)


@dataclass(frozen=True)
class EventHit:
    name: str
    t: float
    state: State


@dataclass(frozen=True)
class Trajectory:
    """Result of one integration: strictly increasing nodes, per-step dense
    interpolants, the event log, constraint drift per node and the
    termination reason ('event' | 'singularity' | 'horizon')."""

    times: np.ndarray
    states: np.ndarray                  # shape (n, 7)
    dense: object = field(repr=False)   # scipy OdeSolution
    hits: tuple[EventHit, ...]
    termination: str
    drift: np.ndarray                   # relative max|I_i| per node

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

    def first_hit(self, name: str) -> EventHit | None:
        for h in self.hits:
            if h.name == name:
                return h
        return None

    def hits_named(self, name: str) -> list[EventHit]:
        return [h for h in self.hits if h.name == name]


def integrate(start: State, horizon: float,
              events: Sequence[EventSpec] = (),
              rtol: float = DEFAULT_RTOL, atol: float = DEFAULT_ATOL,
              allow_unoriented: bool = False) -> Trajectory:
    """Integrate forward from start.t to horizon with adaptive step control.

    Raises InvalidArgumentError unless start.t < horizon < inf. Terminal
    events stop the run; the singularity guard stops when |lambda| < 1e-8,
    mu^2 < 1e-12 or any component exceeds 1e8 in magnitude.
    allow_unoriented skips the lambda > 0 / orientation precondition (used
    for symmetry-image integrations; mu^2 > 0 is always required).
    """
    if not start.t < horizon < math.inf:
        raise InvalidArgumentError(
            f"horizon {horizon} is not a finite time after start t = {start.t}")
    if start.mu2 <= MU2_MIN:
        raise DegenerateStateError(f"start has mu^2 = {start.mu2}")
    if not allow_unoriented:
        if start.lam <= LAMBDA_MIN:
            raise DegenerateStateError(f"start has lambda = {start.lam}")
        if start.orient <= 0.0:
            raise DegenerateStateError(
                f"start violates orientation: u1 v2 - u2 v1 = {start.orient}")

    user_events = list(events)
    # the lambda guard is signed so that a transversal crossing of the
    # threshold is always a detectable sign change
    lam_sign = 1.0 if start.lam >= 0.0 else -1.0
    guards = [
        EventSpec("guard-lambda",
                  fn_vec=lambda t, y: lam_sign * y[0] - LAMBDA_MIN,
                  direction=-1, terminal=True),
        EventSpec("guard-mu2",
                  fn_vec=lambda t, y: (-y[1] * y[1] + y[2] * y[2]
                                       + y[3] * y[3]) - MU2_MIN,
                  direction=-1, terminal=True),
        EventSpec("guard-magnitude",
                  fn_vec=lambda t, y: COMPONENT_MAGNITUDE_MAX
                  - float(np.max(np.abs(y))),
                  direction=-1, terminal=True),
    ]
    all_events = user_events + guards
    sol = solve_ivp(rhs_vec, (start.t, horizon), start.vec, method="DOP853",
                    rtol=rtol, atol=atol, dense_output=True,
                    events=all_events)
    if sol.status == -1:
        last = State.from_vec(sol.t[-1], sol.y[:, -1]) if sol.t.size else start
        raise StepSizeCollapseError(
            f"integrator failed at t = {last.t}: {sol.message}", last)

    times = sol.t
    states = sol.y.T
    # first-integral drift at every node
    drift = np.empty(len(times))
    bad = None
    for i, (t, y) in enumerate(zip(times, states)):
        st = State.from_vec(t, y)
        drift[i] = constraints(st).rel_drift(st)
        if drift[i] > DRIFT_ABORT and bad is None:
            bad = i
    if bad is not None:
        good = State.from_vec(times[bad - 1], states[bad - 1]) if bad else start
        raise ConstraintDriftError(
            f"relative first-integral drift {drift[bad]:.3e} > {DRIFT_ABORT} "
            f"at t = {times[bad]}", t_bad=float(times[bad]), last_state=good)

    hits = []
    for spec, te, ye in zip(all_events, sol.t_events, sol.y_events):
        for t, y in zip(te, ye):
            hits.append(EventHit(spec.name, float(t), State.from_vec(t, y)))
    hits.sort(key=lambda h: h.t)

    if sol.status == 1:
        fired = {h.name for h in hits
                 if np.isclose(h.t, times[-1], rtol=0, atol=1e-12)}
        if fired & {"guard-lambda", "guard-mu2", "guard-magnitude"}:
            termination = "singularity"
        else:
            termination = "event"
    else:
        termination = "horizon"
    return Trajectory(times=times, states=states, dense=sol.sol,
                      hits=tuple(hits), termination=termination, drift=drift)
