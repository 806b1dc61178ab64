"""Scalar geometric quantities of a state (orbital volume, mean curvature,
scalar curvature, traceless second-fundamental-form norm, the Lyapunov
functional) plus the wedge/hyperboloid projections of maximal-volume orbits,
zero counting and comparison bounds.

Conventions: V = lambda * mu^2 with the reference volume normalized to 1;
conversion to the matrix entries used by the curvature formulas is
x1 = u1/mu, y1 = mu/lambda, y2 = v2/(lambda mu), x2 = -lambda, and the
hyperboloid coordinates are the Minkowski cross product

    w0 = (u1 v2 - u2 v1)/V,  w1 = (u0 v2 - u2 v0)/V,  w2 = (u1 v0 - u0 v1)/V,

normalized so w0^2 - w1^2 - w2^2 = 1 with w0 > 0 on constraint-satisfying
states.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BoundViolationError, DegenerateStateError
from .integrate import MAX_VOLUME_EVENT, Trajectory, _root
from .state import LAMBDA_MIN, MU2_MIN, State

BOUNDARY_TOL = 1e-7       # on-boundary classification, after normalizing by mu
COMPARISON_TOL = 1e-8     # relative slack allowed in the comparison bounds


def _require_admissible(s: State) -> None:
    if s.lam <= LAMBDA_MIN or s.mu2 <= MU2_MIN:
        raise DegenerateStateError(
            f"degenerate state at t = {s.t}: lambda = {s.lam}, mu^2 = {s.mu2}")


def volume_and_mean_curvature(s: State) -> tuple[float, float]:
    """(V, l) with l = V'/V computed from the evolution equations."""
    _require_admissible(s)
    lam = s.lam
    mu2 = s.mu2
    u1, u2 = s.u[1], s.u[2]
    v2 = s.v[2]
    V = lam * mu2
    l = 4 * lam * u1 / mu2 - (2 * lam ** 4 * u1 + 3 * u2 * v2) / (lam ** 3 * mu2)
    return V, l


def project_H(s: State) -> tuple[float, float, float]:
    """Hyperboloid coordinates (w0, w1, w2); requires V > 0."""
    _require_admissible(s)
    V = s.volume
    u0, u1, u2 = s.u
    v0, v1, v2 = s.v
    return ((u1 * v2 - u2 * v1) / V,
            (u0 * v2 - u2 * v0) / V,
            (u1 * v0 - u0 * v1) / V)


def _curvature_terms(s: State) -> tuple[float, ...]:
    """(lambda, mu, mu^2, x1, y2, w1, w2) of an admissible state."""
    _require_admissible(s)
    lam = s.lam
    mu = s.mu
    mu2 = s.mu2
    x1 = s.u[1] / mu
    y2 = s.v[2] / (lam * mu)
    _, w1, w2 = project_H(s)
    return lam, mu, mu2, x1, y2, w1, w2


def scalar_curvature(s: State) -> float:
    """Scal = 20 - 4 l^2 x1^2/mu^2 + 24 x1 y2/mu - 4 l^2 w1^2/mu^2
    - 9 w2^2/l^2 (l = lambda here); assumes the constraints hold."""
    lam, mu, mu2, x1, y2, w1, w2 = _curvature_terms(s)
    return (20.0 - 4 * lam * lam * x1 * x1 / mu2 + 24 * x1 * y2 / mu
            - 4 * lam * lam * w1 * w1 / mu2 - 9 * w2 * w2 / (lam * lam))


def traceless_L_norm2(s: State) -> float:
    """|L_0|^2 = (36/5)(lambda x1/mu - y2/lambda)^2 + 4 lambda^2 w1^2/mu^2
    + 9 w2^2/lambda^2."""
    lam, mu, mu2, x1, y2, w1, w2 = _curvature_terms(s)
    return ((36.0 / 5.0) * (lam * x1 / mu - y2 / lam) ** 2
            + 4 * lam * lam * w1 * w1 / mu2 + 9 * w2 * w2 / (lam * lam))


@dataclass(frozen=True)
class BohmValue:
    """Scale-invariant Lyapunov data of a state.

    B is V^{2/5}(20 + l^2); B_alt is the defining form V^{2/5}(|L_0|^2+Scal).
    The two coincide on maximal-volume orbits (l = 0), which is where every
    acceptance-facing use evaluates them; off that locus they differ by the
    l^2-weight (see the (5.4b) closure identity).
    """

    B: float
    B_alt: float
    V: float
    l: float
    Ldot_norm2: float
    Scal: float


def bohm(s: State) -> BohmValue:
    V, l = volume_and_mean_curvature(s)
    scal = scalar_curvature(s)
    l0sq = traceless_L_norm2(s)
    w = V ** 0.4
    return BohmValue(B=w * (20.0 + l * l), B_alt=w * (l0sq + scal),
                     V=V, l=l, Ldot_norm2=l0sq, Scal=scal)


# ---------------------------------------------------------------------------
# maximal-volume orbit records

@dataclass(frozen=True)
class MaxOrbitRecord:
    """A located maximal-volume orbit: event time T, the state there, its
    wedge point (lambda, mu) and hyperboloid point (w0, w1, w2)."""

    family: str
    param: float
    T: float
    state: State
    lam: float
    mu: float
    w: tuple[float, float, float]
    Vmax: float
    B: float

    @classmethod
    def from_state(cls, family: str, param: float, T: float,
                   state: State) -> "MaxOrbitRecord":
        V, l = volume_and_mean_curvature(state)
        return cls(family=family, param=param, T=T, state=state,
                   lam=state.lam, mu=state.mu, w=project_H(state), Vmax=V,
                   B=V ** 0.4 * (20.0 + l * l))

    @property
    def h_point(self) -> tuple[float, float]:
        return (self.w[1], self.w[2])

    @property
    def on_boundary_mu_eq_lambda(self) -> bool:
        """v0(T) = 0 boundary (mu = lambda side of the wedge)."""
        return abs(self.state.v[0]) / self.mu < BOUNDARY_TOL

    @property
    def on_boundary_lambda_one(self) -> bool:
        """u0(T) = 0 boundary (lambda = 1 side of the wedge)."""
        return abs(self.state.u[0]) / self.mu < BOUNDARY_TOL


# ---------------------------------------------------------------------------
# zero counting

@dataclass(frozen=True)
class ZeroCount:
    """Sign-change count of v0 on the open interval (0, T)."""

    count: int
    zeros: tuple[float, ...]
    boundary_ambiguous: bool


def sign_changes(values) -> list[tuple[int, int]]:
    """Index pairs (i, j) of adjacent nonzero values of opposite signs,
    compared, not multiplied (a product of tiny values underflows), so a
    zero between them counts once, and a touch (+, 0, +) or a NaN not."""
    nz = [(i, x) for i, x in enumerate(values) if x != 0.0]
    return [(i, j) for (i, a), (j, b) in zip(nz, nz[1:])
            if a < 0.0 < b or b < 0.0 < a]


def count_v0_zeros(traj: Trajectory) -> ZeroCount:
    """Count simple zeros of v0 strictly before the maximal-volume time T,
    the last node of a trajectory that the maximal-volume event stopped.

    Each sign change of v0 over the nodes (sign_changes, so a zero on a
    node counts once) is refined on the dense output as integrate refines
    events, so the nodes must bracket every sign change (zeros of v0 are
    non-degenerate away from the sine-cone locus). If |v0(T)|/mu(T) is
    below the boundary tolerance the count is flagged ambiguous.
    """
    if traj.stopped_by != MAX_VOLUME_EVENT.name:
        raise ValueError("trajectory not stopped by the maximal-volume event")
    T = traj.t_end
    end_state = State.from_vec(T, traj.states[-1])
    ambiguous = abs(end_state.v[0]) / end_state.mu < BOUNDARY_TOL

    zeros = []
    ts, v0 = traj.times, traj.states[:, 4]
    for i, j in sign_changes(v0):
        z = _root(lambda t: traj.dense(t)[4], ts[i], ts[j])
        if z < T:
            zeros.append(z)
    return ZeroCount(count=len(zeros), zeros=tuple(zeros),
                     boundary_ambiguous=ambiguous)


# ---------------------------------------------------------------------------
# comparison bounds

@dataclass(frozen=True)
class ComparisonReport:
    t0: float
    max_l_slack: float      # min over nodes of bound - l  (>= -COMPARISON_TOL)
    max_v_slack: float      # min over nodes of bound - V


def comparison_bounds(traj: Trajectory) -> ComparisonReport:
    """Check the mean-curvature and volume comparison bounds forward along a
    trajectory:

        l(t) <= 5 cot(t - t_start + t0),
        V(t) <= V(start) sin^5(t - t_start + t0) / sin^5(t0),

    with t0 = atan2(5, l(start)) in (0, pi), so l(start) = 5 cot(t0), and
    the existence bound t - t_start + t0 < pi. A violation beyond
    COMPARISON_TOL (relative) or a NaN node raises BoundViolationError.
    """
    states = [State.from_vec(t, y) for t, y in zip(traj.times, traj.states)]
    start = states[0]
    V0, l0 = volume_and_mean_curvature(start)
    t0 = math.atan2(5.0, l0)
    min_l_slack = math.inf
    min_v_slack = math.inf
    for st in states:
        rel = st.t - start.t
        if rel <= 0.0:
            continue
        arg = rel + t0
        if not arg < math.pi:
            raise BoundViolationError(
                f"existence bound violated: elapsed + t0 = {arg} >= pi")
        V, l = volume_and_mean_curvature(st)
        l_bound = 5.0 * math.cos(arg) / math.sin(arg)
        v_bound = V0 * math.sin(arg) ** 5 / math.sin(t0) ** 5
        l_slack = l_bound - l
        v_slack = v_bound - V
        if not l_slack >= -COMPARISON_TOL * max(1.0, abs(l_bound)):
            raise BoundViolationError(
                f"mean-curvature bound violated at t = {st.t}: "
                f"l = {l} > {l_bound}")
        if not v_slack >= -COMPARISON_TOL * max(1.0, v_bound):
            raise BoundViolationError(
                f"volume bound violated at t = {st.t}: V = {V} > {v_bound}")
        min_l_slack = min(min_l_slack, l_slack)
        min_v_slack = min(min_v_slack, v_slack)
    return ComparisonReport(t0=t0, max_l_slack=min_l_slack,
                            max_v_slack=min_v_slack)
