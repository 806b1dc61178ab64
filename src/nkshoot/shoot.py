"""End-to-end family solves: series handoff, integration to the
maximal-volume event, curve tracing, and the doubling/matching root solves
that produce complete solutions.

A family member is solved from its singular-orbit series in t, whose rows
give the state up to the handoff time t* and the integrator's first step,
which runs until the maximal-volume event 2 lambda^4 u1 = 3 u2 v2 fires;
the event state is recorded with its wedge and hyperboloid projections.
Complete solutions arise from

  doubling: a parameter where v0(T) = 0 (wedge boundary mu = lambda) or
            u0(T) = 0 (boundary lambda = 1), glued to itself;
  matching: a pair (a, b) where the alpha curve meets a reflected beta curve
            in the hyperboloid chart, glued across the common orbit.

The gluing word (which of the two time-reversing sign tables identifies the
right half with the left at the junction) is selected by testing both.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import (BoundaryAmbiguousError, EventNotFoundError,
                     InvalidArgumentError, JunctionMismatchError, NKError,
                     NoCrossingError, NoSignChangeError, RefinementStallError)
from .geometry import MaxOrbitRecord, sign_changes
from .integrate import (DEFAULT_TOL, MAX_VOLUME_EVENT, Trajectory,
                        bracketed_root, integrate)
from .series import (DEFAULT_ORDER, SeriesSolution, _poly_states,
                     family_series, handoff, poly_integral, volume_coeffs)
from .state import (GLUE_MINUS, GLUE_PLUS, State, Symmetry, complex_step,
                    rhs_vec, transform_derivative)

S6_STD_TOTAL_VOLUME = 9.0 / 5.0     # normalization for the vol column
# At the events located over alpha in [0.1, 10] and beta in [0.05, 2],
# |g / g'| is round-off, <= 1.1e-16 (0.05 before T it is 0.05), and the
# scale-free slope of _confirm_unique_maximum lies in [-12.8, -2.5] (<= -5/2
# at every zero of g on the admissible shell); both bounds sit far inside.
# The cosine of grad g and the flow falls to -0.025 at alpha = 10, too near
# 0 to bound.
EVENT_ROOT_TIME = 1e-9              # bound on |g / g'|
EVENT_SLOPE_MAX = -0.5              # bound on the scale-free slope
JUNCTION_TOL = 1e-7
MATCH_RESIDUAL = 1e-9
MATCH_STEP_TOL = math.sqrt(np.finfo(float).eps)   # relative to (a, b)
MATCH_MAX_STEPS = 20                # quasi-Newton steps per matching solve
ROOT_XTOL = 1e-14
CURVE_SPACING_CAP = 0.2             # max hyperboloid gap between samples
CURVE_MAX_POINTS = 120
_REFLECTIONS = {"w1": (-1.0, 1.0), "w2": (1.0, -1.0), "none": (1.0, 1.0)}


@dataclass(frozen=True)
class FamilySolve:
    """One half of a complete solution: the series, its handoff, the
    trajectory up to the maximal-volume event, the event record, and the
    volume integral over [0, T], computed on first read."""

    family: str
    param: float
    series: SeriesSolution
    t_star: float
    traj: Trajectory
    record: MaxOrbitRecord

    @cached_property
    def vol_integral(self) -> float:
        """Integral of V = lambda mu^2: series t-rows to t*, steps to T."""
        rows, t_star = self.series.t_coeffs, self.t_star
        return (poly_integral(volume_coeffs(*rows.T[:4]), 0.0, t_star)
                + _ode_volume_integral(self.traj))

    def state_at(self, t: float) -> State:
        """Profile on [0, T]: the series' t-rows up to the handoff t*, dense
        output above."""
        if not 0.0 <= t <= self.record.T:
            raise ValueError(f"t = {t} outside [0, {self.record.T}]")
        if t <= self.t_star:
            return State.from_vec(t, _poly_states(self.series.t_coeffs, t))
        return self.traj.state_at(t)


def solve_family(family: str, param: float, order: int = DEFAULT_ORDER,
                 rtol: float = DEFAULT_TOL,
                 atol: float = DEFAULT_TOL) -> FamilySolve:
    """Series handoff, integrate to the maximal-volume event, build the
    record, and check that the event is a transversal falling zero of g,
    which on shell makes it the member's unique maximum."""
    sol = family_series(family, param, order)
    t_star, start = handoff(sol)
    traj = integrate(start, math.pi, events=(MAX_VOLUME_EVENT,),
                     tol=float(np.minimum(rtol, atol)), series=sol.t_coeffs)
    if traj.stopped_by != MAX_VOLUME_EVENT.name:
        raise EventNotFoundError(
            f"no maximal-volume event for {family}({param}); "
            f"termination = {traj.termination}")
    T = traj.times[-1]
    event_state = State.from_vec(T, traj.states[-1])
    record = MaxOrbitRecord.from_state(family, param, T, event_state)
    _confirm_unique_maximum(traj)
    return FamilySolve(family=family, param=param, series=sol, t_star=t_star,
                       traj=traj, record=record)


def _ode_volume_integral(traj: Trajectory) -> float:
    """Integral of V = lambda mu^2 over the trajectory's span: the sum over
    steps of the exact integral of each step's V polynomial, from the later
    of its start and the trajectory's (a series step begins at t*)."""
    total = 0.0
    for t0, t1, c in zip(traj.starts, [*traj.starts[1:], traj.t_end],
                         traj.coeffs):
        total += poly_integral(volume_coeffs(*c.T[:4]),
                               max(traj.t_start, t0) - t0, t1 - t0)
    return total


def _confirm_unique_maximum(traj: Trajectory) -> None:
    """Every critical point of V is a strict maximum (on shell g = lambda^2
    V'), so the event ending traj must be a transversal falling zero of g:
    raise EventNotFoundError unless |g / g'| < EVENT_ROOT_TIME and g' mu^2 /
    (lambda^3 (mu^4 + lambda^2 (mu^2 + u1^2))) < EVENT_SLOPE_MAX, with g' by
    a complex step along the flow. On the admissible shell that slope is at
    most -5/2 at every zero of g (tests/test_shoot.py proves it), so g never
    rises through zero and the first falling zero is the only one: no later
    critical point is sought."""
    T, y = float(traj.times[-1]), traj.states[-1]
    lam, u1, mu2 = y[0], y[2], State.from_vec(T, y).mu2
    g = MAX_VOLUME_EVENT.fn_vec(T, y)
    dg = complex_step(lambda z: MAX_VOLUME_EVENT.fn_vec(T, z), y,
                      rhs_vec(T, y))
    slope = dg * mu2 / (lam ** 3 * (mu2 ** 2 + lam ** 2 * (mu2 + u1 ** 2)))
    if not (slope < EVENT_SLOPE_MAX and abs(g) < EVENT_ROOT_TIME * abs(dg)):
        raise EventNotFoundError(
            f"the event at t = {T} is not a transversal falling zero of g: "
            f"g = {g:.3e}, g' = {dg:.3e}, scale-free slope {slope:.3e}")


def max_orbit(family: str, param: float, order: int = DEFAULT_ORDER,
              tol: float = DEFAULT_TOL) -> MaxOrbitRecord:
    """Maximal-volume orbit record of one family member."""
    return solve_family(family, param, order, tol, tol).record


def _solve_table(order: int, tol: float):
    """Memoised solve(family, param) for one root search, which revisits
    points (bracketed_root its bracket ends, the matching solve its last
    iterate) and returns a point it has evaluated; filled through the
    module-global solve_family with float(param)."""
    return cache(lambda family, param: solve_family(
        family, float(param), order, tol, tol))


# ---------------------------------------------------------------------------
# curves

@dataclass(frozen=True)
class Curve:
    """Parameter-ordered maximal-volume records of one family."""

    family: str
    params: np.ndarray
    records: tuple[MaxOrbitRecord, ...]

    @property
    def h_points(self) -> np.ndarray:
        return np.array([r.h_point for r in self.records])


def _grid(param_lo: float, param_hi: float, n_samples: int) -> np.ndarray:
    """Log-spaced parameters; a polyline or a sign survey needs two."""
    if not 0.0 < param_lo < param_hi < math.inf:
        raise InvalidArgumentError("need 0 < param_lo < param_hi < inf")
    if n_samples < 2:
        raise InvalidArgumentError(f"need 2 or more samples, got {n_samples}")
    return np.geomspace(param_lo, param_hi, n_samples)


def _curve_points(family, param_lo, param_hi, n_samples, order, tol):
    """Yield trace_curve's samples as (param, record) once each is final."""
    orbit = cache(lambda p: max_orbit(family, p, order, tol))
    params = list(_grid(param_lo, param_hi, n_samples))
    yield params[0], orbit(params[0])
    i = 0
    while i < len(params) - 1:
        p0, p1 = params[i], params[i + 1]
        gap = np.hypot(*np.subtract(orbit(p1).h_point, orbit(p0).h_point))
        if gap > CURVE_SPACING_CAP and len(params) < CURVE_MAX_POINTS:
            params.insert(i + 1, math.sqrt(p0 * p1))
        else:
            i += 1
            yield p1, orbit(p1)


def trace_curve(family: str, param_lo: float, param_hi: float,
                n_samples: int = 15, order: int = DEFAULT_ORDER,
                tol: float = DEFAULT_TOL) -> Curve:
    """Sample max_orbit on a log-spaced grid in parameter order, bisecting
    any gap wider than CURVE_SPACING_CAP in the chart, up to CURVE_MAX_POINTS
    samples. find_matching traces alpha only as far as w1 needs, so an alpha
    member past its crossing is never solved and beta's failure comes first."""
    params, records = zip(*_curve_points(family, param_lo, param_hi,
                                         n_samples, order, tol))
    return Curve(family=family, params=np.array(params), records=records)


# ---------------------------------------------------------------------------
# complete solutions

@dataclass(frozen=True)
class CompleteSolution:
    """A glued solution over [0, T_total] with its classification."""

    construction: str            # 'doubling' | 'matching'
    left: FamilySolve = field(repr=False)
    right: FamilySolve = field(repr=False)
    symmetry: Symmetry           # gluing symmetry of the right half
    manifold: str                # 'S6' | 'S3xS3' | 'CP3' | 'S2xS4'
    T_total: float
    Vmax: float
    vol: float
    junction_gap: float

    @property
    def param_left(self) -> float:
        return self.left.param

    @property
    def param_right(self) -> float:
        return self.right.param

    def profile(self, t: float) -> State:
        """Glued profile on [0, T_total]: left half, then transformed right."""
        if not 0.0 <= t <= self.T_total:
            raise ValueError(f"t = {t} outside [0, {self.T_total}]")
        if t <= self.left.record.T:
            return self.left.state_at(t)
        tau = min(self.T_total - t, self.right.record.T)
        st = self.right.state_at(tau)
        return State.from_vec(t, st.vec * np.asarray(self.symmetry.signs))

    def as_dict(self) -> dict:
        return {
            "type": self.construction,
            "family_left": self.left.family,
            "param_left": self.param_left,
            "family_right": self.right.family,
            "param_right": self.param_right,
            "symmetry": self.symmetry.label,
            "manifold": self.manifold,
            "T_total": self.T_total,
            "Vmax": self.Vmax,
            "vol": self.vol,
        }


def _classify(left: FamilySolve, right: FamilySolve, sym: Symmetry) -> str:
    fams = {left.family, right.family}
    if fams == {"alpha", "beta"}:
        return "S6"
    if fams == {"beta"}:
        return "S3xS3"
    # alpha-alpha: (5.17)-type word closes on two S^2 x S^4 halves,
    # (5.18)-type on CP^3
    return "S2xS4" if sym == GLUE_PLUS else "CP3"


def glue(left: FamilySolve, right: FamilySolve,
         construction: str = "matching") -> CompleteSolution:
    """Glue two family solves across their maximal-volume orbits.

    Requires the wedge points to agree within tolerance; the right half is
    time-reversed and sign-transformed, with the word chosen automatically
    by testing which transform matches the left state at the junction.
    """
    sl, sr = left.record.state, right.record.state
    scale = max(1.0, float(np.max(np.abs(sl.vec))))
    w_gap = max(abs(left.record.lam - right.record.lam),
                abs(left.record.mu - right.record.mu))
    if w_gap > JUNCTION_TOL * scale:
        raise JunctionMismatchError(
            f"wedge points differ by {w_gap:.3e}: "
            f"({left.record.lam}, {left.record.mu}) vs "
            f"({right.record.lam}, {right.record.mu})")
    gaps = {}
    for sym in (GLUE_PLUS, GLUE_MINUS):
        transformed = sr.vec * np.asarray(sym.signs, dtype=float)
        gaps[sym] = float(np.max(np.abs(sl.vec - transformed)))
    sym = min(gaps, key=gaps.get)
    gap = gaps[sym]
    if gap > JUNCTION_TOL * scale:
        raise JunctionMismatchError(
            f"junction mismatch: best word {sym.label} leaves gap {gap:.3e} "
            f"(plus: {gaps[GLUE_PLUS]:.3e}, minus: {gaps[GLUE_MINUS]:.3e})")
    manifold = _classify(left, right, sym)
    if manifold == "S2xS4":
        warnings.warn("constructed an S2xS4 doubling, which is conjectured "
                      "not to exist; inspect the root carefully",
                      stacklevel=2)
    vol = (left.vol_integral + right.vol_integral) / S6_STD_TOTAL_VOLUME
    return CompleteSolution(
        construction=construction, left=left, right=right, symmetry=sym,
        manifold=manifold, T_total=left.record.T + right.record.T,
        Vmax=0.5 * (left.record.Vmax + right.record.Vmax), vol=vol,
        junction_gap=gap)


def junction_derivative_gap(solution: CompleteSolution) -> float:
    """Residual of the glued profile's derivative across the junction: the
    transformed right derivative (time reversal included) must equal the
    left one."""
    sl = solution.left.record.state
    sr = solution.right.record.state
    dr = transform_derivative(solution.symmetry, rhs_vec(sr.t, sr.vec))
    return float(np.max(np.abs(rhs_vec(sl.t, sl.vec) - dr)))


# ---------------------------------------------------------------------------
# doubling roots

def find_doubling(family: str, bracket: tuple[float, float],
                  which: str = "v0", order: int = DEFAULT_ORDER,
                  rtol: float = DEFAULT_TOL,
                  atol: float = DEFAULT_TOL) -> CompleteSolution:
    """Locate a parameter where v0(T) (or u0(T)) vanishes and build the
    doubled solution. The parameter is bracketed_root's, to within
    ROOT_XTOL + 8.9e-16 |param|; the search solved there, so the doubled
    member comes from the memo."""
    if which not in ("v0", "u0"):
        raise InvalidArgumentError("which must be 'v0' or 'u0'")
    idx = 4 if which == "v0" else 1
    solve = _solve_table(order, float(np.minimum(rtol, atol)))

    def g(p: float) -> float:
        return solve(family, p).record.state.vec[idx]

    lo, hi = bracket
    g_lo, g_hi = g(lo), g(hi)
    if (g_lo > 0.0 and g_hi > 0.0) or (g_lo < 0.0 and g_hi < 0.0):
        raise NoSignChangeError(
            f"{which}(T) has no sign change on [{lo}, {hi}]: "
            f"({g_lo:.3e}, {g_hi:.3e})")
    param = bracketed_root(g, lo, hi, g_lo, g_hi, ROOT_XTOL, 8.9e-16)
    fs = solve(family, param)
    # the Sasaki-Einstein point (1, 1) is excluded
    if fs.record.on_boundary_mu_eq_lambda and fs.record.on_boundary_lambda_one:
        raise BoundaryAmbiguousError(
            f"doubling root at parameter {param} lands on the excluded "
            f"Sasaki-Einstein point (lambda, mu) = (1, 1)")
    return glue(fs, fs, construction="doubling")


# ---------------------------------------------------------------------------
# matching roots

def _segments_cross(p0, p1, q0, q1) -> tuple[bool, float, float]:
    """Proper segment intersection test; returns (crossing, s, u) with s, u
    the parameters along (p0, p1) and (q0, q1). The differences are scaled
    exactly, by a power of two, to a largest |component| in [0.5, 1), so a
    power-of-two scale of the points does not change the result."""
    d = np.subtract((p1, q1, q0), (p0, q0, p0)).ravel().tolist()
    scale = -math.frexp(max(map(abs, d)))[1]
    x1, y1, x2, y2, xr, yr = (math.ldexp(v, scale) for v in d)
    denom = x1 * y2 - y1 * x2
    if denom == 0.0:
        return False, 0.0, 0.0
    s = (xr * y2 - yr * x2) / denom
    u = (xr * y1 - yr * x1) / denom
    return (0.0 <= s <= 1.0) and (0.0 <= u <= 1.0), s, u


def _tangent(curve: Curve, pts: np.ndarray, i: int):
    """s -> (P(s), P(s) + P'(s)), P through pts at the up to four samples
    nearest segment (i, i + 1) and s the segment's fraction of log(param)."""
    lo, p = max(0, min(i - 1, len(pts) - 4)), curve.params
    x = np.log(p[lo:lo + 4] / p[i]) / math.log(p[i + 1] / p[i])
    c = np.polyfit(x, pts[lo:lo + 4], len(x) - 1)
    dc = c[:-1] * np.arange(len(x) - 1, 0, -1)[:, None]
    return lambda s: (np.polyval(c, s), np.polyval(c, s) + np.polyval(dc, s))


def matching_candidates(alpha: Curve, beta: Curve, reflection: str,
                        first: int = 0) -> list[tuple[float, float]]:
    """Seed pairs (a, b) for the polyline crossings of alpha_H, from its
    segment `first` on, with the reflected beta_H arc, in (alpha segment,
    beta segment) order: where the curves' local interpolants in log(param)
    cross inside both segments, at that crossing, else at the polyline's."""
    ah, bh = alpha.h_points, beta.h_points * _REFLECTIONS[reflection]
    seeds = []
    for i in range(first, len(ah) - 1):
        for j in range(len(bh) - 1):
            ok, s, u = _segments_cross(ah[i], ah[i + 1], bh[j], bh[j + 1])
            if ok:
                ta, tb = _tangent(alpha, ah, i), _tangent(beta, bh, j)
                x = np.array([s, u])
                with np.errstate(all="ignore"):
                    for _ in range(8):      # Newton: the tangents' crossing
                        x = x + _segments_cross(*ta(x[0]), *tb(x[1]))[1:]
                if np.all((0.0 <= x) & (x <= 1.0)):     # false where x is nan
                    s, u = x
                a = alpha.params[i] * (alpha.params[i + 1] / alpha.params[i]) ** s
                b = beta.params[j] * (beta.params[j + 1] / beta.params[j]) ** u
                seeds.append((float(a), float(b)))
    return seeds


def refine_matching(alpha: Curve, beta: Curve, seed: tuple[float, float],
                    reflection: str, order: int = DEFAULT_ORDER,
                    tol: float = DEFAULT_TOL) -> tuple[FamilySolve, FamilySolve]:
    """Solve the 2x2 root problem F(a, b) = alpha_H(a) - R(beta_H(b)) = 0
    from a seed between samples of the curves alpha and beta; returns the
    alpha and beta solves at the root.

    Column 1 of dF/d(a, b) depends on a alone and column 2 on b alone. Each
    column is the slope at the newest parameter of the parabola through its
    last three points: first the two curve samples either side of the seed,
    already solved, and the seed, with no forward difference; then the
    iterates. The solve ends at the first step whose components are all
    within MATCH_STEP_TOL * |(a, b)|.

    Raises RefinementStallError when an iterate leaves a, b > 0, is not
    finite or has a member whose solve fails (the NKError is its cause),
    when the 2x2 system is singular, when MATCH_MAX_STEPS steps do not
    converge, or when max|F| at the final point exceeds MATCH_RESIDUAL; a
    point that is not a root is never returned.
    """
    solve = _solve_table(order, tol)
    # F = P(a) + Q(b), with P = alpha_H and Q = -R(beta_H)
    signs = (np.ones(2), -np.asarray(_REFLECTIONS[reflection]))
    families = ("alpha", "beta")

    def stall(why: str) -> RefinementStallError:
        return RefinementStallError(
            f"matching refinement from seed {seed} with reflection "
            f"{reflection!r} {why}")

    def points(x: np.ndarray) -> list[np.ndarray]:
        if not np.all(np.isfinite(x)):
            raise stall(f"reached a non-finite iterate ({x[0]}, {x[1]})")
        if x[0] <= 0.0 or x[1] <= 0.0:
            raise stall(f"left the parameter domain at ({x[0]}, {x[1]})")
        try:
            return [sign * np.asarray(solve(fam, p).record.h_point)
                    for sign, fam, p in zip(signs, families, x)]
        except NKError as e:
            raise stall(f"could not solve a member at ({x[0]}, {x[1]}): "
                        f"{e}") from e

    def update(jac, cols, x, pts) -> None:
        """Append (x, pts) to the column histories. Each column is then the
        slope at the newest parameter of the parabola of P or Q through its
        last three parameters, or the chord where two coincide; a column
        whose parameter did not move keeps its slope."""
        for j, col in enumerate(cols):
            col.append((x[j], pts[j]))
            (x0, p0), (x1, p1), (x2, p2) = col[-3:]
            if x2 == x1:
                continue
            slope = (p2 - p1) / (x2 - x1)
            if x0 not in (x1, x2):
                chord = (p1 - p0) / (x1 - x0)
                slope += (slope - chord) * (x2 - x1) / (x2 - x0)
            jac[:, j] = slope

    def around(curve: Curve, p: float, sign) -> list:
        """(param, sign * h_point) of the samples either side of p, nearer
        first: a seed on a sample reads the other's chord."""
        i = np.clip(np.searchsorted(curve.params, p), 1, len(curve.params) - 1)
        ks = sorted((i - 1, i), key=lambda k: abs(curve.params[k] - p))
        return [(curve.params[k], sign * curve.h_points[k]) for k in ks]

    x = np.array(seed, dtype=float)
    pts = points(x)
    cols = [around(alpha, x[0], signs[0]), around(beta, x[1], signs[1])]
    jac = np.zeros((2, 2))
    update(jac, cols, x, pts)
    for _ in range(MATCH_MAX_STEPS):
        f = pts[0] + pts[1]
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        if det == 0.0 or not math.isfinite(det):
            raise stall(f"met a singular Jacobian (det = {det}) at "
                        f"({x[0]}, {x[1]})")
        step = np.array([jac[0, 1] * f[1] - jac[1, 1] * f[0],
                         jac[1, 0] * f[0] - jac[0, 0] * f[1]]) / det
        x = x + step
        pts = points(x)
        update(jac, cols, x, pts)
        if np.all(np.abs(step) <= MATCH_STEP_TOL * np.abs(x)):
            break
    else:
        raise stall(f"did not converge in {MATCH_MAX_STEPS} steps")
    dist = float(np.max(np.abs(pts[0] + pts[1])))
    if dist > MATCH_RESIDUAL:
        raise stall(f"stalled at residual {dist:.3e} at ({x[0]}, {x[1]})")
    return solve("alpha", x[0]), solve("beta", x[1])


def find_matching(alpha_range: tuple[float, float],
                  beta_range: tuple[float, float],
                  n_samples: int = 4, order: int = DEFAULT_ORDER,
                  rtol: float = DEFAULT_TOL, atol: float = DEFAULT_TOL,
                  curves: tuple[Curve, Curve] | None = None) -> CompleteSolution:
    """Find an alpha-beta crossing in the hyperboloid chart, with beta_H
    reflected in w1 and then in w2, and build the glued S6 solution. The
    n_samples log grid only seeds the traces; CURVE_SPACING_CAP places all
    the other samples. alpha is traced only as far as its first refinable w1
    crossing, so a failing alpha member past it is never solved, and beta,
    traced first, fails first; a w1 seed reads only the alpha samples traced
    up to it."""
    tol = float(np.minimum(rtol, atol))
    if curves is None:
        beta = trace_curve("beta", *beta_range, n_samples, order, tol)
        points = _curve_points("alpha", *alpha_range, n_samples, order, tol)
    else:
        points, beta = zip(curves[0].params, curves[0].records), curves[1]

    def pieces():
        params, records = [], []
        for param, record in points:
            params.append(param)
            records.append(record)
            yield "w1", Curve("alpha", np.array(params), tuple(records)), \
                max(len(params) - 2, 0)
        yield "w2", Curve("alpha", np.array(params), tuple(records)), 0

    stalls = []
    for refl, alpha, first in pieces():
        for seed in matching_candidates(alpha, beta, refl, first):
            try:
                fa, fb = refine_matching(alpha, beta, seed, refl, order, tol)
            except RefinementStallError as e:
                stalls.append(str(e))
                continue
            return glue(fa, fb, construction="matching")
    if stalls:
        raise RefinementStallError("; ".join(stalls))
    raise NoCrossingError(
        f"no crossing of alpha_H over {alpha_range} with reflected beta_H "
        f"over {beta_range} (reflections ('w1', 'w2'))")


# ---------------------------------------------------------------------------
# negative scan for the lambda = 1 boundary of the alpha family

def scan_s2s4_boundary(param_lo: float = 0.1, param_hi: float = 10.0,
                       n_samples: int = 40, order: int = DEFAULT_ORDER,
                       tol: float = DEFAULT_TOL) -> dict:
    """Sign survey of u0(T) over the alpha family: the record that nkshoot
    scan-s2s4 writes. A sign change would be an S2xS4 doubling root
    (conjectured not to exist), so each crossing bracket warns."""
    params = _grid(param_lo, param_hi, n_samples).tolist()
    recs = [max_orbit("alpha", p, order, tol) for p in params]
    u0 = [rec.state.u[0] for rec in recs]
    brackets = [[params[i], params[j]] for i, j in sign_changes(u0)]
    if brackets:
        warnings.warn(f"u0(T) sign change detected in brackets {brackets}: "
                      f"possible S2xS4 doubling root", stacklevel=2)
    return {"family": "alpha", "boundary": "lambda=1 (u0(T) = 0)",
            "params": params, "u0_at_event": u0,
            "vmax": [rec.Vmax for rec in recs],
            "crossing_brackets": brackets, "found_root": bool(brackets)}
