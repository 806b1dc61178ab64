"""shooting: family solves, curve tracing, doubling and matching roots,
gluing, scans."""
import dataclasses
import importlib
import math
import re
import sys

import numpy as np
import pytest

from conftest import (SQRT2, SQRT3, float_bits, reference_poly_integral,
                      reference_trace_curve, validate_record)
from nkshoot import cli, series, shoot
from nkshoot.errors import (BoundaryAmbiguousError, DegenerateStateError,
                            EventNotFoundError, JunctionMismatchError,
                            NKError, NoCrossingError, NoSignChangeError,
                            RefinementStallError)
from nkshoot.exact import eval_named
from nkshoot.geometry import MaxOrbitRecord
from nkshoot.integrate import (MAX_VOLUME_EVENT, _order_and_tol,
                               _step_size, integrate)
from nkshoot.series import volume_coeffs
from nkshoot.shoot import (find_doubling, find_matching, glue,
                           junction_derivative_gap, matching_candidates,
                           max_orbit, refine_matching, scan_s2s4_boundary,
                           solve_family, trace_curve)
from nkshoot.state import (State, _first_integrals, apply_symmetry,
                           rhs_vec)

S6_VMAX = 81 * SQRT3 / (25 * math.sqrt(5))


def test_max_orbit_beta_unit(beta1_solve):
    rec = beta1_solve.record
    assert abs(rec.T - math.pi / (2 * SQRT3)) < 1e-8
    assert abs(rec.lam - 1.0) < 1e-8
    assert abs(rec.mu - 2 / SQRT3) < 1e-8
    assert abs(rec.w[1] - 1 / SQRT3) < 1e-8
    assert abs(rec.w[2]) < 1e-8


def test_max_orbit_alpha_sqrt3(alpha_sqrt3_solve):
    assert abs(alpha_sqrt3_solve.record.Vmax - S6_VMAX) < 1e-6


def test_max_orbit_alpha_cp3_boundary():
    rec = max_orbit("alpha", SQRT3 / 2)
    assert abs(rec.Vmax - 27 * SQRT2 / 32) < 1e-6
    assert abs(rec.state.v[0]) < 1e-7
    assert rec.on_boundary_mu_eq_lambda
    assert abs(rec.lam - rec.mu) < 1e-7


def test_trace_beta_through_homogeneous_point():
    curve = trace_curve("beta", 0.05, 1.5, n_samples=10)
    assert np.all(np.diff(curve.params) > 0)
    # approaches the origin of the chart as the parameter shrinks
    norms = np.hypot(curve.h_points[:, 0], curve.h_points[:, 1])
    assert norms[0] < 0.2
    assert norms[0] < norms[len(norms) // 2]
    for rec in curve.records:
        validate_record(rec)


def test_trace_alpha_vmax_landmarks():
    curve = trace_curve("alpha", 0.1, 3.0, n_samples=10)
    for rec in curve.records:
        validate_record(rec)
    # V_max at a = sqrt(3) matches the reference value
    rec = max_orbit("alpha", SQRT3)
    assert abs(rec.Vmax - S6_VMAX) < 1e-6


def test_alpha_vmax_unbounded_growth():
    params = np.geomspace(3.0, 12.0, 6)
    vmax = [max_orbit("alpha", float(p)).Vmax for p in params]
    assert all(b > a for a, b in zip(vmax, vmax[1:]))
    assert vmax[-1] > 50.0


def test_curves_do_not_self_intersect():
    for family, lo, hi in (("alpha", 0.15, 3.0), ("beta", 0.1, 1.5)):
        curve = trace_curve(family, lo, hi, n_samples=12)
        pts = curve.h_points
        from nkshoot.shoot import _segments_cross
        n = len(pts) - 1
        for i in range(n):
            for j in range(i + 2, n):
                ok, _, _ = _segments_cross(pts[i], pts[i + 1],
                                           pts[j], pts[j + 1])
                assert not ok, (family, i, j)


def test_beta_quadrant_sign_stability():
    # between consecutive axis crossings the chart coordinates keep a fixed
    # sign along the curve
    curve = trace_curve("beta", 0.05, 1.0, n_samples=14)
    w = curve.h_points
    for coord in (0, 1):
        signs = np.sign(w[:, coord])
        runs = [s for s in signs if abs(s) > 0]
        changes = sum(1 for a, b in zip(runs, runs[1:]) if a != b)
        assert changes <= 2, f"coordinate {coord} oscillates"


@pytest.mark.parametrize("family,lo,hi,n,cap", [
    ("beta", 0.05, 1.5, 10, None), ("alpha", 0.1, 3.0, 10, None),
    ("alpha", 0.15, 3.0, 12, None), ("beta", 0.1, 1.5, 12, None),
    ("beta", 0.05, 1.0, 14, None), ("alpha", 0.35, 2.2, 10, None),
    ("beta", 0.35, 1.6, 10, None), ("alpha", 0.1, 3.0, 10, 14),
], ids=["beta-0.05-1.5", "alpha-0.1-3.0", "alpha-0.15-3.0", "beta-0.1-1.5",
        "beta-0.05-1.0", "alpha-0.35-2.2", "beta-0.35-1.6", "alpha-capped"])
def test_trace_curve_equals_the_reference_trace(monkeypatch, family, lo, hi,
                                                n, cap):
    # sampling in parameter order, each member once its lower gap is final,
    # keeps the reference's samples: the same bisections (alpha over
    # (0.1, 3.0) bisects 11 gaps) and the same CURVE_MAX_POINTS count
    if cap is not None:
        monkeypatch.setattr(shoot, "CURVE_MAX_POINTS", cap)
    got = trace_curve(family, lo, hi, n_samples=n)
    ref = reference_trace_curve(family, lo, hi, n)
    assert float_bits(got.params) == float_bits(ref.params)
    assert float_bits(got.h_points.ravel()) == float_bits(ref.h_points.ravel())
    if (family, lo, n) == ("alpha", 0.1, 10):
        assert len(got.params) == (cap or 21)


def test_vmax_tends_to_one_for_small_parameters():
    for family in ("alpha", "beta"):
        vs = [max_orbit(family, p).Vmax for p in (0.2, 0.1, 0.05)]
        assert vs[0] > vs[1] > vs[2] > 1.0
        assert vs[2] < 1.01


def test_find_doubling_exotic():
    sol = find_doubling("beta", (0.2, 0.6), "v0")
    assert sol.manifold == "S3xS3"
    assert sol.construction == "doubling"
    assert abs(sol.param_left - 0.3736) < 0.002
    assert abs(sol.Vmax - 1.0041) < 0.001
    assert abs(sol.vol - 0.5929) < 0.001
    assert sol.junction_gap < 1e-8
    assert junction_derivative_gap(sol) < 1e-8
    # the v0-boundary doubling glues with the (5.18)-type word
    assert sol.word == "tau1.tau4"


def test_find_doubling_homogeneous_beta():
    sol = find_doubling("beta", (0.9, 1.1), "u0")
    assert abs(sol.param_left - 1.0) < 1e-6
    assert sol.manifold == "S3xS3"
    assert abs(sol.vol - 10 * math.pi / (27 * SQRT3)) < 1e-6
    assert abs(sol.T_total - math.pi / SQRT3) < 1e-7
    assert sol.word == "tau1.tau2.tau3"


def test_find_doubling_cp3():
    sol = find_doubling("alpha", (0.7, 1.0), "v0")
    assert abs(sol.param_left - SQRT3 / 2) < 1e-6
    assert sol.manifold == "CP3"
    assert abs(sol.vol - 5.0 / 8.0) < 1e-6
    assert sol.word == "tau1.tau4"


def test_find_doubling_no_sign_change():
    with pytest.raises(NoSignChangeError):
        find_doubling("beta", (1.2, 1.4), "v0")


def test_find_doubling_at_the_sasaki_einstein_point_raises(monkeypatch):
    # a root whose orbit lies on both wedge boundaries, mu = lambda and
    # lambda = 1, is the excluded point (1, 1), not a doubled structure
    for name in ("on_boundary_mu_eq_lambda", "on_boundary_lambda_one"):
        monkeypatch.setattr(MaxOrbitRecord, name, property(lambda rec: True))
    with pytest.raises(BoundaryAmbiguousError, match="Sasaki-Einstein"):
        find_doubling("beta", (0.9, 1.1), "u0")


def test_find_matching_without_a_crossing_raises():
    # these ranges hold no crossing of alpha_H with either reflection of
    # beta_H, so there is no seed to refine
    with pytest.raises(NoCrossingError, match="no crossing"):
        find_matching((0.35, 0.5), (1.5, 1.9), n_samples=6)


def count_solves(monkeypatch) -> list[tuple]:
    """(family, param) of every shoot.solve_family call from now on."""
    calls = []
    original = shoot.solve_family

    def counted(*args):
        calls.append(args[:2])
        return original(*args)

    monkeypatch.setattr(shoot, "solve_family", counted)
    return calls


def test_find_doubling_solves_each_member_once(monkeypatch):
    # bracketed_root takes the bracket ends' values from the search and
    # returns a point it has evaluated, so every family member is solved
    # once, the root included
    calls = count_solves(monkeypatch)
    sol = find_doubling("beta", (0.2, 0.6), "v0")
    assert abs(sol.param_left - 0.3736) < 0.002
    assert len(calls) == len(set(calls))


def test_homogeneous_doubling_recovers_closed_form():
    fs = solve_family("beta", 1.0)
    sol = glue(fs, fs, construction="doubling")
    assert abs(sol.T_total - math.pi / SQRT3) < 1e-8
    for t in np.linspace(0.02, sol.T_total - 0.02, 15):
        ref = eval_named("s3s3-homog", float(t))
        got = sol.profile(float(t))
        assert np.max(np.abs(got.vec - ref.vec)) < 1e-7


def test_glue_known_homogeneous_s6(alpha_sqrt3_solve):
    fb = solve_family("beta", 1.5)
    sol = glue(alpha_sqrt3_solve, fb)
    assert sol.manifold == "S6"
    assert abs(sol.vol - 1.0) < 1e-6
    assert abs(sol.T_total - math.pi / 2) < 1e-7
    assert sol.word == "tau1.tau2.tau3"


def test_glue_junction_mismatch():
    f1 = solve_family("beta", 0.9)
    f2 = solve_family("beta", 1.0)
    with pytest.raises(JunctionMismatchError):
        glue(f1, f2)


def test_matching_candidates_unreflected_none():
    # alpha and beta cannot intersect un-reflected for positive parameters
    alpha = trace_curve("alpha", 0.35, 2.2, n_samples=10)
    beta = trace_curve("beta", 0.35, 1.6, n_samples=10)
    assert matching_candidates(alpha, beta, "none") == []


def test_refine_matching_without_root_stalls(monkeypatch):
    # unreflected, the curves never cross, so the root solve must give up
    # with a typed error (its iterates head for a, b -> 0 until a member
    # solve degenerates) instead of leaking the series' ValueError or
    # returning a point that is not a root
    calls = count_solves(monkeypatch)
    with pytest.raises(NKError):
        refine_matching((0.56, 0.60), "none")
    assert len(calls) < 60


def test_refine_matching_solves_each_member_once(monkeypatch):
    # the finite-difference columns and each three-point column update
    # reuse the earlier iterates' solves; every family member is solved once
    calls = count_solves(monkeypatch)
    fa, fb = refine_matching((0.56, 0.60), "w1")
    assert abs(fa.param - 0.5646) < 0.003 and abs(fb.param - 0.5985) < 0.003
    assert len(calls) == len(set(calls))


def test_refine_matching_singular_jacobian_stalls(monkeypatch,
                                                  beta1_solve):
    # every member at the same chart point: both Jacobian columns vanish,
    # and the 2x2 solve must stall with the typed error, not a LinAlgError
    # or a NaN iterate
    monkeypatch.setattr(shoot, "solve_family", lambda *args: beta1_solve)
    with pytest.raises(RefinementStallError, match="singular"):
        refine_matching((0.56, 0.60), "w1")


def test_refine_matching_member_failure_stalls(monkeypatch):
    # a member solve that fails at an iterate ends this seed's refinement
    # with the typed stall, the solve's error kept as its cause
    def degenerate(*args):
        raise DegenerateStateError("start has mu^2 = 0")

    monkeypatch.setattr(shoot, "solve_family", degenerate)
    with pytest.raises(RefinementStallError, match="could not solve") as e:
        refine_matching((0.56, 0.60), "w1")
    assert isinstance(e.value.__cause__, DegenerateStateError)


def test_refine_matching_step_cap_stalls(monkeypatch):
    # a seed that converges in a few steps, allowed a single one
    monkeypatch.setattr(shoot, "MATCH_MAX_STEPS", 1)
    with pytest.raises(RefinementStallError, match="did not converge"):
        refine_matching((0.56, 0.60), "w1")


def test_find_matching_solves_each_member_once(monkeypatch):
    # the root pair refine_matching evaluated is glued, not solved again
    calls = count_solves(monkeypatch)
    sol = find_matching((1.2, 2.4), (1.05, 1.9), n_samples=8)
    assert abs(sol.param_left - SQRT3) < 1e-6
    assert len(calls) == len(set(calls))


def solution_bits(sol) -> list[str]:
    """The bits of a glued solution's table row, junction gap and two
    junction states."""
    row = sol.as_dict()
    return float_bits([row["param_left"], row["param_right"], row["T_total"],
                       row["Vmax"], row["vol"], sol.junction_gap,
                       *sol.left.record.state.vec,
                       *sol.right.record.state.vec])


@pytest.mark.parametrize("target", ["s6-exotic", "s6-homog"])
def test_lazy_matching_equals_the_matching_on_traced_curves(target):
    # tracing alpha one member at a time refines the same seeds in the same
    # order as the matching on fully traced curves
    alpha_range, beta_range = cli._TARGETS[target][2]
    curves = (trace_curve("alpha", *alpha_range, n_samples=12),
              trace_curve("beta", *beta_range, n_samples=12))
    lazy = find_matching(alpha_range, beta_range)
    traced = find_matching(alpha_range, beta_range, curves=curves)
    assert (lazy.manifold, lazy.word) == (traced.manifold, traced.word)
    assert solution_bits(lazy) == solution_bits(traced)


def test_lazy_matching_solves_alpha_up_to_its_crossing(monkeypatch):
    # the S6-new crossing lies in alpha segment 5 of 11: 7 of the 12 alpha
    # curve members are solved, all 12 of beta's
    alpha_range, beta_range = cli._TARGETS["s6-exotic"][2]
    calls = count_solves(monkeypatch)
    find_matching(alpha_range, beta_range)
    for family, (lo, hi), members in (("alpha", alpha_range, 7),
                                      ("beta", beta_range, 12)):
        grid = list(np.geomspace(lo, hi, 12))
        solved = [p for fam, p in calls if fam == family and p in grid]
        assert solved == grid[:members]


def fail_members(monkeypatch, fails) -> None:
    """shoot.solve_family raises EventNotFoundError where fails(family,
    param) holds."""
    original = shoot.solve_family

    def solve(family, param, *args):
        if fails(family, param):
            raise EventNotFoundError(f"injected at {family}({param})")
        return original(family, param, *args)

    monkeypatch.setattr(shoot, "solve_family", solve)


def test_alpha_failure_past_the_crossing_is_never_met(monkeypatch):
    # alpha members above 0.7 lie past the S6-new crossing, so their solve
    # is never tried
    alpha_range, beta_range = cli._TARGETS["s6-exotic"][2]
    want = solution_bits(find_matching(alpha_range, beta_range))
    fail_members(monkeypatch, lambda family, p: family == "alpha" and p > 0.7)
    sol = find_matching(alpha_range, beta_range)
    assert sol.manifold == "S6" and solution_bits(sol) == want


@pytest.mark.parametrize("fails,raised", [
    (lambda family, p: family == "alpha" and p < 0.5, "alpha"),
    (lambda family, p: p < 0.5, "beta"),
], ids=["alpha-below", "both"])
def test_member_failure_before_the_crossing_raises(monkeypatch, fails,
                                                   raised):
    # a failing alpha member below the crossing still ends the search; beta
    # is traced in full first, so when both curves fail, beta's error is
    # the one raised
    fail_members(monkeypatch, fails)
    with pytest.raises(EventNotFoundError, match=f"injected at {raised}"):
        find_matching(*cli._TARGETS["s6-exotic"][2])


def count_volume_quadratures(monkeypatch) -> list[tuple]:
    """The arguments of every shoot._ode_volume_integral call from now on."""
    calls = []
    original = shoot._ode_volume_integral

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(shoot, "_ode_volume_integral", counted)
    return calls


def test_volume_is_integrated_on_first_read(monkeypatch):
    # solve_family leaves the volume to its first read, which caches it;
    # a doubling reads its one member once, a matching each of its two
    calls = count_volume_quadratures(monkeypatch)
    fs = solve_family("beta", 0.599)
    assert calls == []
    vol = fs.vol_integral
    assert float_bits([fs.vol_integral]) == float_bits([vol])
    assert len(calls) == 1
    calls.clear()
    sol = find_doubling("beta", (0.9, 1.1), "u0")
    assert sol.left is sol.right and len(calls) == 1
    calls.clear()
    find_matching((1.2, 2.4), (1.05, 1.9), n_samples=8)
    assert len(calls) == 2


def eager_volume(fs) -> float:
    """The volume as solve_family integrated it for every member before it
    was computed on first read, with the numpy-scalar poly_integral: the
    series' t-rows over [0, t*] plus, step by step, each step's V
    polynomial over its part of [t*, T]."""
    T, steps = fs.traj.times[-1], fs.traj.dense
    ode = 0.0
    for t0, t1, c in zip(steps.starts, [*steps.starts[1:], fs.traj.t_end],
                         steps.coeffs):
        lo, hi = max(fs.t_star, t0), min(T, t1)
        if lo < hi:
            ode += reference_poly_integral(volume_coeffs(*c.T[:4]), lo - t0,
                                           hi - t0)
    return (reference_poly_integral(volume_coeffs(*fs.series.t_coeffs.T[:4]),
                                    0.0, fs.t_star) + ode)


def test_lazy_volume_equals_the_eager_expression():
    for family, lo, hi in (("alpha", 0.05, 10.0), ("beta", 0.02, 3.0)):
        for p in np.geomspace(lo, hi, 16):
            fs = solve_family(family, float(p))
            assert float_bits([fs.vol_integral]) == float_bits(
                [eager_volume(fs)])


def test_table2_volumes_agree_with_an_independent_scipy_path():
    # each solved row's halves again, sharing only the series (criterion 2,
    # recurrence_residuals) and rhs_vec (verify): the t-rows up to a
    # shorter handoff 0.03 min(1, p), SciPy's DOP853 to the falling zero of
    # g, and quad of V = lambda mu^2 over the rows and the dense output
    scipy_integrate = pytest.importorskip("scipy.integrate")
    polyval = np.polynomial.polynomial.polyval

    def volume(y):
        lam, u0, u1, u2 = y[:4]
        return lam * (u1 * u1 + u2 * u2 - u0 * u0)

    def event(t, y):
        return 2.0 * y[0] ** 4 * y[2] - 3.0 * y[3] * y[6]
    event.terminal, event.direction = True, -1

    def quad(f, a, b):
        return scipy_integrate.quad(f, a, b, epsabs=1e-14, epsrel=1e-13,
                                    limit=200)[0]

    def half(fs):
        """(T, volume integral over [0, T]) of one family solve."""
        rows, t_h = fs.series.t_coeffs, 0.03 * min(1.0, fs.param)
        run = scipy_integrate.solve_ivp(
            rhs_vec, (t_h, math.pi), polyval(t_h, rows), method="DOP853",
            rtol=1e-13, atol=1e-14, events=event, dense_output=True)
        T = run.t_events[0][0]
        return T, (quad(lambda t: volume(polyval(t, rows)), 0.0, t_h)
                   + quad(lambda t: volume(run.sol(t)), t_h, T))

    for target in cli._TARGETS:
        sol = cli._solve_target(target, series.DEFAULT_ORDER, 1e-12)
        left = half(sol.left)
        right = left if sol.right is sol.left else half(sol.right)
        assert abs(left[0] + right[0] - sol.T_total) < 1e-12
        assert abs((left[1] + right[1]) / shoot.S6_STD_TOTAL_VOLUME
                   - sol.vol) < 1e-12


@pytest.mark.parametrize("family, param", [("beta", 0.599),
                                           ("alpha", 0.5646)])
def test_handoff_searched_once_per_solve(monkeypatch, family, param):
    # the handoff asks the step rule once for the series' reach, and no root
    # search runs before the integrator starts
    steps, roots, before = [], [], []
    step_size, root, run = (series._step_size, shoot.bracketed_root,
                            shoot.integrate)

    def counted_step_size(*args):
        steps.append(args[1])
        return step_size(*args)

    def counted_root(*args, **kwargs):
        roots.append(args[1:3])
        return root(*args, **kwargs)

    def first_run(*args, **kwargs):
        before.append((len(steps), len(roots)))
        return run(*args, **kwargs)

    monkeypatch.setattr(series, "_step_size", counted_step_size)
    for module in (shoot, sys.modules["nkshoot.integrate"]):
        monkeypatch.setattr(module, "bracketed_root", counted_root)
    monkeypatch.setattr(shoot, "integrate", first_run)
    solve_family(family, param)
    assert not [name for name, module in sys.modules.items()
                if name.startswith("nkshoot") and hasattr(module, "brentq")]
    with pytest.raises(ImportError):
        importlib.import_module("nkshoot.rootfind")
    assert steps == [series.HANDOFF_TAIL_TOL]
    assert before[0] == (1, 0)


@pytest.mark.parametrize("family, param", [("alpha", 0.5646),
                                           ("beta", 0.599)])
@pytest.mark.parametrize("order", [4, 8, 10, 16])
def test_low_orders_agree_with_order_40(family, param, order):
    # the series is the first step where it reaches a step floor past the
    # handoff; else a jet is: below order 16, t* is the series' reach at the
    # handoff tolerance 1e-12, which lies past its reach at the step's 1e-14
    ref = solve_family(family, param)
    fs = solve_family(family, param, order)
    assert abs(fs.record.T - ref.record.T) < 1e-10
    assert abs(fs.vol_integral - ref.vol_integral) < 1e-10
    _, tol = _order_and_tol(1e-12, 1e-12)
    t0 = fs.traj.t_start
    floor = 16 * np.finfo(float).eps * max(1.0, t0)
    series_first = _step_size(fs.series.t_coeffs, tol) - t0 >= floor
    assert series_first == (order >= 16)
    assert fs.traj.dense.starts[0] == (0.0 if series_first else t0)


@pytest.mark.parametrize("family, param, vmax", [
    ("beta", 1.0, 4 / 3), ("alpha", SQRT3 / 2, 27 * SQRT2 / 32),
    ("alpha", SQRT3, S6_VMAX)], ids=["beta-1", "cp3", "s6"])
def test_event_inside_the_series_step(monkeypatch, family, param, vmax):
    # the closed-form members end in one step, the series one, expanded
    # about the singular orbit; the probe scans that step's polynomial
    fs = solve_family(family, param)
    assert fs.traj.dense.starts.tolist() == [0.0]
    assert fs.traj.dense.coeffs[0] is fs.series.t_coeffs
    assert abs(fs.record.Vmax - vmax) < 1e-13

    def no_run(*args, **kwargs):
        raise AssertionError("integrate called")

    monkeypatch.setattr(shoot, "integrate", no_run)
    shoot._confirm_unique_maximum(fs.traj, 1e-12, 1e-12)


def test_probe_rejects_a_later_critical_point(beta1_solve):
    # a run stopped before T ends where g is not a zero
    traj = beta1_solve.traj
    early = integrate(State.from_vec(traj.t_start, traj.states[0]),
                      beta1_solve.record.T - 0.05)
    with pytest.raises(EventNotFoundError):
        shoot._confirm_unique_maximum(early, 1e-12, 1e-12)


@pytest.mark.parametrize("param, runs", [(1.0, 0), (0.3, 1)],
                         ids=["covered", "uncovered"])
def test_probe_catches_a_planted_rising_crossing(monkeypatch, param, runs):
    # the probe's event becomes g + k max(0, t - T - 0.05)^2, with k set so
    # that it crosses zero upward at T + 0.09. beta(1)'s event step reaches
    # past the window, so its polynomial finds the crossing with no run;
    # beta(0.3)'s ends before T + 0.09, so one run from its reach does
    fs = solve_family("beta", param)
    st, reach = fs.record.state, fs.traj.dense.reach
    T = st.t
    assert (reach >= T + 0.1) if runs == 0 else (reach < T + 0.09)
    g_late = MAX_VOLUME_EVENT(T + 0.09,
                              integrate(st, T + 0.1).state_at(T + 0.09).vec)
    assert g_late < 0.0
    k = -g_late / 0.04 ** 2

    def planted(t, y):
        return (MAX_VOLUME_EVENT.fn_vec(t, y)
                + k * np.maximum(0.0, t - T - 0.05) ** 2)

    monkeypatch.setattr(shoot, "PROBE_EVENT",
                        dataclasses.replace(shoot.PROBE_EVENT, fn_vec=planted))
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(shoot, "integrate", spy)
    with pytest.raises(EventNotFoundError,
                       match="second volume-critical") as err:
        shoot._confirm_unique_maximum(fs.traj, 1e-12, 1e-12)
    assert len(calls) == runs
    t_hit = float(re.search(r"at t = (\S+);", str(err.value)).group(1))
    assert abs(t_hit - (T + 0.09)) < 1e-6


@pytest.mark.parametrize("share", [-1.0, 0.0, 0.05],
                         ids=["rising", "tangent", "nearly-tangent"])
def test_probe_rejects_a_crossing_that_is_not_transversal_falling(
        monkeypatch, beta1_solve, share):
    # g does not depend on v1, and g' does linearly (d g'/d v1 = -6
    # lambda^3): shifting v1 keeps the zero of g and leaves share times the
    # event's g', read off the flow by central differences. On shell every
    # zero of g on the wedge falls transversally, so these states are off
    # shell; the start check rejects them before any integration
    st = beta1_solve.record.state
    T, h = st.t, 1e-4
    after = integrate(st, T + 0.1)
    dg = (MAX_VOLUME_EVENT(T + h, after.state_at(T + h).vec)
          - MAX_VOLUME_EVENT(T - h, beta1_solve.traj.state_at(T - h).vec)
          ) / (2 * h)
    assert dg < -1.0
    v0, v1, v2 = st.v
    moved = State(T, st.lam, st.u,
                  (v0, v1 + (1.0 - share) * dg / (6 * st.lam ** 3), v2))
    assert MAX_VOLUME_EVENT(T, moved.vec) == MAX_VOLUME_EVENT(T, st.vec)

    def no_run(*args, **kwargs):
        raise AssertionError("integrate called")

    traj = beta1_solve.traj
    ends_moved = dataclasses.replace(
        traj, states=np.vstack((traj.states[:-1], moved.vec)))
    monkeypatch.setattr(shoot, "integrate", no_run)
    with pytest.raises(EventNotFoundError, match="transversal falling"):
        shoot._confirm_unique_maximum(ends_moved, 1e-12, 1e-12)


def test_probe_argument_symbolically():
    # the probe's two facts, on the package's own event function and
    # right-hand side: lambda^2 V' - g = -6 lambda^2 I1, so g = lambda^2 V'
    # on shell; and at g = 0 on shell (I2 = I4 = 0 suffice)
    # g' = -lambda (18 l^2 m^4 - 9 m^4 - 4 l^4 m^2 + 28 l^4 u1^2) / m^2
    # (l = lambda, m = mu), whose bracket is a sum of terms >= 0 on the
    # wedge mu >= lambda >= 1
    sp = pytest.importorskip("sympy")
    y = sp.symbols("lam u0 u1 u2 v0 v1 v2", real=True)
    lam, u0, u1, u2, v0, v1, v2 = y
    mu2 = -u0 ** 2 + u1 ** 2 + u2 ** 2
    f = [sp.nsimplify(e) for e in rhs_vec(0.0, y)]
    g = sp.nsimplify(MAX_VOLUME_EVENT.fn_vec(0.0, y))
    I1 = _first_integrals(*y)[0]

    def flow(expr):
        return sum(sp.diff(expr, yi) * fi for yi, fi in zip(y, f))

    assert sp.simplify(lam ** 2 * flow(lam * mu2) - g + 6 * lam ** 2 * I1) == 0

    m2 = sp.Symbol("m2", positive=True)
    on_shell = {v1: m2, v2: 2 * lam ** 4 * u1 / (3 * u2),
                u0: sp.sqrt(u1 ** 2 + u2 ** 2 - m2)}
    dg = flow(g).subs(on_shell).subs(u2, lam * sp.sqrt(m2))
    bracket = (18 * lam ** 2 * m2 ** 2 - 9 * m2 ** 2 - 4 * lam ** 4 * m2
               + 28 * lam ** 4 * u1 ** 2)
    assert sp.simplify(dg + lam * bracket / m2) == 0
    assert sp.expand(bracket - (5 * lam ** 2 * m2 ** 2
                                + 9 * m2 ** 2 * (lam ** 2 - 1)
                                + 4 * lam ** 2 * m2 * (m2 - lam ** 2)
                                + 28 * lam ** 4 * u1 ** 2)) == 0


def test_profiles_reject_times_outside_their_span(beta1_solve):
    # both ends, both families: the state is never extrapolated or clamped
    cp3 = solve_family("alpha", SQRT3 / 2)
    for fs in (beta1_solve, cp3):
        sol = glue(fs, fs, construction="doubling")
        for t in (-0.5, sol.T_total + 5.0):
            with pytest.raises(ValueError):
                sol.profile(t)
        for t in (-0.5, fs.record.T + 5.0):
            with pytest.raises(ValueError):
                fs.state_at(t)
        # the closed ends are inside
        assert sol.profile(0.0).t == fs.state_at(0.0).t == 0.0
        assert sol.profile(sol.T_total).t == sol.T_total
        assert fs.state_at(fs.record.T).t == fs.record.T


@pytest.mark.parametrize("fixture, closed_form", [
    ("beta1_solve", lambda t: eval_named("s3s3-homog", t)),
    ("alpha_sqrt3_solve", lambda t: apply_symmetry(
        "tau1.tau2.tau3", eval_named("s6-round", math.pi / 2 - t)))],
    ids=["beta-1", "alpha-sqrt3"])
def test_profile_below_handoff_is_the_closed_form(request, fixture,
                                                  closed_form):
    # on (0, t*] the profile is the series' t-rows, and it meets the
    # integrator's dense output at t*
    fs = request.getfixturevalue(fixture)
    for t in np.linspace(0.0, fs.t_star, 12)[1:]:
        st = fs.state_at(t)
        assert st.t == t
        assert np.max(np.abs(st.vec - closed_form(t).vec)) < 1e-10
    gap = fs.state_at(fs.t_star).vec - fs.traj.state_at(fs.t_star).vec
    assert np.max(np.abs(gap)) < 1e-14


def test_find_matching_homogeneous_s6():
    sol = find_matching((1.2, 2.4), (1.05, 1.9), n_samples=8)
    assert sol.manifold == "S6"
    assert abs(sol.param_left - SQRT3) < 1e-6
    assert abs(sol.param_right - 1.5) < 1e-6
    assert abs(sol.vol - 1.0) < 1e-6
    assert abs(sol.Vmax - S6_VMAX) < 1e-6


def test_scan_s2s4_negative():
    report = scan_s2s4_boundary(0.5, 4.0, n_samples=8)
    assert not report.found_root
    assert report.crossings == ()
    d = report.as_dict()
    assert d["found_root"] is False
    assert len(d["params"]) == 8


def test_ode_volume_integral_sine_cone_closed_form():
    # V = sin^5 t on the sine cone; the last step is cut at pi/2
    from nkshoot.integrate import integrate
    traj = integrate(eval_named("sine-cone", 0.3), 2.0)

    def antiderivative(t):
        c = math.cos(t)
        return -c + 2.0 * c ** 3 / 3.0 - c ** 5 / 5.0
    want = antiderivative(math.pi / 2) - antiderivative(0.3)
    got = shoot._ode_volume_integral(traj, 0.3, math.pi / 2)
    assert abs(got - want) < 1e-13
