"""shooting: family solves, curve tracing, doubling and matching roots,
gluing, scans."""
import dataclasses
import importlib
import inspect
import math
import pkgutil
import sys
import types
import warnings

import numpy as np
import pytest

from conftest import (SQRT2, SQRT3, float_bits, reference_poly_integral,
                      reference_trace_curve, validate_record)
import nkshoot
from nkshoot import cli, series, shoot
from nkshoot.errors import (BoundaryAmbiguousError, DegenerateStateError,
                            EventNotFoundError, InvalidArgumentError,
                            JunctionMismatchError, NKError, NoCrossingError,
                            NoSignChangeError, RefinementStallError)
from nkshoot.exact import eval_named
from nkshoot.geometry import MaxOrbitRecord, project_H
from nkshoot.integrate import (MAX_VOLUME_EVENT, _order_and_tol,
                               _step_size, integrate)
from nkshoot.series import volume_coeffs
from nkshoot.shoot import (find_doubling, find_matching, glue,
                           junction_derivative_gap, matching_candidates,
                           max_orbit, refine_matching, scan_s2s4_boundary,
                           solve_family, trace_curve)
from nkshoot.state import (State, _first_integrals, apply_symmetry,
                           complex_step, rhs_vec)

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
    assert sol.symmetry.label == "tau1.tau4"


def test_find_doubling_homogeneous_beta():
    sol = find_doubling("beta", (0.9, 1.1), "u0")
    assert abs(sol.param_left - 1.0) < 1e-6
    assert sol.manifold == "S3xS3"
    assert abs(sol.vol - 10 * math.pi / (27 * SQRT3)) < 1e-6
    assert abs(sol.T_total - math.pi / SQRT3) < 1e-7
    assert sol.symmetry.label == "tau1.tau2.tau3"


def test_find_doubling_cp3():
    sol = find_doubling("alpha", (0.7, 1.0), "v0")
    assert abs(sol.param_left - SQRT3 / 2) < 1e-6
    assert sol.manifold == "CP3"
    assert abs(sol.vol - 5.0 / 8.0) < 1e-6
    assert sol.symmetry.label == "tau1.tau4"


def test_find_doubling_no_sign_change():
    with pytest.raises(NoSignChangeError):
        find_doubling("beta", (1.2, 1.4), "v0")


def test_find_doubling_no_sign_change_at_tiny_ends(monkeypatch):
    # v0(T) of one sign at both ends is no sign change even where the
    # product of the two underflows to 0.0: NoSignChangeError, an NKError,
    # not the root finder's ValueError
    tiny = types.SimpleNamespace(record=types.SimpleNamespace(
        state=State.from_vec(0.0, np.full(7, 1e-170))))
    monkeypatch.setattr(shoot, "solve_family", lambda *args: tiny)
    with pytest.raises(NoSignChangeError, match="no sign change"):
        find_doubling("alpha", (0.7, 1.0), "v0")


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


def test_find_doubling_rejects_which_w1(monkeypatch):
    # a doubling root is a zero of v0(T) or u0(T); nothing is solved
    def no_solve(*args):
        raise AssertionError("solve_family called")

    monkeypatch.setattr(shoot, "solve_family", no_solve)
    with pytest.raises(InvalidArgumentError, match="which must be"):
        find_doubling("beta", (0.2, 0.6), which="w1")


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
    assert sol.symmetry.label == "tau1.tau2.tau3"


def test_glue_junction_mismatch():
    f1 = solve_family("beta", 0.9)
    f2 = solve_family("beta", 1.0)
    with pytest.raises(JunctionMismatchError):
        glue(f1, f2)


def test_glue_junction_that_fits_neither_word_mismatches():
    # the wedge points agree, but each gluing word flips u1 and v2, so a
    # right state equal to the left one fits neither
    def half(vec):
        record = types.SimpleNamespace(state=State.from_vec(0.5, vec),
                                       lam=1.0, mu=2.0, T=0.5, Vmax=1.0)
        return types.SimpleNamespace(family="beta", record=record,
                                     vol_integral=1.0)

    with pytest.raises(JunctionMismatchError, match="best word"):
        glue(half(np.ones(7)), half(np.ones(7)))


def test_matching_candidates_unreflected_none():
    # alpha and beta cannot intersect un-reflected for positive parameters
    alpha = trace_curve("alpha", 0.35, 2.2, n_samples=10)
    beta = trace_curve("beta", 0.35, 1.6, n_samples=10)
    assert matching_candidates(alpha, beta, "none") == []


def quadratic_curve(family: str, chart) -> shoot.Curve:
    """A Curve of 9 samples on [0.6, 4] whose chart points are
    chart(log(param)); only h_point is read from its records."""
    params = np.geomspace(0.6, 4.0, 9)
    records = tuple(types.SimpleNamespace(h_point=chart(math.log(p)))
                    for p in params)
    return shoot.Curve(family, params, records)


def test_matching_candidates_seed_is_the_interpolants_crossing():
    # alpha_H = (x, x^2) and the w1-reflected beta_H = (2y, 1 - 4y^2), with
    # x, y the log-parameters, cross at x = 2y = 1/sqrt(2) only; cubics
    # through four samples reproduce the quadratics, so the seed is the
    # crossing itself, where the polyline's is off by O(segment^2); so is
    # the seed from the four samples that end with the crossing segment
    alpha = quadratic_curve("alpha", lambda x: (x, x * x))
    beta = quadratic_curve("beta", lambda y: (-2.0 * y, 1.0 - 4.0 * y * y))
    root = (math.exp(1.0 / SQRT2), math.exp(0.5 / SQRT2))
    seeds = matching_candidates(alpha, beta, "w1")
    assert len(seeds) == 1
    assert np.max(np.abs(np.subtract(seeds[0], root))) < 1e-12
    i = int(np.searchsorted(alpha.params, root[0]))     # segment (i-1, i)
    window = shoot.Curve("alpha", alpha.params[i - 3:i + 1],
                         alpha.records[i - 3:i + 1])
    lazy = matching_candidates(window, beta, "w1", 2)
    assert len(lazy) == 1
    assert np.max(np.abs(np.subtract(lazy[0], root))) < 1e-12
    assert matching_candidates(window, beta, "w1", 3) == []


@pytest.mark.parametrize("target,most", [("s6-homog", 6), ("s6-exotic", 8)])
def test_refine_matching_starts_from_the_curves(monkeypatch, target, most):
    # the seed and the first Jacobian come from the traced curves, so the
    # refinement solves its seed and one pair per quasi-Newton step (10
    # members from a forward-difference start), each member once
    calls = count_solves(monkeypatch)
    refined = []
    original = shoot.refine_matching

    def counted(*args):
        n = len(calls)
        try:
            return original(*args)
        finally:
            refined.append(len(calls) - n)

    monkeypatch.setattr(shoot, "refine_matching", counted)
    find_matching(*cli._TARGETS[target][2], n_samples=12)
    assert len(refined) == 1 and refined[0] <= most
    assert len(calls) == len(set(calls))


@pytest.mark.parametrize("target,most", [("s6-exotic", 19), ("s6-homog", 23)])
def test_default_matching_solves(monkeypatch, target, most):
    # the default grid of 4 only seeds the curves and CURVE_SPACING_CAP
    # places all the other samples, so a matching costs at most 19 (S6-new)
    # and 23 (S6-std) family solves, each member solved once
    calls = count_solves(monkeypatch)
    find_matching(*cli._TARGETS[target][2])
    assert len(calls) <= most
    assert len(calls) == len(set(calls))


def curves_around(a: float, b: float) -> tuple:
    """alpha and beta traced at two samples each, 2 % either side of a and
    of b: the start of a refinement from the seed (a, b)."""
    return (trace_curve("alpha", a / 1.02, a * 1.02, n_samples=2),
            trace_curve("beta", b / 1.02, b * 1.02, n_samples=2))


def test_refine_matching_without_root_stalls(monkeypatch):
    # unreflected, the curves never cross, so the root solve must give up
    # with a typed error (its iterates head for a, b -> 0 until a member
    # solve degenerates) instead of leaking the series' ValueError or
    # returning a point that is not a root
    curves = curves_around(0.56, 0.60)
    calls = count_solves(monkeypatch)
    with pytest.raises(NKError):
        refine_matching(*curves, (0.56, 0.60), "none")
    assert len(calls) < 60


def test_refine_matching_solves_each_member_once(monkeypatch):
    # the first Jacobian reads the curve samples around the seed and each
    # three-point column update the earlier iterates' solves; every family
    # member, the curves' included, is solved once
    calls = count_solves(monkeypatch)
    fa, fb = refine_matching(*curves_around(0.56, 0.60), (0.56, 0.60), "w1")
    assert abs(fa.param - 0.5646) < 0.003 and abs(fb.param - 0.5985) < 0.003
    assert len(calls) == len(set(calls))


def test_refine_matching_singular_jacobian_stalls(monkeypatch,
                                                  beta1_solve):
    # every member at the same chart point: both Jacobian columns vanish,
    # and the 2x2 solve must stall with the typed error, not a LinAlgError
    # or a NaN iterate
    monkeypatch.setattr(shoot, "solve_family", lambda *args: beta1_solve)
    with pytest.raises(RefinementStallError, match="singular"):
        refine_matching(*curves_around(0.56, 0.60), (0.56, 0.60), "w1")


def test_refine_matching_member_failure_stalls(monkeypatch):
    # a member solve that fails at an iterate ends this seed's refinement
    # with the typed stall, the solve's error kept as its cause
    def degenerate(*args):
        raise DegenerateStateError("start has mu^2 = 0")

    curves = curves_around(0.56, 0.60)
    monkeypatch.setattr(shoot, "solve_family", degenerate)
    with pytest.raises(RefinementStallError, match="could not solve") as e:
        refine_matching(*curves, (0.56, 0.60), "w1")
    assert isinstance(e.value.__cause__, DegenerateStateError)


def test_refine_matching_step_cap_stalls(monkeypatch):
    # a seed that converges in a few steps, allowed a single one
    monkeypatch.setattr(shoot, "MATCH_MAX_STEPS", 1)
    with pytest.raises(RefinementStallError, match="did not converge"):
        refine_matching(*curves_around(0.56, 0.60), (0.56, 0.60), "w1")


def stub_charts(monkeypatch, charts):
    """Member solves stubbed to records whose h_point is
    charts[family](param); returns curve(family, params), a Curve of such
    records."""
    def solve(family, param, *args):
        record = types.SimpleNamespace(h_point=charts[family](param))
        return types.SimpleNamespace(param=param, record=record)

    monkeypatch.setattr(shoot, "solve_family", solve)
    return lambda family, params: shoot.Curve(
        family, np.array(params),
        tuple(solve(family, p).record for p in params))


def test_refine_matching_leaving_the_domain_stalls(monkeypatch):
    # affine charts P(a) = (a, a) and beta_H(b) = (b - 3, -1 - b), so the
    # root of F = P - beta_H is (-2, 1), where the first step lands
    curve = stub_charts(monkeypatch, {"alpha": lambda a: (a, a),
                                      "beta": lambda b: (b - 3.0, -1.0 - b)})
    with pytest.raises(RefinementStallError,
                       match=r"left the parameter domain at \(-2.0, 1.0\)"):
        refine_matching(curve("alpha", [1.0, 1.5]), curve("beta", [0.5, 1.5]),
                        (1.25, 1.0), "none")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_refine_matching_overflowing_step_stalls(monkeypatch):
    # P(a) = (1e-300 a, 0) and beta_H(b) = (1e10, 2 - b): a Jacobian column
    # of 1e-300 against a residual of 1e10 overflows the step to a = inf
    curve = stub_charts(monkeypatch, {"alpha": lambda a: (1e-300 * a, 0.0),
                                      "beta": lambda b: (1e10, 2.0 - b)})
    with pytest.raises(RefinementStallError,
                       match=r"reached a non-finite iterate \(inf, 2.0\)"):
        refine_matching(curve("alpha", [1.0, 1.5]), curve("beta", [1.5, 2.5]),
                        (1.25, 2.0), "none")


def test_refine_matching_residual_above_its_bound_stalls(monkeypatch):
    # a refinement whose last step converged still checks its final
    # residual: with MATCH_RESIDUAL below it, the same refinement stalls
    curves = curves_around(0.56, 0.60)
    fa, fb = refine_matching(*curves, (0.56, 0.60), "w1")
    residual = np.max(np.abs(np.subtract(
        fa.record.h_point,
        np.multiply(fb.record.h_point, shoot._REFLECTIONS["w1"]))))
    assert residual > 0.0
    monkeypatch.setattr(shoot, "MATCH_RESIDUAL", residual / 2)
    with pytest.raises(RefinementStallError, match="stalled at residual"):
        refine_matching(*curves, (0.56, 0.60), "w1")


def test_find_matching_solves_each_member_once(monkeypatch):
    # the root pair refine_matching evaluated is glued, not solved again
    calls = count_solves(monkeypatch)
    sol = find_matching((1.2, 2.4), (1.05, 1.9), n_samples=8)
    assert abs(sol.param_left - SQRT3) < 1e-6
    assert len(calls) == len(set(calls))


def test_find_matching_moves_past_a_stalled_seed(monkeypatch):
    # over these ranges the w1 seed lies at the new S6 and the w2 seed at
    # the standard one: a stall at the first seed is kept and the next seed
    # refined, and when every seed stalls one error names each stall
    original = shoot.refine_matching
    seeds = []

    def stall_first(alpha, beta, seed, refl, *args):
        seeds.append(refl)
        if len(seeds) == 1:
            raise RefinementStallError(f"planted stall at {refl}")
        return original(alpha, beta, seed, refl, *args)

    monkeypatch.setattr(shoot, "refine_matching", stall_first)
    sol = find_matching((0.35, 2.4), (0.35, 1.9))
    assert seeds == ["w1", "w2"]
    assert (sol.manifold, sol.symmetry.label) == ("S6", "tau1.tau2.tau3")
    assert abs(sol.param_left - SQRT3) < 1e-12
    assert abs(sol.param_right - 1.5) < 1e-12

    def stall_all(alpha, beta, seed, refl, *args):
        raise RefinementStallError(f"planted stall at {refl}")

    monkeypatch.setattr(shoot, "refine_matching", stall_all)
    with pytest.raises(RefinementStallError) as e:
        find_matching((0.35, 2.4), (0.35, 1.9))
    assert str(e.value) == "planted stall at w1; planted stall at w2"


def test_refine_matching_keeps_the_slope_of_an_unmoved_column(monkeypatch):
    # dyadic affine charts P(a) = (a, a) and Q(b) = (b - 1, 3 - b), so
    # F = P - Q has its root at (1, 2): the first step from (1.25, 1.75)
    # lands on it exactly, the second step is exactly 0, and the column
    # update keeps both slopes rather than divide by a zero parameter step
    charts = {"alpha": lambda a: (a, a), "beta": lambda b: (b - 1.0, 3.0 - b)}

    def stub_curve(family, params):
        records = tuple(types.SimpleNamespace(h_point=charts[family](p))
                        for p in params)
        return shoot.Curve(family, np.array(params), records)

    calls = []

    def stub_solve(family, param, *args):
        calls.append((family, param))
        record = types.SimpleNamespace(h_point=charts[family](param))
        return types.SimpleNamespace(param=param, record=record)

    monkeypatch.setattr(shoot, "solve_family", stub_solve)
    fa, fb = refine_matching(stub_curve("alpha", [1.0, 1.5]),
                             stub_curve("beta", [1.5, 2.0]),
                             (1.25, 1.75), "none")
    assert (fa.param, fb.param) == (1.0, 2.0)
    assert len(calls) == len(set(calls)) == 4


def test_segments_cross_rejects_parallel_and_collinear_segments():
    p0, p1 = np.array([0.0, 0.0]), np.array([1.0, 1.0])
    parallel = (np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    collinear = (np.array([0.5, 0.5]), np.array([2.0, 2.0]))
    assert shoot._segments_cross(p0, p1, *parallel) == (False, 0.0, 0.0)
    assert shoot._segments_cross(p0, p1, *collinear) == (False, 0.0, 0.0)


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
    curves = (trace_curve("alpha", *alpha_range, n_samples=4),
              trace_curve("beta", *beta_range, n_samples=4))
    lazy = find_matching(alpha_range, beta_range)
    traced = find_matching(alpha_range, beta_range, curves=curves)
    assert (lazy.manifold, lazy.symmetry.label) == (traced.manifold,
                                                 traced.symmetry.label)
    assert solution_bits(lazy) == solution_bits(traced)


def test_lazy_matching_solves_alpha_up_to_its_crossing(monkeypatch):
    # the S6-new crossing lies in alpha segment 1 of 3: 3 of the 4 alpha
    # grid members are solved, all 4 of beta's
    alpha_range, beta_range = cli._TARGETS["s6-exotic"][2]
    calls = count_solves(monkeypatch)
    find_matching(alpha_range, beta_range)
    for family, (lo, hi), members in (("alpha", alpha_range, 3),
                                      ("beta", beta_range, 4)):
        grid = list(np.geomspace(lo, hi, 4))
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
    T, steps = fs.traj.times[-1], fs.traj
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


def _scipy_run(rows, param):
    """(t_h, run): SciPy's DOP853 at rtol 1e-13 and atol 1e-14, from a
    family's t-rows at a shorter handoff t_h = 0.03 min(1, param) to the
    falling zero of g, with dense output."""
    scipy_integrate = pytest.importorskip("scipy.integrate")

    def event(t, y):
        return 2.0 * y[0] ** 4 * y[2] - 3.0 * y[3] * y[6]
    event.terminal, event.direction = True, -1

    t_h = 0.03 * min(1.0, param)
    return t_h, scipy_integrate.solve_ivp(
        rhs_vec, (t_h, math.pi), np.polynomial.polynomial.polyval(t_h, rows),
        method="DOP853", rtol=1e-13, atol=1e-14, events=event,
        dense_output=True)


@pytest.fixture(scope="module")
def table2_solutions():
    return {target: cli._solve_target(target, series.DEFAULT_ORDER, 1e-12)
            for target in cli._TARGETS}


def test_table2_volumes_agree_with_an_independent_scipy_path(
        table2_solutions):
    # each solved row's halves again, sharing only the series (criterion 2,
    # conftest.reference_residuals) and rhs_vec (verify): the t-rows up to a
    # shorter handoff 0.03 min(1, p), SciPy's DOP853 to the falling zero of
    # g, and quad of V = lambda mu^2 over the rows and the dense output
    scipy_integrate = pytest.importorskip("scipy.integrate")
    polyval = np.polynomial.polynomial.polyval

    def volume(y):
        lam, u0, u1, u2 = y[:4]
        return lam * (u1 * u1 + u2 * u2 - u0 * u0)

    def quad(f, a, b):
        return scipy_integrate.quad(f, a, b, epsabs=1e-14, epsrel=1e-13,
                                    limit=200)[0]

    def half(fs):
        """(T, volume integral over [0, T]) of one family solve."""
        rows = fs.series.t_coeffs
        t_h, run = _scipy_run(rows, fs.param)
        T = run.t_events[0][0]
        return T, (quad(lambda t: volume(polyval(t, rows)), 0.0, t_h)
                   + quad(lambda t: volume(run.sol(t)), t_h, T))

    for sol in table2_solutions.values():
        left = half(sol.left)
        right = left if sol.right is sol.left else half(sol.right)
        assert abs(left[0] + right[0] - sol.T_total) < 1e-12
        assert abs((left[1] + right[1]) / shoot.S6_STD_TOTAL_VOLUME
                   - sol.vol) < 1e-12


def test_table2_roots_agree_with_an_independent_scipy_path(
        table2_solutions):
    # each row's root solved again on the volume test's SciPy path, sharing
    # only the series, rhs_vec and project_H: brentq on v0(T) or u0(T) from
    # the CLI bracket for a doubling; hybr on alpha_H(a) - R beta_H(b) from
    # the pipeline's root moved by 1e-6 for a matching, judged by F and by
    # the root, as hybr reports no success where it cannot improve at
    # round-off. The two roots differ by at most 6.8e-14 (S6-std)
    optimize = pytest.importorskip("scipy.optimize")

    def event_state(family, p):
        run = _scipy_run(series.family_series(family, p).t_coeffs, p)[1]
        return State.from_vec(run.t_events[0][0], run.y_events[0][0])

    for target, (_, construction, args) in cli._TARGETS.items():
        sol = table2_solutions[target]
        if construction == "doubling":
            family, bracket, which = args
            idx = 4 if which == "v0" else 1
            p = optimize.brentq(lambda p: event_state(family, p).vec[idx],
                                *bracket, xtol=1e-15,
                                rtol=4 * np.finfo(float).eps)
            assert abs(p - sol.param_left) < 1e-12, target
            continue
        refl = min(("w1", "w2"), key=lambda r: np.max(np.abs(
            np.subtract(sol.left.record.h_point, np.multiply(
                shoot._REFLECTIONS[r], sol.right.record.h_point)))))

        def F(x):
            ha, hb = (project_H(event_state(fam, p))[1:]
                      for fam, p in zip(("alpha", "beta"), x))
            return np.subtract(ha, np.multiply(shoot._REFLECTIONS[refl], hb))

        x = np.array([sol.param_left, sol.param_right])
        root = optimize.root(F, x + 1e-6, method="hybr",
                             options={"xtol": 1e-10}).x
        assert np.max(np.abs(F(root))) < 1e-12, target
        assert np.max(np.abs(root - x)) < 1e-12, target


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
    _, tol = _order_and_tol(1e-12)
    t0 = fs.traj.t_start
    floor = 16 * np.finfo(float).eps * max(1.0, t0)
    series_first = _step_size(fs.series.t_coeffs, tol) - t0 >= floor
    assert series_first == (order >= 16)
    assert fs.traj.starts[0] == (0.0 if series_first else t0)


@pytest.mark.parametrize("family, param, vmax", [
    ("beta", 1.0, 4 / 3), ("alpha", SQRT3 / 2, 27 * SQRT2 / 32),
    ("alpha", SQRT3, S6_VMAX)], ids=["beta-1", "cp3", "s6"])
def test_event_inside_the_series_step(family, param, vmax):
    # the closed-form members end in one step, the series one, expanded
    # about the singular orbit; the probe reads only the event state: it
    # passes on the run without its dense output and with every node but
    # the last NaN
    fs = solve_family(family, param)
    assert fs.traj.starts.tolist() == [0.0]
    assert fs.traj.coeffs[0] is fs.series.t_coeffs
    assert abs(fs.record.Vmax - vmax) < 1e-13
    times, states = fs.traj.times.copy(), fs.traj.states.copy()
    times[:-1] = states[:-1] = math.nan
    shoot._confirm_unique_maximum(dataclasses.replace(
        fs.traj, times=times, states=states, starts=None, coeffs=None))


def test_probe_rejects_a_later_critical_point(beta1_solve):
    # a run stopped before T ends where g is not a zero
    traj = beta1_solve.traj
    early = integrate(State.from_vec(traj.t_start, traj.states[0]),
                      beta1_solve.record.T - 0.05)
    with pytest.raises(EventNotFoundError):
        shoot._confirm_unique_maximum(early)


def test_solve_family_run_without_the_event_raises(monkeypatch):
    # a run that its horizon ends before the maximal-volume event
    def short(start, horizon, **kwargs):
        return integrate(start, start.t + 0.1, **kwargs)

    monkeypatch.setattr(shoot, "integrate", short)
    with pytest.raises(EventNotFoundError,
                       match=r"no maximal-volume event for beta\(0.6\); "
                             r"termination = horizon"):
        solve_family("beta", 0.6)


@pytest.mark.parametrize("share", [-1.0, 0.0, 0.05],
                         ids=["rising", "tangent", "nearly-tangent"])
def test_probe_rejects_a_crossing_that_is_not_transversal_falling(
        monkeypatch, beta1_solve, share):
    # g does not depend on v1, and g' does linearly (d g'/d v1 = -6
    # lambda^3): shifting v1 keeps the zero of g and leaves share times the
    # event's g', read off the flow by central differences. On shell every
    # zero of g falls transversally, so these states are off shell; the
    # check at T rejects them without any integration
    st = beta1_solve.record.state
    T, h = st.t, 1e-4
    after = integrate(st, T + 0.1)
    dg = (MAX_VOLUME_EVENT.fn_vec(T + h, after.state_at(T + h).vec)
          - MAX_VOLUME_EVENT.fn_vec(T - h,
                                    beta1_solve.traj.state_at(T - h).vec)
          ) / (2 * h)
    assert dg < -1.0
    v0, v1, v2 = st.v
    moved = State(T, st.lam, st.u,
                  (v0, v1 + (1.0 - share) * dg / (6 * st.lam ** 3), v2))
    assert (MAX_VOLUME_EVENT.fn_vec(T, moved.vec)
            == MAX_VOLUME_EVENT.fn_vec(T, st.vec))

    def no_run(*args, **kwargs):
        raise AssertionError("integrate called")

    traj = beta1_solve.traj
    ends_moved = dataclasses.replace(
        traj, states=np.vstack((traj.states[:-1], moved.vec)))
    monkeypatch.setattr(shoot, "integrate", no_run)
    with pytest.raises(EventNotFoundError, match="transversal falling"):
        shoot._confirm_unique_maximum(ends_moved)


def test_probe_argument_symbolically():
    # Foscolo & Haskins (arXiv 1501.07838) state that each member of the two
    # families reaches a unique maximal-volume orbit, where 2 lambda^4 u1 =
    # 3 u2 v2 (a paraphrase; the README's overview repeats it). Proved here,
    # on the package's own event function and right-hand side, is the
    # quantitative form the probe rests on: a uniform bound on g' at the
    # zeros of g over the whole admissible shell, which leaves a margin for
    # drifted numerical states, where the sign of V'' alone would not.
    #
    # Assumed: lambda > 0, mu^2 > 0 and I1 = I2 = I3 = I4 = 0; u0, u1, u2
    # and the v's are signed. Claim: at every zero of g = 2 lambda^4 u1 -
    # 3 u2 v2 the scale-free slope g' mu^2 / (lambda^3 (mu^4 + lambda^2
    # (mu^2 + u1^2))) is at most -5/2 (equal at the Sasaki-Einstein point
    # lambda = mu = 1, u1 = 0). So g never rises through zero, its first
    # falling zero is its only one, and on shell g = lambda^2 V', so the
    # event is the only critical point of V.
    sp = pytest.importorskip("sympy")
    y = sp.symbols("lam u0 u1 u2 v0 v1 v2", real=True)
    lam, u0, u1, u2, v0, v1, v2 = y
    f = [sp.nsimplify(e) for e in rhs_vec(0.0, y)]
    g = sp.nsimplify(MAX_VOLUME_EVENT.fn_vec(0.0, y))
    I1, _, I3, _, _, _, mu2 = _first_integrals(*y)

    def flow(expr):
        return sum(sp.diff(expr, yi) * fi for yi, fi in zip(y, f))

    # lambda^2 V' - g = -6 lambda^2 I1, so g = lambda^2 V' where I1 = 0
    assert sp.simplify(lam ** 2 * flow(lam * mu2) - g + 6 * lam ** 2 * I1) == 0

    # L = lambda^2, m = mu^2, X = u1^2. A rational function whose every
    # exponent of lambda, u0, u1, u2 is even is one of the squares; on shell
    # u2^2 = L m (I2) and then u0^2 = X + (L - 1) m, as m = mu^2
    L, m = sp.symbols("L m", positive=True)
    X = sp.Symbol("X", nonnegative=True)
    squares = {lam: L, u0: X + (L - 1) * m, u1: X, u2: L * m}

    def in_squares(expr):
        parts = []
        for p in sp.fraction(sp.cancel(sp.together(expr))):
            poly = sp.Poly(p, *squares)
            assert all(e % 2 == 0 for mono in poly.monoms() for e in mono)
            parts.append(sum(c * sp.prod([s ** (e // 2) for s, e in
                                          zip(squares.values(), mono)])
                             for mono, c in poly.terms()))
        return sp.cancel(parts[0] / parts[1])

    # v1 = mu^2 (I4) and v2 from g = 0; u2 != 0, as u2^2 = lambda^2 mu^2 > 0
    shell = {v1: mu2, v2: 2 * lam ** 4 * u1 / (3 * u2)}
    slope = in_squares(flow(g).subs(shell) * mu2
                       / (lam ** 3 * (mu2 ** 2 + lam ** 2 * (mu2 + u1 ** 2))))
    D = m ** 2 + L * m + L * X
    K = 28 * L ** 2 * X + 18 * L * m ** 2 - 9 * m ** 2 - 4 * L ** 2 * m
    assert sp.cancel(slope + K / (L * D)) == 0
    # slope <= -5/2 exactly when X >= X_R
    XR = (18 * m ** 2 + 13 * L ** 2 * m - 31 * L * m ** 2) / (51 * L ** 2)
    assert sp.cancel(slope + sp.Rational(5, 2)
                     + 51 * L * (X - XR) / (2 * D)) == 0

    # u0 != 0: v0 from I1; then 9 m u0^2 I3 = -L q(X)
    q = (4 * L ** 2 * X ** 2 - m * X * (4 * L ** 2 + 12 * L * m + 9 * m)
         + 9 * (L - 1) * (m - L) * m ** 3 / L)
    i3 = (u0 ** 2 * I3.subs(v0, (u1 * v1 + u2 * v2) / u0)).subs(shell)
    assert sp.cancel(9 * m * in_squares(i3) + L * q) == 0
    # q is a parabola in X with vertex V > X_R, and for X0 < X, q(X0) <= q(X)
    # gives X + X0 >= 2 V (*), so X > V > X_R
    V = m * (4 * L ** 2 + 12 * L * m + 9 * m) / (8 * L ** 2)
    assert sp.cancel(V - XR - 5 * m * (20 * L ** 2 + 172 * L * m + 63 * m)
                     / (408 * L ** 2)) == 0
    X0 = sp.Symbol("X0")
    assert sp.expand(q - q.subs(X, X0)
                     - 4 * L ** 2 * (X - X0) * (X + X0 - 2 * V)) == 0
    # L <= 1: u0^2 > 0 puts X above X0 = (1 - L) m, where q <= 0, so (*)
    assert sp.cancel(q.subs(X, (1 - L) * m)
                     - m ** 2 * (L - 1) * (2 * L ** 2 + 3 * m) ** 2 / L) == 0
    # L > 1 > m / L: q(0) < 0, so a root X is above X0 = 0, and (*)
    assert sp.cancel(q.subs(X, 0) - 9 * m ** 3 * (L - 1) * (m - L) / L) == 0
    # L >= 1 and m >= L: q(X_R) >= 0, so a root X < X_R would give, by (*)
    # with X0 = X, X_R >= V; every coefficient in (r, s) is >= 0, and none
    # is constant, so q(X_R) = 0 only at L = m = 1
    r, s = sp.symbols("r s", nonnegative=True)
    at_xr = sp.Poly(sp.cancel(2601 * L ** 2 * q.subs(X, XR) / m ** 2)
                    .subs(m, L * (1 + s)).subs(L, 1 + r), r, s)
    assert len(at_xr.terms()) == 14
    assert all(c > 0 and mono != (0, 0) for mono, c in at_xr.terms())

    # u0 = 0: I1 leaves u1 (3 mu^2 + 2 lambda^4) / 3, so u1 = 0; then I2
    # = u2^2 (lambda^2 - 1) gives L = 1, and I3 = v0^2 + m - m^2 gives
    # m >= 1, where the slope is -(9 m - 4) / (m + 1) <= -5/2
    assert sp.expand(I1.subs(shell).subs(u0, 0)
                     - u1 * (2 * lam ** 4 + 3 * (u1 ** 2 + u2 ** 2)) / 3) == 0
    at_u0 = slope.subs({L: 1, X: 0})
    assert sp.cancel(at_u0 + (9 * m - 4) / (m + 1)) == 0
    assert sp.cancel(at_u0 + sp.Rational(5, 2)
                     + 13 * (m - 1) / (2 * (m + 1))) == 0


@pytest.mark.parametrize("family, hi", [("alpha", 20.0), ("beta", 5.0)])
def test_event_slopes_obey_the_proved_bound(family, hi):
    # the symbolic test's bound at the solver's own event states, which sit
    # on the shell to their drift: the worst is -2.50000037, at beta(0.05),
    # whose event lies about 1e-7 from lambda = mu = 1, where the bound is
    # attained; EVENT_SLOPE_MAX = -0.5 leaves a margin of 2 above it
    for p in np.geomspace(0.05, hi, 16):
        st = solve_family(family, float(p)).record.state
        y, lam, u1, mu2 = st.vec, st.lam, st.u[1], st.mu2
        dg = complex_step(lambda z: MAX_VOLUME_EVENT.fn_vec(st.t, z), y,
                          rhs_vec(st.t, y))
        slope = dg * mu2 / (lam ** 3 * (mu2 ** 2 + lam ** 2 * (mu2 + u1 ** 2)))
        assert slope <= -2.5 + 1e-5, (family, p)


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


def test_glue_warns_on_an_s2xs4_doubling():
    # an alpha member whose record state GLUE_PLUS fixes (u0 = u1 = v2 = 0)
    # glues to itself by that word, which closes on S2xS4
    fs = solve_family("alpha", 0.7)
    st = State(fs.record.T, 1.2, (0.0, 0.0, -1.5), (0.7, 2.25, 0.0))
    fake = dataclasses.replace(
        fs, record=MaxOrbitRecord.from_state("alpha", 0.7, st.t, st))
    with pytest.warns(UserWarning, match="S2xS4 doubling"):
        sol = glue(fake, fake, "doubling")
    assert sol.manifold == "S2xS4"


def test_scan_s2s4_negative():
    report = scan_s2s4_boundary(0.5, 4.0, n_samples=8)
    assert not report["found_root"]
    assert report["crossing_brackets"] == []
    assert report["found_root"] is False
    assert len(report["params"]) == 8


@pytest.mark.parametrize("u0, brackets", [
    ((0.5, 0.0, -1.0, -2.0), ((0.5, 2.0),)),       # + 0 -: once
    ((1.0, 0.0, 0.0, -2.0), ((0.5, 4.0),)),
    ((1.0, 0.0, 1.0, 2.0), ()),                     # + 0 +: a touch
    ((0.0, 0.0, 0.0, 0.0), ()),
], ids=["node", "two-nodes", "touch", "zero"])
def test_scan_s2s4_counts_a_zero_on_a_grid_point_once(monkeypatch, u0,
                                                      brackets):
    # the survey's u0(T) values stand in for the members' on the grid
    # 0.5, 1, 2, 4; a value exactly 0 between opposite signs is a crossing
    values = dict(zip((0.5, 1.0, 2.0, 4.0), u0))

    def fake_orbit(family, param, order, tol):
        state = types.SimpleNamespace(u=(values[param], 1.0, 0.0))
        return types.SimpleNamespace(state=state, Vmax=1.0)
    monkeypatch.setattr(shoot, "max_orbit", fake_orbit)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = scan_s2s4_boundary(0.5, 4.0, n_samples=4)
    assert report["crossing_brackets"] == [list(b) for b in brackets]


def test_ode_volume_integral_sine_cone_closed_form():
    # V = sin^5 t on the sine cone, integrated over the run's span
    from nkshoot.integrate import integrate
    traj = integrate(eval_named("sine-cone", 0.3), math.pi / 2)

    def antiderivative(t):
        c = math.cos(t)
        return -c + 2.0 * c ** 3 / 3.0 - c ** 5 / 5.0
    want = antiderivative(math.pi / 2) - antiderivative(0.3)
    got = shoot._ode_volume_integral(traj)
    assert abs(got - want) < 1e-13


# ---------------------------------------------------------------------------
# the one integrator tolerance

#: the entry points that perfbench/workloads.py calls with (rtol, atol);
#: each acts through min(rtol, atol) alone
PAIR_ENTRY_POINTS = {"shoot.solve_family", "shoot.find_doubling",
                     "shoot.find_matching", "cli.run_verify"}


def test_only_the_benchmarked_entry_points_take_a_tolerance_pair():
    # bracketed_root's rtol is a root's relative tolerance in x, not half
    # of the integrator's pair
    found = set()
    for info in pkgutil.iter_modules(nkshoot.__path__):
        module = importlib.import_module(f"nkshoot.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [(name, obj)]
            if inspect.isclass(obj):
                members += [(f"{name}.{k}", v) for k, v in vars(obj).items()]
            for qual, fn in members:
                if (inspect.isfunction(fn) and {"rtol", "atol"}
                        & set(inspect.signature(fn).parameters)):
                    found.add(f"{info.name}.{qual}")
    assert found == PAIR_ENTRY_POINTS | {"integrate.bracketed_root"}


def _solve_bits(fs) -> list[str]:
    return float_bits([fs.t_star, *fs.traj.times, *fs.traj.states.ravel()])


def _solution_bits(sol) -> tuple:
    return sol.as_dict(), _solve_bits(sol.left), _solve_bits(sol.right)


PAIRS = ((1e-12, 1e-9), (1e-9, 1e-12))


def test_solve_family_acts_through_min_rtol_atol():
    a, b = (solve_family("beta", 0.6, 40, *pair) for pair in PAIRS)
    assert _solve_bits(a) == _solve_bits(b)
    assert a.record == b.record == max_orbit("beta", 0.6, 40, 1e-12)


def test_find_doubling_acts_through_min_rtol_atol():
    a, b = (find_doubling("alpha", (0.7, 1.0), "v0", 40, *pair)
            for pair in PAIRS)
    assert _solution_bits(a) == _solution_bits(b)

    # the tol = 1e-12 path: the same root search over max_orbit
    def g(p):
        return max_orbit("alpha", p, 40, 1e-12).state.v[0]
    root = shoot.bracketed_root(g, 0.7, 1.0, g(0.7), g(1.0), shoot.ROOT_XTOL,
                                8.9e-16)
    assert a.param_left == root
    assert a.left.record == max_orbit("alpha", root, 40, 1e-12)


def test_find_matching_acts_through_min_rtol_atol():
    ranges = ((1.2, 2.4), (1.05, 1.9))
    a, b = (find_matching(*ranges, 8, 40, *pair) for pair in PAIRS)
    assert _solution_bits(a) == _solution_bits(b)
    # the tol = 1e-12 path: curves traced at tol, refined from the first
    # seed (these curves cross only after the w2 reflection)
    curves = (trace_curve("alpha", *ranges[0], 8, 40, 1e-12),
              trace_curve("beta", *ranges[1], 8, 40, 1e-12))
    assert matching_candidates(*curves, "w1") == []
    seed = matching_candidates(*curves, "w2")[0]
    fa, fb = refine_matching(*curves, seed, "w2", 40, 1e-12)
    assert _solution_bits(a) == _solution_bits(glue(fa, fb))


def test_run_verify_acts_through_min_rtol_atol(monkeypatch):
    tols = []

    def spy(*args, **kwargs):
        tols.append(kwargs["tol"])
        return integrate(*args, **kwargs)
    monkeypatch.setattr(cli, "integrate", spy)
    a, b = (cli.run_verify(*pair) for pair in PAIRS)
    assert a == b and a[0]
    assert tols == [1e-12] * 8     # two runs of four closed forms


@pytest.mark.parametrize("pair", [(math.nan, 1e-12), (1e-12, math.nan),
                                  (0.0, 1e-12), (1e-12, -1.0)],
                         ids=["rtol-nan", "atol-nan", "rtol-zero",
                              "atol-negative"])
@pytest.mark.parametrize("call", [
    lambda pair: solve_family("beta", 0.6, 40, *pair),
    lambda pair: find_doubling("alpha", (0.7, 1.0), "v0", 40, *pair),
    lambda pair: find_matching((1.2, 2.4), (1.05, 1.9), 8, 40, *pair),
    lambda pair: cli.run_verify(*pair),
], ids=["solve_family", "find_doubling", "find_matching", "run_verify"])
def test_an_invalid_tolerance_pair_is_rejected(call, pair):
    # the one tolerance is the pair's minimum, NaN where either member is
    # (min(1e-12, nan) would be 1e-12), and integrate rejects it
    with pytest.raises(InvalidArgumentError, match="tolerances"):
        call(pair)
