"""shooting: family solves, curve tracing, doubling and matching roots,
gluing, scans."""
import math

import numpy as np
import pytest

from conftest import SQRT2, SQRT3
from nkshoot import series, shoot
from nkshoot.errors import (EventNotFoundError, JunctionMismatchError,
                            NKError, NoSignChangeError)
from nkshoot.exact import eval_named
from nkshoot.geometry import project_H
from nkshoot.shoot import (find_doubling, find_matching, glue,
                           junction_derivative_gap, matching_candidates,
                           max_orbit, refine_matching, scan_s2s4_boundary,
                           solve_family, trace_curve)

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
        rec.validate()


def test_trace_alpha_vmax_landmarks():
    curve = trace_curve("alpha", 0.1, 3.0, n_samples=10)
    for rec in curve.records:
        rec.validate()
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
    # brentq evaluates the bracket ends again and returns a point it has
    # evaluated, so every family member is solved once, the root included
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
    # with a typed error (its iterates head to b <= 0) instead of leaking
    # the series' ValueError or returning a point that is not a root
    calls = count_solves(monkeypatch)
    with pytest.raises(NKError):
        refine_matching((0.56, 0.60), "none")
    assert len(calls) < 60


def test_refine_matching_solves_each_member_once(monkeypatch):
    # hybr evaluates F at the seed repeatedly and each finite-difference
    # column repeats one parameter; every family member is solved once
    calls = count_solves(monkeypatch)
    fa, fb = refine_matching((0.56, 0.60), "w1")
    assert abs(fa.param - 0.5646) < 0.003 and abs(fb.param - 0.5985) < 0.003
    assert len(calls) == len(set(calls))


def test_find_matching_solves_each_member_once(monkeypatch):
    # the root pair refine_matching evaluated is glued, not solved again
    calls = count_solves(monkeypatch)
    sol = find_matching((1.2, 2.4), (1.05, 1.9), n_samples=8)
    assert abs(sol.param_left - SQRT3) < 1e-6
    assert len(calls) == len(set(calls))


@pytest.mark.parametrize("family,param,inversions",
                         [("beta", 0.599, 1), ("alpha", 0.5646, 0)])
def test_handoff_searched_once_per_solve(monkeypatch, family, param,
                                         inversions):
    # one validated-radius search per solve; a variable-s series inverts
    # t(s) at t* once, shared by the handoff and the series volume
    searches, brentqs = [], []
    radius, brentq = series.SeriesSolution.validated_radius, series.brentq

    def counted_radius(self, start):
        searches.append(start)
        return radius(self, start)

    def counted_brentq(*args, **kwargs):
        brentqs.append(args[1:3])
        return brentq(*args, **kwargs)

    monkeypatch.setattr(series.SeriesSolution, "validated_radius",
                        counted_radius)
    monkeypatch.setattr(series, "brentq", counted_brentq)
    solve_family(family, param)
    assert len(searches) == 1
    assert len(brentqs) == inversions


def test_probe_covers_its_guard_interval(monkeypatch):
    # at b = 1 the event function is >= 0 at T by round-off; the probe must
    # still run over the whole window instead of stopping at that crossing
    trajs = []
    original = shoot.integrate

    def spy(*args, **kwargs):
        trajs.append(original(*args, **kwargs))
        return trajs[-1]

    monkeypatch.setattr(shoot, "integrate", spy)
    fs = solve_family("beta", 1.0)
    probe = trajs[-1]
    assert probe.t_start == fs.record.T
    assert probe.t_end == fs.record.T + shoot.EVENT_GUARD_INTERVAL
    assert probe.termination == "horizon"


def test_probe_rejects_a_later_critical_point(beta1_solve):
    # started before T, the probe crosses the maximal-volume orbit
    T = beta1_solve.record.T
    with pytest.raises(EventNotFoundError):
        shoot._confirm_unique_maximum(beta1_solve.traj.state_at(T - 0.05),
                                      1e-12, 1e-12)


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
