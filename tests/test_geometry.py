"""orbit_geometry: curvature scalars, Lyapunov functional, projections,
zero counting, comparison bounds."""
import math

import numpy as np
import pytest

from conftest import SQRT2, SQRT3
from nkshoot.errors import BoundaryAmbiguousError, BoundViolationError
from nkshoot.exact import NAMED_SOLUTIONS, eval_named
from nkshoot.geometry import (MaxOrbitRecord, bohm, comparison_bounds,
                              count_v0_zeros, derivative_consistency,
                              mean_curvature_matrix_form, project_H,
                              require_unambiguous, scalar_curvature,
                              traceless_L_norm2, volume_and_mean_curvature)
from nkshoot.integrate import MAX_VOLUME_EVENT, integrate
from nkshoot.series import handoff, series_psi_a, series_psi_b
from nkshoot.state import State


def test_sine_cone_volume_and_mean_curvature():
    for t in np.linspace(0.2, 2.9, 19):
        st = eval_named("sine-cone", t)
        V, l = volume_and_mean_curvature(st)
        assert abs(V - math.sin(t) ** 5) < 1e-13
        assert abs(l - 5 / math.tan(t)) < 1e-10 * max(1, abs(5 / math.tan(t)))


def test_homogeneous_event_values():
    st = eval_named("s3s3-homog", math.pi / (2 * SQRT3))
    V, l = volume_and_mean_curvature(st)
    assert abs(V - 4.0 / 3.0) < 1e-13
    assert abs(l) < 1e-12
    st = eval_named("cp3-homog", math.pi / (2 * SQRT2))
    V, l = volume_and_mean_curvature(st)
    assert abs(V - 27 * SQRT2 / 32) < 1e-13
    assert abs(l) < 1e-12


def test_mean_curvature_paths_agree():
    for name, t in (("sine-cone", 1.0), ("s6-round", 0.6),
                    ("s3s3-homog", 0.5), ("cp3-homog", 1.1)):
        st = eval_named(name, t)
        _, l = volume_and_mean_curvature(st)
        alt = mean_curvature_matrix_form(st)
        assert abs(l - alt) < 1e-9 * max(1.0, abs(l))


def test_scalar_curvature_sine_cone():
    # the slice metric is sin^2(t) times the reference, so Scal = 20/sin^2 t
    st = eval_named("sine-cone", math.pi / 2)
    assert abs(scalar_curvature(st) - 20.0) < 1e-12
    for t in (0.5, 1.1, 2.2):
        st = eval_named("sine-cone", t)
        assert abs(scalar_curvature(st) - 20.0 / math.sin(t) ** 2) < 1e-10


@pytest.mark.parametrize("name", sorted(NAMED_SOLUTIONS))
def test_scalar_curvature_against_trace_identity(name):
    # independent oracle: tracing the Riccati and Gauss equations gives
    # Scal = 25 + l^2 + l', with l' taken by finite differences of l = V'/V
    # along the closed form (no curvature formula involved)
    sol = NAMED_SOLUTIONS[name]
    lo, hi = sol.domain
    h = 1e-6
    for t in np.linspace(lo + 0.15 * (hi - lo), hi - 0.15 * (hi - lo), 9):
        _, l_p = volume_and_mean_curvature(sol.eval(t + h), check=False)
        _, l_m = volume_and_mean_curvature(sol.eval(t - h), check=False)
        _, l = volume_and_mean_curvature(sol.eval(t), check=False)
        l_prime = (l_p - l_m) / (2 * h)
        oracle = 25.0 + l * l + l_prime
        got = scalar_curvature(sol.eval(t))
        assert abs(got - oracle) < 1e-5 * max(1.0, abs(oracle))


def test_curvature_closure_identity():
    # Scal - 20 = l^2 - |L|^2 with |L|^2 = l^2/5 + |L0|^2 on shell
    _, start = handoff(series_psi_a(1.0))
    traj = integrate(start, math.pi, events=(MAX_VOLUME_EVENT,))
    for t in np.linspace(traj.t_start, traj.t_end, 9):
        st = traj.state_at(float(t))
        _, l = volume_and_mean_curvature(st)
        L2 = l * l / 5 + traceless_L_norm2(st)
        resid = scalar_curvature(st) - 20.0 - (l * l - L2)
        assert abs(resid) < 1e-7 * max(1.0, abs(scalar_curvature(st)))


def test_traceless_part_vanishes_on_sine_cone():
    for t in (0.4, math.pi / 2, 2.5):
        assert traceless_L_norm2(eval_named("sine-cone", t)) < 1e-13


def test_traceless_part_positive_on_family(alpha_sqrt3_solve):
    assert traceless_L_norm2(alpha_sqrt3_solve.record.state) > 1e-3
    from nkshoot.shoot import max_orbit
    assert traceless_L_norm2(max_orbit("alpha", 1.0).state) > 1e-3


def test_bohm_on_sine_cone():
    # the defining form is constant (= 20) along the whole sine-cone, and
    # both forms agree at the maximal-volume orbit
    for t in (0.5, 1.2, math.pi / 2, 2.0):
        bv = bohm(eval_named("sine-cone", t))
        assert abs(bv.B_alt - 20.0) < 1e-10
    bv = bohm(eval_named("sine-cone", math.pi / 2))
    assert abs(bv.B - 20.0) < 1e-13
    assert abs(bv.B - bv.B_alt) < 1e-12


def test_bohm_forms_agree_at_events(beta1_solve):
    bv = bohm(beta1_solve.record.state)
    assert abs(bv.l) < 1e-9
    assert abs(bv.B - bv.B_alt) < 1e-7 * bv.B
    assert abs(bv.B - 20.0 * bv.V ** 0.4) < 1e-9


def test_bohm_exceeds_20_at_family_events():
    from nkshoot.shoot import max_orbit
    rec = max_orbit("beta", 0.5)
    assert rec.B > 20.0
    assert abs(rec.B - 20.0 * rec.Vmax ** 0.4) < 1e-8


def test_project_H_homogeneous_event(beta1_solve):
    w = project_H(beta1_solve.record.state)
    assert abs(w[0] - 2 / SQRT3) < 1e-8
    assert abs(w[1] - 1 / SQRT3) < 1e-8
    assert abs(w[2]) < 1e-8


def test_project_H_normalization_on_shell():
    _, start = handoff(series_psi_b(0.7))
    traj = integrate(start, math.pi, events=(MAX_VOLUME_EVENT,))
    for t in np.linspace(traj.t_start, traj.t_end, 11):
        w0, w1, w2 = project_H(traj.state_at(float(t)))
        assert abs(w0 * w0 - w1 * w1 - w2 * w2 - 1.0) < 1e-8
        assert w0 > 0


def test_project_H_sine_cone_is_origin():
    for t in (0.4, 1.5, 2.8):
        w0, w1, w2 = project_H(eval_named("sine-cone", t))
        assert abs(w1) < 1e-14 and abs(w2) < 1e-14
        assert abs(w0 - 1.0) < 1e-13


def test_record_validation(beta1_solve):
    beta1_solve.record.validate()
    rec = beta1_solve.record
    assert rec.on_boundary_lambda_one          # u0(T) = 0 at b = 1
    assert not rec.on_boundary_mu_eq_lambda    # v0(T) = 2/3


def test_count_v0_zeros_homogeneous(beta1_solve):
    zc = count_v0_zeros(beta1_solve.traj)
    assert zc.count == 1
    assert not zc.boundary_ambiguous
    assert require_unambiguous(zc) == 1
    # the single zero of v0 = -(2/3) cos(2 sqrt3 t)
    assert abs(zc.zeros[0] - math.pi / (4 * SQRT3)) < 1e-9


def test_count_v0_zeros_alpha(alpha_sqrt3_solve):
    zc = count_v0_zeros(alpha_sqrt3_solve.traj)
    assert zc.count == 0
    assert not zc.boundary_ambiguous


def test_count_v0_zeros_small_b():
    from nkshoot.shoot import solve_family
    fs = solve_family("beta", 0.05)
    zc = count_v0_zeros(fs.traj)
    assert zc.count >= 2


def test_count_v0_boundary_ambiguous_at_doubling_root():
    from nkshoot.shoot import solve_family
    fs = solve_family("beta", 0.3736323881647852)
    zc = count_v0_zeros(fs.traj)
    assert zc.boundary_ambiguous
    with pytest.raises(BoundaryAmbiguousError):
        require_unambiguous(zc)


def test_comparison_bounds_sine_cone_equality():
    traj = integrate(eval_named("sine-cone", 0.3), 2.6)
    rep = comparison_bounds(traj)
    assert abs(rep.t0 - 0.3) < 1e-12
    # the comparison solution itself: equality throughout
    assert abs(rep.max_l_slack) < 1e-7
    assert abs(rep.max_v_slack) < 1e-7
    assert rep.existence_ok


def test_comparison_bounds_strict_for_family():
    _, start = handoff(series_psi_a(1.0))
    traj = integrate(start, math.pi, events=(MAX_VOLUME_EVENT,))
    rep = comparison_bounds(traj)
    assert rep.max_l_slack > 1e-6
    assert rep.max_v_slack > 0.0
    assert rep.existence_ok


def test_comparison_bounds_detect_violation():
    # fabricate growing-volume states on top of the marginal sine-cone
    # profile: the checker must flag the violation
    traj = integrate(eval_named("sine-cone", 0.3), 2.0)
    bad_states = traj.states.copy()
    factor = 1.0 + 0.5 * (traj.times - traj.times[0])
    bad_states[:, 1:4] *= factor[:, None]
    bad = type(traj)(times=traj.times, states=bad_states, dense=traj.dense,
                     hits=[], termination="horizon", drift=traj.drift)
    with pytest.raises(BoundViolationError):
        comparison_bounds(bad)


def test_mu_dot_identity_along_trajectory(beta1_solve):
    for t in np.linspace(beta1_solve.t_star, beta1_solve.record.T, 7):
        assert derivative_consistency(beta1_solve.traj.state_at(float(t))) < 1e-10
