"""orbit_geometry: curvature scalars, Lyapunov functional, projections,
zero counting, comparison bounds."""
import dataclasses
import math

import numpy as np
import pytest

from conftest import (SQRT2, SQRT3, derivative_consistency, float_bits,
                      mean_curvature_matrix_form, validate_record)
from nkshoot.errors import BoundViolationError, DegenerateStateError
from nkshoot.exact import NAMED_SOLUTIONS, eval_named
from nkshoot.geometry import (bohm, comparison_bounds, count_v0_zeros,
                              project_H, scalar_curvature, sign_changes,
                              traceless_L_norm2, volume_and_mean_curvature)
from nkshoot.integrate import MAX_VOLUME_EVENT, Trajectory, integrate
from nkshoot.series import _poly_states, handoff, series_psi_a, series_psi_b
from nkshoot.shoot import max_orbit
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
    # the evolution-equation l against the matrix-entry formula on on-shell
    # states: four closed-form points, the sine-cone grid, the two
    # homogeneous events and nine states of the alpha(1.0) trajectory
    states = [eval_named(name, t) for name, t in (
        ("sine-cone", 1.0), ("s6-round", 0.6), ("s3s3-homog", 0.5),
        ("cp3-homog", 1.1))]
    states += [eval_named("sine-cone", t) for t in np.linspace(0.2, 2.9, 19)]
    states += [eval_named("s3s3-homog", math.pi / (2 * SQRT3)),
               eval_named("cp3-homog", math.pi / (2 * SQRT2))]
    _, start = handoff(series_psi_a(1.0))
    traj = integrate(start, math.pi, events=(MAX_VOLUME_EVENT,))
    states += [traj.state_at(float(t))
               for t in np.linspace(traj.t_start, traj.t_end, 9)]
    for st in states:
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
        _, l_p = volume_and_mean_curvature(sol.eval(t + h))
        _, l_m = volume_and_mean_curvature(sol.eval(t - h))
        _, l = volume_and_mean_curvature(sol.eval(t))
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
    rec = max_orbit("beta", 0.5)
    assert rec.B > 20.0
    assert abs(rec.B - 20.0 * rec.Vmax ** 0.4) < 1e-8


@pytest.mark.parametrize("family,params", [
    ("alpha", (*np.geomspace(0.12, 4.0, 16), SQRT3 / 2, SQRT3)),
    ("beta", (*np.geomspace(0.12, 1.6, 16), 1.0))], ids=["alpha", "beta"])
def test_record_bohm_and_volume_bits(family, params):
    # the record computes B from (V, l) alone; it must equal bohm's B, and
    # Vmax the state's volume, bit for bit (cp3 at alpha = sqrt3/2, s6 at
    # alpha = sqrt3, s3s3 at beta = 1 are the closed-form members)
    for p in params:
        rec = max_orbit(family, float(p))
        assert float_bits([rec.B, rec.Vmax]) == float_bits(
            [bohm(rec.state).B, rec.state.volume])


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
    validate_record(beta1_solve.record)
    rec = beta1_solve.record
    assert rec.on_boundary_lambda_one          # u0(T) = 0 at b = 1
    assert not rec.on_boundary_mu_eq_lambda    # v0(T) = 2/3


def test_project_H_rejects_lambda_zero():
    # V = lambda mu^2 divides every coordinate
    st = eval_named("sine-cone", 0.8)
    with pytest.raises(DegenerateStateError, match="lambda = 0.0"):
        project_H(State(st.t, 0.0, st.u, st.v))


def test_count_v0_zeros_rejects_a_run_the_horizon_ended():
    # T is the maximal-volume time, so a run cut short has none
    _, start = handoff(series_psi_b(0.7))
    traj = integrate(start, 0.3, events=(MAX_VOLUME_EVENT,))
    assert traj.stopped_by is None
    with pytest.raises(ValueError, match="not stopped by the maximal-volume"):
        count_v0_zeros(traj)


def test_count_v0_zeros_homogeneous(beta1_solve):
    zc = count_v0_zeros(beta1_solve.traj)
    assert zc.count == 1
    assert not zc.boundary_ambiguous
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


def test_count_v0_zeros_small_b_pinned():
    # the two zeros of v0 before T for b = 0.05, as located on the DOP853
    # dense output of earlier versions; the Taylor engine's nodes differ
    from nkshoot.shoot import solve_family
    zc = count_v0_zeros(solve_family("beta", 0.05).traj)
    assert zc.count == 2 and not zc.boundary_ambiguous
    assert np.max(np.abs(np.subtract(
        zc.zeros, (0.29632479891793306, 1.260183955739824)))) < 1e-12


def test_count_v0_boundary_ambiguous_at_doubling_root():
    from nkshoot.shoot import solve_family
    fs = solve_family("beta", 0.3736323881647852)
    zc = count_v0_zeros(fs.traj)
    assert zc.boundary_ambiguous


def _one_step_v0_run(v0, nodes) -> Trajectory:
    """A maximal-volume run of one step, at the nodes, whose state is (1, 0,
    1, 0, v0(t), 0, 0), v0 the coefficients of a polynomial in t."""
    c = np.zeros((len(v0), 7))
    c[0, [0, 2]] = 1.0
    c[:, 4] = v0
    ts = np.array(nodes)
    return Trajectory(times=ts, states=_poly_states(c, ts),
                      starts=np.array([0.0]), coeffs=(c,),
                      termination="event", drift=np.zeros(len(ts)),
                      stopped_by="max-volume")


@pytest.mark.parametrize("v0, nodes, zeros", [
    ((0.5, -1.0), (0.25, 0.5, 0.75), (0.5,)),       # + 0 -: once
    ((0.5, -1.0), (0.2, 0.55), (0.5,)),             # between nodes
    ((0.375, -1.25, 1.0), (0.25, 0.5, 0.625, 1.0), (0.5, 0.75)),
    ((0.25, -1.0, 1.0), (0.25, 0.5, 0.75), ()),     # + 0 +: a touch
    ((0.0,), (0.25, 0.5, 0.75), ()),                # v0 = 0: the sine cone
    ((0.5, -1.0), (0.25, 0.5), ()),                 # a zero at T
], ids=["node", "between", "node-and-between", "touch", "zero", "at-T"])
def test_count_v0_zeros_on_a_node(v0, nodes, zeros):
    # a zero of v0 exactly on a node counts once, though its product with
    # either neighbour is 0 (the node values here are exact in floats)
    traj = _one_step_v0_run(v0, nodes)
    zc = count_v0_zeros(traj)
    assert zc.count == len(zeros)
    assert np.allclose(zc.zeros, zeros, rtol=0.0, atol=1e-15)
    assert zc.boundary_ambiguous == (traj.states[-1, 4] == 0.0)


def test_sign_changes_compare_signs_not_products():
    # two values below about 1e-162 have a product that underflows to
    # -0.0; their sign change still counts, a zero between two values still
    # once, and a NaN still not
    assert sign_changes([1e-170, -1e-170]) == [(0, 1)]
    assert sign_changes([-1e-170, 0.0, 1e-170, 1e-170]) == [(0, 2)]
    assert sign_changes([1e-170, math.nan, -1e-170]) == []
    for scale in (1.0, 1e-150, 1e-170):
        zc = count_v0_zeros(_one_step_v0_run((0.5 * scale, -scale),
                                             (0.25, 0.75)))
        assert zc.count == 1 and abs(zc.zeros[0] - 0.5) < 1e-15


def test_comparison_bounds_sine_cone_equality():
    traj = integrate(eval_named("sine-cone", 0.3), 2.6)
    rep = comparison_bounds(traj)
    assert abs(rep.t0 - 0.3) < 1e-12
    # the comparison solution itself: equality throughout
    assert abs(rep.max_l_slack) < 1e-7
    assert abs(rep.max_v_slack) < 1e-7


def test_comparison_bounds_strict_for_family():
    _, start = handoff(series_psi_a(1.0))
    traj = integrate(start, math.pi, events=(MAX_VOLUME_EVENT,))
    rep = comparison_bounds(traj)
    assert rep.max_l_slack > 1e-6
    assert rep.max_v_slack > 0.0


def test_comparison_bounds_detect_mean_curvature_violation():
    # the sine cone's states at twice their elapsed times: l is the sine
    # cone's 5 cot(t0 + r), above the bound 5 cot(t0 + 2 r)
    traj = integrate(eval_named("sine-cone", 0.3), 2.0)
    fast = dataclasses.replace(traj, times=2.0 * traj.times - traj.t_start)
    with pytest.raises(BoundViolationError, match="mean-curvature bound"):
        comparison_bounds(fast)


def test_comparison_bounds_detect_existence_violation():
    # every node after the start moved pi later: no solution from the
    # start reaches it
    traj = integrate(eval_named("sine-cone", 0.3), 2.0)
    late = dataclasses.replace(
        traj, times=np.concatenate(([traj.t_start], traj.times[1:] + math.pi)))
    with pytest.raises(BoundViolationError, match="existence bound"):
        comparison_bounds(late)


@pytest.mark.parametrize("where, bound", [("state", "mean-curvature bound"),
                                          ("time", "existence bound")],
                         ids=["state", "time"])
def test_comparison_bounds_raise_on_a_nan_node(where, bound):
    # a NaN u1 in a middle state, or a NaN middle time, satisfies no bound:
    # the first check it meets raises; each matches its own message, so a
    # later check that raises in its place does not pass it
    traj = integrate(eval_named("sine-cone", 0.3), 2.0)
    states, times = traj.states.copy(), traj.times.copy()
    if where == "state":
        states[5, 2] = math.nan
    else:
        times[5] = math.nan
    bad = dataclasses.replace(traj, states=states, times=times)
    with pytest.raises(BoundViolationError, match=bound):
        comparison_bounds(bad)


def test_comparison_bounds_detect_violation():
    # fabricate growing-volume states on top of the marginal sine-cone
    # profile: the checker must flag the violation
    traj = integrate(eval_named("sine-cone", 0.3), 2.0)
    bad_states = traj.states.copy()
    factor = 1.0 + 0.5 * (traj.times - traj.times[0])
    bad_states[:, 1:4] *= factor[:, None]
    bad = dataclasses.replace(traj, states=bad_states)
    with pytest.raises(BoundViolationError):
        comparison_bounds(bad)


def test_mu_dot_identity_along_trajectory(beta1_solve):
    for t in np.linspace(beta1_solve.t_star, beta1_solve.record.T, 7):
        assert derivative_consistency(beta1_solve.traj.state_at(float(t))) < 1e-10
