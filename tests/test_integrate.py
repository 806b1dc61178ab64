"""integrator: event location, dense output, guards, drift monitoring."""
import dataclasses
import math
import sys

import numpy as np
import pytest

from conftest import SQRT3
from nkshoot.errors import ConstraintDriftError, InvalidArgumentError
from nkshoot.exact import NAMED_SOLUTIONS, eval_named
from nkshoot.geometry import count_v0_zeros
from nkshoot.integrate import MAX_VOLUME_EVENT, EventSpec, integrate
from nkshoot.series import handoff, series_psi_a, series_psi_b
from nkshoot.state import State, apply_symmetry, rhs_vec


def test_sine_cone_max_volume_event():
    traj = integrate(eval_named("sine-cone", 0.3), math.pi,
                     events=(MAX_VOLUME_EVENT,))
    assert traj.termination == "event"
    assert abs(traj.t_end - math.pi / 2) < 1e-10


def test_psi_b_unit_event_time():
    _, start = handoff(series_psi_b(1.0))
    traj = integrate(start, math.pi, events=(MAX_VOLUME_EVENT,))
    assert abs(traj.t_end - math.pi / (2 * SQRT3)) < 1e-9


def test_psi_a_sqrt3_event_volume():
    _, start = handoff(series_psi_a(SQRT3))
    traj = integrate(start, math.pi, events=(MAX_VOLUME_EVENT,))
    V = State.from_vec(traj.t_end, traj.states[-1]).volume
    assert abs(V - 81 * SQRT3 / (25 * math.sqrt(5))) < 1e-8


def test_resample_at_node_is_node_state():
    traj = integrate(eval_named("sine-cone", 0.3), 1.5)
    k = len(traj.times) // 2
    st = traj.state_at(float(traj.times[k]))
    assert np.max(np.abs(st.vec - traj.states[k])) < 1e-14


def test_resample_sine_cone_closed_form():
    traj = integrate(eval_named("sine-cone", 0.3), 1.5)
    st = traj.state_at(1.0)
    assert abs(st.lam - math.sin(1.0)) < 1e-9


def test_resample_cp3_v0_vanishes_at_max_orbit():
    _, start = handoff(series_psi_a(SQRT3 / 2))
    traj = integrate(start, 1.2)
    st = traj.state_at(math.pi / (2 * math.sqrt(2)))
    assert abs(st.v[0]) < 1e-9


def test_resample_out_of_span():
    traj = integrate(eval_named("sine-cone", 0.3), 1.0)
    with pytest.raises(ValueError):
        traj.state_at(2.0)


def test_tolerance_scaling_consistent_with_high_order():
    # endpoint error against the closed form falls with the tolerance
    start = eval_named("sine-cone", 0.3)
    errs = []
    for tol in (1e-6, 1e-9, 1e-12):
        traj = integrate(start, 2.2, rtol=tol, atol=tol)
        ref = eval_named("sine-cone", 2.2)
        errs.append(float(np.max(np.abs(traj.state_at(2.2).vec - ref.vec))))
    assert errs[2] < 1e-9
    assert errs[2] <= errs[1] * 1.5 and errs[1] <= errs[0] * 1.5
    assert errs[2] < errs[0] * 1e-2


def test_reversibility_via_tau1():
    start = eval_named("s3s3-homog", 0.4)
    delta = 0.5
    fwd = integrate(start, start.t + delta)
    end = fwd.state_at(start.t + delta)
    # tau1 data-reversal maps the solution to one in -t; integrate forward
    rev_start = apply_symmetry("tau1", end)
    back = integrate(rev_start, rev_start.t + delta, allow_unoriented=True)
    recovered = apply_symmetry("tau1", back.state_at(rev_start.t + delta))
    assert np.max(np.abs(recovered.vec - start.vec)) < 1e-8
    assert abs(recovered.t - start.t) < 1e-14


def test_event_refinement_idempotent():
    # the located event time is a root of the event function on the
    # interpolant
    traj = integrate(eval_named("sine-cone", 0.3), math.pi,
                     events=(MAX_VOLUME_EVENT,))
    t0 = traj.t_end
    assert abs(MAX_VOLUME_EVENT(t0, traj.state_at(t0).vec)) < 1e-13


@pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.3, 0.1],
                         ids=["nan", "inf", "at-start", "backward"])
def test_integrate_runs_forward_only(monkeypatch, horizon):
    # rejected before any work: no Taylor jet is taken (the package
    # rebinds the name nkshoot.integrate to the function, so the module is
    # reached through sys.modules)
    def no_jet(*args, **kwargs):
        raise AssertionError("_jet called")
    monkeypatch.setattr(sys.modules["nkshoot.integrate"], "_jet", no_jet)
    with pytest.raises(InvalidArgumentError, match="horizon"):
        integrate(eval_named("sine-cone", 0.3), horizon)


def test_drift_on_closed_forms_over_principal_interval():
    for name in ("sine-cone", "s6-round", "s3s3-homog", "cp3-homog"):
        sol = __import__("nkshoot.exact", fromlist=["x"]).NAMED_SOLUTIONS[name]
        lo, hi = sol.domain
        span = hi - lo
        traj = integrate(sol.eval(lo + 0.05 * span), hi - 0.05 * span)
        assert float(np.max(traj.drift)) < 1e-9, name


def test_singularity_guard_mu2():
    # run a beta member backward toward its 3-sphere orbit: mu^2 -> 0 is a
    # resolved approach and the guard stops exactly at the threshold
    _, start = handoff(series_psi_b(0.8))
    rev = apply_symmetry("tau1", start)
    traj = integrate(rev, rev.t + 0.5, allow_unoriented=True)
    assert (traj.termination, traj.stopped_by) == ("singularity", "guard-mu2")
    end = traj.states[-1]
    mu2 = -end[1] ** 2 + end[2] ** 2 + end[3] ** 2
    assert abs(mu2 - 1e-12) < 1e-13
    assert np.all(np.isfinite(traj.states))


def test_never_extrapolates_past_second_singularity():
    # forward runs with no event stop (guard or step collapse)
    # strictly before the existence bound
    from nkshoot.errors import StepSizeCollapseError
    for family, param in (("beta", 0.4), ("alpha", 1.0)):
        sol = (series_psi_b if family == "beta" else series_psi_a)(param)
        _, start = handoff(sol)
        try:
            traj = integrate(start, math.pi)
            assert traj.termination == "singularity"
            assert traj.t_end < math.pi
            assert np.all(np.isfinite(traj.states))
        except StepSizeCollapseError as e:
            assert e.last_state is not None
            assert e.last_state.t < math.pi


def test_constraint_drift_abort():
    st = eval_named("sine-cone", 0.8)
    off = State(st.t, st.lam, st.u, (st.v[0], st.v[1] + 0.05, st.v[2]))
    with pytest.raises(ConstraintDriftError):
        integrate(off, 2.0)


def test_first_event_stops_the_run():
    # beta(0.05) has v0 zeros before its maximal-volume orbit: a v0 event
    # beside the maximal-volume one stops the run at the first of them,
    # which is the last node and count_v0_zeros' first zero
    _, start = handoff(series_psi_b(0.05))
    v0_zero = EventSpec("v0-zero", fn_vec=lambda t, y: y[4])
    traj = integrate(start, math.pi, events=(MAX_VOLUME_EVENT, v0_zero))
    assert (traj.termination, traj.stopped_by) == ("event", "v0-zero")
    full = integrate(start, math.pi, events=(MAX_VOLUME_EVENT,))
    assert full.stopped_by == "max-volume"
    zeros = count_v0_zeros(full).zeros
    assert len(zeros) >= 2
    assert abs(traj.t_end - zeros[0]) < 1e-12


def test_trajectory_is_immutable():
    traj = integrate(eval_named("sine-cone", 0.3), math.pi,
                     events=(MAX_VOLUME_EVENT,))
    with pytest.raises(dataclasses.FrozenInstanceError):
        traj.termination = "horizon"


def test_recorded_program_first_column_is_rhs_vec():
    # the program recorded from rhs_vec reproduces it to an ulp (its
    # divisions become products with recorded reciprocals) on closed-form
    # states and on states along members across the sweep ranges
    jet = sys.modules["nkshoot.integrate"]._jet
    states = []
    for sol in NAMED_SOLUTIONS.values():
        lo, hi = sol.domain
        states += [sol.eval(lo + f * (hi - lo)).vec
                   for f in (0.1, 0.3, 0.5, 0.7, 0.9)]
    for series, param in ((series_psi_a, 0.12), (series_psi_a, 4.0),
                          (series_psi_b, 0.12), (series_psi_b, 1.6)):
        _, start = handoff(series(param))
        traj = integrate(start, math.pi, events=(MAX_VOLUME_EVENT,))
        states += list(traj.states[::5])
    for y in states:
        want = rhs_vec(0.0, y)
        assert np.all(np.abs(jet(y, 1)[1] - want)
                      <= 2 * np.spacing(np.abs(want)))


def _reference_jet(y, order):
    # the jet as the table's output matrix gives it: every order is the
    # matrix product with the recorded outputs of rhs_vec
    program = sys.modules["nkshoot.integrate"]._PROGRAM
    (F, F_const), = program.outputs
    C = program.table(order)
    C[:7, 0] = y
    program.advance(C, 0)
    C[:7, 1] = F @ C[:, 0] + F_const
    for k in range(1, order):
        program.advance(C, k)
        C[:7, k + 1] = (F @ C[:, k]) / (k + 1)
    return C[:7].T


def test_jet_equals_the_output_matrix_product():
    # bit for bit, signed zeros included, on states along four members and
    # on one with u0 = -0.0, whose v0' = 4 lambda u0 the matrix product
    # gives as +0.0
    integ = sys.modules["nkshoot.integrate"]
    order, _ = integ._order_and_tol(1e-12, 1e-12)
    states = []
    for series, param in ((series_psi_a, 0.3), (series_psi_a, 1.0),
                          (series_psi_b, 0.4), (series_psi_b, 1.0)):
        _, start = handoff(series(param))
        traj = integrate(start, math.pi, events=(MAX_VOLUME_EVENT,))
        states += list(traj.states[::9]) + [traj.states[-1]]
    zero = states[-1].copy()
    zero[1] = -0.0
    states.append(zero)
    for y in states:
        got, want = integ._jet(y, order), _reference_jet(y, order)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("series, param", [(series_psi_a, 0.3),
                                           (series_psi_b, 1.0)],
                         ids=["alpha-0.3", "beta-1"])
def test_event_step_reaches_past_the_event(series, param):
    # the last step's polynomial holds the run's tolerance up to its reach,
    # beyond the event: it agrees there with a run from the event state,
    # whose steps are not the event run's
    poly_states = sys.modules["nkshoot.integrate"]._poly_states
    _, start = handoff(series(param))
    traj = integrate(start, math.pi, events=(MAX_VOLUME_EVENT,))
    reach = traj.dense.reach
    assert reach > traj.t_end
    got = poly_states(traj.dense.coeffs[-1], reach - traj.dense.starts[-1])
    want = integrate(State.from_vec(traj.t_end, traj.states[-1]),
                     reach).states[-1]
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("series, param", [(series_psi_a, 0.3),
                                           (series_psi_b, 0.4)],
                         ids=["alpha-0.3", "beta-0.4"])
def test_series_is_the_first_step(series, param):
    # the series step is expanded about the singular orbit, begins at the
    # handoff and ends where _step_size says the series reaches; the run
    # finds the event a jet-only run finds
    integ = sys.modules["nkshoot.integrate"]
    sol = series(param)
    _, start = handoff(sol)
    traj = integrate(start, math.pi, events=(MAX_VOLUME_EVENT,),
                     series=sol.t_coeffs)
    _, tol = integ._order_and_tol(1e-12, 1e-12)
    reach = integ._step_size(sol.t_coeffs, tol)
    assert traj.dense.starts[0] == 0.0
    assert traj.dense.coeffs[0] is sol.t_coeffs
    assert traj.t_start == start.t
    assert abs(traj.dense.starts[1] - reach) <= 4 * np.finfo(float).eps
    jets = integrate(start, math.pi, events=(MAX_VOLUME_EVENT,))
    assert abs(traj.t_end - jets.t_end) < 1e-12
    assert np.max(np.abs(traj.states[-1] - jets.states[-1])) < 1e-12


def test_series_must_pass_through_start():
    sol = series_psi_b(0.4)
    _, start = handoff(sol)
    other = series_psi_b(0.4 * (1 + 1e-9)).t_coeffs
    with pytest.raises(InvalidArgumentError, match="series misses start"):
        integrate(start, math.pi, series=other)
