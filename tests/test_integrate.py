"""integrator: event location, dense output, guards, drift monitoring."""
import dataclasses
import math
import sys

import numpy as np
import pytest

from conftest import SQRT3
from nkshoot.errors import ConstraintDriftError, InvalidArgumentError
from nkshoot.exact import eval_named
from nkshoot.integrate import MAX_VOLUME_EVENT, EventSpec, integrate
from nkshoot.series import handoff, series_psi_a, series_psi_b
from nkshoot.state import State, apply_symmetry


def test_sine_cone_max_volume_event():
    traj = integrate(eval_named("sine-cone", 0.3), math.pi,
                     events=(MAX_VOLUME_EVENT,))
    hit = traj.first_hit("max-volume")
    assert traj.termination == "event"
    assert abs(hit.t - math.pi / 2) < 1e-10


def test_psi_b_unit_event_time():
    _, start = handoff(series_psi_b(1.0))
    traj = integrate(start, math.pi, events=(MAX_VOLUME_EVENT,))
    assert abs(traj.first_hit("max-volume").t - math.pi / (2 * SQRT3)) < 1e-9


def test_psi_a_sqrt3_event_volume():
    _, start = handoff(series_psi_a(SQRT3))
    traj = integrate(start, math.pi, events=(MAX_VOLUME_EVENT,))
    V = traj.first_hit("max-volume").state.volume
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
    t0 = traj.first_hit("max-volume").t
    assert abs(MAX_VOLUME_EVENT(t0, traj.state_at(t0).vec)) < 1e-13


@pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.3, 0.1],
                         ids=["nan", "inf", "at-start", "backward"])
def test_integrate_runs_forward_only(monkeypatch, horizon):
    # rejected before any work: solve_ivp is never reached (the package
    # rebinds the name nkshoot.integrate to the function, so the module is
    # reached through sys.modules)
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_ivp called")
    monkeypatch.setattr(sys.modules["nkshoot.integrate"], "solve_ivp",
                        no_solve)
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
    assert traj.termination == "singularity"
    end = traj.states[-1]
    mu2 = -end[1] ** 2 + end[2] ** 2 + end[3] ** 2
    assert abs(mu2 - 1e-12) < 1e-13
    assert np.all(np.isfinite(traj.states))


def test_never_extrapolates_past_second_singularity():
    # forward runs with no terminal event stop (guard or step collapse)
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


def test_non_terminal_event_collects_all_hits():
    _, start = handoff(series_psi_b(0.05))
    traj = integrate(start, math.pi,
                     events=(MAX_VOLUME_EVENT,
                             EventSpec("v0-zero", fn_vec=lambda t, y: y[4])))
    zeros = traj.hits_named("v0-zero")
    assert len(zeros) >= 2
    assert all(traj.t_start < h.t for h in zeros)


def test_trajectory_is_immutable():
    traj = integrate(eval_named("sine-cone", 0.3), math.pi,
                     events=(MAX_VOLUME_EVENT,))
    assert isinstance(traj.hits, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        traj.termination = "horizon"
