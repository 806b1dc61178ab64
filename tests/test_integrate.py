"""integrator: event location, dense output, guards, drift monitoring."""
import dataclasses
import math
import sys

import numpy as np
import pytest

from conftest import (SQRT3, float_bits, reference_advance,
                      reference_crossings, reference_node_values,
                      reference_step_size, reference_table)
from nkshoot.errors import (ConstraintDriftError, DegenerateStateError,
                            InvalidArgumentError, StepSizeCollapseError)
from nkshoot.exact import NAMED_SOLUTIONS, eval_named
from nkshoot.geometry import count_v0_zeros
from nkshoot.integrate import GUARDS, MAX_VOLUME_EVENT, EventSpec, integrate
from nkshoot.series import _COMPONENTS, handoff, series_psi_a, series_psi_b
from nkshoot.shoot import solve_family
from nkshoot.state import State, apply_symmetry, constraints, rhs_vec


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
        traj = integrate(start, 2.2, tol=tol)
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
    rev_start = apply_symmetry("tau1.tau4", end)
    back = integrate(rev_start, rev_start.t + delta)
    recovered = apply_symmetry("tau1.tau4", back.state_at(rev_start.t + delta))
    assert np.max(np.abs(recovered.vec - start.vec)) < 1e-8
    assert abs(recovered.t - start.t) < 1e-14


def test_event_refinement_idempotent():
    # the located event time is a root of the event function on the
    # interpolant
    traj = integrate(eval_named("sine-cone", 0.3), math.pi,
                     events=(MAX_VOLUME_EVENT,))
    t0 = traj.t_end
    assert abs(MAX_VOLUME_EVENT.fn_vec(t0, traj.state_at(t0).vec)) < 1e-13


def test_root_takes_hi_when_rounding_undoes_the_bracket(monkeypatch):
    # the node scan saw a sign change that g at the node ends no longer
    # shows: the root is the node hi, with no search
    def no_search(*args):
        raise AssertionError("bracketed_root called")
    integ = sys.modules["nkshoot.integrate"]
    monkeypatch.setattr(integ, "bracketed_root", no_search)
    assert integ._root(lambda t: 1.0 + t, 0.25, 0.5) == 0.5


def test_root_compares_signs_not_products():
    # ends of one sign whose product underflows to 0.0 are of one sign all
    # the same: the root is hi, as with ends of ordinary size; ends of
    # opposite signs are refined at any size
    integ = sys.modules["nkshoot.integrate"]
    for scale in (1.0, 1e-170):
        assert integ._root(lambda t: scale * (1.0 + t), 0.0, 1.0) == 1.0
        assert integ._root(lambda t: scale * (t - 0.25), 0.0, 1.0) == 0.25


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
    rev = apply_symmetry("tau1.tau4", start)
    traj = integrate(rev, rev.t + 0.5)
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


@pytest.mark.parametrize("lam", [None, 0.0, 1e-8], ids=["tau4", "zero", "floor"])
def test_start_with_lambda_at_most_its_floor_rejected(lam):
    # a start needs lambda > LAMBDA_MIN = 1e-8; tau4 maps the sine cone to
    # a solution with lambda < 0 and u1 v2 - u2 v1 > 0
    st = eval_named("sine-cone", 0.8)
    start = (apply_symmetry("tau4", st) if lam is None
             else State(st.t, lam, st.u, st.v))
    with pytest.raises(DegenerateStateError, match="start has guard-lambda = "):
        integrate(start, 2.0)


_GUARD_STARTS = {
    "guard-lambda": State(0.0, 1e-8, (0.0, 1.0, 0.0), (0.0, 1.0, 1.0)),
    "guard-mu2": State(0.0, 1.0, (1.0, 1.0, 0.0), (0.0, 1.0, 1.0)),
    # on shell (every first integral is 0.0), with v1 = 2^34 above 1e8
    "guard-magnitude": State(0.0, 1.0, (0.0, 0.0, -2.0 ** 17),
                             (math.sqrt(2.0 ** 68 - 2.0 ** 34), 2.0 ** 34,
                              0.0)),
}


@pytest.mark.parametrize("guard", GUARDS)
def test_start_outside_a_guard_rejected(guard):
    # each start is finite and oriented, and only its named guard value is
    # at most 0; a guard stops a run only where it falls through zero, so
    # the start itself must be checked against every guard
    start = _GUARD_STARTS[guard]
    assert start.orient > 0.0
    if guard == "guard-magnitude":
        assert constraints(start).max_abs == 0.0
    with pytest.raises(DegenerateStateError, match=f"start has {guard} = "):
        integrate(start, 1e-6)


def test_unoriented_start_rejected():
    # tau3 keeps lambda > 0 but flips the sign of u1 v2 - u2 v1
    start = apply_symmetry("tau3", eval_named("sine-cone", 0.8))
    assert start.lam > 0.0 and start.orient < 0.0
    with pytest.raises(DegenerateStateError, match="violates orientation"):
        integrate(start, 2.0)


def test_first_event_stops_the_run():
    # beta(0.05) has v0 zeros before its maximal-volume orbit: a v0 event
    # beside the maximal-volume one stops the run at the first of them,
    # which is the last node and count_v0_zeros' first zero; v0 starts at
    # -(2/3) b^3, so its first zero rises and the event is -v0
    _, start = handoff(series_psi_b(0.05))
    v0_zero = EventSpec("v0-zero", fn_vec=lambda t, y: -y[4])
    traj = integrate(start, math.pi, events=(MAX_VOLUME_EVENT, v0_zero))
    assert (traj.termination, traj.stopped_by) == ("event", "v0-zero")
    full = integrate(start, math.pi, events=(MAX_VOLUME_EVENT,))
    assert full.stopped_by == "max-volume"
    zeros = count_v0_zeros(full).zeros
    assert len(zeros) >= 2
    assert traj.t_end == zeros[0]


def test_every_row_stops_the_run_where_it_falls_through_zero():
    # at beta(0.05), where v0 starts negative, v0 alone stops the run at
    # count_v0_zeros' second zero, its first falling one, and the pair
    # (v0, -v0), a zero either way, at the first
    _, start = handoff(series_psi_b(0.05))
    zeros = count_v0_zeros(integrate(start, math.pi,
                                     events=(MAX_VOLUME_EVENT,))).zeros
    v0 = EventSpec("v0", fn_vec=lambda t, y: y[4])
    minus_v0 = EventSpec("-v0", fn_vec=lambda t, y: -y[4])
    pair = integrate(start, math.pi, events=(v0, minus_v0))
    assert pair.t_end == zeros[0]
    alone = integrate(start, math.pi, events=(v0,))
    assert (alone.stopped_by, alone.t_end) == ("v0", zeros[1])


def test_event_returning_a_list_is_accepted():
    # fn_vec may return any array-like: an event that gives a Python list
    # on the nodes stops the run where its ndarray twin does
    _, start = handoff(series_psi_b(0.05))
    as_array = EventSpec("v0-zero", fn_vec=lambda t, y: y[4])
    as_list = EventSpec("v0-zero", fn_vec=lambda t, y: y[4].tolist())
    ref = integrate(start, math.pi, events=(as_array,))
    traj = integrate(start, math.pi, events=(as_list,))
    assert traj.stopped_by == ref.stopped_by == "v0-zero"
    assert traj.t_end == ref.t_end
    assert np.array_equal(traj.states, ref.states)


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
    # matrix product with the recorded outputs of rhs_vec, and the table's
    # columns come from the plain relaxed recurrence; column-major, as the
    # table's first seven rows transposed
    program = sys.modules["nkshoot.integrate"]._PROGRAM
    F, F_const = program.output
    C = reference_table(program, order)
    C[:7, 0] = y
    reference_advance(program, C, 0)
    C[:7, 1] = F @ C[:, 0] + F_const
    for k in range(1, order):
        reference_advance(program, C, k)
        C[:7, k + 1] = (F @ C[:, k]) / (k + 1)
    return C[:7].T


def test_jet_equals_the_output_matrix_product():
    # bit for bit, signed zeros included, on states along four members and
    # on one with u0 = -0.0, whose v0' = 4 lambda u0 the matrix product
    # gives as +0.0; and so are the states at a step's nodes, which a
    # row-major jet with the same coefficients rounds differently
    integ = sys.modules["nkshoot.integrate"]
    order, tol = integ._order_and_tol(1e-12)
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
        # one node at a time, as root refinement and the dense output
        # evaluate, and all of a step's nodes at once
        offsets = integ._step_size(got, tol) * integ._FRAC
        for tau in [offsets, *offsets]:
            assert np.array_equal(integ._poly_states(got, tau),
                                  integ._poly_states(want, tau))


@pytest.mark.parametrize("tol", [30.0, 100.0, 1000.0])
def test_tolerances_too_loose_for_a_jet_rejected(tol):
    # tol >= 25.8 leaves a jet of order 1 or less, from which
    # no step size follows
    with pytest.raises(InvalidArgumentError, match="too loose"):
        integrate(eval_named("sine-cone", 0.3), 1.0, tol=tol)


def _per_spec_replay(traj, lambda_min, magnitude_max, drift_abort):
    # the run traj, which reached its horizon, replayed step by step by a
    # per-spec scan independent of the node pass: each guard a separate
    # function of the nodes, the drift from constraints(), the thresholds
    # given. Returns ("stop", name, t, y) for the crossing that ends the
    # run, or ("drift", t_bad, t_good, y_good) for a drift abort
    integ = sys.modules["nkshoot.integrate"]
    specs = [
        EventSpec("guard-lambda", lambda t, y: y[0] - lambda_min),
        EventSpec("guard-mu2", lambda t, y: (-y[1] * y[1] + y[2] * y[2]
                                             + y[3] * y[3]) - 1e-12),
        EventSpec("guard-magnitude", lambda t, y: magnitude_max
                  - np.max(np.abs(y), axis=0)),
    ]

    def drift(t, y):
        st = State.from_vec(t, y)
        return constraints(st).rel_drift(st)

    def first_bad(ts, ys, t_prev, y_prev):
        for k, (t, y) in enumerate(zip(ts, ys)):
            if drift(t, y) > drift_abort:
                t_good, y_good = (ts[k - 1], ys[k - 1]) if k else (t_prev,
                                                                   y_prev)
                return "drift", t, t_good, y_good
        return None

    def refine(spec, c, t0, lo, hi):
        return integ._root(lambda s: float(
            spec.fn_vec(s, integ._poly_states(c, s - t0))), lo, hi)

    n = integ.STEP_SAMPLES + 1
    t, y = traj.times[0], traj.states[0]
    bad = first_bad([t], [y], t, y)
    if bad:
        return bad
    g = [spec.fn_vec(t, y) for spec in specs]
    for i, (t0, c) in enumerate(zip(traj.starts, traj.coeffs)):
        nodes = slice(1 + n * i, 1 + n * (i + 1))
        ts, ys = traj.times[nodes], traj.states[nodes]
        vals = [[gi, *spec.fn_vec(ts, ys.T)] for gi, spec in zip(g, specs)]
        for j in range(n):
            falls = [r for r, v in enumerate(vals) if v[j] > 0.0 >= v[j + 1]]
            if falls:
                lo, hi = [t, *ts][j:j + 2]
                t_hit, r = min((refine(specs[r], c, t0, lo, hi), r)
                               for r in falls)
                end = int(np.searchsorted(ts, t_hit))
                y_hit = integ._poly_states(c, t_hit - t0)
                return first_bad([*ts[:end], t_hit], [*ys[:end], y_hit],
                                 t, y) or ("stop", specs[r].name, t_hit,
                                           y_hit)
        bad = first_bad(ts, ys, t, y)
        if bad:
            return bad
        g = [v[-1] for v in vals]
        t, y = ts[-1], ys[-1]
    raise AssertionError("the replay found no stop")


@pytest.mark.parametrize("case", ["guard-lambda", "guard-magnitude",
                                  "drift"])
def test_node_pass_matches_the_per_spec_scan(monkeypatch, case):
    # lowered thresholds make each guard end a sine-cone run (lambda =
    # sin t falls to 0.5 at t = 5 pi / 6, max|y| = sin t reaches 0.9 at
    # asin(0.9)) and the drift abort fire at an interior node of a later
    # step; the run stops where the per-spec replay of the same steps does
    integ = sys.modules["nkshoot.integrate"]
    start = eval_named("sine-cone", 0.8)
    full = integrate(start, 3.0)
    n = integ.STEP_SAMPLES + 1
    limits = {"lambda_min": integ.LAMBDA_MIN,
              "magnitude_max": integ.COMPONENT_MAGNITUDE_MAX,
              "drift_abort": integ.DRIFT_ABORT}
    if case == "guard-lambda":
        limits["lambda_min"], expect = 0.5, 5 * math.pi / 6
        monkeypatch.setattr(integ, "LAMBDA_MIN", 0.5)
    elif case == "guard-magnitude":
        limits["magnitude_max"], expect = 0.9, math.asin(0.9)
        monkeypatch.setattr(integ, "COMPONENT_MAGNITUDE_MAX", 0.9)
    else:
        k = next(k for k in range(n + 1, len(full.drift))
                 if k % n and full.drift[k] > np.max(full.drift[:k]))
        limits["drift_abort"] = float(np.max(full.drift[:k]))
        monkeypatch.setattr(integ, "DRIFT_ABORT", limits["drift_abort"])
    want = _per_spec_replay(full, **limits)
    if case == "drift":
        assert want[:2] == ("drift", full.times[k])
        with pytest.raises(ConstraintDriftError) as err:
            integrate(start, 3.0)
        assert err.value.t_bad == want[1]
        assert err.value.last_state == State.from_vec(want[2], want[3])
        return
    traj = integrate(start, 3.0)
    assert want[:2] == ("stop", case)
    assert (traj.termination, traj.stopped_by) == ("singularity", case)
    # the nodes before the crossing are the full run's
    assert np.all(np.diff(traj.times) > 0.0)
    assert np.array_equal(traj.times[:-1], full.times[:len(traj.times) - 1])
    assert traj.t_end == want[2]
    assert np.array_equal(traj.states[-1], want[3])
    assert abs(traj.t_end - expect) < 1e-9


@pytest.mark.parametrize("series, param", [(series_psi_a, 0.3),
                                           (series_psi_b, 1.0)],
                         ids=["alpha-0.3", "beta-1"])
def test_event_step_reaches_past_the_event(series, param):
    # the last step's polynomial holds the run's tolerance up to its planned
    # end, beyond the event: it agrees there with a run from the event
    # state, whose steps are not the event run's
    integ = sys.modules["nkshoot.integrate"]
    _, start = handoff(series(param))
    traj = integrate(start, math.pi, events=(MAX_VOLUME_EVENT,))
    _, tol = integ._order_and_tol(1e-12)
    c = traj.coeffs[-1]
    reach = traj.starts[-1] + integ._step_size(c, tol)
    assert reach > traj.t_end
    got = integ._poly_states(c, reach - traj.starts[-1])
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
    _, tol = integ._order_and_tol(1e-12)
    reach = integ._step_size(sol.t_coeffs, tol)
    assert traj.starts[0] == 0.0
    assert traj.coeffs[0] is sol.t_coeffs
    assert traj.t_start == start.t
    assert abs(traj.starts[1] - reach) <= 4 * np.finfo(float).eps
    jets = integrate(start, math.pi, events=(MAX_VOLUME_EVENT,))
    assert abs(traj.t_end - jets.t_end) < 1e-12
    assert np.max(np.abs(traj.states[-1] - jets.states[-1])) < 1e-12


def test_series_must_pass_through_start():
    sol = series_psi_b(0.4)
    _, start = handoff(sol)
    other = series_psi_b(0.4 * (1 + 1e-9)).t_coeffs
    with pytest.raises(InvalidArgumentError, match="series misses start"):
        integrate(start, math.pi, series=other)


def test_root_evaluates_each_end_once(monkeypatch):
    # _root hands its two end values to bracketed_root, which does not
    # evaluate them again: over the event and guard roots of two solves
    # and the v0 zeros of beta(0.05), each end is evaluated once
    integ = sys.modules["nkshoot.integrate"]
    geometry = sys.modules["nkshoot.geometry"]
    root, ends = integ._root, []

    def counted_root(g, lo, hi):
        calls = []

        def h(t):
            calls.append(t)
            return g(t)
        out = root(h, lo, hi)
        ends.append((calls.count(lo), calls.count(hi)))
        return out

    monkeypatch.setattr(integ, "_root", counted_root)
    monkeypatch.setattr(geometry, "_root", counted_root)
    solve_family("alpha", 0.5646)
    solve_family("beta", 0.4)
    count_v0_zeros(solve_family("beta", 0.05).traj)
    assert len(ends) >= 4
    assert set(ends) == {(1, 1)}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("i", range(7), ids=_COMPONENTS)
def test_nonfinite_start_rejected(monkeypatch, value, i):
    # rejected before any step, naming the component; the comparisons of
    # the other start checks are all false on a NaN
    def no_jet(*args, **kwargs):
        raise AssertionError("_jet called")
    monkeypatch.setattr(sys.modules["nkshoot.integrate"], "_jet", no_jet)
    y = eval_named("sine-cone", 0.3).vec
    y[i] = value
    with pytest.raises(DegenerateStateError,
                       match=f"start has {_COMPONENTS[i]} = "):
        integrate(State.from_vec(0.3, y), 1.0)


@pytest.mark.parametrize("row", [-2, -1], ids=["order-N-1", "order-N"])
@pytest.mark.parametrize("i", range(7), ids=_COMPONENTS)
def test_nan_in_the_last_two_jet_rows_stops_the_run(monkeypatch, row, i):
    # a NaN anywhere in the two rows the step size reads gives a NaN step
    # (a max that dropped it would give a finite one) and an infinity there
    # a zero step, as np.max's row maxima give them, so the run ends with
    # the overflowed jet
    integ = sys.modules["nkshoot.integrate"]
    jet = integ._jet
    start = eval_named("sine-cone", 0.3)
    order, tol = integ._order_and_tol(1e-12)
    for value, step in ((math.nan, math.nan), (math.inf, 0.0),
                        (-math.inf, 0.0)):
        def poisoned(y, order, value=value):
            c = jet(y, order).copy()
            c[row, i] = value
            return c

        c = poisoned(start.vec, order)
        assert float_bits([integ._step_size(c, tol)]) == float_bits(
            [reference_step_size(c, tol)]) == float_bits([step])
        monkeypatch.setattr(integ, "_jet", poisoned)
        with pytest.raises(StepSizeCollapseError, match="overflowed"):
            integrate(start, 1.0)


def test_step_size_equals_the_numpy_max_version_on_member_jets(monkeypatch):
    # every step size of 8 members of each family, the handoff's reach on
    # the series' t-rows and each step's on a jet or the series, bit for bit
    integ, series = sys.modules["nkshoot.integrate"], sys.modules[
        "nkshoot.series"]
    step_size, calls = integ._step_size, []

    def recorded(c, tol):
        calls.append((c, tol, step_size(c, tol)))
        return calls[-1][-1]

    monkeypatch.setattr(integ, "_step_size", recorded)
    monkeypatch.setattr(series, "_step_size", recorded)
    for family, lo, hi in (("alpha", 0.05, 10.0), ("beta", 0.02, 3.0)):
        for p in np.geomspace(lo, hi, 8):
            solve_family(family, float(p))
    assert len(calls) > 4 * 16
    for c, tol, h in calls:
        assert float_bits([h]) == float_bits([reference_step_size(c, tol)])


def _check_step(events, args, out, refined, root) -> bool:
    # one _step call against the array oracle over all its planned
    # nodes: drift, values at the last node walked (events and guard) and,
    # where the oracle finds a crossing, the interval refined, one root per
    # crossing row, each equal to root's refinement through values (the
    # whole node's rows, events and guard), and the row that ends the run.
    # True on a crossing
    integ = sys.modules["nkshoot.integrate"]
    c, t0, t, y, g, h, *end = args
    ts, ys, drift, last, hit = out
    want_ts = t + h * integ._FRAC
    if end and end[0] is not None:
        want_ts[-1] = end[0]
    want_ys = integ._poly_states(c, want_ts - t0)
    vals, want_drift = reference_node_values(events, want_ts, want_ys.T)
    vals = np.array(vals)
    cross = reference_crossings(g, vals)
    if not cross.any():
        assert hit is None and refined == []
        assert np.array_equal(ts, want_ts) and np.array_equal(ys, want_ys)
        assert float_bits(drift) == float_bits(want_drift)
        assert float_bits(last) == float_bits(vals[:, -1])
        return False
    j = int(np.flatnonzero(cross.any(axis=0))[0])
    rows = np.flatnonzero(cross[:, j]).tolist()
    interval = tuple([t, *want_ts.tolist()][j:j + 2])
    assert [r[:2] for r in refined] == [interval] * len(rows)
    for (lo, hi, t_hit), i in zip(refined, rows):
        want = root(lambda s: integ._values(
            events, s, integ._poly_states(c, s - t0))[0][i], lo, hi)
        assert float_bits([t_hit]) == float_bits([want])
    k = len(ts) - 1
    assert (ts[k], hit) == min((r[2], i) for r, i in zip(refined, rows))
    assert np.array_equal(ts[:k], want_ts[:k])
    assert np.array_equal(ys[:k], want_ys[:k])
    hit_drift = reference_node_values((), ts[k], ys[k])[1]
    assert float_bits(drift) == float_bits([*want_drift[:k], hit_drift])
    assert float_bits(last) == float_bits(vals[:, j])
    return True


def _recorded_steps(monkeypatch) -> list:
    """(events, the other arguments, result, (lo, hi, root) of each
    refinement, the unrecorded _root) of every _step call from now on."""
    integ = sys.modules["nkshoot.integrate"]
    step, root = integ._step, integ._root
    calls, roots = [], []

    def recorded_step(events, *args):
        n = len(roots)
        out = step(events, *args)
        calls.append((events, args, out, roots[n:], root))
        return out

    def recorded_root(g, lo, hi):
        roots.append((lo, hi, root(g, lo, hi)))
        return roots[-1][-1]

    monkeypatch.setattr(integ, "_step", recorded_step)
    monkeypatch.setattr(integ, "_root", recorded_root)
    return calls


def test_node_pass_equals_the_array_oracle_on_member_steps(monkeypatch):
    # every step of 16 log-spaced members of each family, bit for bit
    calls = _recorded_steps(monkeypatch)
    for family, lo, hi in (("alpha", 0.05, 10.0), ("beta", 0.02, 3.0)):
        for p in np.geomspace(lo, hi, 16):
            solve_family(family, float(p))
    hits = sum(_check_step(*call) for call in calls)
    assert hits >= 32 and len(calls) > 4 * 32


def test_node_pass_equals_the_array_oracle_on_random_steps(monkeypatch):
    # steps on random linear polynomials with events on -v0, v1 and v2,
    # values rounded to 0.1 so that nodes land on exact
    # zeros, random values before the first node, and lambda < 0 with
    # its guard row negative in half of them; states are off shell, so the
    # drift abort is off (the drift is still compared)
    integ = sys.modules["nkshoot.integrate"]
    monkeypatch.setattr(integ, "DRIFT_ABORT", math.inf)
    rng = np.random.default_rng(11)
    calls = _recorded_steps(monkeypatch)
    events = [EventSpec(f"row-{k}-{d}",
                        fn_vec=lambda t, y, k=k, d=d: d * np.round(y[k], 1))
              for k, d in ((4, -1), (5, 1), (6, 1))]
    for _ in range(200):
        y = eval_named("sine-cone", 0.8).vec
        y[4:] = rng.uniform(-0.3, 0.3, 3)
        y[0] *= rng.choice([-1.0, 1.0])
        c = np.array([y, np.r_[0.0, 0.0, 0.0, 0.0, rng.normal(size=3)]])
        order = list(rng.permutation(events))
        g = [*np.round(rng.uniform(-0.3, 0.3, 3), 1),
             *integ._values(order, 0.0, y)[0][3:]]
        integ._step(order, c, 0.0, 0.0, y, g, rng.uniform(0.05, 0.5))
    hits = sum(_check_step(*call) for call in calls)
    assert 50 <= hits < len(calls)


def test_node_values_equal_the_array_oracle_at_random_states():
    # one node at a time, as at the run's start and in root refinement,
    # with components over eight decades and either sign of lambda
    integ = sys.modules["nkshoot.integrate"]
    rng = np.random.default_rng(7)
    events = (MAX_VOLUME_EVENT, EventSpec("v0", lambda t, y: y[4]))
    for _ in range(400):
        y = rng.normal(size=7) * 10.0 ** rng.uniform(-4.0, 4.0, 7)
        got, drift = integ._values(events, 0.5, y)
        want, want_drift = reference_node_values(events, 0.5, y)
        assert float_bits([*got, drift]) == float_bits([*want, want_drift])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e200,
                                   0.0])
@pytest.mark.parametrize("i", range(7), ids=_COMPONENTS)
def test_node_values_on_nonfinite_states_equal_the_array_oracle(value, i):
    # a NaN, an infinity or squares that overflow in one component, and in
    # two with opposite signs: the float path raises nothing (no
    # OverflowError or ZeroDivisionError, no warning) and keeps every NaN
    # that numpy's max keeps
    integ = sys.modules["nkshoot.integrate"]
    for j in (None, (i + 3) % 7):
        y = np.array([0.7, 0.2, 1.1, -0.9, 0.3, 1.2, -0.4])
        y[i] = value
        if j is not None:
            y[j] = -value
        got, drift = integ._values((), 0.0, y)
        with np.errstate(all="ignore"):
            want, want_drift = reference_node_values((), 0.0, y)
        assert float_bits([*got, drift]) == float_bits([*want, want_drift])
