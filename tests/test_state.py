"""state_core: right-hand side, first integrals, discrete symmetries."""
import math

import numpy as np
import pytest

from conftest import (SQRT3, lambda_dot_alt, named_derivative,
                      random_admissible_states)
from nkshoot.errors import DegenerateStateError
from nkshoot.exact import NAMED_SOLUTIONS, eval_named
from nkshoot.integrate import integrate
from nkshoot.series import handoff, series_psi_b
from nkshoot.state import (State, Symmetry, apply_symmetry, complex_step,
                           constraints, rhs, rhs_vec,
                           transform_derivative)


def test_rhs_sine_cone_at_max_orbit():
    st = State(math.pi / 2, 1.0, (0.0, 0.0, -1.0), (0.0, 1.0, 0.0))
    assert np.allclose(rhs(st), [0, 0, -1, 0, 0, 0, -1], atol=1e-15)


def test_rhs_u0_v0_pair_decouples():
    st = State(0.0, 0.8, (0.0, 0.5, -1.2), (0.0, 0.9, 0.3))
    dy = rhs(st)
    assert dy[1] == 0.0  # u0' = -3 v0 / lambda
    assert dy[4] == 0.0  # v0' = 4 lambda u0


def test_rhs_matches_homogeneous_derivative():
    t = math.pi / (4 * SQRT3)
    st = eval_named("s3s3-homog", t)
    assert np.max(np.abs(rhs(st) - named_derivative("s3s3-homog", t))) < 1e-12


@pytest.mark.parametrize("name", sorted(NAMED_SOLUTIONS))
def test_complex_step_against_analytic_and_finite_differences(name):
    # at round-off of the hand-differentiated closed form, and within a
    # fourth-order central difference's own error of it
    sol = NAMED_SOLUTIONS[name]
    lo, hi = sol.domain
    ts = np.linspace(lo, hi, 13)[1:-1]
    d = complex_step(sol.vec, ts)
    ref = np.array([named_derivative(name, t) for t in ts]).T
    assert np.max(np.abs(d - ref)) < 1e-13
    h = 1e-3
    fd = (sol.vec(ts - 2 * h) - 8 * sol.vec(ts - h) + 8 * sol.vec(ts + h)
          - sol.vec(ts + 2 * h)) / (12 * h)
    assert np.max(np.abs(d - fd)) < 1e-9
    # a directional derivative, as the uniqueness probe takes g' along the
    # flow: rhs_vec's derivative along rhs_vec
    y = sol.vec(ts[3])
    dy = rhs_vec(0.0, y)

    def f(e):
        return rhs_vec(0.0, y + e * dy)
    fd = (f(-2 * h) - 8 * f(-h) + 8 * f(h) - f(2 * h)) / (12 * h)
    dd = complex_step(lambda z: rhs_vec(0.0, z), y, dy)
    assert np.max(np.abs(dd - fd)) < 1e-8 * max(1.0, np.max(np.abs(dd)))


def test_constraints_sine_cone():
    c = constraints(State(math.pi / 2, 1.0, (0.0, 0.0, -1.0), (0.0, 1.0, 0.0)))
    assert c.max_abs == 0.0
    assert c.orient == 1.0


def test_constraints_probe_values():
    # inadmissible probe: raw residuals are still returned
    st = State(0.0, 1.0, (0.0, 1.0, -1.0), (0.0, 1.0, 0.0))
    c = constraints(st)
    assert (c.I1, c.I2, c.I3, c.I4) == (1.0, 1.0, 1.0, -1.0)
    assert c.orient == 1.0


def test_constraints_conserved_from_series_data():
    sol = series_psi_b(1.0)
    _, start = handoff(sol)
    traj = integrate(start, 0.5)
    end = traj.state_at(0.5)
    assert constraints(end).max_abs < 1e-9


def test_degenerate_states_raise():
    with pytest.raises(DegenerateStateError):
        rhs(State(0.0, 0.0, (0.0, 1.0, -1.0), (0.0, 1.0, 0.0)))
    with pytest.raises(DegenerateStateError):
        rhs(State(0.0, 1.0, (1.0, 0.0, -1.0), (0.0, 1.0, 0.0)))  # mu^2 = 0
    with pytest.raises(DegenerateStateError):
        lambda_dot_alt(State(0.0, 1.0, (0.0, 1.0, -1.0), (0.0, 0.0, 1.0)))
    with pytest.raises(DegenerateStateError):
        lambda_dot_alt(State(0.0, 1.0, (0.0, 1.0, 0.0), (0.0, 1.0, 1.0)))


def test_lambda_dot_paths_agree_on_shell():
    # on constraint-satisfying states the two lambda' evaluations agree
    for name, t in (("sine-cone", 0.7), ("sine-cone", 2.0),
                    ("s6-round", 0.5), ("s3s3-homog", 0.4),
                    ("cp3-homog", 0.9)):
        st = eval_named(name, t)
        main = rhs(st)[0]
        alt = lambda_dot_alt(st)
        assert abs(main - alt) <= 1e-9 * max(1.0, abs(main))


def test_mu_mu_dot_identity_against_finite_differences():
    # mu mu' = 2 lambda u1 on shell; oracle: finite differences of mu along
    # a closed-form trajectory
    h = 1e-6
    for t in (0.5, 1.2, 2.3):
        mu_p = eval_named("sine-cone", t + h).mu
        mu_m = eval_named("sine-cone", t - h).mu
        st = eval_named("sine-cone", t)
        fd = st.mu * (mu_p - mu_m) / (2 * h)
        assert abs(fd - 2 * st.lam * st.u[1]) < 1e-8


def test_symmetry_word_composition():
    sym = Symmetry.from_word("tau2.tau3.tau4")
    st = random_admissible_states(1, 1)[0]
    out = apply_symmetry(sym, st)
    assert out.lam == st.lam
    assert out.u == (-st.u[0], st.u[1], st.u[2])
    assert out.v == (-st.v[0], st.v[1], st.v[2])
    assert out.t == st.t


def test_symmetries_are_involutions():
    for st in random_admissible_states(7, 5):
        for word in ("tau1", "tau2", "tau3", "tau4"):
            twice = apply_symmetry(word, apply_symmetry(word, st))
            assert np.array_equal(twice.vec, st.vec)
            assert twice.t == st.t


@pytest.mark.parametrize("word", ["", ".."])
def test_empty_symmetry_word(word):
    with pytest.raises(ValueError, match="empty symmetry word"):
        Symmetry.from_word(word)


@pytest.mark.parametrize("word", ["tau1..tau4", ".tau1.", "tau1.tau4."])
def test_symmetry_word_with_an_empty_part(word):
    # one spelling per word: an empty part is not dropped
    with pytest.raises(ValueError, match="unknown symmetry label ''"):
        Symmetry.from_word(word)


@pytest.mark.parametrize("u", [(1.0, 1.0, 0.0), (2.0, 1.0, 0.0)],
                         ids=["zero", "negative"])
def test_mu_needs_a_positive_mu2(u):
    st = State(0.5, 1.0, u, (0.0, 0.0, 1.0))
    with pytest.raises(DegenerateStateError, match=r"mu\^2 = .* <= 0 at t"):
        st.mu


def test_unknown_symmetry_label():
    with pytest.raises(ValueError):
        Symmetry.from_word("tau5")


def test_rhs_equivariance():
    # pushing a state through tau_i then rhs equals pushing the rhs output
    # through the sign table (time reversal negates the derivative)
    words = ("tau1", "tau2", "tau3", "tau4", "tau2.tau3.tau4")
    for st in random_admissible_states(11, 6):
        base = rhs_vec(st.t, st.vec)
        for word in words:
            sym = Symmetry.from_word(word)
            mapped = apply_symmetry(sym, st)
            lhs = rhs_vec(mapped.t, mapped.vec)
            assert np.max(np.abs(lhs - transform_derivative(sym, base))) < 1e-11


def test_symmetries_preserve_constraint_zero_set():
    for name, t in (("sine-cone", 1.1), ("s6-round", 0.6),
                    ("s3s3-homog", 0.8), ("cp3-homog", 1.3)):
        st = eval_named(name, t)
        assert constraints(st).max_abs < 1e-13
        for word in ("tau1", "tau2", "tau3", "tau4"):
            assert constraints(apply_symmetry(word, st)).max_abs < 1e-13


def test_first_integral_conservation_along_trajectory():
    sol = series_psi_b(0.7)
    _, start = handoff(sol)
    assert constraints(start).max_abs < 1e-13
    traj = integrate(start, 1.2)
    assert float(np.max(traj.drift)) < 1e-8
