"""Acceptance gate: the ten numbered criteria, one test each, every
tolerance pinned as stated. Each test prints one PASS/FAIL line.

Criterion 6's total-volume target (0.5752) is not reproducible from its own
parameters; the faithful computation gives ~= 0.5971 (see the module-level
comment at criterion 6). The assertion is implemented as stated and fails
honestly; all other sub-assertions of criterion 6 pass.
"""
import json
import math
import time

import numpy as np
from scipy.integrate import quad, solve_ivp

from conftest import (SQRT2, SQRT3, equation_residual, named_derivative,
                      s_of_time)
from nkshoot.exact import (NAMED_SOLUTIONS, SMALL_RESOLUTION, SMOOTHING)
from nkshoot.geometry import bohm, count_v0_zeros
from nkshoot.series import family_series, handoff, series_bubble_b
from nkshoot.shoot import (S6_STD_TOTAL_VOLUME, find_doubling, find_matching,
                           glue, max_orbit, scan_s2s4_boundary, solve_family)
from nkshoot.state import constraints, rhs_vec
from test_series import max_reference_error_a, max_reference_error_b


class Gate:
    """Collects sub-checks of one criterion and prints a PASS/FAIL line."""

    def __init__(self, number: int, budget_s: float):
        self.number = number
        self.budget = budget_s
        self.failures: list[str] = []
        self.t0 = time.perf_counter()

    def check(self, ok: bool, label: str):
        if not ok:
            self.failures.append(label)

    def close(self, label: str, retry=None):
        elapsed = time.perf_counter() - self.t0
        if elapsed > self.budget:
            self.failures.append(
                f"runtime {elapsed:.1f} s exceeds budget {self.budget:.0f} s")
        status = "PASS" if not self.failures else "FAIL"
        print(f"ACCEPTANCE {self.number}: {status} ({elapsed:.2f} s) {label}"
              + ("" if not self.failures else f" | {'; '.join(self.failures)}"))
        assert not self.failures, f"criterion {self.number}: {self.failures}"


def test_criterion_01_closed_form_residuals():
    gate = Gate(1, 1.0)
    for name, sol in NAMED_SOLUTIONS.items():
        ts = np.linspace(sol.domain[0], sol.domain[1], 1002)[1:-1]
        worst_eq = 0.0
        worst_con = 0.0
        for t in ts:
            st = sol.eval(t)
            worst_eq = max(worst_eq,
                           equation_residual(st, named_derivative(name, t)))
            worst_con = max(worst_con, constraints(st).max_abs)
        gate.check(worst_eq < 1e-12, f"{name} system residual {worst_eq:.2e}")
        gate.check(worst_con < 1e-12, f"{name} constraints {worst_con:.2e}")
    gate.close("closed-form residuals at 1000 points each")


def test_criterion_02_series_regression():
    gate = Gate(2, 5.0)
    for a in (0.3, 0.75, 1.0, SQRT3, 3.0):
        err = max_reference_error_a(a)
        gate.check(err < 1e-10, f"psi_a({a}) coefficient error {err:.2e}")
    for b in (0.3, 0.75, 1.0, 1.5, 3.0):
        err = max_reference_error_b(b)
        gate.check(err < 1e-10, f"bubble_b({b}) coefficient error {err:.2e}")
    gate.close("printed Taylor coefficients at five parameters per family")


def test_criterion_03_homogeneous_rediscovery():
    gate = Gate(3, 2.0)
    rec = max_orbit("beta", 1.0)
    gate.check(abs(rec.T - math.pi / (2 * SQRT3)) < 1e-8, f"T = {rec.T}")
    gate.check(abs(rec.lam - 1.0) < 1e-8, f"lambda = {rec.lam}")
    gate.check(abs(rec.mu - 2 / SQRT3) < 1e-8, f"mu = {rec.mu}")
    gate.check(abs(rec.w[1] - 1 / SQRT3) < 1e-8 and abs(rec.w[2]) < 1e-8,
               f"H-point = {rec.h_point}")
    rec = max_orbit("alpha", SQRT3)
    want = 81 * SQRT3 / (25 * math.sqrt(5))
    gate.check(abs(rec.Vmax - want) < 1e-6, f"alpha(sqrt3) Vmax = {rec.Vmax}")
    rec = max_orbit("alpha", SQRT3 / 2)
    gate.check(abs(rec.Vmax - 27 * SQRT2 / 32) < 1e-6,
               f"alpha(sqrt3/2) Vmax = {rec.Vmax}")
    gate.check(abs(rec.state.v[0]) < 1e-7, f"v0(T) = {rec.state.v[0]}")
    gate.close("homogeneous maximal-volume orbits")


def test_criterion_04_volume_quadrature():
    gate = Gate(4, 5.0)
    fs = solve_family("alpha", SQRT3 / 2)
    sol = glue(fs, fs, construction="doubling")
    gate.check(abs(sol.vol - 5.0 / 8.0) < 1e-6, f"CP3 vol = {sol.vol}")
    fs = solve_family("beta", 1.0)
    sol = glue(fs, fs, construction="doubling")
    want = 10 * math.pi / (27 * SQRT3)
    gate.check(abs(sol.vol - want) < 1e-6, f"S3xS3 vol = {sol.vol}")
    sol = glue(solve_family("alpha", SQRT3), solve_family("beta", 1.5))
    gate.check(abs(sol.vol - 1.0) < 1e-6, f"S6 vol = {sol.vol}")
    sine, _ = quad(lambda t: math.sin(t) ** 5, 0.0, math.pi,
                   epsabs=1e-13, epsrel=1e-13)
    gate.check(abs(sine / S6_STD_TOTAL_VOLUME - 16.0 / 27.0) < 1e-6,
               f"sine-cone vol = {sine / S6_STD_TOTAL_VOLUME}")
    gate.close("normalized total volumes of the glued homogeneous solutions")


def test_criterion_05_exotic_s3xs3():
    gate = Gate(5, 30.0)
    sol = find_doubling("beta", (0.2, 0.6), "v0")
    gate.check(abs(sol.param_left - 0.3736) < 0.002, f"b = {sol.param_left}")
    gate.check(abs(sol.Vmax - 1.0041) < 0.001, f"Vmax = {sol.Vmax}")
    gate.check(abs(sol.vol - 0.5929) < 0.001, f"vol = {sol.vol}")
    gate.close(f"exotic S3xS3 doubling at b = {sol.param_left:.6f}")


def test_criterion_06_exotic_s6():
    # The vol target inherits a defect: the volume pipeline reproduces every
    # closed-form reference row and the exotic S3xS3 row exactly, and at the
    # matched parameters (which agree with the reference to 4 decimals, as
    # does V_max) it integrates to ~0.5971, not 0.5752. The assertion is
    # kept as stated and fails.
    gate = Gate(6, 120.0)
    sol = find_matching((0.35, 0.95), (0.35, 0.95), n_samples=12)
    gate.check(abs(sol.param_left - 0.5646) < 0.003, f"a = {sol.param_left}")
    gate.check(abs(sol.param_right - 0.5985) < 0.003,
               f"b = {sol.param_right}")
    gate.check(abs(sol.Vmax - 1.0385) < 0.002, f"Vmax = {sol.Vmax}")
    gate.check(abs(sol.vol - 0.5752) < 0.002, f"vol = {sol.vol}")
    gate.close(f"exotic S6 matching at (a, b) = "
               f"({sol.param_left:.6f}, {sol.param_right:.6f})")


def test_criterion_07_zero_counts():
    gate = Gate(7, 10.0)
    zc = count_v0_zeros(solve_family("beta", 1.0).traj)
    gate.check(zc.count == 1, f"C(b=1) = {zc.count}")
    zc = count_v0_zeros(solve_family("beta", 0.05).traj)
    gate.check(zc.count >= 2, f"C(b=0.05) = {zc.count}")
    zc = count_v0_zeros(solve_family("alpha", SQRT3).traj)
    gate.check(zc.count == 0, f"C(a=sqrt3) = {zc.count}")
    gate.close("zero counts of v0 before the maximal-volume orbit")


def test_criterion_08_property_suites():
    gate = Gate(8, 60.0)
    rng = np.random.default_rng(20260808)
    params = ([("alpha", float(p))
               for p in np.exp(rng.uniform(np.log(0.1), np.log(10.0), 25))]
              + [("beta", float(p))
                 for p in np.exp(rng.uniform(np.log(0.05), np.log(3.0), 25))])
    worst_mono = -math.inf
    min_B_event = math.inf
    worst_wedge = math.inf
    worst_norm = 0.0
    max_T = 0.0
    for family, p in params:
        fs = solve_family(family, p)
        states = fs.traj.node_states()
        B_nodes = [bohm(st).B for st in states]
        worst_mono = max(worst_mono,
                         max(b2 - b1 for b1, b2 in zip(B_nodes, B_nodes[1:])))
        min_B_event = min(min_B_event, fs.record.B)
        worst_wedge = min(worst_wedge, fs.record.mu - fs.record.lam,
                          fs.record.lam - 1.0)
        max_T = max(max_T, fs.record.T)
        for st in states:
            V = st.volume
            u0, u1, u2 = st.u
            v0, v1, v2 = st.v
            w0 = (u1 * v2 - u2 * v1) / V
            w1 = (u0 * v2 - u2 * v0) / V
            w2 = (u1 * v0 - u0 * v1) / V
            worst_norm = max(worst_norm,
                             abs(w0 * w0 - w1 * w1 - w2 * w2 - 1.0))
    gate.check(worst_mono <= 1e-9,
               f"Bohm monotonicity violated by {worst_mono:.2e}")
    gate.check(min_B_event >= 20.0 - 1e-7, f"min B at events {min_B_event}")
    gate.check(worst_wedge >= -1e-7, f"wedge margin {worst_wedge:.2e}")
    gate.check(max_T < math.pi, f"max event time {max_T}")
    gate.check(worst_norm < 1e-8, f"hyperboloid normalization {worst_norm:.2e}")
    gate.close("property suites over 50 random family trajectories")


def _bubble_states_on_s_grid(b: float, s_grid):
    """Blown-up beta states at prescribed bubble arc-length values, via an
    augmented integration of ds/dt = 1/lambda."""
    sol = family_series("beta", b)
    t_star, start = handoff(sol)
    s_star = s_of_time(series_bubble_b(b), t_star / b)

    def rhs8(t, y):
        return np.append(rhs_vec(t, y[:7]), 1.0 / y[0])

    events = [(lambda t, y, sv=sv: y[7] - sv) for sv in s_grid]
    res = solve_ivp(rhs8, (t_star, math.pi), np.append(start.vec, s_star),
                    method="DOP853", rtol=1e-12, atol=1e-12, events=events)
    out = []
    scale = np.array([b, b * b, b * b, b * b, b ** 3, b ** 3, b ** 3])
    for i in range(len(s_grid)):
        assert res.t_events[i].size > 0
        out.append(res.y_events[i][0][:7] / scale)
    return out


def _smallres_time_of_r(r: float) -> float:
    def integrand(sig):
        rr = 1 + sig * sig
        lam = math.sqrt((rr * rr - 1) * (rr * rr + 2) / (rr * rr + 1))
        return 2 * sig * rr / lam
    val, _ = quad(integrand, 0.0, math.sqrt(r - 1.0),
                  epsabs=1e-13, epsrel=1e-13)
    return val


def test_criterion_09_bubble_convergence():
    gate = Gate(9, 30.0)
    s_grid = np.linspace(0.2, 1.0, 9)
    sups = []
    for b in (0.4, 0.2, 0.1, 0.05):
        tilde = _bubble_states_on_s_grid(b, s_grid)
        sup = max(float(np.max(np.abs(comp - SMOOTHING.state_components(sv))))
                  for sv, comp in zip(s_grid, tilde))
        sups.append(sup)
    gate.check(all(x > y for x, y in zip(sups, sups[1:])),
               f"beta bubble distances not decreasing: {sups}")
    r_grid = np.linspace(1.2, 2.0, 9)
    t_grid = [_smallres_time_of_r(r) for r in r_grid]
    sups_a = []
    for a in (0.4, 0.2, 0.1, 0.05):
        sol = family_series("alpha", a)
        t_star, start = handoff(sol)
        from nkshoot.integrate import integrate
        traj = integrate(start, a * t_grid[-1] * 1.01)
        scale = np.array([a, a * a, a * a, a * a, a ** 3, a ** 3, a ** 3])
        sup = 0.0
        for r, ttil in zip(r_grid, t_grid):
            comp = traj.state_at(a * ttil).vec / scale
            sup = max(sup, float(np.max(np.abs(
                comp - SMALL_RESOLUTION.state_components(r)))))
        sups_a.append(sup)
    gate.check(all(x > y for x, y in zip(sups_a, sups_a[1:])),
               f"alpha bubble distances not decreasing: {sups_a}")
    gate.close(f"bubble sup-distances beta {', '.join(f'{s:.3f}' for s in sups)}"
               f" / alpha {', '.join(f'{s:.3f}' for s in sups_a)}")


def test_criterion_10_negative_scan(tmp_path):
    gate = Gate(10, 60.0)
    report = scan_s2s4_boundary(0.1, 10.0, n_samples=40)
    out = tmp_path / "scan-s2s4.json"
    out.write_text(json.dumps(report.as_dict(), indent=2))
    emitted = json.loads(out.read_text())
    gate.check(len(emitted["u0_at_event"]) == 40, "report emitted")
    gate.check(not report.found_root,
               f"boundary crossing found: {report.crossings}")
    gate.close("no S2xS4 doubling root over the scanned range")
