"""The compiled kernel: series._Program's jet (an ODE), with the
integrator's step beside it, and series build (a singular IVP) emitted as
C, against the Python runs they stand in for. Bit for bit on drawn states,
members and orders, the same errors, the same output bytes where no
compiler or no private cache is found, and builds and runs whose bits no
BLAS kernel moves."""
import math
import os
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import float_bits
from nkshoot import series
from nkshoot.errors import DegenerateStateError, InvalidArgumentError
from nkshoot.integrate import MAX_VOLUME_EVENT, integrate
from nkshoot.series import (_load_c, _Program, handoff, s2_problem,
                            s3_bubble_problem, s3_problem, series_psi_a,
                            series_psi_b, solve_singular_ivp)
from nkshoot.shoot import solve_family

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

integ = sys.modules["nkshoot.integrate"]
PROGRAM = series._JET
SRC = Path(series.__file__).resolve().parents[1]
needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no C compiler (cc) on PATH")


def python_jet(y, n):
    return PROGRAM._run([*np.asarray(y, dtype=float).tolist(), 0.0], n,
                        None)


def compiled_jet(y, n):
    # fill, which _jet calls, on the C path: a state of dim floats, n >= 0
    if not PROGRAM._compiled:
        pytest.skip("the compiled jet did not load (no private cache)")
    return PROGRAM.fill(y, (), n)


class NoC:
    """A library whose every function fails the test when called."""

    def __getattr__(self, name):
        pytest.fail(f"the C {name} was called")


def assert_same_bits(got, want):
    # every bit of every value that is not a NaN, signed zeros and
    # infinities included, and NaNs in the same places: which NaN operand
    # an operation passes on is the compiler's choice, on either path
    assert got.shape == want.shape and got.flags.c_contiguous
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


@st.composite
def admissible_states(draw):
    """lambda > 0, |u0| <= |u1| (so mu^2 >= u2^2 > 0) and u1 v2 - u2 v1 > 0,
    with components of size 1e-3..1e3; in a quarter of the draws one of
    them is -0.0 instead."""
    y = [draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-3, 3))
         for _ in range(7)]
    y[0] = abs(y[0])
    if abs(y[1]) > abs(y[2]):
        y[1], y[2] = y[2], y[1]
    if y[2] * y[6] - y[3] * y[5] < 0.0:
        y[5], y[6] = -y[5], -y[6]
    if draw(st.integers(0, 3)) == 0:
        y[draw(st.integers(1, 6))] = -0.0
    return np.array(y)


@needs_cc
@hypothesis.settings(derandomize=True, deadline=None, database=None,
                     max_examples=100)
@hypothesis.given(admissible_states(), st.integers(0, 41))
def test_compiled_jet_equals_the_python_run(y, order):
    assert_same_bits(compiled_jet(y, order), python_jet(y, order))


@needs_cc
def test_compiled_jet_equals_the_python_run_along_members():
    # every fifth node of four members, at the integrator's order and the
    # orders around it; and fill, which _jet calls, takes the C path
    states = []
    for sol in (series_psi_a(0.5646), series_psi_a(2.0), series_psi_b(0.599),
                series_psi_b(0.3736)):
        _, start = handoff(sol)
        states += list(integrate(start, math.pi,
                                 events=(MAX_VOLUME_EVENT,)).states[::5])
    for y in states:
        for order in (0, 1, 2, 24, 30, 41):
            assert_same_bits(compiled_jet(y, order), python_jet(y, order))


@needs_cc
def test_the_integrator_takes_the_compiled_path(monkeypatch):
    # with the Python run unreachable, _jet still gives the same jet
    integ = sys.modules["nkshoot.integrate"]
    y = np.array([0.8, 0.3, 1.1, -0.9, 0.2, 0.7, -0.4])
    want = python_jet(y, 24)
    compiled_jet(y, 0)

    def no_python_run(*args):
        raise AssertionError("the Python run was called")
    monkeypatch.setattr(PROGRAM, "_run", no_python_run)
    assert_same_bits(integ._jet(y, 24).T, want)


def python_step(*args):
    """_advance(*args) and, where the step is taken, its _nodes, with every
    C function out of reach."""
    saved, PROGRAM._compiled = PROGRAM._compiled, None
    try:
        h, t0, c, end, _ = integ._advance(*args)
        return h, t0, c, end, (integ._nodes(c, t0, args[1], h, end)
                               if end is not None or h >= args[-1]
                               else None)
    finally:
        PROGRAM._compiled = saved


@needs_cc
@hypothesis.settings(derandomize=True, deadline=None, database=None,
                     max_examples=150)
@hypothesis.given(admissible_states(), st.integers(2, 41),
                  st.sampled_from(("jet", "series", "clamped")),
                  st.floats(0.0, 1.5), st.floats(-5.0, 5.0), st.booleans())
def test_the_compiled_step_equals_the_python_step(y, order, mode, frac, t,
                                                 column_major):
    # h, t0, the rows, the clamp and, where the step is taken, the node
    # times, states, guard rows and drift, bit for bit: a jet step from
    # (t, y); a series step on y's jet rows, C-ordered or column-major, as
    # rows about 0 from frac of their reach; and a jet step whose horizon
    # lies at frac of its reach, which clamps it where frac <= 1
    if not PROGRAM._compiled:
        pytest.skip("the compiled step did not load (no private cache)")
    tol, rows, horizon = 1e-14, None, t + 100.0
    try:
        jet = python_jet(y, order).T
    except ZeroDivisionError:   # a -0.0 component can make mu^2 zero
        for step in (integ._advance, python_step):
            with pytest.raises(ZeroDivisionError):
                step(None, t, y, order, tol, horizon, 1e-15)
        return
    reach = integ._step_size(jet, tol)
    if mode == "series":
        rows = jet if column_major else np.ascontiguousarray(jet)
        t = frac * reach if math.isfinite(reach) else 0.0
    elif mode == "clamped":
        horizon = t + frac * reach
    args = (rows, t, y, order, tol, horizon,
            16 * np.finfo(float).eps * max(1.0, abs(t)))
    got, want = integ._advance(*args), python_step(*args)
    assert float_bits(got[:2]) == float_bits(want[:2])
    assert got[3] == want[3]
    if rows is None:
        assert_same_bits(got[2], np.ascontiguousarray(want[2]))
    else:
        assert got[2] is rows and want[2] is rows
    if want[4] is None:                 # a collapse
        assert not got[0] >= args[-1]
        return
    (ts, ys, guard, drift), (w_ts, w_ys, w_guard, w_drift) = got[4], want[4]
    assert float_bits(ts) == float_bits(w_ts)
    assert_same_bits(ys, np.ascontiguousarray(w_ys))
    assert float_bits(np.ravel(guard)) == float_bits(np.ravel(w_guard))
    assert float_bits(drift) == float_bits(w_drift)


@needs_cc
@pytest.mark.parametrize("order", [40, 8])
def test_each_step_of_a_run_is_one_c_call(monkeypatch, order):
    # one step call per step polynomial, and one more where the series of a
    # low order does not reach the first step's floor; no Python jet
    if not PROGRAM._compiled:
        pytest.skip("the compiled step did not load (no private cache)")
    calls, step = [], PROGRAM._compiled.step
    monkeypatch.setattr(PROGRAM._compiled, "step",
                        lambda *args: calls.append(args) or step(*args))
    monkeypatch.setattr(integ, "_jet",
                        lambda *args: pytest.fail("the Python jet ran"))
    traj = solve_family("beta", 0.599, order).traj
    assert (traj.starts[0] == 0.0) == (order == 40)
    assert len(calls) == len(traj.coeffs) + (order == 8)


@needs_cc
def test_compiled_nodes_on_nonfinite_states_equal_the_python_nodes():
    # the states of test_node_values_on_nonfinite_states_equal_the_array_
    # oracle, and squares that overflow in several components, as the
    # constant rows (y, 0, 0) about 0: every node is y, and its guard rows
    # and drift, NaN branches included, are the Python ones bit for bit
    if not PROGRAM._compiled:
        pytest.skip("the compiled step did not load (no private cache)")
    states = [[0.5, 1e200, -0.0, -2.0, 1e200, -0.0, 0.5],
              [1e200, -math.inf, -2.0, 0.0, 0.5, -math.inf, 0.5],
              [-math.inf, 1e200, 0.5, 0.0, 1e200, 0.5, 1e200]]
    for value in (math.nan, math.inf, -math.inf, 1e200, 0.0):
        for i in range(7):
            for j in (None, (i + 3) % 7):
                y = [0.7, 0.2, 1.1, -0.9, 0.3, 1.2, -0.4]
                y[i] = value
                if j is not None:
                    y[j] = -value
                states.append(y)
    for y in states:
        rows = np.array([y, [0.0] * 7, [0.0] * 7])
        args = (rows, 0.0, rows[0].copy(), 24, 1e-14, 1.0, 1e-15)
        got, want = integ._advance(*args), python_step(*args)
        assert got[3] == want[3] == 1.0
        (_, ys, guard, drift), (_, w_ys, w_guard, w_drift) = got[4], want[4]
        assert_same_bits(ys, np.ascontiguousarray(w_ys))
        assert float_bits(np.ravel(guard)) == float_bits(np.ravel(w_guard))
        assert float_bits(drift) == float_bits(w_drift)


@needs_cc
@pytest.mark.parametrize("component", range(1, 7))
def test_a_negative_zero_component(component):
    # u0 = -0.0 makes v0' = 4 lambda u0 a -0.0 that the output's + 0.0 turns
    # into +0.0; each component in turn
    y = np.array([0.8, 0.3, 1.1, -0.9, 0.2, 0.7, -0.4])
    y[component] = -0.0
    for order in (1, 2, 24):
        assert_same_bits(compiled_jet(y, order), python_jet(y, order))


@needs_cc
def test_an_overflowing_state_gives_the_same_inf_and_nan_rows():
    y = 1e60 * np.array([0.8, 0.3, 1.1, -0.9, 0.2, 0.7, -0.4])
    got, want = compiled_jet(y, 24), python_jet(y, 24)
    assert np.isinf(want).any() and np.isnan(want).any()
    assert_same_bits(got, want)


def test_the_python_run_of_an_overflowing_state_warns_nothing():
    # its convolution sums overflow by order 32: the Python run returns the
    # inf and NaN rows the C run returns, and np.vecdot's overflow is not
    # reported, here or under pytest.ini's error::RuntimeWarning
    y = [0.01, -1.0, -1.0, -1.0, -1.0, -1.0, -1000.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jet = python_jet(y, 32)
    assert np.isinf(jet).any() and np.isnan(jet).any()


@needs_cc
@pytest.mark.parametrize("lam", [0.0, -0.0])
def test_a_zero_reciprocal_operand_raises_on_both_paths(lam):
    # lambda = 0 is the operand of the reciprocal 1 / lambda
    y = np.array([lam, 0.3, 1.1, -0.9, 0.2, 0.7, -0.4])
    for jet in (compiled_jet, python_jet):
        for order in (0, 24):
            with pytest.raises(ZeroDivisionError, match="division by zero"):
                jet(y, order)


@needs_cc
@pytest.mark.parametrize("order", [-1, -2])
def test_a_negative_order_raises_on_both_paths(order, monkeypatch):
    # fill passes a negative order to the Python run, which cannot pack its
    # empty record, and no buffer for such an order reaches C: np.empty or
    # from_buffer raises first. fill and the step refuse it, and the step
    # an order or rows of degree below 2 and states or rows of other than 7
    # components, before any C runs
    y = np.array([0.8, 0.3, 1.1, -0.9, 0.2, 0.7, -0.4])
    for jet in (compiled_jet, python_jet):
        with pytest.raises((ValueError, series.struct.error)):
            jet(y, order)
    with pytest.raises(ValueError):
        R = np.empty((order + 1, PROGRAM._width))
        PROGRAM._compiled.run(series._ptr(y), order, series._ptr(R))
    monkeypatch.setattr(PROGRAM, "_compiled", NoC())
    with pytest.raises((ValueError, series.struct.error)):
        PROGRAM.fill(y, (), order)
    rows = python_jet(y, 24).T
    for n, c, state in ((order, None, y), (0, None, y), (1, None, y),
                        (24, rows[:1], y), (24, rows[:2], y),
                        (24, rows[:, :6], y), (24, None, y[:6])):
        with pytest.raises(ValueError, match="degree 2 up"):
            integ._advance(c, 0.0, state, n, 1e-14, 1.0, 1e-15)


#: the three build programs over their tested parameter ranges
MEMBERS = st.one_of(
    st.tuples(st.just(s2_problem),
              st.floats(-2.0, math.log10(50.0)).map(lambda e: 10.0 ** e)),
    st.tuples(st.just(s3_problem),
              st.floats(-3.0, 5.0).map(lambda e: 10.0 ** e)),
    st.tuples(st.just(s3_bubble_problem), st.floats(0.0, 20.0)))


def build_inputs(prob):
    _, A = prob.program.gradient(prob.y0, prob.params)
    return prob.program, [*prob.y0.tolist(), 0.0, *prob.params], A


def python_build(prob, order, y0=None):
    prog, c0, A = build_inputs(prob)
    if y0 is not None:
        c0[:prog.dim] = y0
    return prog._run(c0, order, A)


def compiled_build(prob, order, y0=None):
    # fill, which solve_singular_ivp calls, on the C path
    prog, _, A = build_inputs(prob)
    if not prog._compiled:
        pytest.skip("the compiled build did not load (no private cache)")
    return prog.fill(prob.y0 if y0 is None else y0, prob.params, order, A)


@needs_cc
@hypothesis.settings(derandomize=True, deadline=None, database=None,
                     max_examples=150)
@hypothesis.given(MEMBERS, st.integers(1, 41))
def test_compiled_build_equals_the_python_build(member, order):
    problem, param = member
    prob = problem(param)
    assert_same_bits(compiled_build(prob, order), python_build(prob, order))


@needs_cc
@pytest.mark.parametrize("path", ["compiled", "python"])
def test_a_build_raises_the_same_errors_on_both_paths(path, monkeypatch):
    prob = s2_problem(0.5646)
    prog, _, A = build_inputs(prob)
    if path == "python":
        monkeypatch.setattr(prog, "_compiled", None)
    elif not prog._compiled:
        pytest.skip("the compiled build did not load (no private cache)")
    with pytest.raises(InvalidArgumentError, match="order"):
        solve_singular_ivp(prob, 0)
    # y7 = 0 is the operand of the reciprocal 1 / y7 at order 0
    y0 = prob.y0.copy()
    y0[6] = 0.0
    with pytest.raises(DegenerateStateError):
        solve_singular_ivp(series.SingularIVP(prog, y0, prob.params), 4)
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        prog.fill(y0, prob.params, 4, A)
    # A = Id makes h*Id - A zero at h = 1: a zero pivot
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        prog.fill(prob.y0, prob.params, 4, np.eye(7))


@st.composite
def free_matrices(draw):
    """A 7x7 A of mostly small integers, so that h*Id - A meets ties in the
    pivot search and signed zeros; in a quarter of the draws it is upper
    triangular, so that h = A[c, c] is a zero pivot, and in a quarter one
    entry is inf or NaN."""
    A = np.array(draw(st.lists(st.one_of(
        st.sampled_from((0.0, 0.0, -0.0, 1.0, -1.0, 2.0, 3.0)),
        st.floats(-20.0, 20.0)), min_size=49, max_size=49))).reshape(7, 7)
    if draw(st.integers(0, 3)) == 0:
        A = np.triu(A)
    if draw(st.integers(0, 3)) == 0:
        A.flat[draw(st.integers(0, 48))] = draw(st.sampled_from((math.inf,
                                                                 math.nan)))
    return A


@needs_cc
@hypothesis.settings(derandomize=True, deadline=None, database=None,
                     max_examples=150)
@hypothesis.given(free_matrices(), st.integers(1, 12))
@hypothesis.example(np.diag([1.0, *[0.0] * 6]) + np.diag([math.nan], -6), 1)
def test_the_elimination_is_the_same_on_both_paths(A, order):
    # A drawn freely rather than from gradient: C's elimination of each
    # order and _factor's of all orders at once swap the same rows, give
    # the same bits or raise on the same zero pivot; in the example, a
    # NaN below the zero pivot of h = 1 is no pivot on either path
    prog, c0, _ = build_inputs(s2_problem(0.5646))
    if not prog._compiled:
        pytest.skip("the compiled build did not load (no private cache)")
    try:
        want = prog._run(c0, order, A)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            prog.fill(c0[:7], c0[8:], order, A)
        return
    assert_same_bits(prog.fill(c0[:7], c0[8:], order, A), want)


def test_a_build_without_G_and_A_stays_off_the_C_path(monkeypatch):
    # C would read A past the end of a state of dim + 2 doubles, or of an A
    # of fewer than dim x dim doubles
    prob = s2_problem(0.5646)
    monkeypatch.setattr(prob.program, "_compiled", NoC())
    with pytest.raises(TypeError):
        prob.program.fill(prob.y0, prob.params, 4)
    with pytest.raises(ValueError, match="broadcast"):
        prob.program.fill(prob.y0, prob.params, 4, np.ones((7, 6)))


@needs_cc
def test_an_overflowing_build_gives_the_same_rows_on_both_paths():
    # a start far off the member's orbit overflows into NaN rows; the
    # Python run warns nothing, as the C run does not
    prob = s3_problem(0.599)
    y0 = 1e100 * prob.y0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = python_build(prob, 24, y0)
    assert np.isnan(want).any()
    assert_same_bits(compiled_build(prob, 24, y0), want)


_DIGEST = """
import hashlib
from nkshoot import series, shoot
h, compiled = hashlib.sha256(), set()
for make, params in ((series.s2_problem, (0.12, 0.5646, 1.0, 1.7, 4.0, 50.0)),
                     (series.s3_problem, (1e-3, 0.3736, 0.599, 1.6, 20.0, 1e5)),
                     (series.s3_bubble_problem, (0.0, 0.5, 1.0, 4.0, 20.0))):
    for p in params:
        Y, A = series.solve_singular_ivp(make(p), 41)
        h.update(Y.tobytes() + A.tobytes())
    compiled.add(bool(make(1.0).program._compiled))
for family, param in (("alpha", 0.3), ("alpha", 0.5646), ("alpha", 2.0),
                      ("beta", 0.3736), ("beta", 0.599), ("beta", 1.6)):
    traj = shoot.solve_family(family, param).traj
    h.update(traj.times.tobytes() + traj.states.tobytes())
compiled.add(bool(series._JET._compiled))
print(h.hexdigest(), *compiled)
"""


def _openblas_with_avx2():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get(
        "blas", {})
    cpu = Path("/proc/cpuinfo")
    return ("openblas" in blas.get("name", "").lower() and cpu.is_file()
            and " avx2" in cpu.read_text())


@pytest.mark.skipif(not _openblas_with_avx2(),
                    reason="numpy's BLAS is not OpenBLAS or no AVX2 CPU")
def test_builds_do_not_depend_on_the_blas_kernel(tmp_path):
    # 17 builds' Y and A and six members' trajectories (times and states)
    # digested in fresh processes with OpenBLAS's kernel left to its choice
    # and forced to Haswell's, each on the compiled path and with no
    # compiler on PATH and an empty cache: one digest
    (tmp_path / "bin").mkdir()
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(SRC)
    runs = {}
    for core in ("", "Haswell"):
        for cc in (True, False):
            run_env = {**env, **({"OPENBLAS_CORETYPE": core} if core else {}),
                       **({} if cc else {"PATH": str(tmp_path / "bin"),
                                         "XDG_CACHE_HOME": str(tmp_path)})}
            runs[core, cc] = subprocess.Popen(
                [sys.executable, "-c", _DIGEST], env=run_env, text=True,
                stdout=subprocess.PIPE)
    out = {key: proc.communicate(timeout=60)[0].split()
           for key, proc in runs.items()}
    assert len({digest for digest, _ in out.values()}) == 1, out
    assert {flag for (_, cc), (_, flag) in out.items() if not cc} == {"False"}
    if shutil.which("cc"):
        assert {flag for (_, cc), (_, flag) in out.items() if cc} == {"True"}


def test_ode_outputs_must_be_single_recorded_rows():
    # the C run writes each output from one row (out_rows): a linear
    # combination of rows, or a row plus a constant, is refused
    with pytest.raises(ValueError, match="single recorded rows"):
        _Program(2, lambda y, t: [y[0] + y[1], y[0] * y[1]], ode=True)
    with pytest.raises(ValueError, match="single recorded rows"):
        _Program(2, lambda y, t: [y[0] * y[1] + 1.0, y[0] * y[1]], ode=True)
    _Program(2, lambda y, t: [y[1] * y[1], y[0] * y[1]], ode=True)


def _solve(tmp_path, name, cache, path=None):
    """stdout and output file of `solve --target s6-homog` in a subprocess
    with XDG_CACHE_HOME=cache and, if given, PATH=path."""
    out = tmp_path / f"{name}.json"
    env = {**os.environ, "PYTHONPATH": str(SRC), "XDG_CACHE_HOME": str(cache)}
    if path is not None:
        env["PATH"] = str(path)
    proc = subprocess.run(
        [sys.executable, "-m", "nkshoot.cli", "solve", "--target",
         "s6-homog", "--out", str(out)], env=env, capture_output=True,
        check=True, text=True)
    return proc.stdout.replace(str(out), "OUT"), out.read_bytes()


@needs_cc
def test_the_python_fallback_writes_the_same_bytes(tmp_path):
    compiled = tmp_path / "compiled"
    want = _solve(tmp_path, "compiled", compiled)
    # one .c/.so pair per program the solve loads: the jet's and the S2
    # and S3 builds'
    built = sorted(p.name for p in (compiled / "nkshoot").iterdir())
    assert len(built) == 6 and all(
        c.endswith(".c") and so == c[:-1] + "so"
        for c, so in zip(built[::2], built[1::2]))
    assert (compiled / "nkshoot").stat().st_mode & 0o777 == 0o700
    source = (compiled / "nkshoot" / built[0]).read_text()

    # no compiler on PATH: nothing is built, and the Python run serves
    (tmp_path / "bin").mkdir()
    assert _solve(tmp_path, "no-cc", tmp_path / "no-cc",
                  tmp_path / "bin") == want
    assert not any((tmp_path / "no-cc" / "nkshoot").iterdir())

    # a cache that others can write is refused: nothing is written to it or
    # loaded from it
    shared = tmp_path / "shared" / "nkshoot"
    shared.mkdir(parents=True)
    shared.chmod(0o777)
    assert _solve(tmp_path, "shared", shared.parent) == want
    assert not any(shared.iterdir())

    # a stale pair under the same name, whose stored source differs and
    # whose library fails every jet, is rebuilt, not loaded
    stale = tmp_path / "stale" / "nkshoot"
    stale.mkdir(parents=True, mode=0o700)
    (stale / built[0]).write_text(
        "int run(const double *y, long n, double *R) { return 1; }\n")
    subprocess.run(["cc", "-shared", "-fPIC", "-o", str(stale / built[1]),
                    str(stale / built[0])], check=True)
    (stale / built[0]).write_text(source + "/* stale */\n")
    assert _solve(tmp_path, "stale", stale.parent) == want
    assert (stale / built[0]).read_text() == source
    assert sorted(p.name for p in stale.iterdir()) == built


@pytest.mark.skipif(not (Path("/proc/self/stat").exists()
                         and shutil.which("sleep")),
                    reason="needs /proc and sleep")
def test_a_compile_that_times_out_leaves_no_process(tmp_path, monkeypatch):
    # a cc that outlives the timeout, with a child of its own: both are
    # killed, nothing is loaded, and no temporary file is left behind
    pids = tmp_path / "pids"
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    (bin_dir / "cc").write_text(
        f"#!/bin/sh\n{shutil.which('sleep')} 30 &\necho $! $$ > {pids}\n"
        "wait\n")
    (bin_dir / "cc").chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    t0 = time.monotonic()
    assert _load_c("int run;\n", timeout_s=0.5) is None
    assert time.monotonic() - t0 < 10.0
    assert not any((tmp_path / "cache" / "nkshoot").iterdir())
    for pid in map(int, pids.read_text().split()):
        for _ in range(100):
            try:
                state = Path(f"/proc/{pid}/stat").read_text().split()[2]
            except FileNotFoundError:
                break
            if state == "Z":        # killed; its new parent has yet to reap
                break
            time.sleep(0.02)
        else:
            pytest.fail(f"compiler process {pid} still runs")
