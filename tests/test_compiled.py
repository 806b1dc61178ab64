"""The compiled jet: series._Program's ODE run emitted as C, against the
Python run it stands in for. Bit for bit on drawn states and orders, the
same errors, and the same output bytes where no compiler or no private
cache is found."""
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from nkshoot import series
from nkshoot.integrate import MAX_VOLUME_EVENT, integrate
from nkshoot.series import (_load_c, _Program, handoff, series_psi_a,
                            series_psi_b)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PROGRAM = sys.modules["nkshoot.integrate"]._PROGRAM
SRC = Path(series.__file__).resolve().parents[1]
needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no C compiler (cc) on PATH")


def python_jet(y, n):
    # np.vecdot warns where a convolution sum overflows; the C run does not
    with np.errstate(all="ignore"):
        return PROGRAM._run([*np.asarray(y, dtype=float).tolist(), 0.0], n,
                            None, None)


def compiled_jet(y, n):
    # fill, which _jet calls, on the C path: a state of dim floats, n >= 0
    if not PROGRAM._compiled:
        pytest.skip("the compiled jet did not load (no private cache)")
    return PROGRAM.fill(y, (), n)


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
def test_a_negative_order_raises_on_both_paths(order):
    # fill passes a negative order to the Python run, and the C function
    # itself refuses the empty buffers such an order gives
    y = np.array([0.8, 0.3, 1.1, -0.9, 0.2, 0.7, -0.4])
    for jet in (compiled_jet, python_jet):
        with pytest.raises((ValueError, series.struct.error)):
            jet(y, order)
    with pytest.raises(ValueError):
        R, out = np.empty((order + 1, PROGRAM._width)), np.empty((7, 0))
        PROGRAM._compiled(series._ptr(y), order, series._ptr(R),
                          series._ptr(out))


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
    built = sorted(p.name for p in (compiled / "nkshoot").iterdir())
    assert len(built) == 2 and built[0].endswith(".c")
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
        "int jet(const double *y, long n, double *R, double *out)"
        " { return 1; }\n")
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
    assert _load_c("int jet;\n", timeout_s=0.5) is None
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
