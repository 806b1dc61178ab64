"""Tests of the benchmark itself (not collected by the package's suite):

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import nkshoot  # noqa: E402
from nkshoot import shoot  # noqa: E402

import workloads  # noqa: E402
import numpy_kernel  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from tracer import Tracer  # noqa: E402

# one doubling and one matching row keep the test short but cover every
# counter in _counters
TABLE2_SUBSET = ("s3s3-homog", "s6-exotic")


def _counters(report: dict) -> dict:
    spans, counters = report["spans"], report["counters"]
    return {
        "state.rhs_vec.calls": spans["state.rhs_vec"]["calls"],
        "integrate.steps": counters.get("accepted_steps", 0),
        "shoot.solve_family.calls": spans["shoot.solve_family"]["calls"],
        "shoot.refine_matching.objective_evals":
            counters.get("objective_evals", 0),
    }


def _traced(run):
    with Tracer() as tracer:
        result = run()
    return result, tracer.report()


@pytest.mark.parametrize("workload", ["table2", "sweep", "verify"])
def test_traced_runs_match_untraced_and_repeat_counters(workload, tmp_path):
    if workload == "table2":
        def run():
            return workloads.table2_pass(7, str(tmp_path), TABLE2_SUBSET)
    else:
        def run():
            return workloads.run_pass(workload, 7, 0, str(tmp_path))

    plain = run()
    first, rep1 = _traced(run)
    second, rep2 = _traced(run)
    assert plain["failed"] == 0
    assert first["digest"] == plain["digest"] == second["digest"]
    assert first["worst_drift"] == plain["worst_drift"]
    assert _counters(rep1) == _counters(rep2)
    if workload != "verify":
        assert rep1["spans"]["shoot.solve_family"]["calls"] > 0
        assert rep1["root_s"] > 0.9 * first["wall_s"]
    if workload == "table2":
        assert rep1["counters"]["objective_evals"] > 0


def test_calibrated_pass_matches_plain_and_timer_stops(tmp_path):
    plain = workloads.run_pass("sweep", 7, 0, str(tmp_path))
    handler = signal.getsignal(signal.SIGALRM)
    with Calibrator(numpy_kernel.kernel, numpy_kernel.REF_S) as cal:
        calibrated = workloads.run_pass("sweep", 7, 0, str(tmp_path))
    assert calibrated["digest"] == plain["digest"]
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler

    t0, t1 = calibrated["span"]
    inside = [(s, e) for s, e in cal.samples if t0 <= s and e <= t1]
    assert len(inside) >= 2     # the timer ran during the pass
    net, norm = cal.normalise(t0, t1)
    assert net == pytest.approx(t1 - t0 - sum(e - s for s, e in inside))
    speed = numpy_kernel.REF_S / cal.kernel_s(t0, t1)
    assert 0.5 * speed < norm / net < 2.0 * speed


def test_tracer_restores_every_binding():
    originals = (shoot.solve_family, shoot.integrate, nkshoot.integrate,
                 sys.modules["nkshoot.integrate"].rhs_vec,
                 nkshoot.geometry.MaxOrbitRecord.__dict__["from_state"],
                 nkshoot.exact.NamedSolution.eval)
    with Tracer():
        assert shoot.solve_family is not originals[0]
        assert sys.modules["nkshoot.integrate"].rhs_vec is not originals[3]
    assert (shoot.solve_family, shoot.integrate, nkshoot.integrate,
            sys.modules["nkshoot.integrate"].rhs_vec,
            nkshoot.geometry.MaxOrbitRecord.__dict__["from_state"],
            nkshoot.exact.NamedSolution.eval) == originals


def _bracket_ends(kind, args):
    if kind == "doubling":
        return list(args[1])
    return [x for pair in args for x in pair]


def test_inputs_follow_the_seed():
    exact = workloads.table2_inputs(0)
    assert [row[3] for row in exact] == [t[3] for t in workloads.TABLE2_TARGETS]
    jittered = workloads.table2_inputs(5)
    assert jittered == workloads.table2_inputs(5)
    for (_, _, kind, got), (_, _, _, ref) in zip(jittered, exact):
        for g, r in zip(_bracket_ends(kind, got), _bracket_ends(kind, ref)):
            assert g != r and abs(g / r - 1.0) <= workloads.BRACKET_JITTER

    params = [p for k in range(3) for _, p in workloads.sweep_inputs(5, k)]
    assert len(set(params)) == len(params)
    assert workloads.sweep_inputs(5, 1) == workloads.sweep_inputs(5, 1)
    for fam, lo, hi in workloads.SWEEP_RANGES:
        vals = [p for f, p in workloads.sweep_inputs(5, 0) if f == fam]
        assert len(vals) == workloads.SWEEP_STRATA
        assert all(lo <= p <= hi for p in vals)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
