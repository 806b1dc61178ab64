"""nkshoot benchmark.

    python3 perfbench/run.py --workload {table2,sweep,verify} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
Each workload is a closed loop in one single-threaded process; the
workloads and why they were chosen are described in ``workloads.py``.

--trace 0 measures the end-to-end metrics with no tracing. The host this
was written on changes speed by up to 2x, from one second to the next and
for tens of seconds at a time, so every timing is normalised for machine
speed by a calibration kernel timed throughout the run (``calibrate.py``):
it reads in seconds at reference speed. The raw times are in the record.

  setup_s        median over fresh processes of the time ``import nkshoot``
                 plus one warm-up ``solve_family("beta", 1.0)`` take inside
                 the process, calibrated there with the pure-Python kernel
                 (the whole process's wall time is in the record)
  wall_norm_s    median normalised wall time of one pass of the workload
  op_norm_ms_p50/p90  per pass, the 50th/90th percentile normalised latency
                 of one operation: a ``solve_family`` call (sweep), a table
                 row (table2), a ``run_verify`` call (verify); median over
                 passes
  rss_peak_mb    peak resident memory of the measuring processes
  drift_headroom decades between the integrator's drift abort threshold and
                 the worst relative first-integral drift of a pass; median
                 over passes
  ref_headroom   decades between tolerance and the largest deviation from
                 reference of a pass; median over passes
                 (``workloads.py`` says why these are headrooms; the raw
                 worst_drift and ref_err of every pass are in the record)

--trace 1 runs the same passes untraced and then traced, checks that both
give bit-identical results, and reports the per-layer metrics: spans around
the calls into each nkshoot module (see ``tracer.py``), per pass, plus the
tracing overhead and the share of traced wall time the spans cover. Traced
passes run without the calibration kernel, so per-layer times are raw; the
overhead compares them with the untraced passes' wall time less the kernel's.

Operations that raise ``NKError`` or fail a check count in ``failed``; the
failed ratio is ``failed / attempted``. The line before the last is a full
record: environment, every pass, and for table2 the accuracy fingerprint
((a, b), Vmax and vol of every row at full precision). The last line is the
result object.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORKLOADS = ("table2", "sweep", "verify")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
SETUP_CODE = f"""\
import json, sys
from time import perf_counter
sys.path.insert(0, {str(HERE)!r})
from calibrate import INTERP_REF_S, Calibrator, interp_kernel
with Calibrator(interp_kernel, INTERP_REF_S) as cal:
    t0 = perf_counter()
    import nkshoot
    nkshoot.solve_family("beta", 1.0)
    t1 = perf_counter()
print(json.dumps([t1 - t0, *cal.normalise(t0, t1)]))
"""
DEADLINE_S = 170.0
# table2 repeats identical inputs, so each pass gets a fresh process (no state
# carries over from one repeat to the next) and at least two passes run, to
# compare their JSON byte for byte.
PROCESS_PER_PASS = {"table2"}
MIN_PASSES = {"table2": 2}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def _run(cmd: list[str], deadline: float) -> subprocess.CompletedProcess:
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise BenchError("time limit reached")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"timed out: {' '.join(cmd)}") from e
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return proc


def measure_setup(deadline: float) -> list[dict]:
    """Seconds of each set-up run: the whole process, and import plus
    warm-up inside it raw, without kernel calls, and normalised."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    _run(cmd, deadline)          # unmeasured: writes the bytecode caches
    runs = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        out = _run(cmd, deadline).stdout
        process_s = perf_counter() - t0
        raw, net, norm = json.loads(out.strip().splitlines()[-1])
        runs.append({"process_s": process_s, "raw_s": raw, "net_s": net,
                     "norm_s": norm})
    return runs


def run_worker(workload: str, seed: int, trace: int, deadline: float,
               passes: int | None = None,
               seconds: float | None = None) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    cmd += ["--passes", str(passes)] if passes else ["--seconds", str(seconds)]
    return json.loads(_run(cmd, deadline).stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, deadline: float,
            trace: int = 0, passes: int | None = None,
            min_passes: int = 1) -> list[dict]:
    """Worker results covering ``passes`` passes, or at least
    ``min_passes`` passes and then more until ``seconds`` have passed."""
    if workload not in PROCESS_PER_PASS:
        return [run_worker(workload, seed, trace, deadline, passes, seconds)]
    results = []
    t0 = perf_counter()
    while True:
        results.append(run_worker(workload, seed, trace, deadline, passes=1))
        if passes is not None:
            if len(results) >= passes:
                return results
        elif len(results) >= min_passes and perf_counter() - t0 >= seconds:
            return results


def all_passes(results: list[dict]) -> list[dict]:
    return [p for r in results for p in r["passes"]]


def quantile(xs, q: int) -> float:
    """q-th percentile, interpolated between samples."""
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def pass_median(passes: list[dict], stat) -> float:
    """Median over passes of a per-pass statistic."""
    return statistics.median(stat(p) for p in passes)


def end_to_end(results: list[dict], setup: list[dict]) -> dict:
    passes = all_passes(results)
    values = {
        "setup_s": (statistics.median(r["norm_s"] for r in setup), "s"),
        "wall_norm_s": (pass_median(passes, lambda p: p["wall_norm_s"]), "s"),
        "op_norm_ms_p50": (pass_median(
            passes, lambda p: quantile(p["op_norm_s"], 50) * 1e3), "ms"),
        "op_norm_ms_p90": (pass_median(
            passes, lambda p: quantile(p["op_norm_s"], 90) * 1e3), "ms"),
        "rss_peak_mb": (max(r["rss_mb"] for r in results), "MB"),
        "drift_headroom": (pass_median(passes, lambda p: p["drift_headroom"]),
                           "decades"),
        "ref_headroom": (pass_median(passes, lambda p: p["ref_headroom"]),
                         "decades"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-pass span totals and counters from the traced run."""
    n = len(all_passes(traced))
    spans, counters = {}, {}
    root_s = distinct = 0.0
    for r in traced:
        rep = r["trace"]
        for name, s in rep["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0, "ms_p50": []})
            acc["calls"] += s["calls"]
            acc["total_s"] += s["total_s"]
            acc["self_s"] += s["self_s"]
            if s["calls"] and "ms_p50" in s:
                acc["ms_p50"].append(s["ms_p50"])
        for k, v in rep["counters"].items():
            counters[k] = counters.get(k, 0) + v
        root_s += rep["root_s"]
        distinct += rep["distinct_solves"]

    def calls(name):
        return spans[name]["calls"] / n

    def self_s(name):
        return spans[name]["self_s"] / n

    def total_s(name):
        return spans[name]["total_s"] / n

    def ms_p50(name):
        vals = spans[name]["ms_p50"]
        return statistics.median(vals) if vals else 0.0

    def per_call(name, scale):
        c = spans[name]["calls"]
        return spans[name]["total_s"] / c * scale if c else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    traced_wall = sum(p["wall_s"] for p in all_passes(traced))
    untraced_wall = sum(p["wall_net_s"] for p in all_passes(untraced))
    n_roots = (spans["shoot.find_doubling"]["calls"]
               + spans["shoot.find_matching"]["calls"])
    m = {
        "series.family_series.calls": (calls("series.family_series"), "count"),
        "series.family_series.ms_p50": (ms_p50("series.family_series"), "ms"),
        "series.family_series.self_s": (self_s("series.family_series"), "s"),
        "series.handoff.ms_p50": (ms_p50("series.handoff"), "ms"),
        "integrate.integrate.calls": (calls("integrate.integrate"), "count"),
        "integrate.integrate.ms_p50": (ms_p50("integrate.integrate"), "ms"),
        "integrate.integrate.self_s": (self_s("integrate.integrate"), "s"),
        "integrate.steps": (counters.get("accepted_steps", 0) / n, "count"),
        "state.rhs_vec.calls": (calls("state.rhs_vec"), "count"),
        "state.rhs_vec.us_per_call": (per_call("state.rhs_vec", 1e6), "us"),
        "state.constraints.calls": (calls("state.constraints"), "count"),
        "state.constraints.self_s": (self_s("state.constraints"), "s"),
        "geometry.self_s": (self_s("geometry.max_orbit_record"), "s"),
        "shoot.probe.self_s": (self_s("shoot.probe"), "s"),
        "shoot.volume_quad.self_s": (self_s("shoot.volume_quad"), "s"),
        "shoot.solve_family.calls": (calls("shoot.solve_family"), "count"),
        "shoot.solve_family.ms_p50": (ms_p50("shoot.solve_family"), "ms"),
        "shoot.solve_family.self_s": (self_s("shoot.solve_family"), "s"),
        "shoot.solve_family.distinct_ratio": (
            ratio(distinct, spans["shoot.solve_family"]["calls"]), "ratio"),
        "shoot.solves_per_root": (
            ratio(counters.get("root_family_solves", 0), n_roots), "count"),
        "shoot.refine_matching.objective_evals": (
            counters.get("objective_evals", 0) / n, "count"),
        "shoot.refine_matching.self_s": (self_s("shoot.refine_matching"), "s"),
        "shoot.trace_curve.total_s": (total_s("shoot.trace_curve"), "s"),
        "shoot.find_doubling.total_s": (total_s("shoot.find_doubling"), "s"),
        "shoot.find_matching.total_s": (total_s("shoot.find_matching"), "s"),
        "exact.eval.calls": (calls("exact.eval"), "count"),
        # every closed-form evaluator run_verify calls
        "exact.eval.self_s": (self_s("exact.eval")
                              + self_s("exact.eval_calabi_yau")
                              + self_s("exact.legendre_xi"), "s"),
        "emit.write_json.ms": (per_call("emit.write_json", 1e3), "ms"),
        "cli.self_s": (self_s("cli.run_verify") + self_s("cli.sine_cone_row"),
                       "s"),
        "trace.coverage": (ratio(root_s, traced_wall), "ratio"),
        "trace.overhead": (ratio(traced_wall, untraced_wall) - 1.0, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def environment() -> dict:
    git_rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            git_rev = rev.stdout.strip() if rev.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "nkshoot").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode())
        src_hash.update(path.read_bytes())
    return {"git_rev": git_rev, "src_sha256": src_hash.hexdigest(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "thread_vars": {v: "1" for v in THREAD_VARS}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (SRC / "nkshoot" / "__init__.py").is_file():
        print(f"no nkshoot sources under {SRC}", file=sys.stderr)
        return 2

    deadline = perf_counter() + DEADLINE_S
    load_before = os.getloadavg()
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment()}
    try:
        if args.trace:
            untraced = measure(args.workload, args.seed, args.seconds / 2,
                               deadline)
            n = len(all_passes(untraced))
            traced = measure(args.workload, args.seed, args.seconds, deadline,
                             trace=1, passes=n)
            metrics = per_layer(traced, untraced)
            results = untraced + traced
            mismatched = sum(a["digest"] != b["digest"] for a, b in
                             zip(all_passes(untraced), all_passes(traced)))
        else:
            setup = measure_setup(deadline)
            results = measure(args.workload, args.seed, args.seconds,
                              deadline,
                              min_passes=MIN_PASSES.get(args.workload, 1))
            metrics = end_to_end(results, setup)
            record["setup_runs"] = setup
            # table2 and verify repeat identical inputs in every pass
            digests = {p["digest"] for p in all_passes(results)}
            mismatched = (len(digests) - 1
                          if args.workload in ("table2", "verify") else 0)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    passes = all_passes(results)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes) + mismatched
    record.update({
        "load_before": load_before, "load_after": os.getloadavg(),
        "versions": results[0]["versions"],
        "failed_ratio": failed / attempted,
        "mismatched_passes": mismatched,
        "passes": [{k: v for k, v in p.items()
                    if k not in ("op_s", "op_norm_s")} for p in passes],
        "metrics": metrics,
    })
    if args.workload == "table2":
        record["fingerprint"] = passes[0]["fingerprint"]
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
