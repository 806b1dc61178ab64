"""The three benchmark workloads: input generation from the seed, one pass of
each, and the correctness checks on what a pass returns.

Every pass returns a dict with its wall time and the perf_counter interval it
ran in, one latency and interval per operation (the worker normalises the
intervals for machine speed, see ``calibrate.py``), the operation and
failure counts, a digest of everything the program returned (so
that two passes over the same inputs can be compared bit for bit), and two
accuracy figures:

- worst_drift: the largest relative first-integral drift over every
  trajectory the pass returns;
- ref_err: the largest deviation from reference over the checked fields, as
  a share of that field's tolerance (above 1 fails the check).

Both sit at round-off level, where any change to the arithmetic moves them by
a factor of order one, and on sweep they vary with the seed by as much. They
are therefore also given as headroom in decades: log10(gate / value), with
the integrator's drift abort threshold and the tolerance as gates.

Why these workloads:

- table2: the user's headline command (``nkshoot table2``). Most of its time
  is the two ``find_matching`` calls, so root-solver and solve-reuse changes
  show here, and series and integration run under real load.
- sweep: ``solve_family`` at distinct stratified log-uniform parameters and no
  root solves. Per-solve work (series, integration, probe, quadrature) shows
  here; root-solver and memoisation changes should not.
- verify: ``cli.run_verify`` on the four closed forms. No series and no shoot
  code; long event-free integrations from closed-form starts, plus ``exact``
  and ``state.constraints``. The bypass for series changes.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import re
from time import perf_counter

import numpy as np

from nkshoot import NKError, cli, emit, shoot
from nkshoot.integrate import DEFAULT_ATOL, DRIFT_ABORT
from nkshoot.state import constraints

ORDER, RTOL, ATOL = 40, 1e-12, 1e-12

# ---------------------------------------------------------------------------
# table2

# (target, manifold label, kind, arguments): the CLI's table2 solves
TABLE2_TARGETS = (
    ("s3xs3-exotic", "S3xS3-new", "doubling", ("beta", (0.2, 0.6), "v0")),
    ("s6-exotic", "S6-new", "matching", ((0.35, 0.95), (0.35, 0.95))),
    ("cp3", "CP3", "doubling", ("alpha", (0.7, 1.0), "v0")),
    ("s3s3-homog", "S3xS3-std", "doubling", ("beta", (0.9, 1.1), "u0")),
    ("s6-homog", "S6-std", "matching", ((1.2, 2.4), (1.05, 1.9))),
)
BRACKET_JITTER = 0.05

SQRT2, SQRT3, SQRT5 = math.sqrt(2.0), math.sqrt(3.0), math.sqrt(5.0)
CLOSED_FORM_TOL = 1e-6
# README table: (param_left, param_right, Vmax, vol, tolerance). The new rows
# are checked at the README's printed precision (half a unit in the last
# printed digit); that deviation is mostly the README's rounding, so only the
# closed-form rows enter ref_err.
README_ROWS = {
    "sine-cone": (None, None, 1.0, 16.0 / 27.0, CLOSED_FORM_TOL),
    "S3xS3-new": (0.3736, 0.3736, 1.0041, 0.5929, 5e-5),
    "S6-new": (0.5646, 0.5990, 1.0385, 0.5971, 5e-5),
    "CP3": (SQRT3 / 2, SQRT3 / 2, 27 * SQRT2 / 32, 5.0 / 8.0, CLOSED_FORM_TOL),
    "S3xS3-std": (1.0, 1.0, 4.0 / 3.0, 10 * math.pi / (27 * SQRT3),
                  CLOSED_FORM_TOL),
    "S6-std": (SQRT3, 1.5, 81 * SQRT3 / (25 * SQRT5), 1.0, CLOSED_FORM_TOL),
}
CLOSED_FORM_ROWS = ("sine-cone", "CP3", "S3xS3-std", "S6-std")
FINGERPRINT_FIELDS = ("param_left", "param_right", "Vmax", "vol")


def headroom(value: float, gate: float) -> float:
    """Decades between a gate and a value below it."""
    return math.log10(gate / max(value, 1e-300))


def _pass_result(span, op_spans, attempted, failed, drift, ref_err, digest,
                 **extra) -> dict:
    return {"wall_s": span[1] - span[0], "span": span,
            "op_s": [t1 - t0 for t0, t1 in op_spans], "op_spans": op_spans,
            "attempted": attempted,
            "failed": failed, "worst_drift": drift, "ref_err": ref_err,
            "drift_headroom": headroom(drift, DRIFT_ABORT),
            "ref_headroom": headroom(ref_err, 1.0),
            "digest": digest, **extra}


def _jitter(value: float, rng) -> float:
    return value * (1.0 + BRACKET_JITTER * rng.uniform(-1.0, 1.0))


def table2_inputs(seed: int) -> list[tuple]:
    """Each bracket or range end shrunk or widened by up to 5 %; seed 0 gives
    exactly the CLI's brackets."""
    rng = np.random.default_rng(seed)
    out = []
    for target, label, kind, args in TABLE2_TARGETS:
        if seed:
            if kind == "doubling":
                fam, (lo, hi), which = args
                args = (fam, (_jitter(lo, rng), _jitter(hi, rng)), which)
            else:
                args = tuple((_jitter(lo, rng), _jitter(hi, rng))
                             for lo, hi in args)
        out.append((target, label, kind, args))
    return out


def _solve_row(kind: str, args: tuple):
    if kind == "doubling":
        fam, bracket, which = args
        return shoot.find_doubling(fam, bracket, which, ORDER, RTOL, ATOL)
    alpha_range, beta_range = args
    return shoot.find_matching(alpha_range, beta_range, order=ORDER,
                               rtol=RTOL, atol=ATOL)


def table2_pass(seed: int, out_dir: str, targets=None) -> dict:
    inputs = [row for row in table2_inputs(seed)
              if targets is None or row[0] in targets]
    path = os.path.join(out_dir, f"table2-{os.getpid()}.json")
    op_spans, failed, solutions = [], 0, []
    t0 = perf_counter()
    rows = [cli._sine_cone_row()]
    op_spans.append((t0, perf_counter()))
    for target, label, kind, args in inputs:
        t_op = perf_counter()
        try:
            sol = _solve_row(kind, args)
        except NKError:
            failed += 1
            continue
        finally:
            op_spans.append((t_op, perf_counter()))
        row = sol.as_dict()
        row["manifold"] = label
        rows.append(row)
        solutions.append(sol)
    table = {"normalization": "vol(S6-std) = 1", "rows": rows}
    emit.write_json(path, table)
    span = (t0, perf_counter())
    with open(path, "rb") as f:
        data = f.read()
    os.unlink(path)

    ref_err = readme_err = 0.0
    for row in rows:
        err = _readme_error(row)
        failed += err > 1.0
        if row["manifold"] in CLOSED_FORM_ROWS:
            ref_err = max(ref_err, err)
        else:
            readme_err = max(readme_err, err)
    drift = max((float(np.max(fs.traj.drift))
                 for sol in solutions for fs in (sol.left, sol.right)),
                default=0.0)
    return _pass_result(
        span, op_spans, len(inputs) + 1, failed, drift, ref_err,
        hashlib.sha256(data).hexdigest(), readme_err=readme_err,
        fingerprint={row["manifold"]: [row[k] for k in FINGERPRINT_FIELDS]
                     for row in rows})


def _readme_error(row: dict) -> float:
    """Largest deviation of a row from the README table, as a share of the
    row's tolerance."""
    *ref, tol = README_ROWS[row["manifold"]]
    err = 0.0
    for key, want in zip(FINGERPRINT_FIELDS, ref):
        if want is not None:
            err = max(err, abs(row[key] - want) / tol)
    return err


# ---------------------------------------------------------------------------
# sweep

SWEEP_RANGES = (("alpha", 0.12, 4.0), ("beta", 0.12, 1.6))
SWEEP_STRATA = 8         # solves per family per pass


def sweep_inputs(seed: int, pass_index: int) -> list[tuple[str, float]]:
    """One log-uniform parameter per stratum of each family's range, the
    families interleaved. Every pass draws fresh parameters, so no two
    solves in a run share inputs."""
    rng = np.random.default_rng([seed, pass_index])
    per_family = []
    for fam, lo, hi in SWEEP_RANGES:
        u = (np.arange(SWEEP_STRATA) + rng.random(SWEEP_STRATA)) / SWEEP_STRATA
        params = np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
        per_family.append([(fam, float(p)) for p in rng.permutation(params)])
    return [item for pair in zip(*per_family) for item in pair]


def event_residual(state) -> float:
    """|2 lambda^4 u1 - 3 u2 v2| at the maximal-volume event."""
    return abs(2.0 * state.lam ** 4 * state.u[1]
               - 3.0 * state.u[2] * state.v[2])


def sweep_pass(seed: int, pass_index: int) -> dict:
    inputs = sweep_inputs(seed, pass_index)
    op_spans, solves, failed = [], [], 0
    t0 = perf_counter()
    for fam, param in inputs:
        t_op = perf_counter()
        try:
            solves.append(shoot.solve_family(fam, param, ORDER, RTOL, ATOL))
        except NKError:
            failed += 1
        op_spans.append((t_op, perf_counter()))
    span = (t0, perf_counter())

    # gates: the integrator's absolute tolerance for the event condition and
    # its drift abort threshold for the first integrals
    ref_err, drift, digest = 0.0, 0.0, hashlib.sha256()
    for fs in solves:
        st = fs.record.state
        err = max(event_residual(st) / DEFAULT_ATOL,
                  constraints(st).rel_drift(st) / DRIFT_ABORT)
        failed += err > 1.0
        ref_err = max(ref_err, err)
        drift = max(drift, float(np.max(fs.traj.drift)))
        digest.update(repr((fs.family, fs.param, fs.t_star, fs.vol_integral,
                            fs.record.T, st.vec.tolist(),
                            len(fs.traj.times))).encode())
    return _pass_result(span, op_spans, len(inputs), failed, drift, ref_err,
                        digest.hexdigest(), params=[p for _, p in inputs])


# ---------------------------------------------------------------------------
# verify

_CHECK_LINE = re.compile(r"^(PASS|FAIL)  (.+): (\S+) \(tol (\S+)\)$")


def verify_pass() -> dict:
    t0 = perf_counter()
    try:
        ok, lines = cli.run_verify(RTOL, ATOL)
    except NKError:
        ok, lines = False, []
    span = (t0, perf_counter())
    ref_err, drift = 0.0, 0.0
    for line in lines:
        m = _CHECK_LINE.match(line)
        if m is None:
            ok = False
            continue
        value, tol = float(m.group(3)), float(m.group(4))
        ref_err = max(ref_err, value / tol)
        if m.group(2).endswith("integrated drift"):
            drift = max(drift, value)
    ok = ok and bool(lines)
    return _pass_result(span, [span], 1, int(not ok), drift, ref_err,
                        hashlib.sha256(json.dumps([ok, lines]).encode())
                        .hexdigest())


def run_pass(workload: str, seed: int, pass_index: int, out_dir: str) -> dict:
    if workload == "table2":
        return table2_pass(seed, out_dir)
    if workload == "sweep":
        return sweep_pass(seed, pass_index)
    if workload == "verify":
        return verify_pass()
    raise ValueError(f"unknown workload {workload!r}")
