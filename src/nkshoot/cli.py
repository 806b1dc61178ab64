"""Command-line front end: verification suites, family solves, curve tracing,
reference-table reproduction, and plot emission.

Exit codes: 0 success, 2 solver failure, 3 invalid configuration. Any solver
failure prints a machine-readable JSON error record to stderr. Precedence is
flags > config file > defaults; the config file is flat "key = value" text,
each key once and the long name of some command's option, required or not.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import exact, shoot
from .emit import (CURVE_HEADER, SERIES_HEADER, TRAJECTORY_HEADER,
                   record_row, series_rows, trajectory_rows, write_csv,
                   write_json, write_svg)
from .errors import InvalidArgumentError, NKError
from .integrate import DEFAULT_TOL, integrate
from .series import (DEFAULT_ORDER, family_series, handoff, series_bubble_a,
                     series_bubble_b, series_psi_a, series_psi_b)
from .state import (_first_integrals, apply_symmetry, check_regular,
                    complex_step, constraints, rhs_vec)

EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_CONFIG = 3


# every solve target once, in table-2 row order: its table-2 label, its
# construction, and the doubling's (family, bracket, which) or the
# matching's (alpha range, beta range)
_TARGETS = {
    "s3xs3-exotic": ("S3xS3-new", "doubling", ("beta", (0.2, 0.6), "v0")),
    "s6-exotic": ("S6-new", "matching", ((0.35, 0.95), (0.35, 0.95))),
    "cp3": ("CP3", "doubling", ("alpha", (0.7, 1.0), "v0")),
    "s3s3-homog": ("S3xS3-std", "doubling", ("beta", (0.9, 1.1), "u0")),
    "s6-homog": ("S6-std", "matching", ((1.2, 2.4), (1.05, 1.9))),
}

_SERIES_FAMILIES = {"psi-a": series_psi_a, "psi-b": series_psi_b,
                    "bubble-a": series_bubble_a, "bubble-b": series_bubble_b}


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad usage; the contract here is 3."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _read_config(path: str) -> dict[str, str]:
    cfg = {}
    with open(path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key in cfg:
                raise ValueError(f"config key {key!r} given twice")
            cfg[key] = val
    return cfg


def build_parser() -> argparse.ArgumentParser:
    """The nkshoot parser: --config, then one subparser per command."""
    p = _Parser(prog="nkshoot",
                description="Numerical reconstruction of cohomogeneity-one "
                            "nearly Kahler structures by shooting")
    p.add_argument("--config", help="flat key=value config file")
    sub = p.add_subparsers(dest="command", required=True)

    def add_command(name, help, tol=True, order_out=True, **kwargs):
        """A subcommand with the shared options its code reads: --tol
        (series never integrates), --order and --out (verify builds no
        series and writes no file)."""
        sp = sub.add_parser(name, help=help, **kwargs)
        if tol:
            sp.add_argument("--tol", type=float, default=DEFAULT_TOL,
                            help="integrator tolerance (1e-2 tol per step)")
        if order_out:
            sp.add_argument("--order", type=int, default=DEFAULT_ORDER,
                            help="series truncation order")
            sp.add_argument("--out", default=None, help="output file path")
        return sp

    add_command("verify", "closed-form residual and invariant suites",
                order_out=False,
                description="--tol sets the integrator only; every gate "
                            "is fixed, the drift gate 1e-9 and the drift "
                            "abort 1e-6 included, so a looser tolerance can "
                            "fail verify")

    sp = add_command("series", "coefficient dump of one series family",
                     tol=False)
    sp.add_argument("--family", required=True,
                    choices=list(_SERIES_FAMILIES))
    sp.add_argument("--param", type=float, required=True)

    sp = add_command("traj", "single trajectory CSV up to the "
                             "maximal-volume event")
    sp.add_argument("--family", required=True, choices=["alpha", "beta"])
    sp.add_argument("--param", type=float, required=True)
    sp.add_argument("--horizon", type=float, default=None,
                    help="integrate to this time instead of the event")

    sp = add_command("trace", "maximal-volume curve CSV")
    sp.add_argument("--family", required=True, choices=["alpha", "beta"])
    sp.add_argument("--lo", type=float, required=True)
    sp.add_argument("--hi", type=float, required=True)
    sp.add_argument("--n", type=int, default=15, help="grid samples")

    sp = add_command("solve", "one complete solution as JSON")
    sp.add_argument("--target", required=True, choices=list(_TARGETS))

    add_command("table2", "all six reference rows as JSON")

    sp = add_command("fig2", "curve plot (alpha_H, beta_H, reflections, "
                             "roots) as SVG")
    sp.add_argument("--markers", choices=["none", "known", "solve"],
                    default="solve")
    sp.add_argument("--alo", type=float, default=0.12)
    sp.add_argument("--ahi", type=float, default=4.0)
    sp.add_argument("--blo", type=float, default=0.12)
    sp.add_argument("--bhi", type=float, default=1.6)

    sp = add_command("scan-s2s4", "negative scan for a lambda=1 "
                                  "boundary crossing of alpha")
    sp.add_argument("--lo", type=float, default=0.1)
    sp.add_argument("--hi", type=float, default=10.0)
    sp.add_argument("--n", type=int, default=40)
    return p


# ---------------------------------------------------------------------------
# verify suite

def _check(name: str, value: float, tol: float, lines: list[str]) -> bool:
    ok = value < tol
    lines.append(f"{'PASS' if ok else 'FAIL'}  {name}: {value:.3e} "
                 f"(tol {tol:.1e})")
    return ok


def run_verify(rtol: float, atol: float) -> tuple[bool, list[str]]:
    """Every check line and whether all passed. Each residual is the
    NaN-propagating maximum over its points, so a NaN anywhere fails."""
    tol = float(np.minimum(rtol, atol))
    lines: list[str] = []
    ok = True
    # closed forms satisfy the system: the first integrals vanish and rhs is
    # the complex-step derivative of the evaluator, both at round-off
    for name, sol in exact.NAMED_SOLUTIONS.items():
        lo, hi = sol.domain
        ts = np.linspace(lo, hi, 1002)[1:-1]
        integrals = _first_integrals(*sol.vec(ts))[:4]
        ok &= _check(f"{name}: first integrals",
                     float(np.max(np.abs(integrals))), 1e-12, lines)
        ts = ts[::10]
        y = sol.vec(ts)
        check_regular(y)
        d = complex_step(sol.vec, ts)
        ok &= _check(f"{name}: evolution residual (complex step)",
                     float(np.max(np.abs(rhs_vec(ts, y) - d))), 1e-8, lines)
    # Calabi-Yau forms satisfy their evolution systems
    for name, xs in (("small-resolution", (1.2, 1.7, 2.5)),
                     ("smoothing", (0.2, 0.6, 1.0))):
        worst = np.max([exact.eval_calabi_yau(name, x)[1] for x in xs])
        ok &= _check(f"{name}: hypo evolution residual (complex step)",
                     float(worst), 1e-7, lines)
    # Legendre solutions solve the linearized (sin t xi')' + 12 sin t xi = 0
    ts = np.array([0.6, 1.0, 2.2])
    residuals = [
        complex_step(lambda t: np.sin(t) * exact.legendre_xi(c1, c2, t)[1], ts)
        + 12 * np.sin(ts) * exact.legendre_xi(c1, c2, ts)[0]
        for c1, c2 in ((1.0, 0.0), (0.0, 1.0), (0.05, 1.0))]
    ok &= _check("legendre: equation residual (complex step)",
                 float(np.max(np.abs(residuals))), 1e-8, lines)
    # symmetries are involutions and preserve the constraints
    residuals = []
    for name, sol in exact.NAMED_SOLUTIONS.items():
        st = sol.eval(0.4 * sum(sol.domain))
        for word in ("tau1", "tau2", "tau3", "tau4"):
            twice = apply_symmetry(word, apply_symmetry(word, st))
            residuals.append(np.max(np.abs(twice.vec - st.vec)))
            residuals.append(constraints(apply_symmetry(word, st)).max_abs)
    ok &= _check("symmetries: involution + constraint preservation",
                 float(np.max(residuals)), 1e-12, lines)
    # first-integral drift along the four closed forms
    for name, sol in exact.NAMED_SOLUTIONS.items():
        lo, hi = sol.domain
        span = hi - lo
        start = sol.eval(lo + 0.05 * span)
        traj = integrate(start, hi - 0.05 * span, tol=tol)
        ok &= _check(f"{name}: integrated drift", float(np.max(traj.drift)),
                     1e-9, lines)
    return ok, lines


# ---------------------------------------------------------------------------
# solve targets and the reference table

def _solve_target(target: str, order: int, tol: float,
                  curves: tuple[shoot.Curve, shoot.Curve] | None = None):
    _, construction, args = _TARGETS[target]
    if construction == "doubling":
        return shoot.find_doubling(*args, order, tol, tol)
    return shoot.find_matching(*args, order=order, rtol=tol, atol=tol,
                               curves=curves)


def _sine_cone_row() -> dict:
    # the sine cone's volume is the integral of sin^5 over [0, pi], 16/15
    return {
        "manifold": "sine-cone",
        "type": "singular",
        "family_left": None, "param_left": 0.0,
        "family_right": None, "param_right": 0.0,
        "symmetry": None,
        "T_total": math.pi,
        "Vmax": 1.0,
        "vol": (16.0 / 15.0) / shoot.S6_STD_TOTAL_VOLUME,
    }


def run_table2(order: int, tol: float) -> dict:
    rows = [_sine_cone_row()]
    for target, (label, _, _) in _TARGETS.items():
        row = _solve_target(target, order, tol).as_dict()
        row["manifold"] = label
        rows.append(row)
    return {"normalization": "vol(S6-std) = 1", "rows": rows}


# ---------------------------------------------------------------------------
# figure

_KNOWN_MARKERS = (
    ("CP3", 0.0, 1.0 / (2.0 * math.sqrt(2.0))),
    ("S3xS3-std", 1.0 / math.sqrt(3.0), 0.0),
    ("S6-std", math.sqrt(2.0 / 3.0), math.sqrt(3.0 / 8.0)),
)


def run_fig2(args) -> tuple[list, list]:
    """fig2's polylines (label, color, dash, points): alpha_H, beta_H and
    beta_H reflected in w1 and in w2; and its markers (label, color, w1,
    w2): the known roots, then the solved S3xS3-new and S6-new, as
    --markers asks. The S6-new matching reads the plotted curves."""
    order, tol = args.order, args.tol
    alpha = shoot.trace_curve("alpha", args.alo, args.ahi, 18, order, tol)
    beta = shoot.trace_curve("beta", args.blo, args.bhi, 18, order, tol)
    polylines = [
        ("alpha_H", "#c0392b", "", alpha.h_points),
        ("beta_H", "#2471a3", "", beta.h_points),
        ("beta_H reflected in w1", "#7fb3d5", "6,3",
         beta.h_points * shoot._REFLECTIONS["w1"]),
        ("beta_H reflected in w2", "#a9cce3", "6,3",
         beta.h_points * shoot._REFLECTIONS["w2"])]
    markers = []
    if args.markers != "none":
        markers += [(label, "#1e8449", w1, w2)
                    for label, w1, w2 in _KNOWN_MARKERS]
    if args.markers == "solve":
        for target, curves in (("s3xs3-exotic", None),
                               ("s6-exotic", (alpha, beta))):
            sol = _solve_target(target, order, tol, curves)
            markers.append((_TARGETS[target][0], "#b7950b",
                            *sol.left.record.h_point))
    return polylines, markers


# ---------------------------------------------------------------------------
# entry point

def main(argv=None) -> int:
    # --config is read first: each value for an option of the command enters
    # argv as that flag right after the command name, so argparse converts
    # and checks it like the flag, it may supply a required option, and a
    # later flag overrides it; a key that is an option of no command exits 3
    argv = sys.argv[1:] if argv is None else list(argv)
    head = _Parser(prog="nkshoot", add_help=False)
    head.add_argument("--config")
    head.add_argument("command", nargs=argparse.REMAINDER)
    pre = head.parse_known_args(argv)[0]
    try:
        config = _read_config(pre.config) if pre.config else {}
    except (OSError, ValueError) as e:
        print(f"nkshoot: invalid config: {e}", file=sys.stderr)
        return EXIT_CONFIG
    parser = build_parser()
    commands = next(a.choices for a in parser._actions if a.dest == "command")
    known = {a.dest for cmd in commands.values() for a in cmd._actions}
    if unknown := sorted(config.keys() - (known - {"help"})):
        parser.error(f"unknown config key: {', '.join(unknown)}")
    if pre.command and pre.command[0] in commands:
        at = len(argv) - len(pre.command) + 1
        argv[at:at] = [f"{a.option_strings[0]}={config[a.dest]}"
                       for a in commands[pre.command[0]]._actions
                       if a.dest in config]
    args = parser.parse_args(argv)

    try:
        if args.command == "verify":
            ok, lines = run_verify(args.tol, args.tol)
            print("\n".join(lines))
            print("verify:", "all checks passed" if ok else "FAILURES above")
            return EXIT_OK if ok else EXIT_SOLVER

        if args.command == "series":
            sol = _SERIES_FAMILIES[args.family](args.param, args.order)
            path = args.out or f"series-{args.family}-{args.param}.csv"
            write_csv(path, SERIES_HEADER, series_rows(sol))
            print(f"wrote {path} ({sol.family} family, variable {sol.var}, "
                  f"order {sol.order})")
            return EXIT_OK

        if args.command == "traj":
            if args.horizon is not None:
                sol = family_series(args.family, args.param, args.order)
                t_star, start = handoff(sol)
                traj = integrate(start, args.horizon, tol=args.tol,
                                 series=sol.t_coeffs)
            else:
                traj = shoot.solve_family(args.family, args.param, args.order,
                                          args.tol, args.tol).traj
            path = args.out or f"traj-{args.family}-{args.param}.csv"
            write_csv(path, TRAJECTORY_HEADER, trajectory_rows(traj))
            print(f"wrote {path} ({len(traj.times)} nodes, "
                  f"termination {traj.termination})")
            return EXIT_OK

        if args.command == "trace":
            curve = shoot.trace_curve(args.family, args.lo, args.hi,
                                      n_samples=args.n, order=args.order,
                                      tol=args.tol)
            path = args.out or f"curve-{args.family}.csv"
            write_csv(path, CURVE_HEADER, map(record_row, curve.records))
            print(f"wrote {path} ({len(curve.params)} samples)")
            return EXIT_OK

        if args.command == "solve":
            sol = _solve_target(args.target, args.order, args.tol)
            path = args.out or f"solution-{args.target}.json"
            write_json(path, sol.as_dict())
            print(f"wrote {path} ({sol.manifold}, Vmax = {sol.Vmax:.6f}, "
                  f"vol = {sol.vol:.6f})")
            return EXIT_OK

        if args.command == "table2":
            table = run_table2(args.order, args.tol)
            path = args.out or "table2.json"
            write_json(path, table)
            print(f"wrote {path} ({len(table['rows'])} rows)")
            return EXIT_OK

        if args.command == "fig2":
            polylines, markers = run_fig2(args)
            path = args.out or "fig2.svg"
            write_svg(path, "maximal-volume orbit curves in the hyperboloid "
                      "chart", polylines, markers)
            print(f"wrote {path}")
            return EXIT_OK

        if args.command == "scan-s2s4":
            report = shoot.scan_s2s4_boundary(args.lo, args.hi, args.n,
                                              args.order, args.tol)
            path = args.out or "scan-s2s4.json"
            write_json(path, report)
            status = ("CROSSING FOUND - inspect brackets"
                      if report["found_root"] else "no boundary crossing")
            print(f"wrote {path}: {status}")
            return EXIT_OK
    except NKError as e:
        record = {"error": type(e).__name__, "message": str(e),
                  "command": args.command}
        print(json.dumps(record), file=sys.stderr)
        return EXIT_SOLVER
    except InvalidArgumentError as e:
        print(f"nkshoot: invalid config: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:    # only the output write touches the file system
        print(f"nkshoot: cannot write {args.out or 'the output file'}: "
              f"{e.strerror or e}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
