"""Command-line front end: verification suites, family solves, curve tracing,
reference-table reproduction, and plot emission.

Exit codes: 0 success, 2 solver failure, 3 invalid configuration. Any solver
failure prints a machine-readable JSON error record to stderr. Configuration
precedence is flags > config file > defaults; the config file is a flat
"key = value" text format (keys match the long option names).
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import exact, shoot
from .emit import (CURVE_HEADER, SERIES_HEADER, TRAJECTORY_HEADER, SvgFigure,
                   curve_rows, series_rows, trajectory_rows, write_csv,
                   write_json, write_svg)
from .errors import InvalidArgumentError, NKError
from .integrate import integrate
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
            key, val = line.split("=", 1)
            cfg[key.strip()] = val.strip()
    return cfg


def _config_defaults(sp: argparse.ArgumentParser,
                     config: dict[str, str]) -> None:
    """Config values become the defaults of sp's options. argparse converts
    a string default with the option's own type= when no flag overrides it,
    and a bad value ends in _Parser.error; choices it checks on flags only,
    so they are checked here."""
    defaults = {}
    for action in sp._actions:
        if action.dest not in config:
            continue
        value = config[action.dest]
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            sp.error(f"argument {action.option_strings[0]}: invalid choice: "
                     f"{value!r} (choose from {choices})")
        defaults[action.dest] = value
    sp.set_defaults(**defaults)


def build_parser(config: dict[str, str] | None = None,
                 command: str | None = None) -> argparse.ArgumentParser:
    """The nkshoot parser; the config values, when given, become the
    defaults of command's options (flags > config file > defaults)."""
    p = _Parser(prog="nkshoot",
                description="Numerical reconstruction of cohomogeneity-one "
                            "nearly Kahler structures by shooting")
    p.add_argument("--config", help="flat key=value config file")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        for flag in ("--rtol", "--atol"):
            sp.add_argument(flag, type=float, default=1e-12,
                            help="the integrator uses only min(rtol, atol)")
        sp.add_argument("--order", type=int, default=DEFAULT_ORDER,
                        help="series truncation order")
        sp.add_argument("--out", default=None, help="output file path")

    sp = sub.add_parser(
        "verify", help="closed-form residual and invariant suites",
        description="--rtol/--atol set the integrator only; every gate is "
                    "fixed, the drift gate 1e-9 and the drift abort 1e-6 "
                    "included, so looser tolerances can fail verify")
    common(sp)

    sp = sub.add_parser("series", help="coefficient dump of one series family")
    common(sp)
    sp.add_argument("--family", required=True,
                    choices=list(_SERIES_FAMILIES))
    sp.add_argument("--param", type=float, required=True)

    sp = sub.add_parser("traj", help="single trajectory CSV up to the "
                                     "maximal-volume event")
    common(sp)
    sp.add_argument("--family", required=True, choices=["alpha", "beta"])
    sp.add_argument("--param", type=float, required=True)
    sp.add_argument("--horizon", type=float, default=None,
                    help="integrate to this time instead of the event")

    sp = sub.add_parser("trace", help="maximal-volume curve CSV")
    common(sp)
    sp.add_argument("--family", required=True, choices=["alpha", "beta"])
    sp.add_argument("--lo", type=float, required=True)
    sp.add_argument("--hi", type=float, required=True)
    sp.add_argument("--n", type=int, default=15, help="grid samples")

    sp = sub.add_parser("solve", help="one complete solution as JSON")
    common(sp)
    sp.add_argument("--target", required=True, choices=list(_TARGETS))

    sp = sub.add_parser("table2", help="all six reference rows as JSON")
    common(sp)

    sp = sub.add_parser("fig2", help="curve plot (alpha_H, beta_H, "
                                     "reflections, roots) as SVG")
    common(sp)
    sp.add_argument("--svg", default=None, help="output SVG path (alias of --out)")
    sp.add_argument("--markers", choices=["none", "known", "solve"],
                    default="solve")
    sp.add_argument("--alo", type=float, default=0.12)
    sp.add_argument("--ahi", type=float, default=4.0)
    sp.add_argument("--blo", type=float, default=0.12)
    sp.add_argument("--bhi", type=float, default=1.6)

    sp = sub.add_parser("scan-s2s4", help="negative scan for a lambda=1 "
                                          "boundary crossing of alpha")
    common(sp)
    sp.add_argument("--lo", type=float, default=0.1)
    sp.add_argument("--hi", type=float, default=10.0)
    sp.add_argument("--n", type=int, default=40)
    if config:
        _config_defaults(sub.choices[command], config)
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
        traj = integrate(start, hi - 0.05 * span, rtol=rtol, atol=atol)
        ok &= _check(f"{name}: integrated drift", float(np.max(traj.drift)),
                     1e-9, lines)
    return ok, lines


# ---------------------------------------------------------------------------
# solve targets and the reference table

def _solve_target(target: str, order: int, rtol: float, atol: float,
                  curves: tuple[shoot.Curve, shoot.Curve] | None = None):
    _, construction, args = _TARGETS[target]
    if construction == "doubling":
        return shoot.find_doubling(*args, order, rtol, atol)
    return shoot.find_matching(*args, order=order, rtol=rtol, atol=atol,
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


def run_table2(order: int, rtol: float, atol: float) -> dict:
    rows = [_sine_cone_row()]
    for target, (label, _, _) in _TARGETS.items():
        row = _solve_target(target, order, rtol, atol).as_dict()
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


def run_fig2(args, order: int, rtol: float, atol: float) -> SvgFigure:
    alpha = shoot.trace_curve("alpha", args.alo, args.ahi, n_samples=18,
                              order=order, rtol=rtol, atol=atol)
    beta = shoot.trace_curve("beta", args.blo, args.bhi, n_samples=18,
                             order=order, rtol=rtol, atol=atol)
    fig = SvgFigure(title="maximal-volume orbit curves in the hyperboloid chart")
    fig.add_polyline("alpha_H", "#c0392b", alpha.h_points)
    fig.add_polyline("beta_H", "#2471a3", beta.h_points)
    fig.add_polyline("beta_H reflected in w1", "#7fb3d5",
                     beta.h_points * np.array([-1.0, 1.0]), dash="6,3")
    fig.add_polyline("beta_H reflected in w2", "#a9cce3",
                     beta.h_points * np.array([1.0, -1.0]), dash="6,3")
    if args.markers != "none":
        for label, w1, w2 in _KNOWN_MARKERS:
            fig.add_marker(label, "#1e8449", w1, w2)
        if args.markers == "solve":
            for target, curves in (("s3xs3-exotic", None),
                                   ("s6-exotic", (alpha, beta))):
                sol = _solve_target(target, order, rtol, atol, curves)
                fig.add_marker(_TARGETS[target][0], "#b7950b",
                               *sol.left.record.h_point)
    return fig


# ---------------------------------------------------------------------------
# entry point

def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.config:
        try:
            config = _read_config(args.config)
        except (OSError, ValueError) as e:
            print(f"nkshoot: invalid config: {e}", file=sys.stderr)
            return EXIT_CONFIG
        args = build_parser(config, args.command).parse_args(argv)

    rtol, atol, order, out = args.rtol, args.atol, args.order, args.out
    try:
        if args.command == "verify":
            ok, lines = run_verify(rtol, atol)
            print("\n".join(lines))
            print("verify:", "all checks passed" if ok else "FAILURES above")
            return EXIT_OK if ok else EXIT_SOLVER

        if args.command == "series":
            sol = _SERIES_FAMILIES[args.family](args.param, order)
            path = out or f"series-{args.family}-{args.param}.csv"
            write_csv(path, SERIES_HEADER, series_rows(sol))
            print(f"wrote {path} ({sol.family} family, variable {sol.var}, "
                  f"order {sol.order})")
            return EXIT_OK

        if args.command == "traj":
            if args.horizon is not None:
                sol = family_series(args.family, args.param, order)
                t_star, start = handoff(sol)
                traj = integrate(start, args.horizon, rtol=rtol, atol=atol,
                                 series=sol.t_coeffs)
            else:
                fs = shoot.solve_family(args.family, args.param, order,
                                        rtol, atol)
                traj = fs.traj
            path = out or f"traj-{args.family}-{args.param}.csv"
            write_csv(path, TRAJECTORY_HEADER, trajectory_rows(traj))
            print(f"wrote {path} ({len(traj.times)} nodes, "
                  f"termination {traj.termination})")
            return EXIT_OK

        if args.command == "trace":
            curve = shoot.trace_curve(args.family, args.lo, args.hi,
                                      n_samples=args.n, order=order,
                                      rtol=rtol, atol=atol)
            path = out or f"curve-{args.family}.csv"
            write_csv(path, CURVE_HEADER, curve_rows(curve))
            print(f"wrote {path} ({len(curve.params)} samples)")
            return EXIT_OK

        if args.command == "solve":
            sol = _solve_target(args.target, order, rtol, atol)
            path = out or f"solution-{args.target}.json"
            write_json(path, sol.as_dict())
            print(f"wrote {path} ({sol.manifold}, Vmax = {sol.Vmax:.6f}, "
                  f"vol = {sol.vol:.6f})")
            return EXIT_OK

        if args.command == "table2":
            table = run_table2(order, rtol, atol)
            path = out or "table2.json"
            write_json(path, table)
            print(f"wrote {path} ({len(table['rows'])} rows)")
            return EXIT_OK

        if args.command == "fig2":
            fig = run_fig2(args, order, rtol, atol)
            path = args.svg or out or "fig2.svg"
            write_svg(path, fig)
            print(f"wrote {path}")
            return EXIT_OK

        if args.command == "scan-s2s4":
            report = shoot.scan_s2s4_boundary(args.lo, args.hi, args.n,
                                              order, rtol, atol)
            path = out or "scan-s2s4.json"
            write_json(path, report.as_dict())
            status = ("CROSSING FOUND - inspect brackets"
                      if report.found_root else "no boundary crossing")
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
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
