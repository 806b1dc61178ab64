"""cli: subcommands, file formats, determinism, exit codes."""
import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import float_bits, with_top_lambda
from nkshoot import cli, exact, shoot
from nkshoot.cli import main
from nkshoot.exact import NAMED_SOLUTIONS, eval_named
from nkshoot.integrate import DEFAULT_TOL
from nkshoot.series import DEFAULT_ORDER
from nkshoot.state import constraints, rhs


def run(args, tmp_path):
    return main([a.replace("@TMP@", str(tmp_path)) for a in args])


def test_verify_passes(tmp_path, capsys):
    assert run(["verify"], tmp_path) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def _verify_values(monkeypatch):
    """The exact value behind each of run_verify's check lines."""
    values = {}
    check = cli._check

    def recording_check(name, value, tol, lines):
        values[name] = value
        return check(name, value, tol, lines)
    monkeypatch.setattr(cli, "_check", recording_check)
    cli.run_verify(1e-12, 1e-12)
    return values


def test_verify_array_checks_equal_the_pointwise_loop(monkeypatch):
    # oracle: the per-point loop, one eval and one complex step per point
    values = _verify_values(monkeypatch)
    for name, sol in NAMED_SOLUTIONS.items():
        lo, hi = sol.domain
        ts = np.linspace(lo, hi, 1002)[1:-1]
        worst_c = max(constraints(sol.eval(t)).max_abs for t in ts)
        worst_r = 0.0
        for t in ts[::10]:
            d = sol.vec(t + 1e-20j).imag / 1e-20
            worst_r = max(worst_r,
                          float(np.max(np.abs(rhs(sol.eval(t)) - d))))
        assert values[f"{name}: first integrals"] == worst_c
        assert values[f"{name}: evolution residual (complex step)"] == worst_r


def test_verify_derivative_residuals_are_round_off(monkeypatch):
    # the complex step has no truncation error: all seven derivative checks
    # sit at round-off, far below the 1.9e-10 a fourth-order finite
    # difference left on s6-round and smoothing
    values = _verify_values(monkeypatch)
    derivative = {k: v for k, v in values.items()
                  if k.endswith("(complex step)")}
    assert len(derivative) == 7
    assert max(derivative.values()) <= 1e-10, derivative


def _with_value_at(monkeypatch, name, t_bad, index, value):
    """Replace NAMED_SOLUTIONS[name] by a copy whose component index is
    value at the time t_bad."""
    sol = NAMED_SOLUTIONS[name]

    def evaluator(t):
        y = sol.evaluator(t)
        y[index, ...] = np.where(t == t_bad, value, y[index])
        return y
    monkeypatch.setitem(NAMED_SOLUTIONS, name,
                        dataclasses.replace(sol, evaluator=evaluator))


def test_verify_fails_on_a_nan_at_one_interior_point(tmp_path, capsys,
                                                     monkeypatch):
    # grid point 500 is neither the first point nor off the derivative
    # subgrid; a running max(worst, r) would drop the NaN and pass
    lo, hi = NAMED_SOLUTIONS["s6-round"].domain
    t_bad = np.linspace(lo, hi, 1002)[1:-1][500]
    _with_value_at(monkeypatch, "s6-round", t_bad, 2, math.nan)
    assert run(["verify"], tmp_path) == 2
    out = capsys.readouterr().out
    assert "FAIL  s6-round: first integrals: nan" in out
    assert "FAIL  s6-round: evolution residual (complex step): nan" in out
    assert "PASS  sine-cone: first integrals" in out
    assert out.endswith("verify: FAILURES above\n")


def test_verify_fails_on_a_nan_calabi_yau_residual(tmp_path, capsys,
                                                   monkeypatch):
    eval_calabi_yau = exact.eval_calabi_yau

    def nan_at_middle(name, x):
        comps, res = eval_calabi_yau(name, x)
        return comps, (math.nan if (name, x) == ("smoothing", 0.6) else res)
    monkeypatch.setattr(exact, "eval_calabi_yau", nan_at_middle)
    assert run(["verify"], tmp_path) == 2
    out = capsys.readouterr().out
    assert "FAIL  smoothing: hypo evolution residual (complex step): nan" in out
    assert "PASS  small-resolution: hypo evolution residual (complex step)" in out


def test_verify_derivative_check_raises_on_a_degenerate_point(
        tmp_path, capsys, monkeypatch):
    # lambda = 0 at one derivative-check point: the check raises as rhs
    # does, exit 2
    lo, hi = NAMED_SOLUTIONS["cp3-homog"].domain
    t_bad = np.linspace(lo, hi, 1002)[1:-1][300]
    _with_value_at(monkeypatch, "cp3-homog", t_bad, 0, 0.0)
    assert run(["verify"], tmp_path) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "DegenerateStateError"
    assert record["message"] == "lambda = 0.0 <= 1e-08"


def test_verify_tolerances_set_the_integrator_only(tmp_path, capsys):
    # the drift gate (1e-9) and the drift abort (1e-6) do not follow
    # --tol: looser tolerances fail the gate, then abort the run
    args = ["verify", "--tol", "1e-8"]
    assert run(args, tmp_path) == 2
    out = capsys.readouterr().out
    assert re.search(r"^FAIL  s6-round: integrated drift: \S+ "
                     r"\(tol 1\.0e-09\)$", out, re.M)
    assert run(["verify", "--tol", "1e-4"], tmp_path) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConstraintDriftError"
    assert "> 1e-06" in record["message"]
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "integrator only" in " ".join(capsys.readouterr().out.split())


def test_series_dump_roundtrip(tmp_path):
    out = tmp_path / "coef.csv"
    assert main(["series", "--family", "psi-a", "--param", "1.0",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "component,order,coefficient"
    rows = [ln.split(",") for ln in lines[1:]]
    got = {(r[0], int(r[1])): float(r[2]) for r in rows}
    assert got[("lam", 1)] == 1.5
    assert got[("u0", 0)] == 1.0
    # shortest round-trip floats: parse-and-reformat is the identity
    for r in rows[:50]:
        assert repr(float(r[2])) == r[2]


def test_series_dump_deterministic(tmp_path):
    for family in ("psi-a", "psi-b", "bubble-a", "bubble-b"):
        a = tmp_path / f"{family}-a.csv"
        b = tmp_path / f"{family}-b.csv"
        args = ["series", "--family", family, "--param", "0.5"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_traj_csv(tmp_path):
    out = tmp_path / "traj.csv"
    assert main(["traj", "--family", "beta", "--param", "1.0",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("t,lambda,u0,u1,u2,v0,v1,v2,I1,I2,I3,I4,V,l")
    first = [float(x) for x in lines[1].split(",")]
    last = [float(x) for x in lines[-1].split(",")]
    assert first[0] < last[0]
    assert abs(last[0] - math.pi / (2 * math.sqrt(3))) < 1e-8
    # drift columns stay tiny
    assert max(abs(x) for x in last[8:12]) < 1e-9


def test_trace_csv_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["trace", "--family", "beta", "--lo", "0.6", "--hi", "1.2",
            "--n", "5"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "param,T,lambda,mu,w0,w1,w2,Vmax,B"
    assert len(lines) >= 6


def test_solve_homogeneous_targets(tmp_path):
    out = tmp_path / "sol.json"
    assert main(["solve", "--target", "s3s3-homog", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["manifold"] == "S3xS3"
    assert abs(data["param_left"] - 1.0) < 1e-6
    assert abs(data["vol"] - 10 * math.pi / (27 * math.sqrt(3))) < 1e-6
    assert list(data) == ["type", "family_left", "param_left", "family_right",
                          "param_right", "symmetry", "manifold", "T_total",
                          "Vmax", "vol"]


def test_solve_cp3(tmp_path):
    out = tmp_path / "cp3.json"
    assert main(["solve", "--target", "cp3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["manifold"] == "CP3"
    assert abs(data["param_left"] - math.sqrt(3) / 2) < 1e-6
    assert abs(data["vol"] - 0.625) < 1e-6


def test_traj_horizon_starts_with_the_series_step(tmp_path):
    # beta(1) is the homogeneous S3xS3 solution and its series reaches past
    # t = 0.5: one step, 9 nodes, matching the closed form at the horizon
    out = tmp_path / "traj.csv"
    assert main(["traj", "--family", "beta", "--param", "1.0",
                 "--horizon", "0.5", "--out", str(out)]) == 0
    rows = [[float(v) for v in line.split(",")]
            for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 9
    assert rows[-1][0] == 0.5
    want = eval_named("s3s3-homog", 0.5).vec
    assert max(abs(g - w) for g, w in zip(rows[-1][1:8], want)) < 1e-12


def test_invalid_usage_exits_3(tmp_path):
    with pytest.raises(SystemExit) as e:
        main(["trace", "--family", "gamma", "--lo", "0.1", "--hi", "1.0"])
    assert e.value.code == 3
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 3


def test_bad_config_exits_3(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("rtol 1e-10\n")
    assert main(["--config", str(cfg), "verify"]) == 3


@pytest.mark.parametrize("line,option,command", [
    ("order = abc", "--order", ["series", "--family", "psi-a", "--param", "0.7"]),
    ("tol = fast", "--tol", ["trace", "--family", "beta", "--lo", "0.6",
                             "--hi", "1.2"]),
    ("markers = bogus", "--markers", ["fig2"]),
], ids=["order", "rtol", "markers"])
def test_bad_config_value_exits_3(tmp_path, capsys, line, option, command):
    # config values are converted and checked exactly like the flag (the
    # "rtol" id is the tol case)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "never.out"
    with pytest.raises(SystemExit) as e:
        main(["--config", str(cfg)] + command + ["--out", str(out)])
    assert e.value.code == 3
    assert option in capsys.readouterr().err
    assert not out.exists()


def test_bad_config_value_under_an_overriding_flag_exits_3(tmp_path, capsys):
    # the config value enters as its flag, so it is converted even where a
    # later flag overrides it
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("order = abc\n")
    out = tmp_path / "never.csv"
    with pytest.raises(SystemExit) as e:
        main(["--config", str(cfg), "series", "--family", "psi-a",
              "--param", "0.7", "--order", "20", "--out", str(out)])
    assert e.value.code == 3
    assert "--order" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,message", [
    (["trace", "--family", "alpha", "--lo", "0.5", "--hi", "0.4"], "param_lo"),
    (["trace", "--family", "alpha", "--lo", "0.5", "--hi", "0.6", "--n", "0"],
     "samples"),
    (["traj", "--family", "alpha", "--param", "-1"], "positive"),
    (["scan-s2s4", "--lo", "0"], "param_lo"),
    (["scan-s2s4", "--n", "0"], "samples"),
    (["fig2", "--alo", "0"], "param_lo"),
    (["traj", "--family", "beta", "--param", "0.599", "--horizon", "0.01"],
     "horizon"),
    (["traj", "--family", "beta", "--param", "0.599", "--horizon", "nan"],
     "horizon"),
    (["traj", "--family", "alpha", "--param", "inf"], "finite"),
    (["series", "--family", "psi-a", "--param", "nan"], "finite"),
    (["series", "--family", "psi-b", "--param", "inf"], "finite"),
    (["series", "--family", "bubble-b", "--param", "nan"], "finite"),
    (["trace", "--family", "beta", "--lo", "0.6", "--hi", "inf"], "param_lo"),
    (["traj", "--family", "alpha", "--param", "1", "--tol", "nan"],
     "tolerances"),
    (["verify", "--tol", "nan"], "tolerances"),
    (["traj", "--family", "alpha", "--param", "1", "--tol", "-1"],
     "tolerances"),
    (["traj", "--family", "alpha", "--param", "1", "--tol", "0"],
     "tolerances"),
], ids=["trace-range", "trace-n", "traj-param", "scan-lo", "scan-n",
        "fig2-alo", "traj-horizon-backward", "traj-horizon-nan",
        "traj-param-inf", "series-param-nan", "series-param-inf",
        "bubble-param-nan", "trace-hi-inf", "traj-rtol-nan",
        "verify-rtol-nan", "traj-rtol-negative", "traj-atol-zero"])
def test_invalid_argument_exits_3(tmp_path, capsys, command, message):
    # rejected by the package before any solve: message on stderr, exit 3,
    # no output file (the *-rtol-* and *-atol-* ids are --tol cases)
    out = tmp_path / "never.out"
    out_args = [] if command[0] == "verify" else ["--out", str(out)]
    assert main(command + out_args) == 3
    err = capsys.readouterr().err
    assert "invalid" in err and message in err
    assert not out.exists()


# every command once, with arguments that it accepts on their own
_COMMANDS = {
    "verify": [],
    "series": ["--family", "psi-a", "--param", "0.7"],
    "traj": ["--family", "alpha", "--param", "1"],
    "trace": ["--family", "beta", "--lo", "0.6", "--hi", "1.2", "--n", "3"],
    "solve": ["--target", "s3s3-homog"],
    "table2": [],
    "fig2": ["--markers", "none"],
    "scan-s2s4": ["--n", "3"],
}
_SHARED_OPTIONS = ("--tol", "--order", "--out")


@pytest.mark.parametrize("option", [
    ["--rtol", "nan"], ["--atol", "0"], ["--order", "0"], ["--tol", "nan"],
    ["--tol", "0"], ["--tol", "-1"], ["--rtol", "1e-10"], ["--atol", "1e-10"],
], ids=["rtol-nan", "atol-zero", "order-zero", "tol-nan", "tol-zero",
        "tol-negative", "rtol-removed", "atol-removed"])
@pytest.mark.parametrize("command", list(_COMMANDS))
def test_every_command_exits_3_on_a_bad_tolerance_or_order(
        tmp_path, capsys, command, option):
    # the README's contract: a tolerance that is not positive and finite, or
    # an order below 1, exits 3 with a message on stderr and no output file.
    # A command that reads the option rejects the value; one that lacks the
    # option rejects the flag.
    out = tmp_path / "never.out"
    argv = [command] + _COMMANDS[command] + option
    if command != "verify":
        argv += ["--out", str(out)]
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    assert code == 3
    err = capsys.readouterr().err
    assert err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_each_command_lists_the_shared_options_it_reads(capsys, command):
    # series never integrates; verify builds no series and writes no file;
    # fig2 writes through --out alone; --tol is the only tolerance
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = capsys.readouterr().out
    listed = {flag for flag in _SHARED_OPTIONS + ("--rtol", "--atol", "--svg")
              if flag in text}
    want = {"series": {"--order", "--out"}, "verify": {"--tol"}}
    assert listed == want.get(command, set(_SHARED_OPTIONS))


@pytest.mark.parametrize("tol", ["30", "100", "1000"])
def test_verify_with_tolerances_too_loose_for_a_jet_exits_3(capsys, tol):
    # the jet order would be 1 or 0: a typed error before the first step,
    # not a traceback
    assert main(["verify", "--tol", tol]) == 3
    captured = capsys.readouterr()
    assert "too loose" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_bubble_b_at_zero_is_valid(tmp_path):
    # b = 0 is the asymptotically conical limit of the S3 bubble
    out = tmp_path / "coef.csv"
    assert main(["series", "--family", "bubble-b", "--param", "0",
                 "--out", str(out)]) == 0
    assert out.exists()


def test_order_below_one_exits_3(tmp_path, capsys):
    out = tmp_path / "coef.csv"
    args = ["series", "--family", "psi-a", "--param", "0.7", "--out", str(out)]
    assert main(args + ["--order", "-3"]) == 3
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("order = 0\n")
    assert main(["--config", str(cfg)] + args) == 3
    assert "order" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("out, reason", [
    ("missing/x.csv", "No such file or directory"),
    ("dir", "Is a directory")])
def test_unwritable_output_exits_3(tmp_path, capsys, out, reason):
    # a missing directory or a directory as --out: one line on stderr, exit
    # 3, and no file left behind
    (tmp_path / "dir").mkdir()
    out = tmp_path / out
    assert main(["series", "--family", "psi-a", "--param", "1.0",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == f"nkshoot: cannot write {out}: {reason}\n"
    assert [p.name for p in tmp_path.rglob("*")] == ["dir"]


def test_solver_failure_exits_2(tmp_path, capsys):
    # an impossible bracket has no sign change: machine-readable error record
    out = tmp_path / "x.json"
    code = main(["solve", "--target", "s3s3-homog", "--out", str(out),
                 "--tol", "1e-12"])
    assert code == 0
    # force a failure through trace with a parameter range beyond the
    # series radius gate
    code = main(["traj", "--family", "alpha", "--param", "1e-7"])
    assert code == 2
    err = capsys.readouterr().err
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"]
    assert record["command"] == "traj"


@pytest.mark.parametrize("command", [
    ["series", "--family", "psi-a", "--param", "1e-300"],
    ["series", "--family", "psi-a", "--param", "1e-160"],
    ["series", "--family", "psi-a", "--param", "1e10"],
    ["series", "--family", "psi-a", "--param", "1e100"],
    ["series", "--family", "psi-b", "--param", "1e10"],
    ["series", "--family", "psi-b", "--param", "1e100"],
    ["series", "--family", "psi-b", "--param", "1e200"],
    ["traj", "--family", "alpha", "--param", "1e-200"],
    ["traj", "--family", "alpha", "--param", "1e200"],
], ids=lambda c: f"{c[0]}-{c[2]}-{c[4]}")
def test_parameter_beyond_floats_exits_2(tmp_path, capsys, command):
    # a parameter whose order-0 series terms divide by zero or overflow is a
    # typed solver failure with its JSON record, not a traceback
    out = tmp_path / "never.out"
    assert main(command + ["--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "DegenerateStateError"
    assert record["command"] == command[0]
    assert not out.exists()


def test_handoff_without_reach_exits_2(tmp_path, capsys, monkeypatch):
    # series rows that overflowed give the handoff no reach: a typed solver
    # failure with its JSON record
    from nkshoot import cli
    from nkshoot.series import family_series
    monkeypatch.setattr(cli, "family_series", lambda *args: with_top_lambda(
        family_series(*args), math.inf))
    out = tmp_path / "never.csv"
    assert main(["traj", "--family", "alpha", "--param", "0.5",
                 "--horizon", "1.0", "--out", str(out)]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "OutOfRadiusError"
    assert record["command"] == "traj"
    assert not out.exists()


def test_config_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\norder = 12\n")
    out1 = tmp_path / "c1.csv"
    out2 = tmp_path / "c2.csv"
    # config supplies the order
    assert main(["--config", str(cfg), "series", "--family", "psi-a",
                 "--param", "1.0", "--out", str(out1)]) == 0
    # flag overrides config
    assert main(["--config", str(cfg), "series", "--family", "psi-a",
                 "--param", "1.0", "--order", "20", "--out", str(out2)]) == 0
    n1 = len(out1.read_text().splitlines())
    n2 = len(out2.read_text().splitlines())
    assert n1 < n2


_TRAJ = ["traj", "--family", "beta", "--param", "0.6"]


@pytest.mark.parametrize("lines,key", [
    ("rtol = 1e-10", "rtol"), ("atol = 1e-10", "atol"), ("ordr = 12", "ordr"),
    ("help = 1", "help"), ("config = other.cfg", "config"),
    ("tol = 1e-10\norder = 12\ntol = 1e-8", "'tol'"),
], ids=["rtol", "atol", "ordr", "help", "config", "twice"])
def test_config_key_of_no_command_or_given_twice_exits_3(tmp_path, capsys,
                                                         lines, key):
    # a key that is no command's option (a typo, a removed option) or a key
    # given twice would otherwise be dropped without a word
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(lines + "\n")
    out = tmp_path / "never.csv"
    try:
        code = main(["--config", str(cfg)] + _TRAJ + ["--out", str(out)])
    except SystemExit as e:
        code = e.code
    assert code == 3
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_config_tol_acts_as_the_flag(tmp_path):
    cfg = tmp_path / "tol.cfg"
    cfg.write_text("tol = 1e-10\n")
    paths = [tmp_path / f"{name}.csv" for name in ("config", "flag", "default")]
    assert main(["--config", str(cfg)] + _TRAJ + ["--out", str(paths[0])]) == 0
    assert main(_TRAJ + ["--tol", "1e-10", "--out", str(paths[1])]) == 0
    assert main(_TRAJ + ["--out", str(paths[2])]) == 0
    config, flag, default = (p.read_bytes() for p in paths)
    assert config == flag != default


def test_config_supplies_required_options(tmp_path):
    # --config is read before the command's options are checked, so a
    # required option may come from the file
    cfg = tmp_path / "traj.cfg"
    cfg.write_text("family = beta\nparam = 0.6\n")
    paths = [tmp_path / f"{name}.csv" for name in ("config", "flag")]
    assert main(["--config", str(cfg), "traj", "--out", str(paths[0])]) == 0
    assert main(_TRAJ + ["--out", str(paths[1])]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("lines,missing,given", [
    ("tol = 1e-12", "--family, --param", None),
    ("family = beta", "--param", "--family"),
], ids=["neither", "family-only"])
def test_config_lacking_required_options_exits_3(tmp_path, capsys, lines,
                                                 missing, given):
    cfg = tmp_path / "partial.cfg"
    cfg.write_text(lines + "\n")
    out = tmp_path / "never.csv"
    with pytest.raises(SystemExit) as e:
        main(["--config", str(cfg), "traj", "--out", str(out)])
    assert e.value.code == 3
    err = capsys.readouterr().err
    assert f"required: {missing}" in err
    assert given is None or given not in err
    assert not out.exists()


def test_config_keys_of_another_command_are_ignored(tmp_path, capsys):
    # order and horizon are options of other commands, not of verify
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol = 1e-10\norder = 12\nhorizon = 1.0\n")
    assert main(["--config", str(cfg), "verify"]) == 0
    config = capsys.readouterr().out
    assert main(["verify", "--tol", "1e-10"]) == 0
    assert config == capsys.readouterr().out


README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_readme_command_lines_parse():
    # every example of the README's command-line block is a valid invocation;
    # parsing only, nothing is solved
    block = re.search(r"## Command line\s+```sh\n(.*?)```", README,
                      re.DOTALL).group(1)
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    assert len(lines) >= 8
    for argv in lines:
        assert argv[0] == "nkshoot"
        cli.build_parser().parse_args(argv[1:])


def test_readme_names_only_existing_options():
    # every --flag the README puts in backticks is an option of nkshoot or
    # of one of its commands
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    options = {flag for p in (parser, *commands.values()) for a in p._actions
               for flag in a.option_strings}
    named = {flag for span in re.findall(r"`([^`]*)`", README)
             for flag in re.findall(r"--[a-z][a-z0-9-]*", span)}
    assert {"--config", "--order", "--out"} <= named
    assert named <= options, named - options


def test_fig2_svg(tmp_path):
    out = tmp_path / "fig.svg"
    assert main(["fig2", "--out", str(out), "--markers", "known",
                 "--alo", "0.4", "--ahi", "2.2", "--blo", "0.4",
                 "--bhi", "1.6"]) == 0
    text = out.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 4
    assert "<circle" in text
    # determinism
    out2 = tmp_path / "fig2.svg"
    main(["fig2", "--out", str(out2), "--markers", "known",
          "--alo", "0.4", "--ahi", "2.2", "--blo", "0.4", "--bhi", "1.6"])
    assert out.read_bytes() == out2.read_bytes()


def test_fig2_svg_default_markers_are_solved(tmp_path):
    # the default --markers solve draws the three known roots and the
    # solved S3xS3-new and S6-new, and a second run gives the same bytes
    out, out2 = tmp_path / "fig.svg", tmp_path / "fig2.svg"
    assert main(["fig2", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.count("<circle") == 5
    for label in ("CP3", "S3xS3-std", "S6-std", "S3xS3-new", "S6-new"):
        assert f'font-size="11">{label}</text>' in text
    assert main(["fig2", "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("flags", [[], ["--alo", "0.7"]],
                         ids=["default", "alo-0.7"])
def test_fig2_solved_markers_are_the_roots_solve_writes(flags):
    # the solved markers come from the solve targets' own ranges, whatever
    # ranges the plot is drawn over
    args = cli.build_parser().parse_args(["fig2", *flags])
    markers = {label: point for label, _, *point in cli.run_fig2(args)[1]}
    for target in ("s3xs3-exotic", "s6-exotic"):
        sol = cli._solve_target(target, DEFAULT_ORDER, DEFAULT_TOL)
        assert (float_bits(markers[cli._TARGETS[target][0]])
                == float_bits(sol.left.record.h_point))


def test_record_csv_row(tmp_path):
    from nkshoot.emit import CURVE_HEADER, record_row, write_csv
    from nkshoot.shoot import max_orbit
    rec = max_orbit("beta", 1.0)
    out = tmp_path / "record.csv"
    write_csv(str(out), CURVE_HEADER, [record_row(rec)])
    lines = out.read_text().splitlines()
    assert lines[0].startswith("param,T,lambda,mu,w0,w1,w2,Vmax,B")
    cells = lines[1].split(",")
    assert float(cells[0]) == 1.0
    assert abs(float(cells[2]) - 1.0) < 1e-8


def test_scan_returns_the_record_the_command_writes(tmp_path):
    out = tmp_path / "scan.json"
    assert main(["scan-s2s4", "--lo", "0.5", "--hi", "4.0", "--n", "8",
                 "--out", str(out)]) == 0
    assert shoot.scan_s2s4_boundary(0.5, 4.0, 8) == json.loads(out.read_text())


def test_scan_command(tmp_path):
    out = tmp_path / "scan.json"
    assert main(["scan-s2s4", "--lo", "0.5", "--hi", "3.0", "--n", "6",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["found_root"] is False
    assert len(data["u0_at_event"]) == 6


@pytest.mark.slow
def test_table2(tmp_path):
    out = tmp_path / "table2.json"
    assert main(["table2", "--out", str(out)]) == 0
    rows = {r["manifold"]: r for r in json.loads(out.read_text())["rows"]}
    assert abs(rows["sine-cone"]["vol"] - 16 / 27) < 1e-9
    assert abs(rows["S3xS3-new"]["param_left"] - 0.3736) < 0.002
    assert abs(rows["S3xS3-new"]["vol"] - 0.5929) < 0.001
    assert abs(rows["S6-new"]["param_left"] - 0.5646) < 0.003
    assert abs(rows["S6-new"]["param_right"] - 0.5985) < 0.003
    assert abs(rows["S6-new"]["Vmax"] - 1.0385) < 0.002
    assert abs(rows["CP3"]["vol"] - 0.625) < 1e-6
    assert abs(rows["S3xS3-std"]["vol"] - 10 * math.pi / (27 * math.sqrt(3))) < 1e-6
    assert abs(rows["S6-std"]["vol"] - 1.0) < 1e-6
