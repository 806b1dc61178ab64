"""cli: subcommands, file formats, determinism, exit codes."""
import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import with_top_lambda
from nkshoot import cli, exact
from nkshoot.cli import main
from nkshoot.exact import NAMED_SOLUTIONS, eval_named
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
    # oracle: the per-point loop, one eval per grid point and FD offset
    values = _verify_values(monkeypatch)
    h = 1e-5
    for name, sol in NAMED_SOLUTIONS.items():
        lo, hi = sol.domain
        ts = np.linspace(lo, hi, 1002)[1:-1]
        worst_c = max(constraints(sol.eval(t)).max_abs for t in ts)
        worst_r = 0.0
        for t in ts[::10]:
            if t - 2 * h <= lo or t + 2 * h >= hi:
                continue
            fd = (sol.eval(t - 2 * h).vec - 8 * sol.eval(t - h).vec
                  + 8 * sol.eval(t + h).vec
                  - sol.eval(t + 2 * h).vec) / (12 * h)
            worst_r = max(worst_r,
                          float(np.max(np.abs(rhs(sol.eval(t)) - fd))))
        assert values[f"{name}: first integrals"] == worst_c
        assert values[f"{name}: evolution residual (FD)"] == worst_r


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
    # grid point 500 is neither the first point nor off the FD subgrid; a
    # running max(worst, r) would drop the NaN and pass
    lo, hi = NAMED_SOLUTIONS["s6-round"].domain
    t_bad = np.linspace(lo, hi, 1002)[1:-1][500]
    _with_value_at(monkeypatch, "s6-round", t_bad, 2, math.nan)
    assert run(["verify"], tmp_path) == 2
    out = capsys.readouterr().out
    assert "FAIL  s6-round: first integrals: nan" in out
    assert "FAIL  s6-round: evolution residual (FD): nan" in out
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
    assert "FAIL  smoothing: hypo evolution residual (FD): nan" in out
    assert "PASS  small-resolution: hypo evolution residual (FD)" in out


def test_verify_fd_check_raises_on_a_degenerate_point(tmp_path, capsys,
                                                      monkeypatch):
    # lambda = 0 at one FD point: the check raises as rhs does, exit 2
    lo, hi = NAMED_SOLUTIONS["cp3-homog"].domain
    t_bad = np.linspace(lo, hi, 1002)[1:-1][300]
    _with_value_at(monkeypatch, "cp3-homog", t_bad, 0, 0.0)
    assert run(["verify"], tmp_path) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "DegenerateStateError"
    assert record["message"] == "lambda = 0.0 <= 1e-08"


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
    ("rtol = fast", "--rtol", ["trace", "--family", "beta", "--lo", "0.6",
                               "--hi", "1.2"]),
    ("markers = bogus", "--markers", ["fig2"]),
], ids=["order", "rtol", "markers"])
def test_bad_config_value_exits_3(tmp_path, capsys, line, option, command):
    # config values are converted and checked exactly like the flag
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "never.out"
    with pytest.raises(SystemExit) as e:
        main(["--config", str(cfg)] + command + ["--out", str(out)])
    assert e.value.code == 3
    assert option in capsys.readouterr().err
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
    (["traj", "--family", "alpha", "--param", "1", "--rtol", "nan"],
     "tolerances"),
    (["verify", "--rtol", "nan"], "tolerances"),
    (["traj", "--family", "alpha", "--param", "1", "--rtol", "-1"],
     "tolerances"),
    (["traj", "--family", "alpha", "--param", "1", "--atol", "0"],
     "tolerances"),
], ids=["trace-range", "trace-n", "traj-param", "scan-lo", "scan-n",
        "fig2-alo", "traj-horizon-backward", "traj-horizon-nan",
        "traj-param-inf", "series-param-nan", "series-param-inf",
        "bubble-param-nan", "trace-hi-inf", "traj-rtol-nan",
        "verify-rtol-nan", "traj-rtol-negative", "traj-atol-zero"])
def test_invalid_argument_exits_3(tmp_path, capsys, command, message):
    # rejected by the package before any solve: message on stderr, exit 3,
    # no output file
    out = tmp_path / "never.out"
    assert main(command + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "invalid" in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["30", "100", "1000"])
def test_verify_with_tolerances_too_loose_for_a_jet_exits_3(capsys, tol):
    # the jet order would be 1 or 0: a typed error before the first step,
    # not a traceback
    assert main(["verify", "--rtol", tol, "--atol", tol]) == 3
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


def test_solver_failure_exits_2(tmp_path, capsys):
    # an impossible bracket has no sign change: machine-readable error record
    out = tmp_path / "x.json"
    code = main(["solve", "--target", "s3s3-homog", "--out", str(out),
                 "--rtol", "1e-12"])
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


def test_fig2_svg(tmp_path):
    out = tmp_path / "fig.svg"
    assert main(["fig2", "--svg", str(out), "--markers", "known",
                 "--alo", "0.4", "--ahi", "2.2", "--blo", "0.4",
                 "--bhi", "1.6"]) == 0
    text = out.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 4
    assert "<circle" in text
    # determinism
    out2 = tmp_path / "fig2.svg"
    main(["fig2", "--svg", str(out2), "--markers", "known",
          "--alo", "0.4", "--ahi", "2.2", "--blo", "0.4", "--bhi", "1.6"])
    assert out.read_bytes() == out2.read_bytes()


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
