"""cli: subcommands, file formats, determinism, exit codes."""
import json
import math
import os

import numpy as np
import pytest

from nkshoot.cli import main


def run(args, tmp_path):
    return main([a.replace("@TMP@", str(tmp_path)) for a in args])


def test_verify_passes(tmp_path, capsys):
    assert run(["verify"], tmp_path) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


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
], ids=["trace-range", "trace-n", "traj-param", "scan-lo", "scan-n",
        "fig2-alo", "traj-horizon-backward", "traj-horizon-nan",
        "traj-param-inf", "series-param-nan", "series-param-inf",
        "bubble-param-nan", "trace-hi-inf"])
def test_invalid_argument_exits_3(tmp_path, capsys, command, message):
    # rejected by the package before any solve: message on stderr, exit 3,
    # no output file
    out = tmp_path / "never.out"
    assert main(command + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "invalid" in err and message in err
    assert not out.exists()


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
    from nkshoot.emit import RECORD_HEADER, full_record_row, write_csv
    from nkshoot.shoot import max_orbit
    rec = max_orbit("beta", 1.0)
    out = tmp_path / "record.csv"
    write_csv(str(out), RECORD_HEADER, [full_record_row(rec)])
    lines = out.read_text().splitlines()
    assert lines[0].startswith("family,param,T,lambda,mu,w0,w1,w2,Vmax,B")
    cells = lines[1].split(",")
    assert cells[0] == "beta"
    assert float(cells[1]) == 1.0
    assert abs(float(cells[3]) - 1.0) < 1e-8


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
