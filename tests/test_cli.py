"""Command-line interface: exit codes, output formats, argument handling."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ddestab.cli import main

E3 = math.exp(3.0)


# ---------------------------------------------------------------------------
# check


def test_check_certified_exit0(capsys):
    rc = main(["check", "--a", "-2.0", "--theta", "0.39"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "globally stable (core certificate)" in out
    assert "sharp_criterion_margin" in out


def test_check_unit_slope_long_delay(capsys):
    rc = main(["check", "--a", "-1.0", "--delta", "1.0", "--h", "10.0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "globally stable (linear certificate)" in out


def test_check_bad_bound_curvature(capsys):
    rc = main(["check", "--a", "-2.0", "--theta", "0.39", "--b", "-1.0"])
    assert rc == 2
    assert "curvature" in capsys.readouterr().err


def test_check_not_certified_exit1(capsys):
    rc = main(["check", "--a", "-2.0", "--theta", "0.2"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "not certified" in out


def test_check_json(capsys):
    rc = main(["check", "--a", "-2.0", "--theta", "0.39", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["region"] == "core"
    assert data["certified"] is True
    assert data["a"] == -2.0
    assert data["b"] == 1.0
    names = [f["name"] for f in data["facts"]]
    assert "sharp_criterion_margin" in names
    assert all(f["ok"] for f in data["facts"])


def test_check_json_failure_block(capsys):
    rc = main(["check", "--a", "-2.0", "--theta", "0.2", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert data["certified"] is False
    assert data["failure"]["name"] == "sharp_criterion_margin"


def test_check_delta_h_pair(capsys):
    rc = main(["check", "--a", "-2.0", "--delta", "1.0", "--h", "0.9"])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"theta={math.exp(-0.9):.7g}"[:12] in out


def test_check_conflicting_coordinates(capsys):
    rc = main(["check", "--a", "-2.0", "--theta", "0.39", "--delta", "1.0", "--h", "1.0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:")


def test_check_missing_coordinates(capsys):
    rc = main(["check", "--a", "-2.0"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# map


def test_map_stdout_format(capsys):
    rc = main(["map", "--a", "-2.0", "--theta", "0.39", "--n", "20"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "z,F,F1,R_of_rz,R2_of_rz,residual_F,residual_F1"
    assert len(out) == 22


def test_map_nan_policy(tmp_path, capsys):
    path = tmp_path / "map.csv"
    rc = main(
        ["map", "--a", "-2.0", "--theta", "0.39", "--zmin", "-0.5",
         "--zmax", "10.0", "--n", "40", "--out", str(path)]
    )
    assert rc == 0
    rows = path.read_text().splitlines()[1:]
    assert len(rows) == 41
    for row in rows:
        z, f_v, f1_v = (float(x) for x in row.split(",")[:3])
        if z < 0.0:
            assert math.isnan(f1_v)  # the slow branch only exists rightward
        if z == 0.0:
            assert f_v == 0.0 and f1_v == 0.0
        if z > 9.0:
            assert math.isnan(f_v)  # beyond the fixed-point interval
    # residuals tiny wherever the solve ran
    for row in rows:
        parts = [float(x) for x in row.split(",")]
        if not math.isnan(parts[5]):
            assert abs(parts[5]) < 1e-9


@pytest.mark.parametrize("n", ["0", "-3"])
def test_map_needs_one_interval(n, capsys):
    rc = main(["map", "--a", "-2.0", "--theta", "0.39", "--n", n])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: --n must be at least 1")


# ---------------------------------------------------------------------------
# simulate


def test_simulate_summary_and_csv(tmp_path, capsys):
    path = tmp_path / "traj.csv"
    rc = main(
        ["simulate", "--model", f"ricker:q={E3}", "--history", "const:19.0",
         "--delta", "1.0", "--h", "0.5", "--T", "30.0", "--out", str(path)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "asymptotic bounds" in out
    assert path.read_text().splitlines()[0] == "t,x"


def test_simulate_divergence_exit1(capsys):
    # exp(875) overflows on the first stage; the run must report, not crash
    rc = main(
        ["simulate", "--model", "wazewska:b1=1.0,b2=35.0", "--history",
         "const:-25.0", "--delta", "1.0", "--h", "1.0", "--T", "5.0"]
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert "diverged" in err


def test_simulate_bad_model_exit2(capsys):
    rc = main(
        ["simulate", "--model", "lorenz:r=28", "--history", "const:1.0",
         "--delta", "1.0", "--h", "1.0", "--T", "5.0"]
    )
    assert rc == 2
    assert "unknown model" in capsys.readouterr().err


def test_simulate_ramp_history(capsys):
    rc = main(
        ["simulate", "--model", "wright:a=-1.3", "--history", "ramp:0.4",
         "--delta", "1.0", "--h", "0.8", "--T", "20.0"]
    )
    assert rc == 0


@pytest.mark.parametrize("spec", ["ricker:q=20,b=7", "ricker:Q=20"])
def test_simulate_model_keys_exit2(spec, capsys):
    rc = main(
        ["simulate", "--model", spec, "--history", "const:1.0",
         "--delta", "1.0", "--h", "1.0", "--T", "5.0"]
    )
    assert rc == 2
    assert "model 'ricker' takes parameters q," in capsys.readouterr().err


def test_simulate_model_optional_key(capsys):
    argv = ["--history", "const:0.2", "--delta", "1.0", "--h", "1.0", "--T", "5.0"]
    assert main(["simulate", "--model", "rational:a=-2.0"] + argv) == 0
    assert "model=rational(a=-2,b=1)" in capsys.readouterr().out
    assert main(["simulate", "--model", "rational:b=2.0"] + argv) == 2
    assert "model 'rational' takes parameters a, [b]," in capsys.readouterr().err


def _simulate_history(history, capsys):
    rc = main(
        ["simulate", "--model", "wright:a=-1.3", "--history", history,
         "--delta", "1.0", "--h", "1.0", "--T", "10.0"]
    )
    return rc, capsys.readouterr()


@pytest.mark.parametrize("header", ["t,x\n", ""])
def test_simulate_csv_history(header, tmp_path, capsys):
    # constant samples interpolate to the constant history, node for node
    path = tmp_path / "hist.csv"
    path.write_text(header + "-1.0,0.4\n\n-0.5,0.4\n0.0,0.4\n")
    rc, from_csv = _simulate_history(str(path), capsys)
    assert rc == 0
    assert from_csv.out == _simulate_history("const:0.4", capsys)[1].out


@pytest.mark.parametrize(
    "text, line",
    [
        ("t,x\n-1.0,0.5\n-0.5 0.9\n0.0,0.4\n", 3),
        ("t,x\n-1.0,0.5\n-0.5,abc\n0.0,0.4\n", 3),
        ("t,x\n-1.0,0.5,7\n0.0,0.4\n", 2),
        ("-1.0,abc\n-0.5,0.9\n0.0,0.4\n", 1),
    ],
)
def test_simulate_csv_history_bad_row_exit2(text, line, tmp_path, capsys):
    path = tmp_path / "hist.csv"
    path.write_text(text)
    rc, captured = _simulate_history(str(path), capsys)
    assert rc == 2
    assert f"hist.csv, line {line}: expected two numbers t,x" in captured.err


# ---------------------------------------------------------------------------
# nicholson


def test_nicholson_certified(capsys):
    rc = main(["nicholson", "--p", str(E3), "--delta", "1.0", "--h", "0.5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "certified" in out
    assert "not certified" not in out
    assert "attractor bracket" in out


def test_nicholson_not_certified(capsys):
    rc = main(["nicholson", "--p", str(E3), "--delta", "1.0", "--h", "1.2"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "not certified" in out


def test_nicholson_with_simulation(capsys):
    rc = main(
        ["nicholson", "--p", str(E3), "--delta", "1.0", "--h", "0.5",
         "--simulate", "2", "--T-mult", "40.0", "--tol", "0.05"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "worst relative gap" in out


# ---------------------------------------------------------------------------
# verify and region


def test_verify_single_lemma(capsys):
    rc = main(["verify", "--lemma", "r303", "--resolution", "8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("r303: points=8 violations=0")


def test_verify_writes_reports(tmp_path, capsys):
    rc = main(
        ["verify", "--lemma", "expo_bounds", "--resolution", "8",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    data = json.loads((tmp_path / "expo_bounds.json").read_text())
    assert data["violations"] == []


def test_verify_unknown_lemma_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--lemma", "nonsense"])
    assert exc.value.code == 2


def test_region_writes_artifacts(tmp_path, capsys):
    rc = main(["region", "--out", str(tmp_path), "--n-mu", "19", "--raster", "24"])
    out = capsys.readouterr().out
    assert rc == 0
    for name in ("fig1.csv", "fig2_curves.csv", "fig2_raster.csv"):
        assert (tmp_path / name).exists()
        assert name.split(".")[0].split("_")[0] in out


def test_import_stays_numpy_only():
    # a fresh interpreter: the package and its CLI load no process pool and no scipy
    heavy = ("multiprocessing", "concurrent.futures", "scipy")
    code = f"import sys, ddestab, ddestab.cli; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_nicholson_sweep_script_runs(tmp_path):
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "window.csv"
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "nicholson_sweep.py"),
         "--n", "20", "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    rows = out.read_text().splitlines()
    assert rows[0] == "ln_q,c,critical_delta_h"
    assert len(rows) == 1 + 21
    assert "reference point ln q = 3: critical product 1.00883617472" in proc.stdout


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ddestab", "check", "--a", "-2.0", "--theta", "0.39"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "globally stable" in proc.stdout
