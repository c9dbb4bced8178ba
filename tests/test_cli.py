"""Command-line interface: exit codes, output formats, argument handling."""

import hashlib
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ddestab
from ddestab.cli import _build_parser, main

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


# theta = 1e-17 rounds the straightened slope to exactly -1, so the linear
# label stands while one fact of its chain fails
_SLOPE_ROUNDS_TO_MINUS_ONE = ["check", "--a", "-1", "--theta", "1e-17"]


def test_check_verdict_follows_exit_code(capsys):
    rc = main(_SLOPE_ROUNDS_TO_MINUS_ONE)
    out = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert out[0] == "a=-1 theta=1e-17: not certified (linear)"
    assert "  [FAIL] straightened_slope = -1 (need in (-1, 0))" in out


def test_check_json_verdict_follows_exit_code(capsys):
    rc = main([*_SLOPE_ROUNDS_TO_MINUS_ONE, "--json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert data["region"] == "linear"
    assert data["certified"] is False
    assert data["failure"]["name"] == "straightened_slope"


def test_check_delay_past_theta_underflow(capsys):
    # exp(-delta*h) underflows to 0 once delta*h passes about 745: the error
    # names that, not a theta the user never gave
    rc = main(["check", "--a", "-1.0", "--delta", "1.0", "--h", "800"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: exp(-delta*h) underflows to 0 at delta*h = 800\n"


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


def test_map_makes_one_lane_solve(monkeypatch, capsys):
    # the F and F1 samples run as the lanes of one lockstep solve
    calls = []
    solve = ddestab.onedmaps.solve_bracketed

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(ddestab.onedmaps, "solve_bracketed", counted)
    assert main(["map", *_FROZEN_MAP["readme"][0]]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_map_tiny_z_error_frozen(tmp_path, capsys):
    # below z of about 1e-16 the difference form's u1 term cancels to 0
    path = tmp_path / "map.csv"
    argv = ["map", "--a", "-2", "--theta", "0.39", "--zmin", "0", "--zmax", "1e-300", "--n", "3"]
    rc = main([*argv, "--out", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: difference form hit the log singularity at u1\n"
    assert not path.exists()


@pytest.mark.parametrize("n", ["0", "-3"])
def test_map_needs_one_interval(n, capsys):
    rc = main(["map", "--a", "-2.0", "--theta", "0.39", "--n", n])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: --n must be at least 1")


_FINITE = "error: every z sample must be finite"
_POLE = "error: z samples must stay at or above the envelope pole -1"


@pytest.mark.parametrize(
    "zrange, message",
    [
        (["--zmin", "nan"], _FINITE),
        (["--zmax", "inf"], _FINITE),
        (["--zmax", "1e308"], _FINITE),  # (zmax - zmin) * i overflows
        (["--zmin", "-1.5"], _POLE),
        (["--zmin", "4.0", "--zmax", "-1.5"], _POLE),
    ],
)
@pytest.mark.parametrize("to_file", [False, True])
def test_map_rejects_unusable_z_range(zrange, message, to_file, tmp_path, capsys):
    path = tmp_path / "map.csv"
    out = ["--out", str(path)] if to_file else []
    rc = main(["map", "--a", "-2.0", "--theta", "0.39", *zrange, *out])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert not path.exists()


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


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_module(argv, cwd=None):
    """python -m ddestab in a fresh interpreter that imports this same package."""
    root = str(Path(ddestab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "ddestab", *argv],
        capture_output=True, cwd=cwd, env={**os.environ, "PYTHONPATH": path},
    )


# SHA-256 of the stdout and the trajectory CSV of each command: a change to
# the march, the extremum scan or the CSV writer that moves one bit shows here
_FROZEN_HISTORY = "t,x\n" + "".join(
    f"{-1.0 + j / 16!r},{0.5 + 0.01 * j * (16 - j) / 4!r}\n" for j in range(17)
)
_FROZEN_SIMULATE = {
    "ricker-const": (
        ["--model", f"ricker:q={E3!r}", "--history", "const:19.0",
         "--delta", "1.0", "--h", "0.5", "--T", "30.0"],
        "2f7bc0c8ebbb8b5daf4f556a65d0cd6c0cd9186fab4ffe4bb6c9263c74e0fa4e",
        "6adbaeda9fa0efed865b203280e8d1bd9206c928e789cc598a6665cffb2608ca",
    ),
    "wright-ramp": (
        ["--model", "wright:a=-1.3", "--history", "ramp:0.4",
         "--delta", "1.0", "--h", "0.8", "--T", "20.0"],
        "9c60f9f970d3c484d7303c52f20b769cd5ce3bb3cb99cce29492dd90ec840e27",
        "79975bf0586fa75bc66244bf1710ff15922e553bdf6e81fff74dfbc66387cb04",
    ),
    "mackey-csv-step": (
        ["--model", "mackey:b=2.0,n=4.0", "--history", "hist.csv",
         "--delta", "1.0", "--h", "1.0", "--T", "25.0", "--step", "0.01"],
        "0754e36c2f5aaa7e64a74ffc92b3b0f3ef271b979b9b3f1ece66be87d7b5111c",
        "d395fff12b5f4cf4d2f9b09fe8d372ddf2dcd2720776b8dd9893fcf31cee7b38",
    ),
    "rational-const": (
        ["--model", "rational:a=-0.5", "--history", "const:0.3",
         "--delta", "1.0", "--h", "0.7", "--T", "14.0"],
        "e2c0ced874cfbaafe22ebe595ebedcd39c2394e7f6faba98eed3eff682974bf8",
        "5ecc5b2591b36942903be2feefa7434860b30447ba9ca17e80a8f7762a97f70d",
    ),
}
_FROZEN_NICHOLSON = "a641e3a4a18ee1e05fa66f8b96db75b9a91abc2b516a303e654a706adb515c75"


@pytest.mark.parametrize("case", sorted(_FROZEN_SIMULATE))
def test_simulate_bytes_frozen(case, tmp_path):
    argv, out_sha, csv_sha = _FROZEN_SIMULATE[case]
    (tmp_path / "hist.csv").write_text(_FROZEN_HISTORY)
    proc = _run_module(["simulate", *argv, "--out", "traj.csv"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert _sha(proc.stdout) == out_sha
    assert _sha((tmp_path / "traj.csv").read_bytes()) == csv_sha


def test_simulate_in_process_bytes_frozen(tmp_path, capsys, monkeypatch):
    # the same bytes from main() in this interpreter as from a fresh one
    argv, out_sha, csv_sha = _FROZEN_SIMULATE["wright-ramp"]
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", *argv, "--out", "traj.csv"]) == 0
    assert _sha(capsys.readouterr().out.encode()) == out_sha
    assert _sha((tmp_path / "traj.csv").read_bytes()) == csv_sha


def test_nicholson_simulate_bytes_frozen():
    proc = _run_module(
        ["nicholson", "--p", repr(E3), "--delta", "1.0", "--h", "0.9",
         "--simulate", "2", "--T-mult", "60.0"]
    )
    assert proc.returncode == 0, proc.stderr
    assert _sha(proc.stdout) == _FROZEN_NICHOLSON


# SHA-256 of region's stdout and files and of map's CSV: a change to the raster
# labels, the map solves or the number formats that moves one bit shows here
_FROZEN_REGION_STDOUT = "05c7c42088838ffcdf368548ab53a419db26ddebc4aca599e6cc633cd01d0735"
_FROZEN_REGION_FILES = {
    "boundaries.json": "c13f7df7c73fa5407846576c241de0246d18c1b78d00e6e19994b046c15a88d6",
    "fig1.csv": "2093c5cb4b51d365b2f9c10ed69bff7f4ed8596dbf33fe8200b18bcd69077ae2",
    "fig2_curves.csv": "ba438bce2d860c97a4822a0cd4be881738a4f3fc4ac1be8d8ababa61e6dc05c5",
    "fig2_raster.csv": "320fcaa9544e658ba07ee1bcbe4e6445ff8975cfe8cbddf0f6014449e346ed80",
}
_FROZEN_MAP = {
    "readme": (
        ["--a", "-2.0", "--theta", "0.39", "--zmin", "-0.9", "--zmax", "4.0", "--n", "200"],
        "2297e5d53e30d3de47945c67dcc4b7f736045fddcbe5c4e2c87c0608b7144cd5",
    ),
    "pole-to-huge": (
        ["--a", "-2.0", "--theta", "0.39", "--zmin", "-1", "--zmax", "1e300", "--n", "50"],
        "d2e3e069f7474850a41a69f89b439f240242bae5c0c51f15145c97ae8dbacb48",
    ),
    "improper-interval": (
        ["--a", "-2", "--theta", "0.95"],
        "32475254fe072fab3ffd4e2b2ca7d1a4c1d4903b5f1380548721cf297a117324",
    ),
    "small-mu": (
        ["--a", "-12", "--theta", "0.9"],
        "b85710fceb654c01fb5174b313572ed53de5064556f737125af767b64121f1e8",
    ),
}


def _assert_region_frozen(stdout: bytes, out_dir: Path):
    assert _sha(stdout) == _FROZEN_REGION_STDOUT
    assert {p.name: _sha(p.read_bytes()) for p in out_dir.iterdir()} == _FROZEN_REGION_FILES


def test_region_bytes_frozen(tmp_path, capsys, monkeypatch):
    proc = _run_module(["region", "--out", "out"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    _assert_region_frozen(proc.stdout, tmp_path / "out")
    # twice more in this interpreter, through the one parser
    monkeypatch.chdir(tmp_path)
    for _ in range(2):
        shutil.rmtree(tmp_path / "out")
        assert main(["region", "--out", "out"]) == 0
        _assert_region_frozen(capsys.readouterr().out.encode(), tmp_path / "out")


def test_region_and_nicholson_make_no_root_solve(tmp_path, capsys, monkeypatch):
    # the local boundary and the attractor bracket are closed forms: the
    # solver name both modules still import must never be called
    def no_solve(*args, **kwargs):
        raise AssertionError("root solve called")

    monkeypatch.setattr(ddestab.params, "solve_bracketed", no_solve)
    monkeypatch.setattr(ddestab.models, "solve_bracketed", no_solve)
    assert main(["region", "--out", str(tmp_path / "out")]) == 0
    # ln q = 3 > 2: the attractor bracket is computed and printed
    assert main(["nicholson", "--p", str(E3), "--delta", "1.0", "--h", "0.5"]) == 0
    assert "attractor bracket" in capsys.readouterr().out


@pytest.mark.parametrize("case", sorted(_FROZEN_MAP))
def test_map_bytes_frozen(case, capsys):
    argv, csv_sha = _FROZEN_MAP[case]
    proc = _run_module(["map", *argv])
    assert proc.returncode == 0, proc.stderr
    assert _sha(proc.stdout) == csv_sha
    for _ in range(2):
        assert main(["map", *argv]) == 0
        assert _sha(capsys.readouterr().out.encode()) == csv_sha


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


def test_nicholson_long_delay_past_theta_underflow(capsys):
    # exp(-delta*h) underflows to 0 once delta*h passes about 745; a slope of
    # magnitude at most 1 is certified for every delay all the same
    decisions = []
    for h in ("700", "800"):
        assert main(["nicholson", "--p", "5", "--delta", "1", "--h", h]) == 0
        decisions.append(capsys.readouterr().out.splitlines()[1])
    assert decisions == [
        "decision: certified (linear): slope magnitude at most 1: certified for every delay"
    ] * 2


def test_nicholson_not_certified(capsys):
    rc = main(["nicholson", "--p", str(E3), "--delta", "1.0", "--h", "1.2"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "not certified" in out


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--simulate", "-2"], "error: --simulate must be at least 0, got -2"),
        (["--simulate", "1", "--T-mult", "-1"], "error: --T-mult must be positive, got -1.0"),
        (["--simulate", "1", "--T-mult", "0"], "error: --T-mult must be positive, got 0.0"),
        (["--tol", "nan"], "error: --tol must be finite and positive, got nan"),
        (["--tol", "0"], "error: --tol must be finite and positive, got 0.0"),
        (["--tol", "-1"], "error: --tol must be finite and positive, got -1.0"),
        (["--tol", "inf"], "error: --tol must be finite and positive, got inf"),
    ],
)
def test_nicholson_bad_simulation_args_exit2_before_output(extra, message, capsys):
    rc = main(["nicholson", "--p", str(E3), "--delta", "1.0", "--h", "0.5", *extra])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(message)


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


@pytest.mark.parametrize("flag", ["--n-mu", "--raster"])
@pytest.mark.parametrize("n", ["0", "-3"])
def test_region_needs_one_sample(flag, n, tmp_path, capsys):
    rc = main(["region", "--out", str(tmp_path), flag, n])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} must be at least 1, got {n}")
    assert list(tmp_path.iterdir()) == []


def _readme_commands():
    """Each `ddestab ...` command of README's "Command line" block, as argv."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    joined = block.replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in joined.splitlines() if line.startswith("ddestab ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {
        "check", "region", "map", "simulate", "nicholson", "verify"
    }
    parser = _build_parser()
    for argv in commands:
        parser.parse_args(argv)  # exits on a stale flag


def test_parser_built_once():
    assert _build_parser() is _build_parser()


def test_cached_parser_check_json_then_text(capsys):
    argv = ["check", "--a", "-2.0", "--theta", "0.39"]
    assert main([*argv, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["region"] == "core"
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("a=-2 theta=0.39: globally stable")


def test_cached_parser_map_out_then_stdout(tmp_path, capsys):
    path = tmp_path / "map.csv"
    argv = ["map", "--a", "-2.0", "--theta", "0.39", "--n", "4"]
    assert main([*argv, "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out == path.read_text()


def test_cached_parser_after_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--a", "-2.0", "--theta", "abc", "--json"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["check", "--a", "-2.0", "--theta", "0.39"]) == 0
    assert capsys.readouterr().out.startswith("a=-2 theta=0.39: globally stable")


def test_import_stays_numpy_only():
    # a fresh interpreter: the package and its CLI load no process pool and no scipy
    heavy = ("multiprocessing", "concurrent.futures", "scipy")
    code = f"import sys, ddestab, ddestab.cli; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ddestab", "check", "--a", "-2.0", "--theta", "0.39"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "globally stable" in proc.stdout
