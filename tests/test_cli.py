"""Command-line interface: exit codes, output formats, argument handling."""

import hashlib
import io
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ddestab
from ddestab import verify
from ddestab.cli import _glue_negative_values, _parsers, main
from ddestab.rootfind import _SCALAR_TAIL, _TINY, _XTOL

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
    names = [f["name"] for f in data["facts"]]
    assert "sharp_criterion_margin" in names
    assert all(f["ok"] for f in data["facts"])


@pytest.mark.parametrize(
    "region, a, theta, names",
    [
        ("linear", "-2.0", "0.9",
         ["sharp_criterion_margin", "straightened_slope", "straightened_map_schwarz_neg"]),
        ("core", "-2.0", "0.39",
         ["sharp_criterion_margin", "slope_product_above_minus_one", "slope_product_negative",
          "beta_pos", "certificate_nonpos_branch_end", "response_above_moebius"]),
        ("sector", "-10", "0.88",
         ["sharp_criterion_margin", "composite_slope", "corner_above_minus_one",
          "corner_image_in_domain", "composite_cycle_contraction"]),
    ],
)
def test_check_fact_names_frozen(capsys, region, a, theta, names):
    # each region states exactly these facts, in this order, in both outputs
    rc = main(["check", "--a", a, "--theta", theta])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert lines[0].endswith(f": globally stable ({region} certificate)")
    assert [line.split()[1] for line in lines if line.startswith("  [")] == names
    rc = main(["check", "--a", a, "--theta", theta, "--json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["region"] == region
    assert [f["name"] for f in data["facts"]] == names


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


def _failing_schwarz_margin(monkeypatch):
    # a linear point whose Schwarz fact fails: the label stands while one
    # fact of its chain fails, through the real main and certificate
    monkeypatch.setattr(verify, "schwarz_margin", lambda x, a, theta, mx: np.full_like(x, -0.25))
    return ["check", "--a", "-1", "--theta", "0.5"]


def test_check_verdict_follows_exit_code(capsys, monkeypatch):
    rc = main(_failing_schwarz_margin(monkeypatch))
    out = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert out[0] == "a=-1 theta=0.5: not certified (linear)"
    assert "  [FAIL] straightened_map_schwarz_neg = -0.25 (need > 0; sweep gsslemma_schwarz)" in out


def test_check_json_verdict_follows_exit_code(capsys, monkeypatch):
    rc = main([*_failing_schwarz_margin(monkeypatch), "--json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert data["region"] == "linear"
    assert data["certified"] is False
    assert data["failure"]["name"] == "straightened_map_schwarz_neg"


@pytest.mark.parametrize("coords", [["--theta", "1e-17"], ["--delta", "1.0", "--h", "700"]])
def test_check_tiny_theta_at_slope_minus_one_certifies(capsys, coords):
    # the straightened slope -(1 - theta)/(1 + theta) rounds to -1 here; its
    # "> -1" half is decided as linear_criterion decides it, so the point
    # certifies and the printed value stays the rounded slope
    rc = main(["check", "--a", "-1", *coords, "--json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["region"] == "linear"
    assert data["certified"] is True
    slope = next(f for f in data["facts"] if f["name"] == "straightened_slope")
    assert slope["value"] == -1.0
    assert slope["ok"] is True


def test_check_delay_past_theta_underflow(capsys):
    # exp(-delta*h) underflows to 0 once delta*h passes about 745: the error
    # names that, not a theta the user never gave
    rc = main(["check", "--a", "-1.0", "--delta", "1.0", "--h", "800"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: exp(-delta*h) underflows to 0 at delta*h = 800\n"


@pytest.mark.parametrize("a", ["-1e-17", "-1e-100"])
def test_check_tiny_slope_matches_minus_1e_16(capsys, a):
    # the boundary log's log1p argument rounds to -1 for -1.1e-16 < a < 0;
    # the split form keeps the verdict of the slope just outside that range
    results = []
    for slope in ("-1e-16", a):
        rc = main(["check", f"--a={slope}", "--theta", "0.5", "--json"])
        data = json.loads(capsys.readouterr().out)
        results.append((rc, data["region"], data["certified"]))
    assert results[1] == results[0] == (0, "linear", True)


@pytest.mark.parametrize(
    "cmd, opt, value, code",
    [
        (["check", "--theta", "0.5"], "--a", "-1e-5", 0),
        (["check", "--theta", "0.5"], "--a", "-inf", 2),
        (["map", "--a", "-2", "--theta", "0.39", "--n", "4"], "--zmin", "-5e-1", 0),
        (["simulate", "--model", "wright:a=-1.5", "--history", "const:0.2", "--h", "1.0",
          "--T", "2.0"], "--delta", "-1E0", 2),
    ],
)
def test_negative_exponent_value_reads_as_option_value(capsys, cmd, opt, value, code):
    # argparse alone takes "-1e-5" or "-inf" after an option for another
    # option; main reads it as that option's value, as "--a=-1e-5" is read
    rc = main([*cmd, opt, value])
    got = capsys.readouterr()
    assert (rc, got.out, got.err) == (main([*cmd, f"{opt}={value}"]), *capsys.readouterr())
    assert rc == code
    assert "usage:" not in got.err


@pytest.mark.parametrize("cmd", [["check"], ["map", "--n", "2"]])
def test_infinite_slope_is_a_usage_error(capsys, cmd):
    rc = main([*cmd, "--a=-inf", "--theta", "0.5"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: slope must be finite, got -inf\n"


@pytest.mark.parametrize("a", ["-1e154", "-1e155", "-1e200", "-1e308"])
def test_check_steep_slope_fails_the_sharp_criterion(capsys, a):
    # below about -1.34e154 a*a overflows; the boundary log still gives the
    # sharp criterion's small negative margin, with no numpy warning (the
    # suite turns warnings into errors)
    rc = main(["check", f"--a={a}", "--theta", "0.5", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert data["region"] == "not_certified"
    assert data["failure"]["name"] == "sharp_criterion_margin"
    assert 0.6 / float(a) < data["failure"]["value"] < 0.0


def test_rescaled_slope_overflow_is_a_usage_error(capsys):
    rc = main(["check", "--a", "-1e308", "--delta", "1e-10", "--h", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: a/delta overflows at a = -1e+308, delta = 1e-10\n"


def test_rescaled_slope_underflow_is_a_usage_error(capsys):
    # the twin of the overflow: the message names the slope and rate given,
    # not the -0.0 they rescale to
    rc = main(["check", "--a=-5e-324", "--delta", "10", "--h", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: a/delta underflows to 0 at a = -4.94065645841e-324, delta = 10\n"


# composite_slope's true values, and the corner margins corner + 1 and
# 1 - r(corner)*beta, from the exact expressions at these floats in 60-digit
# arithmetic
_HUGE_SLOPE_POINTS = [
    ("-1e13", "0.9999999999999", 0.25031106606096843, 0.66649390501789084, 0.66661478607689672),
    ("-1922892727988.8538", "0.9999999999994669", 0.27594867368557639,
     0.65260148121805500, 0.66211008396484418),
    ("-1e12", "0.999999999999", 0.24997787889191952, 0.66667895643853060, 0.66667035333505098),
]


@pytest.mark.parametrize(
    "a, theta, gamma, corner, image",
    _HUGE_SLOPE_POINTS,
    # the ids keep eight digits of the slope
    ids=[f"{a}-{theta}-{gamma:.8g}" for a, theta, gamma, *_ in _HUGE_SLOPE_POINTS],
)
def test_check_huge_slope_near_theta_one_gives_a_verdict(capsys, a, theta, gamma, corner, image):
    # den = a*a + (a - a*a)*lam cancelled there: to 0 at the first two (a
    # ZeroDivisionError), to -1.3e8 at the third (composite_slope = 0)
    rc = main(["check", f"--a={a}", "--theta", theta, "--json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert (data["region"], data["certified"]) == ("sector", True)
    facts = {f["name"]: f["value"] for f in data["facts"]}
    # its log factor 1 - theta + log(theta), about -(1 - theta)**2/2, comes
    # from its series here: the direct sum kept only about three digits
    assert facts["composite_slope"] == pytest.approx(gamma, rel=1e-14)
    # the corner margins take that factor from the same series: with a
    # corner of 0 when it cancelled, both read 1
    assert facts["corner_above_minus_one"] == pytest.approx(corner, rel=1e-14)
    assert facts["corner_image_in_domain"] == pytest.approx(image, rel=1e-14)
    assert 0.2 < facts["composite_cycle_contraction"] < 0.24


@pytest.mark.parametrize(
    "theta, shown",
    [
        # %.12g reads 1 for these, a theta outside (0, 1): the header gives repr
        ("0.9999999999999", "0.9999999999999"),
        ("0.99999999999991", "0.99999999999991"),
        # twelve digits still tell these from 1
        ("0.999999999999", "0.999999999999"),
        ("0.99999999999949", "0.999999999999"),
    ],
)
def test_check_header_theta_near_one(capsys, theta, shown):
    main(["check", "--a=-1e13", "--theta", theta])
    assert capsys.readouterr().out.startswith(f"a=-1e+13 theta={shown}: ")


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


def test_map_lockstep_never_runs_a_few_lanes(monkeypatch, capsys):
    # at the README map point the last lanes finish on the scalar loop: no
    # lockstep evaluation of the identity serves _SCALAR_TAIL lanes or fewer
    lanes = []
    identity = ddestab.onedmaps._identity

    def counted(u, *args):
        lanes.append(u.size if type(u) is np.ndarray else None)
        return identity(u, *args)

    monkeypatch.setattr(ddestab.onedmaps, "_identity", counted)
    assert main(["map", *_FROZEN_MAP["readme"][0]]) == 0
    capsys.readouterr()
    lockstep = [k for k in lanes if k is not None]
    assert _SCALAR_TAIL == 8
    assert min(lockstep) > _SCALAR_TAIL
    assert len(lockstep) < len(lanes)


def test_map_tiny_z_gives_finite_rows(tmp_path, capsys):
    # below z of about 1e-16 the direct u1 term of the difference form
    # cancels to 0; the solve setup takes it in its expanded form there.
    # The solves' stopping width is relative at these scales, so they
    # converge instead of returning a bracket end
    path = tmp_path / "map.csv"
    for zmax in ("1e-300", "1e-15"):
        argv = ["map", "--a", "-2", "--theta", "0.39", "--zmin", "0", "--zmax", zmax, "--n", "3"]
        rc = main([*argv, "--out", str(path)])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        header, *rows = path.read_text().splitlines()
        assert header == "z,F,F1,R_of_rz,R2_of_rz,residual_F,residual_F1"
        values = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert values.shape == (4, 7) and np.isfinite(values).all()
        assert values[0].tolist() == [0.0] * 7
        # F has the sign opposite to z, and so has F1
        assert (values[1:, 1] < 0.0).all(), zmax
        assert (values[1:, 2] < 0.0).all(), zmax
        assert (np.abs(values[:, 5:]) <= 1e-11).all(), zmax


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


def _module_env() -> dict:
    """The environment of a fresh interpreter that imports this same package."""
    root = str(Path(ddestab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _run_module(argv, cwd=None):
    """python -m ddestab in a fresh interpreter that imports this same package."""
    return subprocess.run(
        [sys.executable, "-m", "ddestab", *argv], capture_output=True, cwd=cwd, env=_module_env()
    )


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: its write, or only its flush, raises EPIPE."""

    def __init__(self, at: str):
        super().__init__()
        self.at = at

    def write(self, text):
        if self.at == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self):
        if self.at == "flush":
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("at", ["write", "flush"])
@pytest.mark.parametrize("form", [[], ["--json"]], ids=["text", "json"])
def test_check_into_closed_stdout_is_no_usage_error(capsys, monkeypatch, at, form):
    # a reader that stops early is an honest end, not a usage error (exit 2)
    monkeypatch.setattr(sys, "stdout", _ClosedPipe(at))
    rc = main(["check", "--a", "-2.0", "--theta", "0.39", *form])
    assert rc == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("form", [[], ["--json"]], ids=["text", "json"])
def test_check_into_closed_pipe_exits_1_quietly(form):
    proc = subprocess.Popen(
        [sys.executable, "-W", "error", "-m", "ddestab", "check", "--a", "-2.0", "--theta", "0.39",
         *form],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env(),
    )
    proc.stdout.close()  # before the child has started up, let alone written
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


# SHA-256 of the stdout and the trajectory CSV of each command: a change to
# the march, the extremum scan or the CSV writer that moves one bit shows here
_FROZEN_HISTORY = "t,x\n" + "".join(
    f"{-1.0 + j / 16!r},{0.5 + 0.01 * j * (16 - j) / 4!r}\n" for j in range(17)
)
_FROZEN_SIMULATE = {
    "ricker-const": (
        ["--model", f"ricker:q={E3!r}", "--history", "const:19.0",
         "--delta", "1.0", "--h", "0.5", "--T", "30.0"],
        "daf5feb1ea8881814d05ab378855b4445c245853dfc6917bb79a5b6b672b1cb4",
        "d5099be1db39af05bd560c95eb5e19effd58e4e1f654853191a98517c2f46bf9",
    ),
    "wright-ramp": (
        ["--model", "wright:a=-1.3", "--history", "ramp:0.4",
         "--delta", "1.0", "--h", "0.8", "--T", "20.0"],
        "9c60f9f970d3c484d7303c52f20b769cd5ce3bb3cb99cce29492dd90ec840e27",
        "f66bce4d0e9c712fa03c326af4e7a7d138b3b640a5829f6613dc20c8b6c6389d",
    ),
    "mackey-csv-step": (
        ["--model", "mackey:b=2.0,n=4.0", "--history", "hist.csv",
         "--delta", "1.0", "--h", "1.0", "--T", "25.0", "--step", "0.01"],
        "0754e36c2f5aaa7e64a74ffc92b3b0f3ef271b979b9b3f1ece66be87d7b5111c",
        "8df0d26d1c36b4236fa0982255195098b73ea18fc8dead2de139c73813860a9b",
    ),
    "rational-const": (
        ["--model", "rational:a=-0.5", "--history", "const:0.3",
         "--delta", "1.0", "--h", "0.7", "--T", "14.0"],
        "e2c0ced874cfbaafe22ebe595ebedcd39c2394e7f6faba98eed3eff682974bf8",
        "e9dfd74357f43f1341653353ce45da21b35b0d1e09059df1cbcb1b9966ca4b3a",
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


# nicholson --simulate stdout, exit code and stderr: delta 1 and not 1, one
# history and several, horizons on and off a segment boundary, converging runs
# and a certified run that misses the tolerance.  A converging run's gap is
# rounding, so any change to the march's rounding moves its digits
_NICHOLSON_GOLDEN = {
    "p5-delta1": (
        ["--p", "5", "--delta", "1", "--gamma", "1", "--h", "0.9", "--simulate", "5"],
        0,
        """q=5 equilibrium=1.60943791243 slope=-0.609437912434 theta=0.406569659741
decision: certified (linear): slope magnitude at most 1: certified for every delay
  history const:1.07295860829 -> relative gap 2.345e-15
  history const:1.82402963409 -> relative gap 6.070e-15
  history const:2.57510065989 -> relative gap 1.669e-14
  history const:3.3261716857 -> relative gap 3.021e-14
  history const:4.0772427115 -> relative gap 2.345e-15
worst relative gap: 3.021e-14
""",
        "",
    ),
    "p5-delta0.8": (
        ["--p", "5", "--delta", "0.8", "--gamma", "1.2", "--h", "0.8", "--simulate", "5",
         "--T-mult", "40"],
        0,
        """q=6.25 equilibrium=1.52715121979 slope=-0.832581463748 theta=0.527292424043
decision: certified (linear): slope magnitude at most 1: certified for every delay
  history const:1.01810081319 -> relative gap 2.472e-15
  history const:1.73077138243 -> relative gap 2.021e-14
  history const:2.44344195166 -> relative gap 2.719e-14
  history const:3.1561125209 -> relative gap 3.766e-14
  history const:3.86878309014 -> relative gap 3.780e-14
worst relative gap: 3.780e-14
""",
        "",
    ),
    "one-history": (
        ["--p", "4", "--delta", "1.3", "--gamma", "0.7", "--h", "0.5", "--simulate", "1",
         "--T-mult", "30.3"],
        0,
        """q=3.07692307692 equilibrium=1.60561442379 slope=-0.123930096652 theta=0.522045776761
decision: certified (linear): slope magnitude at most 1: certified for every delay
  history const:2.56898307806 -> relative gap 2.892e-12
worst relative gap: 2.892e-12
""",
        "",
    ),
    "not-certified": (
        ["--p", "20.085536923187668", "--delta", "1", "--gamma", "1", "--h", "1.2",
         "--simulate", "3", "--T-mult", "50.7"],
        1,
        """q=20.0855369232 equilibrium=3 slope=-2 theta=0.301194211912
decision: not certified (not_certified): theta at or below the boundary value for the equilibrium slope
attractor bracket: N in [1.1009674953, 7.38905609893] (own-interval invariance: plain=True damped=True)
  history const:2.7 -> relative gap 8.014e-02
  history const:4.8 -> relative gap 1.174e-01
  history const:6.9 -> relative gap 5.531e-02
worst relative gap: 1.174e-01
""",
        "",
    ),
    "missed-tolerance": (
        ["--p", "7", "--delta", "1", "--gamma", "0.5", "--h", "1.5", "--simulate", "2",
         "--T-mult", "12.25"],
        1,
        """q=7 equilibrium=3.89182029811 slope=-0.945910149055 theta=0.223130160148
decision: certified (linear): slope magnitude at most 1: certified for every delay
  history const:4.41072967119 -> relative gap 3.570e-04
  history const:8.04309528276 -> relative gap 1.903e-03
worst relative gap: 1.903e-03
""",
        "warning: a certified run missed the tolerance\n",
    ),
}


@pytest.mark.parametrize("case", sorted(_NICHOLSON_GOLDEN))
def test_nicholson_simulate_matches_golden(case, capsys):
    argv, rc, out, err = _NICHOLSON_GOLDEN[case]
    assert main(["nicholson", *argv]) == rc
    assert capsys.readouterr() == (out, err)


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
        "f2b5d329cdf3dd1c6d6bbce397767692a9322d19493bd57488724dafa9f23694",
    ),
    "pole-to-huge": (
        ["--a", "-2.0", "--theta", "0.39", "--zmin", "-1", "--zmax", "1e300", "--n", "50"],
        "d2e3e069f7474850a41a69f89b439f240242bae5c0c51f15145c97ae8dbacb48",
    ),
    "improper-interval": (
        ["--a", "-2", "--theta", "0.95"],
        "18db6d5559d8c06997156efe235ff9e0c7316330b8b31879640412b07499598b",
    ),
    "small-mu": (
        ["--a", "-12", "--theta", "0.9"],
        "833e3a49ded2b36747cb18a83a89aeb730f01433a1c41a5527de8ccd9459fb9a",
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


def test_csv_line_endings_frozen(tmp_path, capsys):
    # fig2_curves.csv and the trajectory end every line in CRLF, the other
    # CSVs in LF; each file uses one ending throughout
    assert main(["region", "--out", str(tmp_path), "--n-mu", "9", "--raster", "8"]) == 0
    assert main(["map", "--a", "-2", "--theta", "0.39", "--n", "5", "--out", str(tmp_path / "map.csv")]) == 0
    assert main(["simulate", "--model", "wright:a=-1.5", "--history", "const:0.2", "--delta", "1",
                 "--h", "1", "--T", "2", "--out", str(tmp_path / "traj.csv")]) == 0
    capsys.readouterr()
    endings = {"fig2_curves.csv": b"\r\n", "traj.csv": b"\r\n",
               "fig1.csv": b"\n", "fig2_raster.csv": b"\n", "map.csv": b"\n"}
    for name, eol in endings.items():
        data = (tmp_path / name).read_bytes()
        n_lines = data.count(b"\n")
        assert data.endswith(eol) and n_lines > 2, name
        assert data.count(b"\r") == data.count(b"\r\n") == (n_lines if eol == b"\r\n" else 0), name


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


def _identity_root_mp(mp, x, u1, a, eps, v1, d1, c):
    """The root near x of onedmaps' identity w*d1 - a*(s - log1p(s))/eps**2 - c,
    w = (u - u1)/v1 and s = eps*w, by Newton's method in mp's precision."""
    u1, a, eps, v1, d1, c = (mp.mpf(v) for v in (u1, a, eps, v1, d1, c))
    u = mp.mpf(x)
    for _ in range(10):
        w = (u - u1) / v1
        s = eps * w
        g = w * d1 - a * (s - mp.log1p(s)) / (eps * eps) - c
        step = g * v1 / (d1 - a * w / (1 + s))
        u -= step
        if abs(step) <= mp.mpf(10) ** -45 * max(1, abs(u)):
            return u
    raise AssertionError(f"Newton's method did not settle near {x}")


@pytest.mark.parametrize("case", sorted(_FROZEN_MAP))
def test_map_matches_mpmath_roots(case, capsys, monkeypatch):
    # every finite F and F1 of a frozen map lies within 2*_XTOL*max(1, |x|)
    # (2*_XTOL*|x| below _TINY) of its identity's root, solved in 50 digits
    # from the float inputs that _phi_base and the setups give the lane
    # solve; this holds whatever the solver's last bits are
    mp = pytest.importorskip("mpmath")
    solve = ddestab.onedmaps.solve_bracketed
    solves = []

    def recorded(f, lo, hi, *, args=(), **kwargs):
        res = solve(f, lo, hi, args=args, **kwargs)
        solves.append((np.broadcast_arrays(lo, hi, *args), res))
        return res

    monkeypatch.setattr(ddestab.onedmaps, "solve_bracketed", recorded)
    assert main(["map", *_FROZEN_MAP[case][0]]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    maps = [float(v) for row in rows for v in row.split(",")[1:3]]
    finite = sum(math.isfinite(v) and v != 0.0 for v in maps)
    [((lo, hi, *args), res)] = solves
    assert res.root.size == finite > 0
    with mp.workdps(50):
        for i, x in enumerate(res.root.tolist()):
            exact = _identity_root_mp(mp, x, *(float(v[i]) for v in args))
            assert lo[i] <= exact <= hi[i], i
            scale = abs(x) if abs(x) < _TINY else max(1.0, abs(x))
            assert abs(x - exact) <= 2 * _XTOL * scale, (i, x, float(exact))


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


def _boundary_delays(p: float, ulps: int = 4) -> list[float]:
    """The delay h at which theta = exp(-h) meets the sharp boundary for
    blowfly production p (delta = gamma = 1), and the `ulps` floats on
    either side of it."""
    slope = 1.0 - math.log(p)
    h = -math.log(ddestab.params.sharp_boundary_theta(slope))
    out = [h]
    lo = hi = h
    for _ in range(ulps):
        lo, hi = math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return sorted(out)


# the first case read "decision: certified (not_certified)" and exited 0
# where check at its (slope, theta) exits 1
_BOUNDARY_PS = [8.671137658463456] + np.random.default_rng(27).uniform(8.0, 5e3, 11).tolist()


@pytest.mark.parametrize("p", _BOUNDARY_PS, ids=[f"{p:.6g}" for p in _BOUNDARY_PS])
def test_nicholson_verdict_is_checks_at_the_boundary(p, capsys):
    # nicholson decides by classify, as check does: within ulps of the
    # boundary delay its exit code is check's at the printed (slope, theta),
    # and its decision line never contradicts its region
    for h in _boundary_delays(p):
        params = ddestab.models.NicholsonParams(p=p, delta=1.0, gamma_n=1.0, h=h)
        rc = main(["nicholson", "--p", repr(p), "--delta", "1", "--gamma", "1", "--h", repr(h)])
        decision = capsys.readouterr().out.splitlines()[1]
        slope, theta = 1.0 - params.ln_q, params.theta
        assert main(["check", f"--a={slope!r}", "--theta", repr(theta)]) == rc, h
        capsys.readouterr()
        if rc == 0:
            assert not decision.startswith("decision: certified (not_certified)"), h
        else:
            assert decision == (
                "decision: not certified (not_certified): "
                "theta at or below the boundary value for the equilibrium slope"
            ), h


@pytest.mark.parametrize(
    "p, gamma, bracket",
    [
        # q*u overflows past q of about 1e154; the suite turns warnings into errors
        ("1e200", "1", "attractor bracket: N in [169.414743452, 3.67879441171e+199]"),
        ("1.7e308", "1", "attractor bracket: N in [261.093912141, 6.25395049991e+307]"),
        # upper/gamma is past the largest float: no bracket line
        ("1.7e308", "0.3", None),
    ],
)
def test_nicholson_huge_production_rate(capsys, p, gamma, bracket):
    rc = main(["nicholson", "--p", p, "--delta", "1", "--gamma", gamma, "--h", "1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == ""
    lines = [line for line in captured.out.splitlines() if line.startswith("attractor bracket")]
    if bracket is None:
        assert lines == []
    else:
        assert lines == [bracket + " (own-interval invariance: plain=True damped=True)"]


def test_nicholson_rate_ratio_overflow_is_a_usage_error(capsys):
    rc = main(["nicholson", "--p", "1e308", "--delta", "1e-10", "--h", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: p/delta must be finite, got p = 1e+308, delta = 1e-10\n"


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
    parser = _parsers()[0]
    for argv in commands:
        parser.parse_args(argv)  # exits on a stale flag


def test_parser_built_once():
    assert _parsers()[0] is _parsers()[0]


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


def _top_level_main(argv):
    """main with every argv read by the top-level parser, as it was before
    known subcommands went straight to their own parsers."""
    args = _parsers()[0].parse_args(_glue_negative_values(argv))
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _outcome(fn, argv, capsys):
    try:
        code = fn(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _not_asked(*args, **kwargs):
    raise AssertionError("the top-level parser read a known subcommand's argv")


_CHECK = ["check", "--a", "-2", "--theta", "0.39"]
_NICHOLSON = ["nicholson", "--p", "5", "--delta", "1", "--h", "0.9"]


@pytest.mark.parametrize(
    "argv, own_parser",
    [
        # own_parser: the subcommand's parser reads every token
        (_CHECK, True),
        (["check", "--a", "-2", "--delta", "1", "--h=0.9", "--json"], True),
        (["region", "--out", "OUT", "--n-mu", "3", "--raster", "2"], True),
        (["map", "--a", "-2", "--theta", "0.39", "--n", "2", "--zmin=-1e-1"], True),
        (["simulate", "--model", "wright:a=-1.5", "--history", "const:0.2", "--delta", "1",
          "--h", "1", "--T", "1"], True),
        (_NICHOLSON, True),
        (["verify", "--lemma", "expo_bounds", "--resolution", "4"], True),
        (["check", "--a", "-2", "--the", "0.39"], True),
        ([*_CHECK, "--js"], True),
        ([*_NICHOLSON, "--T", "50"], True),
        ([], False),
        (["-h"], False),
        (["frobnicate", "--a", "-2"], False),
        (["check", "-h"], False),
        ([*_CHECK, "--bogus"], False),
        ([*_CHECK, "stray"], False),
        (["check", "--theta", "0.39"], False),
        (["check", "--a", "-2", "--theta", "abc"], False),
        ([*_CHECK, "--", "--json"], False),
        (["check", "--a", "-2", "--", "--theta", "0.39"], False),
        (["verify", "--threads", "2"], False),
    ],
)
def test_dispatch_matches_top_level_parse(argv, own_parser, tmp_path, capsys, monkeypatch):
    argv = [str(tmp_path / "out") if tok == "OUT" else tok for tok in argv]
    # exit code, stdout and stderr as when the top-level parser read every argv
    assert _outcome(main, argv, capsys) == _outcome(_top_level_main, argv, capsys)
    if not own_parser:
        return
    # the same namespace, apart from the top-level parser's cmd
    command = _parsers()[1][argv[0]]
    seen = []
    run = command.get_default("fn")
    command.set_defaults(fn=lambda args: seen.append(vars(args)) or 0)
    try:
        want = vars(_parsers()[0].parse_args(_glue_negative_values(argv)))
        # and the top-level parser is never asked
        monkeypatch.setattr(_parsers()[0], "parse_args", _not_asked)
        assert main(argv) == 0
    finally:
        command.set_defaults(fn=run)
    assert want.pop("cmd") == argv[0]
    assert seen == [want]


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
