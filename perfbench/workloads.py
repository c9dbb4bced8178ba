"""The three benchmark workloads: seeded operation lists and their output checks.

A workload is a sequence of passes.  Pass k of a run is generated from
(workload, seed, k) alone, so the same seed replays the same inputs.  Every
pass of a workload holds the same mix of operation kinds, which keeps the
per-run medians comparable across seeds.  An operation returns its
latencies and, after the timed call, is checked; a mismatch marks it failed.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import csv
import io
import json
import math
import random
import re
import shutil
import statistics
import traceback
from pathlib import Path
from time import perf_counter as _perf

SWEEP_RESOLUTION = 256
# every trajectory runs this many delays at the program's default h/256 step
TRAJ_DELAYS = 40
STEPS_PER_TRAJECTORY = TRAJ_DELAYS * 256
TRAJ_SIMULATES = 21
TRAJ_NICHOLSON = 3
NICHOLSON_HISTORIES = 5
# queries per pass: 90 of 110 are check/nicholson calls and 18 are map calls,
# so the run's p50 is a check latency and its p90 the median map latency
Q_THETA_CELLS, Q_MU_CELLS = 10, 8
Q_NICHOLSON, Q_MAP, Q_REGION = 10, 18, 2
MAP_N = 200
REGION_N_MU, REGION_RASTER = 199, 200

REGION_TAGS = ("linear", "core", "sector", "not_certified")


# The machine's speed drifts by up to 2x over minutes (shared host), and
# interpreter-bound code slows with it.  A fixed stdlib workload, timed every
# CALIBRATION_EVERY_S between operations, tracks that drift: on a 2-core
# VM, 20-second medians of check and simulate latency spread 27-31%,
# their ratios to this workload 2-3%.  Timings are scaled to the speed at
# which it takes REFERENCE_CALIBRATION_S.
CALIBRATION_EVERY_S = 0.2
# a timed call is scaled by the median of the samples taken within this
# margin of it, or by its CALIBRATION_NEIGHBOURS nearest samples if fewer
CALIBRATION_WINDOW_S = 0.5
CALIBRATION_NEIGHBOURS = 5
REFERENCE_CALIBRATION_S = 0.005


def calibration_work() -> float:
    """Run the fixed calibration workload (argparse, json, float formatting); returns seconds."""
    t0 = _perf()
    for _ in range(3):
        ap = argparse.ArgumentParser(prog="calibration")
        sub = ap.add_subparsers(dest="cmd")
        for n in range(6):
            p = sub.add_parser(f"c{n}")
            for k in range(8):
                p.add_argument(f"--o{k}", type=float, default=None)
        ap.parse_args(["c3", "--o1", "2.5"])
        json.dumps({f"k{i}": [i * 0.1, "%.12g" % (i / 7.0)] for i in range(200)}, sort_keys=True)
    return _perf() - t0


class Outcome:
    """What a run observed: timed public calls, calibration samples, and the
    checked outputs (attempted, failures).

    A timed call is (kind, parts), each part a (start, end) time; a call has
    several parts when calibration ran between them (the sweep's checks).
    notes holds extra (kind, part) timings for the summary.
    """

    def __init__(self, calibrate: bool = True):
        self.samples: list[tuple[str, list[tuple[float, float]]]] = []
        self.notes: list[tuple[str, tuple[float, float]]] = []
        self.cal_times: list[float] = []
        self.cal_secs: list[float] = []
        self._calibrate = calibrate
        self.attempted = 0
        self.failures: list[str] = []

    def calibrate(self, force: bool = False, count: int = 1) -> None:
        """Take calibration samples if CALIBRATION_EVERY_S has passed (or force)."""
        if not self._calibrate:
            return
        if force or not self.cal_times or _perf() - self.cal_times[-1] >= CALIBRATION_EVERY_S:
            for _ in range(count):
                secs = calibration_work()
                self.cal_times.append(_perf() - secs / 2)
                self.cal_secs.append(secs)

    def scale(self, t0: float, t1: float) -> float:
        """Reference over the calibration time measured around [t0, t1]."""
        if not self.cal_times:
            return 1.0
        lo = bisect.bisect_left(self.cal_times, t0 - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(self.cal_times, t1 + CALIBRATION_WINDOW_S)
        if hi - lo < CALIBRATION_NEIGHBOURS:
            n = CALIBRATION_NEIGHBOURS
            i = bisect.bisect(self.cal_times, (t0 + t1) / 2)
            lo = max(0, min(i - n // 2, len(self.cal_times) - n))
            hi = lo + n
        return REFERENCE_CALIBRATION_S / statistics.median(self.cal_secs[lo:hi])

    def seconds(self, parts, scaled: bool = True) -> float:
        return sum((t1 - t0) * (self.scale(t0, t1) if scaled else 1.0) for t0, t1 in parts)

    def checked(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{what}: {error}")

    def add(self, kind: str, timing: tuple[float, float], error: str | None) -> None:
        """One CLI call: a timed sample, one checked output, then maybe a calibration."""
        self.samples.append((kind, [timing]))
        self.checked(kind, error)
        self.calibrate()


def run_cli(cli, argv: list[str]):
    """Call the CLI in-process; returns (exit code or None, stdout, error text, (start, end))."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = _perf()
        try:
            rc = cli.main(argv)
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        t1 = _perf()
    return rc, out.getvalue(), err.getvalue(), (t0, t1)


# ---------------------------------------------------------------------------
# independent oracles (the paper's closed forms, written out here on purpose)


def oracle_region(a: float, theta: float) -> str:
    if not (-theta / a) > math.log1p((-a - 1.0) / (a * a + 1.0)):
        return "not_certified"
    if (-theta / a) > -(a + 1.0) / (a * a + 1.0):
        return "linear"
    mu = -1.0 / a
    if theta >= 0.8 and (95.0 - 108.0 * mu) / (5.0 * (19.0 + 5.0 * mu)) <= theta:
        return "sector"
    return "core"


def oracle_nicholson(p: float, delta: float, h: float) -> bool:
    c = math.log(p / delta) - 1.0
    if c <= 1.0:
        return True
    a = -c
    return math.exp(-delta * h) > -a * math.log1p((-a - 1.0) / (a * a + 1.0))


def _band(mu: float) -> tuple[float, float]:
    """(pi_2, pi_1): the certified band's lower and upper theta at mu."""
    lo = math.log1p((mu - mu * mu) / (1.0 + mu * mu)) / mu
    return lo, (1.0 - mu) / (1.0 + mu * mu)


def _csv_rows(path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# sweep


class Sweep:
    """verify_all over every registered check at resolution 256, reports written."""

    name = "sweep"
    trace_passes = 1

    def __init__(self, pkg, seed: int, tmp: Path, schemas: dict, reference: dict):
        self.pkg = pkg
        self.tmp = tmp
        self.validator = schemas["lemma_report"]
        self.reference = reference

    def run_pass(self, k: int, out: Outcome) -> None:
        report_dir = self.tmp / f"reports-{k}"
        out.calibrate(force=True, count=CALIBRATION_NEIGHBOURS)
        parts, done = [], set()
        start = _perf()

        def progress(line):
            nonlocal start
            end = _perf()
            lemma_id = line.split(":", 1)[0]
            done.add(lemma_id)
            parts.append((start, end))
            out.notes.append((f"check:{lemma_id}", parts[-1]))
            # between checks, outside the timed parts
            out.calibrate(force=True, count=CALIBRATION_NEIGHBOURS)
            start = _perf()

        error = None
        try:
            self.pkg.verify.verify_all(
                resolution=SWEEP_RESOLUTION, threads=1, out_dir=str(report_dir), progress=progress
            )
        except Exception:
            error = traceback.format_exc(limit=3)
        out.samples.append(("verify_all", parts))
        for lemma_id in sorted(self.reference["checks"].keys() | done):
            if lemma_id not in self.reference["checks"]:
                err = "check missing from the reference"
            elif lemma_id not in done:
                err = error or "check did not run"
            else:
                err = self.check_report(report_dir / f"{lemma_id}.json", lemma_id)
            out.checked(f"check:{lemma_id}", err)

    def check_report(self, path: Path, lemma_id: str) -> str | None:
        ref = self.reference["checks"][lemma_id]
        tol = self.reference["min_margin_tolerance"]
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            return f"unreadable report: {exc}"
        errors = sorted(e.message for e in self.validator.iter_errors(doc))
        if errors:
            return f"schema: {errors[0]}"
        if doc["lemma_id"] != lemma_id or doc["resolution"] != SWEEP_RESOLUTION:
            return "wrong lemma_id or resolution"
        if doc["points"] != ref["points"]:
            return f"points {doc['points']} != reference {ref['points']}"
        if _violation_set(doc["violations"]) != _violation_set(ref["violations"]):
            return f"{len(doc['violations'])} violations, reference has {len(ref['violations'])}"
        m, r = doc["min_margin"], ref["min_margin"]
        if not abs(m - r) <= tol["atol"] + tol["rtol"] * abs(r):
            return f"min_margin {m!r} drifted from reference {r!r}"
        return None


def _violation_set(entries: list[dict]) -> set[str]:
    return {json.dumps({k: v for k, v in e.items() if k != "margin"}, sort_keys=True) for e in entries}


# ---------------------------------------------------------------------------
# trajectories


def _model_spec(i: int, rng: random.Random) -> str:
    u = rng.uniform
    return (
        f"ricker:q={u(3.0, 12.0)!r}",
        f"wright:a={u(-1.5, -0.5)!r}",
        f"mackey:b={u(1.0, 2.0)!r},n={u(1.0, 4.0)!r}",
        f"wazewska:b1={u(1.0, 3.0)!r},b2={u(0.5, 1.5)!r}",
        f"rational:a={u(-1.5, -0.5)!r},b={u(0.5, 2.0)!r}",
    )[i % 5]


class Trajectories:
    """simulate over the five named models and const/ramp/CSV histories, each
    exporting its CSV, plus nicholson --simulate runs; equal steps everywhere."""

    name = "trajectories"
    trace_passes = 6
    steps_per_pass = (TRAJ_SIMULATES + TRAJ_NICHOLSON * NICHOLSON_HISTORIES) * STEPS_PER_TRAJECTORY

    def __init__(self, pkg, seed: int, tmp: Path, schemas: dict, reference: dict):
        self.pkg = pkg
        self.seed = seed
        self.tmp = tmp

    def ops(self, k: int) -> list[tuple[str, list[str], object]]:
        rng = random.Random(f"trajectories:{self.seed}:{k}")
        ops = []
        for i in range(TRAJ_SIMULATES):
            model = _model_spec(i, rng)  # draws for every model keep the stream aligned
            h = rng.uniform(0.3, 1.0)
            delta = rng.uniform(0.8, 1.25)
            kind = ("const", "ramp", "csv")[i % 3]
            if kind == "const":
                hist = f"const:{rng.uniform(0.1, 0.8)!r}"
            elif kind == "ramp":
                # c < 0 keeps the ramp c*(1 - exp(-s)) nonnegative on s <= 0
                hist = f"ramp:{-rng.uniform(0.1, 0.5)!r}"
            else:
                hist = str(self.tmp / f"history-{k}-{i}.csv")
                level, amp = rng.uniform(0.3, 0.8), rng.uniform(0.0, 0.2)
                with open(hist, "w") as fh:
                    fh.write("t,x\n")
                    for j in range(33):
                        t = -h + h * j / 32
                        fh.write(f"{t!r},{level + amp * math.sin(2.0 * math.pi * t / h)!r}\n")
            path = self.tmp / f"traj-{k}-{i}.csv"
            T = TRAJ_DELAYS * h
            argv = ["simulate", "--model", model, "--history", hist, "--delta", repr(delta),
                    "--h", repr(h), "--T", repr(T), "--out", str(path)]
            ops.append(("simulate", argv, (path, T)))
        for _ in range(TRAJ_NICHOLSON):
            # ln(p/delta) <= 2: certified for every delay, so every run converges
            p, gamma, h = rng.uniform(3.0, 7.0), rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.5)
            argv = ["nicholson", "--p", repr(p), "--delta", "1.0", "--gamma", repr(gamma),
                    "--h", repr(h), "--simulate", str(NICHOLSON_HISTORIES), "--T-mult", str(TRAJ_DELAYS)]
            ops.append(("nicholson_simulate", argv, None))
        rng.shuffle(ops)
        return ops

    def run_pass(self, k: int, out: Outcome) -> None:
        for kind, argv, expect in self.ops(k):
            rc, stdout, stderr, timing = run_cli(self.pkg.cli, argv)
            if rc != 0:
                err = f"exit {rc}: {stderr.strip()[-300:]}"
            elif kind == "simulate":
                err = _check_trajectory(*expect, stdout)
            else:
                err = _check_nicholson_simulate(stdout)
            out.add(kind, timing, err)
        for path in self.tmp.glob(f"*-{k}-*.csv"):
            path.unlink()


def _check_trajectory(path: Path, T: float, stdout: str) -> str | None:
    if not stdout.startswith("trajectory:") or "asymptotic bounds:" not in stdout:
        return "unexpected summary"
    rows = _csv_rows(path)
    if rows[0] != ["t", "x"] or len(rows) != STEPS_PER_TRAJECTORY + 2:
        return f"{len(rows) - 1} CSV rows, expected {STEPS_PER_TRAJECTORY + 1}"
    try:
        values = [float(x) for _t, x in rows[1:]]
        t_end = float(rows[-1][0])
    except ValueError as exc:
        return f"bad CSV value: {exc}"
    if not all(math.isfinite(v) for v in values):
        return "non-finite trajectory value"
    if not abs(t_end - T) <= 1e-9 * T:
        return f"trajectory ends at {t_end}, expected {T}"
    return None


_GAP = re.compile(r"^worst relative gap: (\S+)$", re.M)


def _check_nicholson_simulate(stdout: str) -> str | None:
    if "decision: certified" not in stdout:
        return "not certified"
    if stdout.count("history const:") != NICHOLSON_HISTORIES:
        return "wrong number of demonstration runs"
    m = _GAP.search(stdout)
    if m is None or not float(m.group(1)) <= 1e-3:
        return "demonstration runs missed the tolerance"
    return None


# ---------------------------------------------------------------------------
# queries


_VERDICT = re.compile(r"^a=\S+ theta=\S+: (globally stable|not certified) \((\w+)")


class Queries:
    """One closed-loop client: check at stratified-uniform points of the
    (theta, mu) square, plus nicholson decisions, map tables and region runs."""

    name = "queries"
    trace_passes = 8

    def __init__(self, pkg, seed: int, tmp: Path, schemas: dict, reference: dict):
        self.pkg = pkg
        self.seed = seed
        self.tmp = tmp
        self.check_schema = schemas["check_result"]
        self.region_schema = schemas["region_boundaries"]

    def ops(self, k: int) -> list[tuple[str, list[str], object]]:
        rng = random.Random(f"queries:{self.seed}:{k}")
        n_checks = Q_THETA_CELLS * Q_MU_CELLS
        forms = [(coord, out) for coord in ("theta", "delta_h") for out in ("text", "json")]
        forms = forms * (n_checks // len(forms))
        rng.shuffle(forms)
        ops = []
        for idx, (coord, output) in enumerate(forms):
            i, j = divmod(idx, Q_MU_CELLS)
            theta = max((i + rng.random()) / Q_THETA_CELLS, 1e-9)
            mu = max((j + rng.random()) / Q_MU_CELLS, 1e-9)
            a = -1.0 / mu
            if coord == "theta":
                argv = ["check", "--a", repr(a), "--theta", repr(theta)]
                expect = (a, theta)
            else:
                delta = rng.uniform(0.5, 2.0)
                a_raw, h = a * delta, -math.log(theta) / delta
                argv = ["check", "--a", repr(a_raw), "--delta", repr(delta), "--h", repr(h)]
                expect = (a_raw / delta, math.exp(-h * delta))
            if output == "json":
                argv.append("--json")
            ops.append((f"check_{output}", argv, expect))
        for _ in range(Q_NICHOLSON):
            p, delta = rng.uniform(3.0, 60.0), rng.uniform(0.5, 2.0)
            gamma, h = rng.uniform(0.5, 2.0), rng.uniform(0.1, 2.0)
            argv = ["nicholson", "--p", repr(p), "--delta", repr(delta), "--gamma", repr(gamma), "--h", repr(h)]
            ops.append(("nicholson", argv, oracle_nicholson(p, delta, h)))
        # Latin hypercube over (mu, position across the band): map cost depends
        # on the point, and stratifying keeps each pass's total steady
        band_strata = list(range(Q_MAP))
        rng.shuffle(band_strata)
        for i in range(Q_MAP):
            mu = 0.05 + 0.9 * (i + rng.random()) / Q_MAP
            lo, hi = _band(mu)
            theta = lo + (hi - lo) * (band_strata[i] + rng.random()) / Q_MAP
            path = self.tmp / f"map-{k}-{i}.csv"
            argv = ["map", "--a", repr(-1.0 / mu), "--theta", repr(theta), "--n", str(MAP_N), "--out", str(path)]
            ops.append(("map", argv, path))
        for i in range(Q_REGION):
            path = self.tmp / f"region-{k}-{i}"
            argv = ["region", "--out", str(path), "--n-mu", str(REGION_N_MU), "--raster", str(REGION_RASTER)]
            ops.append(("region", argv, path))
        rng.shuffle(ops)
        return ops

    def run_pass(self, k: int, out: Outcome) -> None:
        for kind, argv, expect in self.ops(k):
            rc, stdout, stderr, timing = run_cli(self.pkg.cli, argv)
            if rc is None or rc == 2 or (rc != 0 and kind in ("map", "region")):
                err = f"exit {rc}: {stderr.strip()[-300:]}"
            elif kind == "check_json":
                err = self._check_json(rc, stdout, expect)
            elif kind == "check_text":
                err = _check_text(rc, stdout, expect)
            elif kind == "nicholson":
                err = _check_nicholson(rc, stdout, expect)
            elif kind == "map":
                err = _check_map(expect)
            else:
                err = self._check_region(expect)
            out.add(kind, timing, err)
        for path in self.tmp.glob(f"*-{k}-*"):
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink()

    def _check_json(self, rc: int, stdout: str, expect) -> str | None:
        try:
            doc = json.loads(stdout)
        except ValueError as exc:
            return f"not JSON: {exc}"
        errors = sorted(e.message for e in self.check_schema.iter_errors(doc))
        if errors:
            return f"schema: {errors[0]}"
        if (doc["a"], doc["theta"]) != expect:
            return f"normalized point {(doc['a'], doc['theta'])} != {expect}"
        if rc != (0 if doc["certified"] else 1):
            return f"exit {rc} disagrees with certified={doc['certified']}"
        if doc["region"] != oracle_region(*expect):
            return f"region {doc['region']} != {oracle_region(*expect)}"
        return None

    def _check_region(self, path: Path) -> str | None:
        try:
            doc = json.loads((path / "boundaries.json").read_text())
            raster = _csv_rows(path / "fig2_raster.csv")
            curves = _csv_rows(path / "fig2_curves.csv")
            fig1 = _csv_rows(path / "fig1.csv")
        except (OSError, ValueError) as exc:
            return f"missing artifact: {exc}"
        errors = sorted(e.message for e in self.region_schema.iter_errors(doc))
        if errors:
            return f"schema: {errors[0]}"
        if len(doc["rows"]) != REGION_N_MU or len(curves) != REGION_N_MU + 1 or len(fig1) != 501:
            return "wrong boundary row count"
        if len(raster) != REGION_RASTER * REGION_RASTER + 1:
            return f"{len(raster) - 1} raster rows, expected {REGION_RASTER ** 2}"
        if any(row[2] not in REGION_TAGS for row in raster[1:]):
            return "unknown raster label"
        return None


def _check_text(rc: int, stdout: str, expect) -> str | None:
    m = _VERDICT.match(stdout)
    if m is None:
        return "unparsed verdict line"
    certified = m.group(1) == "globally stable"
    if rc != (0 if certified else 1):
        return f"exit {rc} disagrees with verdict {m.group(1)!r}"
    if m.group(2) != oracle_region(*expect):
        return f"region {m.group(2)} != {oracle_region(*expect)}"
    return None


def _check_nicholson(rc: int, stdout: str, certified: bool) -> str | None:
    said = "decision: certified" in stdout
    if said != certified or rc != (0 if certified else 1):
        return f"exit {rc}, stdout certified={said}, expected {certified}"
    return None


def _check_map(path: Path) -> str | None:
    rows = _csv_rows(path)
    if rows[0] != ["z", "F", "F1", "R_of_rz", "R2_of_rz", "residual_F", "residual_F1"]:
        return "bad map header"
    if len(rows) != MAP_N + 2:
        return f"{len(rows) - 1} map rows, expected {MAP_N + 1}"
    for i, row in enumerate(rows[1:]):
        z, _f, f1, _r, _r2, res_f, res_f1 = (float(v) for v in row)
        z_want = -0.9 + 4.9 * i / MAP_N
        if abs(z - z_want) > 1e-9 * max(1.0, abs(z_want)):
            return f"row {i}: z = {z}, expected {z_want}"
        if z > 0.0 and not math.isfinite(f1):
            return f"row {i}: F1 undefined at z = {z}"
        if any(math.isfinite(r) and abs(r) > 1e-9 for r in (res_f, res_f1)):
            return f"row {i}: identity residual above 1e-9"
    return None


WORKLOADS = {cls.name: cls for cls in (Sweep, Trajectories, Queries)}
