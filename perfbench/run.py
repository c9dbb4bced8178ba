"""ddestab benchmark: one seeded workload per run, one JSON result line.

    python3 perfbench/run.py --workload {sweep,trajectories,queries} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout: the package is imported from
src/ddestab of that checkout, and the run writes only under .bench_out/.
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a fixed number of passes,
each run once untraced and once traced.  Earlier stdout lines are a
human-readable summary.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7

sys.path.insert(0, str(HERE))
from workloads import (  # noqa: E402
    REFERENCE_CALIBRATION_S,
    STEPS_PER_TRAJECTORY,
    WORKLOADS,
    Outcome,
    calibration_work,
)


def _load_package():
    """Import ddestab from this checkout's src/, with one worker process."""
    os.environ["DDE_STAB_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import ddestab.cli  # noqa: F401  (imports every module and builds the registry)

    pkg = sys.modules["ddestab"]
    if Path(pkg.__file__).resolve().parent != SRC / "ddestab":
        raise ImportError(f"ddestab imported from {pkg.__file__}, not from {SRC}")
    return pkg


def _schemas() -> dict:
    import jsonschema

    out = {}
    for name in ("lemma_report", "check_result", "region_boundaries"):
        doc = json.loads((ROOT / "docs" / "schemas" / f"{name}.schema.json").read_text())
        out[name] = jsonschema.Draft202012Validator(doc)
    return out


def environment() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "ddestab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    rev = ""
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_rev": rev or "n/a (not a git checkout)",
        "src_sha256": digest.hexdigest()[:16],
        "DDE_STAB_THREADS": os.environ["DDE_STAB_THREADS"],
    }


def setup_samples(n: int) -> list[float]:
    """Wall times of n fresh interpreters importing ddestab.cli, each scaled by
    the calibration workload timed just before and just after it.  The samples
    run pinned to one CPU, which the child inherits, so the calibration runs
    where the child runs."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import ddestab.cli"
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        out = []
        for _ in range(n):
            before = calibration_work()
            t0 = time.perf_counter()
            # no timeout: with one, Popen.wait polls in sleeps of up to 50 ms
            subprocess.run([sys.executable, "-c", code], check=True)
            secs = time.perf_counter() - t0
            out.append(secs * REFERENCE_CALIBRATION_S / statistics.mean((before, calibration_work())))
        return out
    finally:
        os.sched_setaffinity(0, allowed)


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def run_passes(wl, passes, out: Outcome, tracer=None) -> list[range]:
    """Run the given passes; returns the range of out.samples each one added."""
    ranges = []
    for k in passes:
        first = len(out.samples)
        if tracer is None:
            wl.run_pass(k, out)
        else:
            sid = tracer.open(tracer.name_id("bench.pass"))
            try:
                wl.run_pass(k, out)
            finally:
                tracer.close(sid)
        ranges.append(range(first, len(out.samples)))
    return ranges


def pass_seconds(out: Outcome, ranges, scaled: bool = True) -> list[float]:
    return [sum(out.seconds(out.samples[i][1], scaled) for i in r) for r in ranges]


def measure(wl, seconds: float, out: Outcome) -> list[range]:
    """Run passes 1, 2, ... until `seconds` of wall time are used (at least one)."""
    ranges = []
    start = time.perf_counter()
    k = 1
    while not ranges or time.perf_counter() - start < seconds:
        ranges += run_passes(wl, [k], out)
        k += 1
    return ranges


def kind_table(out: Outcome, wl, totals: list[float], raw_totals: list[float]) -> list[str]:
    """Per-kind calibrated latencies, with the percentiles that have ten samples beyond them."""
    by_kind: dict[str, list[float]] = {}
    for kind, parts in out.samples + [(kind, [part]) for kind, part in out.notes]:
        by_kind.setdefault(kind, []).append(out.seconds(parts))
    lines = [f"  {'kind':<28}{'n':>7}{'p50_ms':>12}{'p90_ms':>12}{'p99_ms':>12}"]
    for kind in sorted(by_kind):
        v = by_kind[kind]
        cols = [statistics.median(v) * 1e3]
        cols += [_quantile(v, q) * 1e3 if len(v) >= 10 * 100 / (100 - q) else None for q in (90, 99)]
        cells = "".join(f"{c:>12.3f}" if c is not None else f"{'-':>12}" for c in cols)
        lines.append(f"  {kind:<28}{len(v):>7}{cells}")
    lines.append(
        f"  calibration: {len(out.cal_secs)} samples, median {statistics.median(out.cal_secs) * 1e3:.3f} ms "
        f"(reference {REFERENCE_CALIBRATION_S * 1e3:g} ms); uncalibrated pass_s "
        f"{statistics.median(raw_totals):.4g}"
    )
    if wl.name == "sweep":
        lines.append(f"  sweep_s = {statistics.median(totals):.3f} (one verify_all pass, resolution 256)")
    if wl.name == "trajectories":
        rate = wl.steps_per_pass * len(totals) / sum(totals)
        lines.append(f"  sim_steps_per_s = {rate:.0f} ({STEPS_PER_TRAJECTORY} RK4 steps per trajectory)")
    return lines


def end_to_end(wl, seconds: float, out: Outcome) -> dict:
    # set-up samples before and after the passes, so one burst of machine
    # noise does not cover all of them
    setup = setup_samples(SETUP_SAMPLES // 2)
    out.calibrate(force=True)
    ranges = measure(wl, seconds, out)
    out.calibrate(force=True)
    setup += setup_samples(SETUP_SAMPLES - len(setup))
    totals = pass_seconds(out, ranges)
    lat = [out.seconds(parts) for _kind, parts in out.samples]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{wl.name}: {len(totals)} passes, {len(lat)} timed calls, {out.attempted} checked outputs")
    print("\n".join(kind_table(out, wl, totals, pass_seconds(out, ranges, scaled=False))))
    return {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "pass_s": (statistics.median(totals), "s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (_quantile(lat, 90) * 1e3, "ms"),
    }


def per_layer(pkg, wl, out: Outcome, check_ids) -> dict:
    from spans import Tracer

    # each pass runs untraced and traced back to back, alternating which goes
    # first, so a change in machine speed hits both sides of the overhead alike
    passes = list(range(1, wl.trace_passes + 1))
    tracer = Tracer()
    untraced, traced = [], []
    for k in passes:
        for with_trace in (False, True) if k % 2 else (True, False):
            if not with_trace:
                untraced += pass_seconds(out, run_passes(wl, [k], out), scaled=False)
                continue
            tracer.install(pkg)
            try:
                traced += pass_seconds(out, run_passes(wl, [k], out, tracer), scaled=False)
            finally:
                tracer.restore()
    tracer.save(OUT / f"spans-{wl.name}.npz")
    metrics = layer_metrics(tracer, untraced, traced, check_ids)
    print(f"{wl.name}: {len(passes)} passes, each untraced and traced ({len(tracer.t0)} spans)")
    for name, (value, unit) in metrics.items():
        if value:
            print(f"  {name:<44}{value:>16.6g} {unit}")
    return metrics


def layer_metrics(tracer, untraced: list[float], traced: list[float], check_ids) -> dict:
    """Per-layer metrics; untraced and traced hold the per-pass times of the same passes."""
    spans = tracer.by_name()
    c = tracer.counts
    own = tracer.self_by_layer()
    m: dict[str, tuple[float, str]] = {}

    def calls_and_s(name):
        calls, total, _ = spans.get(name, (0, 0.0, 0.0))
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.s"] = (total, "s")

    def secs(name, key=None):
        m[key or f"{name}.s"] = (spans.get(name, (0, 0.0, 0.0))[1], "s")

    solves = spans.get("rootfind.solve_bracketed", (0, 0.0, 0.0))[0]
    calls_and_s("rootfind.solve_bracketed")
    m["rootfind.iterations"] = (c["rootfind.iterations"], "count")
    m["rootfind.iterations_per_solve"] = (c["rootfind.iterations"] / solves if solves else 0.0, "iter/solve")
    m["rootfind.f_evals"] = (c["rootfind.f_evals"], "count")
    m["rootfind.f_eval_s"] = (c["rootfind.f_eval_s"], "s")
    m["rootfind.bracket_errors"] = (c["rootfind.bracket_errors"], "count")

    for fn in ("F_solve_r", "F1_solve_r", "F_solve", "F1_solve"):
        calls_and_s(f"onedmaps.{fn}")

    steps = c["ddesim.rk4_steps"]
    integrate_s = spans.get("ddesim.integrate", (0, 0.0, 0.0))[1]
    calls_and_s("ddesim.integrate")
    m["ddesim.rk4_steps"] = (steps, "count")
    m["ddesim.us_per_step"] = (integrate_s / steps * 1e6 if steps else 0.0, "us")
    m["ddesim.model_evals"] = (c["ddesim.model_evals"], "count")
    m["ddesim.model_eval_s"] = (c["ddesim.model_eval_s"], "s")
    secs("ddesim.export_csv")
    m["ddesim.export_bytes"] = (c["ddesim.export_bytes"], "B")
    secs("ddesim.asymptotic_bounds")
    m["ddesim.diverged"] = (c["ddesim.diverged"], "count")

    for fn in ("coeffs", "coeffs_generic", "schwarz_margin", "R_eval"):
        calls_and_s(f"ratmaps.{fn}")
    m["ddouble.backend_calls"] = (c["ddouble.backend_calls"], "count")

    for fn in ("classify", "pi_curve", "sharp_boundary_theta", "local_stability_boundary"):
        calls_and_s(f"params.{fn}")
    secs("params.write_region")

    for lemma_id in check_ids:
        secs(f"verify.check_s.{lemma_id}", f"verify.check_s.{lemma_id}")
    m["verify.points"] = (c["verify.points"], "count")
    secs("verify.write_report")
    m["verify.report_bytes"] = (c["verify.report_bytes"], "B")
    calls_and_s("verify.certificate")
    secs("verify.sweep_figures")

    for fn in ("nicholson_global", "attractor_bounds"):
        calls_and_s(f"models.{fn}")
    calls_and_s("cli.main")

    from spans import LAYERS

    for layer in LAYERS + ("bench",):
        if layer != "ddouble":
            m[f"{layer}.self_s"] = (own.get(layer, 0.0), "s")
    # overhead_pct is the median per-pass ratio, so a burst of machine noise
    # during one pass does not decide it
    ratios = [t / u for u, t in zip(untraced, traced)]
    m["trace.untraced_s"] = (sum(untraced), "s")
    m["trace.wall_s"] = (sum(traced), "s")
    m["trace.overhead_s"] = (sum(traced) - sum(untraced), "s")
    m["trace.overhead_pct"] = (100.0 * (statistics.median(ratios) - 1.0), "%")
    m["trace.layer_self_sum_s"] = (sum(own.get(layer, 0.0) for layer in LAYERS), "s")
    m["trace.spans"] = (len(tracer.t0), "count")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ddestab" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'ddestab'}", file=sys.stderr)
        return 2
    pkg = _load_package()
    print("environment: " + json.dumps(environment(), sort_keys=True))
    reference = json.loads((HERE / "sweep_reference.json").read_text())
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    out = Outcome(calibrate=not args.trace)
    try:
        wl = WORKLOADS[args.workload](pkg, args.seed, tmp, _schemas(), reference)
        if args.trace:
            metrics = per_layer(pkg, wl, out, list(reference["checks"]))
        else:
            metrics = end_to_end(wl, args.seconds, out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for line in out.failures[:20]:
        print(f"FAILED {line}")
    result = {
        "correct": not out.failures,
        "attempted": out.attempted,
        "failed": len(out.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
