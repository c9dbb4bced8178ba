"""Repeat the benchmark over seeds, report each metric's spread, write a BENCH record.

    python3 perfbench/record.py [--workloads sweep queries] [--seeds 10] \
        [--first-seed 1] [--traced] [--label 0]

Runs perfbench/run.py once per (workload, seed) with the run length from
BENCHMARK.json, one run at a time, and prints per end-to-end metric the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound.  --traced adds one traced run
per workload.  --label writes everything to perfbench/BENCH_<label>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    env = next((json.loads(ln.split(": ", 1)[1]) for ln in lines if ln.startswith("environment: ")), {})
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--label", default=None)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"command": bench["command"], "run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for wl in args.workloads:
        seeds = list(range(args.first_seed, args.first_seed + args.seeds))
        runs = []
        for seed in seeds:
            result, env = run_once(wl, seed, bench["run_seconds"], 0)
            record.setdefault("environment", env)
            runs.append(result)
            ok &= result["correct"] and result["failed"] == 0
            print(f"{wl} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
        entry = {"seeds": seeds, "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs], "end_to_end": {}}
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["unit"], s["bound"] = runs[0]["metrics"][name]["unit"], bound
            entry["end_to_end"][name] = s
            flag = "ok" if s["spread"] < bound / 3 else ("WIDE" if s["spread"] <= bound else "OVER")
            print(f"  {name:<14} median {s['median']:12.5g} {s['unit']:<3} q1 {s['q1']:12.5g} "
                  f"q3 {s['q3']:12.5g} spread {s['spread']:7.2%} bound {bound:.0%} {flag}", flush=True)
        if args.traced:
            result, _env = run_once(wl, seeds[0], bench["run_seconds"], 1)
            ok &= result["correct"]
            entry["per_layer"] = {"seed": seeds[0], "failed": result["failed"],
                                  "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
            overhead = result["metrics"]["trace.overhead_pct"]["value"]
            print(f"  traced run: overhead {overhead:.1f}%", flush=True)
        record["workloads"][wl] = entry
    if args.label is not None:
        path = HERE / f"BENCH_{args.label}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
