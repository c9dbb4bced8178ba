"""Command-line front end.

Subcommands: check (certify one parameter point), region (figure artifacts),
map (tabulate response curves against their rational bounds), simulate
(integrate a delay model), nicholson (certify the blowfly model), verify
(dense-grid inequality sweeps).

Exit codes: 0 on success or a certified decision, 1 for an honest negative
(not certified, violations found, divergent run), 2 for usage or domain
errors.
"""

from __future__ import annotations

import argparse
import math
import sys

from .models import (
    NicholsonParams,
    attractor_bounds,
    make_mackey_glass,
    make_rational,
    make_ricker_shifted,
    make_wazewska,
    make_wright,
    nicholson_global,
)
from .params import NormParams, ParamSet, Region, normalize
from .ratmaps import R2_eval, R_eval, coeffs, r_eval
from .onedmaps import F1_solve, F_solve, interval_I
from .verify import LEMMA_IDS, certificate, sweep_figures, verify_lemma, write_report

_FMT = "%.12g"


def _norm_from_args(args) -> NormParams:
    if args.theta is not None:
        if args.delta is not None or getattr(args, "h", None) is not None:
            raise ValueError("give either --theta or the pair --delta/--h, not both")
        return NormParams(a=args.a, theta=args.theta)
    if args.delta is None or args.h is None:
        raise ValueError("need --theta, or both --delta and --h")
    return normalize(ParamSet(a=args.a, delta=args.delta, h=args.h))


def _cmd_check(args) -> int:
    if not args.b > 0.0:
        raise ValueError(f"bound curvature --b must be positive, got {args.b}")
    np_ = _norm_from_args(args)
    cert = certificate(np_)
    if args.json:
        import json

        out = {
            "a": np_.a,
            "theta": np_.theta,
            "b": args.b,
            "region": cert.region.tag.value,
            "certified": cert.region.certified,
            "reason": cert.region.reason,
            "facts": [
                {"name": f.name, "value": f.value, "requirement": f.requirement, "ok": f.ok}
                for f in cert.chain
            ],
        }
        if cert.failure is not None:
            out["failure"] = {
                "name": cert.failure.name,
                "value": cert.failure.value,
                "requirement": cert.failure.requirement,
            }
        json.dump(out, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        if cert.region.certified:
            verdict, tag = "globally stable", f"{cert.region.tag.value} certificate"
        else:
            verdict, tag = "not certified", cert.region.tag.value
        print(f"a={_FMT % np_.a} theta={_FMT % np_.theta}: {verdict} ({tag})")
        if cert.region.reason:
            print(f"  reason: {cert.region.reason}")
        for f in cert.chain:
            mark = "ok" if f.ok else "FAIL"
            print(f"  [{mark}] {f.name} = {_FMT % f.value} (need {f.requirement})")
        if cert.failure is not None and cert.failure not in cert.chain:
            print(
                f"  [FAIL] {cert.failure.name} = {_FMT % cert.failure.value} "
                f"(need {cert.failure.requirement})"
            )
    return 0 if cert.ok else 1


def _cmd_region(args) -> int:
    paths = sweep_figures(args.out, n_mu=args.n_mu, raster=args.raster)
    for name in sorted(paths):
        print(f"{name}: {paths[name]}")
    return 0


def _cmd_map(args) -> int:
    np_ = NormParams(a=args.a, theta=args.theta)
    c = coeffs(np_)
    iv = interval_I(np_)
    rows = []
    n = args.n
    for i in range(n + 1):
        z = args.zmin + (args.zmax - args.zmin) * i / n
        rz = r_eval(z, np_.a) if z != -1.0 else math.nan
        f_val = f_res = math.nan
        if iv.proper and iv.contains(z) and z != 0.0:
            sol = F_solve(z, np_)
            f_val, f_res = sol.value, sol.residual
        elif z == 0.0:
            f_val, f_res = 0.0, 0.0
        f1_val = f1_res = math.nan
        if z > 0.0:
            sol = F1_solve(z, np_)
            f1_val, f1_res = sol.value, sol.residual
        elif z == 0.0:
            f1_val, f1_res = 0.0, 0.0
        r_of = math.nan
        if not math.isnan(rz) and abs(1.0 - c.beta * rz) > 1e-14:
            r_of = R_eval(rz, c)
        r2_of = R2_eval(rz, np_) if not math.isnan(rz) else math.nan
        rows.append((z, f_val, f1_val, r_of, r2_of, f_res, f1_res))
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        out.write("z,F,F1,R_of_rz,R2_of_rz,residual_F,residual_F1\n")
        for row in rows:
            out.write(",".join(_FMT % v for v in row) + "\n")
    finally:
        if args.out:
            out.close()
    return 0


def _parse_kv(body: str) -> dict:
    out = {}
    for part in body.split(","):
        if "=" not in part:
            raise ValueError(f"bad model parameter {part!r} (expected name=value)")
        k, v = part.split("=", 1)
        out[k.strip()] = float(v)
    return out


def _parse_model(spec: str):
    if ":" not in spec:
        raise ValueError("model spec must look like name:param=value[,param=value]")
    name, body = spec.split(":", 1)
    kv = _parse_kv(body)
    if name == "ricker":
        return make_ricker_shifted(kv["q"])
    if name == "wright":
        return make_wright(kv["a"])
    if name == "mackey":
        return make_mackey_glass(kv["b"], kv["n"])
    if name == "wazewska":
        return make_wazewska(kv["b1"], kv["b2"])
    if name == "rational":
        return make_rational(kv["a"], kv.get("b", 1.0))
    raise ValueError(f"unknown model {name!r}")


def _parse_history(spec: str):
    from .ddesim import History

    if spec.startswith("const:"):
        return History.constant(float(spec[6:]))
    if spec.startswith("ramp:"):
        return History.ramp(float(spec[5:]))
    return History.from_csv(spec)


def _cmd_simulate(args) -> int:
    from .ddesim import IntegrationDiverged, asymptotic_bounds, integrate

    model = _parse_model(args.model)
    hist = _parse_history(args.history)
    p = ParamSet(a=-1.0, delta=args.delta, h=args.h)
    try:
        tr = integrate(model, hist, p, args.T, step=args.step)
    except IntegrationDiverged as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return 1
    if args.out:
        tr.export_csv(args.out)
        print(f"trajectory: {args.out}")
    b = asymptotic_bounds(tr)
    print(f"model={model.name} T={_FMT % tr.t_end} x(T)={_FMT % tr.values[-1]}")
    print(
        f"asymptotic bounds: [{_FMT % b.lower}, {_FMT % b.upper}] "
        f"(extrema={b.n_extrema}, confident={b.confident})"
    )
    return 0


def _cmd_nicholson(args) -> int:
    p = NicholsonParams(p=args.p, delta=args.delta, gamma_n=args.gamma, h=args.h)
    dec = nicholson_global(p)
    verdict = "certified" if dec.certified else "not certified"
    print(
        f"q={_FMT % p.q} equilibrium={_FMT % dec.n_star} slope={_FMT % dec.slope} "
        f"theta={_FMT % dec.theta}"
    )
    region = dec.region.tag.value if dec.region is not None else "unconditional"
    print(f"decision: {verdict} ({region}): {dec.reason}")
    if p.ln_q > 2.0:
        b = attractor_bounds(p)
        print(
            f"attractor bracket: N in [{_FMT % b.lower_n}, {_FMT % b.upper_n}] "
            f"(own-interval invariance: plain={b.invariant_g} damped={b.invariant_g1})"
        )
    if args.simulate > 0:
        from .ddesim import History, integrate

        f = p.feedback()
        T = args.T_mult * p.h
        worst = 0.0
        for idx in range(args.simulate):
            frac = (idx + 1) / (args.simulate + 1)
            level = dec.n_star * (0.2 + 2.8 * frac)
            hist = History.constant(level)
            tr = integrate(f, hist, ParamSet(a=-1.0, delta=p.delta, h=p.h), T)
            err = abs(tr.values[-1] - dec.n_star) / dec.n_star
            worst = max(worst, err)
            print(f"  history const:{_FMT % level} -> relative gap {err:.3e}")
        print(f"worst relative gap: {worst:.3e}")
        if dec.certified and worst > args.tol:
            print("warning: a certified run missed the tolerance", file=sys.stderr)
            return 1
    return 0 if dec.certified else 1


def _cmd_verify(args) -> int:
    ids = LEMMA_IDS if args.lemma == "all" else [args.lemma]
    bad = 0
    for lemma_id in ids:
        rep = verify_lemma(lemma_id, resolution=args.resolution, threads=args.threads)
        if args.out:
            write_report(rep, args.out)
        print(rep.summary())
        bad += len(rep.violations)
    return 0 if bad == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ddestab",
        description="Certify global stability of scalar delayed negative feedback.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("check", help="certify one parameter point")
    c.add_argument("--a", type=float, required=True, help="feedback slope bound (a < -1)")
    c.add_argument("--theta", type=float, default=None, help="decay-delay product exp(-delta*h)")
    c.add_argument("--delta", type=float, default=None, help="instantaneous decay rate")
    c.add_argument("--h", type=float, default=None, help="delay span")
    c.add_argument(
        "--b",
        type=float,
        default=1.0,
        help="curvature of the rational feedback bound; the verdict is "
        "invariant under state scaling, so this only annotates the result",
    )
    c.add_argument("--json", action="store_true", help="machine-readable output")
    c.set_defaults(fn=_cmd_check)

    r = sub.add_parser("region", help="write region-figure artifacts")
    r.add_argument("--out", required=True, help="output directory")
    r.add_argument("--n-mu", type=int, default=199, dest="n_mu")
    r.add_argument("--raster", type=int, default=200)
    r.set_defaults(fn=_cmd_region)

    m = sub.add_parser("map", help="tabulate response curves against rational bounds")
    m.add_argument("--a", type=float, required=True)
    m.add_argument("--theta", type=float, required=True)
    m.add_argument("--zmin", type=float, default=-0.9)
    m.add_argument("--zmax", type=float, default=4.0)
    m.add_argument("--n", type=int, default=200)
    m.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    m.set_defaults(fn=_cmd_map)

    s = sub.add_parser("simulate", help="integrate a delayed feedback model")
    s.add_argument(
        "--model",
        required=True,
        help="ricker:q=.. | wright:a=.. | mackey:b=..,n=.. | wazewska:b1=..,b2=.. | rational:a=..[,b=..]",
    )
    s.add_argument("--history", required=True, help="const:<x> | ramp:<x> | <csv path>")
    s.add_argument("--delta", type=float, required=True)
    s.add_argument("--h", type=float, required=True)
    s.add_argument("--T", type=float, required=True)
    s.add_argument("--step", type=float, default=None)
    s.add_argument("--out", default=None, help="trajectory CSV path")
    s.set_defaults(fn=_cmd_simulate)

    n = sub.add_parser("nicholson", help="certify the delayed blowfly model")
    n.add_argument("--p", type=float, required=True, help="maximal production rate")
    n.add_argument("--delta", type=float, required=True)
    n.add_argument("--gamma", type=float, default=1.0, help="production shape rate")
    n.add_argument("--h", type=float, required=True)
    n.add_argument("--simulate", type=int, default=0, help="number of demo histories")
    n.add_argument("--T-mult", type=float, default=200.0, dest="T_mult")
    n.add_argument("--tol", type=float, default=1e-3, help="relative gap tolerance")
    n.set_defaults(fn=_cmd_nicholson)

    v = sub.add_parser("verify", help="sweep the supporting inequalities on dense grids")
    v.add_argument("--lemma", default="all", choices=["all"] + LEMMA_IDS)
    v.add_argument("--resolution", type=int, default=64)
    v.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker processes per sweep (default: DDE_STAB_THREADS, else 1)",
    )
    v.add_argument("--out", default=None, help="directory for JSON reports")
    v.set_defaults(fn=_cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
