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
import functools
import inspect
import math
import sys

import numpy as np

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
from .ddesim import _is_number
from .params import NormParams, ParamSet, _table_text, normalize
from .ratmaps import R2_eval, R_eval, coeffs, r_eval
from .onedmaps import F_F1_solve, interval_I
# not called here: kept only as the names perfbench/spans.py's tracer patches
from .onedmaps import F1_solve, F_solve  # noqa: F401
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
    np_ = _norm_from_args(args)
    cert = certificate(np_)
    if args.json:
        import json

        out = {
            "a": np_.a,
            "theta": np_.theta,
            "region": cert.region.tag.value,
            "certified": cert.ok,
            "reason": cert.region.reason,
            "facts": [
                {"name": f.name, "value": f.value, "requirement": f.requirement, "ok": f.ok}
                for f in cert.chain
            ],
        }
        if cert.failure is not None:
            out["failure"] = {k: getattr(cert.failure, k) for k in ("name", "value", "requirement")}
        # one encode and one write: json.dump writes chunk by chunk
        sys.stdout.write(json.dumps(out, indent=2, sort_keys=True) + "\n")
    else:
        if cert.ok:
            verdict, tag = "globally stable", f"{cert.region.tag.value} certificate"
        else:
            verdict, tag = "not certified", cert.region.tag.value
        # a theta just below 1 would read 1, outside (0, 1): give its digits
        theta = _FMT % np_.theta
        if theta == "1":
            theta = repr(np_.theta)
        print(f"a={_FMT % np_.a} theta={theta}: {verdict} ({tag})")
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
    for flag, value in (("--n-mu", args.n_mu), ("--raster", args.raster)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    paths = sweep_figures(args.out, n_mu=args.n_mu, raster=args.raster)
    for name in sorted(paths):
        print(f"{name}: {paths[name]}")
    return 0


def _cmd_map(args) -> int:
    n = args.n
    if n < 1:
        raise ValueError(f"--n must be at least 1, got {n}")
    zs = [args.zmin + (args.zmax - args.zmin) * i / n for i in range(n + 1)]
    if not all(map(math.isfinite, zs)):
        raise ValueError(
            f"every z sample must be finite, got --zmin {args.zmin} --zmax {args.zmax} --n {n}"
        )
    if min(zs) < -1.0:
        raise ValueError(
            f"z samples must stay at or above the envelope pole -1, "
            f"got --zmin {args.zmin} --zmax {args.zmax}"
        )
    np_ = NormParams(a=args.a, theta=args.theta)
    c = coeffs(np_)
    iv = interval_I(np_)
    z = np.array(zs)
    rz = np.full(z.shape, math.nan)
    off_pole = z != -1.0
    rz[off_pole] = r_eval(z[off_pole], np_.a)
    # both maps are exactly 0 at z = 0; every sample they are not defined at is nan
    f_val, f_res, f1_val, f1_res = (np.where(z == 0.0, 0.0, math.nan) for _ in range(4))
    # one lockstep solve over the samples each map is defined at
    lanes, lanes1 = iv.contains(z) & (z != 0.0), z > 0.0
    sol, sol1 = F_F1_solve(z[lanes], z[lanes1], np_)
    f_val[lanes], f_res[lanes] = sol.value, sol.residual
    f1_val[lanes1], f1_res[lanes1] = sol1.value, sol1.residual
    r_of = np.full(z.shape, math.nan)
    defined = np.abs(1.0 - c.beta * rz) > 1e-14
    r_of[defined] = R_eval(rz[defined], c)
    r2_of = R2_eval(rz, np_)
    header = ("z", "F", "F1", "R_of_rz", "R2_of_rz", "residual_F", "residual_F1")
    text = _table_text(header, (z, f_val, f1_val, r_of, r2_of, f_res, f1_res), "\n")
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text.decode("ascii"))
    return 0


def _parse_kv(body: str) -> dict:
    out = {}
    for part in body.split(","):
        if "=" not in part:
            raise ValueError(f"bad model parameter {part!r} (expected name=value)")
        k, v = part.split("=", 1)
        out[k.strip()] = float(v)
    return out


_MODELS = {
    "ricker": make_ricker_shifted,
    "wright": make_wright,
    "mackey": make_mackey_glass,
    "wazewska": make_wazewska,
    "rational": make_rational,
}


def _parse_model(spec: str):
    if ":" not in spec:
        raise ValueError("model spec must look like name:param=value[,param=value]")
    name, body = spec.split(":", 1)
    build = _MODELS.get(name)
    if build is None:
        raise ValueError(f"unknown model {name!r}")
    kv = _parse_kv(body)
    # the builder's keyword names are the spec's keys; a default makes one optional
    params = inspect.signature(build).parameters.values()
    required = {p.name for p in params if p.default is p.empty}
    if not required <= kv.keys() <= {p.name for p in params}:
        accepted = ", ".join(p.name if p.name in required else f"[{p.name}]" for p in params)
        raise ValueError(f"model {name!r} takes parameters {accepted}, got {body!r}")
    return build(**kv)


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
    if args.simulate < 0:
        raise ValueError(f"--simulate must be at least 0, got {args.simulate}")
    if not args.T_mult > 0.0:
        raise ValueError(f"--T-mult must be positive, got {args.T_mult}")
    if not (math.isfinite(args.tol) and args.tol > 0.0):
        raise ValueError(f"--tol must be finite and positive, got {args.tol}")
    p = NicholsonParams(p=args.p, delta=args.delta, gamma_n=args.gamma, h=args.h)
    dec = nicholson_global(p)
    verdict = "certified" if dec.certified else "not certified"
    print(
        f"q={_FMT % p.q} equilibrium={_FMT % dec.n_star} slope={_FMT % dec.slope} "
        f"theta={_FMT % dec.theta}"
    )
    region = dec.region.tag.value if dec.region is not None else "unconditional"
    print(f"decision: {verdict} ({region}): {dec.reason}")
    b = attractor_bounds(p) if p.ln_q > 2.0 else None
    # upper_n = upper/gamma overflows where q is near the largest float and gamma < 1
    if b is not None and math.isfinite(b.upper_n):
        print(
            f"attractor bracket: N in [{_FMT % b.lower_n}, {_FMT % b.upper_n}] "
            f"(own-interval invariance: plain={b.invariant_g} damped={b.invariant_g1})"
        )
    if args.simulate > 0:
        from .ddesim import History, integrate

        levels = [
            dec.n_star * (0.2 + 2.8 * ((idx + 1) / (args.simulate + 1)))
            for idx in range(args.simulate)
        ]
        # one march, a column per history
        hist = History.constant(np.array(levels))
        tr = integrate(p.feedback(), hist, ParamSet(a=-1.0, delta=p.delta, h=p.h), args.T_mult * p.h)
        gaps = (np.abs(tr.values[-1] - dec.n_star) / dec.n_star).tolist()
        for level, err in zip(levels, gaps):
            print(f"  history const:{_FMT % level} -> relative gap {err:.3e}")
        worst = max(gaps)
        print(f"worst relative gap: {worst:.3e}")
        if dec.certified and worst > args.tol:
            print("warning: a certified run missed the tolerance", file=sys.stderr)
            return 1
    return 0 if dec.certified else 1


def _cmd_verify(args) -> int:
    ids = LEMMA_IDS if args.lemma == "all" else [args.lemma]
    bad = 0
    for lemma_id in ids:
        rep = verify_lemma(lemma_id, resolution=args.resolution)
        if args.out:
            write_report(rep, args.out)
        print(rep.summary())
        bad += len(rep.violations)
    return 0 if bad == 0 else 1


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's own parser, by name.

    Built on the first call and kept: a parse leaves the parsers unchanged,
    and import stays free of the cost.  main hands a known subcommand's
    tokens to its own parser; the top-level one reads every other argv.
    """
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
    v.add_argument("--out", default=None, help="directory for JSON reports")
    v.set_defaults(fn=_cmd_verify)
    return ap, sub.choices


def _glue_negative_values(argv: list[str]) -> list[str]:
    """Write each `--opt -1e-5` pair as `--opt=-1e-5`: argparse (Python 3.10, 3.11)
    takes a token led by '-' for an option unless it reads like -123 or -1.5."""
    out = []
    for tok in argv:
        if out and out[-1][:2] == "--" and "=" not in out[-1] and tok[:1] == "-" and _is_number(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = _glue_negative_values(sys.argv[1:] if argv is None else argv)
    ap, commands = _parsers()
    args = rest = None
    # a known subcommand's own parser reads the tokens after its name, as
    # the top-level parser would hand them over; -h, no argument, an unknown
    # command and a token the subcommand leaves go to the top-level parser,
    # which prints the usage line, error text and exit code it always gave
    if argv and argv[0] in commands:
        args, rest = commands[argv[0]].parse_known_args(argv[1:])
    if args is None or rest:
        args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
