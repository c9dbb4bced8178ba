#!/usr/bin/env python3
"""Tabulate the certified delay window for the blowfly equation.

For each reproduction ratio q = p/delta the equilibrium slope is c = ln q - 1;
below c = 1 stability is delay-independent, above it the certificate holds up
to a critical decay-delay product.  Each closed-form threshold is cross-checked
against the decision routine just inside and just outside the window.
"""

import argparse
import math

from ddestab.models import NicholsonParams, nicholson_global
from ddestab.params import critical_h

FMT = "%.12g"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="artifacts/nicholson_window.csv")
    ap.add_argument("--lnq-min", type=float, default=1.2, dest="lnq_min")
    ap.add_argument("--lnq-max", type=float, default=8.0, dest="lnq_max")
    ap.add_argument("--n", type=int, default=200)
    args = ap.parse_args()

    rows = []
    for i in range(args.n + 1):
        ln_q = args.lnq_min + (args.lnq_max - args.lnq_min) * i / args.n
        c = ln_q - 1.0
        # critical_h needs a negative slope; c <= 0 is delay-independent too
        dh = critical_h(-c, 1.0) if c > 0.0 else math.inf
        if math.isfinite(dh):
            p = math.exp(ln_q)
            inside = nicholson_global(NicholsonParams(p=p, delta=1.0, gamma_n=1.0, h=0.999 * dh))
            outside = nicholson_global(NicholsonParams(p=p, delta=1.0, gamma_n=1.0, h=1.001 * dh))
            if not inside.certified or outside.certified:
                print(f"inconsistent window at ln q = {ln_q:.6g}")
                return 1
        rows.append((ln_q, c, dh))

    with open(args.out, "w", newline="") as fh:
        fh.write("ln_q,c,critical_delta_h\n")
        for row in rows:
            fh.write(",".join(FMT % v for v in row) + "\n")
    print(f"window table: {args.out} ({len(rows)} rows)")
    e3 = critical_h(-2.0, 1.0)
    print(f"reference point ln q = 3: critical product {FMT % e3}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
