"""End-to-end acceptance runs.

One test per shipped criterion, each at its stated tolerance and budget,
announcing a single PASS line with the measured figure of merit.  These
re-run the full pipelines, so this module is slower than the unit suites.
"""

import math
import time

import numpy as np
import pytest

from ddestab.ddesim import F1_sim, F_sim, History, integrate
from ddestab.models import NicholsonParams, nicholson_global, third_iterate_margin
from ddestab.onedmaps import F1_solve, F1_solve_r, F_solve, F_solve_r, interval_I
from ddestab.params import (
    MU_SECTOR_MAX,
    NormParams,
    ParamSet,
    Region,
    classify,
    critical_h,
    linear_boundary_theta,
    local_stability_boundary,
    pi_curve,
    sharp_boundary_theta,
)
from ddestab.ratmaps import R2_eval, R_eval, chi_iterate, coeffs, r_eval
from ddestab.verify import sweep_figures, verify_all


def _announce(capsys, text):
    with capsys.disabled():
        print(text)


def test_criterion_1_boundary_identities(capsys):
    """Band-edge curves against their defining equality conditions."""
    t0 = time.perf_counter()
    n = 1000
    worst = 0.0
    for i in range(1, n + 1):
        mu = i / (n + 1)
        a = -1.0 / mu
        worst = max(worst, abs(pi_curve(2, mu) - sharp_boundary_theta(a)))
        worst = max(worst, abs(pi_curve(1, mu) - linear_boundary_theta(a)))
    dt = time.perf_counter() - t0
    assert worst <= 1e-12
    assert dt < 1.0
    _announce(capsys, f"criterion 1 PASS: curve identity max error {worst:.3e} ({dt:.2f}s)")


def test_criterion_2_classical_limits(capsys):
    """Small-decay delay bound 3/2 and the pure-delay angle pi/2."""
    t0 = time.perf_counter()
    h_star = critical_h(-1.0, 1e-4)
    myshkis_err = abs(h_star - 1.5)
    assert myshkis_err < 1e-3

    a_big = -1e4
    theta_l = local_stability_boundary(a_big)
    hayes = -math.log(theta_l) * abs(a_big)
    hayes_err = abs(hayes - math.pi / 2.0)
    assert hayes_err < 1e-3
    dt = time.perf_counter() - t0
    assert dt < 1.0
    _announce(
        capsys,
        f"criterion 2 PASS: 3/2 limit off by {myshkis_err:.2e}, "
        f"pi/2 limit off by {hayes_err:.2e} ({dt:.2f}s)",
    )


def test_criterion_3_solve_vs_sim(capsys):
    """Fixed-point solves against direct integration on a band-spanning grid."""
    t0 = time.perf_counter()
    count = 0
    worst = 0.0
    for a in (-1.3, -2.0, -3.0, -5.0, -8.0, -12.0):
        mu = -1.0 / a
        lo, hi = pi_curve(2, mu), pi_curve(1, mu)
        for j in range(5):
            theta = lo + (hi - lo) * (j + 0.5) / 5.0
            np_ = NormParams(a=a, theta=theta)
            iv = interval_I(np_)
            z_top = min(iv.hi * 0.9, 6.0)
            for k in range(17):
                z = z_top * (k + 1) / 18.0
                worst = max(worst, abs(F_solve(z, np_).value - F_sim(z, np_)))
                worst = max(worst, abs(F1_solve(z, np_).value - F1_sim(z, np_)))
                count += 1
    dt = time.perf_counter() - t0
    assert count >= 500
    assert worst < 1e-4
    assert dt < 120.0
    _announce(
        capsys,
        f"criterion 3 PASS: {count} triples, max solve-vs-sim gap {worst:.3e} ({dt:.1f}s)",
    )


def _band_sample(rng, interior=0.02):
    mu = rng.uniform(0.02, 0.98)
    a = -1.0 / mu
    lo, hi = pi_curve(2, mu), pi_curve(1, mu)
    theta = rng.uniform(lo + interior * (hi - lo), hi - interior * (hi - lo))
    return NormParams(a=a, theta=theta)


def test_criterion_4_comparison_suite(capsys):
    """Response maps stay above their rational bounds on the stated domains."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260822)
    n_each = 3500
    violations = 0
    mins = []

    worst = math.inf  # overshoot response vs the tangent rational bound
    for _ in range(n_each):
        np_ = _band_sample(rng)
        c = coeffs(np_)
        r = c.a_star * rng.uniform(1e-3, 0.999)
        margin = F_solve_r(r, np_).value - R_eval(r, c)
        worst = min(worst, margin)
        violations += margin < 0.0
    mins.append(worst)

    worst = math.inf  # slow-branch response vs the same bound, deeper window
    for _ in range(n_each):
        np_ = _band_sample(rng)
        c = coeffs(np_)
        r = np_.a + (c.a_star - np_.a) * rng.uniform(1e-3, 0.999)
        margin = F1_solve_r(r, np_).value - R_eval(r, c)
        worst = min(worst, margin)
        violations += margin < 0.0
    mins.append(worst)

    worst = math.inf  # slow-branch response vs the corner map in the sector
    got = 0
    while got < n_each:
        mu = rng.uniform(0.02, MU_SECTOR_MAX - 1e-3)
        a = -1.0 / mu
        th_lo = max(0.8, pi_curve(3, mu))
        th_hi = pi_curve(1, mu)
        if th_lo >= th_hi:
            continue
        theta = rng.uniform(th_lo + 0.02 * (th_hi - th_lo), th_hi - 0.02 * (th_hi - th_lo))
        np_ = NormParams(a=a, theta=theta)
        if classify(np_).tag is not Region.SECTOR:
            continue
        iv = interval_I(np_)
        z = rng.uniform(1e-3, min(iv.hi * 0.95, 4.0))
        margin = F1_solve(z, np_).value - R2_eval(r_eval(z, a), np_)
        worst = min(worst, margin)
        violations += margin < 0.0
        got += 1
    mins.append(worst)

    dt = time.perf_counter() - t0
    assert 3 * n_each >= 10_000
    assert violations == 0
    _announce(
        capsys,
        f"criterion 4 PASS: {3 * n_each} pairs, zero violations, "
        f"min margins {mins[0]:.2e}/{mins[1]:.2e}/{mins[2]:.2e} ({dt:.1f}s)",
    )


# every report's min_margin at resolution 256, frozen bitwise (float.hex), so
# a change that moves one by a single ulp fails here
_SWEEP_MINIMA = {
    "albet": "0x1.53590b0000000p-10",
    "albeta": "0x1.00aaf55c94639p-26",
    "dom": "0x1.00aa749276800p-19",
    "jcal_tangent": "0x1.7dc5ab931140ap-41",
    "jcal_concavity": "0x1.6c74c80000001p-24",
    "leform1": "0x1.183b5a3000000p-37",
    "plyus": "0x1.256db4ade0000p-23",
    "leform2": "0x1.2d89cb6a20b00p-13",
    "lele": "0x1.00ff52ae5e7e8p-24",
    "leleka": "0x1.e1448edb00000p-16",
    "funcrr2": "0x1.a61ef8d8ce700p-16",
    "lele2": "0x1.2569b0d6cf1d8p-2",
    "expo_bounds": "0x1.a3f174ad69b21p-24",
    "r303": "0x1.d986a13313fdap-15",
    "gsslemma_schwarz": "0x1.ef82c34de3155p-56",
}


def test_criterion_5_full_verification(capsys):
    """Dense-grid sweep of every registered inequality at full resolution."""
    t0 = time.perf_counter()
    reports = verify_all(resolution=256)
    total_violations = sum(len(r.violations) for r in reports)
    assert len(reports) == 15
    assert total_violations == 0
    assert {r.lemma_id: r.min_margin.hex() for r in reports} == _SWEEP_MINIMA

    r303 = next(r for r in reports if r.lemma_id == "r303")
    assert abs(r303.min_margin - 5.644e-5) <= 1e-8

    margins = [third_iterate_margin(lq) for lq in np.linspace(2.0, 2.833157, 3000)]
    assert min(margins) > 0.0

    dt = time.perf_counter() - t0
    assert dt < 600.0
    _announce(
        capsys,
        f"criterion 5 PASS: 15 checks at resolution 256, zero violations, "
        f"endpoint margin {r303.min_margin:.6e}, third-iterate min {min(margins):.2e} ({dt:.1f}s)",
    )


def _random_histories(rng, n_star, h, count):
    out = []
    for idx in range(count):
        if idx % 2 == 0:
            out.append(History.constant(n_star * math.exp(rng.uniform(-1.5, 1.1))))
        else:
            ts = np.linspace(-h, 0.0, 17)
            vals = n_star * np.exp(rng.uniform(-1.0, 1.0, size=ts.size))
            out.append(History.from_samples(ts, vals))
    return out


def test_criterion_6_nicholson_end_to_end(capsys):
    """Certified blowfly runs converge; the uncertified one is refused honestly."""
    t0 = time.perf_counter()
    worst = 0.0
    for dh in (0.5, 0.9):
        p = NicholsonParams(p=math.e**3, delta=1.0, gamma_n=1.0, h=dh)
        dec = nicholson_global(p)
        assert dec.certified
        rng = np.random.default_rng(int(dh * 10))
        f = p.feedback()
        T = 200.0 * p.h
        for hist in _random_histories(rng, dec.n_star, p.h, 20):
            tr = integrate(f, hist, ParamSet(a=-1.0, delta=p.delta, h=p.h), T)
            gap = abs(tr.values[-1] - dec.n_star) / dec.n_star
            worst = max(worst, gap)
            assert gap < 1e-3

    dec_out = nicholson_global(NicholsonParams(p=math.e**3, delta=1.0, gamma_n=1.0, h=1.2))
    assert not dec_out.certified
    assert "unstable" not in dec_out.reason.lower()

    dt = time.perf_counter() - t0
    assert dt < 300.0
    _announce(
        capsys,
        f"criterion 6 PASS: 40 runs converged (worst relative gap {worst:.2e}), "
        f"out-of-range case refused without an instability claim ({dt:.1f}s)",
    )


def test_criterion_7_straightened_map_contraction(capsys):
    """Straightened-map orbits reach the origin from far-out seeds."""
    t0 = time.perf_counter()
    worst_pairs = 0
    for a in np.linspace(-1.2, -24.0, 10):
        tl = linear_boundary_theta(float(a))
        np_ = NormParams(a=float(a), theta=tl + 0.02 * (1.0 - tl))
        assert classify(np_).tag is Region.LINEAR
        for x0 in (-0.9, 0.5, 5.0, 50.0):
            orbit = chi_iterate(x0, 2000, np_)
            hit = next((i for i, v in enumerate(orbit) if abs(v) < 1e-8), None)
            assert hit is not None, f"no contraction at a={a}, x0={x0}"
            pair_steps = (hit + 1) // 2
            assert pair_steps <= 1000
            worst_pairs = max(worst_pairs, pair_steps)
    dt = time.perf_counter() - t0
    _announce(
        capsys,
        f"criterion 7 PASS: 40 orbits below 1e-8, worst {worst_pairs} double-steps ({dt:.1f}s)",
    )


def test_criterion_8_figure_reproduction(tmp_path, capsys):
    """Figure data: threshold ordering and all three certificate regions."""
    t0 = time.perf_counter()
    paths = sweep_figures(tmp_path)

    max_gap = 0.0
    for line in open(paths["fig1"]).read().splitlines()[1:]:
        c, tg, tl = (float(v) for v in line.split(","))
        if c <= 1.0:
            assert tg == 0.0 and tl == 0.0
            continue
        # more decay demanded globally means a shorter certified delay span
        assert tg >= tl - 1e-15
        if tg > 0.0 and tl > 0.0:
            max_gap = max(max_gap, -math.log(tl) + math.log(tg))

    for line in open(paths["fig2_curves"]).read().splitlines()[1:]:
        mu, p1, p2, p3, _ = (float(v) for v in line.split(","))
        assert p2 <= p1 + 1e-15
        if mu <= MU_SECTOR_MAX:
            assert p2 <= p3 <= p1 + 1e-15

    labels = [row.split(",")[2] for row in open(paths["fig2_raster"]).read().splitlines()[1:]]
    counts = {tag: labels.count(tag) for tag in ("core", "sector", "linear")}
    assert all(v > 0 for v in counts.values())

    dt = time.perf_counter() - t0
    _announce(
        capsys,
        f"criterion 8 PASS: delay-span gap peaks at {max_gap:.4f}, "
        f"raster cells core={counts['core']} sector={counts['sector']} "
        f"linear={counts['linear']} ({dt:.1f}s)",
    )
