import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ddestab import onedmaps, verify
from ddestab.params import NormLanes, NormParams
from ddestab.ratmaps import R2_eval, R_eval, _branch_slope, coeffs, r_eval
from ddestab.onedmaps import (
    F1_solve,
    F1_solve_r,
    F_solve,
    F_solve_r,
    _g1_fraction,
    bound_L,
    interval_I,
    lambda_composite,
    mn_polys_generic,
    q_poly_generic,
    ramp_slope_ratio,
    s_poly_generic,
    t_chain_generic,
)
from ddestab.rootfind import _XTOL, solve_bracketed
from oracles import identity_mp, phi_diff, sln_series, t1

# frozen: ramp response at a=-2, theta=0.5, z=1 solves a quadratic; root -2+sqrt(3)
F1_EXACT = -0.26794919243112270
# frozen polynomial values at r=-1, a=-2, theta=0.5 (exact rationals)
M_AT_REF = 8.765625
N_AT_REF = 30.09375


def test_interval_endpoints(np_core):
    iv = interval_I(np_core)
    a, th = np_core.a, np_core.theta
    assert iv.proper
    assert iv.hi == pytest.approx(a * (th - 1.0) / th - 1.0, rel=1e-15)
    assert not iv.contains(-1.0)
    assert iv.contains(iv.hi)
    assert not iv.contains(iv.hi + 1e-9)


def test_interval_improper_when_band_fails():
    # k <= theta: the crossing no longer happens within one delay span
    iv = interval_I(NormParams(a=-1.2, theta=0.9))
    assert not iv.proper


def test_t1_range(np_core):
    iv = interval_I(np_core)
    h = np_core.delay
    for z in (-0.5, 0.0, 0.5, iv.hi):
        tt = t1(z, np_core)
        assert -h - 1e-12 <= tt < 0.0
    assert t1(iv.hi, np_core) == pytest.approx(-h, abs=1e-12)


# oracles for the tests below; the package itself uses the difference form and _g1_fraction
def phi_antiderivative(u: float, rz: float, a: float) -> float:
    """Raw antiderivative whose differences encode the response identity.

    Direct differences of this form cancel catastrophically near the
    extremum.  The rz = -1 case degenerates to a*log|u| - u.
    """
    eps = 1.0 + rz
    if eps == 0.0:
        if u == 0.0:
            raise ValueError("antiderivative singular at u = 0 for rz = -1")
        return a * math.log(abs(u)) - u
    v = u * eps - rz * a
    if v == 0.0:
        raise ValueError(f"antiderivative log singularity at u = {u}")
    return (a * math.log(abs(v)) - v) / (eps * eps)


def bound_G1(r: float, np_: NormParams, P: float | None = None) -> float:
    """Taylor-remainder minorant of the ramp response at slope ratio P.

    P defaults to the ratio generated by r itself; P = 1 gives the
    constant-history bound.
    """
    if P is None:
        P = ramp_slope_ratio(r, np_) / r if r != 0.0 else 1.0
    num, den = _g1_fraction(r, np_, P)
    if den == 0.0:
        raise ValueError("ramp minorant pole")
    return num / den


def test_phi_diff_consistent_with_antiderivative():
    # stable two-point form against the raw antiderivative difference
    for (u2, u1, rz, a) in [
        (-0.3, -0.5, -0.8, -2.0),
        (0.4, 0.1, -1.2, -3.0),
        (-0.05, -0.4, 0.7, -2.0),
    ]:
        raw = phi_antiderivative(u2, rz, a) - phi_antiderivative(u1, rz, a)
        stable = phi_diff(u2, u1, rz, a)
        assert stable == pytest.approx(raw, rel=1e-9, abs=1e-12)


def test_phi_diff_mpmath_reference():
    # high-precision quadrature of the kernel d(phi)/du = (a-u)/(u(1+rz) - rz*a)
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50

    for (u2, u1, rz, a) in [
        (-0.3, -0.5, -0.8, -2.0),
        (0.45, 0.0, -1.3, -2.0),
        (0.9, 0.2, -0.2, -4.0),
        (-0.6, -0.8, 3.0, -2.0),
    ]:
        am, rm = mp.mpf(a), mp.mpf(rz)
        integrand = lambda u: (am - u) / (u * (1 + rm) - rm * am)
        ref = mp.quad(integrand, [mp.mpf(u1), mp.mpf(u2)])
        got = phi_diff(u2, u1, rz, a)
        assert got == pytest.approx(float(ref), rel=1e-12, abs=1e-14)


_NEAR = st.floats(-0.1, 0.1, exclude_min=True, exclude_max=True)
_EDGE = math.nextafter(0.1, 0.0)  # one ulp below the series' range limit


@given(s=_NEAR)
@example(s=_EDGE)
@example(s=-_EDGE)
@example(s=5e-324)
@example(s=0.0)
@example(s=-0.0)
def test_sln_series_on_a_float_is_the_full_series(s):
    assert onedmaps._sln_series(s).hex() == sln_series(s).hex()


@given(s=st.lists(_NEAR, max_size=40))
@example(s=[])
@example(s=[_EDGE])
@example(s=[-_EDGE, 1e-300, -5e-324, 0.0, -0.0])
@example(s=[0.03, math.nan, -0.07])
def test_sln_series_on_an_array_is_the_full_series(s):
    s = np.array(s, dtype=float)
    assert onedmaps._sln_series(s).tobytes() == sln_series(s).tobytes()


def test_phi_diff_small_separation_stability():
    # the naive antiderivative difference cancels; the stable form must not
    a, rz = -2.0, -0.9
    u1 = -0.4
    for du in (1e-6, 1e-9, 1e-12):
        got = phi_diff(u1 + du, u1, rz, a)
        # leading term: phi'(u1) * du with phi'(u) = (a-u)/(u(1+rz) - rz*a)
        expected = (a - u1) / (u1 * (1.0 + rz) - rz * a) * du
        assert got == pytest.approx(expected, rel=1e-4)


def test_F_exact_fixed_point(np_core):
    # z=0 maps to 0
    s = F_solve(0.0, np_core)
    assert s.value == 0.0 and s.residual == 0.0


def test_F_solve_residuals(np_core):
    iv = interval_I(np_core)
    for z in (-0.6, -0.2, 0.3, 0.9 * iv.hi):
        s = F_solve(z, np_core)
        assert abs(s.residual) < 1e-11
        lo, hi = s.bracket
        assert lo - 1e-12 <= s.value <= hi + 1e-12


def test_F_solve_domain_guard(np_core):
    iv = interval_I(np_core)
    with pytest.raises(ValueError):
        F_solve(iv.hi * 1.5, np_core)
    with pytest.raises(ValueError):
        F_solve(-1.0, np_core)


def test_F_r_matches_z_coordinates(np_core):
    iv = interval_I(np_core)
    for z in (-0.5, 0.4, 0.8 * iv.hi):
        rz = r_eval(z, np_core.a)
        s_z = F_solve(z, np_core)
        s_r = F_solve_r(rz, np_core)
        assert s_z.value == pytest.approx(s_r.value, rel=1e-11, abs=1e-13)


def test_F_slope_at_origin(np_core):
    # first derivative alpha, second derivative 2*alpha*beta
    c = coeffs(np_core)
    eps = 2e-5
    f_p = F_solve_r(eps, np_core).value
    f_m = F_solve_r(-eps, np_core).value
    slope = (f_p - f_m) / (2.0 * eps)
    assert slope == pytest.approx(c.alpha, rel=1e-7)
    curv = (f_p - 2.0 * 0.0 + f_m) / eps**2
    assert curv == pytest.approx(2.0 * c.alpha * c.beta, rel=1e-4)


@pytest.mark.parametrize(
    "lemma_id, solve",
    [("leform1", F_solve_r), ("plyus", F_solve_r), ("leform2", F1_solve_r)],
)
def test_lane_map_solves_equal_scalar_solves(lemma_id, solve):
    # lanes retire at different iterations: every lane must still be its
    # scalar solve
    _, grid = verify._REGISTRY[lemma_id].gen(4)
    r, a, th = (grid[k][::5] for k in ("r", "a", "theta"))
    extra = _branch_slope(a[:1], th[:1])  # a lane on the branch slope
    if solve is F_solve_r:
        extra = np.concatenate([extra, [0.0, 0.0]])  # lanes with the exact zero map
    r = np.concatenate([r, extra])
    a, th = (np.concatenate([v, v[: extra.size]]) for v in (a, th))
    lanes = solve(r, NormLanes(a=a, theta=th))
    iterations = []
    for i in range(r.size):
        one = solve(float(r[i]), NormParams(a=float(a[i]), theta=float(th[i])))
        got = (lanes.value[i], lanes.residual[i], lanes.bracket[0][i], lanes.bracket[1][i])
        want = (one.value, one.residual, *one.bracket)
        assert [float(v).hex() for v in got] == [v.hex() for v in want], i
        iterations.append(one.iterations)
    assert lanes.iterations == sum(iterations)
    assert len(set(iterations)) > 2


def test_joint_map_lanes_equal_scalar_solves(monkeypatch):
    # F and F1 lanes at random points, some F lanes at rz = 0, in one
    # lockstep solve: every lane bitwise its own scalar solve
    rng = np.random.default_rng(23)
    n = 512
    a = rng.uniform(-8.0, -1.05, n)
    th = rng.uniform(0.05, 0.98, n) * a / (a - 1.0)  # a proper interval
    lanes = NormLanes(a=a, theta=th)
    rz = _branch_slope(a, th) * rng.uniform(-3.0, 1.0, n)
    rz[::37] = 0.0
    rz1 = a * rng.uniform(0.02, 0.98, n)
    parts = [(onedmaps._F_setup, rz, lanes), (onedmaps._F1_setup, rz1, lanes)]
    calls = []
    solve = onedmaps.solve_bracketed

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(onedmaps, "solve_bracketed", counted)
        joint = onedmaps._lane_solves(parts)
    assert len(calls) == 1
    for got, scalar, r in zip(joint, (F_solve_r, F1_solve_r), (rz, rz1)):
        iterations = 0
        for i in range(n):
            one = scalar(float(r[i]), NormParams(a=float(a[i]), theta=float(th[i])))
            have = (got.value[i], got.residual[i], got.bracket[0][i], got.bracket[1][i])
            want = (one.value, one.residual, *one.bracket)
            assert [float(v).hex() for v in have] == [v.hex() for v in want], i
            iterations += one.iterations
        assert got.iterations == iterations


def test_F_F1_solve_equals_separate_lane_solves(np_core):
    iv = interval_I(np_core)
    z = np.linspace(-0.9, iv.hi, 41)
    z1 = np.linspace(0.0, 4.0, 33)
    both = onedmaps.F_F1_solve(z, z1, np_core)
    for got, want in zip(both, (F_solve(z, np_core), F1_solve(z1, np_core))):
        for g, w in zip((got.value, got.residual, *got.bracket), (want.value, want.residual, *want.bracket)):
            assert g.tobytes() == w.tobytes()
        assert got.iterations == want.iterations


def test_response_bounds_on_lanes_equal_point_bounds():
    # one parameter point per lane, each lane bitwise the bounds at its own
    # point; numpy's th ** 3 would miss libm's cube in the last bit on some
    rng = np.random.default_rng(17)
    a = rng.uniform(-6.0, -1.05, 512)
    th = rng.uniform(0.2, 0.95, 512)
    r = a * rng.uniform(0.05, 0.95, 512)
    lanes = NormLanes(a=a, theta=th)
    c = coeffs(lanes)
    got = [c.alpha, c.beta, c.lam, c.a_star, R2_eval(r, lanes), bound_L(r, lanes)]
    got += _g1_fraction(r, lanes, ramp_slope_ratio(r, lanes) / r)
    for i in range(r.size):
        pt, ri = NormParams(a=float(a[i]), theta=float(th[i])), float(r[i])
        c1 = coeffs(pt)
        want = [c1.alpha, c1.beta, c1.lam, c1.a_star, R2_eval(ri, pt), bound_L(ri, pt)]
        want += _g1_fraction(ri, pt, ramp_slope_ratio(ri, pt) / ri)
        assert [float(v[i]).hex() for v in got] == [v.hex() for v in want], i


def test_response_bounds_on_base_tables_equal_row_bounds():
    # lanes that carry a base table take each quantity of a point once per
    # base and gather it: bitwise what the same lanes give without the table
    rng = np.random.default_rng(23)
    table = NormLanes(a=rng.uniform(-6.0, -1.05, 40), theta=rng.uniform(0.2, 0.95, 40))
    base = np.sort(rng.integers(0, 40, 700))
    rows = NormLanes(a=table.a[base], theta=table.theta[base])
    lanes = NormLanes(a=rows.a, theta=rows.theta, bases=table, base=base)
    r = rows.a * rng.uniform(0.05, 0.95, base.size)

    def bounds(np_):
        c = coeffs(np_)
        out = [c.alpha, c.beta, c.lam, c.a_star, R2_eval(r, np_), bound_L(r, np_), np_.delay]
        return out + list(_g1_fraction(r, np_, ramp_slope_ratio(r, np_) / r))

    for got, want in zip(bounds(lanes), bounds(rows)):
        assert got.tobytes() == want.tobytes()
    assert R_eval(r, coeffs(lanes)).tobytes() == R_eval(r, coeffs(rows)).tobytes()
    part = lanes.take(slice(100, 300))
    assert part.bases is table and part.delay.tobytes() == rows.delay[100:300].tobytes()


def test_F1_closed_form_oracle():
    np_ = NormParams(a=-2.0, theta=0.5)
    s = F1_solve(1.0, np_)
    assert s.value == pytest.approx(F1_EXACT, abs=5e-15)
    assert s.value == pytest.approx(-2.0 + math.sqrt(3.0), abs=5e-15)


def test_F1_domain_guard(np_core):
    with pytest.raises(ValueError):
        F1_solve(-0.5, np_core)


def test_F1_r_matches_z_coordinates(np_core):
    for z in (0.5, 1.0, 4.0):
        rz = r_eval(z, np_core.a)
        s_z = F1_solve(z, np_core)
        s_r = F1_solve_r(rz, np_core)
        assert s_z.value == pytest.approx(s_r.value, rel=1e-11, abs=1e-13)


def test_F1_below_F(np_core):
    # the ramp history dips lower than the constant one
    for z in (0.3, 1.0, 2.0):
        assert F1_solve(z, np_core).value <= F_solve(z, np_core).value + 1e-12


def test_ramp_slope_ratio_fixes_branch_point(np_core):
    c = coeffs(np_core)
    assert ramp_slope_ratio(c.a_star, np_core) == pytest.approx(c.a_star, rel=1e-13)


def test_ramp_slope_ratio_increasing(np_core):
    a = np_core.a
    rs = [a * (1 - k / 20.0) for k in range(1, 20)]
    vals = [ramp_slope_ratio(r, np_core) for r in rs]
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))


def test_polynomials_frozen_values():
    m, n = mn_polys_generic(-1.0, -2.0, 0.5)
    assert m == pytest.approx(M_AT_REF, rel=1e-14)
    assert n == pytest.approx(N_AT_REF, rel=1e-14)


def test_polynomial_identity_with_taylor_parts(np_core):
    # M/N are the cleared-denominator forms of the ramp Taylor bound parts:
    # M = 24*(A1 + A2 r)*(theta + r(theta-1))^4 with P the slope ratio over r,
    # N = 24*(B0 + B1 r + B2 r^2)*(theta + r(theta-1))^4
    from ddestab.onedmaps import _g1_parts

    a, th = np_core.a, np_core.theta
    for r in (-1.8, -1.2, -0.7):
        P = ramp_slope_ratio(r, np_core) / r
        A1, A2, B0, B1, B2 = _g1_parts(P, np_core)
        w = (th + r * (th - 1.0)) ** 4
        m, n = mn_polys_generic(r, a, th)
        assert m == pytest.approx(24.0 * (A1 + A2 * r) * r * w / r, rel=1e-10)
        assert n == pytest.approx(24.0 * (B0 + B1 * r + B2 * r * r) * w, rel=1e-10)


def test_Q_sign_links_G1_to_R(np_core):
    # Q <= 0 exactly when the Taylor bound dominates the Moebius bound
    a, th = np_core.a, np_core.theta
    c = coeffs(np_core)
    # r must stay within [a, a_star]: that is where the certificate poly is nonpositive
    for r in (-1.9, -1.6, -1.4):
        q = q_poly_generic(r, a, th, alpha=c.alpha, beta=c.beta)
        g1 = bound_G1(r, np_core)
        rr = R_eval(r, c)
        diff = g1 - rr
        _, n = mn_polys_generic(r, a, th)
        expected = r * q / (n * (1.0 - c.beta * r))
        assert diff == pytest.approx(expected, rel=1e-8, abs=1e-12)
        assert q <= 0.0
        assert diff >= -1e-12


def test_S_is_derivative_of_Q(np_core):
    a, th = np_core.a, np_core.theta
    ab = {"alpha": coeffs(np_core).alpha, "beta": coeffs(np_core).beta}
    eps = 1e-6
    for r in (-1.7, -1.3, -1.1):
        fd = (q_poly_generic(r + eps, a, th, **ab) - q_poly_generic(r - eps, a, th, **ab)) / (
            2.0 * eps
        )
        assert s_poly_generic(r, a, th, **ab) == pytest.approx(fd, rel=1e-7)


def test_T_chain_frozen_ordering():
    alpha = coeffs(NormParams(a=-2.0, theta=0.5)).alpha
    t3, t2, t1_, t0 = t_chain_generic(-2.0, 0.5, alpha=alpha)
    assert t3 == pytest.approx(0.16820117460710726, rel=1e-12)
    assert t2 == pytest.approx(0.12370575698638324, rel=1e-12)
    assert t1_ == pytest.approx(0.05577407118313434, rel=1e-12)
    assert t0 == pytest.approx(-0.12044132177871347, rel=1e-12)
    assert t3 > t2 > t1_ > t0


def test_lambda_composite_contracts(np_sector):
    for x in (0.25, 1.0, 4.0):
        y = lambda_composite(x, np_sector, coeffs(np_sector))
        assert 0.0 < y < x


def test_lambda_composite_guard(np_sector):
    with pytest.raises(ValueError):
        lambda_composite(-0.5, np_sector, coeffs(np_sector))


@settings(max_examples=40, deadline=None)
@given(th=st.floats(0.36, 0.42))
def test_F_residual_property(th):
    np_ = NormParams(a=-2.0, theta=th)
    iv = interval_I(np_)
    if not iv.proper:
        return
    z = 0.5 * iv.hi
    s = F_solve(z, np_)
    assert abs(s.residual) < 1e-10


@pytest.mark.parametrize("z", [1e-9, 1e-12])
def test_F_at_tiny_z_follows_its_tangent(z, np_core, np_sector):
    # F(z) = alpha*r(z) + O(r(z)**2).  At a tiny z the direct u1 term of the
    # difference form cancels, and took F off its tangent by 2.5e-5
    # relative at z = 1e-12
    for p in (np_core, np_sector):
        tangent = coeffs(p).alpha * r_eval(z, p.a)
        assert abs(F_solve(z, p).value / tangent - 1.0) < 1e-9


# the response-map checks, each with its map's setup
_ROOT_SOLVE_CHECKS = {"leform1": "_F_setup", "plyus": "_F_setup", "leform2": "_F1_setup"}


def _sweep_brackets(lemma_id, resolution, rows=None):
    """lo, hi and the identity's args (u1, a, eps, v1, d1, c) of a check's
    grid rows, each a column, as its sweep's root solve takes them."""
    grid = verify._REGISTRY[lemma_id].gen(resolution)[1]
    if rows is not None:
        grid = {k: v[rows] for k, v in grid.items()}
    r, a = grid["r"], grid["a"]
    setup = getattr(onedmaps, _ROOT_SOLVE_CHECKS[lemma_id])
    lo, hi, u1, c = (np.array(v) for v in np.broadcast_arrays(*setup(r, NormLanes(a=a, theta=grid["theta"]))))
    return lo, hi, (u1, a, *onedmaps._phi_base(u1, r, a), c)


def _seeded_rows(lemma_id, resolution, n, seed):
    rows = verify._row_count(verify._REGISTRY[lemma_id].gen(resolution)[1])
    return np.sort(np.random.default_rng(seed).choice(rows, n, replace=False))


@pytest.mark.parametrize("lemma_id", list(_ROOT_SOLVE_CHECKS))
def test_identity_bound_holds_against_mpmath(lemma_id):
    # at the u1 end, at nodes through the bracket and within 3 ulps of each
    # row's root, the float identity lies within _identity_bound of its
    # 50-digit value at the same float inputs, and the bound grows from u1
    # on, so the bound at a point holds between u1 and it
    mp = pytest.importorskip("mpmath")
    lo, hi, args = _sweep_brackets(lemma_id, 64, _seeded_rows(lemma_id, 64, 40, 33))
    u1 = args[0]
    other = np.where(u1 == lo, hi, lo)
    root = solve_bracketed(onedmaps._identity, lo, hi, args=args).root
    toward = np.sign(other - u1)
    nodes = [u1 + (other - u1) * k / 8 for k in range(9)]
    near = [root + toward * k * np.spacing(np.abs(root)) for k in range(-3, 4)]
    points = np.stack(nodes + near)  # (points, rows)
    cols = [np.broadcast_to(v, points.shape).ravel() for v in args]
    f = onedmaps._identity(points.ravel(), *cols).reshape(points.shape)
    bound = onedmaps._identity_bound(points.ravel(), *cols).reshape(points.shape)
    assert np.all(np.diff(np.stack(nodes + [other]), axis=0) * toward >= 0.0)
    assert np.all(np.diff(bound[:9], axis=0) >= 0.0)
    assert np.all(f[0] == -args[-1])
    with mp.workdps(50):
        for (k, i), x in np.ndenumerate(points):
            exact = identity_mp(mp, x, *(v[i] for v in args))
            assert abs(f[k, i] - exact) <= bound[k, i], (k, i)


@pytest.mark.parametrize("lemma_id", list(_ROOT_SOLVE_CHECKS))
def test_identity_derivative_keeps_its_sign(lemma_id):
    # d/du of the identity is (d1 - a*w/(1 + s))/v1, and d1 - a*w/(1 + eps*w)
    # is monotone in w (its w-derivative is -a/(1 + s)**2), so on every
    # bracket of the resolution-64 sweep it keeps d1's sign at 129 nodes
    # from u1 to the other end.  Central differences on 64 seeded rows
    # agree with the formula
    lo, hi, (u1, a, eps, v1, d1, c) = _sweep_brackets(lemma_id, 64)
    other = np.where(u1 == lo, hi, lo)
    w = (u1 + (other - u1) * np.arange(129)[:, None] / 128 - u1) / v1
    slope = d1 - a * w / (1.0 + eps * w)
    assert np.all(slope * np.sign(d1) > 0.0)
    rows = _seeded_rows(lemma_id, 64, 64, 34)
    args = [v[rows] for v in (u1, a, eps, v1, d1, c)]
    x = u1[rows] + 0.37 * (other - u1)[rows]
    step = 1e-6 * np.abs(other - u1)[rows]
    diff = (onedmaps._identity(x + step, *args) - onedmaps._identity(x - step, *args)) / (2 * step)
    wx = (x - args[0]) / args[3]
    formula = (args[4] - args[1] * wx / (1.0 + args[2] * wx)) / args[3]
    assert diff == pytest.approx(formula, rel=1e-6)


def _offered_probes(lemma_id, resolution):
    """Each row's full solve, and the probe enclosures _settle_early offers
    when every row is probed at its root moved k ulps, for k from -12 to
    12, and then k/4 stop widths, for k from -12 to 12, toward the other
    end; the predicate never stops a row.  Gives the root, the args and
    (rows, probe, low, high) per offer."""
    lo, hi, args = _sweep_brackets(lemma_id, resolution)
    root = solve_bracketed(onedmaps._identity, lo, hi, args=args).root
    toward = np.where(args[0] == lo, 1.0, -1.0)
    width = _XTOL * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    steps = [k * np.spacing(np.abs(root)) for k in range(-12, 13)]
    steps += [k / 4 * width for k in range(-12, 13)]
    offers = []
    for step in steps:
        probe = root + toward * step
        seen = []

        def settled(rows, low, high):
            seen.append((rows, low, high))
            return np.zeros(rows.size, dtype=bool)

        settled.probe = lambda rows, width: probe[rows]
        ends = onedmaps._other_end(lo, hi, args)
        onedmaps._settle_early(settled, np.arange(lo.size), lo, hi, args, *ends)
        if len(seen) == 2:  # the ends, then the probes that passed
            rows, low, high = seen[1]
            offers.append((rows, probe[rows], low, high))
    return root, args, offers


# at least this many probe enclosures are offered at resolution 16 (3,411
# and 2,863): leform2's identity is too flat near its roots for a probe
# there to clear twice its rounding bound
_PROBES_OFFERED = {"leform1": 2000, "plyus": 2000, "leform2": 0}


@pytest.mark.parametrize("lemma_id", list(_ROOT_SOLVE_CHECKS))
def test_probe_enclosures_hold_the_full_solve(lemma_id):
    # probes near each row's root, on either side: each enclosure offered
    # holds the root the row's full solve returns, and at each probe
    # offered within 12 ulps of that root the 50-digit identity has the u1
    # end's sign, so the exact root lies past the probe
    mp = pytest.importorskip("mpmath")
    root, args, offers = _offered_probes(lemma_id, 16)
    assert sum(rows.size for rows, *_ in offers) >= _PROBES_OFFERED[lemma_id]
    with mp.workdps(50):
        for rows, probe, low, high in offers:
            assert np.all((low <= root[rows]) & (root[rows] <= high))
            near = np.abs(probe - root[rows]) <= 12 * np.spacing(np.abs(root[rows]))
            for i, t in zip(rows[near].tolist(), probe[near].tolist()):
                exact = identity_mp(mp, t, *(v[i] for v in args))
                assert (exact > 0) == (-args[-1][i] > 0.0), i
