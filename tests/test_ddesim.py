import math
from fractions import Fraction

import numpy as np
import pytest

from ddestab import ddesim
from ddestab.ddesim import (
    BoundsResult,
    History,
    IntegrationDiverged,
    asymptotic_bounds,
    integrate,
)
from ddestab.models import (
    NicholsonParams,
    make_mackey_glass,
    make_rational,
    make_ricker_shifted,
    make_wazewska,
    make_wright,
)
from ddestab.onedmaps import F1_solve, F_solve, interval_I
from ddestab.params import NormLanes, NormParams, ParamSet
from ddestab.verify import _dip_error_bound
from oracles import F1_sim, F_sim, extremum_after, parabola_refine, rk4_integrate, rk4_rows


def test_history_constant():
    hph = History.constant(0.7)
    assert hph.eval_array(-0.5) == 0.7
    assert hph.eval_array(0.0) == 0.7


def test_history_ramp_semantics():
    c = -0.4
    hph = History.ramp(c)
    assert hph.eval_array(0.0) == pytest.approx(0.0, abs=1e-15)
    # solves y' = -y + c backwards from 0: y(s) = c(1 - exp(-s))
    s = -0.3
    assert hph.eval_array(s) == pytest.approx(c * (1.0 - math.exp(-s)), rel=1e-14)
    # for negative c the pre-history is positive
    assert hph.eval_array(-1.0) > 0.0


def test_history_samples_interp():
    hph = History.from_samples([-1.0, -0.5, 0.0], [2.0, 1.0, 0.0])
    assert hph.eval_array(-0.75) == pytest.approx(1.5)
    assert hph.eval_array(-0.25) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        History.from_samples([-1.0, -1.0, 0.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        History.from_samples([0.0], [1.0])


def test_history_span_check():
    hph = History.from_samples([-0.5, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        hph.check_span(1.0)
    hph2 = History.from_samples([-1.0, 0.0], [1.0, 0.0])
    hph2.check_span(1.0)


def test_history_csv_roundtrip(tmp_path):
    path = tmp_path / "hist.csv"
    path.write_text("t,x\n-1.0,2.0\n-0.5,1.0\n0.0,0.5\n")
    hph = History.from_csv(path)
    assert hph.eval_array(-0.5) == pytest.approx(1.0)


def test_pure_decay_exact():
    # no feedback: x(t) = z exp(-delta t); RK4 nails the exponential to ~1e-12
    p = ParamSet(a=-1.0, delta=1.0, h=1.0)
    tr = integrate(lambda x: 0.0 * x, History.constant(2.0), p, 5.0)
    t = tr.times
    assert np.max(np.abs(tr.values - 2.0 * np.exp(-t))) < 1e-10


def test_first_two_segments_exact():
    # piecewise closed form for x' = -x + b x(t-1), constant history
    b, z = 0.25, 1.0
    p = ParamSet(a=-1.0, delta=1.0, h=1.0)
    tr = integrate(lambda x: b * x, History.constant(z), p, 2.0)

    def seg1(t):
        return b * z + (z - b * z) * np.exp(-t)

    def seg2(t):
        x1 = seg1(1.0)
        return b * b * z + (x1 - b * b * z) * np.exp(-(t - 1.0)) + b * (z - b * z) * (
            t - 1.0
        ) * np.exp(-(t - 1.0))

    t = tr.times
    ref = np.where(t <= 1.0, seg1(t), seg2(t))
    assert np.max(np.abs(tr.values - ref)) < 1e-10


def test_step_rounding():
    p = ParamSet(a=-1.0, delta=1.0, h=1.0)
    tr = integrate(lambda x: 0.0 * x, History.constant(1.0), p, 1.0, step=0.3)
    # the step is adjusted so it divides the delay exactly
    assert tr.step == pytest.approx(0.25)
    n_per = round(p.h / tr.step)
    assert n_per * tr.step == pytest.approx(p.h)


def test_fourth_order_convergence():
    b = -1.2
    p = ParamSet(a=-1.0, delta=1.0, h=1.0)

    def run(step):
        return integrate(lambda x: b * x, History.constant(1.0), p, 3.0, step=step).values[-1]

    e1 = abs(run(1.0 / 16) - run(1.0 / 256))
    e2 = abs(run(1.0 / 32) - run(1.0 / 256))
    assert e2 < e1 / 10.0  # fourth order: factor 16 expected, allow slack


def test_horizon_too_long_is_refused():
    p = ParamSet(a=-1.0, delta=1.0, h=1.0)
    for T in (1e30, math.inf):
        with pytest.raises(ValueError):
            integrate(lambda x: 0.0 * x, History.constant(1.0), p, T)


def test_divergence_guard():
    p = ParamSet(a=-1.0, delta=1.0, h=1.0)
    # the node where the first non-finite value appears, frozen per history
    for z, t in ((6.0, 9.78125), (3.0, 11.0234375), (1.5, 13.59765625)):
        with pytest.raises(IntegrationDiverged) as exc:
            integrate(lambda x: x * x, History.constant(z), p, 20.0)
        assert exc.value.t == t


def test_norm_params_accepted(np_core):
    tr = integrate(lambda x: np_core.a * x, History.constant(0.2), np_core, 3.0)
    # NormParams run the normalised equation: delta 1 and delay h = -log(theta)
    p = ParamSet(a=np_core.a, delta=1.0, h=np_core.delay)
    run = integrate(lambda x: np_core.a * x, History.constant(0.2), p, 3.0)
    assert tr.step == run.step == np_core.delay / 256
    assert tr.values.tobytes() == run.values.tobytes()


def test_trajectory_export(tmp_path):
    # the exact bytes: t,x header, %.12g values, \r\n row ends, t = t0 + i*step
    p = ParamSet(a=-1.0, delta=1.0, h=1.0)
    tr = integrate(lambda x: -2.0 * x, History.constant(1.0), p, 1.5, step=0.25)
    out = tmp_path / "traj.csv"
    tr.export_csv(out)
    assert out.read_bytes() == (
        b"t,x\r\n"
        b"0,1\r\n"
        b"0.25,0.33642578125\r\n"
        b"0.5,-0.180371522903\r\n"
        b"0.75,-0.582857704605\r\n"
        b"1,-0.89631740178\r\n"
        b"1.25,-0.981513257903\r\n"
        b"1.5,-0.78933240261\r\n"
    )


@pytest.mark.parametrize("x0, step", [(0.3, 0.1), (-2.75, 1 / 3), (1e6, 0.7 / 256)])
def test_trajectory_export_time_column(tmp_path, x0, step):
    # the time column is i*step with each i a float: bitwise the per-row
    # Python expression; the values start at x0
    values = x0 + np.linspace(-1.0, 2.0, 300)
    tr = ddesim.Trajectory(step=step, values=values)
    assert tr.times.tolist() == [i * step for i in range(300)]
    out = tmp_path / "traj.csv"
    tr.export_csv(out)
    rows = ["%.12g,%.12g\r\n" % (i * step, v) for i, v in enumerate(values.tolist())]
    assert out.read_bytes() == ("t,x\r\n" + "".join(rows)).encode()


def _extrema_loop(y, s):
    """The node-by-node extremum scan, kept as the oracle for _find_extrema."""
    out = []
    for i in range(1, len(y) - 1):
        d_prev = y[i] - y[i - 1]
        d_next = y[i + 1] - y[i]
        if d_prev > 0.0 and d_next < 0.0:
            kind = "max"
        elif d_prev < 0.0 and d_next > 0.0:
            kind = "min"
        else:
            continue
        t_ref, v_ref = parabola_refine(y, i, 0.0, s)
        out.append((t_ref, v_ref, kind))
    return out


def _hex_extrema(ext):
    return [(float(t).hex(), float(v).hex(), k) for t, v, k in ext]


def test_extrema_scan_matches_node_loop(np_core):
    oscillating = integrate(
        lambda x: np_core.a * x, History.constant(0.5), np_core, 30.0 * np_core.delay
    )
    monotone = integrate(lambda x: 0.0 * x, History.constant(2.0), np_core, 5.0)
    # plateaus: equal neighbours on either side of a node are no extremum
    plateaus = np.array([0.0, 1.0, 1.0, 0.5, 0.5, 0.5, 2.0, -1.0, -1.0, 3.0, 3.0, 1.0, 4.0, 4.0])
    cases = [
        (oscillating.values, oscillating.step),
        (monotone.values, monotone.step),
        (plateaus, 0.1),
    ]
    for y, s in cases:
        assert _hex_extrema(ddesim._find_extrema(y, s)) == _hex_extrema(_extrema_loop(y, s))
    assert len(oscillating.extrema()) >= 5
    assert monotone.extrema() == []
    assert [k for _t, _v, k in ddesim._find_extrema(plateaus, 0.1)] == ["max", "min"]


def _vertex(ym, y0, yp) -> float:
    """The vertex value of the parabola through (-1, ym), (0, y0) and (1, yp), exactly."""
    ym, y0, yp = (Fraction(float(v)) for v in (ym, y0, yp))
    return float(y0 - (yp - ym) ** 2 / (8 * (yp - 2 * y0 + ym)))


def test_extrema_near_overflow_stay_finite():
    # (yp - ym)**2 overflows past about 1.3e154; tier-1 turns the warning
    # into an error.  The vertex keeps its value in a form that stays finite
    y = np.array([0.0, 1e155, 3e155, 2e155, 0.0])
    run = ddesim.Trajectory(step=0.1, values=y)
    [(t, v, kind)] = run.extrema()
    assert kind == "max" and t == pytest.approx(0.1 * (2 + 1 / 6), rel=1e-15)
    assert v == pytest.approx(_vertex(*y[1:4]), rel=1e-15)


def _hex(values) -> list[str]:
    return [v.hex() for v in values]


def _scalar_rows(y0, w_node, w_mid, s, delta):
    """One segment as _march runs it: float weights, a 1-D offset expression
    and the Python-float rows."""
    A, c0, c1, s6 = ddesim._affine_weights(s, delta)
    return ddesim._affine_rows(y0, ddesim._affine_b(w_node, w_mid, c0, c1, s6).tolist(), A)


def test_affine_lanes_equal_scalar_rows():
    # the lockstep's rows, weights on an array of steps and one 2-D offset
    # expression, are bitwise each lane's scalar rows at delta = 1, with its
    # own step.  Lanes 0 and 1 stay on signed zeros, of both signs
    rng = np.random.default_rng(7)
    n, k = 40, 16
    s = rng.uniform(0.001, 0.2, k)
    w_node, w_mid = rng.standard_normal((n + 1, k)), rng.standard_normal((n, k))
    lanes = np.empty((n + 1, k))
    lanes[0] = rng.uniform(-2.0, 2.0, k)
    lanes[0, :2], w_node[:, :2], w_mid[:, :2] = [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]
    A, c0, c1, s6 = ddesim._affine_weights(s, 1.0)
    b = ddesim._affine_b(w_node, w_mid, c0, c1, s6)
    # the first _FLOAT_LANES lanes on their own take Python-float rows
    m = ddesim._FLOAT_LANES
    narrow = np.empty((n + 1, m))
    narrow[0] = lanes[0, :m]
    ddesim._affine_lanes(narrow, b[:, :m], A[:m])
    ddesim._affine_lanes(lanes, b, A)
    assert set(_hex(lanes[:, :2].ravel().tolist())) == {"0x0.0p+0", "-0x0.0p+0"}
    for j, sj in enumerate(s.tolist()):
        rows = _scalar_rows(lanes[0, j].item(), w_node[:, j], w_mid[:, j], sj, 1.0)
        assert _hex(rows) == _hex(lanes[:, j].tolist()), j
    assert _hex(narrow.ravel().tolist()) == _hex(lanes[:, :m].ravel().tolist())


@pytest.mark.parametrize("delta", [1.0, 0.85])
def test_affine_columns_equal_scalar_rows(delta):
    # the column march's rows, float weights and one 2-D offset expression
    # per segment, are bitwise each column's scalar rows, on seeded columns
    # and on columns that stay on signed zeros
    rng = np.random.default_rng(11)
    n, s = 48, 0.1
    y0 = np.r_[rng.uniform(-3.0, 3.0, 25), np.zeros(8)]
    w_node, w_mid = rng.standard_normal((n + 1, 33)), rng.standard_normal((n, 33))
    zeros = np.array([0.0, -0.0])
    for c in range(8):
        y0[25 + c] = zeros[c // 4]
        w_node[:, 25 + c] = zeros[(np.arange(n + 1) + c) % 2]
        w_mid[:, 25 + c] = zeros[(np.arange(n) // 2 + c) % 2]
    A, c0, c1, s6 = ddesim._affine_weights(s, delta)
    b = ddesim._affine_b(w_node, w_mid, c0, c1, s6).T.tolist()
    signed_zero_columns = 0
    for j in range(33):
        rows = ddesim._affine_rows(y0[j].item(), b[j], A)
        assert _hex(rows) == _hex(_scalar_rows(y0[j].item(), w_node[:, j], w_mid[:, j], s, delta))
        signed_zero_columns += set(_hex(rows)) == {"0x0.0p+0", "-0x0.0p+0"}
    assert signed_zero_columns >= 2


# the affine step is RK4's stages expanded, so it moves only rounding: on
# seeded segments (y0 and model values standard normal, up to 256 rows)
# the largest difference from the stage-by-stage rows measured 3.7e-15 of
# the segment's largest |y|, and on 40-delay runs of the models below
# 1.9e-14 of the run's largest |x| (blowfly, settling on its equilibrium)
_SEGMENT_RTOL = 1e-14
_RUN_RTOL = 5e-14


@pytest.mark.parametrize("delta", [1.0, 0.85, 20.0])
@pytest.mark.parametrize("step", [None, 0.01, 0.1])
def test_affine_rows_within_rounding_of_rk4_stages(delta, step):
    rng = np.random.default_rng(24)
    h = 0.7
    n = max(4, round(h / (h / 256 if step is None else step)))
    s = h / n
    for _ in range(20):
        y0 = rng.uniform(-3.0, 3.0)
        w_node, w_mid = rng.standard_normal(n + 1), rng.standard_normal(n)
        ref = np.array(rk4_rows(y0, w_node.tolist(), w_mid.tolist(), delta, s))
        got = np.array(_scalar_rows(y0, w_node, w_mid, s, delta))
        assert np.max(np.abs(got - ref)) <= _SEGMENT_RTOL * np.max(np.abs(ref))


@pytest.mark.parametrize("name", ["ricker", "mackey", "wright", "blowfly"])
@pytest.mark.parametrize("delta", [1.0, 0.85, 20.0])
@pytest.mark.parametrize("step", [None, 0.01])
def test_runs_within_rounding_of_rk4_stages(name, delta, step):
    # five columns in one march, each against its stage-by-stage run
    model, levels = _COLUMN_MODELS[name]
    p = ParamSet(a=-1.0, delta=delta, h=0.7)
    run = integrate(model, History.constant(np.array(levels)), p, 40.0 * p.h, step=step)
    for j, z in enumerate(levels):
        ref = rk4_integrate(model, History.constant(z), p, 40.0 * p.h, step=step)
        assert np.max(np.abs(run.values[:, j] - ref)) <= _RUN_RTOL * np.max(np.abs(ref)), j


# the blowfly feedback and the five simulate models, each with five
# constant history levels in its working range
_COLUMN_MODELS = {
    "blowfly": (NicholsonParams(p=5.0, delta=1.0, gamma_n=1.2, h=0.8).feedback(), (0.3, 0.9, 1.4, 2.2, 3.1)),
    "ricker": (make_ricker_shifted(8.0), (-0.6, -0.1, 0.2, 0.7, 1.5)),
    "wright": (make_wright(-1.2), (-0.5, 0.1, 0.4, 0.8, 2.0)),
    "mackey": (make_mackey_glass(1.6, 2.5), (0.1, 0.5, 0.9, 1.3, 2.4)),
    "wazewska": (make_wazewska(2.0, 1.1), (0.2, 0.6, 1.0, 1.7, 2.9)),
    "rational": (make_rational(-1.1, 1.3), (-0.4, 0.05, 0.3, 0.9, 1.8)),
}


@pytest.mark.parametrize("name", sorted(_COLUMN_MODELS))
@pytest.mark.parametrize("delta", [1.0, 0.85])
@pytest.mark.parametrize("columns", [1, 5])
@pytest.mark.parametrize("delays", [0.45, 6.3])
def test_columns_equal_single_runs(name, delta, columns, delays):
    # horizons end mid-segment, in the first delay and after six
    model, levels = _COLUMN_MODELS[name]
    p = ParamSet(a=-1.0, delta=delta, h=0.7)
    T = delays * p.h
    z = np.array(levels[:columns])
    run = integrate(model, History.constant(z), p, T)
    assert run.values.shape == (len(run.times), columns)
    for j, zj in enumerate(levels[:columns]):
        one = integrate(model, History.constant(zj), p, T)
        assert one.step == run.step and one.t_end == run.t_end
        assert _hex(one.values.tolist()) == _hex(run.values[:, j].tolist()), j


def test_columns_diverge_at_the_earliest_column():
    # x' = -x + x(t - h)**2 blows up from a history above 1, sooner the
    # higher it starts; the level below 1 decays
    p = ParamSet(a=-1.0, delta=1.0, h=0.5)
    levels = [0.5, 3.0, 8.0, 2.0]
    with pytest.raises(IntegrationDiverged) as run:
        integrate(lambda x: x * x, History.constant(np.array(levels)), p, 40.0)
    times = []
    for z in levels:
        try:
            integrate(lambda x: x * x, History.constant(z), p, 40.0)
        except IntegrationDiverged as one:
            times.append(one.t)
    assert len(times) == 3
    assert run.value.t == min(times)


def test_columns_need_constant_histories():
    p = ParamSet(a=-1.0, delta=1.0, h=0.5)
    with pytest.raises(ValueError, match="constant"):
        integrate(lambda x: -x, History.ramp(np.array([0.2, 0.4])), p, 2.0)
    with pytest.raises(ValueError, match="constant"):
        integrate(lambda x: -x, History.constant(np.ones((2, 2))), p, 2.0)


def test_extrema_of_oscillatory_run(np_core):
    # strong delayed feedback oscillates while settling
    tr = integrate(lambda x: np_core.a * x, History.constant(0.5), np_core, 30.0 * np_core.delay)
    ext = tr.extrema()
    assert len(ext) >= 5
    kinds = [k for (_, _, k) in ext]
    assert all(k1 != k2 for k1, k2 in zip(kinds, kinds[1:]))
    # refined extremum beats the raw grid value
    t_e, v_e, kind = ext[1]
    i = int(round(t_e / tr.step))
    if kind == "max":
        assert v_e >= tr.values[i] - 1e-15
    else:
        assert v_e <= tr.values[i] + 1e-15


def test_asymptotic_bounds_converging(np_core):
    tr = integrate(lambda x: np_core.a * x, History.constant(0.5), np_core, 60.0 * np_core.delay)
    b = asymptotic_bounds(tr)
    assert isinstance(b, BoundsResult)
    assert b.confident
    assert b.lower <= 0.0 <= b.upper
    assert b.upper - b.lower < 0.05


def test_F_sim_matches_solver(np_core):
    iv = interval_I(np_core)
    for z in (-0.5, 0.4, 0.8 * iv.hi):
        ref = F_solve(z, np_core).value
        sim = F_sim(z, np_core)
        assert sim == pytest.approx(ref, abs=1e-6)
    # refinement tightens the agreement by orders of magnitude
    fine = F_sim(-0.5, np_core, step=np_core.delay / 2048)
    assert fine == pytest.approx(F_solve(-0.5, np_core).value, abs=1e-8)


def test_F1_sim_matches_solver(np_core):
    for z in (0.5, 1.5):
        ref = F1_solve(z, np_core).value
        sim = F1_sim(z, np_core)
        assert sim == pytest.approx(ref, abs=2e-7)


# Eight lanes in one lockstep, so lanes leave it at several blocks: each
# lane has its own delay, slope b, constant history z, start t0 and horizon
# T (in delays).  Lane 2 decays from z > 0, so its lowest node is
# its last one; lane 3 rises from z < 0, so its lowest node is its start,
# the last node of segment 2; lane 4 ends on a segment boundary; lane 5
# starts its window at t0 = 0, so at node 1.
_LANE_THETA = np.array([0.9, 0.7, 0.5, 0.35, 0.8, 0.6, 0.45, 0.75])
_LANE_B = np.array([-1.5, -2.0, 0.0, 0.0, -4.0, -2.5, -1.2, -3.0])
_LANE_Z = np.array([0.3, -0.4, 1.7, -0.8, 2.5, 0.9, 0.05, 1.2])
_LANE_T0 = np.array([0.2, 1.0, 0.5, 2.0, 0.9, 0.0, 1.7, 0.4])
_LANE_T = np.array([0.6, 2.3, 4.75, 3.4, 3.0, 1.25, 2.6, 3.9])


def _envelope(x, b):
    return b * x / (1.0 + x)


def _linear(x, b):
    return b * x


def _lane_run(f=_envelope, b=_LANE_B, T=_LANE_T, order=slice(None)):
    """The lanes in lockstep, lane j with model f(x, b[j]); order picks
    the lanes and the order they are given in."""
    lanes = NormLanes(a=np.full(len(b), -2.0), theta=_LANE_THETA).take(order)
    h = lanes.delay
    b, z, t0, T = b[order], _LANE_Z[order], _LANE_T0[order], T[order]
    return integrate(
        lambda x, lane_ids: f(x, b[lane_ids]),
        History.constant(z),
        lanes,
        np.stack([t0 * h, T * h]),
    )


def _one_dip(j, f=_envelope, b=_LANE_B, T=_LANE_T):
    """Lane j run on its own, and its dip as a single run finds it."""
    p = NormParams(a=-2.0, theta=float(_LANE_THETA[j]))
    one = integrate(
        lambda x: f(x, b[j]), History.constant(float(_LANE_Z[j])), p, float(T[j] * p.delay)
    )
    dip = extremum_after(one.values, float(_LANE_T0[j] * p.delay), one.step, lowest=True)
    return one, np.float64(dip)


def test_lanes_equal_scalar_runs():
    run = _lane_run()
    n = 256
    assert run.values.shape == (3, len(_LANE_T)) and run.rows % n == 0
    lowest = {}
    for j in range(len(_LANE_T)):
        one, dip = _one_dip(j)
        assert one.step == run.step[j]
        assert dip.tobytes() == run.dip[j].tobytes()
        y = one.values
        h = NormParams(a=-2.0, theta=float(_LANE_THETA[j])).delay
        start = ddesim._first_node_after(float(_LANE_T0[j] * h), one.step)
        im = start + int(np.argmin(y[start:]))
        lowest[j] = (start, im, len(y) - 1)
        stencil = y[im - 1 : im + 2] if im < len(y) - 1 else np.r_[y[im - 1 : im + 1], np.nan]
        assert stencil.tobytes() == run.values[:, j].tobytes()
    # the cases the setup is built for
    assert lowest[2][1] == lowest[2][2] and np.isnan(run.values[2, 2])
    assert lowest[3][1] == lowest[3][0] == 2 * n
    assert lowest[4][2] == 3 * n
    assert lowest[5][0] == 1


# Forty seeded lanes for the lockstep's window bookkeeping.  Lane j runs
# x' = -x + w(x(t - h)) with w(x) = P if x == Z else Q + G*x, from the
# constant history Z.  Its window starts after 0 to 5 whole segments: on a
# segment boundary, one step past one, or inside a segment.  Its horizon
# ends on a boundary or inside a segment.  Five kinds (Z, P, Q, G) cycle,
# a NaN Z drawn uniform in [-1, 1]:
# - "rise" climbs from Z < Q, so its low is the window's first node;
# - "plateau" decays onto the float fixed point of its affine step (a long
#   delay makes the steps large), so its low ties with every later node;
# - "decay" falls until its horizon, so its low is its last node;
# - "kink" falls towards P in the first delay and climbs towards Q after
#   it, so its low is node n, the last row of segment 0;
# - "wave" oscillates, with lows inside segments.
_WIN_KINDS = {
    "rise": (-0.8, 0.6, 0.6, 0.0),
    "plateau": (1.2, 0.2, 0.2, 0.0),
    "decay": (1.2, -0.3, -0.3, 0.0),
    "kink": (1.2, 0.1, 3.0, 0.0),
    "wave": (np.nan, 0.0, 0.0, -2.5),
}


def _window_lanes():
    rng = np.random.default_rng(7)
    kind = np.resize(np.array(list(_WIN_KINDS)), 40)
    Z, P, Q, G = np.array([_WIN_KINDS[k] for k in kind]).T
    Z = np.where(np.isnan(Z), rng.uniform(-1.0, 1.0, kind.size), Z)
    theta = np.where(kind == "plateau", 1e-30, rng.uniform(0.3, 0.9, kind.size))
    # a kink lane's window holds node n; each kind takes every kind of start:
    # on a boundary, one step past one, inside a segment
    first = np.where(kind == "kink", 0, rng.integers(0, 6, kind.size))
    where = np.arange(kind.size) // len(_WIN_KINDS) % 3
    T0 = first + np.choose(where, [0.0, 0.5 / 256, rng.uniform(0.1, 0.9, kind.size)])
    last = first + rng.integers(1, 4, kind.size) + (kind == "kink")
    T = last + np.where(rng.random(kind.size) < 0.5, 0.0, rng.uniform(0.1, 0.9, kind.size))
    return NormLanes(a=np.full(kind.size, -2.0), theta=theta), Z, P, Q, G, T0, T


def test_lane_windows_equal_scalar_runs():
    _lane_windows_equal_scalar_runs(256)


def test_lane_windows_equal_scalar_runs_at_per_lane_steps():
    # every lane takes its own step h/64, given as an array, and equals its
    # single run at that step
    _lane_windows_equal_scalar_runs(64)


def _lane_windows_equal_scalar_runs(n):
    lanes, Z, P, Q, G, T0, T = _window_lanes()
    h = lanes.delay
    step = None if n == 256 else h / n
    run = integrate(
        lambda x, ids: np.where(x == Z[ids], P[ids], Q[ids] + G[ids] * x),
        History.constant(Z),
        lanes,
        np.stack([T0 * h, T * h]),
        step,
    )
    seen = set()
    for j in range(len(Z)):
        p = NormParams(a=-2.0, theta=float(lanes.theta[j]))

        def w(x, j=j):
            return np.where(x == Z[j], P[j], Q[j] + G[j] * x)

        one = integrate(w, History.constant(float(Z[j])), p, float(T[j] * p.delay), p.delay / n)
        assert one.step == run.step[j]
        y = one.values
        start = ddesim._first_node_after(float(T0[j] * p.delay), one.step)
        im = start + int(np.argmin(y[start:]))
        last = len(y) - 1
        stencil = y[im - 1 : im + 2] if im < last else np.r_[y[im - 1 : im + 1], np.nan]
        dip = np.float64(extremum_after(y, float(T0[j] * p.delay), one.step, lowest=True))
        # the past-horizon node is the single run's one node further
        further = integrate(w, History.constant(float(Z[j])), p, (last + 1) * one.step, one.step)
        assert len(further.values) == last + 2
        assert further.values[:-1].tobytes() == y.tobytes()
        assert stencil.tobytes() == run.values[:, j].tobytes(), j
        assert dip.tobytes() == run.dip[j].tobytes(), j
        assert further.values[-1].tobytes() == run.beyond[j].tobytes(), j
        # a window that starts on a boundary starts at the last row of the
        # segment before it
        seen.add(("window starts in segment", (start - 1) // n))
        seen.add(("window starts on a boundary", start % n == 0))
        seen.add(("horizon ends on a boundary", last % n == 0))
        if im == start:
            seen.add("low at the window's first node")
            if start % n == 1 and start > 1 and y[start - 1] < y[im]:
                seen.add("low one row past a boundary, the row before the window lower")
        if im % n == 0 and im < last:
            seen.add("low at row n, right neighbour from the next segment")
        if im == last:
            seen.add("low at the last node")
        if np.count_nonzero(y[start:] == y[im]) > 1:
            seen.add("low on a tie")
    assert {("window starts in segment", m) for m in range(6)} <= seen
    for where in ("window starts on a boundary", "horizon ends on a boundary"):
        assert {(where, True), (where, False)} <= seen
    assert {
        "low at the window's first node",
        "low one row past a boundary, the row before the window lower",
        "low at row n, right neighbour from the next segment",
        "low at the last node",
        "low on a tie",
    } <= seen


def test_new_lanes_see_their_history_exactly():
    # this model tells the exact history value from its neighbours, so a
    # delayed midpoint interpolated from a constant column would show (the
    # centered stencil turns 0.9 into its neighbour)
    def exact(x, z):
        return np.where(x == z, -1.0, 0.5)

    run = _lane_run(f=exact, b=_LANE_Z)
    for j in range(len(_LANE_T)):
        _one, dip = _one_dip(j, f=exact, b=_LANE_Z)
        assert dip.tobytes() == run.dip[j].tobytes()


def test_lane_results_do_not_depend_on_lane_order():
    # lanes given in another order take other columns, and each keeps its
    # bits; the lockstep marches whole blocks up to the longest lane's node
    # past its horizon, however many lanes leave before it
    run = _lane_run()
    order = np.random.default_rng(3).permutation(len(_LANE_T))
    shuffled = _lane_run(order=order)
    for field in ("step", "values", "dip", "beyond"):
        assert getattr(shuffled, field).T.tobytes() == getattr(run, field).T[order].tobytes()
    block = ddesim._BLOCK * 256
    assert run.rows == shuffled.rows == (np.ceil(_LANE_T.max() * 256) // block + 1) * block


# lane 0 with x' = -x + 1e155 x(t - h) overflows in its second delay, mid-segment;
# it has the shortest horizon, so it takes the last column
_BLOWUP_B = np.r_[1e155, _LANE_B[1:]]


def _overflow_node() -> int:
    with pytest.raises(IntegrationDiverged) as exc:
        _one_dip(0, f=_linear, b=_BLOWUP_B, T=np.full(8, 3.0))
    node = round(exc.value.t * 256 / NormParams(a=-2.0, theta=0.9).delay)
    assert 256 < node < 512 and (node - 1) % 256 != 0
    return node


def test_lane_past_its_horizon_never_raises():
    # the horizon ends one node before the overflow, inside the segment the
    # lockstep marches to its end
    T = np.r_[(_overflow_node() - 1) / 256, _LANE_T[1:]]
    assert np.argsort(-np.ceil(T * 256), kind="stable")[-1] == 0
    run = _lane_run(f=_linear, b=_BLOWUP_B, T=T)
    for j in range(len(T)):
        _one, dip = _one_dip(j, f=_linear, b=_BLOWUP_B, T=T)
        assert dip.tobytes() == run.dip[j].tobytes()


def _falling(x, b):
    return -b * np.abs(x)


def test_lane_whose_past_horizon_node_overflows_gets_no_bound():
    # x' = -x - 1e155 |x(t - h)| from 0.3 falls for good, until its model
    # value overflows and the run drops to -inf.  With its horizon one node
    # before that, its lowest node is its last and its node past the horizon
    # is -inf: the lockstep does not raise, and funcrr2's dip bound gives
    # the lane none, so it would march at h/256
    b = np.r_[1e155, np.abs(_LANE_B[1:])]
    with pytest.raises(IntegrationDiverged) as exc:
        _one_dip(0, f=_falling, b=b, T=np.full(8, 3.0))
    node = round(exc.value.t * 256 / NormParams(a=-2.0, theta=0.9).delay)
    T = np.r_[(node - 1) / 256, _LANE_T[1:]]
    run = _lane_run(f=_falling, b=b, T=T)
    one, dip = _one_dip(0, f=_falling, b=b, T=T)
    assert np.argmin(one.values) == len(one.values) - 1 and np.isnan(run.values[2, 0])
    assert dip.tobytes() == run.dip[0].tobytes()
    assert run.beyond[0] == -np.inf and np.all(np.isfinite(run.beyond[1:]))
    bound = _dip_error_bound(run, run)
    assert np.isnan(bound[0]) and np.all(np.isfinite(bound[1:]))


def test_lane_dip_near_overflow_stays_finite():
    # x' = -x - 1e155 x(t - h) from 0.3 falls to -3e153 in its first delay
    # and climbs past 1e302 in its second.  With its horizon one node
    # before its overflow, its lowest node, the last of its first delay,
    # has that right neighbour, and the parabola's (yp - ym)**2 overflows;
    # the dip is the stencil's vertex all the same
    b = np.r_[-1e155, _LANE_B[1:]]
    with pytest.raises(IntegrationDiverged) as exc:
        _one_dip(0, f=_linear, b=b, T=np.full(8, 3.0))
    node = round(exc.value.t * 256 / NormParams(a=-2.0, theta=0.9).delay)
    T = np.r_[(node - 1) / 256, _LANE_T[1:]]
    run = _lane_run(f=_linear, b=b, T=T)
    ym, y0, yp = run.values[:, 0]
    assert ym > y0 > -1e154 and yp > 1e302
    assert np.isfinite(run.dip[0]) and run.dip[0] == pytest.approx(_vertex(ym, y0, yp), rel=1e-15)


def test_lane_overflow_within_its_horizon_raises():
    # the lockstep reports the overflow at the lane's own time, as its run does
    T = np.r_[_overflow_node() / 256, _LANE_T[1:]]
    with pytest.raises(IntegrationDiverged) as one:
        _one_dip(0, f=_linear, b=_BLOWUP_B, T=T)
    with pytest.raises(IntegrationDiverged) as lanes:
        _lane_run(f=_linear, b=_BLOWUP_B, T=T)
    assert lanes.value.t == one.value.t


def test_no_lanes_give_empty_dips():
    e = np.empty(0)
    # funcrr2 marches no lane at h/256 in a row block whose lanes all settle
    lanes = NormLanes(a=e, theta=e)
    run = integrate(ddesim._envelope(e), History.constant(e), lanes, np.empty((2, 0)))
    assert run.rows == 0
    assert run.values.shape == (3, 0)
    assert run.dip.shape == run.step.shape == run.beyond.shape == (0,)


def test_lanes_need_constant_history_and_a_window():
    lanes = NormLanes(a=np.array([-2.0, -3.0]), theta=np.array([0.5, 0.6]))
    T = np.stack([np.zeros(2), 2.0 * lanes.delay])
    with pytest.raises(ValueError):
        integrate(lambda x, lane_ids: x, History.ramp(0.5), lanes, T)
    with pytest.raises(ValueError):
        integrate(lambda x, lane_ids: x, History.constant(0.5), lanes, T[::-1])
    with pytest.raises(ValueError):
        integrate(lambda x, lane_ids: x, History.constant(0.5), lanes, T[1])


def test_lanes_run_the_normalised_equation_only():
    # the lane kernel runs delta = 1: a ParamSet with lane horizons raises,
    # even at delta = 1, rather than run a decay rate it drops
    T = np.stack([np.zeros(2), np.full(2, 2.0)])
    for delta in (1.0, 2.0):
        with pytest.raises(ValueError, match="normalised"):
            integrate(lambda x, lane_ids: x, History.constant(0.5), ParamSet(-2.0, delta, 1.0), T)
