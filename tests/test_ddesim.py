import math

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
from oracles import F1_sim, F_sim, extremum_after


def test_history_constant():
    hph = History.constant(0.7)
    assert hph(-0.5) == 0.7
    assert hph(0.0) == 0.7


def test_history_ramp_semantics():
    c = -0.4
    hph = History.ramp(c)
    assert hph(0.0) == pytest.approx(0.0, abs=1e-15)
    # solves y' = -y + c backwards from 0: y(s) = c(1 - exp(-s))
    s = -0.3
    assert hph(s) == pytest.approx(c * (1.0 - math.exp(-s)), rel=1e-14)
    # for negative c the pre-history is positive
    assert hph(-1.0) > 0.0


def test_history_samples_interp():
    hph = History.from_samples([-1.0, -0.5, 0.0], [2.0, 1.0, 0.0])
    assert hph(-0.75) == pytest.approx(1.5)
    assert hph(-0.25) == pytest.approx(0.5)
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
    assert hph(-0.5) == pytest.approx(1.0)


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
    assert tr.h == pytest.approx(np_core.delay)
    assert tr.delta == 1.0


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


@pytest.mark.parametrize("t0, step", [(0.3, 0.1), (-2.75, 1 / 3), (1e6, 0.7 / 256)])
def test_trajectory_export_time_column(tmp_path, t0, step):
    # the time column is t0 + i*step with each i a float: bitwise the
    # per-row Python expression, also when t0 is not 0
    values = np.linspace(-1.0, 2.0, 300)
    tr = ddesim.Trajectory(t0=t0, step=step, values=values, delta=1.0, h=1.0)
    assert tr.times.tolist() == [t0 + i * step for i in range(300)]
    out = tmp_path / "traj.csv"
    tr.export_csv(out)
    rows = ["%.12g,%.12g\r\n" % (t0 + i * step, v) for i, v in enumerate(values.tolist())]
    assert out.read_bytes() == ("t,x\r\n" + "".join(rows)).encode()


def _extrema_loop(y, t0, s):
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
        t_ref, v_ref = ddesim._parabola_refine(y, i, t0, s)
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
        (oscillating.values, oscillating.t0, oscillating.step),
        (monotone.values, monotone.t0, monotone.step),
        (plateaus, 0.25, 0.1),
    ]
    for y, t0, s in cases:
        assert _hex_extrema(ddesim._find_extrema(y, t0, s)) == _hex_extrema(_extrema_loop(y, t0, s))
    assert len(oscillating.extrema()) >= 5
    assert monotone.extrema() == []
    assert [k for _t, _v, k in ddesim._find_extrema(plateaus, 0.25, 0.1)] == ["max", "min"]


def test_rk4_rows_list_equals_array_column():
    # the lane kernel runs the delta = 1 row; on Python floats at nd = -1
    # each lane is bitwise the same, with its own step, as on the conveyor.
    # Lanes 0 and 1 stay on signed zeros: -1*v + w and w - v agree there too
    rng = np.random.default_rng(7)
    n, k = 40, 16
    s = rng.uniform(0.001, 0.2, k)
    w_node, w_mid = rng.standard_normal((n + 1, k)), rng.standard_normal((n, k))
    lanes = np.empty((n + 1, k))
    lanes[0] = rng.uniform(-2.0, 2.0, k)
    lanes[0, :2], w_node[:, :2], w_mid[:, :2] = [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]
    ddesim._rk4_lanes(lanes, w_node, w_mid, s, 0.5 * s, s / 6.0)
    assert {v.hex() for v in lanes[:, :2].ravel().tolist()} == {"0x0.0p+0", "-0x0.0p+0"}
    for j, sj in enumerate(s.tolist()):
        rows = [lanes[0, j].item()] + [0.0] * n
        wn, wm = w_node[:, j].tolist(), w_mid[:, j].tolist()
        ddesim._rk4_rows(rows, wn, wm, -1.0, sj, 0.5 * sj, sj / 6.0)
        assert [v.hex() for v in rows] == [v.hex() for v in lanes[:, j].tolist()], j


def _hex(values) -> list[str]:
    return [v.hex() for v in values]


def test_unit_rows_equal_general_rows():
    # at nd = -1 the w - v row is bitwise the -1*v + w row, on seeded rows
    # and on rows that stay on signed zeros
    rng = np.random.default_rng(11)
    n = 48
    cases = [
        (rng.uniform(-3.0, 3.0), rng.standard_normal(n + 1), rng.standard_normal(n), rng.uniform(0.001, 0.3))
        for _ in range(25)
    ]
    zeros = np.array([0.0, -0.0])
    for y0 in (0.0, -0.0):
        for pick in range(4):
            wn, wm = zeros[(np.arange(n + 1) + pick) % 2], zeros[(np.arange(n) // 2 + pick) % 2]
            cases.append((y0, wn, wm, 0.1))
    signed_zero_runs = 0
    for y0, wn, wm, s in cases:
        unit, general = ([y0] + [0.0] * n for _ in range(2))
        ddesim._rk4_unit_rows(unit, wn.tolist(), wm.tolist(), -1.0, s, 0.5 * s, s / 6.0)
        ddesim._rk4_rows(general, wn.tolist(), wm.tolist(), -1.0, s, 0.5 * s, s / 6.0)
        assert _hex(unit) == _hex(general)
        signed_zero_runs += set(_hex(unit)) == {"0x0.0p+0", "-0x0.0p+0"}
    assert signed_zero_runs >= 2


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
    i = int(round((t_e - tr.t0) / tr.step))
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


# Eight lanes on three slots, so the conveyor refills slots and drops them:
# each lane has its own delay, slope b, constant history z, start t0 and
# horizon T (in delays).  Lane 2 decays from z > 0, so its lowest node is
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


def _lane_run(monkeypatch, f=_envelope, b=_LANE_B, T=_LANE_T, slots=3):
    """The lanes on the conveyor, lane j with model f(x, b[j])."""
    lanes = NormLanes(a=np.full(len(b), -2.0), theta=_LANE_THETA)
    h = lanes.delay
    monkeypatch.setattr(ddesim, "_SLOTS", slots)
    return integrate(
        lambda x, lane_ids: f(x, b[lane_ids]),
        History.constant(_LANE_Z),
        lanes,
        np.stack([_LANE_T0 * h, T * h]),
    )


def _one_dip(j, f=_envelope, b=_LANE_B, T=_LANE_T):
    """Lane j run on its own, and its dip as a single run finds it."""
    p = NormParams(a=-2.0, theta=float(_LANE_THETA[j]))
    one = integrate(
        lambda x: f(x, b[j]), History.constant(float(_LANE_Z[j])), p, float(T[j] * p.delay)
    )
    dip = extremum_after(one.values, float(_LANE_T0[j] * p.delay), one.step, lowest=True)
    return one, np.float64(dip)


def test_lanes_equal_scalar_runs(monkeypatch):
    run = _lane_run(monkeypatch)
    n = 256
    assert run.values.shape == (3, len(_LANE_T)) and run.rows % n == 0
    lowest = {}
    for j in range(len(_LANE_T)):
        one, dip = _one_dip(j)
        assert one.step == run.step[j]
        assert dip.tobytes() == run.dip[j].tobytes()
        y = one.values
        start = ddesim._first_node_after(float(_LANE_T0[j] * one.h), one.step)
        im = start + int(np.argmin(y[start:]))
        lowest[j] = (start, im, len(y) - 1)
        stencil = y[im - 1 : im + 2] if im < len(y) - 1 else np.r_[y[im - 1 : im + 1], np.nan]
        assert stencil.tobytes() == run.values[:, j].tobytes()
    # the cases the setup is built for
    assert lowest[2][1] == lowest[2][2] and np.isnan(run.values[2, 2])
    assert lowest[3][1] == lowest[3][0] == 2 * n
    assert lowest[4][2] == 3 * n
    assert lowest[5][0] == 1


def test_new_lanes_see_their_history_exactly(monkeypatch):
    # this model tells the exact history value from its neighbours, so a
    # delayed midpoint interpolated from a constant column would show (the
    # centered stencil turns 0.9 into its neighbour); lanes that start in
    # refilled slots are checked too
    def exact(x, z):
        return np.where(x == z, -1.0, 0.5)

    run = _lane_run(monkeypatch, f=exact, b=_LANE_Z)
    for j in range(len(_LANE_T)):
        _one, dip = _one_dip(j, f=exact, b=_LANE_Z)
        assert dip.tobytes() == run.dip[j].tobytes()


def test_lane_results_do_not_depend_on_slots(monkeypatch):
    one_slot = _lane_run(monkeypatch, slots=1)
    all_slots = _lane_run(monkeypatch, slots=64)
    assert one_slot.values.tobytes() == all_slots.values.tobytes()
    assert one_slot.dip.tobytes() == all_slots.dip.tobytes()
    assert one_slot.rows > all_slots.rows


# lane 0 with x' = -x + 1e155 x(t - h) overflows in its second delay, mid-segment;
# it has the shortest horizon, so on three slots it starts late
_BLOWUP_B = np.r_[1e155, _LANE_B[1:]]


def _overflow_node() -> int:
    with pytest.raises(IntegrationDiverged) as exc:
        _one_dip(0, f=_linear, b=_BLOWUP_B, T=np.full(8, 3.0))
    node = round(exc.value.t * 256 / NormParams(a=-2.0, theta=0.9).delay)
    assert 256 < node < 512 and (node - 1) % 256 != 0
    return node


def test_lane_past_its_horizon_never_raises(monkeypatch):
    # the horizon ends one node before the overflow, inside the segment the
    # conveyor marches to its end
    T = np.r_[(_overflow_node() - 1) / 256, _LANE_T[1:]]
    assert np.argsort(-np.ceil(T * 256), kind="stable")[-1] == 0
    run = _lane_run(monkeypatch, f=_linear, b=_BLOWUP_B, T=T)
    for j in range(len(T)):
        _one, dip = _one_dip(j, f=_linear, b=_BLOWUP_B, T=T)
        assert dip.tobytes() == run.dip[j].tobytes()


def test_lane_overflow_within_its_horizon_raises(monkeypatch):
    # the conveyor reports the overflow at the lane's own time, as its run does
    T = np.r_[_overflow_node() / 256, _LANE_T[1:]]
    with pytest.raises(IntegrationDiverged) as one:
        _one_dip(0, f=_linear, b=_BLOWUP_B, T=T)
    with pytest.raises(IntegrationDiverged) as lanes:
        _lane_run(monkeypatch, f=_linear, b=_BLOWUP_B, T=T)
    assert lanes.value.t == one.value.t


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
