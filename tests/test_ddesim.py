import math

import numpy as np
import pytest

from ddestab.ddesim import (
    BoundsResult,
    F1_sim,
    F_sim,
    History,
    IntegrationDiverged,
    asymptotic_bounds,
    integrate,
)
from ddestab.onedmaps import F1_solve, F_solve, interval_I
from ddestab.params import NormLanes, NormParams, ParamSet


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


def test_divergence_guard():
    p = ParamSet(a=-1.0, delta=1.0, h=1.0)
    with pytest.raises(IntegrationDiverged) as exc:
        integrate(lambda x: x * x, History.constant(6.0), p, 20.0)
    assert exc.value.t >= 0.0


def test_norm_params_accepted(np_core):
    tr = integrate(lambda x: np_core.a * x, History.constant(0.2), np_core, 3.0)
    assert tr.h == pytest.approx(np_core.delay)
    assert tr.delta == 1.0


def test_trajectory_export(tmp_path):
    p = ParamSet(a=-1.0, delta=1.0, h=1.0)
    tr = integrate(lambda x: 0.0 * x, History.constant(1.0), p, 1.0)
    out = tmp_path / "traj.csv"
    tr.export_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x"
    assert len(lines) == len(tr.values) + 1


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


def _lane_setup():
    # five lanes: own delay, history value and horizon; horizons end mid-segment
    a = np.array([-1.5, -2.0, -3.0, -1.2, -4.0])
    theta = np.array([0.9, 0.7, 0.5, 0.35, 0.8])
    z = np.array([0.3, -0.4, 1.7, 0.05, 2.5])
    lanes = NormLanes(a=a, theta=theta)
    T = lanes.delay * np.array([0.6, 2.3, 4.75, 1.0, 3.1])
    return a, theta, z, lanes, T


def test_lanes_equal_scalar_runs():
    a, theta, z, lanes, T = _lane_setup()
    tr = integrate(lambda x: a * x / (1.0 + x), History.constant(z), lanes, T)
    assert tr.values.shape[1] == len(T)
    for j in range(len(T)):
        one = integrate(
            lambda x: a[j] * x / (1.0 + x),
            History.constant(float(z[j])),
            NormParams(a=float(a[j]), theta=float(theta[j])),
            float(T[j]),
        )
        assert one.step == tr.step[j] and one.h == tr.h[j]
        col = tr.values[: len(one.values), j]
        assert col.tobytes() == one.values.tobytes()


def test_lane_past_its_horizon_never_raises():
    _a, _theta, z, lanes, T = _lane_setup()
    # lane 0 blows up within a few delays, but its horizon ends first; the
    # other lanes decay, and the lockstep run continues to their horizons
    b = np.array([1e100, 0.5, 0.5, 0.5, 0.5])
    T = T.copy()
    T[0] = 1.5 * lanes.delay[0]
    tr = integrate(lambda x: b * x, History.constant(z), lanes, T)
    assert not np.isfinite(tr.values[:, 0]).all()
    one = integrate(
        lambda x: 1e100 * x, History.constant(float(z[0])), NormParams(a=-1.5, theta=0.9), float(T[0])
    )
    assert tr.values[: len(one.values), 0].tobytes() == one.values.tobytes()
    # within its horizon the same lane still raises
    T[0] = T.max()
    with pytest.raises(IntegrationDiverged):
        integrate(lambda x: b * x, History.constant(z), lanes, T)
