import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ddestab.params import (
    MU_SECTOR_MAX,
    NormParams,
    ParamSet,
    Region,
    classify,
    classify_raster,
    criterion_norm,
    linear_boundary_theta,
    linear_criterion,
    local_stability_boundary,
    normalize,
    pi_curve,
    region_boundary_rows,
    sharp_boundary_theta,
    write_region_csv,
    write_region_json,
    _table_text,
)

# frozen reference values (40-digit arithmetic, rounded to float)
SHARP_AT_MINUS_2 = 0.36464311358790925
LOCAL_THETA_AT_MINUS_2 = 0.29843605919227489
LOCAL_H_AT_MINUS_2 = 1.2091995761561452
PI1_AT_01 = 0.89108910891089109
PI2_AT_01 = 0.85359848951156777
PI3_AT_01 = 0.86358974358974359


def test_param_validation():
    with pytest.raises(ValueError):
        ParamSet(a=1.0, delta=1.0, h=1.0)
    with pytest.raises(ValueError):
        ParamSet(a=-2.0, delta=0.0, h=1.0)
    with pytest.raises(ValueError):
        ParamSet(a=-2.0, delta=1.0, h=-1.0)
    with pytest.raises(ValueError):
        NormParams(a=-2.0, theta=1.5)
    with pytest.raises(ValueError):
        NormParams(a=0.5, theta=0.5)


def test_normalize_roundtrip_values():
    p = ParamSet(a=-3.0, delta=1.5, h=0.4)
    np_ = normalize(p)
    assert np_.a == pytest.approx(-2.0)
    assert np_.theta == pytest.approx(math.exp(-0.6))
    assert np_.mu() == pytest.approx(0.5)
    assert np_.delay == pytest.approx(0.6)


# an oracle for the tests below, the criterion written directly in raw
# parameters; the package itself uses criterion_norm
def criterion_delta(a: float, delta: float, h: float) -> bool:
    """Sharp delay criterion in raw parameters.

    True when (-delta/a) * exp(-h*delta) exceeds
    log((a^2 - a*delta) / (delta^2 + a^2)).
    """
    if not (delta > 0.0 and h > 0.0 and a < 0.0):
        raise ValueError("need a < 0, delta > 0, h > 0")
    lhs = (-delta / a) * math.exp(-h * delta)
    rhs = math.log((a * a - a * delta) / (delta * delta + a * a))
    return lhs > rhs


def test_criterion_matches_between_coordinates():
    for a, delta, h in [(-2.0, 1.0, 0.5), (-3.0, 0.7, 1.0), (-1.2, 2.0, 0.3), (-8.0, 1.0, 0.1)]:
        raw = criterion_delta(a, delta, h)
        nrm = criterion_norm(normalize(ParamSet(a=a, delta=delta, h=h)))
        assert raw == nrm


def test_sharp_boundary_value():
    assert sharp_boundary_theta(-2.0) == pytest.approx(SHARP_AT_MINUS_2, abs=2e-16)


def test_sharp_boundary_unconditional_branch():
    # slopes in [-1, 0) never exceed the threshold: every theta certified
    assert sharp_boundary_theta(-1.0) == 0.0
    assert sharp_boundary_theta(-0.5) < 0.0


def test_criterion_iff_threshold():
    for a in (-1.5, -2.0, -5.0, -20.0):
        thr = sharp_boundary_theta(a)
        assert criterion_norm(NormParams(a=a, theta=min(1.0 - 1e-9, thr + 1e-6)))
        assert not criterion_norm(NormParams(a=a, theta=thr - 1e-6))


def test_linear_criterion_iff_threshold():
    for a in (-1.5, -2.0, -5.0, -20.0):
        thr = linear_boundary_theta(a)
        assert linear_criterion(NormParams(a=a, theta=min(1.0 - 1e-9, thr + 1e-6)))
        assert not linear_criterion(NormParams(a=a, theta=thr - 1e-6))


def test_linear_boundary_matches_pi1():
    # the linear threshold against slope equals the upper band curve against mu
    for a in (-1.5, -2.0, -4.0, -10.0):
        mu = -1.0 / a
        assert linear_boundary_theta(a) == pytest.approx(pi_curve(1, mu), rel=1e-14)


def test_sharp_boundary_matches_pi2():
    for a in (-1.5, -2.0, -4.0, -10.0):
        mu = -1.0 / a
        assert sharp_boundary_theta(a) == pytest.approx(pi_curve(2, mu), rel=1e-13)


def test_pi_curves_frozen_values():
    assert pi_curve(1, 0.1) == pytest.approx(PI1_AT_01, abs=2e-16)
    assert pi_curve(2, 0.1) == pytest.approx(PI2_AT_01, abs=2e-16)
    assert pi_curve(3, 0.1) == pytest.approx(PI3_AT_01, abs=2e-16)


def test_pi_curve_domain():
    with pytest.raises(ValueError):
        pi_curve(1, 0.0)
    with pytest.raises(ValueError):
        pi_curve(1, 1.5)
    with pytest.raises(ValueError):
        pi_curve(4, 0.5)


@given(mu=st.floats(1e-3, 1.0 - 1e-3))
def test_band_is_nonempty(mu):
    assert pi_curve(1, mu) > pi_curve(2, mu)


def test_mu_sector_max_is_curve_crossing():
    # curve 1 meets the 0.8 floor exactly at the corner cut-off
    assert pi_curve(1, MU_SECTOR_MAX) == pytest.approx(0.8, abs=1e-15)


def test_classify_regions():
    assert classify(NormParams(a=-2.0, theta=0.5)).tag is Region.LINEAR
    assert classify(NormParams(a=-2.0, theta=0.39)).tag is Region.CORE
    assert classify(NormParams(a=-10.0, theta=0.88)).tag is Region.SECTOR
    lab = classify(NormParams(a=-2.0, theta=0.3))
    assert lab.tag is Region.NOT_CERTIFIED
    assert not lab.certified
    assert lab.reason


def test_classify_certified_flag():
    assert classify(NormParams(a=-2.0, theta=0.5)).certified
    assert classify(NormParams(a=-2.0, theta=0.39)).certified


def test_classify_boundary_theta_is_rejected():
    # the criterion is strict: theta exactly on the curve is not certified
    a = -2.0
    thr = sharp_boundary_theta(a)
    assert classify(NormParams(a=a, theta=thr)).tag is Region.NOT_CERTIFIED


def test_classify_near_one_slope():
    # normalized slopes in (-1, 0) are certified for every theta
    lab = classify(NormParams(a=-0.9, theta=0.05))
    assert lab.certified


def _raster_agrees(slopes, thetas):
    raster = classify_raster(np.array(slopes), np.array(thetas))
    assert raster.shape == (len(thetas), len(slopes)) and raster.dtype == np.int8
    tags = [[tuple(Region)[k] for k in row] for row in raster.tolist()]
    return tags == [[classify(NormParams(a=a, theta=t)).tag for a in slopes] for t in thetas]


def test_classify_column_matches_classify_on_raster():
    # the region figure's 200 x 200 cells: every column of classify_raster
    centres = [(k + 0.5) / 200 for k in range(200)]
    assert _raster_agrees([-1.0 / mu for mu in centres], centres)


_BOUNDARY_MUS = [0.02, 0.1, 0.13, 0.16, math.nextafter(MU_SECTOR_MAX, 0.0), MU_SECTOR_MAX,
                 math.nextafter(MU_SECTOR_MAX, 1.0), 0.4, 0.7, 0.95, 1.0]


def _boundary_thetas(mu):
    # each boundary theta and its neighbours one ulp below and above
    edges = [pi_curve(2, mu), pi_curve(1, mu), pi_curve(3, mu), 0.8]
    return sorted(
        t
        for e in edges
        for t in (math.nextafter(e, 0.0), e, math.nextafter(e, 1.0))
        if 0.0 < t < 1.0
    )


@pytest.mark.parametrize("mu", _BOUNDARY_MUS)
def test_classify_column_matches_classify_at_boundaries(mu):
    # one classify_raster column; mu = 1 is the slope -1, where the chord ends
    assert _raster_agrees([-1.0 / mu], _boundary_thetas(mu))


def test_classify_raster_mixes_slopes_across_the_guard():
    # columns on both sides of slope -1 share one raster and every theta;
    # at or above -1 there is no chord, and every certified cell is linear
    slopes = [-1.0 / mu for mu in _BOUNDARY_MUS] + [-0.5, -1e-20]
    thetas = sorted({t for mu in _BOUNDARY_MUS for t in _boundary_thetas(mu)})
    assert _raster_agrees(slopes, thetas)


@pytest.mark.parametrize("a", [-1e154, -1.35e154, -1e155, -1e308])
def test_thresholds_where_the_slope_squared_overflows(a):
    # a*a overflows below about -1.34e154; both thresholds stay within an
    # ulp of 1 and neither criterion holds at any theta < 1
    assert sharp_boundary_theta(a) == pytest.approx(1.0, abs=2.3e-16)
    assert linear_boundary_theta(a) == 1.0
    np_ = NormParams(a=a, theta=math.nextafter(1.0, 0.0))
    assert not criterion_norm(np_) and not linear_criterion(np_)


def test_local_boundary_values():
    assert local_stability_boundary(-2.0) == pytest.approx(LOCAL_THETA_AT_MINUS_2, abs=1e-14)
    assert -math.log(local_stability_boundary(-2.0)) == pytest.approx(
        LOCAL_H_AT_MINUS_2, abs=1e-13
    )


def test_local_boundary_hayes_limit():
    # steep feedback: the critical delay times the slope tends to pi/2
    a = -1e4
    h_loc = -math.log(local_stability_boundary(a))
    assert h_loc * (-a) == pytest.approx(math.pi / 2.0, abs=2e-4)


def _local_boundary_mpmath(a: float) -> float:
    """exp(-h) at the Hayes crossing cos(s) = 1/a, h = s/(-a sin s), in 40 digits."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(40):
        s = mp.acos(1 / mp.mpf(a))
        return float(mp.exp(s / (mp.mpf(a) * mp.sin(s))))


def test_local_boundary_matches_mpmath_at_region_slopes():
    # every slope region writes a theta_local for: fig1's c in (1, 10] and
    # the 199 mu samples of fig2_curves.csv / boundaries.json
    fig1 = [-0.02 * i for i in range(1, 501) if 0.02 * i > 1.0]
    fig2 = [-1.0 / (i / 200) for i in range(1, 200)]
    assert len(fig1) == 450
    worst = 0.0
    for a in fig1 + fig2:
        ref = _local_boundary_mpmath(a)
        worst = max(worst, abs(local_stability_boundary(a) - ref) / ref)
    assert worst <= 1e-13


def test_global_below_local():
    # the certified threshold can only be more conservative than the linearized one
    for a in (-1.5, -2.0, -5.0, -50.0):
        assert sharp_boundary_theta(a) > local_stability_boundary(a)


def test_region_rows_and_files(tmp_path):
    mus = [0.1, 0.5, 0.9]
    rows = region_boundary_rows(mus)
    assert [r["mu"] for r in rows] == mus
    assert rows[0]["theta_pi1"] == pytest.approx(PI1_AT_01)

    csv_path = tmp_path / "region.csv"
    write_region_csv(csv_path, rows)
    text = csv_path.read_text().splitlines()
    assert text[0] == "mu,theta_pi1,theta_pi2,theta_pi3,theta_local"
    assert len(text) == 4

    json_path = tmp_path / "region.json"
    write_region_json(json_path, rows)
    data = json.loads(json_path.read_text())
    assert len(data["rows"]) == 3


def _region_json_reference(rows) -> bytes:
    payload = {"fields": ["mu", "theta_pi1", "theta_pi2", "theta_pi3", "theta_local"], "rows": rows}
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("n_mu", [1, 2, 9, 500])
def test_region_json_is_json_dumps(tmp_path, n_mu):
    # the template writer gives json.dumps' bytes
    rows = region_boundary_rows([i / (n_mu + 1) for i in range(1, n_mu + 1)])
    path = tmp_path / "b.json"
    write_region_json(path, rows)
    assert path.read_bytes() == _region_json_reference(rows)


@pytest.mark.parametrize("odd", [math.nan, math.inf, np.float64(0.25), 1])
def test_region_json_is_json_dumps_for_other_values(tmp_path, odd):
    # a value that is not a finite Python float, and no rows at all, go
    # through json.dumps itself
    rows = region_boundary_rows([0.2, 0.5, 0.7])
    rows[1]["theta_pi2"] = odd
    for case in (rows, []):
        path = tmp_path / "b.json"
        write_region_json(path, case)
        assert path.read_bytes() == _region_json_reference(case)


def test_region_files_deterministic(tmp_path):
    mus = [i / 17 for i in range(1, 17)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_region_csv(p1, region_boundary_rows(mus))
    write_region_csv(p2, region_boundary_rows(mus))
    assert p1.read_bytes() == p2.read_bytes()


def _table_rows(header, cols, eol):
    """The per-row form _table_text replaces: one "%.12g" join per line, as
    ASCII bytes."""
    lines = [",".join(header)] + [",".join("%.12g" % v for v in row) for row in zip(*cols)]
    return "".join(line + eol for line in lines).encode("ascii")


cells = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 5e-324, -2.5e-310, 1e300, -1e300, math.inf, -math.inf, math.nan]
)


@st.composite
def tables(draw):
    k, rows = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    header = [f"c{j}" for j in range(k)]
    return header, [draw(st.lists(cells, min_size=rows, max_size=rows)) for _ in range(k)]


@given(table=tables(), eol=st.sampled_from(["\n", "\r\n"]))
def test_table_text_equals_per_row_join(table, eol):
    header, cols = table
    assert _table_text(header, cols, eol) == _table_rows(header, cols, eol)
    arrays = [np.array(col) for col in cols]
    assert _table_text(header, arrays, eol) == _table_rows(header, cols, eol)


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_table_text_edge_cells(eol):
    col = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e300]
    assert _table_text(["x"], [col], eol) == eol.join(
        ["x", "nan", "inf", "-inf", "-0", "4.94065645841e-324", "2.22507385851e-308",
         "1e+300", "-1e+300", ""]
    ).encode("ascii")
    assert _table_text(["a", "b"], [[1.5], [-0.0]], eol) == f"a,b{eol}1.5,-0{eol}".encode("ascii")
