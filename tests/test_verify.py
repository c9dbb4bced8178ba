"""Grid verification engine: registry, sweeps, reports, certificates, figures."""

import json
import math

import numpy as np
import pytest

from ddestab.params import NormParams, Region, classify, sharp_boundary_theta
from ddestab.verify import (
    _REGISTRY,
    LEMMA_IDS,
    Certificate,
    Fact,
    LemmaReport,
    _r303_endpoint_margin,
    certificate,
    sweep_figures,
    verify_all,
    verify_lemma,
    write_report,
)

EXPECTED_IDS = [
    "albet",
    "albeta",
    "dom",
    "jcal_tangent",
    "jcal_concavity",
    "leform1",
    "plyus",
    "leform2",
    "lele",
    "leleka",
    "funcrr2",
    "lele2",
    "expo_bounds",
    "r303",
    "gsslemma_schwarz",
]

# sweep resolutions kept small for test runtime; the acceptance run
# re-sweeps everything at the full resolution
SMOKE_RES = {"funcrr2": 4, "gsslemma_schwarz": 4}


def test_registry_ids_and_order():
    assert LEMMA_IDS == EXPECTED_IDS


def test_unknown_lemma_id_rejected():
    with pytest.raises(KeyError):
        verify_lemma("no_such_check")


def test_tiny_resolution_rejected():
    with pytest.raises(ValueError):
        verify_lemma("albet", resolution=2)


@pytest.mark.parametrize("lemma_id", EXPECTED_IDS)
def test_smoke_sweep_clean(lemma_id):
    res = SMOKE_RES.get(lemma_id, 8)
    rep = verify_lemma(lemma_id, resolution=res)
    assert rep.lemma_id == lemma_id
    assert rep.resolution == res
    assert rep.grid_spec
    assert rep.points_checked > 0
    assert rep.violations == []
    assert rep.min_margin > 0.0
    assert math.isfinite(rep.min_margin)


def test_band_grid_nesting():
    # doubling the resolution keeps every coarse node (power-of-two steps
    # divide exactly), so refinement only ever adds points
    for lemma_id in ("albet", "albeta", "lele"):
        gen = _REGISTRY[lemma_id].gen
        coarse = {(p["a"], p["theta"]) for p in gen(8)[1]}
        fine = {(p["a"], p["theta"]) for p in gen(16)[1]}
        assert coarse <= fine


def test_slope_product_sweep_triggers_refined_arithmetic():
    # near the lower band edge the float margin drops under the recheck
    # threshold, so this resolution exercises the refined-arithmetic path
    rep = verify_lemma("albeta", resolution=64)
    assert rep.violations == []
    assert 0.0 < rep.min_margin < 1e-5


def test_log_vs_cubic_endpoint_override():
    rep = verify_lemma("r303", resolution=8)
    endpoint = _r303_endpoint_margin()
    assert rep.min_margin == pytest.approx(endpoint, rel=1e-12)
    assert endpoint == pytest.approx(5.644868579024423e-5, abs=1e-12)


def test_parallel_sweep_matches_serial():
    serial = verify_lemma("albet", resolution=24, threads=1)
    parallel = verify_lemma("albet", resolution=24, threads=2)
    assert parallel.points_checked == serial.points_checked
    assert parallel.min_margin == serial.min_margin
    assert parallel.violations == serial.violations


def test_report_json_schema(tmp_path):
    rep = verify_lemma("expo_bounds", resolution=8)
    path = write_report(rep, tmp_path)
    text = open(path).read()
    assert text.endswith("\n")
    data = json.loads(text)
    assert set(data) == {
        "lemma_id",
        "resolution",
        "grid_spec",
        "points",
        "violations",
        "min_margin",
    }
    assert data["lemma_id"] == "expo_bounds"
    assert data["points"] == rep.points_checked
    assert data["violations"] == []


def test_report_serializes_violations():
    rep = LemmaReport(
        lemma_id="demo",
        resolution=4,
        grid_spec="demo grid",
        points_checked=1,
        violations=[{"a": -2.0, "theta": 0.4, "label": "demo", "margin": -1.0}],
        min_margin=-1.0,
    )
    d = rep.to_json_dict()
    assert d["violations"][0]["label"] == "demo"
    assert d["min_margin"] == -1.0


def test_verify_all_writes_one_report_each(tmp_path):
    lines = []
    reports = verify_all(resolution=4, out_dir=tmp_path, progress=lines.append)
    assert [r.lemma_id for r in reports] == EXPECTED_IDS
    for lemma_id in EXPECTED_IDS:
        assert (tmp_path / f"{lemma_id}.json").exists()
    assert len(lines) == len(EXPECTED_IDS)
    assert all("violations=0" in ln for ln in lines)


# ---------------------------------------------------------------------------
# certificates


def test_certificate_core(np_core):
    cert = certificate(np_core)
    assert cert.ok
    assert cert.region.tag is Region.CORE
    assert cert.failure is None
    names = [f.name for f in cert.chain]
    assert "sharp_criterion_margin" in names
    assert "slope_product" in names
    assert all(f.ok for f in cert.chain)


def test_certificate_linear(np_linear):
    cert = certificate(np_linear)
    assert cert.ok
    assert cert.region.tag is Region.LINEAR
    names = [f.name for f in cert.chain]
    assert "straightened_slope" in names
    assert "straightened_schwarz_margin_min" in names


def test_certificate_sector(np_sector):
    cert = certificate(np_sector)
    assert cert.ok
    assert cert.region.tag is Region.SECTOR
    names = [f.name for f in cert.chain]
    assert "corner_above_minus_one" in names
    assert "corner_image_in_domain" in names


def test_certificate_not_certified():
    np_ = NormParams(a=-2.0, theta=0.2)
    assert classify(np_).tag is Region.NOT_CERTIFIED
    cert = certificate(np_)
    assert not cert.ok
    assert cert.chain == []
    assert cert.failure is not None
    assert cert.failure.name == "sharp_criterion_margin"
    assert not cert.failure.ok


def test_sharp_criterion_fact_agrees_with_classify():
    # a few ulps above the boundary the criterion fact must follow the same
    # boundary expression classify compares, not a digit-losing variant
    for a in np.linspace(-1.05, -20.0, 200):
        theta = sharp_boundary_theta(float(a))
        for _ in range(4):
            theta = math.nextafter(theta, 1.0)
            np_ = NormParams(a=float(a), theta=theta)
            cert = certificate(np_)
            fact = cert.chain[0] if cert.chain else cert.failure
            assert fact.name == "sharp_criterion_margin"
            assert fact.ok == classify(np_).certified, (a, theta, fact.value)


def test_certificate_point_recorded(np_core):
    cert = certificate(np_core)
    assert cert.point == (np_core.a, np_core.theta)
    assert isinstance(cert.chain[0], Fact)
    assert isinstance(cert, Certificate)


# ---------------------------------------------------------------------------
# figure sweeps


def test_sweep_figures_smoke(tmp_path):
    paths = sweep_figures(tmp_path, n_c=60, n_mu=19, raster=40)
    for key in ("fig1", "fig2_curves", "boundaries", "fig2_raster"):
        assert key in paths

    fig1 = open(paths["fig1"]).read().splitlines()
    assert fig1[0] == "c,theta_global,theta_local"
    assert len(fig1) == 61
    first = fig1[1].split(",")
    assert float(first[0]) == pytest.approx(0.02)
    assert float(first[1]) == 0.0  # below unit slope nothing is required

    curves = open(paths["fig2_curves"]).read().splitlines()
    assert curves[0] == "mu,theta_pi1,theta_pi2,theta_pi3,theta_local"
    assert len(curves) == 20

    bounds = json.loads(open(paths["boundaries"]).read())
    assert isinstance(bounds, dict)

    raster = open(paths["fig2_raster"]).read().splitlines()
    assert raster[0] == "theta,mu,label"
    labels = {row.split(",")[2] for row in raster[1:]}
    valid = {r.value for r in Region}
    assert labels <= valid
    # all certification outcomes occur somewhere on the square
    assert labels == valid
