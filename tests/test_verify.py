"""Grid verification engine: registry, sweeps, reports, certificates, figures."""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from ddestab import verify
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
        coarse, fine = gen(8)[1], gen(16)[1]
        assert set(zip(coarse["a"].tolist(), coarse["theta"].tolist())) <= set(
            zip(fine["a"].tolist(), fine["theta"].tolist())
        )


# SHA-256 over each grid's columns (name, a NUL byte, then the float64
# bytes, column by column); frozen from the list-of-points grids the
# columns replaced, so any change to a node or its order shows here
GRID_DIGESTS = {
    ("albet", 8): "e7ef94d9d9301c5bc8821d85480b1405353acabb70965576e9459c2643d6c493",
    ("albet", 64): "2a6fb359a4ab44fc3bd875995d9b0e65303ddde7377fa4e9e905368f7cb8db13",
    ("albet", 256): "8f09e50c290f799c78c902717690fa87e89040ed8cc0445f451bd36ca3e50e64",
    ("albeta", 8): "9de63b24fec403b34f23de059a87aefe22bdb3e4a7341adb5f89fcc2b81d2c36",
    ("albeta", 64): "1963659ffd965cf02ff238337a80cc6a7d48d1d7dcdf3c01240896411aec9abe",
    ("albeta", 256): "d5e01c68e681aada05aa675323bf95019ec0ef2e93ec2c251f6977721d351d77",
    ("dom", 8): "e7ef94d9d9301c5bc8821d85480b1405353acabb70965576e9459c2643d6c493",
    ("dom", 64): "2a6fb359a4ab44fc3bd875995d9b0e65303ddde7377fa4e9e905368f7cb8db13",
    ("dom", 256): "8f09e50c290f799c78c902717690fa87e89040ed8cc0445f451bd36ca3e50e64",
    ("jcal_tangent", 8): "6993ce7802b9c8a51b8cb3c7979b9ae9dadb2db7cb829a09e34b6a10ab24173f",
    ("jcal_tangent", 64): "45c9250b009a9f9ce1e84b251384df0c45a377cd8a835b5e43091ea2520c2f55",
    ("jcal_tangent", 256): "b2a9c20b1cb88c00d1c620993b313b734e658d5ca4f195fd41d6c7a40298e0cd",
    ("jcal_concavity", 8): "42e49995569da493dbaa53a568d8e945981457b2929611020cfc8fb151c36bd9",
    ("jcal_concavity", 64): "2d919fcf19abcd722da14608deb183d7d53179f8147bed0058f344299c65a1a9",
    ("jcal_concavity", 256): "6d1ab275102f4c296837f42fe03491bb9de8b49fe82fc84450295ad6fd5da3b2",
    ("leform1", 8): "0b27554ac2005943703af202718cb2ac209000bba45973b33e2e61292202ec85",
    ("leform1", 64): "b38ddc70986e654369b0a19398f8887802cebb438d25e96420ff4e2d0728ca8f",
    ("leform1", 256): "20b266c752b70724ac44cb3d27b814bbfcf1772364fe0538b2541ae82edf4c57",
    ("plyus", 8): "d67c30d88cfc689263ca830eb1547351b89df3088c0643bb911956740ea65975",
    ("plyus", 64): "eb3c9389226c571f0a0251697df0954d824bc6f7222c3ae50e94e1939ba21e57",
    ("plyus", 256): "0b62cd4ccdf6aeab74d923aee3e65f6421c799c3527949f6d9945a138c19ceeb",
    ("leform2", 8): "a99d49be321fa4da2d4cb24baf700e6feb660be71fb38530bca239dac94334f7",
    ("leform2", 64): "2c4073a4022cc6a0fc6c2405386b63e34d9d425c0766592100968d8fb377cc8c",
    ("leform2", 256): "57a75d357728a15c714bf34912aa547a3e6bbf7b3452d8b6ef3574212d891f47",
    ("lele", 8): "01ec0d44a72a48128f4b28b7a178f4dc83fed9de7dad9454668a421f6ea96836",
    ("lele", 64): "a16c2c04cfa86d9828e39d2717afc36fa80d1cfc76f4102bb810992a1a33ae12",
    ("lele", 256): "f385f844b647ad7b1730807c7bda039957a5cf7ac4fc5dfb19290c023145f938",
    ("leleka", 8): "f79f0a131942435834447096eb82f2f3225814f24c3380773bb49e8d862e1084",
    ("leleka", 64): "40b2ac110771836b965af7aab34ee4c56788cdd6ac9f00dd219f43b6ef935b5b",
    ("leleka", 256): "bf120fd79e2798abe856a3f3d13654e18e39e1346490785636b05f2674daec0a",
    ("funcrr2", 8): "34ff9cf48a567fb60cbc116d33e8ba6ae42d41435ac82c88b39c33e265dbcbe5",
    ("funcrr2", 64): "ffb64a6ef38f6caeb746fabbb6c0cd261bf8ac870f807bb979e50180253d8f54",
    ("funcrr2", 256): "67d555dd2570611f279d64c92708c8e2a3b7ea50086dd1bd8f419ca2812eeb99",
    ("lele2", 8): "7630170c30f0b345e0bae1dc0c7bffb66998ef4cbd5d92931dcaed238f59a02f",
    ("lele2", 64): "000e99e9868d876197eb793eb542e6b8d4b2d5d956caba214cd25e0ef69ed6fa",
    ("lele2", 256): "34b9f74d67785f4296c661e8887e92b66b9bd913563c11ca85fb53147a8498bf",
    ("expo_bounds", 8): "54220f784e8075fd00450c0affa89e92e06a6781b28ed8c2d1e7c30f0a34f93d",
    ("expo_bounds", 64): "63fe4650b0ed06f6c864c3445c3826bc12be35ddd4c396378233a1ff0dccb40e",
    ("expo_bounds", 256): "c0aa2eef2959182ce61f73d16c90dc436781286228f763504606413cb3932c27",
    ("r303", 8): "a539956c299d510b744dac203e7db352e3ceeeaf9d2615ab56be42877b3d202a",
    ("r303", 64): "72b1acee87b1a2611e6082b23fe82259bd6de3b89e008a22f4398d7c4b111452",
    ("r303", 256): "bcbacab7d53950420babb219170eb568f030725bec03a0f84c75962f28ff284f",
    ("gsslemma_schwarz", 8): "7a9a381069c2ff778d2437b49178beba2462537752dc877d3c6f1f964e2c2784",
    ("gsslemma_schwarz", 64): "ba6bf6de278cc60cd479f929093762298ebc563c5d9d81d203b19db1f7ee905d",
    ("gsslemma_schwarz", 256): "6ebcdcd91f580f2ee847dde6924aa1faed82c0d4b08539223d620d65b0af232a",
}


@pytest.mark.parametrize("lemma_id,n", list(GRID_DIGESTS))
def test_grid_columns_frozen(lemma_id, n):
    grid_spec, grid = _REGISTRY[lemma_id].gen(n)
    assert isinstance(grid_spec, str)
    assert len({len(col) for col in grid.values()}) == 1
    h = hashlib.sha256()
    for name, col in grid.items():
        assert isinstance(col, np.ndarray) and col.dtype == np.float64 and col.ndim == 1
        h.update(name.encode() + b"\0")
        h.update(col.tobytes())
    assert h.hexdigest() == GRID_DIGESTS[(lemma_id, n)]


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


# leleka's chunks cut through one (a, theta) row's r axis, whose first node
# carries the chain margins; leform2 and funcrr2 take the column path, and
# their chunks cut through the bases they solve and integrate per block
@pytest.mark.parametrize("lemma_id", ["albet", "leleka", "leform2", "funcrr2"])
def test_parallel_sweep_matches_serial(lemma_id):
    serial = verify_lemma(lemma_id, resolution=24, threads=1)
    parallel = verify_lemma(lemma_id, resolution=24, threads=2)
    assert parallel.points_checked == serial.points_checked
    assert parallel.min_margin == serial.min_margin
    assert parallel.violations == serial.violations


def _row_loop(grid, cols):
    # the row loop's rules, as the double-double checks still apply them
    violations, min_margin = [], math.inf
    for i in range(len(grid["r"])):
        pt = {k: float(v[i]) for k, v in grid.items()}
        for label, col in cols:
            mf = float(col[i])
            if mf < min_margin:
                min_margin = mf
            if mf < 0.0:
                violations.append({**pt, "label": label, "margin": mf})
    return violations, min_margin


@pytest.mark.parametrize(
    "first, second",
    [
        # the smallest margin is a zero, +0.0 before -0.0 in row order
        ([math.nan, 0.0, 1.0, -0.0], [5.0, -0.0, math.nan, 2.0]),
        # violations in both labels, interleaved by row
        ([1.0, -2.0, math.nan, -0.5], [-1.0, 3.0, -4.0, -0.5]),
        # nothing but NaN: min_margin stays infinite
        ([math.nan] * 4, [math.nan] * 4),
    ],
)
def test_column_path_matches_row_loop(first, second):
    grid = {
        "a": np.array([-2.0, -2.0, -3.0, -3.0]),
        "theta": np.array([0.4, 0.4, 0.5, 0.5]),
        "r": np.array([-0.1, -0.2, -0.3, -0.4]),
    }
    cols = [("first", np.array(first)), ("second", np.array(second))]
    spec = dataclasses.replace(_REGISTRY["leform2"], margins=lambda g: cols)
    violations, min_margin = verify._eval_columns(spec, grid)
    ref_violations, ref_min = _row_loop(grid, cols)
    assert violations == ref_violations
    assert min_margin == ref_min
    assert math.copysign(1.0, min_margin) == math.copysign(1.0, ref_min)


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
    paths = sweep_figures(tmp_path, n_mu=19, raster=40)
    for key in ("fig1", "fig2_curves", "boundaries", "fig2_raster"):
        assert key in paths

    fig1 = open(paths["fig1"]).read().splitlines()
    assert fig1[0] == "c,theta_global,theta_local"
    assert len(fig1) == 501
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
