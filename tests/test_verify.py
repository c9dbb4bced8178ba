"""Grid verification engine: registry, sweeps, reports, certificates, figures."""

import dataclasses
import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from ddestab import onedmaps, rootfind, verify
from ddestab.ddesim import LaneDips
from ddestab.ddouble import DOUBLE_DOUBLE, FLOAT
from ddestab.models import NicholsonParams, nicholson_global
from ddestab.cli import main
from ddestab.onedmaps import F_solve_r, q_poly_generic
from ddestab.params import (
    NormLanes,
    NormParams,
    Region,
    classify,
    classify_raster,
    pi_curve,
    sharp_boundary_theta,
    sharp_criterion_margin,
)
from ddestab.ratmaps import R_eval, coeffs, coeffs_generic, schwarz_margin
from ddestab.verify import (
    _REGISTRY,
    LEMMA_IDS,
    Certificate,
    Fact,
    LemmaReport,
    _SCHWARZ_SAMPLES,
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
    ("lele2", 8): "39e75984d38c29b381250b8fc4188aa284245860625843a25f17dbc220241498",
    ("lele2", 64): "d2295ab2f6991d9929f563427252bad9df55d073d981a63108edad01f6a06b13",
    ("lele2", 256): "5759f21c738c81f4f8ccb831c85ace85bb8f5f8a759e624a2fb9f0a4a715fc82",
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
    # a product grid's base column gathers its base table back to the
    # point columns, bitwise, and lists the rows base by base
    base = getattr(grid, "base", None)
    if base is None:  # a plain axis is its own base table
        assert lemma_id in ("expo_bounds", "r303")
        return
    assert base.dtype == np.int64 and np.all(np.diff(base) >= 0)
    assert grid.table and set(grid.table) <= set(grid)
    for name, col in grid.table.items():
        assert col[base].tobytes() == grid[name].tobytes(), name
    assert np.unique(base).size == verify._row_count(grid.table)
    # a block of rows, cut at any row, keeps the part of the table it uses
    rows = verify._row_count(grid)
    for start in (0, 1, rows // 3, rows - 700):
        block = verify._cut(grid, slice(max(start, 0), max(start, 0) + 700))
        assert block.base[0] == 0 and np.unique(block.base).size == verify._row_count(block.table)
        for name, col in block.table.items():
            assert col[block.base].tobytes() == block[name].tobytes(), name


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


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: verify_lemma reports the q = -0.2 endpoint (5.64e-5), "
    "not the grid minimum (3.17e-11)",
)
def test_r303_min_margin_is_its_grid_minimum():
    spec = verify._REGISTRY["r303"]
    _, grid_min = verify._eval_columns(spec, spec.gen(256)[1])
    assert verify_lemma("r303", resolution=256).min_margin == grid_min


# rows each double-double check sends to the recheck at resolution 256,
# counted from the per-point loop the column path replaced
DD_RECHECK_ROWS = {
    "albet": 0,
    "albeta": 98,
    "dom": 0,
    "jcal_tangent": 28,
    "lele": 514,
    "leleka": 0,
    "lele2": 0,
    "expo_bounds": 1,
    "r303": 32,
    "gsslemma_schwarz": 12139,
}


def _counting_dd(monkeypatch, lemma_id):
    """Wrap a check's margins; the returned list collects each double-double
    call's grid."""
    spec = _REGISTRY[lemma_id]
    calls = []

    def margins(grid, mx, lows):
        if mx is DOUBLE_DOUBLE:
            calls.append(grid)
        return spec.margins(grid, mx, lows)

    monkeypatch.setitem(_REGISTRY, lemma_id, dataclasses.replace(spec, margins=margins))
    return calls


def test_dd_capable_registry():
    dd = sorted(k for k, spec in _REGISTRY.items() if spec.dd_threshold is not None)
    assert dd == sorted(DD_RECHECK_ROWS)


@pytest.mark.parametrize("lemma_id", list(DD_RECHECK_ROWS))
def test_dd_recheck_row_counts(lemma_id, monkeypatch):
    calls = _counting_dd(monkeypatch, lemma_id)
    rep = verify_lemma(lemma_id, resolution=256)
    assert rep.violations == []
    rows = [verify._row_count(grid) for grid in calls]
    assert sum(rows) == DD_RECHECK_ROWS[lemma_id]
    assert all(n <= verify._LANE_BLOCK for n in rows)
    # one recheck per check, in passes of at most _LANE_BLOCK rows
    assert len(calls) == -(-sum(rows) // verify._LANE_BLOCK)
    if lemma_id == "gsslemma_schwarz":
        assert len(calls) == 2


# evaluations of the map identity per check at resolution 256, counted per
# lane: 2.13, 1.55 and 2.26 per row.  Most rows settle on one evaluation at
# the other bracket end and one at their probe root (onedmaps._settle_early);
# the lockstep solve of the rows left takes both end values from there
IDENTITY_EVALS = {"leform1": 156941, "plyus": 113613, "leform2": 166959}


@pytest.mark.parametrize("lemma_id", list(IDENTITY_EVALS))
def test_identity_evaluations_per_row(lemma_id, monkeypatch):
    identity = onedmaps._identity
    lanes = []

    def counted(u, *args):
        lanes.append(u.size if type(u) is np.ndarray else 1)
        return identity(u, *args)

    monkeypatch.setattr(onedmaps, "_identity", counted)
    rep = verify_lemma(lemma_id, resolution=256)
    assert rep.violations == []
    assert sum(lanes) == IDENTITY_EVALS[lemma_id]


def test_recheck_replaces_only_near_zero_labels(monkeypatch):
    # one row has a label within the threshold and one far from it; only the
    # near one may take the double-double value
    x_near = _REGISTRY["expo_bounds"].gen(8)[1]["x"][3]
    calls = []

    def margins(grid, mx, lows):
        x = grid["x"]
        if mx is DOUBLE_DOUBLE:
            calls.append(x.tolist())
            return [("near", mx.num(np.full(x.shape, -2.0))), ("far", mx.num(np.full(x.shape, -3.0)))]
        return [("near", np.where(x == x_near, 1e-9, 1.0)), ("far", np.full(x.shape, 0.5))]

    spec = dataclasses.replace(_REGISTRY["expo_bounds"], margins=margins)
    monkeypatch.setitem(_REGISTRY, "expo_bounds", spec)
    rep = verify_lemma("expo_bounds", resolution=8)
    assert calls == [[x_near]]
    assert rep.violations == [{"x": x_near, "label": "near", "margin": -2.0}]
    assert rep.min_margin == -2.0  # far would have given -3.0


# resolutions at which the point loop below stays quick; all but albet, dom,
# leleka, lele2 and jcal_concavity have double-double rechecks there
POINT_LOOP_RES = {
    "albet": 32,
    "albeta": 64,
    "dom": 32,
    "jcal_tangent": 64,
    "jcal_concavity": 32,
    "lele": 128,
    "leleka": 32,
    "lele2": 32,
    "expo_bounds": 256,
    "r303": 64,
    "gsslemma_schwarz": 16,
}


@pytest.mark.parametrize("lemma_id", list(POINT_LOOP_RES))
def test_columns_match_point_loop(lemma_id):
    # the margins, evaluated one point at a time in the scalar backends with
    # the per-point recheck rule, are the reference for the column path
    spec = _REGISTRY[lemma_id]
    _, grid = spec.gen(POINT_LOOP_RES[lemma_id])
    got = verify._margin_columns(spec, grid)
    rows = verify._row_count(grid)
    want = {label: [] for label, _ in got}
    for i in range(rows):
        pt = {k: float(v[i]) for k, v in grid.items()}
        values = [(label, FLOAT.value(m)) for label, m in spec.margins(pt, FLOAT)]
        if spec.dd_threshold is not None and any(abs(v) < spec.dd_threshold for _, v in values):
            dd_values = dict(spec.margins(pt, DOUBLE_DOUBLE))
            values = [
                (label, DOUBLE_DOUBLE.value(dd_values[label]) if abs(v) < spec.dd_threshold else v)
                for label, v in values
            ]
        for label, v in values:
            want[label].append(v)
    for label, col in got:
        assert col.tobytes() == np.array(want[label]).tobytes(), label


@pytest.mark.parametrize("mx", [FLOAT, DOUBLE_DOUBLE], ids=["float", "dd"])
def test_lele2_series_rows_match_point_loop(mx):
    # the last q row at resolution 256, q = -7.8e-4, is the one whose log
    # factor -q + log1p(q) falls below 2**-20 and takes the series: as a
    # column and one point at a time, in either backend, it gives equal bits
    spec = _REGISTRY["lele2"]
    grid = spec.gen(256)[1]
    last = grid["q"] == grid["q"].max()
    rows = {k: v[last] for k, v in grid.items()}
    q = rows["q"]
    assert len(q) == 257 and (np.abs(-q + np.log1p(q)) < 2.0**-20).all()
    cols = [mx.value(m) for _, m in spec.margins(rows, mx)]
    for i in range(len(q)):
        pt = {k: float(v[i]) for k, v in rows.items()}
        want = [float(mx.value(m)).hex() for _, m in spec.margins(pt, mx)]
        assert [float(col[i]).hex() for col in cols] == want, i


# small row blocks cut leleka's r axis, whose first node carries the chain
# margins, and the leform1, plyus, leform2 and funcrr2 bases they solve and
# integrate per block; gsslemma_schwarz and lele have double-double rechecks
# at these resolutions, whose near rows span many 64-row blocks, so a
# recheck pass crosses block edges
RECHECK_RES = {"gsslemma_schwarz": 24, "lele": 128}

# the checks that settle rows: three by their root solves, funcrr2 by its
# coarse marches
SETTLING = ("leform1", "plyus", "leform2", "funcrr2")


def _recording_solves(monkeypatch):
    """Wrap verify's response-map solves; the returned list collects each
    solve's MapSolve."""
    solves = []
    for name in ("F_solve_r", "F1_solve_r"):

        def call(*args, _solve=getattr(verify, name), **kwargs):
            solves.append(_solve(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(verify, name, call)
    return solves


def _recording_settles(monkeypatch):
    """Wrap verify's _settle_above; the returned list collects what each
    predicate call returns.  funcrr2 calls its predicate once per row block,
    on all the block's rows, so the list joins to its coarse-settled mask."""
    masks = []
    settle_above = verify._settle_above

    def recording(*args):
        settled = settle_above(*args)

        def call(*rows_lo_hi):
            masks.append(settled(*rows_lo_hi))
            return masks[-1]

        return call

    monkeypatch.setattr(verify, "_settle_above", recording)
    return masks


@pytest.mark.parametrize("lemma_id", ["albet", "leleka", *SETTLING, "gsslemma_schwarz", "lele"])
def test_row_blocks_match_one_block(lemma_id, monkeypatch):
    res = RECHECK_RES.get(lemma_id, 24)
    calls = _counting_dd(monkeypatch, lemma_id)
    solves = _recording_solves(monkeypatch)
    coarse = _recording_settles(monkeypatch) if lemma_id == "funcrr2" else []
    margin_columns = verify._margin_columns
    seen = []  # the margin columns of the current sweep

    def recording(column_spec, grid):
        seen.append(margin_columns(column_spec, grid))
        return seen[-1]

    monkeypatch.setattr(verify, "_margin_columns", recording)
    reports, columns, settled = [], [], []
    for row_block in (verify._LANE_BLOCK, 64):  # one block for the whole grid, then 64 rows
        monkeypatch.setattr(verify, "_LANE_BLOCK", row_block)
        reports.append(verify_lemma(lemma_id, resolution=res))
        assert bool(calls) == (lemma_id in RECHECK_RES)
        (pairs,) = seen
        columns.append([col for _, col in pairs])
        rows = columns[-1][0].size
        # the rows whose margins are bounds, not values: settled root solves
        # and coarse-settled lanes
        masks = [s.settled for s in solves] + coarse
        settled.append(np.concatenate(masks) if masks else np.zeros(rows, dtype=bool))
        assert settled[-1].size == rows
        calls.clear()
        seen.clear()
        solves.clear()
        coarse.clear()
    whole, blocks = reports
    assert whole.points_checked > 64
    assert blocks.points_checked == whole.points_checked
    assert blocks.violations == whole.violations
    assert blocks.min_margin.hex() == whole.min_margin.hex()
    assert settled[0].any() == (lemma_id in SETTLING)
    # every margin of a row both blockings solved to the end, not only the
    # smallest, must not depend on the blocks
    exact = ~settled[0] & ~settled[1]
    assert exact.any()
    for col, other in zip(*columns):
        assert col[exact].tobytes() == other[exact].tobytes()
    # a settled entry is at most the row's value, and one that moved lies
    # above 0 and above its label's smallest margin, so above the report's
    for ours, theirs, cut, other_cut in zip(columns, columns[::-1], settled, settled[::-1]):
        for col, other in zip(ours, theirs):
            known = cut & ~other_cut
            assert np.all(col[known] <= other[known])
            moved = cut & (col != other)
            assert np.all(col[moved] > max(np.fmin.reduce(col), 0.0))


def _probe_settles(monkeypatch):
    """Wrap verify's _settle_above, keeping its probe; the returned list
    collects the grid rows each probe enclosure settles, for blocks of
    _LANE_BLOCK rows."""
    settled_rows = []
    settle_above = verify._settle_above
    blocks = []  # the row each block's predicate starts at

    def recording(*args):
        settled = settle_above(*args)
        start = len(blocks) * verify._LANE_BLOCK
        blocks.append(start)
        probed = []

        def call(rows, lo, hi):
            done = settled(rows, lo, hi)
            if probed:  # the call after a probe offers its enclosures
                settled_rows.append(start + rows[done])
                probed.clear()
            return done

        def probe(rows, width):
            probed.append(True)
            return settled.probe(rows, width)

        call.probe = probe
        return call

    monkeypatch.setattr(verify, "_settle_above", recording)
    return settled_rows


@pytest.mark.parametrize("resolution", [16, 64])
@pytest.mark.parametrize("lemma_id", ["leform1", "plyus", "leform2"])
def test_probe_settled_entries_are_at_most_full_solves(lemma_id, resolution, monkeypatch):
    # every entry the sweep reports for a row its probe settled is at most
    # that row's margin with every root solved to the end (lows=None)
    spec = _REGISTRY[lemma_id]
    grid = spec.gen(resolution)[1]
    probed = _probe_settles(monkeypatch)
    columns = verify._margin_columns(spec, grid)
    rows = np.concatenate(probed)
    assert rows.size > {16: 1000, 64: 5000}[resolution]
    for (label, col), (_, full) in zip(columns, spec.margins(grid, FLOAT)):
        assert np.all(col[rows] <= full[rows]), label


def _never_settling(monkeypatch):
    """Make every settling solve run each row to the end: the predicate
    settles no row, and its probe root, NaN, lies inside no bracket."""

    def never(*_):
        def settled(rows, lo, hi):
            return np.zeros(rows.size, dtype=bool)

        settled.probe = lambda rows, width: np.full(rows.size, math.nan)
        return settled

    monkeypatch.setattr(verify, "_settle_above", never)


@pytest.mark.parametrize("resolution", [4, 8, 24, 64])
@pytest.mark.parametrize("lemma_id", SETTLING)
def test_settled_reports_match_full_solves(lemma_id, resolution, monkeypatch):
    # at 64 the grids take three row blocks, so earlier blocks' minima carry
    settled = verify_lemma(lemma_id, resolution=resolution)
    _never_settling(monkeypatch)
    full = verify_lemma(lemma_id, resolution=resolution)
    assert settled.to_json_dict() == full.to_json_dict()
    assert settled.min_margin.hex() == full.min_margin.hex()


@pytest.mark.parametrize(
    "lemma_id, offset, shift",
    [("leform1", "bound_L", 4e-5), ("plyus", "R_eval", -0.03), ("leform2", "R_eval", 0.03)],
)
def test_violating_rows_are_solved_to_the_end(lemma_id, offset, shift, monkeypatch):
    # shifting one offset sends about a tenth of the rows below zero; every
    # violating row's solve runs to the end, so the violations and the
    # minimum are those of solving every row so
    unshifted = getattr(verify, offset)
    monkeypatch.setattr(verify, offset, lambda *args: unshifted(*args) + shift)
    solves = _recording_solves(monkeypatch)
    settled = verify_lemma(lemma_id, resolution=24)
    flags = np.concatenate([s.settled for s in solves])
    assert flags.any() and settled.violations
    _, grid = verify._REGISTRY[lemma_id].gen(24)
    violating = {(v["a"], v["theta"], v["r"]) for v in settled.violations}
    keys = zip(*(grid[k].tolist() for k in ("a", "theta", "r")))
    rows = [i for i, key in enumerate(keys) if key in violating]
    assert len(rows) == len(violating) and not flags[rows].any()
    _never_settling(monkeypatch)
    full = verify_lemma(lemma_id, resolution=24)
    assert settled.violations == full.violations
    assert settled.min_margin.hex() == full.min_margin.hex()


@pytest.mark.parametrize("lemma_id", ["leform1", "plyus", "leform2"])
def test_exhausted_root_solves_stop_the_sweep(lemma_id, monkeypatch):
    # with the iteration limit cut to 3, rows the settle rule cannot stop
    # reach it: the sweep raises and names the check, rather than report
    # margins from roots not known to the stop width
    monkeypatch.setattr(rootfind, "_MAX_ITER", 3)
    with pytest.raises(verify.SolveExhausted, match=f"^check {lemma_id} at resolution 8: "):
        verify_lemma(lemma_id, resolution=8)


def test_exhausted_root_solves_fail_their_facts(np_core, monkeypatch):
    # check's seven leform1 spots are scalar solves; cut short, each gives
    # a NaN margin, so the fact fails and the point is not certified
    assert certificate(np_core).ok
    monkeypatch.setattr(rootfind, "_MAX_ITER", 3)
    cert = certificate(np_core)
    fact = next(f for f in cert.chain if f.name == "response_above_moebius")
    assert math.isnan(fact.value) and not fact.ok and fact.backed_by == "leform1"
    assert not cert.ok and cert.failure == fact


def _coarse_margins(grid):
    """funcrr2's margins at h/16 and their error bounds, per row, and the
    h/16 march."""
    corner = verify.R2_eval(grid["r"], NormLanes(a=grid["a"], theta=grid["theta"]))
    coarse, finer = (verify._funcrr2_runs(grid)(n) for n in verify._COARSE_STEPS)
    return finer.dip - corner, verify._dip_error_bound(coarse, finer), finer


# the rows of funcrr2's grid left to march at h/256: the lowest only, but
# at resolution 16, where the lowest lane's enclosure (3.7e-4 +- 1.1e-4)
# reaches the next lane's (4.8e-4 +- 1.9e-5)
_FUNCRR2_UNSETTLED = {16: 2, 64: 1, 256: 1}


@pytest.mark.parametrize("resolution", [16, 64, 256])
def test_funcrr2_coarse_bound_holds(resolution, monkeypatch):
    # every lane whose node past the horizon is finite, so every lane here,
    # has a finite bound, and its h/256 margin lies within it of its h/16
    # margin; lanes whose lowest node is their last among them (6 at 64, 14
    # at 256).  The lowest lane is never settled, so it is marched at h/256
    grid = verify._gen_funcrr2(resolution)[1]
    margin, bound, finer = _coarse_margins(grid)
    ((_, fine),) = _REGISTRY["funcrr2"].margins(grid, FLOAT)
    assert np.all(np.isfinite(finer.beyond)) and np.all(np.isfinite(bound))
    assert np.all(np.abs(margin - fine) <= bound)
    assert np.isnan(finer.values[2]).sum() == {16: 0, 64: 6, 256: 14}[resolution]
    masks = _recording_settles(monkeypatch)
    ((_, column),) = _REGISTRY["funcrr2"].margins(grid, FLOAT, {})
    (settled,) = masks
    low = int(np.argmin(fine))
    assert not settled[low] and column[low] == fine[low]
    assert (~settled).sum() == _FUNCRR2_UNSETTLED[resolution]
    assert column[~settled].tobytes() == fine[~settled].tobytes()


def test_funcrr2_coarse_bound_holds_at_h_over_1024():
    # on 64 seeded lanes of the resolution-256 grid and the 14 lanes whose
    # lowest node is their last, against margins marched at h/1024
    grid = verify._gen_funcrr2(256)[1]
    last = np.flatnonzero(np.isnan(_coarse_margins(grid)[2].values[2]))
    seeded = np.random.default_rng(31).choice(verify._row_count(grid), 64, replace=False)
    rows = np.union1d(seeded, last)
    assert last.size == 14 and rows.size == 78
    sub = {k: v[rows] for k, v in grid.items()}
    margin, bound, _finer = _coarse_margins(sub)
    corner = verify.R2_eval(sub["r"], NormLanes(a=sub["a"], theta=sub["theta"]))
    fine = verify._funcrr2_runs(sub)(1024).dip - corner
    assert np.all(np.abs(margin - fine) <= bound)


# sha256 of funcrr2's LaneDips fields (step, values, dip, beyond) at
# resolution 256: every lane marched at h/8 and at h/16, and its lowest
# lane, the one the sweep marches at h/256.  Each lane's bits are its own
# single run's, so no way of marching lanes together may move them
_FUNCRR2_MARCH_DIGESTS = {
    8: "5860484a9bf61551ed662c3e051b64e2ff52291be0715dcfa1dfb65205f656ed",
    16: "a0a91b18eb45f69dcb77f717c572ffdb0d8f98768e604d0ed1473e840c4fe6c9",
    256: "64f075fe643c381fb8bcabae94b8188858c687c093f049ad52f2578ebdbedf8c",
}


def test_funcrr2_marches_keep_their_bits():
    # the coarse marches take the longest lane's own rows, whole blocks up
    # to its node past the horizon
    grid = verify._gen_funcrr2(256)[1]
    march = verify._funcrr2_runs(grid)
    margin, _bound, finer = _coarse_margins(grid)
    runs = {8: march(8), 16: finer, 256: march(rows=np.array([int(np.argmin(margin))]))}
    for n, run in runs.items():
        digest = hashlib.sha256()
        for field in (run.step, run.values, run.dip, run.beyond):
            digest.update(field.tobytes())
        assert digest.hexdigest() == _FUNCRR2_MARCH_DIGESTS[n], n
    assert [run.rows for run in runs.values()] == [512, 1024, 1024]


def test_dip_bound_covers_a_turn_within_the_last_step():
    # a run whose last node is its lowest turns within its last step: on
    # y = (t - 0.55)^2 at t = 0, 1, 2 (left, low and the node past the
    # horizon) its dip is y(1) = 0.2025 at this step and near y(0.55) = 0
    # at a fine one.  The slope towards left (0.1) misses that; the node
    # past the horizon bounds it
    left, low, beyond = ((np.array([t]) - 0.55) ** 2 for t in (0.0, 1.0, 2.0))
    finer = LaneDips(
        step=np.ones(1), values=np.stack([left, low, np.full(1, np.nan)]), dip=low,
        beyond=beyond, rows=3,
    )
    bound = verify._dip_error_bound(finer, finer)
    assert bound[0] >= low[0] > abs(low[0] - left[0])


@pytest.mark.parametrize("row_block", [None, 512])
def test_funcrr2_violations_match_fine_marches(row_block, monkeypatch):
    # a raised corner bound sends about a tenth of the rows below zero: no
    # violating row settles, so the violations and the minimum are those of
    # marching every lane at h/256; 512-row blocks carry earlier minima
    if row_block is not None:
        monkeypatch.setattr(verify, "_LANE_BLOCK", row_block)
    corner = verify.R2_eval
    monkeypatch.setattr(verify, "R2_eval", lambda *args: corner(*args) + 0.004)
    masks = _recording_settles(monkeypatch)
    report = verify_lemma("funcrr2", resolution=64)
    settled = np.concatenate(masks)
    spec = _REGISTRY["funcrr2"]
    grid = spec.gen(64)[1]
    violations, min_margin = _row_loop(grid, spec.margins(grid, FLOAT))
    assert settled.any() and 0.05 * settled.size < len(violations) < 0.2 * settled.size
    violating = {(v["a"], v["theta"], v["r"]) for v in violations}
    keys = zip(*(grid[k].tolist() for k in ("a", "theta", "r")))
    assert not any(flag for key, flag in zip(keys, settled) if key in violating)
    assert report.violations == violations
    assert report.min_margin.hex() == min_margin.hex()


@pytest.mark.parametrize("below", [False, True])
def test_settle_bounds_take_nan_and_infinite_offsets(below):
    # tier-1 turns warnings into errors: NaN and infinite offsets must give
    # bounds that compare false or true, never a warning.  A NaN or an
    # unbounded-below margin never settles its row; an unbounded-above one
    # settles it
    offsets = {"m": np.array([math.nan, math.inf, -math.inf, 0.5])}
    if below:
        offsets["m"] = -offsets["m"]
    settled = verify._settle_above(offsets, {"m": math.inf}, below)
    got = settled(np.arange(4), np.full(4, -1.0), np.full(4, 2.0))
    assert got.tolist() == [False, False, True, False]
    # the least upper bound carries from call to call: the infinite offset
    # made it -inf, so the last row settles once its lower bound is above 0
    x = np.array([-1.0 if below else 1.0])
    assert settled(np.array([3]), x, x).tolist() == [True]


def _row_loop(grid, cols):
    # the per-point loop's ordering rules, kept as the reference the column
    # path is checked against
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
    spec = dataclasses.replace(_REGISTRY["leform2"], margins=lambda g, mx, lows: cols)
    violations, min_margin = verify._eval_columns(spec, grid)
    ref_violations, ref_min = _row_loop(grid, cols)
    assert violations == ref_violations
    assert min_margin == ref_min
    assert math.copysign(1.0, min_margin) == math.copysign(1.0, ref_min)


def test_report_json_schema(tmp_path):
    rep = verify_lemma("expo_bounds", resolution=8)
    path = write_report(rep, tmp_path)
    text = Path(path).read_text()
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


@pytest.mark.parametrize("resolution", [16, 64])
def test_verify_all_matches_lone_sweeps(resolution, monkeypatch):
    # every report and every margin column of verify_all is the lone sweep's,
    # bitwise
    margin_columns = verify._margin_columns
    seen = []

    def recording(spec, grid):
        seen.append((spec.lemma_id, margin_columns(spec, grid)))
        return seen[-1][1]

    monkeypatch.setattr(verify, "_margin_columns", recording)
    shared = [r.to_json_dict() for r in verify_all(resolution=resolution)]
    shared_columns, seen[:] = seen[:], []
    lone = [verify_lemma(lemma_id, resolution=resolution).to_json_dict() for lemma_id in EXPECTED_IDS]
    assert json.dumps(shared) == json.dumps(lone)
    assert [lemma_id for lemma_id, _ in shared_columns] == EXPECTED_IDS
    for (lemma_id, ours), (_, theirs) in zip(shared_columns, seen):
        assert [label for label, _ in ours] == [label for label, _ in theirs], lemma_id
        for (label, col), (_, other) in zip(ours, theirs):
            assert col.tobytes() == other.tobytes(), (lemma_id, label)


# libm calls of one verify_all at resolution 64: FLOAT.exp's entries in its
# C loop (ddouble._cexp) and the per-entry calls (ddouble._each, and
# onedmaps._each, the name the identity's log1p runs through).  albet and
# albeta each take exp(theta/a) on their own band rows, 4,095 and 4,032
# (a band's base table holds mu and a, not theta), and dom takes no exp: it
# reads a_star alone.  A quantity of a base alone that fell back to a call
# per row would add about its grid's row count to the total: 18,432 for
# leform1's pack.  The per-entry count, frozen beside it, is the log and
# log1p entries and theta**3's, which have no C loop
LIBM_CALLS_64 = 224649
EACH_CALLS_64 = 94655


def test_libm_calls_per_sweep(monkeypatch):
    from ddestab import ddouble

    each, loop = [], []
    for module in (ddouble, onedmaps):

        def counted(fn, x, _each=module._each):
            each.append(x.size)
            return _each(fn, x)

        monkeypatch.setattr(module, "_each", counted)

    def cexp(x, _cexp=ddouble._cexp):
        loop.append(x.size)
        return _cexp(x)

    monkeypatch.setattr(ddouble, "_cexp", cexp)
    verify_all(resolution=64)
    assert sum(each) + sum(loop) == LIBM_CALLS_64
    assert sum(each) == EACH_CALLS_64


def test_dom_takes_no_exp(monkeypatch):
    # dom's a_star is _branch_slope on its own columns: no coefficient pack,
    # so no exp(theta/a) in the C loop or entry by entry
    from ddestab import ddouble

    calls = []

    def counted(fn):
        def wrapper(x):
            calls.append(fn)
            return fn(x)

        return wrapper

    monkeypatch.setattr(ddouble, "_cexp", counted(ddouble._cexp))
    monkeypatch.setattr(math, "exp", counted(math.exp))
    rep = verify_lemma("dom", 64)
    assert rep.points_checked > 0 and rep.violations == []
    assert calls == []


def test_verify_all_rejects_low_resolution_before_any_report(tmp_path):
    out = tmp_path / "reports"
    with pytest.raises(ValueError, match="resolution must be at least 4"):
        verify_all(resolution=3, out_dir=out)
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []


def test_verify_all_threads_accepts_only_one_process(tmp_path):
    with pytest.raises(ValueError, match="threads"):
        verify_all(resolution=8, threads=2, out_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []
    by_none, by_one = (verify_all(resolution=8, threads=t) for t in (None, 1))
    assert [r.lemma_id for r in by_none] == EXPECTED_IDS
    assert [r.to_json_dict() for r in by_one] == [r.to_json_dict() for r in by_none]


# ---------------------------------------------------------------------------
# certificates


def test_certificate_core(np_core):
    cert = certificate(np_core)
    assert cert.ok
    assert cert.region.tag is Region.CORE
    assert cert.failure is None
    assert [f.name for f in cert.chain] == [
        "sharp_criterion_margin", "slope_product_negative", "beta_pos",
        "certificate_nonpos_branch_end", "response_above_moebius",
    ]
    assert all(f.ok for f in cert.chain)


def test_certificate_linear(np_linear):
    cert = certificate(np_linear)
    assert cert.ok
    assert cert.region.tag is Region.LINEAR
    names = [f.name for f in cert.chain]
    assert "straightened_slope" in names
    assert "straightened_map_schwarz_neg" in names


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


def _boundary_probe(n: int) -> list[NormParams]:
    """n seeded slopes a = -10**(4u), |a| from 1 to 1e4, each with theta at
    the sharp boundary and 1 to 4 ulps either side of it."""
    rng = random.Random(11)
    pts = []
    for _ in range(n):
        a = -(10.0 ** (4.0 * rng.random()))
        below = above = sharp_boundary_theta(a)
        thetas = [below]
        for _ in range(4):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
            thetas += [below, above]
        pts += [NormParams(a=a, theta=t) for t in thetas if 0.0 < t < 1.0]
    return pts


def test_certificate_agrees_with_classify_at_the_sharp_boundary():
    # check's verdict is classify's within a few ulps of the boundary: the
    # CORE chain decides the sharp criterion once.  albeta's 1 + a*alpha,
    # the criterion again, reads <= 0 at 515 of the 1,156 points that
    # classify certifies here
    for np_ in _boundary_probe(300):
        assert certificate(np_).ok == classify(np_).certified, np_


def test_dropped_slope_product_fact_is_the_sharp_criterion():
    # 1 + a*alpha = (a*a + 1) - (a*a - a)*exp(theta/a) has the sign of
    # -theta/a - log((a*a - a)/(a*a + 1)): in 60 digits the two agree at
    # every probe point, so albeta's slope_product_above_minus_one, which
    # certificate leaves out, only restated the sharp criterion
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(60):
        for np_ in _boundary_probe(200):
            a, th = mp.mpf(np_.a), mp.mpf(np_.theta)
            prod = 1 + a * ((1 - a) * mp.exp(th / a) + a)
            crit = -th / a - mp.log((a * a - a) / (a * a + 1))
            assert mp.sign(prod) == mp.sign(crit) != 0, np_


def _points_in_every_region(seed: int, per_region: int = 12) -> list[NormParams]:
    """Seeded points of the (theta, mu) unit square, per_region in each region,
    and band points at slopes from -1 to -1e4."""
    rng = random.Random(seed)
    by_region = {tag: [] for tag in Region}
    while min(map(len, by_region.values())) < per_region:
        np_ = NormParams(a=-1.0 / (1.0 - rng.random()), theta=1.0 - rng.random())
        by_region[classify(np_).tag].append(np_)
    band = []
    for _ in range(per_region):
        a = -(10.0 ** (4.0 * rng.random())) - 1e-3
        mu = -1.0 / a
        lo, hi = (pi_curve(2, mu), pi_curve(1, mu))
        band.append(NormParams(a=a, theta=lo + (hi - lo) * rng.random()))
    return [p for pts in by_region.values() for p in pts[:per_region]] + band


def _old_facts(np_: NormParams) -> dict:
    """The LINEAR and CORE fact values as certificate wrote them out before
    they came from the checks' margins."""
    a, th = np_.a, np_.theta
    if classify(np_).tag is Region.LINEAR:
        return {"straightened_map_schwarz_neg": float(schwarz_margin(_SCHWARZ_SAMPLES, a, th).min())}
    c = coeffs(np_)
    prod = a * c.alpha
    worst = math.inf
    for rz in (c.a_star * (i + 1) / 8 for i in range(7)):
        worst = min(worst, F_solve_r(rz, np_).value - R_eval(rz, c))
    return {
        "slope_product_negative": -prod,
        "beta_pos": c.beta,
        "certificate_nonpos_branch_end": -q_poly_generic(c.a_star, a, th, alpha=c.alpha, beta=c.beta),
        "response_above_moebius": worst,
    }


@pytest.mark.parametrize("seed", [1, 2])
def test_certificate_facts_are_the_checks_margins(capsys, seed):
    for np_ in _points_in_every_region(seed):
        label = classify(np_)
        rc = main(["check", f"--a={np_.a!r}", "--theta", repr(np_.theta), "--json"])
        data = json.loads(capsys.readouterr().out)
        assert rc == (0 if label.certified else 1), np_
        assert data["region"] == label.tag.value
        backed = [f for f in data["facts"] if f["backed_by"] is not None]
        assert all(f["backed_by"] in LEMMA_IDS and f["ok"] is (f["value"] > 0.0) for f in backed)
        unbacked = {f["name"] for f in data["facts"]} - {f["name"] for f in backed}
        assert unbacked <= {
            "sharp_criterion_margin", "straightened_slope", "composite_slope",
            "composite_cycle_contraction",
        }
        if label.tag in (Region.LINEAR, Region.CORE):
            got = {f["name"]: f["value"].hex() for f in backed}
            assert got == {k: v.hex() for k, v in _old_facts(np_).items()}, np_


def _corner_margins(a: float, theta: float, beta: float) -> tuple[float, float]:
    """corner + 1 and 1 - r(corner)*beta, the corner R2 at r = a, in 60 digits.

    beta is taken as given: its own rounding, up to 5e-9 relative at sector
    points near a = -200, is not the corner's.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        A, T = mp.mpf(a), mp.mpf(theta)
        g = 1 + mp.log(T) - T
        corner = g / (2 + mp.log(T) - T) * A * A / (1 + g / (1 - T) * A)
        return float(corner + 1), float(1 - A * corner / (1 + corner) * mp.mpf(beta))


def _sector_points(seed: int, n: int) -> list[tuple[float, float]]:
    rng = random.Random(seed)
    pts = [(-1e13, 0.9999999999999), (-1922892727988.8538, 0.9999999999994669),
           (-1e12, 0.999999999999)]
    while len(pts) < n + 3:
        np_ = NormParams(a=-1.0 / (0.18 * (1.0 - rng.random())), theta=0.8 + 0.2 * rng.random())
        if classify(np_).tag is Region.SECTOR:
            pts.append((np_.a, np_.theta))
    return pts


@pytest.mark.parametrize("a, theta", _sector_points(7, 20))
def test_sector_corner_facts_match_mpmath(a, theta):
    cert = certificate(NormParams(a=a, theta=theta))
    assert cert.ok
    facts = {f.name: f for f in cert.chain}
    corner, image = (facts[n] for n in ("corner_above_minus_one", "corner_image_in_domain"))
    assert corner.backed_by == image.backed_by == "lele2"
    want = _corner_margins(a, theta, coeffs_generic(a, theta)[2])
    assert (corner.value, image.value) == pytest.approx(want, rel=1e-13)


def test_certificate_point_recorded(np_core):
    cert = certificate(np_core)
    assert cert.chain[0].value == sharp_criterion_margin(np_core)
    assert isinstance(cert.chain[0], Fact)
    assert isinstance(cert, Certificate)


# ---------------------------------------------------------------------------
# figure sweeps


def test_sweep_figures_smoke(tmp_path):
    paths = sweep_figures(tmp_path, n_mu=19, raster=40)
    for key in ("fig1", "fig2_curves", "boundaries", "fig2_raster"):
        assert key in paths

    fig1 = Path(paths["fig1"]).read_text().splitlines()
    assert fig1[0] == "c,theta_global,theta_local"
    assert len(fig1) == 501
    first = fig1[1].split(",")
    assert float(first[0]) == pytest.approx(0.02)
    assert float(first[1]) == 0.0  # below unit slope nothing is required

    curves = Path(paths["fig2_curves"]).read_text().splitlines()
    assert curves[0] == "mu,theta_pi1,theta_pi2,theta_pi3,theta_local"
    assert len(curves) == 20

    bounds = json.loads(Path(paths["boundaries"]).read_text())
    assert isinstance(bounds, dict)

    raster = Path(paths["fig2_raster"]).read_text().splitlines()
    assert raster[0] == "theta,mu,label"
    labels = {row.split(",")[2] for row in raster[1:]}
    valid = {r.value for r in Region}
    assert labels <= valid
    # all certification outcomes occur somewhere on the square
    assert labels == valid


@pytest.mark.parametrize("raster", [1, 2, 7, 333])
def test_raster_is_one_line_per_cell(tmp_path, raster):
    # the raster written by label runs equals one "%.12g,%.12g,%s" line per
    # (theta, mu) cell, theta by row and mu by column, from classify_raster
    centres = [(k + 0.5) / raster for k in range(raster)]
    labels = classify_raster(np.array([-1.0 / mu for mu in centres]), np.array(centres))
    tags = [tag.value for tag in Region]
    want = "theta,mu,label\n" + "".join(
        "%.12g,%.12g,%s\n" % (th, mu, tags[labels[i, j]])
        for i, th in enumerate(centres)
        for j, mu in enumerate(centres)
    )
    path = sweep_figures(tmp_path, n_mu=1, raster=raster)["fig2_raster"]
    assert Path(path).read_bytes() == want.encode()


def test_fig1_is_the_blowfly_window(tmp_path):
    # at equilibrium slope magnitude c = ln(p/delta) - 1 the blowfly decision
    # certifies exactly up to delta*h = -ln(theta_global), below the local
    # (Hopf) product -ln(theta_local)
    fig1 = Path(sweep_figures(tmp_path, n_mu=9, raster=4)["fig1"]).read_text().splitlines()
    rows = [[float(v) for v in line.split(",")] for line in fig1[1:]]
    window = {}
    for c, theta_global, theta_local in rows:
        if c <= 1.0:
            continue
        dh = -math.log(theta_global)
        assert dh < -math.log(theta_local), c
        for factor, certified in ((0.999, True), (1.001, False)):
            p = NicholsonParams(p=math.exp(c + 1.0), delta=1.0, gamma_n=1.0, h=factor * dh)
            assert nicholson_global(p).certified is certified, (c, factor)
        window[c] = dh
    assert len(window) == 450
    assert "%.12g" % window[2.0] == "1.00883617472"


# funcrr2's dips from the affine step against classic RK4 stage by stage:
# the difference is rounding, under 1e-3 of the lane's discretisation error
# (estimated by step halving, h/512 against the sweep's h/256) with a floor
# of 5e-14 of the lane's largest |x|.  Over all 5,080 lanes at resolution
# 256 the difference is at most 3.4e-14 of that size; on 40 lanes it
# exceeds 1e-3 of the estimate, all on that floor
_DIP_FLOOR = 5e-14


def test_funcrr2_dips_within_rounding_of_rk4_stages():
    from ddestab.ddesim import History, _envelope, integrate
    from ddestab.ratmaps import r_inv
    from oracles import extremum_after, rk4_integrate

    grid = verify._gen_funcrr2(256)[1]
    ((_name, margin),) = verify._margins_funcrr2(grid, FLOAT)
    rng = np.random.default_rng(24)
    picks = [int(np.argmin(margin))] + rng.choice(len(margin), 64, replace=False).tolist()
    for j in picks:
        a, theta, r = (float(grid[k][j]) for k in ("a", "theta", "r"))
        p = NormParams(a=a, theta=theta)
        z = float(r_inv(r, a))
        tc = math.log(1.0 - (1.0 + z) / a)
        hist, T = History.constant(z), tc + 3.0 * p.delay
        run = integrate(_envelope(a), hist, p, T)
        dip = extremum_after(run.values, tc, run.step, lowest=True)
        ref = rk4_integrate(_envelope(a), hist, p, T)
        half = integrate(_envelope(a), hist, p, T, step=p.delay / 512)
        estimate = abs(extremum_after(half.values, tc, half.step, lowest=True) - dip)
        bound = 1e-3 * estimate + _DIP_FLOOR * np.max(np.abs(ref))
        assert abs(dip - extremum_after(ref, tc, run.step, lowest=True)) <= bound, j
