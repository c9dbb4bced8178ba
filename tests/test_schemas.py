"""Every JSON artifact validates against the schema shipped in docs."""

import dataclasses
import json
import os

import jsonschema
import pytest

from ddestab.cli import main
from ddestab.params import write_region_json
from ddestab import verify
from ddestab.verify import sweep_figures, verify_lemma, write_report

SCHEMA_DIR = os.path.join(os.path.dirname(__file__), "..", "docs", "schemas")


def _schema(name):
    with open(os.path.join(SCHEMA_DIR, name)) as fh:
        return json.load(fh)


def test_lemma_report_schema_valid_itself():
    jsonschema.Draft202012Validator.check_schema(_schema("lemma_report.schema.json"))
    jsonschema.Draft202012Validator.check_schema(_schema("region_boundaries.schema.json"))
    jsonschema.Draft202012Validator.check_schema(_schema("check_result.schema.json"))


def test_lemma_report_validates(tmp_path):
    rep = verify_lemma("r303", resolution=8)
    path = write_report(rep, tmp_path)
    jsonschema.validate(json.load(open(path)), _schema("lemma_report.schema.json"))


def test_lemma_report_with_violation_validates():
    # a synthetic failing report must also fit the schema
    doc = {
        "lemma_id": "demo",
        "resolution": 8,
        "grid_spec": "demo grid",
        "points": 3,
        "violations": [{"a": -2.0, "theta": 0.4, "label": "demo_margin", "margin": -0.5}],
        "min_margin": -0.5,
    }
    jsonschema.validate(doc, _schema("lemma_report.schema.json"))


def test_lemma_report_with_real_violation_validates(tmp_path, monkeypatch):
    # shift one real margin below zero so violations come from the sweep itself
    spec = verify._REGISTRY["expo_bounds"]

    def shifted(pt, mx):
        return [(label, m - 1.0) for label, m in spec.margins(pt, mx)]

    monkeypatch.setitem(verify._REGISTRY, "expo_bounds", dataclasses.replace(spec, margins=shifted))
    rep = verify_lemma("expo_bounds", resolution=8, threads=1)
    assert rep.violations and rep.min_margin < 0.0
    path = write_report(rep, tmp_path)
    data = json.load(open(path))
    jsonschema.validate(data, _schema("lemma_report.schema.json"))
    assert {v["label"] for v in data["violations"]} <= {
        "exp_above_linear",
        "exp_below_quadratic",
        "exp_above_cubic",
    }


def test_region_boundaries_validates(tmp_path):
    paths = sweep_figures(tmp_path, n_mu=9, raster=8)
    schema = _schema("region_boundaries.schema.json")
    jsonschema.validate(json.load(open(paths["boundaries"])), schema)

    other = tmp_path / "curves.json"
    write_region_json(str(other), [0.1 * k for k in range(1, 10)])
    jsonschema.validate(json.load(open(other)), schema)


@pytest.mark.parametrize("theta", ["0.39", "0.2"])
def test_check_json_validates(theta, capsys):
    main(["check", "--a", "-2.0", "--theta", theta, "--json"])
    data = json.loads(capsys.readouterr().out)
    jsonschema.validate(data, _schema("check_result.schema.json"))
