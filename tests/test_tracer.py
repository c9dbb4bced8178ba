"""The benchmark tracer still finds every name it wraps in the package."""

import importlib.util
import json
from pathlib import Path

import ddestab
import ddestab.cli  # noqa: F401  (the tracer wraps names in every module)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_install_and_restore():
    tracer = _load_spans().Tracer()
    try:
        tracer.install(ddestab)
        patched = list(tracer._patches)
    finally:
        tracer.restore()
    assert patched
    for obj, attr, _own, original in patched:
        # bound methods are rebuilt on each lookup, so compare by equality
        assert getattr(obj, attr) == original, (obj, attr)


def test_tracer_counts_sweep_layers():
    # the benchmark's per-layer counters come from these wrappers: sweep
    # points, root-solve iterations and integrator steps must all flow
    tracer = _load_spans().Tracer()
    try:
        tracer.install(ddestab)
        reports = [
            ddestab.verify.verify_lemma(lemma_id, resolution=4)
            for lemma_id in ("leform1", "funcrr2")
        ]
    finally:
        tracer.restore()
    assert tracer.counts["verify.points"] == sum(r.points_checked for r in reports)
    assert tracer.counts["rootfind.iterations"] > 0
    assert tracer.counts["ddesim.rk4_steps"] > 0
    # the traced benchmark writes the counters as JSON: lane results must not
    # leak numpy scalars or arrays into them
    json.dumps(dict(tracer.counts))
