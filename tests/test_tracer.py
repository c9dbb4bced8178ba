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


SWEEP_SAMPLE = ("leform1", "funcrr2", "plyus", "leform2")


def _recording(solve, out):
    def call(*args, **kwargs):
        res = solve(*args, **kwargs)
        out.append(res)
        return res

    return call


def test_tracer_counts_sweep_layers(monkeypatch):
    # the benchmark's per-layer counters come from these wrappers: sweep
    # points, root-solve iterations and integrator steps must all flow
    verify = ddestab.verify
    solved = []
    with monkeypatch.context() as m:
        for name in ("F_solve_r", "F1_solve_r"):
            m.setattr(verify, name, _recording(getattr(verify, name), solved))
        for lemma_id in SWEEP_SAMPLE:
            verify.verify_lemma(lemma_id, resolution=4)
    tracer = _load_spans().Tracer()
    try:
        tracer.install(ddestab)
        reports = [verify.verify_lemma(lemma_id, resolution=4) for lemma_id in SWEEP_SAMPLE]
    finally:
        tracer.restore()
    assert tracer.counts["verify.points"] == sum(r.points_checked for r in reports)
    # the lane solves reach the solver's args through the tracer's wrappers
    assert tracer.counts["rootfind.iterations"] == sum(s.iterations for s in solved) > 0
    assert tracer.counts["ddesim.rk4_steps"] > 0
    # the traced benchmark writes the counters as JSON: lane results must not
    # leak numpy scalars or arrays into them
    json.dumps(dict(tracer.counts))
