"""In-memory span recorder and the wrappers that attach it to ddestab.

Every wrapper is installed from here, at the name the *calling* module looks
up (``ddestab.verify.F_solve_r``, ``ddestab.onedmaps.solve_bracketed``, ...),
so the package itself is untouched and calls inside one module stay
unwrapped.  A span is (name, parent, start, end, inner): ``inner`` is the time
spent in a callable the span's function received and called back (root-solve
identities, integrated models).  That time is counted per call, not as a
span, because there are millions of such calls; it is charged to the layer
that defines the callable.

Self time of a span = its duration - the durations of its child spans -
its inner time.  Summed per layer, self times add up to the traced wall
time of the pass spans.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import defaultdict

import numpy as np

perf = time.perf_counter

LAYERS = ("cli", "verify", "params", "ratmaps", "onedmaps", "rootfind", "ddesim", "models", "ddouble")


def _layer_of(fn) -> str:
    mod = getattr(fn, "__module__", "") or ""
    if mod.startswith("ddestab."):
        return mod.split(".", 1)[1]
    return "bench"


class Tracer:
    """Spans in parallel columns (about 32 bytes each) plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.parent = array("i")
        self.name = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.inner = array("d")
        self.stack = [-1]
        self.counts: dict[str, float] = defaultdict(int)
        self.inner_by_layer: dict[str, float] = defaultdict(float)
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.t0)
        self.parent.append(self.stack[-1])
        self.name.append(nid)
        self.t1.append(0.0)
        self.inner.append(0.0)
        self.stack.append(sid)
        self.t0.append(perf())
        return sid

    def close(self, sid: int) -> None:
        self.t1[sid] = perf()
        self.stack.pop()

    def span(self, fn, name: str, on_result=None):
        nid = self.name_id(name)

        def wrapper(*args, **kwargs):
            sid = self.open(nid)
            try:
                res = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if on_result is not None:
                on_result(res)
            return res

        return wrapper

    def counted(self, fn, sid: int, evals: str, secs: str):
        """Wrap a callable handed to a layer: count and time each call,
        charge the time to the callable's own layer and to span sid's inner."""
        layer = _layer_of(fn)
        counts, inner_by_layer, inner = self.counts, self.inner_by_layer, self.inner

        def call(*args):
            t = perf()
            try:
                return fn(*args)
            finally:
                dt = perf() - t
                counts[evals] += 1
                counts[secs] += dt
                inner_by_layer[layer] += dt
                inner[sid] += dt

        return call

    # -- installation --------------------------------------------------------

    def patch(self, obj, attr: str, new) -> None:
        own = attr in vars(obj)
        self._patches.append((obj, attr, own, getattr(obj, attr)))
        setattr(obj, attr, new)

    def restore(self) -> None:
        while self._patches:
            obj, attr, own, old = self._patches.pop()
            if own:
                setattr(obj, attr, old)
            else:
                delattr(obj, attr)

    def install(self, pkg) -> None:
        """Wrap ddestab's public functions where other modules call them."""
        cli, verify, params, ratmaps = pkg.cli, pkg.verify, pkg.params, pkg.ratmaps
        onedmaps, rootfind, ddesim, models, ddouble = (
            pkg.onedmaps, pkg.rootfind, pkg.ddesim, pkg.models, pkg.ddouble,
        )
        c = self.counts

        def plain(name, callers, attr=None, on_result=None):
            layer, fname = name.split(".", 1)
            attr = attr or fname
            fn = getattr(getattr(pkg, layer), attr)
            wrapped = self.span(fn, name, on_result)
            for mod in callers:
                self.patch(mod, attr, wrapped)

        def file_bytes(key):
            def add(path):
                c[key] += os.path.getsize(path)
            return add

        plain("cli.main", [cli])
        plain("verify.verify_all", [verify])
        plain("verify.certificate", [cli])
        plain("verify.sweep_figures", [cli])
        plain("verify.write_report", [verify, cli], on_result=file_bytes("verify.report_bytes"))
        plain("onedmaps.F_solve_r", [verify])
        plain("onedmaps.F1_solve_r", [verify])
        plain("onedmaps.F_solve", [cli])
        plain("onedmaps.F1_solve", [cli])
        # onedmaps imports coeffs_generic inside its functions, from ratmaps
        plain("ratmaps.coeffs", [verify, cli, onedmaps])
        plain("ratmaps.coeffs_generic", [verify, ratmaps])
        plain("ratmaps.schwarz_margin", [verify])
        plain("ratmaps.R_eval", [verify, cli, onedmaps])
        plain("params.classify", [verify, models])
        plain("params.pi_curve", [verify])
        plain("params.sharp_boundary_theta", [verify, models])
        plain("params.local_stability_boundary", [verify])
        plain("params.write_region", [verify], attr="write_region_csv")
        plain("params.write_region", [verify], attr="write_region_json")
        # cli and verify import from ddesim inside their functions
        plain("ddesim.asymptotic_bounds", [ddesim])
        plain("models.nicholson_global", [cli])
        plain("models.attractor_bounds", [cli])

        verify_lemma = verify.verify_lemma

        def traced_verify_lemma(lemma_id, *args, **kwargs):
            sid = self.open(self.name_id(f"verify.check_s.{lemma_id}"))
            try:
                rep = verify_lemma(lemma_id, *args, **kwargs)
            finally:
                self.close(sid)
            c["verify.points"] += rep.points_checked
            return rep

        self.patch(verify, "verify_lemma", traced_verify_lemma)
        self.patch(cli, "verify_lemma", traced_verify_lemma)

        solve = rootfind.solve_bracketed
        BracketError = rootfind.BracketError
        solve_nid = self.name_id("rootfind.solve_bracketed")

        def traced_solve(f, lo, hi, **kwargs):
            sid = self.open(solve_nid)
            try:
                res = solve(self.counted(f, sid, "rootfind.f_evals", "rootfind.f_eval_s"), lo, hi, **kwargs)
            except BracketError:
                c["rootfind.bracket_errors"] += 1
                raise
            finally:
                self.close(sid)
            c["rootfind.iterations"] += res.iterations
            return res

        for mod in (onedmaps, params, models):
            self.patch(mod, "solve_bracketed", traced_solve)

        integrate = ddesim.integrate
        Diverged = ddesim.IntegrationDiverged
        integrate_nid = self.name_id("ddesim.integrate")

        def traced_integrate(model, hist, p, T, step=None):
            sid = self.open(integrate_nid)
            proxy = _CountedModel(
                self.counted(getattr(model, "f", model), sid, "ddesim.model_evals", "ddesim.model_eval_s"),
                getattr(model, "name", getattr(model, "__name__", "w")),
            )
            try:
                tr = integrate(proxy, hist, p, T, step=step)
            except Diverged:
                c["ddesim.diverged"] += 1
                raise
            finally:
                self.close(sid)
            c["ddesim.rk4_steps"] += len(tr.values) - 1
            return tr

        self.patch(ddesim, "integrate", traced_integrate)

        export = self.span(ddesim.Trajectory.export_csv, "ddesim.export_csv")

        def traced_export(tr, path):
            export(tr, path)
            c["ddesim.export_bytes"] += os.path.getsize(path)

        self.patch(ddesim.Trajectory, "export_csv", traced_export)

        dd = ddouble.DOUBLE_DOUBLE
        for attr in ("num", "exp", "log", "log1p", "sqrt"):
            self.patch(dd, attr, _count_calls(getattr(dd, attr), c, "ddouble.backend_calls"))

    # -- summary ---------------------------------------------------------------

    def columns(self) -> dict:
        return {
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "t0": np.frombuffer(self.t0),
            "t1": np.frombuffer(self.t1),
            "inner": np.frombuffer(self.inner),
        }

    def by_name(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        col = self.columns()
        n, k = len(col["t0"]), len(self.names)
        dur = col["t1"] - col["t0"]
        has_parent = col["parent"] >= 0
        child = np.bincount(col["parent"][has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child - col["inner"]
        calls = np.bincount(col["name"], minlength=k)
        total = np.bincount(col["name"], weights=dur, minlength=k)
        self_s = np.bincount(col["name"], weights=own, minlength=k)
        return {nm: (int(calls[i]), float(total[i]), float(self_s[i])) for i, nm in enumerate(self.names)}

    def self_by_layer(self) -> dict[str, float]:
        out = defaultdict(float)
        for nm, (_calls, _total, own) in self.by_name().items():
            out[nm.split(".", 1)[0]] += own
        for layer, t in self.inner_by_layer.items():
            out[layer] += t
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.columns())


class _CountedModel:
    """Stand-in model for integrate: the counted callable under the original name."""

    def __init__(self, f, name):
        self.f = f
        self.name = name


def _count_calls(fn, counts, key):
    def call(*args):
        counts[key] += 1
        return fn(*args)

    return call
