"""Per-layer tracing of ``delaysl`` from outside the package.

``Tracer.install`` replaces every public function defined in the traced
modules with a timing wrapper in every ``delaysl`` namespace that binds it:
``charfn`` and ``cli`` import ``skernel``/``ckernel`` by name, so
patching ``delaysl.kernels`` alone would miss the hot calls.
``SampledSegment.values`` is patched on its class.  Each call records a
span (function, parent span, start, end, work size) in memory; the
spans are aggregated, and optionally written out, only after the run.
``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# the package modules that form the benchmark's layers, innermost first
LAYERS = ("kernels", "gridfn", "delay_solver", "charfn", "spectrum", "fredholm", "family")

# endpoint_values batch-size buckets: the ROADMAP rows sit at 1, 64 and 512
BUCKETS = (("le8", 1, 8), ("9_128", 9, 128), ("gt128", 129, np.inf))

# functions reported one by one as <module>.<function>.{calls,s}
TIMED = (
    "delay_solver.p_function",
    "delay_solver.series_term",
    "gridfn.piecewise_quad",
    "gridfn.SampledSegment.values",
    "gridfn.integrate",
    "gridfn.cumulative",
    "charfn.build_w",
    "charfn.delta_direct",
    "spectrum.compute_spectrum",
    "fredholm.apply",
    "fredholm.nystrom",
    "fredholm.eigenpairs",
    "family.build_member",
    "family.w_of_member",
)


def _lam_size(args, kwargs, position):
    lam = args[position] if len(args) > position else kwargs.get("lam")
    return int(np.size(lam))


def _broadcast_size(args, kwargs):
    lam = args[0] if args else kwargs.get("lam")
    x = args[1] if len(args) > 1 else kwargs.get("x")
    return int(np.prod(np.broadcast_shapes(np.shape(lam), np.shape(x)), dtype=np.int64))


# work size recorded with each span: lambda points, or kernel elements
_SIZES = {
    "kernels.ckernel": _broadcast_size,
    "kernels.skernel": _broadcast_size,
    "kernels.kernel_dlambda": _broadcast_size,
    "charfn.delta_closed": lambda a, k: _lam_size(a, k, 1),
    "delay_solver.endpoint_values": lambda a, k: _lam_size(a, k, 3),
}


def layer_metrics() -> dict[str, str]:
    """Every metric ``Tracer.metrics`` reports, with its unit, in report order."""
    units = {"kernels.calls": "count", "kernels.s": "s", "kernels.elements": "count"}
    dc = "charfn.delta_closed"
    units.update({f"{dc}.calls": "count", f"{dc}.s": "s", f"{dc}.points": "count"})
    units[f"{dc}.us_per_point"] = "us"
    units.update({"spectrum.delta_calls": "count", "spectrum.delta_points": "count"})
    cr = "spectrum.count_roots"
    units.update({f"{cr}.calls": "count", f"{cr}.s": "s", f"{cr}.points": "count"})
    units["spectrum.roots_per_kpoint"] = "roots/kpoint"
    ev = "delay_solver.endpoint_values"
    units.update({f"{ev}.calls": "count", f"{ev}.s": "s", f"{ev}.points": "count"})
    units.update({f"{ev}.calls_{b}": "count" for b, _, _ in BUCKETS})
    units.update({f"{ev}.s_{b}": "s" for b, _, _ in BUCKETS})
    for fn in TIMED:
        units.update({f"{fn}.calls": "count", f"{fn}.s": "s"})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    return units


class Tracer:
    """Span recorder for one traced process; single-threaded use only."""

    def __init__(self):
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        # one row per finished span: name id, parent row, start, end, size,
        # outermost call of its own function, outermost call of its module
        self._spans: list = []
        self._stack: list[int] = []
        self._depth: dict[int, int] = defaultdict(int)
        self._module_depth: dict[str, int] = defaultdict(int)
        self._patched: list = []
        self._counts: dict[str, float] = defaultdict(float)
        self.roots_certified = 0

    # -- patching -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        ident = self._ids.setdefault(name, len(self._names))
        if ident == len(self._names):
            self._names.append(name)
        module = name.split(".", 1)[0]
        size_of = _SIZES.get(name)
        spans, stack, depth, mdepth = self._spans, self._stack, self._depth, self._module_depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            size = size_of(args, kwargs) if size_of is not None else 0
            row = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outer = depth[ident] == 0
            mouter = mdepth[module] == 0
            stack.append(row)
            depth[ident] += 1
            mdepth[module] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[ident] -= 1
                mdepth[module] -= 1
                spans[row] = (ident, parent, t0, t1, size, outer, mouter)

        traced.__perfbench_original__ = fn
        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer wherever they are bound."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        import delaysl
        from delaysl.gridfn import SampledSegment

        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"delaysl.{layer}")
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") and inspect.isfunction(obj)
                if public and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        namespaces = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == delaysl.__name__ or key.startswith("delaysl."))
        ]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        original = SampledSegment.__dict__["values"]
        self._patched.append((SampledSegment, "values", original))
        SampledSegment.values = self._wrap("gridfn.SampledSegment.values", original)

    def restore(self) -> None:
        """Put back every original binding, newest first."""
        while self._patched:
            owner, attr, obj = self._patched.pop()
            setattr(owner, attr, obj)

    # -- counting at the spectrum boundary ----------------------------------

    def count_delta(self, delta):
        """Wrap the Delta callable handed to ``compute_spectrum``.

        Counts calls and lambda points as they arrive, without re-batching:
        ``delta_closed`` output depends on the batch composition.  Points
        evaluated while ``count_roots`` runs are its contour samples.
        """
        contour = self._ids.get("spectrum.count_roots")

        def counted(lam):
            points = int(np.size(lam))
            self._counts["spectrum.delta_calls"] += 1
            self._counts["spectrum.delta_points"] += points
            if contour is not None and self._depth[contour] > 0:
                self._counts["spectrum.count_roots.points"] += points
            return delta(lam)

        return counted

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer totals over everything traced since ``install``."""
        out = dict.fromkeys(layer_metrics(), 0.0)
        for key, value in self._counts.items():
            out[key] = value
        # every span has finished once the traced calls returned, and rows
        # keep their entry order, so a parent row indexes this table
        if self._spans:
            ident, parent, t0, t1, size, outer, mouter = (np.array(c) for c in zip(*self._spans))
            outer, mouter = outer.astype(bool), mouter.astype(bool)
            dur = t1 - t0
            child = np.zeros(len(self._spans))
            has_parent = parent >= 0
            np.add.at(child, parent[has_parent], dur[has_parent])
            self_time = dur - child
            names = np.array(self._names, dtype=object)[ident]
            modules = np.array([n.split(".", 1)[0] for n in names], dtype=object)
            for layer in LAYERS:
                out[f"{layer}.self_s"] = float(self_time[modules == layer].sum())
            kern = modules == "kernels"
            out["kernels.calls"] = float(kern.sum())
            out["kernels.s"] = float(dur[kern & mouter].sum())
            out["kernels.elements"] = float(size[kern].sum())
            for fn in TIMED + ("charfn.delta_closed", "delay_solver.endpoint_values",
                               "spectrum.count_roots"):
                mask = names == fn
                out[f"{fn}.calls"] = float(mask.sum())
                out[f"{fn}.s"] = float(dur[mask & outer].sum())
            dc = names == "charfn.delta_closed"
            out["charfn.delta_closed.points"] = float(size[dc].sum())
            ev = "delay_solver.endpoint_values"
            evm = names == ev
            out[f"{ev}.points"] = float(size[evm].sum())
            for bucket, lo, hi in BUCKETS:
                mask = evm & (size >= lo) & (size <= hi)
                out[f"{ev}.calls_{bucket}"] = float(mask.sum())
                out[f"{ev}.s_{bucket}"] = float(dur[mask].sum())
        points = out["charfn.delta_closed.points"]
        if points:
            out["charfn.delta_closed.us_per_point"] = 1e6 * out["charfn.delta_closed.s"] / points
        if out["spectrum.delta_points"]:
            out["spectrum.roots_per_kpoint"] = (
                1e3 * self.roots_certified / out["spectrum.delta_points"]
            )
        return out

    def write_spans(self, path) -> None:
        """Store every finished span as compact arrays (``numpy.savez``)."""
        cols = list(zip(*self._spans)) if self._spans else [()] * 7
        np.savez_compressed(
            path,
            names=np.array(self._names),
            name_id=np.array(cols[0], dtype=np.int32),
            parent=np.array(cols[1], dtype=np.int64),
            start=np.array(cols[2], dtype=float),
            end=np.array(cols[3], dtype=float),
            size=np.array(cols[4], dtype=np.int64),
        )
