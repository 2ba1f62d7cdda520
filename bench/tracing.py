"""Span tracing for the traced benchmark pass, installed from outside the package.

Every public function of the six layer modules, and the few methods named in
METHODS, is replaced by a wrapper that counts its calls.  A wrapper also
records a span (group, start, end, parent) when its caller is in a different
span group, so each span marks a boundary between layers, or between the
staircase sub-stages that have their own timers.  A call inside the same
group is only counted: its time already lies inside the enclosing span.

A name bound with ``from .affine import f`` is a second reference to f, so
install() replaces f in every loaded ``schubsmooth`` module whose namespace
holds that same object, the package namespace included.

Spans live in flat arrays while the pass runs and are written once, at the
end, by write_spans().
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("affine", "smoothness", "bp", "poly", "staircase", "series")

# Methods wrapped besides module-level functions: (module, class, method, span group).
METHODS = (
    ("affine", "AffinePermutation", "__post_init__", "affine"),
    ("affine", "AffinePermutation", "times_s", "affine"),
    ("affine", "AffinePermutation", "s_times", "affine"),
    ("affine", "AffinePermutation", "__mul__", "affine"),
    ("affine", "AffinePermutation", "inverse", "affine"),
    ("poly", "Polynomial", "from_length_counts", "poly"),
    ("poly", "Polynomial", "__add__", "poly"),
    ("poly", "Polynomial", "__mul__", "poly"),
    ("poly", "Polynomial", "__call__", "poly"),
    ("poly", "Polynomial", "is_palindromic", "poly"),
    ("staircase", "StaircaseDiagram", "__post_init__", "staircase.construct"),
    ("staircase", "StaircaseDiagram", "validate", "staircase.validate"),
    ("series", "IntSeries", "__mul__", "series"),
    ("series", "IntSeries", "inverse", "series"),
)

# Module functions whose spans get their own group instead of the layer's.
FUNCTION_GROUPS = {
    "staircase.cycle_glue": "staircase.glue",
    "staircase.line_glue": "staircase.glue",
    "staircase.to_element": "staircase.to_element",
}


class Tracer:
    """Counters and spans of one traced pass."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.tally: Counter[str] = Counter()  # result-derived counts, see _observe
        self.groups: list[str] = []
        self._group_id: dict[str, int] = {}
        self.span_group = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[tuple[int, int]] = []  # (group id, span index)

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap the layer functions and methods in every loaded package module."""
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "schubsmooth"]
        for layer in LAYERS:
            mod = sys.modules[f"schubsmooth.{layer}"]
            for attr, fn in sorted(vars(mod).items()):
                if attr.startswith("_") or not callable(fn) or inspect.isclass(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue  # imported from elsewhere: wrapped where it is defined
                name = f"{layer}.{attr}"
                wrapped = self._wrap(fn, name, FUNCTION_GROUPS.get(name, layer))
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapped)
        for layer, cls_name, meth, group in METHODS:
            cls = getattr(sys.modules[f"schubsmooth.{layer}"], cls_name)
            raw = cls.__dict__[meth]
            name = f"{layer}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self._wrap(raw.__func__, name, group)))
            else:
                setattr(cls, meth, self._wrap(raw, name, group))

    def _gid(self, group: str) -> int:
        if group not in self._group_id:
            self._group_id[group] = len(self.groups)
            self.groups.append(group)
        return self._group_id[group]

    def _wrap(self, fn, name: str, group: str):
        gid = self._gid(group)
        calls, stack = self.calls, self._stack
        starts, ends = self.span_start, self.span_end
        groups, parents = self.span_group, self.span_parent
        observe = self._observe

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if stack and stack[-1][0] == gid:
                out = fn(*args, **kwargs)
            else:
                idx = len(starts)
                parents.append(stack[-1][1] if stack else -1)
                groups.append(gid)
                ends.append(0.0)
                stack.append((gid, idx))
                starts.append(perf_counter())
                try:
                    out = fn(*args, **kwargs)
                finally:
                    ends[idx] = perf_counter()
                    stack.pop()
            observe(name, args, out)
            return out

        return wrapper

    def _observe(self, name: str, args: tuple, out) -> None:
        """Counts that depend on arguments or results rather than on calls."""
        if name == "smoothness.is_smooth" and out:
            self.tally["smooth_results"] += 1
        elif name == "affine.bruhat_lower_interval":
            self.tally["interval_size"] += len(out)
        elif name == "staircase.enumerate_diagrams":
            self.tally["diagrams_returned"] += len(out)
        elif name == "series.IntSeries.__mul__":
            n = min(args[0].order, args[1].order)
            self.tally["coeff_products"] += (n + 1) * (n + 2) // 2
        elif name == "series.IntSeries.inverse":
            n = args[0].order
            self.tally["coeff_products"] += n * (n + 1) // 2

    # -- results -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span group: span duration minus its child spans."""
        child = [0.0] * len(self.span_start)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        out = {g: 0.0 for g in self.groups}
        for i, gid in enumerate(self.span_group):
            out[self.groups[gid]] += self.span_end[i] - self.span_start[i] - child[i]
        return out

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics listed in BENCHMARK.json, except the
        overhead, which needs an untraced pass to compare with."""
        c, t, self_s = self.calls, self.tally, self.self_times()
        scans = c["smoothness.is_smooth"]
        built = c["staircase.StaircaseDiagram.__post_init__"]
        return {
            "smoothness.scans": scans,
            "smoothness.self_s": self_s.get("smoothness", 0.0),
            "smoothness.hit_ratio": t["smooth_results"] / scans if scans else 0.0,
            "affine.elements_built": c["affine.AffinePermutation.__post_init__"],
            "affine.products": sum(
                c[f"affine.AffinePermutation.{m}"] for m in ("times_s", "s_times", "__mul__", "inverse")
            ),
            "affine.interval_size": t["interval_size"],
            "affine.self_s": self_s.get("affine", 0.0),
            "bp.decompositions": c["bp.complete_bp_decomposition"],
            "bp.self_s": self_s.get("bp", 0.0),
            "poly.self_s": self_s.get("poly", 0.0),
            "staircase.diagrams_built": built,
            "staircase.construct_s": self_s.get("staircase.construct", 0.0),
            "staircase.glue_s": self_s.get("staircase.glue", 0.0),
            "staircase.validate_s": self_s.get("staircase.validate", 0.0),
            "staircase.to_element_s": self_s.get("staircase.to_element", 0.0),
            "staircase.yield_ratio": t["diagrams_returned"] / built if built else 0.0,
            "series.products": c["series.IntSeries.__mul__"] + c["series.IntSeries.inverse"],
            "series.coeff_products": t["coeff_products"],
            "series.self_s": self_s.get("series", 0.0),
            "trace.spans": len(self.span_start),
        }

    def write_spans(self, path) -> None:
        """Write every span as a tab-separated row: group, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("group\tstart\tend\tparent\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{self.groups[self.span_group[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\n"
                )
