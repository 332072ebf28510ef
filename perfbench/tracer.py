"""Per-layer tracing of one crtrans CLI run, installed from outside the package.

Run as the child process in place of `python -m crtrans`:

    python perfbench/tracer.py TRACE_OUT TRACE_ID <crtrans arguments...>

It imports crtrans, then replaces the functions listed in LAYERS (in every
crtrans module that imported them by name) and the arithmetic dunders of
GaussianRational, Series and FracSeries with recording wrappers, and calls
crtrans.cli.main. The crtrans sources are not changed. When main returns it
writes the aggregates and spans of this run to TRACE_OUT as JSON.

Scalar operations are only counted: a call costs a few microseconds, so timing
each one from outside would distort it. Series and FracSeries operators are
timed but aggregated, not stored as spans, so memory stays bounded. Every
other wrapped call is a span (name, start, end, parent) under one trace id per
document. Self time is a span's duration minus the time of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable, Dict, List, Optional

SPAN_CAP = 5000  # spans stored per document; aggregates are always complete

# Functions wrapped per module, as {attribute: metric name}. Several attributes
# may share a name; its total time then counts the outermost call only.
LAYERS: Dict[str, Dict[str, str]] = {
    "series": {
        "compose": "series.compose",
        "solve_implicit": "series.solve_implicit",
        "exp_series": "series.exp_series",
        "invert_unit": "series.invert_unit",
    },
    "linalg": {
        "_det": "linalg.det",
        "determinant": "linalg.determinant",
        "generic_rank": "linalg.generic_rank",
        "rank_at_point": "linalg.rank_at_point",
        "scalar_determinant": "linalg.scalar_determinant",
        "solve_triangular": "linalg.solve_triangular",
        "span_membership": "linalg.span_membership",
    },
    "hypersurface": {
        "validate": "hypersurface.validate",
        "from_graph": "hypersurface.from_graph",
        "to_graph": "hypersurface.to_graph",
        "classify_type": "hypersurface.classify_type",
        "infinite_unit_part": "hypersurface.infinite_unit_part",
        "is_class_c": "hypersurface.nondegeneracy",
        "is_class_cm": "hypersurface.nondegeneracy",
        "is_holomorphically_nondegenerate": "hypersurface.nondegeneracy",
        "_gradient_family_rank": "hypersurface.nondegeneracy",
        "exceptional_hypersurface": "hypersurface.exceptional_hypersurface",
    },
    "prolongation": {
        "minimal_ordered_nonzero": "prolongation.minimal_ordered_nonzero",
        "forward_expand": "prolongation.forward_expand",
        "prolongation_solve": "prolongation.solve",
    },
    "grammar": {"parse": "grammar.parse", "evaluate": "grammar.evaluate"},
    # every function these modules define, named <module>.<function>
    "crmap": {},
    "models": {},
    "verify": {},
    "cli": {"_emit": "cli.emit"},
}
WHOLE_MODULES = ("crmap", "models", "verify", "cli")

# operator dunders: (class module, class, attributes, aggregate name)
OPERATORS = [
    ("series", "Series", ("__mul__", "__rmul__"), "series.mul"),
    ("series", "Series", ("__add__", "__radd__", "__sub__"), "series.add"),
    ("fracseries", "FracSeries",
     ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__neg__"),
     "fracseries.op"),
]
SCALAR_COUNTS = [
    (("__mul__", "__rmul__"), "scalar.mul"),
    (("__add__", "__radd__", "__sub__"), "scalar.add"),
    (("__truediv__",), "scalar.div"),
]


class _Frame:
    __slots__ = ("name", "child", "span")

    def __init__(self, name: str, span: int) -> None:
        self.name, self.child, self.span = name, 0.0, span


class Recorder:
    """Spans and counters of one traced process; one trace id per document."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.stack: List[_Frame] = []
        self.stats: Dict[str, List[float]] = {}  # name -> [calls, total_s, self_s]
        self.layers: Dict[str, List[float]] = {}  # layer -> [total_s, self_s]
        self.depth: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self.peaks: Dict[str, int] = {}
        self.distinct: Dict[str, set] = {}
        self.keep_alive: list = []  # argument identity stays unique while referenced
        self.spans: list = []
        self.dropped = 0
        self.origin = time.perf_counter()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key: str, n: int) -> None:
        if n > self.peaks.get(key, 0):
            self.peaks[key] = n

    def seen(self, name: str, key, refs) -> None:
        keys = self.distinct.setdefault(name, set())
        if key not in keys:
            keys.add(key)
            self.keep_alive.append(refs)

    def wrap(self, name: str, fn: Callable, store: bool = True,
             before: Optional[Callable] = None, after: Optional[Callable] = None) -> Callable:
        """Time fn as a span called `name`; `store` keeps each call as a span record."""
        layer = name.split(".")[0]
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        layer_stats = self.layers.setdefault(layer, [0.0, 0.0])
        depth, stack, clock = self.depth, self.stack, time.perf_counter
        depth.setdefault(name, 0)
        depth.setdefault(layer, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            if before is not None:
                before(*args, **kwargs)
            parent = stack[-1] if stack else None
            span = parent.span if parent else -1
            recorded = store and len(self.spans) < SPAN_CAP
            if recorded:
                self.spans.append([len(self.spans), span, name, 0.0, 0.0])
                span = len(self.spans) - 1
            elif store:
                self.dropped += 1
            frame = _Frame(name, span)
            stack.append(frame)
            depth[name] += 1
            depth[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                depth[layer] -= 1
                elapsed = end - start
                own = elapsed - frame.child
                if parent is not None:
                    parent.child += elapsed
                stats[0] += 1
                stats[2] += own
                layer_stats[1] += own
                if depth[name] == 0:
                    stats[1] += elapsed
                if depth[layer] == 0:
                    layer_stats[0] += elapsed
                if recorded:
                    self.spans[span][3:] = [start - self.origin, end - self.origin]
            if after is not None:
                after(result, parent)
            if parent is not None:
                # the hooks are tracing overhead: keep them out of the parent's self time
                parent.child += clock() - entered - elapsed
            return result

        return wrapper

    def counter(self, key: str, fn: Callable) -> Callable:
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(a, b):
            counts[key] += 1
            return fn(a, b)

        return wrapper

    def to_json(self, import_s: float) -> dict:
        return {
            "trace_id": self.trace_id,
            "import_s": import_s,
            "stats": self.stats,
            "layers": self.layers,
            "counts": self.counts,
            "peaks": self.peaks,
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "spans": self.spans,
            "spans_dropped": self.dropped,
        }


def coeff_products(a, b) -> int:
    """Exact number of coefficient products Series.__mul__ performs for a * b."""
    if not hasattr(b, "terms"):  # series times scalar
        return len(a.terms) if b else 0
    if (a.is_zero and a.exact) or (b.is_zero and b.exact):
        return 0
    d = min(a.degree, b.degree)
    hist_b = [0] * (d + 1)
    for k in b.terms:
        if sum(k) <= d:
            hist_b[sum(k)] += 1
    below = [0] * (d + 1)  # below[j] = number of b terms of degree <= j
    running = 0
    for j in range(d + 1):
        running += hist_b[j]
        below[j] = running
    return sum(below[d - sum(k)] for k in a.terms if sum(k) <= d)


def install(rec: Recorder) -> None:
    """Replace the traced functions and operators; crtrans must be imported."""
    import crtrans

    modules = [m for n, m in sys.modules.items() if n == "crtrans" or n.startswith("crtrans.")]

    def replace(original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    hooks = _hooks(rec)
    for modname, names in LAYERS.items():
        mod = sys.modules[f"crtrans.{modname}"]
        targets = dict(names)
        if modname in WHOLE_MODULES:
            for attr, value in vars(mod).items():
                if (callable(value) and not isinstance(value, type)
                        and getattr(value, "__module__", None) == mod.__name__):
                    targets.setdefault(attr, f"{modname}.{attr.lstrip('_')}")
        for attr, name in targets.items():
            original = getattr(mod, attr)
            before, after = hooks.get(name, (None, None))
            replace(original, rec.wrap(name, original, True, before, after))

    for modname, clsname, attrs, name in OPERATORS:
        cls = getattr(sys.modules[f"crtrans.{modname}"], clsname)
        before, after = hooks.get(name, (None, None))
        for attr in attrs:
            setattr(cls, attr, rec.wrap(name, cls.__dict__[attr], False, before, after))
    scalar = crtrans.scalar.GaussianRational
    for attrs, key in SCALAR_COUNTS:
        for attr in attrs:
            setattr(scalar, attr, rec.counter(key, scalar.__dict__[attr]))


def _hooks(rec: Recorder) -> Dict[str, tuple]:
    """Counters computed around particular calls: (before(*args), after(result, parent))."""

    def series_peak(result, parent) -> None:
        rec.peak("series.peak_terms", len(result.terms))

    def mul_products(a, b) -> None:
        rec.count("series.mul.coeff_products", coeff_products(a, b))

    def compose_after(result, parent) -> None:
        series_peak(result, parent)
        if parent is not None and parent.name == "series.solve_implicit":
            rec.count("series.solve_implicit.iterations")

    def frac_before(a, *rest) -> None:
        parent = rec.stack[-1] if rec.stack else None
        if parent is None or parent.name != "fracseries.op":
            rec.count("fracseries.ops")

    def frac_after(result, parent) -> None:
        rec.peak("fracseries.peak_den_terms", len(result.den.terms))

    def det_key(entries, *_) -> None:
        rec.seen("linalg.det", tuple(tuple(map(id, row)) for row in entries), entries)

    def classify_key(m, *_) -> None:
        rec.seen("hypersurface.classify_type", id(m), m)

    def sends_into_key(h, m, mp, *_) -> None:
        rec.seen("crmap.sends_into", (id(h), id(m), id(mp)), (h, m, mp))

    return {
        "series.mul": (mul_products, series_peak),
        "series.add": (None, series_peak),
        "series.compose": (None, compose_after),
        "series.solve_implicit": (None, series_peak),
        "series.exp_series": (None, series_peak),
        "fracseries.op": (frac_before, frac_after),
        "linalg.det": (det_key, None),
        "hypersurface.classify_type": (classify_key, None),
        "crmap.sends_into": (sends_into_key, None),
    }


# ---------------- aggregation in the benchmark process ----------------


def merge(traces: List[dict]) -> dict:
    """Sum the aggregates of several documents (peaks take the maximum)."""
    out = {"import_s": 0.0, "stats": {}, "layers": {}, "counts": {}, "peaks": {}, "distinct": {}}
    for t in traces:
        out["import_s"] += t["import_s"]
        for section in ("stats", "layers"):
            for key, vals in t[section].items():
                acc = out[section].setdefault(key, [0] * len(vals))
                for i, v in enumerate(vals):
                    acc[i] += v
        for section in ("counts", "distinct"):
            for key, v in t[section].items():
                out[section][key] = out[section].get(key, 0) + v
        for key, v in t["peaks"].items():
            out["peaks"][key] = max(out["peaks"].get(key, 0), v)
    return out


def per_layer_metrics(m: dict) -> Dict[str, float]:
    """The per-layer metrics, named as in BENCHMARK.json, from merged aggregates."""

    def stat(name: str, i: int) -> float:
        return m["stats"].get(name, [0, 0.0, 0.0])[i]

    def calls(name: str) -> int:
        return int(stat(name, 0))

    def total(name: str) -> float:
        return stat(name, 1)

    def self_s(name: str) -> float:
        return stat(name, 2)

    def count(key: str) -> int:
        return m["counts"].get(key, 0)

    def ratio(name: str) -> float:
        # distinct argument sets over calls; 1 when never called (nothing repeated)
        return m["distinct"].get(name, 0) / calls(name) if calls(name) else 1.0

    def layer(name: str, i: int) -> float:
        return m["layers"].get(name, [0.0, 0.0])[i]

    products = count("series.mul.coeff_products")
    return {
        "scalar.mul.calls": count("scalar.mul"),
        "scalar.add.calls": count("scalar.add"),
        "scalar.div.calls": count("scalar.div"),
        "series.mul.calls": calls("series.mul"),
        "series.mul.self_s": self_s("series.mul"),
        "series.mul.coeff_products": products,
        "series.mul.ns_per_product": self_s("series.mul") * 1e9 / products if products else 0.0,
        "series.add.self_s": self_s("series.add"),
        "series.peak_terms": m["peaks"].get("series.peak_terms", 0),
        "series.compose.calls": calls("series.compose"),
        "series.compose.self_s": self_s("series.compose"),
        "series.solve_implicit.calls": calls("series.solve_implicit"),
        "series.solve_implicit.iterations": count("series.solve_implicit.iterations"),
        "series.solve_implicit.total_s": total("series.solve_implicit"),
        "series.exp_series.total_s": total("series.exp_series"),
        "linalg.generic_rank.calls": calls("linalg.generic_rank"),
        "linalg.generic_rank.total_s": total("linalg.generic_rank"),
        "linalg.det.calls": calls("linalg.det"),
        "linalg.det.self_s": self_s("linalg.det"),
        "linalg.det.distinct_ratio": ratio("linalg.det"),
        "linalg.rank_at_point.self_s": self_s("linalg.rank_at_point"),
        "fracseries.ops": count("fracseries.ops"),
        "fracseries.self_s": self_s("fracseries.op"),
        "fracseries.peak_den_terms": m["peaks"].get("fracseries.peak_den_terms", 0),
        "hypersurface.from_graph.total_s": total("hypersurface.from_graph"),
        "hypersurface.validate.total_s": total("hypersurface.validate"),
        "hypersurface.nondegeneracy.total_s": total("hypersurface.nondegeneracy"),
        "hypersurface.classify_type.calls": calls("hypersurface.classify_type"),
        "hypersurface.classify_type.distinct_ratio": ratio("hypersurface.classify_type"),
        "crmap.sends_into.calls": calls("crmap.sends_into"),
        "crmap.sends_into.distinct_ratio": ratio("crmap.sends_into"),
        "crmap.self_s": layer("crmap", 1),
        "models.total_s": layer("models", 0),
        "verify.self_s": layer("verify", 1),
        "prolongation.solve.total_s": total("prolongation.solve"),
        "prolongation.forward_expand.total_s": total("prolongation.forward_expand"),
        "grammar.parse.total_s": total("grammar.parse"),
        "grammar.evaluate.total_s": total("grammar.evaluate"),
        "cli.emit.total_s": total("cli.emit"),
        "cli.self_s": layer("cli", 1),
        "process.import_s": m["import_s"],
    }


def main(argv: List[str]) -> int:
    out_path, trace_id, cli_args = argv[0], argv[1], argv[2:]
    start = time.perf_counter()
    import crtrans.cli

    import_s = time.perf_counter() - start
    rec = Recorder(trace_id)
    install(rec)
    try:
        return crtrans.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(rec.to_json(import_s), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
