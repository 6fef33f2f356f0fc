"""Spans around calls into bbquiver's layers, recorded from outside the program.

`Tracer.install` replaces each traced public function at every module
binding that holds it (`existence.batch_rank_ge`, `betti.support_quiver`,
...), so callers that imported the name directly are traced too.  A span is
`[name index, start, end, parent span, note]`; the note is a number taken
from the call's arguments or result (classes returned, points counted,
chart dimension).  Spans stay in memory until the query ends.

`layer_metrics` turns the spans of a run into the per-layer metrics.  Self
time is a span's duration minus the durations of its direct children;
because spans nest, the self times of one query add up to its root span.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import defaultdict


def _len(args, kwargs, result):
    return len(result)


def _is_none(args, kwargs, result):
    return 1 if result is None else 0


def _total_dim(args, kwargs, result):
    return result.total_dim


def _points(args, kwargs, result):
    """Size of R(Q, d)(F_q), the points the counting oracle enumerates."""
    quiver, d, _theta, q = args[:4]
    idx = quiver.vertex_index
    exponent = sum(d[idx(a.source)] * d[idx(a.target)] for a in quiver.arrows)
    return q ** exponent


# (module, function, note) for every traced call; the layer is the module.
TARGETS = (
    ("covering", "enumerate_compatible", _len),
    ("covering", "canonicalize", None),
    ("covering", "euler_form_covering", None),
    ("covering", "support_quiver", None),
    ("existence", "has_stable", None),
    ("existence", "brute_force_stable_count", _points),
    ("finitefield", "batch_rank_ge", None),
    ("finitefield", "subspaces", None),
    ("fixedpoints", "analyze_component", None),
    ("fixedpoints", "weight_support", None),
    ("fixedpoints", "weight_dimension", None),
    ("betti", "component_poincare", _is_none),
    ("betti", "kirwan_subspace_poincare", None),
    ("betti", "interpolate_from_counts", None),
    ("betti", "assemble_poincare", None),
    ("kronecker", "enumerate_type1", _len),
    ("kronecker", "enumerate_type2", _len),
    ("kronecker", "d1_attractor", None),
    ("kronecker", "d2_attractor", None),
    ("kronecker", "kronecker_poincare", None),
    ("cells", "build_fixed_rep", None),
    ("cells", "choose_complements", _total_dim),
    ("cells", "emit_cell_table", None),
    ("linalg", "rref", None),
)
POLY_INIT = "betti.PoincarePolynomial.__post_init__"
ROOT = "cli.main"
LAYERS = ("covering", "existence", "finitefield", "fixedpoints", "betti", "kronecker",
          "cells", "linalg")
NAMES = (ROOT, *(f"{mod}.{fn}" for mod, fn, _ in TARGETS), POLY_INIT)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def _wrap(self, name: str, fn, note):
        index = NAMES.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [index, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                rec[4] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target at every bbquiver module binding that holds it."""
        for mod, fn, _ in TARGETS:
            importlib.import_module(f"bbquiver.{mod}")
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "bbquiver" or name.startswith("bbquiver."))]
        for mod, fn, note in TARGETS:
            original = getattr(sys.modules[f"bbquiver.{mod}"], fn)
            traced = self._wrap(f"{mod}.{fn}", original, note)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, traced)
        poly = sys.modules["bbquiver.betti"].PoincarePolynomial
        poly.__post_init__ = self._wrap(POLY_INIT, poly.__post_init__, None)

    def run(self, fn, *args):
        """Call fn(*args) as the root span; returns its result."""
        return self._wrap(ROOT, fn, None)(*args)


def self_times(spans) -> list:
    """Self time of every span: its duration minus its direct children's."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def query_summary(spans) -> dict:
    """Per-name totals for one query: calls, self seconds, inclusive seconds
    and note sums, plus the few parent-dependent counts the metrics need."""
    selfs = self_times(spans)
    calls: dict = defaultdict(int)
    self_s: dict = defaultdict(float)
    incl_s: dict = defaultdict(float)
    notes: dict = defaultdict(int)
    children: dict = defaultdict(set)
    for k, (idx, start, end, parent, note) in enumerate(spans):
        name = NAMES[idx]
        calls[name] += 1
        self_s[name] += selfs[k]
        incl_s[name] += end - start
        if note is not None:
            notes[name] += note
        if parent >= 0:
            children[parent].add(name)
    filter_support = sum(1 for idx, _, _, parent, _ in spans
                         if NAMES[idx] == "covering.support_quiver" and parent >= 0
                         and NAMES[spans[parent][0]] == "covering.enumerate_compatible")
    providers = {"point": 0, "kirwan": 0, "oracle": 0, "unknown": 0}
    for k, (idx, _, _, _, note) in enumerate(spans):
        if NAMES[idx] != "betti.component_poincare":
            continue
        kids = children.get(k, set())
        if note:
            providers["unknown"] += 1
        elif "betti.kirwan_subspace_poincare" in kids:
            providers["kirwan"] += 1
        elif "betti.interpolate_from_counts" in kids:
            providers["oracle"] += 1
        else:
            providers["point"] += 1
    root = [k for k, s in enumerate(spans) if s[3] < 0]
    if len(root) != 1 or NAMES[spans[root[0]][0]] != ROOT:
        raise ValueError("a query's spans must have the single root span cli.main")
    rec = spans[root[0]]
    return {"calls": dict(calls), "self_s": dict(self_s), "incl_s": dict(incl_s),
            "notes": dict(notes), "filter_support_calls": filter_support,
            "providers": providers, "query_s": rec[2] - rec[1]}


def layer_self(summary: dict) -> dict:
    """Self seconds per layer, and `cli` for the root span's own time."""
    out = {layer: 0.0 for layer in ("cli",) + LAYERS}
    for name, s in summary["self_s"].items():
        out[name.split(".")[0]] += s
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(summaries, passes: int, overhead: float) -> dict:
    """Per-layer metrics: each time and count is a mean per pass over the
    traced passes; ratios are taken over the totals.  `overhead` is the
    traced over the untraced pass time, less one."""
    calls: dict = defaultdict(int)
    self_s: dict = defaultdict(float)
    incl_s: dict = defaultdict(float)
    notes: dict = defaultdict(int)
    layers: dict = defaultdict(float)
    providers: dict = defaultdict(int)
    filter_support = 0
    traced_s = 0.0
    for s in summaries:
        for key, dst in (("calls", calls), ("self_s", self_s), ("incl_s", incl_s),
                         ("notes", notes)):
            for name, v in s[key].items():
                dst[name] += v
        for layer, v in layer_self(s).items():
            layers[layer] += v
        for kind, v in s["providers"].items():
            providers[kind] += v
        filter_support += s["filter_support_calls"]
        traced_s += s["query_s"]

    def per_pass(v):
        return v / passes

    def calls_of(*names):
        return sum(calls.get(n, 0) for n in names)

    def self_of(*names):
        return per_pass(sum(self_s.get(n, 0.0) for n in names))

    fills = calls_of("covering.canonicalize")
    classes = notes.get("covering.enumerate_compatible", 0)
    charts = calls_of("cells.choose_complements")
    has_stable = calls_of("existence.has_stable")
    count_incl = incl_s.get("existence.brute_force_stable_count", 0.0)
    points = notes.get("existence.brute_force_stable_count", 0)
    m = {"cli.self_s": per_pass(layers["cli"])}
    m.update({f"{layer}.self_s": per_pass(layers[layer]) for layer in LAYERS})
    m.update({
        "covering.enumerate_s": self_of("covering.enumerate_compatible"),
        "covering.fills": per_pass(fills),
        "covering.canonicalize_s": self_of("covering.canonicalize"),
        "covering.euler_s": self_of("covering.euler_form_covering"),
        "covering.classes": per_pass(classes),
        "covering.keep_ratio": _ratio(classes, fills),
        "existence.filter_calls": per_pass(has_stable),
        "existence.filter_s": self_of("existence.has_stable"),
        "existence.shape_hit_ratio": 1.0 - _ratio(has_stable, filter_support) if filter_support else 0.0,
        "existence.count_calls": per_pass(calls_of("existence.brute_force_stable_count")),
        "existence.count_s": self_of("existence.brute_force_stable_count"),
        "existence.count_points": per_pass(points),
        "existence.points_per_s": _ratio(points, count_incl),
        "finitefield.batch_rank_s": self_of("finitefield.batch_rank_ge"),
        "finitefield.subspaces_s": self_of("finitefield.subspaces"),
        "fixedpoints.analyze_calls": per_pass(calls_of("fixedpoints.analyze_component")),
        "fixedpoints.analyze_s": self_of("fixedpoints.analyze_component",
                                         "fixedpoints.weight_support",
                                         "fixedpoints.weight_dimension"),
        "fixedpoints.weight_dimension_calls": per_pass(calls_of("fixedpoints.weight_dimension")),
        "betti.component_s": self_of("betti.component_poincare", "betti.kirwan_subspace_poincare"),
        **{f"betti.provider.{kind}": per_pass(providers[kind])
           for kind in ("point", "kirwan", "oracle", "unknown")},
        "betti.interpolate_s": self_of("betti.interpolate_from_counts"),
        "betti.assemble_s": self_of("betti.assemble_poincare"),
        "betti.poly_ops": per_pass(calls_of(POLY_INIT)),
        "betti.poly_s": self_of(POLY_INIT),
        "kronecker.labels": per_pass(notes.get("kronecker.enumerate_type1", 0)
                                     + notes.get("kronecker.enumerate_type2", 0)),
        "kronecker.enumerate_s": self_of("kronecker.enumerate_type1", "kronecker.enumerate_type2"),
        "kronecker.attractor_calls": per_pass(calls_of("kronecker.d1_attractor",
                                                       "kronecker.d2_attractor")),
        "kronecker.attractor_s": self_of("kronecker.d1_attractor", "kronecker.d2_attractor"),
        "cells.build_calls": per_pass(calls_of("cells.build_fixed_rep")),
        "cells.build_s": self_of("cells.build_fixed_rep"),
        "cells.lift_retry_ratio": _ratio(calls_of("cells.build_fixed_rep"), charts),
        "cells.complement_s": self_of("cells.choose_complements"),
        "cells.emit_s": self_of("cells.emit_cell_table"),
        "cells.chart_dim_total": per_pass(notes.get("cells.choose_complements", 0)),
        "linalg.rref_calls": per_pass(calls_of("linalg.rref")),
        "linalg.rref_s": self_of("linalg.rref"),
        "trace.pass_s": per_pass(traced_s),
        "trace.overhead": overhead,
    })
    if not all(math.isfinite(v) for v in m.values()):
        raise ValueError("a per-layer metric is not finite")
    return m


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", ".overhead")):
        return "ratio"
    return "count"
