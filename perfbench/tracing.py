"""Spans around the calls into each layer of the package, recorded from outside it.

install() replaces each traced function, in every package module that binds
it, with a wrapper that records a span (name, start, end, parent).  Spans
stay in memory until the round ends.  A layer's time is the self time of
its spans: duration minus the time covered by the spans they caused, so the
layers partition the traced time and none is counted twice.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# span name -> (module, attribute) of the functions it wraps
SPANS = {
    "kneser.build": [("kneser", "build_kneser")],
    "kneser.adjacency": [("kneser", "KneserGraph.adjacency_bitsets")],
    "colorings.verify": [("colorings", "verify_coloring")],
    "colorings.decode": [("colorings", "coloring_from_json")],
    "colorings.condition_c": [("colorings", "check_condition_C")],
    "designs.parallel_class": [("designs", "find_parallel_class")],
    "designs.c4f": [("designs", "c4_free_one_factorization")],
    "designs.sts": [("designs", "construct_sts")],
    "designs.kts": [("designs", "construct_kts")],
    "achromatic": [("achromatic", "achromatic_coloring"), ("achromatic", "grundy_relabel")],
    "pseudoachromatic": [("pseudoachromatic", "psi_lower_coloring"),
                         ("pseudoachromatic", "psi_tight_coloring")],
    "oracle": [("oracle", "exact_achromatic"), ("oracle", "exact_pseudoachromatic"),
               ("oracle", "exact_grundy"), ("oracle", "exact_chromatic")],
    "geometry.points": [("geometry", "convex_position_points"),
                        ("geometry", "random_general_position"),
                        ("geometry", "random_convex_position"),
                        ("geometry", "PointSet.__init__")],
    "geometry.adjacency": [("geometry", "DisjointnessGraph.adjacency_bitsets")],
    "geometry": [("geometry", "build_dv"), ("geometry", "dv_achromatic_coloring"),
                 ("geometry", "dvnk_lower_coloring"), ("geometry", "triangle_pair_check"),
                 ("geometry", "thrackle_max_edges")],
    "cli": [("cli", "main")],
}

# per-layer metric -> span name whose self time it sums
TIME_METRICS = {
    "kneser.build_s": "kneser.build",
    "kneser.adjacency_s": "kneser.adjacency",
    "colorings.verify_s": "colorings.verify",
    "colorings.decode_s": "colorings.decode",
    "colorings.condition_c_s": "colorings.condition_c",
    "designs.parallel_class_s": "designs.parallel_class",
    "designs.c4f_s": "designs.c4f",
    "designs.sts_s": "designs.sts",
    "designs.kts_s": "designs.kts",
    "achromatic.self_s": "achromatic",
    "pseudoachromatic.self_s": "pseudoachromatic",
    "oracle.search_s": "oracle",
    "geometry.points_s": "geometry.points",
    "geometry.adjacency_s": "geometry.adjacency",
    "geometry.self_s": "geometry",
    "cli.self_s": "cli",
}
COUNT_METRICS = ("kneser.edges", "colorings.verify_calls", "oracle.alpha_nodes",
                 "oracle.psi_nodes", "oracle.grundy_nodes", "oracle.chi_nodes")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.clock = clock
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _count_result(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            res = fn(*args, **kwargs)
            counts[f"oracle.{res.param}_nodes"] += res.nodes_explored
            return res

        return counted

    def _count_edges(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def edges(*args, **kwargs):
            pairs = 0
            try:
                for pair in fn(*args, **kwargs):
                    pairs += 1
                    yield pair
            finally:
                counts["kneser.edges"] += pairs

        return edges

    def install(self, package_name="kneser_colorings"):
        """Wrap every traced function wherever a package module binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package_name
                                         or name.startswith(package_name + "."))]
        for span_name, targets in SPANS.items():
            for mod_name, attr in targets:
                module = sys.modules[f"{package_name}.{mod_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, self.wrap(span_name, getattr(cls, meth)))
                    continue
                orig = getattr(module, attr)
                new = self.wrap(span_name, orig)
                if span_name == "oracle":
                    new = self._count_result(new)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, name, new)
        graph = sys.modules[f"{package_name}.kneser"].KneserGraph
        graph.edges = self._count_edges(graph.edges)


def layer_metrics(spans, counts, scale=1.0):
    """Per-layer metrics of one traced round; times are multiplied by scale."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time = Counter()
    calls = Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        self_time[name] += end - start - child_time[i]
        calls[name] += 1
    out = {metric: self_time[span] * scale for metric, span in TIME_METRICS.items()}
    out.update({metric: counts.get(metric, 0) for metric in COUNT_METRICS})
    out["colorings.verify_calls"] = calls["colorings.verify"]
    return out
