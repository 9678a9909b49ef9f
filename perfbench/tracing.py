"""Outside tracing: spans and counters around hellykit's layer functions.

Nothing under ``src/`` knows about this module.  ``install`` runs inside a
forked op process, before ``cli.main``, and rebinds each layer function to a
wrapper: in the module that defines it and in every module that imported it
by name (``cli.analyze``, ``quasiconvex.coarse_helly_constant``,
``derived.analyze_word``, ...), and on the class for methods
(``GammaWindow.window_distance``, ``Graph.dist``, ...).  The wrappers only
observe: they pass arguments and results through unchanged, so a traced op
writes the same report bytes as an untraced one (run.py checks this).

A span is ``[name, start, end, parent index, op id]``.  Spans stay in memory
and are written once, when the op ends.  Hot leaves (group arithmetic,
``GammaConfig.neighbors``, ``z_path``) get counters only: a span on each call
would cost more than the call.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter
from fractions import Fraction

ROOT_SPAN = "cli.main"


class Tracer:
    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._graphs_seen: set = set()

    def enter(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(len(self.spans) - 1)

    def exit(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"op": self.op_id, "spans": self.spans,
                       "counts": dict(self.counts)}, fh)


def _rebind(orig, new, modules) -> None:
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)


def install(t: Tracer) -> None:
    """Wrap every traced layer function of the imported hellykit package."""
    from hellykit import (cli, derived, gamma, graph_io, graphs, groups, helly,
                          quasiconvex, relwords, reports)

    modules = (cli, derived, gamma, graph_io, graphs, groups, helly,
               quasiconvex, relwords, reports)

    def spanned(fn, name, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                t.exit()
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def counted(fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def func(mod, attr, name, after=None):
        orig = getattr(mod, attr)
        _rebind(orig, spanned(orig, name, after), modules)

    def method(cls, attr, name, after=None):
        setattr(cls, attr, spanned(getattr(cls, attr), name, after))

    # -- cli edges: input parsing and report rendering ------------------------
    func(graph_io, "load_graph", "graph_io.load")
    func(reports, "render", "reports.render",
         after=lambda a, k, r: t.counts.update({"reports.bytes": len(r.encode())}))

    # -- graphs: the all-pairs matrix is cached, so only computing calls count
    dist = graphs.Graph.dist
    dist_span = spanned(dist, "graphs.dist")

    @functools.wraps(dist)
    def graph_dist(self):
        if self._dist is not None:
            return dist(self)
        return dist_span(self)

    graphs.Graph.dist = graph_dist
    func(graphs, "is_isometric_subgraph", "graphs.isometric_check")

    # -- helly -----------------------------------------------------------------
    def extremal_after(args, kwargs, result):
        g = args[0]
        t.counts["helly.extremal_found"] += len(result)
        key = (g.n, g.adj)
        if key not in t._graphs_seen:
            t._graphs_seen.add(key)
            t.counts["helly.extremal_distinct"] += 1

    func(helly, "extremal_functions", "helly.extremal", extremal_after)

    # is_helly called by hellyfication is its postcondition
    is_helly = helly.is_helly
    as_check = spanned(is_helly, "helly.is_helly")
    as_postcondition = spanned(is_helly, "helly.postcondition")

    @functools.wraps(is_helly)
    def is_helly_wrapper(*args, **kwargs):
        if t.current() == "helly.hellyfication":
            return as_postcondition(*args, **kwargs)
        return as_check(*args, **kwargs)

    _rebind(is_helly, is_helly_wrapper, modules)
    func(helly, "coarse_helly_constant", "helly.xi")
    func(helly, "is_pseudo_modular", "helly.pseudo_modular")
    func(helly, "stable_interval_constant", "helly.beta")
    func(helly, "hellyfication", "helly.hellyfication")
    func(helly, "analyze", "helly.analyze")

    # -- quasiconvex -----------------------------------------------------------
    def qc_after(args, kwargs, result):
        t.counts["quasiconvex.explored"] += result.explored
        t.counts["quasiconvex.capped"] += int(result.capped)

    func(quasiconvex, "quasiconvexity_k", "quasiconvex.qc", qc_after)
    func(quasiconvex, "build_delta", "quasiconvex.build_delta")
    func(quasiconvex, "verify_section5", "quasiconvex.section5")

    # -- gamma -----------------------------------------------------------------
    window = gamma.GammaWindow
    method(window, "__init__", "gamma.window_build",
           after=lambda a, k, r: t.counts.update(
               {"gamma.window_vertices": len(a[0].dist_from_base)}))
    gamma.GammaConfig.neighbors = counted(gamma.GammaConfig.neighbors,
                                          "gamma.neighbors_calls")
    method(window, "window_distance", "gamma.window_distance",
           after=lambda a, k, r: t.counts.update({"gamma.certified": int(r[1])}))
    method(window, "random_geodesic", "gamma.random_geodesic")
    method(window, "parabolic_shortenings", "gamma.parabolic_shortenings")
    method(window, "to_json", "gamma.to_json")

    # -- derived ---------------------------------------------------------------
    func(derived, "verify_derivation_theorems", "derived.verify")
    func(derived, "derive", "derived.derive")
    _rebind(derived.z_path, counted(derived.z_path, "derived.z_path_calls"),
            modules)

    # -- groups: counters only -------------------------------------------------
    spec = groups.GroupSpec
    for attr in ("multiply", "rel_length", "invert"):
        setattr(spec, attr, counted(getattr(spec, attr), f"groups.{attr}_calls"))

    # -- relwords --------------------------------------------------------------
    signature = inspect.signature(relwords.perturbed_word)

    def perturbed_after(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        if Fraction(a["lam"]) == 1 and Fraction(a["c"]) == 0:
            return  # plain geodesic word, no detour is drawn
        rejections = result[1]
        accepted = int(rejections < a["tries"])
        t.counts["relwords.detours_tried"] += rejections + accepted
        t.counts["relwords.detours_accepted"] += accepted

    func(relwords, "perturbed_word", "relwords.perturbed_word", perturbed_after)
    func(relwords, "is_quasigeodesic", "relwords.qg_check")
    func(relwords, "analyze_word", "relwords.analyze_word")
    for attr in ("measure_bcp", "measure_triangles", "measure_delta",
                 "measure_zeta"):
        func(relwords, attr, "relwords.measure")


class SpanTotals:
    """Per-name totals over the spans of many ops.

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap, as ops are single-threaded.
    """

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.inclusive_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.root_s: Counter = Counter()  # root span time per command

    def add(self, command: str, dump: dict) -> None:
        spans = dump["spans"]
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _op in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, start, end, parent, _op) in enumerate(spans):
            duration = end - start
            self.calls[name] += 1
            self.self_s[name] += duration - child_s[i]
            self.inclusive_s[name] += duration
            if name == ROOT_SPAN:
                self.root_s[command] += duration
        self.counts.update(dump["counts"])
