"""Timing wrappers around geosp's public functions, for the traced run.

kmeans and parcellator bind surface_graph and kmeans functions by name at
import, so a wrapper must replace every module attribute that holds the
function, not only the one in its defining module. install() does that for
each target; a target that no longer exists is listed in `absent` and its
metrics read 0. Spans (name, start, end, span id, parent id, thread) stay in
memory and are written out by dump(). Span stacks are per thread, so the
region pool's worker threads nest their own spans.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

# (layer, function, counter hook)
TARGETS = [
    ("mesh_io", "load_mesh", "bytes_read"),
    ("mesh_io", "load_labels", "bytes_read"),
    ("mesh_io", "write_parcellation", "bytes_written"),
    ("surface_graph", "build_graph", None),
    ("surface_graph", "sssp", "graph_size"),
    ("surface_graph", "multi_source_sssp", None),
    ("surface_graph", "apsp", "apsp_size"),
    ("surface_graph", "induced_subgraph", None),
    ("surface_graph", "extract_region_subgraph", None),
    ("kmeans", "kmeanspp_init", None),
    ("kmeans", "comp_centroids", None),
    ("kmeans", "parallel_kmeans", "kmeans_result"),
    ("parcellator", "parcellate_atlas_mode", None),
    ("parcellator", "parcellate_whole_mode", None),
    ("connectivity", "load_fibers", "fiber_count"),
    ("connectivity", "build_connectivity_matrix", None),
    ("connectivity", "map_endpoint_to_vertex", None),
    ("connectivity", "save_matrix", None),
    ("connectivity", "load_matrix", None),
    ("connectivity", "pairwise_dice", None),
]
LAYERS = ["mesh_io", "surface_graph", "kmeans", "parcellator", "connectivity"]


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _hook(kind, counts, peaks, args, kwargs, result):
    if kind == "bytes_read":
        counts["mesh_io.bytes_read"] += os.path.getsize(_first_arg(args, kwargs))
    elif kind == "bytes_written":
        counts["mesh_io.bytes_written"] += sum(os.path.getsize(p) for p in result)
    elif kind == "graph_size":
        counts["surface_graph.sssp_vertices"] += _first_arg(args, kwargs).vertex_count
    elif kind == "apsp_size":
        n = _first_arg(args, kwargs).vertex_count
        counts["surface_graph.apsp_relaxations"] += n ** 3
        peaks["surface_graph.apsp_peak_bytes"] = max(
            peaks.get("surface_graph.apsp_peak_bytes", 0), 8 * n * n)
    elif kind == "kmeans_result":
        counts["kmeans.iterations"] += result.iterations
        counts["kmeans.euclidean_fallbacks"] += result.euclidean_fallbacks
    elif kind == "fiber_count":
        counts["connectivity.fibers"] += len(result)


class Tracer:
    """Installs and removes the wrappers; collects spans and counters."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []
        self.absent: set[str] = set()
        self.spans: list[tuple] = []  # (name, start, end, id, parent id, thread)
        self.reset()

    def reset(self) -> None:
        """Start a new repetition: its spans and counters (earlier spans are kept)."""
        self._first = len(self.spans)
        self._root = threading.get_ident()
        self.counts = Counter()
        self.peaks: dict[str, int] = {}

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "geosp" or name.startswith("geosp."))]
        for layer, name, hook in TARGETS:
            try:
                original = getattr(importlib.import_module(f"geosp.{layer}"), name)
            except (ImportError, AttributeError):
                self.absent.add(f"{layer}.{name}")
                continue
            wrapper = self._wrap(f"{layer}.{name}", hook, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, qualname, hook, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((qualname, start, end, span_id, parent,
                                     threading.get_ident()))
            if hook:
                try:
                    with tracer._lock:
                        _hook(hook, tracer.counts, tracer.peaks, args, kwargs, result)
                except (AttributeError, TypeError, StopIteration, OSError):
                    tracer.absent.add(f"{qualname}:{hook}")
            return result

        return traced

    def _self_times(self, spans) -> dict[int, float]:
        """Each span's duration minus the union of its children's intervals.

        A span that starts with an empty stack in a pool thread is a child of
        the innermost span of the calling thread that encloses it in time.
        """
        children = defaultdict(list)
        root_spans = sorted((s for s in spans if s[5] == self._root), key=lambda s: s[1])
        for name, start, end, span_id, parent, thread in spans:
            if parent is None and thread != self._root:
                enclosing = [s for s in root_spans if s[1] <= start and end <= s[2]]
                parent = enclosing[-1][3] if enclosing else None
            if parent is not None:
                children[parent].append((start, end))
        own = {}
        for _name, start, end, span_id, _parent, _thread in spans:
            covered, reach = 0.0, start
            for a, b in sorted(children.get(span_id, [])):
                a, b = max(a, reach), min(b, end)
                if b > a:
                    covered += b - a
                    reach = b
            own[span_id] = end - start - covered
        return own

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the repetition since the last reset()."""
        spans = self.spans[self._first:]
        t, c, layer_self = defaultdict(float), Counter(), defaultdict(float)
        own = self._self_times(spans)
        for name, start, end, span_id, _parent, _thread in spans:
            t[name] += end - start
            c[name] += 1
            layer_self[name.split(".")[0]] += own[span_id]
        m = {
            "mesh_io.load_mesh_s": t["mesh_io.load_mesh"],
            "mesh_io.load_labels_s": t["mesh_io.load_labels"],
            "mesh_io.bytes_read": self.counts["mesh_io.bytes_read"],
            "mesh_io.write_parcellation_s": t["mesh_io.write_parcellation"],
            "mesh_io.bytes_written": self.counts["mesh_io.bytes_written"],
            "surface_graph.build_graph_s": t["surface_graph.build_graph"],
            "surface_graph.build_graph_calls": c["surface_graph.build_graph"],
            "surface_graph.sssp_s": t["surface_graph.sssp"],
            "surface_graph.sssp_calls": c["surface_graph.sssp"],
            "surface_graph.sssp_vertices": self.counts["surface_graph.sssp_vertices"],
            "surface_graph.multi_source_sssp_s": t["surface_graph.multi_source_sssp"],
            "surface_graph.multi_source_sssp_calls": c["surface_graph.multi_source_sssp"],
            "surface_graph.apsp_s": t["surface_graph.apsp"],
            "surface_graph.apsp_calls": c["surface_graph.apsp"],
            "surface_graph.apsp_relaxations": self.counts["surface_graph.apsp_relaxations"],
            "surface_graph.apsp_peak_bytes": self.peaks.get("surface_graph.apsp_peak_bytes", 0),
            "surface_graph.induced_subgraph_s": t["surface_graph.induced_subgraph"],
            "surface_graph.induced_subgraph_calls": c["surface_graph.induced_subgraph"],
            "surface_graph.extract_region_subgraph_s": t["surface_graph.extract_region_subgraph"],
            "kmeans.kmeanspp_init_s": t["kmeans.kmeanspp_init"],
            "kmeans.comp_centroids_s": t["kmeans.comp_centroids"],
            "kmeans.parallel_kmeans_s": t["kmeans.parallel_kmeans"],
            "kmeans.parallel_kmeans_calls": c["kmeans.parallel_kmeans"],
            "kmeans.iterations": self.counts["kmeans.iterations"],
            "kmeans.euclidean_fallbacks": self.counts["kmeans.euclidean_fallbacks"],
            "parcellator.parcellate_s": (t["parcellator.parcellate_atlas_mode"]
                                         + t["parcellator.parcellate_whole_mode"]),
            # A region task is its subgraph extraction plus its k-means run.
            "parcellator.task_busy_s": (t["surface_graph.extract_region_subgraph"]
                                        + t["kmeans.parallel_kmeans"]),
            "connectivity.load_fibers_s": t["connectivity.load_fibers"],
            "connectivity.fibers": self.counts["connectivity.fibers"],
            "connectivity.build_connectivity_matrix_s": t["connectivity.build_connectivity_matrix"],
            "connectivity.map_endpoint_to_vertex_s": t["connectivity.map_endpoint_to_vertex"],
            "connectivity.map_endpoint_to_vertex_calls": c["connectivity.map_endpoint_to_vertex"],
            "connectivity.save_matrix_s": t["connectivity.save_matrix"],
            "connectivity.load_matrix_s": t["connectivity.load_matrix"],
            "connectivity.pairwise_dice_s": t["connectivity.pairwise_dice"],
        }
        parcellate = m["parcellator.parcellate_s"]
        m["parcellator.pool_overlap"] = m["parcellator.task_busy_s"] / parcellate if parcellate else 0.0
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
        return m

    def dump(self, path) -> None:
        """Write the spans as JSON lines, times in seconds from the first span."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, span_id, parent, thread in self.spans:
                f.write(json.dumps({"name": name, "start": round(start - t0, 9),
                                    "end": round(end - t0, 9), "id": span_id,
                                    "parent": parent, "thread": thread}) + "\n")

