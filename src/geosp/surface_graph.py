"""Weighted surface graph and shortest-path primitives (SSSP, multi-source, APSP).

Every shortest path comes from one kernel, `_sweep`: label-correcting
relaxation in numpy rounds over the graph's CSR arrays, each round relaxing
only the out-edges of the vertices that changed in the round before. Its
fixpoint is the heap Dijkstra's result bit for bit (oracles.oracle_dijkstra
is that reference). Nearest sources come after the distances, from one pass
of the same rounds over the tight edges (`_nearest`). One sweep from many
sources costs about as much as one from a single source, so callers batch:
`cut_graph` removes the edges between labels, after which one sweep with one
source per label gives every label its own distances (kmeans runs every
region and cluster this way).

The graph's edges are exactly the unique triangle edges of the mesh, weighted
by the Euclidean distance between their endpoints, so shortest paths measure
geodesic distance along the surface rather than straight-line distance.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .mesh_io import TriangleMesh

UNREACHABLE = np.inf
MIN_EDGE_WEIGHT_MM = 1e-9
APSP_VERTEX_CAP = 20000


class SurfaceGraph:
    """Undirected weighted graph over mesh vertices; immutable after construction.

    Stores a symmetric CSR adjacency plus the vertex positions (mm). All
    shortest-path operations are read-only.
    """

    def __init__(self, positions, edge_u, edge_v, edge_weights):
        positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
        u = np.asarray(edge_u, dtype=np.int64).ravel()
        v = np.asarray(edge_v, dtype=np.int64).ravel()
        w = np.asarray(edge_weights, dtype=np.float64).ravel()
        n = len(positions)
        if not (len(u) == len(v) == len(w)):
            raise ValueError("edge arrays must have equal length")
        if len(u) and (u.min() < 0 or v.min() < 0 or u.max() >= n or v.max() >= n):
            raise ValueError("edge endpoint out of range")
        if np.any(u == v):
            raise ValueError("self-loops are not allowed")
        if not np.all(w > 0):  # also refuses NaN
            raise ValueError("edge weights must be positive")

        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        # One int64 key per edge sorts like its (lo, hi) row. Stable argsort
        # is a merge of runs, so keys that come sorted (build_graph's) cost
        # one pass; duplicates end up side by side.
        key = lo * n + hi
        order = np.argsort(key, kind="stable")
        key = key[order]
        if np.any(key[1:] == key[:-1]):
            raise ValueError("duplicate edges are not allowed")
        self._eu = lo[order]
        self._ev = hi[order]
        self._ew = w[order]

        du = np.concatenate([self._eu, self._ev])
        dv = np.concatenate([self._ev, self._eu])
        dw = np.concatenate([self._ew, self._ew])
        idx = np.argsort(du * n + dv, kind="stable")  # keys are unique: the (du, dv) order
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(du, minlength=n), out=self.indptr[1:])
        self.neighbor_indices = dv[idx]
        self.neighbor_weights = dw[idx]
        self.positions = positions
        self.vertex_count = n

    @property
    def edge_count(self) -> int:
        return len(self._eu)

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical undirected edge arrays (u, v, w) with u < v."""
        return self._eu, self._ev, self._ew

    def neighbors(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[u], self.indptr[u + 1]
        return self.neighbor_indices[lo:hi], self.neighbor_weights[lo:hi]


@dataclass
class DistanceField:
    """Geodesic distances from one source (or the minimum over several).

    dist is per-vertex distance in mm with UNREACHABLE (inf) for vertices in
    other components. For multi-source fields, nearest_source[v] holds the
    source vertex achieving the minimum (-1 where unreachable).
    """

    sources: tuple[int, ...]
    dist: np.ndarray
    nearest_source: np.ndarray | None = None


def build_graph(mesh: TriangleMesh) -> SurfaceGraph:
    """Graph whose edges are the mesh's unique triangle edges, weighted by length.

    Coincident endpoints give zero-length edges; those are clamped to
    MIN_EDGE_WEIGHT_MM so weights stay strictly positive.
    """
    t = mesh.triangles
    if len(t):
        e = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        e.sort(axis=1)
        # One int64 key per edge sorts like its (lo, hi) row.
        n = mesh.vertex_count
        key = _distinct(e[:, 0] * n + e[:, 1])
        lo, hi = key // n, key % n
        w = np.linalg.norm(mesh.vertices[lo] - mesh.vertices[hi], axis=1)
        w = np.maximum(w, MIN_EDGE_WEIGHT_MM)
    else:
        lo = hi = np.empty(0, dtype=np.int64)
        w = np.empty(0, dtype=np.float64)
    return SurfaceGraph(mesh.vertices, lo, hi, w)


def induced_subgraph(graph: SurfaceGraph, vertex_ids) -> SurfaceGraph:
    """Subgraph induced on a sorted set of vertex ids, reindexed to 0..len-1."""
    ids = np.asarray(vertex_ids, dtype=np.int64)
    if len(ids) == 0:
        raise ValueError("vertex set is empty")
    if np.any(np.diff(ids) <= 0):
        raise ValueError("vertex ids must be sorted and unique")
    lookup = np.full(graph.vertex_count, -1, dtype=np.int64)
    lookup[ids] = np.arange(len(ids))
    eu, ev, ew = graph.edges()
    keep = (lookup[eu] >= 0) & (lookup[ev] >= 0)
    return SurfaceGraph(graph.positions[ids], lookup[eu[keep]], lookup[ev[keep]], ew[keep])


def extract_region_subgraph(graph: SurfaceGraph, labels,
                            region: int) -> tuple[SurfaceGraph, np.ndarray]:
    """Subgraph induced on vertices labeled `region`, plus the local->global index map."""
    labels = np.asarray(labels)
    ids = np.flatnonzero(labels == region)
    if len(ids) == 0:
        raise ValueError(f"region {region} not present in labels")
    return induced_subgraph(graph, ids), ids


def cut_graph(graph: SurfaceGraph, labels) -> SurfaceGraph:
    """`graph` without the edges whose two endpoints carry different labels.

    Vertices, positions and the order of the edges that stay are kept, so a
    shortest path in the result never leaves the label it starts in: one
    sweep from one source per label gives each label its own distances.
    """
    labels = np.asarray(labels)
    if len(labels) != graph.vertex_count:
        raise ValueError(f"{len(labels)} labels for {graph.vertex_count} vertices")
    eu, ev, ew = graph.edges()
    same = labels[eu] == labels[ev]
    slot_same = np.repeat(labels, np.diff(graph.indptr)) == labels[graph.neighbor_indices]
    kept_before = np.concatenate([[0], np.cumsum(slot_same)])
    cut = copy.copy(graph)
    cut._eu, cut._ev, cut._ew = eu[same], ev[same], ew[same]
    cut.indptr = kept_before[graph.indptr]
    cut.neighbor_indices = graph.neighbor_indices[slot_same]
    cut.neighbor_weights = graph.neighbor_weights[slot_same]
    return cut


def _check_sources(graph: SurfaceGraph, sources) -> np.ndarray:
    given = np.asarray(sources).reshape(-1)
    n = graph.vertex_count
    if not len(given):
        raise ValueError("source list is empty")
    if given.dtype.kind == "f":  # a cast to int64 would truncate
        fraction = given[given != np.trunc(given)]  # NaN too
        if len(fraction):
            raise ValueError(f"source vertex {fraction[0]} is not a whole number")
    bad = given[(given < 0) | (given >= n)]
    if len(bad):
        raise ValueError(f"source vertex {bad[0]} out of range [0, {n})")
    src = given.astype(np.int64)
    if len(np.unique(src)) != len(src):
        raise ValueError("duplicate sources are not allowed")
    return src


def _out_edges(graph: SurfaceGraph, frontier: np.ndarray):
    """(counts, v, w) for the out-edges u -> v of the vertices in `frontier`:
    counts[i] edges of frontier[i], in frontier order."""
    starts = graph.indptr[frontier]
    counts = graph.indptr[frontier + 1] - starts
    ends = np.cumsum(counts)
    slots = np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts)
    return counts, graph.neighbor_indices[slots], graph.neighbor_weights[slots]


def _distinct(v: np.ndarray) -> np.ndarray:
    """The values of `v` once each, ascending; sorts v in place."""
    v.sort()
    first = np.ones(len(v), dtype=bool)
    np.not_equal(v[1:], v[:-1], out=first[1:])
    return v[first]


def _sweep(graph: SurfaceGraph, sources: np.ndarray, bound=None) -> np.ndarray:
    """Shortest-path distances from several sources at once, the one
    shortest-path kernel: per vertex, the minimum distance over the sources.

    Label correcting in rounds: each round relaxes the out-edges of the
    vertices whose distance dropped in the round before, so a round costs
    the frontier's edges, never the whole graph. It stops at the fixpoint
    dist[v] = min over edges (u, v) of fl(dist[u] + w). Float addition is
    monotone, and fl(d + w) > d whenever w is above the rounding step of d
    (MIN_EDGE_WEIGHT_MM is, for every distance below 10**6 mm), so that
    fixpoint is unique: it is what a heap Dijkstra returns, bit for bit.
    Sources are not checked here.

    `bound`, per-vertex distances, starts dist there instead of at
    UNREACHABLE: the result is np.minimum(bound, field) whenever bound[v] <=
    bound[u] + w on every edge, and only vertices that drop below their
    bound are visited.
    """
    dist = (np.full(graph.vertex_count, UNREACHABLE) if bound is None
            else np.array(bound, dtype=np.float64))
    dist[sources] = 0.0
    frontier = sources
    while len(frontier):
        counts, v, w = _out_edges(graph, frontier)
        nd = np.repeat(dist[frontier], counts) + w
        better = nd < dist[v]
        v = v[better]
        np.minimum.at(dist, v, nd[better])
        frontier = _distinct(v)
    return dist


def _nearest(graph: SurfaceGraph, sources: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Per vertex, the position in `sources` of its nearest source under the
    final field `dist` (_sweep from `sources`), -1 where unreachable.

    Exact ties go to the smaller position, as in a heap Dijkstra: a vertex
    takes the smallest position among its tight predecessors, the u with
    fl(dist[u] + w) == dist[v]. Tight edges strictly raise the distance, so
    they form a DAG and this minimum, propagated from the sources in rounds
    like _sweep's, has one fixpoint. Positions must follow the final
    distances: a vertex can tie through an edge at one distance and keep a
    smaller position than its predecessor's once that distance drops.
    """
    pos = np.where(np.isfinite(dist), np.iinfo(np.int64).max, -1)
    pos[sources] = np.arange(len(sources))
    frontier = sources
    while len(frontier):
        counts, v, w = _out_edges(graph, frontier)
        p = np.repeat(pos[frontier], counts)
        better = (np.repeat(dist[frontier], counts) + w == dist[v]) & (p < pos[v])
        v = v[better]
        np.minimum.at(pos, v, p[better])
        frontier = _distinct(v)
    return pos


def sssp(graph: SurfaceGraph, source, bound=None) -> DistanceField:
    """Exact shortest-path distances from one source vertex, or the minimum
    over several.

    Several sources in different components (k-means++ seeding passes one
    new centroid per block of a block graph) give each component the
    distances from its own source, in one sweep.

    With `bound` (per-vertex distances), returns exactly
    np.minimum(bound, sssp(graph, source).dist), visiting only the vertices
    whose distance drops below their bound. This needs bound[v] <=
    bound[u] + w on every edge, which holds for UNREACHABLE and for the
    minimum of earlier sssp fields on this graph (k-means++ seeding passes
    its nearest-centroid field). Then a path through a vertex it does not
    improve cannot improve anything after it, since float addition is
    monotone.
    """
    src = _check_sources(graph, source)
    if bound is not None:
        bound = np.asarray(bound, dtype=np.float64)
        if bound.ndim != 1:
            raise ValueError(f"bound must be 1-D, not of shape {bound.shape}")
        if len(bound) != graph.vertex_count:
            raise ValueError(f"bound has {len(bound)} entries for {graph.vertex_count} vertices")
        if not np.all(bound >= 0):  # also refuses NaN
            raise ValueError("bound entries must be distances >= 0 (inf where unreached)")
    return DistanceField(tuple(src.tolist()), _sweep(graph, src, bound))


def multi_source_sssp(graph: SurfaceGraph, sources) -> DistanceField:
    """Per-vertex minimum geodesic distance over several sources.

    nearest_source holds the winning source vertex; exact distance ties go to
    the source earliest in the `sources` list.
    """
    src = _check_sources(graph, sources)
    dist = _sweep(graph, src)
    pos = _nearest(graph, src, dist)
    nearest = np.where(pos >= 0, src[pos], -1)
    return DistanceField(tuple(src.tolist()), dist, nearest)


def apsp(graph: SurfaceGraph, max_vertices: int = APSP_VERTEX_CAP) -> np.ndarray:
    """Dense all-pairs geodesic distance matrix, one sweep per source vertex.

    Row i holds sssp(graph, i).dist. O(|V|^2) memory; refuses graphs above
    max_vertices to guard against an accidental whole-cortex call.
    Unreachable pairs carry UNREACHABLE. k-means does not use it: medoids
    come from a pruned search (kmeans.comp_centroids).
    """
    n = graph.vertex_count
    if n > max_vertices:
        raise ValueError(f"graph has {n} vertices, above the APSP cap of {max_vertices}")
    return np.array([_sweep(graph, np.array([s])) for s in range(n)]).reshape(n, n)
