"""Weighted surface graph and shortest-path primitives (SSSP, multi-source, APSP).

Every shortest path comes from one heap loop, `_dijkstra`, which runs on
per-vertex adjacency lists: the whole graph's (`SurfaceGraph._adjacency`) or
a vertex subset's (`_induced_adjacency`, for k-means medoids).

The graph's edges are exactly the unique triangle edges of the mesh, weighted
by the Euclidean distance between their endpoints, so shortest paths measure
geodesic distance along the surface rather than straight-line distance.
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

import numpy as np

from .mesh_io import TriangleMesh

UNREACHABLE = np.inf
MIN_EDGE_WEIGHT_MM = 1e-9
APSP_VERTEX_CAP = 20000


class SurfaceGraph:
    """Undirected weighted graph over mesh vertices; immutable after construction.

    Stores a symmetric CSR adjacency plus the vertex positions (mm). All
    shortest-path operations are read-only, so one graph serves every region
    or hemisphere task.
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
        key = lo * n + hi
        if len(np.unique(key)) != len(key):
            raise ValueError("duplicate edges are not allowed")
        order = np.argsort(key, kind="stable")
        self._eu = lo[order]
        self._ev = hi[order]
        self._ew = w[order]

        du = np.concatenate([self._eu, self._ev])
        dv = np.concatenate([self._ev, self._eu])
        dw = np.concatenate([self._ew, self._ew])
        idx = np.lexsort((dv, du))
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(du, minlength=n), out=self.indptr[1:])
        self.neighbor_indices = dv[idx]
        self.neighbor_weights = dw[idx]
        self.positions = positions
        self.vertex_count = n
        self._adj = None

    @property
    def edge_count(self) -> int:
        return len(self._eu)

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical undirected edge arrays (u, v, w) with u < v."""
        return self._eu, self._ev, self._ew

    def neighbors(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[u], self.indptr[u + 1]
        return self.neighbor_indices[lo:hi], self.neighbor_weights[lo:hi]

    def _adjacency(self) -> tuple[list[list[int]], list[list[float]]]:
        # Per-vertex neighbor and weight lists: the Dijkstra loop zips these
        # faster than it indexes numpy arrays or flat CSR lists. Neighbor
        # lists share one int object per vertex, so the cache stays about as
        # small as flat lists.
        if self._adj is None:
            ids = list(range(self.vertex_count))
            self._adj = _per_vertex_lists(self.indptr,
                                          list(map(ids.__getitem__, self.neighbor_indices.tolist())),
                                          self.neighbor_weights.tolist())
        return self._adj


def _per_vertex_lists(indptr, neighbors: list, weights: list):
    """Split flat CSR neighbor and weight lists into one list per vertex."""
    ends = indptr.tolist()
    bounds = list(zip(ends[:-1], ends[1:]))
    return [neighbors[a:b] for a, b in bounds], [weights[a:b] for a, b in bounds]


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
        key = np.unique(e[:, 0] * n + e[:, 1])
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


def _induced_adjacency(graph: SurfaceGraph, ids: np.ndarray):
    """Adjacency lists of the subgraph induced on sorted, unique `ids`,
    reindexed to 0..len-1, read straight from the graph's CSR arrays.

    Equals `induced_subgraph(graph, ids)._adjacency()` (neighbors stay in
    ascending order) without building a SurfaceGraph.
    """
    lookup = np.full(graph.vertex_count, -1, dtype=np.int64)
    lookup[ids] = np.arange(len(ids))
    starts = graph.indptr[ids]
    counts = graph.indptr[ids + 1] - starts
    slots = np.arange(counts.sum()) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
    local = lookup[graph.neighbor_indices[slots]]
    keep = local >= 0
    indptr = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(np.bincount(np.repeat(np.arange(len(ids)), counts)[keep], minlength=len(ids)),
              out=indptr[1:])
    return _per_vertex_lists(indptr, local[keep].tolist(),
                             graph.neighbor_weights[slots[keep]].tolist())


def extract_region_subgraph(graph: SurfaceGraph, labels,
                            region: int) -> tuple[SurfaceGraph, np.ndarray]:
    """Subgraph induced on vertices labeled `region`, plus the local->global index map."""
    labels = np.asarray(labels)
    ids = np.flatnonzero(labels == region)
    if len(ids) == 0:
        raise ValueError(f"region {region} not present in labels")
    return induced_subgraph(graph, ids), ids


def _dijkstra(adjacency, sources, bound=None) -> tuple[list[float], list[int]]:
    """Heap Dijkstra from one or more sources, the one shortest-path loop.

    `adjacency` is a pair of per-vertex neighbor and weight lists. Returns
    per-vertex (dist, pos): the minimum distance over the sources and the
    position in `sources` of the source achieving it (-1 where unreachable);
    exact distance ties go to the earlier position.

    `bound`, a per-vertex list, starts dist there instead of at UNREACHABLE;
    a vertex keeps pos -1 unless some source improves on its bound strictly.
    Only improved vertices are pushed, so the run visits just those.
    """
    adj_nbrs, adj_wts = adjacency
    n = len(adj_nbrs)
    src = [int(s) for s in sources]
    if not src:
        raise ValueError("source list is empty")
    if len(set(src)) != len(src):
        raise ValueError("duplicate sources are not allowed")
    for s in src:
        if not 0 <= s < n:
            raise ValueError(f"source vertex {s} out of range [0, {n})")

    dist = [UNREACHABLE] * n if bound is None else list(bound)
    pos = [-1] * n
    heap = []
    for p, s in enumerate(src):
        dist[s] = 0.0
        pos[s] = p
        heap.append((0.0, s))
    heapify(heap)
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        # Weights are positive, so every vertex that can lower u's distance or
        # tie it from an earlier source was popped before u: pos[u] is final.
        p = pos[u]
        for v, w in zip(adj_nbrs[u], adj_wts[u]):
            nd = d + w
            # An edge that does not improve v costs a single comparison. A tie
            # with a bound (pos -1) is not an improvement.
            if nd <= dist[v] and (nd < dist[v] or p < pos[v]):
                dist[v] = nd
                pos[v] = p
                heappush(heap, (nd, v))
    return dist, pos


def sssp(graph: SurfaceGraph, source: int, bound=None) -> DistanceField:
    """Exact single-source shortest paths (Dijkstra on a binary heap).

    With `bound` (per-vertex distances), returns exactly
    np.minimum(bound, sssp(graph, source).dist), visiting only the vertices
    whose distance drops below their bound. This needs bound[v] <=
    bound[u] + w on every edge, which holds for UNREACHABLE and for the
    minimum of earlier sssp fields on this graph (k-means++ seeding passes
    its nearest-centroid field). Then a path through a vertex it does not
    improve cannot improve anything after it, since float addition is
    monotone.
    """
    if bound is not None:
        bound = np.asarray(bound, dtype=np.float64).tolist()
        if len(bound) != graph.vertex_count:
            raise ValueError(f"bound has {len(bound)} entries for {graph.vertex_count} vertices")
    dist, _pos = _dijkstra(graph._adjacency(), [source], bound)
    return DistanceField((int(source),), np.asarray(dist))


def multi_source_sssp(graph: SurfaceGraph, sources) -> DistanceField:
    """Per-vertex minimum geodesic distance over several sources.

    nearest_source holds the winning source vertex; exact distance ties go to
    the source earliest in the `sources` list.
    """
    src = [int(s) for s in sources]
    dist, pos = _dijkstra(graph._adjacency(), src)
    pos_arr = np.asarray(pos)
    nearest = np.full(graph.vertex_count, -1, dtype=np.int64)
    reached = pos_arr >= 0
    nearest[reached] = np.asarray(src)[pos_arr[reached]]
    return DistanceField(tuple(src), np.asarray(dist), nearest)


def apsp(graph: SurfaceGraph, max_vertices: int = APSP_VERTEX_CAP) -> np.ndarray:
    """Dense all-pairs geodesic distance matrix, one Dijkstra row per vertex.

    Row i holds sssp(graph, i).dist. O(|V|^2) memory; refuses graphs above
    max_vertices to guard against an accidental whole-cortex call.
    Unreachable pairs carry UNREACHABLE. k-means does not use it: medoids
    come from a pruned search (kmeans._cluster_medoid).
    """
    n = graph.vertex_count
    if n > max_vertices:
        raise ValueError(f"graph has {n} vertices, above the APSP cap of {max_vertices}")
    adjacency = graph._adjacency()
    return np.array([_dijkstra(adjacency, [s])[0] for s in range(n)]).reshape(n, n)
