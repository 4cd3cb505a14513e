"""Reference implementations used to cross-check the fast paths.

These deliberately share no shortest-path code with surface_graph, whose one
frontier relaxation kernel serves every fast path. oracle_dijkstra is a heap
Dijkstra over per-vertex Python lists, the bit-exact reference for that
kernel's distances and nearest sources. Single-source distances and medoids
also come from whole-edge-array relaxation sweeps (Bellman-Ford style, no
priority queue), and all-pairs distances from dense Floyd-Warshall. They are
meant for graphs of a few hundred vertices.
"""
from __future__ import annotations

from heapq import heapify, heappop, heappush

import numpy as np

from .surface_graph import (APSP_VERTEX_CAP, DistanceField, SurfaceGraph, UNREACHABLE,
                            induced_subgraph)


def oracle_dijkstra(graph: SurfaceGraph, sources) -> tuple[np.ndarray, np.ndarray]:
    """Heap Dijkstra from one or more sources.

    Returns per-vertex (dist, pos): the minimum distance over the sources and
    the position in `sources` of the source achieving it (-1 where
    unreachable); exact distance ties go to the earlier position.
    """
    ends = graph.indptr.tolist()
    nbrs, wts = graph.neighbor_indices.tolist(), graph.neighbor_weights.tolist()
    adjacency = [(nbrs[a:b], wts[a:b]) for a, b in zip(ends[:-1], ends[1:])]
    n = graph.vertex_count
    src = [int(s) for s in sources]
    dist = [UNREACHABLE] * n
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
        p = pos[u]
        for v, w in zip(*adjacency[u]):
            nd = d + w
            if nd <= dist[v] and (nd < dist[v] or p < pos[v]):
                dist[v] = nd
                pos[v] = p
                heappush(heap, (nd, v))
    return np.asarray(dist, dtype=np.float64), np.asarray(pos, dtype=np.int64)


def oracle_sssp(graph: SurfaceGraph, source: int) -> DistanceField:
    """Single-source distances by relaxing every edge until a fixed point."""
    n = graph.vertex_count
    source = int(source)
    if not 0 <= source < n:
        raise ValueError(f"source vertex {source} out of range [0, {n})")
    eu, ev, ew = graph.edges()
    u2 = np.concatenate([eu, ev])
    v2 = np.concatenate([ev, eu])
    w2 = np.concatenate([ew, ew])
    dist = np.full(n, UNREACHABLE)
    dist[source] = 0.0
    while True:
        nd = dist.copy()
        np.minimum.at(nd, v2, dist[u2] + w2)
        if np.array_equal(nd, dist):
            return DistanceField((source,), dist)
        dist = nd


def oracle_apsp(graph: SurfaceGraph, max_vertices: int = APSP_VERTEX_CAP) -> np.ndarray:
    """Dense all-pairs geodesic distance matrix via Floyd-Warshall.

    O(|V|^3) time and O(|V|^2) memory; refuses graphs above max_vertices to
    guard against an accidental whole-cortex call. Unreachable pairs carry
    UNREACHABLE.
    """
    n = graph.vertex_count
    if n > max_vertices:
        raise ValueError(f"graph has {n} vertices, above the APSP cap of {max_vertices}")
    d = np.full((n, n), UNREACHABLE)
    np.fill_diagonal(d, 0.0)
    eu, ev, ew = graph.edges()
    d[eu, ev] = ew
    d[ev, eu] = ew
    for k in range(n):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return d


def oracle_medoid(graph: SurfaceGraph, cluster, previous_centroid: int | None = None) -> int:
    """Cluster member minimizing the sum of geodesic distances to the others.

    Distances are taken within the cluster-induced subgraph. If that subgraph
    is disconnected, the medoid is found on the component holding
    previous_centroid. Ties go to the smallest vertex index.
    """
    ids = np.unique(np.asarray(cluster, dtype=np.int64))
    if len(ids) == 0:
        raise ValueError("cluster is empty")
    if len(ids) == 1:
        return int(ids[0])
    sub = induced_subgraph(graph, ids)

    anchored = previous_centroid is not None and int(previous_centroid) in set(ids.tolist())
    anchor = int(np.searchsorted(ids, previous_centroid)) if anchored else 0
    reach = np.isfinite(oracle_sssp(sub, anchor).dist)
    members = np.flatnonzero(reach)
    if not anchored and len(members) != len(ids):
        raise ValueError("cluster subgraph is disconnected and no previous centroid given")
    sums = np.array([oracle_sssp(sub, int(c)).dist[members].sum() for c in members])
    return int(ids[members[int(np.argmin(sums))]])
