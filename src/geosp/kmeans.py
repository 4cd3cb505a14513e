"""Geodesic graph k-means: k-means++ seeding, nearest-centroid groups, medoid updates.

Centroids are always graph vertices (medoids). k-means++ seeding lowers one
nearest-centroid field with a bounded Dijkstra per new centroid, which visits
only the vertices that move closer (the graph form of triangle-inequality
pruning for k-means++, Raff, IJCAI 2021). Assignment uses multi-source
geodesic distances; each centroid update finds the exact medoid of its
cluster (the vertex minimizing the distance sum within the cluster's induced
subgraph) by Dijkstra runs from a few members, pruning the rest with
triangle-inequality lower bounds (Newling & Fleuret, AISTATS 2017). The first
of those runs, from the previous centroid, is read from the assignment's
distance field. A cluster of c vertices costs O(c^2) memory and typically
about a dozen Dijkstras at a few hundred vertices, against O(c^3) for all
pairs. All tie-breaking is by smallest index (centroid list position for
assignment, vertex index for medoids), which makes runs bit-reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .surface_graph import (SurfaceGraph, _dijkstra, _induced_adjacency, multi_source_sssp,
                            sssp)


@dataclass
class KmeansConfig:
    k: int
    max_iterations: int = 20
    convergence_tolerance_mm: float = 2.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.convergence_tolerance_mm <= 0:
            raise ValueError("convergence tolerance must be positive")


@dataclass
class KmeansResult:
    """Final grouping plus run diagnostics."""

    groups: list[np.ndarray]           # per-cluster sorted vertex index arrays
    assignment: np.ndarray             # per-vertex cluster id in [0, k)
    centroids: list[int]               # centroids after the last update step
    iterations: int
    converged_by_tolerance: bool
    last_shift_mm: float
    euclidean_fallbacks: int           # vertices ever assigned by the Euclidean fallback
    energy_history: list[float] = field(default_factory=list)


def kmeanspp_init(graph: SurfaceGraph, k: int, rng_seed: int) -> list[int]:
    """k-means++ seeding with geodesic D(x): first centroid uniform, then each
    new centroid drawn with probability proportional to D(x)^2, where D(x) is
    the geodesic distance to the nearest chosen centroid.

    Vertices unreachable from every chosen centroid get D(x) = (max finite
    distance) + 1 mm so they stay selectable. Deterministic given rng_seed.

    Each new centroid's Dijkstra starts from the current nearest field as its
    bound (sssp's `bound`), so it visits only the vertices it brings closer
    and returns exactly the minimum a full run would give.
    """
    n = graph.vertex_count
    if not 1 <= k <= n:
        raise ValueError(f"k={k} must be in [1, {n}]")
    rng = np.random.default_rng(rng_seed)
    first = int(rng.integers(n))
    centroids = [first]
    nearest = sssp(graph, first).dist
    for _ in range(k - 1):
        d = nearest.copy()
        missing = np.isinf(d)
        if missing.any():
            d[missing] = d[~missing].max() + 1.0
        cum = np.cumsum(d * d)
        r = rng.random() * cum[-1]
        nxt = int(np.searchsorted(cum, r, side="right"))
        nxt = min(nxt, n - 1)
        centroids.append(nxt)
        nearest = sssp(graph, nxt, nearest).dist
    return centroids


def _assign(graph: SurfaceGraph, centroids: list[int]):
    """Nearest-centroid assignment; returns (assignment, fallback count, distances)."""
    field_ = multi_source_sssp(graph, centroids)
    lookup = np.full(graph.vertex_count, -1, dtype=np.int64)
    lookup[np.asarray(centroids)] = np.arange(len(centroids))
    assignment = np.where(field_.nearest_source >= 0,
                          lookup[field_.nearest_source], -1)
    unreached = np.flatnonzero(assignment < 0)
    if len(unreached):
        # Geodesically isolated vertices fall back to ambient Euclidean distance.
        cpos = graph.positions[np.asarray(centroids)]
        diffs = graph.positions[unreached, None, :] - cpos[None, :, :]
        assignment[unreached] = np.argmin(np.einsum("ijk,ijk->ij", diffs, diffs), axis=1)
    return assignment, len(unreached), field_.dist


def calc_groups(graph: SurfaceGraph, centroids: list[int]) -> tuple[np.ndarray, int]:
    """Assign each vertex to the geodesically closest centroid.

    Ties go to the centroid earliest in the list. Vertices unreachable from
    every centroid are assigned by smallest Euclidean distance instead; the
    second return value counts them.
    """
    assignment, fallbacks, _ = _assign(graph, centroids)
    return assignment, fallbacks


# A candidate is pruned only when its lower bound exceeds the best sum by
# more than this share of 2*c*ecc, the largest sum any member can have (c
# members, every distance at most twice the anchor's eccentricity ecc).
# Rounding in a distance or a sum grows like (edges on a path) * 2**-53 of
# that scale, far below 1e-9 on any mesh, so an exact or ULP-close tie is
# always evaluated.
_PRUNE_PAD = 1e-9


def _cluster_medoid(graph: SurfaceGraph, ids: np.ndarray, previous_centroid: int,
                    dist: np.ndarray | None = None) -> int:
    """Exact medoid of one cluster: the member with the smallest distance sum
    within the cluster-induced subgraph, ties to the smallest vertex index.

    Members are evaluated one Dijkstra at a time: first the previous
    centroid, then the member farthest from it, then the member farthest
    from both; after that the open candidate with the smallest lower bound.
    gap[j, x] = max over evaluated sources s of |d(s,j) - d(s,x)| is at most
    d(x,j) by the triangle inequality, so its column sum bounds x's distance
    sum from below, and x is pruned once that bound exceeds the best sum
    (padded by _PRUNE_PAD). The search stops when no candidate is open.
    Memory: two c x c float64 buffers at the first step (c = component
    size), 16*c^2 bytes, shrinking as candidates are pruned.

    If the subgraph is disconnected, only the component holding the
    previous centroid counts; without the previous centroid in the cluster
    that raises ValueError.

    `dist`, if given, is the multi-source field the cluster was assigned
    from (see comp_centroids). When the cluster holds its previous centroid,
    dist[ids] is used as that centroid's row instead of a Dijkstra run.
    """
    m = len(ids)
    if m == 1:
        return int(ids[0])
    adjacency = _induced_adjacency(graph, ids)
    where_prev = int(np.searchsorted(ids, previous_centroid))
    anchored = where_prev < m and ids[where_prev] == previous_centroid
    anchor = where_prev if anchored else 0
    if anchored and dist is not None:
        first = dist[ids]
    else:
        first = np.asarray(_dijkstra(adjacency, [anchor])[0])
    sel = np.flatnonzero(np.isfinite(first))
    if not anchored and len(sel) < m:
        raise ValueError("disconnected cluster without its previous centroid")
    c = len(sel)
    if c == 1:
        return int(ids[anchor])

    # Positions below index into sel, whose order is vertex-index order.
    row = first[sel]
    pad = _PRUNE_PAD * 2 * c * row.max()
    open_ = np.arange(c)
    gap = 0.0  # becomes the (c, len(open_)) bound matrix
    near = np.full(c, np.inf)
    best_sum, best = np.inf, -1
    p = int(np.searchsorted(sel, anchor))
    for evaluated in range(1, c + 1):
        total = row.sum()
        if total < best_sum or (total == best_sum and p < best):
            best_sum, best = total, p
        # In place, so at most two (c, len(open_)) buffers are ever alive.
        diff = np.subtract.outer(row, row[open_])
        gap = np.maximum(np.abs(diff, out=diff), gap, out=diff)
        del diff
        lower = gap.sum(axis=0)
        keep = (lower <= best_sum + pad) & (open_ != p)
        # compress keeps gap C-ordered, as the next update expects for speed.
        open_, gap, lower = open_[keep], gap.compress(keep, axis=1), lower[keep]
        if not len(open_):
            break
        if evaluated < 3:
            near = np.minimum(near, row)
            p = int(np.argmax(near))
        else:
            p = int(open_[np.argmin(lower)])
        row = np.asarray(_dijkstra(adjacency, [int(sel[p])])[0])[sel]
    return int(ids[sel[best]])


def comp_centroids(graph: SurfaceGraph, assignment: np.ndarray,
                   centroids: list[int], dist: np.ndarray | None = None) -> list[int]:
    """Recompute each cluster's centroid as its exact medoid.

    The medoid minimizes the sum of geodesic distances within the cluster's
    induced subgraph; ties go to the smallest vertex index. It comes from a
    pruned search (see _cluster_medoid): Dijkstra from the previous centroid
    and a few far members, then from the candidates whose lower bound could
    still win, with O(c^2) memory for a cluster of c vertices. For a
    disconnected cluster subgraph the medoid is taken on the component
    containing that cluster's previous centroid. Clusters are processed one
    after another in cluster-id order.

    `dist` is optional: the multi-source field that `assignment` came from
    (multi_source_sssp over `centroids`, as parallel_kmeans computes it).
    In that run a vertex's final source is its parent's, so the path behind
    dist[v] stays inside v's cluster and dist restricted to a cluster equals
    the induced-subgraph distances from its centroid bit for bit. With it,
    each cluster that holds its previous centroid skips that centroid's
    Dijkstra; without it, or for a cluster that lacks its previous centroid,
    the row is computed.
    """
    k = len(centroids)
    clusters = []
    for i in range(k):
        ids = np.flatnonzero(assignment == i)
        if len(ids) == 0:
            raise ValueError(f"cluster {i} is empty")
        clusters.append(ids)
    return [_cluster_medoid(graph, ids, c, dist) for ids, c in zip(clusters, centroids)]


def max_centroid_shift_mm(old: list[int], new: list[int], graph: SurfaceGraph) -> float:
    """Largest Euclidean move between paired old/new centroid positions."""
    if len(old) != len(new):
        raise ValueError("centroid lists must have equal length")
    delta = graph.positions[np.asarray(old)] - graph.positions[np.asarray(new)]
    return float(np.linalg.norm(delta, axis=1).max())


def stop_criterion(old_centroids: list[int], new_centroids: list[int],
                   graph: SurfaceGraph, iteration: int, config: KmeansConfig) -> bool:
    """Stop when every centroid moved less than the tolerance (default 2 mm)
    or the iteration cap (default 20) is reached."""
    if max_centroid_shift_mm(old_centroids, new_centroids, graph) < config.convergence_tolerance_mm:
        return True
    return iteration >= config.max_iterations


def parallel_kmeans(graph: SurfaceGraph, config: KmeansConfig) -> KmeansResult:
    """Full clustering loop: seed, then alternate assignment and medoid updates
    until centroids move less than the tolerance or the iteration cap hits.

    k=1 short-circuits to a single group holding every vertex. The returned
    groups always partition the vertex set and are identical across reruns
    with the same inputs. Each medoid update reuses the assignment's
    distance field (see comp_centroids).
    """
    n = graph.vertex_count
    if config.k > n:
        raise ValueError(f"k={config.k} exceeds vertex count {n}")
    if config.k == 1:
        return KmeansResult(groups=[np.arange(n)], assignment=np.zeros(n, dtype=np.int64),
                            centroids=[], iterations=0, converged_by_tolerance=False,
                            last_shift_mm=0.0, euclidean_fallbacks=0)

    centroids = kmeanspp_init(graph, config.k, config.rng_seed)
    total_fallbacks = 0
    energy: list[float] = []
    iteration = 0
    shift = float("inf")
    converged = False
    assignment = None
    for iteration in range(1, config.max_iterations + 1):
        assignment, fallbacks, dist = _assign(graph, centroids)
        # Each centroid is at distance 0 from itself and every edge weight is
        # positive, so no other centroid can claim it: no cluster is empty.
        if not np.bincount(assignment, minlength=config.k).all():
            raise AssertionError("assignment left a cluster empty")
        total_fallbacks += fallbacks
        energy.append(float(dist[np.isfinite(dist)].sum()))

        new_centroids = comp_centroids(graph, assignment, centroids, dist)
        shift = max_centroid_shift_mm(centroids, new_centroids, graph)
        converged = stop_criterion(centroids, new_centroids, graph, iteration, config)
        centroids = new_centroids
        if converged:
            break

    groups = [np.flatnonzero(assignment == i) for i in range(config.k)]
    return KmeansResult(groups=groups, assignment=assignment, centroids=centroids,
                        iterations=iteration,
                        converged_by_tolerance=shift < config.convergence_tolerance_mm,
                        last_shift_mm=shift, euclidean_fallbacks=total_fallbacks,
                        energy_history=energy)
