"""Geodesic graph k-means: k-means++ seeding, nearest-centroid groups, medoid updates.

Centroids are always graph vertices (medoids). Every function runs on
blocks: disjoint vertex sets of one graph that no edge joins (the parcellator
passes one block per atlas region or hemisphere, over the mesh graph with
the edges between labels cut). One shortest-path sweep from one source per
block then gives every block its own distances, so all blocks advance in
lockstep: k-means++ step t is one bounded sweep from the t-th centroid of
every block that still seeds, an assignment is one multi-source sweep, and a
medoid round is one sweep over the intra-cluster edges from one source per
still-open cluster. Each block keeps its own KmeansConfig (k, RNG seed,
iteration cap, tolerance), iteration count and stop test, so its result is
what it would be alone. A whole graph is one block of all its vertices.

Seeding prunes by the triangle inequality (Raff, IJCAI 2021): each step's
sweep is bounded by the nearest-centroid field. Medoids are exact but found
from the distance rows of a few members, the rest pruned by
triangle-inequality lower bounds (Newling & Fleuret, AISTATS 2017). The
first three rows of every cluster are handled in one batched pass: with the
clusters laid out side by side, the one- and two-row bounds of every member
have closed forms, sum_j |a_j - a_x| from a row-wise sort and prefix sums,
and sum_j max(|da|, |db|) = (sum_j |d(a+b)| + sum_j |d(a-b)|) / 2. After
that each open cluster goes on alone over float32 rows, refreshing its
stale bounds best first, only as far as the choice of its next row needs.
All tie-breaking is by smallest index (centroid list position for
assignment, vertex index for medoids), which makes runs bit-reproducible.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .surface_graph import SurfaceGraph, _sweep, cut_graph, multi_source_sssp, sssp


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
        if not 0 < self.convergence_tolerance_mm < np.inf:  # NaN fails too
            raise ValueError("convergence tolerance must be positive and finite")


@dataclass
class KmeansResult:
    """Final grouping plus run diagnostics."""

    groups: list[np.ndarray]           # per-cluster sorted vertex index arrays
    assignment: np.ndarray             # per-vertex cluster id in [0, k), in block vertex order
    centroids: list[int]               # centroids after the last update step
    iterations: int
    converged_by_tolerance: bool
    last_shift_mm: float
    euclidean_fallbacks: int           # vertices ever assigned by the Euclidean fallback
    energy_history: list[float] = field(default_factory=list)
    seconds: float = 0.0               # run start to this block's last iteration end


@dataclass(frozen=True)
class Block:
    """One k-means problem inside a larger graph: its sorted vertex ids and
    its configuration. No edge of the graph may join two blocks."""

    ids: np.ndarray
    config: KmeansConfig

    @property
    def k(self) -> int:
        return self.config.k


@dataclass
class LockstepResult:
    """One KmeansResult per block, in block order, plus their totals."""

    blocks: list[KmeansResult]

    @property
    def iterations(self) -> int:
        return sum(r.iterations for r in self.blocks)

    @property
    def euclidean_fallbacks(self) -> int:
        return sum(r.euclidean_fallbacks for r in self.blocks)


def kmeanspp_init(graph: SurfaceGraph, blocks: list[Block]) -> list[list[int]]:
    """k-means++ seeding with geodesic D(x): first centroid uniform, then each
    new centroid drawn with probability proportional to D(x)^2, where D(x) is
    the geodesic distance to the nearest chosen centroid.

    Vertices unreachable from every chosen centroid get D(x) = (max finite
    distance) + 1 mm so they stay selectable. Deterministic given each
    block's rng_seed.

    Seeds every block with its own k and seed and returns one centroid list
    per block; step t is one sssp call from the t-th centroid of every block
    with k > t. Each step's sweep starts from the current nearest field as
    its bound (sssp's `bound`), so it visits only the vertices it brings
    closer and returns exactly the minimum a full run would give.
    """
    for b in blocks:
        if b.k > len(b.ids):
            raise ValueError(f"k={b.k} must be in [1, {len(b.ids)}]")
    rngs = [np.random.default_rng(b.config.rng_seed) for b in blocks]
    centroids = [[int(b.ids[rng.integers(len(b.ids))])] for b, rng in zip(blocks, rngs)]
    nearest = sssp(graph, [c[0] for c in centroids]).dist
    for step in range(1, max(b.k for b in blocks)):
        new = []
        for b, rng, chosen in zip(blocks, rngs, centroids):
            if b.k <= step:
                continue
            d = nearest[b.ids]
            missing = np.isinf(d)
            if missing.any():
                d[missing] = d[~missing].max() + 1.0
            cum = np.cumsum(d * d)
            r = rng.random() * cum[-1]
            nxt = min(int(np.searchsorted(cum, r, side="right")), len(b.ids) - 1)
            chosen.append(int(b.ids[nxt]))
            new.append(chosen[-1])
        nearest = sssp(graph, new, nearest).dist
    return centroids


def _assign_blocks(graph: SurfaceGraph, centroids: np.ndarray, id_sets, ks):
    """Nearest-centroid assignment of several blocks in one sweep.

    `centroids` lists each block's centroids in turn (ks[i] for block i).
    Returns (assignment, fallbacks, dist): per-vertex index into `centroids`
    (-1 outside the blocks), per-block Euclidean fallback counts, and the
    multi-source distance field.
    """
    field_ = multi_source_sssp(graph, centroids)
    lookup = np.full(graph.vertex_count, -1, dtype=np.int64)
    lookup[centroids] = np.arange(len(centroids))
    assignment = np.where(field_.nearest_source >= 0, lookup[field_.nearest_source], -1)
    fallbacks, start = [], 0
    for ids, k in zip(id_sets, ks):
        unreached = ids[assignment[ids] < 0]
        if len(unreached):
            # Geodesically isolated vertices fall back to ambient Euclidean
            # distance to their own block's centroids.
            cpos = graph.positions[centroids[start:start + k]]
            diffs = graph.positions[unreached, None, :] - cpos[None, :, :]
            assignment[unreached] = start + np.argmin(np.einsum("ijk,ijk->ij", diffs, diffs),
                                                      axis=1)
        fallbacks.append(len(unreached))
        start += k
    return assignment, fallbacks, field_.dist


def calc_groups(graph: SurfaceGraph, centroids: list[int]) -> tuple[np.ndarray, int]:
    """Assign each vertex to the geodesically closest centroid.

    Ties go to the centroid earliest in the list. Vertices unreachable from
    every centroid are assigned by smallest Euclidean distance instead; the
    second return value counts them.
    """
    assignment, fallbacks, _ = _assign_blocks(graph, np.asarray(centroids, dtype=np.int64),
                                              [np.arange(graph.vertex_count)], [len(centroids)])
    return assignment, fallbacks[0]


# A candidate is pruned only when its lower bound exceeds the best sum by
# more than this share of 2*c*ecc, the largest sum any member can have (c
# members, every distance at most twice the anchor's eccentricity ecc): a
# computed bound may err upwards by up to 2e-9*c*ecc. Rounding in a
# distance grows like (edges on a path) * u of it (u = 2**-53), and the
# pairwise sums of c gaps in _lower_bounds err by about log2(c) * u * 2*c*ecc.
# The prefix-sum bounds of _abs_sums err most: they add c values of up to
# 4*ecc (a + b of two rows) one after another and then subtract such
# prefix sums, about 16*c**2*u*ecc in all. That stays below the pad up to
# about 10**6 members per cluster; within that limit an exact or ULP-close
# tie is always evaluated.
_PRUNE_PAD = 1e-9

# The same share for the bounds _MedoidSearch builds from float32 rows.
# Each term |f(d(s,j)) - f(d(s,x))| of such a bound errs by at most
# 1.5 * 2**-22 * ecc (v = 2**-24 the float32 unit roundoff): each of the two
# casts moves a distance of at most 2*ecc by up to 2*v*ecc, and the
# subtraction, whose result is also at most 2*ecc, by up to 2*v*ecc more.
# abs and max are exact, and the float64 sum of the c terms adds about
# log2(c) * u * 2*c*ecc. So a float32 bound errs by under 1.8e-7 of
# 2*c*ecc, whatever c is; with the float64 errors above it stays below
# 1e-6 of it.
_ROW_PAD = 1e-6

# Elements of the r x columns x c difference block in _lower_bounds (1 MB
# of float32 rows, 2 MB of float64). A group of the row-wise sorts in
# _abs_sums pads to at most an eighth of that, as it holds about eight
# float64 arrays of its size at once.
_BOUND_BLOCK = 1 << 18

# Candidates whose bounds _MedoidSearch refreshes first in a round; each
# further refresh takes twice as many as the one before.
_FIRST_REFRESH = 16


def _lower_bounds(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """For each candidate x in `cols`: sum over members j of max over
    evaluated rows s of |d(s,j) - d(s,x)|, which is at most d(x,j) by the
    triangle inequality, so at most x's distance sum.

    The gaps and their maxima are taken in the dtype of `rows` (float32 in
    _MedoidSearch, see _ROW_PAD), each column's sum in float64. Built in
    blocks of columns, so it holds at most about 2 * _BOUND_BLOCK elements
    at once, whatever the cluster size; each bound has the same bits in any
    block.
    """
    r, c = rows.shape
    step = max(1, _BOUND_BLOCK // (r * c))
    lower = np.empty(len(cols))
    for a in range(0, len(cols), step):
        gap = rows[:, cols[a:a + step], None] - rows[:, None, :]
        np.abs(gap, out=gap)
        lower[a:a + step] = gap.max(axis=0).sum(axis=1, dtype=np.float64)
        del gap  # before the next block is built
    return lower


class _Layout:
    """Clusters side by side: flat arrays hold every member of every
    cluster, cluster after cluster. For the row-wise sorts, `groups` lay the
    clusters out as padded (clusters x width) blocks of flat positions, the
    padding pointing one past the last member. A group takes clusters by
    size, largest first, while each keeps more than half the group's width
    and the block stays within _BOUND_BLOCK / 8 elements (a larger cluster
    is a group alone), so the blocks hold at most twice the members.
    """

    def __init__(self, sizes: np.ndarray):
        self.sizes = sizes
        self.starts = np.cumsum(sizes) - sizes
        self.cluster = np.repeat(np.arange(len(sizes)), sizes)
        self.groups = []  # (block of flat positions, member count per block row)
        order = np.argsort(-sizes, kind="stable")
        first = 0
        for i in range(1, len(order) + 1):
            width = sizes[order[first]]
            if (i < len(order) and 2 * sizes[order[i]] > width
                    and (i + 1 - first) * width <= _BOUND_BLOCK // 8):
                continue
            counts = sizes[order[first:i]]
            col = np.arange(width)
            block = self.starts[order[first:i], None] + col
            block[col >= counts[:, None]] = len(self.cluster)
            self.groups.append((block, counts))
            first = i


def _abs_sums(values: np.ndarray, layout: _Layout) -> np.ndarray:
    """Per member x: sum over the members j of x's cluster of
    |values[j] - values[x]|, from one row-wise sort and prefix sums (the
    values below x's add x's value minus theirs, those above the reverse)."""
    padded = np.append(values, np.nan)  # sorts after every value
    out = np.empty(len(values))
    for block, counts in layout.groups:
        order = np.argsort(padded[block], axis=1, kind="stable")
        where = np.take_along_axis(block, order, axis=1)
        ranked = padded[where]
        prefix = np.zeros((len(ranked), ranked.shape[1] + 1))
        np.cumsum(ranked, axis=1, out=prefix[:, 1:])
        total = prefix[np.arange(len(ranked)), counts][:, None]
        rank = np.arange(ranked.shape[1])
        sums = ranked * (2 * rank - counts[:, None]) + total - 2 * prefix[:, :-1]
        real = rank < counts[:, None]
        out[where[real]] = sums[real]
    return out


def _pair_bounds(a: np.ndarray, b: np.ndarray, layout: _Layout) -> np.ndarray:
    """_lower_bounds from the two rows a and b, for every member at once:
    max(|da|, |db|) = (|da + db| + |da - db|) / 2, summed by _abs_sums."""
    return 0.5 * (_abs_sums(a + b, layout) + _abs_sums(a - b, layout))


def _first_max(values: np.ndarray, layout: _Layout) -> np.ndarray:
    """Per cluster, the position in it of its largest value (the first of
    equal ones, as np.argmax)."""
    top = np.maximum.reduceat(values, layout.starts)
    hits = np.flatnonzero(values == top[layout.cluster])
    return hits[np.searchsorted(hits, layout.starts)] - layout.starts


class _MedoidSearch:
    """Pruned exact medoid search of one cluster component from its fourth
    row on (_first_rows evaluates the first three).

    Each row is that of the open candidate with the smallest lower bound
    (_lower_bounds over every evaluated row, ties to the smallest position).
    Rows are kept as float32, so the bounds are padded by _ROW_PAD; row
    totals come from the float64 rows. A candidate is pruned once its bound
    exceeds the best sum (padded by `pad`); the search ends when no
    candidate is open.

    Refresh is lazy and best-first. Each open candidate keeps the bound last
    computed for it (at first its pairwise two-row bound from _first_rows).
    A bound only grows as rows are added, so a stale one is still a lower
    bound. Each round refreshes the candidates in order of their stale
    bounds, _FIRST_REFRESH of them and then twice as many each time, until
    the next stale bound exceeds the smallest fresh one m by more than the
    pad, which covers the rounding of both. Every candidate left stale then
    has a true bound above m, so the next row is the one a refresh of every
    candidate would choose.
    """

    def __init__(self, sel, rows, candidates, lower, best_sum, best, pad):
        self.sel = sel            # the component's vertex ids, ascending
        self.rows = rows          # float32: 3 evaluated rows, then free slots
        self.evaluated = 3
        self.open, self.lower = candidates, lower  # positions in sel, their last bounds
        self.best_sum, self.best, self.pad = best_sum, best, pad

    def prune(self) -> bool:
        """Keep the candidates whose bound could still win and choose the
        next row (self.p, a position in sel); False if none is left."""
        keep = self.lower <= self.best_sum + self.pad
        candidates, lower = self.open[keep], self.lower[keep]
        if not len(candidates):
            return False
        rows = self.rows[:self.evaluated]
        if len(candidates) <= _FIRST_REFRESH:
            lower = _lower_bounds(rows, candidates)
        else:
            order = np.argsort(lower)
            done, step, m = 0, _FIRST_REFRESH, np.inf
            while done < len(order) and lower[order[done]] <= m + self.pad:
                chunk = order[done:done + step]
                fresh = lower[chunk] = _lower_bounds(rows, candidates[chunk])
                m = min(m, fresh.min())
                done += step
                step *= 2
        # Candidates stay in position order, and a stale bound left exceeds
        # m, so this is the first refreshed candidate with the bound m.
        at = int(np.argmin(lower))
        if lower[at] > self.best_sum + self.pad:
            return False
        self.open, self.lower, self.at = candidates, lower, at
        self.p = int(candidates[at])
        return True

    @property
    def vertex(self) -> int:
        return int(self.sel[self.p])

    def take(self, row: np.ndarray) -> bool:
        """Take the row of the candidate at self.p (distances to sel) and
        prune; False once the medoid is known."""
        p = self.p
        total = row.sum()
        if total < self.best_sum or (total == self.best_sum and p < self.best):
            self.best_sum, self.best = total, p
        if self.evaluated == len(self.rows):
            self.rows = np.concatenate([self.rows, np.empty_like(self.rows)])
        self.rows[self.evaluated] = row
        self.evaluated += 1
        self.lower[self.at] = np.inf  # no longer a candidate
        return self.prune()

    @property
    def medoid(self) -> int:
        return int(self.sel[self.best])


def _first_rows(within: SurfaceGraph, keys: list[int], sels: list[np.ndarray],
                row: np.ndarray, p: np.ndarray, medoids: list) -> dict[int, _MedoidSearch]:
    """The first three rows of the medoid search of every cluster at once.

    Cluster keys[i] has the component ids sels[i] (ascending); `row` holds
    each one's first row, from its member at position p[i], cluster after
    cluster. The second row is the member farthest from the first, the
    third the member farthest from both; each is one sweep from every
    cluster still open. After each row the bounds of every member come from
    row-wise sorts (_abs_sums): the one-row bound, the two-row bound, then
    the largest of the three pairwise two-row bounds, which each
    _MedoidSearch takes as its candidates' first stale bounds. Row totals
    are per-cluster sums of contiguous slices, as _MedoidSearch's.

    Sets medoids[key] of each cluster whose search ends within three rows
    and returns, by key, a _MedoidSearch carrying on each of the others.
    """
    keys, ids = np.array(keys), np.concatenate(sels)
    layout = _Layout(np.array([len(s) for s in sels]))
    largest = 2 * layout.sizes * np.maximum.reduceat(row, layout.starts)  # 2 * c * ecc
    best_sum, best = np.full(len(keys), np.inf), np.zeros(len(keys), dtype=np.int64)
    rows, pair = [], None
    open_ = np.ones(len(ids), dtype=bool)
    for r in range(3):
        rows.append(row)
        total = np.array([row[a:a + c].sum() for a, c in zip(layout.starts, layout.sizes)])
        better = (total < best_sum) | ((total == best_sum) & (p < best))
        best_sum, best = np.where(better, total, best_sum), np.where(better, p, best)
        open_[layout.starts + p] = False
        if r == 0:
            lower = _abs_sums(row, layout)
        elif r == 1:
            lower = pair = _pair_bounds(rows[0], row, layout)
        else:
            lower = np.maximum(pair, _pair_bounds(rows[0], row, layout))
            np.maximum(lower, _pair_bounds(rows[1], row, layout), out=lower)
        open_ &= lower <= (best_sum + _PRUNE_PAD * largest)[layout.cluster]
        still = np.bincount(layout.cluster[open_], minlength=len(keys)) > 0
        for j in np.flatnonzero(~still):
            medoids[keys[j]] = int(ids[layout.starts[j] + best[j]])
        if r == 2 or not still.any():
            break
        if not still.all():
            kept = still[layout.cluster]
            keys, best_sum, best = keys[still], best_sum[still], best[still]
            largest = largest[still]
            ids, row, open_ = ids[kept], row[kept], open_[kept]
            rows = [x[kept] for x in rows]
            pair = pair[kept] if pair is not None else None
            layout = _Layout(layout.sizes[still])
        p = _first_max(row if r == 0 else np.minimum(rows[0], row), layout)
        row = _sweep(within, ids[layout.starts + p])[ids]

    searches = {}
    for j in np.flatnonzero(still):
        a, c = layout.starts[j], layout.sizes[j]
        evaluated = np.empty((4, c), dtype=np.float32)
        evaluated[:3] = [x[a:a + c] for x in rows]
        candidates = np.flatnonzero(open_[a:a + c])
        search = _MedoidSearch(ids[a:a + c], evaluated, candidates, lower[a + candidates],
                               best_sum[j], int(best[j]), _ROW_PAD * largest[j])
        if search.prune():
            searches[keys[j]] = search
        else:
            medoids[keys[j]] = search.medoid
    return searches


def _medoids(graph: SurfaceGraph, assignment: np.ndarray, clusters: list[np.ndarray],
             previous: list[int], dist: np.ndarray | None) -> list[int]:
    """Exact medoids of all clusters, in lockstep: each round is one sweep
    over the intra-cluster edges, with one source per still-open cluster."""
    within = cut_graph(graph, assignment)
    medoids: list[int | None] = [None] * len(clusters)
    anchors, rows = {}, {}  # first row: from the previous centroid if the cluster holds it
    for i, (ids, prev) in enumerate(zip(clusters, previous)):
        where = int(np.searchsorted(ids, prev))
        anchored = where < len(ids) and ids[where] == prev
        if len(ids) == 1:
            medoids[i] = int(ids[0])
        elif anchored and dist is not None:
            anchors[i], rows[i] = prev, dist[ids]
        else:
            anchors[i] = prev if anchored else int(ids[0])
    unswept = [i for i in anchors if i not in rows]
    if unswept:
        field_ = _sweep(within, np.array([anchors[i] for i in unswept]))
        rows.update((i, field_[clusters[i]]) for i in unswept)

    keys, sels, firsts, positions = [], [], [], []
    for i, anchor in anchors.items():
        reached = np.isfinite(rows[i])
        if anchor != previous[i] and not reached.all():
            raise ValueError("disconnected cluster without its previous centroid")
        sel = clusters[i][reached]
        if len(sel) == 1:
            medoids[i] = anchor
        else:
            keys.append(i)
            sels.append(sel)
            firsts.append(rows[i][reached])
            positions.append(int(np.searchsorted(sel, anchor)))
    searches = (_first_rows(within, keys, sels, np.concatenate(firsts), np.array(positions),
                            medoids) if keys else {})
    while searches:
        field_ = _sweep(within, np.array([search.vertex for search in searches.values()]))
        for i in list(searches):
            if not searches[i].take(field_[searches[i].sel]):
                medoids[i] = searches.pop(i).medoid
    return medoids


def comp_centroids(graph: SurfaceGraph, assignment: np.ndarray,
                   centroids: list[int], dist: np.ndarray | None = None) -> list[int]:
    """Recompute each cluster's centroid as its exact medoid.

    The medoid minimizes the sum of geodesic distances within the cluster's
    induced subgraph; ties go to the smallest vertex index. It comes from a
    pruned search (_first_rows, then _MedoidSearch) over rows from the
    previous centroid, two far members and the candidates whose lower bound
    could still win.
    All clusters search at once: every round is one sweep over the graph
    with the edges between clusters cut, from one source per open cluster.
    For a disconnected cluster subgraph the medoid is taken on the component
    containing that cluster's previous centroid. Vertices with an id outside
    [0, k) belong to no cluster.

    `dist` is optional: the multi-source field that `assignment` came from
    (multi_source_sssp over `centroids`, as parallel_kmeans computes it).
    In that field a vertex takes the source of one of its tight
    predecessors (surface_graph._nearest), so the path behind dist[v]
    stays inside v's cluster and dist restricted to a cluster equals the
    induced-subgraph distances from its centroid bit for bit. With it,
    each cluster that holds its previous centroid takes that row from dist;
    without it, or for a cluster that lacks its previous centroid, the row
    is computed.
    """
    assignment = np.asarray(assignment)
    k = len(centroids)
    members = np.flatnonzero((assignment >= 0) & (assignment < k))
    sizes = np.bincount(assignment[members], minlength=k)
    if not sizes.all():
        raise ValueError(f"cluster {int(np.argmin(sizes))} is empty")
    order = members[np.argsort(assignment[members], kind="stable")]
    clusters = np.split(order, np.cumsum(sizes)[:-1])
    return _medoids(graph, assignment, clusters, [int(c) for c in centroids], dist)


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


def parallel_kmeans(graph: SurfaceGraph, blocks: list[Block]) -> LockstepResult:
    """Full clustering loop: seed, then alternate assignment and medoid updates
    until centroids move less than the tolerance or the iteration cap hits.

    Clusters every block with its own KmeansConfig, all in lockstep (see the
    module docstring), and returns one KmeansResult per block. A block drops
    out of the lockstep when its own stop test holds, so its result equals
    that of a run on its induced subgraph alone.

    k=1 short-circuits to a single group holding every vertex. The returned
    groups always partition each block and are identical across reruns with
    the same inputs. Each medoid update reuses the assignment's distance
    field (see comp_centroids).
    """
    for b in blocks:
        if b.k > len(b.ids):
            raise ValueError(f"k={b.k} exceeds vertex count {len(b.ids)}")
    t0 = time.perf_counter()
    results: list[KmeansResult | None] = [None] * len(blocks)
    for i, b in enumerate(blocks):
        if b.k == 1:
            results[i] = KmeansResult(groups=[b.ids],
                                      assignment=np.zeros(len(b.ids), dtype=np.int64),
                                      centroids=[], iterations=0, converged_by_tolerance=False,
                                      last_shift_mm=0.0, euclidean_fallbacks=0)
    active = [i for i, r in enumerate(results) if r is None]
    centroids = (dict(zip(active, kmeanspp_init(graph, [blocks[i] for i in active])))
                 if active else {})
    energy = {i: [] for i in active}
    fallbacks_total = dict.fromkeys(active, 0)
    iteration = 0
    while active:
        iteration += 1
        flat = np.array([c for i in active for c in centroids[i]], dtype=np.int64)
        ks = [blocks[i].k for i in active]
        assignment, fallbacks, dist = _assign_blocks(graph, flat, [blocks[i].ids for i in active],
                                                     ks)
        # Each centroid is at distance 0 from itself and every edge weight is
        # positive, so no other centroid can claim it: no cluster is empty
        # (comp_centroids would raise).
        new_flat = comp_centroids(graph, assignment, flat.tolist(), dist)
        still, start = [], 0
        for i, k, fallback in zip(active, ks, fallbacks):
            ids, config = blocks[i].ids, blocks[i].config
            fallbacks_total[i] += fallback
            d = dist[ids]
            energy[i].append(float(d[np.isfinite(d)].sum()))
            new = new_flat[start:start + k]
            shift = max_centroid_shift_mm(centroids[i], new, graph)
            converged = stop_criterion(centroids[i], new, graph, iteration, config)
            centroids[i] = new
            if converged:
                local = assignment[ids] - start
                results[i] = KmeansResult(
                    groups=[ids[local == j] for j in range(k)], assignment=local,
                    centroids=new, iterations=iteration,
                    converged_by_tolerance=shift < config.convergence_tolerance_mm,
                    last_shift_mm=shift, euclidean_fallbacks=fallbacks_total[i],
                    energy_history=energy[i], seconds=time.perf_counter() - t0)
            else:
                still.append(i)
            start += k
        active = still
    return LockstepResult(results)
