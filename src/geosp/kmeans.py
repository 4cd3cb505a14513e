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
that one flat search goes on over float32 rows of every open cluster, still
side by side: each round refreshes stale bounds best first, only as far as
each cluster's choice of its next row needs, in a few padded calls for all
clusters at once.
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

    ids: np.ndarray                    # the block's sorted vertex ids
    assignment: np.ndarray             # per-vertex cluster id in [0, k), in block vertex order
    centroids: list[int]               # centroids after the last update step
    iterations: int
    converged_by_tolerance: bool
    last_shift_mm: float
    euclidean_fallbacks: int           # vertices ever assigned by the Euclidean fallback
    energy_history: list[float] = field(default_factory=list)
    seconds: float = 0.0               # run start to this block's last iteration end

    @property
    def groups(self) -> list[np.ndarray]:
        """Per-cluster sorted vertex index arrays, built from `assignment` when read."""
        return [self.ids[self.assignment == j] for j in range(self.assignment.max() + 1)]


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


# A candidate is pruned only when its lower bound exceeds the best sum by
# more than this share of 2*c*ecc, the largest sum any member can have (c
# members, every distance at most twice the anchor's eccentricity ecc): a
# computed bound may err upwards by up to 2e-9*c*ecc. Rounding in a
# distance grows like (edges on a path) * u of it (u = 2**-53), and the
# pairwise sum of the c gaps of a bound errs by about log2(c) * u * 2*c*ecc.
# The prefix-sum bounds of _abs_sums err most: they add c values of up to
# 4*ecc (a + b of two rows) one after another and then subtract such
# prefix sums, about 16*c**2*u*ecc in all. That stays below the pad up to
# about 10**6 members per cluster; within that limit an exact or ULP-close
# tie is always evaluated.
_PRUNE_PAD = 1e-9

# The same share for the bounds _FlatMedoidSearch builds from float32 rows.
# Each term |f(d(s,j)) - f(d(s,x))| of such a bound errs by at most
# 1.5 * 2**-22 * ecc (v = 2**-24 the float32 unit roundoff): each of the two
# casts moves a distance of at most 2*ecc by up to 2*v*ecc, and the
# subtraction, whose result is also at most 2*ecc, by up to 2*v*ecc more.
# abs and max are exact, and the float64 sum of the c terms adds about
# log2(c) * u * 2*c*ecc. So a float32 bound errs by under 1.8e-7 of
# 2*c*ecc, whatever c is; with the float64 errors above it stays below
# 1e-6 of it.
_ROW_PAD = 1e-6

# Elements of the largest r x candidates x members block of row gaps that
# _padded_bounds builds (1 MB of float32 rows). A group of the row-wise sorts
# in _abs_sums pads to at most an eighth of that, as it holds about eight
# float64 arrays of its size at once.
_BOUND_BLOCK = 1 << 18

# Candidates per cluster whose bounds _FlatMedoidSearch refreshes first in a
# round; each further refresh takes twice as many as the one before.
_FIRST_REFRESH = 16

# Rows _FlatMedoidSearch makes room for at first, then twice as many each
# time they run out (a paper-scale atlas or whole-mode search needs up to
# about 25). Room no row was written to stays out of the resident set when
# the buffer is large enough to be mapped apart, as it is at paper scale.
_ROW_ROOM = 32


def _runs(sizes: np.ndarray, budget):
    """[a, end) runs of clusters side by side (sizes must not increase), one
    padded block each: a run takes clusters while each keeps more than half
    of the first one's size w, so padding at most doubles the members, and
    at most budget(w) of them; a larger cluster is a run alone."""
    halved = np.searchsorted(-2 * sizes, -sizes).tolist()  # first at most half as large
    width, a = sizes.tolist(), 0
    while a < len(width):
        end = max(a + 1, min(halved[a], a + budget(width[a])))
        yield a, end
        a = end


def _sort_blocks(starts: np.ndarray, sizes: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The blocks in which _abs_sums sorts the members of clusters side by
    side: per run of _runs within _BOUND_BLOCK / 8 elements, a padded
    (clusters x width) block of flat positions, the padding -1, and the
    member count of each block row."""
    blocks = []
    for a, end in _runs(sizes, lambda w: _BOUND_BLOCK // 8 // w):
        counts = sizes[a:end]
        col = np.arange(counts[0])
        block = starts[a:end, None] + col
        block[col >= counts[:, None]] = -1
        blocks.append((block, counts))
    return blocks


def _abs_sums(values: np.ndarray, blocks) -> np.ndarray:
    """Per member x: sum over the members j of x's cluster of
    |values[j] - values[x]|, from one row-wise sort of each of the
    _sort_blocks `blocks` and prefix sums (the values below x's add x's
    value minus theirs, those above the reverse)."""
    padded = np.append(values, np.nan)  # where the padding points; sorts after every value
    out = np.empty(len(values))
    for block, counts in blocks:
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


def _pair_bounds(a: np.ndarray, b: np.ndarray, blocks) -> np.ndarray:
    """The bound of _padded_bounds from the rows a and b, for every member at once:
    max(|da|, |db|) = (|da + db| + |da - db|) / 2, summed by _abs_sums."""
    return 0.5 * (_abs_sums(a + b, blocks) + _abs_sums(a - b, blocks))


def _first_max(values: np.ndarray, starts: np.ndarray, cluster: np.ndarray) -> np.ndarray:
    """Per cluster, the position in it of its largest value (the first of
    equal ones, as np.argmax)."""
    top = np.maximum.reduceat(values, starts)
    hits = np.flatnonzero(values == top[cluster])
    return hits[np.searchsorted(hits, starts)] - starts


def _padded_bounds(rows: np.ndarray, starts: np.ndarray, sizes: np.ndarray,
                   candidates: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """Lower bounds on the distance sums of candidates of several clusters
    in one call. For candidate x: the sum over the members j of its cluster
    of the max over the rows s of |d(s,j) - d(s,x)|, at most d(x,j) by the
    triangle inequality. Gaps and maxima are in the dtype of `rows` (float32
    in the medoid search, see _ROW_PAD), sums in float64; the one-cluster
    reference is tests/helpers._lower_bounds.

    The members of cluster i are the sizes[i] columns of `rows` from
    starts[i] on, its candidates the columns candidates[i, :picks[i]];
    sizes must not increase. The last column of `rows` must be finite, as
    it stands in for the padding. Returns the bounds in the layout of
    `candidates`; past picks[i] they mean nothing.

    Clusters go side by side into the padded blocks of _runs, of about a
    quarter of _BOUND_BLOCK elements each (in the desk benchmark's
    refreshes that took a quarter less time than the whole); a larger
    cluster is a block alone, built in blocks of candidates of at most
    _BOUND_BLOCK elements. The gaps of padded members are set to zero
    before the float64 sum, which keeps the bits of the sum over the
    members alone because it is exact: every float32 gap is a multiple of
    the float32 spacing g of the smallest nonzero row value d, and a sum of
    at most c * 2 * ecc stays on that grid while it is below 2**53 * g,
    that is while c * ecc / d < 2**28 (for paper-scale clusters about
    870 * 60 mm / 0.5 mm). Beyond that a bound can differ from it by its
    rounding, which the row pad covers.
    """
    r = len(rows)
    n, k = candidates.shape
    lower = np.empty((n, k))
    width, first, most = sizes.tolist(), starts.tolist(), picks.tolist()

    def step(w):  # candidates per block of a run of width w
        return min(k, max(1, _BOUND_BLOCK // (r * w)))

    for a, end in _runs(sizes, lambda w: _BOUND_BLOCK // 4 // (r * step(w) * w)):
        w, k_step = width[a], step(width[a])
        these = slice(a, end)
        # The member axis must be contiguous, and the subtraction's result
        # in C order, for the ufuncs below to be fast: with the rows
        # innermost, as fancy indexing lays them out, the max is about 20
        # times slower.
        padded = width[end - 1] < w
        if end == a + 1:  # one cluster: a view of its own columns
            member_rows = rows[:, None, None, first[a]:first[a] + w]
        else:
            columns = starts[these, None] + np.arange(w)
            if padded:
                real = np.arange(w) < sizes[these, None]
                columns[~real] = -1
                real = real[:, None, :].astype(rows.dtype)
            member_rows = np.take(rows, columns, axis=1)[:, :, None, :]
        picked = max(most[these])
        for b in range(0, picked, k_step):
            cut = slice(b, min(b + k_step, picked))
            candidate_rows = np.take(rows, candidates[these, cut], axis=1)[..., None]
            gap = np.subtract(candidate_rows, member_rows, order="C")
            np.abs(gap, out=gap)
            top = gap.max(axis=0)
            del gap  # before the next block is built
            if padded:
                top *= real
            lower[these, cut] = top.sum(axis=2, dtype=np.float64)
    return lower


def _totals(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per cluster, the sum of its slice of `values` (clusters side by side),
    with the bits of values[a:a + c].sum(): a run of clusters of one size is
    summed as the rows of one 2-D block, which keeps those bits. A block
    zero-padded to a common width would not (np.add.reduceat would not
    either), and a tie between two row totals decides a medoid."""
    cuts = (np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist()
    totals = np.empty(len(sizes))
    a = 0
    for first, last in zip([0, *cuts], [*cuts, len(sizes)]):
        c = int(sizes[first])
        end = a + (last - first) * c
        block = values[a:end]  # a run of one is summed alone, with less overhead
        totals[first:last] = block.sum() if last - first == 1 else block.reshape(-1, c).sum(axis=1)
        a = end
    return totals


class _FlatMedoidSearch:
    """Pruned exact medoid search of every open cluster from its fourth row
    on (_first_rows evaluates the first three), one lockstep round at a time.

    The clusters lie side by side, largest first, in flat member arrays;
    the float32 rows hold one column per member. Per cluster, each row is
    that of the open candidate with the smallest lower bound (from every
    evaluated row, see _padded_bounds; ties to the smallest position). As
    the rows are float32, the bounds are padded by the cluster's `pad`; row
    totals come from the float64 rows (_totals). A candidate is pruned once
    its bound exceeds its cluster's best sum plus the pad; a cluster is
    done when none is left, and its medoid is the member with the best sum.
    Once the clusters that are done hold half the columns, they are dropped.

    Refresh is lazy and best-first. Each open candidate keeps the bound last
    computed for it (at first its pairwise two-row bound from _first_rows).
    A bound only grows as rows are added, so a stale one is still a lower
    bound. Each round refreshes the candidates of every open cluster in
    order of their stale bounds, _FIRST_REFRESH of them and then twice as
    many each time, until the cluster's next stale bound exceeds its
    smallest fresh one m by more than the pad, which covers the rounding of
    both. Every candidate left stale then has a true bound above m, so the
    next row is the one a refresh of every candidate would choose. Each step
    is one _padded_bounds call over every cluster that still refreshes.

    The ranking is kept from round to round: the candidates stay in
    (cluster, stale bound) order, so the ones a step refreshes are the next
    slice of each cluster's run and its next stale bound is the entry after
    it. Only the refreshed candidates move; one stable sort on the complex
    key cluster + i * bound, compared exactly as the pair (real part first),
    puts them back among the sorted stale ones, which it finds as runs. The
    stopping rule needs that order exact; the order of equal bounds does not
    matter, except that a cluster's row is the smallest position among its
    smallest fresh bounds, which prune settles apart.
    """

    def __init__(self, keys, ids, sizes, rows, candidates, lower, best_sum, best, pad):
        self.keys, self.ids = keys, ids  # per cluster, by size, largest first; per member
        self.sizes, self.starts = sizes, np.cumsum(sizes) - sizes
        # float32 rows of every member, then room for more, in one buffer;
        # the last column holds zeros that the padding of the bound blocks
        # points at
        self.buffer = np.empty(_ROW_ROOM * (len(ids) + 1), dtype=np.float32)
        self.rows = self.buffer.reshape(_ROW_ROOM, -1)
        for s, row in enumerate(rows):
            self.rows[s, :-1], self.rows[s, -1] = row, 0
        self.evaluated = len(rows)
        # flat positions, their clusters and last bounds, in the kept order
        cluster = np.searchsorted(self.starts, candidates, side="right") - 1
        self.candidates, self.cluster, self.lower = _ranked(candidates, cluster, lower)
        self.best_sum, self.best, self.pad = best_sum, best, pad  # per cluster; a position in it
        self.live = np.arange(len(keys))  # the open clusters
        self.columns = None  # flat positions of their members; None: every member
        self.done = []  # (keys, medoids) of the clusters dropped from the layout

    def prune(self) -> bool:
        """Keep the candidates whose bound could still win and choose each
        open cluster's next row (self.at, an index into self.candidates per
        open cluster); False once no cluster is open."""
        n = len(self.keys)
        keep = (self.lower <= (self.best_sum + self.pad)[self.cluster]).nonzero()[0]
        candidates, lower, cluster = self.candidates[keep], self.lower[keep], self.cluster[keep]
        count = np.bincount(cluster, minlength=n)
        first = count.cumsum() - count  # where each cluster's run starts
        smallest = np.full(n, np.inf)
        going, done, step = count > 0, 0, _FIRST_REFRESH
        while going.any():
            slots, bounds = self._refresh(candidates, first + done,
                                          np.minimum(count - done, step) * going)
            lower[slots] = bounds
            np.minimum.at(smallest, cluster[slots], bounds)
            done, step = done + step, 2 * step
            # Each cluster's next stale bound is the one after those refreshed.
            following = lower.take(first + done, mode="clip")
            going &= (count > done) & (following <= smallest + self.pad)
        # A stale bound left exceeds m, so each open cluster's row is its
        # refreshed candidate with the bound m, the first in position if
        # several have it.
        open_ = smallest <= self.best_sum + self.pad
        live = np.flatnonzero(open_)
        if len(live) < len(self.live):
            keep = open_[cluster].nonzero()[0]
            candidates, lower, cluster = candidates[keep], lower[keep], cluster[keep]
        candidates, cluster, lower = _ranked(candidates, cluster, lower)
        hits = np.flatnonzero(lower == smallest[cluster])  # one per open cluster, or ties
        if len(hits) > len(live):
            hits = hits[np.argsort(candidates[hits])]  # positions ascend cluster by cluster
            hits = hits[np.searchsorted(cluster[hits], live)]
        self.at = hits
        self.candidates, self.lower, self.cluster = candidates, lower, cluster
        if not len(live):
            return False
        if len(live) < len(self.live):
            self.live = live
            self.columns = np.flatnonzero(np.repeat(open_, self.sizes))
            if 2 * len(self.columns) <= len(self.ids):
                self._resize(len(self.rows))
        return True

    def _refresh(self, candidates, at, picks):
        """(slots, bounds): fresh bounds of the candidates in the picks[i]
        slots of cluster i from at[i] on, cluster after cluster, from one
        _padded_bounds call."""
        clusters = picks.nonzero()[0]
        picks = picks[clusters]
        col = np.arange(picks.max())
        real = col < picks[:, None]
        slots = at[clusters, None] + col
        columns = np.where(real, candidates.take(slots, mode="clip"), -1)  # -1: the zero column
        bounds = _padded_bounds(self.rows[:self.evaluated], self.starts[clusters],
                                self.sizes[clusters], columns, picks)
        return slots[real], bounds[real]

    def _resize(self, capacity: int):
        """Drop the clusters that are done from the layout, and their
        columns from the rows in place, then make room for at least
        `capacity` rows, in a larger buffer only if this one cannot hold
        them. Keeping one buffer matters: replacing it at each drop grew the
        peak RSS at 304k vertices by 13 MB or more, as freed large blocks
        raise the size from which the C allocator maps memory apart."""
        if self.columns is not None:
            live, starts = self.live, self.starts
            done = np.ones(len(self.keys), dtype=bool)
            done[live] = False
            self.done.append((self.keys[done], self.ids[starts + self.best][done]))
            kept = np.append(self.columns, len(self.ids))  # with the zero column
            rows = self.buffer[:len(self.buffer) // len(kept) * len(kept)].reshape(-1, len(kept))
            for s in range(self.evaluated):  # each row moves left of where it was
                rows[s] = self.rows[s, kept]
            self.rows = rows
            self.ids = self.ids[self.columns]
            self.keys, self.sizes, self.best_sum, self.best, self.pad = (
                x[live] for x in (self.keys, self.sizes, self.best_sum, self.best, self.pad))
            self.starts = np.cumsum(self.sizes) - self.sizes
            renumber = np.cumsum(~done) - 1
            self.candidates = (self.candidates - starts[self.cluster]
                               + self.starts[renumber[self.cluster]])
            self.cluster = renumber[self.cluster]
            self.live = np.arange(len(self.keys))
            self.columns = None
        if capacity > len(self.rows):
            self.buffer = np.empty(capacity * self.rows.shape[1], dtype=np.float32)
            rows = self.buffer.reshape(capacity, -1)
            rows[:self.evaluated] = self.rows[:self.evaluated]
            self.rows = rows

    @property
    def sources(self) -> np.ndarray:
        """The vertex of each open cluster's next row, in layout order."""
        return self.ids[self.candidates[self.at]]

    def take(self, field: np.ndarray) -> bool:
        """Take each open cluster's next row from `field` (a sweep from
        self.sources over the graph with the edges between clusters cut) and
        prune; False once every medoid is known."""
        live = self.live
        row = field[self.ids if self.columns is None else self.ids[self.columns]]
        total = _totals(row, self.sizes[live])
        p = self.candidates[self.at] - self.starts[live]
        best_sum, best = self.best_sum[live], self.best[live]
        better = (total < best_sum) | ((total == best_sum) & (p < best))
        self.best_sum[live] = np.where(better, total, best_sum)
        self.best[live] = np.where(better, p, best)
        if self.evaluated == len(self.rows):
            self._resize(2 * len(self.rows))
        self.rows[self.evaluated, slice(-1) if self.columns is None else self.columns] = row
        self.rows[self.evaluated, -1] = 0
        self.evaluated += 1
        self.lower[self.at] = np.inf  # no longer a candidate
        return self.prune()

    def medoids(self) -> tuple[np.ndarray, np.ndarray]:
        """(keys, medoid vertex ids) of every cluster, once none is open."""
        done = [*self.done, (self.keys, self.ids[self.starts + self.best])]
        return np.concatenate([k for k, _ in done]), np.concatenate([m for _, m in done])


def _ranked(candidates: np.ndarray, cluster: np.ndarray, lower: np.ndarray):
    """(candidates, cluster, lower) in (cluster, lower) order, equal pairs in
    the order given. The key cluster + i * lower is built from its parts (a
    product with i would turn an infinite bound into NaN), and numpy orders
    complex numbers by real part, then imaginary part, exactly; the stable
    sort finds the runs that are already in order and merges the rest."""
    key = np.empty(len(lower), dtype=complex)
    key.real, key.imag = cluster, lower
    order = key.argsort(kind="stable")
    return candidates[order], cluster[order], lower[order]


def _first_rows(within: SurfaceGraph, keys: np.ndarray, ids: np.ndarray, sizes: np.ndarray,
                row: np.ndarray, p: np.ndarray, medoids: np.ndarray) -> _FlatMedoidSearch | None:
    """The first three rows of the medoid search of every cluster at once.

    Cluster keys[i] has sizes[i] members, side by side in `ids` (each
    cluster's ascending, sizes not increasing); `row` holds each one's first
    row, from its member at position p[i]. The second row is the member
    farthest from the first, the third the member farthest from both; each
    is one sweep from every cluster still open. After each row the bounds
    of every member come from row-wise sorts (_abs_sums): the one-row bound,
    the two-row bound, then the largest of the three pairwise two-row
    bounds, which the _FlatMedoidSearch takes as its candidates' first stale
    bounds.

    Sets medoids[key] of each cluster whose search ends within three rows
    and returns a _FlatMedoidSearch carrying on the others, or None.
    """
    starts, cluster = np.cumsum(sizes) - sizes, np.repeat(np.arange(len(sizes)), sizes)
    blocks = _sort_blocks(starts, sizes)
    largest = 2 * sizes * np.maximum.reduceat(row, starts)  # 2 * c * ecc
    best_sum, best = np.full(len(keys), np.inf), np.zeros(len(keys), dtype=np.int64)
    rows, pair = [], None
    open_ = np.ones(len(ids), dtype=bool)
    for r in range(3):
        rows.append(row)
        total = _totals(row, sizes)
        better = (total < best_sum) | ((total == best_sum) & (p < best))
        best_sum, best = np.where(better, total, best_sum), np.where(better, p, best)
        open_[starts + p] = False
        if r == 0:
            lower = _abs_sums(row, blocks)
        elif r == 1:
            lower = pair = _pair_bounds(rows[0], row, blocks)
        else:
            lower = np.maximum(pair, _pair_bounds(rows[0], row, blocks))
            np.maximum(lower, _pair_bounds(rows[1], row, blocks), out=lower)
        open_ &= lower <= (best_sum + _PRUNE_PAD * largest)[cluster]
        still = np.bincount(cluster[open_], minlength=len(keys)) > 0
        medoids[keys[~still]] = ids[starts + best][~still]
        if not still.all():
            kept = still[cluster]
            keys, sizes, best_sum, best, largest = (
                x[still] for x in (keys, sizes, best_sum, best, largest))
            ids, row, open_, lower = ids[kept], row[kept], open_[kept], lower[kept]
            rows = [x[kept] for x in rows]
            pair = pair[kept] if pair is not None else None
            starts, cluster = np.cumsum(sizes) - sizes, np.repeat(np.arange(len(sizes)), sizes)
        if r == 2 or not len(keys):
            break
        if not still.all():  # the new layout's, once another row needs them
            blocks = _sort_blocks(starts, sizes)
        p = _first_max(row if r == 0 else np.minimum(rows[0], row), starts, cluster)
        row = _sweep(within, ids[starts + p])[ids]
    if not len(keys):
        return None
    candidates = np.flatnonzero(open_)
    return _FlatMedoidSearch(keys, ids, sizes, rows, candidates, lower[candidates],
                             best_sum, best, _ROW_PAD * largest)


def comp_centroids(graph: SurfaceGraph, assignment: np.ndarray,
                   centroids: list[int], dist: np.ndarray | None = None) -> list[int]:
    """Recompute each cluster's centroid as its exact medoid.

    The medoid minimizes the sum of geodesic distances within the cluster's
    induced subgraph; ties go to the smallest vertex index. It comes from a
    pruned search (_first_rows, then _FlatMedoidSearch) over rows from the
    previous centroid, two far members and the candidates whose lower bound
    could still win.
    All clusters search at once, side by side, largest first: every round
    is one sweep over the graph with the edges between clusters cut, from
    one source per open cluster. For a disconnected cluster subgraph the
    medoid is taken on the component containing that cluster's previous
    centroid. Vertices with an id outside [0, k) belong to no cluster.

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
    # Every cluster's members, ascending, cluster after cluster.
    order = members[np.argsort(assignment[members], kind="stable")]
    cluster, starts = assignment[order], np.cumsum(sizes) - sizes
    previous = np.asarray(centroids, dtype=np.int64)
    within = cut_graph(graph, assignment)
    # First row: from the previous centroid if the cluster holds it.
    anchored = np.bincount(cluster[order == previous[cluster]], minlength=k) > 0
    anchors = np.where(anchored, previous, order[starts])
    medoids = anchors.copy()  # the medoid of a cluster with one reachable member
    many = sizes > 1
    swept = many & ~anchored if dist is not None else many
    row = dist[order] if dist is not None else np.empty(len(order))
    if swept.any():
        mine = swept[cluster]
        row[mine] = _sweep(within, anchors[swept])[order[mine]]
    reached = many[cluster] & np.isfinite(row)
    cut_off = np.bincount(cluster[many[cluster] & ~reached], minlength=k) > 0
    if np.any(cut_off & ~anchored):
        raise ValueError("disconnected cluster without its previous centroid")
    counts = np.bincount(cluster[reached], minlength=k)
    # The searched clusters, largest first, as _totals and _padded_bounds
    # want them.
    keys = np.flatnonzero(counts > 1)
    keys = keys[np.argsort(-counts[keys], kind="stable")]
    if len(keys):
        place = np.full(k, len(keys))
        place[keys] = np.arange(len(keys))
        flat = np.flatnonzero(reached)
        flat = flat[np.argsort(place[cluster[flat]], kind="stable")][:counts[keys].sum()]
        ids = order[flat]
        p = np.flatnonzero(ids == anchors[cluster[flat]]) - (np.cumsum(counts[keys]) - counts[keys])
        search = _first_rows(within, keys, ids, counts[keys], row[flat], p, medoids)
        if search is not None:
            going = search.prune()
            while going:
                going = search.take(_sweep(within, search.sources))
            done, found = search.medoids()
            medoids[done] = found
    return medoids.tolist()


def max_centroid_shift_mm(old: list[int], new: list[int], graph: SurfaceGraph) -> float:
    """Largest Euclidean move between paired old/new centroid positions."""
    if len(old) != len(new):
        raise ValueError("centroid lists must have equal length")
    delta = graph.positions[np.asarray(old)] - graph.positions[np.asarray(new)]
    return float(np.linalg.norm(delta, axis=1).max())


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
            results[i] = KmeansResult(ids=b.ids,
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
            converged = shift < config.convergence_tolerance_mm
            centroids[i] = new
            if converged or iteration >= config.max_iterations:
                local = assignment[ids] - start
                results[i] = KmeansResult(
                    ids=ids, assignment=local,
                    centroids=new, iterations=iteration,
                    converged_by_tolerance=converged,
                    last_shift_mm=shift, euclidean_fallbacks=fallbacks_total[i],
                    energy_history=energy[i], seconds=time.perf_counter() - t0)
            else:
                still.append(i)
            start += k
        active = still
    return LockstepResult(results)
