import tracemalloc
from itertools import combinations

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from geosp import (Block, KmeansConfig, TriangleMesh, atlas_mesh, bridge_graph, build_graph,
                   comp_centroids, concat_meshes, cut_graph, dumbbell_mesh, grid_mesh,
                   icosphere_mesh, kmeanspp_init, multi_source_sssp, parallel_kmeans,
                   perturb_weights, sssp, wave_sheet_mesh)
from geosp import kmeans
from geosp.kmeans import max_centroid_shift_mm
from geosp.oracles import oracle_medoid, oracle_sssp
from geosp.surface_graph import SurfaceGraph, induced_subgraph

from helpers import (MESH_KINDS, EagerMedoidSearches, _lower_bounds, bumpy_grid_graph,
                     bumpy_grid_mesh, calc_groups, cluster_medoid, irregular_mesh, kmeans_alone,
                     neighbors, path_graph, seeds_alone)

DUMBBELL_PATCH = 16  # vertices per blob of the default dumbbell


def test_config_validation():
    with pytest.raises(ValueError):
        KmeansConfig(k=0)
    with pytest.raises(ValueError):
        KmeansConfig(k=2, max_iterations=0)
    with pytest.raises(ValueError):
        KmeansConfig(k=2, convergence_tolerance_mm=0.0)
    for tolerance in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            KmeansConfig(k=2, convergence_tolerance_mm=tolerance)


# -- k-means++ seeding ---------------------------------------------------------


def test_kmeanspp_single_centroid_reproducible():
    g = bumpy_grid_graph(0)
    c1 = seeds_alone(g, 1, rng_seed=123)
    c2 = seeds_alone(g, 1, rng_seed=123)
    assert c1 == c2
    assert len(c1) == 1


def test_kmeanspp_k_equals_vertex_count():
    g = path_graph(6)
    centroids = seeds_alone(g, 6, rng_seed=0)
    assert sorted(centroids) == list(range(6))


def test_kmeanspp_k_too_large():
    with pytest.raises(ValueError):
        seeds_alone(path_graph(3), 4, rng_seed=0)


def test_kmeanspp_second_pick_follows_squared_distances():
    # With the first centroid pinned by exhausting seeds, the second pick's
    # frequencies should follow D(x)^2 computed by the brute-force oracle.
    g = path_graph(6)
    tallies = np.zeros(6)
    firsts = np.zeros(6)
    n_trials = 4000
    for seed in range(n_trials):
        c = seeds_alone(g, 2, rng_seed=seed)
        firsts[c[0]] += 1
        tallies[c[1]] += 1
    # aggregate expected distribution over observed first picks
    expected = np.zeros(6)
    for first in range(6):
        d = oracle_sssp(g, first).dist
        expected += firsts[first] * (d * d) / (d * d).sum()
    _, p_value = scipy.stats.chisquare(tallies[expected > 0], expected[expected > 0])
    assert p_value > 0.001


def test_kmeanspp_dumbbell_splits_blobs():
    g = build_graph(dumbbell_mesh())
    hits = sum((c[0] < DUMBBELL_PATCH) != (c[1] < DUMBBELL_PATCH)
               for c in (seeds_alone(g, 2, seed) for seed in range(1000)))
    assert hits >= 950


def test_kmeanspp_unreachable_vertices_stay_selectable():
    pos = np.zeros((4, 3))
    pos[:, 0] = [0, 1, 10, 11]
    g = SurfaceGraph(pos, [0, 2], [1, 3], [1.0, 1.0])  # two components
    for seed in range(20):
        centroids = seeds_alone(g, 3, rng_seed=seed)
        assert len(set(centroids)) == 3


def _full_dijkstra_seeding(g, k, rng_seed):
    """k-means++ seeding with one full Dijkstra per centroid, min-merged afterwards."""
    n = g.vertex_count
    rng = np.random.default_rng(rng_seed)
    centroids = [int(rng.integers(n))]
    nearest = sssp(g, centroids[0]).dist
    for _ in range(k - 1):
        d = nearest.copy()
        missing = np.isinf(d)
        if missing.any():  # the +1 mm rule for unreachable vertices
            d[missing] = d[~missing].max() + 1.0
        cum = np.cumsum(d * d)
        nxt = min(int(np.searchsorted(cum, rng.random() * cum[-1], side="right")), n - 1)
        centroids.append(nxt)
        nearest = np.minimum(nearest, sssp(g, nxt).dist)
    return centroids


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(MESH_KINDS), st.integers(1, 15))
def test_bounded_seeding_equals_full_dijkstra_seeding(seed, kind, k):
    rng = np.random.default_rng(seed)
    g = build_graph(irregular_mesh(kind, rng))
    k = min(k, g.vertex_count)
    assert seeds_alone(g, k, seed) == _full_dijkstra_seeding(g, k, seed)


# -- group assignment ----------------------------------------------------------


def test_calc_groups_single_centroid():
    g = bumpy_grid_graph(1)
    assignment, fallbacks = calc_groups(g, [4])
    assert set(assignment.tolist()) == {0}
    assert fallbacks == 0


def test_calc_groups_tie_rule_on_path():
    assignment, _ = calc_groups(path_graph(5), [0, 4])
    assert assignment.tolist() == [0, 0, 0, 1, 1]


def test_calc_groups_matches_per_centroid_sssp():
    g = bumpy_grid_graph(2, min_side=12, max_side=15)
    rng = np.random.default_rng(7)
    centroids = rng.choice(g.vertex_count, size=5, replace=False).tolist()
    assignment, _ = calc_groups(g, centroids)
    stacked = np.stack([sssp(g, c).dist for c in centroids])
    np.testing.assert_array_equal(assignment, np.argmin(stacked, axis=0))


def test_calc_groups_euclidean_fallback():
    pos = np.zeros((4, 3))
    pos[:, 0] = [0, 1, 5, 6]
    g = SurfaceGraph(pos, [0, 2], [1, 3], [1.0, 1.0])
    assignment, fallbacks = calc_groups(g, [0, 1])  # both centroids in left component
    assert fallbacks == 2
    assert assignment.tolist() == [0, 1, 1, 1]  # right blob snaps to nearest position


# -- medoid updates --------------------------------------------------------------


def test_comp_centroids_path_midpoint():
    g = path_graph(5)
    assignment = np.array([0, 0, 0, 1, 1])
    # {0,1,2} -> symmetric center 1; {3,4} ties and the smaller index wins
    assert comp_centroids(g, assignment, [0, 4]) == [1, 3]


def test_comp_centroids_singleton():
    g = path_graph(3)
    assignment = np.array([0, 1, 0])
    # cluster 1 is the singleton {1}; cluster 0 = {0,2} is disconnected, so the
    # medoid comes from the component holding the previous centroid
    assert comp_centroids(g, assignment, [0, 1]) == [0, 1]
    assert comp_centroids(g, assignment, [2, 1]) == [2, 1]


@pytest.mark.parametrize("seed", range(6))
def test_comp_centroids_matches_repeated_dijkstra(seed):
    g = bumpy_grid_graph(seed, min_side=8, max_side=10)
    rng = np.random.default_rng(seed)
    centroids = rng.choice(g.vertex_count, size=3, replace=False).tolist()
    assignment, _ = calc_groups(g, centroids)
    got = comp_centroids(g, assignment, centroids)
    for cluster_id, medoid in enumerate(got):
        ids = np.flatnonzero(assignment == cluster_id)
        rows = np.stack([sssp(g, int(v)).dist[ids] for v in ids])
        expected = int(ids[int(np.argmin(rows.sum(axis=1)))])
        assert medoid == expected


@pytest.mark.parametrize("seed", range(6))
def test_comp_centroids_matches_bellman_ford_oracle(seed):
    g = bumpy_grid_graph(seed + 50, min_side=7, max_side=9)
    rng = np.random.default_rng(seed)
    centroids = rng.choice(g.vertex_count, size=4, replace=False).tolist()
    assignment, _ = calc_groups(g, centroids)
    got = comp_centroids(g, assignment, centroids)
    for cluster_id, medoid in enumerate(got):
        ids = np.flatnonzero(assignment == cluster_id)
        assert medoid == oracle_medoid(g, ids, previous_centroid=centroids[cluster_id])


def test_comp_centroids_disconnected_uses_previous_component():
    # cluster = two components; medoid must come from the previous centroid's side
    pos = np.zeros((5, 3))
    pos[:, 0] = [0, 1, 2, 50, 51]
    g = SurfaceGraph(pos, [0, 1, 3], [1, 2, 4], [1.0, 1.0, 1.0])
    assignment = np.zeros(5, dtype=int)
    assert comp_centroids(g, assignment, [1]) == [1]
    assert comp_centroids(g, assignment, [4]) == [3]
    assert oracle_medoid(g, np.arange(5), previous_centroid=4) == 3


def _jittered_rotated_grid(nx, ny, rng):
    mesh = grid_mesh(nx, ny)
    jittered = mesh.vertices + rng.normal(scale=0.1, size=mesh.vertices.shape)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return TriangleMesh(jittered @ q.T + rng.normal(scale=10, size=3), mesh.triangles)


def _medoid_case(kind, rng):
    """(graph, sorted cluster ids, previous centroid) for one property example."""
    if kind == "symmetric path":  # every sum ties with its mirror image
        g = path_graph(int(rng.integers(2, 30)))
        return g, np.arange(g.vertex_count), int(rng.integers(g.vertex_count))
    nx, ny = (int(x) for x in rng.integers(3, 16, size=2))
    if kind == "icosphere":
        g = build_graph(icosphere_mesh(int(rng.integers(1, 3)), radius=float(rng.uniform(1, 20))))
    elif kind == "wave sheet":
        g = build_graph(wave_sheet_mesh(nx, ny, amplitude=float(rng.uniform(0.5, 5))))
    elif kind == "unjittered grid":  # exact ties between mirror-image vertices
        g = build_graph(grid_mesh(nx, ny))
    else:
        g = build_graph(_jittered_rotated_grid(nx, ny, rng))
    if kind == "two components":  # drop one grid column
        cut = int(rng.integers(1, nx - 1))
        ids = np.flatnonzero(np.arange(g.vertex_count) % nx != cut)
        return g, ids, int(rng.choice(ids))
    k = int(rng.integers(1, 5))
    centroids = rng.choice(g.vertex_count, size=k, replace=False).tolist()
    assignment, _ = calc_groups(g, centroids)
    ids = np.flatnonzero(assignment == 0)
    if kind == "far previous centroid":  # the member geodesically farthest from the centroid
        dist = sssp(g, centroids[0]).dist[ids]
        return g, ids, int(ids[int(np.argmax(dist))])
    return g, ids, centroids[0]


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from(["jittered rotated grid", "icosphere", "wave sheet", "two components",
                        "unjittered grid", "symmetric path", "far previous centroid"]))
def test_pruned_medoid_equals_oracle(seed, kind):
    g, ids, previous = _medoid_case(kind, np.random.default_rng(seed))
    assert cluster_medoid(g, ids, previous) == oracle_medoid(g, ids, previous_centroid=previous)


def _assigned_case(kind, rng):
    """(graph, centroids) for a real assignment. On "two components" and
    "isolated vertices" meshes every centroid lies in the first grid, so the
    rest of the mesh is assigned by the Euclidean fallback."""
    mesh = irregular_mesh(kind, rng)
    g = build_graph(mesh)
    pool = g.vertex_count
    if kind in ("two components", "isolated vertices"):
        pool = int(np.flatnonzero(np.isfinite(sssp(g, 0).dist)).max()) + 1
    k = int(rng.integers(1, min(5, pool) + 1))
    return g, rng.choice(pool, size=k, replace=False).tolist()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(MESH_KINDS))
def test_medoid_from_assignment_field_equals_oracle(seed, kind):
    g, centroids = _assigned_case(kind, np.random.default_rng(seed))
    assignment, fallbacks = calc_groups(g, centroids)
    dist = multi_source_sssp(g, centroids).dist
    if kind in ("two components", "isolated vertices"):
        assert fallbacks > 0
    for i, c in enumerate(centroids):
        ids = np.flatnonzero(assignment == i)
        # The field restricted to a cluster is the induced-subgraph row, bit for bit.
        row = sssp(induced_subgraph(g, ids), int(np.searchsorted(ids, c))).dist
        assert dist[ids].tobytes() == row.tobytes()
        assert cluster_medoid(g, ids, c, dist) == oracle_medoid(g, ids, previous_centroid=c)
    assert comp_centroids(g, assignment, centroids, dist) == comp_centroids(g, assignment,
                                                                            centroids)


def test_field_is_ignored_for_a_cluster_without_its_previous_centroid():
    g = build_graph(_jittered_rotated_grid(9, 8, np.random.default_rng(5)))
    ids = np.flatnonzero(np.arange(g.vertex_count) % 9 >= 3)  # columns 3..8
    for previous in (0, 19, 65):  # in column 0, 1 or 2: outside the cluster
        dist = sssp(g, previous).dist
        assert cluster_medoid(g, ids, previous, dist) == oracle_medoid(g, ids)
    g = path_graph(5)
    with pytest.raises(ValueError, match="disconnected"):
        cluster_medoid(g, np.array([0, 1, 3, 4]), 2, sssp(g, 2).dist)


def test_medoid_ties_go_to_smallest_index():
    # Even path: the two middle vertices tie exactly. 4 x 4 grid: vertices 5
    # and 10 map onto each other under a half turn, so their sums tie.
    assert cluster_medoid(path_graph(6), np.arange(6), 5) == 2
    g = build_graph(grid_mesh(4, 4))
    assert cluster_medoid(g, np.arange(16), 15) == oracle_medoid(g, np.arange(16)) == 5


def test_disconnected_cluster_without_previous_centroid_raises():
    g = path_graph(5)
    with pytest.raises(ValueError, match="disconnected"):
        cluster_medoid(g, np.array([0, 1, 3, 4]), 2)
    assert cluster_medoid(g, np.array([0, 1, 2]), 4) == 1  # connected: no anchor needed


def test_medoid_search_prunes_most_candidates(monkeypatch):
    rng = np.random.default_rng(3)
    g = build_graph(_jittered_rotated_grid(20, 21, rng))
    ids = np.arange(g.vertex_count)
    evaluated = []  # one row per source of every medoid sweep
    original = kmeans._sweep

    def counting(graph, sources, *args, **kwargs):
        evaluated.extend(sources.tolist())
        return original(graph, sources, *args, **kwargs)

    monkeypatch.setattr(kmeans, "_sweep", counting)
    medoid = cluster_medoid(g, ids, 0)  # a corner: far from the medoid
    assert len(evaluated) < g.vertex_count / 10
    monkeypatch.undo()
    rows = np.stack([sssp(g, int(v)).dist for v in ids])
    assert medoid == int(np.argmin(rows.sum(axis=1)))


def test_medoid_search_holds_less_than_one_square_buffer():
    # Two c x c float64 buffers would be 2 * 8 * 1600**2 bytes = 41 MB.
    g = build_graph(_jittered_rotated_grid(40, 40, np.random.default_rng(4)))
    c = g.vertex_count
    tracemalloc.start()
    try:
        medoid = cluster_medoid(g, np.arange(c), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * c * c / 2
    assert medoid == cluster_medoid(g, np.arange(c), medoid)  # a medoid is its own medoid


@pytest.mark.parametrize("evaluated", [1, 2, 5])
def test_bounds_in_column_blocks_equal_one_block(monkeypatch, evaluated):
    rows = np.random.default_rng(evaluated).random((evaluated, 300))
    cols = np.arange(0, 300, 2)
    whole = _lower_bounds(rows, cols)
    monkeypatch.setattr(kmeans, "_BOUND_BLOCK", 7 * 300)  # a few columns per block
    assert _lower_bounds(rows, cols).tobytes() == whole.tobytes()
    gap = np.abs(rows[:, cols, None] - rows[:, None, :]).max(axis=0)
    np.testing.assert_allclose(whole, gap.sum(axis=1), rtol=1e-12)


def _float32_rows(kind, r, c, rng):
    """r medoid-like rows of c members as float64: spread over 1e-3..1e5 mm,
    bunched near one value, or near-equal beyond float32 resolution."""
    if kind == "spread":
        return 10.0 ** rng.uniform(-3, 5, size=(r, c))
    base = 10.0 ** rng.uniform(-3, 5, size=(r, 1))
    if kind == "bunched":
        return base * (1 + rng.uniform(0, 1e-3, size=(r, c)))
    return base * (1 + rng.integers(0, 4, size=(r, c)) * 2.0 ** -30)  # near-equal


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["spread", "bunched", "near-equal"]),
       st.integers(1, 6), st.integers(2, 2000))
def test_float32_bounds_stay_within_the_row_pad(seed, kind, r, c):
    rng = np.random.default_rng(seed)
    rows = _float32_rows(kind, r, c, rng)
    cols = np.sort(rng.choice(c, size=min(c, 40), replace=False))
    got = _lower_bounds(rows.astype(np.float32), cols)
    exact = np.abs(rows[:, cols, None] - rows[:, None, :]).max(0).sum(1)
    # The search's pad is _ROW_PAD * 2 * c * ecc, and a row is at most 2 * ecc.
    pad = kmeans._ROW_PAD * c * rows.max()
    assert np.all(got - pad <= exact)
    assert np.all(exact - pad <= got)


@pytest.mark.parametrize("shape, weights", [((6, 6), (1, 1)), ((12, 12), (1, 1)),
                                            ((30, 30), (1, 1)), ((16, 31), (2, 3)),
                                            ((40, 20), (3, 1))])
def test_medoid_ties_on_an_integer_grid_go_to_smallest_index(shape, weights):
    # Four-neighbour grid with integer weights: the distances are exact
    # integers and a half turn maps the grid onto itself, so many sums and
    # bounds tie exactly.
    nx, ny = shape
    ids = np.arange(nx * ny).reshape(ny, nx)
    u = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
    v = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
    w = np.concatenate([np.full(ny * (nx - 1), float(weights[0])),
                        np.full((ny - 1) * nx, float(weights[1]))])
    positions = np.column_stack([(ids % nx).ravel(), (ids // nx).ravel(), np.zeros(nx * ny)])
    g = SurfaceGraph(positions.astype(float), u, v, w)
    members = np.arange(g.vertex_count)
    one = np.zeros(g.vertex_count, dtype=np.int64)  # every vertex in cluster 0
    expected = oracle_medoid(g, members)
    for previous in (0, nx - 1, g.vertex_count - 1, expected):
        assert cluster_medoid(g, members, previous) == expected
        # Tied stale bounds: the lazy refresh still takes the rows of a full one.
        eager = _medoid_sources(g, one, [previous], None, EagerMedoidSearches)
        for first_refresh in (1, 16):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(kmeans, "_FIRST_REFRESH", first_refresh)
                assert _medoid_sources(g, one, [previous], None, kmeans._FlatMedoidSearch) == eager


def _bound_rows(kind, sizes, rng):
    """Two rows per cluster, one (2, c) array each."""
    if kind == "integer":
        return [rng.integers(0, 50, size=(2, c)).astype(float) for c in sizes]
    if kind == "repeated":  # a few distinct values, many ties
        return [rng.choice(rng.random(3) * 20, size=(2, c)) for c in sizes]
    return [rng.random((2, c)) * rng.uniform(0.1, 100) for c in sizes]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["float", "integer", "repeated"]),
       st.lists(st.sampled_from([2, 2, 3, 5, 8, 13, 40, 90]), min_size=1, max_size=12))
def test_prefix_sum_bounds_equal_brute_force(seed, kind, sizes):
    sizes = np.sort(sizes)[::-1]  # largest first, as the medoid search lays clusters out
    rows = _bound_rows(kind, sizes, np.random.default_rng(seed))
    starts = np.cumsum(sizes) - sizes
    blocks = kmeans._sort_blocks(starts, sizes)
    a, b = np.concatenate([r[0] for r in rows]), np.concatenate([r[1] for r in rows])
    one, two = kmeans._abs_sums(a, blocks), kmeans._pair_bounds(a, b, blocks)
    for r, start in zip(rows, starts):
        # A medoid row is at most twice the anchor's eccentricity, so the
        # search's pad is at least this.
        c = r.shape[1]
        pad = kmeans._PRUNE_PAD * c * r.max()
        for got, evaluated in ((one[start:start + c], r[:1]), (two[start:start + c], r)):
            brute = np.abs(evaluated[:, :, None] - evaluated[:, None, :]).max(0).sum(1)
            if kind == "integer":  # every step is exact
                assert got.tobytes() == brute.tobytes()
            else:
                assert np.all(np.abs(got - brute) <= pad)


@pytest.mark.parametrize("sizes", [[1600] + [5, 9, 20] * 100, list(range(2, 300)), [2] * 5000])
def test_layout_groups_pad_at_most_twice_the_members(sizes):
    sizes = np.sort(sizes)[::-1]  # largest first, as the medoid search lays clusters out
    blocks = [block for block, _ in kmeans._sort_blocks(np.cumsum(sizes) - sizes, sizes)]
    padded = sum(block.size for block in blocks)
    assert padded <= 2 * sum(sizes)
    real = np.concatenate([block[block >= 0] for block in blocks])
    assert np.array_equal(np.sort(real), np.arange(sum(sizes)))  # every member once
    assert all(block.size <= kmeans._BOUND_BLOCK // 8 or len(block) == 1 for block in blocks)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["icosphere", "wave sheet", "dumbbell"]),
       st.integers(2, 40))
def test_lockstep_medoids_of_many_clusters_equal_oracle(seed, kind, k):
    rng = np.random.default_rng(seed)
    mesh = (dumbbell_mesh(*(int(x) for x in rng.integers(2, 9, size=2)))
            if kind == "dumbbell" else irregular_mesh(kind, rng))
    g = perturb_weights(build_graph(mesh), rng_seed=seed % 1000)
    centroids = rng.choice(g.vertex_count, size=min(k, g.vertex_count), replace=False).tolist()
    assignment, _ = calc_groups(g, centroids)
    dist = multi_source_sssp(g, centroids).dist
    medoids = comp_centroids(g, assignment, centroids, dist)
    assert medoids == comp_centroids(g, assignment, centroids)
    for i, c in enumerate(centroids):
        ids = np.flatnonzero(assignment == i)
        assert medoids[i] == oracle_medoid(g, ids, previous_centroid=c)


def test_refresh_goes_on_through_stale_bounds_tied_with_the_smallest(monkeypatch):
    monkeypatch.setattr(kmeans, "_FIRST_REFRESH", 1)
    c = 41

    def search(rows, stale, best_sum):  # one cluster, candidates 1..40
        return kmeans._FlatMedoidSearch(np.array([0]), np.arange(c), np.array([c]), rows,
                                        np.arange(1, c), stale, np.array([best_sum]),
                                        np.array([0]), np.array([1e-6]))

    # Three copies of the row 0..40: the fresh bound of x is sum_j |j - x|,
    # 420 at x = 20 and more elsewhere. x = 20's stale bound sorts first; the
    # others' stale bounds tie with its fresh one, so they must be refreshed.
    stale = np.full(c - 1, 420.0)
    stale[19] = 0.0
    flat = search(np.tile(np.arange(c, dtype=np.float32), (3, 1)), stale, 820.0)
    assert flat.prune() and flat.sources.tolist() == [20]
    # Every fresh bound is 0 and the last candidate sorts first: the row
    # goes to the smallest position.
    stale = np.zeros(c - 1)
    stale[-1] = -1.0
    flat = search(np.ones((3, c), dtype=np.float32), stale, 1.0)
    assert flat.prune() and flat.sources.tolist() == [1]


def _medoid_sources(graph, assignment, centroids, dist, search):
    """comp_centroids with `search` as kmeans._FlatMedoidSearch: the medoids
    and the sources of every medoid sweep, round by round."""
    sources = []
    original = kmeans._sweep

    def recording(g, s, *args, **kwargs):
        sources.append(s.tolist())
        return original(g, s, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kmeans, "_sweep", recording)
        patch.setattr(kmeans, "_FlatMedoidSearch", search)
        medoids = comp_centroids(graph, assignment, centroids, dist)
    return medoids, sources


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(MESH_KINDS), st.integers(1, 40),
       st.sampled_from([1, 3, 16]))
def test_lazy_refresh_evaluates_the_rows_of_a_full_refresh(seed, kind, k, first_refresh):
    rng = np.random.default_rng(seed)
    mesh = irregular_mesh(kind, rng)
    if seed % 2 and kind == "jittered grid":  # larger clusters: more open candidates
        mesh = bumpy_grid_mesh(seed, min_side=20, max_side=40)
    elif seed % 2 and kind == "unjittered grid":
        mesh = grid_mesh(*(int(x) for x in rng.integers(20, 41, size=2)))
    g = perturb_weights(build_graph(mesh), rng_seed=seed % 1000) if seed % 3 else build_graph(mesh)
    pool = int(np.flatnonzero(np.isfinite(sssp(g, 0).dist)).max()) + 1
    centroids = rng.choice(pool, size=min(k, pool), replace=False).tolist()
    assignment, _ = calc_groups(g, centroids)
    dist = multi_source_sssp(g, centroids).dist
    with pytest.MonkeyPatch.context() as patch:  # smaller first refreshes: more of them
        patch.setattr(kmeans, "_FIRST_REFRESH", first_refresh)
        lazy = _medoid_sources(g, assignment, centroids, dist, kmeans._FlatMedoidSearch)
    assert lazy == _medoid_sources(g, assignment, centroids, dist, EagerMedoidSearches)


def test_flat_search_of_350_atlas_clusters_equals_the_per_cluster_reference(monkeypatch):
    # 70 desk atlas regions at k=5: 350 clusters of varied size, so one
    # refresh step spans several padded blocks and pads both members and
    # candidates, and some clusters need a second refresh step.
    mesh, regions, _ = atlas_mesh(100, 98)
    g = cut_graph(build_graph(mesh), regions)
    blocks = [Block(np.flatnonzero(regions == r), KmeansConfig(k=5, rng_seed=r)) for r in range(70)]
    centroids = np.concatenate(kmeanspp_init(g, blocks))
    assignment, _, dist = kmeans._assign_blocks(g, centroids, [b.ids for b in blocks], [5] * 70)
    steps = []  # refresh steps of each prune
    prune, refresh = kmeans._FlatMedoidSearch.prune, kmeans._FlatMedoidSearch._refresh

    def counting_prune(self):
        steps.append(0)
        return prune(self)

    def counting_refresh(self, *args):
        steps[-1] += 1
        return refresh(self, *args)

    monkeypatch.setattr(kmeans._FlatMedoidSearch, "prune", counting_prune)
    monkeypatch.setattr(kmeans._FlatMedoidSearch, "_refresh", counting_refresh)
    flat = _medoid_sources(g, assignment, centroids.tolist(), dist, kmeans._FlatMedoidSearch)
    assert max(steps) >= 2
    assert flat == _medoid_sources(g, assignment, centroids.tolist(), dist, EagerMedoidSearches)
    sizes = np.bincount(assignment)
    assert len(sizes) == 350 and sizes.max() > 2 * sizes.min()
    for i, c in enumerate(centroids):
        assert flat[0][i] == oracle_medoid(g, np.flatnonzero(assignment == i), previous_centroid=c)


@pytest.mark.parametrize("block", [kmeans._BOUND_BLOCK, 1 << 24])
@pytest.mark.parametrize("chunk", [1, 16, 64])
@pytest.mark.parametrize("sizes, evaluated", [([20000, 13001, 10001], 4),
                                              ([900, 870, 600, 451, 451, 450], 7),
                                              ([57, 57, 56, 40, 33, 30, 29], 12)])
def test_padded_bounds_equal_per_cluster_bounds_bit_for_bit(monkeypatch, block, chunk, sizes,
                                                           evaluated):
    # One padded group: every cluster keeps more than half of the widest,
    # so the members pad up to twice over; candidates pad to the most of
    # any cluster. The larger block puts the large clusters side by side
    # too. Rows are distances as medoid rows hold them, 0.5 to 120 mm and
    # a zero at the source, as float32.
    monkeypatch.setattr(kmeans, "_BOUND_BLOCK", block)
    rng = np.random.default_rng(chunk * len(sizes))
    sizes = np.array(sizes)  # largest first, as the medoid search lays clusters out
    starts = np.cumsum(sizes) - sizes
    rows = rng.uniform(0.5, 120, size=(evaluated, sizes.sum() + 1)).astype(np.float32)
    rows[:, starts] = 0.0
    rows[:, -1] = 0.0  # what the padding points at
    picks = np.minimum(sizes, np.maximum(1, chunk >> np.arange(len(sizes))))
    candidates = np.full((len(sizes), picks.max()), -1)
    for i, (a, c, k) in enumerate(zip(starts, sizes, picks)):
        candidates[i, :k] = a + np.sort(rng.choice(c, size=k, replace=False))
    got = kmeans._padded_bounds(rows, starts, sizes, candidates, picks)
    for i, (a, c, k) in enumerate(zip(starts, sizes, picks)):
        alone = _lower_bounds(rows[:, a:a + c], candidates[i, :k] - a)
        assert got[i, :k].tobytes() == alone.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from([2, 3, 7, 8, 9, 57, 128, 129, 300, 1000]), min_size=1, max_size=40))
def test_row_totals_have_the_bits_of_slice_sums(seed, sizes):
    sizes = np.sort(sizes)[::-1]  # clusters of one size side by side
    values = 10.0 ** np.random.default_rng(seed).uniform(-3, 3, size=sizes.sum())
    starts = np.cumsum(sizes) - sizes
    alone = np.array([values[a:a + c].sum() for a, c in zip(starts, sizes)])
    assert kmeans._totals(values, sizes).tobytes() == alone.tobytes()


def test_medoid_memory_follows_the_member_count():
    # One 1600-member cluster beside 300 clusters of about 12 members: a
    # layout padding every cluster to the largest would hold 301 x 1600
    # slots per array, over 3 kB per member.
    rng = np.random.default_rng(0)
    big = _jittered_rotated_grid(40, 40, rng)
    small = _jittered_rotated_grid(60, 60, rng)
    g = build_graph(concat_meshes(big, small)[0])
    centroids = (1600 + rng.choice(3600, size=300, replace=False)).tolist()
    assignment, _ = calc_groups(g, centroids)
    assignment[:1600] = len(centroids)  # the big grid is one cluster
    centroids.append(0)
    tracemalloc.start()
    try:
        medoids = comp_centroids(g, assignment, centroids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1500 * g.vertex_count
    assert medoids[-1] == cluster_medoid(g, np.arange(1600), 0)


def test_comp_centroids_empty_cluster_rejected():
    g = path_graph(4)
    with pytest.raises(ValueError, match="empty"):
        comp_centroids(g, np.zeros(4, dtype=int), [0, 3])


# -- stopping -------------------------------------------------------------------


def test_parallel_kmeans_stops_on_its_shift_or_at_the_cap():
    # Two blocks in lockstep, each with its own cap and tolerance: a block
    # stops at the first iteration whose shift is below its tolerance, or
    # at its cap.
    left, right = bumpy_grid_mesh(12, min_side=9, max_side=11), bumpy_grid_mesh(13)
    mesh, halves = concat_meshes(left, TriangleMesh(right.vertices + [40.0, 0, 0],
                                                    right.triangles))
    g = build_graph(mesh)
    outcomes = set()
    for seed in range(4):
        for max_iterations in (1, 2, 3, 20):
            for tol in (0.5, 2.0):
                blocks = [Block(np.flatnonzero(halves == h),
                                KmeansConfig(k=3 + h, max_iterations=max_iterations,
                                             convergence_tolerance_mm=tol, rng_seed=seed + h))
                          for h in (0, 1)]
                for block, res in zip(blocks, parallel_kmeans(g, blocks).blocks):
                    assert res.converged_by_tolerance == (res.last_shift_mm < tol)
                    assert 1 <= res.iterations <= max_iterations
                    if not res.converged_by_tolerance:
                        assert res.iterations == max_iterations
                    elif res.iterations > 1:  # and not one iteration earlier
                        config = KmeansConfig(k=block.k, max_iterations=res.iterations - 1,
                                              convergence_tolerance_mm=tol,
                                              rng_seed=block.config.rng_seed)
                        sub = induced_subgraph(g, block.ids)
                        assert not kmeans_alone(sub, config).converged_by_tolerance
                    outcomes.add((res.converged_by_tolerance, res.iterations == max_iterations))
    assert outcomes == {(True, True), (True, False), (False, True)}


def test_max_centroid_shift():
    g = path_graph(10)
    assert max_centroid_shift_mm([0, 3], [2, 3], g) == 2.0


# -- full loop -------------------------------------------------------------------


def test_parallel_kmeans_k1_single_group():
    g = bumpy_grid_graph(3)
    res = kmeans_alone(g, KmeansConfig(k=1, rng_seed=9))
    assert len(res.groups) == 1
    assert res.groups[0].tolist() == list(range(g.vertex_count))


def test_parallel_kmeans_k_too_large():
    with pytest.raises(ValueError):
        kmeans_alone(path_graph(3), KmeansConfig(k=4))


def test_bridge_partition_from_any_centroid_pair():
    # exhaustive: every starting pair converges to the two triangles
    g = bridge_graph()
    config = KmeansConfig(k=2)
    expected = [frozenset({0, 1, 2}), frozenset({3, 4, 5})]
    for pair in combinations(range(6), 2):
        centroids = list(pair)
        for it in range(1, config.max_iterations + 1):
            assignment, _ = calc_groups(g, centroids)
            new_centroids = comp_centroids(g, assignment, centroids)
            shift = max_centroid_shift_mm(centroids, new_centroids, g)
            centroids = new_centroids
            if shift < config.convergence_tolerance_mm or it >= config.max_iterations:
                break
        groups = sorted((frozenset(np.flatnonzero(assignment == i).tolist())
                         for i in range(2)), key=min)
        assert groups == expected, f"start {pair} settled on {groups}"


def test_bridge_partition_over_seeds():
    g = bridge_graph()
    for seed in range(25):
        res = kmeans_alone(g, KmeansConfig(k=2, rng_seed=seed))
        groups = sorted((frozenset(grp.tolist()) for grp in res.groups), key=min)
        assert groups == [frozenset({0, 1, 2}), frozenset({3, 4, 5})]


def test_parallel_kmeans_deterministic():
    g = bumpy_grid_graph(11, min_side=22, max_side=22)  # ~500 vertices
    config = KmeansConfig(k=5, rng_seed=21)
    a = kmeans_alone(g, config)
    b = kmeans_alone(g, config)
    for x, y in zip(a.groups, b.groups):
        assert np.array_equal(x, y)
    assert a.centroids == b.centroids


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 100_000), st.integers(2, 6))
def test_groups_partition_vertices(seed, k):
    g = bumpy_grid_graph(seed % 64 + 30, min_side=6, max_side=9)
    res = kmeans_alone(g, KmeansConfig(k=k, rng_seed=seed))
    allv = np.concatenate(res.groups)
    assert len(allv) == g.vertex_count
    assert len(np.unique(allv)) == g.vertex_count
    assert all(len(grp) > 0 for grp in res.groups)
    assert res.iterations <= 20
    assert res.assignment[res.centroids].tolist() == list(range(k))


def test_assignment_optimality_after_calc_groups():
    g = bumpy_grid_graph(40, min_side=10, max_side=12)
    centroids = seeds_alone(g, 6, rng_seed=2)
    assignment, _ = calc_groups(g, centroids)
    field = multi_source_sssp(g, centroids)
    stacked = np.stack([sssp(g, c).dist for c in centroids])
    own = stacked[assignment, np.arange(g.vertex_count)]
    assert np.all(own <= stacked.min(axis=0) + 1e-12)
    np.testing.assert_array_equal(own, field.dist)


def test_medoid_optimality_within_component():
    g = bumpy_grid_graph(41, min_side=8, max_side=8)
    centroids = seeds_alone(g, 4, rng_seed=3)
    assignment, _ = calc_groups(g, centroids)
    medoids = comp_centroids(g, assignment, centroids)
    for cluster_id, medoid in enumerate(medoids):
        ids = np.flatnonzero(assignment == cluster_id)
        rows = np.stack([oracle_sssp(g, int(v)).dist[ids] for v in ids])
        sums = np.where(np.isfinite(rows).all(axis=1), rows.sum(axis=1), np.inf)
        best = sums.min()
        medoid_sum = sums[list(ids).index(medoid)]
        assert medoid_sum <= best + 1e-12


def test_groups_connected_under_perturbed_weights():
    for seed in range(5):
        g = perturb_weights(bumpy_grid_graph(seed + 60, min_side=8, max_side=10),
                            rng_seed=seed)
        res = kmeans_alone(g, KmeansConfig(k=4, rng_seed=seed))
        for grp in res.groups:
            members = set(grp.tolist())
            frontier = {int(grp[0])}
            seen = set(frontier)
            while frontier:
                nxt = set()
                for u in frontier:
                    for v in neighbors(g, u)[0]:
                        v = int(v)
                        if v in members and v not in seen:
                            seen.add(v)
                            nxt.add(v)
                frontier = nxt
            assert seen == members


def test_energy_history_recorded():
    g = bumpy_grid_graph(70)
    res = kmeans_alone(g, KmeansConfig(k=3, rng_seed=1))
    assert len(res.energy_history) == res.iterations
    assert all(e >= 0 for e in res.energy_history)
