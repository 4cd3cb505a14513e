import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geosp import (SurfaceGraph, TriangleMesh, build_graph, cut_graph, extract_region_subgraph,
                   grid_mesh, induced_subgraph, multi_source_sssp, sssp, wave_sheet_mesh)
from geosp.oracles import oracle_apsp as apsp, oracle_dijkstra, oracle_sssp
from geosp.surface_graph import MIN_EDGE_WEIGHT_MM
from geosp.surface_graph import apsp as dijkstra_apsp

from helpers import (MESH_KINDS, brute_force_triangle_edges, bumpy_grid_graph,
                     bumpy_grid_mesh, irregular_mesh, neighbors, path_graph,
                     right_triangle_mesh)


# -- graph construction ------------------------------------------------------


def test_right_triangle_edges():
    g = build_graph(right_triangle_mesh())
    _eu, _ev, ew = g.edges()
    assert g.vertex_count == 3
    assert sorted(np.round(ew, 12).tolist()) == sorted([1.0, 1.0, round(np.sqrt(2), 12)])


def test_shared_edge_stored_once():
    mesh = TriangleMesh(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]),
                        np.array([[0, 1, 2], [1, 3, 2]]))
    g = build_graph(mesh)
    assert g.edge_count == 5


def test_grid_edges_match_brute_force():
    mesh = grid_mesh(10, 10)
    g = build_graph(mesh)
    expected = brute_force_triangle_edges(mesh)
    eu, ev, ew = g.edges()
    got = {(int(a), int(b)): float(w) for a, b, w in zip(eu, ev, ew)}
    assert got.keys() == expected.keys()
    for key, w in expected.items():
        assert got[key] == pytest.approx(w, rel=1e-12)


@pytest.mark.parametrize("kind", MESH_KINDS)
def test_edges_are_the_sorted_unique_triangle_sides(kind):
    mesh = irregular_mesh(kind, np.random.default_rng(len(kind)))
    t = mesh.triangles
    sides = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1)
    rows = np.unique(sides, axis=0)
    eu, ev, ew = build_graph(mesh).edges()
    np.testing.assert_array_equal(np.column_stack([eu, ev]), rows)
    norms = np.linalg.norm(mesh.vertices[rows[:, 0]] - mesh.vertices[rows[:, 1]], axis=1)
    assert ew.tobytes() == norms.tobytes()


def test_zero_length_edge_clamped():
    mesh = TriangleMesh(np.array([[0.0, 0, 0], [0, 0, 0], [1, 0, 0]]),
                        np.array([[0, 1, 2]]))
    g = build_graph(mesh)
    assert g.edges()[2].min() == MIN_EDGE_WEIGHT_MM


def test_graph_rejects_bad_edges():
    pos = np.zeros((3, 3))
    with pytest.raises(ValueError, match="self-loop"):
        SurfaceGraph(pos, [0], [0], [1.0])
    with pytest.raises(ValueError, match="positive"):
        SurfaceGraph(pos, [0], [1], [0.0])
    with pytest.raises(ValueError, match="duplicate"):
        SurfaceGraph(pos, [0, 1], [1, 0], [1.0, 1.0])
    with pytest.raises(ValueError, match="positive"):
        SurfaceGraph(pos, [0, 1], [1, 2], [1.0, np.nan])


def test_graph_rejects_bad_positions():
    with pytest.raises(ValueError, match=r"positions must have shape \(n, 3\), got \(3, 2\)"):
        SurfaceGraph(np.zeros((3, 2)), [0], [1], [1.0])
    with pytest.raises(ValueError, match=r"got \(9,\)"):
        SurfaceGraph(np.zeros(9), [0], [1], [1.0])
    for bad in (np.nan, np.inf):
        pos = np.zeros((3, 3))
        pos[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            SurfaceGraph(pos, [0], [1], [1.0])


def _lexsort_construction(n, u, v, w):
    """Edge and CSR arrays as SurfaceGraph built them with a hash np.unique
    duplicate check and a lexsort of the directed edges."""
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    key = lo * n + hi
    assert len(np.unique(key)) == len(key)
    order = np.argsort(key, kind="stable")
    eu, ev, ew = lo[order], hi[order], w[order]
    du, dv, dw = np.concatenate([eu, ev]), np.concatenate([ev, eu]), np.concatenate([ew, ew])
    idx = np.lexsort((dv, du))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(du, minlength=n), out=indptr[1:])
    return eu, ev, ew, indptr, dv[idx], dw[idx]


@pytest.mark.parametrize("kind", MESH_KINDS)
def test_csr_arrays_equal_the_lexsort_construction(kind):
    rng = np.random.default_rng(len(kind) + 7)
    g = build_graph(irregular_mesh(kind, rng))
    eu, ev, ew = g.edges()
    shuffle = rng.permutation(len(eu))
    flip = rng.random(len(eu)) < 0.5
    u, v = np.where(flip, ev, eu)[shuffle], np.where(flip, eu, ev)[shuffle]
    shuffled = SurfaceGraph(g.positions, u, v, ew[shuffle])
    for graph, edges in ((g, (eu, ev, ew)), (shuffled, (u, v, ew[shuffle]))):
        expected = _lexsort_construction(g.vertex_count, *edges)
        got = (*graph.edges(), graph.indptr, graph.neighbor_indices, graph.neighbor_weights)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in expected]
    with pytest.raises(ValueError, match="duplicate"):  # one edge twice, far apart
        SurfaceGraph(g.positions, np.append(u, v[0]), np.append(v, u[0]), np.append(ew, 1.0))


def test_adjacency_symmetric():
    g = bumpy_grid_graph(0)
    for u in range(g.vertex_count):
        for v, w in zip(*neighbors(g, u)):
            back_n, back_w = neighbors(g, int(v))
            assert w == back_w[list(back_n).index(u)]


# -- region subgraphs --------------------------------------------------------


def test_subgraph_all_same_label_is_identity():
    g = bumpy_grid_graph(1)
    labels = np.zeros(g.vertex_count, dtype=int)
    sub, idmap = extract_region_subgraph(g, labels, 0)
    assert idmap.tolist() == list(range(g.vertex_count))
    assert sub.edge_count == g.edge_count
    np.testing.assert_array_equal(sub.edges()[2], g.edges()[2])


def test_subgraph_single_vertex_region():
    g = bumpy_grid_graph(2)
    labels = np.zeros(g.vertex_count, dtype=int)
    labels[5] = 1
    sub, idmap = extract_region_subgraph(g, labels, 1)
    assert sub.vertex_count == 1
    assert sub.edge_count == 0
    assert idmap.tolist() == [5]


def test_subgraph_checkerboard_matches_brute_force():
    mesh = grid_mesh(6, 6)
    g = build_graph(mesh)
    i = np.arange(36) % 6
    j = np.arange(36) // 6
    labels = (i + j) % 2
    sub, idmap = extract_region_subgraph(g, labels, 0)
    eu, ev, ew = g.edges()
    keep = (labels[eu] == 0) & (labels[ev] == 0)
    expected = {(int(a), int(b)) for a, b in zip(eu[keep], ev[keep])}
    su, sv, _sw = sub.edges()
    got = {(int(idmap[a]), int(idmap[b])) for a, b in zip(su, sv)}
    assert got == expected


@pytest.mark.parametrize("kind", MESH_KINDS)
def test_cut_graph_is_the_graph_of_the_edges_within_labels(kind):
    rng = np.random.default_rng(len(kind) + 1)
    g = build_graph(irregular_mesh(kind, rng))
    labels = rng.integers(0, 3, size=g.vertex_count)
    eu, ev, ew = g.edges()
    keep = labels[eu] == labels[ev]
    expected = SurfaceGraph(g.positions, eu[keep], ev[keep], ew[keep])
    cut = cut_graph(g, labels)
    for a, b in zip(cut.edges(), expected.edges()):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(cut.indptr, expected.indptr)
    np.testing.assert_array_equal(cut.neighbor_indices, expected.neighbor_indices)
    np.testing.assert_array_equal(cut.neighbor_weights, expected.neighbor_weights)
    assert cut.positions is g.positions and g.edge_count == len(eu)  # g is left as it was


@pytest.mark.parametrize("kind", MESH_KINDS)
def test_cut_of_a_cut_graph_is_one_cut_by_both_labels(kind):
    rng = np.random.default_rng(len(kind) + 2)
    g = build_graph(irregular_mesh(kind, rng))
    a, b = rng.integers(0, 2, size=(2, g.vertex_count))
    twice = cut_graph(cut_graph(g, a), b)
    once = cut_graph(g, a * (b.max() + 1) + b)
    for x, y in zip((*twice.edges(), twice.indptr, twice.neighbor_indices, twice.neighbor_weights),
                    (*once.edges(), once.indptr, once.neighbor_indices, once.neighbor_weights)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert twice.edge_count == once.edge_count < cut_graph(g, a).edge_count


def test_subgraph_absent_region_errors():
    g = bumpy_grid_graph(3)
    with pytest.raises(ValueError, match="region 9"):
        extract_region_subgraph(g, np.zeros(g.vertex_count, dtype=int), 9)


# -- single-source shortest paths ---------------------------------------------


def test_sssp_path_graph():
    f = sssp(path_graph(3), 0)
    assert f.dist.tolist() == [0.0, 1.0, 2.0]


def test_sssp_disconnected_marks_unreachable():
    pos = np.zeros((4, 3))
    pos[:, 0] = np.arange(4)
    g = SurfaceGraph(pos, [0, 2], [1, 3], [1.0, 1.0])
    f = sssp(g, 0)
    assert f.dist[1] == 1.0
    assert np.isinf(f.dist[2]) and np.isinf(f.dist[3])


def test_sssp_source_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        sssp(path_graph(3), 3)


@pytest.mark.parametrize("seed", range(5))
def test_sssp_matches_bellman_ford(seed):
    g = bumpy_grid_graph(seed, min_side=8, max_side=11)
    src = seed % g.vertex_count
    np.testing.assert_allclose(sssp(g, src).dist, oracle_sssp(g, src).dist,
                               rtol=1e-9, atol=0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 1000))
def test_sssp_symmetry_and_relaxation(seed):
    g = bumpy_grid_graph(seed, min_side=4, max_side=7)
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, g.vertex_count, size=2)
    fa = sssp(g, int(a))
    fb = sssp(g, int(b))
    assert fa.dist[b] == pytest.approx(fb.dist[a], rel=1e-9)
    # relaxation closure along every edge
    eu, ev, ew = g.edges()
    assert np.all(fa.dist[ev] <= fa.dist[eu] + ew + 1e-12)
    assert np.all(fa.dist[eu] <= fa.dist[ev] + ew + 1e-12)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(MESH_KINDS), st.integers(0, 4))
def test_bounded_sssp_is_minimum_with_full_run(seed, kind, n_bound_sources):
    # The bound is all-inf, or the minimum of 1-4 earlier fields: inf on
    # every component none of its sources reaches.
    rng = np.random.default_rng(seed)
    g = build_graph(irregular_mesh(kind, rng))
    bound = np.full(g.vertex_count, np.inf)
    for s in rng.integers(g.vertex_count, size=n_bound_sources):
        bound = np.minimum(bound, sssp(g, int(s)).dist)
    before = bound.copy()
    source = int(rng.integers(g.vertex_count))
    got = sssp(g, source, bound)
    assert got.dist.tobytes() == np.minimum(bound, sssp(g, source).dist).tobytes()
    assert got.sources == (source,) and got.dist[source] == 0.0
    assert bound.tobytes() == before.tobytes()  # the bound is not written to


def test_bounded_sssp_rejects_wrong_length():
    with pytest.raises(ValueError, match="bound"):
        sssp(path_graph(3), 0, np.zeros(2))


@pytest.mark.parametrize("entry", [np.nan, -1.0, -np.inf])
def test_bounded_sssp_rejects_nan_and_negative_entries(entry):
    g = build_graph(grid_mesh(4, 4))
    bound = np.full(g.vertex_count, np.inf)
    bound[5] = entry
    with pytest.raises(ValueError, match="bound entries"):
        sssp(g, 0, bound)


def test_bounded_sssp_rejects_a_bound_that_is_not_1d():
    g = build_graph(grid_mesh(4, 4))
    for bound in (np.full((g.vertex_count, 1), np.inf), np.float64(np.inf)):
        with pytest.raises(ValueError, match="1-D"):
            sssp(g, 0, bound)


# -- the kernel against the heap Dijkstra ---------------------------------------


def _kernel_case(kind, rng):
    """A graph of one MESH_KINDS kind or of one of the grid kinds below.

    "quantised grid": weights 0.5, 1.0 or 1.5, so many paths tie exactly and
    nearest sources are decided by ties. "ulp grid": the same weights, each
    moved by at most one ulp, so paths differ by an ulp or tie only after
    rounding. "diagonal grid": a grid of random spacing, weights s and
    s * sqrt(2), whose sums tie or not by summation order.
    """
    if kind == "diagonal grid":
        return build_graph(grid_mesh(*(int(x) for x in rng.integers(2, 10, size=2)),
                                     spacing=float(rng.uniform(0.1, 3))))
    if kind not in ("quantised grid", "ulp grid"):
        return build_graph(irregular_mesh(kind, rng))
    eu, ev, _ew = build_graph(grid_mesh(*(int(x) for x in rng.integers(2, 10, size=2)))).edges()
    weights = 0.5 * rng.integers(1, 4, size=len(eu))
    if kind == "ulp grid":
        weights = np.nextafter(weights, weights + rng.integers(-1, 2, size=len(eu)))
    return SurfaceGraph(np.zeros((int(ev.max()) + 1, 3)), eu, ev, weights)


def _assert_kernel_matches_heap_dijkstra(g, sources):
    dist, pos = oracle_dijkstra(g, sources)
    nearest = np.where(pos >= 0, np.asarray(sources)[pos], -1)
    fm = multi_source_sssp(g, sources)
    assert fm.dist.tobytes() == dist.tobytes()
    np.testing.assert_array_equal(fm.nearest_source, nearest)  # ties: earliest source
    assert sssp(g, sources).dist.tobytes() == dist.tobytes()
    return dist


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from(MESH_KINDS + ["quantised grid", "ulp grid", "diagonal grid"]),
       st.integers(1, 8))
def test_kernel_is_bit_exact_against_heap_dijkstra(seed, kind, n_sources):
    rng = np.random.default_rng(seed)
    g = _kernel_case(kind, rng)
    sources = rng.choice(g.vertex_count, size=min(n_sources, g.vertex_count),
                         replace=False).tolist()
    dist = _assert_kernel_matches_heap_dijkstra(g, sources)
    # A bounded run from one more source is the minimum with its full field.
    source = int(rng.integers(g.vertex_count))
    full = oracle_dijkstra(g, [source])[0]
    assert sssp(g, source, dist).dist.tobytes() == np.minimum(dist, full).tobytes()
    assert sssp(g, source).dist.tobytes() == full.tobytes()


def test_nearest_source_follows_the_final_distances():
    # Vertex 3 is first reached from source 0 at 1 + 2**-52, then from
    # source 1 at 1.0; both give vertex 4 the distance 2.0, so vertex 4 must
    # take vertex 3's final source, 1, not the one it first tied through.
    g = SurfaceGraph(np.zeros((5, 3)), [0, 1, 2, 3], [3, 2, 3, 4], [1 + 2**-52, 0.5, 0.5, 1.0])
    _assert_kernel_matches_heap_dijkstra(g, [0, 1])
    assert multi_source_sssp(g, [0, 1]).nearest_source.tolist() == [0, 1, 1, 1, 1]
    # The same shape arises in a few ulp grids in a hundred; these 300
    # seeds hold seven.
    for seed in range(300):
        rng = np.random.default_rng(seed)
        g = _kernel_case("ulp grid", rng)
        n_sources = min(int(rng.integers(2, 9)), g.vertex_count)
        _assert_kernel_matches_heap_dijkstra(
            g, rng.choice(g.vertex_count, size=n_sources, replace=False).tolist())


# -- multi-source -------------------------------------------------------------


def test_multi_source_single_equals_sssp():
    g = bumpy_grid_graph(4)
    f1 = sssp(g, 7)
    fm = multi_source_sssp(g, [7])
    np.testing.assert_array_equal(f1.dist, fm.dist)
    assert set(fm.nearest_source.tolist()) == {7}


def test_multi_source_tie_goes_to_earlier_source():
    g = path_graph(5)
    f = multi_source_sssp(g, [0, 4])
    assert f.dist[2] == 2.0
    assert f.nearest_source[2] == 0  # equidistant, earlier source wins
    assert f.nearest_source.tolist() == [0, 0, 0, 4, 4]
    # the rule is list position, not vertex id
    g2 = multi_source_sssp(g, [4, 0])
    assert g2.nearest_source[2] == 4


def test_multi_source_matches_independent_runs():
    g = bumpy_grid_graph(5, min_side=9, max_side=12)
    sources = [0, g.vertex_count // 2, g.vertex_count - 1]
    fm = multi_source_sssp(g, sources)
    per_source = np.stack([sssp(g, s).dist for s in sources])
    np.testing.assert_array_equal(fm.dist, per_source.min(axis=0))
    winners = np.asarray(sources)[np.argmin(per_source, axis=0)]
    np.testing.assert_array_equal(fm.nearest_source, winners)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5))
def test_multi_source_is_pointwise_minimum(seed, n_sources):
    g = bumpy_grid_graph(seed % 50, min_side=4, max_side=7)
    rng = np.random.default_rng(seed)
    sources = rng.choice(g.vertex_count, size=min(n_sources, g.vertex_count),
                         replace=False).tolist()
    fm = multi_source_sssp(g, sources)
    stacked = np.stack([sssp(g, s).dist for s in sources])
    np.testing.assert_array_equal(fm.dist, stacked.min(axis=0))
    for s in sources:
        assert fm.dist[s] == 0.0


def test_multi_source_input_validation():
    g = path_graph(4)
    with pytest.raises(ValueError, match="empty"):
        multi_source_sssp(g, [])
    with pytest.raises(ValueError, match="duplicate"):
        multi_source_sssp(g, [1, 1])
    with pytest.raises(ValueError, match="out of range"):
        multi_source_sssp(g, [9])


def test_sources_must_be_whole_numbers():
    g = build_graph(grid_mesh(4, 4))
    for call, sources in ((sssp, 1.7), (sssp, np.nan), (multi_source_sssp, [0.2, 5.9]),
                          (multi_source_sssp, np.array([3.0, 0.5]))):
        with pytest.raises(ValueError, match="whole number"):
            call(g, sources)
    with pytest.raises(ValueError, match="out of range"):
        sssp(g, np.inf)


def test_sources_must_not_be_bools():
    g = build_graph(grid_mesh(4, 4))
    for call, sources, shown in ((sssp, True, "True"), (sssp, np.False_, "False"),
                                 (multi_source_sssp, np.array([True, False]), "True"),
                                 (multi_source_sssp, [3, True], "True"),
                                 (multi_source_sssp, (2, np.bool_(False)), "False")):
        with pytest.raises(ValueError, match=f"source vertex {shown} is a bool"):
            call(g, sources)
    with pytest.raises(ValueError, match="is a bool"):
        sssp(g, [True], bound=np.zeros(16))


def test_integer_sources_of_any_kind_are_accepted():
    g = build_graph(grid_mesh(4, 4))
    expected = multi_source_sssp(g, [0, 5])
    for sources in ([np.int32(0), np.uint8(5)], np.array([0, 5], dtype=np.uint16),
                    np.array([0.0, 5.0]), (0, 5)):
        field = multi_source_sssp(g, sources)
        assert field.sources == (0, 5)
        assert field.dist.tobytes() == expected.dist.tobytes()
        assert field.nearest_source.tobytes() == expected.nearest_source.tobytes()
    assert sssp(g, np.int64(3)).dist.tobytes() == sssp(g, 3).dist.tobytes()


# -- all pairs ---------------------------------------------------------------


def test_apsp_single_vertex():
    g = SurfaceGraph(np.zeros((1, 3)), [], [], [])
    assert apsp(g).tolist() == [[0.0]]


def test_apsp_triangle_min_of_direct_and_two_hop():
    g = build_graph(right_triangle_mesh())
    d = apsp(g)
    s2 = np.sqrt(2)
    expected = np.array([[0, 1, 1], [1, 0, s2], [1, s2, 0]])
    np.testing.assert_allclose(d, expected, rtol=1e-12)


def test_apsp_matches_repeated_sssp():
    g = bumpy_grid_graph(6, min_side=8, max_side=9)
    d = apsp(g)
    stacked = np.stack([sssp(g, u).dist for u in range(g.vertex_count)])
    np.testing.assert_allclose(d, stacked, rtol=1e-9, atol=0)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)


def test_apsp_cap():
    g = bumpy_grid_graph(7, min_side=5, max_side=5)
    with pytest.raises(ValueError, match="cap"):
        apsp(g, max_vertices=g.vertex_count - 1)


def test_dijkstra_apsp_rows_are_sssp_and_match_floyd_warshall():
    g = bumpy_grid_graph(9, min_side=8, max_side=9)
    d = dijkstra_apsp(g)
    np.testing.assert_array_equal(d, np.stack([sssp(g, u).dist for u in range(g.vertex_count)]))
    np.testing.assert_allclose(d, apsp(g), rtol=1e-9, atol=0)
    with pytest.raises(ValueError, match="cap"):
        dijkstra_apsp(g, max_vertices=g.vertex_count - 1)


def test_geodesic_at_least_euclidean():
    g = build_graph(wave_sheet_mesh(21, 5, 0.5, amplitude=3.0, wavelength=5.0))
    d = apsp(g)
    diff = g.positions[:, None, :] - g.positions[None, :, :]
    euclid = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    finite = np.isfinite(d)
    assert np.all(d[finite] >= euclid[finite] - 1e-9)


def test_induced_subgraph_requires_sorted_unique():
    g = bumpy_grid_graph(8)
    with pytest.raises(ValueError, match="sorted"):
        induced_subgraph(g, [3, 1])
