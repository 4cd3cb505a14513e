import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geosp import (FormatError, TriangleMesh, atlas_mesh, binarize,
                   build_connectivity_matrix, dice_coefficient, grid_mesh, icosphere_mesh,
                   load_fibers, load_matrix, map_endpoint_to_vertex, pairwise_dice,
                   save_matrix, write_fibers)
from geosp import connectivity
from geosp.connectivity import format_dice_report

from helpers import right_triangle_mesh


def _random_binary(seed, p=6, density=0.3):
    rng = np.random.default_rng(seed)
    m = (rng.random((p, p)) < density).astype(np.int64)
    return np.maximum(m, m.T)  # symmetric


# -- endpoint snapping ---------------------------------------------------------


def test_endpoint_at_vertex_maps_to_it():
    mesh = grid_mesh(4, 4)
    for v in (0, 5, 15):
        assert map_endpoint_to_vertex(mesh.vertices[v], mesh) == v


def test_endpoint_tie_goes_to_smaller_index():
    mesh = grid_mesh(4, 4)
    midpoint = (mesh.vertices[3] + mesh.vertices[7]) / 2
    assert map_endpoint_to_vertex(midpoint, mesh) == 3


@pytest.mark.parametrize("point", [(np.nan, 0, 0), (np.inf, 1, 1)])
def test_endpoint_rejects_non_finite_point(point):
    with pytest.raises(ValueError, match="finite"):
        map_endpoint_to_vertex(point, grid_mesh(4, 4))


def test_endpoint_matches_linear_scan():
    mesh = grid_mesh(8, 8)
    rng = np.random.default_rng(0)
    points = rng.uniform(-1, 8, size=(1000, 3))
    for p in points:
        brute = int(np.argmin([np.linalg.norm(v - p) for v in mesh.vertices]))
        assert map_endpoint_to_vertex(p, mesh) == brute


def _scan(points, vertices):
    """Per-point linear scan of the squared distance (dx² + dz²) + dy², summed
    in that order; the first vertex at the minimum wins."""
    x, y, z = vertices[:, 0], vertices[:, 1], vertices[:, 2]
    out = []
    for p in points:
        dx, dy, dz = x - p[0], y - p[1], z - p[2]
        d2 = (dx * dx + dz * dz) + dy * dy
        out.append(int(np.flatnonzero(d2 == d2.min())[0]))
    return np.array(out, dtype=np.int64)


def _property_mesh(kind, rng):
    if kind == "single vertex":
        return TriangleMesh(rng.normal(size=(1, 3)), np.zeros((0, 3)))
    if kind == "icosphere":
        return icosphere_mesh(int(rng.integers(0, 3)), radius=float(rng.uniform(0.5, 20)))
    mesh = grid_mesh(int(rng.integers(2, 9)), int(rng.integers(2, 9)),
                     spacing=float(rng.choice([1.0, 0.5, 3.0])))
    v, t = mesh.vertices, mesh.triangles
    if kind == "flat grid":  # zero extent on z
        return mesh
    if kind == "coincident vertices":  # exact copies, isolated, before and after the originals
        dup = rng.integers(0, len(v), size=len(v) // 2 + 1)
        return TriangleMesh(np.concatenate([v[dup], v, v[dup]]), t + len(dup))
    # jittered and rotated grid
    jittered = v + rng.normal(scale=0.1, size=v.shape)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return TriangleMesh(jittered @ q.T + rng.normal(scale=10, size=3), t)


def _property_points(mesh, rng):
    v = mesh.vertices
    n = len(v)
    span = float(np.ptp(v, axis=0).max()) or 1.0
    a, b = rng.integers(0, n, size=(2, 12))
    return np.concatenate([
        v[rng.integers(0, n, size=5)],                                     # on vertices
        v[rng.integers(0, n, size=20)] + rng.normal(scale=0.05 * span, size=(20, 3)),
        (v[a] + v[b]) / 2,                                                 # midpoint ties
        rng.uniform(v.min(0) - span, v.max(0) + span, size=(15, 3)),       # around the mesh
        v[rng.integers(0, n, size=6)] + rng.normal(scale=1e3 * span, size=(6, 3)),  # far out
    ])


_MESH_KINDS = st.sampled_from(["jittered rotated grid", "icosphere", "coincident vertices",
                               "flat grid", "single vertex"])


def _check_snapping(seed, kind):
    rng = np.random.default_rng(seed)
    mesh = _property_mesh(kind, rng)
    points = _property_points(mesh, rng)
    got = map_endpoint_to_vertex(points, mesh)
    assert got.dtype == np.int64 and got.shape == (len(points),)
    np.testing.assert_array_equal(got, _scan(points, mesh.vertices))
    one = map_endpoint_to_vertex(points[7], mesh)
    assert type(one) is int and one == got[7]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), _MESH_KINDS)
def test_batched_snapping_matches_linear_scan(seed, kind):
    _check_snapping(seed, kind)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), _MESH_KINDS)
def test_snapping_in_small_blocks_matches_linear_scan(seed, kind):
    # Blocks of 7 endpoints and of 64 distances: every example crosses both
    # block boundaries, with points of one cell split between blocks.
    with mock.patch.object(connectivity, "_ENDPOINT_BLOCK", 7), \
            mock.patch.object(connectivity, "_DISTANCE_BLOCK", 64):
        _check_snapping(seed, kind)


def test_snapping_thousands_of_endpoints_matches_scan_in_any_order():
    rng = np.random.default_rng(19)
    mesh = grid_mesh(30, 34)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    v = (mesh.vertices + rng.normal(scale=0.1, size=mesh.vertices.shape)) @ q.T + 40.0
    mesh = TriangleMesh(v, mesh.triangles)
    a, b = rng.integers(0, len(v), size=(2, 400))
    points = np.concatenate([
        v[rng.integers(0, len(v), size=1500)] + rng.normal(scale=1e-3, size=(1500, 3)),
        v[rng.integers(0, len(v), size=1200)] + rng.normal(scale=2.0, size=(1200, 3)),
        (v[a] + v[b]) / 2,                                                 # midpoint ties
        rng.uniform(v.min(0) - 20, v.max(0) + 20, size=(300, 3)),
        v[rng.integers(0, len(v), size=30)] + rng.normal(scale=1e4, size=(30, 3)),
    ])
    assert len(points) > 3 * connectivity._ENDPOINT_BLOCK
    got = map_endpoint_to_vertex(points, mesh)
    np.testing.assert_array_equal(got, _scan(points, v))
    perm = rng.permutation(len(points))
    np.testing.assert_array_equal(map_endpoint_to_vertex(points[perm], mesh), got[perm])


@pytest.mark.parametrize("far_grid", [False, True])
def test_snapping_sums_the_squares_in_the_documented_order(far_grid):
    # From the origin, a = (x, y, z) and b = (x, z, y) are at (x² + z²) + y²
    # and (x² + y²) + z², which round apart: a is nearer by the documented
    # order, b by (x² + y²) + z², and the two tie by x² + (y² + z²). b comes
    # first, so any other order of the sum picks it. With a and b alone the
    # brute-force scan decides; with a far grid of 16 vertices a grid does.
    x, y, z = 0.1, 0.2, 2.9
    assert (x * x + z * z) + y * y < (x * x + y * y) + z * z
    vertices, triangles = np.array([(x, z, y), (x, y, z)]), np.zeros((0, 3), dtype=np.int64)
    if far_grid:
        far = grid_mesh(4, 4)
        vertices = np.concatenate([vertices, far.vertices + 20.0])
        triangles = far.triangles + 2
    mesh = TriangleMesh(vertices, triangles)
    assert map_endpoint_to_vertex(np.zeros(3), mesh) == 1


def test_snapping_ties_on_coincident_vertices_go_to_smallest_index():
    mesh = grid_mesh(3, 3)
    v = np.concatenate([mesh.vertices[[4]], mesh.vertices, mesh.vertices[[4]]])
    dup = TriangleMesh(v, mesh.triangles + 1)
    assert map_endpoint_to_vertex(mesh.vertices[4] + 0.01, dup) == 0
    np.testing.assert_array_equal(map_endpoint_to_vertex(v, dup), [0, 1, 2, 3, 4, 0, 6, 7, 8, 9, 0])


def test_snapping_empty_input():
    got = map_endpoint_to_vertex(np.zeros((0, 3)), grid_mesh(3, 3))
    assert got.dtype == np.int64 and got.shape == (0,)


def test_snapping_rejects_non_3d_points():
    with pytest.raises(ValueError, match="3D"):
        map_endpoint_to_vertex(np.zeros((4, 2)), grid_mesh(3, 3))


# -- connectivity matrix ---------------------------------------------------------


def test_empty_fibers_zero_matrix():
    mesh = grid_mesh(3, 3)
    sub = np.zeros(9, dtype=int)
    counts = build_connectivity_matrix([], sub, mesh)
    assert counts.shape == (1, 1)
    assert counts.sum() == 0


def test_single_fiber_counts():
    mesh = grid_mesh(3, 3)
    sub = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1])
    counts = build_connectivity_matrix([(0, 8)], sub, mesh)
    assert counts[0, 1] == counts[1, 0] == 1
    assert counts.sum() == 2


def test_self_connection_hits_diagonal_once():
    mesh = grid_mesh(3, 3)
    sub = np.zeros(9, dtype=int)
    counts = build_connectivity_matrix([(0, 1)], sub, mesh)
    assert counts[0, 0] == 1


def test_matrix_matches_brute_force_tally():
    mesh = grid_mesh(10, 10)
    rng = np.random.default_rng(3)
    sub = rng.integers(0, 7, size=100)
    fibers = [(int(a), int(b)) for a, b in rng.integers(0, 100, size=(500, 2))]
    counts = build_connectivity_matrix(fibers, sub, mesh)

    expected = np.zeros((7, 7), dtype=int)
    for a, b in fibers:
        p, q = sub[a], sub[b]
        expected[p, q] += 1
        if p != q:
            expected[q, p] += 1
    np.testing.assert_array_equal(counts, expected)
    iu = np.triu_indices(7)
    assert counts[iu].sum() == 500  # one upper-triangle increment per fiber


def test_point_endpoints_are_snapped():
    mesh = grid_mesh(3, 3)
    sub = np.arange(9)
    counts = build_connectivity_matrix([(mesh.vertices[2] + 0.01, 4)], sub, mesh)
    assert counts[2, 4] == 1


@pytest.mark.parametrize("endpoint,shown", [
    (3.7, "3.7"), (np.float64(0.5), "0.5"), (float("nan"), "nan"), (float("inf"), "inf"),
    (True, "True"), (np.bool_(False), "False"),
])
def test_non_integer_scalar_endpoint_is_rejected(endpoint, shown):
    mesh = grid_mesh(3, 3)
    with pytest.raises(ValueError, match=shown):
        build_connectivity_matrix([(0, 1), (endpoint, 4)], np.arange(9), mesh)


def test_integral_scalar_endpoints_are_vertex_indices():
    mesh = grid_mesh(3, 3)
    counts = build_connectivity_matrix([(4.0, np.int32(2)), (np.uint8(8), np.float32(2.0))],
                                       np.arange(9), mesh)
    assert counts[4, 2] == counts[2, 4] == counts[8, 2] == 1
    assert counts.sum() == 4


def test_negative_parcel_id_is_rejected():
    mesh = grid_mesh(3, 3)
    sub = np.array([0, 0, 0, 1, 1, 1, -1, -1, -1])
    with pytest.raises(ValueError, match="negative"):
        build_connectivity_matrix([(6, 0)], sub, mesh)


def test_fiber_must_have_two_endpoints():
    with pytest.raises(ValueError, match="fiber 1 has 3 endpoints"):
        build_connectivity_matrix([(0, 1), (0, 1, 2)], np.zeros(9, dtype=int), grid_mesh(3, 3))


def test_mixed_fibers_match_per_fiber_tally():
    mesh, _regions, _hemis = atlas_mesh(20, 21)
    n = mesh.vertex_count
    rng = np.random.default_rng(11)
    sub = rng.integers(0, 40, size=n)
    sub[0] = 40  # P = 41
    pairs = rng.integers(0, n, size=(20_000, 2))
    as_point = rng.random((20_000, 2)) < 0.5
    noise = rng.normal(scale=0.3, size=(20_000, 2, 3))
    fibers = [tuple(mesh.vertices[v] + noise[f, e] if as_point[f, e] else int(v)
                    for e, v in enumerate(pair)) for f, pair in enumerate(pairs)]
    counts = build_connectivity_matrix(fibers, sub, mesh)

    expected = np.zeros((41, 41), dtype=np.int64)
    self_loops = 0
    for a, b in fibers:
        p, q = (sub[int(_scan([e], mesh.vertices)[0]) if isinstance(e, np.ndarray) else e]
                for e in (a, b))
        expected[p, q] += 1
        if p != q:
            expected[q, p] += 1
        self_loops += p == q
    np.testing.assert_array_equal(counts, expected)
    assert np.trace(counts) == self_loops > 0  # each self-connection counted once
    assert counts[np.triu_indices(41)].sum() == 20_000


def test_endpoint_out_of_range():
    mesh = grid_mesh(3, 3)
    with pytest.raises(ValueError, match="out of range"):
        build_connectivity_matrix([(0, 9)], np.zeros(9, dtype=int), mesh)


@pytest.mark.parametrize("vertex", ["-1", "9", "20000"])
def test_file_vertex_outside_the_mesh_names_its_file_line(tmp_path, vertex):
    p = tmp_path / "f.txt"
    p.write_text(f"# two fibres\nv:0 p:0,0,0\n\nv:1 v:{vertex}\n")
    with pytest.raises(FormatError, match=f"vertex {vertex} out of range") as err:
        build_connectivity_matrix(load_fibers(p), np.zeros(9, dtype=int), grid_mesh(3, 3))
    assert err.value.line_no == 4


@pytest.mark.parametrize("endpoint", [-1, np.int8(-3), 2**70, np.uint64(2**64 - 1), 1e30, -9.0])
def test_endpoint_out_of_range_before_any_cast(endpoint):
    mesh = grid_mesh(3, 3)
    with pytest.raises(ValueError, match=re.escape(f"vertex {endpoint} out of range")):
        build_connectivity_matrix([(0, 1), (endpoint, 4)], np.zeros(9, dtype=int), mesh)


# -- binarize / dice --------------------------------------------------------------


def test_binarize_cases():
    assert binarize(np.zeros((3, 3))).sum() == 0
    counts = np.zeros((3, 3), dtype=int)
    counts[1, 2] = counts[2, 1] = 17
    b = binarize(counts)
    assert b[1, 2] == b[2, 1] == 1
    assert b.sum() == 2
    np.testing.assert_array_equal(binarize(b), b)  # idempotent


def test_dice_identical_and_disjoint():
    a = _random_binary(1)
    assert dice_coefficient(a, a) == 1.0
    b = np.zeros((6, 6), dtype=int)
    b[0, 0] = 1
    c = np.zeros((6, 6), dtype=int)
    c[5, 5] = 1
    assert dice_coefficient(b, c) == 0.0


def test_dice_half_overlap():
    # A = {e1, e2}, B = {e2, e3} -> 2*1/(2+2) = 0.5
    a = np.zeros((4, 4), dtype=int)
    b = np.zeros((4, 4), dtype=int)
    a[0, 1] = a[1, 0] = 1
    a[2, 3] = a[3, 2] = 1
    b[2, 3] = b[3, 2] = 1
    b[0, 2] = b[2, 0] = 1
    assert dice_coefficient(a, b) == 0.5


def test_dice_empty_matrices_are_reproducible():
    z = np.zeros((5, 5), dtype=int)
    assert dice_coefficient(z, z) == 1.0


def test_dice_dimension_mismatch():
    with pytest.raises(ValueError, match="shape"):
        dice_coefficient(np.zeros((3, 3)), np.zeros((4, 4)))


def test_dice_diagonal_flag():
    a = np.eye(3, dtype=int)
    b = np.zeros((3, 3), dtype=int)
    assert dice_coefficient(a, b) == 0.0
    assert dice_coefficient(a, b, include_diagonal=False) == 1.0  # both empty off-diag


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000))
def test_dice_symmetric_and_bounded(sa, sb):
    a, b = _random_binary(sa), _random_binary(sb)
    d1 = dice_coefficient(a, b)
    assert d1 == dice_coefficient(b, a)
    assert 0.0 <= d1 <= 1.0
    assert dice_coefficient(a, a) == 1.0


def test_pairwise_dice_two_identical():
    a = _random_binary(2)
    res = pairwise_dice([a, a.copy()])
    assert res.values == [1.0]
    assert res.mean == res.median == 1.0


def test_pairwise_dice_counts_pairs():
    mats = [_random_binary(s) for s in range(3)]
    assert len(pairwise_dice(mats).values) == 3
    with pytest.raises(ValueError, match="two"):
        pairwise_dice(mats[:1])


def test_pairwise_dice_matches_double_loop():
    mats = [_random_binary(s) for s in range(5)]
    res = pairwise_dice(mats)
    brute = []
    for i in range(5):
        for j in range(i + 1, 5):
            brute.append(dice_coefficient(mats[i], mats[j]))
    assert res.values == brute
    assert res.mean == pytest.approx(np.mean(brute))
    assert res.median == pytest.approx(np.median(brute))


def test_dice_report_format():
    res = pairwise_dice([_random_binary(0), _random_binary(1)])
    report = format_dice_report(res)
    lines = report.splitlines()
    assert lines[0] == "pairs 1"
    assert lines[1].startswith("mean ") and len(lines[1].split()[1].split(".")[1]) == 4
    assert lines[3].startswith("pair 0 1 ")


# -- file formats -----------------------------------------------------------------


def test_matrix_roundtrip(tmp_path):
    m = _random_binary(9, p=4) * 3
    p = tmp_path / "m.txt"
    save_matrix(p, m)
    assert p.read_text().splitlines()[0] == "4"
    np.testing.assert_array_equal(load_matrix(p), m)


@pytest.mark.parametrize("matrix", [np.arange(3), np.zeros((2, 3), dtype=int), np.int64(4),
                                    np.zeros((2, 2, 2), dtype=int)])
def test_save_matrix_rejects_what_load_matrix_would(tmp_path, matrix):
    with pytest.raises(ValueError, match="square"):
        save_matrix(tmp_path / "m.txt", matrix)
    assert not (tmp_path / "m.txt").exists()


@pytest.mark.parametrize("text,line", [
    ("", 1),
    ("x\n", 1),
    ("2\n1 2\n", 3),
    ("2\n1 2 3\n4 5\n", 2),
    ("2\n1 a\n3 4\n", 2),
])
def test_matrix_errors(tmp_path, text, line):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    with pytest.raises(FormatError) as err:
        load_matrix(p)
    assert err.value.line_no == line


@pytest.mark.parametrize("text,line,shown", [
    ("2\n1 0\n0 1\n5 5\ngarbage\n", 4, "'5 5'"),
    ("2\n1 0\n0 1\n\n \t\n# a note\n", 6, "'# a note'"),
    ("0\n\n1\n", 3, "'1'"),
])
def test_matrix_trailing_content_is_a_format_error(tmp_path, text, line, shown):
    p = tmp_path / "m.txt"
    p.write_text(text)
    with pytest.raises(FormatError, match=f"unexpected trailing content: {shown}") as err:
        load_matrix(p)
    assert err.value.line_no == line


def test_negative_matrix_size_is_a_format_error(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("-2\n")
    with pytest.raises(FormatError) as err:
        load_matrix(p)
    assert str(err.value) == f"{p}:1: matrix size must be non-negative, got -2"


def test_matrix_trailing_blank_lines_are_accepted(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("2\n1 0\n0 1\n\n  \t \r\n\n")
    np.testing.assert_array_equal(load_matrix(p), [[1, 0], [0, 1]])


def test_rows_too_short_for_the_header_are_a_format_error(tmp_path):
    """A header asking for 200000 entries per row over rows of one entry is
    reported at its first row, not by allocating (200000, 200000) int64s."""
    p = tmp_path / "short.txt"
    p.write_text("200000\n" + "1\n" * 200000)
    with pytest.raises(FormatError, match="expected 200000 integer entries, got '1'") as err:
        load_matrix(p)
    assert err.value.line_no == 2


def test_fiber_roundtrip(tmp_path):
    mesh = grid_mesh(3, 3)
    fibers = [(0, 5), (mesh.vertices[1] + 0.001, mesh.vertices[7])]
    p = tmp_path / "fibers.txt"
    write_fibers(p, fibers)
    back = load_fibers(p)
    assert back[0] == (0, 5)
    np.testing.assert_allclose(back[1][0], fibers[1][0])
    np.testing.assert_allclose(back[1][1], fibers[1][1])


@pytest.mark.parametrize("text,line", [
    ("v:0 v:1\nv:2\n", 2),
    ("v:0 w:1\n", 1),
    ("v:0 p:1,2\n", 1),
    ("v:x v:1\n", 1),
    ("v:0 v:1\np:nan,0,0 v:5\n", 2),
    ("v:0 p:inf,1,1\n", 1),
])
def test_fiber_parse_errors(tmp_path, text, line):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    with pytest.raises(FormatError) as err:
        load_fibers(p)
    assert err.value.line_no == line


def test_bare_vertex_token_in_a_plain_block_is_a_format_error(tmp_path):
    """A 'v:' with no id leaves the bulk pass, and the per-line parse names it."""
    p = tmp_path / "f.txt"
    p.write_text("v:0 v:1\n" * 3 + "v:2 v:\n" + "v:1 v:0\n")
    with pytest.raises(FormatError) as err:
        load_fibers(p)
    assert str(err.value) == f"{p}:4: bad vertex endpoint 'v:'"


def test_build_binarize_preserves_symmetry():
    mesh = right_triangle_mesh()
    sub = np.array([0, 1, 2])
    rng = np.random.default_rng(4)
    fibers = [(int(a), int(b)) for a, b in rng.integers(0, 3, size=(50, 2))]
    counts = build_connectivity_matrix(fibers, sub, mesh)
    assert np.array_equal(counts, counts.T)
    assert np.array_equal(binarize(counts), binarize(counts).T)
