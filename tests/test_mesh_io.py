import io
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geosp import (AtlasPlan, FormatError, TriangleMesh, color_for_id, concat_meshes,
                   load_fibers, load_labels, load_matrix, load_mesh, save_matrix, write_labels,
                   write_mesh, write_parcellation)
from geosp import mesh_io
from geosp.mesh_io import PALETTE_SIZE

from helpers import bumpy_grid_mesh, right_triangle_mesh

OFF_MINIMAL = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"


def test_load_off_minimal(tmp_path):
    p = tmp_path / "m.off"
    p.write_text(OFF_MINIMAL)
    mesh = load_mesh(p)
    assert mesh.vertex_count == 3
    assert mesh.triangle_count == 1
    np.testing.assert_allclose(mesh.vertices[1], [1, 0, 0])


def test_off_roundtrip(tmp_path):
    p = tmp_path / "m.off"
    p.write_text(OFF_MINIMAL)
    mesh = load_mesh(p)
    q = tmp_path / "copy.off"
    write_mesh(q, mesh)
    again = load_mesh(q)
    assert np.array_equal(mesh.triangles, again.triangles)
    np.testing.assert_allclose(mesh.vertices, again.vertices, atol=1e-6)


def test_ply_out_of_range_face_reports_line(tmp_path):
    p = tmp_path / "m.ply"
    p.write_text(
        "ply\nformat ascii 1.0\nelement vertex 3\n"
        "property float x\nproperty float y\nproperty float z\n"
        "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
        "0 0 0\n1 0 0\n0 1 0\n"
        "3 0 1 5\n")
    with pytest.raises(FormatError) as err:
        load_mesh(p)
    assert err.value.line_no == 13
    assert "out of range" in str(err.value)


def test_ply_roundtrip_with_colors(tmp_path):
    mesh = right_triangle_mesh()
    p = tmp_path / "m.ply"
    colors = np.array([[255, 0, 0], [0, 255, 0], [0, 0, 255]])
    write_mesh(p, mesh, colors=colors)
    again = load_mesh(p)
    assert np.array_equal(mesh.triangles, again.triangles)
    np.testing.assert_allclose(mesh.vertices, again.vertices, atol=1e-6)


def test_binary_ply_rejected(tmp_path):
    p = tmp_path / "m.ply"
    p.write_text("ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
                 "property float x\nproperty float y\nproperty float z\nend_header\n")
    with pytest.raises(FormatError, match="ASCII"):
        load_mesh(p)


@pytest.mark.parametrize("text,line,msg", [
    ("NOT_OFF\n3 1 0\n", 1, "OFF"),
    ("OFF\nbogus\n", 2, "three integers"),
    ("OFF\n0 0 0\n", 2, "empty vertex list"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n4 0 1 2\n", 6, "triangle"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n", 6, "out of range"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 1\n", 6, "repeats"),
    ("OFF\n3 1 0\n0 0 x\n1 0 0\n0 1 0\n3 0 1 2\n", 3, "coordinates"),
    ("OFF\n3 1 0\n0 0 0\n# comment\nnan 0 0\n0 1 0\n3 0 1 2\n", 5, "non-finite"),
    (OFF_MINIMAL + "\n3 0 1 2\n", 8, "unexpected trailing content: '3 0 1 2'"),
])
def test_off_errors_carry_line_numbers(tmp_path, text, line, msg):
    p = tmp_path / "bad.off"
    p.write_text(text)
    with pytest.raises(FormatError) as err:
        load_mesh(p)
    assert err.value.line_no == line
    assert msg.lower() in str(err.value).lower()


def test_ply_non_finite_coordinate_reports_line(tmp_path):
    p = tmp_path / "inf.ply"
    p.write_text(
        "ply\nformat ascii 1.0\nelement vertex 3\n"
        "property float x\nproperty float y\nproperty float z\n"
        "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
        "0 0 0\n1 0 0\n0 inf 0\n"
        "3 0 1 2\n")
    with pytest.raises(FormatError) as err:
        load_mesh(p)
    assert err.value.line_no == 12
    assert "non-finite" in str(err.value)


PLY_HEADER = ("ply\nformat ascii 1.0\nelement vertex 3\n"
              "property float x\nproperty float y\nproperty float z\n"
              "element face 1\nproperty list uchar int vertex_indices\nend_header\n")


@pytest.mark.parametrize("name,text,line,msg", [
    ("m.off", "OFF\n3 1 0\nnan 0 0\n1 0 0\n0 0 x\n3 0 1 2\n", 3, "non-finite"),
    ("m.ply", PLY_HEADER + "nan 0 0\n1 0 0\n0 0 x\n3 0 1 2\n", 10, "non-finite"),
    ("l.txt", "0\n-1\nx\n", 2, "non-negative"),
    ("m.off", "OFF\n3 2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 7\n3 0 1 x\n", 6, "out of range"),
])
def test_first_bad_line_is_reported_whether_a_rule_or_a_token_breaks(tmp_path, name, text,
                                                                      line, msg):
    p = tmp_path / name
    p.write_text(text)
    with pytest.raises(FormatError) as err:
        (load_labels if name.endswith(".txt") else load_mesh)(p)
    assert err.value.line_no == line
    assert msg in str(err.value)


def _ply(old="", new=""):
    """The three-vertex one-face PLY file, with its first `old` made `new`."""
    return (PLY_HEADER + "0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n").replace(old, new, 1)


@pytest.mark.parametrize("text,line,msg", [
    ("", 1, "expected 'ply' magic line"),
    (_ply("ply", "plx"), 1, "expected 'ply' magic line"),
    (_ply("format ascii", "format binary_big_endian"),
     2, "only ASCII PLY is supported, got 'format binary_big_endian 1.0'"),
    (_ply("element vertex 3", "element vertex"), 3, "malformed element line: 'element vertex'"),
    (_ply("element face", "element edge"), 7, "unsupported element 'edge'"),
    (_ply("vertex 3", "vertex -3"),
     3, "element count must be a non-negative integer: 'element vertex -3'"),
    (_ply("vertex 3", "vertex three"),
     3, "element count must be a non-negative integer: 'element vertex three'"),
    (_ply("element face 1", "element vertex 3"), 7, "duplicate element 'vertex'"),
    (_ply("element face 1\n", "element face 1\nelement face 1\n"), 8, "duplicate element 'face'"),
    (_ply("property float y", "property list uchar float y"),
     5, "list property not allowed on vertices"),
    (_ply("property float y", "property"), 5, "malformed property line: 'property'"),
    (_ply("property float y", "  property  \t"), 5, "malformed property line: 'property'"),
    (_ply("property float y", "properties float y"),
     5, "unexpected header line: 'properties float y'"),
    (PLY_HEADER.replace("end_header\n", ""), 8, "missing end_header"),
    (_ply("format ascii 1.0\n"), 1, "missing 'format ascii 1.0' line"),
    (_ply("element vertex 3\n"), 8, "missing 'element vertex' declaration"),
    (_ply("vertex 3", "vertex 0"), 9, "empty vertex list"),
    (_ply("float z", "float w"), 9, "vertex element must declare x, y, z properties"),
    (_ply("3 0 1 2\n"), 13, "expected 3 vertex and 1 face lines, got 3"),
    (_ply("3 0 1 2\n", "3 0 1 2\n\n3 1 2 0\n"), 15, "unexpected trailing content: '3 1 2 0'"),
])
def test_ply_header_rejections_name_their_line(tmp_path, text, line, msg):
    p = tmp_path / "bad.ply"
    p.write_text(text)
    with pytest.raises(FormatError) as err:
        load_mesh(p)
    assert str(err.value) == f"{p}:{line}: {msg}"


@pytest.mark.parametrize("name,data,line,byte", [
    ("m.off", b"OFF\n3 1 0\n0 0 0\n1 0\xff 0\n0 1 0\n3 0 1 2\n", 4, 0xff),
    ("m.ply", _ply().encode().replace(b"1 0 0\n", b"1 0 0\xc3\n"), 11, 0xc3),
    ("m.ply", _ply("format ascii 1.0\n", "format ascii 1.0\ncomment \xe9t\xe9\n").encode()
     .replace(b"vertex 3", b"vertex \x803"), 4, 0x80),
    ("labels.txt", b"# caf\xc3\xa9\n0\r1\n\xfe\n", 4, 0xfe),
    ("matrix.txt", b"2\n1 0\n0 1\xff\n", 3, 0xff),
    ("fibers.txt", b"v:0 v:1\n\n# \xe2\x88\x9e\nv:1 v:\x802\n", 4, 0x80),
    ("plan.txt", b"0 5\n\x0c\n1 \xe9\n", 4, 0xe9),
])
def test_bytes_that_are_not_utf8_name_their_line(tmp_path, name, data, line, byte):
    """The line is the one str.splitlines() gives the bad byte: valid UTF-8
    before it counts as text, and a lone CR or a form feed ends a line."""
    p = tmp_path / name
    p.write_bytes(data)
    load = {"m.off": load_mesh, "m.ply": load_mesh, "labels.txt": load_labels,
            "matrix.txt": load_matrix, "fibers.txt": load_fibers,
            "plan.txt": AtlasPlan.from_file}[name]
    with pytest.raises(FormatError) as err:
        load(p)
    assert str(err.value) == f"{p}:{line}: not UTF-8 text: byte {byte:#04x}"


def test_indents_deeper_than_eight_load_like_unindented_text(tmp_path):
    """Indents past the eight bytes _Lines steps over together are stepped
    over one line at a time, comment lines included."""
    deep = tmp_path / "deep.off"
    lines = OFF_MINIMAL.replace("3 0 1 2", "3 0 1 2\n# a note").splitlines()
    deep.write_text("".join(" \t" * (4 + i) + line + "\n" for i, line in enumerate(lines)))
    flat = tmp_path / "flat.off"
    flat.write_text(OFF_MINIMAL)
    want, got = load_mesh(flat), load_mesh(deep)
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert got.triangles.tobytes() == want.triangles.tobytes()
    fibers = tmp_path / "fibers.txt"
    fibers.write_text(" " * 9 + "v:0 v:1\n" + "\t" * 12 + "# note\n" + " \t" * 6 + "v:2 v:0\n")
    assert list(load_fibers(fibers)) == [(0, 1), (2, 0)]
    assert load_fibers(fibers).line_numbers.tolist() == [1, 3]


def test_ply_reads_only_the_coordinate_columns(tmp_path):
    """A token float() cannot read in another property does not stop the load."""
    header = PLY_HEADER.replace("property float z\n", "property float z\nproperty float w\n")
    body = "0 0 0 {}\n1 0 0 1\n0 1 0 2\n3 0 1 2\n"
    plain, odd = tmp_path / "plain.ply", tmp_path / "odd.ply"
    plain.write_text(header + body.format("0"))
    odd.write_text(header + body.format("1e"))
    want, got = load_mesh(plain), load_mesh(odd)
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert np.array_equal(got.triangles, want.triangles)


def test_ply_rows_too_short_for_the_header_are_a_format_error(tmp_path):
    """200000 declared vertex properties over rows of three: the first row is
    reported, not a (200000, 200000) float64 allocation."""
    p = tmp_path / "wide.ply"
    p.write_text("ply\nformat ascii 1.0\nelement vertex 200000\n"
                 "property float x\nproperty float y\nproperty float z\n"
                 + "property float p\n" * 199997 + "element face 0\nend_header\n"
                 + "0 0 0\n" * 200000)
    with pytest.raises(FormatError, match="got '0 0 0'") as err:
        load_mesh(p)
    assert err.value.line_no == 200006


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError, match="format"):
        load_mesh(tmp_path / "m.stl")


def test_mesh_invariants_checked():
    with pytest.raises(ValueError):
        TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    with pytest.raises(ValueError):
        TriangleMesh(np.zeros((2, 3)), np.array([[0, 1, 2]]))
    with pytest.raises(ValueError):
        TriangleMesh(np.zeros((3, 3)), np.array([[0, 1, 1]]))
    with pytest.raises(ValueError, match="finite"):
        TriangleMesh(np.array([[0.0, 0, 0], [1, 0, 0], [0, np.nan, 0]]), np.array([[0, 1, 2]]))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["off", "ply"]))
def test_roundtrip_identity_on_random_meshes(tmp_path_factory, seed, fmt):
    mesh = bumpy_grid_mesh(seed, min_side=3, max_side=6)
    p = tmp_path_factory.mktemp("rt") / f"m.{fmt}"
    write_mesh(p, mesh)
    again = load_mesh(p)
    assert np.array_equal(mesh.triangles, again.triangles)
    np.testing.assert_allclose(mesh.vertices, again.vertices, atol=1e-6)


# -- labels ----------------------------------------------------------------


def test_load_labels(tmp_path):
    p = tmp_path / "l.txt"
    p.write_text("0\n0\n1\n")
    assert load_labels(p, expected_count=3).tolist() == [0, 0, 1]


def test_load_labels_length_mismatch(tmp_path):
    p = tmp_path / "l.txt"
    p.write_text("0\n1\n")
    with pytest.raises(ValueError, match="expected 3"):
        load_labels(p, expected_count=3)


def test_load_labels_parse_error_line(tmp_path):
    p = tmp_path / "l.txt"
    p.write_text("0\nx\n1\n")
    with pytest.raises(FormatError) as err:
        load_labels(p)
    assert err.value.line_no == 2


def test_labels_roundtrip(tmp_path):
    p = tmp_path / "l.txt"
    write_labels(p, [3, 1, 4, 1, 5])
    assert load_labels(p).tolist() == [3, 1, 4, 1, 5]
    assert p.read_bytes() == b"3\n1\n4\n1\n5\n"


# -- parcellation output -----------------------------------------------------


def _ply_vertex_colors(path):
    lines = path.read_text().splitlines()
    body = lines[lines.index("end_header") + 1:]
    nv = int(next(l.split()[2] for l in lines if l.startswith("element vertex")))
    return [tuple(int(t) for t in line.split()[3:6]) for line in body[:nv]]


def test_write_parcellation_files(tmp_path):
    mesh = right_triangle_mesh()
    txt, ply = write_parcellation(tmp_path / "parcellation", np.array([0, 0, 1]), mesh)
    assert txt.read_text() == "0\n0\n1\n"
    colors = _ply_vertex_colors(ply)
    assert colors[0] == colors[1] != colors[2]


def test_write_parcellation_deterministic(tmp_path):
    mesh = right_triangle_mesh()
    t1, p1 = write_parcellation(tmp_path / "a", np.array([0, 1, 2]), mesh)
    t2, p2 = write_parcellation(tmp_path / "b", np.array([0, 1, 2]), mesh)
    assert t1.read_bytes() == t2.read_bytes()
    assert p1.read_bytes() == p2.read_bytes()


def test_write_parcellation_length_mismatch(tmp_path):
    with pytest.raises(ValueError, match="length"):
        write_parcellation(tmp_path / "p", np.array([0, 1]), right_triangle_mesh())


def test_palette_injective_and_pure():
    colors = [color_for_id(i) for i in range(PALETTE_SIZE)]
    assert len(set(colors)) == PALETTE_SIZE
    assert all(0 <= c <= 255 for rgb in colors for c in rgb)
    assert color_for_id(17) == color_for_id(17)


@given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_equal_ids_get_equal_colors(a, b):
    if a == b:
        assert color_for_id(a) == color_for_id(b)
    elif a % PALETTE_SIZE != b % PALETTE_SIZE and a < PALETTE_SIZE and b < PALETTE_SIZE:
        assert color_for_id(a) != color_for_id(b)


def test_concat_meshes():
    a = right_triangle_mesh()
    b = right_triangle_mesh()
    merged, labels = concat_meshes(a, b)
    assert merged.vertex_count == 6
    assert merged.triangles.tolist() == [[0, 1, 2], [3, 4, 5]]
    assert labels.tolist() == [0, 0, 0, 1, 1, 1]


# -- writer bytes ------------------------------------------------------------------


def _per_row_vertex(x, y, z, rgb=None):
    line = f"{'%.6f' % x} {'%.6f' % y} {'%.6f' % z}"
    if rgb is not None:
        r, g, b = rgb
        line += f" {r} {g} {b}"
    return line + "\n"


def _per_row_off(mesh):
    out = [f"OFF\n{mesh.vertex_count} {mesh.triangle_count} 0\n"]
    out += [_per_row_vertex(*v) for v in mesh.vertices]
    out += [f"3 {i} {j} {k}\n" for i, j, k in mesh.triangles]
    return "".join(out).encode()


def _per_row_ply(mesh, colors=None):
    header = ["ply", "format ascii 1.0", f"element vertex {mesh.vertex_count}",
              "property float x", "property float y", "property float z"]
    if colors is not None:
        header += ["property uchar red", "property uchar green", "property uchar blue"]
    header += [f"element face {mesh.triangle_count}",
               "property list uchar int vertex_indices", "end_header"]
    out = ["\n".join(header) + "\n"]
    out += [_per_row_vertex(*v, None if colors is None else colors[i])
            for i, v in enumerate(mesh.vertices)]
    out += [f"3 {i} {j} {k}\n" for i, j, k in mesh.triangles]
    return "".join(out).encode()


@pytest.mark.parametrize("block_rows", [1, 7, mesh_io.WRITE_BLOCK_ROWS])
@pytest.mark.parametrize("seed", range(3))
def test_writer_bytes_equal_per_row_formatting(tmp_path, monkeypatch, block_rows, seed):
    monkeypatch.setattr(mesh_io, "WRITE_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(seed)
    base = bumpy_grid_mesh(seed, min_side=4, max_side=9)
    v = base.vertices * rng.uniform(-500, 500, size=3) + rng.normal(scale=100, size=3)
    v[:4] = [[-0.0, 0.0, -1e-9], [-2.5e-7, 5e-7, -5e-7], [1e6, -1e6, 0.1234565],
             [-0.0, -0.0, -0.0]]  # signed zeros and half-way rounding
    mesh = TriangleMesh(v, base.triangles)
    colors = rng.integers(0, 256, size=(mesh.vertex_count, 3))
    write_mesh(tmp_path / "m.off", mesh)
    write_mesh(tmp_path / "m.ply", mesh)
    write_mesh(tmp_path / "c.ply", mesh, colors=colors)
    assert (tmp_path / "m.off").read_bytes() == _per_row_off(mesh)
    assert (tmp_path / "m.ply").read_bytes() == _per_row_ply(mesh)
    assert (tmp_path / "c.ply").read_bytes() == _per_row_ply(mesh, colors)

    sub = rng.integers(0, 2000, size=mesh.vertex_count)
    txt, ply = write_parcellation(tmp_path / "p", sub, mesh)
    assert txt.read_bytes() == "".join(f"{s}\n" for s in sub).encode()
    assert ply.read_bytes() == _per_row_ply(mesh, [color_for_id(s) for s in sub])

    labels = rng.integers(0, 2**62, size=int(rng.integers(0, 30)))
    write_labels(tmp_path / "l.txt", labels)
    assert (tmp_path / "l.txt").read_bytes() == "".join(f"{x}\n" for x in labels).encode()

    for p in (0, 1, int(rng.integers(2, 40))):
        m = rng.integers(-5, 10**6, size=(p, p))
        save_matrix(tmp_path / "x.txt", m)
        want = f"{p}\n" + "".join(" ".join(str(x) for x in row) + "\n" for row in m)
        assert (tmp_path / "x.txt").read_bytes() == want.encode()


_INT64 = np.iinfo(np.int64)
_ints = st.one_of(st.integers(_INT64.min, _INT64.max),
                  st.sampled_from([_INT64.min, _INT64.max, _INT64.min + 1, -1, 0, 9, 10]))
_floats = st.one_of(
    st.floats(-1e4, 1e4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10**12, 10**12).map(lambda m: (m + 0.5) * 1e-6),  # half-way values
    st.sampled_from([0.0, -0.0, -1e-9, 5e-7, -5e-7, 2.0**52 / 1e6, -(2.0**52) / 1e6,
                     4503599627.370497, 1e300, -1e300, np.nan, np.inf, -np.inf]),
)


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(0, 12), int_cols=st.integers(0, 4), float_cols=st.integers(0, 4),
       prefix=st.sampled_from([b"", b"3 "]), block_rows=st.sampled_from([1, 7, 4096]),
       block_fields=st.sampled_from([1, 5, 1 << 15]), data=st.data())
def test_formatter_bytes_equal_per_element_formatting(rows, int_cols, float_cols, prefix,
                                                      block_rows, block_fields, data):
    """`_write_rows` writes what per-element '%d' and '%.6f' write, whichever
    path (digit matrix or Python fallback) an element takes, in blocks of any
    size."""
    arrays = []
    if float_cols:
        arrays.append(np.array(data.draw(st.lists(st.lists(_floats, min_size=float_cols,
                                                           max_size=float_cols),
                                                  min_size=rows, max_size=rows)),
                               dtype=np.float64).reshape(rows, float_cols))
    if int_cols or not arrays:  # a line holds one field at least; a 0 x 0 matrix no line
        int_cols = max(int_cols, int(rows > 0))
        arrays.append(np.array(data.draw(st.lists(st.lists(_ints, min_size=int_cols,
                                                           max_size=int_cols),
                                                  min_size=rows, max_size=rows)),
                               dtype=np.int64).reshape(rows, int_cols))
    want = b"".join(
        prefix + " ".join(["%.6f" % v if isinstance(v, float) else "%d" % v
                           for a in arrays for v in a[r].tolist()]).encode() + b"\n"
        for r in range(rows))
    out = io.BytesIO()
    with (patch.object(mesh_io, "WRITE_BLOCK_ROWS", block_rows),
          patch.object(mesh_io, "WRITE_BLOCK_FIELDS", block_fields)):
        mesh_io._write_rows(out, *arrays, prefix=prefix)
    assert out.getvalue() == want


def test_formatter_takes_the_fast_path_away_from_ties():
    """Only near-ties, huge and non-finite coordinates go to Python's '%.6f'."""
    fast = [-0.0, -1e-9, 12.25, -7.0000004, 4503.599627]
    slow = [0.1234565, -1.5e-6, 1e300, np.nan, 2.0**52]  # two near-ties, y >= 2**52, nan
    values = np.array([fast + slow])
    calls = []
    with patch.object(mesh_io, "COORD_FORMAT", _CountingFormat(calls)):
        fields = mesh_io._fields(values)
    assert calls == ["%.6f" % v for v in slow]
    assert bytes(fields[fields != 0]).decode().split() == ["%.6f" % v for v in fast + slow]


class _CountingFormat(str):
    """'%.6f' that records what it prints."""

    def __new__(cls, calls):
        self = super().__new__(cls, "%.6f")
        self.calls = calls
        return self

    def __mod__(self, value):
        text = str.__mod__(self, value)
        self.calls.append(text)
        return text


def test_write_labels_rejects_negative_labels(tmp_path):
    with pytest.raises(ValueError, match="non-negative"):
        write_labels(tmp_path / "l.txt", [0, 3, -1])
    assert not (tmp_path / "l.txt").exists()


def test_write_parcellation_rejects_negative_ids(tmp_path):
    mesh = right_triangle_mesh()
    with pytest.raises(ValueError, match="non-negative"):
        write_parcellation(tmp_path / "p", [0, -2, 1], mesh)
    assert list(tmp_path.iterdir()) == []
