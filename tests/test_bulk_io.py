"""The bulk readers against per-line parsers written here, bit for bit.

Every loader reads its file as bytes and parses plain blocks in one bulk pass
(np.fromstring for integers, an exact integer-mantissa parse for floats) and
anything else line by line. These tests build files with comments, blank
lines, tabs, CRLF endings, leading '+', extra spaces and tokens only
int()/float() accept, and require the arrays, or the FormatError line, of the
per-line parsers below. The float parse is also checked against float() alone.
"""
import decimal
import math
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geosp import (FormatError, TriangleMesh, atlas_mesh, build_connectivity_matrix, grid_mesh,
                   load_fibers, load_labels, load_matrix, load_mesh, write_fibers,
                   write_mesh)
from geosp.cli import run
from geosp import Fibers, connectivity, mesh_io

INT64_MAX = 2**63 - 1


class Bad(Exception):
    """The per-line parser's verdict: the file is malformed at `line_no`."""

    def __init__(self, line_no):
        super().__init__(line_no)
        self.line_no = line_no


# -- per-line parsers (the reference) --------------------------------------------


def _significant(text):
    return [(no, raw.strip()) for no, raw in enumerate(text.splitlines(), start=1)
            if raw.strip() and not raw.strip().startswith("#")]


def _face(no, line, nv):
    t = line.split()
    if len(t) != 4 or t[0] != "3":
        raise Bad(no)
    try:
        ids = [int(x) for x in t[1:]]
    except ValueError:
        raise Bad(no) from None
    if any(not 0 <= i < nv for i in ids) or len(set(ids)) < 3:
        raise Bad(no)
    return ids


def _vertex_row(no, parts, cols):
    try:
        row = [float(parts[c]) for c in cols]
    except ValueError:
        raise Bad(no) from None
    return row


def oracle_off(text):
    lines = _significant(text)
    if not lines:
        raise Bad(1)
    if lines[0][1] != "OFF":
        raise Bad(lines[0][0])
    if len(lines) < 2:
        raise Bad(lines[0][0] + 1)
    no, counts = lines[1]
    try:
        nv, nf, _ne = (int(t) for t in counts.split())
    except ValueError:
        raise Bad(no) from None
    if nv <= 0 or nf < 0:
        raise Bad(no)
    body = lines[2:]
    vertices = []
    for no, line in body[:nv]:
        if len(line.split()) != 3:
            raise Bad(no)
        vertices.append(_vertex_row(no, line.split(), (0, 1, 2)))
    if len(vertices) < nv:
        raise Bad(lines[-1][0] + 1)
    for (no, _), row in zip(body, vertices):
        if not all(map(math.isfinite, row)):
            raise Bad(no)
    faces = [_face(no, line, nv) for no, line in body[nv:nv + nf]]
    if len(faces) < nf:
        raise Bad(lines[-1][0] + 1)
    if len(body) > nv + nf:
        raise Bad(body[nv + nf][0])
    return np.array(vertices, dtype=np.float64), np.array(faces, dtype=np.int64).reshape(-1, 3)


def oracle_ply(text):
    """Per-line PLY reader for the headers `ply_lines` writes."""
    raw = text.splitlines()
    end = next(i for i, line in enumerate(raw) if line.strip() == "end_header")
    header = [line.split() for line in raw[:end]]
    nv = next(int(t[2]) for t in header if t[:2] == ["element", "vertex"])
    nf = next(int(t[2]) for t in header if t[:2] == ["element", "face"])
    props = [t[-1] for t in header if t[:1] == ["property"] and t[1] != "list"]
    cols = [props.index(c) for c in "xyz"]
    body = [(i + 1, line.strip()) for i, line in enumerate(raw) if i > end and line.strip()]
    if len(body) < nv + nf:
        raise Bad(len(raw) + 1)
    if len(body) > nv + nf:
        raise Bad(body[nv + nf][0])
    vertices = []
    for no, line in body[:nv]:
        if len(line.split()) != len(props):
            raise Bad(no)
        vertices.append(_vertex_row(no, line.split(), cols))
    for (no, _), row in zip(body, vertices):
        if not all(map(math.isfinite, row)):
            raise Bad(no)
    faces = [_face(no, line, nv) for no, line in body[nv:]]
    return np.array(vertices, dtype=np.float64), np.array(faces, dtype=np.int64).reshape(-1, 3)


def oracle_labels(text):
    labels = []
    for no, raw in enumerate(text.splitlines(), start=1):
        try:
            value = int(raw.strip())
        except ValueError:
            raise Bad(no) from None
        if not 0 <= value <= INT64_MAX:
            raise Bad(no)
        labels.append(value)
    return np.array(labels, dtype=np.int64)


def _endpoint(no, token):
    if token.startswith("v:"):
        try:
            value = int(token[2:])
        except ValueError:
            raise Bad(no) from None
        if not -INT64_MAX - 1 <= value <= INT64_MAX:
            raise Bad(no)
        return value
    if token.startswith("p:"):
        try:
            coords = [float(c) for c in token[2:].split(",")]
        except ValueError:
            raise Bad(no) from None
        if len(coords) != 3 or not all(map(math.isfinite, coords)):
            raise Bad(no)
        return np.array(coords)
    raise Bad(no)


def oracle_fibers(text):
    pairs = []
    for no, line in _significant(text):
        tokens = line.split()
        if len(tokens) != 2:
            raise Bad(no)
        pairs.append((_endpoint(no, tokens[0]), _endpoint(no, tokens[1])))
    return pairs


def oracle_matrix(text):
    lines = text.splitlines()
    if not lines:
        raise Bad(1)
    try:
        p = int(lines[0].strip())
    except ValueError:
        raise Bad(1) from None
    if p < 0:
        raise Bad(1)
    if len(lines) < p + 1:
        raise Bad(len(lines) + 1)
    rows = []
    for r in range(p):
        parts = lines[r + 1].split()
        try:
            row = [int(x) for x in parts]
        except ValueError:
            raise Bad(r + 2) from None
        if len(row) != p or not all(-INT64_MAX - 1 <= x <= INT64_MAX for x in row):
            raise Bad(r + 2)
        rows.append(row)
    for r in range(p + 1, len(lines)):
        if lines[r].strip():
            raise Bad(r + 1)
    return np.array(rows, dtype=np.int64).reshape(p, p)


# -- file text with every kind of spacing ------------------------------------------


FLOAT_STYLES = ["%.17g", "%.6f", "%r", "%.3e", "%+.9g", "%d"]


@st.composite
def styles(draw):
    """How one file is laid out."""
    return {
        "eol": draw(st.sampled_from(["\n", "\r\n"])),
        "seps": draw(st.lists(st.sampled_from([" ", "  ", "\t", " \t "]), min_size=1, max_size=3)),
        "indent": draw(st.sampled_from(["", " ", "\t", "  "])),
        "plus": draw(st.booleans()),
        "underscore": draw(st.booleans()),  # tokens only int()/float() accept
        "comments": draw(st.booleans()),
        "blanks": draw(st.booleans()),
        "float_style": draw(st.sampled_from(FLOAT_STYLES)),
    }


def _underscore(s):
    """Put a '_' between the first two adjacent digits: int() and float() still read it."""
    for i in range(len(s) - 1):
        if s[i].isdigit() and s[i + 1].isdigit():
            return s[:i + 1] + "_" + s[i + 1:]
    return s


def _fmt_float(x, style, rng):
    s = style["float_style"] % (round(x) if style["float_style"] == "%d" else float(x))
    if style["plus"] and not s.startswith(("-", "+")) and rng.random() < 0.3:
        s = "+" + s
    if style["underscore"] and rng.random() < 0.05:
        s = _underscore(s)
    return s


def _fmt_int(i, style, rng):
    s = str(i)
    if style["plus"] and i >= 0 and rng.random() < 0.3:
        s = "+" + s
    if style["underscore"] and rng.random() < 0.05:
        s = _underscore(s)
    return s


def _line(tokens, style, rng):
    seps = style["seps"]
    out = tokens[0]
    for t in tokens[1:]:
        out += seps[int(rng.integers(len(seps)))] + t
    if rng.random() < 0.2:
        out = style["indent"] + out + seps[0]
    return out


def _text(lines, style, rng, skippable=True):
    """Join lines; where the format skips them, sprinkle comments and blank lines."""
    out = []
    for line in lines:
        if skippable and style["comments"] and rng.random() < 0.1:
            out.append(style["indent"] + "# a comment, 1 2 3")
        if skippable and style["blanks"] and rng.random() < 0.1:
            out.append(style["indent"] if rng.random() < 0.5 else "")
        out.append(line)
    return style["eol"].join(out) + style["eol"]


def _random_mesh(rng):
    nv = int(rng.integers(3, 25))
    v = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=(nv, 3))
    v[rng.random(v.shape) < 0.05] = -0.0
    faces = [rng.choice(nv, size=3, replace=False) for _ in range(int(rng.integers(0, 30)))]
    return v, np.array(faces, dtype=np.int64).reshape(-1, 3)


def off_lines(v, t, style, rng):
    lines = ["OFF", _line([str(len(v)), str(len(t)), "0"], style, rng)]
    lines += [_line([_fmt_float(x, style, rng) for x in row], style, rng) for row in v]
    lines += [_line(["3"] + [_fmt_int(i, style, rng) for i in row], style, rng) for row in t]
    return lines


def ply_lines(v, t, style, rng, extra_props):
    header = ["ply", "format ascii 1.0", "comment made by a test", f"element vertex {len(v)}"]
    props = ["x", "y", "z"] + [f"extra{i}" for i in range(extra_props)]
    order = list(rng.permutation(len(props)))
    header += [f"property float {props[i]}" for i in order]
    header += [f"element face {len(t)}", "property list uchar int vertex_indices", "end_header"]
    columns = np.column_stack([v, rng.integers(0, 256, size=(len(v), extra_props))])
    body = [_line([_fmt_float(row[i], style, rng) for i in order], style, rng) for row in columns]
    body += [_line(["3"] + [_fmt_int(i, style, rng) for i in row], style, rng) for row in t]
    return header, body


def fiber_lines(rng, style, kind):
    lines = []
    for _ in range(int(rng.integers(0, 30))):
        ends = []
        for _ in range(2):
            point = kind == "point" or (kind == "mixed" and rng.random() < 0.5)
            if point:
                xyz = rng.normal(scale=50, size=3)
                ends.append("p:" + ",".join(_fmt_float(x, style, rng) for x in xyz))
            else:
                ends.append("v:" + _fmt_int(int(rng.integers(-5, 10**6)), style, rng))
        lines.append(_line(ends, style, rng))
    return lines


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _check(load, oracle, path, text):
    """load(path) and oracle(text) agree: equal arrays, or an error at the same line."""
    path.write_bytes(text.encode())
    try:
        want = oracle(text)
    except Bad as bad:
        with pytest.raises(FormatError) as err:
            load(path)
        assert err.value.line_no == bad.line_no, str(err.value)
        return None
    got = load(path)
    if isinstance(got, TriangleMesh):
        got = (got.vertices, got.triangles)
    if isinstance(got, Fibers):
        assert len(got) == len(want)
        flat = [e for pair in want for e in pair]
        assert _same_bits(got.is_point, np.array([isinstance(e, np.ndarray) for e in flat], bool))
        assert _same_bits(got.vertex, np.array([0 if isinstance(e, np.ndarray) else e
                                                for e in flat], dtype=np.int64))
        assert _same_bits(got.points, np.array([e for e in flat if isinstance(e, np.ndarray)],
                                               dtype=np.float64).reshape(-1, 3))
        return got
    if not isinstance(got, tuple):
        got, want = (got,), (want,)
    for g, w in zip(got, want, strict=True):
        assert _same_bits(g, w)
    return got


# -- the property tests ---------------------------------------------------------------


FORMATS = ["off", "ply", "labels", "fibers-vertex", "fibers-point", "fibers-mixed", "matrix"]


def _file(fmt, rng, style):
    """(loader, oracle, lines that may be damaged, the file's text from those lines)."""
    v, t = _random_mesh(rng)
    if fmt == "off":
        lines = off_lines(v, t, style, rng)
        return load_mesh, oracle_off, lines, lambda ls: _text(ls, style, rng)
    if fmt == "ply":
        header, body = ply_lines(v, t, style, rng, int(rng.integers(0, 3)))
        # PLY skips blank body lines, not comments
        blank = dict(style, comments=False)
        return (load_mesh, oracle_ply, body,
                lambda ls: style["eol"].join(header) + style["eol"] + _text(ls, blank, rng))
    if fmt == "labels":
        values = rng.integers(0, 10**int(rng.integers(1, 19)), size=int(rng.integers(0, 30)))
        lines = [_line([_fmt_int(int(x), style, rng)], style, rng) for x in values]
        return load_labels, oracle_labels, lines, lambda ls: _text(ls, style, rng, skippable=False)
    if fmt == "matrix":
        p = int(rng.integers(0, 8))
        m = rng.integers(-10**12, 10**12, size=(p, p))
        lines = [str(p)] + [_line([_fmt_int(int(x), style, rng) for x in row], style, rng)
                            for row in m]
        return load_matrix, oracle_matrix, lines, lambda ls: _text(ls, style, rng, skippable=False)
    lines = fiber_lines(rng, style, fmt.split("-")[1])
    return load_fibers, oracle_fibers, lines, lambda ls: _text(ls, style, rng)


@contextmanager
def read_block_bytes(n):
    """Bulk passes of about n bytes: files this small then span several of them."""
    saved = mesh_io.READ_BLOCK_BYTES
    mesh_io.READ_BLOCK_BYTES = n
    try:
        yield
    finally:
        mesh_io.READ_BLOCK_BYTES = saved


BLOCK_BYTES = st.sampled_from([1, 3, 7, 64, mesh_io.READ_BLOCK_BYTES])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FORMATS), st.integers(0, 2**32 - 1), styles(), BLOCK_BYTES)
def test_bulk_readers_equal_per_line_parsers(tmp_path_factory, fmt, seed, style, block_bytes):
    rng = np.random.default_rng(seed)
    load, oracle, lines, text = _file(fmt, rng, style)
    path = tmp_path_factory.mktemp("bulk") / f"f.{fmt.split('-')[0]}"
    with read_block_bytes(block_bytes):
        _check(load, oracle, path, text(lines))


def _corrupt(fmt, lines, rng, how):
    """Damage one line in the named way; returns the new lines."""
    lines = list(lines)
    first = 2 if fmt == "off" else 1 if fmt == "matrix" else 0
    if len(lines) <= first:
        return lines
    i = int(rng.integers(first, len(lines)))
    tokens = lines[i].split()
    j = int(rng.integers(len(tokens)))
    if fmt.startswith("fibers"):
        prefix, _, rest = tokens[j].partition(":")
        parts = rest.split(",")
        k = int(rng.integers(len(parts)))
    if how == "bad token":
        new = rng.choice(["x", "1.2.3", "--1", "1e", "+", "-", "0x10", "v:", "p:", "١"])
    elif how == "nan or inf":
        new = rng.choice(["nan", "inf", "-Infinity", "1e999", "NaN"])
    elif how == "20-digit integer":
        new = rng.choice(["99999999999999999999", "-99999999999999999999"])
    elif how == "3.5 as an index":
        new = "3.5"
    elif how == "out-of-range or repeated index":
        new = rng.choice(["-1", "100000", tokens[(j + 1) % len(tokens)], "9223372036854775807"])
    else:  # a token moves to the next line: one line short, the next one long
        if i + 1 >= len(lines):
            return lines
        moved = tokens.pop(j)
        lines[i] = " ".join(tokens)
        lines[i + 1] = lines[i + 1] + " " + moved
        return lines
    if fmt.startswith("fibers"):
        parts[k] = str(new)
        tokens[j] = prefix + ":" + ",".join(parts)
    else:
        tokens[j] = str(new)
    lines[i] = " ".join(tokens)
    return lines


CORRUPTIONS = ["bad token", "token moved to the next line", "nan or inf",
               "out-of-range or repeated index", "20-digit integer", "3.5 as an index"]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(FORMATS), st.sampled_from(CORRUPTIONS), st.integers(0, 2**32 - 1),
       styles(), BLOCK_BYTES)
def test_damaged_line_reports_the_per_line_parsers_line(tmp_path_factory, fmt, how, seed, style,
                                                        block_bytes):
    rng = np.random.default_rng(seed)
    load, oracle, lines, text = _file(fmt, rng, style)
    path = tmp_path_factory.mktemp("bad") / f"f.{fmt.split('-')[0]}"
    with read_block_bytes(block_bytes):
        _check(load, oracle, path, text(_corrupt(fmt, lines, rng, how)))


def test_token_counts_are_checked_per_line(tmp_path):
    """2 + 4 tokens on two vertex lines pass a total check; the per-line one catches it."""
    p = tmp_path / "m.off"
    p.write_text("OFF\n3 1 0\n0 0\n1 0 0 5\n0 1 0\n3 0 1 2\n")
    with pytest.raises(FormatError) as err:
        load_mesh(p)
    assert err.value.line_no == 3


@pytest.mark.parametrize("name,text,line", [
    ("l.txt", "1\n+\n2\n", 2),
    ("m.txt", "2\n1 -\n3 4\n", 2),
    ("m.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 + 1 2\n", 6),
    ("f.txt", "v:1 v:2\nv:- v:3\n", 2),
])
def test_lone_sign_is_not_read_as_zero(tmp_path, name, text, line):
    p = tmp_path / name
    p.write_text(text)
    load = {"l.txt": load_labels, "m.txt": load_matrix, "m.off": load_mesh, "f.txt": load_fibers}
    with pytest.raises(FormatError) as err:
        load[name](p)
    assert err.value.line_no == line


def _block(lines):
    """A bulk pass's input: the lines, each ending in LF, as bytes, and the offsets of the LFs."""
    text = "".join(line + "\n" for line in lines).encode()
    return text, np.flatnonzero(np.frombuffer(text, dtype=np.uint8) == ord("\n"))


@pytest.mark.parametrize("lines,width,kind,plain", [
    (["1 2 3", "+4\t5  -6"], 3, int, True),
    (["0.5 -1e-3 +2.", ".25 1E5 -0"], 3, float, True),
    (["1 2", "3 4 5 6"], 3, int, False),  # balanced token counts
    (["1 +"], 2, int, False),             # strtoll reads a lone sign as 0
    (["9223372036854775807"], 1, int, False),
    (["99999999999999999999"], 1, int, False),
    (["1e999 0 0"], 3, float, False),
    (["1_0"], 1, int, False),
    (["nan"], 1, float, False),
    (["3.5"], 1, int, False),
    (["1e5 -2.5E-3 +.5e+2"], 3, float, True),
    (["1 --1 2"], 3, float, False),       # a second sign
    (["-1- 0 0"], 3, float, False),       # a sign after the digits
    (["1.2.3 0 0"], 3, float, False),     # a second point
    (["1e5.5 0 0"], 3, float, False),
    (["1 2 3", "# 4 5 6"], 3, int, False),
])
def test_only_plain_blocks_take_the_bulk_pass(lines, width, kind, plain):
    """The bulk pass must serve plain files (that is its speed) and nothing else."""
    rows = mesh_io._bulk_rows(*_block(lines), width, kind)
    assert (rows is not None) == plain
    if plain:
        assert rows.tolist() == [[kind(t) for t in line.split()] for line in lines]


def test_comment_and_blank_lines_inside_a_block_stay_on_the_bulk_pass(tmp_path, monkeypatch):
    """Skipped lines are blanked out of a block, not handed to the per-line loop."""
    p = tmp_path / "m.off"
    p.write_text("OFF\n# counts\n3 1 0\n0 0 0\n# a note, 1 2\n\n1 0.5 0\n  # indented\n0 1 0\n"
                 "\n3 0 1 2\n")
    read = []
    line = mesh_io._Lines.line
    monkeypatch.setattr(mesh_io._Lines, "line", lambda self, i: read.append(i) or line(self, i))
    mesh = load_mesh(p)
    assert mesh.vertices.tolist() == [[0, 0, 0], [1, 0.5, 0], [0, 1, 0]]
    assert mesh.triangles.tolist() == [[0, 1, 2]]
    assert read == [0, 1]  # the header and the counts only


@pytest.mark.parametrize("eol", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                                 "\u2029", "\r\r\n"])
def test_lines_are_cut_and_stripped_as_python_does(tmp_path, eol):
    """Files with line breaks other than LF and CRLF, or non-ASCII spaces,
    keep Python's line numbers and contents."""
    off = eol.join(["OFF", "\u3000# a comment", "3 1 0", "0 0 0\x1f", "\u00a01 0 0", "0 1 0",
                    "3 0 1 2", ""])
    _check(load_mesh, oracle_off, tmp_path / "m.off", off)
    _check(load_mesh, oracle_off, tmp_path / "bad.off", off.replace("0 1 0", "0 x 0"))
    labels = eol.join(["1", " 2\u3000", "3", ""])
    _check(load_labels, oracle_labels, tmp_path / "l.txt", labels)
    _check(load_labels, oracle_labels, tmp_path / "bad.txt", labels.replace("3", "-"))
    fibers = eol.join(["v:1 p:0.5,1,2", "\u3000# c", "p:1,2,3 v:2", ""])
    _check(load_fibers, oracle_fibers, tmp_path / "f.txt", fibers)


def test_plain_fibre_files_take_the_bulk_pass():
    fibers = Fibers(*connectivity._fiber_rows(*_block(["v:1 p:0.5,-1,+2e3", "p:1,2,3 v:-7"])))
    assert fibers.is_point.tolist() == [False, True, True, False]
    assert fibers.vertex.tolist() == [1, 0, 0, -7]
    assert fibers.points.tolist() == [[0.5, -1.0, 2000.0], [1.0, 2.0, 3.0]]
    for bad in (["v:1 p:1,2"], ["v:1 p:1,2,3,4"], ["v:1 e:2"], ["v:1 v:2p"], ["v:1,2 v:3"],
                ["v:1 p:1,,2"], ["v:1v:2 v:3"], ["v:1 p:1,2,3e"],
                ["p:1,2 p:3,4,5,6"]):  # 2 + 4 coordinates pass a total check
        assert connectivity._fiber_rows(*_block(bad)) is None, bad


# -- the two bugfixes --------------------------------------------------------------


@pytest.mark.parametrize("label", ["99999999999999999999", "9223372036854775808",
                                   "-99999999999999999999"])
def test_label_beyond_int64_is_a_format_error_in_the_cli(tmp_path, capsys, label):
    mesh = grid_mesh(3, 3)
    mesh_path, labels_path = tmp_path / "m.off", tmp_path / "l.txt"
    write_mesh(mesh_path, mesh)
    values = ["0"] * 9
    values[4] = label
    labels_path.write_text("\n".join(values) + "\n")
    assert run(["parcellate-atlas", "--mesh", str(mesh_path), "--labels", str(labels_path),
                "--k", "1", "--workers", "1", "--out", str(tmp_path / "out")]) == 1
    assert f"{labels_path}:5:" in capsys.readouterr().err


@pytest.mark.parametrize("text,line,shown", [
    ("OFF\n10000000000000 1 0\n0 0 0\n1 0 0\n0 1 0\n", 6, "expected 10000000000000 vertex"),
    ("OFF\n3 10000000000000 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", 7,
     "expected 10000000000000 face"),
    ("OFF\n-3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", 2, "negative"),
    ("OFF\n3 -1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", 2, "negative"),
])
def test_off_counts_beyond_the_file_or_negative_are_format_errors(tmp_path, text, line, shown):
    p = tmp_path / "m.off"
    p.write_text(text)
    with pytest.raises(FormatError, match=shown) as err:
        load_mesh(p)
    assert err.value.line_no == line


def test_ply_negative_element_count_is_a_format_error(tmp_path):
    p = tmp_path / "m.ply"
    p.write_text("ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\n"
                 "property float y\nproperty float z\nelement face -1\n"
                 "property list uchar int vertex_indices\nend_header\n0 0 0\n1 0 0\n0 1 0\n")
    with pytest.raises(FormatError) as err:
        load_mesh(p)
    assert err.value.line_no == 7


def test_matrix_entry_beyond_int64_is_a_format_error(tmp_path):
    p = tmp_path / "m.txt"
    p.write_text("2\n1 2\n3 99999999999999999999\n")
    with pytest.raises(FormatError) as err:
        load_matrix(p)
    assert err.value.line_no == 3


# -- Fibers ------------------------------------------------------------------------


def test_fibers_behave_like_the_list_of_pairs(tmp_path):
    mesh = grid_mesh(4, 4)
    rng = np.random.default_rng(3)
    pairs = [(int(rng.integers(16)), mesh.vertices[int(rng.integers(16))] + 0.01),
             (3, 5), (mesh.vertices[2], mesh.vertices[9] - 0.2), (0, 15)]
    write_fibers(tmp_path / "f.txt", pairs)
    fibers = load_fibers(tmp_path / "f.txt")
    assert len(fibers) == 4
    for got, want in zip([fibers[i] for i in range(4)] + [fibers[-1]], pairs + [pairs[-1]]):
        for g, w in zip(got, want):
            assert type(g) is (int if isinstance(w, int) else np.ndarray)
            np.testing.assert_array_equal(g, w)
    for it, ix in zip(fibers, [fibers[i] for i in range(4)], strict=True):
        assert all(np.array_equal(a, b) and type(a) is type(b) for a, b in zip(it, ix))
    with pytest.raises(IndexError):
        fibers[4]
    sub = rng.integers(0, 5, size=16)
    np.testing.assert_array_equal(build_connectivity_matrix(fibers, sub, mesh),
                                  build_connectivity_matrix(pairs, sub, mesh))
    np.testing.assert_array_equal(build_connectivity_matrix(list(fibers), sub, mesh),
                                  build_connectivity_matrix(pairs, sub, mesh))


def test_file_vertex_out_of_mesh_range_is_rejected_by_the_matrix(tmp_path):
    p = tmp_path / "f.txt"
    p.write_text("v:0 v:1\nv:-1 v:2\n")
    with pytest.raises(ValueError, match="vertex -1 out of range"):
        build_connectivity_matrix(load_fibers(p), np.zeros(9, dtype=int), grid_mesh(3, 3))


# -- write_fibers ----------------------------------------------------------------


def _fibers_per_endpoint(fibers):
    """The text write_fibers wrote one endpoint at a time, as a reference."""

    def fmt(endpoint):
        if np.isscalar(endpoint) or isinstance(endpoint, (int, np.integer)):
            return f"v:{int(endpoint)}"
        x, y, z = (float(c) for c in np.asarray(endpoint, dtype=np.float64).reshape(3))
        return f"p:{x!r},{y!r},{z!r}"

    return "".join(f"{fmt(a)} {fmt(b)}\n" for a, b in fibers)


def _mixed_fibers(rng, count):
    special = [-0.0, 5e-324, -5e-324, 1e300, -1e300, 2.0, -7.0, 1e16, 0.1, 123.456]
    fibers = []
    for _ in range(count):
        ends = []
        for _ in range(2):
            pick = rng.integers(6)
            if pick == 0:
                ends.append(int(rng.integers(-5, 10**6)))
            elif pick == 1:
                ends.append(np.int64(rng.integers(0, 10**12)))
            elif pick == 2:
                ends.append(float(rng.integers(0, 1000)))  # an integral float vertex index
            elif pick == 3:
                ends.append(list(rng.choice(special, size=3)))
            elif pick == 4:
                ends.append(tuple(rng.normal(scale=10.0 ** rng.integers(-8, 9), size=3)))
            else:
                ends.append(rng.normal(scale=50, size=3))
        fibers.append(tuple(ends))
    return fibers


@pytest.mark.parametrize("write_fibers_per_block", [3, connectivity._WRITE_FIBERS])
def test_write_fibers_bytes_equal_per_endpoint_formatting(tmp_path, monkeypatch,
                                                          write_fibers_per_block):
    monkeypatch.setattr(connectivity, "_WRITE_FIBERS", write_fibers_per_block)
    fibers = _mixed_fibers(np.random.default_rng(11), 200)
    want = _fibers_per_endpoint(fibers).encode()
    write_fibers(tmp_path / "pairs.txt", fibers)
    assert (tmp_path / "pairs.txt").read_bytes() == want
    write_fibers(tmp_path / "arrays.txt", connectivity._fibers_from_pairs(fibers))
    assert (tmp_path / "arrays.txt").read_bytes() == want
    write_fibers(tmp_path / "none.txt", [])
    assert (tmp_path / "none.txt").read_bytes() == b""


def test_write_then_load_fibers_gives_identical_bits(tmp_path):
    """repr digits read back through the exact float parse, bit for bit."""
    fibers = _mixed_fibers(np.random.default_rng(12), 3000)
    write_fibers(tmp_path / "f.txt", fibers)
    back = load_fibers(tmp_path / "f.txt")
    want = connectivity._fibers_from_pairs(fibers)
    assert _same_bits(back.is_point, want.is_point)
    assert _same_bits(back.vertex, want.vertex)
    assert _same_bits(back.points, want.points)


# -- the exact float parse ---------------------------------------------------------


def _parse(tokens):
    """mesh_io's float parse of `tokens`, laid out as one line."""
    text = (" ".join(tokens) + "\n").encode()
    starts, stops = mesh_io._tokens(np.frombuffer(text, dtype=np.uint8))
    return mesh_io._floats(text, starts, stops)


def _python_bits(tokens):
    return np.array([float(t) for t in tokens], dtype=np.float64)


def _fixed(x: Fraction, digits: int) -> str:
    """x rounded to `digits` significant digits, printed without an exponent."""
    with decimal.localcontext(prec=digits):
        return format(Decimal(x.numerator) / Decimal(x.denominator), "f")


finite_doubles = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def float_tokens(draw):
    kind = draw(st.sampled_from(["repr", "%.17g", "%.6f", "%.3e", "midpoint", "edge"]))
    if kind == "midpoint":  # halfway between two adjacent doubles, to 16-20 digits
        x = draw(st.floats(min_value=1e-6, max_value=1e17))
        mid = (Fraction(x) + Fraction(float(np.nextafter(x, np.inf)))) / 2
        token = _fixed(mid, draw(st.integers(16, 20)))
    elif kind == "edge":
        token = draw(st.sampled_from([
            "0", "-0", "+0", "0.0", "-0.0", "+5", ".5", "5.", "-.5", "+.5", "-5.",
            "1234567890123456789", "9223372036854775807", "9223372036854775808",
            "12345678901234567890", "99999999999999999999", "0.1234567890123456789",
            "1.2345678901234567890", "0.0000000000000000000000000001",
            "0.00000000000000000000000000012345", "123.4567890123456789012345678901",
            "4503599627370497.5", "-4503599627370498.5", "9007199254740993",
            "0.30000000000000004", "179769313486231570" + "0" * 291]))
    else:
        token = kind % draw(finite_doubles) if kind != "repr" else repr(draw(finite_doubles))
    if draw(st.booleans()) and not token.startswith(("-", "+")):
        token = "+" + token
    return token


@settings(max_examples=300, deadline=None)
@given(st.lists(float_tokens(), min_size=1, max_size=40))
def test_exact_float_parse_has_the_bits_of_float(tokens):
    tokens = [t for t in tokens if math.isfinite(float(t))] or ["1"]
    assert _same_bits(_parse(tokens), _python_bits(tokens))


def _spy_on_float_fromstring(monkeypatch):
    """A list that gets the count of every float64 np.fromstring result."""
    sent, fromstring = [], np.fromstring

    def spy(text, dtype=float, **kwargs):
        values = fromstring(text, dtype=dtype, **kwargs)
        if np.dtype(dtype) == np.float64:
            sent.append(len(values))
        return values

    monkeypatch.setattr(np, "fromstring", spy)
    return sent


def _slow(token, table_size, largest):
    """Whether the exact path must hand `token` to np.fromstring."""
    if "e" in token.lower():
        return True
    digits = token.lstrip("+-")
    m, k = int(digits.replace(".", "")), len(digits.partition(".")[2])
    return m > largest or m >= 2**63 - 1 or k >= table_size


def test_53_bit_route_takes_mantissas_up_to_2_to_the_53(monkeypatch):
    monkeypatch.setattr(mesh_io, "_QUOTIENTS", mesh_io._exact_quotients(np.float64))
    table, largest, _split = mesh_io._QUOTIENTS
    assert (len(table), largest) == (23, 2**53)  # 10**22 is the last exact power
    sent = _spy_on_float_fromstring(monkeypatch)
    tokens = ["0.1234567890123456", "9007199254740992", "-12.5", "1e22", "0.000001",
              "9007199254740993", "12.345678901234567", "1." + "0" * 22, "4503599627370497.5"]
    xs = np.random.default_rng(3).normal(scale=100, size=300).tolist()
    tokens += [fmt % x for x in xs for fmt in ("%.17g", "%.6f", "%r")]
    assert _same_bits(_parse(tokens), _python_bits(tokens))
    assert sum(sent) == sum(_slow(t, len(table), largest) for t in tokens)
    assert 0 < sum(sent) < len(tokens)


@pytest.mark.parametrize("token", ["121.257714", "39.988232", "63.889405", "4503599627370497.5",
                                   "-4503599627370498.5", "-121.257714"])
def test_long_double_midpoints_are_resolved_exactly(monkeypatch, token):
    """The long double quotient of these tokens lies exactly halfway between
    two adjacent doubles; for the first two the cast alone rounds the wrong way."""
    table = mesh_io._QUOTIENTS[0]
    if np.finfo(table.dtype).nmant <= 52:
        pytest.skip("long double has no more bits than double here")
    digits = token.lstrip("+-")
    m, k = int(digits.replace(".", "")), len(digits.partition(".")[2])
    q = table.dtype.type(m) / table[k]
    low = float(q)
    high = float(np.nextafter(low, np.inf if q > low else -np.inf))
    assert Fraction(*q.as_integer_ratio()) == (Fraction(low) + Fraction(high)) / 2
    assert (low != abs(float(token))) == (digits in ("121.257714", "39.988232"))
    sent = _spy_on_float_fromstring(monkeypatch)
    assert _same_bits(_parse([token]), _python_bits([token]))
    assert sent == []


def _rotated_desk_mesh():
    """The desk-size atlas turned and shifted as geobench's inputs are."""
    mesh, _regions, _hemis = atlas_mesh(100, 98)
    rng = np.random.default_rng(1)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    vertices = mesh.vertices.copy()
    vertices[:, 2] += rng.uniform(-0.25, 0.25, len(vertices))
    return TriangleMesh(vertices @ (q * np.sign(np.diag(r))).T + rng.uniform(-100, 100, 3),
                        mesh.triangles)


def test_mesh_files_parse_without_np_fromstring_for_coordinates(tmp_path, monkeypatch):
    mesh = _rotated_desk_mesh()
    g17 = tmp_path / "g17.off"
    coords = np.char.mod("%.17g", mesh.vertices)
    g17.write_text(f"OFF\n{mesh.vertex_count} {mesh.triangle_count} 0\n"
                   + "".join(" ".join(row) + "\n" for row in coords)
                   + "".join(f"3 {a} {b} {c}\n" for a, b, c in mesh.triangles.tolist()))
    assert "e" not in g17.read_text()  # no exponent: every coordinate takes the exact path
    written = tmp_path / "written.ply"
    write_mesh(written, mesh)
    sent = _spy_on_float_fromstring(monkeypatch)
    np.testing.assert_array_equal(load_mesh(g17).vertices.view(np.uint64),
                                  mesh.vertices.view(np.uint64))
    rounded = np.array([[float("%.6f" % x) for x in row] for row in mesh.vertices])
    assert _same_bits(load_mesh(written).vertices, rounded)
    assert sent == []
