"""Mesh, label, and parcellation file I/O (ASCII OFF, ASCII PLY, plain-text labels).

Only the ASCII variants of OFF and PLY are accepted; binary files are rejected.
Coordinates are serialized with 6 decimal places, label files are one base-10
integer per line with LF terminators. Numeric blocks are read by `_read_rows`
and written by `_write_rows`, which formats whole blocks in numpy with the
bytes of per-number '%d' and '%.6f'.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .util import splitmix64

COORD_FORMAT = "%.6f"
PALETTE_SIZE = 512


class FormatError(ValueError):
    """Malformed input file; carries the offending 1-based line number."""

    def __init__(self, path, line_no: int, message: str):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


@dataclass
class TriangleMesh:
    """Triangle mesh: (n, 3) vertex positions in mm and (m, 3) vertex-index triples."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if len(self.vertices) == 0:
            raise ValueError("mesh must have at least one vertex")
        if not np.isfinite(self.vertices).all():
            raise ValueError("vertex coordinates must be finite")
        if self.triangles.size:
            if self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices):
                raise ValueError("triangle vertex index out of range")
            t = self.triangles
            if np.any((t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])):
                raise ValueError("triangle repeats a vertex index")

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def triangle_count(self) -> int:
        return len(self.triangles)


def _significant_lines(text: str) -> tuple[list[int] | range, list[str]]:
    """1-based numbers and stripped text of the lines that are neither blank nor # comments."""
    lines = list(map(str.strip, text.splitlines()))
    if "" not in lines and "#" not in text:
        return range(1, len(lines) + 1), lines
    numbers = [no for no, line in enumerate(lines, start=1) if line and line[0] != "#"]
    return numbers, [lines[no - 1] for no in numbers]


# -- reading numeric rows -----------------------------------------------------------
#
# `_read_rows` reads every numeric block in two steps: the numbers, by the bulk
# pass when the block is plain and else by one per-line loop; then the format's
# rules, once, vectorised, on the rows read. The bulk pass (one C-level
# `np.fromstring`) takes a block only where it gives exactly what int()/float()
# would: ASCII digits, signs, separators and (for floats) '.', 'e', 'E'; the
# expected token count on every line; every integer sign followed by a digit
# (strtoll reads a lone sign as 0); no integer saturated at the int64 limits;
# every float finite (its float parsing is Python's own correctly rounded one).
# The per-line loop also reads what only int()/float() take (`1_000`, `nan`) and
# stops at the first line with the wrong token count or an unreadable token; the
# rules run on the rows before it, so the error names the first bad line, whether
# a rule or a token made it bad. Neither pass allocates rows before it has seen
# text that can hold them: the bulk pass keeps each block's numbers until every
# block is read, and `width` tokens take 2 * width - 1 characters or more.

_INT_CHARS = b"0123456789+-"
_FLOAT_CHARS = _INT_CHARS + b".eE"
_INT64_LIMITS = (np.iinfo(np.int64).min, np.iinfo(np.int64).max)
READ_BLOCK_LINES = 4096  # lines per bulk pass: keeps its temporaries near 1 MB


def _block_bytes(lines, allowed: bytes) -> np.ndarray | None:
    """`lines` joined by LF, with a final LF, as read-only uint8; None if a
    character other than `allowed`, space, tab or LF occurs."""
    try:
        data = "\n".join([*lines, ""]).encode("ascii")
    except UnicodeEncodeError:
        return None
    if data.translate(None, allowed + b" \t\n"):
        return None
    return np.frombuffer(data, dtype=np.uint8)


def _token_starts(block: np.ndarray, width: int) -> np.ndarray | None:
    """Offsets of the tokens of a `_block_bytes` block; None unless every line
    holds exactly `width` tokens (a total alone would let a short line and a
    long one balance)."""
    gap = block <= ord(" ")
    first = ~gap
    first[1:] &= gap[:-1]
    starts = np.flatnonzero(first)
    line_ends = np.flatnonzero(block == ord("\n"))
    through = np.searchsorted(starts, line_ends)  # tokens up to the end of each line
    if not np.array_equal(through, np.arange(1, len(line_ends) + 1) * width):
        return None
    return starts


def _parse_numbers(block: np.ndarray, dtype, count: int) -> np.ndarray | None:
    """The `count` numbers of a checked block in one np.fromstring pass, or None."""
    if dtype is int:
        signs = np.flatnonzero((block == ord("+")) | (block == ord("-")))
        if np.any(block[signs + 1] - np.uint8(ord("0")) > 9):
            return None
    text = block.view()
    text.flags.writeable = False  # np.fromstring reads read-only buffers only
    try:
        values = np.fromstring(text, dtype=np.int64 if dtype is int else np.float64, sep=" ")
    except ValueError:  # a token np.fromstring cannot read
        return None
    if len(values) != count:
        return None
    if dtype is int and np.isin(values, _INT64_LIMITS).any():  # strtoll saturates
        return None
    if dtype is float and not np.isfinite(values).all():
        return None
    return values


def _parse_rows(lines, width: int, dtype) -> np.ndarray | None:
    """(len(lines), width) int64 (dtype int) or float64 (dtype float) array of
    the numbers on `lines`, parsed in bulk READ_BLOCK_LINES lines at a time;
    None when the caller must parse the lines one by one (see above)."""
    blocks = [np.empty((0, width), dtype=np.int64 if dtype is int else np.float64)]
    for start in range(0, len(lines), READ_BLOCK_LINES):
        block_lines = lines[start:start + READ_BLOCK_LINES]
        block = _block_bytes(block_lines, _INT_CHARS if dtype is int else _FLOAT_CHARS)
        if block is None or _token_starts(block, width) is None:
            return None
        values = _parse_numbers(block, dtype, width * len(block_lines))
        if values is None:
            return None
        blocks.append(values.reshape(-1, width))
    return np.concatenate(blocks)


def _read_rows(path, numbers, lines, width, dtype, expected, check=None, cols=None):
    """int64 (dtype int) or float64 (dtype float) rows of the `width` numbers
    on each of `lines`, which are lines `numbers` of the file; `cols` picks
    the columns to keep before any is parsed. `check(rows, lines)` returns
    (row, message) for the first row that breaks the format's rules, or None.

    Raises FormatError at the first bad line: a rule's message, or "expected
    <expected>, got '<line>'" for a line that cannot be read (see above).
    """
    rows = _parse_rows(lines, width, dtype)
    stop = len(lines)
    if rows is None:
        picked = range(width) if cols is None else cols
        most = min(len(lines), sum(map(len, lines)) // (2 * width - 1))  # rows the text can hold
        rows = np.empty((most, len(picked)), dtype=np.int64 if dtype is int else np.float64)
        for row, line in enumerate(lines):
            parts = line.split()
            try:
                if len(parts) != width:
                    raise ValueError
                rows[row] = [dtype(parts[c]) for c in picked]
            except (ValueError, OverflowError):  # OverflowError: an int beyond int64
                stop = row
                break
    elif cols is not None:
        rows = rows[:, cols]
    found = check(rows[:stop], lines) if check is not None else None
    if found is not None:
        raise FormatError(path, numbers[found[0]], found[1])
    if stop < len(lines):
        raise FormatError(path, numbers[stop], f"expected {expected}, got {lines[stop].strip()!r}")
    return rows


def _first(bad: np.ndarray) -> int | None:
    """Index of the first True in `bad`, or None."""
    hits = np.flatnonzero(bad)
    return int(hits[0]) if len(hits) else None


def _finite(rows, lines):
    """Rule of vertex rows: every coordinate is finite."""
    row = _first(~np.isfinite(rows).all(axis=1))
    return None if row is None else (row, f"non-finite vertex coordinates: {lines[row]!r}")


def _face_rules(vertex_count, rows, lines):
    """Rules of face rows '3 i j k': the leading 3, indices in range, no repeated index."""
    t = rows[:, 1:]
    not_three = rows[:, 0] != 3
    outside = (t < 0) | (t >= vertex_count)
    repeats = (t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 0] == t[:, 2])
    row = _first(not_three | outside.any(axis=1) | repeats)
    if row is None:
        return None
    if not_three[row]:
        return row, f"expected triangle face '3 i j k', got {' '.join(lines[row].split())!r}"
    if outside[row].any():
        return row, f"vertex index {t[row][outside[row]][0]} out of range [0, {vertex_count})"
    return row, "face repeats a vertex index"


def _faces(path, numbers, lines, vertex_count) -> np.ndarray:
    """(m, 3) triangles of the face lines '3 i j k'."""
    rows = _read_rows(path, numbers, lines, 4, int, "triangle face '3 i j k'",
                      partial(_face_rules, vertex_count))
    return rows[:, 1:].copy()


def _load_off(path: Path) -> TriangleMesh:
    numbers, lines = _significant_lines(path.read_text(encoding="utf-8"))
    if not lines:
        raise FormatError(path, 1, "empty file")
    if lines[0] != "OFF":
        raise FormatError(path, numbers[0], f"expected 'OFF' header, got {lines[0]!r}")
    if len(lines) < 2:
        raise FormatError(path, numbers[0] + 1, "missing counts line 'nv nf ne'")
    try:
        nv, nf, _ne = (int(t) for t in lines[1].split())
    except ValueError:
        raise FormatError(path, numbers[1],
                          "counts line must be three integers 'nv nf ne'") from None
    if nv == 0:
        raise FormatError(path, numbers[1], "empty vertex list")
    if nv < 0 or nf < 0:
        raise FormatError(path, numbers[1], f"negative vertex or face count: {lines[1]!r}")

    # Slices stop at the lines present, so counts larger than the file
    # allocate nothing before the shortfall is reported.
    end = 2 + nv
    vertices = _read_rows(path, numbers[2:end], lines[2:end], 3, float, "'x y z' coordinates",
                          _finite)
    if len(vertices) < nv:
        raise FormatError(path, numbers[-1] + 1, f"expected {nv} vertex lines, got {len(vertices)}")

    if len(lines) < end + nf:
        _faces(path, numbers[end:], lines[end:], nv)  # raises at a bad face line, if any
        raise FormatError(path, numbers[-1] + 1,
                          f"expected {nf} face lines, got {len(lines) - end}")
    triangles = _faces(path, numbers[end:end + nf], lines[end:end + nf], nv)
    if len(lines) > end + nf:
        raise FormatError(path, numbers[end + nf],
                          f"unexpected trailing content: {lines[end + nf]!r}")
    return TriangleMesh(vertices, triangles)


def _load_ply(path: Path) -> TriangleMesh:
    raw_lines = path.read_text(encoding="utf-8").splitlines()
    if not raw_lines or raw_lines[0].strip() != "ply":
        raise FormatError(path, 1, "expected 'ply' magic line")

    # -- header ---------------------------------------------------------
    nv = nf = None
    vertex_props: list[str] = []
    current = None
    saw_format = False
    body_start = None
    for no in range(1, len(raw_lines)):
        line = raw_lines[no].strip()
        lineno = no + 1
        if not line or line.startswith("comment"):
            continue
        tokens = line.split()
        if tokens[0] == "format":
            if len(tokens) < 2 or tokens[1] != "ascii":
                raise FormatError(path, lineno, f"only ASCII PLY is supported, got {line!r}")
            saw_format = True
        elif tokens[0] == "element":
            if len(tokens) != 3:
                raise FormatError(path, lineno, f"malformed element line: {line!r}")
            if tokens[1] not in ("vertex", "face"):
                raise FormatError(path, lineno, f"unsupported element {tokens[1]!r}")
            try:
                count = int(tokens[2])
            except ValueError:
                count = -1
            if count < 0:
                raise FormatError(path, lineno,
                                  f"element count must be a non-negative integer: {line!r}")
            current = tokens[1]
            if current == "vertex":
                nv = count
            else:
                nf = count
        elif tokens[0] == "property":
            if current == "vertex":
                if tokens[1] == "list":
                    raise FormatError(path, lineno, "list property not allowed on vertices")
                vertex_props.append(tokens[-1])
        elif tokens[0] == "end_header":
            body_start = no + 1
            break
        else:
            raise FormatError(path, lineno, f"unexpected header line: {line!r}")
    if body_start is None:
        raise FormatError(path, len(raw_lines), "missing end_header")
    if not saw_format:
        raise FormatError(path, 1, "missing 'format ascii 1.0' line")
    if nv is None:
        raise FormatError(path, body_start, "missing 'element vertex' declaration")
    if nv == 0:
        raise FormatError(path, body_start, "empty vertex list")
    nf = nf or 0
    try:
        coord_cols = [vertex_props.index(name) for name in ("x", "y", "z")]
    except ValueError:
        raise FormatError(path, body_start, "vertex element must declare x, y, z properties") from None

    # -- body: every non-blank line after the header ---------------------
    stripped = list(map(str.strip, raw_lines[body_start:]))
    numbers = [no for no, line in enumerate(stripped, start=body_start + 1) if line]
    lines = [line for line in stripped if line]
    if len(lines) < nv + nf:
        raise FormatError(path, len(raw_lines) + 1,
                          f"expected {nv} vertex and {nf} face lines, got {len(lines)}")
    if len(lines) > nv + nf:
        raise FormatError(path, numbers[nv + nf],
                          f"unexpected trailing content: {lines[nv + nf]!r}")

    vertices = _read_rows(path, numbers[:nv], lines[:nv], len(vertex_props), float,
                          f"{len(vertex_props)} numeric vertex properties", _finite, coord_cols)
    return TriangleMesh(vertices, _faces(path, numbers[nv:], lines[nv:], nv))


def load_mesh(path, fmt: str | None = None) -> TriangleMesh:
    """Load a triangle mesh from an ASCII OFF or ASCII PLY file.

    fmt is "off" or "ply"; when None it is inferred from the file suffix.
    """
    path = Path(path)
    if fmt is None:
        fmt = path.suffix.lstrip(".").lower()
    if fmt not in ("off", "ply"):
        raise ValueError(f"unknown mesh format {fmt!r} (expected 'off' or 'ply')")
    return _load_off(path) if fmt == "off" else _load_ply(path)


def write_mesh(path, mesh: TriangleMesh, fmt: str | None = None,
               colors: np.ndarray | None = None) -> None:
    """Write a mesh as ASCII OFF or PLY; optional (n, 3) uint8 colors, PLY only."""
    path = Path(path)
    if fmt is None:
        fmt = path.suffix.lstrip(".").lower()
    if fmt == "off":
        if colors is not None:
            raise ValueError("per-vertex colors are only supported for PLY output")
        _write_off(path, mesh)
    elif fmt == "ply":
        _write_ply(path, mesh, colors)
    else:
        raise ValueError(f"unknown mesh format {fmt!r} (expected 'off' or 'ply')")


# -- writing numeric rows -----------------------------------------------------------
#
# `_write_rows` writes every numeric block (vertex, colour and face rows, labels,
# matrix rows) a block of rows at a time, with numpy only: each field becomes a
# right-aligned row of ASCII bytes with 0 bytes in front, separators and LFs are
# bytes of the same matrix, and one boolean mask drops the 0 bytes. The bytes
# are those of per-field '%d' and '%.6f'.
#
# '%.6f' prints N / 10**6, where N is the exact value t = |x| * 10**6 rounded
# to the nearest integer, ties to even. The product y = fl(t) is off by at most
# half an ulp: |y - t| <= 2**-53 * y, plus 2**-1075 if y is subnormal. For
# y < 2**52, y - floor(y) is exact, and so is its distance h from 1/2 wherever
# h is small (Sterbenz). Where h > y * 2**-49 + 2**-40, which exceeds
# |y - t| with room for its own rounding, t and y lie strictly between the
# same two half-way points, so rint(y) = N. The test fails for every
# y >= 2**48 (there the bound is at least 1/2) and for nan and inf, so N fits
# uint64. The sign is signbit(x), as '%.6f' prints '-0.000000' for -0.0 and
# -1e-9 too. Every other element (a near-tie, a large value, nan, inf) is
# printed by Python's own '%.6f', one by one.

WRITE_BLOCK_ROWS = 4096
WRITE_BLOCK_FIELDS = 1 << 15  # with WRITE_BLOCK_ROWS, keeps a block's temporaries under 2 MB
_POINT = 6  # digits after the point in COORD_FORMAT


def _fields(values: np.ndarray) -> np.ndarray:
    """(n, c, w + 1) uint8: each element of the (n, c) int64 or float64 array
    `values` as '%d' or COORD_FORMAT prints it, right-aligned after 0 bytes,
    then a space."""
    point = _POINT if values.dtype.kind == "f" else 0
    slow, texts = (), []  # elements that Python's own '%.6f' prints
    if point:
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan are not exact
            scaled = np.abs(values) * 10.0 ** point
            exact = np.abs(scaled - np.floor(scaled) - 0.5) > scaled * 2.0 ** -49 + 2.0 ** -40
        mag = np.rint(np.where(exact, scaled, 0.0)).astype(np.uint64)
        negative = np.signbit(values) & exact
        slow = np.flatnonzero(~exact)
        texts = [COORD_FORMAT % v for v in values.reshape(-1)[slow].tolist()]
    else:
        mag = values.astype(np.uint64)  # two's complement: -mag is exact for INT64_MIN too
        negative = values < 0
        np.negative(mag, out=mag, where=negative)
    digits = max(len(str(mag.max(initial=0))), point + 1)
    has_sign = bool(negative.any())
    width = max([has_sign + digits + (point > 0), *map(len, texts)])
    out = np.zeros(mag.shape + (width + 1,), dtype=np.uint8)
    out[..., width] = ord(" ")
    if point:
        out[..., width - 1 - point] = ord(".")
    q = mag
    for j in range(digits):
        column = out[..., width - 1 - j - (point > 0 and j >= point)]
        rest = q // 10
        np.subtract(q, rest * 10, out=column, casting="unsafe")
        column += ord("0")
        if j > point:  # the last point + 1 digits always print
            column *= q > 0
        q = rest
    flat = out.reshape(-1, width + 1)
    if has_sign:  # '-' on the last 0 byte before the digits
        at = np.flatnonzero(negative)
        flat[at, np.argmax(flat[at] != 0, axis=1) - 1] = ord("-")
    for at, text in zip(slow, texts):
        flat[at, :width] = 0
        flat[at, width - len(text):width] = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return out


def _write_rows(file, *arrays: np.ndarray, prefix: bytes = b"") -> None:
    """Write one line per row of the 2-D int64 or float64 arrays laid side by
    side (one column at least) to the binary `file`: `prefix`, then every
    element as `_fields` prints it, space-separated, then LF. Blocks hold at
    most WRITE_BLOCK_ROWS rows and WRITE_BLOCK_FIELDS fields."""
    fields = max(1, sum(a.shape[1] for a in arrays))  # a P = 0 matrix has no column
    step = max(1, min(WRITE_BLOCK_ROWS, WRITE_BLOCK_FIELDS // fields))
    lead = np.frombuffer(prefix, dtype=np.uint8)
    for start in range(0, len(arrays[0]), step):
        parts = [_fields(a[start:start + step]) for a in arrays]
        rows = len(parts[0])
        parts = [p.reshape(rows, -1) for p in parts]
        parts[-1][:, -1] = ord("\n")
        if prefix:
            parts.insert(0, np.broadcast_to(lead, (rows, len(lead))))
        block = np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0]
        file.write(block[block != 0])


def _write_off(path: Path, mesh: TriangleMesh) -> None:
    with open(path, "wb") as f:
        f.write(f"OFF\n{mesh.vertex_count} {mesh.triangle_count} 0\n".encode())
        _write_rows(f, mesh.vertices)
        _write_rows(f, mesh.triangles, prefix=b"3 ")


def _write_ply(path: Path, mesh: TriangleMesh, colors: np.ndarray | None) -> None:
    if colors is not None:
        colors = np.asarray(colors, dtype=np.int64).reshape(-1, 3)
        if len(colors) != mesh.vertex_count:
            raise ValueError("need one RGB triple per vertex")
    header = ["ply", "format ascii 1.0", f"element vertex {mesh.vertex_count}",
              "property float x", "property float y", "property float z"]
    if colors is not None:
        header += ["property uchar red", "property uchar green", "property uchar blue"]
    header += [f"element face {mesh.triangle_count}",
               "property list uchar int vertex_indices", "end_header"]
    with open(path, "wb") as f:
        f.write(("\n".join(header) + "\n").encode())
        _write_rows(f, mesh.vertices, *([] if colors is None else [colors]))
        _write_rows(f, mesh.triangles, prefix=b"3 ")


def _non_negative(rows, lines):
    """Rule of label rows: no label is negative."""
    row = _first(rows[:, 0] < 0)
    return None if row is None else (row, f"labels must be non-negative, got {rows[row, 0]}")


def load_labels(path, expected_count: int | None = None) -> np.ndarray:
    """Load per-vertex integer labels, one per line; optionally check the count."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    labels = _read_rows(path, range(1, len(lines) + 1), lines, 1, int, "an integer label",
                        _non_negative)
    if expected_count is not None and len(labels) != expected_count:
        raise ValueError(f"{path}: {len(labels)} labels but expected {expected_count} vertices")
    return labels.reshape(-1)


def write_labels(path, labels) -> None:
    """Write one label per line; raises ValueError on a negative label, which
    `load_labels` would reject."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1, 1)
    if labels.size and labels.min() < 0:
        raise ValueError(f"labels must be non-negative, got {labels.min()}")
    with open(path, "wb") as f:
        _write_rows(f, labels)


def _build_palette() -> np.ndarray:
    """Fixed table of PALETTE_SIZE distinct RGB triples from a hash stream."""
    colors, seen, x = [], set(), 0
    while len(colors) < PALETTE_SIZE:
        h = splitmix64(x)
        x += 1
        rgb = ((h >> 40) & 255, (h >> 24) & 255, (h >> 8) & 255)
        if rgb not in seen:
            seen.add(rgb)
            colors.append(rgb)
    return np.asarray(colors, dtype=np.int64)


_PALETTE = _build_palette()


def color_for_id(sub_parcel_id: int) -> tuple[int, int, int]:
    """Deterministic RGB for a sub-parcel id; injective on ids 0..PALETTE_SIZE-1."""
    r, g, b = _PALETTE[int(sub_parcel_id) % PALETTE_SIZE]
    return int(r), int(g), int(b)


def write_parcellation(prefix, parcellation, mesh: TriangleMesh) -> tuple[Path, Path]:
    """Write <prefix>.txt (one sub-parcel id per vertex) and <prefix>.ply (colored mesh).

    Vertex colors come from the fixed hash palette, so equal ids always get
    equal colors and output bytes are identical across runs. A negative id
    raises ValueError before any file is written.
    """
    sub = np.asarray(getattr(parcellation, "sub_parcel", parcellation), dtype=np.int64)
    if len(sub) != mesh.vertex_count:
        raise ValueError(f"parcellation length {len(sub)} != vertex count {mesh.vertex_count}")
    prefix = Path(prefix)
    txt_path = prefix.parent / (prefix.name + ".txt")
    ply_path = prefix.parent / (prefix.name + ".ply")
    write_labels(txt_path, sub)
    _write_ply(ply_path, mesh, _PALETTE[sub % PALETTE_SIZE])
    return txt_path, ply_path


def concat_meshes(a: TriangleMesh, b: TriangleMesh) -> tuple[TriangleMesh, np.ndarray]:
    """Concatenate two meshes into one; returns (mesh, 0/1 per-vertex origin labels)."""
    vertices = np.vstack([a.vertices, b.vertices])
    triangles = np.vstack([a.triangles, b.triangles + a.vertex_count])
    labels = np.concatenate([np.zeros(a.vertex_count, dtype=np.int64),
                             np.ones(b.vertex_count, dtype=np.int64)])
    return TriangleMesh(vertices, triangles), labels
