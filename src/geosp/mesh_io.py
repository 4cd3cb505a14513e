"""Mesh, label, and parcellation file I/O (ASCII OFF, ASCII PLY, plain-text labels).

Only the ASCII variants of OFF and PLY are accepted; binary files are rejected.
Coordinates are serialized with 6 decimal places, label files are one base-10
integer per line with LF terminators.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .util import splitmix64

COORD_FORMAT = "%.6f"
PALETTE_SIZE = 512
WRITE_BLOCK_ROWS = 4096


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


def _significant_lines(text: str):
    """Yield (1-based line number, stripped line), skipping blanks and # comments."""
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield no, line


def _parse_face_tokens(path, no, tokens, vertex_count):
    if len(tokens) != 4 or tokens[0] != "3":
        raise FormatError(path, no, f"expected triangle face '3 i j k', got {' '.join(tokens)!r}")
    try:
        i, j, k = (int(t) for t in tokens[1:])
    except ValueError:
        raise FormatError(path, no, "face indices must be integers") from None
    for idx in (i, j, k):
        if not 0 <= idx < vertex_count:
            raise FormatError(path, no, f"vertex index {idx} out of range [0, {vertex_count})")
    if i == j or j == k or i == k:
        raise FormatError(path, no, "face repeats a vertex index")
    return i, j, k


def _reject_non_finite(path, vertices: np.ndarray, vertex_lines) -> None:
    """Raise FormatError at the first vertex with a nan or inf coordinate.

    vertex_lines holds (line number, line) per vertex row; it is read only
    when such a vertex exists, so finite meshes pay one vectorised check.
    """
    bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
    if len(bad):
        no, line = next(islice(vertex_lines, int(bad[0]), None))
        raise FormatError(path, no, f"non-finite vertex coordinates: {line!r}")


def _load_off(path: Path, text: str) -> TriangleMesh:
    lines = _significant_lines(text)
    try:
        no, header = next(lines)
    except StopIteration:
        raise FormatError(path, 1, "empty file") from None
    if header != "OFF":
        raise FormatError(path, no, f"expected 'OFF' header, got {header!r}")
    try:
        no, counts = next(lines)
        nv, nf, _ne = (int(t) for t in counts.split())
    except StopIteration:
        raise FormatError(path, no + 1, "missing counts line 'nv nf ne'") from None
    except ValueError:
        raise FormatError(path, no, "counts line must be three integers 'nv nf ne'") from None
    if nv == 0:
        raise FormatError(path, no, "empty vertex list")

    vertices = np.empty((nv, 3), dtype=np.float64)
    for row in range(nv):
        try:
            no, line = next(lines)
        except StopIteration:
            raise FormatError(path, no + 1, f"expected {nv} vertex lines, got {row}") from None
        parts = line.split()
        try:
            if len(parts) != 3:
                raise ValueError
            vertices[row] = [float(p) for p in parts]
        except ValueError:
            raise FormatError(path, no, f"expected 'x y z' coordinates, got {line!r}") from None
    _reject_non_finite(path, vertices, islice(_significant_lines(text), 2, None))

    triangles = np.empty((nf, 3), dtype=np.int64)
    for row in range(nf):
        try:
            no, line = next(lines)
        except StopIteration:
            raise FormatError(path, no + 1, f"expected {nf} face lines, got {row}") from None
        triangles[row] = _parse_face_tokens(path, no, line.split(), nv)

    for no, line in lines:
        raise FormatError(path, no, f"unexpected trailing content: {line!r}")
    return TriangleMesh(vertices, triangles)


def _load_ply(path: Path, text: str) -> TriangleMesh:
    raw_lines = text.splitlines()
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
            if tokens[1] == "vertex":
                nv = int(tokens[2])
                current = "vertex"
            elif tokens[1] == "face":
                nf = int(tokens[2])
                current = "face"
            else:
                raise FormatError(path, lineno, f"unsupported element {tokens[1]!r}")
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

    # -- body -----------------------------------------------------------
    body = [(i + 1, raw_lines[i].strip()) for i in range(body_start, len(raw_lines))
            if raw_lines[i].strip()]
    if len(body) < nv + nf:
        raise FormatError(path, len(raw_lines) + 1,
                          f"expected {nv} vertex and {nf} face lines, got {len(body)}")
    if len(body) > nv + nf:
        no, line = body[nv + nf]
        raise FormatError(path, no, f"unexpected trailing content: {line!r}")

    vertices = np.empty((nv, 3), dtype=np.float64)
    for row in range(nv):
        no, line = body[row]
        parts = line.split()
        if len(parts) != len(vertex_props):
            raise FormatError(path, no,
                              f"expected {len(vertex_props)} vertex properties, got {len(parts)}")
        try:
            vertices[row] = [float(parts[c]) for c in coord_cols]
        except ValueError:
            raise FormatError(path, no, f"bad vertex coordinates: {line!r}") from None
    _reject_non_finite(path, vertices, body)

    triangles = np.empty((nf, 3), dtype=np.int64)
    for row in range(nf):
        no, line = body[nv + row]
        triangles[row] = _parse_face_tokens(path, no, line.split(), nv)
    return TriangleMesh(vertices, triangles)


def load_mesh(path, fmt: str | None = None) -> TriangleMesh:
    """Load a triangle mesh from an ASCII OFF or ASCII PLY file.

    fmt is "off" or "ply"; when None it is inferred from the file suffix.
    """
    path = Path(path)
    if fmt is None:
        fmt = path.suffix.lstrip(".").lower()
    if fmt not in ("off", "ply"):
        raise ValueError(f"unknown mesh format {fmt!r} (expected 'off' or 'ply')")
    text = path.read_text(encoding="utf-8")
    return _load_off(path, text) if fmt == "off" else _load_ply(path, text)


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


def _format_rows(line_format: str, *arrays: np.ndarray):
    """Yield `line_format % row` over the rows of 2-D arrays laid side by side,
    joined WRITE_BLOCK_ROWS lines at a time.

    Each row is a tuple of Python scalars, so every line costs one `%`; the
    blocks keep a writer's transient memory small.
    """
    for start in range(0, len(arrays[0]), WRITE_BLOCK_ROWS):
        columns = [c for a in arrays for c in a[start:start + WRITE_BLOCK_ROWS].T.tolist()]
        yield "".join(map(line_format.__mod__, zip(*columns)))


def _write_text(path, *parts) -> None:
    """Write the strings of each part, part after part, as UTF-8 with LF line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for part in parts:
            f.writelines(part)


_XYZ_FORMAT = " ".join([COORD_FORMAT] * 3)
_FACE_FORMAT = "3 %d %d %d\n"


def _write_off(path: Path, mesh: TriangleMesh) -> None:
    _write_text(path, [f"OFF\n{mesh.vertex_count} {mesh.triangle_count} 0\n"],
                _format_rows(_XYZ_FORMAT + "\n", mesh.vertices),
                _format_rows(_FACE_FORMAT, mesh.triangles))


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
    if colors is None:
        vertex_lines = _format_rows(_XYZ_FORMAT + "\n", mesh.vertices)
    else:
        vertex_lines = _format_rows(_XYZ_FORMAT + " %d %d %d\n", mesh.vertices, colors)
    _write_text(path, ["\n".join(header) + "\n"], vertex_lines,
                _format_rows(_FACE_FORMAT, mesh.triangles))


def load_labels(path, expected_count: int | None = None) -> np.ndarray:
    """Load per-vertex integer labels, one per line; optionally check the count."""
    path = Path(path)
    labels = []
    for no, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        try:
            value = int(raw.strip())
        except ValueError:
            raise FormatError(path, no, f"expected an integer label, got {raw.strip()!r}") from None
        if value < 0:
            raise FormatError(path, no, f"labels must be non-negative, got {value}")
        labels.append(value)
    if expected_count is not None and len(labels) != expected_count:
        raise ValueError(f"{path}: {len(labels)} labels but expected {expected_count} vertices")
    return np.asarray(labels, dtype=np.int64)


def write_labels(path, labels) -> None:
    labels = np.asarray(labels, dtype=np.int64).reshape(-1, 1)
    _write_text(path, _format_rows("%d\n", labels))


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
    equal colors and output bytes are identical across runs.
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
