"""Parcel-pair connectivity counts, binarization, and Dice reproducibility.

Fibers are endpoint pairs; each endpoint is a vertex index or a 3D point that
gets snapped to its nearest vertex. A fiber increments the symmetric count
cell of its endpoint parcels; binarized matrices are compared across subjects
with the Dice coefficient over their edge sets.
"""
from __future__ import annotations

import math
import numbers
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, combinations
from pathlib import Path

import numpy as np

from .mesh_io import (_FLOAT_CHARS, _INT64_LIMITS, _SPACES, FormatError, TriangleMesh, _first,
                      _floats, _ints, _Lines, _read_rows, _spread, _tokens, _width_per_line,
                      _write_rows)

# Blocks keep the temporaries near 1 MB: endpoints whose grid cells are
# looked up together, and about how many (endpoint, vertex) distances one
# step computes.
_ENDPOINT_BLOCK = 1024
_DISTANCE_BLOCK = 1 << 14
# A grid hit is exact when its squared distance is below cell² by this relative
# margin; it covers the rounding of the cell coordinates and of the distances.
_EXACT_MARGIN = 1e-6
_MAX_CELLS_PER_AXIS = 1 << 20  # keeps cell keys far inside int64
_SAMPLED_TRIANGLES = 4096
# A point whose 27 cells hold at least 1/_BRUTE_FORCE_SHARE of the vertices
# goes to the brute-force scan: gathering that many candidates costs about as
# much as scanning all N contiguously, and a miss would go on to a coarser grid.
_BRUTE_FORCE_SHARE = 4
_BRUTE_FORCE = -2
_WRITE_FIBERS = 1 << 14  # fibers formatted per write
# (dx, dy) of the 9 (x, y) cell columns around a cell, in increasing key order.
_COLUMN_DX = np.repeat([-1, 0, 1], 3)
_COLUMN_DY = np.tile([-1, 0, 1], 3)


def _squared_norms(dx: np.ndarray, dy: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """(dx² + dz²) + dy², elementwise, written over `dx`: the one distance formula.

    Every path sums the three squares in this order, so equal distances
    round alike and ties resolve the same way in the grid pass and the scan.
    """
    np.multiply(dx, dx, out=dx)
    np.multiply(dz, dz, out=dz)
    dx += dz
    np.multiply(dy, dy, out=dy)
    dx += dy
    return dx


def _cell_size(x: np.ndarray, y: np.ndarray, z: np.ndarray, triangles: np.ndarray) -> float:
    """About the mean vertex spacing: the mean edge length of up to ~4k triangles.

    The cell size sets only the speed of snapping, never its result, so a
    strided sample of the triangles is enough and keeps the temporaries small.
    """
    t = triangles[::max(1, len(triangles) // _SAMPLED_TRIANGLES)]
    h = 0.0
    if len(t):
        a, b = t.ravel(), np.roll(t, 1, axis=1).ravel()
        h = float(np.sqrt(_squared_norms(x[a] - x[b], y[a] - y[b], z[a] - z[b])).mean())
    h = max(h, max(np.ptp(x), np.ptp(y), np.ptp(z)) / _MAX_CELLS_PER_AXIS)
    return h if h > 0 else 1.0


class _VertexGrid:
    """Mesh vertices bucketed into cubic cells of side `h`, in cell-key order.

    `x`, `y` and `z` are the vertex coordinates in that order and `order[i]`
    the vertex at position i. `keys` holds the distinct cell keys, increasing,
    then 3 sentinels above every key; `first[j]` is the position of the first
    vertex of key j, and `first[-1]` the vertex count.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, z: np.ndarray, h: float):
        self.h = h
        self.lo = [c.min() for c in (x, y, z)]
        cells = [np.floor((c - lo) / h).astype(np.int64) for c, lo in zip((x, y, z), self.lo)]
        self.dims = [int(c.max()) + 1 for c in cells]
        key = self._key(*cells)
        self.order = np.argsort(key)
        key = key[self.order]
        self.x, self.y, self.z = x[self.order], y[self.order], z[self.order]
        first = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
        self.keys = np.concatenate([key[first], np.full(3, np.iinfo(np.int64).max)])
        self.first = np.append(first, len(key))

    def _key(self, x, y, z):
        return (x * self.dims[1] + y) * self.dims[2] + z

    def _cell(self, c: np.ndarray, axis: int) -> np.ndarray:
        """int64 cell coordinates of the coordinates `c` along `axis`.

        A cell coordinate below -1 or above dims has only empty neighbours on
        that axis, so clipping to [-2, dims + 1] changes no range and keeps
        far points' coordinates small.
        """
        c = c - self.lo[axis]
        c /= self.h
        np.floor(c, out=c)
        return np.clip(c, -2, self.dims[axis] + 1, out=c).astype(np.int64)

    def ranges(self, px, py, pz):
        """(b, 9) start positions and counts: the 3x3x3 cells around each point.

        The three cells of a z column have consecutive keys, so each of the 9
        (x, y) columns is one contiguous range. Its start is the first key at
        or above the column's lowest cell; its stop lies at most 3 distinct
        keys further on.
        """
        cx, cy, cz = self._cell(px, 0), self._cell(py, 1), self._cell(pz, 2)
        x = cx[:, None] + _COLUMN_DX
        y = cy[:, None] + _COLUMN_DY
        z0 = np.maximum(cz - 1, 0)[:, None]
        z1 = np.minimum(cz + 1, self.dims[2] - 1)[:, None]
        inside = (x >= 0) & (x < self.dims[0]) & (y >= 0) & (y < self.dims[1]) & (z0 <= z1)
        low = self._key(x, y, z0)
        high = low + (z1 - z0)
        i = np.searchsorted(self.keys, low)
        stop = i + (self.keys[i] <= high)
        stop += self.keys[i + 1] <= high
        stop += self.keys[i + 2] <= high
        start = self.first[i]
        return start, np.where(inside, self.first[stop] - start, 0)

    def nearest(self, px, py, pz, start, count, per_point):
        """Nearest candidate of each point (-1 where none is provably nearest overall)."""
        result = np.full(len(px), -1, dtype=np.int64)
        hit = per_point > 0
        if not hit.any():
            return result
        count = count.ravel()
        pos = np.repeat(start.ravel() - (np.cumsum(count) - count), count)
        pos += np.arange(len(pos))
        d2 = _squared_norms(self.x[pos] - np.repeat(px, per_point),
                            self.y[pos] - np.repeat(py, per_point),
                            self.z[pos] - np.repeat(pz, per_point))
        seg = (np.cumsum(per_point) - per_point)[hit]
        best = np.minimum.reduceat(d2, seg)
        # Smallest vertex index among the candidates at the best distance.
        tied = d2 == np.repeat(best, per_point[hit])
        win = np.minimum.reduceat(np.where(tied, self.order[pos], len(self.order)), seg)
        exact = best <= self.h * self.h * (1 - _EXACT_MARGIN)
        result[np.flatnonzero(hit)[exact]] = win[exact]
        return result

    def snap(self, points: np.ndarray, pending: np.ndarray, limit: int, out: np.ndarray) -> None:
        """Set out[pending] to `nearest` of each point, or to _BRUTE_FORCE for a
        point whose 27 cells hold `limit` vertices or more.

        The points are taken in the order of their own cell's key, in blocks
        of endpoints and of distances, so that neighbouring points look up
        neighbouring keys and gather neighbouring vertices.
        """
        key = np.zeros(len(pending), dtype=np.int64)
        for axis in range(3):  # one column at a time keeps the temporaries at O(len(pending))
            key *= self.dims[axis]
            key += self._cell(points[pending, axis], axis)
        pending = pending[np.argsort(key)]
        del key
        for s in range(0, len(pending), _ENDPOINT_BLOCK):
            ids = pending[s:s + _ENDPOINT_BLOCK]
            bx, by, bz = points[ids, 0], points[ids, 1], points[ids, 2]
            start, count = self.ranges(bx, by, bz)
            per_point = count.sum(axis=1)
            heavy = per_point >= limit
            count[heavy] = 0
            per_point[heavy] = 0
            piece = (np.cumsum(per_point) - per_point) // _DISTANCE_BLOCK
            cuts = [0, *(np.flatnonzero(np.diff(piece)) + 1), len(ids)]
            for a, b in zip(cuts, cuts[1:]):
                out[ids[a:b]] = self.nearest(bx[a:b], by[a:b], bz[a:b], start[a:b],
                                             count[a:b], per_point[a:b])
            out[ids[heavy]] = _BRUTE_FORCE


def map_endpoint_to_vertex(point, mesh: TriangleMesh):
    """Nearest mesh vertex by Euclidean distance; ties go to the smallest index.

    `point` is one 3D point (returns an int) or an (M, 3) array of points
    (returns an (M,) int64 array). The vertices are bucketed into a uniform
    grid whose cell is the mean triangle edge length, and the grid keeps the
    vertex coordinates as three contiguous columns in cell-key order. Each
    point looks at the 27 cells around its own: 9 (x, y) columns of 3 cells,
    each one contiguous range of positions, found with one `searchsorted`
    over the distinct cell keys. The points are taken in the order of their
    own cell's key, _ENDPOINT_BLOCK at a time as three gathered columns, so
    lookups and candidate gathers walk memory nearly in order; results are
    scattered back to the input order. A grid answer is exact when its
    squared distance is below cell² (less a rounding margin): every vertex
    outside those cells is at least one cell away. Points that fail the
    check are searched again on a grid with twice the cell, and so on until
    the grid spans at most 3 cells per axis; what is left (points farther
    from the mesh than about a third of its extent) gets a brute-force
    `argmin` over all vertices, in blocks. A point whose 27 cells hold a
    quarter of the vertices or more goes to that scan at once. Every path
    computes the squared distance as (dx² + dz²) + dy² (`_squared_norms`)
    and resolves ties to the smallest index, so the result is the full
    scan's, bit for bit, in any order of the points.

    Cost: per grid level, O(N log N) to build the grid and O(M log M) to
    sort the pending points, then per point 9 lookups and about the
    vertices of 27 cells; a point at distance d from the mesh needs about
    log2(d / cell) levels, and one that falls through costs O(N). Besides
    the (M,) result, the temporaries are a few int64 arrays of M and
    O(N + _ENDPOINT_BLOCK + _DISTANCE_BLOCK).
    """
    points = np.asarray(point, dtype=np.float64)
    single = points.ndim != 2
    if single:
        points = points.reshape(1, 3)
    if points.shape[1] != 3:
        raise ValueError(f"fiber endpoints must be 3D points, got shape {points.shape}")
    if not np.isfinite(points).all():
        bad = np.argmin(np.isfinite(points).all(axis=1))
        raise ValueError(f"fiber endpoint {points[bad].tolist()} is not a finite point")

    vertices = np.ascontiguousarray(mesh.vertices.T)
    nearest = np.full(len(points), -1, dtype=np.int64)
    pending = np.arange(len(points))
    limit = max(1, mesh.vertex_count // _BRUTE_FORCE_SHARE)
    h = _cell_size(*vertices, mesh.triangles)
    while len(pending):
        grid = _VertexGrid(*vertices, h)
        grid.snap(points, pending, limit, nearest)
        pending = pending[nearest[pending] == -1]
        if max(grid.dims) <= 3:  # 27 cells hold every vertex: a coarser grid finds no more
            break
        h *= 2
    pending = np.flatnonzero(nearest < 0)

    rows = max(1, _DISTANCE_BLOCK // mesh.vertex_count)
    for s in range(0, len(pending), rows):
        idx = pending[s:s + rows]
        p = points[idx, :, None]
        d2 = _squared_norms(vertices[0] - p[:, 0], vertices[1] - p[:, 1], vertices[2] - p[:, 2])
        nearest[idx] = np.argmin(d2, axis=1)
    return int(nearest[0]) if single else nearest


class Fibers(Sequence):
    """Fibers held as arrays: endpoint e of fiber f is entry 2f + e.

    `is_point` says which endpoints are 3D points, `vertex` holds the vertex
    index of the others (0 for points), and the rows of the (M, 3) `points`
    are the point endpoints in endpoint order. Indexing and iteration give
    the (a, b) pairs a list of fibers holds: an int per vertex endpoint and a
    float64 (3,) array per point endpoint.

    `load_fibers` also sets `path` and `line_numbers`, the 1-based file line
    of each fiber, so that errors found later name the line.
    """

    path = None
    line_numbers = None

    def __init__(self, is_point, vertex, points):
        self.is_point = np.asarray(is_point, dtype=bool).reshape(-1)
        self.vertex = np.asarray(vertex, dtype=np.int64).reshape(-1)
        self.points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        if (len(self.is_point) % 2 or len(self.vertex) != len(self.is_point)
                or len(self.points) != np.count_nonzero(self.is_point)):
            raise ValueError("need two endpoints per fiber, one vertex entry per endpoint "
                             "and one point row per point endpoint")

    def __len__(self) -> int:
        return len(self.is_point) // 2

    def _endpoint(self, e: int):
        if self.is_point[e]:
            return self.points[np.count_nonzero(self.is_point[:e])].copy()
        return int(self.vertex[e])

    def __getitem__(self, f):
        f = operator.index(f)
        if not -len(self) <= f < len(self):
            raise IndexError("fiber index out of range")
        f %= len(self)
        return self._endpoint(2 * f), self._endpoint(2 * f + 1)

    def __iter__(self):
        points = map(np.array, self.points)
        ends = (next(points) if p else v
                for p, v in zip(self.is_point.tolist(), self.vertex.tolist()))
        return zip(ends, ends)


def _fibers_from_pairs(fibers, vertex_count: int | None = None) -> Fibers:
    """A list of (a, b) endpoint pairs as Fibers, each endpoint checked.

    An endpoint is a vertex index (an integer; integral floats are accepted,
    bools and fractions are not; checked against [0, vertex_count), or the
    int64 range when vertex_count is None, before any cast) or a 3D point.
    """
    low, high = _INT64_LIMITS if vertex_count is None else (0, vertex_count - 1)
    fibers = list(fibers)
    sizes = np.fromiter(map(len, fibers), dtype=np.int64, count=len(fibers))
    if np.any(sizes != 2):
        f = int(np.flatnonzero(sizes != 2)[0])
        raise ValueError(f"fiber {f} has {sizes[f]} endpoints, expected 2")
    ends = np.fromiter(chain.from_iterable(fibers), dtype=object, count=2 * len(fibers))
    kinds = list(map(type, ends))
    code_of = {kind: code for code, kind in enumerate(set(kinds))}
    codes = (np.fromiter(map(code_of.__getitem__, kinds), dtype=np.int64, count=len(kinds))
             if len(code_of) > 1 else np.zeros(len(kinds), dtype=np.int64))
    vertex = np.zeros(len(ends), dtype=np.int64)
    is_point = np.zeros(len(ends), dtype=bool)
    for kind, code in code_of.items():  # one step per endpoint type, not per endpoint
        mask = codes == code
        if issubclass(kind, (bool, np.bool_)):
            raise ValueError(f"fiber endpoint {ends[mask][0]!r} is a bool, not a vertex index")
        if issubclass(kind, numbers.Integral):
            ids = ends[mask]  # Python ints of any size: range-checked before the cast
        elif issubclass(kind, numbers.Real):
            ids = ends[mask].astype(np.float64)
            bad = ~np.isfinite(ids) | (ids != np.trunc(ids))
            if bad.any():
                raise ValueError(f"fiber endpoint {ends[mask][bad][0]!r} is not an integer vertex index")
        else:
            is_point |= mask
            continue
        outside = (ids < low) | (ids > high)
        if outside.any():
            raise ValueError(f"fiber endpoint vertex {ends[mask][outside][0]} out of range")
        vertex[mask] = ids.astype(np.int64)
    n_points = int(is_point.sum())
    points = (np.array(ends[is_point].tolist(), dtype=np.float64).reshape(n_points, -1)
              if n_points else np.empty((0, 3)))
    if points.shape[1] != 3:
        raise ValueError(f"fiber endpoints must be 3D points, got shape {points.shape}")
    return Fibers(is_point, vertex, points)


def _endpoint_vertices(fibers: Fibers, mesh: TriangleMesh) -> np.ndarray:
    """(2F,) int64 vertex of every endpoint, in fiber order: a, b of fiber 0, then fiber 1, ..."""
    e = _first(~fibers.is_point & ((fibers.vertex < 0) | (fibers.vertex >= mesh.vertex_count)))
    if e is not None:
        message = f"fiber endpoint vertex {fibers.vertex[e]} out of range"
        if fibers.path is None:
            raise ValueError(message)
        raise FormatError(fibers.path, fibers.line_numbers[e // 2], message)
    vertex = fibers.vertex.copy()
    if len(fibers.points):
        vertex[fibers.is_point] = map_endpoint_to_vertex(fibers.points, mesh)
    return vertex


def build_connectivity_matrix(fibers, parcellation, mesh: TriangleMesh) -> np.ndarray:
    """P x P symmetric fiber-count matrix.

    Each fiber adds one count to cell (p, q) and its mirror, where p and q are
    the sub-parcels of its endpoints; self-connections land on the diagonal
    once. The upper triangle (diagonal included) therefore sums to the fiber
    count.

    `fibers` is a `Fibers` (as `load_fibers` returns) or a sequence of
    (a, b) endpoint pairs. An endpoint is a vertex index (an integer; integral
    floats are accepted, bools and fractions are not) or a 3D point. Pairs
    are turned into `Fibers` once; then vertex endpoints are checked all at
    once, all point endpoints are snapped in one `map_endpoint_to_vertex`
    call, and the cells are counted with one `np.bincount` and then
    mirrored. Negative sub-parcel ids are rejected.
    """
    sub = np.asarray(getattr(parcellation, "sub_parcel", parcellation), dtype=np.int64)
    if len(sub) != mesh.vertex_count:
        raise ValueError(f"parcellation length {len(sub)} != vertex count {mesh.vertex_count}")
    if sub.min() < 0:
        v = int(np.argmin(sub))
        raise ValueError(f"parcellation has negative sub-parcel id {sub[v]} at vertex {v}")
    n_parcels = int(sub.max()) + 1
    if not isinstance(fibers, Fibers):
        fibers = _fibers_from_pairs(fibers, mesh.vertex_count)
    parcels = sub[_endpoint_vertices(fibers, mesh)]
    cells = np.bincount(parcels[0::2] * n_parcels + parcels[1::2],
                        minlength=n_parcels * n_parcels).reshape(n_parcels, n_parcels)
    counts = cells + cells.T
    counts[np.diag_indices(n_parcels)] = np.diag(cells)  # a self-connection counts once
    return counts


def binarize(counts: np.ndarray) -> np.ndarray:
    """0/1 matrix: 1 wherever the count is positive."""
    return (np.asarray(counts) > 0).astype(np.int64)


def _edge_set(matrix: np.ndarray, include_diagonal: bool) -> np.ndarray:
    iu = np.triu_indices(matrix.shape[0], k=0 if include_diagonal else 1)
    return np.asarray(matrix)[iu] > 0


def dice_coefficient(a: np.ndarray, b: np.ndarray, include_diagonal: bool = True) -> float:
    """Dice overlap 2|A&B| / (|A|+|B|) of two binarized connectivity matrices.

    Edge sets are the upper triangles, with self-connections included by
    default. Two empty edge sets count as perfectly reproducible (1.0).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrices must be square with equal shape, got {a.shape} and {b.shape}")
    ea = _edge_set(a, include_diagonal)
    eb = _edge_set(b, include_diagonal)
    denom = int(ea.sum()) + int(eb.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int((ea & eb).sum()) / denom


@dataclass
class PairwiseDice:
    pairs: list[tuple[int, int]]
    values: list[float]
    mean: float
    median: float


def pairwise_dice(matrices, include_diagonal: bool = True) -> PairwiseDice:
    """Dice for every unordered pair of subjects, plus mean and median."""
    mats = list(matrices)
    if len(mats) < 2:
        raise ValueError("need at least two matrices")
    pairs = list(combinations(range(len(mats)), 2))
    values = [dice_coefficient(mats[i], mats[j], include_diagonal) for i, j in pairs]
    return PairwiseDice(pairs=pairs, values=values,
                        mean=float(np.mean(values)), median=float(np.median(values)))


def format_dice_report(result: PairwiseDice) -> str:
    lines = [f"pairs {len(result.values)}",
             f"mean {result.mean:.4f}",
             f"median {result.median:.4f}"]
    for (i, j), v in zip(result.pairs, result.values):
        lines.append(f"pair {i} {j} {v:.4f}")
    return "\n".join(lines) + "\n"


# -- file formats ---------------------------------------------------------


def save_matrix(path, matrix: np.ndarray) -> None:
    """Text matrix: first line P, then P rows of space-separated integers."""
    m = np.asarray(matrix, dtype=np.int64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square and 2-D, got shape {m.shape}")
    with open(path, "wb") as f:
        f.write(f"{len(m)}\n".encode())
        _write_rows(f, m)


def load_matrix(path) -> np.ndarray:
    """Read a `save_matrix` file; lines after the P rows must be blank."""
    path = Path(path)
    text = _Lines(path)
    if not len(text):
        raise FormatError(path, 1, "empty matrix file")
    try:
        p = int(text.line(0))
    except ValueError:
        raise FormatError(path, 1, "first line must be the matrix size P") from None
    if p < 0:
        raise FormatError(path, 1, f"matrix size must be non-negative, got {p}")
    if len(text) < p + 1:
        raise FormatError(path, len(text) + 1, f"expected {p} matrix rows, got {len(text) - 1}")
    matrix = _read_rows(text, 1, p + 1, p, int, f"{p} integer entries")
    row = text.first_text(p + 1)
    if row is not None:
        raise FormatError(path, text.number(row),
                          f"unexpected trailing content: {text.line(row)!r}")
    return matrix


def write_fibers(path, fibers) -> None:
    """One fiber per line: 'v:i v:j' for vertex endpoints, 'p:x,y,z' for
    points with repr digits, so `load_fibers` reads back the same bits.

    `fibers` is a `Fibers` or a sequence of (a, b) endpoint pairs, checked as
    `build_connectivity_matrix` checks them but with any int64 vertex index.
    Lines are formatted from the arrays, _WRITE_FIBERS fibers at a time.
    """
    if not isinstance(fibers, Fibers):
        fibers = _fibers_from_pairs(fibers)
    point_row = np.cumsum(fibers.is_point) - fibers.is_point  # row in `points` of each endpoint
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for start in range(0, len(fibers.is_point), 2 * _WRITE_FIBERS):
            stop = start + 2 * _WRITE_FIBERS
            is_point = fibers.is_point[start:stop]
            ends = np.array(["v:%d" % v for v in fibers.vertex[start:stop].tolist()], dtype=object)
            xyz = fibers.points[point_row[start:stop][is_point]].tolist()
            ends[is_point] = ["p:%r,%r,%r" % tuple(p) for p in xyz]
            f.write("".join(a + " " + b + "\n" for a, b in zip(ends[0::2], ends[1::2])))


def _parse_endpoint(path, no: int, token: str):
    if token.startswith("v:"):
        try:
            vertex = int(token[2:])
        except ValueError:
            raise FormatError(path, no, f"bad vertex endpoint {token!r}") from None
        if not _INT64_LIMITS[0] <= vertex <= _INT64_LIMITS[1]:
            raise FormatError(path, no, f"fiber endpoint vertex {vertex} out of range")
        return vertex
    if token.startswith("p:"):
        parts = token[2:].split(",")
        try:
            coords = [float(x) for x in parts]
            if len(coords) != 3 or not all(map(math.isfinite, coords)):
                raise ValueError
        except ValueError:
            raise FormatError(path, no, f"bad point endpoint {token!r}") from None
        return np.array(coords)
    raise FormatError(path, no, f"endpoint must start with 'v:' or 'p:', got {token!r}")


def _fiber_rows(text: bytes, line_ends: np.ndarray) -> tuple | None:
    """(is_point, vertex, points) of lines of plain 'v:i' / 'p:x,y,z' tokens
    that end at `line_ends`, parsed in one bulk pass for the vertex ids and
    one for the coordinates; None when the caller must parse them line by line
    (see the bulk pass in mesh_io)."""
    if text.translate(None, _FLOAT_CHARS + _SPACES + b"\nvp:,"):
        return None
    u = np.frombuffer(text, dtype=np.uint8)
    starts, stops = _tokens(u)
    if not _width_per_line(starts, stops, line_ends, 2):
        return None
    kind = u[starts]
    is_point = kind == ord("p")
    if not np.all(is_point | (kind == ord("v"))) or not np.all(u[starts + 1] == ord(":")):
        return None
    numbers = u.copy()
    numbers[starts] = numbers[starts + 1] = ord(" ")
    if numbers.tobytes().translate(None, _FLOAT_CHARS + _SPACES + b"\n,"):
        return None  # a 'v', 'p' or ':' that does not open an endpoint
    starts += 2
    # Each point endpoint holds two commas between three non-empty fields,
    # and no comma lies elsewhere: pairs of commas in order fall in the point
    # endpoints in order.
    commas = np.flatnonzero(numbers == ord(","))
    p_starts, p_stops = starts[is_point], stops[is_point]
    if len(commas) != 2 * len(p_starts):
        return None
    first, second = commas[0::2], commas[1::2]
    if not np.all((p_starts < first) & (first + 1 < second) & (second + 1 < p_stops)):
        return None
    if np.any(stops[~is_point] == starts[~is_point]):  # 'v:' alone
        return None
    numbers[commas] = ord(" ")
    # Blank the other kind's characters, so each pass reads one kind of number.
    v_starts, v_stops = starts[~is_point], stops[~is_point]
    ids, coords = np.empty(0, dtype=np.int64), np.empty(0)
    if len(v_starts):
        text = numbers.copy() if len(p_starts) else numbers
        text[_spread(p_starts, p_stops)] = ord(" ")
        ids = _ints(text.tobytes(), len(v_starts))
    if len(p_starts):
        numbers[_spread(v_starts, v_stops)] = ord(" ")
        coords = _floats(numbers.tobytes(), np.column_stack([p_starts, first + 1, second + 1]).ravel(),
                         np.column_stack([first, second, p_stops]).ravel())
    if ids is None or coords is None:
        return None
    vertex = np.zeros(len(starts), dtype=np.int64)
    vertex[~is_point] = ids
    return is_point, vertex, coords.reshape(-1, 3)


def _fiber_lines(text: _Lines, a: int, b: int) -> tuple:
    """(is_point, vertex, points) of lines [a, b) of `text`, parsed one by one;
    raises FormatError at the first bad line."""
    ends = []
    for row in range(a, b):
        no, tokens = text.number(row), text.line(row).split()
        if len(tokens) != 2:
            raise FormatError(text.path, no, f"expected two endpoints per line, got {len(tokens)}")
        ends += [_parse_endpoint(text.path, no, token) for token in tokens]
    is_point = [isinstance(e, np.ndarray) for e in ends]
    vertex = [0 if p else e for p, e in zip(is_point, ends)]
    points = [e for p, e in zip(is_point, ends) if p]
    return (np.array(is_point, dtype=bool), np.array(vertex, dtype=np.int64),
            np.array(points, dtype=np.float64).reshape(-1, 3))


def load_fibers(path) -> Fibers:
    """Read a `write_fibers` file (blank lines and # comments are skipped).

    The file is read as bytes, a block of lines of about 256 KB at a time. A
    plain block is parsed in bulk: one np.fromstring for its vertex ids and
    the exact float parse of mesh_io for its coordinates, which gives the bits
    of Python's float(). Any other block is parsed line by line, which
    reports the first bad line as file:line.
    """
    path = Path(path)
    text = _Lines(path, skip=b"\n#")
    parts = [_fiber_rows(block, line_ends) or _fiber_lines(text, a, b)
             for a, b, block, line_ends in text.blocks(0, len(text))]
    fibers = (Fibers(*(np.concatenate(arrays) for arrays in zip(*parts))) if parts
              else Fibers([], [], []))
    fibers.path, fibers.line_numbers = path, text.numbers()
    return fibers
