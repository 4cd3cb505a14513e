"""Parcel-pair connectivity counts, binarization, and Dice reproducibility.

Fibers are endpoint pairs; each endpoint is a vertex index or a 3D point that
gets snapped to its nearest vertex. A fiber increments the symmetric count
cell of its endpoint parcels; binarized matrices are compared across subjects
with the Dice coefficient over their edge sets.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import chain, combinations
from pathlib import Path

import numpy as np

from .mesh_io import FormatError, TriangleMesh, _format_rows, _write_text

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


def _squared_norms(d: np.ndarray) -> np.ndarray:
    """Row-wise squared length of an (n, 3) difference array: the one distance formula."""
    return np.einsum("ij,ij->i", d, d)


def _cell_size(mesh: TriangleMesh) -> float:
    """About the mean vertex spacing: the mean edge length of up to ~4k triangles.

    The cell size sets only the speed of snapping, never its result, so a
    strided sample of the triangles is enough and keeps the temporaries small.
    """
    v, t = mesh.vertices, mesh.triangles
    t = t[::max(1, len(t) // _SAMPLED_TRIANGLES)]
    h = 0.0
    if len(t):
        edges = (v[t] - v[np.roll(t, 1, axis=1)]).reshape(-1, 3)
        h = float(np.sqrt(_squared_norms(edges)).mean())
    h = max(h, float(np.ptp(v, axis=0).max()) / _MAX_CELLS_PER_AXIS)
    return h if h > 0 else 1.0


class _VertexGrid:
    """Mesh vertices bucketed into cubic cells of side `h`, sorted by cell key."""

    def __init__(self, vertices: np.ndarray, h: float):
        self.vertices = vertices
        self.h = h
        self.lo = vertices.min(axis=0)
        cells = vertices - self.lo
        cells /= h
        cells = np.floor(cells, out=cells).astype(np.int64)
        self.dims = cells.max(axis=0) + 1
        key = self._key(cells[:, 0], cells[:, 1], cells[:, 2])
        self.order = np.argsort(key, kind="stable")
        self.keys = key[self.order]

    def _key(self, x, y, z):
        return (x * self.dims[1] + y) * self.dims[2] + z

    def ranges(self, points: np.ndarray):
        """(b, 9) start offsets into `order` and counts: the 3x3x3 cells around each point.

        The three cells of a z column have consecutive keys, so each of the 9
        (x, y) columns is one contiguous range.
        """
        c = np.floor((points - self.lo) / self.h)
        # A cell coordinate below -1 or above dims has only empty neighbours on that
        # axis, so clipping to [-2, dims + 1] changes no range and keeps far points'
        # coordinates small.
        c = np.clip(c, -2, self.dims + 1).astype(np.int64)
        offsets = np.array([(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)])
        x = c[:, 0:1] + offsets[:, 0]
        y = c[:, 1:2] + offsets[:, 1]
        z0 = np.maximum(c[:, 2:3] - 1, 0)
        z1 = np.minimum(c[:, 2:3] + 1, self.dims[2] - 1)
        inside = (x >= 0) & (x < self.dims[0]) & (y >= 0) & (y < self.dims[1]) & (z0 <= z1)
        start = np.searchsorted(self.keys, self._key(x, y, z0), side="left")
        stop = np.searchsorted(self.keys, self._key(x, y, z1), side="right")
        return start, np.where(inside, stop - start, 0)

    def nearest(self, points: np.ndarray, start: np.ndarray, count: np.ndarray):
        """Nearest candidate of each point (-1 where none is provably nearest overall)."""
        result = np.full(len(points), -1, dtype=np.int64)
        per_point = count.sum(axis=1)
        hit = per_point > 0
        if not hit.any():
            return result
        count = count.ravel()
        first = np.cumsum(count) - count
        vertex = self.order[np.repeat(start.ravel() - first, count) + np.arange(int(count.sum()))]
        diff = self.vertices[vertex]
        diff -= points[np.repeat(np.arange(len(points)), per_point)]
        d2 = _squared_norms(diff)
        seg = (np.cumsum(per_point) - per_point)[hit]
        best = np.minimum.reduceat(d2, seg)
        rank = np.repeat(np.arange(len(seg)), per_point[hit])
        # Smallest vertex index among the candidates at the best distance.
        win = np.minimum.reduceat(np.where(d2 == best[rank], vertex, len(self.vertices)), seg)
        exact = best <= self.h * self.h * (1 - _EXACT_MARGIN)
        result[np.flatnonzero(hit)[exact]] = win[exact]
        return result

    def snap(self, points: np.ndarray) -> np.ndarray:
        """`nearest` over all points, in blocks of endpoints and of distances."""
        out = np.empty(len(points), dtype=np.int64)
        for s in range(0, len(points), _ENDPOINT_BLOCK):
            block = points[s:s + _ENDPOINT_BLOCK]
            start, count = self.ranges(block)
            per_point = count.sum(axis=1)
            piece = (np.cumsum(per_point) - per_point) // _DISTANCE_BLOCK
            cuts = [0, *(np.flatnonzero(np.diff(piece)) + 1), len(block)]
            for a, b in zip(cuts, cuts[1:]):
                out[s + a:s + b] = self.nearest(block[a:b], start[a:b], count[a:b])
        return out


def map_endpoint_to_vertex(point, mesh: TriangleMesh):
    """Nearest mesh vertex by Euclidean distance; ties go to the smallest index.

    `point` is one 3D point (returns an int) or an (M, 3) array of points
    (returns an (M,) int64 array). Points are bucketed into a uniform grid over
    the vertices whose cell is the mean triangle edge length, and each point
    looks at the 27 cells around its own. That answer is exact when its
    squared distance is below cell² (less a rounding margin): every vertex
    outside those cells is at least one cell away. Points that fail the check
    are searched again on a grid with twice the cell, and so on until the grid
    spans at most 3 cells per axis; what is left (points farther from the mesh
    than about a third of its extent) gets a brute-force `argmin` over all
    vertices, in blocks. All paths compute squared distances with the same
    expression and resolve ties to the smallest index, so the result is the
    full scan's, bit for bit. Cost: O(N log N) per grid level built, then
    about the vertices of 27 cells per point; a point at distance d from the
    mesh needs about log2(d / cell) levels, and one that falls through costs
    O(N).
    """
    points = np.asarray(point, dtype=np.float64)
    single = points.ndim != 2
    if single:
        points = points.reshape(1, 3)
    if points.shape[1] != 3:
        raise ValueError(f"fiber endpoints must be 3D points, got shape {points.shape}")
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        raise ValueError(f"fiber endpoint {points[np.argmin(finite)].tolist()} is not a finite point")

    nearest = np.full(len(points), -1, dtype=np.int64)
    pending = np.arange(len(points))
    h = _cell_size(mesh)
    while len(pending):
        grid = _VertexGrid(mesh.vertices, h)
        nearest[pending] = grid.snap(points[pending])
        pending = pending[nearest[pending] < 0]
        if grid.dims.max() <= 3:  # 27 cells hold every vertex: a coarser grid finds no more
            break
        h *= 2

    rows = max(1, _DISTANCE_BLOCK // mesh.vertex_count)
    for s in range(0, len(pending), rows):
        idx = pending[s:s + rows]
        d2 = _squared_norms((mesh.vertices - points[idx, None]).reshape(-1, 3))
        nearest[idx] = np.argmin(d2.reshape(len(idx), -1), axis=1)
    return int(nearest[0]) if single else nearest


def _endpoint_vertices(fibers, mesh: TriangleMesh) -> np.ndarray:
    """(2F,) int64 vertex of every endpoint, in fiber order: a, b of fiber 0, then fiber 1, ..."""
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
        outside = (ids < 0) | (ids >= mesh.vertex_count)
        if outside.any():
            raise ValueError(f"fiber endpoint vertex {ends[mask][outside][0]} out of range")
        vertex[mask] = ids.astype(np.int64)
    if is_point.any():
        points = np.array(ends[is_point].tolist(), dtype=np.float64).reshape(int(is_point.sum()), -1)
        vertex[is_point] = map_endpoint_to_vertex(points, mesh)
    return vertex


def build_connectivity_matrix(fibers, parcellation, mesh: TriangleMesh) -> np.ndarray:
    """P x P symmetric fiber-count matrix.

    Each fiber adds one count to cell (p, q) and its mirror, where p and q are
    the sub-parcels of its endpoints; self-connections land on the diagonal
    once. The upper triangle (diagonal included) therefore sums to the fiber
    count.

    An endpoint is a vertex index (an integer; integral floats are accepted,
    bools and fractions are not) or a 3D point. Vertex endpoints are checked
    all at once, all point endpoints are snapped in one
    `map_endpoint_to_vertex` call, and the cells are counted with one
    `np.bincount` and then mirrored. Negative sub-parcel ids are rejected.
    """
    sub = np.asarray(getattr(parcellation, "sub_parcel", parcellation), dtype=np.int64)
    if len(sub) != mesh.vertex_count:
        raise ValueError(f"parcellation length {len(sub)} != vertex count {mesh.vertex_count}")
    if sub.min() < 0:
        v = int(np.argmin(sub))
        raise ValueError(f"parcellation has negative sub-parcel id {sub[v]} at vertex {v}")
    n_parcels = int(sub.max()) + 1
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
    row_format = " ".join(["%d"] * m.shape[1]) + "\n"
    _write_text(path, [f"{m.shape[0]}\n"], _format_rows(row_format, m))


def load_matrix(path) -> np.ndarray:
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise FormatError(path, 1, "empty matrix file")
    try:
        p = int(lines[0].strip())
    except ValueError:
        raise FormatError(path, 1, "first line must be the matrix size P") from None
    if len(lines) < p + 1:
        raise FormatError(path, len(lines) + 1, f"expected {p} matrix rows, got {len(lines) - 1}")
    m = np.zeros((p, p), dtype=np.int64)
    for r in range(p):
        parts = lines[r + 1].split()
        if len(parts) != p:
            raise FormatError(path, r + 2, f"expected {p} entries, got {len(parts)}")
        try:
            m[r] = [int(x) for x in parts]
        except ValueError:
            raise FormatError(path, r + 2, "matrix entries must be integers") from None
    return m


def write_fibers(path, fibers) -> None:
    """One fiber per line: 'v:i v:j' for vertex endpoints, 'p:x,y,z' for points."""

    def fmt(endpoint) -> str:
        if np.isscalar(endpoint) or isinstance(endpoint, (int, np.integer)):
            return f"v:{int(endpoint)}"
        x, y, z = (float(c) for c in np.asarray(endpoint, dtype=np.float64).reshape(3))
        return f"p:{x!r},{y!r},{z!r}"

    lines = (f"{fmt(a)} {fmt(b)}\n" for a, b in fibers)
    Path(path).write_text("".join(lines), encoding="utf-8", newline="\n")


def load_fibers(path) -> list:
    path = Path(path)

    def parse(no: int, token: str):
        if token.startswith("v:"):
            try:
                return int(token[2:])
            except ValueError:
                raise FormatError(path, no, f"bad vertex endpoint {token!r}") from None
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

    fibers = []
    for no, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise FormatError(path, no, f"expected two endpoints per line, got {len(tokens)}")
        fibers.append((parse(no, tokens[0]), parse(no, tokens[1])))
    return fibers
