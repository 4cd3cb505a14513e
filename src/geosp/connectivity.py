"""Parcel-pair connectivity counts, binarization, and Dice reproducibility.

Fibers are endpoint pairs; each endpoint is a vertex index or a 3D point that
gets snapped to its nearest vertex. A fiber increments the symmetric count
cell of its endpoint parcels; binarized matrices are compared across subjects
with the Dice coefficient over their edge sets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .mesh_io import FormatError, TriangleMesh


def map_endpoint_to_vertex(point, mesh: TriangleMesh) -> int:
    """Nearest mesh vertex by Euclidean distance; ties go to the smallest index."""
    p = np.asarray(point, dtype=np.float64).reshape(3)
    if not np.isfinite(p).all():
        raise ValueError(f"fiber endpoint {p.tolist()} is not a finite point")
    d2 = np.einsum("ij,ij->i", mesh.vertices - p, mesh.vertices - p)
    return int(np.argmin(d2))


def _endpoint_vertex(endpoint, mesh: TriangleMesh) -> int:
    if np.isscalar(endpoint) or isinstance(endpoint, (int, np.integer)):
        v = int(endpoint)
        if not 0 <= v < mesh.vertex_count:
            raise ValueError(f"fiber endpoint vertex {v} out of range")
        return v
    return map_endpoint_to_vertex(endpoint, mesh)


def build_connectivity_matrix(fibers, parcellation, mesh: TriangleMesh) -> np.ndarray:
    """P x P symmetric fiber-count matrix.

    Each fiber adds one count to cell (p, q) and its mirror, where p and q are
    the sub-parcels of its endpoints; self-connections land on the diagonal
    once. The upper triangle (diagonal included) therefore sums to the fiber
    count.
    """
    sub = np.asarray(getattr(parcellation, "sub_parcel", parcellation), dtype=np.int64)
    if len(sub) != mesh.vertex_count:
        raise ValueError(f"parcellation length {len(sub)} != vertex count {mesh.vertex_count}")
    n_parcels = int(sub.max()) + 1 if len(sub) else 0
    counts = np.zeros((n_parcels, n_parcels), dtype=np.int64)
    for a, b in fibers:
        p = sub[_endpoint_vertex(a, mesh)]
        q = sub[_endpoint_vertex(b, mesh)]
        counts[p, q] += 1
        if p != q:
            counts[q, p] += 1
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
    out = [f"{m.shape[0]}\n"]
    for row in m:
        out.append(" ".join(str(v) for v in row) + "\n")
    Path(path).write_text("".join(out), encoding="utf-8", newline="\n")


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
