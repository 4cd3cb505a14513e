"""Shared test fixtures: tiny hand-built graphs and randomized bumpy surfaces."""
import numpy as np

from geosp import kmeans
from geosp import (Block, KmeansConfig, SurfaceGraph, TriangleMesh, build_graph, comp_centroids,
                   concat_meshes, grid_mesh, icosphere_mesh, kmeanspp_init, parallel_kmeans,
                   wave_sheet_mesh)


def path_graph(n: int, spacing: float = 1.0) -> SurfaceGraph:
    """Vertices on a line, consecutive edges of equal length."""
    positions = np.zeros((n, 3))
    positions[:, 0] = spacing * np.arange(n)
    u = np.arange(n - 1)
    return SurfaceGraph(positions, u, u + 1, np.full(n - 1, spacing))


def neighbors(graph: SurfaceGraph, u: int) -> tuple[np.ndarray, np.ndarray]:
    """Neighbour ids and edge weights of vertex u: its CSR slots."""
    lo, hi = graph.indptr[u], graph.indptr[u + 1]
    return graph.neighbor_indices[lo:hi], graph.neighbor_weights[lo:hi]


def right_triangle_mesh() -> TriangleMesh:
    return TriangleMesh(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]),
                        np.array([[0, 1, 2]]))


def bumpy_grid_mesh(seed: int, min_side: int = 5, max_side: int = 12) -> TriangleMesh:
    """Grid with random vertical noise: irregular edge weights, no distance ties."""
    rng = np.random.default_rng(seed)
    nx = int(rng.integers(min_side, max_side + 1))
    ny = int(rng.integers(min_side, max_side + 1))
    xs, ys = np.meshgrid(np.arange(nx, dtype=float), np.arange(ny, dtype=float),
                         indexing="xy")
    z = rng.normal(scale=0.4, size=nx * ny)
    vertices = np.column_stack([xs.ravel(), ys.ravel(), z])
    tris = []
    for j in range(ny - 1):
        for i in range(nx - 1):
            a = j * nx + i
            tris.append((a, a + 1, a + nx + 1))
            tris.append((a, a + nx + 1, a + nx))
    return TriangleMesh(vertices, np.asarray(tris))


def bumpy_grid_graph(seed: int, **kw) -> SurfaceGraph:
    return build_graph(bumpy_grid_mesh(seed, **kw))


def brute_force_triangle_edges(mesh: TriangleMesh) -> dict:
    """Reference edge extraction: every triangle side once, weight by endpoint distance."""
    edges = {}
    for i, j, k in mesh.triangles:
        for a, b in ((i, j), (j, k), (k, i)):
            key = (min(a, b), max(a, b))
            edges[key] = float(np.linalg.norm(mesh.vertices[a] - mesh.vertices[b]))
    return edges


MESH_KINDS = ["jittered grid", "unjittered grid", "icosphere", "wave sheet",
              "two components", "isolated vertices", "random-diagonal grid"]


def random_diagonal_grid(nx: int, ny: int, rng: np.random.Generator) -> TriangleMesh:
    """A flat nx x ny grid whose quads each take a random diagonal, with the
    vertices moved by up to 0.4 spacings in x and y: vertex degrees vary
    (2-8 at 60 x 60) and so do edge lengths (coefficient of variation about
    0.3), so sweeps correct distances more often than on the regular kinds."""
    xs, ys = np.meshgrid(np.arange(nx, dtype=float), np.arange(ny, dtype=float))
    vertices = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(nx * ny)])
    vertices[:, :2] += rng.uniform(-0.4, 0.4, size=(nx * ny, 2))
    a = (np.arange(ny - 1)[:, None] * nx + np.arange(nx - 1)).ravel()
    b, c, d = a + 1, a + nx + 1, a + nx  # the quad a b c d, counterclockwise
    flip = (rng.random(len(a)) < 0.5)[:, None]  # diagonal b-d instead of a-c
    first = np.where(flip, np.column_stack([a, b, d]), np.column_stack([a, b, c]))
    second = np.where(flip, np.column_stack([b, c, d]), np.column_stack([a, c, d]))
    return TriangleMesh(vertices, np.vstack([first, second]))


def irregular_mesh(kind: str, rng: np.random.Generator) -> TriangleMesh:
    """One random mesh of a MESH_KINDS kind.

    "two components" is two jittered grids side by side; "isolated vertices"
    is a jittered grid plus a few vertices on no triangle; "random-diagonal
    grid" is random_diagonal_grid.
    """
    nx, ny = (int(x) for x in rng.integers(3, 12, size=2))
    if kind == "unjittered grid":
        return grid_mesh(nx, ny)
    if kind == "random-diagonal grid":
        return random_diagonal_grid(nx, ny, rng)
    if kind == "icosphere":
        return icosphere_mesh(int(rng.integers(0, 3)), radius=float(rng.uniform(1, 20)))
    if kind == "wave sheet":
        return wave_sheet_mesh(nx, ny, amplitude=float(rng.uniform(0.5, 5)))
    mesh = bumpy_grid_mesh(int(rng.integers(1 << 30)), min_side=3, max_side=11)
    if kind == "two components":
        other = bumpy_grid_mesh(int(rng.integers(1 << 30)), min_side=2, max_side=6)
        shifted = TriangleMesh(other.vertices + [30.0, 0, 0], other.triangles)
        return concat_meshes(mesh, shifted)[0]
    if kind == "isolated vertices":
        extra = rng.normal(scale=20, size=(int(rng.integers(1, 4)), 3))
        return TriangleMesh(np.vstack([mesh.vertices, extra]), mesh.triangles)
    return mesh


def kmeans_alone(graph: SurfaceGraph, config: KmeansConfig):
    """parallel_kmeans on the whole graph as one block; its KmeansResult."""
    return parallel_kmeans(graph, [Block(np.arange(graph.vertex_count), config)]).blocks[0]


def seeds_alone(graph: SurfaceGraph, k: int, rng_seed: int = 0) -> list[int]:
    """kmeanspp_init on the whole graph as one block."""
    block = Block(np.arange(graph.vertex_count), KmeansConfig(k=k, rng_seed=rng_seed))
    return kmeanspp_init(graph, [block])[0]


def cluster_medoid(graph: SurfaceGraph, ids, previous_centroid: int, dist=None) -> int:
    """comp_centroids for the one cluster `ids`; every other vertex is in none."""
    assignment = np.full(graph.vertex_count, -1, dtype=np.int64)
    assignment[ids] = 0
    return comp_centroids(graph, assignment, [int(previous_centroid)], dist)[0]


def calc_groups(graph: SurfaceGraph, centroids: list[int]) -> tuple[np.ndarray, int]:
    """Assign each vertex to the geodesically closest centroid, with the
    whole graph as one block of kmeans._assign_blocks.

    Ties go to the centroid earliest in the list. Vertices unreachable from
    every centroid are assigned by smallest Euclidean distance instead; the
    second return value counts them.
    """
    assignment, fallbacks, _ = kmeans._assign_blocks(
        graph, np.asarray(centroids, dtype=np.int64), [np.arange(graph.vertex_count)],
        [len(centroids)])
    return assignment, fallbacks[0]


def _lower_bounds(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """For each candidate x in `cols`: sum over members j of max over
    evaluated rows s of |d(s,j) - d(s,x)|, which is at most d(x,j) by the
    triangle inequality, so at most x's distance sum.

    The one-cluster reference for kmeans._padded_bounds. The gaps and their
    maxima are taken in the dtype of `rows` (float32 in the medoid search,
    see kmeans._ROW_PAD), each column's sum in float64. Built in blocks of
    columns, so it holds at most about 2 * kmeans._BOUND_BLOCK elements at
    once, whatever the cluster size; each bound has the same bits in any
    block.
    """
    r, c = rows.shape
    step = max(1, kmeans._BOUND_BLOCK // (r * c))
    lower = np.empty(len(cols))
    for a in range(0, len(cols), step):
        gap = rows[:, cols[a:a + step], None] - rows[:, None, :]
        np.abs(gap, out=gap)
        lower[a:a + step] = gap.max(axis=0).sum(axis=1, dtype=np.float64)
        del gap  # before the next block is built
    return lower


class EagerMedoidSearch:
    """Per-cluster reference for kmeans._FlatMedoidSearch: the same search
    of one cluster from the fourth row on, but every round rebuilds the
    bound of every open candidate from every evaluated row with the same
    float32 kernel (_lower_bounds) and takes the first smallest. It
    keeps no bound between rounds and ignores the stale bounds it is given.
    EagerMedoidSearches runs one per cluster."""

    def __init__(self, sel, rows, candidates, lower, best_sum, best, pad):
        self.sel, self.rows, self.open = sel, [r.astype(np.float32) for r in rows[:3]], candidates
        self.best_sum, self.best, self.pad = best_sum, best, pad

    def prune(self) -> bool:
        lower = _lower_bounds(np.array(self.rows), self.open)
        keep = lower <= self.best_sum + self.pad
        self.open = self.open[keep]
        if not len(self.open):
            return False
        self.p = int(self.open[np.argmin(lower[keep])])
        return True

    @property
    def vertex(self) -> int:
        return int(self.sel[self.p])

    def take(self, row: np.ndarray) -> bool:
        total = row.sum()
        if total < self.best_sum or (total == self.best_sum and self.p < self.best):
            self.best_sum, self.best = total, self.p
        self.rows.append(row.astype(np.float32))
        self.open = self.open[self.open != self.p]
        return self.prune()

    @property
    def medoid(self) -> int:
        return int(self.sel[self.best])


class EagerMedoidSearches:
    """Stands in for kmeans._FlatMedoidSearch (same constructor and
    methods): one EagerMedoidSearch per cluster, each from its cluster's
    share of the same start state, cluster after cluster."""

    def __init__(self, keys, ids, sizes, rows, candidates, lower, best_sum, best, pad):
        self.keys, self.searches = keys, []
        for i, (start, size) in enumerate(zip(np.cumsum(sizes) - sizes, sizes)):
            mine = (candidates >= start) & (candidates < start + size)
            self.searches.append(EagerMedoidSearch(
                ids[start:start + size], [row[start:start + size] for row in rows],
                candidates[mine] - start, lower[mine], best_sum[i], int(best[i]), pad[i]))

    def prune(self) -> bool:
        self.open = [search for search in self.searches if search.prune()]
        return bool(self.open)

    @property
    def sources(self) -> np.ndarray:
        return np.array([search.vertex for search in self.open])

    def take(self, field: np.ndarray) -> bool:
        self.open = [search for search in self.open if search.take(field[search.sel])]
        return bool(self.open)

    def medoids(self):
        return self.keys, np.array([search.medoid for search in self.searches])
