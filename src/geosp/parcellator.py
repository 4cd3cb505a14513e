"""Atlas-mode and whole-mode orchestration producing a global Parcellation.

Atlas mode runs one k-means per labeled region, whole mode one per
hemisphere. All of them run as blocks of one lockstep k-means call
(kmeans.parallel_kmeans) over the mesh graph with the edges between labels
cut, so every shortest-path sweep serves every region at once. Parcels are
numbered from the blocks' assignments: a region's sub-parcel ids are its
block's cluster ids after those of the regions below it. `workers` is
validated and accepted but does not change how they run. Each region draws
its RNG seed from the base seed XOR a hash of its region id and keeps its
own iteration count and stop test, so results never depend on worker
count, task order, or which other regions are in the plan.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .kmeans import Block, KmeansConfig, parallel_kmeans
from .mesh_io import TriangleMesh, _first, _Lines, _read_rows
from .surface_graph import build_graph, cut_graph
from .util import derive_seed


@dataclass
class Parcellation:
    """Per-vertex global sub-parcel ids plus the (region, local cluster) provenance.

    Global ids are contiguous 0..P-1; two vertices share an id iff they share
    (region, local cluster).
    """

    sub_parcel: np.ndarray
    provenance: dict[int, tuple[int, int]]

    @property
    def parcel_count(self) -> int:
        return len(self.provenance)

    def parcel_sizes(self) -> np.ndarray:
        return np.bincount(self.sub_parcel, minlength=self.parcel_count)


@dataclass
class AtlasPlan:
    """Requested sub-parcel count per region id."""

    k_by_region: dict[int, int]

    def __post_init__(self):
        for region, k in self.k_by_region.items():
            if k < 1:
                raise ValueError(f"region {region}: k must be >= 1, got {k}")

    @classmethod
    def uniform(cls, labels, k: int) -> "AtlasPlan":
        return cls({int(r): int(k) for r in np.unique(np.asarray(labels))})

    @classmethod
    def from_file(cls, path) -> "AtlasPlan":
        """Read 'region_id k' lines; blank lines and # comments are skipped."""
        text = _Lines(path, skip=b"\n#")
        if not len(text):
            raise ValueError(f"{path}: empty plan")
        rows = _read_rows(text, 0, len(text), 2, int, "'region_id k'", _plan_rules)
        return cls(dict(rows.tolist()))


def _plan_rules(rows, line):
    """Rules of plan rows: each region is named once, with k >= 1."""
    _, first = np.unique(rows[:, 0], return_index=True)
    repeated = np.ones(len(rows), dtype=bool)
    repeated[first] = False
    small = rows[:, 1] < 1
    row = _first(repeated | small)
    if row is None:
        return None
    if small[row]:
        return row, f"region {rows[row, 0]}: k must be >= 1, got {rows[row, 1]}"
    return row, f"duplicate region {rows[row, 0]}"


@dataclass
class RegionRun:
    """Diagnostics for one region/hemisphere task. `seconds` runs from the start
    of the lockstep k-means until this region's last iteration ended."""

    region: int
    k: int
    vertex_count: int
    iterations: int
    converged_by_tolerance: bool
    euclidean_fallbacks: int
    seconds: float


@dataclass
class ParcellationResult:
    parcellation: Parcellation
    runs: list[RegionRun]
    total_seconds: float

    def summary(self) -> dict:
        """JSON-ready run summary (counts, per-region iterations and timings)."""
        p = self.parcellation
        return {
            "sub_parcel_count": p.parcel_count,
            "parcel_sizes": [int(s) for s in p.parcel_sizes()],
            "total_seconds": round(self.total_seconds, 6),
            "regions": [
                {
                    "region": r.region,
                    "k": r.k,
                    "vertices": r.vertex_count,
                    "iterations": r.iterations,
                    "converged_by_tolerance": r.converged_by_tolerance,
                    "euclidean_fallbacks": r.euclidean_fallbacks,
                    "seconds": round(r.seconds, 6),
                }
                for r in self.runs
            ],
        }


def _vertex_labels(mesh: TriangleMesh, labels, what: str, workers: int):
    """Checked int64 per-vertex labels, their distinct values and the vertex count of each."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) != mesh.vertex_count:
        raise ValueError(f"{len(labels)} {what} for {mesh.vertex_count} vertices")
    present, sizes = np.unique(labels, return_counts=True)
    return labels, present.tolist(), sizes.tolist()


def _parcellate(mesh: TriangleMesh, labels, tasks, config) -> ParcellationResult:
    """The body both modes share. Every (region, k) task is one block of a
    single lockstep k-means over the mesh graph with the edges between
    labels cut; parcels are numbered in ascending (region, local cluster)
    order."""
    graph = build_graph(mesh)
    t0 = time.perf_counter()
    config = config or KmeansConfig(k=1)
    blocks = [Block(np.flatnonzero(labels == region),
                    replace(config, k=k, rng_seed=derive_seed(config.rng_seed, region)))
              for region, k in tasks]
    result = parallel_kmeans(cut_graph(graph, labels), blocks)
    total = time.perf_counter() - t0
    sub = np.full(mesh.vertex_count, -1, dtype=np.int64)
    provenance: dict[int, tuple[int, int]] = {}
    runs, first = [], 0
    for (region, k), block, res in zip(tasks, blocks, result.blocks):
        sub[block.ids] = first + res.assignment
        provenance.update((first + local, (region, local)) for local in range(k))
        runs.append(RegionRun(region=region, k=k, vertex_count=len(block.ids),
                              iterations=res.iterations,
                              converged_by_tolerance=res.converged_by_tolerance,
                              euclidean_fallbacks=res.euclidean_fallbacks, seconds=res.seconds))
        first += k
    if (sub < 0).any():
        raise AssertionError("parcellation does not cover every vertex")
    return ParcellationResult(Parcellation(sub, provenance), runs, total)


def parcellate_atlas_mode(mesh: TriangleMesh, labels, plan: AtlasPlan,
                          config: KmeansConfig | None = None,
                          workers: int = 1) -> ParcellationResult:
    """Subdivide each labeled region into its planned number of sub-parcels.

    The plan must cover exactly the regions present in the labels, and a
    region must have at least k vertices (no silent clamping). Total
    sub-parcel count is the sum of the plan's k values.
    """
    labels, present, sizes = _vertex_labels(mesh, labels, "labels", workers)
    missing = sorted(set(present) - set(plan.k_by_region))
    if missing:
        raise ValueError(f"plan does not cover regions {missing}")
    unknown = sorted(set(plan.k_by_region) - set(present))
    if unknown:
        raise ValueError(f"plan names absent regions {unknown}")
    for region, size in zip(present, sizes):
        if plan.k_by_region[region] > size:
            raise ValueError(
                f"region {region} has {size} vertices, fewer than k={plan.k_by_region[region]}")
    tasks = [(region, plan.k_by_region[region]) for region in present]
    return _parcellate(mesh, labels, tasks, config)


def parcellate_whole_mode(mesh: TriangleMesh, hemisphere_labels, k: int,
                          config: KmeansConfig | None = None,
                          workers: int = 1) -> ParcellationResult:
    """Subdivide each hemisphere graph into k sub-parcels, ignoring any atlas.

    hemisphere_labels must carry one or two distinct labels; the hemispheres
    run in lockstep on the calling thread, whatever `workers` is.
    Total sub-parcels = k * number of hemispheres.
    """
    hemis, present, sizes = _vertex_labels(mesh, hemisphere_labels, "hemisphere labels", workers)
    if len(present) > 2:
        raise ValueError(f"expected one or two hemisphere labels, got {present}")
    for h, size in zip(present, sizes):
        if k > size:
            raise ValueError(f"hemisphere {h} has {size} vertices, fewer than k={k}")
    return _parcellate(mesh, hemis, [(h, k) for h in present], config)
