"""Deterministic synthetic meshes, labels, and fiber sets for tests and demos.

Every generator is a pure function of its parameters (and rng_seed where one
applies): rerunning a spec yields bitwise-identical outputs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh_io import TriangleMesh
from .surface_graph import SurfaceGraph

REGION_COLS = 5
REGION_ROWS = 7
REGIONS_PER_HEMISPHERE = REGION_COLS * REGION_ROWS  # 35


@dataclass
class MeshSpec:
    """Parameters for make_mesh; which fields matter depends on `kind`."""

    kind: str  # grid | icosphere | wave_sheet | dumbbell | two_hemispheres | atlas
    nx: int = 10
    ny: int = 10
    spacing: float = 1.0
    level: int = 0
    radius: float = 10.0
    amplitude: float = 5.0
    wavelength: float = 10.0
    bridge_length: float = 10.0
    gap: float = 30.0
    rng_seed: int = 0


def grid_mesh(nx: int, ny: int, spacing: float = 1.0,
              origin=(0.0, 0.0, 0.0)) -> TriangleMesh:
    """Regular nx x ny planar grid, each cell split into two triangles."""
    if nx < 2 or ny < 2 or spacing <= 0:
        raise ValueError("grid needs nx >= 2, ny >= 2, spacing > 0")
    ox, oy, oz = origin
    xs = ox + spacing * np.arange(nx)
    ys = oy + spacing * np.arange(ny)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([gx.ravel(), gy.ravel(), np.full(nx * ny, oz)])

    tris = []
    for j in range(ny - 1):
        for i in range(nx - 1):
            a = j * nx + i
            b = a + 1
            c = a + nx
            d = c + 1
            tris.append((a, b, d))
            tris.append((a, d, c))
    return TriangleMesh(vertices, np.asarray(tris, dtype=np.int64))


def wave_sheet_mesh(nx: int, ny: int, spacing: float = 0.5,
                    amplitude: float = 5.0, wavelength: float = 10.0) -> TriangleMesh:
    """Grid folded along x with z = A*sin(2*pi*x/wavelength).

    The folding makes along-surface paths strictly longer than straight lines,
    which is what the geodesic-vs-Euclidean tests exercise.
    """
    if amplitude <= 0 or wavelength <= 0:
        raise ValueError("amplitude and wavelength must be positive")
    mesh = grid_mesh(nx, ny, spacing)
    v = mesh.vertices.copy()
    v[:, 2] = amplitude * np.sin(2.0 * np.pi * v[:, 0] / wavelength)
    return TriangleMesh(v, mesh.triangles)


def icosphere_mesh(level: int = 0, radius: float = 10.0,
                   center=(0.0, 0.0, 0.0)) -> TriangleMesh:
    """Icosahedron subdivided `level` times, projected onto a sphere."""
    if level < 0 or radius <= 0:
        raise ValueError("need level >= 0 and radius > 0")
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ], dtype=np.float64)
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)

    for _ in range(level):
        vert_list = [tuple(p) for p in verts]
        midpoint: dict[tuple[int, int], int] = {}

        def _mid(a: int, b: int) -> int:
            key = (a, b) if a < b else (b, a)
            if key not in midpoint:
                p = (verts[a] + verts[b]) / 2.0
                p /= np.linalg.norm(p)
                midpoint[key] = len(vert_list)
                vert_list.append(tuple(p))
            return midpoint[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = _mid(a, b), _mid(b, c), _mid(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        verts = np.asarray(vert_list, dtype=np.float64)
        faces = new_faces

    verts = verts * radius + np.asarray(center, dtype=np.float64)
    return TriangleMesh(verts, np.asarray(faces, dtype=np.int64))


def dumbbell_mesh(patch_nx: int = 4, patch_ny: int = 4, spacing: float = 1.0,
                  bridge_length: float = 10.0) -> TriangleMesh:
    """Two dense grid patches joined by a single thin connector triangle.

    Patch A occupies vertex ids [0, patch_nx*patch_ny); patch B the rest. A
    bare edge cannot exist in a triangle mesh, so the bridge is one sliver
    triangle (two A corners, one B corner) whose long edges span the gap.
    """
    a = grid_mesh(patch_nx, patch_ny, spacing)
    offset = (patch_nx - 1) * spacing + bridge_length
    b = grid_mesh(patch_nx, patch_ny, spacing, origin=(offset, 0.0, 0.0))
    na = a.vertex_count
    vertices = np.vstack([a.vertices, b.vertices])
    bridge = (patch_nx - 1, 2 * patch_nx - 1, na)  # A's right edge corners -> B's corner
    triangles = np.vstack([a.triangles, b.triangles + na,
                           np.asarray([bridge], dtype=np.int64)])
    return TriangleMesh(vertices, triangles)


def two_hemispheres_mesh(level: int = 1, radius: float = 10.0,
                         gap: float = 30.0) -> tuple[TriangleMesh, np.ndarray]:
    """Two disjoint icospheres plus 0/1 per-vertex hemisphere labels."""
    half = (2 * radius + gap) / 2.0
    left = icosphere_mesh(level, radius, center=(-half, 0.0, 0.0))
    right = icosphere_mesh(level, radius, center=(half, 0.0, 0.0))
    vertices = np.vstack([left.vertices, right.vertices])
    triangles = np.vstack([left.triangles, right.triangles + left.vertex_count])
    labels = np.concatenate([np.zeros(left.vertex_count, dtype=np.int64),
                             np.ones(right.vertex_count, dtype=np.int64)])
    return TriangleMesh(vertices, triangles), labels


def atlas_mesh(nx: int = 20, ny: int = 21, spacing: float = 1.0,
               gap: float = 30.0) -> tuple[TriangleMesh, np.ndarray, np.ndarray]:
    """Synthetic two-hemisphere cortex with 35 rectangular regions per hemisphere.

    Returns (mesh, region_labels, hemisphere_labels). Each hemisphere is an
    nx x ny grid cut into a 5 x 7 block pattern; region ids are 0..34 on
    hemisphere 0 and 35..69 on hemisphere 1, every block non-empty for
    nx >= 5, ny >= 7.
    """
    if nx < REGION_COLS or ny < REGION_ROWS:
        raise ValueError(f"atlas grid needs nx >= {REGION_COLS} and ny >= {REGION_ROWS}")
    offset = (nx - 1) * spacing + gap
    left = grid_mesh(nx, ny, spacing)
    right = grid_mesh(nx, ny, spacing, origin=(offset, 0.0, 0.0))
    vertices = np.vstack([left.vertices, right.vertices])
    triangles = np.vstack([left.triangles, right.triangles + left.vertex_count])

    i = np.tile(np.arange(nx), ny)
    j = np.repeat(np.arange(ny), nx)
    col = np.minimum(i * REGION_COLS // nx, REGION_COLS - 1)
    row = np.minimum(j * REGION_ROWS // ny, REGION_ROWS - 1)
    per_hemi = col * REGION_ROWS + row
    regions = np.concatenate([per_hemi, per_hemi + REGIONS_PER_HEMISPHERE])
    hemis = np.concatenate([np.zeros(nx * ny, dtype=np.int64),
                            np.ones(nx * ny, dtype=np.int64)])
    return TriangleMesh(vertices, triangles), regions, hemis


def make_mesh(spec: MeshSpec):
    """Dispatch on spec.kind; labeled kinds return (mesh, labels...)."""
    if spec.kind == "grid":
        return grid_mesh(spec.nx, spec.ny, spec.spacing)
    if spec.kind == "icosphere":
        return icosphere_mesh(spec.level, spec.radius)
    if spec.kind == "wave_sheet":
        return wave_sheet_mesh(spec.nx, spec.ny, spec.spacing, spec.amplitude, spec.wavelength)
    if spec.kind == "dumbbell":
        return dumbbell_mesh(spec.nx, spec.ny, spec.spacing, spec.bridge_length)
    if spec.kind == "two_hemispheres":
        return two_hemispheres_mesh(spec.level, spec.radius, spec.gap)
    if spec.kind == "atlas":
        return atlas_mesh(spec.nx, spec.ny, spec.spacing, spec.gap)
    raise ValueError(f"unknown mesh kind {spec.kind!r}")


def bridge_graph(side: float = 1.0, bridge: float = 10.0) -> SurfaceGraph:
    """Two equilateral triangles (vertices 0-2 and 3-5) joined by one bridge edge 2-3.

    Built directly as a graph because a lone edge cannot be expressed as mesh
    triangles. Edge weights equal the Euclidean distances between endpoints.
    """
    h = side * np.sqrt(3.0) / 2.0
    a = np.array([(0.0, 0.0, 0.0), (side, 0.0, 0.0), (side / 2.0, h, 0.0)])
    b = a + a[2] + np.array([bridge, 0.0, 0.0])  # b[0] sits `bridge` away from a[2]
    positions = np.vstack([a, b])
    edges = np.array([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    weights = np.linalg.norm(positions[edges[:, 0]] - positions[edges[:, 1]], axis=1)
    return SurfaceGraph(positions, edges[:, 0], edges[:, 1], weights)


def perturb_weights(graph: SurfaceGraph, rng_seed: int,
                    scale: float = 1e-6) -> SurfaceGraph:
    """Copy of the graph with uniform noise in (0, scale) mm added to each weight.

    Breaks exact distance ties so that clustering tests run in a
    measure-zero-ties regime.
    """
    eu, ev, ew = graph.edges()
    rng = np.random.default_rng(rng_seed)
    noise = rng.random(len(ew)) * scale
    return SurfaceGraph(graph.positions, eu, ev, ew + noise)


def make_fibers(n_vertices: int, count: int, rng_seed: int = 0) -> list:
    """Random fiber endpoint pairs of vertex indices."""
    pairs = np.random.default_rng(rng_seed).integers(0, n_vertices, size=(count, 2))
    return [(int(p), int(q)) for p, q in pairs]
