"""Synthetic inputs for the benchmark workloads, written as geosp input files.

Run as a script, this writes one workload's inputs into DIR/full and those of
its small warm-up shape into DIR/warmup, one subdirectory per subject:

    python3 geobench/inputs.py --workload atlas_pipeline --seed 3 --out DIR

Besides the files geosp reads (mesh.off, labels.txt, hemispheres.txt,
fibers.txt) it writes truth.npz: the triangles, labels and fibre endpoint
vertices the files were made from. The output checks read truth.npz, never
geosp's own view of the inputs.

Every mesh is a two-hemisphere grid atlas (the layout of
geosp.synthetic.atlas_mesh, rebuilt here so the inputs do not move when the
program changes) with a fixed vertical jitter per subject, then turned and
shifted by a rigid motion drawn from the seed. Geodesic k-means is invariant
under rigid motion, so every seed asks geosp for the same clustering work while
every input byte differs. Fibres are drawn from the seed directly: their count,
not their endpoints, sets the work.
"""
from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REGION_COLS = 5
REGION_ROWS = 7
HEMISPHERE_GAP_MM = 30.0
JITTER_MM = 0.25
POINT_JITTER_MM = 1e-3


@dataclass(frozen=True)
class Spec:
    """Input and run parameters of one workload."""

    name: str
    nx: int                 # grid columns per hemisphere
    ny: int                 # grid rows per hemisphere
    mode: str               # "atlas", "whole" or "connect"
    k: int = 0              # sub-parcels per region (atlas) or per hemisphere (whole)
    workers: int = 1
    subjects: int = 1
    vertex_fibers: int = 0  # fibres with vertex endpoints, per subject
    point_fibers: int = 0   # fibres with point endpoints, per subject
    setup_loads: int = 1    # back-to-back input reads per setup_s sample


SPECS = {
    s.name: s for s in [
        Spec("atlas_pipeline", 100, 98, "atlas", k=5, workers=2, subjects=2,
             vertex_fibers=100_000),
        Spec("whole_lowk", 40, 42, "whole", k=4, setup_loads=20),
        Spec("connect_points", 100, 98, "connect", point_fibers=2_000, setup_loads=2),
    ]
}

# Small shapes for the warm-up and the self-tests: the same code paths, a
# fraction of the work.
SMALL = {
    "atlas_pipeline": Spec("atlas_pipeline", 20, 21, "atlas", k=2, workers=2, subjects=2,
                           vertex_fibers=500),
    "whole_lowk": Spec("whole_lowk", 20, 21, "whole", k=2),
    "connect_points": Spec("connect_points", 20, 21, "connect", point_fibers=50),
}


def atlas_grid(nx: int, ny: int):
    """Two nx x ny unit grids 30 mm apart, 35 block regions per hemisphere.

    Returns (vertices, triangles, regions, hemispheres).
    """
    xs, ys = np.meshgrid(np.arange(nx, dtype=float), np.arange(ny, dtype=float), indexing="xy")
    half = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(nx * ny)])
    other = half + np.array([nx - 1 + HEMISPHERE_GAP_MM, 0.0, 0.0])
    vertices = np.vstack([half, other])

    a = (np.arange(ny - 1)[:, None] * nx + np.arange(nx - 1)[None, :]).ravel()
    cell = np.column_stack([a, a + 1, a + nx + 1, a, a + nx + 1, a + nx]).reshape(-1, 3)
    triangles = np.vstack([cell, cell + nx * ny])

    i = np.tile(np.arange(nx), ny)
    j = np.repeat(np.arange(ny), nx)
    block = (np.minimum(i * REGION_COLS // nx, REGION_COLS - 1) * REGION_ROWS
             + np.minimum(j * REGION_ROWS // ny, REGION_ROWS - 1))
    regions = np.concatenate([block, block + REGION_COLS * REGION_ROWS])
    hemispheres = np.repeat([0, 1], nx * ny)
    return vertices, triangles, regions, hemispheres


def rigid_motion(rng: np.random.Generator):
    """Random rotation (det +1) and shift of up to 100 mm per axis."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q, rng.uniform(-100.0, 100.0, size=3)


def subject_mesh(spec: Spec, seed: int, subject: int):
    """(vertices, triangles, regions, hemispheres) of one subject."""
    vertices, triangles, regions, hemispheres = atlas_grid(spec.nx, spec.ny)
    jitter = np.random.default_rng([1000 + subject, spec.nx, spec.ny])
    vertices[:, 2] = jitter.uniform(-JITTER_MM, JITTER_MM, len(vertices))
    rot, shift = rigid_motion(np.random.default_rng([seed, subject, 1]))
    return vertices @ rot.T + shift, triangles, regions, hemispheres


def _floats(a: np.ndarray) -> np.ndarray:
    # %.17g round-trips every float64, so geosp reads back the exact coordinates.
    return np.char.mod("%.17g", a)


def write_off(path: Path, vertices: np.ndarray, triangles: np.ndarray) -> None:
    v = _floats(vertices)
    lines = [f"OFF\n{len(vertices)} {len(triangles)} 0\n"]
    lines += [" ".join(row) + "\n" for row in v]
    lines += [f"3 {i} {j} {k}\n" for i, j, k in triangles.tolist()]
    path.write_text("".join(lines), encoding="utf-8")


def write_ints(path: Path, values: np.ndarray) -> None:
    path.write_text("".join(f"{v}\n" for v in values.tolist()), encoding="utf-8")


def write_subject(spec: Spec, seed: int, subject: int, out: Path) -> dict:
    """Write one subject's files into `out`; returns its truth arrays."""
    out.mkdir(parents=True, exist_ok=True)
    vertices, triangles, regions, hemispheres = subject_mesh(spec, seed, subject)
    write_off(out / "mesh.off", vertices, triangles)
    write_ints(out / "labels.txt", regions)
    write_ints(out / "hemispheres.txt", hemispheres)
    truth = {"vertices": vertices, "triangles": triangles, "regions": regions,
             "hemispheres": hemispheres}
    rng = np.random.default_rng([seed, subject, 2])
    if spec.vertex_fibers:
        pairs = rng.integers(0, len(vertices), size=(spec.vertex_fibers, 2))
        (out / "fibers.txt").write_text(
            "".join(f"v:{p} v:{q}\n" for p, q in pairs.tolist()), encoding="utf-8")
        truth["fiber_vertices"] = pairs
    elif spec.point_fibers:
        pairs = rng.integers(0, len(vertices), size=(spec.point_fibers, 2))
        points = _floats(vertices[pairs] + rng.normal(scale=POINT_JITTER_MM,
                                                      size=(len(pairs), 2, 3)))
        (out / "fibers.txt").write_text(
            "".join(f"p:{','.join(a)} p:{','.join(b)}\n" for a, b in points.tolist()),
            encoding="utf-8")
        truth["fiber_vertices"] = pairs
    np.savez(out / "truth.npz", **truth)
    return truth


def write_inputs(spec: Spec, seed: int, out: Path) -> None:
    for subject in range(spec.subjects):
        write_subject(spec, seed, subject, out / f"s{subject}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True,
                        help="directory for the full inputs (full/) and the warm-up's (warmup/)")
    args = parser.parse_args(argv)
    out = Path(args.out)
    write_inputs(SPECS[args.workload], args.seed, out / "full")
    write_inputs(SMALL[args.workload], args.seed, out / "warmup")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
