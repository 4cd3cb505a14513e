#!/usr/bin/env python3
"""Tractography-scale connectivity: write, read and count N point fibres.

Builds the mesh of `scripts/paper_scale.py` (`atlas_mesh(nx, ny)`, default
390 x 390 per hemisphere, 304,200 vertices, with its fixed z jitter) and N
fibres (default 10**6) whose two endpoints are 3D points: a random vertex
each, moved by a normal jitter of 10**-3 mm per axis, all drawn from a fixed
seed. It writes them with `write_fibers` (repr digits, about 17 per
coordinate) into a temporary directory, reads them back with `load_fibers`
and counts them with `build_connectivity_matrix` against the 70 atlas
regions. It prints the seconds of the write, the load and the snap-and-count,
the process CPU seconds of one more snap of the loaded points alone (one
`map_endpoint_to_vertex` call; CPU time varies less between runs than wall
time), the peak RSS of the process and the sha256 of the count matrix, so
that two versions of geosp can be compared for speed and for identical counts.
"""
import argparse
import hashlib
import resource
import tempfile
import time
from pathlib import Path

import numpy as np
from paper_scale import jittered_atlas

from geosp import (Fibers, build_connectivity_matrix, load_fibers, map_endpoint_to_vertex,
                   write_fibers)

JITTER_MM = 1e-3  # as geobench's point fibres: endpoints next to the surface


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nx", type=int, default=390, help="grid width per hemisphere")
    ap.add_argument("--ny", type=int, default=390, help="grid height per hemisphere")
    ap.add_argument("--fibers", type=int, default=10**6, help="point fibres to write and read")
    args = ap.parse_args()

    mesh, regions, _hemis = jittered_atlas(args.nx, args.ny)
    rng = np.random.default_rng(1)
    ends = rng.integers(0, mesh.vertex_count, size=2 * args.fibers)
    points = mesh.vertices[ends] + rng.normal(scale=JITTER_MM, size=(len(ends), 3))
    fibers = Fibers(np.ones(len(ends), dtype=bool), np.zeros(len(ends), dtype=np.int64), points)
    print(f"mesh: {mesh.vertex_count} vertices, 70 regions; {args.fibers} point fibres")
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "fibers.txt"
        t0 = time.perf_counter()
        write_fibers(path, fibers)
        t1 = time.perf_counter()
        loaded = load_fibers(path)
        t2 = time.perf_counter()
    counts = build_connectivity_matrix(loaded, regions, mesh)
    t3 = time.perf_counter()
    c0 = time.process_time()
    map_endpoint_to_vertex(loaded.points, mesh)
    snap_cpu = time.process_time() - c0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    digest = hashlib.sha256(np.ascontiguousarray(counts, dtype=np.int64).tobytes()).hexdigest()
    print(f"{'write [s]':>10} {'load [s]':>9} {'snap+count [s]':>15} {'snap CPU [s]':>13}"
          f" {'peak RSS [MB]':>14}  counts sha256")
    print(f"{t1 - t0:>10.2f} {t2 - t1:>9.2f} {t3 - t2:>15.2f} {snap_cpu:>13.2f}"
          f" {peak_mb:>14.1f}  {digest}")


if __name__ == "__main__":
    main()
