#!/usr/bin/env python3
"""Paper-scale timing: the paper's two 350-parcel configurations on one mesh.

Builds `atlas_mesh(nx, ny)` (default 390 x 390 per hemisphere, 304,200
vertices, about a FreeSurfer white-surface pair) with a fixed uniform
+-0.25 mm z jitter, so that no two edges tie. It then runs atlas mode with
k=5 per region (70 regions, 350 sub-parcels) and whole mode with k=175 per
hemisphere, both with base seed 7 and 1 worker (`--config atlas` or
`--config whole` runs one of them alone). Each configuration runs in a
fresh process. For each, the script prints the wall time and the process
CPU time of the parcellation (CPU time varies less between runs on a shared
host), the wall time of writing `parcellation.txt` and `parcellation.ply`
into a temporary directory, the peak RSS of its process (mesh building and
writing included), the number of medoid rows (the sources of every
`kmeans._sweep`, one distance row each), the number of relaxation rounds of
every shortest-path sweep (calls of `surface_graph._out_edges`, the step of
each round of `_sweep` and `_nearest`) and the sha256 of `sub_parcel`, so
two versions of geosp can be compared for speed, for the rows their medoid
searches evaluate, for the rounds their sweeps take and for identical
output.
"""
import argparse
import hashlib
import resource
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np

from geosp import (AtlasPlan, KmeansConfig, TriangleMesh, atlas_mesh, kmeans,
                   parcellate_atlas_mode, parcellate_whole_mode, surface_graph,
                   write_parcellation)

CONFIGS = {"atlas k=5": ("atlas", 5), "whole k=175": ("whole", 175)}


def jittered_atlas(nx: int, ny: int):
    mesh, regions, hemis = atlas_mesh(nx=nx, ny=ny)
    vertices = mesh.vertices.copy()
    vertices[:, 2] += np.random.default_rng(0).uniform(-0.25, 0.25, len(vertices))
    return TriangleMesh(vertices, mesh.triangles), regions, hemis


def run(mode: str, k: int, nx: int, ny: int) -> tuple[float, float, float, float, int, int, str]:
    """(wall seconds, CPU seconds, write seconds, peak RSS in MB, medoid
    rows, relaxation rounds, sub_parcel sha256) of one configuration."""
    mesh, regions, hemis = jittered_atlas(nx, ny)
    config = KmeansConfig(k=1, rng_seed=7)
    rows = rounds = 0
    sweep, out_edges = kmeans._sweep, surface_graph._out_edges

    def counting(graph, sources, *args):
        nonlocal rows
        rows += len(sources)
        return sweep(graph, sources, *args)

    def counting_rounds(graph, frontier):
        nonlocal rounds
        rounds += 1
        return out_edges(graph, frontier)

    kmeans._sweep, surface_graph._out_edges = counting, counting_rounds
    try:
        t0, c0 = time.perf_counter(), time.process_time()
        if mode == "atlas":
            result = parcellate_atlas_mode(mesh, regions, AtlasPlan.uniform(regions, k), config)
        else:
            result = parcellate_whole_mode(mesh, hemis, k, config)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    finally:
        kmeans._sweep, surface_graph._out_edges = sweep, out_edges
    with tempfile.TemporaryDirectory() as out:
        t0 = time.perf_counter()
        write_parcellation(f"{out}/parcellation", result.parcellation, mesh)
        write = time.perf_counter() - t0
    sub_parcel = np.ascontiguousarray(result.parcellation.sub_parcel, dtype=np.int64)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return (wall, cpu, write, peak_mb, rows, rounds,
            hashlib.sha256(sub_parcel.tobytes()).hexdigest())


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nx", type=int, default=390, help="grid width per hemisphere")
    ap.add_argument("--ny", type=int, default=390, help="grid height per hemisphere")
    ap.add_argument("--config", choices=["atlas", "whole"],
                    help="run this configuration only (default: both)")
    args = ap.parse_args()

    print(f"mesh: {2 * args.nx * args.ny} vertices, 70 regions")
    print(f"{'config':<12} {'wall [s]':>9} {'cpu [s]':>8} {'write [s]':>10} {'peak RSS [MB]':>14}"
          f" {'medoid rows':>12} {'rounds':>8}  sub_parcel sha256")
    for name, (mode, k) in CONFIGS.items():
        if args.config not in (None, mode):
            continue
        # A fresh process per configuration, so each peak RSS is its own.
        with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
            wall, cpu, write, peak_mb, rows, rounds, digest = pool.submit(
                run, mode, k, args.nx, args.ny).result()
        print(f"{name:<12} {wall:>9.2f} {cpu:>8.2f} {write:>10.4f} {peak_mb:>14.1f} {rows:>12}"
              f" {rounds:>8}  {digest}", flush=True)


if __name__ == "__main__":
    main()
