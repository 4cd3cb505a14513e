#!/usr/bin/env python3
"""Timing sweep: atlas-based subdivision vs whole-hemisphere subdivision.

For a range of total sub-parcel counts on the same synthetic cortex, times
both modes and prints a table. In both modes every region or hemisphere runs
in lockstep, one shortest-path sweep serving all of them. Atlas mode stays
cheap as the count grows (small per-region problems), while whole mode grows
with it (seeding takes one sweep per centroid over a hemisphere-sized graph,
and the medoid searches run on larger clusters).
"""
import argparse
import time

from geosp import (AtlasPlan, KmeansConfig, atlas_mesh, parcellate_atlas_mode,
                   parcellate_whole_mode)
from geosp.synthetic import REGIONS_PER_HEMISPHERE


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nx", type=int, default=40, help="grid width per hemisphere")
    ap.add_argument("--ny", type=int, default=42, help="grid height per hemisphere")
    ap.add_argument("--ks", type=int, nargs="+", default=[1, 2, 3, 4, 5],
                    help="per-region k values to sweep (atlas mode)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=2)
    args = ap.parse_args()

    mesh, regions, hemis = atlas_mesh(nx=args.nx, ny=args.ny)
    config = KmeansConfig(k=1, rng_seed=args.seed)
    print(f"synthetic cortex: {mesh.vertex_count} vertices, "
          f"{2 * REGIONS_PER_HEMISPHERE} regions")
    print(f"{'parcels':>8} {'atlas [s]':>10} {'whole [s]':>10}")

    for k in args.ks:
        total = 2 * REGIONS_PER_HEMISPHERE * k

        t0 = time.perf_counter()
        parcellate_atlas_mode(mesh, regions, AtlasPlan.uniform(regions, k),
                              config, workers=args.workers)
        atlas_t = time.perf_counter() - t0

        t0 = time.perf_counter()
        parcellate_whole_mode(mesh, hemis, REGIONS_PER_HEMISPHERE * k,
                              config, workers=args.workers)
        whole_t = time.perf_counter() - t0

        print(f"{total:>8} {atlas_t:>10.2f} {whole_t:>10.2f}")


if __name__ == "__main__":
    main()
