"""Command-line interface: parcellate-atlas, parcellate-whole, connectivity, dice, synth."""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import connectivity as conn
from . import mesh_io, synthetic
from .kmeans import KmeansConfig
from .parcellator import AtlasPlan, parcellate_atlas_mode, parcellate_whole_mode


def _add_kmeans_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="base RNG seed (default 0)")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                   help="accepted and validated (>= 1), but it does not change how the "
                        "work runs: all regions or hemispheres run in lockstep on the "
                        "calling thread (default: available parallelism)")
    p.add_argument("--tolerance", type=float, default=2.0,
                   help="convergence tolerance in mm (default 2.0)")
    p.add_argument("--max-iterations", type=int, default=20,
                   help="iteration cap (default 20)")
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geosp",
        description="Geodesic surface parcellation and connectivity evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("parcellate-atlas",
                        help="subdivide each labeled region into k sub-parcels")
    pa.add_argument("--mesh", required=True)
    pa.add_argument("--labels", required=True, help="per-vertex region label file")
    group = pa.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="uniform sub-parcels per region")
    group.add_argument("--plan", help="plan file with 'region_id k' lines")
    _add_kmeans_flags(pa)

    pw = sub.add_parser("parcellate-whole",
                        help="subdivide each hemisphere into k sub-parcels")
    pw.add_argument("--mesh", nargs="+", required=True,
                    help="one mesh (optionally with --hemis) or two hemisphere meshes")
    pw.add_argument("--hemis", help="per-vertex 0/1 hemisphere label file")
    pw.add_argument("--k", type=int, required=True)
    _add_kmeans_flags(pw)

    pc = sub.add_parser("connectivity",
                        help="build parcel connectivity count and binary matrices")
    pc.add_argument("--mesh", required=True)
    pc.add_argument("--parcellation", required=True, help="per-vertex sub-parcel file")
    pc.add_argument("--fibers", required=True)
    pc.add_argument("--out", required=True, help="output directory")

    pd = sub.add_parser("dice", help="pairwise Dice reproducibility of matrices")
    pd.add_argument("matrices", nargs="+", help="two or more matrix files")
    pd.add_argument("--out", help="report path (default: stdout)")
    pd.add_argument("--no-diagonal", action="store_true",
                    help="exclude self-connections from the edge sets")

    ps = sub.add_parser("synth", help="generate synthetic meshes, labels, and fibers")
    ps.add_argument("--kind", required=True,
                    choices=["grid", "icosphere", "wave_sheet", "dumbbell",
                             "two_hemispheres", "atlas"])
    ps.add_argument("--out", required=True, help="output directory")
    ps.add_argument("--nx", type=int, default=10)
    ps.add_argument("--ny", type=int, default=10)
    ps.add_argument("--spacing", type=float, default=1.0)
    ps.add_argument("--level", type=int, default=1)
    ps.add_argument("--radius", type=float, default=10.0)
    ps.add_argument("--amplitude", type=float, default=5.0)
    ps.add_argument("--wavelength", type=float, default=10.0)
    ps.add_argument("--bridge-length", type=float, default=10.0)
    ps.add_argument("--gap", type=float, default=30.0)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--fibers", type=int, default=0,
                    help="also write this many random vertex-pair fibers")
    return parser


def _kmeans_config(args) -> KmeansConfig:
    """The k-means settings of the `_add_kmeans_flags` flags; each task sets its own k."""
    return KmeansConfig(k=1, max_iterations=args.max_iterations,
                        convergence_tolerance_mm=args.tolerance, rng_seed=args.seed)


def _write_parcellation_outputs(out_dir: Path, mesh, result) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    mesh_io.write_parcellation(out_dir / "parcellation", result.parcellation, mesh)
    summary = result.summary()
    (out_dir / "summary.txt").write_text(json.dumps(summary, indent=2) + "\n",
                                         encoding="utf-8", newline="\n")
    print(f"{summary['sub_parcel_count']} sub-parcels "
          f"in {summary['total_seconds']:.2f}s -> {out_dir}")


def _cmd_parcellate_atlas(args) -> int:
    mesh = mesh_io.load_mesh(args.mesh)
    labels = mesh_io.load_labels(args.labels, expected_count=mesh.vertex_count)
    plan = AtlasPlan.from_file(args.plan) if args.plan else AtlasPlan.uniform(labels, args.k)
    result = parcellate_atlas_mode(mesh, labels, plan, _kmeans_config(args), workers=args.workers)
    _write_parcellation_outputs(Path(args.out), mesh, result)
    return 0


def _cmd_parcellate_whole(args) -> int:
    if len(args.mesh) == 1:
        mesh = mesh_io.load_mesh(args.mesh[0])
        if args.hemis:
            hemis = mesh_io.load_labels(args.hemis, expected_count=mesh.vertex_count)
        else:
            hemis = np.zeros(mesh.vertex_count, dtype=np.int64)
    elif len(args.mesh) == 2:
        if args.hemis:
            raise ValueError("--hemis goes with one --mesh; two meshes are the two hemispheres")
        left = mesh_io.load_mesh(args.mesh[0])
        right = mesh_io.load_mesh(args.mesh[1])
        mesh, hemis = mesh_io.concat_meshes(left, right)
    else:
        raise ValueError("--mesh takes one or two paths")
    result = parcellate_whole_mode(mesh, hemis, args.k, _kmeans_config(args), workers=args.workers)
    _write_parcellation_outputs(Path(args.out), mesh, result)
    return 0


def _cmd_connectivity(args) -> int:
    mesh = mesh_io.load_mesh(args.mesh)
    sub = mesh_io.load_labels(args.parcellation, expected_count=mesh.vertex_count)
    fibers = conn.load_fibers(args.fibers)
    counts = conn.build_connectivity_matrix(fibers, sub, mesh)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    conn.save_matrix(out_dir / "counts.txt", counts)
    conn.save_matrix(out_dir / "binary.txt", conn.binarize(counts))
    print(f"{len(fibers)} fibers over {counts.shape[0]} parcels -> {out_dir}")
    return 0


def _cmd_dice(args) -> int:
    if len(args.matrices) < 2:
        raise ValueError("dice needs at least two matrix files")
    mats = [conn.binarize(conn.load_matrix(p)) for p in args.matrices]
    result = conn.pairwise_dice(mats, include_diagonal=not args.no_diagonal)
    report = conn.format_dice_report(result)
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8", newline="\n")
        print(f"dice report -> {args.out}")
    else:
        sys.stdout.write(report)
    return 0


def _cmd_synth(args) -> int:
    spec = synthetic.MeshSpec(kind=args.kind, nx=args.nx, ny=args.ny,
                              spacing=args.spacing, level=args.level,
                              radius=args.radius, amplitude=args.amplitude,
                              wavelength=args.wavelength,
                              bridge_length=args.bridge_length, gap=args.gap,
                              rng_seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    made = synthetic.make_mesh(spec)
    if args.kind == "atlas":
        mesh, regions, hemis = made
        mesh_io.write_labels(out_dir / "labels.txt", regions)
        mesh_io.write_labels(out_dir / "hemispheres.txt", hemis)
    elif args.kind == "two_hemispheres":
        mesh, hemis = made
        mesh_io.write_labels(out_dir / "labels.txt", hemis)
    else:
        mesh = made
    mesh_io.write_mesh(out_dir / "mesh.off", mesh)
    if args.fibers > 0:
        fibers = synthetic.make_fibers(mesh.vertex_count, args.fibers, rng_seed=args.seed)
        conn.write_fibers(out_dir / "fibers.txt", fibers)
    print(f"{args.kind}: {mesh.vertex_count} vertices, "
          f"{mesh.triangle_count} triangles -> {out_dir}")
    return 0


_COMMANDS = {
    "parcellate-atlas": _cmd_parcellate_atlas,
    "parcellate-whole": _cmd_parcellate_whole,
    "connectivity": _cmd_connectivity,
    "dice": _cmd_dice,
    "synth": _cmd_synth,
}


def run(argv) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as e:
        print(f"geosp: error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
