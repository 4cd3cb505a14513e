"""Measuring process of one benchmark run; run.py starts it after the inputs exist.

    python3 geobench/measure.py --workload W --inputs DIR --out DIR \
        --seconds S --trace 0|1 --seed N [--spans FILE]

It runs one warm-up unit on the small shape, then repeats identical units of
the full workload for about S seconds. A unit reads its inputs with geosp's
loaders (timed as setup, per read) and runs the workload on them through the
public functions the `geosp` command calls (timed as wall). Garbage is
collected before each timed part. Every unit writes its output files and
saves its in-memory results to a directory of its own under --out; checks.py
checks them in a process of its own once this one has ended, so this process
imports no scipy and holds no check arrays. With --trace 1 untraced and
traced units alternate, and the per-layer metrics come from the traced ones.
The last stdout line is a JSON object with the result.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from geosp import connectivity, mesh_io, parcellator, surface_graph
from geosp.kmeans import KmeansConfig

from inputs import SMALL, SPECS, Spec
from tracing import Tracer

MIN_UNITS = 2  # units per run, at least (a traced run: one untraced, one traced)
SSSP_CHECK_SOURCES = 3
SSSP_CHECKED = {"atlas_pipeline"}  # on subject 0, the desk mesh


@dataclass
class Subject:
    mesh: object
    labels: np.ndarray
    fibers: list | None


def load(spec: Spec, inputs: Path) -> list[Subject]:
    """Read every subject's inputs with geosp's loaders."""
    subjects = []
    for s in range(spec.subjects):
        d = inputs / f"s{s}"
        mesh = mesh_io.load_mesh(d / "mesh.off")
        label_file = "hemispheres.txt" if spec.mode == "whole" else "labels.txt"
        labels = mesh_io.load_labels(d / label_file, expected_count=mesh.vertex_count)
        fibers = (connectivity.load_fibers(d / "fibers.txt")
                  if spec.vertex_fibers or spec.point_fibers else None)
        subjects.append(Subject(mesh, labels, fibers))
    return subjects


def run_work(spec: Spec, subjects: list[Subject], out: Path) -> dict:
    """The workload itself, as the `geosp` subcommands would run it."""
    config = KmeansConfig(k=1)  # the CLI defaults: seed 0, 20 iterations, 2 mm
    parcellations, counts = [], []
    for s, subject in enumerate(subjects):
        d = out / f"s{s}"
        d.mkdir(parents=True, exist_ok=True)
        if spec.mode == "connect":
            sub = subject.labels
        else:
            if spec.mode == "atlas":
                plan = parcellator.AtlasPlan.uniform(subject.labels, spec.k)
                result = parcellator.parcellate_atlas_mode(subject.mesh, subject.labels, plan,
                                                           config, workers=spec.workers)
            else:
                result = parcellator.parcellate_whole_mode(subject.mesh, subject.labels,
                                                           spec.k, config, workers=spec.workers)
            mesh_io.write_parcellation(d / "parcellation", result.parcellation, subject.mesh)
            (d / "summary.txt").write_text(json.dumps(result.summary(), indent=2) + "\n",
                                           encoding="utf-8", newline="\n")
            sub = result.parcellation.sub_parcel
            parcellations.append(sub)
        if subject.fibers is not None:
            matrix = connectivity.build_connectivity_matrix(subject.fibers, sub, subject.mesh)
            connectivity.save_matrix(d / "counts.txt", matrix)
            connectivity.save_matrix(d / "binary.txt", connectivity.binarize(matrix))
            counts.append(matrix)
    dice = None
    if len(subjects) > 1:
        binaries = [connectivity.binarize(connectivity.load_matrix(out / f"s{s}" / "binary.txt"))
                    for s in range(len(subjects))]
        dice = connectivity.pairwise_dice(binaries)
        (out / "dice.txt").write_text(connectivity.format_dice_report(dice),
                                      encoding="utf-8", newline="\n")
    return {"parcellations": parcellations, "counts": counts, "dice": dice}


def save_result(spec: Spec, subjects: list[Subject], result: dict, unit_dir: Path,
                seed: int) -> None:
    """Save what checks.py needs besides the files: the in-memory results and,
    on the desk mesh of atlas_pipeline, geosp's distances from a few seeded sources."""
    arrays = {f"sub_{s}": sub for s, sub in enumerate(result["parcellations"])}
    arrays.update({f"counts_{s}": c for s, c in enumerate(result["counts"])})
    if result["dice"] is not None:
        arrays["dice_pairs"] = np.asarray(result["dice"].pairs, dtype=np.int64).reshape(-1, 2)
        arrays["dice_values"] = np.asarray(result["dice"].values, dtype=np.float64)
    if spec.name in SSSP_CHECKED:
        graph = surface_graph.build_graph(subjects[0].mesh)
        rng = np.random.default_rng([seed, 0, 3])
        sources = rng.choice(graph.vertex_count, SSSP_CHECK_SOURCES, replace=False)
        arrays["sssp_sources"] = sources
        arrays["sssp_dist"] = np.stack([surface_graph.sssp(graph, int(v)).dist for v in sources])
    np.savez(unit_dir / "result.npz", **arrays)


def unit(spec: Spec, inputs: Path, unit_dir: Path, seed: int,
         tracer: Tracer | None = None) -> tuple[float, float, dict | None]:
    """One unit: read the inputs, then run the workload on them.

    Returns (setup seconds per read, wall seconds, per-layer metrics). An
    untraced unit reads its inputs spec.setup_loads times back to back, so one
    setup sample is long enough to time well; a traced one reads them once, so
    the loaders' per-layer metrics are those of one read.
    """
    reads = 1 if tracer else spec.setup_loads
    if tracer:
        tracer.reset()
        tracer.install()
    try:
        gc.collect()
        t0 = perf_counter()
        for _ in range(reads):
            subjects = None  # drop the previous read first, so every read starts alike
            subjects = load(spec, inputs)
        t1 = perf_counter()
        gc.collect()
        t2 = perf_counter()
        result = run_work(spec, subjects, unit_dir)
        t3 = perf_counter()
    finally:
        if tracer:
            tracer.uninstall()
    layers = tracer.metrics() if tracer else None
    save_result(spec, subjects, result, unit_dir, seed)
    return (t1 - t0) / reads, t3 - t2, layers


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    args = parser.parse_args(argv)
    spec, small = SPECS[args.workload], SMALL[args.workload]
    inputs, out = Path(args.inputs), Path(args.out)
    rss_baseline = rss_mb()

    start = perf_counter()
    unit(small, inputs / "warmup", out / "warmup" / "u000", args.seed)
    tracer = Tracer() if args.trace else None
    setups, walls, traced_walls, layer_runs, raised = [], [], [], [], []
    attempted = 0
    while True:
        began = perf_counter()
        for traced in ([False, True] if tracer else [False]):
            unit_dir = out / "full" / f"u{attempted:03d}"
            attempted += 1
            try:
                setup, wall, layers = unit(spec, inputs / "full", unit_dir, args.seed,
                                           tracer if traced else None)
            except Exception:  # a failing unit counts as failed; the run goes on
                traceback.print_exc(file=sys.stderr)
                raised.append(unit_dir.name)
                continue
            if traced:
                traced_walls.append(wall)
            else:
                setups.append(setup)
                walls.append(wall)
            if layers is not None:
                layer_runs.append(layers)
        elapsed, last = perf_counter() - start, perf_counter() - began
        if attempted >= MIN_UNITS and elapsed + last > args.seconds:
            break

    report = {"attempted": attempted, "raised": raised,
              "wall_samples": walls, "setup_samples": setups,
              "rss_baseline_mb": rss_baseline,
              "versions": {"python": sys.version.split()[0], "numpy": np.__version__}}
    if walls:
        report["metrics"] = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss_mb(),
        }
    if tracer and layer_runs and walls:
        report["layers"], report["counts_differ"] = summarize_layers(layer_runs)
        report["layers"]["trace.overhead_s"] = (statistics.median(traced_walls)
                                                - statistics.median(walls))
        report["absent"] = sorted(tracer.absent)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(report))
    return 0


def summarize_layers(runs: list[dict]) -> tuple[dict, list[str]]:
    """Median of each time over the traced units, and the counts that did not
    repeat exactly between them (there should be none)."""
    merged, differ = {}, []
    for name in runs[0]:
        values = [r[name] for r in runs]
        if name.endswith("_s") or name.endswith("overlap"):
            merged[name] = statistics.median(values)
        else:
            merged[name] = values[0]
            if any(v != values[0] for v in values):
                differ.append(name)
    return merged, differ


if __name__ == "__main__":
    raise SystemExit(main())
