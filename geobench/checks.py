"""Output checks made apart from geosp, and the process that runs them.

    python3 geobench/checks.py --workload W --inputs DIR --out DIR

Run as a script (run.py does so after the measuring process has ended), it
checks the warm-up unit and every unit of the run: the files each unit wrote
and the in-memory results it saved in result.npz. The last stdout line is a
JSON object with the problems found per unit and the digests of the last
unit's output files. Checking in a process of its own keeps scipy and the
checks' arrays out of the measured process's peak memory.

Each check returns a list of problems; an empty list means the output passed.
The references are the inputs' own truth arrays (see inputs.py), numpy and
scipy.sparse.csgraph, or properties the method must have. None of them calls
geosp or compares against a stored copy of earlier output.
"""
from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

import numpy as np
import scipy
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra


def triangle_edges(triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every triangle side as a (u, v) pair; shared sides appear twice."""
    t = np.asarray(triangles)
    e = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    return e[:, 0], e[:, 1]


def read_ints(path: Path) -> np.ndarray:
    return np.array(Path(path).read_text(encoding="utf-8").split(), dtype=np.int64)


def read_matrix(path: Path) -> np.ndarray:
    values = read_ints(path)
    p = int(values[0])
    return values[1:].reshape(p, p)


def partition(sub: np.ndarray, vertex_count: int, parcels: int) -> list[str]:
    """One id per vertex, ids exactly 0..parcels-1, no empty sub-parcel."""
    sub = np.asarray(sub)
    if sub.shape != (vertex_count,):
        return [f"parcellation has shape {sub.shape}, expected ({vertex_count},)"]
    if sub.min() < 0 or sub.max() >= parcels:
        return [f"ids span {sub.min()}..{sub.max()}, expected 0..{parcels - 1}"]
    empty = np.flatnonzero(np.bincount(sub, minlength=parcels) == 0)
    return [f"sub-parcels {empty[:5].tolist()} are empty"] if len(empty) else []


def nested(sub: np.ndarray, groups: np.ndarray, k: int) -> list[str]:
    """Each sub-parcel lies inside one group, and each group holds exactly k."""
    sub = np.asarray(sub)
    groups = np.asarray(groups)
    pairs = np.unique(sub * (int(groups.max()) + 1) + groups)
    parcel_of_pair = pairs // (int(groups.max()) + 1)
    problems = []
    if len(np.unique(parcel_of_pair)) != len(pairs):
        problems.append("a sub-parcel spans more than one region or hemisphere")
    per_group = np.bincount(pairs % (int(groups.max()) + 1))
    present = np.unique(groups)
    wrong = [int(g) for g in present if per_group[g] != k]
    if wrong:
        problems.append(f"groups {wrong[:5]} do not hold exactly k={k} sub-parcels")
    return problems


def connected(sub: np.ndarray, triangles: np.ndarray) -> list[str]:
    """Each sub-parcel is one connected piece of the mesh's edge graph."""
    sub = np.asarray(sub)
    u, v = triangle_edges(triangles)
    same = sub[u] == sub[v]
    n = len(sub)
    graph = coo_matrix((np.ones(int(same.sum())), (u[same], v[same])), shape=(n, n))
    pieces, piece_of = connected_components(graph, directed=False)
    parcels = len(np.unique(sub))
    if pieces == parcels:
        return []
    split = np.flatnonzero(np.bincount(np.unique(sub * pieces + piece_of) // pieces) > 1)
    return [f"{pieces - parcels} extra pieces; split sub-parcels {split[:5].tolist()}"]


def recount(sub: np.ndarray, fiber_vertices: np.ndarray) -> np.ndarray:
    """Symmetric fibre-count matrix from endpoint vertices, with np.add.at."""
    sub = np.asarray(sub)
    parcels = int(sub.max()) + 1
    p = sub[fiber_vertices[:, 0]]
    q = sub[fiber_vertices[:, 1]]
    counts = np.zeros((parcels, parcels), dtype=np.int64)
    np.add.at(counts, (p, q), 1)
    off = p != q
    np.add.at(counts, (q[off], p[off]), 1)
    return counts


def counts_match(counts: np.ndarray, sub: np.ndarray, fiber_vertices: np.ndarray) -> list[str]:
    ref = recount(sub, fiber_vertices)
    counts = np.asarray(counts)
    if counts.shape != ref.shape:
        return [f"count matrix has shape {counts.shape}, expected {ref.shape}"]
    bad = np.argwhere(counts != ref)
    if len(bad):
        return [f"{len(bad)} count cells differ from the recount, first at {bad[0].tolist()}"]
    return []


def binary_match(binary: np.ndarray, counts: np.ndarray) -> list[str]:
    ok = np.array_equal(np.asarray(binary), (np.asarray(counts) > 0).astype(np.int64))
    return [] if ok else ["binary matrix is not counts > 0"]


def dice(a: np.ndarray, b: np.ndarray) -> float:
    """Dice over the upper triangles, diagonal included."""
    iu = np.triu_indices(len(a))
    ea, eb = np.asarray(a)[iu] > 0, np.asarray(b)[iu] > 0
    total = int(ea.sum()) + int(eb.sum())
    return 1.0 if total == 0 else 2.0 * int((ea & eb).sum()) / total


def dice_match(pairs, values, binaries) -> list[str]:
    problems = []
    for (i, j), value in zip(pairs, values):
        ref = dice(binaries[i], binaries[j])
        if not np.isclose(value, ref, rtol=1e-12, atol=0.0):
            problems.append(f"dice of pair {i} {j} is {value}, recomputed {ref}")
    if len(values) != len(binaries) * (len(binaries) - 1) // 2:
        problems.append(f"{len(values)} dice values for {len(binaries)} subjects")
    return problems


def distances_match(dist: np.ndarray, vertices: np.ndarray, triangles: np.ndarray,
                    source: int) -> list[str]:
    """Single-source distances against scipy's Dijkstra on the triangle edges."""
    u, v = triangle_edges(triangles)
    key = np.unique(np.minimum(u, v) * len(vertices) + np.maximum(u, v))
    a, b = key // len(vertices), key % len(vertices)
    w = np.linalg.norm(vertices[a] - vertices[b], axis=1)
    n = len(vertices)
    graph = csr_matrix((w, (a, b)), shape=(n, n))
    ref = dijkstra(graph, directed=False, indices=source)
    dist = np.asarray(dist, dtype=np.float64)
    if dist.shape != ref.shape or not np.array_equal(np.isinf(dist), np.isinf(ref)):
        return [f"source {source}: reachable set differs from scipy's"]
    finite = np.isfinite(ref)
    if not np.allclose(dist[finite], ref[finite], rtol=1e-9, atol=0.0):
        worst = int(np.argmax(np.abs(dist[finite] - ref[finite])))
        return [f"source {source}: distance differs from scipy's at vertex {worst}"]
    return []


def check_unit(spec, truths: list[dict], unit_dir: Path) -> list[str]:
    """Every output check of one unit; returns the problems found."""
    saved = np.load(unit_dir / "result.npz")
    problems, binaries = [], []
    for s, truth in enumerate(truths):
        d = unit_dir / f"s{s}"
        n = len(truth["vertices"])
        if spec.mode == "connect":
            sub = truth["regions"]
        else:
            sub = saved[f"sub_{s}"]
            groups = truth["regions"] if spec.mode == "atlas" else truth["hemispheres"]
            problems += partition(sub, n, spec.k * len(np.unique(groups)))
            problems += nested(sub, groups, spec.k)
            problems += connected(sub, truth["triangles"])
            if not np.array_equal(read_ints(d / "parcellation.txt"), sub):
                problems.append(f"s{s}: parcellation.txt differs from the in-memory result")
        if "fiber_vertices" in truth:
            counts = saved[f"counts_{s}"]
            problems += counts_match(counts, sub, truth["fiber_vertices"])
            binary = read_matrix(d / "binary.txt")
            if not np.array_equal(read_matrix(d / "counts.txt"), counts):
                problems.append(f"s{s}: counts.txt differs from the in-memory matrix")
            problems += binary_match(binary, counts)
            binaries.append(binary)
    if "dice_values" in saved:
        problems += dice_match(saved["dice_pairs"].tolist(), saved["dice_values"], binaries)
    if "sssp_sources" in saved:  # sources on subject 0
        for source, dist in zip(saved["sssp_sources"].tolist(), saved["sssp_dist"]):
            problems += distances_match(dist, truths[0]["vertices"], truths[0]["triangles"],
                                        source)
    return problems


def digests(unit_dir: Path) -> dict[str, str]:
    """sha256 of every output file; summary.txt without its timing keys."""
    found = {}
    for path in sorted(p for p in unit_dir.rglob("*") if p.is_file()):
        if path.name == "result.npz":
            continue
        data = path.read_bytes()
        if path.name == "summary.txt":
            summary = json.loads(data)
            summary.pop("total_seconds", None)
            for region in summary.get("regions", []):
                region.pop("seconds", None)
            data = json.dumps(summary, sort_keys=True).encode()
        found[path.relative_to(unit_dir).as_posix()] = hashlib.sha256(data).hexdigest()
    return found


def check_all(spec, inputs: Path, out: Path) -> dict[str, list[str]]:
    """Problems per unit directory under `out` (u000, u001, ...)."""
    truths = [dict(np.load(inputs / f"s{s}" / "truth.npz")) for s in range(spec.subjects)]
    problems = {}
    for unit_dir in sorted(p for p in out.iterdir() if p.is_dir()):
        try:
            problems[unit_dir.name] = check_unit(spec, truths, unit_dir)
        except Exception as e:  # an output too broken to check is a failed check
            problems[unit_dir.name] = [f"checking the outputs raised {e!r}"]
    return problems


def main(argv=None) -> int:
    from inputs import SMALL, SPECS

    parser = argparse.ArgumentParser(description="Check every unit of one benchmark run.")
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--inputs", required=True, help="inputs.py's --out directory")
    parser.add_argument("--out", required=True, help="measure.py's --out directory")
    args = parser.parse_args(argv)
    inputs, out = Path(args.inputs), Path(args.out)
    report = {"warmup": check_all(SMALL[args.workload], inputs / "warmup", out / "warmup"),
              "units": check_all(SPECS[args.workload], inputs / "full", out / "full")}
    last = sorted(report["units"])[-1:]
    report["digests"] = digests(out / "full" / last[0]) if last else {}
    report["scipy"] = scipy.__version__
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
