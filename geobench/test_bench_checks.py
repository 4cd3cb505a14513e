"""The benchmark's own tests: each output check rejects a corrupted output, the
traced run's wrappers reach every call site and name every metric, and the
run record finds the git SHA.

    PYTHONPATH=src python -m pytest -q geobench
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from inputs import SMALL, subject_mesh  # noqa: E402
from tracing import Tracer  # noqa: E402

import geosp  # noqa: E402
from geosp import kmeans, parcellator, surface_graph  # noqa: E402


@pytest.fixture(scope="module")
def atlas():
    """A small atlas subject parcellated at k=2, plus its fibres."""
    vertices, triangles, regions, hemispheres = subject_mesh(SMALL["atlas_pipeline"], 5, 0)
    mesh = geosp.TriangleMesh(vertices, triangles)
    result = parcellator.parcellate_atlas_mode(
        mesh, regions, parcellator.AtlasPlan.uniform(regions, 2), geosp.KmeansConfig(k=1))
    sub = result.parcellation.sub_parcel
    fibers = np.random.default_rng(5).integers(0, len(vertices), size=(300, 2))
    counts = geosp.build_connectivity_matrix([tuple(f) for f in fibers.tolist()], sub, mesh)
    return {"vertices": vertices, "triangles": triangles, "regions": regions,
            "sub": sub, "fibers": fibers, "counts": counts}


def all_problems(a, sub, counts):
    return (checks.partition(sub, len(a["vertices"]), 140) + checks.nested(sub, a["regions"], 2)
            + checks.connected(sub, a["triangles"])
            + checks.counts_match(counts, sub, a["fibers"]))


def test_true_output_passes(atlas):
    assert all_problems(atlas, atlas["sub"], atlas["counts"]) == []


def test_merged_sub_parcels_are_rejected(atlas):
    sub = atlas["sub"].copy()
    a, b = 0, 1  # both in the first region
    sub[sub == b] = a
    sub[sub > b] -= 1
    assert checks.partition(sub, len(sub), 140)
    assert checks.nested(sub, atlas["regions"], 2)


def test_vertex_moved_to_a_non_adjacent_parcel_is_rejected(atlas):
    sub = atlas["sub"].copy()
    u, v = checks.triangle_edges(atlas["triangles"])
    region = atlas["regions"] == atlas["regions"][0]
    a, b = np.unique(sub[region])
    touches_b = np.zeros(len(sub), dtype=bool)
    touches_b[u[sub[v] == b]] = True
    touches_b[v[sub[u] == b]] = True
    vertex = np.flatnonzero((sub == a) & ~touches_b)[0]
    sub[vertex] = b
    assert checks.partition(sub, len(sub), 140) == []
    assert checks.nested(sub, atlas["regions"], 2) == []
    assert checks.connected(sub, atlas["triangles"])


def test_miscounted_fiber_is_rejected(atlas):
    counts = atlas["counts"].copy()
    p, q = atlas["sub"][atlas["fibers"][0]]
    counts[p, q] += 1
    counts[q, p] += p != q
    assert checks.counts_match(counts, atlas["sub"], atlas["fibers"])
    assert checks.binary_match(counts > 0, counts) == []


def test_wrong_binary_dice_and_distance_are_rejected(atlas):
    counts = atlas["counts"]
    binary = (counts > 0).astype(np.int64)
    flipped = binary.copy()
    flipped[0, 0] ^= 1
    assert checks.binary_match(flipped, counts)
    true_dice = checks.dice(binary, flipped)
    assert checks.dice_match([(0, 1)], [true_dice], [binary, flipped]) == []
    assert checks.dice_match([(0, 1)], [true_dice + 1e-6], [binary, flipped])

    graph = geosp.build_graph(geosp.TriangleMesh(atlas["vertices"], atlas["triangles"]))
    dist = geosp.sssp(graph, 7).dist
    assert checks.distances_match(dist, atlas["vertices"], atlas["triangles"], 7) == []
    dist[np.flatnonzero(np.isfinite(dist))[-1]] *= 1 + 1e-7
    assert checks.distances_match(dist, atlas["vertices"], atlas["triangles"], 7)


def test_wrappers_replace_every_bound_name_and_restore_them():
    originals = (kmeans.sssp, parcellator.build_graph, surface_graph.induced_subgraph)
    tracer = Tracer()
    tracer.install()
    try:
        assert kmeans.sssp is not originals[0]
        assert parcellator.build_graph is not originals[1]
        assert surface_graph.induced_subgraph is not originals[2]
        assert parcellator.parallel_kmeans is kmeans.parallel_kmeans
        geosp.parcellate_whole_mode(geosp.grid_mesh(6, 5), np.zeros(30, dtype=np.int64), 3,
                                    geosp.KmeansConfig(k=1))
    finally:
        tracer.uninstall()
    assert (kmeans.sssp, parcellator.build_graph, surface_graph.induced_subgraph) == originals
    assert tracer.absent == set()
    m = tracer.metrics()
    assert m["surface_graph.sssp_calls"] == 3 and m["kmeans.parallel_kmeans_calls"] == 1
    assert m["surface_graph.build_graph_calls"] == 1


def test_benchmark_json_names_every_traced_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in spec["per_layer"]}
    assert listed == set(Tracer().metrics()) | {"trace.overhead_s"}


def test_git_sha_reads_loose_and_packed_refs(tmp_path, monkeypatch):
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text("# pack-refs with: peeled\n"
                                     "1111 refs/heads/other\n2222 refs/heads/main\n")
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.git_sha() == "2222"
    (git / "refs" / "heads" / "main").write_text("3333\n")
    assert run.git_sha() == "3333"
