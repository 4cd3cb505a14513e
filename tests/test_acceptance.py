"""Acceptance suite: one test per criterion, in order, each printing a
PASS/FAIL line (run `pytest tests/test_acceptance.py -v -s` to see them live).
"""
import time
from contextlib import contextmanager

import numpy as np

from geosp import (AtlasPlan, KmeansConfig, atlas_mesh, binarize, bridge_graph,
                   build_connectivity_matrix, build_graph, comp_centroids,
                   dice_coefficient, grid_mesh, pairwise_dice, parcellate_atlas_mode,
                   parcellate_whole_mode, sssp, wave_sheet_mesh)
from geosp.cli import run
from geosp.oracles import oracle_apsp as apsp, oracle_medoid, oracle_sssp

from helpers import bumpy_grid_graph, calc_groups, kmeans_alone

# Geodesic/Euclidean ratio between adjacent crests of the A=5mm, lambda=10mm
# wave sheet, computed once with the edge-relaxation oracle and frozen here.
WAVE_FACTOR = 2.2975682518593463


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS")


def test_criterion_1_parcel_counts_at_desk_scale():
    with criterion(1, "parcel-count reproduction, 140/350 at ~20k vertices"):
        mesh, regions, _hemis = atlas_mesh(nx=100, ny=98)  # 19600 vertices
        assert mesh.vertex_count == 19600
        for k, expected in ((2, 140), (5, 350)):
            t0 = time.perf_counter()
            res = parcellate_atlas_mode(mesh, regions, AtlasPlan.uniform(regions, k),
                                        KmeansConfig(k=1, rng_seed=0), workers=4)
            elapsed = time.perf_counter() - t0
            assert res.parcellation.parcel_count == expected
            assert elapsed < 60.0, f"k={k} took {elapsed:.1f}s"


def test_criterion_2_shortest_path_oracles():
    with criterion(2, "sssp vs Bellman-Ford on 50 graphs; apsp vs repeated sssp"):
        for seed in range(50):
            g = bumpy_grid_graph(seed, min_side=5, max_side=22)  # <= 484 vertices
            assert g.vertex_count <= 500
            src = (seed * 31) % g.vertex_count
            fast = sssp(g, src).dist
            slow = oracle_sssp(g, src).dist
            assert np.allclose(fast, slow, rtol=1e-9, atol=0)
        for seed in range(10):
            g = bumpy_grid_graph(seed + 100, min_side=5, max_side=14)  # <= 196
            assert g.vertex_count <= 200
            dense = apsp(g)
            stacked = np.stack([sssp(g, u).dist for u in range(g.vertex_count)])
            assert np.allclose(dense, stacked, rtol=1e-9, atol=0)


def test_criterion_3_medoid_oracle():
    with criterion(3, "comp_centroids vs oracle_medoid on 200 random clusters"):
        checked = 0
        seed = 0
        while checked < 200:
            g = bumpy_grid_graph(seed + 500, min_side=7, max_side=10)
            rng = np.random.default_rng(seed)
            k = int(rng.integers(3, 6))
            centroids = rng.choice(g.vertex_count, size=k, replace=False).tolist()
            assignment, _ = calc_groups(g, centroids)
            medoids = comp_centroids(g, assignment, centroids)
            for cluster_id, medoid in enumerate(medoids):
                ids = np.flatnonzero(assignment == cluster_id)
                expected = oracle_medoid(g, ids, previous_centroid=centroids[cluster_id])
                assert medoid == expected, (seed, cluster_id)
                checked += 1
            seed += 1


def test_criterion_4_bridge_fixed_point():
    with criterion(4, "two-triangles-plus-bridge: k=2 finds the triangles, 100 seeds"):
        g = bridge_graph()
        expected = [frozenset({0, 1, 2}), frozenset({3, 4, 5})]
        for seed in range(100):
            res = kmeans_alone(g, KmeansConfig(k=2, rng_seed=seed))
            groups = sorted((frozenset(grp.tolist()) for grp in res.groups), key=min)
            assert groups == expected, f"seed {seed}: {groups}"


def test_criterion_5_termination_and_convergence():
    with criterion(5, "1000 runs: iterations <= 20; tolerance exits move < 2 mm"):
        graphs = [bumpy_grid_graph(s, min_side=6, max_side=8) for s in range(4)]
        for seed in range(1000):
            g = graphs[seed % len(graphs)]
            config = KmeansConfig(k=2 + seed % 4, rng_seed=seed)
            res = kmeans_alone(g, config)
            assert res.iterations <= 20
            if res.converged_by_tolerance:
                assert res.last_shift_mm < 2.0


def test_criterion_6_byte_identical_across_worker_counts(tmp_path):
    with criterion(6, "identical outputs with workers 1, 2, 8"):
        synth = tmp_path / "synth"
        assert run(["synth", "--kind", "atlas", "--nx", "15", "--ny", "21",
                    "--out", str(synth)]) == 0
        blobs = {}
        for workers in (1, 2, 8):
            out = tmp_path / f"w{workers}"
            assert run(["parcellate-atlas", "--mesh", str(synth / "mesh.off"),
                        "--labels", str(synth / "labels.txt"),
                        "--k", "2", "--seed", "9", "--workers", str(workers),
                        "--out", str(out)]) == 0
            blobs[workers] = ((out / "parcellation.txt").read_bytes(),
                              (out / "parcellation.ply").read_bytes())
        assert blobs[1] == blobs[2] == blobs[8]


def test_criterion_7_geodesic_euclidean_discrimination():
    with criterion(7, "wave sheet: geodesic factor matches the relaxation oracle"):
        mesh = wave_sheet_mesh(41, 9, 0.5, amplitude=5.0, wavelength=10.0)
        g = build_graph(mesh)
        a = 4 * 41 + 5    # crest column x=2.5, middle row
        b = 4 * 41 + 25   # adjacent crest, x=12.5
        euclid = float(np.linalg.norm(mesh.vertices[a] - mesh.vertices[b]))
        oracle_factor = float(oracle_sssp(g, a).dist[b]) / euclid
        assert oracle_factor > 1.0
        assert abs(oracle_factor - WAVE_FACTOR) <= 1e-9 * WAVE_FACTOR
        measured_factor = float(sssp(g, a).dist[b]) / euclid
        assert abs(measured_factor - oracle_factor) <= 1e-6 * oracle_factor


def test_criterion_8_connectivity_dice_pipeline():
    with criterion(8, "connectivity counts and Dice match brute-force oracles"):
        mesh = grid_mesh(10, 10)
        res = parcellate_whole_mode(mesh, np.zeros(100, dtype=int), 8,
                                    KmeansConfig(k=1, rng_seed=0))
        sub = res.parcellation.sub_parcel
        n_parcels = res.parcellation.parcel_count

        binaries = []
        for subject in range(5):
            rng = np.random.default_rng(subject)
            fibers = [(int(a), int(b)) for a, b in rng.integers(0, 100, size=(500, 2))]
            counts = build_connectivity_matrix(fibers, res.parcellation, mesh)
            tally = np.zeros((n_parcels, n_parcels), dtype=np.int64)
            for va, vb in fibers:
                p, q = sub[va], sub[vb]
                tally[p, q] += 1
                if p != q:
                    tally[q, p] += 1
            assert np.array_equal(counts, tally)
            assert counts[np.triu_indices(n_parcels)].sum() == 500
            binaries.append(binarize(counts))

        result = pairwise_dice(binaries)
        brute = [dice_coefficient(binaries[i], binaries[j])
                 for i in range(5) for j in range(i + 1, 5)]
        assert result.values == brute

        assert dice_coefficient(binaries[0], binaries[0]) == 1.0
        left = np.zeros((4, 4), dtype=int)
        right = np.zeros((4, 4), dtype=int)
        left[0, 1] = left[1, 0] = 1
        right[2, 3] = right[3, 2] = 1
        assert dice_coefficient(left, right) == 0.0


def test_criterion_9_runtime_trend():
    with criterion(9, "atlas mode faster than whole mode at equal parcel count"):
        mesh, regions, hemis = atlas_mesh(nx=40, ny=42)
        config = KmeansConfig(k=1, rng_seed=1)

        runs = {
            "atlas": lambda: parcellate_atlas_mode(mesh, regions, AtlasPlan.uniform(regions, 2),
                                                   config, workers=2),
            "whole": lambda: parcellate_whole_mode(mesh, hemis, 70, config, workers=2),
        }
        best = dict.fromkeys(runs, float("inf"))
        counts = {}
        # Best of 3 interleaved runs per mode: a single pair is a race that a
        # pause on a shared host can decide.
        for _ in range(3):
            for mode, run in runs.items():
                t0 = time.perf_counter()
                counts[mode] = run().parcellation.parcel_count
                best[mode] = min(best[mode], time.perf_counter() - t0)
        atlas_time, whole_time = best["atlas"], best["whole"]

        assert counts == {"atlas": 140, "whole": 140}
        print(f"  atlas {atlas_time:.2f}s vs whole {whole_time:.2f}s "
              f"at 140 parcels / {mesh.vertex_count} vertices")
        assert atlas_time < whole_time
