import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geosp import (AtlasPlan, Block, FormatError, KmeansConfig, atlas_mesh, build_graph, cut_graph,
                   extract_region_subgraph, grid_mesh, icosphere_mesh, parallel_kmeans,
                   parcellate_atlas_mode, parcellate_whole_mode, two_hemispheres_mesh)
from geosp.parcellator import Parcellation
from geosp.util import derive_seed

from helpers import MESH_KINDS, irregular_mesh, kmeans_alone


@pytest.fixture(scope="module")
def small_atlas():
    # 35 regions per hemisphere, every region a 2x3 vertex block
    return atlas_mesh(nx=10, ny=21, spacing=1.0)


def _check_parcellation(parcellation: Parcellation, vertex_count: int):
    assert len(parcellation.sub_parcel) == vertex_count
    ids = np.unique(parcellation.sub_parcel)
    assert ids.tolist() == list(range(parcellation.parcel_count))  # contiguous, all used
    assert set(parcellation.provenance) == set(ids.tolist())


def test_atlas_mode_counts_k2(small_atlas):
    mesh, regions, _ = small_atlas
    res = parcellate_atlas_mode(mesh, regions, AtlasPlan.uniform(regions, 2),
                                KmeansConfig(k=1, rng_seed=0))
    assert res.parcellation.parcel_count == 140
    _check_parcellation(res.parcellation, mesh.vertex_count)


def test_atlas_mode_counts_k5(small_atlas):
    mesh, regions, _ = small_atlas
    res = parcellate_atlas_mode(mesh, regions, AtlasPlan.uniform(regions, 5),
                                KmeansConfig(k=1, rng_seed=0))
    assert res.parcellation.parcel_count == 350


def test_atlas_mode_region_purity(small_atlas):
    mesh, regions, _ = small_atlas
    res = parcellate_atlas_mode(mesh, regions, AtlasPlan.uniform(regions, 2),
                                KmeansConfig(k=1, rng_seed=4))
    for gid in range(res.parcellation.parcel_count):
        members = regions[res.parcellation.sub_parcel == gid]
        assert len(np.unique(members)) == 1
        assert res.parcellation.provenance[gid][0] == members[0]


def test_single_region_k1():
    mesh = grid_mesh(5, 5)
    labels = np.zeros(mesh.vertex_count, dtype=int)
    res = parcellate_atlas_mode(mesh, labels, AtlasPlan.uniform(labels, 1))
    assert res.parcellation.parcel_count == 1
    assert set(res.parcellation.sub_parcel.tolist()) == {0}


def test_region_smaller_than_k_is_an_error():
    mesh = grid_mesh(4, 4)
    labels = np.zeros(16, dtype=int)
    labels[0] = 7  # region 7 has a single vertex
    with pytest.raises(ValueError, match="region 7"):
        parcellate_atlas_mode(mesh, labels, AtlasPlan({0: 2, 7: 2}))


@pytest.mark.parametrize("workers", [0, -5])
def test_non_positive_workers_rejected(small_atlas, workers):
    mesh, regions, hemis = small_atlas
    with pytest.raises(ValueError, match="workers"):
        parcellate_atlas_mode(mesh, regions, AtlasPlan.uniform(regions, 1), workers=workers)
    with pytest.raises(ValueError, match="workers"):
        parcellate_whole_mode(mesh, hemis, 2, workers=workers)


def test_plan_coverage_errors():
    mesh = grid_mesh(4, 4)
    labels = np.zeros(16, dtype=int)
    labels[8:] = 1
    with pytest.raises(ValueError, match="does not cover"):
        parcellate_atlas_mode(mesh, labels, AtlasPlan({0: 2}))
    with pytest.raises(ValueError, match="absent"):
        parcellate_atlas_mode(mesh, labels, AtlasPlan({0: 2, 1: 2, 5: 1}))


def test_labels_length_checked():
    mesh = grid_mesh(4, 4)
    with pytest.raises(ValueError, match="labels"):
        parcellate_atlas_mode(mesh, np.zeros(9, dtype=int), AtlasPlan({0: 1}))


def test_worker_count_does_not_change_output(small_atlas):
    mesh, regions, _ = small_atlas
    plan = AtlasPlan.uniform(regions, 2)
    config = KmeansConfig(k=1, rng_seed=11)
    serial = parcellate_atlas_mode(mesh, regions, plan, config, workers=1)
    pooled = parcellate_atlas_mode(mesh, regions, plan, config, workers=8)
    np.testing.assert_array_equal(serial.parcellation.sub_parcel,
                                  pooled.parcellation.sub_parcel)


def test_changing_one_regions_k_leaves_others_alone(small_atlas):
    mesh, regions, _ = small_atlas
    config = KmeansConfig(k=1, rng_seed=5)
    base = parcellate_atlas_mode(mesh, regions, AtlasPlan.uniform(regions, 2), config)
    plan = AtlasPlan.uniform(regions, 2).k_by_region | {3: 5}
    changed = parcellate_atlas_mode(mesh, regions, AtlasPlan(plan), config)

    def groups_of(parcellation, region):
        mask = np.array([parcellation.provenance[g][0] == region
                         for g in parcellation.sub_parcel])
        local = parcellation.sub_parcel[mask]
        return sorted(sorted(np.flatnonzero(mask)[local == g].tolist())
                      for g in np.unique(local))

    for region in (0, 1, 17, 69):
        assert groups_of(base.parcellation, region) == groups_of(changed.parcellation, region)


def test_adding_a_region_leaves_others_alone(small_atlas):
    # per-region seeds derive from the region id, so carving a new region out
    # of region 69 cannot disturb regions 0..68
    mesh, regions, _ = small_atlas
    config = KmeansConfig(k=1, rng_seed=8)
    base = parcellate_atlas_mode(mesh, regions, AtlasPlan.uniform(regions, 2), config)

    edited = regions.copy()
    carved = np.flatnonzero(regions == 69)[:3]
    edited[carved] = 99
    plan = AtlasPlan.uniform(regions, 2).k_by_region | {99: 1}
    more = parcellate_atlas_mode(mesh, edited, AtlasPlan(plan), config)

    for region in range(69):
        base_mask = np.array([base.parcellation.provenance[g] == (region, 0)
                              for g in base.parcellation.sub_parcel])
        more_mask = np.array([more.parcellation.provenance[g] == (region, 0)
                              for g in more.parcellation.sub_parcel])
        np.testing.assert_array_equal(base_mask, more_mask)


def test_run_metadata(small_atlas):
    mesh, regions, _ = small_atlas
    res = parcellate_atlas_mode(mesh, regions, AtlasPlan.uniform(regions, 2),
                                KmeansConfig(k=1, rng_seed=0))
    assert len(res.runs) == 70
    assert all(r.iterations <= 20 for r in res.runs)
    summary = res.summary()
    assert summary["sub_parcel_count"] == 140
    assert len(summary["parcel_sizes"]) == 140
    assert sum(summary["parcel_sizes"]) == mesh.vertex_count


def _deterministic_summary(result) -> dict:
    """summary() without its wall-clock fields."""
    summary = result.summary()
    del summary["total_seconds"]
    for region in summary["regions"]:
        del region["seconds"]
    return summary


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(MESH_KINDS), st.integers(1, 5),
       st.booleans())
def test_pipeline_is_a_partition_whatever_the_worker_count(seed, kind, regions, scattered):
    """Both modes on irregular meshes: a partition of the vertices into the
    planned number of parcels, contiguous provenance ids, and the same
    sub_parcel and summary for workers 1, 2 and 8. Scattered labels make
    regions and hemispheres that fall apart into pieces."""
    rng = np.random.default_rng(seed)
    mesh = irregular_mesh(kind, rng)
    n = mesh.vertex_count
    if scattered:
        labels = rng.integers(0, regions, size=n)
        hemis = rng.integers(0, 2, size=n)
    else:  # bands along x
        order = np.argsort(mesh.vertices[:, 0], kind="stable")
        labels = np.empty(n, dtype=np.int64)
        labels[order] = np.arange(n) * regions // n
        hemis = (labels >= (regions + 1) // 2).astype(np.int64)
    present, sizes = np.unique(labels, return_counts=True)
    plan = AtlasPlan({int(r): int(rng.integers(1, min(size, 6) + 1))
                      for r, size in zip(present, sizes)})
    hemi_sizes = np.unique(hemis, return_counts=True)[1]
    k = int(rng.integers(1, min(hemi_sizes.min(), 6) + 1))
    config = KmeansConfig(k=1, rng_seed=int(rng.integers(1 << 31)))

    for run, region_of, want_k in (
            (lambda w: parcellate_atlas_mode(mesh, labels, plan, config, workers=w), labels,
             plan.k_by_region),
            (lambda w: parcellate_whole_mode(mesh, hemis, k, config, workers=w), hemis,
             {int(h): k for h in np.unique(hemis)})):
        results = [run(w) for w in (1, 2, 8)]
        p = results[0].parcellation
        _check_parcellation(p, n)
        assert p.parcel_count == sum(want_k.values())
        assert sorted(p.provenance.values()) == [(r, local) for r in sorted(want_k)
                                                 for local in range(want_k[r])]
        for gid, (region, _local) in p.provenance.items():
            assert set(region_of[p.sub_parcel == gid].tolist()) == {region}
        for other in results[1:]:
            assert other.parcellation.sub_parcel.tobytes() == p.sub_parcel.tobytes()
            assert other.parcellation.provenance == p.provenance
            assert _deterministic_summary(other) == _deterministic_summary(results[0])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(MESH_KINDS), st.integers(1, 5),
       st.booleans(), st.sampled_from(["atlas", "whole"]))
def test_lockstep_regions_equal_their_runs_alone(seed, kind, regions, scattered, mode):
    """Every region (atlas) or hemisphere (whole) of one lockstep run equals
    parallel_kmeans on its own induced subgraph: groups, centroids,
    iterations, stop reason, fallbacks and energy history. Scattered labels
    make regions that fall apart into pieces; k runs from 1 to the region
    size."""
    rng = np.random.default_rng(seed)
    mesh = irregular_mesh(kind, rng)
    n = mesh.vertex_count
    if mode == "whole":
        regions = 2
    if scattered:
        labels = rng.integers(0, regions, size=n)
    else:  # bands along x
        order = np.argsort(mesh.vertices[:, 0], kind="stable")
        labels = np.empty(n, dtype=np.int64)
        labels[order] = np.arange(n) * regions // n
    present, sizes = np.unique(labels, return_counts=True)
    config = KmeansConfig(k=1, rng_seed=int(rng.integers(1 << 31)))
    if mode == "atlas":
        k_of = {int(r): int(rng.choice([1, size, rng.integers(1, min(size, 6) + 1)]))
                for r, size in zip(present, sizes)}
        result = parcellate_atlas_mode(mesh, labels, AtlasPlan(k_of), config)
    else:
        k = int(rng.choice([1, sizes.min(), rng.integers(1, min(sizes.min(), 6) + 1)]))
        k_of = {int(r): k for r in present}
        result = parcellate_whole_mode(mesh, labels, k, config)
    graph = build_graph(mesh)
    blocks = [Block(np.flatnonzero(labels == r),
                    KmeansConfig(k=k_of[r], rng_seed=derive_seed(config.rng_seed, r)))
              for r in k_of]
    lockstep = parallel_kmeans(cut_graph(graph, labels), blocks).blocks

    p = result.parcellation
    for block, together, run in zip(blocks, lockstep, result.runs):
        region = int(labels[block.ids[0]])
        sub, idmap = extract_region_subgraph(graph, labels, region)
        alone = kmeans_alone(sub, block.config)
        groups = [idmap[g] for g in alone.groups]
        assert [g.tolist() for g in together.groups] == [g.tolist() for g in groups]
        assert together.centroids == [int(idmap[c]) for c in alone.centroids]
        assert together.assignment.tolist() == alone.assignment.tolist()
        assert together.energy_history == alone.energy_history
        assert together.last_shift_mm == alone.last_shift_mm
        for res in (together, run):
            assert res.iterations == alone.iterations
            assert res.converged_by_tolerance == alone.converged_by_tolerance
            assert res.euclidean_fallbacks == alone.euclidean_fallbacks
        for local, members in enumerate(groups):
            gid = int(p.sub_parcel[members[0]])
            assert p.provenance[gid] == (region, local)
            assert np.flatnonzero(p.sub_parcel == gid).tolist() == members.tolist()


# -- whole mode ----------------------------------------------------------------


def test_whole_mode_two_hemispheres():
    mesh, hemis = two_hemispheres_mesh(level=1)
    res = parcellate_whole_mode(mesh, hemis, 4, KmeansConfig(k=1, rng_seed=2))
    assert res.parcellation.parcel_count == 8
    _check_parcellation(res.parcellation, mesh.vertex_count)
    # hemisphere purity
    for gid, (hemi, _local) in res.parcellation.provenance.items():
        members = hemis[res.parcellation.sub_parcel == gid]
        assert set(members.tolist()) == {hemi}


def test_whole_mode_k70_gives_140():
    mesh, _regions, hemis = atlas_mesh(nx=15, ny=21)  # 315 vertices per hemisphere
    res = parcellate_whole_mode(mesh, hemis, 70, KmeansConfig(k=1, rng_seed=0))
    assert res.parcellation.parcel_count == 140
    _check_parcellation(res.parcellation, mesh.vertex_count)


def test_whole_mode_single_hemisphere_k1():
    mesh = icosphere_mesh(1)
    res = parcellate_whole_mode(mesh, np.zeros(mesh.vertex_count, dtype=int), 1)
    assert res.parcellation.parcel_count == 1


def test_whole_mode_deterministic_rerun():
    mesh, hemis = two_hemispheres_mesh(level=1)
    config = KmeansConfig(k=1, rng_seed=42)
    a = parcellate_whole_mode(mesh, hemis, 4, config)
    b = parcellate_whole_mode(mesh, hemis, 4, config, workers=4)
    np.testing.assert_array_equal(a.parcellation.sub_parcel, b.parcellation.sub_parcel)


def _peak_extra_threads(run) -> int:
    """Most threads alive at once during run(), beyond those alive before."""
    baseline = threading.active_count()
    peak = baseline
    done = threading.Event()

    def watch():
        nonlocal peak
        while not done.is_set():
            peak = max(peak, threading.active_count())
            done.wait(0.001)

    watcher = threading.Thread(target=watch)
    watcher.start()
    try:
        run()
    finally:
        done.set()
        watcher.join(timeout=10)
    assert not watcher.is_alive()
    return peak - baseline - 1  # minus the watcher


def test_parcellation_starts_no_thread(small_atlas):
    mesh, regions, _ = small_atlas  # 70 regions
    plan = AtlasPlan.uniform(regions, 2)
    assert _peak_extra_threads(lambda: parcellate_atlas_mode(mesh, regions, plan, workers=8)) == 0
    mesh, _regions, hemis = atlas_mesh(40, 42)  # two hemispheres
    assert _peak_extra_threads(lambda: parcellate_whole_mode(mesh, hemis, 10, workers=2)) == 0


def test_whole_mode_k_exceeds_hemisphere():
    mesh, hemis = two_hemispheres_mesh(level=0)  # 12 vertices per sphere
    with pytest.raises(ValueError, match="fewer than k"):
        parcellate_whole_mode(mesh, hemis, 13)


def test_whole_mode_rejects_three_labels():
    mesh = grid_mesh(3, 3)
    labels = np.arange(9) % 3
    with pytest.raises(ValueError, match="one or two"):
        parcellate_whole_mode(mesh, labels, 1)


# -- plans and seeds -------------------------------------------------------------


def test_atlas_plan_from_file(tmp_path):
    p = tmp_path / "plan.txt"
    p.write_text("# region k\n0 2\n1 5\n")
    plan = AtlasPlan.from_file(p)
    assert plan.k_by_region == {0: 2, 1: 5}


@pytest.mark.parametrize("text,msg", [
    ("0 2\n0 3\n", "duplicate"),
    ("0\n", "expected"),
    ("0 two\n", "expected"),
    ("", "empty"),
])
def test_atlas_plan_file_errors(tmp_path, text, msg):
    p = tmp_path / "plan.txt"
    p.write_text(text)
    with pytest.raises(ValueError, match=msg):
        AtlasPlan.from_file(p)


@pytest.mark.parametrize("text,line,k", [
    ("0 2\n1 0\n", 2, 0),
    ("# region k\n0 -3\n1 2\n", 2, -3),
    ("0 2\n\n1 5\n2 0\n0 4\n", 4, 0),  # ahead of the duplicate on line 5
])
def test_atlas_plan_file_k_below_one_names_the_line(tmp_path, text, line, k):
    p = tmp_path / "plan.txt"
    p.write_text(text)
    with pytest.raises(FormatError, match=f"k must be >= 1, got {k}") as err:
        AtlasPlan.from_file(p)
    assert err.value.line_no == line
    assert str(err.value).startswith(f"{p}:{line}: ")


def test_atlas_plan_rejects_nonpositive_k():
    with pytest.raises(ValueError, match="k must be"):
        AtlasPlan({0: 0})


def test_derived_seeds_differ_by_region():
    seeds = {derive_seed(0, r) for r in range(100)}
    assert len(seeds) == 100
    assert derive_seed(7, 3) == derive_seed(7, 3)
    assert derive_seed(7, 3) != derive_seed(8, 3)


def test_whole_mode_imports_no_scipy():
    # scipy is a test dependency only: importing scipy.sparse.csgraph alone
    # roughly doubles a numpy process's resident memory.
    code = ("import sys, numpy as np, geosp\n"
            "mesh, _r, hemis = geosp.atlas_mesh(8, 9)\n"
            "geosp.parcellate_whole_mode(mesh, hemis, 3, geosp.KmeansConfig(k=1), workers=2)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
